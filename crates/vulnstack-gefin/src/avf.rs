//! Microarchitecture-level fault-injection campaigns (AVF + HVF in one
//! pass).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vulnstack_core::effects::{FaultEffect, Tally};
use vulnstack_core::journal::{fnv1a64, Fingerprint, JournalError};
use vulnstack_core::sched::{self, Quarantine};
use vulnstack_core::stack::FpmDist;
use vulnstack_core::trace::CampaignMetrics;
use vulnstack_core::{Campaign, ResumeStats, RunOpts};
use vulnstack_microarch::ooo::{Fpm, HwStructure};
use vulnstack_microarch::{FaultModel, FaultTrace, OooCore, RunStatus};

use crate::prepare::Prepared;
use crate::prune::{plan_model_sites, InjectionPlan, PruneStats, Pruner};

/// How an injection run reaches its injection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectEngine {
    /// Build a fresh core and simulate the whole fault-free prefix from
    /// cycle 0 (the un-accelerated reference path).
    FromScratch,
    /// Restore the nearest golden-run checkpoint at or before the
    /// injection cycle and simulate only the delta. Bit-identical
    /// results to [`InjectEngine::FromScratch`]; see
    /// `tests/checkpoint_equivalence.rs`.
    Checkpointed,
}

/// One injection's observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Injection cycle.
    pub cycle: u64,
    /// Site index within the fault model's site space over the structure
    /// (flat bit for bit-granular models; see [`HwStructure::sites`]).
    pub bit: u64,
    /// The fault model injected.
    pub model: FaultModel,
    /// End-to-end fault effect (the AVF observation).
    pub effect: FaultEffect,
    /// First architectural manifestation (the HVF observation); `None`
    /// means the hardware masked the fault.
    pub fpm: Option<Fpm>,
    /// Cycle of the first manifestation (`None` while masked).
    pub fpm_cycle: Option<u64>,
}

/// One fault site of a model-aware campaign: where, when, and what kind
/// of fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSite {
    /// Injection cycle.
    pub cycle: u64,
    /// Site index within `model`'s site space over the structure.
    pub bit: u64,
    /// The fault model.
    pub model: FaultModel,
}

/// Runs one injection: advance to `cycle` (warm-started from the nearest
/// golden checkpoint), flip `bit`, run to completion, classify.
pub fn run_one(prep: &Prepared, structure: HwStructure, cycle: u64, bit: u64) -> InjectionRecord {
    run_one_with(prep, structure, cycle, bit, InjectEngine::Checkpointed)
}

/// [`run_one`] under an explicit fault model (see
/// [`vulnstack_microarch::OooCore::inject_model`] for the per-model
/// injection semantics).
pub fn run_one_model(prep: &Prepared, structure: HwStructure, site: ModelSite) -> InjectionRecord {
    run_one_inner(
        prep,
        structure,
        site.cycle,
        site.bit,
        site.model,
        InjectEngine::Checkpointed,
        None,
        None,
    )
    .0
}

/// [`run_one`] with an explicit prefix engine.
pub fn run_one_with(
    prep: &Prepared,
    structure: HwStructure,
    cycle: u64,
    bit: u64,
    engine: InjectEngine,
) -> InjectionRecord {
    run_one_inner(
        prep,
        structure,
        cycle,
        bit,
        FaultModel::BitFlip,
        engine,
        None,
        None,
    )
    .0
}

/// [`run_one_with`] with fault-lifetime tracing enabled: also returns the
/// event trace of the injection (ring capacity `cap`). The record is
/// identical to the untraced run.
pub fn run_one_traced(
    prep: &Prepared,
    structure: HwStructure,
    cycle: u64,
    bit: u64,
    engine: InjectEngine,
    cap: usize,
) -> (InjectionRecord, Option<FaultTrace>) {
    run_one_inner(
        prep,
        structure,
        cycle,
        bit,
        FaultModel::BitFlip,
        engine,
        Some(cap),
        None,
    )
}

/// The shared injection runner: optional lifetime tracing, optional
/// campaign-metrics recording. Tracing and metrics never influence the
/// returned record (asserted by `tests/trace_reconciliation.rs` and the
/// engine-equivalence test).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_one_inner(
    prep: &Prepared,
    structure: HwStructure,
    cycle: u64,
    bit: u64,
    model: FaultModel,
    engine: InjectEngine,
    trace_cap: Option<usize>,
    metrics: Option<&CampaignMetrics>,
) -> (InjectionRecord, Option<FaultTrace>) {
    let mut core = match engine {
        InjectEngine::FromScratch => OooCore::new(&prep.cfg, &prep.image),
        InjectEngine::Checkpointed => prep.checkpoints.restore(cycle),
    };
    if let Some(m) = metrics {
        // Restore distance: cycles of fault-free prefix this run must
        // re-simulate. FromScratch always pays the full prefix.
        m.record_restore_distance(match engine {
            InjectEngine::FromScratch => cycle,
            InjectEngine::Checkpointed => prep.checkpoints.restore_distance(cycle),
        });
    }
    core.run_until(cycle);
    if let Some(cap) = trace_cap {
        core.enable_fault_trace(cap);
    }
    core.inject_model(structure, bit, model);
    // Run in slices; once every corrupted copy is gone and nothing
    // tainted is in flight, the rest of the run is identical to the
    // golden run, so it can be classified Masked without simulating it.
    // Slices grow exponentially: most masked faults go extinct within a
    // few hundred cycles of injection, so checking early bounds the
    // wasted post-extinction simulation, while the doubling keeps scan
    // overhead negligible for long-lived faults. The schedule is
    // engine-independent, so both engines classify every site
    // identically.
    let mut slice = 256u64;
    loop {
        let next = (core.cycle() + slice).min(prep.budget);
        slice = (slice * 2).min(4_096);
        core.run_until(next);
        if core.ended() || core.cycle() >= prep.budget {
            break;
        }
        if core.fault_extinct() {
            if let Some(m) = metrics {
                m.record_extinct_early();
            }
            core.note_fault_extinct();
            let trace = core.fault_trace().cloned();
            return (
                InjectionRecord {
                    cycle,
                    bit,
                    model,
                    effect: FaultEffect::Masked,
                    fpm: None,
                    fpm_cycle: None,
                },
                trace,
            );
        }
    }
    let out = core.finish();
    if let Some(m) = metrics {
        if out.sim.status == RunStatus::Timeout {
            m.record_watchdog_expiry();
        }
    }
    let effect = FaultEffect::classify(
        out.sim.status,
        &out.sim.output,
        prep.golden.status,
        &prep.expected_output,
    );
    (
        InjectionRecord {
            cycle,
            bit,
            model,
            effect,
            fpm: out.fpm,
            fpm_cycle: out.fpm_cycle,
        },
        out.ftrace,
    )
}

/// Draws the campaign's fault sites — `(cycle, bit)` pairs, uniformly
/// sampled over the golden run and the structure's bit population — from
/// one seeded stream, so the sample set is independent of the thread
/// count. A sampled or pruned bit-flip [`avf_campaign`] with `seed`
/// injects exactly these sites in this (sampling) order; index `k` here
/// is site `k` of the campaign, which is how `vulnstack trace --site k`
/// replays a specific campaign injection.
pub fn draw_sites(prep: &Prepared, structure: HwStructure, n: usize, seed: u64) -> Vec<(u64, u64)> {
    let bits = structure.bits(&prep.cfg);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(1..=prep.golden.cycles),
                rng.gen_range(0..bits),
            )
        })
        .collect()
}

/// Canonical form of a fault-model set: deduplicated, in
/// [`FaultModel::ALL`] order, restricted to models that apply to
/// `structure`. Campaigns, fingerprints, and reports all use this order
/// so the same set always has the same identity.
pub fn canonical_models(models: &[FaultModel], structure: HwStructure) -> Vec<FaultModel> {
    FaultModel::ALL
        .into_iter()
        .filter(|&m| models.contains(&m) && structure.admits(m))
        .collect()
}

/// Draws `n` `(cycle, bit, model)` fault sites over a model set. With
/// the single legacy model `[BitFlip]` this is exactly [`draw_sites`]
/// with the model tagged on — same RNG stream, same sites — so model
/// threading is a no-op for legacy campaigns. With multiple models each
/// site draws its model uniformly, then a site index over that model's
/// own site space.
pub fn draw_model_sites(
    prep: &Prepared,
    structure: HwStructure,
    n: usize,
    seed: u64,
    models: &[FaultModel],
) -> Vec<ModelSite> {
    let models = canonical_models(models, structure);
    assert!(!models.is_empty(), "no fault model applies to {structure}");
    if models == [FaultModel::BitFlip] {
        return draw_sites(prep, structure, n, seed)
            .into_iter()
            .map(|(cycle, bit)| ModelSite {
                cycle,
                bit,
                model: FaultModel::BitFlip,
            })
            .collect();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            let model = models[rng.gen_range(0..models.len())];
            let cycle = rng.gen_range(1..=prep.golden.cycles);
            let bit = rng.gen_range(0..structure.sites(model, &prep.cfg));
            ModelSite { cycle, bit, model }
        })
        .collect()
}

/// Journal record-schema version for gefin campaigns: bump when the
/// record encoding or the injection semantics change, so journals written
/// by an older engine are refused rather than silently mixed in.
/// Version 2: records gained a fault-model tag.
pub(crate) const RECORD_VERSION: u32 = 2;

/// Encodes an [`InjectionRecord`] as the journal payload
/// (`cycle,bit,effect,fpm,fpm_cycle,model`, with `-` for the
/// masked/`None` fields).
pub fn encode_record(r: &InjectionRecord) -> String {
    format!(
        "{},{},{},{},{},{}",
        r.cycle,
        r.bit,
        r.effect.name(),
        r.fpm.map_or("-", Fpm::name),
        r.fpm_cycle
            .map_or_else(|| "-".to_string(), |c| c.to_string()),
        r.model.name(),
    )
}

/// Inverse of [`encode_record`]; `None` marks a journal written by an
/// incompatible engine (surfaced as corruption, never silently dropped).
pub fn decode_record(s: &str) -> Option<InjectionRecord> {
    let mut it = s.split(',');
    let cycle = it.next()?.parse().ok()?;
    let bit = it.next()?.parse().ok()?;
    let effect = FaultEffect::from_name(it.next()?)?;
    let fpm = match it.next()? {
        "-" => None,
        name => Some(Fpm::from_name(name)?),
    };
    let fpm_cycle = match it.next()? {
        "-" => None,
        c => Some(c.parse().ok()?),
    };
    let model = FaultModel::from_name(it.next()?)?;
    if it.next().is_some() {
        return None;
    }
    Some(InjectionRecord {
        cycle,
        bit,
        model,
        effect,
        fpm,
        fpm_cycle,
    })
}

/// The model set's canonical fingerprint fragment (`+`-joined names in
/// [`FaultModel::ALL`] order). Part of the journal identity: resuming a
/// campaign whose model set changed draws different sites and must be
/// refused, not silently mixed.
fn models_fragment(models: &[FaultModel]) -> String {
    let names: Vec<&str> = models.iter().map(|m| m.name()).collect();
    names.join("+")
}

/// The journal identity of an AVF campaign (the executor adds the
/// workload label). Its three shapes are kept byte-for-byte so journals
/// written by earlier builds still resume: a single-model bit-flip
/// sampled campaign carries no plan suffix, every other campaign appends
/// `;plan=<plan>` (an exhaustive plan with its fixed cycle, and seed 0).
/// The golden run's length and output hash tie the identity to the
/// actual golden run, not just the workload's name: a same-named
/// workload whose input or compiled image changed draws different sites
/// and must be refused.
fn avf_fingerprint(
    prep: &Prepared,
    structure: HwStructure,
    plan: &InjectionPlan,
    models: &[FaultModel],
    samples: usize,
) -> Fingerprint {
    let (seed, plan_detail) = match *plan {
        InjectionPlan::Exhaustive { cycle } => (0, format!("exhaustive@{cycle}")),
        InjectionPlan::Sampled { n: _, seed } => (seed, "sampled".to_string()),
        InjectionPlan::Pruned { n: _, seed } => (seed, "pruned".to_string()),
    };
    let mut params = format!(
        "golden_cycles={};output={:016x};models={}",
        prep.golden.cycles,
        fnv1a64(&prep.expected_output),
        models_fragment(models),
    );
    if models != [FaultModel::BitFlip] || !matches!(plan, InjectionPlan::Sampled { .. }) {
        params.push_str(&format!(";plan={plan_detail}"));
    }
    Fingerprint {
        engine: "gefin-avf".to_string(),
        config: prep.cfg.model.name().to_string(),
        structure: structure.name().to_string(),
        seed,
        samples: samples as u64,
        params,
        version: RECORD_VERSION,
        ..Fingerprint::default()
    }
}

/// The journal metadata of a campaign run through `pruner`: the digest
/// of its class table, which a resume rebuilds and must match.
pub(crate) fn class_table_meta(pruner: Option<&Pruner<'_>>) -> Vec<(String, String)> {
    pruner
        .iter()
        .map(|p| {
            (
                "class-table".to_string(),
                format!("fnv={:016x}", p.table().digest()),
            )
        })
        .collect()
}

/// Per-model outcome tallies of a model-aware campaign, in
/// [`FaultModel::ALL`] order; models with no records are omitted. The
/// ARMORY-style exhaustive report: one `(model, AVF tally, FPM
/// distribution)` row per injected model.
pub fn per_model_tallies(records: &[InjectionRecord]) -> Vec<(FaultModel, Tally, FpmDist)> {
    FaultModel::ALL
        .into_iter()
        .filter_map(|m| {
            let recs: Vec<&InjectionRecord> = records.iter().filter(|r| r.model == m).collect();
            if recs.is_empty() {
                return None;
            }
            let tally: Tally = recs.iter().map(|r| r.effect).collect();
            let mut fpm = FpmDist::new();
            for r in &recs {
                fpm.add(r.fpm);
            }
            Some((m, tally, fpm))
        })
        .collect()
}

/// Aggregates of one AVF campaign: everything the CLI tables and JSON
/// export need, accumulated record-by-record in the sink fold. The
/// records themselves are only reachable through the stream's tee, so
/// peak memory is bounded by the sink channel regardless of campaign
/// size.
#[derive(Debug)]
pub struct AvfStreamed {
    /// Target structure.
    pub structure: HwStructure,
    /// Structure bit population.
    pub bits: u64,
    /// AVF tally over all completed injections.
    pub tally: Tally,
    /// FPM distribution over all completed injections (HVF view).
    pub fpm: FpmDist,
    /// Per-model tallies in [`FaultModel::ALL`] order, models with no
    /// records omitted — the same shape [`per_model_tallies`] computes
    /// from an in-RAM record vector, accumulated incrementally here.
    pub per_model: Vec<(FaultModel, Tally, FpmDist)>,
    /// Sites whose every injection attempt panicked.
    pub quarantined: Vec<Quarantine>,
    /// Replay/execute accounting (nothing replayed for unjournaled
    /// runs).
    pub stats: ResumeStats,
}

impl AvfStreamed {
    /// The structure's measured AVF.
    pub fn avf(&self) -> vulnstack_core::effects::VulnFactor {
        self.tally.vf()
    }

    /// The structure's measured HVF.
    pub fn hvf(&self) -> f64 {
        self.fpm.hvf()
    }
}

/// Streaming tally accumulator: folds encoded records into the
/// aggregate and per-model tallies one payload at a time, never holding
/// more than one decoded record.
struct TallyAccum {
    tally: Tally,
    fpm: FpmDist,
    /// Indexed by position in [`FaultModel::ALL`]; the count
    /// distinguishes "no records" from "all-masked".
    per_model: Vec<(Tally, FpmDist, u64)>,
}

impl TallyAccum {
    fn new() -> TallyAccum {
        TallyAccum {
            tally: Tally::default(),
            fpm: FpmDist::new(),
            per_model: FaultModel::ALL
                .iter()
                .map(|_| (Tally::default(), FpmDist::new(), 0))
                .collect(),
        }
    }

    fn add_payload(&mut self, payload: &str) {
        // Payloads come from `encode_record` (fresh sites) or a
        // decode-validated journal replay, so this never skips a
        // record.
        if let Some(r) = decode_record(payload) {
            self.tally.add(r.effect);
            self.fpm.add(r.fpm);
            let k = FaultModel::ALL
                .iter()
                .position(|&m| m == r.model)
                .expect("every record model is in FaultModel::ALL");
            let slot = &mut self.per_model[k];
            slot.0.add(r.effect);
            slot.1.add(r.fpm);
            slot.2 += 1;
        }
    }

    fn finish(self) -> (Tally, FpmDist, Vec<(FaultModel, Tally, FpmDist)>) {
        let per_model = FaultModel::ALL
            .into_iter()
            .zip(self.per_model)
            .filter(|(_, (_, _, n))| *n > 0)
            .map(|(m, (t, f, _))| (m, t, f))
            .collect();
        (self.tally, self.fpm, per_model)
    }
}

/// Runs an AVF/HVF campaign as `opts` says: the sites of `plan` over
/// the fault models in `models` that apply to `structure`, on
/// `opts.threads` workers with work stealing. Sampled plans run every
/// site individually; pruned and exhaustive plans execute through the
/// equivalence-class [`Pruner`], whose records are bit-identical to
/// individual runs (the second return value is its accounting). Records
/// are identical at any thread count, journaled or not.
///
/// Records are never collected: each settled site flows worker →
/// bounded sink channel → journal append (with `opts.journal`) → the
/// tally fold → optional tee, so peak memory is bounded by
/// [`vulnstack_core::StreamOpts::channel_cap`] regardless of campaign
/// size. A journaled pruned or exhaustive campaign also journals its
/// class-table digest as `class-table` metadata: the table is rebuilt on
/// resume, and any disagreement is refused rather than silently
/// re-pruned.
///
/// # Errors
///
/// Any [`JournalError`]: filesystem failures, a missing
/// journal in [`vulnstack_core::ResumeMode::ResumeRequired`], a journal
/// written for a different campaign (fingerprint or class-table
/// mismatch), or a corrupt journal body.
///
/// # Panics
///
/// Panics when no model in `models` applies to `structure`.
pub fn avf_campaign(
    prep: &Prepared,
    structure: HwStructure,
    plan: &InjectionPlan,
    models: &[FaultModel],
    opts: &RunOpts<'_>,
) -> Result<(AvfStreamed, Option<PruneStats>), JournalError> {
    let bits = structure.bits(&prep.cfg);
    let models = canonical_models(models, structure);
    let sites = plan_model_sites(prep, structure, plan, &models);
    // Claim the sites in injection-cycle order: consecutive claims
    // restore from the same warm checkpoint.
    let order = sched::sort_order_by(&sites, |s| s.cycle);
    let pruner =
        (!matches!(plan, InjectionPlan::Sampled { .. })).then(|| Pruner::new(prep, structure));
    let metrics = opts.metrics;
    let mut acc = TallyAccum::new();
    let out = Campaign {
        items: &sites,
        order: &order,
        fingerprint: avf_fingerprint(prep, structure, plan, &models, sites.len()),
        meta: class_table_meta(pruner.as_ref()),
    }
    .run(
        opts,
        |_, s: &ModelSite| {
            encode_record(&match &pruner {
                Some(p) => p.run_site_model(s.cycle, s.bit, s.model, metrics),
                None => {
                    run_one_inner(
                        prep,
                        structure,
                        s.cycle,
                        s.bit,
                        s.model,
                        InjectEngine::Checkpointed,
                        None,
                        metrics,
                    )
                    .0
                }
            })
        },
        |p| decode_record(p).is_some(),
        |_, p| acc.add_payload(p),
    )?;
    let (tally, fpm, per_model) = acc.finish();
    Ok((
        AvfStreamed {
            structure,
            bits,
            tally,
            fpm,
            per_model,
            quarantined: out.quarantined,
            stats: out.stats,
        },
        pruner.map(|p| p.stats()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_core::{Collector, StreamOpts};
    use vulnstack_microarch::CoreModel;
    use vulnstack_workloads::WorkloadId;

    /// A sampled bit-flip campaign plus its records in sampling order,
    /// collected through the stream's tee.
    fn sampled(
        prep: &Prepared,
        structure: HwStructure,
        n: usize,
        seed: u64,
        threads: usize,
    ) -> (AvfStreamed, Vec<InjectionRecord>) {
        let seen = Collector::default();
        let tee = seen.tee();
        let opts = RunOpts {
            stream: StreamOpts {
                tee: Some(&tee),
                ..StreamOpts::from_env()
            },
            ..RunOpts::new(threads)
        };
        let (r, _) = avf_campaign(
            prep,
            structure,
            &InjectionPlan::Sampled { n, seed },
            &[FaultModel::BitFlip],
            &opts,
        )
        .unwrap();
        let records = seen
            .sorted()
            .iter()
            .map(|(_, p)| decode_record(p).unwrap())
            .collect();
        (r, records)
    }

    #[test]
    fn campaign_is_deterministic_and_mixed() {
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A72).unwrap();
        let (a, ra) = sampled(&prep, HwStructure::RegisterFile, 24, 7, 4);
        let (b, rb) = sampled(&prep, HwStructure::RegisterFile, 24, 7, 2);
        assert_eq!(
            a.tally, b.tally,
            "same seed must give the same tally regardless of threads"
        );
        assert_eq!(
            ra, rb,
            "per-injection records must be independent of the thread count"
        );
        assert_eq!(a.tally.total(), 24);
        // The register file is mostly dead space: expect masking.
        assert!(a.tally.masked > 0);
    }

    #[test]
    fn l1d_faults_can_escape_or_corrupt() {
        // qsort writes its whole output array through L1d; faults there
        // have a fair chance of reaching the output.
        let w = WorkloadId::Qsort.build();
        let prep = Prepared::new(&w, CoreModel::A9).unwrap();
        let (r, records) = sampled(&prep, HwStructure::L1d, 40, 11, 4);
        assert_eq!(r.tally.total(), 40);
        // HVF must be consistent with the FPM distribution.
        let visible = records.iter().filter(|x| x.fpm.is_some()).count() as f64;
        assert!((r.hvf() - visible / 40.0).abs() < 1e-9);
    }

    #[test]
    fn record_codec_roundtrips() {
        let recs = [
            InjectionRecord {
                cycle: 12,
                bit: 3,
                effect: FaultEffect::Masked,
                fpm: None,
                fpm_cycle: None,
                model: FaultModel::BitFlip,
            },
            InjectionRecord {
                cycle: 999,
                bit: 0,
                effect: FaultEffect::Sdc,
                fpm: Some(Fpm::Wd),
                fpm_cycle: Some(1004),
                model: FaultModel::ByteCorrupt,
            },
            InjectionRecord {
                cycle: 1,
                bit: u64::MAX,
                effect: FaultEffect::Crash,
                fpm: Some(Fpm::Esc),
                fpm_cycle: Some(0),
                model: FaultModel::StuckAt,
            },
        ];
        for r in recs {
            assert_eq!(decode_record(&encode_record(&r)), Some(r));
        }
        assert_eq!(decode_record("nonsense"), None);
        assert_eq!(decode_record("1,2,NotAnEffect,-,-,bit-flip"), None);
        assert_eq!(decode_record("1,2,SDC,-,-,not-a-model"), None);
        assert_eq!(decode_record("1,2,SDC,-,-,bit-flip,extra"), None);
    }

    #[test]
    fn different_seeds_differ() {
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A72).unwrap();
        let (_, a) = sampled(&prep, HwStructure::Lsq, 16, 1, 4);
        let (_, b) = sampled(&prep, HwStructure::Lsq, 16, 2, 4);
        let sites_a: Vec<_> = a.iter().map(|r| (r.cycle, r.bit)).collect();
        let sites_b: Vec<_> = b.iter().map(|r| (r.cycle, r.bit)).collect();
        assert_ne!(sites_a, sites_b);
    }
}
