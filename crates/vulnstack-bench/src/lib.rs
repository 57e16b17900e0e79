//! Shared harness code for the figure/table reproduction binaries.
//!
//! Every binary reads three environment knobs:
//!
//! * `VULNSTACK_FAULTS` — injections per (workload, structure/mode)
//!   campaign. The paper used 2,000; defaults here are lower so a full
//!   figure regenerates in minutes. Raise for tighter error margins.
//! * `VULNSTACK_THREADS` — worker threads (defaults to the machine).
//! * `VULNSTACK_SEED` — the master seed every campaign seed derives
//!   from (default 2021).

use std::collections::BTreeMap;

use vulnstack_core::effects::{Tally, VulnFactor};
use vulnstack_core::stack::{FpmDist, StructureAvf, WeightedAvf};
use vulnstack_core::trace::CampaignMetrics;
use vulnstack_core::{Collector, RunOpts, StreamOpts};
use vulnstack_gefin::{
    avf_campaign, decode_record, default_threads, pvf_campaign, AvfStreamed, FuncPrepared,
    InjectionPlan, InjectionRecord, Prepared, PruneStats, PvfMode,
};
use vulnstack_isa::Isa;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::{Workload, WorkloadId};

/// Why the harness's campaigns cannot fail: they keep no journal, so the
/// streaming sink does no I/O.
const NO_IO: &str = "an unjournaled campaign does no I/O";

/// Master seed for all campaigns (override with `VULNSTACK_SEED`).
pub fn master_seed() -> u64 {
    vulnstack_gefin::default_seed()
}

/// Prepares a microarchitectural campaign or exits with a named error:
/// `prepare qsort/A72: <cause>` on stderr and a nonzero exit code. The
/// figure binaries run unattended inside `run_figures.sh`; a panic
/// backtrace there buries which (workload, model) pair failed.
pub fn prepare_or_die(w: &Workload, model: CoreModel) -> Prepared {
    Prepared::new(w, model).unwrap_or_else(|e| {
        eprintln!("error: prepare {}/{model}: {e}", w.id.name());
        std::process::exit(1);
    })
}

/// Derives a sub-seed for a named campaign: FNV-1a 64 over the master
/// seed's little-endian bytes, then each part's bytes followed by a
/// `0xff` separator (a byte no UTF-8 string holds). The hash is fixed,
/// so a figure's seeds do not move with the toolchain.
pub fn sub_seed(master: u64, parts: &[&str]) -> u64 {
    let mut bytes = master.to_le_bytes().to_vec();
    for p in parts {
        bytes.extend_from_slice(p.as_bytes());
        bytes.push(0xff);
    }
    vulnstack_core::journal::fnv1a64(&bytes)
}

/// Runs a bit-flip AVF campaign under `plan` on the default thread
/// count, returning its aggregates, the pruner's accounting (pruned and
/// exhaustive plans), and every record in sampling order — collected
/// through the stream's tee for the ablations that scan or compare
/// records.
pub fn avf_records(
    prep: &Prepared,
    structure: HwStructure,
    plan: &InjectionPlan,
    metrics: Option<&CampaignMetrics>,
) -> (AvfStreamed, Option<PruneStats>, Vec<InjectionRecord>) {
    let seen = Collector::default();
    let tee = seen.tee();
    let opts = RunOpts {
        stream: StreamOpts {
            tee: Some(&tee),
            ..StreamOpts::from_env()
        },
        metrics,
        ..RunOpts::new(default_threads())
    };
    let (r, prune) =
        avf_campaign(prep, structure, plan, &[FaultModel::BitFlip], &opts).expect(NO_IO);
    let records = seen
        .sorted()
        .iter()
        .map(|(_, p)| decode_record(p).expect("the engine encodes every record"))
        .collect();
    (r, prune, records)
}

/// A sampled bit-flip AVF campaign of `faults` sites with `seed`.
pub fn avf_sampled(
    prep: &Prepared,
    structure: HwStructure,
    faults: usize,
    seed: u64,
) -> (AvfStreamed, Vec<InjectionRecord>) {
    let plan = InjectionPlan::Sampled { n: faults, seed };
    let (r, _, records) = avf_records(prep, structure, &plan, None);
    (r, records)
}

/// Per-workload AVF suite across all five structures on one core model.
#[derive(Debug)]
pub struct AvfSuite {
    /// The core model.
    pub model: CoreModel,
    /// Per-structure campaign results.
    pub per_structure: Vec<AvfStreamed>,
}

impl AvfSuite {
    /// Runs the suite.
    ///
    /// # Panics
    ///
    /// Panics if preparation fails (a workload that does not run cleanly).
    pub fn run(workload: &Workload, model: CoreModel, faults: usize, seed: u64) -> AvfSuite {
        let prep = Prepared::new(workload, model)
            .unwrap_or_else(|e| panic!("{}/{model}: {e}", workload.id));
        let per_structure = HwStructure::ALL
            .iter()
            .map(|&st| {
                let s = sub_seed(seed, &[workload.id.name(), model.name(), st.name()]);
                avf_sampled(&prep, st, faults, s).0
            })
            .collect();
        AvfSuite {
            model,
            per_structure,
        }
    }

    /// The size-weighted AVF across the five structures.
    pub fn weighted_avf(&self) -> VulnFactor {
        let structures = self
            .per_structure
            .iter()
            .map(|r| StructureAvf {
                structure: r.structure,
                bits: r.bits,
                tally: r.tally,
            })
            .collect();
        WeightedAvf::new(structures).weighted()
    }

    /// The size-weighted FPM distribution across structures (paper Fig. 6).
    pub fn weighted_fpm(&self) -> BTreeMap<vulnstack_microarch::ooo::Fpm, f64> {
        let parts: Vec<(u64, &FpmDist)> = self
            .per_structure
            .iter()
            .map(|r| (r.bits, &r.fpm))
            .collect();
        FpmDist::weighted_combine(&parts)
    }

    /// The campaign result for one structure.
    pub fn structure(&self, st: HwStructure) -> &AvfStreamed {
        self.per_structure
            .iter()
            .find(|r| r.structure == st)
            .expect("all structures present")
    }
}

/// Size-weighted, software-conditional FPM shares for rPVF: combines the
/// per-structure distributions with bit weights, then renormalises over
/// WD/WOI/WI.
pub fn rpvf_weights(suite: &AvfSuite) -> (f64, f64, f64) {
    use vulnstack_microarch::ooo::Fpm;
    let shares = suite.weighted_fpm();
    let wd = shares.get(&Fpm::Wd).copied().unwrap_or(0.0);
    let woi = shares.get(&Fpm::Woi).copied().unwrap_or(0.0);
    let wi = shares.get(&Fpm::Wi).copied().unwrap_or(0.0);
    let sw = wd + woi + wi;
    if sw == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    (wd / sw, woi / sw, wi / sw)
}

/// PVF measurements (typical WD-only plus the full per-FPM set) for one
/// workload on one ISA.
#[derive(Debug)]
pub struct PvfSuite {
    /// WD-population PVF (the "typical PVF" of the literature).
    pub wd: Tally,
    /// WOI-population PVF.
    pub woi: Tally,
    /// WI-population PVF.
    pub wi: Tally,
}

impl PvfSuite {
    /// Runs WD-only (typical PVF).
    pub fn run_wd_only(workload: &Workload, isa: Isa, faults: usize, seed: u64) -> Tally {
        let prep = FuncPrepared::new(workload, isa)
            .unwrap_or_else(|e| panic!("{}/{isa}: {e}", workload.id));
        pvf_tally(
            &prep,
            PvfMode::Wd,
            faults,
            sub_seed(seed, &[workload.id.name(), isa.name(), "pvf-wd"]),
        )
    }

    /// Runs all three FPM populations.
    pub fn run(workload: &Workload, isa: Isa, faults: usize, seed: u64) -> PvfSuite {
        let prep = FuncPrepared::new(workload, isa)
            .unwrap_or_else(|e| panic!("{}/{isa}: {e}", workload.id));
        let run = |mode: PvfMode| {
            pvf_tally(
                &prep,
                mode,
                faults,
                sub_seed(seed, &[workload.id.name(), isa.name(), "pvf", mode.name()]),
            )
        };
        PvfSuite {
            wd: run(PvfMode::Wd),
            woi: run(PvfMode::Woi),
            wi: run(PvfMode::Wi),
        }
    }
}

/// An unjournaled PVF campaign's tally on the default thread count.
fn pvf_tally(prep: &FuncPrepared, mode: PvfMode, faults: usize, seed: u64) -> Tally {
    pvf_campaign(prep, mode, faults, seed, &RunOpts::new(default_threads()))
        .expect(NO_IO)
        .tally
}

/// Runs the SVF (LLFI-style) campaign for one workload.
///
/// # Panics
///
/// Panics if the workload's golden interpretation does not print its
/// expected output.
pub fn svf_suite(workload: &Workload, faults: usize, seed: u64) -> Tally {
    vulnstack_llfi::svf_campaign(
        &workload.module,
        &workload.input,
        &workload.expected_output,
        faults,
        sub_seed(seed, &[workload.id.name(), "svf"]),
        &RunOpts::new(default_threads()),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", workload.id))
    .tally
}

/// The benchmark subset used by most figures (all ten workloads).
pub fn all_workloads() -> Vec<Workload> {
    WorkloadId::ALL.iter().map(|id| id.build()).collect()
}

/// Standard figure header.
pub fn figure_header(name: &str, faults: usize) {
    println!("=== {name} ===");
    println!(
        "(faults/campaign = {faults}; error margin ≈ {:.1}% at 99% confidence; \
         set VULNSTACK_FAULTS=2000 for the paper's 2.88%)",
        vulnstack_core::stats::error_margin(
            faults as u64,
            u64::MAX / 2,
            0.5,
            vulnstack_core::stats::Z_99
        ) * 100.0
    );
    println!();
}

pub mod case_study {
    //! The software fault-tolerance case study (paper §VI.B, Figs. 10/11):
    //! evaluate a benchmark with and without the duplication+detection
    //! hardening at every layer of the stack.

    use vulnstack_core::report::{pct, pct2, Table};
    use vulnstack_gefin::default_faults;
    use vulnstack_microarch::CoreModel;
    use vulnstack_workloads::WorkloadId;

    use crate::{figure_header, master_seed, svf_suite, AvfSuite, PvfSuite};

    /// Runs the full case study for `id` and prints the paper-style
    /// panels.
    pub fn run_case_study(id: WorkloadId, figure: &str) {
        let faults = default_faults(150);
        let seed = master_seed();
        figure_header(
            &format!("{figure} — fault-tolerance case study on {id} (A72)"),
            faults,
        );

        let base = id.build();
        let hard = vulnstack_ft::workload(id, true).expect("hardening verifies");

        // Panel (a): per-structure AVF, w/o and w/.
        let suite_wo = AvfSuite::run(&base, CoreModel::A72, faults, seed);
        eprintln!("  [avf w/o] done");
        let suite_w = AvfSuite::run(&hard, CoreModel::A72, faults, seed);
        eprintln!("  [avf w/] done");
        let mut t = Table::new(&[
            "structure",
            "w/o SDC",
            "w/o Crash",
            "w/o tot",
            "w/ SDC",
            "w/ Crash",
            "w/ tot",
            "w/ detected",
        ]);
        for (a, b) in suite_wo.per_structure.iter().zip(&suite_w.per_structure) {
            let (va, vb) = (a.avf(), b.avf());
            t.row(&[
                a.structure.name().into(),
                pct2(va.sdc),
                pct2(va.crash),
                pct2(va.total()),
                pct2(vb.sdc),
                pct2(vb.crash),
                pct2(vb.total()),
                pct2(vb.detected),
            ]);
        }
        println!("(a) per-structure AVF");
        println!("{}", t.render());

        // Panel (b): weighted AVF.
        let (aw, ah) = (suite_wo.weighted_avf(), suite_w.weighted_avf());
        let mut t = Table::new(&["variant", "SDC", "Crash", "total"]);
        t.row(&["w/o".into(), pct2(aw.sdc), pct2(aw.crash), pct2(aw.total())]);
        t.row(&["w/".into(), pct2(ah.sdc), pct2(ah.crash), pct2(ah.total())]);
        println!("(b) size-weighted cross-layer AVF");
        println!("{}", t.render());
        let delta = if aw.total() > 0.0 {
            ah.total() / aw.total() - 1.0
        } else {
            0.0
        };
        println!("    AVF change with hardening: {:+.0}%\n", delta * 100.0);

        // Panel (c): PVF (WD population, va64).
        let pw = PvfSuite::run_wd_only(&base, vulnstack_isa::Isa::Va64, faults, seed).vf();
        let ph = PvfSuite::run_wd_only(&hard, vulnstack_isa::Isa::Va64, faults, seed).vf();
        eprintln!("  [pvf] done");
        let mut t = Table::new(&["variant", "SDC", "Crash", "total", "detected"]);
        t.row(&[
            "w/o".into(),
            pct(pw.sdc),
            pct(pw.crash),
            pct(pw.total()),
            pct(pw.detected),
        ]);
        t.row(&[
            "w/".into(),
            pct(ph.sdc),
            pct(ph.crash),
            pct(ph.total()),
            pct(ph.detected),
        ]);
        println!("(c) PVF");
        println!("{}", t.render());
        if ph.total() > 0.0 {
            println!("    PVF reduction: {:.1}x\n", pw.total() / ph.total());
        }

        // Panel (d): SVF.
        let sw = svf_suite(&base, faults, seed).vf();
        let sh = svf_suite(&hard, faults, seed).vf();
        eprintln!("  [svf] done");
        let mut t = Table::new(&["variant", "SDC", "Crash", "total", "detected"]);
        t.row(&[
            "w/o".into(),
            pct(sw.sdc),
            pct(sw.crash),
            pct(sw.total()),
            pct(sw.detected),
        ]);
        t.row(&[
            "w/".into(),
            pct(sh.sdc),
            pct(sh.crash),
            pct(sh.total()),
            pct(sh.detected),
        ]);
        println!("(d) SVF");
        println!("{}", t.render());
        if sh.total() > 0.0 {
            println!("    SVF reduction: {:.1}x\n", sw.total() / sh.total());
        }

        // Runtime inflation (the mechanism behind the AVF increase).
        let prep_wo = vulnstack_gefin::Prepared::new(&base, CoreModel::A72).unwrap();
        let prep_w = vulnstack_gefin::Prepared::new(&hard, CoreModel::A72).unwrap();
        println!(
            "execution time: {} -> {} cycles ({:.1}x)",
            prep_wo.golden.cycles,
            prep_w.golden.cycles,
            prep_w.golden.cycles as f64 / prep_wo.golden.cycles as f64
        );
        println!("Shapes to check (paper): PVF and SVF drop by multiple x (detected");
        println!("faults excluded), while the cross-layer AVF *increases* — longer");
        println!("execution means longer residency and more crashes.");
    }
}

pub mod speedup {
    //! The frame the two speedup ablations share
    //! (`ablation_checkpoint_speedup`, `ablation_pruning_speedup`):
    //! qsort/A72/RF prepared once, two timed passes over the same sites,
    //! their records asserted bit-identical, a two-row speedup table,
    //! `results/BENCH_<bench>.json`, and the fast pass's campaign metrics
    //! exported beside it. Each binary brings its two passes and its own
    //! JSON fields.

    use std::time::Instant;

    use vulnstack_core::effects::Tally;
    use vulnstack_core::report::{write_atomic, Table};
    use vulnstack_core::trace::{CampaignMetrics, MetricsReport};
    use vulnstack_gefin::{
        default_faults, default_threads, InjectionPlan, InjectionRecord, Prepared, PruneStats,
    };
    use vulnstack_microarch::ooo::HwStructure;
    use vulnstack_microarch::CoreModel;
    use vulnstack_workloads::WorkloadId;

    use crate::{avf_records, figure_header, master_seed, prepare_or_die, sub_seed};

    const WORKLOAD: WorkloadId = WorkloadId::Qsort;
    const MODEL: CoreModel = CoreModel::A72;
    /// The structure both passes inject.
    pub const STRUCTURE: HwStructure = HwStructure::RegisterFile;

    /// Runs `f` and returns its result with its wall time in seconds.
    pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    }

    /// One timed pass: its table label, wall time, tally and records in
    /// sampling order.
    #[derive(Debug)]
    pub struct Pass {
        /// The pass's row in the speedup table.
        pub label: &'static str,
        /// Wall time in seconds.
        pub secs: f64,
        /// The campaign's tally.
        pub tally: Tally,
        /// Every record, in sampling order.
        pub records: Vec<InjectionRecord>,
    }

    /// A speedup ablation with its golden run prepared.
    #[derive(Debug)]
    pub struct Ablation {
        /// Names `results/BENCH_<bench>.json` and the metrics files.
        bench: &'static str,
        /// Sites per pass (`VULNSTACK_FAULTS`, default 200).
        pub n: usize,
        /// Worker threads.
        pub threads: usize,
        /// The prepared golden run.
        pub prep: Prepared,
        /// Preparation wall time in seconds.
        pub prep_secs: f64,
        /// The seed both passes draw their sites from.
        pub seed: u64,
    }

    impl Ablation {
        /// Prints the header `title`, prepares the golden run (timed) and
        /// derives the passes' seed from `tag`.
        pub fn prepare(bench: &'static str, title: &str, tag: &str) -> Ablation {
            let n = default_faults(200);
            figure_header(title, n);
            let w = WORKLOAD.build();
            let (prep, prep_secs) = timed(|| prepare_or_die(&w, MODEL));
            eprintln!(
                "  [{WORKLOAD}/{MODEL}] golden = {} cycles, {} checkpoints every {} cycles \
                 (prepared in {prep_secs:.2}s)",
                prep.golden.cycles,
                prep.checkpoints.len(),
                prep.checkpoints.interval(),
            );
            let parts = [WORKLOAD.name(), MODEL.name(), STRUCTURE.name(), tag];
            Ablation {
                bench,
                n,
                threads: default_threads(),
                prep,
                prep_secs,
                seed: sub_seed(master_seed(), &parts),
            }
        }

        /// The metrics collector the pass labelled `label` carries.
        pub fn metrics(&self, label: &str) -> CampaignMetrics {
            let n = self.n;
            CampaignMetrics::new(&format!("{WORKLOAD}/{MODEL}/{STRUCTURE} {label} n={n}"))
        }

        /// A bit-flip AVF campaign under `plan` as one timed pass, plus
        /// the pruner's accounting (pruned plans).
        pub fn avf_pass(
            &self,
            label: &'static str,
            plan: &InjectionPlan,
            metrics: Option<&CampaignMetrics>,
        ) -> (Pass, Option<PruneStats>) {
            let ((r, stats, records), secs) =
                timed(|| avf_records(&self.prep, STRUCTURE, plan, metrics));
            let tally = r.tally;
            (
                Pass {
                    label,
                    secs,
                    tally,
                    records,
                },
                stats,
            )
        }

        /// Asserts that both passes produced bit-identical records and
        /// tallies, prints the two-row table (first column `column`) and
        /// returns the speedup of `fast` over `base`.
        pub fn compare(&self, column: &str, base: &Pass, fast: &Pass) -> f64 {
            assert_eq!(
                base.records, fast.records,
                "both passes must produce bit-identical per-injection records"
            );
            assert_eq!(base.tally, fast.tally);
            let speedup = base.secs / fast.secs.max(1e-9);
            let mut t = Table::new(&[column, "seconds", "inj/s", "speedup"]);
            for (pass, ratio) in [(base, 1.0), (fast, speedup)] {
                t.row(&[
                    pass.label.to_string(),
                    format!("{:.3}", pass.secs),
                    format!("{:.1}", self.n as f64 / pass.secs),
                    format!("{ratio:.2}x"),
                ]);
            }
            println!("{}", t.render());
            speedup
        }

        /// Writes `results/BENCH_<bench>.json` (the configuration, then
        /// `fields`, the binary's own comma-separated fields, then
        /// `"records_identical":true`; exits 1 if it cannot, since CI
        /// checks the file), prints the `campaign metrics:` line with
        /// `detail` after the throughput, and writes the metrics files.
        pub fn finish(
            &self,
            fields: &str,
            metrics: &CampaignMetrics,
            detail: impl FnOnce(&MetricsReport) -> String,
        ) {
            let json = format!(
                "{{\"bench\":\"{}\",\"workload\":\"{}\",\"model\":\"{}\",\
                 \"structure\":\"{}\",\"n\":{},\"threads\":{},\"golden_cycles\":{},\
                 {fields},\"records_identical\":true}}\n",
                self.bench,
                WORKLOAD.name(),
                MODEL.name(),
                STRUCTURE.name(),
                self.n,
                self.threads,
                self.prep.golden.cycles,
            );
            let path = format!("results/BENCH_{}.json", self.bench);
            if let Err(e) = std::fs::create_dir_all("results")
                .and_then(|()| write_atomic(&path, json.as_bytes()))
            {
                eprintln!("error: could not write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("  wrote {path}");

            let report = metrics.report();
            println!(
                "campaign metrics: {:.1} inj/s over {} workers | {}",
                report.throughput(),
                report.per_worker.len(),
                detail(&report),
            );
            match report.write_files("results", self.bench) {
                Ok((mp, tp)) => {
                    eprintln!("  wrote {mp} and {tp} (open in chrome://tracing or Perfetto)");
                }
                Err(e) => eprintln!("  (could not write metrics files: {e})"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_stable_and_distinct() {
        let a = sub_seed(1, &["sha", "A72", "RF"]);
        let b = sub_seed(1, &["sha", "A72", "RF"]);
        let c = sub_seed(1, &["sha", "A72", "LSQ"]);
        let d = sub_seed(2, &["sha", "A72", "RF"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Pinned: FNV-1a over 01 00 00 00 00 00 00 00 "sha" ff "A72" ff
        // "RF" ff. Every figure's seeds hang off this value.
        assert_eq!(a, 0x020e_aba3_16f4_8c85);
        // The separator keeps part boundaries apart.
        assert_ne!(sub_seed(1, &["ab", "c"]), sub_seed(1, &["a", "bc"]));
    }

    #[test]
    fn rpvf_weights_normalise_over_software_fpms() {
        // Construct a suite-like FPM mix by hand through the public API is
        // heavyweight; check the arithmetic contract on the helper's
        // underlying share math instead.
        use vulnstack_core::stack::FpmDist;
        use vulnstack_microarch::ooo::Fpm;
        let mut d = FpmDist::new();
        for _ in 0..6 {
            d.add(Some(Fpm::Wd));
        }
        for _ in 0..3 {
            d.add(Some(Fpm::Wi));
        }
        for _ in 0..1 {
            d.add(Some(Fpm::Esc));
        }
        let sw: f64 = [Fpm::Wd, Fpm::Woi, Fpm::Wi]
            .iter()
            .map(|&f| d.software_share(f))
            .sum();
        assert!((sw - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_workloads_builds_ten() {
        assert_eq!(all_workloads().len(), 10);
    }
}
