//! Exactness of equivalence-class pruning: the pruned campaign must be a
//! pure optimisation, producing per-site records — and therefore AVF
//! tallies and FPM distributions — bit-identical to running every site
//! on its own, across workloads, core models, thread counts, and a
//! kill-and-resume of the pruned campaign itself. This is the test the
//! speedup bench (`ablation_pruning_speedup`) leans on: any wall-clock
//! win it reports is only meaningful because these assertions hold.

mod common;

use std::path::Path;
use std::sync::OnceLock;

use common::{avf, avf_with, decoded, reference, run_opts, tmp, Collector};
use vulnstack_core::{JournalError, JournalOpts, ResumeMode, RunOpts, StreamOpts};
use vulnstack_gefin::{
    per_model_tallies, run_one_model, temporal_campaign, InjectionPlan, Prepared, Pruner,
};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::WorkloadId;

const N: usize = 32;
const SEED: u64 = 17;
const STRUCTURE: HwStructure = HwStructure::RegisterFile;

fn prep_crc32_a72() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| {
        let w = WorkloadId::Crc32.build();
        Prepared::new(&w, CoreModel::A72).expect("prepare crc32/A72")
    })
}

fn opts<'a>(path: &'a Path, mode: ResumeMode) -> JournalOpts<'a> {
    JournalOpts {
        path,
        mode,
        workload: "crc32",
    }
}

/// Sorted journal body lines (header excluded): completion order varies
/// with the thread count, the record *set* must not.
fn sorted_entries(path: &Path) -> Vec<String> {
    let content = std::fs::read_to_string(path).unwrap();
    let mut lines: Vec<String> = content.lines().skip(1).map(String::from).collect();
    lines.sort();
    lines
}

/// Truncates a completed *pruned* journal back to its header, its
/// `class-table` metadata line, and `keep` record lines, then appends a
/// torn half-record — the on-disk state a SIGKILL mid-append leaves.
fn interrupt_pruned_journal(full: &Path, target: &Path, keep: usize) {
    let content = std::fs::read_to_string(full).unwrap();
    assert!(
        content.lines().nth(1).is_some_and(|l| l.starts_with("M|")),
        "pruned journal must carry its class-table metadata line"
    );
    let kept: Vec<&str> = content.lines().take(2 + keep).collect();
    let mut torn = format!("{}\n", kept.join("\n"));
    torn.push_str("R|999|half-written");
    std::fs::write(target, torn).unwrap();
}

const BIT_FLIP: &[FaultModel] = &[FaultModel::BitFlip];

/// A journaled pruned bit-flip campaign's records and accounting.
fn pruned_journaled(
    prep: &Prepared,
    threads: usize,
    journal: &JournalOpts<'_>,
) -> Result<common::AvfRun, JournalError> {
    avf_with(
        prep,
        STRUCTURE,
        &InjectionPlan::Pruned { n: N, seed: SEED },
        BIT_FLIP,
        &RunOpts {
            journal: Some(*journal),
            ..run_opts(threads, 64)
        },
    )
}

#[test]
fn pruned_campaign_is_bit_identical_across_workloads_models_and_threads() {
    for (wid, model) in [
        (WorkloadId::Qsort, CoreModel::A9),
        (WorkloadId::Qsort, CoreModel::A72),
        (WorkloadId::Crc32, CoreModel::A9),
        (WorkloadId::Crc32, CoreModel::A72),
    ] {
        let w = wid.build();
        let prep = Prepared::new(&w, model).unwrap();
        let plan = InjectionPlan::Pruned { n: N, seed: SEED };
        let full = reference(&prep, STRUCTURE, &plan, BIT_FLIP);
        let full_tally: vulnstack_core::Tally = full.iter().map(|r| r.effect).collect();
        for threads in [1, 4] {
            let (pruned, stats, records) = avf(&prep, STRUCTURE, &plan, BIT_FLIP, threads);
            let label = format!("{}/{} threads={threads}", wid.name(), model.name());
            assert_eq!(
                records, full,
                "{label}: pruned records must be bit-identical to individual runs"
            );
            assert_eq!(pruned.tally, full_tally, "{label}");
            assert_eq!(
                pruned.per_model,
                per_model_tallies(&full),
                "{label}: the FPM distribution follows the records"
            );
            let stats = stats.expect("pruned plan reports stats");
            assert_eq!(stats.sites, N as u64, "{label}");
            assert!(
                stats.sites_pruned() > 0,
                "{label}: a register-file campaign must prune something: {stats:?}"
            );
        }
    }
}

/// The model-aware pruner must stay a pure optimisation for every fault
/// model: the pruned campaign's records are bit-identical to running
/// each drawn `(cycle, bit, model)` site individually. `bit-flip` alone
/// is covered by the legacy equivalence test above; here the other
/// models and the mixed set get the same guarantee. The per-model dead
/// arguments differ (a next-access write kills a transient flip but not
/// a stuck-at; instr-skip classes key on the next dispatch), so each
/// set exercises a different proof.
#[test]
fn model_aware_pruning_is_bit_identical_per_model_and_mixed() {
    let prep = prep_crc32_a72();
    let n = 10;
    let sets: [&[FaultModel]; 4] = [
        &[FaultModel::ByteCorrupt],
        &[FaultModel::InstrSkip],
        &[FaultModel::StuckAt],
        &FaultModel::ALL,
    ];
    for models in sets {
        let label: Vec<&str> = models.iter().map(|m| m.name()).collect();
        let label = label.join("+");
        let full = reference(
            prep,
            STRUCTURE,
            &InjectionPlan::Sampled { n, seed: SEED },
            models,
        );
        let (sampled, none, sampled_records) = avf(
            prep,
            STRUCTURE,
            &InjectionPlan::Sampled { n, seed: SEED },
            models,
            4,
        );
        assert!(none.is_none(), "{label}: sampled plans report no stats");
        assert_eq!(sampled_records, full, "{label}");
        let (pruned, stats, records) = avf(
            prep,
            STRUCTURE,
            &InjectionPlan::Pruned { n, seed: SEED },
            models,
            4,
        );
        assert_eq!(
            records, full,
            "{label}: pruned records must be bit-identical to individual runs"
        );
        assert_eq!(pruned.tally, sampled.tally, "{label}");
        let stats = stats.expect("pruned plan reports stats");
        assert_eq!(stats.sites, n as u64, "{label}");
    }
}

/// An ARMORY-style exhaustive (site, model) sweep completes under
/// pruning, covers every pair exactly once at the pinned cycle, and the
/// pruner's verdicts spot-check against individual injections.
#[test]
fn exhaustive_model_sweep_completes_under_pruning() {
    let prep = prep_crc32_a72();
    let cycle = prep.golden.cycles / 2;
    // Byte-corrupt (site space bits/8) plus the single-site instr-skip:
    // a full multi-model product small enough for a debug-build test.
    let models = [FaultModel::ByteCorrupt, FaultModel::InstrSkip];
    let (r, stats, records) = avf(
        prep,
        STRUCTURE,
        &InjectionPlan::Exhaustive { cycle },
        &models,
        4,
    );
    let expected: u64 = models.iter().map(|&m| STRUCTURE.sites(m, &prep.cfg)).sum();
    let stats = stats.expect("exhaustive plans execute through the pruner");
    assert_eq!(stats.sites, expected);
    assert_eq!(records.len() as u64, expected);
    assert!(records.iter().all(|rec| rec.cycle == cycle));
    assert!(
        stats.dead_masked > 0,
        "an exhaustive sweep must prune dead sites: {stats:?}"
    );
    // Every requested model appears in the tallies, each covering its
    // whole site space.
    let tallies = per_model_tallies(&records);
    assert_eq!(r.per_model, tallies);
    assert_eq!(tallies.len(), models.len());
    for (m, t, _) in &tallies {
        assert_eq!(t.total(), STRUCTURE.sites(*m, &prep.cfg), "{m:?}");
    }
    // Spot-check exactness against individual injections at both ends
    // and the middle of the site space.
    for idx in [0, records.len() / 2, records.len() - 1] {
        let rec = records[idx];
        let site = vulnstack_gefin::ModelSite {
            cycle: rec.cycle,
            bit: rec.bit,
            model: rec.model,
        };
        assert_eq!(
            run_one_model(prep, STRUCTURE, site),
            rec,
            "site {idx} must match its individual run"
        );
    }
}

/// A temporal sweep's sites served by a [`Pruner`] return the sweep's
/// own records, and the sweep is the same at any thread count.
#[test]
fn pruned_temporal_sweep_matches_full_sweep() {
    let prep = prep_crc32_a72();
    let sweep = |threads| {
        let seen = Collector::default();
        let tee = seen.tee();
        let opts = RunOpts {
            stream: StreamOpts {
                tee: Some(&tee),
                ..StreamOpts::from_env()
            },
            ..RunOpts::new(threads)
        };
        let out = temporal_campaign(prep, STRUCTURE, 4, 8, SEED, &opts).unwrap();
        (out.profile, decoded(&seen))
    };
    let (full, records) = sweep(4);
    let (again, again_records) = sweep(1);
    assert_eq!(again.tallies, full.tallies);
    assert_eq!(again.fpms, full.fpms);
    assert_eq!(again.bounds, full.bounds);
    assert_eq!(again_records, records);
    let pruner = Pruner::new(prep, STRUCTURE);
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(&pruner.run_site(rec.cycle, rec.bit, None), rec, "site {i}");
    }
    let stats = pruner.stats();
    assert_eq!(stats.sites, 32);
    assert!(stats.sites_pruned() > 0, "{stats:?}");
}

#[test]
fn pruned_kill_and_resume_is_bit_identical() {
    let prep = prep_crc32_a72();
    let plan = InjectionPlan::Pruned { n: N, seed: SEED };
    let baseline = reference(prep, STRUCTURE, &plan, BIT_FLIP);

    // Uninterrupted pruned journaled run matches the individual runs.
    let full = tmp("pruned-full.journal");
    let _ = std::fs::remove_file(&full);
    let (out, stats, records) =
        pruned_journaled(prep, 4, &opts(&full, ResumeMode::ResumeOrStart)).unwrap();
    assert_eq!(records, baseline);
    assert_eq!(out.stats.executed, N);
    assert!(out.quarantined.is_empty());
    assert!(stats.expect("pruned stats").sites_pruned() > 0);

    // Kill mid-campaign, resume at different thread counts: identical
    // records, identical journal contents, and the class-table metadata
    // must agree (the resumed run rebuilds the table and verifies).
    for threads in [1, 4] {
        let path = tmp(&format!("pruned-killed-t{threads}.journal"));
        interrupt_pruned_journal(&full, &path, 9);
        let (resumed, _, records) =
            pruned_journaled(prep, threads, &opts(&path, ResumeMode::ResumeRequired)).unwrap();
        assert_eq!(
            records, baseline,
            "threads={threads}: resumed pruned records must be bit-identical"
        );
        assert_eq!(resumed.stats.replayed, 9, "threads={threads}");
        assert_eq!(resumed.stats.executed, N - 9, "threads={threads}");
        assert!(resumed.stats.truncated_bytes > 0);
        assert_eq!(
            sorted_entries(&path),
            sorted_entries(&full),
            "threads={threads}: completed journals must hold the same records"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&full);
}

#[test]
fn pruned_resume_refuses_a_damaged_class_table() {
    let prep = prep_crc32_a72();
    let path = tmp("pruned-damaged-meta.journal");
    let _ = std::fs::remove_file(&path);
    pruned_journaled(prep, 4, &opts(&path, ResumeMode::ResumeOrStart)).unwrap();

    // Corrupt one byte of the class-table metadata payload. The line
    // checksum no longer verifies, the journal truncates there, and the
    // resume must refuse — naming the digest it expected — rather than
    // silently re-prune over unverifiable records.
    let content = std::fs::read_to_string(&path).unwrap();
    let damaged: Vec<String> = content
        .lines()
        .map(|l| {
            if let Some(rest) = l.strip_prefix("M|class-table|fnv=") {
                let flipped =
                    rest.replacen(&rest[..1], if &rest[..1] == "0" { "1" } else { "0" }, 1);
                format!("M|class-table|fnv={flipped}")
            } else {
                l.to_string()
            }
        })
        .collect();
    std::fs::write(&path, format!("{}\n", damaged.join("\n"))).unwrap();

    let err = pruned_journaled(prep, 4, &opts(&path, ResumeMode::ResumeRequired)).unwrap_err();
    match err {
        JournalError::MetaMismatch {
            key,
            expected,
            found,
            ..
        } => {
            assert_eq!(key, "class-table");
            assert!(expected.starts_with("fnv="));
            assert_eq!(
                found, None,
                "a damaged metadata line must truncate, not parse"
            );
        }
        other => panic!("expected a class-table metadata mismatch, got {other}"),
    }
    let _ = std::fs::remove_file(&path);
}
