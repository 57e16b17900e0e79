//! The trace layer's contract with the campaign layer: per-injection
//! fault-lifetime traces are a *refinement* of the campaign's
//! classification, never a different story. Each trace's first
//! architecturally-visible FPM must equal the record's FPM, their sums
//! must reconcile exactly with the campaign's [`FpmDist`], and enabling
//! tracing or metrics must not change a single record.

mod common;

use common::{avf_with, run_opts, sampled, tmp};
use vulnstack_core::trace::CampaignMetrics;
use vulnstack_core::{JournalOpts, ResumeMode, ResumeStats, RunOpts};
use vulnstack_gefin::{
    avf_campaign, draw_sites, pvf_campaign, run_one_traced, temporal_campaign, FuncPrepared,
    InjectionPlan, InjectionRecord, Prepared, PvfMode,
};
use vulnstack_isa::Isa;
use vulnstack_microarch::lifetime::DEFAULT_EVENT_CAP;
use vulnstack_microarch::ooo::{Fpm, HwStructure};
use vulnstack_microarch::{CoreModel, FaultModel, FaultTrace};
use vulnstack_workloads::WorkloadId;

const N: usize = 48;
const SEED: u64 = 2021;

fn prepared() -> Prepared {
    Prepared::new(&WorkloadId::Qsort.build(), CoreModel::A72).unwrap()
}

/// Every site of the sampled campaign replayed with lifetime tracing,
/// one after another.
fn traced(
    prep: &Prepared,
    structure: HwStructure,
    n: usize,
    seed: u64,
) -> (Vec<InjectionRecord>, Vec<FaultTrace>) {
    draw_sites(prep, structure, n, seed)
        .into_iter()
        .map(|(cycle, bit)| {
            let (rec, trace) = run_one_traced(prep, structure, cycle, bit, DEFAULT_EVENT_CAP);
            (rec, trace.expect("tracing was enabled"))
        })
        .unzip()
}

#[test]
fn trace_fpm_transitions_reconcile_exactly_with_campaign_counts() {
    let prep = prepared();
    let structure = HwStructure::RegisterFile;
    let (result, records) = sampled(&prep, structure, N, SEED, 4);
    let (traced_records, traces) = traced(&prep, structure, N, SEED);
    assert_eq!(traces.len(), records.len());

    // Per-injection: the trace's first ArchVisible event is the record's
    // FPM classification (same fault, same cycle).
    for (rec, trace) in records.iter().zip(&traces) {
        assert_eq!(
            trace.first_visible(),
            rec.fpm,
            "trace and record disagree for site @{} bit {}",
            rec.cycle,
            rec.bit
        );
        if let (Some((_, tc)), Some(rc)) = (trace.counts().first_visible, rec.fpm_cycle) {
            assert_eq!(tc, rc, "manifestation cycle mismatch");
        }
    }

    // Aggregate: trace-derived FPM transition counts sum exactly to the
    // campaign's FpmDist — the Fig. 6 reconciliation.
    for fpm in Fpm::ALL {
        let from_traces = traces
            .iter()
            .filter(|t| t.first_visible() == Some(fpm))
            .count() as u64;
        assert_eq!(
            from_traces,
            result.fpm.count(fpm),
            "FPM {fpm} does not reconcile"
        );
    }
    let masked_traces = traces
        .iter()
        .filter(|t| t.first_visible().is_none())
        .count() as u64;
    assert_eq!(masked_traces, result.fpm.masked());

    // And the traced injections classify identically to the campaign.
    assert_eq!(traced_records, records);
}

#[test]
fn metrics_collection_does_not_perturb_results() {
    let prep = prepared();
    let structure = HwStructure::Lsq;
    let metrics = CampaignMetrics::new("reconciliation-test");
    let (metered, _, metered_records) = avf_with(
        &prep,
        structure,
        &InjectionPlan::Sampled { n: N, seed: SEED },
        &[FaultModel::BitFlip],
        &RunOpts {
            metrics: Some(&metrics),
            ..run_opts(3, 64)
        },
    )
    .unwrap();
    let (_, plain_records) = sampled(&prep, structure, N, SEED, 3);
    assert_eq!(metered_records, plain_records);

    let report = metrics.report();
    assert_eq!(report.sites, N as u64, "one span per injection");
    assert_eq!(
        report.per_worker.iter().map(|w| w.sites).sum::<u64>(),
        N as u64
    );
    // One restore distance per injection; every distance fits the golden
    // run's cycle range.
    assert_eq!(report.restore_hist.iter().sum::<u64>(), N as u64);
    assert!(report.mean_restore_distance() <= prep.golden.cycles as f64);
    // Extinct early exits are a subset of masked classifications.
    assert!(report.extinct_early <= metered.tally.masked);
    // Spans are well-formed (monotone, non-negative durations).
    for s in &report.spans {
        assert!(s.end_us >= s.start_us);
    }
}

/// Runs the `sites`-site campaign `run` twice, journaled, each time with
/// a fresh metrics collector in its options: the first run executes
/// every site and records exactly one span per site, the second replays
/// every site from the journal and records none.
fn spans_follow_execution(name: &str, sites: usize, run: impl Fn(&RunOpts<'_>) -> ResumeStats) {
    let path = tmp(&format!("metrics-{name}.journal"));
    let _ = std::fs::remove_file(&path);
    let journal = JournalOpts {
        path: &path,
        mode: ResumeMode::ResumeOrStart,
        workload: "crc32",
    };
    for executed in [sites, 0] {
        let metrics = CampaignMetrics::new(name);
        let stats = run(&RunOpts {
            journal: Some(journal),
            metrics: Some(&metrics),
            ..RunOpts::new(2)
        });
        assert_eq!(stats.executed, executed, "{name}");
        assert_eq!(stats.replayed, sites - executed, "{name}");
        let report = metrics.report();
        assert_eq!(
            report.sites, executed as u64,
            "{name}: one span per executed site"
        );
        let mut indices: Vec<usize> = report.spans.iter().map(|s| s.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..executed).collect::<Vec<_>>(), "{name}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn metrics_record_one_span_per_executed_site_on_every_engine() {
    let w = WorkloadId::Crc32.build();
    let prep = Prepared::new(&w, CoreModel::A72).unwrap();
    let rf = HwStructure::RegisterFile;
    for plan in [
        InjectionPlan::Sampled { n: 12, seed: SEED },
        InjectionPlan::Pruned { n: 12, seed: SEED },
    ] {
        spans_follow_execution(&format!("avf-{}", plan.name()), 12, |opts| {
            let bit_flip = [FaultModel::BitFlip];
            avf_campaign(&prep, rf, &plan, &bit_flip, opts)
                .unwrap()
                .0
                .stats
        });
    }
    spans_follow_execution("sweep", 8, |opts| {
        temporal_campaign(&prep, rf, 2, 4, SEED, opts)
            .unwrap()
            .stats
    });
    let fprep = FuncPrepared::new(&w, Isa::Va64).unwrap();
    spans_follow_execution("pvf", 10, |opts| {
        pvf_campaign(&fprep, PvfMode::Wd, 10, SEED, opts)
            .unwrap()
            .stats
    });
    spans_follow_execution("svf", 10, |opts| {
        let (module, input, output) = (&w.module, &w.input, &w.expected_output);
        vulnstack_llfi::svf_campaign(module, input, output, 10, SEED, opts)
            .unwrap()
            .stats
    });
}

#[test]
fn disabled_tracing_is_structurally_free() {
    // The <2% wall-clock criterion is asserted against the bench binary;
    // here the smoke check is structural: an untraced run carries no
    // trace state at all, and the traced run of the same site yields the
    // same record (the emission sites only *observe*).
    let prep = prepared();
    let structure = HwStructure::RegisterFile;
    let (_, plain) = sampled(&prep, structure, 12, 7, 2);
    let (traced_records, traces) = traced(&prep, structure, 12, 7);
    assert_eq!(plain, traced_records);
    // Every traced run at minimum logged its injection.
    assert!(traces.iter().all(|t| !t.is_empty()));
}
