//! Helpers shared by the integration tests: run a campaign and collect
//! its records through the stream's tee, or compute the reference
//! records by running every site on its own, one after another.

#![allow(dead_code)]

use std::path::PathBuf;

pub use vulnstack_core::Collector;
use vulnstack_core::{JournalError, RunOpts, StreamOpts, Tally};
use vulnstack_gefin::{
    avf_campaign, decode_record, plan_model_sites, pvf_campaign, run_one_model, AvfStreamed,
    FuncPrepared, InjectionPlan, InjectionRecord, Prepared, PruneStats, PvfMode,
};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::FaultModel;
use vulnstack_workloads::Workload;

/// A scratch path for `name`, in a directory private to this test
/// process.
pub fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulnstack-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Every AVF record `seen` collected, in sampling order.
pub fn decoded(seen: &Collector) -> Vec<InjectionRecord> {
    seen.sorted()
        .iter()
        .map(|(_, p)| decode_record(p).expect("engine-encoded record"))
        .collect()
}

/// An AVF campaign's aggregates, its pruner's accounting, and its
/// records in sampling order.
pub type AvfRun = (AvfStreamed, Option<PruneStats>, Vec<InjectionRecord>);

/// An AVF campaign run as `opts` says, plus its records in sampling
/// order, collected through a tee that replaces `opts`'s.
pub fn avf_with(
    prep: &Prepared,
    structure: HwStructure,
    plan: &InjectionPlan,
    models: &[FaultModel],
    opts: &RunOpts<'_>,
) -> Result<AvfRun, JournalError> {
    let seen = Collector::default();
    let tee = seen.tee();
    let opts = RunOpts {
        stream: StreamOpts {
            tee: Some(&tee),
            ..opts.stream
        },
        ..*opts
    };
    let (r, prune) = avf_campaign(prep, structure, plan, models, &opts)?;
    Ok((r, prune, decoded(&seen)))
}

/// A run on `threads` workers through a `channel_cap`-record sink
/// channel, unjournaled and without metrics.
pub fn run_opts(threads: usize, channel_cap: usize) -> RunOpts<'static> {
    RunOpts {
        stream: StreamOpts {
            channel_cap,
            ..StreamOpts::from_env()
        },
        ..RunOpts::new(threads)
    }
}

/// An unjournaled AVF campaign plus its records in sampling order.
pub fn avf(
    prep: &Prepared,
    structure: HwStructure,
    plan: &InjectionPlan,
    models: &[FaultModel],
    threads: usize,
) -> AvfRun {
    avf_with(prep, structure, plan, models, &run_opts(threads, 64)).unwrap()
}

/// An unjournaled sampled bit-flip campaign plus its records.
pub fn sampled(
    prep: &Prepared,
    structure: HwStructure,
    n: usize,
    seed: u64,
    threads: usize,
) -> (AvfStreamed, Vec<InjectionRecord>) {
    let plan = InjectionPlan::Sampled { n, seed };
    let (r, _, records) = avf(prep, structure, &plan, &[FaultModel::BitFlip], threads);
    (r, records)
}

/// The reference records of `plan`: every site run on its own, in
/// sampling order, through the per-site injector.
pub fn reference(
    prep: &Prepared,
    structure: HwStructure,
    plan: &InjectionPlan,
    models: &[FaultModel],
) -> Vec<InjectionRecord> {
    plan_model_sites(prep, structure, plan, models)
        .into_iter()
        .map(|site| run_one_model(prep, structure, site))
        .collect()
}

/// The tally of an unjournaled PVF campaign.
pub fn pvf_tally(prep: &FuncPrepared, mode: PvfMode, n: usize, seed: u64, threads: usize) -> Tally {
    pvf_campaign(prep, mode, n, seed, &RunOpts::new(threads))
        .unwrap()
        .tally
}

/// The tally of an unjournaled SVF campaign.
pub fn svf_tally(w: &Workload, n: usize, seed: u64, threads: usize) -> Tally {
    vulnstack_llfi::svf_campaign(
        &w.module,
        &w.input,
        &w.expected_output,
        n,
        seed,
        &RunOpts::new(threads),
    )
    .unwrap()
    .tally
}

/// The reference SVF tally: every drawn fault run on its own through
/// the per-site injector.
pub fn svf_reference(w: &Workload, n: usize, seed: u64) -> Tally {
    let golden = vulnstack_llfi::golden_run(&w.module, &w.input);
    vulnstack_llfi::draw_faults(&golden, n, seed)
        .into_iter()
        .map(|f| vulnstack_llfi::run_one(&w.module, &w.input, &golden, f))
        .collect()
}
