//! The checkpoint layer's determinism contract: warm-starting an
//! injection from a golden-run checkpoint must be indistinguishable from
//! re-simulating the fault-free prefix from cycle 0 — identical restored
//! core state field-by-field, identical per-injection records, identical
//! campaign tallies, at any thread count.

use vulnstack_core::{Collector, RunOpts, StreamOpts};
use vulnstack_gefin::avf::run_one_with;
use vulnstack_gefin::{
    avf_campaign, decode_record, draw_sites, InjectEngine, InjectionPlan, InjectionRecord, Prepared,
};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel, OooCore};
use vulnstack_workloads::WorkloadId;

/// The (workload, core, structure) triples under test: a VA64 and a VA32
/// model, register/LSQ/cache targets.
fn triples() -> Vec<(WorkloadId, CoreModel, HwStructure)> {
    vec![
        (WorkloadId::Crc32, CoreModel::A72, HwStructure::RegisterFile),
        (WorkloadId::Qsort, CoreModel::A9, HwStructure::L1d),
        (WorkloadId::Crc32, CoreModel::A72, HwStructure::Lsq),
    ]
}

#[test]
fn restore_at_cycle_equals_run_until_cycle_field_by_field() {
    for (id, model, _) in triples() {
        let w = id.build();
        let prep = Prepared::new(&w, model).unwrap();
        let interval = prep.checkpoints.interval();
        let targets = [
            1,
            interval / 2,
            interval,
            interval + 1,
            prep.golden.cycles / 2,
            prep.golden.cycles - 1,
        ];
        for &c in &targets {
            let restored = prep.core_at(c);
            let mut scratch = prep.core_from_scratch();
            scratch.run_until(c);
            // OooCore's PartialEq covers every field: pipeline structures,
            // rename state, physical RF, caches, memory, predictor,
            // statistics, taint.
            assert!(
                restored == scratch,
                "{id}/{model}: restored state diverges from scratch at cycle {c}"
            );
            assert_eq!(restored.cycle(), c.min(prep.golden.cycles));
        }
    }
}

#[test]
fn checkpointed_campaign_reproduces_from_scratch_records_exactly() {
    for (id, model, structure) in triples() {
        let w = id.build();
        let prep = Prepared::new(&w, model).unwrap();
        let n = 16;
        let seed = 2021;
        // The reference: every site re-simulated from cycle 0.
        let scratch: Vec<InjectionRecord> = draw_sites(&prep, structure, n, seed)
            .into_iter()
            .map(|(c, b)| run_one_with(&prep, structure, c, b, InjectEngine::FromScratch))
            .collect();
        let scratch_tally: vulnstack_core::Tally = scratch.iter().map(|r| r.effect).collect();
        for threads in [1, 4] {
            let seen = Collector::default();
            let tee = seen.tee();
            let opts = RunOpts {
                stream: StreamOpts {
                    tee: Some(&tee),
                    ..StreamOpts::from_env()
                },
                ..RunOpts::new(threads)
            };
            let (ckpt, _) = avf_campaign(
                &prep,
                structure,
                &InjectionPlan::Sampled { n, seed },
                &[FaultModel::BitFlip],
                &opts,
            )
            .unwrap();
            let records: Vec<InjectionRecord> = seen
                .sorted()
                .iter()
                .map(|(_, p)| decode_record(p).unwrap())
                .collect();
            assert_eq!(
                scratch, records,
                "{id}/{model}/{structure}: records differ at threads={threads}"
            );
            assert_eq!(scratch_tally, ckpt.tally);
        }
    }
}

#[test]
fn single_injections_match_across_engines_at_checkpoint_boundaries() {
    let w = WorkloadId::Crc32.build();
    let prep = Prepared::new(&w, CoreModel::A72).unwrap();
    let interval = prep.checkpoints.interval();
    // Injection cycles straddling checkpoint boundaries, where an
    // off-by-one in restore would first show.
    for cycle in [1, interval - 1, interval, interval + 1, 2 * interval] {
        let cycle = cycle.min(prep.golden.cycles);
        for bit in [0u64, 1337, 4096] {
            let a = run_one_with(
                &prep,
                HwStructure::RegisterFile,
                cycle,
                bit,
                InjectEngine::FromScratch,
            );
            let b = run_one_with(
                &prep,
                HwStructure::RegisterFile,
                cycle,
                bit,
                InjectEngine::Checkpointed,
            );
            assert_eq!(a, b, "divergence at cycle {cycle}, bit {bit}");
        }
    }
}

#[test]
fn from_checkpoint_constructor_is_a_faithful_copy() {
    let w = WorkloadId::Crc32.build();
    let prep = Prepared::new(&w, CoreModel::A72).unwrap();
    let snap = prep.checkpoints.nearest(prep.golden.cycles / 2);
    let copy = OooCore::from_checkpoint(snap);
    assert!(&copy == snap);
    // Stepping the copy must not be able to affect the original: run the
    // copy forward and re-compare against a second copy.
    let mut run = OooCore::from_checkpoint(snap);
    run.run_until(snap.cycle() + 100);
    assert!(OooCore::from_checkpoint(snap) == copy);
}
