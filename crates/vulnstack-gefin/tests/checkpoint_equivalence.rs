//! The checkpoint layer's determinism contract: warm-starting an
//! injection from a golden-run checkpoint must be indistinguishable from
//! re-simulating the fault-free prefix from cycle 0 — identical restored
//! core state field-by-field, identical per-injection records, identical
//! campaign tallies, at any thread count.

use vulnstack_core::{Collector, RunOpts, StreamOpts};
use vulnstack_gefin::avf::run_one_with;
use vulnstack_gefin::{
    avf_campaign, decode_record, draw_sites, InjectionPlan, InjectionRecord, Prepared,
};
use vulnstack_kernel::memmap;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::WorkloadId;

/// The (workload, core, structure) triples under test: a VA64 and a VA32
/// model, register/LSQ/cache targets, among them the largest cache array
/// (the A72's 2 MiB L2) and a 3-way one (the A72's L1i).
fn triples() -> Vec<(WorkloadId, CoreModel, HwStructure)> {
    vec![
        (WorkloadId::Crc32, CoreModel::A72, HwStructure::RegisterFile),
        (WorkloadId::Qsort, CoreModel::A9, HwStructure::L1d),
        (WorkloadId::Crc32, CoreModel::A72, HwStructure::Lsq),
        (WorkloadId::Qsort, CoreModel::A72, HwStructure::L2),
        (WorkloadId::Crc32, CoreModel::A72, HwStructure::L1i),
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
            .map(|(c, b)| run_one_with(&prep, structure, c, b, prep.core_from_scratch()))
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
            let rf = HwStructure::RegisterFile;
            let a = run_one_with(&prep, rf, cycle, bit, prep.core_from_scratch());
            let b = run_one_with(&prep, rf, cycle, bit, prep.checkpoints.restore(cycle));
            assert_eq!(a, b, "divergence at cycle {cycle}, bit {bit}");
        }
    }
}

#[test]
fn from_checkpoint_constructor_is_a_faithful_copy() {
    let w = WorkloadId::Crc32.build();
    let prep = Prepared::new(&w, CoreModel::A72).unwrap();
    let snap = prep.checkpoints.nearest(prep.golden.cycles / 2);
    let copy = snap.clone();
    assert!(&copy == snap);
    // Nothing done to a restored core may reach the snapshot it came
    // from, whose cache and memory pages it shares: flip a bit in every
    // L1d line and in every 7th L2 line, store across 2 MiB of user data
    // (dirty evictions from L1d into L2 and from L2 into memory), step
    // the core forward, then re-compare against a second copy.
    let mut run = snap.clone();
    let line_bits = 64 * 8;
    for line in 0..prep.cfg.l1d.data_bits() / line_bits {
        run.inject_model(HwStructure::L1d, line * line_bits + 3, FaultModel::BitFlip);
    }
    for line in (0..prep.cfg.l2.data_bits() / line_bits).step_by(7) {
        run.inject_model(HwStructure::L2, line * line_bits + 5, FaultModel::BitFlip);
    }
    for i in 0..256 {
        run.mem.store(memmap::USER_DATA + i * 8192, 8, u64::MAX);
    }
    run.run_until(snap.cycle() + 100);
    assert!(run != copy);
    assert!(&copy == snap);
    assert!(snap.clone() == copy);
}
