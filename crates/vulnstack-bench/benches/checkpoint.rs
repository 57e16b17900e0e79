//! Criterion benchmark for the checkpoint-and-restore injection engine:
//! one late-in-the-run register-file injection, from-scratch vs restored
//! from the nearest golden checkpoint. The from-scratch run re-simulates
//! ~3/4 of the golden run before it can flip its bit; the restored run
//! simulates at most one checkpoint interval.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vulnstack_gefin::avf::run_one_with;
use vulnstack_gefin::Prepared;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::CoreModel;
use vulnstack_workloads::WorkloadId;

fn bench_checkpoint_restore(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint_restore");
    g.sample_size(10);
    let w = WorkloadId::Crc32.build();
    let prep = Prepared::new(&w, CoreModel::A72).unwrap();
    let late_cycle = prep.golden.cycles * 3 / 4;

    for (name, from_scratch) in [("from_scratch", true), ("checkpointed", false)] {
        g.bench_function(BenchmarkId::new("late_rf_injection", name), |b| {
            b.iter(|| {
                let start = if from_scratch {
                    prep.core_from_scratch()
                } else {
                    prep.checkpoints.restore(late_cycle)
                };
                run_one_with(&prep, HwStructure::RegisterFile, late_cycle, 1234, start)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_checkpoint_restore);
criterion_main!(benches);
