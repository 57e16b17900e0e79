//! Criterion benchmarks for the fault-injection layers themselves: cost
//! of a single microarchitectural injection run, an architecture-level
//! (PVF) run, and a software-level (SVF) run — the throughput hierarchy
//! the paper discusses (software-level fast, microarchitecture-level
//! slow).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vulnstack_gefin::avf::run_one;
use vulnstack_gefin::{FuncPrepared, Prepared};
use vulnstack_isa::FaultModel;
use vulnstack_llfi::{golden_run, run_one as svf_run_one};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FuncCore};
use vulnstack_vir::interp::SwFault;
use vulnstack_workloads::WorkloadId;

fn bench_injection_layers(c: &mut Criterion) {
    let mut g = c.benchmark_group("injection_layers");
    g.sample_size(10);
    let w = WorkloadId::Crc32.build();

    // Microarchitecture level (AVF): one register-file injection run.
    let prep = Prepared::new(&w, CoreModel::A72).unwrap();
    let mid_cycle = prep.golden.cycles / 2;
    g.bench_function(BenchmarkId::new("avf_run", "crc32/A72/RF"), |b| {
        b.iter(|| run_one(&prep, HwStructure::RegisterFile, mid_cycle, 1234));
    });

    // Architecture level (PVF): one persistent register flip.
    let fprep = FuncPrepared::new(&w, vulnstack_isa::Isa::Va64).unwrap();
    let at = fprep.golden.instrs / 2;
    g.bench_function(BenchmarkId::new("pvf_run", "crc32/va64"), |b| {
        b.iter(|| {
            let mut core = FuncCore::new(&fprep.image);
            while core.icount() < at && core.step() {}
            core.inject_reg(vulnstack_isa::Reg(3), 7, FaultModel::BitFlip);
            core.run(fprep.budget).instrs
        });
    });

    // Software level (SVF): one instantaneous IR destination flip.
    let golden = golden_run(&w.module, &w.input);
    let sw = SwFault {
        target: golden.injectable / 2,
        bit: 11,
        model: FaultModel::BitFlip,
    };
    g.bench_function(BenchmarkId::new("svf_run", "crc32"), |b| {
        b.iter(|| svf_run_one(&w.module, &w.input, &golden, sw));
    });

    g.finish();
}

criterion_group!(benches, bench_injection_layers);
criterion_main!(benches);
