//! Workspace-level determinism guarantees: identical seeds must give
//! identical campaign results across repeated runs and thread counts —
//! the property that makes every figure in EXPERIMENTS.md reproducible.

mod common;

use common::{pvf_tally, sampled, svf_tally};
use vulnstack_gefin::{FuncPrepared, Prepared, PvfMode};
use vulnstack_isa::Isa;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::CoreModel;
use vulnstack_workloads::WorkloadId;

#[test]
fn avf_campaigns_repeat_bit_for_bit() {
    let w = WorkloadId::Dijkstra.build();
    let prep = Prepared::new(&w, CoreModel::A57).unwrap();
    let (a, ra) = sampled(&prep, HwStructure::L1d, 30, 77, 1);
    let (b, rb) = sampled(&prep, HwStructure::L1d, 30, 77, 3);
    assert_eq!(a.tally, b.tally);
    let pa: Vec<_> = ra
        .iter()
        .map(|r| (r.cycle, r.bit, r.effect, r.fpm))
        .collect();
    let pb: Vec<_> = rb
        .iter()
        .map(|r| (r.cycle, r.bit, r.effect, r.fpm))
        .collect();
    assert_eq!(pa, pb, "per-record results must match across thread counts");
}

#[test]
fn pvf_and_svf_campaigns_repeat() {
    let w = WorkloadId::Corner.build();
    let fprep = FuncPrepared::new(&w, Isa::Va32).unwrap();
    let a = pvf_tally(&fprep, PvfMode::Wd, 20, 5, 2);
    let b = pvf_tally(&fprep, PvfMode::Wd, 20, 5, 5);
    assert_eq!(a, b);

    let s1 = svf_tally(&w, 25, 9, 1);
    let s2 = svf_tally(&w, 25, 9, 4);
    assert_eq!(s1, s2);
}

#[test]
fn golden_runs_are_cycle_exact_across_instances() {
    let w = WorkloadId::Fft.build();
    let p1 = Prepared::new(&w, CoreModel::A15).unwrap();
    let p2 = Prepared::new(&w, CoreModel::A15).unwrap();
    assert_eq!(p1.golden.cycles, p2.golden.cycles);
    assert_eq!(p1.golden.instrs, p2.golden.instrs);
    assert_eq!(p1.golden.output, p2.golden.output);
}

#[test]
fn workload_construction_is_pure() {
    for id in WorkloadId::ALL {
        let a = id.build();
        let b = id.build();
        assert_eq!(a.module, b.module, "{id}");
        assert_eq!(a.input, b.input, "{id}");
        assert_eq!(a.expected_output, b.expected_output, "{id}");
    }
}
