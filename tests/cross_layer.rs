//! Workspace-level integration tests: the full measurement stack wired
//! end-to-end, exercising the same paths as the figure binaries but with
//! small fault counts.

mod common;

use common::{pvf_tally, sampled, svf_tally};
use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_core::effects::FaultEffect;
use vulnstack_ft::harden;
use vulnstack_gefin::{FuncPrepared, Prepared, PvfMode};
use vulnstack_isa::Isa;
use vulnstack_kernel::SystemImage;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, OooCore, RunStatus};
use vulnstack_workloads::{Workload, WorkloadId};

#[test]
fn hardened_workloads_run_clean_on_the_ooo_core() {
    for id in [WorkloadId::Sha, WorkloadId::Smooth] {
        let base = id.build();
        let hard = Workload {
            module: harden(&base.module).unwrap(),
            ..base.clone()
        };
        for model in [CoreModel::A9, CoreModel::A72] {
            let cfg = model.config();
            let compiled = compile(&hard.module, cfg.isa, &CompileOpts::default()).unwrap();
            let image = SystemImage::build(&compiled, &hard.input).unwrap();
            let out = OooCore::new(&cfg, &image).run(400_000_000);
            assert_eq!(out.sim.status, RunStatus::Exited(0), "{id}/{model}");
            assert_eq!(out.sim.output, base.expected_output, "{id}/{model}");
        }
    }
}

#[test]
fn hardening_increases_cycle_count_in_the_paper_envelope() {
    let base = WorkloadId::Sha.build();
    let hard = Workload {
        module: harden(&base.module).unwrap(),
        ..base.clone()
    };
    let p0 = Prepared::new(&base, CoreModel::A72).unwrap();
    let p1 = Prepared::new(&hard, CoreModel::A72).unwrap();
    let ratio = p1.golden.cycles as f64 / p0.golden.cycles as f64;
    assert!(
        (1.5..5.0).contains(&ratio),
        "cycle inflation {ratio:.2} out of envelope"
    );
}

#[test]
fn avf_is_orders_of_magnitude_below_svf() {
    // The paper's scale-separation observation: software-level
    // vulnerability is measured on live values only, so it is far larger
    // than the cross-layer AVF of a big, mostly-idle structure like L2.
    let w = WorkloadId::Fft.build();
    let svf = svf_tally(&w, 60, 3, 4);
    let prep = Prepared::new(&w, CoreModel::A72).unwrap();
    let (l2, _) = sampled(&prep, HwStructure::L2, 60, 3, 4);
    assert!(
        svf.vf().total() > 5.0 * l2.avf().total(),
        "svf {:?} vs l2 avf {:?}",
        svf.vf(),
        l2.avf()
    );
}

#[test]
fn detected_outcomes_only_appear_with_hardening() {
    let base = WorkloadId::Smooth.build();
    let hard = Workload {
        module: harden(&base.module).unwrap(),
        ..base.clone()
    };

    let t_base = svf_tally(&base, 50, 5, 4);
    assert_eq!(t_base.detected, 0, "unhardened code cannot detect");

    let t_hard = svf_tally(&hard, 50, 5, 4);
    assert!(
        t_hard.detected > 0,
        "hardened code should detect some faults: {t_hard:?}"
    );
}

#[test]
fn pvf_sees_kernel_faults_that_svf_cannot() {
    // PVF runs on the full system: its fault population includes kernel
    // text/instructions. We can't compare populations directly, but the
    // kernel share of executed instructions must be nonzero (the paper
    // quotes 19.5% for its sha).
    let w = WorkloadId::Sha.build();
    let prep = FuncPrepared::new(&w, Isa::Va64).unwrap();
    let kernel_share = prep.profile.kernel_instrs as f64
        / (prep.profile.kernel_instrs + prep.profile.user_instrs) as f64;
    assert!(
        kernel_share > 0.001,
        "kernel share {kernel_share:.4} suspiciously low"
    );
    // And a WI campaign must run (exercising text corruption incl. kernel).
    let t = pvf_tally(&prep, PvfMode::Wi, 12, 1, 4);
    assert_eq!(t.total(), 12);
}

#[test]
fn fault_effect_classes_are_exhaustive_over_campaigns() {
    let w = WorkloadId::Qsort.build();
    let prep = Prepared::new(&w, CoreModel::A9).unwrap();
    let (r, _) = sampled(&prep, HwStructure::L1d, 40, 9, 4);
    let total = FaultEffect::ALL
        .iter()
        .map(|&e| match e {
            FaultEffect::Masked => r.tally.masked,
            FaultEffect::Sdc => r.tally.sdc,
            FaultEffect::Crash => r.tally.crash,
            FaultEffect::Detected => r.tally.detected,
        })
        .sum::<u64>();
    assert_eq!(total, 40);
}

#[test]
fn esc_faults_never_have_a_prior_software_manifestation() {
    // By definition an ESC fault reaches the output without passing
    // through the pipeline; sweep output-heavy workloads and check the
    // classifier respects the definition (every ESC record is also an
    // output corruption, i.e. SDC, or at minimum not Masked).
    let w = WorkloadId::Smooth.build();
    let prep = Prepared::new(&w, CoreModel::A9).unwrap();
    let (_, records) = sampled(&prep, HwStructure::L1d, 80, 13, 4);
    for rec in &records {
        if rec.fpm == Some(vulnstack_microarch::ooo::Fpm::Esc) {
            assert_ne!(
                rec.effect,
                FaultEffect::Masked,
                "ESC faults corrupt the output"
            );
        }
    }
}
