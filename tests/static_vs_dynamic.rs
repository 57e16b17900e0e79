//! Cross-layer pessimism ordering (the paper's §II.A): the cheaper an
//! estimation method, the more pessimistic its answer must be. For the
//! register file that means
//!
//! ```text
//! static PVF (zero runs)  >=  dynamic ACE (the golden run)  >=  injection AVF
//! ```
//!
//! Static PVF comes from `vulnstack-analyze` (pure binary analysis:
//! liveness over a recovered CFG, weighted by a static loop model); ACE
//! from what the observed golden pass records; injection from a sampled
//! campaign. The lower comparison carries a 0.8 slack for sampling noise,
//! matching the tolerance the ACE-vs-injection seed test uses. ACE's own
//! numbers are pinned, and tied to the class table's live fraction.

use vulnstack_gefin::{ace_analysis, static_vs_dynamic, Prepared};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::CoreModel;
use vulnstack_workloads::WorkloadId;

const FAULTS: usize = 60;
const SAMPLING_SLACK: f64 = 0.8;

fn check(id: WorkloadId, model: CoreModel, seed: u64) {
    let w = id.build();
    let cmp = static_vs_dynamic(&w, model, FAULTS, seed, 4).unwrap();
    let inj = cmp.injected_rf_avf.unwrap();

    // All three are meaningful fractions.
    assert!(
        cmp.static_rf_pvf > 0.0 && cmp.static_rf_pvf < 1.0,
        "{cmp:?}"
    );
    assert!(cmp.ace_rf_avf > 0.0 && cmp.ace_rf_avf < 1.0, "{cmp:?}");
    assert!((0.0..=1.0).contains(&inj), "{cmp:?}");

    // Static analysis must not lose the analytical bound: it cannot see
    // logical masking at all, so it sits strictly above the ACE estimate.
    assert!(
        cmp.static_rf_pvf >= cmp.ace_rf_avf,
        "{} on {}: static PVF {:.4} < dynamic ACE {:.4}",
        id.name(),
        model.name(),
        cmp.static_rf_pvf,
        cmp.ace_rf_avf
    );
    // ACE in turn bounds measured AVF (slack for sampling noise).
    assert!(
        cmp.ace_rf_avf >= SAMPLING_SLACK * inj,
        "{} on {}: ACE {:.4} < injection {:.4}",
        id.name(),
        model.name(),
        cmp.ace_rf_avf,
        inj
    );
    assert!(cmp.ordering_holds(SAMPLING_SLACK));

    // The static pass also certifies the binary is lint-clean.
    assert_eq!(
        cmp.lint_count,
        0,
        "{} on {}: lints",
        id.name(),
        model.name()
    );
}

#[test]
fn ordering_holds_for_crc32_on_va64() {
    check(WorkloadId::Crc32, CoreModel::A72, 11);
}

#[test]
fn ordering_holds_for_qsort_on_va32() {
    check(WorkloadId::Qsort, CoreModel::A9, 12);
}

#[test]
fn ordering_holds_for_sha_on_va32() {
    check(WorkloadId::Sha, CoreModel::A9, 13);
}

#[test]
fn static_pvf_is_isa_sensitive_but_model_insensitive() {
    // PVF is an architectural measure: it may differ between ISAs but must
    // be identical across core models of the same ISA (A57 vs A72), since
    // the static analyzer never looks at the microarchitecture.
    let w = WorkloadId::Fft.build();
    let a57 = static_vs_dynamic(&w, CoreModel::A57, 0, 1, 1).unwrap();
    let a72 = static_vs_dynamic(&w, CoreModel::A72, 0, 1, 1).unwrap();
    assert_eq!(a57.static_rf_pvf, a72.static_rf_pvf);

    let a9 = static_vs_dynamic(&w, CoreModel::A9, 0, 1, 1).unwrap();
    assert_ne!(a9.static_rf_pvf, a72.static_rf_pvf);
}

/// One cheap workload per core model, with the bit patterns of its ACE
/// estimate `(rf_avf, lsq_avf, cycles)`, computed by an earlier build.
const ACE_PINS: [(WorkloadId, CoreModel, u64, u64, u64); 4] = [
    (
        WorkloadId::Crc32,
        CoreModel::A9,
        0x3fbb_0cd4_fbb2_8f14,
        0x3fd0_6105_ca92_7867,
        128_767,
    ),
    (
        WorkloadId::Smooth,
        CoreModel::A15,
        0x3fbc_243d_2dfa_5bce,
        0x3fd1_c6ec_aa9e_33ee,
        105_162,
    ),
    (
        WorkloadId::Qsort,
        CoreModel::A57,
        0x3fb5_0e84_8faa_de60,
        0x3fbd_b7f7_9109_7cd5,
        30_841,
    ),
    (
        WorkloadId::Sha,
        CoreModel::A72,
        0x3fc1_66bc_40f2_98e0,
        0x3fc2_f984_5d01_4982,
        86_716,
    ),
];

/// `id` on `model`, its golden pass observing the register file and the
/// LSQ.
fn observed(id: WorkloadId, model: CoreModel) -> Prepared {
    let both = [HwStructure::RegisterFile, HwStructure::Lsq];
    Prepared::observing(&id.build(), model, &both).unwrap()
}

#[test]
fn ace_estimates_match_their_pinned_bits() {
    for (id, model, rf, lsq, cycles) in ACE_PINS {
        let plain = Prepared::new(&id.build(), model).unwrap();
        for prep in [&observed(id, model), &plain] {
            let ace = ace_analysis(prep);
            assert_eq!(
                (ace.rf_avf.to_bits(), ace.lsq_avf.to_bits(), ace.cycles),
                (rf, lsq, cycles),
                "{id} on {model}: {ace:?}"
            );
        }
    }
}

/// ACE's register-file estimate and the class table's live fraction sum
/// the same def-to-last-read intervals of the golden run's access log.
/// They differ only on a register whose first access is a read: ACE
/// counts that interval from cycle 0, the live fraction from cycle 1
/// (the first cycle a campaign samples). So ACE is the larger, by at
/// most one cycle per register.
#[test]
fn ace_rf_estimate_is_the_live_fraction_within_one_cycle() {
    for (id, model, ..) in ACE_PINS {
        let prep = observed(id, model);
        let ace = ace_analysis(&prep);
        let live = prep
            .table(HwStructure::RegisterFile)
            .and_then(|t| t.rf_dynamic_live_fraction())
            .expect("the register file was observed");
        let gap = ace.rf_avf - live;
        assert!(
            (0.0..=1.0 / prep.golden.cycles as f64).contains(&gap),
            "{id} on {model}: ACE {} vs live {live}",
            ace.rf_avf
        );
    }
}
