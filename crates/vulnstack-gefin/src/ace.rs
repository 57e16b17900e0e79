//! ACE-style analytical AVF estimation (the paper's §II.A discussion):
//! instead of injecting faults, profile the lifetime of architecturally
//! required state during one fault-free run. Fast — one run instead of
//! thousands — but **pessimistic**: it counts whole-register lifetimes and
//! occupancy, ignoring logical masking and partial-width liveness, exactly
//! the overestimation the paper attributes to ACE (its reference \[34\]).

use vulnstack_microarch::ooo::AceEstimate;
use vulnstack_microarch::OooCore;

use crate::prepare::Prepared;

/// Runs one fault-free ACE-instrumented run and returns the analytical
/// estimates for the register file and the LSQ.
pub fn ace_analysis(prep: &Prepared) -> AceEstimate {
    let mut core = OooCore::new(&prep.cfg, &prep.image);
    core.enable_ace();
    core.run_until(prep.budget);
    core.ace_estimate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avf::avf_campaign;
    use crate::prune::InjectionPlan;
    use vulnstack_core::RunOpts;
    use vulnstack_microarch::ooo::HwStructure;
    use vulnstack_microarch::{CoreModel, FaultModel};
    use vulnstack_workloads::WorkloadId;

    #[test]
    fn ace_is_pessimistic_relative_to_injection() {
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A72).unwrap();
        let ace = ace_analysis(&prep);
        assert!(ace.rf_avf > 0.0 && ace.rf_avf < 1.0, "{ace:?}");
        assert!(ace.lsq_avf > 0.0 && ace.lsq_avf <= 1.0, "{ace:?}");

        // Injection-measured AVF for the same structure; ACE should be an
        // upper bound (allowing slack for sampling noise).
        let (inj, _) = avf_campaign(
            &prep,
            HwStructure::RegisterFile,
            &InjectionPlan::Sampled { n: 60, seed: 21 },
            &[FaultModel::BitFlip],
            &RunOpts::new(4),
        )
        .unwrap();
        assert!(
            ace.rf_avf >= 0.8 * inj.avf().total(),
            "ACE {:.4} vs injected {:.4}: ACE lost its pessimism",
            ace.rf_avf,
            inj.avf().total()
        );
    }

    #[test]
    fn ace_runs_are_deterministic() {
        let w = WorkloadId::Smooth.build();
        let prep = Prepared::new(&w, CoreModel::A9).unwrap();
        let a = ace_analysis(&prep);
        let b = ace_analysis(&prep);
        assert_eq!(a, b);
    }
}
