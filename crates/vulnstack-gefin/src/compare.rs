//! Cross-layer comparison of the three register-file vulnerability
//! estimates the stack can produce for one workload, ordered by cost and
//! pessimism (the paper's §II.A):
//!
//! * **static PVF** (`vulnstack-analyze`) — zero executions, pure binary
//!   analysis; the most pessimistic: liveness cannot see logical masking
//!   and its block-frequency model cannot see data-dependent control flow;
//! * **dynamic ACE** ([`crate::ace_analysis`]) — lifetime accounting
//!   over the physical register file's accesses, as the observed golden
//!   pass of the cycle-level preparation records them;
//! * **injection AVF** ([`crate::avf_campaign`]) — thousands of faulty
//!   runs; the ground truth the other two bound from above.

use vulnstack_analyze::analyze;
use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_core::RunOpts;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::Workload;

use crate::ace::ace_analysis;
use crate::avf::avf_campaign;
use crate::prepare::{PrepareError, Prepared};
use crate::prune::InjectionPlan;

/// The three register-file vulnerability estimates for one workload on one
/// core model.
#[derive(Debug, Clone)]
pub struct StaticDynamicComparison {
    /// Core model the dynamic estimates ran on.
    pub model: CoreModel,
    /// Static PVF of the architectural register file (no execution).
    pub static_rf_pvf: f64,
    /// ACE-style analytical AVF of the physical register file (from the
    /// golden run).
    pub ace_rf_avf: f64,
    /// Injection-measured register-file AVF, if a campaign was requested.
    pub injected_rf_avf: Option<f64>,
    /// Cycles of the golden run ACE counts over.
    pub cycles: u64,
    /// Number of lint findings the static pass reported.
    pub lint_count: usize,
}

impl StaticDynamicComparison {
    /// Whether the pessimism ordering `static >= ACE >= injection` holds
    /// (`slack` relaxes the lower comparisons for sampling noise, e.g.
    /// `0.8` accepts `ACE >= 0.8 * injected`).
    pub fn ordering_holds(&self, slack: f64) -> bool {
        let upper = self.static_rf_pvf >= self.ace_rf_avf * slack;
        let lower = match self.injected_rf_avf {
            Some(inj) => self.ace_rf_avf >= inj * slack,
            None => true,
        };
        upper && lower
    }
}

/// Computes all three estimates for `workload` on `model`.
///
/// `inj_faults` of `0` skips the injection campaign (the comparison then
/// only covers static PVF vs. dynamic ACE).
///
/// # Errors
///
/// Returns [`PrepareError`] if compilation or the golden run fails.
pub fn static_vs_dynamic(
    workload: &Workload,
    model: CoreModel,
    inj_faults: usize,
    seed: u64,
    threads: usize,
) -> Result<StaticDynamicComparison, PrepareError> {
    let cfg = model.config();
    let compiled = compile(&workload.module, cfg.isa, &CompileOpts::default())
        .map_err(|e| PrepareError::Compile(e.to_string()))?;
    let sa = analyze(&compiled);

    let both = [HwStructure::RegisterFile, HwStructure::Lsq];
    let prep = Prepared::observing(workload, model, &both)?;
    let ace = ace_analysis(&prep);
    let injected_rf_avf = if inj_faults > 0 {
        let (campaign, _) = avf_campaign(
            &prep,
            HwStructure::RegisterFile,
            &InjectionPlan::Sampled {
                n: inj_faults,
                seed,
            },
            &[FaultModel::BitFlip],
            &RunOpts::new(threads),
        )
        .expect("an unjournaled campaign does no I/O");
        Some(campaign.avf().total())
    } else {
        None
    };

    Ok(StaticDynamicComparison {
        model,
        static_rf_pvf: sa.pvf.rf_pvf,
        ace_rf_avf: ace.rf_avf,
        injected_rf_avf,
        cycles: ace.cycles,
        lint_count: sa.lints.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_workloads::WorkloadId;

    #[test]
    fn static_bounds_dynamic_ace_on_crc32() {
        let w = WorkloadId::Crc32.build();
        let cmp = static_vs_dynamic(&w, CoreModel::A72, 0, 1, 1).unwrap();
        assert!(cmp.static_rf_pvf > 0.0 && cmp.static_rf_pvf < 1.0);
        assert!(cmp.ace_rf_avf > 0.0 && cmp.ace_rf_avf < 1.0);
        assert!(
            cmp.static_rf_pvf >= cmp.ace_rf_avf,
            "static {:.4} < ACE {:.4}",
            cmp.static_rf_pvf,
            cmp.ace_rf_avf
        );
        assert!(cmp.ordering_holds(1.0));
        assert_eq!(cmp.lint_count, 0);
    }
}
