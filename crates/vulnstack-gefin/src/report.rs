//! Machine-readable campaign reports shared by every front end.
//!
//! The `avf --json` report used to be hand-built inside the CLI binary,
//! which made it impossible for any other front end (the `vulnstack-serve`
//! daemon, tests) to promise byte-identical output. It lives here now:
//! the CLI and the daemon call the same function over the same campaign
//! results, so `cmp` on their JSON files is a meaningful equivalence
//! check, not a formatting lottery.

use vulnstack_core::json::{self, fixed, n, ordered, s, Value};
use vulnstack_core::{FpmDist, Tally};
use vulnstack_microarch::FaultModel;

use crate::prune::InjectionPlan;

/// One structure's per-model campaign tallies, as reported and exported:
/// `(structure name, per-model (model, tally, FPM distribution))`.
pub type ModelReport = (&'static str, Vec<(FaultModel, Tally, FpmDist)>);

/// The canonical JSON report for an AVF campaign: per-structure,
/// per-model tallies plus the plan that produced them. Trailing newline
/// included — the output is written to files verbatim and compared with
/// `cmp`.
pub fn avf_report_json(
    workload: &str,
    plan: &InjectionPlan,
    per_structure: &[ModelReport],
) -> String {
    let plan_detail = match *plan {
        InjectionPlan::Exhaustive { cycle } => format!("exhaustive@{cycle}"),
        _ => plan.name().to_string(),
    };
    let model = |(m, tally, fpm): &(FaultModel, Tally, FpmDist)| {
        ordered(vec![
            ("model", s(m.name())),
            ("injections", n(tally.total())),
            ("masked", n(tally.masked)),
            ("sdc", n(tally.sdc)),
            ("crash", n(tally.crash)),
            ("detected", n(tally.detected)),
            ("avf", fixed(tally.vf().total(), 6)),
            ("hvf", fixed(fpm.hvf(), 6)),
        ])
    };
    let structures = per_structure.iter().map(|(st, tallies)| {
        ordered(vec![
            ("structure", s(st)),
            ("models", Value::Arr(tallies.iter().map(model).collect())),
        ])
    });
    json::write(&ordered(vec![
        ("workload", s(workload)),
        ("plan", Value::Str(plan_detail)),
        ("structures", Value::Arr(structures.collect())),
    ])) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_core::effects::FaultEffect;

    #[test]
    fn report_shape_is_stable() {
        let mut tally = Tally::default();
        tally.add(FaultEffect::Masked);
        tally.add(FaultEffect::Sdc);
        let report: Vec<ModelReport> =
            vec![("RF", vec![(FaultModel::BitFlip, tally, FpmDist::default())])];
        let json = avf_report_json("crc32", &InjectionPlan::Sampled { n: 2, seed: 1 }, &report);
        assert!(json.starts_with("{\"workload\":\"crc32\",\"plan\":\"sampled\""));
        assert!(json.contains("\"structure\":\"RF\""));
        assert!(json.contains("\"model\":\"bit-flip\",\"injections\":2,\"masked\":1,\"sdc\":1"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn exhaustive_plan_records_its_cycle() {
        let json = avf_report_json("sha", &InjectionPlan::Exhaustive { cycle: 41 }, &[]);
        assert!(json.contains("\"plan\":\"exhaustive@41\""));
    }
}
