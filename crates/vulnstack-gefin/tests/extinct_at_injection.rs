//! A flip into an invalid cache line or LSQ entry is dead the moment it
//! lands, and the injector classifies such a site Masked before it
//! simulates a cycle. Here every site that is extinct at injection runs
//! to completion instead, on both ISAs and over all five structures: it
//! must end Masked with no FPM, the record the injector returns.

use vulnstack_core::effects::FaultEffect;
use vulnstack_gefin::avf::run_one;
use vulnstack_gefin::{draw_sites, InjectionRecord, Prepared};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::WorkloadId;

const SITES: usize = 200;
const SEED: u64 = 29;

#[test]
fn sites_extinct_at_injection_run_to_completion_masked() {
    for (id, model) in [
        (WorkloadId::Crc32, CoreModel::A9),
        (WorkloadId::Qsort, CoreModel::A72),
    ] {
        let prep = Prepared::new(&id.build(), model).unwrap();
        let check = |st: HwStructure| {
            let mut extinct = 0;
            for (cycle, bit) in draw_sites(&prep, st, SITES, SEED) {
                let mut core = prep.checkpoints.restore(cycle);
                core.run_until(cycle);
                core.inject_model(st, bit, FaultModel::BitFlip);
                if !core.fault_extinct() {
                    continue;
                }
                extinct += 1;
                let masked = InjectionRecord {
                    cycle,
                    bit,
                    model: FaultModel::BitFlip,
                    effect: FaultEffect::Masked,
                    fpm: None,
                    fpm_cycle: None,
                };
                assert_eq!(run_one(&prep, st, cycle, bit), masked, "{id}/{model}/{st}");
                core.run_until(prep.budget);
                let out = core.finish();
                let effect = FaultEffect::classify(
                    out.sim.status,
                    &out.sim.output,
                    prep.golden.status,
                    &prep.expected_output,
                );
                assert_eq!(
                    (effect, out.fpm),
                    (FaultEffect::Masked, None),
                    "{id}/{model}/{st}: cycle {cycle}, bit {bit} is extinct at injection"
                );
            }
            extinct
        };
        let counts: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = HwStructure::ALL
                .into_iter()
                .map(|st| s.spawn(move || check(st)))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // Only an LSQ or cache flip can land dead, and most of them do.
        assert!(
            counts[1..].iter().sum::<usize>() > 2 * SITES,
            "{id}/{model}: {counts:?} sites extinct at injection"
        );
    }
}
