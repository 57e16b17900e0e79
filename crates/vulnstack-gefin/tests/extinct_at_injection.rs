//! The injection runner's early exits return the record of a run to the
//! end. A flip into an invalid cache line or LSQ entry is dead the
//! moment it lands, and the runner classifies such a site Masked before
//! it simulates a cycle. Here every site that is extinct at injection
//! runs to completion instead, on both ISAs and over all five
//! structures: it must end Masked with no FPM, the record the runner
//! returns. The same sites, and two campaigns known to take them, also
//! check the runner's exits for manifested faults, golden-state
//! convergence and proven hangs, against the same injected core run to
//! the budget.

use vulnstack_core::effects::FaultEffect;
use vulnstack_gefin::avf::run_one;
use vulnstack_gefin::{draw_sites, run_one_traced, InjectionRecord, Prepared};
use vulnstack_microarch::lifetime::{FaultEventKind, DEFAULT_EVENT_CAP};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::WorkloadId;

const SITES: usize = 200;
const SEED: u64 = 29;

/// The record of bit-flip `(cycle, bit)` on `st` run to the budget:
/// no early exit, classified by `finish()`.
fn run_to_budget(prep: &Prepared, st: HwStructure, cycle: u64, bit: u64) -> InjectionRecord {
    let mut core = prep.checkpoints.restore(cycle);
    core.run_until(cycle);
    core.inject_model(st, bit, FaultModel::BitFlip);
    core.run_until(prep.budget);
    let out = core.finish();
    let effect = FaultEffect::classify(
        out.sim.status,
        &out.sim.output,
        prep.golden.status,
        &prep.expected_output,
    );
    InjectionRecord {
        cycle,
        bit,
        model: FaultModel::BitFlip,
        effect,
        fpm: out.fpm,
        fpm_cycle: out.fpm_cycle,
    }
}

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
                assert_eq!(
                    run_to_budget(&prep, st, cycle, bit),
                    masked,
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

/// Every site whose traced run ends by convergence or by a proven hang
/// returns the record of the same injected core run to the budget, and
/// each exit is taken at least once: crc32/A72's seed-8 register-file
/// campaign holds a proven hang (site 10) and convergences on the
/// register file and the LSQ.
#[test]
fn converged_and_hung_sites_match_runs_to_the_budget() {
    const RF: HwStructure = HwStructure::RegisterFile;
    let campaigns = [
        (
            WorkloadId::Crc32,
            CoreModel::A9,
            &HwStructure::ALL[..],
            SITES,
            SEED,
        ),
        (
            WorkloadId::Qsort,
            CoreModel::A72,
            &HwStructure::ALL[..],
            SITES,
            SEED,
        ),
        (
            WorkloadId::Crc32,
            CoreModel::A72,
            &[RF, HwStructure::Lsq][..],
            40,
            8,
        ),
    ];
    let mut exits = [0usize; 2];
    for (id, model, structures, n, seed) in campaigns {
        let prep = Prepared::new(&id.build(), model).unwrap();
        let check = |st: HwStructure| {
            let mut exits = [0usize; 2];
            for (cycle, bit) in draw_sites(&prep, st, n, seed) {
                let (rec, trace) = run_one_traced(&prep, st, cycle, bit, DEFAULT_EVENT_CAP);
                let last = trace.expect("a traced run").events().last().map(|e| e.kind);
                match last {
                    Some(FaultEventKind::PrunedExtinct) => exits[0] += 1,
                    Some(FaultEventKind::ProvenHang) => exits[1] += 1,
                    _ => continue,
                }
                assert_eq!(
                    run_to_budget(&prep, st, cycle, bit),
                    rec,
                    "{id}/{model}/{st}: cycle {cycle}, bit {bit} ended by {last:?}"
                );
            }
            exits
        };
        std::thread::scope(|s| {
            let workers: Vec<_> = structures
                .iter()
                .map(|&st| s.spawn(move || check(st)))
                .collect();
            for w in workers {
                let [converged, hung] = w.join().unwrap();
                exits[0] += converged;
                exits[1] += hung;
            }
        });
    }
    let [converged, hung] = exits;
    assert!(converged > 0, "no run ended by convergence");
    assert!(hung > 0, "no run ended by a proven hang");
}
