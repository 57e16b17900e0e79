//! ACE-style analytical AVF estimation (the paper's §II.A discussion):
//! instead of injecting faults, count the lifetime of architecturally
//! required state along the fault-free run. Fast — it reads what the
//! observed golden pass recorded ([`Prepared::observing`]) instead of
//! running thousands of faulty runs — but **pessimistic**: it counts
//! whole-register lifetimes and occupancy, ignoring logical masking and
//! partial-width liveness, exactly the overestimation the paper
//! attributes to ACE (its reference \[34\]).

use vulnstack_microarch::ooo::{HwStructure, RfAccess};

use crate::prepare::Prepared;
use crate::prune::ClassTable;

/// An analytical (ACE-style) AVF estimate from a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AceEstimate {
    /// Register-file AVF upper bound (vulnerable register-cycles over
    /// capacity-cycles).
    pub rf_avf: f64,
    /// LSQ AVF upper bound (occupied entry-cycles over capacity-cycles).
    pub lsq_avf: f64,
    /// Cycles observed.
    pub cycles: u64,
}

/// The ACE estimates for the register file and the LSQ of `prep`'s
/// golden run, from the register-file and LSQ class tables its golden
/// pass recorded. A preparation that recorded either not gets both from
/// one bare observed re-run of the golden pass.
///
/// * **Register file:** a physical register is vulnerable from each
///   write (or cycle 0) to its last read before the next write, at
///   whole-register granularity — the classic source of ACE pessimism.
/// * **LSQ:** vulnerability is entry occupancy, the valid entries each
///   step of the golden run begins with.
pub fn ace_analysis(prep: &Prepared) -> AceEstimate {
    let both = [HwStructure::RegisterFile, HwStructure::Lsq];
    let rerun;
    let (rf, lsq) = match both.map(|s| prep.table(s)) {
        [Some(rf), Some(lsq)] => (rf, lsq),
        _ => {
            rerun = ClassTable::rerun(prep, both);
            (&rerun[0], &rerun[1])
        }
    };
    let cycles = prep.golden.cycles;
    let events = rf.rf_events();
    let (occupancy, entries) = lsq.lsq_occupancy();
    AceEstimate {
        rf_avf: rf_ace_cycles(events) as f64 / (events.len() as u64 * cycles) as f64,
        lsq_avf: occupancy as f64 / (entries as u64 * cycles) as f64,
        cycles,
    }
}

/// Register-cycles ACE counts vulnerable over per-preg access `events`:
/// per register, each interval from a write to the last read before the
/// next write. Both ends start at cycle 0, and intervals still open at
/// the end of the run close there.
fn rf_ace_cycles(events: &[Vec<RfAccess>]) -> u64 {
    let mut acc = 0;
    for ev in events {
        let (mut def, mut last_read) = (0, 0);
        for e in ev {
            if e.write {
                acc += last_read - def;
                def = e.cycle;
            }
            last_read = e.cycle;
        }
        acc += last_read - def;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avf::avf_campaign;
    use crate::prune::InjectionPlan;
    use vulnstack_core::RunOpts;
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

    #[test]
    fn register_lifetimes_run_from_each_write_to_the_last_read_before_the_next() {
        let at = |cycle, write| RfAccess { cycle, write };
        let events = [
            // Read from cycle 0, then a dead write, then 9..=12 live.
            vec![at(4, false), at(7, true), at(9, true), at(12, false)],
            // Same-cycle write and read, a write read twice, still open.
            vec![
                at(3, true),
                at(3, false),
                at(5, true),
                at(6, false),
                at(8, false),
            ],
            // Never accessed.
            vec![],
        ];
        assert_eq!(rf_ace_cycles(&events), (4 + 3) + 3);
    }
}
