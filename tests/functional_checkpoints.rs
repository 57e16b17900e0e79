//! The functional layers' checkpoint contract: a PVF injection that
//! resumes from a golden `FuncCore` snapshot, and an SVF injection that
//! resumes from a golden interpreter snapshot, must be indistinguishable
//! from the same injection run from the first instruction — identical
//! core state field by field, identical outcomes, on both ISAs, plain and
//! hardened, under every software fault model, and at the positions
//! where an off-by-one in restore would first show (0, interval−1,
//! interval, interval+1, the last instruction).

use vulnstack_gefin::pvf::{run_indexed, run_indexed_from};
use vulnstack_gefin::{FuncPrepared, PvfMode};
use vulnstack_isa::fields::bits_of_class;
use vulnstack_isa::{BitClass, FaultModel, Isa, Reg};
use vulnstack_llfi::SvfGolden;
use vulnstack_microarch::{FuncCore, SimOutcome};
use vulnstack_vir::interp::{Interpreter, SwFault};
use vulnstack_vir::Module;
use vulnstack_workloads::{Workload, WorkloadId};

const WORKLOADS: [WorkloadId; 3] = [WorkloadId::Crc32, WorkloadId::Qsort, WorkloadId::Rijndael];

/// The positions a restore must get exactly right for a run of `last + 1`
/// positions recorded every `interval`.
fn boundary_targets(interval: u64, last: u64) -> Vec<u64> {
    [0, interval - 1, interval, interval + 1, last]
        .into_iter()
        .map(|t| t.min(last))
        .collect()
}

fn prepared() -> Vec<(Workload, FuncPrepared)> {
    let mut out = Vec::new();
    for id in WORKLOADS {
        for isa in [Isa::Va32, Isa::Va64] {
            let w = id.build();
            let prep = FuncPrepared::new(&w, isa).unwrap();
            assert!(
                prep.checkpoints.len() > 2,
                "{id}/{isa}: golden run must checkpoint"
            );
            out.push((w, prep));
        }
    }
    out
}

/// Steps `core` until it has executed `k` instructions or ended.
fn step_to(mut core: FuncCore, k: u64) -> FuncCore {
    while core.icount() < k && core.step() {}
    core
}

#[test]
fn restored_func_core_equals_scratch_field_by_field() {
    for (w, prep) in prepared() {
        let (id, isa) = (w.id, prep.isa);
        for k in boundary_targets(prep.checkpoints.interval(), prep.golden.instrs - 1) {
            let restored = prep.checkpoints.restore(k);
            assert!(restored.icount() <= k);
            let restored = step_to(restored, k);
            let scratch = step_to(FuncCore::new(&prep.image), k);
            assert_eq!(restored.icount(), k);
            assert_eq!(restored, scratch, "{id}/{isa}: diverged at instruction {k}");
        }
    }
}

#[test]
fn every_pvf_site_resumes_exactly() {
    for (w, prep) in prepared() {
        for mode in PvfMode::ALL {
            for i in 0..8 {
                let restored = run_indexed(&prep, mode, 2021, i);
                let scratch =
                    run_indexed_from(&prep, mode, 2021, i, |_| FuncCore::new(&prep.image));
                assert_eq!(
                    restored, scratch,
                    "{}/{}/{mode}: site {i} differs",
                    w.id, prep.isa
                );
            }
        }
    }
}

/// The outcome of a PVF fault placed at dynamic instruction `k`, started
/// from `start`: a WD register and memory flip, and a WOI and a WI flip
/// of the encoding about to execute.
fn pvf_outcomes(prep: &FuncPrepared, k: u64, start: impl Fn() -> FuncCore) -> Vec<SimOutcome> {
    let mut out = Vec::new();
    let mut core = step_to(start(), k);
    core.inject_reg(Reg((k % 8) as u8 + 1), (k % 31) as u8, FaultModel::BitFlip);
    out.push(core.run(prep.budget));
    let addr = prep.profile.touched_bytes[k as usize % prep.profile.touched_bytes.len()];
    let mut core = step_to(start(), k);
    core.poke_bit(addr, (k % 8) as u8);
    out.push(core.run(prep.budget));
    for class in [BitClass::Operand, BitClass::Instruction] {
        let mut core = step_to(start(), k);
        if !core.ended() {
            let pc = core.pc() as u32;
            if let Some(&bit) = bits_of_class(core.peek(pc, 4) as u32, class).first() {
                core.poke_bit(pc + bit / 8, (bit % 8) as u8);
            }
        }
        out.push(step_to(core, prep.budget).into_outcome());
    }
    out
}

#[test]
fn pvf_faults_at_checkpoint_boundaries_resume_exactly() {
    for (w, prep) in prepared() {
        for k in boundary_targets(prep.checkpoints.interval(), prep.golden.instrs - 1) {
            let restored = pvf_outcomes(&prep, k, || prep.checkpoints.restore(k));
            let scratch = pvf_outcomes(&prep, k, || FuncCore::new(&prep.image));
            assert_eq!(
                restored, scratch,
                "{}/{}: faults at instruction {k} differ",
                w.id, prep.isa
            );
        }
    }
}

/// Runs every fault in `faults` on `module` both ways and requires equal
/// outcomes.
fn svf_resumes_exactly(
    label: &str,
    module: &Module,
    input: &[u8],
    golden: &SvfGolden,
    faults: &[SwFault],
) {
    for &fault in faults {
        let restored = vulnstack_llfi::faulty_run(module, input, golden, fault);
        let scratch = Interpreter::new(module)
            .with_input(input)
            .with_budget(golden.budget)
            .with_fault(fault)
            .run()
            .unwrap();
        assert_eq!(restored, scratch, "{label}: {fault:?}");
    }
}

#[test]
fn svf_injections_resume_exactly_plain_and_hardened() {
    for id in WORKLOADS {
        let w = id.build();
        let hardened = vulnstack_ft::harden(&w.module).unwrap();
        for (label, module) in [("plain", &w.module), ("hardened", &hardened)] {
            let golden = vulnstack_llfi::golden_run(module, &w.input);
            assert!(
                golden.checkpoints.len() > 2,
                "{id} {label}: must checkpoint"
            );
            let mut faults = Vec::new();
            for (j, t) in boundary_targets(golden.checkpoints.interval(), golden.injectable - 1)
                .into_iter()
                .enumerate()
            {
                for (m, model) in FaultModel::ALL.into_iter().enumerate() {
                    faults.push(SwFault {
                        target: t,
                        bit: (7 * j + 9 * m) as u8 % 32,
                        model,
                    });
                }
            }
            // A sample of the campaign's own sites, each under every model.
            for f in vulnstack_llfi::draw_faults(&golden, 6, 2021) {
                faults.extend(FaultModel::ALL.map(|model| SwFault { model, ..f }));
            }
            let label = format!("{id} {label}");
            svf_resumes_exactly(&label, module, &w.input, &golden, &faults);
        }
    }
}
