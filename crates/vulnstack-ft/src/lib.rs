//! # vulnstack-ft
//!
//! Software-based fault tolerance as an IR pass, reproducing the family of
//! techniques the paper's case study uses (its reference \[35\]: a
//! combination of AN-encoding-style information redundancy and duplicated
//! instructions à la EDDI/SWIFT):
//!
//! * every value-producing computation is **duplicated** into a shadow
//!   virtual register (loads re-read memory through a shadow address);
//! * before every *externalisation point* — store, conditional branch,
//!   call/syscall argument, return — the original and shadow are compared
//!   and any mismatch routes to `detect()`, which terminates the program
//!   with a Detected outcome (recoverable by re-execution, so the paper
//!   excludes detected faults from the vulnerability).
//!
//! The pass roughly doubles the dynamic instruction count (the paper
//! reports 2.1×–2.5× runtime for its case-study benchmarks), which is
//! exactly the mechanism behind the paper's headline finding: PVF/SVF
//! drop sharply while the longer residency *increases* the true
//! cross-layer AVF.
//!
//! # Example
//!
//! ```
//! use vulnstack_ft::harden;
//! use vulnstack_workloads::WorkloadId;
//!
//! let w = WorkloadId::Crc32.build();
//! let hardened = harden(&w.module).unwrap();
//! assert!(hardened.num_instrs() > w.module.num_instrs() * 2);
//! ```

use vulnstack_vir::verify::{verify_module, VerifyError};
use vulnstack_vir::{Block, BlockId, CmpPred, Function, Module, Operand, VInstr, VReg};

/// Detection exit code used by inserted checks.
pub const DETECT_CODE: i32 = 0x5D;

/// Hardens every function of `module` with duplication + detection
/// checks.
///
/// # Errors
///
/// Returns a [`VerifyError`] if the transformed module fails verification
/// (which would indicate a bug in the pass).
pub fn harden(module: &Module) -> Result<Module, VerifyError> {
    let mut out = module.clone();
    for f in &mut out.functions {
        harden_function(f);
    }
    verify_module(&out)?;
    Ok(out)
}

/// Shadow register for `v` in a function that originally had `n` vregs.
fn shadow(v: VReg, n: u32) -> VReg {
    VReg(v.0 + n)
}

fn shadow_op(o: &Operand, n: u32) -> Operand {
    match o {
        Operand::Reg(r) => Operand::Reg(shadow(*r, n)),
        Operand::Imm(v) => Operand::Imm(*v),
    }
}

/// A block under construction, split into segments at each inserted
/// check (a check's `CondBr` must terminate its block).
struct Splitter {
    segments: Vec<Vec<VInstr>>,
    cur: Vec<VInstr>,
    n: u32,
    detect_bb: BlockId,
    next_vreg: u32,
}

impl Splitter {
    /// Re-seeds a shadow from its original (`shadow = v + 0`).
    fn reseed(out: &mut Vec<VInstr>, v: VReg, n: u32) {
        out.push(VInstr::Bin {
            dst: shadow(v, n),
            op: vulnstack_vir::BinOp::Add,
            a: Operand::Reg(v),
            b: Operand::Imm(0),
        });
    }

    /// Emits `if (o != shadow(o)) goto detect`, splitting the segment.
    fn check(&mut self, o: &Operand) {
        let Operand::Reg(r) = o else { return };
        let c = VReg(self.next_vreg);
        self.next_vreg += 1;
        self.cur.push(VInstr::Cmp {
            dst: c,
            pred: CmpPred::Ne,
            a: Operand::Reg(*r),
            b: Operand::Reg(shadow(*r, self.n)),
        });
        // The else target (the next segment) is patched afterwards.
        self.cur.push(VInstr::CondBr {
            cond: Operand::Reg(c),
            then_bb: self.detect_bb,
            else_bb: BlockId(u32::MAX),
        });
        let seg = std::mem::take(&mut self.cur);
        self.segments.push(seg);
    }

    fn finish(mut self) -> (Vec<Vec<VInstr>>, u32) {
        self.segments.push(self.cur);
        (self.segments, self.next_vreg)
    }
}

fn harden_function(f: &mut Function) {
    let n = f.num_vregs;
    let nblocks = f.blocks.len();
    let detect_bb = BlockId(nblocks as u32);
    let mut next_vreg = 2 * n;

    let mut replaced: Vec<Vec<VInstr>> = Vec::with_capacity(nblocks);
    let mut appended: Vec<Vec<VInstr>> = Vec::new();

    for (b, block) in f.blocks.iter().enumerate() {
        let mut sp = Splitter {
            segments: Vec::new(),
            cur: Vec::new(),
            n,
            detect_bb,
            next_vreg,
        };
        for ins in &block.instrs {
            match ins {
                VInstr::Const { dst, value } => {
                    sp.cur.push(ins.clone());
                    sp.cur.push(VInstr::Const {
                        dst: shadow(*dst, n),
                        value: *value,
                    });
                }
                VInstr::Bin { dst, op, a, b } => {
                    sp.cur.push(ins.clone());
                    sp.cur.push(VInstr::Bin {
                        dst: shadow(*dst, n),
                        op: *op,
                        a: shadow_op(a, n),
                        b: shadow_op(b, n),
                    });
                }
                VInstr::Cmp { dst, pred, a, b } => {
                    sp.cur.push(ins.clone());
                    sp.cur.push(VInstr::Cmp {
                        dst: shadow(*dst, n),
                        pred: *pred,
                        a: shadow_op(a, n),
                        b: shadow_op(b, n),
                    });
                }
                VInstr::Select { dst, cond, a, b } => {
                    sp.cur.push(ins.clone());
                    sp.cur.push(VInstr::Select {
                        dst: shadow(*dst, n),
                        cond: shadow_op(cond, n),
                        a: shadow_op(a, n),
                        b: shadow_op(b, n),
                    });
                }
                VInstr::Load {
                    dst,
                    width,
                    base,
                    offset,
                } => {
                    sp.cur.push(ins.clone());
                    // Shadow load re-reads memory through the shadow base.
                    sp.cur.push(VInstr::Load {
                        dst: shadow(*dst, n),
                        width: *width,
                        base: shadow_op(base, n),
                        offset: *offset,
                    });
                }
                VInstr::GlobalAddr { dst, global } => {
                    sp.cur.push(ins.clone());
                    sp.cur.push(VInstr::GlobalAddr {
                        dst: shadow(*dst, n),
                        global: *global,
                    });
                }
                VInstr::SlotAddr { dst, slot } => {
                    sp.cur.push(ins.clone());
                    sp.cur.push(VInstr::SlotAddr {
                        dst: shadow(*dst, n),
                        slot: *slot,
                    });
                }
                VInstr::Store {
                    width,
                    value,
                    base,
                    offset,
                } => {
                    sp.check(value);
                    sp.check(base);
                    sp.cur.push(VInstr::Store {
                        width: *width,
                        value: *value,
                        base: *base,
                        offset: *offset,
                    });
                }
                VInstr::Call { dst, func, args } => {
                    for a in args {
                        sp.check(a);
                    }
                    sp.cur.push(VInstr::Call {
                        dst: *dst,
                        func: *func,
                        args: args.clone(),
                    });
                    if let Some(d) = dst {
                        // The call boundary is unprotected (SWIFT-style):
                        // re-seed the shadow from the returned value.
                        Splitter::reseed(&mut sp.cur, *d, n);
                    }
                }
                VInstr::Syscall { dst, sc, args } => {
                    for a in args {
                        sp.check(a);
                    }
                    sp.cur.push(VInstr::Syscall {
                        dst: *dst,
                        sc: *sc,
                        args: args.clone(),
                    });
                    if let Some(d) = dst {
                        Splitter::reseed(&mut sp.cur, *d, n);
                    }
                }
                VInstr::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    sp.check(cond);
                    sp.cur.push(VInstr::CondBr {
                        cond: *cond,
                        then_bb: *then_bb,
                        else_bb: *else_bb,
                    });
                }
                VInstr::Ret { value } => {
                    if let Some(v) = value {
                        sp.check(v);
                    }
                    sp.cur.push(ins.clone());
                }
                VInstr::Br { .. } => {
                    sp.cur.push(ins.clone());
                }
            }
        }
        let (mut segments, nv) = sp.finish();
        next_vreg = nv;

        // Wire the segment chain. Segment 0 replaces block b; the rest are
        // appended after the detect block.
        let mut global_ids: Vec<u32> = Vec::with_capacity(segments.len());
        global_ids.push(b as u32);
        for k in 1..segments.len() {
            global_ids.push((nblocks + 1 + appended.len() + (k - 1)) as u32);
        }
        for (k, seg) in segments.iter_mut().enumerate() {
            if k + 1 < global_ids.len() {
                match seg.last_mut() {
                    Some(VInstr::CondBr { else_bb, .. }) => *else_bb = BlockId(global_ids[k + 1]),
                    other => unreachable!("non-final segment must end in a check: {other:?}"),
                }
            }
        }
        let mut iter = segments.into_iter();
        replaced.push(iter.next().expect("at least one segment"));
        appended.extend(iter);
    }

    // Parameter shadows at function entry.
    let mut entry = Vec::with_capacity(f.num_params as usize);
    for i in 0..f.num_params {
        Splitter::reseed(&mut entry, VReg(i), n);
    }
    entry.extend(std::mem::take(&mut replaced[0]));
    replaced[0] = entry;

    // Assemble: originals, detect block, appended segments.
    let mut new_blocks: Vec<Block> = replaced
        .into_iter()
        .map(|instrs| Block { instrs })
        .collect();
    new_blocks.push(Block {
        instrs: vec![
            VInstr::Syscall {
                dst: None,
                sc: vulnstack_isa::Syscall::Detect,
                args: vec![Operand::Imm(DETECT_CODE)],
            },
            VInstr::Ret { value: None },
        ],
    });
    new_blocks.extend(appended.into_iter().map(|instrs| Block { instrs }));

    f.blocks = new_blocks;
    f.num_vregs = next_vreg;
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_vir::interp::{Interpreter, RunStatus, SwFault, SwFaultModel};
    use vulnstack_workloads::WorkloadId;

    #[test]
    fn hardened_workloads_still_produce_golden_output() {
        for id in [
            WorkloadId::Sha,
            WorkloadId::Smooth,
            WorkloadId::Crc32,
            WorkloadId::Qsort,
        ] {
            let w = id.build();
            let h = harden(&w.module).unwrap_or_else(|e| panic!("{id}: {e}"));
            let out = Interpreter::new(&h)
                .with_input(w.input.clone())
                .run()
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(out.status, RunStatus::Exited(0), "{id}");
            assert_eq!(
                out.output, w.expected_output,
                "{id}: hardened output differs"
            );
        }
    }

    #[test]
    fn hardening_roughly_doubles_dynamic_length() {
        let w = WorkloadId::Sha.build();
        let h = harden(&w.module).unwrap();
        let base = Interpreter::new(&w.module)
            .with_input(w.input.clone())
            .run()
            .unwrap();
        let hard = Interpreter::new(&h)
            .with_input(w.input.clone())
            .run()
            .unwrap();
        let ratio = hard.dyn_instrs as f64 / base.dyn_instrs as f64;
        assert!(
            (1.8..4.5).contains(&ratio),
            "slowdown {ratio:.2} outside the paper's 2x-4x envelope"
        );
    }

    #[test]
    fn faults_in_checked_values_are_detected() {
        // Inject into many dynamic positions of the hardened module; a
        // solid fraction must be caught by the checks.
        let w = WorkloadId::Crc32.build();
        let h = harden(&w.module).unwrap();
        let golden = Interpreter::new(&h)
            .with_input(w.input.clone())
            .run()
            .unwrap();
        assert_eq!(golden.status, RunStatus::Exited(0));
        let mut detected = 0;
        let mut sdc = 0;
        let n = 60u64;
        for i in 0..n {
            let target = (golden.injectable / n) * i;
            let out = Interpreter::new(&h)
                .with_input(w.input.clone())
                .with_budget(golden.dyn_instrs * 8)
                .with_fault(SwFault {
                    target,
                    bit: (i % 31) as u8,
                    model: SwFaultModel::BitFlip,
                })
                .run()
                .unwrap();
            match out.status {
                RunStatus::Detected(code) => {
                    assert_eq!(code, DETECT_CODE);
                    detected += 1;
                }
                RunStatus::Exited(0) if out.output == w.expected_output => {}
                _ => sdc += 1,
            }
        }
        assert!(detected > 0, "no faults detected at all");
        // The scheme targets SDCs: detections should dominate escapes.
        assert!(detected >= sdc, "detected={detected} escaped={sdc}");
    }

    #[test]
    fn hardening_preserves_the_original_module() {
        let w = WorkloadId::Fft.build();
        let before = w.module.num_instrs();
        let _ = harden(&w.module).unwrap();
        assert_eq!(w.module.num_instrs(), before);
    }
}
