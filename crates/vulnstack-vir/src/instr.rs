//! VIR instructions.

use vulnstack_isa::Syscall;

use crate::types::{BinOp, BlockId, CmpPred, FuncId, GlobalId, MemWidth, Operand, SlotId, VReg};

/// Coarse instruction class, used for per-class vulnerability breakdowns
/// (e.g. which kinds of IR instructions produce SDCs under SVF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstrClass {
    /// Constants and address materialisation.
    Value,
    /// Arithmetic/logic/shift operations.
    Arith,
    /// Comparisons and selects.
    Compare,
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// Calls and returns.
    Call,
    /// System calls.
    Syscall,
    /// Control transfer.
    Branch,
}

impl InstrClass {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            InstrClass::Value => "value",
            InstrClass::Arith => "arith",
            InstrClass::Compare => "compare",
            InstrClass::Load => "load",
            InstrClass::Store => "store",
            InstrClass::Call => "call",
            InstrClass::Syscall => "syscall",
            InstrClass::Branch => "branch",
        }
    }
}

impl std::fmt::Display for InstrClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A VIR instruction.
///
/// Instructions either compute a value into a destination register, access
/// memory, or transfer control. Every basic block ends with exactly one
/// terminator ([`VInstr::Br`], [`VInstr::CondBr`] or [`VInstr::Ret`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VInstr {
    /// `dst = value`.
    Const { dst: VReg, value: i32 },
    /// `dst = a <op> b`.
    Bin {
        dst: VReg,
        op: BinOp,
        a: Operand,
        b: Operand,
    },
    /// `dst = (a <pred> b) ? 1 : 0`.
    Cmp {
        dst: VReg,
        pred: CmpPred,
        a: Operand,
        b: Operand,
    },
    /// `dst = cond != 0 ? a : b`.
    Select {
        dst: VReg,
        cond: Operand,
        a: Operand,
        b: Operand,
    },
    /// `dst = mem[base + offset]` with `width` extension.
    Load {
        dst: VReg,
        width: MemWidth,
        base: Operand,
        offset: i32,
    },
    /// `mem[base + offset] = value` (low `width` bytes).
    Store {
        width: MemWidth,
        value: Operand,
        base: Operand,
        offset: i32,
    },
    /// `dst = &global`.
    GlobalAddr { dst: VReg, global: GlobalId },
    /// `dst = &frame_slot`.
    SlotAddr { dst: VReg, slot: SlotId },
    /// Call `func(args...)`; the callee's return value (if any) lands in
    /// `dst`.
    Call {
        dst: Option<VReg>,
        func: FuncId,
        args: Vec<Operand>,
    },
    /// Invoke a kernel service.
    Syscall {
        dst: Option<VReg>,
        sc: Syscall,
        args: Vec<Operand>,
    },
    /// Unconditional jump.
    Br { target: BlockId },
    /// Two-way conditional jump on `cond != 0`.
    CondBr {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Return from the current function.
    Ret { value: Option<Operand> },
}

impl VInstr {
    /// The destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<VReg> {
        match self {
            VInstr::Const { dst, .. }
            | VInstr::Bin { dst, .. }
            | VInstr::Cmp { dst, .. }
            | VInstr::Select { dst, .. }
            | VInstr::Load { dst, .. }
            | VInstr::GlobalAddr { dst, .. }
            | VInstr::SlotAddr { dst, .. } => Some(*dst),
            VInstr::Call { dst, .. } | VInstr::Syscall { dst, .. } => *dst,
            _ => None,
        }
    }

    /// All register operands read by this instruction.
    pub fn uses(&self) -> Vec<VReg> {
        fn reg(o: &Operand, out: &mut Vec<VReg>) {
            if let Operand::Reg(r) = o {
                out.push(*r);
            }
        }
        let mut out = Vec::new();
        match self {
            VInstr::Bin { a, b, .. } | VInstr::Cmp { a, b, .. } => {
                reg(a, &mut out);
                reg(b, &mut out);
            }
            VInstr::Select { cond, a, b, .. } => {
                reg(cond, &mut out);
                reg(a, &mut out);
                reg(b, &mut out);
            }
            VInstr::Load { base, .. } => reg(base, &mut out),
            VInstr::Store { value, base, .. } => {
                reg(value, &mut out);
                reg(base, &mut out);
            }
            VInstr::Call { args, .. } | VInstr::Syscall { args, .. } => {
                for a in args {
                    reg(a, &mut out);
                }
            }
            VInstr::CondBr { cond, .. } => reg(cond, &mut out),
            VInstr::Ret { value: Some(v) } => reg(v, &mut out),
            _ => {}
        }
        out
    }

    /// True if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            VInstr::Br { .. } | VInstr::CondBr { .. } | VInstr::Ret { .. }
        )
    }

    /// True if a software-level (LLFI-style) injector may target this
    /// instruction's destination: every value-producing instruction.
    pub fn is_injectable(&self) -> bool {
        self.dst().is_some()
    }

    /// The coarse class of this instruction.
    pub fn class(&self) -> InstrClass {
        match self {
            VInstr::Const { .. } | VInstr::GlobalAddr { .. } | VInstr::SlotAddr { .. } => {
                InstrClass::Value
            }
            VInstr::Bin { .. } => InstrClass::Arith,
            VInstr::Cmp { .. } | VInstr::Select { .. } => InstrClass::Compare,
            VInstr::Load { .. } => InstrClass::Load,
            VInstr::Store { .. } => InstrClass::Store,
            VInstr::Call { .. } | VInstr::Ret { .. } => InstrClass::Call,
            VInstr::Syscall { .. } => InstrClass::Syscall,
            VInstr::Br { .. } | VInstr::CondBr { .. } => InstrClass::Branch,
        }
    }
}

impl std::fmt::Display for VInstr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VInstr::Const { dst, value } => write!(f, "{dst} = const {value}"),
            VInstr::Bin { dst, op, a, b } => write!(f, "{dst} = {} {a}, {b}", op.mnemonic()),
            VInstr::Cmp { dst, pred, a, b } => {
                write!(f, "{dst} = cmp.{} {a}, {b}", pred.mnemonic())
            }
            VInstr::Select { dst, cond, a, b } => write!(f, "{dst} = select {cond}, {a}, {b}"),
            VInstr::Load {
                dst,
                width,
                base,
                offset,
            } => {
                write!(f, "{dst} = load.{:?} [{base} + {offset}]", width)
            }
            VInstr::Store {
                width,
                value,
                base,
                offset,
            } => {
                write!(f, "store.{:?} {value}, [{base} + {offset}]", width)
            }
            VInstr::GlobalAddr { dst, global } => write!(f, "{dst} = &g{}", global.0),
            VInstr::SlotAddr { dst, slot } => write!(f, "{dst} = &slot{}", slot.0),
            VInstr::Call { dst, func, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "call f{}(", func.0)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            VInstr::Syscall { dst, sc, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "syscall {:?}(", sc)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            VInstr::Br { target } => write!(f, "br {target}"),
            VInstr::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                write!(f, "condbr {cond}, {then_bb}, {else_bb}")
            }
            VInstr::Ret { value } => match value {
                Some(v) => write!(f, "ret {v}"),
                None => write!(f, "ret"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_and_uses() {
        let i = VInstr::Bin {
            dst: VReg(5),
            op: BinOp::Add,
            a: Operand::Reg(VReg(1)),
            b: Operand::Imm(2),
        };
        assert_eq!(i.dst(), Some(VReg(5)));
        assert_eq!(i.uses(), vec![VReg(1)]);
        assert!(i.is_injectable());
        assert!(!i.is_terminator());

        let s = VInstr::Store {
            width: MemWidth::W,
            value: Operand::Reg(VReg(2)),
            base: Operand::Reg(VReg(3)),
            offset: 4,
        };
        assert_eq!(s.dst(), None);
        assert_eq!(s.uses(), vec![VReg(2), VReg(3)]);
        assert!(!s.is_injectable());

        let r = VInstr::Ret {
            value: Some(Operand::Reg(VReg(9))),
        };
        assert!(r.is_terminator());
        assert_eq!(r.uses(), vec![VReg(9)]);
    }

    #[test]
    fn display_is_nonempty() {
        let i = VInstr::Call {
            dst: Some(VReg(1)),
            func: FuncId(2),
            args: vec![Operand::Imm(3)],
        };
        assert_eq!(i.to_string(), "%1 = call f2(3)");
    }
}
