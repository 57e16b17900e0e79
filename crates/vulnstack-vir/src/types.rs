//! Identifier and operator types for VIR.

/// A virtual register. VIR is not SSA: a register may be assigned multiple
/// times (loop induction variables are simply re-written).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VReg(pub u32);

impl std::fmt::Display for VReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Index of a basic block inside a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockId(pub u32);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Index of a function inside a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FuncId(pub u32);

/// Index of a global inside a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct GlobalId(pub u32);

/// Index of a stack slot inside a function's frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SlotId(pub u32);

/// An instruction operand: a virtual register or a 32-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Value of a virtual register.
    Reg(VReg),
    /// Immediate constant (32-bit semantics).
    Imm(i32),
}

impl From<VReg> for Operand {
    fn from(r: VReg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v)
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Binary integer operations (32-bit semantics; results sign-extended).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 32 bits).
    Mul,
    /// High 32 bits of the signed 64-bit product.
    MulHS,
    /// High 32 bits of the unsigned 64-bit product.
    MulHU,
    /// Signed division. `i32::MIN / -1` wraps to `i32::MIN`.
    DivS,
    /// Unsigned division.
    DivU,
    /// Signed remainder. `i32::MIN % -1` is `0`.
    RemS,
    /// Unsigned remainder.
    RemU,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Left shift (count masked to 5 bits).
    Shl,
    /// Logical right shift (count masked to 5 bits).
    ShrL,
    /// Arithmetic right shift (count masked to 5 bits).
    ShrA,
}

impl BinOp {
    /// True if the operation traps on a zero right-hand side.
    pub fn traps_on_zero(self) -> bool {
        matches!(self, BinOp::DivS | BinOp::DivU | BinOp::RemS | BinOp::RemU)
    }

    /// Lowercase mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::MulHS => "mulhs",
            BinOp::MulHU => "mulhu",
            BinOp::DivS => "divs",
            BinOp::DivU => "divu",
            BinOp::RemS => "rems",
            BinOp::RemU => "remu",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::ShrL => "shrl",
            BinOp::ShrA => "shra",
        }
    }

    /// Evaluates the operation with 32-bit semantics.
    ///
    /// Returns `None` for division/remainder by zero (the caller raises a
    /// divide-by-zero trap).
    pub fn eval(self, a: i32, b: i32) -> Option<i32> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::MulHS => ((a as i64).wrapping_mul(b as i64) >> 32) as i32,
            BinOp::MulHU => (((a as u32 as u64).wrapping_mul(b as u32 as u64)) >> 32) as i32,
            BinOp::DivS => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            BinOp::DivU => {
                if b == 0 {
                    return None;
                }
                ((a as u32) / (b as u32)) as i32
            }
            BinOp::RemS => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            BinOp::RemU => {
                if b == 0 {
                    return None;
                }
                ((a as u32) % (b as u32)) as i32
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 31),
            BinOp::ShrL => ((a as u32) >> (b as u32 & 31)) as i32,
            BinOp::ShrA => a.wrapping_shr(b as u32 & 31),
        })
    }
}

/// Comparison predicates; result is 1 or 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    SLt,
    /// Signed less-or-equal.
    SLe,
    /// Signed greater-than.
    SGt,
    /// Signed greater-or-equal.
    SGe,
    /// Unsigned less-than.
    ULt,
    /// Unsigned less-or-equal.
    ULe,
    /// Unsigned greater-than.
    UGt,
    /// Unsigned greater-or-equal.
    UGe,
}

impl CmpPred {
    /// Evaluates the predicate on 32-bit values.
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::SLt => a < b,
            CmpPred::SLe => a <= b,
            CmpPred::SGt => a > b,
            CmpPred::SGe => a >= b,
            CmpPred::ULt => (a as u32) < (b as u32),
            CmpPred::ULe => (a as u32) <= (b as u32),
            CmpPred::UGt => (a as u32) > (b as u32),
            CmpPred::UGe => (a as u32) >= (b as u32),
        }
    }

    /// Lowercase mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::SLt => "slt",
            CmpPred::SLe => "sle",
            CmpPred::SGt => "sgt",
            CmpPred::SGe => "sge",
            CmpPred::ULt => "ult",
            CmpPred::ULe => "ule",
            CmpPred::UGt => "ugt",
            CmpPred::UGe => "uge",
        }
    }
}

/// Memory access widths for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// Signed byte.
    B,
    /// Unsigned byte.
    BU,
    /// Signed halfword.
    H,
    /// Unsigned halfword.
    HU,
    /// 32-bit word.
    W,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B | MemWidth::BU => 1,
            MemWidth::H | MemWidth::HU => 2,
            MemWidth::W => 4,
        }
    }

    /// True if loads of this width sign-extend.
    pub fn signed(self) -> bool {
        matches!(self, MemWidth::B | MemWidth::H | MemWidth::W)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_arithmetic() {
        assert_eq!(BinOp::Add.eval(i32::MAX, 1), Some(i32::MIN));
        assert_eq!(BinOp::Sub.eval(0, i32::MIN), Some(i32::MIN));
        assert_eq!(BinOp::Mul.eval(0x10000, 0x10000), Some(0));
        assert_eq!(BinOp::MulHS.eval(0x10000, 0x10000), Some(1));
        assert_eq!(BinOp::MulHS.eval(-1, 1), Some(-1));
        assert_eq!(BinOp::MulHU.eval(-1, 2), Some(1));
        assert_eq!(BinOp::DivS.eval(7, -2), Some(-3));
        assert_eq!(BinOp::DivS.eval(i32::MIN, -1), Some(i32::MIN));
        assert_eq!(BinOp::RemS.eval(i32::MIN, -1), Some(0));
        assert_eq!(BinOp::DivU.eval(-2, 3), Some(((u32::MAX - 1) / 3) as i32));
        assert_eq!(BinOp::DivS.eval(1, 0), None);
        assert_eq!(BinOp::RemU.eval(1, 0), None);
    }

    #[test]
    fn binop_shifts_mask_count() {
        assert_eq!(BinOp::Shl.eval(1, 33), Some(2));
        assert_eq!(BinOp::ShrL.eval(-1, 28), Some(0xf));
        assert_eq!(BinOp::ShrA.eval(-16, 2), Some(-4));
    }

    #[test]
    fn cmp_signed_vs_unsigned() {
        assert!(CmpPred::SLt.eval(-1, 0));
        assert!(!CmpPred::ULt.eval(-1, 0));
        assert!(CmpPred::UGt.eval(-1, 0));
        assert!(CmpPred::Eq.eval(5, 5));
        assert!(CmpPred::Ne.eval(5, 6));
        assert!(CmpPred::SGe.eval(5, 5));
        assert!(CmpPred::ULe.eval(5, 5));
    }

    #[test]
    fn memwidth_properties() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::HU.bytes(), 2);
        assert_eq!(MemWidth::W.bytes(), 4);
        assert!(MemWidth::H.signed());
        assert!(!MemWidth::BU.signed());
    }

    #[test]
    fn operand_conversions() {
        let r: Operand = VReg(3).into();
        assert_eq!(r, Operand::Reg(VReg(3)));
        let i: Operand = 7i32.into();
        assert_eq!(i, Operand::Imm(7));
    }
}
