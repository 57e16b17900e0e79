//! Pure instruction semantics shared by the functional and out-of-order
//! cores, so the two engines cannot diverge.

use std::sync::Arc;

use vulnstack_isa::encode::DecodeError;
use vulnstack_isa::{DecodedText, Instr, Isa, Op, TrapCause};

/// A core's handle on its image's [`DecodedText`], shared by `Arc`, so a
/// checkpoint or a restore copies one pointer.
///
/// Every lookup checks the word it is given, so a core behaves the same
/// whichever table it holds: the table is a cache, not state. `==` holds
/// any two handles equal, and
/// [`OooCore::converged_with`](crate::OooCore::converged_with) never
/// reads them.
#[derive(Debug, Clone)]
pub(crate) struct SharedText(Arc<DecodedText>);

impl SharedText {
    pub(crate) fn new(text: &Arc<DecodedText>) -> SharedText {
        SharedText(Arc::clone(text))
    }

    /// [`Instr::decode`] of the word fetched at `pc` (see
    /// [`DecodedText::decode`]).
    #[inline]
    pub(crate) fn decode(&self, pc: u64, word: u32) -> Result<Instr, DecodeError> {
        self.0.decode(pc, word)
    }
}

impl PartialEq for SharedText {
    fn eq(&self, _: &SharedText) -> bool {
        true
    }
}

impl Eq for SharedText {}

/// Truncates `v` to the ISA's register width (VA32 keeps the low 32 bits
/// zero-extended in the `u64` storage cell).
pub fn trunc(isa: Isa, v: u64) -> u64 {
    match isa {
        Isa::Va32 => v & 0xffff_ffff,
        Isa::Va64 => v,
    }
}

fn sext32(v: u32) -> u64 {
    v as i32 as i64 as u64
}

/// Computes the result of an ALU-class instruction (R, I, and M formats).
///
/// `rs1`/`rs2` are the source register values, `rd_old` the previous value
/// of the destination (needed by `MOVK`).
///
/// # Errors
///
/// Returns [`TrapCause::DivideByZero`] for zero divisors.
pub fn alu(i: &Instr, rs1: u64, rs2: u64, rd_old: u64, isa: Isa) -> Result<u64, TrapCause> {
    use Op::*;
    let imm = i.imm;
    let v32 = |x: u64| x as u32;
    let r = match i.op {
        Add => rs1.wrapping_add(rs2),
        Sub => rs1.wrapping_sub(rs2),
        And => rs1 & rs2,
        Or => rs1 | rs2,
        Xor => rs1 ^ rs2,
        Sll => match isa {
            Isa::Va32 => ((v32(rs1)) << (rs2 & 31)) as u64,
            Isa::Va64 => rs1 << (rs2 & 63),
        },
        Srl => match isa {
            Isa::Va32 => (v32(rs1) >> (rs2 & 31)) as u64,
            Isa::Va64 => rs1 >> (rs2 & 63),
        },
        Sra => match isa {
            Isa::Va32 => ((v32(rs1) as i32) >> (rs2 & 31)) as u32 as u64,
            Isa::Va64 => ((rs1 as i64) >> (rs2 & 63)) as u64,
        },
        Mul => rs1.wrapping_mul(rs2),
        Mulh => match isa {
            Isa::Va32 => (((v32(rs1) as i32 as i64) * (v32(rs2) as i32 as i64)) >> 32) as u64,
            Isa::Va64 => (((rs1 as i64 as i128) * (rs2 as i64 as i128)) >> 64) as u64,
        },
        Mulhu => match isa {
            Isa::Va32 => ((v32(rs1) as u64) * (v32(rs2) as u64)) >> 32,
            Isa::Va64 => (((rs1 as u128) * (rs2 as u128)) >> 64) as u64,
        },
        Div => match isa {
            Isa::Va32 => {
                let (a, b) = (v32(rs1) as i32, v32(rs2) as i32);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                a.wrapping_div(b) as u32 as u64
            }
            Isa::Va64 => {
                let (a, b) = (rs1 as i64, rs2 as i64);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                a.wrapping_div(b) as u64
            }
        },
        Divu => match isa {
            Isa::Va32 => {
                let (a, b) = (v32(rs1), v32(rs2));
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                (a / b) as u64
            }
            Isa::Va64 => {
                if rs2 == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                rs1 / rs2
            }
        },
        Rem => match isa {
            Isa::Va32 => {
                let (a, b) = (v32(rs1) as i32, v32(rs2) as i32);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                a.wrapping_rem(b) as u32 as u64
            }
            Isa::Va64 => {
                let (a, b) = (rs1 as i64, rs2 as i64);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                a.wrapping_rem(b) as u64
            }
        },
        Remu => match isa {
            Isa::Va32 => {
                let (a, b) = (v32(rs1), v32(rs2));
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                (a % b) as u64
            }
            Isa::Va64 => {
                if rs2 == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                rs1 % rs2
            }
        },
        Slt => match isa {
            Isa::Va32 => ((v32(rs1) as i32) < (v32(rs2) as i32)) as u64,
            Isa::Va64 => ((rs1 as i64) < (rs2 as i64)) as u64,
        },
        Sltu => match isa {
            Isa::Va32 => (v32(rs1) < v32(rs2)) as u64,
            Isa::Va64 => (rs1 < rs2) as u64,
        },
        Addi => rs1.wrapping_add(imm as u64),
        Andi => rs1 & (imm as u64),
        Ori => rs1 | (imm as u64),
        Xori => rs1 ^ (imm as u64),
        Slli => match isa {
            Isa::Va32 => ((v32(rs1)) << (imm as u32 & 31)) as u64,
            Isa::Va64 => rs1 << (imm as u32 & 63),
        },
        Srli => match isa {
            Isa::Va32 => (v32(rs1) >> (imm as u32 & 31)) as u64,
            Isa::Va64 => rs1 >> (imm as u32 & 63),
        },
        Srai => match isa {
            Isa::Va32 => ((v32(rs1) as i32) >> (imm as u32 & 31)) as u32 as u64,
            Isa::Va64 => ((rs1 as i64) >> (imm as u32 & 63)) as u64,
        },
        Slti => match isa {
            Isa::Va32 => ((v32(rs1) as i32) < imm as i32) as u64,
            Isa::Va64 => ((rs1 as i64) < imm) as u64,
        },
        Sltiu => match isa {
            Isa::Va32 => (v32(rs1) < imm as i32 as u32) as u64,
            Isa::Va64 => (rs1 < imm as u64) as u64,
        },
        Movz => (imm as u64 & 0xffff) << (16 * i.shift as u32),
        Movk => {
            let s = 16 * i.shift as u32;
            (rd_old & !(0xffffu64 << s)) | ((imm as u64 & 0xffff) << s)
        }

        // VA64 32-bit forms: operate on the low word, sign-extend.
        Addw => sext32(v32(rs1).wrapping_add(v32(rs2))),
        Subw => sext32(v32(rs1).wrapping_sub(v32(rs2))),
        Mulw => sext32(v32(rs1).wrapping_mul(v32(rs2))),
        Divw => {
            let (a, b) = (v32(rs1) as i32, v32(rs2) as i32);
            if b == 0 {
                return Err(TrapCause::DivideByZero);
            }
            sext32(a.wrapping_div(b) as u32)
        }
        Divuw => {
            let (a, b) = (v32(rs1), v32(rs2));
            if b == 0 {
                return Err(TrapCause::DivideByZero);
            }
            sext32(a / b)
        }
        Remw => {
            let (a, b) = (v32(rs1) as i32, v32(rs2) as i32);
            if b == 0 {
                return Err(TrapCause::DivideByZero);
            }
            sext32(a.wrapping_rem(b) as u32)
        }
        Remuw => {
            let (a, b) = (v32(rs1), v32(rs2));
            if b == 0 {
                return Err(TrapCause::DivideByZero);
            }
            sext32(a % b)
        }
        Sllw => sext32(v32(rs1) << (rs2 & 31)),
        Srlw => sext32(v32(rs1) >> (rs2 & 31)),
        Sraw => sext32(((v32(rs1) as i32) >> (rs2 & 31)) as u32),
        Addiw => sext32(v32(rs1).wrapping_add(imm as u32)),
        Slliw => sext32(v32(rs1) << (imm as u32 & 31)),
        Srliw => sext32(v32(rs1) >> (imm as u32 & 31)),
        Sraiw => sext32(((v32(rs1) as i32) >> (imm as u32 & 31)) as u32),

        other => unreachable!("alu() called with non-ALU op {other:?}"),
    };
    Ok(trunc(isa, r))
}

/// Evaluates a conditional branch.
pub fn branch_taken(op: Op, rs1: u64, rs2: u64, isa: Isa) -> bool {
    let (a, b) = (trunc(isa, rs1), trunc(isa, rs2));
    match (op, isa) {
        (Op::Beq, _) => a == b,
        (Op::Bne, _) => a != b,
        (Op::Blt, Isa::Va32) => (a as u32 as i32) < (b as u32 as i32),
        (Op::Blt, Isa::Va64) => (a as i64) < (b as i64),
        (Op::Bge, Isa::Va32) => (a as u32 as i32) >= (b as u32 as i32),
        (Op::Bge, Isa::Va64) => (a as i64) >= (b as i64),
        (Op::Bltu, _) => a < b,
        (Op::Bgeu, _) => a >= b,
        _ => unreachable!("branch_taken() called with non-branch {op:?}"),
    }
}

/// Extends loaded bytes to a register value per the load op and ISA.
pub fn load_extend(op: Op, raw: u64, isa: Isa) -> u64 {
    let v = match op {
        Op::Lb => raw as u8 as i8 as i64 as u64,
        Op::Lbu => raw as u8 as u64,
        Op::Lh => raw as u16 as i16 as i64 as u64,
        Op::Lhu => raw as u16 as u64,
        Op::Lw => match isa {
            Isa::Va32 => raw as u32 as u64,
            Isa::Va64 => raw as u32 as i32 as i64 as u64,
        },
        Op::Lwu => raw as u32 as u64,
        Op::Ld => raw,
        _ => unreachable!("load_extend() with non-load {op:?}"),
    };
    trunc(isa, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_isa::{Instr, Reg};

    fn alu_rr(op: Op, a: u64, b: u64, isa: Isa) -> u64 {
        alu(&Instr::alu_rr(op, Reg(1), Reg(2), Reg(3)), a, b, 0, isa).unwrap()
    }

    #[test]
    fn add_truncates_on_va32() {
        assert_eq!(alu_rr(Op::Add, 0xffff_ffff, 1, Isa::Va32), 0);
        assert_eq!(alu_rr(Op::Add, 0xffff_ffff, 1, Isa::Va64), 0x1_0000_0000);
    }

    #[test]
    fn w_forms_sign_extend() {
        assert_eq!(
            alu_rr(Op::Addw, 0x7fff_ffff, 1, Isa::Va64),
            0xffff_ffff_8000_0000
        );
        assert_eq!(alu_rr(Op::Subw, 0, 1, Isa::Va64), u64::MAX);
        assert_eq!(alu_rr(Op::Sllw, 1, 31, Isa::Va64), 0xffff_ffff_8000_0000);
        assert_eq!(alu_rr(Op::Srlw, 0xffff_ffff_8000_0000, 31, Isa::Va64), 1);
        assert_eq!(
            alu_rr(Op::Sraw, 0xffff_ffff_8000_0000, 31, Isa::Va64),
            u64::MAX
        );
    }

    #[test]
    fn division_semantics() {
        assert!(matches!(
            alu(
                &Instr::alu_rr(Op::Div, Reg(1), Reg(2), Reg(3)),
                5,
                0,
                0,
                Isa::Va32
            ),
            Err(TrapCause::DivideByZero)
        ));
        // i32::MIN / -1 wraps.
        assert_eq!(
            alu_rr(Op::Divw, 0xffff_ffff_8000_0000, u64::MAX, Isa::Va64),
            0xffff_ffff_8000_0000
        );
        assert_eq!(
            alu_rr(Op::Remw, 0xffff_ffff_8000_0000, u64::MAX, Isa::Va64),
            0
        );
        assert_eq!(
            alu_rr(Op::Div, 0x8000_0000, 0xffff_ffff, Isa::Va32),
            0x8000_0000
        );
    }

    #[test]
    fn mulh_variants() {
        assert_eq!(alu_rr(Op::Mulh, 0x10000, 0x10000, Isa::Va32), 1);
        assert_eq!(alu_rr(Op::Mulh, 0xffff_ffff, 1, Isa::Va32), 0xffff_ffff); // -1 * 1 -> high = -1
        assert_eq!(alu_rr(Op::Mulhu, 0xffff_ffff, 2, Isa::Va32), 1);
    }

    #[test]
    fn movz_movk() {
        let mz = Instr::mov_wide(Op::Movz, Reg(1), 0xBEEF, 1);
        assert_eq!(alu(&mz, 0, 0, 0, Isa::Va64).unwrap(), 0xBEEF_0000);
        let mk = Instr::mov_wide(Op::Movk, Reg(1), 0x1234, 0);
        assert_eq!(alu(&mk, 0, 0, 0xBEEF_0000, Isa::Va64).unwrap(), 0xBEEF_1234);
        // On VA32 a shift of 2 lands entirely above bit 31 -> zero.
        let mz32 = Instr::mov_wide(Op::Movz, Reg(1), 0xBEEF, 2);
        assert_eq!(alu(&mz32, 0, 0, 0, Isa::Va32).unwrap(), 0);
    }

    #[test]
    fn branches_respect_width() {
        assert!(branch_taken(Op::Blt, 0xffff_ffff, 0, Isa::Va32)); // -1 < 0 in 32-bit
        assert!(!branch_taken(Op::Bltu, 0xffff_ffff, 0, Isa::Va32));
        assert!(branch_taken(Op::Blt, u64::MAX, 0, Isa::Va64));
        assert!(branch_taken(Op::Beq, 5, 5, Isa::Va64));
        assert!(branch_taken(Op::Bgeu, 7, 7, Isa::Va32));
    }

    #[test]
    fn load_extension() {
        assert_eq!(load_extend(Op::Lb, 0x80, Isa::Va64), 0xffff_ffff_ffff_ff80);
        assert_eq!(load_extend(Op::Lbu, 0x80, Isa::Va64), 0x80);
        assert_eq!(load_extend(Op::Lh, 0x8000, Isa::Va32), 0xffff_8000);
        assert_eq!(
            load_extend(Op::Lw, 0x8000_0000, Isa::Va64),
            0xffff_ffff_8000_0000
        );
        assert_eq!(load_extend(Op::Lw, 0x8000_0000, Isa::Va32), 0x8000_0000);
        assert_eq!(load_extend(Op::Lwu, 0x8000_0000, Isa::Va64), 0x8000_0000);
    }

    #[test]
    fn sltiu_uses_sign_extended_immediate() {
        let i = Instr::alu_imm(Op::Sltiu, Reg(1), Reg(2), -1);
        // rs1 < 0xFFFF_FFFF (va32): true for anything but u32::MAX.
        assert_eq!(alu(&i, 5, 0, 0, Isa::Va32).unwrap(), 1);
        assert_eq!(alu(&i, 0xffff_ffff, 0, 0, Isa::Va32).unwrap(), 0);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use vulnstack_isa::{Instr, Op, Reg};

    fn rr(op: Op, a: u64, b: u64, isa: Isa) -> u64 {
        alu(&Instr::alu_rr(op, Reg(1), Reg(2), Reg(3)), a, b, 0, isa).unwrap()
    }

    #[test]
    fn full_width_shifts_on_va64() {
        assert_eq!(rr(Op::Sll, 1, 63, Isa::Va64), 1u64 << 63);
        assert_eq!(rr(Op::Srl, 1u64 << 63, 63, Isa::Va64), 1);
        assert_eq!(rr(Op::Sra, 1u64 << 63, 63, Isa::Va64), u64::MAX);
        // Counts wrap at the register width.
        assert_eq!(rr(Op::Sll, 1, 64, Isa::Va64), 1);
        assert_eq!(rr(Op::Sll, 1, 32, Isa::Va32), 1);
    }

    #[test]
    fn mulh_64bit_paths() {
        // (2^32)^2 >> 64 = 1 via the unsigned path.
        assert_eq!(rr(Op::Mulhu, 1u64 << 32, 1u64 << 32, Isa::Va64), 1);
        // Signed: (-1) * 1 -> high word all ones.
        assert_eq!(rr(Op::Mulh, u64::MAX, 1, Isa::Va64), u64::MAX);
    }

    #[test]
    fn movk_preserves_other_fields_on_va32() {
        let mk = Instr::mov_wide(Op::Movk, Reg(1), 0xAAAA, 1);
        let out = alu(&mk, 0, 0, 0x1234_5678, Isa::Va32).unwrap();
        assert_eq!(out, 0xAAAA_5678);
        // A shift landing above bit 31 erases nothing visible on VA32.
        let mk_hi = Instr::mov_wide(Op::Movk, Reg(1), 0xBBBB, 2);
        let out = alu(&mk_hi, 0, 0, 0x1234_5678, Isa::Va32).unwrap();
        assert_eq!(out, 0x1234_5678);
    }

    #[test]
    fn slti_signed_comparison_edges() {
        let i = Instr::alu_imm(Op::Slti, Reg(1), Reg(2), -1);
        // -2 < -1 in 32-bit signed.
        assert_eq!(alu(&i, 0xffff_fffe, 0, 0, Isa::Va32).unwrap(), 1);
        assert_eq!(alu(&i, 0, 0, 0, Isa::Va32).unwrap(), 0);
        // 64-bit: sign-extended -2.
        assert_eq!(alu(&i, u64::MAX - 1, 0, 0, Isa::Va64).unwrap(), 1);
    }

    #[test]
    fn divuw_zero_extends_operands() {
        // 0xFFFF_FFFF as unsigned 32-bit over 2.
        let i = Instr::alu_rr(Op::Divuw, Reg(1), Reg(2), Reg(3));
        let out = alu(&i, 0xffff_ffff_ffff_ffff, 2, 0, Isa::Va64).unwrap();
        assert_eq!(out, 0x7fff_ffff);
    }
}
