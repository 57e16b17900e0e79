//! Classification of encoding bits for fault-propagation analysis.
//!
//! When a transient fault flips a bit of an *encoded instruction* (in the
//! L1 instruction cache, the unified L2, or the text segment), the paper's
//! fault propagation models classify the manifestation by which field the
//! bit belongs to:
//!
//! * opcode bits, and the offset bits of control-flow instructions, produce
//!   **Wrong Instruction (WI)** effects (a different instruction executes /
//!   control flow diverges);
//! * register-pointer and immediate bits produce **Wrong Operand or
//!   Immediate (WOI)** effects;
//! * ignored bits are architecturally masked.

use crate::op::{Format, Op};

/// What a single bit of an encoded instruction encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitClass {
    /// Opcode bits, or control-transfer target bits: flipping one executes a
    /// different instruction or diverts control flow (WI).
    Instruction,
    /// Register pointer or data immediate bits: flipping one corrupts an
    /// operand (WOI).
    Operand,
    /// Ignored/reserved bits: flips are architecturally masked.
    Ignored,
}

/// Classifies bit `bit` (0 = LSB) of the instruction word `word`.
///
/// The word need not decode successfully: if the opcode byte is invalid the
/// whole word is classified as [`BitClass::Instruction`]-bearing only in its
/// opcode bits, with everything else [`BitClass::Ignored`] (an undefined
/// instruction's operand fields never reach execution).
pub fn classify_bit(word: u32, bit: u32) -> BitClass {
    debug_assert!(bit < 32);
    if bit >= 24 {
        return BitClass::Instruction;
    }
    let code = (word >> 24) as u8;
    let Some(op) = Op::from_code(code) else {
        return BitClass::Ignored;
    };
    match op.format() {
        Format::R => match bit {
            9..=23 => BitClass::Operand,
            _ => BitClass::Ignored,
        },
        Format::I | Format::Load | Format::Store => match bit {
            0..=23 => BitClass::Operand,
            _ => BitClass::Ignored,
        },
        // Branch target bits count as control flow (WI per the paper's
        // merged classification); the register comparison fields are
        // operands.
        Format::B => match bit {
            14..=23 => BitClass::Operand,
            0..=13 => BitClass::Instruction,
            _ => BitClass::Ignored,
        },
        Format::J => BitClass::Instruction,
        Format::Jr => match bit {
            14..=18 => BitClass::Operand,
            _ => BitClass::Ignored,
        },
        Format::M => match bit {
            1..=23 => BitClass::Operand,
            _ => BitClass::Ignored,
        },
        Format::Sys => BitClass::Ignored,
        Format::Mfsr | Format::Mtsr => match bit {
            14..=23 => BitClass::Operand,
            _ => BitClass::Ignored,
        },
    }
}

/// Returns the bit indices of `word` belonging to `class`.
pub fn bits_of_class(word: u32, class: BitClass) -> Vec<u32> {
    (0..32)
        .filter(|&b| classify_bit(word, b) == class)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
    use crate::isa::Isa;
    use crate::reg::Reg;

    #[test]
    fn opcode_bits_are_instruction_class() {
        for bit in 24..32 {
            assert_eq!(classify_bit(0xdead_beef, bit), BitClass::Instruction);
        }
    }

    #[test]
    fn alu_imm_operands() {
        let w = Instr::alu_imm(Op::Addi, Reg(1), Reg(2), 5)
            .encode(Isa::Va64)
            .unwrap();
        assert_eq!(classify_bit(w, 0), BitClass::Operand); // imm LSB
        assert_eq!(classify_bit(w, 20), BitClass::Operand); // rd field
        assert_eq!(classify_bit(w, 25), BitClass::Instruction);
    }

    #[test]
    fn branch_target_bits_are_wi() {
        let w = Instr::branch(Op::Beq, Reg(1), Reg(2), 8)
            .encode(Isa::Va64)
            .unwrap();
        assert_eq!(classify_bit(w, 0), BitClass::Instruction); // offset
        assert_eq!(classify_bit(w, 13), BitClass::Instruction); // offset sign
        assert_eq!(classify_bit(w, 15), BitClass::Operand); // rs2 field
        assert_eq!(classify_bit(w, 20), BitClass::Operand); // rs1 field
    }

    #[test]
    fn jump_offset_is_wi() {
        let w = Instr::jump(Op::Jmp, 1024).encode(Isa::Va64).unwrap();
        for bit in 0..24 {
            assert_eq!(classify_bit(w, bit), BitClass::Instruction);
        }
    }

    #[test]
    fn r_format_low_bits_ignored() {
        let w = Instr::alu_rr(Op::Add, Reg(1), Reg(2), Reg(3))
            .encode(Isa::Va64)
            .unwrap();
        for bit in 0..9 {
            assert_eq!(classify_bit(w, bit), BitClass::Ignored);
        }
        assert_eq!(classify_bit(w, 9), BitClass::Operand);
    }

    #[test]
    fn sys_format_all_ignored_below_opcode() {
        let w = Instr::sys(Op::Syscall).encode(Isa::Va64).unwrap();
        for bit in 0..24 {
            assert_eq!(classify_bit(w, bit), BitClass::Ignored);
        }
    }

    #[test]
    fn invalid_opcode_operands_ignored() {
        let word = 0xFF00_1234; // opcode 0xFF is invalid
        assert_eq!(classify_bit(word, 3), BitClass::Ignored);
        assert_eq!(classify_bit(word, 30), BitClass::Instruction);
    }

    #[test]
    fn bits_of_class_partition() {
        let w = Instr::load(Op::Lw, Reg(1), Reg(2), 16)
            .encode(Isa::Va64)
            .unwrap();
        let n_i = bits_of_class(w, BitClass::Instruction).len();
        let n_o = bits_of_class(w, BitClass::Operand).len();
        let n_x = bits_of_class(w, BitClass::Ignored).len();
        assert_eq!(n_i + n_o + n_x, 32);
        assert_eq!(n_i, 8);
        assert_eq!(n_o, 24);
    }
}
