//! Operations and encoding formats.

use crate::isa::Isa;

/// Encoding format of an instruction, determining how the 32-bit word is
/// split into fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// `op rd rs1 rs2` — register-register ALU.
    R,
    /// `op rd rs1 imm14` — register-immediate ALU.
    I,
    /// `op rd rs1(base) imm14` — load (`rd` is the destination).
    Load,
    /// `op rs2(data) rs1(base) imm14` — store (`rd` field holds the data
    /// source register).
    Store,
    /// `op rs1 rs2 imm14` — conditional branch, pc-relative word offset.
    B,
    /// `op imm24` — direct call/jump, pc-relative word offset.
    J,
    /// `op rs1` — indirect call/jump through a register.
    Jr,
    /// `op rd shift2 imm16` — wide-move constant materialisation.
    M,
    /// `op` only — `SYSCALL`, `ERET`, `HALT`, `NOP`.
    Sys,
    /// `op rd sr` — move from system register.
    Mfsr,
    /// `op sr rs1` — move to system register.
    Mtsr,
}

/// Machine operation.
///
/// The numeric discriminants are the opcode byte in the encoding (bits
/// 31:24). The opcode space is deliberately dense at the bottom so that
/// single-bit flips of an opcode frequently yield a *different valid*
/// instruction (Wrong Instruction) rather than always an undefined one —
/// mirroring how real ISA opcode spaces behave under transient faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Op {
    // Register-register ALU.
    Add = 0x01,
    Sub = 0x02,
    And = 0x03,
    Or = 0x04,
    Xor = 0x05,
    Sll = 0x06,
    Srl = 0x07,
    Sra = 0x08,
    Mul = 0x09,
    Mulh = 0x0A,
    Mulhu = 0x1C,
    Div = 0x0B,
    Divu = 0x0C,
    Rem = 0x0D,
    Remu = 0x0E,
    Slt = 0x0F,
    Sltu = 0x10,

    // Register-immediate ALU.
    Addi = 0x11,
    Andi = 0x12,
    Ori = 0x13,
    Xori = 0x14,
    Slli = 0x15,
    Srli = 0x16,
    Srai = 0x17,
    Slti = 0x18,
    Sltiu = 0x19,

    // Wide moves.
    Movz = 0x1A,
    Movk = 0x1B,

    // Loads.
    Lb = 0x20,
    Lbu = 0x21,
    Lh = 0x22,
    Lhu = 0x23,
    Lw = 0x24,
    Lwu = 0x25,
    Ld = 0x26,

    // Stores.
    Sb = 0x28,
    Sh = 0x29,
    Sw = 0x2A,
    Sd = 0x2B,

    // Branches.
    Beq = 0x30,
    Bne = 0x31,
    Blt = 0x32,
    Bge = 0x33,
    Bltu = 0x34,
    Bgeu = 0x35,

    // Calls and jumps.
    Call = 0x38,
    Jmp = 0x39,
    Callr = 0x3A,
    Jmpr = 0x3B,

    // System.
    Syscall = 0x40,
    Eret = 0x41,
    Halt = 0x42,
    Nop = 0x43,
    Mfsr = 0x44,
    Mtsr = 0x45,

    // 32-bit operation variants (VA64 only): operate on the low 32 bits of
    // the sources and sign-extend the 32-bit result to 64 bits, so that
    // 32-bit workload semantics are identical across both ISAs.
    Addw = 0x50,
    Subw = 0x51,
    Mulw = 0x52,
    Divw = 0x53,
    Divuw = 0x54,
    Remw = 0x55,
    Remuw = 0x56,
    Sllw = 0x57,
    Srlw = 0x58,
    Sraw = 0x59,
    Addiw = 0x5A,
    Slliw = 0x5B,
    Srliw = 0x5C,
    Sraiw = 0x5D,
}

impl Op {
    /// All operations, in opcode order.
    pub const ALL: &'static [Op] = &[
        Op::Add,
        Op::Sub,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Sll,
        Op::Srl,
        Op::Sra,
        Op::Mul,
        Op::Mulh,
        Op::Mulhu,
        Op::Div,
        Op::Divu,
        Op::Rem,
        Op::Remu,
        Op::Slt,
        Op::Sltu,
        Op::Addi,
        Op::Andi,
        Op::Ori,
        Op::Xori,
        Op::Slli,
        Op::Srli,
        Op::Srai,
        Op::Slti,
        Op::Sltiu,
        Op::Movz,
        Op::Movk,
        Op::Lb,
        Op::Lbu,
        Op::Lh,
        Op::Lhu,
        Op::Lw,
        Op::Lwu,
        Op::Ld,
        Op::Sb,
        Op::Sh,
        Op::Sw,
        Op::Sd,
        Op::Beq,
        Op::Bne,
        Op::Blt,
        Op::Bge,
        Op::Bltu,
        Op::Bgeu,
        Op::Call,
        Op::Jmp,
        Op::Callr,
        Op::Jmpr,
        Op::Syscall,
        Op::Eret,
        Op::Halt,
        Op::Nop,
        Op::Mfsr,
        Op::Mtsr,
        Op::Addw,
        Op::Subw,
        Op::Mulw,
        Op::Divw,
        Op::Divuw,
        Op::Remw,
        Op::Remuw,
        Op::Sllw,
        Op::Srlw,
        Op::Sraw,
        Op::Addiw,
        Op::Slliw,
        Op::Srliw,
        Op::Sraiw,
    ];

    /// Decodes an opcode byte, if it names a valid operation.
    pub fn from_code(code: u8) -> Option<Op> {
        Op::ALL.iter().copied().find(|op| *op as u8 == code)
    }

    /// The opcode byte (bits 31:24 of the encoding).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The encoding format of this operation.
    pub fn format(self) -> Format {
        use Op::*;
        match self {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Mul | Mulh | Mulhu | Div | Divu
            | Rem | Remu | Slt | Sltu | Addw | Subw | Mulw | Divw | Divuw | Remw | Remuw | Sllw
            | Srlw | Sraw => Format::R,
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltiu | Addiw | Slliw
            | Srliw | Sraiw => Format::I,
            Movz | Movk => Format::M,
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld => Format::Load,
            Sb | Sh | Sw | Sd => Format::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu => Format::B,
            Call | Jmp => Format::J,
            Callr | Jmpr => Format::Jr,
            Syscall | Eret | Halt | Nop => Format::Sys,
            Mfsr => Format::Mfsr,
            Mtsr => Format::Mtsr,
        }
    }

    /// True if this operation is valid on `isa`.
    ///
    /// `Lwu`, `Ld` and `Sd` only exist on the 64-bit VA64.
    pub fn valid_on(self, isa: Isa) -> bool {
        use Op::*;
        match self {
            Lwu | Ld | Sd | Addw | Subw | Mulw | Divw | Divuw | Remw | Remuw | Sllw | Srlw
            | Sraw | Addiw | Slliw | Srliw | Sraiw => isa == Isa::Va64,
            _ => true,
        }
    }

    /// True for loads.
    pub fn is_load(self) -> bool {
        matches!(self.format(), Format::Load)
    }

    /// True for stores.
    pub fn is_store(self) -> bool {
        matches!(self.format(), Format::Store)
    }

    /// True for any memory operation.
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// True for control-flow operations (branches, calls, jumps, syscall,
    /// eret).
    pub fn is_control(self) -> bool {
        matches!(
            self.format(),
            Format::B | Format::J | Format::Jr | Format::Sys
        ) && self != Op::Nop
            && self != Op::Halt
    }

    /// True for conditional branches.
    pub fn is_branch(self) -> bool {
        matches!(self.format(), Format::B)
    }

    /// Memory access size in bytes for loads/stores, 0 otherwise.
    pub fn access_bytes(self) -> u64 {
        match self {
            Op::Lb | Op::Lbu | Op::Sb => 1,
            Op::Lh | Op::Lhu | Op::Sh => 2,
            Op::Lw | Op::Lwu | Op::Sw => 4,
            Op::Ld | Op::Sd => 8,
            _ => 0,
        }
    }

    /// Execution latency in cycles on the out-of-order core's functional
    /// units (memory ops add cache latency on top of address generation).
    pub fn exec_latency(self) -> u32 {
        match self {
            Op::Mul | Op::Mulh | Op::Mulhu | Op::Mulw => 3,
            Op::Div
            | Op::Divu
            | Op::Rem
            | Op::Remu
            | Op::Divw
            | Op::Divuw
            | Op::Remw
            | Op::Remuw => 12,
            _ => 1,
        }
    }

    /// Lowercase mnemonic used by the disassembler.
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Mul => "mul",
            Mulh => "mulh",
            Mulhu => "mulhu",
            Div => "div",
            Divu => "divu",
            Rem => "rem",
            Remu => "remu",
            Slt => "slt",
            Sltu => "sltu",
            Addi => "addi",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Slli => "slli",
            Srli => "srli",
            Srai => "srai",
            Slti => "slti",
            Sltiu => "sltiu",
            Movz => "movz",
            Movk => "movk",
            Lb => "lb",
            Lbu => "lbu",
            Lh => "lh",
            Lhu => "lhu",
            Lw => "lw",
            Lwu => "lwu",
            Ld => "ld",
            Sb => "sb",
            Sh => "sh",
            Sw => "sw",
            Sd => "sd",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Bltu => "bltu",
            Bgeu => "bgeu",
            Call => "call",
            Jmp => "jmp",
            Callr => "callr",
            Jmpr => "jmpr",
            Syscall => "syscall",
            Eret => "eret",
            Halt => "halt",
            Nop => "nop",
            Mfsr => "mfsr",
            Mtsr => "mtsr",
            Addw => "addw",
            Subw => "subw",
            Mulw => "mulw",
            Divw => "divw",
            Divuw => "divuw",
            Remw => "remw",
            Remuw => "remuw",
            Sllw => "sllw",
            Srlw => "srlw",
            Sraw => "sraw",
            Addiw => "addiw",
            Slliw => "slliw",
            Srliw => "srliw",
            Sraiw => "sraiw",
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for &op in Op::ALL {
            assert_eq!(Op::from_code(op.code()), Some(op), "{op:?}");
        }
    }

    #[test]
    fn codes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Op::ALL {
            assert!(seen.insert(op.code()), "duplicate opcode {:#x}", op.code());
        }
    }

    #[test]
    fn invalid_codes_decode_to_none() {
        assert_eq!(Op::from_code(0x00), None);
        assert_eq!(Op::from_code(0xFF), None);
        assert_eq!(Op::from_code(0x27), None);
    }

    #[test]
    fn isa_validity() {
        assert!(!Op::Ld.valid_on(Isa::Va32));
        assert!(!Op::Sd.valid_on(Isa::Va32));
        assert!(!Op::Lwu.valid_on(Isa::Va32));
        assert!(Op::Ld.valid_on(Isa::Va64));
        assert!(Op::Lw.valid_on(Isa::Va32));
    }

    #[test]
    fn classification() {
        assert!(Op::Lw.is_load());
        assert!(Op::Sw.is_store());
        assert!(Op::Beq.is_branch());
        assert!(Op::Call.is_control());
        assert!(Op::Syscall.is_control());
        assert!(!Op::Nop.is_control());
        assert!(!Op::Add.is_mem());
        assert_eq!(Op::Lh.access_bytes(), 2);
        assert_eq!(Op::Sd.access_bytes(), 8);
    }

    #[test]
    fn latencies() {
        assert_eq!(Op::Add.exec_latency(), 1);
        assert_eq!(Op::Mul.exec_latency(), 3);
        assert_eq!(Op::Div.exec_latency(), 12);
    }
}
