//! Decoded instruction representation and constructors.

use crate::isa::Isa;
use crate::op::{Format, Op};
use crate::reg::Reg;
use crate::sysreg::SysReg;

/// Semantic role of one source operand, parallel to [`Instr::regs_read`].
///
/// Decode-level metadata for analyses that care *what* an operand feeds
/// rather than merely that it is read — e.g. the fault-model taint pass
/// in `vulnstack-analyze`, which treats branch conditions, memory bases,
/// and control-transfer targets as attack-surface sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrcRole {
    /// Plain data operand flowing into the destination value.
    Value,
    /// Register shift amount (observed modulo the word width).
    ShiftAmount,
    /// Address base of a load or store.
    MemBase,
    /// Data being stored to memory.
    StoreData,
    /// Conditional-branch comparison operand.
    BranchCond,
    /// Indirect jump/call target (`JMPR`/`CALLR`).
    JumpTarget,
    /// Value written to a system register (`MTSR` — e.g. the trap-return
    /// `EPC`, making it control-relevant).
    SysregData,
}

/// A decoded machine instruction.
///
/// Field meaning depends on [`Op::format`]:
///
/// | format | `rd` | `rs1` | `rs2` | `imm` | `shift` |
/// |---|---|---|---|---|---|
/// | R | dest | src 1 | src 2 | — | — |
/// | I | dest | src | — | signed imm | — |
/// | Load | dest | base | — | signed byte offset | — |
/// | Store | data src | base | — | signed byte offset | — |
/// | B | — | cmp 1 | cmp 2 | signed byte offset (pc-relative) | — |
/// | J | — | — | — | signed byte offset (pc-relative) | — |
/// | Jr | — | target | — | — | — |
/// | M | dest | — | — | imm16 (0..=65535) | 0..=3 |
/// | Mfsr | dest | sysreg idx | — | — | — |
/// | Mtsr | sysreg idx | src | — | — | — |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instr {
    /// Operation.
    pub op: Op,
    /// Destination register (or data source for stores, sysreg index for
    /// `MTSR`).
    pub rd: Reg,
    /// First source register (base for memory ops, sysreg index for `MFSR`).
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Immediate. Branch/jump immediates are *byte* offsets relative to this
    /// instruction's address and are always multiples of 4.
    pub imm: i64,
    /// Shift count for `MOVZ`/`MOVK` (`imm16 << 16*shift`).
    pub shift: u8,
}

impl Instr {
    /// A canonical `nop`.
    pub fn nop() -> Instr {
        Instr::sys(Op::Nop)
    }

    /// Builds a register-register ALU instruction.
    pub fn alu_rr(op: Op, rd: Reg, rs1: Reg, rs2: Reg) -> Instr {
        debug_assert_eq!(op.format(), Format::R);
        Instr {
            op,
            rd,
            rs1,
            rs2,
            imm: 0,
            shift: 0,
        }
    }

    /// Builds a register-immediate ALU instruction.
    pub fn alu_imm(op: Op, rd: Reg, rs1: Reg, imm: i64) -> Instr {
        debug_assert_eq!(op.format(), Format::I);
        Instr {
            op,
            rd,
            rs1,
            rs2: Reg(0),
            imm,
            shift: 0,
        }
    }

    /// Builds a load: `rd <- mem[rs1 + offset]`.
    pub fn load(op: Op, rd: Reg, base: Reg, offset: i64) -> Instr {
        debug_assert_eq!(op.format(), Format::Load);
        Instr {
            op,
            rd,
            rs1: base,
            rs2: Reg(0),
            imm: offset,
            shift: 0,
        }
    }

    /// Builds a store: `mem[rs1 + offset] <- data`.
    pub fn store(op: Op, data: Reg, base: Reg, offset: i64) -> Instr {
        debug_assert_eq!(op.format(), Format::Store);
        Instr {
            op,
            rd: data,
            rs1: base,
            rs2: Reg(0),
            imm: offset,
            shift: 0,
        }
    }

    /// Builds a conditional branch with a pc-relative byte offset.
    pub fn branch(op: Op, rs1: Reg, rs2: Reg, offset: i64) -> Instr {
        debug_assert_eq!(op.format(), Format::B);
        Instr {
            op,
            rd: Reg(0),
            rs1,
            rs2,
            imm: offset,
            shift: 0,
        }
    }

    /// Builds a direct `call`/`jmp` with a pc-relative byte offset.
    pub fn jump(op: Op, offset: i64) -> Instr {
        debug_assert_eq!(op.format(), Format::J);
        Instr {
            op,
            rd: Reg(0),
            rs1: Reg(0),
            rs2: Reg(0),
            imm: offset,
            shift: 0,
        }
    }

    /// Builds an indirect `callr`/`jmpr` through `target`.
    pub fn jump_reg(op: Op, target: Reg) -> Instr {
        debug_assert_eq!(op.format(), Format::Jr);
        Instr {
            op,
            rd: Reg(0),
            rs1: target,
            rs2: Reg(0),
            imm: 0,
            shift: 0,
        }
    }

    /// Builds a `movz`/`movk`: `imm16` placed at bit position `16*shift`.
    pub fn mov_wide(op: Op, rd: Reg, imm16: u16, shift: u8) -> Instr {
        debug_assert_eq!(op.format(), Format::M);
        debug_assert!(shift < 4);
        Instr {
            op,
            rd,
            rs1: Reg(0),
            rs2: Reg(0),
            imm: imm16 as i64,
            shift,
        }
    }

    /// Builds a no-operand system instruction (`syscall`, `eret`, `halt`,
    /// `nop`).
    pub fn sys(op: Op) -> Instr {
        debug_assert_eq!(op.format(), Format::Sys);
        Instr {
            op,
            rd: Reg(0),
            rs1: Reg(0),
            rs2: Reg(0),
            imm: 0,
            shift: 0,
        }
    }

    /// Builds `mfsr rd, sr`.
    pub fn mfsr(rd: Reg, sr: SysReg) -> Instr {
        Instr {
            op: Op::Mfsr,
            rd,
            rs1: Reg(sr.index()),
            rs2: Reg(0),
            imm: 0,
            shift: 0,
        }
    }

    /// Builds `mtsr sr, rs1`.
    pub fn mtsr(sr: SysReg, rs1: Reg) -> Instr {
        Instr {
            op: Op::Mtsr,
            rd: Reg(sr.index()),
            rs1,
            rs2: Reg(0),
            imm: 0,
            shift: 0,
        }
    }

    /// Architectural registers read by this instruction, in operand order.
    ///
    /// This is the decode-metadata entry point used by the static analyzer
    /// (`vulnstack-analyze`), the rename stage of the out-of-order core,
    /// and anything else that needs the read set without interpreting the
    /// instruction.
    pub fn regs_read(&self) -> Vec<Reg> {
        match self.op.format() {
            Format::R | Format::B => vec![self.rs1, self.rs2],
            Format::I | Format::Load | Format::Jr => vec![self.rs1],
            Format::Store => vec![self.rd, self.rs1],
            Format::Mtsr => vec![self.rs1],
            Format::M => {
                if self.op == Op::Movk {
                    vec![self.rd]
                } else {
                    vec![]
                }
            }
            Format::J | Format::Sys | Format::Mfsr => vec![],
        }
    }

    /// Architectural registers written by this instruction (empty or one
    /// element; a `Vec` keeps the API symmetric with [`Instr::regs_read`]).
    ///
    /// Writes to the VA64 zero register are excluded, matching
    /// [`Instr::dest`].
    pub fn regs_written(&self, isa: Isa) -> Vec<Reg> {
        self.dest(isa).into_iter().collect()
    }

    /// Semantic role of each source operand, parallel to
    /// [`Instr::regs_read`].
    ///
    /// This is the operand metadata the fault-model taint analysis keys
    /// on: a corrupted [`SrcRole::BranchCond`] operand can subvert a
    /// guard, a corrupted [`SrcRole::MemBase`] redirects a memory access,
    /// and a corrupted [`SrcRole::JumpTarget`] or [`SrcRole::SysregData`]
    /// hijacks control flow outright.
    pub fn src_roles(&self) -> Vec<SrcRole> {
        use Op::*;
        match self.op.format() {
            Format::R => match self.op {
                Sll | Srl | Sra | Sllw | Srlw | Sraw => vec![SrcRole::Value, SrcRole::ShiftAmount],
                _ => vec![SrcRole::Value, SrcRole::Value],
            },
            Format::B => vec![SrcRole::BranchCond, SrcRole::BranchCond],
            Format::I => vec![SrcRole::Value],
            Format::Load => vec![SrcRole::MemBase],
            Format::Jr => vec![SrcRole::JumpTarget],
            Format::Store => vec![SrcRole::StoreData, SrcRole::MemBase],
            Format::Mtsr => vec![SrcRole::SysregData],
            Format::M => {
                if self.op == Op::Movk {
                    vec![SrcRole::Value]
                } else {
                    vec![]
                }
            }
            Format::J | Format::Sys | Format::Mfsr => vec![],
        }
    }

    /// Architectural registers read by this instruction.
    ///
    /// Alias of [`Instr::regs_read`], kept for the simulator call sites
    /// that predate the static-analysis layer.
    pub fn srcs(&self) -> Vec<Reg> {
        self.regs_read()
    }

    /// How many low bits of each source register this instruction actually
    /// observes, parallel to [`Instr::regs_read`].
    ///
    /// This is an *upper bound* (an instruction may mask further at
    /// runtime), which keeps analyses built on it pessimism-safe:
    ///
    /// * `W`-suffixed VA64 ops observe the low 32 bits of their value
    ///   operands;
    /// * register shift amounts are observed modulo the word width (5 or
    ///   6 bits);
    /// * a store observes `8 × access_bytes` bits of its data register;
    /// * everything else observes the full architectural word.
    pub fn src_widths(&self, isa: Isa) -> Vec<u32> {
        use Op::*;
        let xlen = isa.xlen();
        let shamt_bits = if isa.xlen() == 64 { 6 } else { 5 };
        match self.op {
            // VA64 32-bit forms: value operands are observed at 32 bits.
            Addw | Subw | Mulw | Divw | Divuw | Remw | Remuw => vec![32, 32],
            Sllw | Srlw | Sraw => vec![32, 5],
            Addiw | Slliw | Srliw | Sraiw => vec![32],
            // Full-width register shifts observe only the shift amount of
            // rs2.
            Sll | Srl | Sra => vec![xlen, shamt_bits],
            // Stores observe only the accessed bytes of the data register
            // (first source), and the full base.
            Sb | Sh | Sw | Sd => {
                vec![(self.op.access_bytes() * 8) as u32, xlen]
            }
            _ => self.regs_read().iter().map(|_| xlen).collect(),
        }
    }

    /// Architectural register written by this instruction, if any.
    ///
    /// `CALL`/`CALLR` write the ISA's link register, so the destination is
    /// ISA-dependent.
    pub fn dest(&self, isa: Isa) -> Option<Reg> {
        let d = match self.op.format() {
            Format::R | Format::I | Format::Load | Format::M | Format::Mfsr => Some(self.rd),
            Format::J | Format::Jr if matches!(self.op, Op::Call | Op::Callr) => Some(isa.lr()),
            _ => None,
        };
        // Writes to the VA64 zero register are discarded.
        match (d, isa.zero()) {
            (Some(r), Some(z)) if r == z => None,
            _ => d,
        }
    }

    /// The system register referenced by `MFSR`/`MTSR`, if any.
    pub fn sysreg(&self) -> Option<SysReg> {
        match self.op {
            Op::Mfsr => SysReg::from_index(self.rs1.0),
            Op::Mtsr => SysReg::from_index(self.rd.0),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srcs_and_dest() {
        let i = Instr::alu_rr(Op::Add, Reg(1), Reg(2), Reg(3));
        assert_eq!(i.srcs(), vec![Reg(2), Reg(3)]);
        assert_eq!(i.dest(Isa::Va64), Some(Reg(1)));

        let s = Instr::store(Op::Sw, Reg(4), Reg(5), 8);
        assert_eq!(s.srcs(), vec![Reg(4), Reg(5)]);
        assert_eq!(s.dest(Isa::Va64), None);

        let c = Instr::jump(Op::Call, 64);
        assert_eq!(c.dest(Isa::Va32), Some(Isa::Va32.lr()));
        assert_eq!(c.dest(Isa::Va64), Some(Isa::Va64.lr()));

        let j = Instr::jump(Op::Jmp, 64);
        assert_eq!(j.dest(Isa::Va64), None);
    }

    #[test]
    fn regs_read_written_match_srcs_dest() {
        let cases = [
            Instr::alu_rr(Op::Add, Reg(1), Reg(2), Reg(3)),
            Instr::alu_imm(Op::Addi, Reg(4), Reg(5), 10),
            Instr::load(Op::Lw, Reg(6), Reg(7), 0),
            Instr::store(Op::Sw, Reg(8), Reg(9), 0),
            Instr::branch(Op::Beq, Reg(1), Reg(2), 8),
            Instr::jump(Op::Call, 16),
            Instr::jump_reg(Op::Jmpr, Reg(14)),
            Instr::mov_wide(Op::Movk, Reg(3), 0xAB, 1),
            Instr::sys(Op::Syscall),
            Instr::mfsr(Reg(3), SysReg::Epc),
            Instr::mtsr(SysReg::Ksp, Reg(4)),
        ];
        for i in cases {
            assert_eq!(i.regs_read(), i.srcs(), "{i:?}");
            for isa in [Isa::Va32, Isa::Va64] {
                assert_eq!(
                    i.regs_written(isa),
                    i.dest(isa).into_iter().collect::<Vec<_>>()
                );
                // Widths are parallel to the read set and bounded by xlen.
                let widths = i.src_widths(isa);
                assert_eq!(widths.len(), i.regs_read().len(), "{i:?} on {isa}");
                assert!(
                    widths.iter().all(|&w| w >= 1 && w <= isa.xlen()),
                    "{i:?}: {widths:?}"
                );
            }
        }
    }

    #[test]
    fn src_widths_partial_cases() {
        // Store data register: only the accessed bytes are observed.
        let sb = Instr::store(Op::Sb, Reg(1), Reg(2), 0);
        assert_eq!(sb.src_widths(Isa::Va64), vec![8, 64]);
        // W-form arithmetic observes 32 bits.
        let addw = Instr::alu_rr(Op::Addw, Reg(1), Reg(2), Reg(3));
        assert_eq!(addw.src_widths(Isa::Va64), vec![32, 32]);
        // Register shift amount is observed mod the word width.
        let sll = Instr::alu_rr(Op::Sll, Reg(1), Reg(2), Reg(3));
        assert_eq!(sll.src_widths(Isa::Va32), vec![32, 5]);
        assert_eq!(sll.src_widths(Isa::Va64), vec![64, 6]);
        // A VA64 zero-register write disappears from regs_written.
        let i = Instr::alu_rr(Op::Add, Reg(31), Reg(1), Reg(2));
        assert!(i.regs_written(Isa::Va64).is_empty());
    }

    #[test]
    fn src_roles_parallel_regs_read() {
        let cases = [
            Instr::alu_rr(Op::Add, Reg(1), Reg(2), Reg(3)),
            Instr::alu_rr(Op::Sll, Reg(1), Reg(2), Reg(3)),
            Instr::alu_imm(Op::Addi, Reg(4), Reg(5), 10),
            Instr::load(Op::Lw, Reg(6), Reg(7), 0),
            Instr::store(Op::Sw, Reg(8), Reg(9), 0),
            Instr::branch(Op::Beq, Reg(1), Reg(2), 8),
            Instr::jump(Op::Call, 16),
            Instr::jump_reg(Op::Jmpr, Reg(14)),
            Instr::mov_wide(Op::Movk, Reg(3), 0xAB, 1),
            Instr::mov_wide(Op::Movz, Reg(3), 0xAB, 1),
            Instr::sys(Op::Syscall),
            Instr::mfsr(Reg(3), SysReg::Epc),
            Instr::mtsr(SysReg::Ksp, Reg(4)),
        ];
        for i in cases {
            assert_eq!(i.src_roles().len(), i.regs_read().len(), "{i:?}");
        }
        let sll = Instr::alu_rr(Op::Sll, Reg(1), Reg(2), Reg(3));
        assert_eq!(sll.src_roles(), vec![SrcRole::Value, SrcRole::ShiftAmount]);
        let st = Instr::store(Op::Sb, Reg(1), Reg(2), 0);
        assert_eq!(st.src_roles(), vec![SrcRole::StoreData, SrcRole::MemBase]);
        let b = Instr::branch(Op::Bne, Reg(1), Reg(2), 8);
        assert_eq!(
            b.src_roles(),
            vec![SrcRole::BranchCond, SrcRole::BranchCond]
        );
        let jr = Instr::jump_reg(Op::Callr, Reg(5));
        assert_eq!(jr.src_roles(), vec![SrcRole::JumpTarget]);
        let mt = Instr::mtsr(SysReg::Epc, Reg(4));
        assert_eq!(mt.src_roles(), vec![SrcRole::SysregData]);
    }

    #[test]
    fn movk_reads_its_destination() {
        let k = Instr::mov_wide(Op::Movk, Reg(6), 0xBEEF, 1);
        assert_eq!(k.srcs(), vec![Reg(6)]);
        let z = Instr::mov_wide(Op::Movz, Reg(6), 0xBEEF, 1);
        assert!(z.srcs().is_empty());
    }

    #[test]
    fn zero_register_write_discarded() {
        let i = Instr::alu_rr(Op::Add, Reg(31), Reg(1), Reg(2));
        assert_eq!(i.dest(Isa::Va64), None);
        // On VA32 register 31 is simply invalid, but dest() itself doesn't
        // validate; the decoder does.
        assert_eq!(i.dest(Isa::Va32), Some(Reg(31)));
    }

    #[test]
    fn sysreg_accessors() {
        let m = Instr::mfsr(Reg(3), SysReg::Cause);
        assert_eq!(m.sysreg(), Some(SysReg::Cause));
        let t = Instr::mtsr(SysReg::Epc, Reg(4));
        assert_eq!(t.sysreg(), Some(SysReg::Epc));
        assert_eq!(t.srcs(), vec![Reg(4)]);
    }
}
