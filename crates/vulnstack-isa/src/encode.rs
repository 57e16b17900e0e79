//! Binary encoding and decoding of instructions.
//!
//! Layout (bit 31 is the MSB):
//!
//! ```text
//! format  31..24   23..19   18..14   13..9    8..0 / 13..0
//! R       opcode   rd       rs1      rs2      (ignored)
//! I/Load  opcode   rd       rs1      imm14 (signed)
//! Store   opcode   rdata    rbase    imm14 (signed)
//! B       opcode   rs1      rs2      imm14 (signed word offset)
//! J       opcode   imm24 (signed word offset)
//! Jr      opcode   (ign)    rs1      (ignored)
//! M       opcode   rd       sh[18:17] imm16[16:1]  (bit 0 ignored)
//! Sys     opcode   (ignored)
//! Mfsr    opcode   rd       sr       (ignored)
//! Mtsr    opcode   sr       rs1      (ignored)
//! ```
//!
//! Ignored bits decode as don't-care: a transient fault flipping one of them
//! is architecturally masked, mirroring reserved fields in real encodings.

use crate::bits::{field, fits_signed, insert, sext};
use crate::instr::Instr;
use crate::isa::Isa;
use crate::op::{Format, Op};
use crate::reg::Reg;
use crate::sysreg::SysReg;

/// Error returned when an [`Instr`] cannot be represented in the binary
/// encoding for the given ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The operation does not exist on the target ISA.
    OpInvalidForIsa { op: Op, isa: Isa },
    /// A register index is out of range for the target ISA.
    RegOutOfRange { reg: Reg, isa: Isa },
    /// The immediate does not fit its field.
    ImmOutOfRange { imm: i64, bits: u32 },
    /// Branch/jump byte offsets must be multiples of 4.
    MisalignedOffset { imm: i64 },
    /// `MOVZ`/`MOVK` shift must be 0..=3.
    ShiftOutOfRange { shift: u8 },
    /// `MFSR`/`MTSR` references an unknown system register.
    BadSysReg { index: u8 },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::OpInvalidForIsa { op, isa } => {
                write!(f, "operation {op} is not valid on {isa}")
            }
            EncodeError::RegOutOfRange { reg, isa } => {
                write!(f, "register {reg} out of range for {isa}")
            }
            EncodeError::ImmOutOfRange { imm, bits } => {
                write!(f, "immediate {imm} does not fit in {bits} bits")
            }
            EncodeError::MisalignedOffset { imm } => {
                write!(f, "control-flow offset {imm} is not a multiple of 4")
            }
            EncodeError::ShiftOutOfRange { shift } => {
                write!(f, "wide-move shift {shift} out of range (0..=3)")
            }
            EncodeError::BadSysReg { index } => write!(f, "unknown system register index {index}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error returned when a 32-bit word does not decode to a valid instruction.
///
/// At execution time every variant manifests as an undefined-instruction
/// trap; the distinction is kept for fault-propagation diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode byte names no operation.
    BadOpcode { code: u8 },
    /// The operation is not available on this ISA.
    OpInvalidForIsa { code: u8 },
    /// A register field exceeds the ISA's register count.
    BadReg { index: u8 },
    /// A sysreg field names no system register.
    BadSysReg { index: u8 },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadOpcode { code } => write!(f, "invalid opcode {code:#04x}"),
            DecodeError::OpInvalidForIsa { code } => {
                write!(f, "opcode {code:#04x} not valid on this ISA")
            }
            DecodeError::BadReg { index } => write!(f, "register index {index} out of range"),
            DecodeError::BadSysReg { index } => write!(f, "system register index {index} invalid"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Instr {
    /// Encodes this instruction to its 32-bit binary form.
    ///
    /// # Errors
    ///
    /// Returns an [`EncodeError`] if a field is out of range or the
    /// operation does not exist on `isa`.
    pub fn encode(&self, isa: Isa) -> Result<u32, EncodeError> {
        if !self.op.valid_on(isa) {
            return Err(EncodeError::OpInvalidForIsa { op: self.op, isa });
        }
        let check_reg = |r: Reg| -> Result<u32, EncodeError> {
            if isa.reg_valid(r) {
                Ok(r.0 as u32)
            } else {
                Err(EncodeError::RegOutOfRange { reg: r, isa })
            }
        };
        let imm14 = |imm: i64| -> Result<u32, EncodeError> {
            if fits_signed(imm, 14) {
                Ok((imm as u32) & 0x3fff)
            } else {
                Err(EncodeError::ImmOutOfRange { imm, bits: 14 })
            }
        };
        let word_off = |imm: i64, bits: u32| -> Result<u32, EncodeError> {
            if imm % 4 != 0 {
                return Err(EncodeError::MisalignedOffset { imm });
            }
            let w = imm / 4;
            if fits_signed(w, bits) {
                Ok((w as u32) & ((1u32 << bits) - 1))
            } else {
                Err(EncodeError::ImmOutOfRange { imm, bits })
            }
        };

        let mut w = insert(0, 31, 24, self.op.code() as u32);
        match self.op.format() {
            Format::R => {
                w = insert(w, 23, 19, check_reg(self.rd)?);
                w = insert(w, 18, 14, check_reg(self.rs1)?);
                w = insert(w, 13, 9, check_reg(self.rs2)?);
            }
            Format::I | Format::Load | Format::Store => {
                w = insert(w, 23, 19, check_reg(self.rd)?);
                w = insert(w, 18, 14, check_reg(self.rs1)?);
                w = insert(w, 13, 0, imm14(self.imm)?);
            }
            Format::B => {
                w = insert(w, 23, 19, check_reg(self.rs1)?);
                w = insert(w, 18, 14, check_reg(self.rs2)?);
                w = insert(w, 13, 0, word_off(self.imm, 14)?);
            }
            Format::J => {
                w = insert(w, 23, 0, word_off(self.imm, 24)?);
            }
            Format::Jr => {
                w = insert(w, 18, 14, check_reg(self.rs1)?);
            }
            Format::M => {
                if self.shift > 3 {
                    return Err(EncodeError::ShiftOutOfRange { shift: self.shift });
                }
                if !(0..=0xffff).contains(&self.imm) {
                    return Err(EncodeError::ImmOutOfRange {
                        imm: self.imm,
                        bits: 16,
                    });
                }
                w = insert(w, 23, 19, check_reg(self.rd)?);
                w = insert(w, 18, 17, self.shift as u32);
                w = insert(w, 16, 1, self.imm as u32);
            }
            Format::Sys => {}
            Format::Mfsr => {
                w = insert(w, 23, 19, check_reg(self.rd)?);
                let sr = self.rs1.0;
                if SysReg::from_index(sr).is_none() {
                    return Err(EncodeError::BadSysReg { index: sr });
                }
                w = insert(w, 18, 14, sr as u32);
            }
            Format::Mtsr => {
                let sr = self.rd.0;
                if SysReg::from_index(sr).is_none() {
                    return Err(EncodeError::BadSysReg { index: sr });
                }
                w = insert(w, 23, 19, sr as u32);
                w = insert(w, 18, 14, check_reg(self.rs1)?);
            }
        }
        Ok(w)
    }

    /// Decodes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the word is not a valid instruction on
    /// `isa`; the executing core turns this into an undefined-instruction
    /// trap.
    pub fn decode(word: u32, isa: Isa) -> Result<Instr, DecodeError> {
        let code = field(word, 31, 24) as u8;
        let op = Op::from_code(code).ok_or(DecodeError::BadOpcode { code })?;
        if !op.valid_on(isa) {
            return Err(DecodeError::OpInvalidForIsa { code });
        }
        let reg = |hi: u32, lo: u32| -> Result<Reg, DecodeError> {
            let idx = field(word, hi, lo) as u8;
            if idx < isa.num_regs() {
                Ok(Reg(idx))
            } else {
                Err(DecodeError::BadReg { index: idx })
            }
        };
        let imm14 = sext(field(word, 13, 0) as u64, 14);

        let mut i = Instr {
            op,
            rd: Reg(0),
            rs1: Reg(0),
            rs2: Reg(0),
            imm: 0,
            shift: 0,
        };
        match op.format() {
            Format::R => {
                i.rd = reg(23, 19)?;
                i.rs1 = reg(18, 14)?;
                i.rs2 = reg(13, 9)?;
            }
            Format::I | Format::Load | Format::Store => {
                i.rd = reg(23, 19)?;
                i.rs1 = reg(18, 14)?;
                i.imm = imm14;
            }
            Format::B => {
                i.rs1 = reg(23, 19)?;
                i.rs2 = reg(18, 14)?;
                i.imm = imm14 * 4;
            }
            Format::J => {
                i.imm = sext(field(word, 23, 0) as u64, 24) * 4;
            }
            Format::Jr => {
                i.rs1 = reg(18, 14)?;
            }
            Format::M => {
                i.rd = reg(23, 19)?;
                i.shift = field(word, 18, 17) as u8;
                i.imm = field(word, 16, 1) as i64;
            }
            Format::Sys => {}
            Format::Mfsr => {
                i.rd = reg(23, 19)?;
                let sr = field(word, 18, 14) as u8;
                SysReg::from_index(sr).ok_or(DecodeError::BadSysReg { index: sr })?;
                i.rs1 = Reg(sr);
            }
            Format::Mtsr => {
                let sr = field(word, 23, 19) as u8;
                SysReg::from_index(sr).ok_or(DecodeError::BadSysReg { index: sr })?;
                i.rd = Reg(sr);
                i.rs1 = reg(18, 14)?;
            }
        }
        Ok(i)
    }
}

/// The decode of every 4-byte slot of an image's executable segments,
/// built once per image so that a simulator stepping the same text
/// millions of times decodes each word once.
///
/// [`DecodedText::decode`] equals [`Instr::decode`] for every `(pc,
/// word)`: it answers from the table only when `pc` is a slot whose
/// stored word is `word`, and decodes `word` otherwise. A core passes
/// the word it actually fetched, so a corrupted word (a flipped text
/// bit, a flipped cache line, a wild store into text) still decodes as
/// that word. The table sets how fast a run goes, never what it does.
///
/// It holds only the words of the segments it is built from, each with
/// its decode, never a dense range of the address space.
pub struct DecodedText {
    isa: Isa,
    segments: Vec<TextSegment>,
}

/// One executable segment's slots, the first at `base`.
struct TextSegment {
    base: u64,
    slots: Box<[TextSlot]>,
}

/// A slot's stored word and its decode.
struct TextSlot {
    word: u32,
    instr: Result<Instr, DecodeError>,
}

impl DecodedText {
    /// Decodes every whole little-endian word of `segments`, each a
    /// `(base, bytes)` pair (a trailing partial word is left out). A
    /// lookup scans the segments in this order, so list the most-executed
    /// first; the first segment holding a pc answers for it.
    pub fn new<'a>(isa: Isa, segments: impl IntoIterator<Item = (u32, &'a [u8])>) -> DecodedText {
        let segments = segments
            .into_iter()
            .map(|(base, bytes)| TextSegment {
                base: u64::from(base),
                slots: bytes
                    .chunks_exact(4)
                    .map(|c| {
                        let word = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                        TextSlot {
                            word,
                            instr: Instr::decode(word, isa),
                        }
                    })
                    .collect(),
            })
            .collect();
        DecodedText { isa, segments }
    }

    /// [`Instr::decode`]`(word, isa)` for the word fetched at `pc`, taken
    /// from the table when `pc` is a slot holding `word`.
    ///
    /// # Errors
    ///
    /// As [`Instr::decode`].
    #[inline]
    pub fn decode(&self, pc: u64, word: u32) -> Result<Instr, DecodeError> {
        match self.slot(pc) {
            Some(slot) if slot.word == word => slot.instr,
            _ => Instr::decode(word, self.isa),
        }
    }

    /// Every slot as `(pc, word)`, segment by segment.
    pub fn words(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.segments.iter().flat_map(|seg| {
            seg.slots
                .iter()
                .zip((seg.base..).step_by(4))
                .map(|(slot, pc)| (pc, slot.word))
        })
    }

    /// The slot at `pc`, if a segment holds one there.
    #[inline]
    fn slot(&self, pc: u64) -> Option<&TextSlot> {
        self.segments.iter().find_map(|seg| {
            let off = pc.wrapping_sub(seg.base);
            if off % 4 == 0 {
                seg.slots.get(usize::try_from(off / 4).ok()?)
            } else {
                None
            }
        })
    }
}

impl std::fmt::Debug for DecodedText {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let spans: Vec<String> = self
            .segments
            .iter()
            .map(|seg| format!("{:#x}+{}", seg.base, seg.slots.len()))
            .collect();
        f.debug_struct("DecodedText")
            .field("isa", &self.isa)
            .field("slots", &spans)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
    use proptest::prelude::*;

    fn roundtrip(i: Instr, isa: Isa) {
        let w = i
            .encode(isa)
            .unwrap_or_else(|e| panic!("encode {i:?} on {isa}: {e}"));
        let back = Instr::decode(w, isa).unwrap_or_else(|e| panic!("decode {w:#x} on {isa}: {e}"));
        assert_eq!(i, back, "roundtrip failed for {i:?} on {isa}");
    }

    #[test]
    fn roundtrip_all_formats() {
        for isa in [Isa::Va32, Isa::Va64] {
            let maxr = isa.num_regs() - 1;
            roundtrip(Instr::alu_rr(Op::Add, Reg(1), Reg(maxr), Reg(3)), isa);
            roundtrip(Instr::alu_imm(Op::Addi, Reg(2), Reg(0), -8192), isa);
            roundtrip(Instr::alu_imm(Op::Xori, Reg(2), Reg(5), 8191), isa);
            roundtrip(Instr::load(Op::Lw, Reg(4), Reg(5), -4), isa);
            roundtrip(Instr::store(Op::Sw, Reg(6), Reg(7), 1024), isa);
            roundtrip(Instr::branch(Op::Bne, Reg(1), Reg(2), -32768), isa);
            roundtrip(Instr::jump(Op::Call, 4 * ((1 << 23) - 1)), isa);
            roundtrip(Instr::jump(Op::Jmp, -4 * (1 << 23)), isa);
            roundtrip(Instr::jump_reg(Op::Jmpr, isa.lr()), isa);
            roundtrip(Instr::mov_wide(Op::Movz, Reg(9), 0xffff, 3), isa);
            roundtrip(Instr::mov_wide(Op::Movk, Reg(9), 0, 0), isa);
            roundtrip(Instr::sys(Op::Syscall), isa);
            roundtrip(Instr::sys(Op::Nop), isa);
            roundtrip(Instr::mfsr(Reg(3), SysReg::Epc), isa);
            roundtrip(Instr::mtsr(SysReg::Ksp, Reg(4)), isa);
        }
        roundtrip(Instr::load(Op::Ld, Reg(20), Reg(21), 8), Isa::Va64);
        roundtrip(Instr::store(Op::Sd, Reg(22), Reg(23), -8), Isa::Va64);
    }

    #[test]
    fn encode_rejects_out_of_range() {
        let i = Instr::alu_rr(Op::Add, Reg(20), Reg(1), Reg(2));
        assert!(matches!(
            i.encode(Isa::Va32),
            Err(EncodeError::RegOutOfRange { .. })
        ));
        assert!(i.encode(Isa::Va64).is_ok());

        let i = Instr::alu_imm(Op::Addi, Reg(1), Reg(2), 8192);
        assert!(matches!(
            i.encode(Isa::Va64),
            Err(EncodeError::ImmOutOfRange { .. })
        ));

        let i = Instr::branch(Op::Beq, Reg(1), Reg(2), 6);
        assert!(matches!(
            i.encode(Isa::Va64),
            Err(EncodeError::MisalignedOffset { .. })
        ));

        let i = Instr::load(Op::Ld, Reg(1), Reg(2), 0);
        assert!(matches!(
            i.encode(Isa::Va32),
            Err(EncodeError::OpInvalidForIsa { .. })
        ));

        let mut i = Instr::mov_wide(Op::Movz, Reg(1), 1, 0);
        i.shift = 4;
        assert!(matches!(
            i.encode(Isa::Va64),
            Err(EncodeError::ShiftOutOfRange { .. })
        ));
    }

    #[test]
    fn decode_rejects_invalid() {
        // Opcode 0x00 is reserved-invalid.
        assert!(matches!(
            Instr::decode(0x0000_0000, Isa::Va64),
            Err(DecodeError::BadOpcode { code: 0 })
        ));
        // LD on VA32.
        let w = Instr::load(Op::Ld, Reg(1), Reg(2), 0)
            .encode(Isa::Va64)
            .unwrap();
        assert!(matches!(
            Instr::decode(w, Isa::Va32),
            Err(DecodeError::OpInvalidForIsa { .. })
        ));
        // Register 31 is invalid on VA32: craft `add r16, r0, r0`.
        let w = crate::bits::insert(
            crate::bits::insert(0, 31, 24, Op::Add.code() as u32),
            23,
            19,
            16,
        );
        assert!(matches!(
            Instr::decode(w, Isa::Va32),
            Err(DecodeError::BadReg { index: 16 })
        ));
    }

    #[test]
    fn ignored_bits_are_dont_care() {
        let base = Instr::alu_rr(Op::Add, Reg(1), Reg(2), Reg(3))
            .encode(Isa::Va64)
            .unwrap();
        for bit in 0..9 {
            let flipped = base ^ (1 << bit);
            let d = Instr::decode(flipped, Isa::Va64).unwrap();
            assert_eq!(d, Instr::alu_rr(Op::Add, Reg(1), Reg(2), Reg(3)));
        }
    }

    #[test]
    fn branch_offsets_are_word_scaled() {
        let i = Instr::branch(Op::Beq, Reg(1), Reg(2), -64);
        let w = i.encode(Isa::Va64).unwrap();
        assert_eq!(field(w, 13, 0), (-16i32 as u32) & 0x3fff);
        assert_eq!(Instr::decode(w, Isa::Va64).unwrap().imm, -64);
    }

    #[test]
    fn decoded_text_answers_only_for_a_slot_holding_the_word() {
        let isa = Isa::Va32;
        let add = Instr::alu_rr(Op::Add, Reg(1), Reg(2), Reg(3))
            .encode(isa)
            .unwrap();
        let bad = 0u32; // opcode 0x00 is invalid
        let seg_a: Vec<u8> = [add, bad].iter().flat_map(|w| w.to_le_bytes()).collect();
        // A trailing partial word is no slot.
        let seg_b: Vec<u8> = add.to_le_bytes().into_iter().chain([0xAA, 0xBB]).collect();
        let t = DecodedText::new(isa, [(0x100, &seg_a[..]), (0x1000, &seg_b[..])]);
        assert_eq!(
            t.words().collect::<Vec<_>>(),
            [(0x100, add), (0x104, bad), (0x1000, add)]
        );
        let flipped = add ^ (1 << 20);
        for pc in [
            0x100,
            0x104,
            0x108,
            0x101,
            0x1000,
            0x1004,
            0x0,
            u64::MAX - 3,
        ] {
            for word in [add, bad, flipped, 0xDEAD_BEEF] {
                assert_eq!(t.decode(pc, word), Instr::decode(word, isa), "{pc:#x}");
            }
        }
    }

    proptest! {
        #[test]
        fn decode_never_panics(word in any::<u32>()) {
            let _ = Instr::decode(word, Isa::Va32);
            let _ = Instr::decode(word, Isa::Va64);
        }

        #[test]
        fn decode_encode_is_identity(word in any::<u32>()) {
            // Any word that decodes must re-encode to a word that decodes to
            // the same instruction (ignored bits may differ).
            for isa in [Isa::Va32, Isa::Va64] {
                if let Ok(i) = Instr::decode(word, isa) {
                    let w2 = i.encode(isa).unwrap();
                    prop_assert_eq!(Instr::decode(w2, isa).unwrap(), i);
                }
            }
        }

        #[test]
        fn rr_roundtrip(rd in 0u8..16, rs1 in 0u8..16, rs2 in 0u8..16) {
            let i = Instr::alu_rr(Op::Xor, Reg(rd), Reg(rs1), Reg(rs2));
            let w = i.encode(Isa::Va32).unwrap();
            prop_assert_eq!(Instr::decode(w, Isa::Va32).unwrap(), i);
        }

        #[test]
        fn imm_roundtrip(imm in -8192i64..8192) {
            let i = Instr::alu_imm(Op::Addi, Reg(1), Reg(2), imm);
            let w = i.encode(Isa::Va64).unwrap();
            prop_assert_eq!(Instr::decode(w, Isa::Va64).unwrap().imm, imm);
        }
    }
}

#[cfg(test)]
mod golden_vectors {
    use super::*;
    use crate::instr::Instr;
    use crate::op::Op;
    use crate::reg::Reg;
    use crate::sysreg::SysReg;

    /// Pinned binary encodings: any change to the instruction formats is a
    /// breaking change for saved images and must show up here.
    #[test]
    fn encodings_are_stable() {
        let cases: &[(Instr, u32)] = &[
            (Instr::alu_rr(Op::Add, Reg(1), Reg(2), Reg(3)), 0x0108_8600),
            (Instr::alu_imm(Op::Addi, Reg(4), Reg(5), -1), 0x1121_7FFF),
            (Instr::load(Op::Lw, Reg(6), Reg(7), 8), 0x2431_C008),
            (Instr::store(Op::Sw, Reg(8), Reg(9), -4), 0x2A42_7FFC),
            (Instr::branch(Op::Beq, Reg(1), Reg(2), 16), 0x3008_8004),
            (Instr::jump(Op::Call, -8), 0x38FF_FFFE),
            (Instr::jump_reg(Op::Jmpr, Reg(14)), 0x3B03_8000),
            (Instr::mov_wide(Op::Movz, Reg(3), 0xBEEF, 1), 0x1A1B_7DDE),
            (Instr::sys(Op::Syscall), 0x4000_0000),
            (Instr::sys(Op::Eret), 0x4100_0000),
            (Instr::mfsr(Reg(2), SysReg::Cause), 0x4410_4000),
            (Instr::mtsr(SysReg::Epc, Reg(3)), 0x4500_C000),
        ];
        for (i, want) in cases {
            let got = i.encode(Isa::Va32).unwrap_or_else(|e| panic!("{i}: {e}"));
            assert_eq!(got, *want, "{i} encoded {got:#010x}, pinned {want:#010x}");
        }
    }
}
