//! The two VulnArm ISA variants and their architectural parameters.

use crate::reg::Reg;

/// An instruction-set architecture variant.
///
/// The vulnerability study compares the same source workloads compiled for
/// two ISAs; register count and word width change code density, register
/// pressure (spills), and cache utilisation — all of which feed into the
/// hardware vulnerability of the structures holding that state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isa {
    /// 32-bit ISA with 16 architectural registers (Armv7 stand-in).
    Va32,
    /// 64-bit ISA with 31 architectural registers plus a zero register
    /// (Armv8 stand-in).
    Va64,
}

impl Isa {
    /// Architectural word width in bits.
    pub fn xlen(self) -> u32 {
        match self {
            Isa::Va32 => 32,
            Isa::Va64 => 64,
        }
    }

    /// Architectural word width in bytes.
    pub fn word_bytes(self) -> u64 {
        (self.xlen() / 8) as u64
    }

    /// Number of addressable architectural general-purpose registers.
    ///
    /// For [`Isa::Va64`] this includes the zero register (index 31), which
    /// reads as zero and discards writes.
    pub fn num_regs(self) -> u8 {
        match self {
            Isa::Va32 => 16,
            Isa::Va64 => 32,
        }
    }

    /// The stack pointer register for the standard ABI.
    pub fn sp(self) -> Reg {
        match self {
            Isa::Va32 => Reg(13),
            Isa::Va64 => Reg(29),
        }
    }

    /// The link register written by `CALL`/`CALLR`.
    pub fn lr(self) -> Reg {
        match self {
            Isa::Va32 => Reg(14),
            Isa::Va64 => Reg(30),
        }
    }

    /// The hard-wired zero register, if the ISA has one.
    pub fn zero(self) -> Option<Reg> {
        match self {
            Isa::Va32 => None,
            Isa::Va64 => Some(Reg(31)),
        }
    }

    /// Returns true if `r` is a valid architectural register for this ISA.
    pub fn reg_valid(self, r: Reg) -> bool {
        r.0 < self.num_regs()
    }

    /// Truncates `v` to the architectural word width (sign bits dropped).
    pub fn truncate(self, v: u64) -> u64 {
        match self {
            Isa::Va32 => v & 0xffff_ffff,
            Isa::Va64 => v,
        }
    }

    /// Sign-extends the architectural word `v` to 64 bits for host-side
    /// signed arithmetic.
    pub fn sext(self, v: u64) -> i64 {
        match self {
            Isa::Va32 => v as u32 as i32 as i64,
            Isa::Va64 => v as i64,
        }
    }

    /// Short lowercase name used in reports (`va32` / `va64`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Va32 => "va32",
            Isa::Va64 => "va64",
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Isa {
    type Err = String;

    /// Parses [`Isa::name`].
    fn from_str(s: &str) -> Result<Isa, String> {
        [Isa::Va32, Isa::Va64]
            .into_iter()
            .find(|i| i.name() == s)
            .ok_or_else(|| format!("unknown isa {s} (expected va32|va64)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(Isa::Va32.xlen(), 32);
        assert_eq!(Isa::Va64.xlen(), 64);
        assert_eq!(Isa::Va32.word_bytes(), 4);
        assert_eq!(Isa::Va64.word_bytes(), 8);
    }

    #[test]
    fn special_regs_are_valid() {
        for isa in [Isa::Va32, Isa::Va64] {
            assert!(isa.reg_valid(isa.sp()));
            assert!(isa.reg_valid(isa.lr()));
            if let Some(z) = isa.zero() {
                assert!(isa.reg_valid(z));
            }
        }
    }

    #[test]
    fn truncate_and_sext() {
        assert_eq!(Isa::Va32.truncate(0x1_2345_6789), 0x2345_6789);
        assert_eq!(Isa::Va64.truncate(u64::MAX), u64::MAX);
        assert_eq!(Isa::Va32.sext(0xffff_ffff), -1);
        assert_eq!(Isa::Va32.sext(0x7fff_ffff), 0x7fff_ffff);
        assert_eq!(Isa::Va64.sext(u64::MAX), -1);
    }

    #[test]
    fn va32_rejects_high_registers() {
        assert!(Isa::Va32.reg_valid(Reg(15)));
        assert!(!Isa::Va32.reg_valid(Reg(16)));
        assert!(Isa::Va64.reg_valid(Reg(31)));
        assert!(!Isa::Va64.reg_valid(Reg(32)));
    }
}
