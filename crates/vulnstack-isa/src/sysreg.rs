//! System registers used by the mini-kernel for trap handling.

/// A privileged system register, accessed via `MFSR`/`MTSR` (kernel mode
/// only; user-mode access raises a privilege violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SysReg {
    /// Exception PC — address of the trapping instruction (or the
    /// instruction after `SYSCALL`).
    Epc = 0,
    /// Trap cause code (see [`TrapCause::code`](crate::trap::TrapCause)).
    Cause = 1,
    /// Faulting address for memory traps.
    BadAddr = 2,
    /// Kernel scratch register 0.
    Scratch0 = 3,
    /// Kernel scratch register 1.
    Scratch1 = 4,
    /// Saved user stack pointer across kernel entry.
    Usp = 5,
    /// Kernel stack pointer loaded on kernel entry.
    Ksp = 6,
}

impl SysReg {
    /// All system registers.
    pub const ALL: &'static [SysReg] = &[
        SysReg::Epc,
        SysReg::Cause,
        SysReg::BadAddr,
        SysReg::Scratch0,
        SysReg::Scratch1,
        SysReg::Usp,
        SysReg::Ksp,
    ];

    /// Number of system registers.
    pub const COUNT: usize = 7;

    /// Index in the encoding's 5-bit sysreg field.
    pub fn index(self) -> u8 {
        self as u8
    }

    /// Decodes a sysreg field value.
    pub fn from_index(i: u8) -> Option<SysReg> {
        SysReg::ALL.get(i as usize).copied()
    }
}

impl std::fmt::Display for SysReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SysReg::Epc => "epc",
            SysReg::Cause => "cause",
            SysReg::BadAddr => "badaddr",
            SysReg::Scratch0 => "scratch0",
            SysReg::Scratch1 => "scratch1",
            SysReg::Usp => "usp",
            SysReg::Ksp => "ksp",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for &sr in SysReg::ALL {
            assert_eq!(SysReg::from_index(sr.index()), Some(sr));
        }
        assert_eq!(SysReg::from_index(SysReg::COUNT as u8), None);
        assert_eq!(SysReg::ALL.len(), SysReg::COUNT);
    }
}
