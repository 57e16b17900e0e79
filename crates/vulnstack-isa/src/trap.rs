//! Traps: synchronous exceptions and system calls.

/// Why control transferred to the kernel.
///
/// Every cause other than [`TrapCause::Syscall`] is an *error* trap; if one
/// is raised while already in kernel mode the kernel panics, which the
/// fault-effect classifier records as a Crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapCause {
    /// `SYSCALL` executed in user mode.
    Syscall,
    /// The fetched word did not decode to a valid instruction on this ISA.
    UndefinedInstruction,
    /// A memory access was not naturally aligned for its size.
    MisalignedAccess,
    /// A memory access touched an unmapped or protected region.
    AccessFault,
    /// An instruction fetch touched an unmapped or non-executable region.
    FetchFault,
    /// Integer division (or remainder) by zero.
    DivideByZero,
    /// A privileged instruction (`ERET`, `MFSR`, `MTSR`, `HALT`) executed in
    /// user mode.
    PrivilegeViolation,
}

impl TrapCause {
    /// Numeric code stored in the `CAUSE` system register.
    pub fn code(self) -> u64 {
        match self {
            TrapCause::Syscall => 0,
            TrapCause::UndefinedInstruction => 1,
            TrapCause::MisalignedAccess => 2,
            TrapCause::AccessFault => 3,
            TrapCause::FetchFault => 4,
            TrapCause::DivideByZero => 5,
            TrapCause::PrivilegeViolation => 6,
        }
    }

    /// Inverse of [`TrapCause::code`].
    pub fn from_code(c: u64) -> Option<TrapCause> {
        Some(match c {
            0 => TrapCause::Syscall,
            1 => TrapCause::UndefinedInstruction,
            2 => TrapCause::MisalignedAccess,
            3 => TrapCause::AccessFault,
            4 => TrapCause::FetchFault,
            5 => TrapCause::DivideByZero,
            6 => TrapCause::PrivilegeViolation,
            _ => return None,
        })
    }

    /// True for causes that indicate an error (everything except a syscall).
    pub fn is_error(self) -> bool {
        self != TrapCause::Syscall
    }
}

impl std::fmt::Display for TrapCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrapCause::Syscall => "syscall",
            TrapCause::UndefinedInstruction => "undefined instruction",
            TrapCause::MisalignedAccess => "misaligned access",
            TrapCause::AccessFault => "access fault",
            TrapCause::FetchFault => "fetch fault",
            TrapCause::DivideByZero => "divide by zero",
            TrapCause::PrivilegeViolation => "privilege violation",
        };
        f.write_str(s)
    }
}

/// A trap event: cause plus the architectural context the kernel needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// Why the trap occurred.
    pub cause: TrapCause,
    /// PC of the trapping instruction.
    pub pc: u64,
    /// Faulting data/fetch address for memory traps, 0 otherwise.
    pub addr: u64,
}

impl Trap {
    /// Builds a trap with no faulting address.
    pub fn new(cause: TrapCause, pc: u64) -> Trap {
        Trap { cause, pc, addr: 0 }
    }

    /// Builds a memory trap carrying the faulting address.
    pub fn with_addr(cause: TrapCause, pc: u64, addr: u64) -> Trap {
        Trap { cause, pc, addr }
    }
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at pc={:#x} (addr={:#x})",
            self.cause, self.pc, self.addr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_codes_roundtrip() {
        for c in [
            TrapCause::Syscall,
            TrapCause::UndefinedInstruction,
            TrapCause::MisalignedAccess,
            TrapCause::AccessFault,
            TrapCause::FetchFault,
            TrapCause::DivideByZero,
            TrapCause::PrivilegeViolation,
        ] {
            assert_eq!(TrapCause::from_code(c.code()), Some(c));
        }
        assert_eq!(TrapCause::from_code(99), None);
    }

    #[test]
    fn error_classification() {
        assert!(!TrapCause::Syscall.is_error());
        assert!(TrapCause::AccessFault.is_error());
    }
}
