//! The standard calling convention and system-call ABI shared by the
//! compiler, the mini-kernel and the simulators.

use crate::isa::Isa;
use crate::reg::Reg;

/// System calls provided by the mini-kernel.
///
/// The syscall number is passed in the ABI's syscall register (see
/// [`CallConv::syscall_num`]), arguments in the first argument registers,
/// and the result comes back in the first argument register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Syscall {
    /// `exit(code)` — terminate the program.
    Exit = 1,
    /// `write(ptr, len)` — append `len` bytes at `ptr` to the program
    /// output stream (kernel copies them into the DMA-drained output
    /// accumulation region).
    Write = 2,
    /// `read(ptr, len) -> copied` — copy up to `len` bytes of remaining
    /// program input to `ptr`; returns the number of bytes copied.
    Read = 3,
    /// `brk(delta) -> old_break` — grow the heap by `delta` bytes and
    /// return the previous break address.
    Brk = 4,
    /// `detect(code)` — a software fault-tolerance check failed; terminate
    /// and record a Detected outcome.
    Detect = 5,
}

impl Syscall {
    /// Numeric syscall identifier.
    pub fn number(self) -> u64 {
        self as u64
    }

    /// Decodes a syscall number.
    pub fn from_number(n: u64) -> Option<Syscall> {
        Some(match n {
            1 => Syscall::Exit,
            2 => Syscall::Write,
            3 => Syscall::Read,
            4 => Syscall::Brk,
            5 => Syscall::Detect,
            _ => return None,
        })
    }
}

/// The calling convention for an ISA.
///
/// Argument registers are caller-saved; everything in `callee_saved` must be
/// preserved across calls. The syscall number register is distinct from the
/// argument registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallConv {
    isa: Isa,
}

impl CallConv {
    /// The calling convention for `isa`.
    pub fn new(isa: Isa) -> CallConv {
        CallConv { isa }
    }

    /// The ISA this convention belongs to.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Registers used to pass the first arguments (and return values in
    /// `arg(0)`).
    pub fn args(&self) -> Vec<Reg> {
        match self.isa {
            Isa::Va32 => (0..4).map(Reg).collect(),
            Isa::Va64 => (0..6).map(Reg).collect(),
        }
    }

    /// The i-th argument register.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the number of argument registers.
    pub fn arg(&self, i: usize) -> Reg {
        self.args()[i]
    }

    /// The return-value register.
    pub fn ret(&self) -> Reg {
        Reg(0)
    }

    /// The register carrying the syscall number.
    pub fn syscall_num(&self) -> Reg {
        match self.isa {
            Isa::Va32 => Reg(7),
            Isa::Va64 => Reg(8),
        }
    }

    /// Caller-saved (volatile) registers, excluding SP/LR.
    pub fn caller_saved(&self) -> Vec<Reg> {
        match self.isa {
            // r0..=r7: args + syscall + temps.
            Isa::Va32 => (0..8).map(Reg).collect(),
            // x0..=x15.
            Isa::Va64 => (0..16).map(Reg).collect(),
        }
    }

    /// Callee-saved (non-volatile) registers.
    pub fn callee_saved(&self) -> Vec<Reg> {
        match self.isa {
            // r8..=r12, r15 (r13=sp, r14=lr).
            Isa::Va32 => vec![Reg(8), Reg(9), Reg(10), Reg(11), Reg(12), Reg(15)],
            // x16..=x28 (x29=sp, x30=lr, x31=zero).
            Isa::Va64 => (16..29).map(Reg).collect(),
        }
    }

    /// All registers available to the register allocator (caller + callee
    /// saved; excludes SP, LR and the zero register).
    pub fn allocatable(&self) -> Vec<Reg> {
        let mut v = self.caller_saved();
        v.extend(self.callee_saved());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscall_numbers_roundtrip() {
        for s in [
            Syscall::Exit,
            Syscall::Write,
            Syscall::Read,
            Syscall::Brk,
            Syscall::Detect,
        ] {
            assert_eq!(Syscall::from_number(s.number()), Some(s));
        }
        assert_eq!(Syscall::from_number(0), None);
        assert_eq!(Syscall::from_number(99), None);
    }

    #[test]
    fn conventions_do_not_overlap_special_regs() {
        for isa in [Isa::Va32, Isa::Va64] {
            let cc = CallConv::new(isa);
            for r in cc.allocatable() {
                assert_ne!(r, isa.sp(), "{isa}: sp is not allocatable");
                assert_ne!(r, isa.lr(), "{isa}: lr is not allocatable");
                if let Some(z) = isa.zero() {
                    assert_ne!(r, z, "{isa}: zero is not allocatable");
                }
                assert!(isa.reg_valid(r));
            }
        }
    }

    #[test]
    fn caller_and_callee_saved_are_disjoint() {
        for isa in [Isa::Va32, Isa::Va64] {
            let cc = CallConv::new(isa);
            for r in cc.caller_saved() {
                assert!(!cc.callee_saved().contains(&r), "{isa}: {r} in both sets");
            }
        }
    }

    #[test]
    fn args_are_caller_saved() {
        for isa in [Isa::Va32, Isa::Va64] {
            let cc = CallConv::new(isa);
            for a in cc.args() {
                assert!(cc.caller_saved().contains(&a));
            }
            assert!(cc.caller_saved().contains(&cc.syscall_num()));
        }
    }
}
