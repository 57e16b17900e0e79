//! Terminal outcomes of full-system simulation runs.

/// Why a full-system run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Program called `exit(code)`.
    Exited(i32),
    /// A software fault-tolerance check fired (`detect(code)`).
    Detected(i32),
    /// The kernel reported a fatal trap or invalid syscall (the stored
    /// code is the trap cause / syscall number).
    Crashed(u32),
    /// A trap was raised while already in kernel mode (kernel panic), or
    /// the kernel itself misbehaved.
    KernelPanic,
    /// The run exceeded its cycle/instruction budget (hang, livelock).
    Timeout,
}

impl RunStatus {
    /// True for any crash-class ending (kernel-reported crash, panic, or
    /// timeout) — the paper's "Crash" fault-effect class.
    pub fn is_crash(self) -> bool {
        matches!(
            self,
            RunStatus::Crashed(_) | RunStatus::KernelPanic | RunStatus::Timeout
        )
    }
}

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunStatus::Exited(c) => write!(f, "exited({c})"),
            RunStatus::Detected(c) => write!(f, "detected({c})"),
            RunStatus::Crashed(c) => write!(f, "crashed(cause {c})"),
            RunStatus::KernelPanic => f.write_str("kernel panic"),
            RunStatus::Timeout => f.write_str("timeout (watchdog/budget)"),
        }
    }
}

/// Result of one full-system run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Terminal status.
    pub status: RunStatus,
    /// Program output drained from the output region (via DMA on the
    /// cycle-level core, from flat memory on the functional core).
    pub output: Vec<u8>,
    /// Dynamic instructions executed (committed, for the OoO core).
    pub instrs: u64,
    /// Cycles simulated (equals `instrs` on the functional core).
    pub cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_classification() {
        assert!(RunStatus::Crashed(3).is_crash());
        assert!(RunStatus::KernelPanic.is_crash());
        assert!(RunStatus::Timeout.is_crash());
        assert!(!RunStatus::Exited(0).is_crash());
        assert!(!RunStatus::Detected(1).is_crash());
    }
}
