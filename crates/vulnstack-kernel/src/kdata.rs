//! Layout of the kernel data page and run-status codes.

/// Byte offsets of kernel variables within
/// [`KERNEL_DATA`](crate::memmap::KERNEL_DATA). All are 32-bit words.
pub mod off {
    /// Run status ([`super::KStatus`] as a word).
    pub const STATUS: i64 = 0;
    /// Exit code, detect code, or trap cause.
    pub const CODE: i64 = 4;
    /// Bytes accumulated in the output region.
    pub const OUTLEN: i64 = 8;
    /// Input read cursor.
    pub const INPOS: i64 = 12;
    /// Total input length (set at image build).
    pub const INLEN: i64 = 16;
    /// Current user heap break (set at image build).
    pub const BRK: i64 = 20;
    /// Scratch word used by syscall handlers.
    pub const TMP0: i64 = 24;
    /// Register save area (ISA word-sized slots).
    pub const SAVE: i64 = 32;
}

/// Terminal status of a full-system run, written by the kernel before
/// `HALT` (or by the simulator on hardware-detected double faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum KStatus {
    /// Still running (initial value).
    Running = 0,
    /// Clean `exit(code)`.
    Exited = 1,
    /// Error trap, invalid syscall, or kernel panic.
    Crashed = 2,
    /// Software fault-tolerance check fired (`detect(code)`).
    Detected = 3,
}

impl KStatus {
    /// Decodes the status word.
    pub fn from_word(w: u32) -> Option<KStatus> {
        Some(match w {
            0 => KStatus::Running,
            1 => KStatus::Exited,
            2 => KStatus::Crashed,
            3 => KStatus::Detected,
            _ => return None,
        })
    }

    /// Encodes to the status word.
    pub fn word(self) -> u32 {
        self as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_roundtrip() {
        for s in [
            KStatus::Running,
            KStatus::Exited,
            KStatus::Crashed,
            KStatus::Detected,
        ] {
            assert_eq!(KStatus::from_word(s.word()), Some(s));
        }
        assert_eq!(KStatus::from_word(9), None);
    }

    #[test]
    fn offsets_do_not_collide_with_save_area() {
        const {
            assert!(off::TMP0 < off::SAVE);
            assert!(off::SAVE >= 32);
        }
    }
}
