//! Architectural register identifiers.

/// An architectural general-purpose register index.
///
/// The index space is 5 bits wide in the encoding; which indices are valid
/// depends on the [`Isa`](crate::Isa) (`Va32` has 16 registers, `Va64` 32
/// including the zero register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// Register index as `usize` for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u8> for Reg {
    fn from(v: u8) -> Self {
        Reg(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(Reg(7).to_string(), "r7");
        assert_eq!(Reg(31).index(), 31);
        assert_eq!(Reg::from(5u8), Reg(5));
    }
}
