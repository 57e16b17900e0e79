//! The fault-model menu every layer injects and the static analyzer
//! reasons about (ARMORY's instruction-level taxonomy).
//!
//! One value names one fault at every layer: the VIR interpreter
//! corrupts a dynamic instruction's destination value, the functional
//! core an architectural register, the OoO core a hardware structure,
//! and the static analyzer reports which instructions each model can
//! subvert. Campaign records, reports, journals and the attack report
//! all spell a model by [`FaultModel::name`].

/// A transient or persistent fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultModel {
    /// Transient single-bit flip (the paper's baseline model).
    BitFlip,
    /// Transient byte-wide corruption: XOR `0xFF` over one aligned byte.
    ByteCorrupt,
    /// One-shot instruction skip: the next instruction executes as a NOP
    /// (the interpreter drops its destination write).
    InstrSkip,
    /// Persistent stuck-at: the faulted cell re-asserts its stuck value
    /// on every subsequent write to the faulted register.
    StuckAt,
}

impl FaultModel {
    /// All four models.
    pub const ALL: [FaultModel; 4] = [
        FaultModel::BitFlip,
        FaultModel::ByteCorrupt,
        FaultModel::InstrSkip,
        FaultModel::StuckAt,
    ];

    /// Stable report/codec name.
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::BitFlip => "bit-flip",
            FaultModel::ByteCorrupt => "byte-corrupt",
            FaultModel::InstrSkip => "instr-skip",
            FaultModel::StuckAt => "stuck-at",
        }
    }

    /// Inverse of [`FaultModel::name`] (journal record decode).
    pub fn from_name(s: &str) -> Option<FaultModel> {
        FaultModel::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Parses a model set: `all`, or comma-separated names.
    ///
    /// # Errors
    ///
    /// The first name that is not a model.
    pub fn parse_list(list: &str) -> Result<Vec<FaultModel>, String> {
        if list == "all" {
            return Ok(FaultModel::ALL.to_vec());
        }
        list.split(',').map(str::parse).collect()
    }

    /// True for models whose corruption is a one-time value change that
    /// a subsequent write fully repairs (the transient *value* models).
    /// Stuck-at re-corrupts on writes; a pending skip is not a value
    /// corruption at all.
    pub fn transient_value(self) -> bool {
        matches!(self, FaultModel::BitFlip | FaultModel::ByteCorrupt)
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FaultModel {
    type Err = String;

    /// Parses [`FaultModel::name`], ignoring surrounding whitespace.
    fn from_str(s: &str) -> Result<FaultModel, String> {
        FaultModel::from_name(s.trim()).ok_or_else(|| {
            format!("unknown fault model {s} (expected bit-flip|byte-corrupt|instr-skip|stuck-at, or all)")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_model_names_roundtrip() {
        for m in FaultModel::ALL {
            assert_eq!(FaultModel::from_name(m.name()), Some(m));
        }
        assert_eq!(FaultModel::from_name("gamma-ray"), None);
    }
}
