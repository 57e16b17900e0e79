//! Core configurations mirroring the paper's Table II.

use vulnstack_isa::Isa;

/// The four simulated microprocessor models (paper Table II analogues).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreModel {
    /// Cortex-A9-like: VA32, 2-wide, small windows, 512 KiB L2.
    A9,
    /// Cortex-A15-like: VA32, 3-wide, 1 MiB L2.
    A15,
    /// Cortex-A57-like: VA64, 3-wide, big windows, 1 MiB L2.
    A57,
    /// Cortex-A72-like: VA64, 3-wide, big windows, 2 MiB L2.
    A72,
}

impl CoreModel {
    /// All four models.
    pub const ALL: [CoreModel; 4] = [
        CoreModel::A9,
        CoreModel::A15,
        CoreModel::A57,
        CoreModel::A72,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            CoreModel::A9 => "A9",
            CoreModel::A15 => "A15",
            CoreModel::A57 => "A57",
            CoreModel::A72 => "A72",
        }
    }

    /// The full configuration for this model.
    pub fn config(self) -> CoreConfig {
        CoreConfig::for_model(self)
    }
}

impl std::fmt::Display for CoreModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CoreModel {
    type Err = String;

    /// Parses [`CoreModel::name`] in any letter case.
    fn from_str(s: &str) -> Result<CoreModel, String> {
        CoreModel::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown model {s}"))
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: u32,
    /// Associativity (ways).
    pub ways: u32,
    /// Line size in bytes.
    pub line: u32,
    /// Hit latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size / (self.ways * self.line)
    }

    /// Total data bits in the array (the fault-injection target
    /// population).
    pub fn data_bits(&self) -> u64 {
        self.size as u64 * 8
    }
}

/// Full microarchitectural configuration of a simulated core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Which model this is.
    pub model: CoreModel,
    /// Target ISA.
    pub isa: Isa,
    /// Fetch/decode/rename/commit width.
    pub width: u32,
    /// Reorder buffer entries.
    pub rob_entries: u32,
    /// Issue queue entries.
    pub iq_entries: u32,
    /// Load-queue entries.
    pub lq_entries: u32,
    /// Store-queue entries.
    pub sq_entries: u32,
    /// Physical integer registers.
    pub phys_regs: u32,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Main-memory access latency (cycles).
    pub mem_latency: u32,
    /// Branch predictor table entries (bimodal).
    pub bp_entries: u32,
    /// Branch target buffer entries.
    pub btb_entries: u32,
}

impl CoreConfig {
    /// The configuration for `model` (paper Table II analogue).
    pub fn for_model(model: CoreModel) -> CoreConfig {
        let l1 = |size: u32| CacheConfig {
            size,
            ways: 4,
            line: 64,
            latency: 2,
        };
        let l2 = |size: u32, latency: u32| CacheConfig {
            size,
            ways: 16,
            line: 64,
            latency,
        };
        match model {
            CoreModel::A9 => CoreConfig {
                model,
                isa: Isa::Va32,
                width: 2,
                rob_entries: 40,
                iq_entries: 20,
                lq_entries: 16,
                sq_entries: 16,
                phys_regs: 56,
                l1i: l1(32 * 1024),
                l1d: l1(32 * 1024),
                l2: l2(512 * 1024, 8),
                mem_latency: 80,
                bp_entries: 2048,
                btb_entries: 512,
            },
            CoreModel::A15 => CoreConfig {
                model,
                isa: Isa::Va32,
                width: 3,
                rob_entries: 60,
                iq_entries: 32,
                lq_entries: 16,
                sq_entries: 16,
                phys_regs: 90,
                l1i: l1(32 * 1024),
                l1d: l1(32 * 1024),
                l2: l2(1024 * 1024, 10),
                mem_latency: 90,
                bp_entries: 4096,
                btb_entries: 1024,
            },
            CoreModel::A57 => CoreConfig {
                model,
                isa: Isa::Va64,
                width: 3,
                rob_entries: 128,
                iq_entries: 32,
                lq_entries: 16,
                sq_entries: 16,
                phys_regs: 128,
                l1i: CacheConfig {
                    size: 48 * 1024,
                    ways: 3,
                    line: 64,
                    latency: 2,
                },
                l1d: l1(32 * 1024),
                l2: l2(1024 * 1024, 10),
                mem_latency: 90,
                bp_entries: 4096,
                btb_entries: 1024,
            },
            CoreModel::A72 => CoreConfig {
                model,
                isa: Isa::Va64,
                width: 3,
                rob_entries: 128,
                iq_entries: 64,
                lq_entries: 16,
                sq_entries: 16,
                phys_regs: 128,
                l1i: CacheConfig {
                    size: 48 * 1024,
                    ways: 3,
                    line: 64,
                    latency: 2,
                },
                l1d: l1(32 * 1024),
                l2: l2(2048 * 1024, 12),
                mem_latency: 100,
                bp_entries: 8192,
                btb_entries: 2048,
            },
        }
    }

    /// Bits in the physical register file (injection population).
    pub fn rf_bits(&self) -> u64 {
        self.phys_regs as u64 * self.isa.xlen() as u64
    }

    /// Bits in the LSQ storage (injection population): load-queue entries
    /// hold an address; store-queue entries hold an address and a data
    /// word.
    pub fn lsq_bits(&self) -> u64 {
        let x = self.isa.xlen() as u64;
        self.lq_entries as u64 * x + self.sq_entries as u64 * 2 * x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_models_have_expected_isas() {
        assert_eq!(CoreModel::A9.config().isa, Isa::Va32);
        assert_eq!(CoreModel::A15.config().isa, Isa::Va32);
        assert_eq!(CoreModel::A57.config().isa, Isa::Va64);
        assert_eq!(CoreModel::A72.config().isa, Isa::Va64);
    }

    #[test]
    fn cache_geometry_is_consistent() {
        for m in CoreModel::ALL {
            let c = m.config();
            for cc in [c.l1i, c.l1d, c.l2] {
                assert_eq!(cc.sets() * cc.ways * cc.line, cc.size, "{m}");
                assert!(
                    cc.sets().is_power_of_two(),
                    "{m}: sets must be a power of two"
                );
            }
        }
    }

    #[test]
    fn l2_sizes_scale_across_models() {
        assert!(CoreModel::A9.config().l2.size < CoreModel::A15.config().l2.size);
        assert!(CoreModel::A57.config().l2.size < CoreModel::A72.config().l2.size);
    }

    #[test]
    fn bit_populations() {
        let c = CoreModel::A9.config();
        assert_eq!(c.rf_bits(), 56 * 32);
        assert_eq!(c.lsq_bits(), 16 * 32 + 16 * 64);
        assert_eq!(c.l2.data_bits(), 512 * 1024 * 8);
    }
}
