//! # vulnstack-gefin
//!
//! Statistical fault-injection campaigns in the style of GeFIN (the
//! paper's gem5-based injector):
//!
//! * **AVF/HVF campaigns** ([`avf`]) — single-bit transient faults in the
//!   physical register file, the LSQ, or a cache data array of the
//!   cycle-level out-of-order core, uniformly sampled over (bit × cycle)
//!   as in Leveugle et al. Each run yields both the end-to-end fault
//!   effect (AVF) and the first architectural manifestation (HVF + FPM).
//! * **PVF campaigns** ([`pvf`]) — persistent single-bit faults in
//!   *architectural* state (registers, program-flow memory, or encoded
//!   instructions split into WD / WOI / WI populations), executed on the
//!   functional full-system core, kernel included.
//!
//! Campaigns are deterministic for a given seed and embarrassingly
//! parallel: fault sites are pre-drawn, sorted by injection cycle for
//! checkpoint locality, and run by the shared campaign executor
//! (`vulnstack_core::campaign`), which reports every record by its site
//! index — so the records are bit-identical at any thread count,
//! journaled or not.
//! Microarchitectural and architectural runs warm-start from golden-run
//! checkpoints (`vulnstack_microarch::snapshot`) instead of re-simulating
//! the fault-free prefix from cycle or instruction 0.

pub mod ace;
pub mod avf;
pub mod compare;
pub mod prepare;
pub mod prune;
pub mod pvf;
pub mod report;
pub mod sweep;

pub use ace::ace_analysis;
pub use avf::{
    avf_campaign, canonical_models, decode_record, draw_model_sites, draw_sites, encode_record,
    per_model_tallies, run_one_model, run_one_traced, AvfStreamed, InjectEngine, InjectionRecord,
    ModelSite,
};
pub use compare::{static_vs_dynamic, StaticDynamicComparison};
pub use prepare::{FuncPrepared, Prepared};
pub use prune::{
    plan_model_sites, static_classifier, ClassKey, ClassTable, InjectionPlan, PruneStats, Pruner,
    SiteClass,
};
pub use pvf::{pvf_campaign, PvfMode, PvfStreamed};
pub use report::{avf_report_json, ModelReport};
pub use sweep::{temporal_campaign, TemporalProfile, TemporalStreamed};

/// Parses an env knob, distinguishing *unset* (silent fallback) from
/// *malformed* (warn on stderr, then fall back): a typo'd
/// `VULNSTACK_FAULTS=2k` must not silently run a different experiment
/// than the one asked for.
fn env_knob<T: std::str::FromStr>(name: &str, what: &str) -> Option<T> {
    let v = std::env::var(name).ok()?;
    match v.parse::<T>() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("warning: ignoring {name}={v:?}: not a valid {what}; using default");
            None
        }
    }
}

/// Returns the number of worker threads to use: `VULNSTACK_THREADS` or
/// the available parallelism (capped at 16). A malformed value warns on
/// stderr and falls back.
pub fn default_threads() -> usize {
    if let Some(n) = env_knob::<usize>("VULNSTACK_THREADS", "thread count") {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(16)
}

/// Returns the per-structure fault count: `VULNSTACK_FAULTS` or the given
/// default. The paper used 2,000; the bench harness defaults lower to
/// keep full-figure reproduction runs tractable. A malformed value warns
/// on stderr and falls back.
pub fn default_faults(default: usize) -> usize {
    if let Some(n) = env_knob::<usize>("VULNSTACK_FAULTS", "fault count") {
        return n.max(1);
    }
    default
}

/// Returns the master campaign seed: `VULNSTACK_SEED` or 2021. A
/// malformed value warns on stderr and falls back.
pub fn default_seed() -> u64 {
    env_knob::<u64>("VULNSTACK_SEED", "seed").unwrap_or(2021)
}

#[cfg(test)]
mod tests {
    use super::env_knob;

    #[test]
    fn env_knob_tells_unset_malformed_and_valid_apart() {
        // A variable no other test reads: tests run on parallel threads
        // and share the process environment.
        const KNOB: &str = "VULNSTACK_TEST_ENV_KNOB_PROBE";
        std::env::remove_var(KNOB);
        assert_eq!(env_knob::<u64>(KNOB, "probe"), None);
        std::env::set_var(KNOB, "0x10");
        assert_eq!(env_knob::<u64>(KNOB, "probe"), None);
        std::env::set_var(KNOB, "16");
        assert_eq!(env_knob::<u64>(KNOB, "probe"), Some(16));
        std::env::remove_var(KNOB);
    }
}
