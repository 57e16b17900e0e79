//! # vulnstack-analyze
//!
//! Static binary analysis for VA32/VA64 images — the zero-execution
//! counterpart to the dynamic vulnerability campaigns in `vulnstack-gefin`.
//! Where the injection layers *measure* AVF/PVF by running thousands of
//! faulty simulations, this crate *derives* a pessimistic architectural
//! bound from the compiled text section alone:
//!
//! 1. [`mod@cfg`] recovers per-function control-flow graphs from the raw
//!    encoded words (no execution, no symbols beyond the compiler's
//!    function table), including loop nesting from back-edge detection.
//! 2. [`liveness`] runs a width-aware backward liveness fixed point and a
//!    forward reaching-definitions pass, yielding per-instruction live
//!    register sets and def-use chains.
//! 3. [`pvf`] converts live intervals into a static PVF estimate using a
//!    `10^depth` block-frequency model — an analytical upper bound that
//!    sits above dynamic ACE estimates, which in turn sit above
//!    injection-measured AVF (the paper's §II.A pessimism ordering).
//! 4. [`lint`] reports binary-level hygiene findings: dead stores,
//!    unreachable blocks, undecodable text words, and reads of
//!    never-written registers.
//! 5. [`dataflow`] is the generic worklist solver the fixed-point passes
//!    (liveness, taint) instantiate; [`taint`] answers fault-model-aware
//!    sink reachability; [`attack`] turns it into an attack-surface
//!    report; [`classifier`] proves register-file fault sites Masked
//!    purely statically for the pruning layer.
//!
//! # Example
//!
//! ```
//! use vulnstack_analyze::analyze;
//! use vulnstack_compiler::{compile, CompileOpts};
//! use vulnstack_isa::Isa;
//! use vulnstack_vir::ModuleBuilder;
//!
//! let mut mb = ModuleBuilder::new("m");
//! let mut f = mb.function("main", 0);
//! f.sys_exit(0);
//! f.ret(None);
//! mb.finish_function(f);
//! let module = mb.finish().unwrap();
//! let compiled = compile(&module, Isa::Va64, &CompileOpts::default()).unwrap();
//!
//! let sa = analyze(&compiled);
//! assert!(sa.pvf.rf_pvf > 0.0 && sa.pvf.rf_pvf <= 1.0);
//! assert!(sa.cfg.undecodable.is_empty());
//! ```

pub mod attack;
pub mod cfg;
pub mod classifier;
pub mod dataflow;
pub mod lint;
pub mod liveness;
pub mod pvf;
pub mod taint;

pub use attack::{attack_surface, AttackFinding, AttackReport, FindingKind};
pub use cfg::{
    build_cfg, build_cfg_segments, build_kernel_cfg, call_graph, CallGraph, ModuleCfg, TextSegment,
};
pub use classifier::StaticClassifier;
pub use lint::{lint_module, Lint, LintKind};
pub use liveness::{analyze_func, analyze_module, FuncLiveness, ModuleLiveness};
pub use pvf::{static_pvf, StaticPvf};
pub use taint::{module_taint, SinkSet};

use vulnstack_compiler::CompiledModule;

/// Complete static-analysis results for one compiled module.
#[derive(Debug, Clone)]
pub struct StaticAnalysis {
    /// Recovered control-flow graphs.
    pub cfg: ModuleCfg,
    /// Per-function liveness, parallel to `cfg.funcs`.
    pub liveness: Vec<FuncLiveness>,
    /// Static PVF estimate.
    pub pvf: StaticPvf,
    /// Lint findings.
    pub lints: Vec<Lint>,
}

impl StaticAnalysis {
    /// Serializes the analysis as a JSON object, newline-terminated,
    /// for the CLI's `--json` flag.
    pub fn to_json(&self) -> String {
        use vulnstack_core::json::{self, fixed, n, ordered, s, Value};
        let funcs = self.pvf.per_func.iter().map(|(name, fpvf, weight)| {
            ordered(vec![
                ("name", s(name)),
                ("pvf", fixed(*fpvf, 6)),
                ("weight", fixed(*weight, 3)),
            ])
        });
        let lints = self.lints.iter().map(|l| Value::Str(l.to_string()));
        json::write(&ordered(vec![
            ("isa", s(self.cfg.isa.name())),
            ("rf_pvf", fixed(self.pvf.rf_pvf, 6)),
            ("undecodable_words", n(self.cfg.undecodable.len() as u64)),
            ("funcs", Value::Arr(funcs.collect())),
            ("lints", Value::Arr(lints.collect())),
        ])) + "\n"
    }

    /// A short human-readable summary (used by the CLI `analyze`
    /// subcommand and the bench binaries).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let ninstr: usize = self.cfg.funcs.iter().map(|f| f.instrs.len()).sum();
        let nblocks: usize = self.cfg.funcs.iter().map(|f| f.blocks.len()).sum();
        let max_depth = self
            .cfg
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter().map(|b| b.loop_depth))
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            s,
            "{}: {} funcs, {} instrs, {} blocks, max loop depth {}",
            self.cfg.isa.name(),
            self.cfg.funcs.len(),
            ninstr,
            nblocks,
            max_depth
        );
        let _ = writeln!(
            s,
            "static RF PVF {:.4} ({} undecodable words, {} lints)",
            self.pvf.rf_pvf,
            self.cfg.undecodable.len(),
            self.lints.len()
        );
        s
    }
}

/// Runs the full static pipeline — CFG recovery, liveness, static PVF,
/// lints — on a compiled module, executing zero instructions.
pub fn analyze(compiled: &CompiledModule) -> StaticAnalysis {
    let cfg = build_cfg(compiled);
    let liveness: Vec<FuncLiveness> = cfg.funcs.iter().map(|f| analyze_func(f, cfg.isa)).collect();
    let pvf = static_pvf(&cfg, &liveness);
    let lints = lint_module(&cfg, &liveness);
    StaticAnalysis {
        cfg,
        liveness,
        pvf,
        lints,
    }
}
