//! Uniform campaign-engine dispatch.
//!
//! Each of the workspace's campaign entry points (plus the hardened SVF
//! variant) is wrapped in one object-safe [`CampaignEngine`]
//! implementation, so the daemon runs every campaign the same way: look the engine up by name,
//! hand it the spec plus a [`RunCtx`] carrying the journal path, the
//! fair-share admission gate and the record tee, and collect a
//! [`RunOutput`]. Nothing engine-specific leaks into the daemon loop.
//!
//! Every run is journal-backed (`ResumeOrStart`): a campaign interrupted
//! by cancellation or a daemon crash resumes bit-identically from its
//! journal on the next run of the same spec.

use std::path::Path;

use vulnstack_core::sched::ClaimGate;
use vulnstack_core::{JournalOpts, RecordTee, ResumeMode, ResumeStats, RunPolicy, StreamOpts};
use vulnstack_gefin::{
    avf_campaign, avf_report_json, pvf_campaign, temporal_campaign, FuncPrepared, InjectionPlan,
    Prepared, PvfMode,
};
use vulnstack_llfi::svf_campaign;
use vulnstack_workloads::Workload;

use crate::json::{self, obj, Value};
use crate::spec::{CampaignSpec, Engine};

/// Per-run context supplied by the daemon: where the journal lives, how
/// many worker threads the engine may spawn, and the shared-pool gate
/// and subscriber tee threaded through [`StreamOpts`].
pub struct RunCtx<'a> {
    pub journal: &'a Path,
    pub threads: usize,
    pub gate: Option<&'a dyn ClaimGate>,
    pub tee: Option<RecordTee<'a>>,
}

impl std::fmt::Debug for RunCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCtx")
            .field("journal", &self.journal)
            .field("threads", &self.threads)
            .field("gate", &self.gate.map(|_| "<dyn ClaimGate>"))
            .field("tee", &self.tee.map(|_| "<dyn Fn>"))
            .finish()
    }
}

/// What a finished (or stopped) campaign run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The final machine-readable report, newline-terminated. For the
    /// `avf` engine this is byte-identical to `vulnstack avf --json`.
    pub report: String,
    /// Replay/execute accounting from the journal layer.
    pub stats: ResumeStats,
    /// Sites quarantined after repeated panics.
    pub quarantined: usize,
    /// True when the admission gate stopped the run early (cancellation
    /// or shutdown); the journal holds the completed prefix.
    pub stopped: bool,
}

/// One campaign engine behind the uniform dispatch.
pub trait CampaignEngine: Send + Sync {
    /// The engine name a spec selects (`avf`, `pvf`, ...).
    fn name(&self) -> &'static str;
    /// Runs the campaign to completion (or to a gate stop).
    fn run(&self, spec: &CampaignSpec, ctx: &RunCtx<'_>) -> Result<RunOutput, String>;
}

impl std::fmt::Debug for dyn CampaignEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CampaignEngine({})", self.name())
    }
}

/// The engine registry. Dispatch is by name; the set is closed and
/// mirrors [`Engine::ALL`].
pub fn engines() -> &'static [&'static dyn CampaignEngine] {
    &[
        &AvfEngine,
        &PvfEngine,
        &SweepEngine,
        &SvfEngine,
        &SvfHardenedEngine,
    ]
}

/// Looks an engine up by its spec name.
pub fn engine_for(e: Engine) -> &'static dyn CampaignEngine {
    engines()
        .iter()
        .copied()
        .find(|eng| eng.name() == e.name())
        .expect("every Engine variant has a registered CampaignEngine")
}

fn build_workload(spec: &CampaignSpec) -> Result<Workload, String> {
    let base = spec.workload.build();
    if spec.hardened && spec.engine != Engine::SvfHardened {
        let module = vulnstack_ft::harden(&base.module).map_err(|e| e.to_string())?;
        Ok(Workload { module, ..base })
    } else {
        Ok(base)
    }
}

fn journal_opts<'a>(ctx: &'a RunCtx<'_>, label: &'a str) -> JournalOpts<'a> {
    JournalOpts {
        path: ctx.journal,
        mode: ResumeMode::ResumeOrStart,
        policy: RunPolicy::default(),
        workload: label,
    }
}

fn stream_opts<'a>(ctx: &'a RunCtx<'_>) -> StreamOpts<'a> {
    StreamOpts {
        gate: ctx.gate,
        tee: ctx.tee,
        ..StreamOpts::from_env()
    }
}

/// A canonical summary report for the non-AVF engines: tally plus
/// engine/workload identity, serialized with sorted keys so repeated
/// runs compare bytewise.
fn tally_report(
    engine: &str,
    label: &str,
    extra: Vec<(&str, Value)>,
    tally: &vulnstack_core::Tally,
) -> String {
    let mut fields = vec![
        ("engine", json::s(engine)),
        ("workload", json::s(label)),
        ("injections", json::n(tally.total())),
        ("masked", json::n(tally.masked)),
        ("sdc", json::n(tally.sdc)),
        ("crash", json::n(tally.crash)),
        ("detected", json::n(tally.detected)),
    ];
    fields.extend(extra);
    json::write(&obj(fields)) + "\n"
}

struct AvfEngine;

impl CampaignEngine for AvfEngine {
    fn name(&self) -> &'static str {
        "avf"
    }

    fn run(&self, spec: &CampaignSpec, ctx: &RunCtx<'_>) -> Result<RunOutput, String> {
        let w = build_workload(spec)?;
        let label = spec.label();
        let prep = Prepared::new(&w, spec.model).map_err(|e| e.to_string())?;
        let plan = InjectionPlan::Sampled {
            n: spec.faults,
            seed: spec.seed,
        };
        let journal = journal_opts(ctx, &label);
        let (r, _prune) = avf_campaign(
            &prep,
            spec.structure,
            &plan,
            &spec.models,
            ctx.threads,
            Some(&journal),
            stream_opts(ctx),
            None,
        )
        .map_err(|e| e.to_string())?;
        let model_report = vec![(spec.structure.name(), r.per_model)];
        Ok(RunOutput {
            report: avf_report_json(&label, &plan, &model_report),
            stopped: r.stats.stopped,
            stats: r.stats,
            quarantined: r.quarantined.len(),
        })
    }
}

struct PvfEngine;

impl CampaignEngine for PvfEngine {
    fn name(&self) -> &'static str {
        "pvf"
    }

    fn run(&self, spec: &CampaignSpec, ctx: &RunCtx<'_>) -> Result<RunOutput, String> {
        let w = build_workload(spec)?;
        let label = spec.label();
        let mode = match spec.mode {
            "woi" => PvfMode::Woi,
            "wi" => PvfMode::Wi,
            _ => PvfMode::Wd,
        };
        let prep = FuncPrepared::new(&w, spec.isa).map_err(|e| e.to_string())?;
        let journal = journal_opts(ctx, &label);
        let out = pvf_campaign(
            &prep,
            mode,
            spec.faults,
            spec.seed,
            ctx.threads,
            Some(&journal),
            stream_opts(ctx),
            None,
        )
        .map_err(|e| e.to_string())?;
        Ok(RunOutput {
            report: tally_report(
                "pvf",
                &label,
                vec![("mode", json::s(spec.mode))],
                &out.tally,
            ),
            stopped: out.stats.stopped,
            stats: out.stats,
            quarantined: out.quarantined.len(),
        })
    }
}

struct SweepEngine;

impl CampaignEngine for SweepEngine {
    fn name(&self) -> &'static str {
        "sweep"
    }

    fn run(&self, spec: &CampaignSpec, ctx: &RunCtx<'_>) -> Result<RunOutput, String> {
        let w = build_workload(spec)?;
        let label = spec.label();
        let prep = Prepared::new(&w, spec.model).map_err(|e| e.to_string())?;
        let journal = journal_opts(ctx, &label);
        let (out, _prune) = temporal_campaign(
            &prep,
            spec.structure,
            spec.windows,
            spec.per_window,
            spec.seed,
            ctx.threads,
            false,
            Some(&journal),
            stream_opts(ctx),
            None,
        )
        .map_err(|e| e.to_string())?;
        let mut total = vulnstack_core::Tally::default();
        for t in &out.profile.tallies {
            total.masked += t.masked;
            total.sdc += t.sdc;
            total.crash += t.crash;
            total.detected += t.detected;
        }
        let series = Value::Arr(out.profile.series().into_iter().map(Value::Num).collect());
        Ok(RunOutput {
            report: tally_report(
                "sweep",
                &label,
                vec![
                    ("structure", json::s(out.profile.structure.name())),
                    ("windows", json::n(spec.windows as u64)),
                    ("series", series),
                ],
                &total,
            ),
            stopped: out.stats.stopped,
            stats: out.stats,
            quarantined: out.quarantined.len(),
        })
    }
}

struct SvfEngine;

impl CampaignEngine for SvfEngine {
    fn name(&self) -> &'static str {
        "svf"
    }

    fn run(&self, spec: &CampaignSpec, ctx: &RunCtx<'_>) -> Result<RunOutput, String> {
        let w = build_workload(spec)?;
        let label = spec.label();
        let journal = journal_opts(ctx, &label);
        let out = svf_campaign(
            &w.module,
            &w.input,
            &w.expected_output,
            spec.faults,
            spec.seed,
            ctx.threads,
            Some(&journal),
            stream_opts(ctx),
            None,
        )
        .map_err(|e| e.to_string())?;
        Ok(RunOutput {
            report: tally_report("svf", &label, vec![], &out.tally),
            stopped: out.stats.stopped,
            stats: out.stats,
            quarantined: out.quarantined.len(),
        })
    }
}

struct SvfHardenedEngine;

impl CampaignEngine for SvfHardenedEngine {
    fn name(&self) -> &'static str {
        "svf-hardened"
    }

    fn run(&self, spec: &CampaignSpec, ctx: &RunCtx<'_>) -> Result<RunOutput, String> {
        let w = spec.workload.build();
        let label = spec.label();
        let journal = journal_opts(ctx, &label);
        let hardened = vulnstack_ft::harden(&w.module).map_err(|e| e.to_string())?;
        let out = svf_campaign(
            &hardened,
            &w.input,
            &w.expected_output,
            spec.faults,
            spec.seed,
            ctx.threads,
            Some(&journal),
            stream_opts(ctx),
            None,
        )
        .map_err(|e| e.to_string())?;
        Ok(RunOutput {
            report: tally_report("svf-hardened", &label, vec![], &out.tally),
            stopped: out.stats.stopped,
            stats: out.stats,
            quarantined: out.quarantined.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn spec(text: &str) -> CampaignSpec {
        CampaignSpec::parse(&crate::json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn registry_covers_every_engine_uniquely() {
        let mut names: Vec<_> = engines().iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Engine::ALL.len());
        for e in Engine::ALL {
            assert_eq!(engine_for(e).name(), e.name());
        }
    }

    #[test]
    fn svf_engine_runs_and_reports() {
        let dir = std::env::temp_dir().join(format!("vs-serve-svc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("svc.journal");
        let s = spec(r#"{"engine":"svf","workload":"crc32","faults":12,"seed":7}"#);
        let ctx = RunCtx {
            journal: &journal,
            threads: 2,
            gate: None,
            tee: None,
        };
        let out = engine_for(s.engine).run(&s, &ctx).unwrap();
        assert!(!out.stopped);
        assert_eq!(out.stats.executed, 12);
        assert!(out.report.starts_with("{\"crash\":"));
        assert!(out.report.contains("\"engine\":\"svf\""));
        // Re-running the same spec replays the journal bit-identically.
        let again = engine_for(s.engine).run(&s, &ctx).unwrap();
        assert_eq!(again.report, out.report);
        assert_eq!(again.stats.replayed, 12);
        assert_eq!(again.stats.executed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tee_streams_every_record() {
        use std::sync::Mutex;
        let dir = std::env::temp_dir().join(format!("vs-serve-tee-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("tee.journal");
        let s = spec(r#"{"engine":"svf","workload":"crc32","faults":9,"seed":3}"#);
        let seen: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let tee = |i: u64, _p: &str| seen.lock().unwrap().push(i);
        let ctx = RunCtx {
            journal: &journal,
            threads: 2,
            gate: None,
            tee: Some(&tee),
        };
        engine_for(s.engine).run(&s, &ctx).unwrap();
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..9).collect::<Vec<u64>>());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
