//! Campaign dispatch: [`run`] runs a spec on the engine it names.
//!
//! The daemon runs every campaign the same way: it hands [`run`] the
//! spec plus a [`RunCtx`] carrying the journal path, the fair-share
//! admission gate and the record tee, and collects a [`RunOutput`].
//! Nothing engine-specific leaks into the daemon loop.
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

/// Runs `spec` to completion (or to a gate stop) on the engine it names.
/// `svf-hardened` is the `svf` engine over the hardened workload, so it
/// streams the same records as `svf` with `hardened` set; only the
/// report's `engine` field differs.
///
/// # Errors
///
/// The engine's failure (workload hardening, golden-run preparation or
/// the journal) as a message for the client.
pub fn run(spec: &CampaignSpec, ctx: &RunCtx<'_>) -> Result<RunOutput, String> {
    let hardened = spec.hardened || spec.engine == Engine::SvfHardened;
    let w = vulnstack_ft::workload(spec.workload, hardened).map_err(|e| e.to_string())?;
    let label = spec.label();
    let journal = JournalOpts {
        path: ctx.journal,
        mode: ResumeMode::ResumeOrStart,
        policy: RunPolicy::default(),
        workload: &label,
    };
    let stream = StreamOpts {
        gate: ctx.gate,
        tee: ctx.tee,
        ..StreamOpts::from_env()
    };
    let engine = spec.engine.name();
    let (report, stats, quarantined) = match spec.engine {
        Engine::Avf => {
            let prep = Prepared::new(&w, spec.model).map_err(|e| e.to_string())?;
            let plan = InjectionPlan::Sampled {
                n: spec.faults,
                seed: spec.seed,
            };
            let (r, _prune) = avf_campaign(
                &prep,
                spec.structure,
                &plan,
                &spec.models,
                ctx.threads,
                Some(&journal),
                stream,
                None,
            )
            .map_err(|e| e.to_string())?;
            let model_report = [(spec.structure.name(), r.per_model)];
            let report = avf_report_json(&label, &plan, &model_report);
            (report, r.stats, r.quarantined.len())
        }
        Engine::Pvf => {
            let mode = match spec.mode {
                "woi" => PvfMode::Woi,
                "wi" => PvfMode::Wi,
                _ => PvfMode::Wd,
            };
            let prep = FuncPrepared::new(&w, spec.isa).map_err(|e| e.to_string())?;
            let out = pvf_campaign(
                &prep,
                mode,
                spec.faults,
                spec.seed,
                ctx.threads,
                Some(&journal),
                stream,
                None,
            )
            .map_err(|e| e.to_string())?;
            let extra = vec![("mode", json::s(spec.mode))];
            let report = tally_report(engine, &label, extra, &out.tally);
            (report, out.stats, out.quarantined.len())
        }
        Engine::Sweep => {
            let prep = Prepared::new(&w, spec.model).map_err(|e| e.to_string())?;
            let (out, _prune) = temporal_campaign(
                &prep,
                spec.structure,
                spec.windows,
                spec.per_window,
                spec.seed,
                ctx.threads,
                false,
                Some(&journal),
                stream,
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
            let extra = vec![
                ("structure", json::s(out.profile.structure.name())),
                ("windows", json::n(spec.windows as u64)),
                ("series", series),
            ];
            let report = tally_report(engine, &label, extra, &total);
            (report, out.stats, out.quarantined.len())
        }
        Engine::Svf | Engine::SvfHardened => {
            let out = svf_campaign(
                &w.module,
                &w.input,
                &w.expected_output,
                spec.faults,
                spec.seed,
                ctx.threads,
                Some(&journal),
                stream,
                None,
            )
            .map_err(|e| e.to_string())?;
            let report = tally_report(engine, &label, vec![], &out.tally);
            (report, out.stats, out.quarantined.len())
        }
    };
    Ok(RunOutput {
        report,
        stopped: stats.stopped,
        stats,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn spec(text: &str) -> CampaignSpec {
        CampaignSpec::parse(&crate::json::parse(text).unwrap()).unwrap()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vs-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_engine_runs_every_site() {
        let dir = tmp_dir("all");
        for e in Engine::ALL {
            let s = spec(&format!(
                r#"{{"engine":"{}","workload":"crc32","faults":2,"windows":1,"per_window":1}}"#,
                e.name()
            ));
            let journal = dir.join(format!("{}.journal", e.name()));
            let ctx = RunCtx {
                journal: &journal,
                threads: 1,
                gate: None,
                tee: None,
            };
            let out = run(&s, &ctx).unwrap();
            let sites = if e == Engine::Sweep { 1 } else { 2 };
            assert!(!out.stopped, "{}", e.name());
            assert_eq!(out.stats.executed, sites, "{}", e.name());
            assert_eq!(out.quarantined, 0, "{}", e.name());
            assert!(
                out.report
                    .contains(&format!("\"workload\":\"{}\"", s.label())),
                "{}: {}",
                e.name(),
                out.report
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn svf_hardened_is_svf_over_the_hardened_workload() {
        let dir = tmp_dir("hard");
        let run_teed = |text: &str, name: &str| {
            let journal = dir.join(name);
            let records = vulnstack_core::Collector::default();
            let tee = records.tee();
            let ctx = RunCtx {
                journal: &journal,
                threads: 2,
                gate: None,
                tee: Some(&tee),
            };
            let out = run(&spec(text), &ctx).unwrap();
            (out.report, records.sorted())
        };
        let (hard_report, hard_records) = run_teed(
            r#"{"engine":"svf-hardened","workload":"crc32","faults":12,"seed":4}"#,
            "svf-hardened.journal",
        );
        let (svf_report, svf_records) = run_teed(
            r#"{"engine":"svf","workload":"crc32","faults":12,"seed":4,"hardened":true}"#,
            "svf.journal",
        );
        assert_eq!(hard_records.len(), 12);
        assert_eq!(hard_records, svf_records);
        assert!(hard_report.contains("\"engine\":\"svf-hardened\""));
        assert_eq!(
            hard_report.replace("\"engine\":\"svf-hardened\"", "\"engine\":\"svf\""),
            svf_report
        );
        let _ = std::fs::remove_dir_all(&dir);
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
        let out = run(&s, &ctx).unwrap();
        assert!(!out.stopped);
        assert_eq!(out.stats.executed, 12);
        assert!(out.report.starts_with("{\"crash\":"));
        assert!(out.report.contains("\"engine\":\"svf\""));
        // Re-running the same spec replays the journal bit-identically.
        let again = run(&s, &ctx).unwrap();
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
        run(&s, &ctx).unwrap();
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..9).collect::<Vec<u64>>());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
