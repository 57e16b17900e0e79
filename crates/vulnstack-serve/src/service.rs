//! Campaign dispatch: [`run`] runs a spec on the engine it names.
//!
//! `vulnstack avf|pvf|svf` and the daemon run a campaign the same way:
//! they hand [`run`] a [`CampaignSpec`] plus the [`RunOpts`] they built
//! — the worker count, the journal under the workload label
//! [`CampaignSpec::label`], and a stream carrying the fair-share
//! admission gate and the record tee — and get the engine's typed
//! results back. The CLI prints them; the daemon sends
//! [`RunOutput::report`], which for avf is the file `vulnstack avf
//! --json` writes. The daemon journals every run (`ResumeOrStart`), so
//! a campaign interrupted by cancellation or a crash resumes
//! bit-identically on the next run of the same spec.

use vulnstack_core::json::{self, obj, Value};
use vulnstack_core::{ResumeStats, RunOpts, TallyStreamed};
use vulnstack_gefin::{
    avf_campaign, avf_report_json, pvf_campaign, temporal_campaign, AvfStreamed, FuncPrepared,
    InjectionPlan, Prepared, PruneStats, TemporalStreamed,
};
use vulnstack_llfi::svf_campaign;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_workloads::Workload;

use crate::spec::{CampaignSpec, Engine, Plan};

/// One avf campaign's results: the plan it ran (an exhaustive plan's
/// cycle resolved against the golden run), the structure's aggregates,
/// and the pruner's accounting (pruned and exhaustive plans).
#[derive(Debug)]
pub struct AvfRun {
    pub plan: InjectionPlan,
    pub result: AvfStreamed,
    pub prune: Option<PruneStats>,
}

/// What a finished (or stopped) run produced: the engine's own results,
/// tally, resume accounting and quarantines included.
#[derive(Debug)]
pub enum RunOutput {
    Avf(AvfRun),
    Pvf(TallyStreamed),
    Sweep(TemporalStreamed),
    Svf(TallyStreamed),
}

impl RunOutput {
    /// Replay/execute accounting; `stopped` when the admission gate
    /// ended the run early (cancellation or shutdown) and the journal
    /// holds the completed prefix.
    pub fn stats(&self) -> &ResumeStats {
        match self {
            RunOutput::Avf(r) => &r.result.stats,
            RunOutput::Pvf(o) => &o.stats,
            RunOutput::Sweep(o) => &o.stats,
            RunOutput::Svf(o) => &o.stats,
        }
    }

    /// The report of `spec`'s run, newline-terminated: [`avf_report`]
    /// over this one structure, or the tally with the engine and
    /// workload, keys sorted so repeated runs compare bytewise.
    pub fn report(&self, spec: &CampaignSpec) -> String {
        let label = spec.label();
        let (tally, extra) = match self {
            RunOutput::Avf(r) => return avf_report(&label, std::slice::from_ref(r)),
            RunOutput::Pvf(o) => {
                let mode = spec.mode.name().to_ascii_lowercase();
                (o.tally, vec![("mode", json::s(&mode))])
            }
            RunOutput::Sweep(o) => {
                let mut total = vulnstack_core::Tally::default();
                o.profile.tallies.iter().for_each(|t| total.merge(t));
                let series = o.profile.series().into_iter().map(Value::Num).collect();
                let extra = vec![
                    ("structure", json::s(o.profile.structure.name())),
                    ("windows", json::n(spec.windows as u64)),
                    ("series", Value::Arr(series)),
                ];
                (total, extra)
            }
            RunOutput::Svf(o) => (o.tally, vec![]),
        };
        let mut fields = vec![
            ("engine", json::s(spec.engine.name())),
            ("workload", json::s(&label)),
            ("injections", json::n(tally.total())),
            ("masked", json::n(tally.masked)),
            ("sdc", json::n(tally.sdc)),
            ("crash", json::n(tally.crash)),
            ("detected", json::n(tally.detected)),
        ];
        fields.extend(extra);
        json::write(&obj(fields)) + "\n"
    }
}

/// The avf report over the runs of one spec on one or more structures:
/// the file `vulnstack avf --json` writes and the daemon's avf report.
///
/// # Panics
///
/// Panics on an empty `runs`.
pub fn avf_report(label: &str, runs: &[AvfRun]) -> String {
    let per_structure: Vec<_> = runs
        .iter()
        .map(|r| (r.result.structure.name(), r.result.per_model.clone()))
        .collect();
    avf_report_json(label, &runs[0].plan, &per_structure)
}

/// The workload `spec` injects into, hardened when [`CampaignSpec::ft`];
/// fails when hardening does.
pub fn workload(spec: &CampaignSpec) -> Result<Workload, String> {
    vulnstack_ft::workload(spec.workload, spec.ft()).map_err(|e| e.to_string())
}

/// The golden run of `spec`'s workload on its core model, which the
/// avf campaigns of every structure can share. Under a pruned or
/// exhaustive plan the same run records the class tables of
/// `structures` ([`Prepared::observing`]); a sampled plan consults none,
/// so it records nothing. Fails when hardening or the golden run does.
pub fn prepare(spec: &CampaignSpec, structures: &[HwStructure]) -> Result<Prepared, String> {
    let observed = if spec.plan == Plan::Sampled {
        &[]
    } else {
        structures
    };
    Prepared::observing(&workload(spec)?, spec.model, observed).map_err(|e| e.to_string())
}

/// Runs `spec`'s avf campaign on `spec.structure` over `prep`; fails
/// when the journal does, or when an exhaustive plan's `at` lies past
/// the golden run (its every site would see the run's terminal state).
pub fn run_avf(spec: &CampaignSpec, prep: &Prepared, opts: &RunOpts<'_>) -> Result<AvfRun, String> {
    let cycles = prep.golden.cycles;
    if let Some(at) = spec.at.filter(|&at| at > cycles) {
        return Err(format!(
            "--at {at} is past the golden run ({cycles} cycles)"
        ));
    }
    let plan = spec.injection_plan(cycles / 2);
    let (result, prune) =
        avf_campaign(prep, spec.structure, &plan, &spec.models, opts).map_err(|e| e.to_string())?;
    Ok(AvfRun {
        plan,
        result,
        prune,
    })
}

/// Runs `spec` to completion (or to a gate stop) on the engine it names,
/// as `opts` says; a journal in `opts` carries [`CampaignSpec::label`]
/// as its workload label. `svf-hardened` is the `svf` engine over the
/// hardened workload, so it streams the same records as `svf` with
/// `hardened` set; only the report's `engine` field differs.
///
/// # Errors
///
/// The engine's failure (workload hardening, golden-run preparation,
/// an exhaustive `at` past the golden run, or the journal) as a message
/// for the client.
pub fn run(spec: &CampaignSpec, opts: &RunOpts<'_>) -> Result<RunOutput, String> {
    let (faults, seed) = (spec.faults, spec.seed);
    Ok(match spec.engine {
        Engine::Avf => {
            let prep = prepare(spec, &[spec.structure])?;
            RunOutput::Avf(run_avf(spec, &prep, opts)?)
        }
        Engine::Pvf => {
            let prep = FuncPrepared::new(&workload(spec)?, spec.isa).map_err(|e| e.to_string())?;
            let out = pvf_campaign(&prep, spec.mode, faults, seed, opts);
            RunOutput::Pvf(out.map_err(|e| e.to_string())?)
        }
        Engine::Sweep => {
            let (structure, windows, per_window) = (spec.structure, spec.windows, spec.per_window);
            let prep = prepare(spec, &[])?;
            let out = temporal_campaign(&prep, structure, windows, per_window, seed, opts);
            RunOutput::Sweep(out.map_err(|e| e.to_string())?)
        }
        Engine::Svf | Engine::SvfHardened => {
            let w = workload(spec)?;
            let out = svf_campaign(&w.module, &w.input, &w.expected_output, faults, seed, opts);
            RunOutput::Svf(out.map_err(|e| e.to_string())?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
    use std::path::Path;
    use vulnstack_core::{JournalOpts, ResumeMode, StreamOpts};

    fn spec(text: &str) -> CampaignSpec {
        CampaignSpec::parse(&json::parse(text).unwrap()).unwrap()
    }

    /// A run on `threads` workers, journaled at `path` under `label` as
    /// the daemon journals.
    fn journaled<'a>(path: &'a Path, label: &'a str, threads: usize) -> RunOpts<'a> {
        RunOpts {
            journal: Some(JournalOpts {
                path,
                mode: ResumeMode::ResumeOrStart,
                workload: label,
            }),
            ..RunOpts::new(threads)
        }
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
            let label = s.label();
            let out = run(&s, &journaled(&journal, &label, 1)).unwrap();
            let sites = if e == Engine::Sweep { 1 } else { 2 };
            assert!(!out.stats().stopped, "{}", e.name());
            assert_eq!(out.stats().executed, sites, "{}", e.name());
            assert_eq!(out.stats().quarantined, 0, "{}", e.name());
            let report = out.report(&s);
            assert!(
                report.contains(&format!("\"workload\":\"{}\"", s.label())),
                "{}: {report}",
                e.name(),
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
            let s = spec(text);
            let label = s.label();
            let opts = RunOpts {
                stream: StreamOpts {
                    tee: Some(&tee),
                    ..StreamOpts::from_env()
                },
                ..journaled(&journal, &label, 2)
            };
            let out = run(&s, &opts).unwrap();
            (out.report(&s), records.sorted())
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
        let label = s.label();
        let opts = journaled(&journal, &label, 2);
        let out = run(&s, &opts).unwrap();
        assert!(!out.stats().stopped);
        assert_eq!(out.stats().executed, 12);
        let report = out.report(&s);
        assert!(report.starts_with("{\"crash\":"));
        assert!(report.contains("\"engine\":\"svf\""));
        // Re-running the same spec replays the journal bit-identically.
        let again = run(&s, &opts).unwrap();
        assert_eq!(again.report(&s), report);
        assert_eq!(again.stats().replayed, 12);
        assert_eq!(again.stats().executed, 0);
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
        let label = s.label();
        let opts = RunOpts {
            stream: StreamOpts {
                tee: Some(&tee),
                ..StreamOpts::from_env()
            },
            ..journaled(&journal, &label, 2)
        };
        run(&s, &opts).unwrap();
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..9).collect::<Vec<u64>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_exhaustive_cycle_past_the_golden_run_is_refused() {
        let s = spec(
            r#"{"engine":"avf","workload":"crc32","structure":"LSQ","plan":"exhaustive","at":10000000}"#,
        );
        let prep = prepare(&s, &[s.structure]).unwrap();
        let want = format!(
            "--at 10000000 is past the golden run ({} cycles)",
            prep.golden.cycles
        );
        let opts = RunOpts::new(1);
        assert_eq!(run_avf(&s, &prep, &opts).err(), Some(want.clone()));
        // The daemon runs the spec through `run`, so its campaign fails
        // with the same message.
        assert_eq!(run(&s, &opts).err(), Some(want));
    }
}
