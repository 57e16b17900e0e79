//! Campaign specifications: the one description of a campaign.
//!
//! `vulnstack avf|pvf|svf` and `vulnstack client run` build a spec from
//! their flags ([`CampaignSpec::from_flags`]); the daemon parses the
//! object a client submits or a spec file it persisted
//! ([`CampaignSpec::parse`]). Both resolve every name through its
//! type's one parser and fill the same defaults, and
//! [`crate::service::run`] runs the result. The campaign handle is the
//! FNV-1a hash of the *canonical* form, so the same campaign submitted
//! twice (or resubmitted after a daemon restart) maps onto the same
//! handle and the same journal file.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::path::Path;
use std::str::FromStr;

use vulnstack_core::journal::fnv1a64;
use vulnstack_core::ResumeMode;
use vulnstack_gefin::{InjectionPlan, PvfMode};
use vulnstack_isa::Isa;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::WorkloadId;

use crate::cli::Flags;
use crate::json::{self, Value};

/// Which campaign engine runs the spec: the five engines the platform
/// exposes, dispatched by [`crate::service::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// GeFIN microarchitectural AVF/HVF campaign.
    Avf,
    /// GeFIN architectural PVF campaign.
    Pvf,
    /// GeFIN temporal AVF-over-time sweep.
    Sweep,
    /// LLFI-style software (IR-level) campaign.
    Svf,
    /// The SVF campaign over instruction-duplication-hardened IR.
    SvfHardened,
}

impl Engine {
    pub const ALL: [Engine; 5] = [
        Engine::Avf,
        Engine::Pvf,
        Engine::Sweep,
        Engine::Svf,
        Engine::SvfHardened,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Avf => "avf",
            Engine::Pvf => "pvf",
            Engine::Sweep => "sweep",
            Engine::Svf => "svf",
            Engine::SvfHardened => "svf-hardened",
        }
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        Engine::ALL
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| format!("unknown engine {s} (expected avf|pvf|sweep|svf|svf-hardened)"))
    }
}

/// Tenant priority → stride-scheduler weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    Low,
    Normal,
    High,
}

impl Priority {
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Fair-share weight: a high-priority campaign gets 4× the slot
    /// grants of a low-priority one under contention.
    pub fn weight(self) -> u32 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }
}

impl FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Priority, String> {
        [Priority::Low, Priority::Normal, Priority::High]
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown priority {s} (expected low|normal|high)"))
    }
}

/// How an avf campaign chooses and runs its sites: sampled sites run
/// one by one, the same sites through the pruner (identical records),
/// or every (site, model) pair at one cycle through the pruner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    Sampled,
    Pruned,
    Exhaustive,
}

impl FromStr for Plan {
    type Err = String;

    fn from_str(s: &str) -> Result<Plan, String> {
        match s {
            "sampled" => Ok(Plan::Sampled),
            "pruned" => Ok(Plan::Pruned),
            "exhaustive" => Ok(Plan::Exhaustive),
            _ => Err(format!(
                "unknown plan {s} (expected sampled|pruned|exhaustive)"
            )),
        }
    }
}

/// A validated, normalized campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    pub engine: Engine,
    pub workload: WorkloadId,
    /// Run the fault-tolerance-hardened variant of the workload
    /// (`svf-hardened` always does).
    pub hardened: bool,
    pub priority: Priority,
    pub faults: usize,
    pub seed: u64,
    /// Core model (avf/sweep engines).
    pub model: CoreModel,
    /// Target structure (avf/sweep engines).
    pub structure: HwStructure,
    /// Fault models (avf engine).
    pub models: Vec<FaultModel>,
    /// ISA (pvf engine).
    pub isa: Isa,
    /// PVF population (pvf engine).
    pub mode: PvfMode,
    /// Temporal windows (sweep engine).
    pub windows: usize,
    /// Injections per window (sweep engine).
    pub per_window: usize,
    /// How sites are chosen and run (avf engine).
    pub plan: Plan,
    /// The exhaustive plan's injection cycle; `None` injects mid-run.
    pub at: Option<u64>,
}

impl CampaignSpec {
    /// True when the campaign runs the hardened workload.
    pub fn ft(&self) -> bool {
        self.hardened || self.engine == Engine::SvfHardened
    }

    /// The workload label used for journal fingerprints and reports:
    /// `name`, or `name+ft` for the hardened workload.
    pub fn label(&self) -> String {
        if self.ft() {
            format!("{}+ft", self.workload.name())
        } else {
            self.workload.name().to_string()
        }
    }

    /// The avf engine's injection plan; an exhaustive plan without `at`
    /// injects at `mid_cycle`.
    pub fn injection_plan(&self, mid_cycle: u64) -> InjectionPlan {
        let (n, seed) = (self.faults, self.seed);
        match self.plan {
            Plan::Sampled => InjectionPlan::Sampled { n, seed },
            Plan::Pruned => InjectionPlan::Pruned { n, seed },
            Plan::Exhaustive => InjectionPlan::Exhaustive {
                cycle: self.at.unwrap_or(mid_cycle),
            },
        }
    }

    /// Canonical JSON form: every field explicit, keys sorted, except a
    /// `sampled` plan and an unset `at` (so the handles of specs from
    /// before either field existed still match). Two specs are the same
    /// campaign iff their canonical forms are bytewise equal.
    pub fn canonical(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("engine".into(), json::s(self.engine.name()));
        m.insert("workload".into(), json::s(self.workload.name()));
        m.insert("hardened".into(), Value::Bool(self.hardened));
        m.insert("priority".into(), json::s(self.priority.name()));
        m.insert("faults".into(), json::n(self.faults as u64));
        m.insert("seed".into(), json::n(self.seed));
        m.insert("model".into(), json::s(self.model.name()));
        m.insert("structure".into(), json::s(self.structure.name()));
        m.insert(
            "models".into(),
            Value::Arr(self.models.iter().map(|f| json::s(f.name())).collect()),
        );
        m.insert("isa".into(), json::s(self.isa.name()));
        let mode = self.mode.name().to_ascii_lowercase();
        m.insert("mode".into(), json::s(&mode));
        m.insert("windows".into(), json::n(self.windows as u64));
        m.insert("per_window".into(), json::n(self.per_window as u64));
        if self.plan != Plan::Sampled {
            m.insert("plan".into(), json::s(self.injection_plan(0).name()));
        }
        if let Some(at) = self.at {
            m.insert("at".into(), json::n(at));
        }
        Value::Obj(m)
    }

    /// The campaign handle: 16 hex digits of FNV-1a over the canonical
    /// spec. Deterministic across daemon restarts, so a restarted daemon
    /// re-attaches resubmitted specs to their journals.
    pub fn handle(&self) -> String {
        let text = json::write(&self.canonical());
        format!("{:016x}", fnv1a64(text.as_bytes()))
    }

    /// The spec `engine` on `workload` with a front end's flags: every
    /// flag optional, any `u64` accepted (the CLI runs `--faults 0` to
    /// time set-up), the fault count defaulting to `VULNSTACK_FAULTS`.
    ///
    /// # Errors
    ///
    /// The first flag that does not parse, or a plan the engine cannot
    /// run.
    pub fn from_flags(engine: Engine, workload: &str, flags: &Flags) -> Result<Self, String> {
        let faults = || vulnstack_gefin::default_faults(150);
        CampaignSpec::build(engine, workload, &Fields::Flags(flags), faults)
    }

    /// Parses and validates a submitted or persisted spec object. Error
    /// strings are returned to the client under the `bad-params` code.
    ///
    /// # Errors
    ///
    /// The first missing, mistyped, unknown or out-of-range field.
    pub fn parse(v: &Value) -> Result<CampaignSpec, String> {
        let Value::Obj(_) = v else {
            return Err("spec must be a JSON object".to_string());
        };
        let text = |key| v.get(key).and_then(Value::as_str);
        let engine = text("engine").ok_or("spec needs a string \"engine\"")?;
        let workload = text("workload").ok_or("spec needs a string \"workload\"")?;
        CampaignSpec::build(engine.parse()?, workload, &Fields::Json(v), || 150)
    }

    /// Every field of [`CampaignSpec::from_flags`] and
    /// [`CampaignSpec::parse`], with its default.
    fn build(
        engine: Engine,
        workload: &str,
        f: &Fields,
        faults: fn() -> usize,
    ) -> Result<Self, String> {
        let workload = WorkloadId::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?;
        let spec = CampaignSpec {
            engine,
            workload,
            hardened: f.hardened()?,
            priority: f.name("priority")?.unwrap_or(Priority::Normal),
            faults: f
                .number("faults", Some(1..=1_000_000))?
                .map_or_else(faults, |n| n as usize),
            seed: f.number("seed", None)?.unwrap_or(2021),
            model: f.name("model")?.unwrap_or(CoreModel::A72),
            structure: f.name("structure")?.unwrap_or(HwStructure::RegisterFile),
            models: f.models()?.unwrap_or_else(|| vec![FaultModel::BitFlip]),
            isa: f.name("isa")?.unwrap_or(Isa::Va64),
            mode: f.name("mode")?.unwrap_or(PvfMode::Wd),
            windows: f
                .number("windows", Some(1..=1024))?
                .map_or(8, |n| n as usize),
            per_window: f
                .number("per_window", Some(1..=10_000))?
                .map_or(8, |n| n as usize),
            plan: f.name("plan")?.unwrap_or(Plan::Sampled),
            at: f.number("at", None)?,
        };
        // Only avf reads the plan; any other engine would silently run a
        // pruned or exhaustive spec as a sampled one.
        if spec.plan != Plan::Sampled && engine != Engine::Avf {
            let plan = spec.injection_plan(0).name();
            return Err(format!("plan {plan} needs the avf engine"));
        }
        if spec.at.is_some() && spec.plan != Plan::Exhaustive {
            return Err("--at only applies to --plan exhaustive".to_string());
        }
        // The avf engine cannot draw a site from an empty model set (a
        // daemon campaign would die without reporting).
        if engine == Engine::Avf && !spec.models.iter().any(|&m| spec.structure.admits(m)) {
            let st = spec.structure;
            return Err(format!("no fault model in --models applies to {st}"));
        }
        Ok(spec)
    }
}

/// The journal `--journal PATH` names and how to open it: `--journal`
/// alone resumes an existing journal or starts one; `--resume` insists
/// the journal already exists, so a typo'd path fails loudly instead of
/// silently restarting the campaign from scratch.
///
/// # Errors
///
/// `--resume` without `--journal`.
pub fn journal_from_flags(flags: &Flags) -> Result<Option<(&Path, ResumeMode)>, String> {
    let resume = flags.switch("resume");
    match flags.values.get("journal") {
        None if resume => Err("--resume requires --journal PATH".to_string()),
        None => Ok(None),
        Some(p) if resume => Ok(Some((Path::new(p), ResumeMode::ResumeRequired))),
        Some(p) => Ok(Some((Path::new(p), ResumeMode::ResumeOrStart))),
    }
}

/// Where a spec's fields come from: a front end's flags, or a JSON
/// object submitted over the wire or persisted in a state file.
enum Fields<'a> {
    Flags(&'a Flags),
    Json(&'a Value),
}

impl Fields<'_> {
    /// Field `key` as text: a flag's value, or a JSON string.
    fn text(&self, key: &str) -> Result<Option<&str>, String> {
        match self {
            Fields::Flags(f) => Ok(f.values.get(key).map(String::as_str)),
            Fields::Json(v) => v
                .get(key)
                .map(|x| x.as_str().ok_or(format!("\"{key}\" must be a string")))
                .transpose(),
        }
    }

    /// Field `key` through its type's name parser.
    fn name<T: FromStr<Err = String>>(&self, key: &str) -> Result<Option<T>, String> {
        self.text(key)?.map(str::parse).transpose()
    }

    /// Integer field `key`: a flag takes any `u64`; JSON takes an
    /// integer it represents exactly, in `range` when there is one.
    fn number(&self, key: &str, range: Option<RangeInclusive<u64>>) -> Result<Option<u64>, String> {
        let Fields::Json(v) = self else {
            let parse = |t: &str| t.parse().map_err(|_| format!("bad --{key} {t}"));
            return self.text(key)?.map(parse).transpose();
        };
        let bad = || match &range {
            Some(r) => format!(
                "\"{key}\" must be an integer in {}..={}",
                r.start(),
                r.end()
            ),
            None => format!("\"{key}\" must be a non-negative integer"),
        };
        let in_range = |n: &u64| range.as_ref().is_none_or(|r| r.contains(n));
        let check = |x: &Value| x.as_u64().filter(in_range).ok_or_else(bad);
        v.get(key).map(check).transpose()
    }

    /// The `hardened` switch, or JSON boolean.
    fn hardened(&self) -> Result<bool, String> {
        match self {
            Fields::Flags(f) => Ok(f.switch("hardened")),
            Fields::Json(v) => v.get("hardened").map_or(Ok(false), |b| {
                b.as_bool().ok_or("\"hardened\" must be a boolean".into())
            }),
        }
    }

    /// The fault-model set: `all` or a comma-separated list, or in JSON
    /// also the canonical array of names.
    fn models(&self) -> Result<Option<Vec<FaultModel>>, String> {
        let list = match self {
            Fields::Flags(f) => f.values.get("models"),
            Fields::Json(v) => match v.get("models") {
                None => None,
                Some(Value::Str(list)) => Some(list),
                Some(Value::Arr(items)) => {
                    let entry = |m: &Value| match m.as_str() {
                        Some(name) => name.parse(),
                        None => Err("\"models\" entries must be strings".to_string()),
                    };
                    return items.iter().map(entry).collect::<Result<_, _>>().map(Some);
                }
                Some(_) => {
                    return Err("\"models\" must be a comma-separated string, an array of \
                                names, or \"all\""
                        .into())
                }
            },
        };
        list.map(|l| FaultModel::parse_list(l)).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_spec(text: &str) -> Result<CampaignSpec, String> {
        CampaignSpec::parse(&json::parse(text).unwrap())
    }

    #[test]
    fn minimal_spec_fills_defaults() {
        let s = parse_spec(r#"{"engine":"avf","workload":"qsort"}"#).unwrap();
        assert_eq!(s.engine, Engine::Avf);
        assert_eq!(s.faults, 150);
        assert_eq!(s.seed, 2021);
        assert_eq!(s.priority, Priority::Normal);
        assert_eq!(s.structure, HwStructure::RegisterFile);
        assert_eq!(s.models, vec![FaultModel::BitFlip]);
    }

    #[test]
    fn handle_is_stable_and_insensitive_to_field_order() {
        let a = parse_spec(r#"{"engine":"svf","workload":"sha","faults":40}"#).unwrap();
        let b = parse_spec(r#"{"faults":40,"workload":"sha","engine":"svf"}"#).unwrap();
        assert_eq!(a.handle(), b.handle());
        // Explicit defaults hash identically to omitted ones.
        let c = parse_spec(r#"{"engine":"svf","workload":"sha","faults":40,"seed":2021}"#).unwrap();
        assert_eq!(a.handle(), c.handle());
        // A different campaign gets a different handle.
        let d = parse_spec(r#"{"engine":"svf","workload":"sha","faults":41}"#).unwrap();
        assert_ne!(a.handle(), d.handle());
    }

    #[test]
    fn rejects_bad_fields_with_named_errors() {
        for (spec, needle) in [
            (r#"{"workload":"qsort"}"#, "engine"),
            (r#"{"engine":"warp","workload":"qsort"}"#, "unknown engine"),
            (r#"{"engine":"avf","workload":"nope"}"#, "unknown workload"),
            (
                r#"{"engine":"avf","workload":"qsort","faults":0}"#,
                "faults",
            ),
            (
                r#"{"engine":"avf","workload":"qsort","priority":"max"}"#,
                "priority",
            ),
            (
                r#"{"engine":"avf","workload":"qsort","structure":"TLB"}"#,
                "structure",
            ),
            (r#"{"engine":"pvf","workload":"qsort","mode":"xx"}"#, "mode"),
            (
                r#"{"engine":"avf","workload":"qsort","models":"laser"}"#,
                "fault model",
            ),
        ] {
            let e = parse_spec(spec).unwrap_err();
            assert!(e.contains(needle), "{spec}: {e}");
        }
        // Names go through their type's parser, so the wire gives the
        // CLI's messages; a mistyped field is named as such.
        for (spec, err) in [
            (
                r#"{"engine":"pvf","workload":"qsort","mode":"xx"}"#,
                "unknown mode xx (expected wd|woi|wi)",
            ),
            (
                r#"{"engine":"pvf","workload":"qsort","mode":7}"#,
                "\"mode\" must be a string",
            ),
            (
                r#"{"engine":"avf","workload":"qsort","priority":"max"}"#,
                "unknown priority max (expected low|normal|high)",
            ),
            (
                r#"{"engine":"avf","workload":"qsort","priority":true}"#,
                "\"priority\" must be a string",
            ),
            (
                r#"{"engine":"pvf","workload":"qsort","isa":"mips"}"#,
                "unknown isa mips (expected va32|va64)",
            ),
            (
                r#"{"engine":"pvf","workload":"qsort","isa":null}"#,
                "\"isa\" must be a string",
            ),
            (
                r#"{"engine":"avf","workload":"qsort","plan":"psychic"}"#,
                "unknown plan psychic (expected sampled|pruned|exhaustive)",
            ),
            (
                r#"{"engine":"sweep","workload":"qsort","plan":"pruned"}"#,
                "plan pruned needs the avf engine",
            ),
            (
                r#"{"engine":"avf","workload":"qsort","at":5}"#,
                "--at only applies to --plan exhaustive",
            ),
            (
                r#"{"engine":"avf","workload":"qsort","faults":0}"#,
                "\"faults\" must be an integer in 1..=1000000",
            ),
            (
                r#"{"engine":"avf","workload":"qsort","seed":-1}"#,
                "\"seed\" must be a non-negative integer",
            ),
            (
                r#"{"engine":"avf","workload":"qsort","structure":"L2","models":"stuck-at"}"#,
                "no fault model in --models applies to L2",
            ),
            (
                r#"{"engine":"avf","workload":"qsort","models":[]}"#,
                "no fault model in --models applies to RF",
            ),
        ] {
            assert_eq!(parse_spec(spec).unwrap_err(), err, "{spec}");
        }
    }

    /// The spec `engine` on qsort with the flags `args`.
    fn flag_spec(engine: Engine, args: &[&str]) -> CampaignSpec {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let values = "faults seed model structure models isa mode plan at";
        let flags = crate::cli::parse_flags("test", &args, values, "hardened").unwrap();
        CampaignSpec::from_flags(engine, "qsort", &flags).unwrap()
    }

    #[test]
    fn flags_and_json_describe_the_same_campaign() {
        for (engine, args, text) in [
            (
                Engine::Avf,
                &[
                    "--model",
                    "A9",
                    "--structure",
                    "RF",
                    "--faults",
                    "20",
                    "--seed",
                    "5",
                ][..],
                r#"{"engine":"avf","workload":"qsort","model":"A9","structure":"RF","faults":20,"seed":5}"#,
            ),
            (
                Engine::Avf,
                &["--structure", "lsq", "--faults", "50", "--plan", "pruned"][..],
                r#"{"engine":"avf","workload":"qsort","structure":"LSQ","faults":50,"plan":"pruned"}"#,
            ),
            (
                Engine::Avf,
                &["--faults", "9", "--plan", "exhaustive"][..],
                r#"{"engine":"avf","workload":"qsort","faults":9,"plan":"exhaustive"}"#,
            ),
            (
                Engine::Avf,
                &["--faults", "9", "--plan", "exhaustive", "--at", "4000"][..],
                r#"{"engine":"avf","workload":"qsort","faults":9,"plan":"exhaustive","at":4000}"#,
            ),
            (
                Engine::Avf,
                &["--faults", "9", "--models", "all", "--plan", "exhaustive"][..],
                r#"{"engine":"avf","workload":"qsort","faults":9,"models":"all","plan":"exhaustive"}"#,
            ),
            (
                Engine::Avf,
                &["--faults", "9", "--models", "stuck-at,bit-flip"][..],
                r#"{"engine":"avf","workload":"qsort","faults":9,"models":["stuck-at","bit-flip"]}"#,
            ),
            (
                Engine::Pvf,
                &["--faults", "40", "--mode", "wd"][..],
                r#"{"engine":"pvf","workload":"qsort","faults":40,"mode":"wd"}"#,
            ),
            (
                Engine::Pvf,
                &["--faults", "40", "--mode", "woi"][..],
                r#"{"engine":"pvf","workload":"qsort","faults":40,"mode":"woi"}"#,
            ),
            (
                Engine::Pvf,
                &["--faults", "40", "--mode", "wi", "--isa", "va32"][..],
                r#"{"engine":"pvf","workload":"qsort","faults":40,"mode":"wi","isa":"va32"}"#,
            ),
            (
                Engine::Svf,
                &["--faults", "40", "--hardened", "--seed", "11"][..],
                r#"{"engine":"svf","workload":"qsort","faults":40,"hardened":true,"seed":11}"#,
            ),
        ] {
            let from_flags = flag_spec(engine, args);
            let parsed = parse_spec(text).unwrap();
            assert_eq!(from_flags, parsed, "{args:?}");
            assert_eq!(from_flags.handle(), parsed.handle(), "{args:?}");
            // The canonical form a client submits parses back to itself.
            assert_eq!(CampaignSpec::parse(&parsed.canonical()).unwrap(), parsed);
        }
    }

    #[test]
    fn only_a_non_default_plan_enters_the_canonical_form() {
        let sampled = flag_spec(Engine::Avf, &["--faults", "50"]);
        let pruned = flag_spec(Engine::Avf, &["--faults", "50", "--plan", "pruned"]);
        let exhaustive = flag_spec(Engine::Avf, &["--plan", "exhaustive", "--at", "7"]);
        let text = |s: &CampaignSpec| json::write(&s.canonical());
        assert!(!text(&sampled).contains("\"plan\""));
        assert!(!text(&sampled).contains("\"at\""));
        assert!(text(&pruned).contains("\"plan\":\"pruned\""));
        assert!(text(&exhaustive).contains("\"at\":7"));
        assert_ne!(sampled.handle(), pruned.handle());
        assert_ne!(pruned.handle(), exhaustive.handle());
        // An explicit sampled plan is the default one.
        assert_eq!(
            flag_spec(Engine::Avf, &["--faults", "50", "--plan", "sampled"]).handle(),
            sampled.handle()
        );
    }

    #[test]
    fn handles_match_those_earlier_builds_persisted() {
        // A handle names a campaign's spec and journal files in the
        // daemon's state directory: a restarted daemon re-attaches only
        // the campaigns whose handles it recomputes unchanged.
        for (text, handle) in [
            (
                r#"{"engine":"avf","workload":"qsort","model":"A9","structure":"RF","faults":20,"seed":5}"#,
                "ea1349f81c6cd554",
            ),
            (
                r#"{"engine":"pvf","workload":"sha","isa":"va32","mode":"woi","faults":40}"#,
                "33c097e925643699",
            ),
            (
                r#"{"engine":"sweep","workload":"crc32","structure":"LSQ","windows":4,"per_window":2}"#,
                "4dd221ee98062d6d",
            ),
            (
                r#"{"engine":"svf","workload":"crc32","faults":40,"hardened":true}"#,
                "b04524cf7ef3eb6d",
            ),
            (
                r#"{"engine":"svf-hardened","workload":"crc32","faults":40}"#,
                "6412db130e12900c",
            ),
        ] {
            assert_eq!(parse_spec(text).unwrap().handle(), handle, "{text}");
        }
    }

    #[test]
    fn label_matches_cli_convention() {
        let s = parse_spec(r#"{"engine":"svf","workload":"sha","hardened":true}"#).unwrap();
        assert_eq!(s.label(), "sha+ft");
        let h = parse_spec(r#"{"engine":"svf-hardened","workload":"sha"}"#).unwrap();
        assert_eq!(h.label(), "sha+ft");
        let p = parse_spec(r#"{"engine":"avf","workload":"sha"}"#).unwrap();
        assert_eq!(p.label(), "sha");
    }
}
