//! Campaign specifications: what a client submits.
//!
//! A spec is a JSON object naming an engine plus its parameters.
//! Parsing normalizes it — defaults filled in, every field validated
//! against the same vocabularies the CLI accepts — and the campaign
//! handle is the FNV-1a hash of the *canonical* normalized form, so the
//! same campaign submitted twice (or resubmitted after a daemon
//! restart) maps onto the same handle and the same journal file.

use std::collections::BTreeMap;

use vulnstack_isa::Isa;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::WorkloadId;

use crate::json::{self, Value};

/// Which campaign engine runs the spec. The five engines the platform
/// exposes, uniformly dispatched via [`crate::service`].
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

    pub fn from_name(s: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == s)
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

/// A validated, normalized campaign submission.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    pub engine: Engine,
    pub workload: WorkloadId,
    /// Run the fault-tolerance-hardened variant of the workload
    /// (ignored by `svf-hardened`, which hardens internally).
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
    /// PVF population: wd / woi / wi (pvf engine).
    pub mode: &'static str,
    /// Temporal windows (sweep engine).
    pub windows: usize,
    /// Injections per window (sweep engine).
    pub per_window: usize,
}

impl CampaignSpec {
    /// The workload label used for journal fingerprints and reports —
    /// identical to the CLI's (`name` or `name+ft`).
    pub fn label(&self) -> String {
        if self.hardened || self.engine == Engine::SvfHardened {
            format!("{}+ft", self.workload.name())
        } else {
            self.workload.name().to_string()
        }
    }

    /// Canonical JSON form: every field explicit, keys sorted. Two specs
    /// are the same campaign iff their canonical forms are bytewise
    /// equal.
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
        m.insert(
            "isa".into(),
            json::s(match self.isa {
                Isa::Va32 => "va32",
                Isa::Va64 => "va64",
            }),
        );
        m.insert("mode".into(), json::s(self.mode));
        m.insert("windows".into(), json::n(self.windows as u64));
        m.insert("per_window".into(), json::n(self.per_window as u64));
        Value::Obj(m)
    }

    /// The campaign handle: 16 hex digits of FNV-1a over the canonical
    /// spec. Deterministic across daemon restarts, so a restarted daemon
    /// re-attaches resubmitted specs to their journals.
    pub fn handle(&self) -> String {
        let text = json::write(&self.canonical());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Parses and validates a submitted spec object. Error strings are
    /// returned to the client under the `bad-params` code.
    pub fn parse(v: &Value) -> Result<CampaignSpec, String> {
        let Value::Obj(_) = v else {
            return Err("spec must be a JSON object".to_string());
        };
        let engine_name = v
            .get("engine")
            .and_then(Value::as_str)
            .ok_or("spec needs a string \"engine\"")?;
        let engine = Engine::from_name(engine_name).ok_or_else(|| {
            format!("unknown engine {engine_name} (expected avf|pvf|sweep|svf|svf-hardened)")
        })?;
        let wname = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("spec needs a string \"workload\"")?;
        let workload =
            WorkloadId::from_name(wname).ok_or_else(|| format!("unknown workload {wname}"))?;
        let hardened = match v.get("hardened") {
            None => false,
            Some(b) => b.as_bool().ok_or("\"hardened\" must be a boolean")?,
        };
        let priority = match v.get("priority").map(|p| p.as_str()) {
            None => Priority::Normal,
            Some(Some("low")) => Priority::Low,
            Some(Some("normal")) => Priority::Normal,
            Some(Some("high")) => Priority::High,
            Some(p) => return Err(format!("unknown priority {p:?} (expected low|normal|high)")),
        };
        let faults = match v.get("faults") {
            None => 150,
            Some(f) => {
                f.as_u64()
                    .filter(|&f| (1..=1_000_000).contains(&f))
                    .ok_or("\"faults\" must be an integer in 1..=1000000")? as usize
            }
        };
        let seed = match v.get("seed") {
            None => 2021,
            Some(s) => s
                .as_u64()
                .ok_or("\"seed\" must be a non-negative integer")?,
        };
        let model = match v.get("model") {
            None => CoreModel::A72,
            Some(m) => {
                let name = m.as_str().ok_or("\"model\" must be a string")?;
                CoreModel::ALL
                    .into_iter()
                    .find(|c| c.name().eq_ignore_ascii_case(name))
                    .ok_or_else(|| format!("unknown model {name}"))?
            }
        };
        let structure = match v.get("structure") {
            None => HwStructure::RegisterFile,
            Some(s) => {
                let name = s.as_str().ok_or("\"structure\" must be a string")?;
                HwStructure::ALL
                    .into_iter()
                    .find(|x| x.name().eq_ignore_ascii_case(name))
                    .ok_or_else(|| format!("unknown structure {name}"))?
            }
        };
        let parse_model = |n: &str| {
            FaultModel::from_name(n.trim()).ok_or_else(|| format!("unknown fault model {n}"))
        };
        let models =
            match v.get("models") {
                None => vec![FaultModel::BitFlip],
                Some(Value::Str(list)) if list == "all" => FaultModel::ALL.to_vec(),
                Some(Value::Str(list)) => list
                    .split(',')
                    .map(parse_model)
                    .collect::<Result<Vec<_>, _>>()?,
                // The canonical (persisted) form is an array of names.
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        m.as_str()
                            .ok_or("\"models\" entries must be strings".to_string())
                            .and_then(parse_model)
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(_) => return Err(
                    "\"models\" must be a comma-separated string, an array of names, or \"all\""
                        .into(),
                ),
            };
        let isa = match v.get("isa").map(|i| i.as_str()) {
            None => Isa::Va64,
            Some(Some("va32")) => Isa::Va32,
            Some(Some("va64")) => Isa::Va64,
            Some(i) => return Err(format!("unknown isa {i:?} (expected va32|va64)")),
        };
        let mode = match v.get("mode").map(|m| m.as_str()) {
            None => "wd",
            Some(Some("wd")) => "wd",
            Some(Some("woi")) => "woi",
            Some(Some("wi")) => "wi",
            Some(m) => return Err(format!("unknown mode {m:?} (expected wd|woi|wi)")),
        };
        let windows = match v.get("windows") {
            None => 8,
            Some(w) => {
                w.as_u64()
                    .filter(|&w| (1..=1024).contains(&w))
                    .ok_or("\"windows\" must be an integer in 1..=1024")? as usize
            }
        };
        let per_window = match v.get("per_window") {
            None => 8,
            Some(w) => w
                .as_u64()
                .filter(|&w| (1..=10_000).contains(&w))
                .ok_or("\"per_window\" must be an integer in 1..=10000")?
                as usize,
        };
        // Cross-field checks mirroring the CLI: the microarchitectural
        // engines need a core model whose ISA can run the workload; that
        // is validated at prepare time, but the va32/va64 split for pvf
        // is caught here.
        Ok(CampaignSpec {
            engine,
            workload,
            hardened,
            priority,
            faults,
            seed,
            model,
            structure,
            models,
            isa,
            mode,
            windows,
            per_window,
        })
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
