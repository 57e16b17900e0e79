//! The JSON files `vulnstack analyze`, `analyze prune-audit` and `avf`
//! write with `--json`: each parses, lists its keys in their documented
//! order with numbers at their documented decimals, and carries the
//! values the library computes for the same input. Also `vulnstack trace
//! --site`, whose replay of a campaign site reports the record the
//! campaign journaled for it, and `trace`'s refusal of a site outside
//! the golden run or the structure.

use std::ffi::OsStr;
use std::process::Command;

use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_core::json::{self, Value};
use vulnstack_gefin::{decode_record, Prepared};
use vulnstack_isa::Isa;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::CoreModel;
use vulnstack_workloads::WorkloadId;

/// Runs `vulnstack <args> --json <file>` and returns the file's text
/// and parsed document.
fn cli_json(args: &[&str]) -> (String, Value) {
    let path = std::env::temp_dir().join(format!(
        "vulnstack-{}-{}.json",
        args.join("-"),
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_vulnstack"))
        .args(args)
        .arg("--json")
        .arg(&path)
        .output()
        .expect("run the CLI");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("JSON report");
    std::fs::remove_file(&path).expect("remove the JSON report");
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    (text, doc)
}

/// Asserts that the top-level object has exactly `keys`, written in
/// that order (a parsed object holds its keys sorted, so the order is
/// read from the text).
fn assert_keys(text: &str, doc: &Value, keys: &[&str]) {
    let Value::Obj(fields) = doc else {
        panic!("not an object: {text}");
    };
    let mut have: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = keys.to_vec();
    have.sort_unstable();
    want.sort_unstable();
    assert_eq!(have, want, "{text}");
    let at = |k: &&str| text.find(&format!("\"{k}\":")).expect("key in text");
    let offsets: Vec<usize> = keys.iter().map(at).collect();
    assert!(offsets.windows(2).all(|w| w[0] < w[1]), "key order: {text}");
}

/// The number of decimals the first `key`'s number is written with.
fn decimals(text: &str, key: &str) -> usize {
    let start = text.find(&format!("\"{key}\":")).expect("key in text") + key.len() + 3;
    let number: String = text[start..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    number.split_once('.').map_or(0, |(_, frac)| frac.len())
}

fn num(doc: &Value, key: &str) -> f64 {
    match doc.get(key) {
        Some(Value::Num(x)) => *x,
        other => panic!("{key} is not a number: {other:?}"),
    }
}

fn count(doc: &Value, key: &str) -> u64 {
    doc.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("{key} is not a count: {doc:?}"))
}

fn arr<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn text_of<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is not a string: {doc:?}"))
}

/// crc32's static analysis on va64, as `analyze crc32` runs it.
fn crc32_analysis() -> vulnstack_analyze::StaticAnalysis {
    let w = WorkloadId::Crc32.build();
    let compiled = compile(&w.module, Isa::Va64, &CompileOpts::default()).expect("compiles");
    vulnstack_analyze::analyze(&compiled)
}

#[test]
fn analyze_json_reports_the_static_analysis() {
    let (text, doc) = cli_json(&["analyze", "crc32"]);
    let keys = ["isa", "rf_pvf", "undecodable_words", "funcs", "lints"];
    assert_keys(&text, &doc, &keys);
    assert_eq!(decimals(&text, "rf_pvf"), 6);
    assert_eq!(decimals(&text, "pvf"), 6);
    assert_eq!(decimals(&text, "weight"), 3);

    let sa = crc32_analysis();
    assert_eq!(text_of(&doc, "isa"), "va64");
    assert!((num(&doc, "rf_pvf") - sa.pvf.rf_pvf).abs() <= 1e-6);
    assert_eq!(
        count(&doc, "undecodable_words"),
        sa.cfg.undecodable.len() as u64
    );
    let funcs = arr(&doc, "funcs");
    assert_eq!(funcs.len(), sa.pvf.per_func.len());
    for (f, (name, pvf, weight)) in funcs.iter().zip(&sa.pvf.per_func) {
        assert_eq!(text_of(f, "name"), name);
        assert!((num(f, "pvf") - pvf).abs() <= 1e-6);
        assert!((num(f, "weight") - weight).abs() <= 1e-3);
    }
    let lints: Vec<&str> = arr(&doc, "lints")
        .iter()
        .map(|l| l.as_str().expect("a lint is a string"))
        .collect();
    let want: Vec<String> = sa.lints.iter().map(ToString::to_string).collect();
    assert_eq!(lints, want);
}

#[test]
fn prune_audit_json_reports_the_lattice() {
    let (text, doc) = cli_json(&["analyze", "prune-audit", "crc32", "--faults", "8"]);
    let keys = [
        "workload",
        "model",
        "nphys",
        "static_dead_regs",
        "static_dead_fraction",
        "dynamic_rf_live_fraction",
        "static_rf_pvf",
        "sampled_sites",
        "static_dead_sites",
        "dynamic_dead_sites",
        "violations",
    ];
    assert_keys(&text, &doc, &keys);
    for key in [
        "static_dead_fraction",
        "dynamic_rf_live_fraction",
        "static_rf_pvf",
    ] {
        assert_eq!(decimals(&text, key), 6, "{key}");
    }

    assert_eq!(text_of(&doc, "workload"), "crc32");
    assert_eq!(text_of(&doc, "model"), "A72");
    let nphys = count(&doc, "nphys");
    let regs = arr(&doc, "static_dead_regs");
    assert!(!regs.is_empty() && regs.iter().all(|r| r.as_u64().is_some()));
    let fraction = regs.len() as f64 / nphys as f64;
    assert!((num(&doc, "static_dead_fraction") - fraction).abs() <= 1e-6);
    let live = num(&doc, "dynamic_rf_live_fraction");
    assert!(live > 0.0 && live < 1.0);
    assert!((num(&doc, "static_rf_pvf") - crc32_analysis().pvf.rf_pvf).abs() <= 1e-6);
    assert_eq!(count(&doc, "sampled_sites"), 8);
    assert!(count(&doc, "static_dead_sites") <= count(&doc, "dynamic_dead_sites"));
    assert!(count(&doc, "dynamic_dead_sites") <= 8);
    assert_eq!(count(&doc, "violations"), 0);
}

#[test]
fn prune_audit_json_labels_a_hardened_workload_as_avf_does() {
    let args = [
        "analyze",
        "prune-audit",
        "crc32",
        "--hardened",
        "--faults",
        "8",
    ];
    let (text, doc) = cli_json(&args);
    assert_eq!(text_of(&doc, "workload"), "crc32+ft", "{text}");
    assert_eq!(count(&doc, "sampled_sites"), 8);
    assert_eq!(count(&doc, "violations"), 0);
    // The same golden run's avf report names it the same way.
    let avf = [
        "avf",
        "crc32",
        "--hardened",
        "--model",
        "A9",
        "--structure",
        "RF",
        "--faults",
        "2",
    ];
    assert_eq!(text_of(&cli_json(&avf).1, "workload"), "crc32+ft");
}

#[test]
fn avf_json_reports_the_campaign_tally() {
    let args = [
        "avf",
        "crc32",
        "--model",
        "A9",
        "--structure",
        "RF",
        "--faults",
        "4",
    ];
    let (text, doc) = cli_json(&args);
    assert_keys(&text, &doc, &["workload", "plan", "structures"]);
    assert_eq!(text_of(&doc, "workload"), "crc32");
    assert_eq!(text_of(&doc, "plan"), "sampled");
    let structures = arr(&doc, "structures");
    assert_eq!(structures.len(), 1);
    assert_eq!(text_of(&structures[0], "structure"), "RF");
    let models = arr(&structures[0], "models");
    assert_eq!(models.len(), 1);
    let m = &models[0];
    assert_eq!(text_of(m, "model"), "bit-flip");
    assert_eq!(count(m, "injections"), 4);
    let [masked, sdc, crash, detected] =
        ["masked", "sdc", "crash", "detected"].map(|k| count(m, k));
    assert_eq!(masked + sdc + crash + detected, 4);
    assert!((num(m, "avf") - (sdc + crash) as f64 / 4.0).abs() <= 1e-6);
    let hvf = num(m, "hvf");
    assert!((0.0..=1.0).contains(&hvf));
    assert_eq!(decimals(&text, "avf"), 6);
    assert_eq!(decimals(&text, "hvf"), 6);
    assert!(text.ends_with("]}\n"));
}

/// Runs `vulnstack <args>` and returns its stdout.
fn cli_stdout(args: &[&OsStr]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_vulnstack"))
        .args(args)
        .output()
        .expect("run the CLI");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// `trace --site 10` replays site 10 of the campaign `avf` runs with the
/// same flags. That register-file run locks into a hang: the replay
/// reports the record the journaled campaign wrote for the site, and its
/// event log ends at the hang proof instead of at the watchdog a million
/// cycles later.
#[test]
fn trace_site_replays_the_journaled_record() {
    let flags = [
        "crc32",
        "--model",
        "A72",
        "--structure",
        "RF",
        "--faults",
        "40",
        "--seed",
        "8",
    ]
    .map(OsStr::new);
    let journal = std::env::temp_dir().join(format!(
        "vulnstack-trace-site-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let avf = [
        &[OsStr::new("avf")],
        &flags[..],
        &[OsStr::new("--journal"), journal.as_os_str()],
    ]
    .concat();
    cli_stdout(&avf);
    let text = std::fs::read_to_string(&journal).expect("journal");
    std::fs::remove_file(&journal).expect("remove the journal");
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("R|10|"))
        .expect("site 10 is journaled");
    let (payload, _checksum) = line.rsplit_once('|').expect("checksummed entry");
    let rec = decode_record(payload).expect("an AVF record");

    let trace = [
        &[OsStr::new("trace")],
        &flags[..],
        &[OsStr::new("--site"), OsStr::new("10")],
    ]
    .concat();
    let out = cli_stdout(&trace);
    let first = out.lines().next().expect("a first line");
    let fpm = rec.fpm.map_or("none".to_string(), |f| f.to_string());
    assert_eq!(
        first,
        format!(
            "crc32 on A72: inject RF bit {} @ cycle {} -> {:?} (FPM {fpm})",
            rec.bit, rec.cycle, rec.effect
        )
    );
    assert!(first.ends_with("-> Crash (FPM WD)"), "{first}");
    let last_event = out
        .lines()
        .rfind(|l| l.trim_start().starts_with("cycle"))
        .expect("an event log");
    assert!(
        last_event.ends_with(": hang proven (run ended early as Timeout)"),
        "{out}"
    );
}

/// Runs `vulnstack <args>`, which must fail with exit status 1, and
/// returns the first line of its stderr.
fn cli_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_vulnstack"))
        .args(args)
        .output()
        .expect("run the CLI");
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    stderr.lines().next().unwrap_or_default().to_string()
}

/// A `--bit` at or past the structure's bit count, or a `--cycle` past
/// the golden run, is refused before anything is injected, by name.
#[test]
fn trace_refuses_a_site_outside_the_run_or_the_structure() {
    let model = CoreModel::A57;
    let site = |st: HwStructure, flag: &str, value: u64| {
        cli_error(&[
            "trace",
            "qsort",
            "--model",
            model.name(),
            "--structure",
            st.name(),
            flag,
            &value.to_string(),
        ])
    };
    for st in HwStructure::ALL {
        let bits = st.bits(&model.config());
        assert_eq!(
            site(st, "--bit", bits),
            format!("error: --bit {bits} is out of range ({st} has {bits} bits)")
        );
    }
    let cycles = Prepared::new(&WorkloadId::Qsort.build(), model)
        .expect("prepare qsort")
        .golden
        .cycles;
    assert_eq!(
        site(HwStructure::RegisterFile, "--cycle", cycles + 1),
        format!(
            "error: --cycle {} is past the golden run ({cycles} cycles)",
            cycles + 1
        )
    );
}
