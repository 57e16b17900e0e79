//! Command-line front ends for the daemon (`vulnstack serve`) and the
//! client (`vulnstack client`), plus the flag parser every `vulnstack`
//! subcommand shares. The binary crate forwards its raw argument slices
//! here so all serving-related parsing lives with the protocol it
//! drives.

use std::collections::HashMap;
use std::path::PathBuf;

use vulnstack_core::json::{self, Value};

use crate::client::Client;
use crate::daemon::{self, DaemonOpts};
use crate::spec::{CampaignSpec, Engine};

/// One subcommand's parsed flags.
#[derive(Debug, Default)]
pub struct Flags {
    /// `--name value` pairs; a repeated flag keeps its last value.
    pub values: HashMap<String, String>,
    /// The value-less `--switch`es given.
    pub switches: Vec<String>,
}

impl Flags {
    /// True when `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Parses the flags of subcommand `cmd`: each flag named in `values`
/// takes one argument, each named in `switches` none (both lists are
/// space-separated). A positional argument, a value flag without its
/// value, or any flag `cmd` does not take is an error naming `cmd`, so a
/// misspelled flag fails instead of silently running a different
/// experiment.
///
/// # Errors
///
/// A message naming the offending argument.
pub fn parse_flags(
    cmd: &str,
    rest: &[String],
    values: &str,
    switches: &str,
) -> Result<Flags, String> {
    let takes = |list: &str, name: &str| list.split_whitespace().any(|n| n == name);
    let mut flags = Flags::default();
    let mut i = 0;
    while i < rest.len() {
        let a = &rest[i];
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a}"));
        };
        if takes(switches, name) {
            flags.switches.push(name.to_string());
            i += 1;
        } else if takes(values, name) {
            let v = rest
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.values.insert(name.to_string(), v.clone());
            i += 2;
        } else {
            return Err(format!("{cmd}: unknown flag {a}"));
        }
    }
    Ok(flags)
}

fn parse_num(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{key} {v}")),
    }
}

/// `vulnstack serve --state DIR [--listen ADDR] [--slots N] [--threads N]`
///
/// `--listen` takes `host:port` (port 0 picks a free port; the resolved
/// endpoint is printed and written to `<state>/endpoint`) or
/// `unix:/path/to.sock`.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("serve", args, "state listen slots threads", "")?.values;
    let state = flags
        .get("state")
        .ok_or("serve needs --state DIR (spec/journal directory)")?;
    let opts = DaemonOpts {
        listen: flags
            .get("listen")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:0".to_string()),
        state: PathBuf::from(state),
        slots: parse_num(&flags, "slots", 2)?.max(1) as usize,
        threads: parse_num(&flags, "threads", 2)?.max(1) as usize,
    };
    daemon::serve(&opts)
}

/// Parses `client run`'s flags: `--engine`, `--json`, and every spec
/// field as a flag, as `vulnstack avf|pvf|svf` name them.
fn parse_run_flags(rest: &[String]) -> Result<Flags, String> {
    let values = "engine json priority faults seed model structure models isa mode windows \
                  per_window plan at";
    parse_flags("client run", rest, values, "hardened")
}

/// The spec `client run` submits: the canonical form of the one the CLI
/// builds from the same flags (`--engine`, default `avf`, names the
/// engine), validated as the daemon will validate it so a bad value
/// fails before the network.
fn run_spec(workload: &str, flags: &Flags) -> Result<Value, String> {
    let engine = flags
        .values
        .get("engine")
        .map_or(Ok(Engine::Avf), |e| e.parse())?;
    let spec = CampaignSpec::from_flags(engine, workload, flags)?;
    let doc = spec.canonical();
    // JSON numbers are doubles: a seed or cycle above 2^53 would reach
    // the daemon as a different campaign.
    if CampaignSpec::parse(&doc)? != spec {
        return Err("--seed and --at must not exceed 2^53 over the wire".to_string());
    }
    Ok(doc)
}

/// `vulnstack client <addr> <action> ...`
///
/// Actions:
/// * `run <workload> [--engine avf] [spec flags] [--json PATH]` —
///   submit, subscribe, stream records to stdout, write the final
///   report verbatim to `--json` (or stdout).
/// * `list` — table of campaigns.
/// * `status|cancel --handle H` — one campaign.
/// * `shutdown` — graceful daemon stop.
pub fn client_main(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or("client needs a daemon address")?;
    let action = args.get(1).map_or("list", String::as_str);
    match action {
        "run" => {
            let workload = args
                .get(2)
                .filter(|w| !w.starts_with("--"))
                .ok_or("client run needs a workload name")?;
            let flags = parse_run_flags(args.get(3..).unwrap_or(&[]))?;
            let spec = run_spec(workload, &flags)?;
            let mut client = Client::connect(addr)?;
            let mut streamed = 0u64;
            let done = client.run_campaign(&spec, |_r| streamed += 1)?;
            eprintln!("{streamed} record(s) streamed; campaign {}", done.state);
            if done.state == "failed" {
                return Err(format!("campaign failed: {}", done.message));
            }
            match flags.values.get("json") {
                // The report is written verbatim: byte-identical to the
                // CLI's `--json` output for the same campaign.
                Some(path) => vulnstack_core::report::write_atomic(path, done.report.as_bytes())
                    .map_err(|e| format!("write {path}: {e}"))?,
                None => print!("{}", done.report),
            }
            Ok(())
        }
        "list" => {
            parse_flags("client list", args.get(2..).unwrap_or(&[]), "", "")?;
            let mut client = Client::connect(addr)?;
            let resp = client.call("list", vec![])?;
            let Some(Value::Arr(items)) = resp.get("campaigns") else {
                return Err("malformed list response".to_string());
            };
            for item in items {
                let get = |k: &str| item.get(k).and_then(Value::as_str).unwrap_or("?");
                let records = item.get("records").and_then(Value::as_u64).unwrap_or(0);
                println!(
                    "{}  {:<12} {:<10} {:<8} {:<9} {} record(s)",
                    get("handle"),
                    get("engine"),
                    get("workload"),
                    get("priority"),
                    get("state"),
                    records
                );
            }
            Ok(())
        }
        "status" | "cancel" => {
            let cmd = format!("client {action}");
            let flags = parse_flags(&cmd, args.get(2..).unwrap_or(&[]), "handle", "")?;
            let handle = flags
                .values
                .get("handle")
                .ok_or_else(|| format!("client {action} needs --handle H"))?;
            let mut client = Client::connect(addr)?;
            let resp = client.call(action, vec![("handle", json::s(handle))])?;
            println!("{}", json::write(&resp));
            Ok(())
        }
        "shutdown" => {
            parse_flags("client shutdown", args.get(2..).unwrap_or(&[]), "", "")?;
            let mut client = Client::connect(addr)?;
            client.call("shutdown", vec![])?;
            Ok(())
        }
        other => Err(format!(
            "unknown client action {other} (expected run|list|status|cancel|shutdown)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn flags(pairs: &[&str]) -> Flags {
        parse_run_flags(&sv(pairs)).unwrap()
    }

    #[test]
    fn run_spec_builds_a_valid_spec() {
        let f = flags(&[
            "--engine",
            "avf",
            "--model",
            "A9",
            "--structure",
            "RF",
            "--faults",
            "25",
            "--seed",
            "7",
            "--priority",
            "high",
        ]);
        let spec = run_spec("qsort", &f).unwrap();
        let parsed = CampaignSpec::parse(&spec).unwrap();
        assert_eq!(parsed.faults, 25);
        assert_eq!(parsed.priority.name(), "high");
        // The client submits the canonical form.
        assert_eq!(spec, parsed.canonical());
    }

    #[test]
    fn bad_flags_fail_before_the_network() {
        assert!(run_spec("qsort", &flags(&["--faults", "zero"])).is_err());
        assert!(run_spec("noexist", &flags(&[])).is_err());
        // 2^53 + 1 rounds to 2^53 as a JSON number: refused, not changed.
        assert!(run_spec("qsort", &flags(&["--seed", "9007199254740992"])).is_ok());
        assert_eq!(
            run_spec("qsort", &flags(&["--seed", "9007199254740993"])).unwrap_err(),
            "--seed and --at must not exceed 2^53 over the wire"
        );
        assert!(parse_run_flags(&sv(&["stray"])).is_err());
        // A misspelled or foreign flag fails naming the subcommand and
        // the flag, before any connection is attempted.
        for (args, err) in [
            (
                &["run", "qsort", "--fault", "3"][..],
                "client run: unknown flag --fault",
            ),
            (
                &["run", "qsort", "--breakdown"][..],
                "client run: unknown flag --breakdown",
            ),
            (
                &["status", "--handel", "h"][..],
                "client status: unknown flag --handel",
            ),
        ] {
            let args: Vec<String> = ["127.0.0.1:9"]
                .iter()
                .chain(args)
                .map(|s| s.to_string())
                .collect();
            assert_eq!(client_main(&args).unwrap_err(), err);
        }
        let err = serve_main(&sv(&["--state", "unused", "--slot", "4"]));
        assert_eq!(err.unwrap_err(), "serve: unknown flag --slot");
    }
}
