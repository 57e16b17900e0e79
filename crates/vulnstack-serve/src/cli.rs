//! Command-line front ends for the daemon (`vulnstack serve`) and the
//! client (`vulnstack client`), plus the flag parser every `vulnstack`
//! subcommand shares. The binary crate forwards its raw argument slices
//! here so all serving-related parsing lives with the protocol it
//! drives.

use std::collections::HashMap;
use std::path::PathBuf;

use crate::client::Client;
use crate::daemon::{self, DaemonOpts};
use crate::json::{self, Value};
use crate::spec::CampaignSpec;

/// One subcommand's parsed flags.
#[derive(Debug, Default)]
pub struct Flags {
    /// `--name value` pairs; a repeated flag keeps its last value.
    pub values: HashMap<String, String>,
    /// The value-less `--switch`es given.
    pub switches: Vec<String>,
}

/// Parses the flags of subcommand `cmd`: each of `values` takes one
/// argument, each of `switches` none. A positional argument, a value
/// flag without its value, or any flag `cmd` does not take is an error
/// naming `cmd`, so a misspelled flag fails instead of silently running
/// a different experiment.
///
/// # Errors
///
/// A message naming the offending argument.
pub fn parse_flags(
    cmd: &str,
    rest: &[String],
    values: &[&str],
    switches: &[&str],
) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut i = 0;
    while i < rest.len() {
        let a = &rest[i];
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a}"));
        };
        if switches.contains(&name) {
            flags.switches.push(name.to_string());
            i += 1;
        } else if values.contains(&name) {
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

/// The spec fields `client run` takes as string flags.
const SPEC_STRINGS: [&str; 6] = ["model", "structure", "models", "isa", "mode", "priority"];
/// The spec fields `client run` takes as number flags.
const SPEC_NUMBERS: [&str; 4] = ["faults", "seed", "windows", "per_window"];

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
    let flags = parse_flags("serve", args, &["state", "listen", "slots", "threads"], &[])?.values;
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

/// Parses `client run`'s flags: the spec fields, `--engine`, `--json`
/// and the `--hardened` switch.
fn parse_run_flags(rest: &[String]) -> Result<Flags, String> {
    let values: Vec<&str> = ["engine", "json"]
        .into_iter()
        .chain(SPEC_STRINGS)
        .chain(SPEC_NUMBERS)
        .collect();
    parse_flags("client run", rest, &values, &["hardened"])
}

/// Builds a spec object from client flags; `workload` is positional.
fn spec_from_flags(workload: &str, flags: &Flags) -> Result<Value, String> {
    let mut fields: Vec<(&str, Value)> = vec![("workload", json::s(workload))];
    fields.push((
        "engine",
        json::s(flags.values.get("engine").map_or("avf", String::as_str)),
    ));
    for key in SPEC_STRINGS {
        if let Some(v) = flags.values.get(key) {
            fields.push((key, json::s(v)));
        }
    }
    for key in SPEC_NUMBERS {
        if let Some(v) = flags.values.get(key) {
            let n: u64 = v.parse().map_err(|_| format!("bad --{key} {v}"))?;
            fields.push((key, json::n(n)));
        }
    }
    if flags.switches.iter().any(|s| s == "hardened") {
        fields.push(("hardened", Value::Bool(true)));
    }
    let spec = json::obj(fields);
    // Validate locally so a typo fails before touching the daemon.
    CampaignSpec::parse(&spec)?;
    Ok(spec)
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
            let spec = spec_from_flags(workload, &flags)?;
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
            parse_flags("client list", args.get(2..).unwrap_or(&[]), &[], &[])?;
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
            let flags = parse_flags(&cmd, args.get(2..).unwrap_or(&[]), &["handle"], &[])?;
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
            parse_flags("client shutdown", args.get(2..).unwrap_or(&[]), &[], &[])?;
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
    fn spec_from_flags_builds_a_valid_spec() {
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
        let spec = spec_from_flags("qsort", &f).unwrap();
        let parsed = CampaignSpec::parse(&spec).unwrap();
        assert_eq!(parsed.faults, 25);
        assert_eq!(parsed.priority.name(), "high");
    }

    #[test]
    fn bad_flags_fail_before_the_network() {
        assert!(spec_from_flags("qsort", &flags(&["--faults", "zero"])).is_err());
        assert!(spec_from_flags("noexist", &flags(&[])).is_err());
        assert!(parse_run_flags(&sv(&["stray"])).is_err());
        // A misspelled or foreign flag fails naming the subcommand and
        // the flag, before any connection is attempted.
        for (args, err) in [
            (
                &["run", "qsort", "--fault", "3"][..],
                "client run: unknown flag --fault",
            ),
            (
                &["run", "qsort", "--plan", "pruned"][..],
                "client run: unknown flag --plan",
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
