//! End-to-end integration harness for the `vulnstack-serve` daemon.
//!
//! Every test here spawns the real `vulnstack` binary as a child
//! process and drives real sockets: submit → stream → complete,
//! protocol abuse, SIGKILL → restart → resume, multi-tenant
//! concurrency, and the socket-bind-failure regression. This is the
//! proof that the daemon's promises — byte-identical reports vs the
//! CLI, bit-identical streams across a crash, structured errors for
//! every malformed input — hold over the wire, not just in unit tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vulnstack_core::json::{self, Value};
use vulnstack_serve::client::{Client, StreamedRecord};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_vulnstack")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulnstack-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running daemon child process; killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `vulnstack serve` on a fresh port and waits for its
    /// "listening on ADDR" banner.
    fn spawn(state: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(bin())
            .arg("serve")
            .args(["--state", state.to_str().unwrap()])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read daemon banner");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn spawn_tcp(state: &Path) -> Daemon {
        Daemon::spawn(state, &["--listen", "127.0.0.1:0", "--threads", "1"])
    }

    /// SIGKILL — the crash half of the recovery test.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

fn svf_spec(workload: &str, faults: u64, priority: &str) -> Value {
    json::parse(&format!(
        r#"{{"engine":"svf","workload":"{workload}","faults":{faults},"seed":11,"priority":"{priority}"}}"#
    ))
    .unwrap()
}

/// Sorts a streamed record set into index order for set-wise
/// comparison (multi-threaded runs complete sites in any order).
fn by_index(mut records: Vec<StreamedRecord>) -> Vec<StreamedRecord> {
    records.sort_by_key(|r| r.index);
    records
}

/// Submit over a real socket, stream every record, and check the final
/// report byte-identical to `vulnstack avf --json` for the same
/// campaign, on the sampled and the pruned plan — the daemon and the
/// CLI run one spec through one runner and one report builder.
#[test]
fn submit_stream_complete_matches_cli_byte_for_byte() {
    let state = temp_dir("cli-cmp");
    let daemon = Daemon::spawn_tcp(&state);
    let mut client = Client::connect(&daemon.addr).unwrap();
    for plan in ["sampled", "pruned"] {
        let spec = json::parse(&format!(
            r#"{{"engine":"avf","workload":"qsort","model":"A9","structure":"RF","faults":20,"seed":5,"plan":"{plan}"}}"#
        ))
        .unwrap();
        let mut records = Vec::new();
        let done = client
            .run_campaign(&spec, |r| records.push(r.clone()))
            .unwrap();
        assert_eq!(done.state, "done", "{plan}");
        assert_eq!(records.len(), 20, "one streamed record per injection");
        let indices: Vec<u64> = by_index(records).iter().map(|r| r.index).collect();
        assert_eq!(indices, (0..20).collect::<Vec<u64>>());

        let cli_json = state.join(format!("cli-{plan}.json"));
        let status = Command::new(bin())
            .args([
                "avf",
                "qsort",
                "--model",
                "A9",
                "--structure",
                "RF",
                "--faults",
                "20",
                "--seed",
                "5",
                "--plan",
                plan,
                "--json",
            ])
            .arg(&cli_json)
            .stdout(Stdio::null())
            .status()
            .unwrap();
        assert!(status.success());
        let cli_bytes = std::fs::read_to_string(&cli_json).unwrap();
        assert!(cli_bytes.contains(&format!("\"plan\":\"{plan}\"")));
        assert_eq!(
            done.report, cli_bytes,
            "{plan}: daemon report and CLI --json must be byte-identical"
        );
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&state);
}

/// Protocol abuse over a live socket: malformed JSON, oversized lines,
/// bad requests, unknown verbs, bad params, stale handles — each gets a
/// structured error and the connection survives them all.
#[test]
fn protocol_errors_are_structured_and_survivable() {
    let state = temp_dir("proto-abuse");
    let daemon = Daemon::spawn_tcp(&state);
    let mut stream = std::net::TcpStream::connect(&daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut roundtrip = |line: &str| -> Value {
        stream.write_all(line.as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        json::parse(resp.trim()).expect("daemon responses always parse")
    };
    let code_of = |v: &Value| -> String {
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap_or("<none>")
            .to_string()
    };

    let cases: Vec<(String, &str)> = vec![
        ("{not json\n".to_string(), "bad-json"),
        (format!("{}\n", "z".repeat(70 * 1024)), "oversized-line"),
        ("[1,2,3]\n".to_string(), "bad-request"),
        ("{\"verb\":\"list\"}\n".to_string(), "bad-request"),
        ("{\"id\":5,\"verb\":\"frobnicate\"}\n".to_string(), "unknown-verb"),
        ("{\"id\":6,\"verb\":\"submit\"}\n".to_string(), "bad-params"),
        (
            "{\"id\":7,\"verb\":\"submit\",\"spec\":{\"engine\":\"avf\",\"workload\":\"noexist\"}}\n"
                .to_string(),
            "bad-params",
        ),
        (
            "{\"id\":8,\"verb\":\"status\",\"handle\":\"feedfacecafebeef\"}\n".to_string(),
            "unknown-handle",
        ),
        (
            "{\"id\":9,\"verb\":\"subscribe\",\"handle\":\"0000000000000000\"}\n".to_string(),
            "unknown-handle",
        ),
        (
            "{\"id\":10,\"verb\":\"cancel\",\"handle\":\"ffffffffffffffff\"}\n".to_string(),
            "unknown-handle",
        ),
    ];
    for (line, want) in cases {
        let resp = roundtrip(&line);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(code_of(&resp), want, "for request {line:?}");
    }
    // The same connection still serves valid requests.
    let resp = roundtrip("{\"id\":11,\"verb\":\"ping\"}\n");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    drop(daemon);
    let _ = std::fs::remove_dir_all(&state);
}

/// Headline: SIGKILL the daemon mid-campaign, restart it on the same
/// state directory, and verify the re-attached campaign resumes from
/// its journal and serves a record stream and final report
/// bit-identical to an uninterrupted run.
#[test]
fn sigkill_restart_resumes_bit_identically() {
    let spec = svf_spec("crc32", 3000, "normal");

    // Control: the same campaign, uninterrupted, on a fresh daemon.
    let control_state = temp_dir("resume-control");
    let control = Daemon::spawn_tcp(&control_state);
    let mut client = Client::connect(&control.addr).unwrap();
    let mut control_records = Vec::new();
    let control_done = client
        .run_campaign(&spec, |r| control_records.push(r.clone()))
        .unwrap();
    assert_eq!(control_done.state, "done");
    assert_eq!(control_done.executed, 3000);
    assert_eq!(control_done.replayed, 0);
    drop(control);

    // Victim: same campaign; SIGKILL the daemon after 20 streamed
    // records, while injections are still in flight.
    let state = temp_dir("resume-victim");
    let mut daemon = Daemon::spawn_tcp(&state);
    let mut c = Client::connect(&daemon.addr).unwrap();
    let resp = c.call("submit", vec![("spec", spec.clone())]).unwrap();
    let handle = resp
        .get("handle")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let sub = c
        .send("subscribe", vec![("handle", json::s(&handle))])
        .unwrap();
    c.wait_response(sub, |_| {}).unwrap();
    let mut seen = 0;
    while seen < 20 {
        let ev = c.read_event().unwrap();
        if ev.get("event").and_then(Value::as_str) == Some("record") {
            seen += 1;
        }
        assert_ne!(
            ev.get("event").and_then(Value::as_str),
            Some("done"),
            "campaign finished before the kill window; raise the fault count"
        );
    }
    daemon.kill();

    // Restart on the same state dir: the daemon rescans spec files and
    // resumes from the journal. A resubmit of the same spec maps onto
    // the same handle; the subscriber replays the full stream.
    let daemon2 = Daemon::spawn_tcp(&state);
    let mut client2 = Client::connect(&daemon2.addr).unwrap();
    let mut resumed_records = Vec::new();
    let resumed_done = client2
        .run_campaign(&spec, |r| resumed_records.push(r.clone()))
        .unwrap();
    assert_eq!(resumed_done.state, "done");
    assert!(
        resumed_done.replayed >= 20,
        "journal must hold at least the records streamed before the kill \
         (replayed {})",
        resumed_done.replayed
    );
    assert!(
        resumed_done.executed > 0,
        "the kill landed mid-campaign, so a tail must execute fresh"
    );
    assert_eq!(resumed_done.replayed + resumed_done.executed, 3000);

    // Bit-identity: the resumed stream and report equal the
    // uninterrupted control's, record for record, byte for byte.
    assert_eq!(by_index(resumed_records), by_index(control_records));
    assert_eq!(resumed_done.report, control_done.report);
    drop(daemon2);
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&control_state);
}

/// Multi-tenant concurrency: several clients submit campaigns at mixed
/// priorities over one shared pool; all complete, every stream matches
/// its solo-run control bit-for-bit, and both tenants were actually
/// granted slots. (Proportional-share bounds are pinned down by the
/// stride-scheduler unit tests in `vulnstack-core::fair`.)
#[test]
fn concurrent_campaigns_all_complete_with_solo_identical_streams() {
    let specs = [
        svf_spec("crc32", 300, "high"),
        svf_spec("sha", 300, "low"),
        svf_spec("fft", 200, "normal"),
    ];

    // Solo controls, run sequentially on their own daemon.
    let solo_state = temp_dir("conc-solo");
    let solo = Daemon::spawn_tcp(&solo_state);
    let mut solo_runs = Vec::new();
    for spec in &specs {
        let mut client = Client::connect(&solo.addr).unwrap();
        let mut records = Vec::new();
        let done = client
            .run_campaign(spec, |r| records.push(r.clone()))
            .unwrap();
        assert_eq!(done.state, "done");
        solo_runs.push((by_index(records), done.report));
    }
    drop(solo);

    // Contended: one daemon, one client thread per campaign.
    let state = temp_dir("conc-shared");
    let daemon = Daemon::spawn(
        &state,
        &["--listen", "127.0.0.1:0", "--threads", "2", "--slots", "1"],
    );
    let results: Vec<(Vec<StreamedRecord>, String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let addr = daemon.addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let mut records = Vec::new();
                    let done = client
                        .run_campaign(spec, |r| records.push(r.clone()))
                        .unwrap();
                    (by_index(records), done.report, done.state)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((records, report, state_name), (solo_records, solo_report)) in
        results.iter().zip(&solo_runs)
    {
        assert_eq!(state_name, "done");
        assert_eq!(records, solo_records, "contended stream != solo stream");
        assert_eq!(report, solo_report, "contended report != solo report");
    }

    // Every tenant was granted pool slots (status exposes the stride
    // scheduler's grant counter).
    let mut client = Client::connect(&daemon.addr).unwrap();
    let list = client.call("list", vec![]).unwrap();
    let Some(Value::Arr(items)) = list.get("campaigns") else {
        panic!("malformed list response");
    };
    assert_eq!(items.len(), 3);
    for item in items {
        let handle = item.get("handle").and_then(Value::as_str).unwrap();
        let status = client
            .call("status", vec![("handle", json::s(handle))])
            .unwrap();
        assert_eq!(status.get("state").and_then(Value::as_str), Some("done"));
        assert!(status.get("grants").and_then(Value::as_u64).unwrap() > 0);
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&solo_state);
}

/// Cancellation: a cancelled campaign stops early via the admission
/// gate, reports `cancelled`, and a resubmit resumes from the journal
/// to the same final report as a never-cancelled run.
#[test]
fn cancel_stops_early_and_resumes_to_identical_report() {
    let spec = svf_spec("dijkstra", 2500, "normal");
    let state = temp_dir("cancel");
    let daemon = Daemon::spawn_tcp(&state);

    let mut c = Client::connect(&daemon.addr).unwrap();
    let resp = c.call("submit", vec![("spec", spec.clone())]).unwrap();
    let handle = resp
        .get("handle")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let sub = c
        .send("subscribe", vec![("handle", json::s(&handle))])
        .unwrap();
    c.wait_response(sub, |_| {}).unwrap();
    // Let a few records through, then cancel from a second connection.
    let mut seen = 0;
    while seen < 5 {
        let ev = c.read_event().unwrap();
        if ev.get("event").and_then(Value::as_str) == Some("record") {
            seen += 1;
        }
    }
    let mut c2 = Client::connect(&daemon.addr).unwrap();
    c2.call("cancel", vec![("handle", json::s(&handle))])
        .unwrap();
    // Drain our subscription to the done event.
    let done = loop {
        let ev = c.read_event().unwrap();
        if ev.get("event").and_then(Value::as_str) == Some("done") {
            break ev;
        }
    };
    let result = done.get("result").unwrap();
    let final_state = result.get("state").and_then(Value::as_str).unwrap();
    assert_eq!(final_state, "cancelled");
    drop(daemon);

    // Restart: the persisted spec re-attaches and the journal carries
    // the pre-cancellation prefix; the campaign completes.
    let daemon2 = Daemon::spawn_tcp(&state);
    let mut client2 = Client::connect(&daemon2.addr).unwrap();
    let resumed = client2.run_campaign(&spec, |_| {}).unwrap();
    assert_eq!(resumed.state, "done");
    assert!(resumed.replayed > 0, "cancelled prefix must replay");

    // Control for report identity.
    let control_state = temp_dir("cancel-control");
    let control = Daemon::spawn_tcp(&control_state);
    let mut client3 = Client::connect(&control.addr).unwrap();
    let control_done = client3.run_campaign(&spec, |_| {}).unwrap();
    assert_eq!(resumed.report, control_done.report);
    drop(daemon2);
    drop(control);
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&control_state);
}

/// The daemon also serves Unix-domain sockets, selected by a `unix:`
/// address prefix.
#[test]
fn unix_socket_roundtrip() {
    let state = temp_dir("unix");
    let sock = state.join("serve.sock");
    let addr = format!("unix:{}", sock.display());
    let daemon = Daemon::spawn(&state, &["--listen", &addr, "--threads", "1"]);
    assert_eq!(daemon.addr, addr);
    // The endpoint file mirrors the bound address.
    let endpoint = std::fs::read_to_string(state.join("endpoint")).unwrap();
    assert_eq!(endpoint.trim(), addr);
    let mut client = Client::connect(&addr).unwrap();
    let mut records = Vec::new();
    let done = client
        .run_campaign(&svf_spec("qsort", 25, "high"), |r| records.push(r.clone()))
        .unwrap();
    assert_eq!(done.state, "done");
    assert_eq!(records.len(), 25);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&state);
}

/// Regression (unwrap audit): a daemon that cannot bind its socket must
/// exit nonzero with an error naming the endpoint — not panic.
#[test]
fn socket_bind_failure_exits_nonzero_with_named_endpoint() {
    // Occupy a port, then ask the daemon to bind it.
    let blocker = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = blocker.local_addr().unwrap().to_string();
    let state = temp_dir("bind-fail");
    let out = Command::new(bin())
        .arg("serve")
        .args(["--state", state.to_str().unwrap(), "--listen", &addr])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bind") && stderr.contains(&addr),
        "stderr must name the endpoint: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must fail cleanly: {stderr}");

    // Same for an unbindable Unix socket path.
    let bad = format!("unix:{}/no-such-dir/serve.sock", state.display());
    let out = Command::new(bin())
        .arg("serve")
        .args(["--state", state.to_str().unwrap(), "--listen", &bad])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bind unix socket") && stderr.contains("no-such-dir"),
        "stderr must name the socket path: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&state);
}

/// Graceful shutdown: the `shutdown` verb acknowledges, flushes, and
/// exits the daemon with status 0 (what CI's smoke step relies on).
#[test]
fn shutdown_verb_exits_cleanly() {
    let state = temp_dir("shutdown");
    let mut daemon = Daemon::spawn_tcp(&state);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let resp = client.call("shutdown", vec![]).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(st) = daemon.child.try_wait().unwrap() {
            break st;
        }
        assert!(Instant::now() < deadline, "daemon did not exit on shutdown");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "shutdown exit must be 0, got {status:?}");
    // A subsequent read on the dead connection sees EOF, not a hang.
    let mut probe = [0u8; 1];
    let mut conn = match std::net::TcpStream::connect(&daemon.addr) {
        Ok(c) => c,
        Err(_) => {
            let _ = std::fs::remove_dir_all(&state);
            return; // listener already gone — equally fine
        }
    };
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = conn.read(&mut probe);
    let _ = std::fs::remove_dir_all(&state);
}
