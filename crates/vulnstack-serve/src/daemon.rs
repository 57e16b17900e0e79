//! The campaign daemon: accept loop, session state, verb dispatch.
//!
//! One daemon multiplexes many campaigns over one shared
//! [`FairPool`]: every campaign keeps its own
//! engine worker threads, but each injection site must be admitted
//! through the campaign's pool [`Participant`] — a stride scheduler
//! that rations slots by tenant priority, so a low-priority bulk sweep
//! cannot starve a high-priority incident campaign.
//!
//! ## Durability
//!
//! Every submitted spec is persisted to `<state>/<handle>.spec.json`
//! before the campaign starts, and every campaign journals to
//! `<state>/<handle>.journal`. A restarted daemon rescans the state
//! directory and resubmits every spec with `ResumeOrStart`: completed
//! prefixes replay from the journal (through the same fold → tee path,
//! so late subscribers still observe the full stream) and only the
//! missing tail executes. The stream a subscriber sees is therefore
//! bit-identical whether or not the daemon was killed mid-campaign.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};

use vulnstack_core::report::write_atomic;
use vulnstack_core::{FairPool, JournalOpts, Participant, ResumeMode, RunOpts, StreamOpts};

use crate::json::{self, obj, s, Value};
use crate::net::Conn;
use crate::proto::{self, ErrorCode, Frame, Request};
use crate::service::{self, RunOutput};
use crate::spec::CampaignSpec;

/// Daemon configuration (from `vulnstack serve ...`).
#[derive(Debug, Clone)]
pub struct DaemonOpts {
    /// `host:port` TCP endpoint, or a filesystem path prefixed with
    /// `unix:` for a Unix-domain socket.
    pub listen: String,
    /// State directory: spec files, journals, endpoint file.
    pub state: PathBuf,
    /// Shared-pool slot count (concurrently executing injection sites
    /// across ALL campaigns).
    pub slots: usize,
    /// Engine worker threads per campaign.
    pub threads: usize,
}

/// Where a campaign is in its lifecycle.
#[derive(Debug)]
enum Phase {
    Running,
    Done(RunOutput),
    Cancelled(RunOutput),
    Failed(String),
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::Running => "running",
            Phase::Done(_) => "done",
            Phase::Cancelled(_) => "cancelled",
            Phase::Failed(_) => "failed",
        }
    }
}

/// Subscriber-visible stream state. One mutex guards the record buffer
/// AND the subscriber list AND the phase: a subscriber replays the
/// buffer and attaches under the same lock, so no record can slip into
/// the gap (the bit-identity guarantee in `tests/serve_protocol.rs`
/// depends on this).
struct StreamState {
    records: Vec<(u64, String)>,
    subs: Vec<Sender<String>>,
    phase: Phase,
}

struct Campaign {
    handle: String,
    spec: CampaignSpec,
    part: Participant,
    stream: Mutex<StreamState>,
    done_cv: Condvar,
}

impl Campaign {
    /// Pushes one event line to every live subscriber, pruning the dead.
    fn broadcast(st: &mut StreamState, line: &str) {
        st.subs.retain(|tx| tx.send(line.to_string()).is_ok());
    }

    fn record_event(handle: &str, index: u64, payload: &str) -> String {
        proto::event(
            "record",
            vec![
                ("handle", s(handle)),
                ("index", json::n(index)),
                ("payload", s(payload)),
            ],
        )
    }

    /// The fields `status` and `list` report for every campaign.
    fn summary(&self, st: &StreamState) -> Vec<(&'static str, Value)> {
        vec![
            ("handle", s(&self.handle)),
            ("engine", s(self.spec.engine.name())),
            ("workload", s(self.spec.workload.name())),
            ("priority", s(self.spec.priority.name())),
            ("state", s(st.phase.name())),
            ("records", json::n(st.records.len() as u64)),
        ]
    }

    fn done_event(&self, phase: &Phase) -> String {
        let mut fields = vec![("handle", s(&self.handle)), ("state", s(phase.name()))];
        match phase {
            Phase::Done(out) | Phase::Cancelled(out) => {
                fields.push(("report", s(&out.report(&self.spec))));
                fields.push(("replayed", json::n(out.stats().replayed as u64)));
                fields.push(("executed", json::n(out.stats().executed as u64)));
                fields.push(("quarantined", json::n(out.stats().quarantined as u64)));
            }
            Phase::Failed(msg) => fields.push(("message", s(msg))),
            Phase::Running => {}
        }
        proto::event("done", vec![("result", obj(fields))])
    }
}

struct Daemon {
    state_dir: PathBuf,
    pool: FairPool,
    threads: usize,
    campaigns: Mutex<BTreeMap<String, Arc<Campaign>>>,
}

impl Daemon {
    fn spec_path(&self, handle: &str) -> PathBuf {
        self.state_dir.join(format!("{handle}.spec.json"))
    }

    fn journal_path(&self, handle: &str) -> PathBuf {
        self.state_dir.join(format!("{handle}.journal"))
    }

    /// Registers and launches a campaign; idempotent on the handle. A
    /// resubmitted spec whose campaign already finished relaunches it —
    /// the journal replays the whole run, so the relaunch is cheap and
    /// re-serves the stream to new subscribers.
    fn submit(
        self: &Arc<Self>,
        spec: CampaignSpec,
        persist: bool,
    ) -> Result<Arc<Campaign>, String> {
        let handle = spec.handle();
        let mut reg = self.campaigns.lock().unwrap();
        if let Some(c) = reg.get(&handle) {
            return Ok(c.clone());
        }
        if persist {
            let text = json::write(&spec.canonical()) + "\n";
            let path = self.spec_path(&handle);
            write_atomic(&path, text.as_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        let part = self.pool.register(spec.priority.weight());
        let campaign = Arc::new(Campaign {
            handle: handle.clone(),
            spec,
            part,
            stream: Mutex::new(StreamState {
                records: Vec::new(),
                subs: Vec::new(),
                phase: Phase::Running,
            }),
            done_cv: Condvar::new(),
        });
        reg.insert(handle, campaign.clone());
        drop(reg);

        let daemon = self.clone();
        let c = campaign.clone();
        std::thread::Builder::new()
            .name(format!("campaign-{}", c.handle))
            .spawn(move || daemon.run_campaign(&c))
            .map_err(|e| format!("spawn campaign thread: {e}"))?;
        Ok(campaign)
    }

    /// The campaign worker: runs the engine with the pool gate and a tee
    /// that fans records out to the in-memory buffer and subscribers.
    fn run_campaign(&self, c: &Arc<Campaign>) {
        let journal = self.journal_path(&c.handle);
        let tee = |index: u64, payload: &str| {
            let mut st = c.stream.lock().unwrap();
            let line = Campaign::record_event(&c.handle, index, payload);
            st.records.push((index, payload.to_string()));
            Campaign::broadcast(&mut st, &line);
        };
        let label = c.spec.label();
        let opts = RunOpts {
            threads: self.threads,
            journal: Some(JournalOpts {
                path: &journal,
                mode: ResumeMode::ResumeOrStart,
                workload: &label,
            }),
            stream: StreamOpts {
                gate: Some(&c.part),
                tee: Some(&tee),
                ..StreamOpts::from_env()
            },
            metrics: None,
        };
        let result = service::run(&c.spec, &opts);
        c.part.retire();
        let phase = match result {
            Ok(out) if out.stats().stopped => Phase::Cancelled(out),
            Ok(out) => Phase::Done(out),
            Err(e) => Phase::Failed(e),
        };
        let mut st = c.stream.lock().unwrap();
        let line = c.done_event(&phase);
        st.phase = phase;
        Campaign::broadcast(&mut st, &line);
        st.subs.clear();
        drop(st);
        c.done_cv.notify_all();
    }

    /// Rescans the state directory and resubmits every persisted spec —
    /// the restart half of crash recovery.
    fn reattach(self: &Arc<Self>) -> Result<usize, String> {
        let mut n = 0;
        let entries = std::fs::read_dir(&self.state_dir)
            .map_err(|e| format!("read state dir {}: {e}", self.state_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read state dir entry: {e}"))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(_handle) = name.strip_suffix(".spec.json") else {
                continue;
            };
            let text = std::fs::read_to_string(entry.path())
                .map_err(|e| format!("read {}: {e}", entry.path().display()))?;
            let doc = json::parse(text.trim())
                .map_err(|e| format!("parse {}: {e}", entry.path().display()))?;
            let spec = CampaignSpec::parse(&doc)
                .map_err(|e| format!("invalid spec {}: {e}", entry.path().display()))?;
            self.submit(spec, false)?;
            n += 1;
        }
        Ok(n)
    }
}

/// Sentinel consumed by the connection writer thread: flush everything
/// queued before it, then exit the process (graceful `shutdown` verb).
const EXIT_SENTINEL: &str = "\u{0}__vulnstack_serve_exit__";

/// Runs the daemon: bind, re-attach persisted campaigns, accept forever.
/// Returns only on a bind/setup error; `shutdown` exits the process.
pub fn serve(opts: &DaemonOpts) -> Result<(), String> {
    std::fs::create_dir_all(&opts.state)
        .map_err(|e| format!("create state dir {}: {e}", opts.state.display()))?;
    let daemon = Arc::new(Daemon {
        state_dir: opts.state.clone(),
        pool: FairPool::new(opts.slots),
        threads: opts.threads.max(1),
        campaigns: Mutex::new(BTreeMap::new()),
    });
    let reattached = daemon.reattach()?;
    if reattached > 0 {
        eprintln!("re-attached {reattached} persisted campaign(s)");
    }

    enum Listener {
        Tcp(TcpListener),
        Unix(UnixListener),
    }

    let (listener, addr) = if let Some(path) = opts.listen.strip_prefix("unix:") {
        // A stale socket file from a killed daemon would fail the bind;
        // remove it first (the state dir, not the socket, is durable).
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path).map_err(|e| format!("bind unix socket {path}: {e}"))?;
        (Listener::Unix(l), format!("unix:{path}"))
    } else {
        let l =
            TcpListener::bind(&opts.listen).map_err(|e| format!("bind {}: {e}", opts.listen))?;
        let local = l
            .local_addr()
            .map_err(|e| format!("local_addr on {}: {e}", opts.listen))?;
        (Listener::Tcp(l), local.to_string())
    };

    // The endpoint file lets scripts find a port-0 daemon; it is never
    // removed — it names the current endpoint for the lifetime of the
    // state dir. A rename replaces it whole, so no reader sees it torn.
    // It is not fsynced: it only matters while this daemon runs, and
    // `write_atomic`'s two fsyncs would add about a third to start-up.
    let endpoint = opts.state.join("endpoint");
    let tmp = opts.state.join(".endpoint.tmp");
    std::fs::write(&tmp, format!("{addr}\n"))
        .and_then(|()| std::fs::rename(&tmp, &endpoint))
        .map_err(|e| format!("write {}: {e}", endpoint.display()))?;
    println!("listening on {addr}");

    loop {
        let conn = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        };
        match conn {
            Ok(conn) => {
                let d = daemon.clone();
                let _ = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || handle_connection(&d, conn));
            }
            Err(e) => eprintln!("accept: {e}"),
        }
    }
}

/// One connection: a reader loop on this thread, a writer thread
/// draining an unbounded channel. Responses and subscription events
/// share the channel, so every line written to the socket is whole.
fn handle_connection(daemon: &Arc<Daemon>, conn: Conn) {
    let write_half = match conn.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("connection clone: {e}");
            return;
        }
    };
    let (tx, rx) = mpsc::channel::<String>();
    let writer = std::thread::Builder::new()
        .name("serve-writer".to_string())
        .spawn(move || {
            let mut w = write_half;
            for line in rx {
                if line == EXIT_SENTINEL {
                    let _ = w.flush();
                    std::process::exit(0);
                }
                if w.write_all(line.as_bytes()).is_err() {
                    return;
                }
            }
            let _ = w.flush();
        });

    let mut reader = BufReader::new(conn);
    loop {
        match proto::read_frame(&mut reader) {
            Err(e) => {
                eprintln!("connection read: {e}");
                break;
            }
            Ok(Frame::Eof) => break,
            Ok(Frame::Bad { id, code, message }) => {
                if tx.send(proto::err_response(id, code, &message)).is_err() {
                    break;
                }
            }
            Ok(Frame::Request(req)) => {
                if !dispatch(daemon, &req, &tx) {
                    break;
                }
            }
        }
    }
    drop(tx);
    if let Ok(h) = writer {
        let _ = h.join();
    }
}

/// Handles one request; returns false when the connection should close.
fn dispatch(daemon: &Arc<Daemon>, req: &Request, tx: &Sender<String>) -> bool {
    let send = |line: String| tx.send(line).is_ok();
    match req.verb.as_str() {
        "ping" => send(proto::ok_response(req.id, vec![])),
        "submit" => {
            let Some(spec_doc) = req.body.get("spec") else {
                return send(proto::err_response(
                    Some(req.id),
                    ErrorCode::BadParams,
                    "submit needs a \"spec\" object",
                ));
            };
            match CampaignSpec::parse(spec_doc) {
                Err(e) => send(proto::err_response(Some(req.id), ErrorCode::BadParams, &e)),
                Ok(spec) => match daemon.submit(spec, true) {
                    Err(e) => send(proto::err_response(Some(req.id), ErrorCode::Internal, &e)),
                    Ok(c) => {
                        let state = c.stream.lock().unwrap().phase.name();
                        send(proto::ok_response(
                            req.id,
                            vec![("handle", s(&c.handle)), ("state", s(state))],
                        ))
                    }
                },
            }
        }
        "status" => with_campaign(daemon, req, tx, |c| {
            let st = c.stream.lock().unwrap();
            let mut fields = c.summary(&st);
            fields.push(("grants", json::n(c.part.grants())));
            match &st.phase {
                Phase::Done(out) | Phase::Cancelled(out) => {
                    fields.push(("report", s(&out.report(&c.spec))));
                }
                Phase::Failed(msg) => fields.push(("message", s(msg))),
                Phase::Running => {}
            }
            proto::ok_response(req.id, fields)
        }),
        "subscribe" => {
            let Some(c) = campaign_of(daemon, req) else {
                return send(unknown_handle(req));
            };
            // Replay + attach under one lock: nothing can be appended
            // between the last replayed record and the live attachment.
            let mut st = c.stream.lock().unwrap();
            let mut ok = send(proto::ok_response(
                req.id,
                vec![
                    ("handle", s(&c.handle)),
                    ("replayed", json::n(st.records.len() as u64)),
                ],
            ));
            for (index, payload) in &st.records {
                ok = ok && send(Campaign::record_event(&c.handle, *index, payload));
            }
            if matches!(st.phase, Phase::Running) {
                st.subs.push(tx.clone());
            } else {
                ok = ok && send(c.done_event(&st.phase));
            }
            ok
        }
        "cancel" => with_campaign(daemon, req, tx, |c| {
            c.part.cancel();
            proto::ok_response(req.id, vec![("handle", s(&c.handle))])
        }),
        "list" => {
            let reg = daemon.campaigns.lock().unwrap();
            let items: Vec<Value> = reg
                .values()
                .map(|c| obj(c.summary(&c.stream.lock().unwrap())))
                .collect();
            send(proto::ok_response(
                req.id,
                vec![("campaigns", Value::Arr(items))],
            ))
        }
        "shutdown" => {
            daemon.pool.shutdown();
            let _ = tx.send(proto::ok_response(req.id, vec![]));
            let _ = tx.send(EXIT_SENTINEL.to_string());
            false
        }
        other => send(proto::err_response(
            Some(req.id),
            ErrorCode::UnknownVerb,
            &format!("unknown verb {other}"),
        )),
    }
}

fn campaign_of(daemon: &Arc<Daemon>, req: &Request) -> Option<Arc<Campaign>> {
    let handle = req.body.get("handle")?.as_str()?;
    daemon.campaigns.lock().unwrap().get(handle).cloned()
}

fn unknown_handle(req: &Request) -> String {
    proto::err_response(
        Some(req.id),
        ErrorCode::UnknownHandle,
        "no such campaign handle",
    )
}

fn with_campaign(
    daemon: &Arc<Daemon>,
    req: &Request,
    tx: &Sender<String>,
    f: impl FnOnce(&Arc<Campaign>) -> String,
) -> bool {
    let line = match campaign_of(daemon, req) {
        Some(c) => f(&c),
        None => unknown_handle(req),
    };
    tx.send(line).is_ok()
}
