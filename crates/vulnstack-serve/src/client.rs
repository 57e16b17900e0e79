//! Client-side protocol driver: connect, submit, stream, collect.
//!
//! Used by `vulnstack client` and by the integration harness. The
//! high-level [`Client::run_campaign`] call performs the canonical client
//! session — submit, subscribe, drain the stream, return the final
//! report — and is what CI's smoke test `cmp`s against `vulnstack avf
//! --json`.

use std::io::{BufReader, Write};

use crate::json::{self, Value};
use crate::net::Conn;
use crate::proto;

/// A connected RPC client with request-id bookkeeping.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
    next_id: u64,
}

/// A streamed record observed while waiting for completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamedRecord {
    pub index: u64,
    pub payload: String,
}

/// The terminal state of a campaign as reported by the `done` event or
/// a `status` poll.
#[derive(Debug, Clone)]
pub struct Completion {
    /// `done`, `cancelled`, or `failed`.
    pub state: String,
    /// The final report (empty for failures).
    pub report: String,
    /// Failure message, when `state == "failed"`.
    pub message: String,
    /// Injections replayed from the journal (crash/cancel recovery).
    pub replayed: u64,
    /// Injections executed fresh in this run.
    pub executed: u64,
}

impl Client {
    /// Connects to `addr` (`host:port` or `unix:/path`).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let writer = conn
            .try_clone()
            .map_err(|e| format!("clone connection to {addr}: {e}"))?;
        Ok(Client {
            reader: BufReader::new(conn),
            writer,
            next_id: 1,
        })
    }

    /// Sends one request line and returns its id.
    pub fn send(&mut self, verb: &str, mut fields: Vec<(&str, Value)>) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut all = vec![("id", json::n(id)), ("verb", json::s(verb))];
        all.append(&mut fields);
        let line = json::write(&json::obj(all)) + "\n";
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send {verb}: {e}"))?;
        Ok(id)
    }

    /// Reads the next line from the daemon as a parsed JSON object.
    pub fn read_event(&mut self) -> Result<Value, String> {
        match proto::read_line(&mut self.reader).map_err(|e| format!("read: {e}"))? {
            None => Err("connection closed by daemon".to_string()),
            Some(Err(len)) => Err(format!("daemon sent an oversized {len}-byte line")),
            Some(Ok(line)) => json::parse(&line).map_err(|e| format!("daemon sent bad JSON: {e}")),
        }
    }

    /// Reads lines until the response with `id` arrives; pushed events
    /// seen on the way are handed to `on_event`. Error responses are
    /// surfaced as `code: message` strings.
    pub fn wait_response(
        &mut self,
        id: u64,
        mut on_event: impl FnMut(&Value),
    ) -> Result<Value, String> {
        loop {
            let doc = self.read_event()?;
            if doc.get("event").is_some() {
                on_event(&doc);
                continue;
            }
            if doc.get("id").and_then(Value::as_u64) == Some(id) {
                if doc.get("ok").and_then(Value::as_bool) == Some(true) {
                    return Ok(doc);
                }
                let code = doc
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str)
                    .unwrap_or("unknown");
                let msg = doc
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Value::as_str)
                    .unwrap_or("");
                return Err(format!("{code}: {msg}"));
            }
            // A response to some other request on this connection —
            // ignore (single-threaded clients never see this).
        }
    }

    /// One round-trip: send + wait, dropping stray events.
    pub fn call(&mut self, verb: &str, fields: Vec<(&str, Value)>) -> Result<Value, String> {
        let id = self.send(verb, fields)?;
        self.wait_response(id, |_| {})
    }

    /// The canonical session: submit `spec`, subscribe, stream every
    /// record through `on_record`, and return the completion. Works
    /// identically for fresh, resumed, and already-finished campaigns —
    /// the daemon replays the full record stream in every case.
    pub fn run_campaign(
        &mut self,
        spec: &Value,
        mut on_record: impl FnMut(&StreamedRecord),
    ) -> Result<Completion, String> {
        let resp = self.call("submit", vec![("spec", spec.clone())])?;
        let handle = resp
            .get("handle")
            .and_then(Value::as_str)
            .ok_or("submit response missing handle")?
            .to_string();
        let sub_id = self.send("subscribe", vec![("handle", json::s(&handle))])?;
        let mut pending: Vec<Value> = Vec::new();
        self.wait_response(sub_id, |ev| pending.push(ev.clone()))?;
        // Events may have arrived interleaved with the response; process
        // them, then keep draining until the done event.
        for ev in &pending {
            if let Some(c) = consume_event(ev, &mut on_record) {
                return Ok(c);
            }
        }
        loop {
            let doc = self.read_event()?;
            if let Some(c) = consume_event(&doc, &mut on_record) {
                return Ok(c);
            }
        }
    }
}

/// Classifies one pushed event: records go to `on_record`, a `done`
/// event yields the completion, anything else is ignored.
fn consume_event(doc: &Value, on_record: &mut impl FnMut(&StreamedRecord)) -> Option<Completion> {
    match doc.get("event").and_then(Value::as_str) {
        Some("record") => {
            if let (Some(index), Some(payload)) = (
                doc.get("index").and_then(Value::as_u64),
                doc.get("payload").and_then(Value::as_str),
            ) {
                on_record(&StreamedRecord {
                    index,
                    payload: payload.to_string(),
                });
            }
            None
        }
        Some("done") => {
            let result = doc.get("result");
            let get = |k: &str| {
                result
                    .and_then(|r| r.get(k))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            let num = |k: &str| {
                result
                    .and_then(|r| r.get(k))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            };
            Some(Completion {
                state: get("state"),
                report: get("report"),
                message: get("message"),
                replayed: num("replayed"),
                executed: num("executed"),
            })
        }
        _ => None,
    }
}
