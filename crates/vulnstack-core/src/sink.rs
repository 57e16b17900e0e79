//! Streaming record sink: bounded-memory campaign output with
//! backpressure.
//!
//! Every engine used to collect its `InjectionRecord`s into one big
//! `Vec` and write journal/CSV/JSON at the end — fine for 2,000-sample
//! statistical campaigns, fatal for the exhaustive (site, model)
//! enumerations the paper's methodology scales to, where the record
//! vector alone outgrows RAM. This module inverts the flow:
//!
//! * workers push settled sites into a **bounded MPSC channel**
//!   ([`SinkHandle`], capacity [`StreamOpts::channel_cap`]); a full
//!   channel blocks the push, so memory pressure becomes
//!   **backpressure** on the producers instead of unbounded buffering;
//! * one dedicated **sink thread** drains the channel and fans each
//!   record out incrementally — append to the journal (group-committed,
//!   see [`Journal`]), append to the optional on-disk spill file, and
//!   hand the payload to the caller's `fold` closure (which accumulates
//!   tallies, never the records themselves);
//! * the campaign result carries a [`RecordHandle`] — a path plus count
//!   over the spill file — instead of the record vector, so full-record
//!   consumers re-read from disk in streaming fashion too.
//!
//! At any instant the pipeline holds at most `channel_cap` encoded
//! records plus one in flight per worker, independent of campaign size.
//! Completion semantics: [`stream`] returns only after the channel is
//! drained, the journal is flushed ([`Journal::flush`] — the
//! group-commit completion barrier), and the spill file is flushed, so
//! a returned summary is durable. A journal failure mid-stream keeps
//! *draining* the channel (producers must never deadlock against a dead
//! sink) but stops writing and surfaces the first error at the end.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;

use vulnstack_microarch::env_knob;

use crate::journal::{escape_field, unescape_field, Journal, JournalError};
use crate::sched::{ClaimGate, Quarantine};

/// Default bound on the worker→sink channel, in encoded records. Small
/// enough that a stalled sink caps buffered memory at a few hundred KB,
/// large enough that group-committed journal writes never starve the
/// workers.
pub const DEFAULT_CHANNEL_CAP: usize = 1024;

/// The channel bound, honouring `VULNSTACK_SINK_CAP` (records; malformed
/// values warn on stderr and fall back to [`DEFAULT_CHANNEL_CAP`]).
pub fn channel_cap_from_env() -> usize {
    env_knob::<usize>("VULNSTACK_SINK_CAP", "sink channel capacity (records)")
        .map_or(DEFAULT_CHANNEL_CAP, |c| c.max(1))
}

/// One settled site travelling from a worker to the sink thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkEvent {
    /// A completed record, engine-encoded.
    Done {
        /// Site index in sampling order.
        index: u64,
        /// Engine-encoded record payload.
        payload: String,
    },
    /// A quarantined site (every attempt panicked).
    Quarantined {
        /// Site index in sampling order.
        index: u64,
        /// Attempts made before giving up.
        attempts: u32,
        /// Panic message of the last attempt.
        message: String,
    },
}

/// Producer side of the sink: shared by reference across the campaign's
/// workers. Pushes **block** when the channel is full — that is the
/// backpressure contract, not an error.
#[derive(Debug)]
pub struct SinkHandle {
    tx: SyncSender<SinkEvent>,
}

impl SinkHandle {
    /// Pushes a completed record; blocks while the channel is full. A
    /// send after the sink hung up (journal failure teardown) is
    /// silently dropped — the stream surfaces the underlying error.
    pub fn push_done(&self, index: u64, payload: String) {
        let _ = self.tx.send(SinkEvent::Done { index, payload });
    }

    /// Pushes a quarantined site; blocks while the channel is full.
    pub fn push_quarantined(&self, index: u64, attempts: u32, message: String) {
        let _ = self.tx.send(SinkEvent::Quarantined {
            index,
            attempts,
            message,
        });
    }
}

/// A subscriber tee over the settled record stream: `(index, payload)`.
pub type RecordTee<'a> = &'a (dyn Fn(u64, &str) + Sync);

/// Keeps every record a tee sees, replayed and freshly executed alike —
/// for callers that compare or scan the records themselves (tests,
/// ablations). Holds the whole record set in memory, so it defeats the
/// streaming memory bound by construction.
#[derive(Debug, Default)]
pub struct Collector(Mutex<Vec<(u64, String)>>);

impl Collector {
    /// The tee to put in [`StreamOpts::tee`].
    pub fn tee(&self) -> impl Fn(u64, &str) + Sync + '_ {
        |i, p| self.0.lock().expect("unpoisoned").push((i, p.to_string()))
    }

    /// Takes every collected `(site index, payload)` pair, sorted by
    /// index.
    pub fn sorted(&self) -> Vec<(u64, String)> {
        let mut v = std::mem::take(&mut *self.0.lock().expect("unpoisoned"));
        v.sort();
        v
    }
}

/// Configuration for one streaming run.
#[derive(Clone, Copy)]
pub struct StreamOpts<'a> {
    /// Worker→sink channel bound, in encoded records (min 1).
    pub channel_cap: usize,
    /// Optional on-disk spill file: every record payload is appended
    /// here as it settles and the summary returns a [`RecordHandle`]
    /// over it. `None` when tallies (the `fold`) are all the caller
    /// needs.
    pub spill: Option<&'a Path>,
    /// Optional admission gate the scheduler drive consults before each
    /// site claim: this is how a multi-tenant daemon rations one shared
    /// slot pool across concurrent campaigns (see `fair::FairPool`) and
    /// how cancellation stops a campaign at a site boundary. `None`
    /// (single-tenant CLI runs) means every claim is admitted.
    pub gate: Option<&'a dyn ClaimGate>,
    /// Optional subscriber tee: invoked after `fold` for every settled
    /// record (both replayed-from-journal and freshly executed), so live
    /// subscribers observe the same byte stream the journal records.
    pub tee: Option<RecordTee<'a>>,
}

impl std::fmt::Debug for StreamOpts<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamOpts")
            .field("channel_cap", &self.channel_cap)
            .field("spill", &self.spill)
            .field("gate", &self.gate.map(|_| "<dyn ClaimGate>"))
            .field("tee", &self.tee.map(|_| "<dyn Fn>"))
            .finish()
    }
}

impl StreamOpts<'static> {
    /// Environment-tuned defaults: `VULNSTACK_SINK_CAP` (or
    /// [`DEFAULT_CHANNEL_CAP`]), no spill file, no gate, no tee.
    pub fn from_env() -> StreamOpts<'static> {
        StreamOpts {
            channel_cap: channel_cap_from_env(),
            spill: None,
            gate: None,
            tee: None,
        }
    }
}

impl<'a> StreamOpts<'a> {
    /// Environment-tuned defaults plus a spill file for the full record
    /// stream.
    pub fn with_spill(spill: &'a Path) -> StreamOpts<'a> {
        StreamOpts {
            spill: Some(spill),
            ..StreamOpts::from_env()
        }
    }
}

/// A handle to campaign records that live on disk, not in RAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordHandle {
    path: PathBuf,
    count: u64,
}

impl RecordHandle {
    /// The spill file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records written.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Streams every `(site index, encoded payload)` pair to `f`, in the
    /// order the sites settled, reading line-by-line so the full record
    /// set never materialises in memory.
    ///
    /// # Errors
    ///
    /// I/O failures reading the spill file, or
    /// [`std::io::ErrorKind::InvalidData`] on a malformed line.
    pub fn for_each_payload<F: FnMut(u64, &str)>(&self, mut f: F) -> std::io::Result<()> {
        let reader = BufReader::new(File::open(&self.path)?);
        let bad = |line: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed spill line in {}: {line:?}", self.path.display()),
            )
        };
        for line in reader.lines() {
            let line = line?;
            let (index, payload) = line.split_once('|').ok_or_else(|| bad(&line))?;
            let index: u64 = index.parse().map_err(|_| bad(&line))?;
            f(index, &unescape_field(payload));
        }
        Ok(())
    }

    /// Collects every `(site index, payload)` pair into a vector —
    /// convenience for tests and small campaigns; defeats the streaming
    /// memory bound by construction.
    ///
    /// # Errors
    ///
    /// As [`RecordHandle::for_each_payload`].
    pub fn payloads(&self) -> std::io::Result<Vec<(u64, String)>> {
        let mut out = Vec::new();
        self.for_each_payload(|i, p| out.push((i, p.to_string())))?;
        Ok(out)
    }
}

/// What the sink saw over one streaming run.
#[derive(Debug)]
pub struct SinkSummary {
    /// Completed records that passed through the sink.
    pub done: u64,
    /// Quarantined sites, in settlement order (indices in campaign
    /// sampling coordinates).
    pub quarantined: Vec<Quarantine>,
    /// Handle to the spill file, when [`StreamOpts::spill`] was set.
    pub records: Option<RecordHandle>,
}

/// Runs `body` (the producer side — typically a scheduler drive whose
/// outcome hook pushes into the [`SinkHandle`]) against a dedicated sink
/// thread that fans each event out to the journal, the spill file, and
/// the caller's `fold` accumulator. Returns `body`'s result together
/// with the sink's summary once the channel has fully drained and the
/// journal and spill file are flushed.
///
/// # Errors
///
/// [`JournalError`] from journal appends or spill-file I/O. The first
/// failure stops fan-out but not draining, so producers never block
/// forever against a dead sink.
///
/// # Panics
///
/// Propagates a panic from `body`; panics if the sink thread itself
/// panics (it runs no user code except `fold`).
pub fn stream<T, G, B>(
    journal: Option<&Journal>,
    opts: StreamOpts<'_>,
    fold: G,
    body: B,
) -> Result<(T, SinkSummary), JournalError>
where
    T: Send,
    G: FnMut(u64, &str) + Send,
    B: FnOnce(&SinkHandle) -> T,
{
    let spill = match opts.spill {
        Some(path) => {
            let io = |e| JournalError::Io(path.to_path_buf(), e);
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).map_err(io)?;
                }
            }
            let file = File::create(path).map_err(io)?;
            Some((path.to_path_buf(), BufWriter::new(file)))
        }
        None => None,
    };

    let (tx, rx) = sync_channel(opts.channel_cap.max(1));
    let handle = SinkHandle { tx };
    // Fan each settled record out to the subscriber tee right after the
    // caller's fold, still on the sink thread, so subscribers see the
    // exact settlement order the journal records.
    let tee = opts.tee;
    let mut fold = fold;
    let fold = move |i: u64, p: &str| {
        fold(i, p);
        if let Some(t) = tee {
            t(i, p);
        }
    };
    let (out, summary) = std::thread::scope(|s| {
        let sink = s.spawn(move || consume(&rx, journal, spill, fold));
        let out = body(&handle);
        // Hang up the producer side so the sink sees end-of-stream.
        drop(handle);
        (out, sink.join().expect("sink thread must not panic"))
    });
    let summary = summary?;
    if let Some(j) = journal {
        // Completion barrier for the journal's group commit: everything
        // streamed is durable before the caller sees the summary.
        j.flush()?;
    }
    Ok((out, summary))
}

/// Sink-thread loop: drains the channel, fanning each event out to the
/// journal, the spill file, and `fold`. Keeps draining after the first
/// error (producers block on a full channel, never on a dead sink) and
/// reports that error once the stream closes.
fn consume<G: FnMut(u64, &str)>(
    rx: &Receiver<SinkEvent>,
    journal: Option<&Journal>,
    mut spill: Option<(PathBuf, BufWriter<File>)>,
    mut fold: G,
) -> Result<SinkSummary, JournalError> {
    let mut done = 0u64;
    let mut quarantined = Vec::new();
    let mut err: Option<JournalError> = None;
    for ev in rx {
        if err.is_some() {
            continue;
        }
        let fanout = match ev {
            SinkEvent::Done { index, payload } => (|| {
                if let Some(j) = journal {
                    j.append_done(index, &payload)?;
                }
                if let Some((path, w)) = spill.as_mut() {
                    writeln!(w, "{index}|{}", escape_field(&payload))
                        .map_err(|e| JournalError::Io(path.clone(), e))?;
                }
                fold(index, &payload);
                done += 1;
                Ok(())
            })(),
            SinkEvent::Quarantined {
                index,
                attempts,
                message,
            } => {
                let r = match journal {
                    // Quarantines force a group-commit flush: the marker
                    // is durable before it is ever reported.
                    Some(j) => j.append_quarantined(index, attempts, &message),
                    None => Ok(()),
                };
                quarantined.push(Quarantine {
                    index: usize::try_from(index).unwrap_or(usize::MAX),
                    attempts,
                    message,
                });
                r
            }
        };
        if let Err(e) = fanout {
            err = Some(e);
        }
    }
    if let Some(e) = err {
        return Err(e);
    }
    let records = match spill {
        Some((path, mut w)) => {
            w.flush().map_err(|e| JournalError::Io(path.clone(), e))?;
            Some(RecordHandle { path, count: done })
        }
        None => None,
    };
    Ok(SinkSummary {
        done,
        quarantined,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vulnstack-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn opts(cap: usize) -> StreamOpts<'static> {
        StreamOpts {
            channel_cap: cap,
            spill: None,
            gate: None,
            tee: None,
        }
    }

    #[test]
    fn fold_sees_every_record_without_collecting() {
        let mut sum = 0u64;
        let ((), summary) = stream(
            None,
            opts(4),
            |i, payload| sum += i + payload.parse::<u64>().unwrap(),
            |h| {
                for i in 0..100u64 {
                    h.push_done(i, (i * 3).to_string());
                }
            },
        )
        .unwrap();
        assert_eq!(summary.done, 100);
        assert!(summary.quarantined.is_empty());
        assert!(summary.records.is_none());
        assert_eq!(sum, (0..100).map(|i| i * 4).sum::<u64>());
    }

    #[test]
    fn capacity_one_channel_still_drains_many_producers() {
        // The tightest possible bound exercises backpressure on every
        // push; the count must still come out exact.
        let pushed = AtomicUsize::new(0);
        let mut seen = 0u64;
        let ((), summary) = stream(
            None,
            opts(1),
            |_, _| seen += 1,
            |h| {
                std::thread::scope(|s| {
                    for t in 0..4u64 {
                        let (h, pushed) = (&h, &pushed);
                        s.spawn(move || {
                            for i in 0..50u64 {
                                h.push_done(t * 50 + i, "x".to_string());
                                pushed.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }
                });
            },
        )
        .unwrap();
        assert_eq!(pushed.load(Ordering::Relaxed), 200);
        assert_eq!(summary.done, 200);
        assert_eq!(seen, 200);
    }

    #[test]
    fn spill_file_roundtrips_awkward_payloads_in_order() {
        let path = tmp("spill-roundtrip.records");
        let payloads = ["plain", "pipe|pipe", "new\nline", "back\\slash", ""];
        let so = StreamOpts {
            channel_cap: 2,
            spill: Some(&path),
            gate: None,
            tee: None,
        };
        let ((), summary) = stream(
            None,
            so,
            |_, _| {},
            |h| {
                for (i, p) in payloads.iter().enumerate() {
                    h.push_done(i as u64, (*p).to_string());
                }
            },
        )
        .unwrap();
        let handle = summary.records.expect("spill requested");
        assert_eq!(handle.count(), payloads.len() as u64);
        let got = handle.payloads().unwrap();
        for (k, (i, p)) in got.iter().enumerate() {
            assert_eq!(*i, k as u64);
            assert_eq!(p, payloads[k], "payload {k} must roundtrip");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantines_pass_through_with_coordinates_intact() {
        let ((), summary) = stream(
            None,
            opts(4),
            |_, _| {},
            |h| {
                h.push_done(0, "ok".to_string());
                h.push_quarantined(3, 2, "boom".to_string());
            },
        )
        .unwrap();
        assert_eq!(summary.done, 1);
        assert_eq!(
            summary.quarantined,
            vec![Quarantine {
                index: 3,
                attempts: 2,
                message: "boom".to_string()
            }]
        );
    }

    #[test]
    fn journal_receives_streamed_records_durably() {
        use crate::journal::{EntryKind, Fingerprint};
        let path = tmp("sink-journal.journal");
        let _ = std::fs::remove_file(&path);
        let fp = Fingerprint {
            engine: "sink-test".into(),
            workload: "w".into(),
            config: "c".into(),
            structure: "-".into(),
            seed: 1,
            samples: 3,
            params: String::new(),
            version: 1,
        };
        let journal = Journal::create(&path, &fp).unwrap();
        let ((), summary) = stream(
            Some(&journal),
            opts(2),
            |_, _| {},
            |h| {
                h.push_done(0, "a".to_string());
                h.push_quarantined(1, 3, "poison".to_string());
                h.push_done(2, "c".to_string());
            },
        )
        .unwrap();
        drop(journal);
        assert_eq!(summary.done, 2);
        let (_, replay) = Journal::resume(&path, &fp).unwrap();
        assert_eq!(replay.entries.len(), 3);
        assert_eq!(replay.entries[0].kind, EntryKind::Done("a".into()));
        assert_eq!(
            replay.entries[1].kind,
            EntryKind::Quarantined {
                attempts: 3,
                message: "poison".into()
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tee_sees_every_record_after_fold() {
        let teed = Collector::default();
        let tee = teed.tee();
        let mut folded = 0u64;
        let so = StreamOpts {
            tee: Some(&tee),
            ..opts(4)
        };
        let ((), summary) = stream(
            None,
            so,
            |_, _| folded += 1,
            |h| {
                for i in 0..10u64 {
                    h.push_done(i, format!("r{i}"));
                }
            },
        )
        .unwrap();
        assert_eq!(summary.done, 10);
        assert_eq!(folded, 10);
        let want: Vec<(u64, String)> = (0..10u64).map(|i| (i, format!("r{i}"))).collect();
        assert_eq!(teed.sorted(), want);
        assert!(teed.sorted().is_empty(), "sorted() takes the records");
    }

    #[test]
    fn channel_cap_env_default_applies_when_unset() {
        assert_eq!(channel_cap_from_env(), DEFAULT_CHANNEL_CAP);
        assert_eq!(StreamOpts::from_env().channel_cap, DEFAULT_CHANNEL_CAP);
    }
}
