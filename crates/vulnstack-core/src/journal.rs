//! Durable, crash-resumable campaign journals.
//!
//! A statistical campaign at paper scale (2,000 injections per structure
//! × workload × core) runs for a long time, and until this module existed
//! it was all-or-nothing: one OOM kill, machine preemption, or panicking
//! injection run lost every completed record. The journal makes each
//! record durable the moment its site settles:
//!
//! * **Append-only record journal** ([`Journal`]) — one checksummed line
//!   per settled fault site, fsync'd before the worker claims its next
//!   site. A crash (even `SIGKILL`) loses at most the sites that were
//!   in flight; a torn final line is detected by its checksum and
//!   truncated away on the next open.
//! * **Campaign fingerprint** ([`Fingerprint`]) — the journal header
//!   records what campaign the records belong to (engine, workload, core
//!   config, structure, seed, sample count, engine schema version).
//!   Resuming against a journal whose fingerprint differs is *refused*:
//!   mixing records from two different campaigns would silently corrupt
//!   the statistics.
//! * **Resumption** — the campaign executor
//!   ([`crate::campaign::Campaign`]) replays a journal's completed sites
//!   instantly, runs only the missing ones, and journals each new
//!   outcome as it settles. The resumed record set is bit-identical to
//!   an uninterrupted run at any thread count — the contract
//!   `tests/resume_equivalence.rs` enforces for every injection engine.
//!
//! ## File format
//!
//! Plain UTF-8 lines, fields separated by `|` (field values are escaped
//! so they never contain `|` or newlines), each line ending in the
//! FNV-1a-64 checksum of everything before it:
//!
//! ```text
//! vulnstack-journal|1|<fingerprint digest>|<canonical fingerprint>|<cksum>
//! M|<key>|<payload>|<cksum>
//! R|<site index>|<record payload>|<cksum>
//! Q|<site index>|<attempts>|<panic message>|<cksum>
//! ```
//!
//! `M` lines carry campaign **metadata** — engine-derived identity that
//! is too large for the fingerprint proper (e.g. the pruning layer's
//! equivalence-class-table digest). They are written right after the
//! header on create; on resume the engine's expected metadata must match
//! what the journal replays, or the resume is refused
//! ([`JournalError::MetaMismatch`]) — a pruned campaign must never be
//! resumed against records pruned with a different class table.
//! `R` lines carry an engine-encoded record; `Q` lines record a
//! quarantined site (every attempt panicked). Entries may appear in any
//! order (workers append as sites complete) and duplicates keep the
//! first occurrence. On open, the first line that fails its checksum —
//! or an unterminated final line — marks the torn tail: the file is
//! truncated back to the last good line and the campaign re-runs
//! everything from there.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal file-format version (the `1` in the header line).
pub const FORMAT_VERSION: u32 = 1;

/// Default group-commit interval: records appended between `fsync`s.
/// Small enough that a crash between flushes loses at most a handful of
/// in-flight records (the resume layer simply re-runs them — the
/// *write* still lands per record, so only power loss, not `SIGKILL`,
/// can lose a flushed-but-unsynced line); large enough to amortise the
/// dominant per-record fsync cost at streaming rates.
pub const DEFAULT_FLUSH_INTERVAL: u32 = 8;

/// FNV-1a 64-bit hash — the journal's line checksum and fingerprint
/// digest. Not cryptographic; it detects torn writes and bit rot, which
/// is all a single-writer journal needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn checksum(body: &str) -> String {
    format!("{:016x}", fnv1a64(body.as_bytes()))
}

/// Escapes a field value so it contains neither the `|` separator nor
/// line terminators.
fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '|' => out.push_str("\\p"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_field`] (lenient: unknown escapes pass through).
fn unescape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('p') => out.push('|'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Identity of one campaign: everything that determines its record
/// stream. Two runs with equal fingerprints draw the same sites and
/// produce bit-identical records, so their journals are interchangeable;
/// any difference makes resuming unsound and is refused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Engine / campaign kind, e.g. `gefin-avf`, `llfi-svf`.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Core model or ISA name.
    pub config: String,
    /// Target structure (`-` for engines without one).
    pub structure: String,
    /// Campaign seed.
    pub seed: u64,
    /// Sample (fault-site) count.
    pub samples: u64,
    /// Extra engine parameters (PVF mode, sweep windows, …); empty if
    /// none.
    pub params: String,
    /// Engine record-schema version: bump when the record encoding or
    /// the injection semantics change, so stale journals are refused.
    pub version: u32,
}

impl Fingerprint {
    /// The canonical single-line rendering stored in the journal header
    /// and compared verbatim on resume.
    pub fn canonical(&self) -> String {
        format!(
            "engine={};workload={};config={};structure={};seed={};samples={};params={};version={}",
            escape_field(&self.engine),
            escape_field(&self.workload),
            escape_field(&self.config),
            escape_field(&self.structure),
            self.seed,
            self.samples,
            escape_field(&self.params),
            self.version,
        )
    }

    /// FNV-1a-64 digest of the canonical rendering.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }
}

/// Why a journal could not be created, resumed, or appended to. Every
/// variant names the offending path.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(PathBuf, std::io::Error),
    /// Resume was required but the journal file does not exist.
    Missing(PathBuf),
    /// The journal belongs to a different campaign.
    Mismatch {
        /// Journal path.
        path: PathBuf,
        /// Canonical fingerprint of the campaign being run.
        expected: String,
        /// Canonical fingerprint found in the journal header.
        found: String,
    },
    /// The journal is structurally unusable (bad header, out-of-range
    /// entry, undecodable payload).
    Corrupt {
        /// Journal path.
        path: PathBuf,
        /// What was wrong.
        why: String,
    },
    /// A metadata record required for sound resumption (e.g. the pruning
    /// layer's class-table digest) is missing from the journal or
    /// disagrees with the campaign being run.
    MetaMismatch {
        /// Journal path.
        path: PathBuf,
        /// Metadata key.
        key: String,
        /// Payload the running campaign derived.
        expected: String,
        /// Payload the journal replayed (`None` if the key is absent —
        /// e.g. its line was truncated away as corrupt).
        found: Option<String>,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(p, e) => write!(f, "journal {}: {e}", p.display()),
            JournalError::Missing(p) => {
                write!(f, "journal {}: not found (nothing to resume)", p.display())
            }
            JournalError::Mismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal {}: fingerprint mismatch — refusing to resume a different campaign\n  \
                 running: {expected}\n  journal: {found}",
                path.display()
            ),
            JournalError::Corrupt { path, why } => {
                write!(f, "journal {}: corrupt: {why}", path.display())
            }
            JournalError::MetaMismatch {
                path,
                key,
                expected,
                found,
            } => write!(
                f,
                "journal {}: metadata `{key}` mismatch — refusing to resume\n  \
                 running: {expected}\n  journal: {}",
                path.display(),
                found.as_deref().unwrap_or("<missing>"),
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// One replayed journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Site index within the campaign (sampling order).
    pub index: u64,
    /// What the journal recorded for the site.
    pub kind: EntryKind,
}

/// The two durable outcomes a site can have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// Completed record, engine-encoded.
    Done(String),
    /// Quarantined site (every attempt panicked).
    Quarantined {
        /// Attempts made before giving up.
        attempts: u32,
        /// Panic message of the last attempt.
        message: String,
    },
}

/// What [`Journal::resume`] recovered from disk.
#[derive(Debug, Default)]
pub struct Replay {
    /// Valid entries, duplicates removed (first occurrence wins).
    pub entries: Vec<Entry>,
    /// Valid metadata records, in file order (duplicate keys keep the
    /// first occurrence when looked up via [`Replay::meta`]).
    pub metas: Vec<(String, String)>,
    /// Bytes of torn/corrupt tail truncated away.
    pub truncated_bytes: u64,
    /// Complete lines discarded because they followed the first bad line.
    pub dropped_lines: usize,
}

impl Replay {
    /// The payload of the first metadata record with `key`, if any.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.metas
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An open, append-only campaign journal. Appends are thread-safe and
/// **group-committed**: every append is its own `write` syscall (so it
/// survives `SIGKILL` via the page cache and a torn write stays within
/// one line), but the `fsync` that makes it power-loss durable is
/// batched every [`DEFAULT_FLUSH_INTERVAL`] records. Quarantine
/// markers, metadata, and [`Journal::flush`] (called at campaign
/// completion and by the streaming sink) force the sync immediately.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: Mutex<JournalWriter>,
}

/// The journal's write-side state, guarded by one mutex so appends stay
/// atomic per line and the pending-record count stays consistent with
/// the file contents.
#[derive(Debug)]
struct JournalWriter {
    file: File,
    /// Records written since the last fsync.
    pending: u32,
    /// Group-commit interval: fsync once `pending` reaches this.
    flush_every: u32,
}

impl JournalWriter {
    fn new(file: File) -> JournalWriter {
        JournalWriter {
            file,
            pending: 0,
            flush_every: DEFAULT_FLUSH_INTERVAL,
        }
    }
}

impl Journal {
    /// Creates (or truncates) the journal at `path` and writes the
    /// fingerprint header durably.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure.
    pub fn create(path: &Path, fp: &Fingerprint) -> Result<Journal, JournalError> {
        let io = |e| JournalError::Io(path.to_path_buf(), e);
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(io)?;
            }
        }
        let mut file = File::create(path).map_err(io)?;
        let body = format!(
            "vulnstack-journal|{FORMAT_VERSION}|{:016x}|{}",
            fp.digest(),
            fp.canonical()
        );
        let line = format!("{body}|{}\n", checksum(&body));
        file.write_all(line.as_bytes()).map_err(io)?;
        file.sync_all().map_err(io)?;
        sync_parent_dir(path);
        Ok(Journal {
            path: path.to_path_buf(),
            writer: Mutex::new(JournalWriter::new(file)),
        })
    }

    /// Opens an existing journal, verifies its fingerprint against `fp`,
    /// replays every valid entry, and truncates any torn or corrupt tail
    /// so subsequent appends restart from the last good line.
    ///
    /// # Errors
    ///
    /// [`JournalError::Missing`] if the file does not exist,
    /// [`JournalError::Mismatch`] if it records a different campaign,
    /// [`JournalError::Corrupt`] if the header itself is unusable,
    /// [`JournalError::Io`] on filesystem failure.
    pub fn resume(path: &Path, fp: &Fingerprint) -> Result<(Journal, Replay), JournalError> {
        let io = |e| JournalError::Io(path.to_path_buf(), e);
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(JournalError::Missing(path.to_path_buf()))
            }
            Err(e) => return Err(io(e)),
        };
        let corrupt = |why: String| JournalError::Corrupt {
            path: path.to_path_buf(),
            why,
        };

        // Split into complete lines, tracking the byte offset of each so
        // the torn tail can be truncated precisely.
        let mut lines: Vec<(usize, &[u8])> = Vec::new();
        let mut pos = 0usize;
        let mut torn_at: Option<usize> = None;
        while pos < bytes.len() {
            match bytes[pos..].iter().position(|&b| b == b'\n') {
                Some(rel) => {
                    lines.push((pos, &bytes[pos..pos + rel]));
                    pos += rel + 1;
                }
                None => {
                    torn_at = Some(pos);
                    break;
                }
            }
        }

        let (_, header) = *lines
            .first()
            .ok_or_else(|| corrupt("missing header line".to_string()))?;
        let header =
            std::str::from_utf8(header).map_err(|_| corrupt("header is not UTF-8".to_string()))?;
        let found = parse_header(header).ok_or_else(|| corrupt("unparsable header".to_string()))?;
        let expected = fp.canonical();
        if found != expected {
            return Err(JournalError::Mismatch {
                path: path.to_path_buf(),
                expected,
                found,
            });
        }

        // Replay entries up to the first bad line; everything at and
        // after it is conservatively discarded.
        let mut replay = Replay::default();
        let mut seen = std::collections::HashSet::new();
        let mut truncate_at: Option<usize> = torn_at;
        for (j, &(offset, raw)) in lines.iter().enumerate().skip(1) {
            let parsed = std::str::from_utf8(raw).ok().and_then(parse_line);
            match parsed {
                Some(ParsedLine::Entry(e)) => {
                    if seen.insert(e.index) {
                        replay.entries.push(e);
                    }
                }
                Some(ParsedLine::Meta(key, payload)) => replay.metas.push((key, payload)),
                None => {
                    truncate_at = Some(offset);
                    replay.dropped_lines = lines.len() - j - 1;
                    break;
                }
            }
        }

        if let Some(at) = truncate_at {
            replay.truncated_bytes = (bytes.len() - at) as u64;
            let f = OpenOptions::new().write(true).open(path).map_err(io)?;
            f.set_len(at as u64).map_err(io)?;
            f.sync_all().map_err(io)?;
        }

        let file = OpenOptions::new().append(true).open(path).map_err(io)?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                writer: Mutex::new(JournalWriter::new(file)),
            },
            replay,
        ))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably appends a campaign metadata record (written right after
    /// the header on create; verified against the engine's expectation
    /// on resume). Metadata is campaign identity, so it always forces a
    /// sync rather than riding the group commit.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write or sync failure.
    pub fn append_meta(&self, key: &str, payload: &str) -> Result<(), JournalError> {
        self.append_line(
            &format!("M|{}|{}", escape_field(key), escape_field(payload)),
            true,
        )
    }

    /// Appends a completed record for site `index`. The write lands
    /// immediately; the fsync rides the group commit (forced at latest
    /// by [`Journal::flush`] at campaign completion).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write or sync failure.
    pub fn append_done(&self, index: u64, payload: &str) -> Result<(), JournalError> {
        self.append_line(&format!("R|{index}|{}", escape_field(payload)), false)
    }

    /// Durably appends a quarantine marker for site `index`, forcing a
    /// group-commit flush: a quarantine is about to be *reported* (it
    /// names a poison site an operator may act on), so it never waits in
    /// the unsynced window.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write or sync failure.
    pub fn append_quarantined(
        &self,
        index: u64,
        attempts: u32,
        message: &str,
    ) -> Result<(), JournalError> {
        self.append_line(
            &format!("Q|{index}|{attempts}|{}", escape_field(message)),
            true,
        )
    }

    /// Syncs any appends still waiting in the group-commit window. The
    /// completion barrier: campaigns call this before reporting success.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on sync failure.
    pub fn flush(&self) -> Result<(), JournalError> {
        let mut w = self.writer.lock().expect("unpoisoned");
        if w.pending > 0 {
            w.file
                .sync_data()
                .map_err(|e| JournalError::Io(self.path.clone(), e))?;
            w.pending = 0;
        }
        Ok(())
    }

    /// Overrides the group-commit interval (records per fsync, min 1)
    /// for this journal. `1` restores the pre-batching fsync-per-record
    /// behavior; the durability tests use it to widen the window.
    pub fn set_flush_interval(&self, every: u32) {
        self.writer.lock().expect("unpoisoned").flush_every = every.max(1);
    }

    fn append_line(&self, body: &str, force_sync: bool) -> Result<(), JournalError> {
        let line = format!("{body}|{}\n", checksum(body));
        let mut w = self.writer.lock().expect("unpoisoned");
        let io = |e| JournalError::Io(self.path.clone(), e);
        // One write call per line keeps a torn append to a prefix of a
        // single line — exactly what checksum-truncation recovers from.
        w.file.write_all(line.as_bytes()).map_err(io)?;
        w.pending += 1;
        if force_sync || w.pending >= w.flush_every {
            w.file.sync_data().map_err(io)?;
            w.pending = 0;
        }
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Best-effort close barrier: never let pending appends lose
        // their durability just because the campaign errored out before
        // reaching its explicit `flush`.
        if let Ok(w) = self.writer.get_mut() {
            if w.pending > 0 {
                let _ = w.file.sync_data();
                w.pending = 0;
            }
        }
    }
}

/// Best-effort directory fsync so a freshly created journal survives a
/// crash of the directory entry itself.
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Parses and checksum-verifies the header line, returning the canonical
/// fingerprint it records.
fn parse_header(line: &str) -> Option<String> {
    let (body, ck) = line.rsplit_once('|')?;
    if checksum(body) != ck {
        return None;
    }
    let mut parts = body.split('|');
    if parts.next()? != "vulnstack-journal" {
        return None;
    }
    let version: u32 = parts.next()?.parse().ok()?;
    if version != FORMAT_VERSION {
        return None;
    }
    let digest = parts.next()?;
    let canonical = parts.next()?.to_string();
    if parts.next().is_some() || format!("{:016x}", fnv1a64(canonical.as_bytes())) != digest {
        return None;
    }
    Some(canonical)
}

/// One parsed journal body line.
enum ParsedLine {
    /// A site entry (`R` or `Q`).
    Entry(Entry),
    /// A metadata record (`M`): `(key, payload)`.
    Meta(String, String),
}

/// Parses and checksum-verifies one entry or metadata line.
fn parse_line(line: &str) -> Option<ParsedLine> {
    let (body, ck) = line.rsplit_once('|')?;
    if checksum(body) != ck {
        return None;
    }
    let mut parts = body.split('|');
    let kind = parts.next()?;
    let parsed = match kind {
        "M" => ParsedLine::Meta(unescape_field(parts.next()?), unescape_field(parts.next()?)),
        "R" => ParsedLine::Entry(Entry {
            index: parts.next()?.parse().ok()?,
            kind: EntryKind::Done(unescape_field(parts.next()?)),
        }),
        "Q" => ParsedLine::Entry(Entry {
            index: parts.next()?.parse().ok()?,
            kind: EntryKind::Quarantined {
                attempts: parts.next()?.parse().ok()?,
                message: unescape_field(parts.next()?),
            },
        }),
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(parsed)
}

/// A campaign's journal, as the front end names it in
/// [`crate::RunOpts::journal`]: where it lives, how an existing file is
/// treated, and the workload label recorded in the campaign fingerprint.
/// Engines derive the rest of the fingerprint themselves (core config,
/// structure, seed, sample count, schema version).
#[derive(Debug, Clone, Copy)]
pub struct JournalOpts<'a> {
    /// Journal file path.
    pub path: &'a Path,
    /// Treatment of an existing journal file.
    pub mode: ResumeMode,
    /// Workload label for the fingerprint.
    pub workload: &'a str,
}

/// How an existing journal file at the target path is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeMode {
    /// Resume if a journal exists (refusing a fingerprint mismatch),
    /// otherwise start a new one.
    ResumeOrStart,
    /// Require an existing journal; error if the file is missing.
    ResumeRequired,
}

/// Accounting for one campaign run (journaled or not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Sites replayed instantly from the journal.
    pub replayed: usize,
    /// Sites actually executed this run.
    pub executed: usize,
    /// Sites quarantined in the final outcome (replayed or new).
    pub quarantined: usize,
    /// Worker claim loops respawned after dying outside site isolation.
    pub respawns: u64,
    /// Torn/corrupt bytes truncated from the journal tail on open.
    pub truncated_bytes: u64,
    /// Complete-but-suspect lines discarded after the first bad line.
    pub dropped_lines: usize,
    /// The run ended early because the admission gate returned `Stop`
    /// (cancellation or pool shutdown); unfinished sites stay
    /// un-journaled and a later resume picks them up.
    pub stopped: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(samples: u64) -> Fingerprint {
        Fingerprint {
            engine: "test-engine".into(),
            workload: "crc32".into(),
            config: "A72".into(),
            structure: "RF".into(),
            seed: 7,
            samples,
            params: String::new(),
            version: 1,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vulnstack-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn escape_roundtrips_awkward_strings() {
        for s in [
            "plain",
            "pipe|pipe",
            "back\\slash",
            "new\nline",
            "\r\n|\\",
            "",
        ] {
            assert_eq!(unescape_field(&escape_field(s)), s, "{s:?}");
        }
    }

    #[test]
    fn create_append_resume_roundtrip() {
        let path = tmp("roundtrip.journal");
        let f = fp(4);
        let j = Journal::create(&path, &f).unwrap();
        j.append_done(0, "a,b,c").unwrap();
        j.append_quarantined(2, 3, "panicked: boom | with pipe")
            .unwrap();
        j.append_done(1, "x|y\nz").unwrap();
        drop(j);
        let (_, replay) = Journal::resume(&path, &f).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.entries.len(), 3);
        assert_eq!(replay.entries[0].kind, EntryKind::Done("a,b,c".into()));
        assert_eq!(
            replay.entries[1].kind,
            EntryKind::Quarantined {
                attempts: 3,
                message: "panicked: boom | with pipe".into()
            }
        );
        assert_eq!(replay.entries[2].kind, EntryKind::Done("x|y\nz".into()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = tmp("torn.journal");
        let f = fp(8);
        let j = Journal::create(&path, &f).unwrap();
        j.append_done(0, "zero").unwrap();
        j.append_done(1, "one").unwrap();
        drop(j);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate SIGKILL mid-append: a prefix of a record line with no
        // terminating newline.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"R|2|half-writ");
        std::fs::write(&path, &bytes).unwrap();

        let (j, replay) = Journal::resume(&path, &f).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert_eq!(replay.truncated_bytes, 13);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        j.append_done(2, "two").unwrap();
        drop(j);
        let (_, replay) = Journal::resume(&path, &f).unwrap();
        assert_eq!(replay.entries.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_mid_file_drops_everything_after_it() {
        let path = tmp("corrupt.journal");
        let f = fp(8);
        let j = Journal::create(&path, &f).unwrap();
        for i in 0..4 {
            j.append_done(i, &format!("r{i}")).unwrap();
        }
        drop(j);
        // Flip a payload byte in the second entry line (line index 2).
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = content.lines().map(String::from).collect();
        lines[2] = lines[2].replace("r1", "rX");
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let (_, replay) = Journal::resume(&path, &f).unwrap();
        assert_eq!(replay.entries.len(), 1, "only the entry before the damage");
        assert_eq!(replay.dropped_lines, 2);
        assert!(replay.truncated_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_indices_keep_first() {
        let path = tmp("dup.journal");
        let f = fp(4);
        let j = Journal::create(&path, &f).unwrap();
        j.append_done(1, "first").unwrap();
        j.append_done(1, "second").unwrap();
        drop(j);
        let (_, replay) = Journal::resume(&path, &f).unwrap();
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(replay.entries[0].kind, EntryKind::Done("first".into()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = tmp("mismatch.journal");
        let f = fp(4);
        Journal::create(&path, &f).unwrap();
        let other = Fingerprint { seed: 8, ..fp(4) };
        match Journal::resume(&path, &other) {
            Err(JournalError::Mismatch {
                expected, found, ..
            }) => {
                assert!(expected.contains("seed=8"));
                assert!(found.contains("seed=7"));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_a_distinct_error() {
        let path = tmp("never-created.journal");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            Journal::resume(&path, &fp(1)),
            Err(JournalError::Missing(_))
        ));
    }
}
