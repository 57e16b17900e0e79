//! The campaign executor: the one path every injection campaign runs.
//!
//! A campaign is a fixed list of fault sites in sampling order, the
//! order in which workers claim them, a worker count, and an optional
//! journal. [`Campaign::run`] is the whole pipeline:
//!
//! 1. **journal open/replay** — a journaled campaign opens (or creates)
//!    its journal, refuses a journal written for a different campaign
//!    (fingerprint or metadata mismatch), and replays every completed
//!    site into the fold without re-running it;
//! 2. **drive** — the remaining sites run on the work-stealing pool of
//!    [`crate::sched`], with per-site panic isolation, the optional
//!    admission gate, and one metrics span per site;
//! 3. **sink** — each settled site streams through the bounded sink
//!    ([`crate::sink::stream`]): journal append, the caller's fold, and
//!    the optional subscriber tee.
//!
//! An unjournaled campaign takes the same path with nothing to replay,
//! so it isolates panics exactly like a journaled one: a site that
//! panics on every retry is quarantined and the campaign completes.
//! Engines differ only in how they draw their sites, fingerprint their
//! journal, run one site, and fold its encoded record.

use std::path::Path;

use crate::journal::{
    EntryKind, Fingerprint, Journal, JournalError, JournalOpts, Replay, ResumeMode, ResumeStats,
};
use crate::sched::{self, Quarantine, RunPolicy, SiteResult};
use crate::sink::{self, StreamOpts};
use crate::trace::CampaignMetrics;

/// The journal of a campaign: where it lives and the identity its
/// records are bound to.
#[derive(Debug)]
pub struct CampaignJournal<'a> {
    /// Path, treatment of an existing file, retry policy and workload
    /// label.
    pub opts: &'a JournalOpts<'a>,
    /// Campaign identity, checked against the journal header on resume.
    pub fingerprint: Fingerprint,
    /// Engine-derived identity too large for the fingerprint proper
    /// (e.g. a pruning class-table digest), as `(key, payload)` pairs.
    /// Written after the header on create; on resume each pair must
    /// match what the journal replays, or the resume is refused with
    /// [`JournalError::MetaMismatch`].
    pub meta: Vec<(String, String)>,
}

/// One campaign: its fault sites, their claim order, the worker count,
/// and an optional journal.
#[derive(Debug)]
pub struct Campaign<'a, T> {
    /// The fault sites, in sampling order: index `i` is site `i`.
    pub items: &'a [T],
    /// The order workers claim sites in — a permutation of the indices
    /// into `items`, usually sorted by injection cycle for checkpoint
    /// locality. Records are reported by site index regardless.
    pub order: &'a [usize],
    /// Worker threads.
    pub threads: usize,
    /// The journal, for a durable, resumable campaign.
    pub journal: Option<CampaignJournal<'a>>,
}

/// What a campaign run leaves besides the caller's fold: the quarantine
/// list and the accounting — never the records themselves.
#[derive(Debug)]
pub struct CampaignRun {
    /// Quarantined sites, sorted by index (replayed, freshly
    /// quarantined, and lost sites merged).
    pub quarantined: Vec<Quarantine>,
    /// What was replayed vs executed.
    pub stats: ResumeStats,
}

impl<T: Sync> Campaign<'_, T> {
    /// Runs the campaign. `runner` executes site `i` and returns its
    /// encoded record; `valid` tells whether a replayed journal payload
    /// decodes (one that does not is reported as corruption, never
    /// silently dropped); `fold` sees every completed site exactly once
    /// as `(site index, payload)` — replayed sites first, then fresh
    /// ones as they settle — on the sink thread. Quarantined sites are
    /// returned in [`CampaignRun::quarantined`] instead.
    ///
    /// # Errors
    ///
    /// Any [`JournalError`]: filesystem failures, a missing journal in
    /// [`ResumeMode::ResumeRequired`], a fingerprint or metadata
    /// mismatch, or a corrupt or out-of-range entry.
    ///
    /// # Panics
    ///
    /// Panics before any site runs if `order` is not a permutation of
    /// the site indices (a missing, duplicate or out-of-range index), or
    /// if the journal fingerprint's `samples` differs from the site
    /// count (caller bugs).
    pub fn run<F, V, G>(
        &self,
        stream: StreamOpts<'_>,
        metrics: Option<&CampaignMetrics>,
        runner: F,
        valid: V,
        mut fold: G,
    ) -> Result<CampaignRun, JournalError>
    where
        F: Fn(usize, &T) -> String + Sync,
        V: Fn(&str) -> bool,
        G: FnMut(u64, &str) + Send,
    {
        let n = self.items.len();
        assert_eq!(self.order.len(), n, "order must cover every item");
        sched::assert_distinct_in_range(self.order, n);
        let (journal, replay) = match &self.journal {
            Some(j) => {
                let (journal, replay) = j.open(n)?;
                (Some(journal), replay)
            }
            None => (None, Replay::default()),
        };
        let policy = self
            .journal
            .as_ref()
            .map_or_else(RunPolicy::default, |j| j.opts.policy);

        let mut have = vec![false; n];
        let mut quarantined: Vec<Quarantine> = Vec::new();
        let mut replayed = 0usize;
        for e in replay.entries {
            let corrupt = |why: String| JournalError::Corrupt {
                path: journal
                    .as_ref()
                    .map_or_else(Default::default, |j| j.path().to_path_buf()),
                why,
            };
            let i = usize::try_from(e.index).unwrap_or(usize::MAX);
            if i >= n {
                return Err(corrupt(format!(
                    "entry index {} out of range (campaign has {n} sites)",
                    e.index
                )));
            }
            match e.kind {
                EntryKind::Done(payload) => {
                    if !valid(&payload) {
                        return Err(corrupt(format!("site {i}: undecodable record payload")));
                    }
                    fold(e.index, &payload);
                    // Subscribers attached after a restart still see the
                    // full stream: replayed records tee out exactly like
                    // fresh ones.
                    if let Some(t) = stream.tee {
                        t(e.index, &payload);
                    }
                }
                EntryKind::Quarantined { attempts, message } => {
                    quarantined.push(Quarantine {
                        index: i,
                        attempts,
                        message,
                    });
                }
            }
            have[i] = true;
            replayed += 1;
        }

        // Only the missing sites run, claimed in the caller's order
        // (which preserves checkpoint locality among what remains).
        let missing: Vec<usize> = self.order.iter().copied().filter(|&i| !have[i]).collect();
        let (drive, summary) = sink::stream(journal.as_ref(), stream, fold, |handle| {
            sched::drive_ordered_resilient(
                self.items,
                &missing,
                self.threads,
                policy,
                runner,
                |i, outcome| match outcome {
                    SiteResult::Done(payload) => handle.push_done(i as u64, payload),
                    SiteResult::Quarantined(q) => {
                        handle.push_quarantined(i as u64, q.attempts, q.message);
                    }
                },
                metrics,
                stream.gate,
            )
        })?;

        quarantined.extend(summary.quarantined);
        // Sites lost to a worker failure settle as zero-attempt
        // quarantines and are deliberately NOT journaled — the next
        // resume re-runs them. Sites the gate never admitted
        // (`drive.unclaimed`) are not failures: they stay un-journaled
        // and un-quarantined, exactly the state a later resume expects.
        for i in drive.lost {
            quarantined.push(Quarantine {
                index: i,
                attempts: 0,
                message: "site lost to a worker failure".to_string(),
            });
        }
        quarantined.sort_by_key(|q| q.index);
        Ok(CampaignRun {
            stats: ResumeStats {
                replayed,
                executed: missing.len() - drive.unclaimed.len(),
                quarantined: quarantined.len(),
                respawns: drive.respawns,
                truncated_bytes: replay.truncated_bytes,
                dropped_lines: replay.dropped_lines,
                stopped: drive.stopped,
            },
            quarantined,
        })
    }
}

impl CampaignJournal<'_> {
    /// Opens (or creates) the journal per the resume mode, writing the
    /// metadata on create and verifying it against the replay on resume.
    fn open(&self, sites: usize) -> Result<(Journal, Replay), JournalError> {
        assert_eq!(
            self.fingerprint.samples, sites as u64,
            "fingerprint samples must match the site count"
        );
        let path: &Path = self.opts.path;
        let resume = match self.opts.mode {
            ResumeMode::Fresh => false,
            // A zero-length file means the previous run died before the
            // header write became durable: nothing to resume.
            ResumeMode::ResumeOrStart => {
                matches!(std::fs::metadata(path).map(|m| m.len() > 0), Ok(true))
            }
            ResumeMode::ResumeRequired => true,
        };
        if !resume {
            let journal = Journal::create(path, &self.fingerprint)?;
            for (key, payload) in &self.meta {
                journal.append_meta(key, payload)?;
            }
            return Ok((journal, Replay::default()));
        }
        let (journal, replay) = Journal::resume(path, &self.fingerprint)?;
        // Verify every expected metadata pair against the replay. A
        // missing key (e.g. its line was corrupt and truncated away) is
        // as fatal as a mismatch: resuming without agreeing on the
        // engine's derived identity would silently mix records.
        for (key, payload) in &self.meta {
            let found = replay.meta(key);
            if found != Some(payload.as_str()) {
                return Err(JournalError::MetaMismatch {
                    path: path.to_path_buf(),
                    key: key.clone(),
                    expected: payload.clone(),
                    found: found.map(String::from),
                });
            }
        }
        Ok((journal, replay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

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
        let dir = std::env::temp_dir().join(format!("vulnstack-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn opts(path: &Path, mode: ResumeMode) -> JournalOpts<'_> {
        JournalOpts {
            path,
            mode,
            policy: RunPolicy::default(),
            workload: "crc32",
        }
    }

    fn stream_opts() -> StreamOpts<'static> {
        StreamOpts {
            channel_cap: 4,
            gate: None,
            tee: None,
        }
    }

    /// Runs `items` unjournaled through the executor and returns the
    /// folded `(index, payload)` pairs sorted by index.
    fn run_plain<T: Sync>(
        items: &[T],
        order: &[usize],
        threads: usize,
        runner: impl Fn(usize, &T) -> String + Sync,
    ) -> (Vec<(u64, String)>, CampaignRun) {
        let mut got = Vec::new();
        let out = Campaign {
            items,
            order,
            threads,
            journal: None,
        }
        .run(
            stream_opts(),
            None,
            runner,
            |_| true,
            |i, p| got.push((i, p.to_string())),
        )
        .unwrap();
        got.sort();
        (got, out)
    }

    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn output_matches_sequential_at_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<(u64, String)> = items
            .iter()
            .map(|&x| (x, (x * x + 1).to_string()))
            .collect();
        for threads in [1, 2, 3, 8, 200] {
            let (got, out) = run_plain(&items, &identity(100), threads, |_, &x| {
                (x * x + 1).to_string()
            });
            assert_eq!(got, seq, "threads={threads}");
            assert_eq!(out.stats.executed, 100);
        }
    }

    #[test]
    fn claims_follow_order_but_records_land_by_index() {
        let items: Vec<u64> = vec![30, 10, 20, 40];
        let order = sched::sort_order_by(&items, |&x| x);
        assert_eq!(order, vec![1, 2, 0, 3]);
        let claimed = Mutex::new(Vec::new());
        let (got, _) = run_plain(&items, &order, 1, |i, &x| {
            claimed.lock().unwrap().push(x);
            format!("{i}:{x}")
        });
        assert_eq!(*claimed.lock().unwrap(), vec![10, 20, 30, 40]);
        let want: Vec<(u64, String)> = vec![
            (0, "0:30".into()),
            (1, "1:10".into()),
            (2, "2:20".into()),
            (3, "3:40".into()),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let n = 257;
        let items: Vec<usize> = (0..n).collect();
        let calls = AtomicUsize::new(0);
        let (got, _) = run_plain(&items, &identity(n), 7, |i, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x.to_string()
        });
        assert_eq!(calls.load(Ordering::Relaxed), n);
        assert_eq!(got.len(), n);
        assert!(got.iter().all(|(i, p)| p == &i.to_string()));
    }

    #[test]
    fn empty_and_one_item_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        let (got, out) = run_plain(&empty, &[], 4, |_, &x| x.to_string());
        assert!(got.is_empty());
        assert_eq!(out.stats, ResumeStats::default());
        let (got, _) = run_plain(&[5u32], &[0], 4, |_, &x| (x + 1).to_string());
        assert_eq!(got, vec![(0, "6".to_string())]);
    }

    /// A bad claim order panics with `expected` before any site runs.
    fn assert_rejected_before_work(order: &[usize], expected: &str) {
        let items = [10u32, 20, 30];
        let ran = AtomicUsize::new(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_plain(&items, order, 2, |_, &x| {
                ran.fetch_add(1, Ordering::Relaxed);
                x.to_string()
            })
        }))
        .expect_err("a bad order must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(expected), "{msg}");
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no site may run");
    }

    #[test]
    fn duplicate_index_in_order_panics_before_any_work() {
        assert_rejected_before_work(&[0, 1, 1], "duplicate index 1");
    }

    #[test]
    fn out_of_range_index_in_order_panics_before_any_work() {
        assert_rejected_before_work(&[0, 1, 3], "out-of-range index 3");
    }

    #[test]
    fn partial_order_panics_before_any_work() {
        // A left-out site would silently drop out of the tally: neither
        // run, nor quarantined, nor unclaimed.
        assert_rejected_before_work(&[0, 2], "order must cover every item");
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Sites 0 and 1 each block until the other has started. A static
        // split (one worker per contiguous chunk) would run both on the
        // same worker and time out; work stealing hands site 1 to an idle
        // worker while site 0 still runs.
        let items: Vec<u64> = (0..64).collect();
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let (got, out) = run_plain(&items, &identity(64), 8, |i, &x| {
            if i < 2 {
                started[i].store(true, Ordering::SeqCst);
                let t0 = Instant::now();
                while !started[1 - i].load(Ordering::SeqCst) {
                    assert!(
                        t0.elapsed() < Duration::from_secs(10),
                        "site {i} never ran beside its partner"
                    );
                    std::thread::yield_now();
                }
            }
            x.to_string()
        });
        assert!(out.quarantined.is_empty(), "{:?}", out.quarantined);
        assert_eq!(got.len(), 64);
    }

    #[test]
    fn metrics_record_one_span_per_site() {
        let items: Vec<u64> = (0..40).collect();
        let order = sched::sort_order_by(&items, |&x| std::cmp::Reverse(x));
        let metrics = CampaignMetrics::new("campaign-test");
        let mut folded = 0;
        Campaign {
            items: &items,
            order: &order,
            threads: 4,
            journal: None,
        }
        .run(
            stream_opts(),
            Some(&metrics),
            |i, &x| (i as u64 * 1000 + x).to_string(),
            |_| true,
            |_, _| folded += 1,
        )
        .unwrap();
        assert_eq!(folded, 40);
        let report = metrics.report();
        assert_eq!(report.sites, 40);
        assert_eq!(report.spans.len(), 40);
        let mut indices: Vec<usize> = report.spans.iter().map(|s| s.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, identity(40), "spans carry site indices");
        assert_eq!(report.per_worker.iter().map(|w| w.sites).sum::<u64>(), 40);
    }

    #[test]
    fn unjournaled_and_journaled_runs_quarantine_a_poisoned_site_identically() {
        let items: Vec<u64> = (0..12).collect();
        let order = identity(12);
        let runner = |i: usize, &x: &u64| {
            assert!(i != 5, "injector blew up on site {i}");
            x.to_string()
        };
        let path = tmp("poison-both.journal");
        let _ = std::fs::remove_file(&path);
        let jopts = opts(&path, ResumeMode::Fresh);
        let run = |journal: Option<CampaignJournal<'_>>| {
            let mut got = Vec::new();
            let out = Campaign {
                items: &items,
                order: &order,
                threads: 3,
                journal,
            }
            .run(
                stream_opts(),
                None,
                runner,
                |_| true,
                |i, p| got.push((i, p.to_string())),
            )
            .unwrap();
            got.sort();
            (got, out)
        };
        let (plain, plain_out) = run(None);
        let (journaled, journaled_out) = run(Some(CampaignJournal {
            opts: &jopts,
            fingerprint: fp(12),
            meta: Vec::new(),
        }));
        assert_eq!(plain_out.quarantined.len(), 1);
        let q = &plain_out.quarantined[0];
        assert_eq!((q.index, q.attempts), (5, 3), "1 try + 2 retries");
        assert!(q.message.contains("blew up on site 5"), "{q:?}");
        assert_eq!(plain_out.quarantined, journaled_out.quarantined);
        assert_eq!(plain_out.stats, journaled_out.stats);
        assert_eq!(plain, journaled);
        assert_eq!(plain.len(), 11, "every healthy site completes");
        let _ = std::fs::remove_file(&path);
    }

    /// A journaled campaign over `items` whose records are `x * 10`.
    fn journaled<'a>(
        items: &'a [u64],
        order: &'a [usize],
        jopts: &'a JournalOpts<'a>,
        meta: &[(String, String)],
        threads: usize,
    ) -> Campaign<'a, u64> {
        Campaign {
            items,
            order,
            threads,
            journal: Some(CampaignJournal {
                opts: jopts,
                fingerprint: fp(items.len() as u64),
                meta: meta.to_vec(),
            }),
        }
    }

    fn run_tens(c: &Campaign<'_, u64>) -> Result<(Vec<(u64, String)>, CampaignRun), JournalError> {
        let mut got = Vec::new();
        let out = c.run(
            stream_opts(),
            None,
            |_, &x| (x * 10).to_string(),
            |s| s.parse::<u64>().is_ok(),
            |i, p| got.push((i, p.to_string())),
        )?;
        got.sort();
        Ok((got, out))
    }

    #[test]
    fn journaled_campaign_replays_and_completes() {
        let path = tmp("campaign.journal");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..12).collect();
        let order = identity(12);
        let expect: Vec<(u64, String)> = items.iter().map(|&x| (x, (x * 10).to_string())).collect();

        let fresh = opts(&path, ResumeMode::Fresh);
        let (got, full) = run_tens(&journaled(&items, &order, &fresh, &[], 3)).unwrap();
        assert_eq!(full.stats.executed, 12);
        assert_eq!(full.stats.replayed, 0);
        assert_eq!(got, expect);

        // Drop the last 5 record lines (keep header + 7) to simulate an
        // interrupted run, then require a resume.
        let content = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = content.lines().take(8).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
        let required = opts(&path, ResumeMode::ResumeRequired);
        let (got, resumed) = run_tens(&journaled(&items, &order, &required, &[], 3)).unwrap();
        assert_eq!(resumed.stats.replayed, 7);
        assert_eq!(resumed.stats.executed, 5);
        assert_eq!(got, expect, "resumed records must be bit-identical");

        // A third run replays everything.
        let either = opts(&path, ResumeMode::ResumeOrStart);
        let (got, noop) = run_tens(&journaled(&items, &order, &either, &[], 3)).unwrap();
        assert_eq!(noop.stats.executed, 0);
        assert_eq!(noop.stats.replayed, 12);
        assert_eq!(got, expect);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn meta_roundtrips_and_verifies_on_resume() {
        let path = tmp("meta.journal");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..6).collect();
        let order = identity(6);
        let meta = vec![("class-table".to_string(), "fnv=00ddc0ffee".to_string())];
        let fresh = opts(&path, ResumeMode::Fresh);
        let (a, _) = run_tens(&journaled(&items, &order, &fresh, &meta, 2)).unwrap();
        let required = opts(&path, ResumeMode::ResumeRequired);
        let (b, resumed) = run_tens(&journaled(&items, &order, &required, &meta, 2)).unwrap();
        assert_eq!(resumed.stats.executed, 0);
        assert_eq!(resumed.stats.replayed, 6);
        assert_eq!(a, b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_meta_refuses_resume_naming_both_digests() {
        let path = tmp("meta-mismatch.journal");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..4).collect();
        let order = identity(4);
        let run = |mode, payload: &str| {
            let meta = vec![("class-table".to_string(), payload.to_string())];
            let o = opts(&path, mode);
            run_tens(&journaled(&items, &order, &o, &meta, 1)).map(|_| ())
        };
        run(ResumeMode::Fresh, "fnv=1111111111111111").unwrap();
        match run(ResumeMode::ResumeRequired, "fnv=2222222222222222") {
            Err(JournalError::MetaMismatch {
                key,
                expected,
                found,
                ..
            }) => {
                assert_eq!(key, "class-table");
                assert_eq!(expected, "fnv=2222222222222222");
                assert_eq!(found.as_deref(), Some("fnv=1111111111111111"));
            }
            other => panic!("expected MetaMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fuzzed_meta_line_damage_never_resumes_silently() {
        // Fuzz-style: damage the class-table `M` line many different ways
        // (byte flips at every position, truncations at every length).
        // Every damaged journal must either (a) replay the meta intact
        // (damage hit only later lines) or (b) refuse the resume with the
        // key and both payloads named — never silently resume with a
        // different class table.
        let items: Vec<u64> = (0..5).collect();
        let order = identity(5);
        let meta = vec![(
            "class-table".to_string(),
            "fnv=deadbeef01234567".to_string(),
        )];
        let path = tmp("meta-fuzz.journal");
        let _ = std::fs::remove_file(&path);
        let run = |mode| {
            let o = opts(&path, mode);
            run_tens(&journaled(&items, &order, &o, &meta, 1)).map(|_| ())
        };
        run(ResumeMode::Fresh).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let text = String::from_utf8(pristine.clone()).unwrap();
        let header_len = text.find('\n').unwrap() + 1;
        let meta_len = text[header_len..].find('\n').unwrap() + 1;

        let mut cases = 0;
        // Byte flips across the M line (excluding its newline).
        for off in 0..meta_len - 1 {
            let mut bytes = pristine.clone();
            bytes[header_len + off] ^= 0x01;
            // Keep the damage on one line: never flip into '\n' or '|',
            // which would change the line structure rather than its
            // content (those are covered by the truncation cases).
            if bytes[header_len + off] == b'\n' || bytes[header_len + off] == b'|' {
                continue;
            }
            std::fs::write(&path, &bytes).unwrap();
            match run(ResumeMode::ResumeRequired) {
                Err(JournalError::MetaMismatch { key, found, .. }) => {
                    assert_eq!(key, "class-table");
                    assert_ne!(found.as_deref(), Some("fnv=deadbeef01234567"));
                }
                Err(other) => panic!("flip at {off}: unexpected error {other}"),
                Ok(()) => panic!("flip at {off}: damaged meta resumed silently"),
            }
            cases += 1;
        }
        // Truncations mid-M-line (torn write of the meta record).
        for keep in 1..meta_len - 1 {
            let mut bytes = pristine.clone();
            bytes.truncate(header_len + keep);
            std::fs::write(&path, &bytes).unwrap();
            match run(ResumeMode::ResumeRequired) {
                Err(JournalError::MetaMismatch { key, found, .. }) => {
                    assert_eq!(key, "class-table");
                    assert!(
                        found.is_none(),
                        "keep={keep}: truncated meta must be absent, got {found:?}"
                    );
                }
                Err(other) => panic!("keep={keep}: unexpected error {other}"),
                Ok(()) => panic!("keep={keep}: truncated meta resumed silently"),
            }
            cases += 1;
        }
        assert!(cases > 20, "fuzz loop must exercise many damage shapes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journaled_campaign_journals_quarantines() {
        let path = tmp("quarantine.journal");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..8).collect();
        let order = identity(8);
        let fresh = JournalOpts {
            policy: RunPolicy { max_retries: 1 },
            ..opts(&path, ResumeMode::Fresh)
        };
        let mut folded = 0;
        let out = journaled(&items, &order, &fresh, &[], 2)
            .run(
                stream_opts(),
                None,
                |i, &x| {
                    assert!(i != 5, "site 5 is poisoned");
                    x.to_string()
                },
                |_| true,
                |_, _| folded += 1,
            )
            .unwrap();
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].index, 5);
        assert_eq!(out.quarantined[0].attempts, 2);
        assert_eq!(folded, 7);

        // Resume replays the quarantine marker instead of re-running the
        // poison site: the campaign still completes with zero executions.
        let required = opts(&path, ResumeMode::ResumeRequired);
        let (_, resumed) = run_tens(&journaled(&items, &order, &required, &[], 2)).unwrap();
        assert_eq!(resumed.stats.executed, 0);
        assert_eq!(resumed.stats.quarantined, 1);
        let _ = std::fs::remove_file(&path);
    }
}
