//! Work-stealing campaign scheduler.
//!
//! Every injection campaign in the workspace has the same shape: a
//! pre-drawn list of fault sites, one expensive independent simulation
//! per site, and a determinism requirement — the same seed must produce
//! the same records at any thread count. The static-chunk pattern the
//! campaigns used to carry (split the sites into `threads` equal slices)
//! satisfies determinism but load-balances badly: faulty-run lifetimes
//! vary by orders of magnitude (a masked fault can exit after a few
//! thousand cycles, a hang burns the whole watchdog budget), so one
//! unlucky chunk routinely serialises the campaign.
//!
//! `drive_ordered_resilient` replaces the chunks with an
//! atomic-counter work queue: each worker repeatedly claims the next
//! unclaimed site and runs it, so no worker idles while work remains.
//! Sites are *claimed* in a caller-given order — campaigns sort their
//! fault sites by injection cycle, so neighbouring claims restore from
//! the same warm checkpoint (see `vulnstack-microarch::snapshot`) — but
//! every outcome is handed back with its input index, so the record set
//! is identical to a sequential run regardless of thread count or claim
//! order: determinism is preserved by construction, not by scheduling.
//!
//! The drive also puts **fault domains** around the fault injector
//! itself: each site runs under `catch_unwind` with bounded retry, a
//! panicking site degrades to a [`Quarantine`] record
//! instead of killing the campaign, and a worker whose claim loop dies
//! outside the per-site isolation is respawned so the queue always
//! drains. The campaign executor (`crate::campaign`) is its only
//! caller.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::trace::CampaignMetrics;

/// What an admission gate tells a worker that is about to claim a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the site (the gate granted an execution slot).
    Run,
    /// Stop claiming: the campaign was cancelled or the pool is shutting
    /// down. Sites already in flight finish; unclaimed sites stay
    /// unclaimed (a journaled campaign resumes them later).
    Stop,
}

/// Admission control for shared-pool scheduling (see [`crate::fair`]).
///
/// When a campaign runs inside a multi-tenant daemon, its workers must
/// not monopolise the machine: before each site claim the worker calls
/// [`ClaimGate::admit`], which may **block** until the fair scheduler
/// grants one of the shared execution slots, and calls
/// [`ClaimGate::release`] once the site settles (panic included — the
/// drive holds the slot in a drop guard). A gate that returns
/// [`Admission::Stop`] ends the worker's claim loop early, which is how
/// campaign cancellation reaches the scheduler.
pub trait ClaimGate: Sync {
    /// Blocks until the gate grants a slot (`Run`) or tells the worker
    /// to stop claiming (`Stop`).
    fn admit(&self) -> Admission;
    /// Returns the slot taken by the last successful [`ClaimGate::admit`].
    fn release(&self);
}

/// Releases a gate slot when dropped, so a panicking site (or outcome
/// hook) can never leak an execution slot out of the shared pool.
struct SlotGuard<'a>(&'a dyn ClaimGate);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// How many times a panicking site is re-run before it is quarantined:
/// three attempts in all, which shakes out scheduling-dependent flakes
/// without letting a deterministic poison site burn unbounded time.
pub(crate) const MAX_RETRIES: u32 = 2;

/// Why a fault site produced no result: every attempt panicked (or the
/// site was lost to a worker failure outside the per-site isolation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Input index of the poisoned site.
    pub index: usize,
    /// Attempts made (`1 + retries`); `0` if the site was claimed but
    /// lost to a worker failure before isolation could classify it.
    pub attempts: u32,
    /// The panic payload of the last attempt, if it was a string.
    pub message: String,
}

/// Outcome of one fault site under panic isolation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SiteResult<R> {
    /// The site ran to completion.
    Done(R),
    /// Every attempt panicked; the campaign carried on without it.
    Quarantined(Quarantine),
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Accounting from [`drive_ordered_resilient`]: what happened to the
/// queue, with no per-site results (those went through `on_outcome`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct DriveStats {
    /// Worker claim loops that died outside the per-site isolation and
    /// were respawned.
    pub respawns: u64,
    /// Input indices of sites that were claimed but never settled
    /// (claimed by a worker that died outside the site isolation before
    /// `on_outcome` finished), in ascending order. The caller decides
    /// their fate — the resume layer surfaces them as zero-attempt
    /// quarantines and re-runs them next time.
    pub lost: Vec<usize>,
    /// Input indices of sites never claimed because the admission gate
    /// returned [`Admission::Stop`] (campaign cancelled or pool shut
    /// down), in ascending order. Distinct from `lost`: nothing went
    /// wrong with these sites — a journaled campaign simply resumes
    /// them on the next run.
    pub unclaimed: Vec<usize>,
    /// Whether any worker observed [`Admission::Stop`] — i.e. the drive
    /// ended early rather than draining the queue.
    pub stopped: bool,
}

/// Runs the sites `order` names, claiming them in that order on
/// `threads` workers, under per-site panic isolation with bounded
/// retry, and hands each settled [`SiteResult`] to `on_outcome` **by
/// value** together with its index into `items`, keeping nothing. This
/// is the streaming substrate — `on_outcome` pushes into a bounded
/// [`crate::sink::SinkHandle`] and per-site memory stays O(workers)
/// regardless of campaign size. Sites `order` leaves out do not run (a
/// resumed campaign passes only the sites its journal lacks).
///
/// A site that panics on every attempt (`1 + MAX_RETRIES`)
/// settles as [`SiteResult::Quarantined`]; a worker whose claim loop
/// dies *outside* the site isolation (e.g. a panicking `on_outcome`) is
/// respawned, and the site it held is reported in [`DriveStats::lost`]
/// rather than silently dropped. With `metrics`, every settled site is
/// recorded as one timeline span of the worker that ran it.
///
/// # Panics
///
/// Panics before any site runs if `order` holds a duplicate or an
/// out-of-range index.
pub(crate) fn drive_ordered_resilient<T, R, F, C>(
    items: &[T],
    order: &[usize],
    threads: usize,
    f: F,
    on_outcome: C,
    metrics: Option<&CampaignMetrics>,
    gate: Option<&dyn ClaimGate>,
) -> DriveStats
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    C: Fn(usize, SiteResult<R>) + Sync,
{
    assert_distinct_in_range(order, items.len());
    let threads = threads.clamp(1, order.len().max(1));
    let settled: Vec<AtomicBool> = (0..items.len()).map(|_| AtomicBool::new(false)).collect();
    let claimed: Vec<AtomicBool> = (0..items.len()).map(|_| AtomicBool::new(false)).collect();
    let respawns = AtomicU64::new(0);
    let stopped = AtomicBool::new(false);
    let run_one = |worker: usize, i: usize| {
        let start = metrics.map(|m| m.now_us());
        let mut attempts = 0u32;
        let outcome = loop {
            attempts += 1;
            match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                Ok(r) => break SiteResult::Done(r),
                Err(payload) => {
                    if attempts > MAX_RETRIES {
                        break SiteResult::Quarantined(Quarantine {
                            index: i,
                            attempts,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                }
            }
        };
        if let (Some(m), Some(s)) = (metrics, start) {
            m.record_span(worker, i, s, m.now_us());
        }
        on_outcome(i, outcome);
        settled[i].store(true, Ordering::Relaxed);
    };
    // The claim loop shared by the sequential and threaded paths: admit
    // through the gate (blocking for a fair-pool slot), claim the next
    // index, run it while holding the slot in a drop guard so a panic
    // anywhere in `run_one` still releases it.
    let claim_loop = |worker: usize, next: &AtomicUsize| loop {
        // Cheap peek before the (possibly blocking) admission: never
        // wait for a slot when the queue has already drained.
        if next.load(Ordering::Relaxed) >= order.len() {
            break;
        }
        let guard = match gate {
            Some(g) => match g.admit() {
                Admission::Run => Some(SlotGuard(g)),
                Admission::Stop => {
                    stopped.store(true, Ordering::Relaxed);
                    break;
                }
            },
            None => None,
        };
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= order.len() {
            drop(guard);
            break;
        }
        claimed[order[k]].store(true, Ordering::Relaxed);
        run_one(worker, order[k]);
        drop(guard);
    };
    if threads == 1 {
        let next = AtomicUsize::new(0);
        claim_loop(0, &next);
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for worker in 0..threads {
                let (claim_loop, next, respawns) = (&claim_loop, &next, &respawns);
                s.spawn(move || loop {
                    // Supervisor: if the claim loop unwinds outside the
                    // per-site isolation, count a respawn and re-enter it.
                    // Progress is guaranteed — every claim advances the
                    // shared counter, so at most `order.len()` claims ever
                    // happen across all workers and respawns.
                    let alive = catch_unwind(AssertUnwindSafe(|| claim_loop(worker, next)));
                    match alive {
                        Ok(()) => break,
                        Err(_) => {
                            respawns.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
    }
    let mut lost = Vec::new();
    let mut unclaimed = Vec::new();
    for &i in order {
        if settled[i].load(Ordering::Relaxed) {
            continue;
        }
        if claimed[i].load(Ordering::Relaxed) {
            lost.push(i);
        } else {
            unclaimed.push(i);
        }
    }
    lost.sort_unstable();
    unclaimed.sort_unstable();
    DriveStats {
        respawns: respawns.load(Ordering::Relaxed),
        lost,
        unclaimed,
        stopped: stopped.load(Ordering::Relaxed),
    }
}

/// Panics with a precise message unless `order` holds distinct indices
/// below `n` — checked up front so a bad order fails before any work
/// runs.
pub(crate) fn assert_distinct_in_range(order: &[usize], n: usize) {
    let mut seen = vec![false; n];
    for &i in order {
        assert!(i < n, "order contains out-of-range index {i} (len {n})");
        assert!(!seen[i], "order contains duplicate index {i}");
        seen[i] = true;
    }
}

/// Sorting permutation of `items` under a key projection: the claim
/// order campaigns build from their sites' injection cycles, so that
/// consecutive claims share checkpoint locality.
pub fn sort_order_by<T, K: Ord, F: Fn(&T) -> K>(items: &[T], key: F) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| key(&items[i]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Drives `items` in input order with no gate or metrics, collecting
    /// every outcome by index.
    fn drive_all<F, C>(
        items: &[u64],
        threads: usize,
        f: F,
        hook: C,
    ) -> (Vec<Option<SiteResult<u64>>>, DriveStats)
    where
        F: Fn(usize, &u64) -> u64 + Sync,
        C: Fn(usize) + Sync,
    {
        let order: Vec<usize> = (0..items.len()).collect();
        let slots: Vec<Mutex<Option<SiteResult<u64>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let stats = drive_ordered_resilient(
            items,
            &order,
            threads,
            f,
            |i, outcome| {
                hook(i);
                *slots[i].lock().unwrap() = Some(outcome);
            },
            None,
            None,
        );
        let out = slots.into_iter().map(|m| m.into_inner().unwrap()).collect();
        (out, stats)
    }

    #[test]
    fn panicking_site_is_quarantined_and_campaign_completes() {
        let items: Vec<u64> = (0..20).collect();
        let attempts_on_7 = AtomicUsize::new(0);
        let (out, stats) = drive_all(
            &items,
            4,
            |i, &x| {
                if i == 7 {
                    attempts_on_7.fetch_add(1, Ordering::Relaxed);
                    panic!("poison site {i}");
                }
                x + 1
            },
            |_| {},
        );
        assert_eq!(
            attempts_on_7.load(Ordering::Relaxed),
            3,
            "1 try + 2 retries"
        );
        match &out[7] {
            Some(SiteResult::Quarantined(q)) => {
                assert_eq!(q.index, 7);
                assert_eq!(q.attempts, 3);
                assert!(q.message.contains("poison site 7"), "{q:?}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        for (i, o) in out.iter().enumerate() {
            if i != 7 {
                assert_eq!(o, &Some(SiteResult::Done(i as u64 + 1)), "site {i}");
            }
        }
        assert!(stats.lost.is_empty() && stats.unclaimed.is_empty());
    }

    #[test]
    fn flaky_site_succeeds_within_retry_budget() {
        let items = [0u64; 9];
        let tries = AtomicUsize::new(0);
        let (out, _) = drive_all(
            &items,
            3,
            |i, _| {
                // Site 4 panics on its first two attempts, then succeeds.
                if i == 4 && tries.fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                i as u64
            },
            |_| {},
        );
        assert_eq!(out[4], Some(SiteResult::Done(4)));
        assert!(out.iter().all(|o| matches!(o, Some(SiteResult::Done(_)))));
    }

    #[test]
    fn worker_death_outside_site_isolation_respawns_and_loses_only_that_site() {
        let items: Vec<u64> = (0..30).collect();
        let fired = AtomicUsize::new(0);
        let (out, stats) = drive_all(
            &items,
            4,
            |_, &x| x,
            |i| {
                // A poisoned outcome hook escapes the per-site isolation
                // exactly once: the supervisor must respawn the worker's
                // claim loop and the campaign must still drain.
                if i == 11 && fired.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("hook failure");
                }
            },
        );
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.lost, vec![11]);
        assert!(out[11].is_none(), "the lost site never settled");
        for (i, o) in out.iter().enumerate() {
            if i != 11 {
                assert_eq!(o, &Some(SiteResult::Done(i as u64)), "site {i}");
            }
        }
    }

    #[test]
    fn a_subset_order_runs_only_the_sites_it_names() {
        let items: Vec<u64> = (0..10).collect();
        let ran = Mutex::new(Vec::new());
        let stats = drive_ordered_resilient(
            &items,
            &[7, 2, 5],
            2,
            |i, _| i,
            |i, _| ran.lock().unwrap().push(i),
            None,
            None,
        );
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, vec![2, 5, 7]);
        assert_eq!(stats, DriveStats::default());
    }

    /// A gate that admits the first `quota` claims, then stops — the
    /// deterministic stand-in for a cancelled fair-pool participant.
    struct QuotaGate {
        left: AtomicUsize,
        released: AtomicUsize,
    }

    impl QuotaGate {
        fn new(quota: usize) -> QuotaGate {
            QuotaGate {
                left: AtomicUsize::new(quota),
                released: AtomicUsize::new(0),
            }
        }
    }

    impl ClaimGate for QuotaGate {
        fn admit(&self) -> Admission {
            loop {
                let left = self.left.load(Ordering::SeqCst);
                if left == 0 {
                    return Admission::Stop;
                }
                if self
                    .left
                    .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    return Admission::Run;
                }
            }
        }

        fn release(&self) {
            self.released.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn gate_stop_ends_drive_with_unclaimed_sites_not_lost() {
        let items: Vec<u64> = (0..20).collect();
        let order: Vec<usize> = (0..20).collect();
        let gate = QuotaGate::new(7);
        let ran = AtomicUsize::new(0);
        for threads in [1, 4] {
            gate.left.store(7, Ordering::SeqCst);
            gate.released.store(0, Ordering::SeqCst);
            ran.store(0, Ordering::SeqCst);
            let stats = drive_ordered_resilient(
                &items,
                &order,
                threads,
                |_, &x| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    x
                },
                |_, _| {},
                None,
                Some(&gate),
            );
            assert!(stats.stopped, "threads={threads}: drive must report stop");
            assert_eq!(ran.load(Ordering::SeqCst), 7, "threads={threads}");
            assert_eq!(stats.unclaimed.len(), 13, "threads={threads}");
            assert!(
                stats.lost.is_empty(),
                "threads={threads}: gate-stopped sites are not failures"
            );
            // Every admitted slot was released — none leaked.
            assert_eq!(gate.released.load(Ordering::SeqCst), 7, "threads={threads}");
        }
    }

    #[test]
    fn gate_slot_released_even_when_site_panics() {
        let items: Vec<u64> = (0..6).collect();
        let order: Vec<usize> = (0..6).collect();
        let gate = QuotaGate::new(usize::MAX);
        let stats = drive_ordered_resilient(
            &items,
            &order,
            2,
            |_, &x| {
                assert!(x != 3, "site 3 always panics");
                x
            },
            |_, _| {},
            None,
            Some(&gate),
        );
        assert!(!stats.stopped);
        assert!(stats.lost.is_empty() && stats.unclaimed.is_empty());
        // 6 sites, one of which retried twice under the same slot: each
        // claim released exactly one slot.
        assert_eq!(gate.released.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn permissive_gate_is_equivalent_to_no_gate() {
        let items: Vec<u64> = (0..30).collect();
        let order: Vec<usize> = (0..30).collect();
        let gate = QuotaGate::new(usize::MAX);
        let sum = AtomicUsize::new(0);
        let stats = drive_ordered_resilient(
            &items,
            &order,
            3,
            |_, &x| x * 2,
            |_, o| {
                if let SiteResult::Done(v) = o {
                    sum.fetch_add(v as usize, Ordering::SeqCst);
                }
            },
            None,
            Some(&gate),
        );
        assert!(!stats.stopped);
        assert!(stats.lost.is_empty() && stats.unclaimed.is_empty());
        assert_eq!(sum.load(Ordering::SeqCst), (0..30).map(|x| x * 2).sum());
    }
}
