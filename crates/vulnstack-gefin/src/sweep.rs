//! Temporal vulnerability sweeps: AVF as a function of *when* in the
//! execution the fault strikes.
//!
//! The paper's case studies hinge on execution time (a 2–2.5× longer
//! hardened run exposes state for longer); this module makes the temporal
//! structure directly measurable by binning injections into fixed windows
//! of the golden run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vulnstack_core::effects::Tally;
use vulnstack_core::journal::{fnv1a64, Fingerprint, JournalError, JournalOpts};
use vulnstack_core::sched::{self, Quarantine};
use vulnstack_core::sink::StreamOpts;
use vulnstack_core::stack::FpmDist;
use vulnstack_core::trace::CampaignMetrics;
use vulnstack_core::{Campaign, CampaignJournal, ResumeStats};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::FaultModel;

use crate::avf::{decode_record, encode_record, run_one_inner, InjectEngine, RECORD_VERSION};
use crate::prepare::Prepared;
use crate::prune::{PruneStats, Pruner};

/// Per-window results of a temporal sweep.
#[derive(Debug, Clone)]
pub struct TemporalProfile {
    /// Target structure.
    pub structure: HwStructure,
    /// Window boundaries in cycles: window `i` covers
    /// `[bounds[i], bounds[i+1])`.
    pub bounds: Vec<u64>,
    /// Fault-effect tally per window.
    pub tallies: Vec<Tally>,
    /// FPM distribution per window.
    pub fpms: Vec<FpmDist>,
}

impl TemporalProfile {
    /// Total vulnerability per window.
    pub fn series(&self) -> Vec<f64> {
        self.tallies.iter().map(|t| t.vf().total()).collect()
    }
}

/// Draws the sweep's window bounds and fault sites — `(window, cycle,
/// bit)` triples, in window order from a single seeded stream, so the
/// sample set is independent of the thread count.
fn draw_windowed_sites(
    prep: &Prepared,
    structure: HwStructure,
    windows: usize,
    per_window: usize,
    seed: u64,
) -> (Vec<u64>, Vec<(usize, u64, u64)>) {
    assert!(windows >= 1);
    if windows as u64 > prep.golden.cycles {
        // Pigeonholing more windows than cycles forces duplicate bounds
        // and empty windows; say so instead of silently binning them.
        eprintln!(
            "warning: {windows} sweep windows over a {}-cycle run: some windows are degenerate",
            prep.golden.cycles
        );
    }
    let total = prep.golden.cycles.max(windows as u64);
    let bits = structure.bits(&prep.cfg);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E0A_11D5_11CE_0DD5);

    let bounds = window_bounds(total, windows);

    let sites: Vec<(usize, u64, u64)> = (0..windows)
        .flat_map(|w| {
            let (lo, hi) = (bounds[w], bounds[w + 1].max(bounds[w] + 1));
            (0..per_window)
                .map(|_| (w, rng.gen_range(lo..hi), rng.gen_range(0..bits)))
                .collect::<Vec<_>>()
        })
        .collect();
    (bounds, sites)
}

/// The sweep's `windows + 1` window boundaries over cycles `1..=total`:
/// window `i` covers `[bounds[i], bounds[i+1])`, evenly split. The
/// interpolation product is taken in `u128` — in `u64` the old
/// `(total - 1) * i` wrapped once `total > u64::MAX / windows`,
/// silently folding every boundary of a long campaign onto garbage
/// cycles near the run's start.
fn window_bounds(total: u64, windows: usize) -> Vec<u64> {
    assert!(windows >= 1 && total >= 1);
    (0..=windows)
        .map(|i| 1 + ((u128::from(total) - 1) * i as u128 / windows as u128) as u64)
        .collect()
}

/// Results of a temporal sweep: per-window tallies accumulated
/// record-by-record in the sink fold, never a collected record vector.
#[derive(Debug)]
pub struct TemporalStreamed {
    /// Per-window profile over the completed records.
    pub profile: TemporalProfile,
    /// Sites whose every injection attempt panicked.
    pub quarantined: Vec<Quarantine>,
    /// Replay/execute accounting (nothing replayed for unjournaled
    /// runs).
    pub stats: ResumeStats,
}

/// Runs a temporal sweep: `per_window` injections uniformly inside each
/// of `windows` equal slices of the golden execution, on `threads`
/// workers with work stealing — through the equivalence-class
/// [`Pruner`] when `pruned` (bit-identical records; the second return
/// value is its accounting). Deterministic for a given seed at any
/// thread count. Windowed sites are the checkpoint layer's best case:
/// every injection in a window restores from the same few golden
/// snapshots.
///
/// The per-window tallies are folded one record at a time as sites
/// settle — sites are drawn in window order, so a record's window is its
/// site index over `per_window` and is never journaled — so peak memory
/// is bounded by the sink channel regardless of `windows × per_window`.
/// A journaled pruned sweep adds `;plan=pruned` to its fingerprint and
/// journals its class-table digest as `class-table` metadata; a resume
/// whose rebuilt table disagrees is refused.
///
/// # Errors
///
/// Any [`JournalError`] (journaled runs).
#[allow(clippy::too_many_arguments)]
pub fn temporal_campaign(
    prep: &Prepared,
    structure: HwStructure,
    windows: usize,
    per_window: usize,
    seed: u64,
    threads: usize,
    pruned: bool,
    journal: Option<&JournalOpts<'_>>,
    stream: StreamOpts<'_>,
    metrics: Option<&CampaignMetrics>,
) -> Result<(TemporalStreamed, Option<PruneStats>), JournalError> {
    let (bounds, sites) = draw_windowed_sites(prep, structure, windows, per_window, seed);
    let order = sched::sort_order_by(&sites, |&(_, c, _)| c);
    let pruner = pruned.then(|| Pruner::new(prep, structure));
    let journal = journal.map(|opts| CampaignJournal {
        opts,
        fingerprint: Fingerprint {
            engine: "gefin-sweep".to_string(),
            workload: opts.workload.to_string(),
            config: prep.cfg.model.name().to_string(),
            structure: structure.name().to_string(),
            seed,
            samples: sites.len() as u64,
            params: format!(
                "windows={windows};per_window={per_window};golden_cycles={};output={:016x}{}",
                prep.golden.cycles,
                fnv1a64(&prep.expected_output),
                if pruned { ";plan=pruned" } else { "" },
            ),
            version: RECORD_VERSION,
        },
        meta: pruner
            .iter()
            .map(|p| {
                (
                    "class-table".to_string(),
                    format!("fnv={:016x}", p.table().digest()),
                )
            })
            .collect(),
    });

    let mut tallies = vec![Tally::default(); windows];
    let mut fpms = vec![FpmDist::new(); windows];
    let out = Campaign {
        items: &sites,
        order: &order,
        threads,
        journal,
    }
    .run(
        stream,
        metrics,
        |_, &(_, cycle, bit)| {
            encode_record(&match &pruner {
                Some(p) => p.run_site(cycle, bit, metrics),
                None => {
                    run_one_inner(
                        prep,
                        structure,
                        cycle,
                        bit,
                        FaultModel::BitFlip,
                        InjectEngine::Checkpointed,
                        None,
                        metrics,
                    )
                    .0
                }
            })
        },
        |p| decode_record(p).is_some(),
        |index, payload| {
            if let Some(rec) = decode_record(payload) {
                let w = (index as usize / per_window.max(1)).min(windows.saturating_sub(1));
                tallies[w].add(rec.effect);
                fpms[w].add(rec.fpm);
            }
        },
    )?;
    Ok((
        TemporalStreamed {
            profile: TemporalProfile {
                structure,
                bounds,
                tallies,
                fpms,
            },
            quarantined: out.quarantined,
            stats: out.stats,
        },
        pruner.map(|p| p.stats()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_microarch::CoreModel;
    use vulnstack_workloads::WorkloadId;

    #[test]
    fn window_bounds_do_not_overflow_near_u64_max() {
        // The old u64 interpolation wrapped for total > u64::MAX / i;
        // in u128 the bounds stay monotone and span the whole run.
        let b = window_bounds(u64::MAX, 7);
        assert_eq!(b.len(), 8);
        assert_eq!(b[0], 1);
        assert_eq!(*b.last().unwrap(), u64::MAX);
        assert!(b.windows(2).all(|w| w[0] < w[1]), "bounds {b:?}");
    }

    #[test]
    fn window_bounds_match_the_small_case_exactly() {
        // No behavior change where the old math never overflowed.
        for (total, windows) in [(1u64, 1usize), (100, 4), (97, 3), (5, 5)] {
            let b = window_bounds(total, windows);
            let old: Vec<u64> = (0..=windows)
                .map(|i| 1 + (total - 1) * i as u64 / windows as u64)
                .collect();
            assert_eq!(b, old, "total={total} windows={windows}");
        }
    }

    #[test]
    fn degenerate_window_counts_duplicate_but_stay_sorted() {
        // More windows than cycles: duplicates are unavoidable, but the
        // bounds must stay non-decreasing and in-range (the caller is
        // warned on stderr).
        let b = window_bounds(4, 10);
        assert_eq!(b.len(), 11);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        assert!(b.iter().all(|&c| (1..=4).contains(&c)));
        assert!(b.windows(2).any(|w| w[0] == w[1]), "expected duplicates");
    }

    fn sweep(
        prep: &Prepared,
        structure: HwStructure,
        windows: usize,
        per_window: usize,
        seed: u64,
        threads: usize,
    ) -> TemporalProfile {
        temporal_campaign(
            prep,
            structure,
            windows,
            per_window,
            seed,
            threads,
            false,
            None,
            StreamOpts::from_env(),
            None,
        )
        .unwrap()
        .0
        .profile
    }

    #[test]
    fn windows_partition_the_run() {
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A72).unwrap();
        let p = sweep(&prep, HwStructure::L1d, 4, 8, 3, 2);
        assert_eq!(p.bounds.len(), 5);
        assert!(p.bounds.windows(2).all(|b| b[0] < b[1]));
        assert_eq!(p.tallies.len(), 4);
        assert!(p.tallies.iter().all(|t| t.total() == 8));
        assert_eq!(p.series().len(), 4);
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A72).unwrap();
        let a = sweep(&prep, HwStructure::Lsq, 3, 6, 5, 1);
        let b = sweep(&prep, HwStructure::Lsq, 3, 6, 5, 4);
        assert_eq!(a.tallies, b.tallies);
        assert_eq!(a.bounds, b.bounds);
    }

    #[test]
    fn late_rf_faults_tend_to_mask() {
        // Near the end of the run most register values are dead; the last
        // window should not be *more* vulnerable than the whole-run
        // average by a large factor.
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A72).unwrap();
        let p = sweep(&prep, HwStructure::RegisterFile, 5, 20, 9, 4);
        let series = p.series();
        let avg: f64 = series.iter().sum::<f64>() / series.len() as f64;
        let last = *series.last().unwrap();
        assert!(last <= avg + 0.35, "last window {last:.2} vs avg {avg:.2}");
    }
}
