//! Ablation: wall-clock speedup of equivalence-class fault-site pruning
//! over the full sampled campaign, on the representative configuration
//! (Qsort/A72/RegisterFile, n = 200 by default). Both passes draw the
//! *same* fault sites from the same seed and simulate through the same
//! injection runner, whose early exits (extinction, golden-state
//! convergence, proven hangs) serve both; the pruned pass additionally
//! classifies dead-interval sites without simulating them and memoises
//! one pilot run per live equivalence class, so the ratio isolates the
//! class table and the memo. The speedup is only meaningful because the
//! records are asserted bit-identical here (and, independently, by
//! `tests/prune_equivalence.rs` in CI) — pruning is a pure optimisation,
//! never an approximation.
//!
//! With `VULNSTACK_REQUIRE_SPEEDUP` set (CI does), a speedup below 2x
//! fails the run.

use vulnstack_bench::speedup::Ablation;
use vulnstack_core::json::{self, fixed};
use vulnstack_gefin::InjectionPlan;

fn main() {
    let ab = Ablation::prepare(
        "pruning_speedup",
        "Ablation — equivalence-class pruning vs full campaign",
        "prune",
    );
    let (n, seed) = (ab.n, ab.seed);

    let (full, _) = ab.avf_pass("full", &InjectionPlan::Sampled { n, seed }, None);
    // The pruned pass carries the metrics collector (pruned-dead and
    // early-termination counters land in the report). The ablation
    // prepares with plain `Prepared::new`, which records no class table,
    // so the pruned pass's timing includes building one — `Pruner::new`
    // re-runs the golden pass under the observer — and the speedup is
    // the honest end-to-end figure.
    let metrics = ab.metrics("pruned");
    let (pruned, stats) = ab.avf_pass("pruned", &InjectionPlan::Pruned { n, seed }, Some(&metrics));
    let stats = stats.expect("pruned plan reports stats");
    let live_fraction = stats.dynamic_rf_live_fraction.unwrap_or(1.0);

    let speedup = ab.compare("campaign", &full, &pruned);
    println!(
        "{} sites: {} dead-classified, {} pilot runs covering {} memoised \
         members, {} singletons, {} early-terminated, {} proven hangs; \
         dynamic RF live fraction {live_fraction:.4}.",
        stats.sites,
        stats.dead_masked,
        stats.pilot_runs,
        stats.memo_hits,
        stats.singleton_runs,
        stats.early_terminated,
        stats.runaway_terminated,
    );
    println!(
        "AVF identical under both plans: {:.3} over {n} injections.",
        pruned.tally.vf().total(),
    );

    let fields = vec![
        ("prep_secs", fixed(ab.prep_secs, 4)),
        ("full_secs", fixed(full.secs, 4)),
        ("pruned_secs", fixed(pruned.secs, 4)),
        ("speedup", fixed(speedup, 3)),
        ("dead_masked", json::n(stats.dead_masked)),
        ("pilot_runs", json::n(stats.pilot_runs)),
        ("memo_hits", json::n(stats.memo_hits)),
        ("singleton_runs", json::n(stats.singleton_runs)),
        ("early_terminated", json::n(stats.early_terminated)),
        ("runaway_terminated", json::n(stats.runaway_terminated)),
        ("dynamic_rf_live_fraction", fixed(live_fraction, 6)),
    ];
    ab.finish(fields, &metrics, |r| {
        format!(
            "pruned-dead {} | early-terminated {}",
            r.pruned_dead, r.early_terminated
        )
    });

    if std::env::var_os("VULNSTACK_REQUIRE_SPEEDUP").is_some() && speedup < 2.0 {
        eprintln!(
            "error: pruning speedup {speedup:.2}x is below the required 2.00x \
             (VULNSTACK_REQUIRE_SPEEDUP is set)"
        );
        std::process::exit(1);
    }
}
