//! Ablation: wall-clock speedup of equivalence-class fault-site pruning
//! over the full sampled campaign, on the representative configuration
//! (Qsort/A72/RegisterFile, n = 200 by default). Both passes draw the
//! *same* fault sites from the same seed; the pruned pass classifies
//! dead-interval sites without simulating them, memoises one pilot run
//! per live equivalence class, and early-terminates runs whose state
//! re-converges with a golden checkpoint. The claimed speedup is only
//! meaningful because the records are asserted bit-identical here (and,
//! independently, by `tests/prune_equivalence.rs` in CI) — pruning is a
//! pure optimisation, never an approximation.
//!
//! With `VULNSTACK_REQUIRE_SPEEDUP` set (CI does), a speedup below 2x
//! fails the run.

use std::time::Instant;

use vulnstack_bench::{avf_records, figure_header, master_seed, prepare_or_die, sub_seed};
use vulnstack_core::report::Table;
use vulnstack_core::trace::CampaignMetrics;
use vulnstack_gefin::{default_faults, default_threads, InjectionPlan};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::CoreModel;
use vulnstack_workloads::WorkloadId;

fn main() {
    let n = default_faults(200);
    let threads = default_threads();
    let master = master_seed();
    figure_header("Ablation — equivalence-class pruning vs full campaign", n);

    let id = WorkloadId::Qsort;
    let model = CoreModel::A72;
    let structure = HwStructure::RegisterFile;
    let w = id.build();

    let prep_start = Instant::now();
    let prep = prepare_or_die(&w, model);
    let prep_secs = prep_start.elapsed().as_secs_f64();
    eprintln!(
        "  [{id}/{model}] golden = {} cycles, {} checkpoints every {} cycles \
         (prepared in {prep_secs:.2}s)",
        prep.golden.cycles,
        prep.checkpoints.len(),
        prep.checkpoints.interval(),
    );

    let seed = sub_seed(
        master,
        &[id.name(), model.name(), structure.name(), "prune"],
    );

    let full_t = Instant::now();
    let (full, _, full_records) =
        avf_records(&prep, structure, &InjectionPlan::Sampled { n, seed }, None);
    let full_secs = full_t.elapsed().as_secs_f64();

    // The pruned pass carries the metrics collector (pruned-dead and
    // early-termination counters land in the report). Its timing
    // includes building the class table — one instrumented golden run —
    // so the speedup is the honest end-to-end figure.
    let metrics = CampaignMetrics::new(&format!("{id}/{model}/{} pruned n={n}", structure.name()));
    let pruned_t = Instant::now();
    let (pruned, stats, pruned_records) = avf_records(
        &prep,
        structure,
        &InjectionPlan::Pruned { n, seed },
        Some(&metrics),
    );
    let pruned_secs = pruned_t.elapsed().as_secs_f64();
    let stats = stats.expect("pruned plan reports stats");
    let live_fraction = stats.dynamic_rf_live_fraction.unwrap_or(1.0);

    assert_eq!(
        full_records, pruned_records,
        "pruned campaign must produce bit-identical per-injection records"
    );
    assert_eq!(full.tally, pruned.tally);

    let speedup = full_secs / pruned_secs.max(1e-9);
    let mut t = Table::new(&["campaign", "seconds", "inj/s", "speedup"]);
    t.row(&[
        "full".to_string(),
        format!("{full_secs:.3}"),
        format!("{:.1}", n as f64 / full_secs),
        "1.00x".to_string(),
    ]);
    t.row(&[
        "pruned".to_string(),
        format!("{pruned_secs:.3}"),
        format!("{:.1}", n as f64 / pruned_secs),
        format!("{speedup:.2}x"),
    ]);
    println!("{}", t.render());
    println!(
        "{} sites: {} dead-classified, {} pilot runs covering {} memoised \
         members, {} singletons, {} early-terminated, {} proven hangs; \
         dynamic RF live fraction {:.4}.",
        stats.sites,
        stats.dead_masked,
        stats.pilot_runs,
        stats.memo_hits,
        stats.singleton_runs,
        stats.early_terminated,
        stats.runaway_terminated,
        live_fraction,
    );
    println!(
        "AVF identical under both plans: {:.3} over {} injections.",
        pruned.avf().total(),
        n
    );

    let json = format!(
        "{{\"bench\":\"pruning_speedup\",\"workload\":\"{}\",\"model\":\"{}\",\
         \"structure\":\"{}\",\"n\":{},\"threads\":{},\"golden_cycles\":{},\
         \"prep_secs\":{:.4},\"full_secs\":{:.4},\"pruned_secs\":{:.4},\
         \"speedup\":{:.3},\"dead_masked\":{},\"pilot_runs\":{},\
         \"memo_hits\":{},\"singleton_runs\":{},\"early_terminated\":{},\
         \"runaway_terminated\":{},\
         \"dynamic_rf_live_fraction\":{:.6},\"records_identical\":true}}\n",
        id.name(),
        model.name(),
        structure.name(),
        n,
        threads,
        prep.golden.cycles,
        prep_secs,
        full_secs,
        pruned_secs,
        speedup,
        stats.dead_masked,
        stats.pilot_runs,
        stats.memo_hits,
        stats.singleton_runs,
        stats.early_terminated,
        stats.runaway_terminated,
        live_fraction,
    );
    let path = "results/BENCH_pruning_speedup.json";
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| vulnstack_core::report::write_atomic(path, json.as_bytes()))
    {
        eprintln!("error: could not write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("  wrote {path}");

    let report = metrics.report();
    println!(
        "campaign metrics: {:.1} inj/s over {} workers | pruned-dead {} | \
         early-terminated {}",
        report.throughput(),
        report.per_worker.len(),
        report.pruned_dead,
        report.early_terminated,
    );
    match report.write_files("results", "pruning_speedup") {
        Ok((mp, tp)) => eprintln!("  wrote {mp} and {tp} (open in chrome://tracing or Perfetto)"),
        Err(e) => eprintln!("  (could not write metrics files: {e})"),
    }

    if std::env::var_os("VULNSTACK_REQUIRE_SPEEDUP").is_some() && speedup < 2.0 {
        eprintln!(
            "error: pruning speedup {speedup:.2}x is below the required 2.00x \
             (VULNSTACK_REQUIRE_SPEEDUP is set)"
        );
        std::process::exit(1);
    }
}
