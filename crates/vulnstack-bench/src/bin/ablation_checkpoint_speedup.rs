//! Ablation: wall-clock speedup of the checkpoint-and-restore injection
//! engine over from-scratch prefix re-simulation, on a representative
//! campaign (Qsort/A72/RegisterFile, n = 200 by default). Verifies along
//! the way that both engines produce identical per-injection records
//! (the determinism contract), then writes a JSON speedup record under
//! `results/` so the bench trajectory (`BENCH_*.json`) accumulates.

use std::time::Instant;

use vulnstack_bench::{avf_records, figure_header, master_seed, prepare_or_die, sub_seed};
use vulnstack_core::report::Table;
use vulnstack_core::sched::sort_order_by;
use vulnstack_core::trace::CampaignMetrics;
use vulnstack_core::{Campaign, StreamOpts, Tally};
use vulnstack_gefin::avf::run_one_with;
use vulnstack_gefin::{
    decode_record, default_faults, default_threads, draw_sites, encode_record, InjectEngine,
    InjectionPlan, InjectionRecord,
};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::CoreModel;
use vulnstack_workloads::WorkloadId;

fn main() {
    let n = default_faults(200);
    let threads = default_threads();
    let master = master_seed();
    figure_header(
        "Ablation — checkpointed vs from-scratch injection engine",
        n,
    );

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

    let seed = sub_seed(master, &[id.name(), model.name(), structure.name(), "ckpt"]);
    // The from-scratch reference re-simulates every fault-free prefix
    // from cycle 0: the same sampled sites, run by the campaign executor
    // with a per-site runner of its own.
    let scratch_t = Instant::now();
    let sites = draw_sites(&prep, structure, n, seed);
    let order = sort_order_by(&sites, |&(c, _)| c);
    let mut scratch: Vec<(u64, InjectionRecord)> = Vec::new();
    Campaign {
        items: &sites,
        order: &order,
        threads,
        journal: None,
    }
    .run(
        StreamOpts::from_env(),
        None,
        |_, &(c, b)| {
            encode_record(&run_one_with(
                &prep,
                structure,
                c,
                b,
                InjectEngine::FromScratch,
            ))
        },
        |p| decode_record(p).is_some(),
        |i, p| scratch.push((i, decode_record(p).expect("engine-encoded record"))),
    )
    .expect("an unjournaled campaign does no I/O");
    let scratch_secs = scratch_t.elapsed().as_secs_f64();
    scratch.sort_by_key(|&(i, _)| i);
    let scratch: Vec<InjectionRecord> = scratch.into_iter().map(|(_, r)| r).collect();
    let scratch_tally: Tally = scratch.iter().map(|r| r.effect).collect();
    // The checkpointed pass carries the campaign-metrics collector:
    // per-worker spans, restore-distance histogram, extinct-early and
    // watchdog counters. Metrics never change the records (asserted below
    // against the unmetered from-scratch pass).
    let metrics = CampaignMetrics::new(&format!(
        "{id}/{model}/{} checkpointed n={n}",
        structure.name()
    ));
    let ckpt_t = Instant::now();
    let (ckpt, _, ckpt_records) = avf_records(
        &prep,
        structure,
        &InjectionPlan::Sampled { n, seed },
        Some(&metrics),
    );
    let ckpt_secs = ckpt_t.elapsed().as_secs_f64();

    assert_eq!(
        scratch, ckpt_records,
        "engines must produce bit-identical per-injection records"
    );
    assert_eq!(scratch_tally, ckpt.tally);

    let speedup = scratch_secs / ckpt_secs.max(1e-9);
    let mut t = Table::new(&["engine", "seconds", "inj/s", "speedup"]);
    t.row(&[
        "from-scratch".to_string(),
        format!("{scratch_secs:.3}"),
        format!("{:.1}", n as f64 / scratch_secs),
        "1.00x".to_string(),
    ]);
    t.row(&[
        "checkpointed".to_string(),
        format!("{ckpt_secs:.3}"),
        format!("{:.1}", n as f64 / ckpt_secs),
        format!("{speedup:.2}x"),
    ]);
    println!("{}", t.render());
    println!(
        "AVF identical under both engines: {:.3} over {} injections.",
        ckpt.avf().total(),
        n
    );

    let json = format!(
        "{{\"bench\":\"checkpoint_speedup\",\"workload\":\"{}\",\"model\":\"{}\",\
         \"structure\":\"{}\",\"n\":{},\"threads\":{},\"golden_cycles\":{},\
         \"checkpoints\":{},\"interval\":{},\"prep_secs\":{:.4},\
         \"scratch_secs\":{:.4},\"ckpt_secs\":{:.4},\"speedup\":{:.3},\
         \"records_identical\":true}}\n",
        id.name(),
        model.name(),
        structure.name(),
        n,
        threads,
        prep.golden.cycles,
        prep.checkpoints.len(),
        prep.checkpoints.interval(),
        prep_secs,
        scratch_secs,
        ckpt_secs,
        speedup,
    );
    let path = "results/BENCH_checkpoint_speedup.json";
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| vulnstack_core::report::write_atomic(path, json.as_bytes()))
    {
        // A missing bench artifact must fail the run (CI checks the file
        // exists and is non-empty), not just warn.
        eprintln!("error: could not write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("  wrote {path}");

    let report = metrics.report();
    println!(
        "campaign metrics: {:.1} inj/s over {} workers | extinct-early {:.0}% | \
         watchdog expiries {} | mean restore distance {:.0} cycles",
        report.throughput(),
        report.per_worker.len(),
        report.extinct_rate() * 100.0,
        report.watchdog_expiries,
        report.mean_restore_distance(),
    );
    match report.write_files("results", "checkpoint_speedup") {
        Ok((mp, tp)) => eprintln!("  wrote {mp} and {tp} (open in chrome://tracing or Perfetto)"),
        Err(e) => eprintln!("  (could not write metrics files: {e})"),
    }
}
