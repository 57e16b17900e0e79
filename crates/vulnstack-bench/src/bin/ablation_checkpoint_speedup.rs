//! Ablation: wall-clock speedup of the checkpoint-and-restore injection
//! engine over from-scratch prefix re-simulation, on a representative
//! campaign (Qsort/A72/RegisterFile, n = 200 by default). Verifies along
//! the way that both engines produce identical per-injection records
//! (the determinism contract), then writes a JSON speedup record under
//! `results/` so the bench trajectory (`BENCH_*.json`) accumulates.

use vulnstack_bench::speedup::{timed, Ablation, Pass, STRUCTURE};
use vulnstack_core::json::{self, fixed};
use vulnstack_core::sched::sort_order_by;
use vulnstack_core::{Campaign, Fingerprint, RunOpts};
use vulnstack_gefin::avf::run_one_with;
use vulnstack_gefin::{decode_record, draw_sites, encode_record, InjectionPlan, InjectionRecord};

fn main() {
    let ab = Ablation::prepare(
        "checkpoint_speedup",
        "Ablation — checkpointed vs from-scratch injection engine",
        "ckpt",
    );
    let (prep, n) = (&ab.prep, ab.n);

    // The from-scratch reference re-simulates every fault-free prefix
    // from cycle 0: the same sampled sites, run by the campaign executor
    // with a per-site runner of its own.
    let (mut scratch, secs) = timed(|| {
        let sites = draw_sites(prep, STRUCTURE, n, ab.seed);
        let order = sort_order_by(&sites, |&(c, _)| c);
        let mut scratch: Vec<(u64, InjectionRecord)> = Vec::new();
        Campaign {
            items: &sites,
            order: &order,
            fingerprint: Fingerprint::default(),
            meta: Vec::new(),
        }
        .run(
            &RunOpts::new(ab.threads),
            |_, &(c, b)| {
                encode_record(&run_one_with(
                    prep,
                    STRUCTURE,
                    c,
                    b,
                    prep.core_from_scratch(),
                ))
            },
            |p| decode_record(p).is_some(),
            |i, p| scratch.push((i, decode_record(p).expect("engine-encoded record"))),
        )
        .expect("an unjournaled campaign does no I/O");
        scratch
    });
    scratch.sort_by_key(|&(i, _)| i);
    let records: Vec<InjectionRecord> = scratch.into_iter().map(|(_, r)| r).collect();
    let scratch = Pass {
        label: "from-scratch",
        secs,
        tally: records.iter().map(|r| r.effect).collect(),
        records,
    };
    // The checkpointed pass carries the campaign-metrics collector:
    // per-worker spans, restore-distance histogram, extinct-early and
    // watchdog counters. Metrics never change the records (asserted
    // against the unmetered from-scratch pass).
    let metrics = ab.metrics("checkpointed");
    let plan = InjectionPlan::Sampled { n, seed: ab.seed };
    let (ckpt, _) = ab.avf_pass("checkpointed", &plan, Some(&metrics));

    let speedup = ab.compare("engine", &scratch, &ckpt);
    println!(
        "AVF identical under both engines: {:.3} over {n} injections.",
        ckpt.tally.vf().total(),
    );

    let fields = vec![
        ("checkpoints", json::n(prep.checkpoints.len() as u64)),
        ("interval", json::n(prep.checkpoints.interval())),
        ("prep_secs", fixed(ab.prep_secs, 4)),
        ("scratch_secs", fixed(scratch.secs, 4)),
        ("ckpt_secs", fixed(ckpt.secs, 4)),
        ("speedup", fixed(speedup, 3)),
    ];
    ab.finish(fields, &metrics, |r| {
        format!(
            "extinct-early {:.0}% | watchdog expiries {} | mean restore distance {:.0} cycles",
            r.extinct_rate() * 100.0,
            r.watchdog_expiries,
            r.mean_restore_distance(),
        )
    });
}
