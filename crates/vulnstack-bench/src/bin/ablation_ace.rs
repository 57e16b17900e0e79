//! Ablation: ACE-style analytical AVF vs injection-measured AVF for the
//! register file and the LSQ (the paper's §II.A point that ACE analysis
//! overestimates vulnerability, its reference \[34\]).

use vulnstack_bench::{
    all_workloads, avf_sampled, figure_header, master_seed, prepare_or_die, sub_seed,
};
use vulnstack_core::report::{pct, Table};
use vulnstack_gefin::{ace_analysis, default_faults};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::CoreModel;

fn main() {
    let faults = default_faults(150);
    let seed = master_seed();
    figure_header(
        "Ablation — ACE analytical estimate vs fault injection (A72)",
        faults,
    );

    let mut t = Table::new(&[
        "bench",
        "RF ACE",
        "RF injected",
        "RF ratio",
        "LSQ ACE",
        "LSQ injected",
        "LSQ ratio",
    ]);
    let mut pessimistic = 0;
    let mut total = 0;
    for w in all_workloads() {
        let prep = prepare_or_die(&w, CoreModel::A72);
        let ace = ace_analysis(&prep);
        let (rf, _) = avf_sampled(
            &prep,
            HwStructure::RegisterFile,
            faults,
            sub_seed(seed, &[w.id.name(), "ace-rf"]),
        );
        let (lsq, _) = avf_sampled(
            &prep,
            HwStructure::Lsq,
            faults,
            sub_seed(seed, &[w.id.name(), "ace-lsq"]),
        );
        let ratio = |a: f64, b: f64| {
            if b > 0.0 {
                format!("{:.1}x", a / b)
            } else {
                "-".to_string()
            }
        };
        for (a, b) in [
            (ace.rf_avf, rf.avf().total()),
            (ace.lsq_avf, lsq.avf().total()),
        ] {
            total += 1;
            if a >= b {
                pessimistic += 1;
            }
        }
        t.row(&[
            w.id.name().into(),
            pct(ace.rf_avf),
            pct(rf.avf().total()),
            ratio(ace.rf_avf, rf.avf().total()),
            pct(ace.lsq_avf),
            pct(lsq.avf().total()),
            ratio(ace.lsq_avf, lsq.avf().total()),
        ]);
        eprintln!("  [{}] done", w.id);
    }
    println!("{}", t.render());
    println!("ACE >= injection in {pessimistic}/{total} structure measurements.");
    println!("Shape to check: ACE consistently overestimates (the paper cites [34] for");
    println!("ACE's pessimism), because lifetime analysis cannot see logical masking.");
}
