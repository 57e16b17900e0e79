//! The fault-tolerance trade-off in miniature: harden a workload, show
//! that the software-level view improves dramatically while the
//! cross-layer view degrades — the paper's central pitfall.
//!
//! ```text
//! cargo run --release --example ft_tradeoff
//! ```

use vulnstack_core::report::{pct, pct2, Table};
use vulnstack_core::StreamOpts;
use vulnstack_gefin::{avf_campaign, default_threads, InjectionPlan, Prepared};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::{Workload, WorkloadId};

fn main() {
    let faults = 100;
    let threads = default_threads();
    let base = WorkloadId::Sha.build();
    let hard = vulnstack_ft::workload(WorkloadId::Sha, true).unwrap();

    // Software-level view (what a developer using an LLFI-style tool
    // sees). Every campaign here runs unjournaled with the default
    // streaming options.
    let svf = |w: &Workload| {
        vulnstack_llfi::svf_campaign(
            &w.module,
            &w.input,
            &w.expected_output,
            faults,
            7,
            threads,
            None,
            StreamOpts::from_env(),
            None,
        )
        .expect("svf campaign")
        .tally
    };
    let svf_base = svf(&base);
    let svf_hard = svf(&hard);

    // Cross-layer view (ground truth): weighted over the five structures.
    let weighted = |w: &Workload| {
        let prep = Prepared::new(w, CoreModel::A72).expect("prepare");
        let mut structs = Vec::new();
        for st in HwStructure::ALL {
            let (r, _) = avf_campaign(
                &prep,
                st,
                &InjectionPlan::Sampled { n: faults, seed: 7 },
                &[FaultModel::BitFlip],
                threads,
                None,
                StreamOpts::from_env(),
                None,
            )
            .expect("avf campaign");
            structs.push(vulnstack_core::stack::StructureAvf {
                structure: st,
                bits: r.bits,
                tally: r.tally,
            });
        }
        (
            vulnstack_core::stack::WeightedAvf::new(structs).weighted(),
            prep.golden.cycles,
        )
    };
    let (avf_base, cyc_base) = weighted(&base);
    let (avf_hard, cyc_hard) = weighted(&hard);

    let mut t = Table::new(&["metric", "unprotected", "hardened", "change"]);
    let sv_b = svf_base.vf().total();
    let sv_h = svf_hard.vf().total();
    t.row(&[
        "SVF (software view)".into(),
        pct(sv_b),
        pct(sv_h),
        format!(
            "{:.1}x lower",
            if sv_h > 0.0 {
                sv_b / sv_h
            } else {
                f64::INFINITY
            }
        ),
    ]);
    t.row(&[
        "AVF (cross-layer truth)".into(),
        pct2(avf_base.total()),
        pct2(avf_hard.total()),
        format!(
            "{:+.0}%",
            (avf_hard.total() / avf_base.total().max(1e-9) - 1.0) * 100.0
        ),
    ]);
    t.row(&[
        "execution cycles".into(),
        cyc_base.to_string(),
        cyc_hard.to_string(),
        format!("{:.1}x", cyc_hard as f64 / cyc_base as f64),
    ]);
    println!("{}", t.render());
    println!(
        "Detected-by-checks at the software layer: {}",
        pct(svf_hard.vf().detected)
    );
    println!("\nThe software view says the program got much safer. The cross-layer");
    println!("truth barely moves (or worsens): the 3.6x longer, duplicated run");
    println!("exposes hardware state for longer — the paper's protection pitfall.");
    println!("(At this demo sample size the AVF delta is inside the error margin;");
    println!("fig10_case_sha runs the full campaign and shows the AVF *increase*.)");
}
