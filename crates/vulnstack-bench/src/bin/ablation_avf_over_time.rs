//! Ablation: temporal vulnerability — AVF per execution-time window.
//! Context for the case studies: vulnerability is not uniform in time, and
//! stretching execution (hardening) stretches the exposed windows.

use vulnstack_bench::{figure_header, master_seed, prepare_or_die, sub_seed};
use vulnstack_core::report::{pct, Table};
use vulnstack_core::RunOpts;
use vulnstack_gefin::{default_faults, default_threads, temporal_campaign};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::CoreModel;
use vulnstack_workloads::WorkloadId;

fn main() {
    let per_window = default_faults(40);
    let windows = 5;
    let seed = master_seed();
    figure_header(
        "Ablation — AVF per execution-time quintile (A72)",
        per_window * windows,
    );

    let mut t = Table::new(&["bench", "structure", "Q1", "Q2", "Q3", "Q4", "Q5"]);
    for id in [WorkloadId::Sha, WorkloadId::Qsort, WorkloadId::Smooth] {
        let w = id.build();
        let prep = prepare_or_die(&w, CoreModel::A72);
        for st in [HwStructure::RegisterFile, HwStructure::L1d] {
            let out = temporal_campaign(
                &prep,
                st,
                windows,
                per_window,
                sub_seed(seed, &[id.name(), st.name(), "temporal"]),
                &RunOpts::new(default_threads()),
            )
            .expect("an unjournaled campaign does no I/O");
            let p = out.profile;
            let mut row = vec![id.name().to_string(), st.name().to_string()];
            row.extend(p.series().iter().map(|v| pct(*v)));
            t.row(&row);
        }
        eprintln!("  [{id}] done");
    }
    println!("{}", t.render());
    println!("Vulnerability varies across the run (e.g. late-run faults in data");
    println!("that is already written out tend to escape or mask).");
}
