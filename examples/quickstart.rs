//! Quickstart: measure one workload's vulnerability at all three layers
//! of the system stack.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vulnstack_core::report::{pct, pct2, Table};
use vulnstack_core::RunOpts;
use vulnstack_gefin::{
    avf_campaign, default_threads, pvf_campaign, FuncPrepared, InjectionPlan, Prepared, PvfMode,
};
use vulnstack_isa::Isa;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::WorkloadId;

fn main() {
    let faults = 80;
    let w = WorkloadId::Crc32.build();
    println!("workload: {} ({} bytes of input)", w.id, w.input.len());

    // How every campaign below runs: on the default thread count,
    // unjournaled, with the default streaming options and no metrics
    // collector.
    let opts = RunOpts::new(default_threads());

    // Software layer (SVF): LLFI-style IR injection.
    let svf =
        vulnstack_llfi::svf_campaign(&w.module, &w.input, &w.expected_output, faults, 1, &opts)
            .expect("svf campaign");
    println!(
        "SVF  (software layer)      = {}",
        pct(svf.tally.vf().total())
    );

    // Architecture layer (PVF): persistent architectural-state faults on
    // the functional full-system core (kernel included).
    let fprep = FuncPrepared::new(&w, Isa::Va64).expect("prepare");
    let pvf = pvf_campaign(&fprep, PvfMode::Wd, faults, 1, &opts).expect("pvf campaign");
    println!(
        "PVF  (architecture layer)  = {}",
        pct(pvf.tally.vf().total())
    );

    // Cross-layer AVF: microarchitectural faults on the cycle-level
    // out-of-order core (A72-like), per structure.
    let prep = Prepared::new(&w, CoreModel::A72).expect("prepare");
    let mut t = Table::new(&["structure", "AVF", "HVF"]);
    let plan = InjectionPlan::Sampled { n: faults, seed: 1 };
    for st in HwStructure::ALL {
        let (r, _) =
            avf_campaign(&prep, st, &plan, &[FaultModel::BitFlip], &opts).expect("avf campaign");
        t.row(&[st.name().into(), pct2(r.avf().total()), pct(r.hvf())]);
    }
    println!("\ncross-layer AVF per hardware structure (A72):");
    println!("{}", t.render());
    println!("Note the scale gap: most hardware faults never reach the software,");
    println!("which is exactly why software-level estimates cannot stand in for AVF.");
}
