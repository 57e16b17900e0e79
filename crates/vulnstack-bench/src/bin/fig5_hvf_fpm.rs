//! Fig. 5 reproduction: HVF split by fault propagation model (WD / WI /
//! WOI / ESC) for the register file, L1i, L1d and L2 on the two VA32
//! models (A9, A15).

use vulnstack_bench::{
    all_workloads, avf_sampled, figure_header, master_seed, prepare_or_die, sub_seed,
};
use vulnstack_core::report::{pct, Table};
use vulnstack_gefin::default_faults;
use vulnstack_microarch::ooo::{Fpm, HwStructure};
use vulnstack_microarch::CoreModel;

fn main() {
    let faults = default_faults(150);
    let seed = master_seed();
    figure_header(
        "Fig. 5 — HVF per FPM for RF/L1i/L1d/L2 on A9 and A15",
        faults,
    );

    let structures = [
        HwStructure::RegisterFile,
        HwStructure::L1i,
        HwStructure::L1d,
        HwStructure::L2,
    ];
    for model in [CoreModel::A9, CoreModel::A15] {
        println!("--- {model} ---");
        for st in structures {
            let mut t = Table::new(&["bench", "WD", "WI", "WOI", "ESC", "HVF"]);
            for w in all_workloads() {
                let prep = prepare_or_die(&w, model);
                let (r, _) = avf_sampled(
                    &prep,
                    st,
                    faults,
                    sub_seed(seed, &[w.id.name(), model.name(), st.name()]),
                );
                t.row(&[
                    w.id.name().into(),
                    pct(r.fpm.share(Fpm::Wd)),
                    pct(r.fpm.share(Fpm::Wi)),
                    pct(r.fpm.share(Fpm::Woi)),
                    pct(r.fpm.share(Fpm::Esc)),
                    pct(r.hvf()),
                ]);
            }
            println!("[{st}]");
            println!("{}", t.render());
        }
    }
    println!("Shapes to check (paper §IV.B): WD dominates RF and L1d; WI/WOI are");
    println!("large in L1i; ESC appears in the data-holding structures; the mix");
    println!("differs between the two microarchitectures.");
}
