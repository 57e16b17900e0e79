//! Ablation: fault-manifestation latency — cycles between injection and
//! the first architecturally visible consumption, per structure. Context
//! for the paper's Fig. 3 timeline (fault-free period → injection →
//! software visibility) and for why longer runs (the hardened case study)
//! expose more state.

use vulnstack_bench::{avf_sampled, figure_header, master_seed, prepare_or_die, sub_seed};
use vulnstack_core::report::Table;
use vulnstack_gefin::default_faults;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::CoreModel;
use vulnstack_workloads::WorkloadId;

fn main() {
    let faults = default_faults(200);
    let seed = master_seed();
    figure_header(
        "Ablation — injection-to-manifestation latency (A72)",
        faults,
    );

    let mut t = Table::new(&[
        "bench",
        "structure",
        "visible",
        "median lat (cyc)",
        "p90 lat (cyc)",
        "max",
    ]);
    for id in [WorkloadId::Sha, WorkloadId::Qsort, WorkloadId::Fft] {
        let w = id.build();
        let prep = prepare_or_die(&w, CoreModel::A72);
        for st in [
            HwStructure::RegisterFile,
            HwStructure::Lsq,
            HwStructure::L1d,
            HwStructure::L1i,
        ] {
            let (_, records) = avf_sampled(
                &prep,
                st,
                faults,
                sub_seed(seed, &[id.name(), st.name(), "latency"]),
            );
            let mut lat: Vec<u64> = records
                .iter()
                .filter_map(|rec| rec.fpm_cycle.map(|m| m.saturating_sub(rec.cycle)))
                .collect();
            lat.sort_unstable();
            let pick = |q: f64| -> String {
                if lat.is_empty() {
                    "-".into()
                } else {
                    lat[((lat.len() - 1) as f64 * q) as usize].to_string()
                }
            };
            t.row(&[
                id.name().into(),
                st.name().into(),
                format!("{}/{}", lat.len(), faults),
                pick(0.5),
                pick(0.9),
                pick(1.0),
            ]);
        }
        eprintln!("  [{id}] done");
    }
    println!("{}", t.render());
    println!("Short latencies (RF) mean faults are consumed or repaired quickly;");
    println!("long tails (caches) are residency — the exposure that grows when the");
    println!("fault-tolerant code runs 2-4x longer.");
}
