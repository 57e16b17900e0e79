//! Soundness oracle for dead-interval pruning, over *random* programs.
//!
//! The class table claims some fault sites are Masked without simulating
//! them. The unit tests check that claim on the fixed benchmark
//! workloads; this property test re-derives it on randomly generated
//! small VIR programs — different register pressure, different loop
//! shapes, both ISAs — by actually injecting every site the table calls
//! dead and requiring the full runner to come back `(Masked, None,
//! None)`. Any unsound classification rule (an off-by-one in the gap
//! search, a missed access path into the register file) shows up here as
//! a concrete counterexample program.
//!
//! The table checked is the one production campaigns consult: recorded
//! by the checkpointing golden pass, and required to equal the table a
//! bare golden re-run builds.
//!
//! The proptest shim is deterministic (seeded from the test name), so CI
//! runs a fixed corpus.

use proptest::prelude::*;
use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_core::effects::FaultEffect;
use vulnstack_gefin::avf::run_one;
use vulnstack_gefin::{draw_sites, static_classifier, ClassTable, Prepared, SiteClass};
use vulnstack_isa::Isa;
use vulnstack_kernel::SystemImage;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::snapshot::{self, CheckpointStore, GoldenObserver};
use vulnstack_microarch::{CoreModel, RunStatus};
use vulnstack_vir::ModuleBuilder;

/// One random ALU step inside the generated loop: `(op, dst, a, b)`
/// selectors, clamped into range by the builder.
type Step = (u8, usize, usize, usize);

const NVARS: usize = 4;

/// Builds a terminating random program: `NVARS` seeded accumulators, a
/// bounded loop applying the generated ALU steps, then a store +
/// `sys_write` of one accumulator so faults can reach the output, and a
/// clean exit.
fn build_program(steps: &[Step], iters: u64, init: u32, isa: Isa) -> SystemImage {
    let mut mb = ModuleBuilder::new("rand");
    let mut f = mb.function("main", 0);
    let vars: Vec<_> = (0..NVARS).map(|_| f.fresh()).collect();
    for (j, &v) in vars.iter().enumerate() {
        f.set_c(v, (init % 251) as i32 + j as i32 * 7 + 1);
    }
    let steps = steps.to_vec();
    f.for_range(0, iters as i32, |f, i| {
        for &(op, dst, a, b) in &steps {
            let (dst, a, b) = (dst % NVARS, a % NVARS, b % NVARS);
            let (x, y) = (vars[a], vars[b]);
            let t = match op % 5 {
                0 => f.add(x, y),
                1 => f.sub(x, y),
                2 => f.mul(x, y),
                3 => f.xor(x, y),
                _ => f.add(x, i),
            };
            f.set(vars[dst], t);
        }
    });
    let slot = f.stack_slot(4, 4);
    let p = f.slot_addr(slot);
    f.store32(vars[0], p, 0);
    f.sys_write(p, 4);
    f.sys_exit(0);
    f.ret(None);
    mb.finish_function(f);
    let m = mb.finish().unwrap();
    let c = compile(&m, isa, &CompileOpts::default()).unwrap();
    SystemImage::build(&c, &[]).unwrap()
}

/// Prepares the random program the same way [`Prepared::observing`]
/// prepares a benchmark workload for a register-file campaign (golden
/// run, checkpoints, budget, the RF class table recorded in the same
/// pass), with the golden output as its own expected output — the
/// engine's standing assumption.
fn prepare(image: SystemImage, model: CoreModel) -> Option<Prepared> {
    let cfg = model.config();
    let rf = HwStructure::RegisterFile;
    let mut observer = GoldenObserver::new(&[rf]);
    let (checkpoints, out) = CheckpointStore::record(
        &cfg,
        &image,
        snapshot::DEFAULT_INTERVAL,
        snapshot::DEFAULT_MAX_SNAPSHOTS,
        5_000_000,
        &mut observer,
    );
    let golden = out.sim;
    if golden.status != RunStatus::Exited(0) {
        return None;
    }
    let budget = golden.cycles * 8 + 500_000;
    let expected_output = golden.output.clone();
    let tables = vec![ClassTable::from_observer(
        &cfg,
        golden.cycles,
        rf,
        &mut observer,
    )];
    Some(Prepared {
        cfg,
        image,
        golden,
        expected_output,
        budget,
        checkpoints,
        tables,
    })
}

/// The register-file table `prep`'s golden pass recorded, after checking
/// that a bare golden re-run builds the same table.
fn rf_table(prep: &Prepared) -> &ClassTable {
    let rf = HwStructure::RegisterFile;
    let table = prep.table(rf).expect("the golden pass observed the RF");
    assert_eq!(
        table.digest(),
        ClassTable::build(prep, rf).digest(),
        "the checkpointing pass and a bare re-run recorded different tables"
    );
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn every_dead_classified_site_is_confirmed_masked_by_injection(
        steps in prop::collection::vec((0u8..5, 0usize..NVARS, 0usize..NVARS, 0usize..NVARS), 2..10),
        iters in 8u64..40,
        init in any::<u32>(),
        isa_sel in 0u8..2,
        site_seed in any::<u64>(),
    ) {
        let (isa, model) = if isa_sel == 0 {
            (Isa::Va32, CoreModel::A9)
        } else {
            (Isa::Va64, CoreModel::A72)
        };
        let image = build_program(&steps, iters, init, isa);
        let prep = match prepare(image, model) {
            Some(p) => p,
            None => {
                return Err(TestCaseError::fail(
                    "generated program did not exit cleanly".to_string(),
                ))
            }
        };
        let table = rf_table(&prep);
        for (cycle, bit) in draw_sites(&prep, HwStructure::RegisterFile, 24, site_seed) {
            if table.classify(cycle, bit) == SiteClass::DeadMasked {
                let r = run_one(&prep, HwStructure::RegisterFile, cycle, bit);
                prop_assert_eq!(
                    (r.effect, r.fpm, r.fpm_cycle),
                    (FaultEffect::Masked, None, None),
                    "unsound dead classification at cycle {} bit {} (iters={}, isa={:?})",
                    cycle, bit, iters, isa
                );
            }
        }
    }

    /// The full three-rung soundness lattice of the static pruning
    /// oracle, on random programs over both ISAs:
    ///
    /// ```text
    /// static-dead  ⊆  dynamic-dead (ClassTable)  ⊆  injection-Masked
    /// ```
    ///
    /// Rung 1 is checked on every sampled site (classification is free);
    /// rung 2 is checked by injecting every statically-dead site for
    /// real and requiring `(Masked, None, None)` — which also empirically
    /// pins the classifier's W^X assumption (no executable word is
    /// rewritten mid-run).
    #[test]
    fn static_dead_sites_are_dynamically_dead_and_injection_masked(
        steps in prop::collection::vec((0u8..5, 0usize..NVARS, 0usize..NVARS, 0usize..NVARS), 2..10),
        iters in 8u64..40,
        init in any::<u32>(),
        isa_sel in 0u8..2,
        site_seed in any::<u64>(),
    ) {
        let (isa, model) = if isa_sel == 0 {
            (Isa::Va32, CoreModel::A9)
        } else {
            (Isa::Va64, CoreModel::A72)
        };
        let image = build_program(&steps, iters, init, isa);
        let prep = match prepare(image, model) {
            Some(p) => p,
            None => {
                return Err(TestCaseError::fail(
                    "generated program did not exit cleanly".to_string(),
                ))
            }
        };
        let oracle = static_classifier(&prep.image);
        let nphys = prep.cfg.phys_regs as usize;
        let table = rf_table(&prep);
        for (cycle, bit) in draw_sites(&prep, HwStructure::RegisterFile, 24, site_seed) {
            if !oracle.rf_bit_dead(bit, nphys) {
                continue;
            }
            // Rung 1: static-dead ⊆ dynamic-dead.
            prop_assert_eq!(
                table.classify(cycle, bit),
                SiteClass::DeadMasked,
                "static-dead site (cycle {}, bit {}) not dynamically dead (isa={:?})",
                cycle, bit, isa
            );
            // Rung 2: static-dead ⊆ injection-Masked, by real injection.
            let r = run_one(&prep, HwStructure::RegisterFile, cycle, bit);
            prop_assert_eq!(
                (r.effect, r.fpm, r.fpm_cycle),
                (FaultEffect::Masked, None, None),
                "static-dead site (cycle {}, bit {}) manifested under injection (isa={:?})",
                cycle, bit, isa
            );
        }
    }
}
