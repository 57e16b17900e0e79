//! Experiment preparation: compile a workload for a core model, build the
//! system image, and take golden (fault-free) reference runs.

use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_isa::Isa;
use vulnstack_kernel::SystemImage;
use vulnstack_microarch::func::Profile;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::outcome::SimOutcome;
use vulnstack_microarch::snapshot::{self, CheckpointStore, GoldenObserver};
use vulnstack_microarch::{CoreConfig, CoreModel, FuncCore, OooCore, RunStatus};
use vulnstack_workloads::Workload;

use crate::prune::ClassTable;

/// Golden-run budget for the *functional* core, in dynamic
/// **instructions** ([`FuncCore::run`] counts instructions).
const FUNC_INSTR_BUDGET: u64 = 400_000_000;

/// Golden-run budget for the *cycle-level* core, in **cycles**
/// ([`OooCore::run`] counts cycles). Kept separate from
/// [`FUNC_INSTR_BUDGET`]: the two cores meter different units, and a
/// cycle budget must out-size an instruction budget by the worst-case
/// CPI to cover the same program.
const GOLDEN_CYCLE_BUDGET: u64 = 2_000_000_000;

/// Error preparing an experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepareError {
    /// Compilation failed.
    Compile(String),
    /// Image assembly failed.
    Image(String),
    /// The golden run did not exit cleanly.
    BadGolden(RunStatus),
    /// The golden run exited cleanly but printed something other than
    /// the workload's expected output, so every faulty run would be
    /// classified against the wrong bytes.
    GoldenOutput {
        /// First byte offset at which the two outputs differ.
        at: usize,
        /// Length of the golden run's output.
        found: usize,
        /// Length of the expected output.
        expected: usize,
    },
}

impl PrepareError {
    /// Checks a golden run's output against the workload's expected
    /// output, naming the first differing byte on a mismatch.
    fn check_output(found: &[u8], expected: &[u8]) -> Result<(), PrepareError> {
        if found == expected {
            return Ok(());
        }
        let at = found
            .iter()
            .zip(expected)
            .position(|(a, b)| a != b)
            .unwrap_or(found.len().min(expected.len()));
        Err(PrepareError::GoldenOutput {
            at,
            found: found.len(),
            expected: expected.len(),
        })
    }
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::Compile(e) => write!(f, "compile failed: {e}"),
            PrepareError::Image(e) => write!(f, "image failed: {e}"),
            PrepareError::BadGolden(s) => write!(f, "golden run did not exit cleanly: {s:?}"),
            PrepareError::GoldenOutput {
                at,
                found,
                expected,
            } => write!(
                f,
                "golden run output differs from the expected output at byte {at} \
                 ({found} bytes, {expected} expected)"
            ),
        }
    }
}

impl std::error::Error for PrepareError {}

/// A workload prepared for microarchitecture-level (AVF/HVF) campaigns on
/// one core model.
#[derive(Debug)]
pub struct Prepared {
    /// The core configuration.
    pub cfg: CoreConfig,
    /// The bootable image.
    pub image: SystemImage,
    /// Golden cycle-level run (status must be a clean exit).
    pub golden: SimOutcome,
    /// Expected program output.
    pub expected_output: Vec<u8>,
    /// Cycle budget for faulty runs.
    pub budget: u64,
    /// Fault-free core snapshots taken along the golden run, for
    /// warm-starting injections near their injection cycle.
    pub checkpoints: CheckpointStore,
    /// The class tables the golden run recorded ([`Prepared::observing`];
    /// none after [`Prepared::new`]), which the [`crate::Pruner`] of
    /// their structure borrows instead of re-running the golden pass.
    pub tables: Vec<ClassTable>,
}

impl Prepared {
    /// Compiles and golden-runs `workload` on `model`, recording
    /// periodic checkpoints of the fault-free core along the way.
    ///
    /// # Errors
    ///
    /// Returns [`PrepareError`] if compilation or image assembly fails,
    /// or if the golden run does not exit cleanly with the workload's
    /// expected output.
    pub fn new(workload: &Workload, model: CoreModel) -> Result<Prepared, PrepareError> {
        Prepared::observing(workload, model, &[])
    }

    /// [`Prepared::new`] whose golden run also records the class tables
    /// of `structures` that a pruned or exhaustive campaign consults
    /// (the register file's and the LSQ's; the caches need none), so
    /// such a campaign simulates its golden run once. Each table is the
    /// one [`ClassTable::build`] would re-run the golden pass to build.
    ///
    /// # Errors
    ///
    /// As [`Prepared::new`].
    pub fn observing(
        workload: &Workload,
        model: CoreModel,
        structures: &[HwStructure],
    ) -> Result<Prepared, PrepareError> {
        let cfg = model.config();
        let compiled = compile(&workload.module, cfg.isa, &CompileOpts::default())
            .map_err(|e| PrepareError::Compile(e.to_string()))?;
        let image = SystemImage::build(&compiled, &workload.input)
            .map_err(|e| PrepareError::Image(e.to_string()))?;
        let mut observer = GoldenObserver::new(structures);
        let (checkpoints, out) = CheckpointStore::record(
            &cfg,
            &image,
            snapshot::DEFAULT_INTERVAL,
            snapshot::DEFAULT_MAX_SNAPSHOTS,
            GOLDEN_CYCLE_BUDGET,
            &mut observer,
        );
        let golden = out.sim;
        if golden.status != RunStatus::Exited(0) {
            return Err(PrepareError::BadGolden(golden.status));
        }
        PrepareError::check_output(&golden.output, &workload.expected_output)?;
        let budget = golden.cycles * 8 + 500_000;
        let mut tables = Vec::new();
        for s in HwStructure::ALL {
            if observer.observes(s) {
                tables.push(ClassTable::from_observer(
                    &cfg,
                    golden.cycles,
                    s,
                    &mut observer,
                ));
            }
        }
        Ok(Prepared {
            cfg,
            image,
            golden,
            expected_output: workload.expected_output.clone(),
            budget,
            checkpoints,
            tables,
        })
    }

    /// The class table the golden run recorded for `structure`, if any.
    pub fn table(&self, structure: HwStructure) -> Option<&ClassTable> {
        self.tables.iter().find(|t| t.structure() == structure)
    }

    /// A fault-free core advanced to exactly `cycle`, warm-started from
    /// the nearest checkpoint at or before it. Bit-identical to
    /// [`Prepared::core_from_scratch`] advanced to the same cycle.
    pub fn core_at(&self, cycle: u64) -> OooCore {
        let mut core = self.checkpoints.restore(cycle);
        core.run_until(cycle);
        core
    }

    /// A fresh core at cycle 0 (the un-accelerated path, kept for
    /// equivalence testing and speedup measurement).
    pub fn core_from_scratch(&self) -> OooCore {
        OooCore::new(&self.cfg, &self.image)
    }
}

/// A workload prepared for architecture-level (PVF) campaigns on one ISA
/// (microarchitecture-independent, per the PVF definition).
#[derive(Debug)]
pub struct FuncPrepared {
    /// Target ISA.
    pub isa: Isa,
    /// The bootable image.
    pub image: SystemImage,
    /// Golden functional run.
    pub golden: SimOutcome,
    /// Execution profile (program-flow population for WD sampling).
    pub profile: Profile,
    /// Expected program output.
    pub expected_output: Vec<u8>,
    /// Dynamic-instruction budget for faulty runs.
    pub budget: u64,
    /// Fault-free core snapshots taken along the golden run, keyed by
    /// dynamic instruction, for starting injections near their fault.
    pub checkpoints: CheckpointStore<FuncCore>,
}

impl FuncPrepared {
    /// Compiles and golden-runs `workload` functionally on `isa`,
    /// recording the execution profile and periodic checkpoints of the
    /// fault-free core in the same pass.
    ///
    /// # Errors
    ///
    /// Returns [`PrepareError`] if compilation or image assembly fails,
    /// or if the golden run does not exit cleanly with the workload's
    /// expected output.
    pub fn new(workload: &Workload, isa: Isa) -> Result<FuncPrepared, PrepareError> {
        let compiled = compile(&workload.module, isa, &CompileOpts::default())
            .map_err(|e| PrepareError::Compile(e.to_string()))?;
        let image = SystemImage::build(&compiled, &workload.input)
            .map_err(|e| PrepareError::Image(e.to_string()))?;
        let (checkpoints, golden, profile) = FuncCore::record(
            &image,
            snapshot::FUNCTIONAL_INTERVAL,
            snapshot::DEFAULT_MAX_SNAPSHOTS,
            FUNC_INSTR_BUDGET,
        );
        if golden.status != RunStatus::Exited(0) {
            return Err(PrepareError::BadGolden(golden.status));
        }
        PrepareError::check_output(&golden.output, &workload.expected_output)?;
        let budget = golden.instrs * 8 + 500_000;
        Ok(FuncPrepared {
            isa,
            image,
            golden,
            profile,
            expected_output: workload.expected_output.clone(),
            budget,
            checkpoints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_workloads::WorkloadId;

    #[test]
    fn prepares_crc32_on_a9() {
        let w = WorkloadId::Crc32.build();
        let p = Prepared::new(&w, CoreModel::A9).unwrap();
        assert_eq!(p.golden.status, RunStatus::Exited(0));
        assert_eq!(p.golden.output, w.expected_output);
        assert!(p.budget > p.golden.cycles);
        assert!(!p.checkpoints.is_empty(), "golden run must checkpoint");
        let mid = p.golden.cycles / 2;
        assert!(p.checkpoints.nearest_position(mid) <= mid);
        assert_eq!(p.core_at(mid).cycle(), mid);
    }

    #[test]
    fn observing_takes_the_plain_golden_run_and_keeps_logs_out_of_snapshots() {
        for (id, model) in [
            (WorkloadId::Crc32, CoreModel::A9),
            (WorkloadId::Qsort, CoreModel::A72),
        ] {
            let w = id.build();
            let plain = Prepared::new(&w, model).unwrap();
            let p = Prepared::observing(&w, model, &HwStructure::ALL).unwrap();
            assert_eq!(p.golden, plain.golden);
            assert_eq!(p.budget, plain.budget);
            let (store, want) = (&p.checkpoints, &plain.checkpoints);
            assert_eq!(
                (store.len(), store.interval()),
                (want.len(), want.interval())
            );
            for c in (0..store.len() as u64).map(|i| i * store.interval()) {
                assert!(
                    store.at(c) == want.at(c),
                    "{id}/{model}: snapshot at {c} differs"
                );
            }
            // Only the register file and the LSQ record a table.
            let observed: Vec<HwStructure> = p.tables.iter().map(ClassTable::structure).collect();
            assert_eq!(observed, [HwStructure::RegisterFile, HwStructure::Lsq]);
            assert!(plain.tables.is_empty() && p.table(HwStructure::L1d).is_none());
            // A log in a restored core would grow and slow every
            // injection run.
            for c in [1, p.golden.cycles / 2, p.golden.cycles - 1] {
                let mut core = p.core_at(c);
                assert!(core.take_rf_log().is_none() && core.take_dispatch_log().is_none());
            }
        }
    }

    #[test]
    fn a_wrong_expected_output_is_refused() {
        let mut w = WorkloadId::Crc32.build();
        w.expected_output[0] ^= 1;
        match Prepared::new(&w, CoreModel::A9) {
            Err(PrepareError::GoldenOutput {
                at,
                found,
                expected,
            }) => {
                assert_eq!(at, 0);
                assert_eq!(found, expected);
            }
            other => panic!("expected a golden-output error, got {other:?}"),
        }
        match FuncPrepared::new(&w, Isa::Va64) {
            Err(PrepareError::GoldenOutput { at: 0, .. }) => {}
            other => panic!("expected a golden-output error, got {other:?}"),
        }
        assert_eq!(
            PrepareError::check_output(b"abc", b"ab"),
            Err(PrepareError::GoldenOutput {
                at: 2,
                found: 3,
                expected: 2
            })
        );
    }

    #[test]
    fn prepares_functional_smooth_on_va64() {
        let w = WorkloadId::Smooth.build();
        let p = FuncPrepared::new(&w, Isa::Va64).unwrap();
        assert_eq!(p.golden.status, RunStatus::Exited(0));
        assert!(!p.profile.touched_bytes.is_empty());
        assert!(p.profile.kernel_instrs > 0, "syscalls must run kernel code");
        assert!(!p.checkpoints.is_empty(), "golden run must checkpoint");
        let mid = p.golden.instrs / 2;
        assert!(p.checkpoints.nearest_position(mid) <= mid);
    }
}
