//! # vulnstack-llfi
//!
//! Software-level fault injection in the style of LLFI: instantaneous
//! single-bit flips in the destination value of one dynamic IR
//! instruction, user code only. This is the paper's **SVF** measurement:
//! it sees neither kernel activity, nor microarchitectural residency, nor
//! escaped faults — by construction.
//!
//! # Example
//!
//! ```no_run
//! use vulnstack_core::RunOpts;
//! use vulnstack_llfi::svf_campaign;
//! use vulnstack_workloads::WorkloadId;
//!
//! let w = WorkloadId::Crc32.build();
//! let opts = RunOpts::new(4);
//! let out = svf_campaign(&w.module, &w.input, &w.expected_output, 100, 42, &opts).unwrap();
//! println!("SVF = {:.3}", out.tally.vf().total());
//! ```

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vulnstack_core::effects::{FaultEffect, Tally};
use vulnstack_core::journal::{fnv1a64, Fingerprint};
use vulnstack_core::{Campaign, JournalError, RunOpts, TallyStreamed};
use vulnstack_isa::FaultModel;
use vulnstack_microarch::snapshot::{self, CheckpointStore};
use vulnstack_vir::instr::InstrClass;
use vulnstack_vir::interp::{InterpState, Interpreter, RunOutcome, RunStatus, SwFault};
use vulnstack_vir::Module;

/// Classifies an interpreted run against the golden interpretation.
pub fn classify(
    status: RunStatus,
    output: &[u8],
    golden_status: RunStatus,
    golden_output: &[u8],
) -> FaultEffect {
    match status {
        RunStatus::Detected(_) => FaultEffect::Detected,
        RunStatus::Trapped(_) | RunStatus::Timeout => FaultEffect::Crash,
        RunStatus::Exited(code) => {
            let golden_code = match golden_status {
                RunStatus::Exited(c) => c,
                _ => return FaultEffect::Sdc,
            };
            if code == golden_code && output == golden_output {
                FaultEffect::Masked
            } else {
                FaultEffect::Sdc
            }
        }
    }
}

/// Golden interpretation of a module: status, output, the injectable
/// dynamic-instruction population and snapshots to start injections from.
#[derive(Debug, Clone)]
pub struct SvfGolden {
    /// Golden status.
    pub status: RunStatus,
    /// Golden output.
    pub output: Vec<u8>,
    /// Dynamic injectable (value-producing) instruction count — the
    /// sampling population.
    pub injectable: u64,
    /// Dynamic instruction budget for faulty runs.
    pub budget: u64,
    /// Fault-free interpreter states along the golden run, keyed by
    /// injectable-instruction count: each injection resumes from the
    /// nearest one at or before its target.
    pub checkpoints: CheckpointStore<InterpState>,
}

/// Takes the golden run, snapshotting the interpreter along the way (every
/// [`snapshot::FUNCTIONAL_INTERVAL`] injectable instructions, thinned to
/// at most [`snapshot::DEFAULT_MAX_SNAPSHOTS`] snapshots).
///
/// # Panics
///
/// Panics if the module's globals do not fit the interpreter memory
/// (workloads are sized well below the limit).
pub fn golden_run(module: &Module, input: &[u8]) -> SvfGolden {
    let interp = Interpreter::new(module).with_input(input);
    let mut checkpoints = CheckpointStore::new(
        interp.snapshot(),
        snapshot::FUNCTIONAL_INTERVAL,
        snapshot::DEFAULT_MAX_SNAPSHOTS,
        InterpState::injectable,
    );
    let out = interp
        .run_pausing(checkpoints.next_position(), |s| {
            checkpoints.push(s.clone());
            checkpoints.next_position()
        })
        .expect("golden interpretation");
    SvfGolden {
        status: out.status,
        output: out.output,
        injectable: out.injectable,
        budget: out.dyn_instrs * 8 + 100_000,
        checkpoints,
    }
}

/// Runs one software-level injection.
pub fn run_one(module: &Module, input: &[u8], golden: &SvfGolden, fault: SwFault) -> FaultEffect {
    let out = faulty_run(module, input, golden, fault);
    classify(out.status, &out.output, golden.status, &golden.output)
}

/// Interprets `module` with `fault` injected, under the faulty-run
/// budget, resuming from the golden snapshot nearest to (at or before)
/// the fault's target. The outcome equals a run from the first
/// instruction with the same fault.
pub fn faulty_run(module: &Module, input: &[u8], golden: &SvfGolden, fault: SwFault) -> RunOutcome {
    Interpreter::resume(module, golden.checkpoints.restore(fault.target))
        .with_input(input)
        .with_budget(golden.budget)
        .with_fault(fault)
        .run()
        .expect("interpretation")
}

/// Runs an SVF campaign and breaks the results down by the class of the
/// injected IR instruction — which kinds of values are most fragile at
/// the software layer. Injects exactly [`draw_faults`]'s sites, so the
/// breakdown covers the same sample as [`svf_campaign`] with `seed`.
pub fn svf_breakdown(
    module: &Module,
    input: &[u8],
    n: usize,
    seed: u64,
) -> BTreeMap<InstrClass, Tally> {
    let golden = golden_run(module, input);
    let mut by_class: BTreeMap<InstrClass, Tally> = BTreeMap::new();
    for fault in draw_faults(&golden, n, seed) {
        let out = faulty_run(module, input, &golden, fault);
        if let Some(c) = out.injected_class {
            let effect = classify(out.status, &out.output, golden.status, &golden.output);
            by_class.entry(c).or_default().add(effect);
        }
    }
    by_class
}

/// Draws the campaign's fault sites from one seeded stream, so the
/// sample is independent of the thread count.
pub fn draw_faults(golden: &SvfGolden, n: usize, seed: u64) -> Vec<SwFault> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51F1_57AC_0DE5_EED5);
    (0..n)
        .map(|_| {
            SwFault::flip(
                rng.gen_range(0..golden.injectable.max(1)),
                rng.gen_range(0..32),
            )
        })
        .collect()
}

/// Why an SVF campaign could not run to completion.
#[derive(Debug)]
pub enum SvfError {
    /// The golden interpretation printed something other than the
    /// workload's expected output, so every faulty run would be
    /// classified against the wrong bytes.
    GoldenOutput {
        /// Length of the golden interpretation's output.
        found: usize,
        /// Length of the expected output.
        expected: usize,
    },
    /// The campaign's journal failed.
    Journal(JournalError),
}

impl std::fmt::Display for SvfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvfError::GoldenOutput { found, expected } => write!(
                f,
                "golden interpretation output differs from the expected output \
                 ({found} bytes, {expected} expected)"
            ),
            SvfError::Journal(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SvfError {}

/// Runs an SVF campaign of `n` uniformly-sampled faults
/// ([`draw_faults`]) as `opts` says, on `opts.threads` workers with work
/// stealing. Deterministic for a given `seed` at any thread count,
/// journaled or not. Each settled injection flows through the bounded
/// sink channel (`vulnstack_core::sink`) into the tally fold — and, with
/// `opts.journal`, into the journal under the `llfi-svf` fingerprint.
///
/// # Errors
///
/// [`SvfError::GoldenOutput`] if the golden interpretation's output is
/// not `expected_output`; [`SvfError::Journal`] for journal failures.
pub fn svf_campaign(
    module: &Module,
    input: &[u8],
    expected_output: &[u8],
    n: usize,
    seed: u64,
    opts: &RunOpts<'_>,
) -> Result<TallyStreamed, SvfError> {
    let golden = golden_run(module, input);
    if golden.output != expected_output {
        return Err(SvfError::GoldenOutput {
            found: golden.output.len(),
            expected: expected_output.len(),
        });
    }
    let faults = draw_faults(&golden, n, seed);
    let order: Vec<usize> = (0..faults.len()).collect();
    Campaign {
        items: &faults,
        order: &order,
        fingerprint: Fingerprint {
            engine: "llfi-svf".to_string(),
            config: "vir".to_string(),
            structure: "-".to_string(),
            seed,
            samples: n as u64,
            params: format!(
                "injectable={};output={:016x};models={}",
                golden.injectable,
                fnv1a64(&golden.output),
                FaultModel::BitFlip.name(),
            ),
            // Version 2: the fingerprint binds the fault-model set.
            version: 2,
            ..Fingerprint::default()
        },
        meta: Vec::new(),
    }
    .run_tally(opts, |_, &f| {
        let out = faulty_run(module, input, &golden, f);
        // A run that burns its whole dynamic-instruction budget (the
        // software layer's watchdog) is a Crash-class record, and also a
        // watchdog expiry in the metrics.
        if out.status == RunStatus::Timeout {
            if let Some(m) = opts.metrics {
                m.record_watchdog_expiry();
            }
        }
        classify(out.status, &out.output, golden.status, &golden.output)
    })
    .map_err(SvfError::Journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_workloads::WorkloadId;

    fn tally(w: &vulnstack_workloads::Workload, n: usize, seed: u64, threads: usize) -> Tally {
        svf_campaign(
            &w.module,
            &w.input,
            &w.expected_output,
            n,
            seed,
            &RunOpts::new(threads),
        )
        .unwrap()
        .tally
    }

    #[test]
    fn campaign_runs_and_is_deterministic() {
        let w = WorkloadId::Crc32.build();
        let a = tally(&w, 40, 1, 1);
        let b = tally(&w, 40, 1, 4);
        assert_eq!(a, b);
        assert_eq!(a.total(), 40);
        // SVF injections hit live values: expect plenty of SDCs for a
        // checksum (every bit matters).
        assert!(a.sdc > 0, "{a:?}");
    }

    #[test]
    fn a_wrong_expected_output_is_refused() {
        let w = WorkloadId::Crc32.build();
        let mut expected = w.expected_output.clone();
        expected.push(b'!');
        let err = svf_campaign(&w.module, &w.input, &expected, 4, 1, &RunOpts::new(1)).unwrap_err();
        match err {
            SvfError::GoldenOutput { found, expected: e } => assert_eq!(found + 1, e),
            other => panic!("expected a golden-output error, got {other}"),
        }
    }

    #[test]
    fn breakdown_covers_multiple_classes() {
        let w = WorkloadId::Sha.build();
        let b = svf_breakdown(&w.module, &w.input, 60, 3);
        assert!(b.len() >= 2, "expected several instruction classes: {b:?}");
        let total: u64 = b.values().map(|t| t.total()).sum();
        assert!(total > 0 && total <= 60);
        // Arithmetic is the bulk of sha's dynamic instructions.
        assert!(b.contains_key(&InstrClass::Arith), "{b:?}");
    }

    #[test]
    fn classification_mirrors_paper_classes() {
        let g = RunStatus::Exited(0);
        assert_eq!(
            classify(RunStatus::Exited(0), b"x", g, b"x"),
            FaultEffect::Masked
        );
        assert_eq!(
            classify(RunStatus::Exited(0), b"y", g, b"x"),
            FaultEffect::Sdc
        );
        assert_eq!(
            classify(
                RunStatus::Trapped(vulnstack_isa::TrapCause::AccessFault),
                b"x",
                g,
                b"x"
            ),
            FaultEffect::Crash
        );
        assert_eq!(
            classify(RunStatus::Timeout, b"", g, b"x"),
            FaultEffect::Crash
        );
        assert_eq!(
            classify(RunStatus::Detected(2), b"", g, b"x"),
            FaultEffect::Detected
        );
    }
}
