//! Architecture-level (PVF) fault-injection campaigns on the functional
//! full-system core.
//!
//! Faults are persistent single-bit flips in *architecturally visible*
//! state belonging to the program flow (paper §II.B): registers and
//! touched memory for the WD population, operand/immediate fields of
//! executed instructions for WOI, opcode/control-flow fields for WI.
//! Kernel instructions executed on behalf of the program are part of the
//! population — the key visibility difference from SVF.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vulnstack_core::effects::FaultEffect;
use vulnstack_core::journal::{fnv1a64, Fingerprint, JournalError};
use vulnstack_core::{Campaign, RunOpts, TallyStreamed};
use vulnstack_isa::fields::bits_of_class;
use vulnstack_isa::{BitClass, Reg};
use vulnstack_microarch::func::{FuncCore, PvfFault, PvfMutation};

use crate::prepare::FuncPrepared;

/// PVF fault-propagation-model population (paper Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PvfMode {
    /// Wrong Data: registers and program-flow memory bytes.
    Wd,
    /// Wrong Operand or Immediate: operand fields of executed
    /// instructions.
    Woi,
    /// Wrong Instruction: opcode and control-flow fields of executed
    /// instructions.
    Wi,
}

impl PvfMode {
    /// All modes.
    pub const ALL: [PvfMode; 3] = [PvfMode::Wd, PvfMode::Woi, PvfMode::Wi];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            PvfMode::Wd => "WD",
            PvfMode::Woi => "WOI",
            PvfMode::Wi => "WI",
        }
    }
}

impl std::fmt::Display for PvfMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PvfMode {
    type Err = String;

    /// Parses [`PvfMode::name`] in any letter case (`wd`, `woi`, `wi`
    /// on the command line).
    fn from_str(s: &str) -> Result<PvfMode, String> {
        PvfMode::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown mode {s} (expected wd|woi|wi)"))
    }
}

fn classify_outcome(prep: &FuncPrepared, out: &vulnstack_microarch::SimOutcome) -> FaultEffect {
    FaultEffect::classify(
        out.status,
        &out.output,
        prep.golden.status,
        &prep.expected_output,
    )
}

/// Runs one WD injection: flip a register or program-flow memory bit at a
/// random dynamic instant. `start(k)` yields a fault-free core at or
/// before dynamic instruction `k`.
fn run_wd(prep: &FuncPrepared, rng: &mut StdRng, start: &impl Fn(u64) -> FuncCore) -> FaultEffect {
    let at_instr = rng.gen_range(0..prep.golden.instrs);
    let xlen = prep.isa.xlen() as u64;
    let reg_bits = prep.isa.num_regs() as u64 * xlen;
    let mem_bits = prep.profile.touched_bytes.len() as u64 * 8;
    // The WD population splits evenly between the architectural register
    // file and loaded/stored data (PVF studies in the literature centre on
    // registers; weighting purely by bit count would drown them in memory
    // bits — see DESIGN.md).
    let use_reg = mem_bits == 0 || rng.gen_range(0..2) == 0;
    let mutation = if use_reg {
        let pick = rng.gen_range(0..reg_bits);
        PvfMutation::FlipReg {
            reg: Reg((pick / xlen) as u8),
            bit: (pick % xlen) as u8,
        }
    } else {
        let m = rng.gen_range(0..mem_bits);
        let idx = (m / 8) as usize % prep.profile.touched_bytes.len().max(1);
        PvfMutation::FlipMem {
            addr: prep.profile.touched_bytes[idx],
            bit: (m % 8) as u8,
        }
    };
    let out = start(at_instr)
        .with_fault(PvfFault { at_instr, mutation })
        .run(prep.budget);
    classify_outcome(prep, &out)
}

/// Runs one WOI/WI injection: step to a random dynamic instruction, flip
/// a bit of the target class in its encoding (persistent text
/// corruption).
fn run_encoding(
    prep: &FuncPrepared,
    class: BitClass,
    rng: &mut StdRng,
    start: &impl Fn(u64) -> FuncCore,
) -> FaultEffect {
    // A few resampling attempts in case the chosen instruction has no bits
    // of the desired class (e.g. `syscall` has no operand bits).
    for _ in 0..16 {
        let k = rng.gen_range(0..prep.golden.instrs);
        let mut core = start(k);
        while core.icount() < k && core.step() {}
        if core.ended() {
            continue;
        }
        let pc = core.pc() as u32;
        let word = core.peek(pc, 4) as u32;
        let candidates = bits_of_class(word, class);
        if candidates.is_empty() {
            continue;
        }
        let bit = candidates[rng.gen_range(0..candidates.len())];
        core.poke_bit(pc + bit / 8, (bit % 8) as u8);
        return classify_outcome(prep, &core.run(prep.budget));
    }
    // Could not place a fault of this class: architecturally masked.
    FaultEffect::Masked
}

/// Runs site `i` of the `mode` campaign seeded with `seed`: the per-site
/// function [`pvf_campaign`] calls. The site is seeded from its index, so
/// the outcome does not depend on which worker runs it, and the run
/// resumes from the golden checkpoint nearest to (at or before) the
/// fault instead of re-executing the fault-free prefix.
pub fn run_indexed(prep: &FuncPrepared, mode: PvfMode, seed: u64, i: usize) -> FaultEffect {
    run_indexed_from(prep, mode, seed, i, |k| prep.checkpoints.restore(k))
}

/// [`run_indexed`] with the fault-free core at or before dynamic
/// instruction `k` supplied by `start(k)`; any such core gives the same
/// outcome (a fresh [`FuncCore::new`] is the from-scratch reference).
pub fn run_indexed_from(
    prep: &FuncPrepared,
    mode: PvfMode,
    seed: u64,
    i: usize,
    start: impl Fn(u64) -> FuncCore,
) -> FaultEffect {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37).wrapping_add(i as u64));
    match mode {
        PvfMode::Wd => run_wd(prep, &mut rng, &start),
        PvfMode::Woi => run_encoding(prep, BitClass::Operand, &mut rng, &start),
        PvfMode::Wi => run_encoding(prep, BitClass::Instruction, &mut rng, &start),
    }
}

/// Runs an architecture-level campaign of `n` faults in `mode` as
/// `opts` says, on `opts.threads` workers with work stealing. Each fault
/// is seeded from its campaign index, so the tally is deterministic for
/// a given `seed` at any thread count, journaled or not. Each settled
/// injection flows through the bounded sink channel into the tally fold
/// (and, with `opts.journal`, the journal).
///
/// # Errors
///
/// Any [`JournalError`] (journaled runs).
pub fn pvf_campaign(
    prep: &FuncPrepared,
    mode: PvfMode,
    n: usize,
    seed: u64,
    opts: &RunOpts<'_>,
) -> Result<TallyStreamed, JournalError> {
    let indices: Vec<usize> = (0..n).collect();
    Campaign {
        items: &indices,
        order: &indices,
        fingerprint: Fingerprint {
            engine: "gefin-pvf".to_string(),
            config: prep.isa.name().to_string(),
            structure: "-".to_string(),
            seed,
            samples: n as u64,
            params: format!(
                "mode={};golden_instrs={};output={:016x}",
                mode.name(),
                prep.golden.instrs,
                fnv1a64(&prep.expected_output)
            ),
            version: crate::avf::RECORD_VERSION,
            ..Fingerprint::default()
        },
        meta: Vec::new(),
    }
    .run_tally(opts, |_, &i| run_indexed(prep, mode, seed, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_core::Tally;
    use vulnstack_isa::Isa;
    use vulnstack_workloads::WorkloadId;

    fn tally(prep: &FuncPrepared, mode: PvfMode, n: usize, seed: u64, threads: usize) -> Tally {
        pvf_campaign(prep, mode, n, seed, &RunOpts::new(threads))
            .unwrap()
            .tally
    }

    #[test]
    fn wd_campaign_runs_and_mixes() {
        let w = WorkloadId::Crc32.build();
        let prep = FuncPrepared::new(&w, Isa::Va64).unwrap();
        let t = tally(&prep, PvfMode::Wd, 30, 3, 4);
        assert_eq!(t.total(), 30);
        // Architectural faults in the program flow are much more likely
        // to matter than raw hardware bits, but masking still exists.
        assert!(t.masked > 0 || t.sdc + t.crash > 0);
    }

    #[test]
    fn wi_faults_skew_toward_crashes() {
        let w = WorkloadId::Smooth.build();
        let prep = FuncPrepared::new(&w, Isa::Va64).unwrap();
        let wi = tally(&prep, PvfMode::Wi, 40, 5, 4);
        assert_eq!(wi.total(), 40);
        // Opcode/control-flow corruption should produce a solid share of
        // crashes (invalid opcodes, wild jumps).
        assert!(wi.crash > 0, "{wi:?}");
    }

    #[test]
    fn campaign_deterministic_across_thread_counts() {
        let w = WorkloadId::Crc32.build();
        let prep = FuncPrepared::new(&w, Isa::Va32).unwrap();
        let a = tally(&prep, PvfMode::Woi, 16, 9, 1);
        let b = tally(&prep, PvfMode::Woi, 16, 9, 4);
        assert_eq!(a, b);
    }
}
