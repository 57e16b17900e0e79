//! Equivalence-class fault-site pruning and exactness-checked early
//! termination.
//!
//! A statistical AVF campaign spends most of its cycles discovering, one
//! full simulation at a time, that a flipped bit was never going to
//! matter. This module removes that cost without changing a single
//! record, using two independent accelerations that are both *exact* —
//! the pruned campaign's per-site `(effect, fpm, fpm_cycle)` records are
//! bit-identical to the unpruned campaign's (asserted by
//! `tests/prune_equivalence.rs`):
//!
//! 1. **Dead-interval classification** ([`ClassTable`]). One extra
//!    *instrumented* golden run records, per physical register, the full
//!    cycle-ordered read/write access sequence ([`RfAccessLog`]), and,
//!    per cycle, which LSQ entries are *armed* (the only entries whose
//!    flips [`OooCore::inject`] taints). A register-file flip whose next
//!    access is a write — or that is never accessed again — is provably
//!    Masked: the corrupt value is repaired before any read, or never
//!    read at all, so the faulty run retraces the golden run and the
//!    campaign records `(Masked, None, None)` without simulating. An
//!    un-armed LSQ flip lands in a field that dispatch or execute
//!    rewrites before any use: same verdict, same zero cost.
//! 2. **Pilot injections per equivalence class.** Two same-bit flips
//!    injected at different cycles inside the same access gap (no
//!    intervening access to that register) build bit-identical faulty
//!    machines from the later cycle onward, so they share one outcome
//!    triple. The pruner runs the first such site it meets as the
//!    class *pilot* and serves every other member from a memo keyed by
//!    [`ClassKey`] `(bit, gap)`. Each record still carries its own
//!    `(cycle, bit)`; only the outcome triple is shared — which is
//!    exactly what an individual simulation of each member would have
//!    produced.
//!
//! On top of both, the pruner's injection runner adds **early
//! termination**: once the faulty bit has been overwritten or squashed
//! and the *whole architectural state* re-converges with the golden
//! checkpoint at the same cycle ([`OooCore::converged_with`] at a
//! [`CheckpointStore::at`] boundary), the remaining simulation is
//! known to retrace the golden run, so the run ends immediately with
//! `effect = Masked` and the already-latched `fpm`/`fpm_cycle`. The
//! check only fires for runs whose fault already manifested
//! (`fpm.is_some()`); taint-free convergence is caught earlier and
//! cheaper by [`OooCore::fault_extinct`]. The lifetime trace records the
//! proof as a [`FaultEventKind::PrunedExtinct`] milestone.
//!
//! Convergence only catches runs that return to the golden trajectory.
//! The opposite extreme — runs the fault locked into a hang — are the
//! single most expensive outcome (they simulate to the full cycle
//! budget), and for those the runner adds **proven-hang termination**.
//! `FaultEffect::classify` maps `Timeout` to `Crash` without consulting
//! the output, and `fpm`/`fpm_cycle` latch at first manifestation, so an
//! exact record needs only a *proof* of the `Timeout` status. Two proof
//! rules run at scheduled attempt points (doubling back-off) once a
//! manifested run outlives twice the golden cycle count:
//!
//! * **Frozen wedge** ([`OooCore::frozen_with`]): the core is compared
//!   against a clone of *itself* taken earlier in the same run; if every
//!   behavioral field is identical across a nonempty cycle window, the
//!   pipeline state is cycle-shift covariant and can never commit again
//!   — the commit watchdog's `Timeout` is the only reachable ending.
//! * **Runaway affine loop** ([`OooCore::timeout_proven`]): the
//!   committed-trace tail is locked into a periodic body whose registers
//!   evolve affinely; an exact congruence solve over the branch operands
//!   plus memory-range obligations proves the stream cannot branch out,
//!   trap, or halt before the budget. Only attempted for injected
//!   structures that cannot corrupt the instruction stream
//!   (register file, LSQ): a poisoned L1i/L2 line could make a future
//!   re-fetch decode differently than the trace recorded.
//!
//! Both rules prove the status *either way*: if commits continue the
//! budget expires, and if they stall the watchdog fires — `Timeout`
//! regardless. The lifetime trace records the proof as a
//! [`FaultEventKind::ProvenHang`] milestone, and the record returned is
//! `(Crash, fpm, fpm_cycle)` — exactly what `finish()` at the budget
//! would have produced.
//!
//! [`RfAccessLog`]: vulnstack_microarch::ooo::RfAccessLog
//! [`FaultEventKind::PrunedExtinct`]: vulnstack_microarch::lifetime::FaultEventKind::PrunedExtinct
//! [`FaultEventKind::ProvenHang`]: vulnstack_microarch::lifetime::FaultEventKind::ProvenHang
//! [`CheckpointStore::at`]: vulnstack_microarch::snapshot::CheckpointStore::at

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vulnstack_analyze::StaticClassifier;
use vulnstack_core::effects::FaultEffect;
use vulnstack_core::trace::CampaignMetrics;
use vulnstack_kernel::{memmap, SystemImage};
use vulnstack_microarch::ooo::{lsq_site, rf_site, Fpm, HwStructure, LsqSite, RfAccess};
use vulnstack_microarch::{FaultModel, OooCore, RunStatus};

use crate::avf::{InjectionRecord, ModelSite};
use crate::prepare::Prepared;

/// Builds the static pruning oracle for an image: scans every
/// *executable* segment (kernel boot stub, trap handler, user text) and
/// proves architectural registers dead that no executable word names.
/// See [`StaticClassifier`] for the soundness argument; the lattice
/// `static-dead ⊆ dynamic-dead ⊆ injection-Masked` is enforced by
/// `tests/prune_soundness.rs`.
pub fn static_classifier(image: &SystemImage) -> StaticClassifier {
    let exec_bases = [memmap::KERNEL_BOOT, memmap::TRAP_VEC, memmap::USER_TEXT];
    let words: Vec<Vec<u32>> = image
        .segments
        .iter()
        .filter(|(base, _)| exec_bases.contains(base))
        .map(|(_, bytes)| {
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect()
        })
        .collect();
    StaticClassifier::build(image.isa, words.iter().map(|w| w.as_slice()))
}

/// Identity of a register-file equivalence class: all injections of
/// `bit` under `model` whose next *relevant* event is the same one
/// (`gap` = index of that event). For the value models the relevant
/// sequence is the target register's access log (same gap ⇒ no
/// intervening access ⇒ identical pre-injection value ⇒ identical
/// faulty machine from the later cycle onward). For
/// [`FaultModel::InstrSkip`] it is the golden run's decoded-dispatch
/// sequence: the pending skip is behaviorally latent until the next
/// decoded dispatch fires it, so two injections ahead of the same
/// dispatch event build identical machines at that dispatch. Every
/// member produces the same `(effect, fpm, fpm_cycle)` triple, so one
/// pilot simulation settles the whole class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassKey {
    /// The fault model of every member.
    pub model: FaultModel,
    /// Site index within the model's own site space (flat bit for
    /// bit-flip/stuck-at, byte index for byte corruption, `0` for the
    /// single instruction-skip site).
    pub bit: u64,
    /// Index of the next relevant event in the model's sequence.
    pub gap: u64,
}

/// Classification of one `(cycle, bit)` fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// Provably Masked from the golden run's access intervals; recorded
    /// as `(Masked, None, None)` with zero simulation.
    DeadMasked,
    /// Member of a register-file equivalence class; one pilot injection
    /// settles every member.
    Equiv(ClassKey),
    /// No pruning argument applies; simulated individually.
    Singleton,
}

/// Per-cycle armed-entry masks of the LSQ along the golden run
/// (`lq`/`sq` bit `i` set ⇔ entry `i`'s flips would be tainted by
/// [`vulnstack_microarch::OooCore::inject`] at the end of that cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ArmedMask {
    lq: u32,
    sq: u32,
}

/// Streaming FNV-1a (same constants as `vulnstack_core::journal::fnv1a64`,
/// asserted by a unit test) so large class tables hash without building
/// one contiguous byte buffer.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The golden run's fault-site equivalence structure for one
/// `(workload, core, structure)` triple, built from a single
/// instrumented re-run of the golden execution.
///
/// Deterministic: the simulator draws no external entropy, so two builds
/// over the same [`Prepared`] produce identical tables — which is what
/// lets resumed campaigns verify agreement through the journal's
/// `class-table` metadata digest instead of re-serialising the table.
#[derive(Debug)]
pub struct ClassTable {
    structure: HwStructure,
    golden_cycles: u64,
    xlen: u64,
    /// Per-preg cycle-ordered access events (RF only; the in-vector
    /// order is execution order, so same-cycle write-then-read sequences
    /// classify correctly).
    rf_events: Vec<Vec<RfAccess>>,
    /// Cycles at which the golden run dispatched a *decoded*
    /// instruction, in order (RF only; the instruction-skip model's
    /// event sequence).
    dispatch_cycles: Vec<u64>,
    lq_len: usize,
    sq_len: usize,
    /// Armed masks indexed by cycle, `0..=golden_cycles` (LSQ only).
    armed: Vec<ArmedMask>,
    digest: u64,
}

impl ClassTable {
    /// Builds the table by re-running the golden execution once with
    /// instrumentation: the RF access log for [`HwStructure::RegisterFile`],
    /// per-cycle armed masks for [`HwStructure::Lsq`]. Cache structures
    /// need no table (every site is a [`SiteClass::Singleton`]) and cost
    /// nothing here.
    ///
    /// # Panics
    ///
    /// Panics if the instrumented run fails to retrace the reference
    /// golden run (observer hooks must never perturb simulation).
    pub fn build(prep: &Prepared, structure: HwStructure) -> ClassTable {
        let xlen = prep.cfg.isa.xlen() as u64;
        let mut rf_events: Vec<Vec<RfAccess>> = Vec::new();
        let mut dispatch_cycles: Vec<u64> = Vec::new();
        let mut armed: Vec<ArmedMask> = Vec::new();
        match structure {
            HwStructure::RegisterFile => {
                let mut core = prep.core_from_scratch();
                core.enable_rf_log();
                core.enable_dispatch_log();
                core.run_until(prep.budget);
                assert_eq!(
                    core.cycle(),
                    prep.golden.cycles,
                    "instrumented golden run diverged from the reference golden run"
                );
                let log = core.take_rf_log().expect("rf log was enabled");
                rf_events = (0..log.num_pregs())
                    .map(|p| log.events(p).to_vec())
                    .collect();
                dispatch_cycles = core.take_dispatch_log().expect("dispatch log was enabled");
            }
            HwStructure::Lsq => {
                // Step the golden run cycle by cycle, sampling which LSQ
                // entries are armed at the end of each cycle — exactly
                // the state an injection at that cycle sees, since
                // `run_one` injects after `run_until(cycle)` returns.
                let mut core = prep.core_from_scratch();
                armed.push(ArmedMask {
                    lq: core.lq_armed(),
                    sq: core.sq_armed(),
                });
                for c in 1..=prep.golden.cycles {
                    core.run_until(c);
                    armed.push(ArmedMask {
                        lq: core.lq_armed(),
                        sq: core.sq_armed(),
                    });
                }
                assert_eq!(
                    core.cycle(),
                    prep.golden.cycles,
                    "instrumented golden run diverged from the reference golden run"
                );
            }
            HwStructure::L1i | HwStructure::L1d | HwStructure::L2 => {}
        }
        let mut t = ClassTable {
            structure,
            golden_cycles: prep.golden.cycles,
            xlen,
            rf_events,
            dispatch_cycles,
            lq_len: prep.cfg.lq_entries as usize,
            sq_len: prep.cfg.sq_entries as usize,
            armed,
            digest: 0,
        };
        t.digest = t.compute_digest();
        t
    }

    /// Canonical content digest, used as the journal's `class-table`
    /// metadata payload so a resumed campaign refuses to mix records
    /// pruned under a different table.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn compute_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.structure.name().as_bytes());
        h.u64(self.golden_cycles);
        h.u64(self.xlen);
        h.u64(self.rf_events.len() as u64);
        for ev in &self.rf_events {
            h.u64(ev.len() as u64);
            for e in ev {
                h.u64(e.cycle);
                h.u64(e.write as u64);
            }
        }
        h.u64(self.dispatch_cycles.len() as u64);
        for &c in &self.dispatch_cycles {
            h.u64(c);
        }
        h.u64(self.lq_len as u64);
        h.u64(self.sq_len as u64);
        h.u64(self.armed.len() as u64);
        for m in &self.armed {
            h.u64(m.lq as u64);
            h.u64(m.sq as u64);
        }
        h.0
    }

    /// Classifies a bit-flip injection of `bit` at the end of `cycle`:
    /// [`ClassTable::classify_model`] under the legacy model.
    pub fn classify(&self, cycle: u64, bit: u64) -> SiteClass {
        self.classify_model(cycle, bit, FaultModel::BitFlip)
    }

    /// Classifies an injection of site `bit` under `model` at the end of
    /// `cycle`.
    ///
    /// The decode shares [`rf_site`]/[`lsq_site`] with
    /// [`vulnstack_microarch::OooCore::inject_model`], so a site the
    /// core would reject panics here with the same message instead of
    /// silently wrapping onto a different register (the historical
    /// `%`-wrap / SQ-clamp mirror bugs). Cycles past the golden run's
    /// end clamp to the terminal state — an ended core no longer
    /// changes, so the terminal masks are exact for them.
    ///
    /// Per-model dead rules differ where the fault's *persistence*
    /// does: a transient value corruption (bit-flip, byte corruption)
    /// is dead when the next access is a write — the corruption is
    /// repaired before any read — or when no access remains. A
    /// stuck-at cell is dead only when **every** remaining access is a
    /// write: the cell re-asserts over each of them, so any later read
    /// observes the corruption no matter how many writes preceded it.
    /// An instruction skip is dead only when the golden run dispatches
    /// no further decoded instruction (the pending skip never fires).
    ///
    /// # Panics
    ///
    /// Panics when `model` does not apply to this structure, or when
    /// the site index is outside `model`'s site space (mirroring
    /// `inject_model`).
    pub fn classify_model(&self, cycle: u64, bit: u64, model: FaultModel) -> SiteClass {
        assert!(
            self.structure.admits(model),
            "{model} does not apply to {}",
            self.structure
        );
        match self.structure {
            HwStructure::RegisterFile => {
                if model == FaultModel::InstrSkip {
                    assert_eq!(bit, 0, "instruction skip has a single site");
                    let gap = self.dispatch_cycles.partition_point(|&dc| dc <= cycle);
                    return if gap == self.dispatch_cycles.len() {
                        SiteClass::DeadMasked
                    } else {
                        SiteClass::Equiv(ClassKey {
                            model,
                            bit,
                            gap: gap as u64,
                        })
                    };
                }
                let flat = if model == FaultModel::ByteCorrupt {
                    bit * 8
                } else {
                    bit
                };
                let (preg, _) = rf_site(flat, self.xlen as u32, self.rf_events.len())
                    .unwrap_or_else(|| panic!("RF fault site bit {bit} out of range"));
                let ev = &self.rf_events[preg];
                // First access strictly after the injection point: the
                // corruption happens after all of `cycle`'s events.
                let gap = ev.partition_point(|e| e.cycle <= cycle);
                let dead = if model == FaultModel::StuckAt {
                    ev[gap..].iter().all(|e| e.write)
                } else {
                    gap == ev.len() || ev[gap].write
                };
                if dead {
                    SiteClass::DeadMasked
                } else {
                    SiteClass::Equiv(ClassKey {
                        model,
                        bit,
                        gap: gap as u64,
                    })
                }
            }
            HwStructure::Lsq => {
                let m = self.armed[cycle.min(self.golden_cycles) as usize];
                let flat = if model == FaultModel::ByteCorrupt {
                    bit * 8
                } else {
                    bit
                };
                let site = lsq_site(flat, self.xlen as u32, self.lq_len, self.sq_len)
                    .unwrap_or_else(|| panic!("LSQ fault site bit {bit} out of range"));
                let entry_armed = match site {
                    LsqSite::LqAddr { entry, .. } => m.lq & (1u32 << entry) != 0,
                    LsqSite::SqAddr { entry, .. } | LsqSite::SqData { entry, .. } => {
                        m.sq & (1u32 << entry) != 0
                    }
                };
                if entry_armed {
                    // Armed LSQ corruptions have no interval argument
                    // (the entry drains within a few cycles); simulate
                    // each.
                    SiteClass::Singleton
                } else {
                    SiteClass::DeadMasked
                }
            }
            HwStructure::L1i | HwStructure::L1d | HwStructure::L2 => SiteClass::Singleton,
        }
    }

    /// Fraction of (physical register × cycle) space where a flip is
    /// *live* (classified [`SiteClass::Equiv`], i.e. the next access is
    /// a read) — the dynamic counterpart of the static analyzer's
    /// register-file PVF, which must bound it from above
    /// (`vulnstack-analyze` liveness cannot see logical masking, so it
    /// over-approximates). `None` for non-RF tables.
    pub fn rf_dynamic_live_fraction(&self) -> Option<f64> {
        if self.structure != HwStructure::RegisterFile {
            return None;
        }
        let mut live = 0u64;
        for ev in &self.rf_events {
            for (i, e) in ev.iter().enumerate() {
                if !e.write {
                    // Injection cycles classified into this read's gap:
                    // `prev.cycle ..= e.cycle - 1`, clipped to the
                    // campaign's sampling range (cycles start at 1).
                    let lo = if i == 0 { 1 } else { ev[i - 1].cycle.max(1) };
                    live += e.cycle.saturating_sub(lo);
                }
            }
        }
        let space = self.rf_events.len() as u64 * self.golden_cycles.max(1);
        Some(live as f64 / space as f64)
    }

    /// The target structure.
    pub fn structure(&self) -> HwStructure {
        self.structure
    }
}

/// Snapshot of a pruner's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PruneStats {
    /// Sites served in total.
    pub sites: u64,
    /// Sites classified Masked from the table alone (zero simulation).
    /// Includes the statically-proven subset counted by `static_dead`.
    pub dead_masked: u64,
    /// Sites proven Masked by the *static* oracle before the dynamic
    /// table was even consulted (a subset of `dead_masked`).
    pub static_dead: u64,
    /// Class pilot simulations actually run.
    pub pilot_runs: u64,
    /// Sites served from a class pilot's memoized triple.
    pub memo_hits: u64,
    /// Sites simulated individually (no pruning argument).
    pub singleton_runs: u64,
    /// Simulated runs ended early by the convergence probe.
    pub early_terminated: u64,
    /// Simulated runs ended early by a hang proof (frozen wedge or
    /// runaway affine loop): the terminal `Timeout` was certified
    /// without simulating to the budget.
    pub runaway_terminated: u64,
    /// Dynamic RF live fraction from the class table (RF campaigns
    /// only); the static analyzer's `rf_pvf` must be ≥ this.
    pub dynamic_rf_live_fraction: Option<f64>,
    /// Fraction of the physical register file the static oracle proves
    /// dead with zero simulation (RF campaigns only); the complement of
    /// this is an upper bound on `dynamic_rf_live_fraction`.
    pub static_rf_dead_fraction: Option<f64>,
}

impl PruneStats {
    /// Sites that needed no individual simulation.
    pub fn sites_pruned(&self) -> u64 {
        self.dead_masked + self.memo_hits
    }
}

/// The memoized outcome triple of a class pilot: exactly the fields of
/// an [`InjectionRecord`] that are shared across the class (each member
/// still carries its own `(cycle, bit)`).
type OutcomeTriple = (FaultEffect, Option<Fpm>, Option<u64>);

/// A memoizing, exactness-preserving injection executor: a drop-in
/// replacement for the plain per-site runner that serves provably-dead
/// sites from the [`ClassTable`], equivalence-class members from one
/// pilot simulation, and everything else from an early-terminating
/// individual run. Thread-safe; records are a pure function of
/// `(cycle, bit)`, so campaign output is independent of thread count,
/// work order, and which worker happens to run a class pilot.
#[derive(Debug)]
pub struct Pruner<'a> {
    prep: &'a Prepared,
    structure: HwStructure,
    table: ClassTable,
    /// Static pruning oracle, consulted before the dynamic table (RF
    /// campaigns only — the static argument says nothing about LSQ or
    /// cache sites).
    static_pre: Option<StaticClassifier>,
    /// Physical register count, for the static oracle's flat-bit decode.
    nphys: usize,
    memo: Mutex<HashMap<ClassKey, OutcomeTriple>>,
    sites: AtomicU64,
    dead_masked: AtomicU64,
    static_dead: AtomicU64,
    pilot_runs: AtomicU64,
    memo_hits: AtomicU64,
    singleton_runs: AtomicU64,
    early_terminated: AtomicU64,
    runaway_terminated: AtomicU64,
}

impl<'a> Pruner<'a> {
    /// Builds the class table and a pruner over it.
    pub fn new(prep: &'a Prepared, structure: HwStructure) -> Pruner<'a> {
        let static_pre =
            (structure == HwStructure::RegisterFile).then(|| static_classifier(&prep.image));
        Pruner {
            prep,
            structure,
            table: ClassTable::build(prep, structure),
            static_pre,
            nphys: prep.cfg.phys_regs as usize,
            memo: Mutex::new(HashMap::new()),
            sites: AtomicU64::new(0),
            dead_masked: AtomicU64::new(0),
            static_dead: AtomicU64::new(0),
            pilot_runs: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            singleton_runs: AtomicU64::new(0),
            early_terminated: AtomicU64::new(0),
            runaway_terminated: AtomicU64::new(0),
        }
    }

    /// The class table the pruner consults.
    pub fn table(&self) -> &ClassTable {
        &self.table
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> PruneStats {
        PruneStats {
            sites: self.sites.load(Ordering::Relaxed),
            dead_masked: self.dead_masked.load(Ordering::Relaxed),
            static_dead: self.static_dead.load(Ordering::Relaxed),
            pilot_runs: self.pilot_runs.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            singleton_runs: self.singleton_runs.load(Ordering::Relaxed),
            early_terminated: self.early_terminated.load(Ordering::Relaxed),
            runaway_terminated: self.runaway_terminated.load(Ordering::Relaxed),
            dynamic_rf_live_fraction: self.table.rf_dynamic_live_fraction(),
            static_rf_dead_fraction: self
                .static_pre
                .as_ref()
                .map(|c| c.static_dead_fraction(self.nphys)),
        }
    }

    /// Serves one bit-flip site, bit-identical to
    /// `run_one(prep, structure, cycle, bit)` but as cheap as the class
    /// table allows: [`Pruner::run_site_model`] under the legacy model.
    pub fn run_site(
        &self,
        cycle: u64,
        bit: u64,
        metrics: Option<&CampaignMetrics>,
    ) -> InjectionRecord {
        self.run_site_model(cycle, bit, FaultModel::BitFlip, metrics)
    }

    /// Serves one `(site, model)` pair, bit-identical to
    /// `run_one_model(prep, structure, site)` but as cheap as the class
    /// table allows.
    pub fn run_site_model(
        &self,
        cycle: u64,
        bit: u64,
        model: FaultModel,
        metrics: Option<&CampaignMetrics>,
    ) -> InjectionRecord {
        self.sites.fetch_add(1, Ordering::Relaxed);
        // Static pre-filter: a site landing in a physical register the
        // oracle proves never-accessed needs neither the dynamic table
        // nor a simulation. Such a register has an empty access log, so
        // the table would agree (`static-dead ⊆ dynamic-dead`); the
        // record is identical, the classification just costs less. The
        // argument covers every *value* model — a corruption (even a
        // persistent one) in a register that is never read nor written
        // is never consumed — but says nothing about instruction skips,
        // which corrupt no register at all.
        if model != FaultModel::InstrSkip {
            if let Some(c) = &self.static_pre {
                let flat = if model == FaultModel::ByteCorrupt {
                    bit * 8
                } else {
                    bit
                };
                if c.rf_bit_dead(flat, self.nphys) {
                    self.static_dead.fetch_add(1, Ordering::Relaxed);
                    self.dead_masked.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = metrics {
                        m.record_pruned_dead();
                    }
                    return InjectionRecord {
                        cycle,
                        bit,
                        model,
                        effect: FaultEffect::Masked,
                        fpm: None,
                        fpm_cycle: None,
                    };
                }
            }
        }
        match self.table.classify_model(cycle, bit, model) {
            SiteClass::DeadMasked => {
                self.dead_masked.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = metrics {
                    m.record_pruned_dead();
                }
                InjectionRecord {
                    cycle,
                    bit,
                    model,
                    effect: FaultEffect::Masked,
                    fpm: None,
                    fpm_cycle: None,
                }
            }
            SiteClass::Equiv(key) => {
                if let Some(&(effect, fpm, fpm_cycle)) = self.memo.lock().unwrap().get(&key) {
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                    return InjectionRecord {
                        cycle,
                        bit,
                        model,
                        effect,
                        fpm,
                        fpm_cycle,
                    };
                }
                // Miss: run the pilot at this member's own cycle. Two
                // workers racing on the same class both compute the
                // identical triple, so the double insert is idempotent
                // and the memo never influences record values.
                self.pilot_runs.fetch_add(1, Ordering::Relaxed);
                let rec = self.run_injected(cycle, bit, model, metrics);
                self.memo
                    .lock()
                    .unwrap()
                    .insert(key, (rec.effect, rec.fpm, rec.fpm_cycle));
                rec
            }
            SiteClass::Singleton => {
                self.singleton_runs.fetch_add(1, Ordering::Relaxed);
                self.run_injected(cycle, bit, model, metrics)
            }
        }
    }

    /// The pruner's individual-injection runner: the plain slice loop of
    /// `run_one_inner` plus the convergence probe. Probes happen only at
    /// checkpoint boundaries (the only cycles with comparable golden
    /// state) and only once the fault has architecturally manifested —
    /// a taint-free fault that dies quietly is caught first, and far
    /// cheaper, by `fault_extinct`. The probe schedule never changes
    /// record values: an early-terminated run returns exactly the
    /// `(Masked, fpm, fpm_cycle)` the full run would have produced.
    fn run_injected(
        &self,
        cycle: u64,
        bit: u64,
        model: FaultModel,
        metrics: Option<&CampaignMetrics>,
    ) -> InjectionRecord {
        let prep = self.prep;
        let mut core = prep.checkpoints.restore(cycle);
        if let Some(m) = metrics {
            m.record_restore_distance(prep.checkpoints.restore_distance(cycle));
        }
        core.run_until(cycle);
        core.inject_model(self.structure, bit, model);
        let interval = prep.checkpoints.interval();
        // Proven-hang termination: armed once a manifested run outlives
        // twice the golden cycle count, and only for injected structures
        // that cannot corrupt the *instruction* stream (an L1i/L2 flip
        // could make a future re-fetch decode differently than the
        // committed trace recorded, which would break the runaway
        // prover's extrapolation; RF/LSQ taint reaches memory only
        // through stores, which never land in user text) — and only for
        // transient value models: a stuck-at cell can re-corrupt writes
        // the runaway prover's affine extrapolation assumed clean, and a
        // still-pending skip can NOP an instruction the extrapolated
        // stream expects to execute.
        let hang_proofs = model.transient_value()
            && matches!(self.structure, HwStructure::RegisterFile | HwStructure::Lsq);
        let runaway_after = prep.golden.cycles.saturating_mul(2);
        // Each proof attempt needs a commit-trace window and a frozen
        // anchor gathered over the immediately preceding cycles: both are
        // armed PREARM cycles before the attempt, so the trace is still
        // recording (tail aligned with retirement state) at attempt time.
        const PREARM: u64 = 2_048;
        const TRACE_CAP: usize = 2_048 * 8 + 64; // PREARM × max width + slack
        const MAX_PROOF_GAP: u64 = 65_536;
        let mut proof_gap = interval.max(512);
        let mut next_proof: Option<u64> = None;
        let mut anchor: Option<OooCore> = None;
        let mut slice = 256u64;
        loop {
            if hang_proofs && next_proof.is_none() && core.fpm().is_some() {
                next_proof = Some(core.cycle().max(runaway_after) + proof_gap);
            }
            // Stop at the next checkpoint boundary as well, so the
            // convergence probe gets a comparable golden state.
            let boundary = (core.cycle() / interval + 1) * interval;
            let mut next = (core.cycle() + slice).min(prep.budget).min(boundary);
            if let Some(np) = next_proof {
                // Stop exactly at the arm point and the attempt point.
                // Extra stops never change simulation results: the
                // stepper is deterministic and the trace/anchor are
                // observer-only state.
                let arm_at = np.saturating_sub(PREARM);
                next = next.min(if core.cycle() < arm_at { arm_at } else { np });
            }
            slice = (slice * 2).min(4_096);
            core.run_until(next);
            if core.ended() || core.cycle() >= prep.budget {
                break;
            }
            if let Some(np) = next_proof {
                if core.cycle() >= np {
                    let frozen = anchor.as_ref().is_some_and(|a| core.frozen_with(a));
                    if frozen || core.timeout_proven(prep.budget) {
                        // Terminal status proven Timeout either way the
                        // pipeline goes (commits continue → budget;
                        // commits stall → watchdog), `classify` maps
                        // Timeout → Crash without consulting output, and
                        // `fpm`/`fpm_cycle` are already latched. Never
                        // call `finish()` here.
                        core.note_proven_hang();
                        self.runaway_terminated.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = metrics {
                            m.record_early_terminated();
                            // The proven status is Timeout, so keep the
                            // watchdog/budget-expiry metric consistent
                            // with what the full run would have counted.
                            m.record_watchdog_expiry();
                        }
                        return InjectionRecord {
                            cycle,
                            bit,
                            model,
                            effect: FaultEffect::Crash,
                            fpm: core.fpm(),
                            fpm_cycle: core.fpm_cycle(),
                        };
                    }
                    // Proof failed: back off (bounding prover cost on
                    // runs that genuinely churn) and re-arm later.
                    anchor = None;
                    proof_gap = (proof_gap * 2).min(MAX_PROOF_GAP);
                    next_proof = Some(core.cycle() + proof_gap);
                } else if anchor.is_none() && core.cycle() >= np.saturating_sub(PREARM) {
                    core.enable_trace(TRACE_CAP);
                    anchor = Some(core.clone());
                }
            }
            if core.fault_extinct() {
                if let Some(m) = metrics {
                    m.record_extinct_early();
                }
                core.note_fault_extinct();
                return InjectionRecord {
                    cycle,
                    bit,
                    model,
                    effect: FaultEffect::Masked,
                    fpm: None,
                    fpm_cycle: None,
                };
            }
            if core.fpm().is_some() {
                if let Some(golden) = prep.checkpoints.at(core.cycle()) {
                    if core.converged_with(golden) {
                        // The rest of the run retraces the golden run:
                        // terminal status and output are already known,
                        // and `fpm`/`fpm_cycle` are latched (first
                        // manifestation only). Never call `finish()`
                        // here — draining output mid-run would peek
                        // memory the real run only reads at its end.
                        core.note_pruned_extinct();
                        self.early_terminated.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = metrics {
                            m.record_early_terminated();
                        }
                        return InjectionRecord {
                            cycle,
                            bit,
                            model,
                            effect: FaultEffect::Masked,
                            fpm: core.fpm(),
                            fpm_cycle: core.fpm_cycle(),
                        };
                    }
                }
            }
        }
        let out = core.finish();
        if let Some(m) = metrics {
            if out.sim.status == RunStatus::Timeout {
                m.record_watchdog_expiry();
            }
        }
        let effect = FaultEffect::classify(
            out.sim.status,
            &out.sim.output,
            prep.golden.status,
            &prep.expected_output,
        );
        InjectionRecord {
            cycle,
            bit,
            model,
            effect,
            fpm: out.fpm,
            fpm_cycle: out.fpm_cycle,
        }
    }
}

/// How a campaign chooses and executes its fault sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPlan {
    /// Every site of every requested model's site space over the
    /// structure, all injected at one fixed cycle (exhaustive over
    /// space, not time). Executed through the [`Pruner`], whose
    /// per-model dead/equivalence arguments keep an all-(site,
    /// model)-pairs sweep tractable.
    Exhaustive {
        /// The single injection cycle.
        cycle: u64,
    },
    /// `n` uniformly-sampled `(cycle, bit)` sites (the classic
    /// campaign); executed unpruned.
    Sampled {
        /// Number of fault sites.
        n: usize,
        /// Sampling seed.
        seed: u64,
    },
    /// The *same* `n` sites as [`InjectionPlan::Sampled`] with the same
    /// seed, executed through the [`Pruner`] — bit-identical records,
    /// fraction of the wall clock.
    Pruned {
        /// Number of fault sites.
        n: usize,
        /// Sampling seed.
        seed: u64,
    },
}

impl InjectionPlan {
    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            InjectionPlan::Exhaustive { .. } => "exhaustive",
            InjectionPlan::Sampled { .. } => "sampled",
            InjectionPlan::Pruned { .. } => "pruned",
        }
    }
}

/// Materialises a plan's `(site, model)` pairs over a model set. An
/// [`InjectionPlan::Exhaustive`] plan enumerates, per applicable model
/// in canonical order, that model's *entire* site space at the fixed
/// cycle — the ARMORY-style exhaustive multi-model campaign, meant to
/// be executed through the [`Pruner`]. Sampling plans defer to
/// [`crate::avf::draw_model_sites`], which for `[FaultModel::BitFlip]`
/// draws exactly [`crate::avf::draw_sites`]'s sample. Sampled and
/// pruned plans with the same `(n, seed)` yield the same sites —
/// pruning changes execution, never the sample.
///
/// # Panics
///
/// Panics when no model in `models` applies to `structure`.
pub fn plan_model_sites(
    prep: &Prepared,
    structure: HwStructure,
    plan: &InjectionPlan,
    models: &[FaultModel],
) -> Vec<ModelSite> {
    match *plan {
        InjectionPlan::Exhaustive { cycle } => {
            let models = crate::avf::canonical_models(models, structure);
            assert!(!models.is_empty(), "no fault model applies to {structure}");
            models
                .into_iter()
                .flat_map(|model| {
                    (0..structure.sites(model, &prep.cfg)).map(move |bit| ModelSite {
                        cycle,
                        bit,
                        model,
                    })
                })
                .collect()
        }
        InjectionPlan::Sampled { n, seed } | InjectionPlan::Pruned { n, seed } => {
            crate::avf::draw_model_sites(prep, structure, n, seed, models)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avf::{draw_sites, run_one};
    use vulnstack_analyze::analyze;
    use vulnstack_compiler::{compile, CompileOpts};
    use vulnstack_microarch::CoreModel;
    use vulnstack_workloads::WorkloadId;

    #[test]
    fn streaming_fnv_matches_journal_fnv() {
        let data = b"vulnstack class table digest";
        let mut h = Fnv::new();
        h.bytes(data);
        assert_eq!(h.0, vulnstack_core::journal::fnv1a64(data));
    }

    #[test]
    fn class_table_is_deterministic_and_structure_specific() {
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A9).unwrap();
        let a = ClassTable::build(&prep, HwStructure::RegisterFile);
        let b = ClassTable::build(&prep, HwStructure::RegisterFile);
        assert_eq!(a.digest(), b.digest(), "same build must digest equal");
        let lsq = ClassTable::build(&prep, HwStructure::Lsq);
        assert_ne!(a.digest(), lsq.digest());
    }

    #[test]
    fn rf_pruned_records_match_individual_runs() {
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A72).unwrap();
        let pruner = Pruner::new(&prep, HwStructure::RegisterFile);
        for (c, b) in draw_sites(&prep, HwStructure::RegisterFile, 48, 23) {
            assert_eq!(
                pruner.run_site(c, b, None),
                run_one(&prep, HwStructure::RegisterFile, c, b),
                "pruned record diverged at cycle {c} bit {b}"
            );
        }
        let stats = pruner.stats();
        assert_eq!(stats.sites, 48);
        assert!(
            stats.dead_masked > 0,
            "a mostly-dead register file must yield dead sites: {stats:?}"
        );
    }

    #[test]
    fn lsq_pruned_records_match_individual_runs() {
        let w = WorkloadId::Qsort.build();
        let prep = Prepared::new(&w, CoreModel::A9).unwrap();
        let pruner = Pruner::new(&prep, HwStructure::Lsq);
        for (c, b) in draw_sites(&prep, HwStructure::Lsq, 32, 5) {
            assert_eq!(
                pruner.run_site(c, b, None),
                run_one(&prep, HwStructure::Lsq, c, b),
                "pruned record diverged at cycle {c} bit {b}"
            );
        }
        assert!(pruner.stats().dead_masked > 0);
    }

    #[test]
    fn dead_classification_is_confirmed_by_injection() {
        // A deterministic slice of the proptest oracle: every site the
        // table calls dead must come back (Masked, None, None) from a
        // real injection.
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A9).unwrap();
        let table = ClassTable::build(&prep, HwStructure::RegisterFile);
        let mut dead_checked = 0;
        for (c, b) in draw_sites(&prep, HwStructure::RegisterFile, 64, 91) {
            if table.classify(c, b) == SiteClass::DeadMasked {
                let r = run_one(&prep, HwStructure::RegisterFile, c, b);
                assert_eq!(
                    (r.effect, r.fpm, r.fpm_cycle),
                    (FaultEffect::Masked, None, None),
                    "dead-classified site (cycle {c}, bit {b}) was not masked"
                );
                dead_checked += 1;
            }
        }
        assert!(dead_checked > 0, "sample contained no dead sites");
    }

    #[test]
    fn memo_serves_class_members_without_resimulating() {
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A72).unwrap();
        let pruner = Pruner::new(&prep, HwStructure::RegisterFile);
        let table = ClassTable::build(&prep, HwStructure::RegisterFile);
        // Find one equivalence class with at least two member cycles
        // (bounded scan: any busy register yields one within a few
        // hundred cycles of the run's start).
        let mut member: Option<(u64, u64, u64)> = None;
        'outer: for bit in 0..HwStructure::RegisterFile.bits(&prep.cfg).min(4096) {
            for c in 1..prep.golden.cycles.min(5_000) {
                if let SiteClass::Equiv(k) = table.classify(c, bit) {
                    if table.classify(c + 1, bit) == SiteClass::Equiv(k) {
                        member = Some((bit, c, c + 1));
                        break 'outer;
                    }
                }
            }
        }
        let (bit, c1, c2) = member.expect("no two-member class found");
        let a = pruner.run_site(c1, bit, None);
        let b = pruner.run_site(c2, bit, None);
        assert_eq!(
            (a.effect, a.fpm, a.fpm_cycle),
            (b.effect, b.fpm, b.fpm_cycle)
        );
        assert_eq!(b.cycle, c2, "memo hits keep their own site identity");
        let stats = pruner.stats();
        assert_eq!(stats.pilot_runs, 1);
        assert_eq!(stats.memo_hits, 1);
        // The memoized triple equals an individual simulation's.
        assert_eq!(b, run_one(&prep, HwStructure::RegisterFile, c2, bit));
    }

    #[test]
    fn static_dead_sites_are_a_subset_of_dynamic_dead() {
        // The first rung of the soundness lattice, checked directly:
        // every register-file site the static oracle prunes must also be
        // DeadMasked by the dynamic class table.
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A72).unwrap();
        let oracle = static_classifier(&prep.image);
        let nphys = prep.cfg.phys_regs as usize;
        assert!(
            !oracle.dead_regs().is_empty(),
            "a 32-register ISA program must leave some registers untouched"
        );
        let table = ClassTable::build(&prep, HwStructure::RegisterFile);
        for (c, b) in draw_sites(&prep, HwStructure::RegisterFile, 256, 7) {
            if oracle.rf_bit_dead(b, nphys) {
                assert_eq!(
                    table.classify(c, b),
                    SiteClass::DeadMasked,
                    "static-dead site (cycle {c}, bit {b}) not dynamically dead"
                );
            }
        }
    }

    #[test]
    fn static_prefilter_counts_into_dead_masked() {
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A72).unwrap();
        let pruner = Pruner::new(&prep, HwStructure::RegisterFile);
        for (c, b) in draw_sites(&prep, HwStructure::RegisterFile, 96, 41) {
            pruner.run_site(c, b, None);
        }
        let stats = pruner.stats();
        assert!(
            stats.static_dead > 0,
            "no statically-proven sites: {stats:?}"
        );
        assert!(stats.static_dead <= stats.dead_masked);
        let frac = stats.static_rf_dead_fraction.expect("RF campaign");
        assert!(frac > 0.0 && frac < 1.0, "fraction {frac}");
    }

    #[test]
    fn static_rf_pvf_bounds_dynamic_live_fraction() {
        // vulnstack-analyze liveness must agree with (over-approximate)
        // the dynamic view the class table measures: static analysis
        // cannot see logical masking or physical-register dilution, so
        // its architectural RF PVF sits above the physical live
        // fraction.
        let w = WorkloadId::Crc32.build();
        let model = CoreModel::A72;
        let prep = Prepared::new(&w, model).unwrap();
        let table = ClassTable::build(&prep, HwStructure::RegisterFile);
        let dynamic = table.rf_dynamic_live_fraction().unwrap();
        assert!(dynamic > 0.0 && dynamic < 1.0, "dynamic {dynamic}");
        let compiled = compile(&w.module, model.config().isa, &CompileOpts::default()).unwrap();
        let static_pvf = analyze(&compiled).pvf.rf_pvf;
        assert!(
            static_pvf >= dynamic,
            "static {static_pvf:.4} < dynamic {dynamic:.4}"
        );
    }

    #[test]
    fn plan_sites_shapes() {
        let w = WorkloadId::Crc32.build();
        let prep = Prepared::new(&w, CoreModel::A9).unwrap();
        let flip = [FaultModel::BitFlip];
        let plan = |st, plan| plan_model_sites(&prep, st, &plan, &flip);
        let s = plan(
            HwStructure::RegisterFile,
            InjectionPlan::Sampled { n: 10, seed: 3 },
        );
        let p = plan(
            HwStructure::RegisterFile,
            InjectionPlan::Pruned { n: 10, seed: 3 },
        );
        assert_eq!(s, p, "pruning must not change the sample");
        let drawn: Vec<(u64, u64)> = s.iter().map(|m| (m.cycle, m.bit)).collect();
        assert_eq!(drawn, draw_sites(&prep, HwStructure::RegisterFile, 10, 3));
        let e = plan(HwStructure::Lsq, InjectionPlan::Exhaustive { cycle: 40 });
        assert_eq!(e.len() as u64, HwStructure::Lsq.bits(&prep.cfg));
        assert!(e
            .iter()
            .all(|m| m.cycle == 40 && m.model == FaultModel::BitFlip));
    }
}
