//! Equivalence-class fault-site pruning.
//!
//! A statistical AVF campaign spends most of its cycles discovering, one
//! full simulation at a time, that a flipped bit was never going to
//! matter. This module removes that cost without changing a single
//! record, using two independent accelerations that are both *exact* —
//! the pruned campaign's per-site `(effect, fpm, fpm_cycle)` records are
//! bit-identical to the unpruned campaign's (asserted by
//! `tests/prune_equivalence.rs`):
//!
//! 1. **Dead-interval classification** ([`ClassTable`]). The golden
//!    pass that takes the checkpoints also records ([`GoldenObserver`]),
//!    per physical register, the full cycle-ordered read/write access
//!    sequence ([`RfAccessLog`]), and, per cycle, which LSQ entries are
//!    *armed* (the only entries whose flips [`OooCore::inject`] taints);
//!    a preparation made without them re-runs the golden pass under the
//!    same observer. A register-file flip whose next
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
//! Both only decide which sites need a simulation. Those that do —
//! class pilots and singletons — run through the same injection runner
//! as every sampled site, with its exact early exits: extinction of an
//! unmanifested fault, convergence of a manifested one with the golden
//! checkpoint at the same cycle ([`OooCore::converged_with`]), and
//! proven hangs ([`OooCore::frozen_with`], [`OooCore::timeout_proven`];
//! register file and LSQ under transient value models only). The pruner
//! counts the last two as `early_terminated` and `runaway_terminated`.
//!
//! [`RfAccessLog`]: vulnstack_microarch::ooo::RfAccessLog
//! [`GoldenObserver`]: vulnstack_microarch::snapshot::GoldenObserver
//! [`OooCore::inject`]: vulnstack_microarch::OooCore::inject
//! [`OooCore::converged_with`]: vulnstack_microarch::OooCore::converged_with
//! [`OooCore::frozen_with`]: vulnstack_microarch::OooCore::frozen_with
//! [`OooCore::timeout_proven`]: vulnstack_microarch::OooCore::timeout_proven

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vulnstack_analyze::StaticClassifier;
use vulnstack_core::effects::FaultEffect;
use vulnstack_core::trace::CampaignMetrics;
use vulnstack_kernel::SystemImage;
use vulnstack_microarch::ooo::{lsq_site, rf_site, Fpm, HwStructure, LsqSite, RfAccess};
use vulnstack_microarch::snapshot::{ArmedMask, GoldenObserver};
use vulnstack_microarch::{CoreConfig, FaultModel};

use crate::avf::{inject, Exit, InjectionRecord, ModelSite};
use crate::prepare::Prepared;

/// Builds the static pruning oracle for an image: scans every word of
/// the *executable* segments (kernel boot stub, trap handler, user text:
/// the slots of [`SystemImage::decoded`]) and proves architectural
/// registers dead that no executable word names. See
/// [`StaticClassifier`] for the soundness argument; the lattice
/// `static-dead ⊆ dynamic-dead ⊆ injection-Masked` is enforced by
/// `tests/prune_soundness.rs`.
pub fn static_classifier(image: &SystemImage) -> StaticClassifier {
    let words: Vec<u32> = image.decoded().words().map(|(_, word)| word).collect();
    StaticClassifier::build(image.isa, [words.as_slice()])
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
/// `(workload, core, structure)` triple, built from what a
/// [`GoldenObserver`] recorded along one golden pass: the checkpointing
/// pass of [`Prepared::observing`], or the bare re-run of
/// [`ClassTable::build`].
///
/// Deterministic: the simulator draws no external entropy, so two builds
/// over the same [`Prepared`] produce identical tables, from either pass
/// — which is what lets resumed campaigns verify agreement through the
/// journal's `class-table` metadata digest instead of re-serialising the
/// table.
#[derive(Debug, Clone)]
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
    /// Valid LSQ entries summed over the golden run's steps, each
    /// step's counted as it begins (LSQ only): the occupancy ACE counts
    /// ([`crate::ace`]). It classifies no site, so it stays out of the
    /// digest, which journals carry as their `class-table` metadata.
    lsq_occupancy: u64,
    digest: u64,
}

impl ClassTable {
    /// Builds the table by re-running the golden execution once under a
    /// [`GoldenObserver`]: the RF access log for
    /// [`HwStructure::RegisterFile`], per-cycle armed masks for
    /// [`HwStructure::Lsq`]. Cache structures need no table (every site
    /// is a [`SiteClass::Singleton`]) and cost nothing here. A
    /// [`Prepared::observing`] preparation already holds the table the
    /// same pass would record ([`Prepared::table`]).
    ///
    /// # Panics
    ///
    /// Panics if the observed run fails to retrace the reference golden
    /// run (observing must never perturb simulation).
    pub fn build(prep: &Prepared, structure: HwStructure) -> ClassTable {
        let [table] = ClassTable::rerun(prep, [structure]);
        table
    }

    /// The tables of `structures`, from one bare golden re-run observing
    /// them all: [`ClassTable::build`] of each, for the cost of one
    /// pass.
    ///
    /// # Panics
    ///
    /// As [`ClassTable::build`].
    pub(crate) fn rerun<const N: usize>(
        prep: &Prepared,
        structures: [HwStructure; N],
    ) -> [ClassTable; N] {
        let mut observer = GoldenObserver::new(&structures);
        if structures.iter().any(|&s| observer.observes(s)) {
            let out = observer.run(&prep.cfg, &prep.image, prep.budget);
            assert_eq!(
                out.sim.cycles, prep.golden.cycles,
                "observed golden run diverged from the reference golden run"
            );
        }
        structures
            .map(|s| ClassTable::from_observer(&prep.cfg, prep.golden.cycles, s, &mut observer))
    }

    /// The table of `structure` from what `observer` recorded along a
    /// golden pass of `golden_cycles` cycles on `cfg`, moving the logs
    /// out of the observer rather than copying them.
    ///
    /// # Panics
    ///
    /// Panics if `structure` is the register file or the LSQ and the
    /// observer holds no log of it.
    pub fn from_observer(
        cfg: &CoreConfig,
        golden_cycles: u64,
        structure: HwStructure,
        observer: &mut GoldenObserver,
    ) -> ClassTable {
        let (rf_events, dispatch_cycles, (armed, lsq_occupancy)) = match structure {
            HwStructure::RegisterFile => {
                let (log, dispatch) = observer.take_rf().expect("the pass observed the RF");
                (log.into_events(), dispatch, Default::default())
            }
            HwStructure::Lsq => {
                let lsq = observer.take_lsq().expect("the pass observed the LSQ");
                (Vec::new(), Vec::new(), lsq)
            }
            HwStructure::L1i | HwStructure::L1d | HwStructure::L2 => Default::default(),
        };
        let mut t = ClassTable {
            structure,
            golden_cycles,
            xlen: cfg.isa.xlen() as u64,
            rf_events,
            dispatch_cycles,
            lq_len: cfg.lq_entries as usize,
            sq_len: cfg.sq_entries as usize,
            armed,
            lsq_occupancy,
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

    /// Per-preg access events, in execution order (RF only).
    pub(crate) fn rf_events(&self) -> &[Vec<RfAccess>] {
        &self.rf_events
    }

    /// ACE's LSQ occupancy and the queues' entry count (LSQ only).
    pub(crate) fn lsq_occupancy(&self) -> (u64, usize) {
        (self.lsq_occupancy, self.lq_len + self.sq_len)
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
    /// Simulated runs ended early by golden-state convergence.
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
/// replacement for running every site that serves provably-dead sites
/// from the [`ClassTable`], equivalence-class members from one pilot
/// simulation, and everything else from an individual run of the
/// injection runner every plan uses. Thread-safe; records are a pure
/// function of `(cycle, bit)`, so campaign output is independent of
/// thread count, work order, and which worker happens to run a class
/// pilot.
#[derive(Debug)]
pub struct Pruner<'a> {
    prep: &'a Prepared,
    structure: HwStructure,
    /// The preparation's own table, or one built for this pruner.
    table: Cow<'a, ClassTable>,
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
    /// A pruner over the class table `prep` recorded for `structure`
    /// ([`Prepared::table`]), or, when it recorded none, over a table
    /// built by [`ClassTable::build`].
    pub fn new(prep: &'a Prepared, structure: HwStructure) -> Pruner<'a> {
        let static_pre =
            (structure == HwStructure::RegisterFile).then(|| static_classifier(&prep.image));
        let table = match prep.table(structure) {
            Some(t) => Cow::Borrowed(t),
            None => Cow::Owned(ClassTable::build(prep, structure)),
        };
        Pruner {
            prep,
            structure,
            table,
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
        let record = |(effect, fpm, fpm_cycle): OutcomeTriple| InjectionRecord {
            cycle,
            bit,
            model,
            effect,
            fpm,
            fpm_cycle,
        };
        // Static pre-filter: a site landing in a physical register the
        // oracle proves never-accessed needs neither the dynamic table
        // nor a simulation. Such a register has an empty access log, so
        // the table would agree (`static-dead ⊆ dynamic-dead`); the
        // record is identical, the classification just costs less. The
        // argument covers every *value* model — a corruption (even a
        // persistent one) in a register that is never read nor written
        // is never consumed — but says nothing about instruction skips,
        // which corrupt no register at all.
        let flat = if model == FaultModel::ByteCorrupt {
            bit * 8
        } else {
            bit
        };
        let static_dead = model != FaultModel::InstrSkip
            && self
                .static_pre
                .as_ref()
                .is_some_and(|c| c.rf_bit_dead(flat, self.nphys));
        let class = if static_dead {
            self.static_dead.fetch_add(1, Ordering::Relaxed);
            SiteClass::DeadMasked
        } else {
            self.table.classify_model(cycle, bit, model)
        };
        let key = match class {
            SiteClass::DeadMasked => {
                self.dead_masked.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = metrics {
                    m.record_pruned_dead();
                }
                return record((FaultEffect::Masked, None, None));
            }
            SiteClass::Equiv(key) => {
                if let Some(&triple) = self.memo.lock().unwrap().get(&key) {
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                    return record(triple);
                }
                // Miss: run the pilot at this member's own cycle. Two
                // workers racing on the same class both compute the
                // identical triple, so the double insert is idempotent
                // and the memo never influences record values.
                self.pilot_runs.fetch_add(1, Ordering::Relaxed);
                Some(key)
            }
            SiteClass::Singleton => {
                self.singleton_runs.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        let site = ModelSite { cycle, bit, model };
        let start = self.prep.checkpoints.restore(cycle);
        let (rec, _, exit) = inject(self.prep, self.structure, start, site, None, metrics);
        let ended_early = match exit {
            Exit::Converged => Some(&self.early_terminated),
            Exit::ProvenHang => Some(&self.runaway_terminated),
            Exit::Extinct | Exit::Finished => None,
        };
        if let Some(count) = ended_early {
            count.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(key) = key {
            self.memo
                .lock()
                .unwrap()
                .insert(key, (rec.effect, rec.fpm, rec.fpm_cycle));
        }
        rec
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
        let (rf, lsq) = (HwStructure::RegisterFile, HwStructure::Lsq);
        for (id, model) in [
            (WorkloadId::Crc32, CoreModel::A9),
            (WorkloadId::Qsort, CoreModel::A72),
        ] {
            let w = id.build();
            let prep = Prepared::new(&w, model).unwrap();
            let a = ClassTable::build(&prep, rf);
            let b = ClassTable::build(&prep, rf);
            assert_eq!(a.digest(), b.digest(), "same build must digest equal");
            let l = ClassTable::build(&prep, lsq);
            assert_ne!(a.digest(), l.digest());
            // The checkpointing golden pass records the same tables,
            // whether it observes one structure or both.
            for observed in [&[rf][..], &[lsq], &[rf, lsq]] {
                let fused = Prepared::observing(&w, model, observed).unwrap();
                for &st in observed {
                    let want = if st == rf { &a } else { &l };
                    let got = fused.table(st).expect("an observed structure has a table");
                    assert_eq!(
                        got.digest(),
                        want.digest(),
                        "{id}/{model} {st} of {observed:?}"
                    );
                }
            }
        }
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
