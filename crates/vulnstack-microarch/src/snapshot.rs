//! Checkpoint-and-restore for injection campaigns, at every layer.
//!
//! Every injection in a statistical campaign re-simulates the fault-free
//! prefix of the run before it can apply its fault: a campaign of `n`
//! uniformly placed faults wastes ~`n·golden/2` steps of identical
//! warm-up. [`CheckpointStore`] removes that cost by cloning the whole
//! simulator state every `interval` steps during the golden run; a
//! campaign then restores the nearest checkpoint at or before the
//! fault's position and simulates only the delta. One implementation
//! serves the three layers, each on its own position axis:
//!
//! * [`OooCore`] (AVF/HVF) — cycles;
//! * [`FuncCore`](crate::func::FuncCore) (PVF) — dynamic instructions;
//! * the VIR interpreter (SVF, `vulnstack_vir::interp::InterpState`) —
//!   dynamic *injectable* instructions, the unit SVF faults target.
//!
//! Each state owns every bit of its simulation, main memory included, so
//! `Clone` is a perfect snapshot. The bulk of that state, main memory at
//! every layer and [`OooCore`]'s three cache arrays, is stored in
//! copy-on-write pages ([`vulnstack_isa::CowPages`]): the recorders share
//! them before each clone, so a snapshot copies page pointers, not pages,
//! and a restored state copies only the pages it then writes.
//!
//! The store is **adaptive**: it starts from a small interval and, when
//! the run outgrows the snapshot budget, drops every other snapshot and
//! doubles the interval. Short runs therefore get fine spacing while long
//! runs stay within a bounded footprint of `max_snapshots` states (their
//! memory and cache pages shared wherever the run did not rewrite them).
//!
//! Determinism: the simulators draw on no external entropy and a
//! checkpoint captures *all* of their state, so a restored state stepped
//! to position `p` is field-by-field identical to a fresh one stepped to
//! `p` (asserted by the `checkpoint_equivalence` tests in
//! `vulnstack-gefin` and the `functional_checkpoints` tests at the
//! workspace root).
//!
//! The cycle-level golden pass can also drive a [`GoldenObserver`],
//! which records what the pruner's class tables and the ACE estimate
//! are built from, so a pruned campaign or an ACE estimate simulates its
//! golden run once.

use vulnstack_kernel::SystemImage;

use crate::config::CoreConfig;
use crate::ooo::{HwStructure, OooCore, OooOutcome, RfAccessLog};

/// Default snapshot spacing in cycles for the cycle-level core, before
/// any adaptive doubling.
///
/// Deliberately fine: short runs get dense checkpoints (small restore
/// deltas), and long runs double the interval until they fit the
/// snapshot cap, so the effective interval scales with run length
/// (≈ `golden / max_snapshots`, rounded up to the next power-of-two
/// multiple of this constant).
pub const DEFAULT_INTERVAL: u64 = 512;

/// Snapshot spacing before any adaptive doubling for the functional
/// layers: dynamic instructions for [`FuncCore`](crate::func::FuncCore),
/// injectable instructions for the VIR interpreter.
///
/// Coarser than [`DEFAULT_INTERVAL`] because a functional step costs
/// far less than a cycle-level cycle while a snapshot costs about the
/// same: the page tables, and the pages the run then rewrites. Cloning
/// one takes a few microseconds for a functional state and 7–13 µs for
/// a cycle-level core, whose caches add a page table of their own
/// (qsort and rijndael, 2-core x86-64 host). Measured on the same
/// workloads and host, this spacing lengthens the functional golden
/// runs by at most ~9%, against 12–30% at 512.
pub const FUNCTIONAL_INTERVAL: u64 = 4096;

/// Default cap on retained snapshots. Snapshots share unmodified memory
/// and cache pages (both are copy-on-write), so the marginal cost of a
/// snapshot is the pages rewritten since the previous one plus the
/// state's own bookkeeping, and a generous cap keeps restore deltas
/// short.
pub const DEFAULT_MAX_SNAPSHOTS: usize = 64;

/// Evenly spaced fault-free snapshots of a simulator state `S`, taken
/// during a golden run.
///
/// Invariant: `snaps[i]` is the state at position `i * interval`
/// (`snaps[0]` is the reset state), every snapshot precedes the golden
/// run's terminal position, and `position` reads a state's position.
#[derive(Debug, Clone)]
pub struct CheckpointStore<S = OooCore> {
    interval: u64,
    max_snapshots: usize,
    position: fn(&S) -> u64,
    snaps: Vec<S>,
}

impl<S: Clone> CheckpointStore<S> {
    /// A store holding only `reset` (a state at position 0), to be filled
    /// by [`CheckpointStore::push`] along a golden run. `position` reads
    /// a state's position: its cycle, dynamic instruction or injectable
    /// instruction count.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`, `max_snapshots == 0` or `reset` is not
    /// at position 0.
    pub fn new(
        reset: S,
        interval: u64,
        max_snapshots: usize,
        position: fn(&S) -> u64,
    ) -> CheckpointStore<S> {
        assert!(interval > 0, "checkpoint interval must be positive");
        assert!(max_snapshots > 0, "need room for at least one snapshot");
        assert_eq!(position(&reset), 0, "the first snapshot is the reset state");
        CheckpointStore {
            interval,
            max_snapshots,
            position,
            snaps: vec![reset],
        }
    }

    /// The position at which the golden run must offer its next snapshot.
    pub fn next_position(&self) -> u64 {
        self.snaps.len() as u64 * self.interval
    }

    /// Appends the golden run's state at [`CheckpointStore::next_position`].
    /// Whenever the snapshot count would exceed `max_snapshots`, every
    /// other snapshot is dropped and the interval doubles, so the store
    /// holds at most `max_snapshots` snapshots regardless of run length.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not at [`CheckpointStore::next_position`].
    pub fn push(&mut self, state: S) {
        assert_eq!(
            (self.position)(&state),
            self.next_position(),
            "a snapshot must sit on the next interval boundary"
        );
        self.snaps.push(state);
        if self.snaps.len() > self.max_snapshots {
            self.thin();
        }
    }

    /// Halves the snapshot density: keeps every even-indexed snapshot and
    /// doubles the interval, preserving the `snaps[i] ↔ i * interval`
    /// invariant.
    fn thin(&mut self) {
        let mut i = 0usize;
        self.snaps.retain(|_| {
            let keep = i.is_multiple_of(2);
            i += 1;
            keep
        });
        self.interval *= 2;
    }

    /// The snapshot spacing (after any adaptive doubling).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// True if the store holds only the reset-state snapshot.
    pub fn is_empty(&self) -> bool {
        self.snaps.len() <= 1
    }

    /// Position of the nearest checkpoint at or before `pos`.
    pub fn nearest_position(&self, pos: u64) -> u64 {
        (self.position)(self.nearest(pos))
    }

    /// Positions of fault-free prefix a restore targeting `pos` must
    /// re-simulate (the campaign-metrics "restore distance": the quantity
    /// the adaptive interval trades memory against).
    pub fn restore_distance(&self, pos: u64) -> u64 {
        pos - self.nearest_position(pos)
    }

    /// The snapshot taken exactly at `pos`, if the store holds one (i.e.
    /// `pos` is an interval boundary within the recorded run). Used by
    /// the early-termination engine, which may only compare a faulty
    /// core against golden state at the *same* cycle.
    pub fn at(&self, pos: u64) -> Option<&S> {
        if !pos.is_multiple_of(self.interval) {
            return None;
        }
        self.snaps.get((pos / self.interval) as usize)
    }

    /// The nearest checkpoint at or before `pos`.
    ///
    /// # Panics
    ///
    /// Panics if that snapshot lies past `pos`, which would make a
    /// restored run skip the fault's position.
    pub fn nearest(&self, pos: u64) -> &S {
        let idx = ((pos / self.interval) as usize).min(self.snaps.len() - 1);
        let snap = &self.snaps[idx];
        assert!(
            (self.position)(snap) <= pos,
            "restore must land at or before its target"
        );
        snap
    }

    /// A runnable copy of the nearest checkpoint at or before `pos`; the
    /// caller advances the remaining delta.
    pub fn restore(&self, pos: u64) -> S {
        self.nearest(pos).clone()
    }
}

impl CheckpointStore<OooCore> {
    /// Runs a fault-free (golden) run of `image` on `cfg` to completion
    /// (or `budget` cycles), snapshotting the core every `interval`
    /// cycles (thinned to at most `max_snapshots`) and driving
    /// `observer` along the way, and returns the store together with
    /// the run's outcome. Observing never perturbs the run, and no
    /// snapshot carries a log: the snapshots and the outcome are the
    /// same whatever `observer` records.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0` or `max_snapshots == 0`.
    pub fn record(
        cfg: &CoreConfig,
        image: &SystemImage,
        interval: u64,
        max_snapshots: usize,
        budget: u64,
        observer: &mut GoldenObserver,
    ) -> (CheckpointStore, OooOutcome) {
        let mut core = OooCore::new(cfg, image);
        let mut store = CheckpointStore::new(core.clone(), interval, max_snapshots, OooCore::cycle);
        observer.attach(&mut core);
        loop {
            let next = store.next_position();
            if next > budget {
                break;
            }
            observer.run_until(&mut core, next);
            if core.ended() || core.cycle() < next {
                break;
            }
            store.push(core.snapshot());
        }
        observer.run_until(&mut core, budget);
        observer.detach(&mut core);
        (store, core.finish())
    }
}

/// The LSQ entries armed at the end of one cycle: bit `i` of `lq`/`sq`
/// is set iff [`OooCore::inject`] would taint a flip of entry `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArmedMask {
    /// Armed load-queue entries.
    pub lq: u32,
    /// Armed store-queue entries.
    pub sq: u32,
}

/// What a golden pass records for the pruner's class tables
/// (`vulnstack-gefin::prune::ClassTable`) and the ACE estimate
/// (`vulnstack-gefin::ace`): for the register file, the per-preg access
/// log ([`RfAccessLog`]) and the cycle of every decoded dispatch; for
/// the LSQ, the armed entries at the end of every cycle and the valid
/// entries summed over the steps. The caches need nothing, so observing
/// them costs nothing.
///
/// One observer serves both passes that record: the checkpointing
/// golden run ([`CheckpointStore::record`]) and a bare re-run
/// ([`GoldenObserver::run`]). The logs live in the running core, never
/// in a snapshot, and move into the observer when the pass ends.
#[derive(Debug)]
pub struct GoldenObserver {
    rf: bool,
    rf_logs: Option<(Box<RfAccessLog>, Vec<u64>)>,
    /// Armed masks indexed by cycle, `0..=` the pass's last cycle.
    armed: Option<Vec<ArmedMask>>,
    /// Valid LSQ entries summed over the steps so far, each step's
    /// counted as it begins.
    occupancy: u64,
    /// Valid LSQ entries at the last scan: those the next step begins
    /// with.
    valid: u64,
}

impl GoldenObserver {
    /// An observer recording what the class tables of `structures`
    /// need.
    pub fn new(structures: &[HwStructure]) -> GoldenObserver {
        GoldenObserver {
            rf: structures.contains(&HwStructure::RegisterFile),
            rf_logs: None,
            armed: structures.contains(&HwStructure::Lsq).then(Vec::new),
            occupancy: 0,
            valid: 0,
        }
    }

    /// True if a pass records anything for `structure`: the register
    /// file and the LSQ when asked for, never a cache.
    pub fn observes(&self, structure: HwStructure) -> bool {
        match structure {
            HwStructure::RegisterFile => self.rf,
            HwStructure::Lsq => self.armed.is_some(),
            HwStructure::L1i | HwStructure::L1d | HwStructure::L2 => false,
        }
    }

    /// A bare golden pass: runs `image` on `cfg` to completion (or
    /// `budget` cycles) with no snapshots, observing it.
    pub fn run(&mut self, cfg: &CoreConfig, image: &SystemImage, budget: u64) -> OooOutcome {
        let mut core = OooCore::new(cfg, image);
        self.attach(&mut core);
        self.run_until(&mut core, budget);
        self.detach(&mut core);
        core.finish()
    }

    fn attach(&mut self, core: &mut OooCore) {
        if self.rf {
            core.enable_rf_log();
            core.enable_dispatch_log();
        }
        if let Some(armed) = &mut self.armed {
            let (mask, valid) = core.lsq_armed();
            armed.push(mask);
            self.valid = valid;
        }
    }

    /// Runs `core` to `cycle` (or its end). With the LSQ observed it
    /// steps cycle by cycle and samples the armed entries after each
    /// one: the state an injection at that cycle sees, since a campaign
    /// injects after `run_until(cycle)` returns. The same scan counts
    /// the valid entries, which the next step begins with.
    fn run_until(&mut self, core: &mut OooCore, cycle: u64) {
        let Some(armed) = &mut self.armed else {
            return core.run_until(cycle);
        };
        while !core.ended() && core.cycle() < cycle {
            self.occupancy += self.valid;
            core.step_cycle();
            let (mask, valid) = core.lsq_armed();
            armed.push(mask);
            self.valid = valid;
        }
    }

    fn detach(&mut self, core: &mut OooCore) {
        if self.rf {
            let rf = core.take_rf_log().expect("the RF log was enabled");
            let dispatch = core
                .take_dispatch_log()
                .expect("the dispatch log was enabled");
            self.rf_logs = Some((rf, dispatch));
        }
    }

    /// Takes a finished pass's register-file logs: the access log and
    /// the cycles of the decoded dispatches, in order. `None` unless a
    /// pass observed the register file.
    pub fn take_rf(&mut self) -> Option<(Box<RfAccessLog>, Vec<u64>)> {
        self.rf_logs.take()
    }

    /// Takes a finished pass's LSQ record: the armed masks, indexed by
    /// cycle, and the occupancy ACE counts, the valid entries summed
    /// over the pass's steps, each step's counted as it begins (the step
    /// on which the run ends included). `None` unless the LSQ was
    /// observed.
    pub fn take_lsq(&mut self) -> Option<(Vec<ArmedMask>, u64)> {
        Some((self.armed.take()?, self.occupancy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreModel;
    use crate::outcome::RunStatus;
    use vulnstack_compiler::{compile, CompileOpts};
    use vulnstack_vir::ModuleBuilder;

    /// An observer recording nothing: the plain golden pass.
    fn unobserved() -> GoldenObserver {
        GoldenObserver::new(&[])
    }

    fn image() -> SystemImage {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let sum = f.fresh();
        f.set_c(sum, 0);
        f.for_range(0, 400, |f, i| {
            let x = f.mul(i, i);
            let s = f.add(sum, x);
            f.set(sum, s);
        });
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let c = compile(&m, vulnstack_isa::Isa::Va64, &CompileOpts::default()).unwrap();
        SystemImage::build(&c, &[]).unwrap()
    }

    #[test]
    fn recording_matches_plain_golden_run() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let plain = OooCore::new(&cfg, &img).run(10_000_000);
        let (store, out) =
            CheckpointStore::record(&cfg, &img, 256, 16, 10_000_000, &mut unobserved());
        assert_eq!(out.sim.status, RunStatus::Exited(0));
        assert_eq!(out.sim.status, plain.sim.status);
        assert_eq!(out.sim.output, plain.sim.output);
        assert_eq!(out.sim.cycles, plain.sim.cycles);
        assert_eq!(out.sim.instrs, plain.sim.instrs);
        assert!(store.len() >= 2, "a multi-thousand-cycle run must snapshot");
        assert!(store.len() <= 16);
    }

    #[test]
    fn snapshots_sit_on_interval_boundaries() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let (store, out) =
            CheckpointStore::record(&cfg, &img, 128, 8, 10_000_000, &mut unobserved());
        for (i, s) in store.snaps.iter().enumerate() {
            assert_eq!(s.cycle(), i as u64 * store.interval());
            assert!(s.cycle() < out.sim.cycles);
        }
    }

    #[test]
    fn restore_then_run_equals_run_from_scratch() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let (store, out) =
            CheckpointStore::record(&cfg, &img, 200, 12, 10_000_000, &mut unobserved());
        for target in [1u64, 137, store.interval() + 3, out.sim.cycles - 1] {
            let mut restored = store.restore(target);
            assert!(restored.cycle() <= target);
            restored.run_until(target);
            let mut scratch = OooCore::new(&cfg, &img);
            scratch.run_until(target);
            assert!(restored == scratch, "state diverged at cycle {target}");
        }
    }

    #[test]
    fn observing_pass_takes_the_plain_snapshots_and_the_bare_logs() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let (plain, plain_out) =
            CheckpointStore::record(&cfg, &img, 256, 16, 10_000_000, &mut unobserved());
        let both = [HwStructure::RegisterFile, HwStructure::Lsq];
        let mut observer = GoldenObserver::new(&both);
        let (store, out) = CheckpointStore::record(&cfg, &img, 256, 16, 10_000_000, &mut observer);
        assert_eq!(out.sim, plain_out.sim);
        assert_eq!(store.interval(), plain.interval());
        assert_eq!(store.len(), plain.len());
        // Equality covers the log fields, so no snapshot carries a log.
        for (i, (a, b)) in store.snaps.iter().zip(&plain.snaps).enumerate() {
            assert!(a == b, "snapshot {i} differs from the plain pass's");
        }
        for target in [1u64, store.interval() + 3, out.sim.cycles - 1] {
            let mut restored = store.restore(target);
            assert!(restored.take_rf_log().is_none() && restored.take_dispatch_log().is_none());
        }
        let rf = observer.take_rf().expect("the register file was observed");
        let lsq = observer.take_lsq().expect("the LSQ was observed");
        assert_eq!(lsq.0.len() as u64, out.sim.cycles + 1);
        assert!(lsq.0.iter().any(|&m| m != ArmedMask::default()));
        let mut bare = GoldenObserver::new(&both);
        assert_eq!(bare.run(&cfg, &img, 10_000_000).sim, out.sim);
        assert_eq!(bare.take_rf(), Some(rf));
        assert_eq!(bare.take_lsq(), Some(lsq));
    }

    #[test]
    fn occupancy_counts_the_valid_entries_each_step_begins_with() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let mut core = OooCore::new(&cfg, &img);
        let mut want = 0;
        while !core.ended() {
            want += core.lsq_armed().1;
            core.step_cycle();
        }
        let mut observer = GoldenObserver::new(&[HwStructure::Lsq]);
        let (_, out) = CheckpointStore::record(&cfg, &img, 256, 16, 10_000_000, &mut observer);
        assert_eq!(out.sim.cycles, core.cycle());
        let (_, occupancy) = observer.take_lsq().expect("the LSQ was observed");
        assert!(occupancy > 0);
        assert_eq!(occupancy, want);
    }

    #[test]
    fn caches_are_not_observed() {
        let mut observer =
            GoldenObserver::new(&[HwStructure::L1i, HwStructure::L1d, HwStructure::L2]);
        assert!(HwStructure::ALL.iter().all(|&s| !observer.observes(s)));
        let (store, _) = CheckpointStore::record(
            &CoreModel::A72.config(),
            &image(),
            256,
            16,
            10_000_000,
            &mut observer,
        );
        assert!(store.len() >= 2);
        assert!(observer.take_rf().is_none() && observer.take_lsq().is_none());
    }

    #[test]
    fn thinning_caps_memory_and_keeps_alignment() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let (store, _) = CheckpointStore::record(&cfg, &img, 16, 4, 10_000_000, &mut unobserved());
        assert!(store.len() <= 4);
        assert!(store.interval() > 16, "small cap must force doubling");
        for (i, s) in store.snaps.iter().enumerate() {
            assert_eq!(s.cycle(), i as u64 * store.interval());
        }
    }
}
