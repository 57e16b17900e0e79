//! The cycle-level out-of-order core.
//!
//! Pipeline: fetch (L1i + bimodal predictor + RAS) → decode → rename
//! (R10K-style: RAT, circular free list, physical register file) →
//! dispatch (ROB + IQ + LSQ) → issue/execute (oldest-first, FU latencies,
//! conservative load disambiguation with store forwarding) → writeback →
//! in-order commit (stores write the cache at commit; traps, syscalls and
//! `ERET` serialize at the head).
//!
//! Branch mispredictions recover at execute from per-branch RAT + free
//! list snapshots. Exceptions rebuild the RAT from the retirement RAT.
//!
//! Microarchitectural faults are injected live into the physical register
//! file, the LSQ fields, or a cache data array (see [`OooCore::inject`]);
//! consumption is tracked so the campaign layer can classify each fault's
//! propagation model (WD / WI / WOI / ESC) at the first *committed* use —
//! the paper's HVF boundary.

use std::collections::VecDeque;

use vulnstack_isa::{classify_bit, BitClass, FaultModel, Instr, Isa, Op, Reg, Trap, TrapCause};
use vulnstack_kernel::kdata::{off, KStatus};
use vulnstack_kernel::memmap::{self, AccessKind};
use vulnstack_kernel::SystemImage;

use crate::cache::{Level, MemSystem};
use crate::config::CoreConfig;
use crate::exec::{self, SharedText};
use crate::func::Mode;
use crate::lifetime::{FaultEventKind, FaultTrace, FaultUnit};
use crate::outcome::{RunStatus, SimOutcome};
use crate::snapshot::ArmedMask;

/// Fault propagation model of a hardware fault's first architecturally
/// visible manifestation (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fpm {
    /// Wrong Data — corrupted register/memory content consumed.
    Wd,
    /// Wrong Instruction — corrupted opcode or control-flow bits executed.
    Wi,
    /// Wrong Operand or Immediate — corrupted operand field executed.
    Woi,
    /// Escaped — corrupted output drained by DMA without re-entering the
    /// pipeline.
    Esc,
}

impl Fpm {
    /// All models.
    pub const ALL: [Fpm; 4] = [Fpm::Wd, Fpm::Wi, Fpm::Woi, Fpm::Esc];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Fpm::Wd => "WD",
            Fpm::Wi => "WI",
            Fpm::Woi => "WOI",
            Fpm::Esc => "ESC",
        }
    }

    /// Inverse of [`Fpm::name`] (used to decode journaled campaign
    /// records).
    pub fn from_name(s: &str) -> Option<Fpm> {
        Fpm::ALL.into_iter().find(|f| f.name() == s)
    }
}

impl std::fmt::Display for Fpm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A microarchitectural fault-injection target structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HwStructure {
    /// Physical integer register file.
    RegisterFile,
    /// Load/store queue fields (addresses and store data).
    Lsq,
    /// L1 instruction cache data array.
    L1i,
    /// L1 data cache data array.
    L1d,
    /// Unified L2 data array.
    L2,
}

impl HwStructure {
    /// All five structures studied in the paper.
    pub const ALL: [HwStructure; 5] = [
        HwStructure::RegisterFile,
        HwStructure::Lsq,
        HwStructure::L1i,
        HwStructure::L1d,
        HwStructure::L2,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            HwStructure::RegisterFile => "RF",
            HwStructure::Lsq => "LSQ",
            HwStructure::L1i => "L1i",
            HwStructure::L1d => "L1d",
            HwStructure::L2 => "L2",
        }
    }

    /// Bit population of this structure under `cfg` (the injection
    /// sampling space).
    pub fn bits(self, cfg: &CoreConfig) -> u64 {
        match self {
            HwStructure::RegisterFile => cfg.rf_bits(),
            HwStructure::Lsq => cfg.lsq_bits(),
            HwStructure::L1i => cfg.l1i.data_bits(),
            HwStructure::L1d => cfg.l1d.data_bits(),
            HwStructure::L2 => cfg.l2.data_bits(),
        }
    }

    /// True if `model` can target this structure. Byte corruption is
    /// modelled for the RF and LSQ storage arrays (cache lines already
    /// take flat-bit flips only); stuck-at cells are modelled in the RF;
    /// instruction skip is a dispatch-stage fault enumerated under the
    /// core's RF structure.
    pub fn admits(self, model: FaultModel) -> bool {
        match model {
            FaultModel::BitFlip => true,
            FaultModel::ByteCorrupt => matches!(self, HwStructure::RegisterFile | HwStructure::Lsq),
            FaultModel::InstrSkip | FaultModel::StuckAt => self == HwStructure::RegisterFile,
        }
    }

    /// Size of `model`'s site space over this structure under `cfg`:
    /// flat bits for bit-granular models, aligned bytes for byte
    /// corruption, and a single dispatch-slot site for instruction skip.
    pub fn sites(self, model: FaultModel, cfg: &CoreConfig) -> u64 {
        match model {
            FaultModel::BitFlip | FaultModel::StuckAt => self.bits(cfg),
            FaultModel::ByteCorrupt => self.bits(cfg) / 8,
            FaultModel::InstrSkip => 1,
        }
    }
}

impl std::fmt::Display for HwStructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for HwStructure {
    type Err = String;

    /// Parses [`HwStructure::name`] in any letter case.
    fn from_str(s: &str) -> Result<HwStructure, String> {
        HwStructure::ALL
            .into_iter()
            .find(|x| x.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown structure {s}"))
    }
}

/// Decodes a flat register-file site bit into `(physical register,
/// bit-in-register)`, or `None` if `bit` is outside the RF bit
/// population (`nphys * xlen`). Shared by [`OooCore::inject`] and the
/// pruning layer's mirrored decode so the two can never disagree —
/// out-of-range sites are rejected instead of silently aliased.
pub fn rf_site(bit: u64, xlen: u32, nphys: usize) -> Option<(usize, u8)> {
    let preg = (bit / xlen as u64) as usize;
    if preg >= nphys {
        return None;
    }
    Some((preg, (bit % xlen as u64) as u8))
}

/// A decoded LSQ fault site: which queue, entry, and field bit a flat
/// LSQ site index addresses (see [`CoreConfig::lsq_bits`] for the
/// layout: all LQ address words, then per-SQ-entry address + data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LsqSite {
    /// Load-queue entry address bit.
    LqAddr {
        /// Entry index.
        entry: usize,
        /// Bit within the address word.
        bit: u8,
    },
    /// Store-queue entry address bit.
    SqAddr {
        /// Entry index.
        entry: usize,
        /// Bit within the address word.
        bit: u8,
    },
    /// Store-queue entry data bit.
    SqData {
        /// Entry index.
        entry: usize,
        /// Bit within the data word.
        bit: u8,
    },
}

/// Decodes a flat LSQ site bit, or `None` if `bit` is outside the LSQ
/// bit population. Shared by injection and pruning (see [`rf_site`]).
pub fn lsq_site(bit: u64, xlen: u32, lq_len: usize, sq_len: usize) -> Option<LsqSite> {
    let x = xlen as u64;
    let lq_bits = lq_len as u64 * x;
    if bit < lq_bits {
        return Some(LsqSite::LqAddr {
            entry: (bit / x) as usize,
            bit: (bit % x) as u8,
        });
    }
    let rest = bit - lq_bits;
    let entry = (rest / (2 * x)) as usize;
    if entry >= sq_len {
        return None;
    }
    let fld = rest % (2 * x);
    Some(if fld < x {
        LsqSite::SqAddr {
            entry,
            bit: fld as u8,
        }
    } else {
        LsqSite::SqData {
            entry,
            bit: (fld - x) as u8,
        }
    })
}

/// Outcome of a microarchitecture-level run, extending [`SimOutcome`] with
/// fault-propagation observations.
#[derive(Debug, Clone)]
pub struct OooOutcome {
    /// Base run outcome.
    pub sim: SimOutcome,
    /// First architecturally visible manifestation of the injected fault.
    pub fpm: Option<Fpm>,
    /// Cycle of that first manifestation.
    pub fpm_cycle: Option<u64>,
    /// Fault-lifetime event log, if [`OooCore::enable_fault_trace`] was
    /// called before the run.
    pub ftrace: Option<FaultTrace>,
}

const RAS_DEPTH: usize = 16;
/// Commit watchdog: a pipeline wedged this many cycles counts as a hang.
const WATCHDOG_CYCLES: u64 = 200_000;

type PReg = u16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobKind {
    Alu,
    Load,
    Store,
    Branch,
    Jump,
    Syscall,
    Eret,
    Halt,
    Nop,
    Mfsr,
    Mtsr,
    Invalid,
}

#[derive(Debug, Clone, PartialEq)]
struct RobEntry {
    seq: u64,
    pc: u64,
    instr: Instr,
    kind: RobKind,
    dest: Option<(Reg, PReg, PReg)>, // (arch, new phys, old phys)
    srcs: [Option<PReg>; 2],
    done: bool,
    exception: Option<Trap>,
    predicted_next: u64,
    snapshot: Option<(Vec<PReg>, u64)>, // (RAT copy, free-list head)
    lsq_slot: Option<usize>,
    mtsr_value: u64,
    taint: Option<Fpm>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct IqEntry {
    seq: u64,
    issued: bool,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LqEntry {
    valid: bool,
    /// Owning instruction (diagnostics; ordering checks use the SQ side).
    #[allow(dead_code)]
    seq: u64,
    addr: u64,
    addr_ready: bool,
    taint: bool,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SqEntry {
    valid: bool,
    seq: u64,
    addr: u64,
    data: u64,
    size: u32,
    ready: bool,
    taint: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct FetchedInstr {
    pc: u64,
    word: u32,
    ok: bool, // fetch permission
    predicted_next: u64,
    taint_bit: Option<u32>,
}

/// One access to a physical register during an instrumented golden run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfAccess {
    /// Core cycle of the access.
    pub cycle: u64,
    /// True for a write (rename-stage allocation targets count when the
    /// value arrives at writeback), false for a read (including
    /// speculative reads that are later squashed — a flipped bit those
    /// reads observed *was* consumed, so they bound dead intervals).
    pub write: bool,
}

/// Per-physical-register access log recorded during an instrumented
/// golden run ([`OooCore::enable_rf_log`]).
///
/// `read_phys`/`write_phys` are the sole funnels for register-file
/// values in the core (operand reads, writeback, CALL link writes, MFSR
/// commit), so the log is a complete def-use record: between two
/// consecutive entries for a register nothing reads or writes it, and a
/// bit flipped anywhere in that interval has exactly the same future as
/// a flip anywhere else in it. The pruning layer
/// (`vulnstack-gefin::prune`) builds fault-equivalence classes from
/// these intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct RfAccessLog {
    events: Vec<Vec<RfAccess>>,
}

impl RfAccessLog {
    fn new(nphys: usize) -> RfAccessLog {
        RfAccessLog {
            events: vec![Vec::new(); nphys],
        }
    }

    #[inline]
    fn note(&mut self, preg: usize, cycle: u64, write: bool) {
        self.events[preg].push(RfAccess { cycle, write });
    }

    /// Every physical register's access events, indexed by register,
    /// each in execution order (cycles are nondecreasing; within a
    /// cycle, occurrence order).
    pub fn into_events(self) -> Vec<Vec<RfAccess>> {
        self.events
    }
}

/// The out-of-order core.
///
/// The struct owns *every* bit of simulation state — pipeline structures,
/// rename tables, physical register file, caches, flat memory, branch
/// predictor, taint tracking — and the simulation draws on no external
/// entropy, so `Clone` is a perfect checkpoint: a clone stepped forward
/// is bit-identical to the original stepped forward (`PartialEq` makes
/// that directly checkable). See [`crate::snapshot::CheckpointStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct OooCore {
    cfg: CoreConfig,
    isa: Isa,
    /// Memory hierarchy (public for inspection by campaigns and tests).
    pub mem: MemSystem,
    user_text_end: u32,
    // The image's decoded text: a shared cache, not state.
    text: SharedText,

    // Frontend.
    fetch_pc: u64,
    fetch_stall_until: u64,
    fetch_queue: VecDeque<FetchedInstr>,
    fetch_halted: bool,
    bp: Vec<u8>,
    btb: Vec<(u64, u64)>,
    ras: Vec<u64>,

    // Rename.
    rat: Vec<PReg>,
    rrat: Vec<PReg>,
    free_ring: Vec<PReg>,
    free_head: u64,
    free_tail: u64,
    phys: Vec<u64>,
    phys_ready: Vec<bool>,

    // Window.
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    iq: Vec<IqEntry>,
    lq: Vec<LqEntry>,
    sq: Vec<SqEntry>,
    finish: Vec<(u64, u64, PReg, u64, Option<Fpm>)>, // (cycle, seq, preg, value, taint)

    // Architectural.
    mode: Mode,
    sysregs: [u64; vulnstack_isa::SysReg::COUNT],

    // Run state.
    cycle: u64,
    committed: u64,
    last_commit_cycle: u64,
    ended: Option<RunStatus>,

    // Fault tracking.
    rf_taint: Option<(usize, u8)>,
    // Armed stuck-at cell: (preg, bit, stuck value). Re-asserts on every
    // write to the register until the run ends (never extinct).
    stuck: Option<(usize, u8, bool)>,
    // Armed one-shot instruction skip, consumed by the next successfully
    // decoded dispatch.
    pending_skip: bool,
    fpm: Option<Fpm>,
    fpm_cycle: Option<u64>,
    // Fault-lifetime event trace (optional; `None` costs nothing — every
    // emission site is behind a taint branch or this gate).
    ftrace: Option<FaultTrace>,

    // Optional commit trace (bounded).
    trace: Option<(usize, Vec<(u64, Instr)>)>,

    // Optional per-preg access log for fault-equivalence pruning
    // (fault-free instrumented runs only; `None` costs one branch in
    // read_phys/write_phys).
    rf_log: Option<Box<RfAccessLog>>,

    // Optional log of the cycle of every successfully decoded dispatch
    // (fault-free instrumented runs only) — the site space of the
    // instruction-skip model, used for skip equivalence classes.
    dispatch_log: Option<Vec<u64>>,
}

impl OooCore {
    /// Builds a core for `cfg` with `image` loaded.
    ///
    /// # Panics
    ///
    /// Panics if the image's ISA does not match the configuration.
    pub fn new(cfg: &CoreConfig, image: &SystemImage) -> OooCore {
        assert_eq!(cfg.isa, image.isa, "image/config ISA mismatch");
        let nregs = cfg.isa.num_regs() as usize;
        let nphys = cfg.phys_regs as usize;
        assert!(
            nphys > nregs + 4,
            "need more physical than architectural registers"
        );
        let rat: Vec<PReg> = (0..nregs as PReg).collect();
        let mut free_ring = vec![0 as PReg; nphys];
        let mut free_tail = 0u64;
        for p in nregs as PReg..nphys as PReg {
            free_ring[free_tail as usize] = p;
            free_tail += 1;
        }
        OooCore {
            isa: cfg.isa,
            mem: MemSystem::new(cfg, image),
            user_text_end: image.user_text_end,
            text: SharedText::new(image.decoded()),
            fetch_pc: image.reset_pc as u64,
            fetch_stall_until: 0,
            fetch_queue: VecDeque::new(),
            fetch_halted: false,
            bp: vec![1; cfg.bp_entries as usize], // weakly not-taken
            btb: vec![(u64::MAX, 0); cfg.btb_entries as usize],
            ras: Vec::with_capacity(RAS_DEPTH),
            rat: rat.clone(),
            rrat: rat,
            free_ring,
            free_head: 0,
            free_tail,
            phys: vec![0; nphys],
            phys_ready: vec![true; nphys],
            rob: VecDeque::with_capacity(cfg.rob_entries as usize),
            next_seq: 0,
            iq: Vec::with_capacity(cfg.iq_entries as usize),
            lq: vec![LqEntry::default(); cfg.lq_entries as usize],
            sq: vec![SqEntry::default(); cfg.sq_entries as usize],
            finish: Vec::new(),
            mode: Mode::Kernel,
            sysregs: [0; vulnstack_isa::SysReg::COUNT],
            cycle: 0,
            committed: 0,
            last_commit_cycle: 0,
            ended: None,
            rf_taint: None,
            stuck: None,
            pending_skip: false,
            fpm: None,
            fpm_cycle: None,
            ftrace: None,
            trace: None,
            rf_log: None,
            dispatch_log: None,
            cfg: cfg.clone(),
        }
    }

    /// Records the first `n` committed instructions (pc + decoded form)
    /// for inspection.
    pub fn enable_trace(&mut self, n: usize) {
        self.trace = Some((n, Vec::with_capacity(n)));
    }

    /// The committed-instruction trace collected so far.
    pub fn trace(&self) -> &[(u64, Instr)] {
        self.trace.as_ref().map_or(&[], |(_, v)| v.as_slice())
    }

    /// Enables the fault-lifetime event trace with ring capacity `cap`
    /// (see [`crate::lifetime`]). Call before [`OooCore::inject`]; the
    /// log is returned in [`OooOutcome::ftrace`].
    pub fn enable_fault_trace(&mut self, cap: usize) {
        self.ftrace = Some(FaultTrace::new(cap));
    }

    /// The fault-lifetime trace collected so far, if enabled.
    pub fn fault_trace(&self) -> Option<&FaultTrace> {
        self.ftrace.as_ref()
    }

    /// Records that the campaign layer observed [`OooCore::fault_extinct`]
    /// and stopped simulating (the trace's terminal Masked milestone).
    pub fn note_fault_extinct(&mut self) {
        self.ftrace_push(FaultEventKind::Extinct);
    }

    /// Records that the early-termination engine proved extinction via
    /// [`OooCore::converged_with`] against a golden checkpoint and ended
    /// the run here.
    pub fn note_pruned_extinct(&mut self) {
        self.ftrace_push(FaultEventKind::PrunedExtinct);
    }

    /// Enables the per-preg access log (fault-free instrumented golden
    /// runs only; see [`RfAccessLog`]).
    pub fn enable_rf_log(&mut self) {
        self.rf_log = Some(Box::new(RfAccessLog::new(self.phys.len())));
    }

    /// Takes the access log collected so far, if enabled.
    pub fn take_rf_log(&mut self) -> Option<Box<RfAccessLog>> {
        self.rf_log.take()
    }

    /// Enables the decoded-dispatch cycle log (fault-free instrumented
    /// golden runs only) — one entry per successfully decoded dispatch,
    /// i.e. per potential instruction-skip firing point.
    pub fn enable_dispatch_log(&mut self) {
        self.dispatch_log = Some(Vec::new());
    }

    /// Takes the dispatch log collected so far, if enabled.
    pub fn take_dispatch_log(&mut self) -> Option<Vec<u64>> {
        self.dispatch_log.take()
    }

    /// A checkpoint of the core as [`crate::snapshot::CheckpointStore`]
    /// keeps it: memory and cache pages shared with this core instead of
    /// copied, and no RF access or dispatch log. The logs belong to the
    /// golden pass recording them, so a restored core starts unlogged
    /// and no injection run extends or copies them.
    pub(crate) fn snapshot(&mut self) -> OooCore {
        self.mem.share();
        let logs = (self.rf_log.take(), self.dispatch_log.take());
        let snap = self.clone();
        (self.rf_log, self.dispatch_log) = logs;
        snap
    }

    /// First architecturally visible manifestation of the injected fault
    /// so far, if any.
    pub fn fpm(&self) -> Option<Fpm> {
        self.fpm
    }

    /// Cycle of that first manifestation.
    pub fn fpm_cycle(&self) -> Option<u64> {
        self.fpm_cycle
    }

    /// The LSQ entries armed now and, from the same scan of both
    /// queues, how many entries are valid. An entry is *armed* when
    /// [`OooCore::inject`] taints its flat-bit flips: a load-queue entry
    /// valid with a generated address, a store-queue entry valid and
    /// executed. Flips into any other entry are rewritten before use or
    /// never read — provably Masked.
    pub(crate) fn lsq_armed(&self) -> (ArmedMask, u64) {
        debug_assert!(self.lq.len() <= 32 && self.sq.len() <= 32);
        let (mut armed, mut valid) = (ArmedMask::default(), 0);
        for (i, e) in self.lq.iter().enumerate() {
            if e.valid {
                valid += 1;
                armed.lq |= u32::from(e.addr_ready) << i;
            }
        }
        for (i, e) in self.sq.iter().enumerate() {
            if e.valid {
                valid += 1;
                armed.sq |= u32::from(e.ready) << i;
            }
        }
        (armed, valid)
    }

    #[inline]
    fn ftrace_push(&mut self, kind: FaultEventKind) {
        if let Some(ft) = &mut self.ftrace {
            ft.push(self.cycle, kind);
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Committed instruction count.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// True once the run has reached a terminal state.
    pub fn ended(&self) -> bool {
        self.ended.is_some()
    }

    /// Injects a single-bit fault into `structure` at flat bit index
    /// `bit` over the structure's bit population ([`HwStructure::bits`]).
    /// Equivalent to [`OooCore::inject_model`] with
    /// [`FaultModel::BitFlip`].
    pub fn inject(&mut self, structure: HwStructure, bit: u64) {
        self.inject_model(structure, bit, FaultModel::BitFlip);
    }

    /// Applies a value corruption (`delta` XOR) to the LSQ field that
    /// flat bit `bit` addresses, tainting the entry if it is armed.
    fn corrupt_lsq(&mut self, bit: u64, delta: u64) {
        let site = lsq_site(bit, self.isa.xlen(), self.lq.len(), self.sq.len())
            .unwrap_or_else(|| panic!("LSQ fault site bit {bit} out of range"));
        match site {
            LsqSite::LqAddr { entry, bit } => {
                self.lq[entry].addr ^= delta << bit;
                // The corruption only matters if the AGU already wrote
                // the address and the load has not yet used it; a hit
                // before address generation is overwritten (masked).
                if self.lq[entry].valid && self.lq[entry].addr_ready {
                    self.lq[entry].taint = true;
                }
            }
            LsqSite::SqAddr { entry, bit } => {
                self.sq[entry].addr ^= delta << bit;
                // Same masking rule: the fields are rewritten at
                // execute, so only armed (executed) entries carry the
                // corruption to commit.
                if self.sq[entry].valid && self.sq[entry].ready {
                    self.sq[entry].taint = true;
                }
            }
            LsqSite::SqData { entry, bit } => {
                self.sq[entry].data ^= delta << bit;
                if self.sq[entry].valid && self.sq[entry].ready {
                    self.sq[entry].taint = true;
                }
            }
        }
    }

    /// Injects a fault of `model` into `structure` at site index `bit`
    /// over the model's site space ([`HwStructure::sites`]): flat bits
    /// for bit-granular models, aligned byte indices for byte
    /// corruption, and the single site `0` for instruction skip.
    ///
    /// # Panics
    ///
    /// Panics if the model does not apply to the structure or the site
    /// index is out of range — out-of-range sites were previously
    /// aliased onto in-range bits by modulo wrapping, which double
    /// counts under exhaustive enumeration.
    pub fn inject_model(&mut self, structure: HwStructure, bit: u64, model: FaultModel) {
        assert!(
            structure.admits(model),
            "fault model {model} does not apply to {structure}"
        );
        let xlen = self.isa.xlen();
        match (model, structure) {
            (FaultModel::BitFlip, HwStructure::RegisterFile) => {
                let (preg, b) = rf_site(bit, xlen, self.phys.len())
                    .unwrap_or_else(|| panic!("RF fault site bit {bit} out of range"));
                self.phys[preg] ^= 1u64 << b;
                self.phys[preg] = exec::trunc(self.isa, self.phys[preg]);
                self.rf_taint = Some((preg, b));
            }
            (FaultModel::ByteCorrupt, HwStructure::RegisterFile) => {
                let (preg, b) = rf_site(bit * 8, xlen, self.phys.len())
                    .unwrap_or_else(|| panic!("RF fault site byte {bit} out of range"));
                self.phys[preg] ^= 0xFFu64 << b;
                self.phys[preg] = exec::trunc(self.isa, self.phys[preg]);
                self.rf_taint = Some((preg, b));
            }
            (FaultModel::StuckAt, HwStructure::RegisterFile) => {
                let (preg, b) = rf_site(bit, xlen, self.phys.len())
                    .unwrap_or_else(|| panic!("RF fault site bit {bit} out of range"));
                // The cell sticks at the complement of its current value
                // (the injection is the first manifestation of the
                // defect), so the initial corruption matches a bit flip.
                let stuck_val = (self.phys[preg] >> b) & 1 == 0;
                self.phys[preg] ^= 1u64 << b;
                self.phys[preg] = exec::trunc(self.isa, self.phys[preg]);
                self.rf_taint = Some((preg, b));
                self.stuck = Some((preg, b, stuck_val));
            }
            (FaultModel::InstrSkip, _) => {
                assert!(bit == 0, "instruction skip has a single site (bit 0)");
                self.pending_skip = true;
            }
            (FaultModel::BitFlip, HwStructure::Lsq) => self.corrupt_lsq(bit, 1),
            (FaultModel::ByteCorrupt, HwStructure::Lsq) => {
                // Byte sites are aligned; xlen is a multiple of 8, so a
                // byte never straddles an LSQ field boundary.
                self.corrupt_lsq(bit * 8, 0xFF);
            }
            (FaultModel::BitFlip, HwStructure::L1i) => {
                self.mem.flip_bit(Level::L1i, bit);
            }
            (FaultModel::BitFlip, HwStructure::L1d) => {
                self.mem.flip_bit(Level::L1d, bit);
            }
            (FaultModel::BitFlip, HwStructure::L2) => {
                self.mem.flip_bit(Level::L2, bit);
            }
            _ => unreachable!("admits checked above"),
        }
        if let Some(ft) = &mut self.ftrace {
            ft.push(self.cycle, FaultEventKind::Injected { structure, bit });
            let live = self.mem.taint().is_some_and(|t| t.live());
            ft.note_mem_state(self.cycle, live);
        }
    }

    fn record_fpm(&mut self, fpm: Fpm) {
        if self.fpm.is_none() {
            self.fpm = Some(fpm);
            self.fpm_cycle = Some(self.cycle);
            self.ftrace_push(FaultEventKind::ArchVisible { fpm });
        }
    }

    // ------------------------------------------------------------------
    // Rename helpers.
    // ------------------------------------------------------------------

    fn free_count(&self) -> u64 {
        self.free_tail - self.free_head
    }

    fn alloc_preg(&mut self) -> PReg {
        debug_assert!(self.free_count() > 0);
        let p = self.free_ring[(self.free_head % self.free_ring.len() as u64) as usize];
        self.free_head += 1;
        p
    }

    fn release_preg(&mut self, p: PReg) {
        let cap = self.free_ring.len() as u64;
        self.free_ring[(self.free_tail % cap) as usize] = p;
        self.free_tail += 1;
        debug_assert!(self.free_tail - self.free_head <= cap);
    }

    fn read_phys(&mut self, p: PReg, taint: &mut Option<Fpm>) -> u64 {
        if let Some(log) = &mut self.rf_log {
            log.note(p as usize, self.cycle, false);
        }
        if self.rf_taint.is_some_and(|(tp, _)| tp == p as usize) {
            taint.get_or_insert(Fpm::Wd);
            self.ftrace_push(FaultEventKind::Consumed {
                fpm: Fpm::Wd,
                unit: FaultUnit::Rf,
            });
        }
        self.phys[p as usize]
    }

    fn write_phys(&mut self, p: PReg, v: u64) {
        if let Some(log) = &mut self.rf_log {
            log.note(p as usize, self.cycle, true);
        }
        // Overwriting the corrupted register repairs it (masking).
        if self.rf_taint.is_some_and(|(tp, _)| tp == p as usize) {
            self.rf_taint = None;
            self.ftrace_push(FaultEventKind::Repaired);
        }
        self.phys[p as usize] = exec::trunc(self.isa, v);
        self.phys_ready[p as usize] = true;
        // A stuck-at cell re-asserts its stuck value on every write: if
        // the written value disagrees, the register is corrupted anew
        // (a fresh taint lifetime after the `Repaired` above).
        if let Some((sp, sb, sv)) = self.stuck {
            if sp == p as usize {
                let cur = self.phys[sp];
                let forced = (cur & !(1u64 << sb)) | (u64::from(sv) << sb);
                if forced != cur {
                    self.phys[sp] = forced;
                    self.rf_taint = Some((sp, sb));
                    self.ftrace_push(FaultEventKind::Reasserted);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Branch prediction.
    // ------------------------------------------------------------------

    fn bp_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.bp.len() - 1)
    }

    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.btb.len() - 1)
    }

    fn predict(&mut self, pc: u64, instr: &Instr) -> u64 {
        match instr.op {
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
                if self.bp[self.bp_index(pc)] >= 2 {
                    pc.wrapping_add(instr.imm as u64)
                } else {
                    pc + 4
                }
            }
            Op::Jmp => pc.wrapping_add(instr.imm as u64),
            Op::Call => {
                if self.ras.len() == RAS_DEPTH {
                    self.ras.remove(0);
                }
                self.ras.push(pc + 4);
                pc.wrapping_add(instr.imm as u64)
            }
            Op::Callr => {
                if self.ras.len() == RAS_DEPTH {
                    self.ras.remove(0);
                }
                self.ras.push(pc + 4);
                let (tag, target) = self.btb[self.btb_index(pc)];
                if tag == pc {
                    target
                } else {
                    pc + 4
                }
            }
            Op::Jmpr => {
                if instr.rs1 == self.isa.lr() {
                    self.ras.pop().unwrap_or(pc + 4)
                } else {
                    let (tag, target) = self.btb[self.btb_index(pc)];
                    if tag == pc {
                        target
                    } else {
                        pc + 4
                    }
                }
            }
            _ => pc + 4,
        }
    }

    fn train(&mut self, pc: u64, instr: &Instr, taken: bool, target: u64) {
        if instr.op.is_branch() {
            let i = self.bp_index(pc);
            let c = self.bp[i];
            self.bp[i] = if taken {
                (c + 1).min(3)
            } else {
                c.saturating_sub(1)
            };
        }
        if matches!(instr.op, Op::Callr | Op::Jmpr) {
            let i = self.btb_index(pc);
            self.btb[i] = (pc, target);
        }
    }

    fn fetchable(&self, pc: u64) -> bool {
        pc.is_multiple_of(4)
            && match self.mode {
                Mode::Kernel => pc + 4 <= memmap::MEM_SIZE as u64,
                Mode::User => {
                    memmap::user_access_ok(pc as u32, 4, AccessKind::Fetch, self.user_text_end)
                }
            }
    }

    // ------------------------------------------------------------------
    // Fetch.
    // ------------------------------------------------------------------

    fn fetch(&mut self) {
        if self.fetch_halted || self.cycle < self.fetch_stall_until {
            return;
        }
        for _ in 0..self.cfg.width {
            if self.fetch_queue.len() >= 2 * self.cfg.width as usize {
                break;
            }
            let pc = self.fetch_pc;
            if !self.fetchable(pc) {
                self.fetch_queue.push_back(FetchedInstr {
                    pc,
                    word: 0,
                    ok: false,
                    predicted_next: pc + 4,
                    taint_bit: None,
                });
                self.fetch_halted = true; // wait for the fault to commit
                return;
            }
            let (lat, word, tainted) = self.mem.fetch_word(pc as u32);
            let miss = lat > self.cfg.l1i.latency;
            if miss {
                self.fetch_stall_until = self.cycle + lat as u64;
            }
            let taint_bit = if tainted {
                let t = self.mem.taint().expect("tainted fetch implies taint state");
                Some((t.addr as u64 - pc) as u32 * 8 + t.bit_in_byte as u32)
            } else {
                None
            };
            let decode = self.text.decode(pc, word);
            let predicted_next = match &decode {
                Ok(i) => self.predict(pc, i),
                Err(_) => pc + 4,
            };
            self.fetch_queue.push_back(FetchedInstr {
                pc,
                word,
                ok: true,
                predicted_next,
                taint_bit,
            });
            self.fetch_pc = predicted_next;
            match &decode {
                Ok(i) if matches!(i.op, Op::Syscall | Op::Eret | Op::Halt) => {
                    // Serialize: stop fetching until commit redirects.
                    self.fetch_halted = true;
                    return;
                }
                Err(_) => {
                    self.fetch_halted = true;
                    return;
                }
                _ => {}
            }
            if predicted_next != pc + 4 || miss {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch.
    // ------------------------------------------------------------------

    fn classify(instr: &Instr) -> RobKind {
        use vulnstack_isa::op::Format;
        match instr.op {
            Op::Syscall => RobKind::Syscall,
            Op::Eret => RobKind::Eret,
            Op::Halt => RobKind::Halt,
            Op::Nop => RobKind::Nop,
            Op::Mfsr => RobKind::Mfsr,
            Op::Mtsr => RobKind::Mtsr,
            Op::Call | Op::Jmp | Op::Callr | Op::Jmpr => RobKind::Jump,
            _ => match instr.op.format() {
                Format::B => RobKind::Branch,
                Format::Load => RobKind::Load,
                Format::Store => RobKind::Store,
                _ => RobKind::Alu,
            },
        }
    }

    fn dispatch(&mut self) {
        for _ in 0..self.cfg.width {
            if self.rob.len() >= self.cfg.rob_entries as usize {
                break;
            }
            let Some(front) = self.fetch_queue.front().copied() else {
                break;
            };

            let mut decode = if front.ok {
                self.text.decode(front.pc, front.word).ok()
            } else {
                None
            };
            let decoded = decode.is_some();
            // An armed instruction skip fires at the first successfully
            // decoded dispatch: the instruction enters the ROB as a NOP
            // (one-shot, even if later squashed off a wrong path). A
            // NOP needs no IQ/LSQ/rename resources, so the skipped
            // instruction's own resource stalls vanish with it.
            let skip_fired = self.pending_skip && decoded;
            if skip_fired {
                decode = Some(Instr::nop());
            }
            let kind = decode.as_ref().map_or(RobKind::Invalid, Self::classify);

            let needs_iq = !matches!(
                kind,
                RobKind::Nop | RobKind::Syscall | RobKind::Eret | RobKind::Halt | RobKind::Invalid
            );
            if needs_iq && self.iq.len() >= self.cfg.iq_entries as usize {
                break;
            }
            if kind == RobKind::Load && !self.lq.iter().any(|e| !e.valid) {
                break;
            }
            if kind == RobKind::Store && !self.sq.iter().any(|e| !e.valid) {
                break;
            }
            let instr = decode.unwrap_or_else(Instr::nop);
            let has_dest = decode.is_some() && instr.dest(self.isa).is_some();
            if has_dest && self.free_count() == 0 {
                break;
            }
            self.fetch_queue.pop_front();
            if decoded {
                if let Some(log) = &mut self.dispatch_log {
                    log.push(self.cycle);
                }
            }

            let seq = self.next_seq;
            self.next_seq += 1;

            let mut entry = RobEntry {
                seq,
                pc: front.pc,
                instr,
                kind,
                dest: None,
                srcs: [None; 2],
                done: false,
                exception: None,
                predicted_next: front.predicted_next,
                snapshot: None,
                lsq_slot: None,
                mtsr_value: 0,
                taint: None,
            };

            if kind == RobKind::Invalid {
                entry.exception = Some(if front.ok {
                    Trap::new(TrapCause::UndefinedInstruction, front.pc)
                } else {
                    Trap::with_addr(TrapCause::FetchFault, front.pc, front.pc)
                });
                entry.done = true;
                if let Some(bit) = front.taint_bit {
                    let fpm = match classify_bit(front.word, bit) {
                        BitClass::Instruction => Fpm::Wi,
                        BitClass::Operand => Fpm::Woi,
                        BitClass::Ignored => Fpm::Wi,
                    };
                    entry.taint = Some(fpm);
                    self.ftrace_push(FaultEventKind::Consumed {
                        fpm,
                        unit: FaultUnit::Fetch,
                    });
                }
                self.rob.push_back(entry);
                continue;
            }

            if let Some(bit) = front.taint_bit {
                entry.taint = match classify_bit(front.word, bit) {
                    BitClass::Instruction => Some(Fpm::Wi),
                    BitClass::Operand => Some(Fpm::Woi),
                    BitClass::Ignored => None, // decoder discards these bits
                };
                if let Some(fpm) = entry.taint {
                    self.ftrace_push(FaultEventKind::Consumed {
                        fpm,
                        unit: FaultUnit::Fetch,
                    });
                }
            }

            if skip_fired {
                self.pending_skip = false;
                entry.taint = Some(Fpm::Wi);
                self.ftrace_push(FaultEventKind::Consumed {
                    fpm: Fpm::Wi,
                    unit: FaultUnit::Fetch,
                });
            }

            if kind == RobKind::Branch || kind == RobKind::Jump {
                entry.snapshot = Some((self.rat.clone(), self.free_head));
            }

            // Rename sources (at most two architectural sources).
            let src_order = instr.regs_read();
            for (i, r) in src_order.iter().enumerate().take(2) {
                if self.isa.zero() == Some(*r) {
                    entry.srcs[i] = None; // constant zero
                } else {
                    entry.srcs[i] = Some(self.rat[r.index()]);
                }
            }

            if has_dest {
                let arch = instr.dest(self.isa).expect("checked");
                let newp = self.alloc_preg();
                let oldp = self.rat[arch.index()];
                self.rat[arch.index()] = newp;
                self.phys_ready[newp as usize] = false;
                entry.dest = Some((arch, newp, oldp));
            }

            match kind {
                RobKind::Load => {
                    let slot = self.lq.iter().position(|e| !e.valid).expect("checked");
                    self.lq[slot] = LqEntry {
                        valid: true,
                        seq,
                        addr: 0,
                        addr_ready: false,
                        taint: false,
                    };
                    entry.lsq_slot = Some(slot);
                }
                RobKind::Store => {
                    let slot = self.sq.iter().position(|e| !e.valid).expect("checked");
                    self.sq[slot] = SqEntry {
                        valid: true,
                        seq,
                        addr: 0,
                        data: 0,
                        size: instr.op.access_bytes() as u32,
                        ready: false,
                        taint: false,
                    };
                    entry.lsq_slot = Some(slot);
                }
                _ => {}
            }

            if needs_iq {
                self.iq.push(IqEntry { seq, issued: false });
            } else {
                entry.done = true;
            }
            self.rob.push_back(entry);
        }
    }

    // ------------------------------------------------------------------
    // Issue & execute.
    // ------------------------------------------------------------------

    fn rob_index(&self, seq: u64) -> Option<usize> {
        let head = self.rob.front()?.seq;
        if seq < head {
            return None;
        }
        let idx = (seq - head) as usize;
        if idx < self.rob.len() {
            Some(idx)
        } else {
            None
        }
    }

    fn rob_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let idx = self.rob_index(seq)?;
        self.rob.get_mut(idx)
    }

    fn issue(&mut self) {
        // Purge entries whose ROB entry is gone (squashed) or already
        // complete (a branch that triggered recovery mid-issue).
        let head = self.rob.front().map(|e| e.seq);
        let rob_len = self.rob.len() as u64;
        let rob = &self.rob;
        self.iq.retain(|e| {
            let Some(h) = head else { return false };
            if e.seq < h || e.seq - h >= rob_len {
                return false;
            }
            !rob[(e.seq - h) as usize].done
        });

        let mut candidates: Vec<u64> = Vec::new();
        for e in &self.iq {
            if e.issued {
                continue;
            }
            let Some(idx) = self.rob_index(e.seq) else {
                continue;
            };
            let ready = self.rob[idx]
                .srcs
                .iter()
                .flatten()
                .all(|&p| self.phys_ready[p as usize]);
            if ready {
                candidates.push(e.seq);
            }
        }
        candidates.sort_unstable();

        let mut issued = 0u32;
        let mut finished: Vec<u64> = Vec::new();
        let mut squashed = false;
        for seq in candidates {
            if issued >= self.cfg.width {
                break;
            }
            match self.execute_one(seq) {
                ExecResult::Done => {
                    finished.push(seq);
                    issued += 1;
                }
                ExecResult::Retry => {}
                ExecResult::Squashed => {
                    // The mispredicted branch itself has executed; drop it
                    // (recovery already pruned everything younger).
                    finished.push(seq);
                    squashed = true;
                    break;
                }
            }
        }
        self.iq.retain(|e| !finished.contains(&e.seq));
        let _ = squashed;
    }

    fn read_srcs(&mut self, seq: u64, taint: &mut Option<Fpm>) -> [u64; 2] {
        let idx = self.rob_index(seq).expect("entry exists");
        let srcs = self.rob[idx].srcs;
        let mut vals = [0u64; 2];
        for (i, s) in srcs.iter().enumerate() {
            if let Some(p) = s {
                vals[i] = self.read_phys(*p, taint);
            }
        }
        vals
    }

    fn execute_one(&mut self, seq: u64) -> ExecResult {
        let idx = match self.rob_index(seq) {
            Some(i) => i,
            None => return ExecResult::Retry,
        };
        let entry = &self.rob[idx];
        let instr = entry.instr;
        let kind = entry.kind;
        let pc = entry.pc;
        let dest = entry.dest;
        let lsq_slot = entry.lsq_slot;
        let predicted = entry.predicted_next;

        let mut taint: Option<Fpm> = None;
        match kind {
            RobKind::Alu => {
                let vals = self.read_srcs(seq, &mut taint);
                let (a, b, rd_old) = if instr.op == Op::Movk {
                    (0, 0, vals[0])
                } else {
                    (vals[0], vals[1], 0)
                };
                let latency = instr.op.exec_latency() as u64;
                match exec::alu(&instr, a, b, rd_old, self.isa) {
                    Ok(v) => {
                        if let Some((_, newp, _)) = dest {
                            self.finish
                                .push((self.cycle + latency, seq, newp, v, taint));
                        } else {
                            self.mark_done(seq, taint);
                        }
                    }
                    Err(cause) => {
                        self.mark_exception(seq, Trap::new(cause, pc), taint);
                    }
                }
                ExecResult::Done
            }
            RobKind::Mfsr => {
                // Value is produced at commit (serialized with sysreg
                // state); execution just completes the entry.
                self.mark_done(seq, taint);
                ExecResult::Done
            }
            RobKind::Mtsr => {
                let vals = self.read_srcs(seq, &mut taint);
                let e = self.rob_mut(seq).expect("entry exists");
                e.mtsr_value = vals[0];
                self.mark_done(seq, taint);
                ExecResult::Done
            }
            RobKind::Branch | RobKind::Jump => {
                let vals = self.read_srcs(seq, &mut taint);
                let actual_next = match instr.op {
                    Op::Jmp | Op::Call => pc.wrapping_add(instr.imm as u64),
                    Op::Jmpr | Op::Callr => exec::trunc(self.isa, vals[0]),
                    _ => {
                        if exec::branch_taken(instr.op, vals[0], vals[1], self.isa) {
                            pc.wrapping_add(instr.imm as u64)
                        } else {
                            pc + 4
                        }
                    }
                };
                self.train(pc, &instr, actual_next != pc + 4, actual_next);
                if let Some((_, newp, _)) = dest {
                    // CALL/CALLR link value.
                    self.write_phys(newp, pc + 4);
                }
                self.mark_done(seq, taint);
                if actual_next != predicted {
                    self.recover_branch(seq, actual_next);
                    return ExecResult::Squashed;
                }
                ExecResult::Done
            }
            RobKind::Load => {
                let vals = self.read_srcs(seq, &mut taint);
                let slot = lsq_slot.expect("loads have LQ slots");
                if !self.lq[slot].addr_ready {
                    let addr0 = exec::trunc(self.isa, vals[0].wrapping_add(instr.imm as u64));
                    self.lq[slot].addr = addr0;
                    self.lq[slot].addr_ready = true;
                }
                // Conservative disambiguation: all older stores need
                // addresses first. While the load waits, its latched
                // address sits exposed in the LQ.
                if self.sq.iter().any(|s| s.valid && s.seq < seq && !s.ready) {
                    return ExecResult::Retry;
                }
                let addr = self.lq[slot].addr;
                if self.lq[slot].taint {
                    taint.get_or_insert(Fpm::Wd);
                    self.ftrace_push(FaultEventKind::Consumed {
                        fpm: Fpm::Wd,
                        unit: FaultUnit::Lq,
                    });
                }
                let size = instr.op.access_bytes() as u32;
                if let Some(trap) = self.mem_check(addr, size, AccessKind::Read, pc) {
                    self.mark_exception(seq, trap, taint);
                    return ExecResult::Done;
                }
                // Store-to-load forwarding from the youngest fully
                // containing older store.
                let mut forwarded: Option<(u64, bool)> = None;
                let mut best = 0u64;
                for s in &self.sq {
                    if !s.valid || s.seq >= seq || !s.ready {
                        continue;
                    }
                    let s_end = s.addr + s.size as u64;
                    let l_end = addr + size as u64;
                    if s.addr < l_end && addr < s_end {
                        if s.addr <= addr && l_end <= s_end {
                            if s.seq >= best {
                                best = s.seq;
                                let shift = (addr - s.addr) * 8;
                                let mask = if size == 8 {
                                    u64::MAX
                                } else {
                                    (1u64 << (size * 8)) - 1
                                };
                                forwarded = Some(((s.data >> shift) & mask, s.taint));
                            }
                        } else {
                            // Partial overlap: wait for the store to drain.
                            return ExecResult::Retry;
                        }
                    }
                }
                let (raw, latency, mem_taint) = match forwarded {
                    Some((v, t)) => (v, 1u32, t),
                    None => {
                        let (lat, v, t) = self.mem.load(addr as u32, size);
                        (v, lat, t)
                    }
                };
                if mem_taint {
                    taint.get_or_insert(Fpm::Wd);
                    self.ftrace_push(FaultEventKind::Consumed {
                        fpm: Fpm::Wd,
                        unit: FaultUnit::Mem,
                    });
                }
                let value = exec::load_extend(instr.op, raw, self.isa);
                if let Some((_, newp, _)) = dest {
                    self.finish
                        .push((self.cycle + latency as u64, seq, newp, value, taint));
                } else {
                    self.mark_done(seq, taint);
                }
                ExecResult::Done
            }
            RobKind::Store => {
                let vals = self.read_srcs(seq, &mut taint); // [data, base]
                let addr = exec::trunc(self.isa, vals[1].wrapping_add(instr.imm as u64));
                let size = instr.op.access_bytes() as u32;
                if let Some(trap) = self.mem_check(addr, size, AccessKind::Write, pc) {
                    self.mark_exception(seq, trap, taint);
                    return ExecResult::Done;
                }
                let slot = lsq_slot.expect("stores have SQ slots");
                let s = &mut self.sq[slot];
                s.addr = addr;
                s.data = vals[0];
                s.ready = true;
                // Rewriting the fields clears any pre-execute flip; the
                // entry is tainted only by corrupted register sources.
                s.taint = taint.is_some();
                self.mark_done(seq, taint);
                ExecResult::Done
            }
            _ => {
                self.mark_done(seq, None);
                ExecResult::Done
            }
        }
    }

    fn mark_done(&mut self, seq: u64, taint: Option<Fpm>) {
        if let Some(e) = self.rob_mut(seq) {
            e.done = true;
            if let Some(t) = taint {
                e.taint.get_or_insert(t);
            }
        }
    }

    fn mark_exception(&mut self, seq: u64, trap: Trap, taint: Option<Fpm>) {
        if let Some(e) = self.rob_mut(seq) {
            e.exception = Some(trap);
            e.done = true;
            if let Some(t) = taint {
                e.taint.get_or_insert(t);
            }
        }
    }

    fn mem_check(&self, addr: u64, size: u32, kind: AccessKind, pc: u64) -> Option<Trap> {
        if !addr.is_multiple_of(size as u64) {
            return Some(Trap::with_addr(TrapCause::MisalignedAccess, pc, addr));
        }
        let ok = match self.mode {
            Mode::Kernel => addr + size as u64 <= memmap::MEM_SIZE as u64,
            Mode::User => memmap::user_access_ok(addr as u32, size, kind, self.user_text_end),
        };
        if ok {
            None
        } else {
            Some(Trap::with_addr(TrapCause::AccessFault, pc, addr))
        }
    }

    // ------------------------------------------------------------------
    // Writeback.
    // ------------------------------------------------------------------

    fn writeback(&mut self) {
        let now = self.cycle;
        let mut done: Vec<(u64, PReg, u64, Option<Fpm>)> = Vec::new();
        self.finish.retain(|&(cyc, seq, preg, value, taint)| {
            if cyc <= now {
                done.push((seq, preg, value, taint));
                false
            } else {
                true
            }
        });
        for (seq, preg, value, taint) in done {
            if self.rob_index(seq).is_none() {
                continue; // squashed producer
            }
            self.write_phys(preg, value);
            self.mark_done(seq, taint);
        }
    }

    // ------------------------------------------------------------------
    // Recovery.
    // ------------------------------------------------------------------

    fn recover_branch(&mut self, branch_seq: u64, target: u64) {
        let idx = self.rob_index(branch_seq).expect("branch in ROB");
        let (rat, free_head) = self.rob[idx]
            .snapshot
            .clone()
            .expect("branches carry snapshots");
        self.rat = rat;
        self.free_head = free_head;
        // The snapshot predates the branch's own destination rename
        // (CALL's link register): re-apply it.
        if let Some((arch, newp, _old)) = self.rob[idx].dest {
            self.rat[arch.index()] = newp;
            self.free_head += 1;
        }
        let mut squashed_taint = 0u32;
        while self.rob.len() > idx + 1 {
            let e = self.rob.pop_back().expect("len checked");
            if e.taint.is_some() {
                squashed_taint += 1;
            }
            if let Some(slot) = e.lsq_slot {
                match e.kind {
                    RobKind::Load => self.lq[slot].valid = false,
                    RobKind::Store => self.sq[slot].valid = false,
                    _ => {}
                }
            }
        }
        if squashed_taint > 0 {
            self.ftrace_push(FaultEventKind::Squashed {
                tainted: squashed_taint,
            });
        }
        // Squashed sequence numbers are reused so the ROB stays seq-
        // contiguous (rob_index depends on it). All references to the
        // squashed range are purged right here.
        self.next_seq = branch_seq + 1;
        self.iq.retain(|e| e.seq <= branch_seq);
        self.finish.retain(|&(_, seq, _, _, _)| seq <= branch_seq);
        self.fetch_queue.clear();
        self.fetch_pc = target;
        self.fetch_halted = false;
        self.fetch_stall_until = 0;
    }

    fn flush_all(&mut self, next_pc: u64) {
        if self.ftrace.is_some() {
            let tainted = self.rob.iter().filter(|e| e.taint.is_some()).count() as u32;
            if tainted > 0 {
                self.ftrace_push(FaultEventKind::Squashed { tainted });
            }
        }
        self.rat = self.rrat.clone();
        let nregs = self.isa.num_regs() as usize;
        let live: Vec<PReg> = self.rrat[..nregs].to_vec();
        let free: Vec<PReg> = (0..self.phys.len() as PReg)
            .filter(|p| !live.contains(p))
            .collect();
        self.free_head = 0;
        self.free_tail = 0;
        for p in free {
            let cap = self.free_ring.len() as u64;
            self.free_ring[(self.free_tail % cap) as usize] = p;
            self.free_tail += 1;
        }
        self.rob.clear();
        self.iq.clear();
        self.finish.clear();
        for e in self.lq.iter_mut() {
            e.valid = false;
        }
        for e in self.sq.iter_mut() {
            e.valid = false;
        }
        self.fetch_queue.clear();
        self.fetch_pc = next_pc;
        self.fetch_halted = false;
        self.fetch_stall_until = 0;
        for &p in &self.rrat[..nregs] {
            self.phys_ready[p as usize] = true;
        }
    }

    fn raise_trap(&mut self, trap: Trap) {
        if self.mode == Mode::Kernel {
            self.ended = Some(RunStatus::KernelPanic);
            return;
        }
        self.sysregs[vulnstack_isa::SysReg::Epc.index() as usize] = trap.pc;
        self.sysregs[vulnstack_isa::SysReg::Cause.index() as usize] = trap.cause.code();
        self.sysregs[vulnstack_isa::SysReg::BadAddr.index() as usize] = trap.addr;
        self.mode = Mode::Kernel;
        self.flush_all(memmap::TRAP_VEC as u64);
    }

    // ------------------------------------------------------------------
    // Commit.
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        for _ in 0..self.cfg.width {
            let Some(head) = self.rob.front() else { return };
            if !head.done {
                return;
            }
            let entry = self.rob.pop_front().expect("head exists");
            self.last_commit_cycle = self.cycle;

            // Architectural visibility of the injected fault.
            if let Some(t) = entry.taint {
                self.record_fpm(t);
            }

            if let Some(trap) = entry.exception {
                self.raise_trap(trap);
                return;
            }

            self.committed += 1;
            if let Some((cap, v)) = &mut self.trace {
                if v.len() < *cap {
                    v.push((entry.pc, entry.instr));
                }
            }

            match entry.kind {
                RobKind::Syscall => {
                    self.raise_trap(Trap::new(TrapCause::Syscall, entry.pc));
                    return;
                }
                RobKind::Halt => {
                    if self.mode == Mode::User {
                        self.raise_trap(Trap::new(TrapCause::PrivilegeViolation, entry.pc));
                    } else {
                        self.ended = Some(self.read_kernel_status());
                    }
                    return;
                }
                RobKind::Eret => {
                    if self.mode == Mode::User {
                        self.raise_trap(Trap::new(TrapCause::PrivilegeViolation, entry.pc));
                        return;
                    }
                    self.mode = Mode::User;
                    let epc = self.sysregs[vulnstack_isa::SysReg::Epc.index() as usize];
                    // Update retirement state before the flush.
                    if let Some((arch, newp, oldp)) = entry.dest {
                        self.rrat[arch.index()] = newp;
                        self.release_preg(oldp);
                    }
                    self.flush_all(epc);
                    return;
                }
                RobKind::Mfsr => {
                    if self.mode == Mode::User {
                        self.raise_trap(Trap::new(TrapCause::PrivilegeViolation, entry.pc));
                        return;
                    }
                    let sr = entry.instr.sysreg().expect("decoded");
                    let v = self.sysregs[sr.index() as usize];
                    if let Some((_, newp, _)) = entry.dest {
                        self.write_phys(newp, v);
                    }
                }
                RobKind::Mtsr => {
                    if self.mode == Mode::User {
                        self.raise_trap(Trap::new(TrapCause::PrivilegeViolation, entry.pc));
                        return;
                    }
                    let sr = entry.instr.sysreg().expect("decoded");
                    self.sysregs[sr.index() as usize] = entry.mtsr_value;
                }
                RobKind::Store => {
                    let slot = entry.lsq_slot.expect("stores have slots");
                    let s = self.sq[slot];
                    if s.taint {
                        self.record_fpm(Fpm::Wd);
                        self.ftrace_push(FaultEventKind::TaintedStoreCommit { addr: s.addr });
                    }
                    // The address may have been corrupted in the SQ after
                    // the execute-time check; a store to an invalid
                    // address is a bus fault at commit.
                    if let Some(trap) = self.mem_check(s.addr, s.size, AccessKind::Write, entry.pc)
                    {
                        self.sq[slot].valid = false;
                        self.raise_trap(trap);
                        return;
                    }
                    self.mem.store(s.addr as u32, s.size, s.data);
                    self.sq[slot].valid = false;
                }
                RobKind::Load => {
                    let slot = entry.lsq_slot.expect("loads have slots");
                    self.lq[slot].valid = false;
                }
                _ => {}
            }

            if let Some((arch, newp, oldp)) = entry.dest {
                self.rrat[arch.index()] = newp;
                self.release_preg(oldp);
            }
        }
    }

    fn read_kernel_status(&mut self) -> RunStatus {
        let kd = memmap::KERNEL_DATA;
        let (status, t1) = self.mem.peek(kd + off::STATUS as u32, 4);
        let (code, t2) = self.mem.peek(kd + off::CODE as u32, 4);
        // A corrupted status/code word alters the observable outcome
        // without re-entering the pipeline: the ESC path.
        if t1 || t2 {
            self.record_fpm(Fpm::Esc);
        }
        match KStatus::from_word(status as u32) {
            Some(KStatus::Exited) => RunStatus::Exited(code as i32),
            Some(KStatus::Detected) => RunStatus::Detected(code as i32),
            Some(KStatus::Crashed) => RunStatus::Crashed(code as u32),
            _ => RunStatus::KernelPanic,
        }
    }

    fn drain_output(&mut self) -> Vec<u8> {
        let kd = memmap::KERNEL_DATA;
        let (outlen, len_taint) = self.mem.peek(kd + off::OUTLEN as u32, 4);
        if len_taint {
            self.record_fpm(Fpm::Esc);
        }
        let outlen = (outlen as u32).min(memmap::OUTPUT_CAP);
        let mut out = Vec::with_capacity(outlen as usize);
        let mut esc = false;
        for i in 0..outlen {
            let (b, tainted) = self.mem.peek(memmap::OUTPUT_BASE + i, 1);
            esc |= tainted;
            out.push(b as u8);
        }
        if esc {
            self.record_fpm(Fpm::Esc);
        }
        out
    }

    /// Advances one cycle.
    pub fn step_cycle(&mut self) {
        self.cycle += 1;
        self.commit();
        if self.ended.is_some() {
            return;
        }
        self.writeback();
        self.issue();
        self.dispatch();
        self.fetch();
        if self.ftrace.is_some() {
            let live = self.mem.taint().is_some_and(|t| t.live());
            let cycle = self.cycle;
            if let Some(ft) = &mut self.ftrace {
                ft.note_mem_state(cycle, live);
            }
        }
        if self.cycle - self.last_commit_cycle > WATCHDOG_CYCLES {
            self.ended = Some(RunStatus::Timeout);
        }
    }

    /// Runs until `cycle` or a terminal state.
    pub fn run_until(&mut self, cycle: u64) {
        while self.ended.is_none() && self.cycle < cycle {
            self.step_cycle();
        }
    }

    /// Runs to completion (halt or `budget` cycles).
    pub fn run(mut self, budget: u64) -> OooOutcome {
        self.run_until(budget);
        self.finish()
    }

    /// True when an injected fault can no longer have any effect: no
    /// corrupted copy survives anywhere and nothing tainted is in flight.
    /// From this point the run is bit-identical to the golden run, so
    /// campaigns may classify it as Masked and stop early.
    pub fn fault_extinct(&self) -> bool {
        if self.fpm.is_some() || self.rf_taint.is_some() {
            return false;
        }
        // An armed stuck-at cell can re-corrupt any future write; an
        // armed skip fires at any future decoded dispatch. Neither is
        // ever extinct while armed.
        if self.stuck.is_some() || self.pending_skip {
            return false;
        }
        if self.mem.taint().is_some_and(|t| t.live()) {
            return false;
        }
        if self.lq.iter().any(|e| e.valid && e.taint) {
            return false;
        }
        if self.sq.iter().any(|e| e.valid && e.taint) {
            return false;
        }
        if self.rob.iter().any(|e| e.taint.is_some()) {
            return false;
        }
        if self.finish.iter().any(|(_, _, _, _, t)| t.is_some()) {
            return false;
        }
        true
    }

    /// Normalized LSQ comparison for [`OooCore::converged_with`]: valid
    /// flags must match and valid entries must be field-identical, but
    /// *invalid* entries are behaviorally empty — a squash clears only
    /// `valid` and dispatch rewrites every field before any read — so
    /// their stale contents are ignored.
    fn lsq_converged(&self, golden: &OooCore) -> bool {
        self.lq.len() == golden.lq.len()
            && self.sq.len() == golden.sq.len()
            && self
                .lq
                .iter()
                .zip(&golden.lq)
                .all(|(a, b)| a.valid == b.valid && (!a.valid || a == b))
            && self
                .sq
                .iter()
                .zip(&golden.sq)
                .all(|(a, b)| a.valid == b.valid && (!a.valid || a == b))
    }

    /// True if this (possibly faulty) core is *behaviorally identical* to
    /// `golden` — a fault-free core at the same cycle: every subsequent
    /// cycle of both cores is bit-identical, so the run's terminal status
    /// and output are already known to equal the golden run's.
    ///
    /// This is the early-termination convergence check. It is a
    /// hand-written comparison rather than the derived `PartialEq`
    /// because it must *exclude* observer-only state (`fpm`/`fpm_cycle`,
    /// the fault trace, commit trace, RF access log, a dead memory-taint
    /// record) that a faulty run legitimately accumulates without diverging
    /// behaviorally, and *normalize* LSQ entries whose stale invalid
    /// contents are never read. Every behavioral field is compared
    /// exactly; any live tainted state anywhere is an immediate `false`.
    ///
    /// Conservative by design: a `false` never lies (the caller just
    /// keeps simulating), and a `true` is exact.
    pub fn converged_with(&self, golden: &OooCore) -> bool {
        // Cheap discriminators first.
        if self.cycle != golden.cycle
            || self.committed != golden.committed
            || self.ended != golden.ended
            || self.last_commit_cycle != golden.last_commit_cycle
        {
            return false;
        }
        // Live tainted state can still change the future — as can an
        // armed persistent stuck-at cell or a pending one-shot skip.
        if self.rf_taint.is_some() || self.stuck.is_some() || self.pending_skip {
            return false;
        }
        if !self.mem.converged_with(&golden.mem) {
            return false;
        }
        // Full behavioral-state comparison. Comparing against the golden
        // core also enforces taint freedom in flight: golden LSQ/ROB/
        // finish/fetch entries carry no taint, so any tainted in-flight
        // entry fails its field comparison.
        self.mode == golden.mode
            && self.sysregs == golden.sysregs
            && self.fetch_pc == golden.fetch_pc
            && self.fetch_stall_until == golden.fetch_stall_until
            && self.fetch_halted == golden.fetch_halted
            && self.fetch_queue == golden.fetch_queue
            && self.bp == golden.bp
            && self.btb == golden.btb
            && self.ras == golden.ras
            && self.rat == golden.rat
            && self.rrat == golden.rrat
            && self.free_ring == golden.free_ring
            && self.free_head == golden.free_head
            && self.free_tail == golden.free_tail
            && self.phys == golden.phys
            && self.phys_ready == golden.phys_ready
            && self.next_seq == golden.next_seq
            && self.iq == golden.iq
            && self.rob == golden.rob
            && self.finish == golden.finish
            && self.lsq_converged(golden)
    }

    /// Architectural (retirement-RAT) value of register `r` — the value
    /// the next committed instruction reading `r` will observe.
    pub(crate) fn arch_value(&self, r: Reg) -> u64 {
        self.phys[self.rrat[r.index()] as usize]
    }

    /// The core's ISA.
    pub(crate) fn isa(&self) -> Isa {
        self.isa
    }

    /// Maximum commits per cycle (the pipeline width).
    pub(crate) fn commit_width(&self) -> u32 {
        self.cfg.width
    }

    /// True while the core executes unprivileged user code.
    pub fn in_user_mode(&self) -> bool {
        self.mode == Mode::User
    }

    /// True while the commit trace is armed and below capacity: its last
    /// entry is the most recent commit, so trace-tail analyses line up
    /// with current retirement state ([`OooCore::arch_value`]).
    pub(crate) fn trace_recording(&self) -> bool {
        self.trace.as_ref().is_some_and(|(cap, v)| v.len() < *cap)
    }

    /// True if this core is provably *frozen*: `anchor` is a clone of
    /// this same run taken at an earlier cycle, and every behavioral
    /// field is identical, which proves the pipeline can never commit
    /// again — the run's terminal status is certainly `Timeout`.
    ///
    /// Soundness: the cycle transition function reads absolute time only
    /// through `fetch_stall_until` comparisons, `finish` completion
    /// cycles, and the commit watchdog. With the stall expired before the
    /// anchor (`fetch_stall_until <= anchor.cycle`; a re-arm inside the
    /// window would have left it *above* the anchor cycle, contradicting
    /// equality), `finish` empty at both endpoints, and no commits in the
    /// window (`committed`/`last_commit_cycle` equal), every intra-window
    /// event is cycle-shift covariant — so the state trajectory from
    /// `self` replays the anchor→self window forever. No commit can ever
    /// happen (one period has none), so `HALT` never retires and the
    /// watchdog's `Timeout` is the only reachable ending.
    ///
    /// `MemSystem` compares by its derived equality: its access tick
    /// proves the window made *no* memory accesses, and the observer-only
    /// state it holds (a dead taint record) is deliberately strict here,
    /// since extra strictness only costs missed detections, never
    /// soundness.
    pub fn frozen_with(&self, anchor: &OooCore) -> bool {
        self.cycle > anchor.cycle
            && self.ended.is_none()
            && anchor.ended.is_none()
            && self.committed == anchor.committed
            && self.last_commit_cycle == anchor.last_commit_cycle
            && self.fetch_stall_until == anchor.fetch_stall_until
            && self.fetch_stall_until <= anchor.cycle
            && self.finish.is_empty()
            && anchor.finish.is_empty()
            && self.mode == anchor.mode
            && self.sysregs == anchor.sysregs
            && self.fetch_pc == anchor.fetch_pc
            && self.fetch_halted == anchor.fetch_halted
            && self.fetch_queue == anchor.fetch_queue
            && self.bp == anchor.bp
            && self.btb == anchor.btb
            && self.ras == anchor.ras
            && self.rat == anchor.rat
            && self.rrat == anchor.rrat
            && self.free_ring == anchor.free_ring
            && self.free_head == anchor.free_head
            && self.free_tail == anchor.free_tail
            && self.phys == anchor.phys
            && self.phys_ready == anchor.phys_ready
            && self.next_seq == anchor.next_seq
            && self.iq == anchor.iq
            && self.rob == anchor.rob
            && self.lq == anchor.lq
            && self.sq == anchor.sq
            && self.rf_taint == anchor.rf_taint
            && self.stuck == anchor.stuck
            && self.pending_skip == anchor.pending_skip
            && self.fpm == anchor.fpm
            && self.fpm_cycle == anchor.fpm_cycle
            && self.mem == anchor.mem
    }

    /// Records that the early-termination engine proved the run cannot
    /// end before its budget ([`OooCore::frozen_with`] or
    /// [`OooCore::timeout_proven`]) and ended it here as the `Timeout` it
    /// was always going to be.
    pub fn note_proven_hang(&mut self) {
        self.ftrace_push(FaultEventKind::ProvenHang);
    }

    /// True if the affine non-termination prover (the private `runaway`
    /// module) certifies that this run's terminal status is `Timeout`: the
    /// committed stream is locked into a loop that provably cannot
    /// branch out, trap, or halt before `budget` cycles elapse. Requires
    /// a recording commit trace ([`OooCore::enable_trace`]); returns
    /// `false` — never a wrong `true` — when the proof does not apply.
    ///
    /// Only sound while the *instruction* side of the memory system is
    /// pristine (no L1i/L2 fault that could make a future re-fetch of a
    /// loop pc decode differently than the trace recorded); the caller
    /// gates on the injected structure. Applies in both privilege modes
    /// — kernel hangs (e.g. a corrupted count in the output-copy loop)
    /// are proven under stricter store-range obligations.
    pub fn timeout_proven(&self, budget: u64) -> bool {
        if self.ended.is_some() || self.cycle >= budget {
            return false;
        }
        crate::runaway::cannot_end_before(self, budget)
    }

    /// Consumes the core after a manual stepping session, producing the
    /// outcome (used by campaigns that inject mid-run).
    pub fn finish(mut self) -> OooOutcome {
        let status = self.ended.unwrap_or(RunStatus::Timeout);
        let output = self.drain_output();
        self.ftrace_push(FaultEventKind::Ended { status });
        OooOutcome {
            sim: SimOutcome {
                status,
                output,
                instrs: self.committed,
                cycles: self.cycle,
            },
            fpm: self.fpm,
            fpm_cycle: self.fpm_cycle,
            ftrace: self.ftrace,
        }
    }
}

enum ExecResult {
    Done,
    Retry,
    Squashed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreModel;
    use vulnstack_compiler::{compile, CompileOpts};
    use vulnstack_vir::ModuleBuilder;

    fn image_for(build: impl FnOnce(&mut vulnstack_vir::FuncBuilder), isa: Isa) -> SystemImage {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        build(&mut f);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let c = compile(&m, isa, &CompileOpts::default()).unwrap();
        SystemImage::build(&c, &[]).unwrap()
    }

    fn model_for(isa: Isa) -> CoreModel {
        match isa {
            Isa::Va32 => CoreModel::A9,
            Isa::Va64 => CoreModel::A72,
        }
    }

    #[test]
    fn simple_program_exits_cleanly() {
        for isa in [Isa::Va32, Isa::Va64] {
            let img = image_for(|f| f.sys_exit(42), isa);
            let cfg = model_for(isa).config();
            let out = OooCore::new(&cfg, &img).run(2_000_000);
            assert_eq!(out.sim.status, RunStatus::Exited(42), "{isa}");
            assert!(out.fpm.is_none());
        }
    }

    #[test]
    fn loop_with_memory_matches_functional_core() {
        for isa in [Isa::Va32, Isa::Va64] {
            let img = image_for(
                |f| {
                    let sum = f.fresh();
                    f.set_c(sum, 0);
                    f.for_range(0, 100, |f, i| {
                        let x = f.mul(i, i);
                        let s = f.add(sum, x);
                        f.set(sum, s);
                    });
                    let slot = f.stack_slot(4, 4);
                    let p = f.slot_addr(slot);
                    f.store32(sum, p, 0);
                    f.sys_write(p, 4);
                    f.sys_exit(0);
                },
                isa,
            );
            let cfg = model_for(isa).config();
            let golden = crate::func::FuncCore::new(&img).run(10_000_000);
            let out = OooCore::new(&cfg, &img).run(10_000_000);
            assert_eq!(out.sim.status, golden.status, "{isa}");
            assert_eq!(out.sim.output, golden.output, "{isa}");
        }
    }

    #[test]
    fn recursion_and_branches_work() {
        for isa in [Isa::Va32, Isa::Va64] {
            let mut mb = ModuleBuilder::new("t");
            let fib = mb.declare("fib", 1);
            let mut f = mb.function("main", 0);
            let v = f.call(fib, &[vulnstack_vir::Operand::Imm(12)]);
            f.sys_exit(v);
            f.ret(None);
            mb.finish_function(f);
            let mut g = mb.function("fib", 1);
            let n = g.param(0);
            let res = g.fresh();
            let base = g.slt(n, 2);
            g.if_else(
                base,
                |g| g.set(res, n),
                |g| {
                    let a = g.sub(n, 1);
                    let x = g.call(fib, &[a.into()]);
                    let b = g.sub(n, 2);
                    let y = g.call(fib, &[b.into()]);
                    let s = g.add(x, y);
                    g.set(res, s);
                },
            );
            g.ret(Some(res.into()));
            mb.finish_function(g);
            let m = mb.finish().unwrap();
            let c = compile(&m, isa, &CompileOpts::default()).unwrap();
            let img = SystemImage::build(&c, &[]).unwrap();
            let cfg = model_for(isa).config();
            let out = OooCore::new(&cfg, &img).run(20_000_000);
            assert_eq!(out.sim.status, RunStatus::Exited(144), "{isa}");
        }
    }

    #[test]
    fn ipc_is_plausible() {
        let img = image_for(
            |f| {
                let sum = f.fresh();
                f.set_c(sum, 0);
                f.for_range(0, 1000, |f, i| {
                    let s = f.add(sum, i);
                    f.set(sum, s);
                });
                f.sys_exit(0);
            },
            Isa::Va64,
        );
        let cfg = CoreModel::A72.config();
        let out = OooCore::new(&cfg, &img).run(10_000_000);
        assert_eq!(out.sim.status, RunStatus::Exited(0));
        let ipc = out.sim.instrs as f64 / out.sim.cycles as f64;
        assert!(ipc > 0.3, "IPC {ipc:.2} too low — pipeline is wedged");
        assert!(
            ipc <= cfg.width as f64,
            "IPC {ipc:.2} exceeds machine width"
        );
    }

    #[test]
    fn rf_fault_in_dead_register_is_masked() {
        let img = image_for(|f| f.sys_exit(7), Isa::Va64);
        let cfg = CoreModel::A72.config();
        let mut core = OooCore::new(&cfg, &img);
        core.run_until(5);
        // The highest physical register is almost certainly unused this
        // early.
        let bit = (cfg.phys_regs as u64 - 1) * 64 + 17;
        core.inject(HwStructure::RegisterFile, bit);
        core.run_until(2_000_000);
        let out = core.finish();
        assert_eq!(out.sim.status, RunStatus::Exited(7));
        assert!(out.fpm.is_none(), "fault in a dead register must be masked");
    }

    #[test]
    fn injection_campaign_smoke_produces_mixed_outcomes() {
        // A statistical smoke test over a compute loop: across a sweep of
        // RF bit positions we expect at least one masked fault and at
        // least one visible manifestation.
        let img = image_for(
            |f| {
                let sum = f.fresh();
                f.set_c(sum, 1);
                f.for_range(0, 500, |f, i| {
                    let x = f.xor(sum, i);
                    let s = f.add(x, 3);
                    f.set(sum, s);
                });
                let slot = f.stack_slot(4, 4);
                let p = f.slot_addr(slot);
                f.store32(sum, p, 0);
                f.sys_write(p, 4);
                f.sys_exit(0);
            },
            Isa::Va64,
        );
        let cfg = CoreModel::A72.config();
        let golden = OooCore::new(&cfg, &img).run(10_000_000);
        assert_eq!(golden.sim.status, RunStatus::Exited(0));

        let mut masked = 0;
        let mut visible = 0;
        for k in 0..40u64 {
            let mut core = OooCore::new(&cfg, &img);
            core.run_until(200 + k * 37);
            core.inject(HwStructure::RegisterFile, (k * 131) % cfg.rf_bits());
            core.run_until(10_000_000);
            let out = core.finish();
            let same = out.sim.status == golden.sim.status && out.sim.output == golden.sim.output;
            if same && out.fpm.is_none() {
                masked += 1;
            }
            if out.fpm.is_some() || !same {
                visible += 1;
            }
        }
        assert!(masked > 0, "expected some masked faults");
        assert!(visible > 0, "expected some visible faults");
    }

    /// The RF and LSQ site decoders are bijective over the in-range
    /// site space: every flat bit maps to a distinct (unit, field, bit)
    /// target, so exhaustive enumeration never double-counts a cell.
    #[test]
    fn site_decode_is_bijective() {
        for isa in [Isa::Va32, Isa::Va64] {
            let cfg = model_for(isa).config();
            let xlen = isa.xlen();
            let nphys = cfg.phys_regs as usize;
            let mut seen = std::collections::HashSet::new();
            for bit in 0..cfg.rf_bits() {
                let (preg, b) = rf_site(bit, xlen, nphys).expect("in-range");
                assert!(preg < nphys && (b as u32) < xlen);
                assert!(seen.insert((preg, b)), "aliased RF site at bit {bit}");
            }
            assert_eq!(seen.len() as u64, cfg.rf_bits());
            assert!(rf_site(cfg.rf_bits(), xlen, nphys).is_none());

            let (lql, sql) = (cfg.lq_entries as usize, cfg.sq_entries as usize);
            let mut seen = std::collections::HashSet::new();
            for bit in 0..cfg.lsq_bits() {
                let site = lsq_site(bit, xlen, lql, sql).expect("in-range");
                assert!(seen.insert(site), "aliased LSQ site at bit {bit}");
            }
            assert_eq!(seen.len() as u64, cfg.lsq_bits());
            assert!(lsq_site(cfg.lsq_bits(), xlen, lql, sql).is_none());
        }
    }

    /// Out-of-range sites are rejected loudly instead of silently
    /// wrapping onto an in-range register (the old `%` aliasing).
    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rf_site_panics() {
        let img = image_for(|f| f.sys_exit(0), Isa::Va64);
        let cfg = CoreModel::A72.config();
        let mut core = OooCore::new(&cfg, &img);
        core.inject(HwStructure::RegisterFile, cfg.rf_bits());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_lsq_site_panics() {
        let img = image_for(|f| f.sys_exit(0), Isa::Va64);
        let cfg = CoreModel::A72.config();
        let mut core = OooCore::new(&cfg, &img);
        core.inject(HwStructure::Lsq, cfg.lsq_bits());
    }

    /// A stuck-at cell re-asserts over disagreeing writes: unlike a
    /// transient flip, overwriting the register does not end the fault.
    #[test]
    fn stuck_at_reasserts_on_writes() {
        let img = image_for(|f| f.sys_exit(0), Isa::Va64);
        let cfg = CoreModel::A72.config();
        let mut core = OooCore::new(&cfg, &img);
        // Pick an arbitrary high physical register and drive write_phys
        // directly: deterministic, independent of the program.
        let p: PReg = 40;
        let bit = 3u64;
        core.inject_model(
            HwStructure::RegisterFile,
            40 * cfg.isa.xlen() as u64 + bit,
            FaultModel::StuckAt,
        );
        let stuck_val = (core.phys[p as usize] >> bit) & 1;
        assert!(!core.fault_extinct(), "armed stuck-at is never extinct");
        // A write that disagrees with the stuck bit is re-corrupted.
        core.write_phys(p, (!stuck_val & 1) << bit);
        assert_eq!((core.phys[p as usize] >> bit) & 1, stuck_val);
        assert!(core.rf_taint.is_some(), "re-assert re-taints");
        // A write that agrees is stored exactly and clears the taint,
        // but the cell stays armed.
        core.write_phys(p, stuck_val << bit);
        assert_eq!((core.phys[p as usize] >> bit) & 1, stuck_val);
        assert!(core.rf_taint.is_none());
        assert!(!core.fault_extinct());
    }

    /// An injected instruction skip NOPs exactly one dispatched
    /// instruction; skipping the exit-status store changes the observed
    /// exit code.
    #[test]
    fn instr_skip_nops_one_dispatch() {
        for isa in [Isa::Va32, Isa::Va64] {
            let img = image_for(|f| f.sys_exit(42), isa);
            let cfg = model_for(isa).config();
            let golden = OooCore::new(&cfg, &img).run(2_000_000);
            assert_eq!(golden.sim.status, RunStatus::Exited(42), "{isa}");

            // Skip armed at cycle 0 must change the boot path's first
            // dispatched instruction; the run still terminates (trap,
            // different exit, or watchdog) and the skip is consumed.
            let mut core = OooCore::new(&cfg, &img);
            core.inject_model(HwStructure::RegisterFile, 0, FaultModel::InstrSkip);
            assert!(!core.fault_extinct(), "armed skip is never extinct");
            core.run_until(2_000_000);
            assert!(!core.pending_skip, "skip fires at the first dispatch");
            let out = core.finish();
            assert_eq!(
                out.fpm,
                Some(Fpm::Wi),
                "a committed skip manifests as a wrong instruction ({isa})"
            );
            let _ = out;
        }
    }

    /// The dispatch log of a golden run records every decoded dispatch
    /// cycle in nondecreasing order — the instruction-skip site space.
    #[test]
    fn dispatch_log_is_monotone_and_nonempty() {
        let img = image_for(|f| f.sys_exit(0), Isa::Va64);
        let cfg = CoreModel::A72.config();
        let mut core = OooCore::new(&cfg, &img);
        core.enable_dispatch_log();
        core.run_until(2_000_000);
        let log = core.take_dispatch_log().expect("enabled");
        assert!(!log.is_empty());
        assert!(log.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Byte corruption flips all eight bits of one aligned byte and is
    /// repaired (taint cleared) by an ordinary overwrite, like any
    /// transient value fault.
    #[test]
    fn byte_corrupt_flips_one_byte() {
        let img = image_for(|f| f.sys_exit(0), Isa::Va64);
        let cfg = CoreModel::A72.config();
        let mut core = OooCore::new(&cfg, &img);
        let p = 40usize;
        let before = core.phys[p];
        // Byte site: register 40, byte 2.
        let site = (40 * cfg.isa.xlen() as u64) / 8 + 2;
        core.inject_model(HwStructure::RegisterFile, site, FaultModel::ByteCorrupt);
        assert_eq!(core.phys[p] ^ before, 0xFFu64 << 16);
        assert!(core.rf_taint.is_some());
        core.write_phys(p as PReg, before);
        assert!(core.rf_taint.is_none());
        assert!(core.fault_extinct());
    }
}
