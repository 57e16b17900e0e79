//! Fault-lifetime event tracing for injection runs.
//!
//! A campaign classifies each injection by its end state (the fault
//! effect) and its first architectural manifestation (the FPM), but the
//! paper's explanatory story — *why* FPM distributions differ per
//! microarchitecture and workload (Figs. 5–7) — is about the path a
//! fault travels between injection and outcome: was the corrupted value
//! read before being overwritten, did a squash discard the only tainted
//! instruction, did a tainted store carry the corruption into memory?
//! [`FaultTrace`] records that path as a compact event log.
//!
//! The trace is **opt-in and gated on an `Option`** inside
//! [`crate::ooo::OooCore`]: with tracing disabled every emission site is
//! behind a branch that already only fires on tainted state, so the
//! disabled path costs nothing measurable (asserted by the
//! trace-overhead smoke test in the workspace root).
//!
//! Two views of the same run coexist:
//!
//! * a **ring buffer** of [`FaultEvent`]s bounded at construction
//!   (oldest events are dropped, with a drop counter) — the replay log
//!   shown by `vulnstack trace --structure ...`;
//! * exact [`LifetimeCounts`] maintained *outside* the ring — milestone
//!   facts (first consumption, first architectural visibility,
//!   extinction) that reconciliation tests compare against campaign
//!   classifications regardless of ring capacity.

use std::collections::VecDeque;

use crate::ooo::{Fpm, HwStructure};
use crate::outcome::RunStatus;

/// Default ring capacity: enough for any realistic lifetime while keeping
/// a per-injection trace a few KiB.
pub const DEFAULT_EVENT_CAP: usize = 256;

/// Which hardware unit a consumption event read corrupted state from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultUnit {
    /// Physical register file.
    Rf,
    /// Load queue (a latched, corrupted load address was used).
    Lq,
    /// Store queue (forwarded data) or the cache/memory arrays.
    Mem,
    /// Instruction fetch (a corrupted instruction word entered decode).
    Fetch,
}

impl FaultUnit {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            FaultUnit::Rf => "RF",
            FaultUnit::Lq => "LQ",
            FaultUnit::Mem => "MEM",
            FaultUnit::Fetch => "FETCH",
        }
    }
}

/// One step in a fault's life, stamped with the core cycle it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Core cycle of the event.
    pub cycle: u64,
    /// What happened.
    pub kind: FaultEventKind,
}

/// The kinds of fault-lifetime events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEventKind {
    /// The fault was injected into `structure` at flat bit `bit`.
    Injected {
        /// Target structure.
        structure: HwStructure,
        /// Flat bit index.
        bit: u64,
    },
    /// An in-flight instruction read corrupted state for the first time
    /// (speculative consumption — it may still be squashed).
    Consumed {
        /// Propagation model the consumption implies if it commits.
        fpm: Fpm,
        /// Unit the corruption was read from.
        unit: FaultUnit,
    },
    /// The corrupted physical register was overwritten before any
    /// surviving consumer committed: the hardware repaired the fault.
    Repaired,
    /// A write to a stuck-at faulted register disagreed with the stuck
    /// cell, which re-asserted its value: the register is corrupted
    /// anew (a fresh taint lifetime).
    Reasserted,
    /// A pipeline squash (misprediction recovery or full flush) discarded
    /// `tainted` in-flight instructions carrying the corruption.
    Squashed {
        /// Number of tainted ROB entries discarded.
        tainted: u32,
    },
    /// A tainted store committed, carrying the corruption into the
    /// memory system at `addr`.
    TaintedStoreCommit {
        /// Store address.
        addr: u64,
    },
    /// No corrupted copy of the injected line survives in the memory
    /// hierarchy any more (overwritten or evicted-and-overwritten).
    MemCleared,
    /// First committed use of corrupted state — the architectural
    /// (HVF-boundary) manifestation the campaign classifies by.
    ArchVisible {
        /// The fault propagation model.
        fpm: Fpm,
    },
    /// Every corrupted copy is gone and nothing tainted is in flight:
    /// the remainder of the run is bit-identical to the golden run.
    Extinct,
    /// The early-termination engine proved extinction by comparing the
    /// full architectural state against the golden checkpoint at the same
    /// cycle: the remainder of the run is bit-identical to the golden
    /// run, so it was ended here instead of simulated to completion.
    PrunedExtinct,
    /// The early-termination engine proved the run *cannot* reach a
    /// terminal state before its cycle budget (a frozen pipeline or an
    /// inescapable affine loop), so it was ended here as the Timeout it
    /// was always going to be.
    ProvenHang,
    /// The run reached a terminal state.
    Ended {
        /// Terminal status.
        status: RunStatus,
    },
}

impl std::fmt::Display for FaultEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEventKind::Injected { structure, bit } => {
                write!(f, "injected into {structure} bit {bit}")
            }
            FaultEventKind::Consumed { fpm, unit } => {
                write!(f, "corrupted state consumed from {} as {fpm}", unit.name())
            }
            FaultEventKind::Repaired => write!(f, "corrupted register overwritten (repaired)"),
            FaultEventKind::Reasserted => {
                write!(f, "stuck-at cell re-asserted over a disagreeing write")
            }
            FaultEventKind::Squashed { tainted } => {
                write!(f, "squash discarded {tainted} tainted instruction(s)")
            }
            FaultEventKind::TaintedStoreCommit { addr } => {
                write!(f, "tainted store committed to {addr:#x}")
            }
            FaultEventKind::MemCleared => write!(f, "no corrupted copy left in memory hierarchy"),
            FaultEventKind::ArchVisible { fpm } => {
                write!(f, "architecturally visible as {fpm}")
            }
            FaultEventKind::Extinct => write!(f, "fault extinct (run now equals golden)"),
            FaultEventKind::PrunedExtinct => {
                write!(
                    f,
                    "fault extinct by golden-state re-convergence (run ended early)"
                )
            }
            FaultEventKind::ProvenHang => {
                write!(f, "hang proven (run ended early as Timeout)")
            }
            FaultEventKind::Ended { status } => write!(f, "run ended: {status}"),
        }
    }
}

/// Exact lifetime milestones, independent of the ring capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LifetimeCounts {
    /// Speculative consumptions of corrupted state (first per unit-read
    /// is recorded as an event; this counts every one).
    pub consumed: u64,
    /// Register repairs (overwrite of the corrupted physical register).
    pub repaired: u64,
    /// Tainted in-flight instructions discarded by squashes.
    pub squashed: u64,
    /// Tainted stores that committed into the memory system.
    pub tainted_store_commits: u64,
    /// First architectural manifestation: `(fpm, cycle)`.
    pub first_visible: Option<(Fpm, u64)>,
    /// Cycle the fault was declared extinct, if it was.
    pub extinct_cycle: Option<u64>,
}

/// A bounded fault-lifetime event log plus exact milestone counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTrace {
    cap: usize,
    events: VecDeque<FaultEvent>,
    dropped: u64,
    consumed_units: [bool; 4],
    mem_was_live: bool,
    counts: LifetimeCounts,
}

impl FaultTrace {
    /// Creates an empty trace with the given ring capacity (≥ 1).
    pub fn new(cap: usize) -> FaultTrace {
        FaultTrace {
            cap: cap.max(1),
            events: VecDeque::new(),
            dropped: 0,
            consumed_units: [false; 4],
            mem_was_live: false,
            counts: LifetimeCounts::default(),
        }
    }

    /// Tracks memory-taint liveness across cycles and emits
    /// [`FaultEventKind::MemCleared`] on the live → dead transition (the
    /// last corrupted copy in the hierarchy was overwritten or evicted).
    pub(crate) fn note_mem_state(&mut self, cycle: u64, live: bool) {
        if self.mem_was_live && !live {
            self.push(cycle, FaultEventKind::MemCleared);
        }
        self.mem_was_live = live;
    }

    fn unit_idx(unit: FaultUnit) -> usize {
        match unit {
            FaultUnit::Rf => 0,
            FaultUnit::Lq => 1,
            FaultUnit::Mem => 2,
            FaultUnit::Fetch => 3,
        }
    }

    /// Records one event. Milestone counters are always exact; the ring
    /// keeps the most recent `cap` events. Consumption events are
    /// deduplicated per unit (the *first* consumption is the milestone;
    /// repeats only bump [`LifetimeCounts::consumed`]).
    pub fn push(&mut self, cycle: u64, kind: FaultEventKind) {
        match kind {
            FaultEventKind::Consumed { unit, .. } => {
                self.counts.consumed += 1;
                let i = Self::unit_idx(unit);
                if self.consumed_units[i] {
                    return; // first consumption per unit only
                }
                self.consumed_units[i] = true;
            }
            FaultEventKind::Repaired => self.counts.repaired += 1,
            FaultEventKind::Squashed { tainted } => self.counts.squashed += tainted as u64,
            FaultEventKind::TaintedStoreCommit { .. } => self.counts.tainted_store_commits += 1,
            FaultEventKind::ArchVisible { fpm } if self.counts.first_visible.is_none() => {
                self.counts.first_visible = Some((fpm, cycle));
            }
            FaultEventKind::Extinct | FaultEventKind::PrunedExtinct
                if self.counts.extinct_cycle.is_none() =>
            {
                self.counts.extinct_cycle = Some(cycle);
            }
            _ => {}
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(FaultEvent { cycle, kind });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The exact milestone counters.
    pub fn counts(&self) -> &LifetimeCounts {
        &self.counts
    }

    /// The first architectural manifestation, if any — must agree with
    /// the campaign's FPM classification for the same injection (asserted
    /// by the reconciliation test).
    pub fn first_visible(&self) -> Option<Fpm> {
        self.counts.first_visible.map(|(f, _)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_but_counts_stay_exact() {
        let mut t = FaultTrace::new(4);
        t.push(
            0,
            FaultEventKind::Injected {
                structure: HwStructure::RegisterFile,
                bit: 3,
            },
        );
        for c in 1..=10 {
            t.push(c, FaultEventKind::TaintedStoreCommit { addr: c });
        }
        t.push(11, FaultEventKind::ArchVisible { fpm: Fpm::Wd });
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 8);
        assert_eq!(t.counts().tainted_store_commits, 10);
        assert_eq!(t.first_visible(), Some(Fpm::Wd));
        // The most recent events survive.
        let last = t.events().last().unwrap();
        assert_eq!(last.kind, FaultEventKind::ArchVisible { fpm: Fpm::Wd });
    }

    #[test]
    fn consumption_deduplicates_per_unit() {
        let mut t = FaultTrace::new(64);
        for _ in 0..5 {
            t.push(
                1,
                FaultEventKind::Consumed {
                    fpm: Fpm::Wd,
                    unit: FaultUnit::Rf,
                },
            );
        }
        t.push(
            2,
            FaultEventKind::Consumed {
                fpm: Fpm::Wd,
                unit: FaultUnit::Mem,
            },
        );
        assert_eq!(t.len(), 2, "one event per unit");
        assert_eq!(t.counts().consumed, 6, "counter sees every consumption");
    }

    #[test]
    fn first_visible_and_extinct_latch() {
        let mut t = FaultTrace::new(8);
        t.push(5, FaultEventKind::ArchVisible { fpm: Fpm::Wi });
        t.push(9, FaultEventKind::ArchVisible { fpm: Fpm::Wd });
        t.push(12, FaultEventKind::Extinct);
        t.push(14, FaultEventKind::Extinct);
        assert_eq!(t.counts().first_visible, Some((Fpm::Wi, 5)));
        assert_eq!(t.counts().extinct_cycle, Some(12));
    }
}
