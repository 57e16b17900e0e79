//! # vulnstack-microarch
//!
//! The hardware substrate of the study: a full-system simulator for the
//! VA32/VA64 ISAs standing in for gem5. Two execution engines share one
//! set of instruction semantics ([`exec`]):
//!
//! * [`func::FuncCore`] — a functional (instruction-at-a-time) core with
//!   flat memory. Fast; used for golden runs and architecture-level (PVF)
//!   fault injection, where faults live in *architectural* state.
//! * [`ooo::OooCore`] — a cycle-level out-of-order core (fetch / decode /
//!   rename / issue / execute / commit, physical register file, ROB, IQ,
//!   LSQ, branch prediction) on top of a write-back L1i/L1d/L2 cache
//!   hierarchy ([`cache`]). Used for microarchitecture-level (HVF/AVF)
//!   fault injection, where faults live in *hardware* structures.
//!
//! Four core configurations ([`config::CoreConfig`]) mirror the paper's
//! Cortex-A9/A15 (VA32) and Cortex-A57/A72 (VA64) models.

pub mod cache;
pub mod config;
pub mod exec;
pub mod func;
pub mod lifetime;
pub mod ooo;
pub mod outcome;
mod runaway;
pub mod snapshot;

pub use config::{CoreConfig, CoreModel};
pub use func::FuncCore;
pub use lifetime::{FaultEvent, FaultEventKind, FaultTrace, LifetimeCounts};
pub use ooo::OooCore;
pub use outcome::{RunStatus, SimOutcome};
pub use snapshot::CheckpointStore;
pub use vulnstack_isa::FaultModel;
