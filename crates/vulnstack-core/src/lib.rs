//! # vulnstack-core
//!
//! The paper's primary contribution as a library: the **system
//! vulnerability stack**. This crate owns the vocabulary and the math —
//! fault-effect classes, vulnerability factors at every layer (AVF, HVF,
//! PVF, SVF and the refined rPVF), fault-propagation-model distributions,
//! structure-size weighting (≡ FIT-rate weighting), statistical error
//! margins for fault sampling, and the cross-layer comparisons (opposite
//! relative-vulnerability pairs) that expose the pitfalls of higher-level
//! estimation.
//!
//! The injection engines (`vulnstack-gefin` for the microarchitecture and
//! architecture layers, `vulnstack-llfi` for the software layer) produce
//! [`effects::Tally`]s; everything here consumes them.
//!
//! # Example
//!
//! ```
//! use vulnstack_core::effects::{FaultEffect, Tally};
//!
//! let mut t = Tally::default();
//! for e in [FaultEffect::Masked, FaultEffect::Sdc, FaultEffect::Crash, FaultEffect::Masked] {
//!     t.add(e);
//! }
//! assert_eq!(t.total(), 4);
//! assert!((t.vf().total() - 0.5).abs() < 1e-9);
//! ```

pub mod campaign;
pub mod effects;
pub mod fair;
pub mod journal;
pub mod json;
pub mod pairs;
pub mod report;
pub mod sched;
pub mod sink;
pub mod stack;
pub mod stats;
pub mod trace;

pub use campaign::{Campaign, CampaignRun, RunOpts, TallyStreamed};
pub use effects::{FaultEffect, Tally, VulnFactor};
pub use fair::{FairPool, Participant};
pub use journal::{Fingerprint, Journal, JournalError, JournalOpts, ResumeMode, ResumeStats};
pub use sched::{Admission, ClaimGate, Quarantine};
pub use sink::{Collector, RecordTee, SinkHandle, SinkSummary, StreamOpts};
pub use stack::{FpmDist, StructureAvf, WeightedAvf};
pub use trace::{CampaignMetrics, MetricsReport, Span, WorkerReport};
