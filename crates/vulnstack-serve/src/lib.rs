//! # vulnstack-serve
//!
//! A multi-tenant campaign daemon for the vulnerability stack. Clients
//! submit fault-injection campaigns over line-delimited JSON RPC (TCP
//! or Unix-domain sockets); the daemon multiplexes every campaign over
//! one shared worker pool with stride-scheduled fair sharing
//! ([`vulnstack_core::FairPool`]), streams per-injection records to
//! subscribers as they complete, and journals every campaign so a
//! killed daemon restarts, re-attaches, and resumes bit-identically.
//!
//! Layering, bottom up:
//!
//! * [`json`] — strict, depth-limited JSON reader/writer (the
//!   workspace carries no JSON dependency, so the wire format is
//!   hand-rolled and canonical).
//! * [`proto`] — request/response/event framing with stable error
//!   codes; malformed input is answered, never panicked on.
//! * [`spec`] — campaign specifications and their content-addressed
//!   handles.
//! * [`service`] — runs a spec on the campaign engine it names.
//! * [`daemon`] / [`client`] / [`cli`] — the two ends of the socket and
//!   their command-line front ends.

pub mod cli;
pub mod client;
pub mod daemon;
pub mod json;
pub mod net;
pub mod proto;
pub mod service;
pub mod spec;

pub use cli::{client_main, serve_main};
pub use client::{Client, Completion, StreamedRecord};
pub use daemon::DaemonOpts;
pub use spec::{CampaignSpec, Engine, Priority};
