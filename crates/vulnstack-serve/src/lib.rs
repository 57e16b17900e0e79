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
//! * [`proto`] — request/response/event framing with stable error
//!   codes; malformed input is answered, never panicked on. Messages
//!   are read and written by [`vulnstack_core::json`], the strict,
//!   depth-limited JSON module every report in the workspace also
//!   goes through; its sorted-key form makes them canonical.
//! * [`spec`] — the one campaign description: built from flags by
//!   `vulnstack avf|pvf|svf` and `vulnstack client run`, parsed from
//!   JSON by the daemon, with content-addressed handles.
//! * [`service`] — runs a spec on the campaign engine it names, for the
//!   CLI and the daemon alike.
//! * [`daemon`] / [`client`] / [`cli`] — the two ends of the socket and
//!   their command-line front ends; [`cli`] also holds the flag parser
//!   every `vulnstack` subcommand shares.

pub mod cli;
pub mod client;
pub mod daemon;
pub mod net;
pub mod proto;
pub mod service;
pub mod spec;

pub use cli::{client_main, serve_main};
pub use client::{Client, Completion, StreamedRecord};
pub use daemon::DaemonOpts;
pub use spec::{CampaignSpec, Engine, Priority};
