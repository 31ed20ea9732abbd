//! # pmnet-model — executable reference model and durable-linearizability checker
//!
//! PMNet acknowledges updates from the network before the server applies
//! them, which makes "did the system actually persist what it promised?"
//! a non-trivial question under packet loss, reordering, and crash
//! schedules. This crate answers it mechanically for every simulated run:
//!
//! * [`mod@reference`] — a sequential model of the server's durable KV
//!   semantics ([`ReferenceKv`]): what the store must contain given an
//!   apply stream.
//! * [`checker`] — [`check`] validates a recorded event history (the
//!   history pillar of `pmnet-telemetry`, [`pmnet_telemetry::history`])
//!   against every linearization consistent with ack order: exactly-once
//!   in-order applies, durable acknowledgements, real-time write order,
//!   read values, and the final durable state. One rule set runs on every
//!   history, sequential or concurrent.
//! * [`artifact`] — every divergence carries a self-contained text
//!   artifact; [`artifact::replay`] re-runs the checker on it and must
//!   reproduce the verdict.
//! * [`harness`] — after a run with a
//!   [`Telemetry::checking`](pmnet_telemetry::Telemetry::checking) handle
//!   attached (closed-loop or open-loop clients alike), [`check_system`]
//!   snapshots the server and checks the run.
//!
//! Recording is pure observation: whichever telemetry handle is attached,
//! simulated timelines, RNG draws, and campaign digests are bit-identical.

#![warn(missing_docs)]

pub mod artifact;
pub mod checker;
pub mod harness;
pub mod reference;

pub use artifact::{parse, render, replay, ParsedArtifact};
pub use checker::{check, CheckStats, Divergence};
pub use harness::{check_system, snapshot_server_state};
pub use reference::ReferenceKv;
