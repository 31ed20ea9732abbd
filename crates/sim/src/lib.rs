//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the lowest substrate of the PMNet reproduction. It provides:
//!
//! * [`Time`] / [`Dur`] — nanosecond-resolution simulated clock types,
//! * [`Engine`] — a generic future-event list (a timing wheel) with stable
//!   FIFO ordering for simultaneous events and O(1) cancellation,
//! * [`SimRng`] — a seeded random-number generator plus the distribution
//!   helpers the evaluation needs (exponential gaps, jitter, chance),
//! * [`stats`] — histograms, percentile summaries and CDF extraction used to
//!   regenerate the paper's figures,
//! * [`hash`] — the one FNV-1a every digest, ring and pinning function in
//!   the workspace folds through,
//! * [`record`] — the one `key=value` line codec every replayable text
//!   artifact (chaos plan, divergence, flight dump) renders and parses with.
//!
//! Everything is single-threaded and deterministic: running the same
//! simulation twice with the same seed produces bit-identical results. The
//! higher layers (network, PM device, PMNet protocol) are built as event
//! handlers on top of this kernel.
//!
//! # Example
//!
//! ```
//! use pmnet_sim::{Engine, NodeId, Dur, Time};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule(Time::ZERO + Dur::micros(3), NodeId(1), "second");
//! engine.schedule(Time::ZERO + Dur::micros(1), NodeId(0), "first");
//! let (t, dest, msg) = engine.pop().unwrap();
//! assert_eq!((dest, msg), (NodeId(0), "first"));
//! assert_eq!(t, Time::ZERO + Dur::micros(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod rng;
mod time;

pub mod hash;
pub mod record;
pub mod stats;

pub use engine::{Engine, EventId, NodeId};
pub use rng::SimRng;
pub use time::{Dur, Time};
