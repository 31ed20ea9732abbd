//! `pmnet-traffic` — open-loop, million-session traffic generation for
//! the PMNet reproduction.
//!
//! Everything else in this repository drives the system closed-loop: a
//! client waits for one op to complete before issuing the next, so
//! offered load self-limits at system capacity and the overload regime —
//! where PMNet's `FLAG_CONGESTED` backpressure actually matters — is
//! unreachable. This crate adds the missing half of the evaluation:
//!
//! * [`arrivals`] — deterministic open-loop Poisson arrivals on the
//!   [`pmnet_sim::SimRng`]; same seed, same stream, bit for bit.
//! * [`spec`] — a typed, validated description of a traffic campaign:
//!   arrival rate, node/session topology, churn, queueing and admission
//!   control.
//! * [`engine`] — the [`engine::OpenLoop`] load policy of `pmnet-core`'s
//!   client node ([`engine::OpenLoopClient`]): hundreds of wire sessions
//!   with lifecycle churn, an AIMD admission gate driven by the server's
//!   congestion acks, and the
//!   [`engine::TrafficSystem`] harness plus its SLO-style
//!   [`engine::TrafficReport`] (p50/p99/p999, goodput vs offered load,
//!   total drop accounting, device-log pressure, phase attribution).
//!
//! ```
//! use pmnet_traffic::{TrafficSpec, TrafficSystem};
//! use pmnet_telemetry::Telemetry;
//!
//! let spec = TrafficSpec::poisson(50_000.0);
//! let mut sys = TrafficSystem::build(&spec, 7);
//! sys.run();
//! let report = sys.report(&Telemetry::disabled());
//! assert!(report.counters.arrivals > 0);
//! ```

#![warn(missing_docs)]

pub mod arrivals;
pub mod engine;
pub mod spec;

pub use arrivals::{ArrivalProcess, PoissonArrivals};
pub use engine::{OpenLoop, OpenLoopClient, TrafficCounters, TrafficReport, TrafficSystem};
pub use spec::{AdmissionSpec, ChurnSpec, TrafficSpec};
