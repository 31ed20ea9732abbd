//! # PMNet: In-Network Data Persistence — a Rust reproduction
//!
//! This is the facade crate of a full reproduction of *PMNet: In-Network
//! Data Persistence* (ISCA 2021). PMNet puts persistent memory on a
//! programmable network device (ToR switch or NIC); update requests are
//! logged in the device's PM while being forwarded and acknowledged to the
//! client **before** the server processes them — taking the server's
//! network stack and request handling off the critical path. Logged
//! requests double as redo logs for server recovery.
//!
//! The workspace layers (re-exported here):
//!
//! * [`sim`] — deterministic discrete-event kernel (time, events, RNG,
//!   statistics),
//! * [`net`] — the network substrate: packets, 10 Gbps links with FIFO
//!   queueing, switches, host stack models,
//! * [`pmem`] — the PM substrate: device timing, crash-semantics arena,
//!   WAL, five persistent key-value structures,
//! * [`core`] — PMNet itself: protocol, device MAT pipeline, client/server
//!   libraries, read cache, replication, failure recovery, and the
//!   [`core::system`] experiment builders,
//! * [`workloads`] — the evaluation workloads: PMDK KV stores, PM-Redis,
//!   Twitter (Retwis), TPCC, and the YCSB generator,
//! * [`traffic`] — the open-loop traffic engine: Poisson arrivals,
//!   session-lifecycle churn over arena-backed tables, AIMD admission
//!   against `FLAG_CONGESTED`, and the overload-control study
//!   (`examples/overload_sweep.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use pmnet::core::system::{DesignPoint, UpdateExperiment};
//! use pmnet::core::SystemConfig;
//!
//! // 200 update requests from one client through a PMNet ToR switch.
//! let metrics = UpdateExperiment::new(DesignPoint::PmnetSwitch, SystemConfig::default())
//!     .payload_bytes(100)
//!     .requests_per_client(200)
//!     .run(1);
//! assert_eq!(metrics.completed, 200);
//!
//! // The same workload against the traditional client-server baseline is
//! // several times slower: the full RTT sits on the critical path.
//! let baseline = UpdateExperiment::new(DesignPoint::ClientServer, SystemConfig::default())
//!     .payload_bytes(100)
//!     .requests_per_client(200)
//!     .run(1);
//! assert!(baseline.latency.mean() > metrics.latency.mean().mul_f64(2.0));
//! ```
//!
//! ## Chaos testing
//!
//! The [`chaos`] crate turns the durability claim into a search problem:
//! seeded random fault schedules (crashes, flaps, loss/duplication/
//! corruption bursts, PM slowdowns) run deterministically against any
//! design point, verdicts are checked against the persistence audit, and
//! failing schedules are ddmin-shrunk to minimal replayable artifacts.
//! See `examples/chaos_search.rs`.
//!
//! ## Observability
//!
//! The [`telemetry`] crate is an always-compiled, runtime-gated
//! observability layer: causal span tracing that attributes every op's
//! measured latency to protocol phases (the paper's Figure 2 breakdown,
//! from traces instead of constants), fixed-memory log-bucketed
//! histograms, a metric registry, a crash flight recorder whose
//! timeline is embedded in chaos failure artifacts, and the recorded
//! history the model checker judges. A handle is [`telemetry::Telemetry::full`]
//! (spans) or [`telemetry::Telemetry::checking`] (history and flight
//! rings); attach it
//! with [`core::system::BuiltSystem::attach_telemetry`]. Hooks are pure
//! observation, so golden digests are bit-identical with telemetry on or
//! off (DESIGN.md §12).
//!
//! ## Model checking
//!
//! The [`model`] crate closes the loop on correctness: a checking
//! telemetry handle captures every invocation, acknowledgement, and apply
//! of a simulated run — closed-loop or open-loop clients alike — and a
//! durable-linearizability checker verifies the
//! history — and the server's final durable state — against a sequential
//! reference model, reporting the first divergent op as a replayable
//! artifact. The chaos harness runs it as an extra invariant on every
//! plan (DESIGN.md §11).
//!
//! ## The paper's figures
//!
//! [`figures`] holds every reproduced cell of the paper's evaluation as
//! one table: `examples/figures.rs` prints it at full scale as the
//! EXPERIMENTS.md tables, and the tier-1 `tests/figures_ledger.rs` pins
//! it at reduced scale. See `examples/` for runnable scenarios.

pub mod figures;

pub use pmnet_chaos as chaos;
pub use pmnet_core as core;
pub use pmnet_model as model;
pub use pmnet_net as net;
pub use pmnet_pmem as pmem;
pub use pmnet_sim as sim;
pub use pmnet_telemetry as telemetry;
pub use pmnet_traffic as traffic;
pub use pmnet_workloads as workloads;

/// The helpers the figures table runs its rows with.
#[cfg(test)]
mod tests {
    use crate::core::system::{DesignPoint, UpdateExperiment};
    use crate::core::SystemConfig;
    use crate::figures::{geomean, micro};
    use crate::sim::Dur;

    #[test]
    fn geomean_of_identical_values() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn micro_runs_quickly() {
        let m = micro(DesignPoint::PmnetSwitch, SystemConfig::default(), 50).run(1);
        assert_eq!(m.completed, 45);
    }

    #[test]
    fn stress_point_reports_bandwidth() {
        let (gbps, mean, p99) =
            UpdateExperiment::new(DesignPoint::PmnetSwitch, SystemConfig::default())
                .clients(4)
                .payload_bytes(1000)
                .stress_point(Dur::millis(5), 2);
        assert!(gbps > 0.1, "{gbps}");
        assert!(mean > Dur::micros(5));
        assert!(p99 >= mean);
    }
}
