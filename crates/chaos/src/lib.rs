//! # pmnet-chaos — deterministic fault-schedule exploration
//!
//! A chaos-testing harness for the PMNet reproduction. The paper's central
//! claim is *durability*: an update acknowledged by a PMNet device
//! survives packet loss, reordering, duplication, corruption and power
//! failure. This crate turns that claim into a checkable search problem:
//!
//! 1. **Plans** ([`plan`]) — a serializable DSL of timed fault events:
//!    crashes with optional restart, permanent device fail-stops healed
//!    by chained-replica failover, link flaps, loss / duplication /
//!    reordering / corruption bursts, PM latency spikes.
//! 2. **Generation** ([`generate`]) — seeded random plans at a chosen
//!    intensity, aimed using a positional view of the topology.
//! 3. **Execution** ([`runner`]) — a plan runs against a freshly built
//!    system; the verdict checks the durability audit (apply order,
//!    exactly-once, no acknowledged update lost), liveness (transient
//!    faults must not wedge the protocol) and the `pmnet-model`
//!    durable-linearizability checker over the run's recorded history.
//! 4. **Campaigns** ([`campaign`]) — hundreds of plans across design
//!    points, folded into an FNV digest so determinism is a one-word
//!    comparison.
//! 5. **Shrinking** ([`shrink`]) — ddmin reduces a failing plan to a
//!    1-minimal fault set, and [`artifact`] serializes it (seed + design
//!    + plan) for replay from a text file.
//!
//! Every run is a pure function of `(Scenario, FaultPlan)`: same inputs,
//! bit-identical verdict. That makes failures replayable, shrinkable and
//! diffable across code changes.
//!
//! ## Example
//!
//! ```
//! use pmnet_chaos::{run, Fault, FaultPlan, Scenario};
//! use pmnet_chaos::plan::LinkTarget;
//! use pmnet_core::system::DesignPoint;
//! use pmnet_sim::Dur;
//!
//! // Drop 30% of backbone packets for 300us, then crash the server.
//! let mut plan = FaultPlan::new();
//! plan.push(Dur::micros(200), Fault::DropBurst {
//!     link: LinkTarget::Backbone(1),
//!     permille: 300,
//!     dur: Dur::micros(300),
//! });
//! plan.push(Dur::millis(1), Fault::ServerCrash {
//!     downtime: Some(Dur::millis(1)),
//! });
//!
//! let verdict = run(&Scenario::standard(DesignPoint::PmnetSwitch, 7), &plan);
//! assert!(verdict.passed, "{:?}", verdict.violations);
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod generate;
pub mod plan;
pub mod runner;
pub mod shrink;

pub use artifact::Artifact;
pub use campaign::{run_campaign, CampaignConfig, CampaignOutcome, PlanKind};
pub use generate::{
    generate_failover_plan, generate_lossy_recovery_plan, generate_plan, Intensity, Topology,
};
pub use plan::{Fault, FaultEvent, FaultPlan, LinkTarget};
pub use runner::{run, Scenario, Verdict};
pub use shrink::{ddmin, shrink_failure, ShrinkStats};
