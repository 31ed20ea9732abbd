//! PMNet: in-network data persistence (ISCA 2021) — the paper's primary
//! contribution.
//!
//! PMNet extends the data-persistence domain from servers into the network.
//! A PMNet device (a programmable ToR switch or a bump-in-the-wire NIC)
//! carries persistent memory; update requests are **logged in the device's
//! PM while being forwarded**, and the device acknowledges the client as
//! soon as the request is durable — sub-RTT, with the server's network
//! stack and request processing off the critical path. Logged entries are
//! redo logs: after a server failure the device resends them in per-client
//! order and the server deduplicates by sequence number.
//!
//! This crate implements the complete system of Section IV:
//!
//! * [`protocol`] — the PMNet header (Type / SessionID / SeqNum / HashVal)
//!   and its UDP encoding (Section IV-A),
//! * [`PmnetDevice`] — the three-stage MAT pipeline (ingress / PM-access /
//!   egress) with the hash-indexed log store, BDP-bounded log queues, read
//!   cache and replication support (Sections IV-B…IV-D, Figure 8),
//! * [`ClientLib`] / [`ServerLib`] — the software library of Table I:
//!   sessions, MTU fragmentation, ACK collection, reordering, gap
//!   detection and retransmission (Sections IV-A3/IV-A4, V-B),
//! * failure injection and recovery for all the Section IV-E cases,
//! * [`system`] — builders assembling the paper's three design points
//!   (PMNet-Switch, PMNet-NIC, Client-Server) plus the Figure 17
//!   alternative designs (client-side and server-side logging), and an
//!   experiment runner collecting the metrics the figures report.
//!
//! # Quickstart
//!
//! ```
//! use pmnet_core::system::{DesignPoint, UpdateExperiment};
//! use pmnet_core::SystemConfig;
//!
//! let config = SystemConfig::default();
//! let mut exp = UpdateExperiment::new(DesignPoint::PmnetSwitch, config)
//!     .clients(1)
//!     .payload_bytes(100)
//!     .requests_per_client(200);
//! let metrics = exp.run(42);
//! assert_eq!(metrics.completed, 200);
//! // Sub-RTT acknowledgement: mean latency is far below the baseline's.
//! assert!(metrics.latency.mean() < pmnet_sim::Dur::micros(40));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alt;
pub mod api;
pub mod audit;
pub mod batch;
pub mod cache;
pub mod client;
pub mod config;
pub mod device;
pub mod fabric;
pub mod kvproto;
pub mod logstore;
pub mod protocol;
pub mod rto;
pub mod server;
pub mod system;
#[cfg(test)]
mod topology;

pub use batch::{BatchBuilder, BatchFrames};
pub use cache::{CacheState, ReadCache};
pub use client::{
    ClientLib, ClientMode, ClientRetryCounters, CompletionRecord, RequestKind, RequestSource,
    UpdateOutcome,
};
pub use config::{ApplyConfig, BatchConfig, DeviceConfig, HostProfile, RetryConfig, SystemConfig};
pub use device::{DeviceFabric, DeviceRole, PmnetDevice};
pub use fabric::{FabricMap, FabricSteering, ReconfigAction, ShardChain, ShardMap, SteerSide};
pub use logstore::{LogOutcome, LogStore};
pub use protocol::{PacketType, PmnetHeader, PMNET_PORT_HI, PMNET_PORT_LO};
pub use rto::RtoEstimator;
pub use server::{RequestHandler, ServerLib};
