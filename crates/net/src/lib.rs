//! Network substrate for the PMNet reproduction.
//!
//! This crate models the data-center fabric the paper's testbed runs on
//! (Section VI-A): hosts with kernel or bypass (libVMA-style) network
//! stacks, 10 Gbps links with FIFO egress queues, and store-and-forward
//! switches. It also provides the simulation *runtime* — the [`World`] that
//! owns nodes, routes messages and drives the event loop — on top of the
//! `pmnet-sim` kernel.
//!
//! Layering: this crate knows nothing about PMNet. Packets carry opaque
//! [`bytes::Bytes`] payloads; the PMNet header and protocol live in
//! `pmnet-core` and are encoded/decoded at the endpoints and devices, just
//! as a real programmable data plane parses bytes off the wire.
//!
//! # Example: two hosts through a switch
//!
//! ```
//! use pmnet_net::{World, LinkSpec, Switch, EchoHost, Addr, Packet, Proto};
//! use pmnet_sim::{Dur, Time};
//! use bytes::Bytes;
//!
//! let mut world = World::new(1);
//! let a = world.add_node(Box::new(EchoHost::new(Addr(1))));
//! let b = world.add_node(Box::new(EchoHost::new(Addr(2))));
//! let sw = world.add_node(Box::new(Switch::new("tor")));
//! world.connect(a, sw, LinkSpec::ten_gbps());
//! world.connect(b, sw, LinkSpec::ten_gbps());
//! world.populate_switch_routes();
//!
//! // Inject a packet from host A to host B and run.
//! let pkt = Packet::udp(Addr(1), Addr(2), 9000, 9000, Bytes::from_static(b"ping"));
//! world.inject(a, pkt);
//! world.run_for(Dur::millis(1));
//! let echo_host: &EchoHost = world.node(b);
//! assert_eq!(echo_host.received(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod packet;
mod port;
mod runtime;
mod stack;
mod switch;

pub use addr::Addr;
/// The payload type of [`Packet::payload`], named here so crates above
/// this one need no direct `bytes` dependency to hold one.
pub use bytes::Bytes;
pub use packet::{Packet, Proto, ETH_IP_UDP_OVERHEAD, TCP_EXTRA_OVERHEAD};
pub use port::{LinkSpec, PortCounters, PortNo, PortTable};
pub use runtime::{AnyNode, Ctx, EchoHost, EventCounts, Msg, Node, Timer, World};
pub use stack::StackProfile;
pub use switch::{RouteTable, Steering, Switch};

pub use pmnet_sim::{EventId, NodeId};
