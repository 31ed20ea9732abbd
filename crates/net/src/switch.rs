//! A store-and-forward switch, optionally steering.
//!
//! The paper's testbed places a regular sub-microsecond switch between the
//! clients and the PMNet FPGA (Section VI-A1); the baseline Client-Server
//! design uses only such switches. PMNet devices (in `pmnet-core`) extend
//! this forwarding behaviour with the persistent-logging pipeline.
//!
//! A sharded fabric's merge and tor switches add the two things a
//! programmable data plane would provide:
//!
//! * an optional host address, so control packets can be *addressed to the
//!   switch itself* (routing tables already reach every `addr()`-bearing
//!   node), and
//! * a pluggable [`Steering`] program that may override the next-hop
//!   *address* of selected packets before the routing lookup.
//!
//! The steering program only returns addresses, never ports: the port is
//! always resolved through the same routing table, so a steering decision
//! can never send a packet out an unwired port. This crate stays
//! protocol-agnostic — the PMNet shard map that implements [`Steering`]
//! lives in `pmnet-core`.

use std::fmt;

use pmnet_sim::Dur;

use crate::{Addr, Ctx, Msg, Node, Packet, PortNo};

/// A data-plane steering program installed into a [`Switch`].
///
/// Both hooks take `&mut self` so a program can keep counters or accept
/// map updates, but they must stay pure with respect to the simulation:
/// no RNG draws, no scheduled events.
pub trait Steering: fmt::Debug {
    /// Next-hop address override for a transit packet, or `None` to route
    /// by the packet's own destination.
    fn steer(&mut self, packet: &Packet) -> Option<Addr>;

    /// Handles a control packet addressed to the switch itself. Returns
    /// `true` when consumed; unconsumed packets are dropped (counted as
    /// unroutable) since the switch has no host stack.
    fn control(&mut self, packet: &Packet) -> bool;
}

/// A forwarding table, `Addr -> port`. It is written a handful of times at
/// set-up and read once per forwarded packet, so it is a sorted vector
/// under a binary search rather than a hashed map.
#[derive(Debug, Clone, Default)]
pub struct RouteTable(Vec<(Addr, PortNo)>);

impl RouteTable {
    /// Installs (or replaces) the route to `dst`.
    pub fn install(&mut self, dst: Addr, port: PortNo) {
        match self.0.binary_search_by_key(&dst, |&(a, _)| a) {
            Ok(i) => self.0[i].1 = port,
            Err(i) => self.0.insert(i, (dst, port)),
        }
    }

    /// The egress port toward `dst`, if a route is installed.
    pub fn get(&self, dst: Addr) -> Option<PortNo> {
        let i = self.0.binary_search_by_key(&dst, |&(a, _)| a).ok()?;
        Some(self.0[i].1)
    }

    /// Every route in address order, its port open to rewriting.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Addr, &mut PortNo)> {
        self.0.iter_mut().map(|(dst, port)| (*dst, port))
    }
}

/// A switch: looks up the destination address (or the address its
/// [`Steering`] program names instead) and forwards after
/// [`Switch::DEFAULT_PIPELINE_DELAY`].
#[derive(Debug)]
pub struct Switch {
    name: String,
    routes: RouteTable,
    addr: Option<Addr>,
    steering: Option<Box<dyn Steering>>,
    forwarded: u64,
    steered: u64,
    unroutable: u64,
    control_handled: u64,
}

impl Switch {
    /// Default forwarding-pipeline latency ("sub-microsecond latency",
    /// Section VI-A1).
    pub const DEFAULT_PIPELINE_DELAY: Dur = Dur::nanos(600);

    /// Creates a switch with no address or steering program.
    pub fn new(name: impl Into<String>) -> Switch {
        Switch {
            name: name.into(),
            routes: RouteTable::default(),
            addr: None,
            steering: None,
            forwarded: 0,
            steered: 0,
            unroutable: 0,
            control_handled: 0,
        }
    }

    /// Gives the switch a host address so control packets can target it.
    #[must_use]
    pub fn with_addr(mut self, addr: Addr) -> Switch {
        self.addr = Some(addr);
        self
    }

    /// Installs the steering program.
    #[must_use]
    pub fn with_steering(mut self, steering: Box<dyn Steering>) -> Switch {
        self.steering = Some(steering);
        self
    }

    /// The switch's name (for traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Packets forwarded so far (steered or not).
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Packets whose next hop was overridden by the steering program.
    pub fn steered(&self) -> u64 {
        self.steered
    }

    /// Packets dropped for lack of a route (including steering targets
    /// with no installed route, and unconsumed control packets).
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Control packets consumed by the steering program.
    pub fn control_handled(&self) -> u64 {
        self.control_handled
    }

    /// The configured route for `dst`, if any.
    pub fn route(&self, dst: Addr) -> Option<PortNo> {
        self.routes.get(dst)
    }
}

impl Node for Switch {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        if let Msg::Packet { packet, .. } = msg {
            // Control traffic addressed to the switch itself.
            if self.addr == Some(packet.dst) {
                if self.steering.as_mut().is_some_and(|s| s.control(&packet)) {
                    self.control_handled += 1;
                } else {
                    self.unroutable += 1;
                }
                return;
            }
            let next = self.steering.as_mut().and_then(|s| s.steer(&packet));
            match self.routes.get(next.unwrap_or(packet.dst)) {
                Some(out) => {
                    self.forwarded += 1;
                    self.steered += u64::from(next.is_some());
                    ctx.send_after(Self::DEFAULT_PIPELINE_DELAY, out, packet);
                }
                None => self.unroutable += 1,
            }
        }
    }

    fn addr(&self) -> Option<Addr> {
        self.addr
    }

    fn install_route(&mut self, dst: Addr, port: PortNo) {
        self.routes.install(dst, port);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EchoHost, LinkSpec, Packet, World};
    use bytes::Bytes;
    use pmnet_sim::{NodeId, Time};

    #[test]
    fn forwards_along_installed_route() {
        let mut s = Switch::new("t");
        s.install_route(Addr(9), PortNo(3));
        assert_eq!(s.route(Addr(9)), Some(PortNo(3)));
        assert_eq!(s.route(Addr(8)), None);
        // Installed out of address order, and one of them replaced.
        s.install_route(Addr(12), PortNo(1));
        s.install_route(Addr(2), PortNo(5));
        s.install_route(Addr(9), PortNo(4));
        let routes = [2, 8, 9, 12].map(|a| s.route(Addr(a)));
        let expect = [Some(PortNo(5)), None, Some(PortNo(4)), Some(PortNo(1))];
        assert_eq!(routes, expect);
    }

    #[test]
    fn multihop_line_topology_routes_end_to_end() {
        // a - s1 - s2 - s3 - b
        let mut w = World::new(2);
        let a = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let b = w.add_node(Box::new(EchoHost::sink(Addr(2))));
        let s1 = w.add_node(Box::new(Switch::new("s1")));
        let s2 = w.add_node(Box::new(Switch::new("s2")));
        let s3 = w.add_node(Box::new(Switch::new("s3")));
        w.connect(a, s1, LinkSpec::ten_gbps());
        w.connect(s1, s2, LinkSpec::ten_gbps());
        w.connect(s2, s3, LinkSpec::ten_gbps());
        w.connect(s3, b, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        w.inject(
            a,
            Packet::udp(Addr(1), Addr(2), 1, 2, Bytes::from_static(b"x")),
        );
        w.run_to_quiescence(1000);
        assert_eq!(w.node::<EchoHost>(b).received(), 1);
        for s in [s1, s2, s3] {
            assert_eq!(w.node::<Switch>(s).forwarded(), 1);
        }
    }

    #[test]
    fn unroutable_packets_are_counted_and_dropped() {
        let mut w = World::new(3);
        let a = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let s = w.add_node(Box::new(Switch::new("s")));
        w.connect(a, s, LinkSpec::ten_gbps());
        // No routes installed.
        w.inject(a, Packet::udp(Addr(1), Addr(99), 1, 2, Bytes::new()));
        w.run_to_quiescence(1000);
        assert_eq!(w.node::<Switch>(s).unroutable(), 1);
    }

    #[test]
    fn pipeline_delay_shows_up_in_latency() {
        let mut w = World::new(4);
        let a = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let b = w.add_node(Box::new(EchoHost::sink(Addr(2))));
        let s = w.add_node(Box::new(Switch::new("s")));
        w.connect(a, s, LinkSpec::ten_gbps());
        w.connect(s, b, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        w.inject(a, Packet::udp(Addr(1), Addr(2), 1, 2, Bytes::new()));
        w.run_to_quiescence(1000);
        // 42 B wire both hops (~34 ns each) + 2x300 ns prop + 600 ns
        // pipeline.
        assert_eq!(Switch::DEFAULT_PIPELINE_DELAY, Dur::nanos(600));
        assert!(w.now() > Time::from_nanos(1_200));
        assert!(w.now() < Time::from_nanos(1_300));
    }

    /// Steers every packet destined to `from` toward `to` instead.
    #[derive(Debug)]
    struct Redirect {
        from: Addr,
        to: Addr,
        controls: u32,
    }

    impl Steering for Redirect {
        fn steer(&mut self, packet: &Packet) -> Option<Addr> {
            (packet.dst == self.from).then_some(self.to)
        }

        fn control(&mut self, _packet: &Packet) -> bool {
            self.controls += 1;
            true
        }
    }

    fn rig(steering: Option<Box<dyn Steering>>) -> (World, NodeId, NodeId, NodeId, NodeId) {
        let mut w = World::new(5);
        let a = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let b = w.add_node(Box::new(EchoHost::sink(Addr(2))));
        let c = w.add_node(Box::new(EchoHost::sink(Addr(3))));
        let mut sw = Switch::new("fab").with_addr(Addr(5000));
        if let Some(s) = steering {
            sw = sw.with_steering(s);
        }
        let sw = w.add_node(Box::new(sw));
        w.connect(a, sw, LinkSpec::ten_gbps());
        w.connect(b, sw, LinkSpec::ten_gbps());
        w.connect(c, sw, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        (w, a, b, c, sw)
    }

    #[test]
    fn without_steering_forwards_like_a_plain_switch() {
        let (mut w, a, b, _c, sw) = rig(None);
        w.inject(a, Packet::udp(Addr(1), Addr(2), 5, 6, Bytes::new()));
        w.run_to_quiescence(1000);
        assert_eq!(w.node::<EchoHost>(b).received(), 1);
        let f = w.node::<Switch>(sw);
        assert_eq!(f.forwarded(), 1);
        assert_eq!(f.steered(), 0);
    }

    #[test]
    fn steering_overrides_the_next_hop_address() {
        let (mut w, a, b, c, sw) = rig(Some(Box::new(Redirect {
            from: Addr(2),
            to: Addr(3),
            controls: 0,
        })));
        w.inject(a, Packet::udp(Addr(1), Addr(2), 5, 6, Bytes::new()));
        w.run_to_quiescence(1000);
        // Delivered to C's port even though the packet still names Addr(2).
        assert_eq!(w.node::<EchoHost>(b).received(), 0);
        assert_eq!(w.node::<EchoHost>(c).received(), 1);
        assert_eq!(w.node::<Switch>(sw).steered(), 1);
    }

    #[test]
    fn control_packets_are_consumed_not_forwarded() {
        let (mut w, a, b, c, sw) = rig(Some(Box::new(Redirect {
            from: Addr(99),
            to: Addr(99),
            controls: 0,
        })));
        w.inject(a, Packet::udp(Addr(1), Addr(5000), 5, 6, Bytes::new()));
        w.run_to_quiescence(1000);
        assert_eq!(w.node::<Switch>(sw).control_handled(), 1);
        assert_eq!(w.node::<EchoHost>(b).received(), 0);
        assert_eq!(w.node::<EchoHost>(c).received(), 0);
    }

    #[test]
    fn addressed_switch_is_routable_from_everywhere() {
        // populate_switch_routes treats the addressed switch as an
        // endpoint: hosts hanging off another switch can reach it.
        let mut w = World::new(6);
        let a = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let plain = w.add_node(Box::new(Switch::new("s")));
        let fab = w.add_node(Box::new(
            Switch::new("fab")
                .with_addr(Addr(5001))
                .with_steering(Box::new(Redirect {
                    from: Addr(0),
                    to: Addr(0),
                    controls: 0,
                })),
        ));
        w.connect(a, plain, LinkSpec::ten_gbps());
        w.connect(plain, fab, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        w.inject(a, Packet::udp(Addr(1), Addr(5001), 5, 6, Bytes::new()));
        w.run_to_quiescence(1000);
        assert_eq!(w.node::<Switch>(fab).control_handled(), 1);
    }

    #[test]
    fn steering_to_an_unrouted_address_counts_unroutable() {
        let (mut w, a, _b, _c, sw) = rig(Some(Box::new(Redirect {
            from: Addr(2),
            to: Addr(777),
            controls: 0,
        })));
        w.inject(a, Packet::udp(Addr(1), Addr(2), 5, 6, Bytes::new()));
        w.run_to_quiescence(1000);
        assert_eq!(w.node::<Switch>(sw).unroutable(), 1);
        assert_eq!(w.node::<Switch>(sw).forwarded(), 0);
    }
}
