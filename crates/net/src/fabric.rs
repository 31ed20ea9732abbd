//! A steering-capable switch for sharded fabrics.
//!
//! [`FabricSwitch`] is a [`Switch`](crate::Switch) with two extensions a
//! programmable data plane would provide:
//!
//! * an optional host address, so control packets can be *addressed to the
//!   switch itself* (routing tables already reach every `addr()`-bearing
//!   node), and
//! * a pluggable [`Steering`] program that may override the next-hop
//!   *address* of selected packets before the routing lookup.
//!
//! The steering program only returns addresses, never ports: the port is
//! always resolved through the same routing table a plain switch uses, so
//! a steering decision can never send a packet out an unwired port. This
//! crate stays protocol-agnostic — the PMNet shard map that implements
//! [`Steering`] lives in `pmnet-core`.

use std::fmt;

use pmnet_sim::Dur;

use crate::{Addr, Ctx, Msg, Node, Packet, PortNo, RouteTable, Switch};

/// A data-plane steering program installed into a [`FabricSwitch`].
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

/// A switch with an optional host address and steering program. With
/// neither installed it forwards exactly like [`Switch`].
#[derive(Debug)]
pub struct FabricSwitch {
    name: String,
    routes: RouteTable,
    pipeline_delay: Dur,
    addr: Option<Addr>,
    steering: Option<Box<dyn Steering>>,
    forwarded: u64,
    steered: u64,
    unroutable: u64,
    control_handled: u64,
}

impl FabricSwitch {
    /// Creates a fabric switch with the default pipeline delay and no
    /// address or steering program.
    pub fn new(name: impl Into<String>) -> FabricSwitch {
        FabricSwitch {
            name: name.into(),
            routes: RouteTable::default(),
            pipeline_delay: Switch::DEFAULT_PIPELINE_DELAY,
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
    pub fn with_addr(mut self, addr: Addr) -> FabricSwitch {
        self.addr = Some(addr);
        self
    }

    /// Installs the steering program.
    #[must_use]
    pub fn with_steering(mut self, steering: Box<dyn Steering>) -> FabricSwitch {
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

impl Node for FabricSwitch {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        if let Msg::Packet { packet, .. } = msg {
            // Control traffic addressed to the switch itself.
            if self.addr == Some(packet.dst) {
                let handled = match &mut self.steering {
                    Some(s) => s.control(&packet),
                    None => false,
                };
                if handled {
                    self.control_handled += 1;
                } else {
                    self.unroutable += 1;
                }
                return;
            }
            let next = match &mut self.steering {
                Some(s) => s.steer(&packet),
                None => None,
            };
            let lookup = next.unwrap_or(packet.dst);
            match self.routes.get(lookup) {
                Some(out) => {
                    self.forwarded += 1;
                    if next.is_some() {
                        self.steered += 1;
                    }
                    ctx.send_after(self.pipeline_delay, out, packet);
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
    use crate::{EchoHost, LinkSpec, World};
    use bytes::Bytes;
    use pmnet_sim::NodeId;

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
        let mut sw = FabricSwitch::new("fab").with_addr(Addr(5000));
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
        let f = w.node::<FabricSwitch>(sw);
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
        assert_eq!(w.node::<FabricSwitch>(sw).steered(), 1);
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
        assert_eq!(w.node::<FabricSwitch>(sw).control_handled(), 1);
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
            FabricSwitch::new("fab")
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
        assert_eq!(w.node::<FabricSwitch>(fab).control_handled(), 1);
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
        assert_eq!(w.node::<FabricSwitch>(sw).unroutable(), 1);
        assert_eq!(w.node::<FabricSwitch>(sw).forwarded(), 0);
    }
}
