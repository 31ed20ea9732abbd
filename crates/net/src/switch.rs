//! A plain store-and-forward switch.
//!
//! The paper's testbed places a regular sub-microsecond switch between the
//! clients and the PMNet FPGA (Section VI-A1); the baseline Client-Server
//! design uses only such switches. PMNet devices (in `pmnet-core`) extend
//! this forwarding behaviour with the persistent-logging pipeline.

use pmnet_sim::Dur;

use crate::{Addr, Ctx, Msg, Node, PortNo};

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

/// A non-programmable switch: looks up the destination address and forwards
/// after a fixed pipeline delay.
#[derive(Debug)]
pub struct Switch {
    name: String,
    routes: RouteTable,
    pipeline_delay: Dur,
    forwarded: u64,
    unroutable: u64,
}

impl Switch {
    /// Default forwarding-pipeline latency ("sub-microsecond latency",
    /// Section VI-A1).
    pub const DEFAULT_PIPELINE_DELAY: Dur = Dur::nanos(600);

    /// Creates a switch with the default pipeline delay.
    pub fn new(name: impl Into<String>) -> Switch {
        Switch {
            name: name.into(),
            routes: RouteTable::default(),
            pipeline_delay: Self::DEFAULT_PIPELINE_DELAY,
            forwarded: 0,
            unroutable: 0,
        }
    }

    /// Creates a switch with a custom pipeline delay.
    pub fn with_pipeline_delay(name: impl Into<String>, delay: Dur) -> Switch {
        Switch {
            pipeline_delay: delay,
            ..Switch::new(name)
        }
    }

    /// The switch's name (for traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Packets dropped for lack of a route.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// The configured route for `dst`, if any.
    pub fn route(&self, dst: Addr) -> Option<PortNo> {
        self.routes.get(dst)
    }
}

impl Node for Switch {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        if let Msg::Packet { packet, .. } = msg {
            match self.routes.get(packet.dst) {
                Some(out) => {
                    self.forwarded += 1;
                    ctx.send_after(self.pipeline_delay, out, packet);
                }
                None => self.unroutable += 1,
            }
        }
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
    use pmnet_sim::Time;

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
        let s = w.add_node(Box::new(Switch::with_pipeline_delay("s", Dur::micros(5))));
        w.connect(a, s, LinkSpec::ten_gbps());
        w.connect(s, b, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        w.inject(a, Packet::udp(Addr(1), Addr(2), 1, 2, Bytes::new()));
        w.run_to_quiescence(1000);
        // 42 B wire both hops (~34 ns each) + 2x300 ns prop + 5 us pipeline.
        assert!(w.now() > Time::from_nanos(5_600));
        assert!(w.now() < Time::from_nanos(6_000));
    }
}
