//! Ports and links: bandwidth, propagation, FIFO egress queueing, and fault
//! injection.
//!
//! Each directed port models the egress side of a link attachment. A packet
//! transmitted on a busy port waits behind the in-flight bytes; the waiting
//! time is exactly the queueing delay that produces the paper's Figure 16
//! latency spike at 10 Gbps saturation and part of its tail latency story.

use std::fmt;

use pmnet_sim::{Dur, NodeId, SimRng, Time};

use crate::Packet;

/// A port index local to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub u8);

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Static parameters of a (full-duplex, symmetric) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: Dur,
    /// Maximum tolerated queueing delay; packets that would wait longer are
    /// tail-dropped (models a finite egress buffer).
    pub max_queue: Dur,
    /// Probability a packet is dropped in flight (fault injection).
    pub drop_prob: f64,
    /// Probability a packet is delayed by an extra random amount, causing
    /// reordering relative to its successors (fault injection; Fig. 7a).
    pub reorder_prob: f64,
    /// Maximum extra delay applied to reordered packets.
    pub reorder_extra: Dur,
    /// Probability a packet is delivered twice (fault injection): the copy
    /// rides one serialization slot behind the original.
    pub duplicate_prob: f64,
    /// Probability one payload byte is flipped in flight (fault injection).
    /// PMNet endpoints detect header corruption via the CRC-32 `hash`
    /// field computed by the pmem CRC path and drop the packet.
    pub corrupt_prob: f64,
}

/// Clamps a fault probability into `[0, 1]`; `NaN` becomes `0`.
fn clamp_prob(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

impl LinkSpec {
    /// The testbed's 10 Gbps data-center link (Section V-A) with in-rack
    /// propagation delay and a generous egress buffer.
    pub fn ten_gbps() -> LinkSpec {
        LinkSpec {
            bandwidth_bps: 10_000_000_000,
            propagation: Dur::nanos(300),
            max_queue: Dur::millis(5),
            drop_prob: 0.0,
            reorder_prob: 0.0,
            reorder_extra: Dur::ZERO,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
        }
    }

    /// Returns a copy with the given drop probability, clamped to `[0, 1]`.
    pub fn with_drop_prob(mut self, p: f64) -> LinkSpec {
        self.drop_prob = clamp_prob(p);
        self
    }

    /// Returns a copy with the given reordering behaviour; the probability
    /// is clamped to `[0, 1]`.
    pub fn with_reordering(mut self, p: f64, extra: Dur) -> LinkSpec {
        self.reorder_prob = clamp_prob(p);
        self.reorder_extra = extra;
        self
    }

    /// Returns a copy with the given duplication probability, clamped to
    /// `[0, 1]`.
    pub fn with_duplicate_prob(mut self, p: f64) -> LinkSpec {
        self.duplicate_prob = clamp_prob(p);
        self
    }

    /// Returns a copy with the given payload-corruption probability,
    /// clamped to `[0, 1]`.
    pub fn with_corrupt_prob(mut self, p: f64) -> LinkSpec {
        self.corrupt_prob = clamp_prob(p);
        self
    }

    /// Returns a copy with the given maximum queueing delay.
    pub fn with_max_queue(mut self, q: Dur) -> LinkSpec {
        self.max_queue = q;
        self
    }

    /// Serialization delay of `bytes` on this link.
    pub fn serialization(&self, bytes: u32) -> Dur {
        Dur::for_bytes_at(u64::from(bytes), self.bandwidth_bps)
    }
}

/// Traffic counters kept per egress port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Packets successfully transmitted.
    pub tx_packets: u64,
    /// Wire bytes successfully transmitted.
    pub tx_bytes: u64,
    /// Packets dropped because the egress queue was full.
    pub dropped_overflow: u64,
    /// Packets dropped by fault injection.
    pub dropped_fault: u64,
    /// Packets delayed for reordering by fault injection.
    pub reordered: u64,
    /// Packets dropped because the link was administratively down.
    pub dropped_down: u64,
    /// Extra copies delivered by duplication fault injection.
    pub duplicated: u64,
    /// Packets with a payload byte flipped by corruption fault injection.
    pub corrupted: u64,
}

#[derive(Debug)]
struct Port {
    peer_node: NodeId,
    peer_port: PortNo,
    spec: LinkSpec,
    busy_until: Time,
    counters: PortCounters,
    /// Administrative link state; a downed port drops everything offered.
    up: bool,
}

/// The outcome of offering a packet to a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxOutcome {
    /// Packet will arrive at `(node, port)` at the given time.
    Deliver {
        /// Arrival instant at the peer.
        at: Time,
        /// Peer node.
        node: NodeId,
        /// Peer ingress port.
        port: PortNo,
        /// When duplication fault injection fired: the arrival instant of
        /// the extra copy (one serialization slot behind the original).
        duplicate_at: Option<Time>,
        /// When corruption fault injection fired: `(payload byte offset,
        /// xor mask)` the caller must apply to the delivered payload.
        corrupt: Option<(usize, u8)>,
    },
    /// Packet was dropped (queue overflow, fault, or downed link).
    Dropped,
}

/// All ports in the world, indexed by `(node, port)`.
///
/// The table is owned by the runtime; nodes access it through
/// [`Ctx::send`](crate::Ctx::send).
#[derive(Debug, Default)]
pub struct PortTable {
    ports: Vec<Vec<Port>>,
}

impl PortTable {
    pub(crate) fn new() -> PortTable {
        PortTable::default()
    }

    pub(crate) fn ensure_node(&mut self, id: NodeId) {
        while self.ports.len() <= id.index() {
            self.ports.push(Vec::new());
        }
    }

    /// Connects `a` and `b` with a symmetric link, returning the port
    /// numbers allocated on each side.
    pub(crate) fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortNo, PortNo) {
        self.ensure_node(a);
        self.ensure_node(b);
        let pa = PortNo(u8::try_from(self.ports[a.index()].len()).expect("too many ports"));
        let pb = PortNo(u8::try_from(self.ports[b.index()].len()).expect("too many ports"));
        self.ports[a.index()].push(Port {
            peer_node: b,
            peer_port: pb,
            spec,
            busy_until: Time::ZERO,
            counters: PortCounters::default(),
            up: true,
        });
        self.ports[b.index()].push(Port {
            peer_node: a,
            peer_port: pa,
            spec,
            busy_until: Time::ZERO,
            counters: PortCounters::default(),
            up: true,
        });
        (pa, pb)
    }

    /// Ports on `a` whose peer is `b` (parallel links yield several).
    fn ports_towards(&self, a: NodeId, b: NodeId) -> Vec<PortNo> {
        self.ports
            .get(a.index())
            .map(|ps| {
                ps.iter()
                    .enumerate()
                    .filter(|(_, p)| p.peer_node == b)
                    .map(|(i, _)| PortNo(i as u8))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Brings the `a <-> b` link administratively up or down (both
    /// directions). A downed link drops every packet offered to it.
    ///
    /// # Panics
    ///
    /// Panics if no link connects `a` and `b`.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        let fwd = self.ports_towards(a, b);
        let rev = self.ports_towards(b, a);
        assert!(
            !fwd.is_empty() && !rev.is_empty(),
            "no link between {a} and {b}"
        );
        for p in fwd {
            self.ports[a.index()][p.0 as usize].up = up;
        }
        for p in rev {
            self.ports[b.index()][p.0 as usize].up = up;
        }
    }

    /// Whether the `a -> b` direction is administratively up.
    ///
    /// # Panics
    ///
    /// Panics if no link connects `a` and `b`.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        let fwd = self.ports_towards(a, b);
        assert!(!fwd.is_empty(), "no link between {a} and {b}");
        fwd.iter().all(|p| self.ports[a.index()][p.0 as usize].up)
    }

    /// Rewrites the `a <-> b` link's spec (both directions) through `f`.
    /// Used by chaos schedules to start and end impairment bursts at run
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if no link connects `a` and `b`.
    pub fn update_link_spec(&mut self, a: NodeId, b: NodeId, f: impl Fn(LinkSpec) -> LinkSpec) {
        let fwd = self.ports_towards(a, b);
        let rev = self.ports_towards(b, a);
        assert!(
            !fwd.is_empty() && !rev.is_empty(),
            "no link between {a} and {b}"
        );
        for p in fwd {
            let port = &mut self.ports[a.index()][p.0 as usize];
            port.spec = f(port.spec);
        }
        for p in rev {
            let port = &mut self.ports[b.index()][p.0 as usize];
            port.spec = f(port.spec);
        }
    }

    /// The spec of the `a -> b` link direction.
    ///
    /// # Panics
    ///
    /// Panics if no link connects `a` and `b`.
    pub fn link_spec(&self, a: NodeId, b: NodeId) -> LinkSpec {
        let fwd = self.ports_towards(a, b);
        assert!(!fwd.is_empty(), "no link between {a} and {b}");
        self.ports[a.index()][fwd[0].0 as usize].spec
    }

    /// Number of ports on `node`.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.ports.get(node.index()).map_or(0, Vec::len)
    }

    /// The neighbour reachable through `(node, port)`.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn peer_of(&self, node: NodeId, port: PortNo) -> (NodeId, PortNo) {
        let p = &self.ports[node.index()][port.0 as usize];
        (p.peer_node, p.peer_port)
    }

    /// Counters for `(node, port)`.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn counters(&self, node: NodeId, port: PortNo) -> PortCounters {
        self.ports[node.index()][port.0 as usize].counters
    }

    /// Offers `packet` to the egress of `(node, port)` at time `now`,
    /// computing queueing/serialization/propagation and fault injection.
    pub(crate) fn transmit(
        &mut self,
        now: Time,
        rng: &mut SimRng,
        node: NodeId,
        port: PortNo,
        packet: &Packet,
    ) -> TxOutcome {
        let p = &mut self.ports[node.index()][port.0 as usize];
        if !p.up {
            p.counters.dropped_down += 1;
            return TxOutcome::Dropped;
        }
        if rng.chance(p.spec.drop_prob) {
            p.counters.dropped_fault += 1;
            return TxOutcome::Dropped;
        }
        let start = now.max(p.busy_until);
        if start - now > p.spec.max_queue {
            p.counters.dropped_overflow += 1;
            return TxOutcome::Dropped;
        }
        let ser = p.spec.serialization(packet.wire_bytes());
        p.busy_until = start + ser;
        let mut arrival = start + ser + p.spec.propagation;
        if rng.chance(p.spec.reorder_prob) {
            let extra = p.spec.reorder_extra.as_nanos();
            if extra > 0 {
                arrival += Dur::nanos(rng.uniform_u64(0..extra));
            }
            p.counters.reordered += 1;
        }
        let duplicate_at = if rng.chance(p.spec.duplicate_prob) {
            // The copy occupies the next serialization slot.
            p.busy_until += ser;
            p.counters.duplicated += 1;
            Some(arrival + ser)
        } else {
            None
        };
        let corrupt = if !packet.payload.is_empty() && rng.chance(p.spec.corrupt_prob) {
            p.counters.corrupted += 1;
            let offset = rng.index(packet.payload.len());
            let mask = 1u8 << rng.index(8);
            Some((offset, mask))
        } else {
            None
        };
        p.counters.tx_packets += 1;
        p.counters.tx_bytes += u64::from(packet.wire_bytes());
        TxOutcome::Deliver {
            at: arrival,
            node: p.peer_node,
            port: p.peer_port,
            duplicate_at,
            corrupt,
        }
    }

    /// Iterates over all `(node, port, peer)` edges (each link appears
    /// twice, once per direction).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, PortNo, NodeId)> + '_ {
        self.ports.iter().enumerate().flat_map(|(n, ports)| {
            ports
                .iter()
                .enumerate()
                .map(move |(i, p)| (NodeId(n as u32), PortNo(i as u8), p.peer_node))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;
    use bytes::Bytes;

    fn pkt(bytes: usize) -> Packet {
        Packet::udp(Addr(1), Addr(2), 1, 2, Bytes::from(vec![0u8; bytes]))
    }

    fn table() -> (PortTable, NodeId, NodeId) {
        let mut t = PortTable::new();
        let (a, b) = (NodeId(0), NodeId(1));
        t.connect(a, b, LinkSpec::ten_gbps());
        (t, a, b)
    }

    #[test]
    fn connect_allocates_symmetric_ports() {
        let (t, a, b) = table();
        assert_eq!(t.port_count(a), 1);
        assert_eq!(t.port_count(b), 1);
        assert_eq!(t.peer_of(a, PortNo(0)), (b, PortNo(0)));
        assert_eq!(t.peer_of(b, PortNo(0)), (a, PortNo(0)));
    }

    #[test]
    fn idle_port_delivers_after_serialization_and_propagation() {
        let (mut t, a, _) = table();
        let mut rng = SimRng::seed(0);
        // 58 B payload -> 100 B wire -> 80 ns serialization + 300 ns prop.
        let out = t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &pkt(58));
        match out {
            TxOutcome::Deliver { at, node, port, .. } => {
                assert_eq!(at, Time::from_nanos(380));
                assert_eq!(node, NodeId(1));
                assert_eq!(port, PortNo(0));
            }
            TxOutcome::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn busy_port_queues_back_to_back() {
        let (mut t, a, _) = table();
        let mut rng = SimRng::seed(0);
        let p = pkt(1458); // 1500 B wire -> 1200 ns serialization
        let first = t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &p);
        let second = t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &p);
        let (t1, t2) = match (first, second) {
            (TxOutcome::Deliver { at: t1, .. }, TxOutcome::Deliver { at: t2, .. }) => (t1, t2),
            other => panic!("unexpected: {other:?}"),
        };
        // Second packet waits for the first to finish serializing.
        assert_eq!(t2 - t1, Dur::nanos(1200));
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let (mut t, a, _) = table();
        let mut rng = SimRng::seed(0);
        // Shrink the queue so the second full-size packet overflows.
        t.ports[0][0].spec.max_queue = Dur::nanos(1000);
        let p = pkt(1458);
        assert!(matches!(
            t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &p),
            TxOutcome::Deliver { .. }
        ));
        // Queue delay would be 1200 ns > 1000 ns cap.
        assert!(matches!(
            t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &p),
            TxOutcome::Dropped
        ));
        assert_eq!(t.counters(a, PortNo(0)).dropped_overflow, 1);
        assert_eq!(t.counters(a, PortNo(0)).tx_packets, 1);
    }

    #[test]
    fn fault_drop_probability_one_always_drops() {
        let mut t = PortTable::new();
        let (a, b) = (NodeId(0), NodeId(1));
        t.connect(a, b, LinkSpec::ten_gbps().with_drop_prob(1.0));
        let mut rng = SimRng::seed(0);
        assert!(matches!(
            t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &pkt(10)),
            TxOutcome::Dropped
        ));
        assert_eq!(t.counters(a, PortNo(0)).dropped_fault, 1);
    }

    #[test]
    fn reordering_adds_bounded_extra_delay() {
        let mut t = PortTable::new();
        let (a, b) = (NodeId(0), NodeId(1));
        t.connect(
            a,
            b,
            LinkSpec::ten_gbps().with_reordering(1.0, Dur::micros(10)),
        );
        let mut rng = SimRng::seed(7);
        let base = Time::from_nanos(380); // from idle-port test, 100 B wire
        for _ in 0..50 {
            // Reset busy state each round so the baseline stays constant.
            t.ports[0][0].busy_until = Time::ZERO;
            match t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &pkt(58)) {
                TxOutcome::Deliver { at, .. } => {
                    assert!(at >= base && at <= base + Dur::micros(10), "{at}");
                }
                TxOutcome::Dropped => panic!("unexpected drop"),
            }
        }
        assert_eq!(t.counters(a, PortNo(0)).reordered, 50);
    }

    #[test]
    fn edges_enumerates_both_directions() {
        let (t, a, b) = table();
        let edges: Vec<_> = t.edges().collect();
        assert!(edges.contains(&(a, PortNo(0), b)));
        assert!(edges.contains(&(b, PortNo(0), a)));
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn probabilities_are_clamped_to_unit_interval() {
        let s = LinkSpec::ten_gbps()
            .with_drop_prob(1.7)
            .with_reordering(-0.3, Dur::micros(1))
            .with_duplicate_prob(42.0)
            .with_corrupt_prob(f64::NAN);
        assert_eq!(s.drop_prob, 1.0);
        assert_eq!(s.reorder_prob, 0.0);
        assert_eq!(s.duplicate_prob, 1.0);
        assert_eq!(s.corrupt_prob, 0.0);
        let t = LinkSpec::ten_gbps()
            .with_drop_prob(0.25)
            .with_duplicate_prob(0.5)
            .with_corrupt_prob(1.0);
        assert_eq!(t.drop_prob, 0.25);
        assert_eq!(t.duplicate_prob, 0.5);
        assert_eq!(t.corrupt_prob, 1.0);
    }

    #[test]
    fn duplication_delivers_a_trailing_copy() {
        let mut t = PortTable::new();
        let (a, b) = (NodeId(0), NodeId(1));
        t.connect(a, b, LinkSpec::ten_gbps().with_duplicate_prob(1.0));
        let mut rng = SimRng::seed(1);
        match t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &pkt(58)) {
            TxOutcome::Deliver {
                at, duplicate_at, ..
            } => {
                // 100 B wire -> 80 ns serialization; the copy rides one
                // slot behind.
                let dup = duplicate_at.expect("duplicate scheduled");
                assert_eq!(dup - at, Dur::nanos(80));
            }
            TxOutcome::Dropped => panic!("unexpected drop"),
        }
        assert_eq!(t.counters(a, PortNo(0)).duplicated, 1);
    }

    #[test]
    fn corruption_reports_an_in_bounds_flip() {
        let mut t = PortTable::new();
        let (a, b) = (NodeId(0), NodeId(1));
        t.connect(a, b, LinkSpec::ten_gbps().with_corrupt_prob(1.0));
        let mut rng = SimRng::seed(2);
        for _ in 0..32 {
            t.ports[0][0].busy_until = Time::ZERO;
            match t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &pkt(20)) {
                TxOutcome::Deliver { corrupt, .. } => {
                    let (offset, mask) = corrupt.expect("corruption chosen");
                    assert!(offset < 20);
                    assert!(mask.count_ones() == 1);
                }
                TxOutcome::Dropped => panic!("unexpected drop"),
            }
        }
        assert_eq!(t.counters(a, PortNo(0)).corrupted, 32);
        // Empty payloads cannot be corrupted.
        t.ports[0][0].busy_until = Time::ZERO;
        match t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &pkt(0)) {
            TxOutcome::Deliver { corrupt, .. } => assert!(corrupt.is_none()),
            TxOutcome::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn downed_link_drops_both_directions_until_restored() {
        let (mut t, a, b) = table();
        let mut rng = SimRng::seed(3);
        assert!(t.link_is_up(a, b));
        t.set_link_up(a, b, false);
        assert!(!t.link_is_up(a, b));
        assert!(!t.link_is_up(b, a));
        assert!(matches!(
            t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &pkt(10)),
            TxOutcome::Dropped
        ));
        assert!(matches!(
            t.transmit(Time::ZERO, &mut rng, b, PortNo(0), &pkt(10)),
            TxOutcome::Dropped
        ));
        assert_eq!(t.counters(a, PortNo(0)).dropped_down, 1);
        assert_eq!(t.counters(b, PortNo(0)).dropped_down, 1);
        t.set_link_up(a, b, true);
        assert!(matches!(
            t.transmit(Time::ZERO, &mut rng, a, PortNo(0), &pkt(10)),
            TxOutcome::Deliver { .. }
        ));
    }

    #[test]
    fn update_link_spec_rewrites_both_directions() {
        let (mut t, a, b) = table();
        t.update_link_spec(a, b, |s| s.with_drop_prob(0.5));
        assert_eq!(t.link_spec(a, b).drop_prob, 0.5);
        assert_eq!(t.link_spec(b, a).drop_prob, 0.5);
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn set_link_up_panics_without_a_link() {
        let mut t = PortTable::new();
        t.ensure_node(NodeId(0));
        t.ensure_node(NodeId(1));
        t.set_link_up(NodeId(0), NodeId(1), false);
    }
}
