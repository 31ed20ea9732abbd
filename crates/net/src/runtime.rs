//! The simulation runtime: message schema, the [`Node`] behaviour trait,
//! the event-dispatch [`Ctx`] handed to nodes, and the [`World`] that owns
//! everything and drives the event loop.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

use pmnet_sim::hash::FixedMap;
use pmnet_sim::{Dur, Engine, EventId, NodeId, SimRng, Time};

use bytes::Bytes;

use crate::port::TxOutcome;
use crate::{Addr, LinkSpec, Packet, PortNo, PortTable};

/// Turns a [`TxOutcome`] into scheduled deliveries, applying corruption and
/// duplication fault effects chosen by the link model.
fn schedule_delivery(engine: &mut Engine<Msg>, outcome: TxOutcome, packet: Packet) {
    match outcome {
        TxOutcome::Deliver {
            at,
            node,
            port,
            duplicate_at,
            corrupt,
        } => {
            let delivered = match corrupt {
                Some((offset, mask)) => {
                    let mut bytes = packet.payload.to_vec();
                    bytes[offset] ^= mask;
                    let mut corrupted = packet;
                    corrupted.payload = Bytes::from(bytes);
                    corrupted
                }
                None => packet,
            };
            if let Some(dup_at) = duplicate_at {
                engine.schedule(
                    dup_at,
                    node,
                    Msg::Packet {
                        port,
                        packet: delivered.clone(),
                    },
                );
            }
            engine.schedule(
                at,
                node,
                Msg::Packet {
                    port,
                    packet: delivered,
                },
            );
        }
        TxOutcome::Dropped => {}
    }
}

/// A timer message a node schedules to itself (or to a peer component).
///
/// `kind` is interpreted by the receiving node; `a`/`b` carry payload such
/// as sequence numbers or request ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// Node-defined discriminator.
    pub kind: u32,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl Timer {
    /// A timer with no payload.
    pub fn of_kind(kind: u32) -> Timer {
        Timer { kind, a: 0, b: 0 }
    }
}

/// Messages delivered to nodes by the runtime.
#[derive(Debug, Clone)]
pub enum Msg {
    /// A packet arriving on an ingress port.
    Packet {
        /// The ingress port it arrived on.
        port: PortNo,
        /// The packet itself.
        packet: Packet,
    },
    /// A timer previously scheduled with [`Ctx::timer_in`].
    Timer(Timer),
    /// An externally injected application-level send request
    /// (see [`World::inject`]).
    Inject(Packet),
    /// Kick-off signal scheduled by [`World::start_node`].
    Start,
    /// Power/crash failure: the node must discard volatile state.
    Crash,
    /// Power restored: the node may begin recovery.
    Restore,
    /// Internal: delayed port transmission (handled by the runtime, never
    /// delivered to nodes).
    #[doc(hidden)]
    PortTx {
        /// Egress port.
        port: PortNo,
        /// Packet to transmit.
        packet: Packet,
    },
}

impl Msg {
    /// Row of [`EventCounts::dispatched`] this message is counted in.
    fn kind(&self) -> usize {
        match self {
            Msg::Packet { .. } => EventCounts::PACKET,
            Msg::Timer(_) => EventCounts::TIMER,
            Msg::Inject(_) => EventCounts::INJECT,
            Msg::Start => EventCounts::START,
            Msg::Crash => EventCounts::CRASH,
            Msg::Restore => EventCounts::RESTORE,
            Msg::PortTx { .. } => EventCounts::PORT_TX,
        }
    }
}

/// What the event loop has done so far: events dispatched per [`Msg`]
/// kind, and events cancelled before they were due.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Events dispatched, one row per [`Msg`] kind, indexed by the
    /// constants below. The rows sum to the engine's delivered count.
    pub dispatched: [u64; 7],
    /// Events removed by [`Ctx::cancel`], never dispatched.
    pub cancelled: u64,
}

impl EventCounts {
    /// Row of [`Msg::Packet`] deliveries (wire arrivals and stack re-posts).
    pub const PACKET: usize = 0;
    /// Row of [`Msg::Timer`] fires.
    pub const TIMER: usize = 1;
    /// Row of [`Msg::Inject`] deliveries.
    pub const INJECT: usize = 2;
    /// Row of [`Msg::Start`] deliveries.
    pub const START: usize = 3;
    /// Row of [`Msg::Crash`] deliveries.
    pub const CRASH: usize = 4;
    /// Row of [`Msg::Restore`] deliveries.
    pub const RESTORE: usize = 5;
    /// Row of the deferred transmissions ([`Ctx::send_after`]) the runtime
    /// carried out itself; no node sees these.
    pub const PORT_TX: usize = 6;
}

/// Behaviour of a simulated component (host, switch, PMNet device, …).
///
/// Implementations receive one [`Msg`] at a time with exclusive access to
/// their own state and a [`Ctx`] for side effects; they never touch other
/// nodes directly.
pub trait Node {
    /// Handles one message.
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>);

    /// The host address of this node, if it is an addressable endpoint.
    /// Used by [`World::populate_switch_routes`] to build forwarding tables.
    fn addr(&self) -> Option<Addr> {
        None
    }

    /// Installs a route `dst -> port`. Forwarding nodes (switches, PMNet
    /// devices) store it; endpoints may ignore it.
    fn install_route(&mut self, _dst: Addr, _port: PortNo) {}
}

/// Object-safe wrapper adding downcast support to [`Node`].
///
/// Blanket-implemented for every `Node + 'static`; users only implement
/// [`Node`].
pub trait AnyNode: Node {
    #[doc(hidden)]
    fn as_any(&self) -> &dyn Any;
    #[doc(hidden)]
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Node + 'static> AnyNode for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The side-effect interface handed to a node while it handles a message:
/// clock, randomness, timers, and packet transmission.
pub struct Ctx<'a> {
    now: Time,
    self_id: NodeId,
    engine: &'a mut Engine<Msg>,
    ports: &'a mut PortTable,
    rng: &'a mut SimRng,
}

impl fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .finish()
    }
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the node handling the current message.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The shared random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Number of ports attached to this node.
    pub fn port_count(&self) -> usize {
        self.ports.port_count(self.self_id)
    }

    /// The neighbour on the other end of `port`.
    pub fn peer_of(&self, port: PortNo) -> NodeId {
        self.ports.peer_of(self.self_id, port).0
    }

    /// Transmits `packet` out of `port` now. Queueing, serialization,
    /// propagation and fault injection are applied by the link model; the
    /// packet (if not dropped) is delivered to the peer as
    /// [`Msg::Packet`].
    pub fn send(&mut self, port: PortNo, packet: Packet) {
        let outcome = self
            .ports
            .transmit(self.now, self.rng, self.self_id, port, &packet);
        schedule_delivery(self.engine, outcome, packet);
    }

    /// Transmits `packet` out of `port` after an internal processing delay
    /// of `after` (e.g. a switch pipeline or a host stack traversal). Port
    /// queueing is evaluated at transmission time, not now.
    pub fn send_after(&mut self, after: Dur, port: PortNo, packet: Packet) {
        if after.is_zero() {
            self.send(port, packet);
        } else {
            self.engine
                .schedule_in(after, self.self_id, Msg::PortTx { port, packet });
        }
    }

    /// Schedules a [`Msg::Timer`] to this node after `delay`. The id lets
    /// the node [`cancel`](Ctx::cancel) it; a node that lets its timers
    /// fire can drop it.
    pub fn timer_in(&mut self, delay: Dur, timer: Timer) -> EventId {
        self.engine
            .schedule_in(delay, self.self_id, Msg::Timer(timer))
    }

    /// Cancels a timer this node armed, so that it never fires. Returns
    /// `false` (and does nothing) if it already fired or was cancelled.
    /// Whoever ends the exchange a timer guards cancels it, and only a
    /// timer whose handler would by then be a no-op: removing it must not
    /// change what any other event does (DESIGN.md §18).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.engine.cancel(id)
    }

    /// Schedules an arbitrary message to another node after `delay`.
    /// Intended for co-located components (e.g. a host's app poking its
    /// logger process), not as a network bypass.
    pub fn message_in(&mut self, delay: Dur, dest: NodeId, msg: Msg) {
        self.engine.schedule_in(delay, dest, msg);
    }
}

/// The simulated world: nodes, links, clock and randomness.
///
/// See the [crate-level documentation](crate) for a usage example.
pub struct World {
    nodes: Vec<Box<dyn AnyNode>>,
    engine: Engine<Msg>,
    ports: PortTable,
    rng: SimRng,
    /// Events dispatched, by [`Msg::kind`].
    dispatched: [u64; 7],
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.nodes.len())
            .field("engine", &self.engine)
            .finish()
    }
}

impl World {
    /// Creates an empty world with a deterministic seed.
    pub fn new(seed: u64) -> World {
        World {
            nodes: Vec::new(),
            engine: Engine::new(),
            ports: PortTable::new(),
            rng: SimRng::seed(seed),
            dispatched: [0; 7],
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn AnyNode>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(node);
        self.ports.ensure_node(id);
        id
    }

    /// Connects two nodes with a symmetric link.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortNo, PortNo) {
        self.ports.connect(a, b, spec)
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// Number of events still pending in the future-event list.
    pub fn pending_events(&self) -> usize {
        self.engine.pending()
    }

    /// Events dispatched so far per [`Msg`] kind — the runtime's own
    /// deferred transmissions included — and events cancelled.
    pub fn event_counts(&self) -> EventCounts {
        EventCounts {
            dispatched: self.dispatched,
            cancelled: self.engine.cancelled(),
        }
    }

    /// The port table (for reading counters in tests and benches).
    pub fn ports(&self) -> &PortTable {
        &self.ports
    }

    /// The world RNG (e.g. to fork per-component generators during setup).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules [`Msg::Start`] to `node` at the current time.
    pub fn start_node(&mut self, node: NodeId) {
        self.engine.schedule(self.engine.now(), node, Msg::Start);
    }

    /// Injects an application-level send request into `node` now.
    pub fn inject(&mut self, node: NodeId, packet: Packet) {
        self.engine
            .schedule(self.engine.now(), node, Msg::Inject(packet));
    }

    /// Schedules an arbitrary message.
    pub fn schedule(&mut self, at: Time, node: NodeId, msg: Msg) {
        self.engine.schedule(at, node, msg);
    }

    /// Schedules a crash at `at` and (optionally) a restore at
    /// `at + downtime`.
    pub fn schedule_crash(&mut self, node: NodeId, at: Time, downtime: Option<Dur>) {
        self.engine.schedule(at, node, Msg::Crash);
        if let Some(d) = downtime {
            self.engine.schedule(at + d, node, Msg::Restore);
        }
    }

    /// Brings the `a <-> b` link administratively up or down (both
    /// directions), effective immediately. A downed link drops every packet
    /// offered to it.
    ///
    /// # Panics
    ///
    /// Panics if no link connects `a` and `b`.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        self.ports.set_link_up(a, b, up);
    }

    /// Rewrites the `a <-> b` link's spec (both directions), effective
    /// immediately. Chaos schedules use this to start and end impairment
    /// bursts (drop / duplicate / reorder / corrupt probabilities) at run
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if no link connects `a` and `b`.
    pub fn update_link_spec(&mut self, a: NodeId, b: NodeId, f: impl Fn(LinkSpec) -> LinkSpec) {
        self.ports.update_link_spec(a, b, f);
    }

    /// Hands one popped event to its node (or, for [`Msg::PortTx`], to the
    /// port table). Inlined into the loops with [`Engine::pop_until`], so
    /// the message is moved once, from its cell into the node's call.
    #[inline(always)]
    fn dispatch(&mut self, at: Time, dest: NodeId, msg: Msg) {
        self.dispatched[msg.kind()] += 1;
        // PortTx is a runtime-internal deferred transmission.
        if let Msg::PortTx { port, packet } = msg {
            let outcome = self.ports.transmit(at, &mut self.rng, dest, port, &packet);
            schedule_delivery(&mut self.engine, outcome, packet);
            return;
        }
        let node = &mut self.nodes[dest.index()];
        let mut ctx = Ctx {
            now: at,
            self_id: dest,
            engine: &mut self.engine,
            ports: &mut self.ports,
            rng: &mut self.rng,
        };
        node.on_msg(msg, &mut ctx);
    }

    /// Runs until the event list is drained or `deadline` is passed.
    /// Events scheduled exactly at `deadline` are processed; the clock
    /// stops at the last event dispatched, not at `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        while let Some((at, dest, msg)) = self.engine.pop_until(deadline) {
            self.dispatch(at, dest, msg);
        }
    }

    /// Runs for `d` simulated time from now.
    pub fn run_for(&mut self, d: Dur) {
        let deadline = self.engine.now() + d;
        self.run_until(deadline);
    }

    /// Runs until the event list is completely drained.
    ///
    /// # Panics
    ///
    /// Panics after `max_events` deliveries as a runaway-simulation guard.
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        let start = self.engine.delivered();
        while let Some((at, dest, msg)) = self.engine.pop() {
            self.dispatch(at, dest, msg);
            assert!(
                self.engine.delivered() - start <= max_events,
                "simulation exceeded {max_events} events without quiescing"
            );
        }
    }

    /// Borrows a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T`.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id.index()]
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutably borrows a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T`.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.index()]
            .as_any_mut()
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Computes shortest-path routes from every node to every addressable
    /// endpoint and installs them via [`Node::install_route`].
    ///
    /// Call after the topology is fully connected.
    pub fn populate_switch_routes(&mut self) {
        // Gather endpoint addresses.
        let addrs: Vec<(NodeId, Addr)> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.addr().map(|a| (NodeId(i as u32), a)))
            .collect();
        // Adjacency: node -> [(port, peer)].
        let mut adj: FixedMap<NodeId, Vec<(PortNo, NodeId)>> = FixedMap::default();
        for (node, port, peer) in self.ports.edges() {
            adj.entry(node).or_default().push((port, peer));
        }
        // BFS from each node; first hop toward each endpoint gives the port.
        for src_idx in 0..self.nodes.len() {
            let src = NodeId(src_idx as u32);
            // BFS recording the first-hop port used to reach each node.
            let mut first_hop: FixedMap<NodeId, PortNo> = FixedMap::default();
            let mut visited: FixedMap<NodeId, ()> = FixedMap::default();
            visited.insert(src, ());
            let mut q: VecDeque<NodeId> = VecDeque::new();
            if let Some(neigh) = adj.get(&src) {
                for &(port, peer) in neigh {
                    if visited.insert(peer, ()).is_none() {
                        first_hop.insert(peer, port);
                        q.push_back(peer);
                    }
                }
            }
            while let Some(n) = q.pop_front() {
                let hop = first_hop[&n];
                if let Some(neigh) = adj.get(&n) {
                    for &(_, peer) in neigh {
                        if visited.insert(peer, ()).is_none() {
                            first_hop.insert(peer, hop);
                            q.push_back(peer);
                        }
                    }
                }
            }
            for &(node, addr) in &addrs {
                if node == src {
                    continue;
                }
                if let Some(&port) = first_hop.get(&node) {
                    self.nodes[src_idx].install_route(addr, port);
                }
            }
        }
    }
}

/// A trivial endpoint that counts received packets and echoes them back.
/// Used in examples and substrate tests.
#[derive(Debug)]
pub struct EchoHost {
    addr: Addr,
    received: u64,
    echo: bool,
}

impl EchoHost {
    /// The UDP port on which an [`EchoHost`] echoes requests. Replies go
    /// back to the sender's source port, so echoes are never re-echoed.
    pub const ECHO_PORT: u16 = 7;

    /// Creates an echoing host with the given address.
    pub fn new(addr: Addr) -> EchoHost {
        EchoHost {
            addr,
            received: 0,
            echo: true,
        }
    }

    /// Creates a host that only counts (no echo).
    pub fn sink(addr: Addr) -> EchoHost {
        EchoHost {
            addr,
            received: 0,
            echo: false,
        }
    }

    /// Packets received so far.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Node for EchoHost {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::Packet { port, packet } => {
                self.received += 1;
                if self.echo && packet.dst == self.addr && packet.dst_port == Self::ECHO_PORT {
                    let reply = packet.reply_with(packet.payload.clone());
                    ctx.send(port, reply);
                }
            }
            Msg::Inject(packet) => {
                // Single-homed host: transmit on port 0.
                ctx.send(PortNo(0), packet);
            }
            _ => {}
        }
    }

    fn addr(&self) -> Option<Addr> {
        Some(self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Switch;
    use bytes::Bytes;

    fn two_hosts_via_switch() -> (World, NodeId, NodeId, NodeId) {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(EchoHost::new(Addr(1))));
        let b = w.add_node(Box::new(EchoHost::new(Addr(2))));
        let s = w.add_node(Box::new(Switch::new("tor")));
        w.connect(a, s, LinkSpec::ten_gbps());
        w.connect(b, s, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        (w, a, b, s)
    }

    #[test]
    fn packet_crosses_switch_and_gets_echoed() {
        let (mut w, a, b, _) = two_hosts_via_switch();
        let p = Packet::udp(
            Addr(1),
            Addr(2),
            5,
            EchoHost::ECHO_PORT,
            Bytes::from_static(b"hi"),
        );
        w.inject(a, p);
        w.run_for(Dur::millis(1));
        assert_eq!(w.node::<EchoHost>(b).received(), 1);
        // The echo came back to A.
        assert_eq!(w.node::<EchoHost>(a).received(), 1);
    }

    #[test]
    fn sink_does_not_echo() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(EchoHost::new(Addr(1))));
        let b = w.add_node(Box::new(EchoHost::sink(Addr(2))));
        w.connect(a, b, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        w.inject(a, Packet::udp(Addr(1), Addr(2), 5, 6, Bytes::new()));
        w.run_to_quiescence(1000);
        assert_eq!(w.node::<EchoHost>(b).received(), 1);
        assert_eq!(w.node::<EchoHost>(a).received(), 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut w, a, b, _) = two_hosts_via_switch();
        let p = Packet::udp(Addr(1), Addr(2), 5, EchoHost::ECHO_PORT, Bytes::new());
        w.inject(a, p);
        // Deadline shorter than one link traversal: nothing delivered to B.
        w.run_until(Time::from_nanos(10));
        assert_eq!(w.node::<EchoHost>(b).received(), 0);
        w.run_for(Dur::millis(1));
        assert_eq!(w.node::<EchoHost>(b).received(), 1);
    }

    #[test]
    fn event_counts_name_every_dispatch_including_the_runtimes_own() {
        let (mut w, a, b, _) = two_hosts_via_switch();
        let p = Packet::udp(Addr(1), Addr(2), 5, EchoHost::ECHO_PORT, Bytes::new());
        w.inject(a, p);
        w.run_to_quiescence(100);
        // Out and back: four wire arrivals (switch, B, switch, A) and the
        // switch's two deferred transmissions, which no node ever sees.
        let mut expect = EventCounts::default();
        expect.dispatched[EventCounts::INJECT] = 1;
        expect.dispatched[EventCounts::PACKET] = 4;
        expect.dispatched[EventCounts::PORT_TX] = 2;
        assert_eq!(w.event_counts(), expect);
        assert_eq!(w.engine.delivered(), 7);
        assert_eq!(w.node::<EchoHost>(b).received(), 1);
    }

    /// Arms a short and a long timer on start; the short one cancels the
    /// long one, then tries again.
    #[derive(Debug, Default)]
    struct Canceller {
        long: Option<EventId>,
        cancels: Vec<bool>,
    }

    impl Node for Canceller {
        fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            match msg {
                Msg::Start => {
                    ctx.timer_in(Dur::nanos(100), Timer::of_kind(1));
                    self.long = Some(ctx.timer_in(Dur::millis(5), Timer::of_kind(2)));
                }
                Msg::Timer(Timer { kind: 1, .. }) => {
                    let long = self.long.expect("armed on start");
                    self.cancels = vec![ctx.cancel(long), ctx.cancel(long)];
                }
                other => panic!("a cancelled timer fired: {other:?}"),
            }
        }
    }

    #[test]
    fn a_cancelled_timer_never_fires_and_run_until_keeps_the_clock_honest() {
        let mut w = World::new(1);
        let n = w.add_node(Box::new(Canceller::default()));
        w.start_node(n);
        // An event due exactly at the deadline is processed...
        w.run_until(Time::from_nanos(100));
        assert_eq!(w.node::<Canceller>(n).cancels, [true, false]);
        assert_eq!(w.pending_events(), 0);
        // ...and a deadline with nothing before it does not move the
        // clock past the last event dispatched.
        w.run_until(Time::from_nanos(10_000_000));
        assert_eq!(w.now(), Time::from_nanos(100));
        let mut expect = EventCounts {
            cancelled: 1,
            ..EventCounts::default()
        };
        expect.dispatched[EventCounts::START] = 1;
        expect.dispatched[EventCounts::TIMER] = 1;
        assert_eq!(w.event_counts(), expect);
    }

    /// Every queued event carries one `Msg`, moved out of its engine cell
    /// at dispatch: a 16-byte `Bytes` keeps it at 40 bytes.
    #[test]
    fn packets_and_messages_stay_small() {
        assert_eq!(std::mem::size_of::<Packet>(), 32);
        assert_eq!(std::mem::size_of::<Msg>(), 40);
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn wrong_downcast_panics() {
        let (w, a, _, _) = two_hosts_via_switch();
        let _: &Switch = w.node(a);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (mut w, a, _, _) = two_hosts_via_switch();
            for i in 0..50 {
                w.inject(
                    a,
                    Packet::udp(
                        Addr(1),
                        Addr(2),
                        5,
                        EchoHost::ECHO_PORT,
                        Bytes::from(vec![0u8; i * 10]),
                    ),
                );
            }
            w.run_to_quiescence(100_000);
            w.now()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quiescence_guard_trips_on_runaway() {
        // Two echo hosts connected directly ping-pong forever.
        let mut w = World::new(1);
        let a = w.add_node(Box::new(EchoHost::new(Addr(1))));
        let b = w.add_node(Box::new(EchoHost::new(Addr(2))));
        w.connect(a, b, LinkSpec::ten_gbps());
        // Echo to the echo port of the peer, whose reply is itself sent to
        // A's echo port, producing an infinite ping-pong.
        w.inject(
            a,
            Packet::udp(
                Addr(1),
                Addr(2),
                EchoHost::ECHO_PORT,
                EchoHost::ECHO_PORT,
                Bytes::new(),
            ),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run_to_quiescence(100);
        }));
        assert!(result.is_err());
    }
}
