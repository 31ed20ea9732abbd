//! Host-time spans recorded from the benchmark's side of the `Node`
//! boundary.
//!
//! [`Spanned`] wraps any node and times each `on_msg` call. Handlers never
//! call each other (they only schedule events), so a handler's span has no
//! children and its duration is its self time. Whatever the traced wall
//! time holds beyond the node spans is the runtime: event pop, dispatch
//! and the deferred `PortTx` transmissions the `World` handles itself.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use pmnet_net::{Addr, Ctx, Msg, Node, PortNo};

/// The node kinds a single-switch world is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// `ClientLib` or `OpenLoopClient`.
    Client,
    /// `PmnetDevice`.
    Device,
    /// `ServerLib`.
    Server,
    /// The merge `Switch`.
    Switch,
}

impl NodeKind {
    /// Every kind, in the order the metric tables list them.
    pub const ALL: [NodeKind; 4] = [
        NodeKind::Client,
        NodeKind::Device,
        NodeKind::Server,
        NodeKind::Switch,
    ];

    /// Lower-case name used in metric names and the trace file.
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::Client => "client",
            NodeKind::Device => "device",
            NodeKind::Server => "server",
            NodeKind::Switch => "switch",
        }
    }
}

/// Names of the `Msg` variants a node can receive (`PortTx` never
/// reaches one), indexed by [`msg_slot`].
pub const MSG_KINDS: [&str; 6] = ["packet", "timer", "inject", "start", "crash", "restore"];

fn msg_slot(msg: &Msg) -> usize {
    match msg {
        Msg::Packet { .. } => 0,
        Msg::Timer(_) => 1,
        Msg::Inject(_) => 2,
        Msg::Start => 3,
        Msg::Crash => 4,
        Msg::Restore => 5,
        // Runtime-internal; `World::dispatch` consumes it before any node.
        Msg::PortTx { .. } => unreachable!("PortTx is never delivered to a node"),
    }
}

/// One accumulator cell: how many handler calls, and their summed time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCell {
    /// Handler invocations.
    pub events: u64,
    /// Host nanoseconds spent inside them.
    pub ns: u64,
}

/// Accumulators keyed (node kind × `Msg` kind), shared by every
/// [`Spanned`] node of one world.
#[derive(Debug, Clone, Default)]
pub struct SpanTable(Rc<RefCell<[[SpanCell; MSG_KINDS.len()]; NodeKind::ALL.len()]>>);

impl SpanTable {
    /// The cell for one (node kind, message kind) pair.
    pub fn cell(&self, kind: NodeKind, msg: usize) -> SpanCell {
        self.0.borrow()[kind as usize][msg]
    }

    /// Events and nanoseconds summed over the message kinds of `kind`.
    pub fn total(&self, kind: NodeKind) -> SpanCell {
        self.0.borrow()[kind as usize]
            .iter()
            .fold(SpanCell::default(), |acc, c| SpanCell {
                events: acc.events + c.events,
                ns: acc.ns + c.ns,
            })
    }
}

/// A node wrapper that times `on_msg` into a [`SpanTable`] and forwards
/// everything else.
#[derive(Debug)]
pub struct Spanned<N> {
    /// The wrapped node (read its counters through this after the run).
    pub inner: N,
    kind: NodeKind,
    table: SpanTable,
}

impl<N: Node> Spanned<N> {
    /// Wraps `inner`, accounting it under `kind` in `table`.
    pub fn new(inner: N, kind: NodeKind, table: &SpanTable) -> Spanned<N> {
        Spanned {
            inner,
            kind,
            table: table.clone(),
        }
    }
}

impl<N: Node> Node for Spanned<N> {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let slot = msg_slot(&msg);
        let t0 = Instant::now();
        self.inner.on_msg(msg, ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        let cell = &mut self.table.0.borrow_mut()[self.kind as usize][slot];
        cell.events += 1;
        cell.ns += ns;
    }

    fn addr(&self) -> Option<Addr> {
        self.inner.addr()
    }

    fn install_route(&mut self, dst: Addr, port: PortNo) {
        self.inner.install_route(dst, port);
    }
}
