//! Causal span tracing: per-operation event accumulation and latency
//! attribution.
//!
//! Every component on an operation's path emits [`OpEvent`]s keyed by
//! `(client, session, seq)` as the op's fragments cross it. When the
//! client completes the op it reports an [`OpCompletion`] naming the
//! *evidence* that completed it (device ack, server ack, cache response,
//! ...); the collector then walks the event chain of the completing
//! attempt **backwards** — completion ← ack arrival ← ack emission ←
//! device/server receipt ← wire send — and attributes each contiguous
//! segment to a [`Phase`]. Retransmitted attempts contribute only their
//! waiting time ([`Phase::RetryWait`]): the chain follows the attempt
//! whose ack completed the op, so retries are never double-counted.
//!
//! The attribution is *total* by construction: phases always sum to the
//! measured end-to-end latency. Anything the chain cannot explain (a
//! broken chain after a crash, client-side-log completions) lands in
//! [`Phase::Unattributed`] rather than being silently dropped.

use pmnet_net::Addr;
use pmnet_sim::hash::FixedMap;
use pmnet_sim::{Dur, Time};

/// Key of one in-flight fragment: `(client, session, fragment seq)`.
pub type OpKey = (Addr, u16, u32);

/// What kind of acknowledgement a client received on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckKind {
    /// A PMNet device ack (`PmnetAck`) from an in-network device.
    Device(u8),
    /// A `PmnetAck` from a peer client logger (client-side logging).
    Peer(u8),
    /// The server's post-processing ack (`ServerAck`).
    Server,
    /// An application-level reply (`AppReply`, bypass reads).
    Reply,
    /// A device read-cache response (`CacheResp`).
    Cache,
}

/// One telemetry event on an operation's path. All timestamps are exact
/// simulation times; events stamped in the future (`wire_at`, ack
/// emissions) reuse delay values the component had already computed, so
/// recording never perturbs the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpEvent {
    /// The client pushed this fragment into its TX stack at `tx_start`;
    /// the last bit leaves the NIC at `wire_at`.
    ClientSend {
        /// Retransmission attempt (0 = first transmission).
        attempt: u32,
        /// When the client started the TX stack traversal.
        tx_start: Time,
        /// When the fragment enters the wire (already-computed stack +
        /// serialization delay applied).
        wire_at: Time,
    },
    /// An acknowledgement for this fragment arrived at the client NIC
    /// (before the RX stack traversal).
    ClientRecv {
        /// Which kind of ack arrived.
        kind: AckKind,
        /// Wire arrival time.
        at: Time,
    },
    /// A PMNet device received the fragment.
    DeviceRecv {
        /// Device id within the path.
        device: u8,
        /// Arrival time at the device.
        at: Time,
    },
    /// A PMNet device finished persisting and its ack leaves the egress
    /// pipeline at `at`.
    DeviceAckSend {
        /// Device id within the path.
        device: u8,
        /// Wire-exit time of the ack.
        at: Time,
    },
    /// A device read-cache hit; the response leaves the device at `at`.
    DeviceCacheResp {
        /// Device id within the path.
        device: u8,
        /// Wire-exit time of the response.
        at: Time,
    },
    /// A PMNet device staged the fragment behind its doorbell window
    /// (batched mode): the entry is admitted but its PM write waits for
    /// the window's single flush.
    DeviceBatchStage {
        /// Device id within the path.
        device: u8,
        /// Staging time.
        at: Time,
    },
    /// The doorbell rang: the device flushed the window holding this
    /// fragment into one PM write. The span between stage and flush is
    /// attributed to [`Phase::BatchWait`].
    DeviceBatchFlush {
        /// Device id within the path.
        device: u8,
        /// Flush time.
        at: Time,
    },
    /// The fragment arrived at the server NIC (before the kernel/user RX
    /// stack).
    ServerRecv {
        /// Wire arrival time.
        at: Time,
    },
    /// The server's handler was reached (RX stack traversed, fragment
    /// reassembled/validated; service about to be queued).
    ServerApply {
        /// Post-stack delivery time.
        at: Time,
    },
    /// The server's ack (or reply) for this fragment leaves its TX stack
    /// at `at`.
    ServerSend {
        /// Wire-exit time of the ack/reply.
        at: Time,
    },
}

impl OpEvent {
    /// The instant at which this event is considered to happen (for
    /// flight-recorder ordering the *record* time is used instead; this
    /// is the semantic stamp, which may lie in the near future for
    /// emission events).
    pub fn at(&self) -> Time {
        match *self {
            OpEvent::ClientSend { wire_at, .. } => wire_at,
            OpEvent::ClientRecv { at, .. }
            | OpEvent::DeviceRecv { at, .. }
            | OpEvent::DeviceAckSend { at, .. }
            | OpEvent::DeviceCacheResp { at, .. }
            | OpEvent::DeviceBatchStage { at, .. }
            | OpEvent::DeviceBatchFlush { at, .. }
            | OpEvent::ServerRecv { at }
            | OpEvent::ServerApply { at }
            | OpEvent::ServerSend { at } => at,
        }
    }
}

/// The evidence that completed an operation at the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// Enough PMNet device acks: `device` is the one that tipped the
    /// count.
    DeviceAck {
        /// Device whose ack completed the op.
        device: u8,
    },
    /// The server's ack completed the op (baseline / TCP designs).
    ServerAck,
    /// An application reply completed a bypass read served by the server.
    AppReply,
    /// A device cache response completed a bypass read.
    CacheResp,
    /// Client-side logging: local persist and/or peer acks.
    LocalLog,
}

/// One operation's phase on the critical path, in path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Time between issue and the TX start of the *completing* attempt
    /// (zero unless the op was retransmitted).
    RetryWait,
    /// Client TX stack + NIC serialization of the completing attempt.
    ClientTx,
    /// Outbound wire + switching time to the acking hop.
    WireOut,
    /// Device MAT pipeline + PM persist (or cache lookup) up to the
    /// ack's wire exit.
    Device,
    /// Time the fragment sat staged behind the device's doorbell window
    /// waiting for the batch flush (zero at a window of one).
    BatchWait,
    /// Server kernel + user RX stack traversal.
    ServerStack,
    /// Server handler service time (incl. worker queueing and TX stack).
    Handler,
    /// Return wire + switching time of the ack.
    WireBack,
    /// Client RX stack traversal and completion processing.
    ClientRx,
    /// Configured application overhead added outside the network path.
    AppOverhead,
    /// Latency the event chain could not explain (broken chains, local
    /// log completions). Keeps phase sums equal to measured latency.
    Unattributed,
}

impl Phase {
    /// Stable lower-case name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            Phase::RetryWait => "retry_wait",
            Phase::ClientTx => "client_tx",
            Phase::WireOut => "wire_out",
            Phase::Device => "device",
            Phase::BatchWait => "batch_wait",
            Phase::ServerStack => "server_stack",
            Phase::Handler => "handler",
            Phase::WireBack => "wire_back",
            Phase::ClientRx => "client_rx",
            Phase::AppOverhead => "app_overhead",
            Phase::Unattributed => "unattributed",
        }
    }

    /// The registry histogram name for this phase (`"phase.{name}"`),
    /// precomputed so per-completion recording allocates nothing.
    pub fn metric_name(self) -> &'static str {
        match self {
            Phase::RetryWait => "phase.retry_wait",
            Phase::ClientTx => "phase.client_tx",
            Phase::WireOut => "phase.wire_out",
            Phase::Device => "phase.device",
            Phase::BatchWait => "phase.batch_wait",
            Phase::ServerStack => "phase.server_stack",
            Phase::Handler => "phase.handler",
            Phase::WireBack => "phase.wire_back",
            Phase::ClientRx => "phase.client_rx",
            Phase::AppOverhead => "phase.app_overhead",
            Phase::Unattributed => "phase.unattributed",
        }
    }

    /// Every phase, in path order.
    pub const ALL: [Phase; 11] = [
        Phase::RetryWait,
        Phase::ClientTx,
        Phase::WireOut,
        Phase::Device,
        Phase::BatchWait,
        Phase::ServerStack,
        Phase::Handler,
        Phase::WireBack,
        Phase::ClientRx,
        Phase::AppOverhead,
        Phase::Unattributed,
    ];
}

/// The kind of operation, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A durable update.
    Update,
    /// A read (bypass request).
    Read,
}

impl OpKind {
    /// Stable lower-case name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Update => "update",
            OpKind::Read => "read",
        }
    }

    /// The registry histogram name for this kind's end-to-end latency
    /// (`"op.{name}.latency"`), precomputed so per-completion recording
    /// allocates nothing.
    pub fn latency_metric(self) -> &'static str {
        match self {
            OpKind::Update => "op.update.latency",
            OpKind::Read => "op.read.latency",
        }
    }
}

/// Everything the client knows when an operation completes.
#[derive(Debug, Clone, Copy)]
pub struct OpCompletion {
    /// Issuing client.
    pub client: Addr,
    /// Session the completing fragment belonged to.
    pub session: u16,
    /// Fragment whose acknowledgement completed the op.
    pub completing_seq: u32,
    /// Inclusive fragment seq range of the op, for event-store cleanup —
    /// fragment seqs are assigned contiguously at issue, so a range
    /// names them all without a completion-path allocation.
    pub frag_range: (u32, u32),
    /// Update or read.
    pub kind: OpKind,
    /// When the op was issued.
    pub issued_at: Time,
    /// When the client completed it (post-RX-stack).
    pub completed_at: Time,
    /// Reported end-to-end latency (includes configured app overhead).
    pub latency: Dur,
    /// Retransmission attempts (0 = completed on first transmission).
    pub retries: u32,
    /// What completed the op.
    pub evidence: Evidence,
}

/// A fully attributed per-operation trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Issuing client.
    pub client: Addr,
    /// Session of the completing fragment.
    pub session: u16,
    /// Completing fragment seq.
    pub seq: u32,
    /// Update or read.
    pub kind: OpKind,
    /// Issue time.
    pub issued_at: Time,
    /// Completion time.
    pub completed_at: Time,
    /// Measured end-to-end latency.
    pub latency: Dur,
    /// Retransmission attempts.
    pub retries: u32,
    /// What completed the op.
    pub evidence: Evidence,
    /// `(phase, duration)` in path order; durations sum to `latency`.
    pub phases: Vec<(Phase, Dur)>,
}

impl OpTrace {
    /// Total duration attributed to `phase` (zero if absent).
    pub fn phase(&self, phase: Phase) -> Dur {
        self.phases
            .iter()
            .filter(|(p, _)| *p == phase)
            .fold(Dur::ZERO, |acc, &(_, d)| acc + d)
    }

    /// Sum of all phase durations — equals `latency` by construction.
    pub fn phase_sum(&self) -> Dur {
        self.phases.iter().fold(Dur::ZERO, |acc, &(_, d)| acc + d)
    }
}

/// Accumulates [`OpEvent`]s per fragment and attributes completed ops.
///
/// The open set holds one entry per *in-flight* fragment, which under
/// open-loop overload is every queued fragment of hundreds of sessions,
/// so it is a [`FixedMap`] touched only by key; nothing
/// iterates it.
#[derive(Debug, Default)]
pub struct SpanCollector {
    open: FixedMap<OpKey, Vec<OpEvent>>,
    /// Completed ops not yet attributed: `(completion, start, len)` into
    /// [`done_events`](Self::done_events). Attribution (the chain walk
    /// and the per-trace phase vector) runs lazily when traces are first
    /// read, keeping the completion hot path to a bounded memcpy.
    done: Vec<(OpCompletion, u32, u32)>,
    /// Arena of completed ops' event slices, cleared once attributed.
    done_events: Vec<OpEvent>,
    traces: Vec<OpTrace>,
    /// Recycled event buffers: completed/abandoned fragments return their
    /// `Vec` here so steady-state recording allocates nothing.
    pool: Vec<Vec<OpEvent>>,
}

/// Bound on pooled buffers — enough for every op a client window keeps in
/// flight, without hoarding memory after a burst.
const POOL_CAP: usize = 64;

impl SpanCollector {
    /// Creates an empty collector.
    pub fn new() -> SpanCollector {
        SpanCollector::default()
    }

    /// Records one event against a fragment key.
    ///
    /// A fragment's causal chain always starts with the client's
    /// [`OpEvent::ClientSend`], so only that event opens a new entry.
    /// Events for unknown keys are post-completion stragglers — e.g. the
    /// server's apply landing after a device ack already completed the op
    /// — which no chain walk can use; accepting them would leak one entry
    /// per completed op for the rest of the run.
    pub fn record(&mut self, key: OpKey, ev: OpEvent) {
        if let Some(buf) = self.open.get_mut(&key) {
            buf.push(ev);
        } else if matches!(ev, OpEvent::ClientSend { .. }) {
            let mut buf = self.pool.pop().unwrap_or_default();
            buf.push(ev);
            self.open.insert(key, buf);
        }
    }

    fn recycle(&mut self, mut buf: Vec<OpEvent>) {
        if self.pool.len() < POOL_CAP && buf.capacity() > 0 {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Completed traces, in completion order. Attributes any completions
    /// still pending from the hot path.
    pub fn traces(&mut self) -> &[OpTrace] {
        self.attribute_pending();
        &self.traces
    }

    /// Attributes every completion deferred by
    /// [`complete`](Self::complete), returning the newly attributed
    /// traces. Deterministic: attribution is a pure function of the
    /// recorded events, so *when* it runs is unobservable.
    pub fn attribute_pending(&mut self) -> &[OpTrace] {
        let first = self.traces.len();
        for (c, start, len) in self.done.drain(..) {
            let evs = &self.done_events[start as usize..(start + len) as usize];
            self.traces.push(attribute(&c, evs));
        }
        self.done_events.clear();
        &self.traces[first..]
    }

    /// Drops event state for fragments that will never complete: `frags`
    /// is the op's inclusive seq range, as in [`OpCompletion::frag_range`].
    pub fn abandon(&mut self, client: Addr, session: u16, frags: (u32, u32)) {
        for seq in frags.0..=frags.1 {
            if let Some(buf) = self.open.remove(&(client, session, seq)) {
                self.recycle(buf);
            }
        }
    }

    /// Number of fragment keys with still-buffered events.
    pub fn open_keys(&self) -> usize {
        self.open.len()
    }

    /// Records a completed operation for attribution.
    ///
    /// The backward chain walk described in the module docs is *deferred*:
    /// this only snapshots the op's events into the arena (and purges its
    /// open state), so completing costs a short memcpy on the hot path.
    /// The resulting [`OpTrace`] — whose phases always sum to `c.latency`,
    /// with anything unexplained reported as [`Phase::Unattributed`] —
    /// materializes when [`traces`](Self::traces) or
    /// [`attribute_pending`](Self::attribute_pending) is next called.
    pub fn complete(&mut self, c: OpCompletion) {
        let key = (c.client, c.session, c.completing_seq);
        let evs = self.open.remove(&key).unwrap_or_default();
        for seq in c.frag_range.0..=c.frag_range.1 {
            if let Some(buf) = self.open.remove(&(c.client, c.session, seq)) {
                self.recycle(buf);
            }
        }
        let start = self.done_events.len() as u32;
        self.done_events.extend_from_slice(&evs);
        self.done.push((c, start, evs.len() as u32));
        self.recycle(evs);
    }
}

/// Latest event at or before `bound` matching `pick`, scanning newest
/// first (events are recorded in causal order).
fn latest_before<F>(evs: &[OpEvent], bound: Time, pick: F) -> Option<&OpEvent>
where
    F: Fn(&OpEvent) -> bool,
{
    evs.iter().rev().find(|e| pick(e) && e.at() <= bound)
}

/// The backward chain walk: attribute `c.latency` across phases using the
/// fragment's recorded events.
fn attribute(c: &OpCompletion, evs: &[OpEvent]) -> OpTrace {
    // Worst case is one entry per phase; reserving up front keeps the
    // completion hot path to a single allocation.
    let mut phases: Vec<(Phase, Dur)> = Vec::with_capacity(Phase::ALL.len());
    let net = c.completed_at - c.issued_at;
    // App overhead is whatever the client reported beyond the network-
    // visible interval.
    let app = if c.latency > net {
        c.latency - net
    } else {
        Dur::ZERO
    };

    if walk_chain(c, evs, &mut phases) {
        let mut attributed = Dur::ZERO;
        for &(_, d) in &phases {
            attributed += d;
        }
        phases.push((Phase::AppOverhead, app));
        attributed += app;
        if c.latency > attributed {
            phases.push((Phase::Unattributed, c.latency - attributed));
        } else {
            phases.push((Phase::Unattributed, Dur::ZERO));
        }
    } else {
        // No usable chain: everything network-visible is unattributed.
        phases.push((Phase::AppOverhead, app));
        phases.push((Phase::Unattributed, net));
    }

    OpTrace {
        client: c.client,
        session: c.session,
        seq: c.completing_seq,
        kind: c.kind,
        issued_at: c.issued_at,
        completed_at: c.completed_at,
        latency: c.latency,
        retries: c.retries,
        evidence: c.evidence,
        phases,
    }
}

/// Walks the completing attempt's chain backwards, pushing the phases in
/// path order into `phases`. Returns `false` — with `phases` untouched —
/// when the evidence kind has no traceable chain or a link is missing.
/// Everything is computed into locals before the first push, so the
/// caller never has to undo a partial chain (and the hot path allocates
/// nothing beyond `phases` itself).
fn walk_chain(c: &OpCompletion, evs: &[OpEvent], phases: &mut Vec<(Phase, Dur)>) -> bool {
    /// Chain endpoints, innermost first: the ack's client arrival, its
    /// emission and the request's receipt at the acking hop, the
    /// completing attempt's TX start and wire entry, and the hop-internal
    /// phase split (at most two entries).
    type Chain = (Time, Time, Time, Time, Time, [(Phase, Dur); 2], usize);

    /// Inner `Option`-returning body so missing links can use `?`.
    fn locate(c: &OpCompletion, evs: &[OpEvent]) -> Option<Chain> {
        let t_end = c.completed_at;
        // 1. The completing ack's wire arrival at the client.
        let want_kind = match c.evidence {
            Evidence::DeviceAck { device } => AckKind::Device(device),
            Evidence::ServerAck => AckKind::Server,
            Evidence::AppReply => AckKind::Reply,
            Evidence::CacheResp => AckKind::Cache,
            Evidence::LocalLog => return None,
        };
        let arrive = latest_before(
            evs,
            t_end,
            |e| matches!(e, OpEvent::ClientRecv { kind, .. } if *kind == want_kind),
        )?
        .at();

        // 2. The ack's emission and the request's receipt at the acking
        // hop. `mid` is at most two phases (the hop-internal split).
        let zero = (Phase::Unattributed, Dur::ZERO);
        let (send_at, recv_at, mid, mid_len) = match c.evidence {
            Evidence::DeviceAck { device } => {
                let send = latest_before(
                    evs,
                    arrive,
                    |e| matches!(e, OpEvent::DeviceAckSend { device: d, .. } if *d == device),
                )?
                .at();
                let recv = latest_before(
                    evs,
                    send,
                    |e| matches!(e, OpEvent::DeviceRecv { device: d, .. } if *d == device),
                )?
                .at();
                // Batched mode: if the completing attempt was staged and
                // flushed inside this hop's span, the stage→flush wait is
                // BatchWait, not device pipeline/persist time.
                let stage = latest_before(
                    evs,
                    send,
                    |e| matches!(e, OpEvent::DeviceBatchStage { device: d, .. } if *d == device),
                )
                .map(OpEvent::at)
                .filter(|&s| s >= recv);
                let flush = latest_before(
                    evs,
                    send,
                    |e| matches!(e, OpEvent::DeviceBatchFlush { device: d, .. } if *d == device),
                )
                .map(OpEvent::at);
                match (stage, flush) {
                    (Some(s), Some(f)) if s <= f => (
                        send,
                        recv,
                        [
                            (Phase::Device, (s - recv) + (send - f)),
                            (Phase::BatchWait, f - s),
                        ],
                        2,
                    ),
                    _ => (send, recv, [(Phase::Device, send - recv), zero], 1),
                }
            }
            Evidence::CacheResp => {
                let send = latest_before(evs, arrive, |e| {
                    matches!(e, OpEvent::DeviceCacheResp { .. })
                })?
                .at();
                let recv =
                    latest_before(evs, send, |e| matches!(e, OpEvent::DeviceRecv { .. }))?.at();
                (send, recv, [(Phase::Device, send - recv), zero], 1)
            }
            Evidence::ServerAck | Evidence::AppReply => {
                let send =
                    latest_before(evs, arrive, |e| matches!(e, OpEvent::ServerSend { .. }))?.at();
                let recv =
                    latest_before(evs, send, |e| matches!(e, OpEvent::ServerRecv { .. }))?.at();
                // The post-stack delivery splits stack from handler; if it
                // was not observed the whole span counts as handler time.
                let apply = latest_before(evs, send, |e| matches!(e, OpEvent::ServerApply { .. }))
                    .map(OpEvent::at)
                    .filter(|&a| a >= recv)
                    .unwrap_or(recv);
                (
                    send,
                    recv,
                    [
                        (Phase::ServerStack, apply - recv),
                        (Phase::Handler, send - apply),
                    ],
                    2,
                )
            }
            Evidence::LocalLog => unreachable!(),
        };

        // 3. The wire send of the attempt whose request reached that hop.
        let (tx_start, wire_at) = match latest_before(
            evs,
            recv_at,
            |e| matches!(e, OpEvent::ClientSend { wire_at, .. } if *wire_at <= recv_at),
        )? {
            OpEvent::ClientSend {
                tx_start, wire_at, ..
            } => (*tx_start, *wire_at),
            _ => unreachable!(),
        };

        Some((arrive, send_at, recv_at, tx_start, wire_at, mid, mid_len))
    }

    let Some((arrive, send_at, recv_at, tx_start, wire_at, mid, mid_len)) = locate(c, evs) else {
        return false;
    };
    phases.push((Phase::RetryWait, tx_start - c.issued_at));
    phases.push((Phase::ClientTx, wire_at - tx_start));
    phases.push((Phase::WireOut, recv_at - wire_at));
    phases.extend_from_slice(&mid[..mid_len]);
    phases.push((Phase::WireBack, arrive - send_at));
    phases.push((Phase::ClientRx, c.completed_at - arrive));
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    fn completion(evidence: Evidence, latency_ns: u64) -> OpCompletion {
        OpCompletion {
            client: Addr(1),
            session: 1,
            completing_seq: 7,
            frag_range: (7, 7),
            kind: OpKind::Update,
            issued_at: t(100),
            completed_at: t(100 + latency_ns),
            latency: Dur::nanos(latency_ns),
            retries: 0,
            evidence,
        }
    }

    #[test]
    fn clean_device_chain_attributes_fully() {
        let mut sc = SpanCollector::new();
        let key = (Addr(1), 1, 7);
        sc.record(
            key,
            OpEvent::ClientSend {
                attempt: 0,
                tx_start: t(100),
                wire_at: t(150),
            },
        );
        sc.record(
            key,
            OpEvent::DeviceRecv {
                device: 0,
                at: t(250),
            },
        );
        sc.record(
            key,
            OpEvent::DeviceAckSend {
                device: 0,
                at: t(400),
            },
        );
        sc.record(
            key,
            OpEvent::ClientRecv {
                kind: AckKind::Device(0),
                at: t(480),
            },
        );
        sc.complete(completion(Evidence::DeviceAck { device: 0 }, 450));
        let tr = &sc.traces()[0];
        assert_eq!(tr.phase(Phase::RetryWait), Dur::ZERO);
        assert_eq!(tr.phase(Phase::ClientTx), Dur::nanos(50));
        assert_eq!(tr.phase(Phase::WireOut), Dur::nanos(100));
        assert_eq!(tr.phase(Phase::Device), Dur::nanos(150));
        assert_eq!(tr.phase(Phase::WireBack), Dur::nanos(80));
        assert_eq!(tr.phase(Phase::ClientRx), Dur::nanos(70));
        assert_eq!(tr.phase(Phase::Unattributed), Dur::ZERO);
        assert_eq!(tr.phase_sum(), tr.latency);
        assert_eq!(sc.open_keys(), 0, "completion purges event state");
    }

    #[test]
    fn retransmission_counts_only_the_completing_attempt() {
        let mut sc = SpanCollector::new();
        let key = (Addr(1), 1, 7);
        // First attempt: sent, received by device, ack lost.
        sc.record(
            key,
            OpEvent::ClientSend {
                attempt: 0,
                tx_start: t(100),
                wire_at: t(150),
            },
        );
        sc.record(
            key,
            OpEvent::DeviceRecv {
                device: 0,
                at: t(250),
            },
        );
        sc.record(
            key,
            OpEvent::DeviceAckSend {
                device: 0,
                at: t(400),
            },
        );
        // Retransmission after a 10us timeout.
        sc.record(
            key,
            OpEvent::ClientSend {
                attempt: 1,
                tx_start: t(10_100),
                wire_at: t(10_150),
            },
        );
        sc.record(
            key,
            OpEvent::DeviceRecv {
                device: 0,
                at: t(10_250),
            },
        );
        sc.record(
            key,
            OpEvent::DeviceAckSend {
                device: 0,
                at: t(10_400),
            },
        );
        sc.record(
            key,
            OpEvent::ClientRecv {
                kind: AckKind::Device(0),
                at: t(10_480),
            },
        );
        let mut c = completion(Evidence::DeviceAck { device: 0 }, 10_450);
        c.retries = 1;
        sc.complete(c);
        let tr = &sc.traces()[0];
        // The 10us wait is RetryWait, not inflated wire/device time.
        assert_eq!(tr.phase(Phase::RetryWait), Dur::nanos(10_000));
        assert_eq!(tr.phase(Phase::ClientTx), Dur::nanos(50));
        assert_eq!(tr.phase(Phase::WireOut), Dur::nanos(100));
        assert_eq!(tr.phase(Phase::Device), Dur::nanos(150));
        assert_eq!(tr.phase_sum(), tr.latency);
    }

    #[test]
    fn batched_device_chain_splits_batch_wait_from_device_time() {
        let mut sc = SpanCollector::new();
        let key = (Addr(1), 1, 7);
        sc.record(
            key,
            OpEvent::ClientSend {
                attempt: 0,
                tx_start: t(100),
                wire_at: t(150),
            },
        );
        sc.record(
            key,
            OpEvent::DeviceRecv {
                device: 0,
                at: t(250),
            },
        );
        sc.record(
            key,
            OpEvent::DeviceBatchStage {
                device: 0,
                at: t(280),
            },
        );
        sc.record(
            key,
            OpEvent::DeviceBatchFlush {
                device: 0,
                at: t(380),
            },
        );
        sc.record(
            key,
            OpEvent::DeviceAckSend {
                device: 0,
                at: t(450),
            },
        );
        sc.record(
            key,
            OpEvent::ClientRecv {
                kind: AckKind::Device(0),
                at: t(530),
            },
        );
        sc.complete(completion(Evidence::DeviceAck { device: 0 }, 500));
        let tr = &sc.traces()[0];
        // 30ns pre-stage + 70ns post-flush pipeline/persist; 100ns waiting
        // for the window to fill.
        assert_eq!(tr.phase(Phase::Device), Dur::nanos(100));
        assert_eq!(tr.phase(Phase::BatchWait), Dur::nanos(100));
        assert_eq!(tr.phase(Phase::Unattributed), Dur::ZERO);
        assert_eq!(tr.phase_sum(), tr.latency);
    }

    #[test]
    fn server_chain_splits_stack_and_handler() {
        let mut sc = SpanCollector::new();
        let key = (Addr(1), 1, 7);
        sc.record(
            key,
            OpEvent::ClientSend {
                attempt: 0,
                tx_start: t(100),
                wire_at: t(150),
            },
        );
        sc.record(key, OpEvent::ServerRecv { at: t(300) });
        sc.record(key, OpEvent::ServerApply { at: t(2300) });
        sc.record(key, OpEvent::ServerSend { at: t(3300) });
        sc.record(
            key,
            OpEvent::ClientRecv {
                kind: AckKind::Server,
                at: t(3450),
            },
        );
        sc.complete(completion(Evidence::ServerAck, 3400));
        let tr = &sc.traces()[0];
        assert_eq!(tr.phase(Phase::ServerStack), Dur::nanos(2000));
        assert_eq!(tr.phase(Phase::Handler), Dur::nanos(1000));
        assert_eq!(tr.phase_sum(), tr.latency);
    }

    #[test]
    fn broken_chain_lands_in_unattributed_but_still_sums() {
        let mut sc = SpanCollector::new();
        // No events at all (e.g. recording attached mid-run), and the
        // client reports 100ns of app overhead on top of the network
        // interval.
        let mut c = completion(Evidence::DeviceAck { device: 0 }, 500);
        c.latency = Dur::nanos(600);
        sc.complete(c);
        let tr = &sc.traces()[0];
        assert_eq!(tr.phase(Phase::Unattributed), Dur::nanos(500));
        assert_eq!(tr.phase(Phase::AppOverhead), Dur::nanos(100));
        assert_eq!(tr.phase_sum(), tr.latency);
    }

    #[test]
    fn local_log_completion_is_honestly_unattributed() {
        let mut sc = SpanCollector::new();
        sc.complete(completion(Evidence::LocalLog, 400));
        let tr = &sc.traces()[0];
        assert_eq!(tr.phase(Phase::Unattributed), Dur::nanos(400));
        assert_eq!(tr.phase_sum(), tr.latency);
    }

    #[test]
    fn abandon_purges_state() {
        let mut sc = SpanCollector::new();
        sc.record(
            (Addr(1), 1, 3),
            OpEvent::ClientSend {
                attempt: 0,
                tx_start: t(5),
                wire_at: t(8),
            },
        );
        sc.record((Addr(1), 1, 3), OpEvent::ServerRecv { at: t(10) });
        assert_eq!(sc.open_keys(), 1);
        sc.abandon(Addr(1), 1, (3, 3));
        assert_eq!(sc.open_keys(), 0);
    }

    #[test]
    fn stragglers_for_unknown_keys_are_dropped() {
        // Only ClientSend opens an entry: events landing after completion
        // removed the key (e.g. the server's apply behind a device ack)
        // must not leak span state.
        let mut sc = SpanCollector::new();
        sc.record((Addr(1), 1, 3), OpEvent::ServerRecv { at: t(10) });
        assert_eq!(sc.open_keys(), 0);
    }
}
