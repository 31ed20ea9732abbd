//! The server-side PMNet software library (Table I, Sections IV-A4, IV-E,
//! V-B).
//!
//! [`ServerLib`] models the paper's server: a kernel (or bypass) network
//! stack, a pool of request-handler workers (Table II: 20 cores), and the
//! PMNet library responsibilities:
//!
//! * **ordered delivery** — per-(client, session) reorder buffers keyed by
//!   `SeqNum`; gaps trigger `Retrans` requests that PMNet devices can
//!   serve from their logs (Figure 7);
//! * **deduplication** — the last applied `SeqNum` per session is kept
//!   durably by the handler; duplicates and already-applied redo resends
//!   are dropped with a make-up server-ACK so device logs drain
//!   (Section IV-E1, case 3);
//! * **recovery** — after a crash the handler restores its state and the
//!   server polls every PMNet device for logged requests, which arrive as
//!   redo-flagged updates and flow through the same ordered-apply path;
//! * **alternative designs** — an optional kernel-level early-logging mode
//!   models the Figure 17b server-side logging design, and user-level
//!   chained replication models the baseline replication of Figure 21.

mod apply;
mod fabric;
mod recovery;
pub mod stream;

use std::fmt;

use bytes::Bytes;
use pmnet_net::{Addr, Ctx, Msg, Node, Packet, PortNo, Proto, Timer};
use pmnet_pmem::{PmDevice, PmDeviceConfig};
use pmnet_sim::hash::FixedMap;
use pmnet_sim::{Dur, SimRng, Time};
use pmnet_telemetry::history::{Event, EventKind};
use pmnet_telemetry::span::OpEvent;
use pmnet_telemetry::Telemetry;

use self::apply::{ApplyPool, Hold, Parked};
use self::fabric::FabricDriver;
pub use self::fabric::FabricShardCounters;
pub use self::recovery::RecoveryStats;
use self::stream::{AckTicket, PendingPkt, Stream};
use crate::audit::AuditLog;
use crate::config::{ApplyConfig, BatchConfig, HostProfile, SystemConfig};
use crate::protocol::{PacketType, PmnetHeader, SERVICE_PORT};

const POST_STACK: PortNo = PortNo(200);
const KERNEL_STAGE: PortNo = PortNo(201);

/// Gap detector; `a` is the client, `b` the session and the expectation
/// armed against. Not epoch-stamped: a crash wipes the stream it looks up.
const TIMER_GAP: u32 = 20;
/// A parked worker occupancy elapsed; `a` carries the [`Parked`] token.
const TIMER_DONE: u32 = 21;
const TIMER_RECOVERY_POLL: u32 = 22;
const TIMER_FABRIC_CHECK: u32 = 23;

/// The application running on the server: applies updates, serves reads,
/// and keeps the per-session applied sequence numbers durable.
pub trait RequestHandler: fmt::Debug {
    /// Applies an in-order update and durably records `(client, session,
    /// seq)` as applied; returns the handler service time (including the
    /// cost of the durable sequence record).
    fn handle_update(
        &mut self,
        client: Addr,
        session: u16,
        seq: u32,
        payload: &Bytes,
        rng: &mut SimRng,
    ) -> Dur;

    /// Serves a bypass request; returns service time and reply payload.
    fn handle_bypass(&mut self, payload: &Bytes, rng: &mut SimRng) -> (Dur, Option<Bytes>);

    /// The last applied sequence number for a session, if any (durable).
    fn applied_seq(&mut self, client: Addr, session: u16) -> Option<u32>;

    /// Power failure: volatile state is lost.
    fn on_crash(&mut self, rng: &mut SimRng);

    /// Restart: restore state; returns the application recovery time
    /// (checkpoint load + WAL replay).
    fn on_recover(&mut self) -> Dur;

    /// Downcast support so tests and examples can inspect concrete
    /// handler state after a run.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// The microbenchmark's *ideal request handler*: "acknowledges the client
/// upon reception of the request, without processing it" (Section VI-B1).
/// Sequence bookkeeping is kept in memory and survives crashes, modeling a
/// handler with negligible durable state.
#[derive(Debug, Default)]
pub struct IdealHandler {
    applied: FixedMap<(Addr, u16), u32>,
    service: Dur,
}

impl IdealHandler {
    /// Creates an ideal handler with a minimal fixed service time.
    pub fn new() -> IdealHandler {
        IdealHandler {
            applied: FixedMap::default(),
            service: Dur::nanos(500),
        }
    }

    /// Test support: marks a sequence number as already applied.
    pub fn record_applied(&mut self, client: Addr, session: u16, seq: u32) {
        self.applied.insert((client, session), seq);
    }
}

impl RequestHandler for IdealHandler {
    fn handle_update(
        &mut self,
        client: Addr,
        session: u16,
        seq: u32,
        _payload: &Bytes,
        _rng: &mut SimRng,
    ) -> Dur {
        self.applied.insert((client, session), seq);
        self.service
    }
    fn handle_bypass(&mut self, _payload: &Bytes, _rng: &mut SimRng) -> (Dur, Option<Bytes>) {
        (self.service, Some(Bytes::from_static(b"Ook")))
    }
    fn applied_seq(&mut self, client: Addr, session: u16) -> Option<u32> {
        self.applied.get(&(client, session)).copied()
    }
    fn on_crash(&mut self, _rng: &mut SimRng) {}
    fn on_recover(&mut self) -> Dur {
        Dur::ZERO
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

pmnet_telemetry::counters! {
    /// Server activity counters.
    pub struct ServerCounters {
        /// Updates applied by the handler.
        updates_applied,
        /// Bypass requests served.
        bypasses_served,
        /// Duplicate/already-applied packets dropped.
        duplicates_dropped,
        /// Make-up server-ACKs sent for duplicates.
        make_up_acks,
        /// Retrans requests emitted for detected gaps.
        retrans_sent,
        /// Out-of-order packets buffered.
        reordered,
        /// Redo-flagged (recovery) updates applied.
        redo_applied,
        /// Requests dropped because the header hash or payload CRC failed to
        /// verify (a bit flipped in flight).
        corrupt_dropped,
        /// Unrecoverable gaps skipped after the bounded retransmission rounds
        /// ran out (a crashed client stranded a hole no log can fill).
        gaps_skipped,
        /// Bypass reads held behind an open recovery barrier (served once
        /// every device reported `RecoveryDone`).
        bypasses_parked,
        /// Updates applied through the concurrent sharded pool
        /// (`apply.threads > 1`). Pool runs amortize away
        /// `concurrent_applies - apply_runs` handler fence drains.
        concurrent_applies,
        /// Pool runs dispatched (one combined worker occupancy each).
        apply_runs,
        /// Same-key write-write fences recorded at pool staging time.
        apply_key_fences,
        /// Bypass reads held behind a staged (not yet applied) same-key
        /// write.
        apply_reads_parked,
    }
}

/// The server node.
#[derive(Debug)]
pub struct ServerLib {
    addr: Addr,
    profile: HostProfile,
    handler: Box<dyn RequestHandler>,
    workers: Vec<Time>,
    /// In-order delivery state, one [`Stream`] per `(client, session)`.
    streams: FixedMap<(Addr, u16), Stream>,
    /// Work whose worker occupancy is still elapsing ([`TIMER_DONE`]).
    parked: FixedMap<u64, Parked>,
    next_parked: u64,
    pool: ApplyPool,
    counters: ServerCounters,
    gap_timeout: Dur,
    gap_skip_rounds: u32,
    devices: Vec<Addr>,
    /// Devices that have not yet reported `RecoveryDone` since the last
    /// restore (the recovery barrier).
    recovery_pending: Vec<Addr>,
    /// Bypass reads waiting for a durable write they could miss, in
    /// arrival order, each with why ([`ServerLib::read_hold`]).
    held_reads: Vec<(Hold, PendingPkt)>,
    recovery_poll_timeout: Dur,
    poll_round: u32,
    alive: bool,
    epoch: u64,
    recovery: Option<RecoveryStats>,
    // Figure 17b: log updates at the kernel boundary and early-ack.
    early_log: Option<EarlyLog>,
    // Figure 21 baseline: user-level replication to backup servers.
    replicate_to: Vec<Addr>,
    /// Applied updates whose acks await `.0` more replica confirmations.
    awaiting_replicas: Vec<(usize, AckTicket)>,
    // A replica in a replication chain: apply but never talk to clients.
    silent_commit: bool,
    // Sharded-fabric coordinator (None outside PMNet-Sharded designs).
    fabric: Option<FabricDriver>,
    dedup_disabled: bool,
    audit: AuditLog,
    telemetry: Telemetry,
}

#[derive(Debug)]
struct EarlyLog {
    pm: PmDevice,
    logger_id: u8,
    forward_to: Vec<Addr>,
}

impl ServerLib {
    /// Creates a server with `workers` parallel handler workers.
    pub fn new(
        addr: Addr,
        profile: HostProfile,
        workers: usize,
        gap_timeout: Dur,
        handler: Box<dyn RequestHandler>,
    ) -> ServerLib {
        assert!(workers > 0, "need at least one worker");
        let defaults = SystemConfig::default();
        ServerLib {
            addr,
            profile,
            handler,
            workers: vec![Time::ZERO; workers],
            streams: FixedMap::default(),
            parked: FixedMap::default(),
            next_parked: 0,
            pool: ApplyPool::new(&ApplyConfig::default()),
            counters: ServerCounters::default(),
            gap_timeout,
            gap_skip_rounds: defaults.gap_skip_rounds,
            devices: Vec::new(),
            recovery_pending: Vec::new(),
            held_reads: Vec::new(),
            recovery_poll_timeout: defaults.recovery_poll_timeout,
            poll_round: 0,
            alive: true,
            epoch: 0,
            recovery: None,
            early_log: None,
            replicate_to: Vec::new(),
            awaiting_replicas: Vec::new(),
            silent_commit: false,
            fabric: None,
            dedup_disabled: false,
            audit: AuditLog::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: the server emits span events as
    /// requests arrive, are applied, and are acknowledged, and records
    /// every handler apply in the history.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// **Fault-injection hook**: disables the duplicate-suppression branch
    /// so redo resends and duplicated packets are applied again. Exists so
    /// invariant checkers (e.g. the `pmnet-chaos` harness) can prove they
    /// catch exactly-once violations; never enable it in a real run.
    #[doc(hidden)]
    pub fn set_dedup_disabled(&mut self, disabled: bool) {
        self.dedup_disabled = disabled;
    }

    /// Registers the PMNet devices to poll during recovery.
    pub fn with_devices(mut self, devices: Vec<Addr>) -> ServerLib {
        self.devices = devices;
        self
    }

    /// Validates a doorbell policy and otherwise leaves the server as it
    /// is: batching is the device's alone (staged log appends, coalesced
    /// acks). The server applies each in-order update as it is delivered
    /// and acks it once its worker occupancy elapses, whatever the window.
    #[must_use]
    pub fn with_batch(self, batch: BatchConfig) -> ServerLib {
        batch.validate().expect("invalid batch config");
        self
    }

    /// Configures the session-pinned concurrent-apply pool (see
    /// [`ApplyConfig`]). `threads: 1` (the default) applies each update
    /// on the k-worker delay queue as it is delivered; with more threads
    /// updates are staged on the pool's per-worker queues instead.
    #[must_use]
    pub fn with_apply(mut self, apply: ApplyConfig) -> ServerLib {
        apply.validate().expect("invalid apply config");
        self.pool = ApplyPool::new(&apply);
        self
    }

    /// Overrides the base delay between recovery re-polls (doubles per
    /// round while some device has not reported `RecoveryDone`).
    #[must_use]
    pub fn with_recovery_poll_timeout(mut self, t: Dur) -> ServerLib {
        self.recovery_poll_timeout = t;
        self
    }

    /// Overrides how many no-progress gap-detector rounds are tolerated
    /// before an unrecoverable gap is skipped.
    #[must_use]
    pub fn with_gap_skip_rounds(mut self, rounds: u32) -> ServerLib {
        self.gap_skip_rounds = rounds;
        self
    }

    /// Devices still missing from the recovery barrier (0 = every
    /// registered device has reported `RecoveryDone` since the last
    /// restore).
    pub fn recovery_pending(&self) -> usize {
        self.recovery_pending.len()
    }

    /// Enables Figure 17b server-side logging: updates are persisted at
    /// the kernel boundary, early-acknowledged with `logger_id`, and
    /// optionally forwarded to replica loggers.
    pub fn with_early_log(mut self, logger_id: u8, forward_to: Vec<Addr>) -> ServerLib {
        self.early_log = Some(EarlyLog {
            pm: PmDevice::new(PmDeviceConfig::fpga_board()),
            logger_id,
            forward_to,
        });
        self
    }

    /// The id this server's early acks carry, if it logs server-side.
    pub fn logger_id(&self) -> Option<u8> {
        self.early_log.as_ref().map(|el| el.logger_id)
    }

    /// Enables baseline user-level replication: updates commit on this
    /// primary only after every listed replica acknowledges its copy.
    pub fn with_replication(mut self, replicas: Vec<Addr>) -> ServerLib {
        self.replicate_to = replicas;
        self
    }

    /// Marks this server as a silent replica: it applies updates but sends
    /// ACKs only to the primary that forwarded them, never to clients.
    pub fn as_silent_replica(mut self) -> ServerLib {
        self.silent_commit = true;
        self
    }

    /// Activity counters.
    pub fn counters(&self) -> ServerCounters {
        self.counters
    }

    /// Diagnostic snapshot of the concurrent pool's volatile state.
    #[doc(hidden)]
    pub fn pool_debug(&self) -> String {
        self.pool.debug()
    }

    /// The simulated instant the last scheduled apply work completes,
    /// across both the delay-queue workers and the concurrent pool's
    /// workers. PMNet acks from the network, so client completion never
    /// waits for this horizon — it is the server-side apply makespan the
    /// scaling benchmarks score against.
    pub fn apply_busy_until(&self) -> Time {
        let queue = self.workers.iter().copied().max().unwrap_or(Time::ZERO);
        queue.max(self.pool.busy_until())
    }

    /// Recovery bookkeeping from the last restore, if any.
    pub fn recovery(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// The application audit log (see [`crate::audit`]), checked as the
    /// server applies. The auditor observes across crashes, like a bus
    /// analyzer outside the persistence domain.
    pub fn audit_log(&self) -> &AuditLog {
        &self.audit
    }

    /// The handler, for post-run inspection.
    pub fn handler(&self) -> &dyn RequestHandler {
        self.handler.as_ref()
    }

    /// The handler, mutably (test support).
    pub fn handler_mut(&mut self) -> &mut dyn RequestHandler {
        self.handler.as_mut()
    }

    fn reply_packet(
        &self,
        header: PmnetHeader,
        payload: &[u8],
        dst_port: u16,
        proto: Proto,
    ) -> Packet {
        let body = header.encode(payload);
        let mut p = Packet::udp(self.addr, header.client, SERVICE_PORT, dst_port, body);
        p.proto = proto;
        p
    }

    /// Sends `packet` down the user + kernel TX stack; returns the
    /// sampled stack delay (the packet enters the wire at `now + d`).
    fn send_via_stack(&mut self, ctx: &mut Ctx<'_>, packet: Packet) -> Dur {
        let len = packet.payload.len() as u32;
        let d = self
            .profile
            .tx_delay(ctx.rng(), len, packet.proto == Proto::Tcp);
        ctx.send_after(d, PortNo(0), packet);
        d
    }

    /// Telemetry hook: one span event for the operation `header` names.
    fn stamp(&self, ctx: &Ctx<'_>, header: &PmnetHeader, event: OpEvent) {
        let op = (header.client, header.session, header.seq);
        self.telemetry.op_event(self.addr, ctx.now(), op, event);
    }

    /// Re-posts `packet` to this node at the receive stack's next stage.
    fn climb(ctx: &mut Ctx<'_>, after: Dur, port: PortNo, packet: Packet) {
        let self_id = ctx.self_id();
        ctx.message_in(after, self_id, Msg::Packet { port, packet });
    }

    /// Arms an epoch-stamped timer: it fires only if no crash or restore
    /// intervenes (see the [`Node`] impl's timer arm).
    fn arm(&self, ctx: &mut Ctx<'_>, after: Dur, kind: u32, a: u64) {
        let b = self.epoch;
        ctx.timer_in(after, Timer { kind, a, b });
    }

    /// Integrity check for inbound requests. Replica copies arrive with
    /// the header's `client` field rewritten to the primary (the hash is
    /// deliberately left addressing the original request), so silent
    /// replicas can only check the payload CRC; everyone else verifies
    /// the full identity hash too.
    fn verify_inbound(&self, header: &PmnetHeader, payload: &[u8]) -> bool {
        if self.silent_commit {
            header.payload_ok(payload)
        } else {
            header.verify(self.addr, payload)
        }
    }

    fn on_post_stack(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        let Some((header, payload)) = PmnetHeader::decode(&packet.payload) else {
            return;
        };
        if matches!(header.ptype, PacketType::UpdateReq | PacketType::BypassReq)
            && !self.verify_inbound(&header, &payload)
        {
            self.counters.corrupt_dropped += 1;
            return;
        }
        let pending = PendingPkt {
            header,
            payload,
            src_port: packet.src_port,
            proto: packet.proto,
        };
        match header.ptype {
            PacketType::UpdateReq => self.on_update_post_stack(ctx, pending),
            PacketType::BypassReq => self.offer_read(ctx, None, pending),
            PacketType::ServerAck => self.on_replica_ack(ctx, header),
            PacketType::RecoveryDone => self.on_recovery_done(ctx, packet.src),
            PacketType::Heartbeat => self.on_heartbeat(ctx, header),
            _ => {}
        }
    }

    /// Figure 17b early logging, below user space.
    fn log_early(&mut self, ctx: &mut Ctx<'_>, packet: &Packet) {
        if self.early_log.is_none() {
            return;
        }
        let Some((header, body)) = PmnetHeader::decode(&packet.payload) else {
            return;
        };
        // Never early-log a corrupted request: a poisoned log entry would
        // be replayed verbatim on recovery. The packet still climbs the
        // stack and is counted dropped at the post-stack check.
        if header.ptype != PacketType::UpdateReq
            || header.is_redo()
            || !self.verify_inbound(&header, &body)
        {
            return;
        }
        let el = self.early_log.as_mut().expect("checked above");
        let persist_at = el.pm.schedule_write(ctx.now(), packet.wire_bytes());
        // The logger's acks rest on this write, as a device's rest on its
        // flush: the model checker's durability point.
        self.telemetry.record(|| Event {
            at: ctx.now(),
            client: header.client,
            session: header.session,
            seq: header.seq,
            kind: EventKind::DeviceLogged { device: self.addr },
        });
        let ack = header.ack_from_device(el.logger_id);
        let forward_to = el.forward_to.clone();
        let pkt = self.reply_packet(ack, &[], packet.src_port, packet.proto);
        // Ack once persisted (kernel-level response path).
        let wait = persist_at.saturating_since(ctx.now());
        let len = pkt.payload.len() as u32;
        let d = wait + self.profile.kernel_tx.sample(ctx.rng(), len);
        ctx.send_after(d, PortNo(0), pkt);
        // Forward copies to replica loggers (kernel level).
        for replica in forward_to {
            let mut copy = packet.clone();
            copy.src = self.addr;
            copy.dst = replica;
            let len = copy.payload.len() as u32;
            let d = self.profile.kernel_tx.sample(ctx.rng(), len);
            ctx.send_after(d, PortNo(0), copy);
        }
    }

    fn on_kernel_stage(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        self.log_early(ctx, &packet);
        // Continue up through user space.
        let len = packet.payload.len() as u32;
        let d = self.profile.user_rx.sample(ctx.rng(), len);
        ServerLib::climb(ctx, d, POST_STACK, packet);
    }
}

impl Node for ServerLib {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::Start => self.restart_fabric(ctx),
            // Power transitions are idempotent: overlapping crash windows
            // (a second power cut while already dark) must not run crash or
            // recovery handlers twice.
            Msg::Crash if !self.alive => {}
            Msg::Restore if self.alive => {}
            Msg::Crash => {
                self.wipe_volatile(ctx.now());
                self.handler.on_crash(ctx.rng());
            }
            Msg::Restore => self.on_restore(ctx),
            _ if !self.alive => {}
            Msg::Packet { port, packet } if port == POST_STACK => self.on_post_stack(ctx, packet),
            Msg::Packet { port, packet } if port == KERNEL_STAGE => {
                self.on_kernel_stage(ctx, packet);
            }
            Msg::Packet { packet, .. } => {
                if self.telemetry.is_enabled() {
                    if let Some(h) = PmnetHeader::peek(&packet.payload) {
                        if matches!(h.ptype, PacketType::UpdateReq | PacketType::BypassReq) {
                            self.stamp(ctx, &h, OpEvent::ServerRecv { at: ctx.now() });
                        }
                    }
                }
                let len = packet.payload.len() as u32;
                let mut d = self.profile.kernel_rx.sample(ctx.rng(), len);
                if packet.proto == Proto::Tcp {
                    d += HostProfile::tcp_extra();
                }
                ServerLib::climb(ctx, d, KERNEL_STAGE, packet);
            }
            Msg::Timer(t) if t.kind == TIMER_GAP => self.on_gap_timer(ctx, t.a, t.b),
            // Every other timer was stamped by `arm` with the epoch it was
            // armed in; one from before a crash or restore is stale.
            Msg::Timer(Timer { kind, a, b }) if b == self.epoch => match kind {
                TIMER_DONE => self.on_done(ctx, a),
                TIMER_FABRIC_CHECK => self.on_fabric_check(ctx),
                TIMER_RECOVERY_POLL => self.on_recovery_poll(ctx),
                _ => {}
            },
            _ => {}
        }
    }

    fn addr(&self) -> Option<Addr> {
        Some(self.addr)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::stream::GapCheck;
    use super::*;
    use crate::protocol::client_port;

    pub(super) fn mk(handler: Box<dyn RequestHandler>) -> ServerLib {
        ServerLib::new(
            Addr(9),
            HostProfile::kernel_server(),
            4,
            Dur::micros(100),
            handler,
        )
    }

    #[test]
    fn pending_pkt_smoke() {
        let p = PendingPkt {
            header: PmnetHeader::request(PacketType::UpdateReq, 1, 3, Addr(1), Addr(9), 0, 1),
            payload: Bytes::from_static(b"x"),
            src_port: client_port(0),
            proto: Proto::Udp,
        };
        assert_eq!(p.header.seq, 3);
        assert_eq!(p.header.frag_cnt, 1);
    }

    #[test]
    fn expected_seq_initializes_from_handler() {
        let mut h = IdealHandler::new();
        h.record_applied(Addr(1), 1, 41);
        let mut s = mk(Box::new(h));
        assert_eq!(s.stream_mut((Addr(1), 1)).expected(), 42);
        assert_eq!(s.stream_mut((Addr(2), 1)).expected(), 0);
    }

    /// A handler that counts `applied_seq` lookups (a KV handler bills
    /// each one to its next service time, so the count is part of the
    /// simulated schedule).
    #[derive(Debug)]
    struct Counting(Rc<Cell<u32>>);

    impl RequestHandler for Counting {
        fn handle_update(&mut self, _: Addr, _: u16, _: u32, _: &Bytes, _: &mut SimRng) -> Dur {
            Dur::ZERO
        }
        fn handle_bypass(&mut self, _: &Bytes, _: &mut SimRng) -> (Dur, Option<Bytes>) {
            (Dur::ZERO, None)
        }
        fn applied_seq(&mut self, _: Addr, _: u16) -> Option<u32> {
            self.0.set(self.0.get() + 1);
            None
        }
        fn on_crash(&mut self, _: &mut SimRng) {}
        fn on_recover(&mut self) -> Dur {
            Dur::ZERO
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn applied_seq_is_consulted_once_per_stream_per_epoch_and_never_by_the_gap_timer() {
        let lookups = Rc::new(Cell::new(0));
        let mut s = mk(Box::new(Counting(lookups.clone())));
        let key = (Addr(1), 1);
        assert_eq!(s.check_gap(key, 0), None, "no stream yet: nothing to check");
        assert_eq!(lookups.get(), 0, "the gap timer must not open a stream");
        for _ in 0..3 {
            s.stream_mut(key);
        }
        assert_eq!(lookups.get(), 1, "one lookup when the stream opens");
        assert_eq!(s.check_gap(key, 0), Some(GapCheck::Closed));
        s.stream_mut((Addr(2), 1));
        assert_eq!(lookups.get(), 2, "each stream pays its own");
        s.wipe_volatile(Time::ZERO);
        assert_eq!(s.check_gap(key, 0), None, "a crash wipes the stream");
        assert_eq!(lookups.get(), 2);
        s.stream_mut(key);
        assert_eq!(lookups.get(), 3, "a new epoch re-reads the durable record");
    }

    #[test]
    fn ideal_handler_tracks_applied() {
        let mut h = IdealHandler::new();
        assert_eq!(h.applied_seq(Addr(1), 0), None);
        let mut rng = SimRng::seed(0);
        assert!(h.handle_update(Addr(1), 0, 5, &Bytes::new(), &mut rng) > Dur::ZERO);
        assert_eq!(h.applied_seq(Addr(1), 0), Some(5));
        let (d, reply) = h.handle_bypass(&Bytes::new(), &mut rng);
        assert!(d > Dur::ZERO);
        assert!(reply.is_some());
    }
}
