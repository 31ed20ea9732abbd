//! The client-side PMNet software library (Table I, Section V-B).
//!
//! Every client node is one [`Client`]: an arena of slots, each a wire
//! [`Session`] with its one armed retransmission timer. The node
//! encapsulates requests in PMNet headers — fragmenting over-MTU requests
//! (Section IV-A3) — and waits on each slot's request until it completes:
//!
//! * **Baseline** mode completes an update on the server's ACK (full RTT);
//! * **PMNet** mode completes as soon as the required number of distinct
//!   PMNet devices have acknowledged every fragment (sub-RTT), falling
//!   back to the server ACK when a device bypassed the packet;
//! * **client-side logging** mode (the Figure 17a alternative) completes
//!   when the local logger process — and, with replication, the peer
//!   loggers — have persisted the request.
//!
//! Lost packets are retransmitted on timeout; lost ACKs are handled by the
//! device's idempotent duplicate detection. When requests arrive is a
//! [`LoadPolicy`]: the closed loop ([`ClientLib`]) draws the next one from
//! a [`RequestSource`] `app_overhead` after the last ended, and
//! `pmnet-traffic`'s open loop issues on an arrival clock.

mod host;
pub mod session;

use std::fmt;
use std::ops::{Deref, Range};

use bytes::Bytes;
use pmnet_net::{Addr, Ctx, EventId, Msg, Node, Timer};
use pmnet_sim::{Dur, SimRng, Time};
use pmnet_telemetry::Telemetry;

use crate::config::{HostProfile, RetryConfig};
use crate::protocol::{client_port, PacketType, PmnetHeader};
use crate::system::addrs::{self, SERVER};

use session::{Absorbed, Completion, Expiry, Request, Session, Which};
pub use session::{AppRequest, ClientMode, RequestKind};

/// The node's own timer kinds; a policy's timers use any other kind.
const TIMER_RTO: u32 = 10;
const TIMER_LOCAL_LOG: u32 = 12;
/// The closed loop's next request.
const TIMER_NEXT: u32 = 11;

/// Terminal fate of a request, as reported to the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The request reached its completion condition (persisted / replied).
    Completed,
    /// The retry budget was exhausted without completion: the client gave
    /// up and moved on. The update was never acknowledged to the
    /// application, so durability is not claimed for it.
    Failed,
}

/// The workload driving a client: hands out requests and observes
/// completions.
pub trait RequestSource: fmt::Debug {
    /// The next request, or `None` when the workload is done.
    fn next_request(&mut self, rng: &mut SimRng) -> Option<AppRequest>;

    /// Called when a request completes; `reply` carries the response
    /// payload for bypass requests served by the server or a device cache.
    fn on_complete(&mut self, _req: &AppRequest, _reply: Option<&Bytes>) {}

    /// Called exactly once per issued request with its terminal fate —
    /// including [`UpdateOutcome::Failed`] when the retry budget ran out,
    /// which `on_complete` never reports.
    fn on_outcome(&mut self, _req: &AppRequest, _outcome: UpdateOutcome) {}
}

pmnet_telemetry::counters! {
    /// Retransmission-path observability for one client.
    pub struct ClientRetryCounters {
        /// Retransmission rounds fired (each may resend several fragments).
        /// Each doubles the session's RTO, as each congestion signal does.
        retransmits,
        /// Congestion-flagged server ACKs that backed a session off (device
        /// log under pressure — see [`crate::protocol::FLAG_CONGESTED`]).
        congestion_signals,
        /// Requests abandoned after exhausting the retry budget, or too large
        /// to send.
        failed,
    }
}

/// One completed request, as recorded by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionRecord {
    /// Update or bypass.
    pub kind: RequestKind,
    /// Application-observed latency (issue to completion).
    pub latency: Dur,
    /// Completion instant.
    pub at: Time,
    /// How many retransmission rounds the request needed.
    pub retries: u32,
}

/// What a [`Client`] tells its [`LoadPolicy`]. An exchange that ended
/// has had its RTO timer cancelled.
#[derive(Debug)]
pub enum Event {
    /// The load starts (`Msg::Start`).
    Start,
    /// The node is back from a power cycle: every slot is reopened under a
    /// fresh id, and none has a request open.
    Restart,
    /// One of the policy's own timers fired.
    Timer(Timer),
    /// A slot's request reached its completion rule, after this latency
    /// (from the slot's anchor, `app_overhead` included).
    Done(usize, Completion, Dur),
    /// A slot's retry budget ran out: nothing is claimed for the request.
    Failed(usize, Request),
    /// Fragments went out again: a timeout, or the server asked for one.
    Resent,
    /// A `FLAG_CONGESTED` `ServerAck` arrived, whichever session it names.
    Congested,
    /// Power loss abandoned every slot, this many mid-request.
    Crashed(u64),
}

/// What a client node does beside the protocol: when requests arrive,
/// which slot each takes and what an ended exchange leads to.
pub trait LoadPolicy: fmt::Debug + 'static {
    /// How many ids a restart moves every slot's session on, so that no
    /// `(client, session, seq)` from before it is issued again.
    fn restart_stride(&self, slots: usize) -> u16;

    /// Reacts to one event.
    fn on_event(&mut self, arena: &mut Arena, ctx: &mut Ctx<'_>, event: Event);
}

/// A policy built per node from a campaign description: the constructor
/// behind `pmnet-traffic`'s `OpenLoopClient::new`.
pub trait FromSpec: LoadPolicy + Sized {
    /// The campaign description.
    type Spec;

    /// A node's policy, issuing until `stop_at`, with its slot count and
    /// their mode.
    fn build(spec: &Self::Spec, stop_at: Time) -> (Self, u16, ClientMode);
}

/// A client node: an [`Arena`] of sessions under a [`LoadPolicy`], whose
/// accessors the node reaches through `Deref`.
#[derive(Debug)]
pub struct Client<P> {
    arena: Arena,
    policy: P,
}

/// The node's side of a [`Client`]: the host it runs on (address, flow,
/// stack cost model, fabric epoch), its slots and its one observer.
#[derive(Debug)]
pub struct Arena {
    addr: Addr,
    server: Addr,
    profile: HostProfile,
    use_tcp: bool,
    src_port: u16,
    /// The highest fabric epoch seen in an `EpochNotify` (sharded
    /// designs).
    fabric_epoch: u64,
    slots: Vec<Slot>,
    retry_budget: u32,
    retry: ClientRetryCounters,
    alive: bool,
    /// Times this node has been power-cycled.
    crashes: u32,
    telemetry: Telemetry,
}

#[derive(Debug)]
struct Slot {
    /// Its id strides on restart so `(client, session, seq)` identities
    /// are never reused.
    session: Session,
    /// The open exchange's one armed retransmission timer. Whatever ends
    /// the exchange cancels it: from then on its serial is stale and the
    /// timer could only fire as a no-op (DESIGN.md §18).
    rto_timer: Option<EventId>,
    /// What the open request's latency is measured from: its issue
    /// (closed loop) or its arrival, queue wait included (open loop).
    anchor: Time,
}

impl<P: LoadPolicy> Client<P> {
    /// A node at `addr` with one slot per session id in `ids`, each in
    /// `mode`, talking to `server`; `port` picks the source port.
    #[allow(clippy::too_many_arguments)]
    fn with_policy(
        addr: Addr,
        server: Addr,
        port: u16,
        ids: Range<u16>,
        mode: ClientMode,
        profile: HostProfile,
        timeout: Dur,
        retry: RetryConfig,
        policy: P,
    ) -> Client<P> {
        let slots = ids
            .map(|id| Slot {
                session: Session::new(id, mode.clone(), addr, server, timeout, retry),
                rto_timer: None,
                anchor: Time::ZERO,
            })
            .collect();
        let arena = Arena {
            addr,
            server,
            profile,
            use_tcp: false,
            src_port: client_port(port),
            fabric_epoch: 0,
            slots,
            retry_budget: retry.retry_budget,
            retry: ClientRetryCounters::default(),
            alive: true,
            crashes: 0,
            telemetry: Telemetry::disabled(),
        };
        Client { arena, policy }
    }

    /// Attaches a telemetry handle: span events, completions and history
    /// events flow into its shared sink. Pure observation — never touches
    /// the RNG or the event queue.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.arena.telemetry = telemetry;
    }

    /// Uses TCP framing/costs for this client's traffic (baseline Redis /
    /// Twitter / TPCC keep their native TCP, Section VI-A3).
    pub fn with_tcp(mut self) -> Client<P> {
        self.arena.use_tcp = true;
        self
    }

    /// Times this client has been power-cycled.
    pub fn crashes(&self) -> u32 {
        self.arena.crashes
    }

    /// Retransmission/backoff/failure counters.
    pub fn retry_counters(&self) -> ClientRetryCounters {
        self.arena.retry
    }

    /// This client's address.
    pub fn client_addr(&self) -> Addr {
        self.arena.addr
    }

    /// The slots' sessions, in slot order.
    pub fn sessions(&self) -> impl ExactSizeIterator<Item = &Session> {
        self.arena.slots.iter().map(|s| &s.session)
    }

    /// Requests still in flight (issued, neither completed nor abandoned).
    pub fn in_flight(&self) -> usize {
        self.sessions().filter(|s| s.open().is_some()).count()
    }

    /// Per slot, in slot order: whether a request is open, and whether
    /// its RTO timer is armed. Whatever ends an exchange disarms its
    /// timer, so the two agree between events.
    pub fn slot_timers(&self) -> impl ExactSizeIterator<Item = (bool, bool)> + '_ {
        let pair = |s: &Slot| (s.session.open().is_some(), s.rto_timer.is_some());
        self.arena.slots.iter().map(pair)
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, header: PmnetHeader, payload: Bytes) {
        let arena = &mut self.arena;
        if header.ptype == PacketType::EpochNotify {
            if arena.rehomed(&header) {
                for slot in 0..arena.slots.len() {
                    arena.transmit(ctx, slot, Which::Incomplete);
                }
            }
            return;
        }
        let slot = arena.slot_of(header.session);
        if header.ptype == PacketType::ServerAck && header.is_congested() {
            self.policy.on_event(arena, ctx, Event::Congested);
            // The congestion rule (DESIGN.md §9.1): the ack backs off the
            // session it names, if that session has a request open.
            if let Some(s) = slot.filter(|&s| arena.slots[s].session.open().is_some()) {
                arena.retry.congestion_signals += 1;
                arena.slots[s].session.back_off();
            }
        }
        if let Some(slot) = slot {
            let absorbed = arena.slots[slot]
                .session
                .absorb(&header, payload, ctx.now());
            self.on_absorbed(ctx, slot, absorbed);
        }
    }

    fn on_absorbed(&mut self, ctx: &mut Ctx<'_>, slot: usize, absorbed: Absorbed) {
        match absorbed {
            Absorbed::Ignored | Absorbed::Progress => {}
            Absorbed::Resend(frag) => {
                self.policy.on_event(&mut self.arena, ctx, Event::Resent);
                self.arena.transmit(ctx, slot, Which::One(frag));
            }
            Absorbed::Done(done) => {
                self.arena.disarm(ctx, slot);
                let latency = self.arena.report(ctx, slot, &done);
                let done = Event::Done(slot, done, latency);
                self.policy.on_event(&mut self.arena, ctx, done);
            }
        }
    }

    fn on_rto(&mut self, ctx: &mut Ctx<'_>, slot: usize, serial: u64) {
        let arena = &mut self.arena;
        match arena.slots[slot].session.expire(serial, arena.retry_budget) {
            Expiry::Stale => {}
            Expiry::Resend => {
                arena.retry.retransmits += 1;
                self.policy.on_event(arena, ctx, Event::Resent);
                arena.transmit(ctx, slot, Which::Incomplete);
                arena.arm_rto(ctx, slot, serial);
            }
            Expiry::Exhausted => {
                let gone = arena
                    .abandon(ctx, slot)
                    .expect("an exhausted exchange is open");
                arena.retry.failed += 1;
                self.policy.on_event(arena, ctx, Event::Failed(slot, gone));
            }
        }
    }
}

impl<P: FromSpec> Client<P> {
    /// Builds node `index` of a campaign `spec` describes, at the
    /// builder's client address `index`, issuing until `stop_at`.
    pub fn new(
        index: usize,
        spec: &P::Spec,
        profile: HostProfile,
        retry: RetryConfig,
        timeout: Dur,
        stop_at: Time,
    ) -> Client<P> {
        let (policy, slots, mode) = P::build(spec, stop_at);
        let (addr, port) = (addrs::client(index), index as u16);
        Client::with_policy(
            addr,
            SERVER,
            port,
            0..slots,
            mode,
            profile,
            timeout,
            retry,
            policy,
        )
    }
}

impl<P> Deref for Client<P> {
    type Target = P;

    fn deref(&self) -> &P {
        &self.policy
    }
}

impl<P: LoadPolicy> Node for Client<P> {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let arena = &mut self.arena;
        match msg {
            // Idempotent power transitions: a second crash inside an
            // existing downtime window (overlapping fault schedules) must
            // not count another crash, and a stray restore while running
            // must not reset the sessions mid-flight.
            Msg::Crash if !arena.alive => {}
            Msg::Restore if arena.alive => {}
            Msg::Crash => {
                arena.alive = false;
                arena.crashes += 1;
                // Requests in flight and their volatile retry state are
                // lost. Completion and ACK records model results already
                // handed to the application (and audited as acknowledged),
                // so they survive the restart.
                let slots = 0..arena.slots.len();
                let aborted = slots.filter(|&s| arena.abandon(ctx, s).is_some()).count();
                self.policy
                    .on_event(arena, ctx, Event::Crashed(aborted as u64));
            }
            Msg::Restore => {
                arena.alive = true;
                // A restarted application opens fresh sessions; the
                // requests in flight at the crash stay abandoned.
                let stride = self.policy.restart_stride(arena.slots.len());
                for slot in &mut arena.slots {
                    slot.session.reopen(stride);
                }
                self.policy.on_event(arena, ctx, Event::Restart);
            }
            _ if !arena.alive => {}
            Msg::Start => self.policy.on_event(arena, ctx, Event::Start),
            Msg::Packet { port, packet } => {
                if let Some(packet) = arena.receive(ctx, port, packet) {
                    for (header, payload) in host::frames(&packet) {
                        self.on_frame(ctx, header, payload);
                    }
                }
            }
            Msg::Timer(t) => match t.kind {
                TIMER_RTO => self.on_rto(ctx, t.b as usize, t.a),
                TIMER_LOCAL_LOG => {
                    let slot = t.b as usize;
                    let absorbed = arena.slots[slot].session.logged_locally(t.a, ctx.now());
                    self.on_absorbed(ctx, slot, absorbed);
                }
                _ => self.policy.on_event(arena, ctx, Event::Timer(t)),
            },
            _ => {}
        }
    }

    fn addr(&self) -> Option<Addr> {
        Some(self.arena.addr)
    }
}

/// The closed loop: Table I's synchronous client over one slot. Its
/// [`RequestSource`] hands out the next request `app_overhead` after the
/// last one completed or failed.
#[derive(Debug)]
pub struct ClosedLoop {
    source: Box<dyn RequestSource>,
    records: Vec<CompletionRecord>,
    acked_updates: Vec<(u16, u32)>,
    warmup: usize,
    finished: bool,
}

/// The closed-loop client node: Table I's `PMNet_send_update` /
/// `PMNet_bypass` / session functions over one [`Session`].
pub type ClientLib = Client<ClosedLoop>;

impl Client<ClosedLoop> {
    /// Creates a client. `session` doubles as the client's index for port
    /// assignment.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        addr: Addr,
        server: Addr,
        session: u16,
        mode: ClientMode,
        profile: HostProfile,
        timeout: Dur,
        retry: RetryConfig,
        source: Box<dyn RequestSource>,
    ) -> ClientLib {
        let policy = ClosedLoop {
            source,
            records: Vec::new(),
            acked_updates: Vec::new(),
            warmup: 0,
            finished: false,
        };
        let ids = session..session + 1;
        Client::with_policy(
            addr, server, session, ids, mode, profile, timeout, retry, policy,
        )
    }

    /// Skips the first `n` completions in the recorded statistics
    /// (the paper skips 10 k warm-up requests, Section VI-A2).
    pub fn with_warmup(mut self, n: usize) -> ClientLib {
        self.policy.warmup = n;
        self
    }

    /// This client's session id.
    pub fn session(&self) -> u16 {
        self.arena.slots[0].session.id()
    }
}

impl ClosedLoop {
    /// All completion records after warm-up.
    pub fn records(&self) -> &[CompletionRecord] {
        let skip = self.warmup.min(self.records.len());
        &self.records[skip..]
    }

    /// Completions including warm-up.
    pub fn total_completed(&self) -> usize {
        self.records.len()
    }

    /// True once the source is exhausted and the last request completed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// `(session, seq)` of every acknowledged update (audit input), one
    /// entry each under its last fragment's `SeqNum` — the identity the
    /// server's apply reports. Session-qualified because a restarted
    /// client opens a fresh session.
    pub fn acked_updates(&self) -> &[(u16, u32)] {
        &self.acked_updates
    }

    fn issue_next(&mut self, arena: &mut Arena, ctx: &mut Ctx<'_>) {
        let Some(req) = self.source.next_request(ctx.rng()) else {
            self.finished = true;
            return;
        };
        let now = ctx.now();
        if arena.issue(ctx, 0, req.clone(), now).is_err() {
            // Too large for the wire: nothing was sent or numbered.
            self.fail(arena, ctx, &req);
        }
    }

    /// The request will never complete (retry budget spent, or too large
    /// to send): durability is not claimed for it — it never enters
    /// `acked_updates` or the latency records — and the workload goes on.
    fn fail(&mut self, arena: &Arena, ctx: &mut Ctx<'_>, req: &AppRequest) {
        self.source.on_outcome(req, UpdateOutcome::Failed);
        ctx.timer_in(arena.profile.app_overhead, Timer::of_kind(TIMER_NEXT));
    }
}

impl LoadPolicy for ClosedLoop {
    fn restart_stride(&self, _slots: usize) -> u16 {
        // Keeps restarted sessions from colliding with other clients'
        // (which are small indices).
        1000
    }

    fn on_event(&mut self, arena: &mut Arena, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start | Event::Restart => self.issue_next(arena, ctx),
            // Guarded so a timer from before a crash can't double-issue
            // after the restart re-primed the loop.
            Event::Timer(t) if t.kind == TIMER_NEXT && !arena.is_open(0) && !self.finished => {
                self.issue_next(arena, ctx)
            }
            Event::Done(_, done, latency) => {
                let req = &done.request;
                if req.app.kind == RequestKind::Update {
                    self.acked_updates.push((req.session, req.frag_range.1));
                }
                self.records.push(CompletionRecord {
                    kind: req.app.kind,
                    latency,
                    at: ctx.now(),
                    retries: req.attempt,
                });
                self.source.on_complete(&req.app, done.reply.as_ref());
                self.source.on_outcome(&req.app, UpdateOutcome::Completed);
                ctx.timer_in(arena.profile.app_overhead, Timer::of_kind(TIMER_NEXT));
            }
            Event::Failed(_, gone) => self.fail(arena, ctx, &gone.app),
            _ => {}
        }
    }
}
