//! The client-side PMNet software library (Table I, Section V-B).
//!
//! A [`ClientLib`] node runs a closed-loop synchronous client: it draws
//! requests from a [`RequestSource`] (the workload), encapsulates them in
//! PMNet headers — fragmenting over-MTU requests (Section IV-A3) — and
//! blocks until the current request completes:
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
//! device's idempotent duplicate detection.

mod host;
pub mod session;

use std::fmt;

use bytes::Bytes;
use pmnet_net::{Addr, Ctx, EventId, Msg, Node, Timer};
use pmnet_sim::{Dur, SimRng, Time};
use pmnet_telemetry::Telemetry;

use crate::config::{HostProfile, RetryConfig};
use crate::protocol::{PacketType, PmnetHeader};

pub use host::ClientHost;
pub(crate) use session::PEER_LOGGER_ID_BASE;
use session::{Absorbed, Completion, Expiry, Session, Which};
pub use session::{AppRequest, ClientMode, RequestKind};

const TIMER_TIMEOUT: u32 = 10;
const TIMER_NEXT: u32 = 11;
const TIMER_LOCAL_LOG: u32 = 12;

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

/// Retransmission-path observability for one client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientRetryCounters {
    /// Retransmission rounds fired (each may resend several fragments).
    pub retransmits: u64,
    /// RTO doublings (timeouts plus congestion signals).
    pub backoffs: u64,
    /// Congestion-flagged server ACKs received (device log under
    /// pressure — see [`crate::protocol::FLAG_CONGESTED`]).
    pub congestion_signals: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub failed: u64,
}

impl pmnet_telemetry::registry::CounterGroup for ClientRetryCounters {
    fn visit_counters(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("retransmits", self.retransmits);
        f("backoffs", self.backoffs);
        f("congestion_signals", self.congestion_signals);
        f("failed", self.failed);
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

/// The client node: Table I's `PMNet_send_update` / `PMNet_bypass` /
/// session functions driven as a closed loop over one [`Session`].
#[derive(Debug)]
pub struct ClientLib {
    host: ClientHost,
    session: Session,
    /// The open exchange's one armed retransmission timer. Whatever ends
    /// the exchange cancels it: from then on its serial is stale and the
    /// timer could only fire as a no-op (DESIGN.md §18).
    rto_timer: Option<EventId>,
    retry_budget: u32,
    retry_counters: ClientRetryCounters,
    source: Box<dyn RequestSource>,
    records: Vec<CompletionRecord>,
    acked_updates: Vec<(u16, u32)>,
    warmup: usize,
    finished: bool,
    alive: bool,
    /// Times this client has been power-cycled (observability for chaos
    /// liveness checks).
    crashes: u32,
    telemetry: Telemetry,
}

impl ClientLib {
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
        ClientLib {
            host: ClientHost::new(addr, server, session, profile),
            session: Session::new(session, mode, addr, server, timeout, retry),
            rto_timer: None,
            retry_budget: retry.retry_budget,
            retry_counters: ClientRetryCounters::default(),
            source,
            records: Vec::new(),
            acked_updates: Vec::new(),
            warmup: 0,
            finished: false,
            alive: true,
            crashes: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: span events, completions and history
    /// events flow into its shared sink. Pure observation — never touches
    /// the RNG or the event queue.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Times this client has been power-cycled.
    pub fn crashes(&self) -> u32 {
        self.crashes
    }

    /// Retransmission/backoff/failure counters.
    pub fn retry_counters(&self) -> ClientRetryCounters {
        self.retry_counters
    }

    /// Uses TCP framing/costs for this client's traffic (baseline Redis /
    /// Twitter / TPCC keep their native TCP, Section VI-A3).
    pub fn with_tcp(mut self) -> ClientLib {
        self.host.use_tcp = true;
        self
    }

    /// Skips the first `n` completions in the recorded statistics
    /// (the paper skips 10 k warm-up requests, Section VI-A2).
    pub fn with_warmup(mut self, n: usize) -> ClientLib {
        self.warmup = n;
        self
    }

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

    /// This client's session id.
    pub fn session(&self) -> u16 {
        self.session.id()
    }

    /// This client's address.
    pub fn client_addr(&self) -> Addr {
        self.host.addr
    }

    /// `(session, seq)` of every acknowledged update (audit input), one
    /// entry each under its last fragment's `SeqNum` — the identity the
    /// server's apply reports. Session-qualified because a restarted
    /// client opens a fresh session (see [`Msg::Restore`] handling).
    pub fn acked_updates(&self) -> &[(u16, u32)] {
        &self.acked_updates
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_>) {
        let Some(req) = self.source.next_request(ctx.rng()) else {
            self.finished = true;
            return;
        };
        let Ok(serial) = self.session.begin(req.clone(), ctx.now()) else {
            // Too large for the wire: nothing was sent or numbered.
            self.fail(ctx, &req);
            return;
        };
        self.host
            .transmit(ctx, &self.telemetry, &self.session, Which::All);
        // Client-side logging: the local logger persists in parallel with
        // the (asynchronous) forward to the server.
        if let ClientMode::ClientSideLog { local_persist, .. } = self.session.mode() {
            if req.kind == RequestKind::Update {
                ctx.timer_in(
                    *local_persist,
                    Timer {
                        kind: TIMER_LOCAL_LOG,
                        a: serial,
                        b: 0,
                    },
                );
            }
        }
        self.arm_timeout(ctx, serial);
    }

    fn arm_timeout(&mut self, ctx: &mut Ctx<'_>, serial: u64) {
        self.disarm_timeout(ctx);
        self.rto_timer = Some(ctx.timer_in(
            self.session.rto(),
            Timer {
                kind: TIMER_TIMEOUT,
                a: serial,
                b: 0,
            },
        ));
    }

    fn disarm_timeout(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(id) = self.rto_timer.take() {
            ctx.cancel(id);
        }
    }

    /// The request will never complete (retry budget spent, or too large
    /// to send): durability is not claimed for it — it never enters
    /// `acked_updates` or the latency records — and the workload goes on.
    fn fail(&mut self, ctx: &mut Ctx<'_>, req: &AppRequest) {
        self.disarm_timeout(ctx);
        self.retry_counters.failed += 1;
        self.source.on_outcome(req, UpdateOutcome::Failed);
        ctx.timer_in(self.host.profile.app_overhead, Timer::of_kind(TIMER_NEXT));
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, done: Completion) {
        self.disarm_timeout(ctx);
        let req = &done.request;
        if req.app.kind == RequestKind::Update {
            self.acked_updates.push((req.session, req.frag_range.1));
        }
        let latency = self
            .host
            .report(ctx, &self.telemetry, &done, done.issued_at);
        self.records.push(CompletionRecord {
            kind: req.app.kind,
            latency,
            at: ctx.now(),
            retries: req.attempt,
        });
        self.source.on_complete(&req.app, done.reply.as_ref());
        self.source.on_outcome(&req.app, UpdateOutcome::Completed);
        ctx.timer_in(self.host.profile.app_overhead, Timer::of_kind(TIMER_NEXT));
    }

    fn on_absorbed(&mut self, ctx: &mut Ctx<'_>, absorbed: Absorbed) {
        match absorbed {
            Absorbed::Ignored | Absorbed::Progress => {}
            Absorbed::Resend(frag) => {
                self.host
                    .transmit(ctx, &self.telemetry, &self.session, Which::One(frag));
            }
            Absorbed::Done(done) => self.complete(ctx, done),
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, header: PmnetHeader, payload: Bytes) {
        if header.ptype == PacketType::EpochNotify {
            if self.host.rehomed(&header) {
                self.host
                    .transmit(ctx, &self.telemetry, &self.session, Which::Incomplete);
            }
            return;
        }
        // A congestion-flagged ACK means the device log bypassed an update
        // under pressure (LogFull / QueueFull). The closed-loop policy
        // backs off on any such signal while a request is open, whether or
        // not it answers that request (DESIGN.md §9.1).
        if header.ptype == PacketType::ServerAck
            && header.is_congested()
            && self.session.open().is_some()
        {
            self.retry_counters.congestion_signals += 1;
            self.retry_counters.backoffs += 1;
            self.session.back_off();
        }
        let absorbed = self.session.absorb(&header, payload, ctx.now());
        self.on_absorbed(ctx, absorbed);
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_>, serial: u64) {
        match self.session.expire(serial, self.retry_budget) {
            Expiry::Stale => {}
            Expiry::Resend => {
                self.retry_counters.retransmits += 1;
                self.retry_counters.backoffs += 1;
                self.host
                    .transmit(ctx, &self.telemetry, &self.session, Which::Incomplete);
                self.arm_timeout(ctx, serial);
            }
            Expiry::Exhausted => {
                let gone = self
                    .host
                    .abandon(&self.telemetry, &mut self.session)
                    .expect("an exhausted exchange is open");
                self.fail(ctx, &gone.app);
            }
        }
    }
}

impl Node for ClientLib {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            // Idempotent power transitions: a second crash inside an
            // existing downtime window (overlapping fault schedules) must
            // not count another crash, and a stray restore while running
            // must not reset the session mid-flight.
            Msg::Crash if !self.alive => {}
            Msg::Restore if self.alive => {}
            Msg::Crash => {
                self.alive = false;
                self.crashes += 1;
                // The in-flight request and its volatile retry state are
                // lost. Completion and ACK records model results already
                // handed to the application (and audited as acknowledged),
                // so they survive the restart.
                self.host.abandon(&self.telemetry, &mut self.session);
                self.disarm_timeout(ctx);
            }
            Msg::Restore => {
                self.alive = true;
                // A restarted application opens a fresh session. Striding
                // by 1000 keeps restarted sessions from colliding with
                // other clients' (which are small indices).
                self.session.reopen(1000);
                // Resume the workload with the next request; the one that
                // was in flight at the crash is abandoned.
                self.issue_next(ctx);
            }
            _ if !self.alive => {}
            Msg::Start => self.issue_next(ctx),
            Msg::Packet { port, packet } => {
                let spent = |h: &PmnetHeader| self.session.spent(h);
                if let Some(packet) = self.host.receive(ctx, &self.telemetry, port, packet, spent) {
                    for (header, payload) in ClientHost::frames(&packet) {
                        self.on_frame(ctx, header, payload);
                    }
                }
            }
            Msg::Timer(Timer { kind, a, .. }) => match kind {
                // Guarded so a timer from before a crash can't double-issue
                // after the restart re-primed the loop.
                TIMER_NEXT if self.session.open().is_none() && !self.finished => {
                    self.issue_next(ctx)
                }
                TIMER_TIMEOUT => self.on_timeout(ctx, a),
                TIMER_LOCAL_LOG => {
                    let absorbed = self.session.logged_locally(a, ctx.now());
                    self.on_absorbed(ctx, absorbed);
                }
                _ => {}
            },
            _ => {}
        }
    }

    fn addr(&self) -> Option<Addr> {
        Some(self.host.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::session::MAX_FRAGMENT_PAYLOAD;
    use super::*;
    use crate::api::{update, ScriptSource};

    #[test]
    fn fragmentation_splits_large_updates() {
        let mut c = ClientLib::new(
            Addr(1),
            Addr(9),
            0,
            ClientMode::Pmnet { needed_acks: 1 },
            HostProfile::kernel_client(),
            Dur::millis(10),
            RetryConfig::default(),
            Box::new(ScriptSource::new([update(vec![7u8; 4000])])),
        );
        // 1500 - 42 - 24 = 1434 per fragment -> 3 fragments for 4000 B
        // (`tests/session_props.rs` drives the real split).
        assert_eq!(MAX_FRAGMENT_PAYLOAD, 1434);
        assert_eq!(4000usize.div_ceil(MAX_FRAGMENT_PAYLOAD), 3);
        c.warmup = 1;
        assert!(c.records().is_empty());
    }
}
