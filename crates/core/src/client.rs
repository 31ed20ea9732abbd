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

use std::collections::BTreeSet;
use std::fmt;

use bytes::Bytes;
use pmnet_net::{Addr, Ctx, Msg, Node, Packet, PortNo, Proto, Timer};
use pmnet_sim::{Dur, SimRng, Time};

use pmnet_telemetry::span::{AckKind, Evidence, OpCompletion, OpEvent, OpKind};
use pmnet_telemetry::Telemetry;

use crate::batch::BatchFrames;
use crate::config::{HostProfile, RetryConfig, MTU_BYTES};
#[cfg(feature = "recorder")]
use crate::events::{Event, EventKind, Recorder};
use crate::protocol::{PacketType, PmnetHeader, HEADER_LEN};

/// Sentinel ingress port marking a packet that has finished traversing the
/// receive stack.
const POST_STACK: PortNo = PortNo(200);

const TIMER_TIMEOUT: u32 = 10;
const TIMER_NEXT: u32 = 11;
const TIMER_LOCAL_LOG: u32 = 12;

/// Device ids at or above this value are client-side peer loggers, not
/// in-network PMNet devices.
pub(crate) const PEER_LOGGER_ID_BASE: u8 = 200;

/// The host a client node runs on: its address, the flow its requests
/// travel on, and the network-stack cost model between the application
/// and the wire. [`ClientLib`] and `pmnet-traffic`'s open-loop engine both
/// hold one, so the two client state machines cross the same stack.
#[derive(Debug, Clone)]
pub struct ClientHost {
    /// This client's address.
    pub addr: Addr,
    /// The server requests are addressed to.
    pub server: Addr,
    /// The stack's per-layer cost distributions.
    pub profile: HostProfile,
    /// TCP framing/costs instead of UDP.
    use_tcp: bool,
    src_port: u16,
    server_port: u16,
}

impl ClientHost {
    /// A UDP host; `index` picks the source port.
    pub fn new(addr: Addr, server: Addr, index: u16, profile: HostProfile) -> ClientHost {
        ClientHost {
            addr,
            server,
            profile,
            use_tcp: false,
            src_port: 51001 + index % 999,
            server_port: 51000,
        }
    }

    /// Samples the user + kernel transmit stack for one packet.
    pub fn tx_delay(&self, ctx: &mut Ctx<'_>, payload_len: u32) -> Dur {
        let mut d = self.profile.user_tx.sample(ctx.rng(), payload_len)
            + self.profile.kernel_tx.sample(ctx.rng(), payload_len);
        if self.use_tcp {
            d += HostProfile::tcp_extra();
        }
        d
    }

    fn rx_delay(&self, ctx: &mut Ctx<'_>, payload_len: u32) -> Dur {
        let mut d = self.profile.kernel_rx.sample(ctx.rng(), payload_len)
            + self.profile.user_rx.sample(ctx.rng(), payload_len);
        if self.use_tcp {
            d += HostProfile::tcp_extra();
        }
        d
    }

    /// Frames `header` + `payload` as a packet on this host's flow.
    pub fn make_packet(&self, header: &PmnetHeader, payload: &[u8]) -> Packet {
        let body = header.encode(payload);
        let mut p = Packet::udp(
            self.addr,
            self.server,
            self.src_port,
            self.server_port,
            body,
        );
        if self.use_tcp {
            p.proto = Proto::Tcp;
        }
        p
    }

    /// The receive stack. A packet raw off the wire is stamped for span
    /// attribution, charged the kernel + user receive cost and re-posted
    /// to this node on the post-stack port (`None`); one arriving on that
    /// port has finished the climb and is handed back.
    pub fn receive(
        &self,
        ctx: &mut Ctx<'_>,
        telemetry: &Telemetry,
        port: PortNo,
        packet: Packet,
    ) -> Option<Packet> {
        if port == POST_STACK {
            return Some(packet);
        }
        if telemetry.is_enabled() {
            // A coalesced batch carries several acks behind one wire
            // arrival: every inner frame gets its own recv stamp so
            // per-op spans stay attributable.
            let mut headers: Vec<PmnetHeader> = Vec::new();
            if crate::batch::is_batch(&packet.payload) {
                if let Some(frames) = BatchFrames::decode(&packet.payload) {
                    headers.extend(frames.map(|(h, _)| h));
                }
            } else if let Some(h) = PmnetHeader::peek(&packet.payload) {
                headers.push(h);
            }
            for h in headers {
                let kind = match h.ptype {
                    PacketType::PmnetAck => Some(if h.device_id >= PEER_LOGGER_ID_BASE {
                        AckKind::Peer(h.device_id)
                    } else {
                        AckKind::Device(h.device_id)
                    }),
                    PacketType::ServerAck => Some(AckKind::Server),
                    PacketType::AppReply => Some(AckKind::Reply),
                    PacketType::CacheResp => Some(AckKind::Cache),
                    _ => None,
                };
                if let Some(kind) = kind {
                    telemetry.op_event(
                        self.addr,
                        ctx.now(),
                        (self.addr, h.session, h.seq),
                        OpEvent::ClientRecv {
                            kind,
                            at: ctx.now(),
                        },
                    );
                }
            }
        }
        let delay = self.rx_delay(ctx, packet.payload.len() as u32);
        let self_id = ctx.self_id();
        ctx.message_in(
            delay,
            self_id,
            Msg::Packet {
                port: POST_STACK,
                packet,
            },
        );
        None
    }
}

/// What kind of request the application issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A state-changing request: logged by PMNet (update-req).
    Update,
    /// A read or synchronization request: forwarded to the server
    /// (bypass-req).
    Bypass,
}

/// One application request.
#[derive(Debug, Clone)]
pub struct AppRequest {
    /// Update or bypass.
    pub kind: RequestKind,
    /// Application payload (e.g. an encoded [`crate::kvproto::KvFrame`]).
    pub payload: Bytes,
}

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

/// RFC 6298-style retransmission-timeout estimator with exponential
/// backoff.
///
/// Maintains the smoothed RTT (`SRTT`) and RTT variance (`RTTVAR`) from
/// completion-time samples, computes `RTO = SRTT + 4·RTTVAR` clamped to
/// the configured `[rto_min, rto_max]` band, and doubles the effective
/// timeout per unanswered retransmission round (Karn's algorithm: only
/// un-retransmitted requests contribute samples, so a retransmitted ACK
/// can't be mis-attributed to the wrong transmission).
#[derive(Debug, Clone, Copy)]
pub struct RtoEstimator {
    initial: Dur,
    cfg: RetryConfig,
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    backoff_shift: u32,
}

impl RtoEstimator {
    /// Creates an estimator seeded with `initial` (used until the first
    /// RTT sample arrives), bounded by `cfg`'s RTO band.
    pub fn new(initial: Dur, cfg: RetryConfig) -> RtoEstimator {
        RtoEstimator {
            initial,
            cfg,
            srtt_ns: None,
            rttvar_ns: 0,
            backoff_shift: 0,
        }
    }

    /// Feeds one RTT sample (from an un-retransmitted request) and clears
    /// any accumulated backoff.
    pub fn sample(&mut self, rtt: Dur) {
        let r = rtt.as_nanos();
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2;
            }
            Some(srtt) => {
                self.rttvar_ns = (3 * self.rttvar_ns + srtt.abs_diff(r)) / 4;
                self.srtt_ns = Some((7 * srtt + r) / 8);
            }
        }
        self.backoff_shift = 0;
    }

    /// The current effective RTO: the estimator's base value shifted left
    /// by the backoff count, clamped to `[rto_min, rto_max]`.
    pub fn current(&self) -> Dur {
        let base = match self.srtt_ns {
            Some(srtt) => srtt.saturating_add(4u64.saturating_mul(self.rttvar_ns)),
            None => self.initial.as_nanos(),
        };
        let shifted = base.saturating_mul(1u64 << self.backoff_shift.min(20));
        Dur::nanos(shifted)
            .max(self.cfg.rto_min)
            .min(self.cfg.rto_max)
    }

    /// Doubles the effective RTO (capped at `rto_max`) after an unanswered
    /// round or a congestion signal.
    pub fn back_off(&mut self) {
        self.backoff_shift = (self.backoff_shift + 1).min(20);
    }
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

/// How the client reaches persistence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMode {
    /// Traditional Client-Server: wait for the server (Section VI-A4).
    Baseline,
    /// In-network persistence: wait for `needed_acks` distinct PMNet
    /// devices (1 normally; the replication factor with Section IV-C
    /// chained devices).
    Pmnet {
        /// Distinct device ACKs required per fragment.
        needed_acks: u8,
    },
    /// Client-side logging (Figure 17a): a dedicated local logger process,
    /// optionally replicated to peer loggers on other client machines.
    ClientSideLog {
        /// Peer logger addresses (empty = no replication).
        peers: Vec<Addr>,
        /// Local IPC + PM persist latency (one-way IPC, write, IPC back).
        local_persist: Dur,
    },
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

#[derive(Debug)]
struct FragState {
    header: PmnetHeader,
    payload: Bytes,
    device_acks: BTreeSet<u8>,
    peer_acks: BTreeSet<u8>,
    server_acked: bool,
}

#[derive(Debug)]
struct Outstanding {
    req: AppRequest,
    serial: u64,
    issued_at: Time,
    attempt: u32,
    frags: Vec<FragState>,
    local_log_done: bool,
    reply: Option<Bytes>,
}

/// The client node: Table I's `PMNet_send_update` / `PMNet_bypass` /
/// session functions driven as a closed loop.
#[derive(Debug)]
pub struct ClientLib {
    host: ClientHost,
    mode: ClientMode,
    timeout: Dur,
    retry: RetryConfig,
    rto: RtoEstimator,
    retry_counters: ClientRetryCounters,
    source: Box<dyn RequestSource>,
    session: u16,
    update_seq: u32,
    bypass_seq: u32,
    serial: u64,
    outstanding: Option<Outstanding>,
    /// The highest fabric epoch seen in an `EpochNotify` (sharded
    /// designs); duplicate notices for the same epoch are no-ops.
    fabric_epoch: u64,
    records: Vec<CompletionRecord>,
    acked_updates: Vec<(u16, u32)>,
    warmup: usize,
    finished: bool,
    alive: bool,
    /// Times this client has been power-cycled (observability for chaos
    /// liveness checks).
    crashes: u32,
    telemetry: Telemetry,
    /// The last ack/reply absorbed into the outstanding request — the
    /// completion evidence span attribution chains from.
    last_evidence: Option<(Evidence, u16, u32)>,
    #[cfg(feature = "recorder")]
    recorder: Recorder,
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
            mode,
            timeout,
            retry,
            rto: RtoEstimator::new(timeout, retry),
            retry_counters: ClientRetryCounters::default(),
            source,
            session,
            update_seq: 0,
            bypass_seq: 0,
            serial: 0,
            outstanding: None,
            fabric_epoch: 0,
            records: Vec::new(),
            acked_updates: Vec::new(),
            warmup: 0,
            finished: false,
            alive: true,
            crashes: 0,
            telemetry: Telemetry::disabled(),
            last_evidence: None,
            #[cfg(feature = "recorder")]
            recorder: Recorder::default(),
        }
    }

    /// Attaches a telemetry handle: span events and completions flow into
    /// its shared sink. Pure observation — never touches the RNG or the
    /// event queue.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attaches a history recorder: invocation and completion events flow
    /// into `recorder`'s shared tap for the `pmnet-model` checker.
    #[cfg(feature = "recorder")]
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
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
        self.session
    }

    /// This client's address.
    pub fn client_addr(&self) -> Addr {
        self.host.addr
    }

    /// `(session, seq)` of every acknowledged update packet (audit input;
    /// one entry per fragment). Session-qualified because a restarted
    /// client opens a fresh session (see [`Msg::Restore`] handling).
    pub fn acked_updates(&self) -> &[(u16, u32)] {
        &self.acked_updates
    }

    fn max_fragment_payload(&self) -> usize {
        MTU_BYTES - 42 - HEADER_LEN
    }

    fn send_fragments(&mut self, ctx: &mut Ctx<'_>, only_incomplete: bool) {
        let Some(out) = &self.outstanding else { return };
        let attempt = out.attempt;
        let is_update = out.req.kind == RequestKind::Update;
        let frag_info: Vec<(PmnetHeader, Bytes, bool, BTreeSet<u8>)> = out
            .frags
            .iter()
            .map(|f| {
                let done = Self::frag_done(&self.mode, f);
                (f.header, f.payload.clone(), done, f.peer_acks.clone())
            })
            .collect();
        let peers: Vec<Addr> = match &self.mode {
            ClientMode::ClientSideLog { peers, .. } if is_update => peers.clone(),
            _ => Vec::new(),
        };
        let mut cumulative = Dur::ZERO;
        for (header, payload, done, peer_acks) in frag_info {
            if only_incomplete && done {
                continue;
            }
            cumulative += self.host.tx_delay(ctx, payload.len() as u32);
            let pkt = self.host.make_packet(&header, &payload);
            ctx.send_after(cumulative, PortNo(0), pkt);
            // The wire-entry stamp reuses the already-computed cumulative
            // delay: recording draws nothing from the RNG.
            self.telemetry.op_event(
                self.host.addr,
                ctx.now(),
                (self.host.addr, header.session, header.seq),
                OpEvent::ClientSend {
                    attempt,
                    tx_start: ctx.now(),
                    wire_at: ctx.now() + cumulative,
                },
            );
            // Client-side logging with replication: the logger process
            // fans copies out to each peer logger concurrently with the
            // main send (Figure 17a).
            for (i, peer) in peers.iter().enumerate() {
                let peer_id = PEER_LOGGER_ID_BASE + i as u8;
                if only_incomplete && peer_acks.contains(&peer_id) {
                    continue;
                }
                let copy_delay = self.host.tx_delay(ctx, payload.len() as u32);
                let mut copy = self.host.make_packet(&header, &payload);
                copy.dst = *peer;
                ctx.send_after(copy_delay, PortNo(0), copy);
            }
        }
    }

    fn frag_done(mode: &ClientMode, f: &FragState) -> bool {
        match mode {
            ClientMode::Baseline => f.server_acked,
            // With a single persistence copy, the server's ACK is strictly
            // stronger than a device ACK and also completes the fragment
            // (the device-bypass fallback of Section IV-B1). With
            // replication, the client must hold out for the full
            // replication strength (Section IV-E2).
            ClientMode::Pmnet { needed_acks } => {
                f.device_acks.len() >= usize::from(*needed_acks)
                    || (*needed_acks == 1 && f.server_acked)
            }
            ClientMode::ClientSideLog { peers, .. } => f.peer_acks.len() >= peers.len(),
        }
    }

    fn request_done(&self) -> bool {
        let Some(out) = &self.outstanding else {
            return false;
        };
        let frags_ok = out.frags.iter().all(|f| Self::frag_done(&self.mode, f));
        let local_ok = match &self.mode {
            ClientMode::ClientSideLog { .. } => {
                out.local_log_done || matches!(out.req.kind, RequestKind::Bypass)
            }
            _ => true,
        };
        // Bypass requests need the server's (or cache's) reply.
        let reply_ok = match out.req.kind {
            RequestKind::Bypass => out.reply.is_some(),
            RequestKind::Update => true,
        };
        match out.req.kind {
            RequestKind::Update => frags_ok && local_ok,
            RequestKind::Bypass => reply_ok,
        }
    }

    fn try_complete(&mut self, ctx: &mut Ctx<'_>) {
        if !self.request_done() {
            return;
        }
        let out = self.outstanding.take().expect("request_done checked");
        #[cfg(feature = "recorder")]
        {
            let last = out.frags.last().expect("at least one fragment");
            self.recorder.record(Event {
                at: ctx.now(),
                client: self.host.addr,
                session: last.header.session,
                seq: last.header.seq,
                kind: EventKind::Complete {
                    kind: out.req.kind,
                    reply: out.reply.clone(),
                    device_acks: out
                        .frags
                        .iter()
                        .map(|f| f.device_acks.len())
                        .min()
                        .unwrap_or(0) as u8,
                    server_acked: out.frags.iter().all(|f| f.server_acked),
                },
            });
        }
        if out.req.kind == RequestKind::Update {
            self.acked_updates
                .extend(out.frags.iter().map(|f| (f.header.session, f.header.seq)));
        }
        // Karn's algorithm: only un-retransmitted requests yield RTT
        // samples (a retransmitted ACK is ambiguous about which
        // transmission it answers).
        if out.attempt == 0 {
            self.rto.sample(ctx.now() - out.issued_at);
        }
        let latency = ctx.now() - out.issued_at + self.host.profile.app_overhead;
        if self.telemetry.is_enabled() {
            // Fragment seqs are assigned contiguously at issue, so the
            // first/last headers bound them all.
            let frag_range = (
                out.frags.first().map(|f| f.header.seq).unwrap_or_default(),
                out.frags.last().map(|f| f.header.seq).unwrap_or_default(),
            );
            let session = out
                .frags
                .last()
                .map(|f| f.header.session)
                .unwrap_or(self.session);
            let (evidence, completing_seq) = match self.last_evidence {
                Some((ev, s, q))
                    if out
                        .frags
                        .iter()
                        .any(|f| f.header.session == s && f.header.seq == q) =>
                {
                    (ev, q)
                }
                _ => (Evidence::LocalLog, frag_range.1),
            };
            self.telemetry.op_complete(
                self.host.addr,
                ctx.now(),
                OpCompletion {
                    client: self.host.addr,
                    session,
                    completing_seq,
                    frag_range,
                    kind: match out.req.kind {
                        RequestKind::Update => OpKind::Update,
                        RequestKind::Bypass => OpKind::Read,
                    },
                    issued_at: out.issued_at,
                    completed_at: ctx.now(),
                    latency,
                    retries: out.attempt,
                    evidence,
                },
            );
            self.last_evidence = None;
        }
        self.records.push(CompletionRecord {
            kind: out.req.kind,
            latency,
            at: ctx.now(),
            retries: out.attempt,
        });
        self.source.on_complete(&out.req, out.reply.as_ref());
        self.source.on_outcome(&out.req, UpdateOutcome::Completed);
        ctx.timer_in(self.host.profile.app_overhead, Timer::of_kind(TIMER_NEXT));
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(self.outstanding.is_none(), "closed loop violated");
        let Some(req) = self.source.next_request(ctx.rng()) else {
            self.finished = true;
            return;
        };
        self.serial += 1;
        let serial = self.serial;
        let max_frag = self.max_fragment_payload();
        let mut frags = Vec::new();
        match req.kind {
            RequestKind::Update => {
                let chunks: Vec<&[u8]> = if req.payload.is_empty() {
                    vec![&[][..]]
                } else {
                    req.payload.chunks(max_frag).collect()
                };
                let cnt = chunks.len() as u16;
                for (i, chunk) in chunks.iter().enumerate() {
                    let seq = self.update_seq;
                    self.update_seq += 1;
                    let header = PmnetHeader::request(
                        PacketType::UpdateReq,
                        self.session,
                        seq,
                        self.host.addr,
                        self.host.server,
                        i as u16,
                        cnt,
                    )
                    .with_payload(chunk);
                    frags.push(FragState {
                        header,
                        payload: req.payload.slice(i * max_frag..i * max_frag + chunk.len()),
                        device_acks: BTreeSet::new(),
                        peer_acks: BTreeSet::new(),
                        server_acked: false,
                    });
                }
            }
            RequestKind::Bypass => {
                assert!(
                    req.payload.len() <= max_frag,
                    "bypass requests must fit one MTU"
                );
                let seq = self.bypass_seq;
                self.bypass_seq += 1;
                let header = PmnetHeader::request(
                    PacketType::BypassReq,
                    self.session,
                    seq,
                    self.host.addr,
                    self.host.server,
                    0,
                    1,
                )
                .with_payload(&req.payload);
                frags.push(FragState {
                    header,
                    payload: req.payload.clone(),
                    device_acks: BTreeSet::new(),
                    peer_acks: BTreeSet::new(),
                    server_acked: false,
                });
            }
        }
        #[cfg(feature = "recorder")]
        self.recorder.record(Event {
            at: ctx.now(),
            client: self.host.addr,
            session: self.session,
            seq: frags.last().expect("at least one fragment").header.seq,
            kind: EventKind::Invoke {
                kind: req.kind,
                payload: req.payload.clone(),
            },
        });
        if let Some(last) = frags.last() {
            self.telemetry.op_issue(
                self.host.addr,
                ctx.now(),
                (self.host.addr, last.header.session, last.header.seq),
                match req.kind {
                    RequestKind::Update => OpKind::Update,
                    RequestKind::Bypass => OpKind::Read,
                },
            );
        }
        self.outstanding = Some(Outstanding {
            req,
            serial,
            issued_at: ctx.now(),
            attempt: 0,
            frags,
            local_log_done: false,
            reply: None,
        });
        self.send_fragments(ctx, false);
        // Client-side logging: the local logger persists in parallel with
        // the (asynchronous) forward to the server.
        if let ClientMode::ClientSideLog { local_persist, .. } = &self.mode {
            if matches!(
                self.outstanding.as_ref().map(|o| o.req.kind),
                Some(RequestKind::Update)
            ) {
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
        ctx.timer_in(
            self.rto.current(),
            Timer {
                kind: TIMER_TIMEOUT,
                a: serial,
                b: 0,
            },
        );
    }

    /// Retry-budget exhausted: abandon the request without claiming
    /// durability (it never entered `acked_updates` or the latency
    /// records) and let the workload continue.
    fn fail_outstanding(&mut self, ctx: &mut Ctx<'_>) {
        let out = self.outstanding.take().expect("caller checked");
        if self.telemetry.is_enabled() {
            let frags: Vec<(u16, u32)> = out
                .frags
                .iter()
                .map(|f| (f.header.session, f.header.seq))
                .collect();
            self.telemetry.op_abandon(self.host.addr, &frags);
        }
        self.retry_counters.failed += 1;
        self.source.on_outcome(&out.req, UpdateOutcome::Failed);
        ctx.timer_in(self.host.profile.app_overhead, Timer::of_kind(TIMER_NEXT));
    }

    fn on_post_stack_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        // A coalesced batch from a device: every inner frame is processed
        // as if it had arrived alone (each carries its own identity hash).
        // The batch check comes first — a batch body never parses as a
        // plain header, and vice versa.
        if crate::batch::is_batch(&packet.payload) {
            if let Some(frames) = BatchFrames::decode(&packet.payload) {
                for (header, payload) in frames {
                    self.on_post_stack_frame(ctx, header, payload);
                }
            }
            return;
        }
        let Some((header, payload)) = PmnetHeader::decode(&packet.payload) else {
            return;
        };
        self.on_post_stack_frame(ctx, header, payload);
    }

    fn on_post_stack_frame(&mut self, ctx: &mut Ctx<'_>, header: PmnetHeader, payload: Bytes) {
        if header.ptype == PacketType::EpochNotify {
            // The fabric re-homed a shard (epoch rides in `seq`). Any
            // fragment still in flight may have died with the fenced
            // device, and the ack it was waiting for will never come:
            // resend the incomplete ones immediately. This is not a
            // timeout, so the attempt budget is untouched; the resend is
            // deduplicated by the new chain's log and the server.
            let epoch = u64::from(header.seq);
            if epoch > self.fabric_epoch {
                self.fabric_epoch = epoch;
                if self.outstanding.is_some() {
                    self.send_fragments(ctx, true);
                    self.try_complete(ctx);
                }
            }
            return;
        }
        let Some(out) = &mut self.outstanding else {
            return; // late ACK for an already-completed request
        };
        match header.ptype {
            PacketType::PmnetAck => {
                for f in &mut out.frags {
                    // The echoed hash doubles as an integrity check: a bit
                    // flipped in the ACK's identity fields (or the hash
                    // itself) breaks the match and the ACK is ignored.
                    if f.header.seq == header.seq
                        && f.header.session == header.session
                        && f.header.hash == header.hash
                        && f.header.ptype == PacketType::UpdateReq
                    {
                        if header.device_id >= PEER_LOGGER_ID_BASE {
                            f.peer_acks.insert(header.device_id);
                            self.last_evidence =
                                Some((Evidence::LocalLog, header.session, header.seq));
                        } else {
                            f.device_acks.insert(header.device_id);
                            self.last_evidence = Some((
                                Evidence::DeviceAck {
                                    device: header.device_id,
                                },
                                header.session,
                                header.seq,
                            ));
                        }
                    }
                }
            }
            PacketType::ServerAck => {
                // A congestion-flagged ACK means the device log bypassed
                // this update under pressure (LogFull / QueueFull): widen
                // the RTO so retransmissions don't hammer a full log.
                if header.is_congested() {
                    self.retry_counters.congestion_signals += 1;
                    self.retry_counters.backoffs += 1;
                    self.rto.back_off();
                }
                for f in &mut out.frags {
                    if f.header.seq == header.seq
                        && f.header.session == header.session
                        && f.header.hash == header.hash
                        && f.header.ptype == PacketType::UpdateReq
                    {
                        f.server_acked = true;
                        self.last_evidence =
                            Some((Evidence::ServerAck, header.session, header.seq));
                    }
                }
            }
            PacketType::AppReply | PacketType::CacheResp
                if out.req.kind == RequestKind::Bypass
                    && out.frags.first().is_some_and(|f| {
                        f.header.seq == header.seq
                            && f.header.session == header.session
                            && f.header.hash == header.hash
                    }) =>
            {
                out.reply = Some(payload);
                let ev = if header.ptype == PacketType::CacheResp {
                    Evidence::CacheResp
                } else {
                    Evidence::AppReply
                };
                self.last_evidence = Some((ev, header.session, header.seq));
            }
            PacketType::Retrans => {
                // The server is missing one of our packets and no device
                // could serve it: resend that fragment.
                let frag: Option<(PmnetHeader, Bytes)> = out
                    .frags
                    .iter()
                    .find(|f| {
                        f.header.seq == header.seq
                            && f.header.session == header.session
                            && f.header.hash == header.hash
                    })
                    .map(|f| (f.header, f.payload.clone()));
                let attempt = out.attempt;
                if let Some((h, p)) = frag {
                    let delay = self.host.tx_delay(ctx, p.len() as u32);
                    let pkt = self.host.make_packet(&h, &p);
                    ctx.send_after(delay, PortNo(0), pkt);
                    self.telemetry.op_event(
                        self.host.addr,
                        ctx.now(),
                        (self.host.addr, h.session, h.seq),
                        OpEvent::ClientSend {
                            attempt,
                            tx_start: ctx.now(),
                            wire_at: ctx.now() + delay,
                        },
                    );
                }
            }
            _ => {}
        }
        self.try_complete(ctx);
    }
}

impl Node for ClientLib {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            // Idempotent power transitions: a second crash inside an
            // existing downtime window (overlapping fault schedules) must
            // not count another crash, and a stray restore while running
            // must not reset the session mid-flight.
            Msg::Crash if !self.alive => return,
            Msg::Restore if self.alive => return,
            Msg::Crash => {
                self.alive = false;
                self.crashes += 1;
                // The in-flight request and its volatile retry state are
                // lost. Completion and ACK records model results already
                // handed to the application (and audited as acknowledged),
                // so they survive the restart.
                if let Some(out) = self.outstanding.take() {
                    if self.telemetry.is_enabled() {
                        let frags: Vec<(u16, u32)> = out
                            .frags
                            .iter()
                            .map(|f| (f.header.session, f.header.seq))
                            .collect();
                        self.telemetry.op_abandon(self.host.addr, &frags);
                    }
                }
                return;
            }
            Msg::Restore => {
                self.alive = true;
                // A restarted application opens a fresh session (Table I:
                // `PMNet_start_session`): the crash may have abandoned an
                // unsent sequence number, and the server must not wait on
                // that hole forever. Striding by 1000 keeps restarted
                // sessions from colliding with other clients' (which are
                // small indices).
                self.session = self.session.wrapping_add(1000);
                self.update_seq = 0;
                self.bypass_seq = 0;
                // RTT history died with the process.
                self.rto = RtoEstimator::new(self.timeout, self.retry);
                // Resume the workload with the next request; the one that
                // was in flight at the crash is abandoned.
                self.issue_next(ctx);
                return;
            }
            _ if !self.alive => return,
            _ => {}
        }
        match msg {
            Msg::Start => self.issue_next(ctx),
            Msg::Packet { port, packet } => {
                if let Some(packet) = self.host.receive(ctx, &self.telemetry, port, packet) {
                    self.on_post_stack_packet(ctx, packet);
                }
            }
            Msg::Timer(Timer { kind, a, .. }) => match kind {
                // Guarded so a timer from before a crash can't double-issue
                // after the restart re-primed the loop.
                TIMER_NEXT if self.outstanding.is_none() && !self.finished => self.issue_next(ctx),
                TIMER_NEXT => {}
                TIMER_TIMEOUT => {
                    if let Some(out) = &mut self.outstanding {
                        if out.serial == a {
                            if out.attempt >= self.retry.retry_budget {
                                self.fail_outstanding(ctx);
                                return;
                            }
                            out.attempt += 1;
                            self.retry_counters.retransmits += 1;
                            self.retry_counters.backoffs += 1;
                            self.rto.back_off();
                            self.send_fragments(ctx, true);
                            ctx.timer_in(
                                self.rto.current(),
                                Timer {
                                    kind: TIMER_TIMEOUT,
                                    a,
                                    b: 0,
                                },
                            );
                        }
                    }
                }
                TIMER_LOCAL_LOG => {
                    if let Some(out) = &mut self.outstanding {
                        if out.serial == a {
                            out.local_log_done = true;
                            self.try_complete(ctx);
                        }
                    }
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
    use super::*;

    /// A source producing `n` fixed-size updates.
    #[derive(Debug)]
    pub(crate) struct FixedSource {
        remaining: usize,
        payload: Bytes,
        kind: RequestKind,
    }

    impl FixedSource {
        pub(crate) fn updates(n: usize, bytes: usize) -> FixedSource {
            FixedSource {
                remaining: n,
                payload: Bytes::from(vec![7u8; bytes]),
                kind: RequestKind::Update,
            }
        }
    }

    impl RequestSource for FixedSource {
        fn next_request(&mut self, _rng: &mut SimRng) -> Option<AppRequest> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(AppRequest {
                kind: self.kind,
                payload: self.payload.clone(),
            })
        }
    }

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
            Box::new(FixedSource::updates(1, 4000)),
        );
        // 1500 - 42 - 24 = 1434 per fragment -> 3 fragments for 4000 B.
        assert_eq!(c.max_fragment_payload(), 1434);
        // Drive issue_next through a world in the integration tests; here
        // just check the arithmetic.
        assert_eq!(4000usize.div_ceil(c.max_fragment_payload()), 3);
        c.warmup = 1;
        assert!(c.records().is_empty());
    }

    #[test]
    fn frag_done_rules_per_mode() {
        let header = PmnetHeader::request(PacketType::UpdateReq, 0, 0, Addr(1), Addr(9), 0, 1);
        let mut f = FragState {
            header,
            payload: Bytes::new(),
            device_acks: BTreeSet::new(),
            peer_acks: BTreeSet::new(),
            server_acked: false,
        };
        assert!(!ClientLib::frag_done(&ClientMode::Baseline, &f));
        assert!(!ClientLib::frag_done(
            &ClientMode::Pmnet { needed_acks: 1 },
            &f
        ));
        f.device_acks.insert(1);
        assert!(ClientLib::frag_done(
            &ClientMode::Pmnet { needed_acks: 1 },
            &f
        ));
        assert!(!ClientLib::frag_done(
            &ClientMode::Pmnet { needed_acks: 2 },
            &f
        ));
        f.device_acks.insert(2);
        assert!(ClientLib::frag_done(
            &ClientMode::Pmnet { needed_acks: 2 },
            &f
        ));
        // Server ACK completes the baseline and unreplicated PMNet mode
        // (device-bypass fallback), but NOT a replicated PMNet mode: the
        // client must reach full replication strength (Section IV-E2).
        let g = FragState {
            header,
            payload: Bytes::new(),
            device_acks: BTreeSet::new(),
            peer_acks: BTreeSet::new(),
            server_acked: true,
        };
        assert!(ClientLib::frag_done(&ClientMode::Baseline, &g));
        assert!(ClientLib::frag_done(
            &ClientMode::Pmnet { needed_acks: 1 },
            &g
        ));
        assert!(!ClientLib::frag_done(
            &ClientMode::Pmnet { needed_acks: 3 },
            &g
        ));
    }

    #[test]
    fn rto_estimator_follows_rfc_6298_arithmetic() {
        let cfg = RetryConfig {
            rto_min: Dur::micros(1),
            rto_max: Dur::secs(10),
            ..RetryConfig::default()
        };
        let mut e = RtoEstimator::new(Dur::millis(10), cfg);
        // Before any sample the initial seed rules.
        assert_eq!(e.current(), Dur::millis(10));
        // First sample: SRTT = R, RTTVAR = R/2, RTO = R + 4·(R/2) = 3R.
        e.sample(Dur::micros(100));
        assert_eq!(e.current(), Dur::micros(300));
        // A steady RTT collapses the variance toward zero, pulling the
        // RTO down toward SRTT.
        for _ in 0..64 {
            e.sample(Dur::micros(100));
        }
        assert!(e.current() < Dur::micros(120));
        assert!(e.current() >= Dur::micros(100));
    }

    #[test]
    fn rto_backoff_doubles_and_clamps_to_the_cap() {
        let cfg = RetryConfig {
            rto_min: Dur::millis(1),
            rto_max: Dur::millis(8),
            settle_window: Dur::millis(20),
            ..RetryConfig::default()
        };
        let mut e = RtoEstimator::new(Dur::millis(2), cfg);
        assert_eq!(e.current(), Dur::millis(2));
        e.back_off();
        assert_eq!(e.current(), Dur::millis(4));
        e.back_off();
        assert_eq!(e.current(), Dur::millis(8));
        e.back_off();
        assert_eq!(e.current(), Dur::millis(8)); // capped
                                                 // A fresh sample clears the backoff.
        e.sample(Dur::micros(500));
        assert_eq!(e.current(), Dur::millis(1).max(Dur::micros(1500)));
    }

    #[test]
    fn rto_floor_is_enforced() {
        let cfg = RetryConfig {
            rto_min: Dur::millis(1),
            ..RetryConfig::default()
        };
        let mut e = RtoEstimator::new(Dur::millis(10), cfg);
        // A tiny, jitter-free RTT cannot drag the RTO below the floor.
        for _ in 0..32 {
            e.sample(Dur::nanos(200));
        }
        assert_eq!(e.current(), Dur::millis(1));
    }

    #[test]
    fn duplicate_device_acks_do_not_double_count() {
        let header = PmnetHeader::request(PacketType::UpdateReq, 0, 0, Addr(1), Addr(9), 0, 1);
        let mut f = FragState {
            header,
            payload: Bytes::new(),
            device_acks: BTreeSet::new(),
            peer_acks: BTreeSet::new(),
            server_acked: false,
        };
        f.device_acks.insert(1);
        f.device_acks.insert(1);
        assert_eq!(f.device_acks.len(), 1);
        assert!(!ClientLib::frag_done(
            &ClientMode::Pmnet { needed_acks: 2 },
            &f
        ));
    }
}
