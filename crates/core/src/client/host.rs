//! The host side of a client node's [`Arena`]: the helpers that lower a
//! slot's [`Session`](super::session::Session) onto the simulator —
//! issue, transmit, the RTO timer, report, abandon — and the receive
//! stack. Every request of every policy crosses them, so the history's
//! client events (invoke on first transmission, complete on report) are
//! recorded here once.

use bytes::Bytes;
use pmnet_net::{Addr, Ctx, Msg, Packet, PortNo, Proto, Timer};
use pmnet_sim::{Dur, Time};
use pmnet_telemetry::history::{Event, EventKind};
use pmnet_telemetry::span::{AckKind, OpCompletion, OpEvent, OpKind};

use super::session::{AppRequest, ClientMode, Completion, Oversize, Request, RequestKind, Which};
use super::{Arena, TIMER_LOCAL_LOG, TIMER_RTO};
use crate::batch::{self, BatchFrames};
use crate::protocol::{PacketType, PmnetHeader, SERVICE_PORT};
use crate::system::addrs::PEER_LOGGER_ID_BASE;

/// Sentinel ingress port marking a packet that has finished traversing the
/// receive stack.
const POST_STACK: PortNo = PortNo(200);

fn op_kind(kind: RequestKind) -> OpKind {
    match kind {
        RequestKind::Update => OpKind::Update,
        RequestKind::Bypass => OpKind::Read,
    }
}

/// The PMNet frames a post-stack packet carries. A coalesced batch from a
/// device yields every inner frame as if it had arrived alone (each
/// carries its own identity hash). The batch check comes first — a batch
/// body never parses as a plain header, and vice versa.
pub(super) fn frames(packet: &Packet) -> impl Iterator<Item = (PmnetHeader, Bytes)> {
    let (batched, plain) = if batch::is_batch(&packet.payload) {
        (BatchFrames::decode(&packet.payload), None)
    } else {
        (None, PmnetHeader::decode(&packet.payload))
    };
    batched.into_iter().flatten().chain(plain)
}

/// The headers of [`frames`], without the payload slices.
fn headers(packet: &Packet) -> impl Iterator<Item = PmnetHeader> {
    let (batched, plain) = if batch::is_batch(&packet.payload) {
        (BatchFrames::decode(&packet.payload), None)
    } else {
        (None, PmnetHeader::peek(&packet.payload))
    };
    batched.into_iter().flatten().map(|(h, _)| h).chain(plain)
}

impl Arena {
    /// This node's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// True if `slot` has a request open.
    pub fn is_open(&self, slot: usize) -> bool {
        self.slots[slot].session.open().is_some()
    }

    /// Maps a wire session back to its slot. Ids stride by a multiple of
    /// the arena size on restart, so the residue is stable; the equality
    /// check rejects frames naming a pre-restart incarnation.
    pub(super) fn slot_of(&self, session: u16) -> Option<usize> {
        let idx = usize::from(session) % self.slots.len();
        (self.slots[idx].session.id() == session).then_some(idx)
    }

    /// Opens `app` on `slot`, whose latency runs from `anchor`: sends
    /// every fragment, then arms the client-side-log timer (an update
    /// under that mode) and the RTO timer. An oversize request is counted
    /// failed, and nothing is sent or numbered.
    ///
    /// # Panics
    ///
    /// Panics if `slot` has a request open.
    pub fn issue(
        &mut self,
        ctx: &mut Ctx<'_>,
        slot: usize,
        app: AppRequest,
        anchor: Time,
    ) -> Result<(), Oversize> {
        let update = app.kind == RequestKind::Update;
        let s = &mut self.slots[slot];
        s.anchor = anchor;
        let serial = s
            .session
            .begin(app, ctx.now())
            .inspect_err(|_| self.retry.failed += 1)?;
        self.transmit(ctx, slot, Which::All);
        // Client-side logging: the local logger persists in parallel with
        // the (asynchronous) forward to the server.
        if let ClientMode::ClientSideLog { local_persist, .. } = self.slots[slot].session.mode() {
            if update {
                let timer = Timer {
                    kind: TIMER_LOCAL_LOG,
                    a: serial,
                    b: slot as u64,
                };
                ctx.timer_in(*local_persist, timer);
            }
        }
        self.arm_rto(ctx, slot, serial);
        Ok(())
    }

    pub(super) fn arm_rto(&mut self, ctx: &mut Ctx<'_>, slot: usize, serial: u64) {
        self.disarm(ctx, slot);
        let s = &mut self.slots[slot];
        let timer = Timer {
            kind: TIMER_RTO,
            a: serial,
            b: slot as u64,
        };
        s.rto_timer = Some(ctx.timer_in(s.session.rto(), timer));
    }

    pub(super) fn disarm(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        if let Some(id) = self.slots[slot].rto_timer.take() {
            ctx.cancel(id);
        }
    }

    /// Gives up on `slot`'s open request, if any (retry budget spent,
    /// disconnect, power loss): cancels its timer and drops the span state
    /// of its fragments, which will never complete.
    pub fn abandon(&mut self, ctx: &mut Ctx<'_>, slot: usize) -> Option<Request> {
        self.disarm(ctx, slot);
        let gone = self.slots[slot].session.abandon()?;
        self.telemetry
            .op_abandon(self.addr, gone.session, gone.frag_range);
        Some(gone)
    }

    fn tx_delay(&self, ctx: &mut Ctx<'_>, payload_len: u32) -> Dur {
        self.profile.tx_delay(ctx.rng(), payload_len, self.use_tcp)
    }

    /// Frames `header` + `payload` as a packet on this host's flow.
    fn make_packet(&self, header: &PmnetHeader, payload: &[u8]) -> Packet {
        let body = header.encode(payload);
        let mut p = Packet::udp(self.addr, self.server, self.src_port, SERVICE_PORT, body);
        if self.use_tcp {
            p.proto = Proto::Tcp;
        }
        p
    }

    /// Puts the selected fragments of `slot`'s open exchange on the wire,
    /// each behind its own stack draw so they leave back to back.
    /// [`Which::All`] is a request's first transmission and also announces
    /// the op to the flight recorder and records its invocation in the
    /// history.
    pub(super) fn transmit(&self, ctx: &mut Ctx<'_>, slot: usize, which: Which) {
        let session = &self.slots[slot].session;
        let Some(open) = session.open() else { return };
        let telemetry = &self.telemetry;
        if which == Which::All {
            let kind = op_kind(open.app.kind);
            telemetry.record(|| Event {
                at: ctx.now(),
                client: self.addr,
                session: open.session,
                seq: open.frag_range.1,
                kind: EventKind::Invoke {
                    kind,
                    payload: open.app.payload.clone(),
                },
            });
            telemetry.op_issue(
                self.addr,
                ctx.now(),
                (self.addr, open.session, open.frag_range.1),
                kind,
            );
        }
        // Client-side logging with replication: the logger process fans
        // copies out to each peer logger concurrently with the main send
        // (Figure 17a). A single fragment the server asked for again goes
        // to the server only.
        let peers: &[(Addr, u8)] = match session.mode() {
            ClientMode::ClientSideLog { peers, .. }
                if open.app.kind == RequestKind::Update && !matches!(which, Which::One(_)) =>
            {
                peers
            }
            _ => &[],
        };
        let mut cumulative = Dur::ZERO;
        for frag in session.fragments(which) {
            cumulative += self.tx_delay(ctx, frag.payload.len() as u32);
            ctx.send_after(
                cumulative,
                PortNo(0),
                self.make_packet(frag.header, frag.payload),
            );
            // The wire-entry stamp reuses the already-computed cumulative
            // delay: recording draws nothing from the RNG.
            telemetry.op_event(
                self.addr,
                ctx.now(),
                (self.addr, frag.header.session, frag.header.seq),
                OpEvent::ClientSend {
                    attempt: open.attempt,
                    tx_start: ctx.now(),
                    wire_at: ctx.now() + cumulative,
                },
            );
            for &(peer, id) in peers {
                if which != Which::All && frag.acked_by(id) {
                    continue;
                }
                let copy_delay = self.tx_delay(ctx, frag.payload.len() as u32);
                let mut copy = self.make_packet(frag.header, frag.payload);
                copy.dst = peer;
                ctx.send_after(copy_delay, PortNo(0), copy);
            }
        }
    }

    /// Reports `slot`'s completion to telemetry (history included) and
    /// returns the application-observed latency, measured from the slot's
    /// anchor.
    pub(super) fn report(&self, ctx: &Ctx<'_>, slot: usize, done: &Completion) -> Dur {
        let anchor = self.slots[slot].anchor;
        let req = &done.request;
        let kind = op_kind(req.app.kind);
        self.telemetry.record(|| Event {
            at: ctx.now(),
            client: self.addr,
            session: req.session,
            seq: req.frag_range.1,
            kind: EventKind::Complete {
                kind,
                reply: done.reply.clone(),
                frags: self.slots[slot].session.frag_acks().collect(),
            },
        });
        let latency = ctx.now() - anchor + self.profile.app_overhead;
        self.telemetry.op_complete(
            self.addr,
            ctx.now(),
            OpCompletion {
                client: self.addr,
                session: req.session,
                completing_seq: done.completing_seq,
                frag_range: req.frag_range,
                kind,
                issued_at: anchor,
                completed_at: ctx.now(),
                latency,
                retries: req.attempt,
                evidence: done.evidence,
            },
        );
        latency
    }

    /// Notes an `EpochNotify` (the fabric re-homed a shard; the epoch
    /// rides in `seq`). True for the first notice of a new epoch: any
    /// fragment still in flight may have died with the fenced device, and
    /// the ack it was waiting for will never come, so every slot resends
    /// its incomplete fragments at once. This is not a timeout, so the
    /// attempt budget is untouched; the resend is deduplicated by the new
    /// chain's log and the server. Duplicate notices are no-ops.
    pub(super) fn rehomed(&mut self, notice: &PmnetHeader) -> bool {
        let epoch = u64::from(notice.seq);
        let newer = epoch > self.fabric_epoch;
        if newer {
            self.fabric_epoch = epoch;
        }
        newer
    }

    /// The receive stack. A packet raw off the wire is stamped for span
    /// attribution, charged the kernel + user receive cost and re-posted
    /// to this node on the post-stack port (`None`); one arriving on that
    /// port has finished the climb and is handed back.
    ///
    /// A packet whose every frame is inert — a non-congested `ServerAck`
    /// or `PmnetAck` naming a fragment its slot's session will never have
    /// open again ([`Session::spent`](super::session::Session::spent)); a
    /// packet that parses as no frame has none to act on either — is still
    /// charged its stack draw but not re-posted: after the climb it could
    /// only be ignored (DESIGN.md §18).
    pub(super) fn receive(
        &self,
        ctx: &mut Ctx<'_>,
        port: PortNo,
        packet: Packet,
    ) -> Option<Packet> {
        if port == POST_STACK {
            return Some(packet);
        }
        if self.telemetry.is_enabled() {
            // A coalesced batch carries several acks behind one wire
            // arrival: every inner frame gets its own recv stamp so
            // per-op spans stay attributable.
            for h in headers(&packet) {
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
                    self.telemetry.op_event(
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
        let delay = self
            .profile
            .rx_delay(ctx.rng(), packet.payload.len() as u32, self.use_tcp);
        let inert = |h: PmnetHeader| {
            matches!(h.ptype, PacketType::ServerAck | PacketType::PmnetAck)
                && !h.is_congested()
                && self
                    .slot_of(h.session)
                    .is_some_and(|s| self.slots[s].session.spent(&h))
        };
        if headers(&packet).all(inert) {
            return None;
        }
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
