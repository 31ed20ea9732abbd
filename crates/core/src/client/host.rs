//! The host a client runs on: the three IO helpers that lower a
//! [`Session`]'s answers onto the simulator — [`ClientHost::transmit`],
//! [`ClientHost::frames`], [`ClientHost::report`] — plus the receive stack
//! and the abandon hook that drops an unfinished request's span state.
//! Both client drivers go through it, so the history's client events
//! (invoke on first transmission, complete on report) are recorded here
//! once for both.

use bytes::Bytes;
use pmnet_net::{Addr, Ctx, Msg, Packet, PortNo, Proto};
use pmnet_sim::{Dur, Time};
use pmnet_telemetry::history::{Event, EventKind};
use pmnet_telemetry::span::{AckKind, OpCompletion, OpEvent, OpKind};
use pmnet_telemetry::Telemetry;

use super::session::{
    ClientMode, Completion, Request, RequestKind, Session, Which, PEER_LOGGER_ID_BASE,
};
use crate::batch::{self, BatchFrames};
use crate::config::HostProfile;
use crate::protocol::{PacketType, PmnetHeader};

/// Sentinel ingress port marking a packet that has finished traversing the
/// receive stack.
const POST_STACK: PortNo = PortNo(200);

fn op_kind(kind: RequestKind) -> OpKind {
    match kind {
        RequestKind::Update => OpKind::Update,
        RequestKind::Bypass => OpKind::Read,
    }
}

/// The host a client node runs on: its address, the flow its requests
/// travel on, and the network-stack cost model between the application
/// and the wire. [`super::ClientLib`] and `pmnet-traffic`'s open-loop
/// engine both hold one, so every session crosses the same stack.
#[derive(Debug, Clone)]
pub struct ClientHost {
    /// This client's address.
    pub addr: Addr,
    /// The server requests are addressed to.
    pub server: Addr,
    /// The stack's per-layer cost distributions.
    pub profile: HostProfile,
    /// TCP framing/costs instead of UDP.
    pub(super) use_tcp: bool,
    src_port: u16,
    server_port: u16,
    /// The highest fabric epoch seen in an `EpochNotify` (sharded
    /// designs).
    fabric_epoch: u64,
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
            fabric_epoch: 0,
        }
    }

    /// Samples the user + kernel transmit stack for one packet.
    pub fn tx_delay(&self, ctx: &mut Ctx<'_>, payload_len: u32) -> Dur {
        self.profile.tx_delay(ctx.rng(), payload_len, self.use_tcp)
    }

    fn rx_delay(&self, ctx: &mut Ctx<'_>, payload_len: u32) -> Dur {
        self.profile.rx_delay(ctx.rng(), payload_len, self.use_tcp)
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

    /// Puts the selected fragments of `session`'s open exchange on the
    /// wire, each behind its own stack draw so they leave back to back.
    /// [`Which::All`] is a request's first transmission and also announces
    /// the op to the flight recorder and records its invocation in the
    /// history.
    pub fn transmit(
        &self,
        ctx: &mut Ctx<'_>,
        telemetry: &Telemetry,
        session: &Session,
        which: Which,
    ) {
        let Some(open) = session.open() else { return };
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
        let peers: &[Addr] = match session.mode() {
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
            for (i, peer) in peers.iter().enumerate() {
                if which != Which::All && frag.acked_by(PEER_LOGGER_ID_BASE + i as u8) {
                    continue;
                }
                let copy_delay = self.tx_delay(ctx, frag.payload.len() as u32);
                let mut copy = self.make_packet(frag.header, frag.payload);
                copy.dst = *peer;
                ctx.send_after(copy_delay, PortNo(0), copy);
            }
        }
    }

    /// The PMNet frames a post-stack packet carries. A coalesced batch
    /// from a device yields every inner frame as if it had arrived alone
    /// (each carries its own identity hash). The batch check comes first —
    /// a batch body never parses as a plain header, and vice versa.
    pub fn frames(packet: &Packet) -> impl Iterator<Item = (PmnetHeader, Bytes)> {
        let (batched, plain) = if batch::is_batch(&packet.payload) {
            (BatchFrames::decode(&packet.payload), None)
        } else {
            (None, PmnetHeader::decode(&packet.payload))
        };
        batched.into_iter().flatten().chain(plain)
    }

    /// Reports a completion to telemetry (history included) and returns
    /// the application-observed latency, measured from `anchor`: the issue
    /// instant for a closed-loop client, the arrival instant (queue wait
    /// included) for an open-loop one.
    pub fn report(
        &self,
        ctx: &Ctx<'_>,
        telemetry: &Telemetry,
        done: &Completion,
        anchor: Time,
    ) -> Dur {
        let req = &done.request;
        let kind = op_kind(req.app.kind);
        telemetry.record(|| Event {
            at: ctx.now(),
            client: self.addr,
            session: req.session,
            seq: req.frag_range.1,
            kind: EventKind::Complete {
                kind,
                reply: done.reply.clone(),
                device_acks: done.device_acks,
                server_acked: done.server_acked,
            },
        });
        let latency = ctx.now() - anchor + self.profile.app_overhead;
        telemetry.op_complete(
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

    /// Gives up on `session`'s open exchange (retry budget spent,
    /// disconnect, power loss) and drops the span state of its fragments,
    /// which will never complete.
    pub fn abandon(&self, telemetry: &Telemetry, session: &mut Session) -> Option<Request> {
        let gone = session.abandon()?;
        telemetry.op_abandon(self.addr, gone.session, gone.frag_range);
        Some(gone)
    }

    /// Notes an `EpochNotify` (the fabric re-homed a shard; the epoch
    /// rides in `seq`). True for the first notice of a new epoch: any
    /// fragment still in flight may have died with the fenced device, and
    /// the ack it was waiting for will never come, so the caller resends
    /// its incomplete fragments at once. This is not a timeout, so the
    /// attempt budget is untouched; the resend is deduplicated by the new
    /// chain's log and the server. Duplicate notices are no-ops.
    pub fn rehomed(&mut self, notice: &PmnetHeader) -> bool {
        let epoch = u64::from(notice.seq);
        let newer = epoch > self.fabric_epoch;
        if newer {
            self.fabric_epoch = epoch;
        }
        newer
    }

    /// The headers of [`ClientHost::frames`], without the payload slices.
    fn headers(packet: &Packet) -> impl Iterator<Item = PmnetHeader> {
        let (batched, plain) = if batch::is_batch(&packet.payload) {
            (BatchFrames::decode(&packet.payload), None)
        } else {
            (None, PmnetHeader::peek(&packet.payload))
        };
        batched.into_iter().flatten().map(|(h, _)| h).chain(plain)
    }

    /// The receive stack. A packet raw off the wire is stamped for span
    /// attribution, charged the kernel + user receive cost and re-posted
    /// to this node on the post-stack port (`None`); one arriving on that
    /// port has finished the climb and is handed back.
    ///
    /// `spent` says whether a frame names a fragment the calling client's
    /// sessions will never have open again ([`Session::spent`]). A packet
    /// whose every frame is inert — a non-congested `ServerAck` or
    /// `PmnetAck` naming a spent fragment; a packet that parses as no frame
    /// has none to act on either — is still charged its stack draw but not
    /// re-posted: after the climb it could only be ignored (DESIGN.md §18).
    pub fn receive(
        &self,
        ctx: &mut Ctx<'_>,
        telemetry: &Telemetry,
        port: PortNo,
        packet: Packet,
        spent: impl Fn(&PmnetHeader) -> bool,
    ) -> Option<Packet> {
        if port == POST_STACK {
            return Some(packet);
        }
        if telemetry.is_enabled() {
            // A coalesced batch carries several acks behind one wire
            // arrival: every inner frame gets its own recv stamp so
            // per-op spans stay attributable.
            for h in Self::headers(&packet) {
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
        let inert = |h: PmnetHeader| {
            matches!(h.ptype, PacketType::ServerAck | PacketType::PmnetAck)
                && !h.is_congested()
                && spent(&h)
        };
        if Self::headers(&packet).all(inert) {
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
