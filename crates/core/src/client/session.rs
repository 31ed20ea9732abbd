//! The client's protocol core (Section IV-A/B, Table I).
//!
//! A [`Session`] is one wire session and the one place the client-side
//! rule set lives: it numbers a request's fragments, decides from the
//! acknowledgements it is shown when the request is persistent (or
//! answered), and decides from the timeouts it is shown whether to
//! retransmit or give up. It is a pure state machine — no clock, no RNG,
//! no packets, no telemetry — in the style of
//! [`crate::server::stream::Stream`]. The one client node,
//! [`super::Client`], holds one per slot, feeds it frames and timer fires
//! and lowers its answers onto the simulator, under either load policy.
//!
//! The paper's client is synchronous, so a session holds at most one open
//! exchange; concurrency is many sessions, not many exchanges.

use bytes::Bytes;
use pmnet_net::Addr;
use pmnet_sim::{Dur, Time};
use pmnet_telemetry::history::FragAcks;
use pmnet_telemetry::span::Evidence;

use crate::config::{RetryConfig, MTU_BYTES};
use crate::protocol::{PacketType, PmnetHeader, HEADER_LEN};
use crate::rto::RtoEstimator;
use crate::system::addrs::PEER_LOGGER_ID_BASE;

/// The most request payload one packet carries: the MTU less the
/// Ethernet/IP/UDP framing and the PMNet header (Section IV-A3).
pub const MAX_FRAGMENT_PAYLOAD: usize = MTU_BYTES - 42 - HEADER_LEN;

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRequest {
    /// Update or bypass.
    pub kind: RequestKind,
    /// Application payload (e.g. an encoded [`crate::kvproto::KvFrame`]).
    pub payload: Bytes,
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
        /// Peer loggers, each address with the ack id it answers with
        /// (empty = no replication).
        peers: Vec<(Addr, u8)>,
        /// Local IPC + PM persist latency (one-way IPC, write, IPC back).
        local_persist: Dur,
    },
}

/// Who acknowledged one fragment: a fixed 256-bit set over `device_id`.
/// Ids below [`PEER_LOGGER_ID_BASE`] are PMNet devices, the rest peer
/// loggers; a duplicate ack sets a bit that is already set.
#[derive(Debug, Clone, Copy, Default)]
struct AckSet([u64; 4]);

// Every peer-logger id lives in the top word, which `peer_loggers` relies
// on.
const _: () = assert!(PEER_LOGGER_ID_BASE >> 6 == 3);

impl AckSet {
    fn insert(&mut self, id: u8) {
        self.0[usize::from(id >> 6)] |= 1 << (id & 63);
    }

    fn contains(&self, id: u8) -> bool {
        self.0[usize::from(id >> 6)] & (1 << (id & 63)) != 0
    }

    fn peer_loggers(&self) -> u32 {
        (self.0[3] >> (PEER_LOGGER_ID_BASE & 63)).count_ones()
    }

    fn devices(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum::<u32>() - self.peer_loggers()
    }
}

#[derive(Debug)]
struct Frag {
    header: PmnetHeader,
    acks: AckSet,
    server_acked: bool,
}

/// An application request on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What the application asked for.
    pub app: AppRequest,
    /// Wire session of its fragments.
    pub session: u16,
    /// Inclusive `SeqNum` range of its fragments (assigned contiguously).
    pub frag_range: (u32, u32),
    /// Retransmission rounds so far.
    pub attempt: u32,
}

/// The one open request of a session.
#[derive(Debug)]
struct Exchange {
    request: Request,
    serial: u64,
    issued_at: Time,
    local_log_done: bool,
    reply: Option<Bytes>,
    /// The last acknowledgement absorbed, with the fragment it answered:
    /// the completion evidence span attribution chains from.
    evidence: Option<(Evidence, u32)>,
}

/// A request too large for the wire: a bypass request must fit one packet
/// (it is answered, not logged, so there is nothing to reassemble), an
/// update's fragment count must fit the header's 16-bit field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oversize {
    /// The offered payload length.
    pub len: usize,
    /// The most its kind can carry.
    pub max: usize,
}

/// Which fragments of the open exchange to put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// Every fragment: the first transmission of a request.
    All,
    /// Those whose completion rule does not hold yet (a timeout, or a
    /// fabric re-home that may have taken their acks with it).
    Incomplete,
    /// The one fragment [`Absorbed::Resend`] named.
    One(usize),
}

/// One fragment, ready to frame.
#[derive(Debug, Clone, Copy)]
pub struct Fragment<'a> {
    /// Its request header.
    pub header: &'a PmnetHeader,
    /// Its slice of the request payload.
    pub payload: &'a [u8],
    acks: &'a AckSet,
}

impl Fragment<'_> {
    /// True once the device or peer logger `id` acknowledged this fragment.
    pub fn acked_by(&self, id: u8) -> bool {
        self.acks.contains(id)
    }
}

/// A request that reached its completion rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The request; `attempt` is the retransmission rounds it needed.
    pub request: Request,
    /// The response, for a bypass request.
    pub reply: Option<Bytes>,
    /// The fragment whose acknowledgement completed it.
    pub completing_seq: u32,
    /// What completed it.
    pub evidence: Evidence,
    /// When it first went on the wire.
    pub issued_at: Time,
}

/// What [`Session::absorb`] made of a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum Absorbed {
    /// It answers nothing this session has open (late, foreign, or
    /// corrupted in an identity field): dropped.
    Ignored,
    /// Recorded; the completion rule does not hold yet.
    Progress,
    /// The server is missing this fragment and no device could serve it:
    /// send it again.
    Resend(usize),
    /// The completion rule now holds: the exchange is closed.
    Done(Completion),
}

/// What [`Session::expire`] decided about a retransmission timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expiry {
    /// The timer belongs to an exchange that is no longer open.
    Stale,
    /// Unanswered: the RTO is backed off; resend the incomplete fragments
    /// and re-arm.
    Resend,
    /// The retry budget is spent: [`Session::abandon`] the exchange.
    Exhausted,
}

/// One wire session: its identity, its RTT history, and at most one open
/// exchange.
#[derive(Debug)]
pub struct Session {
    id: u16,
    update_seq: u32,
    bypass_seq: u32,
    mode: ClientMode,
    client: Addr,
    server: Addr,
    rto: RtoEstimator,
    /// Names the open exchange to its timers; never reset, so a timer
    /// armed before a restart cannot match an exchange begun after it.
    serial: u64,
    exchange: Option<Exchange>,
    /// The open exchange's fragments. Cleared on `begin`, never dropped,
    /// so the storage is reused across requests.
    frags: Vec<Frag>,
}

fn frag_payload(payload: &[u8], idx: usize) -> &[u8] {
    let start = idx * MAX_FRAGMENT_PAYLOAD;
    &payload[start..payload.len().min(start + MAX_FRAGMENT_PAYLOAD)]
}

impl Session {
    /// Session `id` of `client`, talking to `server`; `timeout` seeds the
    /// RTO until the first RTT sample, `retry` bounds it.
    pub fn new(
        id: u16,
        mode: ClientMode,
        client: Addr,
        server: Addr,
        timeout: Dur,
        retry: RetryConfig,
    ) -> Session {
        Session {
            id,
            update_seq: 0,
            bypass_seq: 0,
            mode,
            client,
            server,
            rto: RtoEstimator::new(timeout, retry.rto_min, retry.rto_max),
            serial: 0,
            exchange: None,
            // Room for one fragment up front: a single-fragment session
            // never allocates after construction.
            frags: Vec::with_capacity(1),
        }
    }

    /// The wire session id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// The completion mode.
    pub fn mode(&self) -> &ClientMode {
        &self.mode
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> Dur {
        self.rto.current()
    }

    /// The open request, if any.
    pub fn open(&self) -> Option<&Request> {
        self.exchange.as_ref().map(|x| &x.request)
    }

    /// Opens an exchange for one application request: fragments an update
    /// over the MTU (Section IV-A3), numbers the fragments in this
    /// session and builds their headers. Returns the serial its timers
    /// must carry.
    ///
    /// # Panics
    ///
    /// Panics if an exchange is already open.
    pub fn begin(&mut self, app: AppRequest, now: Time) -> Result<u64, Oversize> {
        assert!(self.exchange.is_none(), "a session is synchronous");
        let (ptype, max, next_seq) = match app.kind {
            RequestKind::Update => (
                PacketType::UpdateReq,
                MAX_FRAGMENT_PAYLOAD * usize::from(u16::MAX),
                &mut self.update_seq,
            ),
            RequestKind::Bypass => (
                PacketType::BypassReq,
                MAX_FRAGMENT_PAYLOAD,
                &mut self.bypass_seq,
            ),
        };
        let len = app.payload.len();
        if len > max {
            return Err(Oversize { len, max });
        }
        let cnt = len.div_ceil(MAX_FRAGMENT_PAYLOAD).max(1);
        let first_seq = *next_seq;
        self.frags.clear();
        for idx in 0..cnt {
            let header = PmnetHeader::request(
                ptype,
                self.id,
                *next_seq,
                self.client,
                self.server,
                idx as u16,
                cnt as u16,
            )
            .with_payload(frag_payload(&app.payload, idx));
            *next_seq += 1;
            self.frags.push(Frag {
                header,
                acks: AckSet::default(),
                server_acked: false,
            });
        }
        self.serial += 1;
        self.exchange = Some(Exchange {
            request: Request {
                app,
                session: self.id,
                frag_range: (first_seq, *next_seq - 1),
                attempt: 0,
            },
            serial: self.serial,
            issued_at: now,
            local_log_done: false,
            reply: None,
            evidence: None,
        });
        Ok(self.serial)
    }

    /// The fragments of the open exchange selected by `which`, in
    /// fragment order (none when nothing is open).
    pub fn fragments(&self, which: Which) -> impl Iterator<Item = Fragment<'_>> {
        self.exchange.iter().flat_map(move |x| {
            self.frags
                .iter()
                .enumerate()
                .filter(move |(idx, f)| match which {
                    Which::All => true,
                    Which::Incomplete => !self.frag_done(f),
                    Which::One(one) => *idx == one,
                })
                .map(move |(idx, f)| Fragment {
                    header: &f.header,
                    payload: frag_payload(&x.request.app.payload, idx),
                    acks: &f.acks,
                })
        })
    }

    /// The fragment of the open exchange that `header` answers. The echoed
    /// hash doubles as an integrity check: a bit flipped in the frame's
    /// identity fields (or the hash itself) breaks the match.
    fn matching(&self, header: &PmnetHeader) -> Option<usize> {
        self.exchange.as_ref()?;
        self.frags.iter().position(|f| {
            f.header.seq == header.seq
                && f.header.session == header.session
                && f.header.hash == header.hash
        })
    }

    /// True if `header` answers a fragment of the open exchange.
    pub fn answers(&self, header: &PmnetHeader) -> bool {
        self.matching(header).is_some()
    }

    /// True if `header` names an update fragment this incarnation already
    /// numbered and has no longer open. Update numbers are issued once, in
    /// order, and [`reopen`](Session::reopen) moves to a fresh id, so no
    /// later update fragment of this session can match it: an ack naming
    /// it can only be ignored from now on (DESIGN.md §18).
    pub fn spent(&self, header: &PmnetHeader) -> bool {
        header.session == self.id && header.seq < self.update_seq && !self.answers(header)
    }

    /// Shows the session one received frame.
    pub fn absorb(&mut self, header: &PmnetHeader, payload: Bytes, now: Time) -> Absorbed {
        let Some(idx) = self.matching(header) else {
            return Absorbed::Ignored;
        };
        let x = self.exchange.as_mut().expect("a match implies an exchange");
        let frag = &mut self.frags[idx];
        let evidence = match (header.ptype, x.request.app.kind) {
            (PacketType::PmnetAck, RequestKind::Update) => {
                frag.acks.insert(header.device_id);
                if header.device_id >= PEER_LOGGER_ID_BASE {
                    Evidence::LocalLog
                } else {
                    Evidence::DeviceAck {
                        device: header.device_id,
                    }
                }
            }
            (PacketType::ServerAck, RequestKind::Update) => {
                frag.server_acked = true;
                Evidence::ServerAck
            }
            (PacketType::AppReply, RequestKind::Bypass) => {
                x.reply = Some(payload);
                Evidence::AppReply
            }
            (PacketType::CacheResp, RequestKind::Bypass) => {
                x.reply = Some(payload);
                Evidence::CacheResp
            }
            (PacketType::Retrans, _) => return Absorbed::Resend(idx),
            _ => return Absorbed::Ignored,
        };
        x.evidence = Some((evidence, header.seq));
        self.settle(now)
    }

    /// The local logger process persisted the exchange `serial` names
    /// (client-side logging only).
    pub fn logged_locally(&mut self, serial: u64, now: Time) -> Absorbed {
        match &mut self.exchange {
            Some(x) if x.serial == serial => x.local_log_done = true,
            _ => return Absorbed::Ignored,
        }
        self.settle(now)
    }

    /// The per-fragment completion rule, one arm per mode.
    fn frag_done(&self, f: &Frag) -> bool {
        match &self.mode {
            ClientMode::Baseline => f.server_acked,
            // With a single persistence copy, the server's ACK is strictly
            // stronger than a device ACK and also completes the fragment
            // (the device-bypass fallback of Section IV-B1). With
            // replication, the client must hold out for the full
            // replication strength (Section IV-E2).
            ClientMode::Pmnet { needed_acks } => {
                f.acks.devices() >= u32::from(*needed_acks) || (*needed_acks == 1 && f.server_acked)
            }
            ClientMode::ClientSideLog { peers, .. } => {
                f.acks.peer_loggers() as usize >= peers.len()
            }
        }
    }

    /// The request-level completion rule: a bypass request needs its
    /// reply (from the server or a device cache); an update needs every
    /// fragment's rule to hold and, under client-side logging, the local
    /// logger's persist as well.
    fn done(&self, x: &Exchange) -> bool {
        match x.request.app.kind {
            RequestKind::Bypass => x.reply.is_some(),
            RequestKind::Update => {
                self.frags.iter().all(|f| self.frag_done(f))
                    && (x.local_log_done || !matches!(self.mode, ClientMode::ClientSideLog { .. }))
            }
        }
    }

    /// Closes the exchange if its completion rule holds.
    fn settle(&mut self, now: Time) -> Absorbed {
        match &self.exchange {
            Some(x) if self.done(x) => {}
            _ => return Absorbed::Progress,
        }
        let x = self.exchange.take().expect("checked above");
        // Karn's algorithm: only un-retransmitted requests yield RTT
        // samples (a retransmitted ACK is ambiguous about which
        // transmission it answers).
        if x.request.attempt == 0 {
            self.rto.sample(now - x.issued_at);
        }
        // A client-side-log completion by the local logger alone has no
        // ack to name: it is pinned on the last fragment.
        let (evidence, completing_seq) = x
            .evidence
            .unwrap_or((Evidence::LocalLog, x.request.frag_range.1));
        Absorbed::Done(Completion {
            request: x.request,
            reply: x.reply,
            completing_seq,
            evidence,
            issued_at: x.issued_at,
        })
    }

    /// What each fragment of the last request had been acknowledged by,
    /// in fragment order; read at its completion, before the next begins.
    pub fn frag_acks(&self) -> impl Iterator<Item = FragAcks> + '_ {
        self.frags.iter().map(|f| FragAcks {
            device_acks: f.acks.devices() as u8,
            server_acked: f.server_acked,
        })
    }

    /// Shows the session a retransmission timer armed for exchange
    /// `serial`; `budget` is the retry budget.
    pub fn expire(&mut self, serial: u64, budget: u32) -> Expiry {
        match &mut self.exchange {
            Some(x) if x.serial == serial => {
                if x.request.attempt >= budget {
                    return Expiry::Exhausted;
                }
                x.request.attempt += 1;
                self.rto.back_off();
                Expiry::Resend
            }
            _ => Expiry::Stale,
        }
    }

    /// Doubles the RTO: a congestion signal, so retransmissions don't
    /// hammer a full device log.
    pub fn back_off(&mut self) {
        self.rto.back_off();
    }

    /// Gives up on the open request, if any: nothing is claimed for it,
    /// and its sequence numbers stay consumed.
    pub fn abandon(&mut self) -> Option<Request> {
        self.exchange.take().map(|x| x.request)
    }

    /// Restart (Table I: `PMNet_start_session`): a fresh wire incarnation
    /// `stride` ids on, sequence numbers from zero — a crash may have
    /// abandoned an unsent sequence number, and the server must not wait
    /// on that hole forever — and no RTT history, which died with the
    /// process.
    pub fn reopen(&mut self, stride: u16) {
        self.exchange = None;
        self.id = self.id.wrapping_add(stride);
        self.update_seq = 0;
        self.bypass_seq = 0;
        self.rto.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_update(mode: ClientMode) -> Session {
        let retry = RetryConfig::default();
        let mut s = Session::new(0, mode, Addr(1), Addr(9), Dur::millis(10), retry);
        let update = AppRequest {
            kind: RequestKind::Update,
            payload: Bytes::new(),
        };
        s.begin(update, Time::ZERO).unwrap();
        s
    }

    /// The fragment rule for `mode` after the given device acks and
    /// (optionally) the server's.
    fn frag_done(mode: ClientMode, devices: &[u8], server_acked: bool) -> bool {
        let mut s = open_update(mode);
        for &d in devices {
            s.frags[0].acks.insert(d);
        }
        s.frags[0].server_acked = server_acked;
        s.frag_done(&s.frags[0])
    }

    #[test]
    fn frag_done_rules_per_mode() {
        let pmnet = |needed_acks| ClientMode::Pmnet { needed_acks };
        assert!(!frag_done(ClientMode::Baseline, &[], false));
        assert!(!frag_done(pmnet(1), &[], false));
        assert!(frag_done(pmnet(1), &[1], false));
        assert!(!frag_done(pmnet(2), &[1], false));
        assert!(frag_done(pmnet(2), &[1, 2], false));
        // Server ACK completes the baseline and unreplicated PMNet mode
        // (device-bypass fallback), but NOT a replicated PMNet mode: the
        // client must reach full replication strength (Section IV-E2).
        assert!(frag_done(ClientMode::Baseline, &[], true));
        assert!(frag_done(pmnet(1), &[], true));
        assert!(!frag_done(pmnet(3), &[], true));
    }

    #[test]
    fn duplicate_device_acks_do_not_double_count() {
        let mut s = open_update(ClientMode::Pmnet { needed_acks: 2 });
        let ack = PmnetHeader {
            ptype: PacketType::PmnetAck,
            device_id: 1,
            ..s.frags[0].header
        };
        assert_eq!(s.absorb(&ack, Bytes::new(), Time::ZERO), Absorbed::Progress);
        assert_eq!(s.absorb(&ack, Bytes::new(), Time::ZERO), Absorbed::Progress);
        assert_eq!(s.frags[0].acks.devices(), 1);
        assert!(!s.frag_done(&s.frags[0]));
    }

    #[test]
    fn ack_set_splits_devices_from_peer_loggers() {
        let mut a = AckSet::default();
        for id in [0, 63, 64, 199, 200, 255] {
            assert!(!a.contains(id));
            a.insert(id);
            assert!(a.contains(id));
        }
        assert_eq!((a.devices(), a.peer_loggers()), (4, 2));
    }
}
