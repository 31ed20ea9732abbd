//! Ordered delivery: one [`Stream`] per `(client, session)` owns all the
//! server knows about that session's order. It is a pure state machine —
//! no clock, no RNG, no packets — in the style of
//! [`crate::fabric::FabricMap`]: callers feed it fragments and timer
//! fires, it answers what to do. The second half of this file is the thin
//! [`ServerLib`] adapter that lowers those answers onto the simulator.

use std::collections::BTreeMap;
use std::ops::{Deref, Range};

use bytes::{Bytes, BytesMut};
use pmnet_net::{Addr, Ctx, Proto, Timer};
use pmnet_sim::Dur;

use super::{ServerLib, TIMER_GAP};
use crate::protocol::{client_port, PacketType, PmnetHeader};

/// One decoded request packet, with the flow it must be answered on.
#[derive(Debug, Clone)]
pub struct PendingPkt {
    /// The PMNet header.
    pub header: PmnetHeader,
    /// The fragment (or bypass request) body.
    pub payload: Bytes,
    /// The sender's source port (replies go back to it).
    pub src_port: u16,
    /// The transport the request arrived on.
    pub proto: Proto,
}

/// The headers of one update's fragments, in `SeqNum` order. An update that
/// fits one packet keeps its header inline; only a fragmented one pays for
/// a vector.
#[derive(Debug)]
pub enum FragHeaders {
    /// The whole update was one packet.
    One([PmnetHeader; 1]),
    /// One header per fragment.
    Many(Vec<PmnetHeader>),
}

impl Deref for FragHeaders {
    type Target = [PmnetHeader];

    fn deref(&self) -> &[PmnetHeader] {
        match self {
            FragHeaders::One(h) => h,
            FragHeaders::Many(v) => v,
        }
    }
}

/// The obligation an accepted update leaves behind: one `ServerAck` per
/// fragment header, to this flow, once applied. The only thing that
/// travels from delivery to completion, whichever policy carries it.
#[derive(Debug)]
pub struct AckTicket {
    /// The issuing client.
    pub client: Addr,
    /// The client's session.
    pub session: u16,
    /// Every fragment of the update, in `SeqNum` order.
    pub frag_headers: FragHeaders,
    /// The flow's source port.
    pub src_port: u16,
    /// The flow's transport.
    pub proto: Proto,
}

/// One reassembled, in-order update.
#[derive(Debug)]
pub struct Update {
    /// The last fragment's `SeqNum` — the number the handler records.
    pub last_seq: u32,
    /// The fragments' bodies, concatenated.
    pub payload: Bytes,
    /// Some fragment was a redo resend from a device log.
    pub redo: bool,
    /// The acks owed once this update is applied.
    pub ticket: AckTicket,
}

/// What [`Stream::offer`] did with a fragment.
#[derive(Debug)]
pub enum Offer {
    /// Below the expectation: delivered before. Handed back to be answered.
    Duplicate(PendingPkt),
    /// Ahead of the expectation: buffered.
    Buffered {
        /// This fragment opened the gap: arm the gap detector now.
        first_gap: bool,
    },
    /// In order: accepted. [`Stream::next_ready`] yields what became
    /// deliverable (pulled, not returned, so an offer never allocates).
    Accepted,
}

/// What the gap detector should do when its timer fires.
#[derive(Debug, PartialEq, Eq)]
pub enum GapCheck {
    /// Nothing is buffered any more: disarm.
    Closed,
    /// Progress since arming, but a gap remains (the missing packet
    /// overtook its successors through the jittery stack and later ones
    /// are still buffered): re-arm against the new expectation rather
    /// than silently disarming.
    Moved(u32),
    /// No progress: request `missing` again and re-arm with backoff.
    Retransmit {
        /// From the expectation up to the first buffered fragment.
        missing: Range<u32>,
        /// Consecutive no-progress rounds, this one included.
        round: u32,
    },
    /// Every retransmission round went unanswered: no client and no
    /// device log can fill this hole (the client crashed before any copy
    /// became durable, or gave up terminally). [`Stream::skip_gap`] it so
    /// the packets queued behind it — which *are* durably claimed — still
    /// converge instead of wedging forever.
    Exhausted,
}

/// One session's in-order delivery state.
#[derive(Debug)]
pub struct Stream {
    expected: u32,
    /// One past the last fragment of the latest update
    /// [`Stream::next_ready`] yielded.
    delivered_below: u32,
    /// One past the last fragment of the latest update the apply pool
    /// handed to the handler ([`Stream::dispatched`]).
    dispatched_below: u32,
    reorder: BTreeMap<u32, PendingPkt>,
    /// Accepted fragments of the request being reassembled. Drained, not
    /// dropped, on completion, so the buffer is reused across requests.
    partial: Vec<PendingPkt>,
    gap_round: u32,
}

impl Stream {
    /// A stream whose next acceptable `SeqNum` is `expected`.
    pub fn new(expected: u32) -> Stream {
        Stream {
            expected,
            delivered_below: expected,
            dispatched_below: expected,
            reorder: BTreeMap::new(),
            partial: Vec::new(),
            gap_round: 0,
        }
    }

    /// The next `SeqNum` the stream will accept.
    pub fn expected(&self) -> u32 {
        self.expected
    }

    /// The expectation a gap detector should be armed against, if any
    /// fragment is waiting behind a gap.
    pub fn open_gap(&self) -> Option<u32> {
        (!self.reorder.is_empty()).then_some(self.expected)
    }

    /// Offers one fragment to the stream.
    pub fn offer(&mut self, pkt: PendingPkt) -> Offer {
        let seq = pkt.header.seq;
        if seq < self.expected {
            return Offer::Duplicate(pkt);
        }
        if seq > self.expected {
            let first_gap = self.reorder.insert(seq, pkt).is_none() && self.reorder.len() == 1;
            return Offer::Buffered { first_gap };
        }
        self.accept(pkt);
        Offer::Accepted
    }

    /// Records that the update ending at `last_seq` left the apply pool's
    /// queue for the handler.
    pub fn dispatched(&mut self, last_seq: u32) {
        self.dispatched_below = last_seq + 1;
    }

    /// Whether `seq` belongs to a delivered update the apply pool has not
    /// yet handed to the handler. The pool hands a session's updates on
    /// in delivery order (one FIFO queue per session), so these are the
    /// seqs between its last dispatch and the last delivery. Meaningful
    /// only under the pool: without it nothing calls
    /// [`Stream::dispatched`].
    pub fn staged(&self, seq: u32) -> bool {
        (self.dispatched_below..self.delivered_below).contains(&seq)
    }

    /// Takes `pkt` as the next fragment whatever its `SeqNum` — how the
    /// planted dedup-disabled bug re-applies an [`Offer::Duplicate`].
    pub fn accept(&mut self, pkt: PendingPkt) {
        self.expected = pkt.header.seq + 1;
        self.partial.push(pkt);
    }

    /// The next deliverable update, pulling buffered fragments into the
    /// request being reassembled while they continue the sequence.
    pub fn next_ready(&mut self) -> Option<Update> {
        let complete = |f: &PendingPkt| f.header.frag_idx + 1 == f.header.frag_cnt;
        loop {
            if self.partial.last().is_some_and(complete) {
                return Some(self.assemble());
            }
            if *self.reorder.first_key_value()?.0 != self.expected {
                return None;
            }
            let (_, pkt) = self.reorder.pop_first().expect("first key just seen");
            self.accept(pkt);
        }
    }

    fn assemble(&mut self) -> Update {
        let first = &self.partial[0];
        let (client, session) = (first.header.client, first.header.session);
        let (src_port, proto) = (first.src_port, first.proto);
        let redo = self.partial.iter().any(|f| f.header.is_redo());
        let (frag_headers, payload) = if self.partial.len() == 1 {
            // One fragment: its body already is a refcounted slice of the
            // packet it arrived in. Nothing to gather, nothing to copy.
            let only = self.partial.pop().expect("one fragment");
            (FragHeaders::One([only.header]), only.payload)
        } else {
            let headers = self.partial.iter().map(|f| f.header).collect();
            let len = self.partial.iter().map(|f| f.payload.len()).sum();
            let mut gathered = BytesMut::with_capacity(len);
            for f in self.partial.drain(..) {
                gathered.extend_from_slice(&f.payload);
            }
            (FragHeaders::Many(headers), gathered.freeze())
        };
        self.delivered_below = self.expected;
        Update {
            last_seq: self.expected - 1,
            payload,
            redo,
            ticket: AckTicket {
                client,
                session,
                frag_headers,
                src_port,
                proto,
            },
        }
    }

    /// The gap detector armed against `expected_then` fired; at most
    /// `skip_rounds` consecutive no-progress rounds are tolerated.
    pub fn check_gap(&mut self, expected_then: u32, skip_rounds: u32) -> GapCheck {
        let Some((&first_buffered, _)) = self.reorder.first_key_value() else {
            self.gap_round = 0;
            return GapCheck::Closed;
        };
        if self.expected != expected_then {
            self.gap_round = 0;
            return GapCheck::Moved(self.expected);
        }
        self.gap_round += 1;
        if self.gap_round > skip_rounds {
            return GapCheck::Exhausted;
        }
        GapCheck::Retransmit {
            missing: self.expected..first_buffered,
            round: self.gap_round,
        }
    }

    /// Abandons the gap at the head of the reorder buffer: drops buffered
    /// continuation fragments whose head fragment is inside the gap (they
    /// can never be assembled) and moves the expectation to the first
    /// deliverable packet. Returns false if nothing was buffered.
    pub fn skip_gap(&mut self) -> bool {
        // A partial assembly's next fragment is the lost seq itself: the
        // request is torn and can never complete. Dropping the partial
        // keeps a later fragment from being glued onto the wrong request.
        self.partial.clear();
        let mut skip_to = None;
        while let Some((&seq, pkt)) = self.reorder.first_key_value() {
            if pkt.header.frag_idx == 0 {
                // A head fragment: delivery can resume here.
                skip_to = Some(seq);
                break;
            }
            // A continuation fragment whose head is lost: unusable.
            self.reorder.pop_first();
            skip_to = Some(seq + 1);
        }
        let Some(skip_to) = skip_to else {
            return false;
        };
        self.gap_round = 0;
        self.expected = skip_to;
        true
    }
}

impl ServerLib {
    /// The session's stream, opened on first use just past the handler's
    /// durable applied-seq record. That lookup is not free (a KV handler
    /// bills it to its next service time), so it happens only here.
    pub(super) fn stream_mut(&mut self, key: (Addr, u16)) -> &mut Stream {
        let handler = &mut self.handler;
        self.streams
            .entry(key)
            .or_insert_with(|| Stream::new(handler.applied_seq(key.0, key.1).map_or(0, |s| s + 1)))
    }

    pub(super) fn on_update_post_stack(&mut self, ctx: &mut Ctx<'_>, pending: PendingPkt) {
        let key = (pending.header.client, pending.header.session);
        let replay = self.dedup_disabled;
        let pooled = self.pool.is_concurrent();
        let stream = self.stream_mut(key);
        let expected = stream.expected();
        match stream.offer(pending) {
            // The planted bug: apply it again.
            Offer::Duplicate(pending) if replay => stream.accept(pending),
            Offer::Duplicate(pending) => {
                // Delivered but still staged on a pool queue: drop the
                // duplicate silently. A make-up ack now would let the
                // device invalidate the only durable copy of an update
                // that has not reached the handler yet; the completion
                // ack is still owed and covers the log entry.
                let staged = pooled && stream.staged(pending.header.seq);
                self.counters.duplicates_dropped += 1;
                if !staged {
                    // Duplicate or already-applied redo resend: send a
                    // make-up server-ACK so logs upstream get invalidated
                    // (Section IV-E1 case 3).
                    self.counters.make_up_acks += 1;
                    self.send_server_ack(ctx, &pending.header, pending.src_port, pending.proto);
                }
                return;
            }
            Offer::Buffered { first_gap } => {
                self.counters.reordered += 1;
                if first_gap {
                    self.arm_gap_detector(ctx, key, expected, self.gap_timeout);
                }
                return;
            }
            Offer::Accepted => {}
        }
        self.deliver_ready(ctx, key);
    }

    /// Delivers every update the stream can now produce.
    fn deliver_ready(&mut self, ctx: &mut Ctx<'_>, key: (Addr, u16)) {
        while let Some(update) = self.streams.get_mut(&key).and_then(Stream::next_ready) {
            self.deliver(ctx, update);
        }
    }

    fn arm_gap_detector(&self, ctx: &mut Ctx<'_>, key: (Addr, u16), expected: u32, after: Dur) {
        ctx.timer_in(
            after,
            Timer {
                kind: TIMER_GAP,
                a: u64::from(key.0 .0),
                b: u64::from(key.1) | (u64::from(expected) << 16),
            },
        );
    }

    /// The gap detector's view of a stream. A plain lookup on purpose: a
    /// timer that outlived a crash must find nothing, not re-open the
    /// stream and bill the handler a lookup the packet path never made.
    pub(super) fn check_gap(&mut self, key: (Addr, u16), expected_then: u32) -> Option<GapCheck> {
        let stream = self.streams.get_mut(&key)?;
        Some(stream.check_gap(expected_then, self.gap_skip_rounds))
    }

    pub(super) fn on_gap_timer(&mut self, ctx: &mut Ctx<'_>, a: u64, b: u64) {
        let key = (Addr(a as u32), (b & 0xFFFF) as u16);
        let expected_then = (b >> 16) as u32;
        match self.check_gap(key, expected_then) {
            None | Some(GapCheck::Closed) => {}
            Some(GapCheck::Moved(expected)) => {
                self.arm_gap_detector(ctx, key, expected, self.gap_timeout);
            }
            Some(GapCheck::Retransmit { missing, round }) => {
                let (client, session) = key;
                for seq in missing {
                    let server = self.addr;
                    let h = PmnetHeader::request(
                        PacketType::Retrans,
                        session,
                        seq,
                        client,
                        server,
                        0,
                        1,
                    );
                    let pkt = self.reply_packet(h, &[], client_port(session), Proto::Udp);
                    self.counters.retrans_sent += 1;
                    self.send_via_stack(ctx, pkt);
                }
                // Re-arm with exponential backoff in case the
                // retransmission is lost too (capped at 16x the base
                // detector delay).
                let backoff = self.gap_timeout * (1u64 << round.min(4));
                self.arm_gap_detector(ctx, key, expected_then, backoff);
            }
            Some(GapCheck::Exhausted) => {
                if !self.streams.get_mut(&key).is_some_and(|s| s.skip_gap()) {
                    return;
                }
                self.counters.gaps_skipped += 1;
                self.deliver_ready(ctx, key);
                // Another gap behind the skipped one: restart the detector
                // (it gets the full retransmission budget again).
                if let Some(expected) = self.streams.get(&key).and_then(Stream::open_gap) {
                    self.arm_gap_detector(ctx, key, expected, self.gap_timeout);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fragment `idx` of `cnt`, carrying `body` as a slice of a larger
    /// datagram, the way a decoded packet's payload is.
    fn frag(seq: u32, idx: u16, cnt: u16, body: &[u8]) -> PendingPkt {
        let mut datagram = vec![0xEE; 24];
        datagram.extend_from_slice(body);
        PendingPkt {
            header: PmnetHeader::request(PacketType::UpdateReq, 1, seq, Addr(1), Addr(9), idx, cnt),
            payload: Bytes::from(datagram).slice(24..),
            src_port: client_port(0),
            proto: Proto::Udp,
        }
    }

    #[test]
    fn a_single_fragment_update_is_the_offered_buffer() {
        let mut s = Stream::new(0);
        let pkt = frag(0, 0, 1, b"whole update");
        let offered = pkt.payload.as_ptr();
        assert!(matches!(s.offer(pkt), Offer::Accepted));
        let update = s.next_ready().expect("complete");
        assert_eq!(&update.payload[..], b"whole update");
        assert_eq!(update.payload.as_ptr(), offered, "the payload was copied");
        assert!(matches!(update.ticket.frag_headers, FragHeaders::One(_)));
        assert!(s.next_ready().is_none());
    }

    #[test]
    fn a_three_fragment_update_is_gathered_into_one_buffer() {
        let mut s = Stream::new(0);
        let bodies: [&[u8]; 3] = [b"first,", b"second,", b"third"];
        let mut offered = Vec::new();
        // Out of order, so two fragments come back from the reorder buffer.
        for i in [2usize, 0, 1] {
            let pkt = frag(i as u32, i as u16, 3, bodies[i]);
            offered.push(pkt.payload.clone());
            s.offer(pkt);
        }
        let update = s.next_ready().expect("complete");
        assert_eq!(update.payload, bodies.concat());
        assert_eq!(update.last_seq, 2);
        let seqs: Vec<u32> = update.ticket.frag_headers.iter().map(|h| h.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        // One buffer of its own: no fragment's bytes are aliased.
        let gathered = update.payload.as_ptr_range();
        for f in &offered {
            assert!(!gathered.contains(&f.as_ptr()), "a fragment was aliased");
        }
        // The next request starts from an empty assembly.
        assert!(matches!(s.offer(frag(3, 0, 1, b"next")), Offer::Accepted));
        assert_eq!(&s.next_ready().expect("complete").payload[..], b"next");
    }
}
