//! The server's per-session [`Stream`] is a pure state machine, so its
//! contract is checked here without a simulated world: whatever order,
//! duplication and loss the network inflicts on a session's fragments,
//! deliveries come out in `SeqNum` order, exactly once, each assembled
//! from the fragments of one request only — and once the gap detector
//! gives up, exactly the requests that lost a fragment are missing.

use bytes::Bytes;
use pmnet_core::protocol::{PacketType, PmnetHeader};
use pmnet_core::server::stream::{GapCheck, Offer, PendingPkt, Stream, Update};
use pmnet_net::{Addr, Proto};
use pmnet_sim::hash::FixedMap;
use proptest::prelude::*;

fn frag(session: u16, seq: u32, idx: u16, cnt: u16, body: &[u8]) -> PendingPkt {
    PendingPkt {
        header: PmnetHeader::request(
            PacketType::UpdateReq,
            session,
            seq,
            Addr(1),
            Addr(9),
            idx,
            cnt,
        ),
        payload: Bytes::copy_from_slice(body),
        src_port: 51001,
        proto: Proto::Udp,
    }
}

fn drain(stream: &mut Stream, into: &mut Vec<Update>) {
    while let Some(update) = stream.next_ready() {
        into.push(update);
    }
}

/// One request of the generated traffic: its fragments' `SeqNum`s, and
/// whether the network lost any of them.
struct Request {
    session: u16,
    seqs: Vec<u32>,
    intact: bool,
}

impl Request {
    /// Fragment `i`'s body names its request and position, so an
    /// assembled payload shows exactly which fragments went into it.
    fn body(id: usize, i: usize) -> [u8; 2] {
        [id as u8, i as u8]
    }
}

proptest! {
    #[test]
    fn deliveries_are_ordered_exactly_once_and_never_mixed(
        shape in prop::collection::vec((0u16..3, 1u16..4), 1..14),
        fate in prop::collection::vec(0u8..8, 42..43),
        order in prop::collection::vec(any::<u64>(), 84..85),
    ) {
        // Lay the requests out on their sessions' sequence spaces; `fate`
        // drops (0) or duplicates (1) individual fragments.
        let mut next_seq: FixedMap<u16, u32> = FixedMap::default();
        let mut requests = Vec::new();
        let mut wire = Vec::new();
        let mut nth = 0;
        for (id, &(session, cnt)) in shape.iter().enumerate() {
            let seq = next_seq.entry(session).or_insert(0);
            let mut req = Request { session, seqs: Vec::new(), intact: true };
            for i in 0..cnt {
                let pkt = frag(session, *seq, i, cnt, &Request::body(id, usize::from(i)));
                nth += 1;
                match fate[nth % fate.len()] {
                    0 => req.intact = false,
                    1 => wire.extend([pkt.clone(), pkt]),
                    _ => wire.push(pkt),
                }
                req.seqs.push(*seq);
                *seq += 1;
            }
            requests.push(req);
        }
        // An arbitrary permutation of everything that survived.
        let mut keyed: Vec<(u64, PendingPkt)> =
            wire.into_iter().enumerate().map(|(i, p)| (order[i % order.len()], p)).collect();
        keyed.sort_by_key(|(k, _)| *k);

        let mut streams: FixedMap<u16, Stream> = FixedMap::default();
        let mut delivered: FixedMap<u16, Vec<Update>> = FixedMap::default();
        for (_, pkt) in keyed {
            let session = pkt.header.session;
            let stream = streams.entry(session).or_insert_with(|| Stream::new(0));
            if let Offer::Accepted = stream.offer(pkt) {
                drain(stream, delivered.entry(session).or_default());
            }
        }
        // The gap detector eventually gives up on every hole.
        for (session, stream) in &mut streams {
            while stream.open_gap().is_some() {
                prop_assert!(stream.skip_gap());
                drain(stream, delivered.entry(*session).or_default());
            }
        }

        for (id, req) in requests.iter().enumerate() {
            let got: Vec<&Update> = delivered
                .get(&req.session)
                .map(|d| d.iter().filter(|u| u.payload.first() == Some(&(id as u8))).collect())
                .unwrap_or_default();
            prop_assert_eq!(got.len(), usize::from(req.intact), "request {} deliveries", id);
            if let Some(update) = got.first() {
                let whole: Vec<u8> =
                    (0..req.seqs.len()).flat_map(|i| Request::body(id, i)).collect();
                prop_assert_eq!(&update.payload[..], &whole[..], "one request, every fragment");
                let seqs: Vec<u32> = update.ticket.frag_headers.iter().map(|h| h.seq).collect();
                prop_assert_eq!(&seqs, &req.seqs, "the ticket acks exactly those fragments");
                prop_assert_eq!(update.last_seq, *req.seqs.last().expect("non-empty"));
            }
        }
        for updates in delivered.values() {
            prop_assert!(updates.windows(2).all(|w| w[0].last_seq < w[1].last_seq), "seq order");
        }
    }
}

#[test]
fn out_of_order_fragments_assemble_in_sequence() {
    let mut s = Stream::new(0);
    assert!(matches!(
        s.offer(frag(1, 1, 1, 2, b"b")),
        Offer::Buffered { first_gap: true }
    ));
    assert!(matches!(
        s.offer(frag(1, 2, 0, 1, b"c")),
        Offer::Buffered { first_gap: false }
    ));
    assert_eq!(s.open_gap(), Some(0));
    assert!(matches!(s.offer(frag(1, 0, 0, 2, b"a")), Offer::Accepted));
    let first = s.next_ready().expect("two-fragment request completes");
    assert_eq!(&first.payload[..], b"ab");
    assert_eq!(first.last_seq, 1);
    let second = s.next_ready().expect("buffered successor follows");
    assert_eq!(&second.payload[..], b"c");
    assert!(s.next_ready().is_none());
    assert_eq!(s.expected(), 3);
    assert!(matches!(
        s.offer(frag(1, 1, 1, 2, b"b")),
        Offer::Duplicate(_)
    ));
}

#[test]
fn gap_detector_backs_off_then_gives_up() {
    let mut s = Stream::new(4);
    assert_eq!(s.check_gap(4, 2), GapCheck::Closed);
    s.offer(frag(1, 6, 0, 1, b"x"));
    for round in 1..=2 {
        let missing = 4..6;
        assert_eq!(s.check_gap(4, 2), GapCheck::Retransmit { missing, round });
    }
    assert_eq!(s.check_gap(4, 2), GapCheck::Exhausted);
    assert!(s.skip_gap());
    assert_eq!(s.next_ready().expect("resumes at the head").last_seq, 6);
    // Progress resets the budget.
    s.offer(frag(1, 9, 0, 1, b"y"));
    assert_eq!(s.check_gap(4, 2), GapCheck::Moved(7));
}

#[test]
fn skip_gap_after_a_lost_head_discards_exactly_the_orphans() {
    let mut s = Stream::new(0);
    s.offer(frag(1, 1, 1, 3, b"b")); // head (seq 0) lost: two orphans
    s.offer(frag(1, 2, 2, 3, b"c"));
    s.offer(frag(1, 3, 0, 2, b"d")); // an intact request behind them
    s.offer(frag(1, 4, 1, 2, b"e"));
    assert!(s.next_ready().is_none());
    assert!(s.skip_gap());
    assert_eq!(s.expected(), 3, "both continuations dropped, the head kept");
    let d = s.next_ready().expect("delivery resumes at the next head");
    assert_eq!(&d.payload[..], b"de", "nothing of the torn request leaks");
    assert!(
        !Stream::new(0).skip_gap(),
        "nothing buffered, nothing to skip"
    );
}
