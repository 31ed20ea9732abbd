//! The client's [`Session`] is a pure state machine, so its contract is
//! checked here without a simulated world: whatever order, duplication,
//! loss and corruption the network inflicts on the acknowledgements of a
//! request, the request completes exactly once, never before its mode's
//! rule holds for every fragment, and never on an ack that was corrupted
//! in an identity field; timeouts resend only what is incomplete and give
//! up after exactly the retry budget.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use bytes::Bytes;
use pmnet_core::api::{bypass, update, ScriptSource};
use pmnet_core::client::session::{
    Absorbed, Expiry, Oversize, Session, Which, MAX_FRAGMENT_PAYLOAD,
};
use pmnet_core::client::{AppRequest, ClientLib, ClientMode, RequestKind, RequestSource};
use pmnet_core::protocol::{PacketType, PmnetHeader};
use pmnet_core::system::{DesignPoint, SystemBuilder};
use pmnet_core::{RetryConfig, SystemConfig, UpdateOutcome};
use pmnet_net::Addr;
use pmnet_sim::{Dur, SimRng, Time};
use proptest::prelude::*;

const TIMEOUT: Dur = Dur::millis(10);
const PEER: u8 = 200;

fn retry() -> RetryConfig {
    RetryConfig {
        rto_min: Dur::micros(1),
        rto_max: Dur::secs(10),
        ..RetryConfig::default()
    }
}

fn session(mode: ClientMode) -> Session {
    Session::new(3, mode, Addr(1), Addr(9), TIMEOUT, retry())
}

fn mode(pick: u8) -> ClientMode {
    match pick % 4 {
        0 => ClientMode::Baseline,
        1 => ClientMode::Pmnet { needed_acks: 1 },
        2 => ClientMode::Pmnet { needed_acks: 2 },
        _ => ClientMode::ClientSideLog {
            peers: vec![(Addr(50), PEER)],
            local_persist: Dur::micros(2),
        },
    }
}

/// `frags` fragments' worth of update, or a read when `frags` is zero.
fn request(frags: usize) -> AppRequest {
    match frags {
        0 => bypass(vec![9u8; 40]),
        n => update(vec![7u8; (n - 1) * MAX_FRAGMENT_PAYLOAD + 1]),
    }
}

fn headers(s: &Session) -> Vec<PmnetHeader> {
    s.fragments(Which::All).map(|f| *f.header).collect()
}

/// What the test believes has been acknowledged, kept apart from the
/// session's own bookkeeping.
#[derive(Default)]
struct Model {
    acks: Vec<BTreeSet<u8>>,
    server: Vec<bool>,
    replied: bool,
    logged: bool,
}

impl Model {
    fn frag_done(&self, mode: &ClientMode, i: usize) -> bool {
        let devices = self.acks[i].iter().filter(|&&id| id < PEER).count();
        match mode {
            ClientMode::Baseline => self.server[i],
            ClientMode::Pmnet { needed_acks: 1 } => devices >= 1 || self.server[i],
            ClientMode::Pmnet { needed_acks } => devices >= usize::from(*needed_acks),
            ClientMode::ClientSideLog { peers, .. } => self.acks[i].len() - devices >= peers.len(),
        }
    }

    fn done(&self, mode: &ClientMode, kind: RequestKind) -> bool {
        match kind {
            RequestKind::Bypass => self.replied,
            RequestKind::Update => {
                (0..self.acks.len()).all(|i| self.frag_done(mode, i))
                    && (self.logged || !matches!(mode, ClientMode::ClientSideLog { .. }))
            }
        }
    }
}

proptest! {
    #[test]
    fn an_exchange_completes_exactly_once_and_only_when_its_rule_holds(
        mode_pick in 0u8..4,
        frags in 0usize..4,
        // (fragment, sender, corruption, copies): copies 0 is a drop, 2 a
        // duplicate; corruption 0..4 flips seq / session / hash / device
        // id, anything else leaves the frame intact.
        stream in prop::collection::vec((0usize..3, 0u8..8, 0u8..12, 0u8..3), 0..40),
        order in prop::collection::vec(any::<u64>(), 80..81),
    ) {
        let mode = mode(mode_pick);
        let app = request(frags);
        let kind = app.kind;
        let mut s = session(mode.clone());
        let serial = s.begin(app, Time::ZERO).unwrap();
        let sent = headers(&s);
        prop_assert_eq!(sent.len(), frags.max(1));
        let mut model = Model {
            acks: vec![BTreeSet::new(); sent.len()],
            server: vec![false; sent.len()],
            ..Model::default()
        };

        // Build the wire: every event names a fragment and a sender.
        let mut wire = Vec::new();
        for &(frag, sender, corruption, copies) in &stream {
            let i = frag % sent.len();
            let mut h = sent[i];
            (h.ptype, h.device_id) = match sender {
                0 => (PacketType::ServerAck, 0),
                1 => (PacketType::AppReply, 0),
                2 => (PacketType::CacheResp, 0),
                3 => (PacketType::Retrans, 0),
                4 => (PacketType::PmnetAck, PEER),
                d => (PacketType::PmnetAck, d - 4), // devices 1..=3
            };
            match corruption {
                0 => h.seq ^= 0x10,
                1 => h.session ^= 1,
                2 => h.hash ^= 0x8000,
                // Crosses the device / peer-logger boundary.
                3 => h.device_id ^= 0x80,
                _ => {}
            }
            for _ in 0..copies {
                wire.push((i, h, corruption < 3));
            }
        }
        // The local logger's persist arrives somewhere in the stream too.
        let log_at = order[0] as usize % (wire.len() + 1);
        let mut keyed: Vec<_> = wire.into_iter().zip(&order[1..]).collect();
        keyed.sort_by_key(|(_, k)| **k);

        let mut completed = false;
        for step in 0..=keyed.len() {
            if step == log_at {
                model.logged = true;
                let got = s.logged_locally(serial, Time::ZERO);
                check(&got, &mut completed, &model, &mode, kind);
            }
            let Some(((i, h, broken), _)) = keyed.get(step).copied() else { break };
            let got = s.absorb(&h, Bytes::from_static(b"reply"), Time::ZERO);
            if broken || completed {
                // Corrupted in an identity field, or late: never acted on.
                prop_assert_eq!(&got, &Absorbed::Ignored);
                continue;
            }
            match (h.ptype, kind) {
                (PacketType::PmnetAck, RequestKind::Update) => {
                    model.acks[i].insert(h.device_id);
                }
                (PacketType::ServerAck, RequestKind::Update) => model.server[i] = true,
                (PacketType::AppReply | PacketType::CacheResp, RequestKind::Bypass) => {
                    model.replied = true;
                }
                (PacketType::Retrans, _) => {
                    prop_assert_eq!(&got, &Absorbed::Resend(i));
                    continue;
                }
                _ => {
                    prop_assert_eq!(&got, &Absorbed::Ignored);
                    continue;
                }
            }
            check(&got, &mut completed, &model, &mode, kind);
            if !completed {
                // A resend names exactly the fragments still incomplete.
                let again: Vec<u32> = s.fragments(Which::Incomplete).map(|f| f.header.seq).collect();
                let want: Vec<u32> = (0..sent.len())
                    .filter(|&i| !model.frag_done(&mode, i))
                    .map(|i| sent[i].seq)
                    .collect();
                prop_assert_eq!(again, want);
            }
        }
        prop_assert_eq!(s.open().is_none(), completed);
        prop_assert_eq!(s.fragments(Which::All).count(), if completed { 0 } else { sent.len() });
    }

    #[test]
    fn timeouts_spend_the_budget_exactly_and_only_first_attempts_sample_rtt(
        mode_pick in 0u8..3,
        budget in 1u32..6,
        timeouts in 0u32..8,
        rtt_us in 1u64..5_000,
    ) {
        let mut s = session(mode(mode_pick));
        let stale = s.begin(request(1), Time::ZERO).unwrap();
        prop_assert!(s.abandon().is_some());
        let serial = s.begin(request(1), Time::ZERO).unwrap();
        let mut resends = 0;
        for _ in 0..timeouts {
            prop_assert_eq!(s.expire(stale, budget), Expiry::Stale);
            prop_assert_eq!(s.expire(serial + 1, budget), Expiry::Stale);
            match s.expire(serial, budget) {
                Expiry::Resend => resends += 1,
                Expiry::Exhausted => prop_assert_eq!(resends, budget),
                Expiry::Stale => prop_assert!(false, "the exchange is open"),
            }
        }
        prop_assert_eq!(resends, timeouts.min(budget));
        prop_assert_eq!(s.open().map(|r| r.attempt), Some(resends));

        // Complete it: two devices and the server satisfy every mode.
        let rtt = Dur::micros(rtt_us);
        let mut done = None;
        for (ptype, device_id) in [
            (PacketType::PmnetAck, 1),
            (PacketType::PmnetAck, 2),
            (PacketType::ServerAck, 0),
        ] {
            let ack = PmnetHeader { ptype, device_id, ..headers(&s)[0] };
            if let Absorbed::Done(c) = s.absorb(&ack, Bytes::new(), Time::ZERO + rtt) {
                done = Some(c);
                break;
            }
        }
        let done = done.expect("acks from two devices and the server complete any mode");
        prop_assert_eq!(done.request.attempt, resends);
        // Karn: a first-attempt completion seeds the estimator (SRTT = R,
        // RTTVAR = R/2, so RTO = 3R) and clears the backoff; a
        // retransmitted one leaves the backed-off initial timeout alone.
        let want = if resends == 0 { rtt * 3 } else { TIMEOUT * (1 << resends) };
        prop_assert_eq!(s.rto(), want);
    }

    /// The lemma behind the client's inert-ack rule (DESIGN.md §18): a
    /// frame naming a fragment the session calls spent when it arrives is
    /// never answered by an update afterwards, whatever is issued,
    /// acknowledged, completed, retransmitted, abandoned or reopened in
    /// between, so an ack naming it can only be ignored. Update numbers
    /// are issued once, in order, and `reopen` moves to a fresh id. Reads
    /// are numbered apart from updates and hash alike, which is why
    /// `spent` asks for a number already issued to an update: an ack
    /// naming a read's identity (a reply whose type bits flipped) could
    /// otherwise match a later update of the same number. (Ids are `u16`:
    /// they come round again after 65 536 / gcd(stride, 65 536) reopens,
    /// 8 192 at `ClientLib`'s stride of 1 000; a case here makes at most
    /// eight.)
    #[test]
    fn a_frame_spent_on_arrival_never_answers_an_update_later(
        mode_pick in 0u8..4,
        // (operation, pick, sender, corruption).
        steps in prop::collection::vec((0u8..7, any::<usize>(), 0u8..6, 0u8..8), 1..80),
    ) {
        let mut s = session(mode(mode_pick));
        let mut serial = None;
        // Every fragment header ever put on the wire, and every arrival
        // that named a spent fragment.
        let (mut sent, mut spent) = (Vec::new(), Vec::new());
        let mut reopens = 0;
        for (op, pick, sender, corruption) in steps {
            let now = Time::ZERO + Dur::micros(sent.len() as u64);
            match op {
                0 if s.open().is_none() => {
                    serial = Some(s.begin(request(pick % 4), now).unwrap());
                    sent.extend(headers(&s));
                }
                1..=3 if !sent.is_empty() => {
                    let mut h: PmnetHeader = sent[pick % sent.len()];
                    (h.ptype, h.device_id) = match sender {
                        0 => (PacketType::ServerAck, 0),
                        1 => (PacketType::PmnetAck, 1),
                        2 => (PacketType::PmnetAck, 2),
                        3 => (PacketType::PmnetAck, PEER),
                        4 => (PacketType::AppReply, 0),
                        _ => (PacketType::Retrans, 0),
                    };
                    match corruption {
                        0 => h.seq = h.seq.wrapping_add(1), // a later fragment's number
                        1 => h.session ^= 1,
                        2 => h.hash ^= 1,
                        _ => {}
                    }
                    if s.spent(&h) {
                        spent.push(h);
                    } else {
                        s.absorb(&h, Bytes::new(), now);
                    }
                }
                4 => {
                    if let Some(serial) = serial {
                        if s.expire(serial, 2) == Expiry::Exhausted {
                            s.abandon();
                        }
                    }
                }
                5 => {
                    s.abandon();
                }
                6 if reopens < 8 => {
                    reopens += 1;
                    s.reopen(1 + (pick % 1000) as u16);
                }
                _ => {}
            }
            let updating = s.open().map(|r| r.app.kind) == Some(RequestKind::Update);
            for h in &spent {
                prop_assert!(!(updating && s.answers(h)), "{:?} answers an update after it was spent", h);
                let mut ack = *h;
                ack.ptype = PacketType::ServerAck;
                prop_assert_eq!(s.absorb(&ack, Bytes::new(), now), Absorbed::Ignored);
                ack.ptype = PacketType::PmnetAck;
                prop_assert_eq!(s.absorb(&ack, Bytes::new(), now), Absorbed::Ignored);
            }
        }
    }
}

/// `got` must be `Done` exactly when the model's rule first holds.
fn check(
    got: &Absorbed,
    completed: &mut bool,
    model: &Model,
    mode: &ClientMode,
    kind: RequestKind,
) {
    let holds = model.done(mode, kind);
    if *completed {
        prop_assert_eq!(got, &Absorbed::Ignored);
    } else if holds {
        prop_assert!(
            matches!(got, Absorbed::Done(_)),
            "rule holds but got {:?}",
            got
        );
        *completed = true;
    } else {
        prop_assert_eq!(got, &Absorbed::Progress);
    }
}

#[test]
fn fragmentation_numbers_and_slices_an_update() {
    let payload: Vec<u8> = (0..4000u32).map(|i| i as u8).collect();
    let mut s = session(ClientMode::Baseline);
    s.begin(update(payload.clone()), Time::ZERO).unwrap();
    let frags: Vec<_> = s.fragments(Which::All).collect();
    assert_eq!(frags.len(), 3);
    for (i, f) in frags.iter().enumerate() {
        assert_eq!((f.header.seq, f.header.frag_idx), (i as u32, i as u16));
        assert_eq!((f.header.session, f.header.frag_cnt), (3, 3));
    }
    let rejoined: Vec<u8> = frags.iter().flat_map(|f| f.payload.to_vec()).collect();
    assert_eq!(rejoined, payload);
    assert_eq!(s.open().unwrap().frag_range, (0, 2));
}

#[test]
fn reopen_strides_the_id_and_restarts_the_numbering() {
    let mut s = session(ClientMode::Baseline);
    let first = s.begin(request(2), Time::ZERO).unwrap();
    s.reopen(1000);
    assert!(
        s.open().is_none(),
        "the open exchange died with the process"
    );
    assert_eq!(s.id(), 1003);
    let second = s.begin(request(1), Time::ZERO).unwrap();
    assert_eq!(s.open().unwrap().frag_range, (0, 0));
    assert!(second > first, "serials survive so old timers stay stale");
    assert_eq!(s.expire(first, 3), Expiry::Stale);
}

#[test]
fn an_over_mtu_bypass_is_refused_without_consuming_anything() {
    let mut s = session(ClientMode::Baseline);
    let too_big = bypass(vec![0u8; MAX_FRAGMENT_PAYLOAD + 1]);
    let refused = Oversize {
        len: MAX_FRAGMENT_PAYLOAD + 1,
        max: MAX_FRAGMENT_PAYLOAD,
    };
    assert_eq!(s.begin(too_big, Time::ZERO), Err(refused));
    assert!(s.open().is_none());
    assert_eq!(
        s.begin(bypass(vec![0u8; MAX_FRAGMENT_PAYLOAD]), Time::ZERO),
        Ok(1)
    );
    assert_eq!(s.open().unwrap().frag_range, (0, 0));
}

/// Plays a script and keeps every terminal outcome where the test can
/// still see it.
#[derive(Debug)]
struct OutcomeSource {
    script: ScriptSource,
    outcomes: Rc<RefCell<Vec<(RequestKind, UpdateOutcome)>>>,
}

impl RequestSource for OutcomeSource {
    fn next_request(&mut self, rng: &mut SimRng) -> Option<AppRequest> {
        self.script.next_request(rng)
    }

    fn on_outcome(&mut self, req: &AppRequest, outcome: UpdateOutcome) {
        self.outcomes.borrow_mut().push((req.kind, outcome));
    }
}

/// The closed-loop driver's side of [`Oversize`]: the request fails, the
/// workload goes on. (The parent commit panicked in `issue_next`.)
#[test]
fn client_lib_fails_an_over_mtu_bypass_and_moves_on() {
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let source = OutcomeSource {
        script: ScriptSource::new([
            bypass(vec![0u8; MAX_FRAGMENT_PAYLOAD + 1]),
            update(vec![1u8; 64]),
        ]),
        outcomes: outcomes.clone(),
    };
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, SystemConfig::default())
        .client(Box::new(source))
        .build(3);
    sys.run_clients(Dur::secs(1));
    let client = sys.world.node::<ClientLib>(sys.clients[0]);
    assert!(client.is_finished());
    assert_eq!(client.retry_counters().failed, 1);
    assert_eq!(client.total_completed(), 1);
    assert_eq!(client.acked_updates(), &[(0, 0)]);
    assert_eq!(
        *outcomes.borrow(),
        [
            (RequestKind::Bypass, UpdateOutcome::Failed),
            (RequestKind::Update, UpdateOutcome::Completed)
        ]
    );
}
