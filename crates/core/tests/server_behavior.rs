//! Behavioural tests for the server library driven through minimal
//! worlds: in-order delivery, gap detection and retransmission requests,
//! duplicate handling, worker-pool parallelism, the apply pool's staged
//! duplicates, ack timing under a doorbell window, and kernel-level early
//! logging.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use pmnet_core::config::{ApplyConfig, BatchConfig, HostProfile, SystemConfig};
use pmnet_core::protocol::{PacketType, PmnetHeader};
use pmnet_core::server::{IdealHandler, RequestHandler, ServerLib};
use pmnet_net::StackProfile;
use pmnet_net::{Addr, Ctx, EchoHost, LinkSpec, Msg, Node, Packet, PortNo, World};
use pmnet_sim::{Dur, SimRng, Time};

const CLIENT: Addr = Addr(1);
const SERVER: Addr = Addr(9);

/// A jitter-free server profile so wire order survives the stack and the
/// tests below are exact; jittery-stack reordering has its own test.
fn deterministic_profile() -> HostProfile {
    HostProfile {
        kernel_rx: StackProfile::fixed(Dur::micros(12)),
        user_rx: StackProfile::fixed(Dur::micros(7)),
        user_tx: StackProfile::fixed(Dur::micros(6)),
        kernel_tx: StackProfile::fixed(Dur::micros(11)),
        app_overhead: Dur::micros(1),
    }
}

fn world_with_server(
    handler: Box<dyn RequestHandler>,
    workers: usize,
) -> (World, pmnet_sim::NodeId, pmnet_sim::NodeId) {
    let mut w = World::new(17);
    let client = w.add_node(Box::new(EchoHost::sink(CLIENT)));
    let server = w.add_node(Box::new(ServerLib::new(
        SERVER,
        deterministic_profile(),
        workers,
        Dur::micros(100),
        handler,
    )));
    w.connect(client, server, LinkSpec::ten_gbps());
    w.populate_switch_routes();
    (w, client, server)
}

/// An [`IdealHandler`] that also lists every sequence number it applied,
/// in application order. `ServerLib::apply_one` is the only caller of
/// `handle_update`, so this is the order the audit log saw.
#[derive(Debug)]
struct Recording {
    inner: IdealHandler,
    applied: Vec<u32>,
}

impl Recording {
    fn boxed() -> Box<dyn RequestHandler> {
        Box::new(Recording {
            inner: IdealHandler::new(),
            applied: Vec::new(),
        })
    }
}

impl RequestHandler for Recording {
    fn handle_update(
        &mut self,
        client: Addr,
        session: u16,
        seq: u32,
        payload: &Bytes,
        rng: &mut SimRng,
    ) -> Dur {
        self.applied.push(seq);
        self.inner.handle_update(client, session, seq, payload, rng)
    }
    fn handle_bypass(&mut self, payload: &Bytes, rng: &mut SimRng) -> (Dur, Option<Bytes>) {
        self.inner.handle_bypass(payload, rng)
    }
    fn applied_seq(&mut self, client: Addr, session: u16) -> Option<u32> {
        self.inner.applied_seq(client, session)
    }
    fn on_crash(&mut self, rng: &mut SimRng) {
        self.inner.on_crash(rng)
    }
    fn on_recover(&mut self) -> Dur {
        self.inner.on_recover()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The sequence numbers a [`Recording`] server applied, in order.
fn applied_seqs(s: &ServerLib) -> &[u32] {
    let handler = s.handler().as_any().downcast_ref::<Recording>();
    &handler.expect("a recording handler").applied
}

fn update_pkt(seq: u32, payload: &[u8]) -> Packet {
    let h = PmnetHeader::request(PacketType::UpdateReq, 0, seq, CLIENT, SERVER, 0, 1)
        .with_payload(payload);
    Packet::udp(CLIENT, SERVER, 51001, 51000, h.encode(payload))
}

fn bypass_pkt(seq: u32) -> Packet {
    let h = PmnetHeader::request(PacketType::BypassReq, 0, seq, CLIENT, SERVER, 0, 1)
        .with_payload(b"O-read");
    Packet::udp(CLIENT, SERVER, 51001, 51000, h.encode(b"O-read"))
}

#[test]
fn in_order_updates_apply_immediately() {
    let (mut w, client, server) = world_with_server(Box::new(IdealHandler::new()), 4);
    for seq in 0..5 {
        w.inject(client, update_pkt(seq, b"x"));
    }
    w.run_for(Dur::millis(2));
    let s = w.node::<ServerLib>(server);
    assert_eq!(s.counters().updates_applied, 5);
    assert_eq!(s.counters().reordered, 0);
    assert_eq!(s.counters().retrans_sent, 0);
    // One server-ACK per update went back to the client.
    assert_eq!(w.node::<EchoHost>(client).received(), 5);
}

#[test]
fn out_of_order_updates_are_buffered_and_drained_in_order() {
    let (mut w, client, server) = world_with_server(Recording::boxed(), 4);
    // Deliver 0 then 2,3 (gap at 1), then 1 before the gap timer fires.
    w.inject(client, update_pkt(0, b"a"));
    w.run_for(Dur::micros(40));
    w.inject(client, update_pkt(2, b"c"));
    w.inject(client, update_pkt(3, b"d"));
    w.run_for(Dur::micros(40));
    assert_eq!(w.node::<ServerLib>(server).counters().updates_applied, 1);
    assert_eq!(w.node::<ServerLib>(server).counters().reordered, 2);
    w.inject(client, update_pkt(1, b"b"));
    w.run_for(Dur::millis(1));
    let s = w.node::<ServerLib>(server);
    assert_eq!(
        s.counters().updates_applied,
        4,
        "gap filled, buffer drained"
    );
    // The gap was repaired before the detector fired: no Retrans.
    assert_eq!(s.counters().retrans_sent, 0);
    // Application order: 0,1,2,3.
    assert_eq!(applied_seqs(s), [0, 1, 2, 3]);
}

#[test]
fn unfilled_gap_triggers_retrans_requests() {
    let (mut w, client, server) = world_with_server(Box::new(IdealHandler::new()), 4);
    w.inject(client, update_pkt(0, b"a"));
    w.inject(client, update_pkt(3, b"d")); // 1 and 2 missing
    w.run_for(Dur::millis(2));
    let s = w.node::<ServerLib>(server);
    assert_eq!(s.counters().updates_applied, 1);
    // One Retrans per missing seq per detector round; the sink client
    // never repairs the gap, so the detector keeps retrying (as it must
    // when Retrans packets themselves can be lost).
    assert!(s.counters().retrans_sent >= 2, "{:?}", s.counters());
    assert_eq!(s.counters().retrans_sent % 2, 0, "both seqs each round");
    // Client saw: 1 server-ACK + the Retrans rounds.
    assert!(w.node::<EchoHost>(client).received() >= 3);
}

#[test]
fn duplicates_are_dropped_with_make_up_acks() {
    let (mut w, client, server) = world_with_server(Box::new(IdealHandler::new()), 4);
    w.inject(client, update_pkt(0, b"a"));
    w.run_for(Dur::millis(1));
    // The same packet again (e.g. a client timeout resend).
    w.inject(client, update_pkt(0, b"a"));
    w.run_for(Dur::millis(1));
    let s = w.node::<ServerLib>(server);
    assert_eq!(s.counters().updates_applied, 1);
    assert_eq!(s.counters().duplicates_dropped, 1);
    assert_eq!(s.counters().make_up_acks, 1);
    assert_eq!(
        w.node::<EchoHost>(client).received(),
        2,
        "ack + make-up ack"
    );
}

/// A handler with a long fixed service time.
#[derive(Debug)]
struct Slow;

impl RequestHandler for Slow {
    fn handle_update(&mut self, _c: Addr, _s: u16, _q: u32, _p: &Bytes, _r: &mut SimRng) -> Dur {
        Dur::millis(1)
    }
    fn handle_bypass(&mut self, _p: &Bytes, _r: &mut SimRng) -> (Dur, Option<Bytes>) {
        (Dur::millis(1), Some(Bytes::new()))
    }
    fn applied_seq(&mut self, _c: Addr, _s: u16) -> Option<u32> {
        None
    }
    fn on_crash(&mut self, _r: &mut SimRng) {}
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
fn worker_pool_overlaps_slow_requests() {
    // 8 bypass requests, 1 ms each. With 8 workers they overlap; with 1
    // worker they serialize.
    let run = |workers: usize| {
        let (mut w, client, _server) = world_with_server(Box::new(Slow), workers);
        for seq in 0..8 {
            w.inject(client, bypass_pkt(seq));
        }
        w.run_for(Dur::millis(30));
        // Completion visible as replies at the client.
        assert_eq!(
            w.node::<EchoHost>(client).received(),
            8,
            "workers={workers}"
        );
        w.now()
    };
    let parallel = run(8);
    let serial = run(1);
    assert!(
        serial > parallel + Dur::millis(5),
        "1 worker ({serial}) must be much slower than 8 ({parallel})"
    );
}

#[test]
fn early_log_acks_before_user_space_processing() {
    let (mut w, client, server) = {
        let mut w = World::new(23);
        let client = w.add_node(Box::new(EchoHost::sink(CLIENT)));
        let server = w.add_node(Box::new(
            ServerLib::new(
                SERVER,
                HostProfile::kernel_server(),
                4,
                Dur::micros(100),
                Box::new(IdealHandler::new()),
            )
            .with_early_log(100, Vec::new()),
        ));
        w.connect(client, server, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        (w, client, server)
    };
    w.inject(client, update_pkt(0, b"log-me"));
    w.run_for(Dur::millis(2));
    // The client got TWO responses: the kernel-level early-log ack
    // (PmnetAck, logger id 100) and the normal server-ACK.
    assert_eq!(w.node::<EchoHost>(client).received(), 2);
    assert_eq!(w.node::<ServerLib>(server).counters().updates_applied, 1);
}

#[test]
fn crash_wipes_reorder_state_and_recovery_initializes_from_durable_seq() {
    let mut handler = IdealHandler::new();
    handler.record_applied(CLIENT, 0, 9); // durable watermark: seq 9
    let (mut w, client, server) = world_with_server(Box::new(handler), 4);
    // Deliver an already-applied seq after a crash/restore cycle: it must
    // be treated as duplicate based on the durable watermark.
    w.schedule_crash(server, Time::ZERO + Dur::micros(10), Some(Dur::micros(50)));
    w.run_for(Dur::millis(1));
    w.inject(client, update_pkt(5, b"stale"));
    w.inject(client, update_pkt(10, b"fresh"));
    w.run_for(Dur::millis(2));
    let s = w.node::<ServerLib>(server);
    assert_eq!(s.counters().duplicates_dropped, 1, "seq 5 <= watermark 9");
    assert_eq!(s.counters().updates_applied, 1, "seq 10 applied");
}

#[test]
fn jittery_stacks_can_reorder_but_the_server_repairs() {
    // With the real (jittery, hiccuping) kernel profile, wire-ordered
    // packets may cross inside the two-stage stack; the reorder buffer
    // must still deliver them in sequence.
    let mut w = World::new(31);
    let client = w.add_node(Box::new(EchoHost::sink(CLIENT)));
    let server = w.add_node(Box::new(ServerLib::new(
        SERVER,
        HostProfile::kernel_server(),
        4,
        Dur::micros(100),
        Recording::boxed(),
    )));
    w.connect(client, server, LinkSpec::ten_gbps());
    w.populate_switch_routes();
    for seq in 0..50 {
        w.inject(client, update_pkt(seq, b"x"));
    }
    w.run_for(Dur::millis(5));
    let s = w.node::<ServerLib>(server);
    assert_eq!(s.counters().updates_applied, 50);
    assert_eq!(
        applied_seqs(s),
        (0..50).collect::<Vec<_>>(),
        "must apply in order"
    );
}

#[test]
fn recovery_poll_is_sent_to_registered_devices() {
    let cfg = SystemConfig::default();
    let mut w = World::new(29);
    // A fake "device" endpoint that just counts what arrives.
    let device = w.add_node(Box::new(EchoHost::sink(Addr(50))));
    let server = w.add_node(Box::new(
        ServerLib::new(
            SERVER,
            cfg.server,
            4,
            cfg.gap_timeout,
            Box::new(IdealHandler::new()),
        )
        .with_devices(vec![Addr(50)]),
    ));
    w.connect(server, device, LinkSpec::ten_gbps());
    w.populate_switch_routes();
    w.schedule_crash(server, Time::ZERO + Dur::micros(10), Some(Dur::micros(100)));
    w.run_for(Dur::millis(5));
    // The sink never answers with RecoveryDone, so the barrier stays open
    // and the server re-polls with backoff until it hears back.
    let polls = w.node::<EchoHost>(device).received();
    assert!(polls >= 2, "expected backoff re-polls, got {polls}");
    let s = w.node::<ServerLib>(server);
    assert_eq!(s.recovery_pending(), 1, "barrier must still be open");
    let rec = s.recovery().expect("recovered");
    assert!(rec.polled_at >= rec.restored_at);
    assert_eq!(rec.poll_retries, polls - 1);
    assert_eq!(rec.barrier_done_at, Time::MAX);
}

/// A client endpoint that keeps the arrival instant of every `ServerAck`.
struct AckTimes(Rc<RefCell<Vec<Time>>>);

impl Node for AckTimes {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        if let Msg::Packet { packet, .. } = msg {
            let h = PmnetHeader::peek(&packet.payload);
            if h.is_some_and(|h| h.ptype == PacketType::ServerAck) {
                self.0.borrow_mut().push(ctx.now());
            }
        }
    }
}

#[test]
fn a_doorbell_window_does_not_hold_the_servers_ack() {
    // One lone update reaches a server built with each policy; the
    // window is the device's, so the server acks it as soon as it is
    // applied either way.
    let ack_times = |batch: BatchConfig| {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut w = World::new(17);
        let client = w.add_node(Box::new(AckTimes(seen.clone())));
        let server = ServerLib::new(
            SERVER,
            deterministic_profile(),
            4,
            Dur::micros(100),
            Box::new(IdealHandler::new()),
        )
        .with_batch(batch);
        let server = w.add_node(Box::new(server));
        w.connect(client, server, LinkSpec::ten_gbps());
        let packet = update_pkt(0, b"x");
        w.schedule(
            Time::ZERO,
            server,
            Msg::Packet {
                port: PortNo(0),
                packet,
            },
        );
        w.run_for(Dur::millis(1));
        let seen = seen.borrow().clone();
        seen
    };
    let unbatched = ack_times(BatchConfig::default());
    assert_eq!(unbatched.len(), 1, "one ServerAck: {unbatched:?}");
    assert_eq!(
        ack_times(BatchConfig::windowed(16)),
        unbatched,
        "a window of 16 held the ack"
    );
}

#[test]
fn a_duplicate_of_a_staged_update_gets_no_make_up_ack_until_applied() {
    let mut w = World::new(17);
    let client = w.add_node(Box::new(EchoHost::sink(CLIENT)));
    let server = ServerLib::new(
        SERVER,
        deterministic_profile(),
        4,
        Dur::micros(100),
        Box::new(Slow),
    )
    .with_apply(ApplyConfig::threaded(2));
    let server = w.add_node(Box::new(server));
    w.connect(client, server, LinkSpec::ten_gbps());
    w.populate_switch_routes();
    // Seq 0 occupies its session's worker for 1 ms; seq 1 waits staged on
    // that worker's queue, and so a copy of it is a staged duplicate.
    w.inject(client, update_pkt(0, b"a"));
    w.inject(client, update_pkt(1, b"b"));
    w.inject(client, update_pkt(1, b"b"));
    w.run_for(Dur::micros(500));
    let c = w.node::<ServerLib>(server).counters();
    assert_eq!((c.updates_applied, c.duplicates_dropped), (1, 1), "{c:?}");
    assert_eq!(c.make_up_acks, 0, "acked a duplicate still staged: {c:?}");
    // Once the worker frees up it applies seq 1; a copy now is a plain
    // duplicate of an applied update and is acked to drain the device log.
    w.run_for(Dur::millis(2));
    w.inject(client, update_pkt(1, b"b"));
    w.run_for(Dur::millis(1));
    let c = w.node::<ServerLib>(server).counters();
    assert_eq!((c.updates_applied, c.duplicates_dropped), (2, 2), "{c:?}");
    assert_eq!(c.make_up_acks, 1, "{c:?}");
}
