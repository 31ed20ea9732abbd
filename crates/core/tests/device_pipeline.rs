//! Additional device-pipeline coverage: chained devices forwarding each
//! other's ACKs, recovery polls addressed past a device, cache fills from
//! pass-through read replies, and forced hash collisions.

use bytes::Bytes;
use pmnet_core::config::{DeviceConfig, SystemConfig};
use pmnet_core::kvproto::KvFrame;
use pmnet_core::protocol::{PacketType, PmnetHeader};
use pmnet_core::PmnetDevice;
use pmnet_net::{Addr, EchoHost, Packet, World};
use pmnet_sim::{Dur, NodeId};

const CLIENT: Addr = Addr(1);
const SERVER: Addr = Addr(9);
const DEV1: Addr = Addr(101);
const DEV2: Addr = Addr(102);

fn no_retry(mut d: DeviceConfig) -> DeviceConfig {
    d.log_retry_timeout = Dur::secs(3600);
    d
}

/// client — dev1 — dev2 — server
fn chain() -> (World, NodeId, NodeId, NodeId, NodeId) {
    let cfg = SystemConfig::default();
    let mut w = World::new(41);
    let client = w.add_node(Box::new(EchoHost::sink(CLIENT)));
    let d1 = w.add_node(Box::new(PmnetDevice::new(
        "d1",
        1,
        DEV1,
        no_retry(cfg.device),
    )));
    let d2 = w.add_node(Box::new(PmnetDevice::new(
        "d2",
        2,
        DEV2,
        no_retry(cfg.device),
    )));
    let server = w.add_node(Box::new(EchoHost::sink(SERVER)));
    w.connect(client, d1, cfg.link);
    w.connect(d1, d2, cfg.link);
    w.connect(d2, server, cfg.link);
    w.populate_switch_routes();
    (w, client, d1, d2, server)
}

fn update_pkt(seq: u32, payload: &[u8]) -> (PmnetHeader, Packet) {
    let h = PmnetHeader::request(PacketType::UpdateReq, 0, seq, CLIENT, SERVER, 0, 1)
        .with_payload(payload);
    let p = Packet::udp(CLIENT, SERVER, 51001, 51000, h.encode(payload));
    (h, p)
}

#[test]
fn chained_devices_both_log_and_ack_with_distinct_ids() {
    let (mut w, client, d1, d2, server) = chain();
    let (_, pkt) = update_pkt(1, b"replicate-me");
    w.inject(client, pkt);
    w.run_for(Dur::millis(2));
    assert_eq!(w.node::<PmnetDevice>(d1).log_len(), 1);
    assert_eq!(w.node::<PmnetDevice>(d2).log_len(), 1);
    // The client received two PMNet-ACKs: one per device. Device #2's ack
    // traveled back through device #1 (which must forward, not consume).
    assert_eq!(w.node::<EchoHost>(client).received(), 2);
    assert_eq!(w.node::<EchoHost>(server).received(), 1);
}

#[test]
fn server_ack_drains_every_log_on_the_path() {
    let (mut w, client, d1, d2, _server) = chain();
    let (h, pkt) = update_pkt(1, b"x");
    w.inject(client, pkt);
    w.run_for(Dur::millis(2));
    // Server acks; the ack must invalidate d2's entry, then d1's.
    let server_node = NodeId(3);
    let ack = Packet::udp(SERVER, CLIENT, 51000, 51001, h.server_ack().encode(&[]));
    w.inject(server_node, ack);
    w.run_for(Dur::millis(2));
    assert_eq!(w.node::<PmnetDevice>(d2).log_len(), 0);
    assert_eq!(w.node::<PmnetDevice>(d1).log_len(), 0);
    // The ack also reached the client (after 2 acks = 3 packets total).
    assert_eq!(w.node::<EchoHost>(client).received(), 3);
}

#[test]
fn recovery_poll_for_a_downstream_device_is_forwarded() {
    let (mut w, client, d1, d2, _server) = chain();
    let (_, pkt) = update_pkt(1, b"x");
    w.inject(client, pkt);
    w.run_for(Dur::millis(2));
    // The server polls device #1 specifically; the poll enters at d2,
    // which must forward it rather than answer for its sibling.
    let poll = PmnetHeader::request(PacketType::RecoveryPoll, 0, 0, SERVER, DEV1, 0, 1);
    let pkt = Packet::udp(SERVER, DEV1, 51000, 51002, poll.encode(&[]));
    w.inject(NodeId(3), pkt);
    w.run_for(Dur::millis(2));
    assert_eq!(w.node::<PmnetDevice>(d1).counters().recovery_resends, 1);
    assert_eq!(w.node::<PmnetDevice>(d2).counters().recovery_resends, 0);
}

#[test]
fn pass_through_read_replies_fill_the_cache() {
    let cfg = SystemConfig::default();
    let mut w = World::new(43);
    let client = w.add_node(Box::new(EchoHost::sink(CLIENT)));
    let dev = w.add_node(Box::new(PmnetDevice::new(
        "d",
        1,
        DEV1,
        no_retry(cfg.device.with_cache(128)),
    )));
    let server = w.add_node(Box::new(EchoHost::sink(SERVER)));
    w.connect(client, dev, cfg.link);
    w.connect(dev, server, cfg.link);
    w.populate_switch_routes();

    // A read reply travels server -> client through the device.
    let h = PmnetHeader::request(PacketType::AppReply, 0, 7, CLIENT, SERVER, 0, 1);
    let frame = KvFrame::Value {
        key: Bytes::from_static(b"warm"),
        value: Bytes::from_static(b"cached-by-reply"),
        found: true,
    };
    let reply = Packet::udp(SERVER, CLIENT, 51000, 51001, h.encode(&frame.encode()));
    w.inject(NodeId(2), reply);
    w.run_for(Dur::millis(1));
    // A subsequent read for the same key hits the cache.
    let get_frame = KvFrame::Get {
        key: Bytes::from_static(b"warm"),
    };
    let get = PmnetHeader::request(PacketType::BypassReq, 0, 8, CLIENT, SERVER, 0, 1)
        .with_payload(&get_frame.encode());
    w.inject(
        client,
        Packet::udp(
            CLIENT,
            SERVER,
            51001,
            51000,
            get.encode(&get_frame.encode()),
        ),
    );
    w.run_for(Dur::millis(1));
    let d = w.node::<PmnetDevice>(dev);
    assert_eq!(d.counters().cache_responses, 1);
    let c = d.cache_counters().expect("cache enabled");
    assert_eq!(c.read_fills, 1);
    assert_eq!(c.hits, 1);
    // Miss replies (found == false) must NOT fill the cache.
    let miss_h = PmnetHeader::request(PacketType::AppReply, 0, 9, CLIENT, SERVER, 0, 1);
    let miss = KvFrame::Value {
        key: Bytes::from_static(b"absent"),
        value: Bytes::new(),
        found: false,
    };
    w.inject(
        NodeId(2),
        Packet::udp(SERVER, CLIENT, 51000, 51001, miss_h.encode(&miss.encode())),
    );
    w.run_for(Dur::millis(1));
    assert_eq!(
        w.node::<PmnetDevice>(dev)
            .cache_counters()
            .expect("cache")
            .read_fills,
        1,
        "miss reply must not fill"
    );
}

#[test]
fn pm_backlog_never_stalls_forwarding_at_line_rate() {
    // Section IV-B2: the PM-access stage is decoupled from the pipeline by
    // the Eq. 2 log queue. Starve the queue and blast a burst: some
    // packets bypass logging, but EVERY packet is forwarded at wire pace.
    let cfg = SystemConfig::default();
    let mut w = World::new(53);
    let client = w.add_node(Box::new(EchoHost::sink(CLIENT)));
    // Handicap the PM to 500 MB/s (4 Gbps, well below the 10 Gbps wire) so
    // a line-rate burst genuinely outruns the persistence path.
    let mut device_cfg = no_retry(cfg.device.with_log_queue_bytes(2048));
    device_cfg.pm.bandwidth_bytes_per_sec = 500_000_000;
    let dev = w.add_node(Box::new(PmnetDevice::new("d", 1, DEV1, device_cfg)));
    let server = w.add_node(Box::new(EchoHost::sink(SERVER)));
    w.connect(client, dev, cfg.link);
    w.connect(dev, server, cfg.link);
    w.populate_switch_routes();
    let n = 30u32;
    for seq in 0..n {
        let (_, pkt) = update_pkt(seq, &[0u8; 1000]);
        w.inject(client, pkt);
    }
    // 30 x ~1 kB packets at 10 Gbps ≈ 25 us of wire time per hop; give a
    // small fixed budget far below any PM drain time for 30 kB at
    // 2.5 GB/s + per-write latency if forwarding were (wrongly) serialized
    // behind the log.
    w.run_for(Dur::micros(80));
    assert_eq!(
        w.node::<EchoHost>(server).received(),
        u64::from(n),
        "forwarding must run at line rate regardless of PM backlog"
    );
    let d = w.node::<PmnetDevice>(dev);
    assert!(
        d.log_counters().bypass_queue > 0,
        "the starved log queue must have overflowed: {:?}",
        d.log_counters()
    );
    // Unlogged packets were not acknowledged.
    assert!(
        d.counters().acks_sent < u64::from(n),
        "bypassed packets must not be acknowledged"
    );
}

#[test]
fn hash_collision_bypasses_logging_but_still_forwards() {
    let cfg = SystemConfig::default();
    let mut w = World::new(47);
    let client = w.add_node(Box::new(EchoHost::sink(CLIENT)));
    let dev = w.add_node(Box::new(PmnetDevice::new(
        "d",
        1,
        DEV1,
        no_retry(cfg.device),
    )));
    let server = w.add_node(Box::new(EchoHost::sink(SERVER)));
    w.connect(client, dev, cfg.link);
    w.connect(dev, server, cfg.link);
    w.populate_switch_routes();

    // A genuine CRC-32 collision between two distinct identities, found by
    // solving the CRC's linear kernel for client=1/server=9: (session 0,
    // seq 0) and (session 1601, seq 121713) share HashVal 0xdf8a971b. Both
    // packets verify — their hashes are correct for their own fields — but
    // the log is indexed by hash, so the second must bypass, not clobber.
    let h1 = PmnetHeader::request(PacketType::UpdateReq, 0, 0, CLIENT, SERVER, 0, 1)
        .with_payload(b"first");
    let p1 = Packet::udp(CLIENT, SERVER, 51001, 51000, h1.encode(b"first"));
    w.inject(client, p1);
    w.run_for(Dur::millis(1));
    let h2 = PmnetHeader::request(PacketType::UpdateReq, 1601, 121_713, CLIENT, SERVER, 0, 1)
        .with_payload(b"collider");
    assert_eq!(h2.hash, h1.hash);
    assert_eq!(h2.hash, 0xdf8a_971b);
    w.inject(
        client,
        Packet::udp(CLIENT, SERVER, 51001, 51000, h2.encode(b"collider")),
    );
    w.run_for(Dur::millis(1));
    let d = w.node::<PmnetDevice>(dev);
    assert_eq!(d.log_len(), 1, "collider not logged");
    assert_eq!(d.log_counters().bypass_collision, 1);
    // But it WAS forwarded (both packets reached the server), and only the
    // first got an ACK.
    assert_eq!(w.node::<EchoHost>(server).received(), 2);
    assert_eq!(w.node::<EchoHost>(client).received(), 1);
}

#[test]
fn corrupted_update_is_dropped_not_logged_and_not_acked() {
    let cfg = SystemConfig::default();
    let mut w = World::new(59);
    let client = w.add_node(Box::new(EchoHost::sink(CLIENT)));
    let dev = w.add_node(Box::new(PmnetDevice::new(
        "d",
        1,
        DEV1,
        no_retry(cfg.device),
    )));
    let server = w.add_node(Box::new(EchoHost::sink(SERVER)));
    w.connect(client, dev, cfg.link);
    w.connect(dev, server, cfg.link);
    w.populate_switch_routes();

    // Flip one payload bit after stamping the checksum: the device must
    // treat the packet as loss rather than persist a poisoned entry.
    let (h, _) = update_pkt(1, b"pristine");
    let mut body = h.encode(b"pristine").to_vec();
    let last = body.len() - 1;
    body[last] ^= 0x04;
    w.inject(
        client,
        Packet::udp(CLIENT, SERVER, 51001, 51000, Bytes::from(body)),
    );
    w.run_for(Dur::millis(1));
    let d = w.node::<PmnetDevice>(dev);
    assert_eq!(d.counters().corrupt_dropped, 1);
    assert_eq!(d.log_len(), 0);
    assert_eq!(d.counters().acks_sent, 0);
    assert_eq!(w.node::<EchoHost>(server).received(), 0);

    // A header-field flip (here: the sequence number) is caught by the
    // identity hash alone.
    let mut body = h.encode(b"pristine").to_vec();
    body[3] ^= 0x80; // low byte of `seq`
    w.inject(
        client,
        Packet::udp(CLIENT, SERVER, 51001, 51000, Bytes::from(body)),
    );
    w.run_for(Dur::millis(1));
    assert_eq!(w.node::<PmnetDevice>(dev).counters().corrupt_dropped, 2);
    assert_eq!(w.node::<EchoHost>(server).received(), 0);
}
