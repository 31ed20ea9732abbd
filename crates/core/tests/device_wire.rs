//! What the device puts on the wire, and when: each test taps an endpoint
//! next to a lone device and reads the packets themselves, not counters.

use pmnet_core::config::{BatchConfig, DeviceConfig};
use pmnet_core::device::{DeviceFabric, DeviceRole, PmnetDevice};
use pmnet_core::protocol::{PacketType, PmnetHeader, FLAG_REDO};
use pmnet_net::{Addr, Ctx, EchoHost, LinkSpec, Msg, Node, Packet, PortNo, World};
use pmnet_sim::{Dur, NodeId, Time};

const CLIENT: Addr = Addr(1);
const SERVER: Addr = Addr(9);
const DEVICE: Addr = Addr(100);

/// An endpoint that transmits what is injected and keeps what arrives.
struct Tap {
    addr: Addr,
    seen: Vec<(Time, Packet)>,
}

impl Node for Tap {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::Packet { packet, .. } => self.seen.push((ctx.now(), packet)),
            Msg::Inject(packet) => ctx.send(PortNo(0), packet),
            _ => {}
        }
    }

    fn addr(&self) -> Option<Addr> {
        Some(self.addr)
    }
}

/// `tapped` end -- device -- the other end (a sink). Returns the world,
/// the client, the device and the server.
fn rig(device: PmnetDevice, tapped: Addr) -> (World, NodeId, NodeId, NodeId) {
    let mut w = World::new(11);
    let mut end = |addr: Addr| {
        if addr == tapped {
            let seen = Vec::new();
            w.add_node(Box::new(Tap { addr, seen }))
        } else {
            w.add_node(Box::new(EchoHost::sink(addr)))
        }
    };
    let (client, server) = (end(CLIENT), end(SERVER));
    let dev = w.add_node(Box::new(device));
    w.connect(client, dev, LinkSpec::ten_gbps());
    w.connect(dev, server, LinkSpec::ten_gbps());
    w.populate_switch_routes();
    (w, client, dev, server)
}

fn device(config: DeviceConfig) -> PmnetDevice {
    PmnetDevice::new("pmnet0", 1, DEVICE, config)
}

fn update(seq: u32, payload: &[u8]) -> (PmnetHeader, Packet) {
    let h = PmnetHeader::request(PacketType::UpdateReq, 1, seq, CLIENT, SERVER, 0, 1)
        .with_payload(payload);
    let p = Packet::udp(CLIENT, SERVER, 51001, 51000, h.encode(payload));
    (h, p)
}

/// A control packet from the server to the device itself.
fn order(ptype: PacketType, word: u32, dst_port: u16) -> Packet {
    let h = PmnetHeader::control(ptype, word, SERVER, DEVICE);
    Packet::udp(SERVER, DEVICE, 51000, dst_port, h.encode(&[]))
}

#[test]
fn every_redo_path_emits_the_same_packet() {
    // One entry, re-sent three ways: the entry-retry timer (1 ms),
    // `Retrans` service, and a recovery resend. The server taps them.
    let mut config = DeviceConfig::fpga();
    config.log_retry_timeout = Dur::millis(1);
    let (mut w, client, dev, server) = rig(device(config), SERVER);
    let (h, pkt) = update(1, b"the same bytes");
    w.inject(client, pkt);
    w.run_for(Dur::micros(1500));
    let mut rh = h;
    rh.ptype = PacketType::Retrans;
    w.inject(
        server,
        Packet::udp(SERVER, CLIENT, 51000, 51001, rh.encode(&[])),
    );
    w.inject(server, order(PacketType::RecoveryPoll, 0, 51002));
    w.run_for(Dur::micros(400));
    let c = w.node::<PmnetDevice>(dev).counters();
    assert_eq!(
        (c.entry_retries, c.retrans_served, c.recovery_resends),
        (1, 1, 1)
    );
    let wire = |p: &Packet| (p.src, p.dst, p.src_port, p.dst_port, p.payload.clone());
    let seen = &w.node::<Tap>(server).seen;
    assert_eq!(seen.len(), 4, "the original forward and three redos");
    let (original, redo) = (&seen[0].1, wire(&seen[1].1));
    assert_eq!(wire(&seen[2].1), redo, "one builder, one packet");
    assert_eq!(wire(&seen[3].1), redo, "one builder, one packet");
    // And that packet is the original with only the redo flag added.
    let (mut oh, body) = PmnetHeader::decode(&original.payload).unwrap();
    assert!(!oh.is_redo());
    oh.flags |= FLAG_REDO;
    let flagged = Packet::udp(CLIENT, SERVER, 51001, 51000, oh.encode(&body));
    assert_eq!(redo, wire(&flagged));
}

/// A chain primary whose backup never answers, holding 24 durable
/// entries, is promoted; returns the hashes of the client ACKs in wire
/// order.
fn acks_released_by_promote() -> Vec<u32> {
    let mut primary = device(DeviceConfig::fpga());
    primary.set_fabric(DeviceFabric {
        role: DeviceRole::Primary,
        chain_peer: Some(Addr(200)),
        chain_port: None,
        merge_port: None,
        tor_port: None,
        server: SERVER,
    });
    let (mut w, client, dev, server) = rig(primary, CLIENT);
    for seq in 1..=24 {
        w.inject(client, update(seq, b"withheld").1);
    }
    w.run_for(Dur::micros(500));
    assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 24);
    assert!(w.node::<Tap>(client).seen.is_empty(), "acks are withheld");
    w.inject(server, order(PacketType::Promote, 1, 51000));
    w.run_for(Dur::micros(500));
    let d = w.node::<PmnetDevice>(dev);
    assert_eq!(d.role(), DeviceRole::Solo);
    assert_eq!(d.counters().chain_releases, 24);
    let acks = w.node::<Tap>(client).seen.iter();
    acks.map(|(_, p)| PmnetHeader::decode(&p.payload).unwrap().0.hash)
        .collect()
}

#[test]
fn promote_releases_withheld_acks_in_one_order() {
    // Two devices in one process carry two `RandomState`s: were the
    // release order a hash map's, they would all but surely disagree.
    let first = acks_released_by_promote();
    assert_eq!(first.len(), 24);
    assert_eq!(first, acks_released_by_promote());
    assert!(first.windows(2).all(|w| w[0] < w[1]), "ascending by hash");
}

/// Injects `packets` back to back at a solo device and returns when each
/// client ACK packet was delivered, and the device's ACK count.
fn ack_deliveries(batch: BatchConfig, packets: &[Packet]) -> (Vec<Time>, u64) {
    let mut config = DeviceConfig::fpga();
    config.log_retry_timeout = Dur::secs(3600);
    let (mut w, client, dev, _) = rig(device(config).with_batch(batch), CLIENT);
    for pkt in packets {
        w.inject(client, pkt.clone());
    }
    w.run_for(Dur::millis(1));
    let seen = &w.node::<Tap>(client).seen;
    let acks_sent = w.node::<PmnetDevice>(dev).counters().acks_sent;
    (seen.iter().map(|(at, _)| *at).collect(), acks_sent)
}

#[test]
fn duplicate_of_an_in_flight_write_is_not_acked_early() {
    // A 1 000 B entry takes ≈ 8 µs to reach PM; the network's duplicate of
    // the update arrives ≈ 1 µs behind the original. A crash in between
    // loses the update, so the copy must not be acknowledged on arrival:
    // it is held, and the one ACK leaves when the write completes —
    // exactly when it would have without the duplicate.
    let pkt = update(1, &[0xAB; 1000]).1;
    let (alone, _) = ack_deliveries(BatchConfig::default(), std::slice::from_ref(&pkt));
    assert_eq!(alone.len(), 1);
    let (with_dup, acks_sent) = ack_deliveries(BatchConfig::default(), &[pkt.clone(), pkt]);
    assert_eq!(with_dup, alone, "no earlier ack, no second ack");
    assert_eq!(acks_sent, 1);
}

#[test]
fn duplicate_of_a_flushed_unpersisted_window_is_not_acked_early() {
    // Three updates fill a window of three (all the 4 KiB log queue admits
    // at this size) and ring the doorbell; a duplicate of the first
    // arrives while the window's single write is in flight.
    let mut batch = BatchConfig::windowed(3);
    batch.max_wait = Dur::micros(100);
    let mut packets: Vec<Packet> = (1..=3).map(|seq| update(seq, &[0xAB; 1000]).1).collect();
    let (alone, _) = ack_deliveries(batch, &packets);
    assert_eq!(alone.len(), 1, "one coalesced packet");
    packets.push(packets[0].clone());
    let (with_dup, acks_sent) = ack_deliveries(batch, &packets);
    assert_eq!(with_dup, alone, "no earlier ack, no second ack");
    assert_eq!(acks_sent, 3);
}
