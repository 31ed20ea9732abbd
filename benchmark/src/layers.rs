//! Isolated layer drives: each times one layer's hot operation alone, in
//! host nanoseconds per unit, through that layer's public interface. They
//! price the parts the workloads are made of, so a change to one layer can
//! be told from a change to another.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use pmnet_core::client::RequestSource;
use pmnet_core::kvproto::KvFrame;
use pmnet_core::logstore::LogOutcome;
use pmnet_core::protocol::{PacketType, PmnetHeader};
use pmnet_core::{BatchBuilder, BatchFrames, DeviceConfig, LogStore, ReadCache, RequestHandler};
use pmnet_net::{Addr, EchoHost, LinkSpec, Msg, Packet, Switch, World};
use pmnet_pmem::{PmDevice, PmDeviceConfig};
use pmnet_sim::stats::LatencyHistogram;
use pmnet_sim::{Dur, Engine, NodeId, SimRng, Time};
use pmnet_traffic::{ArrivalProcess, PoissonArrivals};
use pmnet_workloads::{KvHandler, YcsbSource};

/// A drive: returns host nanoseconds per unit; the argument divides its
/// iteration count (1 = full, 100 = smoke).
pub type Drive = fn(u64) -> f64;

/// Every drive: metric name and the function measuring it.
pub const DRIVES: [(&str, Drive); 17] = [
    ("sim.engine.ns_per_event", engine_churn),
    ("net.forward.ns_per_packet", bare_forwarding),
    ("core.protocol.ns_per_frame_64", |d| header_codec(64, d)),
    ("core.protocol.ns_per_frame_2048", |d| header_codec(2048, d)),
    ("pmem.crc32.ns_per_kib", crc_per_kib),
    ("core.kvproto.ns_per_frame_2048", kv_codec),
    ("core.batch.ns_per_frame", batch_codec),
    ("core.logstore.ns_per_log_invalidate", log_invalidate),
    ("core.logstore.ns_per_stage_flush", stage_flush),
    ("core.cache.ns_per_lookup", cache_lookup),
    ("pmem.device.ns_per_write", pm_write),
    ("workloads.kvhandler.ns_per_apply_btree_2048", |d| {
        kv_apply("btree", 2048, d)
    }),
    ("workloads.kvhandler.ns_per_apply_hashmap_512", |d| {
        kv_apply("hashmap", 512, d)
    }),
    ("workloads.kvhandler.ns_per_get_btree", kv_get),
    ("workloads.ycsb.ns_per_request_2048", ycsb_request),
    ("sim.stats.ns_per_record", histogram_record),
    ("traffic.arrivals.ns_per_draw", arrival_draw),
];

/// Runs `body(i)` for `i` in `0..units` (once at least) and returns
/// nanoseconds per unit.
fn ns_per(units: u64, mut body: impl FnMut(u64)) -> f64 {
    let units = units.max(1);
    let t0 = Instant::now();
    for i in 0..units {
        body(i);
    }
    t0.elapsed().as_nanos() as f64 / units as f64
}

const SERVER: Addr = Addr(1000);

fn update_header(session: u16, seq: u32, payload: &[u8]) -> PmnetHeader {
    PmnetHeader::request(PacketType::UpdateReq, session, seq, Addr(1), SERVER, 0, 1)
        .with_payload(payload)
}

/// Timer-wheel churn at a hold of 65 536 pending events: pop one, schedule
/// one, with the delay mix a packet simulation produces (mostly short
/// hops, a tail of long timers).
fn engine_churn(shrink: u64) -> f64 {
    let mut rng = SimRng::seed(11);
    let mut delay = move || {
        let roll = rng.uniform_u64(0..100);
        Dur::nanos(if roll < 80 {
            rng.uniform_u64(60..10_000)
        } else if roll < 95 {
            rng.uniform_u64(10_000..200_000)
        } else {
            rng.uniform_u64(1_000_000..8_000_000)
        })
    };
    let mut engine: Engine<u64> = Engine::new();
    for i in 0..65_536u32 {
        engine.schedule_in(delay(), NodeId(i), u64::from(i));
    }
    ns_per(400_000 / shrink, |i| {
        let (_, dest, msg) = engine.pop().expect("the hold set never drains");
        engine.schedule(engine.now() + delay(), dest, msg.wrapping_add(i));
    })
}

/// Bare forwarding at the smallest packet: host → `Switch` → sink, 64 B,
/// paced under the link rate so nothing queues or drops. Covers event
/// pop, dispatch, port transmit and the switch's route lookup — what
/// every PMNet packet pays before any PMNet logic runs.
fn bare_forwarding(shrink: u64) -> f64 {
    let packets = (100_000 / shrink).max(1);
    let mut world = World::new(1);
    let src = world.add_node(Box::new(EchoHost::new(Addr(1))));
    let dst = world.add_node(Box::new(EchoHost::sink(Addr(2))));
    let switch = world.add_node(Box::new(Switch::new("bare")));
    world.connect(src, switch, LinkSpec::ten_gbps());
    world.connect(dst, switch, LinkSpec::ten_gbps());
    world.populate_switch_routes();
    let payload = Bytes::from(vec![0x5Au8; 64]);
    for i in 0..packets {
        let packet = Packet::udp(Addr(1), Addr(2), 5, 6, payload.clone());
        world.schedule(Time::from_nanos(i * 200), src, Msg::Inject(packet));
    }
    let t0 = Instant::now();
    world.run_to_quiescence(10 * packets);
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(world.node::<EchoHost>(dst).received(), packets);
    ns / packets as f64
}

/// PMNet header build + encode + decode + verify around a payload of
/// `bytes` (the payload CRC makes this payload-proportional).
fn header_codec(bytes: usize, shrink: u64) -> f64 {
    let payload = vec![0xA5u8; bytes];
    let mut sink = 0u64;
    let frames = if bytes > 1024 { 150_000 } else { 400_000 };
    let ns = ns_per(frames / shrink, |i| {
        let header = update_header((i & 0xFFFF) as u16, i as u32, &payload);
        let wire = header.encode(&payload);
        let (h, body) = PmnetHeader::decode(&wire).expect("self-encoded packet");
        sink += u64::from(h.verify(SERVER, &body)) + u64::from(h.seq);
    });
    black_box(sink);
    ns
}

fn crc_per_kib(shrink: u64) -> f64 {
    let buf = vec![0xC3u8; 64 * 1024];
    let mut sink = 0u32;
    let ns = ns_per(2_000 / shrink, |_| {
        sink ^= pmnet_pmem::crc32(black_box(&buf))
    });
    black_box(sink);
    ns / 64.0
}

/// KV frame encode + decode of a 2 KiB SET (the `kv_mixed` update).
fn kv_codec(shrink: u64) -> f64 {
    let key = Bytes::from_static(b"user000000001234");
    let value = Bytes::from(vec![0xA5u8; 2048]);
    let mut sink = 0u64;
    let ns = ns_per(300_000 / shrink, |_| {
        let frame = KvFrame::Set {
            key: key.clone(),
            value: value.clone(),
        };
        let body = frame.encode();
        if let Some(KvFrame::Set { value, .. }) = KvFrame::decode(&body) {
            sink += u64::from(value[0]);
        }
    });
    black_box(sink);
    ns
}

/// Doorbell batch framing: 16 ACK-sized frames packed by `BatchBuilder`
/// and walked back out through `BatchFrames`, per frame.
fn batch_codec(shrink: u64) -> f64 {
    const WINDOW: u64 = 16;
    let payload = [0x11u8; 64];
    let mut sink = 0u64;
    let ns = ns_per(20_000 / shrink, |round| {
        let mut builder = BatchBuilder::with_capacity(WINDOW as usize * 128);
        for i in 0..WINDOW {
            let seq = (round * WINDOW + i) as u32;
            builder.push(&update_header(seq as u16, seq, &payload), &payload);
        }
        let wire = builder.finish();
        for (h, body) in BatchFrames::decode(&wire).expect("self-encoded batch") {
            sink += u64::from(h.seq) + body.len() as u64;
        }
    });
    black_box(sink);
    ns / WINDOW as f64
}

/// A log holding 1 024 live entries from 64 sessions, and the header and
/// payload for entry number `n`.
fn primed_log() -> (LogStore, impl Fn(u64) -> (PmnetHeader, Bytes)) {
    let payload = Bytes::from(vec![0x42u8; 64]);
    let entry = move |n: u64| {
        let header = update_header((n % 64) as u16, (n / 64) as u32, &payload);
        (header, payload.clone())
    };
    let mut log = LogStore::new(&DeviceConfig::fpga());
    for n in 0..1024 {
        let (header, payload) = entry(n);
        let at = Time::from_nanos(n * 1_000);
        let outcome = log.try_log(at, header, payload, SERVER, 51001, 51000);
        assert!(matches!(outcome, LogOutcome::Logged { .. }));
    }
    (log, entry)
}

/// The per-packet log path: `try_log` a new entry, `invalidate` the
/// oldest, at a steady 1 024 live entries.
fn log_invalidate(shrink: u64) -> f64 {
    let (mut log, entry) = primed_log();
    let ns = ns_per(300_000 / shrink, |i| {
        let n = 1024 + i;
        let (header, payload) = entry(n);
        let at = Time::from_nanos(n * 1_000);
        let outcome = log.try_log(at, header, payload, SERVER, 51001, 51000);
        debug_assert!(matches!(outcome, LogOutcome::Logged { .. }));
        black_box(log.invalidate(entry(i).0.hash));
    });
    assert_eq!(log.len(), 1024);
    ns
}

/// The batched log path: `try_stage` × 16, one `flush_staged`, then the
/// 16 oldest entries invalidated — per entry.
fn stage_flush(shrink: u64) -> f64 {
    const WINDOW: u64 = 16;
    let (mut log, entry) = primed_log();
    let ns = ns_per(20_000 / shrink, |round| {
        let at = Time::from_nanos((1024 + round * WINDOW) * 1_000);
        for i in 0..WINDOW {
            let (header, payload) = entry(1024 + round * WINDOW + i);
            let outcome = log.try_stage(at, header, payload, SERVER, 51001, 51000);
            debug_assert!(matches!(outcome, LogOutcome::Staged));
        }
        black_box(log.flush_staged(at));
        for i in 0..WINDOW {
            black_box(log.invalidate(entry(round * WINDOW + i).0.hash));
        }
    });
    assert_eq!(log.len(), 1024);
    ns / WINDOW as f64
}

/// Read-cache lookups over a full 1 024-entry cache of 2 KiB values, half
/// of them hits.
fn cache_lookup(shrink: u64) -> f64 {
    let mut cache = ReadCache::new(1024);
    let value = vec![0x77u8; 2048];
    let keys: Vec<Vec<u8>> = (0..2048).map(YcsbSource::key_bytes).collect();
    for key in &keys[..1024] {
        cache.on_update(key, &value);
        cache.on_server_ack(key);
    }
    let ns = ns_per(400_000 / shrink, |i| {
        black_box(cache.lookup(&keys[(i * 7 % 2048) as usize]));
    });
    let c = cache.counters();
    assert!(c.hits > 0 && c.misses > 0);
    ns
}

fn pm_write(shrink: u64) -> f64 {
    let mut pm = PmDevice::new(PmDeviceConfig::fpga_board());
    let mut sink = Time::ZERO;
    let ns = ns_per(2_000_000 / shrink, |i| {
        sink = sink.max(pm.schedule_write(Time::from_nanos(i * 1_000), 128));
    });
    black_box(sink);
    ns
}

fn set_frame(key: u64, value_bytes: usize) -> Bytes {
    KvFrame::Set {
        key: Bytes::from(YcsbSource::key_bytes(key)),
        value: Bytes::from(vec![0x5Au8; value_bytes]),
    }
    .encode()
}

/// `handle_update` on a PM-backed index, the call the server makes per
/// applied update: frame decode, store apply, durable sequence record.
fn kv_apply(index: &'static str, value_bytes: usize, shrink: u64) -> f64 {
    let keys = (4_096 / shrink).max(64);
    let mut handler = KvHandler::new(index, 5);
    let mut rng = SimRng::seed(3);
    let frames: Vec<Bytes> = (0..keys).map(|k| set_frame(k, value_bytes)).collect();
    let mut sink = Dur::ZERO;
    let ns = ns_per(3 * keys, |i| {
        let frame = &frames[(i * 31 % keys) as usize];
        sink += handler.handle_update(Addr(1), 0, i as u32, frame, &mut rng);
    });
    black_box(sink);
    ns
}

/// `handle_bypass` of a GET over a populated btree (2 KiB values).
fn kv_get(shrink: u64) -> f64 {
    let keys = (4_096 / shrink).max(64);
    let mut handler = KvHandler::new("btree", 5);
    let mut rng = SimRng::seed(3);
    for k in 0..keys {
        handler.handle_update(Addr(1), 0, k as u32, &set_frame(k, 2048), &mut rng);
    }
    let gets: Vec<Bytes> = (0..keys)
        .map(|k| {
            KvFrame::Get {
                key: Bytes::from(YcsbSource::key_bytes(k)),
            }
            .encode()
        })
        .collect();
    let mut sink = 0usize;
    let ns = ns_per(10 * keys, |i| {
        let (_, reply) = handler.handle_bypass(&gets[(i * 31 % keys) as usize], &mut rng);
        sink += reply.map_or(0, |r| r.len());
    });
    black_box(sink);
    ns
}

/// Request generation runs inside every timed window; this prices it for
/// `kv_mixed`'s shape (zipf draw, key format, 2 KiB random value, encode).
fn ycsb_request(shrink: u64) -> f64 {
    const REQUESTS: u64 = 40_000;
    let mut source = YcsbSource::new(REQUESTS as usize, 8_192, 0.5, 2_048);
    let mut rng = SimRng::seed(9);
    let mut sink = 0usize;
    let ns = ns_per(REQUESTS / shrink, |_| {
        sink += source.next_request(&mut rng).map_or(0, |r| r.payload.len());
    });
    black_box(sink);
    ns
}

fn histogram_record(shrink: u64) -> f64 {
    let mut h = LatencyHistogram::new();
    let mut x = 88_172_645_463_325_252u64;
    let ns = ns_per(4_000_000 / shrink, |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.record(Dur::nanos(20_000 + (x >> 44)));
    });
    black_box(h.len());
    ns
}

fn arrival_draw(shrink: u64) -> f64 {
    let mut arrivals = PoissonArrivals::new(1_000_000.0);
    let mut rng = SimRng::seed(17);
    let mut sink = Dur::ZERO;
    let ns = ns_per(4_000_000 / shrink, |_| sink += arrivals.next_gap(&mut rng));
    black_box(sink);
    ns
}
