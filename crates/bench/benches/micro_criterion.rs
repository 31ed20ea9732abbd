//! Criterion microbenchmarks of the hot paths: CRC-32 hashing, PMNet
//! header codec, device log operations, the five KV index structures, the
//! PM arena persist path, event-list churn (timer wheel vs the binary
//! heap it replaced), and a small end-to-end simulation step.
//!
//! These measure the *reproduction's* own performance (how fast the
//! simulator and data structures run on the host), complementing the
//! figure harnesses which measure *simulated* time.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use pmnet_core::system::{DesignPoint, UpdateExperiment};
use pmnet_core::{LogStore, PacketType, PmnetHeader, SystemConfig};
use pmnet_net::Addr;
use pmnet_pmem::kv::{all_stores, KvStore};
use pmnet_pmem::{crc32, PmArena, Wal};
use pmnet_sim::{Dur, Engine, NodeId, SimRng, Time};

fn bench_crc32(c: &mut Criterion) {
    let data = vec![0xA5u8; 1024];
    c.bench_function("crc32/1KiB", |b| b.iter(|| crc32(black_box(&data))));
}

fn bench_header_codec(c: &mut Criterion) {
    let h = PmnetHeader::request(PacketType::UpdateReq, 1, 42, Addr(1), Addr(9), 0, 1);
    let payload = vec![0u8; 100];
    c.bench_function("header/encode_100B", |b| {
        b.iter(|| h.encode(black_box(&payload)))
    });
    let body = h.encode(&payload);
    c.bench_function("header/decode_100B", |b| {
        b.iter(|| PmnetHeader::decode(black_box(&body)))
    });
}

fn bench_logstore(c: &mut Criterion) {
    c.bench_function("logstore/log_and_invalidate", |b| {
        b.iter_batched(
            || LogStore::new(&SystemConfig::default().device),
            |mut store| {
                for seq in 0..100u32 {
                    let h =
                        PmnetHeader::request(PacketType::UpdateReq, 1, seq, Addr(1), Addr(9), 0, 1);
                    store.try_log(
                        Time::ZERO,
                        h,
                        Bytes::from_static(&[0u8; 100]),
                        Addr(9),
                        51001,
                        51000,
                    );
                    store.invalidate(h.hash);
                }
                store
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_kv_structures(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv_insert_get_1k");
    for store_fn in all_stores(1) {
        let name = store_fn.name().to_string();
        drop(store_fn);
        group.bench_function(&name, |b| {
            b.iter_batched(
                || {
                    all_stores(1)
                        .into_iter()
                        .find(|s| s.name() == name)
                        .expect("store exists")
                },
                |mut store: Box<dyn KvStore>| {
                    for i in 0..1000u32 {
                        store.insert(&i.to_be_bytes(), &[1u8; 32]);
                    }
                    for i in 0..1000u32 {
                        black_box(store.get(&i.to_be_bytes()));
                    }
                    store
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_arena_persist(c: &mut Criterion) {
    c.bench_function("arena/write_persist_64B", |b| {
        b.iter_batched(
            || {
                let mut arena = PmArena::new(1 << 20);
                let ptr = arena.alloc(64).expect("fits");
                (arena, ptr)
            },
            |(mut arena, ptr)| {
                for i in 0..100u64 {
                    arena.write_u64(ptr, i);
                    arena.persist(ptr, 8);
                }
                arena
            },
            BatchSize::SmallInput,
        )
    });
    // One WAL append the way `PersistentKv::apply` issues it: header, key
    // and a 2 KiB value as parts — 34 lines dirtied, flushed and fenced.
    c.bench_function("arena/append_persist_2KiB", |b| {
        let value = vec![0xA5u8; 2048];
        b.iter_batched(
            || {
                let mut arena = PmArena::new(1 << 20);
                let wal = Wal::create(&mut arena, 512 << 10).expect("fits");
                (arena, wal)
            },
            |(mut arena, mut wal)| {
                for i in 0..100u64 {
                    let key = i.to_be_bytes();
                    assert!(wal.append(&mut arena, &[&[1, 8, 0, 0, 0], &key, &value]));
                }
                arena
            },
            BatchSize::SmallInput,
        )
    });
}

/// The delay mix a packet simulation produces: 80% short hops
/// (sub-microsecond to ~10us), 15% service times (~100us), 5% long
/// timers (retransmission, ~5ms — the wheel's upper levels).
fn delay(rng: &mut SimRng) -> Dur {
    let roll = rng.uniform_u64(0..100);
    if roll < 80 {
        Dur::nanos(rng.uniform_u64(60..10_000))
    } else if roll < 95 {
        Dur::nanos(rng.uniform_u64(10_000..200_000))
    } else {
        Dur::nanos(rng.uniform_u64(1_000_000..8_000_000))
    }
}

/// Steady-state pop-one/schedule-one churn over 16 Ki held events: the
/// timer wheel [`Engine`] against the binary-heap event list it replaced
/// (same `(time, seq)` min-first contract, so simultaneous events deliver
/// FIFO). Same pre-drawn delays, process and allocator, so the ratio of
/// the two rows is the heap→wheel speedup with machine noise cancelled.
fn bench_event_list(c: &mut Criterion) {
    const HOLD: usize = 16_384;
    let mut rng = SimRng::seed(42);
    let delays: Vec<Dur> = (0..HOLD + 100_000).map(|_| delay(&mut rng)).collect();
    let (fill, churn) = delays.split_at(HOLD);
    let mut group = c.benchmark_group("event_list_churn_100k");
    group.bench_function("wheel", |b| {
        b.iter_batched(
            || {
                let mut e: Engine<u64> = Engine::new();
                for (i, &d) in fill.iter().enumerate() {
                    e.schedule_in(d, NodeId(i as u32), i as u64);
                }
                e
            },
            |mut e| {
                for &d in churn {
                    let (_, dest, msg) = e.pop().expect("hold set never drains");
                    e.schedule(e.now() + d, dest, msg + 1);
                }
                e
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("heap", |b| {
        b.iter_batched(
            || {
                let mut heap = BinaryHeap::new();
                for (i, &d) in fill.iter().enumerate() {
                    heap.push(Reverse((Time::ZERO + d, i, NodeId(i as u32), i as u64)));
                }
                heap
            },
            |mut heap| {
                for (i, &d) in churn.iter().enumerate() {
                    let Reverse((now, _, dest, msg)) = heap.pop().expect("hold set never drains");
                    heap.push(Reverse((now + d, HOLD + i, dest, msg + 1)));
                }
                heap
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    c.bench_function("sim/pmnet_switch_100_requests", |b| {
        b.iter(|| {
            UpdateExperiment::new(DesignPoint::PmnetSwitch, SystemConfig::default())
                .requests_per_client(100)
                .run(black_box(7))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_crc32,
        bench_header_codec,
        bench_logstore,
        bench_kv_structures,
        bench_arena_persist,
        bench_event_list,
        bench_simulation
);
criterion_main!(benches);
