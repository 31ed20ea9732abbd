//! Simulator self-benchmark: event-list throughput, codec allocation
//! behaviour, and campaign wall-clock, emitted as `BENCH_sim.json`.
//!
//! Three measured regions:
//!
//! 1. **Event list** — steady-state schedule/pop churn through the timer
//!    wheel [`pmnet_sim::Engine`], against an in-file reimplementation of
//!    the binary-heap event list it replaced. Same workload, same process,
//!    same allocator, so the ratio is the heap→wheel speedup with
//!    machine noise cancelled out.
//! 2. **Codec** — encode/decode round trips of [`KvFrame`] inside
//!    [`PmnetHeader`] payloads, with allocations-per-frame from the
//!    counting allocator (the pooled zero-copy path should hold this near
//!    zero in steady state). A second loop pushes the same frames through
//!    the doorbell batch framing (`BatchBuilder`/`BatchFrames`) to price
//!    the coalesced wire format.
//! 3. **E2E** — wall-clock operations per second of the full simulated
//!    system (clients, switch device, server) at batch window 1 and 16,
//!    so a regression anywhere in the stack shows up even if the codec
//!    microbenchmark stays flat.
//! 4. **Campaign** — the lossy-recovery chaos campaign end to end
//!    (seed 77, the determinism-pinned workload), reporting wall-clock.
//! 5. **Fabric** — saturation throughput of the sharded chained-replica
//!    fabric at 1, 2 and 4 shards (simulated Gbps, so deterministic and
//!    gated inline rather than via `--check`): two replicated chains must
//!    hold near parity with the one unreplicated device they replace, and
//!    four must scale past it.
//! 6. **Lock fraction** — the paper's TPCC lock observation (Section
//!    III-C, ~13.7% of requests hit the locking primitive) run against
//!    the concurrent apply pool: a KV write mix with 13.7% hot-key
//!    contention, scored in deterministic simulated ops/sec at 1 vs 4
//!    apply threads, with an inline scaling gate.
//! 7. **Traffic** — the open-loop `pmnet-traffic` engine at 1.5x a
//!    probed saturation capacity with AIMD admission and the device-log
//!    spill policy engaged. Simulated goodput-vs-capacity and peak log
//!    occupancy are deterministic and gated inline; completed ops per
//!    wall second goes through `--check` like the other regions.
//!
//! Modes: `--fast` shrinks every region for CI smoke runs; `--out PATH`
//! overrides the JSON destination; `--check PATH` compares the fresh
//! event-list throughput against a committed baseline JSON and exits
//! nonzero on a >20% regression.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use bytes::Bytes;
use pmnet_core::batch::{BatchBuilder, BatchFrames};
use pmnet_core::client::{AppRequest, RequestKind, RequestSource};
use pmnet_core::config::{ApplyConfig, BatchConfig, SystemConfig};
use pmnet_core::kvproto::KvFrame;
use pmnet_core::protocol::{PacketType, PmnetHeader};
use pmnet_core::server::ServerLib;
use pmnet_core::system::{DesignPoint, MicroSource, SystemBuilder};
use pmnet_net::Addr;
use pmnet_sim::meter::{CountingAlloc, Meter};
use pmnet_sim::{Dur, Engine, NodeId, SimRng, Time};
use pmnet_traffic::{
    AdmissionSpec as TrafficAdmissionSpec, ArrivalSpec as TrafficArrivalSpec,
    ChurnSpec as TrafficChurnSpec, TrafficSpec, TrafficSystem,
};
use pmnet_workloads::KvHandler;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The binary-heap event list the timer wheel replaced, reproduced here
/// as the measurement baseline. Ordering contract is identical:
/// `(time, seq)` min-first, so simultaneous events deliver FIFO.
struct HeapEngine {
    heap: BinaryHeap<Reverse<(Time, u64, NodeId, u64)>>,
    seq: u64,
    now: Time,
}

impl HeapEngine {
    fn new() -> HeapEngine {
        HeapEngine {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
        }
    }

    fn schedule(&mut self, at: Time, dest: NodeId, msg: u64) {
        self.heap.push(Reverse((at, self.seq, dest, msg)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, NodeId, u64)> {
        let Reverse((at, _, dest, msg)) = self.heap.pop()?;
        self.now = at;
        Some((at, dest, msg))
    }

    fn now(&self) -> Time {
        self.now
    }
}

/// Steady-state churn: `hold` pending events, then `iters` cycles of
/// pop-one/schedule-one with the delay mix a packet simulation produces
/// (mostly short hops, a tail of long timers). Returns events/sec.
fn churn_wheel(hold: usize, iters: u64, rng: &mut SimRng) -> (f64, f64) {
    let mut e: Engine<u64> = Engine::new();
    for i in 0..hold {
        let d = delay(rng);
        e.schedule_in(d, NodeId(i as u32), i as u64);
    }
    let before = e.delivered();
    let m = Meter::start();
    for i in 0..iters {
        let (_, dest, msg) = e.pop().expect("hold set never drains");
        let d = delay(rng);
        e.schedule(e.now() + d, dest, msg.wrapping_add(i));
    }
    let r = m.finish(e.delivered() - before);
    (r.events_per_sec, r.allocs_per_event)
}

fn churn_heap(hold: usize, iters: u64, rng: &mut SimRng) -> f64 {
    let mut e = HeapEngine::new();
    for i in 0..hold {
        let d = delay(rng);
        e.schedule(Time::ZERO + d, NodeId(i as u32), i as u64);
    }
    let m = Meter::start();
    for i in 0..iters {
        let (_, dest, msg) = e.pop().expect("hold set never drains");
        let d = delay(rng);
        e.schedule(e.now() + d, dest, msg.wrapping_add(i));
    }
    m.finish(iters).events_per_sec
}

/// The delay mix: 80% short hops (sub-microsecond to ~10us), 15% medium
/// (service times, ~100us), 5% long timers (retransmission, ~5ms — lands
/// in the wheel's upper levels).
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

/// Encode/decode round trips through header + KV codec; returns
/// (frames/sec, allocs/frame). The pooled builder path should make the
/// steady state allocation-free.
fn codec_loop(iters: u64) -> (f64, f64) {
    let key = Bytes::from_static(b"bench-key-0123456789");
    let value = Bytes::from(vec![0xA5u8; 512]);
    let m = Meter::start();
    let mut sink = 0u64;
    for i in 0..iters {
        let frame = KvFrame::Set {
            key: key.clone(),
            value: value.clone(),
        };
        let body = frame.encode();
        let hdr = PmnetHeader::request(
            PacketType::UpdateReq,
            (i & 0xFFFF) as u16,
            i as u32,
            Addr(1),
            Addr(2),
            0,
            1,
        )
        .with_payload(&body);
        let wire = hdr.encode(&body);
        let (h, body) = PmnetHeader::decode(&wire).expect("self-encoded packet");
        let decoded = KvFrame::decode(&body).expect("self-encoded frame");
        if let KvFrame::Set { value, .. } = &decoded {
            sink = sink.wrapping_add(u64::from(value[0])) + u64::from(h.seq);
        }
    }
    std::hint::black_box(sink);
    let r = m.finish(iters);
    (r.events_per_sec, r.allocs_per_event)
}

/// The same frames pushed through the doorbell batch framing: `window`
/// frames packed per [`BatchBuilder`], decoded back out through
/// [`BatchFrames`] with the zero-copy payload slices. Returns
/// (frames/sec, allocs/frame) counted over *frames*, not batches.
fn codec_batched_loop(iters: u64, window: u64) -> (f64, f64) {
    let key = Bytes::from_static(b"bench-key-0123456789");
    let value = Bytes::from(vec![0xA5u8; 512]);
    let per_frame = 20 + 2 + key.len() + value.len() + 64;
    let m = Meter::start();
    let mut sink = 0u64;
    let mut frames_done = 0u64;
    while frames_done < iters {
        let mut builder = BatchBuilder::with_capacity(window as usize * per_frame);
        for i in 0..window {
            let frame = KvFrame::Set {
                key: key.clone(),
                value: value.clone(),
            };
            let body = frame.encode();
            let seq = frames_done + i;
            let hdr = PmnetHeader::request(
                PacketType::UpdateReq,
                (seq & 0xFFFF) as u16,
                seq as u32,
                Addr(1),
                Addr(2),
                0,
                1,
            )
            .with_payload(&body);
            builder.push(&hdr, &body);
        }
        let wire = builder.finish();
        let batch = BatchFrames::decode(&wire).expect("self-encoded batch");
        for (h, body) in batch {
            let decoded = KvFrame::decode(&body).expect("self-encoded frame");
            if let KvFrame::Set { value, .. } = &decoded {
                sink = sink.wrapping_add(u64::from(value[0])) + u64::from(h.seq);
            }
            frames_done += 1;
        }
    }
    std::hint::black_box(sink);
    let r = m.finish(frames_done);
    (r.events_per_sec, r.allocs_per_event)
}

/// Wall-clock end-to-end throughput: the full simulated system (closed-
/// loop clients, PMNet switch device, server) run to completion, scored
/// as completed client operations per host second. This prices the whole
/// stack — event loop, codec, device, server — so a regression anywhere
/// moves it even when the codec microbenchmark stays flat.
fn e2e_ops_per_sec(clients: usize, updates_per_client: usize, window: u32) -> f64 {
    let cfg = SystemConfig {
        batch: BatchConfig::windowed(window),
        ..SystemConfig::default()
    };
    let mut b = SystemBuilder::new(DesignPoint::PmnetSwitch, cfg);
    for _ in 0..clients {
        b = b.client(Box::new(MicroSource::updates(updates_per_client, 512)));
    }
    let mut sys = b.build(7);
    let t0 = Instant::now();
    sys.run_clients(Dur::secs(120));
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let m = sys.metrics();
    assert_eq!(
        m.completed,
        clients * updates_per_client,
        "e2e benchmark workload must finish (window {window})"
    );
    m.completed as f64 / wall
}

fn campaign_wall_ms(plans: usize) -> (u128, u64) {
    let t0 = Instant::now();
    let out = pmnet_chaos::run_lossy_recovery_campaign(77, plans);
    (t0.elapsed().as_millis(), out.digest)
}

/// Saturation throughput of the sharded fabric: sweep the offered load
/// (closed-loop client count) and keep the peak. Past the knee this
/// simulator degrades rather than plateaus, so the peak over the sweep
/// *is* the saturation point — a single client count would under-read
/// whichever design it doesn't suit.
fn fabric_saturation(shards: u8) -> f64 {
    let design = DesignPoint::PmnetSharded { shards };
    let mut best = 0.0f64;
    for clients in [32usize, 40, 48, 56, 64] {
        let (gbps, _, _) = pmnet_bench::stress_point(design, clients, 1024, Dur::millis(2), 3);
        best = best.max(gbps);
    }
    best
}

/// A 100%-update KV write mix with the paper's TPCC lock fraction
/// (Section III-C: ~13.7% of requests hit the locking primitive): that
/// fraction of Sets lands on one hot shared key — serialized by the apply
/// pool's same-key write fences, the simulator's analogue of the lock —
/// while the rest spread over per-client key ranges and apply in
/// parallel.
#[derive(Debug)]
struct LockMixSource {
    remaining: usize,
    client: usize,
    issued: usize,
}

const LOCK_PERMILLE: u64 = 137;

impl RequestSource for LockMixSource {
    fn next_request(&mut self, rng: &mut SimRng) -> Option<AppRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.issued += 1;
        let key = if rng.uniform_u64(0..1000) < LOCK_PERMILLE {
            Bytes::from_static(b"lock:hot")
        } else {
            Bytes::from(format!("c{}:k{}", self.client, self.issued % 64).into_bytes())
        };
        let mut value = vec![0u8; 128];
        rng.fill_bytes(&mut value);
        Some(AppRequest {
            kind: RequestKind::Update,
            payload: KvFrame::Set {
                key,
                value: Bytes::from(value),
            }
            .encode(),
        })
    }
}

/// Runs the lock-fraction mix against a real KV server applying on
/// `apply_threads` workers and scores completed operations per *simulated*
/// second — fully deterministic, so the scaling ratio is gated inline
/// rather than via `--check`. `server_workers` is pinned to 1 so the
/// baseline is a genuine single-core server: `apply_threads: 1` serializes
/// every apply on that core, while the pool's own workers provide the
/// multi-core overlap under test. Returns (ops/sim-sec, same-key fences).
fn lock_fraction_ops_per_sim_sec(apply_threads: u32, clients: usize, updates: usize) -> (f64, u64) {
    let cfg = SystemConfig {
        apply: ApplyConfig::threaded(apply_threads).with_sched_seed(7),
        server_workers: 1,
        ..SystemConfig::default()
    };
    // TPCC-style transaction work on top of the raw index op, so apply —
    // not the wire — is the bottleneck the extra cores relieve.
    let mut b = SystemBuilder::new(DesignPoint::PmnetSwitch, cfg)
        .handler_factory(|| Box::new(KvHandler::new("btree", 5).with_extra_cost(Dur::micros(10))));
    for client in 0..clients {
        b = b.client(Box::new(LockMixSource {
            remaining: updates,
            client,
            issued: 0,
        }));
    }
    let mut sys = b.build(11);
    sys.run_clients(Dur::secs(120));
    let m = sys.metrics();
    assert_eq!(
        m.completed,
        clients * updates,
        "lock-fraction workload must finish (threads {apply_threads})"
    );
    // PMNet acks from the network, so client completion never waits for
    // the server cores — the clients finish while apply work is still
    // queued. Drain until every update reached the handler, then score
    // against the *apply makespan* (`ServerLib::apply_busy_until`): the
    // instant the last worker goes idle is what extra cores shrink.
    // `run_until` leaves `now` at the last processed event, so drive an
    // explicit cursor — `run_for(1ms)` from a stale `now` would spin on an
    // empty window forever while the apply-done timer sits a few ms out.
    let total = (clients * updates) as u64;
    let mut cursor = sys.world.now();
    let mut guard = 0;
    while sys
        .world
        .node::<ServerLib>(sys.server)
        .counters()
        .updates_applied
        < total
    {
        cursor += Dur::millis(1);
        sys.world.run_until(cursor);
        guard += 1;
        assert!(
            guard < 10_000,
            "apply backlog never drained: {:?} (want {total}) pool: {}",
            sys.world.node::<ServerLib>(sys.server).counters(),
            sys.world.node::<ServerLib>(sys.server).pool_debug()
        );
    }
    let server = sys.world.node::<ServerLib>(sys.server);
    let fences = server.counters().apply_key_fences;
    let sim_secs = (server.apply_busy_until() - Time::ZERO).as_nanos() as f64 / 1e9;
    (m.completed as f64 / sim_secs.max(1e-12), fences)
}

/// Open-loop overload point: the `pmnet-traffic` engine at `factor` x a
/// probed saturation capacity, with the AIMD admission gate and the
/// device-log spill policy engaged. Returns (capacity ops/s, goodput
/// ops/s at the overload point, peak log entries, completed ops per
/// *wall* second of the overload run). The simulated quantities are
/// deterministic and gated inline; the wall-clock one goes through
/// `--check` like the other throughput regions.
fn traffic_overload(factor: f64, measure: Dur) -> (f64, f64, u64, f64) {
    let cfg = SystemConfig {
        device: pmnet_core::config::DeviceConfig::fpga().with_spill_policy(8, 1024),
        ..SystemConfig::default()
    };

    let point = |arrivals: TrafficArrivalSpec, admission: TrafficAdmissionSpec| {
        let mut spec = TrafficSpec::poisson(1.0);
        spec.arrivals = arrivals;
        spec.admission = admission;
        spec.churn = TrafficChurnSpec::none();
        spec.measure = measure;
        spec.drain = Dur::millis(10);
        let mut sys = TrafficSystem::build_with(&spec, cfg, 42);
        let t0 = Instant::now();
        sys.run();
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        let report = sys.report(&pmnet_telemetry::Telemetry::disabled());
        (report, wall)
    };

    // Saturation probe: admission open, rate doubled past the knee.
    let mut capacity = 0.0f64;
    let mut rate = 1_000_000.0;
    loop {
        let (report, _) = point(
            TrafficArrivalSpec::Poisson { rate_per_sec: rate },
            TrafficAdmissionSpec::Open,
        );
        capacity = capacity.max(report.goodput_per_sec);
        if report.goodput_per_sec < 0.9 * report.observed_offered_per_sec || rate >= 32_000_000.0 {
            break;
        }
        rate *= 2.0;
    }

    let (report, wall) = point(
        TrafficArrivalSpec::Poisson {
            rate_per_sec: capacity * factor,
        },
        TrafficAdmissionSpec::aimd(),
    );
    assert_eq!(
        report.stranded_log_entries, 0,
        "traffic overload point must drain the device log"
    );
    let wall_ops = report.counters.completed as f64 / wall;
    (
        capacity,
        report.goodput_per_sec,
        report.peak_log_entries,
        wall_ops,
    )
}

/// Pulls `"field": <number>` out of a flat JSON file without a JSON
/// dependency (the workspace vendors no serde).
fn json_number(text: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".into());
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (hold, iters, codec_iters, plans) = if fast {
        (16_384, 400_000u64, 100_000u64, 20)
    } else {
        (65_536, 2_000_000u64, 500_000u64, 200)
    };
    let (e2e_clients, e2e_updates) = if fast { (8, 150) } else { (16, 400) };

    eprintln!("sim_throughput: event-list churn (hold={hold}, iters={iters})");
    let mut rng = SimRng::seed(42);
    // Interleave a warmup of each engine so neither benefits from a
    // colder allocator.
    churn_wheel(1024, 50_000, &mut rng.fork(0));
    churn_heap(1024, 50_000, &mut rng.fork(1));
    let (wheel_eps, wheel_ape) = churn_wheel(hold, iters, &mut rng.fork(2));
    let heap_eps = churn_heap(hold, iters, &mut rng.fork(3));
    let speedup = wheel_eps / heap_eps;
    eprintln!(
        "  wheel {:.0} ev/s ({wheel_ape:.3} allocs/ev)  heap {:.0} ev/s  speedup {speedup:.2}x",
        wheel_eps, heap_eps
    );

    eprintln!("sim_throughput: codec round trips (iters={codec_iters})");
    codec_loop(codec_iters / 10); // warm the buffer pools
    let (frames_ps, allocs_pf) = codec_loop(codec_iters);
    eprintln!("  {frames_ps:.0} frames/s, {allocs_pf:.3} allocs/frame");

    eprintln!("sim_throughput: batched codec round trips (iters={codec_iters}, window=16)");
    codec_batched_loop(codec_iters / 10, 16);
    let (frames_ps_batched, allocs_pf_batched) = codec_batched_loop(codec_iters, 16);
    eprintln!("  {frames_ps_batched:.0} frames/s, {allocs_pf_batched:.3} allocs/frame");

    eprintln!(
        "sim_throughput: e2e system run ({e2e_clients} clients x {e2e_updates} updates, \
         windows 1 and 16)"
    );
    let e2e_ops = e2e_ops_per_sec(e2e_clients, e2e_updates, 1);
    let e2e_ops_batched = e2e_ops_per_sec(e2e_clients, e2e_updates, 16);
    eprintln!("  window 1: {e2e_ops:.0} ops/s  window 16: {e2e_ops_batched:.0} ops/s");

    eprintln!("sim_throughput: lossy-recovery campaign (seed 77, {plans} plans)");
    let (wall_ms, digest) = campaign_wall_ms(plans);
    eprintln!("  {wall_ms} ms, digest {digest:#018x}");

    eprintln!("sim_throughput: fabric saturation sweep (1/2/4 shards, 1 KiB updates)");
    let sat1 = fabric_saturation(1);
    let sat2 = fabric_saturation(2);
    let sat4 = fabric_saturation(4);
    eprintln!(
        "  1 shard {sat1:.2} Gbps  2 shards {sat2:.2} Gbps ({:.2}x)  4 shards {sat4:.2} Gbps ({:.2}x)",
        sat2 / sat1,
        sat4 / sat1
    );
    // Simulated numbers are deterministic, so these are exact gates, not
    // noise-tolerant baselines. A chain does ~2x the per-update packet
    // work of a bare device (stage to the backup, collect the chain ack),
    // so two replicated chains buy fault tolerance at near parity with
    // the single unreplicated device, and capacity scales from there.
    assert!(
        sat2 > 0.8 * sat1,
        "two chains must hold near parity with one bare device \
         ({sat2:.2} vs {sat1:.2} Gbps)"
    );
    assert!(
        sat4 > 1.15 * sat1 && sat4 > 1.2 * sat2,
        "four chains must scale past both the bare device and two chains \
         ({sat4:.2} vs {sat1:.2} / {sat2:.2} Gbps)"
    );

    let (lf_clients, lf_updates) = if fast { (24, 60) } else { (32, 150) };
    eprintln!(
        "sim_throughput: lock-fraction apply scaling ({lf_clients} clients x {lf_updates} \
         updates, {LOCK_PERMILLE}permille hot-key writes, apply threads 1 vs 4)"
    );
    let (lf_ops_1, _) = lock_fraction_ops_per_sim_sec(1, lf_clients, lf_updates);
    let (lf_ops_4, lf_fences) = lock_fraction_ops_per_sim_sec(4, lf_clients, lf_updates);
    let lf_scaling = lf_ops_4 / lf_ops_1;
    eprintln!(
        "  1 thread {lf_ops_1:.0} ops/sim-s  4 threads {lf_ops_4:.0} ops/sim-s \
         ({lf_scaling:.2}x, {lf_fences} same-key fences)"
    );
    // Deterministic simulated numbers: exact inline gates. Four apply
    // workers must scale past the sequential path even with the paper's
    // 13.7% lock-fraction serializing on the hot key, and the hot key must
    // actually have forced cross-worker fences (else the gate is vacuous).
    assert!(
        lf_scaling > 1.5,
        "4 apply threads must outscale 1 under the lock-fraction mix \
         ({lf_ops_4:.0} vs {lf_ops_1:.0} ops/sim-s, {lf_scaling:.2}x); \
         Amdahl puts the ceiling near 3x at a 13.7% serial fraction"
    );
    assert!(
        lf_fences > 0,
        "the hot-key writes must exercise the pool's same-key fences"
    );

    // A window shorter than ~20 ms lets the probe read the pre-queue-
    // buildup transient as capacity, which the sustained overload run can
    // then never match; the region is cheap enough to keep one size.
    let tr_measure = Dur::millis(20);
    eprintln!("sim_throughput: open-loop overload point (1.5x probed saturation, AIMD + spill)");
    let (tr_capacity, tr_goodput, tr_peak_log, tr_wall_ops) = traffic_overload(1.5, tr_measure);
    let tr_ratio = tr_goodput / tr_capacity;
    eprintln!(
        "  capacity {tr_capacity:.0} ops/s  goodput@1.5x {tr_goodput:.0} ops/s \
         ({:.0}% of capacity, peak log {tr_peak_log})  {tr_wall_ops:.0} ops/wall-s",
        tr_ratio * 100.0
    );
    // Deterministic simulated gates: under 1.5x overload the AIMD gate
    // must hold goodput near capacity (no congestion collapse) and the
    // spill watermark must bound device-log occupancy.
    assert!(
        tr_ratio > 0.8,
        "goodput collapsed under 1.5x overload: {tr_goodput:.0} vs capacity {tr_capacity:.0}"
    );
    assert!(
        tr_peak_log <= 1024 + 1,
        "spill watermark failed to bound the device log: peak {tr_peak_log}"
    );

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"schema\": \"pmnet-sim-bench/1\",\n  \"mode\": \"{mode}\",\n  \"event_list\": {{\n    \"hold\": {hold},\n    \"iters\": {iters},\n    \"wheel_events_per_sec\": {wheel_eps:.1},\n    \"heap_events_per_sec\": {heap_eps:.1},\n    \"speedup_vs_heap\": {speedup:.3},\n    \"allocs_per_event\": {wheel_ape:.4}\n  }},\n  \"codec\": {{\n    \"iters\": {codec_iters},\n    \"frames_per_sec\": {frames_ps:.1},\n    \"allocs_per_frame\": {allocs_pf:.4},\n    \"frames_per_sec_batched\": {frames_ps_batched:.1},\n    \"allocs_per_frame_batched\": {allocs_pf_batched:.4}\n  }},\n  \"e2e\": {{\n    \"clients\": {e2e_clients},\n    \"updates_per_client\": {e2e_updates},\n    \"ops_per_sec\": {e2e_ops:.1},\n    \"ops_per_sec_batched\": {e2e_ops_batched:.1}\n  }},\n  \"campaign\": {{\n    \"plans\": {plans},\n    \"wall_ms\": {wall_ms},\n    \"digest\": \"{digest:#018x}\",\n    \"threads\": {threads}\n  }},\n  \"fabric\": {{\n    \"sat_gbps_1_shard\": {sat1:.3},\n    \"sat_gbps_2_shards\": {sat2:.3},\n    \"sat_gbps_4_shards\": {sat4:.3},\n    \"scaling_4_vs_1\": {ratio41:.3}\n  }},\n  \"lock_fraction\": {{\n    \"lock_permille\": {LOCK_PERMILLE},\n    \"ops_per_sim_sec_1_thread\": {lf_ops_1:.1},\n    \"ops_per_sim_sec_4_threads\": {lf_ops_4:.1},\n    \"apply_scaling_4_vs_1\": {lf_scaling:.3},\n    \"same_key_fences\": {lf_fences}\n  }},\n  \"traffic\": {{\n    \"capacity_ops_per_sim_sec\": {tr_capacity:.1},\n    \"overload_factor\": 1.5,\n    \"goodput_ops_per_sim_sec\": {tr_goodput:.1},\n    \"goodput_over_capacity\": {tr_ratio:.3},\n    \"peak_log_entries\": {tr_peak_log},\n    \"traffic_wall_ops_per_sec\": {tr_wall_ops:.1}\n  }}\n}}\n",
        ratio41 = sat4 / sat1,
        mode = if fast { "fast" } else { "full" },
    );
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    eprintln!("sim_throughput: wrote {out_path}");

    if let Some(path) = check_path {
        let baseline =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let base_eps = json_number(&baseline, "wheel_events_per_sec")
            .expect("baseline missing wheel_events_per_sec");
        let base_speedup =
            json_number(&baseline, "speedup_vs_heap").expect("baseline missing speedup_vs_heap");
        let eps_ratio = wheel_eps / base_eps;
        let speedup_ratio = speedup / base_speedup;
        eprintln!(
            "sim_throughput: check vs {path}: events/sec {:.1}% of baseline, heap-normalized {:.1}%",
            eps_ratio * 100.0,
            speedup_ratio * 100.0
        );
        // The absolute gate catches same-machine regressions; the
        // heap-normalized gate rescues runs on slower hardware (both
        // engines scale down together unless the wheel itself regressed).
        let mut failed = false;
        if eps_ratio < 0.80 && speedup_ratio < 0.80 {
            eprintln!("sim_throughput: FAIL — events/sec regressed more than 20%");
            failed = true;
        }
        // Throughput gates for the codec and end-to-end regions use the
        // event-list ratio as the machine-speed proxy: a slower box drags
        // every region down together, a real regression moves one region
        // while the proxy holds. Baselines predating a field skip its
        // gate, so the check stays usable across baseline generations.
        for (field, fresh) in [
            ("frames_per_sec", frames_ps),
            ("frames_per_sec_batched", frames_ps_batched),
            ("ops_per_sec", e2e_ops),
            ("ops_per_sec_batched", e2e_ops_batched),
            ("traffic_wall_ops_per_sec", tr_wall_ops),
        ] {
            let Some(base) = json_number(&baseline, field) else {
                eprintln!("sim_throughput: baseline has no {field}; skipping gate");
                continue;
            };
            let ratio = fresh / base;
            eprintln!(
                "sim_throughput: check {field}: {:.1}% of baseline",
                ratio * 100.0
            );
            if ratio < 0.80 && ratio / eps_ratio.min(1.0) < 0.80 {
                eprintln!("sim_throughput: FAIL — {field} regressed more than 20%");
                failed = true;
            }
        }
        // Allocations per frame are near-deterministic, so this is an
        // absolute bound rather than a ratio.
        if let Some(base) = json_number(&baseline, "allocs_per_frame") {
            if allocs_pf > base + 0.1 {
                eprintln!(
                    "sim_throughput: FAIL — allocs/frame rose to {allocs_pf:.3} \
                     (baseline {base:.3})"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
