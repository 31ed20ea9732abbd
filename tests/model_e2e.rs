//! End-to-end durable-linearizability checking through the facade: a
//! mixed read/write workload with an in-network read cache and a server
//! power failure mid-run must replay cleanly against the `pmnet-model`
//! reference checker (DESIGN.md §11), and the history such a run records
//! is pinned byte for byte.

mod common;

use common::{get_frame, run_and_drain, set_frame};
use pmnet::core::api::{bypass, update, ScriptSource};
use pmnet::core::config::BatchConfig;
use pmnet::core::system::{BuiltSystem, DesignPoint, MicroSource, SystemBuilder};
use pmnet::core::{DeviceConfig, PmnetDevice, SystemConfig};
use pmnet::model;
use pmnet::sim::hash::{fnv1a, FNV_OFFSET};
use pmnet::sim::{Dur, Time};
use pmnet::telemetry::history::EventKind;
use pmnet::telemetry::Telemetry;
use pmnet::traffic::{AdmissionSpec, ChurnSpec, TrafficSpec, TrafficSystem};
use pmnet::workloads::{KvHandler, YcsbSource};

/// Attaches one checking handle to every recording node of `sys`.
fn attach_checking(sys: &mut BuiltSystem) -> Telemetry {
    let tel = Telemetry::checking();
    sys.attach_telemetry(&tel);
    tel
}

#[test]
fn crash_recovery_run_passes_the_checker() {
    let mut script = Vec::new();
    for i in 0..40u32 {
        let key = format!("k{}", i % 8);
        script.push(update(set_frame(key.as_bytes(), &i.to_le_bytes())));
        if i % 4 == 0 {
            script.push(bypass(get_frame(key.as_bytes())));
        }
    }
    let mut config = SystemConfig::default();
    config.device = config.device.with_cache(512);
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("btree", 6)))
        .build(97);
    let tel = attach_checking(&mut sys);
    let server = sys.server;
    sys.world
        .schedule_crash(server, Time::ZERO + Dur::millis(1), Some(Dur::millis(4)));
    run_and_drain(&mut sys, Dur::secs(30), Dur::millis(200));
    assert_eq!(sys.metrics().completed, 50, "40 updates + 10 reads");

    let stats = model::check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("durable linearizability violated:\n{d}\n{}", d.artifact));
    assert_eq!(stats.applies, 40, "every update applied exactly once");
    assert_eq!(stats.reads_checked, 10, "every read validated");
    assert!(
        stats.state_keys_checked >= 8,
        "final durable state replayed: {stats:?}"
    );
}

#[test]
fn uncached_reads_never_overtake_acked_writes() {
    // Regression for two holes this exact workload exposed (1:1
    // update/read with no device cache, crashing mid-run): the server
    // used to serve reads while its recovery barrier was still open
    // (pre-crash durable updates not yet replayed), and the device used
    // to forward a read that could overtake its session's device-acked
    // update still in flight to the server. Both now park the read.
    let mut script = Vec::new();
    for i in 0..20u32 {
        let key = format!("p{}", i % 4);
        script.push(update(set_frame(key.as_bytes(), &i.to_le_bytes())));
        script.push(bypass(get_frame(key.as_bytes())));
    }
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, SystemConfig::default())
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("btree", 2)))
        .build(123);
    let tel = attach_checking(&mut sys);
    let server = sys.server;
    sys.world
        .schedule_crash(server, Time::ZERO + Dur::micros(500), Some(Dur::millis(3)));
    run_and_drain(&mut sys, Dur::secs(30), Dur::millis(200));

    let stats = model::check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("durable linearizability violated:\n{d}\n{}", d.artifact));
    assert_eq!(stats.applies, 20);
    assert_eq!(stats.reads_checked, 20, "every read validated");
}

/// The checker on reduced copies of three benchmark shapes, built here
/// rather than by `benchmark/`: `fabric_saturated` (4 shard chains,
/// doorbell window 16, 48 clients of 1 KiB updates, ideal handler),
/// `closed_small` (16 clients of 64 B updates, ideal handler) and
/// `open_overload` (below). All three together take about 1 s
/// unoptimised on a 2-core host; keep them under 5 s. `kv_mixed` and
/// `apply_contended` are not here yet: their keyed multi-client
/// histories hit the checker's open real-time-order hole (ROADMAP item
/// 15 step 2).
///
/// `open_overload` is the open-loop `TrafficSystem` as the benchmark
/// builds it — Poisson arrivals at 4 M/s, no churn, admission open,
/// 4 096-deep session queues, an FPGA device spilling past 8 live
/// entries per session or 1 024 in all, the btree handler — with only
/// its arrival window shrunk (2 ms, about 8 000 updates, some 700 of
/// them spilled). Its `'O'` payloads carry no KV key and it issues no
/// reads, so rules 4–6 hold vacuously for workload keys: rule 6 compares
/// only the per-session applied-sequence table. The shape exercises
/// rules 1–3 through the spill and congestion path.
#[test]
fn benchmark_shapes_pass_the_checker() {
    let shapes = [
        (
            "fabric_saturated",
            DesignPoint::PmnetSharded { shards: 4 },
            SystemConfig::default().with_batch(BatchConfig::windowed(16)),
            48,
            (100, 1_024),
        ),
        (
            "closed_small",
            DesignPoint::PmnetSwitch,
            SystemConfig::default(),
            16,
            (300, 64),
        ),
    ];
    for (name, design, config, clients, (updates, bytes)) in shapes {
        let mut b = SystemBuilder::new(design, config);
        for _ in 0..clients {
            b = b.client(Box::new(MicroSource::updates(updates, bytes)));
        }
        let mut sys = b.build(1);
        let tel = attach_checking(&mut sys);
        run_and_drain(&mut sys, Dur::secs(5), Dur::millis(50));
        let stats = model::check_system(&sys.world, sys.server, &tel)
            .unwrap_or_else(|d| panic!("{name}: {d}\n{}", d.artifact));
        // Nothing crashes: every update completes and is applied once.
        let total = clients * updates;
        assert_eq!(sys.metrics().completed, total, "{name}");
        assert_eq!((stats.applies, stats.completes), (total, total), "{name}");
    }

    let mut traffic = TrafficSpec::poisson(4e6);
    traffic.churn = ChurnSpec::none();
    traffic.admission = AdmissionSpec::Open;
    traffic.queue_cap = 4_096;
    traffic.measure = Dur::millis(2);
    traffic.drain = Dur::millis(200);
    let config = SystemConfig {
        device: DeviceConfig::fpga().with_spill_policy(8, 1_024),
        ..SystemConfig::default()
    };
    let mut sys = TrafficSystem::build_with(&traffic, config, 1);
    let tel = Telemetry::checking();
    sys.attach_telemetry(&tel);
    sys.run();
    let stats = model::check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("open_overload: {d}\n{}", d.artifact));
    assert!(stats.applies > 0 && stats.completes > 0, "{stats:?}");
    let report = sys.report(&tel);
    assert!(report.log_spills > 0, "no update spilled: {report:?}");
}

#[test]
fn checker_verdicts_are_deterministic_across_replays() {
    let run = || {
        let script: Vec<_> = (0..25u32)
            .map(|i| update(set_frame(b"key", &i.to_le_bytes())))
            .collect();
        let mut sys = SystemBuilder::new(DesignPoint::PmnetNic, SystemConfig::default())
            .client(Box::new(ScriptSource::new(script)))
            .handler_factory(|| Box::new(KvHandler::new("hashmap", 4)))
            .build(101);
        let tel = attach_checking(&mut sys);
        run_and_drain(&mut sys, Dur::secs(5), Dur::millis(50));
        let stats = model::check_system(&sys.world, sys.server, &tel).expect("clean run");
        (sys.metrics().completed, stats.events, stats.applies)
    };
    assert_eq!(run(), run());
}

/// One seeded closed-loop KV run — two-fragment SETs, GETs the device
/// cache serves, a server crash — renders its history as divergence-
/// artifact text whose FNV-1a is pinned, so a history hook that moves,
/// drops an event or changes the record order shows here even when every
/// checker verdict still passes.
#[test]
fn a_recorded_history_is_pinned() {
    let mut script = Vec::new();
    for i in 0..16u32 {
        let key = format!("h{}", i % 4);
        script.push(update(set_frame(key.as_bytes(), &[i as u8; 2000])));
        if i % 2 == 1 {
            script.push(bypass(get_frame(key.as_bytes())));
        }
    }
    let mut config = SystemConfig::default();
    config.device = config.device.with_cache(64);
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("btree", 6)))
        .build(131);
    let tel = attach_checking(&mut sys);
    let server = sys.server;
    sys.world
        .schedule_crash(server, Time::ZERO + Dur::micros(300), Some(Dur::millis(2)));
    run_and_drain(&mut sys, Dur::secs(30), Dur::millis(200));
    assert_eq!(sys.metrics().completed, 24, "16 updates + 8 reads");

    let history = tel.history();
    let count = |f: fn(&EventKind) -> bool| history.iter().filter(|e| f(&e.kind)).count();
    let kinds = [
        count(|k| matches!(k, EventKind::Invoke { .. })),
        count(|k| matches!(k, EventKind::Complete { .. })),
        count(|k| matches!(k, EventKind::Apply { .. })),
        count(|k| matches!(k, EventKind::DeviceLogged { .. })),
        count(|k| matches!(k, EventKind::CacheServe { .. })),
    ];
    assert_eq!(kinds, [24, 24, 16, 32, 7], "two devlogs per update");
    let text = model::render(&history, None, 0, "pinned");
    assert_eq!(fnv1a(FNV_OFFSET, text.as_bytes()), 0xbeb2_9fbf_9ff3_baa5);
}

/// The world of [`a_recorded_history_is_pinned`] without its crash: every
/// SET is two fragments, and the cache serves a read only the whole value.
#[test]
fn two_fragment_sets_read_back_whole_through_the_cache() {
    let mut script = Vec::new();
    for i in 0..16u32 {
        let key = format!("h{}", i % 4);
        script.push(update(set_frame(key.as_bytes(), &[i as u8; 2000])));
        if i % 2 == 1 {
            script.push(bypass(get_frame(key.as_bytes())));
        }
    }
    let mut config = SystemConfig::default();
    config.device = config.device.with_cache(64);
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("btree", 6)))
        .build(131);
    let tel = attach_checking(&mut sys);
    run_and_drain(&mut sys, Dur::secs(30), Dur::millis(200));
    assert_eq!(sys.metrics().completed, 24, "16 updates + 8 reads");
    let stats = model::check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("durable linearizability violated:\n{d}\n{}", d.artifact));
    assert_eq!(stats.reads_checked, 8);
    let history = tel.history();
    let serves = history
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CacheServe { .. }))
        .count();
    assert!(serves > 0, "the cache served no read");
}

/// A SET the device log bypasses (a one-entry log still holding the
/// previous SET) must stop the cache serving the key's old value.
#[test]
fn a_bypassed_set_stops_the_cache_serving_the_old_value() {
    let script = vec![
        update(set_frame(b"k", b"v1")),
        bypass(get_frame(b"k")),
        update(set_frame(b"k", b"v2")),
        bypass(get_frame(b"k")),
    ];
    let mut config = SystemConfig::default();
    config.device = config.device.with_cache(64).with_log_capacity(1, 64);
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("btree", 6)))
        .build(7);
    let tel = attach_checking(&mut sys);
    run_and_drain(&mut sys, Dur::secs(5), Dur::millis(50));
    assert_eq!(sys.metrics().completed, 4);
    let device = sys.world.node::<PmnetDevice>(sys.devices[0]);
    assert_eq!(
        device.log_counters().bypass_full,
        1,
        "the second SET was logged"
    );
    model::check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("durable linearizability violated:\n{d}\n{}", d.artifact));
}

/// Four clients' 2 KiB SETs (two fragments each) over 256 zipfian keys,
/// with no stack hiccups. Some update completes with its first fragment
/// device-acked and its second bypassed by a full log, then server-acked:
/// the history must say so fragment by fragment for the checker to pass.
#[test]
fn two_fragment_updates_from_four_clients_pass_the_checker() {
    for seed in 7..=9 {
        let mut config = SystemConfig::default();
        for host in [&mut config.client, &mut config.server] {
            for stack in [
                &mut host.kernel_rx,
                &mut host.user_rx,
                &mut host.user_tx,
                &mut host.kernel_tx,
            ] {
                stack.hiccup_prob = 0.0;
            }
        }
        let mut b = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
            .handler_factory(|| Box::new(KvHandler::new("btree", 6)));
        for _ in 0..4 {
            b = b.client(Box::new(YcsbSource::new(300, 256, 1.0, 2048)));
        }
        let mut sys = b.build(seed);
        let tel = attach_checking(&mut sys);
        run_and_drain(&mut sys, Dur::secs(30), Dur::millis(200));
        model::check_system(&sys.world, sys.server, &tel)
            .unwrap_or_else(|d| panic!("seed {seed}: durable linearizability violated:\n{d}"));
    }
}
