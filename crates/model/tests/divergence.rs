//! End-to-end checker validation against real simulated systems: a clean
//! run passes, and two deliberately planted bugs — duplicate applies with
//! dedup disabled, and a stale read cache — are caught at the first
//! divergent op with a replayable artifact.

use bytes::Bytes;
use pmnet_core::api::{bypass, update, ScriptSource};
use pmnet_core::client::ClientLib;
use pmnet_core::device::PmnetDevice;
use pmnet_core::kvproto::KvFrame;
use pmnet_core::server::ServerLib;
use pmnet_core::system::BuiltSystem;
use pmnet_core::system::{DesignPoint, SystemBuilder};
use pmnet_core::SystemConfig;
use pmnet_model::{check_system, replay};
use pmnet_sim::{Dur, Time};
use pmnet_telemetry::Telemetry;
use pmnet_workloads::KvHandler;

fn set_frame(key: &[u8], value: &[u8]) -> Bytes {
    KvFrame::Set {
        key: Bytes::copy_from_slice(key),
        value: Bytes::copy_from_slice(value),
    }
    .encode()
}

fn get_frame(key: &[u8]) -> Bytes {
    KvFrame::Get {
        key: Bytes::copy_from_slice(key),
    }
    .encode()
}

/// Attaches a fresh checking handle to every recording node of `sys`.
fn attach_checking(sys: &mut BuiltSystem) -> Telemetry {
    let tel = Telemetry::checking();
    sys.attach_telemetry(&tel);
    tel
}

#[test]
fn clean_run_passes_the_checker() {
    // One rule set for every design point but client-side logging, whose
    // peer-logger acks are not in the history: each acknowledgement rests
    // on a recorded log write (a device's, or the server's early log) or
    // on the server's own ack.
    let script = |client: u32| -> Vec<_> {
        (0..10u32)
            .flat_map(|i| {
                let key = format!("k{}", i % 3);
                let value = (client * 100 + i).to_le_bytes();
                [
                    update(set_frame(key.as_bytes(), &value)),
                    bypass(get_frame(key.as_bytes())),
                ]
            })
            .collect()
    };
    for design in [
        DesignPoint::PmnetSwitch,
        DesignPoint::PmnetNic,
        DesignPoint::ClientServer,
        DesignPoint::PmnetReplicated { devices: 3 },
        DesignPoint::ClientServerReplicated { replicas: 3 },
        DesignPoint::ServerSideLog { replicas: 1 },
        DesignPoint::ServerSideLog { replicas: 3 },
        DesignPoint::PmnetSharded { shards: 2 },
    ] {
        let mut sys = SystemBuilder::new(design, SystemConfig::default())
            .client(Box::new(ScriptSource::new(script(0))))
            .client(Box::new(ScriptSource::new(script(1))))
            .handler_factory(|| Box::new(KvHandler::new("btree", 3)))
            .build(61);
        let tel = attach_checking(&mut sys);
        sys.run_clients(Dur::secs(2));
        sys.world.run_for(Dur::millis(50));
        assert_eq!(sys.metrics().completed, 40, "{design:?}");
        let stats = check_system(&sys.world, sys.server, &tel)
            .unwrap_or_else(|d| panic!("{design:?}: {d}\n{}", d.artifact));
        assert_eq!(stats.applies, 20, "{design:?}");
        assert_eq!(stats.invokes, 40, "{design:?}");
        assert_eq!(stats.reads_checked, 20, "{design:?}");
        assert!(stats.state_keys_checked >= 4, "{design:?}: {stats:?}");
    }
}

#[test]
fn clean_lossy_run_passes_the_checker() {
    // Loss + retransmission must not trip the checker: dedup keeps the
    // apply stream exactly-once, and the history sees it all.
    let mut config = SystemConfig::default();
    config.link = config.link.with_drop_prob(0.15);
    config.client_timeout = Dur::millis(2);
    let script: Vec<_> = (0..30u32)
        .map(|i| update(set_frame(format!("k{i}").as_bytes(), &i.to_le_bytes())))
        .collect();
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("hashmap", 4)))
        .build(43);
    let tel = attach_checking(&mut sys);
    sys.run_clients(Dur::secs(20));
    sys.world.run_for(Dur::millis(100));
    assert_eq!(sys.metrics().completed, 30);
    let stats = check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("{d}\n{}", d.artifact));
    assert_eq!(stats.applies, 30, "exactly-once despite loss");
}

#[test]
fn dedup_bug_is_caught_with_a_replayable_artifact() {
    // Plant the bug: the server applies redo packets even when the
    // SeqNum was already applied. Force redos by making the device
    // re-forward logged entries almost immediately — faster than the
    // server ACK round-trip that would normally invalidate them.
    let mut config = SystemConfig::default();
    config.device.log_retry_timeout = Dur::micros(2);
    let script: Vec<_> = (0..10u32)
        .map(|i| update(set_frame(b"dup", &i.to_le_bytes())))
        .collect();
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("btree", 5)))
        .build(47);
    sys.world
        .node_mut::<ServerLib>(sys.server)
        .set_dedup_disabled(true);
    let tel = attach_checking(&mut sys);
    sys.run_clients(Dur::secs(2));
    sys.world.run_for(Dur::millis(50));
    let d = check_system(&sys.world, sys.server, &tel).expect_err("the dedup bug must be caught");
    assert!(
        d.reason.contains("duplicate apply"),
        "wrong first divergence: {}",
        d.reason
    );
    // The divergence points at a real event of the recorded history.
    let events = tel.history().len();
    assert!(d.index < events, "index {} of {events}", d.index);
    // The artifact replays to the identical verdict.
    let replayed = replay(&d.artifact)
        .expect("artifact must parse")
        .expect_err("artifact must still diverge");
    assert_eq!(replayed.index, d.index);
    assert_eq!(replayed.reason, d.reason);
}

#[test]
fn dedup_bug_absent_means_redo_storm_is_clean() {
    // Same aggressive redo schedule, dedup left on: the checker passes,
    // proving the dedup test catches the bug and not the schedule.
    let mut config = SystemConfig::default();
    config.device.log_retry_timeout = Dur::micros(2);
    let script: Vec<_> = (0..10u32)
        .map(|i| update(set_frame(b"dup", &i.to_le_bytes())))
        .collect();
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("btree", 5)))
        .build(47);
    let tel = attach_checking(&mut sys);
    sys.run_clients(Dur::secs(2));
    sys.world.run_for(Dur::millis(50));
    let stats = check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("{d}\n{}", d.artifact));
    assert_eq!(stats.applies, 10);
}

#[test]
fn stale_read_bug_is_caught_with_a_replayable_artifact() {
    // Plant the bug: the device cache keeps serving a value the client
    // has already overwritten with an acknowledged update.
    let mut config = SystemConfig::default();
    config.device = config.device.with_cache(1024);
    let script = vec![
        update(set_frame(b"k", b"v1")),
        bypass(get_frame(b"k")), // miss; the reply fills the cache with v1
        update(set_frame(b"k", b"v2")), // the bug skips the cache overwrite
        bypass(get_frame(b"k")), // hit: serves stale v1
    ];
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("hashmap", 6)))
        .build(53);
    for &dev in &sys.devices.clone() {
        sys.world
            .node_mut::<PmnetDevice>(dev)
            .set_stale_read_bug(true);
    }
    let tel = attach_checking(&mut sys);
    sys.run_clients(Dur::secs(2));
    sys.world.run_for(Dur::millis(50));
    assert_eq!(sys.metrics().completed, 4);
    // Sanity: the second read really was served stale by the cache.
    let client = sys.world.node::<ClientLib>(sys.clients[0]);
    assert_eq!(client.total_completed(), 4);
    let d = check_system(&sys.world, sys.server, &tel).expect_err("the stale read must be caught");
    assert!(
        d.reason.contains("stale read"),
        "wrong first divergence: {}",
        d.reason
    );
    let replayed = replay(&d.artifact)
        .expect("artifact must parse")
        .expect_err("artifact must still diverge");
    assert_eq!(replayed.index, d.index);
    assert_eq!(replayed.reason, d.reason);
}

#[test]
fn stale_read_bug_absent_means_cached_reads_are_clean() {
    let mut config = SystemConfig::default();
    config.device = config.device.with_cache(1024);
    let script = vec![
        update(set_frame(b"k", b"v1")),
        bypass(get_frame(b"k")),
        update(set_frame(b"k", b"v2")),
        bypass(get_frame(b"k")),
    ];
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("hashmap", 6)))
        .build(53);
    let tel = attach_checking(&mut sys);
    sys.run_clients(Dur::secs(2));
    sys.world.run_for(Dur::millis(50));
    let stats = check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("{d}\n{}", d.artifact));
    assert_eq!(stats.reads_checked, 2);
}

#[test]
fn a_logged_delete_stops_the_cache_serving_the_old_value() {
    // While the Del is in flight its key's entry serves nothing; the Del's
    // server ack drains it, so the last read goes to the server and finds
    // nothing.
    let mut config = SystemConfig::default();
    config.device = config.device.with_cache(64);
    let del = KvFrame::Del {
        key: Bytes::from_static(b"k"),
    };
    let script = vec![
        update(set_frame(b"k", b"v1")),
        bypass(get_frame(b"k")),
        bypass(get_frame(b"k")),
        update(del.encode()),
        bypass(get_frame(b"k")),
    ];
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("hashmap", 6)))
        .build(53);
    let tel = attach_checking(&mut sys);
    sys.run_clients(Dur::secs(2));
    sys.world.run_for(Dur::millis(50));
    assert_eq!(sys.metrics().completed, 5);
    let stats = check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("{d}\n{}", d.artifact));
    assert_eq!(stats.reads_checked, 3);
    let cache = sys
        .world
        .node::<PmnetDevice>(sys.devices[0])
        .cache_counters()
        .expect("cache on");
    assert_eq!(cache.hits, 2, "{cache:?}");
    assert!(cache.misses >= 1, "{cache:?}");
}

#[test]
fn clean_sharded_fabric_run_passes_the_checker() {
    // Two shards, two clients hashed across them: provenance events now
    // come from four devices (two chains), and every update is applied
    // exactly once no matter which chain carried it.
    let design = DesignPoint::PmnetSharded { shards: 2 };
    let script = |salt: u32| -> Vec<_> {
        (0..15u32)
            .map(|i| {
                update(set_frame(
                    format!("s{salt}k{i}").as_bytes(),
                    &i.to_le_bytes(),
                ))
            })
            .collect()
    };
    let mut sys = SystemBuilder::new(design, SystemConfig::default())
        .client(Box::new(ScriptSource::new(script(0))))
        .client(Box::new(ScriptSource::new(script(1))))
        .handler_factory(|| Box::new(KvHandler::new("btree", 7)))
        .build(61);
    let tel = attach_checking(&mut sys);
    sys.run_clients(Dur::secs(2));
    sys.world.run_for(Dur::millis(50));
    assert_eq!(sys.metrics().completed, 30);
    let stats = check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("{d}\n{}", d.artifact));
    assert_eq!(stats.applies, 30);
}

#[test]
fn sharded_failover_run_passes_the_checker() {
    // Fail-stop a shard primary mid-run: the backup is promoted and
    // re-drives its staged log. Durable linearizability must survive the
    // handover — exactly-once applies, no acked update unaccounted for.
    let design = DesignPoint::PmnetSharded { shards: 2 };
    let script = |salt: u32| -> Vec<_> {
        (0..25u32)
            .map(|i| {
                update(set_frame(
                    format!("f{salt}k{i}").as_bytes(),
                    &i.to_le_bytes(),
                ))
            })
            .collect()
    };
    let mut sys = SystemBuilder::new(design, SystemConfig::default())
        .client(Box::new(ScriptSource::new(script(0))))
        .client(Box::new(ScriptSource::new(script(1))))
        .client(Box::new(ScriptSource::new(script(2))))
        .handler_factory(|| Box::new(KvHandler::new("btree", 7)))
        .build(67);
    let p0 = sys.devices[0];
    sys.world
        .schedule_crash(p0, Time::ZERO + Dur::micros(400), None);
    let tel = attach_checking(&mut sys);
    sys.run_clients(Dur::secs(2));
    sys.world.run_for(Dur::millis(50));
    assert_eq!(sys.metrics().completed, 75);
    let server = sys.world.node::<ServerLib>(sys.server);
    assert!(
        server
            .fabric_shard_counters()
            .iter()
            .any(|c| c.failovers > 0),
        "the kill must actually trigger a failover"
    );
    let stats = check_system(&sys.world, sys.server, &tel)
        .unwrap_or_else(|d| panic!("{d}\n{}", d.artifact));
    assert_eq!(stats.applies, 75, "exactly-once across the handover");
}

#[test]
fn full_telemetry_records_traces_but_no_history_across_a_real_run() {
    // Only a checking handle keeps a history: the tracing handle the
    // benchmarks attach records spans through the same hooks and builds
    // no history event.
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, SystemConfig::default())
        .client(Box::new(ScriptSource::new([update(set_frame(b"k", b"v"))])))
        .handler_factory(|| Box::new(KvHandler::new("btree", 1)))
        .build(59);
    let tel = Telemetry::full();
    sys.attach_telemetry(&tel);
    sys.run_clients(Dur::secs(1));
    assert_eq!(sys.metrics().completed, 1);
    assert_eq!(tel.traces().len(), 1);
    assert!(tel.history().is_empty());
}
