//! Multi-server scenarios: one PMNet ToR switch in front of several
//! servers. The device keys its log per destination server (the `HashVal`
//! covers the server address), acknowledges independently, and recovery
//! polls resend only the polling server's entries.

mod common;

use common::{kv_handler_at, set_frame};
use pmnet::core::api::{update, ScriptSource};
use pmnet::core::client::{ClientLib, ClientMode};
use pmnet::core::server::ServerLib;
use pmnet::core::{PmnetDevice, SystemConfig};
use pmnet::net::{Addr, World};
use pmnet::sim::{Dur, Time};
use pmnet::workloads::KvHandler;

const SERVER_A: Addr = Addr(100);
const SERVER_B: Addr = Addr(200);

/// Builds: clientA, clientB — PMNet(ToR) — serverA, serverB.
/// Client A talks to server A; client B to server B.
fn build(seed: u64) -> (World, [pmnet::sim::NodeId; 5]) {
    let cfg = SystemConfig::default();
    let mut w = World::new(seed);
    let script_a: Vec<_> = (0..30u32)
        .map(|i| update(set_frame(format!("a{i}").as_bytes(), &i.to_le_bytes())))
        .collect();
    let script_b: Vec<_> = (0..30u32)
        .map(|i| update(set_frame(format!("b{i}").as_bytes(), &i.to_le_bytes())))
        .collect();
    let client_a = w.add_node(Box::new(ClientLib::new(
        Addr(1),
        SERVER_A,
        0,
        ClientMode::Pmnet { needed_acks: 1 },
        cfg.client,
        cfg.client_timeout,
        cfg.retry,
        Box::new(ScriptSource::new(script_a)),
    )));
    let client_b = w.add_node(Box::new(ClientLib::new(
        Addr(2),
        SERVER_B,
        1,
        ClientMode::Pmnet { needed_acks: 1 },
        cfg.client,
        cfg.client_timeout,
        cfg.retry,
        Box::new(ScriptSource::new(script_b)),
    )));
    let device = w.add_node(Box::new(PmnetDevice::new(
        "tor-pmnet",
        1,
        Addr(50),
        cfg.device,
    )));
    let server_a = w.add_node(Box::new(
        ServerLib::new(
            SERVER_A,
            cfg.server,
            cfg.server_workers,
            cfg.gap_timeout,
            Box::new(KvHandler::new("btree", 1)),
        )
        .with_devices(vec![Addr(50)]),
    ));
    let server_b = w.add_node(Box::new(
        ServerLib::new(
            SERVER_B,
            cfg.server,
            cfg.server_workers,
            cfg.gap_timeout,
            Box::new(KvHandler::new("hashmap", 2)),
        )
        .with_devices(vec![Addr(50)]),
    ));
    for leaf in [client_a, client_b, server_a, server_b] {
        w.connect(leaf, device, cfg.link);
    }
    w.populate_switch_routes();
    (w, [client_a, client_b, device, server_a, server_b])
}

fn run(w: &mut World, clients: &[pmnet::sim::NodeId]) {
    for &c in clients {
        w.start_node(c);
    }
    let mut cursor = w.now();
    let end = Time::ZERO + Dur::secs(30);
    while cursor < end {
        cursor += Dur::millis(1);
        w.run_until(cursor);
        if clients
            .iter()
            .all(|&c| w.node::<ClientLib>(c).is_finished())
        {
            break;
        }
        if w.pending_events() == 0 {
            break;
        }
    }
    w.run_for(Dur::millis(100));
}

#[test]
fn one_device_serves_two_servers_independently() {
    let (mut w, [ca, cb, dev, sa, sb]) = build(3);
    run(&mut w, &[ca, cb]);
    assert!(w.node::<ClientLib>(ca).is_finished());
    assert!(w.node::<ClientLib>(cb).is_finished());
    // Each server applied exactly its own client's updates.
    assert_eq!(w.node::<ServerLib>(sa).counters().updates_applied, 30);
    assert_eq!(w.node::<ServerLib>(sb).counters().updates_applied, 30);
    let device = w.node::<PmnetDevice>(dev);
    assert_eq!(device.log_counters().logged, 60);
    // Both servers' ACK traffic drained the log.
    assert_eq!(device.log_len(), 0);
    // State landed on the right servers.
    let handler_a = kv_handler_at(&mut w, sa);
    assert!(handler_a.peek(b"a0").is_some());
    assert!(handler_a.peek(b"b0").is_none(), "cross-server leak");
    let handler_b = kv_handler_at(&mut w, sb);
    assert!(handler_b.peek(b"b0").is_some());
    assert!(handler_b.peek(b"a0").is_none(), "cross-server leak");
}

#[test]
fn crash_of_one_server_recovers_without_touching_the_other() {
    let (mut w, [ca, cb, _dev, sa, sb]) = build(9);
    // Crash server A early; B stays up throughout.
    w.schedule_crash(sa, Time::ZERO + Dur::millis(1), Some(Dur::millis(4)));
    run(&mut w, &[ca, cb]);
    let a = w.node::<ServerLib>(sa);
    assert!(a.recovery().is_some(), "A must have recovered");
    let b = w.node::<ServerLib>(sb);
    assert!(b.recovery().is_none(), "B must never have crashed");
    assert_eq!(b.counters().updates_applied, 30);
    // A's state is complete after redo.
    let handler_a = kv_handler_at(&mut w, sa);
    for i in 0..30u32 {
        assert_eq!(
            handler_a.peek(format!("a{i}").as_bytes()),
            Some(i.to_le_bytes().to_vec())
        );
    }
}
