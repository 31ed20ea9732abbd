//! The three per-client ordering scenarios of Figure 7, reproduced
//! end-to-end:
//!
//! (a) **Reordered packets** — the network permutes a client's updates;
//!     the server's PMNet library restores SeqNum order before applying.
//! (b) **Packet loss** — a lost update is detected as a SeqNum gap; the
//!     server requests retransmission, which the PMNet device serves from
//!     its log without involving the client.
//! (c) **Failure** — the server fails; on restore, the device resends the
//!     logged packets and the server reorders and deduplicates them.

mod common;

use common::{kv_handler, run_and_drain, set_frame};
use pmnet::core::api::{update, ScriptSource};
use pmnet::core::audit;
use pmnet::core::server::ServerLib;
use pmnet::core::system::{DesignPoint, SystemBuilder};
use pmnet::core::{PmnetDevice, SystemConfig};
use pmnet::sim::{Dur, Time};
use pmnet::workloads::KvHandler;

fn seq_tagged_script(n: u32) -> Vec<pmnet::core::client::AppRequest> {
    (0..n)
        .map(|i| update(set_frame(b"ordered", &i.to_le_bytes())))
        .collect()
}

fn final_value(sys: &mut pmnet::core::system::BuiltSystem) -> Option<u32> {
    kv_handler(sys)
        .peek(b"ordered")
        .and_then(|v| v.try_into().ok().map(u32::from_le_bytes))
}

/// Audits the run against the script's `updates` acknowledged updates:
/// each applied exactly once, from the one session, in strictly
/// increasing SeqNum order within every server epoch.
fn assert_applied_in_order(sys: &pmnet::core::system::BuiltSystem, updates: usize) {
    let server = sys.world.node::<ServerLib>(sys.server);
    let report = audit::verify(server.audit_log(), &sys.acked_updates())
        .unwrap_or_else(|violations| panic!("server must apply in SeqNum order: {violations:?}"));
    assert_eq!(report.sessions, 1);
    assert_eq!(report.acked_checked, updates);
    assert_eq!(report.applied, updates, "every update applied once");
}

/// Figure 7a: reordering on the wire, corrected by the server library.
#[test]
fn scenario_a_reordered_packets() {
    let config = SystemConfig {
        link: SystemConfig::default()
            .link
            .with_reordering(0.6, Dur::micros(120)),
        ..SystemConfig::default()
    };
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(seq_tagged_script(80))))
        .handler_factory(|| Box::new(KvHandler::new("btree", 1)))
        .build(61);
    run_and_drain(&mut sys, Dur::secs(10), Dur::millis(100));
    assert_eq!(sys.metrics().completed, 80);
    let server = sys.world.node::<ServerLib>(sys.server);
    assert!(
        server.counters().reordered > 0,
        "the fault injection must actually have reordered something"
    );
    // One epoch: no crash, so the order holds across the whole run.
    assert!(server.recovery().is_none());
    assert_applied_in_order(&sys, 80);
    assert_eq!(final_value(&mut sys), Some(79), "last write wins");
}

/// Figure 7b: packet loss repaired by Retrans served from the device log.
#[test]
fn scenario_b_lost_packet_served_from_device_log() {
    let config = SystemConfig {
        link: SystemConfig::default().link.with_drop_prob(0.15),
        client_timeout: Dur::millis(3),
        ..SystemConfig::default()
    };
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(seq_tagged_script(80))))
        .handler_factory(|| Box::new(KvHandler::new("btree", 2)))
        .build(67);
    run_and_drain(&mut sys, Dur::secs(30), Dur::millis(200));
    assert_eq!(sys.metrics().completed, 80);
    let server = sys.world.node::<ServerLib>(sys.server);
    assert!(server.recovery().is_none());
    assert_applied_in_order(&sys, 80);
    assert_eq!(final_value(&mut sys), Some(79));
    // At 15% loss across four link directions, repairs must have involved
    // the device log or the device's own retry path.
    let dev = sys.world.node::<PmnetDevice>(sys.devices[0]);
    let served = dev.counters().retrans_served + dev.counters().entry_retries;
    assert!(
        served > 0,
        "lost forwards must be repaired from the device log: {:?}",
        dev.counters()
    );
}

/// Figure 7c: server failure; the device's logged packets recover it in
/// order.
#[test]
fn scenario_c_failure_recovery_in_order() {
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, SystemConfig::default())
        .client(Box::new(ScriptSource::new(seq_tagged_script(120))))
        .handler_factory(|| Box::new(KvHandler::new("btree", 3)))
        .build(71);
    let server_id = sys.server;
    sys.world
        .schedule_crash(server_id, Time::ZERO + Dur::millis(1), Some(Dur::millis(5)));
    run_and_drain(&mut sys, Dur::secs(30), Dur::millis(300));
    assert_eq!(sys.metrics().completed, 120);
    let server = sys.world.node::<ServerLib>(sys.server);
    let rec = server.recovery().expect("server recovered");
    assert!(rec.redo_applied > 0, "recovery must have replayed the log");
    // Within each epoch, application order is strictly increasing.
    assert_applied_in_order(&sys, 120);
    assert_eq!(final_value(&mut sys), Some(119));
}

/// The payload type the scripts use must round-trip (sanity guard for the
/// scenarios above).
#[test]
fn script_frames_are_well_formed() {
    use bytes::Bytes;
    use pmnet::core::kvproto::KvFrame;
    let script = seq_tagged_script(3);
    for (i, req) in script.iter().enumerate() {
        match KvFrame::decode(&req.payload) {
            Some(KvFrame::Set { key, value }) => {
                assert_eq!(&key[..], b"ordered");
                assert_eq!(value, (i as u32).to_le_bytes().to_vec());
            }
            other => panic!("bad frame {other:?}"),
        }
    }
    let _ = Bytes::new();
}
