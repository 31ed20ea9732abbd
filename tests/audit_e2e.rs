//! System-wide persistence audit under chaos: packet loss, reordering and
//! a server power failure at once. The audit (see `pmnet::core::audit`)
//! checks per-session apply order, exactly-once application, and that no
//! acknowledged update was lost — across the crash.

use pmnet::core::audit;
use pmnet::core::server::ServerLib;
use pmnet::core::system::{DesignPoint, SystemBuilder};
use pmnet::core::SystemConfig;
use pmnet::sim::{Dur, Time};
use pmnet::workloads::{KvHandler, YcsbSource};

fn audit_run(
    design: DesignPoint,
    config: SystemConfig,
    crash: Option<(Dur, Dur)>,
    seed: u64,
) -> audit::AuditReport {
    audit_run_sized(design, config, crash, seed, 60)
}

fn audit_run_sized(
    design: DesignPoint,
    mut config: SystemConfig,
    crash: Option<(Dur, Dur)>,
    seed: u64,
    value_bytes: usize,
) -> audit::AuditReport {
    config.client_timeout = Dur::millis(2);
    let mut b = SystemBuilder::new(design, config);
    for _ in 0..4 {
        b = b.client(Box::new(YcsbSource::new(100, 500, 1.0, value_bytes)));
    }
    let mut sys = b
        .handler_factory(|| Box::new(KvHandler::new("btree", 5)))
        .build(seed);
    if let Some((at, downtime)) = crash {
        let server = sys.server;
        sys.world
            .schedule_crash(server, Time::ZERO + at, Some(downtime));
    }
    sys.run_clients(Dur::secs(60));
    sys.world.run_for(Dur::millis(300));
    let acked = sys.acked_updates();
    assert!(!acked.is_empty(), "clients must have acked updates");
    let server = sys.world.node::<ServerLib>(sys.server);
    match audit::verify(server.audit_log(), &acked) {
        Ok(report) => report,
        Err(violations) => {
            for v in &violations {
                eprintln!("AUDIT VIOLATION: {v}");
            }
            panic!("{} audit violations", violations.len());
        }
    }
}

#[test]
fn clean_run_passes_the_audit() {
    let report = audit_run(DesignPoint::PmnetSwitch, SystemConfig::default(), None, 3);
    assert_eq!(report.acked_checked, 400);
    assert_eq!(report.sessions, 4);
    // Host-stack jitter can reorder same-session packets past the server's
    // gap timeout even with no faults injected; the resulting device
    // retransmissions carry FLAG_REDO, so a handful of redo applies is
    // legitimate — only widespread redo traffic would indicate loss.
    assert!(report.redo <= 5, "redo={} in a fault-free run", report.redo);
}

#[test]
fn baseline_also_passes_the_audit() {
    let report = audit_run(DesignPoint::ClientServer, SystemConfig::default(), None, 4);
    assert_eq!(report.acked_checked, 400);
}

#[test]
fn lossy_network_passes_the_audit() {
    let mut config = SystemConfig::default();
    config.link = config.link.with_drop_prob(0.1);
    let report = audit_run(DesignPoint::PmnetSwitch, config, None, 5);
    assert_eq!(report.acked_checked, 400);
}

#[test]
fn reordering_network_passes_the_audit() {
    let mut config = SystemConfig::default();
    config.link = config.link.with_reordering(0.3, Dur::micros(80));
    let report = audit_run(DesignPoint::PmnetSwitch, config, None, 6);
    assert_eq!(report.acked_checked, 400);
}

#[test]
fn server_crash_passes_the_audit_with_redo_traffic() {
    let report = audit_run(
        DesignPoint::PmnetSwitch,
        SystemConfig::default(),
        Some((Dur::millis(2), Dur::millis(4))),
        7,
    );
    assert_eq!(report.acked_checked, 400);
    assert!(report.redo > 0, "recovery must have replayed something");
}

#[test]
fn chaos_loss_reorder_and_crash_pass_the_audit() {
    let mut config = SystemConfig::default();
    config.link = config
        .link
        .with_drop_prob(0.05)
        .with_reordering(0.2, Dur::micros(60));
    let report = audit_run(
        DesignPoint::PmnetSwitch,
        config,
        Some((Dur::millis(3), Dur::millis(4))),
        8,
    );
    assert_eq!(report.acked_checked, 400);
}

/// A 4 000 B value is a three-fragment update and one identity: the
/// client reports it once, under the last fragment's `SeqNum` the
/// server's apply records, so the audit checks one entry per update.
#[test]
fn fragmented_updates_pass_the_audit_under_one_identity_each() {
    let report = audit_run_sized(
        DesignPoint::PmnetSwitch,
        SystemConfig::default(),
        Some((Dur::millis(2), Dur::millis(4))),
        9,
        4_000,
    );
    assert_eq!(report.acked_checked, 400);
    assert!(report.redo > 0, "recovery must have replayed something");
}
