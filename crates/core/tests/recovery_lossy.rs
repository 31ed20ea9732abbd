//! Deterministic single-drop recovery scenarios: each test surgically
//! drops exactly one leg of the recovery handshake — the `RecoveryPoll`,
//! the redo resend, the redo server-ACK, or the `RecoveryDone` — and
//! proves the retry machinery converges anyway: every client-acked update applied exactly
//! once, every device log drained, the recovery barrier closed.
//!
//! The drops are engineered with the administrative link state rather
//! than probabilistic loss: a downed link drops packets at *transmit*
//! time but leaves already-transmitted packets in flight, so downing the
//! device↔server link at the right instant kills one specific packet.

use pmnet_core::audit;
use pmnet_core::client::ClientLib;
use pmnet_core::device::{DeviceCounters, PmnetDevice};
use pmnet_core::server::ServerLib;
use pmnet_core::system::{BuiltSystem, DesignPoint, MicroSource, SystemBuilder};
use pmnet_core::SystemConfig;
use pmnet_net::PortNo;
use pmnet_sim::{Dur, Time};

const CRASH_AT: Dur = Dur::micros(200);
const DOWNTIME: Dur = Dur::millis(1);

/// One client, forty updates, the PMNet switch design. The client
/// timeout is tightened so link-down collateral heals quickly.
fn build(seed: u64) -> BuiltSystem {
    let cfg = SystemConfig {
        client_timeout: Dur::millis(1),
        ..SystemConfig::default()
    };
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, cfg)
        .client(Box::new(MicroSource::updates(40, 64)))
        .build(seed);
    for &c in &sys.clients.clone() {
        sys.world.start_node(c);
    }
    sys
}

/// `path = [merge, device, server]` for the PmnetSwitch design; the
/// recovery handshake crosses the last hop.
fn last_hop(sys: &BuiltSystem) -> (pmnet_sim::NodeId, pmnet_sim::NodeId) {
    let n = sys.path.len();
    (sys.path[n - 2], sys.path[n - 1])
}

/// The counters of the one device on the path.
fn device(sys: &BuiltSystem) -> DeviceCounters {
    sys.world.node::<PmnetDevice>(sys.devices[0]).counters()
}

fn all_finished(sys: &BuiltSystem) -> bool {
    sys.clients
        .iter()
        .all(|&c| sys.world.node::<ClientLib>(c).is_finished())
}

/// Runs until the workload completes, then drains and checks the full
/// convergence contract.
fn finish_and_check_convergence(sys: &mut BuiltSystem) {
    // `run_until` leaves `now` at the last processed event, so drive an
    // explicit cursor and stop when the world goes quiescent.
    let deadline = Time::ZERO + Dur::millis(100);
    let mut cursor = sys.world.now();
    while cursor < deadline && !all_finished(sys) {
        cursor = (cursor + Dur::micros(250)).min(deadline);
        sys.world.run_until(cursor);
        if sys.world.pending_events() == 0 {
            break;
        }
    }
    assert!(all_finished(sys), "workload wedged before the deadline");
    // Settle: entry retries, recovery resends and make-up acks drain.
    sys.world.run_for(Dur::millis(30));

    let acked = sys.acked_updates();
    assert_eq!(acked.len(), 40, "every update must be acknowledged");
    let server = sys.world.node::<ServerLib>(sys.server);
    let report = audit::verify(server.audit_log(), &acked)
        .expect("exactly-once, in-order application of every acked update");
    assert!(report.applied >= 40);
    assert_eq!(
        sys.stranded_log_entries(),
        0,
        "device logs must drain to empty"
    );
    assert_eq!(
        server.recovery_pending(),
        0,
        "recovery barrier must be closed"
    );
    let rec = server.recovery().expect("server recovered");
    assert!(
        rec.barrier_done_at < Time::MAX,
        "barrier close time recorded"
    );
}

/// Drop the first `RecoveryPoll`: the device↔server link is down across
/// the restore instant, so the poll transmitted at restore dies. The
/// server's backoff re-poll heals the handshake.
#[test]
fn dropped_recovery_poll_is_healed_by_server_repoll() {
    let mut sys = build(71);
    let (dev, server) = last_hop(&sys);
    let server_id = sys.server;
    sys.world.run_until(Time::ZERO + CRASH_AT);
    let crash_at = sys.world.now() + Dur::micros(10);
    sys.world
        .schedule_crash(server_id, crash_at, Some(DOWNTIME));
    // Down the link before restore; the poll fired at restore is dropped
    // at transmit. Bring it back up before the first backoff re-poll
    // (500 us) so the second poll succeeds.
    sys.world.run_until(crash_at + Dur::micros(50));
    sys.world.set_link_up(dev, server, false);
    sys.world.run_until(crash_at + DOWNTIME + Dur::micros(200));
    sys.world.set_link_up(dev, server, true);

    finish_and_check_convergence(&mut sys);
    let s = sys.world.node::<ServerLib>(server_id);
    let rec = s.recovery().expect("recovered");
    assert!(rec.polled_at < Time::MAX, "first poll must have been sent");
    assert!(
        rec.poll_retries >= 1,
        "the dropped poll must force a backoff re-poll (retries={})",
        rec.poll_retries
    );
}

/// Drop the redo resends: the link goes down the instant the first poll
/// hits the wire (the in-flight poll still arrives — `ports.transmit`
/// checks the administrative state at transmit time, not at delivery),
/// so every redo the device sends in response dies. Each entry's retry,
/// which the poll pulled forward, re-fires it once the link heals.
#[test]
fn dropped_redo_resend_is_healed_by_device_refire() {
    let mut sys = build(73);
    let (dev, server) = last_hop(&sys);
    let server_id = sys.server;
    sys.world.run_until(Time::ZERO + CRASH_AT);
    let crash_at = sys.world.now() + Dur::micros(10);
    sys.world
        .schedule_crash(server_id, crash_at, Some(DOWNTIME));
    // Run to the restore instant: the poll timer has fired (IdealHandler
    // recovers instantly) but the poll itself is still queued behind the
    // server's host-stack delay. Step until it is actually transmitted
    // (the server's port tx counter moves), THEN cut the link: the poll
    // is in flight and survives, the redos it triggers are all dropped.
    sys.world.run_until(crash_at + DOWNTIME);
    {
        let s = sys.world.node::<ServerLib>(server_id);
        let rec = s.recovery().expect("restored");
        assert!(rec.polled_at < Time::MAX, "poll timer must have fired");
    }
    let dev_id = sys.devices[0];
    assert!(
        sys.world.node::<PmnetDevice>(dev_id).log_len() > 0,
        "entries must be staged in the device log at restore"
    );
    let baseline = sys.world.ports().counters(server, PortNo(0)).tx_packets;
    let step_deadline = sys.world.now() + Dur::millis(2);
    let mut cursor = sys.world.now();
    while sys.world.ports().counters(server, PortNo(0)).tx_packets == baseline {
        assert!(cursor < step_deadline, "poll never reached the wire");
        cursor += Dur::nanos(500);
        sys.world.run_until(cursor);
    }
    let retries_at_poll = device(&sys).entry_retries;
    sys.world.set_link_up(dev, server, false);
    sys.world.run_for(Dur::micros(200));
    sys.world.set_link_up(dev, server, true);

    finish_and_check_convergence(&mut sys);
    let d = device(&sys);
    assert!(
        d.recovery_resends >= 1 && d.entry_retries > retries_at_poll,
        "dropped redo resends must be re-fired by their entry retries: {d:?}"
    );
}

/// Drop the redo server-ACK: the first resend is allowed through (the
/// link goes down only once the resend is in flight), the server applies
/// it, but its ACK dies. The entry's retry re-fires the resend, the
/// server dedups it and answers with a make-up ACK — exactly-once apply,
/// log still drains.
#[test]
fn dropped_redo_ack_is_healed_by_dedup_and_makeup_ack() {
    let mut sys = build(79);
    let (dev, server) = last_hop(&sys);
    let server_id = sys.server;
    sys.world.run_until(Time::ZERO + CRASH_AT);
    let crash_at = sys.world.now() + Dur::micros(10);
    sys.world
        .schedule_crash(server_id, crash_at, Some(DOWNTIME));
    sys.world.run_until(crash_at + DOWNTIME);
    // Step in fine increments until the server has applied the first
    // redo. Its ACK is still queued behind the server's host-stack delay
    // (microseconds, far above the stepping granularity), so cutting the
    // link now drops the ACK while the apply has already happened.
    let step_deadline = sys.world.now() + Dur::millis(2);
    let mut cursor = sys.world.now();
    loop {
        let applied = sys
            .world
            .node::<ServerLib>(server_id)
            .recovery()
            .map_or(0, |r| r.redo_applied);
        if applied > 0 {
            break;
        }
        assert!(cursor < step_deadline, "no redo applied after restore");
        cursor += Dur::nanos(500);
        sys.world.run_until(cursor);
    }
    let retries_at_apply = device(&sys).entry_retries;
    sys.world.set_link_up(dev, server, false);
    sys.world.run_for(Dur::micros(200));
    sys.world.set_link_up(dev, server, true);

    finish_and_check_convergence(&mut sys);
    let s = sys.world.node::<ServerLib>(server_id);
    let rec = s.recovery().expect("recovered");
    assert!(rec.redo_applied >= 1, "first resend must have been applied");
    assert!(
        s.counters().duplicates_dropped >= 1,
        "the re-fired resend must be absorbed by dedup: {:?}",
        s.counters()
    );
    let d = device(&sys);
    assert!(
        d.entry_retries > retries_at_apply,
        "the unconfirmed resend must have been re-fired: {d:?}"
    );
}

/// Drop the device's `RecoveryDone`: every redo is applied and acked, but
/// the link goes down while the drain report is still in the device's
/// pipeline. The server's backoff re-poll finds nothing owed and the
/// device regenerates the report, which closes the barrier.
#[test]
fn dropped_recovery_done_is_regenerated_by_server_repoll() {
    let mut sys = build(83);
    let (dev, server) = last_hop(&sys);
    let server_id = sys.server;
    sys.world.run_until(Time::ZERO + CRASH_AT);
    let crash_at = sys.world.now() + Dur::micros(10);
    sys.world
        .schedule_crash(server_id, crash_at, Some(DOWNTIME));
    sys.world.run_until(crash_at + DOWNTIME);
    // Step finer than the device's pipeline delay until the report is
    // emitted, then cut the link before it reaches the wire.
    let step_deadline = sys.world.now() + Dur::millis(2);
    let mut cursor = sys.world.now();
    while device(&sys).recovery_done_sent == 0 {
        assert!(
            cursor < step_deadline,
            "the device never reported its drain"
        );
        cursor += Dur::nanos(100);
        sys.world.run_until(cursor);
    }
    sys.world.set_link_up(dev, server, false);
    sys.world.run_for(Dur::micros(200));
    sys.world.set_link_up(dev, server, true);
    assert_eq!(
        sys.world.node::<ServerLib>(server_id).recovery_pending(),
        1,
        "the first RecoveryDone must have been dropped"
    );

    finish_and_check_convergence(&mut sys);
    let rec = sys
        .world
        .node::<ServerLib>(server_id)
        .recovery()
        .expect("recovered");
    assert!(rec.redo_applied >= 1, "the resends must have been applied");
    assert!(
        rec.poll_retries >= 1,
        "only a re-poll can close the barrier (retries={})",
        rec.poll_retries
    );
    assert!(
        device(&sys).recovery_done_sent >= 2,
        "the re-poll must regenerate RecoveryDone"
    );
}
