//! Chaos under open-loop load: lossy links, a device power failure and
//! mid-flight session disconnects, all while the arrival process keeps
//! offering load. The run must satisfy the same invariants the chaos
//! harness checks for closed-loop clients:
//!
//! 1. **Convergence** — after the drain, no log entry is stranded on the
//!    device and the server holds no recovery barrier.
//! 2. **Durability** — every update an engine saw acknowledged is in the
//!    server's audit log, in per-session order, applied exactly once.
//! 3. **Liveness** — goodput is non-zero despite the faults.
//! 4. **Determinism** — the same seed replays the whole faulty campaign
//!    bit-identically.
//! 5. **Model** — the history the engines, device and server record is
//!    durably linearizable (`pmnet_model::check`), and the checker flags
//!    the planted dedup bug under the same campaign.

use pmnet_core::{audit, ServerLib, SystemConfig};
use pmnet_model::{check_system, CheckStats, Divergence};
use pmnet_sim::{Dur, Time};
use pmnet_telemetry::Telemetry;
use pmnet_traffic::{TrafficCounters, TrafficSpec, TrafficSystem};

fn chaotic_spec() -> TrafficSpec {
    let mut spec = TrafficSpec::poisson(60_000.0);
    spec.nodes = 2;
    spec.sessions_per_node = 16;
    spec.measure = Dur::millis(30);
    // Generous drain: loss-triggered RTO backoff chains and the device's
    // post-restore entry retries need room to quiesce.
    spec.drain = Dur::millis(250);
    // Mean session lifetime ~3 ms: plenty of disconnects land while an op
    // is in flight.
    spec.churn.disconnect_hazard_per_sec = 300.0;
    spec.churn.reconnect_delay = Dur::micros(500);
    spec
}

/// The seed's campaign, built and faulted, not yet run.
fn chaotic_system(seed: u64) -> TrafficSystem {
    let spec = chaotic_spec();
    let mut sys = TrafficSystem::build_with(&spec, SystemConfig::default(), seed);
    // 5% loss on every hop of the device chain, for the entire run.
    let (merge, device, server) = (sys.merge, sys.device, sys.server);
    for &e in &sys.engines.clone() {
        sys.world
            .update_link_spec(e, merge, |s| s.with_drop_prob(0.05));
    }
    sys.world
        .update_link_spec(merge, device, |s| s.with_drop_prob(0.05));
    sys.world
        .update_link_spec(device, server, |s| s.with_drop_prob(0.05));
    // Power-fail the device mid-measure; it restores 2 ms later with only
    // its persisted log.
    sys.world
        .schedule_crash(device, Time::ZERO + Dur::millis(12), Some(Dur::millis(2)));
    sys
}

fn run_chaotic(seed: u64) -> (TrafficCounters, String, usize, usize) {
    let mut sys = chaotic_system(seed);
    let server = sys.server;
    sys.run();

    let counters = sys.counters();
    let acked = sys.acked_updates();
    let stranded = sys.stranded_log_entries();
    let pending = sys.world.node::<ServerLib>(server).recovery_pending();

    // Durability: every acknowledged update applied, ordered, exactly
    // once (violations would make verify return Err).
    let report = audit::verify(sys.world.node::<ServerLib>(server).audit_log(), &acked)
        .unwrap_or_else(|v| panic!("audit violations under chaos: {v:?}"));
    assert_eq!(
        report.acked_checked,
        acked.len(),
        "audit must check every acked identity"
    );

    let line = sys.report(&Telemetry::disabled()).digest_line();
    (counters, line, stranded, pending)
}

#[test]
fn lossy_crashy_churny_open_loop_campaign_holds_all_invariants() {
    let (c, _line, stranded, pending) = run_chaotic(77);

    // Convergence.
    assert_eq!(stranded, 0, "device log must drain after the faults: {c:?}");
    assert_eq!(pending, 0, "server recovery barrier must clear: {c:?}");

    // Liveness: the campaign completed real work through loss, a crash
    // and constant churn; and the chaos actually happened.
    assert!(c.completed > 200, "goodput collapsed: {c:?}");
    assert!(
        c.retransmits > 0,
        "5% loss must force retransmissions: {c:?}"
    );
    assert!(c.disconnects > 0, "churn must disconnect sessions: {c:?}");
    assert!(
        c.disconnect_aborts > 0,
        "some disconnects must land mid-flight: {c:?}"
    );
}

#[test]
fn chaotic_campaign_replays_bit_identically() {
    let (c1, l1, s1, p1) = run_chaotic(123);
    let (c2, l2, s2, p2) = run_chaotic(123);
    assert_eq!(c1, c2, "counters must replay bit-identically");
    assert_eq!(l1, l2, "report digest must replay bit-identically");
    assert_eq!((s1, p1), (s2, p2));
}

#[test]
fn a_restarted_engine_keeps_its_offered_rate_and_never_reuses_an_identity() {
    // One engine at 20 k/s (mean gap 50 µs), power-cycled at half-time
    // for 100 ns: far less than the gap its pending arrival timer is
    // waiting out, so that timer is still queued when the node restores.
    let mut spec = TrafficSpec::poisson(20_000.0);
    spec.nodes = 1;
    spec.sessions_per_node = 16;
    spec.churn.disconnect_hazard_per_sec = 0.0;
    spec.measure = Dur::millis(200);
    spec.drain = Dur::millis(50);
    let mut sys = TrafficSystem::build_with(&spec, SystemConfig::default(), 5);
    let engine = sys.engines[0];
    sys.world
        .schedule_crash(engine, Time::ZERO + Dur::millis(100), Some(Dur::nanos(100)));
    sys.run();

    // A pre-crash arrival chain surviving beside the restarted one would
    // double the rate from half-time on (1.5x the expected total).
    let c = sys.counters();
    let expected = 20_000.0 * 0.2;
    let five_sigma = 5.0 * f64::sqrt(expected);
    assert!(
        (c.arrivals as f64 - expected).abs() < five_sigma,
        "offered {} arrivals, spec says {expected} ± {five_sigma:.0}: {c:?}",
        c.arrivals
    );

    let acked = sys.acked_updates();
    let distinct: std::collections::BTreeSet<_> = acked.iter().collect();
    assert_eq!(distinct.len(), acked.len(), "an identity was acked twice");
    assert!(
        acked.iter().any(|&(_, session, _)| session >= 16),
        "the restart must open fresh wire sessions"
    );
    let server = sys.world.node::<ServerLib>(sys.server);
    let report = audit::verify(server.audit_log(), &acked)
        .unwrap_or_else(|v| panic!("audit violations after engine restart: {v:?}"));
    assert_eq!(report.acked_checked, acked.len());

    let (inflight, queued) = sys.backlog();
    assert_eq!(
        c.arrivals,
        c.admitted + c.shed_admission + c.shed_disconnected + c.queue_drops,
        "arrival accounting must be total: {c:?}"
    );
    assert_eq!(
        c.admitted,
        c.completed
            + c.timed_out
            + c.disconnect_aborts
            + c.disconnect_queue_drops
            + (inflight + queued) as u64,
        "admission accounting must be total: {c:?} inflight={inflight} queued={queued}"
    );
}

/// Runs the seed's campaign under one checking handle, optionally with
/// the dedup bug planted on the server, and checks its history.
fn run_checked(seed: u64, dedup_bug: bool) -> (TrafficSystem, Result<CheckStats, Divergence>) {
    let mut sys = chaotic_system(seed);
    sys.world
        .node_mut::<ServerLib>(sys.server)
        .set_dedup_disabled(dedup_bug);
    let tel = Telemetry::checking();
    sys.attach_telemetry(&tel);
    sys.run();
    let verdict = check_system(&sys.world, sys.server, &tel);
    (sys, verdict)
}

#[test]
fn the_open_loop_campaign_is_durably_linearizable() {
    let (sys, verdict) = run_checked(77, false);
    let stats = verdict.unwrap_or_else(|d| panic!("{d}\n{}", d.artifact));
    // The history saw every op the engines issued, and every completion.
    let c = sys.counters();
    let (inflight, _) = sys.backlog();
    let issued = c.completed + c.timed_out + c.disconnect_aborts + inflight as u64;
    assert_eq!(stats.invokes as u64, issued, "{stats:?} {c:?}");
    assert_eq!(stats.completes as u64, c.completed, "{stats:?} {c:?}");
}

#[test]
fn the_checker_flags_the_dedup_bug_under_open_loop_load() {
    let (_, verdict) = run_checked(77, true);
    let d = verdict.expect_err("the dedup bug must be caught");
    assert!(
        d.reason.contains("duplicate apply"),
        "wrong first divergence: {}",
        d.reason
    );
}
