//! Golden-digest regression tests: pin the exact simulated behaviour of
//! two representative harnesses so a refactor that silently changes
//! timing, protocol bytes, RNG draws, or apply order fails loudly here
//! instead of shifting results unnoticed.
//!
//! When a change is *intentional* (protocol fix, timing model change),
//! re-run with `--nocapture`, confirm the shift is expected, and update
//! the constants — the diff then documents that behaviour moved.

use pmnet::chaos::{run_campaign, CampaignConfig};
use pmnet::core::system::{DesignPoint, UpdateExperiment};
use pmnet::core::{DeviceConfig, SystemConfig};
use pmnet::sim::hash::{fnv1a, FNV_OFFSET};
use pmnet::sim::{Dur, Time};
use pmnet::telemetry::Telemetry;
use pmnet::traffic::{AdmissionSpec, TrafficSpec, TrafficSystem};

/// Seed-77 lossy-recovery campaign, 10 plans x 2 designs. Covers the
/// client retry path, device redo, the full recovery handshake, and the
/// campaign digesting itself. Moved when the device's entry retry became
/// a measured, backed-off timer cancelled with its entry (DESIGN.md §7),
/// and again when a recovery poll began pulling that retry forward in
/// place of a second resend timer (DESIGN.md §9.2).
const LOSSY_RECOVERY_DIGEST: u64 = 0x5147_6da8_1008_98d0;

/// FNV-1a over the formatted Figure-16 stress rows (saturation points for
/// both PMNet designs). Covers the data path end to end: MAT pipeline
/// timing, link serialization, fragmentation, and latency accounting.
///
/// Updated when `LatencyHistogram` moved to fixed-memory log buckets:
/// p99 is now reported as the bucket upper edge (≤1.6% quantization),
/// while means and throughput are tracked exactly and did not move.
const FIG16_STRESS_DIGEST: u64 = 0x5f31_4538_d82b_5992;

/// Seed-77 failover campaign, 5 plans x 2 sharded designs. Covers the
/// chained-replica fabric end to end: heartbeat timeout, fencing, backup
/// promotion, shard re-homing, staged-log replay through the recovery
/// barrier, and client re-steering.
const FAILOVER_CAMPAIGN_DIGEST: u64 = 0xf37a_2ad4_7e32_24c3;

#[test]
fn lossy_recovery_campaign_digest_is_pinned() {
    let outcome = run_campaign(&CampaignConfig::lossy_recovery(77, 10));
    assert_eq!(outcome.failure_count(), 0, "campaign must converge");
    assert_eq!(
        outcome.digest, LOSSY_RECOVERY_DIGEST,
        "seed-77 lossy-recovery digest moved: simulated behaviour changed \
         (got {:#018x}); if intentional, update the golden constant",
        outcome.digest
    );
}

#[test]
fn failover_campaign_digest_is_pinned() {
    let outcome = run_campaign(&CampaignConfig::failover(77, 5));
    assert_eq!(outcome.failure_count(), 0, "campaign must converge");
    assert_eq!(
        outcome.digest, FAILOVER_CAMPAIGN_DIGEST,
        "seed-77 failover digest moved: fabric behaviour changed \
         (got {:#018x}); if intentional, update the golden constant",
        outcome.digest
    );
}

#[test]
fn fig16_stress_digest_is_pinned() {
    let mut rows = String::new();
    let cfg = SystemConfig::default();
    for design in [DesignPoint::PmnetSwitch, DesignPoint::PmnetNic] {
        for payload in [256usize, 1024] {
            let experiment = UpdateExperiment::new(design, cfg).clients(4);
            let (gbps, mean, p99) = experiment
                .payload_bytes(payload)
                .stress_point(Dur::millis(2), 3);
            // Bit-exact float encoding: any drift in the data path shows.
            rows.push_str(&format!(
                "{design:?} payload={payload} gbps_bits={:016x} mean_ns={} p99_ns={}\n",
                gbps.to_bits(),
                mean.as_nanos(),
                p99.as_nanos(),
            ));
        }
    }
    let digest = fnv1a(FNV_OFFSET, rows.as_bytes());
    assert_eq!(
        digest, FIG16_STRESS_DIGEST,
        "fig16 stress digest moved: simulated behaviour changed \
         (got {digest:#018x} for rows:\n{rows}); if intentional, update \
         the golden constant"
    );
}

/// FNV-1a of an open-loop campaign's report line plus every engine
/// counter, written out field by field so the pin does not depend on
/// `TrafficCounters`' `Debug` shape.
fn open_loop_digest(sys: &mut TrafficSystem) -> u64 {
    let c = sys.counters();
    let line = sys.report(&Telemetry::disabled()).digest_line();
    let text = format!(
        "{line} arrivals={} admitted={} shed_admission={} shed_disconnected={} \
         queue_drops={} completed={} timed_out={} disconnect_aborts={} \
         disconnect_queue_drops={} retransmits={} congestion_signals={} \
         disconnects={} reconnects={}",
        c.arrivals,
        c.admitted,
        c.shed_admission,
        c.shed_disconnected,
        c.queue_drops,
        c.completed,
        c.timed_out,
        c.disconnect_aborts,
        c.disconnect_queue_drops,
        c.retransmits,
        c.congestion_signals,
        c.disconnects,
        c.reconnects,
    );
    fnv1a(FNV_OFFSET, text.as_bytes())
}

/// The seed-77 campaign of `crates/traffic/tests/chaos_openloop.rs` (same
/// spec, same faults): 5 % loss on every hop, a device power cut and
/// constant mid-flight disconnects under open-loop load. Covers the
/// open-loop driver's timeout, retransmission and churn paths, which the
/// closed-loop goldens above never reach. Moved with the device's
/// measured entry retry, as `LOSSY_RECOVERY_DIGEST` did.
const OPEN_LOOP_CHAOS_DIGEST: u64 = 0x98ff_1819_e892_21f4;

/// A no-fault AIMD overload point: 400 k/s offered into a 256-entry log
/// with the spill policy on, so `FLAG_CONGESTED` acks steer the gate and
/// back off the slots they answer. Captured at PR 12.
const OPEN_LOOP_AIMD_OVERLOAD_DIGEST: u64 = 0xa2c4_8721_3c17_cec9;

#[test]
fn open_loop_chaos_campaign_digest_is_pinned() {
    let mut spec = TrafficSpec::poisson(60_000.0);
    spec.nodes = 2;
    spec.sessions_per_node = 16;
    spec.measure = Dur::millis(30);
    spec.drain = Dur::millis(250);
    spec.churn.disconnect_hazard_per_sec = 300.0;
    spec.churn.reconnect_delay = Dur::micros(500);
    let mut sys = TrafficSystem::build_with(&spec, SystemConfig::default(), 77);
    let (merge, device, server) = (sys.merge, sys.device, sys.server);
    for &e in &sys.engines.clone() {
        sys.world
            .update_link_spec(e, merge, |s| s.with_drop_prob(0.05));
    }
    sys.world
        .update_link_spec(merge, device, |s| s.with_drop_prob(0.05));
    sys.world
        .update_link_spec(device, server, |s| s.with_drop_prob(0.05));
    sys.world
        .schedule_crash(device, Time::ZERO + Dur::millis(12), Some(Dur::millis(2)));
    sys.run();
    let digest = open_loop_digest(&mut sys);
    assert_eq!(
        digest, OPEN_LOOP_CHAOS_DIGEST,
        "seed-77 open-loop chaos digest moved: the open-loop client's \
         behaviour changed (got {digest:#018x})"
    );
}

#[test]
fn open_loop_aimd_overload_digest_is_pinned() {
    let mut spec = TrafficSpec::poisson(400_000.0);
    spec.nodes = 2;
    spec.sessions_per_node = 16;
    spec.queue_cap = 8;
    spec.measure = Dur::millis(10);
    spec.drain = Dur::millis(20);
    assert_eq!(spec.admission, AdmissionSpec::aimd());
    let cfg = SystemConfig {
        device: DeviceConfig::fpga()
            .with_log_capacity(256, 1 << 20)
            .with_spill_policy(4, 192),
        ..SystemConfig::default()
    };
    let mut sys = TrafficSystem::build_with(&spec, cfg, 13);
    sys.run();
    let c = sys.counters();
    assert!(c.congestion_signals > 0 && c.shed_admission > 0, "{c:?}");
    let digest = open_loop_digest(&mut sys);
    assert_eq!(
        digest, OPEN_LOOP_AIMD_OVERLOAD_DIGEST,
        "seed-13 open-loop AIMD overload digest moved: the open-loop \
         client's behaviour changed (got {digest:#018x})"
    );
}
