//! Golden-digest regression tests: pin the exact simulated behaviour of
//! two representative harnesses so a refactor that silently changes
//! timing, protocol bytes, RNG draws, or apply order fails loudly here
//! instead of shifting results unnoticed.
//!
//! When a change is *intentional* (protocol fix, timing model change),
//! re-run with `--nocapture`, confirm the shift is expected, and update
//! the constants — the diff then documents that behaviour moved.

use pmnet::chaos::{
    run_campaign, run_concurrent_apply_campaign, run_failover_campaign,
    run_lossy_recovery_campaign, CampaignConfig,
};
use pmnet::core::system::DesignPoint;
use pmnet::sim::hash::{fnv1a, FNV_OFFSET};
use pmnet::sim::Dur;

/// Seed-77 lossy-recovery campaign, 10 plans x 2 designs. Covers the
/// client retry path, device redo, the full recovery handshake, and the
/// campaign digesting itself.
const LOSSY_RECOVERY_DIGEST: u64 = 0xcb7a_9acf_b7f0_a13b;

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
    let outcome = run_lossy_recovery_campaign(77, 10);
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
    let outcome = run_failover_campaign(77, 5);
    assert_eq!(outcome.failure_count(), 0, "campaign must converge");
    assert_eq!(
        outcome.digest, FAILOVER_CAMPAIGN_DIGEST,
        "seed-77 failover digest moved: fabric behaviour changed \
         (got {:#018x}); if intentional, update the golden constant",
        outcome.digest
    );
}

#[test]
fn single_shard_fabric_campaign_is_bit_identical_to_pmnet_switch() {
    // `PmnetSharded { shards: 1 }` is rewritten to `PmnetSwitch` inside
    // the builder before any node or RNG draw exists, so a whole chaos
    // campaign — plans, verdicts, digest — matches the switch design bit
    // for bit. This is the guard that sharding stays strictly additive:
    // the single-device data path is byte-identical to the seed's.
    let base = CampaignConfig {
        seed: 9,
        plans_per_design: 3,
        ..CampaignConfig::default()
    };
    let switch = run_campaign(&CampaignConfig {
        designs: vec![DesignPoint::PmnetSwitch],
        ..base.clone()
    });
    let sharded = run_campaign(&CampaignConfig {
        designs: vec![DesignPoint::PmnetSharded { shards: 1 }],
        ..base
    });
    assert_eq!(switch.digest, sharded.digest);
}

#[test]
fn one_apply_thread_campaign_is_bit_identical_to_the_sequential_path() {
    // `ApplyConfig { threads: 1 }` must be the literal sequential apply
    // path — not "a pool of one" with different timing. The concurrent
    // campaign at one thread derives plans and seeds identically to the
    // lossy-recovery campaign, so the frozen seed-77 digest must
    // reproduce bit for bit. This is the guard that the worker pool
    // stays strictly additive behind its config flag.
    let outcome = run_concurrent_apply_campaign(77, 10, 1);
    assert_eq!(outcome.failure_count(), 0, "campaign must converge");
    assert_eq!(
        outcome.digest, LOSSY_RECOVERY_DIGEST,
        "apply_threads: 1 diverged from the sequential path \
         (got {:#018x}, want the frozen lossy-recovery digest)",
        outcome.digest
    );
}

#[test]
fn fig16_stress_digest_is_pinned() {
    let mut rows = String::new();
    for design in [DesignPoint::PmnetSwitch, DesignPoint::PmnetNic] {
        for payload in [256usize, 1024] {
            let (gbps, mean, p99) =
                pmnet_bench::stress_point(design, 4, payload, Dur::millis(2), 3);
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
