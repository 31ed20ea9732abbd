//! Fabric-failover campaign: ~100 seeded fault plans against the sharded
//! chained-replica fabric, each one fail-stopping (or zombie-restarting)
//! at most one member per chain mid-traffic — sometimes with a server
//! crash overlapping the handover and loss bursts on the spine, so the
//! reconfiguration protocol (heartbeat timeout, fence, promote, re-home,
//! staged-log replay) runs inside an open recovery barrier.
//!
//! Each run must satisfy the full convergence contract: every
//! client-acked update applied exactly once (durability audit), every
//! client finishing (liveness), every surviving device log drained and
//! the recovery barrier closed (convergence). The campaign is replayed to
//! prove the digest is bit-identical for the fixed seed, and the summed
//! failover count proves the kills were not vacuous.
//!
//! A second pass runs the same campaign shape with a doorbell batching
//! window of 16 on every device, proving chain staging and promote/re-home
//! replay compose with coalesced acks and one-fence-per-batch appends.
//!
//! Run with: `cargo run --release --example fabric_failover`

use pmnet::chaos::{run_campaign, CampaignConfig};
use pmnet::core::system::DesignPoint;

fn main() {
    const SEED: u64 = 2025;
    const PLANS_PER_DESIGN: usize = 50; // x2 sharded designs = 100 runs
    const BATCH_WINDOW: u32 = 16;
    const BATCH_PLANS_PER_DESIGN: usize = 15; // x2 sharded designs = 30 batched runs

    println!("fabric-failover campaign: {PLANS_PER_DESIGN} plans x 2 designs, seed {SEED}");
    let cfg = CampaignConfig::failover(SEED, PLANS_PER_DESIGN);
    let outcome = run_campaign(&cfg);
    let replay = run_campaign(&cfg);
    println!(
        "  {} runs, {} failures, digest {:#018x} (replay digest matches: {})",
        outcome.runs.len(),
        outcome.failure_count(),
        outcome.digest,
        outcome.digest == replay.digest,
    );

    for design in [
        DesignPoint::PmnetSharded { shards: 2 },
        DesignPoint::PmnetSharded { shards: 3 },
    ] {
        let runs: Vec<_> = outcome.runs.iter().filter(|r| r.design == design).collect();
        let failovers: u64 = runs.iter().map(|r| r.verdict.failovers).sum();
        let redo: u64 = runs.iter().map(|r| r.verdict.redo_applied).sum();
        let retries: u64 = runs.iter().map(|r| r.verdict.client_retries).sum();
        let stranded: u64 = runs.iter().map(|r| r.verdict.stranded_log_entries).sum();
        println!(
            "  {design:?}: failovers={failovers} redo={redo} \
             client_retries={retries} stranded={stranded}"
        );
    }

    for artifact in &outcome.failures {
        eprintln!("failing schedule:\n{artifact}");
    }
    assert_eq!(
        outcome.failure_count(),
        0,
        "an acked update was lost or a chain wedged during failover"
    );
    assert_eq!(outcome.digest, replay.digest, "campaign must be replayable");
    let failovers: u64 = outcome.runs.iter().map(|r| r.verdict.failovers).sum();
    assert!(
        failovers >= outcome.runs.len() as u64,
        "every plan kills at least one chain member, so every run must \
         drive at least one failover (got {failovers} across {} runs)",
        outcome.runs.len()
    );
    println!("all runs converged across {failovers} failovers; digest stable.");

    println!(
        "fabric-failover campaign (batch window {BATCH_WINDOW}): \
         {BATCH_PLANS_PER_DESIGN} plans x 2 designs, seed {SEED}"
    );
    let batched = run_campaign(&CampaignConfig {
        batch_window: BATCH_WINDOW,
        ..CampaignConfig::failover(SEED, BATCH_PLANS_PER_DESIGN)
    });
    println!(
        "  {} runs, {} failures, digest {:#018x}",
        batched.runs.len(),
        batched.failure_count(),
        batched.digest,
    );
    for artifact in &batched.failures {
        eprintln!("failing batched schedule:\n{artifact}");
    }
    assert_eq!(
        batched.failure_count(),
        0,
        "an acked update was lost or a chain wedged during batched failover"
    );
    let failovers: u64 = batched.runs.iter().map(|r| r.verdict.failovers).sum();
    assert!(
        failovers >= batched.runs.len() as u64,
        "every batched plan must still drive at least one failover \
         (got {failovers} across {} runs)",
        batched.runs.len()
    );
    println!("all batched runs converged across {failovers} failovers.");
}
