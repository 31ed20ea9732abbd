//! Lossy-recovery campaign: ~200 seeded fault plans, each crashing the
//! server and blanketing the crash/recovery window with packet-loss
//! bursts, so every leg of the recovery handshake — `RecoveryPoll`, redo
//! resend, redo ack, `RecoveryDone` — is exposed to loss.
//!
//! Each run must satisfy the full convergence contract: every
//! client-acked update applied exactly once (durability audit), every
//! client finishing (liveness), every device log drained and the
//! recovery barrier closed (convergence). The campaign is replayed to
//! prove the digest is bit-identical for the fixed seed.
//!
//! The campaign then runs a second time with a doorbell batching window
//! of 16 on every device, proving the coalesced-ack / single-fence-per-batch
//! fast path survives the same loss schedule without losing an acked
//! update or wedging the recovery barrier.
//!
//! Run with: `cargo run --release --example lossy_recovery`

use pmnet::chaos::{run_campaign, CampaignConfig};
use pmnet::core::system::DesignPoint;

fn main() {
    const SEED: u64 = 77;
    const PLANS_PER_DESIGN: usize = 100; // x2 designs = 200 runs
    const BATCH_WINDOW: u32 = 16;
    const BATCH_PLANS_PER_DESIGN: usize = 25; // x2 designs = 50 batched runs

    println!("lossy-recovery campaign: {PLANS_PER_DESIGN} plans x 2 designs, seed {SEED}");
    let cfg = CampaignConfig::lossy_recovery(SEED, PLANS_PER_DESIGN);
    let outcome = run_campaign(&cfg);
    let replay = run_campaign(&cfg);
    println!(
        "  {} runs, {} failures, digest {:#018x} (replay digest matches: {})",
        outcome.runs.len(),
        outcome.failure_count(),
        outcome.digest,
        outcome.digest == replay.digest,
    );

    for design in [DesignPoint::PmnetSwitch, DesignPoint::PmnetNic] {
        let runs: Vec<_> = outcome.runs.iter().filter(|r| r.design == design).collect();
        let redo: u64 = runs.iter().map(|r| r.verdict.redo_applied).sum();
        let retries: u64 = runs.iter().map(|r| r.verdict.client_retries).sum();
        let failed: u64 = runs.iter().map(|r| r.verdict.failed_updates).sum();
        let stranded: u64 = runs.iter().map(|r| r.verdict.stranded_log_entries).sum();
        println!(
            "  {design:?}: redo={redo} client_retries={retries} \
             failed_updates={failed} stranded={stranded}"
        );
    }

    for artifact in &outcome.failures {
        eprintln!("failing schedule:\n{artifact}");
    }
    assert_eq!(
        outcome.failure_count(),
        0,
        "convergence violated under lossy recovery"
    );
    assert_eq!(outcome.digest, replay.digest, "campaign must be replayable");
    let redo: u64 = outcome.runs.iter().map(|r| r.verdict.redo_applied).sum();
    assert!(redo > 0, "campaign never exercised redo replay");
    println!("all runs converged; digest stable.");

    println!(
        "lossy-recovery campaign (batch window {BATCH_WINDOW}): \
         {BATCH_PLANS_PER_DESIGN} plans x 2 designs, seed {SEED}"
    );
    let batched = run_campaign(&CampaignConfig {
        batch_window: BATCH_WINDOW,
        ..CampaignConfig::lossy_recovery(SEED, BATCH_PLANS_PER_DESIGN)
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
        "convergence violated under lossy recovery with batching enabled"
    );
    let redo: u64 = batched.runs.iter().map(|r| r.verdict.redo_applied).sum();
    assert!(redo > 0, "batched campaign never exercised redo replay");
    println!("all batched runs converged.");
}
