//! Concurrent-apply acceptance campaign: 100+ lossy-recovery plans with
//! the server applying on four workers, so every server kill lands while
//! the pool holds staged updates.
//!
//! ```text
//! cargo run --release -p pmnet-chaos --example concurrent_apply
//! ```
//!
//! Every run is additionally checked by the model's
//! durable-linearizability checker. The example
//! exits non-zero (panics) on any invariant violation, on a vacuous
//! campaign (no redo replays — i.e. the kills never actually landed), or
//! if a replay from the scheduler seed is not bit-identical.

use pmnet_chaos::{run_campaign, CampaignConfig};

fn main() {
    const SEED: u64 = 2026;
    const PLANS_PER_DESIGN: usize = 50; // x2 designs = 100 plans
    const THREADS: u32 = 4;

    let sched_seed = pmnet_core::config::ApplyConfig::sched_seed_from_env(SEED);
    let cfg = CampaignConfig {
        apply_threads: THREADS,
        ..CampaignConfig::lossy_recovery(SEED, PLANS_PER_DESIGN)
    };
    let start = std::time::Instant::now();
    let out = run_campaign(&cfg);
    let elapsed = start.elapsed();

    assert_eq!(out.runs.len(), 2 * PLANS_PER_DESIGN);
    if out.failure_count() != 0 {
        for f in &out.failures {
            eprintln!("--- failing artifact (PMNET_APPLY_SCHED_SEED base {sched_seed}) ---");
            eprintln!("{f}");
            eprintln!("violations: {:?}", f.replay().violations);
        }
        panic!(
            "{} of {} concurrent-apply runs violated an invariant \
             (replay with the artifacts above; scheduler seed base {sched_seed})",
            out.failure_count(),
            out.runs.len(),
        );
    }

    // Not vacuous: the kills must have forced real recovery replays and
    // the workload must have retried through the loss bursts.
    let redo: u64 = out.runs.iter().map(|r| r.verdict.redo_applied).sum();
    let retries: u64 = out.runs.iter().map(|r| r.verdict.client_retries).sum();
    assert!(redo > 0, "no run replayed a redo log — kills never landed");
    assert!(retries > 0, "no run retransmitted under loss");

    // Determinism: the seeded pool scheduler must replay bit-identically.
    let again = run_campaign(&cfg);
    assert_eq!(out.digest, again.digest, "concurrent campaign must replay");

    // Stdout is what CI diffs across two processes; wall time is not.
    println!(
        "{} runs @ {THREADS} apply threads, 0 failures, \
         {redo} redo applies, {retries} retries, digest {:#018x}",
        out.runs.len(),
        out.digest,
    );
    eprintln!("{elapsed:.2?} wall");
}
