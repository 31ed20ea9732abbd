//! Model-checked chaos campaign: ~100 seeded fault plans across the
//! paper's three design points, each run's history recorded by its
//! checking telemetry handle and verified by the durable-linearizability checker
//! as a fourth invariant (on top of the audit, liveness, and convergence
//! checks).
//!
//! Two passes prove the checker pulls its weight:
//!
//! 1. the clean campaign must produce zero violations of any kind, and
//! 2. the same campaign with the deliberate dedup bug planted (the server
//!    re-applies updates despite an equal SeqNum) must produce failures
//!    the *model* checker attributes — not just the audit.
//!
//! Run with: `cargo run --release --example model_check`

use pmnet::chaos::{run_campaign, CampaignConfig};

fn main() {
    const SEED: u64 = 7;
    // 34 plans x 3 designs = 102 model-checked runs.
    let cfg = CampaignConfig {
        seed: SEED,
        plans_per_design: 34,
        ..CampaignConfig::default()
    };

    println!(
        "model-checked campaign: {} plans x {} designs, seed {SEED}",
        cfg.plans_per_design,
        cfg.designs.len()
    );
    let outcome = run_campaign(&cfg);
    println!(
        "  {} runs, {} failures, digest {:#018x}",
        outcome.runs.len(),
        outcome.failure_count(),
        outcome.digest
    );
    for run in outcome.runs.iter().filter(|r| !r.verdict.passed) {
        eprintln!(
            "failing run: design={:?} seed={} violations={:#?}",
            run.design, run.seed, run.verdict.violations
        );
    }
    for artifact in &outcome.failures {
        eprintln!("failing schedule:\n{artifact}");
    }
    assert_eq!(
        outcome.failure_count(),
        0,
        "durable linearizability violated under chaos"
    );

    // Self-test: the planted dedup bug must be caught by the model
    // checker itself (violations prefixed "model:"), proving the
    // invariant is live and not riding on the audit alone.
    let bugged = CampaignConfig {
        plant_dedup_bug: true,
        ..cfg
    };
    let outcome = run_campaign(&bugged);
    let model_flagged = outcome
        .runs
        .iter()
        .filter(|r| r.verdict.violations.iter().any(|v| v.starts_with("model:")))
        .count();
    println!(
        "  planted dedup bug: {} / {} runs flagged by the model checker",
        model_flagged,
        outcome.runs.len()
    );
    assert!(
        model_flagged > 0,
        "the model checker must catch the planted dedup bug"
    );
    println!("all clean runs check out; the planted bug is caught.");
}
