//! Chaos search: explore seeded random fault schedules against PMNet,
//! then demonstrate failure shrinking on a deliberately planted bug.
//!
//! Phase 1 runs a campaign of generated fault plans (crashes, link flaps,
//! loss/duplication/reorder/corruption bursts, PM slowdowns) across the
//! paper's design points and checks every run against the persistence
//! audit and a liveness invariant. A healthy tree reports zero failures,
//! and the campaign digest is bit-identical for a given seed.
//!
//! Phase 2 plants a dedup bug in the server (duplicate suppression off),
//! lets the campaign find failing schedules, ddmin-shrinks the first one
//! to a minimal fault set, and prints the replayable artifact.
//!
//! Run with: `cargo run --release --example chaos_search`

use pmnet::chaos::{run_campaign, shrink_failure, CampaignConfig, Intensity};
use pmnet::core::system::DesignPoint;

fn main() {
    // Phase 1: the healthy system under a medium-intensity campaign.
    let cfg = CampaignConfig {
        seed: 42,
        plans_per_design: 25,
        intensity: Intensity::Medium,
        ..CampaignConfig::default()
    };
    println!(
        "campaign: {} plans x {} designs, seed {}",
        cfg.plans_per_design,
        cfg.designs.len(),
        cfg.seed
    );
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
        DesignPoint::PmnetSwitch,
        DesignPoint::PmnetNic,
        DesignPoint::ClientServer,
    ] {
        let (redo, corrupt, retries) =
            outcome
                .runs
                .iter()
                .filter(|r| r.design == design)
                .fold((0, 0, 0), |acc, r| {
                    (
                        acc.0 + r.verdict.redo_applied,
                        acc.1 + r.verdict.corrupt_dropped,
                        acc.2 + r.verdict.client_retries,
                    )
                });
        println!("  {design:?}: redo={redo} corrupt_dropped={corrupt} client_retries={retries}");
    }

    // Phase 2: plant the dedup bug and let the harness find + shrink it.
    println!("\nplanting the dedup bug (duplicate suppression disabled)...");
    let buggy = CampaignConfig {
        plant_dedup_bug: true,
        plans_per_design: 25,
        intensity: Intensity::Heavy,
        ..cfg
    };
    let outcome = run_campaign(&buggy);
    println!(
        "  {} runs, {} failures",
        outcome.runs.len(),
        outcome.failure_count()
    );
    let Some(artifact) = outcome.failures.first() else {
        println!("  no failing schedule found (try a different seed)");
        return;
    };
    let (minimal, verdict, stats) = shrink_failure(&artifact.scenario(), &artifact.plan);
    println!(
        "  shrunk {} -> {} events in {} oracle runs",
        stats.from_events, stats.to_events, stats.tests
    );
    println!("  violations of the minimal plan:");
    for v in &verdict.violations {
        println!("    {v}");
    }
    let minimal_artifact = pmnet::chaos::Artifact::new(&artifact.scenario(), minimal)
        .with_flight(verdict.flight.clone());
    println!("\nreplay artifact (save and re-run from text):\n{minimal_artifact}");
    let replayed: pmnet::chaos::Artifact = minimal_artifact
        .to_string()
        .parse()
        .expect("artifact round-trips");
    assert_eq!(replayed.replay(), verdict, "replay is bit-identical");
    println!("replay from parsed artifact reproduces the verdict exactly.");
}
