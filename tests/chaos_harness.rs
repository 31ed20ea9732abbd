//! End-to-end acceptance tests of the pmnet-chaos harness:
//!
//! * a 210-plan seeded campaign across the three headline design points
//!   is bit-identical on replay and violates no invariant,
//! * a deliberately planted dedup bug is found by the campaign and
//!   ddmin-shrunk to a minimal (<= 3 event) replayable artifact, whose
//!   verdict is pinned,
//! * a PMNet device power-cycled mid-workload (crash with a restart
//!   downtime) rejoins and the run still satisfies the durability audit.

use pmnet::chaos::{
    run, run_campaign, shrink_failure, Artifact, CampaignConfig, Fault, FaultPlan, Intensity,
    Scenario,
};
use pmnet::core::client::ClientLib;
use pmnet::core::system::DesignPoint;
use pmnet::sim::Dur;

#[test]
fn campaign_of_210_plans_is_deterministic_and_clean() {
    let cfg = CampaignConfig {
        seed: 1701,
        plans_per_design: 70,
        intensity: Intensity::Medium,
        ..CampaignConfig::default()
    };
    assert_eq!(cfg.designs.len(), 3, "switch, NIC and baseline");
    let first = run_campaign(&cfg);
    assert_eq!(first.runs.len(), 210);

    // Same seed => bit-identical verdicts, down to the digest.
    let second = run_campaign(&cfg);
    assert_eq!(first.digest, second.digest);
    assert_eq!(first, second);

    // The healthy system survives every generated schedule: durability
    // audit and liveness both hold on all 210 runs.
    for r in &first.runs {
        assert!(
            r.verdict.passed,
            "{:?} plan {} (seed {}): {:?}",
            r.design, r.index, r.seed, r.verdict.violations
        );
    }

    // The campaign actually exercised the fault machinery rather than
    // passing vacuously: recovery replay, corruption drops and client
    // retransmissions all happened somewhere.
    let total = |f: &dyn Fn(&pmnet::chaos::Verdict) -> u64| {
        first.runs.iter().map(|r| f(&r.verdict)).sum::<u64>()
    };
    assert!(total(&|v| v.redo_applied) > 0, "no run replayed redo logs");
    assert!(total(&|v| v.corrupt_dropped) > 0, "no run saw corruption");
    assert!(total(&|v| v.client_retries) > 0, "no run retransmitted");
}

#[test]
fn planted_dedup_bug_is_found_and_shrinks_to_a_tiny_artifact() {
    // Plant the bug and let a short heavy campaign find a failing plan.
    let cfg = CampaignConfig {
        seed: 42,
        plans_per_design: 10,
        intensity: Intensity::Heavy,
        designs: vec![DesignPoint::PmnetSwitch],
        plant_dedup_bug: true,
        ..CampaignConfig::default()
    };
    let outcome = run_campaign(&cfg);
    assert!(
        !outcome.failures.is_empty(),
        "the planted bug must produce audit failures"
    );

    let artifact = &outcome.failures[0];
    let (minimal, verdict, stats) = shrink_failure(&artifact.scenario(), &artifact.plan);
    assert!(
        minimal.len() <= 3,
        "expected a <=3 event minimal plan, got {} events:\n{minimal}",
        minimal.len()
    );
    assert!(minimal.len() <= stats.from_events);
    assert!(!verdict.passed);
    assert!(
        verdict
            .violations
            .iter()
            .any(|v| v.contains("duplicate apply") || v.contains("order regression")),
        "the failure must be the dedup defect: {:?}",
        verdict.violations
    );

    // The shrunk artifact replays from its text form alone, reproducing
    // the verdict bit-for-bit.
    let minimal_artifact =
        Artifact::new(&artifact.scenario(), minimal).with_flight(verdict.flight.clone());
    let text = minimal_artifact.to_string();
    let parsed: Artifact = text.parse().expect("artifact text parses");
    assert_eq!(parsed, minimal_artifact);
    assert_eq!(parsed.replay(), verdict);
    // Its timeline is the minimal run's, not the unshrunk run's.
    assert_eq!(parsed.flight, verdict.flight);

    // Control: the same minimal schedule on an unmodified server passes.
    let mut clean = parsed.clone();
    clean.dedup_bug = false;
    let control = clean.replay();
    assert!(control.passed, "{:?}", control.violations);
}

/// The dedup bug is planted on the built server (`set_dedup_disabled`);
/// the literals are what the commit before read when the builder planted
/// it on the server before adding it to the world, on the minimal
/// artifact `chaos_search` prints. Only `end=` has moved since, twice and
/// both times sooner: the device's entry retries wait on a measured
/// timeout and end with their entry, and a recovery poll pulls each
/// entry's retry forward instead of arming a second resend timer.
#[test]
fn dedup_bug_planted_after_build_reproduces_the_pinned_verdict() {
    let artifact: Artifact = "# pmnet-chaos replay artifact\n\
         seed=14108052177633193631\n\
         design=pmnet-switch\n\
         dedup_bug=true\n\
         at=61000 corrupt-burst link=backbone:0 permille=229 dur=257000\n\
         at=775000 server-crash down=1966000\n"
        .parse()
        .expect("artifact text parses");
    let verdict = artifact.replay();
    assert_eq!(
        verdict.digest_line(),
        "passed=false violations=2 finished=3 acked=120 applied=121 redo=72 dups=0 corrupt=2 \
         retries=2 failed=0 stranded=0 end=4339000"
    );
    assert_eq!(
        verdict.violations,
        [
            "audit: duplicate apply: 10.0.0.3/s2 seq 7",
            "model: divergence at event 433: duplicate apply: update client 3 session 2 seq 7 \
             applied twice despite equal SeqNum"
        ]
    );
}

#[test]
fn device_power_cycle_rejoins_and_passes_the_audit() {
    let mut plan = FaultPlan::new();
    plan.push(
        Dur::micros(300),
        Fault::DeviceCrash {
            device: 0,
            downtime: Some(Dur::millis(1)),
        },
    );
    for design in [DesignPoint::PmnetSwitch, DesignPoint::PmnetNic] {
        let scenario = Scenario::standard(design, 99);
        let v = run(&scenario, &plan);
        assert!(v.passed, "{design:?}: {:?}", v.violations);
        assert_eq!(v.finished_clients, scenario.clients, "{design:?}");
        // Acks stop while the device is dark, so clients must have
        // retried into the restarted device.
        assert!(v.client_retries > 0, "{design:?}: device loss was free?");
    }
}

#[test]
fn client_power_cycle_restarts_a_fresh_session() {
    let mut plan = FaultPlan::new();
    plan.push(
        Dur::micros(250),
        Fault::ClientCrash {
            client: 0,
            downtime: Some(Dur::millis(1)),
        },
    );
    let scenario = Scenario::standard(DesignPoint::PmnetSwitch, 7);
    let v = run(&scenario, &plan);
    assert!(v.passed, "{:?}", v.violations);

    // Rebuild and re-run through the runner's own machinery to inspect
    // the client: the restarted node must have counted its crash and be
    // on a later session than its peers.
    let mut sys = scenario.build();
    let crashed = sys.clients[0];
    sys.world.schedule_crash(
        crashed,
        pmnet::sim::Time::ZERO + Dur::micros(250),
        Some(Dur::millis(1)),
    );
    sys.run_clients(Dur::millis(200));
    sys.world.run_for(Dur::millis(20));
    let c = sys.world.node::<ClientLib>(crashed);
    assert_eq!(c.crashes(), 1);
    assert!(c.session() >= 1000, "restart must stride the session id");
    assert!(c.is_finished());
}
