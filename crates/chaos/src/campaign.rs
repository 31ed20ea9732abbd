//! Seeded exploration campaigns: many generated plans across several
//! design points, with a determinism digest over every verdict.
//!
//! A campaign is the harness's outer loop: derive a plan seed and a run
//! seed from the campaign seed, generate a plan, execute it, collect the
//! verdict. The FNV-1a digest folds every verdict's digest line, so two
//! campaigns from the same seed can be compared with a single `u64` —
//! the bit-identical-replay guarantee the whole tool rests on.

use pmnet_core::system::DesignPoint;
use pmnet_sim::hash::{fnv1a, FNV_OFFSET};
use pmnet_sim::{Dur, SimRng};

use crate::artifact::Artifact;
use crate::generate::{
    generate_failover_plan, generate_lossy_recovery_plan, generate_plan, Intensity, Topology,
};
use crate::plan::FaultPlan;
use crate::runner::{run, Scenario, Verdict};

/// Parameters of an exploration campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Plans generated (and executed) per design point.
    pub plans_per_design: usize,
    /// Generator aggressiveness.
    pub intensity: Intensity,
    /// Design points to explore.
    pub designs: Vec<DesignPoint>,
    /// Fault-injection window of each run.
    pub horizon: Dur,
    /// Plant the deliberate dedup bug in every run (for harness
    /// self-tests).
    pub plant_dedup_bug: bool,
}

impl Default for CampaignConfig {
    /// The acceptance-campaign shape: the paper's two PMNet placements
    /// plus the baseline.
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 1,
            plans_per_design: 70,
            intensity: Intensity::Medium,
            designs: vec![
                DesignPoint::PmnetSwitch,
                DesignPoint::PmnetNic,
                DesignPoint::ClientServer,
            ],
            horizon: Dur::millis(8),
            plant_dedup_bug: false,
        }
    }
}

/// One executed run of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRun {
    /// Design point of the run.
    pub design: DesignPoint,
    /// Index within the design's plan sequence.
    pub index: usize,
    /// Seed the scenario ran under.
    pub seed: u64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Everything a campaign produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// Every run, in execution order.
    pub runs: Vec<CampaignRun>,
    /// Replay artifacts for every failing run (un-shrunk; feed them to
    /// [`crate::shrink::shrink_failure`]).
    pub failures: Vec<Artifact>,
    /// FNV-1a digest over all verdict digest lines, in order. Equal
    /// digests mean bit-identical campaign outcomes.
    pub digest: u64,
}

impl CampaignOutcome {
    /// Runs that violated an invariant.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }
}

/// One fully-generated run awaiting execution. Plans are generated
/// serially (RNG fork order is part of the determinism contract) and
/// executed in any order; the merge step restores execution order.
struct CampaignJob {
    design: DesignPoint,
    index: usize,
    seed: u64,
    scenario: Scenario,
    plan: FaultPlan,
}

/// Worker-thread count for campaign execution: the `PMNET_CHAOS_THREADS`
/// environment variable if set (values < 1 mean serial), otherwise the
/// machine's available parallelism.
fn campaign_threads() -> usize {
    match std::env::var("PMNET_CHAOS_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs every job and returns verdicts in job order.
///
/// Each job is executed on exactly one thread with its own single-threaded
/// simulator, so a job's verdict is bit-identical regardless of the thread
/// count; jobs are striped across workers and the results re-indexed, so
/// the merged campaign outcome (and its digest) is too.
fn execute_jobs(jobs: &[CampaignJob], threads: usize) -> Vec<Verdict> {
    let threads = threads.min(jobs.len().max(1));
    if threads <= 1 {
        return jobs.iter().map(|j| run(&j.scenario, &j.plan)).collect();
    }
    let mut verdicts: Vec<Option<Verdict>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    jobs.iter()
                        .enumerate()
                        .skip(t)
                        .step_by(threads)
                        .map(|(i, j)| (i, run(&j.scenario, &j.plan)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("campaign worker panicked") {
                verdicts[i] = Some(v);
            }
        }
    });
    verdicts
        .into_iter()
        .map(|v| v.expect("striped execution covers every job"))
        .collect()
}

/// Merges executed jobs into an outcome, folding the digest in job order.
fn merge_outcome(jobs: Vec<CampaignJob>, verdicts: Vec<Verdict>) -> CampaignOutcome {
    let mut runs = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    let mut digest = FNV_OFFSET;
    for (job, verdict) in jobs.into_iter().zip(verdicts) {
        digest = fnv1a(digest, verdict.digest_line().as_bytes());
        if !verdict.passed {
            failures
                .push(Artifact::new(&job.scenario, job.plan).with_flight(verdict.flight.clone()));
        }
        runs.push(CampaignRun {
            design: job.design,
            index: job.index,
            seed: job.seed,
            verdict,
        });
    }
    CampaignOutcome {
        runs,
        failures,
        digest,
    }
}

fn campaign_with_threads(cfg: &CampaignConfig, threads: usize) -> CampaignOutcome {
    let mut meta = SimRng::seed(cfg.seed);
    let mut jobs = Vec::with_capacity(cfg.designs.len() * cfg.plans_per_design);
    for (di, &design) in cfg.designs.iter().enumerate() {
        let mut design_rng = meta.fork(1 + di as u64);
        let base = Scenario::standard(design, 0);
        let topo = Topology::for_design(design, base.clients);
        for index in 0..cfg.plans_per_design {
            let mut plan_rng = design_rng.fork(index as u64);
            let seed = plan_rng.uniform_u64(0..u64::MAX);
            let plan = generate_plan(&mut plan_rng, &topo, cfg.intensity, cfg.horizon);
            let mut scenario = Scenario::standard(design, seed);
            scenario.plant_dedup_bug = cfg.plant_dedup_bug;
            jobs.push(CampaignJob {
                design,
                index,
                seed,
                scenario,
                plan,
            });
        }
    }
    let verdicts = execute_jobs(&jobs, threads);
    merge_outcome(jobs, verdicts)
}

/// Executes the campaign. Fully determined by `cfg`: plans run in
/// parallel across worker threads (`PMNET_CHAOS_THREADS`, else the
/// machine's available parallelism), but each
/// run is single-threaded and the outcome — including the digest — is
/// bit-identical at any thread count.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignOutcome {
    campaign_with_threads(cfg, campaign_threads())
}

/// Executes a campaign of lossy-recovery plans: every plan crashes the
/// server and blankets the crash/recovery window with loss bursts (see
/// [`generate_lossy_recovery_plan`]), across the two PMNet placements.
/// The verdict's convergence invariant — device logs drained, recovery
/// barrier closed — is what these plans attack. Fully determined by
/// `(seed, plans_per_design)`.
pub fn run_lossy_recovery_campaign(seed: u64, plans_per_design: usize) -> CampaignOutcome {
    lossy_campaign_with_threads(seed, plans_per_design, 1, campaign_threads())
}

/// [`run_lossy_recovery_campaign`] with every run batched at
/// `batch_window` (devices and server apply). The plan/seed derivation is
/// identical, so `batch_window: 1` reproduces the unbatched campaign
/// digest exactly — the frozen goldens pin that equivalence.
pub fn run_lossy_recovery_campaign_with_window(
    seed: u64,
    plans_per_design: usize,
    batch_window: u32,
) -> CampaignOutcome {
    lossy_campaign_with_threads(seed, plans_per_design, batch_window, campaign_threads())
}

fn lossy_campaign_with_threads(
    seed: u64,
    plans_per_design: usize,
    batch_window: u32,
    threads: usize,
) -> CampaignOutcome {
    lossy_apply_campaign_with_threads(seed, plans_per_design, batch_window, 1, threads)
}

/// Executes a campaign of lossy-recovery plans with every run applying on
/// `apply_threads` server workers (see `ApplyConfig` in `pmnet-core`).
/// Every plan crashes the server mid-traffic, so with `apply_threads > 1`
/// the kill lands while the worker pool holds staged updates — the
/// concurrent-apply crash story. Runs with more than one apply thread are
/// checked in the model's concurrent-history mode. Plan/seed derivation
/// matches [`run_lossy_recovery_campaign`] exactly, so `apply_threads: 1`
/// reproduces the frozen lossy-recovery digest bit for bit.
pub fn run_concurrent_apply_campaign(
    seed: u64,
    plans_per_design: usize,
    apply_threads: u32,
) -> CampaignOutcome {
    lossy_apply_campaign_with_threads(seed, plans_per_design, 1, apply_threads, campaign_threads())
}

fn lossy_apply_campaign_with_threads(
    seed: u64,
    plans_per_design: usize,
    batch_window: u32,
    apply_threads: u32,
    threads: usize,
) -> CampaignOutcome {
    let mut meta = SimRng::seed(seed);
    let designs = [DesignPoint::PmnetSwitch, DesignPoint::PmnetNic];
    let mut jobs = Vec::with_capacity(designs.len() * plans_per_design);
    for (di, &design) in designs.iter().enumerate() {
        let mut design_rng = meta.fork(1 + di as u64);
        let base = Scenario::standard(design, 0);
        let topo = Topology::for_design(design, base.clients);
        for index in 0..plans_per_design {
            let mut plan_rng = design_rng.fork(index as u64);
            let run_seed = plan_rng.uniform_u64(0..u64::MAX);
            let plan = generate_lossy_recovery_plan(&mut plan_rng, &topo, Dur::millis(8));
            jobs.push(CampaignJob {
                design,
                index,
                seed: run_seed,
                scenario: Scenario::standard(design, run_seed)
                    .with_batch_window(batch_window)
                    .with_apply_threads(apply_threads),
                plan,
            });
        }
    }
    let verdicts = execute_jobs(&jobs, threads);
    merge_outcome(jobs, verdicts)
}

/// Executes a campaign of chained-replica failover plans on the sharded
/// fabric designs: every plan fail-stops (or replaces) at least one chain
/// member mid-traffic — some under a concurrent server crash, some under
/// spine loss (see [`generate_failover_plan`]). The claim under test is
/// the fabric's headline invariant: no client-acked update is lost when a
/// device dies, and the system stays live through fence → promote →
/// re-home. Fully determined by `(seed, plans_per_design)`.
pub fn run_failover_campaign(seed: u64, plans_per_design: usize) -> CampaignOutcome {
    failover_campaign_with_threads(seed, plans_per_design, 1, campaign_threads())
}

/// [`run_failover_campaign`] with every run batched at `batch_window`:
/// chained-replica failover under doorbell batching, where a staged (not
/// yet persisted) window on the dying primary must be re-driven by client
/// retries rather than falsely acked.
pub fn run_failover_campaign_with_window(
    seed: u64,
    plans_per_design: usize,
    batch_window: u32,
) -> CampaignOutcome {
    failover_campaign_with_threads(seed, plans_per_design, batch_window, campaign_threads())
}

fn failover_campaign_with_threads(
    seed: u64,
    plans_per_design: usize,
    batch_window: u32,
    threads: usize,
) -> CampaignOutcome {
    let mut meta = SimRng::seed(seed);
    let designs = [
        DesignPoint::PmnetSharded { shards: 2 },
        DesignPoint::PmnetSharded { shards: 3 },
    ];
    let mut jobs = Vec::with_capacity(designs.len() * plans_per_design);
    for (di, &design) in designs.iter().enumerate() {
        let mut design_rng = meta.fork(1 + di as u64);
        let base = Scenario::standard(design, 0);
        let topo = Topology::for_design(design, base.clients);
        for index in 0..plans_per_design {
            let mut plan_rng = design_rng.fork(index as u64);
            let run_seed = plan_rng.uniform_u64(0..u64::MAX);
            let plan = generate_failover_plan(&mut plan_rng, &topo, Dur::millis(8));
            jobs.push(CampaignJob {
                design,
                index,
                seed: run_seed,
                scenario: Scenario::standard(design, run_seed).with_batch_window(batch_window),
                plan,
            });
        }
    }
    let verdicts = execute_jobs(&jobs, threads);
    merge_outcome(jobs, verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignConfig {
        CampaignConfig {
            plans_per_design: 4,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaigns_are_bit_identical_for_a_seed() {
        let a = run_campaign(&small());
        let b = run_campaign(&small());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_campaign(&small());
        let b = run_campaign(&CampaignConfig { seed: 2, ..small() });
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn lossy_recovery_campaign_converges_with_identical_digests() {
        // Every plan crashes the server under loss; the convergence
        // invariant (logs drained, barrier closed) must hold on all of
        // them, and a replay must be bit-identical.
        let a = run_lossy_recovery_campaign(2024, 20);
        assert_eq!(a.runs.len(), 40);
        assert_eq!(
            a.failure_count(),
            0,
            "violations: {:?}",
            a.failures
                .iter()
                .map(|f| f.replay().violations)
                .collect::<Vec<_>>()
        );
        // The campaign must actually exercise recovery under loss, not
        // pass vacuously: redo replays and retransmissions must occur.
        let redo: u64 = a.runs.iter().map(|r| r.verdict.redo_applied).sum();
        let retries: u64 = a.runs.iter().map(|r| r.verdict.client_retries).sum();
        assert!(redo > 0, "no run replayed a redo log");
        assert!(retries > 0, "no run retransmitted under loss");
        let b = run_lossy_recovery_campaign(2024, 20);
        assert_eq!(a.digest, b.digest, "campaign must be bit-identical");
        assert_eq!(a, b);
    }

    #[test]
    fn failover_campaign_never_loses_an_acked_update() {
        // Every plan kills at least one chain member mid-traffic; the
        // verdict's durability audit (no acked update missing, no double
        // apply) and liveness invariant must hold on all of them.
        let a = run_failover_campaign(2025, 15);
        assert_eq!(a.runs.len(), 30);
        assert_eq!(
            a.failure_count(),
            0,
            "violations: {:?}",
            a.failures
                .iter()
                .map(|f| f.replay().violations)
                .collect::<Vec<_>>()
        );
        // Not vacuous: the fabric must actually have driven failovers.
        let failovers: u64 = a.runs.iter().map(|r| r.verdict.failovers).sum();
        assert!(
            failovers >= a.runs.len() as u64,
            "every plan kills a member, so every run must fail over \
             (got {failovers} across {} runs)",
            a.runs.len()
        );
        let b = run_failover_campaign(2025, 15);
        assert_eq!(a.digest, b.digest, "campaign must be bit-identical");
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        // The whole tool rests on replayability: striping runs across
        // worker threads must not perturb the outcome. Compare the full
        // outcome (not just the digest) at several thread counts,
        // including more threads than jobs.
        let serial = campaign_with_threads(&small(), 1);
        for threads in [2, 3, 64] {
            let parallel = campaign_with_threads(&small(), threads);
            assert_eq!(serial.digest, parallel.digest, "threads={threads}");
            assert_eq!(serial, parallel, "threads={threads}");
        }
        let serial = lossy_campaign_with_threads(2024, 6, 1, 1);
        let parallel = lossy_campaign_with_threads(2024, 6, 1, 4);
        assert_eq!(serial, parallel);
        let serial = failover_campaign_with_threads(2025, 4, 1, 1);
        let parallel = failover_campaign_with_threads(2025, 4, 1, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn window_one_campaigns_match_the_unbatched_entry_points() {
        // The `_with_window` variants derive plans and seeds identically,
        // so window 1 must reproduce the frozen campaign digests exactly.
        let a = run_lossy_recovery_campaign(2024, 4);
        let b = run_lossy_recovery_campaign_with_window(2024, 4, 1);
        assert_eq!(a, b);
        let a = run_failover_campaign(2025, 3);
        let b = run_failover_campaign_with_window(2025, 3, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn one_thread_concurrent_apply_campaign_matches_the_lossy_entry_point() {
        // `apply_threads: 1` is the sequential path; the campaign must be
        // indistinguishable from the frozen lossy-recovery entry point.
        let a = run_lossy_recovery_campaign(2024, 4);
        let b = run_concurrent_apply_campaign(2024, 4, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_apply_campaign_survives_kills_inside_apply() {
        // Every plan crashes the server under loss while four apply
        // workers hold staged updates; durability, convergence, and the
        // concurrent-history model check must all hold, and the campaign
        // must replay bit-identically (the pool's scheduler is seeded).
        let out = run_concurrent_apply_campaign(2026, 8, 4);
        assert_eq!(
            out.failure_count(),
            0,
            "violations: {:?}",
            out.failures
                .iter()
                .map(|f| f.replay().violations)
                .collect::<Vec<_>>()
        );
        let redo: u64 = out.runs.iter().map(|r| r.verdict.redo_applied).sum();
        assert!(redo > 0, "no run replayed a redo log");
        let b = run_concurrent_apply_campaign(2026, 8, 4);
        assert_eq!(out.digest, b.digest, "concurrent campaign must replay");
        assert_eq!(out, b);
    }

    #[test]
    fn batched_lossy_recovery_campaign_converges() {
        // Crash-under-loss with doorbell batching live on every hop: a
        // staged window dies with the device's volatile state, so the
        // convergence and durability invariants exercise the batch path's
        // crash story, not just its fast path.
        let out = run_lossy_recovery_campaign_with_window(2024, 8, 16);
        assert_eq!(
            out.failure_count(),
            0,
            "violations: {:?}",
            out.failures
                .iter()
                .map(|f| f.replay().violations)
                .collect::<Vec<_>>()
        );
        let redo: u64 = out.runs.iter().map(|r| r.verdict.redo_applied).sum();
        assert!(redo > 0, "no run replayed a redo log");
        // Replay artifacts carry the window, so a failure would reproduce.
        let b = run_lossy_recovery_campaign_with_window(2024, 8, 16);
        assert_eq!(out.digest, b.digest, "batched campaign must replay");
    }

    #[test]
    fn batched_failover_campaign_never_loses_an_acked_update() {
        let out = run_failover_campaign_with_window(2025, 6, 16);
        assert_eq!(
            out.failure_count(),
            0,
            "violations: {:?}",
            out.failures
                .iter()
                .map(|f| f.replay().violations)
                .collect::<Vec<_>>()
        );
        let failovers: u64 = out.runs.iter().map(|r| r.verdict.failovers).sum();
        assert!(failovers >= out.runs.len() as u64, "vacuous campaign");
    }

    #[test]
    fn healthy_system_survives_a_small_campaign() {
        let out = run_campaign(&small());
        assert_eq!(out.runs.len(), 12);
        assert_eq!(
            out.failure_count(),
            0,
            "violations: {:?}",
            out.failures
                .iter()
                .map(|a| a.replay().violations)
                .collect::<Vec<_>>()
        );
    }
}
