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

/// Which generator a campaign draws its plans from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// [`generate_plan`] at the campaign's [`Intensity`]: transient
    /// faults of every kind.
    Mixed,
    /// [`generate_lossy_recovery_plan`]: every plan crashes the server
    /// and blankets the crash/recovery window with loss bursts. The
    /// verdict's convergence invariant — device logs drained, recovery
    /// barrier closed — is what these plans attack.
    LossyRecovery,
    /// [`generate_failover_plan`]: every plan fail-stops (or replaces) at
    /// least one chain member mid-traffic — some under a concurrent
    /// server crash, some under spine loss. The claim under test is the
    /// fabric's headline invariant: no client-acked update is lost when a
    /// device dies, and the system stays live through fence → promote →
    /// re-home.
    Failover,
}

/// Parameters of an exploration campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Plans generated (and executed) per design point.
    pub plans_per_design: usize,
    /// Plan generator.
    pub plans: PlanKind,
    /// Generator aggressiveness ([`PlanKind::Mixed`] only).
    pub intensity: Intensity,
    /// Design points to explore.
    pub designs: Vec<DesignPoint>,
    /// Fault-injection window of each run.
    pub horizon: Dur,
    /// Plant the deliberate dedup bug in every run (for harness
    /// self-tests).
    pub plant_dedup_bug: bool,
    /// Doorbell batching window of every device in every run.
    /// With a window above 1 a staged, not yet persisted batch dies with
    /// its device, so it must be re-driven by client retries rather than
    /// falsely acked. Plan/seed derivation does not depend on it.
    pub batch_window: u32,
    /// Server apply workers of every run (see `ApplyConfig` in
    /// `pmnet-core`). With more than one, a server crash lands while the
    /// pool holds staged updates. Plan/seed derivation does not depend
    /// on it.
    pub apply_threads: u32,
}

impl Default for CampaignConfig {
    /// The acceptance-campaign shape: mixed plans over the paper's two
    /// PMNet placements plus the baseline.
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 1,
            plans_per_design: 70,
            plans: PlanKind::Mixed,
            intensity: Intensity::Medium,
            designs: vec![
                DesignPoint::PmnetSwitch,
                DesignPoint::PmnetNic,
                DesignPoint::ClientServer,
            ],
            horizon: Dur::millis(8),
            plant_dedup_bug: false,
            batch_window: 1,
            apply_threads: 1,
        }
    }
}

impl CampaignConfig {
    /// Lossy-recovery plans across the two PMNet placements.
    pub fn lossy_recovery(seed: u64, plans_per_design: usize) -> CampaignConfig {
        CampaignConfig {
            seed,
            plans_per_design,
            plans: PlanKind::LossyRecovery,
            designs: vec![DesignPoint::PmnetSwitch, DesignPoint::PmnetNic],
            ..CampaignConfig::default()
        }
    }

    /// Chained-replica failover plans on the 2- and 3-shard fabrics.
    pub fn failover(seed: u64, plans_per_design: usize) -> CampaignConfig {
        CampaignConfig {
            seed,
            plans_per_design,
            plans: PlanKind::Failover,
            designs: vec![
                DesignPoint::PmnetSharded { shards: 2 },
                DesignPoint::PmnetSharded { shards: 3 },
            ],
            ..CampaignConfig::default()
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
    index: usize,
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
            design: job.scenario.design,
            index: job.index,
            seed: job.scenario.seed,
            verdict,
        });
    }
    CampaignOutcome {
        runs,
        failures,
        digest,
    }
}

/// Generates every job of the campaign. The RNG derivation is part of the
/// determinism contract (every pinned digest rests on it): campaign seed →
/// `fork(1 + design index)` → `fork(plan index)` → one draw for the run
/// seed → the plan generator.
fn generate_jobs(cfg: &CampaignConfig) -> Vec<CampaignJob> {
    let mut meta = SimRng::seed(cfg.seed);
    let mut jobs = Vec::with_capacity(cfg.designs.len() * cfg.plans_per_design);
    for (di, &design) in cfg.designs.iter().enumerate() {
        let mut design_rng = meta.fork(1 + di as u64);
        let topo = Topology::of(&Scenario::standard(design, 0).build());
        for index in 0..cfg.plans_per_design {
            let mut plan_rng = design_rng.fork(index as u64);
            let seed = plan_rng.uniform_u64(0..u64::MAX);
            let plan = match cfg.plans {
                PlanKind::Mixed => generate_plan(&mut plan_rng, &topo, cfg.intensity, cfg.horizon),
                PlanKind::LossyRecovery => {
                    generate_lossy_recovery_plan(&mut plan_rng, &topo, cfg.horizon)
                }
                PlanKind::Failover => generate_failover_plan(&mut plan_rng, &topo, cfg.horizon),
            };
            let mut scenario = Scenario::standard(design, seed)
                .with_batch_window(cfg.batch_window)
                .with_apply_threads(cfg.apply_threads);
            scenario.plant_dedup_bug = cfg.plant_dedup_bug;
            jobs.push(CampaignJob {
                index,
                scenario,
                plan,
            });
        }
    }
    jobs
}

fn campaign_with_threads(cfg: &CampaignConfig, threads: usize) -> CampaignOutcome {
    let jobs = generate_jobs(cfg);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignConfig {
        CampaignConfig {
            plans_per_design: 4,
            ..CampaignConfig::default()
        }
    }

    fn assert_clean(out: &CampaignOutcome) {
        assert_eq!(
            out.failure_count(),
            0,
            "violations: {:?}",
            out.failures
                .iter()
                .map(|f| f.replay().violations)
                .collect::<Vec<_>>()
        );
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
        let cfg = CampaignConfig::lossy_recovery(2024, 20);
        let a = run_campaign(&cfg);
        assert_eq!(a.runs.len(), 40);
        assert_clean(&a);
        // The campaign must actually exercise recovery under loss, not
        // pass vacuously: redo replays and retransmissions must occur.
        let redo: u64 = a.runs.iter().map(|r| r.verdict.redo_applied).sum();
        let retries: u64 = a.runs.iter().map(|r| r.verdict.client_retries).sum();
        assert!(redo > 0, "no run replayed a redo log");
        assert!(retries > 0, "no run retransmitted under loss");
        let b = run_campaign(&cfg);
        assert_eq!(a.digest, b.digest, "campaign must be bit-identical");
        assert_eq!(a, b);
    }

    #[test]
    fn failover_campaign_never_loses_an_acked_update() {
        // Every plan kills at least one chain member mid-traffic; the
        // verdict's durability audit (no acked update missing, no double
        // apply) and liveness invariant must hold on all of them.
        let cfg = CampaignConfig::failover(2025, 15);
        let a = run_campaign(&cfg);
        assert_eq!(a.runs.len(), 30);
        assert_clean(&a);
        // Not vacuous: the fabric must actually have driven failovers.
        let failovers: u64 = a.runs.iter().map(|r| r.verdict.failovers).sum();
        assert!(
            failovers >= a.runs.len() as u64,
            "every plan kills a member, so every run must fail over \
             (got {failovers} across {} runs)",
            a.runs.len()
        );
        let b = run_campaign(&cfg);
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
        for cfg in [
            CampaignConfig::lossy_recovery(2024, 6),
            CampaignConfig::failover(2025, 4),
        ] {
            let serial = campaign_with_threads(&cfg, 1);
            let parallel = campaign_with_threads(&cfg, 4);
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn window_and_apply_threads_reach_every_job_scenario() {
        // The plan kind picks the generator and the designs; the two
        // scenario knobs must land on the `Scenario` each job executes
        // (and nothing else about the job may move with them).
        for base in [
            CampaignConfig::lossy_recovery(2024, 3),
            CampaignConfig::failover(2025, 3),
        ] {
            let plain = generate_jobs(&base);
            let tuned = generate_jobs(&CampaignConfig {
                batch_window: 16,
                apply_threads: 4,
                ..base.clone()
            });
            assert_eq!(plain.len(), 3 * base.designs.len());
            assert_eq!(plain.len(), tuned.len());
            for (p, t) in plain.iter().zip(&tuned) {
                assert_eq!((t.scenario.batch_window, t.scenario.apply_threads), (16, 4));
                assert_eq!(
                    p.scenario,
                    t.scenario.with_batch_window(1).with_apply_threads(1)
                );
                assert_eq!((p.index, &p.plan), (t.index, &t.plan));
                assert!(base.designs.contains(&t.scenario.design));
            }
        }
    }

    #[test]
    fn concurrent_apply_campaign_survives_kills_inside_apply() {
        // Every plan crashes the server under loss while four apply
        // workers hold staged updates; durability, convergence, and the
        // model check must all hold, and the campaign
        // must replay bit-identically (the pool's scheduler is seeded).
        let cfg = CampaignConfig {
            apply_threads: 4,
            ..CampaignConfig::lossy_recovery(2026, 8)
        };
        let out = run_campaign(&cfg);
        assert_clean(&out);
        let redo: u64 = out.runs.iter().map(|r| r.verdict.redo_applied).sum();
        assert!(redo > 0, "no run replayed a redo log");
        let b = run_campaign(&cfg);
        assert_eq!(out.digest, b.digest, "concurrent campaign must replay");
        assert_eq!(out, b);
    }

    #[test]
    fn batched_lossy_recovery_campaign_converges() {
        // Crash-under-loss with doorbell batching live on every device: a
        // staged window dies with the device's volatile state, so the
        // convergence and durability invariants exercise the batch path's
        // crash story, not just its fast path.
        let cfg = CampaignConfig {
            batch_window: 16,
            ..CampaignConfig::lossy_recovery(2024, 8)
        };
        let out = run_campaign(&cfg);
        assert_clean(&out);
        let redo: u64 = out.runs.iter().map(|r| r.verdict.redo_applied).sum();
        assert!(redo > 0, "no run replayed a redo log");
        // Replay artifacts carry the window, so a failure would reproduce.
        let b = run_campaign(&cfg);
        assert_eq!(out.digest, b.digest, "batched campaign must replay");
    }

    #[test]
    fn batched_failover_campaign_never_loses_an_acked_update() {
        let out = run_campaign(&CampaignConfig {
            batch_window: 16,
            ..CampaignConfig::failover(2025, 6)
        });
        assert_clean(&out);
        let failovers: u64 = out.runs.iter().map(|r| r.verdict.failovers).sum();
        assert!(failovers >= out.runs.len() as u64, "vacuous campaign");
    }

    #[test]
    fn healthy_system_survives_a_small_campaign() {
        let out = run_campaign(&small());
        assert_eq!(out.runs.len(), 12);
        assert_clean(&out);
    }
}
