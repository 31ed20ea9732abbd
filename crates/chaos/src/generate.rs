//! Seeded random fault-plan generation.
//!
//! The generator draws from [`pmnet_sim::SimRng`] only, so a campaign seed
//! fully determines every plan it emits. It generates **transient** faults
//! exclusively — crashes always restart, bursts always end — because the
//! runner's liveness invariant (every client eventually finishes) is only
//! checkable when the plan lets the system heal.

use pmnet_core::system::BuiltSystem;
use pmnet_sim::{Dur, SimRng};

use crate::plan::{Fault, FaultPlan, LinkTarget};

/// How hard the generator leans on the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intensity {
    /// One or two mild faults.
    Light,
    /// A few overlapping faults at moderate probabilities.
    Medium,
    /// Many overlapping faults, high impairment probabilities, repeated
    /// crashes.
    Heavy,
}

impl Intensity {
    fn event_count(self, rng: &mut SimRng) -> usize {
        let (lo, hi) = match self {
            Intensity::Light => (1, 2),
            Intensity::Medium => (2, 5),
            Intensity::Heavy => (5, 10),
        };
        lo + rng.index(hi - lo + 1)
    }

    /// Upper bound for impairment probabilities, in per-mille.
    fn max_permille(self) -> u32 {
        match self {
            Intensity::Light => 100,
            Intensity::Medium => 300,
            Intensity::Heavy => 600,
        }
    }
}

/// What the generator may aim at, read off a built system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of clients (access links).
    pub clients: usize,
    /// Number of PMNet devices on the path.
    pub devices: usize,
    /// Number of backbone hops (merge switch to server, inclusive).
    pub backbone_links: usize,
    /// Number of shard chains on a sharded-fabric design (0 otherwise).
    /// The device list interleaves chains: shard `i`'s primary is device
    /// `2i`, its backup `2i + 1`.
    pub shards: usize,
}

impl Topology {
    /// The targets `sys` offers. (The runner tolerates out-of-range
    /// targets by ignoring them, so a plan generated for another system
    /// degrades to a no-op fault, not a panic.)
    pub fn of(sys: &BuiltSystem) -> Topology {
        Topology {
            clients: sys.clients.len(),
            devices: sys.devices.len(),
            // On a sharded fabric the chains hang off both switches;
            // `path` carries only the direct spine.
            backbone_links: sys.path.len() - 1,
            shards: sys.chains(),
        }
    }
}

fn pick_link(rng: &mut SimRng, topo: &Topology) -> LinkTarget {
    // Backbone links carry every client's traffic, so weight them higher.
    if topo.clients > 0 && rng.chance(0.35) {
        LinkTarget::Access(rng.index(topo.clients))
    } else {
        LinkTarget::Backbone(rng.index(topo.backbone_links))
    }
}

fn pick_dur(rng: &mut SimRng, lo_us: u64, hi_us: u64) -> Dur {
    Dur::micros(rng.uniform_u64(lo_us..hi_us + 1))
}

fn pick_permille(rng: &mut SimRng, intensity: Intensity) -> u32 {
    // At least 5% so the fault is not a statistical no-op.
    50 + rng.uniform_u64(0..u64::from(intensity.max_permille() - 50) + 1) as u32
}

/// Generates one transient fault plan. Fault times land in the first 60%
/// of `horizon` so the system always has healing room before the runner's
/// deadline; burst and downtime windows are bounded well below `horizon`.
pub fn generate_plan(
    rng: &mut SimRng,
    topo: &Topology,
    intensity: Intensity,
    horizon: Dur,
) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let n = intensity.event_count(rng);
    let horizon_us = (horizon.as_nanos() / 1000).max(100);
    let latest_us = horizon_us * 6 / 10;
    // Crash downtimes: long enough to matter, short enough to heal.
    let crash_down = |rng: &mut SimRng| Some(pick_dur(rng, 300, 2_000));
    for _ in 0..n {
        let at = Dur::micros(5 + rng.uniform_u64(0..latest_us));
        // Nine fault kinds; device-targeted ones only when devices exist.
        let kinds = if topo.devices > 0 { 9 } else { 6 };
        let fault = match rng.index(kinds) {
            0 => Fault::ServerCrash {
                downtime: crash_down(rng),
            },
            1 => Fault::ClientCrash {
                client: rng.index(topo.clients),
                downtime: crash_down(rng),
            },
            2 => Fault::LinkFlap {
                link: pick_link(rng, topo),
                down_for: pick_dur(rng, 50, 400),
            },
            3 => Fault::DropBurst {
                link: pick_link(rng, topo),
                permille: pick_permille(rng, intensity),
                dur: pick_dur(rng, 50, 500),
            },
            4 => Fault::DuplicateBurst {
                link: pick_link(rng, topo),
                permille: pick_permille(rng, intensity),
                dur: pick_dur(rng, 50, 500),
            },
            5 => Fault::ReorderBurst {
                link: pick_link(rng, topo),
                permille: pick_permille(rng, intensity),
                extra: pick_dur(rng, 20, 120),
                dur: pick_dur(rng, 50, 500),
            },
            6 => Fault::CorruptBurst {
                link: pick_link(rng, topo),
                // Corruption is aggressive: cap lower so verification has
                // clean copies to work with inside the burst.
                permille: pick_permille(rng, intensity).min(250),
                dur: pick_dur(rng, 50, 300),
            },
            7 => Fault::DeviceCrash {
                device: rng.index(topo.devices),
                downtime: crash_down(rng),
            },
            _ => Fault::PmSpike {
                device: rng.index(topo.devices),
                factor: 2 + rng.uniform_u64(0..49) as u32,
                dur: pick_dur(rng, 100, 800),
            },
        };
        plan.push(at, fault);
    }
    plan
}

/// Generates a transient plan aimed specifically at the recovery
/// handshake: a server crash whose downtime and recovery window are
/// blanketed by loss bursts on the backbone, so `RecoveryPoll`s, redo
/// resends, redo acks and `RecoveryDone` notifications are all exposed
/// to loss. Optionally a second, earlier burst disturbs the workload so
/// the device log holds entries when the crash lands.
pub fn generate_lossy_recovery_plan(rng: &mut SimRng, topo: &Topology, horizon: Dur) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let horizon_us = (horizon.as_nanos() / 1000).max(2_000);
    // The crash lands in the first half so downtime + recovery + healing
    // all fit before the runner's deadline.
    let crash_at_us = 200 + rng.uniform_u64(0..horizon_us / 2);
    let downtime = pick_dur(rng, 500, 1_500);
    plan.push(
        Dur::micros(crash_at_us),
        Fault::ServerCrash {
            downtime: Some(downtime),
        },
    );
    // One to three loss bursts overlapping the crash/recovery window:
    // they start before or right at the restore instant and extend into
    // the poll/resend exchange.
    let bursts = 1 + rng.index(3);
    let restore_us = crash_at_us + downtime.as_nanos() / 1000;
    for _ in 0..bursts {
        let start = crash_at_us + rng.uniform_u64(0..(restore_us - crash_at_us) + 300);
        plan.push(
            Dur::micros(start),
            Fault::DropBurst {
                link: LinkTarget::Backbone(rng.index(topo.backbone_links)),
                permille: 150 + rng.uniform_u64(0..350) as u32,
                dur: pick_dur(rng, 200, 1_200),
            },
        );
    }
    // Half the plans also stress the pre-crash workload so the log is
    // non-trivially populated when power fails.
    if rng.chance(0.5) {
        plan.push(
            Dur::micros(5 + rng.uniform_u64(0..crash_at_us.max(6) - 5)),
            Fault::DropBurst {
                link: pick_link(rng, topo),
                permille: pick_permille(rng, Intensity::Medium),
                dur: pick_dur(rng, 100, 500),
            },
        );
    }
    plan
}

/// Generates a transient plan aimed at chained-replica failover on a
/// sharded fabric (`topo.shards >= 1` required): at least one shard loses
/// a chain member mid-traffic — fail-stopped for good ([`Fault::DeviceFail`])
/// or replaced after a downtime long past the fencing decision
/// ([`Fault::DeviceReplace`], exercising the zombie re-fence path). At
/// most one member per shard is killed, so every chain keeps a survivor
/// to promote. Some plans also crash the server near the kill so the
/// failover's log replay lands inside an open recovery barrier, and some
/// blanket the window with a backbone loss burst.
pub fn generate_failover_plan(rng: &mut SimRng, topo: &Topology, horizon: Dur) -> FaultPlan {
    assert!(topo.shards >= 1, "failover plans need a sharded topology");
    let mut plan = FaultPlan::new();
    let horizon_us = (horizon.as_nanos() / 1000).max(2_000);
    let latest_us = horizon_us * 6 / 10;
    // Kill a member in each shard independently; re-roll until at least
    // one shard is hit so no plan is a vacuous control run.
    let mut hit = vec![false; topo.shards];
    while !hit.iter().any(|&h| h) {
        for h in &mut hit {
            *h = rng.chance(0.6);
        }
    }
    for (shard, &h) in hit.iter().enumerate() {
        if !h {
            continue;
        }
        // Primaries hold the interesting state (withheld acks, chain
        // pendings), so aim at them more often than backups.
        let member = if rng.chance(0.7) { 0 } else { 1 };
        let device = 2 * shard + member;
        let at = Dur::micros(100 + rng.uniform_u64(0..latest_us));
        let fault = if rng.chance(0.5) {
            Fault::DeviceFail { device }
        } else {
            // Long past detection (heartbeat timeout is microseconds), so
            // the replacement always comes back as a fenced zombie.
            Fault::DeviceReplace {
                device,
                downtime: pick_dur(rng, 1_000, 3_000),
            }
        };
        plan.push(at, fault);
    }
    // A third of the plans crash the server right around the first kill:
    // the fence/promote/re-home sequence then races an open recovery
    // barrier and the staged-log replay.
    if rng.chance(0.33) {
        let first_kill_us = plan.events[0].at.as_nanos() / 1000;
        let at = first_kill_us.saturating_sub(100) + rng.uniform_u64(0..400);
        plan.push(
            Dur::micros(at.max(5)),
            Fault::ServerCrash {
                downtime: Some(pick_dur(rng, 500, 1_500)),
            },
        );
    }
    // And some add loss on the spine, so heartbeats, fences, promotes and
    // steering updates are themselves exposed to drops.
    if rng.chance(0.4) {
        plan.push(
            Dur::micros(5 + rng.uniform_u64(0..latest_us)),
            Fault::DropBurst {
                link: LinkTarget::Backbone(rng.index(topo.backbone_links)),
                permille: 100 + rng.uniform_u64(0..250) as u32,
                dur: pick_dur(rng, 200, 1_000),
            },
        );
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scenario;
    use pmnet_core::system::DesignPoint;

    fn topo(design: DesignPoint) -> Topology {
        Topology::of(&Scenario::standard(design, 0).build())
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let topo = topo(DesignPoint::PmnetSwitch);
        let a = generate_plan(
            &mut SimRng::seed(9),
            &topo,
            Intensity::Medium,
            Dur::millis(8),
        );
        let b = generate_plan(
            &mut SimRng::seed(9),
            &topo,
            Intensity::Medium,
            Dur::millis(8),
        );
        assert_eq!(a, b);
        let c = generate_plan(
            &mut SimRng::seed(10),
            &topo,
            Intensity::Medium,
            Dur::millis(8),
        );
        assert_ne!(a, c, "different seeds should differ (w.h.p.)");
    }

    #[test]
    fn generated_plans_are_transient_and_in_horizon() {
        let topo = topo(DesignPoint::PmnetNic);
        let mut rng = SimRng::seed(3);
        for _ in 0..200 {
            let p = generate_plan(&mut rng, &topo, Intensity::Heavy, Dur::millis(8));
            assert!(!p.is_empty());
            assert!(p.is_transient(), "generator must not emit permanent faults");
            for e in &p.events {
                assert!(e.at <= Dur::micros(5 + 8000 * 6 / 10));
            }
        }
    }

    #[test]
    fn no_device_faults_without_devices() {
        let topo = topo(DesignPoint::ClientServer);
        assert_eq!(topo.devices, 0);
        let mut rng = SimRng::seed(4);
        for _ in 0..200 {
            let p = generate_plan(&mut rng, &topo, Intensity::Heavy, Dur::millis(8));
            for e in &p.events {
                assert!(
                    !matches!(e.fault, Fault::DeviceCrash { .. } | Fault::PmSpike { .. }),
                    "device fault generated for a deviceless design: {e}"
                );
            }
        }
    }

    #[test]
    fn intensity_scales_event_count() {
        let topo = topo(DesignPoint::PmnetSwitch);
        let mut rng = SimRng::seed(5);
        for _ in 0..100 {
            let l = generate_plan(&mut rng, &topo, Intensity::Light, Dur::millis(8)).len();
            assert!((1..=2).contains(&l));
            let h = generate_plan(&mut rng, &topo, Intensity::Heavy, Dur::millis(8)).len();
            assert!((5..=10).contains(&h));
        }
    }

    /// The targets are the built system's own, on every design point:
    /// devices on the path (two per chain on a fabric), the spine from the
    /// merge switch to the server, and the chain count failover plans
    /// index by.
    #[test]
    fn topology_is_read_off_the_built_system_on_every_design_point() {
        let sharded = |shards| (DesignPoint::PmnetSharded { shards }, 2 * shards, 2, shards);
        for (design, devices, backbone_links, shards) in [
            (DesignPoint::PmnetSwitch, 1, 2, 0),
            (DesignPoint::PmnetNic, 1, 3, 0),
            (DesignPoint::ClientServer, 0, 2, 0),
            (DesignPoint::PmnetReplicated { devices: 3 }, 3, 4, 0),
            (DesignPoint::ClientServerReplicated { replicas: 3 }, 0, 2, 0),
            (DesignPoint::ServerSideLog { replicas: 3 }, 0, 2, 0),
            (DesignPoint::ClientSideLog { replicas: 3 }, 0, 2, 0),
            sharded(1),
            sharded(2),
            sharded(3),
        ] {
            let sys = Scenario::standard(design, 0).build();
            let expect = Topology {
                clients: 3,
                devices: usize::from(devices),
                backbone_links,
                shards: usize::from(shards),
            };
            assert_eq!(Topology::of(&sys), expect, "{design:?}");
            assert_eq!(expect.devices, sys.devices.len(), "{design:?}");
            assert_eq!(expect.backbone_links, sys.path.len() - 1, "{design:?}");
            assert_eq!(expect.shards, sys.chains(), "{design:?}");
        }
    }
}
