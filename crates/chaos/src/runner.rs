//! Executes a fault plan against a freshly built system and checks the
//! durability and liveness invariants.
//!
//! The runner is the bridge between the positional, value-typed
//! [`FaultPlan`] world and the node-id world of a
//! [`BuiltSystem`]: it builds the system for a [`Scenario`], translates
//! every fault event into concrete `World` operations (crash schedules,
//! link flaps, spec rewrites, PM slowdowns), interleaves them with the
//! client workload, and renders a [`Verdict`]. Everything is derived from
//! the scenario seed, so the same `(Scenario, FaultPlan)` pair always
//! produces the same verdict — the property the shrinker and the
//! campaign's determinism digest rely on.

use pmnet_core::audit;
use pmnet_core::client::ClientLib;
use pmnet_core::config::RetryConfig;
use pmnet_core::device::PmnetDevice;
use pmnet_core::server::ServerLib;
use pmnet_core::system::{clients_finished, drive, BuiltSystem, DesignPoint, UpdateExperiment};
use pmnet_core::SystemConfig;
use pmnet_net::World;
use pmnet_sim::{Dur, NodeId, Time};
use pmnet_telemetry::flight::FlightDump;
use pmnet_telemetry::Telemetry;
use pmnet_workloads::KvHandler;

use crate::plan::{Fault, FaultPlan, LinkTarget};

/// The workload and system a plan is executed against. Everything needed
/// to rebuild the run bit-identically lives here (plus the plan itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// The system design under test.
    pub design: DesignPoint,
    /// Seed for the world and the workload.
    pub seed: u64,
    /// Number of clients.
    pub clients: usize,
    /// Update requests each client issues.
    pub requests_per_client: usize,
    /// Update payload size in bytes.
    pub payload_bytes: usize,
    /// Plant the deliberate dedup bug (`ServerLib::set_dedup_disabled`)
    /// on the primary — used to prove the harness catches real
    /// protocol-level defects.
    pub plant_dedup_bug: bool,
    /// Doorbell batching window on every device (the server applies each
    /// update as it is delivered, whatever the window); 1 (the default) is
    /// the unbatched fast path, so all frozen campaign digests keep their
    /// meaning.
    pub batch_window: u32,
    /// Server apply worker threads; 1 (the default) is the sequential
    /// apply path, so all frozen campaign digests keep their meaning.
    pub apply_threads: u32,
    /// Wall-clock (simulated) budget for the run.
    pub deadline: Dur,
    /// Extra settling time after the clients finish (or the deadline
    /// passes) before invariants are checked.
    pub drain: Dur,
}

impl Scenario {
    /// The standard chaos workload: small, but with enough concurrency
    /// and requests that loss, reordering and crashes all have protocol
    /// state to interfere with.
    pub fn standard(design: DesignPoint, seed: u64) -> Scenario {
        Scenario {
            design,
            seed,
            clients: 3,
            requests_per_client: 40,
            payload_bytes: 64,
            plant_dedup_bug: false,
            batch_window: 1,
            apply_threads: 1,
            deadline: Dur::millis(200),
            drain: Dur::millis(20),
        }
    }

    /// Returns a copy running with the given doorbell batching window.
    pub fn with_batch_window(mut self, window: u32) -> Scenario {
        self.batch_window = window;
        self
    }

    /// Returns a copy running with the given apply worker count. The
    /// pool's logical scheduler is seeded from the scenario seed (or the
    /// `PMNET_APPLY_SCHED_SEED` override), so every interleaving replays.
    pub fn with_apply_threads(mut self, threads: u32) -> Scenario {
        self.apply_threads = threads;
        self
    }

    /// Builds the system this scenario describes (clients wired up, bug
    /// planted if requested) without running anything.
    pub fn build(&self) -> BuiltSystem {
        let config = SystemConfig {
            // Tight enough that a lost packet is retried well within the
            // deadline, loose enough not to fire during normal operation.
            client_timeout: Dur::millis(2),
            // Scaled to the compressed chaos timescale: the RTO can back
            // off hard under a loss burst yet still leave the retry budget
            // room to converge inside the deadline.
            retry: RetryConfig {
                rto_min: Dur::micros(500),
                rto_max: Dur::millis(8),
                retry_budget: 16,
            },
            batch: pmnet_core::config::BatchConfig::windowed(self.batch_window.max(1)),
            apply: pmnet_core::config::ApplyConfig::threaded(self.apply_threads.max(1))
                .with_sched_seed(pmnet_core::config::ApplyConfig::sched_seed_from_env(
                    self.seed,
                )),
            ..SystemConfig::default()
        };
        // The drain is the settle window the convergence check waits out:
        // one maximally backed-off retransmission must fit inside it.
        assert!(
            self.drain > config.retry.rto_max,
            "drain ({}) must exceed retry.rto_max ({})",
            self.drain,
            config.retry.rto_max
        );
        let mut sys = UpdateExperiment::new(self.design, config)
            .clients(self.clients)
            .requests_per_client(self.requests_per_client)
            .payload_bytes(self.payload_bytes)
            .builder()
            .handler_factory(|| Box::new(KvHandler::new("btree", 5)))
            .build(self.seed);
        sys.world
            .node_mut::<ServerLib>(sys.server)
            .set_dedup_disabled(self.plant_dedup_bug);
        sys
    }
}

/// The outcome of one `(Scenario, FaultPlan)` execution. `PartialEq` over
/// verdicts is exact, so campaign determinism can be asserted directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Whether every invariant held.
    pub passed: bool,
    /// Human-readable invariant violations (empty iff `passed`).
    pub violations: Vec<String>,
    /// Clients that finished their workload.
    pub finished_clients: usize,
    /// Acknowledged updates checked against the audit log.
    pub acked: usize,
    /// Updates the server applied (including redo).
    pub applied: u64,
    /// Redo (recovery replay) applies.
    pub redo_applied: u64,
    /// Duplicates the server's dedup filter absorbed.
    pub duplicates_dropped: u64,
    /// Corrupt packets dropped by verification, summed over the server
    /// and every PMNet device.
    pub corrupt_dropped: u64,
    /// Client retransmission rounds.
    pub client_retries: u64,
    /// Updates abandoned after exhausting the retry budget.
    pub failed_updates: u64,
    /// Device log entries still staged after the drain window.
    pub stranded_log_entries: u64,
    /// Shard failovers the fabric coordinator drove (0 outside sharded
    /// designs). Deliberately excluded from
    /// [`digest_line`](Self::digest_line) so frozen campaign digests over the
    /// classic designs stay comparable across revisions.
    pub failovers: u64,
    /// Simulated end time of the run, in nanoseconds.
    pub end_ns: u64,
    /// Flight-recorder timeline, captured only when an invariant fired
    /// (`None` on passing runs). Deterministic like everything else in
    /// the verdict, but deliberately excluded from
    /// [`digest_line`](Self::digest_line) so campaign digests are comparable
    /// across telemetry revisions.
    pub flight: Option<FlightDump>,
}

impl Verdict {
    /// A stable one-line rendering used for campaign digests and logs.
    pub fn digest_line(&self) -> String {
        format!(
            "passed={} violations={} finished={} acked={} applied={} redo={} dups={} corrupt={} retries={} failed={} stranded={} end={}",
            self.passed,
            self.violations.len(),
            self.finished_clients,
            self.acked,
            self.applied,
            self.redo_applied,
            self.duplicates_dropped,
            self.corrupt_dropped,
            self.client_retries,
            self.failed_updates,
            self.stranded_log_entries,
            self.end_ns,
        )
    }
}

/// One setting of a link a burst turns on and then back off.
#[derive(Debug, Clone, Copy)]
enum LinkSetting {
    Up(bool),
    DropProb(f64),
    DuplicateProb(f64),
    Reordering(f64, Dur),
    CorruptProb(f64),
}

/// Half of a burst, lowered onto concrete world objects: the run applies
/// it when the clock passes its instant.
#[derive(Debug, Clone, Copy)]
enum Act {
    Link(NodeId, NodeId, LinkSetting),
    PmSlowdown(NodeId, u32),
}

/// A fault in the built system's own terms. `None` is a node or link this
/// topology lacks: a plan written for a bigger system degrades to fewer
/// faults, never a panic.
enum Lowered {
    /// Scheduled on the world directly, with its restore if it has one.
    Crash(Option<NodeId>, Option<Dur>),
    /// Applied at the fault's instant and reverted `Dur` later.
    Burst(Option<[Act; 2]>, Dur),
}

fn resolve_link(sys: &BuiltSystem, link: LinkTarget) -> Option<(NodeId, NodeId)> {
    match link {
        LinkTarget::Access(i) => sys.clients.get(i).map(|&c| (c, sys.merge)),
        LinkTarget::Backbone(i) => {
            if i + 1 < sys.path.len() {
                Some((sys.path[i], sys.path[i + 1]))
            } else {
                None
            }
        }
    }
}

/// One row per fault kind: what it crashes, or the setting it turns on,
/// the one that reverts it and for how long.
fn lower(sys: &BuiltSystem, fault: Fault) -> Lowered {
    use Fault::*;
    use LinkSetting::*;
    use Lowered::{Burst, Crash};
    let dev = |i: usize| sys.devices.get(i).copied();
    let link =
        |l, on, off| resolve_link(sys, l).map(|(a, b)| [Act::Link(a, b, on), Act::Link(a, b, off)]);
    let p = |permille: u32| f64::from(permille) / 1000.0;
    match fault {
        ServerCrash { downtime } => Crash(Some(sys.server), downtime),
        DeviceCrash { device, downtime } => Crash(dev(device), downtime),
        DeviceFail { device } => Crash(dev(device), None),
        DeviceReplace { device, downtime } => Crash(dev(device), Some(downtime)),
        ClientCrash { client, downtime } => Crash(sys.clients.get(client).copied(), downtime),
        LinkFlap { link: l, down_for } => Burst(link(l, Up(false), Up(true)), down_for),
        DropBurst {
            link: l,
            permille,
            dur,
        } => Burst(link(l, DropProb(p(permille)), DropProb(0.0)), dur),
        DuplicateBurst {
            link: l,
            permille,
            dur,
        } => Burst(link(l, DuplicateProb(p(permille)), DuplicateProb(0.0)), dur),
        ReorderBurst {
            link: l,
            permille,
            extra,
            dur,
        } => Burst(
            link(
                l,
                Reordering(p(permille), extra),
                Reordering(0.0, Dur::ZERO),
            ),
            dur,
        ),
        CorruptBurst {
            link: l,
            permille,
            dur,
        } => Burst(link(l, CorruptProb(p(permille)), CorruptProb(0.0)), dur),
        PmSpike {
            device,
            factor,
            dur,
        } => {
            let on_off = |d| [Act::PmSlowdown(d, factor.max(1)), Act::PmSlowdown(d, 1)];
            Burst(dev(device).map(on_off), dur)
        }
    }
}

/// Lowers the plan onto the built system: crashes are scheduled directly
/// on the world; link and PM impairments become a time-sorted action list
/// the run applies as the clock passes them.
fn lower_plan(sys: &mut BuiltSystem, plan: &FaultPlan) -> Vec<(Time, Act)> {
    let mut acts: Vec<(Time, Act)> = Vec::new();
    for e in &plan.events {
        let at = Time::ZERO + e.at;
        match lower(sys, e.fault) {
            Lowered::Crash(Some(node), downtime) => sys.world.schedule_crash(node, at, downtime),
            Lowered::Burst(Some([on, off]), dur) => acts.extend([(at, on), (at + dur, off)]),
            Lowered::Crash(None, _) | Lowered::Burst(None, _) => {}
        }
    }
    // Stable by time: simultaneous apply/revert pairs keep plan order.
    acts.sort_by_key(|&(t, _)| t);
    acts
}

fn apply_act(world: &mut World, act: Act) {
    use LinkSetting::*;
    match act {
        Act::Link(a, b, Up(up)) => world.set_link_up(a, b, up),
        Act::Link(a, b, DropProb(p)) => world.update_link_spec(a, b, move |s| s.with_drop_prob(p)),
        Act::Link(a, b, DuplicateProb(p)) => {
            world.update_link_spec(a, b, move |s| s.with_duplicate_prob(p));
        }
        Act::Link(a, b, Reordering(p, extra)) => {
            world.update_link_spec(a, b, move |s| s.with_reordering(p, extra));
        }
        Act::Link(a, b, CorruptProb(p)) => {
            world.update_link_spec(a, b, move |s| s.with_corrupt_prob(p));
        }
        Act::PmSlowdown(dev, factor) => world.node_mut::<PmnetDevice>(dev).set_pm_slowdown(factor),
    }
}

/// Runs `plan` against a fresh system built for `scenario` and checks the
/// invariants:
///
/// 1. **Durability** — `audit::verify`: per-session apply order, no
///    duplicate application, and no acknowledged update missing from the
///    application log (across crashes).
/// 2. **Liveness** — if the plan is transient (every fault heals), every
///    client must finish its workload before the deadline; a wedged
///    protocol shows up here instead of hanging the harness.
/// 3. **Convergence** — under a transient plan, once the drain window
///    passes every device log has emptied (each staged entry was either
///    invalidated by a fast-path server-ACK or confirmed by a redo ack)
///    and the recovery barrier is closed (every registered device reported
///    `RecoveryDone` after the last server restart).
/// 4. **Model** — the recorded history is durably linearizable
///    (`pmnet_model::check`; `PMNET_MODEL_DUMP=1` prints a divergence's
///    replayable artifact to stderr).
pub fn run(scenario: &Scenario, plan: &FaultPlan) -> Verdict {
    let mut sys = scenario.build();
    // Every run carries one checking handle. It records a client/server/
    // device event history, submitted to the pmnet-model checker as a
    // fourth invariant, and bounded per-node flight rings of recent
    // protocol events, dumped into the verdict (and any failure artifact)
    // when an invariant fires. Telemetry hooks are pure observation — no
    // RNG draws, no scheduled events — so attaching the handle changes no
    // timeline and no digest.
    let telemetry = Telemetry::checking();
    sys.attach_telemetry(&telemetry);
    let acts = lower_plan(&mut sys, plan);

    sys.start();
    let end = Time::ZERO + scenario.deadline;
    // Run to each fault instant and apply it there; the slices — and with
    // them the chance to stop early — begin where the last one landed. A
    // plan that outlasts the deadline just runs to the deadline.
    let mut cursor = sys.world.now();
    for &(t, act) in &acts {
        cursor = t.min(end);
        sys.world.run_until(cursor);
        if t > end {
            break;
        }
        apply_act(&mut sys.world, act);
    }
    drive(&mut sys.world, cursor, end, |w| {
        clients_finished(w, &sys.clients)
    });
    // Settle: let trailing ACKs, recovery replay and GC traffic finish.
    sys.world.run_for(scenario.drain);

    let mut violations = Vec::new();
    let acked = sys.acked_updates();
    let stranded = sys.stranded_log_entries();
    let retry_counters = sys.client_retry_counters();
    let server = sys.world.node::<ServerLib>(sys.server);
    if plan.is_transient() {
        if stranded > 0 {
            violations.push(format!(
                "convergence: {stranded} device log entries stranded after \
                 the drain window"
            ));
        }
        let pending = server.recovery_pending();
        if pending > 0 {
            violations.push(format!(
                "convergence: recovery barrier still open, {pending} \
                 devices never reported RecoveryDone"
            ));
        }
    }
    let (applied, redo_applied) = match audit::verify(server.audit_log(), &acked) {
        Ok(report) => (report.applied as u64, report.redo as u64),
        Err(vs) => {
            for v in &vs {
                violations.push(format!("audit: {v}"));
            }
            let redo = server.counters().redo_applied;
            (server.counters().updates_applied, redo)
        }
    };
    if let Err(d) = pmnet_model::check_system(&sys.world, sys.server, &telemetry) {
        if std::env::var_os("PMNET_MODEL_DUMP").is_some() {
            eprintln!("{}", d.artifact);
        }
        violations.push(format!("model: {d}"));
    }

    let mut finished_clients = 0;
    for (i, &c) in sys.clients.iter().enumerate() {
        let client = sys.world.node::<ClientLib>(c);
        if client.is_finished() {
            finished_clients += 1;
        } else if plan.is_transient() {
            violations.push(format!(
                "liveness: client {i} finished only {}/{} requests under a \
                 transient plan",
                client.records().len(),
                scenario.requests_per_client,
            ));
        }
    }

    let counters = server.counters();
    let failovers = server
        .fabric_shard_counters()
        .iter()
        .map(|c| c.failovers)
        .sum();
    let mut corrupt_dropped = counters.corrupt_dropped;
    for &d in &sys.devices {
        corrupt_dropped += sys.world.node::<PmnetDevice>(d).counters().corrupt_dropped;
    }
    let client_retries = sys
        .clients
        .iter()
        .map(|&c| {
            let client = sys.world.node::<ClientLib>(c);
            client
                .records()
                .iter()
                .map(|r| u64::from(r.retries))
                .sum::<u64>()
        })
        .sum();

    // Capture the flight timeline only for failing runs: passing verdicts
    // stay lean and `PartialEq` over them keeps asserting what it always
    // did.
    let flight = (!violations.is_empty()).then(|| telemetry.flight_dump());

    Verdict {
        passed: violations.is_empty(),
        violations,
        finished_clients,
        acked: acked.len(),
        applied,
        redo_applied,
        duplicates_dropped: counters.duplicates_dropped,
        corrupt_dropped,
        client_retries,
        failed_updates: retry_counters.failed,
        stranded_log_entries: stranded as u64,
        failovers,
        end_ns: sys.world.now().as_nanos(),
        flight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use proptest::prelude::*;

    #[test]
    fn fault_free_plan_passes_everywhere() {
        for design in [
            DesignPoint::PmnetSwitch,
            DesignPoint::PmnetNic,
            DesignPoint::ClientServer,
        ] {
            let v = run(&Scenario::standard(design, 11), &FaultPlan::new());
            assert!(v.passed, "{design:?}: {:?}", v.violations);
            assert_eq!(v.finished_clients, 3, "{design:?}");
            assert_eq!(v.acked, 120, "{design:?}");
        }
    }

    #[test]
    fn same_inputs_give_identical_verdicts() {
        let scenario = Scenario::standard(DesignPoint::PmnetSwitch, 21);
        let mut plan = FaultPlan::new();
        plan.push(
            Dur::micros(200),
            Fault::DropBurst {
                link: LinkTarget::Backbone(1),
                permille: 300,
                dur: Dur::micros(300),
            },
        );
        plan.push(
            Dur::millis(1),
            Fault::ServerCrash {
                downtime: Some(Dur::millis(1)),
            },
        );
        let a = run(&scenario, &plan);
        let b = run(&scenario, &plan);
        assert_eq!(a, b);
        assert!(a.passed, "{:?}", a.violations);
    }

    #[test]
    fn server_crash_forces_redo_replay() {
        let mut plan = FaultPlan::new();
        plan.push(
            Dur::micros(400),
            Fault::ServerCrash {
                downtime: Some(Dur::millis(1)),
            },
        );
        let v = run(&Scenario::standard(DesignPoint::PmnetSwitch, 31), &plan);
        assert!(v.passed, "{:?}", v.violations);
        assert!(v.redo_applied > 0, "recovery must replay from device PM");
    }

    #[test]
    fn corrupt_burst_is_detected_and_repaired() {
        let mut plan = FaultPlan::new();
        plan.push(
            Dur::micros(100),
            Fault::CorruptBurst {
                link: LinkTarget::Backbone(0),
                permille: 200,
                dur: Dur::micros(400),
            },
        );
        let v = run(&Scenario::standard(DesignPoint::PmnetSwitch, 41), &plan);
        assert!(v.passed, "{:?}", v.violations);
        assert!(
            v.corrupt_dropped > 0,
            "corruption must be caught, not absorbed"
        );
    }

    #[test]
    fn client_crash_with_restart_stays_live() {
        let mut plan = FaultPlan::new();
        plan.push(
            Dur::micros(300),
            Fault::ClientCrash {
                client: 1,
                downtime: Some(Dur::millis(1)),
            },
        );
        let v = run(&Scenario::standard(DesignPoint::PmnetSwitch, 51), &plan);
        assert!(v.passed, "{:?}", v.violations);
        assert_eq!(v.finished_clients, 3);
    }

    #[test]
    fn out_of_range_targets_are_ignored() {
        let mut plan = FaultPlan::new();
        plan.push(
            Dur::micros(100),
            Fault::DeviceCrash {
                device: 7,
                downtime: Some(Dur::micros(500)),
            },
        );
        plan.push(
            Dur::micros(150),
            Fault::LinkFlap {
                link: LinkTarget::Backbone(99),
                down_for: Dur::micros(100),
            },
        );
        let v = run(&Scenario::standard(DesignPoint::ClientServer, 61), &plan);
        assert!(v.passed, "{:?}", v.violations);
    }

    #[test]
    fn loss_over_a_crash_window_still_converges() {
        // A drop burst blankets the server crash and the recovery window:
        // RecoveryPolls, redo resends and redo acks are all exposed to
        // loss, yet retransmission plus the recovery barrier must drain
        // every device log and close the barrier before the drain passes.
        let mut plan = FaultPlan::new();
        plan.push(
            Dur::micros(300),
            Fault::DropBurst {
                link: LinkTarget::Backbone(1),
                permille: 400,
                dur: Dur::millis(4),
            },
        );
        plan.push(
            Dur::micros(500),
            Fault::ServerCrash {
                downtime: Some(Dur::millis(1)),
            },
        );
        let v = run(&Scenario::standard(DesignPoint::PmnetSwitch, 81), &plan);
        assert!(v.passed, "{:?}", v.violations);
        assert_eq!(v.stranded_log_entries, 0, "device logs must drain");
        assert!(v.redo_applied > 0, "recovery must replay from device PM");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Property: however a chain-member kill interleaves with client
        /// retries (forced by a loss burst), no update sequence number is
        /// ever applied twice and no acked update is lost — the promoted
        /// backup's replay and the client's retransmissions must collapse
        /// into exactly-once application.
        #[test]
        fn failover_retry_interleavings_never_double_apply(
            seed in 0u64..10_000,
            shard in 0usize..2,
            member in 0usize..2,
            kill_at_us in 50u64..2_000,
            replace in any::<bool>(),
            lossy in any::<bool>(),
            loss_at_us in 5u64..2_000,
            loss_permille in 100u64..400,
            loss_dur_us in 100u64..800,
        ) {
            let mut plan = FaultPlan::new();
            let device = 2 * shard + member;
            let fault = if replace {
                Fault::DeviceReplace { device, downtime: Dur::millis(2) }
            } else {
                Fault::DeviceFail { device }
            };
            plan.push(Dur::micros(kill_at_us), fault);
            if lossy {
                plan.push(
                    Dur::micros(loss_at_us),
                    Fault::DropBurst {
                        link: LinkTarget::Backbone(1),
                        permille: loss_permille as u32,
                        dur: Dur::micros(loss_dur_us),
                    },
                );
            }
            let scenario =
                Scenario::standard(DesignPoint::PmnetSharded { shards: 2 }, seed);
            let v = run(&scenario, &plan);
            prop_assert!(
                !v.violations.iter().any(|s| s.contains("duplicate apply")),
                "double apply under {plan}: {:?}",
                v.violations
            );
            prop_assert!(v.passed, "plan {plan} violated: {:?}", v.violations);
        }
    }

    #[test]
    fn planted_dedup_bug_is_caught_under_duplication() {
        let mut plan = FaultPlan::new();
        plan.push(
            Dur::micros(50),
            Fault::DuplicateBurst {
                link: LinkTarget::Backbone(0),
                permille: 500,
                dur: Dur::millis(2),
            },
        );
        let mut scenario = Scenario::standard(DesignPoint::PmnetSwitch, 71);
        scenario.plant_dedup_bug = true;
        let v = run(&scenario, &plan);
        assert!(!v.passed, "the planted bug must fail the audit");
        assert!(
            v.violations.iter().any(|s| s.contains("audit:")),
            "{:?}",
            v.violations
        );
        // The control run without the bug passes the same plan.
        let control = run(&Scenario::standard(DesignPoint::PmnetSwitch, 71), &plan);
        assert!(control.passed, "{:?}", control.violations);
    }
}
