//! Replayable failure artifacts.
//!
//! A failing (usually shrunk) plan is only useful if someone else can run
//! it. An [`Artifact`] bundles everything a replay needs — the seed, the
//! design point, whether the deliberate dedup bug was planted, and the
//! plan itself — in the same line-oriented text format as the plan DSL, so
//! it can live in a bug report or a test fixture and be re-executed with
//! [`Artifact::replay`].

use std::fmt;
use std::str::FromStr;

use pmnet_core::system::DesignPoint;
use pmnet_sim::kinds;
use pmnet_sim::record::{self, Kinds, Reader, Writer};
use pmnet_telemetry::flight::FlightDump;

use crate::plan::FaultPlan;
use crate::runner::{run, Scenario, Verdict};

/// A self-contained, replayable description of a chaos failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Seed of the failing run.
    pub seed: u64,
    /// Design point the failure occurred on.
    pub design: DesignPoint,
    /// Whether the deliberate dedup bug was planted.
    pub dedup_bug: bool,
    /// Doorbell batching window the run used (1 = unbatched). Emitted in
    /// the text format only when not 1, so pre-batching artifacts parse
    /// and render unchanged.
    pub batch_window: u32,
    /// Apply worker threads the run used (1 = sequential). Emitted in the
    /// text format only when not 1, so pre-pool artifacts parse and
    /// render unchanged.
    pub apply_threads: u32,
    /// The (minimized) fault plan.
    pub plan: FaultPlan,
    /// Flight-recorder timeline from the failing run, when one was
    /// captured. Purely diagnostic: replay ignores it (the run rebuilds
    /// its own), but a bug report carrying the artifact shows what the
    /// protocol was doing when the invariant fired.
    pub flight: Option<FlightDump>,
}

/// The design-point words of the `design=` header line.
const DESIGN: Kinds<DesignPoint> = kinds!("design", DesignPoint {
    "pmnet-switch" => PmnetSwitch,
    "pmnet-nic" => PmnetNic,
    "client-server" => ClientServer,
    "pmnet-replicated" => PmnetReplicated { devices: "" },
    "client-server-replicated" => ClientServerReplicated { replicas: "" },
    "server-side-log" => ServerSideLog { replicas: "" },
    "client-side-log" => ClientSideLog { replicas: "" },
    "pmnet-sharded" => PmnetSharded { shards: "" },
});

impl Artifact {
    /// Bundles a failing run for replay.
    pub fn new(scenario: &Scenario, plan: FaultPlan) -> Artifact {
        Artifact {
            seed: scenario.seed,
            design: scenario.design,
            dedup_bug: scenario.plant_dedup_bug,
            batch_window: scenario.batch_window,
            apply_threads: scenario.apply_threads,
            plan,
            flight: None,
        }
    }

    /// Attaches the failing run's flight-recorder timeline (dropped when
    /// `flight` is `None` or the dump recorded nothing).
    pub fn with_flight(mut self, flight: Option<FlightDump>) -> Artifact {
        self.flight = flight.filter(|d| !d.is_empty());
        self
    }

    /// The scenario this artifact replays under (the standard chaos
    /// workload with this artifact's seed, design and bug flag).
    pub fn scenario(&self) -> Scenario {
        let mut s = Scenario::standard(self.design, self.seed);
        s.plant_dedup_bug = self.dedup_bug;
        s.batch_window = self.batch_window.max(1);
        s.apply_threads = self.apply_threads.max(1);
        s
    }

    /// Re-executes the failure from nothing but this artifact. The run is
    /// deterministic, so a genuine artifact reproduces its verdict
    /// exactly.
    pub fn replay(&self) -> Verdict {
        run(&self.scenario(), &self.plan)
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# pmnet-chaos replay artifact")?;
        let mut head = Writer::new('\n');
        head.field("seed", &self.seed);
        head.token("design", &DESIGN.put(&self.design));
        head.field("dedup_bug", &self.dedup_bug);
        head.field("batch_window", &Some(self.batch_window).filter(|&w| w != 1));
        head.field(
            "apply_threads",
            &Some(self.apply_threads).filter(|&t| t != 1),
        );
        writeln!(f, "{}", head.finish())?;
        write!(f, "{}", self.plan)?;
        if let Some(dump) = &self.flight {
            // The flight header starts with `#`, every timeline line with
            // `flight ` — both are unambiguous against the plan DSL, so
            // the section round-trips through `FromStr`.
            write!(f, "{dump}")?;
        }
        Ok(())
    }
}

impl FromStr for Artifact {
    type Err = String;

    fn from_str(text: &str) -> Result<Artifact, String> {
        let (mut head, mut plan, mut flight) = (String::new(), String::new(), String::new());
        for line in record::lines(text) {
            let section = if line.starts_with("flight ") {
                &mut flight
            } else if Reader::new(line).take("").is_some() {
                // Only plan lines carry a bare word (the fault kind).
                &mut plan
            } else {
                &mut head
            };
            *section += line;
            section.push('\n');
        }
        // The header is one record with a field per line.
        let mut r = Reader::new(&head);
        let artifact = Artifact {
            seed: r.field("seed")?,
            design: r.token("design", |s| DESIGN.get(s))?,
            dedup_bug: r.field::<Option<bool>>("dedup_bug")?.unwrap_or(false),
            batch_window: r.field::<Option<u32>>("batch_window")?.unwrap_or(1),
            apply_threads: r.field::<Option<u32>>("apply_threads")?.unwrap_or(1),
            plan: plan.parse()?,
            flight: (!flight.is_empty()).then(|| flight.parse()).transpose()?,
        };
        r.finish().map_err(|e| format!("artifact: {e}"))?;
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::generate::Intensity;

    fn sample() -> Artifact {
        let text = "seed=77 design=pmnet-switch dedup_bug=true\n\
                    at=50000 dup-burst link=backbone:0 permille=500 dur=2000000\n";
        text.parse().expect("sample artifact")
    }

    #[test]
    fn malformed_headers_are_errors() {
        for (text, want) in [
            ("design=pmnet-switch", "missing `seed=`"),
            ("seed=1", "missing `design=`"),
            ("seed=1 seed=2 design=pmnet-nic", "unexpected `seed=2`"),
            (
                "seed=1 design=pmnet-nic batch_window=-1",
                "bad `batch_window=-1`",
            ),
            ("seed=1 design=abacus", "unknown design `abacus`"),
            ("seed=1 design=pmnet-replicated", "missing value"),
            ("seed=1 design=pmnet-replicated:300", "bad value `300`"),
            ("seed=1 design=pmnet-switch:1", "unexpected `1`"),
        ] {
            let e = text.parse::<Artifact>().unwrap_err();
            assert!(e.contains(want), "{e}");
        }
    }

    /// PR 19: the flight grammar had no `batch-stage` / `batch-flush`
    /// parse arm, and a flight section rides on every failing run, so no
    /// failure at a batch window above 1 could be replayed from its text.
    #[test]
    fn a_failing_batched_runs_artifact_replays_from_its_text() {
        let outcome = run_campaign(&CampaignConfig {
            seed: 42,
            plans_per_design: 10,
            intensity: Intensity::Heavy,
            designs: vec![DesignPoint::PmnetSwitch],
            plant_dedup_bug: true,
            batch_window: 16,
            ..CampaignConfig::default()
        });
        let failure = &outcome.failures[0];
        let text = failure.to_string();
        assert!(text.contains(" batch-stage ") && text.contains(" batch-flush "));
        let parsed: Artifact = text.parse().expect("a batched failure parses");
        assert_eq!(&parsed, failure);
        let failed = outcome.runs.iter().find(|r| !r.verdict.passed).unwrap();
        assert_eq!(parsed.replay(), failed.verdict);
    }

    #[test]
    fn empty_flight_dumps_are_not_embedded() {
        let a = sample().with_flight(Some(FlightDump::default()));
        assert!(a.flight.is_none());
        assert_eq!(a, sample());
    }

    #[test]
    fn replay_reproduces_the_failure_deterministically() {
        let a = sample();
        let v1 = a.replay();
        let v2 = a.replay();
        assert_eq!(v1, v2);
        assert!(!v1.passed, "the planted dedup bug must reproduce");
        // The same plan with the bug absent passes: the artifact captures
        // the bug flag, not just the plan.
        let mut clean = a.clone();
        clean.dedup_bug = false;
        assert!(clean.replay().passed);
    }
}
