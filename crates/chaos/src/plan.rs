//! The fault-plan DSL: a serializable schedule of timed fault events.
//!
//! A [`FaultPlan`] is the unit the whole harness operates on — the
//! generator emits plans, the runner executes them against a built system,
//! the shrinker deletes events from them, and the replay artifact stores
//! them as text. Keeping the plan a plain value (no closures, no node ids)
//! is what makes a failure replayable from nothing but a seed and a file.
//!
//! Plans are serialized to a line-oriented `key=value` text format on
//! [`pmnet_sim::record`] (the build environment has no serde); durations
//! are nanoseconds and probabilities are per-mille integers so round-trips
//! are exact.

use std::fmt;
use std::str::FromStr;

use pmnet_sim::record::{self, Kinds, Reader, Token, Value, Writer};
use pmnet_sim::{kinds, Dur};

/// A link on the standard topologies, named positionally so a plan stays
/// meaningful across designs and across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTarget {
    /// The access link of client `i` (client `i` to the merge switch).
    Access(usize),
    /// Backbone hop `i`: the link between `path[i]` and `path[i + 1]` of
    /// the built system's merge-to-server path.
    Backbone(usize),
}

const LINK: Kinds<LinkTarget> = kinds!("link", LinkTarget {
    "access" => Access(index),
    "backbone" => Backbone(index),
});

/// One injectable fault. Durations are relative to the event's start time;
/// probabilities are per-mille (`0..=1000`) so plans serialize exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Power-fail the server; `downtime: None` means it never restarts.
    ServerCrash {
        /// Time until restart, if any.
        downtime: Option<Dur>,
    },
    /// Power-fail PMNet device `device` (index into the built system's
    /// device list).
    DeviceCrash {
        /// Device index.
        device: usize,
        /// Time until restart, if any.
        downtime: Option<Dur>,
    },
    /// Fail-stop PMNet device `device` permanently. Unlike a permanent
    /// [`Fault::DeviceCrash`], this counts as transient: it is aimed at
    /// sharded-fabric designs whose chained backup takes over (fence,
    /// promote, re-home), so the system heals even though the device
    /// never returns. On a design without a backup chain member the
    /// liveness invariant will (correctly) flag the resulting wedge.
    DeviceFail {
        /// Device index.
        device: usize,
    },
    /// Fail-stop PMNet device `device`, then power a replacement back up
    /// at the same address after `downtime`. On a sharded fabric the
    /// failover has already re-homed the shard by then, so the returning
    /// device is a zombie: its first heartbeat must be answered with a
    /// re-fence, never a re-admission.
    DeviceReplace {
        /// Device index.
        device: usize,
        /// Time until the replacement powers up.
        downtime: Dur,
    },
    /// Crash client `client`; on restart it opens a fresh session and
    /// reissues its remaining requests.
    ClientCrash {
        /// Client index.
        client: usize,
        /// Time until restart, if any.
        downtime: Option<Dur>,
    },
    /// Administratively down a link, restoring it after `down_for`.
    LinkFlap {
        /// The link to flap.
        link: LinkTarget,
        /// How long it stays down.
        down_for: Dur,
    },
    /// Random packet loss on a link for a bounded window.
    DropBurst {
        /// The impaired link.
        link: LinkTarget,
        /// Drop probability in per-mille.
        permille: u32,
        /// Burst duration.
        dur: Dur,
    },
    /// Random packet duplication on a link for a bounded window.
    DuplicateBurst {
        /// The impaired link.
        link: LinkTarget,
        /// Duplication probability in per-mille.
        permille: u32,
        /// Burst duration.
        dur: Dur,
    },
    /// Random extra delay (reordering) on a link for a bounded window.
    ReorderBurst {
        /// The impaired link.
        link: LinkTarget,
        /// Reorder probability in per-mille.
        permille: u32,
        /// Maximum extra delay of a reordered packet.
        extra: Dur,
        /// Burst duration.
        dur: Dur,
    },
    /// Random single-bit payload corruption on a link for a bounded window.
    CorruptBurst {
        /// The impaired link.
        link: LinkTarget,
        /// Corruption probability in per-mille.
        permille: u32,
        /// Burst duration.
        dur: Dur,
    },
    /// Degrade a PMNet device's PM module (latency and bandwidth scale by
    /// `factor`) for a bounded window — a thermally throttled or failing
    /// DIMM.
    PmSpike {
        /// Device index.
        device: usize,
        /// Slowdown multiplier (`>= 2` to be observable).
        factor: u32,
        /// Spike duration.
        dur: Dur,
    },
}

impl Fault {
    /// Whether the fault heals on its own: bounded bursts, flaps that come
    /// back up, crashes with a restart scheduled. A plan of transient
    /// faults must leave the system able to finish every client's
    /// workload — that is the liveness invariant the runner checks.
    pub fn is_transient(&self) -> bool {
        match self {
            Fault::ServerCrash { downtime }
            | Fault::DeviceCrash { downtime, .. }
            | Fault::ClientCrash { downtime, .. } => downtime.is_some(),
            // Healed by chained-replica failover, not by the device coming
            // back: the fabric fences the corpse and promotes its backup.
            Fault::DeviceFail { .. } | Fault::DeviceReplace { .. } => true,
            Fault::LinkFlap { .. }
            | Fault::DropBurst { .. }
            | Fault::DuplicateBurst { .. }
            | Fault::ReorderBurst { .. }
            | Fault::CorruptBurst { .. }
            | Fault::PmSpike { .. } => true,
        }
    }
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection time, relative to the start of the run.
    pub at: Dur,
    /// What happens.
    pub fault: Fault,
}

/// An ordered schedule of fault events — the value the generator, runner,
/// shrinker and artifact all exchange.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The events, kept sorted by injection time.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (a fault-free control run).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Appends an event, keeping the schedule sorted by time (stable, so
    /// same-instant events keep insertion order).
    pub fn push(&mut self, at: Dur, fault: Fault) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, fault });
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether every fault heals on its own (see [`Fault::is_transient`]).
    pub fn is_transient(&self) -> bool {
        self.events.iter().all(|e| e.fault.is_transient())
    }

    /// The plan restricted to the events selected by `keep` (same length
    /// as `events`); used by the shrinker.
    pub fn subset(&self, keep: &[bool]) -> FaultPlan {
        assert_eq!(keep.len(), self.events.len(), "mask length mismatch");
        FaultPlan {
            events: self
                .events
                .iter()
                .zip(keep)
                .filter(|(_, &k)| k)
                .map(|(e, _)| *e)
                .collect(),
        }
    }
}

/// Probabilities are per-mille integers, checked on the way in.
const PERMILLE: Token<u32> = Token(u32::to_string, |s| match u32::get(Some(s))? {
    p if p <= 1000 => Ok(p),
    p => Err(format!("permille={p} out of range (0..=1000)")),
});

/// The fault kinds of the plan DSL: each word and its `key=` fields, once.
const FAULT: Kinds<Fault> = kinds!("fault kind", Fault {
    "server-crash" => ServerCrash { downtime: "down" },
    "device-crash" => DeviceCrash { device: "dev", downtime: "down" },
    "device-fail" => DeviceFail { device: "dev" },
    "device-replace" => DeviceReplace { device: "dev", downtime: "down" },
    "client-crash" => ClientCrash { client: "client", downtime: "down" },
    "link-flap" => LinkFlap { link: "link" => LINK, down_for: "down" },
    "drop-burst" => DropBurst {
        link: "link" => LINK, permille: "permille" => PERMILLE, dur: "dur"
    },
    "dup-burst" => DuplicateBurst {
        link: "link" => LINK, permille: "permille" => PERMILLE, dur: "dur"
    },
    "reorder-burst" => ReorderBurst {
        link: "link" => LINK, permille: "permille" => PERMILLE, extra: "extra", dur: "dur"
    },
    "corrupt-burst" => CorruptBurst {
        link: "link" => LINK, permille: "permille" => PERMILLE, dur: "dur"
    },
    "pm-spike" => PmSpike { device: "dev", factor: "factor", dur: "dur" },
});

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::new(' ');
        FAULT.write(&self.fault, w.field("at", &self.at));
        f.write_str(&w.finish())
    }
}

impl FromStr for FaultEvent {
    type Err = String;

    fn from_str(line: &str) -> Result<FaultEvent, String> {
        let mut r = Reader::new(line);
        (|| {
            let at = r.field("at")?;
            let fault = FAULT.read(&mut r)?;
            r.finish().map(|()| FaultEvent { at, fault })
        })()
        .map_err(|e| format!("event line `{line}`: {e}"))
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for line in record::lines(text) {
            let e: FaultEvent = line.parse()?;
            plan.push(e.at, e.fault);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Out of time order on purpose: parsing pushes line by line.
    fn sample() -> FaultPlan {
        let text = "at=300000 drop-burst link=backbone:1 permille=250 dur=120000\n\
                    at=100000 server-crash down=2000000\n\
                    at=100000 client-crash client=2\n\
                    at=500000 pm-spike dev=0 factor=25 dur=700000\n\
                    at=70000 device-fail dev=1\n\
                    at=90000 device-replace dev=0 down=800000\n";
        text.parse().expect("sample plan")
    }

    #[test]
    fn push_keeps_events_sorted_and_stable() {
        let p = sample();
        let times: Vec<u64> = p.events.iter().map(|e| e.at.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        // The two t=100us events keep insertion order: crash first.
        let at100: Vec<&FaultEvent> = p
            .events
            .iter()
            .filter(|e| e.at == Dur::micros(100))
            .collect();
        assert!(matches!(at100[0].fault, Fault::ServerCrash { .. }));
        assert!(matches!(at100[1].fault, Fault::ClientCrash { .. }));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# a comment\n\nat=1000 server-crash down=5000\n";
        let p: FaultPlan = text.parse().unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.events[0].fault,
            Fault::ServerCrash {
                downtime: Some(Dur::nanos(5000))
            }
        );
    }

    #[test]
    fn transient_classification() {
        // Dropping the permanent client crash (sorted index 7: second of
        // the two t=100us events) leaves only self-healing faults — the
        // permanent device-fail counts as transient because chained
        // failover heals it.
        let p = sample();
        let mut keep = vec![true; p.len()];
        let idx = p
            .events
            .iter()
            .position(|e| matches!(e.fault, Fault::ClientCrash { .. }))
            .unwrap();
        keep[idx] = false;
        assert!(p.subset(&keep).is_transient());
        assert!(!p.is_transient());
        assert!(Fault::DeviceFail { device: 0 }.is_transient());
        assert!(Fault::DeviceReplace {
            device: 0,
            downtime: Dur::micros(1)
        }
        .is_transient());
    }

    #[test]
    fn parse_errors_are_descriptive() {
        for (line, want) in [
            (
                "at=12 warp-core-breach",
                "unknown fault kind `warp-core-breach`",
            ),
            ("drop-burst link=access:0", "missing `at=`"),
            ("at=1 device-fail device=0", "missing `dev=`"),
            ("at=1 device-fail dev=0 down=5", "unexpected `down=5`"),
            ("at=1 server-crash down=soon", "bad `down=soon`"),
            (
                "at=1 pm-spike dev=0 factor=4294967296 dur=5",
                "bad `factor=4294967296`",
            ),
            (
                "at=1 drop-burst link=access:0 permille=2000 dur=5",
                "out of range",
            ),
            ("at=1 link-flap link=ring:3 down=5", "unknown link `ring`"),
            (
                "at=1 link-flap link=access down=5",
                "bad `link=access`: missing value",
            ),
        ] {
            let e = line.parse::<FaultEvent>().unwrap_err();
            assert!(e.contains(want) && e.contains(line), "{e}");
        }
    }

    #[test]
    fn subset_selects_by_mask() {
        let p = sample();
        let mut keep = vec![false; p.len()];
        keep[0] = true;
        keep[4] = true;
        let s = p.subset(&keep);
        assert_eq!(s.len(), 2);
        assert_eq!(s.events[0], p.events[0]);
        assert_eq!(s.events[1], p.events[4]);
    }
}
