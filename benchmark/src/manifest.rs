//! What the benchmark declares: its command, workloads and metrics.
//! `BENCHMARK.json` at the repository root is [`benchmark_json`]'s output
//! (`--emit-manifest`), and a test holds the two equal.

use pmnet_telemetry::span::Phase;

use crate::json::{obj, Json};
use crate::layers::DRIVES;
use crate::rig::Workload;
use crate::spans::NodeKind;
use crate::stats::Better::{self, Higher, Lower};

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// The benchmark's directory, relative to the repository root.
pub const PATH: &str = "benchmark";

/// Program and arguments; the driver appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, unique over both lists.
    pub name: String,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// One end-to-end metric: same list on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median; also the
    /// bound two runs of the same code must agree within.
    pub bound: f64,
    /// True for simulated-clock metrics: bit-exact for a given seed, so
    /// two runs of the same code and seed must agree exactly.
    pub sim: bool,
}

/// The end-to-end metrics. Host-clock times are calibrated (see
/// `calib.rs`) and say so in name and unit; sim-clock values are what the
/// modelled design achieves, the mean over the run's worlds.
///
/// Each bound is three times the widest quartile spread that three sets of
/// ten runs with ten seeds showed on any workload, rounded up (`README.md`
/// has the table): 5.1 % for `calib_ops_per_s`, 0.4 %, 0.6 % and 1.0 % for
/// the heap metrics, 2.6 %, 1.9 %, 0.7 % and 2.5 % for the sim metrics.
/// Sim metrics are exact for a given seed, so what their bounds cover is
/// what *different* seeds do, which is what the driver compares.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("calib_ops_per_s", "ops/calib_s", Higher, 0.16, false),
    e2e("allocs_per_op", "1/op", Lower, 0.02, false),
    e2e("alloc_bytes_per_op", "B/op", Lower, 0.02, false),
    e2e("peak_live_mb", "MB", Lower, 0.05, false),
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("sim_ops_per_s", "ops/s", Higher, 0.08, true),
    e2e("sim_mean_us", "us", Lower, 0.06, true),
    e2e("sim_p50_us", "us", Lower, 0.025, true),
    e2e("sim_p99_us", "us", Lower, 0.08, true),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    sim: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        sim,
    }
}

/// Names of the metrics the span-wrapped repetition yields (and that read
/// 0 on a workload the benchmark cannot wrap).
pub fn span_metric_names() -> Vec<String> {
    let mut names = Vec::new();
    for kind in NodeKind::ALL {
        for what in ["events_per_op", "ns_per_event", "host_share"] {
            names.push(format!("node.{}.{what}", kind.name()));
        }
    }
    names.extend(
        [
            "net.runtime.ns_per_event",
            "net.runtime.host_share",
            "trace.overhead_ratio",
        ]
        .map(String::from),
    );
    names
}

/// The per-layer metrics, in the order the traced run prints them.
pub fn per_layer() -> Vec<Metric> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, better| out.push(Metric { name, unit, better });
    // Node spans, host time.
    for name in span_metric_names() {
        let unit = match name.rsplit('.').next() {
            Some("events_per_op") => "1/op",
            Some("ns_per_event") => "ns",
            Some("host_share") => "share",
            _ => "ratio",
        };
        add(name, unit, Lower);
    }
    // Sim-time phases.
    for phase in Phase::ALL {
        add(format!("phase.{}.mean_us", phase.name()), "us", Lower);
        add(format!("phase.{}.p99_us", phase.name()), "us", Lower);
    }
    add("telemetry.overhead_ratio".into(), "ratio", Lower);
    // Counters from public accessors, exact.
    for (name, unit, better) in COUNTERS {
        add(name.to_string(), unit, better);
    }
    // Isolated layer drives, host time.
    for (name, _) in DRIVES {
        add(name.to_string(), "ns", Lower);
    }
    out
}

/// Counter-derived per-layer metrics ("/kop" = per 1 000 completed ops).
const COUNTERS: [(&str, &str, Better); 31] = [
    ("net.port.tx_packets_per_op", "1/op", Lower),
    ("net.port.tx_bytes_per_op", "B/op", Lower),
    ("net.port.drops_per_kop", "1/kop", Lower),
    ("core.client.retries_per_kop", "1/kop", Lower),
    ("core.client.p999_us", "us", Lower),
    ("core.client.update_p50_us", "us", Lower),
    ("core.client.update_p99_us", "us", Lower),
    ("core.client.read_p50_us", "us", Lower),
    ("core.client.read_p99_us", "us", Lower),
    ("core.device.forwarded_per_op", "1/op", Lower),
    ("core.device.acks_per_op", "1/op", Lower),
    ("core.device.congestion_flagged_per_kop", "1/kop", Lower),
    ("core.device.entry_retries_per_kop", "1/kop", Lower),
    ("core.device.cache_hit_ratio", "ratio", Higher),
    ("core.device.batch_fill", "1/flush", Higher),
    ("core.device.chain_acks_per_op", "1/op", Lower),
    ("core.logstore.logged_per_op", "1/op", Higher),
    ("core.logstore.bypass_per_kop", "1/kop", Lower),
    ("core.logstore.spilled_per_kop", "1/kop", Lower),
    ("core.logstore.peak_entries", "count", Lower),
    ("core.logstore.peak_bytes", "B", Lower),
    ("core.server.duplicates_per_kop", "1/kop", Lower),
    ("core.server.reordered_per_kop", "1/kop", Lower),
    ("core.server.retrans_sent_per_kop", "1/kop", Lower),
    ("core.server.apply_fences_per_kop", "1/kop", Lower),
    ("core.server.apply_runs_per_op", "1/op", Lower),
    ("core.server.apply_lag_ms", "ms", Lower),
    ("host.raw_ops_per_s", "ops/s", Higher),
    ("host.calib_ns_per_iter", "ns", Lower),
    ("host.cpu_share", "share", Higher),
    ("host.rep_spread", "share", Lower),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&s| s.into()).collect());
    let workloads = Workload::ALL
        .iter()
        .map(|w| obj([("name", w.name().into()), ("why", w.why().into())]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", m.better.word().into()),
                ("bound", m.bound.into()),
            ])
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|m| {
            obj([
                ("name", m.name.as_str().into()),
                ("unit", m.unit.into()),
                ("better", m.better.word().into()),
            ])
        })
        .collect();
    obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&[PATH])),
        ("run_seconds", RUN_SECONDS.into()),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(layers)),
    ])
    .pretty(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        let rest = name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        first && rest && name.len() <= 64
    }

    #[test]
    fn declarations_stay_inside_the_driver_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut seen = BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layers.iter().map(|m| m.name.clone()));
        for name in names {
            assert!(name_ok(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit));
        for unit in units {
            let ok = unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(ok && !unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{w:?}");
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_on_disk_is_what_the_program_declares() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = benchmark_json();
        let differ = on_disk.lines().zip(declared.lines()).find(|(a, b)| a != b);
        assert!(
            on_disk == declared,
            "regenerate with `--emit-manifest > BENCHMARK.json`; first difference: {differ:?}"
        );
    }
}
