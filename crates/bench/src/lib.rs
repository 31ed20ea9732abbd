//! Shared harness for the figure-regeneration benches.
//!
//! Each `benches/figXX_*.rs` target rebuilds one table or figure of the
//! paper's evaluation (Section VI) and prints the same rows/series the
//! paper reports, annotated with the paper's reported value where one
//! exists. Absolute numbers come from a calibrated simulator (DESIGN.md
//! §2), so the *shape* — who wins, by roughly what factor, where
//! crossovers fall — is the reproduction target.

#![warn(missing_docs)]

use pmnet_core::system::{
    drive, BuiltSystem, DesignPoint, RunMetrics, SystemBuilder, UpdateExperiment,
};
use pmnet_core::SystemConfig;
use pmnet_sim::{Dur, Time};
use pmnet_workloads::WorkloadSpec;

/// Prints a figure header.
pub fn banner(figure: &str, caption: &str) {
    println!("==============================================================");
    println!("{figure}: {caption}");
    println!("==============================================================");
}

/// Prints a row of aligned cells.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Formats microseconds.
pub fn us(d: Dur) -> String {
    format!("{:.2}us", d.as_micros_f64())
}

/// Formats a ratio.
pub fn x(v: f64) -> String {
    format!("{v:.2}x")
}

/// The standard microbenchmark (Section VI-B1): the *ideal request
/// handler* acknowledges on reception, so network and stack dominate.
/// Single-client, 100 B, update-only, 2000 requests of which the first
/// 200 warm up; the figure benches vary it from there.
pub fn micro(design: DesignPoint, config: SystemConfig) -> UpdateExperiment {
    UpdateExperiment::new(design, config)
        .requests_per_client(2000)
        .warmup(200)
        .deadline(Dur::secs(60))
}

/// Runs a real workload (Figures 19/20): `clients` closed-loop clients of
/// `spec` against the matching PM-backed handler. The baseline keeps the
/// workload's native transport (TCP for Redis/Twitter/TPCC).
pub fn run_workload(
    spec: WorkloadSpec,
    design: DesignPoint,
    clients: usize,
    requests_per_client: usize,
    update_ratio: f64,
    cache_entries: usize,
    seed: u64,
) -> (RunMetrics, BuiltSystem) {
    let mut config = SystemConfig::default();
    if cache_entries > 0 {
        config.device = config.device.with_cache(cache_entries);
    }
    let use_tcp = design == DesignPoint::ClientServer && spec.baseline_uses_tcp();
    let mut b = SystemBuilder::new(design, config)
        .tcp(use_tcp)
        .warmup(requests_per_client / 10);
    for i in 0..clients {
        b = b.client(spec.make_source(requests_per_client, update_ratio, i as u32));
    }
    let mut sys = b
        .handler_factory(move || spec.make_handler(seed))
        .build(seed);
    sys.run_clients(Dur::secs(120));
    let m = sys.metrics();
    (m, sys)
}

/// A fixed-simulated-time saturation point for the Figure 16 stress test:
/// `clients` continuously send `payload`-byte updates for `window`;
/// returns (achieved Gbps of request traffic, mean latency, p99 latency).
pub fn stress_point(
    design: DesignPoint,
    config: SystemConfig,
    clients: usize,
    payload: usize,
    window: Dur,
    seed: u64,
) -> (f64, Dur, Dur) {
    let mut sys = UpdateExperiment::new(design, config)
        .clients(clients)
        .payload_bytes(payload)
        .requests_per_client(usize::MAX >> 1)
        .warmup(20)
        .builder()
        .build(seed);
    // Clients only: the sweep measures the data path with the fabric's
    // heartbeats and watchdog unarmed.
    for &c in &sys.clients {
        sys.world.start_node(c);
    }
    drive(&mut sys.world, Time::ZERO, Time::ZERO + window, |_| false);
    let mut latency = sys.metrics().update_latency;
    // Wire bytes per request: payload + opaque tag + PMNet header + UDP/IP.
    let wire = (payload + 1 + 20 + 42) as f64;
    let gbps = latency.len() as f64 * wire * 8.0 / window.as_secs_f64() / 1e9;
    if latency.is_empty() {
        (gbps, Dur::ZERO, Dur::ZERO)
    } else {
        let p99 = latency.percentile(0.99);
        (gbps, latency.mean(), p99)
    }
}

/// Geometric mean of speedups (how the paper aggregates "on average").
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|v| v.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn micro_runs_quickly() {
        let m = micro(DesignPoint::PmnetSwitch, SystemConfig::default())
            .requests_per_client(50)
            .warmup(5)
            .run(1);
        assert_eq!(m.completed, 45);
    }

    #[test]
    fn stress_point_reports_bandwidth() {
        let (gbps, mean, p99) = stress_point(
            DesignPoint::PmnetSwitch,
            SystemConfig::default(),
            4,
            1000,
            Dur::millis(5),
            2,
        );
        assert!(gbps > 0.1, "{gbps}");
        assert!(mean > Dur::micros(5));
        assert!(p99 >= mean);
    }
}
