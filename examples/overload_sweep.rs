//! Overload-control study: open-loop offered load swept from well under
//! to well past the system's measured saturation point.
//!
//! Closed-loop clients can never overload the system — each waits for
//! its op to complete, so offered load self-limits at capacity. This
//! example drives the PMNet device with the open-loop `pmnet-traffic`
//! engine instead:
//!
//! 1. **Saturation probe** — admission control off, no churn, offered
//!    rate swept upward; the peak goodput over the probe is the measured
//!    capacity (past the knee the simulator degrades rather than
//!    plateaus, so the peak *is* the saturation point).
//! 2. **Overload sweep** — offered load at 0.5x..2x of that capacity
//!    with the AIMD admission gate reacting to `FLAG_CONGESTED` server
//!    acks and the device-log spill policy (per-session quota + soft
//!    occupancy watermark) bounding PM occupancy. The sweep prints the
//!    goodput-vs-offered-load table for EXPERIMENTS.md.
//!
//! The inline gates are the overload-control claim: past saturation,
//! goodput must hold near capacity instead of collapsing, the device
//! log must stay bounded by the watermark, and the log must drain by
//! the end of every run (no stranded entries).
//!
//! Run with: `cargo run --release --example overload_sweep`
//! (CI runs `-- --smoke` for a shortened sweep.)

use pmnet::core::config::DeviceConfig;
use pmnet::core::SystemConfig;
use pmnet::sim::Dur;
use pmnet::telemetry::Telemetry;
use pmnet::traffic::engine::TrafficReport;
use pmnet::traffic::{AdmissionSpec, ChurnSpec, TrafficSpec, TrafficSystem};

const SEED: u64 = 42;
/// Soft occupancy watermark for the sweep: far below the 65 536-entry
/// hard capacity, so the spill path (not the log-full bypass) is what
/// bounds PM occupancy under overload.
const WATERMARK: usize = 1024;
/// Per-session live-entry quota: one hot session cannot monopolize the
/// log while others starve.
const SESSION_QUOTA: u32 = 8;

fn overload_config() -> SystemConfig {
    SystemConfig {
        device: DeviceConfig::fpga().with_spill_policy(SESSION_QUOTA, WATERMARK),
        ..SystemConfig::default()
    }
}

fn run_point(spec: &TrafficSpec) -> TrafficReport {
    let mut sys = TrafficSystem::build_with(spec, overload_config(), SEED);
    sys.run();
    sys.report(&Telemetry::disabled())
}

/// Measured capacity: probe goodput with admission control off and no
/// churn, doubling the offered rate until goodput stops tracking it
/// (the knee); the peak goodput over the probe is the capacity.
fn measure_saturation(measure: Dur, drain: Dur) -> f64 {
    let mut capacity = 0.0f64;
    let mut rate = 500_000.0;
    loop {
        let mut spec = TrafficSpec::poisson(rate);
        spec.admission = AdmissionSpec::Open;
        spec.churn = ChurnSpec::none();
        spec.measure = measure;
        spec.drain = drain;
        let report = run_point(&spec);
        eprintln!(
            "  probe {:>9.0}/s -> goodput {:>9.0}/s (peak log {})",
            rate, report.goodput_per_sec, report.peak_log_entries
        );
        capacity = capacity.max(report.goodput_per_sec);
        // Past the knee: offered load no longer converts to goodput.
        if report.goodput_per_sec < 0.9 * report.observed_offered_per_sec || rate >= 64_000_000.0 {
            break;
        }
        rate *= 2.0;
    }
    capacity
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (measure, drain, factors): (Dur, Dur, &[f64]) = if smoke {
        (Dur::millis(15), Dur::millis(25), &[0.5, 1.0, 1.5])
    } else {
        (
            Dur::millis(40),
            Dur::millis(30),
            &[0.5, 0.75, 1.0, 1.25, 1.5, 2.0],
        )
    };

    eprintln!("overload_sweep: saturation probe (admission open, churn off)");
    let capacity = measure_saturation(measure, drain);
    eprintln!("overload_sweep: measured saturation = {capacity:.0} ops/s");
    assert!(capacity > 0.0, "saturation probe found no goodput");

    println!(
        "| offered | offered/s | goodput/s | goodput/cap | p50 us | p99 us | p999 us \
         | shed % | peak log | spills |"
    );
    println!("|--------:|----------:|----------:|------------:|-------:|-------:|--------:|-------:|---------:|-------:|");

    let mut at_15x: Option<TrafficReport> = None;
    for &factor in factors {
        let mut spec = TrafficSpec::poisson(capacity * factor);
        spec.measure = measure;
        spec.drain = drain;
        let report = run_point(&spec);

        let c = &report.counters;
        let shed_pct = 100.0 * (c.shed_admission + c.queue_drops) as f64 / c.arrivals.max(1) as f64;
        let (p50, p99, p999) = report.latency.as_ref().map_or((0, 0, 0), |s| {
            (
                s.p50.as_nanos() / 1_000,
                s.p99.as_nanos() / 1_000,
                s.p999.as_nanos() / 1_000,
            )
        });
        println!(
            "| {factor:>6.2}x | {:>9.0} | {:>9.0} | {:>11.2} | {p50:>6} | {p99:>6} | \
             {p999:>7} | {shed_pct:>5.1}% | {:>8} | {:>6} |",
            report.observed_offered_per_sec,
            report.goodput_per_sec,
            report.goodput_per_sec / capacity,
            report.peak_log_entries,
            report.log_spills,
        );

        // Every point must leave the device log drained: spilled or not,
        // no acked update may depend on an entry that never retired.
        assert_eq!(
            report.stranded_log_entries, 0,
            "device log must drain after the {factor}x point"
        );
        // The watermark bounds PM occupancy at every load (one entry of
        // slack: the check runs before the insert).
        assert!(
            report.peak_log_entries <= WATERMARK as u64 + 1,
            "spill watermark violated at {factor}x: peak {} > {}",
            report.peak_log_entries,
            WATERMARK
        );
        if factor <= 0.75 {
            // Below the knee the system should carry (nearly) everything
            // that is offered.
            assert!(
                report.goodput_per_sec >= 0.9 * report.observed_offered_per_sec,
                "underload point {factor}x lost goodput: {:.0} of {:.0} offered",
                report.goodput_per_sec,
                report.observed_offered_per_sec
            );
        }
        if (factor - 1.5).abs() < 1e-9 {
            at_15x = Some(report);
        }
    }

    // The overload-control claim, gated at 1.5x saturation: backpressure
    // (FLAG_CONGESTED -> AIMD shedding) holds goodput near capacity
    // instead of letting retransmission storms collapse it.
    let r = at_15x.expect("sweep must include the 1.5x point");
    let c = &r.counters;
    assert!(
        r.goodput_per_sec >= 0.8 * capacity,
        "goodput collapsed under 1.5x overload: {:.0} ops/s vs capacity {capacity:.0}",
        r.goodput_per_sec
    );
    assert!(
        c.shed_admission + c.queue_drops > 0,
        "1.5x overload must shed load somewhere: {c:?}"
    );
    println!();
    println!(
        "measured saturation {capacity:.0} ops/s; at 1.5x offered the AIMD gate holds \
         goodput at {:.0} ops/s ({:.0}% of capacity) while the spill policy caps the \
         device log at {} entries ({} spills).",
        r.goodput_per_sec,
        100.0 * r.goodput_per_sec / capacity,
        r.peak_log_entries,
        r.log_spills,
    );
    println!("all overload gates hold.");
}
