//! Design-choice ablations from Sections V-A and VII.
//!
//! 1. Eq. 1/2 BDP arithmetic: log capacity and log-queue sizing at 10 and
//!    100 Gbps.
//! 2. Log-queue size sweep: an Eq.-2-sized SRAM queue keeps the pipeline
//!    at line rate; starving it forces bypasses (unacknowledged requests).
//! 3. PM write-latency sweep: PMNet's benefit survives much slower
//!    persistence media (the persist happens off the server's path).
//! 4. Log-capacity pressure: a full table degrades gracefully to the
//!    baseline (forward-without-ack), never stalling traffic.

use pmnet_bench::{banner, micro, row, stress_point, us};
use pmnet_core::config::bdp;
use pmnet_core::system::DesignPoint;
use pmnet_core::SystemConfig;
use pmnet_sim::Dur;

fn main() {
    banner(
        "Section V-A / VII",
        "BDP sizing and design-choice ablations",
    );

    println!("\n[Eq. 1/2] bandwidth-delay products:");
    row(&["network".into(), "log capacity".into(), "log queue".into()]);
    for (name, bw) in [
        ("10 Gbps", 10_000_000_000u64),
        ("100 Gbps", 100_000_000_000),
    ] {
        row(&[
            name.into(),
            format!(
                "{:.1} Mbit",
                bdp::log_capacity_bits(Dur::micros(500), bw) as f64 / 1e6
            ),
            format!(
                "{:.1} kbit",
                bdp::log_queue_bits(Dur::nanos(100), bw) as f64 / 1e3
            ),
        ]);
    }

    println!("\n[ablation] log-queue size sweep (32 clients, 1000 B, 20 ms):");
    row(&[
        "queue bytes".into(),
        "Gbps".into(),
        "mean".into(),
        "p99".into(),
    ]);
    for queue in [256u64, 1024, 4096, 16_384] {
        let mut cfg = SystemConfig::default();
        cfg.device = cfg.device.with_log_queue_bytes(queue);
        let (gbps, mean, p99) =
            stress_point(DesignPoint::PmnetSwitch, cfg, 32, 1000, Dur::millis(20), 31);
        row(&[queue.to_string(), format!("{gbps:.2}"), us(mean), us(p99)]);
    }

    println!("\n[ablation] device PM write-latency sweep (100 B updates):");
    row(&["PM write".into(), "PMNet mean".into(), "speedup".into()]);
    let base = micro(DesignPoint::ClientServer, SystemConfig::default())
        .run(42)
        .latency
        .mean();
    for write_ns in [273u64, 1000, 5000, 20_000] {
        let mut cfg = SystemConfig::default();
        cfg.device.pm = cfg.device.pm.with_write_latency(Dur::nanos(write_ns));
        let m = micro(DesignPoint::PmnetSwitch, cfg).run(42);
        row(&[
            format!("{write_ns}ns"),
            us(m.latency.mean()),
            format!(
                "{:.2}x",
                base.as_nanos() as f64 / m.latency.mean().as_nanos() as f64
            ),
        ]);
    }

    println!("\n[ablation] log-capacity pressure (tiny table forces bypasses):");
    row(&["entries".into(), "mean".into(), "note".into()]);
    for entries in [4usize, 64, 65_536] {
        let mut cfg = SystemConfig::default();
        cfg.device = cfg.device.with_log_capacity(entries, 1 << 30);
        let m = micro(DesignPoint::PmnetSwitch, cfg)
            .clients(8)
            .requests_per_client(500)
            .warmup(50)
            .run(42);
        let note = if entries <= 64 {
            "bypasses fall back to server ACKs"
        } else {
            "ample capacity"
        };
        row(&[entries.to_string(), us(m.latency.mean()), note.into()]);
    }

    println!("\n[100 Gbps check] Eq. 2 queue keeps line rate at 100 Gbps:");
    let (gbps, mean, _) = stress_point(
        DesignPoint::PmnetSwitch,
        SystemConfig::default(),
        16,
        1000,
        Dur::millis(10),
        3,
    );
    println!(
        "  16 clients on 10 Gbps fabric: {gbps:.2} Gbps at mean {}",
        us(mean)
    );
}
