//! Figure 21: update latency in a 3-way replication system, normalized to
//! the no-replication Client-Server design.
//!
//! Paper: in-network replication (three chained PMNet switches) is 5.88x
//! faster than server-side replication on average, and costs only ~16%
//! over single-log PMNet because the per-switch persists overlap.

use pmnet_bench::{banner, micro, row, us, x};
use pmnet_core::system::DesignPoint;
use pmnet_core::SystemConfig;

fn main() {
    banner(
        "Figure 21",
        "3-way replication latency (normalized to no-repl Client-Server)",
    );
    let mean = |design| {
        micro(design, SystemConfig::default())
            .run(42)
            .latency
            .mean()
    };
    let base = mean(DesignPoint::ClientServer);
    let pmnet1 = mean(DesignPoint::PmnetSwitch);
    let pmnet3 = mean(DesignPoint::PmnetReplicated { devices: 3 });
    let server3 = mean(DesignPoint::ClientServerReplicated { replicas: 3 });

    row(&["design".into(), "latency".into(), "normalized".into()]);
    let norm = |d: pmnet_sim::Dur| x(d.as_nanos() as f64 / base.as_nanos() as f64);
    row(&["Client-Server (no repl)".into(), us(base), norm(base)]);
    row(&["PMNet (no repl)".into(), us(pmnet1), norm(pmnet1)]);
    row(&["PMNet 3-way".into(), us(pmnet3), norm(pmnet3)]);
    row(&["Server-side 3-way".into(), us(server3), norm(server3)]);
    println!();
    println!(
        "PMNet-3way vs server-side-3way: {}   (paper: 5.88x)",
        x(server3.as_nanos() as f64 / pmnet3.as_nanos() as f64)
    );
    println!(
        "replication overhead over single-log PMNet: {:.0}%   (paper: ~16%)",
        100.0 * (pmnet3.as_nanos() as f64 / pmnet1.as_nanos() as f64 - 1.0)
    );
}
