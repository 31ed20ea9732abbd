//! Figure 16: bandwidth vs latency under stress (1000 B updates, scaling
//! client instances until the 10 Gbps link saturates).
//!
//! Paper: latency is flat while offered load is below the physical limit,
//! then spikes at ~10 Gbps; PMNet latency is consistently below the
//! Client-Server baseline before saturation.

use pmnet_bench::{banner, row, stress_point, us};
use pmnet_core::system::DesignPoint;
use pmnet_core::SystemConfig;
use pmnet_sim::Dur;

fn main() {
    banner(
        "Figure 16",
        "Bandwidth vs latency stress test (1000 B updates, ideal handler)",
    );
    row(&[
        "clients".into(),
        "CS Gbps".into(),
        "CS mean".into(),
        "PMNet Gbps".into(),
        "PMNet mean".into(),
        "PMNet p99".into(),
    ]);
    let cfg = SystemConfig::default();
    let window = Dur::millis(40);
    for clients in [1usize, 2, 4, 8, 16, 32, 48, 64, 96] {
        let (bg, bm, _) = stress_point(DesignPoint::ClientServer, cfg, clients, 1000, window, 5);
        let (pg, pm, pp99) = stress_point(DesignPoint::PmnetSwitch, cfg, clients, 1000, window, 5);
        row(&[
            clients.to_string(),
            format!("{bg:.2}"),
            us(bm),
            format!("{pg:.2}"),
            us(pm),
            us(pp99),
        ]);
    }
    println!();
    println!("paper: flat latency until the 10 Gbps limit, then a spike;");
    println!("       PMNet consistently below Client-Server before saturation.");
}
