//! Figure 15: update latency of an ideal request handler with variable
//! request sizes (50 B – 1000 B), single client.
//!
//! Paper targets: PMNet-Switch/NIC ~2.83x/2.90x over Client-Server at
//! 50 B, shrinking to ~2.19x at 1000 B; |Switch − NIC| < 1 us.

use pmnet_bench::{banner, micro, row, us, x};
use pmnet_core::system::DesignPoint;
use pmnet_core::SystemConfig;

fn main() {
    banner(
        "Figure 15",
        "Update latency vs payload size (ideal handler, 1 client)",
    );
    row(&[
        "payload".into(),
        "Client-Server".into(),
        "PMNet-Switch".into(),
        "PMNet-NIC".into(),
        "switch spdup".into(),
        "nic spdup".into(),
    ]);
    for payload in [50usize, 100, 200, 400, 600, 800, 1000] {
        let mean = |design| {
            micro(design, SystemConfig::default())
                .payload_bytes(payload)
                .run(42)
                .latency
                .mean()
        };
        let base = mean(DesignPoint::ClientServer);
        let sw = mean(DesignPoint::PmnetSwitch);
        let nic = mean(DesignPoint::PmnetNic);
        row(&[
            format!("{payload}B"),
            us(base),
            us(sw),
            us(nic),
            x(base.as_nanos() as f64 / sw.as_nanos() as f64),
            x(base.as_nanos() as f64 / nic.as_nanos() as f64),
        ]);
    }
    println!();
    println!("paper: 2.83x (switch) / 2.90x (nic) at 50 B -> ~2.19x at 1000 B;");
    println!("       switch-vs-NIC difference under ~1 us (both sub-RTT).");
}
