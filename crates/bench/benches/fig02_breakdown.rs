//! Figure 2: latency breakdown of an update request.
//!
//! Paper: the server side (network stack + request processing) makes up
//! ~70% of an update's RTT on average, which is exactly the share PMNet
//! moves off the critical path.
//!
//! Method: run the Client-Server baseline and the PMNet design on the same
//! workload; the measured difference *is* the server-side share, and the
//! nominal stack model decomposes the remainder.

use pmnet_bench::{banner, micro, row, us};
use pmnet_core::system::DesignPoint;
use pmnet_core::{HostProfile, SystemConfig};

fn main() {
    banner(
        "Figure 2",
        "Latency breakdown of an update request (100 B, ideal handler)",
    );
    let cfg = SystemConfig::default();
    let base = micro(DesignPoint::ClientServer, cfg).run(42);
    let pmnet = micro(DesignPoint::PmnetSwitch, cfg).run(42);

    let total = base.latency.mean();
    let client_net = pmnet.latency.mean(); // client side + network only
    let server_side = total - client_net.min(total);

    // Nominal decomposition of the client+network share.
    let payload = 100 + 1 + 20; // payload + tag + PMNet header
    let client_stack = cfg.client.kernel_tx.nominal(payload)
        + cfg.client.user_tx.nominal(payload)
        + cfg.client.kernel_rx.nominal(20)
        + cfg.client.user_rx.nominal(20)
        + cfg.client.app_overhead * 2;
    let network = client_net - client_stack.min(client_net);
    let server_stack = cfg.server.kernel_rx.nominal(payload)
        + cfg.server.user_rx.nominal(payload)
        + cfg.server.user_tx.nominal(20)
        + cfg.server.kernel_tx.nominal(20);
    let processing = server_side - server_stack.min(server_side);

    let pct = |d: pmnet_sim::Dur| {
        format!(
            "{:.0}%",
            100.0 * d.as_nanos() as f64 / total.as_nanos() as f64
        )
    };
    row(&["component".into(), "time".into(), "share".into()]);
    row(&["client stack".into(), us(client_stack), pct(client_stack)]);
    row(&["network".into(), us(network), pct(network)]);
    row(&["server stack".into(), us(server_stack), pct(server_stack)]);
    row(&["server processing".into(), us(processing), pct(processing)]);
    row(&["total RTT".into(), us(total), "100%".into()]);
    println!();
    let server_share = 100.0 * server_side.as_nanos() as f64 / total.as_nanos() as f64;
    println!("server-side share: {server_share:.0}%   (paper: ~70% on average)");
    // TCP adds per-direction cost for the TCP-native workloads.
    println!(
        "TCP extra per direction (Redis/Twitter/TPCC baselines): {}",
        us(HostProfile::tcp_extra())
    );
}
