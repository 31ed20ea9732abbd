//! Figure 18: PMNet vs the alternative logging designs of Figure 17
//! (client-side logging, server-side logging), with and without 3-way
//! replication. 100 B payloads, ideal handler.
//!
//! Paper values (us): no replication — client-side 10.4 < PMNet 21.5 <
//! server-side 47.97; with 3-way replication — PMNet 22.8 < client-side
//! 41.61 < server-side 94.02.

use pmnet_bench::{banner, micro, row, us};
use pmnet_core::system::DesignPoint;
use pmnet_core::SystemConfig;

fn main() {
    banner(
        "Figure 18",
        "PMNet vs client-side and server-side logging (100 B updates)",
    );
    let mean = |design| {
        micro(design, SystemConfig::default())
            .run(42)
            .latency
            .mean()
    };
    row(&["design".into(), "no repl".into(), "paper".into()]);
    row(&[
        "client-side log".into(),
        us(mean(DesignPoint::ClientSideLog { replicas: 1 })),
        "10.40us".into(),
    ]);
    row(&[
        "PMNet".into(),
        us(mean(DesignPoint::PmnetSwitch)),
        "21.50us".into(),
    ]);
    row(&[
        "server-side log".into(),
        us(mean(DesignPoint::ServerSideLog { replicas: 1 })),
        "47.97us".into(),
    ]);
    println!();
    row(&["design".into(), "3-way repl".into(), "paper".into()]);
    row(&[
        "PMNet".into(),
        us(mean(DesignPoint::PmnetReplicated { devices: 3 })),
        "22.80us".into(),
    ]);
    row(&[
        "client-side log".into(),
        us(mean(DesignPoint::ClientSideLog { replicas: 3 })),
        "41.61us".into(),
    ]);
    row(&[
        "server-side log".into(),
        us(mean(DesignPoint::ServerSideLog { replicas: 3 })),
        "94.02us".into(),
    ]);
    println!();
    println!("shape: client-side wins unreplicated (no client network stack on");
    println!("the critical path) but degrades badly under replication, while");
    println!("PMNet overlaps the per-device persists and barely moves.");
}
