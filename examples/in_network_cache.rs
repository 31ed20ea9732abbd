//! PMNet with read caching (Section IV-D, Figure 10/11): the device serves
//! hot reads from a persistent key-value cache built on top of its update
//! log, so *both* updates and most reads complete sub-RTT.
//!
//! Run with: `cargo run --example in_network_cache`

use pmnet::core::system::{DesignPoint, SystemBuilder};
use pmnet::core::{PmnetDevice, SystemConfig};
use pmnet::sim::Dur;
use pmnet::workloads::{KvHandler, YcsbSource};

fn run(cache_entries: usize, label: &str) {
    let mut config = SystemConfig::default();
    if cache_entries > 0 {
        config.device = config.device.with_cache(cache_entries);
    }
    let mut b = SystemBuilder::new(DesignPoint::PmnetSwitch, config).warmup(100);
    for _ in 0..8 {
        // 50% updates / 50% reads over a hot Zipfian key space.
        b = b.client(Box::new(YcsbSource::new(1000, 1000, 0.5, 80)));
    }
    let mut sys = b
        .handler_factory(|| Box::new(KvHandler::new("hashmap", 2)))
        .build(13);
    sys.run_clients(Dur::secs(20));
    let mut m = sys.metrics();
    let dev = sys.world.node::<PmnetDevice>(sys.devices[0]);
    let cache_line = match dev.cache_counters() {
        Some(c) => format!(
            "cache: {} hits / {} misses ({:.0}% hit rate)",
            c.hits,
            c.misses,
            100.0 * c.hits as f64 / (c.hits + c.misses).max(1) as f64
        ),
        None => "cache: disabled".to_string(),
    };
    println!(
        "{label:<18} read mean={:>9} read p99={:>9} update mean={:>9} | {cache_line}",
        m.bypass_latency.mean(),
        m.bypass_latency.percentile(0.99),
        m.update_latency.mean(),
    );
}

fn main() {
    println!("PMNet read caching: 8 clients, 50% updates / 50% Zipfian reads\n");
    run(0, "PMNet (no cache)");
    run(65_536, "PMNet + cache");
    // Fewer entries than the 1 000 keys: what stays is what was used last.
    run(128, "PMNet + 128 slots");
    println!(
        "\nWith caching, reads that hit the device never traverse the server\n\
         stack; the Figure 11 state machine keeps cached values consistent\n\
         with in-flight updates (Pending/Persisted serve, Stale never does).\n\
         A cache smaller than the key set evicts its least recently used\n\
         value, so the hot keys of the Zipfian stay resident."
    );
}
