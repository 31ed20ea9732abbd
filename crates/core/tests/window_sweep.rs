//! Doorbell-window sweep: the same workload at batch windows 1/4/16/64,
//! checking the batching ladder behaves monotonically — wider windows
//! elide more persist fences and coalesce more acks — while the
//! durability contract (exactly-once apply of every acked update) holds
//! at every point. Run with `--nocapture` to see the table the
//! EXPERIMENTS notes quote.

use pmnet_core::config::{BatchConfig, SystemConfig};
use pmnet_core::system::{DesignPoint, MicroSource, SystemBuilder};
use pmnet_core::{PmnetDevice, ServerLib};
use pmnet_sim::Dur;

struct Point {
    window: u32,
    completed: usize,
    mean_us: f64,
    batches: u64,
    fences_elided: u64,
    coalesced_acks: u64,
    ack_packets: u64,
}

fn sweep_point(window: u32) -> Point {
    let cfg = SystemConfig {
        batch: BatchConfig::windowed(window),
        ..SystemConfig::default()
    };
    let mut b = SystemBuilder::new(DesignPoint::PmnetSwitch, cfg);
    const CLIENTS: usize = 8;
    const UPDATES: usize = 100;
    for _ in 0..CLIENTS {
        b = b.client(Box::new(MicroSource::updates(UPDATES, 256)));
    }
    let mut sys = b.build(42);
    sys.run_clients(Dur::secs(2));
    let m = sys.metrics();
    assert_eq!(
        m.completed,
        CLIENTS * UPDATES,
        "window {window}: clients wedged"
    );
    let acked = sys.acked_updates();
    let server = sys.world.node::<ServerLib>(sys.server);
    pmnet_core::audit::verify(server.audit_log(), &acked)
        .unwrap_or_else(|e| panic!("window {window}: audit failed: {e:?}"));
    assert_eq!(sys.stranded_log_entries(), 0, "window {window}");
    let c = sys.world.node::<PmnetDevice>(sys.devices[0]).counters();
    Point {
        window,
        completed: m.completed,
        mean_us: m.update_latency.mean().as_secs_f64() * 1e6,
        batches: c.batches_flushed,
        // Each flush is one fence for its whole window.
        fences_elided: c.batched_entries - c.batches_flushed,
        coalesced_acks: c.coalesced_acks,
        ack_packets: c.batch_ack_packets,
    }
}

#[test]
fn window_sweep_is_monotone_and_durable() {
    let points: Vec<Point> = [1u32, 4, 16, 64].iter().map(|&w| sweep_point(w)).collect();
    println!(
        "{:>6} {:>9} {:>9} {:>8} {:>7} {:>10} {:>8}",
        "window", "completed", "mean_us", "batches", "elided", "coalesced", "ack_pkts"
    );
    for p in &points {
        println!(
            "{:>6} {:>9} {:>9.2} {:>8} {:>7} {:>10} {:>8}",
            p.window,
            p.completed,
            p.mean_us,
            p.batches,
            p.fences_elided,
            p.coalesced_acks,
            p.ack_packets
        );
    }

    // Window 1 never stages: the batching machinery must be fully inert.
    assert_eq!(points[0].batches, 0);
    assert_eq!(points[0].fences_elided, 0);
    assert_eq!(points[0].coalesced_acks, 0);

    // Batching must engage from window 4 up and save a large share of
    // persist fences. (Exact counts are not monotone in the window: with
    // 8 closed-loop clients a wide window rarely fills before its
    // max_wait timer fires, so windows 16 and 64 land on the same flush
    // schedule, and window 4 — which flushes on the 4th entry — can pack
    // marginally better. The win saturates once the window exceeds the
    // number of concurrently in-flight updates.)
    for p in &points[1..] {
        assert!(p.batches > 0, "window {} never flushed a batch", p.window);
        // Every logged entry is either a batch's fence or an elided one.
        assert_eq!(
            p.batches + p.fences_elided,
            p.completed as u64,
            "window {}: staged entries must account for the workload",
            p.window
        );
        // At least half the per-entry fences must be amortized away.
        assert!(
            p.fences_elided * 2 >= p.completed as u64,
            "window {} elided only {} of {} fences",
            p.window,
            p.fences_elided,
            p.completed
        );
    }
}
