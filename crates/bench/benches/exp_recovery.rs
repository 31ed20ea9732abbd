//! Section VI-B6: recovering from server failures.
//!
//! Paper: with the network saturated (worst case: the maximum number of
//! logged requests), resending a single request takes ~67 us, draining the
//! whole log ~4.4 s, and the entire recovery (resend + application
//! recovery) at most 9.3 s — a small fraction of a 2–3 minute boot.
//!
//! The simulated log is Eq.-1 sized rather than multi-gigabyte, so the
//! absolute drain time scales with the number of pending entries; the
//! per-request resend time and the "recovery ≪ reboot" conclusion are the
//! reproduction targets.

use bytes::Bytes;
use pmnet_bench::{banner, row, us};
use pmnet_core::api::{update, ScriptSource};
use pmnet_core::kvproto::KvFrame;
use pmnet_core::server::ServerLib;
use pmnet_core::system::{DesignPoint, SystemBuilder};
use pmnet_core::{PmnetDevice, SystemConfig};
use pmnet_sim::{Dur, Time};
use pmnet_workloads::KvHandler;

/// Below this many first recovery resends the barrier's fixed round trip
/// outweighs the resends themselves, so no per-request figure is printed.
const MIN_RESENDS: u64 = 100;

fn set_frame(i: u32) -> Bytes {
    KvFrame::Set {
        key: format!("key{i}").into_bytes().into(),
        value: i.to_le_bytes().to_vec().into(),
    }
    .encode()
}

fn main() {
    banner(
        "Section VI-B6",
        "Server power-failure recovery via the in-network redo log",
    );
    row(&[
        "pending".into(),
        "resend/req".into(),
        "redo drain".into(),
        "app recovery".into(),
        "intact".into(),
    ]);
    for &n in &[100u32, 400, 1000] {
        let script: Vec<_> = (0..n).map(|i| update(set_frame(i))).collect();
        let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, SystemConfig::default())
            .client(Box::new(ScriptSource::new(script)))
            .handler_factory(|| Box::new(KvHandler::new("btree", 1)))
            .build(21);
        let server_id = sys.server;
        let dev_id = sys.devices[0];
        // Crash early so most of the workload is still logged, restore
        // after a short outage.
        sys.world
            .schedule_crash(server_id, Time::ZERO + Dur::millis(1), Some(Dur::millis(5)));
        sys.run_clients(Dur::secs(120));
        sys.world.run_for(Dur::millis(500));

        // The drain runs from the poll to the closed barrier, over the
        // log's first recovery resends: a redo copy the server applies
        // after the barrier (a retry racing its own resend) is not part of
        // it.
        let resends = sys
            .world
            .node::<PmnetDevice>(dev_id)
            .counters()
            .recovery_resends;
        let server = sys.world.node_mut::<ServerLib>(server_id);
        let rec = server.recovery().expect("server recovered");
        assert!(rec.barrier_done_at < Time::MAX, "barrier closed");
        let drain = rec.barrier_done_at.saturating_since(rec.polled_at);
        let app = rec.polled_at.saturating_since(rec.restored_at);
        let per_req = if resends >= MIN_RESENDS {
            us(drain / resends)
        } else {
            "n/a".into()
        };
        let handler = server
            .handler_mut()
            .as_any_mut()
            .downcast_mut::<KvHandler>()
            .expect("kv handler");
        let mut intact = 0;
        for i in 0..n {
            if handler.peek(format!("key{i}").as_bytes()) == Some(i.to_le_bytes().to_vec()) {
                intact += 1;
            }
        }
        let dev = sys.world.node::<PmnetDevice>(dev_id);
        row(&[
            format!("{} redo / {resends} resent", rec.redo_applied),
            per_req,
            format!("{drain}"),
            format!("{app}"),
            format!("{intact}/{n} ({} in log)", dev.log_len()),
        ]);
    }
    println!();
    println!("paper: ~67 us per resent request; full recovery (resend + app)");
    println!("       seconds-scale, a small fraction of the 2-3 min reboot.");
}
