//! Scaling gates: the two simulated-time claims no other test or
//! `benchmark/` workload covers. Both are deterministic (simulated Gbps
//! and simulated ops/sec at fixed seeds), so they are exact asserts
//! rather than noise-tolerant baselines.
//!
//! 1. **Fabric saturation** — the 1/2/4-chain sweep behind the paper's
//!    Figure 16 knee, like for like (every point a replicated chain, one
//!    chain included): capacity grows with the chain count.
//! 2. **Lock fraction** — Section III-C's TPCC observation (~13.7 % of
//!    requests hit the locking primitive) against the apply pool: four
//!    apply workers must outscale one even with that fraction of writes
//!    serialized on one hot key.

use bytes::Bytes;
use pmnet::core::client::{AppRequest, RequestKind, RequestSource};
use pmnet::core::config::{ApplyConfig, SystemConfig};
use pmnet::core::kvproto::KvFrame;
use pmnet::core::server::ServerLib;
use pmnet::core::system::{DesignPoint, SystemBuilder, UpdateExperiment};
use pmnet::sim::{Dur, SimRng, Time};
use pmnet::workloads::KvHandler;

/// Saturation throughput of the sharded fabric: sweep the offered load
/// (closed-loop client count) and keep the peak. Past the knee this
/// simulator degrades rather than plateaus, so the peak over the sweep
/// *is* the saturation point — a single client count would under-read
/// whichever design it doesn't suit.
fn fabric_saturation(shards: u8) -> f64 {
    let design = DesignPoint::PmnetSharded { shards };
    let cfg = SystemConfig::default();
    [32usize, 40, 48, 56, 64]
        .into_iter()
        .map(|clients| {
            let experiment = UpdateExperiment::new(design, cfg).clients(clients);
            experiment
                .payload_bytes(1024)
                .stress_point(Dur::millis(2), 3)
                .0
        })
        .fold(0.0, f64::max)
}

#[test]
fn fabric_saturation_scales_with_shards() {
    let sat1 = fabric_saturation(1);
    let sat2 = fabric_saturation(2);
    let sat4 = fabric_saturation(4);
    // Every point is a primary/backup chain, so the sweep isolates what a
    // chain count buys. It buys less than NetChain's scale-free growth:
    // 1.07x at two chains, 1.41x at four (ROADMAP item 5(a) asks why).
    assert!(
        sat2 > sat1,
        "two chains must carry more than one \
         ({sat2:.3} vs {sat1:.3} Gbps; measured 5.974 vs 5.592 at PR 21)"
    );
    assert!(
        sat4 > 1.2 * sat2,
        "four chains must scale past two \
         ({sat4:.3} vs {sat2:.3} Gbps; measured 7.874 vs 5.974 at PR 21)"
    );
}

/// A 100%-update KV write mix with the paper's TPCC lock fraction: that
/// fraction of Sets lands on one hot shared key — serialized by the apply
/// pool's same-key write fences, the simulator's analogue of the lock —
/// while the rest spread over per-client key ranges and apply in
/// parallel.
#[derive(Debug)]
struct LockMixSource {
    remaining: usize,
    client: usize,
    issued: usize,
}

const LOCK_PERMILLE: u64 = 137;

impl RequestSource for LockMixSource {
    fn next_request(&mut self, rng: &mut SimRng) -> Option<AppRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.issued += 1;
        let key = if rng.uniform_u64(0..1000) < LOCK_PERMILLE {
            Bytes::from_static(b"lock:hot")
        } else {
            Bytes::from(format!("c{}:k{}", self.client, self.issued % 64).into_bytes())
        };
        let mut value = vec![0u8; 128];
        rng.fill_bytes(&mut value);
        Some(AppRequest {
            kind: RequestKind::Update,
            payload: KvFrame::Set {
                key,
                value: Bytes::from(value),
            }
            .encode(),
        })
    }
}

/// Runs the lock-fraction mix against a real KV server applying on
/// `apply_threads` workers and scores completed operations per *simulated*
/// second. `server_workers` is pinned to 1 so the baseline is a genuine
/// single-core server: `apply_threads: 1` serializes every apply on that
/// core, while the pool's own workers provide the multi-core overlap under
/// test. Returns (ops/sim-sec, same-key fences).
fn lock_fraction_ops_per_sim_sec(apply_threads: u32, clients: usize, updates: usize) -> (f64, u64) {
    let cfg = SystemConfig {
        apply: ApplyConfig::threaded(apply_threads).with_sched_seed(7),
        server_workers: 1,
        ..SystemConfig::default()
    };
    // TPCC-style transaction work on top of the raw index op, so apply —
    // not the wire — is the bottleneck the extra cores relieve.
    let mut b = SystemBuilder::new(DesignPoint::PmnetSwitch, cfg)
        .handler_factory(|| Box::new(KvHandler::new("btree", 5).with_extra_cost(Dur::micros(10))));
    for client in 0..clients {
        b = b.client(Box::new(LockMixSource {
            remaining: updates,
            client,
            issued: 0,
        }));
    }
    let mut sys = b.build(11);
    sys.run_clients(Dur::secs(120));
    let m = sys.metrics();
    assert_eq!(
        m.completed,
        clients * updates,
        "lock-fraction workload must finish (threads {apply_threads})"
    );
    // PMNet acks from the network, so client completion never waits for
    // the server cores — the clients finish while apply work is still
    // queued. Drain it, then score against the *apply makespan*
    // (`ServerLib::apply_busy_until`): the instant the last worker goes
    // idle is what extra cores shrink.
    sys.world.run_to_quiescence(10_000_000);
    let server = sys.world.node::<ServerLib>(sys.server);
    assert_eq!(
        server.counters().updates_applied,
        (clients * updates) as u64,
        "apply backlog never drained: pool {}",
        server.pool_debug()
    );
    let fences = server.counters().apply_key_fences;
    let sim_secs = (server.apply_busy_until() - Time::ZERO).as_nanos() as f64 / 1e9;
    (m.completed as f64 / sim_secs.max(1e-12), fences)
}

#[test]
fn four_apply_threads_outscale_one_under_the_tpcc_lock_fraction() {
    let (clients, updates) = (24, 60);
    let (ops_1, _) = lock_fraction_ops_per_sim_sec(1, clients, updates);
    let (ops_4, fences) = lock_fraction_ops_per_sim_sec(4, clients, updates);
    let scaling = ops_4 / ops_1;
    assert!(
        scaling > 1.5,
        "4 apply threads must outscale 1 under the lock-fraction mix \
         ({ops_4:.0} vs {ops_1:.0} ops/sim-s, {scaling:.2}x; measured 2.67x at PR 17); \
         Amdahl puts the ceiling near 3x at a 13.7% serial fraction"
    );
    // Else the gate is vacuous: the hot key must actually have forced
    // cross-worker fences.
    assert!(
        fences > 0,
        "the hot-key writes must exercise the pool's same-key fences \
         (measured 195 at PR 17)"
    );
}
