//! Checking an assembled system's run.
//!
//! Attach one [`Telemetry::checking`] handle before running the world
//! (`BuiltSystem::attach_telemetry`, or `TrafficSystem::attach_telemetry`
//! for the open-loop driver): every client host, the primary server and
//! every PMNet device then record into its history. After the run,
//! [`check_system`] snapshots the server's durable KV state and hands the
//! history to the checker.

use std::collections::BTreeMap;

use pmnet_core::server::ServerLib;
use pmnet_net::{NodeId, World};
use pmnet_telemetry::Telemetry;
use pmnet_workloads::KvHandler;

use crate::checker::{check, CheckStats, Divergence};

/// Snapshots the durable KV state of the server at `server` (workload keys
/// plus the `0x00` applied-sequence table). `None` when the server is
/// still crashed or the handler is not the KV handler.
pub fn snapshot_server_state(world: &World, server: NodeId) -> Option<BTreeMap<Vec<u8>, Vec<u8>>> {
    let kv = world
        .node::<ServerLib>(server)
        .handler()
        .as_any()
        .downcast_ref::<KvHandler>()?
        .kv()?;
    let mut map = BTreeMap::new();
    kv.for_each(&mut |k, v| {
        map.insert(k.to_vec(), v.to_vec());
    });
    Some(map)
}

/// Runs the checker over a finished run: the history `telemetry` recorded
/// plus the durable state of the server at `server`.
pub fn check_system(
    world: &World,
    server: NodeId,
    telemetry: &Telemetry,
) -> Result<CheckStats, Divergence> {
    let durable = snapshot_server_state(world, server);
    check(&telemetry.history(), durable.as_ref())
}
