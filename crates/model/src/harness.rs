//! Wiring the recorder and checker onto an assembled system.
//!
//! [`attach`] arms one shared [`Recorder`] on every recording-capable
//! node of a [`BuiltSystem`] (clients, the primary server, PMNet
//! devices); after the run, [`check_system`] snapshots the server's
//! durable KV state and hands the history to the checker.

use std::collections::BTreeMap;

use pmnet_core::client::ClientLib;
use pmnet_core::device::PmnetDevice;
use pmnet_core::events::Recorder;
use pmnet_core::server::ServerLib;
use pmnet_core::system::{BuiltSystem, DesignPoint};
use pmnet_workloads::KvHandler;

use crate::checker::{check, CheckStats, CheckerConfig, Divergence};

/// Arms a fresh shared recorder on every client, the primary server, and
/// every PMNet device of `sys`. Call before running the world; the
/// returned recorder reads back the combined history.
pub fn attach(sys: &mut BuiltSystem) -> Recorder {
    let rec = Recorder::new();
    for &c in &sys.clients {
        sys.world.node_mut::<ClientLib>(c).set_recorder(rec.clone());
    }
    sys.world
        .node_mut::<ServerLib>(sys.server)
        .set_recorder(rec.clone());
    for &d in &sys.devices {
        sys.world
            .node_mut::<PmnetDevice>(d)
            .set_recorder(rec.clone());
    }
    rec
}

/// The checker configuration appropriate for a design point: client-side
/// logging completes on peer-logger ACKs, which are outside the recorded
/// event vocabulary, so ack-evidence rules are disabled there.
pub fn config_for(design: DesignPoint) -> CheckerConfig {
    CheckerConfig {
        require_ack_evidence: !matches!(design, DesignPoint::ClientSideLog { .. }),
    }
}

/// Snapshots the primary server's durable KV state (workload keys plus
/// the `0x00` applied-sequence table). `None` when the server is still
/// crashed or the handler is not the KV handler.
pub fn snapshot_server_state(sys: &BuiltSystem) -> Option<BTreeMap<Vec<u8>, Vec<u8>>> {
    let kv = sys
        .world
        .node::<ServerLib>(sys.server)
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

/// Runs the checker over a finished system: the recorded history plus the
/// server's durable state, under `cfg`.
pub fn check_system_with(
    sys: &BuiltSystem,
    recorder: &Recorder,
    cfg: CheckerConfig,
) -> Result<CheckStats, Divergence> {
    let durable = snapshot_server_state(sys);
    check(&recorder.history(), durable.as_ref(), cfg)
}

/// [`check_system_with`] under the default configuration.
pub fn check_system(sys: &BuiltSystem, recorder: &Recorder) -> Result<CheckStats, Divergence> {
    check_system_with(sys, recorder, CheckerConfig::default())
}
