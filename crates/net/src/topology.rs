//! Topology construction helpers.
//!
//! The evaluation mostly uses a single rack (clients → merge switch → ToR
//! → server), but PMNet is a data-center design: devices route per
//! destination and log entries are keyed per server. These helpers wire a
//! star and validate the shard map of a sharded fabric before any node is
//! built.

use std::fmt;

use pmnet_sim::NodeId;

use crate::{Addr, LinkSpec, World};

/// One shard of a sharded fabric: the chain of device addresses serving
/// it, head first. A single-element chain is an unreplicated shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Device addresses in chain order (`[primary]` or `[primary, backup]`).
    pub devices: Vec<Addr>,
}

impl ShardSpec {
    /// A shard served by the given chain.
    pub fn chain(devices: Vec<Addr>) -> ShardSpec {
        ShardSpec { devices }
    }
}

/// Why a shard map cannot be built. Returned by [`validate_shards`] at
/// construction time, so a bad multi-device config fails with a typed
/// error instead of a panic (or a silently unroutable fabric) deep in the
/// runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The shard map has no shards at all: nothing could ever be steered.
    NoShards,
    /// Shard `{0}` has an empty device chain.
    EmptyShard(usize),
    /// The same device address appears twice (within one chain or across
    /// shards): routing tables key by address, so the second wiring would
    /// silently shadow the first.
    DuplicateDeviceAddr(Addr),
    /// Shard `{0}` names the reserved address `{1}` (a server, client, or
    /// fabric-switch address): packets steered to it would never reach a
    /// device, leaving the shard unreachable.
    UnreachableShard(usize, Addr),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoShards => write!(f, "shard map has no shards"),
            TopologyError::EmptyShard(i) => {
                write!(f, "shard {i} has an empty device chain")
            }
            TopologyError::DuplicateDeviceAddr(a) => {
                write!(f, "device address {a} appears in more than one chain slot")
            }
            TopologyError::UnreachableShard(i, a) => write!(
                f,
                "shard {i} is unreachable: {a} is a reserved (non-device) address"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Validates a shard map before any node is built: every shard must have
/// a non-empty chain of distinct device addresses, none of which collide
/// with `reserved` endpoint addresses (server, clients, fabric switches).
pub fn validate_shards(shards: &[ShardSpec], reserved: &[Addr]) -> Result<(), TopologyError> {
    if shards.is_empty() {
        return Err(TopologyError::NoShards);
    }
    let mut seen = std::collections::HashSet::new();
    for (i, shard) in shards.iter().enumerate() {
        if shard.devices.is_empty() {
            return Err(TopologyError::EmptyShard(i));
        }
        for &dev in &shard.devices {
            if reserved.contains(&dev) {
                return Err(TopologyError::UnreachableShard(i, dev));
            }
            if !seen.insert(dev) {
                return Err(TopologyError::DuplicateDeviceAddr(dev));
            }
        }
    }
    Ok(())
}

/// Connects every node in `leaves` to `center` with `spec` links.
pub fn star(world: &mut World, center: NodeId, leaves: &[NodeId], spec: LinkSpec) {
    for &leaf in leaves {
        world.connect(leaf, center, spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EchoHost, Switch};

    #[test]
    fn shard_validation_accepts_distinct_chains() {
        let shards = [
            ShardSpec::chain(vec![Addr(2000), Addr(2100)]),
            ShardSpec::chain(vec![Addr(2001), Addr(2101)]),
        ];
        assert_eq!(validate_shards(&shards, &[Addr(1000), Addr(5000)]), Ok(()));
    }

    #[test]
    fn shard_validation_rejects_an_empty_map() {
        assert_eq!(validate_shards(&[], &[]), Err(TopologyError::NoShards));
    }

    #[test]
    fn shard_validation_rejects_an_empty_chain() {
        let shards = [ShardSpec::chain(vec![Addr(2000)]), ShardSpec::chain(vec![])];
        assert_eq!(
            validate_shards(&shards, &[]),
            Err(TopologyError::EmptyShard(1))
        );
    }

    #[test]
    fn shard_validation_rejects_duplicate_device_addresses() {
        // Across shards.
        let shards = [
            ShardSpec::chain(vec![Addr(2000), Addr(2100)]),
            ShardSpec::chain(vec![Addr(2001), Addr(2100)]),
        ];
        assert_eq!(
            validate_shards(&shards, &[]),
            Err(TopologyError::DuplicateDeviceAddr(Addr(2100)))
        );
        // Within one chain.
        let shards = [ShardSpec::chain(vec![Addr(2000), Addr(2000)])];
        assert_eq!(
            validate_shards(&shards, &[]),
            Err(TopologyError::DuplicateDeviceAddr(Addr(2000)))
        );
    }

    #[test]
    fn shard_validation_rejects_reserved_addresses() {
        let shards = [ShardSpec::chain(vec![Addr(2000), Addr(1000)])];
        assert_eq!(
            validate_shards(&shards, &[Addr(1000)]),
            Err(TopologyError::UnreachableShard(0, Addr(1000)))
        );
    }

    #[test]
    fn topology_errors_render_for_diagnostics() {
        let e = TopologyError::UnreachableShard(2, Addr(5000));
        assert!(e.to_string().contains("shard 2"), "{e}");
        assert!(TopologyError::NoShards.to_string().contains("no shards"));
    }

    #[test]
    fn star_wires_one_port_per_leaf() {
        let mut w = World::new(1);
        let c = w.add_node(Box::new(Switch::new("hub")));
        let leaves: Vec<_> = (0..4)
            .map(|i| w.add_node(Box::new(EchoHost::sink(Addr(i + 1)))))
            .collect();
        star(&mut w, c, &leaves, LinkSpec::ten_gbps());
        assert_eq!(w.ports().port_count(c), 4);
    }
}
