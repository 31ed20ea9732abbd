//! Tests of the layout a built system takes from
//! [`system::addrs`](crate::system::addrs): every design
//! point, built at the plan's capacity and not run, has shard chains of
//! distinct devices, repeats no address or ack id, and puts no device or
//! logger on an address or id that belongs to another kind of node; one
//! past a capacity the builder refuses the design.

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use pmnet_net::{Addr, Node as _, Switch};
    use pmnet_sim::NodeId;

    use crate::alt::PeerLogger;
    use crate::system::{addrs, BuiltSystem, DesignPoint, UpdateExperiment};
    use crate::{ClientLib, PmnetDevice, ServerLib, SystemConfig};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        /// A client, the primary server or a fabric switch: the addresses
        /// no device or logger may take.
        Endpoint,
        Device,
        ReplicaServer,
        PeerLogger,
    }

    /// One node of a built system: its kind, address and ack id.
    type Placed = (Kind, Option<Addr>, Option<u8>);

    /// `design` with `clients` update clients, built and not run.
    fn built(design: DesignPoint, clients: usize) -> BuiltSystem {
        let experiment = UpdateExperiment::new(design, SystemConfig::default());
        experiment.clients(clients).builder().build(1)
    }

    /// Every node of `sys`, built for `design`.
    fn placed(design: DesignPoint, sys: &BuiltSystem) -> Vec<Placed> {
        let w = &sys.world;
        let server = |s: NodeId, kind| {
            let s = w.node::<ServerLib>(s);
            (kind, s.addr(), s.logger_id())
        };
        let mut nodes = vec![server(sys.server, Kind::Endpoint)];
        for &c in &sys.clients {
            nodes.push((Kind::Endpoint, w.node::<ClientLib>(c).addr(), None));
        }
        for &d in &sys.devices {
            let d = w.node::<PmnetDevice>(d);
            nodes.push((Kind::Device, d.addr(), Some(d.id())));
        }
        nodes.extend(sys.replicas.iter().map(|&r| match design {
            DesignPoint::ClientSideLog { .. } => {
                let p = w.node::<PeerLogger>(r);
                (Kind::PeerLogger, p.addr(), Some(p.id()))
            }
            _ => server(r, Kind::ReplicaServer),
        }));
        let switches = sys
            .path
            .iter()
            .filter(|&n| *n != sys.server && !sys.devices.contains(n));
        nodes.extend(switches.map(|&n| (Kind::Endpoint, w.node::<Switch>(n).addr(), None)));
        nodes
    }

    /// Every design point at its capacity, with its nodes. The client
    /// capacity itself cannot be built: a port number is a `u8`, so the
    /// merge switch takes 255 clients beside its uplink and
    /// `World::connect` refuses the next.
    fn at_capacity() -> Vec<(DesignPoint, Vec<Placed>)> {
        use DesignPoint::*;
        let cap = |n: usize| u8::try_from(n).unwrap();
        let (devices, shards) = (cap(addrs::DEVICES), cap(addrs::SHARDS));
        let (loggers, peers) = (cap(addrs::LOGGERS), cap(addrs::PEER_LOGGERS + 1));
        [
            (ClientServer, 255),
            (PmnetSwitch, 1),
            (PmnetNic, 1),
            (PmnetReplicated { devices }, 1),
            (ClientServerReplicated { replicas: u8::MAX }, 1),
            (ServerSideLog { replicas: loggers }, 1),
            (ClientSideLog { replicas: peers }, 1),
            (PmnetSharded { shards }, 1),
        ]
        .into_iter()
        .map(|(design, clients)| (design, placed(design, &built(design, clients))))
        .collect()
    }

    /// The sharded fabric at its capacity lists its devices shard by
    /// shard, primary before backup, each at the plan's address and id,
    /// and no device serves two chain slots.
    #[test]
    fn shard_validation_accepts_distinct_chains() {
        let shards = addrs::SHARDS;
        let design = DesignPoint::PmnetSharded {
            shards: u8::try_from(shards).unwrap(),
        };
        let sys = built(design, 1);
        let devices: Vec<(Addr, u8)> = sys
            .devices
            .iter()
            .map(|&d| {
                let d = sys.world.node::<PmnetDevice>(d);
                (d.addr().unwrap(), d.id())
            })
            .collect();
        let plan: Vec<(Addr, u8)> = (0..shards)
            .flat_map(|i| [addrs::device(i), addrs::shard_backup(i)])
            .collect();
        assert_eq!(devices, plan);
        for chain in devices.chunks(2) {
            assert_ne!(chain[0], chain[1], "a shard chains a device to itself");
        }
        let addresses: BTreeSet<Addr> = devices.iter().map(|d| d.0).collect();
        let ids: BTreeSet<u8> = devices.iter().map(|d| d.1).collect();
        assert_eq!((addresses.len(), ids.len()), (2 * shards, 2 * shards));
    }

    /// No design at its capacity gives two nodes one address, or two
    /// acknowledging nodes one ack id: routing tables key by address, and
    /// a client counts an update's replicas by distinct ack id.
    #[test]
    fn shard_validation_rejects_duplicate_device_addresses() {
        for (design, nodes) in at_capacity() {
            let addresses: BTreeSet<Addr> = nodes.iter().filter_map(|n| n.1).collect();
            let addressed = nodes.iter().filter(|n| n.1.is_some()).count();
            assert_eq!(addresses.len(), addressed, "{design:?}: an address repeats");
            let ids: BTreeSet<u8> = nodes.iter().filter_map(|n| n.2).collect();
            let acking = nodes.iter().filter(|n| n.2.is_some()).count();
            assert_eq!(ids.len(), acking, "{design:?}: an ack id repeats");
        }
    }

    /// No design at its capacity puts a device, replica server or peer
    /// logger on a client, server or fabric-switch address, and exactly
    /// the peer loggers' ids sit at or above the peer-logger base, so an
    /// ack is never counted as the wrong kind of copy.
    #[test]
    fn shard_validation_rejects_reserved_addresses() {
        for (design, nodes) in at_capacity() {
            let reserved: BTreeSet<Addr> = nodes
                .iter()
                .filter(|n| n.0 == Kind::Endpoint)
                .filter_map(|n| n.1)
                .collect();
            for (kind, addr, id) in nodes {
                if kind != Kind::Endpoint {
                    let addr = addr.unwrap();
                    assert!(
                        !reserved.contains(&addr),
                        "{design:?}: {kind:?} at {addr:?}"
                    );
                }
                let peer_side = id.map(|id| id >= addrs::PEER_LOGGER_ID_BASE);
                let peer = kind == Kind::PeerLogger;
                assert!(
                    peer_side.is_none_or(|p| p == peer),
                    "{design:?}: {kind:?} id {id:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "the address plan numbers at most 999 clients, not 1000")]
    fn a_thousandth_client_is_refused_before_it_takes_the_servers_address() {
        built(DesignPoint::ClientServer, 1000);
    }

    #[test]
    #[should_panic(expected = "the address plan numbers at most 56 peer loggers, not 57")]
    fn a_57th_peer_logger_is_refused_before_its_id_overflows() {
        built(DesignPoint::ClientSideLog { replicas: 58 }, 1);
    }

    #[test]
    #[should_panic(expected = "the address plan numbers at most 100 server-side loggers, not 101")]
    fn a_101st_server_side_logger_is_refused_before_its_id_reads_as_a_peer_logger() {
        built(DesignPoint::ServerSideLog { replicas: 101 }, 1);
    }

    #[test]
    #[should_panic(expected = "the address plan numbers at most 99 shards, not 100")]
    fn a_100th_shard_is_refused_before_its_backup_id_reads_as_a_peer_logger() {
        built(DesignPoint::PmnetSharded { shards: 100 }, 1);
    }

    #[test]
    #[should_panic(expected = "the address plan numbers at most 199 chained devices, not 200")]
    fn a_200th_chained_device_is_refused_before_its_id_reads_as_a_peer_logger() {
        built(DesignPoint::PmnetReplicated { devices: 200 }, 1);
    }
}
