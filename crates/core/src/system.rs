//! System assembly and experiment running.
//!
//! Builds the paper's design points (Section VI-A4) as simulated
//! topologies and runs closed-loop clients against them, collecting the
//! metrics the evaluation figures report. This module is the only place
//! a world is assembled ([`SystemBuilder::build`]) and the only place one
//! is driven ([`drive`]); every other harness — the open-loop traffic
//! engine, the chaos runner, the figures table — builds through the one
//! and steps through the other (DESIGN.md §21).
//!
//! Topologies (all links 10 Gbps unless overridden):
//!
//! ```text
//! Client-Server : clients ── merge-switch ── tor-switch ── server
//! PMNet-Switch  : clients ── merge-switch ── PMNet(ToR) ── server
//! PMNet-NIC     : clients ── merge-switch ── tor-switch ── PMNet ── server
//! PMNet-Repl(n) : clients ── merge ── PMNet#1 ── … ── PMNet#n ── server
//! CS-Repl(r)    : Client-Server + (r−1) silent replicas on the ToR
//! ServerLog(r)  : Client-Server, primary logs at kernel + (r−1) replica
//!                 logger-servers on the ToR
//! ClientLog(r)  : Client-Server + (r−1) peer loggers on the merge switch
//! Sharded(n)    : clients ── merge-fabric ──╥ P_i ══ B_i ╥── tor-fabric ── server
//!                 (n chains; merge steers updates to shard heads, tor
//!                 steers replies through shard tails)
//! ```

use bytes::{BufMut, BytesMut};
use pmnet_net::{Addr, AnyNode, Node as _, PortNo, Switch, World};
use pmnet_sim::stats::{CounterSet, LatencyHistogram};
use pmnet_sim::{Dur, NodeId, SimRng, Time};
use pmnet_telemetry::registry::Registry;
use pmnet_telemetry::Telemetry;

use crate::alt::{PeerLogger, LOCAL_LOG_PERSIST};
use crate::client::{
    AppRequest, ClientLib, ClientMode, ClientRetryCounters, RequestKind, RequestSource,
};
use crate::config::SystemConfig;
use crate::device::{DeviceFabric, DeviceRole, PmnetDevice};
use crate::fabric::{FabricMap, FabricSteering, ShardChain, SteerSide};
use crate::server::{IdealHandler, RequestHandler, ServerLib};

/// Silence past this long declares a chain member fail-stop.
const FABRIC_HEARTBEAT_TIMEOUT: Dur = Dur::micros(400);
/// The coordinator's watchdog sweep period.
const FABRIC_CHECK_INTERVAL: Dur = Dur::micros(100);

/// The evaluated system designs (Sections VI-A4 and VI-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignPoint {
    /// PMNet in the server rack's ToR switch.
    PmnetSwitch,
    /// PMNet as the server's (bump-in-the-wire) NIC.
    PmnetNic,
    /// The traditional baseline.
    ClientServer,
    /// PMNet with `devices` chained switches (in-network replication,
    /// Section IV-C). `devices = 1` degenerates to PMNet-Switch.
    PmnetReplicated {
        /// Number of chained PMNet devices (= replication factor).
        devices: u8,
    },
    /// Baseline with user-level replication to `replicas` servers total.
    ClientServerReplicated {
        /// Total copies (primary + backups).
        replicas: u8,
    },
    /// Figure 17b: server-side kernel-level logging, replicated across
    /// `replicas` logger-servers total.
    ServerSideLog {
        /// Total logger copies (primary + backups).
        replicas: u8,
    },
    /// Figure 17a: client-side logging, replicated across `replicas`
    /// loggers total (1 local + peers).
    ClientSideLog {
        /// Total logger copies (local + peers).
        replicas: u8,
    },
    /// A sharded PMNet fabric: the client/session space is consistent-hash
    /// partitioned across `shards` device chains (primary + chained
    /// backup each), with heartbeat-driven failover that never loses a
    /// client-acked update. `shards = 1` is one replicated chain, the
    /// like-for-like base of a shard-count sweep.
    PmnetSharded {
        /// Number of shards (each a primary/backup device chain).
        shards: u8,
    },
}

/// The address plan: every node's [`Addr`], and every acknowledging
/// node's ack id, by kind and design-local index, with how many of each
/// kind it numbers. A client counts distinct ack ids (paper Section
/// IV-C) and tells a PMNet device (or server-side logger) from a peer
/// logger by which side of [`PEER_LOGGER_ID_BASE`](addrs::PEER_LOGGER_ID_BASE)
/// its id falls on, so the ids are protocol state. Within its kind's
/// capacity an index collides with no other address or id of its design;
/// [`SystemBuilder::build`] checks a design against the capacities before
/// it builds a node.
pub mod addrs {
    use pmnet_net::Addr;

    use super::DesignPoint;

    /// The server.
    pub const SERVER: Addr = Addr(1000);
    /// First client; client `i` is `CLIENT_BASE + i`.
    pub const CLIENT_BASE: u32 = 1;
    /// First PMNet device; device `i` is `DEVICE_BASE + i`.
    pub const DEVICE_BASE: u32 = 2000;
    const SHARD_BACKUP_BASE: u32 = 2100;
    const REPLICA_BASE: u32 = 3000;
    const PEER_BASE: u32 = 4000;
    /// The client-side fabric switch (sharded designs).
    pub const MERGE_SWITCH: Addr = Addr(5000);
    /// The server-side fabric switch (sharded designs).
    pub const TOR_SWITCH: Addr = Addr(5001);

    /// Ack ids at or above this are client-side peer loggers; below it,
    /// PMNet devices and server-side loggers.
    pub const PEER_LOGGER_ID_BASE: u8 = 200;

    /// Clients: client 999 would be [`SERVER`]. No design builds that
    /// many: the merge switch's ports bind first ([`MERGE_LINKS`]).
    pub const CLIENTS: usize = 999;
    /// Links on the merge switch, whose port numbers are a `u8`: one per
    /// client, the uplink, two per shard and one per peer logger, so
    /// 255 clients at most and fewer beside shards or peer loggers.
    pub const MERGE_LINKS: usize = 256;
    /// Chained devices: their ids `1..=199` stay below the peer loggers'.
    pub const DEVICES: usize = 199;
    /// Shards: the backups' ids `101..=199` stay below the peer loggers'.
    pub const SHARDS: usize = 99;
    /// Server-side loggers, the primary server included: ids `100..=199`.
    pub const LOGGERS: usize = 100;
    /// Peer loggers: ids `200..=255`. Replica servers need no capacity:
    /// a `u8` count of them ends at address 3254.
    pub const PEER_LOGGERS: usize = 56;

    /// The address of client `i`.
    pub fn client(i: usize) -> Addr {
        Addr(CLIENT_BASE + i as u32)
    }

    /// Device `i` of a chain, or shard `i`'s primary: address and ack id.
    pub fn device(i: usize) -> (Addr, u8) {
        (Addr(DEVICE_BASE + i as u32), 1 + i as u8)
    }

    /// Shard `i`'s backup device: address and ack id.
    pub fn shard_backup(i: usize) -> (Addr, u8) {
        (Addr(SHARD_BACKUP_BASE + i as u32), 101 + i as u8)
    }

    /// Replica server `i`, counting the primary (at [`SERVER`]) as 0.
    pub fn replica(i: usize) -> Addr {
        Addr(REPLICA_BASE + i as u32)
    }

    /// The ack id of server-side logger `i`: the server for 0, replica
    /// server `i` after it.
    pub fn logger_id(i: usize) -> u8 {
        100 + i as u8
    }

    /// Peer logger `i`: address and ack id.
    pub fn peer_logger(i: usize) -> (Addr, u8) {
        (Addr(PEER_BASE + i as u32), PEER_LOGGER_ID_BASE + i as u8)
    }

    /// Whether `clients` clients and `design`'s nodes fit the plan; the
    /// error names the first capacity they exceed.
    pub fn check(design: DesignPoint, clients: usize) -> Result<(), String> {
        let (count, kind, capacity) = match design {
            DesignPoint::PmnetReplicated { devices } => (devices, "chained devices", DEVICES),
            DesignPoint::PmnetSharded { shards } => (shards, "shards", SHARDS),
            DesignPoint::ServerSideLog { replicas } => (replicas, "server-side loggers", LOGGERS),
            DesignPoint::ClientSideLog { replicas } => {
                (replicas.saturating_sub(1), "peer loggers", PEER_LOGGERS)
            }
            // One device, or replica servers without ids: a `u8` fits.
            _ => (0, "other nodes", 0),
        };
        let beside_clients = match design {
            DesignPoint::PmnetSharded { shards } => 1 + 2 * usize::from(shards),
            DesignPoint::ClientSideLog { .. } => 1 + usize::from(count),
            _ => 1,
        };
        for (count, kind, capacity) in [
            (clients, "clients", CLIENTS),
            (usize::from(count), kind, capacity),
            (clients + beside_clients, "merge-switch links", MERGE_LINKS),
        ] {
            if count > capacity {
                return Err(format!(
                    "the address plan numbers at most {capacity} {kind}, not {count}"
                ));
            }
        }
        Ok(())
    }
}

/// An assembled system ready to run.
#[derive(Debug)]
pub struct BuiltSystem {
    /// The simulated world.
    pub world: World,
    /// Client node ids, in client order.
    pub clients: Vec<NodeId>,
    /// The (primary) server node.
    pub server: NodeId,
    /// PMNet device nodes, client-side first.
    pub devices: Vec<NodeId>,
    /// Replica servers / peer loggers, if any.
    pub replicas: Vec<NodeId>,
    /// The merge switch every client connects to.
    pub merge: NodeId,
    /// The backbone from the merge switch to the server, inclusive and in
    /// order; consecutive pairs are the links on the client→server path.
    /// Fault injectors (see `pmnet-chaos`) use this to aim link faults.
    pub path: Vec<NodeId>,
    /// Nodes beyond the clients that need a kick-off signal (the sharded
    /// fabric's coordinator and its heartbeat-bearing devices). Empty for
    /// the classic designs, whose event streams — and therefore golden
    /// digests — must stay byte-stable.
    pub start_nodes: Vec<NodeId>,
}

/// Who the clients are: the builder's own [`ClientLib`]s, one per request
/// source, or `n` nodes of any type from a per-index factory.
enum Clients {
    Sources(Vec<Box<dyn RequestSource>>),
    Nodes(usize, Box<dyn FnMut(usize) -> Box<dyn AnyNode>>),
}

impl Clients {
    fn len(&self) -> usize {
        match self {
            Clients::Sources(sources) => sources.len(),
            Clients::Nodes(n, _) => *n,
        }
    }
}

/// Builds systems for a design point.
pub struct SystemBuilder {
    design: DesignPoint,
    config: SystemConfig,
    use_tcp: bool,
    warmup: usize,
    clients: Clients,
    handler_factory: Box<dyn FnMut() -> Box<dyn RequestHandler>>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("design", &self.design)
            .field("clients", &self.clients.len())
            .finish()
    }
}

/// The one place a server is made from the configuration. Replicas stop
/// here; the primary goes on to take the device list, the recovery and
/// gap knobs and the batch window.
fn server_from(cfg: &SystemConfig, addr: Addr, handler: Box<dyn RequestHandler>) -> ServerLib {
    ServerLib::new(
        addr,
        cfg.server,
        cfg.server_workers,
        cfg.gap_timeout,
        handler,
    )
    .with_apply(cfg.apply)
}

/// Where server-side logger `i` of `replicas` forwards: replication is a
/// chain (Figure 17b), the primary (0) to replica 1, 1 to 2, and so on.
fn log_chain_next(replicas: u8, i: usize) -> Vec<Addr> {
    Vec::from_iter((i + 1 < usize::from(replicas)).then(|| addrs::replica(i + 1)))
}

/// The one place a device is made from the configuration.
fn device_from(cfg: &SystemConfig, name: String, id: u8, addr: Addr) -> PmnetDevice {
    PmnetDevice::new(name, id, addr, cfg.device).with_batch(cfg.batch)
}

impl SystemBuilder {
    /// Starts a builder for `design` with the given calibration.
    pub fn new(design: DesignPoint, config: SystemConfig) -> SystemBuilder {
        SystemBuilder {
            design,
            config,
            use_tcp: false,
            warmup: 0,
            clients: Clients::Sources(Vec::new()),
            handler_factory: Box::new(|| Box::new(IdealHandler::new())),
        }
    }

    /// Adds a client driven by `source`.
    ///
    /// # Panics
    ///
    /// Panics after [`client_nodes`](Self::client_nodes): a system's
    /// clients are the builder's own or the caller's, not a mix.
    pub fn client(mut self, source: Box<dyn RequestSource>) -> SystemBuilder {
        match &mut self.clients {
            Clients::Sources(sources) => sources.push(source),
            Clients::Nodes(..) => panic!("client() after client_nodes()"),
        }
        self
    }

    /// Makes the clients `n` nodes of the caller's own type: `node(i)`
    /// sits where client `i` would (address [`addrs::client`]`(i)`, same
    /// node id, same access link) and replaces every `client` source.
    /// [`tcp`](Self::tcp) and [`warmup`](Self::warmup) configure the
    /// builder's own [`ClientLib`]s and do not reach these nodes, and of
    /// the built system only the fields and [`drive`] apply to them — the
    /// [`BuiltSystem`] methods that read clients back downcast to
    /// `ClientLib`.
    pub fn client_nodes(
        mut self,
        n: usize,
        node: impl FnMut(usize) -> Box<dyn AnyNode> + 'static,
    ) -> SystemBuilder {
        self.clients = Clients::Nodes(n, Box::new(node));
        self
    }

    /// Sets the factory producing the server(s') request handler.
    pub fn handler_factory(
        mut self,
        f: impl FnMut() -> Box<dyn RequestHandler> + 'static,
    ) -> SystemBuilder {
        self.handler_factory = Box::new(f);
        self
    }

    /// Clients speak TCP (baseline Redis/Twitter/TPCC).
    pub fn tcp(mut self, yes: bool) -> SystemBuilder {
        self.use_tcp = yes;
        self
    }

    /// Number of leading completions each client excludes from statistics.
    pub fn warmup(mut self, n: usize) -> SystemBuilder {
        self.warmup = n;
        self
    }

    fn client_mode(&self) -> ClientMode {
        match self.design {
            DesignPoint::ClientServer | DesignPoint::ClientServerReplicated { .. } => {
                ClientMode::Baseline
            }
            DesignPoint::PmnetSwitch | DesignPoint::PmnetNic => {
                ClientMode::Pmnet { needed_acks: 1 }
            }
            // One ack completes: the primary only acks once the chain has
            // the update durably twice, and a server ack is stronger still.
            DesignPoint::PmnetSharded { .. } => ClientMode::Pmnet { needed_acks: 1 },
            DesignPoint::PmnetReplicated { devices } => ClientMode::Pmnet {
                needed_acks: devices,
            },
            DesignPoint::ServerSideLog { replicas } => ClientMode::Pmnet {
                needed_acks: replicas,
            },
            DesignPoint::ClientSideLog { replicas } => ClientMode::ClientSideLog {
                peers: (0..usize::from(replicas.saturating_sub(1)))
                    .map(addrs::peer_logger)
                    .collect(),
                local_persist: LOCAL_LOG_PERSIST,
            },
        }
    }

    /// Assembles the world. `seed` fixes all randomness.
    ///
    /// # Panics
    ///
    /// Panics when [`SystemConfig::validate`] rejects the configuration —
    /// a nonsensical retry/recovery knob would wedge or spin the run,
    /// which is much harder to diagnose than failing here — and when the
    /// clients or the design's nodes outnumber what [`addrs`] numbers.
    pub fn build(mut self, seed: u64) -> BuiltSystem {
        let client_count = self.clients.len();
        assert!(client_count > 0, "need at least one client");
        if let Err(e) = addrs::check(self.design, client_count) {
            panic!("{e}");
        }
        if let Err(e) = self.config.validate() {
            panic!("invalid SystemConfig: {e}");
        }
        // Every device's address and ack id, in the order the server
        // lists them: a sharded fabric's is shard order, primary before
        // backup — `FabricMap::live_members` on the fresh fabric.
        let device_plan: Vec<(Addr, u8)> = match self.design {
            DesignPoint::PmnetSwitch | DesignPoint::PmnetNic => vec![addrs::device(0)],
            DesignPoint::PmnetReplicated { devices } => {
                (0..usize::from(devices)).map(addrs::device).collect()
            }
            DesignPoint::PmnetSharded { shards } => (0..usize::from(shards))
                .flat_map(|i| [addrs::device(i), addrs::shard_backup(i)])
                .collect(),
            _ => Vec::new(),
        };
        let shard_chains: Vec<ShardChain> = match self.design {
            DesignPoint::PmnetSharded { .. } => device_plan
                .chunks(2)
                .map(|pair| ShardChain {
                    primary: pair[0].0,
                    backup: Some(pair[1].0),
                })
                .collect(),
            _ => Vec::new(),
        };
        let cfg = self.config;
        let mode = self.client_mode();
        let mut world = World::new(seed);

        // Clients.
        let mut clients = Vec::new();
        match self.clients {
            Clients::Sources(sources) => {
                for (i, source) in sources.into_iter().enumerate() {
                    let mut c = ClientLib::new(
                        addrs::client(i),
                        addrs::SERVER,
                        i as u16,
                        mode.clone(),
                        cfg.client,
                        cfg.client_timeout,
                        cfg.retry,
                        source,
                    )
                    .with_warmup(self.warmup);
                    if self.use_tcp {
                        c = c.with_tcp();
                    }
                    clients.push(world.add_node(Box::new(c)));
                }
            }
            Clients::Nodes(n, mut node) => clients.extend((0..n).map(|i| world.add_node(node(i)))),
        }

        // Server(s).
        let mut replicas = Vec::new();
        let server = {
            let mut s = server_from(&cfg, addrs::SERVER, (self.handler_factory)())
                .with_devices(device_plan.iter().map(|&(addr, _)| addr).collect())
                .with_recovery_poll_timeout(cfg.recovery_poll_timeout)
                .with_gap_skip_rounds(cfg.gap_skip_rounds)
                .with_batch(cfg.batch);
            match self.design {
                DesignPoint::ClientServerReplicated { replicas: r } => {
                    s = s.with_replication((1..usize::from(r)).map(addrs::replica).collect());
                }
                DesignPoint::ServerSideLog { replicas: r } => {
                    s = s.with_early_log(addrs::logger_id(0), log_chain_next(r, 0));
                }
                DesignPoint::PmnetSharded { .. } => {
                    s = s.with_fabric(
                        FabricMap::new(shard_chains.clone()),
                        addrs::MERGE_SWITCH,
                        addrs::TOR_SWITCH,
                        (0..client_count).map(addrs::client).collect(),
                        FABRIC_HEARTBEAT_TIMEOUT,
                        FABRIC_CHECK_INTERVAL,
                    );
                }
                _ => {}
            }
            world.add_node(Box::new(s))
        };

        // The merge switch in front of the clients (Section VI-A1). For a
        // sharded fabric it is a steering switch: updates detour to their
        // shard's chain head.
        let merge = if shard_chains.is_empty() {
            world.add_node(Box::new(Switch::new("merge")))
        } else {
            world.add_node(Box::new(
                Switch::new("merge")
                    .with_addr(addrs::MERGE_SWITCH)
                    .with_steering(Box::new(FabricSteering::new(
                        SteerSide::Merge,
                        addrs::SERVER,
                        &shard_chains,
                    ))),
            ))
        };
        for &c in &clients {
            world.connect(c, merge, cfg.link);
        }

        // The path from merge switch to server, per design.
        let mut devices = Vec::new();
        let mut path = vec![merge];
        let mut start_nodes = Vec::new();
        // Route overrides applied after `populate_switch_routes` (BFS
        // prefers the bypass links; chain routing must win over them).
        let mut route_overrides: Vec<(NodeId, Addr, PortNo)> = Vec::new();
        match self.design {
            DesignPoint::PmnetSwitch | DesignPoint::PmnetReplicated { .. } => {
                let mut prev = merge;
                for (i, &(addr, id)) in device_plan.iter().enumerate() {
                    let dev = device_from(&cfg, format!("pmnet{i}"), id, addr);
                    let dev = world.add_node(Box::new(dev));
                    world.connect(prev, dev, cfg.link);
                    devices.push(dev);
                    path.push(dev);
                    prev = dev;
                }
                world.connect(prev, server, cfg.link);
                path.push(server);
            }
            DesignPoint::PmnetNic => {
                let tor = world.add_node(Box::new(Switch::new("tor")));
                world.connect(merge, tor, cfg.link);
                let (addr, id) = device_plan[0];
                let dev = device_from(&cfg, "pmnet-nic".into(), id, addr);
                let dev = world.add_node(Box::new(dev));
                world.connect(tor, dev, cfg.link);
                world.connect(dev, server, cfg.link);
                devices.push(dev);
                path.extend([tor, dev, server]);
            }
            DesignPoint::PmnetSharded { .. } => {
                // Server-side steering switch: replies and invalidations
                // detour through the shard's chain tail.
                let tor = world.add_node(Box::new(
                    Switch::new("tor")
                        .with_addr(addrs::TOR_SWITCH)
                        .with_steering(Box::new(FabricSteering::new(
                            SteerSide::Tor,
                            addrs::SERVER,
                            &shard_chains,
                        ))),
                ));
                // Direct merge—tor backbone: control packets and unsteered
                // traffic never depend on any one chain being alive.
                world.connect(merge, tor, cfg.link);
                for (i, pair) in device_plan.chunks(2).enumerate() {
                    let [(p_addr, p_id), (b_addr, b_id)] = [pair[0], pair[1]];
                    let p = device_from(&cfg, format!("pmnet-p{i}"), p_id, p_addr);
                    let p = world.add_node(Box::new(p));
                    let b = device_from(&cfg, format!("pmnet-b{i}"), b_id, b_addr);
                    let b = world.add_node(Box::new(b));
                    // Five links per shard: the chain itself, both members'
                    // ingress from the merge (the backup's is the promote
                    // bypass), and both members' egress to the tor (the
                    // primary's doubles as its heartbeat/demote bypass).
                    let (p_merge, _) = world.connect(p, merge, cfg.link);
                    let (p_chain, b_chain) = world.connect(p, b, cfg.link);
                    let (p_tor, _) = world.connect(p, tor, cfg.link);
                    let (b_merge, _) = world.connect(b, merge, cfg.link);
                    let (b_tor, _) = world.connect(b, tor, cfg.link);
                    world.node_mut::<PmnetDevice>(p).set_fabric(DeviceFabric {
                        role: DeviceRole::Primary,
                        chain_peer: Some(b_addr),
                        chain_port: Some(p_chain),
                        merge_port: Some(p_merge),
                        tor_port: Some(p_tor),
                        server: addrs::SERVER,
                    });
                    world.node_mut::<PmnetDevice>(b).set_fabric(DeviceFabric {
                        role: DeviceRole::Backup,
                        chain_peer: Some(p_addr),
                        chain_port: Some(b_chain),
                        merge_port: Some(b_merge),
                        tor_port: Some(b_tor),
                        server: addrs::SERVER,
                    });
                    // BFS routing prefers the 2-hop bypass links; chain
                    // routing must win so both logs see every update and
                    // every invalidation. Promote flips these back.
                    route_overrides.push((p, addrs::SERVER, p_chain));
                    for j in 0..client_count {
                        route_overrides.push((b, addrs::client(j), b_chain));
                    }
                    devices.push(p);
                    devices.push(b);
                }
                world.connect(tor, server, cfg.link);
                path.extend([tor, server]);
                start_nodes.push(server);
                start_nodes.extend(devices.iter().copied());
            }
            DesignPoint::ClientServer
            | DesignPoint::ClientServerReplicated { .. }
            | DesignPoint::ServerSideLog { .. }
            | DesignPoint::ClientSideLog { .. } => {
                let tor = world.add_node(Box::new(Switch::new("tor")));
                world.connect(merge, tor, cfg.link);
                world.connect(tor, server, cfg.link);
                path.extend([tor, server]);
                // Attach replicas / peer loggers.
                match (self.design, &mode) {
                    (
                        DesignPoint::ClientServerReplicated { replicas: r }
                        | DesignPoint::ServerSideLog { replicas: r },
                        _,
                    ) => {
                        let r = usize::from(r);
                        for i in 1..r {
                            let handler = (self.handler_factory)();
                            let mut rep = server_from(&cfg, addrs::replica(i), handler);
                            if let DesignPoint::ServerSideLog { replicas } = self.design {
                                let next = log_chain_next(replicas, i);
                                rep = rep.with_early_log(addrs::logger_id(i), next);
                            }
                            let id = world.add_node(Box::new(rep.as_silent_replica()));
                            world.connect(tor, id, cfg.link);
                            replicas.push(id);
                        }
                    }
                    (_, ClientMode::ClientSideLog { peers, .. }) => {
                        for &(addr, logger_id) in peers {
                            let logger = PeerLogger::new(addr, logger_id, cfg.client);
                            let id = world.add_node(Box::new(logger));
                            world.connect(merge, id, cfg.link);
                            replicas.push(id);
                        }
                    }
                    _ => {}
                }
            }
        }

        world.populate_switch_routes();
        for (node, dst, port) in route_overrides {
            world.node_mut::<PmnetDevice>(node).install_route(dst, port);
        }
        BuiltSystem {
            world,
            clients,
            server,
            devices,
            replicas,
            merge,
            path,
            start_nodes,
        }
    }
}

/// Aggregated results of one run.
#[derive(Debug)]
pub struct RunMetrics {
    /// Post-warm-up completions across all clients.
    pub completed: usize,
    /// All post-warm-up latencies.
    pub latency: LatencyHistogram,
    /// Update latencies only.
    pub update_latency: LatencyHistogram,
    /// Bypass latencies only.
    pub bypass_latency: LatencyHistogram,
    /// Post-warm-up operations per second (first to last completion).
    pub ops_per_sec: f64,
    /// Total retransmission rounds clients needed.
    pub client_retries: u64,
    /// Simulated end time.
    pub end: Time,
}

/// The slice [`drive`] steps a world in.
const SLICE: Dur = Dur::millis(1);

/// Drives `world` in 1 ms slices from `from`: returns `true` at the first
/// slice boundary where `done` holds (`from` itself included), `false`
/// once nothing is pending or `deadline` is reached. Every harness loop
/// is this one.
///
/// The cursor walks independently of the event clock: [`World::now`]
/// stands at the last event dispatched, not at the instant the world was
/// run to, so a loop measuring from it would stall across a gap in the
/// event stream (e.g. waiting out a retransmission timeout). For the
/// same reason a caller that stepped the world itself (the chaos runner,
/// to a fault instant) passes where it left off as `from`; everyone else
/// passes `world.now()`. `done` is observed at `from + k` ms and nowhere
/// else, and where the clock stands when it first holds is hashed into
/// every campaign digest (`Verdict::end_ns`), so the boundaries are part
/// of the contract (DESIGN.md §21). `drive` never moves the clock past
/// an event.
pub fn drive(
    world: &mut World,
    from: Time,
    deadline: Time,
    mut done: impl FnMut(&World) -> bool,
) -> bool {
    let mut cursor = from;
    loop {
        if done(world) {
            return true;
        }
        // Nothing can make progress anymore (a stalled system is
        // surfaced by the metrics, not by hanging the harness).
        if world.pending_events() == 0 || cursor >= deadline {
            return false;
        }
        cursor = (cursor + SLICE).min(deadline);
        world.run_until(cursor);
    }
}

/// Whether every [`ClientLib`] in `clients` has finished its workload —
/// the `done` of a closed-loop [`drive`].
pub fn clients_finished(world: &World, clients: &[NodeId]) -> bool {
    let mut clients = clients.iter();
    clients.all(|&c| world.node::<ClientLib>(c).is_finished())
}

impl BuiltSystem {
    /// Schedules the kick-off signals: the fabric's coordinator and
    /// devices first (arming heartbeats and the watchdog; none on the
    /// classic designs, so their event streams stay byte-identical to the
    /// seed), then every client.
    pub fn start(&mut self) {
        for &n in self.start_nodes.iter().chain(&self.clients) {
            self.world.start_node(n);
        }
    }

    /// Starts every client and runs until all finish or `deadline` passes.
    pub fn run_clients(&mut self, deadline: Dur) {
        self.start();
        let (from, clients) = (self.world.now(), &self.clients);
        let finished = |w: &World| clients_finished(w, clients);
        if drive(&mut self.world, from, Time::ZERO + deadline, finished) {
            // Drain trailing ACK/GC traffic briefly.
            self.world.run_for(SLICE);
        }
    }

    /// Shard chains of a sharded fabric (0 on every other design).
    pub fn chains(&self) -> usize {
        let server = self.world.node::<ServerLib>(self.server);
        server.fabric_map().map_or(0, |m| m.chains().len())
    }

    /// Collects metrics across all clients.
    pub fn metrics(&self) -> RunMetrics {
        let mut latency = LatencyHistogram::new();
        let mut update_latency = LatencyHistogram::new();
        let mut bypass_latency = LatencyHistogram::new();
        let mut completed = 0;
        let mut retries = 0u64;
        let mut first = Time::MAX;
        let mut last = Time::ZERO;
        for &c in &self.clients {
            let client = self.world.node::<ClientLib>(c);
            for r in client.records() {
                completed += 1;
                retries += u64::from(r.retries);
                latency.record(r.latency);
                match r.kind {
                    RequestKind::Update => update_latency.record(r.latency),
                    RequestKind::Bypass => bypass_latency.record(r.latency),
                }
                first = first.min(r.at);
                last = last.max(r.at);
            }
        }
        let ops_per_sec = if completed > 1 && last > first {
            (completed - 1) as f64 / (last - first).as_secs_f64()
        } else {
            0.0
        };
        RunMetrics {
            completed,
            latency,
            update_latency,
            bypass_latency,
            ops_per_sec,
            client_retries: retries,
            end: self.world.now(),
        }
    }

    /// Every `(client, session, seq)` update the clients consider
    /// acknowledged — the ground truth the audit checks the server's apply
    /// log against.
    pub fn acked_updates(&self) -> Vec<(Addr, u16, u32)> {
        let mut acked = Vec::new();
        for &c in &self.clients {
            let client = self.world.node::<ClientLib>(c);
            let addr = client.client_addr();
            for &(session, seq) in client.acked_updates() {
                acked.push((addr, session, seq));
            }
        }
        acked
    }

    /// Log entries still staged across every device. A converged system
    /// drains to zero: each entry is either invalidated by a server-ACK on
    /// the fast path or confirmed by a redo ack during recovery. Fenced
    /// and fail-stopped devices are excluded — their entries are retired
    /// with them (the surviving chain member re-drove every acked update).
    pub fn stranded_log_entries(&self) -> usize {
        self.devices
            .iter()
            .map(|&d| {
                let dev = self.world.node::<PmnetDevice>(d);
                if dev.is_fenced() || !dev.is_alive() {
                    0
                } else {
                    dev.log_len()
                }
            })
            .sum()
    }

    /// Attaches a telemetry handle to every instrumented node (clients,
    /// PMNet devices, the primary server): span events flow into it as
    /// operations cross the system. Attach before
    /// [`run_clients`](Self::run_clients) so traces cover whole operations.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        for &c in &self.clients.clone() {
            self.world
                .node_mut::<ClientLib>(c)
                .set_telemetry(telemetry.clone());
        }
        for &d in &self.devices.clone() {
            self.world
                .node_mut::<PmnetDevice>(d)
                .set_telemetry(telemetry.clone());
        }
        self.world
            .node_mut::<ServerLib>(self.server)
            .set_telemetry(telemetry.clone());
    }

    /// Retransmission/backoff counters summed across all clients.
    pub fn client_retry_counters(&self) -> ClientRetryCounters {
        let mut sum = ClientRetryCounters::default();
        for &c in &self.clients {
            let c = self.world.node::<ClientLib>(c).retry_counters();
            sum.retransmits += c.retransmits;
            sum.backoffs += c.backoffs;
            sum.congestion_signals += c.congestion_signals;
            sum.failed += c.failed;
        }
        sum
    }

    /// Publishes every component's counter group into `registry` (the
    /// flattened names are defined next to the counter structs via
    /// [`pmnet_telemetry::registry::CounterGroup`]).
    pub fn record_counters(&self, registry: &mut Registry) {
        for &c in &self.clients {
            registry.record_group("client", &self.world.node::<ClientLib>(c).retry_counters());
        }
        for &d in &self.devices {
            let dev = self.world.node::<PmnetDevice>(d);
            registry.record_group("device", &dev.counters());
            registry.record_group("log", &dev.log_counters());
            registry.add("log.stranded", dev.log_len() as u64);
        }
        let server = self.world.node::<ServerLib>(self.server);
        registry.record_group("server", &server.counters());
        if let Some(rec) = server.recovery() {
            registry.record_group("recovery", &rec);
        }
        // One group per shard so flight-recorder timelines show exactly
        // which shard fenced, promoted, and re-homed. Empty (and therefore
        // digest-invisible) outside sharded designs.
        for (i, shard) in server.fabric_shard_counters().iter().enumerate() {
            registry.record_group(&format!("fabric.shard{i}"), shard);
        }
    }

    /// Flattens client retry, device, log, server, and recovery counters
    /// into one named bag for harness reporting.
    pub fn counter_set(&self) -> CounterSet {
        let mut reg = Registry::new();
        self.record_counters(&mut reg);
        reg.into_counter_set()
    }
}

/// A microbenchmark request source: `n` requests of `payload_bytes`, a
/// fraction of which are updates (Section VI-B1's ideal-handler workload).
#[derive(Debug)]
pub struct MicroSource {
    remaining: usize,
    payload_bytes: usize,
    update_ratio: f64,
}

impl MicroSource {
    /// `n` pure-update requests of `payload_bytes` each.
    pub fn updates(n: usize, payload_bytes: usize) -> MicroSource {
        MicroSource {
            remaining: n,
            payload_bytes,
            update_ratio: 1.0,
        }
    }

    /// A mixed update/read stream.
    pub fn mixed(n: usize, payload_bytes: usize, update_ratio: f64) -> MicroSource {
        MicroSource {
            remaining: n,
            payload_bytes,
            update_ratio,
        }
    }
}

impl RequestSource for MicroSource {
    fn next_request(&mut self, rng: &mut SimRng) -> Option<AppRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let kind = if rng.chance(self.update_ratio) {
            RequestKind::Update
        } else {
            RequestKind::Bypass
        };
        // Tag as an opaque app frame so KV-aware components skip it, then
        // the random body, drawn in place.
        let mut payload = BytesMut::with_capacity(1 + self.payload_bytes);
        payload.put_u8(b'O');
        payload.resize(1 + self.payload_bytes, 0);
        rng.fill_bytes(&mut payload[1..]);
        Some(AppRequest {
            kind,
            payload: payload.freeze(),
        })
    }
}

/// N identical microbenchmark clients against one server (the ideal
/// handler unless [`builder`](Self::builder)'s caller sets another) —
/// what the figures table, the chaos scenarios and the stress test all run.
#[derive(Debug)]
pub struct UpdateExperiment {
    design: DesignPoint,
    config: SystemConfig,
    clients: usize,
    payload: usize,
    requests: usize,
    update_ratio: f64,
    warmup: usize,
    deadline: Dur,
}

impl UpdateExperiment {
    /// A single-client, 100-byte, update-only experiment (customize with
    /// the builder methods).
    pub fn new(design: DesignPoint, config: SystemConfig) -> UpdateExperiment {
        UpdateExperiment {
            design,
            config,
            clients: 1,
            payload: 100,
            requests: 1000,
            update_ratio: 1.0,
            warmup: 0,
            deadline: Dur::secs(30),
        }
    }

    /// Number of client instances.
    pub fn clients(mut self, n: usize) -> UpdateExperiment {
        self.clients = n;
        self
    }

    /// Request payload size in bytes.
    pub fn payload_bytes(mut self, n: usize) -> UpdateExperiment {
        self.payload = n;
        self
    }

    /// Requests per client.
    pub fn requests_per_client(mut self, n: usize) -> UpdateExperiment {
        self.requests = n;
        self
    }

    /// Fraction of requests that are updates.
    pub fn update_ratio(mut self, r: f64) -> UpdateExperiment {
        self.update_ratio = r;
        self
    }

    /// Warm-up completions to exclude per client.
    pub fn warmup(mut self, n: usize) -> UpdateExperiment {
        self.warmup = n;
        self
    }

    /// Simulated-time budget.
    pub fn deadline(mut self, d: Dur) -> UpdateExperiment {
        self.deadline = d;
        self
    }

    /// The builder with this experiment's clients on it, for callers that
    /// set their own handler or run the world themselves.
    pub fn builder(&self) -> SystemBuilder {
        let mut b = SystemBuilder::new(self.design, self.config).warmup(self.warmup);
        for _ in 0..self.clients {
            b = b.client(Box::new(MicroSource::mixed(
                self.requests,
                self.payload,
                self.update_ratio,
            )));
        }
        b
    }

    /// Builds, runs and collects.
    pub fn run(&mut self, seed: u64) -> RunMetrics {
        let mut sys = self.builder().build(seed);
        sys.run_clients(self.deadline);
        sys.metrics()
    }

    /// A fixed-simulated-time saturation point (the Figure 16 stress
    /// test): the clients send updates back to back for `window`, with
    /// the fabric's heartbeats and watchdog unarmed. Returns the achieved
    /// Gbps of request traffic and the mean and p99 update latency.
    pub fn stress_point(self, window: Dur, seed: u64) -> (f64, Dur, Dur) {
        let payload = self.payload;
        let experiment = self.requests_per_client(usize::MAX >> 1).warmup(20);
        let mut sys = experiment.builder().build(seed);
        for &c in &sys.clients {
            sys.world.start_node(c);
        }
        drive(&mut sys.world, Time::ZERO, Time::ZERO + window, |_| false);
        let mut latency = sys.metrics().update_latency;
        // Wire bytes per request: payload + opaque tag + 20 + UDP/IP. The
        // PMNet header is `HEADER_LEN` = 24 B, so the Gbps figures, which
        // the golden digests pin, undercount each request by 4 B.
        let wire = (payload + 1 + 20 + 42) as f64;
        let gbps = latency.len() as f64 * wire * 8.0 / window.as_secs_f64() / 1e9;
        if latency.is_empty() {
            return (gbps, Dur::ZERO, Dur::ZERO);
        }
        let p99 = latency.percentile(0.99);
        (gbps, latency.mean(), p99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(design: DesignPoint) -> RunMetrics {
        UpdateExperiment::new(design, SystemConfig::default())
            .requests_per_client(100)
            .run(7)
    }

    #[test]
    fn micro_source_payload_bytes_and_rng_draws_are_pinned() {
        use pmnet_pmem::{crc32_finish, crc32_init, crc32_update};
        // Literals captured from the `vec!` + `insert(0, b'O')` source this
        // code replaced: same bytes, same draws.
        for (seed, crc, next) in [
            (1, 0xc3d5_7231, 0x09a5_a611_a6c9_fbfa_u64),
            (2, 0xdc91_36eb, 0xb554_d1ea_f751_cc49),
            (7, 0x1bfd_3f6a, 0xb956_85b6_3161_118d),
        ] {
            let mut source = MicroSource::updates(200, 64);
            let mut rng = SimRng::seed(seed);
            let mut state = crc32_init();
            while let Some(r) = source.next_request(&mut rng) {
                assert_eq!((r.payload.len(), r.payload[0]), (65, b'O'));
                state = crc32_update(state, &r.payload);
            }
            assert_eq!(
                (crc32_finish(state), rng.next_u64()),
                (crc, next),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn all_clients_complete_on_every_design_point() {
        for design in [
            DesignPoint::ClientServer,
            DesignPoint::PmnetSwitch,
            DesignPoint::PmnetNic,
            DesignPoint::PmnetReplicated { devices: 3 },
            DesignPoint::ClientServerReplicated { replicas: 3 },
            DesignPoint::ServerSideLog { replicas: 1 },
            DesignPoint::ServerSideLog { replicas: 3 },
            DesignPoint::ClientSideLog { replicas: 1 },
            DesignPoint::ClientSideLog { replicas: 3 },
            DesignPoint::PmnetSharded { shards: 1 },
            DesignPoint::PmnetSharded { shards: 2 },
            DesignPoint::PmnetSharded { shards: 3 },
        ] {
            let m = quick(design);
            assert_eq!(m.completed, 100, "{design:?}");
        }
    }

    /// `done` is observed at `from + k` ms and nowhere else, and the
    /// first boundary it holds at ends the drive with the clock still at
    /// the last event dispatched before it.
    #[test]
    fn drive_stops_at_the_first_slice_boundary_where_done_holds() {
        let mut sys = UpdateExperiment::new(DesignPoint::PmnetSwitch, SystemConfig::default())
            .requests_per_client(100)
            .builder()
            .build(7);
        sys.start();
        // A caller that stepped the world itself says where it left off:
        // the clock stands earlier, at the last event before that instant.
        let from = Time::ZERO + Dur::micros(300);
        sys.world.run_until(from);
        assert!(sys.world.now() < from);
        let (clients, mut seen) = (sys.clients.clone(), Vec::new());
        let held = drive(&mut sys.world, from, Time::ZERO + Dur::secs(1), |w| {
            seen.push(w.now());
            clients_finished(w, &clients)
        });
        assert!(held);
        for (k, &now) in seen.iter().enumerate() {
            assert!(now <= from + SLICE * k as u64, "observation {k} at {now}");
        }
        let boundary = from + SLICE * (seen.len() as u64 - 1);
        let finished_at = sys.world.node::<ClientLib>(clients[0]).records()[99].at;
        assert!(finished_at <= boundary && boundary - finished_at < SLICE);
        assert_eq!(Some(&sys.world.now()), seen.last());
        assert!(finished_at <= sys.world.now() && sys.world.now() < boundary);
    }

    #[test]
    fn drive_stops_at_the_deadline_and_when_nothing_is_pending() {
        let endless = |design| {
            let mut sys = UpdateExperiment::new(design, SystemConfig::default())
                .requests_per_client(usize::MAX >> 1)
                .builder()
                .build(7);
            sys.start();
            sys
        };
        // Never done: four observations (0, 1, 2 and 2.5 ms), then the
        // deadline, with work still pending and the clock short of it.
        let mut sys = endless(DesignPoint::PmnetSwitch);
        let (deadline, mut calls) = (Time::ZERO + Dur::micros(2_500), 0);
        let held = drive(&mut sys.world, Time::ZERO, deadline, |_| {
            calls += 1;
            false
        });
        assert!(!held && calls == 4 && sys.world.pending_events() > 0);
        assert!(sys.world.now() <= deadline && deadline - sys.world.now() < SLICE);

        // Nothing pending: a dead client leaves the event list to drain,
        // and the drive ends at the next boundary instead of walking idle
        // slices to the deadline. The clock stays at the last event.
        let mut sys = endless(DesignPoint::ClientServer);
        let client = sys.clients[0];
        sys.world
            .schedule_crash(client, Time::ZERO + Dur::micros(1_200), None);
        let mut seen = Vec::new();
        let held = drive(&mut sys.world, Time::ZERO, Time::ZERO + Dur::secs(1), |w| {
            seen.push(w.now());
            false
        });
        assert!(!held && sys.world.pending_events() == 0);
        assert_eq!(seen.len(), 3, "observed at 0, 1 and 2 ms: {seen:?}");
        assert_eq!(sys.world.now(), seen[2]);
        assert!(sys.world.now() < Time::ZERO + Dur::millis(2));
        // And an empty world is not run at all.
        let mut empty = World::new(1);
        assert!(!drive(&mut empty, Time::ZERO, deadline, |_| false));
        assert_eq!(empty.now(), Time::ZERO);
    }

    #[test]
    fn sharded_fabric_chains_withhold_no_acked_update() {
        let mut b = SystemBuilder::new(
            DesignPoint::PmnetSharded { shards: 2 },
            SystemConfig::default(),
        );
        for _ in 0..4 {
            b = b.client(Box::new(MicroSource::updates(50, 100)));
        }
        let mut sys = b.build(11);
        sys.run_clients(Dur::secs(1));
        let m = sys.metrics();
        assert_eq!(m.completed, 4 * 50);
        // Every acked update reached the server, in order, exactly once.
        let acked = sys.acked_updates();
        let server = sys.world.node::<ServerLib>(sys.server);
        crate::audit::verify(server.audit_log(), &acked).expect("audit");
        assert_eq!(sys.stranded_log_entries(), 0);
    }

    #[test]
    fn killing_a_primary_mid_run_loses_no_acked_update() {
        let mut b = SystemBuilder::new(
            DesignPoint::PmnetSharded { shards: 2 },
            SystemConfig::default(),
        );
        for _ in 0..4 {
            b = b.client(Box::new(MicroSource::updates(60, 100)));
        }
        let mut sys = b.build(23);
        // Fail-stop shard 0's primary mid-traffic; the fabric must fence
        // it, promote the backup, and re-drive everything it was holding.
        let p0 = sys.devices[0];
        sys.world
            .schedule_crash(p0, Time::ZERO + Dur::millis(1), None);
        sys.run_clients(Dur::secs(1));
        let m = sys.metrics();
        assert_eq!(m.completed, 4 * 60, "clients wedged after failover");
        let server = sys.world.node::<ServerLib>(sys.server);
        assert_eq!(
            server.recovery_pending(),
            0,
            "failover barrier never closed"
        );
        let fabric = server.fabric_map().expect("sharded design");
        assert_eq!(fabric.epoch(), 1, "exactly one reconfiguration");
        assert!(fabric.is_retired(Addr(addrs::DEVICE_BASE)));
        let counters = server.fabric_shard_counters();
        assert_eq!(counters[0].failovers, 1);
        assert!(counters[0].fences_sent >= 1);
        assert!(counters[0].promotes_sent >= 1);
        assert_eq!(counters[1].failovers, 0, "healthy shard reconfigured");
        let acked = sys.acked_updates();
        let server = sys.world.node::<ServerLib>(sys.server);
        if let Err(violations) = crate::audit::verify(server.audit_log(), &acked) {
            panic!("acked updates lost in failover: {violations:?}");
        }
        assert_eq!(sys.stranded_log_entries(), 0);
    }

    #[test]
    fn batched_devices_complete_the_workload_and_amortize_fences() {
        use crate::config::BatchConfig;
        let cfg = SystemConfig {
            batch: BatchConfig::windowed(16),
            ..SystemConfig::default()
        };
        let mut b = SystemBuilder::new(DesignPoint::PmnetSwitch, cfg);
        for _ in 0..8 {
            b = b.client(Box::new(MicroSource::updates(50, 100)));
        }
        let mut sys = b.build(7);
        sys.run_clients(Dur::secs(1));
        let m = sys.metrics();
        assert_eq!(m.completed, 8 * 50, "clients wedged under batching");
        // Every client-acked update still reaches the server exactly once
        // and in order — batching must not weaken the durability contract.
        let acked = sys.acked_updates();
        let server = sys.world.node::<ServerLib>(sys.server);
        crate::audit::verify(server.audit_log(), &acked).expect("audit");
        assert_eq!(sys.stranded_log_entries(), 0);
        let d = sys.world.node::<PmnetDevice>(sys.devices[0]);
        let c = d.counters();
        assert!(c.batches_flushed > 0, "no batch ever flushed: {c:?}");
        assert!(
            c.batch_fences_elided > 0,
            "doorbell windows never filled past one entry: {c:?}"
        );
        let sc = sys.world.node::<ServerLib>(sys.server).counters();
        assert!(sc.apply_batches > 0, "server never batched applies: {sc:?}");
        assert_eq!(sc.batched_applies, sc.updates_applied);
    }

    #[test]
    fn batched_sharded_fabric_withholds_no_acked_update() {
        use crate::config::BatchConfig;
        let cfg = SystemConfig {
            batch: BatchConfig::windowed(8),
            ..SystemConfig::default()
        };
        let mut b = SystemBuilder::new(DesignPoint::PmnetSharded { shards: 2 }, cfg);
        for _ in 0..4 {
            b = b.client(Box::new(MicroSource::updates(50, 100)));
        }
        let mut sys = b.build(11);
        sys.run_clients(Dur::secs(1));
        let m = sys.metrics();
        assert_eq!(m.completed, 4 * 50, "clients wedged under batching");
        let acked = sys.acked_updates();
        let server = sys.world.node::<ServerLib>(sys.server);
        crate::audit::verify(server.audit_log(), &acked).expect("audit");
        assert_eq!(sys.stranded_log_entries(), 0);
    }

    #[test]
    fn window_one_batch_config_is_bit_identical_to_default() {
        use crate::config::BatchConfig;
        let base = quick(DesignPoint::PmnetSwitch);
        let cfg = SystemConfig {
            batch: BatchConfig::windowed(1),
            ..SystemConfig::default()
        };
        let gated = UpdateExperiment::new(DesignPoint::PmnetSwitch, cfg)
            .requests_per_client(100)
            .run(7);
        assert_eq!(base.completed, gated.completed);
        assert_eq!(base.latency.mean(), gated.latency.mean());
        assert_eq!(base.client_retries, gated.client_retries);
        assert_eq!(base.end, gated.end);
    }

    #[test]
    fn one_thread_apply_config_is_bit_identical_to_default() {
        use crate::config::ApplyConfig;
        let base = quick(DesignPoint::PmnetSwitch);
        let cfg = SystemConfig {
            apply: ApplyConfig::threaded(1),
            ..SystemConfig::default()
        };
        let gated = UpdateExperiment::new(DesignPoint::PmnetSwitch, cfg)
            .requests_per_client(100)
            .run(7);
        assert_eq!(base.completed, gated.completed);
        assert_eq!(base.latency.mean(), gated.latency.mean());
        assert_eq!(base.client_retries, gated.client_retries);
        assert_eq!(base.end, gated.end);
    }

    #[test]
    fn concurrent_apply_completes_the_workload_exactly_once() {
        use crate::config::ApplyConfig;
        let cfg = SystemConfig {
            apply: ApplyConfig::threaded(4),
            ..SystemConfig::default()
        };
        let mut b = SystemBuilder::new(DesignPoint::PmnetSwitch, cfg);
        for _ in 0..8 {
            b = b.client(Box::new(MicroSource::updates(50, 100)));
        }
        let mut sys = b.build(7);
        sys.run_clients(Dur::secs(1));
        let m = sys.metrics();
        assert_eq!(m.completed, 8 * 50, "clients wedged under concurrent apply");
        // Every client-acked update still reaches the server exactly once
        // and in per-session order — the pool must not weaken the
        // durability contract.
        let acked = sys.acked_updates();
        let server = sys.world.node::<ServerLib>(sys.server);
        crate::audit::verify(server.audit_log(), &acked).expect("audit");
        assert_eq!(sys.stranded_log_entries(), 0);
        let sc = server.counters();
        assert_eq!(
            sc.concurrent_applies, sc.updates_applied,
            "some update bypassed the pool: {sc:?}"
        );
        assert!(sc.apply_runs > 0, "no pool run ever dispatched: {sc:?}");
        assert!(
            sc.apply_runs < sc.concurrent_applies,
            "runs never combined ops — no concurrency exercised: {sc:?}"
        );
    }

    #[test]
    fn pmnet_is_substantially_faster_than_baseline() {
        let base = quick(DesignPoint::ClientServer);
        let pmnet = quick(DesignPoint::PmnetSwitch);
        let speedup = base.latency.mean().as_micros_f64() / pmnet.latency.mean().as_micros_f64();
        assert!(
            speedup > 1.8,
            "expected sub-RTT benefit, got {speedup:.2}x ({} vs {})",
            base.latency.mean(),
            pmnet.latency.mean()
        );
    }

    #[test]
    fn switch_and_nic_designs_are_nearly_identical() {
        let sw = quick(DesignPoint::PmnetSwitch);
        let nic = quick(DesignPoint::PmnetNic);
        let diff = (sw.latency.mean().as_micros_f64() - nic.latency.mean().as_micros_f64()).abs();
        assert!(diff < 3.0, "Fig 15: |switch - nic| = {diff:.2} us");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(DesignPoint::PmnetSwitch);
        let b = quick(DesignPoint::PmnetSwitch);
        assert_eq!(a.latency.mean(), b.latency.mean());
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn multi_client_run_completes() {
        let m = UpdateExperiment::new(DesignPoint::PmnetSwitch, SystemConfig::default())
            .clients(8)
            .requests_per_client(50)
            .run(3);
        assert_eq!(m.completed, 8 * 50);
        assert!(m.ops_per_sec > 0.0);
    }

    #[test]
    fn mixed_ratio_produces_both_kinds() {
        let m = UpdateExperiment::new(DesignPoint::PmnetSwitch, SystemConfig::default())
            .update_ratio(0.5)
            .requests_per_client(200)
            .run(9);
        assert!(m.update_latency.len() > 50);
        assert!(m.bypass_latency.len() > 50);
        assert_eq!(m.update_latency.len() + m.bypass_latency.len(), 200);
    }

    /// A completed request takes its retransmission timer with it: what
    /// is pending the moment the last client finishes does not grow with
    /// the requests completed inside the last RTO (1 ms floor against
    /// ~25 us and ~60 us per request: some 40 and 17 stale timers per
    /// client before timers could be cancelled).
    #[test]
    fn finished_clients_leave_no_timeout_timer_pending() {
        let run = |design| {
            let mut b = SystemBuilder::new(design, SystemConfig::default());
            for _ in 0..2 {
                b = b.client(Box::new(MicroSource::updates(300, 64)));
            }
            let mut sys = b.build(3);
            for &c in &sys.clients.clone() {
                sys.world.start_node(c);
            }
            let finished = |sys: &BuiltSystem| {
                let mut clients = sys.clients.iter();
                clients.all(|&c| sys.world.node::<ClientLib>(c).is_finished())
            };
            let mut cursor = Time::ZERO;
            while !finished(&sys) {
                cursor += Dur::micros(5);
                sys.world.run_until(cursor);
            }
            assert_eq!(sys.metrics().completed, 600);
            assert_eq!(sys.client_retry_counters().retransmits, 0);
            // Requests completed within the device's entry-retry floor: each
            // may still have its entry, and so its retry timer, pending.
            let since = sys.world.now() - SystemConfig::default().device.log_retry_timeout;
            let recent = |&c: &NodeId| {
                let records = sys.world.node::<ClientLib>(c).records();
                records.iter().filter(|r| r.at > since).count()
            };
            let recent: usize = sys.clients.iter().map(recent).sum();
            (sys.world.pending_events(), recent)
        };
        // Without a device nothing else arms a long timer: the last
        // completion leaves the event list empty.
        assert_eq!(run(DesignPoint::ClientServer).0, 0);
        // With one, what is left is its retry timer per recent entry and
        // the last requests' server-side tail, a handful of events.
        let (pending, recent) = run(DesignPoint::PmnetSwitch);
        assert!(pending <= recent + 8, "{pending} pending, {recent} recent");
    }

    /// The event census of the benchmark's `closed_small` shape (16
    /// clients × 64 B updates, `PmnetSwitch`, default config, window 1),
    /// at a twentieth of its length and drained to quiescence: what one op
    /// costs the event loop (DESIGN.md §18).
    #[test]
    fn closed_small_event_census_is_pinned() {
        use pmnet_net::EventCounts;

        let ops = 16_000;
        let mut sys = UpdateExperiment::new(DesignPoint::PmnetSwitch, SystemConfig::default())
            .clients(16)
            .payload_bytes(64)
            .requests_per_client(ops / 16)
            .builder()
            .build(1);
        sys.run_clients(Dur::secs(30));
        assert_eq!(sys.metrics().completed, ops);
        sys.world.run_to_quiescence(1_000_000);
        let mut expect = EventCounts {
            // 2.00 per op: every client RTO timer, and every device
            // entry-retry timer, ended by the server ack that invalidates
            // its entry.
            cancelled: 32_000,
            ..EventCounts::default()
        };
        // 11.02 per op; 12.02 while the late `ServerAck`, which answers
        // nothing once the device's ack has completed the update, was
        // still re-posted up the client's receive stack.
        expect.dispatched[EventCounts::PACKET] = 176_300;
        expect.dispatched[EventCounts::TIMER] = 48_177; // 3.01 per op
        expect.dispatched[EventCounts::PORT_TX] = 128_190; // 8.01 per op
        expect.dispatched[EventCounts::START] = 16;
        assert_eq!(sys.world.event_counts(), expect);
    }
}
