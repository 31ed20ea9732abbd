//! The five workloads: how each world is built, driven and read back.
//!
//! An untraced world comes from the public builders (`SystemBuilder`,
//! `TrafficSystem`). A traced world is assembled here from the public node
//! constructors in the same node and link order, each node wrapped in a
//! [`Spanned`]; the two must produce the same simulated results, and the
//! benchmark checks that they do.

use pmnet_core::client::{ClientMode, RequestKind, RequestSource};
use pmnet_core::system::{addrs, DesignPoint, MicroSource, SystemBuilder};
use pmnet_core::{
    ApplyConfig, BatchConfig, ClientLib, DeviceConfig, PmnetDevice, RequestHandler, ServerLib,
    SystemConfig,
};
use pmnet_net::{Addr, Node, NodeId, Switch, World};
use pmnet_sim::stats::{CounterSet, LatencyHistogram};
use pmnet_sim::{Dur, Time};
use pmnet_telemetry::registry::Registry;
use pmnet_telemetry::Telemetry;
use pmnet_traffic::{AdmissionSpec, ChurnSpec, OpenLoopClient, TrafficSpec, TrafficSystem};
use pmnet_workloads::{KvHandler, YcsbSource};

use crate::spans::{NodeKind, SpanTable, Spanned};

/// A benchmark workload. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Smallest packets, free handler: per-event cost dominates.
    ClosedSmall,
    /// Reads beside writes, large values, a real PM-backed index.
    KvMixed,
    /// The open-loop client state machine, offered more than the system
    /// can serve.
    OpenOverload,
    /// Four shard chains, batched, link-rate bound.
    FabricSaturated,
    /// Four apply workers against a lossy link: server bound.
    ApplyContended,
}

impl Workload {
    /// Every workload; position `i` builds with seed `S ^ i`.
    pub const ALL: [Workload; 5] = [
        Workload::ClosedSmall,
        Workload::KvMixed,
        Workload::OpenOverload,
        Workload::FabricSaturated,
        Workload::ApplyContended,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedSmall => "closed_small",
            Workload::KvMixed => "kv_mixed",
            Workload::OpenOverload => "open_overload",
            Workload::FabricSaturated => "fabric_saturated",
            Workload::ApplyContended => "apply_contended",
        }
    }

    /// One line on why the benchmark runs this workload.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ClosedSmall => {
                "16 closed-loop clients, 64 B updates, ideal handler: smallest packets and a free \
                 server, so per-event simulator cost and the bare ack path dominate"
            }
            Workload::KvMixed => {
                "50/50 reads and 2 KiB two-fragment updates on a PM-backed btree behind a device \
                 read cache: payload-proportional work and the only reads beside writes"
            }
            Workload::OpenOverload => {
                "open-loop Poisson arrivals at 1.5x the saturation knee, admission open, deep \
                 queues: the other client state machine, through the spill and congestion path"
            }
            Workload::FabricSaturated => {
                "4 shard chains, batch window 16, 48 clients of 1 KiB updates: link-rate bound, \
                 steering, chain replication, staged log appends and coalesced acks"
            }
            Workload::ApplyContended => {
                "4 apply workers, 0.1% link loss, 32 clients of zipfian 512 B updates: server \
                 bound, so log fills, bypass, retransmission and same-key fences dominate"
            }
        }
    }

    /// The workload called `name`, if any.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed this workload builds with under `--seed base`.
    pub fn seed(self, base: u64) -> u64 {
        base ^ self as u64
    }

    /// The workload at `1/shrink` of its full size (`1` = full; the warm-up
    /// uses 10, the smoke test 100).
    pub fn spec(self, shrink: usize) -> Spec {
        let closed = |design, config, clients, per_client: usize, source, handler| {
            Spec::Closed(ClosedSpec {
                design,
                config,
                clients,
                per_client: (per_client / shrink).max(1),
                source,
                handler,
            })
        };
        match self {
            Workload::ClosedSmall => closed(
                DesignPoint::PmnetSwitch,
                SystemConfig::default(),
                16,
                20_000,
                Source::Micro { bytes: 64 },
                Handler::Ideal,
            ),
            // Held to 8 192 keys × 2 KiB: `KvHandler`'s default store
            // panics ("checkpoint region too small") once the live
            // working set passes 32 MiB.
            Workload::KvMixed => closed(
                DesignPoint::PmnetSwitch,
                SystemConfig {
                    device: DeviceConfig::fpga().with_cache(1024),
                    ..SystemConfig::default()
                },
                16,
                6_000,
                Source::Ycsb {
                    keys: 8_192,
                    update_ratio: 0.5,
                    value_bytes: 2_048,
                },
                Handler::Kv("btree"),
            ),
            Workload::OpenOverload => {
                let mut traffic = TrafficSpec::poisson(OPEN_RATE_PER_SEC);
                traffic.churn = ChurnSpec::none();
                traffic.admission = AdmissionSpec::Open;
                traffic.queue_cap = OPEN_QUEUE_CAP;
                traffic.measure = Dur::micros((OPEN_MEASURE_US / shrink as u64).max(100));
                traffic.drain = OPEN_DRAIN;
                Spec::Open(OpenSpec {
                    traffic,
                    config: SystemConfig {
                        device: DeviceConfig::fpga().with_spill_policy(8, 1024),
                        ..SystemConfig::default()
                    },
                })
            }
            Workload::FabricSaturated => closed(
                DesignPoint::PmnetSharded { shards: 4 },
                SystemConfig::default().with_batch(BatchConfig::windowed(16)),
                48,
                5_000,
                Source::Micro { bytes: 1_024 },
                Handler::Ideal,
            ),
            Workload::ApplyContended => {
                let mut config =
                    SystemConfig::default().with_apply(ApplyConfig::threaded(4).with_sched_seed(7));
                config.link = config.link.with_drop_prob(0.001);
                closed(
                    DesignPoint::PmnetSwitch,
                    config,
                    32,
                    2_500,
                    Source::Ycsb {
                        keys: 100_000,
                        update_ratio: 1.0,
                        value_bytes: 512,
                    },
                    Handler::Kv("hashmap"),
                )
            }
        }
    }
}

/// Offered rate of `open_overload`, arrivals per simulated second: about
/// 1.5× the 2.7 M/s saturation knee `examples/overload_sweep.rs` measures.
const OPEN_RATE_PER_SEC: f64 = 4_000_000.0;
/// Arrival window of `open_overload` at full size.
const OPEN_MEASURE_US: u64 = 100_000;
/// Per-session queue bound: deep enough that the backlog an overloaded
/// window builds is queued, never dropped.
const OPEN_QUEUE_CAP: usize = 4_096;
/// Simulated time after arrivals stop in which the backlog must complete.
const OPEN_DRAIN: Dur = Dur::millis(200);

/// Simulated-time budget of a closed-loop repetition.
const CLOSED_DEADLINE: Dur = Dur::secs(120);
/// How long after the last client finished the device logs may take to
/// drain before the repetition counts as stranded.
const LOG_DRAIN_BOUND: Dur = Dur::secs(2);
/// Granularity at which the log drain is polled.
const LOG_DRAIN_SLICE: Dur = Dur::micros(100);

/// What a closed-loop client sends.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Opaque updates of a fixed size (`MicroSource::updates`).
    Micro {
        /// Payload bytes.
        bytes: usize,
    },
    /// KV GET/SET over zipf-0.99 keys (`YcsbSource::new`).
    Ycsb {
        /// Key-space size.
        keys: u64,
        /// Share of SETs.
        update_ratio: f64,
        /// Value bytes.
        value_bytes: usize,
    },
}

impl Source {
    /// A source handing out `n` requests.
    pub fn make(self, n: usize) -> Box<dyn RequestSource> {
        match self {
            Source::Micro { bytes } => Box::new(MicroSource::updates(n, bytes)),
            Source::Ycsb {
                keys,
                update_ratio,
                value_bytes,
            } => Box::new(YcsbSource::new(n, keys, update_ratio, value_bytes)),
        }
    }
}

/// What the server runs.
#[derive(Debug, Clone, Copy)]
pub enum Handler {
    /// `IdealHandler`: acknowledges on reception.
    Ideal,
    /// `KvHandler` over the named PM index.
    Kv(&'static str),
}

impl Handler {
    fn make(self, seed: u64) -> Box<dyn RequestHandler> {
        match self {
            Handler::Ideal => Box::new(pmnet_core::server::IdealHandler::new()),
            Handler::Kv(index) => Box::new(KvHandler::new(index, seed)),
        }
    }
}

/// A closed-loop workload: `clients` × `per_client` requests.
#[derive(Debug, Clone, Copy)]
pub struct ClosedSpec {
    /// Topology.
    pub design: DesignPoint,
    /// Calibration and policies.
    pub config: SystemConfig,
    /// Closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub per_client: usize,
    /// What they send.
    pub source: Source,
    /// What serves them.
    pub handler: Handler,
}

/// An open-loop workload.
#[derive(Debug, Clone)]
pub struct OpenSpec {
    /// Arrival law, sessions, queues, admission, windows.
    pub traffic: TrafficSpec,
    /// Calibration and policies.
    pub config: SystemConfig,
}

/// A sized workload, ready to build.
#[derive(Debug, Clone)]
pub enum Spec {
    /// Closed loop through `SystemBuilder`.
    Closed(ClosedSpec),
    /// Open loop through `TrafficSystem`.
    Open(OpenSpec),
}

impl Spec {
    /// Whether the benchmark can assemble this world itself with every
    /// node wrapped: the single-switch topology only. Re-wiring the
    /// sharded fabric outside `system.rs` is not worth the duplication.
    pub fn can_wrap(&self) -> bool {
        match self {
            Spec::Closed(c) => c.design == DesignPoint::PmnetSwitch,
            Spec::Open(_) => true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Closed { attempted: u64 },
    Open { measure: Dur, drain: Dur },
}

/// One built world plus what is needed to drive it and read it back.
pub struct Rig {
    /// The simulated world.
    pub world: World,
    clients: Vec<NodeId>,
    devices: Vec<NodeId>,
    server: NodeId,
    /// Nodes started before the clients (the fabric's coordinator and
    /// heartbeat-bearing devices).
    start_first: Vec<NodeId>,
    mode: Mode,
    wrapped: bool,
    /// Simulated instant at which every device log was seen empty.
    drained_at: Time,
    /// Open loop: operations completed when the arrival window closed.
    completed_in_window: u64,
}

impl Rig {
    /// Builds the world through the public builders.
    pub fn build(spec: &Spec, seed: u64) -> Rig {
        match spec {
            Spec::Closed(c) => {
                let mut b = SystemBuilder::new(c.design, c.config);
                for _ in 0..c.clients {
                    b = b.client(c.source.make(c.per_client));
                }
                let handler = c.handler;
                let sys = b.handler_factory(move || handler.make(seed)).build(seed);
                Rig {
                    world: sys.world,
                    clients: sys.clients,
                    devices: sys.devices,
                    server: sys.server,
                    start_first: sys.start_nodes,
                    mode: Mode::Closed {
                        attempted: (c.clients * c.per_client) as u64,
                    },
                    wrapped: false,
                    drained_at: Time::ZERO,
                    completed_in_window: 0,
                }
            }
            Spec::Open(o) => {
                let sys = TrafficSystem::build_with(&o.traffic, o.config, seed);
                Rig {
                    world: sys.world,
                    clients: sys.engines,
                    devices: vec![sys.device],
                    server: sys.server,
                    start_first: Vec::new(),
                    mode: Mode::Open {
                        measure: o.traffic.measure,
                        drain: o.traffic.drain,
                    },
                    wrapped: false,
                    drained_at: Time::ZERO,
                    completed_in_window: 0,
                }
            }
        }
    }

    /// Assembles the same single-switch world from the node constructors,
    /// every node wrapped in a [`Spanned`] reporting into `spans`. Node
    /// and link order follow `SystemBuilder::build` / `TrafficSystem::
    /// build_with`, so the event stream is the builders' own.
    ///
    /// # Panics
    ///
    /// Panics unless [`Spec::can_wrap`].
    pub fn build_wrapped(spec: &Spec, seed: u64, spans: &SpanTable) -> Rig {
        assert!(spec.can_wrap(), "only single-switch worlds are wrapped");
        let mut world = World::new(seed);
        let mut clients = Vec::new();
        let (config, handler, mode) = match spec {
            Spec::Closed(c) => {
                let cfg = c.config;
                for i in 0..c.clients {
                    let client = ClientLib::new(
                        addrs::client(i),
                        addrs::SERVER,
                        i as u16,
                        ClientMode::Pmnet { needed_acks: 1 },
                        cfg.client,
                        cfg.client_timeout,
                        cfg.retry,
                        c.source.make(c.per_client),
                    );
                    let node = Spanned::new(client, NodeKind::Client, spans);
                    clients.push(world.add_node(Box::new(node)));
                }
                let attempted = (c.clients * c.per_client) as u64;
                (cfg, c.handler.make(seed), Mode::Closed { attempted })
            }
            Spec::Open(o) => {
                let cfg = o.config;
                let stop_at = Time::ZERO + o.traffic.measure;
                for i in 0..o.traffic.nodes {
                    let engine = OpenLoopClient::new(
                        i,
                        &o.traffic,
                        cfg.client,
                        cfg.retry,
                        cfg.client_timeout,
                        stop_at,
                    );
                    let node = Spanned::new(engine, NodeKind::Client, spans);
                    clients.push(world.add_node(Box::new(node)));
                }
                let mode = Mode::Open {
                    measure: o.traffic.measure,
                    drain: o.traffic.drain,
                };
                // The handler `TrafficSystem::build_with` installs.
                (cfg, Handler::Kv("btree").make(5), mode)
            }
        };
        let device_addr = Addr(addrs::DEVICE_BASE);
        let server = ServerLib::new(
            addrs::SERVER,
            config.server,
            config.server_workers,
            config.gap_timeout,
            handler,
        )
        .with_devices(vec![device_addr])
        .with_recovery_poll_timeout(config.recovery_poll_timeout)
        .with_gap_skip_rounds(config.gap_skip_rounds)
        .with_batch(config.batch)
        .with_apply(config.apply);
        let server = world.add_node(Box::new(Spanned::new(server, NodeKind::Server, spans)));
        let merge = Spanned::new(Switch::new("merge"), NodeKind::Switch, spans);
        let merge = world.add_node(Box::new(merge));
        for &c in &clients {
            world.connect(c, merge, config.link);
        }
        let device =
            PmnetDevice::new("pmnet0", 1, device_addr, config.device).with_batch(config.batch);
        let device = world.add_node(Box::new(Spanned::new(device, NodeKind::Device, spans)));
        world.connect(merge, device, config.link);
        world.connect(device, server, config.link);
        world.populate_switch_routes();
        Rig {
            world,
            clients,
            devices: vec![device],
            server,
            start_first: Vec::new(),
            mode,
            wrapped: true,
            drained_at: Time::ZERO,
            completed_in_window: 0,
        }
    }

    /// Borrows node `id` as an `N`, looking through the [`Spanned`]
    /// wrapper when this world has one.
    fn node<N: Node + 'static>(&self, id: NodeId) -> &N {
        if self.wrapped {
            &self.world.node::<Spanned<N>>(id).inner
        } else {
            self.world.node::<N>(id)
        }
    }

    fn node_mut<N: Node + 'static>(&mut self, id: NodeId) -> &mut N {
        if self.wrapped {
            &mut self.world.node_mut::<Spanned<N>>(id).inner
        } else {
            self.world.node_mut::<N>(id)
        }
    }

    /// Attaches `telemetry` to every instrumented node, as
    /// `BuiltSystem::attach_telemetry` / `TrafficSystem::attach_telemetry`
    /// do.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let open = matches!(self.mode, Mode::Open { .. });
        for c in self.clients.clone() {
            if open {
                self.node_mut::<OpenLoopClient>(c)
                    .set_telemetry(telemetry.clone());
            } else {
                self.node_mut::<ClientLib>(c)
                    .set_telemetry(telemetry.clone());
            }
        }
        for d in self.devices.clone() {
            self.node_mut::<PmnetDevice>(d)
                .set_telemetry(telemetry.clone());
        }
        let server = self.server;
        self.node_mut::<ServerLib>(server)
            .set_telemetry(telemetry.clone());
    }

    /// Log entries still staged across every device.
    fn stranded(&self) -> usize {
        self.devices
            .iter()
            .map(|&d| self.node::<PmnetDevice>(d).log_len())
            .sum()
    }

    /// Drives the world: clients start now and run to completion (closed)
    /// or through the arrival and drain windows (open); a closed-loop run
    /// then continues until every device log has drained, so server work
    /// the clients did not wait for is still paid for.
    pub fn run(&mut self, between_slices: &mut dyn FnMut()) {
        for &n in self.start_first.iter().chain(&self.clients) {
            self.world.start_node(n);
        }
        let slice = Dur::millis(1);
        let mut cursor = self.world.now();
        match self.mode {
            Mode::Closed { .. } => {
                let end = cursor + CLOSED_DEADLINE;
                while cursor < end && self.world.pending_events() > 0 {
                    cursor = (cursor + slice).min(end);
                    self.world.run_until(cursor);
                    between_slices();
                    let done = self
                        .clients
                        .iter()
                        .all(|&c| self.node::<ClientLib>(c).is_finished());
                    if done {
                        break;
                    }
                }
                let bound = cursor + LOG_DRAIN_BOUND;
                while self.stranded() > 0 && cursor < bound {
                    cursor += LOG_DRAIN_SLICE;
                    self.world.run_until(cursor);
                    between_slices();
                }
            }
            Mode::Open { measure, drain } => {
                let window_end = cursor + measure;
                for end in [window_end, window_end + drain] {
                    while cursor < end && self.world.pending_events() > 0 {
                        cursor = (cursor + slice).min(end);
                        self.world.run_until(cursor);
                        between_slices();
                    }
                    if end == window_end {
                        // What the overloaded system got done while the
                        // load was on: its capacity.
                        self.completed_in_window = self
                            .clients
                            .iter()
                            .map(|&e| self.node::<OpenLoopClient>(e).counters().completed)
                            .sum();
                    }
                }
            }
        }
        self.drained_at = cursor;
    }

    /// Reads the finished world back through its public accessors and
    /// audits it.
    pub fn outcome(&self) -> Outcome {
        let mut latency = LatencyHistogram::new();
        let mut update_latency = LatencyHistogram::new();
        let mut read_latency = LatencyHistogram::new();
        let mut acked = Vec::new();
        let mut ragged_acks = 0;
        let mut reg = Registry::new();
        let mut last = Time::ZERO;
        let mut traffic = OpenCounts::default();
        let (attempted, completed, sim_ops_per_s);
        match self.mode {
            Mode::Closed { attempted: n } => {
                let mut completions = Vec::new();
                for &c in &self.clients {
                    let client = self.node::<ClientLib>(c);
                    reg.record_group("client", &client.retry_counters());
                    let mut updates = 0;
                    for r in client.records() {
                        latency.record(r.latency);
                        match r.kind {
                            RequestKind::Update => {
                                updates += 1;
                                update_latency.record(r.latency);
                            }
                            RequestKind::Bypass => read_latency.record(r.latency),
                        }
                        completions.push(r.at);
                    }
                    let addr = client.client_addr();
                    match request_final_seqs(client.acked_updates(), updates) {
                        Some(finals) => acked.extend(finals.iter().map(|&(s, q)| (addr, s, q))),
                        None => ragged_acks += 1,
                    }
                }
                completions.sort_unstable();
                last = completions.last().copied().unwrap_or(Time::ZERO);
                attempted = n;
                completed = completions.len() as u64;
                sim_ops_per_s = central_rate(&completions);
            }
            Mode::Open { measure, .. } => {
                for &e in &self.clients {
                    let engine = self.node::<OpenLoopClient>(e);
                    latency.merge(engine.latency_hist());
                    // Open-loop updates are one fragment each.
                    acked.extend_from_slice(engine.acked_updates());
                    let c = engine.counters();
                    traffic.arrivals += c.arrivals;
                    traffic.completed += c.completed;
                    traffic.retransmits += c.retransmits;
                }
                update_latency = latency.clone();
                attempted = traffic.arrivals;
                completed = traffic.completed;
                sim_ops_per_s = self.completed_in_window as f64 / measure.as_secs_f64();
            }
        }

        let mut log_peak_entries = 0;
        let mut log_peak_bytes = 0;
        let mut cache = (0, 0);
        for &d in &self.devices {
            let dev = self.node::<PmnetDevice>(d);
            reg.record_group("device", &dev.counters());
            let log = dev.log_counters();
            reg.record_group("log", &log);
            log_peak_entries = log_peak_entries.max(log.peak_entries);
            log_peak_bytes = log_peak_bytes.max(log.peak_bytes);
            if let Some(c) = dev.cache_counters() {
                cache.0 += c.hits;
                cache.1 += c.misses;
            }
        }
        let server = self.node::<ServerLib>(self.server);
        reg.record_group("server", &server.counters());
        let audit_violations = pmnet_core::audit::verify(server.audit_log(), &acked)
            .err()
            .map_or(0, |violations| violations.len());

        let mut ports = PortTotals::default();
        let table = self.world.ports();
        for (node, port, _) in table.edges() {
            let c = table.counters(node, port);
            ports.tx_packets += c.tx_packets;
            ports.tx_bytes += c.tx_bytes;
            ports.drops += c.dropped_overflow + c.dropped_fault + c.dropped_down;
        }

        Outcome {
            attempted,
            completed,
            sim_ops_per_s,
            latency,
            update_latency,
            read_latency,
            apply_lag: match self.mode {
                Mode::Closed { .. } => self.drained_at.saturating_since(last),
                Mode::Open { .. } => Dur::ZERO,
            },
            end: self.drained_at,
            counters: reg.into_counter_set(),
            log_peak_entries,
            log_peak_bytes,
            cache_hits: cache.0,
            cache_misses: cache.1,
            ports,
            traffic,
            stranded: self.stranded(),
            audit_violations,
            ragged_acks,
        }
    }
}

/// The last fragment of every update one closed-loop client saw
/// acknowledged: what the server's audit log must hold.
///
/// A client lists every fragment of a completed update, contiguous and in
/// issue order; the server records an applied update once, under its last
/// fragment's sequence number. Every update of a workload has the same
/// size, so `acked` is `updates` groups of equal length, each a run of
/// consecutive numbers in one session. `None` when it is not.
fn request_final_seqs(acked: &[(u16, u32)], updates: usize) -> Option<Vec<(u16, u32)>> {
    if updates == 0 {
        return acked.is_empty().then(Vec::new);
    }
    if acked.is_empty() || !acked.len().is_multiple_of(updates) {
        return None;
    }
    let fragments = acked.len() / updates;
    acked
        .chunks(fragments)
        .map(|group| {
            let consecutive = group
                .windows(2)
                .all(|w| w[1] == (w[0].0, w[0].1.wrapping_add(1)));
            consecutive.then(|| group[fragments - 1])
        })
        .collect()
}

/// Completions per simulated second between the 5 % and the 95 %
/// completion of the sorted instants `at`. The ramp and, above all, the
/// stragglers' tail are left out: when the last of 32 clients finishes is
/// the maximum of 32 sums of backoff delays, and moved first-to-last
/// throughput by 5 % from seed to seed where this moves by 3 %
/// (`apply_contended`), by 1.5 % against 0.2 % (`fabric_saturated`).
fn central_rate(at: &[Time]) -> f64 {
    let skip = at.len() / 20;
    match (at.get(skip), at.get(at.len().saturating_sub(skip + 1))) {
        (Some(&from), Some(&to)) if to > from => {
            (at.len() - 2 * skip - 1) as f64 / (to - from).as_secs_f64()
        }
        _ => 0.0,
    }
}

/// Egress-port counters summed over every port of the world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortTotals {
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Wire bytes transmitted.
    pub tx_bytes: u64,
    /// Packets dropped (queue overflow, injected loss, downed link).
    pub drops: u64,
}

/// Open-loop engine accounting summed over the engine nodes (all zero on
/// closed-loop workloads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenCounts {
    /// Arrivals generated.
    pub arrivals: u64,
    /// Ops acknowledged durable.
    pub completed: u64,
    /// Retransmissions sent.
    pub retransmits: u64,
}

/// Everything one repetition's simulated world reports. Two repetitions
/// of the same seed must compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations the clients tried: requests issued (closed) or arrivals
    /// (open).
    pub attempted: u64,
    /// Operations that completed.
    pub completed: u64,
    /// Completed ops per simulated second: between the 5 % and the 95 %
    /// completion (closed), completions inside the arrival window over
    /// its length (open).
    pub sim_ops_per_s: f64,
    /// Latency of every completed op (arrival-anchored for open loop).
    pub latency: LatencyHistogram,
    /// Updates only.
    pub update_latency: LatencyHistogram,
    /// Reads only (empty on update-only workloads).
    pub read_latency: LatencyHistogram,
    /// From the last client completion until every device log was seen
    /// empty (closed loop; zero for open loop, whose engines do not
    /// record when they completed).
    pub apply_lag: Dur,
    /// Simulated instant at which the run stopped.
    pub end: Time,
    /// Client, device, log and server counter groups, summed per group.
    pub counters: CounterSet,
    /// Highest live-entry count any one device log held.
    pub log_peak_entries: u64,
    /// Highest byte occupancy any one device log held.
    pub log_peak_bytes: u64,
    /// Device read-cache hits.
    pub cache_hits: u64,
    /// Device read-cache misses.
    pub cache_misses: u64,
    /// Port counters over the whole world.
    pub ports: PortTotals,
    /// Open-loop accounting.
    pub traffic: OpenCounts,
    /// Device-log entries left when the run stopped.
    pub stranded: usize,
    /// Violations `pmnet_core::audit::verify` found.
    pub audit_violations: usize,
    /// Clients whose acknowledged fragments do not group into whole
    /// updates, so that the audit could not be asked about them.
    pub ragged_acks: usize,
}

impl Outcome {
    /// Operations that did not complete: terminal failures, shed or
    /// dropped arrivals, timeouts, anything unfinished at the deadline.
    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmnet_core::audit::{verify, AuditEntry, AuditLog, AuditViolation};

    /// Three two-fragment updates, acknowledged fragment by fragment.
    const ACKED: [(u16, u32); 6] = [(3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5)];

    fn log_of(seqs: &[u32]) -> AuditLog {
        let mut log = AuditLog::new();
        for &seq in seqs {
            log.record(AuditEntry {
                client: Addr(9),
                session: 3,
                seq,
                redo: false,
                epoch: 0,
            });
        }
        log
    }

    fn audit(log: &AuditLog, updates: usize) -> Result<(), Vec<AuditViolation>> {
        let finals = request_final_seqs(&ACKED, updates).expect("whole updates");
        let acked: Vec<_> = finals.iter().map(|&(s, q)| (Addr(9), s, q)).collect();
        verify(log, &acked).map(|_| ())
    }

    #[test]
    fn fragmented_updates_are_audited_under_their_last_fragment() {
        assert_eq!(
            request_final_seqs(&ACKED, 3),
            Some(vec![(3, 1), (3, 3), (3, 5)])
        );
        assert_eq!(request_final_seqs(&ACKED, 6), Some(ACKED.to_vec()));
        assert_eq!(audit(&log_of(&[1, 3, 5]), 3), Ok(()));
    }

    #[test]
    fn an_acked_update_lost_mid_session_is_a_violation() {
        // Applied before and after it, so no rounding up to "the next
        // applied number" may hide it.
        let lost = AuditViolation::AckedNotApplied {
            client: Addr(9),
            session: 3,
            seq: 3,
        };
        assert_eq!(audit(&log_of(&[1, 5]), 3), Err(vec![lost]));
        // Unfragmented: number 4 applied, 3 not.
        let lost_unfragmented = audit(&log_of(&[0, 1, 2, 4, 5]), 6);
        assert_eq!(lost_unfragmented.map_err(|v| v.len()), Err(1));
    }

    #[test]
    fn acknowledgements_that_are_not_whole_updates_are_refused() {
        assert_eq!(request_final_seqs(&ACKED, 4), None);
        assert_eq!(request_final_seqs(&[], 2), None);
        assert_eq!(request_final_seqs(&[], 0), Some(Vec::new()));
        // A gap inside what should be one update's fragments.
        assert_eq!(request_final_seqs(&[(3, 0), (3, 2)], 1), None);
        // Two sessions inside one update.
        assert_eq!(request_final_seqs(&[(3, 0), (4, 1)], 1), None);
    }

    #[test]
    fn central_rate_ignores_the_stragglers_tail() {
        let at = |us: u64| Time::ZERO + Dur::micros(us);
        // 100 completions a microsecond apart, the last one a second late.
        let mut steady: Vec<Time> = (0..100).map(at).collect();
        let even = central_rate(&steady);
        assert!((even - 1e6).abs() < 1.0, "{even}");
        steady[99] = at(1_000_000);
        assert_eq!(central_rate(&steady), even);
        assert_eq!(central_rate(&[]), 0.0);
        assert_eq!(central_rate(&[at(5)]), 0.0);
    }
}
