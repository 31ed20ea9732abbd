//! The PMNet device: a programmable data plane with PM, usable as a ToR
//! switch or a bump-in-the-wire NIC (Sections IV-B, V-A, Figure 8).
//!
//! The three-stage MAT pipeline:
//!
//! 1. **Ingress** — classify by UDP port (PMNet range?) and header `Type`;
//!    non-PMNet packets are forwarded like a regular switch.
//! 2. **PM access** — create a log entry on `update-req`, remove on
//!    `server-ACK`, look up on `Retrans`, all through the BDP-bounded log
//!    queues so the pipeline itself never stalls on PM latency.
//! 3. **Egress** — forward requests toward the server, generate PMNet-ACKs
//!    at persist-completion time, serve retransmissions from the log, and
//!    answer cached reads.
//!
//! One node, split along the state each mechanism owns (the module map
//! is DESIGN.md §19): `update` is the life of a log entry, `redo`
//! everything re-sent from the log, `reads` the cache and parked reads,
//! `fabric` the role rule ([`DeviceRole::owed`]) deciding whom a durable
//! entry is acknowledged to, and the chain link, fence, promote and
//! heartbeat.

mod fabric;
mod reads;
mod redo;
mod update;

use pmnet_net::{Addr, Ctx, EventId, Msg, Node, Packet, PortNo, RouteTable, Timer};
use pmnet_sim::hash::FixedState;
use pmnet_sim::Dur;
use pmnet_telemetry::span::OpEvent;
use pmnet_telemetry::Telemetry;
use std::collections::HashMap;

pub use self::fabric::{DeviceFabric, DeviceRole, Release};
use self::redo::EntryRetry;
use crate::cache::ReadCache;
use crate::config::{BatchConfig, DeviceConfig};
use crate::logstore::LogStore;
use crate::protocol::{is_pmnet_port, PacketType, PmnetHeader};
use crate::rto::RtoEstimator;

/// The single PM write covering a flushed window completed. `a` carries
/// the window id.
const TIMER_PERSIST_DONE: u32 = 1;
const TIMER_ENTRY_RETRY: u32 = 2;
const TIMER_HEARTBEAT: u32 = 3;
/// Doorbell deadline: a staged window flushes after `batch.max_wait` even
/// if it never fills. `a` carries the window id (`batch_seq` at arming
/// time) so a window that already flushed on occupancy ignores the fire.
const TIMER_BATCH_FLUSH: u32 = 4;

/// Device-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Packets forwarded (all kinds).
    pub forwarded: u64,
    /// PMNet-ACKs sent to clients.
    pub acks_sent: u64,
    /// Retransmissions served from the log.
    pub retrans_served: u64,
    /// Recovery resends: the first re-forward of each entry a
    /// `RecoveryPoll` re-armed (its later re-fires are `entry_retries`).
    pub recovery_resends: u64,
    /// `RecoveryDone` notifications sent to recovering servers.
    pub recovery_done_sent: u64,
    /// Update forwards stamped with [`crate::protocol::FLAG_CONGESTED`]
    /// because the log bypassed them under pressure (queue or capacity
    /// full).
    pub congestion_flagged: u64,
    /// Unacknowledged log entries re-forwarded to the server on their
    /// retry timer, apart from the recovery resends.
    pub entry_retries: u64,
    /// Reads served from the cache.
    pub cache_responses: u64,
    /// Reads held behind an outstanding logged update from the same
    /// session (released when the session's last entry is server-acked).
    pub reads_parked: u64,
    /// Packets dropped for lack of a route.
    pub unroutable: u64,
    /// PMNet requests dropped because the header hash or payload CRC
    /// failed to verify (a bit flipped in flight).
    pub corrupt_dropped: u64,
    /// Liveness heartbeats emitted toward the fabric coordinator.
    pub heartbeats_sent: u64,
    /// `ChainAck`s sent to the chain primary (backup role).
    pub chain_acks_sent: u64,
    /// `ChainAck`s received from the chain backup (primary role).
    pub chain_acks_received: u64,
    /// Client PMNet-ACKs that were withheld for chain replication and
    /// released by the backup's `ChainAck`.
    pub chain_releases: u64,
    /// `Fence` orders applied (log purged, device retired from the fabric).
    pub fence_events: u64,
    /// `Promote` orders applied (chain collapsed to solo operation).
    pub promotions: u64,
    /// Doorbell windows flushed, each behind a single PM fence.
    pub batches_flushed: u64,
    /// Log entries persisted through batched flushes.
    pub batched_entries: u64,
    /// Per-entry PM fences elided by batching
    /// (`batched_entries - batches_flushed`).
    pub batch_fences_elided: u64,
    /// Client PMNet-ACKs that rode in a coalesced batch packet (the
    /// coalesced subset of `acks_sent`).
    pub coalesced_acks: u64,
    /// Coalesced batch ACK packets emitted (each carries ≥ 2 ACK frames).
    pub batch_ack_packets: u64,
}

impl pmnet_telemetry::registry::CounterGroup for DeviceCounters {
    fn visit_counters(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("forwarded", self.forwarded);
        f("acks_sent", self.acks_sent);
        f("retrans_served", self.retrans_served);
        f("recovery_resends", self.recovery_resends);
        f("recovery_done_sent", self.recovery_done_sent);
        f("congestion_flagged", self.congestion_flagged);
        f("entry_retries", self.entry_retries);
        f("cache_responses", self.cache_responses);
        f("reads_parked", self.reads_parked);
        f("unroutable", self.unroutable);
        f("corrupt_dropped", self.corrupt_dropped);
        f("heartbeats_sent", self.heartbeats_sent);
        f("chain_acks_sent", self.chain_acks_sent);
        f("chain_acks_received", self.chain_acks_received);
        f("chain_releases", self.chain_releases);
        f("fence_events", self.fence_events);
        f("promotions", self.promotions);
        f("batches_flushed", self.batches_flushed);
        f("batched_entries", self.batched_entries);
        f("batch_fences_elided", self.batch_fences_elided);
        f("coalesced_acks", self.coalesced_acks);
        f("batch_ack_packets", self.batch_ack_packets);
    }
}

/// The PMNet device node.
#[derive(Debug)]
pub struct PmnetDevice {
    name: String,
    id: u8,
    addr: Addr,
    config: DeviceConfig,
    routes: RouteTable,
    /// The PM log: the only state that survives a power loss, and the
    /// only place an entry's durability is recorded.
    log: LogStore,
    cache: Option<ReadCache>,
    counters: DeviceCounters,
    alive: bool,
    /// Power epoch, stamped on every timer; bumped by a crash so timers
    /// armed before it are dropped at dispatch.
    epoch: u64,
    /// The re-forward of every live log entry, keyed by entry hash: its
    /// armed [`TIMER_ENTRY_RETRY`], which the server ack that invalidates
    /// the entry cancels. A `RecoveryPoll` pulls its server's durable
    /// entries forward into paced resends and marks them as owing the
    /// barrier; the last of them to retire sends `RecoveryDone`. Held in
    /// DRAM; `Restore` re-arms the survivors.
    entry_retries: HashMap<u32, EntryRetry, FixedState>,
    /// One timeout estimator per destination server, fed by the server
    /// acks that invalidate entries; it times every entry's re-forward.
    /// Forgotten on power loss, as a client restart forgets its RTTs.
    server_rtos: HashMap<Addr, RtoEstimator, FixedState>,
    /// Cache-miss reads held because a logged update from the same
    /// `(server, client, session)` is still un-server-acked: the update
    /// is durable (we acked it) but possibly unapplied, so forwarding the
    /// read now could let it overtake the update and observe stale state.
    /// Values are `(header hash, packet)`; the hash dedups client
    /// retransmissions of a held read. Held in DRAM — lost on power loss
    /// (the client's timeout resends the read).
    parked_reads: HashMap<(Addr, Addr, u16), Vec<(u32, Packet)>>,
    /// **Fault-injection hook** (see [`PmnetDevice::set_stale_read_bug`]).
    stale_read_bug: bool,
    /// Fabric wiring, the chain role included; `None` for the classic
    /// single-device configuration, whose role is [`DeviceRole::Solo`].
    fabric: Option<DeviceFabric>,
    /// Fenced out of the fabric by the coordinator: the device forwards
    /// transit traffic but never logs, acks, or serves again.
    fenced: bool,
    /// The fabric configuration epoch this device last applied; stale
    /// (re-delivered) `Promote`/`EpochNotify` orders carry older epochs
    /// and are ignored.
    fabric_epoch: u64,
    /// Doorbell batching policy; `window: 1` (the default) is a window of
    /// one, flushed by the entry that opens it.
    batch: BatchConfig,
    /// The open window's id: bumped on every flush so a pending
    /// [`TIMER_BATCH_FLUSH`] for an already-flushed window is ignored.
    batch_seq: u64,
    /// `(window id, hash)` of every entry whose window's PM write is in
    /// flight, in flush order: the payload of the pending
    /// [`TIMER_PERSIST_DONE`]s.
    persisting: Vec<(u64, u32)>,
    /// Reused buffer for the hashes one completed write covers.
    written_scratch: Vec<u32>,
    telemetry: Telemetry,
}

impl PmnetDevice {
    /// Creates a device with the given id and (routable) address.
    pub fn new(name: impl Into<String>, id: u8, addr: Addr, config: DeviceConfig) -> PmnetDevice {
        PmnetDevice {
            name: name.into(),
            id,
            addr,
            config,
            routes: RouteTable::default(),
            log: LogStore::new(&config),
            cache: (config.cache_entries > 0).then(|| ReadCache::new(config.cache_entries)),
            counters: DeviceCounters::default(),
            alive: true,
            epoch: 0,
            entry_retries: HashMap::default(),
            server_rtos: HashMap::default(),
            parked_reads: HashMap::new(),
            stale_read_bug: false,
            fabric: None,
            fenced: false,
            fabric_epoch: 0,
            batch: BatchConfig::default(),
            batch_seq: 0,
            // Sized so writes in flight and the windows they cover never
            // grow either buffer while traffic runs.
            persisting: Vec::with_capacity(256),
            written_scratch: Vec::with_capacity(64),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: the device emits span events as
    /// requests, persists, and cache hits cross it, and records log
    /// persists and cache serves in the history.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Installs the doorbell batching policy. With `window: 1` (the
    /// default) every update is a window of one: one PM fence and one ACK
    /// packet each, bit-identical to the unbatched device.
    pub fn set_batch(&mut self, batch: BatchConfig) {
        self.batch = batch;
    }

    /// Builder form of [`PmnetDevice::set_batch`].
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> PmnetDevice {
        self.set_batch(batch);
        self
    }

    /// **Fault-injection hook**: stops the read cache from being updated
    /// when an update is logged, so a previously cached value keeps being
    /// served after the key has been overwritten by an acknowledged
    /// update. Exists so the `pmnet-model` checker can prove it catches
    /// stale reads; never enable it in a real run.
    #[doc(hidden)]
    pub fn set_stale_read_bug(&mut self, enabled: bool) {
        self.stale_read_bug = enabled;
    }

    /// The device's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device id (appears in PMNet-ACK headers; replication).
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Device counters.
    pub fn counters(&self) -> DeviceCounters {
        self.counters
    }

    /// Installs the fabric wiring (chain role, peer, and the ports the
    /// reconfiguration protocol steers). Called by the system builder
    /// after links are connected, since the port numbers only exist then.
    pub fn set_fabric(&mut self, fabric: DeviceFabric) {
        self.fabric = Some(fabric);
    }

    /// The device's current chain role ([`DeviceRole::Solo`] when no
    /// fabric wiring is installed).
    pub fn role(&self) -> DeviceRole {
        self.fabric.map_or(DeviceRole::Solo, |f| f.role)
    }

    /// True once the coordinator has fenced this device out of the fabric.
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// True while the device is powered (false between a crash and its
    /// restore — or forever, for a fail-stopped device).
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// The fabric configuration epoch this device last applied.
    pub fn fabric_epoch(&self) -> u64 {
        self.fabric_epoch
    }

    /// Degrades (or restores, with `1`) the log PM's speed by `factor` —
    /// a chaos-injection hook modeling a misbehaving module.
    pub fn set_pm_slowdown(&mut self, factor: u32) {
        self.log.pm_mut().set_slowdown(factor);
    }

    /// Log counters.
    pub fn log_counters(&self) -> crate::logstore::LogCounters {
        self.log.counters()
    }

    /// Live log entries.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Cache counters, if caching is enabled.
    pub fn cache_counters(&self) -> Option<crate::cache::CacheCounters> {
        self.cache.as_ref().map(|c| c.counters())
    }

    /// The MAT pipeline traversal time for a packet of this size.
    fn pipeline_for(&self, payload_bytes: usize) -> Dur {
        self.config.pipeline_delay + self.config.pipeline_per_byte * payload_bytes as u64
    }

    /// Sends a packet the device originates toward its `dst` (route
    /// lookup, pipeline delay); returns the egress pipeline delay when the
    /// packet was routed.
    fn emit(&mut self, ctx: &mut Ctx<'_>, packet: Packet) -> Option<Dur> {
        let Some(port) = self.routes.get(packet.dst) else {
            self.counters.unroutable += 1;
            return None;
        };
        let d = self.pipeline_for(packet.payload.len());
        ctx.send_after(d, port, packet);
        Some(d)
    }

    /// Passes on a packet the device did not originate.
    fn forward(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if self.emit(ctx, packet).is_some() {
            self.counters.forwarded += 1;
        }
    }

    /// Arms a timer stamped with the power epoch; the [`Node`] impl drops
    /// any whose stamp a crash has since made stale.
    fn arm(&self, ctx: &mut Ctx<'_>, after: Dur, kind: u32, a: u64) -> EventId {
        let b = self.epoch;
        ctx.timer_in(after, Timer { kind, a, b })
    }

    /// Records a span event for the request `header` identifies.
    fn span(&self, ctx: &Ctx<'_>, header: &PmnetHeader, event: OpEvent) {
        let key = (header.client, header.session, header.seq);
        self.telemetry.op_event(self.addr, ctx.now(), key, event);
    }

    /// Drops everything the device holds outside PM: what a power loss
    /// takes, and what a fenced device will never use again. The log
    /// itself is the caller's to settle (`crash` keeps what had persisted,
    /// `purge` nothing).
    fn reset_volatile(&mut self) {
        // Entry retries (recovery resends included) and flushed-but-
        // unpersisted windows die with their timers. A withheld chain ack
        // needs nothing here: the backup's confirmation is the entry's.
        self.entry_retries.clear();
        self.server_rtos.clear();
        self.persisting.clear();
        // The clients' read timeouts resend parked reads (and the resends
        // re-park if their session's surviving entries are still un-acked).
        self.parked_reads.clear();
        // The read cache goes together with its in-flight counts for
        // entries whose log records were just lost (which would otherwise
        // never be acknowledged and leak).
        if let Some(cache) = &mut self.cache {
            *cache = ReadCache::new(self.config.cache_entries);
        }
    }
}

impl Node for PmnetDevice {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::Packet { packet, .. } => {
                if !self.alive {
                    return; // a powered-off device drops traffic
                }
                // A fenced device is a pure forwarder: transit traffic
                // through its links still flows, but it never logs, acks,
                // serves, or answers fabric control again. Packets
                // addressed to it (re-delivered fences, stale polls) are
                // absorbed.
                if self.fenced {
                    if packet.dst != self.addr {
                        self.forward(ctx, packet);
                    }
                    return;
                }
                // Ingress stage: PMNet traffic is identified by the UDP
                // port range; anything else forwards like a plain switch.
                if !is_pmnet_port(packet.dst_port) && !is_pmnet_port(packet.src_port) {
                    return self.forward(ctx, packet);
                }
                let Some((header, payload)) = PmnetHeader::decode(&packet.payload) else {
                    return self.forward(ctx, packet);
                };
                let ours = packet.dst == self.addr;
                match header.ptype {
                    PacketType::UpdateReq => self.handle_update_req(ctx, header, payload, packet),
                    PacketType::BypassReq => self.handle_bypass_req(ctx, header, payload, packet),
                    PacketType::ServerAck => self.handle_server_ack(ctx, header, packet),
                    PacketType::Retrans => self.handle_retrans(ctx, header, packet),
                    PacketType::AppReply => self.handle_app_reply(ctx, payload, packet),
                    PacketType::RecoveryPoll if ours => self.handle_recovery_poll(ctx, packet.src),
                    PacketType::ChainAck if ours => self.handle_chain_ack(ctx, header.hash),
                    PacketType::Fence if ours => self.handle_fence(u64::from(header.seq)),
                    PacketType::Promote if ours => self.handle_promote(ctx, u64::from(header.seq)),
                    // Control addressed to another device, ACKs from other
                    // PMNets, cache responses, drain reports, and fabric
                    // control in transit (a peer's heartbeats, epoch
                    // notices, shard-map updates) are forwarded.
                    PacketType::RecoveryPoll
                    | PacketType::ChainAck
                    | PacketType::Fence
                    | PacketType::Promote
                    | PacketType::PmnetAck
                    | PacketType::CacheResp
                    | PacketType::RecoveryDone
                    | PacketType::Heartbeat
                    | PacketType::EpochNotify
                    | PacketType::ShardMapUpdate => self.forward(ctx, packet),
                }
            }
            Msg::Timer(Timer { kind, a, b }) => {
                if b != self.epoch || !self.alive {
                    return; // stale timer from before a crash
                }
                match kind {
                    TIMER_PERSIST_DONE => self.on_persist_done(ctx, a),
                    TIMER_ENTRY_RETRY => self.retry_entry(ctx, a as u32),
                    TIMER_HEARTBEAT => self.send_heartbeat(ctx),
                    // Doorbell deadline: flush only if this window has not
                    // already flushed on occupancy.
                    TIMER_BATCH_FLUSH if a == self.batch_seq => {
                        let now = ctx.now();
                        self.flush_batch(ctx, now);
                    }
                    _ => {}
                }
            }
            Msg::Start => self.arm_heartbeat(ctx),
            // Idempotent power transitions (see the server note): a second
            // crash inside an existing downtime window is a no-op.
            Msg::Crash if !self.alive => {}
            Msg::Restore if self.alive => {}
            Msg::Crash => {
                self.alive = false;
                self.epoch += 1;
                // PM keeps the entries whose write had completed (Section
                // IV-E); staged-but-unflushed ones go with the rest — none
                // was ever acknowledged.
                self.log.crash(ctx.now());
                self.reset_volatile();
            }
            Msg::Restore => {
                self.alive = true;
                // Surviving (durable) entries lost their retry timers with
                // the pre-crash epoch: re-arm them so an entry whose
                // server ack was in flight during the outage still gets
                // re-driven to the server instead of sitting in the log
                // forever. A backup also re-sends each survivor's
                // `ChainAck`: its primary may be withholding a client ack
                // on one the outage swallowed. (A client whose PMNet-ACK
                // was lost retransmits, and the duplicate is answered.)
                let backup = self.role() == DeviceRole::Backup;
                for hash in self.log.hashes() {
                    if let Some(server) = self.log.peek(hash).map(|e| e.server) {
                        self.arm_entry_retry(ctx, hash, server);
                    }
                    if backup {
                        self.settle(ctx, hash);
                    }
                }
                // Resume heartbeating: if the coordinator retired this
                // device during the outage it answers with a fresh Fence.
                self.arm_heartbeat(ctx);
            }
            _ => {}
        }
    }

    fn addr(&self) -> Option<Addr> {
        Some(self.addr)
    }

    fn install_route(&mut self, dst: Addr, port: PortNo) {
        self.routes.install(dst, port);
    }
}

/// The rig the per-file unit tests share.
#[cfg(test)]
pub(super) mod rig {
    pub use super::*;
    pub use crate::config::SystemConfig;
    pub use bytes::Bytes;
    pub use pmnet_net::{AnyNode, EchoHost, LinkSpec, World};
    pub use pmnet_sim::{NodeId, Time};

    /// client(EchoHost-sink) -- device -- `server` (at `Addr(9)`)
    pub fn rig_with_server(
        config: DeviceConfig,
        server: Box<dyn AnyNode>,
    ) -> (World, NodeId, NodeId, NodeId) {
        let mut w = World::new(11);
        let client = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let server = w.add_node(server);
        let dev = w.add_node(Box::new(PmnetDevice::new("pmnet0", 1, Addr(100), config)));
        w.connect(client, dev, LinkSpec::ten_gbps());
        w.connect(dev, server, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        (w, client, dev, server)
    }

    /// EchoHost servers never send server-ACKs, so the usual rig pushes
    /// the device's entry retry (and so a recovery resend's re-fires) an
    /// hour out to keep runs quiescent; retries have their own tests.
    pub fn rig(mut config: DeviceConfig) -> (World, NodeId, NodeId, NodeId) {
        config.log_retry_timeout = Dur::secs(3600);
        rig_with_server(config, Box::new(EchoHost::sink(Addr(9))))
    }

    pub fn update_packet(seq: u32, payload: &[u8]) -> (PmnetHeader, Packet) {
        let h = PmnetHeader::request(PacketType::UpdateReq, 1, seq, Addr(1), Addr(9), 0, 1)
            .with_payload(payload);
        let p = Packet::udp(Addr(1), Addr(9), 51001, 51000, h.encode(payload));
        (h, p)
    }

    /// A `RecoveryPoll` from the rig's server to its device.
    pub fn poll_packet() -> Packet {
        let poll = PmnetHeader::request(PacketType::RecoveryPoll, 0, 0, Addr(9), Addr(100), 0, 1);
        Packet::udp(Addr(9), Addr(100), 51000, 51002, poll.encode(&[]))
    }

    /// The server's ack of the update `h` heads.
    pub fn server_ack(h: &PmnetHeader) -> Packet {
        Packet::udp(Addr(9), Addr(1), 51000, 51001, h.server_ack().encode(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::rig::*;

    #[test]
    fn non_pmnet_traffic_forwards_like_a_switch() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let pkt = Packet::udp(Addr(1), Addr(9), 8080, 8080, Bytes::from_static(b"http"));
        w.inject(client, pkt);
        w.run_for(Dur::millis(5));
        assert_eq!(w.node::<EchoHost>(server).received(), 1);
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 0);
    }

    #[test]
    fn crash_loses_unpersisted_entries_and_stops_acks() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let (_, pkt) = update_packet(1, b"data");
        w.inject(client, pkt);
        // Crash the device almost immediately — before the ~380 ns link
        // delivery plus 273 ns PM write can complete.
        w.schedule_crash(dev, Time::from_nanos(100), None);
        w.run_for(Dur::millis(5));
        // The packet reached the device after the crash: dropped entirely.
        assert_eq!(w.node::<EchoHost>(server).received(), 0);
        assert_eq!(w.node::<EchoHost>(client).received(), 0);
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 0);
    }

    #[test]
    fn cache_is_volatile_across_power_loss() {
        let (mut w, client, dev, _server) = rig(SystemConfig::default().device.with_cache(64));
        let frame = crate::kvproto::KvFrame::Set {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
        }
        .encode();
        let (_, pkt) = update_packet(1, &frame);
        w.inject(client, pkt);
        w.run_for(Dur::millis(5));
        let filled = w.node::<PmnetDevice>(dev).cache_counters().unwrap();
        assert_eq!(filled.update_fills, 1, "update must land in the cache");
        w.schedule_crash(dev, w.now(), Some(Dur::micros(10)));
        w.run_for(Dur::millis(1));
        let after = w.node::<PmnetDevice>(dev).cache_counters().unwrap();
        assert_eq!(
            after,
            Default::default(),
            "the read cache must not survive a power cycle"
        );
    }
}
