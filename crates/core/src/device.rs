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

use bytes::Bytes;
use pmnet_net::{Addr, Ctx, Msg, Node, Packet, PortNo, Timer};
use pmnet_telemetry::span::OpEvent;
use pmnet_telemetry::Telemetry;
use std::collections::{HashMap, HashSet};

use crate::batch::{BatchBuilder, FRAME_PREFIX_LEN};
use crate::cache::ReadCache;
use crate::config::{BatchConfig, DeviceConfig};
#[cfg(feature = "recorder")]
use crate::events::{Event, EventKind, Recorder};
use crate::kvproto::KvFrame;
use crate::logstore::{BypassReason, LogOutcome, LogStore};
use crate::protocol::{
    is_pmnet_port, PacketType, PmnetHeader, FLAG_CONGESTED, FLAG_REDO, HEADER_LEN,
};

const TIMER_PERSIST_DONE: u32 = 1;
const TIMER_RECOVERY_RESEND: u32 = 2;
const TIMER_ENTRY_RETRY: u32 = 3;
const TIMER_HEARTBEAT: u32 = 4;
/// Doorbell deadline: a staged window flushes after `batch.max_wait` even
/// if it never fills. `a` carries the window id (`batch_seq` at arming
/// time) so a window that already flushed on occupancy ignores the fire.
const TIMER_BATCH_FLUSH: u32 = 5;
/// The single PM write covering a flushed window completed. `a` carries
/// the batch id.
const TIMER_BATCH_PERSIST: u32 = 6;

/// The device's position in its shard's replication chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceRole {
    /// Unreplicated (the single-device configuration, or a promoted
    /// survivor): log-and-ack exactly as the paper describes.
    Solo,
    /// Chain head: logs, forwards the update through the backup, and
    /// withholds the client's PMNet-ACK until the backup's `ChainAck`
    /// proves the update is durable twice.
    Primary,
    /// Chain tail: logs and acknowledges *to the primary* (`ChainAck`)
    /// instead of to the client.
    Backup,
}

/// Fabric wiring a sharded device needs beyond its routing table: its
/// chain role and peer, plus the ports whose meaning the reconfiguration
/// protocol must know (the BFS routing tables alone cannot distinguish a
/// chain link from a bypass link).
#[derive(Debug, Clone, Copy)]
pub struct DeviceFabric {
    /// Chain position.
    pub role: DeviceRole,
    /// The other device of this shard's chain, if any.
    pub chain_peer: Option<Addr>,
    /// Port of the direct link to the chain peer.
    pub chain_port: Option<PortNo>,
    /// Port of the direct link to the client-side fabric switch.
    pub merge_port: Option<PortNo>,
    /// Port of the direct link to the server-side fabric switch; also the
    /// egress for heartbeats (they must not depend on the chain peer being
    /// alive, or a backup failure would mute the primary's liveness too).
    pub tor_port: Option<PortNo>,
    /// The server (fabric coordinator) heartbeats are addressed to.
    pub server: Addr,
}

/// Completion state of one update held back by chain replication.
#[derive(Debug, Clone, Copy, Default)]
struct ChainPending {
    /// Our own PM write finished.
    persisted: bool,
    /// The backup's `ChainAck` arrived.
    chain_acked: bool,
}

/// Device-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Packets forwarded (all kinds).
    pub forwarded: u64,
    /// PMNet-ACKs sent to clients.
    pub acks_sent: u64,
    /// Retransmissions served from the log.
    pub retrans_served: u64,
    /// Recovery resends transmitted (including backoff re-fires).
    pub recovery_resends: u64,
    /// Recovery resends re-fired because the server's redo ack had not
    /// arrived within the backoff window (the retried subset of
    /// `recovery_resends`).
    pub recovery_resend_retries: u64,
    /// `RecoveryDone` notifications sent to recovering servers.
    pub recovery_done_sent: u64,
    /// Update forwards stamped with [`FLAG_CONGESTED`] because the log
    /// bypassed them under pressure (queue or capacity full).
    pub congestion_flagged: u64,
    /// Unacknowledged log entries re-forwarded to the server.
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
        f("recovery_resend_retries", self.recovery_resend_retries);
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
    routes: HashMap<Addr, PortNo>,
    log: LogStore,
    cache: Option<ReadCache>,
    counters: DeviceCounters,
    alive: bool,
    epoch: u64,
    /// Recovery resends staged by a poll, keyed by entry hash. An entry
    /// stays staged — re-fired on a backoff timer — until the server's
    /// redo ack invalidates it; when the last staged entry for a server
    /// clears, the device emits `RecoveryDone`.
    staged_resends: HashMap<u32, StagedResend>,
    /// Cache-miss reads held because a logged update from the same
    /// `(server, client, session)` is still un-server-acked: the update
    /// is durable (we acked it) but possibly unapplied, so forwarding the
    /// read now could let it overtake the update and observe stale state.
    /// Values are `(header hash, packet)`; the hash dedups client
    /// retransmissions of a held read. Held in DRAM — lost on power loss
    /// (the client's timeout resends the read).
    parked_reads: HashMap<(Addr, Addr, u16), Vec<(u32, Packet)>>,
    /// **Fault-injection hook**: skip the cache overwrite on logged
    /// updates, leaving stale values to be served (see
    /// [`PmnetDevice::with_stale_read_bug`]).
    stale_read_bug: bool,
    /// Fabric wiring; `None` for the classic single-device configuration
    /// (every chain/fence code path is then compile-time unreachable —
    /// the solo fast path is byte-identical to the unsharded device).
    fabric: Option<DeviceFabric>,
    /// Fenced out of the fabric by the coordinator: the device forwards
    /// transit traffic but never logs, acks, or serves again.
    fenced: bool,
    /// The fabric configuration epoch this device last applied; stale
    /// (re-delivered) `Promote`/`EpochNotify` orders carry older epochs
    /// and are ignored.
    fabric_epoch: u64,
    /// Primary-role bookkeeping: updates whose client ACK is withheld
    /// until both the local persist and the backup's `ChainAck` land.
    chain_state: HashMap<u32, ChainPending>,
    /// Backup-role bookkeeping: hashes already chain-acked, so a
    /// duplicate (the primary re-driving a lost `ChainAck`) is answered
    /// from DRAM instead of re-logged.
    chain_acked_hashes: HashSet<u32>,
    /// Doorbell batching policy; `window: 1` (the default) takes the
    /// per-packet code path untouched.
    batch: BatchConfig,
    /// Monotone window id: bumped on every flush so a pending
    /// [`TIMER_BATCH_FLUSH`] for an already-flushed window is ignored.
    batch_seq: u64,
    /// Flushed windows whose single PM write is still in flight, keyed by
    /// batch id; the hashes ack (by role) when the write completes.
    inflight_batches: HashMap<u64, Vec<u32>>,
    telemetry: Telemetry,
    #[cfg(feature = "recorder")]
    recorder: Recorder,
}

/// Book-keeping for one staged recovery resend.
#[derive(Debug, Clone, Copy)]
struct StagedResend {
    /// The recovering server this entry is destined to.
    server: Addr,
    /// Transmissions fired so far (drives the backoff exponent).
    attempts: u32,
}

impl PmnetDevice {
    /// Creates a device with the given id and (routable) address.
    pub fn new(name: impl Into<String>, id: u8, addr: Addr, config: DeviceConfig) -> PmnetDevice {
        let cache = if config.cache_entries > 0 {
            Some(ReadCache::new(config.cache_entries))
        } else {
            None
        };
        PmnetDevice {
            name: name.into(),
            id,
            addr,
            config,
            routes: HashMap::new(),
            log: LogStore::new(&config),
            cache,
            counters: DeviceCounters::default(),
            alive: true,
            epoch: 0,
            staged_resends: HashMap::new(),
            parked_reads: HashMap::new(),
            stale_read_bug: false,
            fabric: None,
            fenced: false,
            fabric_epoch: 0,
            chain_state: HashMap::new(),
            chain_acked_hashes: HashSet::new(),
            batch: BatchConfig::default(),
            batch_seq: 0,
            inflight_batches: HashMap::new(),
            telemetry: Telemetry::disabled(),
            #[cfg(feature = "recorder")]
            recorder: Recorder::default(),
        }
    }

    /// Attaches a telemetry handle: the device emits span events as
    /// requests, persists, and cache hits cross it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Installs the doorbell batching policy. With `window: 1` (the
    /// default) every update takes the per-packet path: one PM fence and
    /// one ACK packet each, bit-identical to the unbatched device.
    pub fn set_batch(&mut self, batch: BatchConfig) {
        self.batch = batch;
    }

    /// Builder form of [`PmnetDevice::set_batch`].
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> PmnetDevice {
        self.batch = batch;
        self
    }

    /// **Fault-injection hook**: stops the read cache from being updated
    /// when an update is logged, so a previously cached value keeps being
    /// served after the key has been overwritten by an acknowledged
    /// update. Exists so the `pmnet-model` checker can prove it catches
    /// stale reads; never enable it in a real run.
    #[must_use]
    pub fn with_stale_read_bug(mut self) -> PmnetDevice {
        self.stale_read_bug = true;
        self
    }

    /// In-place variant of [`PmnetDevice::with_stale_read_bug`], for
    /// planting the bug on a device already wired into a built system.
    pub fn set_stale_read_bug(&mut self, enabled: bool) {
        self.stale_read_bug = enabled;
    }

    /// Attaches a history recorder: log-persist and cache-serve events
    /// flow into `recorder`'s shared tap for the `pmnet-model` checker.
    #[cfg(feature = "recorder")]
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
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
    fn pipeline_for(&self, payload_bytes: usize) -> pmnet_sim::Dur {
        self.config.pipeline_delay + self.config.pipeline_per_byte * payload_bytes as u64
    }

    fn forward(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        match self.routes.get(&packet.dst) {
            Some(&port) => {
                self.counters.forwarded += 1;
                let d = self.pipeline_for(packet.payload.len());
                ctx.send_after(d, port, packet);
            }
            None => self.counters.unroutable += 1,
        }
    }

    /// Sends a packet toward `dst` (route lookup, pipeline delay);
    /// returns the egress pipeline delay when the packet was routed.
    fn emit(&mut self, ctx: &mut Ctx<'_>, dst: Addr, packet: Packet) -> Option<pmnet_sim::Dur> {
        match self.routes.get(&dst) {
            Some(&port) => {
                let d = self.pipeline_for(packet.payload.len());
                ctx.send_after(d, port, packet);
                Some(d)
            }
            None => {
                self.counters.unroutable += 1;
                None
            }
        }
    }

    fn handle_update_req(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: PmnetHeader,
        payload: Bytes,
        packet: Packet,
    ) {
        // A corrupted request must never be logged or acknowledged — an
        // ACK would tell the client the update is persistent while the log
        // holds (and would replay) a poisoned entry. Treat it as loss; the
        // client's timeout resend repairs it. Redo resends skip the check
        // here (they were verified when first logged) and are re-verified
        // at the server.
        if !header.is_redo() && !header.verify(packet.dst, &payload) {
            self.counters.corrupt_dropped += 1;
            return;
        }
        let server = packet.dst;
        let client_port = packet.src_port;
        let server_port = packet.dst_port;
        if header.is_redo() {
            // A redo resend from an upstream device's log; it is already
            // persistent upstream and must not be re-acknowledged.
            self.forward(ctx, packet);
            return;
        }
        self.telemetry.op_event(
            self.addr,
            ctx.now(),
            (header.client, header.session, header.seq),
            OpEvent::DeviceRecv {
                device: self.id,
                at: ctx.now(),
            },
        );
        // Try the log first so a pressure bypass can be stamped on the
        // forwarded copy; the forward still happens at `ctx.now()` either
        // way, so the fast path's timing is unchanged (Figure 3: egress
        // forward in parallel with PM logging).
        let arrival = ctx.now() + self.pipeline_for(payload.len());
        let outcome = if self.batch.is_batched() {
            // Doorbell mode: admit behind the window; the PM write (and
            // its fence) is deferred to the whole window's single flush.
            self.log.try_stage(
                arrival,
                header,
                payload.clone(),
                server,
                client_port,
                server_port,
            )
        } else {
            self.log.try_log(
                arrival,
                header,
                payload.clone(),
                server,
                client_port,
                server_port,
            )
        };
        let mut packet = packet;
        if matches!(
            outcome,
            LogOutcome::Bypass(
                BypassReason::QueueFull
                    | BypassReason::LogFull
                    | BypassReason::SessionQuota
                    | BypassReason::Watermark
            )
        ) {
            // Backpressure: the log could not hold this update — or the
            // spill policy shed it to keep occupancy bounded. Flag the
            // forwarded copy so the server's ACK tells the client to widen
            // its RTO instead of hammering a full log. (Hash-collision
            // bypasses are not pressure and stay unflagged.)
            let mut h = header;
            h.flags |= FLAG_CONGESTED;
            packet.payload = h.encode(&payload);
            self.counters.congestion_flagged += 1;
        }
        self.forward(ctx, packet);
        match outcome {
            LogOutcome::Logged { ack_at } => {
                ctx.timer_in(
                    ack_at.saturating_since(ctx.now()),
                    Timer {
                        kind: TIMER_PERSIST_DONE,
                        a: u64::from(header.hash),
                        b: self.epoch,
                    },
                );
                #[cfg(feature = "recorder")]
                self.recorder.record(Event {
                    at: ctx.now(),
                    client: header.client,
                    session: header.session,
                    seq: header.seq,
                    kind: EventKind::DeviceLogged { device: self.addr },
                });
                self.entry_admitted(ctx, &header, &payload);
            }
            LogOutcome::Staged => {
                // Admitted behind the doorbell: no persist timer — the
                // window's single flush owns that.
                self.telemetry.op_event(
                    self.addr,
                    ctx.now(),
                    (header.client, header.session, header.seq),
                    OpEvent::DeviceBatchStage {
                        device: self.id,
                        at: ctx.now(),
                    },
                );
                self.entry_admitted(ctx, &header, &payload);
                if self.log.staged_len() >= self.batch.window as usize {
                    // Window full: ring the doorbell now.
                    self.flush_batch(ctx);
                } else if self.log.staged_len() == 1 {
                    // First entry of a fresh window: bound its wait.
                    ctx.timer_in(
                        self.batch.max_wait,
                        Timer {
                            kind: TIMER_BATCH_FLUSH,
                            a: self.batch_seq,
                            b: self.epoch,
                        },
                    );
                }
            }
            LogOutcome::Duplicate if self.log.is_staged(header.hash) => {
                // The original still sits behind the doorbell: it is not
                // durable yet, so no role may acknowledge it. The window's
                // flush-and-persist will ack (or chain-ack) it.
            }
            LogOutcome::Duplicate => match self.role() {
                // The client retransmitted a logged packet (its ACK was
                // probably lost): re-acknowledge right away.
                DeviceRole::Solo => self.send_ack(ctx, header.hash),
                DeviceRole::Primary => {
                    // Still waiting on the chain: the retransmission has
                    // already been re-forwarded down the chain above (the
                    // backup re-drives a possibly-lost ChainAck); acking
                    // now would claim durability the backup can't confirm.
                    if !self.chain_state.contains_key(&header.hash) {
                        self.send_ack(ctx, header.hash);
                    }
                }
                DeviceRole::Backup => {
                    // The primary (or the client, through it) re-drove the
                    // update: if we already chain-acked it, that ack was
                    // lost — resend it.
                    if self.chain_acked_hashes.contains(&header.hash) {
                        self.send_chain_ack(ctx, header.hash);
                    }
                }
            },
            LogOutcome::Bypass(_) => {
                // Forwarded without logging or acknowledgement; the client
                // falls back to waiting for the server (Section IV-B1).
            }
        }
    }

    /// The log took this update (written or staged): what every admitted
    /// entry needs whichever way its PM write is scheduled.
    fn entry_admitted(&mut self, ctx: &mut Ctx<'_>, header: &PmnetHeader, payload: &Bytes) {
        if self.role() == DeviceRole::Primary {
            // Withhold the client ACK until the backup's ChainAck
            // proves the update is durable on both chain members.
            self.chain_state
                .insert(header.hash, ChainPending::default());
        }
        // If the server never acknowledges (the forward may have been
        // lost with no follow-up traffic to trip the gap detector), redo
        // the entry from the log.
        ctx.timer_in(
            self.config.log_retry_timeout,
            Timer {
                kind: TIMER_ENTRY_RETRY,
                a: u64::from(header.hash),
                b: self.epoch,
            },
        );
        if !self.stale_read_bug {
            if let Some(cache) = &mut self.cache {
                if let Some(KvFrame::Set { key, value }) = KvFrame::decode(payload) {
                    cache.on_update(&key, &value);
                }
            }
        }
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_>, hash: u32) {
        let Some(entry) = self.log.peek(hash) else {
            return; // invalidated before the persist completed
        };
        let ack_header = entry.header.ack_from_device(self.id);
        let client = entry.header.client;
        let key = (entry.header.client, entry.header.session, entry.header.seq);
        let packet = Packet::udp(
            self.addr,
            client,
            entry.server_port,
            entry.client_port,
            ack_header.encode(&[]),
        );
        self.counters.acks_sent += 1;
        if let Some(d) = self.emit(ctx, client, packet) {
            self.telemetry.op_event(
                self.addr,
                ctx.now(),
                key,
                OpEvent::DeviceAckSend {
                    device: self.id,
                    at: ctx.now() + d,
                },
            );
        }
    }

    /// The PM write covering `hash` completed: what gets acknowledged,
    /// and to whom, depends on the chain role. Returns whether the
    /// client's PMNet-ACK is releasable now.
    fn entry_persisted(&mut self, ctx: &mut Ctx<'_>, hash: u32) -> bool {
        match self.role() {
            DeviceRole::Solo => true,
            DeviceRole::Primary => {
                let Some(pending) = self.chain_state.get_mut(&hash) else {
                    // Server-acked (or chain-completed) before the persist
                    // timer fired; the solo path's send_ack no-op on an
                    // invalidated entry has the same effect.
                    return false;
                };
                pending.persisted = true;
                if !pending.chain_acked {
                    return false;
                }
                self.chain_state.remove(&hash);
                self.counters.chain_releases += 1;
                true
            }
            DeviceRole::Backup => {
                self.send_chain_ack(ctx, hash);
                false
            }
        }
    }

    fn on_persist_done(&mut self, ctx: &mut Ctx<'_>, hash: u32) {
        if self.entry_persisted(ctx, hash) {
            self.send_ack(ctx, hash);
        }
    }

    /// Rings the doorbell: every staged entry persists behind **one** PM
    /// write (one fence for the whole window), and the window acks
    /// together when that write completes.
    fn flush_batch(&mut self, ctx: &mut Ctx<'_>) {
        let Some((ack_at, hashes)) = self.log.flush_staged(ctx.now()) else {
            return;
        };
        // Retire the window id so a pending doorbell-deadline timer for
        // this window fizzles.
        self.batch_seq += 1;
        let id = self.batch_seq;
        self.counters.batches_flushed += 1;
        self.counters.batched_entries += hashes.len() as u64;
        self.counters.batch_fences_elided += hashes.len() as u64 - 1;
        for &hash in &hashes {
            let Some(entry) = self.log.peek(hash) else {
                continue;
            };
            let key = (entry.header.client, entry.header.session, entry.header.seq);
            self.telemetry.op_event(
                self.addr,
                ctx.now(),
                key,
                OpEvent::DeviceBatchFlush {
                    device: self.id,
                    at: ctx.now(),
                },
            );
            // The durability point of a staged entry is its flush (the
            // write is now scheduled), mirroring `try_log` on the
            // per-packet path.
            #[cfg(feature = "recorder")]
            self.recorder.record(Event {
                at: ctx.now(),
                client: entry.header.client,
                session: entry.header.session,
                seq: entry.header.seq,
                kind: EventKind::DeviceLogged { device: self.addr },
            });
        }
        ctx.timer_in(
            ack_at.saturating_since(ctx.now()),
            Timer {
                kind: TIMER_BATCH_PERSIST,
                a: id,
                b: self.epoch,
            },
        );
        self.inflight_batches.insert(id, hashes);
    }

    /// The window's single PM write completed: run the per-entry persist
    /// logic, then coalesce the releasable client ACKs into batch packets
    /// (chain ACKs stay per-packet — the peer link is device-to-device).
    fn on_batch_persist_done(&mut self, ctx: &mut Ctx<'_>, batch_id: u64) {
        let Some(mut hashes) = self.inflight_batches.remove(&batch_id) else {
            return;
        };
        hashes.retain(|&hash| self.entry_persisted(ctx, hash));
        self.send_coalesced_acks(ctx, &hashes);
    }

    /// Sends the window's client ACKs, coalescing same-flow ACKs into one
    /// batch packet (capped at `batch.max_frames`). Singleton groups go
    /// out as plain ACK packets, byte-identical to the per-packet path.
    fn send_coalesced_acks(&mut self, ctx: &mut Ctx<'_>, hashes: &[u32]) {
        // Group by destination flow. Entries invalidated since the flush
        // (a raced server ACK) drop out here, same as `send_ack`'s no-op.
        let mut groups: Vec<((Addr, u16, u16), Vec<u32>)> = Vec::new();
        for &hash in hashes {
            let Some(entry) = self.log.peek(hash) else {
                continue;
            };
            let key = (entry.header.client, entry.server_port, entry.client_port);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(hash),
                None => groups.push((key, vec![hash])),
            }
        }
        for ((client, server_port, client_port), group) in groups {
            for chunk in group.chunks(self.batch.max_frames.max(1)) {
                if chunk.len() == 1 {
                    self.send_ack(ctx, chunk[0]);
                    continue;
                }
                let mut b =
                    BatchBuilder::with_capacity(chunk.len() * (FRAME_PREFIX_LEN + HEADER_LEN));
                let mut keys = Vec::with_capacity(chunk.len());
                for &hash in chunk {
                    let Some(entry) = self.log.peek(hash) else {
                        continue;
                    };
                    b.push(&entry.header.ack_from_device(self.id), &[]);
                    keys.push((entry.header.client, entry.header.session, entry.header.seq));
                }
                if b.is_empty() {
                    continue;
                }
                let n = u64::from(b.count());
                let packet = Packet::udp(self.addr, client, server_port, client_port, b.finish());
                self.counters.acks_sent += n;
                self.counters.coalesced_acks += n;
                self.counters.batch_ack_packets += 1;
                if let Some(d) = self.emit(ctx, client, packet) {
                    for key in keys {
                        self.telemetry.op_event(
                            self.addr,
                            ctx.now(),
                            key,
                            OpEvent::DeviceAckSend {
                                device: self.id,
                                at: ctx.now() + d,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Tells the chain primary that `hash` is durable here. The header is
    /// the logged entry's own (so the primary can match by hash) with the
    /// type and acking device rewritten.
    fn send_chain_ack(&mut self, ctx: &mut Ctx<'_>, hash: u32) {
        let Some(peer) = self.fabric.and_then(|f| f.chain_peer) else {
            return;
        };
        let Some(entry) = self.log.peek(hash) else {
            return; // invalidated before the persist completed
        };
        let mut h = entry.header;
        h.ptype = PacketType::ChainAck;
        h.device_id = self.id;
        let pkt = Packet::udp(self.addr, peer, 51000, 51000, h.encode(&[]));
        self.chain_acked_hashes.insert(hash);
        self.counters.chain_acks_sent += 1;
        self.emit(ctx, peer, pkt);
    }

    /// Primary role: the backup confirmed durability of `hash`; release
    /// the withheld client ACK once our own persist has also finished.
    fn handle_chain_ack(&mut self, ctx: &mut Ctx<'_>, header: PmnetHeader, packet: Packet) {
        if packet.dst != self.addr {
            self.forward(ctx, packet);
            return;
        }
        self.counters.chain_acks_received += 1;
        let Some(pending) = self.chain_state.get_mut(&header.hash) else {
            return; // already released, or server-acked in the meantime
        };
        pending.chain_acked = true;
        if pending.persisted {
            self.chain_state.remove(&header.hash);
            self.counters.chain_releases += 1;
            self.send_ack(ctx, header.hash);
        }
    }

    /// Coordinator order: retire from the fabric. The log is purged — its
    /// entries are now owned by the promoted chain survivor — and the
    /// device degrades to a pure forwarder so in-flight traffic through
    /// its links still flows. Idempotent: re-delivered fences (and fences
    /// re-issued at a zombie that heartbeated after being retired) only
    /// bump the epoch forward.
    fn handle_fence(&mut self, ctx: &mut Ctx<'_>, header: PmnetHeader, packet: Packet) {
        if packet.dst != self.addr {
            self.forward(ctx, packet);
            return;
        }
        self.fabric_epoch = self.fabric_epoch.max(u64::from(header.seq));
        if self.fenced {
            return;
        }
        self.fenced = true;
        self.counters.fence_events += 1;
        self.log.purge();
        self.staged_resends.clear();
        self.parked_reads.clear();
        self.chain_state.clear();
        self.chain_acked_hashes.clear();
        self.inflight_batches.clear();
    }

    /// Coordinator order: the chain peer is gone — collapse to solo
    /// operation. Routes that pointed through the dead peer's chain link
    /// are flipped to the bypass links, and (primary role) every update
    /// whose client ACK was withheld for a `ChainAck` that will never
    /// come is acknowledged now: it is durable here, and the coordinator
    /// has fenced the peer, so single-copy durability is the fabric's
    /// contract from this epoch on.
    fn handle_promote(&mut self, ctx: &mut Ctx<'_>, header: PmnetHeader, packet: Packet) {
        if packet.dst != self.addr {
            self.forward(ctx, packet);
            return;
        }
        let epoch = u64::from(header.seq);
        if epoch <= self.fabric_epoch {
            return; // stale or re-delivered order
        }
        self.fabric_epoch = epoch;
        let Some(fabric) = self.fabric else { return };
        self.counters.promotions += 1;
        if let Some(chain_port) = fabric.chain_port {
            let reroutes: Vec<(Addr, PortNo)> = self
                .routes
                .iter()
                .filter(|&(&dst, &port)| port == chain_port && Some(dst) != fabric.chain_peer)
                .map(|(&dst, _)| {
                    let via = if dst == fabric.server {
                        fabric.tor_port
                    } else {
                        fabric.merge_port
                    };
                    (dst, via.unwrap_or(chain_port))
                })
                .collect();
            for (dst, port) in reroutes {
                self.routes.insert(dst, port);
            }
        }
        // Release the withheld ACKs (primary role; empty otherwise).
        let stranded: Vec<u32> = self
            .chain_state
            .iter()
            .filter(|(_, p)| p.persisted)
            .map(|(&h, _)| h)
            .collect();
        self.chain_state.clear();
        for hash in stranded {
            self.counters.chain_releases += 1;
            self.send_ack(ctx, hash);
        }
        self.chain_acked_hashes.clear();
        if let Some(f) = &mut self.fabric {
            f.role = DeviceRole::Solo;
            f.chain_peer = None;
        }
    }

    /// Arms (or re-arms, after a power cycle) the heartbeat timer.
    fn arm_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        if self.fenced || !self.alive {
            return;
        }
        if let (Some(interval), Some(_)) = (self.config.heartbeat_interval, self.fabric) {
            ctx.timer_in(
                interval,
                Timer {
                    kind: TIMER_HEARTBEAT,
                    a: 0,
                    b: self.epoch,
                },
            );
        }
    }

    /// Emits one liveness heartbeat toward the coordinator and re-arms.
    /// Sent out the tor-facing port directly — not through the routing
    /// table — so a primary's liveness does not depend on its backup
    /// relaying (the route to the server runs through the chain).
    fn send_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        if self.fenced {
            return; // a fenced device goes silent; no re-arm either
        }
        let Some(fabric) = self.fabric else { return };
        let Some(tor_port) = fabric.tor_port else {
            return;
        };
        // The epoch rides in `seq`; `client` carries the device's own
        // address so the coordinator knows who is alive regardless of the
        // packet's rewritten src along the path.
        let epoch = self.fabric_epoch as u32;
        let h = PmnetHeader::control(PacketType::Heartbeat, epoch, self.addr, fabric.server);
        let pkt = Packet::udp(self.addr, fabric.server, 51000, 51000, h.encode(&[]));
        self.counters.heartbeats_sent += 1;
        ctx.send_after(self.config.pipeline_delay, tor_port, pkt);
        self.arm_heartbeat(ctx);
    }

    fn handle_server_ack(&mut self, ctx: &mut Ctx<'_>, header: PmnetHeader, packet: Packet) {
        // The server's ack supersedes chain replication for this update:
        // drop any withheld-ack bookkeeping (the client is satisfied by
        // the ServerAck forwarded below).
        self.chain_state.remove(&header.hash);
        self.chain_acked_hashes.remove(&header.hash);
        if let Some(entry) = self.log.invalidate(header.hash) {
            if let Some(cache) = &mut self.cache {
                if let Some(KvFrame::Set { key, .. }) = KvFrame::decode(&entry.payload) {
                    cache.on_server_ack(&key);
                }
            }
            // Last outstanding entry for this session drained: any read
            // held behind it may go. Re-dispatch (not just forward) so a
            // now-clean cache entry can still serve it.
            let session = (entry.server, entry.header.client, entry.header.session);
            if !self.log.has_outstanding(session.0, session.1, session.2) {
                if let Some(parked) = self.parked_reads.remove(&session) {
                    for (_, pkt) in parked {
                        if let Some((h, payload)) = PmnetHeader::decode(&pkt.payload) {
                            self.handle_bypass_req(ctx, h, payload, pkt);
                        }
                    }
                }
            }
        }
        // The redo ack is also the staged-resend confirmation: the server
        // has applied (or deduplicated) this entry, so stop re-firing it
        // and, if it was the last one outstanding for that server, report
        // the log drained.
        if let Some(staged) = self.staged_resends.remove(&header.hash) {
            self.maybe_recovery_done(ctx, staged.server);
        }
        // Forward toward the client; the next PMNet on the route may hold
        // its own copy of the log (Section IV-B1).
        self.forward(ctx, packet);
    }

    /// Emits `RecoveryDone` to `server` once no staged resend for it
    /// remains. Safe to call eagerly: it re-checks the staging table.
    fn maybe_recovery_done(&mut self, ctx: &mut Ctx<'_>, server: Addr) {
        if self.staged_resends.values().any(|s| s.server == server) {
            return;
        }
        let h = PmnetHeader::control(PacketType::RecoveryDone, 0, self.addr, server);
        let pkt = Packet::udp(self.addr, server, 51002, 51000, h.encode(&[]));
        self.counters.recovery_done_sent += 1;
        self.emit(ctx, server, pkt);
    }

    fn handle_retrans(&mut self, ctx: &mut Ctx<'_>, header: PmnetHeader, packet: Packet) {
        // A corrupted hash would address the wrong log entry; the server's
        // gap timer re-arms and retransmits the request.
        if !header.verify(packet.src, &[]) {
            self.counters.corrupt_dropped += 1;
            return;
        }
        // Serve the retransmission from the log (borrowed, not cloned: the
        // redo packet shares the logged payload's refcounted buffer) and
        // drop the request.
        let served = self.log.lookup_for_retrans(header.hash).map(|entry| {
            let mut h = entry.header;
            h.flags |= FLAG_REDO;
            let pkt = Packet::udp(
                entry.header.client,
                entry.server,
                entry.client_port,
                entry.server_port,
                h.encode(&entry.payload),
            );
            (entry.server, pkt)
        });
        match served {
            Some((server, pkt)) => {
                self.counters.retrans_served += 1;
                self.emit(ctx, server, pkt);
            }
            None => self.forward(ctx, packet),
        }
    }

    fn handle_bypass_req(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: PmnetHeader,
        payload: Bytes,
        packet: Packet,
    ) {
        if !header.verify(packet.dst, &payload) {
            self.counters.corrupt_dropped += 1;
            return;
        }
        if let Some(cache) = &mut self.cache {
            if let Some(KvFrame::Get { key }) = KvFrame::decode(&payload) {
                if let Some(value) = cache.lookup(&key) {
                    // Cache hit: answer the read directly (Figure 10).
                    let mut h = header;
                    h.ptype = PacketType::CacheResp;
                    h.device_id = self.id;
                    let frame = KvFrame::Value {
                        key,
                        value: value.into(),
                        found: true,
                    };
                    let frame_bytes = frame.encode();
                    let reply = Packet::udp(
                        self.addr,
                        header.client,
                        packet.dst_port,
                        packet.src_port,
                        h.encode(&frame_bytes),
                    );
                    self.counters.cache_responses += 1;
                    #[cfg(feature = "recorder")]
                    self.recorder.record(Event {
                        at: ctx.now(),
                        client: header.client,
                        session: header.session,
                        seq: header.seq,
                        kind: EventKind::CacheServe {
                            device: self.addr,
                            reply: frame_bytes.clone(),
                        },
                    });
                    let key = (header.client, header.session, header.seq);
                    if let Some(d) = self.emit(ctx, header.client, reply) {
                        self.telemetry.op_event(
                            self.addr,
                            ctx.now(),
                            key,
                            OpEvent::DeviceRecv {
                                device: self.id,
                                at: ctx.now(),
                            },
                        );
                        self.telemetry.op_event(
                            self.addr,
                            ctx.now(),
                            key,
                            OpEvent::DeviceCacheResp {
                                device: self.id,
                                at: ctx.now() + d,
                            },
                        );
                    }
                    return;
                }
            }
        }
        // Cache miss (or no cache): if this session has a logged update
        // still awaiting its server-ACK, the read must not overtake it —
        // we told the client that update is durable. Hold the read; the
        // draining ack releases it (the server applies before acking, so
        // a read forwarded after the ack cannot observe pre-update state).
        let server = packet.dst;
        if self
            .log
            .has_outstanding(server, header.client, header.session)
        {
            let parked = self
                .parked_reads
                .entry((server, header.client, header.session))
                .or_default();
            if !parked.iter().any(|(h, _)| *h == header.hash) {
                self.counters.reads_parked += 1;
                parked.push((header.hash, packet));
            }
            return;
        }
        self.forward(ctx, packet);
    }

    fn handle_app_reply(&mut self, ctx: &mut Ctx<'_>, payload: Bytes, packet: Packet) {
        if let Some(cache) = &mut self.cache {
            if let Some(KvFrame::Value {
                key,
                value,
                found: true,
            }) = KvFrame::decode(&payload)
            {
                cache.on_read_response(&key, &value);
            }
        }
        self.forward(ctx, packet);
    }

    fn handle_recovery_poll(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if packet.dst != self.addr {
            self.forward(ctx, packet);
            return;
        }
        // Stage every durable entry destined to the polling server, in
        // (client, session, seq) order, paced by PM read completions
        // (Figure 3 recovery steps; Section VI-B6 measures this rate).
        // Entries stay staged until the server's redo ack confirms
        // application, so a repeated poll (the server re-polls with
        // backoff until it hears `RecoveryDone`) is idempotent: already
        // staged entries are owned by their backoff timers and are not
        // staged twice.
        let server = packet.src;
        // The manifest carries only (hash, wire bytes): staging needs the
        // PM read size, not a clone of each logged entry.
        for (hash, bytes) in self.log.recovery_manifest(server, ctx.now()) {
            if self.staged_resends.contains_key(&hash) {
                continue;
            }
            let ready = self.log.schedule_read(ctx.now(), bytes);
            self.staged_resends.insert(
                hash,
                StagedResend {
                    server,
                    attempts: 0,
                },
            );
            ctx.timer_in(
                ready.saturating_since(ctx.now()) + self.config.pipeline_delay,
                Timer {
                    kind: TIMER_RECOVERY_RESEND,
                    a: u64::from(hash),
                    b: self.epoch,
                },
            );
        }
        // Nothing (left) to resend for this server: report the drain
        // immediately. This also repairs a lost `RecoveryDone` — the
        // server's next poll regenerates it.
        self.maybe_recovery_done(ctx, server);
    }

    /// Re-forwards a still-unacknowledged log entry to its server as a
    /// redo, and re-arms the retry timer.
    fn retry_entry(&mut self, ctx: &mut Ctx<'_>, hash: u32) {
        // Borrow the entry just long enough to build the redo packet; the
        // packet's payload shares the log's refcounted buffer.
        let Some(entry) = self.log.peek(hash) else {
            return; // acknowledged in the meantime
        };
        let mut h = entry.header;
        h.flags |= FLAG_REDO;
        let server = entry.server;
        let pkt = Packet::udp(
            entry.header.client,
            entry.server,
            entry.client_port,
            entry.server_port,
            h.encode(&entry.payload),
        );
        self.counters.entry_retries += 1;
        self.emit(ctx, server, pkt);
        ctx.timer_in(
            self.config.log_retry_timeout,
            Timer {
                kind: TIMER_ENTRY_RETRY,
                a: u64::from(hash),
                b: self.epoch,
            },
        );
    }

    fn fire_recovery_resend(&mut self, ctx: &mut Ctx<'_>, hash: u32) {
        let Some(staged) = self.staged_resends.get(&hash).copied() else {
            return; // confirmed by a redo ack since the timer was armed
        };
        // The entry may have been invalidated since the poll (e.g. the
        // normal-path server ack raced the staging): nothing left to
        // resend — clear the stage and maybe report the drain. A live
        // entry is borrowed, not cloned, to build the redo packet.
        let (server, pkt) = match self.log.peek(hash) {
            Some(entry) => {
                let mut h = entry.header;
                h.flags |= FLAG_REDO;
                let pkt = Packet::udp(
                    entry.header.client,
                    entry.server,
                    entry.client_port,
                    entry.server_port,
                    h.encode(&entry.payload),
                );
                (entry.server, pkt)
            }
            None => {
                self.staged_resends.remove(&hash);
                self.maybe_recovery_done(ctx, staged.server);
                return;
            }
        };
        self.counters.recovery_resends += 1;
        let attempts = {
            let s = self.staged_resends.get_mut(&hash).expect("checked above");
            s.attempts += 1;
            s.attempts
        };
        if attempts > 1 {
            self.counters.recovery_resend_retries += 1;
        }
        self.emit(ctx, server, pkt);
        // Keep the entry staged: if the redo (or its ack) is lost, re-fire
        // after an exponentially backed-off wait. The redo ack path
        // (`handle_server_ack`) is what finally clears the stage.
        let backoff = self.config.recovery_resend_timeout * (1u64 << (attempts - 1).min(4));
        ctx.timer_in(
            backoff,
            Timer {
                kind: TIMER_RECOVERY_RESEND,
                a: u64::from(hash),
                b: self.epoch,
            },
        );
    }

    fn handle_pmnet_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: PmnetHeader,
        payload: Bytes,
        packet: Packet,
    ) {
        match header.ptype {
            PacketType::UpdateReq => self.handle_update_req(ctx, header, payload, packet),
            PacketType::BypassReq => self.handle_bypass_req(ctx, header, payload, packet),
            PacketType::ServerAck => self.handle_server_ack(ctx, header, packet),
            PacketType::Retrans => self.handle_retrans(ctx, header, packet),
            PacketType::AppReply => self.handle_app_reply(ctx, payload, packet),
            PacketType::RecoveryPoll => self.handle_recovery_poll(ctx, packet),
            PacketType::ChainAck => self.handle_chain_ack(ctx, header, packet),
            PacketType::Fence => self.handle_fence(ctx, header, packet),
            PacketType::Promote => self.handle_promote(ctx, header, packet),
            // ACKs from other PMNets, cache responses, drain reports, and
            // fabric control in transit (a peer's heartbeats, epoch
            // notices, shard-map updates) are forwarded.
            PacketType::PmnetAck
            | PacketType::CacheResp
            | PacketType::RecoveryDone
            | PacketType::Heartbeat
            | PacketType::EpochNotify
            | PacketType::ShardMapUpdate => self.forward(ctx, packet),
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
                    self.forward(ctx, packet);
                    return;
                }
                match PmnetHeader::decode(&packet.payload) {
                    Some((header, payload)) => {
                        self.handle_pmnet_packet(ctx, header, payload, packet)
                    }
                    None => self.forward(ctx, packet),
                }
            }
            Msg::Timer(Timer { kind, a, b }) => {
                if b != self.epoch || !self.alive {
                    return; // stale timer from before a crash
                }
                match kind {
                    TIMER_PERSIST_DONE => self.on_persist_done(ctx, a as u32),
                    TIMER_RECOVERY_RESEND => self.fire_recovery_resend(ctx, a as u32),
                    TIMER_ENTRY_RETRY => self.retry_entry(ctx, a as u32),
                    TIMER_HEARTBEAT => self.send_heartbeat(ctx),
                    // Doorbell deadline: flush only if this window has not
                    // already flushed on occupancy.
                    TIMER_BATCH_FLUSH if a == self.batch_seq => self.flush_batch(ctx),
                    TIMER_BATCH_FLUSH => {}
                    TIMER_BATCH_PERSIST => self.on_batch_persist_done(ctx, a),
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
                // Volatile state is lost; PM keeps entries whose write
                // completed (Section IV-E).
                self.log.crash(ctx.now());
                self.staged_resends.clear();
                // Flushed-but-unpersisted windows die with their timers
                // (the epoch bump); staged-but-unflushed entries were
                // dropped by `log.crash` — none were ever acknowledged.
                self.inflight_batches.clear();
                // Chain bookkeeping is DRAM: withheld-ack state and the
                // chain-acked set vanish. Clients re-drive incomplete
                // updates; the server ack backstops any entry whose chain
                // completion was mid-flight.
                self.chain_state.clear();
                self.chain_acked_hashes.clear();
                // The read cache lives in volatile device memory: power
                // loss empties it, together with the in-flight counts for
                // entries whose log records were just lost (which would
                // otherwise never be acknowledged and leak).
                if let Some(cache) = &mut self.cache {
                    *cache = ReadCache::new(self.config.cache_entries);
                }
                // Parked reads are DRAM too; the clients' read timeouts
                // resend them (and the resends re-park if their session's
                // surviving entries are still un-acked).
                self.parked_reads.clear();
            }
            Msg::Restore => {
                self.alive = true;
                // Surviving (durable) entries lost their retry timers with
                // the pre-crash epoch: re-arm them so an entry whose
                // server ack was in flight during the outage still gets
                // re-driven to the server instead of sitting in the log
                // forever.
                for hash in self.log.hashes() {
                    ctx.timer_in(
                        self.config.log_retry_timeout,
                        Timer {
                            kind: TIMER_ENTRY_RETRY,
                            a: u64::from(hash),
                            b: self.epoch,
                        },
                    );
                    // A restored backup's surviving entries are durable by
                    // definition: repair the chain by re-acking them (the
                    // chain-acked set was DRAM).
                    if self.role() == DeviceRole::Backup {
                        self.send_chain_ack(ctx, hash);
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
        self.routes.insert(dst, port);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use pmnet_net::{EchoHost, LinkSpec, World};

    /// client(EchoHost-sink) -- device -- server(EchoHost-sink)
    ///
    /// EchoHost servers never send server-ACKs, so the rig disables the
    /// device's unacknowledged-entry retry and staged-resend re-fire to
    /// keep runs quiescent; both retry behaviours have their own tests
    /// below.
    fn rig(
        mut config: DeviceConfig,
    ) -> (
        World,
        pmnet_sim::NodeId,
        pmnet_sim::NodeId,
        pmnet_sim::NodeId,
    ) {
        config.log_retry_timeout = pmnet_sim::Dur::secs(3600);
        config.recovery_resend_timeout = pmnet_sim::Dur::secs(3600);
        let mut w = World::new(11);
        let client = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let server = w.add_node(Box::new(EchoHost::sink(Addr(9))));
        let dev = w.add_node(Box::new(PmnetDevice::new("pmnet0", 1, Addr(100), config)));
        w.connect(client, dev, LinkSpec::ten_gbps());
        w.connect(dev, server, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        (w, client, dev, server)
    }

    fn update_packet(seq: u32, payload: &[u8]) -> (PmnetHeader, Packet) {
        let h = PmnetHeader::request(PacketType::UpdateReq, 1, seq, Addr(1), Addr(9), 0, 1)
            .with_payload(payload);
        let p = Packet::udp(Addr(1), Addr(9), 51001, 51000, h.encode(payload));
        (h, p)
    }

    #[test]
    fn update_is_forwarded_and_acked() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let (_, pkt) = update_packet(1, b"hello");
        w.inject(client, pkt);
        w.run_for(pmnet_sim::Dur::millis(5));
        // Server received the forwarded update.
        assert_eq!(w.node::<EchoHost>(server).received(), 1);
        // Client received the PMNet-ACK.
        assert_eq!(w.node::<EchoHost>(client).received(), 1);
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.counters().acks_sent, 1);
        assert_eq!(d.log_len(), 1);
    }

    #[test]
    fn server_ack_invalidates_the_log() {
        let (mut w, client, dev, _server) = rig(SystemConfig::default().device);
        let (h, pkt) = update_packet(1, b"hello");
        w.inject(client, pkt);
        w.run_for(pmnet_sim::Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 1);
        // Server-ACK flows back through the device.
        let ack = Packet::udp(Addr(9), Addr(1), 51000, 51001, h.server_ack().encode(&[]));
        let server_node = pmnet_sim::NodeId(1);
        w.inject(server_node, ack);
        w.run_for(pmnet_sim::Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 0);
        assert_eq!(w.node::<PmnetDevice>(dev).log_counters().invalidated, 1);
        // The ack itself was forwarded on to the client.
        assert_eq!(w.node::<EchoHost>(client).received(), 2);
    }

    #[test]
    fn retrans_is_served_from_the_log_and_dropped() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let (h, pkt) = update_packet(1, b"payload");
        w.inject(client, pkt);
        w.run_for(pmnet_sim::Dur::millis(5));
        assert_eq!(w.node::<EchoHost>(server).received(), 1);
        // Server requests a retransmission of the (supposedly lost) packet.
        let mut rh = h;
        rh.ptype = PacketType::Retrans;
        let retrans = Packet::udp(Addr(9), Addr(1), 51000, 51001, rh.encode(&[]));
        w.inject(pmnet_sim::NodeId(1), retrans);
        w.run_for(pmnet_sim::Dur::millis(5));
        // The device served it to the server; the client never saw the
        // retrans request.
        assert_eq!(w.node::<EchoHost>(server).received(), 2);
        assert_eq!(w.node::<PmnetDevice>(dev).counters().retrans_served, 1);
        // Client got exactly the one ACK from the original update.
        assert_eq!(w.node::<EchoHost>(client).received(), 1);
    }

    #[test]
    fn redo_packets_are_not_relogged_or_acked() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let (h, _) = update_packet(1, b"x");
        let mut redo = h;
        redo.flags |= FLAG_REDO;
        let pkt = Packet::udp(Addr(1), Addr(9), 51001, 51000, redo.encode(b"x"));
        w.inject(client, pkt);
        w.run_for(pmnet_sim::Dur::millis(5));
        assert_eq!(w.node::<EchoHost>(server).received(), 1);
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 0);
        assert_eq!(w.node::<EchoHost>(client).received(), 0);
    }

    #[test]
    fn non_pmnet_traffic_forwards_like_a_switch() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let pkt = Packet::udp(Addr(1), Addr(9), 8080, 8080, Bytes::from_static(b"http"));
        w.inject(client, pkt);
        w.run_for(pmnet_sim::Dur::millis(5));
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
        w.schedule_crash(dev, pmnet_sim::Time::from_nanos(100), None);
        w.run_for(pmnet_sim::Dur::millis(5));
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
        w.run_for(pmnet_sim::Dur::millis(5));
        let filled = w.node::<PmnetDevice>(dev).cache_counters().unwrap();
        assert_eq!(filled.update_fills, 1, "update must land in the cache");
        w.schedule_crash(dev, w.now(), Some(pmnet_sim::Dur::micros(10)));
        w.run_for(pmnet_sim::Dur::millis(1));
        let after = w.node::<PmnetDevice>(dev).cache_counters().unwrap();
        assert_eq!(
            after,
            Default::default(),
            "the read cache must not survive a power cycle"
        );
    }

    #[test]
    fn reads_park_behind_unacked_same_session_updates() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let (h, pkt) = update_packet(1, b"data");
        w.inject(client, pkt);
        w.run_for(pmnet_sim::Dur::millis(5));
        assert_eq!(w.node::<EchoHost>(server).received(), 1);
        // A read from the same session must wait for the entry to drain:
        // the update is durable (we acked it) but maybe unapplied.
        let read = |session: u16, seq: u32| {
            let rh =
                PmnetHeader::request(PacketType::BypassReq, session, seq, Addr(1), Addr(9), 0, 1)
                    .with_payload(b"read");
            Packet::udp(Addr(1), Addr(9), 51001, 51000, rh.encode(b"read"))
        };
        w.inject(client, read(1, 7));
        // A retransmission of the same held read must not park twice.
        w.inject(client, read(1, 7));
        // A different session has nothing outstanding: pass through.
        w.inject(client, read(2, 7));
        w.run_for(pmnet_sim::Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().reads_parked, 1);
        assert_eq!(
            w.node::<EchoHost>(server).received(),
            2,
            "only the other-session read passed the device"
        );
        // The server-ACK drains the entry and releases the held read.
        let ack = Packet::udp(Addr(9), Addr(1), 51000, 51001, h.server_ack().encode(&[]));
        w.inject(server, ack);
        w.run_for(pmnet_sim::Dur::millis(5));
        assert_eq!(
            w.node::<EchoHost>(server).received(),
            3,
            "held read forwarded once its session's log drained"
        );
    }

    #[test]
    fn recovery_poll_resends_logged_entries_in_order() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        for seq in [2u32, 1, 3] {
            let (_, pkt) = update_packet(seq, format!("p{seq}").as_bytes());
            w.inject(client, pkt);
        }
        w.run_for(pmnet_sim::Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 3);
        assert_eq!(w.node::<EchoHost>(server).received(), 3);
        // Server polls the device.
        let poll = PmnetHeader::request(PacketType::RecoveryPoll, 0, 0, Addr(9), Addr(100), 0, 1);
        let pkt = Packet::udp(Addr(9), Addr(100), 51000, 51002, poll.encode(&[]));
        w.inject(pmnet_sim::NodeId(1), pkt);
        w.run_for(pmnet_sim::Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().recovery_resends, 3);
        assert_eq!(w.node::<EchoHost>(server).received(), 6);
    }

    #[test]
    fn unacknowledged_entries_are_retried_to_the_server() {
        let mut config = SystemConfig::default().device;
        config.log_retry_timeout = pmnet_sim::Dur::millis(1);
        let mut w = World::new(11);
        let client = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let server = w.add_node(Box::new(EchoHost::sink(Addr(9))));
        let dev = w.add_node(Box::new(PmnetDevice::new("pmnet0", 1, Addr(100), config)));
        w.connect(client, dev, LinkSpec::ten_gbps());
        w.connect(dev, server, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        let (_, pkt) = update_packet(1, b"payload");
        w.inject(client, pkt);
        // The sink server never ACKs: the device must re-forward the
        // logged entry on each retry interval.
        w.run_for(pmnet_sim::Dur::from_micros_f64(3500.0));
        let d = w.node::<PmnetDevice>(dev);
        assert!(d.counters().entry_retries >= 3, "{:?}", d.counters());
        assert!(w.node::<EchoHost>(server).received() >= 4);
        // Still exactly one log entry (retries are redo copies).
        assert_eq!(d.log_len(), 1);
    }

    #[test]
    fn staged_resends_refire_until_the_redo_ack_confirms() {
        let mut config = SystemConfig::default().device;
        config.log_retry_timeout = pmnet_sim::Dur::secs(3600);
        config.recovery_resend_timeout = pmnet_sim::Dur::micros(50);
        let mut w = World::new(11);
        let client = w.add_node(Box::new(EchoHost::sink(Addr(1))));
        let server = w.add_node(Box::new(EchoHost::sink(Addr(9))));
        let dev = w.add_node(Box::new(PmnetDevice::new("pmnet0", 1, Addr(100), config)));
        w.connect(client, dev, LinkSpec::ten_gbps());
        w.connect(dev, server, LinkSpec::ten_gbps());
        w.populate_switch_routes();
        let (h, pkt) = update_packet(1, b"hello");
        w.inject(client, pkt);
        w.run_for(pmnet_sim::Dur::millis(1));
        // The server "crashes and recovers", then polls; its redo acks
        // never come back (EchoHost sink), so the device must keep
        // re-firing the staged resend with backoff.
        let poll = PmnetHeader::request(PacketType::RecoveryPoll, 0, 0, Addr(9), Addr(100), 0, 1);
        w.inject(
            server,
            Packet::udp(Addr(9), Addr(100), 51000, 51002, poll.encode(&[])),
        );
        w.run_for(pmnet_sim::Dur::millis(2));
        let d = w.node::<PmnetDevice>(dev);
        assert!(d.counters().recovery_resends >= 3, "{:?}", d.counters());
        assert!(
            d.counters().recovery_resend_retries >= 2,
            "{:?}",
            d.counters()
        );
        assert_eq!(d.counters().recovery_done_sent, 0);
        // The redo ack finally lands: the stage clears, RecoveryDone goes
        // out, and the re-fire loop stops.
        let ack = Packet::udp(Addr(9), Addr(1), 51000, 51001, h.server_ack().encode(&[]));
        w.inject(server, ack);
        w.run_for(pmnet_sim::Dur::millis(1));
        let resends_at_ack = w.node::<PmnetDevice>(dev).counters().recovery_resends;
        assert_eq!(w.node::<PmnetDevice>(dev).counters().recovery_done_sent, 1);
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 0);
        w.run_for(pmnet_sim::Dur::millis(5));
        assert_eq!(
            w.node::<PmnetDevice>(dev).counters().recovery_resends,
            resends_at_ack,
            "re-fires must stop once the redo ack confirms"
        );
    }

    #[test]
    fn repeated_polls_are_idempotent_and_regenerate_recovery_done() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        // Poll an empty log: the device reports the drain immediately.
        let poll = PmnetHeader::request(PacketType::RecoveryPoll, 0, 0, Addr(9), Addr(100), 0, 1);
        let poll_pkt = || Packet::udp(Addr(9), Addr(100), 51000, 51002, poll.encode(&[]));
        w.inject(server, poll_pkt());
        w.run_for(pmnet_sim::Dur::millis(1));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().recovery_done_sent, 1);
        // A second poll (the first RecoveryDone may have been lost)
        // regenerates the report.
        w.inject(server, poll_pkt());
        w.run_for(pmnet_sim::Dur::millis(1));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().recovery_done_sent, 2);
        // With an entry staged, repeated polls do not stage (or resend) it
        // twice: the backoff timer owns it.
        let (_, pkt) = update_packet(1, b"hello");
        w.inject(client, pkt);
        w.run_for(pmnet_sim::Dur::millis(1));
        w.inject(server, poll_pkt());
        w.inject(server, poll_pkt());
        w.run_for(pmnet_sim::Dur::millis(2));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.counters().recovery_resends, 1, "{:?}", d.counters());
        // And no premature drain report while the entry is outstanding.
        assert_eq!(d.counters().recovery_done_sent, 2);
    }

    #[test]
    fn log_pressure_bypass_stamps_the_congestion_flag() {
        // A one-entry log: the second distinct update bypasses on LogFull
        // and its forwarded copy must carry the congestion flag.
        let config = SystemConfig::default().device.with_log_capacity(1, 1 << 20);
        let (mut w, client, dev, server) = rig(config);
        let (_, p1) = update_packet(1, b"first");
        let (_, p2) = update_packet(2, b"second");
        w.inject(client, p1);
        w.run_for(pmnet_sim::Dur::millis(1));
        w.inject(client, p2);
        w.run_for(pmnet_sim::Dur::millis(1));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.log_counters().bypass_full, 1);
        assert_eq!(d.counters().congestion_flagged, 1);
        // Both copies were still forwarded to the server.
        assert_eq!(w.node::<EchoHost>(server).received(), 2);
        // Collision-free logged packets stay unflagged.
        assert_eq!(d.log_len(), 1);
    }

    #[test]
    fn batched_updates_share_one_fence_and_coalesce_acks() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        w.node_mut::<PmnetDevice>(dev)
            .set_batch(BatchConfig::windowed(4));
        for seq in 1..=4u32 {
            let (_, pkt) = update_packet(seq, b"payload");
            w.inject(client, pkt);
        }
        w.run_for(pmnet_sim::Dur::millis(5));
        let d = w.node::<PmnetDevice>(dev);
        // One doorbell window: one flush, three fences elided.
        assert_eq!(d.counters().batches_flushed, 1);
        assert_eq!(d.counters().batched_entries, 4);
        assert_eq!(d.counters().batch_fences_elided, 3);
        // All four ACKs rode in a single coalesced packet.
        assert_eq!(d.counters().acks_sent, 4);
        assert_eq!(d.counters().coalesced_acks, 4);
        assert_eq!(d.counters().batch_ack_packets, 1);
        assert_eq!(d.log_len(), 4);
        // Forwarding stayed cut-through: the server saw every update.
        assert_eq!(w.node::<EchoHost>(server).received(), 4);
        // The client received exactly one packet — the ack batch.
        assert_eq!(w.node::<EchoHost>(client).received(), 1);
    }

    #[test]
    fn doorbell_deadline_flushes_a_partial_window() {
        let mut config = SystemConfig::default().device;
        config.log_retry_timeout = pmnet_sim::Dur::secs(3600);
        config.recovery_resend_timeout = pmnet_sim::Dur::secs(3600);
        let (mut w, client, dev, _server) = rig(config);
        let mut batch = BatchConfig::windowed(16);
        batch.max_wait = pmnet_sim::Dur::micros(5);
        w.node_mut::<PmnetDevice>(dev).set_batch(batch);
        // Two updates: far short of the 16-entry window; only the
        // doorbell deadline can release them.
        for seq in 1..=2u32 {
            let (_, pkt) = update_packet(seq, b"x");
            w.inject(client, pkt);
        }
        w.run_for(pmnet_sim::Dur::millis(5));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.counters().batches_flushed, 1);
        assert_eq!(d.counters().batched_entries, 2);
        assert_eq!(d.counters().acks_sent, 2);
        assert_eq!(d.counters().batch_ack_packets, 1);
    }

    #[test]
    fn duplicate_of_a_staged_update_is_not_acked_early() {
        let mut config = SystemConfig::default().device;
        config.log_retry_timeout = pmnet_sim::Dur::secs(3600);
        config.recovery_resend_timeout = pmnet_sim::Dur::secs(3600);
        let (mut w, client, dev, server) = rig(config);
        let mut batch = BatchConfig::windowed(16);
        // A deadline long enough that the duplicate arrives while the
        // original still sits staged.
        batch.max_wait = pmnet_sim::Dur::millis(1);
        w.node_mut::<PmnetDevice>(dev).set_batch(batch);
        let (_, pkt) = update_packet(1, b"dup");
        w.inject(client, pkt.clone());
        w.run_for(pmnet_sim::Dur::micros(100));
        // Still staged: the retransmission must not be acknowledged.
        assert_eq!(w.node::<PmnetDevice>(dev).counters().acks_sent, 0);
        w.inject(client, pkt);
        w.run_for(pmnet_sim::Dur::micros(100));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().acks_sent, 0);
        // The deadline flush releases exactly one ack (no duplicates).
        w.run_for(pmnet_sim::Dur::millis(5));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.counters().batches_flushed, 1);
        assert_eq!(d.counters().acks_sent, 1);
        // Coalescing never kicked in for a singleton window.
        assert_eq!(d.counters().batch_ack_packets, 0);
        assert_eq!(w.node::<EchoHost>(client).received(), 1);
        // Both copies were forwarded (cut-through is unconditional).
        assert_eq!(w.node::<EchoHost>(server).received(), 2);
    }

    #[test]
    fn batched_window_dies_with_a_crash_before_the_doorbell() {
        let mut config = SystemConfig::default().device;
        config.log_retry_timeout = pmnet_sim::Dur::secs(3600);
        config.recovery_resend_timeout = pmnet_sim::Dur::secs(3600);
        let (mut w, client, dev, _server) = rig(config);
        let mut batch = BatchConfig::windowed(16);
        batch.max_wait = pmnet_sim::Dur::millis(1);
        w.node_mut::<PmnetDevice>(dev).set_batch(batch);
        for seq in 1..=3u32 {
            let (_, pkt) = update_packet(seq, b"doomed");
            w.inject(client, pkt);
        }
        // Crash after the updates are staged but before the 1 ms doorbell.
        w.schedule_crash(dev, pmnet_sim::Time::from_nanos(500_000), None);
        w.run_for(pmnet_sim::Dur::millis(10));
        let d = w.node::<PmnetDevice>(dev);
        // Nothing was ever acknowledged, so losing the window is safe.
        assert_eq!(d.counters().acks_sent, 0);
        assert_eq!(d.counters().batches_flushed, 0);
        assert_eq!(d.log_len(), 0, "staged entries are volatile");
        assert_eq!(w.node::<EchoHost>(client).received(), 0);
    }

    #[test]
    fn cache_serves_reads_after_an_update() {
        let config = SystemConfig::default().device.with_cache(1024);
        let (mut w, client, dev, server) = rig(config);
        // SET k=v as an update.
        let set = KvFrame::Set {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
        };
        let h = PmnetHeader::request(PacketType::UpdateReq, 1, 1, Addr(1), Addr(9), 0, 1)
            .with_payload(&set.encode());
        w.inject(
            client,
            Packet::udp(Addr(1), Addr(9), 51001, 51000, h.encode(&set.encode())),
        );
        w.run_for(pmnet_sim::Dur::millis(5));
        // GET k as a bypass: the device must answer from the cache.
        let get = KvFrame::Get {
            key: Bytes::from_static(b"k"),
        };
        let h2 = PmnetHeader::request(PacketType::BypassReq, 1, 1, Addr(1), Addr(9), 0, 1)
            .with_payload(&get.encode());
        w.inject(
            client,
            Packet::udp(Addr(1), Addr(9), 51001, 51000, h2.encode(&get.encode())),
        );
        w.run_for(pmnet_sim::Dur::millis(5));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.counters().cache_responses, 1);
        // The read never reached the server (1 = just the SET).
        assert_eq!(w.node::<EchoHost>(server).received(), 1);
        // Client: 1 ACK + 1 cache response.
        assert_eq!(w.node::<EchoHost>(client).received(), 2);
    }
}
