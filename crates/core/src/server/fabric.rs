//! The sharded-fabric coordinator: watches per-device heartbeats, runs
//! the pure [`FabricMap`] reconfiguration machine when one times out, and
//! lowers the resulting orders onto the wire (fence → promote → re-steer →
//! notify clients → open a recovery barrier against the survivor).

use pmnet_net::{Addr, Ctx, Packet};
use pmnet_sim::hash::FixedMap;
use pmnet_sim::{Dur, Time};

use super::{ServerLib, TIMER_FABRIC_CHECK};
use crate::fabric::{FabricMap, FabricSteering, ReconfigAction};
use crate::protocol::{client_port, PacketType, PmnetHeader, SERVICE_PORT};

/// How many fabric check ticks a reconfiguration's orders are re-sent
/// for. Every order is idempotent at its receiver (epoch fencing), so
/// bounded re-delivery repairs any single lost control packet without a
/// per-order ack protocol.
const REDELIVER_ROUNDS: u32 = 8;

pmnet_telemetry::counters! {
    /// Per-shard fabric coordinator counters (one [`CounterGroup`] per shard
    /// flows into the telemetry registry, so flight-recorder timelines show
    /// exactly which shard fenced, promoted, and re-homed, and when).
    ///
    /// [`CounterGroup`]: pmnet_telemetry::registry::CounterGroup
    pub struct FabricShardCounters {
        /// Heartbeats received from this shard's members.
        heartbeats_seen,
        /// Failovers executed: a member timed out, was fenced, and its chain
        /// peer took over the shard.
        failovers,
        /// `Fence` orders sent (including bounded re-deliveries).
        fences_sent,
        /// `Promote` orders sent (including bounded re-deliveries).
        promotes_sent,
        /// `ShardMapUpdate` packets sent to the fabric switches.
        steering_updates_sent,
        /// `EpochNotify` packets sent to clients.
        epoch_notices_sent,
        /// Recovery barriers opened against the shard's survivor.
        barriers_opened,
        /// Fences re-sent because a fenced device's heartbeat resurfaced (a
        /// zombie that missed the original order).
        zombie_refences,
    }
}

/// The coordinator's state.
#[derive(Debug)]
pub(super) struct FabricDriver {
    map: FabricMap,
    /// The client-facing fabric switch (steers requests to shard heads).
    merge: Addr,
    /// The server-facing fabric switch (steers replies to shard tails).
    tor: Addr,
    /// Clients to notify with `EpochNotify` after a reconfiguration.
    clients: Vec<Addr>,
    /// A device is declared fail-stop after this long without a heartbeat.
    heartbeat_timeout: Dur,
    /// How often the coordinator sweeps the heartbeat table.
    check_interval: Dur,
    last_heartbeat: FixedMap<Addr, Time>,
    /// Original member → shard assignment, frozen at construction so a
    /// fenced zombie's re-fence still bills to its old shard.
    member_shard: FixedMap<Addr, u16>,
    /// Reconfigurations still inside their re-delivery window:
    /// `(rounds left, shard, orders)`.
    redeliver: Vec<(u32, u16, Vec<ReconfigAction>)>,
    counters: Vec<FabricShardCounters>,
}

impl FabricDriver {
    fn shard_of(&self, dev: Addr) -> u16 {
        self.member_shard.get(&dev).copied().unwrap_or(0)
    }
}

impl ServerLib {
    /// Installs the sharded-fabric coordinator: the server watches the
    /// chain members' heartbeats and, when one goes silent for
    /// `heartbeat_timeout`, fences it, promotes its chain peer, reprograms
    /// the fabric switches at `merge`/`tor`, notifies `clients`, and opens
    /// a recovery barrier against the survivor so its staged log replays
    /// before any read is served.
    #[must_use]
    pub fn with_fabric(
        mut self,
        map: FabricMap,
        merge: Addr,
        tor: Addr,
        clients: Vec<Addr>,
        heartbeat_timeout: Dur,
        check_interval: Dur,
    ) -> ServerLib {
        let shards = map.chains().len();
        let mut member_shard = FixedMap::default();
        for (i, c) in map.chains().iter().enumerate() {
            member_shard.insert(c.primary, i as u16);
            if let Some(b) = c.backup {
                member_shard.insert(b, i as u16);
            }
        }
        self.devices = map.live_members();
        self.fabric = Some(FabricDriver {
            map,
            merge,
            tor,
            clients,
            heartbeat_timeout,
            check_interval,
            last_heartbeat: FixedMap::default(),
            member_shard,
            redeliver: Vec::new(),
            counters: vec![FabricShardCounters::default(); shards],
        });
        self
    }

    /// The fabric coordinator's view of the shard chains, if sharded.
    pub fn fabric_map(&self) -> Option<&FabricMap> {
        self.fabric.as_ref().map(|f| &f.map)
    }

    /// Per-shard fabric coordinator counters (empty when not sharded).
    pub fn fabric_shard_counters(&self) -> Vec<FabricShardCounters> {
        self.fabric
            .as_ref()
            .map_or_else(Vec::new, |f| f.counters.clone())
    }

    /// A chain member's liveness beacon (fabric designs only). The
    /// header's `client` field carries the device's address and `seq` its
    /// view of the fabric epoch.
    pub(super) fn on_heartbeat(&mut self, ctx: &mut Ctx<'_>, header: PmnetHeader) {
        let dev = header.client;
        let Some(fabric) = &mut self.fabric else {
            return;
        };
        let shard = fabric.shard_of(dev);
        if let Some(c) = fabric.counters.get_mut(shard as usize) {
            c.heartbeats_seen += 1;
        }
        if fabric.map.on_heartbeat(dev).is_none() {
            fabric.last_heartbeat.insert(dev, ctx.now());
            return;
        }
        // A fenced device resumed beating: the fence order was lost, or
        // the device restored from a transient crash after the fabric had
        // already moved on. Re-issue the fence.
        let epoch = fabric.map.epoch();
        self.bump_fabric(shard, |c| {
            c.zombie_refences += 1;
            c.fences_sent += 1;
        });
        self.send_fabric_order(ctx, PacketType::Fence, dev, epoch);
    }

    fn bump_fabric(&mut self, shard: u16, f: impl FnOnce(&mut FabricShardCounters)) {
        if let Some(fb) = &mut self.fabric {
            if let Some(c) = fb.counters.get_mut(shard as usize) {
                f(c);
            }
        }
    }

    /// Sends an addressed fabric control order (`Fence`/`Promote`); the
    /// fabric epoch rides in the header's `seq` field.
    fn send_fabric_order(&mut self, ctx: &mut Ctx<'_>, ptype: PacketType, dst: Addr, epoch: u64) {
        let h = PmnetHeader::control(ptype, epoch as u32, self.addr, dst);
        let pkt = Packet::udp(self.addr, dst, SERVICE_PORT, SERVICE_PORT, h.encode(&[]));
        self.send_via_stack(ctx, pkt);
    }

    /// Arms the heartbeat watchdog, on simulation start and after a
    /// restore. The fabric configuration (epochs, retirements) is durable
    /// coordinator state; only the liveness clocks and the re-delivery
    /// window are volatile. Zombies that missed a fence while the server
    /// was dark are re-fenced when their heartbeats resurface.
    pub(super) fn restart_fabric(&mut self, ctx: &mut Ctx<'_>) {
        let Some(fabric) = &mut self.fabric else {
            return;
        };
        fabric.redeliver.clear();
        let now = ctx.now();
        for dev in fabric.map.live_members() {
            fabric.last_heartbeat.insert(dev, now);
        }
        let interval = fabric.check_interval;
        self.arm(ctx, interval, TIMER_FABRIC_CHECK, 0);
    }

    /// One watchdog sweep: re-deliver any in-window reconfiguration
    /// orders, declare fail-stop any member silent past the timeout, run
    /// the [`FabricMap`] machine, and lower its orders onto the wire.
    pub(super) fn on_fabric_check(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Phase 1: decide under the fabric borrow, collect what to send.
        let mut to_lower: Vec<(u16, Vec<ReconfigAction>, bool)> = Vec::new();
        let mut reconfigured = false;
        let live = {
            let Some(fabric) = &mut self.fabric else {
                return;
            };
            // Orders from earlier sweeps still in their re-delivery
            // window go out again (every receiver is epoch-fenced, so
            // duplicates are no-ops; a lost packet is repaired).
            for (rounds, shard, actions) in &mut fabric.redeliver {
                to_lower.push((*shard, actions.clone(), false));
                *rounds -= 1;
            }
            fabric.redeliver.retain(|(rounds, ..)| *rounds > 0);
            for dev in fabric.map.live_members() {
                match fabric.last_heartbeat.get(&dev).copied() {
                    // Never heard from it: start its clock at this sweep.
                    None => {
                        fabric.last_heartbeat.insert(dev, now);
                    }
                    Some(last) if now.saturating_since(last) > fabric.heartbeat_timeout => {
                        let actions = fabric.map.on_device_timeout(dev);
                        if actions.is_empty() {
                            continue; // solo shard with no spare: nothing to do
                        }
                        let shard = fabric.shard_of(dev);
                        if let Some(c) = fabric.counters.get_mut(shard as usize) {
                            c.failovers += 1;
                        }
                        fabric.last_heartbeat.remove(&dev);
                        fabric
                            .redeliver
                            .push((REDELIVER_ROUNDS, shard, actions.clone()));
                        to_lower.push((shard, actions, true));
                        reconfigured = true;
                    }
                    Some(_) => {}
                }
            }
            reconfigured.then(|| fabric.map.live_members())
        };
        // Phase 2: side effects outside the borrow.
        if let Some(live) = live {
            // Keep the device registry in sync so a later server restore
            // opens its barrier against live members only.
            self.devices = live;
        }
        for (shard, actions, fresh) in to_lower {
            for action in actions {
                self.lower_action(ctx, shard, action, fresh);
            }
        }
        if let Some(interval) = self.fabric.as_ref().map(|f| f.check_interval) {
            self.arm(ctx, interval, TIMER_FABRIC_CHECK, 0);
        }
    }

    /// Puts one reconfiguration order on the wire. `fresh` is true on the
    /// sweep that produced the order; re-deliveries repeat the wire sends
    /// but not the coordinator-local barrier bookkeeping (the recovery
    /// poll timer already retries lost polls on its own).
    fn lower_action(&mut self, ctx: &mut Ctx<'_>, shard: u16, action: ReconfigAction, fresh: bool) {
        let (epoch, merge, tor, clients) = match &self.fabric {
            Some(f) => (f.map.epoch(), f.merge, f.tor, f.clients.clone()),
            None => return,
        };
        match action {
            ReconfigAction::Fence(dev) => {
                self.bump_fabric(shard, |c| c.fences_sent += 1);
                self.send_fabric_order(ctx, PacketType::Fence, dev, epoch);
                if fresh {
                    // The dead device can never report `RecoveryDone`:
                    // retire it from any open barrier so parked reads
                    // don't wedge behind a corpse.
                    self.on_recovery_done(ctx, dev);
                }
            }
            ReconfigAction::Promote(dev) => {
                self.bump_fabric(shard, |c| c.promotes_sent += 1);
                self.send_fabric_order(ctx, PacketType::Promote, dev, epoch);
            }
            ReconfigAction::UpdateSteering {
                shard: s,
                head,
                tail,
            } => {
                self.bump_fabric(shard, |c| c.steering_updates_sent += 2);
                let payload = FabricSteering::encode_update(s, head, tail);
                for sw in [merge, tor] {
                    let h = PmnetHeader::control(
                        PacketType::ShardMapUpdate,
                        epoch as u32,
                        self.addr,
                        sw,
                    )
                    .with_payload(&payload);
                    let body = h.encode(&payload);
                    let pkt = Packet::udp(self.addr, sw, SERVICE_PORT, SERVICE_PORT, body);
                    self.send_via_stack(ctx, pkt);
                }
            }
            ReconfigAction::NotifyClients => {
                self.bump_fabric(shard, |c| c.epoch_notices_sent += clients.len() as u64);
                for cl in clients {
                    let h =
                        PmnetHeader::control(PacketType::EpochNotify, epoch as u32, cl, self.addr);
                    let pkt =
                        Packet::udp(self.addr, cl, SERVICE_PORT, client_port(0), h.encode(&[]));
                    self.send_via_stack(ctx, pkt);
                }
            }
            ReconfigAction::OpenBarrier(dev) => {
                if !fresh {
                    return;
                }
                self.bump_fabric(shard, |c| c.barriers_opened += 1);
                self.open_barrier(ctx, dev);
            }
        }
    }
}
