//! The device's side of the sharded fabric (DESIGN.md §13, §19): the
//! role rule deciding whom a durable entry is acknowledged to, the chain
//! peer link, the coordinator's `Fence` and `Promote` orders, and the
//! liveness heartbeat.

use pmnet_net::{Addr, Ctx, Packet, PortNo};
use pmnet_sim::{Dur, Time};

use super::{PmnetDevice, TIMER_HEARTBEAT};
use crate::logstore::LogStore;
use crate::protocol::{PacketType, PmnetHeader};

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

/// What the device owes for one entry after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// Nothing yet: a later event (the write completing, the backup's
    /// confirmation, a promotion) releases it.
    Hold,
    /// The PMNet-ACK to the client.
    AckClient,
    /// The `ChainAck` to the chain primary.
    AckPrimary,
}

impl DeviceRole {
    /// The one acknowledgement rule: what the entry `hash` is owed at
    /// `now`. Nothing unless it is durable ([`LogStore::durable`]); then a
    /// solo device acks the client, a primary does so once its backup has
    /// confirmed the entry ([`crate::logstore::LogEntry::confirmed`]), and
    /// a backup acks the primary. Every fact it reads is in the log.
    pub fn owed(self, log: &LogStore, hash: u32, now: Time) -> Release {
        if !log.durable(hash, now) {
            return Release::Hold;
        }
        match self {
            DeviceRole::Solo => Release::AckClient,
            DeviceRole::Primary if log.peek(hash).is_some_and(|e| e.confirmed) => {
                Release::AckClient
            }
            DeviceRole::Primary => Release::Hold,
            DeviceRole::Backup => Release::AckPrimary,
        }
    }
}

/// How often a fabric-wired device beacons its liveness to the
/// coordinator, whose watchdog fences a member silent for longer.
const HEARTBEAT_INTERVAL: Dur = Dur::micros(100);

/// Fabric wiring a sharded device needs beyond its routing table: its
/// chain role and peer, plus the ports whose meaning the reconfiguration
/// protocol must know (the BFS routing tables alone cannot distinguish a
/// chain link from a bypass link).
#[derive(Debug, Clone, Copy)]
pub struct DeviceFabric {
    /// Chain position, the device's one record of its role; `Promote`
    /// turns it [`DeviceRole::Solo`].
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

impl PmnetDevice {
    /// Tells the chain primary that `hash` is durable here. The header is
    /// the logged entry's own (so the primary can match by hash) with the
    /// type and acking device rewritten.
    pub(super) fn send_chain_ack(&mut self, ctx: &mut Ctx<'_>, hash: u32) {
        let Some(peer) = self.fabric.and_then(|f| f.chain_peer) else {
            return;
        };
        let Some(entry) = self.log.peek(hash) else {
            return;
        };
        let mut h = entry.header;
        h.ptype = PacketType::ChainAck;
        h.device_id = self.id;
        let pkt = Packet::udp(self.addr, peer, 51000, 51000, h.encode(&[]));
        self.counters.chain_acks_sent += 1;
        self.emit(ctx, pkt);
    }

    /// Primary role: the backup confirmed durability of `hash`; release
    /// the withheld client ACK once our own write has also finished. A
    /// repeat, or one for an entry the server already acknowledged,
    /// releases nothing.
    pub(super) fn handle_chain_ack(&mut self, ctx: &mut Ctx<'_>, hash: u32) {
        self.counters.chain_acks_received += 1;
        if self.role() == DeviceRole::Primary && self.log.confirm(hash) && self.settle(ctx, hash) {
            self.counters.chain_releases += 1;
            self.ack_clients(ctx, &[hash]);
        }
    }

    /// Coordinator order: retire from the fabric. The log is purged — its
    /// entries are now owned by the promoted chain survivor — and the
    /// device degrades to a pure forwarder so in-flight traffic through
    /// its links still flows. Applied once: dispatch absorbs whatever is
    /// addressed to a fenced device, re-delivered fences included.
    pub(super) fn handle_fence(&mut self, epoch: u64) {
        self.fabric_epoch = self.fabric_epoch.max(epoch);
        self.fenced = true;
        self.counters.fence_events += 1;
        self.log.purge();
        self.reset_volatile();
    }

    /// Coordinator order: the chain peer is gone — collapse to solo
    /// operation. Routes that pointed through the dead peer's chain link
    /// are flipped to the bypass links, and (primary role) every update
    /// whose client ACK was withheld for a `ChainAck` that will never
    /// come is acknowledged now: it is durable here, and the coordinator
    /// has fenced the peer, so single-copy durability is the fabric's
    /// contract from this epoch on.
    pub(super) fn handle_promote(&mut self, ctx: &mut Ctx<'_>, epoch: u64) {
        if epoch <= self.fabric_epoch {
            return; // stale or re-delivered order
        }
        self.fabric_epoch = epoch;
        let Some(fabric) = self.fabric else { return };
        self.counters.promotions += 1;
        if let Some(chain_port) = fabric.chain_port {
            for (dst, port) in self.routes.iter_mut() {
                if *port == chain_port && Some(dst) != fabric.chain_peer {
                    let via = if dst == fabric.server {
                        fabric.tor_port
                    } else {
                        fabric.merge_port
                    };
                    *port = via.unwrap_or(chain_port);
                }
            }
        }
        self.fabric = Some(DeviceFabric {
            role: DeviceRole::Solo,
            chain_peer: None,
            ..fabric
        });
        if fabric.role != DeviceRole::Primary {
            return; // a backup's entries were never owed to the client
        }
        // Ascending hash order, the order the acks go on the wire; an
        // entry still in flight to PM is acknowledged when it lands.
        for hash in self.log.hashes() {
            let unconfirmed = self.log.peek(hash).is_some_and(|e| !e.confirmed);
            if unconfirmed && self.settle(ctx, hash) {
                self.counters.chain_releases += 1;
                self.ack_clients(ctx, &[hash]);
            }
        }
    }

    /// Arms (or re-arms, after a power cycle) the heartbeat timer of a
    /// fabric-wired device; a lone device sends none.
    pub(super) fn arm_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        if self.fabric.is_some() && !self.fenced && self.alive {
            self.arm(ctx, HEARTBEAT_INTERVAL, TIMER_HEARTBEAT, 0);
        }
    }

    /// Emits one liveness heartbeat toward the coordinator and re-arms.
    /// Sent out the tor-facing port directly — not through the routing
    /// table — so a primary's liveness does not depend on its backup
    /// relaying (the route to the server runs through the chain).
    pub(super) fn send_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
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
}
