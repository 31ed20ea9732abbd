//! The sharded PMNet fabric: shard map, chain membership, and the
//! reconfiguration state machine.
//!
//! A sharded fabric partitions the client/session space across N device
//! chains with consistent hashing (the NetChain blueprint): a *merge*
//! fabric switch steers each update to its shard's chain head, and a
//! *tor* fabric switch steers server-side traffic back through the chain
//! tail, so both members' logs see every update and every invalidation.
//! The server doubles as the fabric coordinator: it watches device
//! heartbeats, and on a timeout runs the reconfiguration protocol —
//! fence the dead device, promote the survivor, re-home the shard's
//! steering, notify clients of the epoch bump, and open a recovery
//! barrier that replays the survivor's log. The state machine here is
//! pure (no I/O, no time): the server lowers the returned
//! [`ReconfigAction`]s onto the wire, which keeps every transition unit-
//! testable and the re-delivery paths trivially idempotent.

use pmnet_net::{Addr, Packet, Steering};
use pmnet_sim::hash::{fnv1a, FixedSet, FNV_OFFSET};

use crate::protocol::{PacketType, PmnetHeader};

/// Virtual points per shard on the consistent-hash ring. Enough to keep
/// the per-shard load within a few percent of uniform for small N while
/// keeping lookups cheap.
const VIRTUAL_POINTS: u32 = 16;

/// Consistent-hash assignment of `(client, session)` keys to shards.
///
/// Both fabric switches and the coordinator hold structurally identical
/// maps (same shard count ⇒ same ring), so a key steers to the same
/// shard at the merge switch, the tor switch, and in the server's
/// bookkeeping without any synchronization.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// `(ring position, shard)`, sorted by position.
    ring: Vec<(u64, u16)>,
    shards: u16,
}

impl ShardMap {
    /// A ring over `shards` shards (must be ≥ 1).
    pub fn new(shards: u16) -> ShardMap {
        assert!(shards >= 1, "a shard map needs at least one shard");
        let mut ring = Vec::with_capacity(shards as usize * VIRTUAL_POINTS as usize);
        for shard in 0..shards {
            for replica in 0..VIRTUAL_POINTS {
                let mut key = [0u8; 6];
                key[..2].copy_from_slice(&shard.to_le_bytes());
                key[2..].copy_from_slice(&replica.to_le_bytes());
                ring.push((fnv1a(FNV_OFFSET, &key), shard));
            }
        }
        ring.sort_unstable();
        ShardMap { ring, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The shard owning `(client, session)`.
    pub fn shard_for(&self, client: Addr, session: u16) -> u16 {
        let mut key = [0u8; 6];
        key[..4].copy_from_slice(&client.0.to_le_bytes());
        key[4..].copy_from_slice(&session.to_le_bytes());
        let h = fnv1a(FNV_OFFSET, &key);
        let idx = match self.ring.binary_search(&(h, 0)) {
            Ok(i) => i,
            Err(i) if i == self.ring.len() => 0, // wrap around
            Err(i) => i,
        };
        self.ring[idx].1
    }
}

/// One shard's replication chain, as the coordinator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardChain {
    /// Chain head: logs first, withholds the client ACK for the backup.
    pub primary: Addr,
    /// Chain tail, if the shard is replicated.
    pub backup: Option<Addr>,
}

/// One step of the reconfiguration protocol, to be lowered onto the wire
/// by the coordinator. Every action is idempotent at its receiver (epoch
/// fencing), so bounded re-delivery of the whole list is safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigAction {
    /// Retire the device: purge its log, silence it, make it a pure
    /// forwarder.
    Fence(Addr),
    /// Collapse the surviving chain member to solo operation (release
    /// withheld ACKs, re-route around the dead peer).
    Promote(Addr),
    /// Re-home the shard at both fabric switches.
    UpdateSteering {
        /// The reconfigured shard.
        shard: u16,
        /// New chain head (update ingress).
        head: Addr,
        /// New chain tail (server-side egress).
        tail: Addr,
    },
    /// Broadcast the epoch bump to clients so in-flight updates are
    /// re-driven through the new chain immediately instead of waiting
    /// out an RTO.
    NotifyClients,
    /// Open a recovery barrier against the survivor: poll its log and
    /// replay every staged entry through the existing redo path, so any
    /// acked update the dead device was still carrying toward the server
    /// is re-driven from the surviving copy.
    OpenBarrier(Addr),
}

/// The coordinator's membership view and reconfiguration state machine.
///
/// Pure: callers feed it timeouts and heartbeats; it returns the actions
/// to lower. Feeding the same event twice (or an event about an already
/// retired device) returns nothing / a re-fence, never a second
/// reconfiguration — the epoch only moves on live-member failures.
#[derive(Debug, Clone)]
pub struct FabricMap {
    chains: Vec<ShardChain>,
    retired: FixedSet<Addr>,
    epoch: u64,
}

impl FabricMap {
    /// Builds the fabric view from per-shard chains.
    pub fn new(chains: Vec<ShardChain>) -> FabricMap {
        FabricMap {
            chains,
            retired: FixedSet::default(),
            epoch: 0,
        }
    }

    /// The current fabric epoch (bumped once per reconfiguration).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The chains, indexed by shard.
    pub fn chains(&self) -> &[ShardChain] {
        &self.chains
    }

    /// Every live (non-retired) member, in shard order, primaries first
    /// within a shard.
    pub fn live_members(&self) -> Vec<Addr> {
        let mut v = Vec::new();
        for c in &self.chains {
            if !self.retired.contains(&c.primary) {
                v.push(c.primary);
            }
            if let Some(b) = c.backup {
                if !self.retired.contains(&b) {
                    v.push(b);
                }
            }
        }
        v
    }

    /// True once `dev` has been fenced out of the fabric.
    pub fn is_retired(&self, dev: Addr) -> bool {
        self.retired.contains(&dev)
    }

    /// The shard's current chain head (update ingress).
    pub fn head(&self, shard: u16) -> Addr {
        self.chains[shard as usize].primary
    }

    /// The shard's current chain tail (server-side egress): the backup
    /// while the chain is intact, the primary once collapsed.
    pub fn tail(&self, shard: u16) -> Addr {
        let c = &self.chains[shard as usize];
        c.backup.unwrap_or(c.primary)
    }

    /// A device's heartbeat went silent past the timeout: reconfigure its
    /// shard. Idempotent — a timeout for a retired or unknown device
    /// returns no actions, and an unreplicated shard with no spare cannot
    /// fail over (the existing crash/restore model covers it).
    pub fn on_device_timeout(&mut self, dev: Addr) -> Vec<ReconfigAction> {
        if self.retired.contains(&dev) {
            return Vec::new();
        }
        let Some(shard) = self
            .chains
            .iter()
            .position(|c| c.primary == dev || c.backup == Some(dev))
        else {
            return Vec::new();
        };
        let chain = self.chains[shard];
        let survivor = if chain.primary == dev {
            chain.backup // primary died: the backup (if any) takes over
        } else {
            Some(chain.primary) // backup died: the primary goes solo
        };
        let Some(survivor) = survivor else {
            return Vec::new(); // solo shard, nothing to promote
        };
        self.epoch += 1;
        self.retired.insert(dev);
        self.chains[shard] = ShardChain {
            primary: survivor,
            backup: None,
        };
        vec![
            ReconfigAction::Fence(dev),
            ReconfigAction::Promote(survivor),
            ReconfigAction::UpdateSteering {
                shard: shard as u16,
                head: survivor,
                tail: survivor,
            },
            ReconfigAction::NotifyClients,
            ReconfigAction::OpenBarrier(survivor),
        ]
    }

    /// A heartbeat arrived from `dev`. A live member's heartbeat needs no
    /// action (the caller refreshes its timestamp); a *retired* member
    /// heartbeating is a zombie — a replaced device that came back up
    /// with a stale log — and must be re-fenced.
    pub fn on_heartbeat(&mut self, dev: Addr) -> Option<ReconfigAction> {
        self.retired
            .contains(&dev)
            .then_some(ReconfigAction::Fence(dev))
    }
}

/// Which side of the fabric a [`FabricSteering`] program runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteerSide {
    /// Client-side switch: steers updates/bypasses to the shard head.
    Merge,
    /// Server-side switch: steers server→client traffic to the shard
    /// tail, so invalidations and replies traverse the whole chain.
    Tor,
}

/// The data-plane steering program installed into the fabric switches:
/// a [`ShardMap`] plus the per-shard head/tail tables, updated by
/// `ShardMapUpdate` control packets carrying the fabric epoch.
#[derive(Debug)]
pub struct FabricSteering {
    side: SteerSide,
    map: ShardMap,
    server: Addr,
    heads: Vec<Addr>,
    tails: Vec<Addr>,
    /// Last applied epoch per shard; stale re-deliveries are absorbed.
    epochs: Vec<u64>,
}

impl FabricSteering {
    /// Builds a steering program for one side of the fabric from the
    /// initial chains.
    pub fn new(side: SteerSide, server: Addr, chains: &[ShardChain]) -> FabricSteering {
        FabricSteering {
            side,
            map: ShardMap::new(chains.len() as u16),
            server,
            heads: chains.iter().map(|c| c.primary).collect(),
            tails: chains
                .iter()
                .map(|c| c.backup.unwrap_or(c.primary))
                .collect(),
            epochs: vec![0; chains.len()],
        }
    }

    /// The current head of `shard` (testing / introspection).
    pub fn head(&self, shard: u16) -> Addr {
        self.heads[shard as usize]
    }

    /// The current tail of `shard` (testing / introspection).
    pub fn tail(&self, shard: u16) -> Addr {
        self.tails[shard as usize]
    }

    /// Encodes a `ShardMapUpdate` control payload: the epoch travels in
    /// the header's `seq`, the re-homing in the payload.
    pub fn encode_update(shard: u16, head: Addr, tail: Addr) -> Vec<u8> {
        let mut p = Vec::with_capacity(10);
        p.extend_from_slice(&shard.to_le_bytes());
        p.extend_from_slice(&head.0.to_le_bytes());
        p.extend_from_slice(&tail.0.to_le_bytes());
        p
    }

    fn decode_update(payload: &[u8]) -> Option<(u16, Addr, Addr)> {
        if payload.len() < 10 {
            return None;
        }
        let shard = u16::from_le_bytes([payload[0], payload[1]]);
        let head = Addr(u32::from_le_bytes([
            payload[2], payload[3], payload[4], payload[5],
        ]));
        let tail = Addr(u32::from_le_bytes([
            payload[6], payload[7], payload[8], payload[9],
        ]));
        Some((shard, head, tail))
    }
}

impl Steering for FabricSteering {
    fn steer(&mut self, packet: &Packet) -> Option<Addr> {
        let (header, _) = PmnetHeader::decode(&packet.payload)?;
        match self.side {
            SteerSide::Merge => {
                // Client→server data traffic detours through its shard's
                // chain head; everything else (control, acks returning to
                // clients) routes by destination.
                if packet.dst != self.server {
                    return None;
                }
                if !matches!(header.ptype, PacketType::UpdateReq | PacketType::BypassReq) {
                    return None;
                }
                let shard = self.map.shard_for(header.client, header.session);
                Some(self.heads[shard as usize])
            }
            SteerSide::Tor => {
                // Server→client traffic detours through the chain tail so
                // both logs see the invalidation / reply; traffic to the
                // server or to a device routes by destination.
                if packet.dst == self.server {
                    return None;
                }
                if !matches!(
                    header.ptype,
                    PacketType::ServerAck | PacketType::Retrans | PacketType::AppReply
                ) {
                    return None;
                }
                let shard = self.map.shard_for(header.client, header.session);
                Some(self.tails[shard as usize])
            }
        }
    }

    fn control(&mut self, packet: &Packet) -> bool {
        let Some((header, payload)) = PmnetHeader::decode(&packet.payload) else {
            return false;
        };
        if header.ptype != PacketType::ShardMapUpdate {
            return false;
        }
        let Some((shard, head, tail)) = Self::decode_update(&payload) else {
            return true; // consumed, malformed: drop
        };
        let idx = shard as usize;
        if idx >= self.epochs.len() {
            return true;
        }
        let epoch = u64::from(header.seq);
        if epoch > self.epochs[idx] {
            self.epochs[idx] = epoch;
            self.heads[idx] = head;
            self.tails[idx] = tail;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn two_shard_map() -> FabricMap {
        FabricMap::new(vec![
            ShardChain {
                primary: Addr(2000),
                backup: Some(Addr(2100)),
            },
            ShardChain {
                primary: Addr(2001),
                backup: Some(Addr(2101)),
            },
        ])
    }

    #[test]
    fn ring_is_deterministic_and_covers_every_shard() {
        let a = ShardMap::new(4);
        let b = ShardMap::new(4);
        let mut hit = [false; 4];
        for client in 1..64u32 {
            for session in 0..8u16 {
                let s = a.shard_for(Addr(client), session);
                assert_eq!(s, b.shard_for(Addr(client), session));
                assert!(s < 4);
                hit[s as usize] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "every shard must own some keys");
    }

    #[test]
    fn single_shard_map_owns_everything() {
        let m = ShardMap::new(1);
        for client in 1..32u32 {
            assert_eq!(m.shard_for(Addr(client), 7), 0);
        }
    }

    #[test]
    fn primary_timeout_promotes_the_backup() {
        let mut m = two_shard_map();
        let actions = m.on_device_timeout(Addr(2000));
        assert_eq!(
            actions,
            vec![
                ReconfigAction::Fence(Addr(2000)),
                ReconfigAction::Promote(Addr(2100)),
                ReconfigAction::UpdateSteering {
                    shard: 0,
                    head: Addr(2100),
                    tail: Addr(2100),
                },
                ReconfigAction::NotifyClients,
                ReconfigAction::OpenBarrier(Addr(2100)),
            ]
        );
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.head(0), Addr(2100));
        assert_eq!(m.tail(0), Addr(2100));
        assert!(m.is_retired(Addr(2000)));
        // The other shard is untouched.
        assert_eq!(m.head(1), Addr(2001));
        assert_eq!(m.tail(1), Addr(2101));
    }

    #[test]
    fn backup_timeout_collapses_the_chain_onto_the_primary() {
        let mut m = two_shard_map();
        let actions = m.on_device_timeout(Addr(2101));
        assert_eq!(
            actions,
            vec![
                ReconfigAction::Fence(Addr(2101)),
                ReconfigAction::Promote(Addr(2001)),
                ReconfigAction::UpdateSteering {
                    shard: 1,
                    head: Addr(2001),
                    tail: Addr(2001),
                },
                ReconfigAction::NotifyClients,
                ReconfigAction::OpenBarrier(Addr(2001)),
            ]
        );
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.tail(1), Addr(2001));
    }

    #[test]
    fn repeated_timeouts_are_idempotent() {
        let mut m = two_shard_map();
        assert_eq!(m.on_device_timeout(Addr(2000)).len(), 5);
        // Re-detecting the same dead device must not reconfigure again.
        assert!(m.on_device_timeout(Addr(2000)).is_empty());
        assert_eq!(m.epoch(), 1);
        // A survivor that later dies with no spare left: no actions.
        assert!(m.on_device_timeout(Addr(2100)).is_empty());
        assert_eq!(m.epoch(), 1);
        // Unknown device: no actions.
        assert!(m.on_device_timeout(Addr(9999)).is_empty());
    }

    #[test]
    fn zombie_heartbeat_is_refenced_live_heartbeat_is_not() {
        let mut m = two_shard_map();
        assert_eq!(m.on_heartbeat(Addr(2000)), None);
        m.on_device_timeout(Addr(2000));
        assert_eq!(
            m.on_heartbeat(Addr(2000)),
            Some(ReconfigAction::Fence(Addr(2000)))
        );
        assert_eq!(m.on_heartbeat(Addr(2100)), None);
    }

    #[test]
    fn live_members_track_retirement() {
        let mut m = two_shard_map();
        assert_eq!(
            m.live_members(),
            vec![Addr(2000), Addr(2100), Addr(2001), Addr(2101)]
        );
        m.on_device_timeout(Addr(2100));
        assert_eq!(m.live_members(), vec![Addr(2000), Addr(2001), Addr(2101)]);
    }

    fn update_packet(client: Addr, session: u16) -> Packet {
        let h = PmnetHeader::request(PacketType::UpdateReq, session, 1, client, Addr(1000), 0, 1)
            .with_payload(b"x");
        Packet::udp(client, Addr(1000), 51001, 51000, h.encode(b"x"))
    }

    #[test]
    fn merge_steers_updates_to_the_shard_head() {
        let chains = two_shard_map().chains().to_vec();
        let map = ShardMap::new(2);
        let mut s = FabricSteering::new(SteerSide::Merge, Addr(1000), &chains);
        for client in 1..16u32 {
            let shard = map.shard_for(Addr(client), 3);
            let steered = s.steer(&update_packet(Addr(client), 3));
            assert_eq!(steered, Some(chains[shard as usize].primary));
        }
        // Server acks heading back to clients are not the merge's business.
        let h = PmnetHeader::request(PacketType::UpdateReq, 3, 1, Addr(1), Addr(1000), 0, 1);
        let ack = Packet::udp(
            Addr(1000),
            Addr(1),
            51000,
            51001,
            h.server_ack().encode(&[]),
        );
        assert_eq!(s.steer(&ack), None);
    }

    #[test]
    fn tor_steers_server_acks_to_the_shard_tail() {
        let chains = two_shard_map().chains().to_vec();
        let map = ShardMap::new(2);
        let mut s = FabricSteering::new(SteerSide::Tor, Addr(1000), &chains);
        let h = PmnetHeader::request(PacketType::UpdateReq, 5, 2, Addr(7), Addr(1000), 0, 1);
        let ack = Packet::udp(
            Addr(1000),
            Addr(7),
            51000,
            51001,
            h.server_ack().encode(&[]),
        );
        let shard = map.shard_for(Addr(7), 5);
        assert_eq!(s.steer(&ack), Some(chains[shard as usize].backup.unwrap()));
        // Updates heading to the server are not steered at the tor.
        assert_eq!(s.steer(&update_packet(Addr(7), 5)), None);
        // Non-PMNet traffic routes by destination.
        let plain = Packet::udp(Addr(1000), Addr(7), 8080, 8080, Bytes::from_static(b"h"));
        assert_eq!(s.steer(&plain), None);
    }

    #[test]
    fn shard_map_update_rehomes_once_per_epoch() {
        let chains = two_shard_map().chains().to_vec();
        let mut s = FabricSteering::new(SteerSide::Merge, Addr(1000), &chains);
        let update = |epoch: u32, head: Addr, tail: Addr| {
            let payload = FabricSteering::encode_update(0, head, tail);
            let h = PmnetHeader::request(
                PacketType::ShardMapUpdate,
                0,
                epoch,
                Addr(1000),
                Addr(5000),
                0,
                1,
            )
            .with_payload(&payload);
            Packet::udp(Addr(1000), Addr(5000), 51000, 51000, h.encode(&payload))
        };
        assert!(s.control(&update(1, Addr(2100), Addr(2100))));
        assert_eq!(s.head(0), Addr(2100));
        // A stale re-delivery (older epoch) must not regress the map.
        assert!(s.control(&update(0, Addr(2000), Addr(2000))));
        assert_eq!(s.head(0), Addr(2100));
        // Non-control packets are not consumed.
        assert!(!s.control(&update_packet(Addr(3), 1)));
    }
}
