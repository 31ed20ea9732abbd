//! The PMNet protocol: packet types, header layout and wire codec
//! (Section IV-A).
//!
//! The header rides in the application layer of a UDP datagram sent to a
//! port in the reserved 51000–52000 range. Fields follow Figure 8 /
//! Section IV-A1 — `Type`, `SessionID`, `SeqNum`, `HashVal` (a CRC-32 the
//! device uses to index its log) — plus the fragmentation fields the
//! software library needs for MTU-sized packets (Section IV-A3) and the
//! acknowledging device's id (used by the replication scheme to tell
//! PMNet-ACK #1 from #2, Section IV-C).

use bytes::{BufMut, Bytes, BytesMut};
use pmnet_net::Addr;
use pmnet_pmem::{crc32, crc32_finish, crc32_init, crc32_update};

/// Low end of the reserved PMNet UDP port range.
pub const PMNET_PORT_LO: u16 = 51000;
/// High end of the reserved PMNet UDP port range.
pub const PMNET_PORT_HI: u16 = 52000;

/// The PMNet service port: a server listens here, and devices and servers
/// address the PMNet traffic they send each other to it.
pub const SERVICE_PORT: u16 = PMNET_PORT_LO;

/// The recovery control port: a recovering server's `RecoveryPoll` goes to
/// it, and a device's `RecoveryDone` leaves from it.
pub const CONTROL_PORT: u16 = 51002;

/// The source port of client `i`: `51001 + i mod 999`, inside the
/// reserved range.
pub const fn client_port(i: u16) -> u16 {
    PMNET_PORT_LO + 1 + i % 999
}

/// Returns true if `port` falls in the PMNet range; the device's ingress
/// stage uses this to separate PMNet traffic from other packets.
pub fn is_pmnet_port(port: u16) -> bool {
    (PMNET_PORT_LO..=PMNET_PORT_HI).contains(&port)
}

/// Encoded size of a [`PmnetHeader`] in bytes.
pub const HEADER_LEN: usize = 24;

/// Flag bit: this packet is a redo resend from a device log (recovery).
pub const FLAG_REDO: u8 = 0x10;

/// Flag bit: a PMNet device forwarded the update without logging it
/// because its log (or log queue) was full. The server's ACK carries the
/// flag back to the client, which widens its retransmission timeout
/// instead of hammering a device under pressure (backpressure).
pub const FLAG_CONGESTED: u8 = 0x20;

/// PMNet packet types (Section IV-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketType {
    /// Update request from a client: logged and early-acknowledged.
    UpdateReq = 1,
    /// Bypass request (read / synchronization): forwarded without logging.
    BypassReq = 2,
    /// Early acknowledgement from a PMNet device to the client.
    PmnetAck = 3,
    /// Completion acknowledgement from the server; invalidates log entries.
    ServerAck = 4,
    /// Retransmission request from the server for a missing `SeqNum`.
    Retrans = 5,
    /// Read served directly from the device's cache (Section IV-D).
    CacheResp = 6,
    /// Application-level reply from the server (read responses).
    AppReply = 7,
    /// Server polls devices for logged requests during recovery
    /// (Section IV-E1).
    RecoveryPoll = 8,
    /// A device reports that its per-server log has fully drained after a
    /// recovery poll: every staged redo resend was confirmed by a server
    /// ACK. The server's recovery barrier waits for one of these from
    /// every registered device.
    RecoveryDone = 9,
    /// Chained replication (sharded fabric): the backup device confirms to
    /// its shard primary that an update is persisted in the backup's log.
    /// The primary withholds the client's PMNet-ACK until its own persist
    /// *and* this confirmation have both arrived, so a client-acked update
    /// is always durable on two devices.
    ChainAck = 10,
    /// Periodic liveness beacon from a fabric device to the server's
    /// failover driver. `seq` carries the sender's fabric epoch.
    Heartbeat = 11,
    /// Fences a failed (or zombie) device out of the fabric: the receiver
    /// wipes its log, stops heartbeating/acking, and degrades to a pure
    /// forwarder. `seq` carries the fabric epoch. Idempotent.
    Fence = 12,
    /// Role change after a failover, interpreted by the receiver's current
    /// role: a backup becomes the shard's solo head; a primary that lost
    /// its backup becomes solo and releases withheld ACKs. `seq` carries
    /// the fabric epoch; stale or repeated deliveries are ignored.
    Promote = 13,
    /// Fabric epoch bump broadcast to clients: an outstanding update should
    /// be retransmitted immediately so it reaches the re-homed shard.
    /// `seq` carries the fabric epoch.
    EpochNotify = 14,
    /// New steering entry for a fabric switch: the payload encodes
    /// `(shard, head, tail)`, `seq` carries the fabric epoch. Consumed by
    /// the switch it is addressed to; never forwarded.
    ShardMapUpdate = 15,
}

impl PacketType {
    fn from_u8(v: u8) -> Option<PacketType> {
        Some(match v {
            1 => PacketType::UpdateReq,
            2 => PacketType::BypassReq,
            3 => PacketType::PmnetAck,
            4 => PacketType::ServerAck,
            5 => PacketType::Retrans,
            6 => PacketType::CacheResp,
            7 => PacketType::AppReply,
            8 => PacketType::RecoveryPoll,
            9 => PacketType::RecoveryDone,
            10 => PacketType::ChainAck,
            11 => PacketType::Heartbeat,
            12 => PacketType::Fence,
            13 => PacketType::Promote,
            14 => PacketType::EpochNotify,
            15 => PacketType::ShardMapUpdate,
            _ => return None,
        })
    }
}

/// The PMNet header (Section IV-A1 plus fragmentation/replication fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmnetHeader {
    /// Packet type.
    pub ptype: PacketType,
    /// Flags ([`FLAG_REDO`]).
    pub flags: u8,
    /// Session the client sends from (Table I: `PMNet_start_session`).
    pub session: u16,
    /// Per-session sequence number of update packets.
    pub seq: u32,
    /// CRC-32 identifying this request packet; the device's log index.
    pub hash: u32,
    /// CRC-32 of the request payload (zero when there is none). `hash`
    /// cannot cover the payload — the server must be able to recompute it
    /// from identity fields alone to address device log entries in
    /// `Retrans` requests — so payload integrity gets its own checksum.
    pub pcrc: u32,
    /// The client (requester) address; kept in the header because ACKs and
    /// redo resends must reference the original endpoint regardless of the
    /// packet's current src/dst.
    pub client: Addr,
    /// Fragment index within an over-MTU request (Section IV-A3).
    pub frag_idx: u16,
    /// Total fragments of the request.
    pub frag_cnt: u16,
    /// Id of the acknowledging device (PMNet-ACK only; replication).
    pub device_id: u8,
}

impl PmnetHeader {
    /// Builds a header for a fresh request packet and computes its
    /// `HashVal`.
    pub fn request(
        ptype: PacketType,
        session: u16,
        seq: u32,
        client: Addr,
        server: Addr,
        frag_idx: u16,
        frag_cnt: u16,
    ) -> PmnetHeader {
        let mut h = PmnetHeader {
            ptype,
            flags: 0,
            session,
            seq,
            hash: 0,
            pcrc: 0,
            client,
            frag_idx,
            frag_cnt,
            device_id: 0,
        };
        h.hash = h.compute_hash(server);
        h
    }

    /// A control-plane header: no session, one fragment, and `seq` free to
    /// carry the message's one word (e.g. a fabric epoch).
    pub fn control(ptype: PacketType, seq: u32, client: Addr, server: Addr) -> PmnetHeader {
        PmnetHeader::request(ptype, 0, seq, client, server, 0, 1)
    }

    /// Stamps the payload checksum onto a request header (builder style).
    /// Call after the fragment fields are final: the checksum covers them.
    #[must_use]
    pub fn with_payload(mut self, payload: &[u8]) -> PmnetHeader {
        self.pcrc = self.frag_crc(payload);
        self
    }

    /// The payload checksum also covers the fragmentation geometry:
    /// `frag_idx`/`frag_cnt` are sender-set and immutable in flight, but
    /// cannot ride in the identity hash (the server must recompute that
    /// from identity fields alone to address log entries), and a bit flip
    /// there silently breaks reassembly — the receiver parks the fragment
    /// waiting for siblings that don't exist, while the device has already
    /// logged and acknowledged the update. (`flags` and `device_id` stay
    /// uncovered: they are legitimately rewritten in-network.)
    fn frag_crc(&self, payload: &[u8]) -> u32 {
        // Streamed so the geometry prefix + payload never materialize in a
        // scratch Vec: this runs once per encode on the hot path.
        let mut geom = [0u8; 4];
        geom[..2].copy_from_slice(&self.frag_idx.to_le_bytes());
        geom[2..].copy_from_slice(&self.frag_cnt.to_le_bytes());
        let state = crc32_update(crc32_init(), &geom);
        crc32_finish(crc32_update(state, payload))
    }

    /// The CRC-32 `HashVal` of this header (Section IV-A1): computed over
    /// the identifying fields with the hash itself zeroed. The server
    /// recomputes it to address log entries in `Retrans` requests.
    pub fn compute_hash(&self, server: Addr) -> u32 {
        let mut buf = [0u8; 15];
        buf[0] = PacketType::UpdateReq as u8; // hash identifies the request
        buf[1..3].copy_from_slice(&self.session.to_le_bytes());
        buf[3..7].copy_from_slice(&self.seq.to_le_bytes());
        buf[7..11].copy_from_slice(&self.client.0.to_le_bytes());
        buf[11..15].copy_from_slice(&server.0.to_le_bytes());
        crc32(&buf)
    }

    /// The identity hash of fragment `idx` of the update this fragment
    /// belongs to, sent to `server`: a request numbers its fragments'
    /// `SeqNum`s contiguously from its first fragment's.
    pub fn fragment_hash(&self, server: Addr, idx: u16) -> u32 {
        let first = self.seq.wrapping_sub(u32::from(self.frag_idx));
        PmnetHeader {
            seq: first.wrapping_add(u32::from(idx)),
            ..*self
        }
        .compute_hash(server)
    }

    /// True if `payload` matches the stamped checksum. Headers derived for
    /// ACKs travel without a payload; an empty payload is always accepted.
    pub fn payload_ok(&self, payload: &[u8]) -> bool {
        payload.is_empty() || self.pcrc == self.frag_crc(payload)
    }

    /// End-to-end integrity check at a receiver that knows the server
    /// address this request was (or claims to have been) sent to: the
    /// identity hash must recompute and the payload checksum must match.
    /// A failure means a bit flipped in flight — the packet must be
    /// dropped, and loss recovery (timeouts, device entry retries, gap
    /// retransmissions) takes over.
    pub fn verify(&self, server: Addr, payload: &[u8]) -> bool {
        self.hash == self.compute_hash(server) && self.payload_ok(payload)
    }

    /// Encodes the header followed by `payload` into a datagram body.
    ///
    /// The builder is drawn from the thread-local recycle pool and its
    /// whole allocation (Rc handle included) returns there when the last
    /// `Bytes` drops, so an encode allocates nothing whenever the frame's
    /// size class has an idle buffer — always, once the pool holds as many
    /// buffers as are in flight at one time (see the `bytes` crate docs for
    /// the retention bound past which a burst is freed instead).
    pub fn encode(&self, payload: &[u8]) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + payload.len());
        self.encode_into(&mut buf, payload);
        buf.freeze()
    }

    /// Writes the header followed by `payload` into an existing buffer —
    /// the building block batch framing uses to pack several frames into
    /// one backing allocation.
    pub fn encode_into(&self, buf: &mut impl BufMut, payload: &[u8]) {
        // Staged on the stack so the buffer sees two appends (header,
        // payload) instead of ten — each `put_*` re-checks unique
        // ownership and spare capacity, which dominates at this size.
        let mut h = [0u8; HEADER_LEN];
        h[0] = self.ptype as u8 | self.flags;
        h[1..3].copy_from_slice(&self.session.to_le_bytes());
        h[3..7].copy_from_slice(&self.seq.to_le_bytes());
        h[7..11].copy_from_slice(&self.hash.to_le_bytes());
        h[11..15].copy_from_slice(&self.pcrc.to_le_bytes());
        h[15..19].copy_from_slice(&self.client.0.to_le_bytes());
        h[19..21].copy_from_slice(&self.frag_idx.to_le_bytes());
        h[21..23].copy_from_slice(&self.frag_cnt.to_le_bytes());
        h[23] = self.device_id;
        buf.put_slice(&h);
        buf.put_slice(payload);
    }

    /// Decodes a datagram body into header + payload.
    ///
    /// Returns `None` if the body is too short or carries an unknown type —
    /// the device then treats the packet as non-PMNet traffic and simply
    /// forwards it.
    pub fn decode(body: &Bytes) -> Option<(PmnetHeader, Bytes)> {
        let header = PmnetHeader::peek(body)?;
        Some((header, body.slice(HEADER_LEN..)))
    }

    /// Decodes just the header, without splitting off the payload — for
    /// observers (e.g. telemetry taps) that only need identity fields and
    /// must not pay the payload slice's refcount traffic.
    pub fn peek(body: &[u8]) -> Option<PmnetHeader> {
        if body.len() < HEADER_LEN {
            return None;
        }
        let type_flags = body[0];
        let ptype = PacketType::from_u8(type_flags & 0x0F)?;
        let flags = type_flags & 0xF0;
        Some(PmnetHeader {
            ptype,
            flags,
            session: u16::from_le_bytes([body[1], body[2]]),
            seq: u32::from_le_bytes([body[3], body[4], body[5], body[6]]),
            hash: u32::from_le_bytes([body[7], body[8], body[9], body[10]]),
            pcrc: u32::from_le_bytes([body[11], body[12], body[13], body[14]]),
            client: Addr(u32::from_le_bytes([body[15], body[16], body[17], body[18]])),
            frag_idx: u16::from_le_bytes([body[19], body[20]]),
            frag_cnt: u16::from_le_bytes([body[21], body[22]]),
            device_id: body[23],
        })
    }

    /// A derived header acknowledging this request from device
    /// `device_id`.
    pub fn ack_from_device(&self, device_id: u8) -> PmnetHeader {
        PmnetHeader {
            ptype: PacketType::PmnetAck,
            flags: 0,
            device_id,
            ..*self
        }
    }

    /// A derived server-ACK header for this request. The congestion flag
    /// survives the derivation (the ACK is the only packet that travels
    /// back to the client on the bypass path), the redo flag does not —
    /// an ACK is an ACK regardless of how the update reached the server.
    pub fn server_ack(&self) -> PmnetHeader {
        PmnetHeader {
            ptype: PacketType::ServerAck,
            flags: self.flags & FLAG_CONGESTED,
            device_id: 0,
            ..*self
        }
    }

    /// True if this packet is a redo resend from a device log.
    pub fn is_redo(&self) -> bool {
        self.flags & FLAG_REDO != 0
    }

    /// True if a device marked this packet (or the request it answers) as
    /// forwarded under log pressure.
    pub fn is_congested(&self) -> bool {
        self.flags & FLAG_CONGESTED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PmnetHeader {
        PmnetHeader::request(PacketType::UpdateReq, 7, 42, Addr(1), Addr(9), 0, 1)
    }

    #[test]
    fn encode_decode_round_trips() {
        let h = sample();
        let body = h.encode(b"payload-bytes");
        let (h2, payload) = PmnetHeader::decode(&body).unwrap();
        assert_eq!(h, h2);
        assert_eq!(&payload[..], b"payload-bytes");
    }

    #[test]
    fn redo_flag_round_trips() {
        let mut h = sample();
        h.flags = FLAG_REDO;
        let body = h.encode(b"");
        let (h2, _) = PmnetHeader::decode(&body).unwrap();
        assert!(h2.is_redo());
        assert_eq!(h2.ptype, PacketType::UpdateReq);
    }

    #[test]
    fn short_or_garbage_bodies_decode_to_none() {
        assert!(PmnetHeader::decode(&Bytes::from_static(b"tiny")).is_none());
        let mut bad = sample().encode(b"").to_vec();
        bad[0] = 0x00; // type 0 is not assigned
        assert!(PmnetHeader::decode(&Bytes::from(bad)).is_none());
    }

    #[test]
    fn hash_identifies_the_request_not_the_packet_kind() {
        let req = sample();
        let server = Addr(9);
        // The server reconstructs the hash for a Retrans from the request's
        // identity; ack headers keep the same hash.
        assert_eq!(req.ack_from_device(3).hash, req.hash);
        assert_eq!(req.server_ack().hash, req.hash);
        assert_eq!(req.compute_hash(server), req.hash);
    }

    #[test]
    fn hash_differs_across_sessions_seqs_and_clients() {
        let base = sample();
        let other_seq = PmnetHeader::request(PacketType::UpdateReq, 7, 43, Addr(1), Addr(9), 0, 1);
        let other_sess = PmnetHeader::request(PacketType::UpdateReq, 8, 42, Addr(1), Addr(9), 0, 1);
        let other_client =
            PmnetHeader::request(PacketType::UpdateReq, 7, 42, Addr(2), Addr(9), 0, 1);
        assert_ne!(base.hash, other_seq.hash);
        assert_ne!(base.hash, other_sess.hash);
        assert_ne!(base.hash, other_client.hash);
    }

    #[test]
    fn congested_flag_round_trips_and_survives_the_server_ack() {
        let mut h = sample();
        h.flags = FLAG_CONGESTED;
        let body = h.encode(b"");
        let (h2, _) = PmnetHeader::decode(&body).unwrap();
        assert!(h2.is_congested());
        assert!(!h2.is_redo());
        // The derived server-ACK keeps the congestion signal for the
        // client but strips the redo flag.
        let mut both = sample();
        both.flags = FLAG_CONGESTED | FLAG_REDO;
        let ack = both.server_ack();
        assert!(ack.is_congested());
        assert!(!ack.is_redo());
        assert_eq!(ack.ptype, PacketType::ServerAck);
        // A clean request derives a clean ACK.
        assert!(!sample().server_ack().is_congested());
    }

    #[test]
    fn recovery_done_round_trips() {
        let h = PmnetHeader::request(PacketType::RecoveryDone, 0, 0, Addr(100), Addr(9), 0, 1);
        let body = h.encode(&[]);
        let (h2, _) = PmnetHeader::decode(&body).unwrap();
        assert_eq!(h2.ptype, PacketType::RecoveryDone);
        assert_eq!(h2.client, Addr(100));
    }

    #[test]
    fn fabric_control_types_round_trip_with_flags() {
        for ptype in [
            PacketType::ChainAck,
            PacketType::Heartbeat,
            PacketType::Fence,
            PacketType::Promote,
            PacketType::EpochNotify,
            PacketType::ShardMapUpdate,
        ] {
            let h = PmnetHeader::request(ptype, 3, 17, Addr(2001), Addr(1000), 0, 1);
            let body = h.encode(b"");
            let (h2, _) = PmnetHeader::decode(&body).unwrap();
            assert_eq!(h2.ptype, ptype);
            assert_eq!(h2.seq, 17, "fabric epoch rides in seq");
            // The high nibble stays flag space even for type 15.
            let mut flagged = h;
            flagged.flags = FLAG_REDO;
            let (h3, _) = PmnetHeader::decode(&flagged.encode(b"")).unwrap();
            assert_eq!(h3.ptype, ptype);
            assert!(h3.is_redo());
        }
    }

    #[test]
    fn port_range_check() {
        assert!(is_pmnet_port(51000));
        assert!(is_pmnet_port(51500));
        assert!(is_pmnet_port(52000));
        assert!(!is_pmnet_port(50999));
        assert!(!is_pmnet_port(52001));
    }

    #[test]
    fn ack_from_device_tags_the_device() {
        let h = sample().ack_from_device(2);
        assert_eq!(h.ptype, PacketType::PmnetAck);
        assert_eq!(h.device_id, 2);
        let body = h.encode(b"");
        let (h2, _) = PmnetHeader::decode(&body).unwrap();
        assert_eq!(h2.device_id, 2);
    }
}
