//! Reads at the device (Section IV-D, Figure 10): serving `BypassReq`s
//! from the read cache, filling it from replies, and holding a cache-miss
//! read behind its session's un-acked updates so it cannot overtake them.

use bytes::Bytes;
use pmnet_net::{Addr, Ctx, Packet};
use pmnet_telemetry::history::{Event, EventKind};
use pmnet_telemetry::span::OpEvent;

use super::PmnetDevice;
use crate::kvproto::KvFrame;
use crate::logstore::LogEntry;
use crate::protocol::{PacketType, PmnetHeader, HEADER_LEN};

impl PmnetDevice {
    pub(super) fn handle_bypass_req(
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
                if let Some(parts) = cache.lookup(&key) {
                    // Cache hit: answer the read directly (Figure 10), in
                    // one packet built from the value's parts.
                    let mut h = header;
                    h.ptype = PacketType::CacheResp;
                    h.device_id = self.id;
                    let body = KvFrame::encode_hit_reply(&h, &key, parts);
                    let reply_frame = body.slice(HEADER_LEN..);
                    let reply = Packet::udp(
                        self.addr,
                        header.client,
                        packet.dst_port,
                        packet.src_port,
                        body,
                    );
                    self.counters.cache_responses += 1;
                    self.telemetry.record(|| Event {
                        at: ctx.now(),
                        client: header.client,
                        session: header.session,
                        seq: header.seq,
                        kind: EventKind::CacheServe {
                            device: self.addr,
                            reply: reply_frame,
                        },
                    });
                    if let Some(d) = self.emit(ctx, reply) {
                        let (device, at) = (self.id, ctx.now());
                        self.span(ctx, &header, OpEvent::DeviceRecv { device, at });
                        let at = at + d;
                        self.span(ctx, &header, OpEvent::DeviceCacheResp { device, at });
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
        let session = (packet.dst, header.client, header.session);
        if self.log.has_outstanding(session.0, session.1, session.2) {
            let parked = self.parked_reads.entry(session).or_default();
            if !parked.iter().any(|(h, _)| *h == header.hash) {
                self.counters.reads_parked += 1;
                parked.push((header.hash, packet));
            }
            return;
        }
        self.forward(ctx, packet);
    }

    /// The log took the update fragment `header` (to `server`): the
    /// cache hears of its update at its first fragment, and fills the
    /// value when the last of its fragments is logged, in any order, from
    /// the logged fragments themselves.
    pub(super) fn cache_logged(&mut self, header: &PmnetHeader, payload: &Bytes, server: Addr) {
        let Some(cache) = &mut self.cache else {
            return;
        };
        if self.stale_read_bug {
            return;
        }
        let cnt = header.frag_cnt;
        if cnt <= 1 {
            return cache.on_logged_frame(payload);
        }
        if header.frag_idx == 0 {
            cache.on_logged_head(payload, header.hash);
        }
        let log = &self.log;
        let sibling = |idx: u16| {
            log.peek(header.fragment_hash(server, idx))
                .filter(|e| e.header.frag_idx == idx && e.header.frag_cnt == cnt)
        };
        // Last first: a fragment arriving in order finds its successor
        // missing at once.
        if (1..cnt).rev().any(|idx| sibling(idx).is_none()) {
            return;
        }
        let Some(first) = sibling(0) else {
            return;
        };
        let rest = (1..cnt).filter_map(sibling).map(|e| &e.payload);
        cache.on_logged_whole(first.header.hash, &first.payload, rest);
    }

    /// The log bypassed the update fragment `header`: its first fragment
    /// counts the update in flight in the cache, to be settled by the
    /// server's ack for the fragment ([`PmnetDevice::cache_settle_bypassed`]).
    pub(super) fn cache_bypassed(&mut self, header: &PmnetHeader, payload: &Bytes) {
        let Some(cache) = &mut self.cache else {
            return;
        };
        // A bypassed copy of an update already counted (a retransmission)
        // adds nothing the one ack will not settle.
        if self.stale_read_bug || header.frag_idx != 0 || self.bypassed.contains_key(&header.hash) {
            return;
        }
        if let Some(key) = cache.on_bypassed_frame(payload) {
            self.bypassed.insert(header.hash, key);
        }
    }

    /// A server ack for `hash` crossed the device: if it names a bypassed
    /// update the cache counts in flight, that update is applied.
    pub(super) fn cache_settle_bypassed(&mut self, hash: u32) {
        if self.bypassed.is_empty() {
            return;
        }
        if let (Some(key), Some(cache)) = (self.bypassed.remove(&hash), &mut self.cache) {
            cache.on_server_ack(&key);
        }
    }

    pub(super) fn handle_app_reply(&mut self, ctx: &mut Ctx<'_>, payload: Bytes, packet: Packet) {
        if let Some(cache) = &mut self.cache {
            if let Some(KvFrame::Value {
                key,
                value,
                found: true,
            }) = KvFrame::decode(&payload)
            {
                cache.on_read_response_view(&key, &value);
            }
        }
        self.forward(ctx, packet);
    }

    /// The server acknowledged `entry` and the log dropped it: settle the
    /// cache's in-flight count for its key (an update's first fragment
    /// carries the key; the others never reach the cache) and, if it was
    /// the session's last outstanding entry, let the reads held behind it
    /// go.
    pub(super) fn entry_drained(&mut self, ctx: &mut Ctx<'_>, entry: &LogEntry) {
        if let (Some(cache), 0) = (&mut self.cache, entry.header.frag_idx) {
            cache.on_acked_frame(&entry.payload);
        }
        let session = (entry.server, entry.header.client, entry.header.session);
        if self.log.has_outstanding(session.0, session.1, session.2) {
            return;
        }
        // Re-dispatch (not just forward) so a now-clean cache entry can
        // still serve the read.
        for (_, pkt) in self.parked_reads.remove(&session).unwrap_or_default() {
            if let Some((h, payload)) = PmnetHeader::decode(&pkt.payload) {
                self.handle_bypass_req(ctx, h, payload, pkt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::rig::*;
    use crate::cache::CacheState;
    use crate::kvproto::KvFrame;
    use pmnet_telemetry::history::EventKind;
    use pmnet_telemetry::Telemetry;

    fn set_frame(key: &[u8], value: &[u8]) -> Bytes {
        KvFrame::Set {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
        }
        .encode()
    }

    /// `frame` as one update of `cnt` equal fragments from session 1,
    /// numbered from `first`; each with its header.
    fn fragments(first: u32, frame: &[u8], cnt: usize) -> Vec<(PmnetHeader, Packet)> {
        let chunks: Vec<&[u8]> = frame.chunks(frame.len().div_ceil(cnt)).collect();
        assert_eq!(chunks.len(), cnt);
        (0..cnt)
            .map(|i| {
                let (idx, part) = (i as u16, chunks[i]);
                let h = PmnetHeader::request(
                    PacketType::UpdateReq,
                    1,
                    first + u32::from(idx),
                    Addr(1),
                    Addr(9),
                    idx,
                    cnt as u16,
                )
                .with_payload(part);
                let body = h.encode(part);
                (
                    h,
                    Packet::udp(Addr(1), Addr(9), client_port(0), SERVICE_PORT, body),
                )
            })
            .collect()
    }

    /// `GET key` from session 2, which has no update outstanding.
    fn get_packet(seq: u32, key: &[u8]) -> Packet {
        let get = KvFrame::encode_get(key);
        let h = PmnetHeader::request(PacketType::BypassReq, 2, seq, Addr(1), Addr(9), 0, 1)
            .with_payload(&get);
        Packet::udp(
            Addr(1),
            Addr(9),
            client_port(0),
            SERVICE_PORT,
            h.encode(&get),
        )
    }

    /// A cache-enabled rig whose device records its cache serves.
    fn cached_rig(log_entries: usize) -> (World, NodeId, NodeId, NodeId, Telemetry) {
        let config = SystemConfig::default()
            .device
            .with_cache(16)
            .with_log_capacity(log_entries, 1 << 20);
        let (mut w, client, dev, server) = rig(config);
        let tel = Telemetry::checking();
        w.node_mut::<PmnetDevice>(dev).set_telemetry(tel.clone());
        (w, client, dev, server, tel)
    }

    /// The values the device served from its cache, in order.
    fn served(tel: &Telemetry) -> Vec<Vec<u8>> {
        tel.history()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::CacheServe { reply, .. } => match KvFrame::decode(reply) {
                    Some(KvFrame::Value { value, found, .. }) => {
                        assert!(found);
                        Some(value.to_vec())
                    }
                    other => panic!("not a read reply: {other:?}"),
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_multi_fragment_set_fills_once_all_its_fragments_are_logged_in_any_order() {
        let (mut w, client, _dev, _server, tel) = cached_rig(64);
        let value = b"0123456789abcdefghij";
        let frags = fragments(1, &set_frame(b"k", value), 3);
        for i in [2, 0] {
            w.inject(client, frags[i].1.clone());
            w.run_for(Dur::micros(50));
        }
        // The first and the last fragment are logged, the middle is not:
        // a read between them misses (it reaches the server).
        w.inject(client, get_packet(1, b"k"));
        w.run_for(Dur::micros(50));
        assert!(served(&tel).is_empty(), "served a value not yet whole");
        w.inject(client, frags[1].1.clone());
        w.run_for(Dur::micros(50));
        w.inject(client, get_packet(2, b"k"));
        w.run_for(Dur::millis(1));
        assert_eq!(served(&tel), [value.to_vec()]);
    }

    #[test]
    fn a_set_with_a_bypassed_fragment_never_fills() {
        // Two log entries: the third fragment of the update is bypassed.
        let (mut w, client, dev, server, tel) = cached_rig(2);
        let frags = fragments(1, &set_frame(b"k", b"0123456789abcdefghij"), 3);
        for (_, pkt) in &frags {
            w.inject(client, pkt.clone());
            w.run_for(Dur::micros(50));
        }
        assert_eq!(w.node::<PmnetDevice>(dev).log_counters().bypass_full, 1);
        w.inject(client, get_packet(1, b"k"));
        w.run_for(Dur::micros(50));
        // The server applies the update and acks it; the key drains
        // without ever having served.
        for (h, _) in &frags {
            w.inject(server, server_ack(h));
        }
        w.run_for(Dur::micros(50));
        w.inject(client, get_packet(2, b"k"));
        w.run_for(Dur::millis(1));
        assert!(served(&tel).is_empty(), "served a truncated value");
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(
            d.cache.as_ref().expect("cache").state(b"k"),
            CacheState::Invalid
        );
    }

    #[test]
    fn a_bypassed_set_stops_the_old_value_until_the_server_acks_it() {
        // One log entry: `k=v1` is cached, then `j` holds the log, so
        // `k=v2` is forwarded unlogged.
        let (mut w, client, dev, server, tel) = cached_rig(1);
        let (h1, p1) = update_packet(1, &set_frame(b"k", b"v1"));
        w.inject(client, p1);
        w.run_for(Dur::micros(50));
        w.inject(server, server_ack(&h1));
        w.run_for(Dur::micros(50));
        w.inject(client, get_packet(1, b"k"));
        w.run_for(Dur::micros(50));
        assert_eq!(served(&tel), [b"v1".to_vec()]);
        let (_, p2) = update_packet(2, &set_frame(b"j", b"x"));
        let (h3, p3) = update_packet(3, &set_frame(b"k", b"v2"));
        for p in [p2, p3] {
            w.inject(client, p);
            w.run_for(Dur::micros(50));
        }
        assert_eq!(w.node::<PmnetDevice>(dev).log_counters().bypass_full, 1);
        w.inject(client, get_packet(2, b"k"));
        w.run_for(Dur::micros(50));
        assert_eq!(served(&tel).len(), 1, "served v1 past the bypassed v2");
        // The server's ack of v2 settles the key.
        w.inject(server, server_ack(&h3));
        w.run_for(Dur::micros(50));
        let d = w.node::<PmnetDevice>(dev);
        assert!(d.bypassed.is_empty());
        assert_eq!(
            d.cache.as_ref().expect("cache").state(b"k"),
            CacheState::Invalid
        );
    }

    /// The server's found reply to a `GET key` from session 2.
    fn value_reply(seq: u32, key: &[u8], value: &[u8]) -> Packet {
        let frame = KvFrame::Value {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            found: true,
        }
        .encode();
        let mut h = PmnetHeader::request(PacketType::BypassReq, 2, seq, Addr(1), Addr(9), 0, 1)
            .with_payload(&frame);
        h.ptype = PacketType::AppReply;
        Packet::udp(
            Addr(9),
            Addr(1),
            SERVICE_PORT,
            client_port(0),
            h.encode(&frame),
        )
    }

    #[test]
    fn a_logged_set_that_survives_power_loss_blocks_an_older_read_reply() {
        let (mut w, client, dev, server, tel) = cached_rig(64);
        let (h, p) = update_packet(1, &set_frame(b"k", b"v1"));
        w.inject(client, p);
        w.run_for(Dur::micros(50));
        w.schedule_crash(dev, w.now(), Some(Dur::micros(10)));
        w.run_for(Dur::micros(50));
        let cache = |w: &World| {
            w.node::<PmnetDevice>(dev)
                .cache
                .as_ref()
                .map(|c| c.state(b"k"))
        };
        assert_eq!(
            cache(&w),
            Some(CacheState::Stale),
            "the survivor is not counted"
        );
        // A reply that left the server before it applied the redo carries
        // the old value; then the redo's ack crosses the device.
        w.inject(server, value_reply(1, b"k", b"v0"));
        w.run_for(Dur::micros(50));
        w.inject(server, server_ack(&h));
        w.run_for(Dur::micros(50));
        w.inject(client, get_packet(2, b"k"));
        w.run_for(Dur::millis(1));
        assert!(served(&tel).is_empty(), "served {:?}", served(&tel));
        assert_eq!(cache(&w), Some(CacheState::Invalid));
    }

    #[test]
    fn more_bypassed_sets_than_log_entries_all_settle_on_their_acks() {
        // One log entry, held by `j`: the four SETs after it are bypassed.
        let (mut w, client, dev, server, tel) = cached_rig(1);
        let keys: [&[u8]; 4] = [b"k0", b"k1", b"k2", b"k3"];
        let (_, pj) = update_packet(1, &set_frame(b"j", b"x"));
        w.inject(client, pj);
        w.run_for(Dur::micros(50));
        let sets: Vec<_> = (0..4)
            .map(|i| update_packet(2 + i, &set_frame(keys[i as usize], b"new")))
            .collect();
        for (_, p) in &sets {
            w.inject(client, p.clone());
        }
        w.run_for(Dur::micros(50));
        assert_eq!(w.node::<PmnetDevice>(dev).log_counters().bypass_full, 4);
        for (h, _) in &sets {
            w.inject(server, server_ack(h));
        }
        w.run_for(Dur::micros(50));
        for (i, key) in keys.iter().enumerate() {
            w.inject(server, value_reply(i as u32, key, b"new"));
        }
        w.run_for(Dur::micros(50));
        for (i, key) in keys.iter().enumerate() {
            w.inject(client, get_packet(10 + i as u32, key));
        }
        w.run_for(Dur::millis(1));
        assert_eq!(served(&tel), vec![b"new".to_vec(); 4]);
        assert!(w.node::<PmnetDevice>(dev).bypassed.is_empty());
    }

    #[test]
    fn reads_park_behind_unacked_same_session_updates() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let (h, pkt) = update_packet(1, b"data");
        w.inject(client, pkt);
        w.run_for(Dur::millis(5));
        assert_eq!(w.node::<EchoHost>(server).received(), 1);
        // A read from the same session must wait for the entry to drain:
        // the update is durable (we acked it) but maybe unapplied.
        let read = |session: u16, seq: u32| {
            let rh =
                PmnetHeader::request(PacketType::BypassReq, session, seq, Addr(1), Addr(9), 0, 1)
                    .with_payload(b"read");
            Packet::udp(
                Addr(1),
                Addr(9),
                client_port(0),
                SERVICE_PORT,
                rh.encode(b"read"),
            )
        };
        w.inject(client, read(1, 7));
        // A retransmission of the same held read must not park twice.
        w.inject(client, read(1, 7));
        // A different session has nothing outstanding: pass through.
        w.inject(client, read(2, 7));
        w.run_for(Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().reads_parked, 1);
        assert_eq!(
            w.node::<EchoHost>(server).received(),
            2,
            "only the other-session read passed the device"
        );
        // The server-ACK drains the entry and releases the held read.
        w.inject(server, server_ack(&h));
        w.run_for(Dur::millis(5));
        assert_eq!(
            w.node::<EchoHost>(server).received(),
            3,
            "held read forwarded once its session's log drained"
        );
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
        let (_, pkt) = update_packet(1, &set.encode());
        w.inject(client, pkt);
        w.run_for(Dur::millis(5));
        // GET k as a bypass: the device must answer from the cache.
        let get = KvFrame::Get {
            key: Bytes::from_static(b"k"),
        };
        let h2 = PmnetHeader::request(PacketType::BypassReq, 1, 1, Addr(1), Addr(9), 0, 1)
            .with_payload(&get.encode());
        w.inject(
            client,
            Packet::udp(
                Addr(1),
                Addr(9),
                client_port(0),
                SERVICE_PORT,
                h2.encode(&get.encode()),
            ),
        );
        w.run_for(Dur::millis(5));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.counters().cache_responses, 1);
        // The read never reached the server (1 = just the SET).
        assert_eq!(w.node::<EchoHost>(server).received(), 1);
        // Client: 1 ACK + 1 cache response.
        assert_eq!(w.node::<EchoHost>(client).received(), 2);
    }
}
