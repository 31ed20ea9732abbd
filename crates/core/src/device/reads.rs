//! Reads at the device (Section IV-D, Figure 10): serving `BypassReq`s
//! from the read cache, filling it from replies, and holding a cache-miss
//! read behind its session's un-acked updates so it cannot overtake them.

use bytes::Bytes;
use pmnet_net::{Ctx, Packet};
use pmnet_telemetry::history::{Event, EventKind};
use pmnet_telemetry::span::OpEvent;

use super::PmnetDevice;
use crate::kvproto::KvFrame;
use crate::logstore::LogEntry;
use crate::protocol::{PacketType, PmnetHeader};

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
                if let Some(value) = cache.lookup(&key) {
                    // Cache hit: answer the read directly (Figure 10).
                    let mut h = header;
                    h.ptype = PacketType::CacheResp;
                    h.device_id = self.id;
                    let frame = KvFrame::Value {
                        key,
                        value,
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
                    self.telemetry.record(|| Event {
                        at: ctx.now(),
                        client: header.client,
                        session: header.session,
                        seq: header.seq,
                        kind: EventKind::CacheServe {
                            device: self.addr,
                            reply: frame_bytes.clone(),
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
    /// cache's in-flight count for its key and, if it was the session's
    /// last outstanding entry, let the reads held behind it go.
    pub(super) fn entry_drained(&mut self, ctx: &mut Ctx<'_>, entry: &LogEntry) {
        if let Some(cache) = &mut self.cache {
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
    use crate::kvproto::KvFrame;

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
