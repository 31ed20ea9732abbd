//! The life of a log entry (Section IV-B1, Figure 3): verify → admit →
//! forward → persist → acknowledge → invalidate on the server's ack.
//!
//! Every entry is acknowledged under **one rule**, [`DeviceRole::owed`]:
//! only while it is live in the log with `persisted_at <= now`
//! ([`crate::LogStore::durable`]), and to whom the device's role says — so
//! a primary additionally needs the entry's `confirmed` bit unless
//! `Promote` collapsed the chain. Every PMNet-ACK leaves through
//! [`PmnetDevice::ack_clients`].

use bytes::Bytes;
use pmnet_net::{Addr, Ctx, Packet};
use pmnet_sim::Time;
use pmnet_telemetry::history::{Event, EventKind};
use pmnet_telemetry::span::OpEvent;

use super::{DeviceRole, PmnetDevice, Release, TIMER_BATCH_FLUSH, TIMER_PERSIST_DONE};
use crate::batch::{BatchBuilder, FRAME_PREFIX_LEN, MAX_FRAMES};
use crate::logstore::{BypassReason, LogOutcome};
use crate::protocol::{PmnetHeader, FLAG_CONGESTED, HEADER_LEN};

impl PmnetDevice {
    pub(super) fn handle_update_req(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: PmnetHeader,
        payload: Bytes,
        mut packet: Packet,
    ) {
        if header.is_redo() {
            // A redo resend from an upstream device's log: it is already
            // persistent upstream and must not be re-acknowledged. It was
            // verified when first logged and is re-verified at the server.
            return self.forward(ctx, packet);
        }
        // A corrupted request must never be logged or acknowledged — an
        // ACK would tell the client the update is persistent while the log
        // holds (and would replay) a poisoned entry. Treat it as loss; the
        // client's timeout resend repairs it.
        if !header.verify(packet.dst, &payload) {
            self.counters.corrupt_dropped += 1;
            return;
        }
        let (device, at) = (self.id, ctx.now());
        self.span(ctx, &header, OpEvent::DeviceRecv { device, at });
        // Try the log first so a pressure bypass can be stamped on the
        // forwarded copy; the forward still happens at `ctx.now()` either
        // way, so the fast path's timing is unchanged (Figure 3: egress
        // forward in parallel with PM logging). The entry is admitted into
        // the open doorbell window as it leaves the MAT pipeline; its PM
        // write (and fence) is the whole window's single flush.
        let exit = at + self.pipeline_for(payload.len());
        let server = packet.dst;
        let outcome = self.log.try_stage(
            exit,
            header,
            payload.clone(),
            server,
            packet.src_port,
            packet.dst_port,
        );
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
        let hash = header.hash;
        match outcome {
            LogOutcome::Staged => {
                // Admitted behind the doorbell: no persist timer — the
                // window's single flush owns that.
                if self.batch.is_batched() {
                    self.span(ctx, &header, OpEvent::DeviceBatchStage { device, at });
                }
                self.entry_admitted(ctx, &header, &payload, server);
                if self.log.staged_len() >= self.batch.window as usize {
                    // This entry fills the window: the doorbell rings and
                    // the write starts as the entry leaves the pipeline.
                    self.flush_batch(ctx, exit);
                } else if self.log.staged_len() == 1 {
                    // First entry of a fresh window: bound its wait.
                    self.arm(ctx, self.batch.max_wait, TIMER_BATCH_FLUSH, self.batch_seq);
                }
            }
            LogOutcome::Duplicate => {
                // A copy of a logged update (the client's ACK, or the
                // backup's ChainAck, was probably lost): repeat the
                // acknowledgement it is owed — if it has earned one. While
                // the original's write is staged or in flight, the copy is
                // held and the pending completion acknowledges it.
                if self.settle(ctx, hash) {
                    self.ack_clients(ctx, &[hash]);
                }
            }
            // Forwarded without logging or acknowledgement; the client
            // falls back to waiting for the server (Section IV-B1). The
            // server will still apply it, so the cache must hear of it.
            LogOutcome::Bypass(_) => self.cache_bypassed(&header, &payload),
            // `Logged` is `try_log`'s outcome, never staging's.
            LogOutcome::Logged { .. } => {}
        }
    }

    /// The log took this update into the open window: what every admitted
    /// entry needs before the window's write is scheduled.
    fn entry_admitted(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: &PmnetHeader,
        payload: &Bytes,
        server: Addr,
    ) {
        // If the server never acknowledges (the forward may have been
        // lost with no follow-up traffic to trip the gap detector), redo
        // the entry from the log.
        self.arm_entry_retry(ctx, header.hash, server);
        self.cache_logged(header, payload, server);
    }

    /// The end of an entry's life: the server applied the update, so the
    /// log's copy (and everything waiting on it) is released.
    pub(super) fn handle_server_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: PmnetHeader,
        packet: Packet,
    ) {
        self.cache_settle_bypassed(header.hash);
        if let Some((entry, retry)) = self.log.invalidate(header.hash) {
            self.entry_drained(ctx, &entry);
            // Retired last, so a `RecoveryDone` it completes follows the
            // reads the entry released.
            if let Some(retry) = retry {
                self.entry_retired(ctx, &entry, retry);
            }
        }
        // Forward toward the client; the next PMNet on the route may hold
        // its own copy of the log (Section IV-B1).
        self.forward(ctx, packet);
    }

    /// The entry's window was flushed, so its PM write is scheduled — its
    /// durability point for the model checker.
    fn record_logged(&self, ctx: &Ctx<'_>, header: &PmnetHeader) {
        self.telemetry.record(|| Event {
            at: ctx.now(),
            client: header.client,
            session: header.session,
            seq: header.seq,
            kind: EventKind::DeviceLogged { device: self.addr },
        });
    }

    /// Rings the doorbell: every staged entry persists behind **one** PM
    /// write starting at `write_at` (one fence for the whole window), and
    /// the window acks together when that write completes.
    pub(super) fn flush_batch(&mut self, ctx: &mut Ctx<'_>, write_at: Time) {
        let Some((ack_at, hashes)) = self.log.flush_staged(write_at) else {
            return;
        };
        // Retire the window id so a pending doorbell-deadline timer for
        // this window fizzles.
        let window = self.batch_seq;
        self.batch_seq += 1;
        let first = self.persisting.len();
        self.persisting.extend(hashes.map(|hash| (window, hash)));
        let n = (self.persisting.len() - first) as u64;
        if n == 0 {
            // Every entry was server-acked while staged: nobody is owed an
            // acknowledgement, so nothing waits for the write.
            return;
        }
        let batched = self.batch.is_batched();
        if batched {
            self.counters.batches_flushed += 1;
            self.counters.batched_entries += n;
        }
        let (device, at) = (self.id, ctx.now());
        if self.telemetry.is_enabled() {
            for &(_, hash) in &self.persisting[first..] {
                let Some(entry) = self.log.peek(hash) else {
                    continue;
                };
                if batched {
                    self.span(ctx, &entry.header, OpEvent::DeviceBatchFlush { device, at });
                }
                self.record_logged(ctx, &entry.header);
            }
        }
        let wait = ack_at.saturating_since(at);
        self.arm(ctx, wait, TIMER_PERSIST_DONE, window);
    }

    /// The window's single PM write completed: settle each entry, then
    /// coalesce the client ACKs that fell due into batch packets (chain
    /// ACKs stay per-packet — the peer link is device-to-device).
    pub(super) fn on_persist_done(&mut self, ctx: &mut Ctx<'_>, window: u64) {
        // One contiguous run of the flush-ordered list, usually its head:
        // a PM slowdown lifted between two flushes lets the later write
        // finish first. A fence may have purged the run already.
        let Some(start) = self.persisting.iter().position(|&(w, _)| w == window) else {
            return;
        };
        let run = self.persisting[start..]
            .iter()
            .take_while(|&&(w, _)| w == window);
        let end = start + run.count();
        let mut hashes = std::mem::take(&mut self.written_scratch);
        hashes.extend(self.persisting.drain(start..end).map(|(_, hash)| hash));
        hashes.retain(|&hash| self.written(ctx, hash));
        self.ack_clients(ctx, &hashes);
        hashes.clear();
        self.written_scratch = hashes;
    }

    /// The PM write covering `hash` completed (an entry server-acked
    /// before then is owed nothing). Returns whether the client's
    /// PMNet-ACK fell due (see [`PmnetDevice::settle`]).
    fn written(&mut self, ctx: &mut Ctx<'_>, hash: u32) -> bool {
        let due = self.settle(ctx, hash);
        if due && self.role() == DeviceRole::Primary {
            // Confirmed by the backup before our own write finished.
            self.counters.chain_releases += 1;
        }
        due
    }

    /// Carries out what the one rule says `hash` is owed now: a backup's
    /// `ChainAck` leaves here; for the client's PMNet-ACK it returns `true`
    /// and the caller sends it, so a window's worth can share packets.
    pub(super) fn settle(&mut self, ctx: &mut Ctx<'_>, hash: u32) -> bool {
        match self.role().owed(&self.log, hash, ctx.now()) {
            Release::Hold => false,
            Release::AckClient => true,
            Release::AckPrimary => {
                self.send_chain_ack(ctx, hash);
                false
            }
        }
    }

    /// Sends the PMNet-ACKs of `hashes` — live entries the one rule has
    /// released — coalescing same-flow ACKs into one batch packet (capped
    /// at [`MAX_FRAMES`]).
    pub(super) fn ack_clients(&mut self, ctx: &mut Ctx<'_>, hashes: &[u32]) {
        if hashes.len() <= 1 {
            // One ACK: nothing to group, nothing allocated.
            return self.send_ack_packet(ctx, hashes);
        }
        let mut flows: Vec<((Addr, u16, u16), Vec<u32>)> = Vec::new();
        for &hash in hashes {
            let Some(entry) = self.log.peek(hash) else {
                continue;
            };
            let flow = (entry.header.client, entry.server_port, entry.client_port);
            match flows.iter_mut().find(|(k, _)| *k == flow) {
                Some((_, v)) => v.push(hash),
                None => flows.push((flow, vec![hash])),
            }
        }
        for (_, flow_hashes) in flows {
            for chunk in flow_hashes.chunks(MAX_FRAMES) {
                self.send_ack_packet(ctx, chunk);
            }
        }
    }

    /// The one place a PMNet-ACK leaves the device: one packet for the
    /// entries of one flow. A single ACK goes out as a plain packet,
    /// byte-identical to the unbatched device's; two or more ride as
    /// frames of one batch packet.
    fn send_ack_packet(&mut self, ctx: &mut Ctx<'_>, flow_hashes: &[u32]) {
        let device = self.id;
        let mut acks = flow_hashes
            .iter()
            .filter_map(|&hash| self.log.peek(hash))
            .map(|entry| (entry, entry.header.ack_from_device(device)));
        let Some((first, first_ack)) = acks.next() else {
            return;
        };
        let (client, src_port, dst_port) =
            (first.header.client, first.server_port, first.client_port);
        let coalesced = flow_hashes.len() > 1;
        let (n, body) = if coalesced {
            let mut b =
                BatchBuilder::with_capacity(flow_hashes.len() * (FRAME_PREFIX_LEN + HEADER_LEN));
            b.push(&first_ack, &[]);
            for (_, ack) in acks {
                b.push(&ack, &[]);
            }
            (u64::from(b.count()), b.finish())
        } else {
            (1, first_ack.encode(&[]))
        };
        self.counters.acks_sent += n;
        if coalesced {
            self.counters.coalesced_acks += n;
            self.counters.batch_ack_packets += 1;
        }
        let packet = Packet::udp(self.addr, client, src_port, dst_port, body);
        let sent = self.emit(ctx, packet);
        if let (Some(d), true) = (sent, self.telemetry.is_enabled()) {
            let at = ctx.now() + d;
            for entry in flow_hashes.iter().filter_map(|&hash| self.log.peek(hash)) {
                self.span(ctx, &entry.header, OpEvent::DeviceAckSend { device, at });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::rig::*;
    use crate::batch::{BATCH_HDR_LEN, FRAME_PREFIX_LEN};
    use crate::protocol::{FLAG_REDO, HEADER_LEN};
    use pmnet_net::{EventCounts, Msg};
    use pmnet_pmem::PmDevice;
    use pmnet_telemetry::flight::FlightBody;

    #[test]
    fn update_is_forwarded_and_acked() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let (_, pkt) = update_packet(1, b"hello");
        w.inject(client, pkt);
        w.run_for(Dur::millis(5));
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
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let (h, pkt) = update_packet(1, b"hello");
        w.inject(client, pkt);
        w.run_for(Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 1);
        // Server-ACK flows back through the device.
        w.inject(server, server_ack(&h));
        w.run_for(Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 0);
        assert_eq!(w.node::<PmnetDevice>(dev).log_counters().invalidated, 1);
        // The ack itself was forwarded on to the client.
        assert_eq!(w.node::<EchoHost>(client).received(), 2);
    }

    #[test]
    fn redo_packets_are_not_relogged_or_acked() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let (h, _) = update_packet(1, b"x");
        let mut redo = h;
        redo.flags |= FLAG_REDO;
        let pkt = Packet::udp(
            Addr(1),
            Addr(9),
            client_port(0),
            SERVICE_PORT,
            redo.encode(b"x"),
        );
        w.inject(client, pkt);
        w.run_for(Dur::millis(5));
        assert_eq!(w.node::<EchoHost>(server).received(), 1);
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 0);
        assert_eq!(w.node::<EchoHost>(client).received(), 0);
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
        w.run_for(Dur::millis(1));
        w.inject(client, p2);
        w.run_for(Dur::millis(1));
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
        w.run_for(Dur::millis(5));
        let d = w.node::<PmnetDevice>(dev);
        // One doorbell window: one flush, three fences elided.
        assert_eq!(d.counters().batches_flushed, 1);
        assert_eq!(d.counters().batched_entries, 4);
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

    /// A rig whose device batches with a 16-entry window and `max_wait`.
    fn windowed_rig(max_wait: Dur) -> (World, NodeId, NodeId, NodeId) {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let mut batch = BatchConfig::windowed(16);
        batch.max_wait = max_wait;
        w.node_mut::<PmnetDevice>(dev).set_batch(batch);
        (w, client, dev, server)
    }

    #[test]
    fn doorbell_deadline_flushes_a_partial_window() {
        let (mut w, client, dev, _server) = windowed_rig(Dur::micros(5));
        // Two updates: far short of the 16-entry window; only the
        // doorbell deadline can release them.
        for seq in 1..=2u32 {
            let (_, pkt) = update_packet(seq, b"x");
            w.inject(client, pkt);
        }
        w.run_for(Dur::millis(5));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.counters().batches_flushed, 1);
        assert_eq!(d.counters().batched_entries, 2);
        assert_eq!(d.counters().acks_sent, 2);
        assert_eq!(d.counters().batch_ack_packets, 1);
    }

    #[test]
    fn duplicate_of_a_staged_update_is_not_acked_early() {
        // A deadline long enough that the duplicate arrives while the
        // original still sits staged.
        let (mut w, client, dev, server) = windowed_rig(Dur::millis(1));
        let (_, pkt) = update_packet(1, b"dup");
        w.inject(client, pkt.clone());
        w.run_for(Dur::micros(100));
        // Still staged: the retransmission must not be acknowledged.
        assert_eq!(w.node::<PmnetDevice>(dev).counters().acks_sent, 0);
        w.inject(client, pkt);
        w.run_for(Dur::micros(100));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().acks_sent, 0);
        // The deadline flush releases exactly one ack (no duplicates).
        w.run_for(Dur::millis(5));
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
    fn a_filled_window_starts_its_write_when_the_last_entry_leaves_the_pipeline() {
        let (mut w, client, dev, _server) = rig(SystemConfig::default().device);
        let telemetry = Telemetry::checking();
        let d = w.node_mut::<PmnetDevice>(dev);
        d.set_batch(BatchConfig::windowed(4));
        d.set_telemetry(telemetry.clone());
        let payload = b"payload";
        for seq in 1..=4u32 {
            let (_, pkt) = update_packet(seq, payload);
            w.inject(client, pkt);
        }
        w.run_for(Dur::millis(5));
        // The 4th update fills the window; its arrival and the coalesced
        // ack's exit, as the device stamped them.
        let stamp = |want: fn(&OpEvent) -> bool| {
            let dump = telemetry.flight_dump();
            let mut stamps = dump.events.iter().filter_map(|e| match e.body {
                FlightBody::Span(ev) if e.key.2 == 4 && want(&ev) => Some(ev.at()),
                _ => None,
            });
            stamps.next().expect("the 4th update was stamped")
        };
        let arrived = stamp(|ev| matches!(ev, OpEvent::DeviceRecv { .. }));
        let ack_left = stamp(|ev| matches!(ev, OpEvent::DeviceAckSend { .. }));
        let d = w.node_mut::<PmnetDevice>(dev);
        assert_eq!(d.counters().batch_ack_packets, 1);
        let pm = d.log.pm_mut();
        assert_eq!(pm.counters().writes, 1, "one write for the window");
        let bytes = pm.counters().bytes_written as u32;
        let write = PmDevice::new(d.config.pm).schedule_write(Time::ZERO, bytes) - Time::ZERO;
        let ack_len = BATCH_HDR_LEN + 4 * (FRAME_PREFIX_LEN + HEADER_LEN);
        let exit = arrived + d.pipeline_for(payload.len());
        assert_eq!(
            ack_left,
            exit + write + d.pipeline_for(ack_len),
            "the write starts at the 4th update's pipeline exit ({exit:?})"
        );
    }

    #[test]
    fn a_later_window_may_persist_first() {
        // The first update's write runs on a PM slowed 100-fold; the
        // second, flushed after the slowdown is lifted, completes ~25 µs
        // earlier. Each completion settles its own window.
        let (mut w, client, dev, _server) = rig(SystemConfig::default().device);
        w.node_mut::<PmnetDevice>(dev).set_pm_slowdown(100);
        let (_, first) = update_packet(1, b"slow");
        w.inject(client, first);
        w.run_until(Time::ZERO + Dur::micros(3));
        w.node_mut::<PmnetDevice>(dev).set_pm_slowdown(1);
        let (_, second) = update_packet(2, b"fast");
        w.schedule(Time::ZERO + Dur::micros(5), client, Msg::Inject(second));
        w.run_until(Time::ZERO + Dur::micros(15));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().acks_sent, 1);
        w.run_for(Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().acks_sent, 2);
        assert_eq!(w.node::<EchoHost>(client).received(), 2);
    }

    #[test]
    fn a_window_emptied_by_server_acks_owes_no_ack_and_arms_no_persist() {
        // The one entry of the window is server-acked while it waits for
        // the doorbell: the deadline flush has nobody to acknowledge.
        let (mut w, client, dev, server) = windowed_rig(Dur::millis(1));
        let (h, pkt) = update_packet(1, b"acked");
        w.inject(client, pkt);
        let ack = Msg::Inject(server_ack(&h));
        w.schedule(Time::ZERO + Dur::micros(50), server, ack);
        w.run_for(Dur::millis(5));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.log_len(), 0);
        let c = d.counters();
        assert!(c.batches_flushed <= c.batched_entries, "{c:?}");
        assert_eq!(c.acks_sent, 0);
        // The deadline is the only timer that fired: the entry's retry was
        // cancelled with it, and the empty window armed no persist.
        assert_eq!(w.event_counts().dispatched[EventCounts::TIMER], 1);
    }

    #[test]
    fn batched_window_dies_with_a_crash_before_the_doorbell() {
        let (mut w, client, dev, _server) = windowed_rig(Dur::millis(1));
        for seq in 1..=3u32 {
            let (_, pkt) = update_packet(seq, b"doomed");
            w.inject(client, pkt);
        }
        // Crash after the updates are staged but before the 1 ms doorbell.
        w.schedule_crash(dev, Time::from_nanos(500_000), None);
        w.run_for(Dur::millis(10));
        let d = w.node::<PmnetDevice>(dev);
        // Nothing was ever acknowledged, so losing the window is safe.
        assert_eq!(d.counters().acks_sent, 0);
        assert_eq!(d.counters().batches_flushed, 0);
        assert_eq!(d.log_len(), 0, "staged entries are volatile");
        assert_eq!(w.node::<EchoHost>(client).received(), 0);
    }
}
