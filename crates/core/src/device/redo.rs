//! Re-sending logged updates from the log (Sections IV-B3, IV-E): the
//! per-entry retry toward a silent server, `Retrans` service for a gap the
//! server detected, and the recovery barrier — a poll re-arms each logged
//! entry's own retry as a paced resend, and the last of them to retire
//! reports `RecoveryDone`. All three rebuild the packet through
//! [`redo_packet`].

use pmnet_net::{Addr, Ctx, Packet};
use pmnet_sim::hash::FixedMap;
use pmnet_sim::Dur;

use super::{PmnetDevice, TIMER_ENTRY_RETRY};
use crate::logstore::{EntryRetry, LogEntry};
use crate::protocol::{PacketType, PmnetHeader, CONTROL_PORT, FLAG_REDO, SERVICE_PORT};
use crate::rto::RtoEstimator;

/// The entry-retry timeout's cap, in multiples of its floor
/// ([`crate::config::DeviceConfig::log_retry_timeout`]).
const ENTRY_RETRY_CAP: u64 = 8;

/// `server`'s entry-retry estimator, seeded and floored at `floor` on
/// first use.
fn estimator(
    rtos: &mut FixedMap<Addr, RtoEstimator>,
    floor: Dur,
    server: Addr,
) -> &mut RtoEstimator {
    rtos.entry(server)
        .or_insert_with(|| RtoEstimator::new(floor, floor, floor * ENTRY_RETRY_CAP))
}

/// Regenerates the logged update as the client sent it, flagged as a redo
/// so no device on the path logs or acknowledges it again. Built from a
/// borrow: the flagged header and a copy of the log's payload go into one
/// pooled builder, so a resend allocates nothing while its size class has
/// an idle buffer. (Keeping the encoded frame in the entry instead was
/// measured and dropped: the extra buffer per resent entry cost
/// `apply_contended` 4.7 % of peak live memory.)
fn redo_packet(entry: &LogEntry) -> Packet {
    let mut h = entry.header;
    h.flags |= FLAG_REDO;
    Packet::udp(
        entry.header.client,
        entry.server,
        entry.client_port,
        entry.server_port,
        h.encode(&entry.payload),
    )
}

impl PmnetDevice {
    /// Serves a server's retransmission request from the log and drops
    /// the request; a miss passes it on toward the client.
    pub(super) fn handle_retrans(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: PmnetHeader,
        packet: Packet,
    ) {
        // A corrupted hash would address the wrong log entry; the server's
        // gap timer re-arms and retransmits the request.
        if !header.verify(packet.src, &[]) {
            self.counters.corrupt_dropped += 1;
            return;
        }
        match self.log.lookup_for_retrans(header.hash).map(redo_packet) {
            Some(redo) => {
                self.counters.retrans_served += 1;
                self.emit(ctx, redo);
            }
            None => self.forward(ctx, packet),
        }
    }

    /// Arms the first re-forward of the live entry `hash` at its server's
    /// current timeout: on admission, and for each survivor on `Restore`.
    pub(super) fn arm_entry_retry(&mut self, ctx: &mut Ctx<'_>, hash: u32, server: Addr) {
        let floor = self.config.log_retry_timeout;
        let after = estimator(&mut self.server_rtos, floor, server).current();
        self.restart_retry(ctx, hash, after, false);
    }

    /// Arms `hash`'s retry `after` from now under a fresh record in its
    /// slot: its clock starts now and its backoff at zero.
    fn restart_retry(&mut self, ctx: &mut Ctx<'_>, hash: u32, after: Dur, owes_barrier: bool) {
        let timer = self.arm(ctx, after, TIMER_ENTRY_RETRY, u64::from(hash));
        let retry = EntryRetry {
            timer,
            since: ctx.now(),
            fires: 0,
            owes_barrier,
        };
        self.log.set_retry(hash, retry);
    }

    /// Re-forwards a still-unacknowledged log entry to its server as a
    /// redo, and re-arms the retry timer backed off once more. The first
    /// fire after a recovery poll is that poll's resend.
    pub(super) fn retry_entry(&mut self, ctx: &mut Ctx<'_>, hash: u32) {
        // The server ack that ends an entry cancels its timer, so only a
        // fence (which purged the log) leaves one to fire on nothing.
        let Some((entry, retry)) = self.log.retrying_mut(hash) else {
            return;
        };
        retry.fires += 1;
        if retry.owes_barrier && retry.fires == 1 {
            self.counters.recovery_resends += 1;
        } else {
            self.counters.entry_retries += 1;
        }
        let floor = self.config.log_retry_timeout;
        let after = estimator(&mut self.server_rtos, floor, entry.server).backed_off(retry.fires);
        let redo = redo_packet(entry);
        self.emit(ctx, redo);
        let timer = self.arm(ctx, after, TIMER_ENTRY_RETRY, u64::from(hash));
        if let Some((_, retry)) = self.log.retrying_mut(hash) {
            retry.timer = timer;
        }
    }

    /// The server acked `entry` and the log invalidated it, handing back
    /// its `retry`: the retry ends here, and the wait since its forward is
    /// a sample of the server's delay. Karn's rule does not apply: the
    /// server acks an update once, when it applied it, and drops the
    /// copies it receives meanwhile, so the ack answers the update rather
    /// than one copy of it. The last entry a recovering server's barrier
    /// waits for reports the drain.
    pub(super) fn entry_retired(&mut self, ctx: &mut Ctx<'_>, entry: &LogEntry, retry: EntryRetry) {
        ctx.cancel(retry.timer);
        let floor = self.config.log_retry_timeout;
        estimator(&mut self.server_rtos, floor, entry.server).sample(ctx.now() - retry.since);
        if retry.owes_barrier {
            self.maybe_recovery_done(ctx, entry.server);
        }
    }

    /// A recovering `server` polled: every durable entry destined to it
    /// that does not already owe the barrier has its retry pulled forward
    /// to a resend, in (client, session, seq) order, paced by PM read
    /// completions (Figure 3 recovery steps; Section VI-B6 measures this
    /// rate). From there the entry backs off as any retry does until the
    /// server's redo ack retires it. A repeated poll (the server re-polls
    /// with backoff until it hears `RecoveryDone`) leaves owing entries
    /// to their timers, so it is idempotent.
    pub(super) fn handle_recovery_poll(&mut self, ctx: &mut Ctx<'_>, server: Addr) {
        let now = ctx.now();
        // The manifest carries only (hash, wire bytes): pacing needs the
        // PM read size, not a clone of each logged entry. Admission and
        // `Restore` gave every live entry a retry record.
        for (hash, bytes) in self.log.recovery_manifest(server, now) {
            match self.log.retry(hash) {
                Some(retry) if !retry.owes_barrier => ctx.cancel(retry.timer),
                _ => continue,
            };
            let ready = self.log.schedule_read(now, bytes);
            let wait = ready.saturating_since(now) + self.config.pipeline_delay;
            self.restart_retry(ctx, hash, wait, true);
        }
        // Nothing (left) to resend for this server: report the drain
        // immediately. This also repairs a lost `RecoveryDone` — the
        // server's next poll regenerates it.
        self.maybe_recovery_done(ctx, server);
    }

    /// Emits `RecoveryDone` to `server` once no live entry owes its
    /// barrier. Safe to call eagerly: it re-checks the retry records.
    fn maybe_recovery_done(&mut self, ctx: &mut Ctx<'_>, server: Addr) {
        if self
            .log
            .any_retry(|entry, retry| retry.owes_barrier && entry.server == server)
        {
            return;
        }
        let h = PmnetHeader::control(PacketType::RecoveryDone, 0, self.addr, server);
        let pkt = Packet::udp(self.addr, server, CONTROL_PORT, SERVICE_PORT, h.encode(&[]));
        self.counters.recovery_done_sent += 1;
        self.emit(ctx, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::super::rig::*;

    #[test]
    fn retrans_is_served_from_the_log_and_dropped() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        let (h, pkt) = update_packet(1, b"payload");
        w.inject(client, pkt);
        w.run_for(Dur::millis(5));
        assert_eq!(w.node::<EchoHost>(server).received(), 1);
        // Server requests a retransmission of the (supposedly lost) packet.
        let mut rh = h;
        rh.ptype = PacketType::Retrans;
        let retrans = Packet::udp(
            Addr(9),
            Addr(1),
            SERVICE_PORT,
            client_port(0),
            rh.encode(&[]),
        );
        w.inject(server, retrans);
        w.run_for(Dur::millis(5));
        // The device served it to the server; the client never saw the
        // retrans request.
        assert_eq!(w.node::<EchoHost>(server).received(), 2);
        assert_eq!(w.node::<PmnetDevice>(dev).counters().retrans_served, 1);
        // Client got exactly the one ACK from the original update.
        assert_eq!(w.node::<EchoHost>(client).received(), 1);
    }

    #[test]
    fn recovery_poll_resends_logged_entries_in_order() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        for seq in [2u32, 1, 3] {
            let (_, pkt) = update_packet(seq, format!("p{seq}").as_bytes());
            w.inject(client, pkt);
        }
        w.run_for(Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 3);
        assert_eq!(w.node::<EchoHost>(server).received(), 3);
        // Server polls the device.
        w.inject(server, poll_packet());
        w.run_for(Dur::millis(5));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().recovery_resends, 3);
        assert_eq!(w.node::<EchoHost>(server).received(), 6);
    }

    /// A server that never acks on its own: it notes when each redo copy
    /// reaches it, and sends what the test injects.
    #[derive(Debug, Default)]
    struct RedoTap {
        /// `(arrival, seq)` of every redo-flagged update received.
        redos: Vec<(Time, u32)>,
    }

    impl RedoTap {
        /// When the redo copies of update `seq` arrived.
        fn copies_of(&self, seq: u32) -> Vec<Time> {
            let copies = self.redos.iter().filter(|&&(_, s)| s == seq);
            copies.map(|&(at, _)| at).collect()
        }
    }

    impl Node for RedoTap {
        fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            match msg {
                Msg::Packet { packet, .. } => {
                    if let Some((h, _)) = PmnetHeader::decode(&packet.payload) {
                        if h.is_redo() {
                            self.redos.push((ctx.now(), h.seq));
                        }
                    }
                }
                Msg::Inject(packet) => ctx.send(PortNo(0), packet),
                _ => {}
            }
        }

        fn addr(&self) -> Option<Addr> {
            Some(Addr(9))
        }
    }

    /// client(sink) -- device -- server([`RedoTap`]), with the device's
    /// entry-retry floor set by the caller.
    fn retrying_rig(entry_retry: Dur) -> (World, NodeId, NodeId, NodeId) {
        let mut config = SystemConfig::default().device;
        config.log_retry_timeout = entry_retry;
        rig_with_server(config, Box::new(RedoTap::default()))
    }

    fn us(us: u64) -> Time {
        Time::ZERO + Dur::micros(us)
    }

    fn ms(ms: u64) -> Time {
        us(ms * 1_000)
    }

    /// Asserts that `copies` arrived at the `due` instants (in µs), each
    /// within the few microseconds of link, PM-read and pipeline delay
    /// behind its timer.
    fn assert_copies_at(copies: &[Time], due: &[u64]) {
        let late = |(&at, &due): (&Time, &u64)| at >= us(due) && at < us(due) + Dur::micros(10);
        assert!(
            copies.len() == due.len() && copies.iter().zip(due).all(late),
            "redo copies at {copies:?}, expected at {due:?} us"
        );
    }

    #[test]
    fn unacknowledged_entries_are_retried_to_the_server() {
        let (mut w, client, dev, server) = retrying_rig(Dur::millis(1));
        let (_, pkt) = update_packet(1, b"payload");
        w.inject(client, pkt);
        // The server never ACKs: the device re-forwards the logged entry,
        // doubling its wait from the 1 ms floor up to the 8 ms cap.
        w.run_until(ms(30));
        let due = [1_000, 3_000, 7_000, 15_000, 23_000];
        assert_copies_at(&w.node::<RedoTap>(server).copies_of(1), &due);
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.counters().entry_retries, 5, "{:?}", d.counters());
        // Still exactly one log entry (retries are redo copies).
        assert_eq!(d.log_len(), 1);
    }

    /// The server acks an update, the client's retransmission of it is
    /// logged again, and that new incarnation is redone only on its own
    /// clock: the ack cancelled the first incarnation's timer.
    #[test]
    fn a_relogged_incarnation_is_retried_on_its_own_timer() {
        let (mut w, client, dev, server) = retrying_rig(Dur::millis(5));
        let (h, pkt) = update_packet(1, b"payload");
        w.inject(client, pkt.clone());
        w.schedule(ms(1), server, Msg::Inject(server_ack(&h)));
        w.schedule(ms(2), client, Msg::Inject(pkt));
        w.run_until(ms(3));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!((d.log_counters().invalidated, d.log_len()), (1, 1));
        // The first incarnation's timer would have been due at 5 ms.
        w.run_until(ms(9));
        assert_copies_at(&w.node::<RedoTap>(server).copies_of(1), &[7_000]);
    }

    /// A server that acks every update 20 ms after it was logged is
    /// waited for: once its first ack has taught the device that delay,
    /// no entry is re-forwarded to it again.
    #[test]
    fn a_slow_server_is_timed_from_its_acks() {
        let (mut w, client, dev, server) = retrying_rig(Dur::millis(5));
        let n = 40;
        for i in 0..n {
            let (h, pkt) = update_packet(i + 1, b"payload");
            w.schedule(ms(u64::from(i)), client, Msg::Inject(pkt));
            w.schedule(ms(u64::from(i) + 20), server, Msg::Inject(server_ack(&h)));
        }
        w.run_until(ms(100));
        let tap = w.node::<RedoTap>(server);
        // Before any ack the floor rules, doubling per entry: 5, then 10.
        assert_copies_at(&tap.copies_of(1), &[5_000, 15_000]);
        // Logged after the first ack (20 ms) landed: never re-forwarded.
        assert!(
            tap.redos.iter().all(|&(_, seq)| seq <= 21),
            "{:?}",
            tap.redos
        );
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(
            (d.log_counters().invalidated, d.log_len()),
            (u64::from(n), 0)
        );
        // Every retry ended with its entry: nothing is left to fire.
        assert_eq!(w.pending_events(), 0);
    }

    /// A poll half a millisecond after the update was logged pulls the
    /// entry's own retry forward: its redo copies follow one schedule —
    /// the paced resend, then the retry's doubling from there — and the
    /// device holds one armed timer for its one live entry.
    #[test]
    fn a_poll_pulls_the_entry_retry_forward_onto_one_schedule() {
        let (mut w, client, dev, server) = retrying_rig(Dur::millis(1));
        let (_, pkt) = update_packet(1, b"payload");
        w.inject(client, pkt);
        w.schedule(us(500), server, Msg::Inject(poll_packet()));
        w.run_until(us(900));
        assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 1);
        assert_eq!(w.pending_events(), 1, "one armed timer per live entry");
        w.run_until(ms(30));
        let due = [500, 2_500, 6_500, 14_500, 22_500];
        assert_copies_at(&w.node::<RedoTap>(server).copies_of(1), &due);
        let c = w.node::<PmnetDevice>(dev).counters();
        assert_eq!((c.recovery_resends, c.entry_retries), (1, 4), "{c:?}");
        assert_eq!(c.recovery_done_sent, 0);
    }

    #[test]
    fn staged_resends_refire_until_the_redo_ack_confirms() {
        let (mut w, client, dev, server) = retrying_rig(Dur::micros(50));
        let (h, pkt) = update_packet(1, b"hello");
        w.inject(client, pkt);
        w.run_for(Dur::millis(1));
        let retries_at_poll = w.node::<PmnetDevice>(dev).counters().entry_retries;
        // The server "crashes and recovers", then polls; its redo acks
        // never come back, so the resend keeps re-firing on the entry's
        // backed-off retry.
        w.inject(server, poll_packet());
        w.run_for(Dur::millis(2));
        let c = w.node::<PmnetDevice>(dev).counters();
        assert_eq!(c.recovery_resends, 1, "{c:?}");
        assert!(c.entry_retries >= retries_at_poll + 2, "{c:?}");
        assert_eq!(c.recovery_done_sent, 0);
        // The redo ack finally lands: the entry retires, RecoveryDone goes
        // out, and the re-fire loop stops with the cancelled timer.
        w.inject(server, server_ack(&h));
        w.run_for(Dur::millis(1));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.counters().recovery_done_sent, 1);
        assert_eq!(d.log_len(), 0);
        assert_eq!(w.pending_events(), 0, "re-fires stop with the redo ack");
    }

    #[test]
    fn repeated_polls_are_idempotent_and_regenerate_recovery_done() {
        let (mut w, client, dev, server) = rig(SystemConfig::default().device);
        // Poll an empty log: the device reports the drain immediately.
        w.inject(server, poll_packet());
        w.run_for(Dur::millis(1));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().recovery_done_sent, 1);
        // A second poll (the first RecoveryDone may have been lost)
        // regenerates the report.
        w.inject(server, poll_packet());
        w.run_for(Dur::millis(1));
        assert_eq!(w.node::<PmnetDevice>(dev).counters().recovery_done_sent, 2);
        // With an entry owing the barrier, repeated polls do not re-arm
        // (or resend) it: its one retry timer owns it.
        let (_, pkt) = update_packet(1, b"hello");
        w.inject(client, pkt);
        w.run_for(Dur::millis(1));
        w.inject(server, poll_packet());
        w.inject(server, poll_packet());
        w.run_for(Dur::millis(2));
        let d = w.node::<PmnetDevice>(dev);
        assert_eq!(d.counters().recovery_resends, 1, "{:?}", d.counters());
        assert_eq!(w.pending_events(), 1, "one armed timer per live entry");
        // And no premature drain report while the entry is outstanding.
        assert_eq!(d.counters().recovery_done_sent, 2);
    }

    /// A torn update drains from the log without reaching the handler:
    /// fragment 0 of two is logged and delivered, and fragment 1 never
    /// comes, as from a client that crashed mid-update. What drains the
    /// entry is the make-up ack the server sends for its retry copy while
    /// fragment 0 waits in the stream's partial assembly; a rule that
    /// withholds that ack must release torn updates some other way.
    #[test]
    fn a_torn_update_drains_from_the_log_unapplied() {
        use crate::config::ApplyConfig;
        use crate::server::{IdealHandler, ServerLib};
        for apply in [ApplyConfig::default(), ApplyConfig::threaded(2)] {
            let cfg = SystemConfig::default();
            let handler = Box::new(IdealHandler::new());
            let lib = ServerLib::new(Addr(9), cfg.server, 4, cfg.gap_timeout, handler);
            let lib = Box::new(lib.with_apply(apply));
            let (mut w, client, dev, server) = rig_with_server(cfg.device, lib);
            let body = b"first half";
            let h = PmnetHeader::request(PacketType::UpdateReq, 1, 0, Addr(1), Addr(9), 0, 2)
                .with_payload(body);
            let pkt = Packet::udp(
                Addr(1),
                Addr(9),
                client_port(0),
                SERVICE_PORT,
                h.encode(body),
            );
            w.inject(client, pkt);
            w.run_until(ms(4));
            assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 1, "{apply:?}");
            // Past the entry's first retries: the 5 ms floor, doubling.
            w.run_until(ms(40));
            let c = w.node::<ServerLib>(server).counters();
            assert_eq!(c.updates_applied, 0, "{apply:?}: {c:?}");
            assert!(c.make_up_acks >= 1, "{apply:?}: {c:?}");
            assert_eq!(w.node::<PmnetDevice>(dev).log_len(), 0, "{apply:?}");
        }
    }
}
