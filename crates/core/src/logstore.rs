//! The device's hash-indexed request log (Sections IV-B1/IV-B2).
//!
//! Update packets are logged in the device's PM keyed by the header's
//! CRC-32 `HashVal`. PM writes go through a bounded log queue sized by the
//! Eq. 2 bandwidth-delay product: if the queue is full, the hash collides
//! with a *different* request, or the table/PM capacity is exhausted, the
//! packet is forwarded **without** logging or acknowledging — the client
//! then simply waits for the server as in the baseline (Section IV-B1).
//!
//! Two exact-match tables, one lookup each per packet, both hashed with
//! [`FixedState`]:
//!
//! - the entry table, keyed by `HashVal` — the state a crash keeps;
//! - the per-session ledger, live-entry counts keyed by
//!   `(server, client, session)` — derived state, rebuilt from the
//!   surviving entries on [`LogStore::crash`]. It answers the read-ordering
//!   guard ([`LogStore::has_outstanding`]) and the spill quota
//!   ([`BypassReason::SessionQuota`]).
//!
//! Neither is iterated in an order that leaves the store: whatever is
//! listed ([`LogStore::hashes`], [`LogStore::recovery_manifest`]) is
//! sorted first.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::vec::Drain;

use bytes::Bytes;
use pmnet_net::Addr;
use pmnet_pmem::PmDevice;
use pmnet_sim::hash::FixedState;
use pmnet_sim::Time;

use crate::config::DeviceConfig;
use crate::protocol::PmnetHeader;

/// A logged update packet, sufficient to regenerate it for recovery.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// The packet's PMNet header.
    pub header: PmnetHeader,
    /// The application payload.
    pub payload: Bytes,
    /// Destination server.
    pub server: Addr,
    /// Source UDP port of the client (for addressing the PMNet-ACK).
    pub client_port: u16,
    /// Destination UDP port (the server service port).
    pub server_port: u16,
    /// When the PM write completes; the entry is only durable from then.
    pub persisted_at: Time,
    /// A chain primary's entry: the backup confirmed its own copy durable
    /// ([`LogStore::confirm`]). Written with invalidation's timing (no PM
    /// cost) and kept by a crash; losing it needs no fence, as an
    /// unconfirmed survivor only waits for a fresh `ChainAck`.
    pub confirmed: bool,
}

/// Why a packet was not logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BypassReason {
    /// The Eq. 2 log queue had no room (PM backlog exceeds the SRAM
    /// buffer).
    QueueFull,
    /// The hash slot is occupied by a different request (Section IV-B1).
    HashCollision,
    /// The log table or PM capacity is exhausted.
    LogFull,
    /// The session already holds its quota of live entries
    /// ([`crate::config::DeviceConfig::log_session_quota`]): spilled so one
    /// hot session cannot monopolize the log under sustained overload.
    SessionQuota,
    /// The log's soft occupancy watermark is reached
    /// ([`crate::config::DeviceConfig::log_spill_watermark`]): spilled to
    /// keep occupancy bounded below hard capacity.
    Watermark,
}

/// Outcome of offering a packet to the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOutcome {
    /// Logged and written at once ([`LogStore::try_log`]); the PMNet-ACK
    /// may be sent at `ack_at` (persist completion).
    Logged {
        /// Persist-completion instant.
        ack_at: Time,
    },
    /// Staged behind the doorbell: the entry is in the log table but its
    /// PM write (and therefore its ACK) waits for [`LogStore::flush_staged`].
    Staged,
    /// Already logged (a retransmission): nothing changed. Whether the
    /// copy may be re-acknowledged is [`LogStore::durable`]'s call.
    Duplicate,
    /// Not logged; forward silently.
    Bypass(BypassReason),
}

/// Counters of log activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCounters {
    /// Entries logged.
    pub logged: u64,
    /// Packets bypassed because the log queue was full.
    pub bypass_queue: u64,
    /// Packets bypassed on hash collision.
    pub bypass_collision: u64,
    /// Packets bypassed because the log was full.
    pub bypass_full: u64,
    /// Entries invalidated by server-ACKs.
    pub invalidated: u64,
    /// Retransmissions served from the log.
    pub retrans_hits: u64,
    /// Retransmissions that missed the log.
    pub retrans_misses: u64,
    /// Packets spilled by the per-session live-entry quota.
    pub spilled_quota: u64,
    /// Packets spilled by the soft occupancy watermark.
    pub spilled_watermark: u64,
    /// Highest live-entry count ever held (occupancy high-water mark).
    pub peak_entries: u64,
    /// Highest byte occupancy ever held.
    pub peak_bytes: u64,
}

impl pmnet_telemetry::registry::CounterGroup for LogCounters {
    fn visit_counters(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("logged", self.logged);
        f("bypass_queue", self.bypass_queue);
        f("bypass_collision", self.bypass_collision);
        f("bypass_full", self.bypass_full);
        f("invalidated", self.invalidated);
        f("retrans_hits", self.retrans_hits);
        f("retrans_misses", self.retrans_misses);
        f("spilled_quota", self.spilled_quota);
        f("spilled_watermark", self.spilled_watermark);
        f("peak_entries", self.peak_entries);
        f("peak_bytes", self.peak_bytes);
    }
}

/// The log store: PM timing model + hash-indexed entry table.
#[derive(Debug)]
pub struct LogStore {
    pm: PmDevice,
    entries: HashMap<u32, LogEntry, FixedState>,
    max_entries: usize,
    max_bytes: u64,
    queue_bytes: u64,
    used_bytes: u64,
    /// Live-entry counts per `(server, client, session)`. A non-zero
    /// count means a device-acked (durable) update from that session is
    /// still in flight to the server, so a read from the same session
    /// must not overtake it. Doubles as the spill policy's per-session
    /// occupancy ledger. A key is present iff its count is non-zero.
    outstanding: HashMap<(Addr, Addr, u16), u32, FixedState>,
    /// Per-session live-entry quota (`0` = unlimited).
    session_quota: u32,
    /// Soft occupancy watermark in entries (`0` = off).
    spill_watermark: usize,
    /// Entries staged behind the doorbell (insertion order); their PM
    /// write is deferred to the next [`LogStore::flush_staged`].
    staged: Vec<u32>,
    /// Bytes the staged entries will write — counted against the Eq. 2
    /// queue bound so a doorbell window cannot promise more than the SRAM
    /// buffer holds.
    staged_bytes: u64,
    counters: LogCounters,
}

impl LogStore {
    /// Creates a log store from a device configuration.
    pub fn new(config: &DeviceConfig) -> LogStore {
        LogStore {
            pm: PmDevice::new(config.pm),
            entries: HashMap::default(),
            max_entries: config.log_capacity_entries,
            max_bytes: config.log_capacity_bytes,
            queue_bytes: config.log_queue_bytes,
            used_bytes: 0,
            outstanding: HashMap::default(),
            session_quota: config.log_session_quota,
            spill_watermark: config.log_spill_watermark,
            // Sized for any window up to 64 entries, so staging never
            // grows it while traffic runs.
            staged: Vec::with_capacity(64),
            staged_bytes: 0,
            counters: LogCounters::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of PM in use by entries.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Mutable access to the PM timing model (fault injection: latency
    /// spikes via [`PmDevice::set_slowdown`]).
    pub fn pm_mut(&mut self) -> &mut PmDevice {
        &mut self.pm
    }

    /// Log access counters.
    pub fn counters(&self) -> LogCounters {
        self.counters
    }

    fn entry_bytes(payload: &Bytes) -> u64 {
        // Header + payload + table metadata.
        (crate::protocol::HEADER_LEN + payload.len() + 16) as u64
    }

    /// Offers an update packet to the log and writes it at once: a window
    /// of one, [`LogStore::try_stage`] followed by
    /// [`LogStore::flush_staged`]. Entries already staged share the write.
    pub fn try_log(
        &mut self,
        now: Time,
        header: PmnetHeader,
        payload: Bytes,
        server: Addr,
        client_port: u16,
        server_port: u16,
    ) -> LogOutcome {
        let outcome = self.try_stage(now, header, payload, server, client_port, server_port);
        if outcome != LogOutcome::Staged {
            return outcome;
        }
        self.flush_staged(now)
            .map_or(outcome, |(ack_at, _)| LogOutcome::Logged { ack_at })
    }

    /// Offers an update packet to the log behind the doorbell: the entry
    /// is admitted (staged-but-unwritten bytes count against the Eq. 2
    /// queue bound) but its PM write is deferred until
    /// [`LogStore::flush_staged`] rings the doorbell for the whole window.
    /// Until then the entry is not durable: `persisted_at` is the end of
    /// time, so a crash drops it and a recovery manifest excludes it.
    pub fn try_stage(
        &mut self,
        now: Time,
        header: PmnetHeader,
        payload: Bytes,
        server: Addr,
        client_port: u16,
        server_port: u16,
    ) -> LogOutcome {
        if let Some(existing) = self.entries.get(&header.hash) {
            if existing.header.session == header.session
                && existing.header.seq == header.seq
                && existing.header.client == header.client
            {
                // Client retransmission of an already-logged packet (its
                // ACK may have been lost): idempotent.
                return LogOutcome::Duplicate;
            }
            self.counters.bypass_collision += 1;
            return LogOutcome::Bypass(BypassReason::HashCollision);
        }
        let session = (server, header.client, header.session);
        // Spill policy (both checks default off): shed load *before* the
        // hard capacity checks so occupancy stays bounded with headroom
        // and no session can starve the others out of the log.
        if self.session_quota > 0
            && self
                .outstanding
                .get(&session)
                .is_some_and(|&n| n >= self.session_quota)
        {
            self.counters.spilled_quota += 1;
            return LogOutcome::Bypass(BypassReason::SessionQuota);
        }
        if self.spill_watermark > 0 && self.entries.len() >= self.spill_watermark {
            self.counters.spilled_watermark += 1;
            return LogOutcome::Bypass(BypassReason::Watermark);
        }
        let bytes = Self::entry_bytes(&payload);
        if self.entries.len() >= self.max_entries || self.used_bytes + bytes > self.max_bytes {
            self.counters.bypass_full += 1;
            return LogOutcome::Bypass(BypassReason::LogFull);
        }
        if self.pm.queued_bytes(now) + self.staged_bytes + bytes > self.queue_bytes {
            self.counters.bypass_queue += 1;
            return LogOutcome::Bypass(BypassReason::QueueFull);
        }
        let hash = header.hash;
        let entry = LogEntry {
            header,
            payload,
            server,
            client_port,
            server_port,
            persisted_at: Time::MAX,
            confirmed: false,
        };
        self.entries.insert(hash, entry);
        self.used_bytes += bytes;
        *self.outstanding.entry(session).or_insert(0) += 1;
        self.counters.logged += 1;
        self.counters.peak_entries = self.counters.peak_entries.max(self.entries.len() as u64);
        self.counters.peak_bytes = self.counters.peak_bytes.max(self.used_bytes);
        self.staged.push(hash);
        self.staged_bytes += bytes;
        LogOutcome::Staged
    }

    /// Rings the doorbell: one PM write (one persist fence), starting at
    /// `now`, covers every staged entry, amortizing the per-write latency
    /// across the window. Returns the common persist-completion instant
    /// and the staged hashes in arrival order, drained from the staging
    /// buffer (the next window stages into the same allocation), or `None`
    /// if nothing was staged. Entries already invalidated while staged
    /// (their server-ACK overtook the doorbell) are left out, but their
    /// queued bytes are still written, so the drain may be empty; one
    /// admitted again after that is drained once, so it is owed one ack.
    pub fn flush_staged(&mut self, now: Time) -> Option<(Time, Drain<'_, u32>)> {
        if self.staged.is_empty() {
            return None;
        }
        let ack_at = self.pm.schedule_write(now, self.staged_bytes as u32);
        // An entry invalidated while staged and admitted again is listed
        // twice: the first listing stamps it, the second finds it stamped.
        self.staged.retain(|h| match self.entries.get_mut(h) {
            Some(e) if e.persisted_at == Time::MAX => {
                e.persisted_at = ack_at;
                true
            }
            _ => false,
        });
        self.staged_bytes = 0;
        Some((ack_at, self.staged.drain(..)))
    }

    /// Entries currently staged behind the doorbell.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// The one durability predicate: `hash` is live and its PM write has
    /// completed by `now`. A staged entry's `persisted_at` is the end of
    /// time until its flush, and an invalidated entry is not live, so
    /// neither is ever durable. Every acknowledgement the device emits for
    /// an entry rests on this being true at the instant it is sent.
    pub fn durable(&self, hash: u32, now: Time) -> bool {
        self.entries
            .get(&hash)
            .is_some_and(|e| e.persisted_at <= now)
    }

    /// Records the chain backup's confirmation of `hash`. Returns true iff
    /// the entry is live and was unconfirmed.
    pub fn confirm(&mut self, hash: u32) -> bool {
        self.entries
            .get_mut(&hash)
            .is_some_and(|e| !std::mem::replace(&mut e.confirmed, true))
    }

    /// Whether a live entry from `(client, session)` to `server` remains
    /// (logged and not yet invalidated by a server-ACK). While true, the
    /// update is durable but possibly unapplied — a read from the same
    /// session forwarded now could overtake it and observe stale state.
    pub fn has_outstanding(&self, server: Addr, client: Addr, session: u16) -> bool {
        self.outstanding.contains_key(&(server, client, session))
    }

    /// Invalidates the entry for `hash` (server-ACK received). Returns the
    /// removed entry.
    pub fn invalidate(&mut self, hash: u32) -> Option<LogEntry> {
        let entry = self.entries.remove(&hash)?;
        self.used_bytes -= Self::entry_bytes(&entry.payload);
        let key = (entry.server, entry.header.client, entry.header.session);
        // Every live entry counted itself in, so the key is present; the
        // last one out drops it.
        if let Entry::Occupied(mut count) = self.outstanding.entry(key) {
            *count.get_mut() -= 1;
            if *count.get() == 0 {
                count.remove();
            }
        }
        self.counters.invalidated += 1;
        Some(entry)
    }

    /// Looks up a logged entry (Retrans service). Updates hit/miss
    /// counters. Returns a borrow — regenerating the redo packet needs no
    /// copy of the entry; its payload is a refcounted [`Bytes`].
    pub fn lookup_for_retrans(&mut self, hash: u32) -> Option<&LogEntry> {
        if self.entries.contains_key(&hash) {
            self.counters.retrans_hits += 1;
            self.entries.get(&hash)
        } else {
            self.counters.retrans_misses += 1;
            None
        }
    }

    /// Peeks an entry without counter updates.
    pub fn peek(&self, hash: u32) -> Option<&LogEntry> {
        self.entries.get(&hash)
    }

    /// A recovery manifest: `(hash, wire_bytes)` of every durable entry
    /// destined to `server`, ordered by `(client, session, seq)` — the
    /// recovery resend order (Section IV-E: the server applies them by
    /// `SeqNum`; deterministic order here keeps simulations reproducible).
    /// Staging a resend only needs the hash and the PM read size, so no
    /// entry is cloned.
    pub fn recovery_manifest(&self, server: Addr, now: Time) -> Vec<(u32, u32)> {
        let mut v: Vec<(Addr, u16, u32, u32, u32)> = self
            .entries
            .values()
            .filter(|e| e.server == server && e.persisted_at <= now)
            .map(|e| {
                let bytes = (crate::protocol::HEADER_LEN + e.payload.len()) as u32;
                (
                    e.header.client,
                    e.header.session,
                    e.header.seq,
                    e.header.hash,
                    bytes,
                )
            })
            .collect();
        v.sort_unstable();
        v.into_iter()
            .map(|(_, _, _, hash, bytes)| (hash, bytes))
            .collect()
    }

    /// The hashes of every live entry, in ascending order. Used by the
    /// device's restart path to re-arm per-entry retry timers (the old
    /// timers died with the pre-crash epoch). Sorted because the arming
    /// order decides the post-restore resend order on the wire, and the
    /// table's iteration order is an accident of the hash function.
    pub fn hashes(&self) -> Vec<u32> {
        let mut hashes: Vec<u32> = self.entries.keys().copied().collect();
        hashes.sort_unstable();
        hashes
    }

    /// Schedules a PM read of `bytes` (recovery resend pacing); returns the
    /// completion instant.
    pub fn schedule_read(&mut self, now: Time, bytes: u32) -> Time {
        self.pm.schedule_read(now, bytes)
    }

    /// Drops every entry and derived index without touching the
    /// invalidation counters. Used when the fabric coordinator fences the
    /// device: its entries are owned by the promoted chain survivor from
    /// that epoch on, not individually acknowledged, so counting them as
    /// invalidations would misreport protocol activity. Returns how many
    /// entries were purged.
    pub fn purge(&mut self) -> usize {
        let purged = self.entries.len();
        self.entries.clear();
        self.outstanding.clear();
        self.staged.clear();
        self.staged_bytes = 0;
        self.used_bytes = 0;
        purged
    }

    /// Power failure: entries whose PM write had not completed by `now`
    /// never reached the persistence domain; the survivors keep every
    /// field, `confirmed` included. Returns how many were lost.
    pub fn crash(&mut self, now: Time) -> usize {
        // Staged entries never rang the doorbell: their `persisted_at` is
        // `Time::MAX`, so the retain below drops them all.
        self.staged.clear();
        self.staged_bytes = 0;
        let before = self.entries.len();
        let mut lost_bytes = 0;
        self.entries.retain(|_, e| {
            let keep = e.persisted_at <= now;
            if !keep {
                lost_bytes += Self::entry_bytes(&e.payload);
            }
            keep
        });
        self.used_bytes -= lost_bytes;
        // Rebuild the outstanding index from the survivors (the entry
        // table is PM; the index is derived state).
        self.outstanding.clear();
        for e in self.entries.values() {
            *self
                .outstanding
                .entry((e.server, e.header.client, e.header.session))
                .or_insert(0) += 1;
        }
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PacketType;
    use pmnet_sim::Dur;

    fn hdr(seq: u32) -> PmnetHeader {
        PmnetHeader::request(PacketType::UpdateReq, 1, seq, Addr(1), Addr(9), 0, 1)
    }

    fn store() -> LogStore {
        LogStore::new(&DeviceConfig::fpga())
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![0xAB; n])
    }

    #[test]
    fn logging_persists_after_pm_write_latency() {
        let mut s = store();
        let out = s.try_log(Time::ZERO, hdr(1), payload(100), Addr(9), 51000, 51000);
        match out {
            LogOutcome::Logged { ack_at } => {
                // 136 B entry: 54 ns transfer + 273 ns latency = 327 ns.
                assert!(ack_at > Time::ZERO + Dur::nanos(300));
                assert!(ack_at < Time::ZERO + Dur::nanos(400));
            }
            other => panic!("expected log, got {other:?}"),
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.counters().logged, 1);
    }

    #[test]
    fn duplicate_retransmission_is_idempotent() {
        let mut s = store();
        let h = hdr(1);
        assert!(matches!(
            s.try_log(Time::ZERO, h, payload(10), Addr(9), 51000, 51000),
            LogOutcome::Logged { .. }
        ));
        assert_eq!(
            s.try_log(Time::ZERO, h, payload(10), Addr(9), 51000, 51000),
            LogOutcome::Duplicate
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn hash_collision_bypasses() {
        let mut s = store();
        let h1 = hdr(1);
        s.try_log(Time::ZERO, h1, payload(10), Addr(9), 51000, 51000);
        // Forge a different request with the same hash.
        let mut h2 = hdr(2);
        h2.hash = h1.hash;
        assert_eq!(
            s.try_log(Time::ZERO, h2, payload(10), Addr(9), 51000, 51000),
            LogOutcome::Bypass(BypassReason::HashCollision)
        );
        assert_eq!(s.counters().bypass_collision, 1);
    }

    #[test]
    fn full_table_bypasses() {
        let mut s = LogStore::new(&DeviceConfig::fpga().with_log_capacity(2, 1 << 20));
        s.try_log(Time::ZERO, hdr(1), payload(10), Addr(9), 51000, 51000);
        s.try_log(Time::ZERO, hdr(2), payload(10), Addr(9), 51000, 51000);
        assert_eq!(
            s.try_log(Time::ZERO, hdr(3), payload(10), Addr(9), 51000, 51000),
            LogOutcome::Bypass(BypassReason::LogFull)
        );
    }

    #[test]
    fn queue_overflow_bypasses_at_line_rate() {
        // Tiny 256 B queue: a burst of large writes backs up the PM.
        let mut s = LogStore::new(&DeviceConfig::fpga().with_log_queue_bytes(2048));
        let mut bypassed = 0;
        for i in 0..20 {
            match s.try_log(Time::ZERO, hdr(i), payload(1000), Addr(9), 51000, 51000) {
                LogOutcome::Bypass(BypassReason::QueueFull) => bypassed += 1,
                LogOutcome::Logged { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(bypassed > 0, "burst must overflow the 2 KiB queue");
        // Later, once the PM drains, logging resumes.
        let later = Time::ZERO + Dur::micros(100);
        assert!(matches!(
            s.try_log(later, hdr(99), payload(1000), Addr(9), 51000, 51000),
            LogOutcome::Logged { .. }
        ));
    }

    #[test]
    fn invalidate_releases_capacity() {
        let mut s = store();
        let h = hdr(1);
        s.try_log(Time::ZERO, h, payload(100), Addr(9), 51000, 51000);
        let used = s.used_bytes();
        assert!(used > 0);
        let e = s.invalidate(h.hash).expect("entry present");
        assert_eq!(e.header.seq, 1);
        assert_eq!(s.used_bytes(), 0);
        assert!(s.invalidate(h.hash).is_none());
    }

    #[test]
    fn confirmation_is_once_per_live_entry_and_survives_a_crash() {
        let mut s = store();
        let h = hdr(1);
        s.try_log(Time::ZERO, h, payload(10), Addr(9), 51000, 51000);
        assert!(!s.peek(h.hash).unwrap().confirmed, "staged unconfirmed");
        assert!(s.confirm(h.hash));
        assert!(!s.confirm(h.hash), "a repeat");
        assert!(!s.confirm(12345), "not live");
        assert_eq!(s.crash(Time::ZERO + Dur::millis(1)), 0);
        assert!(s.peek(h.hash).unwrap().confirmed, "the bit is PM state");
        s.invalidate(h.hash);
        assert!(!s.confirm(h.hash), "invalidated");
    }

    #[test]
    fn retrans_lookup_counts_hits_and_misses() {
        let mut s = store();
        let h = hdr(1);
        s.try_log(Time::ZERO, h, payload(10), Addr(9), 51000, 51000);
        assert!(s.lookup_for_retrans(h.hash).is_some());
        assert!(s.lookup_for_retrans(12345).is_none());
        assert_eq!(s.counters().retrans_hits, 1);
        assert_eq!(s.counters().retrans_misses, 1);
    }

    #[test]
    fn recovery_manifest_returns_recovery_order() {
        let mut s = store();
        for seq in [3u32, 1, 2] {
            s.try_log(Time::ZERO, hdr(seq), payload(10), Addr(9), 51000, 51000);
        }
        // One entry for a different server.
        let other = PmnetHeader::request(PacketType::UpdateReq, 1, 9, Addr(1), Addr(8), 0, 1);
        s.try_log(Time::ZERO, other, payload(10), Addr(8), 51000, 51000);
        let late = Time::ZERO + Dur::millis(1);
        let manifest = s.recovery_manifest(Addr(9), late);
        let seqs: Vec<u32> = manifest
            .iter()
            .map(|&(hash, _)| s.peek(hash).expect("manifest entry live").header.seq)
            .collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        // Wire bytes cover header + payload for the PM read schedule.
        for &(_, bytes) in &manifest {
            assert_eq!(bytes as usize, crate::protocol::HEADER_LEN + 10);
        }
    }

    #[test]
    fn purge_clears_everything_without_counting_invalidations() {
        let mut s = store();
        s.try_log(Time::ZERO, hdr(1), payload(10), Addr(9), 51000, 51000);
        s.try_log(Time::ZERO, hdr(2), payload(10), Addr(9), 51000, 51000);
        assert_eq!(s.purge(), 2);
        assert_eq!(s.len(), 0);
        assert_eq!(s.used_bytes(), 0);
        assert!(!s.has_outstanding(Addr(9), Addr(1), 1));
        assert_eq!(s.counters().invalidated, 0, "purge is not invalidation");
        assert_eq!(s.counters().logged, 2);
    }

    #[test]
    fn staged_entries_persist_together_behind_one_fence() {
        let mut s = store();
        for seq in 0..4 {
            assert_eq!(
                s.try_stage(Time::ZERO, hdr(seq), payload(100), Addr(9), 51000, 51000),
                LogOutcome::Staged
            );
        }
        assert_eq!(s.staged_len(), 4);
        // Not durable yet: a crash before the doorbell loses everything,
        // and a recovery manifest sees nothing.
        assert!(s
            .recovery_manifest(Addr(9), Time::ZERO + Dur::millis(1))
            .is_empty());
        let (ack_at, hashes) = s.flush_staged(Time::ZERO).expect("staged entries");
        let hashes: Vec<u32> = hashes.collect();
        assert_eq!(hashes.len(), 4);
        assert_eq!(s.staged_len(), 0);
        // One write covers 4 x 136 B: transfer scales, the 273 ns write
        // latency is paid once (vs 4x for per-entry writes).
        let mut per_entry = store();
        let mut last = Time::ZERO;
        for seq in 0..4 {
            if let LogOutcome::Logged { ack_at } =
                per_entry.try_log(Time::ZERO, hdr(seq), payload(100), Addr(9), 51000, 51000)
            {
                last = last.max(ack_at);
            }
        }
        // The PM pipeline overlaps write latency with transfer, so the
        // batch completes no later than the last per-entry write — while
        // issuing one write (one fence) instead of four.
        assert!(ack_at <= last, "batched persist must not lose to per-entry");
        assert_eq!(s.pm_mut().counters().writes, 1, "one fence per window");
        assert_eq!(per_entry.pm_mut().counters().writes, 4);
        // After the flush every entry is durable at the same instant.
        for h in &hashes {
            assert_eq!(s.peek(*h).unwrap().persisted_at, ack_at);
        }
        assert_eq!(
            s.recovery_manifest(Addr(9), ack_at).len(),
            4,
            "flushed entries are recoverable"
        );
    }

    #[test]
    fn staged_bytes_count_against_the_queue_bound() {
        let mut s = LogStore::new(&DeviceConfig::fpga().with_log_queue_bytes(2048));
        let mut staged = 0;
        let mut bypassed = 0;
        for i in 0..20 {
            match s.try_stage(Time::ZERO, hdr(i), payload(1000), Addr(9), 51000, 51000) {
                LogOutcome::Staged => staged += 1,
                LogOutcome::Bypass(BypassReason::QueueFull) => bypassed += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(staged, 1, "one 1036 B entry fits the 2 KiB bound");
        assert!(bypassed > 0, "staging must not overcommit the SRAM queue");
    }

    #[test]
    fn crash_before_doorbell_loses_staged_entries() {
        let mut s = store();
        s.try_stage(Time::ZERO, hdr(1), payload(10), Addr(9), 51000, 51000);
        s.try_stage(Time::ZERO, hdr(2), payload(10), Addr(9), 51000, 51000);
        assert_eq!(s.crash(Time::ZERO + Dur::millis(10)), 2);
        assert_eq!(s.staged_len(), 0);
        assert!(s.flush_staged(Time::ZERO + Dur::millis(10)).is_none());
    }

    #[test]
    fn invalidated_while_staged_is_skipped_by_the_flush() {
        let mut s = store();
        let h = hdr(1);
        s.try_stage(Time::ZERO, h, payload(10), Addr(9), 51000, 51000);
        s.try_stage(Time::ZERO, hdr(2), payload(10), Addr(9), 51000, 51000);
        assert!(s.invalidate(h.hash).is_some());
        let hashes: Vec<u32> = s.flush_staged(Time::ZERO).unwrap().1.collect();
        assert_eq!(hashes.len(), 1, "invalidated entry drops out of the batch");
        assert_ne!(hashes[0], h.hash);
    }

    #[test]
    fn readmitted_while_staged_is_flushed_once() {
        // Invalidated while staged, then admitted again before the
        // doorbell: the window lists the hash twice but owes it one ack.
        let mut s = store();
        let h = hdr(1);
        s.try_stage(Time::ZERO, h, payload(10), Addr(9), 51000, 51000);
        assert!(s.invalidate(h.hash).is_some());
        s.try_stage(Time::ZERO, h, payload(10), Addr(9), 51000, 51000);
        let hashes: Vec<u32> = s.flush_staged(Time::ZERO).unwrap().1.collect();
        assert_eq!(hashes, [h.hash]);
    }

    #[test]
    fn try_log_is_a_window_of_one() {
        let h = hdr(1);
        let mut staged = store();
        staged.try_stage(Time::ZERO, h, payload(100), Addr(9), 51000, 51000);
        let (written, _) = staged.flush_staged(Time::ZERO).expect("one staged");
        let mut s = store();
        assert_eq!(
            s.try_log(Time::ZERO, h, payload(100), Addr(9), 51000, 51000),
            LogOutcome::Logged { ack_at: written }
        );
        assert_eq!(s.staged_len(), 0);
        assert_eq!(s.peek(h.hash).unwrap().persisted_at, written);
    }

    #[test]
    fn a_window_emptied_while_staged_still_writes_its_bytes() {
        let mut s = store();
        let h = hdr(1);
        s.try_stage(Time::ZERO, h, payload(10), Addr(9), 51000, 51000);
        assert!(s.invalidate(h.hash).is_some());
        let (_, hashes) = s.flush_staged(Time::ZERO).expect("a window was staged");
        assert_eq!(hashes.count(), 0, "nothing left to acknowledge");
        assert_eq!(s.pm_mut().counters().writes, 1);
        assert_eq!(s.staged_len(), 0);
    }

    #[test]
    fn duplicate_of_a_staged_entry_is_detected() {
        let mut s = store();
        let h = hdr(1);
        assert_eq!(
            s.try_stage(Time::ZERO, h, payload(10), Addr(9), 51000, 51000),
            LogOutcome::Staged
        );
        assert_eq!(
            s.try_stage(Time::ZERO, h, payload(10), Addr(9), 51000, 51000),
            LogOutcome::Duplicate
        );
        assert_eq!(
            s.try_log(Time::ZERO, h, payload(10), Addr(9), 51000, 51000),
            LogOutcome::Duplicate
        );
    }

    #[test]
    fn session_quota_spills_hot_session_without_starving_others() {
        let mut s = LogStore::new(&DeviceConfig::fpga().with_spill_policy(2, 0));
        assert!(matches!(
            s.try_log(Time::ZERO, hdr(1), payload(10), Addr(9), 51000, 51000),
            LogOutcome::Logged { .. }
        ));
        assert!(matches!(
            s.try_log(Time::ZERO, hdr(2), payload(10), Addr(9), 51000, 51000),
            LogOutcome::Logged { .. }
        ));
        // Third live entry from the same session spills.
        assert_eq!(
            s.try_log(Time::ZERO, hdr(3), payload(10), Addr(9), 51000, 51000),
            LogOutcome::Bypass(BypassReason::SessionQuota)
        );
        assert_eq!(s.counters().spilled_quota, 1);
        // A different session is unaffected by the hot one's quota.
        let other = PmnetHeader::request(PacketType::UpdateReq, 2, 1, Addr(1), Addr(9), 0, 1);
        assert!(matches!(
            s.try_log(Time::ZERO, other, payload(10), Addr(9), 51000, 51000),
            LogOutcome::Logged { .. }
        ));
        // Retiring an entry frees quota for the session again.
        let h = hdr(1);
        assert!(s.invalidate(h.hash).is_some());
        assert!(matches!(
            s.try_log(Time::ZERO, hdr(4), payload(10), Addr(9), 51000, 51000),
            LogOutcome::Logged { .. }
        ));
    }

    #[test]
    fn watermark_spills_before_hard_capacity() {
        let mut s = LogStore::new(
            &DeviceConfig::fpga()
                .with_log_capacity(100, 1 << 20)
                .with_spill_policy(0, 2),
        );
        s.try_log(Time::ZERO, hdr(1), payload(10), Addr(9), 51000, 51000);
        s.try_log(Time::ZERO, hdr(2), payload(10), Addr(9), 51000, 51000);
        // Far below the 100-entry capacity, but at the soft watermark.
        assert_eq!(
            s.try_log(Time::ZERO, hdr(3), payload(10), Addr(9), 51000, 51000),
            LogOutcome::Bypass(BypassReason::Watermark)
        );
        assert_eq!(s.counters().spilled_watermark, 1);
        assert_eq!(s.counters().bypass_full, 0, "hard capacity never reached");
        // Occupancy is bounded at the watermark, with headroom below it.
        assert_eq!(s.counters().peak_entries, 2);
    }

    #[test]
    fn peak_occupancy_counters_track_the_high_water_mark() {
        let mut s = store();
        for seq in 1..=3 {
            s.try_log(Time::ZERO, hdr(seq), payload(10), Addr(9), 51000, 51000);
        }
        let peak_bytes = s.used_bytes();
        for seq in 1..=3 {
            s.invalidate(hdr(seq).hash);
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.counters().peak_entries, 3, "peak survives invalidation");
        assert_eq!(s.counters().peak_bytes, peak_bytes);
    }

    #[test]
    fn crash_drops_unpersisted_entries_only() {
        let mut s = store();
        // First write persists at ~330 ns; queue a few more behind it.
        for seq in 0..5 {
            s.try_log(Time::ZERO, hdr(seq), payload(1000), Addr(9), 51000, 51000);
        }
        // The 4 KiB log queue admits the first three 1036 B entries; the
        // burst overflow bypasses the rest (line-rate preservation).
        let logged = s.counters().logged as usize;
        assert_eq!(logged, 3);
        // Crash at 500 ns: the earliest persist completes at ~687 ns
        // (414 ns transfer + 273 ns write latency), so nothing survives.
        let lost = s.crash(Time::from_nanos(500));
        assert_eq!(lost, 3, "no entry had persisted by 500 ns");
        assert_eq!(s.len(), 0);
        assert_eq!(s.used_bytes(), 0);
    }
}
