//! The device's hash-indexed request log (Sections IV-B1/IV-B2).
//!
//! Update packets are logged in the device's PM keyed by the header's
//! CRC-32 `HashVal`. PM writes go through a bounded log queue sized by the
//! Eq. 2 bandwidth-delay product: if the queue is full, the hash collides
//! with a *different* request, or the table/PM capacity is exhausted, the
//! packet is forwarded **without** logging or acknowledging — the client
//! then simply waits for the server as in the baseline (Section IV-B1).
//!
//! One slot per live entry, and two exact-match tables hashed with
//! [`FixedState`](pmnet_sim::hash::FixedState):
//!
//! - the slot table, a dense `Vec` with a LIFO free list. A slot holds an
//!   entry — the state a crash keeps — and, as its DRAM half, the entry's
//!   [`EntryRetry`], so a retry record cannot outlive its entry;
//! - the index, `HashVal` → slot number, one lookup per packet;
//! - the per-session ledger, live-entry counts keyed by
//!   `(server, client, session)` — derived state, rebuilt from the
//!   surviving entries on [`LogStore::crash`]. It answers the read-ordering
//!   guard ([`LogStore::has_outstanding`]) and the spill quota
//!   ([`BypassReason::SessionQuota`]).
//!
//! Slot numbers never leave the store, and nothing is iterated in an
//! order that does: whatever is listed ([`LogStore::hashes`],
//! [`LogStore::recovery_manifest`]) is sorted first, and a scan
//! (`LogStore::any_retry`) answers yes or no.

use std::collections::hash_map::Entry;
use std::vec::Drain;

use bytes::Bytes;
use pmnet_net::{Addr, EventId};
use pmnet_pmem::PmDevice;
use pmnet_sim::hash::FixedMap;
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

/// The DRAM half of a slot: the re-forward of its live entry toward the
/// server (Section IV-B3). The device arms it on admission and on
/// `Restore`; it goes with its entry ([`LogStore::invalidate`] hands it
/// back) and with the power ([`LogStore::crash`] drops every record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRetry {
    /// The armed retry timer; the server ack cancels it.
    pub(crate) timer: EventId,
    /// When the entry was forwarded (or re-armed by `Restore` or a
    /// recovery poll): its server ack samples the server's delay from here.
    pub(crate) since: Time,
    /// Re-forwards fired so far (the backoff exponent).
    pub(crate) fires: u32,
    /// Re-armed by its server's `RecoveryPoll`: the server's recovery
    /// barrier waits for this entry to retire.
    pub(crate) owes_barrier: bool,
}

/// One live entry and the DRAM half of its re-forward.
#[derive(Debug)]
struct Slot {
    entry: LogEntry,
    retry: Option<EntryRetry>,
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

pmnet_telemetry::counters! {
    /// Counters of log activity.
    pub struct LogCounters {
        /// Entries logged.
        logged,
        /// Packets bypassed because the log queue was full.
        bypass_queue,
        /// Packets bypassed on hash collision.
        bypass_collision,
        /// Packets bypassed because the log was full.
        bypass_full,
        /// Entries invalidated by server-ACKs.
        invalidated,
        /// Retransmissions that missed the log (a hit is served, and
        /// counted as the device's `retrans_served`).
        retrans_misses,
        /// Packets spilled by the per-session live-entry quota.
        spilled_quota,
        /// Packets spilled by the soft occupancy watermark.
        spilled_watermark,
        /// Highest live-entry count ever held (occupancy high-water mark).
        peak_entries,
        /// Highest byte occupancy ever held.
        peak_bytes,
    }
}

/// The log store: PM timing model + hash-indexed slot table.
#[derive(Debug)]
pub struct LogStore {
    pm: PmDevice,
    /// One slot per live entry; `None` marks a free one.
    slots: Vec<Option<Slot>>,
    /// Free slot numbers; the last freed is reused first.
    free: Vec<u32>,
    /// The slot of every live entry, by `HashVal`.
    index: FixedMap<u32, u32>,
    max_entries: usize,
    max_bytes: u64,
    queue_bytes: u64,
    used_bytes: u64,
    /// Live-entry counts per `(server, client, session)`. A non-zero
    /// count means a device-acked (durable) update from that session is
    /// still in flight to the server, so a read from the same session
    /// must not overtake it. Doubles as the spill policy's per-session
    /// occupancy ledger. A key is present iff its count is non-zero.
    outstanding: FixedMap<(Addr, Addr, u16), u32>,
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
            slots: Vec::new(),
            free: Vec::new(),
            index: FixedMap::default(),
            max_entries: config.log_capacity_entries,
            max_bytes: config.log_capacity_bytes,
            queue_bytes: config.log_queue_bytes,
            used_bytes: 0,
            outstanding: FixedMap::default(),
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
        self.index.len()
    }

    /// True if the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn slot(&self, hash: u32) -> Option<&Slot> {
        let &i = self.index.get(&hash)?;
        self.slots[i as usize].as_ref()
    }

    fn slot_mut(&mut self, hash: u32) -> Option<&mut Slot> {
        let &i = self.index.get(&hash)?;
        self.slots[i as usize].as_mut()
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
        if let Some(existing) = self.peek(header.hash) {
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
        if self.spill_watermark > 0 && self.len() >= self.spill_watermark {
            self.counters.spilled_watermark += 1;
            return LogOutcome::Bypass(BypassReason::Watermark);
        }
        let bytes = Self::entry_bytes(&payload);
        if self.len() >= self.max_entries || self.used_bytes + bytes > self.max_bytes {
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
        let slot = Some(Slot { entry, retry: None });
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(hash, i);
        self.used_bytes += bytes;
        *self.outstanding.entry(session).or_insert(0) += 1;
        self.counters.logged += 1;
        self.counters.peak_entries = self.counters.peak_entries.max(self.len() as u64);
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
        let (index, slots) = (&self.index, &mut self.slots);
        self.staged.retain(|h| {
            let slot = index.get(h).and_then(|&i| slots[i as usize].as_mut());
            match slot {
                Some(Slot { entry: e, .. }) if e.persisted_at == Time::MAX => {
                    e.persisted_at = ack_at;
                    true
                }
                _ => false,
            }
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
        self.peek(hash).is_some_and(|e| e.persisted_at <= now)
    }

    /// Records the chain backup's confirmation of `hash`. Returns true iff
    /// the entry is live and was unconfirmed.
    pub fn confirm(&mut self, hash: u32) -> bool {
        self.slot_mut(hash)
            .is_some_and(|s| !std::mem::replace(&mut s.entry.confirmed, true))
    }

    /// Whether a live entry from `(client, session)` to `server` remains
    /// (logged and not yet invalidated by a server-ACK). While true, the
    /// update is durable but possibly unapplied — a read from the same
    /// session forwarded now could overtake it and observe stale state.
    pub fn has_outstanding(&self, server: Addr, client: Addr, session: u16) -> bool {
        self.outstanding.contains_key(&(server, client, session))
    }

    /// Invalidates the entry for `hash` (server-ACK received). Returns the
    /// removed entry and its retry record, and frees its slot.
    pub fn invalidate(&mut self, hash: u32) -> Option<(LogEntry, Option<EntryRetry>)> {
        let i = self.index.remove(&hash)?;
        let Slot { entry, retry } = self.slots[i as usize].take()?;
        self.free.push(i);
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
        Some((entry, retry))
    }

    /// The retry record of the live entry `hash`, if one is armed.
    pub(crate) fn retry(&self, hash: u32) -> Option<&EntryRetry> {
        self.slot(hash)?.retry.as_ref()
    }

    /// The live entry `hash` and its retry record, if one is armed.
    pub(crate) fn retrying_mut(&mut self, hash: u32) -> Option<(&LogEntry, &mut EntryRetry)> {
        let Slot { entry, retry } = self.slot_mut(hash)?;
        Some((entry, retry.as_mut()?))
    }

    /// Installs `retry` as the live entry `hash`'s record, replacing any.
    /// Returns false (and keeps nothing) if `hash` is not live.
    pub(crate) fn set_retry(&mut self, hash: u32, retry: EntryRetry) -> bool {
        self.slot_mut(hash).map(|s| s.retry = Some(retry)).is_some()
    }

    /// Whether `f` holds for some live entry with a retry record: a scan
    /// of the slots, so it answers yes or no and lists nothing.
    pub(crate) fn any_retry(&self, mut f: impl FnMut(&LogEntry, &EntryRetry) -> bool) -> bool {
        self.slots
            .iter()
            .flatten()
            .any(|s| s.retry.as_ref().is_some_and(|r| f(&s.entry, r)))
    }

    /// Looks up a logged entry (Retrans service), counting a miss.
    /// Returns a borrow — regenerating the redo packet needs no
    /// copy of the entry; its payload is a refcounted [`Bytes`].
    pub fn lookup_for_retrans(&mut self, hash: u32) -> Option<&LogEntry> {
        match self.index.get(&hash) {
            Some(&i) => self.slots[i as usize].as_ref().map(|s| &s.entry),
            None => {
                self.counters.retrans_misses += 1;
                None
            }
        }
    }

    /// Peeks an entry without counter updates.
    pub fn peek(&self, hash: u32) -> Option<&LogEntry> {
        self.slot(hash).map(|s| &s.entry)
    }

    /// A recovery manifest: `(hash, wire_bytes)` of every durable entry
    /// destined to `server`, ordered by `(client, session, seq)` — the
    /// recovery resend order (Section IV-E: the server applies them by
    /// `SeqNum`; deterministic order here keeps simulations reproducible).
    /// Staging a resend only needs the hash and the PM read size, so no
    /// entry is cloned.
    pub fn recovery_manifest(&self, server: Addr, now: Time) -> Vec<(u32, u32)> {
        let mut v: Vec<(Addr, u16, u32, u32, u32)> = self
            .slots
            .iter()
            .flatten()
            .map(|s| &s.entry)
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
        let mut hashes: Vec<u32> = self.index.keys().copied().collect();
        hashes.sort_unstable();
        hashes
    }

    /// Schedules a PM read of `bytes` (recovery resend pacing); returns the
    /// completion instant.
    pub fn schedule_read(&mut self, now: Time, bytes: u32) -> Time {
        self.pm.schedule_read(now, bytes)
    }

    /// Drops every entry, retry record and derived index without touching the
    /// invalidation counters. Used when the fabric coordinator fences the
    /// device: its entries are owned by the promoted chain survivor from
    /// that epoch on, not individually acknowledged, so counting them as
    /// invalidations would misreport protocol activity. Returns how many
    /// entries were purged.
    pub fn purge(&mut self) -> usize {
        let purged = self.len();
        self.slots.clear();
        self.free.clear();
        self.index.clear();
        self.outstanding.clear();
        self.staged.clear();
        self.staged_bytes = 0;
        self.used_bytes = 0;
        purged
    }

    /// Power failure: entries whose PM write had not completed by `now`
    /// never reached the persistence domain; the survivors keep every
    /// field, `confirmed` included, and every retry record (DRAM) is
    /// lost. Returns how many entries were lost.
    pub fn crash(&mut self, now: Time) -> usize {
        // Staged entries never rang the doorbell: their `persisted_at` is
        // `Time::MAX`, so the sweep below frees them all.
        self.staged.clear();
        self.staged_bytes = 0;
        let before = self.len();
        // The ledger is derived state: recounted from the survivors.
        self.outstanding.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(Slot { entry: e, retry }) = slot else {
                continue;
            };
            if e.persisted_at <= now {
                *retry = None;
                *self
                    .outstanding
                    .entry((e.server, e.header.client, e.header.session))
                    .or_insert(0) += 1;
            } else {
                self.used_bytes -= Self::entry_bytes(&e.payload);
                self.index.remove(&e.header.hash);
                self.free.push(i as u32);
                *slot = None;
            }
        }
        before - self.len()
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
        let (e, _) = s.invalidate(h.hash).expect("entry present");
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
        // A hit is counted by the device that serves it.
        assert!(s.lookup_for_retrans(h.hash).is_some());
        assert_eq!(s.counters().retrans_misses, 0);
        assert!(s.lookup_for_retrans(12345).is_none());
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

    /// A retry record whose timer is a fresh id from `engine`.
    fn record(engine: &mut pmnet_sim::Engine<()>, fires: u32) -> EntryRetry {
        EntryRetry {
            timer: engine.schedule(Time::ZERO, pmnet_sim::NodeId(0), ()),
            since: Time::from_nanos(u64::from(fires)),
            fires,
            owes_barrier: fires % 2 == 1,
        }
    }

    #[test]
    fn a_slot_stays_within_two_cache_lines() {
        // A new per-entry field is a visible decision: it moves these.
        assert_eq!(std::mem::size_of::<LogEntry>(), 64);
        assert_eq!(std::mem::size_of::<EntryRetry>(), 32);
        assert!(std::mem::size_of::<Option<Slot>>() <= 128);
    }

    #[test]
    fn a_freed_slot_is_reused_without_the_old_hash_resolving_to_it() {
        let mut s = store();
        let mut engine = pmnet_sim::Engine::new();
        let (old, new) = (hdr(1), hdr(2));
        s.try_log(Time::ZERO, old, payload(10), Addr(9), 51000, 51000);
        assert!(s.set_retry(old.hash, record(&mut engine, 1)));
        s.invalidate(old.hash);
        s.try_log(Time::ZERO, new, payload(20), Addr(9), 51000, 51000);
        assert_eq!(s.slots.len(), 1, "the freed slot was reused");
        assert!(s.peek(old.hash).is_none());
        assert!(s.retry(old.hash).is_none());
        assert!(!s.set_retry(old.hash, record(&mut engine, 2)));
        assert_eq!(s.peek(new.hash).unwrap().payload.len(), 20);
        assert!(
            s.retry(new.hash).is_none(),
            "the slot's old record went with its entry"
        );
        assert_eq!(s.hashes(), [new.hash]);
    }

    #[test]
    fn invalidate_hands_back_the_retry_record() {
        let mut s = store();
        let mut engine = pmnet_sim::Engine::new();
        let h = hdr(1);
        s.try_log(Time::ZERO, h, payload(10), Addr(9), 51000, 51000);
        let (_, none) = s.invalidate(h.hash).unwrap();
        assert_eq!(none, None, "never armed");
        s.try_log(Time::ZERO, h, payload(10), Addr(9), 51000, 51000);
        let armed = record(&mut engine, 3);
        assert!(s.set_retry(h.hash, armed));
        let (entry, retry) = s.invalidate(h.hash).unwrap();
        assert_eq!((entry.header.seq, retry), (1, Some(armed)));
        assert!(!s.any_retry(|_, _| true));
    }

    #[test]
    fn crash_keeps_durable_entries_and_drops_every_record_and_purge_drops_both() {
        let mut s = store();
        let mut engine = pmnet_sim::Engine::new();
        for seq in 1..=3 {
            s.try_log(Time::ZERO, hdr(seq), payload(10), Addr(9), 51000, 51000);
        }
        s.try_stage(Time::ZERO, hdr(4), payload(10), Addr(9), 51000, 51000);
        for seq in 1..=4 {
            assert!(s.set_retry(hdr(seq).hash, record(&mut engine, seq)));
        }
        assert_eq!(s.crash(Time::ZERO + Dur::millis(1)), 1, "the staged one");
        assert_eq!(s.len(), 3);
        for seq in 1..=3 {
            assert!(s.peek(hdr(seq).hash).is_some());
            assert!(s.retry(hdr(seq).hash).is_none(), "records are DRAM");
        }
        assert!(!s.any_retry(|_, _| true));
        assert!(s.set_retry(hdr(1).hash, record(&mut engine, 5)));
        assert_eq!(s.purge(), 3);
        assert!(s.peek(hdr(1).hash).is_none());
        assert!(!s.any_retry(|_, _| true));
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

    /// The log as two maps keyed by `HashVal` — entries, and the retry
    /// records beside them — with every rule written out plainly: the
    /// reference the slot table must agree with.
    struct Reference {
        config: DeviceConfig,
        pm: PmDevice,
        entries: FixedMap<u32, LogEntry>,
        retries: FixedMap<u32, EntryRetry>,
        staged: Vec<u32>,
        staged_bytes: u64,
        used_bytes: u64,
        counters: LogCounters,
    }

    impl Reference {
        fn new(config: DeviceConfig) -> Reference {
            Reference {
                config,
                pm: PmDevice::new(config.pm),
                entries: FixedMap::default(),
                retries: FixedMap::default(),
                staged: Vec::new(),
                staged_bytes: 0,
                used_bytes: 0,
                counters: LogCounters::default(),
            }
        }

        fn live(&self, server: Addr, client: Addr, session: u16) -> usize {
            let key = (server, client, session);
            let of = |e: &&LogEntry| (e.server, e.header.client, e.header.session) == key;
            self.entries.values().filter(of).count()
        }

        fn try_stage(
            &mut self,
            now: Time,
            header: PmnetHeader,
            payload: Bytes,
            server: Addr,
        ) -> LogOutcome {
            if let Some(e) = self.entries.get(&header.hash) {
                let id = |h: &PmnetHeader| (h.client, h.session, h.seq);
                if id(&e.header) == id(&header) {
                    return LogOutcome::Duplicate;
                }
                self.counters.bypass_collision += 1;
                return LogOutcome::Bypass(BypassReason::HashCollision);
            }
            let c = &self.config;
            let quota = c.log_session_quota as usize;
            if quota > 0 && self.live(server, header.client, header.session) >= quota {
                self.counters.spilled_quota += 1;
                return LogOutcome::Bypass(BypassReason::SessionQuota);
            }
            if c.log_spill_watermark > 0 && self.entries.len() >= c.log_spill_watermark {
                self.counters.spilled_watermark += 1;
                return LogOutcome::Bypass(BypassReason::Watermark);
            }
            let bytes = LogStore::entry_bytes(&payload);
            if self.entries.len() >= c.log_capacity_entries
                || self.used_bytes + bytes > c.log_capacity_bytes
            {
                self.counters.bypass_full += 1;
                return LogOutcome::Bypass(BypassReason::LogFull);
            }
            if self.pm.queued_bytes(now) + self.staged_bytes + bytes > c.log_queue_bytes {
                self.counters.bypass_queue += 1;
                return LogOutcome::Bypass(BypassReason::QueueFull);
            }
            let entry = LogEntry {
                header,
                payload,
                server,
                client_port: 51000,
                server_port: 51000,
                persisted_at: Time::MAX,
                confirmed: false,
            };
            self.entries.insert(header.hash, entry);
            self.used_bytes += bytes;
            self.counters.logged += 1;
            let peak = &mut self.counters;
            peak.peak_entries = peak.peak_entries.max(self.entries.len() as u64);
            peak.peak_bytes = peak.peak_bytes.max(self.used_bytes);
            self.staged.push(header.hash);
            self.staged_bytes += bytes;
            LogOutcome::Staged
        }

        fn flush_staged(&mut self, now: Time) -> Option<(Time, Vec<u32>)> {
            if self.staged.is_empty() {
                return None;
            }
            let ack_at = self.pm.schedule_write(now, self.staged_bytes as u32);
            let mut drained = Vec::new();
            for h in std::mem::take(&mut self.staged) {
                if let Some(e) = self.entries.get_mut(&h) {
                    if e.persisted_at == Time::MAX {
                        e.persisted_at = ack_at;
                        drained.push(h);
                    }
                }
            }
            self.staged_bytes = 0;
            Some((ack_at, drained))
        }

        fn invalidate(&mut self, hash: u32) -> Option<(LogEntry, Option<EntryRetry>)> {
            let entry = self.entries.remove(&hash)?;
            self.used_bytes -= LogStore::entry_bytes(&entry.payload);
            self.counters.invalidated += 1;
            Some((entry, self.retries.remove(&hash)))
        }

        fn confirm(&mut self, hash: u32) -> bool {
            self.entries
                .get_mut(&hash)
                .is_some_and(|e| !std::mem::replace(&mut e.confirmed, true))
        }

        fn lookup_for_retrans(&mut self, hash: u32) -> Option<&LogEntry> {
            let hit = self.entries.get(&hash);
            if hit.is_none() {
                self.counters.retrans_misses += 1;
            }
            hit
        }

        fn set_retry(&mut self, hash: u32, retry: EntryRetry) -> bool {
            let live = self.entries.contains_key(&hash);
            if live {
                self.retries.insert(hash, retry);
            }
            live
        }

        fn crash(&mut self, now: Time) -> usize {
            self.staged.clear();
            self.staged_bytes = 0;
            self.retries.clear();
            let lost: Vec<u32> = self
                .entries
                .iter()
                .filter(|(_, e)| e.persisted_at > now)
                .map(|(&h, _)| h)
                .collect();
            for h in &lost {
                let e = self.entries.remove(h).unwrap();
                self.used_bytes -= LogStore::entry_bytes(&e.payload);
            }
            lost.len()
        }

        fn purge(&mut self) -> usize {
            let purged = self.entries.len();
            self.entries.clear();
            self.retries.clear();
            self.staged.clear();
            self.staged_bytes = 0;
            self.used_bytes = 0;
            purged
        }

        fn recovery_manifest(&self, server: Addr, now: Time) -> Vec<(u32, u32)> {
            let mut v: Vec<_> = self
                .entries
                .values()
                .filter(|e| e.server == server && e.persisted_at <= now)
                .map(|e| {
                    let h = e.header;
                    let bytes = (crate::protocol::HEADER_LEN + e.payload.len()) as u32;
                    (h.client, h.session, h.seq, h.hash, bytes)
                })
                .collect();
            v.sort_unstable();
            v.into_iter()
                .map(|(.., hash, bytes)| (hash, bytes))
                .collect()
        }
    }

    /// Every field of an entry, for comparing two of them.
    type Fields<'a> = (PmnetHeader, &'a [u8], Addr, u16, u16, Time, bool);

    fn fields(e: &LogEntry) -> Fields<'_> {
        let ports = (e.client_port, e.server_port);
        (
            e.header,
            &e.payload[..],
            e.server,
            ports.0,
            ports.1,
            e.persisted_at,
            e.confirmed,
        )
    }

    /// The `id`-th request of a small universe — two servers, two clients,
    /// two sessions, four sequence numbers — whose hash is forged into
    /// `0..hashes`, so distinct requests collide and a repeated `id` is a
    /// retransmission.
    fn request(id: u32, hashes: u32) -> (PmnetHeader, Addr) {
        let (server, client, session, seq) = (id % 2, id / 2 % 2, id / 4 % 2, id / 8 % 4);
        let mut h = PmnetHeader::request(
            PacketType::UpdateReq,
            session as u16,
            seq,
            Addr(1 + client),
            Addr(8 + server),
            0,
            1,
        );
        h.hash = id.wrapping_mul(0x9E37_79B9) % hashes;
        (h, Addr(8 + server))
    }

    /// Every query of `s` agrees with `r` on the universe of `hashes`.
    fn agree(s: &LogStore, r: &Reference, hashes: u32, now: Time) {
        assert_eq!(s.len(), r.entries.len());
        assert_eq!(s.is_empty(), r.entries.is_empty());
        assert_eq!(s.used_bytes(), r.used_bytes);
        assert_eq!(s.staged_len(), r.staged.len());
        assert_eq!(s.counters(), r.counters);
        let mut listed: Vec<u32> = r.entries.keys().copied().collect();
        listed.sort_unstable();
        assert_eq!(s.hashes(), listed);
        for hash in 0..hashes {
            assert_eq!(s.peek(hash).map(fields), r.entries.get(&hash).map(fields));
            assert_eq!(
                s.durable(hash, now),
                r.entries.get(&hash).is_some_and(|e| e.persisted_at <= now)
            );
            assert_eq!(s.retry(hash), r.retries.get(&hash), "record of {hash}");
            let scanned = s.any_retry(|e, _| e.header.hash == hash);
            assert_eq!(
                scanned,
                r.retries.contains_key(&hash),
                "slot scan for {hash}"
            );
        }
        for server in [Addr(8), Addr(9)] {
            assert_eq!(
                s.recovery_manifest(server, now),
                r.recovery_manifest(server, now)
            );
            for client in [Addr(1), Addr(2)] {
                for session in [0, 1] {
                    let live = r.live(server, client, session) > 0;
                    assert_eq!(s.has_outstanding(server, client, session), live);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn the_slot_table_agrees_with_two_hash_maps(
            hashes in 2u32..24,
            capacity in 1usize..12,
            (quota, watermark) in (0u32..4, 0usize..10),
            steps in proptest::collection::vec((0u8..16, 0u32..64, 0u64..4_000), 1..160),
        ) {
            let config = DeviceConfig::fpga()
                .with_log_capacity(capacity, 1 << 20)
                .with_spill_policy(quota, watermark);
            let (mut s, mut r) = (LogStore::new(&config), Reference::new(config));
            let mut engine = pmnet_sim::Engine::new();
            let mut now = Time::ZERO;
            for (op, id, arg) in steps {
                let hash = id % hashes;
                match op {
                    0..=4 => {
                        let (h, server) = request(id % 32, hashes);
                        let payload = Bytes::from(vec![id as u8; 1 + arg as usize % 1_500]);
                        let got = s.try_stage(now, h, payload.clone(), server, 51000, 51000);
                        assert_eq!(got, r.try_stage(now, h, payload, server));
                    }
                    5 | 6 => {
                        let got = s.flush_staged(now).map(|(at, d)| (at, d.collect::<Vec<_>>()));
                        assert_eq!(got, r.flush_staged(now));
                    }
                    7 | 8 => {
                        let listed = s.hashes();
                        let hash = listed.get(id as usize % listed.len().max(1)).copied().unwrap_or(hash);
                        let got = s.invalidate(hash).map(|(e, retry)| (e.header, retry));
                        assert_eq!(got, r.invalidate(hash).map(|(e, retry)| (e.header, retry)));
                    }
                    9 => assert_eq!(s.confirm(hash), r.confirm(hash)),
                    10 | 11 => {
                        let retry = record(&mut engine, arg as u32);
                        assert_eq!(s.set_retry(hash, retry), r.set_retry(hash, retry));
                    }
                    12 => {
                        let got = s.lookup_for_retrans(hash).map(fields);
                        assert_eq!(got, r.lookup_for_retrans(hash).map(fields));
                    }
                    13 => assert_eq!(s.crash(now), r.crash(now)),
                    14 if arg % 4 == 0 => assert_eq!(s.purge(), r.purge()),
                    _ => now += Dur::nanos(arg),
                }
                agree(&s, &r, hashes, now);
            }
        }
    }
}
