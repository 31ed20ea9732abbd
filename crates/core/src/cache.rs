//! The in-device read cache built on top of PMNet's persistent log
//! (Section IV-D, Figure 11).
//!
//! Each entry moves through four states:
//!
//! * **Invalid** — no entry: an entry that drains to Invalid is dropped,
//!   since an absent key behaves exactly like an empty one;
//! * **Pending** — the value comes from an update logged by PMNet that the
//!   server has not yet acknowledged (serves reads once the value is
//!   whole: the fragments of a multi-fragment update may still be
//!   arriving);
//! * **Persisted** — the server has acknowledged the update, or the value
//!   was filled from a server read response (serves reads);
//! * **Stale** — a second in-flight update (or an in-flight delete, or an
//!   update the log bypassed) exists for the key; the cached value may not
//!   match what the server will end up with, so reads miss until the
//!   in-flight updates drain.
//!
//! Transitions T1–T6 follow Figure 11 exactly; the unit tests enumerate
//! them.
//!
//! **Whole values only.** A value is served only once the device has seen
//! all of it: a single-fragment `Set` fills as it is logged; the first
//! fragment of a multi-fragment `Set` counts its key in flight with no
//! value ([`ReadCache::on_logged_head`]), and the value lands when the last
//! of the update's fragments is logged ([`ReadCache::on_logged_whole`]). A
//! value is kept as its parts — views of the buffers the fragments arrived
//! in — so a fill copies nothing and a hit is encoded from the parts.
//!
//! **Recency eviction.** Only Persisted entries are evictable (Pending and
//! Stale ones track in-flight log state), and they sit on one intrusive
//! list in order of last use: becoming Persisted (a server ack, a read
//! reply's fill) or being hit moves an entry to the front, and room is
//! made by evicting the back. With nothing evictable, an update's new key
//! is admitted over capacity as Stale, so every in-flight count has a
//! slot; over capacity, each entry turning Persisted evicts the back.
//! Every operation is O(1) and the order is a function of the calls alone.

use bytes::Bytes;
use pmnet_sim::hash::FixedMap;

use crate::kvproto::KvFrame;

/// The state of a cache entry (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// No entry.
    Invalid,
    /// Logged by PMNet, not yet persisted by the server; serves reads
    /// once its value is whole.
    Pending,
    /// Persisted on the server; serves reads.
    Persisted,
    /// Multiple in-flight updates; does not serve reads.
    Stale,
}

/// The end of the recency list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot {
    /// The key, copied out of the frame it arrived in (a view would keep
    /// that whole frame alive for as long as the entry lives, whatever
    /// value replaced it); empty while the slot is free.
    key: Bytes,
    state: CacheState,
    /// The value in order, as views of the buffers its parts arrived in
    /// (the logged fragments, the server's read reply): filling and serving
    /// them are refcount bumps. Empty while Stale and while a Pending
    /// value is still arriving. The `Vec` stays with the slot, so a reused
    /// slot fills without allocating.
    parts: Vec<Bytes>,
    /// Pending only: the value's fragments are still being logged, and
    /// this is the hash of the update's first fragment — the one update
    /// whose completion may fill the entry.
    arriving: Option<u32>,
    /// Updates to this key logged but not yet server-acknowledged. The
    /// paper's Figure 11 is a pure four-state machine; without this
    /// counter the sequence update→update→server-ACK lands in Invalid
    /// with one update still in flight, and a racing read response could
    /// then install a stale value (found by the cache property tests —
    /// see DESIGN.md §7).
    inflight: u32,
    /// Recency links (toward the most and the least recently used), set
    /// while the entry is Persisted, the one evictable state.
    newer: u32,
    older: u32,
}

/// What a logged update brings its key.
#[derive(Clone, Copy)]
enum Logged<'a> {
    /// The whole value, in one part.
    Whole(&'a Bytes),
    /// Nothing yet: the value arrives with the update whose first fragment
    /// hashes to this.
    Arriving(u32),
    /// Nothing to serve: a `Del`, or an update the log bypassed.
    NoValue,
}

/// Cache activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Reads served from the cache.
    pub hits: u64,
    /// Reads that had to go to the server.
    pub misses: u64,
    /// Misses on a Stale entry.
    pub stale_misses: u64,
    /// Misses on a Pending entry whose value was still arriving.
    pub arriving_misses: u64,
    /// Values installed or refreshed by updates.
    pub update_fills: u64,
    /// Values installed from server read responses.
    pub read_fills: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
}

/// A fixed-capacity key-value read cache with the Figure 11 state machine.
#[derive(Debug)]
pub struct ReadCache {
    /// Entries, each found through `index`; a freed slot goes on `free`.
    slots: Vec<Slot>,
    free: Vec<u32>,
    index: FixedMap<Bytes, u32>,
    /// The most and the least recently used Persisted entries.
    newest: u32,
    oldest: u32,
    capacity: usize,
    counters: CacheCounters,
}

impl ReadCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use `cache_entries: 0` in the device
    /// config to disable caching instead).
    pub fn new(capacity: usize) -> ReadCache {
        assert!(capacity > 0, "zero-capacity cache");
        ReadCache {
            slots: Vec::new(),
            free: Vec::new(),
            index: FixedMap::default(),
            newest: NIL,
            oldest: NIL,
            capacity,
            counters: CacheCounters::default(),
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// The state of `key`'s entry ([`CacheState::Invalid`] if absent).
    pub fn state(&self, key: &[u8]) -> CacheState {
        self.index
            .get(key)
            .map_or(CacheState::Invalid, |&s| self.slots[s as usize].state)
    }

    fn unlink(&mut self, s: u32) {
        let Slot { newer, older, .. } = self.slots[s as usize];
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    fn link_newest(&mut self, s: u32) {
        let slot = &mut self.slots[s as usize];
        slot.newer = NIL;
        slot.older = self.newest;
        match self.newest {
            NIL => self.oldest = s,
            n => self.slots[n as usize].newer = s,
        }
        self.newest = s;
    }

    /// Moves slot `s` to `state`, keeping the recency list to exactly the
    /// Persisted entries; an entry becoming Persisted is the most recent,
    /// and over capacity it evicts the least recent (perhaps itself).
    fn set_state(&mut self, s: u32, state: CacheState) {
        let was = std::mem::replace(&mut self.slots[s as usize].state, state);
        match (was == CacheState::Persisted, state == CacheState::Persisted) {
            (true, false) => self.unlink(s),
            (false, true) => {
                self.link_newest(s);
                if self.index.len() > self.capacity {
                    self.make_room();
                }
            }
            _ => {}
        }
    }

    /// Drops slot `s`'s entry: its key reads Invalid from now on.
    fn remove(&mut self, s: u32) {
        if self.slots[s as usize].state == CacheState::Persisted {
            self.unlink(s);
        }
        let slot = &mut self.slots[s as usize];
        self.index.remove(&slot.key);
        slot.key = Bytes::new();
        slot.parts.clear();
        slot.arriving = None;
        self.free.push(s);
    }

    /// Makes room for a new key by evicting the least recently used
    /// Persisted entry. Pending/Stale entries track in-flight log state
    /// and are never evicted. Returns false if no room could be made.
    fn make_room(&mut self) -> bool {
        if self.index.len() < self.capacity {
            return true;
        }
        if self.oldest == NIL {
            return false;
        }
        self.remove(self.oldest);
        self.counters.evictions += 1;
        true
    }

    /// Installs a new entry for `key`, no update counted.
    fn admit(&mut self, key: &[u8], state: CacheState) -> u32 {
        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot {
                    key: Bytes::new(),
                    state: CacheState::Invalid,
                    parts: Vec::new(),
                    arriving: None,
                    inflight: 0,
                    newer: NIL,
                    older: NIL,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let key = Bytes::copy_from_slice(key);
        let slot = &mut self.slots[s as usize];
        slot.key = key.clone();
        slot.state = CacheState::Invalid;
        slot.inflight = 0;
        self.index.insert(key, s);
        self.set_state(s, state);
        s
    }

    /// An update request for `key` was logged (T1/T3/T4/T5). Copies
    /// `key` and `value` in; the device shares the logged frame instead
    /// ([`ReadCache::on_logged_frame`]).
    pub fn on_update(&mut self, key: &[u8], value: &[u8]) {
        self.on_logged(key, Logged::Whole(&Bytes::copy_from_slice(value)));
    }

    /// A `Del` for `key` was logged. It is an update with no value to
    /// serve, so the entry goes Stale (T4/T5) until every in-flight update
    /// to the key is acknowledged (T6), and a read meanwhile misses.
    pub fn on_delete(&mut self, key: &[u8]) {
        self.on_logged(key, Logged::NoValue);
    }

    fn on_logged(&mut self, key: &[u8], mut update: Logged<'_>) {
        let s = match self.index.get(key) {
            Some(&s) => s,
            None => {
                // With no room the key is admitted over capacity all the
                // same, with nothing to serve (Stale below).
                if !self.make_room() {
                    update = Logged::NoValue;
                }
                self.admit(key, CacheState::Invalid)
            }
        };
        let slot = &mut self.slots[s as usize];
        slot.inflight += 1;
        slot.parts.clear();
        slot.arriving = None;
        // T1/T3: the only update in flight (an entry with none is
        // Persisted, or new) brings the latest value, and the entry is
        // Pending. T4/T5: a second update in flight, or one with no value
        // to serve, makes or keeps it Stale.
        let state = match update {
            Logged::Whole(value) if slot.inflight == 1 => {
                slot.parts.push(value.clone());
                self.counters.update_fills += 1;
                CacheState::Pending
            }
            Logged::Arriving(head) if slot.inflight == 1 => {
                slot.arriving = Some(head);
                CacheState::Pending
            }
            _ => CacheState::Stale,
        };
        self.set_state(s, state);
    }

    /// The device logged the single-fragment update `frame`: a `Set` fills
    /// its key, a `Del` stales it, and any other frame leaves the cache
    /// alone.
    pub fn on_logged_frame(&mut self, frame: &Bytes) {
        match KvFrame::decode(frame) {
            Some(KvFrame::Set { key, value }) => self.on_logged(&key, Logged::Whole(&value)),
            Some(KvFrame::Del { key }) => self.on_logged(&key, Logged::NoValue),
            _ => {}
        }
    }

    /// The device logged `frame`, the first fragment (hashing to `head`)
    /// of a multi-fragment update: the key counts one more update in
    /// flight, with no value to serve until the rest is logged
    /// ([`ReadCache::on_logged_whole`]).
    pub fn on_logged_head(&mut self, frame: &Bytes, head: u32) {
        match KvFrame::decode(frame) {
            Some(KvFrame::Set { key, .. }) => self.on_logged(&key, Logged::Arriving(head)),
            Some(KvFrame::Del { key }) => self.on_logged(&key, Logged::NoValue),
            _ => {}
        }
    }

    /// Every fragment of the update whose first fragment `first` hashes to
    /// `head` is logged, `rest` being the others' payloads in order: if the
    /// key's entry still awaits exactly this update, its value is now
    /// whole — `first`'s value followed by `rest` — and serves reads.
    pub fn on_logged_whole<'a>(
        &mut self,
        head: u32,
        first: &Bytes,
        rest: impl Iterator<Item = &'a Bytes>,
    ) {
        let Some(KvFrame::Set { key, value }) = KvFrame::decode(first) else {
            return;
        };
        let Some(&s) = self.index.get(&key[..]) else {
            return;
        };
        let slot = &mut self.slots[s as usize];
        if slot.arriving != Some(head) {
            return;
        }
        slot.arriving = None;
        slot.parts.push(value);
        slot.parts.extend(rest.cloned());
        self.counters.update_fills += 1;
    }

    /// The log bypassed the update `frame` (its first fragment), or it
    /// survived a power loss: the server will apply it, so its key counts
    /// one more update in flight, with no value to serve. Returns a copy of
    /// the key, which the server's ack for the fragment settles
    /// ([`ReadCache::on_server_ack`]); `None` if the frame updates no key.
    pub fn on_bypassed_frame(&mut self, frame: &Bytes) -> Option<Bytes> {
        match KvFrame::decode(frame)? {
            KvFrame::Set { key, .. } | KvFrame::Del { key } => {
                self.on_logged(&key, Logged::NoValue);
                Some(Bytes::copy_from_slice(&key))
            }
            _ => None,
        }
    }

    /// The server acknowledged the update whose first fragment is `frame`,
    /// which [`ReadCache::on_logged_frame`] or
    /// [`ReadCache::on_logged_head`] counted in flight.
    pub fn on_acked_frame(&mut self, frame: &Bytes) {
        if let Some(KvFrame::Set { key, .. } | KvFrame::Del { key }) = KvFrame::decode(frame) {
            self.on_server_ack(&key);
        }
    }

    /// A server-ACK for an update to `key` arrived (T2/T6).
    pub fn on_server_ack(&mut self, key: &[u8]) {
        let Some(&s) = self.index.get(key) else {
            return;
        };
        let slot = &mut self.slots[s as usize];
        slot.inflight = slot.inflight.saturating_sub(1);
        match slot.state {
            // T2: the pending value is now on the server — unless it never
            // arrived whole, in which case there is nothing to keep.
            CacheState::Pending if slot.arriving.is_none() => {
                self.set_state(s, CacheState::Persisted);
            }
            // T6: the entry stays unusable until *every* in-flight update
            // has been acknowledged (counter refinement of Figure 11 — see
            // the struct comment), then empties.
            CacheState::Pending | CacheState::Stale if slot.inflight == 0 => self.remove(s),
            _ => {}
        }
    }

    /// A server read response for `key` passed through the device; fill
    /// the cache (only if no in-flight update would make it unsafe).
    /// Copies `value` in; see [`ReadCache::on_read_response_view`].
    pub fn on_read_response(&mut self, key: &[u8], value: &[u8]) {
        self.on_read_response_view(key, &Bytes::copy_from_slice(value));
    }

    /// [`ReadCache::on_read_response`] keeping a view of `value`'s buffer
    /// rather than a copy of its bytes.
    pub fn on_read_response_view(&mut self, key: &[u8], value: &Bytes) {
        // An entry already holds fresher-or-equal data (Pending,
        // Persisted), or must not be resurrected by a read that raced an
        // in-flight update (Stale, or Pending with its value arriving).
        if !self.index.contains_key(key) && self.make_room() {
            let s = self.admit(key, CacheState::Persisted);
            self.slots[s as usize].parts.push(value.clone());
            self.counters.read_fills += 1;
        }
    }

    /// Attempts to serve a read. Hits only in the Persisted state and in
    /// the Pending state once the value is whole; a hit is the value's
    /// parts in order, views of the filled buffers, not a copy, and makes
    /// the entry the most recently used.
    pub fn lookup(&mut self, key: &[u8]) -> Option<&[Bytes]> {
        let Some(&s) = self.index.get(key) else {
            self.counters.misses += 1;
            return None;
        };
        let slot = &self.slots[s as usize];
        match slot.state {
            CacheState::Pending if slot.arriving.is_some() => {
                self.counters.misses += 1;
                self.counters.arriving_misses += 1;
                return None;
            }
            CacheState::Stale | CacheState::Invalid => {
                self.counters.misses += 1;
                self.counters.stale_misses += 1;
                return None;
            }
            CacheState::Persisted => {
                self.unlink(s);
                self.link_newest(s);
            }
            CacheState::Pending => {}
        }
        self.counters.hits += 1;
        Some(&self.slots[s as usize].parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hit's value, its parts joined.
    fn get(c: &mut ReadCache, key: &[u8]) -> Option<Vec<u8>> {
        c.lookup(key).map(|parts| parts.concat())
    }

    #[test]
    fn t1_update_makes_pending_and_serves_reads() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        assert_eq!(c.state(b"k"), CacheState::Pending);
        assert_eq!(get(&mut c, b"k").as_deref(), Some(&b"v1"[..]));
    }

    #[test]
    fn t2_server_ack_persists_pending() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        c.on_server_ack(b"k");
        assert_eq!(c.state(b"k"), CacheState::Persisted);
        assert_eq!(get(&mut c, b"k").as_deref(), Some(&b"v1"[..]));
    }

    #[test]
    fn t3_update_after_persisted_goes_back_to_pending() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        c.on_server_ack(b"k");
        c.on_update(b"k", b"v2");
        assert_eq!(c.state(b"k"), CacheState::Pending);
        assert_eq!(get(&mut c, b"k").as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn t4_t5_concurrent_updates_make_and_keep_stale() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        c.on_update(b"k", b"v2"); // T4
        assert_eq!(c.state(b"k"), CacheState::Stale);
        assert_eq!(
            get(&mut c, b"k"),
            None,
            "stale entries must not serve reads"
        );
        assert_eq!(c.counters().stale_misses, 1);
        c.on_update(b"k", b"v3"); // T5
        assert_eq!(c.state(b"k"), CacheState::Stale);
    }

    #[test]
    fn t6_server_ack_on_stale_invalidates() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        c.on_update(b"k", b"v2");
        c.on_server_ack(b"k"); // first ack: one update still in flight
        assert_eq!(c.state(b"k"), CacheState::Stale);
        c.on_server_ack(b"k"); // T6: all in-flight updates drained
        assert_eq!(c.state(b"k"), CacheState::Invalid);
        assert_eq!(get(&mut c, b"k"), None);
        // A later update restarts the cycle (T1 from Invalid).
        c.on_update(b"k", b"v3");
        assert_eq!(c.state(b"k"), CacheState::Pending);
        assert_eq!(get(&mut c, b"k").as_deref(), Some(&b"v3"[..]));
    }

    #[test]
    fn a_delete_serves_nothing_until_it_drains() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        c.on_server_ack(b"k");
        c.on_delete(b"k");
        assert_eq!(c.state(b"k"), CacheState::Stale);
        assert_eq!(get(&mut c, b"k"), None, "deleted value served");
        c.on_read_response(b"k", b"v1"); // raced the delete
        c.on_server_ack(b"k");
        assert_eq!(c.state(b"k"), CacheState::Invalid);
        // A delete of an uncached key blocks racing fills the same way.
        c.on_delete(b"j");
        c.on_read_response(b"j", b"old");
        assert_eq!(get(&mut c, b"j"), None);
    }

    #[test]
    fn read_responses_fill_misses_but_never_override_fresher_state() {
        let mut c = ReadCache::new(16);
        c.on_read_response(b"r", b"from-server");
        assert_eq!(c.state(b"r"), CacheState::Persisted);
        // A pending update is fresher than any read response.
        c.on_update(b"k", b"new");
        c.on_read_response(b"k", b"old");
        assert_eq!(get(&mut c, b"k").as_deref(), Some(&b"new"[..]));
        // A stale entry must not be resurrected by a racing read.
        c.on_update(b"k", b"newer");
        c.on_read_response(b"k", b"racing");
        assert_eq!(c.state(b"k"), CacheState::Stale);
    }

    #[test]
    fn racing_read_cannot_fill_while_updates_are_in_flight() {
        // The sequence the property tests found against the pure Fig. 11
        // machine: update, update, one ack, then a read response carrying
        // pre-update data. The counter keeps the entry unusable.
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        c.on_update(b"k", b"v1");
        c.on_server_ack(b"k");
        c.on_read_response(b"k", b"ancient");
        assert_eq!(get(&mut c, b"k"), None, "stale fill served");
        // Once the second ack drains, fills become safe again.
        c.on_server_ack(b"k");
        c.on_read_response(b"k", b"fresh");
        assert_eq!(get(&mut c, b"k").as_deref(), Some(&b"fresh"[..]));
    }

    #[test]
    fn refused_admission_still_blocks_racing_read_fills() {
        // Capacity 1: key A holds the only slot as Pending, so B's update
        // is refused admission — but it is still in flight at the device.
        let mut c = ReadCache::new(1);
        c.on_update(b"a", b"a1");
        c.on_update(b"b", b"b1"); // refused: no evictable slot
        c.on_server_ack(b"a"); // A Persisted -> evictable
                               // A read response for B racing its in-flight update must not fill
                               // (it may carry the server's pre-update value).
        c.on_read_response(b"b", b"ancient");
        assert_eq!(get(&mut c, b"b"), None, "pre-update snapshot served");
        // Once B's update is acknowledged, fills become safe again.
        c.on_server_ack(b"b");
        c.on_read_response(b"b", b"b1");
        assert_eq!(get(&mut c, b"b").as_deref(), Some(&b"b1"[..]));
    }

    #[test]
    fn late_admission_inherits_refused_inflight_counts() {
        let mut c = ReadCache::new(1);
        c.on_update(b"a", b"a1");
        c.on_update(b"b", b"b1"); // refused
        c.on_server_ack(b"a"); // room opens
        c.on_update(b"b", b"b2"); // admitted with an older update in flight
        assert_eq!(c.state(b"b"), CacheState::Stale);
        assert_eq!(get(&mut c, b"b"), None);
        c.on_server_ack(b"b");
        assert_eq!(
            c.state(b"b"),
            CacheState::Stale,
            "one update still in flight"
        );
        c.on_server_ack(b"b");
        assert_eq!(c.state(b"b"), CacheState::Invalid);
    }

    #[test]
    fn capacity_evicts_only_safe_states() {
        let mut c = ReadCache::new(2);
        c.on_update(b"a", b"1"); // Pending — unevictable
        c.on_update(b"b", b"2"); // Pending — unevictable
        c.on_update(b"c", b"3"); // no room: admitted over capacity, Stale
        assert_eq!(c.state(b"c"), CacheState::Stale);
        assert_eq!(c.len(), 3);
        // Persisting one over capacity evicts it at once. The next update
        // to C finds the first still in flight, so the entry stays Stale
        // until both drain.
        c.on_server_ack(b"a");
        c.on_update(b"c", b"3");
        assert_eq!(c.state(b"c"), CacheState::Stale);
        assert_eq!(c.counters().evictions, 1);
        assert_eq!(c.state(b"a"), CacheState::Invalid); // evicted
        c.on_server_ack(b"c");
        c.on_server_ack(b"c");
        assert_eq!(c.state(b"c"), CacheState::Invalid);
    }

    #[test]
    fn a_hot_key_survives_a_run_of_cold_fills_at_capacity() {
        // Four slots; "a" is the byte-smallest key, which key-order
        // eviction would pick first. Read it between every cold fill:
        // recency keeps it, and the cold keys evict each other.
        let mut c = ReadCache::new(4);
        for key in [&b"a"[..], b"b", b"c", b"d"] {
            c.on_read_response(key, b"v");
        }
        for cold in 0..32u8 {
            assert_eq!(
                get(&mut c, b"a").as_deref(),
                Some(&b"v"[..]),
                "cold fill {cold}"
            );
            c.on_read_response(&[b'x', cold], b"cold");
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.counters().evictions, 32);
        // The least recently used goes first: "b", "c", "d", then the
        // oldest cold key.
        assert_eq!(c.state(b"b"), CacheState::Invalid);
        assert_eq!(c.state(&[b'x', 31]), CacheState::Persisted);
        assert_eq!(c.state(&[b'x', 28]), CacheState::Invalid);
    }

    #[test]
    fn pending_and_stale_entries_are_skipped_by_eviction() {
        let mut c = ReadCache::new(3);
        c.on_read_response(b"old", b"1"); // least recently used, evictable
        c.on_update(b"p", b"2"); // Pending
        c.on_update(b"s", b"3");
        c.on_update(b"s", b"4"); // Stale
        c.on_read_response(b"new", b"5");
        assert_eq!(c.state(b"old"), CacheState::Invalid, "the only victim");
        c.on_read_response(b"newer", b"6");
        assert_eq!(c.state(b"new"), CacheState::Invalid);
        assert_eq!(c.state(b"p"), CacheState::Pending);
        assert_eq!(c.state(b"s"), CacheState::Stale);
    }

    fn set(key: &[u8], value: &[u8]) -> Bytes {
        KvFrame::Set {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
        }
        .encode()
    }

    #[test]
    fn a_multi_fragment_value_serves_only_once_whole() {
        let mut c = ReadCache::new(4);
        let (first, rest) = (set(b"k", b"head-"), Bytes::copy_from_slice(b"tail"));
        c.on_logged_head(&first, 7);
        assert_eq!(c.state(b"k"), CacheState::Pending);
        assert_eq!(get(&mut c, b"k"), None, "served before the value was whole");
        assert_eq!(c.counters().arriving_misses, 1);
        // A read reply racing the update must not fill the entry either.
        c.on_read_response(b"k", b"old");
        assert_eq!(get(&mut c, b"k"), None);
        // Another update's completion does not fill it.
        c.on_logged_whole(8, &first, [&rest].into_iter());
        assert_eq!(get(&mut c, b"k"), None);
        c.on_logged_whole(7, &first, [&rest].into_iter());
        let parts = c.lookup(b"k").expect("whole");
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[1].as_ptr(), rest.as_ptr(), "a fill copied");
        assert_eq!(get(&mut c, b"k").as_deref(), Some(&b"head-tail"[..]));
        c.on_acked_frame(&first);
        assert_eq!(c.state(b"k"), CacheState::Persisted);
    }

    #[test]
    fn a_value_that_never_arrives_whole_drains_empty() {
        let mut c = ReadCache::new(4);
        let first = set(b"k", b"head-");
        c.on_logged_head(&first, 7);
        c.on_acked_frame(&first);
        assert_eq!(c.state(b"k"), CacheState::Invalid);
        // A second update meanwhile makes it Stale, and a late completion
        // of the first does not fill it.
        c.on_logged_head(&first, 7);
        c.on_logged_frame(&set(b"k", b"v2"));
        c.on_logged_whole(7, &first, std::iter::empty());
        assert_eq!(c.state(b"k"), CacheState::Stale);
        assert_eq!(get(&mut c, b"k"), None);
    }

    #[test]
    fn a_bypassed_update_serves_nothing_until_its_ack() {
        let mut c = ReadCache::new(4);
        c.on_update(b"k", b"v1");
        c.on_server_ack(b"k");
        let key = c.on_bypassed_frame(&set(b"k", b"v2")).expect("a Set");
        assert_eq!(get(&mut c, b"k"), None, "old value served past a bypass");
        c.on_read_response(b"k", b"v1"); // a reply that raced the update
        assert_eq!(get(&mut c, b"k"), None);
        c.on_server_ack(&key);
        assert_eq!(c.state(b"k"), CacheState::Invalid);
    }

    #[test]
    fn a_hit_is_a_view_of_the_filled_buffer() {
        let frame = set(b"k1", b"the-value");
        let Some(KvFrame::Set { key, value }) = KvFrame::decode(&frame) else {
            unreachable!()
        };
        let mut c = ReadCache::new(4);
        c.on_logged_frame(&frame);
        let hit = c.lookup(&key).expect("pending serves reads");
        assert_eq!(hit, std::slice::from_ref(&value));
        assert_eq!(hit[0].as_ptr(), value.as_ptr(), "update fill copied");
        // The same through a read reply's fill.
        c.on_read_response_view(b"r", &value);
        assert_eq!(c.lookup(b"r").expect("filled")[0].as_ptr(), value.as_ptr());
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = ReadCache::new(4);
        c.on_update(b"k", b"v");
        c.lookup(b"k");
        c.lookup(b"absent");
        let s = c.counters();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.update_fills, 1);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        let _ = ReadCache::new(0);
    }
}
