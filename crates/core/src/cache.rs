//! The in-device read cache built on top of PMNet's persistent log
//! (Section IV-D, Figure 11).
//!
//! Each entry moves through four states:
//!
//! * **Invalid** — empty slot;
//! * **Pending** — the value comes from an update logged by PMNet that the
//!   server has not yet acknowledged (serves reads);
//! * **Persisted** — the server has acknowledged the update, or the value
//!   was filled from a server read response (serves reads);
//! * **Stale** — a second in-flight update (or an in-flight delete) exists
//!   for the key; the cached value may not match what the server will end
//!   up with, so reads miss until the in-flight updates drain.
//!
//! Transitions T1–T6 follow Figure 11 exactly; the unit tests enumerate
//! them.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::kvproto::KvFrame;

/// The state of a cache entry (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Empty slot.
    Invalid,
    /// Logged by PMNet, not yet persisted by the server; serves reads.
    Pending,
    /// Persisted on the server; serves reads.
    Persisted,
    /// Multiple in-flight updates; does not serve reads.
    Stale,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    state: CacheState,
    /// A view of the frame the value arrived in (the logged update, the
    /// server's read reply): filling and serving it are refcount bumps.
    value: Bytes,
    /// Updates to this key logged but not yet server-acknowledged. The
    /// paper's Figure 11 is a pure four-state machine; without this
    /// counter the sequence update→update→server-ACK lands in Invalid
    /// with one update still in flight, and a racing read response could
    /// then install a stale value (found by the cache property tests —
    /// see DESIGN.md §7).
    inflight: u32,
}

/// Cache activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Reads served from the cache.
    pub hits: u64,
    /// Reads that had to go to the server.
    pub misses: u64,
    /// Values installed or refreshed by updates.
    pub update_fills: u64,
    /// Values installed from server read responses.
    pub read_fills: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
}

/// A fixed-capacity key-value read cache with the Figure 11 state machine.
///
/// Keys map deterministically (BTreeMap) so simulations are reproducible.
#[derive(Debug)]
pub struct ReadCache {
    map: BTreeMap<Vec<u8>, CacheEntry>,
    capacity: usize,
    counters: CacheCounters,
    /// In-flight update counts for keys the cache could not admit (no
    /// evictable slot). Without this, a read response racing such an
    /// update fills the key with a pre-update server snapshot and serves
    /// it as Persisted forever after. Bounded by the device's un-acked
    /// log occupancy, not by cache capacity.
    refused: BTreeMap<Vec<u8>, u32>,
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
            map: BTreeMap::new(),
            capacity,
            counters: CacheCounters::default(),
            refused: BTreeMap::new(),
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// The state of `key`'s entry ([`CacheState::Invalid`] if absent).
    pub fn state(&self, key: &[u8]) -> CacheState {
        self.map.get(key).map_or(CacheState::Invalid, |e| e.state)
    }

    /// Makes room for a new key by evicting an Invalid or Persisted entry.
    /// Pending/Stale entries track in-flight log state and are never
    /// evicted. Returns false if no room could be made.
    fn make_room(&mut self) -> bool {
        if self.map.len() < self.capacity {
            return true;
        }
        // The first evictable entry in key order; the iterator is lazy,
        // so taking one item removes exactly that entry.
        let evictable = |_: &Vec<u8>, e: &mut CacheEntry| {
            matches!(e.state, CacheState::Invalid | CacheState::Persisted)
        };
        let evicted = self.map.extract_if(.., evictable).next().is_some();
        self.counters.evictions += u64::from(evicted);
        evicted
    }

    /// An update request for `key` was logged (T1/T3/T4/T5). Copies
    /// `value` in; a caller holding the decoded frame shares it instead
    /// ([`ReadCache::on_update_view`]).
    pub fn on_update(&mut self, key: &[u8], value: &[u8]) {
        self.on_update_view(key, &Bytes::copy_from_slice(value));
    }

    /// [`ReadCache::on_update`] keeping a view of `value`'s buffer rather
    /// than a copy of its bytes.
    pub fn on_update_view(&mut self, key: &[u8], value: &Bytes) {
        self.on_logged(key, Some(value));
    }

    /// A `Del` for `key` was logged. It is an update with no value to
    /// serve, so the entry goes Stale (T4/T5) until every in-flight update
    /// to the key is acknowledged (T6), and a read meanwhile misses.
    pub fn on_delete(&mut self, key: &[u8]) {
        self.on_logged(key, None);
    }

    fn on_logged(&mut self, key: &[u8], value: Option<&Bytes>) {
        if let Some(e) = self.map.get_mut(key) {
            e.inflight += 1;
            match value {
                // T1 (from Invalid) / T3 (from Persisted): the new value
                // is the latest and is Pending.
                Some(value) if e.inflight == 1 => {
                    e.state = CacheState::Pending;
                    e.value = value.clone();
                }
                // T4: a second in-flight update (or a delete) makes the
                // entry Stale. T5: Stale stays Stale.
                _ => {
                    e.state = CacheState::Stale;
                    e.value = Bytes::new();
                }
            }
            self.counters.update_fills += 1;
            return;
        }
        // Earlier updates to this key may have been refused admission;
        // they are still in flight, so an admitted entry starts Stale.
        let prior = self.refused.remove(key).unwrap_or(0);
        if self.make_room() {
            let (state, value) = match value {
                Some(value) if prior == 0 => (CacheState::Pending, value.clone()),
                _ => (CacheState::Stale, Bytes::new()),
            };
            self.map.insert(
                key.to_vec(),
                CacheEntry {
                    state,
                    value,
                    inflight: prior + 1,
                },
            );
            self.counters.update_fills += 1;
        } else {
            self.refused.insert(key.to_vec(), prior + 1);
        }
    }

    /// The device logged the update `frame`: a `Set` fills its key, a
    /// `Del` stales it, and any other frame leaves the cache alone.
    pub fn on_logged_frame(&mut self, frame: &Bytes) {
        match KvFrame::decode(frame) {
            Some(KvFrame::Set { key, value }) => self.on_update_view(&key, &value),
            Some(KvFrame::Del { key }) => self.on_delete(&key),
            _ => {}
        }
    }

    /// The server acknowledged the update `frame` that
    /// [`ReadCache::on_logged_frame`] counted in flight.
    pub fn on_acked_frame(&mut self, frame: &Bytes) {
        if let Some(KvFrame::Set { key, .. } | KvFrame::Del { key }) = KvFrame::decode(frame) {
            self.on_server_ack(&key);
        }
    }

    /// A server-ACK for an update to `key` arrived (T2/T6).
    pub fn on_server_ack(&mut self, key: &[u8]) {
        if let Some(c) = self.refused.get_mut(key) {
            *c -= 1;
            if *c == 0 {
                self.refused.remove(key);
            }
            return;
        }
        if let Some(e) = self.map.get_mut(key) {
            e.inflight = e.inflight.saturating_sub(1);
            match e.state {
                // T2: the pending value is now on the server.
                CacheState::Pending => e.state = CacheState::Persisted,
                // T6: the entry stays unusable until *every* in-flight
                // update has been acknowledged (counter refinement of
                // Figure 11 — see the struct comment), then empties.
                CacheState::Stale => {
                    if e.inflight == 0 {
                        e.state = CacheState::Invalid;
                        e.value = Bytes::new();
                    }
                }
                CacheState::Invalid | CacheState::Persisted => {}
            }
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
        if let Some(e) = self.map.get_mut(key) {
            if e.state == CacheState::Invalid && e.inflight == 0 {
                e.state = CacheState::Persisted;
                e.value = value.clone();
                self.counters.read_fills += 1;
            }
            // Pending/Persisted already hold fresher-or-equal data; a
            // Stale or still-in-flight entry must not be resurrected by a
            // read that raced an in-flight update.
            return;
        }
        if self.refused.contains_key(key) {
            // The key has in-flight updates the cache never admitted; the
            // response may predate them, so filling it would serve stale
            // data once those updates apply.
            return;
        }
        if self.make_room() {
            self.map.insert(
                key.to_vec(),
                CacheEntry {
                    state: CacheState::Persisted,
                    value: value.clone(),
                    inflight: 0,
                },
            );
            self.counters.read_fills += 1;
        }
    }

    /// Attempts to serve a read. Hits only in Pending or Persisted states;
    /// a hit is a view of the filled buffer, not a copy.
    pub fn lookup(&mut self, key: &[u8]) -> Option<Bytes> {
        match self.map.get(key) {
            Some(e) if matches!(e.state, CacheState::Pending | CacheState::Persisted) => {
                self.counters.hits += 1;
                Some(e.value.clone())
            }
            _ => {
                self.counters.misses += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_update_makes_pending_and_serves_reads() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        assert_eq!(c.state(b"k"), CacheState::Pending);
        assert_eq!(c.lookup(b"k").as_deref(), Some(&b"v1"[..]));
    }

    #[test]
    fn t2_server_ack_persists_pending() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        c.on_server_ack(b"k");
        assert_eq!(c.state(b"k"), CacheState::Persisted);
        assert_eq!(c.lookup(b"k").as_deref(), Some(&b"v1"[..]));
    }

    #[test]
    fn t3_update_after_persisted_goes_back_to_pending() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        c.on_server_ack(b"k");
        c.on_update(b"k", b"v2");
        assert_eq!(c.state(b"k"), CacheState::Pending);
        assert_eq!(c.lookup(b"k").as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn t4_t5_concurrent_updates_make_and_keep_stale() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        c.on_update(b"k", b"v2"); // T4
        assert_eq!(c.state(b"k"), CacheState::Stale);
        assert_eq!(c.lookup(b"k"), None, "stale entries must not serve reads");
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
        assert_eq!(c.lookup(b"k"), None);
        // A later update restarts the cycle (T1 from Invalid).
        c.on_update(b"k", b"v3");
        assert_eq!(c.state(b"k"), CacheState::Pending);
        assert_eq!(c.lookup(b"k").as_deref(), Some(&b"v3"[..]));
    }

    #[test]
    fn a_delete_serves_nothing_until_it_drains() {
        let mut c = ReadCache::new(16);
        c.on_update(b"k", b"v1");
        c.on_server_ack(b"k");
        c.on_delete(b"k");
        assert_eq!(c.state(b"k"), CacheState::Stale);
        assert_eq!(c.lookup(b"k"), None, "deleted value served");
        c.on_read_response(b"k", b"v1"); // raced the delete
        c.on_server_ack(b"k");
        assert_eq!(c.state(b"k"), CacheState::Invalid);
        // A delete of an uncached key blocks racing fills the same way.
        c.on_delete(b"j");
        c.on_read_response(b"j", b"old");
        assert_eq!(c.lookup(b"j"), None);
    }

    #[test]
    fn read_responses_fill_misses_but_never_override_fresher_state() {
        let mut c = ReadCache::new(16);
        c.on_read_response(b"r", b"from-server");
        assert_eq!(c.state(b"r"), CacheState::Persisted);
        // A pending update is fresher than any read response.
        c.on_update(b"k", b"new");
        c.on_read_response(b"k", b"old");
        assert_eq!(c.lookup(b"k").as_deref(), Some(&b"new"[..]));
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
        assert_eq!(c.lookup(b"k"), None, "stale fill served");
        // Once the second ack drains, fills become safe again.
        c.on_server_ack(b"k");
        c.on_read_response(b"k", b"fresh");
        assert_eq!(c.lookup(b"k").as_deref(), Some(&b"fresh"[..]));
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
        assert_eq!(c.lookup(b"b"), None, "pre-update snapshot served");
        // Once B's update is acknowledged, fills become safe again.
        c.on_server_ack(b"b");
        c.on_read_response(b"b", b"b1");
        assert_eq!(c.lookup(b"b").as_deref(), Some(&b"b1"[..]));
    }

    #[test]
    fn late_admission_inherits_refused_inflight_counts() {
        let mut c = ReadCache::new(1);
        c.on_update(b"a", b"a1");
        c.on_update(b"b", b"b1"); // refused
        c.on_server_ack(b"a"); // room opens
        c.on_update(b"b", b"b2"); // admitted with an older update in flight
        assert_eq!(c.state(b"b"), CacheState::Stale);
        assert_eq!(c.lookup(b"b"), None);
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
        c.on_update(b"c", b"3"); // no room: tracked as refused, not cached
        assert_eq!(c.state(b"c"), CacheState::Invalid);
        assert_eq!(c.len(), 2);
        // Persist one; now there is an evictable victim. The next update
        // to C is admitted, but the refused one is still in flight, so
        // the entry starts Stale until both drain.
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
    fn a_hit_is_a_view_of_the_filled_buffer() {
        let frame = Bytes::from(b"k1the-value".to_vec());
        let (key, value) = (frame.slice(..2), frame.slice(2..));
        let mut c = ReadCache::new(4);
        c.on_update_view(&key, &value);
        let hit = c.lookup(&key).expect("pending serves reads");
        assert_eq!(hit, value);
        assert_eq!(hit.as_ptr(), value.as_ptr(), "update fill copied");
        // The same through a read reply's fill.
        c.on_read_response_view(b"r", &value);
        assert_eq!(c.lookup(b"r").expect("filled").as_ptr(), value.as_ptr());
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
