//! The future-event list: a hierarchical timing wheel of index-linked
//! cells, with cancellable events and stable FIFO ordering among
//! simultaneous events.
//!
//! The event list is the hottest structure in the simulator: every packet
//! hop, timer, and injection passes through it twice (schedule + pop). A
//! binary heap gives `O(log n)` per operation; the wheel used here gives
//! `O(1)` schedule, cancel and pop, plus one relink per level an event
//! descends while the clock approaches it.
//!
//! Events live in one slab of cells threaded by index into 11 × 64 slot
//! lists. A cell is filed by the highest six-bit digit in which its
//! timestamp differs from `now` (the XOR levelling of the Tokio and Linux
//! timer wheels), so every `u64` nanosecond has a slot, and three
//! invariants hold whenever the caller can look (DESIGN.md §10.1):
//!
//! * a level `>= 1` holds only slots strictly ahead of the clock's digit at
//!   that level, so the first occupied slot of the lowest non-empty level
//!   holds the global minimum;
//! * a level-0 slot holds exactly one timestamp, and every slot's list is
//!   in `seq` order, so a level-0 head is the next event to deliver;
//! * every pending cell sits in the slot its timestamp and `now` name, so
//!   [`Engine::cancel`] finds and unlinks it without a search.
//!
//! Determinism is preserved exactly: events are delivered in `(time, seq)`
//! order, where `seq` is the global schedule counter; `tests/engine_props.rs`
//! holds every operation to a reference model.

use std::fmt;

use crate::time::Time;

/// Identifies a node (component) in the simulated system.
///
/// `NodeId` is an index into the world's node table; it is allocated by the
/// runtime layer (`pmnet-net`) when components are added to a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Names one scheduled event, for [`Engine::cancel`].
///
/// An id stays safe to hold after its event fired or was cancelled: the
/// schedule counter in it is never reused, so it cannot name whichever
/// event occupies the cell next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId {
    idx: u32,
    seq: u64,
}

/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level (64, so one `u64` occupancy bitmap per level).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels: eleven six-bit digits cover a 64-bit nanosecond timestamp.
const LEVELS: usize = 11;
/// The null cell index.
const NIL: u32 = u32::MAX;

/// The slot (`level * SLOTS + digit`) where an event at `at` is filed while
/// the clock reads `now`: the highest six-bit digit in which the two
/// differ, and `at`'s value of that digit. `at == now` files at level 0.
#[inline]
fn slot_of(at: Time, now: Time) -> usize {
    let differ = (at.as_nanos() ^ now.as_nanos()) | 1;
    let level = (63 - differ.leading_zeros()) / SLOT_BITS;
    let digit = (at.as_nanos() >> (level * SLOT_BITS)) & (SLOTS as u64 - 1);
    level as usize * SLOTS + digit as usize
}

struct Cell<M> {
    at: Time,
    seq: u64,
    dest: NodeId,
    prev: u32,
    next: u32,
    /// `None` once the event fired or was cancelled; `next` then threads
    /// the free list.
    msg: Option<M>,
}

#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// A generic discrete-event engine.
///
/// The engine owns the simulated clock and the future-event list. It knows
/// nothing about what messages mean; the runtime layer pops events and
/// routes them to node handlers.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (stable FIFO), which keeps simulations deterministic.
///
/// # Example
///
/// ```
/// use pmnet_sim::{Engine, NodeId, Time, Dur};
///
/// let mut e: Engine<u32> = Engine::new();
/// e.schedule_in(Dur::micros(1), 7, 42);
/// let timer = e.schedule_in(Dur::millis(1), 7, 43);
/// let (at, dest, msg) = e.pop().unwrap();
/// assert_eq!(at, Time::ZERO + Dur::micros(1));
/// assert_eq!(dest, NodeId(7));
/// assert_eq!(msg, 42);
/// assert_eq!(e.now(), at);
/// // The request was answered: its timeout never has to fire.
/// assert!(e.cancel(timer));
/// assert!(e.pop().is_none());
/// ```
pub struct Engine<M> {
    cells: Vec<Cell<M>>,
    /// Head of the free-cell list.
    free: u32,
    lists: Vec<List>,
    /// Per level: bit `s` set iff slot `s` is non-empty.
    occupied: [u64; LEVELS],
    /// Bit `l` set iff `occupied[l] != 0`.
    levels: u16,
    now: Time,
    seq: u64,
    delivered: u64,
    cancelled: u64,
    pending: usize,
}

impl<M> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Engine<M> {
    /// Creates an empty engine with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        Engine {
            cells: Vec::new(),
            free: NIL,
            lists: vec![EMPTY; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            levels: 0,
            now: Time::ZERO,
            seq: 0,
            delivered: 0,
            cancelled: 0,
            pending: 0,
        }
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far (cancelled ones never are).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events cancelled so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Number of events still pending (cancelled ones are not).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Schedules `msg` for delivery to `dest` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time: the simulated past is
    /// immutable.
    pub fn schedule(&mut self, at: Time, dest: impl Into<NodeId>, msg: M) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        let dest = dest.into();
        let mut idx = self.free;
        if idx != NIL {
            // A free cell is overwritten in place; `link` sets its links.
            let c = &mut self.cells[idx as usize];
            self.free = c.next;
            (c.at, c.seq, c.dest, c.msg) = (at, seq, dest, Some(msg));
        } else {
            idx = u32::try_from(self.cells.len()).unwrap_or(NIL);
            assert!(idx != NIL, "too many pending events");
            self.cells.push(Cell {
                at,
                seq,
                dest,
                prev: NIL,
                next: NIL,
                msg: Some(msg),
            });
        }
        self.link(idx);
        EventId { idx, seq }
    }

    /// Schedules `msg` for delivery to `dest` after `delay`.
    pub fn schedule_in(&mut self, delay: crate::Dur, dest: impl Into<NodeId>, msg: M) -> EventId {
        let at = self.now + delay;
        self.schedule(at, dest, msg)
    }

    /// Removes a pending event so that it is never delivered. Returns
    /// `false`, and changes nothing, when `id` names an event that already
    /// fired or was already cancelled — whether or not its cell has since
    /// been reused.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.cells.get(id.idx as usize) {
            Some(c) if c.seq == id.seq && c.msg.is_some() => {}
            _ => return false,
        }
        let slot = slot_of(self.cells[id.idx as usize].at, self.now);
        self.unlink(id.idx, slot);
        self.release(id.idx);
        self.cancelled += 1;
        true
    }

    /// Files cell `idx` at the tail of the slot its timestamp and `now`
    /// name. Appending keeps every list in `seq` order with no search: a
    /// fresh schedule carries the largest seq so far, and a cascade runs
    /// only while every lower level is empty and relinks its source list
    /// front to back. A level-0 slot is one timestamp, so its head is the
    /// next event to deliver.
    fn link(&mut self, idx: u32) {
        let slot = slot_of(self.cells[idx as usize].at, self.now);
        let tail = std::mem::replace(&mut self.lists[slot].tail, idx);
        debug_assert!(tail == NIL || self.cells[tail as usize].seq < self.cells[idx as usize].seq);
        let c = &mut self.cells[idx as usize];
        c.prev = tail;
        c.next = NIL;
        match tail {
            NIL => self.lists[slot].head = idx,
            t => self.cells[t as usize].next = idx,
        }
        self.occupied[slot / SLOTS] |= 1 << (slot % SLOTS);
        self.levels |= 1 << (slot / SLOTS);
    }

    /// Takes cell `idx` out of the list of `slot`.
    fn unlink(&mut self, idx: u32, slot: usize) {
        let (prev, next) = {
            let c = &self.cells[idx as usize];
            (c.prev, c.next)
        };
        match prev {
            NIL => self.lists[slot].head = next,
            p => self.cells[p as usize].next = next,
        }
        match next {
            NIL => self.lists[slot].tail = prev,
            n => self.cells[n as usize].prev = prev,
        }
        if self.lists[slot].head == NIL {
            self.mark_empty(slot);
        }
    }

    fn mark_empty(&mut self, slot: usize) {
        let level = slot / SLOTS;
        self.occupied[level] &= !(1 << (slot % SLOTS));
        if self.occupied[level] == 0 {
            self.levels &= !(1 << level);
        }
    }

    /// Frees an unlinked cell and hands back its message.
    #[inline(always)]
    fn release(&mut self, idx: u32) -> M {
        let c = &mut self.cells[idx as usize];
        let msg = c.msg.take().expect("a linked cell holds a message");
        c.next = self.free;
        self.free = idx;
        self.pending -= 1;
        msg
    }

    /// The slot holding the earliest pending event: the first occupied slot
    /// of the lowest non-empty level (see the module docs).
    fn first_slot(&self) -> Option<usize> {
        if self.levels == 0 {
            return None;
        }
        let level = self.levels.trailing_zeros() as usize;
        Some(level * SLOTS + self.occupied[level].trailing_zeros() as usize)
    }

    /// The least timestamp in `slot`, by search. Only a deadline that falls
    /// inside a higher slot's span, and `peek_time`, need it.
    fn min_in(&self, slot: usize) -> Time {
        let mut idx = self.lists[slot].head;
        let mut min = Time::MAX;
        while idx != NIL {
            let c = &self.cells[idx as usize];
            if c.at < min {
                min = c.at;
            }
            idx = c.next;
        }
        min
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the event list is empty (simulation complete).
    pub fn pop(&mut self) -> Option<(Time, NodeId, M)> {
        self.pop_until(Time::MAX)
    }

    /// Pops the next event if it is due at or before `deadline`, advancing
    /// the clock to its timestamp. Returns `None`, leaving the clock and
    /// the event list untouched, when nothing is pending that early.
    ///
    /// Always inlined, with the cascade kept out of line: in an event loop
    /// the message then moves from its cell straight into the dispatch
    /// that consumes it instead of through a returned tuple.
    #[inline(always)]
    pub fn pop_until(&mut self, deadline: Time) -> Option<(Time, NodeId, M)> {
        loop {
            let slot = self.first_slot()?;
            let List { head, tail } = self.lists[slot];
            let at = self.cells[head as usize].at;
            // A level-0 slot is one timestamp in `seq` order and a lone
            // cell is its slot's minimum: either way the head is next.
            if slot < SLOTS || head == tail {
                if at > deadline {
                    return None;
                }
                debug_assert!(at >= self.now, "event list ordering violated");
                self.now = at;
                self.unlink(head, slot);
                self.delivered += 1;
                let dest = self.cells[head as usize].dest;
                return Some((at, dest, self.release(head)));
            }
            if !self.cascade(slot, at, deadline) {
                return None;
            }
        }
    }

    /// Empties the higher-level `slot`, whose head is due at `at`, one
    /// level or more down — unless nothing in it is due by `deadline`, in
    /// which case it changes nothing and returns `false`.
    #[inline(never)]
    fn cascade(&mut self, slot: usize, at: Time, deadline: Time) -> bool {
        // A higher slot spans `start..=start + low`, all of it ahead of
        // the clock, and holds the event to deliver next. Nothing moves
        // until that event is known to be due: `schedule` and `cancel`
        // file by `now`, so the clock must never pass an event the
        // caller has not seen delivered. Only a deadline inside the span
        // needs the search.
        let low = (1u64 << ((slot / SLOTS) as u32 * SLOT_BITS)) - 1;
        let start = Time::from_nanos(at.as_nanos() & !low);
        let end = Time::from_nanos(at.as_nanos() | low);
        if start > deadline || (end > deadline && self.min_in(slot) > deadline) {
            return false;
        }
        // With the clock at the span's start every cell of the slot
        // agrees with `now` from this level's digit up, so each re-files
        // strictly lower. Only indices move; the messages stay where they
        // are.
        self.now = start;
        let mut idx = std::mem::replace(&mut self.lists[slot], EMPTY).head;
        self.mark_empty(slot);
        while idx != NIL {
            let next = self.cells[idx as usize].next;
            self.link(idx);
            idx = next;
        }
        true
    }

    /// The timestamp of the next pending event, if any.
    ///
    /// Exact and read-only, but it searches the first occupied slot's
    /// list: for tests and inspection. An event loop wants
    /// [`pop_until`](Engine::pop_until), not a peek followed by a pop.
    pub fn peek_time(&self) -> Option<Time> {
        self.first_slot().map(|slot| self.min_in(slot))
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl<M> fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending)
            .field("delivered", &self.delivered)
            .field("cancelled", &self.cancelled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dur;

    #[test]
    fn events_pop_in_time_order() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(Time::from_nanos(30), 0, "c");
        e.schedule(Time::from_nanos(10), 0, "a");
        e.schedule(Time::from_nanos(20), 0, "b");
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, _, m)| m).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..100 {
            e.schedule(Time::from_nanos(5), 0, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, _, m)| m).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_in(Dur::micros(5), 1, ());
        assert_eq!(e.now(), Time::ZERO);
        e.pop().unwrap();
        assert_eq!(e.now(), Time::from_nanos(5_000));
        assert!(e.pop().is_none());
        // Clock stays put once drained.
        assert_eq!(e.now(), Time::from_nanos(5_000));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e: Engine<()> = Engine::new();
        e.schedule(Time::from_nanos(100), 0, ());
        e.pop().unwrap();
        e.schedule(Time::from_nanos(50), 0, ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut e: Engine<()> = Engine::new();
        e.schedule(Time::from_nanos(42), 0, ());
        assert_eq!(e.peek_time(), Some(Time::from_nanos(42)));
        assert_eq!(e.now(), Time::ZERO);
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn delivered_counter_counts() {
        let mut e: Engine<u8> = Engine::new();
        for i in 0..10u8 {
            e.schedule(Time::from_nanos(u64::from(i)), 2, i);
        }
        while e.pop().is_some() {}
        assert_eq!(e.delivered(), 10);
    }

    #[test]
    fn same_time_events_at_different_wheel_levels_stay_fifo() {
        // A is scheduled far ahead (lands at level 1); B is scheduled later
        // (larger seq) for the same instant but from a nearer now (level 0).
        // Delivery must still be A before B.
        let mut e: Engine<&str> = Engine::new();
        e.schedule(Time::from_nanos(1), 0, "tick");
        e.schedule(Time::from_nanos(100), 0, "a"); // delta 100 -> level 1
        let _ = e.pop(); // now = 1
        e.schedule(Time::from_nanos(100), 0, "b"); // delta 99 -> level 1
        e.schedule(Time::from_nanos(80), 0, "near"); // delta 79 -> level 1
        let _ = e.pop(); // now = 80
        e.schedule(Time::from_nanos(100), 0, "c"); // delta 20 -> level 0
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, _, m)| m).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn every_nanosecond_has_a_slot_and_far_events_stay_ordered() {
        let mut e: Engine<u32> = Engine::new();
        // One event per decade of delay, up to the last representable ns.
        let times = [
            1u64,
            100,
            10_000,
            1_000_000,
            (1 << 24) - 1,
            1 << 24,
            1 << 30,
            1 << 40,
            u64::MAX,
        ];
        for (i, &t) in times.iter().enumerate() {
            e.schedule(Time::from_nanos(t), 0, i as u32);
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop())
            .map(|(at, _, m)| (at.as_nanos(), m))
            .collect();
        let expect: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn clock_never_regresses_across_levels() {
        // Deterministic mixed workload crossing the boundaries of the low
        // five levels; monotone non-decreasing delivery is checked here.
        let mut e: Engine<u64> = Engine::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = || {
            // xorshift64* — deterministic, no external RNG needed.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut scheduled = 0u64;
        let mut last = Time::ZERO;
        for round in 0..2_000 {
            let r = next();
            // Spread delays across levels 0..4.
            let delay = match round % 5 {
                0 => r % 64,
                1 => 64 + r % 4_000,
                2 => 4_096 + r % 260_000,
                3 => 262_144 + r % 16_000_000,
                _ => (1 << 24) + r % (1 << 28),
            };
            e.schedule_in(Dur::nanos(delay), 0, scheduled);
            scheduled += 1;
            if r % 3 == 0 {
                if let Some((at, _, _)) = e.pop() {
                    assert!(at >= last, "delivery went backwards: {at} < {last}");
                    last = at;
                }
            }
        }
        while let Some((at, _, _)) = e.pop() {
            assert!(at >= last, "delivery went backwards: {at} < {last}");
            last = at;
        }
        assert_eq!(e.delivered(), scheduled);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn slot_of_files_by_the_highest_differing_digit() {
        let t = Time::from_nanos;
        assert_eq!(slot_of(t(5), t(5)), 5);
        assert_eq!(slot_of(t(63), t(0)), 63);
        assert_eq!(slot_of(t(64), t(0)), SLOTS + 1);
        // Two ns apart, but they differ in the level-1 digit.
        assert_eq!(slot_of(t(65), t(63)), SLOTS + 1);
        assert_eq!(slot_of(t(1 << 60), t(0)), 10 * SLOTS + 1);
        assert_eq!(slot_of(Time::MAX, t(0)), 10 * SLOTS + 15);
        assert_eq!(slot_of(Time::MAX, t(u64::MAX - 1)), 63);
    }

    #[test]
    fn cancelled_event_is_never_delivered() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(Time::from_nanos(10), 0, "a");
        let b = e.schedule(Time::from_nanos(2_000_000), 0, "b");
        e.schedule(Time::from_nanos(2_000_000), 0, "c");
        assert_eq!(e.pop().map(|(_, _, m)| m), Some("a"));
        // `b` sits at a higher level, filed when the clock read 0; the
        // clock has moved since and `cancel` must still find its slot.
        assert!(e.cancel(b));
        assert_eq!((e.pending(), e.cancelled()), (1, 1));
        assert_eq!(e.peek_time(), Some(Time::from_nanos(2_000_000)));
        assert_eq!(e.pop().map(|(_, _, m)| m), Some("c"));
        assert!(e.pop().is_none());
        assert_eq!(e.delivered(), 2);
    }

    #[test]
    fn stale_ids_cancel_nothing() {
        let mut e: Engine<u32> = Engine::new();
        let fired = e.schedule(Time::from_nanos(1), 0, 1);
        let gone = e.schedule(Time::from_nanos(500), 0, 2);
        e.pop().unwrap();
        assert!(e.cancel(gone));
        // Both cells are free; the next two schedules reuse them.
        let x = e.schedule(Time::from_nanos(500), 0, 3);
        let y = e.schedule(Time::from_nanos(70_000), 0, 4);
        assert_eq!(e.cells.len(), 2, "cells are reused");
        let before = (e.pending(), e.cancelled(), e.peek_time());
        assert!(!e.cancel(fired), "fired");
        assert!(!e.cancel(gone), "already cancelled");
        assert!(!e.cancel(EventId { idx: 7, seq: 0 }), "never existed");
        assert_eq!((e.pending(), e.cancelled(), e.peek_time()), before);
        assert_eq!(e.pop().map(|(_, _, m)| m), Some(3));
        assert_eq!(e.pop().map(|(_, _, m)| m), Some(4));
        assert!(!e.cancel(x) && !e.cancel(y));
        assert_eq!((e.delivered(), e.cancelled()), (3, 1));
    }

    #[test]
    fn pop_until_stops_at_the_deadline_without_moving_the_clock() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(Time::from_nanos(100), 0, 1);
        e.schedule(Time::from_nanos(5_000), 0, 2);
        assert!(e.pop_until(Time::from_nanos(99)).is_none());
        assert_eq!(e.now(), Time::ZERO);
        // An event exactly at the deadline is due.
        assert_eq!(e.pop_until(Time::from_nanos(100)).map(|x| x.2), Some(1));
        assert!(e.pop_until(Time::from_nanos(4_999)).is_none());
        assert_eq!((e.now(), e.pending()), (Time::from_nanos(100), 1));
        // The refused pop left the list able to take events before the
        // one it looked at.
        e.schedule(Time::from_nanos(101), 0, 3);
        assert_eq!(e.pop().map(|x| x.2), Some(3));
        assert_eq!(e.pop().map(|x| x.2), Some(2));
    }
}
