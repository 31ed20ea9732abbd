//! Property tests for the timing-wheel event list: order-equivalence
//! against a reference model and monotonic delivery under random
//! interleavings of `schedule` / `cancel` / `pop` / `pop_until`.

use std::collections::BTreeMap;

use pmnet_sim::{Engine, EventId, NodeId, Time};
use proptest::prelude::*;

/// The behavioural oracle the wheel must match exactly: every pending
/// event in one ordered map over `(time, seq)`.
struct RefEngine {
    events: BTreeMap<(Time, u64), (NodeId, u64)>,
    now: Time,
    seq: u64,
}

impl RefEngine {
    fn new() -> Self {
        RefEngine {
            events: BTreeMap::new(),
            now: Time::ZERO,
            seq: 0,
        }
    }
    /// Returns the key `cancel` takes.
    fn schedule(&mut self, at: Time, dest: NodeId, msg: u64) -> (Time, u64) {
        assert!(at >= self.now);
        let key = (at, self.seq);
        self.seq += 1;
        self.events.insert(key, (dest, msg));
        key
    }
    fn cancel(&mut self, key: (Time, u64)) -> bool {
        self.events.remove(&key).is_some()
    }
    fn pop_until(&mut self, deadline: Time) -> Option<(Time, NodeId, u64)> {
        let (&(at, seq), &(dest, msg)) = self.events.first_key_value()?;
        if at > deadline {
            return None;
        }
        self.events.remove(&(at, seq));
        self.now = at;
        Some((at, dest, msg))
    }
    fn pop(&mut self) -> Option<(Time, NodeId, u64)> {
        self.pop_until(Time::MAX)
    }
    fn peek_time(&self) -> Option<Time> {
        self.events.keys().next().map(|&(at, _)| at)
    }
}

/// One step of the interleaved workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule {
        delay: u64,
        dest: u32,
    },
    Pop,
    /// `pop_until(now + ahead)`.
    PopUntil {
        ahead: u64,
    },
    /// Cancel the `k`-th event ever scheduled (modulo how many there are),
    /// pending or not.
    Cancel {
        k: usize,
    },
}

/// Delays land on every one of the wheel's 11 levels: a uniform draw
/// shifted right by a uniform amount is uniform over magnitudes, and
/// `u64::MAX` pins the last slot of the top level. Short delays dominate,
/// as in real packet traffic.
fn op_strategy() -> impl Strategy<Value = Op> {
    let schedule = |delay: u64, dest: u32| Op::Schedule { delay, dest };
    prop_oneof![
        (0u64..64, 0u32..8).prop_map(move |(d, dest)| schedule(d, dest)),
        (0u64..5_000, 0u32..8).prop_map(move |(d, dest)| schedule(d, dest)),
        (0u64..300_000, 0u32..8).prop_map(move |(d, dest)| schedule(d, dest)),
        (any::<u64>(), 0u32..64, 0u32..8).prop_map(move |(r, sh, dest)| schedule(r >> sh, dest)),
        (0u32..8).prop_map(move |dest| schedule(u64::MAX, dest)),
        Just(Op::Pop),
        Just(Op::Pop),
        (any::<u64>(), 40u32..64).prop_map(|(r, sh)| Op::PopUntil { ahead: r >> sh }),
        (0usize..400).prop_map(|k| Op::Cancel { k }),
        (0usize..400).prop_map(|k| Op::Cancel { k }),
    ]
}

/// `now + delay`, pinned at the last representable nanosecond.
fn after(now: Time, delay: u64) -> Time {
    Time::from_nanos(now.as_nanos().saturating_add(delay))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The wheel delivers the exact same (time, dest, msg) sequence as the
    /// reference for any interleaving of schedules, cancels and pops;
    /// `cancel` succeeds exactly when the reference still held the event;
    /// and `peek_time`/`pending`/`now` agree after every step.
    #[test]
    fn wheel_matches_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut wheel: Engine<u64> = Engine::new();
        let mut reference = RefEngine::new();
        let mut ids: Vec<(EventId, (Time, u64))> = Vec::new();
        let (mut delivered, mut cancelled) = (0u64, 0u64);
        for op in ops {
            match op {
                Op::Schedule { delay, dest } => {
                    let at = after(wheel.now(), delay);
                    let tag = ids.len() as u64;
                    let id = wheel.schedule(at, dest, tag);
                    ids.push((id, reference.schedule(at, NodeId(dest), tag)));
                }
                Op::Pop => {
                    let got = wheel.pop();
                    delivered += u64::from(got.is_some());
                    prop_assert_eq!(got, reference.pop());
                }
                Op::PopUntil { ahead } => {
                    let deadline = after(wheel.now(), ahead);
                    let got = wheel.pop_until(deadline);
                    delivered += u64::from(got.is_some());
                    prop_assert_eq!(got, reference.pop_until(deadline));
                }
                Op::Cancel { k } => {
                    if let Some(&(id, key)) = ids.get(k % ids.len().max(1)) {
                        let got = wheel.cancel(id);
                        cancelled += u64::from(got);
                        prop_assert_eq!(got, reference.cancel(key));
                    }
                }
            }
            prop_assert_eq!(wheel.peek_time(), reference.peek_time());
            prop_assert_eq!(wheel.now(), reference.now);
            prop_assert_eq!(wheel.pending(), reference.events.len());
            prop_assert_eq!(wheel.delivered(), delivered);
            prop_assert_eq!(wheel.cancelled(), cancelled);
        }
        // Drain both and compare the tails.
        loop {
            let (a, b) = (wheel.pop(), reference.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Delivery timestamps never decrease, regardless of how schedules and
    /// pops interleave (the `Engine::pop` clock-regression invariant).
    #[test]
    fn delivery_is_monotonic(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut e: Engine<u64> = Engine::new();
        let mut last = Time::ZERO;
        let mut tag = 0u64;
        for op in ops {
            match op {
                Op::Schedule { delay, dest } => {
                    e.schedule(after(e.now(), delay), dest, tag);
                    tag += 1;
                }
                Op::Cancel { .. } => {}
                Op::Pop | Op::PopUntil { .. } => {
                    if let Some((at, _, _)) = e.pop() {
                        prop_assert!(at >= last, "clock regressed: {} < {}", at, last);
                        prop_assert_eq!(e.now(), at);
                        last = at;
                    }
                }
            }
        }
        while let Some((at, _, _)) = e.pop() {
            prop_assert!(at >= last, "clock regressed: {} < {}", at, last);
            last = at;
        }
    }

    /// Simultaneous events pop in schedule order even when they were
    /// scheduled from different `now` cursors (and so landed on different
    /// wheel levels).
    #[test]
    fn simultaneous_events_fifo_across_levels(
        target in 100u64..200_000,
        early in prop::collection::vec(0u64..90, 1..20),
    ) {
        let mut e: Engine<u64> = Engine::new();
        let at = Time::from_nanos(target);
        let mut tag = 0u64;
        e.schedule(at, 0, tag);
        tag += 1;
        // Interleave: pop intermediate events forward, scheduling another
        // event at the same target instant after each advance.
        for d in early {
            if e.now().as_nanos() + d < target {
                e.schedule(Time::from_nanos(e.now().as_nanos() + d), 1, u64::MAX);
                while e.peek_time().is_some_and(|t| t < at) {
                    e.pop();
                }
            }
            e.schedule(at, 0, tag);
            tag += 1;
        }
        let mut seen = Vec::new();
        while let Some((t, _, m)) = e.pop() {
            prop_assert_eq!(t, at);
            seen.push(m);
        }
        let expect: Vec<u64> = (0..tag).collect();
        prop_assert_eq!(seen, expect);
    }
}
