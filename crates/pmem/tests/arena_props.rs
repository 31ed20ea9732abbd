//! Property tests for the PM arena's crash semantics: fenced data always
//! survives, every line is atomic (pre- or post-state, never torn), the
//! dense dirty-line tracker — `store_persist` included — is
//! indistinguishable from the map it replaced, an armed arena is the
//! unarmed one cut off at the tripped persist point, and the
//! WAL-over-arena discipline recovers a consistent prefix.

use pmnet_pmem::{ArenaStats, PmArena, PmPtr, Wal, LINE};
use pmnet_sim::hash::FixedMap;
use pmnet_sim::SimRng;
use proptest::prelude::*;

/// The reference crash model: the `HashMap`-of-owned-pre-images tracker
/// `PmArena` used before its dense one, kept as the oracle the dense
/// tracker is compared against.
struct MapArena {
    data: Vec<u8>,
    /// line → (last durable contents, flushed since its last store).
    dirty: FixedMap<usize, (Vec<u8>, bool)>,
    stats: ArenaStats,
}

impl MapArena {
    fn new(capacity: usize) -> MapArena {
        MapArena {
            data: vec![0; capacity],
            dirty: FixedMap::default(),
            stats: ArenaStats::default(),
        }
    }

    fn write(&mut self, start: usize, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        for line in start / LINE..=(start + bytes.len() - 1) / LINE {
            let durable = &self.data[line * LINE..(line + 1) * LINE];
            let entry = self
                .dirty
                .entry(line)
                .or_insert_with(|| (durable.to_vec(), false));
            entry.1 = false;
        }
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
        self.stats.bytes_written += bytes.len() as u64;
    }

    fn flush(&mut self, start: usize, len: usize) {
        for line in start / LINE..=(start + len - 1) / LINE {
            if let Some(entry) = self.dirty.get_mut(&line) {
                if !entry.1 {
                    entry.1 = true;
                    self.stats.flushes += 1;
                }
            }
        }
    }

    fn fence(&mut self) {
        self.dirty.retain(|_, entry| !entry.1);
        self.stats.fences += 1;
    }

    /// `rng: None` is `crash_losing_all`.
    fn crash(&mut self, mut rng: Option<&mut SimRng>) -> usize {
        let mut lines: Vec<usize> = self.dirty.keys().copied().collect();
        lines.sort_unstable();
        let mut lost = 0;
        for line in lines {
            let (durable, _) = self.dirty.remove(&line).expect("line vanished");
            if rng.as_mut().is_none_or(|rng| rng.chance(0.5)) {
                self.data[line * LINE..(line + 1) * LINE].copy_from_slice(&durable);
                lost += 1;
            }
        }
        lost
    }
}

/// Bytes of the arena both trackers model.
const DIFF_CAPACITY: usize = 48 * LINE;

#[derive(Debug, Clone)]
enum TrackerOp {
    /// Store `len` bytes of `fill` at `start` (possibly none, possibly
    /// several lines, possibly over lines already dirty or flushed).
    Write(usize, usize, u8),
    /// Flush `[start, start + len)`.
    Flush(usize, usize),
    Fence,
    /// `store_persist` of `len` (at least one) bytes of `fill` at `start`.
    StorePersist(usize, usize, u8),
}

/// `len` bytes counting up from `fill`: distinct bytes, so a misplaced
/// pre-image shows.
fn pattern(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

impl TrackerOp {
    /// True for the ops that are a persist point.
    fn persists(&self) -> bool {
        matches!(self, TrackerOp::Fence | TrackerOp::StorePersist(..))
    }

    /// Issues the op to the arena.
    fn run(&self, arena: &mut PmArena) {
        match *self {
            TrackerOp::Write(at, len, fill) => arena.write(PmPtr(at as u64), &pattern(len, fill)),
            TrackerOp::Flush(at, len) => arena.flush(PmPtr(at as u64), len),
            TrackerOp::Fence => arena.fence(),
            TrackerOp::StorePersist(at, len, fill) => {
                let bytes = pattern(len, fill);
                arena.store_persist(PmPtr(at as u64), len, |dst| dst.copy_from_slice(&bytes));
            }
        }
    }

    /// Replays the op on the oracle: `store_persist` as a write, a flush
    /// of its range and a fence. `fenced: false` stops it short of that
    /// fence, as the power cut at it does.
    fn replay(&self, oracle: &mut MapArena, fenced: bool) {
        match *self {
            TrackerOp::Write(at, len, fill) => oracle.write(at, &pattern(len, fill)),
            TrackerOp::Flush(at, len) => oracle.flush(at, len),
            TrackerOp::Fence => {
                if fenced {
                    oracle.fence();
                }
            }
            TrackerOp::StorePersist(at, len, fill) => {
                oracle.write(at, &pattern(len, fill));
                oracle.flush(at, len);
                if fenced {
                    oracle.fence();
                }
            }
        }
    }
}

fn tracker_op() -> impl Strategy<Value = TrackerOp> {
    let write = || {
        (0..DIFF_CAPACITY, 0usize..300, any::<u8>())
            .prop_map(|(at, len, fill)| TrackerOp::Write(at, len.min(DIFF_CAPACITY - at), fill))
    };
    // The choice is uniform: two write arms make two fifths of the ops
    // plain stores, one fifth stores that persist themselves.
    prop_oneof![
        write(),
        write(),
        (0..DIFF_CAPACITY, 1usize..400)
            .prop_map(|(at, len)| TrackerOp::Flush(at, len.min(DIFF_CAPACITY - at))),
        Just(TrackerOp::Fence),
        (0..DIFF_CAPACITY, 1usize..300, any::<u8>()).prop_map(|(at, len, fill)| {
            TrackerOp::StorePersist(at, len.min(DIFF_CAPACITY - at), fill)
        }),
    ]
}

#[derive(Debug, Clone)]
enum ArenaOp {
    /// Write `value` to slot `slot`.
    Write(u8, u64),
    /// Flush slot.
    Flush(u8),
    /// Fence.
    Fence,
}

fn arena_op() -> impl Strategy<Value = ArenaOp> {
    prop_oneof![
        (0u8..8, any::<u64>()).prop_map(|(s, v)| ArenaOp::Write(s, v)),
        (0u8..8).prop_map(ArenaOp::Flush),
        Just(ArenaOp::Fence),
    ]
}

/// An armed arena is the unarmed one with the power cut at the tripped
/// persist point: the oracle is fed only the ops before it, plus the
/// stores and flush of a tripped `store_persist`, and after either kind of
/// crash both hold the same bytes. So the tripped fence commits nothing,
/// no later store survives, and lines left unfenced at the cut are kept or
/// lost as in any crash.
fn check_armed_against_the_cut_oracle(ops: &[TrackerOp], nth: u64, seed: u64, lose_all: bool) {
    let mut arena = PmArena::new(DIFF_CAPACITY);
    let mut oracle = MapArena::new(DIFF_CAPACITY);
    arena.arm(nth);
    let mut points = 0;
    for op in ops {
        let before = points;
        points += u64::from(op.persists());
        op.run(&mut arena);
        if before < nth {
            op.replay(&mut oracle, points < nth);
        }
        prop_assert_eq!(arena.powered_off(), points >= nth);
    }
    prop_assert_eq!(arena.persist_points(), points);
    prop_assert_eq!(arena.dirty_lines(), oracle.dirty.len());
    prop_assert_eq!(arena.stats(), oracle.stats);
    let (mut rng, mut oracle_rng) = (SimRng::seed(seed), SimRng::seed(seed));
    let (lost, oracle_lost) = if lose_all {
        (arena.crash_losing_all(), oracle.crash(None))
    } else {
        (arena.crash(&mut rng), oracle.crash(Some(&mut oracle_rng)))
    };
    prop_assert_eq!(lost, oracle_lost);
    prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64());
    prop_assert_eq!(arena.read(PmPtr(0), DIFF_CAPACITY), &oracle.data[..]);
    // The crash restored power and cleared the trip, fired or not.
    prop_assert!(!arena.powered_off());
    for _ in 0..nth {
        arena.write_u64(PmPtr(0), seed | 1);
        arena.persist(PmPtr(0), 8);
    }
    arena.crash_losing_all();
    prop_assert_eq!(arena.read_u64(PmPtr(0)), seed | 1);
}

proptest! {
    // Miri runs this file too; a few cases there exercise every path.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

    /// The dense tracker and the map oracle agree after every step — dirty
    /// count and every counter — and after the final crash: the same lines
    /// lost, the same bytes on the media, the RNG advanced by the same
    /// draws (so lines were visited in the same, ascending, order).
    #[test]
    fn dense_tracker_matches_the_map_oracle(
        ops in prop::collection::vec(tracker_op(), 0..80),
        seed in any::<u64>(),
        lose_all in any::<bool>(),
    ) {
        let mut arena = PmArena::new(DIFF_CAPACITY);
        let mut oracle = MapArena::new(DIFF_CAPACITY);
        for op in &ops {
            op.run(&mut arena);
            op.replay(&mut oracle, true);
            prop_assert_eq!(arena.dirty_lines(), oracle.dirty.len());
            prop_assert_eq!(arena.stats(), oracle.stats);
        }
        let (mut rng, mut oracle_rng) = (SimRng::seed(seed), SimRng::seed(seed));
        let (lost, oracle_lost) = if lose_all {
            (arena.crash_losing_all(), oracle.crash(None))
        } else {
            (arena.crash(&mut rng), oracle.crash(Some(&mut oracle_rng)))
        };
        prop_assert_eq!(lost, oracle_lost);
        prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64());
        prop_assert_eq!(arena.dirty_lines(), 0);
        prop_assert_eq!(arena.read(PmPtr(0), DIFF_CAPACITY), &oracle.data[..]);
        // The tracker is clean again: fresh stores start a fresh set.
        arena.write(PmPtr(0), &[1; 2 * LINE]);
        prop_assert_eq!(arena.dirty_lines(), 2);
    }

    #[test]
    fn armed_arena_is_the_oracle_cut_at_the_tripped_fence(
        ops in prop::collection::vec(tracker_op(), 0..80),
        nth in 1u64..12,
        seed in any::<u64>(),
        lose_all in any::<bool>(),
    ) {
        check_armed_against_the_cut_oracle(&ops, nth, seed, lose_all);
    }

    /// After any op sequence and a random crash: every slot holds either
    /// its last durable (fenced) value or any later value written to it —
    /// lines are atomic, so no third state exists.
    #[test]
    fn crash_leaves_each_line_in_a_written_state(
        ops in prop::collection::vec(arena_op(), 0..60),
        seed in any::<u64>(),
    ) {
        let mut arena = PmArena::new(8 * LINE + 4096);
        // One slot per cache line so slots fail independently.
        let slots: Vec<PmPtr> = (0..8)
            .map(|_| arena.alloc(LINE).expect("fits"))
            .collect();
        // Initialize all slots durably to 0.
        for &p in &slots {
            arena.write_u64(p, 0);
        }
        for &p in &slots {
            arena.flush(p, 8);
        }
        arena.fence();

        // Track, per slot, the last fenced value and all values written
        // since (any of which a crash may surface, including none).
        let mut durable = [0u64; 8];
        let mut since_fence: Vec<Vec<u64>> = vec![Vec::new(); 8];
        let mut flushed: [bool; 8] = [false; 8];
        let mut written: [Option<u64>; 8] = [None; 8];
        for op in &ops {
            match op {
                ArenaOp::Write(s, v) => {
                    let s = *s as usize;
                    arena.write_u64(slots[s], *v);
                    since_fence[s].push(*v);
                    written[s] = Some(*v);
                    flushed[s] = false;
                }
                ArenaOp::Flush(s) => {
                    let s = *s as usize;
                    if written[s].is_some() {
                        arena.flush(slots[s], 8);
                        flushed[s] = true;
                    }
                }
                ArenaOp::Fence => {
                    arena.fence();
                    for s in 0..8 {
                        if flushed[s] {
                            if let Some(v) = written[s] {
                                durable[s] = v;
                            }
                            since_fence[s].clear();
                            written[s] = None;
                            flushed[s] = false;
                        }
                    }
                }
            }
        }

        let mut rng = SimRng::seed(seed);
        arena.crash(&mut rng);
        for s in 0..8 {
            let v = arena.read_u64(slots[s]);
            let ok = v == durable[s] || since_fence[s].contains(&v);
            prop_assert!(
                ok,
                "slot {} holds {} — neither durable {} nor any of {:?}",
                s, v, durable[s], since_fence[s]
            );
        }
    }

    /// WAL recovery after a crash yields exactly the appended records (all
    /// appends are fenced), in order, regardless of which stray lines the
    /// crash kept.
    #[test]
    fn wal_recovers_exact_appended_prefix(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 0..25),
        seed in any::<u64>(),
    ) {
        let mut arena = PmArena::new(64 << 10);
        let mut wal = Wal::create(&mut arena, 32 << 10).expect("fits");
        for r in &records {
            let (head, tail) = r.split_at(r.len() / 2);
            assert!(wal.append(&mut arena, &[head, tail]));
        }
        let mut rng = SimRng::seed(seed);
        arena.crash(&mut rng);
        let mut recovered = Vec::new();
        Wal::recover(&mut arena, wal.region(), wal.capacity(), 0, |r| recovered.push(r.to_vec()));
        prop_assert_eq!(recovered, records);
    }
}

/// The cut lands exactly on a `store_persist` over lines both dirty and
/// clean, and a `store_persist` follows the cut: the random mix reaches
/// these, this pins them.
#[test]
fn armed_at_a_store_persist_and_storing_after_the_cut() {
    use TrackerOp::*;
    let ops = [
        Write(10, 100, 3),
        StorePersist(200, 150, 9),
        Write(500, 20, 5),
        Flush(500, 20),
        StorePersist(60, 520, 17),
        Write(0, 64, 1),
        StorePersist(0, 3 * LINE, 33),
        Fence,
    ];
    for seed in 0..8 {
        for lose_all in [false, true] {
            check_armed_against_the_cut_oracle(&ops, 2, seed, lose_all);
        }
    }
}

#[test]
fn arming_is_one_shot_and_counts_from_now() {
    let mut pm = PmArena::new(4096);
    let p = pm.alloc(8).expect("fits");
    pm.write_u64(p, 1);
    pm.persist(p, 8);
    assert_eq!(pm.persist_points(), 1);
    pm.arm(2);
    pm.write_u64(p, 2);
    pm.persist(p, 8);
    assert!(
        !pm.powered_off(),
        "the first point from now is not the second"
    );
    pm.write_u64(p, 3);
    pm.persist(p, 8);
    assert!(pm.powered_off());
    pm.write_u64(p, 4);
    pm.persist(p, 8);
    assert_eq!(pm.persist_points(), 4, "dropped points still count");
    assert_eq!(pm.read_u64(p), 3, "a store after the trip never happened");
    pm.crash_losing_all();
    assert_eq!(pm.read_u64(p), 2, "the tripped fence committed nothing");
    pm.write_u64(p, 5);
    pm.persist(p, 8);
    pm.crash_losing_all();
    assert_eq!(pm.read_u64(p), 5, "the trip fired once");
}

#[test]
fn set_root_is_a_persist_point() {
    let mut pm = PmArena::new(4096);
    pm.set_root(7);
    assert_eq!(pm.persist_points(), 1);
    pm.arm(1);
    pm.set_root(9);
    assert!(pm.powered_off());
    pm.crash_losing_all();
    assert_eq!(pm.root(), 7, "the tripped root update was dropped");
    pm.set_root(9);
    assert_eq!((pm.root(), pm.persist_points()), (9, 3));
}
