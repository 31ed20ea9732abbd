//! Crash-point sweep over the store every KV request is served from:
//! [`PersistentKv`] over each of the five `store_by_name` indexes.
//!
//! For a recorded trace, cut the power at **every** persist point of every
//! op — each `apply`, the WAL-full checkpoint an `apply` runs on its own,
//! each explicit `checkpoint()` that retires a non-empty image — under
//! both failure modes: every unfenced line lost, and seeded torn lines
//! (any subset survives). Recover and require the contents to be exactly
//! the state before or the state after the interrupted op: never a panic,
//! never an earlier op lost, never a truncated record back from the dead.
//! Then replay the op, require the after-state, and require it again after
//! a second power cycle. Arming one past an op's recorded persist points
//! must not fire inside it: that is the proof the sweep covered them all.

use std::collections::BTreeMap;

use pmnet_pmem::kv::store_by_name;
use pmnet_pmem::{KvOp, PersistentKv};
use pmnet_sim::SimRng;

type Contents = BTreeMap<Vec<u8>, Vec<u8>>;

enum Op {
    Put(Vec<u8>, Vec<u8>),
    Del(Vec<u8>),
    Checkpoint,
}

/// Torn crashes tried at each kill point, and at the one append whose
/// record ends on a cache-line boundary.
const TORN_SEEDS: u64 = 8;
const ALIGNED_TORN_SEEDS: u64 = 64;
/// Index in [`trace`] of that append.
const ALIGNED_OP: usize = 7;

/// An 11-byte key and, up to tag 2, a 72-byte value: with the 5-byte op
/// header and the 8-byte record header such a `Put` is a 96-byte WAL
/// record. The WAL region starts at arena offset 96, so every other one
/// ends on a line boundary and its terminator sits alone on the next line.
/// Later tags carry 80 bytes, so successive images differ in length by
/// less than an entry and an old length never frames a new image.
fn put(k: u32, tag: u8) -> Op {
    Op::Put(key(k), vec![tag; if tag <= 2 { 72 } else { 80 }])
}

fn key(k: u32) -> Vec<u8> {
    format!("key-{k:07}").into_bytes()
}

/// The store is a 512-byte WAL (four 104-byte records) and 1 KiB images.
fn trace() -> Vec<Op> {
    let mut ops: Vec<Op> = (0..4).map(|k| put(k, 1)).collect();
    ops.push(Op::Checkpoint);
    // Three records over the four truncated ones. The third ends where the
    // old fourth (key 3, tag 1) still lies intact: a torn crash that keeps
    // the record and loses its terminator's line runs the scan into it,
    // and replaying it would undo the acknowledged key 3, tag 2.
    ops.extend([put(3, 2), put(1, 2), put(0, 2)]);
    assert_eq!(ops.len() - 1, ALIGNED_OP);
    ops.extend([Op::Del(key(2)), Op::Del(key(2)), Op::Checkpoint]);
    // Four records fill the log; the fifth checkpoints inside `apply`.
    ops.extend([put(4, 3), put(5, 3), put(1, 3), put(6, 3)]);
    ops.push(put(0, 3));
    ops.extend([put(7, 3), put(2, 4), Op::Del(key(4)), Op::Checkpoint]);
    ops.extend([put(5, 5), Op::Del(key(0))]);
    ops
}

fn fresh(name: &str) -> PersistentKv {
    PersistentKv::create(store_by_name(name, 7), 4096, 512, 1024)
}

fn run(kv: &mut PersistentKv, op: &Op) {
    match op {
        Op::Put(key, value) => drop(kv.apply(&KvOp::Put { key, value })),
        Op::Del(key) => drop(kv.apply(&KvOp::Del { key })),
        Op::Checkpoint => kv.checkpoint(),
    }
}

fn contents(kv: &PersistentKv) -> Contents {
    let mut m = BTreeMap::new();
    kv.for_each(&mut |k, v| {
        m.insert(k.to_vec(), v.to_vec());
    });
    m
}

/// A fresh store taken cleanly through `ops`.
fn prefix(name: &str, ops: &[Op]) -> PersistentKv {
    let mut kv = fresh(name);
    ops.iter().for_each(|op| run(&mut kv, op));
    kv
}

/// Power failure and recovery: torn lines under `torn`'s seed, or every
/// unfenced line lost.
fn power_cycle(mut kv: PersistentKv, torn: Option<u64>, name: &str) -> PersistentKv {
    if torn.is_none() {
        kv.arena_mut().crash_losing_all();
    }
    // After a lose-all nothing is left for this to draw on.
    let arena = kv.crash(&mut SimRng::seed(torn.unwrap_or(0)));
    PersistentKv::recover(arena, store_by_name(name, 7))
}

/// Sweeps one index; returns (kill points, cases).
fn sweep(name: &str) -> (u64, u64) {
    let ops = trace();
    // Reference run: persist points per op, contents around each.
    let mut kv = fresh(name);
    let mut points = Vec::new();
    let mut states = vec![contents(&kv)];
    for op in &ops {
        let before = kv.arena_mut().persist_points();
        run(&mut kv, op);
        points.push(kv.arena_mut().persist_points() - before);
        states.push(contents(&kv));
    }
    // The trace has the shapes the sweep exists for: an append behind an
    // automatic checkpoint (3 + 1 fences) and three explicit checkpoints
    // of a non-empty index, the last two retiring a non-empty image.
    let shaped = |checkpoint: bool, fences: u64| {
        let shape =
            |(op, &n): (&Op, &u64)| matches!(op, Op::Checkpoint) == checkpoint && n == fences;
        ops.iter().zip(&points).filter(|&x| shape(x)).count()
    };
    assert_eq!((shaped(false, 4), shaped(true, 3)), (1, 3));

    let (mut kill_points, mut cases) = (0, 0);
    for (i, op) in ops.iter().enumerate() {
        let (before, after) = (&states[i], &states[i + 1]);
        let torn_seeds = if i == ALIGNED_OP {
            ALIGNED_TORN_SEEDS
        } else {
            TORN_SEEDS
        };
        for point in 1..=points[i] {
            kill_points += 1;
            let torn = (0..torn_seeds).map(|s| Some((i as u64) << 16 | point << 8 | s));
            for mode in std::iter::once(None).chain(torn) {
                cases += 1;
                let ctx = format!("{name}: op {i} point {point} torn {mode:?}");
                let mut kv = prefix(name, &ops[..i]);
                kv.arena_mut().arm(point);
                run(&mut kv, op);
                assert!(kv.arena_mut().powered_off(), "{ctx}: did not trip");
                let mut kv = power_cycle(kv, mode, name);
                let got = contents(&kv);
                assert!(
                    got == *before || got == *after,
                    "{ctx}: recovered neither the state before nor after:\n{got:?}"
                );
                run(&mut kv, op);
                assert_eq!(contents(&kv), *after, "{ctx}: replay diverged");
                let kv = power_cycle(kv, None, name);
                assert_eq!(contents(&kv), *after, "{ctx}: replay was not durable");
            }
        }
        // Coverage proof: the op has no persist point past those swept.
        let mut kv = prefix(name, &ops[..i]);
        kv.arena_mut().arm(points[i] + 1);
        run(&mut kv, op);
        assert!(
            !kv.arena_mut().powered_off(),
            "{name}: op {i} has a persist point the sweep never killed"
        );
    }
    (kill_points, cases)
}

#[test]
fn serving_store_survives_a_kill_at_every_persist_point() {
    for name in ["btree", "ctree", "rbtree", "hashmap", "skiplist"] {
        let (kill_points, cases) = sweep(name);
        println!("{name}: {kill_points} kill points, {cases} cases");
        assert!(kill_points >= 31, "{name}: only {kill_points} swept");
        let aligned_extra = ALIGNED_TORN_SEEDS - TORN_SEEDS;
        assert_eq!(cases, kill_points * (1 + TORN_SEEDS) + aligned_extra);
    }
}
