//! Key-value index structures mirroring the paper's PMDK workloads
//! (Section VI-A2): B-Tree, C-Tree (crit-bit), RB-Tree, Hashmap, and Skip
//! list.
//!
//! Each structure is a real implementation of its algorithm, instrumented
//! with [`OpStats`] counters (nodes visited, key comparisons, bytes moved)
//! so the server model can derive per-request service times from work
//! actually done, rather than from a fixed constant. Crash consistency is
//! provided one level up by [`crate::PersistentKv`] (WAL + checkpoint),
//! which is what the KV handler serves from, sequential or pooled apply.

mod btree;
mod crit_bit;
mod hashmap;
mod rbtree;
mod skiplist;

pub use btree::BTreeKv;
pub use crit_bit::CritBitKv;
pub use hashmap::HashMapKv;
pub use rbtree::RbTreeKv;
pub use skiplist::SkipListKv;

/// Work counters accumulated by a KV structure since the last
/// [`KvStore::take_stats`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Tree/list/bucket nodes touched.
    pub nodes_visited: u64,
    /// Key comparisons performed.
    pub key_comparisons: u64,
    /// Key/value bytes copied.
    pub bytes_moved: u64,
}

impl OpStats {
    /// Component-wise sum.
    pub fn merge(self, other: OpStats) -> OpStats {
        OpStats {
            nodes_visited: self.nodes_visited + other.nodes_visited,
            key_comparisons: self.key_comparisons + other.key_comparisons,
            bytes_moved: self.bytes_moved + other.bytes_moved,
        }
    }
}

/// Common interface of the five index structures.
///
/// Methods take `&mut self` even for reads because every operation updates
/// the instrumentation counters.
pub trait KvStore: std::fmt::Debug {
    /// The structure's name as used in the paper's figures (e.g. "btree").
    fn name(&self) -> &'static str;

    /// Looks up `key`, borrowing its value.
    fn get(&mut self, key: &[u8]) -> Option<&[u8]>;

    /// Inserts or replaces `key`; a replaced value is overwritten in its
    /// own buffer. Returns whether it replaced one.
    fn insert(&mut self, key: &[u8], value: &[u8]) -> bool;

    /// Removes `key`, returning its value if present.
    fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>>;

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// True if no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns and resets the work counters.
    fn take_stats(&mut self) -> OpStats;

    /// Visits every `(key, value)` pair (order unspecified); used by
    /// checkpointing.
    fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8]));
}

/// Constructs a fresh store of each kind; used by generic tests, the
/// workloads crate and the benches.
pub fn all_stores(seed: u64) -> Vec<Box<dyn KvStore>> {
    vec![
        Box::new(BTreeKv::new()),
        Box::new(CritBitKv::new()),
        Box::new(RbTreeKv::new()),
        Box::new(HashMapKv::new()),
        Box::new(SkipListKv::new(seed)),
    ]
}

/// Constructs a store by its paper name (`btree`, `ctree`, `rbtree`,
/// `hashmap`, `skiplist`).
///
/// # Panics
///
/// Panics on an unknown name.
pub fn store_by_name(name: &str, seed: u64) -> Box<dyn KvStore> {
    match name {
        "btree" => Box::new(BTreeKv::new()),
        "ctree" => Box::new(CritBitKv::new()),
        "rbtree" => Box::new(RbTreeKv::new()),
        "hashmap" => Box::new(HashMapKv::new()),
        "skiplist" => Box::new(SkipListKv::new(seed)),
        other => panic!("unknown store kind: {other}"),
    }
}

#[cfg(test)]
mod conformance {
    //! Differential tests: every structure must behave exactly like
    //! `std::collections::BTreeMap` over arbitrary operation sequences.

    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>, Vec<u8>),
        Remove(Vec<u8>),
        Get(Vec<u8>),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let key = prop::collection::vec(0u8..8, 0..5); // small space -> collisions
        let val = prop::collection::vec(any::<u8>(), 0..20);
        prop_oneof![
            (key.clone(), val).prop_map(|(k, v)| Op::Insert(k, v)),
            key.clone().prop_map(Op::Remove),
            key.prop_map(Op::Get),
        ]
    }

    fn check_against_model(store: &mut dyn KvStore, ops: &[Op]) {
        let name = store.name();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    // The value an insert replaces, checked before it goes.
                    let before = model.get(k).map(Vec::as_slice);
                    assert_eq!(store.get(k), before, "get {k:?} on {name}");
                    let expect = model.insert(k.clone(), v.clone()).is_some();
                    assert_eq!(store.insert(k, v), expect, "insert {k:?} on {name}");
                }
                Op::Remove(k) => {
                    let expect = model.remove(k);
                    assert_eq!(store.remove(k), expect, "remove {k:?} on {name}");
                }
                Op::Get(k) => {
                    let expect = model.get(k).map(Vec::as_slice);
                    assert_eq!(store.get(k), expect, "get {k:?} on {name}");
                }
            }
            assert_eq!(store.len(), model.len(), "len mismatch on {name}");
        }
        // for_each visits exactly the model's pairs.
        let mut seen: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        store.for_each(&mut |k, v| {
            assert!(
                seen.insert(k.to_vec(), v.to_vec()).is_none(),
                "duplicate key"
            );
        });
        assert_eq!(seen, model, "for_each mismatch on {name}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn all_structures_match_btreemap(ops in prop::collection::vec(op_strategy(), 0..200)) {
            for mut store in all_stores(7) {
                check_against_model(store.as_mut(), &ops);
            }
        }
    }

    #[test]
    fn stats_accumulate_and_reset() {
        for mut store in all_stores(1) {
            store.insert(b"key", b"value");
            store.get(b"key");
            let s = store.take_stats();
            assert!(s.nodes_visited > 0 || s.bytes_moved > 0, "{}", store.name());
            let s2 = store.take_stats();
            assert_eq!(s2, OpStats::default(), "{}", store.name());
        }
    }

    #[test]
    fn store_by_name_round_trips() {
        for name in ["btree", "ctree", "rbtree", "hashmap", "skiplist"] {
            let store = store_by_name(name, 3);
            assert_eq!(store.name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown store kind")]
    fn unknown_store_panics() {
        let _ = store_by_name("splay", 0);
    }

    #[test]
    fn large_sequential_and_reverse_workload() {
        for mut store in all_stores(5) {
            for i in 0..1000u32 {
                store.insert(&i.to_be_bytes(), &i.to_le_bytes());
            }
            assert_eq!(store.len(), 1000);
            for i in (0..1000u32).rev() {
                assert_eq!(store.get(&i.to_be_bytes()), Some(&i.to_le_bytes()[..]));
            }
            for i in (0..1000u32).step_by(2) {
                assert!(store.remove(&i.to_be_bytes()).is_some());
            }
            assert_eq!(store.len(), 500, "{}", store.name());
            for i in 0..1000u32 {
                let present = store.get(&i.to_be_bytes()).is_some();
                assert_eq!(present, i % 2 == 1, "{} key {i}", store.name());
            }
        }
    }

    #[test]
    fn empty_key_and_empty_value_are_legal() {
        for mut store in all_stores(9) {
            assert!(!store.insert(b"", b""));
            assert_eq!(store.get(b""), Some(&[][..]));
            assert!(store.insert(b"", b"x"));
            assert_eq!(store.remove(b""), Some(b"x".to_vec()));
            assert!(store.is_empty(), "{}", store.name());
        }
    }

    /// A same-length replace overwrites the value in its own buffer: the
    /// bytes `get` borrows stay where they were. A store that hands back
    /// a fresh copy moves them.
    fn replace_keeps_the_value_buffer(mut store: Box<dyn KvStore>) {
        for i in 0..100u32 {
            store.insert(&i.to_be_bytes(), &[1; 48]);
        }
        let (key, name) = (37u32.to_be_bytes(), store.name());
        let before = store.get(&key).expect("present").as_ptr();
        assert!(store.insert(&key, &[2; 48]));
        let after = store.get(&key).expect("present");
        assert_eq!(after, &[2; 48][..], "{name}");
        assert_eq!(after.as_ptr(), before, "{name} copied the value");
    }

    #[test]
    fn btree_replace_keeps_the_value_buffer() {
        replace_keeps_the_value_buffer(store_by_name("btree", 0));
    }

    #[test]
    fn ctree_replace_keeps_the_value_buffer() {
        replace_keeps_the_value_buffer(store_by_name("ctree", 0));
    }

    #[test]
    fn rbtree_replace_keeps_the_value_buffer() {
        replace_keeps_the_value_buffer(store_by_name("rbtree", 0));
    }

    #[test]
    fn hashmap_replace_keeps_the_value_buffer() {
        replace_keeps_the_value_buffer(store_by_name("hashmap", 0));
    }

    #[test]
    fn skiplist_replace_keeps_the_value_buffer() {
        replace_keeps_the_value_buffer(store_by_name("skiplist", 0));
    }
}
