//! Detectably recoverable chained hash map in persistent memory.
//!
//! The PM-native conversion of [`HashMapKv`](super::HashMapKv): same
//! FNV-1a bucketing and ×2 growth policy, but every mutation is a
//! detectable operation built from the [`ploc`](crate::ploc) primitives:
//!
//! 1. the new node is written and persisted,
//! 2. the op's decision (the displaced node, or NULL) is recorded in the
//!    structure's [`Checkpoint`] — *before* the structure changes,
//! 3. the splice itself is a single [`DetectableCas`] on the pointer slot
//!    (bucket head word or predecessor `next` field) that reaches the
//!    node.
//!
//! Replaying an operation with the same `op_seq` after a crash is
//! exactly-once by construction: a durable checkpoint + `DONE` memento
//! short-circuits to the recorded outcome; a `PENDING` memento is rolled
//! forward by [`DetectableHashMap::open`]; anything earlier re-executes
//! against unchanged durable state (at worst leaking an unlinked node,
//! never duplicating or dropping an entry). Growth rebuilds into a fresh
//! bucket array and commits via a single atomic root swap, so a crash
//! mid-rebuild leaves the old table intact.
//!
//! Durable layout (all offsets in bytes):
//! - root block: `[bucket_array][nbuckets][checkpoint][cas]` (32)
//! - bucket array: `nbuckets` head words
//! - node: `[next][klen: u32][vlen: u32][key][value]` (16 + k + v)
//!
//! One structure owns the heap's root pointer; `len` is volatile and
//! recomputed by a chain walk on open.

use pmnet_sim::hash::{fnv1a, FNV_OFFSET};

use crate::arena::PmPtr;
use crate::ploc::{Checkpoint, Crashed, DetectableCas, PlocHeap};

const INITIAL_BUCKETS: u64 = 16;
const NODE_HDR: usize = 16;

/// A chained hash map whose mutations replay exactly-once after a crash.
#[derive(Debug)]
pub struct DetectableHashMap {
    block: PmPtr,
    array: PmPtr,
    nbuckets: u64,
    ck: Checkpoint<PmPtr>,
    cas: DetectableCas,
    len: usize,
    /// Node displaced by the most recent op; freed at the next op so a
    /// replay of the latest `op_seq` can still read its value.
    deferred_free: Option<PmPtr>,
}

impl DetectableHashMap {
    /// Builds an empty map and installs it as the heap's root object.
    /// Panics if the arena cannot hold the metadata.
    pub fn create(heap: &mut PlocHeap) -> Result<DetectableHashMap, Crashed> {
        let ck: Checkpoint<PmPtr> = Checkpoint::alloc(heap).expect("arena exhausted");
        let cas = DetectableCas::alloc(heap).expect("arena exhausted");
        let array = Self::alloc_buckets(heap, INITIAL_BUCKETS)?;
        let block = heap.arena().alloc(32).expect("arena exhausted");
        let arena = heap.arena();
        arena.write_u64(block, array.0);
        arena.write_u64(PmPtr(block.0 + 8), INITIAL_BUCKETS);
        arena.write_u64(PmPtr(block.0 + 16), ck.ptr().0);
        arena.write_u64(PmPtr(block.0 + 24), cas.ptr().0);
        heap.persist(block, 32)?;
        heap.persist_root(block.0)?;
        Ok(DetectableHashMap {
            block,
            array,
            nbuckets: INITIAL_BUCKETS,
            ck,
            cas,
            len: 0,
            deferred_free: None,
        })
    }

    /// Recovers the map from the heap's root: rolls any pending CAS
    /// forward, then rebuilds the volatile length by walking the chains.
    pub fn open(heap: &mut PlocHeap) -> Result<DetectableHashMap, Crashed> {
        let block = PmPtr(heap.root());
        assert!(!block.is_null(), "no hash map at the heap root");
        let arena = heap.arena();
        let array = PmPtr(arena.read_u64(block));
        let nbuckets = arena.read_u64(PmPtr(block.0 + 8));
        let ck = Checkpoint::from_ptr(PmPtr(arena.read_u64(PmPtr(block.0 + 16))));
        let cas = DetectableCas::from_ptr(PmPtr(arena.read_u64(PmPtr(block.0 + 24))));
        cas.recover(heap)?;
        let mut map = DetectableHashMap {
            block,
            array,
            nbuckets,
            ck,
            cas,
            len: 0,
            deferred_free: None,
        };
        map.len = map.walk_len(heap);
        Ok(map)
    }

    fn alloc_buckets(heap: &mut PlocHeap, n: u64) -> Result<PmPtr, Crashed> {
        let bytes = (n as usize) * 8;
        let arr = heap.arena().alloc(bytes).expect("arena exhausted");
        heap.arena().write(arr, &vec![0u8; bytes]);
        heap.persist(arr, bytes)?;
        Ok(arr)
    }

    fn bucket_slot(&self, idx: u64) -> PmPtr {
        PmPtr(self.array.0 + idx * 8)
    }

    fn node_key(heap: &mut PlocHeap, node: PmPtr) -> Vec<u8> {
        let klen = heap.arena().read_u64(PmPtr(node.0 + 8)) as u32 as usize;
        heap.arena()
            .read(PmPtr(node.0 + NODE_HDR as u64), klen)
            .to_vec()
    }

    fn node_value(heap: &mut PlocHeap, node: PmPtr) -> Vec<u8> {
        let meta = heap.arena().read_u64(PmPtr(node.0 + 8));
        let klen = meta as u32 as usize;
        let vlen = (meta >> 32) as u32 as usize;
        heap.arena()
            .read(PmPtr(node.0 + (NODE_HDR + klen) as u64), vlen)
            .to_vec()
    }

    fn node_len(heap: &mut PlocHeap, node: PmPtr) -> usize {
        let meta = heap.arena().read_u64(PmPtr(node.0 + 8));
        NODE_HDR + meta as u32 as usize + ((meta >> 32) as u32 as usize)
    }

    /// Finds `key`'s chain position: the pointer slot whose target is the
    /// matching node (`Some(node)`), or the bucket head slot when absent.
    fn search(&self, heap: &mut PlocHeap, key: &[u8]) -> (PmPtr, Option<PmPtr>) {
        let mut slot = self.bucket_slot(fnv1a(FNV_OFFSET, key) % self.nbuckets);
        let mut cur = heap.arena().read_u64(slot);
        while cur != 0 {
            let node = PmPtr(cur);
            if Self::node_key(heap, node) == key {
                return (slot, Some(node));
            }
            slot = node; // the node's `next` field is its first word
            cur = heap.arena().read_u64(slot);
        }
        (
            self.bucket_slot(fnv1a(FNV_OFFSET, key) % self.nbuckets),
            None,
        )
    }

    fn write_node(heap: &mut PlocHeap, next: u64, key: &[u8], value: &[u8]) -> PmPtr {
        let len = NODE_HDR + key.len() + value.len();
        let node = heap.arena().alloc(len).expect("arena exhausted");
        let arena = heap.arena();
        arena.write_u64(node, next);
        arena.write_u64(
            PmPtr(node.0 + 8),
            key.len() as u64 | ((value.len() as u64) << 32),
        );
        arena.write(PmPtr(node.0 + NODE_HDR as u64), key);
        arena.write(PmPtr(node.0 + (NODE_HDR + key.len()) as u64), value);
        node
    }

    fn drain_deferred(&mut self, heap: &mut PlocHeap) {
        if let Some(node) = self.deferred_free.take() {
            let len = Self::node_len(heap, node);
            heap.arena().free(node, len);
        }
    }

    /// Inserts or replaces `key`. Returns `true` when a previous value
    /// was displaced. `op_seq` must be unique and non-zero per operation;
    /// re-invoking with an already-applied `op_seq` returns the recorded
    /// outcome without mutating the map.
    pub fn insert(
        &mut self,
        heap: &mut PlocHeap,
        op_seq: u64,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, Crashed> {
        if let Some(displaced) = self.ck.saved(heap, op_seq) {
            if self.cas.saved(heap, op_seq).is_some() {
                return Ok(!displaced.is_null());
            }
            // Decision durable but splice never started (the memento is
            // older or torn): durable state is unchanged — re-execute.
        }
        self.drain_deferred(heap);
        if self.len as u64 * 4 > self.nbuckets * 3 {
            self.grow(heap)?;
        }
        let (slot, found) = self.search(heap, key);
        let next = match found {
            Some(node) => heap.arena().read_u64(node), // splice-replace
            None => heap.arena().read_u64(slot),       // push at head
        };
        let node = Self::write_node(heap, next, key, value);
        let node_bytes = NODE_HDR + key.len() + value.len();
        heap.persist(node, node_bytes)?;
        let displaced = found.unwrap_or(PmPtr::NULL);
        self.ck.record(heap, op_seq, displaced)?;
        let expected = match found {
            Some(f) => f.0,
            None => next,
        };
        let out = self.cas.cas(heap, op_seq, slot, expected, node.0)?;
        debug_assert!(out.swapped, "single-owner CAS cannot fail");
        if let Some(old) = found {
            self.deferred_free = Some(old);
        } else {
            self.len += 1;
        }
        Ok(found.is_some())
    }

    /// Removes `key`. Returns `true` when an entry was removed. Same
    /// `op_seq` replay contract as [`insert`](DetectableHashMap::insert).
    pub fn remove(
        &mut self,
        heap: &mut PlocHeap,
        op_seq: u64,
        key: &[u8],
    ) -> Result<bool, Crashed> {
        if let Some(displaced) = self.ck.saved(heap, op_seq) {
            if displaced.is_null() {
                // Absent-key removes never splice; the checkpoint alone
                // is the whole durable footprint.
                return Ok(false);
            }
            if self.cas.saved(heap, op_seq).is_some() {
                return Ok(true);
            }
        }
        self.drain_deferred(heap);
        let (slot, found) = self.search(heap, key);
        let displaced = found.unwrap_or(PmPtr::NULL);
        self.ck.record(heap, op_seq, displaced)?;
        let Some(node) = found else {
            return Ok(false);
        };
        let next = heap.arena().read_u64(node);
        let out = self.cas.cas(heap, op_seq, slot, node.0, next)?;
        debug_assert!(out.swapped, "single-owner CAS cannot fail");
        self.deferred_free = Some(node);
        self.len -= 1;
        Ok(true)
    }

    /// Looks up `key`, copying the value out of PM.
    pub fn get(&self, heap: &mut PlocHeap, key: &[u8]) -> Option<Vec<u8>> {
        let (_, found) = self.search(heap, key);
        found.map(|node| Self::node_value(heap, node))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current bucket-array width.
    pub fn bucket_count(&self) -> u64 {
        self.nbuckets
    }

    /// Rebuilds into a ×2 bucket array (copying every node) and commits
    /// with one atomic root swap; a crash mid-rebuild leaks the copies
    /// but leaves the old table fully intact.
    fn grow(&mut self, heap: &mut PlocHeap) -> Result<(), Crashed> {
        let new_n = self.nbuckets * 2;
        let new_arr = Self::alloc_buckets(heap, new_n)?;
        let mut old_nodes = Vec::new();
        for b in 0..self.nbuckets {
            let mut cur = heap.arena().read_u64(self.bucket_slot(b));
            while cur != 0 {
                let node = PmPtr(cur);
                old_nodes.push(node);
                let key = Self::node_key(heap, node);
                let value = Self::node_value(heap, node);
                let head_slot = PmPtr(new_arr.0 + (fnv1a(FNV_OFFSET, &key) % new_n) * 8);
                let head = heap.arena().read_u64(head_slot);
                let copy = Self::write_node(heap, head, &key, &value);
                let copy_bytes = NODE_HDR + key.len() + value.len();
                heap.persist(copy, copy_bytes)?;
                heap.arena().write_u64(head_slot, copy.0);
                cur = heap.arena().read_u64(node);
            }
        }
        let nbytes = (new_n as usize) * 8;
        heap.persist(new_arr, nbytes)?;
        let new_block = heap.arena().alloc(32).expect("arena exhausted");
        let arena = heap.arena();
        arena.write_u64(new_block, new_arr.0);
        arena.write_u64(PmPtr(new_block.0 + 8), new_n);
        arena.write_u64(PmPtr(new_block.0 + 16), self.ck.ptr().0);
        arena.write_u64(PmPtr(new_block.0 + 24), self.cas.ptr().0);
        heap.persist(new_block, 32)?;
        heap.persist_root(new_block.0)?;
        // Committed: retire the old generation (allocator state is
        // volatile, so this is bookkeeping only).
        for node in old_nodes {
            let len = Self::node_len(heap, node);
            heap.arena().free(node, len);
        }
        heap.arena().free(self.array, (self.nbuckets as usize) * 8);
        heap.arena().free(self.block, 32);
        self.block = new_block;
        self.array = new_arr;
        self.nbuckets = new_n;
        Ok(())
    }

    fn walk_len(&self, heap: &mut PlocHeap) -> usize {
        let mut n = 0;
        for b in 0..self.nbuckets {
            let mut cur = heap.arena().read_u64(self.bucket_slot(b));
            while cur != 0 {
                n += 1;
                cur = heap.arena().read_u64(PmPtr(cur));
            }
        }
        n
    }

    /// Content digest: FNV-1a over every `(key, value)` pair in bucket
    /// and chain order, folded with the length. Two maps with identical
    /// durable content (and bucket width) digest identically.
    pub fn digest(&self, heap: &mut PlocHeap) -> u64 {
        let mut h = FNV_OFFSET;
        for b in 0..self.nbuckets {
            let mut cur = heap.arena().read_u64(self.bucket_slot(b));
            while cur != 0 {
                let node = PmPtr(cur);
                let key = Self::node_key(heap, node);
                let value = Self::node_value(heap, node);
                h = fnv1a(h, &(key.len() as u32).to_le_bytes());
                h = fnv1a(h, &key);
                h = fnv1a(h, &(value.len() as u32).to_le_bytes());
                h = fnv1a(h, &value);
                cur = heap.arena().read_u64(node);
            }
        }
        h = fnv1a(h, &(self.len as u64).to_le_bytes());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_and_replace() {
        let mut heap = PlocHeap::new(1 << 20);
        let mut map = DetectableHashMap::create(&mut heap).unwrap();
        assert!(!map.insert(&mut heap, 1, b"alpha", b"1").unwrap());
        assert!(map.insert(&mut heap, 2, b"alpha", b"2").unwrap());
        assert_eq!(map.get(&mut heap, b"alpha"), Some(b"2".to_vec()));
        assert_eq!(map.len(), 1);
        assert!(map.remove(&mut heap, 3, b"alpha").unwrap());
        assert!(!map.remove(&mut heap, 4, b"alpha").unwrap());
        assert!(map.is_empty());
    }

    #[test]
    fn replay_of_applied_ops_does_not_mutate() {
        let mut heap = PlocHeap::new(1 << 20);
        let mut map = DetectableHashMap::create(&mut heap).unwrap();
        map.insert(&mut heap, 1, b"k", b"v1").unwrap();
        let before = map.digest(&mut heap);
        // Redo-log resend of the already-applied op.
        assert!(!map.insert(&mut heap, 1, b"k", b"v1").unwrap());
        assert_eq!(map.digest(&mut heap), before);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn grows_past_the_load_factor_and_keeps_content() {
        let mut heap = PlocHeap::new(1 << 22);
        let mut map = DetectableHashMap::create(&mut heap).unwrap();
        let mut model = BTreeMap::new();
        for i in 0u64..200 {
            let k = format!("key-{i:04}");
            let v = format!("val-{i}");
            map.insert(&mut heap, i + 1, k.as_bytes(), v.as_bytes())
                .unwrap();
            model.insert(k, v);
        }
        assert!(map.bucket_count() > INITIAL_BUCKETS);
        assert_eq!(map.len(), model.len());
        for (k, v) in &model {
            assert_eq!(
                map.get(&mut heap, k.as_bytes()),
                Some(v.clone().into_bytes())
            );
        }
        // Reopen from the root: same content, same digest.
        let d = map.digest(&mut heap);
        let reopened = DetectableHashMap::open(&mut heap).unwrap();
        assert_eq!(reopened.len(), model.len());
        assert_eq!(reopened.digest(&mut heap), d);
    }

    #[test]
    fn open_after_clean_persist_restores_everything() {
        let mut heap = PlocHeap::new(1 << 20);
        let mut map = DetectableHashMap::create(&mut heap).unwrap();
        map.insert(&mut heap, 1, b"a", b"1").unwrap();
        map.insert(&mut heap, 2, b"b", b"2").unwrap();
        let d = map.digest(&mut heap);
        heap.crash_losing_all();
        let map = DetectableHashMap::open(&mut heap).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.digest(&mut heap), d);
        assert_eq!(map.get(&mut heap, b"b"), Some(b"2".to_vec()));
    }
}
