//! Detectably recoverable skiplist in persistent memory.
//!
//! The PM-native conversion of [`SkipListKv`](super::SkipListKv). The
//! durable truth is the sorted level-0 linked list: every splice into it
//! is one [`DetectableCas`] on the predecessor's `next0` word (or the
//! head word in the root block), preceded by a [`Checkpoint`] of the
//! op's decision — the same exactly-once protocol as the detectable hash
//! map. The express lanes above level 0 are a volatile index (the
//! classic NV-skiplist split): towers carry no durability obligations,
//! are rebuilt deterministically on [`DetectableSkipList::open`] from
//! heights stored in the nodes, and therefore add **zero** persist
//! points to a mutation, which keeps the crash-point sweep surface
//! identical for every key.
//!
//! Durable layout:
//! - root block: `[head0][checkpoint][cas]` (24, padded to 32)
//! - node: `[next0][height][klen: u32][vlen: u32][key][value]` (24 + k + v)

use pmnet_sim::hash::{fnv1a, FNV_OFFSET};

use crate::arena::PmPtr;
use crate::ploc::{Checkpoint, Crashed, DetectableCas, PlocHeap};

const MAX_LEVEL: usize = 16;
const NIL: usize = usize::MAX;
const NODE_HDR: usize = 24;

/// Deterministic height generator (splitmix64), matching the volatile
/// skiplist's 1/4 tower distribution.
#[derive(Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn height(&mut self) -> usize {
        let mut h = 1;
        while h < MAX_LEVEL && self.next() & 3 == 0 {
            h += 1;
        }
        h
    }
}

/// Volatile tower node: key copy for comparisons, the PM node it fronts,
/// and per-level successors into the `towers` arena.
#[derive(Debug)]
struct Tower {
    key: Vec<u8>,
    pm: PmPtr,
    next: Vec<usize>,
}

/// A sorted map whose mutations replay exactly-once after a crash.
#[derive(Debug)]
pub struct DetectableSkipList {
    block: PmPtr,
    ck: Checkpoint<PmPtr>,
    cas: DetectableCas,
    len: usize,
    deferred_free: Option<PmPtr>,
    towers: Vec<Tower>,
    free: Vec<usize>,
    head: [usize; MAX_LEVEL],
    level: usize,
    rng: SplitMix,
}

impl DetectableSkipList {
    /// Builds an empty list and installs it as the heap's root object.
    /// `seed` drives tower heights for *new* inserts (recovery re-reads
    /// heights from the nodes, so the seed never affects durable state).
    pub fn create(heap: &mut PlocHeap, seed: u64) -> Result<DetectableSkipList, Crashed> {
        let ck: Checkpoint<PmPtr> = Checkpoint::alloc(heap).expect("arena exhausted");
        let cas = DetectableCas::alloc(heap).expect("arena exhausted");
        let block = heap.arena().alloc(32).expect("arena exhausted");
        let arena = heap.arena();
        arena.write_u64(block, 0);
        arena.write_u64(PmPtr(block.0 + 8), ck.ptr().0);
        arena.write_u64(PmPtr(block.0 + 16), cas.ptr().0);
        arena.write_u64(PmPtr(block.0 + 24), 0);
        heap.persist(block, 32)?;
        heap.persist_root(block.0)?;
        Ok(DetectableSkipList {
            block,
            ck,
            cas,
            len: 0,
            deferred_free: None,
            towers: Vec::new(),
            free: Vec::new(),
            head: [NIL; MAX_LEVEL],
            level: 1,
            rng: SplitMix(seed ^ 0xABCD_EF01),
        })
    }

    /// Recovers the list from the heap's root: rolls any pending CAS
    /// forward, then rebuilds the volatile towers (and length) by walking
    /// the durable level-0 chain in key order.
    pub fn open(heap: &mut PlocHeap, seed: u64) -> Result<DetectableSkipList, Crashed> {
        let block = PmPtr(heap.root());
        assert!(!block.is_null(), "no skiplist at the heap root");
        let arena = heap.arena();
        let ck = Checkpoint::from_ptr(PmPtr(arena.read_u64(PmPtr(block.0 + 8))));
        let cas = DetectableCas::from_ptr(PmPtr(arena.read_u64(PmPtr(block.0 + 16))));
        cas.recover(heap)?;
        let mut list = DetectableSkipList {
            block,
            ck,
            cas,
            len: 0,
            deferred_free: None,
            towers: Vec::new(),
            free: Vec::new(),
            head: [NIL; MAX_LEVEL],
            level: 1,
            rng: SplitMix(seed ^ 0xABCD_EF01),
        };
        // Walk level 0 (already sorted): append towers left-to-right,
        // tracking the rightmost tower per level to relink lanes without
        // re-searching.
        let mut rightmost = [NIL; MAX_LEVEL];
        let mut cur = heap.arena().read_u64(block);
        while cur != 0 {
            let pm = PmPtr(cur);
            let height = (heap.arena().read_u64(PmPtr(pm.0 + 8)) as usize).clamp(1, MAX_LEVEL);
            let key = Self::node_key(heap, pm);
            let idx = list.towers.len();
            list.towers.push(Tower {
                key,
                pm,
                next: vec![NIL; height],
            });
            for (lvl, right) in rightmost.iter_mut().enumerate().take(height) {
                if *right == NIL {
                    list.head[lvl] = idx;
                } else {
                    list.towers[*right].next[lvl] = idx;
                }
                *right = idx;
            }
            list.level = list.level.max(height);
            list.len += 1;
            cur = heap.arena().read_u64(pm);
        }
        Ok(list)
    }

    fn node_key(heap: &mut PlocHeap, node: PmPtr) -> Vec<u8> {
        let klen = heap.arena().read_u64(PmPtr(node.0 + 16)) as u32 as usize;
        heap.arena()
            .read(PmPtr(node.0 + NODE_HDR as u64), klen)
            .to_vec()
    }

    fn node_value(heap: &mut PlocHeap, node: PmPtr) -> Vec<u8> {
        let meta = heap.arena().read_u64(PmPtr(node.0 + 16));
        let klen = meta as u32 as usize;
        let vlen = (meta >> 32) as u32 as usize;
        heap.arena()
            .read(PmPtr(node.0 + (NODE_HDR + klen) as u64), vlen)
            .to_vec()
    }

    fn node_len(heap: &mut PlocHeap, node: PmPtr) -> usize {
        let meta = heap.arena().read_u64(PmPtr(node.0 + 16));
        NODE_HDR + meta as u32 as usize + ((meta >> 32) as u32 as usize)
    }

    /// Finds per-level predecessors of `key` in the volatile index.
    /// Returns `(update, candidate)` where `update[l]` is the rightmost
    /// tower `< key` at level `l` (`NIL` = head) and `candidate` is the
    /// level-0 successor of `update[0]`.
    fn find(&self, key: &[u8]) -> ([usize; MAX_LEVEL], usize) {
        let mut update = [NIL; MAX_LEVEL];
        let mut pred = NIL;
        for lvl in (0..self.level).rev() {
            let mut cur = if pred == NIL {
                self.head[lvl]
            } else {
                self.towers[pred].next[lvl]
            };
            while cur != NIL && self.towers[cur].key.as_slice() < key {
                pred = cur;
                cur = self.towers[cur].next[lvl];
            }
            update[lvl] = pred;
        }
        let candidate = if pred == NIL {
            self.head[0]
        } else {
            self.towers[pred].next[0]
        };
        (update, candidate)
    }

    /// The PM word that points at `update[0]`'s level-0 successor: the
    /// predecessor node's `next0` field, or the head word in the root
    /// block — always the detectable-CAS target of a splice here.
    fn slot_of(&self, pred0: usize) -> PmPtr {
        if pred0 == NIL {
            self.block
        } else {
            self.towers[pred0].pm
        }
    }

    fn write_node(
        heap: &mut PlocHeap,
        next0: u64,
        height: usize,
        key: &[u8],
        value: &[u8],
    ) -> PmPtr {
        let len = NODE_HDR + key.len() + value.len();
        let node = heap.arena().alloc(len).expect("arena exhausted");
        let arena = heap.arena();
        arena.write_u64(node, next0);
        arena.write_u64(PmPtr(node.0 + 8), height as u64);
        arena.write_u64(
            PmPtr(node.0 + 16),
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
    /// was displaced. Re-invoking with an applied `op_seq` returns the
    /// recorded outcome without mutating the list.
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
        }
        self.drain_deferred(heap);
        let (update, candidate) = self.find(key);
        let slot = self.slot_of(update[0]);
        let hit = candidate != NIL && self.towers[candidate].key == key;
        if hit {
            // Splice-replace: the tower stays, only the PM node swaps.
            let old = self.towers[candidate].pm;
            let next0 = heap.arena().read_u64(old);
            let height = self.towers[candidate].next.len();
            let node = Self::write_node(heap, next0, height, key, value);
            heap.persist(node, NODE_HDR + key.len() + value.len())?;
            self.ck.record(heap, op_seq, old)?;
            let out = self.cas.cas(heap, op_seq, slot, old.0, node.0)?;
            debug_assert!(out.swapped, "single-owner CAS cannot fail");
            self.towers[candidate].pm = node;
            self.deferred_free = Some(old);
            Ok(true)
        } else {
            let next0 = heap.arena().read_u64(slot);
            let height = self.rng.height();
            let node = Self::write_node(heap, next0, height, key, value);
            heap.persist(node, NODE_HDR + key.len() + value.len())?;
            self.ck.record(heap, op_seq, PmPtr::NULL)?;
            let out = self.cas.cas(heap, op_seq, slot, next0, node.0)?;
            debug_assert!(out.swapped, "single-owner CAS cannot fail");
            self.link_tower(key, node, height, &update);
            self.len += 1;
            Ok(false)
        }
    }

    /// Links a freshly spliced node into the volatile lanes.
    fn link_tower(&mut self, key: &[u8], pm: PmPtr, height: usize, update: &[usize; MAX_LEVEL]) {
        let idx = if let Some(idx) = self.free.pop() {
            self.towers[idx] = Tower {
                key: key.to_vec(),
                pm,
                next: vec![NIL; height],
            };
            idx
        } else {
            self.towers.push(Tower {
                key: key.to_vec(),
                pm,
                next: vec![NIL; height],
            });
            self.towers.len() - 1
        };
        self.level = self.level.max(height);
        for (lvl, &pred) in update.iter().enumerate().take(height) {
            if pred == NIL {
                let succ = self.head[lvl];
                self.towers[idx].next[lvl] = succ;
                self.head[lvl] = idx;
            } else {
                let succ = self.towers[pred].next[lvl];
                self.towers[idx].next[lvl] = succ;
                self.towers[pred].next[lvl] = idx;
            }
        }
    }

    /// Removes `key`. Returns `true` when an entry was removed.
    pub fn remove(
        &mut self,
        heap: &mut PlocHeap,
        op_seq: u64,
        key: &[u8],
    ) -> Result<bool, Crashed> {
        if let Some(displaced) = self.ck.saved(heap, op_seq) {
            if displaced.is_null() {
                return Ok(false);
            }
            if self.cas.saved(heap, op_seq).is_some() {
                return Ok(true);
            }
        }
        self.drain_deferred(heap);
        let (update, candidate) = self.find(key);
        let hit = candidate != NIL && self.towers[candidate].key == key;
        if !hit {
            self.ck.record(heap, op_seq, PmPtr::NULL)?;
            return Ok(false);
        }
        let node = self.towers[candidate].pm;
        self.ck.record(heap, op_seq, node)?;
        let next0 = heap.arena().read_u64(node);
        let slot = self.slot_of(update[0]);
        let out = self.cas.cas(heap, op_seq, slot, node.0, next0)?;
        debug_assert!(out.swapped, "single-owner CAS cannot fail");
        // Unlink the tower from every lane it occupies.
        let height = self.towers[candidate].next.len();
        for (lvl, &pred) in update.iter().enumerate().take(height) {
            let succ = self.towers[candidate].next[lvl];
            if pred == NIL {
                debug_assert_eq!(self.head[lvl], candidate);
                self.head[lvl] = succ;
            } else {
                debug_assert_eq!(self.towers[pred].next[lvl], candidate);
                self.towers[pred].next[lvl] = succ;
            }
        }
        self.free.push(candidate);
        self.deferred_free = Some(node);
        self.len -= 1;
        Ok(true)
    }

    /// Looks up `key`, copying the value out of PM.
    pub fn get(&self, heap: &mut PlocHeap, key: &[u8]) -> Option<Vec<u8>> {
        let (_, candidate) = self.find(key);
        (candidate != NIL && self.towers[candidate].key == key)
            .then(|| Self::node_value(heap, self.towers[candidate].pm))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Content digest: FNV-1a over `(key, value)` pairs in key order via
    /// the durable level-0 chain, folded with the length — tower shapes
    /// never participate.
    pub fn digest(&self, heap: &mut PlocHeap) -> u64 {
        let mut h = FNV_OFFSET;
        let mut cur = heap.arena().read_u64(self.block);
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
        h = fnv1a(h, &(self.len as u64).to_le_bytes());
        h
    }

    /// Checks the volatile lanes against the durable chain (test hook).
    #[cfg(test)]
    fn validate(&self, heap: &mut PlocHeap) {
        let mut cur = heap.arena().read_u64(self.block);
        let mut idx = self.head[0];
        let mut prev_key: Option<Vec<u8>> = None;
        let mut n = 0;
        while cur != 0 {
            assert_ne!(idx, NIL, "tower chain shorter than PM chain");
            assert_eq!(self.towers[idx].pm.0, cur, "tower fronts wrong node");
            let key = Self::node_key(heap, PmPtr(cur));
            if let Some(p) = &prev_key {
                assert!(p.as_slice() < key.as_slice(), "level 0 out of order");
            }
            prev_key = Some(key);
            n += 1;
            cur = heap.arena().read_u64(PmPtr(cur));
            idx = self.towers[idx].next[0];
        }
        assert_eq!(idx, NIL, "tower chain longer than PM chain");
        assert_eq!(n, self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn sorted_insert_get_remove() {
        let mut heap = PlocHeap::new(1 << 20);
        let mut list = DetectableSkipList::create(&mut heap, 7).unwrap();
        assert!(!list.insert(&mut heap, 1, b"m", b"1").unwrap());
        assert!(!list.insert(&mut heap, 2, b"a", b"2").unwrap());
        assert!(!list.insert(&mut heap, 3, b"z", b"3").unwrap());
        assert!(list.insert(&mut heap, 4, b"m", b"4").unwrap());
        list.validate(&mut heap);
        assert_eq!(list.get(&mut heap, b"m"), Some(b"4".to_vec()));
        assert_eq!(list.len(), 3);
        assert!(list.remove(&mut heap, 5, b"a").unwrap());
        assert!(!list.remove(&mut heap, 6, b"a").unwrap());
        list.validate(&mut heap);
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn replay_of_the_latest_op_does_not_mutate() {
        // The memento detects the *latest* op per structure — the only one
        // that can be mid-flight at a crash; older resends are deduped by
        // the applied-seq table before they reach the structure.
        let mut heap = PlocHeap::new(1 << 20);
        let mut list = DetectableSkipList::create(&mut heap, 7).unwrap();
        list.insert(&mut heap, 1, b"k", b"v").unwrap();
        let before = list.digest(&mut heap);
        assert!(!list.insert(&mut heap, 1, b"k", b"v").unwrap());
        assert_eq!(list.digest(&mut heap), before);
        list.remove(&mut heap, 2, b"missing").unwrap();
        let before = list.digest(&mut heap);
        assert!(!list.remove(&mut heap, 2, b"missing").unwrap());
        assert_eq!(list.digest(&mut heap), before);
        list.validate(&mut heap);
    }

    #[test]
    fn open_rebuilds_towers_from_the_durable_chain() {
        let mut heap = PlocHeap::new(1 << 22);
        let mut list = DetectableSkipList::create(&mut heap, 42).unwrap();
        let mut model = BTreeMap::new();
        for i in 0u64..150 {
            let k = format!("key-{:03}", (i * 67) % 151);
            let v = format!("val-{i}");
            list.insert(&mut heap, i + 1, k.as_bytes(), v.as_bytes())
                .unwrap();
            model.insert(k, v);
        }
        for i in 0u64..30 {
            let k = format!("key-{:03}", (i * 11) % 151);
            if list.remove(&mut heap, 1000 + i, k.as_bytes()).unwrap() {
                model.remove(&k);
            }
        }
        list.validate(&mut heap);
        let d = list.digest(&mut heap);
        heap.crash_losing_all();
        let reopened = DetectableSkipList::open(&mut heap, 42).unwrap();
        reopened.validate(&mut heap);
        assert_eq!(reopened.len(), model.len());
        assert_eq!(reopened.digest(&mut heap), d);
        for (k, v) in &model {
            assert_eq!(
                reopened.get(&mut heap, k.as_bytes()),
                Some(v.clone().into_bytes())
            );
        }
    }
}
