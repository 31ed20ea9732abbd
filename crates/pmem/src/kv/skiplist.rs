//! A probabilistic skip list (the PMDK `skiplist` workload).

use super::{KvStore, OpStats};

const MAX_LEVEL: usize = 16;
const NIL: usize = usize::MAX;

/// A lightweight deterministic generator for tower heights; keeping it
/// local (rather than threading the simulation RNG through every insert)
/// keeps the structure self-contained and reproducible from its seed.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[derive(Debug)]
struct SkipNode {
    key: Vec<u8>,
    value: Vec<u8>,
    next: Vec<usize>, // one forward pointer per level
}

/// A skip list over byte-string keys.
#[derive(Debug)]
pub struct SkipListKv {
    nodes: Vec<SkipNode>,
    free: Vec<usize>,
    head: Vec<usize>, // forward pointers of the sentinel head
    level: usize,
    len: usize,
    rng: SplitMix,
    stats: OpStats,
}

impl SkipListKv {
    /// Creates an empty skip list with a deterministic tower-height seed.
    pub fn new(seed: u64) -> SkipListKv {
        SkipListKv {
            nodes: Vec::new(),
            free: Vec::new(),
            head: vec![NIL; MAX_LEVEL],
            level: 1,
            len: 0,
            rng: SplitMix(seed ^ 0xABCD_EF01),
            stats: OpStats::default(),
        }
    }

    fn random_level(&mut self) -> usize {
        let mut lvl = 1;
        while lvl < MAX_LEVEL && self.rng.next() & 3 == 0 {
            lvl += 1; // p = 1/4
        }
        lvl
    }

    /// Finds the predecessor node index (or NIL for head) at each level;
    /// returns (`update` vector, candidate index).
    fn find(&mut self, key: &[u8]) -> (Vec<usize>, usize) {
        let mut update = vec![NIL; MAX_LEVEL];
        let mut cur = NIL; // NIL as current means "head sentinel"
        for lvl in (0..self.level).rev() {
            loop {
                let next = if cur == NIL {
                    self.head[lvl]
                } else {
                    self.nodes[cur].next[lvl]
                };
                if next == NIL {
                    break;
                }
                self.stats.nodes_visited += 1;
                self.stats.key_comparisons += 1;
                if self.nodes[next].key.as_slice() < key {
                    cur = next;
                } else {
                    break;
                }
            }
            update[lvl] = cur;
        }
        let candidate = if cur == NIL {
            self.head[0]
        } else {
            self.nodes[cur].next[0]
        };
        (update, candidate)
    }

    fn next_of(&self, node: usize, lvl: usize) -> usize {
        if node == NIL {
            self.head[lvl]
        } else {
            self.nodes[node].next[lvl]
        }
    }

    fn set_next(&mut self, node: usize, lvl: usize, to: usize) {
        if node == NIL {
            self.head[lvl] = to;
        } else {
            self.nodes[node].next[lvl] = to;
        }
    }

    /// Validates level ordering invariants (test support).
    #[cfg(test)]
    fn validate(&self) {
        for lvl in 0..self.level {
            let mut cur = self.head[lvl];
            let mut prev_key: Option<&[u8]> = None;
            while cur != NIL {
                let k = self.nodes[cur].key.as_slice();
                if let Some(p) = prev_key {
                    assert!(p < k, "keys out of order at level {lvl}");
                }
                prev_key = Some(k);
                // Every node present at lvl must be present at lvl-1.
                assert!(self.nodes[cur].next.len() > lvl);
                cur = self.nodes[cur].next[lvl];
            }
        }
    }
}

impl KvStore for SkipListKv {
    fn name(&self) -> &'static str {
        "skiplist"
    }

    fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        let (_, cand) = self.find(key);
        if cand != NIL {
            self.stats.key_comparisons += 1;
            if self.nodes[cand].key == key {
                let v = &self.nodes[cand].value;
                self.stats.bytes_moved += v.len() as u64;
                return Some(v);
            }
        }
        None
    }

    fn insert(&mut self, key: &[u8], value: &[u8]) -> bool {
        let (update, cand) = self.find(key);
        self.stats.bytes_moved += (key.len() + value.len()) as u64;
        if cand != NIL && self.nodes[cand].key == key {
            self.stats.key_comparisons += 1;
            value.clone_into(&mut self.nodes[cand].value);
            return true;
        }
        let lvl = self.random_level();
        if lvl > self.level {
            self.level = lvl;
        }
        let node = SkipNode {
            key: key.to_vec(),
            value: value.to_vec(),
            next: vec![NIL; lvl],
        };
        let idx = if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        #[allow(clippy::needless_range_loop)] // l indexes two structures
        for l in 0..lvl {
            let pred = update[l];
            let succ = self.next_of(pred, l);
            self.nodes[idx].next[l] = succ;
            self.set_next(pred, l, idx);
        }
        self.len += 1;
        false
    }

    fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let (update, cand) = self.find(key);
        if cand == NIL || self.nodes[cand].key != key {
            return None;
        }
        self.stats.key_comparisons += 1;
        let height = self.nodes[cand].next.len();
        #[allow(clippy::needless_range_loop)] // l indexes two structures
        for l in 0..height {
            let pred = update[l];
            debug_assert_eq!(self.next_of(pred, l), cand);
            let succ = self.nodes[cand].next[l];
            self.set_next(pred, l, succ);
        }
        while self.level > 1 && self.head[self.level - 1] == NIL {
            self.level -= 1;
        }
        self.len -= 1;
        let v = std::mem::take(&mut self.nodes[cand].value);
        self.nodes[cand].key.clear();
        self.free.push(cand);
        self.stats.bytes_moved += v.len() as u64;
        Some(v)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn take_stats(&mut self) -> OpStats {
        std::mem::take(&mut self.stats)
    }

    fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) {
        let mut cur = self.head[0];
        while cur != NIL {
            f(&self.nodes[cur].key, &self.nodes[cur].value);
            cur = self.nodes[cur].next[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintains_sorted_order_across_operations() {
        let mut s = SkipListKv::new(42);
        for i in [5u8, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            s.insert(&[i], &[i]);
            s.validate();
        }
        let mut keys = Vec::new();
        s.for_each(&mut |k, _| keys.push(k[0]));
        assert_eq!(keys, (0..10).collect::<Vec<u8>>());
        for i in [3u8, 0, 9] {
            assert!(s.remove(&[i]).is_some());
            s.validate();
        }
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn towers_are_bounded_and_reused() {
        let mut s = SkipListKv::new(1);
        for i in 0..500u32 {
            s.insert(&i.to_be_bytes(), b"x");
        }
        assert!(s.level <= MAX_LEVEL);
        let allocated = s.nodes.len();
        for i in 0..500u32 {
            s.remove(&i.to_be_bytes());
        }
        for i in 0..500u32 {
            s.insert(&i.to_be_bytes(), b"y");
        }
        // Node slots were recycled through the free list.
        assert_eq!(s.nodes.len(), allocated);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let heights = |seed| {
            let mut s = SkipListKv::new(seed);
            (0..100).map(|_| s.random_level()).collect::<Vec<_>>()
        };
        assert_eq!(heights(9), heights(9));
        assert_ne!(heights(9), heights(10));
    }
}
