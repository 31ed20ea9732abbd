//! A crit-bit tree (PMDK's `ctree` workload).
//!
//! Internal nodes hold the position of the most significant bit at which
//! their two subtrees differ; lookups inspect one bit per internal node.
//! Keys are stored internally with an 8-byte big-endian length prefix,
//! which guarantees any two distinct keys differ at a byte position inside
//! both encoded keys (no out-of-range handling, no prefix ambiguity).

use super::{KvStore, OpStats};

const NIL: usize = usize::MAX;

/// The direction bit of `ikey` at `(byte, mask)`; positions beyond the
/// key's length read as zero (the standard crit-bit convention — internal
/// nodes may test positions past a shorter lookup key).
fn bit_at(ikey: &[u8], byte: usize, mask: u8) -> usize {
    match ikey.get(byte) {
        Some(b) => usize::from(b & mask != 0),
        None => 0,
    }
}

fn encode(key: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + key.len());
    v.extend_from_slice(&(key.len() as u64).to_be_bytes());
    v.extend_from_slice(key);
    v
}

#[derive(Debug)]
enum CbNode {
    Internal {
        byte: usize,
        mask: u8, // exactly one bit set
        child: [usize; 2],
    },
    Leaf {
        ikey: Vec<u8>,
        value: Vec<u8>,
    },
    Free,
}

/// A crit-bit tree over byte-string keys.
#[derive(Debug, Default)]
pub struct CritBitKv {
    nodes: Vec<CbNode>,
    free: Vec<usize>,
    root: usize,
    len: usize,
    stats: OpStats,
}

impl CritBitKv {
    /// Creates an empty tree.
    pub fn new() -> CritBitKv {
        CritBitKv {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
            stats: OpStats::default(),
        }
    }

    fn alloc(&mut self, node: CbNode) -> usize {
        if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn release(&mut self, idx: usize) {
        self.nodes[idx] = CbNode::Free;
        self.free.push(idx);
    }

    /// Walks to the leaf a lookup for `ikey` would reach.
    fn best_leaf(&mut self, ikey: &[u8]) -> usize {
        let mut cur = self.root;
        loop {
            match &self.nodes[cur] {
                CbNode::Internal { byte, mask, child } => {
                    self.stats.nodes_visited += 1;
                    cur = child[bit_at(ikey, *byte, *mask)];
                }
                CbNode::Leaf { .. } => return cur,
                CbNode::Free => unreachable!("walked into a freed node"),
            }
        }
    }

    /// First differing (byte index, isolated highest differing bit), or
    /// `None` if the encoded keys are equal.
    fn crit_pos(a: &[u8], b: &[u8]) -> Option<(usize, u8)> {
        for i in 0..a.len().min(b.len()) {
            let d = a[i] ^ b[i];
            if d != 0 {
                let bit = 7 - d.leading_zeros() as u8 % 8;
                return Some((i, 1 << bit));
            }
        }
        None
    }

    /// True if crit position `(b1, m1)` orders before `(b2, m2)`: smaller
    /// byte first, then the more significant bit.
    fn earlier(b1: usize, m1: u8, b2: usize, m2: u8) -> bool {
        b1 < b2 || (b1 == b2 && m1 > m2)
    }

    #[cfg(test)]
    fn validate(&self) {
        fn walk(t: &CritBitKv, idx: usize, count: &mut usize) {
            match &t.nodes[idx] {
                CbNode::Internal { byte, mask, child } => {
                    for (dir, &c) in child.iter().enumerate() {
                        // Every leaf under child[dir] must have bit value
                        // `dir` at (byte, mask).
                        fn check_bit(t: &CritBitKv, idx: usize, byte: usize, mask: u8, dir: usize) {
                            match &t.nodes[idx] {
                                CbNode::Internal { child, .. } => {
                                    check_bit(t, child[0], byte, mask, dir);
                                    check_bit(t, child[1], byte, mask, dir);
                                }
                                CbNode::Leaf { ikey, .. } => {
                                    assert_eq!(bit_at(ikey, byte, mask), dir, "leaf on wrong side");
                                }
                                CbNode::Free => panic!("free node reachable"),
                            }
                        }
                        check_bit(t, c, *byte, *mask, dir);
                        walk(t, c, count);
                    }
                }
                CbNode::Leaf { .. } => *count += 1,
                CbNode::Free => panic!("free node reachable"),
            }
        }
        if self.root != NIL {
            let mut count = 0;
            walk(self, self.root, &mut count);
            assert_eq!(count, self.len);
        } else {
            assert_eq!(self.len, 0);
        }
    }
}

impl KvStore for CritBitKv {
    fn name(&self) -> &'static str {
        "ctree"
    }

    fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        if self.root == NIL {
            return None;
        }
        let ikey = encode(key);
        let leaf = self.best_leaf(&ikey);
        self.stats.key_comparisons += 1;
        match &self.nodes[leaf] {
            CbNode::Leaf { ikey: lk, value } if *lk == ikey => {
                self.stats.bytes_moved += value.len() as u64;
                Some(value)
            }
            _ => None,
        }
    }

    fn insert(&mut self, key: &[u8], value: &[u8]) -> bool {
        let ikey = encode(key);
        self.stats.bytes_moved += (ikey.len() + value.len()) as u64;
        if self.root == NIL {
            self.root = self.alloc(CbNode::Leaf {
                ikey,
                value: value.to_vec(),
            });
            self.len = 1;
            return false;
        }
        let best = self.best_leaf(&ikey);
        let CbNode::Leaf {
            ikey: best_ikey, ..
        } = &self.nodes[best]
        else {
            unreachable!("best_leaf returned non-leaf")
        };
        self.stats.key_comparisons += 1;
        let Some((byte, mask)) = Self::crit_pos(&ikey, best_ikey) else {
            // Same key: replace value.
            if let CbNode::Leaf { value: v, .. } = &mut self.nodes[best] {
                value.clone_into(v);
                return true;
            }
            unreachable!()
        };
        let dir = bit_at(&ikey, byte, mask);
        let new_leaf = self.alloc(CbNode::Leaf {
            ikey: ikey.clone(),
            value: value.to_vec(),
        });
        // Descend again to find the insertion point: the first node whose
        // crit position orders at-or-after (byte, mask).
        let mut cur = self.root;
        let mut parent: Option<(usize, usize)> = None; // (node, dir taken)
        loop {
            let stop = match &self.nodes[cur] {
                CbNode::Internal {
                    byte: nb, mask: nm, ..
                } => !Self::earlier(*nb, *nm, byte, mask),
                CbNode::Leaf { .. } => true,
                CbNode::Free => unreachable!(),
            };
            if stop {
                break;
            }
            if let CbNode::Internal {
                byte: nb,
                mask: nm,
                child,
            } = &self.nodes[cur]
            {
                self.stats.nodes_visited += 1;
                let d = bit_at(&ikey, *nb, *nm);
                parent = Some((cur, d));
                cur = child[d];
            }
        }
        let mut child = [NIL; 2];
        child[dir] = new_leaf;
        child[1 - dir] = cur;
        let internal = self.alloc(CbNode::Internal { byte, mask, child });
        match parent {
            Some((p, d)) => {
                if let CbNode::Internal { child, .. } = &mut self.nodes[p] {
                    child[d] = internal;
                }
            }
            None => self.root = internal,
        }
        self.len += 1;
        false
    }

    fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        if self.root == NIL {
            return None;
        }
        let ikey = encode(key);
        // Walk with parent/grandparent tracking.
        let mut grand: Option<(usize, usize)> = None;
        let mut parent: Option<(usize, usize)> = None;
        let mut cur = self.root;
        loop {
            match &self.nodes[cur] {
                CbNode::Internal { byte, mask, child } => {
                    self.stats.nodes_visited += 1;
                    let d = bit_at(&ikey, *byte, *mask);
                    grand = parent;
                    parent = Some((cur, d));
                    cur = child[d];
                }
                CbNode::Leaf { ikey: lk, .. } => {
                    self.stats.key_comparisons += 1;
                    if *lk != ikey {
                        return None;
                    }
                    break;
                }
                CbNode::Free => unreachable!(),
            }
        }
        let value = match std::mem::replace(&mut self.nodes[cur], CbNode::Free) {
            CbNode::Leaf { value, .. } => value,
            _ => unreachable!(),
        };
        self.free.push(cur);
        self.stats.bytes_moved += value.len() as u64;
        match parent {
            None => self.root = NIL,
            Some((p, d)) => {
                let sibling = match &self.nodes[p] {
                    CbNode::Internal { child, .. } => child[1 - d],
                    _ => unreachable!(),
                };
                self.release(p);
                match grand {
                    None => self.root = sibling,
                    Some((g, gd)) => {
                        if let CbNode::Internal { child, .. } = &mut self.nodes[g] {
                            child[gd] = sibling;
                        }
                    }
                }
            }
        }
        self.len -= 1;
        Some(value)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn take_stats(&mut self) -> OpStats {
        std::mem::take(&mut self.stats)
    }

    fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) {
        fn walk(t: &CritBitKv, idx: usize, f: &mut dyn FnMut(&[u8], &[u8])) {
            match &t.nodes[idx] {
                CbNode::Internal { child, .. } => {
                    walk(t, child[0], f);
                    walk(t, child[1], f);
                }
                CbNode::Leaf { ikey, value } => f(&ikey[8..], value),
                CbNode::Free => panic!("free node reachable"),
            }
        }
        if self.root != NIL {
            walk(self, self.root, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crit_pos_finds_most_significant_differing_bit() {
        assert_eq!(
            CritBitKv::crit_pos(b"abc", b"abd"),
            Some((2, 0b0000_0111 & !0b11))
        );
        // 'c' = 0x63, 'd' = 0x64 -> xor 0x07 -> highest bit 0x04.
        assert_eq!(CritBitKv::crit_pos(b"abc", b"abd"), Some((2, 0x04)));
        assert_eq!(CritBitKv::crit_pos(b"same", b"same"), None);
        assert_eq!(CritBitKv::crit_pos(&[0x00], &[0x80]), Some((0, 0x80)));
    }

    #[test]
    fn length_prefix_disambiguates_prefix_keys() {
        let mut t = CritBitKv::new();
        t.insert(b"a", b"1");
        t.insert(b"ab", b"2");
        t.insert(b"abc", b"3");
        t.insert(b"", b"0");
        assert_eq!(t.get(b"a"), Some(&b"1"[..]));
        assert_eq!(t.get(b"ab"), Some(&b"2"[..]));
        assert_eq!(t.get(b"abc"), Some(&b"3"[..]));
        assert_eq!(t.get(b""), Some(&b"0"[..]));
        t.validate();
    }

    #[test]
    fn structure_invariants_hold_under_churn() {
        let mut t = CritBitKv::new();
        for i in 0..300u32 {
            t.insert(&(i * 7919).to_be_bytes(), &i.to_le_bytes());
            if i % 3 == 0 {
                t.remove(&((i / 2) * 7919).to_be_bytes());
            }
            t.validate();
        }
    }

    #[test]
    fn removing_root_leaf_empties_tree() {
        let mut t = CritBitKv::new();
        t.insert(b"only", b"x");
        assert_eq!(t.remove(b"only"), Some(b"x".to_vec()));
        assert_eq!(t.root, NIL);
        assert!(t.is_empty());
        t.validate();
    }

    #[test]
    fn freed_nodes_are_reused() {
        let mut t = CritBitKv::new();
        for i in 0..100u8 {
            t.insert(&[i], &[i]);
        }
        let peak = t.nodes.len();
        for i in 0..100u8 {
            t.remove(&[i]);
        }
        for i in 0..100u8 {
            t.insert(&[i], &[i]);
        }
        assert_eq!(t.nodes.len(), peak);
        t.validate();
    }
}
