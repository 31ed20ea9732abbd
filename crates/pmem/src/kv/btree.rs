//! A B+-tree (the PMDK `btree` workload).
//!
//! Values live in the leaves; internal nodes hold separator keys. Inserts
//! split on overflow in the classic way. Deletes shrink leaves and drop
//! empty children without merging siblings — the tree stays a correct
//! search tree and one-child roots collapse, which is sufficient for the
//! simulated workloads (documented trade-off; conformance tests verify
//! behavioural equivalence with `BTreeMap`).

use super::{KvStore, OpStats};

/// Maximum entries per leaf / separators per internal node before a split.
const MAX_KEYS: usize = 16;

/// Result of a recursive insert: whether the key existed and, when the
/// node split, the separator plus the new right sibling.
type InsertOutcome = (bool, Option<(Vec<u8>, Box<Node>)>);

#[derive(Debug)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    Internal {
        keys: Vec<Vec<u8>>,
        // Boxed so split/steal operations move a fixed-size pointer
        // instead of the whole child enum (entries inline in `Leaf`).
        #[allow(clippy::vec_box)]
        children: Vec<Box<Node>>,
    },
}

/// A B+-tree over byte-string keys.
#[derive(Debug)]
pub struct BTreeKv {
    root: Box<Node>,
    len: usize,
    stats: OpStats,
}

impl Default for BTreeKv {
    fn default() -> Self {
        Self::new()
    }
}

impl BTreeKv {
    /// Creates an empty tree.
    pub fn new() -> BTreeKv {
        BTreeKv {
            root: Box::new(Node::Leaf {
                entries: Vec::new(),
            }),
            len: 0,
            stats: OpStats::default(),
        }
    }

    /// Binary search counting comparisons: first index whose key is >= `k`
    /// (for leaves) using the extractor `f`.
    fn lower_bound<T>(stats: &mut OpStats, xs: &[T], k: &[u8], f: impl Fn(&T) -> &[u8]) -> usize {
        let (mut lo, mut hi) = (0, xs.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            stats.key_comparisons += 1;
            if f(&xs[mid]) < k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Child index covering `k` in an internal node: number of separators
    /// that are <= `k`.
    fn child_index(stats: &mut OpStats, keys: &[Vec<u8>], k: &[u8]) -> usize {
        let (mut lo, mut hi) = (0, keys.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            stats.key_comparisons += 1;
            if keys[mid].as_slice() <= k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn insert_rec(stats: &mut OpStats, node: &mut Node, k: &[u8], v: &[u8]) -> InsertOutcome {
        stats.nodes_visited += 1;
        match node {
            Node::Leaf { entries } => {
                let idx = Self::lower_bound(stats, entries, k, |e| &e.0);
                if idx < entries.len() && entries[idx].0 == k {
                    stats.key_comparisons += 1;
                    v.clone_into(&mut entries[idx].1);
                    return (true, None);
                }
                stats.bytes_moved += (k.len() + v.len()) as u64;
                entries.insert(idx, (k.to_vec(), v.to_vec()));
                if entries.len() > MAX_KEYS {
                    let right = entries.split_off(entries.len() / 2);
                    let sep = right[0].0.clone();
                    (false, Some((sep, Box::new(Node::Leaf { entries: right }))))
                } else {
                    (false, None)
                }
            }
            Node::Internal { keys, children } => {
                let idx = Self::child_index(stats, keys, k);
                let (replaced, split) = Self::insert_rec(stats, &mut children[idx], k, v);
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() > MAX_KEYS {
                        let mid = keys.len() / 2;
                        let sep_up = keys.remove(mid);
                        let right_keys = keys.split_off(mid);
                        let right_children = children.split_off(mid + 1);
                        let right = Box::new(Node::Internal {
                            keys: right_keys,
                            children: right_children,
                        });
                        return (replaced, Some((sep_up, right)));
                    }
                }
                (replaced, None)
            }
        }
    }

    /// Removes `k`; returns (old value, whether the node is now empty).
    fn remove_rec(stats: &mut OpStats, node: &mut Node, k: &[u8]) -> (Option<Vec<u8>>, bool) {
        stats.nodes_visited += 1;
        match node {
            Node::Leaf { entries } => {
                let idx = Self::lower_bound(stats, entries, k, |e| &e.0);
                if idx < entries.len() && entries[idx].0 == k {
                    stats.key_comparisons += 1;
                    let (_, v) = entries.remove(idx);
                    stats.bytes_moved += v.len() as u64;
                    (Some(v), entries.is_empty())
                } else {
                    (None, false)
                }
            }
            Node::Internal { keys, children } => {
                let idx = Self::child_index(stats, keys, k);
                let (old, child_empty) = Self::remove_rec(stats, &mut children[idx], k);
                if child_empty {
                    children.remove(idx);
                    if !keys.is_empty() {
                        // Dropping child i invalidates the separator to its
                        // left (or the first separator for child 0).
                        keys.remove(idx.saturating_sub(1));
                    }
                }
                (old, children.is_empty())
            }
        }
    }

    #[cfg(test)]
    fn validate(&self) {
        fn walk(node: &Node, lo: Option<&[u8]>, hi: Option<&[u8]>, out: &mut Vec<Vec<u8>>) {
            match node {
                Node::Leaf { entries } => {
                    for (k, _) in entries {
                        if let Some(lo) = lo {
                            assert!(k.as_slice() >= lo, "leaf key below bound");
                        }
                        if let Some(hi) = hi {
                            assert!(k.as_slice() < hi, "leaf key above bound");
                        }
                        out.push(k.clone());
                    }
                }
                Node::Internal { keys, children } => {
                    assert_eq!(children.len(), keys.len() + 1, "child/separator mismatch");
                    for w in keys.windows(2) {
                        assert!(w[0] < w[1], "separators out of order");
                    }
                    for (i, child) in children.iter().enumerate() {
                        let clo = if i == 0 {
                            lo
                        } else {
                            Some(keys[i - 1].as_slice())
                        };
                        let chi = if i == keys.len() {
                            hi
                        } else {
                            Some(keys[i].as_slice())
                        };
                        walk(child, clo, chi, out);
                    }
                }
            }
        }
        let mut keys = Vec::new();
        walk(&self.root, None, None, &mut keys);
        assert_eq!(keys.len(), self.len, "len mismatch");
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "global key order violated");
        }
    }
}

impl KvStore for BTreeKv {
    fn name(&self) -> &'static str {
        "btree"
    }

    fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        let stats = &mut self.stats;
        let mut node: &Node = &self.root;
        loop {
            stats.nodes_visited += 1;
            match node {
                Node::Leaf { entries } => {
                    let idx = Self::lower_bound(stats, entries, key, |e| &e.0);
                    if idx < entries.len() && entries[idx].0 == key {
                        stats.key_comparisons += 1;
                        stats.bytes_moved += entries[idx].1.len() as u64;
                        return Some(&entries[idx].1);
                    }
                    return None;
                }
                Node::Internal { keys, children } => {
                    let idx = Self::child_index(stats, keys, key);
                    node = &children[idx];
                }
            }
        }
    }

    fn insert(&mut self, key: &[u8], value: &[u8]) -> bool {
        let (replaced, split) = Self::insert_rec(&mut self.stats, &mut self.root, key, value);
        if let Some((sep, right)) = split {
            let left = std::mem::replace(
                &mut self.root,
                Box::new(Node::Leaf {
                    entries: Vec::new(),
                }),
            );
            *self.root = Node::Internal {
                keys: vec![sep],
                children: vec![left, right],
            };
        }
        if !replaced {
            self.len += 1;
        }
        replaced
    }

    fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let (old, _) = Self::remove_rec(&mut self.stats, &mut self.root, key);
        if old.is_some() {
            self.len -= 1;
        }
        // Collapse chains of single-child roots; restore an empty leaf root.
        loop {
            match &mut *self.root {
                Node::Internal { children, .. } if children.len() == 1 => {
                    let only = children.pop().expect("one child");
                    self.root = only;
                }
                Node::Internal { children, .. } if children.is_empty() => {
                    *self.root = Node::Leaf {
                        entries: Vec::new(),
                    };
                    break;
                }
                _ => break,
            }
        }
        old
    }

    fn len(&self) -> usize {
        self.len
    }

    fn take_stats(&mut self) -> OpStats {
        std::mem::take(&mut self.stats)
    }

    fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) {
        fn walk(node: &Node, f: &mut dyn FnMut(&[u8], &[u8])) {
            match node {
                Node::Leaf { entries } => {
                    for (k, v) in entries {
                        f(k, v);
                    }
                }
                Node::Internal { children, .. } => {
                    for c in children {
                        walk(c, f);
                    }
                }
            }
        }
        walk(&self.root, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_preserve_structure() {
        let mut t = BTreeKv::new();
        for i in 0..500u32 {
            t.insert(&i.to_be_bytes(), &[1]);
            t.validate();
        }
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn removal_collapses_root() {
        let mut t = BTreeKv::new();
        for i in 0..100u32 {
            t.insert(&i.to_be_bytes(), &[1]);
        }
        for i in 0..100u32 {
            assert!(t.remove(&i.to_be_bytes()).is_some());
            t.validate();
        }
        assert!(t.is_empty());
        assert!(matches!(&*t.root, Node::Leaf { entries } if entries.is_empty()));
    }

    #[test]
    fn iteration_is_in_key_order() {
        let mut t = BTreeKv::new();
        for i in [9u8, 1, 5, 3, 7, 0, 8, 2, 6, 4] {
            t.insert(&[i], &[i]);
        }
        let mut keys = Vec::new();
        t.for_each(&mut |k, _| keys.push(k[0]));
        assert_eq!(keys, (0..10).collect::<Vec<u8>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn invariants_hold_under_random_ops(
            ops in prop::collection::vec((prop::collection::vec(0u8..16, 1..4), any::<bool>()), 0..300)
        ) {
            let mut t = BTreeKv::new();
            for (key, is_insert) in ops {
                if is_insert {
                    t.insert(&key, b"v");
                } else {
                    t.remove(&key);
                }
                t.validate();
            }
        }
    }
}
