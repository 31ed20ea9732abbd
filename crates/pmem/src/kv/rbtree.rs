//! A red-black tree (the PMDK `rbtree` workload), CLRS 3rd-edition
//! algorithms with an index-based node pool and a NIL sentinel.

use super::{KvStore, OpStats};

const NIL: usize = 0;

#[derive(Debug, Clone)]
struct RbNode {
    key: Vec<u8>,
    value: Vec<u8>,
    left: usize,
    right: usize,
    parent: usize,
    red: bool,
}

impl RbNode {
    fn sentinel() -> RbNode {
        RbNode {
            key: Vec::new(),
            value: Vec::new(),
            left: NIL,
            right: NIL,
            parent: NIL,
            red: false,
        }
    }
}

/// A red-black tree over byte-string keys.
#[derive(Debug)]
pub struct RbTreeKv {
    nodes: Vec<RbNode>,
    free: Vec<usize>,
    root: usize,
    len: usize,
    stats: OpStats,
}

impl Default for RbTreeKv {
    fn default() -> Self {
        Self::new()
    }
}

impl RbTreeKv {
    /// Creates an empty tree.
    pub fn new() -> RbTreeKv {
        RbTreeKv {
            nodes: vec![RbNode::sentinel()],
            free: Vec::new(),
            root: NIL,
            len: 0,
            stats: OpStats::default(),
        }
    }

    fn alloc(&mut self, key: Vec<u8>, value: Vec<u8>) -> usize {
        let node = RbNode {
            key,
            value,
            left: NIL,
            right: NIL,
            parent: NIL,
            red: true,
        };
        if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn rotate_left(&mut self, x: usize) {
        let y = self.nodes[x].right;
        let yl = self.nodes[y].left;
        self.nodes[x].right = yl;
        if yl != NIL {
            self.nodes[yl].parent = x;
        }
        let xp = self.nodes[x].parent;
        self.nodes[y].parent = xp;
        if xp == NIL {
            self.root = y;
        } else if self.nodes[xp].left == x {
            self.nodes[xp].left = y;
        } else {
            self.nodes[xp].right = y;
        }
        self.nodes[y].left = x;
        self.nodes[x].parent = y;
    }

    fn rotate_right(&mut self, x: usize) {
        let y = self.nodes[x].left;
        let yr = self.nodes[y].right;
        self.nodes[x].left = yr;
        if yr != NIL {
            self.nodes[yr].parent = x;
        }
        let xp = self.nodes[x].parent;
        self.nodes[y].parent = xp;
        if xp == NIL {
            self.root = y;
        } else if self.nodes[xp].right == x {
            self.nodes[xp].right = y;
        } else {
            self.nodes[xp].left = y;
        }
        self.nodes[y].right = x;
        self.nodes[x].parent = y;
    }

    fn insert_fixup(&mut self, mut z: usize) {
        while self.nodes[self.nodes[z].parent].red {
            let p = self.nodes[z].parent;
            let g = self.nodes[p].parent;
            if p == self.nodes[g].left {
                let u = self.nodes[g].right;
                if self.nodes[u].red {
                    self.nodes[p].red = false;
                    self.nodes[u].red = false;
                    self.nodes[g].red = true;
                    z = g;
                } else {
                    if z == self.nodes[p].right {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.nodes[z].parent;
                    let g = self.nodes[p].parent;
                    self.nodes[p].red = false;
                    self.nodes[g].red = true;
                    self.rotate_right(g);
                }
            } else {
                let u = self.nodes[g].left;
                if self.nodes[u].red {
                    self.nodes[p].red = false;
                    self.nodes[u].red = false;
                    self.nodes[g].red = true;
                    z = g;
                } else {
                    if z == self.nodes[p].left {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.nodes[z].parent;
                    let g = self.nodes[p].parent;
                    self.nodes[p].red = false;
                    self.nodes[g].red = true;
                    self.rotate_left(g);
                }
            }
        }
        let r = self.root;
        self.nodes[r].red = false;
    }

    fn transplant(&mut self, u: usize, v: usize) {
        let up = self.nodes[u].parent;
        if up == NIL {
            self.root = v;
        } else if u == self.nodes[up].left {
            self.nodes[up].left = v;
        } else {
            self.nodes[up].right = v;
        }
        // The sentinel's parent may be set transiently; delete_fixup uses it.
        self.nodes[v].parent = up;
    }

    fn minimum(&self, mut x: usize) -> usize {
        while self.nodes[x].left != NIL {
            x = self.nodes[x].left;
        }
        x
    }

    fn delete_fixup(&mut self, mut x: usize) {
        while x != self.root && !self.nodes[x].red {
            let p = self.nodes[x].parent;
            if x == self.nodes[p].left {
                let mut w = self.nodes[p].right;
                if self.nodes[w].red {
                    self.nodes[w].red = false;
                    self.nodes[p].red = true;
                    self.rotate_left(p);
                    w = self.nodes[self.nodes[x].parent].right;
                }
                if !self.nodes[self.nodes[w].left].red && !self.nodes[self.nodes[w].right].red {
                    self.nodes[w].red = true;
                    x = self.nodes[x].parent;
                } else {
                    if !self.nodes[self.nodes[w].right].red {
                        let wl = self.nodes[w].left;
                        self.nodes[wl].red = false;
                        self.nodes[w].red = true;
                        self.rotate_right(w);
                        w = self.nodes[self.nodes[x].parent].right;
                    }
                    let p = self.nodes[x].parent;
                    self.nodes[w].red = self.nodes[p].red;
                    self.nodes[p].red = false;
                    let wr = self.nodes[w].right;
                    self.nodes[wr].red = false;
                    self.rotate_left(p);
                    x = self.root;
                }
            } else {
                let mut w = self.nodes[p].left;
                if self.nodes[w].red {
                    self.nodes[w].red = false;
                    self.nodes[p].red = true;
                    self.rotate_right(p);
                    w = self.nodes[self.nodes[x].parent].left;
                }
                if !self.nodes[self.nodes[w].right].red && !self.nodes[self.nodes[w].left].red {
                    self.nodes[w].red = true;
                    x = self.nodes[x].parent;
                } else {
                    if !self.nodes[self.nodes[w].left].red {
                        let wr = self.nodes[w].right;
                        self.nodes[wr].red = false;
                        self.nodes[w].red = true;
                        self.rotate_left(w);
                        w = self.nodes[self.nodes[x].parent].left;
                    }
                    let p = self.nodes[x].parent;
                    self.nodes[w].red = self.nodes[p].red;
                    self.nodes[p].red = false;
                    let wl = self.nodes[w].left;
                    self.nodes[wl].red = false;
                    self.rotate_right(p);
                    x = self.root;
                }
            }
        }
        self.nodes[x].red = false;
    }

    fn find(&mut self, key: &[u8]) -> usize {
        let mut cur = self.root;
        while cur != NIL {
            self.stats.nodes_visited += 1;
            self.stats.key_comparisons += 1;
            match key.cmp(self.nodes[cur].key.as_slice()) {
                std::cmp::Ordering::Less => cur = self.nodes[cur].left,
                std::cmp::Ordering::Greater => cur = self.nodes[cur].right,
                std::cmp::Ordering::Equal => return cur,
            }
        }
        NIL
    }

    #[cfg(test)]
    fn validate(&self) {
        assert!(!self.nodes[self.root].red, "root must be black");
        assert!(!self.nodes[NIL].red, "sentinel must be black");
        fn walk(
            t: &RbTreeKv,
            x: usize,
            lo: Option<&[u8]>,
            hi: Option<&[u8]>,
            count: &mut usize,
        ) -> usize {
            if x == NIL {
                return 1; // black height contribution of NIL
            }
            let n = &t.nodes[x];
            if let Some(lo) = lo {
                assert!(n.key.as_slice() > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(n.key.as_slice() < hi, "BST order violated");
            }
            if n.red {
                assert!(!t.nodes[n.left].red, "red node with red left child");
                assert!(!t.nodes[n.right].red, "red node with red right child");
            }
            if n.left != NIL {
                assert_eq!(t.nodes[n.left].parent, x, "bad parent link");
            }
            if n.right != NIL {
                assert_eq!(t.nodes[n.right].parent, x, "bad parent link");
            }
            *count += 1;
            let bl = walk(t, n.left, lo, Some(&n.key), count);
            let br = walk(t, n.right, Some(&n.key), hi, count);
            assert_eq!(bl, br, "black heights differ");
            bl + usize::from(!n.red)
        }
        let mut count = 0;
        walk(self, self.root, None, None, &mut count);
        assert_eq!(count, self.len, "len mismatch");
    }
}

impl KvStore for RbTreeKv {
    fn name(&self) -> &'static str {
        "rbtree"
    }

    fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        let n = self.find(key);
        if n == NIL {
            None
        } else {
            let v = &self.nodes[n].value;
            self.stats.bytes_moved += v.len() as u64;
            Some(v)
        }
    }

    fn insert(&mut self, key: &[u8], value: &[u8]) -> bool {
        self.stats.bytes_moved += (key.len() + value.len()) as u64;
        let mut parent = NIL;
        let mut cur = self.root;
        let mut went_left = false;
        while cur != NIL {
            self.stats.nodes_visited += 1;
            self.stats.key_comparisons += 1;
            parent = cur;
            match key.cmp(self.nodes[cur].key.as_slice()) {
                std::cmp::Ordering::Less => {
                    cur = self.nodes[cur].left;
                    went_left = true;
                }
                std::cmp::Ordering::Greater => {
                    cur = self.nodes[cur].right;
                    went_left = false;
                }
                std::cmp::Ordering::Equal => {
                    value.clone_into(&mut self.nodes[cur].value);
                    return true;
                }
            }
        }
        let z = self.alloc(key.to_vec(), value.to_vec());
        self.nodes[z].parent = parent;
        if parent == NIL {
            self.root = z;
        } else if went_left {
            self.nodes[parent].left = z;
        } else {
            self.nodes[parent].right = z;
        }
        self.insert_fixup(z);
        self.len += 1;
        false
    }

    fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let z = self.find(key);
        if z == NIL {
            return None;
        }
        let mut y = z;
        let mut y_was_red = self.nodes[y].red;
        let x;
        if self.nodes[z].left == NIL {
            x = self.nodes[z].right;
            self.transplant(z, x);
        } else if self.nodes[z].right == NIL {
            x = self.nodes[z].left;
            self.transplant(z, x);
        } else {
            y = self.minimum(self.nodes[z].right);
            y_was_red = self.nodes[y].red;
            x = self.nodes[y].right;
            if self.nodes[y].parent == z {
                self.nodes[x].parent = y;
            } else {
                self.transplant(y, x);
                let zr = self.nodes[z].right;
                self.nodes[y].right = zr;
                self.nodes[zr].parent = y;
            }
            self.transplant(z, y);
            let zl = self.nodes[z].left;
            self.nodes[y].left = zl;
            self.nodes[zl].parent = y;
            self.nodes[y].red = self.nodes[z].red;
        }
        if !y_was_red {
            self.delete_fixup(x);
        }
        let value = std::mem::take(&mut self.nodes[z].value);
        self.nodes[z].key.clear();
        self.free.push(z);
        self.len -= 1;
        self.stats.bytes_moved += value.len() as u64;
        // Keep the sentinel pristine for the next operation.
        self.nodes[NIL] = RbNode::sentinel();
        Some(value)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn take_stats(&mut self) -> OpStats {
        std::mem::take(&mut self.stats)
    }

    fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) {
        fn walk(t: &RbTreeKv, x: usize, f: &mut dyn FnMut(&[u8], &[u8])) {
            if x == NIL {
                return;
            }
            walk(t, t.nodes[x].left, f);
            f(&t.nodes[x].key, &t.nodes[x].value);
            walk(t, t.nodes[x].right, f);
        }
        walk(self, self.root, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn red_black_invariants_hold_during_sequential_churn() {
        let mut t = RbTreeKv::new();
        for i in 0..300u32 {
            t.insert(&i.to_be_bytes(), &[0]);
            t.validate();
        }
        for i in (0..300u32).step_by(3) {
            assert!(t.remove(&i.to_be_bytes()).is_some());
            t.validate();
        }
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn in_order_iteration_is_sorted() {
        let mut t = RbTreeKv::new();
        for i in [42u8, 17, 99, 3, 58, 23, 77, 8] {
            t.insert(&[i], &[i]);
        }
        let mut keys = Vec::new();
        t.for_each(&mut |k, _| keys.push(k[0]));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn delete_cases_with_two_children() {
        // Exercise the successor-transplant path specifically.
        let mut t = RbTreeKv::new();
        for i in [50u8, 25, 75, 12, 37, 62, 87, 6, 18, 31, 43] {
            t.insert(&[i], &[i]);
        }
        // 25 and 50 have two children.
        assert_eq!(t.remove(&[25]), Some(vec![25]));
        t.validate();
        assert_eq!(t.remove(&[50]), Some(vec![50]));
        t.validate();
        assert_eq!(t.len(), 9);
        for i in [12u8, 37, 75, 6, 18, 31, 43, 62, 87] {
            assert_eq!(t.get(&[i]), Some(&[i][..]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn invariants_hold_under_random_ops(
            ops in prop::collection::vec((prop::collection::vec(0u8..32, 1..3), any::<bool>()), 0..250)
        ) {
            let mut t = RbTreeKv::new();
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
