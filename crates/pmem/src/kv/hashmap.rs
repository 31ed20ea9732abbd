//! A separate-chaining hash table (the PMDK `hashmap` workload).

use pmnet_sim::hash::{fnv1a, FNV_OFFSET};

use super::{KvStore, OpStats};

const INITIAL_BUCKETS: usize = 16;
const MAX_LOAD_NUM: usize = 3; // resize when len > buckets * 3/4
const MAX_LOAD_DEN: usize = 4;

/// A chained hash map over byte-string keys.
#[derive(Debug, Default)]
pub struct HashMapKv {
    buckets: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    len: usize,
    stats: OpStats,
}

impl HashMapKv {
    /// Creates an empty map.
    pub fn new() -> HashMapKv {
        HashMapKv {
            buckets: vec![Vec::new(); INITIAL_BUCKETS],
            len: 0,
            stats: OpStats::default(),
        }
    }

    fn bucket_of(&self, key: &[u8]) -> usize {
        (fnv1a(FNV_OFFSET, key) % self.buckets.len() as u64) as usize
    }

    fn maybe_grow(&mut self) {
        if self.len * MAX_LOAD_DEN <= self.buckets.len() * MAX_LOAD_NUM {
            return;
        }
        let new_n = self.buckets.len() * 2;
        let mut next = vec![Vec::new(); new_n];
        for bucket in self.buckets.drain(..) {
            for (k, v) in bucket {
                let idx = (fnv1a(FNV_OFFSET, &k) % new_n as u64) as usize;
                self.stats.bytes_moved += (k.len() + v.len()) as u64;
                next[idx].push((k, v));
            }
        }
        self.buckets = next;
        self.stats.nodes_visited += new_n as u64;
    }

    /// Current bucket count (exposed for the resizing test).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

impl KvStore for HashMapKv {
    fn name(&self) -> &'static str {
        "hashmap"
    }

    fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        let b = self.bucket_of(key);
        self.stats.nodes_visited += 1;
        for (k, v) in &self.buckets[b] {
            self.stats.key_comparisons += 1;
            if k == key {
                self.stats.bytes_moved += v.len() as u64;
                return Some(v);
            }
        }
        None
    }

    fn insert(&mut self, key: &[u8], value: &[u8]) -> bool {
        let b = self.bucket_of(key);
        self.stats.nodes_visited += 1;
        self.stats.bytes_moved += (key.len() + value.len()) as u64;
        for (k, v) in &mut self.buckets[b] {
            self.stats.key_comparisons += 1;
            if k == key {
                value.clone_into(v);
                return true;
            }
        }
        self.buckets[b].push((key.to_vec(), value.to_vec()));
        self.len += 1;
        self.maybe_grow();
        false
    }

    fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let b = self.bucket_of(key);
        self.stats.nodes_visited += 1;
        let bucket = &mut self.buckets[b];
        for i in 0..bucket.len() {
            self.stats.key_comparisons += 1;
            if bucket[i].0 == key {
                let (_, v) = bucket.swap_remove(i);
                self.len -= 1;
                self.stats.bytes_moved += v.len() as u64;
                return Some(v);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn take_stats(&mut self) -> OpStats {
        std::mem::take(&mut self.stats)
    }

    fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) {
        for bucket in &self.buckets {
            for (k, v) in bucket {
                f(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_under_load() {
        let mut m = HashMapKv::new();
        let start = m.bucket_count();
        for i in 0..1000u32 {
            m.insert(&i.to_be_bytes(), b"v");
        }
        assert!(m.bucket_count() > start * 8);
        // Load factor below threshold afterwards.
        assert!(m.len() * MAX_LOAD_DEN <= m.bucket_count() * MAX_LOAD_NUM);
    }

    #[test]
    fn collisions_are_handled_by_chaining() {
        // With only 16 initial buckets, 64 keys guarantee collisions before
        // the first resize completes; all must remain reachable.
        let mut m = HashMapKv::new();
        for i in 0..64u8 {
            m.insert(&[i], &[i]);
        }
        for i in 0..64u8 {
            assert_eq!(m.get(&[i]), Some(&[i][..]));
        }
    }

    #[test]
    fn fnv_distinguishes_keys() {
        assert_ne!(fnv1a(FNV_OFFSET, b"a"), fnv1a(FNV_OFFSET, b"b"));
        assert_ne!(fnv1a(FNV_OFFSET, b""), fnv1a(FNV_OFFSET, b"\0"));
    }
}
