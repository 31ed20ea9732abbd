//! A crash-consistent key-value store: index structure + WAL + checkpoint.
//!
//! Every mutation is first appended to the [`Wal`] (durably) and then
//! applied to the in-memory index. A checkpoint serializes the full index
//! into the arena and truncates the log. Recovery loads the last durable
//! checkpoint and replays the log over it. This is the redo discipline the
//! paper's server applications rely on, and the machinery PMNet's own
//! in-network redo log cooperates with after a failure (Section IV-E:
//! the server's last applied sequence number must itself be recoverable —
//! it is stored through this same path).

use std::fmt;

use pmnet_sim::SimRng;

use crate::kv::{KvStore, OpStats};
use crate::{ArenaStats, PmArena, PmPtr, Wal};

/// A mutating operation on a [`PersistentKv`]: a view of key and value
/// bytes wherever they already live (a wire buffer, a WAL record). Its WAL
/// record is `[tag:u8][klen:u32][key][value]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp<'a> {
    /// Insert or replace a key.
    Put {
        /// Key bytes.
        key: &'a [u8],
        /// Value bytes.
        value: &'a [u8],
    },
    /// Delete a key.
    Del {
        /// Key bytes.
        key: &'a [u8],
    },
}

impl<'a> KvOp<'a> {
    /// The WAL record as consecutive parts: header, key, value (empty for
    /// a `Del`).
    fn record(&self) -> ([u8; 5], &'a [u8], &'a [u8]) {
        let (tag, key, value) = match *self {
            KvOp::Put { key, value } => (1, key, value),
            KvOp::Del { key } => (2, key, &[][..]),
        };
        let mut head = [tag; 5];
        head[1..].copy_from_slice(&(key.len() as u32).to_le_bytes());
        (head, key, value)
    }

    /// Parses a WAL record.
    ///
    /// Returns `None` for malformed input.
    pub fn decode(bytes: &'a [u8]) -> Option<KvOp<'a>> {
        if bytes.len() < 5 {
            return None;
        }
        let tag = bytes[0];
        let klen = u32::from_le_bytes(bytes[1..5].try_into().ok()?) as usize;
        if bytes.len() < 5 + klen {
            return None;
        }
        let (key, value) = bytes[5..].split_at(klen);
        match tag {
            1 => Some(KvOp::Put { key, value }),
            2 if value.is_empty() => Some(KvOp::Del { key }),
            _ => None,
        }
    }
}

/// Layout of the durable root word: `(checkpoint_ptr, wal_ptr)` packed into
/// two u64 halves is impossible in one word, so the root points at a small
/// superblock holding both.
const SUPERBLOCK_LEN: usize = 32;

/// A crash-consistent KV store over a [`PmArena`].
pub struct PersistentKv {
    arena: PmArena,
    wal: Wal,
    index: Box<dyn KvStore>,
    checkpoint_ptr: PmPtr,
    checkpoint_cap: usize,
    ops_since_checkpoint: u64,
    applied: u64,
}

impl fmt::Debug for PersistentKv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PersistentKv")
            .field("index", &self.index.name())
            .field("len", &self.index.len())
            .field("wal_used", &self.wal.used())
            .finish()
    }
}

impl PersistentKv {
    /// Creates a fresh store with the given index structure, arena size and
    /// WAL/checkpoint region sizes.
    ///
    /// # Panics
    ///
    /// Panics if the arena cannot hold the regions.
    pub fn create(
        index: Box<dyn KvStore>,
        arena_bytes: usize,
        wal_bytes: usize,
        checkpoint_bytes: usize,
    ) -> PersistentKv {
        let mut arena = PmArena::new(arena_bytes);
        let superblock = arena.alloc(SUPERBLOCK_LEN).expect("arena too small");
        let wal = Wal::create(&mut arena, wal_bytes).expect("arena too small for WAL");
        let checkpoint_ptr = arena
            .alloc(checkpoint_bytes)
            .expect("arena too small for checkpoint");
        // Empty checkpoint: length 0, durable.
        arena.write(checkpoint_ptr, &0u64.to_le_bytes());
        arena.persist(checkpoint_ptr, 8);
        // Superblock: wal region, wal cap, checkpoint region, checkpoint cap.
        arena.write_u64(superblock, wal.region().0);
        arena.write_u64(PmPtr(superblock.0 + 8), wal_bytes as u64);
        arena.write_u64(PmPtr(superblock.0 + 16), checkpoint_ptr.0);
        arena.write_u64(PmPtr(superblock.0 + 24), checkpoint_bytes as u64);
        arena.persist(superblock, SUPERBLOCK_LEN);
        arena.set_root(superblock.0);
        PersistentKv {
            arena,
            wal,
            index,
            checkpoint_ptr,
            checkpoint_cap: checkpoint_bytes,
            ops_since_checkpoint: 0,
            applied: 0,
        }
    }

    /// A convenient default sizing for tests and workloads.
    pub fn with_defaults(index: Box<dyn KvStore>) -> PersistentKv {
        PersistentKv::create(index, 64 << 20, 16 << 20, 32 << 20)
    }

    /// The index structure's paper name.
    pub fn index_name(&self) -> &'static str {
        self.index.name()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Total mutations applied since creation/recovery.
    pub fn applied_ops(&self) -> u64 {
        self.applied
    }

    /// Reads a key (no durability interaction).
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.index.get(key)
    }

    /// Applies a mutation durably: WAL append (flush+fence) then index
    /// update. Returns the previous value, if any.
    ///
    /// # Panics
    ///
    /// Panics if the WAL fills and an automatic checkpoint cannot free it
    /// (store misconfiguration).
    pub fn apply(&mut self, op: &KvOp<'_>) -> Option<Vec<u8>> {
        let (head, key, value) = op.record();
        let record = [&head[..], key, value];
        if !self.wal.append(&mut self.arena, &record) {
            self.checkpoint();
            assert!(
                self.wal.append(&mut self.arena, &record),
                "WAL cannot hold a single record"
            );
        }
        self.ops_since_checkpoint += 1;
        self.applied += 1;
        match *op {
            KvOp::Put { key, value } => self.index.insert(key, value),
            KvOp::Del { key } => self.index.remove(key),
        }
    }

    /// Serializes the full index into the checkpoint region and truncates
    /// the WAL.
    ///
    /// # Panics
    ///
    /// Panics if the serialized index exceeds the checkpoint region.
    pub fn checkpoint(&mut self) {
        let mut len = 0;
        self.index
            .for_each(&mut |k, v| len += 8 + k.len() + v.len());
        assert!(
            len + 8 <= self.checkpoint_cap,
            "checkpoint region too small: need {}",
            len + 8
        );
        // Write payload first, then the length word, so a torn checkpoint
        // is never exposed (the old length keeps pointing at old data only
        // if lengths were equal — we accept the standard double-buffer
        // simplification of writing length last with a fence between).
        let data_ptr = PmPtr(self.checkpoint_ptr.0 + 8);
        if len > 0 {
            // Entries go from the index straight into the region, as
            // `[klen:u32][vlen:u32][key][value]` back to back.
            let arena = &mut self.arena;
            let mut at = data_ptr;
            self.index.for_each(&mut |k, v| {
                let mut head = [0; 8];
                head[..4].copy_from_slice(&(k.len() as u32).to_le_bytes());
                head[4..].copy_from_slice(&(v.len() as u32).to_le_bytes());
                for part in [&head[..], k, v] {
                    arena.write(at, part);
                    at.0 += part.len() as u64;
                }
            });
            arena.persist(data_ptr, len);
        }
        self.arena
            .write(self.checkpoint_ptr, &(len as u64).to_le_bytes());
        self.arena.persist(self.checkpoint_ptr, 8);
        self.wal.reset(&mut self.arena);
        self.ops_since_checkpoint = 0;
    }

    /// Mutations applied since the last checkpoint.
    pub fn ops_since_checkpoint(&self) -> u64 {
        self.ops_since_checkpoint
    }

    /// Simulates a power failure, consuming the store and returning the
    /// surviving arena (as found on the media).
    pub fn crash(mut self, rng: &mut SimRng) -> PmArena {
        self.arena.crash(rng);
        self.arena
    }

    /// Recovers a store from a crashed arena: loads the last checkpoint
    /// into a fresh index and replays the WAL.
    ///
    /// # Panics
    ///
    /// Panics if the arena's superblock is unreadable (which fenced writes
    /// make impossible in this model).
    pub fn recover(mut arena: PmArena, mut index: Box<dyn KvStore>) -> PersistentKv {
        let superblock = PmPtr(arena.root());
        assert!(
            !superblock.is_null(),
            "no superblock: arena was never initialized"
        );
        let wal_region = PmPtr(arena.read_u64(superblock));
        let wal_cap = arena.read_u64(PmPtr(superblock.0 + 8)) as usize;
        let checkpoint_ptr = PmPtr(arena.read_u64(PmPtr(superblock.0 + 16)));
        let checkpoint_cap = arena.read_u64(PmPtr(superblock.0 + 24)) as usize;
        // Load checkpoint.
        let blob_len = arena.read_u64(checkpoint_ptr) as usize;
        let blob = arena.read(PmPtr(checkpoint_ptr.0 + 8), blob_len).to_vec();
        let mut off = 0;
        while off + 8 <= blob.len() {
            let klen = u32::from_le_bytes(blob[off..off + 4].try_into().expect("4 bytes")) as usize;
            let vlen =
                u32::from_le_bytes(blob[off + 4..off + 8].try_into().expect("4 bytes")) as usize;
            off += 8;
            let key = &blob[off..off + klen];
            off += klen;
            let value = &blob[off..off + vlen];
            off += vlen;
            index.insert(key, value);
        }
        // Replay WAL.
        let (wal, records) = Wal::recover(&mut arena, wal_region, wal_cap);
        let mut applied = 0;
        for r in &records {
            let op = KvOp::decode(r).expect("WAL record passed CRC but failed to parse");
            match op {
                KvOp::Put { key, value } => {
                    index.insert(key, value);
                }
                KvOp::Del { key } => {
                    index.remove(key);
                }
            }
            applied += 1;
        }
        PersistentKv {
            arena,
            wal,
            index,
            checkpoint_ptr,
            checkpoint_cap,
            ops_since_checkpoint: applied,
            applied,
        }
    }

    /// The index's work counters since last taken (for service-time
    /// modeling).
    pub fn take_index_stats(&mut self) -> OpStats {
        self.index.take_stats()
    }

    /// The arena's persistence counters since last taken.
    pub fn take_arena_stats(&mut self) -> ArenaStats {
        self.arena.take_stats()
    }

    /// Visits every pair (for assertions in tests).
    pub fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) {
        self.index.for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{all_stores, store_by_name};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn contents(kv: &PersistentKv) -> BTreeMap<Vec<u8>, Vec<u8>> {
        let mut m = BTreeMap::new();
        kv.for_each(&mut |k, v| {
            m.insert(k.to_vec(), v.to_vec());
        });
        m
    }

    #[test]
    fn op_encoding_round_trips() {
        let ops = [
            KvOp::Put {
                key: b"k",
                value: b"value",
            },
            KvOp::Put {
                key: b"empty-value",
                value: b"",
            },
            KvOp::Put {
                key: b"",
                value: b"",
            },
            KvOp::Del { key: b"gone" },
        ];
        for op in ops {
            let (head, key, value) = op.record();
            let record = [&head[..], key, value].concat();
            assert_eq!(KvOp::decode(&record), Some(op));
        }
        assert_eq!(KvOp::decode(b""), None);
        assert_eq!(KvOp::decode(&[9, 0, 0, 0, 0]), None);
        // A `Del` carries no value; a key length past the record is torn.
        assert_eq!(KvOp::decode(&[2, 1, 0, 0, 0, b'k', b'v']), None);
        assert_eq!(KvOp::decode(&[1, 9, 0, 0, 0, b'k']), None);
    }

    #[test]
    fn crash_and_recover_preserves_every_applied_op() {
        let mut rng = SimRng::seed(21);
        for name in ["btree", "ctree", "rbtree", "hashmap", "skiplist"] {
            let mut kv = PersistentKv::with_defaults(store_by_name(name, 1));
            let mut model = BTreeMap::new();
            for i in 0..200u32 {
                let key = (i % 50).to_be_bytes().to_vec();
                if i % 7 == 3 {
                    kv.apply(&KvOp::Del { key: &key });
                    model.remove(&key);
                } else {
                    let value = i.to_le_bytes().to_vec();
                    kv.apply(&KvOp::Put {
                        key: &key,
                        value: &value,
                    });
                    model.insert(key, value);
                }
                if i == 100 {
                    kv.checkpoint();
                }
            }
            let arena = kv.crash(&mut rng);
            let recovered = PersistentKv::recover(arena, store_by_name(name, 1));
            assert_eq!(contents(&recovered), model, "{name}");
        }
    }

    #[test]
    fn recovery_with_no_checkpoint_replays_full_log() {
        let mut kv = PersistentKv::with_defaults(store_by_name("hashmap", 0));
        for i in 0..50u8 {
            kv.apply(&KvOp::Put {
                key: &[i],
                value: &[i, i],
            });
        }
        let arena = kv.crash(&mut SimRng::seed(5));
        let r = PersistentKv::recover(arena, store_by_name("hashmap", 0));
        assert_eq!(r.len(), 50);
        assert_eq!(r.applied_ops(), 50);
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives() {
        let mut kv = PersistentKv::with_defaults(store_by_name("btree", 0));
        for i in 0..20u8 {
            kv.apply(&KvOp::Put {
                key: &[i],
                value: &[i],
            });
        }
        kv.checkpoint();
        assert_eq!(kv.ops_since_checkpoint(), 0);
        let arena = kv.crash(&mut SimRng::seed(9));
        let r = PersistentKv::recover(arena, store_by_name("btree", 0));
        assert_eq!(r.len(), 20);
        // Nothing replayed: it all came from the checkpoint.
        assert_eq!(r.applied_ops(), 0);
    }

    #[test]
    fn wal_fills_trigger_automatic_checkpoint() {
        let mut kv = PersistentKv::create(store_by_name("hashmap", 0), 1 << 20, 4096, 256 << 10);
        let mut model = BTreeMap::new();
        for i in 0..200u32 {
            // Overwrites and deletes too, so the streamed checkpoint and
            // the log replayed over it must both be right.
            let key = (i % 150).to_be_bytes();
            if i % 11 == 5 {
                kv.apply(&KvOp::Del { key: &key });
                model.remove(&key[..]);
            } else {
                let value = vec![i as u8; 64];
                kv.apply(&KvOp::Put {
                    key: &key,
                    value: &value,
                });
                model.insert(key.to_vec(), value);
            }
        }
        assert_eq!(kv.len(), model.len());
        assert!(
            kv.ops_since_checkpoint() < 200,
            "a checkpoint must have fired"
        );
        let arena = kv.crash(&mut SimRng::seed(13));
        let recovered = PersistentKv::recover(arena, store_by_name("hashmap", 0));
        assert!(recovered.applied_ops() > 0, "the tail of the log replays");
        assert_eq!(contents(&recovered), model);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_crash_points_always_recover_consistently(
            ops in prop::collection::vec(
                (prop::collection::vec(0u8..6, 1..3), prop::option::of(prop::collection::vec(any::<u8>(), 0..12))),
                1..60
            ),
            crash_after in 0usize..60,
            seed in 0u64..1000,
        ) {
            let mut rng = SimRng::seed(seed);
            let mut kv = PersistentKv::with_defaults(store_by_name("btree", 0));
            let mut model = BTreeMap::new();
            for (i, (key, maybe_value)) in ops.iter().enumerate() {
                if i == crash_after {
                    break;
                }
                match maybe_value {
                    Some(v) => {
                        kv.apply(&KvOp::Put { key, value: v });
                        model.insert(key.clone(), v.clone());
                    }
                    None => {
                        kv.apply(&KvOp::Del { key });
                        model.remove(key);
                    }
                }
            }
            let arena = kv.crash(&mut rng);
            let recovered = PersistentKv::recover(arena, store_by_name("btree", 0));
            // Every acknowledged (i.e. applied) op must be present after
            // recovery: apply() fences before returning.
            prop_assert_eq!(contents(&recovered), model);
        }
    }

    #[test]
    fn all_index_kinds_take_stats_through_the_wrapper() {
        for index in all_stores(3) {
            let mut kv = PersistentKv::with_defaults(index);
            kv.apply(&KvOp::Put {
                key: b"a",
                value: b"b",
            });
            let idx = kv.take_index_stats();
            let arena = kv.take_arena_stats();
            assert!(idx.bytes_moved > 0);
            assert!(arena.fences > 0, "WAL append must fence");
        }
    }
}
