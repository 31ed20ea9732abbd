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
//!
//! Checkpoints are written out of place. The arena holds two image slots,
//! each `[len:u32][generation:u32][entries]`; generation `g` goes to slot
//! `g & 1`, so the image recovery would load is never the one being
//! written, and its header word is stored only after its entries are
//! fenced. The slot with the larger generation is the live image, and its
//! generation is the WAL's epoch: the fence under the header word retires
//! the previous image and every record logged over it together.

use std::fmt;

use pmnet_sim::SimRng;

use crate::kv::{KvStore, OpStats};
use crate::{ArenaStats, PmArena, PmPtr, Wal, LINE};

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

/// The root points at a superblock of four words: WAL region, WAL
/// capacity, first image slot, bytes per image slot.
const SUPERBLOCK_LEN: usize = 32;

/// A crash-consistent KV store over a [`PmArena`].
pub struct PersistentKv {
    arena: PmArena,
    wal: Wal,
    index: Box<dyn KvStore>,
    /// The first of the two image slots.
    images: PmPtr,
    /// Bytes per image slot, header word included.
    image_cap: usize,
    /// Generation of the live image.
    generation: u32,
    ops_since_checkpoint: u64,
    applied: u64,
}

/// Where the image of `generation` lives. Slots are a whole number of lines
/// apart, so an image flushes the same lines in either.
fn image_slot(images: PmPtr, image_cap: usize, generation: u32) -> PmPtr {
    PmPtr(images.0 + (generation as u64 & 1) * image_cap as u64)
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
    /// Creates a fresh store with the given index structure, arena size,
    /// WAL size and the largest checkpoint image it must hold (two image
    /// slots of that size are allocated).
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
        let image_cap = checkpoint_bytes.next_multiple_of(LINE);
        let images = arena
            .alloc(2 * image_cap)
            .expect("arena too small for checkpoint");
        // Generation 0: an empty image, durable.
        arena.store_persist(images, 8, |word| word.fill(0));
        let words = [wal.region().0, wal_bytes as u64, images.0, image_cap as u64];
        arena.store_persist(superblock, SUPERBLOCK_LEN, |block| {
            for (at, word) in block.chunks_exact_mut(8).zip(words) {
                at.copy_from_slice(&word.to_le_bytes());
            }
        });
        arena.set_root(superblock.0);
        PersistentKv {
            arena,
            wal,
            index,
            images,
            image_cap,
            generation: 0,
            ops_since_checkpoint: 0,
            applied: 0,
        }
    }

    /// A convenient default sizing for tests and workloads: a 16 MiB WAL
    /// and two 16 MiB image slots, in an arena of exactly that layout
    /// (48 MiB, plus the reserved null line and the superblock).
    pub fn with_defaults(index: Box<dyn KvStore>) -> PersistentKv {
        let (wal_bytes, checkpoint_bytes) = (16 << 20, 16 << 20);
        let arena_bytes = PersistentKv::layout_bytes(wal_bytes, checkpoint_bytes);
        PersistentKv::create(index, arena_bytes, wal_bytes, checkpoint_bytes)
    }

    /// The arena [`PersistentKv::create`] lays out: the superblock, the WAL
    /// and the two image slots, allocated in that order.
    fn layout_bytes(wal_bytes: usize, checkpoint_bytes: usize) -> usize {
        let image_cap = checkpoint_bytes.next_multiple_of(LINE);
        PmArena::footprint(&[SUPERBLOCK_LEN, wal_bytes, 2 * image_cap])
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
    pub fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        self.index.get(key)
    }

    /// Applies a mutation durably: WAL append (flush+fence) then index
    /// update. Returns whether the key was present before.
    ///
    /// # Panics
    ///
    /// Panics if the WAL fills and an automatic checkpoint cannot free it
    /// (store misconfiguration).
    pub fn apply(&mut self, op: &KvOp<'_>) -> bool {
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
            KvOp::Del { key } => self.index.remove(key).is_some(),
        }
    }

    /// Serializes the full index into the image slot the live image does
    /// not occupy, makes it the live one and truncates the WAL.
    ///
    /// # Panics
    ///
    /// Panics if the serialized index exceeds an image slot.
    pub fn checkpoint(&mut self) {
        let mut len = 0;
        self.index
            .for_each(&mut |k, v| len += 8 + k.len() + v.len());
        assert!(
            len + 8 <= self.image_cap,
            "checkpoint region too small: need {}",
            len + 8
        );
        let generation = self.generation + 1;
        let slot = image_slot(self.images, self.image_cap, generation);
        // Entries first, then the header word with a fence between: until
        // that word is durable recovery reads the slot's stale, smaller
        // generation and loads the other slot, which nothing here touches.
        if len > 0 {
            // Entries go from the index straight into the region, as
            // `[klen:u32][vlen:u32][key][value]` back to back.
            let index = &self.index;
            self.arena.store_persist(PmPtr(slot.0 + 8), len, |body| {
                let mut at = 0;
                index.for_each(&mut |k, v| {
                    body[at..at + 4].copy_from_slice(&(k.len() as u32).to_le_bytes());
                    body[at + 4..at + 8].copy_from_slice(&(v.len() as u32).to_le_bytes());
                    at += 8;
                    for part in [k, v] {
                        body[at..at + part.len()].copy_from_slice(part);
                        at += part.len();
                    }
                });
            });
        }
        let len = u32::try_from(len).expect("image slots are under 4 GiB");
        let head = (generation as u64) << 32 | len as u64;
        self.arena
            .store_persist(slot, 8, |word| word.copy_from_slice(&head.to_le_bytes()));
        self.generation = generation;
        // The log's records are of the retired epoch now, whether or not
        // the reset below gets to run.
        self.wal.reset(&mut self.arena, generation);
        self.ops_since_checkpoint = 0;
    }

    /// Mutations applied since the last checkpoint.
    pub fn ops_since_checkpoint(&self) -> u64 {
        self.ops_since_checkpoint
    }

    /// The arena under the store: the crash injector's handle
    /// ([`PmArena::arm`], [`PmArena::crash_losing_all`]).
    pub fn arena_mut(&mut self) -> &mut PmArena {
        &mut self.arena
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
        let images = PmPtr(arena.read_u64(PmPtr(superblock.0 + 16)));
        let image_cap = arena.read_u64(PmPtr(superblock.0 + 24)) as usize;
        // Load the live image. The generation is the high half of a
        // slot's header word, so the larger word is the live slot's.
        let [even, odd] = [0, 1].map(|g| arena.read_u64(image_slot(images, image_cap, g)));
        let head = even.max(odd);
        let generation = (head >> 32) as u32;
        let slot = image_slot(images, image_cap, generation);
        let blob = arena.read(PmPtr(slot.0 + 8), head as u32 as usize);
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
        // Replay WAL, each op decoded straight from the arena's bytes.
        let mut applied = 0;
        let wal = Wal::recover(&mut arena, wal_region, wal_cap, generation, |r| {
            match KvOp::decode(r).expect("WAL record passed CRC but failed to parse") {
                KvOp::Put { key, value } => {
                    index.insert(key, value);
                }
                KvOp::Del { key } => {
                    index.remove(key);
                }
            }
            applied += 1;
        });
        PersistentKv {
            arena,
            wal,
            index,
            images,
            image_cap,
            generation,
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

    #[test]
    fn the_default_arena_is_exactly_its_layout() {
        let mut kv = PersistentKv::with_defaults(store_by_name("btree", 0));
        let arena = kv.arena_mut();
        // 48 MiB + 96 B laid out, rounded up to a whole line.
        assert_eq!(arena.allocated(), (48 << 20) + 96);
        assert_eq!(arena.capacity(), arena.allocated().next_multiple_of(LINE));
    }

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

    /// `KvHandler` turns flushes and fences into service time, so these
    /// counts are under every pinned digest: 4 + 4 to create, and per
    /// checkpoint the image's lines, its header word and the WAL
    /// terminator under three fences, in either slot.
    #[test]
    fn create_and_checkpoint_keep_their_flush_and_fence_counts() {
        let mut kv = PersistentKv::with_defaults(store_by_name("btree", 0));
        let s = kv.take_arena_stats();
        assert_eq!((s.flushes, s.fences), (4, 4));
        for round in 0..3u8 {
            kv.apply(&KvOp::Put {
                key: b"k",
                value: &[round; 100],
            });
            kv.take_arena_stats();
            kv.checkpoint();
            let s = kv.take_arena_stats();
            // A slot starts 32 bytes into a line: 32 + 8 + 109 bytes.
            assert_eq!((s.flushes, s.fences), (3 + 2, 3), "checkpoint {round}");
        }
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
