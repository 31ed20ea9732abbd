//! A checksummed write-ahead (redo) log on a [`PmArena`].
//!
//! Records are appended sequentially as `[len:u32][crc:u32][payload]` and
//! made durable with one flush+fence per append. Recovery scans from the
//! start of the region and stops at the first hole: a zero length, a length
//! that exceeds the region, or a CRC mismatch (a torn record from a crash
//! mid-append). This is the same redo discipline PMNet itself applies to
//! in-flight requests — the logged packet *is* the redo record.
//!
//! Every CRC is seeded with the log's *epoch*, a number its owner keeps
//! durable and raises at each [`Wal::reset`]. Truncation only rewrites the
//! first length word, so the bytes of older records stay in the region,
//! and a torn append that keeps its own lines but loses the line holding
//! its terminator lets the scan run on into them. Under the current epoch
//! they fail the CRC like any other hole.

use crate::crc32::{crc32_finish, crc32_init, crc32_update};
use crate::{PmArena, PmPtr};

const HEADER: usize = 8;

/// Cumulative WAL counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since creation/recovery.
    pub appends: u64,
    /// Payload bytes appended.
    pub payload_bytes: u64,
    /// Times the log was truncated by a checkpoint.
    pub resets: u64,
}

/// A write-ahead log living in a fixed region of a [`PmArena`].
#[derive(Debug)]
pub struct Wal {
    region: PmPtr,
    capacity: usize,
    tail: usize,
    /// The CRC state every record of the current epoch starts from.
    seed: u32,
    stats: WalStats,
}

/// The CRC state every record of `epoch` starts from.
fn crc_seed(epoch: u32) -> u32 {
    crc32_update(crc32_init(), &epoch.to_le_bytes())
}

impl Wal {
    /// Allocates a `capacity`-byte log region in `arena`, at epoch 0.
    ///
    /// Returns `None` if the arena cannot fit the region.
    pub fn create(arena: &mut PmArena, capacity: usize) -> Option<Wal> {
        let region = arena.alloc(capacity)?;
        // Durable zero length marks an empty log.
        arena.store_persist(region, 4, |word| word.fill(0));
        Some(Wal {
            region,
            capacity,
            tail: 0,
            seed: crc_seed(0),
            stats: WalStats::default(),
        })
    }

    /// The region base pointer (store it in the arena root for recovery).
    pub fn region(&self) -> PmPtr {
        self.region
    }

    /// The region capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently used (headers + payloads + terminator).
    pub fn used(&self) -> usize {
        self.tail
    }

    /// Counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Appends one record durably; its payload is the concatenation of
    /// `parts`, each stored from where it lives. Returns `false` (without
    /// writing) if the region cannot hold the record plus its terminator.
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty (a zero length is the log terminator).
    pub fn append(&mut self, arena: &mut PmArena, parts: &[&[u8]]) -> bool {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        assert!(len > 0, "empty WAL record");
        let need = HEADER + len + 4; // +4 for the next terminator
        if self.tail + need > self.capacity {
            return false;
        }
        let base = PmPtr(self.region.0 + self.tail as u64);
        let crc = crc32_finish(parts.iter().fold(self.seed, |s, p| crc32_update(s, p)));
        // Header, payload and the *next* record's terminator are one
        // persisted range: a crash sees its lines, never the order of the
        // stores inside it, and the CRC catches a torn length/payload pair.
        arena.store_persist(base, HEADER + len + 4, |record| {
            record[..4].copy_from_slice(&(len as u32).to_le_bytes());
            record[4..HEADER].copy_from_slice(&crc.to_le_bytes());
            let mut at = HEADER;
            for part in parts {
                record[at..at + part.len()].copy_from_slice(part);
                at += part.len();
            }
            record[at..].fill(0);
        });
        self.tail += HEADER + len;
        self.stats.appends += 1;
        self.stats.payload_bytes += len as u64;
        true
    }

    /// Scans the region and hands `visit` every intact record of `epoch`
    /// in append order, as a borrow of the arena's bytes (nothing is
    /// copied). Used after a crash; also rebuilds the in-memory tail.
    pub fn recover(
        arena: &mut PmArena,
        region: PmPtr,
        capacity: usize,
        epoch: u32,
        mut visit: impl FnMut(&[u8]),
    ) -> Wal {
        let seed = crc_seed(epoch);
        let mut off = 0usize;
        loop {
            if off + HEADER > capacity {
                break;
            }
            let base = PmPtr(region.0 + off as u64);
            let len = {
                let mut b = [0u8; 4];
                b.copy_from_slice(arena.read(base, 4));
                u32::from_le_bytes(b) as usize
            };
            if len == 0 || off + HEADER + len > capacity {
                break;
            }
            let crc_stored = {
                let mut b = [0u8; 4];
                b.copy_from_slice(arena.read(PmPtr(base.0 + 4), 4));
                u32::from_le_bytes(b)
            };
            let payload = arena.read(PmPtr(base.0 + 8), len);
            if crc32_finish(crc32_update(seed, payload)) != crc_stored {
                break; // torn or pre-reset record: ignore it and everything after
            }
            visit(payload);
            off += HEADER + len;
        }
        Wal {
            region,
            capacity,
            tail: off,
            seed,
            stats: WalStats::default(),
        }
    }

    /// Truncates the log (after a checkpoint made its contents redundant)
    /// and starts `epoch`, which the caller has already made durable and
    /// which no earlier record of this region carries.
    pub fn reset(&mut self, arena: &mut PmArena, epoch: u32) {
        arena.store_persist(self.region, 4, |word| word.fill(0));
        self.tail = 0;
        self.seed = crc_seed(epoch);
        self.stats.resets += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmnet_sim::SimRng;

    fn setup(cap: usize) -> (PmArena, Wal) {
        let mut arena = PmArena::new(cap + 4096);
        let wal = Wal::create(&mut arena, cap).unwrap();
        (arena, wal)
    }

    /// [`Wal::recover`], copying out every record.
    fn recover(
        arena: &mut PmArena,
        region: PmPtr,
        capacity: usize,
        epoch: u32,
    ) -> (Wal, Vec<Vec<u8>>) {
        let mut records = Vec::new();
        let wal = Wal::recover(arena, region, capacity, epoch, |r| records.push(r.to_vec()));
        (wal, records)
    }

    #[test]
    fn append_then_recover_round_trips() {
        let (mut arena, mut wal) = setup(4096);
        for i in 0..10u8 {
            assert!(wal.append(&mut arena, &[&[i; 10]]));
        }
        let (recovered, records) = recover(&mut arena, wal.region(), wal.capacity(), 0);
        assert_eq!(records.len(), 10);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r, &vec![i as u8; 10]);
        }
        assert_eq!(recovered.used(), wal.used());
    }

    #[test]
    fn recovery_after_worst_case_crash_sees_all_fenced_records() {
        let (mut arena, mut wal) = setup(4096);
        for i in 0..5u8 {
            wal.append(&mut arena, &[&[i; 20]]);
        }
        arena.crash_losing_all(); // appends are fenced: nothing to lose
        let (_, records) = recover(&mut arena, wal.region(), wal.capacity(), 0);
        assert_eq!(records.len(), 5);
    }

    #[test]
    fn torn_tail_record_is_discarded() {
        let (mut arena, mut wal) = setup(4096);
        wal.append(&mut arena, &[b"intact-record"]);
        // Simulate a torn append: write a plausible header+payload but
        // corrupt the payload relative to the CRC, unfenced.
        let base = PmPtr(wal.region().0 + wal.used() as u64);
        arena.write(PmPtr(base.0 + 4), &0xDEAD_BEEFu32.to_le_bytes());
        arena.write(PmPtr(base.0 + 8), b"torn");
        arena.write(base, &4u32.to_le_bytes());
        let (_, records) = recover(&mut arena, wal.region(), wal.capacity(), 0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], b"intact-record");
    }

    #[test]
    fn random_crashes_never_yield_corrupt_records() {
        let mut rng = SimRng::seed(11);
        for trial in 0..30 {
            let (mut arena, mut wal) = setup(8192);
            let n = 3 + trial % 7;
            for i in 0..n {
                wal.append(&mut arena, &[&[i as u8 + 1; 33]]);
            }
            arena.crash(&mut rng);
            let (_, records) = recover(&mut arena, wal.region(), wal.capacity(), 0);
            // All appends were fenced, so all must be recovered intact, in
            // order.
            assert_eq!(records.len(), n);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r, &vec![i as u8 + 1; 33]);
            }
        }
    }

    #[test]
    fn full_log_rejects_appends() {
        let (mut arena, mut wal) = setup(64);
        assert!(wal.append(&mut arena, &[&[1; 16]]));
        assert!(!wal.append(&mut arena, &[&[2; 64]]));
        // The rejected append must not corrupt the log.
        let (_, records) = recover(&mut arena, wal.region(), wal.capacity(), 0);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn reset_truncates_durably() {
        let (mut arena, mut wal) = setup(4096);
        wal.append(&mut arena, &[b"abc"]);
        wal.reset(&mut arena, 1);
        arena.crash_losing_all();
        let (_, records) = recover(&mut arena, wal.region(), wal.capacity(), 1);
        assert!(records.is_empty());
        assert_eq!(wal.stats().resets, 1);
    }

    #[test]
    fn records_of_an_earlier_epoch_are_holes() {
        let (mut arena, mut wal) = setup(4096);
        wal.append(&mut arena, &[b"first"]);
        wal.append(&mut arena, &[b"second"]);
        wal.reset(&mut arena, 1);
        wal.append(&mut arena, &[b"third"]);
        // "third" ends where "second" began: put the old length word back
        // over the new terminator, as a torn append that lost that line
        // would leave it.
        let old = PmPtr(wal.region().0 + wal.used() as u64);
        arena.write(old, &6u32.to_le_bytes());
        let (_, records) = recover(&mut arena, wal.region(), wal.capacity(), 1);
        assert_eq!(records, [b"third"]);
        let (_, records) = recover(&mut arena, wal.region(), wal.capacity(), 0);
        assert!(records.is_empty(), "the live record is a hole to epoch 0");
    }

    #[test]
    fn stats_track_appends() {
        let (mut arena, mut wal) = setup(4096);
        wal.append(&mut arena, &[&[0; 7]]);
        wal.append(&mut arena, &[&[0; 9]]);
        assert_eq!(wal.stats().appends, 2);
        assert_eq!(wal.stats().payload_bytes, 16);
    }

    #[test]
    #[should_panic(expected = "empty WAL record")]
    fn empty_record_panics() {
        let (mut arena, mut wal) = setup(4096);
        wal.append(&mut arena, &[b"", b""]);
    }

    #[test]
    fn parts_store_exactly_what_the_joined_record_would() {
        let mut rng = SimRng::seed(23);
        // Unaligned part boundaries, an empty part in the middle and at
        // the end, and a record spanning many lines.
        let records: [&[&[u8]]; 4] = [
            &[&[1, 0, 0, 0, 3], b"key", &[7; 300]],
            &[&[2, 0, 0, 0, 5], b"gone!", b""],
            &[b"", &[9; 61], b"", &[8; 70]],
            &[&[5; 2048]],
        ];
        let (mut by_parts, mut wal_parts) = setup(8192);
        let (mut joined, mut wal_joined) = setup(8192);
        for parts in records {
            assert!(wal_parts.append(&mut by_parts, parts));
            assert!(wal_joined.append(&mut joined, &[&parts.concat()]));
            assert_eq!(by_parts.stats(), joined.stats());
        }
        assert_eq!(wal_parts.stats(), wal_joined.stats());
        assert_eq!(wal_parts.used(), wal_joined.used());
        let cap = by_parts.capacity();
        assert_eq!(by_parts.read(PmPtr(0), cap), joined.read(PmPtr(0), cap));
        by_parts.crash(&mut rng);
        let (_, recovered) = recover(&mut by_parts, wal_parts.region(), wal_parts.capacity(), 0);
        let want: Vec<Vec<u8>> = records.iter().map(|parts| parts.concat()).collect();
        assert_eq!(recovered, want);
    }
}
