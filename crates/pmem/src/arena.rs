//! A byte-addressable persistent-memory arena with cache-line-granular
//! crash semantics.
//!
//! Real persistent memory sits behind a volatile write-back cache: a store
//! only becomes durable once its cache line is flushed (`clwb`) and the
//! flush is ordered by a fence (`sfence`) — *or* whenever the cache decides
//! to evict the line on its own. The adversarial consequence: at a crash,
//! any subset of un-fenced dirty lines may have reached the media.
//!
//! [`PmArena`] models exactly that. Stores mark lines dirty while
//! remembering their last durable contents; [`PmArena::flush`] +
//! [`PmArena::fence`] commit lines, and [`PmArena::store_persist`] stores,
//! flushes and fences in one call; [`PmArena::crash`] durably keeps a
//! random subset of the remaining dirty lines and reverts the rest. Crash-
//! consistency property tests in [`crate::PersistentKv`] drive recovery
//! across many random subsets.
//!
//! The unfenced set is tracked densely (DESIGN.md §10.4): a dirty bit and
//! a flushed bit per line plus one undo log of pre-images, so the store
//! path neither hashes nor, once the log has grown, allocates.
//!
//! The arena is also its own crash injector. Every [`PmArena::fence`] and
//! [`PmArena::set_root`] is a numbered *persist point*; [`PmArena::arm`]
//! cuts the power at the N-th one from now. The tripped fence and every
//! later store, flush and fence are dropped, so the code under test runs
//! on to its end unaware — no error threads through it — and the next
//! [`PmArena::crash`] decides what the media kept of the lines that were
//! still unfenced at the cut. `tests/crash_sweep.rs` kills the serving
//! store at every persist point this way.

use std::fmt;

use pmnet_sim::SimRng;

/// Cache-line size used for persistence granularity.
pub const LINE: usize = 64;

/// An offset into a [`PmArena`] (a "persistent pointer").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PmPtr(pub u64);

impl PmPtr {
    /// The null pointer (offset 0 is reserved and never allocated).
    pub const NULL: PmPtr = PmPtr(0);

    /// True if this is the reserved null pointer.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The byte offset.
    pub fn offset(self) -> usize {
        self.0 as usize
    }
}

/// Word index and bit mask of `line` in a one-bit-per-line map.
fn bit(line: usize) -> (usize, u64) {
    (line / 64, 1 << (line % 64))
}

/// Counters of persistence operations (inputs to [`crate::CostModel`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Lines flushed (`clwb` equivalents).
    pub flushes: u64,
    /// Fences issued (`sfence` equivalents).
    pub fences: u64,
    /// Bytes written by stores.
    pub bytes_written: u64,
    /// Bytes read by loads.
    pub bytes_read: u64,
}

/// A simulated persistent-memory region with a bump/free-list allocator.
///
/// # Example
///
/// ```
/// use pmnet_pmem::PmArena;
/// use pmnet_sim::SimRng;
///
/// let mut pm = PmArena::new(4096);
/// let p = pm.alloc(8).unwrap();
/// pm.write_u64(p, 42);
/// pm.flush(p, 8);
/// pm.fence();
/// // A crash cannot lose fenced data.
/// pm.crash(&mut SimRng::seed(0));
/// assert_eq!(pm.read_u64(p), 42);
/// ```
pub struct PmArena {
    data: Vec<u8>,
    /// One bit per line: stored to since the line was last durable.
    dirty: Vec<u64>,
    /// One bit per line: dirty, and flushed since its last store.
    flushed: Vec<u64>,
    /// The dirty lines in first-touch order, each with its last durable
    /// contents.
    undo: Vec<(usize, [u8; LINE])>,
    next_free: usize,
    /// Freed blocks (LIFO), indexed by size-class exponent.
    free_lists: [Vec<usize>; usize::BITS as usize],
    root: u64,
    stats: ArenaStats,
    /// Fences and root updates issued so far, dropped ones included.
    persist_points: u64,
    /// The persist point that cuts the power (0: unarmed).
    trip_at: u64,
    /// Power is cut: stores, flushes and persist points are dropped.
    off: bool,
}

impl fmt::Debug for PmArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmArena")
            .field("capacity", &self.data.len())
            .field("allocated", &self.next_free)
            .field("dirty_lines", &self.undo.len())
            .finish()
    }
}

impl PmArena {
    /// Creates an arena of `capacity` bytes (rounded up to a line).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PmArena {
        assert!(capacity > 0, "arena capacity must be positive");
        let capacity = capacity.div_ceil(LINE) * LINE;
        PmArena {
            data: vec![0; capacity],
            dirty: vec![0; (capacity / LINE).div_ceil(64)],
            flushed: vec![0; (capacity / LINE).div_ceil(64)],
            undo: Vec::new(),
            // Offset 0 is reserved so PmPtr::NULL is never a valid object.
            next_free: LINE,
            free_lists: std::array::from_fn(|_| Vec::new()),
            root: 0,
            stats: ArenaStats::default(),
            persist_points: 0,
            trip_at: 0,
            off: false,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Bytes handed out by the allocator (highwater, ignoring free lists).
    pub fn allocated(&self) -> usize {
        self.next_free
    }

    /// Persistence-operation counters since the last [`take_stats`].
    ///
    /// [`take_stats`]: PmArena::take_stats
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Returns and resets the persistence counters.
    pub fn take_stats(&mut self) -> ArenaStats {
        std::mem::take(&mut self.stats)
    }

    /// Blocks are powers of two from 8 bytes up; a class is its exponent.
    fn size_class(len: usize) -> usize {
        len.next_power_of_two().max(8).trailing_zeros() as usize
    }

    /// The capacity a fresh arena needs to hand out blocks of `lens`, in
    /// that order: the reserved first line, then each block rounded up to
    /// its size class.
    pub fn footprint(lens: &[usize]) -> usize {
        LINE + lens
            .iter()
            .map(|&len| 1 << Self::size_class(len))
            .sum::<usize>()
    }

    /// Allocates `len` bytes, reusing freed blocks of the same size class.
    /// Returns `None` when the arena is exhausted.
    pub fn alloc(&mut self, len: usize) -> Option<PmPtr> {
        assert!(len > 0, "zero-length allocation");
        let class = Self::size_class(len);
        if let Some(off) = self.free_lists[class].pop() {
            return Some(PmPtr(off as u64));
        }
        if self.next_free + (1 << class) > self.data.len() {
            return None;
        }
        let off = self.next_free;
        self.next_free += 1 << class;
        Some(PmPtr(off as u64))
    }

    /// Returns a block to the allocator.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is null.
    pub fn free(&mut self, ptr: PmPtr, len: usize) {
        assert!(!ptr.is_null(), "freeing null pointer");
        self.free_lists[Self::size_class(len)].push(ptr.offset());
    }

    /// Stores `bytes` at `ptr` (volatile until flushed and fenced). An
    /// empty store touches no line.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn write(&mut self, ptr: PmPtr, bytes: &[u8]) {
        let start = ptr.offset();
        assert!(
            start + bytes.len() <= self.data.len(),
            "write out of bounds: {start}+{} > {}",
            bytes.len(),
            self.data.len()
        );
        if bytes.is_empty() || self.off {
            return;
        }
        for line in start / LINE..=(start + bytes.len() - 1) / LINE {
            let (word, mask) = bit(line);
            if self.dirty[word] & mask == 0 {
                self.dirty[word] |= mask;
                let durable = self.data[line * LINE..(line + 1) * LINE].try_into();
                self.undo.push((line, durable.expect("one line")));
            }
            // A new store to an already-flushed-but-unfenced line reopens
            // it: the line's durability is again unordered.
            self.flushed[word] &= !mask;
        }
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
        self.stats.bytes_written += bytes.len() as u64;
    }

    /// Loads `len` bytes at `ptr` (sees the latest stores, durable or not,
    /// exactly like a CPU load).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn read(&mut self, ptr: PmPtr, len: usize) -> &[u8] {
        let start = ptr.offset();
        assert!(start + len <= self.data.len(), "read out of bounds");
        self.stats.bytes_read += len as u64;
        &self.data[start..start + len]
    }

    /// Stores a little-endian u64.
    pub fn write_u64(&mut self, ptr: PmPtr, v: u64) {
        self.write(ptr, &v.to_le_bytes());
    }

    /// Loads a little-endian u64.
    pub fn read_u64(&mut self, ptr: PmPtr) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.read(ptr, 8));
        u64::from_le_bytes(b)
    }

    /// Issues flushes (`clwb`) for the lines covering `[ptr, ptr+len)`.
    /// Flushed lines become durable at the next [`fence`].
    ///
    /// [`fence`]: PmArena::fence
    pub fn flush(&mut self, ptr: PmPtr, len: usize) {
        assert!(len > 0, "zero-length flush");
        let start = ptr.offset();
        assert!(start + len <= self.data.len(), "flush out of bounds");
        if self.off {
            return;
        }
        for line in start / LINE..=(start + len - 1) / LINE {
            let (word, mask) = bit(line);
            if self.dirty[word] & !self.flushed[word] & mask != 0 {
                self.flushed[word] |= mask;
                self.stats.flushes += 1;
            }
        }
    }

    /// Orders all issued flushes (`sfence`): every flushed line becomes
    /// durable. One persist point.
    pub fn fence(&mut self) {
        if !self.persist_point() {
            return;
        }
        let (dirty, flushed) = (&mut self.dirty, &mut self.flushed);
        self.undo.retain(|&(line, _)| {
            let (word, mask) = bit(line);
            let durable = flushed[word] & mask;
            dirty[word] &= !durable;
            flushed[word] &= !durable;
            durable == 0
        });
        self.stats.fences += 1;
    }

    /// Convenience: flush the range and fence.
    pub fn persist(&mut self, ptr: PmPtr, len: usize) {
        self.flush(ptr, len);
        self.fence();
    }

    /// Stores the `len` bytes `fill` writes at `ptr`, flushes their lines
    /// and fences: libpmem's `pmem_memcpy_persist`. Data, every counter
    /// and the one persist point are those of [`write`](PmArena::write)
    /// followed by [`persist`](PmArena::persist), but a line this fence
    /// takes from clean to durable keeps no pre-image: no crash can fall
    /// between its store and the fence. Unless the fence is the armed one
    /// — then the range keeps pre-images as under `write`, and the tripped
    /// fence leaves it torn.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length or out-of-bounds store.
    pub fn store_persist(&mut self, ptr: PmPtr, len: usize, fill: impl FnOnce(&mut [u8])) {
        assert!(len > 0, "zero-length store");
        let start = ptr.offset();
        assert!(
            start + len <= self.data.len(),
            "store out of bounds: {start}+{len} > {}",
            self.data.len()
        );
        if self.off {
            self.persist_point();
            return;
        }
        let tripping = self.persist_points + 1 == self.trip_at;
        let (first, last) = (start / LINE, (start + len - 1) / LINE);
        self.stats.flushes += (last - first + 1) as u64;
        for line in first..=last {
            let (word, mask) = bit(line);
            if tripping && self.dirty[word] & mask == 0 {
                self.dirty[word] |= mask;
                let durable = self.data[line * LINE..(line + 1) * LINE].try_into();
                self.undo.push((line, durable.expect("one line")));
            }
            // A line dirty before this call keeps its pre-image until the
            // fence below retires it; a clean one stays clean.
            self.flushed[word] |= self.dirty[word] & mask;
        }
        fill(&mut self.data[start..start + len]);
        self.stats.bytes_written += len as u64;
        self.fence();
    }

    /// Sets the durable root pointer (flushed and fenced immediately; real
    /// PM roots live at a fixed offset — we model the same atomicity). One
    /// persist point.
    pub fn set_root(&mut self, v: u64) {
        if !self.persist_point() {
            return;
        }
        self.root = v;
        self.stats.flushes += 1;
        self.stats.fences += 1;
    }

    /// Reads the root pointer.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Persist points issued so far: every [`fence`](PmArena::fence) and
    /// [`set_root`](PmArena::set_root), including the one that tripped and
    /// those dropped after it.
    pub fn persist_points(&self) -> u64 {
        self.persist_points
    }

    /// Arms the crash injector: counting from now, the `nth` persist point
    /// (1-based) cuts the power instead of persisting. It and every later
    /// store, flush and persist point are dropped until the next
    /// [`crash`](PmArena::crash) or
    /// [`crash_losing_all`](PmArena::crash_losing_all), which also clears
    /// a trip that has not fired.
    pub fn arm(&mut self, nth: u64) {
        assert!(nth >= 1, "persist points are 1-based");
        self.trip_at = self.persist_points + nth;
    }

    /// True from the tripped persist point to the next crash.
    pub fn powered_off(&self) -> bool {
        self.off
    }

    /// Counts one persist point, tripping if it is the armed one. False
    /// when the power is off and the caller must drop its effect.
    fn persist_point(&mut self) -> bool {
        self.persist_points += 1;
        self.off |= self.persist_points == self.trip_at;
        !self.off
    }

    /// Simulates a power failure: each dirty line independently either
    /// reached the media (kept) or did not (reverted to its last durable
    /// contents). Returns the number of lines that were lost.
    ///
    /// After `crash`, the arena contents are exactly what a recovery
    /// procedure would find on the media.
    pub fn crash(&mut self, rng: &mut SimRng) -> usize {
        // 50/50 is the most adversarial-ish mix for testing; callers that
        // need all-lost or all-kept can fence first.
        self.crash_with(|| rng.chance(0.5))
    }

    /// Like [`crash`](PmArena::crash) but *all* unflushed data is lost —
    /// the worst case.
    pub fn crash_losing_all(&mut self) -> usize {
        self.crash_with(|| true)
    }

    /// Visits the dirty lines in ascending order (determinism: one `lose`
    /// draw per line, independent of store order), reverting those lost.
    fn crash_with(&mut self, mut lose: impl FnMut() -> bool) -> usize {
        self.trip_at = 0;
        self.off = false;
        self.undo.sort_unstable_by_key(|&(line, _)| line);
        let mut lost = 0;
        for (line, durable) in self.undo.drain(..) {
            let (word, mask) = bit(line);
            self.dirty[word] &= !mask;
            self.flushed[word] &= !mask;
            if lose() {
                self.data[line * LINE..(line + 1) * LINE].copy_from_slice(&durable);
                lost += 1;
            }
        }
        lost
    }

    /// Number of currently dirty (not yet durable) lines.
    pub fn dirty_lines(&self) -> usize {
        self.undo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_never_returns_null_and_respects_capacity() {
        let mut pm = PmArena::new(256);
        let a = pm.alloc(8).unwrap();
        assert!(!a.is_null());
        // 64 reserved + 8->8 class... exhaust it.
        let mut count = 1;
        while pm.alloc(64).is_some() {
            count += 1;
            assert!(count < 100, "allocator never exhausts");
        }
    }

    #[test]
    fn free_list_reuses_blocks() {
        let mut pm = PmArena::new(1024);
        let a = pm.alloc(100).unwrap();
        pm.free(a, 100);
        let b = pm.alloc(100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn write_read_round_trip() {
        let mut pm = PmArena::new(1024);
        let p = pm.alloc(16).unwrap();
        pm.write(p, b"hello persistent");
        assert_eq!(pm.read(p, 16), b"hello persistent");
        pm.write_u64(p, 0xDEAD_BEEF);
        assert_eq!(pm.read_u64(p), 0xDEAD_BEEF);
    }

    #[test]
    fn unflushed_data_is_lost_on_worst_case_crash() {
        let mut pm = PmArena::new(1024);
        let p = pm.alloc(8).unwrap();
        pm.write_u64(p, 1);
        pm.persist(p, 8);
        pm.write_u64(p, 2); // not flushed
        let lost = pm.crash_losing_all();
        assert_eq!(lost, 1);
        assert_eq!(pm.read_u64(p), 1);
    }

    #[test]
    fn flushed_but_unfenced_data_may_be_lost() {
        let mut pm = PmArena::new(1024);
        let p = pm.alloc(8).unwrap();
        pm.write_u64(p, 7);
        pm.flush(p, 8);
        // No fence: still dirty.
        assert_eq!(pm.dirty_lines(), 1);
        pm.crash_losing_all();
        assert_eq!(pm.read_u64(p), 0);
    }

    #[test]
    fn fenced_data_survives_any_crash() {
        let mut rng = SimRng::seed(1);
        for seed in 0..20 {
            let mut pm = PmArena::new(1024);
            let p = pm.alloc(8).unwrap();
            pm.write_u64(p, seed);
            pm.persist(p, 8);
            pm.crash(&mut rng);
            assert_eq!(pm.read_u64(p), seed);
        }
    }

    #[test]
    fn store_after_flush_reopens_line() {
        let mut pm = PmArena::new(1024);
        let p = pm.alloc(8).unwrap();
        pm.write_u64(p, 1);
        pm.flush(p, 8);
        pm.write_u64(p, 2); // reopens the line
        pm.fence(); // the reopened line is NOT committed by this fence
        assert_eq!(pm.dirty_lines(), 1);
        pm.crash_losing_all();
        assert_eq!(pm.read_u64(p), 0, "neither store was durable");
    }

    #[test]
    fn empty_store_touches_no_line() {
        let mut pm = PmArena::new(1024);
        // Mid-line: must not dirty the line under `ptr`.
        pm.write(PmPtr(100), &[]);
        // Offset 0: must not underflow.
        pm.write(PmPtr(0), &[]);
        // At the very end of the arena: in bounds, still nothing.
        pm.write(PmPtr(1024), &[]);
        assert_eq!(pm.dirty_lines(), 0);
        pm.flush(PmPtr(64), 128);
        assert_eq!(pm.stats().flushes, 0);
        assert_eq!(pm.stats().bytes_written, 0);
    }

    #[test]
    fn fence_keeps_unflushed_lines_and_their_pre_images() {
        let mut pm = PmArena::new(1024);
        for line in 1..6u64 {
            pm.write_u64(PmPtr(line * 64), line);
        }
        pm.persist(PmPtr(64), 5 * 64);
        // Dirty lines 5, 2, 4, 1, 3 in that order; flush 2 and 1 only.
        for line in [5u64, 2, 4, 1, 3] {
            pm.write_u64(PmPtr(line * 64), 100 + line);
        }
        pm.flush(PmPtr(64), 128);
        pm.fence();
        assert_eq!(pm.dirty_lines(), 3);
        assert_eq!(pm.crash_losing_all(), 3);
        for (line, want) in [(1u64, 101u64), (2, 102), (3, 3), (4, 4), (5, 5)] {
            assert_eq!(pm.read_u64(PmPtr(line * 64)), want, "line {line}");
        }
    }

    #[test]
    fn random_crash_keeps_a_subset() {
        let mut pm = PmArena::new(64 * 100);
        let mut ptrs = Vec::new();
        for i in 0..50u64 {
            let p = pm.alloc(64).unwrap();
            pm.write_u64(p, i + 1);
            ptrs.push(p);
        }
        let mut rng = SimRng::seed(3);
        let lost = pm.crash(&mut rng);
        assert!(lost > 5 && lost < 45, "lost={lost} should be ~half");
        // Each surviving line has its full write; each lost line is zero.
        for (i, p) in ptrs.iter().enumerate() {
            let v = pm.read_u64(*p);
            assert!(v == 0 || v == i as u64 + 1);
        }
    }

    #[test]
    fn root_pointer_is_durable() {
        let mut pm = PmArena::new(1024);
        pm.set_root(99);
        pm.crash_losing_all();
        assert_eq!(pm.root(), 99);
    }

    #[test]
    fn stats_count_operations() {
        let mut pm = PmArena::new(1024);
        let p = pm.alloc(8).unwrap();
        pm.write_u64(p, 1);
        pm.flush(p, 8);
        pm.fence();
        let _ = pm.read_u64(p);
        let s = pm.take_stats();
        assert_eq!(s.bytes_written, 8);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.bytes_read, 8);
        assert_eq!(pm.stats(), ArenaStats::default());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let mut pm = PmArena::new(64);
        pm.write(PmPtr(60), &[0u8; 16]);
    }

    #[test]
    fn alloc_exhaustion_returns_none() {
        let mut pm = PmArena::new(128);
        assert!(pm.alloc(64).is_some());
        assert!(pm.alloc(64).is_none());
    }
}
