//! The calibrated host clock.
//!
//! The sandbox this benchmark is sized for changes speed by ±30 % over
//! seconds, and in bursts of milliseconds, while reporting no steal time:
//! identical repetitions took 1.5 s to 2.9 s, and a raw wall-clock median
//! had a run-to-run quartile spread of 10–23 %, wider than any bound worth
//! setting. The cure is the repo's own (the PR 3 trick of in-process
//! ratios): time a fixed reference loop *beside* the measured work — a
//! chunk of about a millisecond after every 10 ms of it — and report host
//! time as a multiple of the loop's. Scaled by the loop's nominal cost the
//! result reads as seconds on a machine that runs the loop at exactly that
//! cost; per repetition the spread falls about threefold (7–10 % → 2–4 %).
//!
//! The loop lives in this file and calls nothing of the repository: a slow
//! machine slows both sides of the ratio, a slow program only one. It does
//! share the process's allocator and heap with the measured work, so a
//! change that leaves the heap in another state (a larger live set, more
//! fragmentation) can move the loop a little too. Every calibrated value
//! is therefore labelled as such (`calib_ops_per_s`, in `ops/calib_s`) and
//! printed with the raw one and the loop's cost beside it, so the scaling
//! can be checked; the A/A evidence for it is from one sandbox.
//!
//! What the loop does was chosen by pairing candidates against the same
//! repetitions: a heap-churning loop tracked the simulator (itself 11–60
//! allocations per op) two to three times better than allocation-free
//! loops over a 128 KiB or 1 MiB arena, and the plain mean over chunks
//! better than their median or a trimmed mean — the bursts are the noise,
//! and the mean is what sees them.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::alloc::{self, HeapWindow};

/// The fixed reference loop, the time it has taken since the last
/// [`Calib::take_ns_per_iter`], and the allocations it has made since the
/// last [`Calib::take_heap`].
pub struct Calib {
    heap: BinaryHeap<(u64, u64)>,
    live: Vec<Vec<u8>>,
    x: u64,
    acc: u64,
    iters: u64,
    spent: Duration,
    allocs: u64,
    bytes: u64,
}

impl Default for Calib {
    fn default() -> Calib {
        Calib::new()
    }
}

impl Calib {
    /// What one iteration costs on the reference machine, in nanoseconds:
    /// the median on the 2-core sandbox, so calibrated and raw times are
    /// of one size there.
    pub const REF_NS_PER_ITER: f64 = 140.0;
    /// Iterations that bring the loop to its steady state.
    pub const WARM_ITERS: u64 = 100_000;
    /// Iterations per interleaved chunk: a little over 1 ms.
    pub const CHUNK_ITERS: u64 = 10_000;

    const HEAP_HOLD: usize = 4_096;
    const LIVE_BLOCKS: usize = 1_024;

    /// A cold loop.
    pub fn new() -> Calib {
        Calib {
            heap: BinaryHeap::with_capacity(Self::HEAP_HOLD + 2),
            live: (0..Self::LIVE_BLOCKS).map(|_| vec![0; 64]).collect(),
            x: 0x9E37_79B9_7F4A_7C15,
            acc: 0,
            iters: 0,
            spent: Duration::ZERO,
            allocs: 0,
            bytes: 0,
        }
    }

    /// Runs `iters` iterations: a priority-queue push/pop at a fixed hold,
    /// and a 64–255 B block allocated, written and swapped for a random
    /// one of 1 024 live blocks, which is read and freed.
    pub fn run(&mut self, iters: u64) {
        let before = alloc::window();
        let t0 = Instant::now();
        for i in 0..iters {
            let mut x = self.x;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.x = x;
            self.heap.push((x, i));
            if self.heap.len() > Self::HEAP_HOLD {
                self.acc ^= self.heap.pop().map_or(0, |e| e.0);
            }
            let mut block = vec![0u8; 64 + (x % 192) as usize];
            block[0] = x as u8;
            let slot = &mut self.live[(x >> 20) as usize % Self::LIVE_BLOCKS];
            self.acc ^= u64::from(slot[0]);
            *slot = block;
        }
        self.spent += t0.elapsed();
        std::hint::black_box(self.acc);
        self.iters += iters;
        let after = alloc::window();
        self.allocs += after.allocs - before.allocs;
        self.bytes += after.bytes - before.bytes;
    }

    /// Nanoseconds per iteration since the last call, and a fresh start.
    ///
    /// # Panics
    ///
    /// Panics when the loop has not run since the last call.
    pub fn take_ns_per_iter(&mut self) -> f64 {
        assert!(self.iters > 0, "no calibration ran in this window");
        let ns = self.spent.as_nanos() as f64 / self.iters as f64;
        self.iters = 0;
        self.spent = Duration::ZERO;
        ns
    }

    /// `window` without the allocations the loop itself made since the
    /// last call — take once right after `alloc::reset` and discard, then
    /// once on the window's reading. The loop's live blocks (about
    /// 0.2 MB) stay in the peak.
    pub fn take_heap(&mut self, window: HeapWindow) -> HeapWindow {
        let own = (
            std::mem::take(&mut self.allocs),
            std::mem::take(&mut self.bytes),
        );
        HeapWindow {
            allocs: window.allocs.saturating_sub(own.0),
            bytes: window.bytes.saturating_sub(own.1),
            ..window
        }
    }
}

/// Times a stretch of work and interleaves calibration chunks with it.
/// The work calls [`Pacer::tick`] wherever it can pause; time spent
/// calibrating is not counted as work.
pub struct Pacer<'a> {
    calib: &'a mut Calib,
    work: Duration,
    since_chunk: Duration,
    last: Instant,
}

impl<'a> Pacer<'a> {
    /// How much work may pass between two calibration chunks.
    const EVERY: Duration = Duration::from_millis(10);

    /// Calibrates once and starts the clock.
    pub fn start(calib: &'a mut Calib) -> Pacer<'a> {
        calib.run(Calib::CHUNK_ITERS);
        Pacer {
            calib,
            work: Duration::ZERO,
            since_chunk: Duration::ZERO,
            last: Instant::now(),
        }
    }

    /// A pause point in the work.
    pub fn tick(&mut self) {
        let d = self.last.elapsed();
        self.work += d;
        self.since_chunk += d;
        if self.since_chunk >= Self::EVERY {
            self.calib.run(Calib::CHUNK_ITERS);
            self.since_chunk = Duration::ZERO;
        }
        self.last = Instant::now();
    }

    /// Stops the clock, calibrates once more, and returns the raw time the
    /// work took.
    pub fn stop(mut self) -> Duration {
        self.work += self.last.elapsed();
        self.calib.run(Calib::CHUNK_ITERS);
        self.work
    }
}
