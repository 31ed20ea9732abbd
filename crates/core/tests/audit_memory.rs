//! The audit log's memory: a tripwire for a log that keeps every applied
//! update again. A million sequential applies over sixteen sessions must
//! leave well under a MiB live and take a few dozen allocator calls; a
//! 24-byte entry per update would be 24 MB and about twenty regrowths.
//!
//! Its own test binary and one `#[test]`: the counters are the process's
//! allocator, so nothing else may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use pmnet_core::audit::{verify, AuditEntry, AuditLog};
use pmnet_net::Addr;

/// Calls that reach the system allocator for new memory. Statistics:
/// nothing is published through them, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(new_size as u64, Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_million_sequential_applies_fit_in_under_a_mib() {
    const SESSIONS: u32 = 16;
    const APPLIES: u32 = 1 << 20;
    let (live0, allocs0) = (LIVE.load(Relaxed), ALLOCS.load(Relaxed));
    let mut log = AuditLog::new();
    for i in 0..APPLIES {
        log.record(AuditEntry {
            client: Addr(1 + i % SESSIONS),
            session: 0,
            seq: i / SESSIONS,
            redo: false,
            epoch: 0,
        });
    }
    let live = LIVE.load(Relaxed) - live0;
    let allocs = ALLOCS.load(Relaxed) - allocs0;
    assert!(
        live < 1 << 20,
        "the log holds {live} B after {APPLIES} applies"
    );
    assert!(allocs < 64, "the log took {allocs} allocator calls");
    // Still a full check: the last update of every session is there.
    let acked: Vec<_> = (0..SESSIONS)
        .map(|c| (Addr(1 + c), 0, APPLIES / SESSIONS - 1))
        .collect();
    let report = verify(&log, &acked).expect("a sequential log is clean");
    assert_eq!(report.applied, APPLIES as usize);
    assert_eq!(report.sessions, SESSIONS as usize);
}
