//! Minimal vendored stand-in for the `bytes` crate.
//!
//! The build environment has no network access to a cargo registry, so the
//! workspace vendors the small slice of the `bytes` API it actually uses:
//! [`Bytes`] (a cheaply cloneable, sliceable immutable buffer), [`BytesMut`]
//! (a growable builder that freezes into `Bytes`), and the [`BufMut`] write
//! trait. Semantics match the upstream crate for this subset; performance
//! characteristics are preserved: clones and slices are refcount bumps, and
//! [`BytesMut::freeze`] hands its allocation over without copying.
//!
//! Unlike upstream, both types are single-thread (`!Send`): the simulator
//! runs one world per thread, so a handle is an `Rc<Vec<u8>>` plus `u32`
//! bounds — 16 bytes, where an `Arc`, a `&'static` variant and `usize`
//! bounds made 32 — and a clone, a drop and a builder's uniqueness check are
//! plain loads and stores instead of atomic read-modify-writes. A packet
//! carries one `Bytes`, so every queued event shrinks with it (DESIGN.md
//! §10.2). [`Bytes::from_static`] copies into pooled storage; no hot path
//! calls it.
//!
//! Beyond the upstream API, builders draw their backing storage from a
//! thread-local pool that is refilled when the last `Bytes` handle to an
//! allocation drops. The pool holds whole `Rc<Vec<u8>>` handles — not bare
//! `Vec`s — so a recycled builder's `freeze()` reuses the Rc header as well
//! as the byte storage.
//!
//! The pool is one free list per size class (64 B to 16 KiB, four steps per
//! doubling): [`BytesMut::with_capacity`] pops from the class its request
//! rounds up to, a dropped buffer is pushed onto the class its capacity
//! rounds down to, both O(1). An encode → freeze → drop cycle therefore
//! performs zero heap allocations **as long as its class has an idle
//! buffer**: that is, once as many buffers of that class exist as the
//! thread ever holds at one time, and provided no more than the class's
//! retention bound (256 buffers or 256 KiB, whichever is less) were idle
//! at once — a burst that returns more than that frees the excess, and the
//! next burst allocates it again (two allocations per miss: Rc header and
//! storage). Requests above 16 KiB always allocate. A `Vec` wrapped by
//! `Bytes::from` joins the pool when it drops, but the wrap itself pays for
//! a fresh Rc header; the packet path builds in pooled builders instead.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::rc::Rc;

/// Smallest pooled capacity: 64 B, enough for a header-only frame (24 B)
/// or a KV `Get`, so the smallest class serves every ack and control packet.
const MIN_CLASS_BITS: u32 = 6;
/// Largest pooled capacity: 16 KiB. A request above it is allocated exactly
/// and its storage freed on drop.
const MAX_CLASS_BITS: u32 = 14;
/// Each doubling from 64 B to 16 KiB is cut into four equal steps (64, 80,
/// 96, 112, 128, 160, …): a frame is a power-of-two payload plus a header,
/// so whole powers of two alone would round almost every frame up to twice
/// its size; with the steps no buffer is more than a quarter larger than
/// the request that allocated it.
const STEP_BITS: u32 = 2;
/// One free list per class.
const CLASSES: usize = (((MAX_CLASS_BITS - MIN_CLASS_BITS) << STEP_BITS) + 1) as usize;
/// A class keeps at most this many idle buffers …
const CLASS_KEEP_BUFS: usize = 256;
/// … and at most this many idle bytes, so the large classes keep fewer.
/// Over all 33 classes a thread retains under 6 MiB whatever it ran (a
/// workload of two or three frame sizes, a few hundred KiB).
const CLASS_KEEP_BYTES: usize = 256 * 1024;

/// One thread's idle buffers: a free list per size class.
struct Pool {
    classes: [Vec<Rc<Vec<u8>>>; CLASSES],
}

thread_local! {
    static BUF_POOL: RefCell<Pool> = const {
        RefCell::new(Pool {
            classes: [const { Vec::new() }; CLASSES],
        })
    };
}

impl Pool {
    /// The class of the `steps`-th step above `1 << bits`.
    fn class_at(bits: u32, steps: usize) -> usize {
        (((bits - MIN_CLASS_BITS) << STEP_BITS) as usize) + steps
    }

    /// The class whose buffers all hold at least `cap` bytes (round up),
    /// or `None` above the largest class.
    fn class_to_take(cap: usize) -> Option<usize> {
        if cap > 1 << MAX_CLASS_BITS {
            return None;
        }
        if cap <= 1 << MIN_CLASS_BITS {
            return Some(0);
        }
        // 2^bits < cap <= 2^(bits+1): one to four steps above 2^bits.
        let bits = (cap - 1).ilog2();
        let step = 1 << (bits - STEP_BITS);
        Some(Pool::class_at(bits, (cap - (1 << bits)).div_ceil(step)))
    }

    /// The class a buffer of capacity `cap` may serve (round down, so it
    /// fits every request routed there), or `None` outside the pooled
    /// range.
    fn class_to_put(cap: usize) -> Option<usize> {
        if !(1 << MIN_CLASS_BITS..=1 << MAX_CLASS_BITS).contains(&cap) {
            return None;
        }
        // 2^bits <= cap < 2^(bits+1): zero to three whole steps above 2^bits.
        let bits = cap.ilog2();
        let steps = (cap - (1 << bits)) >> (bits - STEP_BITS);
        Some(Pool::class_at(bits, steps))
    }

    /// Bytes a fresh buffer of `class` is allocated with.
    fn class_bytes(class: usize) -> usize {
        let bits = MIN_CLASS_BITS + (class >> STEP_BITS) as u32;
        let steps = class & ((1 << STEP_BITS) - 1);
        (1 << bits) + (steps << (bits - STEP_BITS))
    }

    /// Whether `class`, holding `idle` buffers, keeps one more: at most
    /// `CLASS_KEEP_BUFS` of them and `CLASS_KEEP_BYTES` in all.
    fn has_room(class: usize, idle: usize) -> bool {
        idle < CLASS_KEEP_BUFS && (idle + 1) * Pool::class_bytes(class) <= CLASS_KEEP_BYTES
    }

    #[cfg(test)]
    fn clear(&mut self) {
        self.classes.iter_mut().for_each(Vec::clear);
    }

    /// Whether `buf` is idle in the pool (alive, so its address is its
    /// identity).
    #[cfg(test)]
    fn holds(&self, buf: *const Vec<u8>) -> bool {
        self.classes.iter().flatten().any(|a| Rc::as_ptr(a) == buf)
    }
}

/// Takes a buffer handle with at least `cap` capacity from the request's
/// own size class, or allocates one of the class size (two allocations:
/// the Rc header and the storage). The returned Rc is always uniquely
/// owned. O(1): a small request neither walks nor takes a large buffer.
fn pool_take(cap: usize) -> Rc<Vec<u8>> {
    let Some(class) = Pool::class_to_take(cap) else {
        return Rc::new(Vec::with_capacity(cap));
    };
    BUF_POOL
        .with(|pool| pool.borrow_mut().classes[class].pop())
        .unwrap_or_else(|| Rc::new(Vec::with_capacity(Pool::class_bytes(class))))
}

/// Returns a buffer handle to its size class if this was the last
/// reference and the class has room.
fn pool_put(mut rc: Rc<Vec<u8>>) {
    let Some(buf) = Rc::get_mut(&mut rc) else {
        return; // still shared: other handles keep the storage alive
    };
    let Some(class) = Pool::class_to_put(buf.capacity()) else {
        return;
    };
    buf.clear();
    BUF_POOL.with(|pool| {
        let list = &mut pool.borrow_mut().classes[class];
        if Pool::has_room(class, list.len()) {
            list.push(rc);
        }
    });
}

/// `n + plus` as a buffer bound, or `None` past any buffer's length.
fn bound(n: usize, plus: usize) -> Option<u32> {
    n.checked_add(plus).and_then(|n| u32::try_from(n).ok())
}

/// The length of a new handle's storage as a bound.
///
/// # Panics
///
/// Panics above `u32::MAX` bytes, the most a handle addresses.
fn whole(len: usize) -> u32 {
    u32::try_from(len).expect("a Bytes holds at most u32::MAX bytes")
}

/// A cheaply cloneable, contiguous, immutable byte buffer.
///
/// Clones and [`Bytes::slice`] share the same backing allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` for an empty buffer that never had storage.
    data: Option<Rc<Vec<u8>>>,
    start: u32,
    end: u32,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copies a static byte slice into a new buffer, like
    /// [`Bytes::copy_from_slice`].
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies a slice into a new buffer (pooled storage when available).
    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        let mut m = BytesMut::with_capacity(bytes.len());
        m.extend_from_slice(bytes);
        m.freeze()
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-slice sharing the same backing storage.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.end - self.start;
        let begin = match range.start_bound() {
            Bound::Included(&n) => bound(n, 0),
            Bound::Excluded(&n) => bound(n, 1),
            Bound::Unbounded => Some(0),
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => bound(n, 1),
            Bound::Excluded(&n) => bound(n, 0),
            Bound::Unbounded => Some(len),
        };
        let (Some(begin), Some(end)) = (begin, end) else {
            panic!("slice range out of bounds (len {len})");
        };
        assert!(begin <= end, "slice range inverted: {begin}..{end}");
        assert!(
            end <= len,
            "slice range {begin}..{end} out of bounds (len {len})"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        // If this was the last handle to its allocation, recycle the whole
        // Rc (header + Vec) into the thread-local builder pool.
        if let Some(rc) = self.data.take() {
            if Rc::strong_count(&rc) == 1 {
                pool_put(rc);
            }
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(v) => &v[self.start as usize..self.end as usize],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// As upstream: a map keyed by `Bytes` is looked up by `&[u8]` (`Hash`
/// and `Eq` already agree with the slice's).
impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = whole(v.len());
        Bytes {
            data: Some(Rc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// A growable byte buffer that freezes into an immutable [`Bytes`].
///
/// Invariant: `buf` is uniquely owned (strong count 1) for the builder's
/// whole lifetime — `Clone` deep-copies and the Rc is never shared until
/// [`BytesMut::freeze`] hands it to a `Bytes`.
#[derive(Debug, PartialEq, Eq)]
pub struct BytesMut {
    buf: Rc<Vec<u8>>,
}

impl BytesMut {
    /// An empty builder (pooled storage when available).
    pub fn new() -> BytesMut {
        BytesMut::with_capacity(0)
    }

    /// An empty builder with reserved capacity, drawn from the thread-local
    /// buffer pool when a recycled allocation is available.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: pool_take(cap),
        }
    }

    fn buf_mut(&mut self) -> &mut Vec<u8> {
        Rc::get_mut(&mut self.buf).expect("BytesMut backing storage is uniquely owned")
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf_mut().extend_from_slice(extend);
    }

    /// Grows or shrinks the written length to `new_len`, filling any new
    /// tail with `value` — room for bytes produced in place (a random
    /// value, a gathered payload) rather than appended from a slice.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf_mut().resize(new_len, value);
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`] without
    /// copying or allocating: the builder's Rc is handed over as-is.
    ///
    /// # Panics
    ///
    /// Panics above `u32::MAX` bytes.
    pub fn freeze(self) -> Bytes {
        let end = whole(self.buf.len());
        Bytes {
            data: Some(self.buf),
            start: 0,
            end,
        }
    }
}

impl Default for BytesMut {
    fn default() -> BytesMut {
        BytesMut::new()
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> BytesMut {
        // A derived clone would share the Rc and break the uniqueness
        // invariant; a builder clone is a deep copy.
        let mut m = BytesMut::with_capacity(self.buf.len());
        m.extend_from_slice(&self.buf);
        m
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.buf_mut()
    }
}

/// Write-side trait: appends fixed-width integers and slices to a buffer.
pub trait BufMut {
    /// Appends a slice of bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, n: u16) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf_mut().extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_storage_and_bounds_check() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(0..4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_to_usize_max_inclusive_panics_instead_of_wrapping() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(..=usize::MAX);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_from_after_usize_max_panics_instead_of_wrapping() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice((Bound::Excluded(usize::MAX), Bound::Unbounded));
    }

    #[test]
    fn a_handle_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
    }

    #[test]
    fn empty_buffers_slice_and_compare() {
        let e = Bytes::new();
        assert!(e.is_empty());
        assert_eq!(&e.slice(..)[..], b"");
        assert_eq!(e, Bytes::from_static(b""));
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(&b.slice(3..)[..], b"");
        assert_eq!(&b.slice(1..=2)[..], &[2, 3]);
    }

    #[test]
    fn builder_round_trip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(0xAB);
        m.put_u16_le(0x1234);
        m.put_u32_le(0xDEAD_BEEF);
        m.put_slice(b"xyz");
        let b = m.freeze();
        assert_eq!(
            &b[..],
            &[0xAB, 0x34, 0x12, 0xEF, 0xBE, 0xAD, 0xDE, b'x', b'y', b'z']
        );
    }

    #[test]
    fn equality_and_debug() {
        let a = Bytes::from_static(b"ok");
        let b = Bytes::from(b"ok".to_vec());
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "b\"ok\"");
    }

    #[test]
    fn freeze_does_not_copy() {
        let mut m = BytesMut::with_capacity(8);
        m.put_slice(b"abcdefgh");
        let before = m.buf.as_ptr();
        let b = m.freeze();
        assert_eq!(
            b.as_ref().as_ptr(),
            before,
            "freeze must hand over the allocation"
        );
    }

    #[test]
    fn from_vec_does_not_copy() {
        let v = vec![9u8; 32];
        let before = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ref().as_ptr(), before);
    }

    #[test]
    fn slices_share_one_allocation() {
        let b = Bytes::from(vec![0u8; 64]);
        let base = b.as_ref().as_ptr();
        let s = b.slice(10..20);
        assert_eq!(s.as_ref().as_ptr(), unsafe { base.add(10) });
        let c = b.clone();
        assert_eq!(c.as_ref().as_ptr(), base);
    }

    #[test]
    fn dropped_buffers_are_recycled() {
        // Drain whatever the pool currently holds so the test is isolated.
        BUF_POOL.with(|p| p.borrow_mut().clear());
        let mut m = BytesMut::with_capacity(100);
        m.put_slice(b"payload");
        let b = m.freeze();
        let ptr = b.as_ref().as_ptr();
        drop(b); // last handle: allocation returns to the pool
        let m2 = BytesMut::with_capacity(100);
        assert_eq!(m2.buf.as_ptr(), ptr, "pool must reuse the freed buffer");
        // A still-shared allocation must NOT be recycled.
        let a = Bytes::from(vec![1u8; 16]);
        let a2 = a.clone();
        drop(a);
        assert_eq!(&a2[..], &[1u8; 16][..]);
    }

    #[test]
    fn small_takes_do_not_starve_large_ones() {
        BUF_POOL.with(|p| p.borrow_mut().clear());
        // A burst of header-only frames in flight at once, as acks are,
        // all returned before the next request is built.
        let acks: Vec<Bytes> = (0..256)
            .map(|_| BytesMut::with_capacity(24).freeze())
            .collect();
        drop(acks);
        let mut large_ptr = None;
        for cycle in 0..256 {
            let small = BytesMut::with_capacity(24);
            assert!(small.buf.capacity() < 2048, "an ack took a request buffer");
            let large = BytesMut::with_capacity(2048);
            assert!(large.buf.capacity() >= 2048);
            let ptr = Rc::as_ptr(&large.buf);
            // Warm-up is the first cycle's one miss.
            if let Some(first) = large_ptr {
                assert_eq!(ptr, first, "cycle {cycle}: 2 KiB take missed the pool");
            }
            large_ptr = Some(ptr);
            drop(small.freeze());
            drop(large.freeze());
            // Retained, never freed: the address cannot be a reuse by the
            // system allocator.
            assert!(BUF_POOL.with(|p| p.borrow().holds(ptr)), "cycle {cycle}");
        }
    }

    #[test]
    fn every_capacity_has_a_tightest_class_on_both_sides() {
        assert_eq!(Pool::class_bytes(0), 64);
        assert_eq!(Pool::class_bytes(CLASSES - 1), 16 * 1024);
        for cap in 0..=16 * 1024 {
            // Take rounds up to the smallest class that fits …
            let take = Pool::class_to_take(cap).expect("pooled range");
            assert!(Pool::class_bytes(take) >= cap, "take {cap}");
            assert!(take == 0 || Pool::class_bytes(take - 1) < cap, "take {cap}");
            // … within a quarter of the request above 64 B.
            assert!(
                cap <= 64 || Pool::class_bytes(take) * 4 <= cap * 5 + 3,
                "take {cap}"
            );
            // Put rounds down to the largest class it can serve.
            let Some(put) = Pool::class_to_put(cap) else {
                assert!(cap < 64, "put {cap}");
                continue;
            };
            assert!(Pool::class_bytes(put) <= cap, "put {cap}");
            assert!(
                put + 1 == CLASSES || Pool::class_bytes(put + 1) > cap,
                "put {cap}"
            );
        }
        assert_eq!(Pool::class_to_take(16 * 1024 + 1), None);
        assert_eq!(Pool::class_to_put(16 * 1024 + 1), None);
        assert_eq!(Pool::class_to_put(usize::MAX), None);
    }

    #[test]
    fn retention_is_bounded_per_class() {
        BUF_POOL.with(|p| p.borrow_mut().clear());
        let live: Vec<Bytes> = (0..1000)
            .map(|_| BytesMut::with_capacity(16 * 1024).freeze())
            .collect();
        drop(live);
        let kept = BUF_POOL.with(|p| p.borrow().classes[CLASSES - 1].len());
        assert_eq!(kept * 16 * 1024, CLASS_KEEP_BYTES);
        // Above the largest class nothing is pooled.
        let big = BytesMut::with_capacity(16 * 1024 + 1);
        let ptr = Rc::as_ptr(&big.buf);
        drop(big.freeze());
        assert!(!BUF_POOL.with(|p| p.borrow().holds(ptr)));
    }

    #[test]
    fn recycled_rc_header_is_reused_whole() {
        // The pool keeps the Rc itself: take → freeze → drop → take must
        // hand back the identical Rc allocation, not just the same Vec.
        BUF_POOL.with(|p| p.borrow_mut().clear());
        let m = BytesMut::with_capacity(64);
        let rc_ptr = Rc::as_ptr(&m.buf);
        drop(m.freeze()); // empty Bytes, storage pooled
        let m2 = BytesMut::with_capacity(32);
        assert_eq!(
            Rc::as_ptr(&m2.buf),
            rc_ptr,
            "pool must recycle the Rc handle, not only the Vec"
        );
    }

    #[test]
    fn builder_clone_is_a_deep_copy() {
        let mut m = BytesMut::with_capacity(8);
        m.put_slice(b"orig");
        let mut c = m.clone();
        c.put_slice(b"+more");
        assert_eq!(&m[..], b"orig");
        assert_eq!(&c[..], b"orig+more");
        // Both remain independently freezable (uniqueness held).
        assert_eq!(&m.freeze()[..], b"orig");
        assert_eq!(&c.freeze()[..], b"orig+more");
    }
}
