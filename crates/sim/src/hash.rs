//! The workspace's two non-cryptographic hashes: FNV-1a for bytes that
//! reach a digest or a placement, and a word-wide fold for hash tables.
//!
//! Campaign digests, the consistent-hash ring, apply-worker pinning and the
//! KV bucket functions all fold bytes through [`fnv1a`]. Pinned digests
//! depend on these exact constants, so they live in one place.
//!
//! [`FixedState`] is the `BuildHasher` under every per-packet
//! `HashMap`/`HashSet`. Those tables are keyed by CRC-32s and small integer
//! tuples that the simulation itself produced, so SipHash's flood
//! resistance buys nothing there, and its per-instance random key makes
//! iteration order differ from process to process. With a fixed key it
//! cannot. It folds each integer write in one 64×64→128-bit multiply and
//! byte slices eight bytes at a time ([`FoldHasher`]), where FNV-1a's
//! one multiply per byte made a `(server, client, session)` key ten
//! dependent multiplies.
//!
//! **The rule:** a `FixedState` table is never iterated in an order that
//! reaches the wire, a digest or a report. Collect and sort first, or use
//! an order-free fold (`any`, `retain`, a count). Changing the hash may
//! then only change speed, never behaviour. The sites that iterate one
//! today keep the rule:
//!
//! - `LogStore::hashes` and `LogStore::recovery_manifest` sort (a
//!   promoted primary releases its withheld acks in `hashes` order);
//! - `LogStore::crash` retains by a per-entry predicate and rebuilds the
//!   per-session ledger by counting, both order-free;
//! - the device's scan of `entry_retries` for an entry still owing a
//!   server's recovery barrier is an `any(..)`: a yes/no question.

use std::hash::{BuildHasherDefault, Hasher};

/// The FNV-1a 64-bit offset basis: the `state` a fresh hash starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into `state`; start from [`FNV_OFFSET`] and chain calls
/// to hash a sequence of fields without concatenating them.
///
/// ```
/// use pmnet_sim::hash::{fnv1a, FNV_OFFSET};
/// assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"c"), fnv1a(FNV_OFFSET, b"abc"));
/// ```
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The state a fresh [`FoldHasher`] starts from (the first 64 bits of π's
/// fraction): any fixed non-zero word would do.
const FOLD_SEED: u64 = 0x243f_6a88_85a3_08d3;
/// The fold multiplier: 2^64 / φ, odd, so the low half of each product is
/// a Weyl step that spreads consecutive keys across hashbrown's top-7-bit
/// tags.
const FOLD_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Mixes one word into `state`: a full 128-bit product of `state ^ word`
/// and [`FOLD_K`], its halves XORed together.
#[inline(always)]
fn fold(state: u64, word: u64) -> u64 {
    let m = u128::from(state ^ word) * u128::from(FOLD_K);
    (m as u64) ^ ((m >> 64) as u64)
}

/// The [`Hasher`] behind [`FixedState`]: one multiply-xor fold per integer
/// write and per eight bytes of a slice. A slice's short tail is
/// zero-padded and tagged with its length in the top byte, so `b"a"` and
/// `b"a\0"` differ.
#[derive(Debug, Clone, Copy)]
pub struct FoldHasher(u64);

impl Default for FoldHasher {
    fn default() -> FoldHasher {
        FoldHasher(FOLD_SEED)
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let word = u64::from_le_bytes(w.try_into().expect("eight bytes"));
            self.0 = fold(self.0, word);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.0 = fold(self.0, u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0 = fold(self.0, u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.0 = fold(self.0, u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0 = fold(self.0, u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = fold(self.0, i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = fold(self.0, i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The fixed-key `BuildHasher` for tables keyed by values the simulation
/// produced itself. Never for keys from outside the program: it has no
/// defence against chosen collisions. Never iterate one in an order that
/// is observable (see the module docs).
///
/// ```
/// use pmnet_sim::hash::FixedState;
/// use std::collections::HashMap;
/// let mut m: HashMap<u32, &str, FixedState> = HashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
pub type FixedState = BuildHasherDefault<FoldHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn fixed_state_hashes_and_orders_the_same_in_every_instance() {
        let (a, b) = (FixedState::default(), FixedState::default());
        assert_eq!(a.hash_one(0xDEAD_BEEF_u32), b.hash_one(0xDEAD_BEEF_u32));
        // The fold itself, pinned: any change to it is a test edit.
        // The slice is a length word, one whole word and a one-byte tail.
        assert_eq!(a.hash_one(0xDEAD_BEEF_u32), 0x046a_8bd3_4161_171a);
        assert_eq!(a.hash_one((7u32, 3u16, 42u32)), 0x9922_3058_cd54_1e32);
        assert_eq!(a.hash_one(b"pmnet-log".as_slice()), 0x0700_af10_cd5d_d64a);
        // Two tables built alike iterate alike (with `RandomState` they
        // would not, even in one process).
        let build = || {
            (0..1000u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect()
        };
        let (x, y): (HashSet<u32, FixedState>, HashSet<u32, FixedState>) = (build(), build());
        assert!(x.iter().eq(y.iter()));
    }

    #[test]
    fn sequential_keys_spread_over_the_probe_tags() {
        // hashbrown probes a group with the hash's top seven bits; keys
        // that share a few of those tags make every lookup compare more.
        let s = FixedState::default();
        let tags: HashSet<u64> = (0..4096u32)
            .map(|seq| s.hash_one((1u32, 1u16, seq)) >> 57)
            .collect();
        assert!(tags.len() >= 120, "{} of 128 tags", tags.len());
    }
}
