//! FNV-1a, the workspace's one non-cryptographic byte hash.
//!
//! Campaign digests, the consistent-hash ring, apply-worker pinning and the
//! KV bucket functions all fold bytes through [`fnv1a`]. Pinned digests
//! depend on these exact constants, so they live in one place.
//!
//! [`FixedState`] puts the same fold under `HashMap`/`HashSet`: the
//! per-packet tables are keyed by CRC-32s and small integer tuples that
//! the simulation itself produced, so SipHash's flood resistance buys
//! nothing there, and its per-instance random key makes iteration order
//! differ from process to process. With a fixed key it cannot.

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

/// [`fnv1a`] as a [`Hasher`], starting from [`FNV_OFFSET`].
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The fixed-key `BuildHasher` for tables keyed by values the simulation
/// produced itself. Never for keys from outside the program: it has no
/// defence against chosen collisions.
///
/// ```
/// use pmnet_sim::hash::FixedState;
/// use std::collections::HashMap;
/// let mut m: HashMap<u32, &str, FixedState> = HashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
pub type FixedState = BuildHasherDefault<FnvHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn fixed_state_hashes_and_orders_the_same_in_every_instance() {
        let (a, b) = (FixedState::default(), FixedState::default());
        assert_eq!(a.hash_one(0xDEAD_BEEF_u32), b.hash_one(0xDEAD_BEEF_u32));
        assert_eq!(
            a.hash_one(0xDEAD_BEEF_u32),
            fnv1a(FNV_OFFSET, &0xDEAD_BEEF_u32.to_ne_bytes())
        );
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
}
