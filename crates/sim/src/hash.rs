//! FNV-1a, the workspace's one non-cryptographic byte hash.
//!
//! Campaign digests, the consistent-hash ring, apply-worker pinning and the
//! KV bucket functions all fold bytes through [`fnv1a`]. Pinned digests
//! depend on these exact constants, so they live in one place.

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
