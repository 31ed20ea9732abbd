//! Property test for `Dur::for_bytes_at`: its 64-bit fast path and its
//! 128-bit fallback compute the same quotient.

use pmnet_sim::Dur;
use proptest::prelude::*;

proptest! {
    /// Sizes are drawn uniformly over magnitudes, so they fall on both
    /// sides of the 2^64 / 8e9 ≈ 2.3 GB boundary between the two paths;
    /// each is held to the 128-bit definition.
    #[test]
    fn for_bytes_at_agrees_with_the_wide_quotient(
        bytes in (any::<u64>(), 0u32..64).prop_map(|(r, shift)| r >> shift),
        bits_per_sec in (any::<u64>(), 0u32..63).prop_map(|(r, shift)| (r >> shift).max(1)),
    ) {
        let wide = u128::from(bytes) * 8_000_000_000 / u128::from(bits_per_sec);
        // Where the exact answer itself outgrows a `u64` there is nothing
        // to agree on.
        if let Ok(ns) = u64::try_from(wide) {
            prop_assert_eq!(Dur::for_bytes_at(bytes, bits_per_sec), Dur::nanos(ns));
        }
    }
}
