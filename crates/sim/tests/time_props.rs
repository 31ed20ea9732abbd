//! Property tests for `Dur`'s arithmetic: `for_bytes_at`'s 64-bit fast
//! path against its 128-bit fallback, and the float constructors'
//! rounding against `f64::round`.

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

/// The definition the float constructors are held to.
fn rounded(x: f64) -> u64 {
    x.round().max(0.0) as u64
}

/// `from_nanos_f64` and `mul_f64` against their `f64::round` definitions
/// at `x` (`mul_f64` only where its factor is legal: not negative, not
/// NaN).
fn check(x: f64) {
    assert_eq!(
        Dur::from_nanos_f64(x).as_nanos(),
        rounded(x),
        "from_nanos_f64({x:e})"
    );
    if x >= 0.0 {
        for n in [1, 3, 1_000, 1 << 40] {
            let expect = (n as f64 * x).round() as u64;
            assert_eq!(Dur::nanos(n).mul_f64(x).as_nanos(), expect, "{n} * {x:e}");
        }
    }
}

#[test]
fn rounding_matches_f64_round_at_the_edges() {
    let two52 = 2f64.powi(52);
    let two53 = 2f64.powi(53);
    let two64 = 2f64.powi(64);
    let edges = [
        0.5,
        0.499_999_999_999_999_94,
        1.5,
        2.5,
        two52 - 0.5,
        two52 + 0.5,
        two52 + 1.0,
        two53 - 1.0,
        two53 + 1.0,
        two53 + 2.0,
        2f64.powi(63),
        two64,
        two64 * 2.0,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0, // subnormal
        f64::from_bits(1),       // the smallest subnormal
    ];
    for x in edges {
        check(x);
        check(-x);
        // The neighbouring doubles, where a rounding step shows.
        if x.is_finite() && x != 0.0 {
            check(f64::from_bits(x.to_bits() + 1));
            check(f64::from_bits(x.to_bits() - 1));
        }
    }
}

#[test]
fn rounding_matches_f64_round_on_a_million_random_doubles() {
    // xorshift64*: deterministic, no RNG crate needed.
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for i in 0..1_000_000 {
        let bits = next();
        let x = if i % 2 == 0 {
            // Every bit pattern: NaNs, infinities, subnormals, huge values.
            f64::from_bits(bits)
        } else {
            // Simulator-scale values with a fraction, both signs.
            (bits >> 11) as f64 / (1u64 << (bits % 40)) as f64
                * if bits & 1 == 0 { 1.0 } else { -1.0 }
        };
        check(x);
    }
}
