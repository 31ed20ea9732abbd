//! Seeded randomness for simulations.
//!
//! All stochastic behaviour in the reproduction (service-time jitter, key
//! popularity, packet loss, …) draws from a single [`SimRng`] owned by the
//! simulation, so a run is fully determined by its seed.

use crate::Dur;

/// A deterministic random-number source with the distribution helpers the
/// evaluation needs.
///
/// Internally a xoshiro256++ generator seeded through splitmix64 — a
/// self-contained implementation so the simulator has no external
/// dependencies and streams are stable across toolchains.
///
/// # Example
///
/// ```
/// use pmnet_sim::SimRng;
/// let mut a = SimRng::seed(7);
/// let mut b = SimRng::seed(7);
/// assert_eq!(a.uniform_u64(0..100), b.uniform_u64(0..100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> SimRng {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// The core xoshiro256++ step.
    fn step(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let mut n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        n3 = n3.rotate_left(45);
        self.state = [n0, n1, n2, n3];
        result
    }

    /// Derives an independent child generator; useful for giving each
    /// client its own stream without coupling their draws.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.step() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed(s)
    }

    /// A uniform integer in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn uniform_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(!range.is_empty(), "empty range");
        let span = range.end - range.start;
        // Lemire widening-multiply rejection-free mapping; the bias is
        // < 2^-64 per draw, far below the simulator's statistical needs.
        let x = self.step();
        range.start + ((x as u128 * span as u128) >> 64) as u64
    }

    /// A uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty collection");
        self.uniform_u64(0..n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → the standard [0, 1) double construction.
        (self.step() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// An exponentially distributed duration with the given mean
    /// (inter-arrival times, service-time tails).
    pub fn exponential(&mut self, mean: Dur) -> Dur {
        let u: f64 = self.unit();
        // Inverse CDF; guard against ln(0).
        let x = -(1.0 - u).max(f64::MIN_POSITIVE).ln();
        Dur::from_nanos_f64(mean.as_nanos() as f64 * x)
    }

    /// A duration uniformly jittered in `[base * (1-frac), base * (1+frac)]`.
    pub fn jittered(&mut self, base: Dur, frac: f64) -> Dur {
        let f = 1.0 + frac * (2.0 * self.unit() - 1.0);
        base.mul_f64(f.max(0.0))
    }

    /// Fills `buf` with random bytes (payload generation).
    ///
    /// One draw per eight bytes, little-endian, the last draw cut to the
    /// tail. Whole words are fixed-size stores; only the tail (under eight
    /// bytes) is a variable-length copy.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for word in &mut words {
            word.copy_from_slice(&self.step().to_le_bytes());
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            let bytes = self.step().to_le_bytes();
            tail.copy_from_slice(&bytes[..tail.len()]);
        }
    }

    /// A raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(42);
        let mut b = SimRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should diverge");
    }

    #[test]
    fn forked_children_are_independent_and_deterministic() {
        let mut root1 = SimRng::seed(9);
        let mut root2 = SimRng::seed(9);
        let mut c1 = root1.fork(5);
        let mut c2 = root2.fork(5);
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    /// `fill_bytes` is the raw stream, eight little-endian bytes per draw
    /// and the last draw cut to length: payload bytes, and every digest
    /// over them, depend on it.
    #[test]
    fn fill_bytes_is_the_concatenated_word_stream() {
        for len in (0..=17).chain([1024, 2048]) {
            let (mut filler, mut words) = (SimRng::seed(77), SimRng::seed(77));
            let mut buf = vec![0u8; len];
            filler.fill_bytes(&mut buf);
            let mut expect = Vec::with_capacity(len + 8);
            while expect.len() < len {
                expect.extend_from_slice(&words.next_u64().to_le_bytes());
            }
            expect.truncate(len);
            assert_eq!(buf, expect, "len {len}");
            assert_eq!(filler.next_u64(), words.next_u64(), "state after len {len}");
        }
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = SimRng::seed(3);
        let mean = Dur::micros(10);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.exponential(mean).as_nanos()).sum();
        let avg = total as f64 / n as f64;
        let expect = mean.as_nanos() as f64;
        assert!(
            (avg - expect).abs() / expect < 0.05,
            "avg={avg} expect={expect}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.03);
    }

    #[test]
    fn jittered_stays_in_band() {
        let mut rng = SimRng::seed(6);
        let base = Dur::micros(10);
        for _ in 0..1000 {
            let d = rng.jittered(base, 0.2);
            assert!(d >= Dur::micros(8) && d <= Dur::micros(12), "{d}");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_uniform_range_panics() {
        let mut rng = SimRng::seed(0);
        let _ = rng.uniform_u64(5..5);
    }
}
