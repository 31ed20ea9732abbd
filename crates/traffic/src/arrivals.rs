//! The open-loop arrival process.
//!
//! A closed-loop client waits for a completion before issuing the next
//! request, so offered load can never exceed capacity. Open-loop traffic
//! arrives on its own clock: an [`ArrivalProcess`] hands out interarrival
//! gaps independent of what the system does with them, which is what lets
//! the overload study drive offered load past saturation.
//!
//! Every draw comes from the deterministic [`SimRng`], so a traffic
//! campaign is a pure function of its seed: same seed, same arrival
//! stream, bit-identical report — regardless of how the stream is
//! consumed (one gap at a time or pre-drawn in batches).

use std::fmt;

use pmnet_sim::{Dur, SimRng};

const NANOS_PER_SEC: f64 = 1_000_000_000.0;

/// Converts an event rate (events per second) to the mean gap between
/// events. Rates above 1e9/s clamp to a 1 ns mean; the simulator cannot
/// resolve finer gaps anyway.
pub fn rate_to_mean_gap(rate_per_sec: f64) -> Dur {
    assert!(
        rate_per_sec > 0.0 && rate_per_sec.is_finite(),
        "rate must be positive and finite"
    );
    Dur::nanos(((NANOS_PER_SEC / rate_per_sec).round() as u64).max(1))
}

/// A stream of interarrival gaps.
///
/// Implementations must be deterministic: the `n`-th gap depends only on
/// the seed of the `rng` handed in and the `n-1` draws before it.
pub trait ArrivalProcess: fmt::Debug {
    /// The gap between the previous arrival and the next one.
    fn next_gap(&mut self, rng: &mut SimRng) -> Dur;
}

/// Poisson arrivals: independent exponential gaps, the memoryless
/// baseline with coefficient of variation 1.
#[derive(Debug, Clone, Copy)]
pub struct PoissonArrivals {
    mean_gap: Dur,
}

impl PoissonArrivals {
    /// A Poisson process with the given mean rate.
    ///
    /// # Panics
    ///
    /// Panics when the rate is zero, negative or non-finite.
    pub fn new(rate_per_sec: f64) -> PoissonArrivals {
        PoissonArrivals {
            mean_gap: rate_to_mean_gap(rate_per_sec),
        }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_gap(&mut self, rng: &mut SimRng) -> Dur {
        rng.exponential(self.mean_gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_matches_rate() {
        let mut p = PoissonArrivals::new(100_000.0);
        let mut rng = SimRng::seed(7);
        let gaps: Vec<Dur> = (0..50_000).map(|_| p.next_gap(&mut rng)).collect();
        let mean_ns = gaps.iter().map(|g| g.as_nanos() as f64).sum::<f64>() / gaps.len() as f64;
        let expected = 1e9 / 100_000.0;
        assert!(
            (mean_ns - expected).abs() / expected < 0.05,
            "mean gap {mean_ns} ns vs expected {expected} ns"
        );
    }
}
