//! Property tests for the open-loop arrival process: Poisson
//! interarrival CV ≈ 1, and bit-identical replay at any draw batching.
//!
//! The vendored proptest drives integer strategies; rates and
//! probabilities are derived from them inside each test.

use pmnet_sim::{Dur, SimRng};
use pmnet_traffic::{ArrivalProcess, PoissonArrivals};
use proptest::prelude::*;

/// Coefficient of variation (stddev / mean) of a gap stream, in ns.
fn cv(gaps: &[Dur]) -> f64 {
    let xs: Vec<f64> = gaps.iter().map(|g| g.as_nanos() as f64).collect();
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

fn draw(p: &mut dyn ArrivalProcess, seed: u64, n: usize) -> Vec<Dur> {
    let mut rng = SimRng::seed(seed);
    (0..n).map(|_| p.next_gap(&mut rng)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn poisson_interarrival_cv_is_one(
        seed in 0u64..1_000_000,
        rate_k in 1u64..1_000,
    ) {
        let rate = rate_k as f64 * 1_000.0;
        let mut p = PoissonArrivals::new(rate);
        let gaps = draw(&mut p, seed, 20_000);
        let cv = cv(&gaps);
        // Exponential gaps have CV exactly 1; 20k samples put the
        // estimator within a few percent.
        prop_assert!((cv - 1.0).abs() < 0.08, "rate={rate} cv={cv}");
    }

    #[test]
    fn same_seed_replays_bit_identically_at_any_batching(
        seed in 0u64..1_000_000,
        splits in proptest::collection::vec(1usize..500, 1..6),
    ) {
        // One long pull vs the same total pulled in arbitrary chunks from
        // fresh process objects sharing one RNG stream: the gap sequence
        // is a pure function of the seed, so both must agree bit for bit.
        let total: usize = splits.iter().sum();
        let mut all_at_once = PoissonArrivals::new(200_000.0);
        let reference = draw(&mut all_at_once, seed, total);

        let mut chunked = PoissonArrivals::new(200_000.0);
        let mut rng = SimRng::seed(seed);
        let mut replay = Vec::with_capacity(total);
        for chunk in &splits {
            for _ in 0..*chunk {
                replay.push(chunked.next_gap(&mut rng));
            }
        }
        prop_assert_eq!(reference, replay);
    }
}
