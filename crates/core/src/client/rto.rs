//! The client's retransmission-timeout estimator.

use pmnet_sim::Dur;

use crate::config::RetryConfig;

/// RFC 6298-style retransmission-timeout estimator with exponential
/// backoff.
///
/// Maintains the smoothed RTT (`SRTT`) and RTT variance (`RTTVAR`) from
/// completion-time samples, computes `RTO = SRTT + 4·RTTVAR` clamped to
/// the configured `[rto_min, rto_max]` band, and doubles the effective
/// timeout per unanswered retransmission round (Karn's algorithm: only
/// un-retransmitted requests contribute samples, so a retransmitted ACK
/// can't be mis-attributed to the wrong transmission).
#[derive(Debug, Clone, Copy)]
pub struct RtoEstimator {
    initial: Dur,
    cfg: RetryConfig,
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    backoff_shift: u32,
}

impl RtoEstimator {
    /// Creates an estimator seeded with `initial` (used until the first
    /// RTT sample arrives), bounded by `cfg`'s RTO band.
    pub fn new(initial: Dur, cfg: RetryConfig) -> RtoEstimator {
        RtoEstimator {
            initial,
            cfg,
            srtt_ns: None,
            rttvar_ns: 0,
            backoff_shift: 0,
        }
    }

    /// Feeds one RTT sample (from an un-retransmitted request) and clears
    /// any accumulated backoff.
    pub fn sample(&mut self, rtt: Dur) {
        let r = rtt.as_nanos();
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2;
            }
            Some(srtt) => {
                self.rttvar_ns = (3 * self.rttvar_ns + srtt.abs_diff(r)) / 4;
                self.srtt_ns = Some((7 * srtt + r) / 8);
            }
        }
        self.backoff_shift = 0;
    }

    /// The current effective RTO: the estimator's base value shifted left
    /// by the backoff count, clamped to `[rto_min, rto_max]`.
    pub fn current(&self) -> Dur {
        let base = match self.srtt_ns {
            Some(srtt) => srtt.saturating_add(4u64.saturating_mul(self.rttvar_ns)),
            None => self.initial.as_nanos(),
        };
        let shifted = base.saturating_mul(1u64 << self.backoff_shift.min(20));
        Dur::nanos(shifted)
            .max(self.cfg.rto_min)
            .min(self.cfg.rto_max)
    }

    /// Doubles the effective RTO (capped at `rto_max`) after an unanswered
    /// round or a congestion signal.
    pub fn back_off(&mut self) {
        self.backoff_shift = (self.backoff_shift + 1).min(20);
    }

    /// Forgets every sample and all backoff: RTT history does not survive
    /// a restart.
    pub(super) fn reset(&mut self) {
        *self = RtoEstimator::new(self.initial, self.cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rto_estimator_follows_rfc_6298_arithmetic() {
        let cfg = RetryConfig {
            rto_min: Dur::micros(1),
            rto_max: Dur::secs(10),
            ..RetryConfig::default()
        };
        let mut e = RtoEstimator::new(Dur::millis(10), cfg);
        // Before any sample the initial seed rules.
        assert_eq!(e.current(), Dur::millis(10));
        // First sample: SRTT = R, RTTVAR = R/2, RTO = R + 4·(R/2) = 3R.
        e.sample(Dur::micros(100));
        assert_eq!(e.current(), Dur::micros(300));
        // A steady RTT collapses the variance toward zero, pulling the
        // RTO down toward SRTT.
        for _ in 0..64 {
            e.sample(Dur::micros(100));
        }
        assert!(e.current() < Dur::micros(120));
        assert!(e.current() >= Dur::micros(100));
    }

    #[test]
    fn rto_backoff_doubles_and_clamps_to_the_cap() {
        let cfg = RetryConfig {
            rto_min: Dur::millis(1),
            rto_max: Dur::millis(8),
            settle_window: Dur::millis(20),
            ..RetryConfig::default()
        };
        let mut e = RtoEstimator::new(Dur::millis(2), cfg);
        assert_eq!(e.current(), Dur::millis(2));
        e.back_off();
        assert_eq!(e.current(), Dur::millis(4));
        e.back_off();
        assert_eq!(e.current(), Dur::millis(8));
        e.back_off();
        assert_eq!(e.current(), Dur::millis(8)); // capped
                                                 // A fresh sample clears the backoff.
        e.sample(Dur::micros(500));
        assert_eq!(e.current(), Dur::millis(1).max(Dur::micros(1500)));
    }

    #[test]
    fn rto_floor_is_enforced() {
        let cfg = RetryConfig {
            rto_min: Dur::millis(1),
            ..RetryConfig::default()
        };
        let mut e = RtoEstimator::new(Dur::millis(10), cfg);
        // A tiny, jitter-free RTT cannot drag the RTO below the floor.
        for _ in 0..32 {
            e.sample(Dur::nanos(200));
        }
        assert_eq!(e.current(), Dur::millis(1));
    }
}
