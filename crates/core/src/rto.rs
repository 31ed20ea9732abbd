//! The retransmission-timeout estimator both retrying parties share: a
//! client [`Session`](crate::client::session::Session) times a request
//! from the acks that answer it (DESIGN.md §9.1), and the device times a
//! log entry's re-forward from the server acks that invalidate its
//! entries (§7).

use pmnet_sim::Dur;

/// Cap on a backoff exponent: `2^20` is far past any band's ceiling.
const MAX_SHIFT: u32 = 20;

/// RFC 6298-style retransmission-timeout estimator with exponential
/// backoff.
///
/// Maintains the smoothed RTT (`SRTT`) and RTT variance (`RTTVAR`) from
/// completion-time samples, computes `RTO = SRTT + 4·RTTVAR` clamped to
/// the `[min, max]` band it was built with, and doubles the effective
/// timeout per unanswered retransmission round. Which samples it is fed
/// is the caller's rule: the client applies Karn's algorithm (only
/// un-retransmitted requests contribute, so a retransmitted ACK can't be
/// mis-attributed to the wrong transmission); the device does not, since
/// a server acks an update once, however many copies reached it.
#[derive(Debug, Clone, Copy)]
pub struct RtoEstimator {
    initial: Dur,
    min: Dur,
    max: Dur,
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    backoff_shift: u32,
}

impl RtoEstimator {
    /// Creates an estimator seeded with `initial` (used until the first
    /// RTT sample arrives), bounded to `[min, max]`.
    pub fn new(initial: Dur, min: Dur, max: Dur) -> RtoEstimator {
        RtoEstimator {
            initial,
            min,
            max,
            srtt_ns: None,
            rttvar_ns: 0,
            backoff_shift: 0,
        }
    }

    /// Feeds one RTT sample and clears any accumulated backoff.
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
    /// by the backoff count, clamped to `[min, max]`.
    pub fn current(&self) -> Dur {
        let base = match self.srtt_ns {
            Some(srtt) => srtt.saturating_add(4u64.saturating_mul(self.rttvar_ns)),
            None => self.initial.as_nanos(),
        };
        let shifted = base.saturating_mul(1u64 << self.backoff_shift);
        Dur::nanos(shifted).max(self.min).min(self.max)
    }

    /// [`RtoEstimator::current`] doubled `rounds` times, capped at `max`:
    /// the timeout of a timer that keeps its own count of unanswered
    /// rounds. The device backs off per log entry this way, so one slow
    /// entry does not stretch the wait of every other.
    pub(crate) fn backed_off(&self, rounds: u32) -> Dur {
        let doubled = self
            .current()
            .as_nanos()
            .saturating_mul(1u64 << rounds.min(MAX_SHIFT));
        Dur::nanos(doubled).min(self.max)
    }

    /// Doubles the effective RTO (capped at `max`) after an unanswered
    /// round or a congestion signal.
    pub fn back_off(&mut self) {
        self.backoff_shift = (self.backoff_shift + 1).min(MAX_SHIFT);
    }

    /// Forgets every sample and all backoff: RTT history does not survive
    /// a restart.
    pub(crate) fn reset(&mut self) {
        *self = RtoEstimator::new(self.initial, self.min, self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rto_estimator_follows_rfc_6298_arithmetic() {
        let mut e = RtoEstimator::new(Dur::millis(10), Dur::micros(1), Dur::secs(10));
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
        let mut e = RtoEstimator::new(Dur::millis(2), Dur::millis(1), Dur::millis(8));
        assert_eq!(e.current(), Dur::millis(2));
        e.back_off();
        assert_eq!(e.current(), Dur::millis(4));
        e.back_off();
        assert_eq!(e.current(), Dur::millis(8));
        // Capped.
        e.back_off();
        assert_eq!(e.current(), Dur::millis(8));
        // A fresh sample clears the backoff.
        e.sample(Dur::micros(500));
        assert_eq!(e.current(), Dur::millis(1).max(Dur::micros(1500)));
    }

    #[test]
    fn rto_floor_is_enforced() {
        let mut e = RtoEstimator::new(Dur::millis(10), Dur::millis(1), Dur::millis(80));
        // A tiny, jitter-free RTT cannot drag the RTO below the floor.
        for _ in 0..32 {
            e.sample(Dur::nanos(200));
        }
        assert_eq!(e.current(), Dur::millis(1));
    }

    #[test]
    fn backed_off_doubles_the_clamped_rto_and_leaves_the_estimator_alone() {
        let mut e = RtoEstimator::new(Dur::millis(1), Dur::millis(1), Dur::millis(8));
        let rounds: Vec<Dur> = (0..6).map(|k| e.backed_off(k)).collect();
        let ms = [1, 2, 4, 8, 8, 8].map(Dur::millis);
        assert_eq!(rounds, ms);
        // Doubling starts from the floored value, not from a tiny SRTT.
        for _ in 0..32 {
            e.sample(Dur::micros(10));
        }
        assert_eq!(e.backed_off(1), Dur::millis(2));
        assert_eq!(e.current(), Dur::millis(1), "no shift was kept");
        assert_eq!(e.backed_off(u32::MAX), Dur::millis(8));
    }
}
