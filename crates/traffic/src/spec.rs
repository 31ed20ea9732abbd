//! Traffic campaign specification and validation.
//!
//! Mirrors the `SystemConfig` convention: `validate()` returns the first
//! violated bound as an error string, and the system builder panics on an
//! invalid spec rather than wedging a run.

use pmnet_core::config::MTU_BYTES;
use pmnet_sim::Dur;

/// Session lifecycle churn: logical sessions disconnect at a Poisson
/// hazard and reconnect (as new logical sessions) after an exponential
/// backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Per-slot disconnect hazard (events per second); `0.0` disables
    /// churn.
    pub disconnect_hazard_per_sec: f64,
    /// Mean reconnect delay after a disconnect.
    pub reconnect_delay: Dur,
}

impl ChurnSpec {
    /// No churn: every session stays connected for the whole campaign.
    pub fn none() -> ChurnSpec {
        ChurnSpec {
            disconnect_hazard_per_sec: 0.0,
            reconnect_delay: Dur::millis(1),
        }
    }
}

/// AIMD admission control driven by `FLAG_CONGESTED` server acks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionSpec {
    /// Admit everything (the congestion-collapse baseline).
    Open,
    /// Additive-increase / multiplicative-decrease gate on the admitted
    /// fraction of arrivals.
    Aimd {
        /// Admitted-fraction floor (never shed below this).
        min_admit: f64,
        /// Additive increase per clean completion.
        increase: f64,
        /// Multiplicative decrease per congestion signal.
        decrease: f64,
    },
}

impl AdmissionSpec {
    /// The default AIMD gate used by the overload study.
    pub fn aimd() -> AdmissionSpec {
        AdmissionSpec::Aimd {
            min_admit: 0.05,
            increase: 0.002,
            decrease: 0.90,
        }
    }
}

/// A full open-loop campaign description.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Mean Poisson arrival rate, aggregate over all engine nodes.
    pub rate_per_sec: f64,
    /// Number of open-loop engine nodes (client hosts).
    pub nodes: usize,
    /// Wire-session slots per node; the arena session table is exactly
    /// this large, bounding per-session state regardless of churn.
    pub sessions_per_node: usize,
    /// Update payload bytes (single-fragment; must fit one MTU).
    pub payload_bytes: usize,
    /// Session lifecycle churn.
    pub churn: ChurnSpec,
    /// Pending-op queue bound per session slot; arrivals beyond it are
    /// dropped (counted, never silently).
    pub queue_cap: usize,
    /// Admission control policy.
    pub admission: AdmissionSpec,
    /// Measurement window: arrivals are generated for this long.
    pub measure: Dur,
    /// Drain window after arrivals stop (in-flight ops complete or time
    /// out; device logs drain).
    pub drain: Dur,
}

impl TrafficSpec {
    /// A small default campaign: Poisson arrivals, light churn, AIMD
    /// admission, a 100M-key zipfian working set.
    pub fn poisson(rate_per_sec: f64) -> TrafficSpec {
        TrafficSpec {
            rate_per_sec,
            nodes: 4,
            sessions_per_node: 64,
            payload_bytes: 64,
            churn: ChurnSpec {
                disconnect_hazard_per_sec: 2.0,
                reconnect_delay: Dur::millis(2),
            },
            queue_cap: 32,
            admission: AdmissionSpec::aimd(),
            measure: Dur::millis(40),
            drain: Dur::millis(30),
        }
    }

    /// Checks every bound, returning the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !self.rate_per_sec.is_finite() || self.rate_per_sec <= 0.0 {
            return Err("traffic.rate_per_sec must be positive".into());
        }
        if self.nodes == 0 {
            return Err("traffic.nodes must be non-zero".into());
        }
        if self.sessions_per_node == 0 {
            return Err("traffic.sessions_per_node must be non-zero".into());
        }
        if self.nodes * self.sessions_per_node > usize::from(u16::MAX) {
            return Err("traffic.sessions_per_node x nodes must fit the u16 session space".into());
        }
        if self.payload_bytes == 0 || self.payload_bytes > MTU_BYTES / 2 {
            return Err("traffic.payload_bytes must fit a single fragment".into());
        }
        let hazard = self.churn.disconnect_hazard_per_sec;
        if !hazard.is_finite() || hazard < 0.0 {
            return Err("traffic.churn.disconnect_hazard_per_sec must be non-negative".into());
        }
        // A slot disconnecting as fast as (or faster than) work arrives
        // for it never completes anything: the campaign measures churn,
        // not the system.
        let per_slot_rate = self.rate_per_sec / (self.nodes * self.sessions_per_node) as f64;
        if hazard > 0.0 && hazard >= per_slot_rate {
            return Err(
                "traffic.churn.disconnect_hazard_per_sec must stay below the per-session \
                 arrival rate"
                    .into(),
            );
        }
        if hazard > 0.0 && self.churn.reconnect_delay == Dur::ZERO {
            return Err("traffic.churn.reconnect_delay must be non-zero".into());
        }
        if self.queue_cap == 0 {
            return Err("traffic.queue_cap must be non-zero".into());
        }
        if let AdmissionSpec::Aimd {
            min_admit,
            increase,
            decrease,
        } = self.admission
        {
            if !(min_admit > 0.0 && min_admit <= 1.0) {
                return Err("traffic.admission.min_admit must be within (0, 1]".into());
            }
            if !increase.is_finite() || increase <= 0.0 {
                return Err("traffic.admission.increase must be positive".into());
            }
            if !(decrease > 0.0 && decrease < 1.0) {
                return Err("traffic.admission.decrease must be within (0, 1)".into());
            }
        }
        if self.measure == Dur::ZERO {
            return Err("traffic.measure must be non-zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TrafficSpec {
        TrafficSpec::poisson(100_000.0)
    }

    #[test]
    fn default_spec_validates() {
        base().validate().expect("default spec must be valid");
    }

    #[test]
    fn rejects_zero_poisson_rate() {
        let mut s = base();
        s.rate_per_sec = 0.0;
        assert!(s.validate().unwrap_err().contains("rate_per_sec"));
    }

    #[test]
    fn rejects_churn_hazard_at_or_above_arrival_rate() {
        let mut s = base();
        // 100k/s over 256 slots is ~390 arrivals per slot-second; a
        // hazard matching that rate disconnects as fast as work arrives.
        s.churn.disconnect_hazard_per_sec = 400.0;
        assert!(s
            .validate()
            .unwrap_err()
            .contains("disconnect_hazard_per_sec"));
    }

    #[test]
    fn rejects_zero_structure() {
        let mut s = base();
        s.nodes = 0;
        assert!(s.validate().unwrap_err().contains("nodes"));
        let mut s = base();
        s.sessions_per_node = 0;
        assert!(s.validate().unwrap_err().contains("sessions_per_node"));
        let mut s = base();
        s.queue_cap = 0;
        assert!(s.validate().unwrap_err().contains("queue_cap"));
        let mut s = base();
        s.payload_bytes = 0;
        assert!(s.validate().unwrap_err().contains("payload_bytes"));
        let mut s = base();
        s.measure = Dur::ZERO;
        assert!(s.validate().unwrap_err().contains("measure"));
    }

    #[test]
    fn rejects_bad_aimd_params() {
        let mut s = base();
        s.admission = AdmissionSpec::Aimd {
            min_admit: 0.0,
            increase: 0.01,
            decrease: 0.9,
        };
        assert!(s.validate().unwrap_err().contains("min_admit"));
        s.admission = AdmissionSpec::Aimd {
            min_admit: 0.1,
            increase: 0.0,
            decrease: 0.9,
        };
        assert!(s.validate().unwrap_err().contains("increase"));
        s.admission = AdmissionSpec::Aimd {
            min_admit: 0.1,
            increase: 0.01,
            decrease: 1.0,
        };
        assert!(s.validate().unwrap_err().contains("decrease"));
    }

    #[test]
    fn rejects_session_space_overflow() {
        let mut s = base();
        s.nodes = 300;
        s.sessions_per_node = 300;
        assert!(s.validate().unwrap_err().contains("session space"));
    }
}
