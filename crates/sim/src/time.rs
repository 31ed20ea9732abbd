//! Simulated time: instants ([`Time`]) and durations ([`Dur`]) with
//! nanosecond resolution.
//!
//! All latency constants in the reproduction (stack delays, wire
//! serialization, PM write latency, …) are expressed in these types so that
//! the unit is carried by the type system rather than by convention.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured in nanoseconds since simulation start.
///
/// `Time` is ordered and supports the natural arithmetic with [`Dur`]:
///
/// ```
/// use pmnet_sim::{Time, Dur};
/// let t = Time::ZERO + Dur::micros(5);
/// assert_eq!(t - Time::ZERO, Dur::micros(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time in nanoseconds.
///
/// ```
/// use pmnet_sim::Dur;
/// assert_eq!(Dur::micros(2) + Dur::nanos(500), Dur::nanos(2_500));
/// assert_eq!(Dur::millis(1).as_micros_f64(), 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

/// `x` rounded half away from zero, as a saturating `u64` — exactly
/// `x.round().max(0.0) as u64` (negatives and NaN give 0, anything from
/// 2^64 up gives `u64::MAX`), but without `f64::round`, which the x86-64
/// baseline target lowers to an out-of-line library call, and with
/// signed conversions only, which are single instructions there. Below
/// 2^52 the truncation and the fraction `x - t` are exact, so comparing
/// the fraction with one half rounds exactly; from 2^52 up every double
/// is an integer already.
#[inline]
fn round_ns(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if (0.0..EXACT).contains(&x) {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

impl Time {
    /// The start of simulated time.
    pub const ZERO: Time = Time(0);

    /// The largest representable instant (useful as an "idle" sentinel).
    pub const MAX: Time = Time(u64::MAX);

    /// Constructs an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The later of `self` and `other`.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of `self` and `other`.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Duration since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Constructs a duration from nanoseconds.
    pub const fn nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// Constructs a duration from microseconds.
    pub const fn micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// Constructs a duration from milliseconds.
    pub const fn millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Constructs a duration from seconds.
    pub const fn secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// Constructs a duration from fractional nanoseconds, rounding to the
    /// nearest nanosecond. Negative inputs clamp to zero.
    pub fn from_nanos_f64(ns: f64) -> Dur {
        Dur(round_ns(ns))
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of `self` and `other`.
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The shorter of `self` and `other`.
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a floating-point factor, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> Dur {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        Dur(round_ns(self.0 as f64 * factor))
    }

    /// The time needed to move `bytes` bytes at `bits_per_sec`, i.e. the
    /// serialization delay of a packet on a link or the occupancy of a PM
    /// write of that size.
    ///
    /// ```
    /// use pmnet_sim::Dur;
    /// // 1000 B at 10 Gbps = 800 ns on the wire.
    /// assert_eq!(Dur::for_bytes_at(1000, 10_000_000_000), Dur::nanos(800));
    /// ```
    pub fn for_bytes_at(bytes: u64, bits_per_sec: u64) -> Dur {
        assert!(bits_per_sec > 0, "bandwidth must be positive");
        const NS_BITS_PER_BYTE: u64 = 8 * 1_000_000_000;
        // Below 2.3 GB the product fits a `u64` — every packet and PM
        // write — which spares the 128-bit division routine.
        match bytes.checked_mul(NS_BITS_PER_BYTE) {
            Some(bits) => Dur(bits / bits_per_sec),
            None => {
                let bits = u128::from(bytes) * u128::from(NS_BITS_PER_BYTE);
                Dur((bits / u128::from(bits_per_sec)) as u64)
            }
        }
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self` (simulated time never runs
    /// backwards; a violation is a logic bug worth catching loudly).
    fn sub(self, rhs: Time) -> Dur {
        assert!(
            self.0 >= rhs.0,
            "time subtraction underflow: {self} - {rhs}"
        );
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        Dur(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Dur(self.0))
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Dur::micros(1), Dur::nanos(1_000));
        assert_eq!(Dur::millis(1), Dur::micros(1_000));
        assert_eq!(Dur::secs(1), Dur::millis(1_000));
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = Time::from_nanos(500) + Dur::nanos(250);
        assert_eq!(t.as_nanos(), 750);
        assert_eq!(t - Time::from_nanos(500), Dur::nanos(250));
        assert_eq!(t - Dur::nanos(750), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn backwards_subtraction_panics() {
        let _ = Time::ZERO - Time::from_nanos(1);
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            Time::from_nanos(5).saturating_since(Time::from_nanos(9)),
            Dur::ZERO
        );
    }

    #[test]
    fn serialization_delay_matches_paper_numbers() {
        // Section V-A: 1000 B at 10 Gbps = 800 ns.
        assert_eq!(Dur::for_bytes_at(1000, 10_000_000_000), Dur::nanos(800));
        // 1500 B MTU at 10 Gbps = 1.2 us.
        assert_eq!(Dur::for_bytes_at(1500, 10_000_000_000), Dur::nanos(1200));
    }

    #[test]
    fn mul_div_and_float_conversions() {
        assert_eq!(Dur::nanos(100) * 3, Dur::nanos(300));
        assert_eq!(Dur::nanos(300) / 3, Dur::nanos(100));
        assert_eq!(Dur::micros(3).as_micros_f64(), 3.0);
        assert_eq!(Dur::micros(2).mul_f64(1.5), Dur::micros(3));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Dur::nanos(12).to_string(), "12ns");
        assert_eq!(Dur::micros(12).to_string(), "12.000us");
        assert_eq!(Dur::millis(12).to_string(), "12.000ms");
        assert_eq!(Dur::secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = [Dur::nanos(1), Dur::nanos(2), Dur::nanos(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Dur::nanos(6));
    }
}
