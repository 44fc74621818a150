//! Simulated time.
//!
//! All timing models in this workspace operate on [`SimTime`] (an absolute
//! instant since simulation start) and [`Duration`] (a span), both held as
//! integer nanoseconds. Integer time keeps event ordering exact and
//! platform-independent; 64 bits of nanoseconds covers ~584 years of
//! simulated time, far beyond any run here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, in nanoseconds since simulation
/// start.
///
/// # Examples
///
/// ```
/// use simkit::{SimTime, Duration};
/// let t = SimTime::ZERO + Duration::from_us(3);
/// assert_eq!(t.as_ns(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use simkit::Duration;
/// let page_transfer = Duration::from_bytes_at_bandwidth(4096, 800_000_000);
/// assert_eq!(page_transfer.as_ns(), 5_120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "idle forever" marker.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the instant as nanoseconds since simulation start.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the instant as (possibly fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant as (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Returns the span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        debug_assert!(
            earlier.0 <= self.0,
            "duration_since: {earlier:?} > {self:?}"
        );
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating duration: zero if `earlier` is after `self`.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a span from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a span from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// The time to move `bytes` bytes over a link of `bytes_per_sec`
    /// bandwidth, rounded up to a whole nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    #[inline]
    pub fn from_bytes_at_bandwidth(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        // ns = bytes * 1e9 / bw, computed in u128 to avoid overflow.
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        Duration(ns as u64)
    }

    /// The time for `cycles` cycles at `hz` clock frequency, rounded up.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    #[inline]
    pub fn from_cycles(cycles: u64, hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be positive");
        let ns = (cycles as u128 * 1_000_000_000u128).div_ceil(hz as u128);
        Duration(ns as u64)
    }

    /// Returns the span in nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the span as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns `true` if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the larger of two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        self.duration_since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(rhs.0 <= self.0, "duration underflow");
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        debug_assert!(rhs.0 <= self.0, "duration underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_ns(500) + Duration::from_us(2);
        assert_eq!(t.as_ns(), 2_500);
        assert_eq!(t - SimTime::from_ns(500), Duration::from_us(2));
        assert_eq!(t - Duration::from_ns(2_500), SimTime::ZERO);
    }

    #[test]
    fn bandwidth_duration_rounds_up() {
        // 1 byte over 3 B/s => ceil(1e9/3) ns.
        let d = Duration::from_bytes_at_bandwidth(1, 3);
        assert_eq!(d.as_ns(), 333_333_334);
    }

    #[test]
    fn page_transfer_matches_hand_calc() {
        // 4 KiB over 800 MB/s = 4096/8e8 s = 5.12 us.
        let d = Duration::from_bytes_at_bandwidth(4096, 800_000_000);
        assert_eq!(d.as_ns(), 5_120);
    }

    #[test]
    fn cycles_duration() {
        // 500 cycles at 500 MHz = 1 us.
        assert_eq!(
            Duration::from_cycles(500, 500_000_000),
            Duration::from_us(1)
        );
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_ns(10);
        let late = SimTime::from_ns(20);
        assert_eq!(early.saturating_duration_since(late), Duration::ZERO);
        assert_eq!(
            Duration::from_ns(5).saturating_sub(Duration::from_ns(9)),
            Duration::ZERO
        );
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Duration::from_ns(12).to_string(), "12ns");
        assert_eq!(Duration::from_us(3).to_string(), "3.000us");
        assert_eq!(Duration::from_ms(7).to_string(), "7.000ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [Duration::from_ns(1), Duration::from_ns(2)]
            .into_iter()
            .sum();
        assert_eq!(total, Duration::from_ns(3));
    }

    #[test]
    fn min_max() {
        let a = Duration::from_ns(4);
        let b = Duration::from_ns(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimTime::from_ns(4).max(SimTime::from_ns(9)),
            SimTime::from_ns(9)
        );
        assert_eq!(
            SimTime::from_ns(4).min(SimTime::from_ns(9)),
            SimTime::from_ns(4)
        );
    }
}
