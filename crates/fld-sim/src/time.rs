//! Simulation time and duration types.
//!
//! The simulator counts **picoseconds** in a `u64`. At 100 Gbps a 64 B frame
//! serializes in 5.12 ns, so nanosecond resolution would round away several
//! percent of link time; picoseconds keep serialization exact while still
//! covering ~213 days of simulated time before overflow.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time, in picoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use fld_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
///
/// # Examples
///
/// ```
/// use fld_sim::time::SimDuration;
///
/// let d = SimDuration::from_nanos(5) + SimDuration::from_nanos(7);
/// assert_eq!(d.as_picos(), 12_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates an instant from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (truncated) nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0 / 1_000
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000_000.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "time went backwards");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating duration since `earlier`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration seconds: {s}");
        SimDuration(round_to_u64(s * 1_000_000_000_000.0))
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Truncated nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000_000.0
    }

    /// Whether the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "duration underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

/// Link or processing bandwidth, stored as bits per second.
///
/// # Examples
///
/// ```
/// use fld_sim::time::Bandwidth;
///
/// let b = Bandwidth::gbps(100.0);
/// // A 64-byte frame takes 5.12 ns to serialize at 100 Gbps.
/// assert_eq!(b.time_for_bytes(64).as_picos(), 5_120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth in bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not a positive finite number.
    pub fn bps(bps: f64) -> Self {
        assert!(bps.is_finite() && bps > 0.0, "invalid bandwidth: {bps}");
        Bandwidth(bps)
    }

    /// Creates a bandwidth in gigabits per second.
    pub fn gbps(gbps: f64) -> Self {
        Bandwidth::bps(gbps * 1e9)
    }

    /// This bandwidth in bits per second.
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// This bandwidth in gigabits per second.
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Serialization time for `bytes` at this bandwidth.
    pub fn time_for_bytes(self, bytes: u64) -> SimDuration {
        self.time_for_bits(bytes * 8)
    }

    /// Serialization time for `bits` at this bandwidth.
    pub fn time_for_bits(self, bits: u64) -> SimDuration {
        SimDuration::from_picos(round_to_u64((bits as f64) * 1e12 / self.0))
    }
}

/// `x.round() as u64` — half away from zero, negatives and NaN to 0,
/// saturating — without the call into libm that `f64::round` is on
/// baseline x86-64 (no `roundsd` before SSE4.1). Every rounding of a
/// float into picoseconds or bytes goes through it: serialisation times,
/// PCIe byte loads, `from_secs_f64`, Poisson gaps.
///
/// The cast truncates; the remainder `x − trunc(x)` is exact (for
/// `x < 2^52` both are multiples of `x`'s ulp and the difference is below
/// 1; from `2^52` on `x` is an integer and it is 0), so comparing it with
/// one half decides the rounding exactly as `round` does.
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    let floor = x as u64;
    floor.saturating_add((x - floor as f64 >= 0.5) as u64)
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Gbps", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_round_trips() {
        assert_eq!(SimTime::from_nanos(1).as_picos(), 1_000);
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(10);
        let b = SimDuration::from_nanos(4);
        assert_eq!((a + b).as_nanos(), 14);
        assert_eq!((a - b).as_nanos(), 6);
        assert_eq!((a * 3).as_nanos(), 30);
        assert_eq!((a / 2).as_nanos(), 5);
    }

    #[test]
    fn instant_duration_interplay() {
        let t0 = SimTime::from_nanos(100);
        let t1 = t0 + SimDuration::from_nanos(50);
        assert_eq!(t1.since(t0).as_nanos(), 50);
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_serialization_times() {
        let line = Bandwidth::gbps(25.0);
        // 1500 B at 25 Gbps = 480 ns.
        assert_eq!(line.time_for_bytes(1500).as_nanos(), 480);
        let pcie = Bandwidth::gbps(50.0);
        assert_eq!(pcie.time_for_bytes(1500).as_nanos(), 240);
    }

    #[test]
    fn bandwidth_constructors_agree() {
        assert_eq!(Bandwidth::gbps(1.0).as_bps(), Bandwidth::bps(1e9).as_bps());
    }

    #[test]
    #[should_panic]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::bps(0.0);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", Bandwidth::gbps(25.0)), "25.000Gbps");
    }
}
