//! Measurement primitives: counters, rate meters and an HDR-style histogram.

use crate::time::{SimDuration, SimTime};

/// A log-linear histogram (HDR-histogram style) for latency measurements.
///
/// Values are bucketed with a fixed relative precision: each power-of-two
/// range is split into `1 << sub_bits` linear sub-buckets, giving a worst-case
/// relative quantization error of `2^-sub_bits`.
///
/// # Examples
///
/// ```
/// use fld_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0);
/// assert!((450..=550).contains(&p50));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    sub_bits: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a histogram with the default precision (1/64 ≈ 1.6 % relative error).
    pub fn new() -> Self {
        Self::with_precision(6)
    }

    /// Creates a histogram with `2^sub_bits` sub-buckets per octave.
    ///
    /// # Panics
    ///
    /// Panics if `sub_bits` is not in `1..=16`.
    pub fn with_precision(sub_bits: u32) -> Self {
        assert!((1..=16).contains(&sub_bits), "sub_bits out of range");
        Histogram {
            sub_bits,
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(&self, value: u64) -> usize {
        let sub = self.sub_bits;
        if value < (1 << sub) {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        // Values in [2^msb, 2^(msb+1)) map to 2^sub_bits linear sub-buckets
        // of width 2^shift each.
        let shift = msb - sub;
        let offset = ((value >> shift) - (1 << sub)) as usize;
        (((shift + 1) as usize) << sub) + offset
    }

    fn value_of(&self, index: usize) -> u64 {
        let sub = self.sub_bits as usize;
        if index < (1 << sub) {
            return index as u64;
        }
        let shift = (index >> sub) - 1;
        let offset = (index & ((1 << sub) - 1)) as u64;
        let key = (1u64 << sub) + offset;
        // Middle of the bucket, to halve the quantization bias.
        (key << shift) + ((1u64 << shift) >> 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self.index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate value at percentile `p` (0–100).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return self.value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram of identical precision.
    ///
    /// # Panics
    ///
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.sub_bits, other.sub_bits, "precision mismatch");
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Counts bytes and packets over a measured interval and reports rates.
///
/// # Examples
///
/// ```
/// use fld_sim::stats::RateMeter;
/// use fld_sim::time::SimTime;
///
/// let mut m = RateMeter::new();
/// m.start(SimTime::ZERO);
/// m.record(1500);
/// m.record(1500);
/// m.finish(SimTime::from_micros(1));
/// assert!((m.gbps() - 24.0).abs() < 1e-9);
/// assert!((m.mpps() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RateMeter {
    bytes: u64,
    packets: u64,
    start: SimTime,
    end: SimTime,
    started: bool,
}

impl RateMeter {
    /// Creates an idle meter.
    pub fn new() -> Self {
        RateMeter::default()
    }

    /// Starts (or restarts) the measurement window.
    pub fn start(&mut self, at: SimTime) {
        self.bytes = 0;
        self.packets = 0;
        self.start = at;
        self.end = at;
        self.started = true;
    }

    /// Records one packet of `bytes` bytes.
    pub fn record(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.packets += 1;
    }

    /// Closes the measurement window.
    pub fn finish(&mut self, at: SimTime) {
        self.end = at;
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total packets recorded.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Window length. A meter that was never [`RateMeter::start`]ed has
    /// no window — `finish` alone must not silently measure from time
    /// zero — so this returns zero and the rates below report 0.
    pub fn elapsed(&self) -> SimDuration {
        if !self.started {
            return SimDuration::ZERO;
        }
        self.end.saturating_since(self.start)
    }

    /// Goodput in gigabits per second over the window (0 for empty windows).
    pub fn gbps(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / secs / 1e9
        }
    }

    /// Packet rate in millions of packets per second (0 for empty windows).
    pub fn mpps(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.packets as f64 / secs / 1e6
        }
    }
}

/// A simple named counter set for drop/error accounting.
///
/// Lookups are O(1) via a name index; iteration stays in first-insertion
/// order so reports remain stable.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    entries: Vec<(&'static str, u64)>,
    index: std::collections::HashMap<&'static str, usize>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to the counter called `name`, creating it if needed.
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.index.entry(name) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.entries[*e.get()].1 += n;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.entries.len());
                self.entries.push((name, n));
            }
        }
    }

    /// Increments the counter called `name`.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads a counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.index
            .get(name)
            .map(|&i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_on_uniform_data() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, expect) in [(50.0, 5_000.0), (90.0, 9_000.0), (99.0, 9_900.0)] {
            let got = h.percentile(p) as f64;
            assert!(
                (got - expect).abs() / expect < 0.03,
                "p{p}: got {got}, want ~{expect}"
            );
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 3);
        assert_eq!(h.percentile(100.0), 7);
    }

    #[test]
    fn histogram_mean_and_count() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(30);
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=100 {
            a.record(v);
        }
        for v in 101..=200 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.max(), 200);
        assert_eq!(a.min(), 1);
    }

    #[test]
    fn histogram_relative_error_bound() {
        let mut h = Histogram::new();
        let v = 1_234_567u64;
        h.record(v);
        let got = h.percentile(50.0) as f64;
        assert!((got - v as f64).abs() / v as f64 <= 1.0 / 64.0 + 1e-9);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn rate_meter_rates() {
        let mut m = RateMeter::new();
        m.start(SimTime::from_micros(10));
        for _ in 0..100 {
            m.record(1000);
        }
        m.finish(SimTime::from_micros(20));
        // 100 kB in 10 us = 80 Gbps; 100 packets in 10 us = 10 Mpps.
        assert!((m.gbps() - 80.0).abs() < 1e-6);
        assert!((m.mpps() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn rate_meter_empty_window() {
        let m = RateMeter::new();
        assert_eq!(m.gbps(), 0.0);
        assert_eq!(m.mpps(), 0.0);
    }

    #[test]
    fn rate_meter_zero_duration_window_reports_zero_not_nan() {
        let mut m = RateMeter::new();
        m.start(SimTime::from_micros(5));
        m.record(1000);
        m.finish(SimTime::from_micros(5)); // start == end
        assert_eq!(m.bytes(), 1000);
        assert_eq!(m.elapsed(), SimDuration::ZERO);
        assert_eq!(m.gbps(), 0.0);
        assert!(!m.mpps().is_nan());
    }

    #[test]
    fn rate_meter_finish_without_start_has_no_window() {
        // Regression: `finish` on a never-started meter used to measure
        // from time zero, inventing a window out of thin air.
        let mut m = RateMeter::new();
        m.record(1500);
        m.finish(SimTime::from_secs(1));
        assert_eq!(m.elapsed(), SimDuration::ZERO);
        assert_eq!(m.gbps(), 0.0);
    }

    #[test]
    fn rate_meter_finish_before_start_saturates() {
        let mut m = RateMeter::new();
        m.start(SimTime::from_micros(10));
        m.finish(SimTime::from_micros(3)); // window closed in the past
        assert_eq!(m.elapsed(), SimDuration::ZERO);
        assert_eq!(m.gbps(), 0.0);
    }

    #[test]
    fn histogram_single_sample_is_exact_at_every_percentile() {
        let mut h = Histogram::new();
        h.record(1_234_567);
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 1_234_567, "p{p}");
        }
        assert_eq!(h.min(), 1_234_567);
        assert_eq!(h.max(), 1_234_567);
    }

    #[test]
    fn histogram_percentile_zero_returns_first_sample() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(1_000_000);
        assert_eq!(h.percentile(0.0), 10);
    }

    #[test]
    fn histogram_records_zero_values() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = (a.count(), a.min(), a.max(), a.sum());
        a.merge(&Histogram::new());
        assert_eq!((a.count(), a.min(), a.max(), a.sum()), before);
        // And empty.merge(non-empty) adopts the other's extremes.
        let mut e = Histogram::new();
        e.merge(&a);
        assert_eq!(e.min(), 42);
        assert_eq!(e.max(), 42);
    }

    #[test]
    fn histogram_extreme_value_does_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        // Clamped to the recorded extremes, within the precision bound.
        assert_eq!(h.percentile(50.0), u64::MAX);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.inc("drops");
        c.add("drops", 2);
        c.inc("errors");
        assert_eq!(c.get("drops"), 3);
        assert_eq!(c.get("errors"), 1);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.iter().count(), 2);
    }
}
