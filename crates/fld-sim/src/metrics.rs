//! A hierarchical metrics registry.
//!
//! Every simulated component exposes its counters, gauges, histograms and
//! rate meters under dotted names (`nic.eswitch.drops`,
//! `pcie.rd_rtt_ns`, `fld.rx_ring.occupancy`, …). A
//! [`MetricsRegistry`] collects them into one snapshot, which serializes
//! to a nested JSON document via [`MetricsRegistry::to_json`].
//!
//! Registration order does not matter: names are kept sorted, so two runs
//! of the same experiment produce byte-identical snapshots.
//!
//! # Examples
//!
//! ```
//! use fld_sim::metrics::MetricsRegistry;
//! use fld_sim::stats::Histogram;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter("nic.eswitch.drops", 3);
//! reg.gauge("fld.rx_ring.occupancy", 0.25);
//! let mut h = Histogram::new();
//! h.record(120);
//! reg.histogram("pcie.rd_rtt_ns", &h);
//! assert_eq!(reg.counter_value("nic.eswitch.drops"), Some(3));
//! assert!(reg.to_json().contains("\"eswitch\""));
//! ```

use std::collections::BTreeMap;

use crate::json::JsonWriter;
use crate::stats::{Counters, Histogram, RateMeter};

/// A point-in-time summary of a [`Histogram`].
#[derive(Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// 50th percentile.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Sum of all samples (exact, unlike `mean * count`).
    pub sum: u128,
}

impl From<&Histogram> for HistogramSnapshot {
    fn from(h: &Histogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
            p999: h.percentile(99.9),
            sum: h.sum(),
        }
    }
}

/// A point-in-time summary of a [`RateMeter`].
#[derive(Debug, PartialEq)]
pub struct RateSnapshot {
    /// Total bytes over the window.
    pub bytes: u64,
    /// Total packets over the window.
    pub packets: u64,
    /// Gigabits per second.
    pub gbps: f64,
    /// Millions of packets per second.
    pub mpps: f64,
}

impl From<&RateMeter> for RateSnapshot {
    fn from(m: &RateMeter) -> Self {
        RateSnapshot {
            bytes: m.bytes(),
            packets: m.packets(),
            gbps: m.gbps(),
            mpps: m.mpps(),
        }
    }
}

/// One registered metric.
#[derive(Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonic count (drops, MMIO writes, retransmits, …).
    Counter(u64),
    /// An instantaneous or derived value (occupancy, utilization, …).
    Gauge(f64),
    /// A distribution summary.
    Histogram(HistogramSnapshot),
    /// A throughput summary.
    Rate(RateSnapshot),
}

/// A collection of named metrics with hierarchical JSON export.
///
/// Dots in names become nesting levels in the JSON snapshot. A name that
/// is also a prefix of other names (`pcie` next to `pcie.rtt`) keeps its
/// value under the reserved `self` key of the shared object.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a counter. Re-registering a name replaces its value.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.metrics
            .insert(name.into(), MetricValue::Counter(value));
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), MetricValue::Gauge(value));
    }

    /// Registers a snapshot of `histogram`.
    pub fn histogram(&mut self, name: impl Into<String>, histogram: &Histogram) {
        self.metrics
            .insert(name.into(), MetricValue::Histogram(histogram.into()));
    }

    /// Registers a snapshot of `meter`.
    pub fn rate(&mut self, name: impl Into<String>, meter: &RateMeter) {
        self.metrics
            .insert(name.into(), MetricValue::Rate(meter.into()));
    }

    /// Registers every entry of a [`Counters`] set as
    /// `"{prefix}.{counter}"`.
    pub fn counters(&mut self, prefix: &str, counters: &Counters) {
        for (name, value) in counters.iter() {
            self.counter(format!("{prefix}.{name}"), value);
        }
    }

    /// Reads a counter's value, if `name` is a registered counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Serializes the snapshot as pretty-printed hierarchical JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write_into(&mut w);
        w.finish()
    }

    /// Writes the snapshot as one JSON value into an existing writer, so
    /// callers can embed it in a larger document.
    pub fn write_into(&self, w: &mut JsonWriter) {
        let mut root = Node::default();
        for (name, value) in &self.metrics {
            root.insert(name.split('.'), value);
        }
        root.write(w);
    }
}

/// The name tree built during export.
#[derive(Debug, Default)]
struct Node<'a> {
    /// The metric stored exactly at this path, if any.
    leaf: Option<&'a MetricValue>,
    children: BTreeMap<&'a str, Node<'a>>,
}

impl<'a> Node<'a> {
    fn insert(&mut self, mut path: std::str::Split<'a, char>, value: &'a MetricValue) {
        match path.next() {
            None => self.leaf = Some(value),
            Some(seg) => self.children.entry(seg).or_default().insert(path, value),
        }
    }

    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        if let Some(leaf) = self.leaf {
            // This path is both a metric and a namespace: keep the metric
            // addressable under a reserved key.
            w.key("self");
            write_value(w, leaf);
        }
        for (seg, child) in &self.children {
            w.key(seg);
            match (child.leaf, child.children.is_empty()) {
                (Some(leaf), true) => write_value(w, leaf),
                _ => child.write(w),
            }
        }
        w.end_object();
    }
}

fn write_value(w: &mut JsonWriter, value: &MetricValue) {
    match value {
        MetricValue::Counter(v) => w.u64(*v),
        MetricValue::Gauge(v) => w.f64(*v),
        MetricValue::Histogram(h) => {
            w.begin_object();
            w.field_u64("count", h.count);
            w.field_f64("mean", h.mean);
            w.field_u64("min", h.min);
            w.field_u64("max", h.max);
            w.field_u64("p50", h.p50);
            w.field_u64("p90", h.p90);
            w.field_u64("p99", h.p99);
            w.field_u64("p999", h.p999);
            // u128 sums exceed u64 only after ~58 years of simulated
            // nanoseconds; saturate rather than wrap if it ever happens.
            w.field_u64("sum", u64::try_from(h.sum).unwrap_or(u64::MAX));
            w.end_object();
        }
        MetricValue::Rate(r) => {
            w.begin_object();
            w.field_u64("bytes", r.bytes);
            w.field_u64("packets", r.packets);
            w.field_f64("gbps", r.gbps);
            w.field_f64("mpps", r.mpps);
            w.end_object();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_by_dotted_name() {
        let mut reg = MetricsRegistry::new();
        reg.counter("nic.eswitch.drops", 2);
        reg.counter("nic.eswitch.passed", 10);
        reg.gauge("fld.rx_ring.occupancy", 0.5);
        let json = reg.to_json();
        assert!(json.contains("\"nic\""));
        assert!(json.contains("\"eswitch\""));
        assert!(json.contains("\"drops\": 2"));
        assert!(json.contains("\"occupancy\": 0.5"));
    }

    #[test]
    fn leaf_and_namespace_collision_uses_self_key() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pcie", 1);
        reg.counter("pcie.rtt", 2);
        let json = reg.to_json();
        assert!(json.contains("\"self\": 1"), "{json}");
        assert!(json.contains("\"rtt\": 2"), "{json}");
    }

    #[test]
    fn histogram_snapshot_fields() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = HistogramSnapshot::from(&h);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.sum, 5050);
        let mut reg = MetricsRegistry::new();
        reg.histogram("lat", &h);
        assert!(reg.to_json().contains("\"p99\""));
    }

    #[test]
    fn counters_prefix_registration() {
        let mut c = Counters::new();
        c.inc("classifier");
        c.add("policer", 4);
        let mut reg = MetricsRegistry::new();
        reg.counters("nic.drops", &c);
        assert_eq!(reg.counter_value("nic.drops.classifier"), Some(1));
        assert_eq!(reg.counter_value("nic.drops.policer"), Some(4));
    }

    #[test]
    fn snapshot_is_deterministic() {
        let mut a = MetricsRegistry::new();
        a.counter("b.x", 1);
        a.counter("a.y", 2);
        let mut b = MetricsRegistry::new();
        b.counter("a.y", 2);
        b.counter("b.x", 1);
        assert_eq!(a.to_json(), b.to_json());
    }
}
