//! Time-series probes: the sampling half of the flight recorder.
//!
//! A [`Timeline`] records named probe values (queue depths, credit counts,
//! link utilizations, token levels, …) at a fixed simulated-time interval
//! into compact per-series buffers. Components expose instantaneous
//! values; the system samples every probe at each tick, so all series
//! share one timebase and one run produces an aligned grid of
//! `(tick, series) -> value`.
//!
//! Series names follow the dotted metrics convention of
//! [`crate::metrics`] (`fld.rx_ring.occupancy`, `stage.pcie_rx.util`,
//! …), so a timeline sample and the end-of-run snapshot of the same
//! quantity carry the same name.
//!
//! Exports:
//!
//! * [`Timeline::to_json`] — a standalone timeline document;
//! * [`Timeline::to_csv`] — one row per tick, one column per series;
//! * [`Timeline::write_counter_events`] — Perfetto counter-track events
//!   (`"ph":"C"`) merged into a Chrome trace-event stream by
//!   [`crate::trace::Tracer::to_chrome_json_with_counters`], so one
//!   Perfetto load shows packet-lifecycle lanes *and* occupancy/credit
//!   tracks on the same timebase.
//!
//! Like [`crate::trace::Tracer`], a disabled timeline records nothing:
//! every recording call is one branch on an empty `Option`.
//!
//! [`BottleneckReport`] post-processes the sampled per-stage utilization
//! series into the number every performance argument needs: which stage
//! limited the run, and for what fraction of the time.

use crate::json::JsonWriter;
use crate::time::{SimDuration, SimTime};

/// One sampled series: a name plus the values recorded at each tick from
/// `first_tick` on.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Dotted probe name (`fld.rx_ring.occupancy`).
    pub name: String,
    /// Tick index of the first sample (series may register late).
    pub first_tick: u64,
    /// One value per tick since `first_tick`.
    pub values: Vec<f64>,
}

#[derive(Debug)]
struct TimelineInner {
    interval: SimDuration,
    /// Sim-time of tick 0 (set by the first sample).
    epoch: SimTime,
    ticks: u64,
    series: Vec<Series>,
    index: std::collections::HashMap<String, usize>,
    /// Series index per interned probe id of the engine's
    /// [`crate::engine::Probes`] buffer (`usize::MAX` until the id's
    /// first sample), so a steady-state tick hashes no names.
    by_probe: Vec<usize>,
}

impl TimelineInner {
    /// Opens the next tick at `now` and returns its index.
    fn begin_tick(&mut self, now: SimTime) -> u64 {
        if self.ticks == 0 {
            self.epoch = now;
        }
        self.ticks += 1;
        self.ticks - 1
    }

    /// The index of the series called `name`, created (first sampled at
    /// `tick`) on first appearance.
    fn series_index(&mut self, name: &str, tick: u64) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.series.len();
        self.index.insert(name.to_string(), i);
        self.series.push(Series {
            name: name.to_string(),
            first_tick: tick,
            values: Vec::new(),
        });
        i
    }

    fn record(&mut self, idx: usize, tick: u64, value: f64) {
        let s = &mut self.series[idx];
        // Pad any missed ticks with the last value, so
        // `first_tick + values.len() == ticks` holds for all
        // series after every sample.
        let expect = (tick - s.first_tick) as usize;
        while s.values.len() < expect {
            let last = s.values.last().copied().unwrap_or(0.0);
            s.values.push(last);
        }
        s.values.push(value);
    }
}

/// A fixed-interval sampler of named probes.
///
/// # Examples
///
/// ```
/// use fld_sim::probe::Timeline;
/// use fld_sim::time::{SimDuration, SimTime};
///
/// let mut t = Timeline::with_interval(SimDuration::from_micros(1));
/// t.sample(SimTime::from_micros(1), &[("q.depth", 3.0)]);
/// t.sample(SimTime::from_micros(2), &[("q.depth", 5.0)]);
/// assert_eq!(t.ticks(), 2);
/// ```
#[derive(Debug, Default)]
pub struct Timeline {
    inner: Option<TimelineInner>,
}

impl Timeline {
    /// Creates a timeline that records nothing.
    pub fn disabled() -> Self {
        Timeline::default()
    }

    /// Creates a timeline sampling every `interval` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_interval(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sample interval must be positive");
        Timeline {
            inner: Some(TimelineInner {
                interval,
                epoch: SimTime::ZERO,
                ticks: 0,
                series: Vec::new(),
                index: std::collections::HashMap::new(),
                by_probe: Vec::new(),
            }),
        }
    }

    /// Whether samples are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The sampling interval (zero when disabled).
    pub fn interval(&self) -> SimDuration {
        self.inner
            .as_ref()
            .map_or(SimDuration::ZERO, |i| i.interval)
    }

    /// Number of ticks sampled so far.
    pub fn ticks(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ticks)
    }

    /// Records one tick: every probe's `(name, value)` at sim-time `now`.
    ///
    /// Series are created on first appearance; a series absent from a
    /// tick is padded with its previous value so the grid stays aligned.
    /// No-op when disabled.
    pub fn sample(&mut self, now: SimTime, entries: &[(&str, f64)]) {
        if let Some(inner) = &mut self.inner {
            let tick = inner.begin_tick(now);
            for &(name, value) in entries {
                let idx = inner.series_index(name, tick);
                inner.record(idx, tick, value);
            }
        }
    }

    /// [`Timeline::sample`] for the engine's probe buffer: `entries`
    /// carry ids interned in `names`, and the id → series mapping is
    /// remembered, so only an id's first sample looks its name up. All
    /// calls on one timeline must come from the same buffer.
    pub(crate) fn sample_interned(
        &mut self,
        now: SimTime,
        names: &[Box<str>],
        entries: &[(u32, f64)],
    ) {
        if let Some(inner) = &mut self.inner {
            let tick = inner.begin_tick(now);
            for &(id, value) in entries {
                let id = id as usize;
                if inner.by_probe.len() <= id {
                    inner.by_probe.resize(id + 1, usize::MAX);
                }
                if inner.by_probe[id] == usize::MAX {
                    inner.by_probe[id] = inner.series_index(&names[id], tick);
                }
                inner.record(inner.by_probe[id], tick, value);
            }
        }
    }

    /// The recorded series (empty when disabled).
    pub fn series(&self) -> &[Series] {
        self.inner.as_ref().map_or(&[], |i| &i.series)
    }

    /// Looks up one series by name.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series().iter().find(|s| s.name == name)
    }

    /// The sim-time of tick `i`.
    pub fn tick_time(&self, i: u64) -> SimTime {
        self.inner.as_ref().map_or(SimTime::ZERO, |inner| {
            inner.epoch + mul_interval(inner.interval, i)
        })
    }

    /// Serializes the timeline as a standalone JSON document:
    /// `{"schema_version", "interval_ns", "epoch_ns", "ticks",
    /// "series": {name: {...}}}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("schema_version", crate::json::SCHEMA_VERSION);
        w.field_u64("interval_ns", self.interval().as_nanos());
        w.field_u64("epoch_ns", self.tick_time(0).as_nanos());
        w.field_u64("ticks", self.ticks());
        w.key("series");
        w.begin_object();
        for s in self.series() {
            w.key(&s.name);
            w.begin_object();
            w.field_u64("first_tick", s.first_tick);
            w.key("values");
            w.begin_array();
            for v in &s.values {
                w.f64(*v);
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// Serializes the timeline as CSV: a `t_ns` column plus one column
    /// per series, one row per tick. Ticks before a series' first sample
    /// render as empty cells.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ns");
        for s in self.series() {
            out.push(',');
            out.push_str(&s.name);
        }
        out.push('\n');
        for tick in 0..self.ticks() {
            out.push_str(&self.tick_time(tick).as_nanos().to_string());
            for s in self.series() {
                out.push(',');
                if tick >= s.first_tick {
                    if let Some(v) = s.values.get((tick - s.first_tick) as usize) {
                        out.push_str(&format!("{v}"));
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes the timeline as Perfetto counter-track events into an open
    /// Chrome trace-event array: one `process_name` metadata record for
    /// `pid`, then a `"ph":"C"` event per series per tick. Each distinct
    /// `(pid, series name)` renders as one counter track in Perfetto.
    pub fn write_counter_events(&self, w: &mut JsonWriter, pid: u64, process: &str) {
        if self.ticks() == 0 {
            return;
        }
        w.begin_object();
        w.field_str("ph", "M");
        w.field_str("name", "process_name");
        w.field_u64("pid", pid);
        w.field_u64("tid", 0);
        w.key("args");
        w.begin_object();
        w.field_str("name", process);
        w.end_object();
        w.end_object();
        for s in self.series() {
            for (i, v) in s.values.iter().enumerate() {
                let ts_us = self.tick_time(s.first_tick + i as u64).as_picos() as f64 / 1e6;
                w.begin_object();
                w.field_str("ph", "C");
                w.field_str("name", &s.name);
                w.field_u64("pid", pid);
                w.field_f64("ts", ts_us);
                w.key("args");
                w.begin_object();
                w.field_f64("value", *v);
                w.end_object();
                w.end_object();
            }
        }
    }
}

fn mul_interval(interval: SimDuration, n: u64) -> SimDuration {
    SimDuration::from_picos(interval.as_picos().saturating_mul(n))
}

/// Which stage limited each sampled window, derived from per-window
/// utilization series (values in `0..=1`).
///
/// A window is *saturated* when its most-utilized stage is at or above
/// the threshold; that stage is charged with the window. The per-stage
/// "limiting fraction" — saturated windows charged to the stage divided
/// by all saturated windows — is the headline attribution number.
#[derive(Debug, Clone)]
pub struct BottleneckReport {
    /// Saturation threshold applied to the per-window winner.
    pub threshold: f64,
    /// Total windows examined.
    pub windows: u64,
    /// Windows where some stage reached the threshold.
    pub saturated: u64,
    /// `(stage label, saturated windows charged to it)`, input order.
    pub stages: Vec<(String, u64)>,
}

impl BottleneckReport {
    /// Attributes each sampled window of `timeline` to the stage with the
    /// highest utilization, over `stages = [(label, series name)]`.
    ///
    /// Missing series (or ticks before a series' first sample) count as
    /// utilization 0 for that stage.
    pub fn from_timeline(
        timeline: &Timeline,
        stages: &[(&str, &str)],
        threshold: f64,
    ) -> BottleneckReport {
        let mut counts = vec![0u64; stages.len()];
        let mut saturated = 0u64;
        let series: Vec<Option<&Series>> =
            stages.iter().map(|(_, name)| timeline.get(name)).collect();
        let windows = timeline.ticks();
        for tick in 0..windows {
            let mut best = 0usize;
            let mut best_util = f64::MIN;
            for (i, s) in series.iter().enumerate() {
                let util = s
                    .and_then(|s| {
                        tick.checked_sub(s.first_tick)
                            .and_then(|o| s.values.get(o as usize))
                    })
                    .copied()
                    .unwrap_or(0.0);
                if util > best_util {
                    best_util = util;
                    best = i;
                }
            }
            if best_util >= threshold {
                counts[best] += 1;
                saturated += 1;
            }
        }
        BottleneckReport {
            threshold,
            windows,
            saturated,
            stages: stages
                .iter()
                .zip(counts)
                .map(|((label, _), n)| ((*label).to_string(), n))
                .collect(),
        }
    }

    /// Fraction of saturated windows charged to `stage` (0 when no window
    /// saturated, so the result is always finite).
    pub fn limiting_fraction(&self, stage: &str) -> f64 {
        if self.saturated == 0 {
            return 0.0;
        }
        self.stages
            .iter()
            .find(|(label, _)| label == stage)
            .map_or(0.0, |(_, n)| *n as f64 / self.saturated as f64)
    }

    /// Registers the attribution under `prefix`
    /// (`"{prefix}.windows"`, `"{prefix}.stage.{label}.fraction"`, …).
    pub fn export(&self, prefix: &str, registry: &mut crate::metrics::MetricsRegistry) {
        registry.counter(format!("{prefix}.windows"), self.windows);
        registry.counter(format!("{prefix}.saturated"), self.saturated);
        for (label, n) in &self.stages {
            registry.counter(format!("{prefix}.stage.{label}.windows"), *n);
            registry.gauge(
                format!("{prefix}.stage.{label}.fraction"),
                self.limiting_fraction(label),
            );
        }
    }
}

impl std::fmt::Display for BottleneckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "bottleneck attribution: {}/{} windows saturated (threshold {:.2})",
            self.saturated, self.windows, self.threshold
        )?;
        for (label, n) in &self.stages {
            writeln!(
                f,
                "  {label:10} {n:8} windows  {:5.1}%",
                self.limiting_fraction(label) * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let mut tl = Timeline::disabled();
        tl.sample(t(1), &[("a", 1.0)]);
        assert!(!tl.is_enabled());
        assert_eq!(tl.ticks(), 0);
        assert!(tl.series().is_empty());
    }

    #[test]
    fn samples_align_on_shared_ticks() {
        let mut tl = Timeline::with_interval(SimDuration::from_micros(1));
        tl.sample(t(1), &[("a", 1.0), ("b", 10.0)]);
        tl.sample(t(2), &[("a", 2.0), ("b", 20.0)]);
        assert_eq!(tl.ticks(), 2);
        assert_eq!(tl.get("a").unwrap().values, vec![1.0, 2.0]);
        assert_eq!(tl.get("b").unwrap().values, vec![10.0, 20.0]);
        assert_eq!(tl.tick_time(1), t(2));
    }

    #[test]
    fn late_series_records_first_tick() {
        let mut tl = Timeline::with_interval(SimDuration::from_micros(1));
        tl.sample(t(1), &[("a", 1.0)]);
        tl.sample(t(2), &[("a", 2.0), ("late", 7.0)]);
        let late = tl.get("late").unwrap();
        assert_eq!(late.first_tick, 1);
        assert_eq!(late.values, vec![7.0]);
    }

    #[test]
    fn missed_ticks_pad_with_last_value() {
        let mut tl = Timeline::with_interval(SimDuration::from_micros(1));
        tl.sample(t(1), &[("a", 1.0), ("b", 5.0)]);
        tl.sample(t(2), &[("a", 2.0)]); // b missing this tick
        tl.sample(t(3), &[("a", 3.0), ("b", 6.0)]);
        assert_eq!(tl.get("b").unwrap().values, vec![5.0, 5.0, 6.0]);
    }

    #[test]
    fn exports_are_well_formed() {
        let mut tl = Timeline::with_interval(SimDuration::from_micros(1));
        tl.sample(t(1), &[("q.depth", 0.5)]);
        tl.sample(t(2), &[("q.depth", 0.75)]);
        let json = tl.to_json();
        assert!(json.contains("\"interval_ns\":1000"), "{json}");
        assert!(json.contains("\"q.depth\""));
        assert!(json.contains("0.75"));
        let csv = tl.to_csv();
        assert!(csv.starts_with("t_ns,q.depth\n"));
        assert!(csv.contains("1000,0.5\n"));
        assert!(csv.contains("2000,0.75\n"));
    }

    #[test]
    fn counter_events_render_per_series() {
        let mut tl = Timeline::with_interval(SimDuration::from_micros(1));
        tl.sample(t(1), &[("occ", 0.25)]);
        let mut w = JsonWriter::new();
        w.begin_array();
        tl.write_counter_events(&mut w, 2, "probes");
        w.end_array();
        let json = w.finish();
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"name\":\"occ\""));
        assert!(json.contains("\"value\":0.25"));
    }

    #[test]
    fn empty_timeline_exports_do_not_divide_by_zero() {
        let tl = Timeline::disabled();
        assert_eq!(tl.to_csv(), "t_ns\n");
        assert!(tl.to_json().contains("\"ticks\":0"));
        let report = BottleneckReport::from_timeline(&tl, &[("pcie", "x")], 0.9);
        assert_eq!(report.saturated, 0);
        assert_eq!(report.limiting_fraction("pcie"), 0.0);
    }

    #[test]
    fn bottleneck_attributes_the_hottest_stage() {
        let mut tl = Timeline::with_interval(SimDuration::from_micros(1));
        // 3 windows pcie-bound, 1 window accel-bound, 1 idle.
        for (pcie, accel) in [
            (0.99, 0.4),
            (0.95, 0.5),
            (0.97, 0.2),
            (0.3, 0.92),
            (0.1, 0.2),
        ] {
            tl.sample(
                t(tl.ticks() + 1),
                &[("stage.pcie.util", pcie), ("stage.accel.util", accel)],
            );
        }
        let r = BottleneckReport::from_timeline(
            &tl,
            &[("pcie", "stage.pcie.util"), ("accel", "stage.accel.util")],
            0.9,
        );
        assert_eq!(r.windows, 5);
        assert_eq!(r.saturated, 4);
        assert!((r.limiting_fraction("pcie") - 0.75).abs() < 1e-9);
        assert!((r.limiting_fraction("accel") - 0.25).abs() < 1e-9);
        let text = format!("{r}");
        assert!(text.contains("pcie"));
    }
}
