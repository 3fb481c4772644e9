//! Packet-lifecycle tracing.
//!
//! A [`Tracer`] records typed, sim-timestamped events
//! ([`TraceEventKind`]) into a bounded ring buffer as packets move
//! through the simulated system: wire ingress, eSwitch verdict, doorbell
//! MMIO, WQE fetch, PCIe TLP, CQE write, accelerator delivery, Tx and
//! drops. The buffer exports to Chrome trace-event JSON
//! ([`Tracer::to_chrome_json_with_counters`]) loadable in Perfetto or
//! `chrome://tracing`, with one lane per pipeline stage.
//!
//! Tracing is switched at run time: [`Tracer::disabled`] records nothing
//! (one branch per event).
//!
//! [`StageLatencies`] complements the event log with aggregate per-stage
//! latency histograms whose per-packet deltas telescope, so the stage
//! sums reconstruct the end-to-end latency exactly.

use crate::json::JsonWriter;
use crate::stats::Histogram;
use crate::time::SimTime;

/// What happened to a packet at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Frame fully received from the wire at the NIC.
    PacketIngress,
    /// eSwitch classified the frame (steer to FLD, host, or drop).
    EswitchVerdict,
    /// FLD rang a doorbell (MMIO write to the NIC).
    DoorbellRing,
    /// NIC fetched a work-queue entry from FLD memory.
    WqeFetch,
    /// A PCIe TLP carrying packet data was posted on the fabric.
    TlpPosted,
    /// NIC wrote a completion-queue entry into FLD memory.
    CqeWrite,
    /// Packet payload handed to the accelerator core.
    AccelDeliver,
    /// Response frame serialized onto the wire.
    TxEmit,
    /// Packet dropped, with the reason.
    Drop {
        /// Why the packet was discarded (`"rx_ring_full"`, `"policer"`, …).
        reason: &'static str,
    },
}

impl TraceEventKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::PacketIngress => "packet_ingress",
            TraceEventKind::EswitchVerdict => "eswitch_verdict",
            TraceEventKind::DoorbellRing => "doorbell_ring",
            TraceEventKind::WqeFetch => "wqe_fetch",
            TraceEventKind::TlpPosted => "tlp_posted",
            TraceEventKind::CqeWrite => "cqe_write",
            TraceEventKind::AccelDeliver => "accel_deliver",
            TraceEventKind::TxEmit => "tx_emit",
            TraceEventKind::Drop { .. } => "drop",
        }
    }

    /// The trace lane ("thread") this event renders on: one per stage, in
    /// pipeline order.
    fn lane(&self) -> u64 {
        match self {
            TraceEventKind::PacketIngress => 0,
            TraceEventKind::EswitchVerdict => 1,
            TraceEventKind::DoorbellRing => 2,
            TraceEventKind::WqeFetch => 3,
            TraceEventKind::TlpPosted => 4,
            TraceEventKind::CqeWrite => 5,
            TraceEventKind::AccelDeliver => 6,
            TraceEventKind::TxEmit => 7,
            TraceEventKind::Drop { .. } => 8,
        }
    }
}

/// Lane metadata in pipeline order, matching [`TraceEventKind::lane`].
const LANE_NAMES: [&str; 9] = [
    "wire ingress",
    "eswitch",
    "doorbell",
    "wqe fetch",
    "pcie tlp",
    "cqe write",
    "accelerator",
    "tx emit",
    "drops",
];

/// One recorded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub ts: SimTime,
    /// The packet's simulation-wide id.
    pub packet: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

#[derive(Debug)]
struct Ring {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Next write position once the ring has wrapped.
    head: usize,
    /// Events overwritten after the ring filled.
    overwritten: u64,
}

impl Ring {
    fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Oldest-to-newest iteration.
    fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, linear) = self.events.split_at(self.head);
        linear.iter().chain(wrapped.iter())
    }
}

/// A bounded ring buffer of packet-lifecycle events.
///
/// When full, the oldest events are overwritten, so a long run keeps the
/// most recent window — the part worth looking at after an anomaly.
#[derive(Debug, Default)]
pub struct Tracer {
    ring: Option<Ring>,
}

impl Tracer {
    /// Creates a tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Creates a tracer keeping the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            ring: Some(Ring {
                events: Vec::with_capacity(capacity.min(1 << 20)),
                capacity: capacity.max(1),
                head: 0,
                overwritten: 0,
            }),
        }
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, ts: SimTime, packet: u64, kind: TraceEventKind) {
        if let Some(ring) = &mut self.ring {
            ring.record(TraceEvent { ts, packet, kind });
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.events.len())
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events lost to ring overwrite.
    pub fn overwritten(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.overwritten)
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring
            .as_ref()
            .map_or_else(Vec::new, |r| r.iter().copied().collect())
    }

    /// Exports the buffer as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in Perfetto and
    /// `chrome://tracing`.
    ///
    /// Each pipeline stage renders as one lane. A packet's time in a
    /// stage appears as a complete (`"X"`) event spanning from the
    /// previous lifecycle event to this one; drops render as instant
    /// (`"i"`) events.
    ///
    /// `counters` merges flight-recorder timelines into the same document
    /// as Perfetto counter tracks (`"ph":"C"`), so one Perfetto load shows
    /// packet-lifecycle lanes *and* queue/credit/utilization counters on
    /// the sim timebase. Each `(process name, timeline)` pair renders as
    /// its own process (pid 2, 3, …) with one counter track per series;
    /// pid 1 stays the packet pipeline.
    pub fn to_chrome_json_with_counters(
        &self,
        counters: &[(&str, &crate::probe::Timeline)],
    ) -> String {
        let events = self.events();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("displayTimeUnit", "ns");
        w.key("traceEvents");
        w.begin_array();
        // Lane names, via metadata events.
        w.begin_object();
        w.field_str("ph", "M");
        w.field_str("name", "process_name");
        w.field_u64("pid", 1);
        w.field_u64("tid", 0);
        w.key("args");
        w.begin_object();
        w.field_str("name", "fld-sim packet pipeline");
        w.end_object();
        w.end_object();
        for (lane, name) in LANE_NAMES.iter().enumerate() {
            w.begin_object();
            w.field_str("ph", "M");
            w.field_str("name", "thread_name");
            w.field_u64("pid", 1);
            w.field_u64("tid", lane as u64);
            w.key("args");
            w.begin_object();
            w.field_str("name", name);
            w.end_object();
            w.end_object();
        }
        // Previous event per packet, to turn point events into spans.
        let mut last: std::collections::HashMap<u64, SimTime> = std::collections::HashMap::new();
        for ev in &events {
            let ts_us = ev.ts.as_picos() as f64 / 1e6;
            let start = last.insert(ev.packet, ev.ts);
            w.begin_object();
            match ev.kind {
                TraceEventKind::Drop { reason } => {
                    w.field_str("ph", "i");
                    w.field_str("name", "drop");
                    w.field_str("s", "g");
                    w.field_f64("ts", ts_us);
                    w.field_u64("pid", 1);
                    w.field_u64("tid", ev.kind.lane());
                    w.key("args");
                    w.begin_object();
                    w.field_u64("packet", ev.packet);
                    w.field_str("reason", reason);
                    w.end_object();
                }
                kind => {
                    let span_start = start.unwrap_or(ev.ts);
                    let start_us = span_start.as_picos() as f64 / 1e6;
                    w.field_str("ph", "X");
                    w.field_str("name", kind.name());
                    w.field_f64("ts", start_us);
                    w.field_f64("dur", ts_us - start_us);
                    w.field_u64("pid", 1);
                    w.field_u64("tid", kind.lane());
                    w.key("args");
                    w.begin_object();
                    w.field_u64("packet", ev.packet);
                    w.end_object();
                }
            }
            w.end_object();
        }
        for (i, (process, timeline)) in counters.iter().enumerate() {
            timeline.write_counter_events(&mut w, 2 + i as u64, process);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Aggregate per-stage latency histograms with telescoping deltas.
///
/// Components record, per packet, the time spent in each pipeline stage
/// plus the packet's end-to-end latency. Because the per-packet stage
/// deltas telescope (each stage starts where the previous ended), the
/// sum of all stage histograms' [`Histogram::sum`] equals the end-to-end
/// histogram's sum exactly.
///
/// # Examples
///
/// ```
/// use fld_sim::trace::StageLatencies;
///
/// let mut s = StageLatencies::new();
/// s.record_stage("wire", 300);
/// s.record_stage("pcie", 700);
/// s.record_end_to_end(1000);
/// assert_eq!(s.stage_sum(), s.end_to_end().sum());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StageLatencies {
    /// `(stage name, latency histogram in ns)`, in first-record order.
    stages: Vec<(&'static str, Histogram)>,
    end_to_end: Histogram,
}

impl StageLatencies {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        StageLatencies::default()
    }

    /// Records `ns` spent in `stage` for one packet.
    pub fn record_stage(&mut self, stage: &'static str, ns: u64) {
        match self.stages.iter_mut().find(|(name, _)| *name == stage) {
            Some((_, h)) => h.record(ns),
            None => {
                let mut h = Histogram::new();
                h.record(ns);
                self.stages.push((stage, h));
            }
        }
    }

    /// Records one packet's full wire-to-wire latency.
    pub fn record_end_to_end(&mut self, ns: u64) {
        self.end_to_end.record(ns);
    }

    /// Stage histograms in pipeline (first-record) order.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.stages.iter().map(|(name, h)| (*name, h))
    }

    /// The end-to-end latency histogram.
    pub fn end_to_end(&self) -> &Histogram {
        &self.end_to_end
    }

    /// Exact total nanoseconds across all stage histograms.
    pub fn stage_sum(&self) -> u128 {
        self.stages.iter().map(|(_, h)| h.sum()).sum()
    }

    /// Registers all histograms under `prefix` (stages as
    /// `"{prefix}.stage.{name}"`, the total as `"{prefix}.end_to_end"`).
    pub fn export(&self, prefix: &str, registry: &mut crate::metrics::MetricsRegistry) {
        for (name, h) in &self.stages {
            registry.histogram(format!("{prefix}.stage.{name}"), h);
        }
        registry.histogram(format!("{prefix}.end_to_end"), &self.end_to_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        tr.record(t(1), 0, TraceEventKind::PacketIngress);
        assert!(tr.is_empty());
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut tr = Tracer::with_capacity(4);
        for i in 0..10u64 {
            tr.record(t(i), i, TraceEventKind::TxEmit);
        }
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.overwritten(), 6);
        let packets: Vec<u64> = tr.events().iter().map(|e| e.packet).collect();
        assert_eq!(packets, vec![6, 7, 8, 9]);
    }

    #[test]
    fn chrome_json_contains_spans_and_instants() {
        let mut tr = Tracer::with_capacity(64);
        tr.record(t(0), 7, TraceEventKind::PacketIngress);
        tr.record(t(100), 7, TraceEventKind::EswitchVerdict);
        tr.record(t(150), 8, TraceEventKind::Drop { reason: "policer" });
        let json = tr.to_chrome_json_with_counters(&[]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"eswitch_verdict\""));
        assert!(json.contains("\"reason\":\"policer\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn merged_export_adds_counter_tracks_without_touching_lanes() {
        let mut tr = Tracer::with_capacity(16);
        tr.record(t(0), 1, TraceEventKind::PacketIngress);
        tr.record(t(50), 1, TraceEventKind::TxEmit);

        let mut tl = crate::probe::Timeline::with_interval(SimDuration::from_micros(1));
        tl.sample(t(1000), &[("fld.rx_ring.occupancy", 0.5)]);
        let merged = tr.to_chrome_json_with_counters(&[("probes", &tl)]);
        assert!(merged.contains("\"ph\":\"C\""), "{merged}");
        assert!(merged.contains("\"fld.rx_ring.occupancy\""));
        assert!(merged.contains("\"ph\":\"X\"")); // lifecycle lanes intact
        assert!(merged.starts_with("{\"displayTimeUnit\""));
    }

    #[test]
    fn stage_sums_telescope() {
        let mut s = StageLatencies::new();
        for pkt in 0..100u64 {
            let a = 10 + pkt;
            let b = 20 + pkt * 2;
            s.record_stage("wire", a);
            s.record_stage("pcie", b);
            s.record_end_to_end(a + b);
        }
        assert_eq!(s.stage_sum(), s.end_to_end().sum());
        assert_eq!(s.stages().count(), 2);
    }
}
