//! The shared simulation engine: calendar loop, flight-recorder ticks and
//! run-lifecycle bookkeeping, factored out of the per-system simulators.
//!
//! Historically each end-to-end simulator (`FldSystem`, `RdmaSystem` in
//! `fld-core`) owned a private event calendar and re-implemented the same
//! run machinery: the warmup/deadline loop, drained-vs-truncated
//! semantics, the `Sample` flight-recorder tick with its re-arm rule,
//! auditor orchestration, and the metrics/timeline collection at end of
//! run. [`Engine`] owns all of that once. A simulator implements
//! [`Model`] — typed event dispatch plus the probe/audit/export hooks —
//! and calls [`Engine::run`]; its hooks call the probe, audit and export
//! methods of the rings, links, shapers and QPs it embeds.
//!
//! The engine preserves the exact event ordering of the pre-refactor
//! systems: [`Model::start`] schedules the model's seed events first,
//! then (when the flight recorder is enabled) the engine schedules its
//! first sample tick, so event sequence numbers — and therefore every
//! tie-break in the calendar — are unchanged.
//!
//! # Examples
//!
//! ```
//! use fld_sim::engine::{Engine, Model, Probes};
//! use fld_sim::audit::Auditor;
//! use fld_sim::metrics::MetricsRegistry;
//! use fld_sim::probe::Timeline;
//! use fld_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! #[derive(Default)]
//! struct Counter { fired: u64 }
//!
//! impl Model for Counter {
//!     type Ev = Ev;
//!     fn start(&mut self, eng: &mut Engine<Ev>) {
//!         eng.schedule_at(SimTime::ZERO, Ev::Tick(0));
//!     }
//!     fn handle(&mut self, now: SimTime, ev: Ev, eng: &mut Engine<Ev>) {
//!         let Ev::Tick(n) = ev;
//!         self.fired += 1;
//!         if n < 9 {
//!             eng.schedule_at(now + SimDuration::from_nanos(10), Ev::Tick(n + 1));
//!         }
//!     }
//!     fn probes(&mut self, _: SimTime, _: SimDuration, out: &mut Probes) {
//!         out.push("counter.fired", self.fired as f64);
//!     }
//!     fn audit(&mut self, _: SimTime, _: &mut Auditor) {}
//!     fn export_metrics(&mut self, _: SimTime, _: &Timeline, m: &mut MetricsRegistry) {
//!         m.counter("counter.fired", self.fired);
//!     }
//! }
//!
//! let engine = Engine::new(Timeline::disabled(), Auditor::new(), SimDuration::from_nanos(100));
//! let mut model = Counter::default();
//! let done = engine.run(&mut model, SimTime::from_micros(1));
//! assert!(done.drained);
//! assert_eq!(model.fired, 10);
//! ```

use crate::audit::{AuditReport, Auditor};
use crate::metrics::MetricsRegistry;
use crate::probe::Timeline;
use crate::prof::{Profile, Profiler};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Internal calendar entry: either a model event or the engine's own
/// flight-recorder sample tick.
#[derive(Debug)]
enum EngineEv<E> {
    Model(E),
    Sample,
}

/// A probe buffer filled by [`Model::probes`] each flight-recorder tick,
/// then flushed into the run's [`Timeline`] by the engine.
///
/// Probe names follow the dotted metrics convention
/// (`fld.rx_ring.occupancy`, `stage.pcie_rx.util`). Push order is
/// preserved — it determines timeline series order and therefore the
/// column order of CSV exports and golden timeline files.
/// Names are interned on first push: the set of probe names is small
/// and fixed per run, so subsequent ticks push a `(u32 id, f64)` pair
/// with no `String` allocation, and the entry buffer is reused tick
/// after tick.
#[derive(Debug, Default)]
pub struct Probes {
    names: Vec<Box<str>>,
    /// `[..filled]` is this tick's pushes; whatever lies beyond is the
    /// previous tick's, kept as the positional hint for this one.
    entries: Vec<(u32, f64)>,
    filled: usize,
}

impl Probes {
    /// Appends one probe value.
    pub fn push(&mut self, name: impl AsRef<str>, value: f64) {
        let name = name.as_ref();
        self.record(|n| n == name, || name.into(), value);
    }

    /// Appends one probe value under the name `"{scope}.{leaf}"`
    /// without building the string on the (steady-state) path where
    /// it is already interned. Components sampling per-instance probes
    /// (`"{name}.rx_ring.occupancy"`) use this instead of `format!`.
    pub fn push_scoped(&mut self, scope: &str, leaf: &str, value: f64) {
        self.record(
            |n| {
                n.len() == scope.len() + 1 + leaf.len()
                    && n.as_bytes()[scope.len()] == b'.'
                    && n[..scope.len()] == *scope
                    && n[scope.len() + 1..] == *leaf
            },
            || format!("{scope}.{leaf}").into_boxed_str(),
            value,
        );
    }

    /// Records `value` under the name matching `matches` (`make()` when
    /// it has to be interned). Models push in a fixed order, so the k-th
    /// push of a tick almost always carries the k-th name of the
    /// previous tick: that one comparison is tried first, and only a
    /// changed probe set falls back to scanning the interned names.
    fn record(
        &mut self,
        matches: impl Fn(&str) -> bool,
        make: impl FnOnce() -> Box<str>,
        value: f64,
    ) {
        if let Some(slot) = self.entries.get_mut(self.filled) {
            if matches(&self.names[slot.0 as usize]) {
                slot.1 = value;
                self.filled += 1;
                return;
            }
        }
        let id = match self.names.iter().position(|n| matches(n)) {
            Some(i) => i,
            None => {
                self.names.push(make());
                self.names.len() - 1
            }
        };
        self.entries.truncate(self.filled);
        self.entries.push((id as u32, value));
        self.filled += 1;
    }

    /// Flushes the buffered probes into `timeline` as one tick at `now`
    /// and starts the next tick's buffer.
    fn sample_into(&mut self, now: SimTime, timeline: &mut Timeline) {
        timeline.sample_interned(now, &self.names, &self.entries[..self.filled]);
        self.filled = 0;
    }
}

/// The scheduling surface event handlers need: the current simulated
/// time plus the ability to enqueue further events of their own type.
///
/// [`Engine`] implements it directly, so a standalone system's handlers
/// taking `&mut impl Scheduler<Ev>` monomorphize to exactly the old
/// `&mut Engine<Ev>` code. Composite models (a rack of per-node systems)
/// implement it with an adapter that wraps each node event into the
/// composite's own event type before scheduling it on the shared engine —
/// per-node handlers run unchanged whether the node is the top-level
/// simulation or one of many behind a fabric.
pub trait Scheduler<E> {
    /// The current simulated time (time of the event being handled).
    fn now(&self) -> SimTime;

    /// Schedules an event at the absolute instant `at`.
    fn schedule_at(&mut self, at: SimTime, ev: E);

    /// Schedules an event `delay` after the current time.
    fn schedule_in(&mut self, delay: SimDuration, ev: E) {
        self.schedule_at(self.now() + delay, ev);
    }
}

impl<E> Scheduler<E> for Engine<E> {
    fn now(&self) -> SimTime {
        Engine::now(self)
    }

    fn schedule_at(&mut self, at: SimTime, ev: E) {
        Engine::schedule_at(self, at, ev);
    }

    fn schedule_in(&mut self, delay: SimDuration, ev: E) {
        Engine::schedule_in(self, delay, ev);
    }
}

/// A simulated system driven by an [`Engine`]: typed event dispatch plus
/// the lifecycle hooks the engine calls around the calendar loop.
pub trait Model {
    /// The model's event type.
    type Ev;

    /// Schedules the model's seed events (traffic generators, timers).
    /// Called once before the loop; the engine schedules its first
    /// flight-recorder tick *after* this, preserving event sequence
    /// numbers relative to the pre-engine systems.
    fn start(&mut self, eng: &mut Engine<Self::Ev>);

    /// Dispatches one model event at simulated time `now`.
    fn handle(&mut self, now: SimTime, ev: Self::Ev, eng: &mut Engine<Self::Ev>);

    /// A static label naming `ev`'s kind (typically its enum variant
    /// name). The self-profiler attributes dispatch time per kind under
    /// `dispatch.<label>`; models that don't override this profile as
    /// one flat `dispatch.event` phase. Never called unless a profiled
    /// run is active.
    fn event_label(ev: &Self::Ev) -> &'static str {
        let _ = ev;
        "event"
    }

    /// How many FIFO lanes the calendar keeps for this model's events
    /// (see [`crate::queue`]): one per event *kind* whose timestamps are
    /// scheduled in order or nearly so — a ring, a serialising link, a
    /// fixed latency. The calendar looks at every lane head on each pop,
    /// so many instances of a component share their kinds' lanes rather
    /// than declaring their own. The default declares none: every event
    /// is ordered by the calendar's heap.
    fn lanes() -> usize {
        0
    }

    /// The lane `ev` belongs to, in `0..Self::lanes()`; the default,
    /// `usize::MAX`, names none and leaves the event to the heap. A
    /// lane is only a hint — the pop order is the same whatever this
    /// returns — so all a wrong answer can cost is host time.
    fn lane(ev: &Self::Ev) -> usize {
        let _ = ev;
        usize::MAX
    }

    /// Pushes one flight-recorder tick's probe values. Push order fixes
    /// the timeline series order.
    fn probes(&mut self, now: SimTime, interval: SimDuration, out: &mut Probes);

    /// Evaluates invariants; called at every flight-recorder tick and
    /// once more at end of run.
    fn audit(&mut self, at: SimTime, auditor: &mut Auditor);

    /// Extra invariants that only hold when the run drained (e.g. exact
    /// end-to-end packet conservation). Called after the final
    /// [`Model::audit`], only for drained runs.
    fn drained_audit(&mut self, at: SimTime, auditor: &mut Auditor) {
        let _ = (at, auditor);
    }

    /// Finalizes run-scoped state (rate meters, sorted breakdowns)
    /// before metrics export.
    fn finish(&mut self, end: SimTime, drained: bool) {
        let _ = (end, drained);
    }

    /// Registers the model's end-of-run metrics. The engine itself adds
    /// the audit summary, flight-recorder tick count and event total
    /// after this hook.
    fn export_metrics(&mut self, end: SimTime, timeline: &Timeline, registry: &mut MetricsRegistry);
}

/// Everything an [`Engine::run`] produces besides the model's own state.
#[derive(Debug)]
pub struct Completed {
    /// Simulated time of the last handled event (the deadline for
    /// truncated runs).
    pub end: SimTime,
    /// Whether the calendar drained before the deadline.
    pub drained: bool,
    /// The end-of-run invariant audit.
    pub audit: AuditReport,
    /// The end-of-run metrics snapshot.
    pub metrics: MetricsRegistry,
    /// The flight-recorder timeline (disabled ⇒ empty).
    pub timeline: Timeline,
    /// Total events scheduled over the run (model + sample ticks).
    pub events: u64,
    /// The run's self-profile (host-time/allocation attribution).
    /// Inert — `enabled == false`, all zeros — unless
    /// [`crate::prof::set_enabled`] armed the running thread when the
    /// run started.
    pub profile: Profile,
}

/// The shared calendar loop and run lifecycle (see the module docs).
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<EngineEv<E>>,
    timeline: Timeline,
    auditor: Auditor,
    sample_interval: SimDuration,
    probes: Probes,
    sample_rearms: u64,
    /// [`Model::lane`] of the model being run (installed by
    /// [`Engine::run`]; until then every event is unlaned).
    lane_of: fn(&E) -> usize,
}

impl<E> Engine<E> {
    /// Creates an engine. `timeline` enables per-tick flight-recorder
    /// sampling when constructed with an interval; `sample_interval` is
    /// the tick spacing.
    pub fn new(timeline: Timeline, auditor: Auditor, sample_interval: SimDuration) -> Self {
        Engine {
            queue: EventQueue::new(),
            timeline,
            auditor,
            sample_interval,
            probes: Probes::default(),
            sample_rearms: 0,
            lane_of: |_| usize::MAX,
        }
    }

    /// The current simulated time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedules a model event at the absolute instant `at`.
    pub fn schedule_at(&mut self, at: SimTime, ev: E) {
        let lane = (self.lane_of)(&ev);
        self.queue.schedule_at_lane(at, lane, EngineEv::Model(ev));
    }

    /// Schedules a model event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, ev: E) {
        self.schedule_at(self.now() + delay, ev);
    }

    /// Runs `model` until the calendar drains or an event lands past
    /// `deadline` (truncated), then drives the end-of-run lifecycle:
    /// [`Model::finish`], the final audit, and metrics export. Warmup
    /// handling (when measurement starts) stays with the model — it is a
    /// measurement concern, not a loop concern.
    pub fn run<M: Model<Ev = E>>(mut self, model: &mut M, deadline: SimTime) -> Completed {
        // The profiler chains phase boundaries: each `phase(..)` call
        // attributes the wall time since the previous boundary, so the
        // phases exactly tile the run (the telescoping invariant the
        // profile's `fractions_sum` checks). Every hook is inert — an
        // inlined `Option` check — unless `prof::set_enabled` armed
        // this thread before this run started.
        let mut profiler = Profiler::start();
        // The engine's own sample ticks are a strictly increasing
        // stream: they get the lane one past the model's.
        let sample_lane = M::lanes();
        self.queue.set_lanes(sample_lane + 1);
        self.lane_of = M::lane;
        model.start(&mut self);
        if self.timeline.is_enabled() {
            self.queue.schedule_at_lane(
                SimTime::ZERO + self.sample_interval,
                sample_lane,
                EngineEv::Sample,
            );
        }
        profiler.phase("start");
        let mut end = SimTime::ZERO;
        let mut drained = true;
        while let Some((now, ev)) = self.queue.pop() {
            if now > deadline {
                end = deadline;
                drained = false;
                break;
            }
            end = now;
            profiler.phase("pop");
            match ev {
                EngineEv::Model(e) => {
                    if profiler.is_enabled() {
                        let label = M::event_label(&e);
                        model.handle(now, e, &mut self);
                        profiler.phase_sub("dispatch", label);
                    } else {
                        model.handle(now, e, &mut self);
                    }
                }
                EngineEv::Sample => {
                    let mut probes = std::mem::take(&mut self.probes);
                    model.probes(now, self.sample_interval, &mut probes);
                    // Sim-vs-host speed over the last sampling window; a
                    // timeline series only when profiling, so golden
                    // timelines are unchanged by the hooks alone.
                    if let Some(ratio) = profiler.sample_speed_ratio(self.sample_interval) {
                        probes.push("prof.speed_ratio", ratio);
                    }
                    probes.sample_into(now, &mut self.timeline);
                    self.probes = probes;
                    profiler.phase("sample.probes");
                    model.audit(now, &mut self.auditor);
                    profiler.phase("sample.audit");
                    // Keep sampling only while the simulation is alive.
                    // The re-arm is calendar work (a push can grow the
                    // tick lane), so it is attributed apart from the
                    // audit it follows.
                    if !self.queue.is_empty() {
                        self.queue.schedule_at_lane(
                            now + self.sample_interval,
                            sample_lane,
                            EngineEv::Sample,
                        );
                        self.sample_rearms += 1;
                    }
                    profiler.phase("sample.rearm");
                }
            }
        }
        model.finish(end, drained);
        model.audit(end, &mut self.auditor);
        if drained {
            model.drained_audit(end, &mut self.auditor);
        }
        profiler.phase("finish");
        let audit = self.auditor.report();
        let mut metrics = MetricsRegistry::new();
        model.export_metrics(end, &self.timeline, &mut metrics);
        audit.export("audit", &mut metrics);
        if self.timeline.is_enabled() {
            metrics.counter("timeline.ticks", self.timeline.ticks());
        }
        let events = self.queue.scheduled_total();
        metrics.counter("engine.events", events);
        profiler.phase("export");
        let mut calendar = self.queue.calendar_stats();
        calendar.sample_rearms = self.sample_rearms;
        let profile = profiler.finish(end.as_nanos(), events, calendar);
        if profile.enabled {
            profile.export("prof", &mut metrics);
        }
        Completed {
            end,
            drained,
            audit,
            metrics,
            timeline: self.timeline,
            events,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    enum Ev {
        Ping(u32),
    }

    #[derive(Default)]
    struct Pinger {
        handled: u64,
        finish_calls: u64,
        audits: u64,
        drained_audits: u64,
        stop_at: u32,
    }

    impl Model for Pinger {
        type Ev = Ev;
        fn start(&mut self, eng: &mut Engine<Ev>) {
            eng.schedule_at(SimTime::ZERO, Ev::Ping(0));
        }
        fn handle(&mut self, now: SimTime, ev: Ev, eng: &mut Engine<Ev>) {
            let Ev::Ping(n) = ev;
            self.handled += 1;
            if n + 1 < self.stop_at {
                eng.schedule_at(now + SimDuration::from_nanos(100), Ev::Ping(n + 1));
            }
        }
        fn event_label(ev: &Ev) -> &'static str {
            let Ev::Ping(_) = ev;
            "Ping"
        }
        fn lanes() -> usize {
            1
        }
        fn lane(ev: &Ev) -> usize {
            let Ev::Ping(_) = ev;
            0
        }
        fn probes(&mut self, _now: SimTime, _interval: SimDuration, out: &mut Probes) {
            out.push("pinger.handled", self.handled as f64);
        }
        fn audit(&mut self, at: SimTime, auditor: &mut Auditor) {
            self.audits += 1;
            auditor.check(at, "pinger", "conservation", true, String::new);
        }
        fn drained_audit(&mut self, _at: SimTime, _auditor: &mut Auditor) {
            self.drained_audits += 1;
        }
        fn finish(&mut self, _end: SimTime, _drained: bool) {
            self.finish_calls += 1;
        }
        fn export_metrics(&mut self, _end: SimTime, _tl: &Timeline, m: &mut MetricsRegistry) {
            m.counter("pinger.handled", self.handled);
        }
    }

    #[test]
    fn drains_and_runs_lifecycle_hooks() {
        let eng = Engine::new(
            Timeline::disabled(),
            Auditor::new(),
            SimDuration::from_nanos(50),
        );
        let mut model = Pinger {
            stop_at: 5,
            ..Pinger::default()
        };
        let done = eng.run(&mut model, SimTime::from_micros(10));
        assert!(done.drained);
        assert_eq!(done.end, SimTime::from_nanos(400));
        assert_eq!(model.handled, 5);
        assert_eq!(model.finish_calls, 1);
        assert_eq!(model.audits, 1); // end-of-run only: recorder disabled
        assert_eq!(model.drained_audits, 1);
        assert_eq!(done.events, 5);
        assert!(done.audit.passed());
    }

    #[test]
    fn deadline_truncates_and_skips_drained_audit() {
        let eng = Engine::new(
            Timeline::disabled(),
            Auditor::new(),
            SimDuration::from_nanos(50),
        );
        let mut model = Pinger {
            stop_at: 100,
            ..Pinger::default()
        };
        let done = eng.run(&mut model, SimTime::from_nanos(250));
        assert!(!done.drained);
        assert_eq!(done.end, SimTime::from_nanos(250));
        // Events at 0, 100, 200 ran; 300 crossed the deadline.
        assert_eq!(model.handled, 3);
        assert_eq!(model.drained_audits, 0);
        assert_eq!(model.finish_calls, 1);
    }

    #[test]
    fn sample_ticks_fill_the_timeline_and_rearm_while_alive() {
        let eng = Engine::new(
            Timeline::with_interval(SimDuration::from_nanos(100)),
            Auditor::new(),
            SimDuration::from_nanos(100),
        );
        let mut model = Pinger {
            stop_at: 5,
            ..Pinger::default()
        };
        let done = eng.run(&mut model, SimTime::from_micros(10));
        assert!(done.drained);
        let series = done.timeline.get("pinger.handled").unwrap();
        // Ticks at 100..400 ns interleave with pings at 0..400 ns; the
        // tick after the final ping finds an empty calendar and stops.
        assert_eq!(series.values.len() as u64, done.timeline.ticks());
        assert!(done.timeline.ticks() >= 4);
        // Per-tick audits plus the end-of-run audit.
        assert_eq!(model.audits, done.timeline.ticks() + 1);
    }

    #[test]
    fn engine_adds_audit_and_event_metrics() {
        let eng = Engine::new(
            Timeline::disabled(),
            Auditor::new(),
            SimDuration::from_nanos(50),
        );
        let mut model = Pinger {
            stop_at: 2,
            ..Pinger::default()
        };
        let done = eng.run(&mut model, SimTime::from_micros(1));
        assert!(done.metrics.counter_value("audit.checks").is_some());
        assert_eq!(done.metrics.counter_value("engine.events"), Some(2));
        assert_eq!(done.metrics.counter_value("pinger.handled"), Some(2));
    }

    #[test]
    fn unprofiled_run_yields_inert_profile() {
        let eng = Engine::new(
            Timeline::disabled(),
            Auditor::new(),
            SimDuration::from_nanos(50),
        );
        let mut model = Pinger {
            stop_at: 3,
            ..Pinger::default()
        };
        let done = eng.run(&mut model, SimTime::from_micros(1));
        assert!(!done.profile.enabled);
        assert!(done.profile.phases.is_empty());
        assert!(done.metrics.counter_value("prof.wall_ns").is_none());
    }

    #[test]
    fn profiled_run_attributes_phases_and_calendar() {
        crate::prof::set_enabled(true);
        let eng = Engine::new(
            Timeline::with_interval(SimDuration::from_nanos(100)),
            Auditor::new(),
            SimDuration::from_nanos(100),
        );
        let mut model = Pinger {
            stop_at: 50,
            ..Pinger::default()
        };
        let done = eng.run(&mut model, SimTime::from_micros(10));
        let p = &done.profile;
        assert!(p.enabled);
        assert!(done.drained);
        assert_eq!(p.runs, 1);
        assert_eq!(p.events, done.events);
        assert_eq!(p.sim_ns, done.end.as_nanos());
        let names: Vec<&str> = p.phases.iter().map(|s| s.name.as_str()).collect();
        for want in [
            "start",
            "pop",
            "dispatch.Ping",
            "sample.probes",
            "sample.audit",
            "sample.rearm",
            "finish",
            "export",
        ] {
            assert!(names.contains(&want), "missing phase {want} in {names:?}");
        }
        let dispatch = p.phases.iter().find(|s| s.name == "dispatch.Ping").unwrap();
        assert_eq!(dispatch.calls, 50);
        // Telescoping: phases tile the run's wall time.
        assert!(
            (p.fractions_sum() - 1.0).abs() < 0.02,
            "fractions sum {}",
            p.fractions_sum()
        );
        // Calendar behavior: every event pushed was popped (drained run),
        // and the engine's re-arm count reached the calendar stats.
        assert_eq!(p.calendar.pushes, done.events);
        assert_eq!(p.calendar.pops, done.events);
        assert!(p.calendar.peak_depth >= 1);
        assert!(p.calendar.sample_rearms >= 1);
        // Profiling adds the speed-ratio series and headline metrics.
        assert!(done.timeline.get("prof.speed_ratio").is_some());
        assert!(done.metrics.counter_value("prof.wall_ns").is_some());
    }

    /// `Pinger` names a lane for its one kind and the engine lanes its
    /// own ticks, so nothing ever reaches the heap: the re-arm rule
    /// (`!queue.is_empty()`) and drained-vs-truncated must read the
    /// lanes.
    #[test]
    fn rearm_and_truncation_hold_with_every_event_in_a_lane() {
        crate::prof::set_enabled(true);
        let run = |stop_at, deadline| {
            let eng = Engine::new(
                Timeline::with_interval(SimDuration::from_nanos(100)),
                Auditor::new(),
                SimDuration::from_nanos(100),
            );
            let mut model = Pinger {
                stop_at,
                ..Pinger::default()
            };
            let done = eng.run(&mut model, deadline);
            (model, done)
        };
        let (model, drained) = run(5, SimTime::from_micros(10));
        let (cut_model, cut) = run(100, SimTime::from_nanos(250));
        for done in [&drained, &cut] {
            assert_eq!(done.profile.calendar.fallback_pushes, 0);
            assert_eq!(done.profile.calendar.laned_pushes, done.events);
        }
        // Pings at 0..=400 ns; the ticks re-arm while a ping is pending
        // and stop one tick after the last instead of running on to the
        // deadline.
        assert!(drained.drained);
        assert_eq!(model.handled, 5);
        assert!(drained.end <= SimTime::from_nanos(500));
        assert!((4..=5).contains(&drained.timeline.ticks()));
        assert_eq!(
            drained.profile.calendar.sample_rearms + 1,
            drained.timeline.ticks()
        );
        // Pings at 0, 100, 200 ran; the one at 300 crossed the deadline.
        assert!(!cut.drained);
        assert_eq!(cut.end, SimTime::from_nanos(250));
        assert_eq!(cut_model.handled, 3);
        assert_eq!(cut_model.drained_audits, 0);
    }

    #[test]
    fn probes_buffer_restarts_between_ticks() {
        let mut p = Probes::default();
        p.push("a", 1.0);
        let mut tl = Timeline::with_interval(SimDuration::from_nanos(10));
        p.sample_into(SimTime::from_nanos(10), &mut tl);
        assert_eq!(p.filled, 0);
    }

    /// The positional fast path must be invisible: whatever order and
    /// subset of names each tick pushes, the timeline is what by-name
    /// sampling records.
    #[test]
    fn probe_order_changes_record_like_by_name_sampling() {
        let ticks: [&[(&str, f64)]; 5] = [
            &[("a.x", 1.0), ("b", 2.0), ("c", 3.0)],
            &[("a.x", 4.0), ("b", 5.0), ("c", 6.0)],
            &[("a.x", 7.0), ("c", 8.0)],
            &[("c", 9.0), ("a.x", 10.0), ("d", 11.0), ("b", 12.0)],
            &[("c", 13.0), ("a.x", 14.0), ("d", 15.0), ("b", 16.0)],
        ];
        let mut p = Probes::default();
        let mut fast = Timeline::with_interval(SimDuration::from_nanos(10));
        let mut by_name = Timeline::with_interval(SimDuration::from_nanos(10));
        for (i, tick) in ticks.iter().enumerate() {
            let now = SimTime::from_nanos(10 * (i as u64 + 1));
            for &(name, v) in *tick {
                match name.split_once('.') {
                    Some((scope, leaf)) => p.push_scoped(scope, leaf, v),
                    None => p.push(name, v),
                }
            }
            p.sample_into(now, &mut fast);
            by_name.sample(now, tick);
        }
        assert_eq!(fast.series(), by_name.series());
        assert_eq!(p.names.len(), 4, "each name interned once");
    }
}
