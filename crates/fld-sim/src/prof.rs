//! Engine self-profiling: host-CPU and allocation attribution for the
//! simulator itself.
//!
//! Every other observability subsystem in this repository looks at
//! *simulated* time. This module looks at the *host*: where does the
//! wall-clock go inside [`crate::engine::Engine::run`], how many heap
//! allocations does each phase of the calendar loop perform, and how
//! does the event calendar itself behave (depth, bursts, re-arm churn)?
//! Those are the numbers the planned engine rewrite (calendar queue,
//! event pooling, batched delivery) must be argued against.
//!
//! # How time is attributed
//!
//! The profiler chains *boundary timestamps*: one `Instant::now()` per
//! phase boundary, so consecutive phases tile the run exactly — the sum
//! of all phase times telescopes to the run's wall time, with no gaps
//! and no double counting. Each recorded segment includes one timer
//! call's cost; [`Profiler`] calibrates that cost once per process (the
//! mean gap of a back-to-back `Instant::now()` loop) and subtracts it
//! from every segment, reporting the subtracted total as instrumentation
//! overhead rather than silently charging it to phases.
//!
//! Phases use dotted names (`pop`, `dispatch.ArriveAtNic`,
//! `sample.probes`); the dots define the flamegraph hierarchy of the
//! folded-stacks export.
//!
//! The `pop` phase is the time inside [`crate::queue::EventQueue::pop`]
//! only. A push happens inside a handler and is billed to that handler's
//! `dispatch.*` phase, so the `pop` fraction is a lower bound on the
//! calendar's cost, not its share: a sampling profile of runs whose
//! `pop` fraction read 0.16 – 0.19 found a third to a half of the host
//! time in the calendar, two thirds of that on the push side (DESIGN.md
//! § 3.8). What the calendar reports about pushes is counts, not times:
//! [`CalendarStats`]'s `laned_pushes` / `fallback_pushes` /
//! `insert_steps` say how many events the heap behind the FIFO lanes
//! still had to order and how far the lanes walked.
//!
//! # How allocations are attributed
//!
//! [`CountingAlloc`] is a `#[global_allocator]` wrapper over the system
//! allocator that bumps thread-local counters on every allocation. The
//! profiler reads those counters at every phase boundary, so each
//! phase's allocation count and byte volume fall out of the same
//! chaining that attributes time. Binaries opt in by installing the
//! allocator (`fld-bench`'s `exp` binary does); without it every delta
//! reads zero and the report simply omits heap churn.
//!
//! # Off switch
//!
//! Like the tracer and the flight recorder, profiling is armed at run
//! time, per thread, by [`set_enabled`] (`exp` arms its main thread from
//! the `--prof` flag). A run samples the flag once, when it starts: the
//! calendar keeps it in a field and [`Profiler::start`] in its own state,
//! so disarmed each hook is one branch on a value the run already holds.
//! A run with profiling off is byte-identical — simulated results never
//! depend on host timing either way, because the profiler only
//! *observes* the loop — and two threads, one armed and one not, never
//! see each other's switch or profiles.
//!
//! # Examples
//!
//! ```
//! use fld_sim::prof::Profile;
//!
//! let mut p = Profile::default();
//! p.wall_ns = 100.0;
//! p.add_phase("pop", 1, 40.0, 0, 0);
//! p.add_phase("dispatch.Gen", 1, 60.0, 2, 128);
//! assert!((p.fractions_sum() - 1.0).abs() < 1e-9);
//! assert_eq!(p.top_phase().unwrap().name, "dispatch.Gen");
//! assert!(p.to_folded().contains("engine;dispatch;Gen 60\n"));
//! ```

use crate::json::JsonWriter;

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A `#[global_allocator]` wrapper over the system allocator that counts
/// allocations and allocated bytes per thread.
///
/// Install it in a binary (or a crate whose test binaries should count)
/// with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: fld_sim::prof::CountingAlloc = fld_sim::prof::CountingAlloc;
/// ```
///
/// Only allocation *into* the heap is counted (`alloc`, `alloc_zeroed`,
/// and the growth side of `realloc`); frees are uncounted because the
/// profiler's question is churn, not live footprint. Counters are
/// thread-local, so parallel sweep workers never contend and each
/// engine's attribution covers exactly its own thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `std::alloc::System`;
// the counter updates are `Cell` bumps with no allocation or panic path
// (`try_with` swallows TLS teardown).
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_alloc(layout.size() as u64);
        std::alloc::System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_alloc(layout.size() as u64);
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size.saturating_sub(layout.size()) as u64);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

#[inline]
fn count_alloc(bytes: u64) {
    // `try_with` rather than `with`: the allocator can be entered during
    // thread teardown, after the TLS slot is gone.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes));
}

/// This thread's cumulative `(allocations, bytes)` since it started.
///
/// Zero unless a [`CountingAlloc`] is installed as the global allocator.
/// Meaningful uses take deltas around a region of interest.
#[inline]
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_CALLS.try_with(Cell::get).unwrap_or(0),
        ALLOC_BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

// ---------------------------------------------------------------------------
// Per-thread arming + merged profile
// ---------------------------------------------------------------------------

thread_local! {
    /// Whether engine runs started on this thread are profiled.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// The merge of this thread's profiled runs since the last
    /// [`take_global`].
    static MERGED: RefCell<Option<Profile>> = const { RefCell::new(None) };
}

/// Arms (or disarms) self-profiling on the calling thread: every
/// [`crate::engine::Engine::run`] this thread starts while armed records
/// a [`Profile`]. Other threads are untouched — a sweep runner arms its
/// workers itself.
pub fn set_enabled(on: bool) {
    ENABLED.set(on);
}

/// Whether self-profiling is armed on the calling thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Takes the merged profile of every engine run profiled on the calling
/// thread (or merged into it by [`merge_into_global`]) since the last
/// call. `None` when nothing was profiled.
pub fn take_global() -> Option<Profile> {
    MERGED.take()
}

/// Merges `profile` into the calling thread's merged profile — how a
/// sweep runner hands its workers' runs back to the thread that armed
/// them.
pub fn merge_into_global(profile: &Profile) {
    MERGED.with_borrow_mut(|slot| match slot.as_mut() {
        Some(merged) => merged.merge(profile),
        None => *slot = Some(profile.clone()),
    });
}

/// The calibrated per-boundary timer cost in nanoseconds: the mean gap
/// of back-to-back `Instant::now()` calls, measured once per process.
pub fn timer_overhead_ns() -> f64 {
    static CAL: OnceLock<f64> = OnceLock::new();
    *CAL.get_or_init(|| {
        const WARMUP: u32 = 256;
        const SAMPLES: u32 = 4096;
        for _ in 0..WARMUP {
            std::hint::black_box(Instant::now());
        }
        let t0 = Instant::now();
        for _ in 0..SAMPLES {
            std::hint::black_box(Instant::now());
        }
        t0.elapsed().as_nanos() as f64 / f64::from(SAMPLES)
    })
}

// ---------------------------------------------------------------------------
// Scoped sub-measurements (component hooks)
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct ScopeSink {
    /// Accumulators in first-appearance order, indexed by name.
    entries: Vec<(&'static str, Acc)>,
}

impl ScopeSink {
    fn record(&mut self, name: &'static str, ns: f64, allocs: u64, bytes: u64) {
        let acc = match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => acc,
            None => {
                self.entries.push((name, Acc::default()));
                &mut self.entries.last_mut().expect("just pushed").1
            }
        };
        acc.calls += 1;
        acc.total_ns += ns;
        acc.allocs += allocs;
        acc.bytes += bytes;
    }
}

thread_local! {
    /// The running engine's scope sink; `Some` only while a profiled
    /// [`crate::engine::Engine::run`] is active on this thread.
    static SCOPE_SINK: RefCell<Option<ScopeSink>> = const { RefCell::new(None) };
}

/// Measures a sub-scope of the current profiled run (host time plus
/// allocation deltas) under `name`, ending when the guard drops.
///
/// Models and components use this to attribute work *inside* an engine
/// phase — e.g. `FldSystem` wraps each component's flight-recorder probe
/// group in a scope, so the profile shows which component's sampling is
/// expensive. Dotted names nest in the folded-stacks export
/// (`sample.probes.fld` renders as `engine;sample;probes;fld`), so pick
/// names under the engine phase the scope runs in.
///
/// Inert (a no-op guard) unless a profiled run is active on this thread.
#[must_use = "the scope is measured until the guard drops"]
pub fn scope(name: &'static str) -> ScopeGuard {
    let active = SCOPE_SINK
        .try_with(|s| s.borrow().is_some())
        .unwrap_or(false);
    ScopeGuard {
        inner: active.then(|| {
            let (a, b) = alloc_counts();
            (name, Instant::now(), a, b)
        }),
    }
}

/// Guard returned by [`scope`]; records the measurement on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    inner: Option<(&'static str, Instant, u64, u64)>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some((name, start, a0, b0)) = self.inner.take() {
            let ns = (start.elapsed().as_nanos() as f64 - timer_overhead_ns()).max(0.0);
            let (a1, b1) = alloc_counts();
            let _ = SCOPE_SINK.try_with(|s| {
                if let Some(sink) = s.borrow_mut().as_mut() {
                    sink.record(name, ns, a1 - a0, b1 - b0);
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Calendar statistics
// ---------------------------------------------------------------------------

/// Behavioral statistics of the event calendar over one run, collected
/// by [`crate::queue::EventQueue`] (while profiling is armed) and the
/// engine: depth bounds the memory the calendar holds, same-timestamp
/// bursts count the pops that only the insertion tie-break orders, re-arm
/// churn counts self-rescheduling timers, and the lane accounting says
/// how much of the ordering the FIFO lanes took off the heap.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CalendarStats {
    /// Events pushed over the run (model events + engine sample ticks).
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Maximum calendar depth observed after any push.
    pub peak_depth: u64,
    /// Pops whose timestamp equaled the previous pop's (burst members
    /// beyond each burst's first event).
    pub coincident_pops: u64,
    /// Length of the longest run of equal-timestamp pops.
    pub max_burst: u64,
    /// Flight-recorder sample ticks re-armed by the engine.
    pub sample_rearms: u64,
    /// Pushes a FIFO lane took (`pushes − fallback_pushes`): events that
    /// were appended (or walked a few entries back), never sifted.
    pub laned_pushes: u64,
    /// Pushes the heap ordered — no lane named, or a place beyond the
    /// lane's reach. `fallback_pushes ÷ pushes` is the share of events
    /// the heap still orders.
    pub fallback_pushes: u64,
    /// Lane entries walked past by laned pushes that were not plain
    /// appends (`insert_steps ÷ laned_pushes` is the mean insertion walk).
    pub insert_steps: u64,
}

impl CalendarStats {
    /// Sums `other` into `self` (peaks take the max).
    pub fn merge(&mut self, other: &CalendarStats) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        self.coincident_pops += other.coincident_pops;
        self.max_burst = self.max_burst.max(other.max_burst);
        self.sample_rearms += other.sample_rearms;
        self.laned_pushes += other.laned_pushes;
        self.fallback_pushes += other.fallback_pushes;
        self.insert_steps += other.insert_steps;
    }

    fn write_into(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("pushes", self.pushes);
        w.field_u64("pops", self.pops);
        w.field_u64("peak_depth", self.peak_depth);
        w.field_u64("coincident_pops", self.coincident_pops);
        w.field_u64("max_burst", self.max_burst);
        w.field_u64("sample_rearms", self.sample_rearms);
        w.field_u64("laned_pushes", self.laned_pushes);
        w.field_u64("fallback_pushes", self.fallback_pushes);
        w.field_u64("insert_steps", self.insert_steps);
        w.end_object();
    }
}

// ---------------------------------------------------------------------------
// Profile (the result)
// ---------------------------------------------------------------------------

/// One accumulator: calls, host time, allocation deltas.
#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    calls: u64,
    total_ns: f64,
    allocs: u64,
    bytes: u64,
}

/// One attributed phase (or scope) of a profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Dotted phase name (`pop`, `dispatch.ArriveAtNic`,
    /// `sample.probes.fld`). Dots define the flamegraph hierarchy.
    pub name: String,
    /// Times the phase was entered.
    pub calls: u64,
    /// Host nanoseconds attributed (timer overhead already subtracted).
    pub total_ns: f64,
    /// Heap allocations performed inside the phase (zero unless a
    /// [`CountingAlloc`] is installed).
    pub allocs: u64,
    /// Heap bytes allocated inside the phase.
    pub alloc_bytes: u64,
}

/// A self-profile of one (or several merged) engine runs.
///
/// `phases` telescope: consecutive boundary timestamps tile the run, so
/// `fractions_sum` is ~1.0 — its drift bounds the calibration and
/// clamping error. `scopes` are overlapping sub-measurements recorded by
/// [`scope`] *inside* phases, kept separate so they never break the
/// telescoping invariant.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// Whether anything was recorded (false ⇒ every field is zero).
    pub enabled: bool,
    /// Engine runs merged into this profile.
    pub runs: u64,
    /// Host wall-clock of the run(s), ns.
    pub wall_ns: f64,
    /// Simulated time covered by the run(s), ns.
    pub sim_ns: u64,
    /// Calendar events scheduled.
    pub events: u64,
    /// Calibrated per-boundary timer cost that was subtracted, ns.
    pub timer_overhead_ns: f64,
    /// Phase boundaries recorded (each cost one timer call).
    pub boundaries: u64,
    /// Telescoping phase attribution, first-appearance order.
    pub phases: Vec<PhaseStat>,
    /// Overlapping sub-scope measurements ([`scope`]).
    pub scopes: Vec<PhaseStat>,
    /// Event-calendar behavior statistics.
    pub calendar: CalendarStats,
}

impl Profile {
    /// Appends (or accumulates into) the phase `name`.
    pub fn add_phase(&mut self, name: &str, calls: u64, total_ns: f64, allocs: u64, bytes: u64) {
        Self::add_to(&mut self.phases, name, calls, total_ns, allocs, bytes);
    }

    /// Appends (or accumulates into) the scope `name`.
    pub fn add_scope(&mut self, name: &str, calls: u64, total_ns: f64, allocs: u64, bytes: u64) {
        Self::add_to(&mut self.scopes, name, calls, total_ns, allocs, bytes);
    }

    fn add_to(
        list: &mut Vec<PhaseStat>,
        name: &str,
        calls: u64,
        total_ns: f64,
        allocs: u64,
        bytes: u64,
    ) {
        match list.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.calls += calls;
                p.total_ns += total_ns;
                p.allocs += allocs;
                p.alloc_bytes += bytes;
            }
            None => list.push(PhaseStat {
                name: name.to_string(),
                calls,
                total_ns,
                allocs,
                alloc_bytes: bytes,
            }),
        }
    }

    /// The host time the profiler estimates the un-instrumented run would
    /// take: wall time minus the calibrated cost of every boundary. This
    /// is the denominator of every fraction.
    pub fn attributed_wall_ns(&self) -> f64 {
        (self.wall_ns - self.timer_overhead_ns * self.boundaries as f64).max(1.0)
    }

    /// Sum of every phase fraction. ~1.0 by the telescoping construction;
    /// drift beyond ±2% means calibration or clamping ate real time.
    pub fn fractions_sum(&self) -> f64 {
        self.phases.iter().map(|p| p.total_ns).sum::<f64>() / self.attributed_wall_ns()
    }

    /// The most expensive phase (by attributed host time).
    pub fn top_phase(&self) -> Option<&PhaseStat> {
        self.phases
            .iter()
            .max_by(|a, b| a.total_ns.total_cmp(&b.total_ns))
    }

    /// Simulated nanoseconds advanced per host nanosecond (the
    /// sim-vs-wall speed ratio; >1 means faster than real time).
    pub fn speed_ratio(&self) -> f64 {
        self.sim_ns as f64 / self.wall_ns.max(1.0)
    }

    /// Events processed per host second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns.max(1.0) / 1e9)
    }

    /// Merges `other` into `self` (phases and scopes accumulate by name;
    /// times, events and calendar counters add; peaks take the max).
    pub fn merge(&mut self, other: &Profile) {
        if !other.enabled {
            return;
        }
        self.enabled = true;
        self.runs += other.runs;
        self.wall_ns += other.wall_ns;
        self.sim_ns += other.sim_ns;
        self.events += other.events;
        self.boundaries += other.boundaries;
        // The calibration is per-process; keep the larger estimate if
        // profiles from differently-calibrated processes ever merge.
        self.timer_overhead_ns = self.timer_overhead_ns.max(other.timer_overhead_ns);
        for p in &other.phases {
            Self::add_to(
                &mut self.phases,
                &p.name,
                p.calls,
                p.total_ns,
                p.allocs,
                p.alloc_bytes,
            );
        }
        for s in &other.scopes {
            Self::add_to(
                &mut self.scopes,
                &s.name,
                s.calls,
                s.total_ns,
                s.allocs,
                s.alloc_bytes,
            );
        }
        self.calendar.merge(&other.calendar);
    }

    fn write_stats(w: &mut JsonWriter, list: &[PhaseStat], denom: f64) {
        w.begin_object();
        for p in list {
            w.key(&p.name);
            w.begin_object();
            w.field_u64("calls", p.calls);
            w.field_f64("total_ns", p.total_ns);
            w.field_f64("frac", p.total_ns / denom);
            w.field_u64("allocs", p.allocs);
            w.field_u64("alloc_bytes", p.alloc_bytes);
            w.end_object();
        }
        w.end_object();
    }

    /// Serializes the profile as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("schema_version", crate::json::SCHEMA_VERSION);
        w.key("enabled");
        w.bool(self.enabled);
        w.field_u64("runs", self.runs);
        w.field_f64("wall_ns", self.wall_ns);
        w.field_u64("sim_ns", self.sim_ns);
        w.field_u64("events", self.events);
        w.field_f64("events_per_sec", self.events_per_sec());
        w.field_f64("speed_ratio", self.speed_ratio());
        w.field_f64("timer_overhead_ns", self.timer_overhead_ns);
        w.field_u64("boundaries", self.boundaries);
        w.field_f64("fractions_sum", self.fractions_sum());
        w.field_str(
            "top_phase",
            self.top_phase().map_or("", |p| p.name.as_str()),
        );
        w.key("phases");
        Self::write_stats(&mut w, &self.phases, self.attributed_wall_ns());
        w.key("scopes");
        Self::write_stats(&mut w, &self.scopes, self.attributed_wall_ns());
        w.key("calendar");
        self.calendar.write_into(&mut w);
        w.end_object();
        w.finish()
    }

    /// Serializes the profile in the folded-stacks format consumed by
    /// standard flamegraph tooling (`flamegraph.pl`, inferno): one line
    /// per stack, `engine;<segments> <self-nanoseconds>`.
    ///
    /// Dotted names define the stack; a name's *self* time is its total
    /// minus the totals of its direct children (phases and scopes mix in
    /// one hierarchy, so `sample.probes.fld` nests under the
    /// `sample.probes` phase). Entries whose self time rounds to zero are
    /// omitted. Line order follows recording order — parents before their
    /// scopes — so the output is deterministic for a given model.
    pub fn to_folded(&self) -> String {
        let all: Vec<(&str, f64)> = self
            .phases
            .iter()
            .chain(self.scopes.iter())
            .map(|p| (p.name.as_str(), p.total_ns))
            .collect();
        let mut out = String::new();
        for (name, total) in &all {
            let child_sum: f64 = all
                .iter()
                .filter(|(n, _)| {
                    n.len() > name.len() + 1
                        && n.starts_with(name)
                        && n.as_bytes()[name.len()] == b'.'
                        && !n[name.len() + 1..].contains('.')
                })
                .map(|(_, t)| t)
                .sum();
            let self_ns = (total - child_sum).max(0.0).round() as u64;
            if self_ns > 0 {
                out.push_str("engine;");
                out.push_str(&name.replace('.', ";"));
                out.push(' ');
                out.push_str(&self_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Registers the headline numbers under `prefix` in a metrics
    /// registry (`{prefix}.wall_ns`, `{prefix}.speed_ratio`, …).
    pub fn export(&self, prefix: &str, registry: &mut crate::metrics::MetricsRegistry) {
        if !self.enabled {
            return;
        }
        registry.counter(format!("{prefix}.wall_ns"), self.wall_ns.round() as u64);
        registry.gauge(format!("{prefix}.speed_ratio"), self.speed_ratio());
        registry.gauge(format!("{prefix}.events_per_sec"), self.events_per_sec());
        registry.counter(
            format!("{prefix}.calendar.peak_depth"),
            self.calendar.peak_depth,
        );
        registry.counter(
            format!("{prefix}.calendar.coincident_pops"),
            self.calendar.coincident_pops,
        );
        registry.counter(
            format!("{prefix}.calendar.laned_pushes"),
            self.calendar.laned_pushes,
        );
        registry.counter(
            format!("{prefix}.calendar.fallback_pushes"),
            self.calendar.fallback_pushes,
        );
        registry.counter(
            format!("{prefix}.calendar.insert_steps"),
            self.calendar.insert_steps,
        );
    }
}

// ---------------------------------------------------------------------------
// Profiler (the recorder driven by the engine)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ProfInner {
    overhead_ns: f64,
    started: Instant,
    /// The chained boundary: end of the last recorded phase.
    boundary: Instant,
    boundary_allocs: u64,
    boundary_bytes: u64,
    boundaries: u64,
    /// Host instant of the previous flight-recorder sample tick.
    last_sample: Instant,
    /// `(phase, sub)` accumulators in first-appearance order. Keys are
    /// static so the per-event lookup never allocates.
    phases: Vec<((&'static str, &'static str), Acc)>,
}

impl ProfInner {
    fn record(&mut self, key: (&'static str, &'static str)) {
        let now = Instant::now();
        let ns = (now.duration_since(self.boundary).as_nanos() as f64 - self.overhead_ns).max(0.0);
        self.boundary = now;
        self.boundaries += 1;
        let (a1, b1) = alloc_counts();
        let (da, db) = (a1 - self.boundary_allocs, b1 - self.boundary_bytes);
        self.boundary_allocs = a1;
        self.boundary_bytes = b1;
        let acc = match self.phases.iter_mut().find(|(k, _)| *k == key) {
            Some((_, acc)) => acc,
            None => {
                self.phases.push((key, Acc::default()));
                &mut self.phases.last_mut().expect("just pushed").1
            }
        };
        acc.calls += 1;
        acc.total_ns += ns;
        acc.allocs += da;
        acc.bytes += db;
    }
}

/// The per-run recorder driven by [`crate::engine::Engine::run`].
///
/// Created by [`Profiler::start`]; inert unless [`set_enabled`] armed
/// the calling thread. While active it owns this thread's [`scope`] sink.
#[derive(Debug, Default)]
pub struct Profiler {
    inner: Option<Box<ProfInner>>,
}

impl Profiler {
    /// Starts recording if profiling is armed on this thread.
    pub fn start() -> Profiler {
        Self::start_if(enabled())
    }

    /// Starts recording iff `on` (test hook; binaries use [`Profiler::start`]).
    pub fn start_if(on: bool) -> Profiler {
        if !on {
            return Profiler { inner: None };
        }
        let overhead_ns = timer_overhead_ns();
        let _ = SCOPE_SINK.try_with(|s| *s.borrow_mut() = Some(ScopeSink::default()));
        let (a, b) = alloc_counts();
        let now = Instant::now();
        Profiler {
            inner: Some(Box::new(ProfInner {
                overhead_ns,
                started: now,
                boundary: now,
                boundary_allocs: a,
                boundary_bytes: b,
                boundaries: 0,
                last_sample: now,
                phases: Vec::new(),
            })),
        }
    }

    /// Whether this run is being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Closes the segment since the previous boundary and attributes it
    /// to `phase`. No-op when not recording.
    #[inline]
    pub fn phase(&mut self, phase: &'static str) {
        if let Some(inner) = &mut self.inner {
            inner.record((phase, ""));
        }
    }

    /// Like [`Profiler::phase`] but attributes to `{phase}.{sub}`
    /// without allocating (used for per-event-kind dispatch).
    #[inline]
    pub fn phase_sub(&mut self, phase: &'static str, sub: &'static str) {
        if let Some(inner) = &mut self.inner {
            inner.record((phase, sub));
        }
    }

    /// Simulated-vs-host speed over the window since the previous sample
    /// tick: `interval_sim_ns / host_ns_elapsed`. `None` when not
    /// recording.
    pub fn sample_speed_ratio(&mut self, interval: crate::time::SimDuration) -> Option<f64> {
        let inner = self.inner.as_mut()?;
        let now = Instant::now();
        let host_ns = now.duration_since(inner.last_sample).as_nanos() as f64;
        inner.last_sample = now;
        Some(interval.as_nanos() as f64 / host_ns.max(1.0))
    }

    /// Ends the run: drains the scope sink, stamps run totals, merges
    /// the result into this thread's merged profile ([`take_global`]),
    /// and returns it. A disabled profiler returns `Profile::default()`.
    pub fn finish(self, sim_ns: u64, events: u64, calendar: CalendarStats) -> Profile {
        if let Some(inner) = self.inner {
            let wall_ns = inner.started.elapsed().as_nanos() as f64;
            let mut profile = Profile {
                enabled: true,
                runs: 1,
                wall_ns,
                sim_ns,
                events,
                timer_overhead_ns: inner.overhead_ns,
                boundaries: inner.boundaries,
                phases: Vec::with_capacity(inner.phases.len()),
                scopes: Vec::new(),
                calendar,
            };
            for ((phase, sub), acc) in &inner.phases {
                let name = if sub.is_empty() {
                    (*phase).to_string()
                } else {
                    format!("{phase}.{sub}")
                };
                profile.add_phase(&name, acc.calls, acc.total_ns, acc.allocs, acc.bytes);
            }
            let sink = SCOPE_SINK
                .try_with(|s| s.borrow_mut().take())
                .ok()
                .flatten()
                .unwrap_or_default();
            for (name, acc) in &sink.entries {
                profile.add_scope(name, acc.calls, acc.total_ns, acc.allocs, acc.bytes);
            }
            merge_into_global(&profile);
            return profile;
        }
        Profile::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Profile {
        // Hand-built numbers, so the folded output is exactly knowable:
        // this test is the format contract for flamegraph tooling.
        let mut p = Profile {
            enabled: true,
            runs: 1,
            wall_ns: 1_000.0,
            sim_ns: 4_000,
            events: 10,
            timer_overhead_ns: 0.0,
            boundaries: 12,
            ..Profile::default()
        };
        p.add_phase("start", 1, 50.0, 1, 64);
        p.add_phase("pop", 10, 200.0, 0, 0);
        p.add_phase("dispatch.Gen", 4, 300.0, 8, 512);
        p.add_phase("dispatch.ArriveAtNic", 6, 250.0, 12, 768);
        p.add_phase("sample.probes", 2, 150.0, 2, 96);
        p.add_phase("finish", 1, 50.0, 0, 0);
        p.add_scope("sample.probes.fld", 2, 90.0, 1, 48);
        p
    }

    #[test]
    fn folded_output_is_the_flamegraph_contract() {
        let folded = synthetic().to_folded();
        // `sample.probes` self time = 150 - 90 (its child scope).
        assert_eq!(
            folded,
            "engine;start 50\n\
             engine;pop 200\n\
             engine;dispatch;Gen 300\n\
             engine;dispatch;ArriveAtNic 250\n\
             engine;sample;probes 60\n\
             engine;finish 50\n\
             engine;sample;probes;fld 90\n"
        );
    }

    #[test]
    fn fractions_telescope_and_top_phase_wins() {
        let p = synthetic();
        assert!(
            (p.fractions_sum() - 1.0).abs() < 1e-9,
            "{}",
            p.fractions_sum()
        );
        assert_eq!(p.top_phase().unwrap().name, "dispatch.Gen");
        let json = p.to_json();
        let pop = &json[json.find("\"pop\"").expect("pop phase")..];
        assert!(
            pop[..pop.find('}').unwrap()].contains("\"frac\": 0.2,"),
            "{json}"
        );
        assert!((p.speed_ratio() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn json_reports_every_section() {
        let json = synthetic().to_json();
        for needle in [
            "\"enabled\": true",
            "\"top_phase\": \"dispatch.Gen\"",
            "\"fractions_sum\":",
            "\"dispatch.ArriveAtNic\"",
            "\"alloc_bytes\": 768",
            "\"calendar\":",
            "\"sample.probes.fld\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn merge_accumulates_by_name_and_takes_peaks() {
        let mut a = synthetic();
        a.calendar.peak_depth = 7;
        let mut b = synthetic();
        b.calendar.peak_depth = 9;
        b.calendar.pushes = 11;
        a.merge(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.events, 20);
        assert_eq!(a.phases.iter().filter(|p| p.name == "pop").count(), 1);
        assert_eq!(a.phases.iter().find(|p| p.name == "pop").unwrap().calls, 20);
        assert_eq!(a.calendar.peak_depth, 9);
        assert_eq!(a.calendar.pushes, 11);
        // Merging a disabled profile is a no-op.
        let runs = a.runs;
        a.merge(&Profile::default());
        assert_eq!(a.runs, runs);
    }

    #[test]
    fn disabled_profile_is_inert() {
        let p = Profile::default();
        assert!(!p.enabled);
        assert_eq!(p.fractions_sum(), 0.0);
        assert!(p.top_phase().is_none());
        assert_eq!(p.to_folded(), "");
        let mut reg = crate::metrics::MetricsRegistry::new();
        p.export("prof", &mut reg);
        assert_eq!(reg.to_json(), "{}");
    }

    #[test]
    fn timer_calibration_is_finite_and_small() {
        let ns = timer_overhead_ns();
        assert!(ns.is_finite() && ns >= 0.0, "{ns}");
        // A timer call costs tens of nanoseconds, not microseconds.
        assert!(ns < 10_000.0, "{ns}");
    }

    #[test]
    fn profiler_chains_phases_and_drains_scopes() {
        let mut prof = Profiler::start_if(true);
        assert!(prof.is_enabled());
        std::hint::black_box(vec![0u8; 1024]);
        prof.phase("start");
        {
            let _g = scope("work.inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        prof.phase_sub("dispatch", "Ping");
        let profile = prof.finish(500, 3, CalendarStats::default());
        assert!(profile.enabled);
        assert_eq!(profile.runs, 1);
        assert_eq!(profile.events, 3);
        let names: Vec<&str> = profile.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["start", "dispatch.Ping"]);
        let dispatch = &profile.phases[1];
        // The sleep lands in the dispatch segment; well over 0.5 ms.
        assert!(dispatch.total_ns > 500_000.0, "{}", dispatch.total_ns);
        let inner = profile.scopes.iter().find(|s| s.name == "work.inner");
        assert!(inner.is_some_and(|s| s.calls == 1 && s.total_ns > 500_000.0));
        // The two phases tile the run.
        assert!(
            (profile.fractions_sum() - 1.0).abs() < 0.02,
            "{}",
            profile.fractions_sum()
        );
        // take_global sees exactly this profile: the merge is this
        // thread's alone.
        let merged = take_global().expect("profiled run merged on its thread");
        assert_eq!(merged.runs, 1);
    }

    #[test]
    fn disabled_profiler_records_nothing_and_scopes_stay_inert() {
        let mut prof = Profiler::start_if(false);
        assert!(!prof.is_enabled());
        prof.phase("start");
        {
            let _g = scope("ignored");
        }
        assert!(prof
            .sample_speed_ratio(crate::time::SimDuration::from_nanos(10))
            .is_none());
        let profile = prof.finish(1, 1, CalendarStats::default());
        assert!(!profile.enabled);
        assert!(profile.phases.is_empty());
    }

    #[test]
    fn calendar_stats_merge() {
        let mut a = CalendarStats {
            pushes: 1,
            pops: 2,
            peak_depth: 3,
            coincident_pops: 1,
            max_burst: 2,
            sample_rearms: 1,
            laned_pushes: 1,
            fallback_pushes: 0,
            insert_steps: 3,
        };
        a.merge(&CalendarStats {
            pushes: 10,
            pops: 20,
            peak_depth: 2,
            coincident_pops: 4,
            max_burst: 5,
            sample_rearms: 2,
            laned_pushes: 7,
            fallback_pushes: 3,
            insert_steps: 4,
        });
        assert_eq!(a.pushes, 11);
        assert_eq!(a.pops, 22);
        assert_eq!(a.peak_depth, 3);
        assert_eq!(a.max_burst, 5);
        assert_eq!(a.sample_rearms, 3);
        assert_eq!(
            (a.laned_pushes, a.fallback_pushes, a.insert_steps),
            (8, 3, 7)
        );
    }
}
