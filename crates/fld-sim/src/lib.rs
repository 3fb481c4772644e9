//! # fld-sim — discrete-event simulation engine
//!
//! The simulation substrate for the FlexDriver (ASPLOS 2022) reproduction.
//! Every experiment in the repository runs on this engine:
//!
//! * [`time`] — picosecond-resolution instants, durations and bandwidths;
//! * [`queue`] — a deterministic event calendar ([`queue::EventQueue`]);
//! * [`engine`] — the shared run harness ([`engine::Engine`]): calendar
//!   loop, warmup/deadline semantics, flight-recorder ticks and the
//!   audit/metrics/timeline lifecycle;
//! * [`rng`] — reproducible pseudo-random streams ([`rng::SimRng`]);
//! * [`link`] — serializing links and token buckets;
//! * [`stats`] — HDR-style histograms, rate meters and counters;
//! * [`metrics`] — a hierarchical registry aggregating every component's
//!   counters and histograms into one JSON snapshot;
//! * [`trace`] — packet-lifecycle event recording with a Chrome
//!   trace-event (Perfetto) exporter;
//! * [`probe`] — the flight recorder's sampling half: fixed-interval
//!   time-series probes ([`probe::Timeline`]), Perfetto counter tracks,
//!   and bottleneck attribution ([`probe::BottleneckReport`]);
//! * [`audit`] — the flight recorder's checking half: a runtime
//!   invariant auditor ([`audit::Auditor`]) for conservation laws,
//!   credit/occupancy bounds and PSN monotonicity;
//! * [`prof`] — engine self-profiling: host-CPU and allocation
//!   attribution per calendar-loop phase, calendar-queue statistics,
//!   and JSON/folded-stacks (flamegraph) exporters;
//! * [`fault`] — seeded deterministic fault injection
//!   ([`fault::FaultPlan`]) with ledgered recovery accounting, so chaos
//!   runs stay reproducible and nothing injected vanishes silently, plus
//!   scheduled entity-scoped fault scripts ([`fault::FaultSchedule`]);
//! * [`health`] — the watchdog/heartbeat health state machine
//!   ([`health::HealthMonitor`]) detecting scheduled outages and
//!   recording detection-latency and MTTR distributions;
//! * [`counters`] — ethtool-style per-entity hardware counters
//!   ([`counters::CounterTree`]): pre-resolved handles, fixed-cost
//!   hot-path increments, audited telescoping to the aggregates;
//! * [`json`] — the dependency-free JSON writer behind the exporters.
//!
//! The engine is deliberately minimal: a model keeps its own typed event
//! enum and dispatch (ordinary Rust, no trait-object indirection per
//! event); [`engine::Engine`] owns only the generic run machinery —
//! the calendar loop, deadline/drain semantics and the observability
//! lifecycle — which every end-to-end system shares.
//!
//! # Examples
//!
//! A tiny single-server queue simulation:
//!
//! ```
//! use fld_sim::queue::EventQueue;
//! use fld_sim::time::{Bandwidth, SimDuration};
//! use fld_sim::link::Link;
//!
//! #[derive(Debug)]
//! enum Ev { Arrive(u64), Depart(u64) }
//!
//! let mut q = EventQueue::new();
//! let mut link = Link::new(Bandwidth::gbps(10.0), SimDuration::ZERO);
//! for i in 0..3 {
//!     q.schedule_at(fld_sim::time::SimTime::from_nanos(i * 10), Ev::Arrive(i));
//! }
//! let mut departures = 0;
//! while let Some((now, ev)) = q.pop() {
//!     match ev {
//!         Ev::Arrive(id) => {
//!             let done = link.transmit(now, 1500);
//!             q.schedule_at(done, Ev::Depart(id));
//!         }
//!         Ev::Depart(_) => departures += 1,
//!     }
//! }
//! assert_eq!(departures, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod counters;
pub mod engine;
pub mod fault;
pub mod health;
pub mod json;
pub mod link;
pub mod metrics;
pub mod probe;
pub mod prof;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use audit::{AuditReport, Auditor, Violation};
pub use counters::{Counter, CounterSnapshot, CounterTree};
pub use engine::{Completed, Engine, Model, Probes};
pub use fault::{
    Booking, FaultEvent, FaultInjector, FaultKind, FaultLedger, FaultOutcome, FaultPlan,
    FaultSchedule, ScheduleSpec,
};
pub use health::{HealthConfig, HealthId, HealthMonitor, HealthState, HealthTransition};
pub use link::{Link, TokenBucket};
pub use metrics::{MetricValue, MetricsRegistry};
pub use probe::{BottleneckReport, Timeline};
pub use prof::{CalendarStats, PhaseStat, Profile, Profiler};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{Counters, Histogram, RateMeter};
pub use time::{Bandwidth, SimDuration, SimTime};
pub use trace::{StageLatencies, TraceEvent, TraceEventKind, Tracer};
