//! Deterministic fault injection: the adversary half of the flight
//! recorder.
//!
//! The simulation's recovery machinery — RoCE go-back-N with NAKs and
//! retry budgets, NIC queue error states, FLD drop-and-count degradation —
//! is only trustworthy if something actually exercises it. A [`FaultPlan`]
//! describes *what* can go wrong (a [`FaultKind`] set), *how often* (a
//! per-opportunity probability) and *under which seed*; a [`FaultInjector`]
//! is one component's handle on the plan, with its own [`SimRng`] stream
//! forked deterministically from the seed and the component name, so that
//! repeated runs — serial or under a parallel sweep — are byte-identical.
//!
//! Every injected fault must be accounted for: the injector's
//! [`FaultLedger`] tracks each injection until it is resolved as
//! *recovered* (the system absorbed it transparently: a retransmission, a
//! queue re-init, a stall that only cost time), *dropped-and-counted*
//! (graceful degradation: the packet is gone but a drop counter knows),
//! or *terminal* (a QP entered its error state and gave up).
//! [`FaultLedger::audit`] closes the loop at every [`Auditor`] tick:
//! nothing silently vanishes.

use std::collections::VecDeque;

use crate::audit::Auditor;
use crate::counters::{Counter, CounterSum, CounterTree};
use crate::metrics::MetricsRegistry;
use crate::rng::SimRng;
use crate::stats::Histogram;
use crate::time::{SimDuration, SimTime};

/// The fault taxonomy, one variant per injection site class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A packet vanishes on a wire (link loss).
    LinkDrop,
    /// A packet arrives with a bad FCS/ICRC and is discarded by the
    /// receiver.
    LinkCorrupt,
    /// A packet is delivered twice (e.g. a spurious retransmission).
    LinkDuplicate,
    /// A packet is delayed past its successors (out-of-order delivery).
    LinkReorder,
    /// A PCIe read completion misses its deadline and is retried
    /// (completion-timeout machinery, costing the timeout window).
    PcieTimeout,
    /// A poisoned TLP: the completer flags the data as bad and the
    /// transfer is discarded.
    PciePoison,
    /// The accelerator posts a malformed WQE; the NIC raises an error CQE
    /// and the queue enters the error state.
    MalformedWqe,
    /// A transmit completion arrives with an error status; the queue is
    /// flushed and re-initialized (mlx5 error-CQE model).
    CqeError,
    /// Receiver-not-ready: the responder is out of receive WQEs and
    /// answers with an RNR NAK.
    Rnr,
    /// The accelerator pipeline stalls transiently before processing.
    AccelStall,
    /// A fabric switch port flaps: for the fault's duration the port
    /// blackholes everything offered to it (entity-scoped, scheduled).
    FabricLinkFlap,
    /// A whole node crashes: its tx queues flush in error, in-flight
    /// packets toward it are lost, and its flows die until recovery
    /// (entity-scoped, scheduled).
    NodeCrash,
    /// A virtual function is hot-unplugged: its rule quota and shaper
    /// state are reclaimed and its traffic drops at the NIC boundary
    /// until replug (entity-scoped, scheduled).
    VfUnplug,
}

impl FaultKind {
    /// Every kind, in canonical (metrics/ordering) order.
    pub const ALL: [FaultKind; 13] = [
        FaultKind::LinkDrop,
        FaultKind::LinkCorrupt,
        FaultKind::LinkDuplicate,
        FaultKind::LinkReorder,
        FaultKind::PcieTimeout,
        FaultKind::PciePoison,
        FaultKind::MalformedWqe,
        FaultKind::CqeError,
        FaultKind::Rnr,
        FaultKind::AccelStall,
        FaultKind::FabricLinkFlap,
        FaultKind::NodeCrash,
        FaultKind::VfUnplug,
    ];

    /// Stable snake_case name (CLI `--fault-kinds` values and metric keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::LinkDrop => "drop",
            FaultKind::LinkCorrupt => "corrupt",
            FaultKind::LinkDuplicate => "duplicate",
            FaultKind::LinkReorder => "reorder",
            FaultKind::PcieTimeout => "pcie_timeout",
            FaultKind::PciePoison => "pcie_poison",
            FaultKind::MalformedWqe => "malformed_wqe",
            FaultKind::CqeError => "cqe_error",
            FaultKind::Rnr => "rnr",
            FaultKind::AccelStall => "accel_stall",
            FaultKind::FabricLinkFlap => "fabric_link_flap",
            FaultKind::NodeCrash => "node_crash",
            FaultKind::VfUnplug => "vf_unplug",
        }
    }

    /// All kind names, comma-joined (error messages, `--fault-kinds list`).
    pub fn name_list() -> String {
        FaultKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Parses a [`FaultKind::name`] back into a kind.
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    fn index(self) -> usize {
        FaultKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL")
    }

    fn bit(self) -> u16 {
        1 << self.index()
    }
}

/// A seeded, deterministic fault schedule: which kinds fire, at what
/// per-opportunity probability, under which RNG seed.
///
/// The plan itself is inert configuration (`Copy`); a system obtains its
/// [`FaultInjector`] via [`FaultPlan::injector`], which owns the
/// [`FaultLedger`] every hit is booked in.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Probability that any one injection opportunity fires, in `[0, 1]`.
    pub rate: f64,
    /// Enabled kinds, as a bitmask over [`FaultKind::ALL`].
    mask: u16,
    /// RNG seed; each injector forks a stream from this and its component
    /// name.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan firing every kind at `rate` under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn new(rate: f64, seed: u64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0,1]");
        FaultPlan {
            rate,
            mask: u16::MAX,
            seed,
        }
    }

    /// A plan that never fires (the zero point of chaos sweeps).
    pub fn disabled() -> FaultPlan {
        FaultPlan::new(0.0, 0)
    }

    /// Restricts the plan to a comma-separated kind list (the
    /// `--fault-kinds` flag; e.g. `"drop,corrupt,rnr"`).
    ///
    /// # Errors
    ///
    /// Returns the offending token (and the valid set) when it names no
    /// [`FaultKind`].
    pub fn with_kinds_csv(mut self, csv: &str) -> Result<FaultPlan, String> {
        let mut mask = 0;
        for token in csv.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let kind = FaultKind::parse(token).ok_or_else(|| {
                format!(
                    "unknown fault kind {token:?} (valid kinds: {})",
                    FaultKind::name_list()
                )
            })?;
            mask |= kind.bit();
        }
        self.mask = mask;
        Ok(self)
    }

    /// Whether `kind` is enabled.
    pub fn enables(&self, kind: FaultKind) -> bool {
        self.mask & kind.bit() != 0
    }

    /// Creates `component`'s injector, drawing from a stream forked
    /// deterministically from the plan seed and the component name, with
    /// an empty book of its own.
    pub fn injector(&self, component: &str) -> FaultInjector {
        // FNV-1a over the component name decorrelates per-component
        // streams without any global state.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in component.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        FaultInjector {
            rate: self.rate,
            mask: self.mask,
            rng: SimRng::seed_from(self.seed ^ h),
            ledger: FaultLedger::default(),
            counters: std::array::from_fn(|_| Counter::detached()),
        }
    }
}

/// One scheduled, entity-scoped fault: at `at`, fail entity `entity` with
/// a `kind` fault lasting `duration`. What an entity index means is the
/// consumer's contract — the rack decodes it per kind (a fabric port, a
/// node, or a `node * tenants + tenant` VF slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection instant.
    pub at: SimTime,
    /// What fails.
    pub kind: FaultKind,
    /// Which entity fails (kind-scoped index).
    pub entity: u32,
    /// How long the fault holds before the entity starts recovering.
    pub duration: SimDuration,
}

/// How many events of one kind a seeded [`FaultSchedule`] draws, and
/// over which entity/duration ranges.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleSpec {
    /// Fault kind every drawn event carries.
    pub kind: FaultKind,
    /// Events to draw.
    pub count: u32,
    /// Entity indices are drawn uniformly from `0..entities`.
    pub entities: u32,
    /// Durations are drawn uniformly from `[min_duration, max_duration]`.
    pub min_duration: SimDuration,
    /// Upper duration bound (inclusive).
    pub max_duration: SimDuration,
}

/// A deterministic, time-ordered schedule of entity-scoped faults — the
/// scripted half of chaos testing, complementing the per-opportunity
/// Bernoulli rolls of [`FaultInjector`]. Events are kept sorted by
/// `(at, kind, entity)` so two schedules built from the same inputs are
/// byte-identical regardless of push order.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Adds one event, keeping the canonical order.
    pub fn push(&mut self, ev: FaultEvent) {
        let key = |e: &FaultEvent| (e.at, e.kind.index(), e.entity);
        let pos = self.events.partition_point(|e| key(e) <= key(&ev));
        self.events.insert(pos, ev);
    }

    /// Draws a schedule from `seed`: for each spec, `count` events with
    /// uniformly random instants in `[window_start, window_end)`, entities
    /// in `0..entities` and durations in `[min_duration, max_duration]`.
    /// Same inputs, same schedule — the `--fault-seed` contract.
    ///
    /// # Panics
    ///
    /// Panics on an empty or inverted time window.
    pub fn seeded(
        seed: u64,
        window_start: SimTime,
        window_end: SimTime,
        specs: &[ScheduleSpec],
    ) -> FaultSchedule {
        assert!(window_end > window_start, "empty fault window");
        let span = window_end.saturating_since(window_start).as_picos();
        let mut rng = SimRng::seed_from(seed ^ 0x5EED_FA17);
        let mut sched = FaultSchedule::new();
        for spec in specs {
            for _ in 0..spec.count {
                let at = window_start + SimDuration::from_picos(rng.next_below(span.max(1)));
                let entity = rng.next_below(spec.entities.max(1) as u64) as u32;
                let lo = spec.min_duration.as_picos();
                let hi = spec.max_duration.as_picos().max(lo);
                let duration = SimDuration::from_picos(rng.range_inclusive(lo.max(1), hi.max(1)));
                sched.push(FaultEvent {
                    at,
                    kind: spec.kind,
                    entity,
                    duration,
                });
            }
        }
        sched
    }

    /// The events in canonical order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// How one injected fault was ultimately accounted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The system absorbed the fault transparently (retransmission,
    /// queue re-init, transient stall).
    Recovered,
    /// Graceful degradation: the affected packet was dropped and a drop
    /// counter incremented.
    DroppedCounted,
    /// Recovery was abandoned (retry budget exhausted, QP in error).
    Terminal,
}

/// How a [`FaultLedger`] books one injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Booking {
    /// Resolved on the spot as the outcome, the duration (if any) being
    /// its time to recover.
    Resolved(FaultOutcome, Option<SimDuration>),
    /// Left open from this instant until a later resolution closes it.
    Open(SimTime),
}

/// One system's fault-accounting book: injections on one side,
/// resolutions (recovered / dropped-and-counted / terminal) on the
/// other, with a time-to-recover histogram for the Perfetto recovery
/// windows. Each book has one owner — a system's [`FaultInjector`], or
/// the rack's scheduled-fault state — and is read after a run through
/// the counters it mirrors into and the metrics it exports.
#[derive(Debug, Default)]
pub struct FaultLedger {
    injected: [u64; FaultKind::ALL.len()],
    recovered: u64,
    dropped_counted: u64,
    terminal: u64,
    /// Injected-but-unresolved faults awaiting recovery, oldest first.
    open: VecDeque<(FaultKind, SimTime)>,
    recovery_ns: Histogram,
    /// Counter-tree mirrors of the three resolution totals, detached
    /// until [`FaultLedger::wire_counters`] resolves them.
    recovered_ctr: Counter,
    dropped_counted_ctr: Counter,
    terminal_ctr: Counter,
    /// Per kind, the `faults/<entity>/<kind>` leaves of the wired tree
    /// across entities — what [`FaultLedger::attribution_audit`] holds
    /// the book to. Empty until [`FaultLedger::wire_counters`].
    attributed: Vec<CounterSum>,
}

impl FaultLedger {
    /// Total faults injected so far.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Faults resolved as transparently recovered.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Injected faults still awaiting resolution.
    pub fn open(&self) -> u64 {
        self.open.len() as u64
    }

    /// Injections with neither a resolution nor an open entry — zero
    /// whenever the ledger invariant holds.
    pub fn unaccounted(&self) -> u64 {
        let accounted = self.recovered + self.dropped_counted + self.terminal;
        self.injected_total()
            .saturating_sub(accounted + self.open())
    }

    /// Books one injection of `kind` as `booking`. An injector books its
    /// own hits; a caller booking a *scheduled* fault ([`FaultSchedule`])
    /// is responsible for attributing it to a `faults/<entity>/<kind>`
    /// counter path (the attribution audit holds it to that).
    pub fn book(&mut self, kind: FaultKind, booking: Booking) {
        self.injected[kind.index()] += 1;
        match booking {
            Booking::Resolved(outcome, latency) => self.resolve(outcome, latency),
            Booking::Open(at) => self.open.push_back((kind, at)),
        }
    }

    fn resolve(&mut self, outcome: FaultOutcome, latency: Option<SimDuration>) {
        match outcome {
            FaultOutcome::Recovered => {
                self.recovered += 1;
                self.recovered_ctr.inc();
            }
            FaultOutcome::DroppedCounted => {
                self.dropped_counted += 1;
                self.dropped_counted_ctr.inc();
            }
            FaultOutcome::Terminal => {
                self.terminal += 1;
                self.terminal_ctr.inc();
            }
        }
        if let Some(d) = latency {
            self.recovery_ns.record(d.as_nanos());
        }
    }

    /// Resolves the *specific* open fault `(kind, opened_at)` with
    /// `outcome`, crediting `now - opened_at` as its time-to-recover.
    /// Returns whether a matching open entry existed. Unlike
    /// [`FaultLedger::resolve_open_through`], this never touches other
    /// still-open faults, so overlapping entity-scoped outages resolve
    /// independently as each entity's health returns.
    pub fn resolve_open(
        &mut self,
        kind: FaultKind,
        opened_at: SimTime,
        now: SimTime,
        outcome: FaultOutcome,
    ) -> bool {
        match self
            .open
            .iter()
            .position(|&(k, at)| k == kind && at == opened_at)
        {
            Some(pos) => {
                self.open.remove(pos);
                self.resolve(outcome, Some(now.saturating_since(opened_at)));
                true
            }
            None => false,
        }
    }

    /// Resolves every open fault injected at or before `now` as recovered,
    /// crediting each with its time-to-recover. Returns how many resolved.
    pub fn resolve_open_through(&mut self, now: SimTime) -> u64 {
        let mut n = 0;
        while let Some(&(_, at)) = self.open.front() {
            if at > now {
                break;
            }
            self.open.pop_front();
            self.resolve(FaultOutcome::Recovered, Some(now.saturating_since(at)));
            n += 1;
        }
        n
    }

    /// Resolves every open fault as terminal (a QP gave up; nothing will
    /// recover them).
    pub fn fail_open(&mut self) -> u64 {
        let mut n = 0;
        while self.open.pop_front().is_some() {
            self.resolve(FaultOutcome::Terminal, None);
            n += 1;
        }
        n
    }

    /// Fault-aware conservation: every injected fault is accounted for as
    /// recovered, dropped-and-counted, terminal, or still open awaiting
    /// recovery.
    pub fn audit(&self, at: SimTime, component: &str, auditor: &mut Auditor) {
        let (injected, open) = (self.injected_total(), self.open());
        let (recovered, dropped_counted, terminal) =
            (self.recovered, self.dropped_counted, self.terminal);
        let accounted = recovered + dropped_counted + terminal + open;
        auditor.check(
            at,
            component,
            "fault-accounting",
            injected == accounted,
            || {
                format!(
                    "injected {injected} != recovered {recovered} + dropped_counted \
                 {dropped_counted} + terminal {terminal} + open {open} (= {accounted})"
                )
            },
        );
    }

    /// The drained-run check: no fault may still be open once the
    /// calendar is empty.
    pub fn drained_audit(&self, at: SimTime, component: &str, auditor: &mut Auditor) {
        let open = self.open();
        auditor.check(at, component, "fault-accounting", open == 0, || {
            format!("drained run left {open} injected faults unresolved")
        });
    }

    /// Mirrors the three resolution totals into `tree` as
    /// `recovery/recovered`, `recovery/dropped_counted` and
    /// `recovery/terminal`, so one counters artifact carries injection
    /// attribution *and* recovery accounting. Resolutions recorded
    /// before wiring are carried over. Also resolves the per-kind
    /// attribution groups the audit reads, so `tree` is the tree
    /// [`FaultLedger::attribution_audit`] checks against.
    pub fn wire_counters(&mut self, tree: &CounterTree) {
        self.attributed = FaultKind::ALL
            .iter()
            .map(|kind| CounterSum::leaves(tree, "faults", kind.name()))
            .collect();
        self.recovered_ctr = tree.counter("recovery/recovered");
        self.recovered_ctr.add(self.recovered);
        self.dropped_counted_ctr = tree.counter("recovery/dropped_counted");
        self.dropped_counted_ctr.add(self.dropped_counted);
        self.terminal_ctr = tree.counter("recovery/terminal");
        self.terminal_ctr.add(self.terminal);
    }

    /// The counter-telescoping check for fault accounting: every
    /// injected fault of every kind must be attributed to a per-entity
    /// `faults/<entity>/<kind>` counter path in the tree this ledger was
    /// wired into, and the `recovery/*` mirrors must match the book.
    /// Holds whenever whoever books into this ledger attributes every
    /// injection in that tree (a wired [`FaultInjector`] does); a booking
    /// with no counter path trips it by design. Reads only handles
    /// resolved by [`FaultLedger::wire_counters`] (an unwired ledger
    /// attributes nothing).
    pub fn attribution_audit(&mut self, at: SimTime, component: &str, auditor: &mut Auditor) {
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            let injected = self.injected[i];
            let attributed = self.attributed.get_mut(i).map_or(0, CounterSum::get);
            auditor.check(at, component, "fault-attribution", attributed == injected, || {
                format!(
                    "{} faults of kind {} injected but only {} attributed to faults/<entity>/{} counter paths",
                    injected,
                    kind.name(),
                    attributed,
                    kind.name()
                )
            });
        }
        for (mirror, book) in [
            (&self.recovered_ctr, self.recovered),
            (&self.dropped_counted_ctr, self.dropped_counted),
            (&self.terminal_ctr, self.terminal),
        ] {
            let ctr = mirror.get();
            auditor.check(at, component, "fault-attribution", ctr == book, || {
                format!(
                    "counter {} reads {ctr} but the ledger books {book}",
                    mirror.path()
                )
            });
        }
    }

    /// Exports the book under `faults.*` / `recovery.*`. Every kind key is
    /// always present so snapshots stay byte-comparable across runs.
    pub fn export(&self, registry: &mut MetricsRegistry) {
        registry.counter("faults.injected", self.injected_total());
        for kind in FaultKind::ALL {
            registry.counter(
                format!("faults.injected.{}", kind.name()),
                self.injected[kind.index()],
            );
        }
        registry.counter("recovery.recovered", self.recovered);
        registry.counter("recovery.dropped_counted", self.dropped_counted);
        registry.counter("recovery.terminal", self.terminal);
        registry.counter("recovery.open", self.open());
        registry.histogram("recovery.time_ns", &self.recovery_ns);
        // Scalar mirrors of the recovery-time distribution, so MTTR is
        // readable straight from a --json report without the timeline.
        registry.counter("recovery.time_p50_ns", self.recovery_ns.percentile(50.0));
        registry.counter("recovery.time_p99_ns", self.recovery_ns.percentile(99.0));
        registry.counter("recovery.time_max_ns", self.recovery_ns.max());
    }
}

/// One system's handle on a [`FaultPlan`]: rolls injection decisions
/// from its own deterministic stream and books every hit in the
/// [`FaultLedger`] it owns.
#[derive(Debug)]
pub struct FaultInjector {
    rate: f64,
    mask: u16,
    rng: SimRng,
    ledger: FaultLedger,
    /// Per-kind counter-tree handles (`faults/<entity>/<kind>`),
    /// detached until [`FaultInjector::wire_counters`].
    counters: [Counter; FaultKind::ALL.len()],
}

impl FaultInjector {
    /// Attributes this injector's future injections to
    /// `faults/<entity>/<kind>` counter paths in `tree` and mirrors its
    /// ledger's resolutions there, so [`FaultLedger::attribution_audit`]
    /// can prove that no injected fault lacks a per-entity counter path.
    pub fn wire_counters(&mut self, tree: &CounterTree, entity: &str) {
        for kind in FaultKind::ALL {
            self.counters[kind.index()] = tree.counter(&format!("faults/{entity}/{}", kind.name()));
        }
        self.ledger.wire_counters(tree);
    }

    /// This injector's `faults/<entity>/<kind>` counter (detached until
    /// [`FaultInjector::wire_counters`]) — what a system's audit compares
    /// a component's own fault-visible counter against.
    pub fn counter(&self, kind: FaultKind) -> &Counter {
        &self.counters[kind.index()]
    }

    /// Rolls one injection opportunity for `kind`: `true` with the plan's
    /// probability when the kind is enabled. Disabled kinds consume no
    /// randomness, so narrowing a plan's kind set does not perturb the
    /// remaining kinds' streams relative to chance order at each site.
    fn roll(&mut self, kind: FaultKind) -> bool {
        if self.mask & kind.bit() == 0 || self.rate <= 0.0 {
            return false;
        }
        if !self.rng.chance(self.rate) {
            return false;
        }
        self.counters[kind.index()].inc();
        true
    }

    /// One fault point: rolls `kind` and, on a hit, books it as
    /// `booking`. Returns whether the fault fired.
    pub fn hit(&mut self, kind: FaultKind, booking: Booking) -> bool {
        let fired = self.roll(kind);
        if fired {
            self.ledger.book(kind, booking);
        }
        fired
    }

    /// A fault point with a magnitude (reorder delays, stall lengths):
    /// rolls `kind` and, on a hit, draws a duration uniform in
    /// `[1 ps, max]` from the same stream, books the hit as
    /// `booking(duration)` and returns the duration.
    pub fn hit_for(
        &mut self,
        kind: FaultKind,
        max: SimDuration,
        booking: impl FnOnce(SimDuration) -> Booking,
    ) -> Option<SimDuration> {
        if !self.roll(kind) {
            return None;
        }
        let d = SimDuration::from_picos(self.rng.range_inclusive(1, max.as_picos().max(1)));
        self.ledger.book(kind, booking(d));
        Some(d)
    }

    /// The book.
    pub fn ledger(&self) -> &FaultLedger {
        &self.ledger
    }

    /// The book, for resolutions that happen after the hit (transport
    /// recovery, terminal failure, end-of-run closing).
    pub fn ledger_mut(&mut self) -> &mut FaultLedger {
        &mut self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::parse("meteor_strike"), None);
    }

    #[test]
    fn csv_selects_kinds() {
        let plan = FaultPlan::new(0.5, 1)
            .with_kinds_csv("drop, rnr,cqe_error")
            .unwrap();
        assert!(plan.enables(FaultKind::LinkDrop));
        assert!(plan.enables(FaultKind::Rnr));
        assert!(plan.enables(FaultKind::CqeError));
        assert!(!plan.enables(FaultKind::LinkCorrupt));
        assert!(FaultPlan::new(0.5, 1).with_kinds_csv("drop,nope").is_err());
    }

    const DROPPED: Booking = Booking::Resolved(FaultOutcome::DroppedCounted, None);
    const RECOVERED: Booking = Booking::Resolved(FaultOutcome::Recovered, None);

    #[test]
    fn disabled_plan_never_fires() {
        let mut inj = FaultPlan::disabled().injector("x");
        for _ in 0..10_000 {
            assert!(!inj.hit(FaultKind::LinkDrop, DROPPED));
        }
        assert_eq!(inj.ledger().injected_total(), 0);
    }

    #[test]
    fn rolls_are_deterministic_per_component() {
        let plan = FaultPlan::new(0.2, 42);
        let run = |component: &str| {
            let mut inj = plan.injector(component);
            (0..1000)
                .map(|_| inj.hit(FaultKind::LinkDrop, DROPPED))
                .collect::<Vec<_>>()
        };
        assert_eq!(run("wire"), run("wire"));
        assert_ne!(run("wire"), run("pcie"), "streams must decorrelate");
    }

    #[test]
    fn ledger_balances_and_audits() {
        let plan = FaultPlan::new(1.0, 7);
        let mut inj = plan.injector("a");
        assert!(inj.hit(FaultKind::LinkCorrupt, DROPPED));
        let t0 = SimTime::from_nanos(100);
        assert!(inj.hit(FaultKind::LinkDrop, Booking::Open(t0)));
        let ledger = inj.ledger_mut();
        assert_eq!(ledger.open(), 1);
        assert_eq!(ledger.unaccounted(), 0);

        let mut auditor = Auditor::new();
        ledger.audit(SimTime::from_nanos(150), "faults", &mut auditor);
        assert_eq!(auditor.report().violations, 0);

        // Recovery credits the time-to-recover histogram.
        assert_eq!(ledger.resolve_open_through(SimTime::from_nanos(400)), 1);
        assert_eq!(ledger.recovered(), 1);
        assert_eq!(ledger.open(), 0);
        let mut m = MetricsRegistry::new();
        ledger.export(&mut m);
        assert_eq!(m.counter_value("faults.injected"), Some(2));
        assert_eq!(m.counter_value("recovery.dropped_counted"), Some(1));
        assert_eq!(m.counter_value("recovery.time_p50_ns"), Some(300));
        assert_eq!(m.counter_value("recovery.time_max_ns"), Some(300));
    }

    #[test]
    fn a_drawn_magnitude_is_the_recovery_latency() {
        let mut inj = FaultPlan::new(1.0, 5).injector("accel");
        let max = SimDuration::from_micros(5);
        let d = inj
            .hit_for(FaultKind::AccelStall, max, |d| {
                Booking::Resolved(FaultOutcome::Recovered, Some(d))
            })
            .expect("rate 1 always fires");
        assert!(d > SimDuration::ZERO && d <= max);
        let mut m = MetricsRegistry::new();
        inj.ledger().export(&mut m);
        assert_eq!(m.counter_value("recovery.recovered"), Some(1));
        assert_eq!(m.counter_value("recovery.time_max_ns"), Some(d.as_nanos()));
    }

    #[test]
    fn unbalanced_ledger_fails_audit() {
        let mut ledger = FaultLedger::default();
        ledger.book(FaultKind::MalformedWqe, RECOVERED);
        // A second injection whose resolution is lost: the injection count
        // runs ahead of every accounting entry.
        ledger.injected[FaultKind::MalformedWqe.index()] += 1;
        assert_eq!(ledger.unaccounted(), 1);
        let mut auditor = Auditor::new();
        ledger.audit(SimTime::ZERO, "faults", &mut auditor);
        assert_eq!(auditor.report().violations, 1);
    }

    #[test]
    fn wired_injectors_attribute_every_fault_to_a_counter_path() {
        let tree = CounterTree::new();
        let plan = FaultPlan::new(1.0, 3);
        let mut inj = plan.injector("fld");
        inj.wire_counters(&tree, "fld");
        for _ in 0..2 {
            assert!(inj.hit(FaultKind::LinkDrop, DROPPED));
        }
        assert!(inj.hit(FaultKind::AccelStall, RECOVERED));
        assert_eq!(tree.snapshot().get("faults/fld/drop"), Some(2));
        assert_eq!(tree.snapshot().get("faults/fld/accel_stall"), Some(1));
        assert_eq!(tree.snapshot().get("recovery/dropped_counted"), Some(2));
        assert_eq!(tree.snapshot().get("recovery/recovered"), Some(1));
        let mut auditor = Auditor::new();
        inj.ledger_mut()
            .attribution_audit(SimTime::ZERO, "faults", &mut auditor);
        assert_eq!(auditor.report().violations, 0);
        // A booking with no counter path behind it is a fault the tree
        // cannot attribute: the attribution audit must catch exactly that.
        inj.ledger_mut().book(FaultKind::Rnr, RECOVERED);
        let mut auditor = Auditor::new();
        inj.ledger_mut()
            .attribution_audit(SimTime::ZERO, "faults", &mut auditor);
        assert_eq!(auditor.report().violations, 1);
    }

    #[test]
    fn terminal_faults_close_the_books() {
        let mut inj = FaultPlan::new(1.0, 9).injector("qp");
        for _ in 0..3 {
            assert!(inj.hit(FaultKind::LinkDrop, Booking::Open(SimTime::ZERO)));
        }
        let ledger = inj.ledger_mut();
        assert_eq!(ledger.fail_open(), 3);
        assert_eq!((ledger.open(), ledger.unaccounted()), (0, 0));
        let mut m = MetricsRegistry::new();
        ledger.export(&mut m);
        assert_eq!(m.counter_value("recovery.terminal"), Some(3));
        let mut auditor = Auditor::new();
        ledger.drained_audit(SimTime::ZERO, "faults", &mut auditor);
        assert_eq!(auditor.report().violations, 0);
    }

    #[test]
    fn schedule_keeps_canonical_order_regardless_of_push_order() {
        let ev = |at_ns: u64, kind: FaultKind, entity: u32| FaultEvent {
            at: SimTime::from_nanos(at_ns),
            kind,
            entity,
            duration: SimDuration::from_nanos(10),
        };
        let mut a = FaultSchedule::new();
        a.push(ev(300, FaultKind::NodeCrash, 1));
        a.push(ev(100, FaultKind::VfUnplug, 2));
        a.push(ev(100, FaultKind::FabricLinkFlap, 7));
        a.push(ev(100, FaultKind::FabricLinkFlap, 3));
        let mut b = FaultSchedule::new();
        b.push(ev(100, FaultKind::FabricLinkFlap, 3));
        b.push(ev(100, FaultKind::FabricLinkFlap, 7));
        b.push(ev(100, FaultKind::VfUnplug, 2));
        b.push(ev(300, FaultKind::NodeCrash, 1));
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events()[0].entity, 3, "same (at, kind) orders by entity");
        assert_eq!(
            a.events()[2].kind,
            FaultKind::VfUnplug,
            "kind breaks at ties"
        );
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_bounded() {
        let specs = [
            ScheduleSpec {
                kind: FaultKind::FabricLinkFlap,
                count: 5,
                entities: 4,
                min_duration: SimDuration::from_micros(10),
                max_duration: SimDuration::from_micros(50),
            },
            ScheduleSpec {
                kind: FaultKind::NodeCrash,
                count: 2,
                entities: 3,
                min_duration: SimDuration::from_micros(100),
                max_duration: SimDuration::from_micros(100),
            },
        ];
        let window = (SimTime::from_micros(100), SimTime::from_micros(900));
        let a = FaultSchedule::seeded(42, window.0, window.1, &specs);
        let b = FaultSchedule::seeded(42, window.0, window.1, &specs);
        assert_eq!(a.events(), b.events());
        let c = FaultSchedule::seeded(43, window.0, window.1, &specs);
        assert_ne!(a.events(), c.events(), "seed must matter");
        assert_eq!(a.len(), 7);
        for ev in a.events() {
            assert!(ev.at >= window.0 && ev.at < window.1);
            let spec = specs.iter().find(|s| s.kind == ev.kind).unwrap();
            assert!(ev.entity < spec.entities);
            assert!(ev.duration >= spec.min_duration && ev.duration <= spec.max_duration);
        }
        assert!(
            a.events().windows(2).all(|w| w[0].at <= w[1].at),
            "seeded schedule must come out time-sorted"
        );
    }

    #[test]
    fn scheduled_inject_and_targeted_resolve_balance() {
        let mut ledger = FaultLedger::default();
        let t0 = SimTime::from_nanos(100);
        let t1 = SimTime::from_nanos(250);
        ledger.book(FaultKind::NodeCrash, Booking::Open(t0));
        ledger.book(FaultKind::FabricLinkFlap, Booking::Open(t1));
        assert_eq!(ledger.open(), 2);
        assert_eq!(ledger.unaccounted(), 0);

        // Resolving a specific (kind, at) pair leaves the other open
        // fault untouched, even though it opened earlier in time.
        assert!(!ledger.resolve_open(
            FaultKind::VfUnplug,
            t0,
            SimTime::from_nanos(300),
            FaultOutcome::Recovered
        ));
        assert!(ledger.resolve_open(
            FaultKind::FabricLinkFlap,
            t1,
            SimTime::from_nanos(400),
            FaultOutcome::Recovered
        ));
        assert_eq!(ledger.open(), 1);
        assert_eq!(ledger.recovered(), 1);
        assert!(ledger.resolve_open(
            FaultKind::NodeCrash,
            t0,
            SimTime::from_nanos(900),
            FaultOutcome::Recovered
        ));
        assert_eq!(ledger.open(), 0);
        assert_eq!(ledger.unaccounted(), 0);

        // Satellite: the recovery distribution is exported as scalars.
        let mut m = MetricsRegistry::new();
        ledger.export(&mut m);
        assert_eq!(m.counter_value("faults.injected.node_crash"), Some(1));
        assert_eq!(m.counter_value("recovery.time_max_ns"), Some(800));
        assert!(m.counter_value("recovery.time_p50_ns").unwrap() >= 150);
        assert!(m.counter_value("recovery.time_p99_ns").unwrap() <= 800);
    }
}
