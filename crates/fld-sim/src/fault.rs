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
//! [`FaultLedger`] counts each injection in the system's counter tree and
//! tracks it until it is resolved as *recovered* (the system absorbed it
//! transparently: a retransmission, a queue re-init, a stall that only
//! cost time), *dropped-and-counted* (graceful degradation: the packet is
//! gone but a drop counter knows), or *terminal* (a QP entered its error
//! state and gave up). [`FaultLedger::audit`] closes the loop over that
//! tree at every [`Auditor`] tick: nothing silently vanishes.

use std::collections::VecDeque;

use crate::audit::Auditor;
use crate::counters::{Counter, CounterSum, CounterTree};
use crate::engine::Probes;
use crate::health::MTTR_PATH;
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
    /// an empty book of its own kept in `tree`, where the injector's hits
    /// count under `faults/<component>/<kind>`.
    pub fn injector(&self, component: &str, tree: &CounterTree) -> FaultInjector {
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
            ledger: FaultLedger::new(tree),
            counters: FaultKind::ALL
                .map(|kind| tree.counter(&format!("{INJECTIONS}/{component}/{}", kind.name()))),
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

impl FaultOutcome {
    /// Every outcome, in the order a [`FaultLedger`] holds their leaves.
    const ALL: [FaultOutcome; 3] = [
        FaultOutcome::Recovered,
        FaultOutcome::DroppedCounted,
        FaultOutcome::Terminal,
    ];

    /// The `recovery/<name>` leaf and `recovery.<name>` metric.
    fn name(self) -> &'static str {
        match self {
            FaultOutcome::Recovered => "recovered",
            FaultOutcome::DroppedCounted => "dropped_counted",
            FaultOutcome::Terminal => "terminal",
        }
    }
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

/// The subtree injections are counted under: `faults/<entity>/<kind>`.
const INJECTIONS: &str = "faults";
/// The subtree resolutions are counted under: `recovery/<outcome>`.
const RESOLUTIONS: &str = "recovery";

/// Faults a book cannot account for: how far `injected` is from
/// `resolved + open`, either way. Zero exactly when the
/// `fault-accounting` clause holds.
pub fn unaccounted(injected: u64, resolved: u64, open: u64) -> u64 {
    injected.abs_diff(resolved + open)
}

/// One system's fault-accounting book, kept in its counter tree: an
/// injection is one increment of a `faults/<entity>/<kind>` leaf, a
/// resolution (recovered / dropped-and-counted / terminal) one of
/// `recovery/<outcome>`, and the ledger makes both. It holds only what
/// the tree cannot: the queue of open faults and the time-to-recover
/// histogram for the Perfetto recovery windows. Each book has one owner
/// — a system's [`FaultInjector`], or the rack's scheduled-fault state.
#[derive(Debug)]
pub struct FaultLedger {
    /// Injected-but-unresolved faults awaiting recovery, oldest first.
    open: VecDeque<(FaultKind, SimTime)>,
    recovery_ns: Histogram,
    /// `recovery/<outcome>`, in [`FaultOutcome::ALL`] order.
    resolutions: [Counter; 3],
    /// Every leaf under `faults/`.
    injected: CounterSum,
    /// Every leaf under `recovery/`.
    resolved: CounterSum,
    /// The health watchdog's repair-time total ([`MTTR_PATH`]): the one
    /// leaf under `recovery/` that sums nanoseconds, not faults.
    repair_ns: CounterSum,
    tree: CounterTree,
}

impl FaultLedger {
    /// An empty book kept in `tree`: registers the three resolution
    /// leaves; an injection leaf is registered by whoever books into it.
    pub fn new(tree: &CounterTree) -> FaultLedger {
        FaultLedger {
            open: VecDeque::new(),
            recovery_ns: Histogram::new(),
            resolutions: FaultOutcome::ALL
                .map(|o| tree.counter(&format!("{RESOLUTIONS}/{}", o.name()))),
            injected: CounterSum::under(tree, INJECTIONS),
            resolved: CounterSum::under(tree, RESOLUTIONS),
            repair_ns: CounterSum::under(tree, MTTR_PATH),
            tree: tree.clone(),
        }
    }

    /// Faults injected so far: `Σ faults/**`.
    pub fn injected(&mut self) -> u64 {
        self.injected.get()
    }

    /// Faults resolved so far: `Σ recovery/**` less the repair time.
    fn resolved(&mut self) -> u64 {
        self.resolved.get() - self.repair_ns.get()
    }

    /// Faults resolved as transparently recovered.
    pub fn recovered(&self) -> u64 {
        self.resolutions[FaultOutcome::Recovered as usize].get()
    }

    /// Injected faults still awaiting resolution.
    pub fn open(&self) -> u64 {
        self.open.len() as u64
    }

    /// The [`unaccounted`] faults of this book's tree.
    pub fn unaccounted(&mut self) -> u64 {
        let (injected, resolved) = (self.injected(), self.resolved());
        unaccounted(injected, resolved, self.open())
    }

    /// Books one injection of `kind` as `booking`, counting it on
    /// `leaf`: the booker's `faults/<entity>/<kind>` counter.
    pub fn book(&mut self, kind: FaultKind, leaf: &Counter, booking: Booking) {
        leaf.inc();
        match booking {
            Booking::Resolved(outcome, latency) => self.resolve(outcome, latency),
            Booking::Open(at) => self.open.push_back((kind, at)),
        }
    }

    fn resolve(&mut self, outcome: FaultOutcome, latency: Option<SimDuration>) {
        self.resolutions[outcome as usize].inc();
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

    /// The fault-accounting clause, over the tree the book is kept in:
    /// `Σ faults/** == Σ recovery/** + open`, exactly. A rogue leaf
    /// under either subtree, an injection with neither a resolution nor
    /// an open entry, and a resolution with no injection all break it.
    pub fn audit(&mut self, at: SimTime, component: &str, auditor: &mut Auditor) {
        let (injected, resolved, open) = (self.injected(), self.resolved(), self.open());
        let ok = unaccounted(injected, resolved, open) == 0;
        auditor.check(at, component, "fault-accounting", ok, || {
            format!("faults/** sum to {injected}, recovery/** to {resolved} with {open} open")
        });
    }

    /// The drained-run check: no fault may still be open once the
    /// calendar is empty.
    pub fn drained_audit(&self, at: SimTime, component: &str, auditor: &mut Auditor) {
        let open = self.open();
        auditor.check(at, component, "fault-accounting", open == 0, || {
            format!("drained run left {open} injected faults unresolved")
        });
    }

    /// The flight recorder's fault series, appended after every other
    /// series of a tick: `faults.injected`, `faults.open` and
    /// `recovery.recovered`.
    pub fn probes(&mut self, out: &mut Probes) {
        out.push("faults.injected", self.injected() as f64);
        out.push("faults.open", self.open() as f64);
        out.push("recovery.recovered", self.recovered() as f64);
    }

    /// Exports the book under `faults.*` / `recovery.*`. Every kind key is
    /// always present so snapshots stay byte-comparable across runs.
    pub fn export(&mut self, registry: &mut MetricsRegistry) {
        registry.counter("faults.injected", self.injected());
        for kind in FaultKind::ALL {
            registry.counter(
                format!("faults.injected.{}", kind.name()),
                self.tree.sum_leaf(INJECTIONS, kind.name()),
            );
        }
        for (outcome, leaf) in FaultOutcome::ALL.iter().zip(&self.resolutions) {
            registry.counter(format!("recovery.{}", outcome.name()), leaf.get());
        }
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
    /// This injector's `faults/<entity>/<kind>` leaves, per kind.
    counters: [Counter; FaultKind::ALL.len()],
}

impl FaultInjector {
    /// This injector's `faults/<entity>/<kind>` counter — what a
    /// system's audit compares a component's own fault-visible counter
    /// against.
    pub fn counter(&self, kind: FaultKind) -> &Counter {
        &self.counters[kind.index()]
    }

    /// Rolls one injection opportunity for `kind`: `true` with the plan's
    /// probability when the kind is enabled. Disabled kinds consume no
    /// randomness, so narrowing a plan's kind set does not perturb the
    /// remaining kinds' streams relative to chance order at each site.
    fn roll(&mut self, kind: FaultKind) -> bool {
        self.mask & kind.bit() != 0 && self.rate > 0.0 && self.rng.chance(self.rate)
    }

    /// One fault point: rolls `kind` and, on a hit, books it as
    /// `booking`. Returns whether the fault fired.
    pub fn hit(&mut self, kind: FaultKind, booking: Booking) -> bool {
        let fired = self.roll(kind);
        if fired {
            self.ledger
                .book(kind, &self.counters[kind.index()], booking);
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
        self.ledger
            .book(kind, &self.counters[kind.index()], booking(d));
        Some(d)
    }

    /// The book: its clause, series and export, and the resolutions that
    /// happen after the hit (transport recovery, terminal failure,
    /// end-of-run closing).
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

    /// `component`'s injector under `plan`, kept in a tree of its own.
    fn injector(plan: FaultPlan, component: &str) -> FaultInjector {
        plan.injector(component, &CounterTree::new())
    }

    /// How many violations one run of `ledger`'s clause records.
    fn violations(ledger: &mut FaultLedger) -> u64 {
        let mut auditor = Auditor::new();
        ledger.audit(SimTime::ZERO, "faults", &mut auditor);
        auditor.report().violations
    }

    #[test]
    fn disabled_plan_never_fires() {
        let mut inj = injector(FaultPlan::disabled(), "x");
        for _ in 0..10_000 {
            assert!(!inj.hit(FaultKind::LinkDrop, DROPPED));
        }
        assert_eq!(inj.ledger_mut().injected(), 0);
    }

    #[test]
    fn rolls_are_deterministic_per_component() {
        let plan = FaultPlan::new(0.2, 42);
        let run = |component: &str| {
            let mut inj = injector(plan, component);
            (0..1000)
                .map(|_| inj.hit(FaultKind::LinkDrop, DROPPED))
                .collect::<Vec<_>>()
        };
        assert_eq!(run("wire"), run("wire"));
        assert_ne!(run("wire"), run("pcie"), "streams must decorrelate");
    }

    #[test]
    fn ledger_balances_and_audits() {
        let mut inj = injector(FaultPlan::new(1.0, 7), "a");
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
        let mut inj = injector(FaultPlan::new(1.0, 5), "accel");
        let max = SimDuration::from_micros(5);
        let d = inj
            .hit_for(FaultKind::AccelStall, max, |d| {
                Booking::Resolved(FaultOutcome::Recovered, Some(d))
            })
            .expect("rate 1 always fires");
        assert!(d > SimDuration::ZERO && d <= max);
        let mut m = MetricsRegistry::new();
        inj.ledger_mut().export(&mut m);
        assert_eq!(m.counter_value("recovery.recovered"), Some(1));
        assert_eq!(m.counter_value("recovery.time_max_ns"), Some(d.as_nanos()));
    }

    /// The clause reads the tree, so a count changed behind the book's
    /// back breaks it from either side.
    #[test]
    fn unbalanced_ledger_fails_audit() {
        let tree = CounterTree::new();
        let mut ledger = FaultLedger::new(&tree);
        let leaf = tree.counter("faults/nic/malformed_wqe");
        ledger.book(FaultKind::MalformedWqe, &leaf, RECOVERED);
        assert_eq!(violations(&mut ledger), 0);
        // A second injection whose resolution is lost: the injection count
        // runs ahead of every accounting entry.
        leaf.inc();
        assert_eq!(ledger.unaccounted(), 1);
        assert_eq!(violations(&mut ledger), 1);
        // Two resolutions nothing injected: now the other side leads.
        tree.counter("recovery/lost").add(2);
        assert_eq!(ledger.unaccounted(), 1);
        assert_eq!(violations(&mut ledger), 1);
    }

    #[test]
    fn wired_injectors_attribute_every_fault_to_a_counter_path() {
        let tree = CounterTree::new();
        let mut inj = FaultPlan::new(1.0, 3).injector("fld", &tree);
        for _ in 0..2 {
            assert!(inj.hit(FaultKind::LinkDrop, DROPPED));
        }
        assert!(inj.hit(FaultKind::AccelStall, RECOVERED));
        let snap = tree.snapshot();
        assert_eq!(snap.get("faults/fld/drop"), Some(2));
        assert_eq!(snap.get("faults/fld/accel_stall"), Some(1));
        assert_eq!(snap.get("recovery/dropped_counted"), Some(2));
        assert_eq!(snap.get("recovery/recovered"), Some(1));
        assert_eq!(violations(inj.ledger_mut()), 0);
        // A booking with no counter path behind it is a fault the tree
        // cannot attribute: its resolution has no injection.
        inj.ledger_mut()
            .book(FaultKind::Rnr, &Counter::detached(), RECOVERED);
        assert_eq!(violations(inj.ledger_mut()), 1);
    }

    /// The health watchdog's repair time shares `recovery/` with the
    /// resolutions but is no fault count.
    #[test]
    fn repair_time_is_no_resolution() {
        let tree = CounterTree::new();
        let mut ledger = FaultLedger::new(&tree);
        let leaf = tree.counter("faults/node0/node_crash");
        ledger.book(FaultKind::NodeCrash, &leaf, Booking::Open(SimTime::ZERO));
        tree.counter(MTTR_PATH).add(80_000);
        assert_eq!(violations(&mut ledger), 0);
        ledger.fail_open();
        assert_eq!((ledger.injected(), ledger.unaccounted()), (1, 0));
    }

    #[test]
    fn terminal_faults_close_the_books() {
        let mut inj = injector(FaultPlan::new(1.0, 9), "qp");
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
        let tree = CounterTree::new();
        let mut ledger = FaultLedger::new(&tree);
        let t0 = SimTime::from_nanos(100);
        let t1 = SimTime::from_nanos(250);
        let crash = tree.counter("faults/node1/node_crash");
        let flap = tree.counter("faults/port0/fabric_link_flap");
        ledger.book(FaultKind::NodeCrash, &crash, Booking::Open(t0));
        ledger.book(FaultKind::FabricLinkFlap, &flap, Booking::Open(t1));
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
