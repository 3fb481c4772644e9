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
//! Every injected fault must be accounted for: the shared [`FaultLedger`]
//! tracks each injection until it is resolved as *recovered* (the system
//! absorbed it transparently: a retransmission, a queue re-init, a stall
//! that only cost time), *dropped-and-counted* (graceful degradation: the
//! packet is gone but a drop counter knows), or *terminal* (a QP entered
//! its error state and gave up). The [`Auditor`] closes the loop via
//! [`Auditor::check_fault_accounting`]: nothing silently vanishes.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

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
/// The plan itself is inert configuration (`Copy`); components obtain a
/// [`FaultInjector`] via [`FaultPlan::injector`], all sharing one
/// [`FaultLedger`] so system-wide accounting stays balanced.
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
    /// deterministically from the plan seed and the component name, and
    /// recording into `ledger`.
    pub fn injector(&self, component: &str, ledger: &FaultLedger) -> FaultInjector {
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
            ledger: ledger.clone(),
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

/// A point-in-time scalar summary of one [`FaultLedger`] — the mergeable
/// view a rack uses to fold N per-node ledgers into one rack-level
/// accounting book (Σ per-node summaries) without sharing the ledgers
/// themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Faults injected, all kinds.
    pub injected: u64,
    /// Resolved as transparently recovered.
    pub recovered: u64,
    /// Resolved by dropping-and-counting.
    pub dropped_counted: u64,
    /// Resolved as terminal.
    pub terminal: u64,
    /// Still awaiting resolution.
    pub open: u64,
}

impl LedgerSummary {
    /// Adds `other`'s books to this one (the rack-level merge).
    pub fn absorb(&mut self, other: LedgerSummary) {
        self.injected += other.injected;
        self.recovered += other.recovered;
        self.dropped_counted += other.dropped_counted;
        self.terminal += other.terminal;
        self.open += other.open;
    }

    /// Injections with a closed accounting entry.
    pub fn accounted(&self) -> u64 {
        self.recovered + self.dropped_counted + self.terminal
    }

    /// Injections with no accounting entry at all — zero whenever the
    /// ledger invariant holds.
    pub fn unaccounted(&self) -> u64 {
        self.injected.saturating_sub(self.accounted() + self.open)
    }
}

#[derive(Debug, Default)]
struct LedgerInner {
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

impl LedgerInner {
    fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
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
}

/// The shared fault-accounting book: injections on one side, resolutions
/// (recovered / dropped-and-counted / terminal) on the other, with a
/// time-to-recover histogram for the Perfetto recovery windows.
///
/// Cloning yields another handle on the same book (injectors across a
/// system share one), and the handle is `Send` so systems can move across
/// sweep-runner threads.
#[derive(Debug, Clone, Default)]
pub struct FaultLedger {
    inner: Arc<Mutex<LedgerInner>>,
}

impl FaultLedger {
    /// An empty ledger.
    pub fn new() -> FaultLedger {
        FaultLedger::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerInner> {
        self.inner.lock().expect("fault ledger poisoned")
    }

    /// Total faults injected so far.
    pub fn injected_total(&self) -> u64 {
        self.lock().injected_total()
    }

    /// Faults resolved as transparently recovered.
    pub fn recovered(&self) -> u64 {
        self.lock().recovered
    }

    /// Injected faults still awaiting resolution.
    pub fn open(&self) -> u64 {
        self.lock().open.len() as u64
    }

    /// Snapshots the book as a mergeable [`LedgerSummary`].
    pub fn summary(&self) -> LedgerSummary {
        let b = self.lock();
        LedgerSummary {
            injected: b.injected_total(),
            recovered: b.recovered,
            dropped_counted: b.dropped_counted,
            terminal: b.terminal,
            open: b.open.len() as u64,
        }
    }

    /// Resolves an injection immediately (no open window).
    pub fn resolve(&self, outcome: FaultOutcome, latency: Option<SimDuration>) {
        self.lock().resolve(outcome, latency);
    }

    /// Books one injection of `kind` without an injector roll — the
    /// entry point for *scheduled* faults ([`FaultSchedule`]), which are
    /// decided by the script rather than a Bernoulli stream. The caller
    /// is responsible for attributing the injection to a
    /// `faults/<entity>/<kind>` counter path (the attribution audit
    /// holds it to that).
    pub fn inject(&self, kind: FaultKind) {
        self.lock().injected[kind.index()] += 1;
    }

    /// Resolves the *specific* open fault `(kind, opened_at)` with
    /// `outcome`, crediting `now - opened_at` as its time-to-recover.
    /// Returns whether a matching open entry existed. Unlike
    /// [`FaultLedger::resolve_open_through`], this never touches other
    /// still-open faults, so overlapping entity-scoped outages resolve
    /// independently as each entity's health returns.
    pub fn resolve_open(
        &self,
        kind: FaultKind,
        opened_at: SimTime,
        now: SimTime,
        outcome: FaultOutcome,
    ) -> bool {
        let mut b = self.lock();
        match b
            .open
            .iter()
            .position(|&(k, at)| k == kind && at == opened_at)
        {
            Some(pos) => {
                b.open.remove(pos);
                b.resolve(outcome, Some(now.saturating_since(opened_at)));
                true
            }
            None => false,
        }
    }

    /// Leaves an injection open, awaiting [`FaultLedger::resolve_open_through`].
    pub fn open_fault(&self, kind: FaultKind, at: SimTime) {
        self.lock().open.push_back((kind, at));
    }

    /// Resolves every open fault injected at or before `now` as recovered,
    /// crediting each with its time-to-recover. Returns how many resolved.
    pub fn resolve_open_through(&self, now: SimTime) -> u64 {
        let mut b = self.lock();
        let mut n = 0;
        while let Some(&(_, at)) = b.open.front() {
            if at > now {
                break;
            }
            b.open.pop_front();
            b.resolve(FaultOutcome::Recovered, Some(now.saturating_since(at)));
            n += 1;
        }
        n
    }

    /// Resolves every open fault as terminal (a QP gave up; nothing will
    /// recover them).
    pub fn fail_open(&self) -> u64 {
        let mut b = self.lock();
        let mut n = 0;
        while let Some((_, _)) = b.open.pop_front() {
            b.resolve(FaultOutcome::Terminal, None);
            n += 1;
        }
        n
    }

    /// Runs the fault-accounting conservation check (see
    /// [`Auditor::check_fault_accounting`]).
    pub fn audit(&self, at: SimTime, component: &str, auditor: &mut Auditor) {
        let b = self.lock();
        auditor.check_fault_accounting(
            at,
            component,
            b.injected_total(),
            b.recovered,
            b.dropped_counted,
            b.terminal,
            b.open.len() as u64,
        );
    }

    /// The drained-run check: no fault may still be open once the
    /// calendar is empty.
    pub fn drained_audit(&self, at: SimTime, component: &str, auditor: &mut Auditor) {
        let open = self.lock().open.len() as u64;
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
    pub fn wire_counters(&self, tree: &CounterTree) {
        let mut b = self.lock();
        b.attributed = FaultKind::ALL
            .iter()
            .map(|kind| CounterSum::leaves(tree, "faults", kind.name()))
            .collect();
        b.recovered_ctr = tree.counter("recovery/recovered");
        b.recovered_ctr.add(b.recovered);
        b.dropped_counted_ctr = tree.counter("recovery/dropped_counted");
        b.dropped_counted_ctr.add(b.dropped_counted);
        b.terminal_ctr = tree.counter("recovery/terminal");
        b.terminal_ctr.add(b.terminal);
    }

    /// The counter-telescoping check for fault accounting: every
    /// injected fault of every kind must be attributed to a per-entity
    /// `faults/<entity>/<kind>` counter path in the tree this ledger was
    /// wired into, and the `recovery/*` mirrors must match the book.
    /// Holds whenever every injector recording into this ledger was
    /// wired into that tree (see [`FaultInjector::wire_counters`]); an
    /// unwired injector on a shared ledger trips it by design — that
    /// fault would otherwise be unattributable. Reads only handles
    /// resolved by [`FaultLedger::wire_counters`] (an unwired ledger
    /// attributes nothing).
    pub fn attribution_audit(&self, at: SimTime, component: &str, auditor: &mut Auditor) {
        let mut b = self.lock();
        let b = &mut *b;
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            let injected = b.injected[i];
            let attributed = b.attributed.get_mut(i).map_or(0, CounterSum::get);
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
            (&b.recovered_ctr, b.recovered),
            (&b.dropped_counted_ctr, b.dropped_counted),
            (&b.terminal_ctr, b.terminal),
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
        let b = self.lock();
        registry.counter("faults.injected", b.injected_total());
        for kind in FaultKind::ALL {
            registry.counter(
                format!("faults.injected.{}", kind.name()),
                b.injected[kind.index()],
            );
        }
        registry.counter("recovery.recovered", b.recovered);
        registry.counter("recovery.dropped_counted", b.dropped_counted);
        registry.counter("recovery.terminal", b.terminal);
        registry.counter("recovery.open", b.open.len() as u64);
        registry.histogram("recovery.time_ns", &b.recovery_ns);
        // Scalar mirrors of the recovery-time distribution, so MTTR is
        // readable straight from a --json report without the timeline.
        registry.counter("recovery.time_p50_ns", b.recovery_ns.percentile(50.0));
        registry.counter("recovery.time_p99_ns", b.recovery_ns.percentile(99.0));
        registry.counter("recovery.time_max_ns", b.recovery_ns.max());
    }
}

/// One component's handle on a [`FaultPlan`]: rolls injection decisions
/// from its own deterministic stream and records them in the shared
/// ledger.
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
    /// `faults/<entity>/<kind>` counter paths in `tree`. Systems wire
    /// every injector they create, so
    /// [`FaultLedger::attribution_audit`] can prove that no injected
    /// fault lacks a per-entity counter path.
    pub fn wire_counters(&mut self, tree: &CounterTree, entity: &str) {
        for kind in FaultKind::ALL {
            self.counters[kind.index()] = tree.counter(&format!("faults/{entity}/{}", kind.name()));
        }
    }

    /// This injector's `faults/<entity>/<kind>` counter (detached until
    /// [`FaultInjector::wire_counters`]) — what a system's audit compares
    /// a component's own fault-visible counter against.
    pub fn counter(&self, kind: FaultKind) -> &Counter {
        &self.counters[kind.index()]
    }

    /// Rolls one injection opportunity for `kind`: returns `true` (and
    /// records the injection) with the plan's probability when the kind
    /// is enabled. Disabled kinds consume no randomness, so narrowing a
    /// plan's kind set does not perturb the remaining kinds' streams
    /// relative to chance order at each site.
    pub fn roll(&mut self, kind: FaultKind) -> bool {
        if self.mask & kind.bit() == 0 || self.rate <= 0.0 {
            return false;
        }
        if !self.rng.chance(self.rate) {
            return false;
        }
        self.ledger.lock().injected[kind.index()] += 1;
        self.counters[kind.index()].inc();
        true
    }

    /// Draws a fault magnitude: uniform in `[1 ps, max]` (reorder delays,
    /// stall lengths).
    pub fn magnitude(&mut self, max: SimDuration) -> SimDuration {
        SimDuration::from_picos(self.rng.range_inclusive(1, max.as_picos().max(1)))
    }

    /// The shared accounting book.
    pub fn ledger(&self) -> &FaultLedger {
        &self.ledger
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

    #[test]
    fn disabled_plan_never_fires() {
        let ledger = FaultLedger::new();
        let mut inj = FaultPlan::disabled().injector("x", &ledger);
        for _ in 0..10_000 {
            assert!(!inj.roll(FaultKind::LinkDrop));
        }
        assert_eq!(ledger.injected_total(), 0);
    }

    #[test]
    fn rolls_are_deterministic_per_component() {
        let plan = FaultPlan::new(0.2, 42);
        let run = |component: &str| {
            let ledger = FaultLedger::new();
            let mut inj = plan.injector(component, &ledger);
            (0..1000)
                .map(|_| inj.roll(FaultKind::LinkDrop))
                .collect::<Vec<_>>()
        };
        assert_eq!(run("wire"), run("wire"));
        assert_ne!(run("wire"), run("pcie"), "streams must decorrelate");
    }

    #[test]
    fn ledger_balances_and_audits() {
        let ledger = FaultLedger::new();
        let plan = FaultPlan::new(1.0, 7);
        let mut inj = plan.injector("a", &ledger);
        assert!(inj.roll(FaultKind::LinkCorrupt));
        ledger.resolve(FaultOutcome::DroppedCounted, None);
        assert!(inj.roll(FaultKind::LinkDrop));
        ledger.open_fault(FaultKind::LinkDrop, SimTime::from_nanos(100));
        assert_eq!(ledger.open(), 1);
        assert_eq!(ledger.summary().unaccounted(), 0);

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
    fn unbalanced_ledger_fails_audit() {
        let ledger = FaultLedger::new();
        let mut inj = FaultPlan::new(1.0, 7).injector("a", &ledger);
        assert!(inj.roll(FaultKind::MalformedWqe)); // injected, never resolved
        assert_eq!(ledger.summary().unaccounted(), 1);
        let mut auditor = Auditor::new();
        ledger.audit(SimTime::ZERO, "faults", &mut auditor);
        assert_eq!(auditor.report().violations, 1);
    }

    #[test]
    fn wired_injectors_attribute_every_fault_to_a_counter_path() {
        let tree = CounterTree::new();
        let ledger = FaultLedger::new();
        ledger.wire_counters(&tree);
        let plan = FaultPlan::new(1.0, 3);
        let mut a = plan.injector("fld", &ledger);
        a.wire_counters(&tree, "fld");
        let mut b = plan.injector("accel", &ledger);
        b.wire_counters(&tree, "accel");
        for _ in 0..2 {
            assert!(a.roll(FaultKind::LinkDrop));
            ledger.resolve(FaultOutcome::DroppedCounted, None);
        }
        assert!(b.roll(FaultKind::AccelStall));
        ledger.resolve(FaultOutcome::Recovered, None);
        assert_eq!(tree.snapshot().get("faults/fld/drop"), Some(2));
        assert_eq!(tree.snapshot().get("faults/accel/accel_stall"), Some(1));
        assert_eq!(tree.snapshot().get("recovery/dropped_counted"), Some(2));
        assert_eq!(tree.snapshot().get("recovery/recovered"), Some(1));
        let mut auditor = Auditor::new();
        ledger.attribution_audit(SimTime::ZERO, "faults", &mut auditor);
        assert_eq!(auditor.report().violations, 0);
        // An unwired injector on the same ledger leaves a fault with no
        // counter path: the attribution audit must catch exactly that.
        let mut rogue = plan.injector("rogue", &ledger);
        assert!(rogue.roll(FaultKind::Rnr));
        ledger.resolve(FaultOutcome::Recovered, None);
        let mut auditor = Auditor::new();
        ledger.attribution_audit(SimTime::ZERO, "faults", &mut auditor);
        assert_eq!(auditor.report().violations, 1);
    }

    #[test]
    fn terminal_faults_close_the_books() {
        let ledger = FaultLedger::new();
        let mut inj = FaultPlan::new(1.0, 9).injector("qp", &ledger);
        for _ in 0..3 {
            assert!(inj.roll(FaultKind::LinkDrop));
            ledger.open_fault(FaultKind::LinkDrop, SimTime::ZERO);
        }
        assert_eq!(ledger.fail_open(), 3);
        assert_eq!(ledger.summary().terminal, 3);
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
        let ledger = FaultLedger::new();
        let t0 = SimTime::from_nanos(100);
        let t1 = SimTime::from_nanos(250);
        ledger.inject(FaultKind::NodeCrash);
        ledger.open_fault(FaultKind::NodeCrash, t0);
        ledger.inject(FaultKind::FabricLinkFlap);
        ledger.open_fault(FaultKind::FabricLinkFlap, t1);
        assert_eq!(ledger.open(), 2);
        assert_eq!(ledger.summary().unaccounted(), 0);

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
        assert_eq!(ledger.summary().unaccounted(), 0);

        // Satellite: the recovery distribution is exported as scalars.
        let mut m = MetricsRegistry::new();
        ledger.export(&mut m);
        assert_eq!(m.counter_value("faults.injected.node_crash"), Some(1));
        assert_eq!(m.counter_value("recovery.time_max_ns"), Some(800));
        assert!(m.counter_value("recovery.time_p50_ns").unwrap() >= 150);
        assert!(m.counter_value("recovery.time_p99_ns").unwrap() <= 800);
    }
}
