//! Ethtool-style hierarchical hardware counters.
//!
//! Real mlx5 debugging runs on `ethtool -S` / `devlink`: per-queue,
//! per-QP, per-function hardware counters, not aggregate stage
//! latencies. This module is that surface for the simulation: a
//! [`CounterTree`] holds named monotonic counters under `/`-separated
//! paths (`port/0/queue/3/tx/packets`, `qp/256/retransmits`,
//! `pcie/fn/0/completion_timeouts`, `faults/fld/drop`), components
//! resolve a [`Counter`] handle **once** at wiring time, and the hot
//! path pays one relaxed load and store per increment (each cell has a
//! single writer) — no string hashing, no map lookup, no `lock` prefix.
//!
//! The tree is the observable half of a two-sided contract: every
//! counter group telescopes to an aggregate the simulation already
//! maintains independently (per-queue sums == device totals, eSwitch
//! miss == the NIC's classifier drop count, `faults/**` == `recovery/**`
//! plus the open faults of the [`crate::fault::FaultLedger`] kept in the
//! tree), and the
//! [`crate::audit::Auditor`] enforces those equalities at every sample
//! tick and at end-of-run. The audit reads the same way the hot path
//! writes — through handles resolved at wiring time: a [`Counter`] for
//! one leaf, a [`CounterSum`] for a group ("every leaf under `vf`",
//! "every `faults/<entity>/drop`"). A [`CounterSnapshot`] freezes the
//! tree for export: a versioned JSON dump plus an `ethtool -S`-style
//! text rendering.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{JsonWriter, SCHEMA_VERSION};

/// One counter cell: the value plus the path it is registered under
/// (empty for a detached cell), so a handle can name itself in an audit
/// violation without the tree being consulted.
#[derive(Debug)]
struct Cell {
    value: AtomicU64,
    path: Box<str>,
}

/// A pre-resolved handle on one counter cell.
///
/// Cloning shares the cell. A [`Counter::detached`] handle counts into a
/// private cell nobody reads, so components stay fully functional (and
/// unit-testable) before anything wires them.
///
/// **Single writer.** Every cell is incremented by one thread only: the
/// engine thread that owns the system the counter belongs to (a sweep
/// worker moves a whole system, tree and handles together). An increment
/// is therefore a relaxed load and a relaxed store on the cell's atomic,
/// not a `lock`-prefixed read-modify-write; a second concurrent writer
/// would lose updates, though never tear a value. Any thread may read.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<Cell>,
}

impl Counter {
    /// A counter not registered in any tree (the pre-wiring default).
    pub fn detached() -> Counter {
        Counter::at("")
    }

    fn at(path: &str) -> Counter {
        Counter {
            cell: Arc::new(Cell {
                value: AtomicU64::new(0),
                path: path.into(),
            }),
        }
    }

    /// Adds `n` (wrapping, as `fetch_add` does). Call from the cell's
    /// one writer thread only — see the type's docs.
    #[inline]
    pub fn add(&self, n: u64) {
        let value = &self.cell.value;
        value.store(
            value.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }

    /// The path this counter is registered under (empty when detached).
    pub fn path(&self) -> &str {
        &self.cell.path
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::detached()
    }
}

/// A registered counter ordered (and looked up) by its path, so the
/// registry stores each path once, inside the cell.
#[derive(Debug)]
struct ByPath(Counter);

impl Borrow<str> for ByPath {
    fn borrow(&self) -> &str {
        self.0.path()
    }
}

impl PartialEq for ByPath {
    fn eq(&self, other: &ByPath) -> bool {
        self.0.path() == other.0.path()
    }
}

impl Eq for ByPath {}

impl PartialOrd for ByPath {
    fn partial_cmp(&self, other: &ByPath) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByPath {
    fn cmp(&self, other: &ByPath) -> std::cmp::Ordering {
        self.0.path().cmp(other.0.path())
    }
}

/// What the tree's lock guards: the sorted set serves lookups, scans and
/// snapshots; the log lists the same cells in registration order, each
/// path once, for the groups that extend from it.
#[derive(Debug, Default)]
struct Registry {
    sorted: BTreeSet<ByPath>,
    log: Vec<Counter>,
}

#[derive(Debug, Default)]
struct TreeInner {
    cells: Mutex<Registry>,
    /// `log.len()`, published under the lock after every registration.
    /// Counters are never removed, so this doubles as the cursor bound a
    /// [`CounterSum`] compares with the log position it has read up to.
    /// The `Release` store pairs with the `Acquire` load in
    /// [`CounterTree::len`]; a reader that sees growth reads the new log
    /// entries under the lock, which orders it after the registrations.
    len: AtomicUsize,
}

/// The per-entity counter registry: `/`-separated paths to shared
/// cells, in sorted order.
///
/// Cloning yields another handle on the same tree (a system hands it to
/// every component it wires). Registration takes the lock; increments
/// through the returned [`Counter`] never do. The tree only grows.
#[derive(Debug, Clone, Default)]
pub struct CounterTree {
    inner: Arc<TreeInner>,
}

impl CounterTree {
    /// An empty tree.
    pub fn new() -> CounterTree {
        CounterTree::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.inner.cells.lock().expect("counter tree poisoned")
    }

    /// Resolves `path` to a handle, registering an empty counter on
    /// first use. Wiring-time only: the handle is what the hot path
    /// increments.
    ///
    /// # Panics
    ///
    /// Panics on a malformed path (empty, leading/trailing `/`, or an
    /// empty segment) — counter names are compiled-in, so this is a
    /// programming error, not input validation.
    pub fn counter(&self, path: &str) -> Counter {
        assert!(
            !path.is_empty()
                && !path.starts_with('/')
                && !path.ends_with('/')
                && !path.contains("//"),
            "malformed counter path {path:?}"
        );
        let mut cells = self.lock();
        if let Some(found) = cells.sorted.get(path) {
            return found.0.clone();
        }
        let counter = Counter::at(path);
        cells.sorted.insert(ByPath(counter.clone()));
        cells.log.push(counter.clone());
        self.inner.len.store(cells.log.len(), Ordering::Release);
        counter
    }

    /// Number of registered counters (lock-free).
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::Acquire)
    }

    /// Whether no counter is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of every counter at or below `prefix` (`prefix` itself, or
    /// `prefix/...`). A locked full scan — the naive reference
    /// [`CounterSum::under`] is tested against; per-tick audits use the
    /// pre-resolved group.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.lock()
            .sorted
            .iter()
            .filter(|c| under_prefix(c.0.path(), prefix))
            .map(|c| c.0.get())
            .sum()
    }

    /// Sum of every counter below `prefix` whose last segment is
    /// `leaf` — e.g. `sum_leaf("faults", "drop")` totals
    /// `faults/<entity>/drop` across entities. The naive reference for
    /// [`CounterSum::leaves`].
    pub fn sum_leaf(&self, prefix: &str, leaf: &str) -> u64 {
        self.lock()
            .sorted
            .iter()
            .filter(|c| under_prefix(c.0.path(), prefix) && named(c.0.path(), leaf))
            .map(|c| c.0.get())
            .sum()
    }

    /// Freezes the tree into a sorted snapshot.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            entries: self
                .lock()
                .sorted
                .iter()
                .map(|c| (c.0.path().to_string(), c.0.get()))
                .collect(),
        }
    }
}

/// A pre-resolved counter group: every leaf at or below a prefix,
/// optionally only those whose last segment is a given name — the
/// handle form of [`CounterTree::sum_prefix`] / [`CounterTree::sum_leaf`].
///
/// The group holds its members' cells, so a steady-state
/// [`CounterSum::get`] takes no lock and compares no strings: one
/// atomic load of the tree's length, then one per member. The group is
/// a cursor on the tree's registration log: because the tree only
/// grows, a length equal to the log position read so far proves the
/// membership is current; any registration (a new flow, VF or fault
/// entity mid-run) moves it, and the next `get` tests only the entries
/// logged since — each against the prefix and leaf — before summing,
/// so a read costs what registered since the last one and the result
/// is always what the scan would return. A new group starts at position
/// 0: its first read is the same catch-up over the whole log.
#[derive(Debug)]
pub struct CounterSum {
    tree: CounterTree,
    prefix: Box<str>,
    leaf: Option<Box<str>>,
    members: Vec<Counter>,
    /// Log entries already tested: `log[..seen]`.
    seen: usize,
}

impl CounterSum {
    /// The group of every counter at or below `prefix` in `tree`.
    pub fn under(tree: &CounterTree, prefix: &str) -> CounterSum {
        CounterSum::new(tree, prefix, None)
    }

    /// The group of every counter below `prefix` in `tree` whose last
    /// segment is `leaf`.
    pub fn leaves(tree: &CounterTree, prefix: &str, leaf: &str) -> CounterSum {
        CounterSum::new(tree, prefix, Some(leaf.into()))
    }

    fn new(tree: &CounterTree, prefix: &str, leaf: Option<Box<str>>) -> CounterSum {
        CounterSum {
            tree: tree.clone(),
            prefix: prefix.into(),
            leaf,
            members: Vec::new(),
            seen: 0,
        }
    }

    /// Adds the members among the registrations logged since the last
    /// read.
    fn catch_up(&mut self) {
        let cells = self.tree.lock();
        let prefix: &str = &self.prefix;
        let leaf = self.leaf.as_deref();
        self.members.extend(
            cells.log[self.seen..]
                .iter()
                .filter(|c| under_prefix(c.path(), prefix))
                .filter(|c| leaf.is_none_or(|leaf| named(c.path(), leaf)))
                .cloned(),
        );
        self.seen = cells.log.len();
    }

    /// The group's current sum.
    pub fn get(&mut self) -> u64 {
        if self.tree.len() != self.seen {
            self.catch_up();
        }
        self.members.iter().map(Counter::get).sum()
    }

    /// The prefix this group sums under.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }
}

fn under_prefix(path: &str, prefix: &str) -> bool {
    path == prefix
        || (path.len() > prefix.len()
            && path.starts_with(prefix)
            && path.as_bytes()[prefix.len()] == b'/')
}

/// Whether `path`'s last segment is `leaf` (and it is not the only one).
fn named(path: &str, leaf: &str) -> bool {
    path.strip_suffix(leaf).is_some_and(|p| p.ends_with('/'))
}

/// A frozen, sorted copy of a [`CounterTree`]: what experiments attach
/// to reports, dumps serialize, and goldens pin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    entries: Vec<(String, u64)>,
}

impl CounterSnapshot {
    /// An empty snapshot (for systems that never wired counters).
    pub fn new() -> CounterSnapshot {
        CounterSnapshot::default()
    }

    /// The `(path, value)` entries in sorted path order.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// The value at `path`, if present.
    pub fn get(&self, path: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Sum of every entry at or below `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(path, _)| under_prefix(path, prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Writes the snapshot into `w` as one flat JSON object
    /// (`{"path": value, ...}` in sorted order).
    pub fn write_into(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (path, value) in &self.entries {
            w.field_u64(path, *value);
        }
        w.end_object();
    }

    /// `ethtool -S`-style text rendering: a header naming the entity,
    /// then one indented `path: value` line per counter.
    pub fn render_text(&self, title: &str) -> String {
        let mut out = format!("{title} counters ({}):", self.entries.len());
        for (path, value) in &self.entries {
            out.push_str(&format!("\n     {path}: {value}"));
        }
        out.push('\n');
        out
    }
}

/// Renders the versioned counters dump document shared by
/// `--counters`, the quickstart example and the goldens:
/// `{"schema_version": N, "experiment": ..., "counters": {label: {path: value}}}`.
pub fn write_dump(experiment: &str, runs: &[(String, CounterSnapshot)]) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_u64("schema_version", SCHEMA_VERSION);
    w.field_str("experiment", experiment);
    w.key("counters");
    w.begin_object();
    for (label, snap) in runs {
        w.key(label);
        snap.write_into(&mut w);
    }
    w.end_object();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_and_increments_through_handles() {
        let tree = CounterTree::new();
        let a = tree.counter("port/0/rx/packets");
        let b = tree.counter("port/0/rx/bytes");
        a.inc();
        a.inc();
        b.add(1500);
        assert_eq!(tree.snapshot().get("port/0/rx/packets"), Some(2));
        assert_eq!(tree.snapshot().get("port/0/rx/bytes"), Some(1500));
        assert_eq!(tree.snapshot().get("port/0/rx/nope"), None);
        assert_eq!(tree.len(), 2);
        // Re-resolving the same path shares the cell.
        tree.counter("port/0/rx/packets").inc();
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn detached_counters_count_into_the_void() {
        let c = Counter::detached();
        c.add(7);
        assert_eq!(c.get(), 7);
        assert!(CounterTree::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "malformed counter path")]
    fn rejects_malformed_paths() {
        CounterTree::new().counter("a//b");
    }

    #[test]
    fn prefix_sums_respect_segment_boundaries() {
        let tree = CounterTree::new();
        tree.counter("port/0/queue/0/tx/packets").add(3);
        tree.counter("port/0/queue/1/tx/packets").add(4);
        tree.counter("port/0/queue/1/tx/drops").add(1);
        tree.counter("port/01/queue/0/tx/packets").add(100);
        assert_eq!(tree.sum_prefix("port/0"), 8);
        assert_eq!(tree.sum_prefix("port/0/queue/1"), 5);
        assert_eq!(tree.sum_prefix("port"), 108);
        assert_eq!(tree.sum_prefix("por"), 0, "not a whole segment");
    }

    #[test]
    fn leaf_sums_total_one_counter_across_entities() {
        let tree = CounterTree::new();
        tree.counter("faults/fld/drop").add(2);
        tree.counter("faults/accel/drop").add(3);
        tree.counter("faults/fld/pcie_timeout").add(9);
        assert_eq!(tree.sum_leaf("faults", "drop"), 5);
        assert_eq!(tree.sum_leaf("faults", "pcie_timeout"), 9);
        assert_eq!(tree.sum_leaf("faults", "rnr"), 0);
    }

    #[test]
    fn group_handles_match_the_scans_and_follow_growth() {
        let tree = CounterTree::new();
        let mut all = CounterSum::under(&tree, "vf/1");
        let mut drops = CounterSum::leaves(&tree, "vf", "drops");
        assert_eq!((all.get(), drops.get()), (0, 0), "empty tree");
        tree.counter("vf/1/drops").add(2);
        tree.counter("vf/1/rx").add(5);
        // A sibling whose name extends the prefix is not under it.
        tree.counter("vf/10/drops").add(100);
        tree.counter("vf/1.5/drops").add(1000);
        assert_eq!(all.get(), tree.sum_prefix("vf/1"));
        assert_eq!(all.get(), 7);
        assert_eq!(drops.get(), tree.sum_leaf("vf", "drops"));
        assert_eq!(drops.get(), 1102);
        // Registered after the first read: picked up by the next one.
        let late = tree.counter("vf/1/q/0/drops");
        late.add(3);
        assert_eq!(all.get(), 10);
        assert_eq!(drops.get(), 1105);
        // Steady state reads through the held cells.
        late.inc();
        assert_eq!(all.get(), 11);
        assert_eq!(all.prefix(), "vf/1");
        assert_eq!(late.path(), "vf/1/q/0/drops");
        assert_eq!(Counter::detached().path(), "");
    }

    /// Registration-log length, for the tests below.
    fn logged(tree: &CounterTree) -> usize {
        tree.lock().log.len()
    }

    #[test]
    fn re_registering_a_path_logs_nothing_and_adds_no_member() {
        let tree = CounterTree::new();
        let mut group = CounterSum::under(&tree, "flow");
        tree.counter("flow/a/packets").add(2);
        assert_eq!(group.get(), 2);
        for _ in 0..3 {
            tree.counter("flow/a/packets").inc();
        }
        assert_eq!((logged(&tree), tree.len()), (1, 1));
        assert_eq!(group.get(), tree.sum_prefix("flow"));
        assert_eq!(group.get(), 5);
        assert_eq!(group.members.len(), 1);
    }

    #[test]
    fn a_sibling_prefix_never_joins() {
        let tree = CounterTree::new();
        let mut flow = CounterSum::under(&tree, "flow");
        let mut vf1 = CounterSum::under(&tree, "vf/1");
        let mut vf1_drops = CounterSum::leaves(&tree, "vf/1", "drops");
        for (path, n) in [
            ("flowx/a/packets", 1),
            ("flow/a/packets", 2),
            ("flowx", 4),
            ("vf/10/drops", 8),
            ("vf/1/drops", 16),
            ("vf/1.5/drops", 32),
            ("vf/1/rx", 64),
            ("vf/1x/drops", 128),
        ] {
            tree.counter(path).add(n);
            assert_eq!(flow.get(), tree.sum_prefix("flow"), "{path}");
            assert_eq!(vf1.get(), tree.sum_prefix("vf/1"), "{path}");
            assert_eq!(vf1_drops.get(), tree.sum_leaf("vf/1", "drops"), "{path}");
        }
        assert_eq!((flow.get(), vf1.get(), vf1_drops.get()), (2, 80, 16));
    }

    #[test]
    fn groups_made_before_and_after_a_thousand_registrations_agree() {
        let tree = CounterTree::new();
        let mut early = CounterSum::leaves(&tree, "flow", "packets");
        assert_eq!(early.get(), 0);
        for i in 0..1000u64 {
            tree.counter(&format!("flow/{i}/packets")).add(i);
            tree.counter(&format!("flow/{i}/bytes")).add(64 * i);
        }
        let mut late = CounterSum::leaves(&tree, "flow", "packets");
        let expected = tree.sum_leaf("flow", "packets");
        assert_eq!(expected, 999 * 1000 / 2);
        assert_eq!(early.get(), expected);
        assert_eq!(late.get(), expected);
        assert_eq!((early.members.len(), late.members.len()), (1000, 1000));
    }

    #[test]
    fn groups_read_on_different_ticks_count_each_registration_once() {
        let tree = CounterTree::new();
        let mut every_tick = CounterSum::under(&tree, "flow");
        let mut every_third = CounterSum::under(&tree, "flow");
        for tick in 0..30 {
            // Registrations between ticks: some new, some repeats.
            for i in 0..tick % 4 + 1 {
                let path = format!("flow/{}/packets", (tick * 3 + i) % 50);
                tree.counter(&path).inc();
            }
            let registered = logged(&tree);
            assert_eq!(every_tick.get(), tree.sum_prefix("flow"), "tick {tick}");
            assert_eq!(every_tick.members.len(), registered);
            if tick % 3 == 0 {
                assert_eq!(every_third.get(), tree.sum_prefix("flow"), "tick {tick}");
                assert_eq!(every_third.members.len(), registered);
            }
        }
        assert_eq!(every_third.get(), every_tick.get());
        assert_eq!(every_third.members.len(), logged(&tree));
        assert_eq!(logged(&tree), tree.len());
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let tree = CounterTree::new();
        tree.counter("b/x").add(2);
        tree.counter("a/y").add(1);
        let snap = tree.snapshot();
        assert_eq!(
            snap.entries(),
            &[("a/y".to_string(), 1), ("b/x".to_string(), 2)]
        );
        assert_eq!(snap.get("b/x"), Some(2));
        assert_eq!(snap.get("c"), None);
        assert_eq!(snap.sum_prefix("a"), 1);
        assert_eq!(snap.entries().len(), 2);
    }

    #[test]
    fn dump_is_versioned_and_text_rendering_is_ethtool_shaped() {
        let tree = CounterTree::new();
        tree.counter("qp/256/retransmits").add(4);
        let snap = tree.snapshot();
        let json = write_dump("counters", &[("run1".to_string(), snap.clone())]);
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(json.contains("\"qp/256/retransmits\": 4"));
        let text = snap.render_text("fldr");
        assert!(text.starts_with("fldr counters (1):"));
        assert!(text.contains("\n     qp/256/retransmits: 4"));
    }
}
