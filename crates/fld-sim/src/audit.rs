//! Runtime invariant auditor: the checking half of the flight recorder.
//!
//! An [`Auditor`] evaluates conservation laws and capacity bounds at each
//! flight-recorder sample tick and once more at end-of-run:
//!
//! * **packet conservation** — `packets_in == delivered + dropped +
//!   in_flight` for every component that owns packets;
//! * **credits never negative** — credit counts stay within their pool
//!   (an underflow on unsigned counters shows up as `credits > pool`);
//! * **occupancy ≤ capacity** — ring/buffer occupancy fractions never
//!   exceed 1;
//! * **PSN monotonic per QP** — sampled expected PSNs only move forward
//!   (modulo the PSN space).
//!
//! Violations are recorded with their sim-timestamp and a dotted
//! component path (`fld.tx_ring`, `qp.client`, …). In strict mode
//! ([`Auditor::strict`], the `--strict-audit` flag) the first violation
//! panics with the same message, turning a silent accounting bug into a
//! hard error at the exact simulated instant it appears.
//!
//! Unlike the probe/timeline machinery the auditor has no off switch:
//! end-of-run audits run once per simulation and cost nothing
//! measurable, so every run — tests, benches, examples — gets
//! conservation checking for free. Per-tick audits piggyback on the
//! flight-recorder sampling events and therefore only fire when the
//! recorder is enabled.

use std::fmt::{Display, Write as _};

use crate::counters::{Counter, CounterSum};
use crate::time::SimTime;

/// The RDMA packet-sequence-number space: a BTH carries a 24-bit PSN
/// (IBTA § 9.2), so sequence arithmetic is modulo 2^24. `fld-nic`'s RC
/// queue pair and [`Auditor::check_psn`] both count in it.
pub const PSN_MOD: u32 = 1 << 24;

/// One failed invariant check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Simulated time of the failing check.
    pub at: SimTime,
    /// Dotted component path (`fld.tx_ring`, `system.flow`, `qp.client`).
    pub component: String,
    /// Which invariant failed (`conservation`, `credits`, `occupancy`,
    /// `psn-monotonic`, …).
    pub invariant: &'static str,
    /// Human-readable expansion with the observed values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} ns] {} violated {}: {}",
            self.at.as_nanos(),
            self.component,
            self.invariant,
            self.detail
        )
    }
}

/// Evaluates invariants and accumulates [`Violation`]s.
///
/// Detailed records are capped (the count is not) so a systematically
/// broken invariant cannot balloon memory over a long run.
#[derive(Debug, Default)]
pub struct Auditor {
    strict: bool,
    checks: u64,
    total_violations: u64,
    violations: Vec<Violation>,
    last_psn: std::collections::HashMap<String, u64>,
    /// Scratch the QP name is rendered into for the `last_psn` lookup,
    /// so a per-tick [`Auditor::check_psn`] reuses one buffer.
    psn_key: String,
}

/// Detailed violation records kept per run (see [`Auditor`]).
const MAX_RECORDED: usize = 64;

impl Auditor {
    /// Creates a lenient auditor (violations recorded, run continues).
    pub fn new() -> Auditor {
        Auditor::default()
    }

    /// Turns violations into hard errors: the failing check panics with
    /// the violation message.
    pub fn strict(mut self) -> Auditor {
        self.strict = true;
        self
    }

    /// Records the outcome of one invariant check.
    ///
    /// `component` and `detail` are only rendered on failure, so call
    /// sites name per-instance components with `format_args!` and a
    /// passing check allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics with the violation message in strict mode.
    #[inline]
    pub fn check(
        &mut self,
        at: SimTime,
        component: impl Display,
        invariant: &'static str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        self.checks += 1;
        if ok {
            return;
        }
        self.violated(Violation {
            at,
            component: component.to_string(),
            invariant,
            detail: detail(),
        });
    }

    #[cold]
    fn violated(&mut self, violation: Violation) {
        if self.strict {
            panic!("strict audit failed: {violation}");
        }
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(violation);
        }
    }

    /// Packet conservation: `packets_in == delivered + dropped +
    /// in_flight` for `component`.
    pub fn check_conservation(
        &mut self,
        at: SimTime,
        component: impl Display,
        packets_in: u64,
        delivered: u64,
        dropped: u64,
        in_flight: u64,
    ) {
        let accounted = delivered + dropped + in_flight;
        self.check(
            at,
            component,
            "conservation",
            packets_in == accounted,
            || {
                format!(
                    "packets_in {packets_in} != delivered {delivered} + dropped {dropped} \
                 + in_flight {in_flight} (= {accounted})"
                )
            },
        );
    }

    /// Counter telescoping, leaf form: `counter` — a handle resolved
    /// where the leaf was wired — must equal the aggregate the component
    /// maintains independently (its own integer field, exported into the
    /// [`crate::metrics::MetricsRegistry`]).
    pub fn check_counter_eq(
        &mut self,
        at: SimTime,
        component: impl Display,
        counter: &Counter,
        aggregate: u64,
    ) {
        let read = counter.get();
        self.check(
            at,
            component,
            "counter-telescope",
            read == aggregate,
            || {
                format!(
                    "counter {} reads {read} but the aggregate is {aggregate}",
                    counter.path()
                )
            },
        );
    }

    /// Counter telescoping, group form: the sum over `group` (every
    /// per-queue, per-flow or per-entity leaf at or below its prefix,
    /// including ones registered since the last tick) must equal the
    /// parent `aggregate` — queue sums telescope to port totals, port
    /// totals to the registry values.
    pub fn check_counter_sum(
        &mut self,
        at: SimTime,
        component: impl Display,
        group: &mut CounterSum,
        aggregate: u64,
    ) {
        let sum = group.get();
        self.check(at, component, "counter-telescope", sum == aggregate, || {
            format!(
                "counters under {}/ sum to {sum} but the aggregate is {aggregate}",
                group.prefix()
            )
        });
    }

    /// Credits never negative: on unsigned counters an underflow wraps,
    /// so the observable symptom is `credits > pool`.
    pub fn check_credits(&mut self, at: SimTime, component: impl Display, credits: u64, pool: u64) {
        self.check(at, component, "credits", credits <= pool, || {
            format!("credits {credits} exceed pool {pool} (unsigned underflow)")
        });
    }

    /// Occupancy ≤ capacity, expressed as a fraction in `0..=1`.
    pub fn check_occupancy(&mut self, at: SimTime, component: impl Display, occupancy: f64) {
        self.check(
            at,
            component,
            "occupancy",
            (0.0..=1.0).contains(&occupancy),
            || format!("occupancy {occupancy} outside [0, 1]"),
        );
    }

    /// PSN monotonicity per QP: successive samples of `psn` may only move
    /// forward (modulo the PSN space; a forward step of less than half
    /// the space counts as forward).
    pub fn check_psn(&mut self, at: SimTime, qp: impl Display, psn: u64) {
        let mut key = std::mem::take(&mut self.psn_key);
        key.clear();
        write!(key, "{qp}").expect("writing to a String cannot fail");
        let space = u64::from(PSN_MOD);
        match self.last_psn.get_mut(key.as_str()) {
            Some(slot) => {
                let last = std::mem::replace(slot, psn % space);
                let forward = (psn + space - last) % space;
                self.check(at, &key, "psn-monotonic", forward < space / 2, || {
                    format!("PSN moved backwards: {last} -> {psn}")
                });
            }
            // A QP's first sample: the only one that allocates its name.
            None => {
                self.last_psn.insert(key.clone(), psn % space);
            }
        }
        self.psn_key = key;
    }

    /// Finalizes into a serializable report.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            checks: self.checks,
            violations: self.total_violations,
            recorded: self.violations.clone(),
        }
    }
}

/// The end-of-run audit summary carried on run stats.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Invariant checks evaluated.
    pub checks: u64,
    /// Total violations observed.
    pub violations: u64,
    /// First violations in detail (capped; `violations` is not).
    pub recorded: Vec<Violation>,
}

impl AuditReport {
    /// Whether the run satisfied every audited invariant.
    pub fn passed(&self) -> bool {
        self.violations == 0
    }

    /// Registers the summary under `prefix` in a metrics snapshot.
    pub fn export(&self, prefix: &str, registry: &mut crate::metrics::MetricsRegistry) {
        registry.counter(format!("{prefix}.checks"), self.checks);
        registry.counter(format!("{prefix}.violations"), self.violations);
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "audit: {} checks, {} violations",
            self.checks, self.violations
        )?;
        for v in &self.recorded {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn passing_checks_record_nothing() {
        let mut a = Auditor::new();
        a.check_conservation(t(1), "sys", 10, 6, 2, 2);
        a.check_credits(t(1), "tx", 100, 4096);
        a.check_occupancy(t(1), "rx", 0.5);
        a.check_psn(t(1), "qp.client", 5);
        a.check_psn(t(2), "qp.client", 9);
        let report = a.report();
        assert!(report.passed());
        assert_eq!(report.checks, 4); // first check_psn has no predecessor
        assert!(report.recorded.is_empty());
    }

    #[test]
    fn violations_carry_timestamp_and_path() {
        let mut a = Auditor::new();
        a.check_conservation(t(42), "system.flow", 10, 5, 2, 2);
        let report = a.report();
        assert_eq!(report.violations, 1);
        let v = &report.recorded[0];
        assert_eq!(v.at, t(42));
        assert_eq!(v.component, "system.flow");
        assert_eq!(v.invariant, "conservation");
        let text = format!("{v}");
        assert!(text.contains("[42 ns]"), "{text}");
        assert!(text.contains("system.flow"));
    }

    #[test]
    fn psn_wrap_is_forward_motion() {
        let mut a = Auditor::new();
        a.check_psn(t(1), "qp", u64::from(PSN_MOD) - 2);
        a.check_psn(t(2), "qp", 3); // wrapped forward by 5
        assert_eq!(a.report().violations, 0);
        a.check_psn(t(3), "qp", 1); // backwards
        assert_eq!(a.report().violations, 1);
    }

    #[test]
    fn psn_history_is_kept_per_rendered_qp_name() {
        let mut a = Auditor::new();
        for (qp, psn) in [
            ("client", 10),
            ("server", 500),
            ("client", 11),
            ("server", 499),
        ] {
            a.check_psn(t(1), format_args!("qp.{qp}.next_psn"), psn);
        }
        let report = a.report();
        assert_eq!(report.checks, 2, "one check per QP after its first sample");
        assert_eq!(report.violations, 1);
        assert_eq!(report.recorded[0].component, "qp.server.next_psn");
        assert_eq!(report.recorded[0].detail, "PSN moved backwards: 500 -> 499");
    }

    #[test]
    fn counter_checks_name_the_leaf_and_the_group() {
        let tree = crate::counters::CounterTree::new();
        let leaf = tree.counter("port/0/rx/packets");
        leaf.add(3);
        let mut group = CounterSum::under(&tree, "port/0");
        let mut a = Auditor::new();
        a.check_counter_eq(t(5), "counters.port", &leaf, 3);
        a.check_counter_sum(t(5), "counters.port", &mut group, 3);
        assert_eq!(a.report().violations, 0);
        a.check_counter_eq(t(6), format_args!("counters.{}", "port"), &leaf, 4);
        a.check_counter_sum(t(6), "counters.port", &mut group, 4);
        let report = a.report();
        assert_eq!((report.checks, report.violations), (4, 2));
        let [eq, sum] = &report.recorded[..] else {
            panic!("two violations recorded")
        };
        assert_eq!(eq.component, "counters.port");
        assert_eq!(eq.invariant, "counter-telescope");
        assert_eq!(
            eq.detail,
            "counter port/0/rx/packets reads 3 but the aggregate is 4"
        );
        assert_eq!(
            sum.detail,
            "counters under port/0/ sum to 3 but the aggregate is 4"
        );
    }

    #[test]
    fn credit_underflow_detected() {
        let mut a = Auditor::new();
        let credits: u64 = 0u64.wrapping_sub(1); // classic unsigned underflow
        a.check_credits(t(7), "fld.tx_ring.descriptors", credits, 4096);
        assert_eq!(a.report().violations, 1);
        assert!(a.report().recorded[0].detail.contains("underflow"));
    }

    #[test]
    #[should_panic(expected = "strict audit failed")]
    fn strict_mode_escalates_to_panic() {
        let mut a = Auditor::new().strict();
        a.check_occupancy(t(1), "rx", 1.5);
    }

    #[test]
    fn recording_is_capped_but_count_is_not() {
        let mut a = Auditor::new();
        for i in 0..(MAX_RECORDED as u64 + 10) {
            a.check_occupancy(t(i), "rx", 2.0);
        }
        let report = a.report();
        assert_eq!(report.violations, MAX_RECORDED as u64 + 10);
        assert_eq!(report.recorded.len(), MAX_RECORDED);
        assert!(!report.passed());
    }
}
