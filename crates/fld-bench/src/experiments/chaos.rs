//! Chaos experiments: seeded fault-injection sweeps over the FLD-E echo
//! and FLD-R RDMA systems (DESIGN.md § 3.7).
//!
//! Each sweep point arms a [`FaultPlan`] at one fault rate against a
//! fresh pair of systems and proves graceful degradation: goodput falls
//! smoothly (never sharply, never negatively) as the rate rises, every
//! injected fault is accounted as recovered / dropped-and-counted /
//! terminal, and every invariant audit — including the per-tick
//! fault-accounting check — passes. Points are independent seeded runs,
//! so the sweep parallelizes over `--jobs` without changing a byte.
//!
//! `exp chaos` ([`run`]) sweeps the rates `0, 1e-4, 1e-3, 1e-2`
//! (`--fault-rate <p>` narrows it to `{0, p}`) and fails — exit status 1
//! — if goodput is not monotonically non-increasing in the fault rate,
//! if any injected fault goes unaccounted, or if any invariant audit
//! failed. `--topology {single,rack,all}` picks the legs: `single` is
//! that sweep; `rack` runs the rack-scale fault-domain script — fabric
//! link flaps, a scripted node crash and a VF hot-unplug under churn —
//! and fails unless every fault is accounted, every fault domain returns
//! to Healthy with a bounded MTTR, the crashed node's flows are
//! re-established and no surviving tenant's p99 exceeds 3× its
//! fault-free baseline. `--fault-kinds` restricts which faults fire,
//! `--fault-seed` picks the injection RNG streams (the rack leg draws
//! its link-flap schedule from it). With `--json` the report carries one
//! metrics snapshot per (system, rate) — the `faults.*` / `recovery.*`
//! counters, the `recovery.time_ns` histogram and, for the rack leg, the
//! `health.*` watchdog metrics — and `--counters` dumps each run's
//! counter tree. That tree is the fault book: every injected fault is
//! one count under its `faults/<entity>/<kind>` path and every
//! resolution one under `recovery/*`, nothing counts them twice, and
//! the verdicts here read them from the snapshot.

use fld_core::rack::{RackConfig, RackStats, TrafficPattern};
use fld_core::rdma_system::{MsgEcho, RdmaConfig, RdmaRunStats, RdmaSystem};
use fld_core::system::{RunStats, SystemConfig};
use fld_sim::counters::CounterSnapshot;
use fld_sim::fault::{self, FaultEvent, FaultKind, FaultPlan, FaultSchedule, ScheduleSpec};
use fld_sim::health::{HealthConfig, MTTR_PATH};
use fld_sim::time::{SimDuration, SimTime};

use crate::experiments::echo::{echo_system, open_loop};
use crate::experiments::rack::{build_rack, rack_counters};
use crate::experiments::{gates, Gates};
use crate::fmt::TextTable;
use crate::harness::Harness;
use crate::report::Report;
use crate::Scale;

/// `exp chaos`: the legs `--topology` picks, each validated before its
/// snapshots move into the report, so a failing sweep still leaves its
/// evidence behind.
pub fn run(h: &Harness, report: &mut Report) -> Gates {
    let cli = h.cli();
    let mut failures = Vec::new();

    if cli.topology != "rack" {
        let rates: Vec<f64> = match cli.fault_rate {
            Some(r) if r > 0.0 => vec![0.0, r],
            Some(_) => vec![0.0],
            None => DEFAULT_RATES.to_vec(),
        };
        let points = h.sweep(rates, |h, rate| run_point(h, cli.fault_plan(rate)));
        report.section(render(&points));
        failures.extend(validate(&points).err());
        for p in points {
            let (label, echo, rdma) = (format!("{:.0e}", p.rate), p.echo, p.rdma);
            let counters = [(String::new(), echo.counters)];
            report.attach(&format!("echo@{label}"), echo.audit, echo.metrics, counters);
            let counters = [(String::new(), rdma.counters)];
            report.attach(&format!("rdma@{label}"), rdma.audit, rdma.metrics, counters);
        }
    }

    if cli.topology != "single" {
        let legs = run_rack_leg(h, cli.fault_seed);
        report.section(render_rack(&legs));
        failures.extend(validate_rack(&legs).err());
        report.attach(
            "rack-baseline",
            legs.baseline.audit,
            legs.baseline.metrics,
            [],
        );
        let counters = rack_counters(legs.faulted.counters, legs.faulted.node_counters);
        report.attach(
            "rack-faulted",
            legs.faulted.audit,
            legs.faulted.metrics,
            counters,
        );
    }

    if failures.is_empty() && h.audit_failures().is_empty() {
        println!("chaos sweep OK: all faults accounted, recoveries measured, audits clean");
    }
    gates(failures)
}

/// The default fault-rate sweep: a fault-free baseline plus three decades.
pub const DEFAULT_RATES: &[f64] = &[0.0, 1e-4, 1e-3, 1e-2];

/// Everything measured at one fault rate.
#[derive(Debug)]
pub struct ChaosPoint {
    /// The per-opportunity fault probability this point ran at.
    pub rate: f64,
    /// The FLD-E run. Its client-measured response bytes are true goodput
    /// (injected duplicates are never measured). All its fault accounting
    /// is read from its counter snapshot (`faults/<entity>/<kind>`,
    /// `recovery/*`): the counter tree is the single source of truth,
    /// not scalar copies.
    pub echo: RunStats,
    /// FLD-R: messages the run was asked to complete.
    pub rdma_total: u64,
    /// The FLD-R run; its fault accounting too is read from its counter
    /// snapshot.
    pub rdma: RdmaRunStats,
}

/// The [`fault::unaccounted`] faults of a counter snapshot: `Σ faults/**`
/// against `Σ recovery/**` (less the watchdog's repair time), with
/// nothing open — the state a drained run ends in. Zero whenever the
/// in-run fault-accounting clause held and the run drained.
pub fn unaccounted(snap: &CounterSnapshot) -> u64 {
    let resolved = snap.sum_prefix("recovery") - snap.sum_prefix(MTTR_PATH);
    fault::unaccounted(snap.sum_prefix("faults"), resolved, 0)
}

impl ChaosPoint {
    /// FLD-E: faults injected (`Σ faults/**` in the echo counter dump).
    pub fn echo_injected(&self) -> u64 {
        self.echo.counters.sum_prefix("faults")
    }

    /// FLD-E: faults that surfaced as counted drops.
    pub fn echo_dropped_counted(&self) -> u64 {
        self.echo
            .counters
            .get("recovery/dropped_counted")
            .unwrap_or(0)
    }

    /// FLD-E: injected faults with no recorded outcome (must be zero).
    pub fn echo_unaccounted(&self) -> u64 {
        unaccounted(&self.echo.counters)
    }

    /// FLD-R: faults injected.
    pub fn rdma_injected(&self) -> u64 {
        self.rdma.counters.sum_prefix("faults")
    }

    /// FLD-R: injected faults with no recorded outcome (must be zero).
    pub fn rdma_unaccounted(&self) -> u64 {
        unaccounted(&self.rdma.counters)
    }
}

/// Runs both system legs at one fault rate under `plan` and `h`.
///
/// The echo leg offers 512 B frames open-loop at 50 % of line so the
/// fault-free baseline is loss-free: any goodput lost at higher rates is
/// attributable to injected faults alone. The RDMA leg runs the standard
/// 1 KiB echo with a 16-message window, where injected wire loss, RNR
/// NAKs and PCIe faults exercise the QP's retransmission and error state
/// machinery.
pub fn run_point(h: &Harness, plan: FaultPlan) -> ChaosPoint {
    let scale = h.scale();
    // --- FLD-E echo leg ---
    let cfg = SystemConfig::remote();
    let frame = 512u32;
    let offered = 0.5 * cfg.client_rate.as_bps() / (frame as f64 * 8.0);
    let packets = (scale.packets / 20).max(5_000);
    let mut sys = echo_system(cfg, open_loop(frame, offered, packets), true);
    // Sample coarsely: the per-tick audits (fault accounting included)
    // must run, but the timeline itself is not this experiment's product.
    sys.enable_flight_recorder(SimDuration::from_micros(10));
    sys.enable_faults(&plan);
    let echo = h.simulate_until(sys, SimTime::ZERO, scale.deadline());

    // --- FLD-R RDMA leg ---
    let total = (scale.packets / 40).max(2_000);
    let rcfg = RdmaConfig::remote(1024, 16, total);
    let mut rsys = RdmaSystem::new(rcfg, Box::new(MsgEcho));
    rsys.enable_flight_recorder(SimDuration::from_micros(10));
    rsys.enable_faults(&plan);
    let rdma = h.simulate_until(rsys, SimTime::ZERO, scale.deadline());

    ChaosPoint {
        rate: plan.rate,
        echo,
        rdma_total: total,
        rdma,
    }
}

/// Renders the sweep as a text table.
pub fn render(points: &[ChaosPoint]) -> String {
    let mut t = TextTable::new(vec![
        "Fault rate",
        "Echo Gbps",
        "Echo inj",
        "Echo drop",
        "RDMA done",
        "RDMA fail",
        "Retrans",
        "RDMA inj",
    ]);
    for p in points {
        t.row(vec![
            format!("{:.0e}", p.rate),
            format!("{:.2}", p.echo.client_rate.gbps()),
            p.echo_injected().to_string(),
            p.echo_dropped_counted().to_string(),
            format!("{}/{}", p.rdma.completed, p.rdma_total),
            p.rdma.failed.to_string(),
            p.rdma.retransmits.to_string(),
            p.rdma_injected().to_string(),
        ]);
    }
    format!(
        "Chaos sweep: goodput and recovery vs injected fault rate\n\
         (echo: 512 B open-loop at 50% line; rdma: 1 KiB echo, window 16)\n{}",
        t.render()
    )
}

/// Checks the sweep's acceptance invariants, returning the first failure
/// (an audit violation in any run is the harness's to report):
///
/// * every injected fault is accounted (nothing silently vanishes);
/// * RDMA conserves messages: completed + failed never exceeds offered;
/// * echo goodput bytes are monotonically non-increasing in the fault
///   rate — degradation is smooth, with no paradoxical recovery.
///
/// # Errors
///
/// Returns a human-readable description of the violated invariant.
pub fn validate(points: &[ChaosPoint]) -> Result<(), String> {
    for p in points {
        if p.echo_unaccounted() != 0 || p.rdma_unaccounted() != 0 {
            return Err(format!(
                "rate {:.0e}: {} echo + {} rdma faults unaccounted",
                p.rate,
                p.echo_unaccounted(),
                p.rdma_unaccounted()
            ));
        }
        if p.rdma.completed + p.rdma.failed > p.rdma_total {
            return Err(format!(
                "rate {:.0e}: rdma over-delivered: {} completed + {} failed > {} offered",
                p.rate, p.rdma.completed, p.rdma.failed, p.rdma_total
            ));
        }
    }
    for w in points.windows(2) {
        let (before, after) = (w[0].echo.client_rate.bytes(), w[1].echo.client_rate.bytes());
        if w[1].rate >= w[0].rate && after > before {
            return Err(format!(
                "goodput not monotone: {before} B at rate {:.0e} but {after} B at rate {:.0e}",
                w[0].rate, w[1].rate
            ));
        }
    }
    Ok(())
}

/// Node the rack leg's scripted crash takes down.
pub const CRASHED_NODE: u16 = 1;
/// VF the rack leg's scripted unplug removes: (node, tenant).
pub const UNPLUGGED_VF: (u16, u16) = (2, 1);
/// Flow churn rate (arrivals/s) the rack leg runs under — churn is what
/// re-establishes a crashed node's flows after recovery.
pub const RACK_CHURN: f64 = 15_000.0;

/// The chaos rack: 4 nodes × 6 tenants under uniform traffic, sized so
/// the fabric is loaded but loss-free when no fault domain is down.
pub fn rack_cfg(seed: u64) -> RackConfig {
    RackConfig {
        nodes: 4,
        tenants: 6,
        tx_queues: 32,
        victim: 0,
        victim_rate: 60_000.0,
        aggressor_rate: 90_000.0,
        payload: 512,
        pattern: TrafficPattern::Uniform,
        vf_shaper: None,
        seed,
        ..RackConfig::default()
    }
}

/// The rack leg's fault script, phased across the run (percentages of
/// the deadline) so every outage fully recovers before end-of-run:
///
/// * scripted [`FaultKind::NodeCrash`] of [`CRASHED_NODE`] at 25 % for
///   15 % — every queue forced through the error state machine, churn
///   flows killed and re-established;
/// * scripted [`FaultKind::VfUnplug`] of [`UNPLUGGED_VF`] at 30 % for
///   10 % — eswitch rules reclaimed, traffic dropped-and-counted,
///   replugged with rules reinstalled;
/// * three seeded [`FaultKind::FabricLinkFlap`]s drawn from
///   `--fault-seed` in the 45–75 % window, 1–4 % long each.
pub fn rack_schedule(scale: Scale, seed: u64, nodes: u16, tenants: u16) -> FaultSchedule {
    let at = |pct: u64| SimTime::from_micros(scale.deadline_ms * 10 * pct);
    let dur = |pct: u64| SimDuration::from_micros(scale.deadline_ms * 10 * pct);
    let mut sched = FaultSchedule::seeded(
        seed,
        at(45),
        at(75),
        &[ScheduleSpec {
            kind: FaultKind::FabricLinkFlap,
            count: 3,
            entities: nodes as u32,
            min_duration: dur(1),
            max_duration: dur(4),
        }],
    );
    sched.push(FaultEvent {
        at: at(25),
        kind: FaultKind::NodeCrash,
        entity: CRASHED_NODE as u32,
        duration: dur(15),
    });
    sched.push(FaultEvent {
        at: at(30),
        kind: FaultKind::VfUnplug,
        entity: (UNPLUGGED_VF.0 * tenants + UNPLUGGED_VF.1) as u32,
        duration: dur(10),
    });
    sched
}

/// The rack topology leg: a fault-free baseline and the same seeded
/// rack under the scripted [`rack_schedule`].
#[derive(Debug)]
pub struct ChaosRackLegs {
    /// The rack with no schedule armed — the degradation yardstick.
    pub baseline: RackStats,
    /// The same rack under link flaps, a node crash and a VF unplug.
    pub faulted: RackStats,
    /// Events the schedule carried (every one must be injected).
    pub scheduled: u64,
    /// Upper bound on any observed MTTR (the run deadline, ns).
    pub mttr_bound_ns: u64,
}

/// Runs the rack leg at `seed` under `h`: baseline first, then the
/// faulted run with the health watchdog armed.
/// Both runs carry the flight recorder so the per-tick audits (fault
/// accounting, counter telescoping, boundary accounting) execute
/// throughout.
pub fn run_rack_leg(h: &Harness, seed: u64) -> ChaosRackLegs {
    let scale = h.scale();
    let cfg = rack_cfg(seed);
    let schedule = rack_schedule(scale, seed, cfg.nodes, cfg.tenants);
    let scheduled = schedule.len() as u64;
    let tick = SimDuration::from_micros(10);

    let mut rack = build_rack(cfg, RACK_CHURN);
    rack.enable_flight_recorder(tick);
    let baseline = h.simulate(rack);

    let mut rack = build_rack(cfg, RACK_CHURN);
    rack.enable_flight_recorder(tick);
    rack.enable_fault_schedule(schedule, HealthConfig::default());
    let faulted = h.simulate(rack);

    ChaosRackLegs {
        baseline,
        faulted,
        scheduled,
        mttr_bound_ns: scale.deadline_ms * 1_000_000,
    }
}

/// Renders the rack leg: both runs side by side, then the fault-domain
/// summary (detection, MTTR, flow churn across the crash).
pub fn render_rack(legs: &ChaosRackLegs) -> String {
    let mut t = TextTable::new(vec![
        "Leg",
        "Delivered",
        "Blackholed",
        "Boundary drops",
        "Fabric drops",
    ]);
    for (name, stats) in [("baseline", &legs.baseline), ("faulted", &legs.faulted)] {
        t.row(vec![
            name.to_string(),
            stats.delivered.to_string(),
            stats.blackholed.to_string(),
            stats.boundary_drops.to_string(),
            stats.fabric_drops.to_string(),
        ]);
    }
    let fd = legs.faulted.fault_domains.unwrap_or_default();
    let tenants = legs.faulted.tenant_rtt.len();
    let worst_ratio = (0..tenants as u16)
        .filter(|&t| legs.baseline.tenant_p99_ns(t) > 0)
        .map(|t| legs.faulted.tenant_p99_ns(t) as f64 / legs.baseline.tenant_p99_ns(t) as f64)
        .fold(0.0f64, f64::max);
    format!(
        "Chaos rack: link flaps + node {} crash + VF {}.{} unplug under churn\n\
         faults {} injected / {} recovered / {} open, {} unaccounted\n\
         detection max {:.1} us, MTTR max {:.1} us ({} recoveries)\n\
         flows killed {} / re-established {}; worst surviving-tenant p99 x{:.2}\n{}",
        CRASHED_NODE,
        UNPLUGGED_VF.0,
        UNPLUGGED_VF.1,
        fd.injected,
        fd.recovered,
        fd.open,
        fd.unaccounted,
        fd.detection_max_ns as f64 / 1e3,
        fd.mttr_max_ns as f64 / 1e3,
        fd.mttr_count,
        fd.flows_killed,
        fd.flows_revived,
        worst_ratio,
        t.render()
    )
}

/// Checks the rack leg's acceptance invariants, returning the first
/// failure (an audit violation in either run is the harness's to report):
///
/// * every scheduled fault was injected and resolved — nothing open,
///   nothing unaccounted, read from the rack ledger itself;
/// * every fault domain ended the run Healthy, with a measured MTTR
///   that is positive and bounded by the run deadline;
/// * the node crash cost in-flight packets (dropped *and counted*) and
///   the link flaps blackholed offered traffic — faults with no
///   observable blast radius mean the fault points are disconnected;
/// * the crashed node's flows were re-established (churn repopulated
///   it) and it ended the run carrying flows;
/// * no surviving tenant's p99 exceeds 3× its fault-free baseline.
///
/// # Errors
///
/// Returns a human-readable description of the violated invariant.
pub fn validate_rack(legs: &ChaosRackLegs) -> Result<(), String> {
    let fd = legs
        .faulted
        .fault_domains
        .ok_or("rack faulted run armed no fault schedule")?;
    if fd.injected != legs.scheduled {
        return Err(format!(
            "{} faults scheduled but {} injected",
            legs.scheduled, fd.injected
        ));
    }
    if fd.open != 0 || fd.unaccounted != 0 {
        return Err(format!(
            "fault ledger unbalanced: {} open, {} unaccounted",
            fd.open, fd.unaccounted
        ));
    }
    if !fd.all_healthy {
        return Err("a fault domain did not return to Healthy".into());
    }
    if fd.mttr_count == 0 || fd.mttr_max_ns == 0 {
        return Err("no recovery time was measured".into());
    }
    if fd.mttr_max_ns > legs.mttr_bound_ns {
        return Err(format!(
            "MTTR {} ns exceeds the {} ns deadline bound",
            fd.mttr_max_ns, legs.mttr_bound_ns
        ));
    }
    if legs.faulted.boundary_drops == 0 {
        return Err("node crash cost no in-flight packet (fault point disconnected)".into());
    }
    if legs.faulted.blackholed == 0 {
        return Err("link flaps blackholed no offered traffic".into());
    }
    if fd.flows_killed == 0 || fd.flows_revived == 0 {
        return Err(format!(
            "crash churn inert: {} flows killed, {} re-established",
            fd.flows_killed, fd.flows_revived
        ));
    }
    let crashed = legs
        .faulted
        .flows_per_node
        .get(CRASHED_NODE as usize)
        .copied()
        .unwrap_or(0);
    if crashed == 0 {
        return Err(format!(
            "crashed node {CRASHED_NODE} ended the run flowless"
        ));
    }
    for t in 0..legs.faulted.tenant_rtt.len() as u16 {
        let base = legs.baseline.tenant_p99_ns(t);
        let p99 = legs.faulted.tenant_p99_ns(t);
        if base > 0 && p99 as f64 > 3.0 * base as f64 {
            return Err(format!(
                "tenant {t} p99 {p99} ns exceeds 3x its {base} ns baseline"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_degrades_smoothly_and_accounts_for_everything() {
        let h = Harness::quick();
        let rates = vec![0.0, 1e-3, 1e-2];
        let points = h.sweep(rates, |h, rate| run_point(h, FaultPlan::new(rate, 7)));
        validate(&points).unwrap();
        assert_eq!(h.audit_failures(), Vec::<String>::new());
        // The baseline is fault-free and loss-free; the top rate injects
        // plenty and loses real goodput.
        assert_eq!(points[0].echo_injected(), 0);
        assert_eq!(points[0].rdma.failed, 0);
        assert!(points[2].echo_injected() > 0);
        assert!(points[2].echo.client_rate.bytes() < points[0].echo.client_rate.bytes());
        assert!(points[2].rdma.retransmits > 0, "loss must trigger recovery");
        // Every faulted run injects on both legs, and every run audits.
        for p in &points[1..] {
            assert!(
                p.echo_injected() > 0,
                "echo@{:.0e} injected nothing",
                p.rate
            );
            assert!(
                p.rdma_injected() > 0,
                "rdma@{:.0e} injected nothing",
                p.rate
            );
        }
        for p in &points {
            assert!(p.echo.audit.checks > 0 && p.rdma.audit.checks > 0);
        }
        let rendered = render(&points);
        assert!(rendered.contains("Fault rate"), "{rendered}");
    }

    #[test]
    fn quick_rack_leg_recovers_and_stays_accounted() {
        let h = Harness::quick();
        let legs = run_rack_leg(&h, 7);
        validate_rack(&legs).unwrap();
        assert_eq!(h.audit_failures(), Vec::<String>::new());
        assert!(legs.baseline.audit.checks > 0 && legs.faulted.audit.checks > 0);
        let rendered = render_rack(&legs);
        assert!(rendered.contains("Chaos rack"), "{rendered}");
        // The leg replays byte-identically under the same seed.
        let again = run_rack_leg(&Harness::quick(), 7);
        assert_eq!(
            legs.faulted.counters.entries(),
            again.faulted.counters.entries()
        );
        assert_eq!(legs.faulted.delivered, again.faulted.delivered);
    }

    #[test]
    fn sweep_points_are_jobs_invariant() {
        let h = Harness::quick();
        let fingerprint = |points: &[ChaosPoint]| {
            points
                .iter()
                .map(|p| {
                    (
                        p.echo.client_rate.bytes(),
                        p.echo_injected(),
                        p.rdma.completed,
                        p.rdma_injected(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let rates = [0.0, 1e-2];
        let run = |r| run_point(&h, FaultPlan::new(r, 7));
        let serial = crate::runner::run_points(rates.to_vec(), 1, run);
        let parallel = crate::runner::run_points(rates.to_vec(), 4, run);
        assert_eq!(fingerprint(&serial), fingerprint(&parallel));
    }
}
