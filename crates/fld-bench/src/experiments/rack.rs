//! Rack-scale multi-tenant topology: ≥ 2048 live tx queues across N FLD
//! nodes, SR-IOV VF partitioning, and tenant isolation under incast.
//!
//! Two scenarios back `exp rack` (`--nodes`, `--tenants`, `--churn`
//! size it), whose gates fail the run when the shaped-leg victim p99
//! exceeds 2× its isolated baseline or a run at ≥ 2048 configured queues
//! leaves rings dead:
//!
//! * **liveness** — uniform traffic under connection churn, proving the
//!   Figure 4 memory-model point (2048 queues) as an *executed* run: the
//!   spraying accelerator keeps every node's every tx ring live;
//! * **isolation** — all tenants incast one node. Three legs: the victim
//!   alone (baseline p99), aggressors unshaped (the fabric port
//!   congests), and aggressors held by per-VF token-bucket shapers. The
//!   acceptance bar is shaped-leg victim p99 ≤ 2× the isolated baseline.
//!
//! Every leg runs under the full invariant audit: per-VF counters
//! telescope to PF totals inside each node, fabric port counters
//! telescope to the rack aggregates, and VF transmissions reconcile with
//! fabric admissions.

use fld_core::rack::{Rack, RackConfig, RackStats, TrafficPattern};
use fld_sim::rng::SimRng;
use fld_sim::time::{Bandwidth, SimDuration};
use fld_workloads::churn::{ChurnConfig, ChurnProcess};

use crate::experiments::{gates, Gates};
use crate::fmt::TextTable;
use crate::report::{Cli, Report};

/// `exp rack`: the liveness leg, then the three isolation legs.
pub fn run(cli: &Cli, report: &mut Report) -> Gates {
    let base = RackConfig {
        nodes: cli.nodes,
        tenants: cli.tenants,
        ..RackConfig::default()
    };
    let mut failures = Vec::new();

    // Leg 1: queue liveness under uniform traffic and churn — the run
    // that executes the Figure 4 memory-model point.
    let recorder = cli.wants_telemetry().then(|| cli.sample_interval());
    let live = run_rack(liveness_cfg(base), cli.churn, cli, recorder);
    report.section(render_liveness(&live));
    if live.queues_configured >= 2048 && live.queues_live < 2048 {
        failures.push(format!(
            "only {} of {} tx queues went live (need >= 2048)",
            live.queues_live, live.queues_configured
        ));
    }
    report.audit("liveness", live.audit);
    report.metrics("liveness", live.metrics);
    report.timeline(live.timeline);
    report.counters("liveness/fabric", live.counters);
    for (n, snap) in live.node_counters.into_iter().enumerate() {
        report.counters(format!("liveness/node{n}"), snap);
    }

    // Legs 2-4: tenant isolation under incast.
    let legs = isolation(base, cli.churn, cli);
    report.section(legs.render());
    let ratio = legs.shaped_ratio();
    if ratio.is_nan() || ratio > 2.0 {
        failures.push(format!(
            "shaped victim p99 is x{ratio:.2} its isolated baseline (bar: <= x2)"
        ));
    }
    for (name, stats) in [
        ("isolated", legs.isolated),
        ("unshaped", legs.unshaped),
        ("shaped", legs.shaped),
    ] {
        report.audit(name, stats.audit);
        report.metrics(name, stats.metrics);
    }
    gates(failures)
}

/// The per-VF token-bucket shape for the isolation experiment's shaped
/// leg: 36 VFs (9 tenants × 4 nodes) × 0.2 Gbps = 7.2 Gbps, comfortably
/// inside the 25 Gbps fabric port, while each aggressor still offers
/// ~3.4 Gbps — the shapers, not the fabric, do the isolating.
pub fn default_shaper() -> (Bandwidth, u64) {
    (Bandwidth::gbps(0.2), 16 * 1024)
}

/// Builds a rack over a churning flow population at `churn_rate`
/// arrivals/s (0 disables churn; the initial population lives forever).
pub fn build_rack(cfg: RackConfig, churn_rate: f64) -> Rack {
    let churn = ChurnConfig {
        tenants: cfg.tenants,
        nodes: cfg.nodes,
        arrival_rate: churn_rate,
        ..ChurnConfig::default()
    };
    let mut rng = SimRng::seed_from(cfg.seed ^ 0x00C0_FFEE);
    let pop = ChurnProcess::new(churn, &mut rng);
    Rack::new(cfg, Box::new(pop))
}

/// One rack run: build, optionally arm the flight recorder, run to the
/// deadline of `cli`'s scale measuring from its warmup, strictly audited
/// when `cli` asks for it.
pub fn run_rack(
    cfg: RackConfig,
    churn_rate: f64,
    cli: &Cli,
    recorder: Option<SimDuration>,
) -> RackStats {
    let mut rack = build_rack(cfg, churn_rate);
    if let Some(interval) = recorder {
        rack.enable_flight_recorder(interval);
    }
    if cli.strict_audit {
        rack.enable_strict_audit();
    }
    let scale = cli.scale();
    rack.run(scale.warmup(), scale.deadline())
}

/// The queue-liveness scenario: uniform pattern so every node's rings
/// carry traffic.
pub fn liveness_cfg(base: RackConfig) -> RackConfig {
    RackConfig {
        pattern: TrafficPattern::Uniform,
        vf_shaper: None,
        ..base
    }
}

/// Renders the liveness leg: executed queue count against the
/// configured total, plus the churn the population sustained.
pub fn render_liveness(stats: &RackStats) -> String {
    let mut t = TextTable::new(vec!["Metric", "Value"]);
    t.row(vec![
        "tx queues configured".into(),
        stats.queues_configured.to_string(),
    ]);
    t.row(vec!["tx queues live".into(), stats.queues_live.to_string()]);
    t.row(vec!["packets offered".into(), stats.offered.to_string()]);
    t.row(vec![
        "packets delivered".into(),
        stats.delivered.to_string(),
    ]);
    t.row(vec![
        "flow churn (arrivals / departures)".into(),
        format!("{} / {}", stats.arrivals, stats.departures),
    ]);
    format!(
        "Rack queue liveness: uniform tenant traffic under connection churn\n\
         (Figure 4's 2048-queue memory point, executed live)\n{}",
        t.render()
    )
}

/// The three isolation legs.
#[derive(Debug)]
pub struct IsolationLegs {
    /// Victim alone — the baseline p99.
    pub isolated: RackStats,
    /// Aggressors incast the victim's node, unshaped.
    pub unshaped: RackStats,
    /// Aggressors incast through per-VF shapers.
    pub shaped: RackStats,
    /// The protected tenant.
    pub victim: u16,
}

impl IsolationLegs {
    /// Victim p99 degradation, shaped leg over isolated baseline.
    pub fn shaped_ratio(&self) -> f64 {
        ratio(
            self.shaped.tenant_p99_ns(self.victim),
            self.isolated.tenant_p99_ns(self.victim),
        )
    }

    /// Victim p99 degradation, unshaped leg over isolated baseline.
    pub fn unshaped_ratio(&self) -> f64 {
        ratio(
            self.unshaped.tenant_p99_ns(self.victim),
            self.isolated.tenant_p99_ns(self.victim),
        )
    }

    /// Renders the isolation table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Leg",
            "Victim p99",
            "Fabric drops",
            "Shaper drops",
            "Delivered",
        ]);
        for (name, stats) in [
            ("victim alone", &self.isolated),
            ("incast, unshaped", &self.unshaped),
            ("incast, per-VF shapers", &self.shaped),
        ] {
            t.row(vec![
                name.to_string(),
                format!("{:.2} us", stats.tenant_p99_ns(self.victim) as f64 / 1e3),
                stats.fabric_drops.to_string(),
                stats.shaper_drops.to_string(),
                stats.delivered.to_string(),
            ]);
        }
        format!(
            "Tenant isolation under incast (victim = tenant {}):\n\
             unshaped degradation x{:.2}, shaped x{:.2} (bar: <= x2)\n{}",
            self.victim,
            self.unshaped_ratio(),
            self.shaped_ratio(),
            t.render()
        )
    }
}

fn ratio(p99: u64, base: u64) -> f64 {
    if base == 0 {
        f64::INFINITY
    } else {
        p99 as f64 / base as f64
    }
}

/// Runs the three-leg isolation experiment on `base` (its `pattern`
/// is forced to incast and its shaper/aggressor knobs are overridden
/// per leg).
pub fn isolation(base: RackConfig, churn_rate: f64, cli: &Cli) -> IsolationLegs {
    let target = match base.pattern {
        TrafficPattern::Incast { target } => target,
        _ => 0,
    };
    let leg = |aggressor_rate, vf_shaper| {
        let cfg = RackConfig {
            pattern: TrafficPattern::Incast { target },
            aggressor_rate,
            vf_shaper,
            ..base
        };
        run_rack(cfg, churn_rate, cli, None)
    };
    let isolated = leg(0.0, None);
    let unshaped = leg(base.aggressor_rate, None);
    let shaped = leg(base.aggressor_rate, Some(default_shaper()));
    IsolationLegs {
        isolated,
        unshaped,
        shaped,
        victim: base.victim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_sim::time::SimTime;

    /// A reduced rack that still has every moving part: 4 nodes, 9
    /// tenants, churn, but 64 queues per node and quick durations.
    fn small_base() -> RackConfig {
        RackConfig {
            tx_queues: 64,
            ..RackConfig::default()
        }
    }

    #[test]
    fn liveness_run_exercises_every_queue() {
        let stats = run_rack(liveness_cfg(small_base()), 20_000.0, &Cli::quick(), None);
        assert!(stats.audit.passed(), "{}", stats.audit);
        assert_eq!(stats.queues_configured, 4 * 64);
        assert_eq!(
            stats.queues_live, stats.queues_configured,
            "uniform spray must keep every ring live"
        );
        assert!(stats.arrivals > 0 && stats.departures > 0, "churn inert");
    }

    #[test]
    fn shapers_restore_victim_latency_under_incast() {
        let legs = isolation(small_base(), 20_000.0, &Cli::quick());
        for (name, stats) in [
            ("isolated", &legs.isolated),
            ("unshaped", &legs.unshaped),
            ("shaped", &legs.shaped),
        ] {
            assert!(stats.audit.passed(), "{name}: {}", stats.audit);
            assert!(
                stats.tenant_p99_ns(legs.victim) > 0,
                "{name}: victim silent"
            );
        }
        // The unshaped incast congests the fabric port; shaping drains it.
        assert!(legs.unshaped.fabric_drops > 0, "incast never congested");
        assert!(legs.shaped.shaper_drops > 0, "shapers never engaged");
        assert!(
            legs.shaped_ratio() <= 2.0,
            "shaped victim p99 x{:.2} exceeds the 2x bar (unshaped was x{:.2})",
            legs.shaped_ratio(),
            legs.unshaped_ratio()
        );
        assert!(
            legs.unshaped_ratio() > legs.shaped_ratio(),
            "shaping did not help: unshaped x{:.2} vs shaped x{:.2}",
            legs.unshaped_ratio(),
            legs.shaped_ratio()
        );
    }

    #[test]
    fn rack_metrics_replay_byte_identically_and_in_parallel() {
        let cfg = RackConfig {
            nodes: 2,
            tenants: 3,
            tx_queues: 8,
            ..RackConfig::default()
        };
        let run = |seed: u64| {
            let stats = build_rack(RackConfig { seed, ..cfg }, 20_000.0)
                .run(SimTime::ZERO, SimTime::from_millis(5));
            stats.metrics.to_json()
        };
        assert_eq!(run(1), run(1));
        let seeds = vec![1u64, 2, 3, 4];
        let serial = crate::runner::run_points(seeds.clone(), 1, run);
        let parallel = crate::runner::run_points(seeds, 4, run);
        assert_eq!(serial, parallel);
    }
}
