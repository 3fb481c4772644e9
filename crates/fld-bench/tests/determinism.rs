//! Determinism regression: a seeded run must reproduce byte-identical
//! metrics, and the parallel sweep runner must not change a single byte
//! relative to the serial path — every sweep point builds its own system
//! with its own seed, so thread interleaving has nothing to perturb.
//! Chaos runs are held to the same bar: for *any* fault plan every
//! injected fault is resolved (nothing silently vanishes) and the same seed
//! reproduces the same bytes, serial or parallel.

use proptest::prelude::*;

use fld_accel::echo::EchoAccelerator;
use fld_bench::experiments::echo::{echo_system, open_loop, steer_to_accel};
use fld_bench::experiments::rack::build_rack;
use fld_bench::runner::run_points;
use fld_core::rack::RackConfig;
use fld_core::rdma_system::{MsgEcho, RdmaConfig, RdmaSystem};
use fld_core::system::{ClientGen, FldSystem, GenMode, HostMode, SystemConfig};
use fld_sim::counters::CounterSnapshot;
use fld_sim::fault::{FaultKind, FaultPlan};
use fld_sim::time::{SimDuration, SimTime};

fn echo_metrics_json(size: u32) -> String {
    let cfg = SystemConfig::remote();
    let offered = cfg.client_rate.as_bps() / (size as f64 * 8.0);
    let sys = echo_system(cfg, open_loop(size, offered, 60_000), true);
    let stats = sys.run(SimTime::from_millis(2), SimTime::from_millis(25));
    stats.metrics.to_json()
}

fn rdma_metrics_json(window: u32) -> String {
    let cfg = RdmaConfig::remote(1024, window, 20_000);
    let stats = RdmaSystem::new(cfg, Box::new(MsgEcho)).run(SimTime::ZERO, SimTime::from_secs(5));
    stats.metrics.to_json()
}

#[test]
fn repeated_seeded_runs_are_byte_identical() {
    assert_eq!(echo_metrics_json(256), echo_metrics_json(256));
    assert_eq!(rdma_metrics_json(16), rdma_metrics_json(16));
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let sizes = vec![64u32, 256, 1024];
    let serial = run_points(sizes.clone(), 1, echo_metrics_json);
    let parallel = run_points(sizes, 4, echo_metrics_json);
    assert_eq!(serial, parallel);

    let windows = vec![1u32, 8, 32];
    let serial = run_points(windows.clone(), 1, rdma_metrics_json);
    let parallel = run_points(windows, 4, rdma_metrics_json);
    assert_eq!(serial, parallel);
}

/// One seeded rack run; returns its metrics JSON concatenated with the
/// full counter dump (fabric + every node), so the comparison covers the
/// whole multi-node topology byte-for-byte, not just the aggregates.
fn rack_bytes(seed: u64) -> String {
    let cfg = RackConfig {
        nodes: 2,
        tenants: 3,
        tx_queues: 8,
        seed,
        ..RackConfig::default()
    };
    let mut rack = build_rack(cfg, 20_000.0);
    rack.enable_flight_recorder(SimDuration::from_micros(50));
    let stats = rack.run(SimTime::ZERO, SimTime::from_millis(5));
    assert!(stats.audit.passed(), "{}", stats.audit);
    let mut runs = vec![("fabric".to_string(), stats.counters)];
    for (n, snap) in stats.node_counters.into_iter().enumerate() {
        runs.push((format!("node{n}"), snap));
    }
    format!(
        "{}\n{}",
        stats.metrics.to_json(),
        fld_sim::counters::write_dump("rack", &runs)
    )
}

#[test]
fn rack_sweep_is_byte_identical_serial_and_parallel() {
    assert_eq!(rack_bytes(7), rack_bytes(7));
    let seeds = vec![1u64, 2, 3, 4];
    let serial = run_points(seeds.clone(), 1, rack_bytes);
    let parallel = run_points(seeds, 4, rack_bytes);
    assert_eq!(serial, parallel);
}

/// One seeded chaos echo run; returns its metrics JSON and counters.
fn chaos_echo_run(plan: FaultPlan, packets: u64) -> (String, CounterSnapshot) {
    let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 2e6 }, packets, 470);
    let mut sys = FldSystem::new(
        SystemConfig::remote(),
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    steer_to_accel(&mut sys.nic);
    sys.enable_strict_audit();
    sys.enable_flight_recorder(SimDuration::from_micros(5));
    sys.enable_faults(&plan);
    let stats = sys.run(SimTime::ZERO, SimTime::from_millis(50));
    assert!(stats.audit.passed(), "{}", stats.audit);
    (stats.metrics.to_json(), stats.counters)
}

/// One seeded chaos RDMA run; returns its metrics JSON and counters.
fn chaos_rdma_run(plan: FaultPlan, total: u64) -> (String, CounterSnapshot) {
    let cfg = RdmaConfig::remote(1024, 16, total);
    let mut sys = RdmaSystem::new(cfg, Box::new(MsgEcho));
    sys.enable_strict_audit();
    sys.enable_flight_recorder(SimDuration::from_micros(5));
    sys.enable_faults(&plan);
    let stats = sys.run(SimTime::ZERO, SimTime::from_millis(50));
    assert!(stats.audit.passed(), "{}", stats.audit);
    (stats.metrics.to_json(), stats.counters)
}

#[test]
fn chaos_sweep_is_byte_identical_serial_and_parallel() {
    let rates = vec![0.0f64, 1e-3, 1e-2];
    let echo = |r: f64| chaos_echo_run(FaultPlan::new(r, 11), 2_000).0;
    assert_eq!(
        run_points(rates.clone(), 1, echo),
        run_points(rates.clone(), 4, echo)
    );
    let rdma = |r: f64| chaos_rdma_run(FaultPlan::new(r, 11), 1_000).0;
    assert_eq!(
        run_points(rates.clone(), 1, rdma),
        run_points(rates, 4, rdma)
    );
}

/// Builds an arbitrary fault plan: any rate, seed, and non-empty subset
/// of fault kinds.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (0.0f64..0.05, any::<u64>(), 1u16..1024).prop_map(|(rate, seed, mask)| {
        let kinds: Vec<&str> = FaultKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| k.name())
            .collect();
        FaultPlan::new(rate, seed)
            .with_kinds_csv(&kinds.join(","))
            .expect("every kind name parses")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any fault plan over the echo workload: every injected fault is
    /// accounted (delivered work + dropped-and-counted + terminal ==
    /// injected, with nothing left open after the drain), the strict
    /// in-run audit holds at every tick, and the same seed reproduces
    /// byte-identical metrics.
    #[test]
    fn any_fault_plan_conserves_echo_packets(plan in arb_plan()) {
        let (json_a, counters) = chaos_echo_run(plan, 400);
        prop_assert_eq!(counters.sum_prefix("recovery"), counters.sum_prefix("faults"));
        let (json_b, _) = chaos_echo_run(plan, 400);
        prop_assert_eq!(json_a, json_b);
    }

    /// The same property over the RDMA workload, where recovery runs
    /// through retransmission, RNR back-off and the QP error state.
    #[test]
    fn any_fault_plan_conserves_rdma_messages(plan in arb_plan()) {
        let (json_a, counters) = chaos_rdma_run(plan, 200);
        prop_assert_eq!(counters.sum_prefix("recovery"), counters.sum_prefix("faults"));
        let (json_b, _) = chaos_rdma_run(plan, 200);
        prop_assert_eq!(json_a, json_b);
    }
}
