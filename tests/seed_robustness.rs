//! The paper's qualitative conclusions must not depend on a lucky RNG
//! seed: rerun the key comparisons across several seeds and assert the
//! *orderings* (who wins, roughly by how much) every time.

use flexdriver::accel::EchoAccelerator;
use flexdriver::core::{ClientGen, FldSystem, GenMode, HostMode, SystemConfig};
use flexdriver::nic::{Action, Direction, MatchSpec, Rule};
use flexdriver::sim::SimTime;

const SEEDS: [u64; 3] = [0xF1D0, 0xBEEF, 0x1234_5678];

fn echo_run(seed: u64, use_fld: bool) -> (f64, u64) {
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::remote()
    };
    let rate = cfg.client_rate.as_bps() / (1500.0 * 8.0);
    let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate }, 120_000, 1458);
    let host_mode = if use_fld {
        HostMode::Consume
    } else {
        HostMode::Echo
    };
    let mut sys = FldSystem::new(cfg, Box::new(EchoAccelerator::prototype()), host_mode, gen);
    if use_fld {
        sys.nic
            .install_rule(
                Direction::Ingress,
                0,
                Rule {
                    priority: 0,
                    spec: MatchSpec::any(),
                    actions: vec![Action::ToAccelerator {
                        queue: 0,
                        next_table: 1,
                    }],
                },
            )
            .unwrap();
        sys.nic
            .install_rule(
                Direction::Ingress,
                1,
                Rule {
                    priority: 0,
                    spec: MatchSpec::any(),
                    actions: vec![Action::ToWire { port: 0 }],
                },
            )
            .unwrap();
    } else {
        let rss = sys.nic.create_rss(16);
        sys.nic
            .install_rule(
                Direction::Ingress,
                0,
                Rule {
                    priority: 0,
                    spec: MatchSpec::any(),
                    actions: vec![Action::ToHostRss { rss_id: rss }],
                },
            )
            .unwrap();
        sys.nic
            .install_rule(
                Direction::Egress,
                0,
                Rule {
                    priority: 0,
                    spec: MatchSpec::any(),
                    actions: vec![Action::ToWire { port: 0 }],
                },
            )
            .unwrap();
    }
    let stats = sys.run(SimTime::from_millis(3), SimTime::from_millis(40));
    (stats.client_rate.gbps(), stats.rtt.percentile(50.0))
}

#[test]
fn echo_throughput_stable_across_seeds() {
    let rates: Vec<f64> = SEEDS.iter().map(|&s| echo_run(s, true).0).collect();
    for (i, r) in rates.iter().enumerate() {
        assert!(
            (r - rates[0]).abs() / rates[0] < 0.02,
            "seed {} diverged: {r:.2} vs {:.2}",
            SEEDS[i],
            rates[0]
        );
        assert!(*r > 22.0, "seed {} below line-rate band: {r:.2}", SEEDS[i]);
    }
}

#[test]
fn fld_vs_cpu_parity_holds_across_seeds() {
    for &seed in &SEEDS {
        let (fld, _) = echo_run(seed, true);
        let (cpu, _) = echo_run(seed, false);
        assert!(
            (fld - cpu).abs() / fld < 0.1,
            "seed {seed:#x}: fld {fld:.2} vs cpu {cpu:.2}"
        );
    }
}

#[test]
fn defrag_conclusions_hold_across_seeds() {
    use fld_bench::experiments::defrag::{run_defrag, DefragConfig};
    use fld_bench::harness::Harness;
    use fld_bench::Scale;
    // The defrag experiment's RNG affects only tenant/jitter draws, but the
    // conclusion (hardware defrag ~7x software) must be robust to scale
    // changes too: run at two different quick scales.
    for (packets, deadline) in [(50_000u64, 20u64), (90_000, 35)] {
        let scale = Scale {
            packets,
            warmup_ms: 2,
            deadline_ms: deadline,
        };
        let sw = run_defrag(
            DefragConfig::SoftwareDefrag,
            &Harness::quick().with_scale(scale),
        );
        let hw = run_defrag(
            DefragConfig::HardwareDefrag,
            &Harness::quick().with_scale(scale),
        );
        assert!(
            hw / sw > 4.0,
            "scale {packets}/{deadline}: speedup {:.1} too small",
            hw / sw
        );
    }
}

#[test]
fn isolation_conclusion_holds_across_seeds() {
    use fld_bench::experiments::iot::run_isolation;
    use fld_bench::harness::Harness;
    use fld_bench::Scale;
    let scale = Scale {
        packets: 60_000,
        warmup_ms: 2,
        deadline_ms: 25,
    };
    // The proportional-split and shaped-fairness results must hold at a
    // different offered mix too (12 vs 12 instead of 8 vs 16).
    let even = run_isolation(
        (12.0, 12.0),
        12.0,
        None,
        1024,
        &Harness::quick().with_scale(scale),
    );
    assert!(
        (even.0 - even.1).abs() < 1.0,
        "equal offered loads must split evenly: {even:?}"
    );
    let shaped = run_isolation(
        (12.0, 12.0),
        12.0,
        Some(6.0),
        1024,
        &Harness::quick().with_scale(scale),
    );
    assert!(
        (shaped.0 - 6.0).abs() < 1.0 && (shaped.1 - 6.0).abs() < 1.0,
        "{shaped:?}"
    );
}
