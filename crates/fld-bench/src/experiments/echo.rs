//! FLD-E echo experiments: Figure 7b (left columns), Table 6 and the
//! § 8.1.1 mixed-size (IMC-2010) packet-rate comparison.

use fld_accel::echo::EchoAccelerator;
use fld_core::rdma_system::RdmaConfig;
use fld_core::system::{ClientGen, FldSystem, GenMode, HostMode, RunStats, SystemConfig};
use fld_nic::eswitch::{Action, MatchSpec, Rule};
use fld_nic::nic::{Direction, Nic};
use fld_pcie::model::FldModel;
use fld_sim::time::{Bandwidth, SimDuration, SimTime};
use fld_workloads::gen::mixed_size_bursts;
use fld_workloads::sizes::SizeDist;

use crate::experiments::Gates;
use crate::fmt::TextTable;
use crate::report::{Cli, Report};

/// Steers all ingress traffic to the FLD echo accelerator; returning
/// packets (table 1) go back to the wire.
pub fn steer_to_accel(nic: &mut Nic) {
    nic.install_rule(
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
    .expect("table 0 exists");
    nic.install_rule(
        Direction::Ingress,
        1,
        Rule {
            priority: 0,
            spec: MatchSpec::any(),
            actions: vec![Action::ToWire { port: 0 }],
        },
    )
    .expect("table 1 exists");
}

/// Steers all ingress traffic to host RSS over `cores` queues; egress goes
/// to the wire (the CPU-driver baseline).
pub fn steer_to_host(nic: &mut Nic, cores: u16) {
    let rss = nic.create_rss(cores);
    nic.install_rule(
        Direction::Ingress,
        0,
        Rule {
            priority: 0,
            spec: MatchSpec::any(),
            actions: vec![Action::ToHostRss { rss_id: rss }],
        },
    )
    .expect("table 0 exists");
    nic.install_rule(
        Direction::Egress,
        0,
        Rule {
            priority: 0,
            spec: MatchSpec::any(),
            actions: vec![Action::ToWire { port: 0 }],
        },
    )
    .expect("table 0 exists");
}

/// One echo configuration offering `gen`: FLD-E (`use_fld`) steers every
/// frame to the echo accelerator, the CPU-driver baseline spreads them
/// over host RSS and echoes them in software.
pub fn echo_system(cfg: SystemConfig, gen: ClientGen, use_fld: bool) -> FldSystem {
    let host_mode = if use_fld {
        HostMode::Consume
    } else {
        HostMode::Echo
    };
    let mut sys = FldSystem::new(cfg, Box::new(EchoAccelerator::prototype()), host_mode, gen);
    if use_fld {
        steer_to_accel(&mut sys.nic);
    } else {
        steer_to_host(&mut sys.nic, cfg.host_cores as u16);
    }
    sys
}

/// `frame_len`-byte frames offered open-loop at `offered_pps`.
pub fn open_loop(frame_len: u32, offered_pps: f64, packets: u64) -> ClientGen {
    let mode = GenMode::OpenLoop { rate: offered_pps };
    ClientGen::fixed_udp(mode, packets, frame_len.saturating_sub(42))
}

/// One FLD-E echo run with full telemetry enabled: per-packet lifecycle
/// tracing plus stage-latency histograms, and — when `recorder` is set —
/// the flight recorder sampling every probe at that interval. Backs
/// `exp fig7b --json/--trace/--timeline`.
///
/// The traffic is tagged with tenant context 1 and policed at 30 Gbps
/// (above the 25 GbE line, so nothing drops) purely so the
/// `nic.shaper.tokens` probe tracks a live token bucket.
pub fn echo_telemetry_system(
    cfg: SystemConfig,
    gen: ClientGen,
    trace_capacity: usize,
    recorder: Option<SimDuration>,
) -> FldSystem {
    let mut sys = FldSystem::new(
        cfg,
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    sys.nic
        .install_rule(
            Direction::Ingress,
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![
                    Action::TagContext { context: 1 },
                    Action::ToAccelerator {
                        queue: 0,
                        next_table: 1,
                    },
                ],
            },
        )
        .expect("table 0 exists");
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
        .expect("table 1 exists");
    sys.nic
        .install_policer(1, Bandwidth::gbps(30.0), 256 * 1024);
    sys.enable_telemetry(trace_capacity);
    if let Some(interval) = recorder {
        sys.enable_flight_recorder(interval);
    }
    sys
}

/// Figure 7b: both sweeps, and — when the flags ask for a report, trace,
/// timeline or counter dump — one instrumented pass behind them.
///
/// With `--json` the report includes a full hierarchical metrics
/// snapshot of a telemetry-enabled 1500 B FLD-E run (per-stage latency
/// histograms under `latency.stage.*`); with `--trace` the same run's
/// per-packet lifecycle events are written as Chrome trace-event JSON —
/// merged with flight-recorder counter tracks (ring occupancy, PCIe
/// credits, shaper tokens, link utilization, accelerator queue depth,
/// in-flight RDMA window) from the FLD-E run and a 4 KiB FLD-R run —
/// loadable in Perfetto or `chrome://tracing`. `--timeline` writes the
/// FLD-E time-series document and `--sample-interval-ns` tunes the
/// probe sampling period.
pub fn fig7b(cli: &Cli, report: &mut Report) -> Gates {
    let scale = cli.scale();
    report.section(fig7b_flde(cli));
    report.section(super::rdma::fig7b_fldr(cli));
    if cli.wants_telemetry() {
        let cfg = SystemConfig::remote();
        let offered = cfg.client_rate.as_bps() / (1500.0 * 8.0);
        let gen = open_loop(1500, offered, scale.sized_packets(offered));
        let mut flde = echo_telemetry_system(cfg, gen, 1 << 16, Some(cli.sample_interval()));
        let mut fldr = super::rdma::rdma_telemetry_system(
            RdmaConfig::remote(4096, 64, scale.packets),
            cli.sample_interval(),
        );
        if cli.strict_audit {
            flde.enable_strict_audit();
            fldr.enable_strict_audit();
        }
        let stats = flde.run(scale.warmup(), scale.deadline());
        let rdma = fldr.run(scale.warmup(), scale.deadline());
        report.trace_json(stats.trace.to_chrome_json_with_counters(&[
            ("fld-e probes", &stats.timeline),
            ("fld-r probes", &rdma.timeline),
        ]));
        report.section(format!("{}", stats.bottleneck()));
        report.audit("flde.remote.1500B", stats.audit.clone());
        report.audit("fldr.remote.4096B", rdma.audit.clone());
        report.metrics("flde.remote.1500B", stats.metrics);
        report.metrics("fldr.remote.4096B", rdma.metrics);
        report.counters("flde.remote.1500B", stats.counters);
        report.counters("fldr.remote.4096B", rdma.counters);
        report.timeline(stats.timeline);
    }
    Ok(())
}

/// Runs `sys` from `warmup` to `deadline`, strictly audited when `cli`
/// asks for it (`--strict-audit`).
fn audited_run(mut sys: FldSystem, cli: &Cli, warmup: SimTime, deadline: SimTime) -> RunStats {
    if cli.strict_audit {
        sys.enable_strict_audit();
    }
    sys.run(warmup, deadline)
}

/// The per-size echo bandwidth sweep of Figure 7b (FLD-E columns), local
/// and remote, against the CPU driver and the analytic model.
pub fn fig7b_flde(cli: &Cli) -> String {
    let scale = cli.scale();
    let sizes = [64u32, 128, 256, 512, 1024, 1500];
    let mut out = String::from("Figure 7b (FLD-E): echo bandwidth vs packet size (Gbps)\n");
    for (name, cfg) in [
        ("remote (25 GbE)", SystemConfig::remote()),
        ("local (50G PCIe)", SystemConfig::local()),
    ] {
        let mut t = TextTable::new(vec![
            "Frame B",
            "FLD-E",
            "CPU driver",
            "Model bound",
            "FLD/model",
        ]);
        let model = FldModel::new(cfg.pcie);
        // Every size is an independent pair of runs: fan out across the
        // sweep runner's workers, collect in size order.
        let runs = crate::runner::run_points(sizes.to_vec(), cli.jobs, |size| {
            // Offer slightly above line rate to find the ceiling.
            let offered = cfg.client_rate.as_bps() / (size as f64 * 8.0);
            let run = |use_fld| {
                let gen = open_loop(size, offered, scale.sized_packets(offered));
                let sys = echo_system(cfg, gen, use_fld);
                audited_run(sys, cli, scale.warmup(), scale.deadline())
            };
            (size, run(true), run(false))
        });
        for (size, fld, cpu) in runs {
            let bound = model.echo_throughput(size, cfg.client_rate);
            t.row(vec![
                size.to_string(),
                format!("{:.2}", fld.client_rate.gbps()),
                format!("{:.2}", cpu.client_rate.gbps()),
                format!("{:.2}", bound / 1e9),
                format!("{:.0}%", fld.client_rate.gbps() * 1e9 / bound * 100.0),
            ]);
        }
        out.push_str(&format!("\n{name}\n"));
        out.push_str(&t.render());
    }
    out
}

/// Table 6: 64 B echo round-trip latency percentiles (unloaded).
pub fn table6(cli: &Cli) -> String {
    let cfg = SystemConfig::remote();
    let n = cli.scale().packets.max(20_000);
    let run = |use_fld: bool| {
        let gen = ClientGen::fixed_udp_flows(GenMode::ClosedLoop { window: 1 }, n, 22, 1);
        let sys = echo_system(cfg, gen, use_fld);
        audited_run(sys, cli, SimTime::ZERO, SimTime::from_secs(30)).rtt
    };
    let fld = run(true);
    let cpu = run(false);
    let us = |ns: u64| format!("{:.2}", ns as f64 / 1000.0);
    let mut t = TextTable::new(vec!["", "Mean", "Median", "99th-%", "99.9th-%"]);
    t.row(vec![
        "FLD-E".to_string(),
        us(fld.mean() as u64),
        us(fld.percentile(50.0)),
        us(fld.percentile(99.0)),
        us(fld.percentile(99.9)),
    ]);
    t.row(vec![
        "CPU".to_string(),
        us(cpu.mean() as u64),
        us(cpu.percentile(50.0)),
        us(cpu.percentile(99.0)),
        us(cpu.percentile(99.9)),
    ]);
    format!(
        "Table 6: network echo round-trip for 64 B packets (us)\n\
         (paper: FLD-E 2.78/2.6/3.4/4.34; CPU 2.36/2.34/2.58/11.18)\n{}",
        t.render()
    )
}

/// § 8.1.1 mixed-size experiment: FLD-E vs single-core CPU driver on the
/// synthetic IMC-2010 mixture (local, 50 Gbps PCIe).
pub fn imc_mpps(cli: &Cli) -> String {
    let scale = cli.scale();
    let dist = SizeDist::imc2010_synthetic();
    // Offer far above the achievable packet rate to find the ceiling.
    let offered = 40e6;
    let budget = scale.sized_packets(offered);
    let run = |cfg, use_fld| {
        let bursts = mixed_size_bursts(dist.clone(), 64);
        let gen = ClientGen::new(GenMode::OpenLoop { rate: offered }, budget, bursts);
        let sys = echo_system(cfg, gen, use_fld);
        audited_run(sys, cli, scale.warmup(), scale.deadline())
    };
    let fld = run(SystemConfig::local(), true);
    // "compared to 9.6 Mpps on a single CPU core with DPDK testpmd" —
    // the CPU figure is the core's forwarding capacity, so the host link
    // is not modelled as shared for this run.
    let cpu = run(
        SystemConfig {
            host_cores: 1,
            host_on_client_link: false,
            ..SystemConfig::local()
        },
        false,
    );
    let mut t = TextTable::new(vec!["Driver", "Mpps", "Gbps"]);
    t.row(vec![
        "FLD-E echo".to_string(),
        format!("{:.1}", fld.client_rate.mpps()),
        format!("{:.2}", fld.client_rate.gbps()),
    ]);
    t.row(vec![
        "CPU testpmd (1 core)".to_string(),
        format!("{:.1}", cpu.client_rate.mpps()),
        format!("{:.2}", cpu.client_rate.gbps()),
    ]);
    format!(
        "§8.1.1 mixed-size (synthetic IMC-2010) echo packet rate\n\
         (paper: FLD-E 12.7 Mpps vs 9.6 Mpps single-core CPU)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7b_fld_tracks_model_at_mtu() {
        let cfg = SystemConfig::remote();
        let offered = cfg.client_rate.as_bps() / (1500.0 * 8.0);
        let sys = echo_system(cfg, open_loop(1500, offered, 100_000), true);
        let stats = sys.run(SimTime::from_millis(5), SimTime::from_millis(60));
        let model = FldModel::new(cfg.pcie).echo_throughput(1500, cfg.client_rate) / 1e9;
        let measured = stats.client_rate.gbps();
        assert!(
            measured > model * 0.85,
            "measured {measured:.2} vs model {model:.2}"
        );
    }

    #[test]
    fn table6_shape() {
        let s = table6(&Cli::quick());
        assert!(s.contains("FLD-E"));
        assert!(s.contains("CPU"));
    }

    #[test]
    fn imc_fld_beats_single_core_cpu() {
        let s = imc_mpps(&Cli::quick());
        assert!(s.contains("FLD-E echo"), "{s}");
    }
}
