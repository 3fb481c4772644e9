//! Overload at the load generator's port. A generator cannot put more on
//! the wire than its port carries: what the port's buffer cannot hold is
//! refused there (testpmd's `TX-dropped`), so an echo offered at or above
//! line rate loses frames at the client and its round trip stays bounded
//! by one buffer's drain time, however long it runs.

use fld_bench::experiments::echo::{fig7b_flde, imc_mpps, steer_to_accel, steer_to_host};
use fld_bench::report::Cli;
use flexdriver::accel::EchoAccelerator;
use flexdriver::core::params::PORT_BUFFER;
use flexdriver::core::system::{drops, RunStats};
use flexdriver::core::{ClientGen, FldSystem, GenMode, HostMode, SystemConfig};
use flexdriver::pcie::model::FldModel;
use flexdriver::sim::time::{Bandwidth, SimDuration, SimTime};

/// An echo of 64 B frames: through the FLD echo accelerator, or through
/// the host's CPU driver (in local mode its receive and transmit DMA share
/// the client links with the generator's frames).
fn echo_64(cfg: SystemConfig, use_fld: bool, mode: GenMode, packets: u64) -> FldSystem {
    let gen = ClientGen::fixed_udp(mode, packets, 22);
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

/// One strictly audited run at 64 B line rate (unframed: above what the
/// wire carries), measured from 2 ms to `deadline`.
fn loaded(cfg: SystemConfig, use_fld: bool, deadline: SimTime) -> RunStats {
    let rate = cfg.client_rate.as_bps() / (64.0 * 8.0);
    let packets = (rate * deadline.as_secs_f64()) as u64 + 1;
    let mut sys = echo_64(cfg, use_fld, GenMode::OpenLoop { rate }, packets);
    sys.enable_strict_audit();
    sys.enable_flight_recorder(SimDuration::from_micros(100));
    sys.run(SimTime::from_millis(2), deadline)
}

/// RTT p50 in ns of the same echo, one packet at a time.
fn unloaded_rtt(cfg: SystemConfig, use_fld: bool) -> u64 {
    let sys = echo_64(cfg, use_fld, GenMode::ClosedLoop { window: 1 }, 2_000);
    sys.run(SimTime::ZERO, SimTime::from_secs(1))
        .rtt
        .percentile(50.0)
}

/// Runs the echo for `T` and `2T` and checks that its latency does not
/// grow with run length and stays under `crossings` drains of one port
/// buffer at the client link's rate (a packet's crossings of the client
/// links), and that the overload shows up as counted refusals with the
/// audit clean.
fn assert_stationary_and_bounded(cfg: SystemConfig, use_fld: bool, crossings: u64) {
    let short = loaded(cfg, use_fld, SimTime::from_millis(20));
    let long = loaded(cfg, use_fld, SimTime::from_millis(40));
    let drain = cfg.client_rate.time_for_bytes(PORT_BUFFER);
    let bound = crossings * drain.as_nanos() + unloaded_rtt(cfg, use_fld) + 5_000;
    for stats in [&short, &long] {
        assert!(stats.audit.passed(), "{}", stats.audit);
        let refused = stats.counters.get("client/tx_dropped").unwrap_or(0);
        assert!(refused > 0, "the port refused nothing");
        assert_eq!(stats.drops.get(drops::CLIENT_TX_DROPPED), refused);
        let p99 = stats.rtt.percentile(99.0);
        assert!(p99 <= bound, "p99 {p99} ns above the {bound} ns bound");
    }
    let (p50_t, p50_2t) = (short.rtt.percentile(50.0), long.rtt.percentile(50.0));
    let drift = (p50_2t as f64 - p50_t as f64).abs() / p50_t as f64;
    assert!(
        drift < 0.01,
        "RTT p50 {p50_t} ns over T, {p50_2t} ns over 2T"
    );
}

/// Remote: one crossing of the 25 GbE port, 83.9 µs of buffer.
#[test]
fn a_loaded_fld_echo_is_stationary_and_bounded() {
    assert_stationary_and_bounded(SystemConfig::remote(), true, 1);
}

/// Local mode: the generator is the host behind the 50 Gbps PCIe link,
/// and the CPU driver's receive and transmit DMA cross the same links, so
/// a packet crosses each direction twice (4 × 41.9 µs). `client_down` has
/// no buffer of its own; the strict audit holds its queue within two port
/// buffers at every tick.
#[test]
fn a_loaded_local_cpu_echo_is_stationary_and_bounded() {
    assert_stationary_and_bounded(SystemConfig::local(), false, 4);
}

/// The numeric cells of the table under `heading` in a rendered report,
/// one row per line: `| 64 | 19.05 | ... |` → `[64.0, 19.05, ...]`.
fn table(text: &str, heading: &str) -> Vec<Vec<f64>> {
    text.lines()
        .skip_while(|line| !line.starts_with(heading))
        .skip(1)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            line.split('|')
                .filter_map(|cell| cell.trim().trim_end_matches('%').parse().ok())
                .collect::<Vec<f64>>()
        })
        .filter(|row| !row.is_empty())
        .collect()
}

/// Figure 7b's FLD-E sweep and the IMC-2010 row at quick scale. With the
/// generator held to its port, the local CPU driver carries every packet
/// twice in each direction of the shared 50 Gbps link, so it reads the
/// framed 25 Gbps echo bound (§ 4.2's contention argument, made exact);
/// every other column is what it was with an unbounded port. The IMC
/// row guards against an admission rule that favours small frames.
#[test]
fn fig7b_local_cpu_column_is_the_framed_half_link_bound() {
    let report = fig7b_flde(&Cli::quick());
    let remote = table(&report, "remote");
    let local = table(&report, "local");
    let remote_fld = [19.05, 21.62, 23.19, 24.06, 24.52, 24.67];
    let local_fld = [24.24, 32.65, 39.51, 44.14, 44.76, 44.86];
    let half_link = FldModel::new(SystemConfig::local().pcie);
    assert_eq!((remote.len(), local.len()), (6, 6), "{report}");
    for i in 0..6 {
        let (size, fld, cpu) = (remote[i][0], remote[i][1], remote[i][2]);
        assert_eq!(
            (fld, cpu),
            (remote_fld[i], remote_fld[i]),
            "remote {size} B"
        );
        let (size, fld, cpu) = (local[i][0], local[i][1], local[i][2]);
        assert_eq!(fld, local_fld[i], "local FLD-E {size} B");
        let bound = half_link.echo_throughput(size as u32, Bandwidth::gbps(25.0)) / 1e9;
        assert!(
            (cpu - bound).abs() <= bound * 0.005,
            "local CPU {size} B: {cpu} Gbps against the {bound:.2} Gbps bound"
        );
    }
    let imc = table(&imc_mpps(&Cli::quick()), "| Driver");
    let (fld_mpps, cpu_mpps) = (imc[0][0], imc[1][0]);
    assert!((fld_mpps - 11.8).abs() <= 0.1, "IMC FLD-E {fld_mpps} Mpps");
    assert!((cpu_mpps - 9.6).abs() <= 0.1, "IMC CPU {cpu_mpps} Mpps");
}
