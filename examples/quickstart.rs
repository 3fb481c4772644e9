//! Quickstart: run an FLD-E echo accelerator end-to-end and print its
//! throughput and latency, next to the paper's analytic model.
//!
//! ```text
//! cargo run --release --example quickstart \
//!     [-- --counters <path>] [--json <path>]
//! ```
//!
//! Every run has the flight recorder and strict invariant auditing on:
//! the per-run probes (ring occupancy, PCIe utilization, …) are sampled
//! each simulated microsecond, any conservation/credit/occupancy
//! violation aborts the run, and the final line prints the 1500 B run's
//! bottleneck attribution.

use flexdriver::accel::EchoAccelerator;
use flexdriver::core::{ClientGen, FldSystem, GenMode, HostMode, SystemConfig};
use flexdriver::nic::{Action, Direction, MatchSpec, Rule};
use flexdriver::pcie::model::FldModel;
use flexdriver::sim::{SimDuration, SimTime};

/// eSwitch configuration: everything to the accelerator; returning packets
/// (resume table 1) go back out the wire.
fn install_echo_rules(sys: &mut FldSystem) {
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
        .expect("rule installs");
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
        .expect("rule installs");
}

/// Removes `flag` and its value from `args`; exits on a missing value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    match args.iter().position(|a| a == flag) {
        Some(i) if i + 1 < args.len() => {
            args.remove(i);
            Some(args.remove(i))
        }
        Some(_) => {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
        None => None,
    }
}

fn main() {
    // Optional flags: `--counters <path>` dumps every run's hardware
    // counter tree (versioned JSON, plus a <path>.txt ethtool-style
    // listing) for `counter_diff` to compare across runs; `--json <path>`
    // writes a machine-readable run report.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let counters_path = take_value(&mut args, "--counters").map(std::path::PathBuf::from);
    let json_path = take_value(&mut args, "--json").map(std::path::PathBuf::from);
    if let Some(unknown) = args.first() {
        eprintln!(
            "unknown argument {unknown:?}\n\
             usage: quickstart [--counters <path>] [--json <path>]"
        );
        std::process::exit(2);
    }

    let cfg = SystemConfig::remote(); // client behind a 25 GbE wire
    let sample_every = SimDuration::from_nanos(1_000);
    let mut audited_checks = 0u64;
    let mut last_bottleneck = None;

    println!("FlexDriver quickstart: FLD-E echo over a simulated Innova-2\n");
    println!("frame B | measured Gbps | model bound Gbps | unloaded RTT us");
    println!("--------|---------------|------------------|----------------");
    // Each frame size is an independent pair of runs; the sweep runner
    // spreads them over four worker threads.
    let frames: Vec<u32> = vec![64, 256, 512, 1024, 1500];
    let runs = fld_bench::runner::run_points(frames, 4, |frame| {
        // Throughput: offer line rate of this frame size, open loop.
        let rate = cfg.client_rate.as_bps() / (frame as f64 * 8.0);
        let gen = ClientGen::fixed_udp(
            GenMode::OpenLoop { rate },
            300_000,
            frame.saturating_sub(42),
        );
        let mut sys = FldSystem::new(
            cfg,
            Box::new(EchoAccelerator::prototype()),
            HostMode::Consume,
            gen,
        );
        install_echo_rules(&mut sys);
        sys.enable_flight_recorder(sample_every);
        sys.enable_strict_audit();
        let stats = sys.run(SimTime::from_millis(5), SimTime::from_millis(100));

        // Latency: a separate unloaded (window-1) run of the same system.
        let lat_gen = ClientGen::fixed_udp_flows(
            GenMode::ClosedLoop { window: 1 },
            5_000,
            frame.saturating_sub(42),
            1,
        );
        let mut lat_sys = FldSystem::new(
            cfg,
            Box::new(EchoAccelerator::prototype()),
            HostMode::Consume,
            lat_gen,
        );
        install_echo_rules(&mut lat_sys);
        let lat = lat_sys.run(SimTime::ZERO, SimTime::from_millis(200));
        (frame, stats, lat)
    });
    let mut snapshots = Vec::new();
    let mut report_rows = Vec::new();
    let mut total_events = 0u64;
    for (frame, stats, lat) in runs {
        audited_checks += stats.audit.checks;
        total_events += stats.events;
        snapshots.push((format!("echo.{frame}B"), stats.counters.clone()));
        last_bottleneck = Some(stats.bottleneck());
        let model = FldModel::new(cfg.pcie).echo_throughput(frame, cfg.client_rate) / 1e9;
        let rtt_p50 = lat.rtt.percentile(50.0);
        println!(
            "{frame:7} | {:13.2} | {model:16.2} | {:14.2}",
            stats.client_rate.gbps(),
            rtt_p50 as f64 / 1000.0,
        );
        report_rows.push((frame, stats.client_rate.gbps(), model, rtt_p50));
    }
    println!("\nThe accelerator drives the NIC with zero host-CPU involvement;");
    println!("the ceiling at small frames is PCIe per-packet overhead (paper §8.1).");
    println!("\nstrict audit: {audited_checks} invariant checks, 0 violations");
    if let Some(report) = last_bottleneck {
        println!("\n1500 B run {report}");
    }
    if let Some(path) = json_path {
        // Deliberately excludes any wall-clock numbers: the report
        // depends only on simulated behaviour, so two runs write
        // byte-identical files.
        let mut w = flexdriver::sim::json::JsonWriter::pretty();
        w.begin_object();
        w.field_u64("schema_version", flexdriver::sim::json::SCHEMA_VERSION);
        w.key("points");
        w.begin_array();
        for &(frame, gbps, model, rtt_p50) in &report_rows {
            w.begin_object();
            w.field_u64("frame_bytes", frame as u64);
            w.field_f64("goodput_gbps", gbps);
            w.field_f64("model_gbps", model);
            w.field_u64("rtt_p50_ns", rtt_p50);
            w.end_object();
        }
        w.end_array();
        w.field_u64("audit_checks", audited_checks);
        w.field_u64("audit_violations", 0);
        w.field_u64("events", total_events);
        w.end_object();
        std::fs::write(&path, w.finish()).expect("write quickstart JSON");
        println!("\nwrote run report to {}", path.display());
    }
    if let Some(path) = counters_path {
        let dump = flexdriver::sim::counters::write_dump("quickstart", &snapshots);
        std::fs::write(&path, dump).expect("write counters dump");
        let text: String = snapshots
            .iter()
            .map(|(label, snap)| snap.render_text(label))
            .collect();
        let txt = path.with_extension("txt");
        std::fs::write(&txt, text).expect("write counters text");
        println!(
            "\nwrote counters to {} (+ {})",
            path.display(),
            txt.display()
        );
    }
}
