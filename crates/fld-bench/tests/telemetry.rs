//! Telemetry integration tests: the Chrome trace-event export is
//! well-formed JSON with the expected structure (checked against a
//! committed golden file), the flight-recorder timeline export matches
//! its own golden, the merged Perfetto export carries the required
//! counter tracks, bottleneck attribution blames PCIe on a PCIe-bound
//! workload, the metrics snapshot parses, and — as properties over
//! arbitrary workloads — the per-stage latency histograms sum exactly
//! to the end-to-end latency histogram and the invariant auditor finds
//! zero violations (including runs with drops and with packets still in
//! flight at the deadline).

use proptest::prelude::*;

use fld_accel::echo::EchoAccelerator;
use fld_bench::experiments::echo::{echo_telemetry_system, open_loop, steer_to_accel};
use fld_bench::experiments::rdma::rdma_telemetry_system;
use fld_core::rdma_system::RdmaConfig;
use fld_core::system::{ClientGen, FldSystem, GenMode, HostMode, SystemConfig};
use fld_nic::eswitch::{Action, MatchSpec, Rule};
use fld_nic::nic::Direction;
use fld_sim::time::{Bandwidth, SimDuration, SimTime};

// ---- a minimal JSON well-formedness checker (no external deps) ----

/// Parses one JSON value from `s` starting at `i`; returns the index past
/// it, or `Err` with the failing offset.
fn parse_value(s: &[u8], i: usize) -> Result<usize, usize> {
    let i = skip_ws(s, i);
    match s.get(i) {
        Some(b'{') => parse_object(s, i),
        Some(b'[') => parse_array(s, i),
        Some(b'"') => parse_string(s, i),
        Some(b't') => expect(s, i, b"true"),
        Some(b'f') => expect(s, i, b"false"),
        Some(b'n') => expect(s, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(s, i),
        _ => Err(i),
    }
}

fn skip_ws(s: &[u8], mut i: usize) -> usize {
    while matches!(s.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

fn expect(s: &[u8], i: usize, lit: &[u8]) -> Result<usize, usize> {
    if s[i..].starts_with(lit) {
        Ok(i + lit.len())
    } else {
        Err(i)
    }
}

fn parse_string(s: &[u8], mut i: usize) -> Result<usize, usize> {
    i += 1; // opening quote
    loop {
        match s.get(i) {
            Some(b'"') => return Ok(i + 1),
            Some(b'\\') => {
                i += match s.get(i + 1) {
                    Some(b'u') => 6,
                    Some(_) => 2,
                    None => return Err(i),
                }
            }
            Some(c) if *c >= 0x20 => i += 1,
            _ => return Err(i),
        }
    }
}

fn parse_number(s: &[u8], mut i: usize) -> Result<usize, usize> {
    let start = i;
    while matches!(s.get(i), Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        i += 1;
    }
    if i == start {
        Err(i)
    } else {
        Ok(i)
    }
}

fn parse_object(s: &[u8], mut i: usize) -> Result<usize, usize> {
    i = skip_ws(s, i + 1);
    if s.get(i) == Some(&b'}') {
        return Ok(i + 1);
    }
    loop {
        i = skip_ws(s, i);
        if s.get(i) != Some(&b'"') {
            return Err(i);
        }
        i = parse_string(s, i)?;
        i = skip_ws(s, i);
        if s.get(i) != Some(&b':') {
            return Err(i);
        }
        i = parse_value(s, i + 1)?;
        i = skip_ws(s, i);
        match s.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Ok(i + 1),
            _ => return Err(i),
        }
    }
}

fn parse_array(s: &[u8], mut i: usize) -> Result<usize, usize> {
    i = skip_ws(s, i + 1);
    if s.get(i) == Some(&b']') {
        return Ok(i + 1);
    }
    loop {
        i = parse_value(s, i)?;
        i = skip_ws(s, i);
        match s.get(i) {
            Some(b',') => i += 1,
            Some(b']') => return Ok(i + 1),
            _ => return Err(i),
        }
    }
}

/// Asserts `json` is exactly one well-formed JSON document.
fn assert_well_formed(json: &str) {
    let bytes = json.as_bytes();
    match parse_value(bytes, 0) {
        Ok(end) => {
            let end = skip_ws(bytes, end);
            assert_eq!(end, bytes.len(), "trailing garbage at offset {end}");
        }
        Err(at) => panic!(
            "malformed JSON at offset {at}: ...{}...",
            &json[at.saturating_sub(20)..(at + 20).min(json.len())]
        ),
    }
}

/// A tiny deterministic telemetry run (closed-loop, jitter-free timing is
/// still deterministic because the simulation RNG is seeded).
fn golden_run() -> fld_core::system::RunStats {
    let cfg = SystemConfig::remote();
    let gen = ClientGen::fixed_udp(GenMode::ClosedLoop { window: 4 }, 64, 256);
    let mut sys = FldSystem::new(
        cfg,
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    steer_to_accel(&mut sys.nic);
    sys.enable_telemetry(4096);
    sys.run(SimTime::ZERO, SimTime::from_millis(100))
}

#[test]
fn chrome_trace_is_well_formed_and_matches_golden() {
    let stats = golden_run();
    let json = stats.trace.to_chrome_json_with_counters(&[]);
    assert_well_formed(&json);
    // Structural spot-checks a Perfetto/chrome://tracing loader relies on.
    assert!(json.starts_with('{'));
    assert!(json.contains("\"displayTimeUnit\""));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"packet_ingress\""));
    assert!(json.contains("\"cqe_write\""));

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/echo_trace.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &json).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; regenerate with BLESS=1 cargo test -p fld-bench");
    assert_eq!(
        json, golden,
        "trace changed; regenerate with BLESS=1 if intentional"
    );
}

/// The golden run with the flight recorder on (kept separate from
/// [`golden_run`] so sampling events cannot perturb the byte-exact trace
/// golden).
fn golden_timeline_run() -> fld_core::system::RunStats {
    let cfg = SystemConfig::remote();
    let gen = ClientGen::fixed_udp(GenMode::ClosedLoop { window: 4 }, 64, 256);
    let mut sys = FldSystem::new(
        cfg,
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    steer_to_accel(&mut sys.nic);
    sys.enable_telemetry(4096);
    sys.enable_flight_recorder(SimDuration::from_nanos(1_000));
    sys.enable_strict_audit();
    sys.run(SimTime::ZERO, SimTime::from_millis(100))
}

#[test]
fn timeline_export_is_well_formed_and_matches_golden() {
    let stats = golden_timeline_run();
    assert!(stats.audit.passed(), "{}", stats.audit);
    let json = stats.timeline.to_json();
    assert_well_formed(&json);
    assert!(json.contains("\"interval_ns\":1000"), "{json}");
    assert!(json.contains("fld.rx_ring.occupancy"));
    // The CSV export agrees on shape: one header plus one row per tick.
    let csv = stats.timeline.to_csv();
    assert_eq!(
        csv.lines().count() as u64,
        1 + stats.timeline.ticks(),
        "csv rows"
    );

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/echo_timeline.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &json).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; regenerate with BLESS=1 cargo test -p fld-bench");
    assert_eq!(
        json, golden,
        "timeline changed; regenerate with BLESS=1 if intentional"
    );
}

/// A small seeded fault run: every fault kind armed at a high rate over
/// a short closed-loop echo, with the flight recorder sampling the
/// `faults.*` / `recovery.*` probes each microsecond. The golden pins
/// the complete recovery timeline — when each fault fired and when it
/// was resolved — so any change to fault scheduling, recovery latency
/// or probe ordering shows up as a byte diff.
fn golden_chaos_run() -> fld_core::system::RunStats {
    use fld_sim::fault::FaultPlan;
    let cfg = SystemConfig::remote();
    let gen = ClientGen::fixed_udp(GenMode::ClosedLoop { window: 4 }, 64, 256);
    let mut sys = FldSystem::new(
        cfg,
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    steer_to_accel(&mut sys.nic);
    sys.enable_flight_recorder(SimDuration::from_nanos(1_000));
    sys.enable_strict_audit();
    sys.enable_faults(&FaultPlan::new(0.05, 7));
    sys.run(SimTime::ZERO, SimTime::from_millis(100))
}

#[test]
fn chaos_timeline_matches_golden() {
    let stats = golden_chaos_run();
    assert!(stats.audit.passed(), "{}", stats.audit);
    let injected = stats.counters.sum_prefix("faults");
    assert!(injected > 0, "the golden run must inject");
    assert_eq!(
        fld_bench::experiments::chaos::unaccounted(&stats.counters),
        0
    );
    let json = stats.timeline.to_json();
    assert_well_formed(&json);
    // The fault series are present and appended after every pre-existing
    // series (fault-free timelines stay byte-identical).
    assert!(json.contains("\"faults.injected\""), "{json}");
    assert!(json.contains("\"recovery.recovered\""), "{json}");
    let series_order: Vec<&str> = json
        .split('"')
        .filter(|s| s.starts_with("faults.") || s.starts_with("stage.tx_wire"))
        .collect();
    assert_eq!(
        series_order.first().copied(),
        Some("stage.tx_wire.util"),
        "fault series must come after the pre-existing ones: {series_order:?}"
    );

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos_timeline.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &json).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; regenerate with BLESS=1 cargo test -p fld-bench");
    assert_eq!(
        json, golden,
        "chaos timeline changed; regenerate with BLESS=1 if intentional"
    );
}

/// Counter-track names present in a Chrome trace: every unique `"name"`
/// of a `"ph":"C"` event.
fn counter_tracks(trace: &str) -> std::collections::BTreeSet<String> {
    let mut tracks = std::collections::BTreeSet::new();
    for event in trace.split('{') {
        if !event.contains("\"ph\":\"C\"") {
            continue;
        }
        if let Some(rest) = event.split("\"name\":\"").nth(1) {
            if let Some(name) = rest.split('"').next() {
                tracks.insert(name.to_string());
            }
        }
    }
    tracks
}

/// The fig7b acceptance shape: one Perfetto-loadable document containing
/// lifecycle lanes plus at least six flight-recorder counter tracks, on
/// the simulated timebase, spanning both the FLD-E and FLD-R runs.
#[test]
fn merged_trace_carries_lifecycle_lanes_and_counter_tracks() {
    let cfg = SystemConfig::remote();
    let offered = cfg.client_rate.as_bps() / (1500.0 * 8.0);
    let gen = open_loop(1500, offered, 20_000);
    let stats = echo_telemetry_system(cfg, gen, 1 << 14, Some(SimDuration::from_nanos(1_000)))
        .run(SimTime::from_millis(1), SimTime::from_millis(20));
    let rdma = rdma_telemetry_system(
        RdmaConfig::remote(4096, 64, 2_000),
        SimDuration::from_nanos(1_000),
    )
    .run(SimTime::from_millis(1), SimTime::from_millis(20));
    assert!(stats.audit.passed(), "flde: {}", stats.audit);
    assert!(rdma.audit.passed(), "fldr: {}", rdma.audit);
    let merged = stats.trace.to_chrome_json_with_counters(&[
        ("fld-e probes", &stats.timeline),
        ("fld-r probes", &rdma.timeline),
    ]);
    assert_well_formed(&merged);
    // Lifecycle lanes survive the merge untouched.
    assert!(merged.contains("\"ph\":\"X\""));
    assert!(merged.contains("\"packet_ingress\""));
    let tracks = counter_tracks(&merged);
    for required in [
        "fld.rx_ring.occupancy",          // rx-ring occupancy
        "fld.tx_ring.descriptor_credits", // PCIe descriptor credits
        "nic.shaper.tokens",              // shaper token level
        "stage.tx_wire.util",             // link utilization
        "accel.queue_depth",              // accelerator queue depth
        "rdma.client.inflight_window",    // in-flight RDMA PSN window
    ] {
        assert!(
            tracks.contains(required),
            "missing track {required}: {tracks:?}"
        );
    }
    assert!(tracks.len() >= 6, "{tracks:?}");
}

/// Bottleneck attribution on a deliberately PCIe-bound workload: 64 B
/// frames through the local 50 Gbps PCIe echo. Per-packet PCIe overheads
/// (~132 B toward FLD per 88 wire bytes) make the NIC→FLD PCIe direction
/// the first stage to saturate — the client wire sits near 0.68
/// utilization while pcie_rx runs at ~1.0 — so at least half the
/// saturated windows must be charged to the PCIe stages.
#[test]
fn bottleneck_report_blames_pcie_on_small_packet_local_echo() {
    let rate = 48e6;
    let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate }, 100_000, 22);
    let mut sys = FldSystem::new(
        SystemConfig::local(),
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    steer_to_accel(&mut sys.nic);
    sys.enable_flight_recorder(SimDuration::from_nanos(1_000));
    let stats = sys.run(SimTime::ZERO, SimTime::from_secs(10));
    assert!(stats.audit.passed(), "{}", stats.audit);
    let report = stats.bottleneck();
    assert!(report.saturated > 0, "no saturated windows: {report}");
    let pcie = report.limiting_fraction("pcie_rx") + report.limiting_fraction("pcie_tx");
    assert!(
        pcie >= 0.5,
        "PCIe charged only {:.0}% of saturated windows: {report}",
        pcie * 100.0
    );
}

#[test]
fn metrics_snapshot_is_well_formed() {
    let stats = golden_run();
    let json = stats.metrics.to_json();
    assert_well_formed(&json);
    assert!(stats.metrics.counter_value("gen.sent").unwrap_or(0) > 0);
    assert!(json.contains("\"end_to_end\""));
}

#[test]
fn stage_sums_match_end_to_end_in_echo_run() {
    let scale = fld_bench::Scale::quick();
    let gen = open_loop(512, 200_000.0, 5_000);
    let stats = echo_telemetry_system(SystemConfig::remote(), gen, 1024, None)
        .run(scale.warmup(), scale.deadline());
    let e2e = stats.stages.end_to_end();
    assert!(e2e.count() > 0, "no packets completed");
    assert_eq!(stats.stages.stage_sum(), e2e.sum());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary packet sizes, windows and budgets — including runs
    /// that end with packets still in flight and runs with drops — the
    /// per-stage latency histograms sum exactly to the end-to-end
    /// histogram.
    #[test]
    fn stage_latencies_telescope(
        payload in 8u32..2048,
        window in 1u32..64,
        packets in 16u64..400,
        deadline_us in 200u64..5_000,
    ) {
        let cfg = SystemConfig::remote();
        let gen = ClientGen::fixed_udp(GenMode::ClosedLoop { window }, packets, payload);
        let mut sys = FldSystem::new(
            cfg,
            Box::new(EchoAccelerator::prototype()),
            HostMode::Consume,
            gen,
        );
        steer_to_accel(&mut sys.nic);
        sys.enable_telemetry(1 << 14);
        let stats = sys.run(SimTime::ZERO, SimTime::from_micros(deadline_us));
        prop_assert_eq!(stats.stages.stage_sum(), stats.stages.end_to_end().sum());
    }

    /// The invariant auditor finds zero violations over arbitrary
    /// workloads: open- and closed-loop generators, tenant policing that
    /// drops traffic, tight deadlines that leave packets in flight, and
    /// flight-recorder sampling enabled throughout (so the per-tick
    /// audits run too).
    #[test]
    fn auditor_finds_no_violations(
        payload in 8u32..2048,
        window in 1u32..64,
        packets in 16u64..400,
        deadline_us in 50u64..3_000,
        open_loop in any::<bool>(),
        policer_gbps in 1u32..20,
    ) {
        let cfg = SystemConfig::remote();
        let mode = if open_loop {
            GenMode::OpenLoop { rate: 2e6 }
        } else {
            GenMode::ClosedLoop { window }
        };
        let gen = ClientGen::fixed_udp(mode, packets, payload);
        let mut sys = FldSystem::new(
            cfg,
            Box::new(EchoAccelerator::prototype()),
            HostMode::Consume,
            gen,
        );
        // Tag everything as tenant 1 and police it (often below the
        // offered rate, so runs include policer drops).
        sys.nic.install_rule(
            Direction::Ingress,
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![
                    Action::TagContext { context: 1 },
                    Action::ToAccelerator { queue: 0, next_table: 1 },
                ],
            },
        ).expect("table 0 exists");
        sys.nic.install_rule(
            Direction::Ingress,
            1,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::ToWire { port: 0 }],
            },
        ).expect("table 1 exists");
        sys.nic.install_policer(1, Bandwidth::gbps(policer_gbps as f64), 16 * 1024);
        sys.enable_flight_recorder(SimDuration::from_nanos(500));
        let stats = sys.run(SimTime::ZERO, SimTime::from_micros(deadline_us));
        prop_assert!(stats.audit.checks > 0);
        prop_assert_eq!(stats.audit.violations, 0, "{}", stats.audit);
    }

    /// The same property on the RDMA path: arbitrary message sizes,
    /// windows and deadlines (including deadline-truncated runs with
    /// requests still outstanding) audit clean.
    #[test]
    fn rdma_auditor_finds_no_violations(
        request in 64u32..8192,
        window in 1u32..64,
        total in 8u64..300,
        deadline_us in 50u64..3_000,
    ) {
        let stats = rdma_telemetry_system(
            RdmaConfig::remote(request, window, total),
            SimDuration::from_nanos(500),
        )
        .run(SimTime::ZERO, SimTime::from_micros(deadline_us));
        prop_assert!(stats.audit.checks > 0);
        prop_assert_eq!(stats.audit.violations, 0, "{}", stats.audit);
    }
}
