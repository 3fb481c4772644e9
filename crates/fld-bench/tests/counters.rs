//! Counter-tree integration tests: a seeded echo run's counter dump is
//! byte-stable against a committed golden (regenerate with `BLESS=1`),
//! as is the VXLAN-defrag run's — the one path that moves real bytes —
//! the dump round-trips through the `counter_diff` parser to an empty
//! diff, and — as properties over arbitrary workloads and fault plans —
//! the counters telescope: the per-tick/end-of-run audits (which check
//! per-queue sums against port totals against the aggregate metrics)
//! pass, and the snapshot agrees with the fault ledger and the metrics
//! registry it mirrors.

use proptest::prelude::*;

use fld_accel::echo::EchoAccelerator;
use fld_bench::counters::{diff, parse_dump, Thresholds};
use fld_bench::experiments::defrag::{defrag_system, DefragConfig};
use fld_bench::experiments::echo::{echo_system, open_loop, steer_to_accel};
use fld_bench::experiments::rack::build_rack;
use fld_core::rack::{RackConfig, RackStats, TrafficPattern};
use fld_core::rdma_system::{MsgEcho, RdmaConfig, RdmaSystem};
use fld_core::system::{drops, ClientGen, FldSystem, GenMode, HostMode, SystemConfig};
use fld_sim::counters::{write_dump, CounterSnapshot, CounterTree};
use fld_sim::fault::{FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use fld_sim::health::HealthConfig;
use fld_sim::time::{Bandwidth, SimDuration, SimTime};

/// Sums every `<prefix>/.../<leaf>` entry of a snapshot.
fn sum_leaf(snap: &CounterSnapshot, prefix: &str, leaf: &str) -> u64 {
    let head = format!("{prefix}/");
    let tail = format!("/{leaf}");
    snap.entries()
        .iter()
        .filter(|(p, _)| p.starts_with(&head) && p.ends_with(&tail))
        .map(|(_, v)| v)
        .sum()
}

/// Compares `actual` byte for byte with `tests/golden/<file>`; `BLESS=1`
/// rewrites the golden first.
fn assert_matches_golden(file: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; regenerate with BLESS=1 cargo test -p fld-bench");
    assert_eq!(
        actual, golden,
        "{file} changed; regenerate with BLESS=1 if intentional"
    );
}

fn golden_dump() -> String {
    let cfg = SystemConfig::remote();
    let frame = 512u32;
    let offered = cfg.client_rate.as_bps() / (frame as f64 * 8.0);
    let sys = echo_system(cfg, open_loop(frame, offered, 20_000), true);
    let stats = sys.run(SimTime::from_millis(2), SimTime::from_millis(25));
    assert!(stats.audit.passed(), "{}", stats.audit);
    fld_sim::counters::write_dump("echo", &[("echo.512B".to_string(), stats.counters)])
}

#[test]
fn echo_counter_dump_matches_golden() {
    let dump = golden_dump();
    assert_matches_golden("echo_counters.json", &dump);
}

/// § 8.2.2 (c) end to end: tunnelled fragments decapsulated by the NIC,
/// reassembled by the accelerator, spread by RSS and re-parsed by the
/// host stack. Every counter depends on what those stages read out of
/// the frame bytes, so the dump pins the byte path's observable result.
#[test]
fn defrag_vxlan_counter_dump_matches_golden() {
    let mut sys = defrag_system(DefragConfig::VxlanHardwareDefrag, 3_000);
    sys.enable_strict_audit();
    let stats = sys.run(SimTime::from_millis(1), SimTime::from_millis(50));
    assert!(stats.audit.passed(), "{}", stats.audit);
    assert!(stats.host_goodput.gbps() > 10.0);
    let dump =
        fld_sim::counters::write_dump("defrag", &[("defrag.vxlan_hw".to_string(), stats.counters)]);
    assert_matches_golden("defrag_vxlan_counters.json", &dump);
}

#[test]
fn golden_dump_round_trips_to_an_empty_diff() {
    let parsed = parse_dump(&golden_dump()).expect("dump parses");
    assert_eq!(parsed.experiment, "echo");
    let run = parsed.run("echo.512B").expect("run label present");
    // The paths an ethtool reader greps for are all present.
    for path in [
        "port/0/rx/packets",
        "port/0/tx/packets",
        "port/0/queue/tx/0/packets",
        "eswitch/port/0/match",
        "pcie/fn/0/tlps",
        "accel/0/jobs",
    ] {
        assert!(run.contains_key(path), "missing {path}");
    }
    // Per-flow counters carry slash-free flow segments.
    assert!(
        run.keys().any(|p| p.starts_with("flow/")),
        "no flow counters in dump"
    );
    let exceeded = diff(&parsed, &parsed, &Thresholds::exact()).expect("labels match");
    assert_eq!(exceeded, Vec::new());
}

/// A small seeded rack — 2 nodes, 3 tenants, 4 tx queues per node,
/// gentle churn — whose counter dump and timeline pin the rack
/// topology's byte-exact shape (regenerate with `BLESS=1`).
fn golden_rack_run() -> RackStats {
    let cfg = RackConfig {
        nodes: 2,
        tenants: 3,
        tx_queues: 4,
        victim_rate: 60_000.0,
        aggressor_rate: 90_000.0,
        payload: 512,
        pattern: TrafficPattern::Uniform,
        seed: 0x5EED_2AC4,
        ..RackConfig::default()
    };
    let mut rack = build_rack(cfg, 15_000.0);
    rack.enable_strict_audit();
    rack.enable_flight_recorder(SimDuration::from_micros(50));
    let stats = rack.run(SimTime::ZERO, SimTime::from_millis(5));
    assert!(stats.audit.passed(), "{}", stats.audit);
    stats
}

fn golden_rack_dump(stats: &RackStats) -> String {
    let mut runs = vec![("rack.fabric".to_string(), stats.counters.clone())];
    for (n, snap) in stats.node_counters.iter().enumerate() {
        runs.push((format!("rack.node{n}"), snap.clone()));
    }
    fld_sim::counters::write_dump("rack", &runs)
}

#[test]
fn rack_counter_dump_matches_golden() {
    let stats = golden_rack_run();
    let dump = golden_rack_dump(&stats);
    assert_matches_golden("rack_counters.json", &dump);

    // The same bytes also pin the flight-recorder timeline.
    assert_matches_golden("rack_timeline.json", &stats.timeline.to_json());
}

#[test]
fn rack_dump_round_trips_to_an_empty_diff() {
    let stats = golden_rack_run();
    let parsed = parse_dump(&golden_rack_dump(&stats)).expect("dump parses");
    assert_eq!(parsed.experiment, "rack");
    let fabric = parsed.run("rack.fabric").expect("fabric run present");
    for path in ["fabric/port/0/forwarded", "fabric/port/1/forwarded"] {
        assert!(fabric.contains_key(path), "missing {path}");
    }
    let node0 = parsed.run("rack.node0").expect("node0 run present");
    assert!(
        node0.keys().any(|p| p.starts_with("vf/")),
        "no per-VF counters in the node dump"
    );
    let exceeded = diff(&parsed, &parsed, &Thresholds::exact()).expect("labels match");
    assert_eq!(exceeded, Vec::new());
}

/// The golden rack under a scripted fault-domain outage: node 1
/// crashes, port 0 flaps, VF (1, 1) hot-unplugs — all recovering well
/// before the deadline. Pins the `faults/*`, `recovery/*`, `health/*`,
/// `boundary/*` and `blackholed` counter shape byte-exactly.
fn golden_chaos_rack_run() -> RackStats {
    let cfg = RackConfig {
        nodes: 2,
        tenants: 3,
        tx_queues: 4,
        victim_rate: 60_000.0,
        aggressor_rate: 90_000.0,
        payload: 512,
        pattern: TrafficPattern::Uniform,
        seed: 0x5EED_2AC4,
        ..RackConfig::default()
    };
    let mut rack = build_rack(cfg, 15_000.0);
    rack.enable_strict_audit();
    rack.enable_flight_recorder(SimDuration::from_micros(50));
    let mut sched = FaultSchedule::new();
    for (at_us, kind, entity, dur_us) in [
        (1_000, FaultKind::NodeCrash, 1, 500),
        (1_800, FaultKind::FabricLinkFlap, 0, 300),
        (2_500, FaultKind::VfUnplug, 4, 400),
    ] {
        sched.push(FaultEvent {
            at: SimTime::from_micros(at_us),
            kind,
            entity,
            duration: SimDuration::from_micros(dur_us),
        });
    }
    rack.enable_fault_schedule(sched, HealthConfig::default());
    let stats = rack.run(SimTime::ZERO, SimTime::from_millis(5));
    assert!(stats.audit.passed(), "{}", stats.audit);
    stats
}

#[test]
fn chaos_rack_counter_dump_matches_golden() {
    let stats = golden_chaos_rack_run();
    let fd = stats.fault_domains.expect("schedule armed");
    assert_eq!(fd.injected, 3);
    assert_eq!((fd.open, fd.unaccounted), (0, 0), "ledger unbalanced");
    assert!(fd.all_healthy, "a fault domain ended the run unhealthy");
    assert!(fd.mttr_count >= 3, "{} recoveries measured", fd.mttr_count);

    let mut runs = vec![("chaos-rack.fabric".to_string(), stats.counters.clone())];
    for (n, snap) in stats.node_counters.iter().enumerate() {
        runs.push((format!("chaos-rack.node{n}"), snap.clone()));
    }
    let dump = fld_sim::counters::write_dump("chaos-rack", &runs);
    assert_matches_golden("chaos_rack_counters.json", &dump);

    // The injected outages are attributed in the dump itself.
    let parsed = parse_dump(&dump).expect("dump parses");
    let fabric = parsed.run("chaos-rack.fabric").expect("fabric run");
    for path in [
        "faults/node1/node_crash",
        "faults/port0/fabric_link_flap",
        "faults/vf1.1/vf_unplug",
        "fabric/port/0/blackholed",
        "boundary/node/1/drops",
    ] {
        assert!(fabric.contains_key(path), "missing {path}");
    }
    assert_eq!(fabric.get("faults/node1/node_crash"), Some(&1));
}

/// Arbitrary fault plan: any rate, seed and non-empty kind subset.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (0.0f64..0.02, any::<u64>(), 1u16..1024).prop_map(|(rate, seed, mask)| {
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any echo workload and fault plan, the counter tree
    /// telescopes: the strict per-tick audits (per-queue sums == port
    /// totals == aggregate metrics, fault accounting included) hold,
    /// and the end-of-run snapshot agrees with the drop reasons and the
    /// metrics registry.
    #[test]
    fn echo_counters_telescope_under_arbitrary_workloads(
        frame in 64u32..1500,
        packets in 200u64..900,
        plan in arb_plan(),
    ) {
        let gen = ClientGen::fixed_udp(
            GenMode::OpenLoop { rate: 2e6 },
            packets,
            frame.saturating_sub(42),
        );
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
        prop_assert!(stats.audit.passed(), "{}", stats.audit);
        let snap = &stats.counters;
        // Every fault booked as dropped is a loss the data path counted
        // under that kind's own drop reason.
        let mut dropped = 0;
        for (kind, reason) in [
            (FaultKind::LinkDrop, drops::FAULT_LINK_DROP),
            (FaultKind::LinkCorrupt, drops::FAULT_CORRUPT),
            (FaultKind::PciePoison, drops::FAULT_PCIE_POISON),
            (FaultKind::MalformedWqe, drops::FAULT_MALFORMED_WQE),
        ] {
            let booked = sum_leaf(snap, "faults", kind.name());
            prop_assert_eq!(booked, stats.drops.get(reason), "{}", kind.name());
            dropped += booked;
        }
        prop_assert_eq!(snap.get("recovery/dropped_counted").unwrap_or(0), dropped);
        // Queue sums telescope up to the aggregate metrics registry.
        prop_assert_eq!(
            Some(sum_leaf(snap, "port/0/queue/tx", "packets")),
            stats.metrics.counter_value("fld.tx_ring.enqueued")
        );
        // Per-flow counters sum to the port total.
        prop_assert_eq!(
            Some(sum_leaf(snap, "flow", "packets")),
            snap.get("port/0/rx/packets")
        );
    }

    /// Rack-level telescoping: for any small rack topology, traffic
    /// mix and shaper setting, the per-VF counter subtrees
    /// (`vf/<n>/...`) summed across every node equal the PF aggregates
    /// the rack exports — and the strict per-tick audits (which also
    /// run `check_counter_sum` over each node's VF subtree against its
    /// PF grand total) hold throughout.
    #[test]
    fn rack_vf_counters_telescope_under_arbitrary_workloads(
        nodes in 1u16..=3,
        tenants in 1u16..=4,
        tx_queues in 1u16..=8,
        victim_rate in 1e4f64..1.5e5,
        aggressor_rate in 0f64..1.5e5,
        payload in 64u32..1200,
        incast in any::<bool>(),
        shaper in (any::<bool>(), 0.05f64..0.5, 2u64..32)
            .prop_map(|(some, gbps, kib)| some.then_some((gbps, kib))),
        churn in 0f64..30_000.0,
        seed in any::<u64>(),
    ) {
        let cfg = RackConfig {
            nodes,
            tenants,
            tx_queues,
            victim: 0,
            victim_rate,
            aggressor_rate,
            payload,
            pattern: if incast {
                TrafficPattern::Incast { target: 0 }
            } else {
                TrafficPattern::Uniform
            },
            vf_shaper: shaper.map(|(gbps, kib)| (Bandwidth::gbps(gbps), kib * 1024)),
            seed,
            ..RackConfig::default()
        };
        let mut rack = build_rack(cfg, churn);
        rack.enable_strict_audit();
        rack.enable_flight_recorder(SimDuration::from_micros(50));
        let stats = rack.run(SimTime::ZERO, SimTime::from_millis(5));
        prop_assert!(stats.audit.passed(), "{}", stats.audit);
        prop_assert!(stats.offered > 0, "rack never generated traffic");
        for leaf in [
            "rx_packets",
            "rx_bytes",
            "tx_packets",
            "tx_bytes",
            "shaper_drops",
        ] {
            let vf_sum: u64 = stats
                .node_counters
                .iter()
                .map(|snap| sum_leaf(snap, "vf", leaf))
                .sum();
            prop_assert_eq!(
                Some(vf_sum),
                stats.metrics.counter_value(&format!("rack.vf.{leaf}")),
                "vf/<n>/{} does not telescope to the PF aggregate",
                leaf
            );
        }
    }

    /// For any scripted fault schedule over a small rack — any mix of
    /// link flaps, node crashes and VF unplugs, overlapping or not —
    /// the rack conserves packets (everything lost is dropped *and
    /// counted*, enforced by the strict per-tick audits), the ledger
    /// balances with nothing open or unaccounted, and every fault
    /// domain ends the run Healthy.
    #[test]
    fn rack_conserves_under_arbitrary_fault_schedules(
        nodes in 1u16..=3,
        tenants in 1u16..=3,
        seed in any::<u64>(),
        events in proptest::collection::vec(
            (
                500u64..3_000,
                prop_oneof![
                    Just(FaultKind::FabricLinkFlap),
                    Just(FaultKind::NodeCrash),
                    Just(FaultKind::VfUnplug),
                ],
                0u32..12,
                50u64..600,
            ),
            0..6,
        ),
    ) {
        let cfg = RackConfig {
            nodes,
            tenants,
            tx_queues: 4,
            victim_rate: 60_000.0,
            aggressor_rate: 90_000.0,
            payload: 512,
            pattern: TrafficPattern::Uniform,
            seed,
            ..RackConfig::default()
        };
        let mut sched = FaultSchedule::new();
        for &(at_us, kind, entity, dur_us) in &events {
            sched.push(FaultEvent {
                at: SimTime::from_micros(at_us),
                kind,
                entity,
                duration: SimDuration::from_micros(dur_us),
            });
        }
        // Every outage ends by 3.6 ms — inside the 5 ms deadline with
        // margin for the watchdog to walk entities back to Healthy.
        let scheduled = sched.len() as u64;
        let mut rack = build_rack(cfg, 15_000.0);
        rack.enable_strict_audit();
        rack.enable_flight_recorder(SimDuration::from_micros(50));
        rack.enable_fault_schedule(sched, HealthConfig::default());
        let stats = rack.run(SimTime::ZERO, SimTime::from_millis(5));
        prop_assert!(stats.audit.passed(), "{}", stats.audit);
        prop_assert!(stats.delivered <= stats.offered);
        let fd = stats.fault_domains.expect("schedule armed");
        prop_assert_eq!(fd.injected, scheduled);
        prop_assert_eq!(fd.open, 0);
        prop_assert_eq!(fd.unaccounted, 0);
        prop_assert!(fd.all_healthy, "a fault domain ended unhealthy");
        prop_assert_eq!(fd.recovered, scheduled);
    }

    /// The same property over the RDMA system: QP counters mirror the
    /// QP state machines and PCIe fault counters mirror the injector.
    #[test]
    fn rdma_counters_telescope_under_arbitrary_fault_plans(plan in arb_plan()) {
        let cfg = RdmaConfig::remote(1024, 16, 200);
        let mut sys = RdmaSystem::new(cfg, Box::new(MsgEcho));
        sys.enable_strict_audit();
        sys.enable_flight_recorder(SimDuration::from_micros(5));
        sys.enable_faults(&plan);
        let stats = sys.run(SimTime::ZERO, SimTime::from_millis(50));
        prop_assert!(stats.audit.passed(), "{}", stats.audit);
        let snap = &stats.counters;
        prop_assert_eq!(
            Some(snap.sum_prefix("faults")),
            stats.metrics.counter_value("faults.injected")
        );
        prop_assert!(snap.get("qp/256/tx_packets").unwrap_or(0) > 0);
        prop_assert_eq!(
            snap.get("pcie/fn/0/completion_timeouts").unwrap_or(0),
            snap.get("faults/rdma/pcie_timeout").unwrap_or(0)
        );
        prop_assert_eq!(
            snap.get("pcie/fn/0/poisoned_tlps").unwrap_or(0),
            snap.get("faults/rdma/pcie_poison").unwrap_or(0)
        );
    }
}

/// Pieces of the dump grammar (and near misses), so that arbitrary text
/// reaches past the parser's first byte.
const DUMP_PIECES: [&str; 14] = [
    "{",
    "}",
    "\"",
    ":",
    ",",
    "\\",
    "\\u",
    " ",
    "7",
    "18446744073709551616",
    "\"schema_version\"",
    "\"experiment\"",
    "\"counters\"",
    "é",
];

/// Any character: control, ASCII, the rest of the basic plane below the
/// surrogates and the supplementary planes, each a quarter of the draws.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        0x20u32..0x80,
        0x80u32..0xD800,
        0x1_0000u32..0x11_0000
    ]
    .prop_map(|c| char::from_u32(c).expect("no surrogate is drawn"))
}

fn arb_text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_char(), len).prop_map(String::from_iter)
}

/// A well-formed counter path: one to three non-empty segments of any
/// character but `/`.
fn arb_path() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_text(1..6), 1..4).prop_map(|segments| {
        segments
            .iter()
            .map(|s| s.replace('/', "_"))
            .collect::<Vec<_>>()
            .join("/")
    })
}

proptest! {
    /// `parse_dump` reads back exactly what `write_dump` wrote, whatever
    /// characters the experiment name, run labels and counter paths hold:
    /// escapes (`\r`, `\u0001`) and multi-byte UTF-8 included.
    #[test]
    fn parse_dump_reads_back_what_write_dump_writes(
        experiment in arb_text(0..8),
        runs in proptest::collection::vec(
            (arb_text(0..8), proptest::collection::vec((arb_path(), any::<u64>()), 0..6)),
            0..4,
        ),
    ) {
        let snapshots: Vec<(String, CounterSnapshot)> = runs
            .iter()
            .map(|(label, counters)| {
                let tree = CounterTree::new();
                for (path, value) in counters {
                    tree.counter(path).add(*value);
                }
                (label.clone(), tree.snapshot())
            })
            .collect();
        let parsed = parse_dump(&write_dump(&experiment, &snapshots));
        prop_assert_eq!(parsed.as_ref().map(|d| d.experiment.as_str()), Ok(experiment.as_str()));
        let parsed = parsed.expect("the dump parses");
        prop_assert_eq!(parsed.runs.len(), snapshots.len());
        for ((label, counters), (want_label, snap)) in parsed.runs.iter().zip(&snapshots) {
            prop_assert_eq!(label, want_label);
            prop_assert!(counters.iter().eq(snap.entries().iter().map(|(p, v)| (p, v))));
        }
    }

    /// `counter_diff` reads user files with `parse_dump`. It returns, and
    /// never panics, on text made of grammar pieces, on the echo golden
    /// dump cut short anywhere and on that dump with one byte changed;
    /// and a dump cut before its closing brace is an error, never a
    /// smaller dump.
    #[test]
    fn parse_dump_is_total(
        pieces in proptest::collection::vec(0usize..DUMP_PIECES.len(), 0..48),
        cut: usize,
        at: usize,
        byte: u8,
    ) {
        let soup: String = pieces.iter().map(|&i| DUMP_PIECES[i]).collect();
        let _ = parse_dump(&soup);
        let golden = include_str!("golden/echo_counters.json");
        let truncated = &golden[..cut % golden.trim_end().len()];
        prop_assert!(parse_dump(truncated).is_err(), "parsed a dump cut at {}", truncated.len());
        let mut changed = golden.as_bytes().to_vec();
        let at = at % changed.len();
        changed[at] = byte & 0x7f;
        let _ = parse_dump(std::str::from_utf8(&changed).expect("the golden dump is ASCII"));
    }
}
