//! Self-profiler integration tests: the zero-cost-when-off guarantee
//! (profiling toggled at runtime leaves traces byte-identical and adds
//! exactly one timeline series), the telescoping phase-attribution
//! invariant on a real echo run, allocation-count reproducibility under
//! the counting allocator, the frame path's allocation budget (bytes
//! are written once and viewed everywhere, DESIGN.md § 3.13), the
//! calendar's (a pending event is one lane entry, § 3.10) with the lane
//! accounting's reproducibility and the share of pushes that reach the
//! heap behind the lanes, the folded-stacks flamegraph format golden, and
//! the switch's scope: arming the profiler arms the calling thread only,
//! and a sweep hands its workers' profiles back to the thread that armed
//! them.
//!
//! The tests run side by side at the default thread count: each arms
//! its own thread, so none sees another's switch or profiles.

use std::sync::Barrier;

use fld_accel::echo::EchoAccelerator;
use fld_bench::experiments::echo::steer_to_accel;
use fld_bench::runner::run_points;
use fld_core::system::{ClientGen, FldSystem, GenMode, HostMode, RunStats, SystemConfig};
use fld_sim::prof;
use fld_sim::time::{SimDuration, SimTime};

/// Counts per thread, so a test's allocation figures are its own.
#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

/// The closed-loop echo system of the telemetry goldens, offering
/// `packets` frames of `payload` bytes.
fn echo_system(packets: u64, payload: u32) -> FldSystem {
    let gen = ClientGen::fixed_udp(GenMode::ClosedLoop { window: 4 }, packets, payload);
    let mut sys = FldSystem::new(
        SystemConfig::remote(),
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    steer_to_accel(&mut sys.nic);
    sys
}

/// The deterministic workload: the same closed-loop echo as the
/// telemetry goldens, with the flight recorder sampling each µs.
fn echo_run(telemetry: bool) -> RunStats {
    let mut sys = echo_system(64, 256);
    if telemetry {
        sys.enable_telemetry(4096);
    }
    sys.enable_flight_recorder(SimDuration::from_nanos(1_000));
    sys.run(SimTime::ZERO, SimTime::from_millis(100))
}

fn profiled_echo_run(telemetry: bool) -> RunStats {
    prof::set_enabled(true);
    let stats = echo_run(telemetry);
    prof::set_enabled(false);
    let _ = prof::take_global();
    stats
}

#[test]
fn phase_fractions_telescope_on_a_real_run() {
    let stats = profiled_echo_run(false);
    let p = &stats.profile;
    assert!(p.enabled);
    assert!(stats.audit.passed(), "{}", stats.audit);

    // The boundary-chained phases tile the run's wall time: their
    // fractions sum to 1 within the acceptance tolerance (drift beyond
    // ±2% would mean the calibration under/over-subtracts or a segment
    // escaped attribution).
    let sum = p.fractions_sum();
    assert!((sum - 1.0).abs() < 0.02, "fractions sum {sum}");

    // Every engine phase shows up, per-event-kind dispatch included.
    let names: Vec<&str> = p.phases.iter().map(|s| s.name.as_str()).collect();
    for want in [
        "pop",
        "dispatch.ArriveAtNic",
        "sample.probes",
        "sample.audit",
    ] {
        assert!(names.contains(&want), "missing {want} in {names:?}");
    }
    let top = p.top_phase().expect("a profiled run names its top phase");
    assert!(top.total_ns > 0.0);

    // Component scopes recorded inside the probes phase.
    let scopes: Vec<&str> = p.scopes.iter().map(|s| s.name.as_str()).collect();
    assert!(
        scopes.contains(&"sample.probes.fld") && scopes.contains(&"sample.probes.stages"),
        "{scopes:?}"
    );
    // A scope is a sub-measurement of its phase, never bigger.
    let probes_phase = p.phases.iter().find(|s| s.name == "sample.probes").unwrap();
    let scope_sum: f64 = p
        .scopes
        .iter()
        .filter(|s| s.name.starts_with("sample.probes."))
        .map(|s| s.total_ns)
        .sum();
    assert!(
        scope_sum <= probes_phase.total_ns * 1.05,
        "scopes ({scope_sum} ns) exceed their phase ({} ns)",
        probes_phase.total_ns
    );

    // Calendar statistics: a drained run pops everything it pushes, and
    // the flight recorder re-armed its tick while the run was alive.
    assert_eq!(p.calendar.pushes, stats.events);
    assert_eq!(p.calendar.pops, stats.events);
    assert!(p.calendar.peak_depth >= 1);
    assert!(p.calendar.max_burst >= 1);
    assert!(p.calendar.sample_rearms > 0);

    // The per-run profile reaches the metrics snapshot too.
    assert!(stats.metrics.counter_value("prof.wall_ns").unwrap_or(0) > 0);
}

/// The counting allocator's numbers are a measurement, not noise: the
/// same deterministic workload performs the same allocations, run after
/// run.
#[test]
fn allocation_counts_are_reproducible_across_reruns() {
    let a = profiled_echo_run(false);
    let b = profiled_echo_run(false);
    let total = |s: &RunStats| {
        (
            s.profile.phases.iter().map(|p| p.allocs).sum::<u64>(),
            s.profile.phases.iter().map(|p| p.alloc_bytes).sum::<u64>(),
        )
    };
    let (allocs_a, bytes_a) = total(&a);
    let (allocs_b, bytes_b) = total(&b);
    assert!(
        allocs_a > 0,
        "the workload allocates; the counter must see it"
    );
    assert_eq!(
        allocs_a, allocs_b,
        "allocation count diverged across reruns"
    );
    assert_eq!(bytes_a, bytes_b, "allocated bytes diverged across reruns");

    // Per-kind dispatch attribution is reproducible too, not just the sum.
    for pa in &a.profile.phases {
        if !pa.name.starts_with("dispatch.") {
            continue;
        }
        let pb = b
            .profile
            .phases
            .iter()
            .find(|p| p.name == pa.name)
            .unwrap_or_else(|| panic!("{} missing from rerun", pa.name));
        assert_eq!((pa.calls, pa.allocs), (pb.calls, pb.allocs), "{}", pa.name);
    }
}

/// This thread's `(allocations, bytes)` spent inside `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (calls, bytes) = prof::alloc_counts();
    let out = f();
    let (calls_after, bytes_after) = prof::alloc_counts();
    (calls_after - calls, bytes_after - bytes, out)
}

/// Reading a frame costs no heap: parse and decap hand out views of the
/// frame they are given, and wrapping a frame in a packet costs exactly
/// the `Box` that keeps `SimPacket` small.
#[test]
fn reading_a_frame_allocates_nothing() {
    use fld_net::frame::{build_udp_frame, vxlan_decap, vxlan_encap, Endpoints, ParsedFrame};
    use fld_nic::packet::SimPacket;

    let frame = build_udp_frame(&Endpoints::sim(1, 2), 1000, 7777, &[0u8; 1500 - 42]);
    assert_eq!(frame.len(), 1500);
    let tunnelled = vxlan_encap(&Endpoints::sim(100, 101), 42, &frame, 30_000);

    let (allocs, _, parsed) = allocations_in(|| ParsedFrame::parse(&frame));
    assert_eq!(parsed.expect("valid frame").payload.len(), 1500 - 42);
    assert_eq!(allocs, 0, "ParsedFrame::parse allocated");

    let (allocs, _, inner) = allocations_in(|| vxlan_decap(&tunnelled));
    assert_eq!(inner.expect("valid tunnel").1, frame);
    assert_eq!(allocs, 0, "vxlan_decap allocated");

    let (allocs, bytes, mut pkt) =
        allocations_in(|| SimPacket::from_frame(1, tunnelled.clone(), SimTime::ZERO));
    assert_eq!(pkt.meta.vni_u32(), Some(42));
    assert_eq!(
        (allocs, bytes),
        (1, std::mem::size_of::<bytes::Bytes>() as u64),
        "SimPacket::from_frame allocates its Box and nothing else"
    );

    // The NIC's decap: the packet is re-pointed at the inner frame.
    let (allocs, _, ()) = allocations_in(|| {
        let (_, inner) = vxlan_decap(&tunnelled).expect("valid tunnel");
        pkt.reframe(inner);
    });
    assert_eq!((pkt.len, pkt.meta.vni_u32()), (1500, None));
    assert_eq!(allocs, 0, "SimPacket::reframe allocated");
}

/// The whole § 8.2.2 (c) path under a ceiling: build, fragment, encap,
/// NIC decap, accelerator reassembly and the host stack's parse together
/// allocate a pinned number of bytes and of allocations per packet sent
/// (two tunnelled fragments per 1.5 KB original). The counts are
/// deterministic; each ceiling is the measured value plus 5 %. (The
/// copying path measured 18 989 bytes on the same run, and writing every
/// intermediate frame, datagram and packet anew 4 553 bytes in 10.68
/// allocations.)
#[test]
fn defrag_run_stays_under_its_allocated_bytes_ceiling() {
    use fld_bench::experiments::defrag::{defrag_system, DefragConfig};
    const MEASURED_BYTES_PER_PACKET: f64 = 1_666.0;
    const MEASURED_ALLOCS_PER_PACKET: f64 = 4.19;

    let sys = defrag_system(DefragConfig::VxlanHardwareDefrag, 3_000);
    let (allocs, bytes, stats) =
        allocations_in(|| sys.run(SimTime::from_millis(1), SimTime::from_millis(50)));
    assert_eq!(stats.sent, 6_000);
    let per_packet = bytes as f64 / stats.sent as f64;
    let allocs_per_packet = allocs as f64 / stats.sent as f64;
    assert!(
        per_packet <= MEASURED_BYTES_PER_PACKET * 1.05,
        "{per_packet:.0} allocated bytes per packet, budget {MEASURED_BYTES_PER_PACKET} + 5 %"
    );
    assert!(
        allocs_per_packet <= MEASURED_ALLOCS_PER_PACKET * 1.05,
        "{allocs_per_packet:.2} allocations per packet, budget {MEASURED_ALLOCS_PER_PACKET} + 5 %"
    );
}

/// The calendar's share of the heap, under a ceiling: 64 B frames offered
/// open-loop at line rate pile up in the client link's stream (the
/// benchmark's `echo_64`, a quarter of its duration), and a pending
/// packet costs a 32-byte entry in its event's FIFO lane plus a 56-byte
/// slot in the system's packet pool. The count is deterministic; the
/// ceiling is the measured value plus 5 %.
/// (`CountingAlloc` charges a grown buffer its growth; the benchmark's
/// allocator, which charges the whole new size, reads 38.8 on the full
/// `echo_64`, read 57.5 with inline packets and 95.7 before the lanes.)
#[test]
fn open_loop_echo_stays_under_its_allocated_bytes_ceiling() {
    const MEASURED_BYTES_PER_PACKET: f64 = 28.5;

    let cfg = SystemConfig::remote();
    let sim = SimDuration::from_micros(3_750);
    let offered_pps = cfg.client_rate.as_bps() / (64.0 * 8.0);
    let budget = (offered_pps * sim.as_secs_f64() * 1.05) as u64 + 1;
    let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: offered_pps }, budget, 64 - 42);
    let mut sys = FldSystem::new(
        cfg,
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    steer_to_accel(&mut sys.nic);
    let (_, bytes, stats) = allocations_in(|| sys.run(SimTime::ZERO, SimTime::ZERO + sim));
    assert!(stats.sent > 180_000, "sent {}", stats.sent);
    let per_packet = bytes as f64 / stats.sent as f64;
    assert!(
        per_packet <= MEASURED_BYTES_PER_PACKET * 1.05,
        "{per_packet:.1} allocated bytes per packet, budget {MEASURED_BYTES_PER_PACKET} + 5 %"
    );
}

/// The lane accounting is a count of what the model scheduled, not a
/// measurement: it repeats exactly, every event of an echo run names a
/// lane that takes it (nothing falls back to the heap), and laned plus
/// fallback pushes are all the pushes.
#[test]
fn lane_accounting_is_reproducible_across_reruns() {
    let a = profiled_echo_run(true).profile.calendar;
    let b = profiled_echo_run(true).profile.calendar;
    assert_eq!(a, b, "calendar statistics diverged across reruns");
    assert_eq!(a.fallback_pushes, 0, "an echo event fell back to the heap");
    assert_eq!(a.laned_pushes, a.pushes);
    assert!(a.insert_steps > 0, "PCIe jitter reorders within a lane");
}

/// The merged calendar statistics of the engine runs inside `run`,
/// profiled.
fn profiled_calendar(run: impl FnOnce()) -> prof::CalendarStats {
    let _ = prof::take_global();
    prof::set_enabled(true);
    run();
    prof::set_enabled(false);
    prof::take_global().expect("the run was profiled").calendar
}

/// The traffic that licenses a plain binary heap behind the lanes, one
/// test per model: no push of an RDMA or a defrag run reaches the heap,
/// and on a churned rack with the fault schedule armed it orders under
/// 1 % of them — the unlaned departure and fault-edge timers and the rare
/// push out of a lane's reach. A model that starts sending a deep
/// unordered stream to the heap fails here, by name, instead of as a
/// drifting benchmark.
#[test]
fn no_rdma_event_falls_back_to_the_heap() {
    use fld_core::rdma_system::{MsgEcho, RdmaConfig, RdmaSystem};
    let cal = profiled_calendar(|| {
        RdmaSystem::new(RdmaConfig::remote(1024, 64, 20_000), Box::new(MsgEcho))
            .run(SimTime::ZERO, SimTime::from_millis(20));
    });
    assert!(cal.pushes > 100_000, "{cal:?}");
    assert_eq!(cal.fallback_pushes, 0, "{cal:?}");
}

#[test]
fn no_defrag_event_falls_back_to_the_heap() {
    use fld_bench::experiments::defrag::{defrag_system, DefragConfig};
    let cal = profiled_calendar(|| {
        defrag_system(DefragConfig::VxlanHardwareDefrag, 3_000)
            .run(SimTime::from_millis(1), SimTime::from_millis(50));
    });
    assert!(cal.pushes > 30_000, "{cal:?}");
    assert_eq!(cal.fallback_pushes, 0, "{cal:?}");
}

/// The benchmark's `rack_chaos` system — 4 nodes × 6 tenants under
/// churn with the scripted crash/unplug/flap schedule armed — and the 8
/// simulated ms the tests here run it for.
fn chaos_rack() -> (fld_core::rack::Rack, fld_bench::Scale) {
    use fld_bench::experiments::{chaos, rack};
    let cfg = chaos::rack_cfg(7);
    let scale = fld_bench::Scale {
        packets: 0,
        warmup_ms: 0,
        deadline_ms: 8,
    };
    let mut rack = rack::build_rack(cfg, chaos::RACK_CHURN);
    rack.enable_fault_schedule(
        chaos::rack_schedule(scale, 7, cfg.nodes, cfg.tenants),
        fld_sim::health::HealthConfig::default(),
    );
    (rack, scale)
}

#[test]
fn a_faulted_churned_rack_sends_the_heap_under_one_percent() {
    let cal = profiled_calendar(|| {
        let (rack, scale) = chaos_rack();
        rack.run(scale.warmup(), scale.deadline());
    });
    assert!(cal.pushes > 20_000, "{cal:?}");
    assert!(cal.fallback_pushes > 0, "the rack's timers are unlaned");
    assert!(cal.fallback_pushes * 100 <= cal.pushes, "{cal:?}");
}

/// What the tick-cost test reads off one profiled, recorded run.
struct Ticked {
    profile: prof::Profile,
    timeline: fld_sim::probe::Timeline,
    audit: fld_sim::audit::AuditReport,
}

impl Ticked {
    /// Allocations the profiler attributed to `phase`.
    fn allocs(&self, phase: &str) -> u64 {
        let p = self.profile.phases.iter().find(|p| p.name == phase);
        p.unwrap_or_else(|| panic!("phase {phase} missing")).allocs
    }

    /// Allocations the recorded series' value buffers cost: the sampled
    /// data itself, grown by `Vec`'s amortized doubling — O(log ticks)
    /// per series. Replayed rather than derived, so the test does not
    /// encode the growth policy.
    fn series_growth_allocs(&self) -> u64 {
        let mut allocs = 0;
        for s in self.timeline.series() {
            let (mut buf, mut cap) = (Vec::<f64>::new(), 0);
            for &v in &s.values {
                buf.push(v);
                if buf.capacity() != cap {
                    cap = buf.capacity();
                    allocs += 1;
                }
            }
        }
        allocs
    }
}

/// 256 × 64 B through [`echo_system`], sampled every `interval` with
/// profiling armed.
fn ticked_echo(interval: SimDuration) -> Ticked {
    let mut sys = echo_system(256, 64);
    sys.enable_strict_audit();
    sys.enable_flight_recorder(interval);
    prof::set_enabled(true);
    let stats = sys.run(SimTime::ZERO, SimTime::from_millis(100));
    prof::set_enabled(false);
    let _ = prof::take_global();
    Ticked {
        profile: stats.profile,
        timeline: stats.timeline,
        audit: stats.audit,
    }
}

/// [`chaos_rack`] under strict audit, sampled every `interval` with
/// profiling armed.
fn ticked_chaos_rack(interval: SimDuration) -> Ticked {
    let (mut rack, scale) = chaos_rack();
    rack.enable_flight_recorder(interval);
    rack.enable_strict_audit();
    prof::set_enabled(true);
    let stats = rack.run(scale.warmup(), scale.deadline());
    prof::set_enabled(false);
    Ticked {
        profile: prof::take_global().expect("the run was profiled"),
        timeline: stats.timeline,
        audit: stats.audit,
    }
}

/// A steady-state flight-recorder tick allocates nothing and evaluates
/// a fixed set of checks: the same simulated run sampled four times as
/// often (N vs 4N ticks) costs not one allocation more in `sample.audit`,
/// and in `sample.probes` only what the longer recorded series
/// themselves need — while `audit.checks` grows by exactly the per-tick
/// check count: 20 on the echo system and 125 on the chaos rack, of
/// which the pool-conservation and `client_down` bound clauses are one
/// each per `FldSystem` (one here, four nodes there) and the rack's
/// fault accounting is one clause.
#[test]
fn tick_allocations_do_not_grow_with_the_tick_count() {
    let us = SimDuration::from_micros;
    type Build = fn(SimDuration) -> Ticked;
    let systems: [(&str, Build, SimDuration, u64); 2] = [
        ("echo", ticked_echo, us(1), 20),
        ("chaos rack", ticked_chaos_rack, us(40), 125),
    ];
    for (name, run, coarse, checks_per_tick) in systems {
        let fine = SimDuration::from_picos(coarse.as_picos() / 4);
        let (a, b) = (run(coarse), run(fine));
        assert!(a.audit.passed() && b.audit.passed(), "{name}");
        let (ticks_a, ticks_b) = (a.timeline.ticks(), b.timeline.ticks());
        assert!(
            ticks_a > 100 && ticks_b >= 4 * ticks_a - 4,
            "{name}: {ticks_a} vs {ticks_b}"
        );
        assert_eq!(
            b.audit.checks - a.audit.checks,
            (ticks_b - ticks_a) * checks_per_tick,
            "{name}: checks per tick changed"
        );
        assert_eq!(
            b.allocs("sample.audit"),
            a.allocs("sample.audit"),
            "{name}: sample.audit allocations depend on the tick count"
        );
        assert_eq!(
            b.allocs("sample.probes") - a.allocs("sample.probes"),
            b.series_growth_allocs() - a.series_growth_allocs(),
            "{name}: sample.probes allocates beyond the recorded series' own growth"
        );
    }
}

/// The zero-cost-when-off guarantee at runtime: with profiling disarmed
/// the hooks observe nothing and change nothing — the packet trace is
/// byte-identical, and arming profiling adds exactly one timeline
/// series (`prof.speed_ratio`), leaving every other series' bytes
/// untouched.
#[test]
fn profiling_changes_no_trace_bytes_and_adds_only_the_speed_ratio_series() {
    let off = echo_run(true);
    let on = profiled_echo_run(true);

    // Packet-lifecycle traces: byte-identical.
    assert_eq!(
        off.trace.to_chrome_json_with_counters(&[]),
        on.trace.to_chrome_json_with_counters(&[]),
        "profiling must not perturb the packet trace"
    );
    // Simulation results: identical.
    assert_eq!(off.events, on.events);
    assert_eq!(off.sent, on.sent);

    // Timelines: the profiled run has exactly one extra series...
    let names = |s: &RunStats| -> Vec<String> {
        s.timeline.series().iter().map(|x| x.name.clone()).collect()
    };
    let (off_names, on_names) = (names(&off), names(&on));
    assert!(!off_names.contains(&"prof.speed_ratio".to_string()));
    assert!(on_names.contains(&"prof.speed_ratio".to_string()));
    let on_minus_prof: Vec<&String> = on_names
        .iter()
        .filter(|n| *n != "prof.speed_ratio")
        .collect();
    assert_eq!(off_names.iter().collect::<Vec<_>>(), on_minus_prof);
    // ...whose values are positive finite speed ratios...
    let series = on.timeline.get("prof.speed_ratio").unwrap();
    assert!(!series.values.is_empty());
    assert!(series.values.iter().all(|v| v.is_finite() && *v > 0.0));
    // ...and every shared series is byte-identical through the exporter.
    for name in &off_names {
        let (a, b) = (
            off.timeline.get(name).unwrap(),
            on.timeline.get(name).unwrap(),
        );
        assert_eq!(a.first_tick, b.first_tick, "{name}");
        assert_eq!(a.values, b.values, "series {name} diverged");
    }
}

/// The folded-stacks exporter is a contract with external flamegraph
/// tooling (`flamegraph.pl`, inferno): pinned by a golden file over a
/// synthetic profile, so the format can't silently drift. Regenerate
/// with `BLESS=1 cargo test -p fld-bench --test prof` if it changes
/// intentionally.
#[test]
fn folded_stacks_format_matches_golden() {
    let mut p = prof::Profile {
        enabled: true,
        runs: 1,
        wall_ns: 1_000.0,
        sim_ns: 4_000,
        events: 10,
        ..prof::Profile::default()
    };
    p.add_phase("start", 1, 50.0, 1, 64);
    p.add_phase("pop", 10, 200.0, 0, 0);
    p.add_phase("dispatch.Gen", 4, 300.0, 8, 512);
    p.add_phase("dispatch.ArriveAtNic", 6, 250.0, 12, 768);
    p.add_phase("sample.probes", 2, 150.0, 2, 96);
    p.add_phase("finish", 1, 50.0, 0, 0);
    p.add_scope("sample.probes.fld", 2, 90.0, 1, 48);
    let folded = p.to_folded();

    // Shape first, so a failure explains itself: `stack self_ns` lines,
    // semicolon-separated frames rooted at `engine`.
    for line in folded.lines() {
        let (stack, self_ns) = line.rsplit_once(' ').expect("stack <ns>");
        assert!(stack.starts_with("engine;"), "{line}");
        assert!(self_ns.parse::<u64>().is_ok(), "{line}");
    }

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/prof.folded");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &folded).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; regenerate with BLESS=1 cargo test -p fld-bench --test prof");
    assert_eq!(
        folded, golden,
        "folded-stacks format changed; regenerate with BLESS=1 if intentional"
    );
}

/// What the observers may never move: a run's simulated results. (A
/// rate meter's window closes with the run's last event, which under the
/// recorder is its last tick, so meters compare by what they counted.)
fn simulated(s: &RunStats) -> [String; 5] {
    let meters = [&s.client_rate, &s.host_goodput].map(|m| (m.bytes(), m.packets()));
    [
        format!("sent {} meters {meters:?}", s.sent),
        format!("rtt {:?}", s.rtt),
        format!("drops {:?}", s.drops),
        format!("tenant bytes {:?}", s.tenant_bytes),
        format!("counters {:?}", s.counters),
    ]
}

/// The engine and the systems do not depend on their observers: with the
/// tracer, the flight recorder and the profiler all off, an echo run and
/// an RDMA run record nothing — no trace event, no timeline tick, no
/// profile — and simulate exactly what the fully observed runs do.
#[test]
fn a_run_with_every_observer_off_records_nothing_and_simulates_the_same() {
    use fld_core::rdma_system::{MsgEcho, RdmaConfig, RdmaRunStats, RdmaSystem};

    let bare = echo_system(64, 256).run(SimTime::ZERO, SimTime::from_millis(100));
    assert_eq!(bare.trace.len(), 0);
    assert_eq!(bare.timeline.ticks(), 0);
    assert!(!bare.profile.enabled);
    let observed = profiled_echo_run(true);
    assert!(!observed.trace.is_empty() && observed.timeline.ticks() > 0);
    assert!(observed.profile.enabled);
    for (off, on) in simulated(&bare).iter().zip(&simulated(&observed)) {
        assert!(off == on, "echo diverged under observation:\n{off}\n{on}");
    }

    let rdma = |observe: bool| {
        let mut sys = RdmaSystem::new(RdmaConfig::remote(1024, 16, 2_000), Box::new(MsgEcho));
        if observe {
            sys.enable_flight_recorder(SimDuration::from_nanos(1_000));
        }
        prof::set_enabled(observe);
        let stats = sys.run(SimTime::ZERO, SimTime::from_secs(1));
        prof::set_enabled(false);
        let _ = prof::take_global();
        stats
    };
    let (bare, observed) = (rdma(false), rdma(true));
    assert_eq!(bare.timeline.ticks(), 0);
    assert!(!bare.profile.enabled);
    assert!(observed.timeline.ticks() > 0 && observed.profile.enabled);
    assert_eq!(bare.completed, 2_000);
    let simulated = |s: &RdmaRunStats| {
        [
            format!(
                "completed {} failed {} retransmits {} goodput {} B in {} messages",
                s.completed,
                s.failed,
                s.retransmits,
                s.goodput.bytes(),
                s.goodput.packets()
            ),
            format!("latency {:?}", s.latency),
            format!("counters {:?}", s.counters),
        ]
    };
    for (off, on) in simulated(&bare).iter().zip(&simulated(&observed)) {
        assert!(off == on, "rdma diverged under observation:\n{off}\n{on}");
    }
}

/// With profiling never armed a run's profile is inert zeros.
#[test]
fn unarmed_run_has_inert_profile() {
    let stats = echo_run(false);
    assert!(!stats.profile.enabled);
    assert!(stats.profile.phases.is_empty());
    assert_eq!(stats.profile.to_folded(), "");
    assert!(stats.metrics.counter_value("prof.wall_ns").is_none());
}

/// Arming is per thread. Two threads run the same echo at the same time,
/// one armed and one not: the unarmed run records no profile, keeps no
/// calendar statistics and allocates exactly what it does alone, and the
/// armed thread's merged profile holds its own run and nothing else.
#[test]
fn an_armed_thread_does_not_profile_its_neighbour() {
    let (solo_allocs, _, solo) = allocations_in(|| echo_run(false));
    assert!(!solo.profile.enabled);
    let start = Barrier::new(2);
    let (armed, unarmed) = std::thread::scope(|scope| {
        let armed = scope.spawn(|| {
            prof::set_enabled(true);
            start.wait();
            let stats = echo_run(false);
            (stats, prof::take_global())
        });
        let unarmed = scope.spawn(|| {
            start.wait();
            let (allocs, _, stats) = allocations_in(|| echo_run(false));
            (allocs, stats, prof::take_global())
        });
        (armed.join().unwrap(), unarmed.join().unwrap())
    });

    let (allocs, stats, merged) = unarmed;
    assert!(!stats.profile.enabled, "the unarmed run was profiled");
    let cal = stats.profile.calendar;
    assert_eq!(
        (cal.peak_depth, cal.coincident_pops, cal.max_burst),
        (0, 0, 0),
        "the unarmed run kept calendar statistics"
    );
    assert_eq!(
        allocs, solo_allocs,
        "the neighbour's profiler allocated here"
    );
    assert!(merged.is_none(), "the unarmed thread holds a profile");

    let (stats, merged) = armed;
    let merged = merged.expect("the armed run was profiled");
    assert!(stats.profile.enabled && stats.profile.calendar.peak_depth > 0);
    assert_eq!((merged.runs, merged.events), (1, stats.events));
}

/// A sweep started on an armed thread arms its workers and merges their
/// profiles back into the caller's: four workers report the runs and
/// events one does.
#[test]
fn a_profiled_sweep_reports_every_run_whatever_the_worker_count() {
    let swept = |jobs| {
        prof::set_enabled(true);
        let events = run_points(vec![64, 128, 256, 512], jobs, |payload| {
            echo_system(64, payload)
                .run(SimTime::ZERO, SimTime::from_millis(100))
                .events
        });
        prof::set_enabled(false);
        let merged = prof::take_global().expect("the sweep was profiled");
        (merged.runs, merged.events, events.iter().sum::<u64>())
    };
    let serial = swept(1);
    assert_eq!(serial.0, 4);
    assert_eq!(serial.1, serial.2);
    assert_eq!(swept(4), serial);
}
