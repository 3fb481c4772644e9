//! The traced run: per-layer metrics for one workload.
//!
//! Everything here is measured from outside the simulator: kernels
//! (`kernels.rs`), counts read from the public run statistics, the
//! engine's own self-profile (`fld_sim::prof`, armed only here) and
//! differentials — two whole runs that differ in one public switch.
//! End-to-end metrics are never taken from this run.

use std::collections::BTreeMap;

use fld_sim::prof::{self, Profile};
use fld_sim::time::SimDuration;

use crate::kernels;
use crate::measure::{gate, run_rep, scaled_sim, Rep};
use crate::spans::Spans;
use crate::workloads::{Outcome, Toggles, Workload};

/// Untraced and flipped-recorder reps behind each median.
const DIFF_REPS: usize = 3;
/// Constructions behind `core.build_ms` and snapshots behind `sim.snapshot_us`.
const BUILD_SAMPLES: usize = 9;
/// Simulated time of each side of the recorder differential: 500 ticks.
const TICK_DIFF_SIM: SimDuration = SimDuration::from_millis(5);

/// The nine layers, in dependency order.
pub const LAYERS: [&str; 9] = [
    "fld-sim",
    "fld-net",
    "fld-cuckoo",
    "fld-crypto",
    "fld-pcie",
    "fld-nic",
    "fld-core",
    "fld-accel",
    "fld-workloads",
];

/// Per-layer metrics by name.
pub type Metrics = BTreeMap<String, f64>;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median `run()` wall seconds of [`DIFF_REPS`] reps of `w` under
/// `toggles`, with the last rep (for its ticks and audit counts).
fn timed_reps(
    w: Workload,
    seed: u64,
    sim: SimDuration,
    toggles: Toggles,
    label: &str,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<(f64, Rep), String> {
    let span = spans.enter(label, parent);
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..DIFF_REPS {
        let rep = run_rep(w, seed, sim, toggles, spans, Some(span))?;
        walls.push(rep.wall_s);
        last = Some(rep);
    }
    spans.exit(span);
    Ok((median(walls), last.expect("DIFF_REPS > 0")))
}

/// The workload-independent part: every kernel, and the
/// cost-of-observability matrix on the `echo_64` configuration (one
/// public switch on at a time ÷ all off).
///
/// # Errors
///
/// Fails if a differential rep panics.
pub fn common(seed: u64, spans: &mut Spans) -> Result<Metrics, String> {
    let root = spans.enter("layer", None);
    let mut m: Metrics = kernels::run_all(spans, Some(root))
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();

    let span = spans.enter("sim.obs", Some(root));
    let w = Workload::Echo64;
    // A fifth of the workload's duration: five configurations × three
    // reps have to fit the traced run's budget.
    let sim = SimDuration::from_picos(scaled_sim(w).as_picos() / 5);
    let off = Toggles::default();
    let configs: [(&str, Toggles, bool); 5] = [
        ("off", off, false),
        (
            "telemetry",
            Toggles {
                telemetry: true,
                ..off
            },
            false,
        ),
        (
            "recorder",
            Toggles {
                recorder: Some(true),
                ..off
            },
            false,
        ),
        ("prof", off, true),
        (
            "strict_audit",
            Toggles {
                strict_audit: true,
                ..off
            },
            false,
        ),
    ];
    let mut walls = vec![Vec::new(); configs.len()];
    run_rep(w, seed, sim, Toggles::default(), spans, Some(span))?; // warm-up
    for _ in 0..DIFF_REPS {
        // Interleaved, so host drift hits every configuration alike.
        for (i, (name, toggles, profiled)) in configs.iter().enumerate() {
            let s = spans.enter(name, Some(span));
            prof::set_enabled(*profiled);
            let rep = run_rep(w, seed, sim, *toggles, spans, Some(s));
            prof::set_enabled(false);
            let _ = prof::take_global();
            spans.exit(s);
            walls[i].push(rep?.wall_s);
        }
    }
    spans.exit(span);
    spans.exit(root);
    let base = median(walls[0].clone());
    for (i, (name, ..)) in configs.iter().enumerate().skip(1) {
        m.insert(
            format!("sim.obs.{name}_ratio"),
            median(walls[i].clone()) / base,
        );
    }
    Ok(m)
}

/// Counts per simulated packet that the budget multiplies kernels by.
#[derive(Debug, Default)]
struct PerPkt {
    events: f64,
    rtt_samples: f64,
    counter_updates: f64,
    classify: f64,
    port_rx: f64,
    fld_tx: f64,
    host_rx: f64,
    accel_jobs: f64,
    vf_tx: f64,
    policed: f64,
    bursts: f64,
    churn_steps: f64,
    messages: f64,
}

/// The sibling count leaf that moves whenever a byte leaf does.
fn count_twin(path: &str) -> Option<String> {
    let (dir, leaf) = path.rsplit_once('/')?;
    let twin = match leaf {
        "bytes" if dir.starts_with("pcie/") => "tlps",
        "bytes" if dir.starts_with("fabric/") => "forwarded",
        "bytes" => "packets",
        "rx_bytes" => "rx_packets",
        "tx_bytes" => "tx_packets",
        _ => return None,
    };
    Some(format!("{dir}/{twin}"))
}

fn per_pkt(w: Workload, o: &Outcome) -> PerPkt {
    let n = o.sim_pkts.max(1) as f64;
    let sum = |prefix: &str, leaf: &str| o.counter_sum(prefix, leaf) as f64 / n;
    // One counter update per increment of a count leaf, plus one per
    // increment of its byte twin; time accumulators are not per-packet.
    let mut updates = 0u64;
    for (_, snap) in &o.counters {
        for (path, v) in snap.entries() {
            if path.ends_with("_ns") {
                continue;
            }
            updates += match count_twin(path) {
                Some(twin) => snap.get(&twin).unwrap_or(0),
                None => *v,
            };
        }
    }
    let rack = matches!(w, Workload::RackChurn | Workload::RackChaos);
    let port_rx = sum("port/", "rx/packets");
    let accel_jobs = sum("accel/", "/jobs");
    PerPkt {
        events: o.events as f64 / n,
        rtt_samples: o.rtt_us.map_or(0.0, |(_, _, samples)| samples as f64 / n),
        counter_updates: updates as f64 / n,
        classify: sum("eswitch/", "/match") + sum("eswitch/", "/miss"),
        port_rx,
        fld_tx: sum("/queue/tx/", "/packets"),
        host_rx: sum("/queue/rx/", "/packets"),
        accel_jobs,
        vf_tx: sum("vf/", "/tx_packets"),
        // The rack tags a tenant context on every packet, so each is policed.
        policed: if rack { port_rx } else { 0.0 },
        // One defrag burst is one original packet, sent as its fragments.
        bursts: if w == Workload::DefragVxlan {
            accel_jobs / 2.0
        } else {
            0.0
        },
        churn_steps: o.churn_events as f64 / n,
        messages: if w == Workload::Rdma1k { 1.0 } else { 0.0 },
    }
}

/// `layer.budget_ns.*`: Σ over a layer's kernels of ns per call × calls
/// per simulated packet. A kernel nested in another (the cuckoo insert
/// and WQE compression inside the FLD tx cycle, reassembly inside the
/// defrag accelerator, Toeplitz inside RSS) is charged to its own layer
/// and subtracted from the enclosing one.
fn budget(w: Workload, m: &Metrics, c: &PerPkt, tick_ns_per_pkt: f64, peak_depth: f64) -> Metrics {
    let k = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let churn = if peak_depth > 100_000.0 {
        k("sim.calendar_churn_ns.d500k")
    } else {
        k("sim.calendar_churn_ns.d1k")
    };
    let defrag = w == Workload::DefragVxlan;
    let classify = match w {
        Workload::Echo64 | Workload::Echo1500 => k("nic.classify_ns.echo"),
        Workload::DefragVxlan => k("nic.classify_ns.defrag"),
        Workload::RackChurn | Workload::RackChaos => k("nic.classify_ns.rack"),
        Workload::Rdma1k => 0.0,
    };
    let accel_ns = if defrag {
        (k("accel.defrag_process_ns") - k("net.reassemble_ns")).max(0.0)
    } else {
        k("accel.echo_process_ns")
    };
    let fldtx_self =
        (k("core.fldtx_cycle_ns") - k("cuckoo.insert_remove_ns") - k("nic.wqe_compress_ns"))
            .max(0.0);
    let by_layer = [
        (
            "fld-sim",
            c.events * churn
                + c.rtt_samples * k("sim.histogram_record_ns")
                + c.counter_updates * k("sim.counter_inc_ns")
                + tick_ns_per_pkt,
        ),
        (
            "fld-net",
            if defrag {
                c.port_rx * (k("net.vxlan_decap_ns") + k("net.parse_ns.1500"))
                    + c.accel_jobs * k("net.reassemble_ns")
                    + c.host_rx * (k("net.parse_ns.1500") + k("net.toeplitz_ns"))
            } else {
                c.host_rx * k("net.toeplitz_ns")
            },
        ),
        ("fld-cuckoo", c.fld_tx * k("cuckoo.insert_remove_ns")),
        // Synthetic packets skip validation: no workload reaches fld-crypto.
        ("fld-crypto", 0.0),
        (
            "fld-pcie",
            (c.port_rx + c.fld_tx) * 2.0 * k("pcie.segment_ns"),
        ),
        (
            "fld-nic",
            c.classify * classify
                + c.host_rx * (k("nic.rss_ns") - k("net.toeplitz_ns")).max(0.0)
                + c.policed * k("nic.police_ns")
                + c.vf_tx * k("nic.vf_offer_tx_ns")
                + c.fld_tx * k("nic.wqe_compress_ns")
                + c.messages * k("nic.qp_msg_ns"),
        ),
        (
            "fld-core",
            c.fld_tx * fldtx_self + c.accel_jobs * k("core.fldrx_cycle_ns"),
        ),
        ("fld-accel", c.accel_jobs * accel_ns),
        (
            "fld-workloads",
            c.bursts * k("workloads.gen_next_ns") + c.churn_steps * k("workloads.churn_step_ns"),
        ),
    ];
    by_layer
        .into_iter()
        .map(|(layer, ns)| (format!("layer.budget_ns.{layer}"), ns + 0.0))
        .collect()
}

fn phase_fractions(p: &Profile) -> [(&'static str, f64); 5] {
    let wall = p.attributed_wall_ns();
    let share = |pred: &dyn Fn(&str) -> bool| {
        p.phases
            .iter()
            .filter(|ph| pred(&ph.name))
            .map(|ph| ph.total_ns)
            .sum::<f64>()
            / wall
    };
    let named = |n: &str| {
        n == "pop" || n == "export" || n.starts_with("dispatch") || n.starts_with("sample")
    };
    [
        ("pop", share(&|n| n == "pop")),
        ("dispatch", share(&|n| n.starts_with("dispatch"))),
        ("sample", share(&|n| n.starts_with("sample"))),
        ("export", share(&|n| n == "export")),
        // Engine start-up and finish: whatever the four above leave.
        ("other", share(&|n| !named(n))),
    ]
}

/// The per-layer metrics of workload `w`, given the workload-independent
/// ones from [`common`]. Returns them with the traced rep's outcome.
///
/// # Errors
///
/// Fails if a rep panics or a gate fails: a traced run that did not
/// simulate correctly explains nothing.
pub fn trace_workload(
    w: Workload,
    seed: u64,
    sim: SimDuration,
    common: &Metrics,
    spans: &mut Spans,
) -> Result<(Metrics, Outcome), String> {
    let root = spans.enter(w.name(), None);
    let mut m = common.clone();
    let plain = Toggles::default();

    // Set-up side: construction time, counter-tree size, snapshot cost.
    let span = spans.enter("build", Some(root));
    let mut build_ms = Vec::new();
    let mut snapshot_us = Vec::new();
    let mut leaves = 0;
    for _ in 0..BUILD_SAMPLES {
        let t0 = std::time::Instant::now();
        let built = w.build(seed, sim, plain);
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        leaves = built.counter_leaves();
        snapshot_us.push(built.time_snapshot() / 1e3);
    }
    spans.exit(span);
    m.insert("core.build_ms".into(), median(build_ms));
    m.insert("sim.snapshot_us".into(), median(snapshot_us));
    m.insert("sim.counter_leaves".into(), leaves as f64);

    // Untraced baseline (after one warm-up rep).
    let span = spans.enter("warmup", Some(root));
    run_rep(w, seed, sim, plain, spans, Some(span))?;
    spans.exit(span);
    let (untraced_s, base) = timed_reps(w, seed, sim, plain, "untraced", spans, Some(root))?;
    let digest = base.outcome.sim_digest();

    // The traced rep: the engine's self-profile armed.
    let span = spans.enter("rep", Some(root));
    let _ = prof::take_global();
    prof::set_enabled(true);
    let traced = run_rep(w, seed, sim, plain, spans, Some(span));
    prof::set_enabled(false);
    spans.exit(span);
    let traced = traced?;
    let profile = prof::take_global().unwrap_or_default();
    let why = gate(&traced.outcome, digest);
    if !why.is_empty() {
        return Err(format!(
            "{}: traced rep failed: {}",
            w.name(),
            why.join("; ")
        ));
    }

    // Recorder differential: the workload over `TICK_DIFF_SIM` with the
    // flight recorder on and off; the cost per tick is the difference ÷
    // ticks. (A full-length rep of `rack_churn` would take 100 000 ticks.)
    let diff_sim = SimDuration::from_picos(sim.as_picos().min(TICK_DIFF_SIM.as_picos()));
    let with = |on: bool| Toggles {
        recorder: Some(on),
        ..plain
    };
    let (on_s, recorded) = timed_reps(
        w,
        seed,
        diff_sim,
        with(true),
        "recorder_on",
        spans,
        Some(root),
    )?;
    let (off_s, _) = timed_reps(
        w,
        seed,
        diff_sim,
        with(false),
        "recorder_off",
        spans,
        Some(root),
    )?;
    let ticks = recorded.outcome.ticks.max(1) as f64;
    let tick_us = (on_s - off_s) / ticks * 1e6;
    m.insert("sim.tick_us".into(), tick_us);
    m.insert(
        "sim.audit_checks_per_tick".into(),
        recorded.outcome.audit.checks as f64 / ticks,
    );
    spans.exit(root);

    let o = &traced.outcome;
    let n = o.sim_pkts.max(1) as f64;
    let c = per_pkt(w, o);
    m.insert("sim.events_per_sim_pkt".into(), c.events);
    m.insert("sim.events_per_host_s".into(), o.events as f64 / untraced_s);
    m.insert(
        "sim.calendar_peak_depth".into(),
        profile.calendar.peak_depth as f64,
    );
    m.insert(
        "sim.coincident_pops".into(),
        profile.calendar.coincident_pops as f64,
    );
    for (name, frac) in phase_fractions(&profile) {
        m.insert(format!("sim.phase_frac.{name}"), frac + 0.0);
    }
    m.insert("sim.audit_violations".into(), o.audit.violations as f64);

    m.insert(
        "pcie.tlps_per_sim_pkt".into(),
        o.counter_sum("pcie/", "/tlps") as f64 / n,
    );
    m.insert(
        "pcie.wire_bytes_per_sim_pkt".into(),
        o.counter_sum("pcie/", "/bytes") as f64 / n,
    );
    let drop_share = |cause: &str| {
        let d: u64 = o
            .drops
            .iter()
            .filter(|(c, _)| *c == cause)
            .map(|(_, n)| n)
            .sum();
        d as f64 / n
    };
    let classified = (c.classify * n).max(1.0);
    m.insert(
        "nic.eswitch_miss_share".into(),
        o.counter_sum("eswitch/", "/miss") as f64 / classified,
    );
    m.insert(
        "nic.policer_drop_share".into(),
        o.counter_sum("eswitch/", "/policer_drop") as f64 / n,
    );
    m.insert("nic.rdma_retransmits".into(), o.rdma_retransmits as f64);
    m.insert(
        "core.rxring_drop_share".into(),
        drop_share("fld_rx_overflow") + drop_share("host_queue_overflow"),
    );
    m.insert("core.fabric_drop_share".into(), drop_share("fabric"));
    m.insert("core.blackholed".into(), drop_share("blackholed") * n);
    m.insert("core.boundary_drops".into(), drop_share("boundary") * n);
    m.insert("core.mttr_us".into(), o.mttr_us);
    m.insert("accel.jobs".into(), o.counter_sum("accel/", "/jobs") as f64);
    m.insert(
        "accel.stalls".into(),
        o.counter_sum("accel/", "/stalls") as f64,
    );

    // The ns budget against the untraced host cost per simulated packet.
    let host_ns = untraced_s * 1e9 / n;
    let tick_ns_per_pkt = tick_us * 1e3 * o.ticks as f64 / n;
    let budget = budget(
        w,
        &m,
        &c,
        tick_ns_per_pkt,
        profile.calendar.peak_depth as f64,
    );
    let attributed: f64 = budget.values().sum();
    m.extend(budget);
    m.insert("layer.unattributed_frac".into(), 1.0 - attributed / host_ns);
    m.insert(
        "trace_overhead_pct".into(),
        (traced.wall_s / untraced_s - 1.0) * 100.0,
    );
    Ok((m, traced.outcome))
}
