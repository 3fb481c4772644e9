//! Every workload builder at a 2 ms simulated duration: the correctness
//! gates `run` applies must pass, a seed must reproduce its digest, and a
//! different seed must change the digest while passing the same gates.

use benchmark::layers::{trace_workload, Metrics};
use benchmark::measure::{gate, measure, run_rep};
use benchmark::record::{per_layer_defs, Json, END_TO_END};
use benchmark::spans::Spans;
use benchmark::workloads::{Toggles, Workload};
use fld_sim::time::SimDuration;

const SIM: SimDuration = SimDuration::from_millis(2);

fn rep_for(w: Workload, seed: u64, sim: SimDuration) -> benchmark::measure::Rep {
    run_rep(
        w,
        seed,
        sim,
        Toggles::default(),
        &mut Spans::new(false),
        None,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

fn rep(w: Workload, seed: u64) -> benchmark::measure::Rep {
    rep_for(w, seed, SIM)
}

#[test]
fn every_workload_passes_its_gates_and_reproduces_its_digest() {
    for w in Workload::ALL {
        let a = rep(w, 7);
        let digest = a.outcome.sim_digest();
        assert!(a.outcome.sim_pkts > 0, "{}: nothing offered", w.name());
        assert!(a.outcome.audit.checks > 0, "{}: nothing audited", w.name());
        assert_eq!(
            gate(&a.outcome, digest),
            Vec::<String>::new(),
            "{}",
            w.name()
        );
        let b = rep(w, 7);
        assert_eq!(
            gate(&b.outcome, digest),
            Vec::<String>::new(),
            "{}",
            w.name()
        );
        assert_eq!(a.heap, b.heap, "{}: heap counts differ", w.name());
    }
}

#[test]
fn another_seed_changes_the_digest_and_passes_the_same_gates() {
    for w in Workload::ALL {
        let a = rep(w, 7);
        let b = rep(w, 8);
        let own = b.outcome.sim_digest();
        assert_eq!(gate(&b.outcome, own), Vec::<String>::new(), "{}", w.name());
        // The seed drives the racks' flow population, so 2 ms already
        // tell two seeds apart. It reaches the single-node systems only
        // as PCIe jitter, which takes longer to move a counter, and
        // RdmaConfig has no seeded input at all.
        if matches!(w, Workload::RackChurn | Workload::RackChaos) {
            assert_ne!(a.outcome.sim_digest(), own, "{}: seed ignored", w.name());
            assert!(!gate(&b.outcome, a.outcome.sim_digest()).is_empty());
        }
        if w == Workload::Rdma1k {
            assert_eq!(a.outcome.sim_digest(), own);
        }
    }
}

#[test]
fn rack_chaos_accounts_every_fault_and_ends_healthy() {
    let r = rep(Workload::RackChaos, 7);
    assert_eq!(r.outcome.check, Ok(()));
    assert!(r.outcome.mttr_us > 0.0, "no recovery was measured");
    assert!(r.outcome.ticks > 0, "the flight recorder never ticked");
    assert!(
        r.outcome.drops.iter().any(|(_, n)| *n > 0),
        "faults cost nothing"
    );
}

#[test]
fn measure_counts_every_packet_and_fails_none() {
    let m = measure(Workload::RackChurn, 7, SIM, 0.01, &mut Spans::new(false)).unwrap();
    assert!(m.exact);
    assert_eq!(m.ops_failed, 0, "{:?}", m.failures);
    assert_eq!(
        m.ops_attempted,
        m.outcome.sim_pkts * m.host_ns_per_sim_pkt.n as u64
    );
    assert!(m.setup_s.median > 0.0 && m.host_ns_per_sim_pkt.median > 0.0);
}

#[test]
fn traced_run_emits_every_count_and_phase_fractions_sum_to_one() {
    // No kernels here (they take seconds): the budget reads them as zero.
    let mut spans = Spans::new(true);
    let (m, _) = trace_workload(Workload::Echo1500, 7, SIM, &Metrics::new(), &mut spans).unwrap();
    let phases: f64 = m
        .iter()
        .filter(|(k, _)| k.starts_with("sim.phase_frac."))
        .map(|(_, v)| v)
        .sum();
    assert!(
        (phases - 1.0).abs() < 0.02,
        "phase fractions sum to {phases}"
    );
    for name in [
        "sim.events_per_sim_pkt",
        "sim.tick_us",
        "sim.counter_leaves",
        "pcie.tlps_per_sim_pkt",
        "core.build_ms",
        "layer.budget_ns.fld-sim",
        "layer.unattributed_frac",
        "trace_overhead_pct",
    ] {
        assert!(m.get(name).is_some_and(|v| v.is_finite()), "{name} missing");
    }
    assert!(
        m["sim.calendar_peak_depth"] > 0.0,
        "the profile was not armed"
    );
    let log = Json::parse(&spans.to_json()).unwrap();
    assert!(matches!(log.get("spans"), Some(Json::Arr(s)) if s.len() > 10));
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_harness_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        items
            .iter()
            .map(|i| i.get("name").and_then(Json::str).unwrap().to_string())
            .collect()
    };
    assert_eq!(
        names("workloads"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    let driver: Vec<String> = END_TO_END
        .iter()
        .filter(|d| d.driver)
        .map(|d| d.name.to_string())
        .collect();
    assert_eq!(names("end_to_end"), driver);
    let per_layer: Vec<String> = per_layer_defs().into_iter().map(|(n, ..)| n).collect();
    assert_eq!(names("per_layer"), per_layer);
}
