//! Tamper tests: the per-tick audit reads counters through handles and
//! groups resolved at wiring time, and that cache must never be able to
//! mask or delay a violation. Each scenario runs a real system with the
//! flight recorder on, corrupts one audited leaf mid-run behind its
//! aggregate's back — an existing leaf, or a brand-new one registered
//! under an audited prefix, which a group must pick up when its cursor
//! on the tree's registration log next advances — and pins the
//! outcome to what an earlier audit design reported (the string-scanning
//! audit; for the churned-flow scenario, groups that re-walked the
//! sorted tree on every registration):
//! the same first violation (`at`, component, invariant, detail), the
//! same number of violations over the rest of the run (every later tick
//! plus the end-of-run audit — none skipped), and the same strict-audit
//! panic message. The last scenario corrupts no counter: it slips one
//! packet handle into the pool behind the flow ledger's back, which the
//! pool-conservation clause must name first.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use fld_accel::echo::EchoAccelerator;
use fld_bench::experiments::echo::steer_to_accel;
use fld_core::rack::{
    FlowPopulation, Rack, RackConfig, StaticPopulation, TenantFlow, TrafficPattern,
};
use fld_core::rdma_system::{MsgAccelerator, MsgEcho, RdmaConfig, RdmaSystem};
use fld_core::system::{
    AccelOutput, AcceleratorModel, ClientGen, EmitList, FldSystem, GenMode, HostMode, SystemConfig,
};
use fld_nic::packet::SimPacket;
use fld_sim::audit::AuditReport;
use fld_sim::counters::CounterTree;
use fld_sim::fault::FaultPlan;
use fld_sim::rng::SimRng;
use fld_sim::time::{SimDuration, SimTime};
use fld_workloads::churn::{ChurnConfig, ChurnProcess};

/// Bumps `path` in a system's counter tree on the `at`-th call of
/// [`Tamper::poke`] — called from inside the model (an accelerator or a
/// flow population), i.e. between two flight-recorder ticks. The tree
/// only exists once the system is built, hence the late-bound slot.
#[derive(Debug)]
struct Tamper {
    tree: OnceLock<CounterTree>,
    path: &'static str,
    at: u64,
    calls: AtomicU64,
    /// Simulated ns of the tampering call, where the caller knows it.
    poked_ns: AtomicU64,
    /// Counters the bound tree held just before the tamper registered.
    len_at_poke: AtomicU64,
}

impl Tamper {
    fn new(path: &'static str, at: u64) -> Arc<Tamper> {
        Arc::new(Tamper {
            tree: OnceLock::new(),
            path,
            at,
            calls: AtomicU64::new(0),
            poked_ns: AtomicU64::new(u64::MAX),
            len_at_poke: AtomicU64::new(0),
        })
    }

    fn bind(&self, tree: &CounterTree) {
        self.tree.set(tree.clone()).expect("bound once");
    }

    fn poke(&self, now: Option<SimTime>) {
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            if let Some(now) = now {
                self.poked_ns.store(now.as_nanos(), Ordering::Relaxed);
            }
            // `counter` shares an existing leaf's cell or registers a
            // new leaf — either way without touching any aggregate.
            let tree = self.tree.get().expect("bound");
            self.len_at_poke.store(tree.len() as u64, Ordering::Relaxed);
            tree.counter(self.path).inc();
        }
    }
}

#[derive(Debug)]
struct TamperingEcho(EchoAccelerator, Arc<Tamper>);

impl AcceleratorModel for TamperingEcho {
    fn process(&mut self, pkt: SimPacket, next_table: Option<u16>, now: SimTime) -> AccelOutput {
        self.1.poke(Some(now));
        self.0.process(pkt, next_table, now)
    }
}

/// Echoes every packet — and the `at`-th one twice, under one id. The
/// flow ledger books an emission under its input's id as that packet
/// moving on, not as a new one, so the second copy is a pool handle no
/// conservation term accounts for: leaked, as far as any audit can tell.
#[derive(Debug)]
struct LeakingEcho {
    echo: EchoAccelerator,
    at: u64,
    calls: u64,
    leaked_ns: Arc<AtomicU64>,
}

impl AcceleratorModel for LeakingEcho {
    fn process(&mut self, pkt: SimPacket, next_table: Option<u16>, now: SimTime) -> AccelOutput {
        let mut out = self.echo.process(pkt, next_table, now);
        self.calls += 1;
        if self.calls == self.at {
            self.leaked_ns.store(now.as_nanos(), Ordering::Relaxed);
            let echoed = out.emit[0].clone();
            out.emit = EmitList::Many(vec![echoed.clone(), echoed]);
        }
        out
    }
}

#[derive(Debug)]
struct TamperingMsgEcho(Arc<Tamper>);

impl MsgAccelerator for TamperingMsgEcho {
    fn process_message(&mut self, bytes: u32, now: SimTime) -> (SimTime, u32) {
        self.0.poke(Some(now));
        MsgEcho.process_message(bytes, now)
    }
}

/// Forwards every call to the population it wraps; each packet pick
/// pokes the tamper.
#[derive(Debug)]
struct TamperingPopulation<P>(P, Arc<Tamper>);

impl<P: FlowPopulation> FlowPopulation for TamperingPopulation<P> {
    fn next_arrival_gap(&mut self, rng: &mut SimRng) -> Option<SimDuration> {
        self.0.next_arrival_gap(rng)
    }
    fn arrive(&mut self, rng: &mut SimRng) -> Option<(TenantFlow, SimDuration)> {
        self.0.arrive(rng)
    }
    fn depart(&mut self, id: u64) -> bool {
        self.0.depart(id)
    }
    fn pick(&self, tenant: u16, rng: &mut SimRng) -> Option<TenantFlow> {
        self.1.poke(None);
        self.0.pick(tenant, rng)
    }
    fn active_count(&self) -> usize {
        self.0.active_count()
    }
    fn arrivals(&self) -> u64 {
        self.0.arrivals()
    }
    fn departures(&self) -> u64 {
        self.0.departures()
    }
    fn node_down(&mut self, node: u16) -> u64 {
        self.0.node_down(node)
    }
    fn node_up(&mut self, node: u16, rng: &mut SimRng) -> u64 {
        self.0.node_up(node, rng)
    }
    fn active_on(&self, node: u16) -> usize {
        self.0.active_on(node)
    }
}

/// One tampered run: its audit, the simulated instant of the tamper
/// (where the tampering call site is told the time) and the tick period.
struct Outcome {
    audit: AuditReport,
    poked_ns: Option<u64>,
    tick_ns: u64,
}

impl Outcome {
    fn new(audit: AuditReport, tamper: &Tamper, tick: SimDuration) -> Outcome {
        let poked = tamper.poked_ns.load(Ordering::Relaxed);
        assert!(
            tamper.calls.load(Ordering::Relaxed) >= tamper.at,
            "the run ended before the tamper fired"
        );
        Outcome {
            audit,
            poked_ns: (poked != u64::MAX).then_some(poked),
            tick_ns: tick.as_nanos(),
        }
    }
}

const ECHO_TICK: SimDuration = SimDuration::from_micros(1);

/// Closed-loop 64 B echo through `accel`, 1 µs ticks; `bind` sees the
/// built system before it runs. `faults` arms a zero-rate plan: nothing
/// is ever injected, but the fault-accounting clause runs.
fn run_echo(
    accel: Box<dyn AcceleratorModel>,
    faults: bool,
    strict: bool,
    bind: impl FnOnce(&FldSystem),
) -> AuditReport {
    let gen = ClientGen::fixed_udp(GenMode::ClosedLoop { window: 4 }, 256, 64);
    let mut sys = FldSystem::new(SystemConfig::remote(), accel, HostMode::Consume, gen);
    steer_to_accel(&mut sys.nic);
    bind(&sys);
    if faults {
        sys.enable_faults(&FaultPlan::new(0.0, 1));
    }
    if strict {
        sys.enable_strict_audit();
    }
    sys.enable_flight_recorder(ECHO_TICK);
    sys.run(SimTime::ZERO, SimTime::from_millis(100)).audit
}

/// [`run_echo`] where the 100th packet through the accelerator tampers
/// with `path`.
fn echo_run(path: &'static str, faults: bool, strict: bool) -> Outcome {
    let tamper = Tamper::new(path, 100);
    let accel = TamperingEcho(EchoAccelerator::prototype(), tamper.clone());
    let audit = run_echo(Box::new(accel), faults, strict, |sys| {
        tamper.bind(sys.counter_tree())
    });
    Outcome::new(audit, &tamper, ECHO_TICK)
}

/// [`run_echo`] with nothing tampered but the pool: the 100th packet
/// comes back from the accelerator twice.
fn leaking_echo_run(strict: bool) -> Outcome {
    let leaked_ns = Arc::new(AtomicU64::new(u64::MAX));
    let accel = LeakingEcho {
        echo: EchoAccelerator::prototype(),
        at: 100,
        calls: 0,
        leaked_ns: leaked_ns.clone(),
    };
    let audit = run_echo(Box::new(accel), false, strict, |_| {});
    let leaked = leaked_ns.load(Ordering::Relaxed);
    assert_ne!(leaked, u64::MAX, "the run ended before the leak");
    Outcome {
        audit,
        poked_ns: Some(leaked),
        tick_ns: ECHO_TICK.as_nanos(),
    }
}

/// FLD-R 1 KiB message echo, 5 µs ticks; the 50th message tampers.
fn rdma_run(path: &'static str, faults: bool, strict: bool) -> Outcome {
    let tamper = Tamper::new(path, 50);
    let tick = SimDuration::from_micros(5);
    let mut sys = RdmaSystem::new(
        RdmaConfig::remote(1024, 16, 200),
        Box::new(TamperingMsgEcho(tamper.clone())),
    );
    tamper.bind(sys.counter_tree());
    if faults {
        sys.enable_faults(&FaultPlan::new(0.0, 1));
    }
    if strict {
        sys.enable_strict_audit();
    }
    sys.enable_flight_recorder(tick);
    let stats = sys.run(SimTime::ZERO, SimTime::from_millis(50));
    Outcome::new(stats.audit, &tamper, tick)
}

/// 2 nodes × 3 tenants, 50 µs ticks over 2 ms; the 150th generated
/// packet tampers with the rack tree (`node: None`) or a node's tree.
/// The population is static: every flow exists from the start.
fn rack_run(path: &'static str, node: Option<usize>, strict: bool) -> Outcome {
    let tamper = Tamper::new(path, 150);
    let pop = TamperingPopulation(StaticPopulation::new(3, 2, 2), tamper.clone());
    let (audit, _) = run_rack(Box::new(pop), &tamper, node, strict);
    Outcome::new(audit, &tamper, RACK_TICK)
}

/// Flows arriving per second in [`churned_rack_run`]: about five per
/// 50 µs tick across the rack.
const CHURN_RATE: f64 = 100_000.0;

/// [`rack_run`] over a churned population ([`CHURN_RATE`] arrivals/s,
/// 5 ms mean lifetime), so nodes keep registering real
/// `flow/<5-tuple>/…` leaves before and after the tamper. Also returns
/// how many counters the tampered tree held before the run, when the
/// tamper fired and at the end of the run.
fn churned_rack_run(path: &'static str, node: usize, strict: bool) -> (Outcome, [usize; 3]) {
    let tamper = Tamper::new(path, 170);
    let churn = ChurnConfig {
        tenants: 3,
        nodes: 2,
        arrival_rate: CHURN_RATE,
        ..ChurnConfig::default()
    };
    let mut rng = SimRng::seed_from(0xC4_0A2D);
    let pop = TamperingPopulation(ChurnProcess::new(churn, &mut rng), tamper.clone());
    let (audit, [start, end]) = run_rack(Box::new(pop), &tamper, Some(node), strict);
    let at_poke = tamper.len_at_poke.load(Ordering::Relaxed) as usize;
    (
        Outcome::new(audit, &tamper, RACK_TICK),
        [start, at_poke, end],
    )
}

const RACK_TICK: SimDuration = SimDuration::from_micros(50);

/// Runs the 2-node rack over `pop` with `tamper` bound to the rack tree
/// (`node: None`) or a node's; returns the audit and the bound tree's
/// length before and after the run.
fn run_rack(
    pop: Box<dyn FlowPopulation>,
    tamper: &Tamper,
    node: Option<usize>,
    strict: bool,
) -> (AuditReport, [usize; 2]) {
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
    let mut rack = Rack::new(cfg, pop);
    let tree = match node {
        None => rack.counter_tree(),
        Some(n) => rack.nodes()[n].counter_tree(),
    }
    .clone();
    tamper.bind(&tree);
    if strict {
        rack.enable_strict_audit();
    }
    rack.enable_flight_recorder(RACK_TICK);
    let start = tree.len();
    let stats = rack.run(SimTime::ZERO, SimTime::from_millis(2));
    (stats.audit, [start, tree.len()])
}

/// One violation as `(at_ns, component, invariant, detail)`.
type Pinned = (u64, &'static str, &'static str, &'static str);

/// Checks a scenario against what the earlier design's audit reported
/// for it: `first` are the violations of the first tick after the
/// tamper, in recording order, and `total` the violations over the
/// whole run.
fn check(run: impl Fn(bool) -> Outcome, first: &[Pinned], total: u64) {
    let got = run(false);
    let recorded: Vec<(u64, &str, &str, &str)> = got
        .audit
        .recorded
        .iter()
        .map(|v| {
            (
                v.at.as_nanos(),
                v.component.as_str(),
                v.invariant,
                v.detail.as_str(),
            )
        })
        .collect();
    assert!(recorded.starts_with(first), "{recorded:#?}");
    assert_eq!(got.audit.violations, total, "{}", got.audit);
    // The very next tick: no tick boundary lies between the tamper and
    // the first violation.
    let (at, component, invariant, detail) = first[0];
    if let Some(poked) = got.poked_ns {
        assert!(
            poked <= at && at - poked < got.tick_ns,
            "tampered at {poked} ns, first violation at {at} ns"
        );
    }
    // Strict mode dies on that same first violation, same words.
    let panic =
        catch_unwind(AssertUnwindSafe(|| run(true).audit)).expect_err("strict audit must panic");
    let msg = panic
        .downcast_ref::<String>()
        .expect("panic carries its message");
    assert_eq!(
        *msg,
        format!("strict audit failed: [{at} ns] {component} violated {invariant}: {detail}")
    );
}

#[test]
fn echo_tampered_group_member_is_caught_on_the_next_tick() {
    check(
        |strict| echo_run("port/0/queue/tx/0/packets", false, strict),
        &[(
            73_000,
            "counters.txq",
            "counter-telescope",
            "per-tx-queue packets sum to 101, device enqueued 100",
        )],
        117,
    );
}

/// The leaf is registered mid-run, after the `flow/*/packets` group was
/// resolved and read: the group must notice the tree grew.
#[test]
fn echo_new_leaf_under_an_audited_prefix_is_caught_on_the_next_tick() {
    check(
        |strict| echo_run("flow/tampered/packets", false, strict),
        &[(
            73_000,
            "counters.flow",
            "counter-telescope",
            "per-flow packets sum to 102 but port rx saw 101",
        )],
        117,
    );
}

#[test]
fn echo_tampered_fault_counter_is_caught_on_the_next_tick() {
    check(
        |strict| echo_run("faults/fld/drop", true, strict),
        &[(
            73_000,
            "fld",
            "fault-accounting",
            "faults/** sum to 1, recovery/** to 0 with 0 open",
        )],
        117,
    );
}

/// A resolution no injection accounts for, under a leaf the ledger does
/// not write, registered mid-run.
#[test]
fn echo_rogue_recovery_leaf_is_caught_on_the_next_tick() {
    check(
        |strict| echo_run("recovery/lost", true, strict),
        &[(
            73_000,
            "fld",
            "fault-accounting",
            "faults/** sum to 0, recovery/** to 1 with 0 open",
        )],
        117,
    );
}

#[test]
fn rdma_tampered_qp_leaf_is_caught_on_the_next_tick() {
    check(
        |strict| rdma_run("qp/256/tx_packets", false, strict),
        &[(
            35_000,
            "counters.qp",
            "counter-telescope",
            "counter qp/256/tx_packets reads 65 but the aggregate is 64",
        )],
        35,
    );
}

/// A fault counter under an entity no injector owns, registered mid-run.
#[test]
fn rdma_rogue_fault_entity_is_caught_on_the_next_tick() {
    check(
        |strict| rdma_run("faults/rogue/rnr", true, strict),
        &[(
            35_000,
            "rdma",
            "fault-accounting",
            "faults/** sum to 1, recovery/** to 0 with 0 open",
        )],
        35,
    );
}

#[test]
fn rack_tampered_fabric_leaf_is_caught_on_the_next_tick() {
    check(
        |strict| rack_run("fabric/port/0/forwarded", None, strict),
        &[
            (
                650_000,
                "rack.fabric",
                "counter-telescope",
                "counters under fabric/ sum to 88551 but the aggregate is 88550",
            ),
            (
                650_000,
                "rack.fabric",
                "counter-telescope",
                "fabric/*/forwarded sums to 155 but the aggregate is 154",
            ),
        ],
        58,
    );
}

/// A VF leaf nobody created, registered mid-run in node 1's tree.
#[test]
fn rack_new_vf_leaf_on_a_node_is_caught_on_the_next_tick() {
    check(
        |strict| rack_run("vf/7/rx_packets", Some(1), strict),
        &[
            (
                650_000,
                "nic.sriov",
                "counter-telescope",
                "counters under vf/ sum to 85471 but the aggregate is 85470",
            ),
            (
                650_000,
                "nic.sriov",
                "counter-telescope",
                "vf/*/rx_packets sums to 71 but the PF aggregate is 70",
            ),
        ],
        58,
    );
}

/// A handle the ledger does not know: every counter still telescopes and
/// the flow inequality still holds (packets are in flight), so nothing
/// but the pool clause can see it — on the very next tick, and first.
#[test]
fn echo_leaked_pool_handle_is_caught_on_the_next_tick() {
    check(
        leaking_echo_run,
        &[(
            73_000,
            "system.pool",
            "conservation",
            "pool holds 5 packets, the ledger 1 on the wire + 3 in flight",
        )],
        98,
    );
}

/// A flow leaf nobody counted, registered mid-run in node 0's tree while
/// the churned population is still registering real flows there: node
/// 0's tree holds 119 counters at the 650 µs tick and 128 at the 700 µs
/// one, and the tamper is the 126th, so the `flow/*/packets` group's
/// read at 700 µs passes six real entries, the tampered one and two
/// more, and must count the tampered one with the real ones.
#[test]
fn rack_new_flow_leaf_among_churned_flows_is_caught_on_the_next_tick() {
    check(
        |strict| churned_rack_run("flow/tampered/packets", 0, strict).0,
        &[(
            700_000,
            "counters.flow",
            "counter-telescope",
            "per-flow packets sum to 98 but port rx saw 97",
        )],
        28,
    );
    // Flows registered before and after the tamper: the tree held 77
    // counters before the first packet, 125 when the tamper fired.
    let (_, lens) = churned_rack_run("flow/tampered/packets", 0, false);
    assert_eq!(lens, [77, 125, 240]);
}
