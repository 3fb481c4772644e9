//! Rack-scale multi-tenant topology: N FLD-equipped server nodes behind
//! a shared switch fabric, with SR-IOV virtual functions partitioning
//! each node's NIC between tenants.
//!
//! The single-node [`FldSystem`] stays the building block: a [`Rack`]
//! composes N of them as *inert servers* (their own traffic generators
//! disabled) and drives all load itself from a churning population of
//! tenant flows ([`FlowPopulation`], implemented by
//! `fld_workloads::ChurnProcess`). Every packet is born at a source
//! node's virtual function — where the per-VF transmit shaper applies —
//! crosses the fabric's output-queued egress port for its destination
//! node, and then traverses the full NIC → peer-to-peer PCIe → FLD →
//! accelerator → wire pipeline of the destination node, classified by
//! that node's per-tenant VF rules.
//!
//! Two deliberate simplifications keep the model tractable: responses
//! complete at the destination node's wire (they do not re-traverse the
//! fabric, so the measured RTT isolates the congested direction), and a
//! node's transmit path toward the fabric is represented by its VF
//! shaper alone (the destination side carries the full device model).
//!
//! The composite reuses the single-node event loop verbatim: node
//! events are wrapped in [`RackEv::Node`] and handed back to
//! [`FldSystem::dispatch`] through a [`Scheduler`] adapter, so the
//! per-node data path is the same monomorphized code the single-node
//! experiments run. A packet the fabric forwards is parked in its
//! destination node's pool ([`FldSystem::admit`]) and travels as a handle
//! from then on; the rack reads the events it relays through
//! [`FldSystem::packet`] and hands a packet lost at a faulted boundary
//! back with [`FldSystem::discard`].

use fld_net::{FlowKey, Ipv4Addr};
use fld_nic::eswitch::{Action, MatchSpec, Rule};
use fld_nic::nic::{Direction, Nic};
use fld_nic::packet::SimPacket;
use fld_nic::vf::VfConfig;
use fld_pcie::model::ETH_OVERHEAD;
use fld_sim::audit::{AuditReport, Auditor};
use fld_sim::counters::{Counter, CounterSnapshot, CounterSum, CounterTree};
use fld_sim::engine::{Engine, Model, Probes, Scheduler};
use fld_sim::fault::{Booking, FaultKind, FaultLedger, FaultOutcome, FaultSchedule};
use fld_sim::health::{HealthConfig, HealthId, HealthMonitor};
use fld_sim::link::Link;
use fld_sim::metrics::MetricsRegistry;
use fld_sim::probe::Timeline;
use fld_sim::rng::SimRng;
use fld_sim::stats::Histogram;
use fld_sim::time::{Bandwidth, SimDuration, SimTime};

use crate::hw::FldConfig;
use crate::lifecycle::Recorder;
use crate::params::PORT_BUFFER;
use crate::system::{
    AccelOutput, AcceleratorModel, ClientGen, Ev, FldSystem, GenMode, HostMode, SystemConfig,
};

/// One live tenant connection, as the rack needs to see it: which tenant
/// it belongs to and where its packets enter the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantFlow {
    /// Unique flow id over the run.
    pub id: u64,
    /// Owning tenant.
    pub tenant: u16,
    /// Node whose uplink (and VF shaper) the flow's packets use.
    pub src_node: u16,
    /// UDP source port distinguishing the flow inside its tenant.
    pub src_port: u16,
}

/// The churning flow population driving a rack. Defined here (rather
/// than taking `fld_workloads::ChurnProcess` directly) because the
/// workload crate depends on this one; `ChurnProcess` implements it.
///
/// All randomness flows through the caller's seeded [`SimRng`], so a
/// seeded rack run replays byte-identically.
pub trait FlowPopulation: std::fmt::Debug + Send {
    /// Time until the next flow arrival, or `None` when the population
    /// is static (no arrivals are ever scheduled).
    fn next_arrival_gap(&mut self, rng: &mut SimRng) -> Option<SimDuration>;

    /// Admits one arriving flow and draws its lifetime; the rack
    /// schedules the departure. `None` for static populations.
    fn arrive(&mut self, rng: &mut SimRng) -> Option<(TenantFlow, SimDuration)>;

    /// Retires flow `id`; `false` if it is gone already (or protected).
    fn depart(&mut self, id: u64) -> bool;

    /// Picks an active flow of `tenant` for its next packet.
    fn pick(&self, tenant: u16, rng: &mut SimRng) -> Option<TenantFlow>;

    /// Currently active flows.
    fn active_count(&self) -> usize;

    /// Flows admitted over the run (beyond the initial population).
    fn arrivals(&self) -> u64 {
        0
    }

    /// Flows retired over the run.
    fn departures(&self) -> u64 {
        0
    }

    /// A node crashed: every flow sourced there dies immediately and no
    /// new flow may be placed on it until [`FlowPopulation::node_up`].
    /// Returns the number of flows killed. Default: nothing to kill.
    fn node_down(&mut self, _node: u16) -> u64 {
        0
    }

    /// The node recovered: re-establish its share of the population.
    /// Returns the number of flows (re-)established. Default: none.
    fn node_up(&mut self, _node: u16, _rng: &mut SimRng) -> u64 {
        0
    }

    /// Currently active flows sourced at `node`.
    fn active_on(&self, _node: u16) -> usize {
        0
    }
}

/// A fixed, churn-free population: `per_tenant` flows per tenant, source
/// nodes assigned round-robin. Deterministic without touching the RNG
/// for membership — the golden-run population, and the fallback when
/// churn is disabled.
#[derive(Debug)]
pub struct StaticPopulation {
    flows: Vec<TenantFlow>,
    /// Parallel to `flows`: false while the flow's source node is
    /// crashed. The membership itself is fixed — a static population
    /// "re-establishes" a recovered node's flows by reviving them.
    alive: Vec<bool>,
    tenants: u16,
    per_tenant: usize,
}

impl StaticPopulation {
    /// `per_tenant` flows for each of `tenants` tenants across `nodes`
    /// source nodes.
    ///
    /// # Panics
    ///
    /// Panics on an empty topology.
    pub fn new(tenants: u16, nodes: u16, per_tenant: usize) -> StaticPopulation {
        assert!(tenants > 0 && nodes > 0, "empty topology");
        let mut flows = Vec::new();
        for t in 0..tenants {
            for k in 0..per_tenant {
                flows.push(TenantFlow {
                    id: flows.len() as u64,
                    tenant: t,
                    src_node: ((t as usize + k) % nodes as usize) as u16,
                    src_port: 20_000 + flows.len() as u16,
                });
            }
        }
        StaticPopulation {
            alive: vec![true; flows.len()],
            flows,
            tenants,
            per_tenant,
        }
    }
}

impl FlowPopulation for StaticPopulation {
    fn next_arrival_gap(&mut self, _rng: &mut SimRng) -> Option<SimDuration> {
        None
    }

    fn arrive(&mut self, _rng: &mut SimRng) -> Option<(TenantFlow, SimDuration)> {
        None
    }

    fn depart(&mut self, _id: u64) -> bool {
        false
    }

    fn pick(&self, tenant: u16, rng: &mut SimRng) -> Option<TenantFlow> {
        if tenant >= self.tenants || self.per_tenant == 0 {
            return None;
        }
        // With every flow alive this draws next_below(per_tenant) exactly
        // as before node-liveness existed — seeded replays are preserved.
        let candidates = self
            .flows
            .iter()
            .zip(&self.alive)
            .filter(|(f, &alive)| alive && f.tenant == tenant);
        let n = candidates.clone().count();
        if n == 0 {
            return None;
        }
        let nth = rng.next_below(n as u64) as usize;
        candidates.map(|(f, _)| f).nth(nth).copied()
    }

    fn active_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    fn node_down(&mut self, node: u16) -> u64 {
        let mut killed = 0;
        for (f, alive) in self.flows.iter().zip(self.alive.iter_mut()) {
            if f.src_node == node && *alive {
                *alive = false;
                killed += 1;
            }
        }
        killed
    }

    fn node_up(&mut self, node: u16, _rng: &mut SimRng) -> u64 {
        let mut revived = 0;
        for (f, alive) in self.flows.iter().zip(self.alive.iter_mut()) {
            if f.src_node == node && !*alive {
                *alive = true;
                revived += 1;
            }
        }
        revived
    }

    fn active_on(&self, node: u16) -> usize {
        self.flows
            .iter()
            .zip(&self.alive)
            .filter(|(f, &alive)| alive && f.src_node == node)
            .count()
    }
}

/// Where a flow's packets are destined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every flow targets one node — the incast that congests a single
    /// fabric egress port (the isolation experiment's scenario).
    Incast {
        /// The node all traffic converges on.
        target: u16,
    },
    /// Each flow targets a node other than its source, spread by flow id
    /// — exercises every fabric port and every node's queues.
    Uniform,
}

/// Rack topology and workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct RackConfig {
    /// Server nodes (each one FLD device + NIC).
    pub nodes: u16,
    /// Tenants; each gets one VF per node. At most 250 (tenant identity
    /// rides in the last source-IP octet).
    pub tenants: u16,
    /// FLD transmit queues per node.
    pub tx_queues: u16,
    /// The tenant whose latency the isolation experiment protects.
    pub victim: u16,
    /// Victim offered load, packets per second (Poisson).
    pub victim_rate: f64,
    /// Offered load of every other tenant, packets per second (Poisson).
    /// Zero silences the aggressors (the isolated baseline run).
    pub aggressor_rate: f64,
    /// UDP payload bytes per packet.
    pub payload: u32,
    /// Destination selection.
    pub pattern: TrafficPattern,
    /// Per-VF transmit shaper `(rate, burst_bytes)` applied to every VF
    /// on every node; `None` leaves tenants unshaped.
    pub vf_shaper: Option<(Bandwidth, u64)>,
    /// Fabric egress-port line rate.
    pub port_rate: Bandwidth,
    /// Fabric one-way port latency.
    pub port_latency: SimDuration,
    /// Fabric per-port output-buffer bytes (the credit pool; packets
    /// arriving beyond it are dropped and counted).
    pub port_buffer: u64,
    /// Match-action rules each VF may install.
    pub vf_rule_quota: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RackConfig {
    /// The acceptance-scale rack: 4 nodes × 512 tx queues (2048 rings),
    /// 9 tenants incasting node 0.
    fn default() -> Self {
        RackConfig {
            nodes: 4,
            tenants: 9,
            tx_queues: 512,
            victim: 0,
            victim_rate: 50_000.0,
            aggressor_rate: 400_000.0,
            payload: 1024,
            pattern: TrafficPattern::Incast { target: 0 },
            vf_shaper: None,
            port_rate: Bandwidth::gbps(25.0),
            port_latency: SimDuration::from_micros(1),
            port_buffer: PORT_BUFFER,
            vf_rule_quota: 4,
            seed: 0xF1D0_4ACC,
        }
    }
}

/// The per-destination fabric aggregates the `fabric/port/<d>/...`
/// counter subtree telescopes to.
#[derive(Debug, Default, Clone, Copy)]
struct FabricTotals {
    forwarded: u64,
    bytes: u64,
    drops: u64,
    /// Packets offered to a flapped (down) port: blackholed at the
    /// switch, never buffered. Only moves while a fault schedule is
    /// armed.
    blackholed: u64,
}

impl FabricTotals {
    fn grand_total(&self) -> u64 {
        self.by_leaf().iter().sum()
    }

    /// The aggregates in [`FABRIC_LEAVES`] order.
    fn by_leaf(&self) -> [u64; FABRIC_LEAVES.len()] {
        [self.forwarded, self.bytes, self.drops, self.blackholed]
    }
}

/// The per-port leaves under `fabric/port/<d>/`, in
/// [`FabricTotals::by_leaf`] order.
const FABRIC_LEAVES: [&str; 4] = ["forwarded", "bytes", "drops", "blackholed"];

/// Per-port counter handles: (forwarded, bytes, drops).
type PortCounters = (Counter, Counter, Counter);

/// The spraying echo accelerator every rack node runs: returns each
/// packet to the wire, spreading transmissions across all tx rings by
/// packet id so per-queue occupancy stays shallow (the § 5.5
/// queue-scaling regime — this is what keeps all `nodes × tx_queues`
/// rings live under load).
#[derive(Debug)]
struct RackEcho {
    tx_queues: u16,
}

impl AcceleratorModel for RackEcho {
    fn process(&mut self, pkt: SimPacket, next_table: Option<u16>, now: SimTime) -> AccelOutput {
        let queue = (pkt.id % self.tx_queues as u64) as u16;
        AccelOutput::emit_one(now, (now, queue, next_table, pkt))
    }

    fn name(&self) -> &'static str {
        "rack-echo"
    }
}

/// Calendar events of the rack model.
#[derive(Debug)]
pub enum RackEv {
    /// An embedded node's own event, dispatched to that node.
    Node(u16, Ev),
    /// One tenant's next packet is due.
    TenantGen(u16),
    /// The next churn arrival is due.
    Churn,
    /// Flow departure.
    Depart(u64),
    /// Scheduled fault `i` of the armed [`FaultSchedule`] fires.
    FaultStart(u32),
    /// Scheduled fault `i` reaches the end of its hold window.
    FaultEnd(u32),
    /// Watchdog heartbeat: advance every health state machine.
    HealthTick,
}

/// [`Scheduler`] adapter wrapping one node's events into the rack's
/// event type — how the single-node dispatch code runs unchanged inside
/// the composite calendar.
struct NodeSched<'a, E: Scheduler<RackEv>> {
    inner: &'a mut E,
    node: u16,
}

impl<E: Scheduler<RackEv>> Scheduler<Ev> for NodeSched<'_, E> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn schedule_at(&mut self, at: SimTime, ev: Ev) {
        self.inner.schedule_at(at, RackEv::Node(self.node, ev));
    }
}

/// End-of-run fault-domain summary, present when a [`FaultSchedule`]
/// was armed — the chaos gates read recovery state from here (a rack's
/// calendar never drains, so drained-audit hooks cannot carry them).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultDomainStats {
    /// Whether every health state machine ended the run Healthy.
    pub all_healthy: bool,
    /// Worst failure→detection latency observed (ns).
    pub detection_max_ns: u64,
    /// Worst failure→recovered time observed (ns) — the MTTR bound.
    pub mttr_max_ns: u64,
    /// Recoveries the MTTR histogram recorded.
    pub mttr_count: u64,
    /// Scheduled faults injected.
    pub injected: u64,
    /// Scheduled faults resolved as recovered.
    pub recovered: u64,
    /// Scheduled faults still open at end-of-run.
    pub open: u64,
    /// Injections with no accounting entry (zero when the ledger holds).
    pub unaccounted: u64,
    /// Flows killed by node crashes.
    pub flows_killed: u64,
    /// Flows re-established after node recoveries.
    pub flows_revived: u64,
}

/// Measurement results of a rack run.
#[derive(Debug)]
pub struct RackStats {
    /// Per-tenant round-trip latency (ns), measured from packet birth at
    /// the source VF to wire completion at the destination node.
    pub tenant_rtt: Vec<Histogram>,
    /// Per-tenant bytes received across all destination VFs.
    pub tenant_rx_bytes: Vec<u64>,
    /// Packets the rack generated (offered to VF shapers).
    pub offered: u64,
    /// Packets the fabric forwarded into nodes.
    pub forwarded: u64,
    /// Packets completed at a destination node's wire.
    pub delivered: u64,
    /// Packets dropped at fabric ports (credit exhaustion).
    pub fabric_drops: u64,
    /// Packets blackholed at flapped fabric ports.
    pub blackholed: u64,
    /// In-flight packets dropped-and-counted at a faulted destination
    /// (crashed node or unplugged VF) after the fabric forwarded them.
    pub boundary_drops: u64,
    /// Packets dropped by per-VF transmit shapers (all nodes).
    pub shaper_drops: u64,
    /// Churn arrivals over the run.
    pub arrivals: u64,
    /// Churn departures over the run.
    pub departures: u64,
    /// Total tx queues configured across all nodes.
    pub queues_configured: u64,
    /// Tx queues that transmitted at least one packet, across all nodes.
    pub queues_live: u64,
    /// Invariant-audit summary.
    pub audit: AuditReport,
    /// Rack-level metrics.
    pub metrics: MetricsRegistry,
    /// Sampled probe series (flight recorder).
    pub timeline: Timeline,
    /// The rack's own counter tree (`fabric/port/<d>/...`).
    pub counters: CounterSnapshot,
    /// Each node's counter tree (`vf/<n>/...`, `port/0/...`, ...).
    pub node_counters: Vec<CounterSnapshot>,
    /// Calendar events handled.
    pub events: u64,
    /// Per-tenant RTT (ns) of packets completed while any fault domain
    /// was down — the surviving-tenant degradation measurement. Empty
    /// histograms when no schedule was armed.
    pub outage_rtt: Vec<Histogram>,
    /// Active flows per source node at end-of-run (crashed nodes must
    /// have re-established theirs).
    pub flows_per_node: Vec<u64>,
    /// Fault-domain summary; `None` when no schedule was armed.
    pub fault_domains: Option<FaultDomainStats>,
}

impl RackStats {
    /// p99 RTT of `tenant` in nanoseconds (0 when it never completed a
    /// packet).
    pub fn tenant_p99_ns(&self, tenant: u16) -> u64 {
        self.tenant_rtt
            .get(tenant as usize)
            .map_or(0, |h| h.percentile(99.0))
    }
}

/// The armed scheduled-fault state of a rack: the script, the
/// rack-level accounting ledger, the per-entity health state machines,
/// and the down-window bookkeeping each fault point consults on the
/// data path.
///
/// Entity decoding (see [`fld_sim::fault::FaultEvent::entity`]):
/// `FabricLinkFlap` indexes a fabric egress port (`entity % nodes`),
/// `NodeCrash` a node (`entity % nodes`), and `VfUnplug` a VF slot
/// (`entity % (nodes * tenants)`, split `node * tenants + tenant`), so
/// any `u32` entity drawn by a seeded schedule maps onto the topology.
#[derive(Debug)]
struct ScheduledFaults {
    schedule: FaultSchedule,
    ledger: FaultLedger,
    health: HealthMonitor,
    node_health: Vec<HealthId>,
    port_health: Vec<HealthId>,
    vf_health: Vec<HealthId>,
    /// Down-horizon per entity; the entity is down while `now < until`.
    /// Overlapping faults max-merge, so recovery waits for the last.
    node_down_until: Vec<SimTime>,
    port_down_until: Vec<SimTime>,
    vf_down_until: Vec<SimTime>,
    /// `fabric/port/<d>/blackholed` handles (offer-time blackholes).
    port_blackholed: Vec<Counter>,
    /// `boundary/node/<n>/drops` handles (delivery-time losses).
    boundary_node: Vec<Counter>,
    /// Independent aggregate the `boundary/` subtree telescopes to.
    boundary_drops: u64,
    /// The whole `boundary/` subtree, for that audit.
    boundary_all: CounterSum,
    flows_killed: u64,
    flows_revived: u64,
    /// Whether a HealthTick is in the calendar (armed while any entity
    /// is unhealthy; dropped once all machines return Healthy).
    tick_armed: bool,
}

impl ScheduledFaults {
    fn node_down(&self, node: usize, now: SimTime) -> bool {
        now < self.node_down_until[node]
    }

    fn port_down(&self, port: usize, now: SimTime) -> bool {
        now < self.port_down_until[port]
    }

    /// Whether any fault domain is inside its down window at `now` —
    /// gates the outage-RTT measurement.
    fn any_down(&self, now: SimTime) -> bool {
        self.node_down_until
            .iter()
            .chain(&self.port_down_until)
            .chain(&self.vf_down_until)
            .any(|&until| now < until)
    }
}

/// The rack-scale multi-tenant model (see the module docs).
#[derive(Debug)]
pub struct Rack {
    cfg: RackConfig,
    rng: SimRng,
    nodes: Vec<FldSystem>,
    /// One output-queued egress port per destination node: a serializing
    /// link whose byte-bounded buffer tail-drops what it cannot hold.
    ports: Vec<Link>,
    /// `fabric.port.<d>`: each port's probe scope and audit component.
    port_names: Vec<Box<str>>,
    pop: Box<dyn FlowPopulation>,
    /// Each tenant's mean Poisson generation gap, computed at build;
    /// `None` for a tenant offering no load, which never generates.
    gen_mean: Vec<Option<SimDuration>>,
    // Rack-level counter tree and pre-resolved per-port handles.
    counters: CounterTree,
    port_ctrs: Vec<PortCounters>,
    fabric: FabricTotals,
    /// The audit's groups over the rack tree: the whole `fabric/`
    /// subtree and `fabric/*/<leaf>` per leaf of [`FABRIC_LEAVES`].
    fabric_all: CounterSum,
    fabric_per_leaf: [CounterSum; FABRIC_LEAVES.len()],
    // Measurement.
    tenant_rtt: Vec<Histogram>,
    outage_rtt: Vec<Histogram>,
    offered: u64,
    delivered: u64,
    measure_from: SimTime,
    next_pkt_id: u64,
    rec: Recorder,
    /// Scheduled entity-scoped faults; `None` keeps every data-path
    /// check a single branch.
    sf: Option<ScheduledFaults>,
}

impl Rack {
    /// Builds the rack: `cfg.nodes` inert server nodes, each with one VF
    /// (and its two steering rules) per tenant, behind per-node fabric
    /// egress ports.
    ///
    /// # Panics
    ///
    /// Panics on an empty topology, more than 250 tenants, or a victim
    /// or incast target outside the configured range.
    pub fn new(cfg: RackConfig, pop: Box<dyn FlowPopulation>) -> Rack {
        assert!(cfg.nodes > 0 && cfg.tenants > 0, "empty topology");
        assert!(cfg.tenants <= 250, "tenant id must fit the last IP octet");
        assert!(cfg.victim < cfg.tenants, "victim outside tenant range");
        if let TrafficPattern::Incast { target } = cfg.pattern {
            assert!(target < cfg.nodes, "incast target outside the rack");
        }
        let mut nodes = Vec::with_capacity(cfg.nodes as usize);
        for n in 0..cfg.nodes {
            nodes.push(Self::build_node(&cfg, n));
        }
        let ports = (0..cfg.nodes)
            .map(|_| Link::new(cfg.port_rate, cfg.port_latency).with_buffer(cfg.port_buffer))
            .collect();
        let counters = CounterTree::new();
        let port_ctrs = (0..cfg.nodes)
            .map(|d| {
                (
                    counters.counter(&format!("fabric/port/{d}/forwarded")),
                    counters.counter(&format!("fabric/port/{d}/bytes")),
                    counters.counter(&format!("fabric/port/{d}/drops")),
                )
            })
            .collect();
        Rack {
            rng: SimRng::seed_from(cfg.seed),
            nodes,
            ports,
            port_names: (0..cfg.nodes)
                .map(|d| format!("fabric.port.{d}").into())
                .collect(),
            pop,
            gen_mean: (0..cfg.tenants)
                .map(|t| {
                    let rate = if t == cfg.victim {
                        cfg.victim_rate
                    } else {
                        cfg.aggressor_rate
                    };
                    (rate > 0.0).then(|| SimDuration::from_secs_f64(1.0 / rate))
                })
                .collect(),
            fabric_all: CounterSum::under(&counters, "fabric"),
            fabric_per_leaf: FABRIC_LEAVES
                .map(|leaf| CounterSum::leaves(&counters, "fabric", leaf)),
            counters,
            port_ctrs,
            fabric: FabricTotals::default(),
            tenant_rtt: (0..cfg.tenants).map(|_| Histogram::new()).collect(),
            outage_rtt: (0..cfg.tenants).map(|_| Histogram::new()).collect(),
            offered: 0,
            delivered: 0,
            measure_from: SimTime::ZERO,
            next_pkt_id: 0,
            rec: Recorder::new(),
            sf: None,
            cfg,
        }
    }

    /// One inert server node: generator disabled, spraying echo
    /// accelerator, and per-tenant VFs whose rules tag and steer each
    /// tenant's traffic through the accelerator and back to the wire.
    fn build_node(cfg: &RackConfig, n: u16) -> FldSystem {
        let mut sys_cfg = SystemConfig::remote();
        sys_cfg.seed = cfg.seed ^ (n as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fld_cfg = FldConfig {
            tx_queues: cfg.tx_queues,
            ..FldConfig::default()
        };
        // total = 0: the node never generates its own traffic.
        let gen = ClientGen::fixed_udp_flows(GenMode::OpenLoop { rate: 1.0 }, 0, 64, 1);
        let accel = Box::new(RackEcho {
            tx_queues: cfg.tx_queues,
        });
        let mut node = FldSystem::new_with_fld(sys_cfg, fld_cfg, accel, HostMode::Consume, gen);
        for t in 0..cfg.tenants {
            let vf = node.nic.create_vf(VfConfig {
                context: t as u32 + 1,
                src_ip: Some(tenant_ip(t)),
                rule_quota: cfg.vf_rule_quota,
                tx_shaper: cfg.vf_shaper,
            });
            Self::install_tenant_rules(&mut node.nic, vf, t);
        }
        node
    }

    /// Installs tenant `t`'s two steering rules through its VF — at node
    /// build, and again when a hot-unplugged VF replugs (the unplug
    /// evicted them and reclaimed the quota booking).
    fn install_tenant_rules(nic: &mut Nic, vf: u16, t: u16) {
        let context = t as u32 + 1;
        let ip = tenant_ip(t);
        // Ingress: classify by the VF's bound source address, tag the
        // tenant context, hand to the accelerator, resume at table 1.
        nic.install_vf_rule(
            vf,
            Direction::Ingress,
            0,
            Rule {
                priority: 5,
                spec: MatchSpec {
                    src_ip: Some(ip),
                    ..MatchSpec::any()
                },
                actions: vec![
                    Action::TagContext { context },
                    Action::ToAccelerator {
                        queue: 0,
                        next_table: 1,
                    },
                ],
            },
        )
        .expect("vf ingress rule installs");
        // Resume table: validated tenant traffic returns to the wire.
        nic.install_vf_rule(
            vf,
            Direction::Ingress,
            1,
            Rule {
                priority: 5,
                spec: MatchSpec {
                    context_id: Some(context),
                    ..MatchSpec::any()
                },
                actions: vec![Action::ToWire { port: 0 }],
            },
        )
        .expect("vf resume rule installs");
    }

    /// Turns on the flight recorder (rack-level probe series).
    pub fn enable_flight_recorder(&mut self, interval: SimDuration) {
        self.rec.enable_flight_recorder(interval);
    }

    /// Escalates invariant violations to panics for this rack.
    pub fn enable_strict_audit(&mut self) {
        self.rec.enable_strict_audit();
    }

    /// Arms a deterministic, entity-scoped [`FaultSchedule`] against the
    /// rack's own fault points — fabric link flaps, node crashes, VF
    /// hot-unplugs — with a watchdog [`HealthMonitor`] per entity and a
    /// rack-level [`FaultLedger`] accounting every scheduled fault
    /// (wired into the rack counter tree as `faults/<entity>/<kind>` and
    /// `recovery/*`, plus `health/<entity>/...`). The run's
    /// [`RackStats::fault_domains`] and counter snapshot carry the book.
    pub fn enable_fault_schedule(&mut self, schedule: FaultSchedule, health_cfg: HealthConfig) {
        let nodes = self.cfg.nodes as usize;
        let tenants = self.cfg.tenants as usize;
        let ledger = FaultLedger::new(&self.counters);
        let mut health = HealthMonitor::new(health_cfg);
        let node_health = (0..nodes)
            .map(|n| health.register(format!("node{n}")))
            .collect();
        let port_health = (0..nodes)
            .map(|p| health.register(format!("port{p}")))
            .collect();
        let vf_health = (0..nodes * tenants)
            .map(|v| health.register(format!("vf{}.{}", v / tenants, v % tenants)))
            .collect();
        health.wire_counters(&self.counters);
        let port_blackholed = (0..nodes)
            .map(|d| {
                self.counters
                    .counter(&format!("fabric/port/{d}/blackholed"))
            })
            .collect();
        let boundary_node = (0..nodes)
            .map(|n| self.counters.counter(&format!("boundary/node/{n}/drops")))
            .collect();
        self.sf = Some(ScheduledFaults {
            schedule,
            ledger,
            health,
            node_health,
            port_health,
            vf_health,
            node_down_until: vec![SimTime::ZERO; nodes],
            port_down_until: vec![SimTime::ZERO; nodes],
            vf_down_until: vec![SimTime::ZERO; nodes * tenants],
            port_blackholed,
            boundary_node,
            boundary_drops: 0,
            boundary_all: CounterSum::under(&self.counters, "boundary"),
            flows_killed: 0,
            flows_revived: 0,
            tick_armed: false,
        });
    }

    /// The rack's fabric counter tree.
    pub fn counter_tree(&self) -> &CounterTree {
        &self.counters
    }

    /// The embedded nodes.
    pub fn nodes(&self) -> &[FldSystem] {
        &self.nodes
    }

    /// Runs the rack to `deadline`, measuring RTTs from `warmup` onward.
    pub fn run(mut self, warmup: SimTime, deadline: SimTime) -> RackStats {
        self.measure_from = warmup;
        let engine = self.rec.take_engine();
        let done = engine.run(&mut self, deadline);
        let node_counters: Vec<CounterSnapshot> = self
            .nodes
            .iter()
            .map(|n| n.counter_tree().snapshot())
            .collect();
        let mut queues_live = 0u64;
        for snap in &node_counters {
            for q in 0..self.cfg.tx_queues {
                if snap
                    .get(&format!("port/0/queue/tx/{q}/packets"))
                    .is_some_and(|v| v > 0)
                {
                    queues_live += 1;
                }
            }
        }
        let tenant_rx_bytes = (0..self.cfg.tenants)
            .map(|t| {
                let path = format!("vf/{t}/rx_bytes");
                node_counters
                    .iter()
                    .map(|snap| snap.get(&path).unwrap_or(0))
                    .sum()
            })
            .collect();
        let shaper_drops = self
            .nodes
            .iter()
            .map(|n| n.nic.sriov().pf_totals().shaper_drops)
            .sum();
        let flows_per_node = (0..self.cfg.nodes)
            .map(|n| self.pop.active_on(n) as u64)
            .collect();
        let fault_domains = self.sf.as_mut().map(|sf| FaultDomainStats {
            all_healthy: sf.health.all_healthy(),
            detection_max_ns: sf.health.detection_ns().max(),
            mttr_max_ns: sf.health.mttr_ns().max(),
            mttr_count: sf.health.mttr_ns().count(),
            injected: sf.ledger.injected(),
            recovered: sf.ledger.recovered(),
            open: sf.ledger.open(),
            unaccounted: sf.ledger.unaccounted(),
            flows_killed: sf.flows_killed,
            flows_revived: sf.flows_revived,
        });
        RackStats {
            tenant_rtt: std::mem::take(&mut self.tenant_rtt),
            outage_rtt: std::mem::take(&mut self.outage_rtt),
            flows_per_node,
            fault_domains,
            tenant_rx_bytes,
            offered: self.offered,
            forwarded: self.fabric.forwarded,
            delivered: self.delivered,
            fabric_drops: self.fabric.drops,
            blackholed: self.fabric.blackholed,
            boundary_drops: self.sf.as_ref().map_or(0, |sf| sf.boundary_drops),
            shaper_drops,
            arrivals: self.pop.arrivals(),
            departures: self.pop.departures(),
            queues_configured: self.cfg.nodes as u64 * self.cfg.tx_queues as u64,
            queues_live,
            audit: done.audit,
            metrics: done.metrics,
            timeline: done.timeline,
            counters: self.counters.snapshot(),
            node_counters,
            events: done.events,
        }
    }

    fn dst_of(&self, flow: &TenantFlow) -> u16 {
        match self.cfg.pattern {
            TrafficPattern::Incast { target } => target,
            TrafficPattern::Uniform => {
                let n = self.cfg.nodes;
                if n <= 1 {
                    0
                } else {
                    let step = 1 + (flow.id % (n as u64 - 1)) as u16;
                    (flow.src_node + step) % n
                }
            }
        }
    }

    /// One tenant generation tick: pick a flow, pass its packet through
    /// the source VF's shaper, then through the fabric port toward its
    /// destination node.
    fn on_tenant_gen(&mut self, tenant: u16, now: SimTime, eng: &mut Engine<RackEv>) {
        let mean = self.gen_mean[tenant as usize].expect("only a loaded tenant generates");
        let gap = self.rng.exp_duration(mean);
        eng.schedule_at(now + gap, RackEv::TenantGen(tenant));
        let Some(flow) = self.pop.pick(tenant, &mut self.rng) else {
            return;
        };
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        let dst = self.dst_of(&flow);
        let key = FlowKey::new(
            tenant_ip(tenant),
            Ipv4Addr::new(10, 0, 0, dst as u8 + 1),
            flow.src_port,
            7777,
            17,
        );
        let pkt = SimPacket::synthetic(id, SimPacket::udp_len(self.cfg.payload), key, now);
        self.offered += 1;
        // Source-side VF transmit shaper: non-conforming packets drop at
        // the sender (counted in the source node's vf/<t>/shaper_drops).
        let src = flow.src_node as usize;
        if !self.nodes[src]
            .nic
            .sriov_mut()
            .offer_tx(tenant, now, pkt.len as u64)
        {
            return;
        }
        // Fabric egress port toward the destination: credit-gated.
        let d = dst as usize;
        let wire = pkt.len as u64 + ETH_OVERHEAD;
        // A flapped egress port blackholes everything offered to it.
        if let Some(sf) = &self.sf {
            if sf.port_down(d, now) {
                sf.port_blackholed[d].inc();
                self.fabric.blackholed += 1;
                return;
            }
        }
        match self.ports[d].offer(now, wire) {
            Some(arrive) => {
                self.port_ctrs[d].0.inc();
                self.port_ctrs[d].1.add(wire);
                self.fabric.forwarded += 1;
                self.fabric.bytes += wire;
                let h = self.nodes[d].admit(pkt);
                eng.schedule_at(arrive, RackEv::Node(dst, Ev::ArriveAtNic(h)));
            }
            None => {
                self.port_ctrs[d].2.inc();
                self.fabric.drops += 1;
            }
        }
    }

    /// A scheduled fault fires: mark the entity's health failed, trip the
    /// actual fault point — crash the node's queues and kill its flows,
    /// start the port blackhole, or unplug the VF (evicting its rules and
    /// reclaiming quota + shaper) — and book it in the ledger on the
    /// entity's `faults/<entity>/<kind>` leaf, opening its recovery
    /// window.
    fn on_fault_start(&mut self, i: usize, now: SimTime, eng: &mut Engine<RackEv>) {
        let tenants = self.cfg.tenants as usize;
        let Some(sf) = self.sf.as_mut() else {
            return;
        };
        let ev = sf.schedule.events()[i];
        let until = ev.at + ev.duration;
        let label = match ev.kind {
            FaultKind::FabricLinkFlap => {
                let p = ev.entity as usize % sf.port_down_until.len();
                sf.port_down_until[p] = sf.port_down_until[p].max(until);
                sf.health.fail(sf.port_health[p], now);
                // The port's buffered packets are already in flight on
                // the wire model; each arrives during the flap window and
                // is dropped-and-counted at the boundary (see handle()).
                format!("port{p}")
            }
            FaultKind::NodeCrash => {
                let n = ev.entity as usize % sf.node_down_until.len();
                sf.node_down_until[n] = sf.node_down_until[n].max(until);
                sf.health.fail(sf.node_health[n], now);
                self.nodes[n].crash_all_queues(now, until);
                sf.flows_killed += self.pop.node_down(n as u16);
                format!("node{n}")
            }
            FaultKind::VfUnplug => {
                let v = ev.entity as usize % sf.vf_down_until.len();
                let (n, t) = (v / tenants, v % tenants);
                sf.vf_down_until[v] = sf.vf_down_until[v].max(until);
                sf.health.fail(sf.vf_health[v], now);
                self.nodes[n].nic.unplug_vf(t as u16);
                format!("vf{n}.{t}")
            }
            // Packet-level kinds in a schedule have no rack entity; they
            // are booked and recover at the window end without a fault
            // point.
            _ => "rack".to_string(),
        };
        let leaf = self
            .counters
            .counter(&format!("faults/{label}/{}", ev.kind.name()));
        sf.ledger.book(ev.kind, &leaf, Booking::Open(now));
        self.arm_health_tick(now, eng);
    }

    /// A scheduled fault's hold window ends: if no overlapping fault
    /// still pins the entity down, clear the fault point (re-establish
    /// the crashed node's flows, replug the VF and reinstall its rules)
    /// and let the watchdog walk the entity back to Healthy; resolve the
    /// ledger's open window either way.
    fn on_fault_end(&mut self, i: usize, now: SimTime, eng: &mut Engine<RackEv>) {
        let tenants = self.cfg.tenants as usize;
        let Some(sf) = self.sf.as_mut() else {
            return;
        };
        let ev = sf.schedule.events()[i];
        match ev.kind {
            FaultKind::FabricLinkFlap => {
                let p = ev.entity as usize % sf.port_down_until.len();
                if now >= sf.port_down_until[p] {
                    sf.health.begin_recovery(sf.port_health[p], now);
                }
            }
            FaultKind::NodeCrash => {
                let n = ev.entity as usize % sf.node_down_until.len();
                if now >= sf.node_down_until[n] {
                    sf.health.begin_recovery(sf.node_health[n], now);
                    sf.flows_revived += self.pop.node_up(n as u16, &mut self.rng);
                }
            }
            FaultKind::VfUnplug => {
                let v = ev.entity as usize % sf.vf_down_until.len();
                if now >= sf.vf_down_until[v] {
                    let (n, t) = (v / tenants, v % tenants);
                    sf.health.begin_recovery(sf.vf_health[v], now);
                    self.nodes[n].nic.replug_vf(t as u16);
                    Self::install_tenant_rules(&mut self.nodes[n].nic, t as u16, t as u16);
                }
            }
            _ => {}
        }
        sf.ledger
            .resolve_open(ev.kind, ev.at, now, FaultOutcome::Recovered);
        self.arm_health_tick(now, eng);
    }

    /// One watchdog heartbeat: escalate silent entities, heal recovering
    /// ones, and keep ticking while anything is unhealthy.
    fn on_health_tick(&mut self, now: SimTime, eng: &mut Engine<RackEv>) {
        let Some(sf) = self.sf.as_mut() else {
            return;
        };
        sf.tick_armed = false;
        sf.health.tick(now);
        self.arm_health_tick(now, eng);
    }

    /// Schedules the next HealthTick unless one is pending or every
    /// entity is Healthy — the watchdog only runs while there is an
    /// outage to watch, so fault-free runs pay nothing.
    fn arm_health_tick(&mut self, now: SimTime, eng: &mut Engine<RackEv>) {
        if let Some(sf) = self.sf.as_mut() {
            if !sf.tick_armed && !sf.health.all_healthy() {
                sf.tick_armed = true;
                eng.schedule_at(now + sf.health.heartbeat(), RackEv::HealthTick);
            }
        }
    }
}

/// The source address carrying tenant identity (matches each node's VF
/// binding).
fn tenant_ip(tenant: u16) -> Ipv4Addr {
    Ipv4Addr::new(10, 9, 0, tenant as u8 + 1)
}

impl Model for Rack {
    type Ev = RackEv;

    fn start(&mut self, eng: &mut Engine<RackEv>) {
        for n in 0..self.nodes.len() {
            let mut sched = NodeSched {
                inner: eng,
                node: n as u16,
            };
            self.nodes[n].start_node(&mut sched);
        }
        for t in 0..self.cfg.tenants {
            if self.gen_mean[t as usize].is_some() {
                eng.schedule_at(SimTime::ZERO, RackEv::TenantGen(t));
            }
        }
        if let Some(gap) = self.pop.next_arrival_gap(&mut self.rng) {
            eng.schedule_at(SimTime::ZERO + gap, RackEv::Churn);
        }
        if let Some(sf) = &self.sf {
            for (i, ev) in sf.schedule.events().iter().enumerate() {
                eng.schedule_at(ev.at, RackEv::FaultStart(i as u32));
                eng.schedule_at(ev.at + ev.duration, RackEv::FaultEnd(i as u32));
            }
        }
    }

    fn handle(&mut self, now: SimTime, ev: RackEv, eng: &mut Engine<RackEv>) {
        match ev {
            RackEv::Node(n, ev) => {
                let node = &mut self.nodes[n as usize];
                match ev {
                    // Fabric delivery into the node: the destination VF
                    // receives the tenant's packet. A faulted destination
                    // — crashed node, flapped ingress port, unplugged VF
                    // — loses the in-flight packet here, dropped and
                    // counted at the rack boundary instead of delivered
                    // (and taken back out of the node's pool).
                    Ev::ArriveAtNic(h) => {
                        let pkt = node.packet(h);
                        let t = pkt.meta.flow.src.octets()[3];
                        let len = pkt.len as u64;
                        if let Some(sf) = self.sf.as_mut() {
                            if sf.node_down(n as usize, now) || sf.port_down(n as usize, now) {
                                sf.boundary_node[n as usize].inc();
                                sf.boundary_drops += 1;
                                node.discard(h);
                                return;
                            }
                        }
                        if t > 0 && !node.nic.sriov_mut().account_rx(t as u16 - 1, len) {
                            // Unplugged VF: the node tree counted the
                            // drop (vf/<t>/unplug_drops); book the rack
                            // boundary side too and stop delivery.
                            if let Some(sf) = self.sf.as_mut() {
                                sf.boundary_node[n as usize].inc();
                                sf.boundary_drops += 1;
                            }
                            node.discard(h);
                            return;
                        }
                    }
                    // Wire completion at the destination: the rack's
                    // per-tenant RTT measurement point.
                    Ev::ClientArrive(h) => {
                        let pkt = node.packet(h);
                        self.delivered += 1;
                        let ctx = pkt.meta.context_id;
                        if ctx > 0 && now >= self.measure_from {
                            let rtt = now.since(pkt.born).as_nanos();
                            if let Some(h) = self.tenant_rtt.get_mut(ctx as usize - 1) {
                                h.record(rtt);
                            }
                            // Degradation measurement: completions while
                            // any fault domain is down.
                            if self.sf.as_ref().is_some_and(|sf| sf.any_down(now)) {
                                if let Some(h) = self.outage_rtt.get_mut(ctx as usize - 1) {
                                    h.record(rtt);
                                }
                            }
                        }
                    }
                    _ => {}
                }
                let mut sched = NodeSched {
                    inner: eng,
                    node: n,
                };
                node.dispatch(now, ev, &mut sched);
            }
            RackEv::TenantGen(t) => self.on_tenant_gen(t, now, eng),
            RackEv::Churn => {
                if let Some((flow, life)) = self.pop.arrive(&mut self.rng) {
                    eng.schedule_at(now + life, RackEv::Depart(flow.id));
                }
                if let Some(gap) = self.pop.next_arrival_gap(&mut self.rng) {
                    eng.schedule_at(now + gap, RackEv::Churn);
                }
            }
            RackEv::Depart(id) => {
                self.pop.depart(id);
            }
            RackEv::FaultStart(i) => self.on_fault_start(i as usize, now, eng),
            RackEv::FaultEnd(i) => self.on_fault_end(i as usize, now, eng),
            RackEv::HealthTick => self.on_health_tick(now, eng),
        }
    }

    fn event_label(ev: &RackEv) -> &'static str {
        match ev {
            RackEv::Node(_, ev) => <FldSystem as Model>::event_label(ev),
            RackEv::TenantGen(_) => "TenantGen",
            RackEv::Churn => "Churn",
            RackEv::Depart(_) => "Depart",
            RackEv::FaultStart(_) => "FaultStart",
            RackEv::FaultEnd(_) => "FaultEnd",
            RackEv::HealthTick => "HealthTick",
        }
    }

    fn lanes() -> usize {
        <FldSystem as Model>::lanes() + 3
    }

    /// Node events share their kind's lane whichever node they belong to
    /// (the calendar looks at every lane head per pop, so lanes must not
    /// multiply with the node count; the nodes run the same pipeline on
    /// one clock, so a kind's stream stays nearly sorted across them).
    /// Departures and fault edges are scheduled arbitrarily far ahead in
    /// no order: the heap orders those.
    fn lane(ev: &RackEv) -> usize {
        let node_lanes = <FldSystem as Model>::lanes();
        match ev {
            RackEv::Node(_, ev) => <FldSystem as Model>::lane(ev),
            RackEv::TenantGen(_) => node_lanes,
            RackEv::Churn => node_lanes + 1,
            RackEv::HealthTick => node_lanes + 2,
            RackEv::Depart(_) | RackEv::FaultStart(_) | RackEv::FaultEnd(_) => usize::MAX,
        }
    }

    /// Rack-level probe series only: per-node series would collide in
    /// the shared timeline, and the fabric is what this model adds.
    fn probes(&mut self, now: SimTime, interval: SimDuration, out: &mut Probes) {
        for (port, name) in self.ports.iter_mut().zip(&self.port_names) {
            out.push_scoped(name, "util", port.window_util(interval));
            out.push_scoped(name, "credits", port.credits(now) as f64);
        }
        out.push("rack.flows.active", self.pop.active_count() as f64);
        out.push("rack.offered", self.offered as f64);
        out.push("rack.delivered", self.delivered as f64);
        let tokens: f64 = self
            .nodes
            .iter_mut()
            .map(|n| n.nic.sriov_mut().shaper_tokens(now))
            .sum();
        out.push("rack.vf.shaper_tokens", tokens);
        // Fault-domain tracks, only when a schedule is armed (unarmed
        // racks keep their timeline byte-identical to before).
        if let Some(sf) = &self.sf {
            let (healthy, suspect, down, recovering) = sf.health.counts();
            out.push("rack.health.healthy", healthy as f64);
            out.push("rack.health.suspect", suspect as f64);
            out.push("rack.health.down", down as f64);
            out.push("rack.health.recovering", recovering as f64);
            out.push("rack.boundary.drops", sf.boundary_drops as f64);
            out.push("rack.fabric.blackholed", self.fabric.blackholed as f64);
        }
    }

    fn audit(&mut self, at: SimTime, auditor: &mut Auditor) {
        // Every node's full single-system audit, including its SR-IOV
        // per-VF -> PF counter telescoping.
        for node in &mut self.nodes {
            Model::audit(node, at, auditor);
        }
        // Fabric counter telescoping against the independent aggregates.
        auditor.check_counter_sum(
            at,
            "rack.fabric",
            &mut self.fabric_all,
            self.fabric.grand_total(),
        );
        for ((leaf, group), agg) in FABRIC_LEAVES
            .iter()
            .zip(&mut self.fabric_per_leaf)
            .zip(self.fabric.by_leaf())
        {
            let sum = group.get();
            auditor.check(at, "rack.fabric", "counter-telescope", sum == agg, || {
                format!("fabric/*/{leaf} sums to {sum} but the aggregate is {agg}")
            });
        }
        // Port credit accounting never exceeds the configured buffer.
        for (port, name) in self.ports.iter().zip(&self.port_names) {
            auditor.check_credits(at, name, port.credits(at), port.buffer());
        }
        // Cross-layer conservation: nodes can only have received what the
        // fabric forwarded, less what died at faulted boundaries (the
        // rest is still on fabric wires).
        let boundary = self.sf.as_ref().map_or(0, |sf| sf.boundary_drops);
        let entered: u64 = self.nodes.iter().map(FldSystem::port_rx_packets).sum();
        auditor.check(
            at,
            "rack.flow",
            "conservation",
            entered + boundary <= self.fabric.forwarded,
            || {
                format!(
                    "nodes received {entered} packets (+{boundary} boundary drops) but the fabric forwarded only {}",
                    self.fabric.forwarded
                )
            },
        );
        // Shaper-conforming transmissions are exactly what the fabric was
        // offered (forwarded, buffer-dropped, or blackholed at a flapped
        // port).
        let vf_tx: u64 = self
            .nodes
            .iter()
            .map(|n| n.nic.sriov().pf_totals().tx_packets)
            .sum();
        let fabric_offered = self.fabric.forwarded + self.fabric.drops + self.fabric.blackholed;
        auditor.check(
            at,
            "rack.vf",
            "conservation",
            vf_tx == fabric_offered,
            || format!("VFs transmitted {vf_tx} packets, fabric was offered {fabric_offered}"),
        );
        // Scheduled-fault accounting: the ledger balances over the rack
        // tree, and the boundary subtree telescopes to its aggregate.
        if let Some(sf) = &mut self.sf {
            sf.ledger.audit(at, "rack.faults", auditor);
            auditor.check_counter_sum(at, "rack.boundary", &mut sf.boundary_all, sf.boundary_drops);
        }
    }

    fn drained_audit(&mut self, at: SimTime, auditor: &mut Auditor) {
        for node in &mut self.nodes {
            Model::drained_audit(node, at, auditor);
        }
        if let Some(sf) = &self.sf {
            sf.ledger.drained_audit(at, "rack.faults", auditor);
            sf.health.drained_audit(at, "rack.health", auditor);
        }
        let entered: u64 = self.nodes.iter().map(FldSystem::port_rx_packets).sum();
        auditor.check(
            at,
            "rack.flow",
            "conservation",
            entered == self.fabric.forwarded,
            || {
                format!(
                    "drained rack: nodes received {entered} of {} forwarded packets",
                    self.fabric.forwarded
                )
            },
        );
    }

    /// A run ending mid-recovery would leave health machines one
    /// heartbeat short of Healthy when the final tick falls past the
    /// deadline; run it at the deadline so MTTR and end-state reflect
    /// every recovery the schedule completed.
    fn finish(&mut self, end: SimTime, _drained: bool) {
        if let Some(sf) = self.sf.as_mut() {
            sf.health.tick(end);
        }
    }

    fn export_metrics(&mut self, _end: SimTime, _timeline: &Timeline, m: &mut MetricsRegistry) {
        m.counter("rack.offered", self.offered);
        m.counter("rack.delivered", self.delivered);
        m.counter("rack.fabric.forwarded", self.fabric.forwarded);
        m.counter("rack.fabric.bytes", self.fabric.bytes);
        m.counter("rack.fabric.drops", self.fabric.drops);
        m.counter("rack.churn.arrivals", self.pop.arrivals());
        m.counter("rack.churn.departures", self.pop.departures());
        m.counter("rack.flows.active", self.pop.active_count() as u64);
        let mut pf = fld_nic::vf::PfTotals::default();
        for node in &self.nodes {
            let t = node.nic.sriov().pf_totals();
            pf.rx_packets += t.rx_packets;
            pf.rx_bytes += t.rx_bytes;
            pf.tx_packets += t.tx_packets;
            pf.tx_bytes += t.tx_bytes;
            pf.shaper_drops += t.shaper_drops;
            pf.unplug_drops += t.unplug_drops;
        }
        m.counter("rack.vf.rx_packets", pf.rx_packets);
        m.counter("rack.vf.rx_bytes", pf.rx_bytes);
        m.counter("rack.vf.tx_packets", pf.tx_packets);
        m.counter("rack.vf.tx_bytes", pf.tx_bytes);
        m.counter("rack.vf.shaper_drops", pf.shaper_drops);
        for t in 0..self.cfg.tenants as usize {
            m.histogram(format!("rack.tenant.{t}.rtt_ns"), &self.tenant_rtt[t]);
        }
        if let Some(sf) = &mut self.sf {
            m.counter("rack.vf.unplug_drops", pf.unplug_drops);
            m.counter("rack.fabric.blackholed", self.fabric.blackholed);
            m.counter("rack.boundary.drops", sf.boundary_drops);
            m.counter("rack.flows.killed", sf.flows_killed);
            m.counter("rack.flows.revived", sf.flows_revived);
            sf.health.export(m);
            sf.ledger.export(m);
            for t in 0..self.cfg.tenants as usize {
                m.histogram(
                    format!("rack.tenant.{t}.outage_rtt_ns"),
                    &self.outage_rtt[t],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_sim::fault::{FaultEvent, ScheduleSpec};

    fn small_cfg() -> RackConfig {
        RackConfig {
            nodes: 2,
            tenants: 3,
            tx_queues: 8,
            victim: 0,
            victim_rate: 200_000.0,
            aggressor_rate: 200_000.0,
            payload: 256,
            pattern: TrafficPattern::Uniform,
            vf_shaper: None,
            port_rate: Bandwidth::gbps(25.0),
            port_latency: SimDuration::from_micros(1),
            port_buffer: 64 * 1024,
            vf_rule_quota: 4,
            seed: 7,
        }
    }

    fn small_rack(cfg: RackConfig) -> Rack {
        let pop = StaticPopulation::new(cfg.tenants, cfg.nodes, 2);
        Rack::new(cfg, Box::new(pop))
    }

    /// The sweep runner moves whole racks across worker threads.
    #[test]
    fn rack_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Rack>();
    }

    #[test]
    fn packets_flow_end_to_end_and_audits_pass() {
        let mut rack = small_rack(small_cfg());
        rack.enable_strict_audit();
        let stats = rack.run(SimTime::ZERO, SimTime::from_millis(2));
        assert!(stats.offered > 100, "offered {}", stats.offered);
        assert!(stats.delivered > 100, "delivered {}", stats.delivered);
        assert!(stats.audit.passed(), "audit failed: {:?}", stats.audit);
        // Every tenant completed traffic and its RTT was measured.
        for t in 0..3 {
            assert!(stats.tenant_rtt[t].count() > 0, "tenant {t} silent");
            assert!(stats.tenant_rx_bytes[t] > 0, "tenant {t} no rx bytes");
        }
        assert_eq!(stats.queues_configured, 16);
        assert!(stats.queues_live > 8, "queues live {}", stats.queues_live);
    }

    #[test]
    fn incast_congests_exactly_one_port() {
        let cfg = RackConfig {
            pattern: TrafficPattern::Incast { target: 1 },
            aggressor_rate: 2_000_000.0,
            victim_rate: 2_000_000.0,
            port_rate: Bandwidth::gbps(5.0),
            ..small_cfg()
        };
        let stats = small_rack(cfg).run(SimTime::ZERO, SimTime::from_millis(2));
        let drops0 = stats.counters.get("fabric/port/0/drops").unwrap_or(0);
        let drops1 = stats.counters.get("fabric/port/1/drops").unwrap_or(0);
        assert_eq!(drops0, 0, "uncongested port dropped");
        assert!(drops1 > 0, "incast port never hit its buffer limit");
        assert_eq!(stats.fabric_drops, drops0 + drops1);
    }

    #[test]
    fn vf_shapers_cap_tenant_throughput() {
        let shaped_cfg = RackConfig {
            vf_shaper: Some((Bandwidth::gbps(0.2), 8 * 1024)),
            ..small_cfg()
        };
        let shaped = small_rack(shaped_cfg).run(SimTime::ZERO, SimTime::from_millis(2));
        let open = small_rack(small_cfg()).run(SimTime::ZERO, SimTime::from_millis(2));
        assert!(shaped.shaper_drops > 0, "shapers never engaged");
        assert!(
            shaped.forwarded < open.forwarded,
            "shaping did not reduce fabric load ({} vs {})",
            shaped.forwarded,
            open.forwarded
        );
        assert_eq!(open.shaper_drops, 0);
    }

    #[test]
    fn seeded_runs_replay_byte_identically() {
        let run = || {
            let stats = small_rack(small_cfg()).run(SimTime::ZERO, SimTime::from_millis(1));
            (
                stats.offered,
                stats.delivered,
                stats.forwarded,
                stats.tenant_rtt.iter().map(Histogram::count).sum::<u64>(),
                stats.counters.get("fabric/port/0/forwarded"),
            )
        };
        assert_eq!(run(), run());
    }

    fn scripted(events: &[(u64, FaultKind, u32, u64)]) -> FaultSchedule {
        let mut sched = FaultSchedule::new();
        for &(at_us, kind, entity, dur_us) in events {
            sched.push(FaultEvent {
                at: SimTime::from_micros(at_us),
                kind,
                entity,
                duration: SimDuration::from_micros(dur_us),
            });
        }
        sched
    }

    #[test]
    fn node_crash_drops_are_counted_and_node_recovers() {
        let mut rack = small_rack(small_cfg());
        rack.enable_strict_audit();
        rack.enable_fault_schedule(
            scripted(&[(400, FaultKind::NodeCrash, 1, 300)]),
            HealthConfig::default(),
        );
        let stats = rack.run(SimTime::ZERO, SimTime::from_millis(2));
        assert!(stats.audit.passed(), "audit failed: {:?}", stats.audit);
        let fd = stats.fault_domains.expect("schedule armed");
        assert_eq!(fd.injected, 1);
        assert_eq!(fd.recovered, 1);
        assert_eq!(fd.open, 0);
        assert_eq!(fd.unaccounted, 0);
        assert!(fd.all_healthy, "node 1 did not return to Healthy");
        assert!(fd.mttr_count >= 1, "no recovery measured");
        assert!(fd.mttr_max_ns >= 300_000, "MTTR below outage length");
        // In-flight packets at the dead node were dropped *and counted*.
        assert!(stats.boundary_drops > 0, "crash never cost a packet");
        assert_eq!(
            stats.counters.get("boundary/node/1/drops").unwrap_or(0),
            stats.boundary_drops,
        );
        // The dead node's flows were re-established.
        assert!(fd.flows_killed > 0);
        assert_eq!(fd.flows_revived, fd.flows_killed);
        assert!(stats.flows_per_node[1] > 0, "node 1 ended flowless");
    }

    #[test]
    fn link_flap_blackholes_offered_traffic() {
        let mut rack = small_rack(small_cfg());
        rack.enable_strict_audit();
        rack.enable_fault_schedule(
            scripted(&[(300, FaultKind::FabricLinkFlap, 0, 200)]),
            HealthConfig::default(),
        );
        let stats = rack.run(SimTime::ZERO, SimTime::from_millis(2));
        assert!(stats.audit.passed(), "audit failed: {:?}", stats.audit);
        assert!(stats.blackholed > 0, "flapped port never blackholed");
        assert_eq!(
            stats.counters.get("fabric/port/0/blackholed").unwrap_or(0),
            stats.blackholed,
        );
        let fd = stats.fault_domains.unwrap();
        assert!(fd.all_healthy);
        assert_eq!(fd.recovered, 1);
        // Blackholed packets never entered the fabric, so delivery
        // conservation still telescopes (checked by the strict audit).
        assert!(stats.delivered > 0);
    }

    #[test]
    fn vf_unplug_reclaims_and_replug_restores_service() {
        let mut rack = small_rack(small_cfg());
        rack.enable_strict_audit();
        // VF slot 4 = node 1, tenant 1 (slot = node * tenants + tenant).
        rack.enable_fault_schedule(
            scripted(&[(400, FaultKind::VfUnplug, 4, 300)]),
            HealthConfig::default(),
        );
        let stats = rack.run(SimTime::ZERO, SimTime::from_millis(2));
        assert!(stats.audit.passed(), "audit failed: {:?}", stats.audit);
        let fd = stats.fault_domains.unwrap();
        assert!(fd.all_healthy, "VF did not return to Healthy");
        assert_eq!(fd.recovered, 1);
        // Traffic aimed at the unplugged VF was dropped-and-counted.
        let unplug_drops = stats.node_counters[1].get("vf/1/unplug_drops").unwrap_or(0)
            + stats.counters.get("boundary/node/1/drops").unwrap_or(0);
        assert!(unplug_drops > 0, "unplug never cost a packet");
        // After replug the tenant kept receiving on node 1.
        assert!(stats.tenant_rx_bytes[1] > 0);
    }

    #[test]
    fn fault_schedule_replays_byte_identically() {
        let run = || {
            let mut rack = small_rack(small_cfg());
            rack.enable_strict_audit();
            let schedule = FaultSchedule::seeded(
                0xC0FFEE,
                SimTime::from_micros(200),
                SimTime::from_micros(1200),
                &[
                    ScheduleSpec {
                        kind: FaultKind::FabricLinkFlap,
                        count: 2,
                        entities: 2,
                        min_duration: SimDuration::from_micros(50),
                        max_duration: SimDuration::from_micros(150),
                    },
                    ScheduleSpec {
                        kind: FaultKind::NodeCrash,
                        count: 1,
                        entities: 2,
                        min_duration: SimDuration::from_micros(100),
                        max_duration: SimDuration::from_micros(200),
                    },
                    ScheduleSpec {
                        kind: FaultKind::VfUnplug,
                        count: 1,
                        entities: 6,
                        min_duration: SimDuration::from_micros(80),
                        max_duration: SimDuration::from_micros(160),
                    },
                ],
            );
            rack.enable_fault_schedule(schedule, HealthConfig::default());
            let stats = rack.run(SimTime::ZERO, SimTime::from_millis(2));
            assert!(stats.audit.passed(), "audit failed: {:?}", stats.audit);
            let fd = stats.fault_domains.unwrap();
            (
                stats.offered,
                stats.delivered,
                stats.blackholed,
                stats.boundary_drops,
                fd.injected,
                fd.recovered,
                fd.mttr_max_ns,
                stats.counters.entries().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unarmed_rack_reports_no_fault_domains() {
        let stats = small_rack(small_cfg()).run(SimTime::ZERO, SimTime::from_millis(1));
        assert!(stats.fault_domains.is_none());
        assert_eq!(stats.blackholed, 0);
        assert_eq!(stats.boundary_drops, 0);
    }

    #[test]
    fn static_population_is_tenant_scoped() {
        let pop = StaticPopulation::new(3, 2, 4);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(pop.active_count(), 12);
        for t in 0..3 {
            let f = FlowPopulation::pick(&pop, t, &mut rng).unwrap();
            assert_eq!(f.tenant, t);
            assert!(f.src_node < 2);
        }
        assert!(FlowPopulation::pick(&pop, 9, &mut rng).is_none());
    }
}
