//! The six workloads, built from the simulator's public functions only.
//!
//! Each workload is one set of simulated inputs: a system, its rules, a
//! load generator and a simulated duration. [`Workload::build`] does the
//! set-up; [`Built::run`] is the timed part; [`Outcome`] is what the
//! harness reads back from the public run statistics.

use fld_accel::defrag_accel::DefragAccelerator;
use fld_accel::echo::EchoAccelerator;
use fld_bench::experiments::{chaos, echo, rack};
use fld_bench::Scale;
use fld_core::params::AccelParams;
use fld_core::rack::{Rack, RackStats};
use fld_core::rdma_system::{MsgEcho, RdmaConfig, RdmaRunStats, RdmaSystem};
use fld_core::system::{ClientGen, FldSystem, GenMode, HostMode, RunStats, SystemConfig};
use fld_net::ipv4::Reassembler;
use fld_nic::eswitch::{Action, MatchSpec, Rule};
use fld_nic::nic::{Direction, Nic};
use fld_pcie::model::FldModel;
use fld_sim::audit::AuditReport;
use fld_sim::counters::CounterSnapshot;
use fld_sim::health::HealthConfig;
use fld_sim::stats::Histogram;
use fld_sim::time::{SimDuration, SimTime};
use fld_workloads::gen::{defrag_bursts, DefragMode};

/// Flight-recorder period wherever a workload or a differential arms it.
pub const RECORDER_INTERVAL: SimDuration = SimDuration::from_micros(10);

/// Lifecycle-trace ring size for the telemetry differential.
const TRACE_CAPACITY: usize = 1 << 16;

/// § 8.2.2 (c): the paper's VXLAN + hardware-defrag goodput.
const PAPER_DEFRAG_VXLAN_GBPS: f64 = 16.8;

/// The defrag workload's shape, as in `experiments::defrag::run_defrag`.
const DEFRAG_FLOWS: u16 = 60;
const DEFRAG_CORES: usize = 16;
const DEFRAG_VNI: u32 = 42;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FLD-E echo, 64 B frames at 25 GbE line rate (overloaded).
    Echo64,
    /// FLD-E echo, 1500 B frames at line rate.
    Echo1500,
    /// FLD-R RDMA echo, 1 KiB messages, window 64.
    Rdma1k,
    /// VXLAN decap + hardware IP defragmentation + host RSS.
    DefragVxlan,
    /// 4 × 6 rack under flow churn, recorder off, no faults.
    RackChurn,
    /// The same rack under the fault schedule, recorder and strict audit.
    RackChaos,
}

/// Public observability switches a run can be built with; the per-layer
/// differentials flip exactly one of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Toggles {
    /// `FldSystem::enable_telemetry` (FLD-E workloads only).
    pub telemetry: bool,
    /// Overrides the workload's own flight-recorder setting.
    pub recorder: Option<bool>,
    /// `enable_strict_audit` (always on for `rack_chaos`).
    pub strict_audit: bool,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::Echo64,
        Workload::Echo1500,
        Workload::Rdma1k,
        Workload::DefragVxlan,
        Workload::RackChurn,
        Workload::RackChaos,
    ];

    /// The name used on the command line and in every record.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Echo64 => "echo_64",
            Workload::Echo1500 => "echo_1500",
            Workload::Rdma1k => "rdma_1k",
            Workload::DefragVxlan => "defrag_vxlan",
            Workload::RackChurn => "rack_churn",
            Workload::RackChaos => "rack_chaos",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the regime it puts the simulator in).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Echo64 => {
                "Smallest packet, offered far above capacity: per-packet cost \
                 dominates and the calendar runs deep (the backlog waits in the client link)."
            }
            Workload::Echo1500 => {
                "Same system, opposite regime: a shallower calendar and \
                 byte-proportional work; a calendar trick should show no change here."
            }
            Workload::Rdma1k => {
                "Bypasses the eSwitch and FLD-E rings: all work is RC QP \
                 segmentation/ACK and rdma_system.rs (RdmaConfig has no seeded input)."
            }
            Workload::DefragVxlan => {
                "The payload is inspected: real fragment, decap and reassembly \
                 bytes through fld-net, fld-accel and a multi-table eSwitch."
            }
            Workload::RackChurn => {
                "Many entities instead of many packets per entity: fabric ports, \
                 24 VFs, a churned flow population and a big counter tree."
            }
            Workload::RackChaos => {
                "Same rack used the other way: fault and recovery paths plus \
                 per-tick probes and audits; host time is sampling, not dispatch."
            }
        }
    }

    /// Simulated milliseconds of one rep at scale 1 (≈ 2–3 s of host
    /// time on the 2-core reference host).
    pub fn full_sim_ms(self) -> u64 {
        match self {
            Workload::Echo64 => 60,
            Workload::Echo1500 => 1200,
            Workload::Rdma1k => 1000,
            Workload::DefragVxlan => 300,
            Workload::RackChurn => 4000,
            Workload::RackChaos => 120,
        }
    }

    /// Whether the workload arms the flight recorder by itself.
    pub fn records_by_default(self) -> bool {
        self == Workload::RackChaos
    }

    /// Builds a fresh system for one rep: construction, rule install and
    /// generator. `sim` is the simulated duration of the rep.
    pub fn build(self, seed: u64, sim: SimDuration, toggles: Toggles) -> Built {
        let recorder = toggles.recorder.unwrap_or(self.records_by_default());
        let deadline = SimTime::ZERO + sim;
        // Rates and latencies are measured over the last nine tenths.
        let warmup = SimTime::from_picos(sim.as_picos() / 10);
        let system = match self {
            Workload::Echo64 => build_echo(64, seed, sim, toggles, recorder),
            Workload::Echo1500 => build_echo(1500, seed, sim, toggles, recorder),
            Workload::Rdma1k => {
                let cfg = RdmaConfig::remote(1024, 64, u64::MAX);
                let mut sys = RdmaSystem::new(cfg, Box::new(MsgEcho));
                if recorder {
                    sys.enable_flight_recorder(RECORDER_INTERVAL);
                }
                if toggles.strict_audit {
                    sys.enable_strict_audit();
                }
                System::Rdma(Box::new(sys), cfg)
            }
            Workload::DefragVxlan => build_defrag(seed, toggles, recorder),
            Workload::RackChurn | Workload::RackChaos => {
                let cfg = chaos::rack_cfg(seed);
                let mut rack = rack::build_rack(cfg, chaos::RACK_CHURN);
                let mut scheduled = None;
                if self == Workload::RackChaos {
                    let scale = Scale {
                        packets: 0,
                        warmup_ms: 0,
                        deadline_ms: (sim.as_nanos() / 1_000_000).max(1),
                    };
                    let schedule = chaos::rack_schedule(scale, seed, cfg.nodes, cfg.tenants);
                    scheduled = Some(schedule.len() as u64);
                    rack.enable_fault_schedule(schedule, HealthConfig::default());
                }
                if recorder {
                    rack.enable_flight_recorder(RECORDER_INTERVAL);
                }
                if toggles.strict_audit || self == Workload::RackChaos {
                    rack.enable_strict_audit();
                }
                System::Rack(Box::new(rack), scheduled)
            }
        };
        Built {
            system,
            warmup,
            deadline,
        }
    }
}

fn build_echo(frame: u32, seed: u64, sim: SimDuration, toggles: Toggles, recorder: bool) -> System {
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::remote()
    };
    let offered_pps = cfg.client_rate.as_bps() / (f64::from(frame) * 8.0);
    // Open loop: size the budget so the generator never runs dry.
    let budget = (offered_pps * sim.as_secs_f64() * 1.05) as u64 + 1;
    let gen = ClientGen::fixed_udp(
        GenMode::OpenLoop { rate: offered_pps },
        budget,
        frame.saturating_sub(42),
    );
    let mut sys = FldSystem::new(
        cfg,
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    echo::steer_to_accel(&mut sys.nic);
    apply_fld_toggles(&mut sys, toggles, recorder);
    System::Echo(Box::new(sys), cfg, frame)
}

fn apply_fld_toggles(sys: &mut FldSystem, toggles: Toggles, recorder: bool) {
    if toggles.telemetry {
        sys.enable_telemetry(TRACE_CAPACITY);
    }
    if recorder {
        sys.enable_flight_recorder(RECORDER_INTERVAL);
    }
    if toggles.strict_audit {
        sys.enable_strict_audit();
    }
}

/// Installs the § 8.2.2 (c) rule set: fragments to the accelerator,
/// reassembled packets and non-fragments to host RSS.
pub fn install_defrag_rules(nic: &mut Nic) {
    let rss = nic.create_rss(DEFRAG_CORES as u16);
    let to_rss = || vec![Action::ToHostRss { rss_id: rss }];
    let rules = [
        (
            0,
            Rule {
                priority: 10,
                spec: MatchSpec {
                    is_fragment: Some(true),
                    ..MatchSpec::any()
                },
                actions: vec![Action::ToAccelerator {
                    queue: 0,
                    next_table: 1,
                }],
            },
        ),
        (
            1,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: to_rss(),
            },
        ),
        (
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: to_rss(),
            },
        ),
    ];
    for (table, rule) in rules {
        nic.install_rule(Direction::Ingress, table, rule)
            .expect("ingress tables 0 and 1 exist");
    }
}

/// The defrag workload's burst builder (also the generator kernel's input).
pub fn defrag_generator() -> fld_core::system::BurstBuilder {
    defrag_bursts(
        DEFRAG_FLOWS,
        DefragMode::FragmentedVxlan {
            mtu: 1450,
            vni: DEFRAG_VNI,
        },
    )
}

// Composed exactly as `experiments::defrag::run_defrag(VxlanHardwareDefrag)`
// does; that function returns only the goodput, and the harness needs the
// whole `RunStats`.
fn build_defrag(seed: u64, toggles: Toggles, recorder: bool) -> System {
    let cfg = SystemConfig {
        host_cores: DEFRAG_CORES,
        seed,
        ..SystemConfig::remote()
    };
    let gen = ClientGen::new(
        GenMode::ClosedLoop {
            window: u32::from(DEFRAG_FLOWS) * 2,
        },
        u64::MAX,
        defrag_generator(),
    )
    .with_burst_cost(SimDuration::from_nanos(690));
    let host_mode = HostMode::DefragStack {
        core_gbps: AccelParams::default().sw_defrag_core_gbps,
        reassemblers: (0..DEFRAG_CORES).map(|_| Reassembler::new(1024)).collect(),
    };
    let mut sys = FldSystem::new(
        cfg,
        Box::new(DefragAccelerator::prototype()),
        host_mode,
        gen,
    );
    install_defrag_rules(&mut sys.nic);
    sys.enable_vxlan_decap(DEFRAG_VNI);
    apply_fld_toggles(&mut sys, toggles, recorder);
    System::Defrag(Box::new(sys))
}

enum System {
    Echo(Box<FldSystem>, SystemConfig, u32),
    Defrag(Box<FldSystem>),
    Rdma(Box<RdmaSystem>, RdmaConfig),
    Rack(Box<Rack>, Option<u64>),
}

/// A workload built and ready to run once.
pub struct Built {
    system: System,
    warmup: SimTime,
    deadline: SimTime,
}

/// The raw public statistics of one finished rep.
pub enum Stats {
    /// An FLD-E echo run, with the analytic model's goodput in Gbps.
    Echo(Box<RunStats>, f64),
    /// The defrag run.
    Defrag(Box<RunStats>),
    /// An FLD-R run, with the analytic model's goodput in Gbps.
    Rdma(Box<RdmaRunStats>, f64),
    /// A rack run, with the number of scheduled faults if any were armed.
    Rack(Box<RackStats>, Option<u64>, SimDuration),
}

impl Built {
    /// The number of leaves in the system's counter tree(s) before the run.
    pub fn counter_leaves(&self) -> u64 {
        match &self.system {
            System::Echo(sys, ..) | System::Defrag(sys) => sys.counter_tree().len() as u64,
            System::Rdma(sys, _) => sys.counter_tree().len() as u64,
            System::Rack(rack, _) => {
                let nodes: usize = rack.nodes().iter().map(|n| n.counter_tree().len()).sum();
                (rack.counter_tree().len() + nodes) as u64
            }
        }
    }

    /// Times `CounterTree::snapshot` over the system's tree(s), in ns.
    pub fn time_snapshot(&self) -> f64 {
        let t0 = std::time::Instant::now();
        match &self.system {
            System::Echo(sys, ..) | System::Defrag(sys) => {
                std::hint::black_box(sys.counter_tree().snapshot());
            }
            System::Rdma(sys, _) => {
                std::hint::black_box(sys.counter_tree().snapshot());
            }
            System::Rack(rack, _) => {
                std::hint::black_box(rack.counter_tree().snapshot());
                for n in rack.nodes() {
                    std::hint::black_box(n.counter_tree().snapshot());
                }
            }
        }
        t0.elapsed().as_nanos() as f64
    }

    /// The NIC whose rule set the classify kernel should exercise.
    pub fn into_nic(self) -> Option<Nic> {
        match self.system {
            System::Echo(sys, ..) | System::Defrag(sys) => Some(sys.nic),
            System::Rdma(..) | System::Rack(..) => None,
        }
    }

    /// Runs the simulation to its deadline. This is the timed call.
    pub fn run(self) -> Stats {
        let deadline = self.deadline;
        self.run_until(deadline)
    }

    /// Runs only the simulated warm-up window (the first tenth), which
    /// is where first-use set-up inside `run()` happens.
    pub fn run_warmup(self) -> Stats {
        let warmup = self.warmup;
        self.run_until(warmup)
    }

    fn run_until(self, deadline: SimTime) -> Stats {
        let warmup = self.warmup;
        match self.system {
            System::Echo(sys, cfg, frame) => {
                let model = FldModel::new(cfg.pcie).echo_throughput(frame, cfg.client_rate) / 1e9;
                Stats::Echo(Box::new(sys.run(warmup, deadline)), model)
            }
            System::Defrag(sys) => Stats::Defrag(Box::new(sys.run(warmup, deadline))),
            System::Rdma(sys, cfg) => {
                let model = FldModel::new(cfg.pcie).rdma_echo_goodput(
                    cfg.request_bytes,
                    0,
                    cfg.params.roce_mtu,
                    cfg.client_rate,
                ) / 1e9;
                Stats::Rdma(Box::new(sys.run(warmup, deadline)), model)
            }
            // RackStats counts tenant bytes from time zero, so the rack
            // measures its whole window.
            System::Rack(rack, scheduled) => Stats::Rack(
                Box::new(rack.run(SimTime::ZERO, deadline)),
                scheduled,
                deadline.since(SimTime::ZERO),
            ),
        }
    }
}

/// What the harness keeps of one rep: simulated packets, simulated
/// metrics, correctness evidence and the counter snapshots.
#[derive(Debug)]
pub struct Outcome {
    /// Packets, messages or bursts the generator offered.
    pub sim_pkts: u64,
    /// Calendar events the engine handled.
    pub events: u64,
    /// The workload's goodput in simulated Gbps.
    pub goodput_gbps: f64,
    /// Median and p99 of the latency histogram in simulated µs, with
    /// the sample count; `None` where the workload has no round trip.
    pub rtt_us: Option<(f64, f64, u64)>,
    /// Modelled drops as a percentage of `sim_pkts`.
    pub loss_pct: f64,
    /// The paper's figure or analytic model in Gbps; `None` = unvalidated.
    pub reference_gbps: Option<f64>,
    /// End-of-run (and per-tick) audit summary.
    pub audit: AuditReport,
    /// The workload's own pass/fail check.
    pub check: Result<(), String>,
    /// Flight-recorder ticks taken.
    pub ticks: u64,
    /// Every counter tree of the system, labelled.
    pub counters: Vec<(String, CounterSnapshot)>,
    /// Modelled drops by cause, for the per-layer shares.
    pub drops: Vec<(&'static str, u64)>,
    /// Worst time-to-recover in simulated µs (rack_chaos; 0 elsewhere).
    pub mttr_us: f64,
    /// RDMA retransmissions (rdma_1k; 0 elsewhere).
    pub rdma_retransmits: u64,
    /// Flow arrivals plus departures (the racks; 0 elsewhere).
    pub churn_events: u64,
}

impl Outcome {
    /// `|goodput − reference| ÷ reference` in percent.
    pub fn ref_err_pct(&self) -> Option<f64> {
        self.reference_gbps
            .map(|r| (self.goodput_gbps - r).abs() / r * 100.0)
    }

    /// FNV-1a over the counter dumps and the simulated metrics: equal
    /// digests mean the simulated behaviour was bit-identical.
    pub fn sim_digest(&self) -> u64 {
        let mut text = String::new();
        for (label, snap) in &self.counters {
            text.push_str(&snap.render_text(label));
        }
        text.push_str(&format!(
            "pkts={} events={} goodput={} rtt={:?} loss={}",
            self.sim_pkts, self.events, self.goodput_gbps, self.rtt_us, self.loss_pct
        ));
        text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Sum over every tree of the leaves whose path contains `part` and
    /// ends in `leaf`.
    pub fn counter_sum(&self, part: &str, leaf: &str) -> u64 {
        self.counters
            .iter()
            .flat_map(|(_, snap)| snap.entries())
            .filter(|(path, _)| path.contains(part) && path.ends_with(leaf))
            .map(|(_, v)| v)
            .sum()
    }
}

fn rtt_summary(h: &Histogram) -> Option<(f64, f64, u64)> {
    (h.count() > 0).then(|| {
        (
            h.percentile(50.0) as f64 / 1e3,
            h.percentile(99.0) as f64 / 1e3,
            h.count(),
        )
    })
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

impl Stats {
    /// Flight-recorder ticks the run took.
    pub fn ticks(&self) -> u64 {
        match self {
            Stats::Echo(s, _) | Stats::Defrag(s) => s.timeline.ticks(),
            Stats::Rdma(s, _) => s.timeline.ticks(),
            Stats::Rack(s, ..) => s.timeline.ticks(),
        }
    }

    /// Reduces the run statistics to an [`Outcome`].
    pub fn collect(self) -> Outcome {
        let ticks = self.ticks();
        match self {
            Stats::Echo(s, model) => {
                let goodput = s.client_rate.gbps();
                fld_outcome(*s, goodput, true, Some(model), ticks)
            }
            Stats::Defrag(s) => {
                let goodput = s.host_goodput.gbps();
                fld_outcome(*s, goodput, false, Some(PAPER_DEFRAG_VXLAN_GBPS), ticks)
            }
            Stats::Rdma(s, model) => {
                let issued = s.metrics.counter_value("client.sent").unwrap_or(0);
                Outcome {
                    sim_pkts: issued,
                    events: s.events,
                    goodput_gbps: s.goodput.gbps(),
                    rtt_us: rtt_summary(&s.latency),
                    loss_pct: pct(s.failed, issued),
                    reference_gbps: Some(model),
                    audit: s.audit,
                    check: if s.failed == 0 {
                        Ok(())
                    } else {
                        Err(format!("{} RDMA messages failed", s.failed))
                    },
                    ticks,
                    drops: vec![("rdma_failed", s.failed)],
                    counters: vec![("rdma".into(), s.counters)],
                    mttr_us: 0.0,
                    rdma_retransmits: s.retransmits,
                    churn_events: 0,
                }
            }
            Stats::Rack(s, scheduled, window) => rack_outcome(*s, scheduled, window, ticks),
        }
    }
}

fn fld_outcome(
    s: RunStats,
    goodput_gbps: f64,
    has_rtt: bool,
    reference_gbps: Option<f64>,
    ticks: u64,
) -> Outcome {
    let drops: Vec<(&'static str, u64)> = s.drops.iter().collect();
    let dropped: u64 = drops.iter().map(|(_, n)| n).sum();
    Outcome {
        sim_pkts: s.sent,
        events: s.events,
        goodput_gbps,
        rtt_us: if has_rtt { rtt_summary(&s.rtt) } else { None },
        loss_pct: pct(dropped, s.sent),
        reference_gbps,
        audit: s.audit,
        check: Ok(()),
        ticks,
        counters: vec![("fld".into(), s.counters)],
        drops,
        mttr_us: 0.0,
        rdma_retransmits: 0,
        churn_events: 0,
    }
}

fn rack_outcome(s: RackStats, scheduled: Option<u64>, window: SimDuration, ticks: u64) -> Outcome {
    let mut rtt = Histogram::new();
    for h in &s.tenant_rtt {
        rtt.merge(h);
    }
    let rx_bytes: u64 = s.tenant_rx_bytes.iter().sum();
    let drops = vec![
        ("fabric", s.fabric_drops),
        ("shaper", s.shaper_drops),
        ("blackholed", s.blackholed),
        ("boundary", s.boundary_drops),
    ];
    let dropped: u64 = drops.iter().map(|(_, n)| n).sum();
    // The `(all faults accounted, all healthy at end)` half of
    // `chaos::validate_rack`; its other half compares against a baseline
    // run this workload does not make.
    let check = match (scheduled, s.fault_domains) {
        (None, _) => Ok(()),
        (Some(_), None) => Err("no fault schedule was armed".to_string()),
        (Some(n), Some(fd)) => {
            if fd.injected != n {
                Err(format!("{n} faults scheduled but {} injected", fd.injected))
            } else if fd.open != 0 || fd.unaccounted != 0 {
                Err(format!(
                    "fault ledger unbalanced: {} open, {} unaccounted",
                    fd.open, fd.unaccounted
                ))
            } else if !fd.all_healthy {
                Err("a fault domain did not return to Healthy".to_string())
            } else if fd.mttr_count == 0 || fd.mttr_max_ns == 0 {
                Err("no recovery time was measured".to_string())
            } else if fd.mttr_max_ns > window.as_nanos() {
                Err(format!("MTTR {} ns exceeds the run", fd.mttr_max_ns))
            } else {
                Ok(())
            }
        }
    };
    let mut counters = vec![("rack".to_string(), s.counters)];
    for (n, snap) in s.node_counters.into_iter().enumerate() {
        counters.push((format!("node{n}"), snap));
    }
    Outcome {
        sim_pkts: s.offered,
        events: s.events,
        goodput_gbps: rx_bytes as f64 * 8.0 / window.as_secs_f64() / 1e9,
        rtt_us: rtt_summary(&rtt),
        loss_pct: pct(dropped, s.offered),
        reference_gbps: None,
        audit: s.audit,
        check,
        ticks,
        counters,
        drops,
        mttr_us: s
            .fault_domains
            .map_or(0.0, |fd| fd.mttr_max_ns as f64 / 1e3),
        rdma_retransmits: 0,
        churn_events: s.arrivals + s.departures,
    }
}
