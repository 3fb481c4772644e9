//! The end-to-end system simulation for Ethernet-path (FLD-E) experiments:
//! client ⇆ wire ⇆ NIC ⇆ peer-to-peer PCIe ⇆ FLD ⇆ accelerator, with host
//! CPU cores attached to the NIC (paper § 8 *Setup*).
//!
//! One parameterized topology covers the paper's local experiments (the
//! "client" is the host CPU behind a 50 Gbps PCIe link) and remote
//! experiments (a client node behind a 25 GbE wire), the CPU-driver
//! baseline (steer to host RSS instead of the accelerator), and the
//! defragmentation and IoT-authentication applications.
//!
//! PCIe bandwidth is charged per packet from the same analytic loads as the
//! paper's performance model ([`fld_pcie::model::FldModel`]), so queueing
//! and throughput ceilings emerge from serialization rather than being
//! asserted.

use fld_nic::eswitch::Verdict;
use fld_nic::nic::{Nic, NicConfig};
use fld_nic::packet::SimPacket;
use fld_nic::queues::QueueErrorMachine;
use fld_pcie::config::PcieConfig;
use fld_pcie::model::{FldModel, ETH_OVERHEAD};
use fld_pcie::TlpCounters;
use fld_sim::audit::{AuditReport, Auditor};
use fld_sim::counters::{Counter, CounterSnapshot, CounterSum, CounterTree};
use fld_sim::engine::{Engine, Model, Probes, Scheduler};
use fld_sim::fault::{Booking, FaultInjector, FaultKind, FaultOutcome, FaultPlan};
use fld_sim::link::Link;
use fld_sim::metrics::MetricsRegistry;
use fld_sim::probe::Timeline;
use fld_sim::rng::SimRng;
use fld_sim::stats::{Counters, Histogram, RateMeter};
use fld_sim::time::{Bandwidth, SimDuration, SimTime};
use fld_sim::trace::{StageLatencies, TraceEventKind, Tracer};

use crate::host::HostCpu;
use crate::hw::{FldConfig, FldDevice, TxSlot};
use crate::lifecycle::Recorder;
use crate::params::{SystemParams, PORT_BUFFER};
use crate::pool::{PacketHandle, PacketPool};

/// One packet an accelerator emits: `(ready time, fld tx queue, resume
/// table, packet)`.
pub type EmitEntry = (SimTime, u16, Option<u16>, SimPacket);

/// The packets one `process` call emits. Almost every accelerator emits
/// zero or one packet per input, so those cases live inline and the
/// per-packet hot path performs no heap allocation; multi-packet
/// emissions (a reassembled burst flushing, header-split fan-out) spill
/// to a `Vec`.
#[derive(Debug, Default)]
pub enum EmitList {
    /// Nothing to transmit (the accelerator absorbed the packet).
    #[default]
    None,
    /// The common case: exactly one packet, held inline.
    One(EmitEntry),
    /// Two or more packets (heap-backed; rare).
    Many(Vec<EmitEntry>),
}

impl EmitList {
    /// A single-entry list, allocation-free.
    pub fn one(entry: EmitEntry) -> Self {
        EmitList::One(entry)
    }

    /// Number of packets to transmit.
    pub fn len(&self) -> usize {
        match self {
            EmitList::None => 0,
            EmitList::One(_) => 1,
            EmitList::Many(v) => v.len(),
        }
    }

    /// Whether nothing is emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Index<usize> for EmitList {
    type Output = EmitEntry;

    fn index(&self, i: usize) -> &EmitEntry {
        match self {
            EmitList::One(e) if i == 0 => e,
            EmitList::Many(v) => &v[i],
            _ => panic!("emit index {i} out of bounds (len {})", self.len()),
        }
    }
}

/// Draining iterator over an [`EmitList`], front to back.
#[derive(Debug)]
pub struct EmitIter(EmitList);

impl Iterator for EmitIter {
    type Item = EmitEntry;

    fn next(&mut self) -> Option<EmitEntry> {
        match std::mem::take(&mut self.0) {
            EmitList::None => None,
            EmitList::One(e) => Some(e),
            EmitList::Many(mut v) => {
                // The list was reversed on iterator construction, so
                // pop() yields entries in original order.
                let e = v.pop();
                self.0 = EmitList::Many(v);
                e
            }
        }
    }
}

impl IntoIterator for EmitList {
    type Item = EmitEntry;
    type IntoIter = EmitIter;

    fn into_iter(self) -> EmitIter {
        EmitIter(match self {
            EmitList::Many(mut v) => {
                v.reverse();
                EmitList::Many(v)
            }
            other => other,
        })
    }
}

/// Output of one accelerator processing step.
#[derive(Debug)]
pub struct AccelOutput {
    /// When the packet's FLD rx buffer may be recycled.
    pub consumed_at: SimTime,
    /// Packets to transmit.
    pub emit: EmitList,
}

impl AccelOutput {
    /// Consume the packet at `at` without emitting anything.
    pub fn absorb(at: SimTime) -> Self {
        AccelOutput {
            consumed_at: at,
            emit: EmitList::None,
        }
    }

    /// Consume at `at` and transmit exactly one packet — the hot path,
    /// allocation-free.
    pub fn emit_one(at: SimTime, entry: EmitEntry) -> Self {
        AccelOutput {
            consumed_at: at,
            emit: EmitList::One(entry),
        }
    }
}

/// An accelerator function unit attached behind FLD (AXI-stream consumer,
/// § 5.5). Implementations manage their internal unit occupancy: `process`
/// is called at packet-delivery time and returns absolute completion times.
///
/// `Send` so whole systems can move across threads — the parallel sweep
/// runner in `fld-bench` runs one system per worker.
pub trait AcceleratorModel: std::fmt::Debug + Send {
    /// Handles one delivered packet.
    fn process(&mut self, pkt: SimPacket, next_table: Option<u16>, now: SimTime) -> AccelOutput;

    /// Short display name.
    fn name(&self) -> &'static str {
        "accelerator"
    }

    /// Registers model-specific telemetry under `prefix`. The default
    /// exports nothing.
    fn export_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        let _ = (prefix, registry);
    }

    /// Pending-work backlog at `now`, in nanoseconds of processing time —
    /// the `accel.queue_depth` flight-recorder probe. The default models
    /// an always-idle unit.
    fn queue_depth(&self, now: SimTime) -> f64 {
        let _ = now;
        0.0
    }
}

/// What host cores do with delivered packets.
#[derive(Debug)]
pub enum HostMode {
    /// testpmd-style echo: retransmit after the per-packet cost.
    Echo,
    /// Consume and count goodput (payload bytes).
    Consume,
    /// Software IP defragmentation + stack: cores process fragments at
    /// `core_gbps` and goodput counts reassembled datagrams (§ 8.2.2
    /// baseline).
    DefragStack {
        /// Per-core processing capacity in Gbps.
        core_gbps: f64,
        /// Kernel reassembler shared per core.
        reassemblers: Vec<fld_net::ipv4::Reassembler>,
    },
}

/// Generator pacing mode.
#[derive(Debug, Clone, Copy)]
pub enum GenMode {
    /// Emit bursts at a fixed offered rate (bursts/second),
    /// deterministically spaced.
    OpenLoop {
        /// Burst rate per second.
        rate: f64,
    },
    /// Emit bursts at an offered rate with exponentially distributed gaps
    /// (a Poisson arrival process — realistic open-loop load).
    Poisson {
        /// Mean burst rate per second.
        rate: f64,
    },
    /// Keep `window` bursts outstanding (latency measurements use 1).
    ClosedLoop {
        /// Outstanding bursts.
        window: u32,
    },
}

/// Builds the `i`-th traffic burst into `out` (`Send` so systems can
/// move across sweep-runner threads). Builders append rather than
/// return a `Vec`: the generator recycles one scratch buffer across
/// bursts, so a builder of synthetic packets allocates nothing per
/// burst, and one that attaches real frames allocates only those frames
/// and their packets' `Box`es.
pub type BurstBuilder = Box<dyn FnMut(u64, &mut SimRng, &mut Vec<SimPacket>) + Send>;

/// The client/load-generator node.
pub struct ClientGen {
    mode: GenMode,
    /// The open-loop spacing / Poisson mean gap, `1 / rate` (zero for a
    /// closed loop).
    gap: SimDuration,
    /// Total bursts to emit.
    pub total: u64,
    make: BurstBuilder,
    /// Sender-side CPU cost per burst (software fragmentation/tunneling,
    /// § 8.2.2 config (c): "the sender becomes the bottleneck").
    pub per_burst_cost: SimDuration,
    sent: u64,
    outstanding: u64,
    responses: u64,
    /// Reusable burst buffer: cleared and refilled by `make` each burst.
    scratch: Vec<SimPacket>,
}

impl std::fmt::Debug for ClientGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientGen")
            .field("mode", &self.mode)
            .field("total", &self.total)
            .field("sent", &self.sent)
            .finish()
    }
}

impl ClientGen {
    /// Creates a generator emitting `total` bursts built by `make`.
    pub fn new(mode: GenMode, total: u64, make: BurstBuilder) -> Self {
        let gap = match mode {
            GenMode::OpenLoop { rate } | GenMode::Poisson { rate } => {
                SimDuration::from_secs_f64(1.0 / rate)
            }
            GenMode::ClosedLoop { .. } => SimDuration::ZERO,
        };
        ClientGen {
            mode,
            gap,
            total,
            make,
            per_burst_cost: SimDuration::ZERO,
            sent: 0,
            outstanding: 0,
            responses: 0,
            scratch: Vec::new(),
        }
    }

    /// Sets the sender-side CPU cost per burst.
    pub fn with_burst_cost(mut self, cost: SimDuration) -> Self {
        self.per_burst_cost = cost;
        self
    }

    /// Convenience: fixed-size UDP bursts of one packet each, spread over
    /// 64 flows.
    pub fn fixed_udp(mode: GenMode, total: u64, payload: u32) -> Self {
        Self::fixed_udp_flows(mode, total, payload, 64)
    }

    /// Fixed-size UDP bursts over an explicit number of flows (1 for
    /// single-flow latency measurements).
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn fixed_udp_flows(mode: GenMode, total: u64, payload: u32, flows: u16) -> Self {
        assert!(flows > 0, "need at least one flow");
        use fld_net::{FlowKey, Ipv4Addr};
        ClientGen::new(
            mode,
            total,
            Box::new(move |i, _, out| {
                let flow = FlowKey::new(
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    1000 + (i % flows as u64) as u16,
                    7777,
                    17,
                );
                out.push(SimPacket::synthetic(
                    i,
                    SimPacket::udp_len(payload),
                    flow,
                    SimTime::ZERO,
                ));
            }),
        )
    }
}

/// Drop/loss accounting names.
pub mod drops {
    /// NIC classifier drop.
    pub const CLASSIFIER: &str = "classifier";
    /// Policer drop.
    pub const POLICER: &str = "policer";
    /// FLD rx buffer overflow.
    pub const FLD_RX_OVERFLOW: &str = "fld_rx_overflow";
    /// FLD tx backpressure (accelerator emitted into a full queue).
    pub const FLD_TX_BACKPRESSURE: &str = "fld_tx_backpressure";
    /// Host receive-ring overflow (core could not keep up).
    pub const HOST_QUEUE_OVERFLOW: &str = "host_queue_overflow";
    /// Injected link-layer loss ([`fld_sim::fault::FaultKind::LinkDrop`]).
    pub const FAULT_LINK_DROP: &str = "fault_link_drop";
    /// Injected corruption: the NIC's FCS check discards the frame.
    pub const FAULT_CORRUPT: &str = "fault_corrupt";
    /// Injected poisoned PCIe completion: FLD discards the TLP payload.
    pub const FAULT_PCIE_POISON: &str = "fault_pcie_poison";
    /// Injected malformed WQE: the NIC raises an error CQE and the queue
    /// enters its error state.
    pub const FAULT_MALFORMED_WQE: &str = "fault_malformed_wqe";
    /// Collateral loss while a tx queue is flushing in its error state.
    pub const FAULT_QUEUE_FLUSH: &str = "fault_queue_flush";
    /// Refused by the generator's full port (testpmd's `TX-dropped`).
    pub const CLIENT_TX_DROPPED: &str = "client_tx_dropped";
}

/// Stage names of the per-packet latency breakdown. The deltas telescope:
/// each stage starts where the previous one ended, so the sums over any
/// completed packet reconstruct its end-to-end latency exactly.
pub mod stage {
    /// Client serialization + wire flight up to the NIC port.
    pub const WIRE: &str = "wire";
    /// NIC ingress pipeline and eSwitch classification.
    pub const ESWITCH: &str = "eswitch";
    /// Peer-to-peer PCIe DMA into FLD's rx buffer.
    pub const PCIE_RX: &str = "pcie_rx";
    /// Accelerator queueing + processing until it emits a response.
    pub const ACCEL: &str = "accel";
    /// Tx descriptor + data fetch over PCIe into the NIC.
    pub const PCIE_TX: &str = "pcie_tx";
    /// NIC egress processing + wire flight back to the client.
    pub const TX_WIRE: &str = "tx_wire";
    /// DMA from the NIC into a host receive queue.
    pub const HOST_DMA: &str = "host_dma";
    /// Host core queueing + software processing.
    pub const HOST_CPU: &str = "host_cpu";
}

/// System configuration.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Latency and host-cost parameters.
    pub params: SystemParams,
    /// NIC–FLD PCIe fabric.
    pub pcie: PcieConfig,
    /// Client access link rate: the 25 GbE wire for remote experiments, or
    /// the host's 50 Gbps PCIe for local experiments.
    pub client_rate: Bandwidth,
    /// One-way client link latency.
    pub client_latency: SimDuration,
    /// Host CPU cores available to the receive stack.
    pub host_cores: usize,
    /// Whether host DMA shares the client link (true in local mode, where
    /// the "client" is the host itself: testpmd echo crosses the host PCIe
    /// twice more per packet — the contention FLD's peer-to-peer design
    /// avoids, § 4.2).
    pub host_on_client_link: bool,
    /// RNG seed.
    pub seed: u64,
}

impl SystemConfig {
    /// The remote setup of § 8: client node behind a 25 GbE wire.
    pub fn remote() -> Self {
        let params = SystemParams::default();
        SystemConfig {
            params,
            pcie: PcieConfig::innova2_gen3_x8(),
            client_rate: params.line_rate,
            client_latency: params.wire_latency,
            host_cores: 16,
            host_on_client_link: false,
            seed: 0xF1D0,
        }
    }

    /// The local setup of § 8: the host CPU is the load generator, behind
    /// the 50 Gbps PCIe interface.
    pub fn local() -> Self {
        let params = SystemParams::default();
        SystemConfig {
            params,
            pcie: PcieConfig::innova2_gen3_x8(),
            client_rate: Bandwidth::gbps(50.0),
            client_latency: params.pcie_latency,
            host_cores: 16,
            host_on_client_link: true,
            seed: 0xF1D0,
        }
    }
}

/// Calendar events of the packet-level system model.
///
/// Public only because it is [`FldSystem`]'s [`Model::Ev`]; callers never
/// construct these — [`Model::start`] and the handlers schedule them.
///
/// A packet-carrying event holds the packet's [`PacketHandle`], never
/// the packet: the packet stays in the system's [`PacketPool`] from
/// admission to its terminal site and handlers read and rewrite it there,
/// so an event is 20 bytes and a calendar lane entry 32 (DESIGN.md
/// § 3.15; the sizes are pinned by a test below).
#[derive(Debug)]
pub enum Ev {
    /// Generator tick.
    Gen,
    /// Packet reached the server NIC's port.
    ArriveAtNic(PacketHandle),
    /// NIC ingress pipeline done: classify and steer.
    NicIngress(PacketHandle),
    /// Packet landed in FLD's rx buffer (PCIe DMA complete).
    FldRx(PacketHandle, Option<u16>),
    /// Accelerator emits a packet on an FLD tx queue `(packet, queue,
    /// resume table, rx release)`. A non-zero last field is the length of
    /// the consumed input whose FLD rx buffer is released first, at this
    /// same instant — the [`Ev::FldRxRelease`] that would otherwise pop
    /// immediately before this event.
    AccelEmit(PacketHandle, u16, Option<u16>, u32),
    /// FLD rx buffer slot released, for an input whose release does not
    /// ride on an [`Ev::AccelEmit`].
    FldRxRelease(u32),
    /// Tx DMA into the NIC complete: continue NIC processing, then
    /// complete the transmit slot (the NIC's CQE recycles its descriptor
    /// and buffer credits once it owns the data).
    FldTx(PacketHandle, Option<u16>, TxSlot),
    /// Packet DMA'd into a host receive queue.
    HostRx(PacketHandle, u16),
    /// Host app finished with a packet; `true` = re-transmit (echo).
    HostDone(PacketHandle, bool),
    /// Response arrived back at the client.
    ClientArrive(PacketHandle),
    /// Application-level acknowledgement reached the client (closed-loop
    /// workloads where the host consumes data, e.g. iperf TCP).
    HostAck,
}

/// Measurement results of a run.
#[derive(Debug)]
pub struct RunStats {
    /// Client-observed response rate.
    pub client_rate: RateMeter,
    /// Host-observed goodput (Consume/Defrag modes), payload bytes.
    pub host_goodput: RateMeter,
    /// Round-trip latency (ns) for packets that returned to the client.
    pub rtt: Histogram,
    /// Per-tenant accepted bytes at the accelerator (IoT isolation).
    pub tenant_bytes: Vec<(u32, u64)>,
    /// Drop counters.
    pub drops: Counters,
    /// Packets the generator offered: admitted by its port, or refused
    /// by it and counted under [`drops::CLIENT_TX_DROPPED`].
    pub sent: u64,
    /// Per-stage latency breakdown (populated when telemetry is enabled
    /// via [`FldSystem::enable_telemetry`]).
    pub stages: StageLatencies,
    /// Snapshot of every component's metrics at the end of the run.
    pub metrics: MetricsRegistry,
    /// The packet-lifecycle trace (empty unless telemetry was enabled).
    pub trace: Tracer,
    /// Sampled probe series (empty unless the flight recorder was enabled
    /// via [`FldSystem::enable_flight_recorder`]).
    pub timeline: Timeline,
    /// Invariant-audit summary (always populated: the end-of-run audit
    /// runs on every simulation).
    pub audit: AuditReport,
    /// Total calendar events the run scheduled (simulator throughput
    /// accounting for wall-clock benchmarks).
    pub events: u64,
    /// The engine's self-profile (inert unless `fld_sim::prof::set_enabled`
    /// armed the running thread before the run).
    pub profile: fld_sim::prof::Profile,
    /// End-of-run snapshot of the hierarchical per-entity hardware
    /// counter tree (`port/<p>/...`, `flow/<id>/...`, `pcie/fn/<f>/...`,
    /// `accel/<n>/...`, plus `faults/*` and `recovery/*` when injection
    /// was armed).
    pub counters: CounterSnapshot,
}

impl RunStats {
    /// The pipeline stages bottleneck attribution distinguishes, as
    /// `(label, timeline series)` pairs in pipeline order.
    pub const BOTTLENECK_STAGES: &'static [(&'static str, &'static str)] = &[
        ("eswitch", "stage.eswitch.util"),
        ("pcie_rx", "stage.pcie_rx.util"),
        ("accel", "stage.accel.util"),
        ("pcie_tx", "stage.pcie_tx.util"),
        ("tx_wire", "stage.tx_wire.util"),
    ];

    /// Default per-window saturation threshold for attribution.
    pub const SATURATION_THRESHOLD: f64 = 0.9;

    /// Attributes each sampled window to its saturated stage (empty when
    /// the flight recorder was off).
    pub fn bottleneck(&self) -> fld_sim::probe::BottleneckReport {
        fld_sim::probe::BottleneckReport::from_timeline(
            &self.timeline,
            Self::BOTTLENECK_STAGES,
            Self::SATURATION_THRESHOLD,
        )
    }
}

/// The FLD-E system simulator.
///
/// Drives the shared [`fld_sim::engine::Engine`]: the struct holds only
/// model state (topology, components, generators, measurement); the
/// calendar loop, flight-recorder ticks and run lifecycle live in the
/// engine, entered through this type's [`Model`] implementation.
pub struct FldSystem {
    cfg: SystemConfig,
    rng: SimRng,
    // Links; `client_up` is the generator's port.
    client_up: Link,
    client_down: Link,
    pcie_to_fld: Link,
    pcie_from_fld: Link,
    // Per-packet PCIe loads.
    fld_loads: FldModel,
    // Components.
    /// The NIC (public for rule installation by experiments).
    pub nic: Nic,
    /// The FLD device (public for inspection).
    pub fld: FldDevice,
    accel: Box<dyn AcceleratorModel>,
    host: HostCpu,
    host_mode: HostMode,
    gen: ClientGen,
    gen_next_allowed: SimTime,
    /// Single-pacer guard: at most one Gen event is ever pending.
    gen_armed: bool,
    /// Every packet between admission and its terminal site; events name
    /// them by handle.
    pool: PacketPool,
    /// VXLAN decapsulation offload: when set, ingress packets carrying this
    /// VNI are decapsulated by the NIC before classification (§ 8.2.2 uses
    /// this "before IP defragmentation").
    vxlan_decap: Option<u32>,
    decapped: u64,
    // Telemetry.
    tracer: Tracer,
    /// Whether per-packet stage-latency tracking is on (costs one map
    /// entry per in-flight packet; off by default).
    track_stages: bool,
    stages: StageLatencies,
    // Flight recorder.
    rec: Recorder,
    /// Event-level packet accounting for the conservation audit.
    flow: FlowCounts,
    /// Per-tracked-packet progress: origin time, last stage boundary, and
    /// the stage deltas accumulated so far. Deltas are held here and only
    /// flushed into `stages` when the packet completes, so the histograms
    /// never contain partial chains and the stage sums reconstruct the
    /// end-to-end sum exactly.
    inflight: std::collections::HashMap<u64, InflightMarks>,
    // Measurement.
    stats: RunStats,
    measure_from: SimTime,
    /// Bytes admitted per tenant context, booked once per emitted
    /// packet; sorted into `stats.tenant_bytes` at the end of the run.
    tenant_bytes: std::collections::HashMap<u32, u64, std::hash::BuildHasherDefault<FlowHasher>>,
    // Fault injection (None unless [`FldSystem::enable_faults`] ran —
    // the zero-cost default leaves every hook a no-op).
    faults: Option<FaultInjector>,
    /// Per-tx-queue error state machines (error CQE → flush → re-init,
    /// the mlx5 recovery model).
    tx_queue_err: Vec<QueueErrorMachine>,
    /// Id allocator for injected duplicate copies; ids at or above
    /// [`DUP_ID_BASE`] are synthesized duplicates and excluded from
    /// client-rate/RTT measurement and generator pacing.
    next_dup_id: u64,
    /// The hierarchical per-entity hardware counter tree. Handles into it
    /// are resolved once (construction or first packet of a flow), so the
    /// hot path pays one relaxed load and store per touch — never a
    /// string hash.
    counters: CounterTree,
    /// Pre-resolved handles for the fixed entities.
    ctr: SysCounters,
    /// Per-flow rx handles, resolved on each flow's first packet and
    /// capped at [`FLOW_COUNTER_CAP`]; excess flows share `flow/other`.
    flow_ctrs: std::collections::HashMap<
        fld_net::FlowKey,
        FlowHandles,
        std::hash::BuildHasherDefault<FlowHasher>,
    >,
    /// Reused buffer for a new flow's counter paths: `flow/<segment>/` is
    /// written once and each leaf appended to it, so registering a flow
    /// allocates only the two cells and the paths they keep.
    flow_path: String,
    /// Packets accepted into host rx queues — the aggregate the per-queue
    /// rx counters telescope to.
    host_rx_accepted: u64,
    /// Packets delivered to the accelerator — the aggregate `accel/0/jobs`
    /// mirrors.
    accel_jobs: u64,
}

/// Most distinct flows given their own counter paths; beyond this, traffic
/// lands in the shared `flow/other` bucket (mirrors how hardware exposes a
/// bounded flow-counter pool).
const FLOW_COUNTER_CAP: usize = 256;

/// Pre-resolved counter handles for the system's fixed entities.
#[derive(Debug)]
struct SysCounters {
    port_rx_packets: Counter,
    port_rx_bytes: Counter,
    port_tx_packets: Counter,
    port_tx_bytes: Counter,
    /// Per FLD tx queue: (packets, bytes, drops).
    txq: Vec<(Counter, Counter, Counter)>,
    /// Per host rx queue: (packets, drops).
    rxq: Vec<(Counter, Counter)>,
    /// The NIC-FLD PCIe function.
    pcie: TlpCounters,
    accel_jobs: Counter,
    accel_stalls: Counter,
    /// `client/tx_dropped`, registered at the generator port's first
    /// refusal so that a run which refuses nothing dumps the same tree.
    client_tx_dropped: Option<Counter>,
    flow_other_packets: Counter,
    flow_other_bytes: Counter,
    /// The groups the per-tick audit telescopes, resolved once here:
    /// `flow/*/packets` (flows register mid-run; the group follows).
    flow_packets: CounterSum,
    /// `port/0/queue/tx/*/packets` and `.../drops`.
    txq_packets: CounterSum,
    txq_drops: CounterSum,
    /// Everything under `port/0/queue/rx`, and its `.../drops` leaves.
    rxq_all: CounterSum,
    rxq_drops: CounterSum,
}

impl SysCounters {
    fn resolve(tree: &CounterTree, tx_queues: usize, rx_queues: usize) -> Self {
        SysCounters {
            port_rx_packets: tree.counter("port/0/rx/packets"),
            port_rx_bytes: tree.counter("port/0/rx/bytes"),
            port_tx_packets: tree.counter("port/0/tx/packets"),
            port_tx_bytes: tree.counter("port/0/tx/bytes"),
            txq: (0..tx_queues)
                .map(|q| {
                    (
                        tree.counter(&format!("port/0/queue/tx/{q}/packets")),
                        tree.counter(&format!("port/0/queue/tx/{q}/bytes")),
                        tree.counter(&format!("port/0/queue/tx/{q}/drops")),
                    )
                })
                .collect(),
            rxq: (0..rx_queues)
                .map(|q| {
                    (
                        tree.counter(&format!("port/0/queue/rx/{q}/packets")),
                        tree.counter(&format!("port/0/queue/rx/{q}/drops")),
                    )
                })
                .collect(),
            pcie: TlpCounters::wired(tree, 0),
            accel_jobs: tree.counter("accel/0/jobs"),
            accel_stalls: tree.counter("accel/0/stalls"),
            client_tx_dropped: None,
            flow_other_packets: tree.counter("flow/other/packets"),
            flow_other_bytes: tree.counter("flow/other/bytes"),
            flow_packets: CounterSum::leaves(tree, "flow", "packets"),
            txq_packets: CounterSum::leaves(tree, "port/0/queue/tx", "packets"),
            txq_drops: CounterSum::leaves(tree, "port/0/queue/tx", "drops"),
            rxq_all: CounterSum::under(tree, "port/0/queue/rx"),
            rxq_drops: CounterSum::leaves(tree, "port/0/queue/rx", "drops"),
        }
    }
}

/// Per-flow rx counter handles.
#[derive(Debug)]
struct FlowHandles {
    packets: Counter,
    bytes: Counter,
}

/// The hasher of `flow_ctrs`, looked up once per received packet, and of
/// `tenant_bytes`, once per emitted one: a fixed-key rotate-multiply
/// fold, one step per word the key's `Hash` writes, where the default
/// SipHash spends more than the rest of `count_flow_rx`. Neither map's
/// order shows anywhere — `flow_ctrs` is only probed by key and
/// `tenant_bytes` is sorted before export — and their keys come from the
/// simulation's own generators, not from input an adversary shapes.
#[derive(Debug, Default)]
struct FlowHasher(u64);

impl std::hash::Hasher for FlowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

/// First packet id used for injected duplicates — far above the
/// generator's ids and the defrag accelerator's `1 << 48` base.
const DUP_ID_BASE: u64 = 1 << 50;

/// What the fault injector decided for one frame arriving on the wire.
enum LinkFate {
    /// No fault: deliver normally.
    Deliver,
    /// Frame lost (drop or corruption), charged to the named drop counter.
    Lost(&'static str),
    /// Frame duplicated: both copies enter the NIC.
    Duplicated,
    /// Frame reordered: delivery delayed past its successors.
    Delayed(SimDuration),
}

/// The longest reorder delay or accelerator stall a fault draws.
const MAX_FAULT_DELAY: SimDuration = SimDuration::from_micros(5);

/// How long a tx queue in its error state takes to re-init.
const REINIT: SimDuration = SimDuration::from_micros(5);

/// A fault that loses its packet on the spot: dropped and counted.
const DROPPED: Booking = Booking::Resolved(FaultOutcome::DroppedCounted, None);

/// A fault the pipeline absorbs, costing `latency`.
fn recovered(latency: SimDuration) -> Booking {
    Booking::Resolved(FaultOutcome::Recovered, Some(latency))
}

/// Event-level packet accounting, maintained at the pipeline's terminal
/// sites so the conservation law `entered + synthesized == delivered +
/// dropped + absorbed + in_flight` is checkable at any instant — and, one
/// step out, that the packet pool holds exactly the packets still on the
/// client wire plus those in flight.
#[derive(Debug, Default)]
struct FlowCounts {
    /// Packets parked in the pool on their way to the NIC port, by the
    /// generator or by a composing model ([`FldSystem::admit`]).
    admitted: u64,
    /// The generator's share of `admitted`: the frames its port accepted.
    gen_admitted: u64,
    /// Admitted packets a composing model took back before they arrived
    /// ([`FldSystem::discard`]: the rack's boundary drops).
    discarded: u64,
    /// Packets that arrived at the NIC port.
    entered: u64,
    /// Packets created by an accelerator (fresh ids on emit).
    synthesized: u64,
    /// Packets that reached a terminal consumer (client or host app).
    delivered: u64,
    /// Packets dropped anywhere in the pipeline.
    dropped: u64,
    /// Packets an accelerator consumed without re-emitting.
    absorbed: u64,
}

impl FlowCounts {
    fn packets_in(&self) -> u64 {
        self.entered + self.synthesized
    }

    fn packets_out(&self) -> u64 {
        self.delivered + self.dropped + self.absorbed
    }

    fn in_flight(&self) -> u64 {
        self.packets_in().saturating_sub(self.packets_out())
    }

    /// Pool conservation: every live handle is a packet on the client
    /// wire (admitted, neither arrived nor discarded) or one in flight —
    /// so a handle leaked or freed twice at any drop, absorb, duplicate or
    /// boundary site shows at the next audit. Signed, so that a ledger
    /// already out of balance cannot hide behind a saturated difference.
    fn audit_pool(&self, at: SimTime, live: usize, auditor: &mut Auditor) {
        let on_wire = self.admitted as i64 - self.discarded as i64 - self.entered as i64;
        let in_flight = self.packets_in() as i64 - self.packets_out() as i64;
        let ok = live as i64 == on_wire + in_flight;
        auditor.check(at, "system.pool", "conservation", ok, || {
            format!("pool holds {live} packets, the ledger {on_wire} on the wire + {in_flight} in flight")
        });
    }
}

/// Stage-latency bookkeeping for one in-flight packet.
#[derive(Debug)]
struct InflightMarks {
    /// When the packet was born at the client.
    t0: SimTime,
    /// The last stage boundary crossed.
    last: SimTime,
    /// `(stage, nanoseconds)` accumulated so far.
    deltas: Vec<(&'static str, u64)>,
}

impl std::fmt::Debug for FldSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FldSystem")
            .field("accel", &self.accel.name())
            .finish()
    }
}

impl FldSystem {
    /// Builds a system around `accel` with host cores in `host_mode`,
    /// using the § 6 prototype FLD configuration.
    pub fn new(
        cfg: SystemConfig,
        accel: Box<dyn AcceleratorModel>,
        host_mode: HostMode,
        gen: ClientGen,
    ) -> Self {
        Self::new_with_fld(cfg, FldConfig::default(), accel, host_mode, gen)
    }

    /// Like [`FldSystem::new`] but with an explicit FLD device
    /// configuration — the rack topology runs its nodes with hundreds of
    /// tx queues instead of the prototype's two.
    pub fn new_with_fld(
        cfg: SystemConfig,
        fld_cfg: FldConfig,
        accel: Box<dyn AcceleratorModel>,
        host_mode: HostMode,
        gen: ClientGen,
    ) -> Self {
        let mut rng = SimRng::seed_from(cfg.seed);
        let host_rng = rng.fork();
        let counters = CounterTree::new();
        let ctr = SysCounters::resolve(&counters, fld_cfg.tx_queues as usize, cfg.host_cores);
        let mut nic = Nic::new(NicConfig::default());
        nic.wire_counters(&counters, 0);
        FldSystem {
            cfg,
            rng,
            client_up: Link::new(cfg.client_rate, cfg.client_latency).with_buffer(PORT_BUFFER),
            client_down: Link::new(cfg.client_rate, cfg.client_latency),
            pcie_to_fld: Link::new(cfg.pcie.rate, cfg.pcie.latency),
            pcie_from_fld: Link::new(cfg.pcie.rate, cfg.pcie.latency),
            fld_loads: FldModel::new(cfg.pcie),
            nic,
            fld: FldDevice::new(fld_cfg),
            accel,
            host: HostCpu::new(cfg.host_cores, &cfg.params, host_rng),
            host_mode,
            gen,
            gen_next_allowed: SimTime::ZERO,
            gen_armed: false,
            pool: PacketPool::new(),
            vxlan_decap: None,
            decapped: 0,
            tracer: Tracer::disabled(),
            track_stages: false,
            stages: StageLatencies::new(),
            rec: Recorder::new(),
            flow: FlowCounts::default(),
            inflight: std::collections::HashMap::new(),
            stats: RunStats {
                client_rate: RateMeter::new(),
                host_goodput: RateMeter::new(),
                rtt: Histogram::new(),
                tenant_bytes: Vec::new(),
                drops: Counters::new(),
                sent: 0,
                stages: StageLatencies::new(),
                metrics: MetricsRegistry::new(),
                trace: Tracer::disabled(),
                timeline: Timeline::disabled(),
                audit: AuditReport::default(),
                events: 0,
                profile: fld_sim::prof::Profile::default(),
                counters: CounterSnapshot::new(),
            },
            measure_from: SimTime::ZERO,
            tenant_bytes: std::collections::HashMap::default(),
            faults: None,
            tx_queue_err: (0..fld_cfg.tx_queues)
                .map(|_| QueueErrorMachine::new(REINIT))
                .collect(),
            next_dup_id: DUP_ID_BASE,
            counters,
            ctr,
            flow_ctrs: Default::default(),
            flow_path: String::new(),
            host_rx_accepted: 0,
            accel_jobs: 0,
        }
    }

    /// The system's hierarchical hardware-counter tree (live handles; take
    /// a [`CounterTree::snapshot`] for a consistent read).
    pub fn counter_tree(&self) -> &CounterTree {
        &self.counters
    }

    /// Frames the generator's port refused (`client/tx_dropped`).
    fn client_tx_dropped(&self) -> u64 {
        self.ctr.client_tx_dropped.as_ref().map_or(0, Counter::get)
    }

    /// Packets that arrived on the wire port (`port/0/rx/packets`), read
    /// through the handle the data path increments — what a composing
    /// model (the rack) reconciles against its fabric.
    pub fn port_rx_packets(&self) -> u64 {
        self.ctr.port_rx_packets.get()
    }

    /// Counts one wire arrival against its flow's rx counters, resolving
    /// (and caching) the flow's handles on first sight.
    fn count_flow_rx(&mut self, flow: fld_net::FlowKey, len: u32) {
        let (packets, bytes) = match self.flow_ctrs.get(&flow) {
            Some(h) => (&h.packets, &h.bytes),
            None if self.flow_ctrs.len() < FLOW_COUNTER_CAP => {
                let path = &mut self.flow_path;
                path.clear();
                path.push_str("flow/");
                flow.write_counter_path(path)
                    .expect("a String takes any write");
                path.push('/');
                let dir = path.len();
                path.push_str("packets");
                let packets = self.counters.counter(path);
                path.truncate(dir);
                path.push_str("bytes");
                let h = FlowHandles {
                    packets,
                    bytes: self.counters.counter(path),
                };
                let h = self.flow_ctrs.entry(flow).or_insert(h);
                (&h.packets, &h.bytes)
            }
            None => (&self.ctr.flow_other_packets, &self.ctr.flow_other_bytes),
        };
        packets.inc();
        bytes.add(len as u64);
    }

    /// Parks a packet bound for this node's NIC port in its pool. The
    /// generator admits its own bursts; a composing model (the rack)
    /// admits each packet its fabric forwards here and schedules the
    /// [`Ev::ArriveAtNic`] carrying the handle.
    pub fn admit(&mut self, pkt: SimPacket) -> PacketHandle {
        self.flow.admitted += 1;
        self.pool.insert(pkt)
    }

    /// The pooled packet an event of this node names — how a composing
    /// model inspects the events it relays.
    pub fn packet(&self, h: PacketHandle) -> &SimPacket {
        &self.pool[h]
    }

    /// Takes back an admitted packet that will never arrive (the rack
    /// drops it at a faulted boundary instead of delivering the
    /// [`Ev::ArriveAtNic`]).
    pub fn discard(&mut self, h: PacketHandle) {
        self.flow.discarded += 1;
        self.pool.remove(h);
    }

    /// Arms deterministic fault injection against this system's components
    /// (stream name `"fld"`); the injector books every hit in its own
    /// ledger, kept in this system's counter tree.
    pub fn enable_faults(&mut self, plan: &FaultPlan) {
        self.faults = Some(plan.injector("fld", &self.counters));
    }

    /// Drives every tx queue through the mlx5-style flush→re-init error
    /// machine at once — the node-crash fault point. Until `reinit_at`
    /// each queue reports not-ready, so every in-flight transmission
    /// that reaches it is flushed as an accounted
    /// `FAULT_QUEUE_FLUSH` drop; at `reinit_at` the queues re-init
    /// (RST→RDY) and traffic resumes.
    pub fn crash_all_queues(&mut self, now: SimTime, reinit_at: SimTime) {
        for q in &mut self.tx_queue_err {
            q.force_error(now, reinit_at);
        }
    }

    /// Turns on packet-lifecycle tracing (ring buffer of
    /// `trace_capacity` events) and per-packet stage-latency tracking.
    ///
    /// Off by default: the per-event tracer cost is one branch, and stage
    /// tracking is skipped entirely, so untraced runs pay nothing.
    pub fn enable_telemetry(&mut self, trace_capacity: usize) {
        self.tracer = Tracer::with_capacity(trace_capacity);
        self.track_stages = true;
    }

    /// Turns on the flight recorder: every probe is sampled (and the
    /// per-tick invariant audit evaluated) each `interval` of simulated
    /// time. The sampled series land in [`RunStats::timeline`].
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_flight_recorder(&mut self, interval: SimDuration) {
        self.rec.enable_flight_recorder(interval);
    }

    /// Escalates invariant violations on this system to hard errors
    /// (panics). The only way to arm strict auditing: a system is
    /// lenient until this is called.
    pub fn enable_strict_audit(&mut self) {
        self.rec.enable_strict_audit();
    }

    /// Begins stage tracking for a packet entering the NIC.
    fn begin_packet(&mut self, id: u64, born: SimTime, now: SimTime) {
        self.tracer.record(now, id, TraceEventKind::PacketIngress);
        self.flow.entered += 1;
        if !self.track_stages {
            return;
        }
        // A duplicate id (bursts may reuse one) keeps the first chain.
        self.inflight.entry(id).or_insert(InflightMarks {
            t0: born,
            last: born,
            deltas: Vec::new(),
        });
        self.mark_stage(id, stage::WIRE, now);
    }

    /// Closes the current stage for `id` at `now`, attributing the elapsed
    /// time to `stage`.
    fn mark_stage(&mut self, id: u64, stage: &'static str, now: SimTime) {
        if !self.track_stages {
            return;
        }
        if let Some(f) = self.inflight.get_mut(&id) {
            // Deltas are differences of ns-floored instants (not floored
            // differences of ps instants) so that per-stage latencies
            // telescope exactly to the end-to-end latency.
            f.deltas
                .push((stage, now.as_nanos().saturating_sub(f.last.as_nanos())));
            f.last = now;
        }
    }

    /// Completes a tracked packet: flushes its stage deltas (ending with
    /// `final_stage`) and its end-to-end latency into the histograms.
    fn complete_packet(&mut self, id: u64, final_stage: &'static str, now: SimTime) {
        if let Some(f) = self.inflight.remove(&id) {
            for (stage, ns) in f.deltas {
                self.stages.record_stage(stage, ns);
            }
            self.stages.record_stage(
                final_stage,
                now.as_nanos().saturating_sub(f.last.as_nanos()),
            );
            self.stages
                .record_end_to_end(now.as_nanos().saturating_sub(f.t0.as_nanos()));
        }
    }

    /// Counts a drop under `reason`, frees the packet's pool slot,
    /// records the drop trace event and abandons the packet's stage
    /// tracking.
    fn drop_packet(&mut self, h: PacketHandle, reason: &'static str, now: SimTime) {
        self.stats.drops.inc(reason);
        let id = self.pool.remove(h).id;
        self.tracer.record(now, id, TraceEventKind::Drop { reason });
        self.flow.dropped += 1;
        if self.track_stages {
            self.inflight.remove(&id);
        }
    }

    /// Runs the simulation to completion (or until `deadline`), measuring
    /// from `warmup` onward. Returns the collected statistics.
    ///
    /// The calendar loop, flight-recorder ticks and end-of-run lifecycle
    /// all live in the shared [`Engine`]; this method only hands over the
    /// recorder state and harvests the artifacts.
    pub fn run(mut self, warmup: SimTime, deadline: SimTime) -> RunStats {
        self.measure_from = warmup;
        self.stats.client_rate.start(warmup);
        self.stats.host_goodput.start(warmup);
        let engine = self.rec.take_engine();
        let done = engine.run(&mut self, deadline);
        self.stats.audit = done.audit;
        self.stats.metrics = done.metrics;
        self.stats.events = done.events;
        self.stats.stages = std::mem::take(&mut self.stages);
        self.stats.trace = std::mem::take(&mut self.tracer);
        self.stats.timeline = done.timeline;
        self.stats.profile = done.profile;
        self.stats.counters = self.counters.snapshot();
        self.stats
    }

    fn measuring(&self, now: SimTime) -> bool {
        now >= self.measure_from
    }

    fn schedule_gen(&mut self, at: SimTime, eng: &mut impl Scheduler<Ev>) {
        if !self.gen_armed {
            self.gen_armed = true;
            eng.schedule_at(at, Ev::Gen);
        }
    }

    fn on_gen(&mut self, now: SimTime, eng: &mut impl Scheduler<Ev>) {
        if self.gen.sent >= self.gen.total {
            return;
        }
        match self.gen.mode {
            GenMode::ClosedLoop { window } => {
                if self.gen.outstanding >= window as u64 {
                    return; // re-armed by responses
                }
            }
            GenMode::OpenLoop { .. } | GenMode::Poisson { .. } => {}
        }
        if now < self.gen_next_allowed {
            self.schedule_gen(self.gen_next_allowed, eng);
            return;
        }
        let i = self.gen.sent;
        self.gen.sent += 1;
        self.gen.outstanding += 1;
        // The burst buffer is recycled run-long: take it, refill, move the
        // packets out into events, put the (empty) capacity back.
        let mut burst = std::mem::take(&mut self.gen.scratch);
        burst.clear();
        (self.gen.make)(i, &mut self.rng, &mut burst);
        self.stats.sent += burst.len() as u64;
        for mut pkt in burst.drain(..) {
            pkt.born = now;
            // The port tail-drops what its buffer cannot hold; a refused
            // frame is counted and never enters the pool.
            match self.client_up.offer(now, pkt.len as u64 + ETH_OVERHEAD) {
                Some(arrive) => {
                    self.flow.gen_admitted += 1;
                    let h = self.admit(pkt);
                    eng.schedule_at(arrive, Ev::ArriveAtNic(h));
                }
                None => self
                    .ctr
                    .client_tx_dropped
                    .get_or_insert_with(|| self.counters.counter("client/tx_dropped"))
                    .inc(),
            }
        }
        self.gen.scratch = burst;
        self.gen_next_allowed = now + self.gen.per_burst_cost;
        match self.gen.mode {
            GenMode::OpenLoop { .. } => {
                self.schedule_gen((now + self.gen.gap).max(self.gen_next_allowed), eng);
            }
            GenMode::Poisson { .. } => {
                let gap = self.rng.exp_duration(self.gen.gap);
                self.schedule_gen((now + gap).max(self.gen_next_allowed), eng);
            }
            GenMode::ClosedLoop { .. } => {
                // More window? fire again (subject to burst cost pacing).
                self.schedule_gen(now.max(self.gen_next_allowed), eng);
            }
        }
    }

    /// Enables the NIC's VXLAN decapsulation offload for `vni`.
    pub fn enable_vxlan_decap(&mut self, vni: u32) {
        self.vxlan_decap = Some(vni);
    }

    /// Wire arrival at the NIC port: the link-fault injection point.
    ///
    /// Link faults resolve immediately — the wire has no retransmission, so
    /// a dropped or corrupted frame is *dropped-and-counted* (graceful
    /// degradation: the system keeps running and the loss is on the books),
    /// while duplication and reordering are absorbed by the pipeline and
    /// count as recovered.
    fn on_arrive_at_nic(&mut self, now: SimTime, h: PacketHandle, eng: &mut impl Scheduler<Ev>) {
        let pkt = &self.pool[h];
        let (id, born, len, flow) = (pkt.id, pkt.born, pkt.len, pkt.meta.flow);
        self.begin_packet(id, born, now);
        self.ctr.port_rx_packets.inc();
        self.ctr.port_rx_bytes.add(len as u64);
        self.count_flow_rx(flow, len);
        let ingress = now + self.cfg.params.nic_latency;
        let fate = match self.faults.as_mut() {
            None => LinkFate::Deliver,
            Some(inj) => {
                if inj.hit(FaultKind::LinkDrop, DROPPED) {
                    LinkFate::Lost(drops::FAULT_LINK_DROP)
                } else if inj.hit(FaultKind::LinkCorrupt, DROPPED) {
                    LinkFate::Lost(drops::FAULT_CORRUPT)
                } else if inj.hit(FaultKind::LinkDuplicate, recovered(SimDuration::ZERO)) {
                    LinkFate::Duplicated
                } else if let Some(delay) =
                    inj.hit_for(FaultKind::LinkReorder, MAX_FAULT_DELAY, recovered)
                {
                    LinkFate::Delayed(delay)
                } else {
                    LinkFate::Deliver
                }
            }
        };
        match fate {
            LinkFate::Deliver => eng.schedule_at(ingress, Ev::NicIngress(h)),
            LinkFate::Lost(reason) => {
                self.drop_packet(h, reason, now);
            }
            LinkFate::Duplicated => {
                let mut dup = self.pool[h].clone();
                dup.id = self.next_dup_id;
                self.next_dup_id += 1;
                self.flow.synthesized += 1;
                let dup = self.pool.insert(dup);
                eng.schedule_at(ingress, Ev::NicIngress(h));
                eng.schedule_at(ingress, Ev::NicIngress(dup));
            }
            LinkFate::Delayed(delay) => eng.schedule_at(ingress + delay, Ev::NicIngress(h)),
        }
    }

    fn on_nic_ingress(&mut self, now: SimTime, h: PacketHandle, eng: &mut impl Scheduler<Ev>) {
        let pkt = &mut self.pool[h];
        // Hardware tunnel termination runs before classification, so the
        // match-action tables (and later the accelerator) see the inner
        // packet — the offload chaining FLD makes possible (§ 8.2.2). The
        // packet is re-pointed at the inner frame where it lies.
        if let (Some(vni), Some(pkt_vni)) = (self.vxlan_decap, pkt.meta.vni_u32()) {
            if vni == pkt_vni {
                self.decapped += 1;
                if let Some(bytes) = pkt.bytes.as_deref() {
                    if let Ok((_, inner)) = fld_net::frame::vxlan_decap(bytes) {
                        pkt.reframe(inner);
                    }
                } else {
                    pkt.meta.vni = None;
                }
            }
        }
        let (verdict, _fx) = self.nic.classify_ingress(&mut pkt.meta);
        let id = pkt.id;
        self.tracer.record(now, id, TraceEventKind::EswitchVerdict);
        self.mark_stage(id, stage::ESWITCH, now);
        self.route(now, h, verdict, eng);
    }

    fn route(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        verdict: Verdict,
        eng: &mut impl Scheduler<Ev>,
    ) {
        match verdict {
            Verdict::Drop => {
                self.drop_packet(h, drops::CLASSIFIER, now);
            }
            Verdict::Accelerator {
                queue: _,
                next_table,
            } => {
                self.deliver_to_fld(now, h, Some(next_table), eng);
            }
            Verdict::HostRss { rss_id } => {
                let queue = self.nic.rss_queue(rss_id, &self.pool[h].meta).unwrap_or(0);
                self.deliver_to_host(now, h, queue, eng);
            }
            Verdict::HostQueue { queue } => self.deliver_to_host(now, h, queue, eng),
            Verdict::Wire { port: _ } => {
                let len = self.pool[h].len as u64;
                self.ctr.port_tx_packets.inc();
                self.ctr.port_tx_bytes.add(len);
                let arrive = self.client_down.transmit(now, len + ETH_OVERHEAD);
                eng.schedule_at(arrive, Ev::ClientArrive(h));
            }
        }
    }

    /// Draws the per-transfer PCIe jitter (arbitration + rare ordering
    /// stalls, § 6).
    fn pcie_jitter(&mut self) -> SimDuration {
        let bound = self.cfg.params.pcie_jitter.as_picos().max(1);
        let mut j = SimDuration::from_picos(self.rng.next_below(bound));
        if self.rng.chance(self.cfg.params.pcie_stall_prob) {
            j += self.cfg.params.pcie_stall;
        }
        j
    }

    fn deliver_to_fld(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        table: Option<u16>,
        eng: &mut impl Scheduler<Ev>,
    ) {
        let pkt = &self.pool[h];
        let (id, len, ctx) = (pkt.id, pkt.len, pkt.meta.context_id);
        // Tenant policing happens before the PCIe DMA.
        if ctx != 0 && !self.nic.police(ctx, now, len as u64) {
            self.drop_packet(h, drops::POLICER, now);
            return;
        }
        // A poisoned completion TLP (EP bit set): FLD must discard the
        // payload. Dropped-and-counted — the wire protocol above (UDP
        // here) has no retransmission on the FLD-E path.
        let poisoned = self
            .faults
            .as_mut()
            .is_some_and(|inj| inj.hit(FaultKind::PciePoison, DROPPED));
        if poisoned {
            self.ctr.pcie.poisoned_tlps.inc();
            self.drop_packet(h, drops::FAULT_PCIE_POISON, now);
            return;
        }
        if !self.fld.rx.offer(len) {
            self.drop_packet(h, drops::FLD_RX_OVERFLOW, now);
            return;
        }
        // Charge both PCIe directions with the analytic per-packet loads.
        self.tracer.record(now, id, TraceEventKind::TlpPosted);
        let (to_fld, to_nic) = self.fld_loads.rx_wire_bytes(len);
        self.ctr.pcie.record_tlp(to_fld);
        let arrive = self.pcie_to_fld.transmit(now, to_fld);
        self.pcie_from_fld.transmit(now, to_nic);
        let mut arrive = arrive + self.pcie_jitter();
        // A completion timeout stalls the requester until the retrained
        // read completes; recovered, with the stall as recovery latency.
        let penalty = SimDuration::from_micros(10);
        let timed_out = self
            .faults
            .as_mut()
            .is_some_and(|inj| inj.hit(FaultKind::PcieTimeout, recovered(penalty)));
        if timed_out {
            self.ctr.pcie.completion_timeouts.inc();
            arrive += penalty;
        }
        eng.schedule_at(arrive, Ev::FldRx(h, table));
    }

    fn on_fld_rx(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        table: Option<u16>,
        eng: &mut impl Scheduler<Ev>,
    ) {
        // The accelerator owns its input: the packet leaves the pool here,
        // and whatever comes back is parked afresh.
        let pkt = self.pool.remove(h);
        let len = pkt.len;
        let id = pkt.id;
        self.tracer.record(now, id, TraceEventKind::AccelDeliver);
        self.mark_stage(id, stage::PCIE_RX, now);
        self.accel_jobs += 1;
        self.ctr.accel_jobs.inc();
        // A transient accelerator stall delays processing; FLD's SRAM
        // buffering absorbs it (§ 5.3), so it is pure added latency.
        let stall = self
            .faults
            .as_mut()
            .and_then(|inj| inj.hit_for(FaultKind::AccelStall, MAX_FAULT_DELAY, recovered));
        if stall.is_some() {
            self.ctr.accel_stalls.inc();
        }
        let stall = stall.unwrap_or_default();
        let out = self
            .accel
            .process(pkt, table, now + self.cfg.params.fld_latency + stall);
        // The rx buffer is released at `consumed_at`. A lone emission at
        // that same instant would pop right behind the release (same time,
        // next `seq`), so it carries the release instead of a second
        // event; any other output keeps the release an event of its own.
        let release_on_emit =
            matches!(&out.emit, EmitList::One((at, ..)) if *at == out.consumed_at);
        if !release_on_emit {
            eng.schedule_at(out.consumed_at, Ev::FldRxRelease(len));
        }
        let release = if release_on_emit { len } else { 0 };
        let mut reemitted = false;
        for (at, queue, tbl, out_pkt) in out.emit {
            reemitted |= out_pkt.id == id;
            if out_pkt.id != id {
                self.flow.synthesized += 1;
            }
            let out_h = self.pool.insert(out_pkt);
            eng.schedule_at(at, Ev::AccelEmit(out_h, queue, tbl, release));
        }
        // Packets the accelerator absorbs (e.g. fragments coalesced into a
        // fresh datagram) never complete; forget their stage chain so the
        // histograms only see packets that traversed the full pipeline.
        if !reemitted {
            self.flow.absorbed += 1;
            if self.track_stages {
                self.inflight.remove(&id);
            }
        }
    }

    fn on_accel_emit(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        queue: u16,
        table: Option<u16>,
        eng: &mut impl Scheduler<Ev>,
    ) {
        let pkt = &self.pool[h];
        let (id, len, ctx) = (pkt.id, pkt.len, pkt.meta.context_id);
        // Per-tenant admitted-throughput accounting: a packet the
        // accelerator emits survived both policing and its capacity limit.
        if ctx != 0 && self.measuring(now) {
            *self.tenant_bytes.entry(ctx).or_insert(0) += len as u64;
        }
        self.tracer.record(now, id, TraceEventKind::TxEmit);
        self.mark_stage(id, stage::ACCEL, now);
        // A queue flushing in its error state loses everything posted to it
        // until re-init completes — collateral of the triggering fault, so
        // a plain drop counter rather than a ledger entry.
        let qi = (queue as usize) % self.tx_queue_err.len();
        if !self.tx_queue_err[qi].is_ready(now) {
            self.ctr.txq[qi].2.inc();
            self.drop_packet(h, drops::FAULT_QUEUE_FLUSH, now);
            return;
        }
        // A malformed WQE raises an error CQE: the WQE's packet is lost
        // (dropped-and-counted, latency = the queue's re-init window) and
        // the queue enters its error state.
        let reinit = Booking::Resolved(FaultOutcome::DroppedCounted, Some(REINIT));
        let malformed = self
            .faults
            .as_mut()
            .is_some_and(|inj| inj.hit(FaultKind::MalformedWqe, reinit));
        if malformed {
            self.ctr.txq[qi].2.inc();
            self.tx_queue_err[qi].on_error_cqe(now, 0);
            self.drop_packet(h, drops::FAULT_MALFORMED_WQE, now);
            return;
        }
        let mmio_before = self.fld.tx.mmio_writes();
        match self.fld.tx.enqueue(queue, len) {
            Err(_) => {
                self.ctr.txq[qi].2.inc();
                self.drop_packet(h, drops::FLD_TX_BACKPRESSURE, now);
            }
            Ok(slot) => {
                self.ctr.txq[qi].0.inc();
                self.ctr.txq[qi].1.add(len as u64);
                if self.fld.tx.mmio_writes() > mmio_before {
                    self.tracer.record(now, id, TraceEventKind::DoorbellRing);
                }
                self.tracer.record(now, id, TraceEventKind::TlpPosted);
                let (to_fld, to_nic) = self.fld_loads.tx_wire_bytes(len);
                self.ctr.pcie.record_tlp(to_nic);
                self.pcie_to_fld.transmit(now, to_fld);
                let arrive = self.pcie_from_fld.transmit(now, to_nic) + self.pcie_jitter();
                eng.schedule_at(arrive, Ev::FldTx(h, table, slot));
            }
        }
    }

    fn on_fld_tx(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        table: Option<u16>,
        slot: TxSlot,
        eng: &mut impl Scheduler<Ev>,
    ) {
        let id = self.pool[h].id;
        self.tracer.record(now, id, TraceEventKind::WqeFetch);
        self.mark_stage(id, stage::PCIE_TX, now);
        let meta = &mut self.pool[h].meta;
        let (verdict, _) = match table {
            Some(t) => self.nic.classify_resumed(meta, t),
            None => self.nic.classify_egress(meta),
        };
        self.route(now + self.cfg.params.nic_latency, h, verdict, eng);
        // The NIC's completion for the transmitted packet, at the same
        // instant: it recycles the descriptor and buffer credits now that
        // the NIC owns the data. A CQE-with-error on this path does not
        // lose the packet (its data already reached the NIC; it completes
        // normally), but the queue enters its error state and flushes
        // until re-init — subsequent postings to it are collateral.
        let cqe_error = self
            .faults
            .as_mut()
            .is_some_and(|inj| inj.hit(FaultKind::CqeError, recovered(REINIT)));
        if cqe_error {
            let qi = (slot.queue as usize) % self.tx_queue_err.len();
            self.tx_queue_err[qi].on_error_cqe(now, 0);
        }
        self.fld.tx.complete(slot);
        self.tracer.record(now, id, TraceEventKind::CqeWrite);
    }

    fn deliver_to_host(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        queue: u16,
        eng: &mut impl Scheduler<Ev>,
    ) {
        // In local mode the host shares the client PCIe link, so rx DMA
        // consumes its NIC-to-host direction; in remote mode the host link
        // is never the bottleneck and is modelled latency-only.
        let arrive = if self.cfg.host_on_client_link {
            self.client_down
                .transmit(now, self.pool[h].len as u64 + ETH_OVERHEAD)
        } else {
            now + self.cfg.params.pcie_latency
        };
        eng.schedule_at(arrive, Ev::HostRx(h, queue));
    }

    fn on_host_rx(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        queue: u16,
        eng: &mut impl Scheduler<Ev>,
    ) {
        let core = queue as usize % self.host.core_count();
        // Finite receive ring: when the core's backlog exceeds the limit,
        // the NIC drops — this is what pins software defragmentation to one
        // core's capacity in § 8.2.2.
        if self.host.backlog(core, now) > self.cfg.params.host_rx_backlog_limit {
            self.ctr.rxq[core].1.inc();
            self.drop_packet(h, drops::HOST_QUEUE_OVERFLOW, now);
            return;
        }
        self.ctr.rxq[core].0.inc();
        self.host_rx_accepted += 1;
        self.mark_stage(self.pool[h].id, stage::HOST_DMA, now);
        let pkt = &self.pool[h];
        match &mut self.host_mode {
            HostMode::Echo => {
                // testpmd-style forwarding is zero-copy: the cost is per
                // packet, independent of payload size (the 9.6 Mpps
                // single-core figure of § 8.1.1).
                let work = self.cfg.params.cpu_per_packet;
                let done = self.host.run_on(core, now, work);
                eng.schedule_at(done, Ev::HostDone(h, true));
            }
            HostMode::Consume => {
                let done = self.host.process_packet(core, now, pkt.len);
                eng.schedule_at(done, Ev::HostDone(h, false));
            }
            HostMode::DefragStack {
                core_gbps,
                reassemblers,
            } => {
                let work = SimDuration::from_secs_f64(pkt.len as f64 * 8.0 / (*core_gbps * 1e9));
                let done = self.host.run_on(core, now, work);
                // Goodput counts L4 payload bytes, as iperf reports it.
                let mut deliver_len = 0u64;
                if pkt.meta.is_fragment {
                    // Kernel reassembly; a completed datagram delivers its
                    // IP payload minus the 20 B TCP header.
                    if let Some(bytes) = &pkt.bytes {
                        if let Ok(parsed) = fld_net::frame::parse_headers(bytes) {
                            if let Some(ip) = parsed.ip {
                                if let fld_net::ReassemblyResult::Complete { payload, .. } =
                                    reassemblers[core].push(&ip, parsed.payload)
                                {
                                    deliver_len = payload.len().saturating_sub(20) as u64;
                                }
                            }
                        }
                    }
                } else if let Some(bytes) = &pkt.bytes {
                    if let Ok(parsed) = fld_net::frame::parse_headers(bytes) {
                        deliver_len = parsed.payload.len() as u64;
                    }
                } else {
                    deliver_len = pkt.len.saturating_sub(54) as u64;
                }
                if deliver_len > 0 && pkt.id < DUP_ID_BASE {
                    if self.measuring(now) {
                        self.stats.host_goodput.record(deliver_len);
                    }
                    // The receiving application acks each delivered
                    // datagram — the closed-loop (TCP) behaviour of the
                    // § 8.2.2 iperf workload. The ack consumes reverse
                    // wire bandwidth.
                    let ack_at = self.client_down.transmit(done, 64 + ETH_OVERHEAD);
                    eng.schedule_at(ack_at, Ev::HostAck);
                }
                eng.schedule_at(done, Ev::HostDone(h, false));
            }
        }
    }

    fn on_host_done(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        echo: bool,
        eng: &mut impl Scheduler<Ev>,
    ) {
        if echo {
            let pkt = &self.pool[h];
            let (id, len) = (pkt.id, pkt.len);
            self.mark_stage(id, stage::HOST_CPU, now);
            // Host re-submits for transmission: tx DMA (shares the client
            // link in local mode), then NIC egress -> wire.
            let now = if self.cfg.host_on_client_link {
                self.client_up.transmit(now, len as u64 + ETH_OVERHEAD)
            } else {
                now
            };
            let (v, _) = self.nic.classify_egress(&mut self.pool[h].meta);
            self.route(now + self.cfg.params.nic_latency, h, v, eng);
        } else {
            let pkt = self.pool.remove(h);
            // Injected duplicates are conserved but never measured: the
            // host stack de-duplicates before the application sees them.
            if matches!(self.host_mode, HostMode::Consume)
                && self.measuring(now)
                && pkt.id < DUP_ID_BASE
            {
                self.stats.host_goodput.record(pkt.len as u64);
            }
            self.flow.delivered += 1;
            self.complete_packet(pkt.id, stage::HOST_CPU, now);
        }
    }

    fn on_client_arrive(&mut self, now: SimTime, h: PacketHandle, eng: &mut impl Scheduler<Ev>) {
        let pkt = self.pool.remove(h);
        // An injected duplicate reaching the client is conserved (it was
        // synthesized, so it must be delivered) but is invisible to
        // measurement and pacing: the client's network stack discards it
        // before the application or the request window sees it.
        let duplicate = pkt.id >= DUP_ID_BASE;
        if !duplicate && self.measuring(now) {
            self.stats.client_rate.record(pkt.len as u64);
            self.stats.rtt.record(now.since(pkt.born).as_nanos());
        }
        self.flow.delivered += 1;
        self.complete_packet(pkt.id, stage::TX_WIRE, now);
        if duplicate {
            return;
        }
        if self.gen.outstanding > 0 {
            self.gen.outstanding -= 1;
        }
        self.gen.responses += 1;
        if matches!(self.gen.mode, GenMode::ClosedLoop { .. }) {
            self.schedule_gen(now, eng);
        }
    }
}

impl FldSystem {
    /// Schedules this node's seed events (the traffic generator). The
    /// standalone [`Model::start`] delegates here with the engine itself;
    /// a composite model (e.g. `rack::Rack`) calls it with an adapter
    /// that wraps the node's events into the composite's event type.
    pub fn start_node(&mut self, eng: &mut impl Scheduler<Ev>) {
        self.gen_armed = true;
        eng.schedule_at(SimTime::ZERO, Ev::Gen);
    }

    /// Dispatches one node event at `now`, scheduling follow-ups on
    /// `eng`. This is the whole single-node data path; [`Model::handle`]
    /// delegates here, and composite models drive embedded nodes through
    /// it with their own [`Scheduler`] adapters.
    pub fn dispatch(&mut self, now: SimTime, ev: Ev, eng: &mut impl Scheduler<Ev>) {
        match ev {
            Ev::Gen => {
                self.gen_armed = false;
                self.on_gen(now, eng);
            }
            Ev::ArriveAtNic(h) => self.on_arrive_at_nic(now, h, eng),
            Ev::NicIngress(h) => self.on_nic_ingress(now, h, eng),
            Ev::FldRx(h, table) => self.on_fld_rx(now, h, table, eng),
            Ev::AccelEmit(h, queue, table, release) => {
                if release != 0 {
                    self.fld.rx.release(release);
                }
                self.on_accel_emit(now, h, queue, table, eng);
            }
            Ev::FldRxRelease(len) => self.fld.rx.release(len),
            Ev::FldTx(h, table, slot) => self.on_fld_tx(now, h, table, slot, eng),
            Ev::HostRx(h, queue) => self.on_host_rx(now, h, queue, eng),
            Ev::HostDone(h, echo) => self.on_host_done(now, h, echo, eng),
            Ev::ClientArrive(h) => self.on_client_arrive(now, h, eng),
            Ev::HostAck => {
                if self.gen.outstanding > 0 {
                    self.gen.outstanding -= 1;
                }
                self.gen.responses += 1;
                if matches!(self.gen.mode, GenMode::ClosedLoop { .. }) {
                    self.schedule_gen(now, eng);
                }
            }
        }
    }
}

impl Model for FldSystem {
    type Ev = Ev;

    fn start(&mut self, eng: &mut Engine<Ev>) {
        self.start_node(eng);
    }

    fn handle(&mut self, now: SimTime, ev: Ev, eng: &mut Engine<Ev>) {
        self.dispatch(now, ev, eng);
    }

    fn event_label(ev: &Ev) -> &'static str {
        match ev {
            Ev::Gen => "Gen",
            Ev::ArriveAtNic(_) => "ArriveAtNic",
            Ev::NicIngress(_) => "NicIngress",
            Ev::FldRx(..) => "FldRx",
            Ev::AccelEmit(..) => "AccelEmit",
            Ev::FldRxRelease(_) => "FldRxRelease",
            Ev::FldTx(..) => "FldTx",
            Ev::HostRx(..) => "HostRx",
            Ev::HostDone(..) => "HostDone",
            Ev::ClientArrive(_) => "ClientArrive",
            Ev::HostAck => "HostAck",
        }
    }

    fn lanes() -> usize {
        11
    }

    /// One lane per kind: each is the output of one ring, link or fixed
    /// latency, so it is scheduled in order, or (the three kinds behind
    /// a PCIe crossing) within one jitter of it.
    fn lane(ev: &Ev) -> usize {
        match ev {
            Ev::Gen => 0,
            Ev::ArriveAtNic(_) => 1,
            Ev::NicIngress(_) => 2,
            Ev::FldRx(..) => 3,
            Ev::AccelEmit(..) => 4,
            Ev::FldRxRelease(_) => 5,
            Ev::FldTx(..) => 6,
            Ev::HostRx(..) => 7,
            Ev::HostDone(..) => 8,
            Ev::ClientArrive(_) => 9,
            Ev::HostAck => 10,
        }
    }

    /// One flight-recorder tick's probes. Push order is the golden
    /// timeline series order — append only.
    fn probes(&mut self, now: SimTime, interval: SimDuration, out: &mut Probes) {
        {
            let _prof = fld_sim::prof::scope("sample.probes.fld");
            self.fld.probes("fld", out);
        }
        {
            let _prof = fld_sim::prof::scope("sample.probes.nic");
            self.nic.probes("nic", now, out);
        }
        let depth_ns = self.accel.queue_depth(now);
        out.push("accel.queue_depth", depth_ns);
        out.push("system.in_flight", self.flow.in_flight() as f64);
        self.host.probes("host", now, out);
        // Per-stage windowed utilizations, named after the pipeline stage
        // each link realizes (not the link's metrics name).
        {
            let _prof = fld_sim::prof::scope("sample.probes.stages");
            out.push("stage.eswitch.util", self.client_up.window_util(interval));
            out.push("stage.pcie_rx.util", self.pcie_to_fld.window_util(interval));
            // Accelerator "utilization": backlog (ns) over the window length.
            let interval_ps = interval.as_picos() as f64;
            out.push("stage.accel.util", (depth_ns * 1e3 / interval_ps).min(1.0));
            out.push(
                "stage.pcie_tx.util",
                self.pcie_from_fld.window_util(interval),
            );
            out.push("stage.tx_wire.util", self.client_down.window_util(interval));
        }
        // Fault series are appended only when injection is armed, after
        // every pre-existing series, so fault-free golden timelines are
        // byte-identical with or without this build's fault support.
        if let Some(inj) = &mut self.faults {
            inj.ledger_mut().probes(out);
        }
    }

    fn audit(&mut self, at: SimTime, auditor: &mut Auditor) {
        self.fld.audit("fld", at, auditor);
        self.nic.audit("nic", at, auditor);
        // Cross-component invariants stay with the system: the NIC's own
        // policer drop counter must agree with the system drop ledger.
        let (nic_pol, sys_pol) = (
            self.nic.policer_drops(),
            self.stats.drops.get(drops::POLICER),
        );
        auditor.check(
            at,
            "nic.policer",
            "conservation",
            nic_pol == sys_pol,
            || format!("nic counted {nic_pol} policer drops, system ledger has {sys_pol}"),
        );
        // System-wide packet conservation (inequality while in flight),
        // and at the generator's port: offered == admitted + refused.
        let (pin, pout) = (self.flow.packets_in(), self.flow.packets_out());
        let (offered, admitted) = (self.stats.sent, self.flow.gen_admitted);
        let refused = self.client_tx_dropped();
        let ok = pin >= pout && offered == admitted + refused;
        auditor.check(at, "system.flow", "conservation", ok, || {
            format!(
                "{pout} out of {pin} in; {offered} offered, {admitted} admitted, {refused} refused"
            )
        });
        self.flow.audit_pool(at, self.pool.live(), auditor);
        // `client_down` has no buffer: its frames first crossed a bounded
        // port at its rate, so it holds that buffer plus one of bunching,
        // and the host stack's acks, queued up to one rx backlog ahead.
        let mut bound = self.client_down.bandwidth().time_for_bytes(2 * PORT_BUFFER);
        if matches!(self.host_mode, HostMode::DefragStack { .. }) {
            bound += self.cfg.params.host_rx_backlog_limit;
        }
        let down = self.client_down.backlog(at).as_secs_f64() / bound.as_secs_f64();
        auditor.check_occupancy(at, "link.client_down", down);
        if let Some(inj) = &mut self.faults {
            inj.ledger_mut().audit(at, "fld", auditor);
        }
        // Counter telescoping: every per-entity counter group must agree
        // with the aggregate maintained at the same events, at every
        // audit instant (per sample tick and end of run). Every read goes
        // through a handle resolved at wiring time.
        let ctr = &mut self.ctr;
        auditor.check_counter_eq(at, "counters.port", &ctr.port_rx_packets, self.flow.entered);
        let flow_pkts = ctr.flow_packets.get();
        let port_rx = ctr.port_rx_packets.get();
        auditor.check(
            at,
            "counters.flow",
            "counter-telescope",
            flow_pkts == port_rx,
            || format!("per-flow packets sum to {flow_pkts} but port rx saw {port_rx}"),
        );
        self.nic.audit_classifier_counters(at, auditor);
        let txq_pkts = ctr.txq_packets.get();
        let enqueued = self.fld.tx.enqueued();
        auditor.check(
            at,
            "counters.txq",
            "counter-telescope",
            txq_pkts == enqueued,
            || format!("per-tx-queue packets sum to {txq_pkts}, device enqueued {enqueued}"),
        );
        let txq_drops = ctr.txq_drops.get();
        let tx_drop_agg = self.stats.drops.get(drops::FLD_TX_BACKPRESSURE)
            + self.stats.drops.get(drops::FAULT_QUEUE_FLUSH)
            + self.stats.drops.get(drops::FAULT_MALFORMED_WQE);
        auditor.check(
            at,
            "counters.txq",
            "counter-telescope",
            txq_drops == tx_drop_agg,
            || format!("per-tx-queue drops sum to {txq_drops}, drop ledger has {tx_drop_agg}"),
        );
        auditor.check_counter_sum(
            at,
            "counters.rxq",
            &mut ctr.rxq_all,
            self.host_rx_accepted + self.stats.drops.get(drops::HOST_QUEUE_OVERFLOW),
        );
        let rxq_drops = ctr.rxq_drops.get();
        let overflow = self.stats.drops.get(drops::HOST_QUEUE_OVERFLOW);
        auditor.check(
            at,
            "counters.rxq",
            "counter-telescope",
            rxq_drops == overflow,
            || format!("per-rx-queue drops sum to {rxq_drops}, overflow ledger has {overflow}"),
        );
        auditor.check_counter_eq(at, "counters.accel", &ctr.accel_jobs, self.accel_jobs);
        if let Some(inj) = &mut self.faults {
            auditor.check_counter_eq(
                at,
                "counters.pcie",
                &ctr.pcie.completion_timeouts,
                inj.counter(FaultKind::PcieTimeout).get(),
            );
            auditor.check_counter_eq(
                at,
                "counters.pcie",
                &ctr.pcie.poisoned_tlps,
                inj.counter(FaultKind::PciePoison).get(),
            );
            auditor.check_counter_eq(
                at,
                "counters.accel",
                &ctr.accel_stalls,
                inj.counter(FaultKind::AccelStall).get(),
            );
        }
    }

    fn drained_audit(&mut self, at: SimTime, auditor: &mut Auditor) {
        let (pin, pout) = (self.flow.packets_in(), self.flow.packets_out());
        let flow = format!("{:?}", self.flow);
        auditor.check(at, "system.flow", "conservation", pin == pout, || {
            format!("drained run leaked {pin} in vs {pout} out ({flow})")
        });
        let live = self.pool.live();
        auditor.check(at, "system.pool", "conservation", live == 0, || {
            format!("drained run left {live} packets in the pool ({flow})")
        });
        if let Some(inj) = &mut self.faults {
            inj.ledger_mut().drained_audit(at, "fld", auditor);
        }
    }

    fn finish(&mut self, end: SimTime, _drained: bool) {
        self.stats.client_rate.finish(end);
        self.stats.host_goodput.finish(end);
        // Folded once here rather than per refusal; a run that refuses
        // nothing keeps the drop table it always had.
        let refused = self.client_tx_dropped();
        if refused > 0 {
            self.stats.drops.add(drops::CLIENT_TX_DROPPED, refused);
        }
        let mut tenants: Vec<(u32, u64)> =
            self.tenant_bytes.iter().map(|(k, v)| (*k, *v)).collect();
        tenants.sort_unstable();
        self.stats.tenant_bytes = tenants;
    }

    fn export_metrics(&mut self, end: SimTime, timeline: &Timeline, m: &mut MetricsRegistry) {
        self.nic.export_metrics("nic", m);
        self.fld.export_metrics("fld", m);
        self.host.export_metrics("host", m);
        self.accel.export_metrics("accel", m);
        m.counters("drops", &self.stats.drops);
        m.counter("gen.sent", self.stats.sent);
        m.counter("gen.responses", self.gen.responses);
        m.counter("nic.decapsulated", self.decapped);
        m.counter("host.rx_accepted", self.host_rx_accepted);
        m.counter("accel.jobs", self.accel_jobs);
        self.client_up.export_metrics("link.client_up", end, m);
        self.client_down.export_metrics("link.client_down", end, m);
        self.pcie_to_fld.export_metrics("pcie.to_fld", end, m);
        self.pcie_from_fld.export_metrics("pcie.from_fld", end, m);
        m.histogram("latency.rtt_ns", &self.stats.rtt);
        m.rate("client.rate", &self.stats.client_rate);
        m.rate("host.goodput", &self.stats.host_goodput);
        self.stages.export("latency", m);
        m.counter("trace.events", self.tracer.len() as u64);
        m.counter("trace.overwritten", self.tracer.overwritten());
        if let Some(inj) = &mut self.faults {
            inj.ledger_mut().export(m);
            let (mut cqes, mut flushed, mut reinits) = (0u64, 0u64, 0u64);
            for q in &self.tx_queue_err {
                cqes += q.error_cqes();
                flushed += q.flushed_in_error();
                reinits += q.reinits();
            }
            m.counter("fld.tx.error_cqes", cqes);
            m.counter("fld.tx.flushed_in_error", flushed);
            m.counter("fld.tx.reinits", reinits);
        }
        if timeline.is_enabled() {
            fld_sim::probe::BottleneckReport::from_timeline(
                timeline,
                RunStats::BOTTLENECK_STAGES,
                RunStats::SATURATION_THRESHOLD,
            )
            .export("bottleneck", m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_nic::eswitch::{Action, MatchSpec, Rule};
    use fld_nic::nic::Direction;

    /// The parallel sweep runner moves whole systems across worker
    /// threads; losing `Send` would break it at a distance.
    #[test]
    fn system_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FldSystem>();
    }

    /// A zero-latency single-unit echo accelerator for system tests.
    #[derive(Debug)]
    struct TestEcho;

    impl AcceleratorModel for TestEcho {
        fn process(
            &mut self,
            pkt: SimPacket,
            next_table: Option<u16>,
            now: SimTime,
        ) -> AccelOutput {
            AccelOutput {
                consumed_at: now,
                emit: EmitList::one((now, 0, next_table, pkt)),
            }
        }

        fn name(&self) -> &'static str {
            "test-echo"
        }
    }

    fn steer_all_to_accel(nic: &mut Nic) {
        nic.install_rule(
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
        .unwrap();
        // Returning packets (table 1) go back out the wire.
        nic.install_rule(
            Direction::Ingress,
            1,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::ToWire { port: 0 }],
            },
        )
        .unwrap();
    }

    fn steer_all_to_host_echo(nic: &mut Nic) {
        let rss = nic.create_rss(16);
        nic.install_rule(
            Direction::Ingress,
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::ToHostRss { rss_id: rss }],
            },
        )
        .unwrap();
        nic.install_rule(
            Direction::Egress,
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::ToWire { port: 0 }],
            },
        )
        .unwrap();
    }

    /// The counter tree telescopes on a clean echo run: per-flow and
    /// per-queue sums agree with the port totals and the run's aggregate
    /// statistics, and the snapshot lands in [`RunStats::counters`].
    #[test]
    fn counter_tree_telescopes_on_an_echo_run() {
        let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 1e6 }, 5_000, 200);
        let mut sys = FldSystem::new(
            SystemConfig::remote(),
            Box::new(TestEcho),
            HostMode::Consume,
            gen,
        );
        steer_all_to_accel(&mut sys.nic);
        sys.enable_strict_audit();
        let stats = sys.run(SimTime::ZERO, SimTime::from_millis(100));
        assert!(stats.audit.passed(), "{:?}", stats.audit.recorded);
        let snap = &stats.counters;
        assert_eq!(snap.get("port/0/rx/packets"), Some(5_000));
        assert_eq!(
            snap.sum_prefix("flow"),
            snap.get("port/0/rx/packets").unwrap() + snap.get("port/0/rx/bytes").unwrap()
        );
        assert_eq!(snap.get("port/0/tx/packets"), Some(5_000));
        assert_eq!(snap.get("accel/0/jobs"), Some(5_000));
        assert_eq!(
            snap.get("eswitch/port/0/match"),
            Some(10_000),
            "ingress + resumed"
        );
        // 64 generator flows plus the overflow bucket, each with two leaves.
        assert_eq!(snap.sum_prefix("flow/other"), 0);
        let metric_enq = stats.metrics.counter_value("fld.tx_ring.enqueued").unwrap();
        let txq_sum: u64 = (0..2)
            .map(|q| {
                snap.get(&format!("port/0/queue/tx/{q}/packets"))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            txq_sum, metric_enq,
            "queue sums telescope to the registry value"
        );
    }

    #[test]
    fn fld_echo_round_trip_latency() {
        // Single closed-loop 64 B packet: the RTT must be a small number of
        // microseconds (Table 6 territory), deterministic and positive.
        let gen = ClientGen::fixed_udp(GenMode::ClosedLoop { window: 1 }, 1000, 22);
        let mut sys = FldSystem::new(
            SystemConfig::remote(),
            Box::new(TestEcho),
            HostMode::Consume,
            gen,
        );
        steer_all_to_accel(&mut sys.nic);
        let stats = sys.run(SimTime::ZERO, SimTime::from_millis(100));
        assert_eq!(stats.sent, 1000);
        assert_eq!(stats.rtt.count(), 1000);
        let p50 = stats.rtt.percentile(50.0);
        assert!(p50 > 1_000, "rtt {p50} ns too small");
        assert!(p50 < 10_000, "rtt {p50} ns too large");
        assert_eq!(stats.drops.get(drops::CLASSIFIER), 0);
    }

    #[test]
    fn fld_echo_throughput_tracks_line_rate_at_large_packets() {
        // Open loop at line rate with 1458 B payloads (1500 B frames): the
        // echo must sustain close to 25 Gbps.
        let rate = 25e9 / (1500.0 * 8.0);
        let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate }, 200_000, 1458);
        let mut sys = FldSystem::new(
            SystemConfig::remote(),
            Box::new(TestEcho),
            HostMode::Consume,
            gen,
        );
        steer_all_to_accel(&mut sys.nic);
        let stats = sys.run(SimTime::from_millis(10), SimTime::from_millis(100));
        let gbps = stats.client_rate.gbps();
        assert!(gbps > 22.0, "echo goodput {gbps:.2} Gbps");
        assert!(gbps <= 25.0 + 0.1);
    }

    #[test]
    fn cpu_echo_matches_fld_echo_at_mtu() {
        // "its performance is on par with a CPU driver" (§ 8.1.1) at MTU.
        let rate = 25e9 / (1500.0 * 8.0);
        let mk = |host: bool| {
            let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate }, 200_000, 1458);
            let mut sys = FldSystem::new(
                SystemConfig::remote(),
                Box::new(TestEcho),
                if host {
                    HostMode::Echo
                } else {
                    HostMode::Consume
                },
                gen,
            );
            if host {
                steer_all_to_host_echo(&mut sys.nic);
            } else {
                steer_all_to_accel(&mut sys.nic);
            }
            sys.run(SimTime::from_millis(10), SimTime::from_millis(100))
                .client_rate
                .gbps()
        };
        let fld = mk(false);
        let cpu = mk(true);
        assert!(
            (fld - cpu).abs() / fld < 0.1,
            "fld {fld:.2} vs cpu {cpu:.2}"
        );
    }

    #[test]
    fn pcie_bounds_small_packet_echo_in_local_mode() {
        // 64 B frames through a 50 Gbps PCIe echo: per-packet overheads
        // must keep goodput well below the 50 Gbps client link.
        let rate = 50e9 / (64.0 * 8.0); // absurd offered rate
        let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: rate * 0.9 }, 400_000, 22);
        let mut sys = FldSystem::new(
            SystemConfig::local(),
            Box::new(TestEcho),
            HostMode::Consume,
            gen,
        );
        steer_all_to_accel(&mut sys.nic);
        let stats = sys.run(SimTime::from_millis(2), SimTime::from_millis(20));
        let gbps = stats.client_rate.gbps();
        assert!(gbps > 5.0, "echo too slow: {gbps:.2}");
        assert!(gbps < 40.0, "64 B echo cannot reach wire speed: {gbps:.2}");
    }

    #[test]
    fn unmatched_traffic_is_dropped_and_counted() {
        let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 1e6 }, 1000, 100);
        let sys = FldSystem::new(
            SystemConfig::remote(),
            Box::new(TestEcho),
            HostMode::Consume,
            gen,
        );
        // No rules installed at all.
        let stats = sys.run(SimTime::ZERO, SimTime::from_millis(50));
        assert_eq!(stats.drops.get(drops::CLASSIFIER), 1000);
        assert_eq!(stats.rtt.count(), 0);
    }

    #[test]
    fn host_consume_counts_goodput() {
        let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 1e6 }, 50_000, 1458);
        let mut sys = FldSystem::new(
            SystemConfig::remote(),
            Box::new(TestEcho),
            HostMode::Consume,
            gen,
        );
        let rss = sys.nic.create_rss(16);
        sys.nic
            .install_rule(
                Direction::Ingress,
                0,
                Rule {
                    priority: 0,
                    spec: MatchSpec::any(),
                    actions: vec![Action::ToHostRss { rss_id: rss }],
                },
            )
            .unwrap();
        let stats = sys.run(SimTime::from_millis(1), SimTime::from_millis(100));
        // 1 Mpps x 1500 B = 12 Gbps offered; host must consume ~all of it.
        let gbps = stats.host_goodput.gbps();
        assert!((gbps - 12.0).abs() < 1.0, "goodput {gbps:.2}");
    }

    #[test]
    fn flight_recorder_samples_probes_and_audit_passes() {
        let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 2e6 }, 5_000, 200);
        let mut sys = FldSystem::new(
            SystemConfig::remote(),
            Box::new(TestEcho),
            HostMode::Consume,
            gen,
        );
        steer_all_to_accel(&mut sys.nic);
        sys.enable_flight_recorder(SimDuration::from_micros(1));
        sys.enable_strict_audit(); // a violation anywhere panics the test
        let stats = sys.run(SimTime::ZERO, SimTime::from_millis(50));
        assert!(stats.audit.passed());
        assert!(stats.audit.checks > 0);
        assert!(
            stats.timeline.ticks() > 100,
            "{} ticks",
            stats.timeline.ticks()
        );
        for series in [
            "fld.rx_ring.occupancy",
            "fld.tx_ring.descriptor_credits",
            "system.in_flight",
            "stage.pcie_rx.util",
        ] {
            assert!(stats.timeline.get(series).is_some(), "missing {series}");
        }
        // A drained run ends with nothing in flight.
        let inflight = stats.timeline.get("system.in_flight").unwrap();
        assert_eq!(inflight.values.last().copied(), Some(0.0));
    }

    /// An accelerator that drops every other packet (absorbs it) —
    /// conservation must still balance via the absorbed ledger.
    #[derive(Debug)]
    struct HalfDrop(u64);

    impl AcceleratorModel for HalfDrop {
        fn process(
            &mut self,
            pkt: SimPacket,
            next_table: Option<u16>,
            now: SimTime,
        ) -> AccelOutput {
            self.0 += 1;
            if self.0.is_multiple_of(2) {
                AccelOutput::absorb(now)
            } else {
                AccelOutput {
                    consumed_at: now,
                    emit: EmitList::one((now, 0, next_table, pkt)),
                }
            }
        }
    }

    #[test]
    fn conservation_holds_with_absorbing_accelerator() {
        let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 1e6 }, 2_000, 200);
        let mut sys = FldSystem::new(
            SystemConfig::remote(),
            Box::new(HalfDrop(0)),
            HostMode::Consume,
            gen,
        );
        steer_all_to_accel(&mut sys.nic);
        sys.enable_flight_recorder(SimDuration::from_micros(1));
        let stats = sys.run(SimTime::ZERO, SimTime::from_millis(100));
        assert!(stats.audit.passed(), "{}", stats.audit);
        assert_eq!(stats.rtt.count(), 1_000); // half echoed back
    }

    /// How long [`Shaped`] holds a packet's rx buffer.
    const HOLD: SimDuration = SimDuration::from_nanos(100);

    /// An accelerator of configurable output shape: consumes its input
    /// [`HOLD`] after delivery and emits `emits` packets `emit_delay`
    /// after that (the first under the input's id, the rest synthesized).
    #[derive(Debug)]
    struct Shaped {
        emits: u64,
        emit_delay: SimDuration,
    }

    impl AcceleratorModel for Shaped {
        fn process(
            &mut self,
            pkt: SimPacket,
            next_table: Option<u16>,
            now: SimTime,
        ) -> AccelOutput {
            let consumed_at = now + HOLD;
            let mut copies: Vec<EmitEntry> = (0..self.emits)
                .map(|copy| {
                    let mut out = pkt.clone();
                    out.id += copy << 32;
                    (consumed_at + self.emit_delay, 0, next_table, out)
                })
                .collect();
            let emit = match copies.len() {
                0 => EmitList::None,
                1 => EmitList::one(copies.pop().expect("one copy")),
                _ => EmitList::Many(copies),
            };
            AccelOutput { consumed_at, emit }
        }
    }

    /// The calendar alone, as a [`Scheduler`]: lets a test pop and
    /// dispatch a system's events one at a time and look in between.
    struct Calendar(fld_sim::queue::EventQueue<Ev>);

    impl Scheduler<Ev> for Calendar {
        fn now(&self) -> SimTime {
            self.0.now()
        }

        fn schedule_at(&mut self, at: SimTime, ev: Ev) {
            self.0.schedule_at(at, ev);
        }
    }

    const SHAPED_PACKETS: u64 = 20;

    /// 20 packets, 10 µs apart (one in the system at a time), through a
    /// [`Shaped`] accelerator.
    fn shaped_system(emits: u64, emit_delay: SimDuration) -> FldSystem {
        let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 1e5 }, SHAPED_PACKETS, 200);
        let accel = Box::new(Shaped { emits, emit_delay });
        let mut sys = FldSystem::new(SystemConfig::remote(), accel, HostMode::Consume, gen);
        steer_all_to_accel(&mut sys.nic);
        sys
    }

    /// Steps a [`shaped_system`] event by event: FLD's rx buffer must be
    /// held until `consumed_at` and free from exactly that instant on —
    /// whether the release is its own event or rides on the emission —
    /// and at drain every transmit slot is completed and the pool empty.
    /// Returns the events scheduled, checked against what the engine
    /// reports for the same run.
    fn drive_shaped(emits: u64, emit_delay: SimDuration) -> u64 {
        let mut sys = shaped_system(emits, emit_delay);
        let fld_latency = sys.cfg.params.fld_latency;
        let mut cal = Calendar(fld_sim::queue::EventQueue::new());
        sys.start_node(&mut cal);
        let mut consumed_at = None;
        let mut releases = 0;
        while let Some((now, ev)) = cal.0.pop() {
            let delivered = matches!(ev, Ev::FldRx(..));
            sys.dispatch(now, ev, &mut cal);
            if delivered {
                consumed_at = Some(now + fld_latency + HOLD);
            }
            match consumed_at {
                Some(at) if now < at => assert!(sys.fld.rx.occupancy() > 0.0, "released early"),
                Some(at) => {
                    assert_eq!(now, at, "nothing released the buffer at consumed_at");
                    assert_eq!(sys.fld.rx.occupancy(), 0.0, "held past consumed_at");
                    consumed_at = None;
                    releases += 1;
                }
                // Idle, or reserved for a packet's DMA still in flight.
                None => {}
            }
        }
        assert_eq!(releases, SHAPED_PACKETS);
        assert_eq!(sys.fld.tx.enqueued(), SHAPED_PACKETS * emits);
        assert_eq!(sys.fld.tx.completed(), sys.fld.tx.enqueued());
        assert_eq!(sys.pool.live(), 0);
        let stats = shaped_system(emits, emit_delay).run(SimTime::ZERO, SimTime::from_millis(1));
        assert!(stats.audit.passed(), "{}", stats.audit);
        assert_eq!(stats.events, cal.0.scheduled_total());
        stats.events
    }

    /// The two merged event pairs, counted. Every emission costs three
    /// events (`AccelEmit`, `FldTx` carrying its own completion,
    /// `ClientArrive`), and the rx release costs a fourth unless it rides
    /// on a lone emission at `consumed_at` — an absorbing, a late-emitting
    /// and a multi-emitting accelerator all keep it.
    #[test]
    fn rx_release_rides_only_on_a_lone_emission_at_consumed_at() {
        let n = SHAPED_PACKETS;
        // Gen (one per packet and the one that finds nothing left to
        // send), ArriveAtNic, NicIngress, FldRx, FldRxRelease.
        let absorb = drive_shaped(0, SimDuration::ZERO);
        assert_eq!(absorb, (n + 1) + n * 4);
        let echo = drive_shaped(1, SimDuration::ZERO);
        let delayed = drive_shaped(1, SimDuration::from_nanos(50));
        let two = drive_shaped(2, SimDuration::ZERO);
        assert_eq!(delayed - absorb, n * 3);
        assert_eq!(delayed - echo, n, "one FldRxRelease merged per packet");
        assert_eq!(
            two - absorb,
            n * 6,
            "a multi-packet emission merges nothing"
        );
    }

    /// Events carry handles, not packets, so they are a third of a cache
    /// line and a FIFO-lane entry (time + seq + event) is 32 bytes for a
    /// single node, 40 for a rack; the packets they name sit in pool
    /// slots exactly a packet wide. Guarded here so a field added to an
    /// event, or a niche lost from `SimPacket`, cannot silently grow the
    /// calendar or the pool back.
    #[test]
    fn events_are_handle_sized_and_pool_slots_packet_sized() {
        use std::mem::size_of;
        assert!(size_of::<Ev>() <= 24, "{}", size_of::<Ev>());
        assert!(
            size_of::<crate::rack::RackEv>() <= 32,
            "{}",
            size_of::<crate::rack::RackEv>()
        );
        assert_eq!(PacketPool::SLOT_BYTES, 56);
        assert_eq!(PacketPool::SLOT_BYTES, size_of::<SimPacket>());
    }

    #[test]
    fn audit_runs_even_without_flight_recorder() {
        let gen = ClientGen::fixed_udp(GenMode::ClosedLoop { window: 4 }, 500, 100);
        let mut sys = FldSystem::new(
            SystemConfig::remote(),
            Box::new(TestEcho),
            HostMode::Consume,
            gen,
        );
        steer_all_to_accel(&mut sys.nic);
        let stats = sys.run(SimTime::ZERO, SimTime::from_millis(100));
        // End-of-run audit is always on; the recorder was off.
        assert!(stats.audit.checks > 0);
        assert!(stats.audit.passed());
        assert_eq!(stats.timeline.ticks(), 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 2e6 }, 20_000, 200);
            let mut sys = FldSystem::new(
                SystemConfig::remote(),
                Box::new(TestEcho),
                HostMode::Consume,
                gen,
            );
            steer_all_to_accel(&mut sys.nic);
            let stats = sys.run(SimTime::from_millis(1), SimTime::from_millis(50));
            (
                stats.rtt.count(),
                stats.rtt.percentile(99.0),
                stats.client_rate.bytes(),
            )
        };
        assert_eq!(run(), run());
    }

    fn chaos_echo(rate: f64, seed: u64) -> RunStats {
        let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 2e6 }, 10_000, 200);
        let mut sys = FldSystem::new(
            SystemConfig::remote(),
            Box::new(TestEcho),
            HostMode::Consume,
            gen,
        );
        steer_all_to_accel(&mut sys.nic);
        sys.enable_strict_audit();
        sys.enable_flight_recorder(SimDuration::from_micros(10));
        sys.enable_faults(&FaultPlan::new(rate, seed));
        sys.run(SimTime::ZERO, SimTime::from_millis(50))
    }

    /// The ISSUE's graceful-degradation contract: under a broad fault mix
    /// the system never panics, every injected fault is accounted, and the
    /// strict audit (including the fault-accounting invariant sampled each
    /// recorder tick) holds throughout.
    #[test]
    fn chaos_run_accounts_for_every_fault() {
        let stats = chaos_echo(1e-2, 7);
        let book = |key: &str| stats.metrics.counter_value(key).unwrap_or(0);
        let injected = stats.counters.sum_prefix("faults");
        assert!(injected > 0, "nothing was injected");
        assert_eq!(stats.counters.sum_prefix("recovery"), injected);
        assert_eq!(book("recovery.open"), 0, "FLD-E faults resolve immediately");
        assert!(stats.audit.passed(), "{}", stats.audit);
        // Losses surfaced as counted drops, not silent disappearance: the
        // injector books each fault in the tree, the data path books each
        // loss under its own drop reason, and the two agree kind by kind.
        let mut counted = 0;
        for (kind, reason) in [
            (FaultKind::LinkDrop, drops::FAULT_LINK_DROP),
            (FaultKind::LinkCorrupt, drops::FAULT_CORRUPT),
            (FaultKind::PciePoison, drops::FAULT_PCIE_POISON),
            (FaultKind::MalformedWqe, drops::FAULT_MALFORMED_WQE),
        ] {
            let leaf = format!("/{}", kind.name());
            let booked: u64 = stats
                .counters
                .entries()
                .iter()
                .filter(|(path, _)| path.starts_with("faults/") && path.ends_with(&leaf))
                .map(|(_, n)| n)
                .sum();
            assert_eq!(booked, stats.drops.get(reason), "{}", kind.name());
            counted += booked;
        }
        assert!(counted > 0, "no injected fault dropped a packet");
        assert_eq!(counted, book("recovery.dropped_counted"));
    }

    #[test]
    fn chaos_run_is_seed_deterministic() {
        let fingerprint = |stats: &RunStats| {
            (
                stats.rtt.count(),
                stats.rtt.percentile(99.0),
                stats.client_rate.bytes(),
                stats.counters.sum_prefix("faults"),
                stats.counters.get("recovery/recovered"),
                stats.counters.get("recovery/dropped_counted"),
            )
        };
        let a = fingerprint(&chaos_echo(1e-2, 42));
        assert_eq!(a, fingerprint(&chaos_echo(1e-2, 42)));
        assert_ne!(a, fingerprint(&chaos_echo(1e-2, 43)));
    }

    /// A zero-rate plan must not perturb the simulation: enabling faults
    /// at rate 0 is byte-identical to never enabling them.
    #[test]
    fn zero_rate_fault_plan_is_transparent() {
        let run = |armed: bool| {
            let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 2e6 }, 10_000, 200);
            let mut sys = FldSystem::new(
                SystemConfig::remote(),
                Box::new(TestEcho),
                HostMode::Consume,
                gen,
            );
            steer_all_to_accel(&mut sys.nic);
            if armed {
                sys.enable_faults(&FaultPlan::new(0.0, 1));
            }
            let stats = sys.run(SimTime::ZERO, SimTime::from_millis(50));
            (
                stats.rtt.count(),
                stats.rtt.percentile(50.0),
                stats.rtt.percentile(99.0),
                stats.client_rate.bytes(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// Injected duplicates are conserved by the flow audit but invisible
    /// to measurement: goodput never exceeds what the client requested.
    #[test]
    fn duplicates_do_not_inflate_measurement() {
        let gen = ClientGen::fixed_udp(GenMode::ClosedLoop { window: 8 }, 2_000, 200);
        let mut sys = FldSystem::new(
            SystemConfig::remote(),
            Box::new(TestEcho),
            HostMode::Consume,
            gen,
        );
        steer_all_to_accel(&mut sys.nic);
        sys.enable_strict_audit();
        let plan = FaultPlan::new(0.05, 9).with_kinds_csv("duplicate").unwrap();
        sys.enable_faults(&plan);
        let stats = sys.run(SimTime::ZERO, SimTime::from_millis(100));
        assert!(
            stats.counters.get("faults/fld/duplicate") > Some(0),
            "no duplicates injected"
        );
        assert!(stats.audit.passed(), "{}", stats.audit);
        // Nothing is lost under pure duplication, and the client sees
        // exactly one response per request despite the extra copies.
        assert_eq!(stats.sent, 2_000);
        assert_eq!(stats.rtt.count(), 2_000);
    }

    /// An echo that logs the instant each packet is handed to it, which
    /// is also the instant it emits the packet back.
    #[derive(Debug)]
    struct LoggingEcho(std::sync::Arc<std::sync::Mutex<Vec<(u64, SimTime)>>>);

    impl AcceleratorModel for LoggingEcho {
        fn process(
            &mut self,
            pkt: SimPacket,
            next_table: Option<u16>,
            now: SimTime,
        ) -> AccelOutput {
            self.0.lock().unwrap().push((pkt.id, now));
            TestEcho.process(pkt, next_table, now)
        }
    }

    /// FLD's SRAM absorbs a transient accelerator stall (§ 5.3): the
    /// stalled packet is emitted late by exactly the stall drawn for it,
    /// and each stall is counted once on the accelerator, once under its
    /// fault path and once as recovered.
    #[test]
    fn accel_stalls_delay_emission_and_are_booked_as_recovered() {
        let plan = FaultPlan::new(0.2, 11)
            .with_kinds_csv("accel_stall")
            .unwrap();
        let run = |faulted: bool| {
            // Packets 10 µs apart: no stall (≤ 5 µs) can queue one
            // packet behind another, so only the stall moves emission.
            let gen = ClientGen::fixed_udp(GenMode::OpenLoop { rate: 1e5 }, 500, 200);
            let log = std::sync::Arc::default();
            let accel = Box::new(LoggingEcho(std::sync::Arc::clone(&log)));
            let mut sys = FldSystem::new(SystemConfig::remote(), accel, HostMode::Consume, gen);
            steer_all_to_accel(&mut sys.nic);
            sys.enable_strict_audit();
            if faulted {
                sys.enable_faults(&plan);
            }
            let stats = sys.run(SimTime::ZERO, SimTime::from_millis(50));
            assert!(stats.audit.passed(), "{}", stats.audit);
            let log = std::mem::take(&mut *log.lock().unwrap());
            (stats, log)
        };
        let (_, clean) = run(false);
        let (stats, stalled) = run(true);
        assert_eq!(clean.len(), 500);
        assert_eq!(stalled.len(), 500);

        // The system's one stream, replayed: with only `accel_stall`
        // enabled, the stall site is its only reader.
        let mut replay = plan.injector("fld", &CounterTree::new());
        let mut stalls = 0;
        for (&(id, at), &(clean_id, clean_at)) in stalled.iter().zip(&clean) {
            assert_eq!(id, clean_id);
            let drawn = replay
                .hit_for(FaultKind::AccelStall, MAX_FAULT_DELAY, recovered)
                .unwrap_or_default();
            stalls += u64::from(drawn > SimDuration::ZERO);
            assert_eq!(at.since(clean_at), drawn, "packet {id}");
        }
        assert!(stalls > 0, "no stall fired");
        let ctr = &stats.counters;
        assert_eq!(ctr.get("accel/0/stalls"), Some(stalls));
        assert_eq!(ctr.get("faults/fld/accel_stall"), Some(stalls));
        assert_eq!(ctr.get("recovery/recovered"), Some(stalls));
        assert_eq!(ctr.sum_prefix("faults"), stalls);
    }
}

#[cfg(test)]
mod poisson_tests {
    use super::*;
    use fld_nic::eswitch::{Action, MatchSpec, Rule};
    use fld_nic::nic::Direction;

    #[derive(Debug)]
    struct Echo;

    impl AcceleratorModel for Echo {
        fn process(&mut self, pkt: SimPacket, t: Option<u16>, now: SimTime) -> AccelOutput {
            AccelOutput {
                consumed_at: now,
                emit: EmitList::one((now, 0, t, pkt)),
            }
        }
    }

    #[test]
    fn poisson_arrivals_hit_the_mean_and_widen_the_tail() {
        let run = |mode: GenMode| {
            let gen = ClientGen::fixed_udp(mode, 100_000, 200);
            let mut sys = FldSystem::new(
                SystemConfig::remote(),
                Box::new(Echo),
                HostMode::Consume,
                gen,
            );
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
                .unwrap();
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
                .unwrap();
            sys.run(SimTime::from_millis(2), SimTime::from_millis(60))
        };
        // 60% load: both modes deliver the offered rate, but Poisson
        // arrivals produce queueing variance the deterministic stream lacks.
        let rate = 0.6 * 25e9 / (242.0 * 8.0);
        let det = run(GenMode::OpenLoop { rate });
        let poi = run(GenMode::Poisson { rate });
        let det_gbps = det.client_rate.gbps();
        let poi_gbps = poi.client_rate.gbps();
        assert!(
            (det_gbps - poi_gbps).abs() / det_gbps < 0.05,
            "{det_gbps} vs {poi_gbps}"
        );
        // Deterministic arrivals at 60% load see no queueing: the p99-p50
        // spread is just PCIe jitter. Poisson bursts add queue wait on top.
        let det_spread = det
            .rtt
            .percentile(99.0)
            .saturating_sub(det.rtt.percentile(50.0));
        let poi_spread = poi
            .rtt
            .percentile(99.0)
            .saturating_sub(poi.rtt.percentile(50.0));
        assert!(
            poi_spread > det_spread + 200,
            "poisson p99 spread {poi_spread} ns vs deterministic {det_spread} ns"
        );
    }
}
