//! The end-to-end system simulation for RDMA-path (FLD-R) experiments:
//! a client QP on a remote node (or the local host) connected to an FLD-R
//! QP whose data path terminates in the accelerator (paper § 8 *Setup*,
//! Figures 7b/7c/8).
//!
//! The NIC's hardware RC transport ([`fld_nic::rdma::RcQp`]) runs on both
//! ends: requests segment into MTU-sized RoCE packets on the wire, ACKs
//! consume reverse bandwidth, and received segments DMA over PCIe into FLD
//! incrementally (the § 6 multi-packet RQ behaviour: *"Messages comprising
//! multiple packets generate completions when a packet arrives … allows
//! processing the message incrementally"*).

use std::collections::VecDeque;

use fld_net::roce::BthOpcode;
use fld_nic::rdma::{QpConfig, RcQp, RdmaEvent, RdmaPacket};
use fld_pcie::config::PcieConfig;
use fld_pcie::model::{FldModel, ETH_OVERHEAD};
use fld_pcie::tlp::TlpOutcome;
use fld_pcie::TlpCounters;
use fld_sim::audit::{AuditReport, Auditor};
use fld_sim::counters::{CounterSnapshot, CounterTree};
use fld_sim::engine::{Engine, Model, Probes};
use fld_sim::fault::{Booking, FaultInjector, FaultKind, FaultOutcome, FaultPlan};
use fld_sim::link::Link;
use fld_sim::metrics::MetricsRegistry;
use fld_sim::probe::Timeline;
use fld_sim::rng::SimRng;
use fld_sim::stats::{Histogram, RateMeter};
use fld_sim::time::{Bandwidth, SimDuration, SimTime};

use crate::lifecycle::Recorder;
use crate::params::SystemParams;

/// A message-level accelerator behind FLD-R (echo, ZUC cipher, …).
///
/// `Send` so systems embedding one can move across the parallel sweep
/// runner's worker threads.
pub trait MsgAccelerator: std::fmt::Debug + Send {
    /// Processes a request of `bytes` arriving at `now`; returns when the
    /// response is ready and how large it is.
    fn process_message(&mut self, bytes: u32, now: SimTime) -> (SimTime, u32);

    /// Short display name.
    fn name(&self) -> &'static str {
        "msg-accelerator"
    }

    /// Pending-work backlog in nanoseconds of processing time — the
    /// `accel.queue_depth` flight-recorder probe.
    fn queue_depth(&self, now: SimTime) -> f64 {
        let _ = now;
        0.0
    }
}

/// A zero-cost echo responder.
#[derive(Debug, Default)]
pub struct MsgEcho;

impl MsgAccelerator for MsgEcho {
    fn process_message(&mut self, bytes: u32, now: SimTime) -> (SimTime, u32) {
        (now, bytes)
    }

    fn name(&self) -> &'static str {
        "echo"
    }
}

/// Configuration of an FLD-R experiment.
#[derive(Debug, Clone, Copy)]
pub struct RdmaConfig {
    /// Latency/cost parameters.
    pub params: SystemParams,
    /// NIC–FLD PCIe fabric.
    pub pcie: PcieConfig,
    /// Client access link (25 GbE wire remote; 50 Gbps PCIe local).
    pub client_rate: Bandwidth,
    /// One-way client link latency.
    pub client_latency: SimDuration,
    /// Request payload bytes per message (including any application
    /// header).
    pub request_bytes: u32,
    /// Outstanding requests (queue depth).
    pub window: u32,
    /// Total requests to issue.
    pub total: u64,
    /// Client-side per-message CPU cost (the paper's small-message client
    /// bottleneck, § 8.1.2).
    pub client_msg_cost: SimDuration,
}

impl RdmaConfig {
    /// Remote setup: client behind the 25 GbE wire.
    pub fn remote(request_bytes: u32, window: u32, total: u64) -> Self {
        let params = SystemParams::default();
        RdmaConfig {
            params,
            pcie: PcieConfig::innova2_gen3_x8(),
            client_rate: params.line_rate,
            // The remote path crosses the client's own NIC plus the wire.
            client_latency: params.wire_latency + params.nic_latency,
            request_bytes,
            window,
            total,
            client_msg_cost: params.cpu_per_packet,
        }
    }

    /// Local setup: client QP on the host of the same Innova-2.
    pub fn local(request_bytes: u32, window: u32, total: u64) -> Self {
        let params = SystemParams::default();
        RdmaConfig {
            client_rate: Bandwidth::gbps(50.0),
            client_latency: params.pcie_latency,
            ..RdmaConfig::remote(request_bytes, window, total)
        }
    }
}

/// Results of an FLD-R run.
#[derive(Debug)]
pub struct RdmaRunStats {
    /// Request-payload goodput observed at the client.
    pub goodput: RateMeter,
    /// Request→response latency (ns).
    pub latency: Histogram,
    /// Completed requests.
    pub completed: u64,
    /// Requests abandoned because a QP reached its terminal error state
    /// (retry-budget exhaustion or an unrecoverable NAK); zero unless
    /// faults are injected.
    pub failed: u64,
    /// Wire-level retransmissions (should be 0 in lossless runs).
    pub retransmits: u64,
    /// Hierarchical snapshot of every component's counters at run end.
    pub metrics: MetricsRegistry,
    /// Flight-recorder timeline (empty unless
    /// [`RdmaSystem::enable_flight_recorder`] was called).
    pub timeline: Timeline,
    /// Invariant-audit summary (always populated).
    pub audit: AuditReport,
    /// Total calendar events the run scheduled.
    pub events: u64,
    /// The engine's self-profile (inert unless `fld_sim::prof::set_enabled`
    /// armed the running thread before the run).
    pub profile: fld_sim::prof::Profile,
    /// End-of-run snapshot of the per-entity hardware counter tree
    /// (`qp/<n>/...`, `pcie/fn/<f>/...`, plus `faults/*`/`recovery/*`
    /// when injection was armed).
    pub counters: CounterSnapshot,
}

/// Calendar events of the FLD-R model.
///
/// Public only because it is [`RdmaSystem`]'s [`Model::Ev`]; callers never
/// construct these — [`Model::start`] and the handlers schedule them.
#[derive(Debug)]
pub enum RdmaEv {
    /// Client issues requests (window permitting).
    Gen,
    /// A RoCE packet arrived at the server NIC.
    ServerPkt(RdmaPacket),
    /// A RoCE packet arrived at the client NIC.
    ClientPkt(RdmaPacket),
    /// A complete request message is available in FLD for the accelerator.
    AccelMsg(u32),
    /// The accelerator's response is ready for transmission.
    ServerSend(u32),
    /// Retransmission-timer check, client side.
    ClientTimer,
    /// Retransmission-timer check, server side.
    ServerTimer,
}

/// The FLD-R system simulator.
pub struct RdmaSystem {
    cfg: RdmaConfig,
    wire_up: Link,
    wire_down: Link,
    pcie_to_fld: Link,
    pcie_from_fld: Link,
    loads: FldModel,
    client_qp: RcQp,
    server_qp: RcQp,
    accel: Box<dyn MsgAccelerator>,
    // Client request tracking (responses complete in order).
    sent: u64,
    outstanding: u64,
    next_wr: u64,
    request_times: VecDeque<SimTime>,
    gen_next_allowed: SimTime,
    /// Whether a Gen event is already pending (single-pacer guard: without
    /// it every response would spawn its own self-rescheduling generator
    /// event and the calendar would grow quadratically).
    gen_armed: bool,
    // Incremental DMA tracking for the in-progress inbound message.
    msg_dma_done: SimTime,
    // Timer arming flags.
    client_timer_armed: bool,
    server_timer_armed: bool,
    // Fault injection (None = faults disabled, zero overhead).
    faults: Option<FaultInjector>,
    /// A QP hit its terminal error state: generation stops, outstanding
    /// requests are written off as failed.
    halted: bool,
    rng: SimRng,
    // Measurement.
    stats: RdmaRunStats,
    measure_from: SimTime,
    // Flight recorder.
    rec: Recorder,
    /// The per-entity hardware counter tree (QP groups wired at
    /// construction; fault attribution wired by
    /// [`RdmaSystem::enable_faults`]).
    counters: CounterTree,
    /// The NIC-FLD PCIe function's counter group.
    pcie_ctr: TlpCounters,
}

impl std::fmt::Debug for RdmaSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdmaSystem")
            .field("accel", &self.accel.name())
            .finish()
    }
}

impl RdmaSystem {
    /// Builds a connected client↔FLD-R QP pair around `accel`.
    pub fn new(cfg: RdmaConfig, accel: Box<dyn MsgAccelerator>) -> Self {
        let qp_config = QpConfig {
            mtu: cfg.params.roce_mtu,
            ..QpConfig::default()
        };
        let counters = CounterTree::new();
        let pcie_ctr = TlpCounters::wired(&counters, 0);
        let mut client_qp = RcQp::new(0x100, qp_config);
        let mut server_qp = RcQp::new(0x200, qp_config);
        client_qp.connect(0x200);
        server_qp.connect(0x100);
        client_qp.wire_counters(&counters);
        server_qp.wire_counters(&counters);
        RdmaSystem {
            cfg,
            wire_up: Link::new(cfg.client_rate, cfg.client_latency),
            wire_down: Link::new(cfg.client_rate, cfg.client_latency),
            pcie_to_fld: Link::new(cfg.pcie.rate, cfg.pcie.latency),
            pcie_from_fld: Link::new(cfg.pcie.rate, cfg.pcie.latency),
            loads: FldModel::new(cfg.pcie),
            client_qp,
            server_qp,
            accel,
            sent: 0,
            outstanding: 0,
            next_wr: 0,
            request_times: VecDeque::new(),
            gen_next_allowed: SimTime::ZERO,
            gen_armed: false,
            msg_dma_done: SimTime::ZERO,
            client_timer_armed: false,
            server_timer_armed: false,
            faults: None,
            halted: false,
            rng: SimRng::seed_from(0xF1D8),
            stats: RdmaRunStats {
                goodput: RateMeter::new(),
                latency: Histogram::new(),
                completed: 0,
                failed: 0,
                retransmits: 0,
                metrics: MetricsRegistry::new(),
                timeline: Timeline::disabled(),
                audit: AuditReport::default(),
                events: 0,
                profile: fld_sim::prof::Profile::default(),
                counters: CounterSnapshot::new(),
            },
            measure_from: SimTime::ZERO,
            rec: Recorder::new(),
            counters,
            pcie_ctr,
        }
    }

    /// The system's hierarchical hardware-counter tree.
    pub fn counter_tree(&self) -> &CounterTree {
        &self.counters
    }

    /// Enables the flight recorder: every probe is sampled each
    /// `interval` of simulated time and per-tick invariant audits run.
    pub fn enable_flight_recorder(&mut self, interval: SimDuration) {
        self.rec.enable_flight_recorder(interval);
    }

    /// Escalates invariant violations to panics for this system (the
    /// only way to arm strict auditing).
    pub fn enable_strict_audit(&mut self) {
        self.rec.enable_strict_audit();
    }

    /// Arms fault injection: link faults on both wire directions, PCIe
    /// completion faults on the NIC's payload fetches, RNR conditions at
    /// the FLD-R responder — all drawn from `plan`'s seeded streams and
    /// booked in the injector's own ledger.
    pub fn enable_faults(&mut self, plan: &FaultPlan) {
        self.faults = Some(plan.injector("rdma", &self.counters));
    }

    /// Runs to completion or `deadline`; measures from `warmup`.
    pub fn run(mut self, warmup: SimTime, deadline: SimTime) -> RdmaRunStats {
        self.measure_from = warmup;
        self.stats.goodput.start(warmup);
        let engine = self.rec.take_engine();
        let done = engine.run(&mut self, deadline);
        self.stats.audit = done.audit;
        self.stats.metrics = done.metrics;
        self.stats.events = done.events;
        self.stats.timeline = done.timeline;
        self.stats.profile = done.profile;
        self.stats.counters = self.counters.snapshot();
        self.stats
    }

    /// Per-transfer PCIe arbitration jitter plus rare ordering stalls (§ 6).
    fn pcie_jitter(&mut self) -> SimDuration {
        let bound = self.cfg.params.pcie_jitter.as_picos().max(1);
        let mut j = SimDuration::from_picos(self.rng.next_below(bound));
        if self.rng.chance(self.cfg.params.pcie_stall_prob) {
            j += self.cfg.params.pcie_stall;
        }
        j
    }

    fn schedule_gen(&mut self, at: SimTime, eng: &mut Engine<RdmaEv>) {
        if !self.gen_armed {
            self.gen_armed = true;
            eng.schedule_at(at, RdmaEv::Gen);
        }
    }

    fn arm_client_timer(&mut self, now: SimTime, eng: &mut Engine<RdmaEv>) {
        if self.client_timer_armed {
            return;
        }
        if let Some(t) = self.client_qp.next_timeout() {
            self.client_timer_armed = true;
            eng.schedule_at(t.max(now), RdmaEv::ClientTimer);
        }
    }

    fn arm_server_timer(&mut self, now: SimTime, eng: &mut Engine<RdmaEv>) {
        if self.server_timer_armed {
            return;
        }
        if let Some(t) = self.server_qp.next_timeout() {
            self.server_timer_armed = true;
            eng.schedule_at(t.max(now), RdmaEv::ServerTimer);
        }
    }

    /// Schedules a wire arrival, applying link-fault disposition when
    /// injection is armed: drop/corrupt lose the packet (ledgered as an
    /// open fault the transport must recover), duplicate delivers twice
    /// (the RC transport dedups by PSN — intrinsic recovery), reorder adds
    /// a seeded delay. With faults off this is exactly one `schedule_at`.
    fn deliver(
        &mut self,
        now: SimTime,
        at: SimTime,
        to_server: bool,
        pkt: RdmaPacket,
        eng: &mut Engine<RdmaEv>,
    ) {
        let mk = |p: RdmaPacket| {
            if to_server {
                RdmaEv::ServerPkt(p)
            } else {
                RdmaEv::ClientPkt(p)
            }
        };
        let Some(inj) = self.faults.as_mut() else {
            eng.schedule_at(at, mk(pkt));
            return;
        };
        let open = Booking::Open(now);
        // A corrupt frame fails its FCS at the receiving NIC: same loss,
        // different cause — the transport cannot tell them apart either.
        if inj.hit(FaultKind::LinkDrop, open) || inj.hit(FaultKind::LinkCorrupt, open) {
            return;
        }
        let duplicated = Booking::Resolved(FaultOutcome::Recovered, Some(SimDuration::ZERO));
        if inj.hit(FaultKind::LinkDuplicate, duplicated) {
            eng.schedule_at(at, mk(pkt));
            eng.schedule_at(at, mk(pkt));
            return;
        }
        let max_delay = SimDuration::from_micros(5);
        let delay = inj.hit_for(FaultKind::LinkReorder, max_delay, |_| open);
        eng.schedule_at(at + delay.unwrap_or_default(), mk(pkt));
    }

    fn pump_client(&mut self, now: SimTime, eng: &mut Engine<RdmaEv>) {
        for pkt in self.client_qp.poll_transmit(now) {
            let arrive = self
                .wire_up
                .transmit(now, pkt.frame_len() as u64 + ETH_OVERHEAD);
            self.deliver(now, arrive + self.cfg.params.roce_latency, true, pkt, eng);
        }
        self.arm_client_timer(now, eng);
    }

    /// Transmits a server-QP packet: the NIC fetches the payload from FLD
    /// over PCIe, then serializes onto the wire.
    fn transmit_server_pkt(&mut self, now: SimTime, pkt: RdmaPacket, eng: &mut Engine<RdmaEv>) {
        let (to_fld, to_nic) = self.loads.tx_wire_bytes(pkt.frame_len());
        self.pcie_ctr.record_tlp(to_nic);
        self.pcie_to_fld.transmit(now, to_fld);
        let mut fetched = self.pcie_from_fld.transmit(now, to_nic) + self.pcie_jitter();
        if let Some(inj) = self.faults.as_mut() {
            // The NIC's payload fetch hits the completion-timeout window
            // before retrying successfully.
            let penalty = SimDuration::from_micros(10);
            let timed_out = Booking::Resolved(FaultOutcome::Recovered, Some(penalty));
            let outcome = if inj.hit(FaultKind::PcieTimeout, timed_out) {
                TlpOutcome::CompletionTimeout
            } else if inj.hit(FaultKind::PciePoison, Booking::Open(now)) {
                TlpOutcome::Poisoned
            } else {
                TlpOutcome::Success
            };
            self.pcie_ctr.record_outcome(outcome);
            match outcome {
                TlpOutcome::Success => {}
                TlpOutcome::CompletionTimeout => fetched += penalty,
                // EP bit set: the fetched payload is known-corrupt, the
                // NIC discards it (error containment) and the packet
                // never reaches the wire; the transport retransmits.
                TlpOutcome::Poisoned => return,
            }
        }
        let arrive = self
            .wire_down
            .transmit(fetched, pkt.frame_len() as u64 + ETH_OVERHEAD);
        self.deliver(now, arrive + self.cfg.params.roce_latency, false, pkt, eng);
    }

    fn pump_server(&mut self, now: SimTime, eng: &mut Engine<RdmaEv>) {
        for pkt in self.server_qp.poll_transmit(now) {
            self.transmit_server_pkt(now, pkt, eng);
        }
        self.arm_server_timer(now, eng);
    }

    /// A QP reached its terminal error state: stop generating, write off
    /// outstanding requests, and close the fault ledger's open entries as
    /// terminal (the transport will never recover them).
    fn on_fatal(&mut self, _now: SimTime) {
        if self.halted {
            return;
        }
        self.halted = true;
        self.stats.failed += self.outstanding;
        self.outstanding = 0;
        self.request_times.clear();
        if let Some(inj) = &mut self.faults {
            inj.ledger_mut().fail_open();
        }
    }

    fn on_gen(&mut self, now: SimTime, eng: &mut Engine<RdmaEv>) {
        if self.halted || self.sent >= self.cfg.total || self.outstanding >= self.cfg.window as u64
        {
            return;
        }
        if now < self.gen_next_allowed {
            self.schedule_gen(self.gen_next_allowed, eng);
            return;
        }
        let wr = self.next_wr;
        self.next_wr += 1;
        self.sent += 1;
        self.outstanding += 1;
        self.request_times.push_back(now);
        self.client_qp.post_send(wr, self.cfg.request_bytes);
        self.gen_next_allowed = now + self.cfg.client_msg_cost;
        self.pump_client(now, eng);
        // Fill the remaining window (subject to client CPU pacing).
        if self.outstanding < self.cfg.window as u64 && self.sent < self.cfg.total {
            self.schedule_gen(self.gen_next_allowed, eng);
        }
    }

    fn on_server_pkt(&mut self, now: SimTime, pkt: RdmaPacket, eng: &mut Engine<RdmaEv>) {
        // RNR condition: the FLD-R responder would accept this in-order
        // request but has no receive WQE posted — reject with an RNR NAK
        // instead (the requester backs off and retries).
        if pkt.opcode != BthOpcode::Ack && pkt.psn == self.server_qp.expected_psn() {
            let rnr = self
                .faults
                .as_mut()
                .is_some_and(|inj| inj.hit(FaultKind::Rnr, Booking::Open(now)));
            if rnr {
                let nak = self.server_qp.make_rnr_nak(&pkt);
                let arrive = self
                    .wire_down
                    .transmit(now, nak.frame_len() as u64 + ETH_OVERHEAD);
                self.deliver(now, arrive, false, nak, eng);
                return;
            }
        }
        let (events, ack) = self.server_qp.on_packet(now, &pkt);
        if let Some(ack) = ack {
            let arrive = self
                .wire_down
                .transmit(now, ack.frame_len() as u64 + ETH_OVERHEAD);
            self.deliver(now, arrive, false, ack, eng);
        }
        for ev in events {
            match ev {
                RdmaEvent::RecvSegment { bytes, .. } => {
                    // DMA this segment into FLD.
                    let (to_fld, to_nic) = self.loads.rx_wire_bytes(bytes + 58);
                    self.pcie_ctr.record_tlp(to_fld);
                    self.pcie_from_fld.transmit(now, to_nic);
                    self.msg_dma_done = self.pcie_to_fld.transmit(now, to_fld) + self.pcie_jitter();
                }
                RdmaEvent::RecvComplete { bytes, .. } => {
                    let at = self.msg_dma_done.max(now) + self.cfg.params.fld_latency;
                    eng.schedule_at(at, RdmaEv::AccelMsg(bytes));
                }
                RdmaEvent::SendComplete { .. } => {}
                RdmaEvent::Fatal => self.on_fatal(now),
            }
        }
        // ACK arrivals may have opened the window.
        self.pump_server(now, eng);
    }

    fn on_client_pkt(&mut self, now: SimTime, pkt: RdmaPacket, eng: &mut Engine<RdmaEv>) {
        let (events, ack) = self.client_qp.on_packet(now, &pkt);
        if let Some(ack) = ack {
            let arrive = self
                .wire_up
                .transmit(now, ack.frame_len() as u64 + ETH_OVERHEAD);
            self.deliver(now, arrive, true, ack, eng);
        }
        for ev in events {
            match ev {
                RdmaEvent::RecvComplete { .. } => {
                    // Responses complete in order; match to the oldest request.
                    if let Some(t0) = self.request_times.pop_front() {
                        if now >= self.measure_from {
                            self.stats.latency.record(now.since(t0).as_nanos());
                            self.stats.goodput.record(self.cfg.request_bytes as u64);
                        }
                        self.stats.completed += 1;
                        self.outstanding -= 1;
                        self.schedule_gen(now, eng);
                        // End-to-end progress: every wire fault opened
                        // before this instant has been recovered by the
                        // transport (the response made it through).
                        if let Some(inj) = &mut self.faults {
                            inj.ledger_mut().resolve_open_through(now);
                        }
                    }
                }
                RdmaEvent::Fatal => self.on_fatal(now),
                _ => {}
            }
        }
        self.pump_client(now, eng);
    }

    fn on_accel_msg(&mut self, now: SimTime, bytes: u32, eng: &mut Engine<RdmaEv>) {
        let (done, resp) = self.accel.process_message(bytes, now);
        eng.schedule_at(done.max(now), RdmaEv::ServerSend(resp));
    }

    fn on_server_send(&mut self, now: SimTime, bytes: u32, eng: &mut Engine<RdmaEv>) {
        let wr = self.next_wr;
        self.next_wr += 1;
        self.server_qp.post_send(wr, bytes);
        self.pump_server(now, eng);
    }
}

impl Model for RdmaSystem {
    type Ev = RdmaEv;

    fn start(&mut self, eng: &mut Engine<RdmaEv>) {
        self.gen_armed = true;
        eng.schedule_at(SimTime::ZERO, RdmaEv::Gen);
    }

    fn handle(&mut self, now: SimTime, ev: RdmaEv, eng: &mut Engine<RdmaEv>) {
        match ev {
            RdmaEv::Gen => {
                self.gen_armed = false;
                self.on_gen(now, eng);
            }
            RdmaEv::ServerPkt(pkt) => self.on_server_pkt(now, pkt, eng),
            RdmaEv::ClientPkt(pkt) => self.on_client_pkt(now, pkt, eng),
            RdmaEv::AccelMsg(bytes) => self.on_accel_msg(now, bytes, eng),
            RdmaEv::ServerSend(bytes) => self.on_server_send(now, bytes, eng),
            RdmaEv::ClientTimer => {
                self.client_timer_armed = false;
                let pkts = self.client_qp.poll_timeout(now);
                if self.client_qp.take_fatal() {
                    self.on_fatal(now);
                }
                for pkt in pkts {
                    let arrive = self
                        .wire_up
                        .transmit(now, pkt.frame_len() as u64 + ETH_OVERHEAD);
                    self.deliver(now, arrive, true, pkt, eng);
                }
                self.arm_client_timer(now, eng);
            }
            RdmaEv::ServerTimer => {
                self.server_timer_armed = false;
                let pkts = self.server_qp.poll_timeout(now);
                if self.server_qp.take_fatal() {
                    self.on_fatal(now);
                }
                for pkt in pkts {
                    self.transmit_server_pkt(now, pkt, eng);
                }
                self.arm_server_timer(now, eng);
            }
        }
    }

    fn event_label(ev: &RdmaEv) -> &'static str {
        match ev {
            RdmaEv::Gen => "Gen",
            RdmaEv::ServerPkt(_) => "ServerPkt",
            RdmaEv::ClientPkt(_) => "ClientPkt",
            RdmaEv::AccelMsg(_) => "AccelMsg",
            RdmaEv::ServerSend(_) => "ServerSend",
            RdmaEv::ClientTimer => "ClientTimer",
            RdmaEv::ServerTimer => "ServerTimer",
        }
    }

    fn lanes() -> usize {
        7
    }

    /// One lane per kind, as in `FldSystem`.
    fn lane(ev: &RdmaEv) -> usize {
        match ev {
            RdmaEv::Gen => 0,
            RdmaEv::ServerPkt(_) => 1,
            RdmaEv::ClientPkt(_) => 2,
            RdmaEv::AccelMsg(_) => 3,
            RdmaEv::ServerSend(_) => 4,
            RdmaEv::ClientTimer => 5,
            RdmaEv::ServerTimer => 6,
        }
    }

    /// One flight-recorder tick's probes; push order is the timeline
    /// series order -- append only.
    fn probes(&mut self, now: SimTime, interval: SimDuration, out: &mut Probes) {
        {
            let _prof = fld_sim::prof::scope("sample.probes.qps");
            self.client_qp.probes("rdma.client", out);
            self.server_qp.probes("rdma.server", out);
        }
        out.push("rdma.client.outstanding_msgs", self.outstanding as f64);
        out.push("accel.queue_depth", self.accel.queue_depth(now));
        let _prof = fld_sim::prof::scope("sample.probes.stages");
        out.push("stage.wire_up.util", self.wire_up.window_util(interval));
        out.push("stage.wire_down.util", self.wire_down.window_util(interval));
        out.push("stage.pcie_rx.util", self.pcie_to_fld.window_util(interval));
        out.push(
            "stage.pcie_tx.util",
            self.pcie_from_fld.window_util(interval),
        );
        if let Some(inj) = &mut self.faults {
            inj.ledger_mut().probes(out);
        }
    }

    fn audit(&mut self, at: SimTime, auditor: &mut Auditor) {
        // Message-level conservation is a system property: the QPs only
        // see packets.
        let (sent, completed, outstanding) = (self.sent, self.stats.completed, self.outstanding);
        auditor.check_conservation(
            at,
            "rdma.client",
            sent,
            completed,
            self.stats.failed,
            outstanding,
        );
        self.client_qp.audit("qp.client", at, auditor);
        self.server_qp.audit("qp.server", at, auditor);
        // Counter telescoping: each QP's `qp/<n>/...` group must mirror
        // its integer statistics exactly, at every audit instant.
        self.client_qp.audit_counters(at, auditor);
        self.server_qp.audit_counters(at, auditor);
        if let Some(inj) = &mut self.faults {
            inj.ledger_mut().audit(at, "rdma", auditor);
            auditor.check_counter_eq(
                at,
                "counters.pcie",
                &self.pcie_ctr.completion_timeouts,
                inj.counter(FaultKind::PcieTimeout).get(),
            );
            auditor.check_counter_eq(
                at,
                "counters.pcie",
                &self.pcie_ctr.poisoned_tlps,
                inj.counter(FaultKind::PciePoison).get(),
            );
        }
    }

    fn drained_audit(&mut self, at: SimTime, auditor: &mut Auditor) {
        let (sent, completed, outstanding) = (self.sent, self.stats.completed, self.outstanding);
        let failed = self.stats.failed;
        auditor.check(
            at,
            "rdma.client",
            "conservation",
            sent == completed + failed && outstanding == 0,
            || {
                format!(
                    "drained run left {outstanding} outstanding \
                     (sent {sent}, completed {completed}, failed {failed})"
                )
            },
        );
        if let Some(inj) = &mut self.faults {
            inj.ledger_mut().drained_audit(at, "rdma", auditor);
        }
    }

    fn finish(&mut self, end: SimTime, drained: bool) {
        self.stats.goodput.finish(end);
        self.stats.retransmits = self.client_qp.retransmits() + self.server_qp.retransmits();
        if let Some(inj) = &mut self.faults {
            // Close the books: a run that drained without a terminal QP
            // error recovered every open fault by definition (all traffic
            // was delivered); a halted run's leftovers are terminal.
            if self.halted {
                inj.ledger_mut().fail_open();
            } else if drained {
                inj.ledger_mut().resolve_open_through(end);
            }
        }
    }

    fn export_metrics(&mut self, end: SimTime, _timeline: &Timeline, m: &mut MetricsRegistry) {
        self.wire_up.export_metrics("link.wire_up", end, m);
        self.wire_down.export_metrics("link.wire_down", end, m);
        self.pcie_to_fld.export_metrics("link.pcie.to_fld", end, m);
        self.pcie_from_fld
            .export_metrics("link.pcie.from_fld", end, m);
        self.client_qp.export_metrics("qp.client", m);
        self.server_qp.export_metrics("qp.server", m);
        m.counter("client.sent", self.sent);
        m.counter("client.completed", self.stats.completed);
        m.counter("client.failed", self.stats.failed);
        m.rate("client.goodput", &self.stats.goodput);
        m.histogram("latency.rtt_ns", &self.stats.latency);
        if let Some(inj) = &mut self.faults {
            inj.ledger_mut().export(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_run(cfg: RdmaConfig) -> RdmaRunStats {
        RdmaSystem::new(cfg, Box::new(MsgEcho)).run(SimTime::ZERO, SimTime::from_secs(10))
    }

    /// The parallel sweep runner moves whole systems across worker
    /// threads; losing `Send` would break it at a distance.
    #[test]
    fn system_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RdmaSystem>();
    }

    /// The `qp/<n>/...` counter groups and the PCIe function group land
    /// in the run snapshot and mirror the aggregates (the per-tick mirror
    /// audit itself runs under strict audit).
    #[test]
    fn qp_counters_land_in_the_run_snapshot() {
        let mut sys = RdmaSystem::new(RdmaConfig::remote(4096, 8, 500), Box::new(MsgEcho));
        sys.enable_strict_audit();
        let stats = sys.run(SimTime::ZERO, SimTime::from_secs(10));
        assert!(stats.audit.passed(), "{:?}", stats.audit.recorded);
        let snap = &stats.counters;
        assert!(
            snap.get("qp/256/tx_packets").unwrap() > 0,
            "client QP transmitted"
        );
        assert!(
            snap.get("qp/512/rx_packets").unwrap() > 0,
            "server QP received"
        );
        assert_eq!(snap.get("qp/256/retransmits"), Some(0), "lossless run");
        assert!(
            snap.get("pcie/fn/0/tlps").unwrap() > 0,
            "payload fetches counted"
        );
        assert_eq!(snap.get("pcie/fn/0/completion_timeouts"), Some(0));
    }

    #[test]
    fn single_request_round_trips() {
        let stats = echo_run(RdmaConfig::remote(1024, 1, 100));
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.retransmits, 0);
        // Low-load 1 KiB latency lands in the ~10 us regime (Fig 7c:
        // "median latency is 9.4 us for local access and 10.6 us for
        // remote" — our calibration targets the same order).
        let p50 = stats.latency.percentile(50.0);
        assert!(p50 > 2_000 && p50 < 30_000, "p50 {p50} ns");
    }

    #[test]
    fn multi_packet_messages_round_trip() {
        // 8 KiB messages segment into 8 MTU packets each way.
        let stats = echo_run(RdmaConfig::remote(8192, 4, 200));
        assert_eq!(stats.completed, 200);
        assert_eq!(stats.retransmits, 0);
    }

    #[test]
    fn throughput_approaches_line_rate_for_large_messages() {
        let stats = echo_run(RdmaConfig::remote(4096, 64, 40_000));
        let gbps = stats.goodput.gbps();
        assert!(gbps > 19.0, "goodput {gbps:.2} Gbps");
        assert!(gbps < 25.0);
    }

    #[test]
    fn small_messages_are_client_bound() {
        // 64 B requests: the client's per-message CPU cost caps the rate
        // near 9.6 M msg/s, far below what the wire could carry.
        let stats = echo_run(RdmaConfig::remote(64, 64, 100_000));
        let mps = stats.goodput.mpps();
        assert!(mps < 10.0, "{mps:.2} Mmsg/s");
        assert!(mps > 5.0, "{mps:.2} Mmsg/s");
    }

    #[test]
    fn local_beats_remote_latency() {
        let remote = echo_run(RdmaConfig::remote(1024, 1, 500));
        let local = echo_run(RdmaConfig::local(1024, 1, 500));
        assert!(
            local.latency.percentile(50.0) < remote.latency.percentile(50.0),
            "local {} vs remote {}",
            local.latency.percentile(50.0),
            remote.latency.percentile(50.0)
        );
    }

    #[test]
    fn latency_grows_with_load() {
        let low = echo_run(RdmaConfig::remote(1024, 1, 2_000));
        let high = echo_run(RdmaConfig::remote(1024, 128, 50_000));
        assert!(
            high.latency.percentile(50.0) > low.latency.percentile(50.0) * 2,
            "queueing must dominate at high load: {} vs {}",
            high.latency.percentile(50.0),
            low.latency.percentile(50.0)
        );
    }

    #[test]
    fn deterministic() {
        let a = echo_run(RdmaConfig::remote(2048, 16, 5_000));
        let b = echo_run(RdmaConfig::remote(2048, 16, 5_000));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency.percentile(99.0), b.latency.percentile(99.0));
        assert_eq!(a.goodput.bytes(), b.goodput.bytes());
    }

    #[test]
    fn flight_recorder_samples_rdma_probes_and_audit_passes() {
        let mut sys = RdmaSystem::new(RdmaConfig::remote(4096, 32, 3_000), Box::new(MsgEcho));
        sys.enable_flight_recorder(SimDuration::from_nanos(1_000));
        sys.enable_strict_audit();
        let stats = sys.run(SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(stats.completed, 3_000);
        assert!(stats.audit.passed(), "{}", stats.audit);
        assert!(stats.audit.checks > 0);
        assert!(stats.timeline.ticks() > 100);
        for name in [
            "rdma.client.inflight_window",
            "rdma.client.outstanding_msgs",
            "stage.pcie_rx.util",
            "stage.wire_up.util",
        ] {
            assert!(stats.timeline.get(name).is_some(), "missing series {name}");
        }
        // The window was kept busy: the in-flight PSN window must have
        // been observed above zero at some tick.
        let inflight = stats.timeline.get("rdma.client.inflight_window").unwrap();
        assert!(inflight.values.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn audit_runs_even_without_flight_recorder() {
        let stats = echo_run(RdmaConfig::remote(1024, 4, 500));
        assert!(stats.audit.checks > 0);
        assert!(stats.audit.passed(), "{}", stats.audit);
        assert_eq!(stats.timeline.ticks(), 0);
    }
}
