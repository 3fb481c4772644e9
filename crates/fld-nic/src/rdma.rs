//! The NIC's hardware RDMA transport: reliable-connection (RC) queue pairs
//! with segmentation, ordering, acknowledgements and go-back-N retransmit.
//!
//! This is the offload that makes FLD-R possible: *"RDMA-capable NICs
//! implement the transport layer in hardware, but using it requires one to
//! access NIC's PCIe interface"* (§ 3) — which is exactly what FlexDriver
//! does. The model implements the transport at packet granularity so the
//! simulation exercises real segmentation, ACK traffic and loss recovery.

use std::collections::VecDeque;

use fld_net::roce::{AethSyndrome, BthOpcode, NakCode};
use fld_sim::audit::PSN_MOD;
use fld_sim::counters::{Counter, CounterTree};
use fld_sim::time::{SimDuration, SimTime};

use crate::burst::Burst;

/// Per-packet RoCE v2 framing bytes: Eth(14) + IPv4(20) + UDP(8) + BTH(12)
/// + ICRC(4).
pub const ROCE_HEADER_BYTES: u32 = 58;

/// Queue-pair states (IBTA state machine, reduced to what the model needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Freshly created.
    Reset,
    /// Ready to receive.
    ReadyToReceive,
    /// Ready to send (fully connected).
    ReadyToSend,
    /// Error: all work requests complete with failure.
    Error,
}

/// A packet emitted by the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdmaPacket {
    /// Destination QP number.
    pub dest_qp: u32,
    /// Source QP number.
    pub src_qp: u32,
    /// Opcode (send first/middle/last/only or ack).
    pub opcode: BthOpcode,
    /// AETH syndrome carried by acknowledge packets: positive ACK, RNR
    /// NAK, or NAK with code. Data packets always carry
    /// [`AethSyndrome::Ack`].
    pub syndrome: AethSyndrome,
    /// Packet sequence number.
    pub psn: u32,
    /// Payload bytes (0 for ACKs).
    pub payload: u32,
    /// Work-request id of the message this packet belongs to (model-level
    /// convenience; real BTH carries no wr_id).
    pub wr_id: u64,
}

impl RdmaPacket {
    /// Total frame bytes on the wire.
    pub fn frame_len(&self) -> u32 {
        self.payload + ROCE_HEADER_BYTES
    }
}

/// Completion and delivery events surfaced to the QP owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaEvent {
    /// A posted send has been acknowledged end-to-end.
    SendComplete {
        /// Work request id.
        wr_id: u64,
    },
    /// Payload bytes of an incoming message arrived (MPRQ-style incremental
    /// delivery: one event per packet, § 6 "allows processing the message
    /// incrementally").
    RecvSegment {
        /// Bytes in this segment.
        bytes: u32,
        /// Source QP.
        src_qp: u32,
    },
    /// An incoming message completed (last packet arrived in order).
    RecvComplete {
        /// Total message bytes.
        bytes: u32,
        /// Source QP.
        src_qp: u32,
    },
    /// The QP transitioned to the error state.
    Fatal,
}

#[derive(Debug, Clone, Copy)]
struct PendingSend {
    wr_id: u64,
    total: u32,
    start_psn: u32,
    /// Packets the message segments into (at least one), and how many of
    /// them were emitted (all but the last carry a full MTU).
    packets: u32,
    sent_packets: u32,
}

#[derive(Debug, Clone, Copy)]
struct InflightPacket {
    psn: u32,
    payload: u32,
    opcode: BthOpcode,
    wr_id: u64,
    sent_at: SimTime,
}

/// Configuration of an RC queue pair.
#[derive(Debug, Clone, Copy)]
pub struct QpConfig {
    /// Path MTU in bytes (the paper's RoCE experiments use 1024).
    pub mtu: u32,
    /// Maximum outstanding (unacknowledged) packets.
    pub window: usize,
    /// Retransmission timeout.
    pub retransmit_timeout: SimDuration,
    /// Generate an ACK after this many received packets (coalescing);
    /// the last packet of a message always ACKs.
    pub ack_coalesce: u32,
    /// Consecutive transport retries (timeouts or sequence-error NAKs)
    /// without forward progress before the QP enters the error state
    /// (IBTA `retry_cnt`; 7 is the common verbs default).
    pub retry_cnt: u8,
    /// RNR NAKs tolerated before the QP enters the error state (IBTA
    /// `rnr_retry`; 7 would mean "infinite" in verbs — the model keeps it
    /// a hard budget so exhaustion is testable).
    pub rnr_retry: u8,
    /// Backoff before retransmitting after an RNR NAK (the decoded IBTA
    /// RNR timer).
    pub rnr_timer: SimDuration,
}

impl Default for QpConfig {
    fn default() -> Self {
        QpConfig {
            mtu: 1024,
            window: 256,
            retransmit_timeout: SimDuration::from_micros(100),
            ack_coalesce: 4,
            retry_cnt: 7,
            rnr_retry: 7,
            rnr_timer: SimDuration::from_micros(20),
        }
    }
}

/// A reliable-connection queue pair (one side).
#[derive(Debug)]
pub struct RcQp {
    qpn: u32,
    peer_qpn: u32,
    state: QpState,
    config: QpConfig,
    // --- requester (send) side ---
    send_queue: VecDeque<PendingSend>,
    next_psn: u32,
    inflight: VecDeque<InflightPacket>,
    // --- responder (receive) side ---
    expected_psn: u32,
    recv_in_progress: u32,
    unacked_count: u32,
    /// One sequence-error NAK per gap episode (cleared by in-order
    /// arrival) so a burst of out-of-order packets cannot start a NAK
    /// storm.
    nak_armed: bool,
    // --- recovery state (requester side) ---
    /// Consecutive transport retries (timeouts + sequence NAKs) without
    /// ACK progress; compared against `retry_cnt`.
    transport_retries: u8,
    /// RNR NAKs absorbed; compared against `rnr_retry`.
    rnr_retries: u8,
    /// NAK-scheduled go-back-N: retransmit everything once this instant
    /// arrives (set by sequence and RNR NAKs).
    recover_at: Option<SimTime>,
    /// Set when the QP transitions to Error on its own (budget
    /// exhaustion); drained by [`RcQp::take_fatal`].
    fatal_pending: bool,
    // --- stats ---
    retransmits: u64,
    sent_packets: u64,
    received_packets: u64,
    timeouts: u64,
    naks_sent: u64,
    naks_received: u64,
    rnr_naks_received: u64,
    /// Responder-side arrivals ahead of `expected_psn` (a gap episode's
    /// packets — what mlx5 reports as `out_of_sequence`).
    out_of_window: u64,
    /// Responder-side duplicate requests re-ACKed (the requester's
    /// original ACK was lost — mlx5's `duplicate_request`).
    duplicate_acks: u64,
    /// Counter-tree handles (`qp/<qpn>/...`), detached until
    /// [`RcQp::wire_counters`].
    ctr: QpCounters,
}

/// The per-QP counter group (one handle per exported statistic).
#[derive(Debug, Default)]
struct QpCounters {
    tx_packets: Counter,
    rx_packets: Counter,
    retransmits: Counter,
    timeouts: Counter,
    naks_sent: Counter,
    naks_received: Counter,
    rnr_naks: Counter,
    out_of_window: Counter,
    duplicate_acks: Counter,
}

impl RcQp {
    /// Creates a QP in the Reset state.
    ///
    /// # Panics
    ///
    /// Panics if `config.mtu` is zero (segmentation divides by it).
    pub fn new(qpn: u32, config: QpConfig) -> Self {
        assert!(config.mtu > 0, "QpConfig::mtu must be positive");
        RcQp {
            qpn,
            peer_qpn: 0,
            state: QpState::Reset,
            config,
            send_queue: VecDeque::new(),
            next_psn: 0,
            inflight: VecDeque::new(),
            expected_psn: 0,
            recv_in_progress: 0,
            unacked_count: 0,
            nak_armed: false,
            transport_retries: 0,
            rnr_retries: 0,
            recover_at: None,
            fatal_pending: false,
            retransmits: 0,
            sent_packets: 0,
            received_packets: 0,
            timeouts: 0,
            naks_sent: 0,
            naks_received: 0,
            rnr_naks_received: 0,
            out_of_window: 0,
            duplicate_acks: 0,
            ctr: QpCounters::default(),
        }
    }

    /// Registers this QP's counter group under `qp/<qpn>/...` in `tree`,
    /// carrying over anything counted before wiring. Every handle
    /// mirrors the like-named integer statistic exactly; the telescoping
    /// audit holds the two to each other.
    pub fn wire_counters(&mut self, tree: &CounterTree) {
        let base = format!("qp/{}", self.qpn);
        for (leaf, handle, backlog) in [
            ("tx_packets", &mut self.ctr.tx_packets, self.sent_packets),
            (
                "rx_packets",
                &mut self.ctr.rx_packets,
                self.received_packets,
            ),
            ("retransmits", &mut self.ctr.retransmits, self.retransmits),
            ("timeouts", &mut self.ctr.timeouts, self.timeouts),
            ("naks_sent", &mut self.ctr.naks_sent, self.naks_sent),
            (
                "naks_received",
                &mut self.ctr.naks_received,
                self.naks_received,
            ),
            ("rnr_naks", &mut self.ctr.rnr_naks, self.rnr_naks_received),
            (
                "out_of_window",
                &mut self.ctr.out_of_window,
                self.out_of_window,
            ),
            (
                "duplicate_acks",
                &mut self.ctr.duplicate_acks,
                self.duplicate_acks,
            ),
        ] {
            *handle = tree.counter(&format!("{base}/{leaf}"));
            handle.add(backlog);
        }
    }

    /// The counter-telescoping audit of this QP's `qp/<qpn>/...` group:
    /// each audited leaf must mirror the integer statistic it shadows.
    pub fn audit_counters(&self, at: SimTime, auditor: &mut fld_sim::audit::Auditor) {
        for (ctr, aggregate) in [
            (&self.ctr.tx_packets, self.sent_packets),
            (&self.ctr.rx_packets, self.received_packets),
            (&self.ctr.retransmits, self.retransmits),
            (&self.ctr.naks_sent, self.naks_sent),
            (&self.ctr.naks_received, self.naks_received),
        ] {
            auditor.check_counter_eq(at, "counters.qp", ctr, aggregate);
        }
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        self.state
    }

    /// Packets retransmitted so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Retransmission-timer firings.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// NAKs generated as a responder (sequence-error plus RNR).
    pub fn naks_sent(&self) -> u64 {
        self.naks_sent
    }

    /// NAKs absorbed as a requester (sequence-error plus RNR).
    pub fn naks_received(&self) -> u64 {
        self.naks_received
    }

    /// Responder-side arrivals ahead of the expected PSN (gap packets).
    pub fn out_of_window(&self) -> u64 {
        self.out_of_window
    }

    /// Responder-side duplicate requests re-acknowledged.
    pub fn duplicate_acks(&self) -> u64 {
        self.duplicate_acks
    }

    /// Returns and clears the pending fatal notification raised when the
    /// QP entered the error state on its own (retry-budget exhaustion).
    /// The owner surfaces it as [`RdmaEvent::Fatal`].
    pub fn take_fatal(&mut self) -> bool {
        std::mem::take(&mut self.fatal_pending)
    }

    /// Connects to a peer QP: Reset → RTR → RTS in one step (the control
    /// plane performs the full IBTA handshake; the model needs only the
    /// result).
    ///
    /// # Panics
    ///
    /// Panics unless the QP is in Reset.
    pub fn connect(&mut self, peer_qpn: u32) {
        assert_eq!(self.state, QpState::Reset, "connect from non-Reset state");
        self.peer_qpn = peer_qpn;
        self.state = QpState::ReadyToSend;
    }

    /// Posts a send work request of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless the QP is in RTS.
    pub fn post_send(&mut self, wr_id: u64, bytes: u32) {
        assert_eq!(self.state, QpState::ReadyToSend, "post_send requires RTS");
        let packets = bytes.div_ceil(self.config.mtu).max(1);
        self.send_queue.push_back(PendingSend {
            wr_id,
            total: bytes,
            start_psn: self.next_psn,
            packets,
            sent_packets: 0,
        });
        self.next_psn = (self.next_psn + packets) % PSN_MOD;
    }

    /// The next PSN this QP will assign to an outgoing packet
    /// (flight-recorder probe; audited to move forward monotonically
    /// modulo the PSN space).
    pub fn next_psn(&self) -> u32 {
        self.next_psn
    }

    /// The next PSN this QP expects to receive in order (flight-recorder
    /// probe; audited like [`RcQp::next_psn`]).
    pub fn expected_psn(&self) -> u32 {
        self.expected_psn
    }

    /// Unacknowledged packets currently in flight on the wire — the PSN
    /// window occupancy (flight-recorder probe; audited to stay within
    /// the configured window).
    pub fn inflight_packets(&self) -> usize {
        self.inflight.len()
    }

    /// The configured maximum in-flight window, in packets.
    pub fn window(&self) -> usize {
        self.config.window
    }

    /// Emits as many packets as the window allows at time `now`.
    pub fn poll_transmit(&mut self, now: SimTime) -> Burst<RdmaPacket> {
        std::iter::from_fn(|| self.next_packet(now)).collect()
    }

    /// Emits the next packet of the send queue, window permitting.
    #[inline]
    fn next_packet(&mut self, now: SimTime) -> Option<RdmaPacket> {
        if self.state != QpState::ReadyToSend || self.inflight.len() >= self.config.window {
            return None;
        }
        let head = self.send_queue.front_mut()?;
        let remaining = head.total - head.sent_packets * self.config.mtu;
        let chunk = remaining.min(self.config.mtu).max(
            // Zero-length messages still send one packet.
            if head.total == 0 { 0 } else { 1 },
        );
        let opcode =
            BthOpcode::send_for_position(head.sent_packets as usize, head.packets as usize);
        let psn = (head.start_psn + head.sent_packets) % PSN_MOD;
        let pkt = RdmaPacket {
            dest_qp: self.peer_qpn,
            src_qp: self.qpn,
            opcode,
            syndrome: AethSyndrome::Ack,
            psn,
            payload: chunk,
            wr_id: head.wr_id,
        };
        self.inflight.push_back(InflightPacket {
            psn,
            payload: chunk,
            opcode,
            wr_id: head.wr_id,
            sent_at: now,
        });
        self.sent_packets += 1;
        self.ctr.tx_packets.inc();
        head.sent_packets += 1;
        if opcode.is_last() {
            self.send_queue.pop_front();
        }
        Some(pkt)
    }

    /// Handles an incoming packet addressed to this QP at `now`, returning
    /// events and any ACK/NAK packet to transmit back.
    ///
    /// A thin shell, inlined into the caller, over [`RcQp::receive`]: the
    /// events come back as one whole value, written once into the caller's
    /// own local instead of being copied out of a freshly written pair.
    #[inline]
    pub fn on_packet(
        &mut self,
        now: SimTime,
        pkt: &RdmaPacket,
    ) -> (Burst<RdmaEvent>, Option<RdmaPacket>) {
        let mut ack = None;
        let events = self.receive(now, pkt, &mut ack);
        (events, ack)
    }

    /// [`RcQp::on_packet`]'s body: returns the events, stores the ACK/NAK
    /// to send back (if any) in `ack`.
    fn receive(
        &mut self,
        now: SimTime,
        pkt: &RdmaPacket,
        ack: &mut Option<RdmaPacket>,
    ) -> Burst<RdmaEvent> {
        if self.state == QpState::Error {
            return Burst::new();
        }
        if pkt.opcode == BthOpcode::Ack {
            return self.on_response(now, pkt);
        }
        // Responder path: strict PSN ordering (go-back-N).
        if pkt.psn != self.expected_psn {
            let behind = (self.expected_psn.wrapping_sub(pkt.psn)) % PSN_MOD;
            if behind != 0 && behind < PSN_MOD / 2 {
                // Duplicate of an already-received packet: the original ACK
                // may have been lost, so re-acknowledge the latest in-order
                // PSN (IBTA duplicate-request handling) — otherwise the
                // requester would retransmit until its retry budget
                // (`retry_cnt`) ran out and the QP failed needlessly.
                self.duplicate_acks += 1;
                self.ctr.duplicate_acks.inc();
                let ack_psn = (self.expected_psn + PSN_MOD - 1) % PSN_MOD;
                *ack = Some(self.make_ack(pkt.src_qp, ack_psn));
                return Burst::new();
            }
            // A gap (future packet): NAK the first missing PSN so the
            // requester can go-back-N without waiting out its timer —
            // one NAK per gap episode to avoid a NAK storm.
            self.out_of_window += 1;
            self.ctr.out_of_window.inc();
            if !self.nak_armed {
                self.nak_armed = true;
                self.naks_sent += 1;
                self.ctr.naks_sent.inc();
                let mut nak = self.make_ack(pkt.src_qp, self.expected_psn);
                nak.syndrome = AethSyndrome::Nak(NakCode::PsnSequenceError);
                *ack = Some(nak);
                return Burst::new();
            }
            return Burst::new();
        }
        self.nak_armed = false;
        self.expected_psn = (self.expected_psn + 1) % PSN_MOD;
        self.received_packets += 1;
        self.ctr.rx_packets.inc();
        self.recv_in_progress += pkt.payload;
        self.unacked_count += 1;
        let segment = RdmaEvent::RecvSegment {
            bytes: pkt.payload,
            src_qp: pkt.src_qp,
        };
        let mut complete = None;
        if pkt.opcode.is_last() {
            complete = Some(RdmaEvent::RecvComplete {
                bytes: self.recv_in_progress,
                src_qp: pkt.src_qp,
            });
            self.recv_in_progress = 0;
        }
        if pkt.opcode.is_last() || self.unacked_count >= self.config.ack_coalesce {
            self.unacked_count = 0;
            *ack = Some(self.make_ack(pkt.src_qp, pkt.psn));
        }
        Some(segment).into_iter().chain(complete).collect()
    }

    /// Requester path of [`RcQp::on_packet`]: an ACK or NAK for packets in
    /// flight.
    fn on_response(&mut self, now: SimTime, pkt: &RdmaPacket) -> Burst<RdmaEvent> {
        match pkt.syndrome {
            AethSyndrome::Ack => self.on_ack(pkt.psn),
            AethSyndrome::RnrNak { .. } => {
                self.naks_received += 1;
                self.ctr.naks_received.inc();
                self.rnr_naks_received += 1;
                self.ctr.rnr_naks.inc();
                if self.rnr_retries >= self.config.rnr_retry {
                    return self.enter_error();
                }
                self.rnr_retries += 1;
                // Everything before the rejected PSN was accepted.
                let events = self.ack_before(pkt.psn);
                // Back off for the responder's RNR timer, then
                // go-back-N from the rejected PSN.
                self.recover_at = Some(now + self.config.rnr_timer);
                events
            }
            AethSyndrome::Nak(NakCode::PsnSequenceError) => {
                self.naks_received += 1;
                self.ctr.naks_received.inc();
                if self.transport_retries >= self.config.retry_cnt {
                    return self.enter_error();
                }
                self.transport_retries += 1;
                let events = self.ack_before(pkt.psn);
                // The responder told us exactly where the sequence
                // broke: go-back-N immediately, no timer wait.
                self.recover_at = Some(now);
                events
            }
            AethSyndrome::Nak(_) => {
                // Invalid request / access / operational errors are
                // unrecoverable by retransmission (IBTA).
                self.naks_received += 1;
                self.ctr.naks_received.inc();
                self.enter_error()
            }
        }
    }

    /// Builds a positive ACK covering everything up to `psn`.
    fn make_ack(&self, dest_qp: u32, psn: u32) -> RdmaPacket {
        RdmaPacket {
            dest_qp,
            src_qp: self.qpn,
            opcode: BthOpcode::Ack,
            syndrome: AethSyndrome::Ack,
            psn,
            payload: 0,
            wr_id: 0,
        }
    }

    /// Responder-side RNR: rejects an in-order data packet because no
    /// receive WQE is available, producing the RNR NAK to send back.
    ///
    /// # Panics
    ///
    /// Panics if `pkt` is not the next expected packet (RNR is only
    /// meaningful for a request the responder would otherwise accept).
    pub fn make_rnr_nak(&mut self, pkt: &RdmaPacket) -> RdmaPacket {
        assert_eq!(
            pkt.psn, self.expected_psn,
            "RNR rejects the next expected request"
        );
        self.naks_sent += 1;
        self.ctr.naks_sent.inc();
        let mut nak = self.make_ack(pkt.src_qp, pkt.psn);
        // Timer code 14 ≈ 10 ms in IBTA encoding; the model's backoff is
        // the requester's configured `rnr_timer`.
        nak.syndrome = AethSyndrome::RnrNak { timer: 14 };
        nak
    }

    /// Budget exhaustion or an unrecoverable NAK: Error state, pending
    /// work fails.
    fn enter_error(&mut self) -> Burst<RdmaEvent> {
        self.state = QpState::Error;
        self.fatal_pending = true;
        self.recover_at = None;
        Burst::from_iter([RdmaEvent::Fatal])
    }

    /// Processes a (possibly coalesced) ACK covering everything up to and
    /// including `psn`.
    fn on_ack(&mut self, psn: u32) -> Burst<RdmaEvent> {
        let before = self.inflight.len();
        let events = std::iter::from_fn(|| self.next_completion(psn)).collect();
        // Forward progress clears the retry budgets (IBTA: the counters
        // bound retries *without progress*, not per connection lifetime).
        if self.inflight.len() != before {
            self.transport_retries = 0;
            self.rnr_retries = 0;
        }
        // A NAK-scheduled recovery is moot once everything it covered has
        // been acknowledged (e.g. by a duplicate ACK that outran the
        // go-back-N): leaving a past `recover_at` behind would make
        // `next_timeout` demand a poll that has nothing to retransmit,
        // re-arming the timer at the same instant forever.
        if self.inflight.is_empty() {
            self.recover_at = None;
        }
        events
    }

    /// Retires the in-flight packets an ACK of `psn` covers, up to and
    /// including the next end of a message: that message's completion, or
    /// `None` once nothing more is covered.
    #[inline]
    fn next_completion(&mut self, psn: u32) -> Option<RdmaEvent> {
        while let Some(front) = self.inflight.front() {
            // Sequence-space comparison modulo 2^24.
            let diff = (psn.wrapping_sub(front.psn)) % PSN_MOD;
            if diff >= PSN_MOD / 2 {
                break;
            }
            let pkt = self.inflight.pop_front().expect("checked front");
            if pkt.opcode.is_last() {
                return Some(RdmaEvent::SendComplete { wr_id: pkt.wr_id });
            }
        }
        None
    }

    /// Acknowledges everything strictly before `psn` (NAK semantics: the
    /// AETH PSN names the first packet the responder did not accept).
    fn ack_before(&mut self, psn: u32) -> Burst<RdmaEvent> {
        let prev = (psn + PSN_MOD - 1) % PSN_MOD;
        if self
            .inflight
            .front()
            .is_some_and(|f| (prev.wrapping_sub(f.psn)) % PSN_MOD < PSN_MOD / 2)
        {
            self.on_ack(prev)
        } else {
            Burst::new()
        }
    }

    /// Checks the retransmission machinery: go-back-N fires when the
    /// oldest in-flight packet has waited past the (exponentially backed
    /// off) timeout, or when a NAK scheduled an earlier recovery.
    ///
    /// Retries are budgeted: after `retry_cnt` consecutive timer firings
    /// without ACK progress the QP enters the error state and returns
    /// nothing — the storm is capped, and the owner observes
    /// [`RcQp::take_fatal`] / [`QpState::Error`].
    pub fn poll_timeout(&mut self, now: SimTime) -> Burst<RdmaPacket> {
        if self.state != QpState::ReadyToSend {
            return Burst::new();
        }
        if self.inflight.is_empty() {
            // Nothing to recover: drop any stale NAK-scheduled recovery so
            // `next_timeout` cannot keep requesting a same-instant poll.
            self.recover_at = None;
            return Burst::new();
        }
        let nak_recovery = self.recover_at.is_some_and(|t| t <= now);
        let timer_fired = self
            .inflight
            .front()
            .is_some_and(|p| now.saturating_since(p.sent_at) >= self.effective_timeout());
        if !nak_recovery && !timer_fired {
            return Burst::new();
        }
        self.recover_at = None;
        if !nak_recovery {
            // Timer-driven retries consume budget here; NAK-driven
            // recoveries were budgeted when the NAK arrived.
            if self.transport_retries >= self.config.retry_cnt {
                self.enter_error();
                return Burst::new();
            }
            self.transport_retries += 1;
            self.timeouts += 1;
            self.ctr.timeouts.inc();
        }
        self.retransmits += self.inflight.len() as u64;
        self.ctr.retransmits.add(self.inflight.len() as u64);
        self.sent_packets += self.inflight.len() as u64;
        self.ctr.tx_packets.add(self.inflight.len() as u64);
        self.inflight
            .iter_mut()
            .map(|p| {
                p.sent_at = now;
                RdmaPacket {
                    dest_qp: self.peer_qpn,
                    src_qp: self.qpn,
                    opcode: p.opcode,
                    syndrome: AethSyndrome::Ack,
                    psn: p.psn,
                    payload: p.payload,
                    wr_id: p.wr_id,
                }
            })
            .collect()
    }

    /// The retransmission timeout with exponential backoff: doubles per
    /// consecutive unanswered retry (capped) so a congested peer is not
    /// hammered at a fixed cadence.
    fn effective_timeout(&self) -> SimDuration {
        let shift = u32::from(self.transport_retries.min(6));
        SimDuration::from_picos(
            self.config
                .retransmit_timeout
                .as_picos()
                .saturating_mul(1u64 << shift),
        )
    }

    /// Earliest instant at which [`RcQp::poll_timeout`] could fire, for
    /// event scheduling.
    pub fn next_timeout(&self) -> Option<SimTime> {
        if self.state != QpState::ReadyToSend {
            return None;
        }
        let timer = self
            .inflight
            .front()
            .map(|p| p.sent_at + self.effective_timeout());
        match (self.recover_at, timer) {
            (Some(r), Some(t)) => Some(r.min(t)),
            (Some(r), None) => Some(r),
            (None, t) => t,
        }
    }

    /// One probe: packets currently in the transmit window
    /// (`"{name}.inflight_window"`).
    pub fn probes(&self, name: &str, out: &mut fld_sim::engine::Probes) {
        out.push_scoped(name, "inflight_window", self.inflight_packets() as f64);
    }

    /// Window-credit bound plus PSN monotonicity of both sequence
    /// counters.
    pub fn audit(&self, name: &str, at: SimTime, auditor: &mut fld_sim::audit::Auditor) {
        auditor.check_credits(
            at,
            format_args!("{name}.inflight"),
            self.inflight_packets() as u64,
            self.window() as u64,
        );
        auditor.check_psn(
            at,
            format_args!("{name}.next_psn"),
            u64::from(self.next_psn()),
        );
        auditor.check_psn(
            at,
            format_args!("{name}.expected_psn"),
            u64::from(self.expected_psn()),
        );
    }

    /// Exports `"{name}.retransmits"`, `"{name}.timeouts"`,
    /// `"{name}.naks_sent"`, `"{name}.naks_received"`,
    /// `"{name}.out_of_window"` and `"{name}.duplicate_acks"`.
    pub fn export_metrics(&self, name: &str, registry: &mut fld_sim::metrics::MetricsRegistry) {
        registry.counter(format!("{name}.retransmits"), self.retransmits());
        registry.counter(format!("{name}.timeouts"), self.timeouts());
        registry.counter(format!("{name}.naks_sent"), self.naks_sent());
        registry.counter(format!("{name}.naks_received"), self.naks_received());
        registry.counter(format!("{name}.out_of_window"), self.out_of_window());
        registry.counter(format!("{name}.duplicate_acks"), self.duplicate_acks());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (RcQp, RcQp) {
        let mut a = RcQp::new(100, QpConfig::default());
        let mut b = RcQp::new(200, QpConfig::default());
        a.connect(200);
        b.connect(100);
        (a, b)
    }

    /// Delivers packets between QPs until quiescent; returns events per side.
    fn run_lossless(a: &mut RcQp, b: &mut RcQp) -> (Vec<RdmaEvent>, Vec<RdmaEvent>) {
        let mut ev_a = Vec::new();
        let mut ev_b = Vec::new();
        let now = SimTime::ZERO;
        loop {
            let mut moved = false;
            for pkt in a.poll_transmit(now) {
                moved = true;
                let (evs, ack) = b.on_packet(now, &pkt);
                ev_b.extend(evs);
                if let Some(ack) = ack {
                    let (evs, _) = a.on_packet(now, &ack);
                    ev_a.extend(evs);
                }
            }
            for pkt in b.poll_transmit(now) {
                moved = true;
                let (evs, ack) = a.on_packet(now, &pkt);
                ev_a.extend(evs);
                if let Some(ack) = ack {
                    let (evs, _) = b.on_packet(now, &ack);
                    ev_b.extend(evs);
                }
            }
            if !moved {
                break;
            }
        }
        (ev_a, ev_b)
    }

    #[test]
    fn single_packet_message() {
        let (mut a, mut b) = pair();
        a.post_send(1, 512);
        let (ev_a, ev_b) = run_lossless(&mut a, &mut b);
        assert!(ev_a.contains(&RdmaEvent::SendComplete { wr_id: 1 }));
        assert!(ev_b.contains(&RdmaEvent::RecvComplete {
            bytes: 512,
            src_qp: 100
        }));
    }

    /// Both QPs start two packets below the top of the 24-bit PSN space:
    /// every message completes across the wrap, the first one straddling
    /// it, and both sides end up counting from the bottom again.
    #[test]
    fn messages_complete_across_the_psn_wrap() {
        let (mut a, mut b) = pair();
        a.next_psn = PSN_MOD - 2;
        b.expected_psn = PSN_MOD - 2;
        for wr in 0..4 {
            a.post_send(wr, 3000); // 3 packets at MTU 1024
        }
        let (ev_a, ev_b) = run_lossless(&mut a, &mut b);
        for wr in 0..4 {
            assert!(
                ev_a.contains(&RdmaEvent::SendComplete { wr_id: wr }),
                "wr {wr}"
            );
        }
        let received = ev_b
            .iter()
            .filter(|e| {
                **e == RdmaEvent::RecvComplete {
                    bytes: 3000,
                    src_qp: 100,
                }
            })
            .count();
        assert_eq!(received, 4);
        assert_eq!(a.inflight_packets(), 0);
        assert_eq!((a.next_psn(), b.expected_psn()), (10, 10));
    }

    #[test]
    fn multi_packet_segmentation() {
        let (mut a, _b) = pair();
        a.post_send(7, 4096 + 100); // 5 packets at MTU 1024
        let pkts = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
        assert_eq!(pkts.len(), 5);
        assert_eq!(pkts[0].opcode, BthOpcode::SendFirst);
        assert_eq!(pkts[4].opcode, BthOpcode::SendLast);
        assert_eq!(pkts[4].payload, 100);
        assert!(pkts[1..4].iter().all(|p| p.opcode == BthOpcode::SendMiddle));
        // PSNs are consecutive.
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.psn, i as u32);
        }
    }

    #[test]
    fn message_larger_than_mtu_completes_once() {
        let (mut a, mut b) = pair();
        a.post_send(9, 10_000);
        let (ev_a, ev_b) = run_lossless(&mut a, &mut b);
        let completes: Vec<_> = ev_b
            .iter()
            .filter(|e| matches!(e, RdmaEvent::RecvComplete { .. }))
            .collect();
        assert_eq!(completes.len(), 1);
        assert!(matches!(
            completes[0],
            RdmaEvent::RecvComplete { bytes: 10_000, .. }
        ));
        assert_eq!(
            ev_a.iter()
                .filter(|e| matches!(e, RdmaEvent::SendComplete { .. }))
                .count(),
            1
        );
        // Incremental segments sum to the message size.
        let seg_sum: u32 = ev_b
            .iter()
            .filter_map(|e| match e {
                RdmaEvent::RecvSegment { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(seg_sum, 10_000);
    }

    #[test]
    fn multiple_messages_in_order() {
        let (mut a, mut b) = pair();
        for wr in 0..10 {
            a.post_send(wr, 2000);
        }
        let (ev_a, ev_b) = run_lossless(&mut a, &mut b);
        let sends: Vec<u64> = ev_a
            .iter()
            .filter_map(|e| match e {
                RdmaEvent::SendComplete { wr_id } => Some(*wr_id),
                _ => None,
            })
            .collect();
        assert_eq!(sends, (0..10).collect::<Vec<_>>());
        assert_eq!(
            ev_b.iter()
                .filter(|e| matches!(e, RdmaEvent::RecvComplete { .. }))
                .count(),
            10
        );
    }

    #[test]
    fn loss_recovered_by_timeout() {
        let (mut a, mut b) = pair();
        a.post_send(1, 3000); // 3 packets
        let mut pkts = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
        // Drop the middle packet.
        let dropped = pkts.remove(1);
        assert_eq!(dropped.psn, 1);
        let mut acks = Vec::new();
        for p in &pkts {
            let (_, ack) = b.on_packet(SimTime::ZERO, p);
            acks.extend(ack);
        }
        // The receiver must NOT complete (packet 2 arrived out of order and
        // was dropped).
        for ack in &acks {
            a.on_packet(SimTime::ZERO, ack);
        }
        // Fire the retransmit timer.
        let later = SimTime::ZERO + SimDuration::from_millis(1);
        let retrans = Vec::from_iter(a.poll_timeout(later));
        assert!(!retrans.is_empty(), "timeout must retransmit");
        assert!(a.retransmits() > 0);
        let mut done = false;
        for p in retrans {
            let (evs, ack) = b.on_packet(later, &p);
            for e in evs {
                if matches!(e, RdmaEvent::RecvComplete { bytes: 3000, .. }) {
                    done = true;
                }
            }
            if let Some(ack) = ack {
                a.on_packet(later, &ack);
            }
        }
        assert!(done, "message must complete after retransmission");
        assert!(a.inflight.is_empty(), "all packets acknowledged");
    }

    #[test]
    fn window_limits_inflight() {
        let config = QpConfig {
            window: 4,
            ..QpConfig::default()
        };
        let mut a = RcQp::new(1, config);
        a.connect(2);
        a.post_send(1, 100 * 1024); // 100 packets
        let pkts = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
        assert_eq!(pkts.len(), 4, "window must cap transmissions");
        // No progress until ACKs arrive.
        assert!(a.poll_transmit(SimTime::ZERO).is_empty());
    }

    #[test]
    fn duplicate_packets_reacked_not_redelivered() {
        let (mut a, mut b) = pair();
        a.post_send(1, 100);
        let pkts = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
        let (ev1, ack1) = b.on_packet(SimTime::ZERO, &pkts[0]);
        assert!(!ev1.is_empty());
        assert!(ack1.is_some());
        let (ev2, ack2) = b.on_packet(SimTime::ZERO, &pkts[0]); // replay
        assert!(ev2.is_empty(), "duplicate must not be redelivered");
        // But it must be re-acknowledged in case the first ACK was lost.
        let ack2 = ack2.expect("duplicate triggers re-ack");
        assert_eq!(ack2.psn, pkts[0].psn);
        assert_eq!(b.received_packets, 1);
    }

    #[test]
    fn error_state_is_quiescent() {
        let (mut a, mut b) = pair();
        a.post_send(1, 100);
        a.state = QpState::Error;
        assert!(a.poll_transmit(SimTime::ZERO).is_empty());
        assert_eq!(a.state(), QpState::Error);
        b.state = QpState::Error;
        let pkt = RdmaPacket {
            dest_qp: 200,
            src_qp: 100,
            opcode: BthOpcode::SendOnly,
            syndrome: AethSyndrome::Ack,
            psn: 0,
            payload: 10,
            wr_id: 0,
        };
        let (evs, ack) = b.on_packet(SimTime::ZERO, &pkt);
        assert!(evs.is_empty());
        assert!(ack.is_none());
    }

    #[test]
    #[should_panic(expected = "QpConfig::mtu must be positive")]
    fn zero_mtu_is_rejected_at_construction() {
        let _ = RcQp::new(
            1,
            QpConfig {
                mtu: 0,
                ..QpConfig::default()
            },
        );
    }

    #[test]
    #[should_panic]
    fn post_send_requires_rts() {
        let mut qp = RcQp::new(1, QpConfig::default());
        qp.post_send(0, 10);
    }

    #[test]
    fn frame_len_includes_roce_headers() {
        let pkt = RdmaPacket {
            dest_qp: 1,
            src_qp: 2,
            opcode: BthOpcode::SendOnly,
            syndrome: AethSyndrome::Ack,
            psn: 0,
            payload: 1024,
            wr_id: 0,
        };
        assert_eq!(pkt.frame_len(), 1024 + 58);
    }

    #[test]
    fn gap_triggers_one_nak_per_episode() {
        let (mut a, mut b) = pair();
        a.post_send(1, 3000); // 3 packets
        let mut pkts = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
        pkts.remove(1); // lose the middle packet
        let mut naks = Vec::new();
        for p in &pkts {
            let (_, resp) = b.on_packet(SimTime::ZERO, p);
            naks.extend(resp);
        }
        // Exactly one NAK for the gap, naming the first missing PSN.
        let nak = naks.last().expect("gap must be NAKed");
        assert_eq!(nak.syndrome, AethSyndrome::Nak(NakCode::PsnSequenceError));
        assert_eq!(nak.psn, 1);
        assert_eq!(b.naks_sent(), 1);
        // More out-of-order arrivals while the episode is open: no new NAK.
        let replay = RdmaPacket {
            psn: 2,
            ..*pkts.last().unwrap()
        };
        let (_, resp) = b.on_packet(SimTime::ZERO, &replay);
        assert!(resp.is_none(), "NAK storm must be suppressed");
        assert_eq!(b.naks_sent(), 1);
    }

    #[test]
    fn nak_recovers_without_waiting_for_timer() {
        let (mut a, mut b) = pair();
        a.post_send(1, 3000);
        let mut pkts = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
        pkts.remove(1);
        let mut naks = Vec::new();
        for p in &pkts {
            let (_, resp) = b.on_packet(SimTime::ZERO, p);
            naks.extend(resp);
        }
        let now = SimTime::from_nanos(500); // long before the 100 µs timer
        for nak in &naks {
            a.on_packet(now, nak);
        }
        assert_eq!(a.naks_received(), 1);
        // The NAK scheduled an immediate go-back-N.
        assert_eq!(a.next_timeout(), Some(now));
        let retrans = Vec::from_iter(a.poll_timeout(now));
        assert!(!retrans.is_empty(), "NAK must trigger retransmission");
        assert_eq!(retrans[0].psn, 1, "go-back-N from the NAKed PSN");
        let mut done = false;
        for p in retrans {
            let (mut evs, ack) = b.on_packet(now, &p);
            done |= evs.any(|e| matches!(e, RdmaEvent::RecvComplete { bytes: 3000, .. }));
            if let Some(ack) = ack {
                a.on_packet(now, &ack);
            }
        }
        assert!(done);
        assert_eq!(a.timeouts(), 0, "the retransmit timer never fired");
    }

    #[test]
    fn retry_budget_exhaustion_enters_error() {
        let config = QpConfig {
            retry_cnt: 3,
            ..QpConfig::default()
        };
        let mut a = RcQp::new(1, config);
        a.connect(2);
        a.post_send(1, 100);
        assert_eq!(a.poll_transmit(SimTime::ZERO).len(), 1);
        // The peer never answers: fire the (backed-off) timer to exhaustion.
        let mut now = SimTime::ZERO;
        let mut fired = 0;
        for _ in 0..100 {
            match a.next_timeout() {
                Some(t) => now = t,
                None => break,
            }
            if !a.poll_timeout(now).is_empty() {
                fired += 1;
            }
        }
        assert_eq!(fired, 3, "retry budget caps the retransmit storm");
        assert_eq!(a.state(), QpState::Error);
        assert!(a.take_fatal(), "owner observes the failure exactly once");
        assert!(!a.take_fatal());
        assert_eq!(a.timeouts(), 3);
        assert!(a
            .poll_timeout(now + SimDuration::from_millis(10))
            .is_empty());
    }

    #[test]
    fn backoff_doubles_the_timeout() {
        let mut a = RcQp::new(1, QpConfig::default());
        a.connect(2);
        a.post_send(1, 100);
        a.poll_transmit(SimTime::ZERO);
        let first = a.next_timeout().unwrap();
        assert_eq!(first, SimTime::ZERO + SimDuration::from_micros(100));
        assert!(!a.poll_timeout(first).is_empty());
        // After one unanswered retry the timeout doubles.
        assert_eq!(
            a.next_timeout().unwrap(),
            first + SimDuration::from_micros(200)
        );
    }

    #[test]
    fn ack_progress_resets_retry_budget() {
        let config = QpConfig {
            retry_cnt: 2,
            ..QpConfig::default()
        };
        let mut a = RcQp::new(1, config);
        let mut b = RcQp::new(2, config);
        a.connect(2);
        b.connect(1);
        let mut now = SimTime::ZERO;
        // Each message: lose the first transmission, deliver the retry.
        for round in 0..5u64 {
            a.post_send(round, 100);
            let pkts = Vec::from_iter(a.poll_transmit(now));
            assert_eq!(pkts.len(), 1, "round {round} must transmit");
            now = a.next_timeout().unwrap();
            let retrans = Vec::from_iter(a.poll_timeout(now));
            assert_eq!(retrans.len(), 1, "round {round} must retry");
            for p in retrans {
                let (_, ack) = b.on_packet(now, &p);
                if let Some(ack) = ack {
                    a.on_packet(now, &ack);
                }
            }
        }
        // Five losses absorbed with a budget of two: progress resets it.
        assert_eq!(a.state(), QpState::ReadyToSend);
        assert!(a.send_queue.is_empty() && a.inflight.is_empty());
        assert_eq!(a.timeouts(), 5);
    }

    #[test]
    fn rnr_nak_backs_off_and_retries() {
        let (mut a, mut b) = pair();
        a.post_send(1, 100);
        let pkts = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
        // Responder has no receive WQE: RNR NAK instead of accepting.
        let nak = b.make_rnr_nak(&pkts[0]);
        assert_eq!(nak.syndrome, AethSyndrome::RnrNak { timer: 14 });
        let now = SimTime::from_nanos(1000);
        a.on_packet(now, &nak);
        assert_eq!(a.rnr_naks_received, 1);
        // Backoff: no retransmit until the RNR timer elapses.
        assert!(a.poll_timeout(now).is_empty());
        let resume = now + QpConfig::default().rnr_timer;
        assert_eq!(a.next_timeout(), Some(resume));
        let retrans = Vec::from_iter(a.poll_timeout(resume));
        assert_eq!(retrans.len(), 1);
        // This time the responder accepts; the transfer completes.
        let (mut evs, ack) = b.on_packet(resume, &retrans[0]);
        assert!(evs.any(|e| matches!(e, RdmaEvent::RecvComplete { bytes: 100, .. })));
        let (mut evs, _) = a.on_packet(resume, &ack.unwrap());
        assert!(evs.any(|e| e == RdmaEvent::SendComplete { wr_id: 1 }));
        assert_eq!(a.state(), QpState::ReadyToSend);
    }

    #[test]
    fn rnr_budget_exhaustion_enters_error() {
        let config = QpConfig {
            rnr_retry: 2,
            ..QpConfig::default()
        };
        let mut a = RcQp::new(1, config);
        let mut b = RcQp::new(2, config);
        a.connect(2);
        b.connect(1);
        a.post_send(1, 100);
        let pkts = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
        let mut now = SimTime::ZERO;
        // The responder keeps RNR-NAKing the same request.
        for _ in 0..=2 {
            let nak = b.make_rnr_nak(&pkts[0]);
            now += config.rnr_timer;
            a.on_packet(now, &nak);
            a.poll_timeout(a.next_timeout().unwrap_or(now));
        }
        assert_eq!(a.state(), QpState::Error);
        assert!(a.take_fatal());
        assert_eq!(a.rnr_naks_received, 3);
    }

    #[test]
    fn remote_error_nak_is_terminal() {
        let (mut a, mut b) = pair();
        a.post_send(1, 100);
        let pkts = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
        let mut nak = b.make_rnr_nak(&pkts[0]);
        nak.syndrome = AethSyndrome::Nak(NakCode::RemoteOperationalError);
        let (mut evs, _) = a.on_packet(SimTime::from_nanos(10), &nak);
        assert!(evs.any(|e| e == RdmaEvent::Fatal));
        assert_eq!(a.state(), QpState::Error);
        assert!(a.take_fatal());
    }

    /// Regression: a NAK schedules an immediate go-back-N (`recover_at =
    /// now`), but a duplicate ACK for the same PSN then empties the
    /// window before the recovery poll runs. The stale `recover_at` must
    /// be dropped — otherwise `next_timeout` demands a poll at the same
    /// instant forever (the owner re-arms its timer event at `now` in an
    /// infinite loop, observed as a livelock under duplication faults).
    #[test]
    fn acked_out_window_clears_pending_nak_recovery() {
        let (mut a, _b) = pair();
        a.post_send(1, 100);
        let pkts = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
        assert_eq!(pkts.len(), 1);
        let now = SimTime::from_nanos(10);
        let nak = RdmaPacket {
            dest_qp: 100,
            src_qp: 200,
            opcode: BthOpcode::Ack,
            syndrome: AethSyndrome::Nak(NakCode::PsnSequenceError),
            psn: 0,
            payload: 0,
            wr_id: 0,
        };
        a.on_packet(now, &nak);
        assert_eq!(a.next_timeout(), Some(now), "NAK schedules recovery");
        // A duplicated ACK (the original outran the go-back-N) drains the
        // whole window.
        let ack = RdmaPacket {
            syndrome: AethSyndrome::Ack,
            ..nak
        };
        a.on_packet(now, &ack);
        assert_eq!(a.state(), QpState::ReadyToSend);
        assert_eq!(
            a.next_timeout(),
            None,
            "empty window must not demand a recovery poll"
        );
        assert!(a.poll_timeout(now).is_empty());
    }

    /// The `qp/<qpn>/...` counter handles mirror the integer statistics
    /// exactly, including traffic counted before the QP was wired
    /// (backlog carry-over).
    #[test]
    fn qp_counters_mirror_the_integer_stats() {
        let (mut a, mut b) = pair();
        // Traffic before wiring: must be carried into the handles.
        a.post_send(1, 4096);
        run_lossless(&mut a, &mut b);

        let tree = CounterTree::new();
        a.wire_counters(&tree);
        b.wire_counters(&tree);

        a.post_send(2, 8192);
        run_lossless(&mut a, &mut b);

        for qp in [&a, &b] {
            let base = format!("qp/{}", qp.qpn);
            let get = |leaf: &str| tree.snapshot().get(&format!("{base}/{leaf}")).unwrap();
            assert_eq!(get("tx_packets"), qp.sent_packets);
            assert_eq!(get("rx_packets"), qp.received_packets);
            assert_eq!(get("retransmits"), qp.retransmits());
            assert_eq!(get("timeouts"), qp.timeouts());
            assert_eq!(get("naks_sent"), qp.naks_sent());
            assert_eq!(get("naks_received"), qp.naks_received());
            assert_eq!(get("rnr_naks"), qp.rnr_naks_received);
            assert_eq!(get("out_of_window"), qp.out_of_window());
            assert_eq!(get("duplicate_acks"), qp.duplicate_acks());
        }
        assert!(tree.snapshot().get("qp/100/tx_packets").unwrap() > 0);
    }
}
