//! Failure injection for the RC transport: arbitrary loss patterns must
//! never break reliable, in-order, exactly-once message delivery.

use proptest::prelude::*;

use fld_net::roce::BthOpcode;
use fld_nic::rdma::{QpConfig, RcQp, RdmaEvent, RdmaPacket};
use fld_sim::time::{SimDuration, SimTime};

/// Runs a lossy bidirectional exchange to quiescence, dropping data and ACK
/// packets according to `drop_mask` bits, with timer-driven recovery.
/// Returns the receive-completed message sizes in order.
fn run_lossy(messages: &[u32], drop_mask: u128, window: usize) -> Vec<u32> {
    let config = QpConfig {
        mtu: 1024,
        window,
        retransmit_timeout: SimDuration::from_micros(50),
        ack_coalesce: 2,
        // This property examines transport reliability under arbitrary
        // loss, so give it budget to outlast the 128-bit drop mask;
        // budget *exhaustion* is covered by the unit tests.
        retry_cnt: 255,
        ..QpConfig::default()
    };
    let mut a = RcQp::new(1, config);
    let mut b = RcQp::new(2, config);
    a.connect(2);
    b.connect(1);
    for (i, &m) in messages.iter().enumerate() {
        a.post_send(i as u64, m);
    }
    let mut received = Vec::new();
    let mut now = SimTime::ZERO;
    let mut drop_idx = 0u32;
    // Bounded rounds: each round transmits, possibly drops, delivers, and
    // advances time past the retransmit timeout.
    for _round in 0..400 {
        let mut quiescent = true;
        let mut in_flight: Vec<RdmaPacket> = a.poll_transmit(now).collect();
        in_flight.extend(a.poll_timeout(now));
        let mut acks: Vec<RdmaPacket> = Vec::new();
        for pkt in in_flight {
            quiescent = false;
            // Drop data packets per the mask (only the first 128 decisions
            // are masked; later transmissions always succeed so the run
            // terminates).
            let dropped = drop_idx < 128 && (drop_mask >> drop_idx) & 1 == 1;
            drop_idx += 1;
            if dropped {
                continue;
            }
            let (events, ack) = b.on_packet(now, &pkt);
            for ev in events {
                if let RdmaEvent::RecvComplete { bytes, .. } = ev {
                    received.push(bytes);
                }
            }
            acks.extend(ack);
        }
        for ack in acks {
            quiescent = false;
            let dropped = drop_idx < 128 && (drop_mask >> drop_idx) & 1 == 1;
            drop_idx += 1;
            if dropped {
                continue;
            }
            a.on_packet(now, &ack);
        }
        // Jump past the next (possibly backed-off) retransmission point so
        // every round either delivers or fires the timer.
        now = match a.next_timeout() {
            Some(t) if t > now => t,
            _ => now + SimDuration::from_micros(60),
        };
        if quiescent && a.inflight_packets() == 0 {
            break;
        }
    }
    received
}

proptest! {
    /// Every message is delivered exactly once, in order, with its exact
    /// size — no matter which packets are lost.
    #[test]
    fn reliable_delivery_under_loss(
        messages in proptest::collection::vec(1u32..5000, 1..10),
        drop_mask: u128,
        window in 1usize..16,
    ) {
        let received = run_lossy(&messages, drop_mask, window);
        prop_assert_eq!(received, messages);
    }

    /// Zero loss means zero retransmissions (the timer must not misfire).
    #[test]
    fn no_spurious_retransmits(messages in proptest::collection::vec(1u32..5000, 1..10)) {
        let config = QpConfig::default();
        let mut a = RcQp::new(1, config);
        let mut b = RcQp::new(2, config);
        a.connect(2);
        b.connect(1);
        for (i, &m) in messages.iter().enumerate() {
            a.post_send(i as u64, m);
        }
        let now = SimTime::ZERO;
        loop {
            let pkts = a.poll_transmit(now);
            if pkts.is_empty() {
                break;
            }
            for pkt in pkts {
                let (_, ack) = b.on_packet(now, &pkt);
                if let Some(ack) = ack {
                    a.on_packet(now, &ack);
                }
            }
        }
        prop_assert_eq!(a.retransmits(), 0);
    }

    /// PSNs on the wire are strictly sequential per connection in a
    /// loss-free run.
    #[test]
    fn psn_sequence_is_dense(messages in proptest::collection::vec(1u32..4000, 1..8)) {
        let mut a = RcQp::new(1, QpConfig { window: 1024, ..QpConfig::default() });
        a.connect(2);
        for (i, &m) in messages.iter().enumerate() {
            a.post_send(i as u64, m);
        }
        let pkts = a.poll_transmit(SimTime::ZERO);
        let expected: u32 = messages.iter().map(|m| m.div_ceil(1024).max(1)).sum();
        prop_assert_eq!(pkts.len() as u32, expected);
        for (i, p) in pkts.enumerate() {
            prop_assert_eq!(p.psn, i as u32);
            prop_assert_ne!(p.opcode, BthOpcode::Ack);
        }
    }
}
