//! Past its inline entries a `Burst` spills to the heap; nothing about what
//! the transport returns, or in which order, may depend on where an entry
//! is held.

use fld_net::roce::{AethSyndrome, BthOpcode};
use fld_nic::burst::INLINE;
use fld_nic::rdma::{QpConfig, RcQp, RdmaEvent, RdmaPacket};
use fld_sim::time::SimTime;

fn pair() -> (RcQp, RcQp) {
    let mut a = RcQp::new(100, QpConfig::default());
    let mut b = RcQp::new(200, QpConfig::default());
    a.connect(200);
    b.connect(100);
    (a, b)
}

/// 64 single-packet messages whose ACKs are all lost but the last: that
/// one coalesced ACK completes every message, in posting order.
#[test]
fn one_coalesced_ack_completes_64_messages_in_order() {
    let (mut a, mut b) = pair();
    let now = SimTime::ZERO;
    for wr in 0..64 {
        a.post_send(wr, 512);
    }
    let mut last_ack = None;
    let mut sent = 0;
    for pkt in a.poll_transmit(now) {
        sent += 1;
        let (events, ack) = b.on_packet(now, &pkt);
        assert_eq!(
            Vec::from_iter(events),
            [
                RdmaEvent::RecvSegment {
                    bytes: 512,
                    src_qp: 100
                },
                RdmaEvent::RecvComplete {
                    bytes: 512,
                    src_qp: 100
                },
            ]
        );
        last_ack = ack.or(last_ack);
    }
    assert_eq!(sent, 64);
    assert_eq!(a.inflight_packets(), 64);
    let (events, reply) = a.on_packet(now, &last_ack.expect("message ends are ACKed"));
    assert!(reply.is_none());
    assert_eq!(events.len(), 64);
    assert!(events.len() > INLINE, "the case must spill");
    let want: Vec<RdmaEvent> = (0..64)
        .map(|wr_id| RdmaEvent::SendComplete { wr_id })
        .collect();
    assert_eq!(Vec::from_iter(events), want);
    assert_eq!(a.inflight_packets(), 0);
}

/// One 64 KiB message at MTU 1024: 64 packets out of a single
/// `poll_transmit`, first / middle… / last, PSNs consecutive.
#[test]
fn one_64k_message_is_64_packets_from_one_poll() {
    let (mut a, _b) = pair();
    a.post_send(7, 64 * 1024);
    let pkts = a.poll_transmit(SimTime::ZERO);
    assert_eq!(pkts.len(), 64);
    let want: Vec<RdmaPacket> = (0..64)
        .map(|i| RdmaPacket {
            dest_qp: 200,
            src_qp: 100,
            opcode: match i {
                0 => BthOpcode::SendFirst,
                63 => BthOpcode::SendLast,
                _ => BthOpcode::SendMiddle,
            },
            syndrome: AethSyndrome::Ack,
            psn: i,
            payload: 1024,
            wr_id: 7,
        })
        .collect();
    assert_eq!(Vec::from_iter(pkts), want);
    assert!(a.poll_transmit(SimTime::ZERO).is_empty());
}

/// A go-back-N burst is the whole window, oldest first, whatever its size.
#[test]
fn go_back_n_returns_the_window_in_order() {
    let (mut a, _b) = pair();
    a.post_send(1, 5 * 1024);
    let first = Vec::from_iter(a.poll_transmit(SimTime::ZERO));
    let at = a.next_timeout().expect("packets in flight arm the timer");
    assert_eq!(Vec::from_iter(a.poll_timeout(at)), first);
    assert_eq!(a.retransmits(), 5);
}
