//! The steady-state RC message cycle does not touch the heap: what
//! `RcQp::{poll_transmit, on_packet}` return lives inline in the caller's
//! frame (`fld_nic::burst`).

use fld_nic::rdma::{QpConfig, RcQp, RdmaEvent};
use fld_sim::counters::CounterTree;
use fld_sim::prof::{alloc_counts, CountingAlloc};
use fld_sim::time::{SimDuration, SimTime};

/// Counts per thread, so the figure below is this test's alone.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One 1 KiB message posted, transmitted, received and acknowledged end to
/// end; returns (packets, receive completions, send completions) seen.
fn cycle(client: &mut RcQp, server: &mut RcQp, now: SimTime, wr: u64) -> (u32, u32, u32) {
    let (mut packets, mut received, mut completed) = (0, 0, 0);
    client.post_send(wr, 1024);
    for pkt in client.poll_transmit(now) {
        packets += 1;
        let (events, ack) = server.on_packet(now, &pkt);
        for ev in events {
            received += matches!(ev, RdmaEvent::RecvComplete { bytes: 1024, .. }) as u32;
        }
        let (events, nothing) = client.on_packet(now, &ack.expect("a message end is ACKed"));
        assert!(nothing.is_none());
        for ev in events {
            assert_eq!(ev, RdmaEvent::SendComplete { wr_id: wr });
            completed += 1;
        }
    }
    (packets, received, completed)
}

#[test]
fn steady_state_message_cycle_allocates_nothing() {
    let mut client = RcQp::new(0x100, QpConfig::default());
    let mut server = RcQp::new(0x200, QpConfig::default());
    client.connect(0x200);
    server.connect(0x100);
    let tree = CounterTree::new();
    server.wire_counters(&tree);
    let mut now = SimTime::ZERO;
    // Warm-up: the send queue and the in-flight window take their capacity.
    for wr in 0..16 {
        now += SimDuration::from_nanos(400);
        assert_eq!(cycle(&mut client, &mut server, now, wr), (1, 1, 1));
    }
    let (probe, _) = alloc_counts();
    drop(std::hint::black_box(vec![0u8; 16]));
    let (before, _) = alloc_counts();
    assert_eq!(before - probe, 1, "the allocator counts this thread");
    for wr in 16..10_016 {
        now += SimDuration::from_nanos(400);
        assert_eq!(cycle(&mut client, &mut server, now, wr), (1, 1, 1));
    }
    let (after, _) = alloc_counts();
    assert_eq!(after - before, 0, "10 000 message cycles after warm-up");
    assert_eq!(client.inflight_packets(), 0);
    assert_eq!(tree.snapshot().get("qp/512/rx_packets"), Some(10_016));
}
