//! The virtualized IoT authentication gateway (paper § 7, § 8.2.3):
//! several tenants share one accelerator; the NIC tags and shapes their
//! flows, the accelerator validates each message's JWT against the
//! tenant's HMAC key and drops forgeries.
//!
//! ```text
//! cargo run --release --example iot_gateway
//! ```

use flexdriver::accel::iot_accel::{build_token_frame, IotAuthAccelerator};
use flexdriver::core::system::AcceleratorModel;
use flexdriver::net::frame::Endpoints;
use flexdriver::nic::packet::SimPacket;
use flexdriver::nic::shaper::{PolicerSet, PolicerVerdict};
use flexdriver::sim::time::{Bandwidth, SimDuration, SimTime};

fn main() {
    // Two tenants with distinct HMAC keys, exactly as § 7 describes:
    // "each may have a different HMAC key ... a linear table of HMAC keys,
    // indexed by the tag".
    let mut accel = IotAuthAccelerator::prototype();
    accel.set_key(1, b"tenant-1-secret");
    accel.set_key(2, b"tenant-2-secret");

    let ep = Endpoints::sim(1, 2);
    let mk = |key: &[u8], context: u32, id: u16| -> SimPacket {
        let frame = build_token_frame(&ep, 1000 + id, key, br#"{"dev":"sensor"}"#, id);
        let mut pkt = SimPacket::from_frame(id as u64, frame, SimTime::ZERO);
        pkt.meta.context_id = context;
        pkt
    };

    // Valid tokens pass; cross-tenant and forged tokens are dropped.
    let cases = [
        ("tenant 1, own key", mk(b"tenant-1-secret", 1, 1), true),
        ("tenant 2, own key", mk(b"tenant-2-secret", 2, 2), true),
        (
            "tenant 1 token sent as tenant 2",
            mk(b"tenant-1-secret", 2, 3),
            false,
        ),
        ("forged key", mk(b"attacker-key", 1, 4), false),
    ];
    println!("token validation:");
    for (name, pkt, expect_pass) in cases {
        let passed = !accel.process(pkt, Some(1), SimTime::ZERO).emit.is_empty();
        assert_eq!(passed, expect_pass, "{name}");
        println!(
            "  {name:35} -> {}",
            if passed { "accepted" } else { "DROPPED" }
        );
    }

    // Performance isolation with NIC shaping (§ 8.2.3): tenant flows are
    // policed to 6 Gbps each before they reach the accelerator.
    println!("\nper-tenant NIC policers at 6 Gbps:");
    let mut policers = PolicerSet::new();
    policers.install(1, Bandwidth::gbps(6.0), 32 * 1024);
    policers.install(2, Bandwidth::gbps(6.0), 32 * 1024);
    // Tenant 2 offers 16 Gbps of 1024 B frames for 1 ms.
    let gap = SimDuration::from_secs_f64(1024.0 * 8.0 / 16e9);
    let mut now = SimTime::ZERO;
    let (mut offered, mut passed) = (0u64, 0u64);
    while now < SimTime::from_millis(1) {
        offered += 1;
        if policers.offer(2, now, 1024) == PolicerVerdict::Conform {
            passed += 1;
        }
        now += gap;
    }
    let admitted = passed as f64 / offered as f64 * 16.0;
    println!("  tenant 2 offered 16.0 Gbps -> admitted {admitted:.1} Gbps");
    println!("\nfull isolation experiment: cargo run -p fld-bench --bin exp -- iot_isolation");
}
