//! The § 8.2.1 future-work ablation: how much do on-FPGA key storage and
//! request batching add over the published Figure 8a numbers?

use fld_accel::zuc_accel::{ZucAccelerator, REQUEST_HEADER_BYTES};
use fld_accel::zuc_ext::{BatchedZucAccelerator, COMPACT_HEADER_BYTES};
use fld_core::params::AccelParams;
use fld_core::rdma_system::{MsgAccelerator, RdmaConfig, RdmaSystem};

use crate::fmt::TextTable;
use crate::harness::Harness;

fn run(payload: u32, header: u32, accel: Box<dyn MsgAccelerator>, h: &Harness) -> f64 {
    let mut cfg = RdmaConfig::remote(payload + header, 192, h.scale().packets);
    // A 4-thread test-crypto-perf client, so the measurement exposes the
    // wire/accelerator bottleneck the extensions address rather than the
    // single-core client cap of Figure 7b.
    cfg.client_msg_cost = cfg.client_msg_cost / 4;
    let stats = h.simulate(RdmaSystem::new(cfg, accel));
    stats.goodput.gbps() * payload as f64 / (payload + header) as f64
}

/// Renders the extension ablation table (payload goodput, Gbps).
pub fn zuc_ext(h: &Harness) -> String {
    let params = AccelParams::default();
    let mut t = TextTable::new(vec![
        "Request B",
        "Baseline (paper)",
        "+ key cache",
        "+ cache + batch 8",
        "Gain",
    ]);
    for payload in [64u32, 128, 256, 512, 1024] {
        let base = run(
            payload,
            REQUEST_HEADER_BYTES as u32,
            Box::new(ZucAccelerator::new(params)),
            h,
        );
        let cached = run(
            payload,
            COMPACT_HEADER_BYTES as u32,
            Box::new(BatchedZucAccelerator::new(params, 1, true)),
            h,
        );
        let batched = run(
            payload,
            COMPACT_HEADER_BYTES as u32,
            Box::new(BatchedZucAccelerator::new(params, 8, true)),
            h,
        );
        t.row(vec![
            payload.to_string(),
            format!("{base:.2}"),
            format!("{cached:.2}"),
            format!("{batched:.2}"),
            format!("{:.0}%", (batched / base - 1.0) * 100.0),
        ]);
    }
    format!(
        "§8.2.1 future-work ablation: on-FPGA key storage + request batching\n\
         (the paper leaves these to future work; both are implemented here)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_improve_small_request_goodput() {
        let h = Harness::quick();
        let params = AccelParams::default();
        let base = run(
            128,
            REQUEST_HEADER_BYTES as u32,
            Box::new(ZucAccelerator::new(params)),
            &h,
        );
        let ext = run(
            128,
            COMPACT_HEADER_BYTES as u32,
            Box::new(BatchedZucAccelerator::new(params, 8, true)),
            &h,
        );
        assert!(ext > base * 1.1, "ext {ext:.2} vs base {base:.2}");
    }
}
