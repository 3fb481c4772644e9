//! Figure 8: the disaggregated ZUC cipher accelerator vs the software
//! baseline (§ 8.2.1).

use fld_accel::zuc_accel::{SoftwareZuc, ZucAccelerator, REQUEST_HEADER_BYTES};
use fld_core::params::AccelParams;
use fld_core::rdma_system::{RdmaConfig, RdmaRunStats, RdmaSystem};
use fld_pcie::model::FldModel;
use fld_sim::time::SimTime;

use crate::fmt::TextTable;
use crate::harness::Harness;
use crate::Scale;

/// Runs the disaggregated accelerator: `request_payload`-byte requests,
/// `window` in flight.
fn run_zuc(request_payload: u32, window: u32, h: &Harness) -> RdmaRunStats {
    let request = request_payload + REQUEST_HEADER_BYTES as u32;
    let cfg = RdmaConfig::remote(request, window, h.scale().packets);
    let accel = Box::new(ZucAccelerator::new(AccelParams::default()));
    h.simulate(RdmaSystem::new(cfg, accel))
}

/// Runs the disaggregated accelerator at one request size.
fn run_remote_zuc(request_payload: u32, window: u32, h: &Harness) -> f64 {
    let stats = run_zuc(request_payload, window, h);
    // Goodput in *payload* terms (the header is protocol overhead).
    stats.goodput.gbps() * request_payload as f64
        / (request_payload + REQUEST_HEADER_BYTES as u32) as f64
}

/// The local software baseline: requests processed back-to-back on one
/// core — no network involved, like calling the DPDK software ZUC driver.
fn run_local_cpu(request_payload: u32, scale: Scale) -> f64 {
    let mut sw = SoftwareZuc::new(AccelParams::default().sw_zuc_core_gbps);
    use fld_core::rdma_system::MsgAccelerator;
    let n = scale.packets.min(50_000);
    let mut now = SimTime::ZERO;
    // Per-request driver overhead: one CPU packet cost.
    let overhead = fld_core::params::SystemParams::default().cpu_per_packet;
    for _ in 0..n {
        let (done, _) = sw.process_message(request_payload + REQUEST_HEADER_BYTES as u32, now);
        now = done + overhead;
    }
    n as f64 * request_payload as f64 * 8.0 / now.as_secs_f64() / 1e9
}

/// Figure 8a: encryption throughput vs request size.
pub fn fig8a(h: &Harness) -> String {
    let sizes = [64u32, 128, 256, 512, 1024, 2048, 4096, 8192];
    let cfg = RdmaConfig::remote(512, 64, 1);
    let model = FldModel::new(cfg.pcie);
    let mut t = TextTable::new(vec![
        "Request B",
        "FLD (remote)",
        "CPU (local)",
        "Model bound",
        "FLD/CPU",
    ]);
    let runs = h.sweep(sizes.to_vec(), |h, size| {
        (
            size,
            run_remote_zuc(size, 64, h),
            run_local_cpu(size, h.scale()),
        )
    });
    for (size, fld, cpu) in runs {
        let bound = model.rdma_echo_goodput(
            size,
            REQUEST_HEADER_BYTES as u32,
            cfg.params.roce_mtu,
            cfg.client_rate,
        ) / 1e9;
        t.row(vec![
            size.to_string(),
            format!("{fld:.2}"),
            format!("{cpu:.2}"),
            format!("{bound:.2}"),
            format!("{:.1}x", fld / cpu),
        ]);
    }
    format!(
        "Figure 8a: disaggregated ZUC throughput vs request size (Gbps)\n\
         (paper: >=512 B requests reach 17.6 Gbps, 89% of the model, 4x CPU)\n{}",
        t.render()
    )
}

/// Figure 8b: latency vs bandwidth for 512 B requests under load.
pub fn fig8b(h: &Harness) -> String {
    let windows = [1u32, 2, 4, 8, 16, 32, 64, 128];
    let mut t = TextTable::new(vec!["Window", "Gbps", "Median us", "99th us"]);
    let runs = h.sweep(windows.to_vec(), |h, w| (w, run_zuc(512, w, h)));
    for (w, stats) in runs {
        t.row(vec![
            w.to_string(),
            format!("{:.2}", stats.goodput.gbps() * 512.0 / (512 + 64) as f64),
            format!("{:.1}", stats.latency.percentile(50.0) as f64 / 1000.0),
            format!("{:.1}", stats.latency.percentile(99.0) as f64 / 1000.0),
        ]);
    }
    let cpu_latency_us =
        (512.0 + 64.0) * 8.0 / (AccelParams::default().sw_zuc_core_gbps * 1e9) * 1e6;
    format!(
        "Figure 8b: ZUC latency vs bandwidth, 512 B requests\n\
         (paper: the disaggregated accelerator is not faster at low load but\n\
         frees the CPU core; local CPU service time here ~{cpu_latency_us:.1} us)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fld_is_severalfold_faster_than_cpu_at_512b() {
        let h = Harness::quick();
        let fld = run_remote_zuc(512, 64, &h);
        let cpu = run_local_cpu(512, h.scale());
        assert!(fld > 2.0 * cpu, "fld {fld:.2} vs cpu {cpu:.2}");
        // And the absolute value lands in the paper's ballpark (17.6 Gbps
        // at full scale; quick runs land close).
        assert!(fld > 8.0, "fld too slow: {fld:.2}");
    }

    #[test]
    fn small_requests_are_slower_than_large() {
        let h = Harness::quick();
        assert!(run_remote_zuc(64, 64, &h) < run_remote_zuc(2048, 64, &h));
    }
}
