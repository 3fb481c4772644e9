//! FLD-R experiments: Figure 7b (right columns) and Figure 7c.

use fld_core::rdma_system::{MsgEcho, RdmaConfig, RdmaSystem};
use fld_pcie::model::FldModel;
use fld_sim::time::SimDuration;

use crate::fmt::TextTable;
use crate::harness::Harness;

/// One FLD-R echo system with the flight recorder enabled: samples the
/// in-flight RDMA PSN window, outstanding messages, accelerator backlog
/// and per-window wire/PCIe utilization. Backs `exp fig7b --json/--trace`
/// (the RDMA counter tracks of the merged Perfetto export).
pub fn rdma_telemetry_system(cfg: RdmaConfig, interval: SimDuration) -> RdmaSystem {
    let mut sys = RdmaSystem::new(cfg, Box::new(MsgEcho));
    sys.enable_flight_recorder(interval);
    sys
}

/// Figure 7b (FLD-R): echo message-goodput vs message size, remote and
/// local, against the analytic model.
pub fn fig7b_fldr(h: &Harness) -> String {
    let sizes = [64u32, 128, 256, 512, 1024, 2048, 4096];
    let mut out = String::from("Figure 7b (FLD-R): RDMA echo goodput vs message size (Gbps)\n");
    for (name, mk) in [
        (
            "remote (25 GbE)",
            RdmaConfig::remote as fn(u32, u32, u64) -> RdmaConfig,
        ),
        (
            "local (50G PCIe)",
            RdmaConfig::local as fn(u32, u32, u64) -> RdmaConfig,
        ),
    ] {
        let mut t = TextTable::new(vec!["Msg B", "FLD-R", "Model bound", "Mmsg/s"]);
        let runs = h.sweep(sizes.to_vec(), |h, size| {
            let cfg = mk(size, 64, h.scale().packets);
            (
                size,
                cfg,
                h.simulate(RdmaSystem::new(cfg, Box::new(MsgEcho))),
            )
        });
        for (size, cfg, stats) in runs {
            let model = FldModel::new(cfg.pcie).rdma_echo_goodput(
                size,
                0,
                cfg.params.roce_mtu,
                cfg.client_rate,
            );
            t.row(vec![
                size.to_string(),
                format!("{:.2}", stats.goodput.gbps()),
                format!("{:.2}", model / 1e9),
                format!("{:.2}", stats.goodput.mpps()),
            ]);
        }
        out.push_str(&format!("\n{name}\n"));
        out.push_str(&t.render());
    }
    out.push_str(
        "\nPaper shape: remote FLD-R meets its 25 Gbps line for messages >=\n\
         512 B; smaller messages are bottlenecked by the CPU client.\n",
    );
    out
}

/// Figure 7c: 1 KiB message latency vs throughput under increasing load
/// (window sweep), local and remote.
pub fn fig7c(h: &Harness) -> String {
    let windows = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];
    let mut out =
        String::from("Figure 7c: FLD-R 1 KiB messages, latency vs throughput under load\n");
    for (name, mk) in [
        (
            "local (50G PCIe)",
            RdmaConfig::local as fn(u32, u32, u64) -> RdmaConfig,
        ),
        (
            "remote (25 GbE)",
            RdmaConfig::remote as fn(u32, u32, u64) -> RdmaConfig,
        ),
    ] {
        let mut t = TextTable::new(vec!["Window", "Gbps", "Median us", "99th us"]);
        let runs = h.sweep(windows.to_vec(), |h, w| {
            let cfg = mk(1024, w, h.scale().packets);
            (w, h.simulate(RdmaSystem::new(cfg, Box::new(MsgEcho))))
        });
        for (w, stats) in runs {
            t.row(vec![
                w.to_string(),
                format!("{:.2}", stats.goodput.gbps()),
                format!("{:.1}", stats.latency.percentile(50.0) as f64 / 1000.0),
                format!("{:.1}", stats.latency.percentile(99.0) as f64 / 1000.0),
            ]);
        }
        out.push_str(&format!("\n{name}\n"));
        out.push_str(&t.render());
    }
    out.push_str(
        "\nPaper shape: ~10 us median at low load (9.4 local / 10.6 remote);\n\
         queueing dominates as load approaches the knee (~82% of expected\n\
         bandwidth in the paper's measurement).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_sim::time::SimTime;

    #[test]
    fn fig7b_remote_reaches_line_rate_at_large_sizes() {
        let cfg = RdmaConfig::remote(4096, 64, 60_000);
        let stats = RdmaSystem::new(cfg, Box::new(MsgEcho))
            .run(SimTime::from_millis(5), SimTime::from_secs(5));
        assert!(stats.goodput.gbps() > 18.0, "{:.2}", stats.goodput.gbps());
    }

    #[test]
    fn fig7c_low_load_latency_in_expected_band() {
        let cfg = RdmaConfig::remote(1024, 1, 2_000);
        let stats =
            RdmaSystem::new(cfg, Box::new(MsgEcho)).run(SimTime::ZERO, SimTime::from_secs(5));
        let p50_us = stats.latency.percentile(50.0) as f64 / 1000.0;
        assert!((2.0..20.0).contains(&p50_us), "median {p50_us} us");
    }
}
