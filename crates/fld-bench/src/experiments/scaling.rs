//! § 9 (Discussion): FLD's scaling story quantified — memory and
//! throughput at 100/200/400 Gbps with future PCIe/CXL fabrics and
//! multiple FLD "cores" load-balanced by NIC RSS.

use fld_core::memmodel::{fld_breakdown, FldOptimizations, MemParams, XCKU15P_CAPACITY_BYTES};
use fld_pcie::config::PcieConfig;
use fld_pcie::model::FldModel;
use fld_sim::time::Bandwidth;

use crate::fmt::{human_bytes, TextTable};

/// Per-core FLD processing capacity (§ 9: "the current FLD implementation
/// is clocked to process up to 100 Gbps").
pub const FLD_CORE_GBPS: f64 = 100.0;

/// Achievable echo goodput for `frame` bytes at `line` Gbps over a fabric
/// of `fabric` Gbps with `cores` FLD cores.
pub fn scaled_throughput(frame: u32, line_gbps: f64, fabric_gbps: f64, cores: u32) -> f64 {
    let line = Bandwidth::gbps(line_gbps);
    let model =
        FldModel::new(PcieConfig::innova2_gen3_x8().with_rate(Bandwidth::gbps(fabric_gbps)));
    let pcie_bound = model.echo_throughput(frame, Bandwidth::gbps(line_gbps * 10.0));
    let eth = FldModel::ethernet_goodput(frame, line);
    // The FLD pipeline itself processes at cores x 100 Gbps of frame bytes
    // (both directions of the echo share the pipeline width).
    let fld_bound = cores as f64 * FLD_CORE_GBPS * 1e9 / 2.0;
    eth.min(pcie_bound).min(fld_bound)
}

/// Renders the § 9 scaling analysis.
pub fn scaling() -> String {
    let mut out = String::from(
        "§9 scaling analysis: FLD toward 400 Gbps\n\
         (fabric = future PCIe 5.0/CXL rate; cores = FLD instances balanced by NIC RSS)\n",
    );
    let mut t = TextTable::new(vec![
        "Network",
        "Fabric",
        "FLD cores",
        "512 B echo Gbps",
        "1500 B echo Gbps",
        "On-chip memory",
        "Fits XCKU15P?",
    ]);
    let points = [
        (100.0, 100.0, 1u32),
        (200.0, 200.0, 2),
        (200.0, 200.0, 4),
        (400.0, 400.0, 4),
        (400.0, 400.0, 8),
    ];
    for (line, fabric, cores) in points {
        let params = MemParams {
            bandwidth: Bandwidth::gbps(line),
            ..MemParams::default()
        };
        let mem = fld_breakdown(&params, FldOptimizations::ALL).total();
        t.row(vec![
            format!("{line:.0}G"),
            format!("{fabric:.0}G"),
            cores.to_string(),
            format!("{:.1}", scaled_throughput(512, line, fabric, cores) / 1e9),
            format!("{:.1}", scaled_throughput(1500, line, fabric, cores) / 1e9),
            human_bytes(mem),
            if mem <= XCKU15P_CAPACITY_BYTES {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nThe paper's claim holds in the model: with fabric speeds tracking\n\
         network speeds and multiple FLD cores, 400 Gbps is reachable while\n\
         buffers stay within on-chip capacity (§5.2.1).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_caps_at_50g_echo() {
        // One 100 Gbps pipeline echoing = 50 Gbps of goodput.
        let t = scaled_throughput(1500, 400.0, 400.0, 1);
        assert!((t / 1e9 - 50.0).abs() < 1.0, "{t}");
    }

    #[test]
    fn eight_cores_reach_400g_at_mtu() {
        let t = scaled_throughput(1500, 400.0, 400.0, 8);
        let eth = FldModel::ethernet_goodput(1500, Bandwidth::gbps(400.0));
        assert!(t >= eth * 0.9, "{:.1} vs eth {:.1}", t / 1e9, eth / 1e9);
    }

    #[test]
    fn memory_stays_on_chip_at_400g() {
        let s = scaling();
        assert!(!s.contains("NO"), "{s}");
    }
}
