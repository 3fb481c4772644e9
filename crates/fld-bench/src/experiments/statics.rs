//! Literature-constant tables: Table 1 (architecture comparison) and
//! Table 5 (hardware utilization). These report the paper's published
//! numbers — FPGA resource counts are not reproducible in a software model
//! — augmented with measurements of *this* reproduction where they exist
//! (software LOC, feature coverage of our models).

use std::path::Path;

use crate::fmt::TextTable;
use crate::loc::count_dir;

/// Reproduces Table 1: FPGA-based networking architectures.
pub fn table1() -> String {
    let mut t = TextTable::new(vec![
        "Category",
        "Solution",
        "Gbps",
        "LUT",
        "FF",
        "BRAM",
        "URAM",
        "Stateless",
        "Tunneling",
        "HW transport",
    ]);
    let rows: [[&str; 10]; 7] = [
        [
            "CPU-mediated",
            "VN2F",
            "10",
            "5.7K",
            "1.1K",
            "233",
            "-",
            "via host",
            "via host",
            "n/a",
        ],
        [
            "Accel-hosted",
            "Corundum",
            "25",
            "66.7K",
            "71.7K",
            "239",
            "20",
            "yes",
            "no",
            "no",
        ],
        [
            "Accel-hosted",
            "Corundum",
            "100",
            "62.4K",
            "76.8K",
            "331",
            "20",
            "yes",
            "no",
            "no",
        ],
        [
            "Accel-hosted",
            "StRoM",
            "100",
            "122K",
            "214K",
            "402",
            "-",
            "yes",
            "no",
            "partial",
        ],
        [
            "BITW",
            "NICA",
            "40",
            "232K",
            "299K",
            "584",
            "-",
            "host-only",
            "host-only",
            "host-only",
        ],
        [
            "BITW",
            "Innova-1 shell",
            "40",
            "169K",
            "212K",
            "152",
            "-",
            "host-only",
            "host-only",
            "host-only",
        ],
        [
            "FlexDriver",
            "FLD (paper)",
            "100",
            "62K",
            "89K",
            "79",
            "44",
            "yes",
            "yes",
            "yes",
        ],
    ];
    for r in rows {
        t.row(r.to_vec());
    }
    let mut out =
        String::from("Table 1: FPGA-based networking architectures (paper-published values)\n");
    out.push_str(&t.render());
    out.push_str(
        "\nThis reproduction models the FlexDriver row: all NIC offloads\n\
         (stateless, tunneling, hardware RDMA transport) are available to the\n\
         accelerator through the commodity-NIC model.\n",
    );
    out
}

/// Reproduces Table 5: hardware resource utilization and LOC, with our
/// software-model LOC alongside the paper's Verilog LOC.
pub fn table5(repo_root: &Path) -> String {
    let mut t = TextTable::new(vec![
        "Module",
        "Clk",
        "LUT",
        "FF",
        "BRAM",
        "URAM",
        "HW LOC (paper)",
        "Model LOC (ours)",
    ]);
    let ours = |rel: &str| -> String {
        count_dir(&repo_root.join(rel))
            .map(|n| n.to_string())
            .unwrap_or_else(|_| "?".into())
    };
    t.row(vec![
        "FLD".to_string(),
        "250".into(),
        "50K".into(),
        "66K".into(),
        "35".into(),
        "44".into(),
        "11K".into(),
        ours("crates/fld-core/src"),
    ]);
    t.row(vec![
        "PCIe core".to_string(),
        "250".into(),
        "12K".into(),
        "23K".into(),
        "44".into(),
        "-".into(),
        "-".into(),
        ours("crates/fld-pcie/src"),
    ]);
    t.row(vec![
        "ZUC".to_string(),
        "200".into(),
        "38K".into(),
        "37K".into(),
        "242".into(),
        "-".into(),
        "6K".into(),
        ours("crates/fld-crypto/src/zuc.rs"),
    ]);
    t.row(vec![
        "IP defrag.".to_string(),
        "250".into(),
        "17K".into(),
        "16K".into(),
        "984".into(),
        "64".into(),
        "2K".into(),
        ours("crates/fld-accel/src/defrag_accel.rs"),
    ]);
    t.row(vec![
        "IoT auth.".to_string(),
        "200".into(),
        "118K".into(),
        "138K".into(),
        "293".into(),
        "-".into(),
        "8K".into(),
        ours("crates/fld-accel/src/iot_accel.rs"),
    ]);
    format!(
        "Table 5: hardware utilization (paper values; FPGA resources are not\n\
         reproducible in software) with this reproduction's model LOC\n{}",
        t.render()
    )
}

/// Reproduces Table 4: software lines of code per component.
pub fn table4(repo_root: &Path) -> String {
    let mut t = TextTable::new(vec![
        "Component (paper)",
        "LOC (paper)",
        "Component (ours)",
        "LOC (ours)",
    ]);
    let ours = |rel: &str| -> String {
        count_dir(&repo_root.join(rel))
            .map(|n| n.to_string())
            .unwrap_or_else(|_| "?".into())
    };
    t.row(vec![
        "FLD runtime library".to_string(),
        "3753".into(),
        "fld-core (hw+system)".into(),
        ours("crates/fld-core/src"),
    ]);
    t.row(vec![
        "FLD kernel driver".to_string(),
        "1137".into(),
        "fld-nic (NIC command surface)".into(),
        ours("crates/fld-nic/src/nic.rs"),
    ]);
    t.row(vec![
        "FLD-E control-plane".to_string(),
        "1554".into(),
        "eswitch (FLD-E rules)".into(),
        ours("crates/fld-nic/src/eswitch.rs"),
    ]);
    t.row(vec![
        "FLD-R control-plane".to_string(),
        "1510".into(),
        "rdma + rdma_system".into(),
        ours("crates/fld-nic/src/rdma.rs"),
    ]);
    t.row(vec![
        "FLD-R client library".to_string(),
        "754".into(),
        "fld-accel client".into(),
        ours("crates/fld-accel/src/client.rs"),
    ]);
    t.row(vec![
        "ZUC DPDK driver".to_string(),
        "732".into(),
        "zuc_accel (protocol+model)".into(),
        ours("crates/fld-accel/src/zuc_accel.rs"),
    ]);
    format!(
        "Table 4: software lines of code per component\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> std::path::PathBuf {
        // crates/fld-bench -> repo root.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    #[test]
    fn table1_mentions_all_categories() {
        let s = table1();
        for cat in ["CPU-mediated", "Accel-hosted", "BITW", "FlexDriver"] {
            assert!(s.contains(cat), "missing {cat}");
        }
    }

    #[test]
    fn table5_counts_our_loc() {
        let s = table5(&root());
        assert!(!s.contains('?'), "LOC counting failed:\n{s}");
        assert!(s.contains("11K"));
    }

    #[test]
    fn table4_counts_our_loc() {
        let s = table4(&root());
        assert!(!s.contains('?'), "LOC counting failed:\n{s}");
        assert!(s.contains("3753"));
    }
}
