//! Literature-constant tables: Table 1 (architecture comparison), Table 4
//! (software LOC) and Table 5 (hardware utilization). These report the
//! paper's published numbers — FPGA resource counts are not reproducible
//! in a software model. [`loc`] puts this reproduction's own LOC beside
//! the paper's.

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

/// Table 4's rows: the paper's component and its LOC, then the part of
/// this reproduction that models it and where that part's source lives.
const TABLE4: [[&str; 4]; 6] = [
    [
        "FLD runtime library",
        "3753",
        "fld-core (hw+system)",
        "crates/fld-core/src",
    ],
    [
        "FLD kernel driver",
        "1137",
        "fld-nic (NIC command surface)",
        "crates/fld-nic/src/nic.rs",
    ],
    [
        "FLD-E control-plane",
        "1554",
        "eswitch (FLD-E rules)",
        "crates/fld-nic/src/eswitch.rs",
    ],
    [
        "FLD-R control-plane",
        "1510",
        "rdma + rdma_system",
        "crates/fld-nic/src/rdma.rs",
    ],
    [
        "FLD-R client library",
        "754",
        "fld-accel client",
        "crates/fld-accel/src/client.rs",
    ],
    [
        "ZUC DPDK driver",
        "732",
        "zuc_accel (protocol+model)",
        "crates/fld-accel/src/zuc_accel.rs",
    ],
];

/// Table 5's rows (module, clock, LUT, FF, BRAM, URAM, HW LOC), then the
/// source of this reproduction's model of the module.
const TABLE5: [([&str; 7], &str); 5] = [
    (
        ["FLD", "250", "50K", "66K", "35", "44", "11K"],
        "crates/fld-core/src",
    ),
    (
        ["PCIe core", "250", "12K", "23K", "44", "-", "-"],
        "crates/fld-pcie/src",
    ),
    (
        ["ZUC", "200", "38K", "37K", "242", "-", "6K"],
        "crates/fld-crypto/src/zuc.rs",
    ),
    (
        ["IP defrag.", "250", "17K", "16K", "984", "64", "2K"],
        "crates/fld-accel/src/defrag_accel.rs",
    ),
    (
        ["IoT auth.", "200", "118K", "138K", "293", "-", "8K"],
        "crates/fld-accel/src/iot_accel.rs",
    ),
];

/// Reproduces Table 5: hardware resource utilization and HW LOC.
pub fn table5() -> String {
    let mut t = TextTable::new(vec![
        "Module",
        "Clk",
        "LUT",
        "FF",
        "BRAM",
        "URAM",
        "HW LOC (paper)",
    ]);
    for (row, _) in TABLE5 {
        t.row(row.to_vec());
    }
    format!(
        "Table 5: hardware utilization (paper values; FPGA resources are not\n\
         reproducible in software; this reproduction's model LOC: `exp loc`)\n{}",
        t.render()
    )
}

/// Reproduces Table 4: software lines of code per component.
pub fn table4() -> String {
    let mut t = TextTable::new(vec!["Component (paper)", "LOC (paper)"]);
    for row in TABLE4 {
        t.row(row[..2].to_vec());
    }
    format!(
        "Table 4: software lines of code per component (paper values; this\n\
         reproduction's: `exp loc`)\n{}",
        t.render()
    )
}

/// This reproduction's lines of code beside the paper's: Table 4's
/// software components, then the model of each Table 5 hardware module.
/// Counted from the source tree under `repo_root`, so the numbers move
/// with every change to it; that is why `exp all` leaves this out.
pub fn loc(repo_root: &Path) -> String {
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
    for [component, paper, model, src] in TABLE4 {
        t.row(vec![component, paper, model, &ours(src)]);
    }
    for ([module, .., hw_loc], src) in TABLE5 {
        t.row(vec![
            format!("{module} (HW)"),
            hw_loc.to_string(),
            src.to_string(),
            ours(src),
        ]);
    }
    format!(
        "Tables 4 and 5: lines of code, the paper's beside this reproduction's\n{}",
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
        let s = loc(&root());
        assert!(!s.contains('?'), "LOC counting failed:\n{s}");
        assert!(s.contains("| FLD (HW)") && s.contains("11K"), "{s}");
    }

    #[test]
    fn table4_counts_our_loc() {
        let s = loc(&root());
        assert!(!s.contains('?'), "LOC counting failed:\n{s}");
        assert!(s.contains("3753"));
    }
}
