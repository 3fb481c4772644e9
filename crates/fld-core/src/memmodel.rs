//! The NIC-driver memory model of paper §§ 4.3 & 5.2: Table 2 parameter
//! derivations, the Table 3 software-vs-FLD comparison, and the Figure 4
//! scalability sweep, with per-optimization toggles for ablation studies.
//!
//! All formulas follow the paper exactly, including the power-of-two ring
//! rounding `f(n) = 2^⌈log2 n⌉` and the translation-table overheads
//! (`S_xlt* < 33 KiB`).

use fld_pcie::model::{
    FLD_CQE_SIZE, FLD_TX_DESC_SIZE, PRODUCER_INDEX_SIZE, SW_CQE_SIZE, SW_RX_DESC_SIZE,
    SW_TX_DESC_SIZE,
};
use fld_sim::time::{Bandwidth, SimDuration};

/// `f(n) = 2^⌈log2 n⌉` — rings are allocated at power-of-two sizes.
pub fn ring_round(n: u64) -> u64 {
    n.next_power_of_two()
}

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * 1024;

/// On-chip memory available on the prototype's Xilinx XCKU15P FPGA
/// (§ 4.3: "only 10.05 MiB overall available capacity"; the Figure 4
/// reference line).
pub const XCKU15P_CAPACITY_BYTES: u64 = (10.05 * MIB as f64) as u64;

/// Driver-interaction workload parameters (Table 2a).
#[derive(Debug, Clone, Copy)]
pub struct MemParams {
    /// Line rate `B`.
    pub bandwidth: Bandwidth,
    /// Minimum packet size `M_min` (sets the packet rate).
    pub min_packet: u64,
    /// Maximum packet/message size `M_max` (sets worst-case buffers).
    pub max_packet: u64,
    /// Receive buffer lifetime `L_rx`.
    pub lifetime_rx: SimDuration,
    /// Transmit buffer lifetime `L_tx`.
    pub lifetime_tx: SimDuration,
    /// Number of transmit queues `N_q`.
    pub tx_queues: u64,
}

impl Default for MemParams {
    /// The Table 2a example configuration: 100 Gbps, 256 B–16 KiB packets,
    /// 5/25 µs lifetimes, 512 queues.
    fn default() -> Self {
        MemParams {
            bandwidth: Bandwidth::gbps(100.0),
            min_packet: 256,
            max_packet: 16 * KIB,
            lifetime_rx: SimDuration::from_micros(5),
            lifetime_tx: SimDuration::from_micros(25),
            tx_queues: 512,
        }
    }
}

impl MemParams {
    /// Maximum packet rate `R = B / (M_min + 20 B)` in packets/second.
    pub fn packet_rate(&self) -> f64 {
        self.bandwidth.as_bps() / ((self.min_packet + 20) as f64 * 8.0)
    }

    /// Minimum transmit descriptors `N_txdesc = ⌈R · L_tx⌉`.
    pub fn n_txdesc(&self) -> u64 {
        (self.packet_rate() * self.lifetime_tx.as_secs_f64()).ceil() as u64
    }

    /// Minimum receive descriptors `N_rxdesc = ⌈R · L_rx⌉`.
    pub fn n_rxdesc(&self) -> u64 {
        (self.packet_rate() * self.lifetime_rx.as_secs_f64()).ceil() as u64
    }

    /// Transmit bandwidth-delay product `S_txbdp = B · L_tx` in bytes.
    pub fn tx_bdp(&self) -> u64 {
        (self.bandwidth.as_bps() * self.lifetime_tx.as_secs_f64() / 8.0).round() as u64
    }

    /// Receive bandwidth-delay product `S_rxbdp = B · L_rx` in bytes.
    pub fn rx_bdp(&self) -> u64 {
        (self.bandwidth.as_bps() * self.lifetime_rx.as_secs_f64() / 8.0).round() as u64
    }
}

/// Structure sizes of the NIC-driver protocol (Table 2b).
#[derive(Debug, Clone, Copy)]
pub struct StructSizes {
    /// Transmit descriptor size.
    pub tx_desc: u64,
    /// Receive descriptor size.
    pub rx_desc: u64,
    /// Completion-queue entry size.
    pub cqe: u64,
    /// Producer index size.
    pub producer_index: u64,
}

impl StructSizes {
    /// ConnectX software-driver sizes (Table 2b "Software" column).
    pub const SOFTWARE: StructSizes = StructSizes {
        tx_desc: SW_TX_DESC_SIZE as u64,
        rx_desc: SW_RX_DESC_SIZE as u64,
        cqe: SW_CQE_SIZE as u64,
        producer_index: PRODUCER_INDEX_SIZE as u64,
    };

    /// FLD compressed sizes (Table 2b "FLD" column).
    pub const FLD: StructSizes = StructSizes {
        tx_desc: FLD_TX_DESC_SIZE as u64,
        rx_desc: 0,
        cqe: FLD_CQE_SIZE as u64,
        producer_index: PRODUCER_INDEX_SIZE as u64,
    };
}

/// FLD memory-optimization toggles (§ 5.2), for ablation studies.
#[derive(Debug, Clone, Copy)]
pub struct FldOptimizations {
    /// Compressed descriptor/completion formats.
    pub compression: bool,
    /// Cuckoo-hash ring virtualization (shared descriptor pool).
    pub tx_ring_translation: bool,
    /// Fine-grained shared Tx data buffers via translation.
    pub tx_buffer_sharing: bool,
    /// Multi-packet receive queues bounding Rx fragmentation.
    pub mprq: bool,
    /// Shared receive ring stored in host memory.
    pub rx_ring_in_host: bool,
}

impl FldOptimizations {
    /// Everything on — the FLD design point.
    pub const ALL: FldOptimizations = FldOptimizations {
        compression: true,
        tx_ring_translation: true,
        tx_buffer_sharing: true,
        mprq: true,
        rx_ring_in_host: true,
    };

    /// Everything off — degenerates to the software layout held on-chip.
    pub const NONE: FldOptimizations = FldOptimizations {
        compression: false,
        tx_ring_translation: false,
        tx_buffer_sharing: false,
        mprq: false,
        rx_ring_in_host: false,
    };
}

/// A per-structure memory breakdown (one column of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBreakdown {
    /// Tx rings `S_txq` (including any translation table).
    pub tx_rings: u64,
    /// Tx data buffers `S_txdata` (including any translation table).
    pub tx_data: u64,
    /// Rx data buffers `S_rxdata`.
    pub rx_data: u64,
    /// Completion queues `S_cq`.
    pub cq: u64,
    /// Rx ring `S_srq` (0 when held in host memory).
    pub rx_ring: u64,
    /// Producer indices `S_pitot`.
    pub producer_indices: u64,
}

impl MemBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.tx_rings + self.tx_data + self.rx_data + self.cq + self.rx_ring + self.producer_indices
    }
}

/// Computes the conventional software-driver memory footprint (Table 3
/// "Software" column).
pub fn software_breakdown(p: &MemParams) -> MemBreakdown {
    let s = StructSizes::SOFTWARE;
    let n_tx = p.n_txdesc();
    let n_rx = p.n_rxdesc();
    MemBreakdown {
        // Per-queue rings: N_q · f(N_txdesc) · S_txdesc.
        tx_rings: p.tx_queues * ring_round(n_tx) * s.tx_desc,
        // Worst-case-sized buffers per descriptor: M_max · N_desc.
        tx_data: p.max_packet * n_tx,
        rx_data: p.max_packet * n_rx,
        // Shared CQs sized for all descriptors.
        cq: (ring_round(n_tx) + ring_round(n_rx)) * s.cqe,
        rx_ring: ring_round(n_rx) * s.rx_desc,
        producer_indices: (p.tx_queues + 1) * s.producer_index,
    }
}

/// Size of the Tx-ring cuckoo translation table: the table is doubled for
/// convergence (§ 5.2) and holds one entry per descriptor slot.
fn xlt_tx_bytes(p: &MemParams) -> u64 {
    // 2 · f(N_txdesc) entries of 31 bits (~15.5 KiB in the Table 3 example).
    2 * ring_round(p.n_txdesc()) * 31 / 8
}

/// Size of the Tx data-buffer translation table: per-queue virtual ranges
/// mapped at 256 B granularity into the shared pool.
fn xlt_data_bytes(p: &MemParams) -> u64 {
    // 2 · f(2·S_txbdp / 256) entries of 33 bits (~33 KiB in the example).
    2 * ring_round(2 * p.tx_bdp() / 256) * 33 / 8
}

/// Computes FLD's on-chip memory footprint (Table 3 "FLD" column) for a
/// given set of optimizations.
pub fn fld_breakdown(p: &MemParams, opts: FldOptimizations) -> MemBreakdown {
    let s = if opts.compression {
        StructSizes::FLD
    } else {
        StructSizes::SOFTWARE
    };
    let n_tx = p.n_txdesc();
    let n_rx = p.n_rxdesc();

    let tx_rings = if opts.tx_ring_translation {
        // One shared pool of descriptors plus the cuckoo table.
        ring_round(n_tx) * s.tx_desc + xlt_tx_bytes(p)
    } else {
        p.tx_queues * ring_round(n_tx) * s.tx_desc
    };

    let tx_data = if opts.tx_buffer_sharing {
        // Double the BDP plus the data translation table.
        2 * p.tx_bdp() + xlt_data_bytes(p)
    } else {
        p.max_packet * n_tx
    };

    let rx_data = if opts.mprq {
        // MPRQ bounds fragmentation to half a buffer: 2 · S_rxbdp covers it.
        2 * p.rx_bdp()
    } else {
        p.max_packet * n_rx
    };

    let rx_ring = if opts.rx_ring_in_host {
        0
    } else {
        ring_round(n_rx) * StructSizes::SOFTWARE.rx_desc
    };

    MemBreakdown {
        tx_rings,
        tx_data,
        rx_data,
        cq: (ring_round(n_tx) + ring_round(n_rx)) * s.cqe,
        rx_ring,
        producer_indices: (p.tx_queues + 1) * s.producer_index,
    }
}

/// One point of the Figure 4 sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Line rate in Gbps.
    pub gbps: f64,
    /// Transmit queue count.
    pub tx_queues: u64,
    /// Software total bytes.
    pub software: u64,
    /// FLD total bytes.
    pub fld: u64,
}

/// Sweeps line rate and queue count (Figure 4): for each combination,
/// computes software and FLD totals.
pub fn figure4_sweep(rates_gbps: &[f64], queue_counts: &[u64]) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &gbps in rates_gbps {
        for &q in queue_counts {
            let p = MemParams {
                bandwidth: Bandwidth::gbps(gbps),
                tx_queues: q,
                ..MemParams::default()
            };
            out.push(SweepPoint {
                gbps,
                tx_queues: q,
                software: software_breakdown(&p).total(),
                fld: fld_breakdown(&p, FldOptimizations::ALL).total(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> MemParams {
        MemParams::default()
    }

    /// Table 2a derived values.
    #[test]
    fn table_2a_derivations() {
        let p = p();
        // R = 45 Mpps.
        assert!(
            (p.packet_rate() / 1e6 - 45.29).abs() < 0.1,
            "{}",
            p.packet_rate()
        );
        assert_eq!(p.n_txdesc(), 1133);
        assert_eq!(p.n_rxdesc(), 227);
        // S_txbdp = 305 KiB, S_rxbdp = 61 KiB.
        assert_eq!(p.tx_bdp(), 312_500);
        assert_eq!(p.rx_bdp(), 62_500);
        assert!((p.tx_bdp() as f64 / KIB as f64 - 305.2).abs() < 0.1);
        assert!((p.rx_bdp() as f64 / KIB as f64 - 61.0).abs() < 0.1);
    }

    /// Table 3 "Software" column values.
    #[test]
    fn table_3_software_column() {
        let b = software_breakdown(&p());
        assert_eq!(b.tx_rings, 64 * MIB);
        assert!((b.tx_data as f64 / MIB as f64 - 17.7).abs() < 0.01);
        assert!((b.rx_data as f64 / MIB as f64 - 3.5).abs() < 0.05);
        assert_eq!(b.cq, 144 * KIB);
        assert_eq!(b.rx_ring, 4 * KIB);
        assert_eq!(b.producer_indices, 2052);
        assert!((b.total() as f64 / MIB as f64 - 85.3).abs() < 0.1);
    }

    /// Table 3 "FLD" column values.
    #[test]
    fn table_3_fld_column() {
        let b = fld_breakdown(&p(), FldOptimizations::ALL);
        // S_txq ≈ 32 KiB (16 KiB pool + 15.5 KiB cuckoo table).
        assert!(
            (b.tx_rings as f64 / KIB as f64 - 31.5).abs() < 1.0,
            "{}",
            b.tx_rings
        );
        // S_txdata ≈ 643 KiB.
        assert!(
            (b.tx_data as f64 / KIB as f64 - 643.0).abs() < 2.0,
            "{}",
            b.tx_data
        );
        // S_rxdata ≈ 122 KiB.
        assert!((b.rx_data as f64 / KIB as f64 - 122.0).abs() < 1.0);
        // S_cq = 33.75 KiB.
        assert_eq!(b.cq, 34_560);
        assert_eq!(b.rx_ring, 0);
        assert_eq!(b.producer_indices, 2052);
        // Total ≈ 832.7 KiB.
        assert!(
            (b.total() as f64 / KIB as f64 - 832.7).abs() < 3.0,
            "{}",
            b.total()
        );
    }

    /// The headline shrink ratios of Table 3.
    #[test]
    fn table_3_shrink_ratios() {
        let sw = software_breakdown(&p());
        let fld = fld_breakdown(&p(), FldOptimizations::ALL);
        let ratio = |a: u64, b: u64| a as f64 / b as f64;
        assert!((ratio(sw.tx_rings, fld.tx_rings) - 2080.0).abs() < 10.0);
        assert!((ratio(sw.tx_data, fld.tx_data) - 28.2).abs() < 0.2);
        assert!((ratio(sw.rx_data, fld.rx_data) - 29.8).abs() < 0.2);
        assert!((ratio(sw.cq, fld.cq) - 4.27).abs() < 0.01);
        let total = ratio(sw.total(), fld.total());
        assert!((total - 105.0).abs() < 1.0, "total shrink {total}");
    }

    /// § 4.3: the software footprint cannot fit the XCKU15P; FLD fits with
    /// room to spare.
    #[test]
    fn fits_on_fpga() {
        let sw = software_breakdown(&p()).total();
        let fld = fld_breakdown(&p(), FldOptimizations::ALL).total();
        assert!(sw > XCKU15P_CAPACITY_BYTES);
        assert!(fld < XCKU15P_CAPACITY_BYTES / 10);
    }

    /// § 5.2.1: FLD stays on-chip-feasible at 400 Gbps and 2048 queues.
    #[test]
    fn figure_4_scaling_endpoint() {
        let p400 = MemParams {
            bandwidth: Bandwidth::gbps(400.0),
            tx_queues: 2048,
            ..MemParams::default()
        };
        let fld = fld_breakdown(&p400, FldOptimizations::ALL).total();
        assert!(
            fld < XCKU15P_CAPACITY_BYTES,
            "FLD at 400G/2048q must fit on-chip: {} MiB",
            fld as f64 / MIB as f64
        );
        let sw = software_breakdown(&p400).total();
        assert!(sw > 100 * XCKU15P_CAPACITY_BYTES, "software explodes: {sw}");
    }

    /// Ablation sanity: turning each optimization off increases the total.
    #[test]
    fn each_optimization_contributes() {
        let base = fld_breakdown(&p(), FldOptimizations::ALL).total();
        let toggles = [
            FldOptimizations {
                compression: false,
                ..FldOptimizations::ALL
            },
            FldOptimizations {
                tx_ring_translation: false,
                ..FldOptimizations::ALL
            },
            FldOptimizations {
                tx_buffer_sharing: false,
                ..FldOptimizations::ALL
            },
            FldOptimizations {
                mprq: false,
                ..FldOptimizations::ALL
            },
            FldOptimizations {
                rx_ring_in_host: false,
                ..FldOptimizations::ALL
            },
        ];
        for (i, t) in toggles.iter().enumerate() {
            let total = fld_breakdown(&p(), *t).total();
            assert!(total > base, "toggle {i} did not increase memory");
        }
        // All off approaches the software column.
        let none = fld_breakdown(&p(), FldOptimizations::NONE).total();
        let sw = software_breakdown(&p()).total();
        assert!(none as f64 > sw as f64 * 0.99, "none={none} sw={sw}");
    }

    #[test]
    fn sweep_covers_grid() {
        let pts = figure4_sweep(&[100.0, 400.0], &[512, 2048]);
        assert_eq!(pts.len(), 4);
        // Software grows superlinearly with queues; FLD barely moves.
        let f = |g: f64, q: u64| {
            pts.iter()
                .find(|p| p.gbps == g && p.tx_queues == q)
                .unwrap()
        };
        assert!(f(100.0, 2048).software > 3 * f(100.0, 512).software);
        assert!(f(100.0, 2048).fld < 2 * f(100.0, 512).fld);
    }

    #[test]
    fn ring_round_is_next_power_of_two() {
        assert_eq!(ring_round(1133), 2048);
        assert_eq!(ring_round(227), 256);
        assert_eq!(ring_round(1), 1);
        assert_eq!(ring_round(2048), 2048);
    }
}
