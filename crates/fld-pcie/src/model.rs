//! The analytic FLD performance model (paper § 8.1, Figure 7a and the
//! model curves of Figures 7b/8a).
//!
//! *"To estimate an upper bound on the expected FLD performance that
//! includes the PCIe overhead, we calculate the per-packet overhead and
//! derive the expected throughput. The overhead consists of control traffic
//! associated with NIC–FLD communication, such as descriptors and
//! completions."*
//!
//! The model accounts, per packet, every TLP crossing each PCIe direction:
//! data writes/read-completions, descriptor fetches, completion writes and
//! doorbells — with the batching optimizations the prototype uses
//! (§ 6: selective completion signalling, WQE-by-MMIO, multi-packet RQs).

use fld_sim::link::RecentTwo;
use fld_sim::time::{round_to_u64, Bandwidth};

use crate::config::PcieConfig;
use crate::tlp::{read_wire_bytes, write_wire_bytes, TlpKind};

/// Per-frame Ethernet wire overhead used throughout the paper's rate math
/// (Table 2a uses `M + 20 B`).
pub const ETH_OVERHEAD: u64 = 20;

// Table 2b's structure sizes, in bytes: the ConnectX software driver's
// formats and FLD's compressed ones. The descriptor codecs
// (`fld_nic::wqe`), the protocol parameters below and the memory model
// (`fld_core::memmodel`) all read these.

/// Software (ConnectX-style) transmit descriptor.
pub const SW_TX_DESC_SIZE: usize = 64;
/// Software receive descriptor (scatter entry).
pub const SW_RX_DESC_SIZE: usize = 16;
/// Software completion-queue entry.
pub const SW_CQE_SIZE: usize = 64;
/// FLD's compressed transmit descriptor.
pub const FLD_TX_DESC_SIZE: usize = 8;
/// FLD's compressed completion entry.
pub const FLD_CQE_SIZE: usize = 15;
/// A producer index, in either format.
pub const PRODUCER_INDEX_SIZE: usize = 4;

/// Sizes and batching factors of the NIC–FLD control protocol.
///
/// Sizes follow Table 2b (FLD column): 8 B compressed Tx descriptors,
/// 15 B compressed completions, 4 B producer indices.
#[derive(Debug, Clone, Copy)]
pub struct FldProtocolParams {
    /// Compressed transmit descriptor size (Table 2b: 8 B).
    pub tx_desc_size: u32,
    /// Compressed completion entry size (Table 2b: 15 B).
    pub cqe_size: u32,
    /// Producer index / doorbell payload (4 B).
    pub doorbell_size: u32,
    /// Descriptors fetched per NIC read (cache-line batching).
    pub desc_fetch_batch: u32,
    /// Rx completions per completion-queue write.
    pub rx_cqe_batch: u32,
    /// Tx completions per signalled completion (selective signalling).
    pub tx_cqe_batch: u32,
    /// Packets per doorbell / producer-index update.
    pub doorbell_batch: u32,
}

impl Default for FldProtocolParams {
    fn default() -> Self {
        FldProtocolParams {
            tx_desc_size: FLD_TX_DESC_SIZE as u32,
            cqe_size: FLD_CQE_SIZE as u32,
            doorbell_size: PRODUCER_INDEX_SIZE as u32,
            desc_fetch_batch: 8,
            rx_cqe_batch: 4,
            tx_cqe_batch: 16,
            doorbell_batch: 8,
        }
    }
}

/// Per-packet PCIe byte loads in each direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectionLoad {
    /// Bytes per packet flowing NIC → FLD.
    pub to_fld: f64,
    /// Bytes per packet flowing FLD → NIC.
    pub to_nic: f64,
}

impl DirectionLoad {
    /// Both loads as whole wire bytes, `(to_fld, to_nic)`, rounded half
    /// away from zero: what the per-packet paths charge the PCIe links
    /// and the TLP counters with.
    #[inline]
    pub fn wire_bytes(self) -> (u64, u64) {
        (round_to_u64(self.to_fld), round_to_u64(self.to_nic))
    }

    fn plus(self, other: DirectionLoad) -> DirectionLoad {
        DirectionLoad {
            to_fld: self.to_fld + other.to_fld,
            to_nic: self.to_nic + other.to_nic,
        }
    }
}

/// The analytic performance model for one FLD instance behind a NIC.
#[derive(Debug, Clone)]
pub struct FldModel {
    pcie: PcieConfig,
    /// The per-packet control shares that do not depend on the frame:
    /// batched completion writes, producer/doorbell updates and the
    /// descriptor fetch's two directions, each divided by its batch once.
    rx_cqe: f64,
    tx_cqe: f64,
    doorbell: f64,
    desc_req: f64,
    desc_cpl: f64,
    /// Whole wire bytes of the two most recent distinct frame lengths
    /// ([`FldModel::rx_wire_bytes`], [`FldModel::tx_wire_bytes`]).
    rx_recent: RecentTwo<u32, (u64, u64)>,
    tx_recent: RecentTwo<u32, (u64, u64)>,
}

impl FldModel {
    /// Creates a model over the given PCIe fabric with default protocol
    /// parameters.
    pub fn new(pcie: PcieConfig) -> Self {
        Self::with_protocol(pcie, FldProtocolParams::default())
    }

    /// Creates a model with explicit protocol parameters.
    pub fn with_protocol(pcie: PcieConfig, proto: FldProtocolParams) -> Self {
        let ov = &pcie.overheads;
        let write = |payload| ov.wire_bytes(TlpKind::MemWrite { payload }) as f64;
        let batch_bytes = proto.tx_desc_size * proto.desc_fetch_batch;
        let (dreq, dcpl) = read_wire_bytes(batch_bytes, pcie.completion_chunk, ov);
        let mut model = FldModel {
            pcie,
            rx_cqe: write(proto.cqe_size) / proto.rx_cqe_batch as f64,
            tx_cqe: write(proto.cqe_size) / proto.tx_cqe_batch as f64,
            doorbell: write(proto.doorbell_size) / proto.doorbell_batch as f64,
            desc_req: dreq as f64 / proto.desc_fetch_batch as f64,
            desc_cpl: dcpl as f64 / proto.desc_fetch_batch as f64,
            rx_recent: RecentTwo::new(0, (0, 0)),
            tx_recent: RecentTwo::new(0, (0, 0)),
        };
        // The shares exist now: seed the memos with a true pair.
        model.rx_recent = RecentTwo::new(0, model.rx_load(0).wire_bytes());
        model.tx_recent = RecentTwo::new(0, model.tx_load(0).wire_bytes());
        model
    }

    /// Raw-Ethernet goodput bound for `frame_len`-byte frames at `line`:
    /// the "Ethernet" curves of Figure 7a.
    pub fn ethernet_goodput(frame_len: u32, line: Bandwidth) -> f64 {
        line.as_bps() * frame_len as f64 / (frame_len as u64 + ETH_OVERHEAD) as f64
    }

    /// Per-packet PCIe bytes for *receiving* a `frame_len`-byte frame into
    /// the accelerator (NIC writes data + completion; FLD returns producer
    /// updates).
    pub fn rx_load(&self, frame_len: u32) -> DirectionLoad {
        let ov = &self.pcie.overheads;
        let data = write_wire_bytes(frame_len, self.pcie.max_payload, ov) as f64;
        DirectionLoad {
            to_fld: data + self.rx_cqe,
            to_nic: self.doorbell,
        }
    }

    /// `rx_load(frame_len).wire_bytes()` for the per-packet paths.
    #[inline]
    pub fn rx_wire_bytes(&mut self, frame_len: u32) -> (u64, u64) {
        match self.rx_recent.get(frame_len) {
            Some(bytes) => bytes,
            None => self
                .rx_recent
                .insert(frame_len, self.rx_load(frame_len).wire_bytes()),
        }
    }

    /// Per-packet PCIe bytes for *transmitting* a `frame_len`-byte frame
    /// from the accelerator (NIC fetches descriptor + data; FLD receives
    /// completions; FLD rings doorbells).
    pub fn tx_load(&self, frame_len: u32) -> DirectionLoad {
        let ov = &self.pcie.overheads;
        // Packet data: one read request per max_read_request bytes, data
        // returned as chunked completions.
        let mut to_fld = 0.0;
        let mut to_nic = 0.0;
        let reads = frame_len.div_ceil(self.pcie.max_read_request);
        for i in 0..reads {
            let chunk =
                (frame_len - i * self.pcie.max_read_request).min(self.pcie.max_read_request);
            let (req, cpl) = read_wire_bytes(chunk, self.pcie.completion_chunk, ov);
            to_fld += req as f64;
            to_nic += cpl as f64;
        }
        // Descriptor fetch, batched across desc_fetch_batch descriptors.
        to_fld += self.desc_req;
        to_nic += self.desc_cpl;
        // Tx completion write (selective signalling).
        to_fld += self.tx_cqe;
        // Doorbell.
        to_nic += self.doorbell;
        DirectionLoad { to_fld, to_nic }
    }

    /// `tx_load(frame_len).wire_bytes()` for the per-packet paths.
    #[inline]
    pub fn tx_wire_bytes(&mut self, frame_len: u32) -> (u64, u64) {
        match self.tx_recent.get(frame_len) {
            Some(bytes) => bytes,
            None => self
                .tx_recent
                .insert(frame_len, self.tx_load(frame_len).wire_bytes()),
        }
    }

    fn pcie_bound(&self, frame_len: u32, load: DirectionLoad) -> f64 {
        let per_dir = load.to_fld.max(load.to_nic);
        self.pcie.rate.as_bps() * frame_len as f64 / per_dir
    }

    /// Upper-bound goodput for one-way receive into the accelerator.
    pub fn rx_throughput(&self, frame_len: u32, line: Bandwidth) -> f64 {
        Self::ethernet_goodput(frame_len, line)
            .min(self.pcie_bound(frame_len, self.rx_load(frame_len)))
    }

    /// Upper-bound goodput for one-way transmit from the accelerator.
    pub fn tx_throughput(&self, frame_len: u32, line: Bandwidth) -> f64 {
        Self::ethernet_goodput(frame_len, line)
            .min(self.pcie_bound(frame_len, self.tx_load(frame_len)))
    }

    /// Upper-bound goodput for an echo accelerator (each frame is both
    /// received and retransmitted, so each PCIe direction carries both
    /// flows) — the model line of Figure 7b.
    pub fn echo_throughput(&self, frame_len: u32, line: Bandwidth) -> f64 {
        let combined = self.rx_load(frame_len).plus(self.tx_load(frame_len));
        Self::ethernet_goodput(frame_len, line).min(self.pcie_bound(frame_len, combined))
    }

    /// Upper-bound goodput for an RDMA request/response accelerator
    /// (the model line of Figure 8a): `msg_len`-byte application payload
    /// plus `app_header` travels in `mtu`-byte RoCE packets both ways.
    ///
    /// Returns goodput in application-payload bits per second.
    pub fn rdma_echo_goodput(
        &self,
        msg_len: u32,
        app_header: u32,
        mtu: u32,
        line: Bandwidth,
    ) -> f64 {
        // RoCE v2 framing per MTU packet: Eth(14) + IP(20) + UDP(8) +
        // BTH(12) + ICRC(4) = 58 B, plus 20 B wire overhead.
        const ROCE_HDRS: u32 = 58;
        let payload = msg_len + app_header;
        let packets = payload.div_ceil(mtu).max(1);
        let wire_bytes = payload as u64 + packets as u64 * (ROCE_HDRS as u64 + ETH_OVERHEAD);
        let eth_bound = line.as_bps() * msg_len as f64 / wire_bytes as f64;
        // PCIe side: data + per-packet control, both directions (echo).
        let mut load = DirectionLoad {
            to_fld: 0.0,
            to_nic: 0.0,
        };
        let mut remaining = payload;
        for _ in 0..packets {
            let chunk = remaining.min(mtu);
            remaining -= chunk;
            load = load.plus(
                self.rx_load(chunk + ROCE_HDRS)
                    .plus(self.tx_load(chunk + ROCE_HDRS)),
            );
        }
        let per_dir = load.to_fld.max(load.to_nic);
        let pcie_bound = self.pcie.rate.as_bps() * msg_len as f64 / per_dir;
        eth_bound.min(pcie_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn innova() -> FldModel {
        FldModel::new(PcieConfig::innova2_gen3_x8())
    }

    #[test]
    fn ethernet_goodput_shape() {
        let line = Bandwidth::gbps(25.0);
        let small = FldModel::ethernet_goodput(64, line);
        let large = FldModel::ethernet_goodput(1500, line);
        assert!(small < large);
        assert!(large < 25e9);
        // 1500 B: 25 * 1500/1520 = 24.67 Gbps.
        assert!((large / 1e9 - 24.67).abs() < 0.01);
    }

    /// Paper: "the overheads allow meeting line rate of 25 Gbps for any
    /// packet size" (Figure 7a, 25 Gbps configuration).
    #[test]
    fn meets_25g_line_rate_at_all_sizes() {
        let m = innova();
        let line = Bandwidth::gbps(25.0);
        for size in [64u32, 128, 256, 512, 1024, 1500] {
            let eth = FldModel::ethernet_goodput(size, line);
            let fld = m.echo_throughput(size, line);
            assert!(
                fld >= eth * 0.999,
                "size {size}: fld {:.2} < eth {:.2}",
                fld / 1e9,
                eth / 1e9
            );
        }
    }

    /// Paper: "FLD's current design can reach 95% of Ethernet line rate at
    /// 512 B packets for both 50 and 100 Gbps" — we accept >= 90 % as the
    /// shape criterion.
    #[test]
    fn near_line_rate_at_512b_for_50g() {
        let m = innova();
        let line = Bandwidth::gbps(50.0);
        let eth = FldModel::ethernet_goodput(512, line);
        let fld = m.echo_throughput(512, line);
        let ratio = fld / eth;
        assert!(ratio > 0.88, "ratio {ratio:.3}");
        assert!(ratio <= 1.0);
    }

    #[test]
    fn small_packets_are_pcie_bound_at_50g() {
        let m = innova();
        let line = Bandwidth::gbps(50.0);
        let eth = FldModel::ethernet_goodput(64, line);
        let fld = m.echo_throughput(64, line);
        assert!(
            fld < eth * 0.9,
            "64 B echo should be PCIe bound: {:.2} vs {:.2}",
            fld / 1e9,
            eth / 1e9
        );
    }

    #[test]
    fn one_way_beats_echo() {
        let m = innova();
        let line = Bandwidth::gbps(50.0);
        for size in [64u32, 256, 1024] {
            assert!(m.rx_throughput(size, line) >= m.echo_throughput(size, line));
            assert!(m.tx_throughput(size, line) >= m.echo_throughput(size, line));
        }
    }

    #[test]
    fn loads_scale_with_packet_size() {
        let m = innova();
        let small = m.rx_load(64);
        let large = m.rx_load(1500);
        assert!(large.to_fld > small.to_fld);
        // Producer updates do not depend on frame size.
        assert_eq!(small.to_nic, large.to_nic);
    }

    #[test]
    fn rdma_model_accounts_headers() {
        let m = innova();
        let line = Bandwidth::gbps(25.0);
        // Large requests approach (but never exceed) line rate.
        let large = m.rdma_echo_goodput(4096, 64, 1024, line);
        assert!(large < 25e9);
        assert!(large > 0.8 * 25e9, "large {:.2}", large / 1e9);
        // Small requests are dominated by fixed headers (RoCE + app header
        // + wire overhead exceed the 64 B payload itself).
        let small = m.rdma_echo_goodput(64, 64, 1024, line);
        assert!(
            small < large / 2.5,
            "small {small:.2e} vs large {large:.2e}"
        );
    }

    #[test]
    fn throughput_grows_with_packet_size() {
        // PCIe exhibits a small sawtooth at MPS boundaries (a 513 B packet
        // needs two TLPs), so we assert the overall trend plus a bound on
        // local dips rather than strict monotonicity.
        let m = innova();
        let line = Bandwidth::gbps(50.0);
        let mut prev = 0.0;
        let first = m.echo_throughput(64, line);
        let mut last = 0.0;
        for size in (64..=1536).step_by(64) {
            let t = m.echo_throughput(size as u32, line);
            assert!(t >= prev * 0.9, "throughput collapsed at {size}");
            prev = t;
            last = t;
        }
        assert!(last > first * 1.5, "large packets must be much faster");
    }
}
