//! Calibration constants for the system simulation, each annotated with the
//! paper-reported target it reproduces. Every latency/cost knob lives here
//! so experiments stay consistent and the calibration is auditable.

use fld_sim::time::{Bandwidth, SimDuration};

/// Output buffer, in bytes, of the load generator's port and of every rack
/// fabric port: what each holds before it tail-drops. A modelling
/// assumption with no source in the paper. testpmd's real bound is its
/// transmit ring, counted in descriptors rather than bytes. The queueing
/// an overloaded port adds to a round trip is this buffer's drain time:
/// 83.9 µs at 25 Gbps, 41.9 µs on the 50 Gbps local-mode host link.
pub const PORT_BUFFER: u64 = 256 * 1024;

/// Latency and processing-cost constants of the simulated testbed.
#[derive(Debug, Clone, Copy)]
pub struct SystemParams {
    /// One-way wire propagation + PHY latency between back-to-back nodes.
    /// Target: contributes to the ~2.3–2.8 µs echo RTTs of Table 6.
    pub wire_latency: SimDuration,
    /// NIC ingress/egress pipeline latency per packet (ASIC processing).
    pub nic_latency: SimDuration,
    /// One-way PCIe latency (switch + PHY), per hop.
    pub pcie_latency: SimDuration,
    /// Uniform per-transfer PCIe arbitration jitter bound (0..this).
    pub pcie_jitter: SimDuration,
    /// Probability of a PCIe ordering stall on a transfer (§ 6 discusses
    /// control messages delayed behind queued data messages).
    pub pcie_stall_prob: f64,
    /// Duration of one ordering stall.
    pub pcie_stall: SimDuration,
    /// Per-NIC-traversal latency of the hardware RDMA transport (RNIC
    /// send/receive pipelines are slower than raw packet forwarding).
    /// Target: the ~9.4/10.6 µs low-load medians of Figure 7c.
    pub roce_latency: SimDuration,
    /// FLD processing latency per packet (250 MHz pipeline, § 6 / Table 5).
    pub fld_latency: SimDuration,
    /// Fixed host-CPU cost to process one packet in a DPDK-style poll-mode
    /// driver. Target: 9.6 Mpps single-core testpmd (§ 8.1.1) ⇒ ~104 ns.
    pub cpu_per_packet: SimDuration,
    /// Per-byte CPU touch cost (copies/parsing) on the host data path.
    pub cpu_per_byte: SimDuration,
    /// Maximum per-core receive backlog before the host rx ring overflows
    /// and the NIC drops (models a finite receive ring + poll loop).
    pub host_rx_backlog_limit: SimDuration,
    /// Mean interval between OS interference events on a CPU core
    /// (scheduler ticks, IRQs). Target: the 11.18 µs 99.9th-percentile CPU
    /// echo latency of Table 6 versus a 2.58 µs 99th percentile.
    pub os_jitter_interval: SimDuration,
    /// Duration of one OS interference event.
    pub os_jitter_duration: SimDuration,
    /// Ethernet line rate of the Innova-2 port (remote experiments).
    pub line_rate: Bandwidth,
    /// Ethernet MTU for remote experiments (§ 8 Setup: 1500 B).
    pub eth_mtu: u32,
    /// RoCE path MTU (§ 8 Setup: 1024 B).
    pub roce_mtu: u32,
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams {
            wire_latency: SimDuration::from_nanos(300),
            nic_latency: SimDuration::from_nanos(350),
            pcie_latency: SimDuration::from_nanos(450),
            pcie_jitter: SimDuration::from_nanos(300),
            pcie_stall_prob: 0.001,
            pcie_stall: SimDuration::from_nanos(1500),
            roce_latency: SimDuration::from_nanos(2800),
            fld_latency: SimDuration::from_nanos(120),
            cpu_per_packet: SimDuration::from_nanos(104),
            cpu_per_byte: SimDuration::from_picos(150),
            host_rx_backlog_limit: SimDuration::from_micros(500),
            os_jitter_interval: SimDuration::from_micros(1500),
            os_jitter_duration: SimDuration::from_micros(9),
            line_rate: Bandwidth::gbps(25.0),
            eth_mtu: 1500,
            roce_mtu: 1024,
        }
    }
}

/// Accelerator processing-rate constants (paper § 7).
#[derive(Debug, Clone, Copy)]
pub struct AccelParams {
    /// ZUC units on the FPGA ("8 ZUC modules").
    pub zuc_units: usize,
    /// Per-unit ZUC throughput at the reference 512 B message size
    /// ("each operating, e.g., at 4.76 Gbps for 512 B messages").
    pub zuc_unit_gbps: f64,
    /// Fixed per-request ZUC unit setup cost (key/IV load — explains the
    /// lower per-unit rate at small messages).
    pub zuc_setup: SimDuration,
    /// IoT auth units ("20 Mpps for 256 B packets using 8 processing
    /// units") — per-unit packet rate.
    pub auth_units: usize,
    /// Per-unit authentication packet cost (8 units × 2.5 Mpps = 20 Mpps).
    pub auth_per_packet: SimDuration,
    /// Defragmentation accelerator per-fragment cost (line-rate capable).
    pub defrag_per_fragment: SimDuration,
    /// Software ZUC throughput per CPU core. Target: Figure 8a shows FLD at
    /// 17.6 Gbps ≈ 4× the CPU for ≥ 512 B requests ⇒ ~4.4 Gbps.
    pub sw_zuc_core_gbps: f64,
    /// Software defragmentation + stack capacity of one receiver core.
    /// Target: § 8.2.2 reports 3.2 Gbps when all fragments hit one core.
    pub sw_defrag_core_gbps: f64,
}

impl Default for AccelParams {
    fn default() -> Self {
        AccelParams {
            zuc_units: 8,
            zuc_unit_gbps: 4.76,
            zuc_setup: SimDuration::from_nanos(120),
            auth_units: 8,
            auth_per_packet: SimDuration::from_nanos(400),
            defrag_per_fragment: SimDuration::from_nanos(40),
            sw_zuc_core_gbps: 4.4,
            sw_defrag_core_gbps: 3.2,
        }
    }
}

impl AccelParams {
    /// Time for one ZUC unit to process a request of `bytes`.
    pub fn zuc_request_time(&self, bytes: u64) -> SimDuration {
        // Calibrated so a 512 B message runs at `zuc_unit_gbps` *including*
        // the setup cost.
        let eff_rate = {
            let t512 = 512.0 * 8.0 / (self.zuc_unit_gbps * 1e9);
            let stream = t512 - self.zuc_setup.as_secs_f64();
            512.0 * 8.0 / stream
        };
        self.zuc_setup + SimDuration::from_secs_f64(bytes as f64 * 8.0 / eff_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_rate_matches_testpmd_target() {
        let p = SystemParams::default();
        let pps = 1.0 / p.cpu_per_packet.as_secs_f64();
        // § 8.1.1: 9.6 Mpps on one core.
        assert!((pps / 1e6 - 9.6).abs() < 0.1, "pps {pps}");
    }

    #[test]
    fn zuc_rates_match_paper() {
        let a = AccelParams::default();
        // 8 units × 4.76 Gbps ≈ 38 Gbps aggregate.
        assert!((a.zuc_units as f64 * a.zuc_unit_gbps - 38.08).abs() < 0.01);
        // A 512 B request on one unit takes 512·8/4.76 Gbps ≈ 860 ns.
        let t = a.zuc_request_time(512);
        assert!((t.as_nanos() as f64 - 860.0).abs() < 3.0, "{t}");
        // Small requests are setup-dominated: effective rate drops.
        let t64 = a.zuc_request_time(64);
        let rate64 = 64.0 * 8.0 / t64.as_secs_f64() / 1e9;
        assert!(rate64 < 3.0, "64 B rate {rate64} Gbps");
    }

    #[test]
    fn auth_rate_matches_paper() {
        let a = AccelParams::default();
        // 8 units at 400 ns/packet = 20 Mpps (§ 7).
        let pps = a.auth_units as f64 / a.auth_per_packet.as_secs_f64();
        assert!((pps / 1e6 - 20.0).abs() < 0.01);
    }

    #[test]
    fn jitter_tail_is_rare_but_large() {
        let p = SystemParams::default();
        // Jitter events must be rare enough to spare the 99th percentile
        // (~1 event per 1.5 ms against ~2.3 us RTTs) yet large enough to
        // dominate the 99.9th.
        assert!(p.os_jitter_interval.as_micros_f64() > 100.0 * 2.6);
        assert!(p.os_jitter_duration.as_micros_f64() > 3.0 * 2.6);
    }
}
