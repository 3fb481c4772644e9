//! PCIe fabric topologies beyond the integrated switch (paper § 6):
//! *"As FLD relies on peer-to-peer PCIe, it is not limited to SmartNICs,
//! but can also work with a separate NIC and FPGA boards connected through
//! a PCIe switch or the host CPU's PCIe root complex. Nevertheless, we
//! found optimizing for different PCIe fabrics difficult … Bidirectional
//! traffic can suffer degraded performance when control messages are
//! delayed behind queued data messages."*
//!
//! [`SwitchPort`] models a store-and-forward switch egress port with a
//! bounded buffer: small control TLPs (doorbells, descriptor reads) queue
//! behind large data TLPs, which is exactly the § 6 pathology. The tests
//! quantify it and show the paper's mitigation — *"tune switch buffers …
//! creating backpressure toward the NIC"* — shrinking the control-latency
//! tail.

use fld_sim::link::Link;
use fld_sim::time::{Bandwidth, SimDuration, SimTime};

use crate::tlp::{TlpKind, TlpOverheads};

/// How the NIC and FLD are interconnected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricTopology {
    /// The Innova-2's integrated switch (one hop, tuned buffers).
    IntegratedSwitch,
    /// Separate boards behind an external PCIe switch (one extra hop).
    ExternalSwitch,
    /// Peer-to-peer through the host root complex (two extra hops,
    /// sharing the host's PCIe links).
    RootComplex,
}

impl FabricTopology {
    /// Store-and-forward hops between the NIC and FLD.
    pub fn hops(self) -> u32 {
        match self {
            FabricTopology::IntegratedSwitch => 1,
            FabricTopology::ExternalSwitch => 2,
            FabricTopology::RootComplex => 3,
        }
    }

    /// Base one-way latency through the fabric.
    pub fn base_latency(self) -> SimDuration {
        SimDuration::from_nanos(150 + 300 * self.hops() as u64)
    }
}

/// One egress port of a store-and-forward switch with a bounded output
/// buffer: a [`Link`] whose buffer is the backpressure limit. The port
/// forwards whatever arrives; a sender that honours
/// [`SwitchPort::should_backpressure`] is what keeps the queue bounded.
#[derive(Debug)]
pub struct SwitchPort {
    link: Link,
    overheads: TlpOverheads,
    control_delays: fld_sim::stats::Histogram,
}

impl SwitchPort {
    /// Creates a port at `rate` with `buffer_limit` bytes of output buffer.
    pub fn new(rate: Bandwidth, buffer_limit: u64) -> Self {
        SwitchPort {
            link: Link::new(rate, SimDuration::from_nanos(150)).with_buffer(buffer_limit),
            overheads: TlpOverheads::default(),
            control_delays: fld_sim::stats::Histogram::new(),
        }
    }

    /// Whether a sender should be backpressured right now (buffer at or
    /// above the limit) — the paper's tuning knob.
    pub fn should_backpressure(&self, now: SimTime) -> bool {
        self.buffer_credits(now) == 0
    }

    /// Forwards a TLP; returns its arrival time at the next hop. Control
    /// TLPs (no payload or tiny payloads) have their queueing delay
    /// recorded.
    pub fn forward(&mut self, now: SimTime, tlp: TlpKind) -> SimTime {
        let bytes = self.overheads.wire_bytes(tlp) as u64;
        let is_control = matches!(
            tlp,
            TlpKind::MemRead { .. } | TlpKind::MemWrite { payload: 0..=16 }
        );
        let queue_delay = self.link.backlog(now);
        let arrival = self.link.transmit(now, bytes);
        if is_control {
            self.control_delays.record_duration(queue_delay);
        }
        arrival
    }

    /// Queueing-delay distribution observed by control TLPs (ns).
    pub fn control_delays(&self) -> &fld_sim::stats::Histogram {
        &self.control_delays
    }

    /// Remaining output-buffer credits in bytes at `now` — the PCIe
    /// credit-count flight-recorder probe. Saturates at zero while the
    /// port is driven past its backpressure limit.
    pub fn buffer_credits(&self, now: SimTime) -> u64 {
        self.link.credits(now)
    }
}

/// Measures the § 6 pathology: control-TLP queueing delay behind bulk data
/// through one switch port, with and without buffer-limit backpressure
/// honored by the sender.
///
/// Returns `(p99 control delay unthrottled, p99 control delay throttled)`
/// in nanoseconds.
pub fn bidirectional_contention_experiment(buffer_limit: u64) -> (u64, u64) {
    let run = |honor_backpressure: bool| -> u64 {
        let mut port = SwitchPort::new(Bandwidth::gbps(50.0), buffer_limit);
        let mut now = SimTime::ZERO;
        // Bulk data: 512 B write TLPs arriving slightly above line rate;
        // control: a doorbell every 10 data TLPs.
        let data_gap = SimDuration::from_nanos(80); // ~54 Gbps offered
        for i in 0..200_000u32 {
            if !(honor_backpressure && port.should_backpressure(now)) {
                port.forward(now, TlpKind::MemWrite { payload: 512 });
            }
            if i % 10 == 0 {
                port.forward(now, TlpKind::MemWrite { payload: 4 });
            }
            now += data_gap;
        }
        port.control_delays().percentile(99.0)
    };
    (run(false), run(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_latencies_order() {
        assert!(
            FabricTopology::IntegratedSwitch.base_latency()
                < FabricTopology::ExternalSwitch.base_latency()
        );
        assert!(
            FabricTopology::ExternalSwitch.base_latency()
                < FabricTopology::RootComplex.base_latency()
        );
        assert_eq!(FabricTopology::RootComplex.hops(), 3);
    }

    #[test]
    fn control_tlps_queue_behind_data() {
        let mut port = SwitchPort::new(Bandwidth::gbps(10.0), u64::MAX);
        let now = SimTime::ZERO;
        // Queue 100 big writes, then a doorbell.
        for _ in 0..100 {
            port.forward(now, TlpKind::MemWrite { payload: 512 });
        }
        port.forward(now, TlpKind::MemWrite { payload: 4 });
        // The doorbell waited behind ~54 KB at 10 Gbps ≈ 43 us.
        let p = port.control_delays().percentile(50.0);
        assert!(p > 40_000, "control delay {p} ns");
    }

    #[test]
    fn empty_port_forwards_immediately() {
        let mut port = SwitchPort::new(Bandwidth::gbps(50.0), 4096);
        let arrival = port.forward(SimTime::ZERO, TlpKind::MemRead { requested: 64 });
        // Serialization of 26 B + 150 ns propagation.
        assert!(arrival.as_nanos() < 200);
    }

    /// The paper's observation and mitigation, quantified: honoring switch
    /// buffer-limit backpressure shrinks the control-latency tail by an
    /// order of magnitude under overload.
    #[test]
    fn backpressure_tames_control_latency() {
        let (unthrottled, throttled) = bidirectional_contention_experiment(16 * 1024);
        assert!(
            unthrottled > 10 * throttled.max(1),
            "unthrottled p99 {unthrottled} ns vs throttled {throttled} ns"
        );
    }

    #[test]
    fn backpressure_signal_tracks_buffer() {
        let mut port = SwitchPort::new(Bandwidth::gbps(1.0), 2048);
        let now = SimTime::ZERO;
        assert!(!port.should_backpressure(now));
        for _ in 0..10 {
            port.forward(now, TlpKind::MemWrite { payload: 512 });
        }
        assert!(port.should_backpressure(now));
        // After the queue drains, the signal clears.
        let later = SimTime::from_millis(1);
        assert!(!port.should_backpressure(later));
    }
}
