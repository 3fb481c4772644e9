//! The echo accelerator used by the paper's FLD-E/FLD-R microbenchmarks
//! (§ 8.1: "a simple echo FLD-E accelerator, which sends back each packet
//! it receives").

use fld_core::system::{AccelOutput, AcceleratorModel, EmitList};
use fld_nic::packet::SimPacket;
use fld_sim::time::{Bandwidth, SimDuration, SimTime};

/// A pipelined echo engine: processes packets at `capacity` with a fixed
/// pipeline latency, FIFO across packets (one AXI-Stream pipe).
#[derive(Debug)]
pub struct EchoAccelerator {
    capacity: Bandwidth,
    latency: SimDuration,
    next_free: SimTime,
}

impl EchoAccelerator {
    /// Creates an echo engine. The FLD hardware interfaces run at 100 Gbps
    /// (§ 6), which is the natural capacity choice.
    pub fn new(capacity: Bandwidth, latency: SimDuration) -> Self {
        EchoAccelerator {
            capacity,
            latency,
            next_free: SimTime::ZERO,
        }
    }

    /// The § 6 prototype: 100 Gbps internal width, one pipeline stage.
    pub fn prototype() -> Self {
        EchoAccelerator::new(Bandwidth::gbps(100.0), SimDuration::from_nanos(60))
    }
}

impl AcceleratorModel for EchoAccelerator {
    fn process(&mut self, pkt: SimPacket, next_table: Option<u16>, now: SimTime) -> AccelOutput {
        let start = now.max(self.next_free);
        let done = start + self.capacity.time_for_bytes(pkt.len as u64) + self.latency;
        self.next_free = done - self.latency;
        AccelOutput {
            consumed_at: done,
            emit: EmitList::one((done, 0, next_table, pkt)),
        }
    }

    fn name(&self) -> &'static str {
        "echo"
    }

    fn queue_depth(&self, now: SimTime) -> f64 {
        self.next_free.since(now.min(self.next_free)).as_picos() as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_net::FlowKey;

    fn pkt(id: u64, len: u32) -> SimPacket {
        SimPacket::synthetic(id, len, FlowKey::default(), SimTime::ZERO)
    }

    #[test]
    fn echoes_with_pipeline_latency() {
        let mut e = EchoAccelerator::prototype();
        let out = e.process(pkt(1, 1500), Some(2), SimTime::ZERO);
        assert_eq!(out.emit.len(), 1);
        let (at, queue, table, p) = &out.emit[0];
        assert_eq!(*queue, 0);
        assert_eq!(*table, Some(2));
        assert_eq!(p.id, 1);
        // 1500 B at 100 Gbps = 120 ns, plus 60 ns latency.
        assert_eq!(at.as_nanos(), 180);
    }

    #[test]
    fn serializes_at_capacity() {
        let mut e = EchoAccelerator::new(Bandwidth::gbps(10.0), SimDuration::ZERO);
        let a = e.process(pkt(1, 1250), None, SimTime::ZERO); // 1 us at 10 Gbps
        let b = e.process(pkt(2, 1250), None, SimTime::ZERO);
        assert_eq!(a.emit[0].0.as_nanos(), 1000);
        assert_eq!(b.emit[0].0.as_nanos(), 2000);
    }

    #[test]
    fn idle_gaps_are_not_accumulated() {
        let mut e = EchoAccelerator::new(Bandwidth::gbps(10.0), SimDuration::ZERO);
        e.process(pkt(1, 1250), None, SimTime::ZERO);
        let late = SimTime::from_micros(100);
        let out = e.process(pkt(2, 1250), None, late);
        assert_eq!(out.emit[0].0.since(late).as_nanos(), 1000);
    }
}
