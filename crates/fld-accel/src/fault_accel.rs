//! Transient-stall fault wrapper for accelerator models.
//!
//! Real accelerator function units stall: a DDR refresh, a partial
//! reconfiguration, a clock-domain crossing backing up. FlexDriver's
//! hardware absorbs short stalls in its SRAM buffers and backpressures the
//! NIC for long ones (paper § 5.3); what it must *not* do is lose packets.
//! [`StallingAccelerator`] wraps any [`AcceleratorModel`] and injects
//! seeded, deterministic processing stalls via [`fld_sim::fault`], so
//! chaos experiments can verify the absorb/backpressure machinery end to
//! end while every stall lands in the fault ledger.

use fld_core::system::{AccelOutput, AcceleratorModel};
use fld_nic::packet::SimPacket;
use fld_sim::fault::{FaultInjector, FaultKind, FaultOutcome};
use fld_sim::time::{SimDuration, SimTime};

/// Wraps an accelerator with deterministic transient stalls.
///
/// On each processed packet the injector rolls
/// [`FaultKind::AccelStall`]; a hit delays everything the inner model
/// emits (and its `consumed_at`) by a stall drawn uniformly from
/// `(0, max_stall]`. The stall is recorded in the shared
/// [`fld_sim::fault::FaultLedger`] as recovered, with the stall duration
/// as the recovery latency.
#[derive(Debug)]
pub struct StallingAccelerator<A> {
    inner: A,
    injector: FaultInjector,
    max_stall: SimDuration,
    stalls: u64,
    stalled_for: SimDuration,
}

impl<A: AcceleratorModel> StallingAccelerator<A> {
    /// Wraps `inner`, drawing stall decisions from `injector` with stalls
    /// up to `max_stall`.
    pub fn new(inner: A, injector: FaultInjector, max_stall: SimDuration) -> Self {
        StallingAccelerator {
            inner,
            injector,
            max_stall,
            stalls: 0,
            stalled_for: SimDuration::ZERO,
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Stalls injected so far.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Total simulated time lost to stalls.
    pub fn stalled_for(&self) -> SimDuration {
        self.stalled_for
    }

    /// Registers this wrapper's fault injector under
    /// `faults/<entity>/...` in `tree`, so every injected stall is
    /// attributable to a per-entity counter path.
    pub fn wire_counters(&mut self, tree: &fld_sim::counters::CounterTree, entity: &str) {
        self.injector.wire_counters(tree, entity);
    }
}

impl<A: AcceleratorModel> AcceleratorModel for StallingAccelerator<A> {
    fn process(&mut self, pkt: SimPacket, next_table: Option<u16>, now: SimTime) -> AccelOutput {
        let mut out = self.inner.process(pkt, next_table, now);
        if self.injector.roll(FaultKind::AccelStall) {
            let stall = self.injector.magnitude(self.max_stall);
            self.stalls += 1;
            self.stalled_for += stall;
            out.consumed_at += stall;
            for (at, _, _, _) in out.emit.iter_mut() {
                *at += stall;
            }
            self.injector
                .ledger()
                .resolve(FaultOutcome::Recovered, Some(stall));
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn queue_depth(&self, now: SimTime) -> f64 {
        self.inner.queue_depth(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo::EchoAccelerator;
    use fld_net::FlowKey;
    use fld_sim::fault::{FaultLedger, FaultPlan};

    fn pkt(id: u64) -> SimPacket {
        SimPacket::synthetic(id, 1500, FlowKey::default(), SimTime::ZERO)
    }

    fn wrapped(rate: f64, seed: u64) -> StallingAccelerator<EchoAccelerator> {
        let plan = FaultPlan::new(rate, seed)
            .with_kinds_csv("accel_stall")
            .unwrap();
        let injector = plan.injector("accel", &FaultLedger::new());
        StallingAccelerator::new(
            EchoAccelerator::prototype(),
            injector,
            SimDuration::from_micros(5),
        )
    }

    #[test]
    fn zero_rate_is_transparent() {
        let mut plain = EchoAccelerator::prototype();
        let mut faulty = wrapped(0.0, 1);
        for id in 0..50 {
            let a = plain.process(pkt(id), Some(2), SimTime::ZERO);
            let b = faulty.process(pkt(id), Some(2), SimTime::ZERO);
            assert_eq!(a.consumed_at, b.consumed_at);
            assert_eq!(a.emit[0].0, b.emit[0].0);
        }
        assert_eq!(faulty.stalls(), 0);
    }

    #[test]
    fn stalls_delay_and_land_in_the_ledger() {
        let mut faulty = wrapped(1.0, 7);
        let mut plain = EchoAccelerator::prototype();
        let base = plain.process(pkt(1), None, SimTime::ZERO);
        let out = faulty.process(pkt(1), None, SimTime::ZERO);
        assert_eq!(faulty.stalls(), 1);
        assert!(out.emit[0].0 > base.emit[0].0, "stall must add delay");
        assert_eq!(
            out.emit[0].0.since(base.emit[0].0),
            faulty.stalled_for(),
            "all lost time is accounted"
        );
        let ledger = faulty.injector.ledger().clone();
        assert_eq!(ledger.injected_total(), 1);
        assert_eq!(ledger.recovered(), 1);
        assert_eq!(ledger.summary().unaccounted(), 0);
    }

    #[test]
    fn stall_pattern_is_seed_deterministic() {
        let run = |seed| {
            let mut a = wrapped(0.3, seed);
            (0..100)
                .map(|id| a.process(pkt(id), None, SimTime::ZERO).emit[0].0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42), "same seed, same stalls");
        assert_ne!(run(42), run(43), "different seed, different stalls");
    }

    #[test]
    fn wired_stalls_show_up_under_the_fault_prefix() {
        let tree = fld_sim::counters::CounterTree::new();
        let mut faulty = wrapped(1.0, 7);
        faulty.wire_counters(&tree, "accel");
        for id in 0..20 {
            faulty.process(pkt(id), None, SimTime::ZERO);
        }
        assert_eq!(
            tree.snapshot().get("faults/accel/accel_stall"),
            Some(faulty.stalls()),
            "every injected stall is attributed to its counter path"
        );
    }
}
