//! Traffic shaping and policing — the NIC QoS features the IoT
//! authentication offload leans on: *"We use the traffic shaping
//! capabilities of the NIC to implement maximum bandwidth shaping for the
//! accelerator"* (§ 7), evaluated in § 8.2.3.

use std::collections::HashMap;

use fld_sim::link::TokenBucket;
use fld_sim::time::{Bandwidth, SimTime};

/// Verdict of offering a packet to a policer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicerVerdict {
    /// Within rate: forward.
    Conform,
    /// Exceeds rate: drop.
    Exceed,
    /// No policer installed for this key: forward.
    Unpoliced,
}

/// A set of per-context (tenant/flow) maximum-rate policers.
///
/// # Examples
///
/// ```
/// use fld_nic::shaper::{PolicerSet, PolicerVerdict};
/// use fld_sim::time::{Bandwidth, SimTime};
///
/// let mut p = PolicerSet::new();
/// p.install(7, Bandwidth::gbps(6.0), 16 * 1024);
/// assert_eq!(p.offer(7, SimTime::ZERO, 1500), PolicerVerdict::Conform);
/// assert_eq!(p.offer(9, SimTime::ZERO, 1500), PolicerVerdict::Unpoliced);
/// ```
#[derive(Debug, Default)]
pub struct PolicerSet {
    policers: HashMap<u32, TokenBucket>,
}

impl PolicerSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PolicerSet::default()
    }

    /// Installs (or replaces) a maximum-rate policer for `context`.
    pub fn install(&mut self, context: u32, rate: Bandwidth, burst_bytes: u64) {
        self.policers
            .insert(context, TokenBucket::new(rate, burst_bytes));
    }

    /// Removes the policer for `context`.
    pub fn remove(&mut self, context: u32) -> bool {
        self.policers.remove(&context).is_some()
    }

    /// Offers a packet of `bytes` for `context` at time `now`.
    pub fn offer(&mut self, context: u32, now: SimTime, bytes: u64) -> PolicerVerdict {
        match self.policers.get_mut(&context) {
            None => PolicerVerdict::Unpoliced,
            Some(tb) => {
                if tb.earliest_send(now, bytes) <= now {
                    tb.consume(now, bytes);
                    PolicerVerdict::Conform
                } else {
                    PolicerVerdict::Exceed
                }
            }
        }
    }

    /// Total token bytes available across all policers after refilling to
    /// `now` — the shaper-token flight-recorder probe.
    pub fn total_tokens(&mut self, now: SimTime) -> f64 {
        self.policers
            .values_mut()
            .map(|tb| tb.level_bytes(now))
            .sum()
    }

    /// Total burst capacity in bytes across all policers (the token
    /// pool's upper bound, audited against [`PolicerSet::total_tokens`]).
    pub fn total_burst_bytes(&self) -> u64 {
        self.policers.values().map(TokenBucket::burst_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_sim::time::SimDuration;

    #[test]
    fn polices_to_configured_rate() {
        let mut p = PolicerSet::new();
        p.install(1, Bandwidth::gbps(1.0), 3000);
        // Offer 2 Gbps of 1500 B frames for 1 ms: every 6 us (1500 B at 2 Gbps).
        let mut now = SimTime::ZERO;
        let mut passed = 0u64;
        let mut total = 0u64;
        while now < SimTime::from_millis(1) {
            if p.offer(1, now, 1500) == PolicerVerdict::Conform {
                passed += 1;
            }
            total += 1;
            now += SimDuration::from_nanos(6000);
        }
        let ratio = passed as f64 / total as f64;
        assert!((ratio - 0.5).abs() < 0.05, "pass ratio {ratio}");
    }

    #[test]
    fn under_rate_all_conform() {
        let mut p = PolicerSet::new();
        p.install(1, Bandwidth::gbps(10.0), 30000);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            assert_eq!(p.offer(1, now, 1500), PolicerVerdict::Conform);
            now += SimDuration::from_micros(10); // 1.2 Gbps offered
        }
    }

    #[test]
    fn contexts_are_independent() {
        let mut p = PolicerSet::new();
        p.install(1, Bandwidth::gbps(1.0), 1500);
        p.install(2, Bandwidth::gbps(1.0), 1500);
        assert_eq!(p.offer(1, SimTime::ZERO, 1500), PolicerVerdict::Conform);
        // Context 1 is exhausted, context 2 is untouched.
        assert_eq!(p.offer(1, SimTime::ZERO, 1500), PolicerVerdict::Exceed);
        assert_eq!(p.offer(2, SimTime::ZERO, 1500), PolicerVerdict::Conform);
    }

    #[test]
    fn remove_uninstalls() {
        let mut p = PolicerSet::new();
        p.install(5, Bandwidth::gbps(1.0), 1500);
        assert!(p.remove(5));
        assert!(!p.remove(5));
        assert_eq!(p.offer(5, SimTime::ZERO, 1500), PolicerVerdict::Unpoliced);
    }
}
