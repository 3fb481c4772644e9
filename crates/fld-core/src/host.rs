//! The host-CPU model: poll-mode cores with calibrated per-packet costs
//! and an OS-interference process.
//!
//! The paper's baselines run DPDK on Haswell cores; their signature in the
//! data is (a) a fixed per-packet cost (§ 8.1.1: 9.6 Mpps testpmd) and
//! (b) a heavy latency tail from OS noise (Table 6: 99.9th percentile
//! 11.18 µs against a 2.34 µs median, "because there is no OS interference
//! with the network stack" on FLD).

use fld_sim::rng::SimRng;
use fld_sim::time::{SimDuration, SimTime};

use crate::params::SystemParams;

#[derive(Debug, Clone, Copy)]
struct Core {
    /// When the core finishes its current work.
    next_free: SimTime,
    /// Next OS interference event on this core.
    next_jitter: SimTime,
}

/// A set of host CPU cores executing packet work in FIFO order per core.
#[derive(Debug)]
pub struct HostCpu {
    cores: Vec<Core>,
    per_packet: SimDuration,
    per_byte: SimDuration,
    jitter_interval: SimDuration,
    jitter_duration: SimDuration,
    rng: SimRng,
    processed: u64,
    jitter_events: u64,
}

impl HostCpu {
    /// Creates `cores` cores with costs from `params`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, params: &SystemParams, rng: SimRng) -> Self {
        assert!(cores > 0, "need at least one core");
        let mut rng = rng;
        let cores = (0..cores)
            .map(|_| Core {
                next_free: SimTime::ZERO,
                next_jitter: SimTime::ZERO + rng.exp_duration(params.os_jitter_interval),
            })
            .collect();
        HostCpu {
            cores,
            per_packet: params.cpu_per_packet,
            per_byte: params.cpu_per_byte,
            jitter_interval: params.os_jitter_interval,
            jitter_duration: params.os_jitter_duration,
            rng,
            processed: 0,
            jitter_events: 0,
        }
    }

    /// Disables OS jitter (for isolating queueing effects in tests).
    pub fn without_jitter(mut self) -> Self {
        for c in &mut self.cores {
            c.next_jitter = SimTime::MAX;
        }
        self.jitter_interval = SimDuration::MAX;
        self
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Standard packet-processing cost for `bytes` of payload.
    pub fn packet_cost(&self, bytes: u32) -> SimDuration {
        self.per_packet + self.per_byte * bytes as u64
    }

    /// Schedules `work` on `core` as soon as the core frees up after `now`;
    /// returns the completion time (including any OS interference that
    /// strikes first).
    ///
    /// # Panics
    ///
    /// Panics if the core does not exist.
    pub fn run_on(&mut self, core: usize, now: SimTime, work: SimDuration) -> SimTime {
        let c = &mut self.cores[core];
        let mut start = if now > c.next_free { now } else { c.next_free };
        // OS interference: every event that fires before the work starts
        // (or during it) delays completion by its duration.
        while c.next_jitter <= start + work {
            start = start.max(c.next_jitter) + self.jitter_duration;
            let gap = self.rng.exp_duration(self.jitter_interval);
            c.next_jitter = c.next_jitter + self.jitter_duration + gap;
            self.jitter_events += 1;
        }
        let done = start + work;
        c.next_free = done;
        self.processed += 1;
        done
    }

    /// Convenience: run a standard packet on `core`.
    pub fn process_packet(&mut self, core: usize, now: SimTime, bytes: u32) -> SimTime {
        let work = self.packet_cost(bytes);
        self.run_on(core, now, work)
    }

    /// Backlog of `core` relative to `now`.
    pub fn backlog(&self, core: usize, now: SimTime) -> SimDuration {
        self.cores[core].next_free.saturating_since(now)
    }

    /// Registers the host CPU's telemetry under `prefix`
    /// (`"{prefix}.processed"`, `"{prefix}.jitter_events"`, …).
    pub fn export_metrics(&self, prefix: &str, registry: &mut fld_sim::metrics::MetricsRegistry) {
        registry.counter(format!("{prefix}.cores"), self.cores.len() as u64);
        registry.counter(format!("{prefix}.processed"), self.processed);
        registry.counter(format!("{prefix}.jitter_events"), self.jitter_events);
    }

    /// One probe: the worst per-core backlog, in nanoseconds
    /// (`"{name}.backlog_ns"`).
    pub fn probes(&self, name: &str, now: SimTime, out: &mut fld_sim::engine::Probes) {
        let backlog = (0..self.core_count())
            .map(|c| self.backlog(c, now))
            .max()
            .unwrap_or(SimDuration::ZERO);
        out.push_scoped(name, "backlog_ns", backlog.as_nanos() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cores: usize) -> HostCpu {
        HostCpu::new(cores, &SystemParams::default(), SimRng::seed_from(1))
    }

    #[test]
    fn serializes_work_per_core() {
        let mut h = host(1).without_jitter();
        let t1 = h.run_on(0, SimTime::ZERO, SimDuration::from_nanos(100));
        let t2 = h.run_on(0, SimTime::ZERO, SimDuration::from_nanos(100));
        assert_eq!(t1.as_nanos(), 100);
        assert_eq!(t2.as_nanos(), 200);
        assert_eq!(h.processed, 2);
    }

    #[test]
    fn cores_are_independent() {
        let mut h = host(2).without_jitter();
        let t1 = h.run_on(0, SimTime::ZERO, SimDuration::from_nanos(100));
        let t2 = h.run_on(1, SimTime::ZERO, SimDuration::from_nanos(100));
        assert_eq!(t1, t2);
    }

    #[test]
    fn idle_core_starts_immediately() {
        let mut h = host(1).without_jitter();
        h.run_on(0, SimTime::ZERO, SimDuration::from_nanos(50));
        let later = SimTime::from_micros(10);
        let done = h.run_on(0, later, SimDuration::from_nanos(50));
        assert_eq!(done.since(later).as_nanos(), 50);
        assert!(h.backlog(0, later + SimDuration::from_nanos(25)).as_nanos() == 25);
    }

    #[test]
    fn sustained_rate_matches_calibration() {
        // One core processing back-to-back zero-byte packets hits ~9.6 Mpps.
        let mut h = host(1).without_jitter();
        let n = 10_000u64;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            now = h.process_packet(0, SimTime::ZERO, 0);
        }
        let pps = n as f64 / now.as_secs_f64();
        assert!((pps / 1e6 - 9.6).abs() < 0.15, "pps {pps}");
    }

    #[test]
    fn jitter_creates_tail_not_median() {
        let mut h = host(1);
        let mut latencies: Vec<u64> = Vec::new();
        let mut now = SimTime::ZERO;
        // Sparse arrivals: one packet every 5 us, so queueing is nil and
        // latency is pure work + jitter.
        for _ in 0..200_000 {
            let done = h.process_packet(0, now, 64);
            latencies.push(done.since(now).as_nanos());
            now += SimDuration::from_micros(5);
        }
        latencies.sort_unstable();
        let p50 = latencies[latencies.len() / 2];
        let p999 = latencies[latencies.len() * 999 / 1000];
        assert!(p50 < 200, "median {p50} ns should be just the work");
        assert!(p999 > 2_000, "99.9th {p999} ns should show jitter");
        assert!(h.jitter_events > 100);
    }

    #[test]
    fn per_byte_cost_scales() {
        let h = host(1);
        assert!(h.packet_cost(1500) > h.packet_cost(64));
    }
}
