//! Link and rate-limiter building blocks shared by the PCIe and Ethernet
//! models.

use crate::metrics::MetricsRegistry;
use crate::time::{Bandwidth, SimDuration, SimTime};

/// The two most recently used `(key, value)` pairs of a pure function of
/// one key: what a per-packet path asks for the same few sizes over and
/// over (data frame and ACK, request and response) keeps instead of
/// re-evaluating. A hit returns the stored result of the very expression
/// a miss evaluates, so behaviour is identical by construction; a miss
/// replaces the less recently used pair (DESIGN.md § 3.14).
#[derive(Debug, Clone, Copy)]
pub struct RecentTwo<K, V> {
    slots: [(K, V); 2],
    /// Index of the pair used last.
    mru: usize,
}

impl<K: Copy + PartialEq, V: Copy> RecentTwo<K, V> {
    /// Starts from one known pair: `value` must be the function's result
    /// for `key`.
    pub fn new(key: K, value: V) -> Self {
        RecentTwo {
            slots: [(key, value); 2],
            mru: 0,
        }
    }

    /// The remembered value at `key`, if it is one of the two.
    #[inline]
    pub fn get(&mut self, key: K) -> Option<V> {
        if self.slots[self.mru].0 != key {
            if self.slots[self.mru ^ 1].0 != key {
                return None;
            }
            self.mru ^= 1;
        }
        Some(self.slots[self.mru].1)
    }

    /// Remembers `value` for `key` (after a [`RecentTwo::get`] miss) in
    /// place of the less recently used pair, and hands it back.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> V {
        self.mru ^= 1;
        self.slots[self.mru] = (key, value);
        value
    }
}

/// A serializing server: models a point-to-point link (or any other
/// fixed-rate resource) that transmits one unit at a time.
///
/// A unit enqueued at `t` begins serialization at `max(t, next_free)` and
/// arrives at the far end after serialization plus propagation delay. The
/// link never reorders.
///
/// A link may have a byte-bounded output buffer ([`Link::with_buffer`];
/// unbounded by default). [`Link::offer`] tail-drops a unit that finds the
/// buffer full; [`Link::transmit`] ignores the bound, for senders that a
/// window or credit scheme already holds back.
///
/// # Examples
///
/// ```
/// use fld_sim::link::Link;
/// use fld_sim::time::{Bandwidth, SimDuration, SimTime};
///
/// let mut wire = Link::new(Bandwidth::gbps(25.0), SimDuration::from_nanos(100));
/// let a1 = wire.transmit(SimTime::ZERO, 1500);
/// let a2 = wire.transmit(SimTime::ZERO, 1500);
/// // Second frame queues behind the first: exactly one serialization later.
/// assert_eq!(a2.since(a1).as_nanos(), 480);
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    bandwidth: Bandwidth,
    propagation: SimDuration,
    next_free: SimTime,
    bytes_sent: u64,
    units_sent: u64,
    /// `bytes_sent` at the last flight-recorder tick, for windowed
    /// utilization ([`Link::window_util`]).
    win_mark: u64,
    /// Serialization times of the two most recent distinct unit sizes.
    serialization: RecentTwo<u64, SimDuration>,
    /// Output-buffer capacity in bytes (`u64::MAX`: unbounded).
    buffer: u64,
}

impl Link {
    /// Creates an unbounded link with the given rate and one-way delay.
    pub fn new(bandwidth: Bandwidth, propagation: SimDuration) -> Self {
        Link {
            bandwidth,
            propagation,
            next_free: SimTime::ZERO,
            bytes_sent: 0,
            units_sent: 0,
            win_mark: 0,
            serialization: RecentTwo::new(0, bandwidth.time_for_bytes(0)),
            buffer: u64::MAX,
        }
    }

    /// Bounds the output buffer at `bytes`.
    pub fn with_buffer(mut self, bytes: u64) -> Self {
        self.buffer = bytes;
        self
    }

    /// The output-buffer capacity in bytes (`u64::MAX` when unbounded).
    pub fn buffer(&self) -> u64 {
        self.buffer
    }

    /// The configured bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Enqueues `bytes` at time `now`; returns the arrival instant at the far
    /// end.
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = if now > self.next_free {
            now
        } else {
            self.next_free
        };
        let serialization = match self.serialization.get(bytes) {
            Some(t) => t,
            None => self
                .serialization
                .insert(bytes, self.bandwidth.time_for_bytes(bytes)),
        };
        let done = start + serialization;
        self.next_free = done;
        self.bytes_sent += bytes;
        self.units_sent += 1;
        done + self.propagation
    }

    /// How long a unit enqueued at `now` would wait before starting to
    /// serialize (0 when the link is idle).
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.next_free.saturating_since(now)
    }

    /// Bytes queued for the wire at `now`: the backlog at line rate.
    pub fn queued_bytes(&self, now: SimTime) -> u64 {
        (self.backlog(now).as_secs_f64() * self.bandwidth.as_bps() / 8.0) as u64
    }

    /// Remaining output-buffer credits in bytes at `now`; zero once the
    /// queue has reached the buffer.
    pub fn credits(&self, now: SimTime) -> u64 {
        self.buffer.saturating_sub(self.queued_bytes(now))
    }

    /// Offers a unit at `now`: `Some(arrival)` while credits remain, else
    /// `None` (tail drop) and the link is untouched. The verdict ignores
    /// `bytes`, so no size is favoured near full; a unit may overshoot.
    pub fn offer(&mut self, now: SimTime, bytes: u64) -> Option<SimTime> {
        if self.credits(now) == 0 {
            return None;
        }
        Some(self.transmit(now, bytes))
    }

    /// Fraction of `[SimTime::ZERO, now]` the link spent busy.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let busy = self.bandwidth.time_for_bytes(self.bytes_sent);
        (busy.as_picos() as f64 / now.as_picos() as f64).min(1.0)
    }

    /// Fraction of the last `interval` the link spent busy, and re-marks
    /// the window: each call reports the bytes sent since the previous
    /// call. This is the flight recorder's per-stage utilization probe.
    pub fn window_util(&mut self, interval: SimDuration) -> f64 {
        let delta = self.bytes_sent - self.win_mark;
        self.win_mark = self.bytes_sent;
        let busy = self.bandwidth.time_for_bytes(delta);
        (busy.as_picos() as f64 / interval.as_picos() as f64).min(1.0)
    }

    /// Exports `{name}.bytes`, `{name}.units` and the cumulative
    /// `{name}.utilization` over `[0, end]`.
    pub fn export_metrics(&self, name: &str, end: SimTime, registry: &mut MetricsRegistry) {
        registry.counter(format!("{name}.bytes"), self.bytes_sent);
        registry.counter(format!("{name}.units"), self.units_sent);
        registry.gauge(format!("{name}.utilization"), self.utilization(end));
    }
}

/// A token bucket, as used by the NIC's egress traffic shapers (§ 5.4 of the
/// paper: "maximum bandwidth shaping for the accelerator").
///
/// Tokens are bytes; the bucket refills continuously at `rate` up to `burst`.
///
/// # Examples
///
/// ```
/// use fld_sim::link::TokenBucket;
/// use fld_sim::time::{Bandwidth, SimTime};
///
/// let mut tb = TokenBucket::new(Bandwidth::gbps(6.0), 3000);
/// // The first frame passes immediately; a burst soon exhausts the bucket.
/// assert_eq!(tb.earliest_send(SimTime::ZERO, 1500), SimTime::ZERO);
/// tb.consume(SimTime::ZERO, 1500);
/// tb.consume(SimTime::ZERO, 1500);
/// assert!(tb.earliest_send(SimTime::ZERO, 1500) > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: Bandwidth,
    burst_bytes: u64,
    /// Token level measured in picosecond-equivalents of line time, to avoid
    /// floating-point drift: `level_ps = tokens_bytes * time_per_byte`.
    level_ps: u64,
    burst_ps: u64,
    last_update: SimTime,
}

impl TokenBucket {
    /// Creates a bucket refilling at `rate`, holding at most `burst_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `burst_bytes` is zero.
    pub fn new(rate: Bandwidth, burst_bytes: u64) -> Self {
        assert!(burst_bytes > 0, "burst must be positive");
        let burst_ps = rate.time_for_bytes(burst_bytes).as_picos();
        TokenBucket {
            rate,
            burst_bytes,
            level_ps: burst_ps,
            burst_ps,
            last_update: SimTime::ZERO,
        }
    }

    /// The burst size in bytes.
    pub fn burst_bytes(&self) -> u64 {
        self.burst_bytes
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_update).as_picos();
        self.level_ps = (self.level_ps + elapsed).min(self.burst_ps);
        if now > self.last_update {
            self.last_update = now;
        }
    }

    /// Earliest instant at which a frame of `bytes` may be sent.
    pub fn earliest_send(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.refill(now);
        let need = self.rate.time_for_bytes(bytes).as_picos();
        if self.level_ps >= need {
            now
        } else {
            now + SimDuration::from_picos(need - self.level_ps)
        }
    }

    /// Withdraws tokens for a frame of `bytes` sent at `now`. The level may go
    /// negative-equivalent (represented by waiting in `earliest_send`), so
    /// callers should gate on [`TokenBucket::earliest_send`] first.
    pub fn consume(&mut self, now: SimTime, bytes: u64) {
        self.refill(now);
        let need = self.rate.time_for_bytes(bytes).as_picos();
        self.level_ps = self.level_ps.saturating_sub(need);
    }

    /// Current token level in bytes after refilling to `now` — the
    /// shaper-token flight-recorder probe. Always in
    /// `0..=`[`TokenBucket::burst_bytes`].
    pub fn level_bytes(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.burst_bytes as f64 * self.level_ps as f64 / self.burst_ps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The link's `(bytes, units)` totals, read through its metrics export.
    fn sent(link: &Link) -> (Option<u64>, Option<u64>) {
        let mut m = MetricsRegistry::new();
        link.export_metrics("l", SimTime::ZERO, &mut m);
        (m.counter_value("l.bytes"), m.counter_value("l.units"))
    }

    #[test]
    fn recent_two_evicts_the_less_recently_used_pair() {
        let mut memo = RecentTwo::new(0u64, 0u64);
        assert_eq!(memo.get(0), Some(0));
        assert_eq!(memo.get(7), None);
        assert_eq!(memo.insert(7, 70), 70);
        assert_eq!(memo.insert(9, 90), 90);
        // 7 and 9 are held; touching 7 makes 9 the one to go.
        assert_eq!(memo.get(0), None);
        assert_eq!(memo.get(7), Some(70));
        memo.insert(11, 110);
        assert_eq!(memo.get(9), None);
        assert_eq!(memo.get(7), Some(70));
        assert_eq!(memo.get(11), Some(110));
    }

    #[test]
    fn link_serializes_back_to_back() {
        let mut l = Link::new(Bandwidth::gbps(100.0), SimDuration::ZERO);
        let a = l.transmit(SimTime::ZERO, 64);
        let b = l.transmit(SimTime::ZERO, 64);
        assert_eq!(a.as_picos(), 5_120);
        assert_eq!(b.as_picos(), 10_240);
    }

    #[test]
    fn link_idles_between_sparse_arrivals() {
        let mut l = Link::new(Bandwidth::gbps(10.0), SimDuration::from_nanos(5));
        let a = l.transmit(SimTime::ZERO, 100);
        // 100 B at 10 Gbps = 80 ns + 5 ns propagation.
        assert_eq!(a.as_nanos(), 85);
        let later = SimTime::from_micros(1);
        assert!(l.backlog(later).is_zero());
        let b = l.transmit(later, 100);
        assert_eq!(b.since(later).as_nanos(), 85);
    }

    #[test]
    fn link_backlog_reflects_queue() {
        let mut l = Link::new(Bandwidth::gbps(1.0), SimDuration::ZERO);
        l.transmit(SimTime::ZERO, 1250); // 10 us at 1 Gbps
        assert_eq!(l.backlog(SimTime::ZERO).as_micros_f64(), 10.0);
        assert_eq!(l.backlog(SimTime::from_micros(4)).as_micros_f64(), 6.0);
    }

    #[test]
    fn link_utilization() {
        let mut l = Link::new(Bandwidth::gbps(10.0), SimDuration::ZERO);
        l.transmit(SimTime::ZERO, 1250); // 1 us busy
        let u = l.utilization(SimTime::from_micros(2));
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn offer_verdict_does_not_depend_on_frame_size() {
        // 2 000 B queued against a 2 048 B buffer: 48 B of credit left,
        // less than either frame.
        let wire = || {
            let mut l = Link::new(Bandwidth::gbps(25.0), SimDuration::ZERO).with_buffer(2048);
            l.transmit(SimTime::ZERO, 2000);
            l
        };
        let (mut small, mut large) = (wire(), wire());
        assert_eq!(small.credits(SimTime::ZERO), 48);
        assert!(small.offer(SimTime::ZERO, 64).is_some());
        assert!(large.offer(SimTime::ZERO, 1500).is_some());
        // Now both are past the buffer: both sizes are refused.
        assert!(small.offer(SimTime::ZERO, 64).is_none());
        assert!(large.offer(SimTime::ZERO, 64).is_none());
        assert!(small.offer(SimTime::ZERO, 1500).is_none());
        assert!(large.offer(SimTime::ZERO, 1500).is_none());
    }

    #[test]
    fn a_refused_offer_leaves_the_link_untouched() {
        let mut l = Link::new(Bandwidth::gbps(10.0), SimDuration::ZERO).with_buffer(1000);
        let first = l.offer(SimTime::ZERO, 1000).expect("empty buffer admits");
        let before = (l.backlog(SimTime::ZERO), sent(&l));
        assert_eq!(l.credits(SimTime::ZERO), 0);
        assert_eq!(l.offer(SimTime::ZERO, 64), None);
        assert_eq!((l.backlog(SimTime::ZERO), sent(&l)), before);
        // Once half the queue has drained an offer goes through,
        // serialising right behind the first frame.
        let t = SimTime::from_nanos(400);
        assert_eq!(l.queued_bytes(t), 500);
        assert_eq!(l.offer(t, 1000), Some(first + SimDuration::from_nanos(800)));
    }

    #[test]
    fn an_unbounded_link_always_admits() {
        let mut l = Link::new(Bandwidth::gbps(1.0), SimDuration::ZERO);
        assert_eq!(l.buffer(), u64::MAX);
        for _ in 0..1000 {
            assert!(l.offer(SimTime::ZERO, 1500).is_some());
        }
        assert_eq!(l.queued_bytes(SimTime::ZERO), 1_500_000);
    }

    #[test]
    fn token_bucket_enforces_rate() {
        // 1 Gbps, 1500 B burst; send 10 frames of 1500 B as fast as allowed.
        let mut tb = TokenBucket::new(Bandwidth::gbps(1.0), 1500);
        let mut now = SimTime::ZERO;
        let mut sends = Vec::new();
        for _ in 0..10 {
            now = tb.earliest_send(now, 1500);
            tb.consume(now, 1500);
            sends.push(now);
        }
        // After the initial burst, spacing converges to 12 us (1500 B at 1 Gbps).
        let gap = sends[9].since(sends[8]).as_nanos();
        assert_eq!(gap, 12_000);
    }

    #[test]
    fn token_bucket_recovers_after_idle() {
        let mut tb = TokenBucket::new(Bandwidth::gbps(1.0), 3000);
        tb.consume(SimTime::ZERO, 3000);
        let later = SimTime::from_micros(100); // plenty of refill time
        assert_eq!(tb.earliest_send(later, 3000), later);
    }
}
