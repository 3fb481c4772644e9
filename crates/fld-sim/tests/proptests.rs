//! Property-based tests for the simulation engine: histogram accuracy
//! against exact percentiles, link conservation laws, calendar
//! ordering (the laned queue against a sorted-`Vec` reference), the
//! libm-free rounding helper, and pre-resolved counter groups against
//! the naive scans.

use proptest::prelude::*;

use fld_sim::counters::{CounterSum, CounterTree};
use fld_sim::link::{Link, TokenBucket};
use fld_sim::metrics::MetricsRegistry;
use fld_sim::queue::EventQueue;
use fld_sim::stats::Histogram;
use fld_sim::time::{round_to_u64, Bandwidth, SimDuration, SimTime};

/// One step of the differential calendar exercise. Delays are relative to
/// the calendar's notion of "now" so every replay sees identical inputs;
/// every push carries a lane hint, which only the laned runs look at.
#[derive(Debug, Clone)]
enum CalOp {
    /// Schedule a single event `delay_ps` past the current time.
    Schedule { delay_ps: u64, lane: u8 },
    /// Schedule `n` events at the *same* timestamp — the FIFO-within-a-
    /// tick case the engine's replay determinism depends on.
    Burst { delay_ps: u64, n: u8, lane: u8 },
    /// Pop up to `n` events, rescheduling every other popped event a
    /// little into the future (the engine's schedule-during-pop pattern).
    PopReschedule { n: u8, lane: u8 },
    /// Schedule 0.5 – 2 simulated seconds out: far behind everything
    /// else pending, whichever structure holds it.
    Far { delay_ps: u64, lane: u8 },
    /// Schedule `n` events into one lane at strictly *decreasing* times:
    /// each walks one entry further back from the tail than the last, so
    /// past `LANE_REACH` of them the rest fall through to the heap.
    Disorder { n: u8, lane: u8 },
    /// Schedule far out, peek, then schedule something earlier.
    PeekThenEarlier { far_ps: u64, near_ps: u64, lane: u8 },
    /// Drop everything pending, mid-run.
    Clear,
}

fn cal_op() -> impl Strategy<Value = CalOp> {
    // The vendored prop_oneof! is unweighted; duplicate arms bias the mix
    // toward schedules and pops, with the special shapes rarest. Lane
    // hints run past every lane count the runs below declare.
    let lane = || 0u8..8;
    prop_oneof![
        ((0u64..100_000), lane()).prop_map(|(delay_ps, lane)| CalOp::Schedule { delay_ps, lane }),
        ((0u64..100_000), lane()).prop_map(|(delay_ps, lane)| CalOp::Schedule { delay_ps, lane }),
        ((0u64..100_000), lane()).prop_map(|(delay_ps, lane)| CalOp::Schedule { delay_ps, lane }),
        ((0u64..10_000), 2u8..8, lane()).prop_map(|(delay_ps, n, lane)| CalOp::Burst {
            delay_ps,
            n,
            lane
        }),
        ((0u64..10_000), 2u8..8, lane()).prop_map(|(delay_ps, n, lane)| CalOp::Burst {
            delay_ps,
            n,
            lane
        }),
        ((1u8..16), lane()).prop_map(|(n, lane)| CalOp::PopReschedule { n, lane }),
        ((1u8..16), lane()).prop_map(|(n, lane)| CalOp::PopReschedule { n, lane }),
        ((1u8..16), lane()).prop_map(|(n, lane)| CalOp::PopReschedule { n, lane }),
        (((1u64 << 39)..(1u64 << 41)), lane())
            .prop_map(|(delay_ps, lane)| CalOp::Far { delay_ps, lane }),
        ((2u8..80), lane()).prop_map(|(n, lane)| CalOp::Disorder { n, lane }),
        (((1u64 << 23)..(1u64 << 33)), (0u64..100_000), lane()).prop_map(
            |(far_ps, near_ps, lane)| CalOp::PeekThenEarlier {
                far_ps,
                near_ps,
                lane
            }
        ),
        Just(CalOp::Clear),
    ]
}

/// How a replay treats the ops' lane hints.
#[derive(Debug, Clone, Copy)]
enum Lanes {
    /// Ignores them: every push is a plain `schedule_at`.
    Unlaned,
    /// Declares this many lanes and passes each hint through as it is —
    /// right, wrong or out of range.
    Hinted(usize),
    /// Declares one lane and names it on every push.
    AllOne,
}

/// What a replay observed: each popped `(time, event)`, and after every
/// op the calendar's `len()`, `is_empty()` and `peek_time()`.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Pop(u64, u32),
    State(usize, bool, Option<u64>),
}

/// What [`run_calendar`] drives: the calendar under test or its
/// reference. Times are picoseconds.
trait Calendar {
    fn now(&self) -> u64;
    fn push(&mut self, at: u64, lane: u8, id: u32);
    fn pop(&mut self) -> Option<(u64, u32)>;
    fn state(&self) -> Seen;
    fn clear(&mut self);
}

/// The calendar under test, with how it treats the lane hints.
struct Laned {
    q: EventQueue<u32>,
    lanes: Lanes,
}

impl Laned {
    fn new(lanes: Lanes) -> Laned {
        let mut q = EventQueue::new();
        match lanes {
            Lanes::Unlaned => {}
            Lanes::Hinted(n) => q.set_lanes(n),
            Lanes::AllOne => q.set_lanes(1),
        }
        Laned { q, lanes }
    }
}

impl Calendar for Laned {
    fn now(&self) -> u64 {
        self.q.now().as_picos()
    }

    fn push(&mut self, at: u64, lane: u8, id: u32) {
        let at = SimTime::from_picos(at);
        match self.lanes {
            Lanes::Unlaned => self.q.schedule_at(at, id),
            Lanes::Hinted(_) => self.q.schedule_at_lane(at, lane as usize, id),
            Lanes::AllOne => self.q.schedule_at_lane(at, 0, id),
        }
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        self.q.pop().map(|(t, id)| (t.as_picos(), id))
    }

    fn state(&self) -> Seen {
        let q = &self.q;
        Seen::State(q.len(), q.is_empty(), q.peek_time().map(SimTime::as_picos))
    }

    fn clear(&mut self) {
        self.q.clear();
    }
}

/// The reference: pending `(time, id)` in a `Vec` kept sorted by stable
/// insertion — a push goes behind everything not later than it — which
/// is `(time, insertion-seq)` order by construction, with no sequence
/// number to get wrong.
#[derive(Default)]
struct SortedVec {
    pending: Vec<(u64, u32)>,
    now: u64,
}

impl Calendar for SortedVec {
    fn now(&self) -> u64 {
        self.now
    }

    fn push(&mut self, at: u64, _lane: u8, id: u32) {
        let place = self.pending.partition_point(|&(t, _)| t <= at);
        self.pending.insert(place, (at, id));
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.pending.is_empty() {
            return None;
        }
        let (t, id) = self.pending.remove(0);
        self.now = t;
        Some((t, id))
    }

    fn state(&self) -> Seen {
        let p = &self.pending;
        Seen::State(p.len(), p.is_empty(), p.first().map(|&(t, _)| t))
    }

    fn clear(&mut self) {
        self.pending.clear();
    }
}

/// Replays `ops` against one calendar, returning everything observable.
fn run_calendar(mut q: impl Calendar, ops: &[CalOp]) -> Vec<Seen> {
    let mut next_id = 0u32;
    let mut push = |q: &mut dyn Calendar, delay_ps: u64, lane: u8| {
        q.push(q.now() + delay_ps, lane, next_id);
        next_id += 1;
    };
    let mut seen = Vec::new();
    for op in ops {
        match *op {
            CalOp::Schedule { delay_ps, lane } | CalOp::Far { delay_ps, lane } => {
                push(&mut q, delay_ps, lane);
            }
            CalOp::Burst { delay_ps, n, lane } => {
                for _ in 0..n {
                    push(&mut q, delay_ps, lane);
                }
            }
            CalOp::PopReschedule { n, lane } => {
                for i in 0..n {
                    let Some((t, id)) = q.pop() else { break };
                    seen.push(Seen::Pop(t, id));
                    if i % 2 == 1 {
                        push(&mut q, 517 * (i as u64 + 1), lane);
                    }
                }
            }
            CalOp::Disorder { n, lane } => {
                for i in 0..n {
                    push(&mut q, 1_000 * (n - i) as u64, lane);
                }
            }
            CalOp::PeekThenEarlier {
                far_ps,
                near_ps,
                lane,
            } => {
                push(&mut q, far_ps, lane);
                seen.push(q.state());
                push(&mut q, near_ps, lane.wrapping_add(1));
            }
            CalOp::Clear => q.clear(),
        }
        seen.push(q.state());
    }
    while let Some((t, id)) = q.pop() {
        seen.push(Seen::Pop(t, id));
    }
    seen.push(q.state());
    seen
}

/// Path segments for the counter-group property: few enough that
/// registrations collide and nest, and chosen so that sibling names
/// extend one another as strings (`1` / `10` / `1.5`, `vf` / `vf1`) —
/// the cases a prefix match must not confuse with a segment boundary.
const SEGMENTS: [&str; 8] = ["vf", "vf1", "1", "10", "1.5", "q", "drops", "packets"];

fn counter_path(max_depth: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..SEGMENTS.len(), 1..max_depth + 1).prop_map(|segs| {
        segs.iter()
            .map(|&i| SEGMENTS[i])
            .collect::<Vec<_>>()
            .join("/")
    })
}

/// One step of the counter-group exercise.
#[derive(Debug, Clone)]
enum TreeOp {
    /// Register `path` (idempotent) and add `n` through its handle.
    Bump { path: String, n: u64 },
    /// Resolve a new group: everything under `prefix`, or only the
    /// leaves named `SEGMENTS[leaf]` when given.
    Group { prefix: String, leaf: Option<usize> },
    /// Read group `i % groups` and compare with the scan.
    Read(usize),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (counter_path(4), 0u64..1000).prop_map(|(path, n)| TreeOp::Bump { path, n }),
        (counter_path(4), 0u64..1000).prop_map(|(path, n)| TreeOp::Bump { path, n }),
        counter_path(2).prop_map(|prefix| TreeOp::Group { prefix, leaf: None }),
        (counter_path(2), 0usize..SEGMENTS.len()).prop_map(|(prefix, leaf)| TreeOp::Group {
            prefix,
            leaf: Some(leaf)
        }),
        (0usize..64).prop_map(TreeOp::Read),
        (0usize..64).prop_map(TreeOp::Read),
    ]
}

/// What the naive scan says `group` sums to right now.
fn scan(tree: &CounterTree, prefix: &str, leaf: Option<usize>) -> u64 {
    match leaf {
        None => tree.sum_prefix(prefix),
        Some(l) => tree.sum_leaf(prefix, SEGMENTS[l]),
    }
}

/// Unit sizes for the memo exercise: arbitrary (0 bytes and sizes past
/// 2^32 included), or a strict rotation over two or three sizes — the
/// data-frame/ACK pattern the two-entry memo is sized for, and the first
/// pattern that defeats it.
/// The link's `(bytes, units)` totals, read through its metrics export.
fn sent(link: &Link) -> (Option<u64>, Option<u64>) {
    let mut m = MetricsRegistry::new();
    link.export_metrics("l", SimTime::ZERO, &mut m);
    (m.counter_value("l.bytes"), m.counter_value("l.units"))
}

fn size_sequence() -> impl Strategy<Value = Vec<u64>> {
    let size = || {
        prop_oneof![
            Just(0u64),
            0u64..10_000,
            (1u64 << 32)..(1u64 << 40),
            any::<u64>().prop_map(|s| s >> 12),
        ]
    };
    prop_oneof![
        proptest::collection::vec(size(), 1..200),
        (proptest::collection::vec(size(), 2..=3), 2usize..200)
            .prop_map(|(sizes, n)| (0..n).map(|i| sizes[i % sizes.len()]).collect()),
    ]
}

proptest! {
    /// A pre-resolved [`CounterSum`] is observationally the scan it
    /// replaces: under any interleaving of registrations, increments,
    /// group creations and reads — including leaves registered under a
    /// group's prefix after that group was first read — every read
    /// equals `sum_prefix` / `sum_leaf` at that instant.
    #[test]
    fn counter_groups_match_the_naive_scans(ops in proptest::collection::vec(tree_op(), 1..200)) {
        let tree = CounterTree::new();
        let mut groups: Vec<(CounterSum, String, Option<usize>)> = Vec::new();
        for op in ops {
            match op {
                TreeOp::Bump { path, n } => tree.counter(&path).add(n),
                TreeOp::Group { prefix, leaf } => {
                    let group = match leaf {
                        None => CounterSum::under(&tree, &prefix),
                        Some(l) => CounterSum::leaves(&tree, &prefix, SEGMENTS[l]),
                    };
                    groups.push((group, prefix, leaf));
                }
                TreeOp::Read(i) => {
                    if groups.is_empty() {
                        continue;
                    }
                    let i = i % groups.len();
                    let (group, prefix, leaf) = &mut groups[i];
                    prop_assert_eq!(group.get(), scan(&tree, prefix, *leaf), "{} {:?}", prefix, leaf);
                }
            }
        }
        for (group, prefix, leaf) in &mut groups {
            prop_assert_eq!(group.get(), scan(&tree, prefix, *leaf), "final {} {:?}", prefix, leaf);
        }
    }

    /// Histogram percentiles stay within the configured relative error of
    /// exact order statistics.
    #[test]
    fn histogram_accuracy(values in proptest::collection::vec(1u64..1_000_000, 10..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for p in [10.0, 50.0, 90.0, 99.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
            let exact = sorted[rank.min(sorted.len() - 1)] as f64;
            let approx = h.percentile(p) as f64;
            // 1/64 bucket precision plus one bucket of rank slack.
            prop_assert!(
                (approx - exact).abs() <= exact * 0.05 + 2.0,
                "p{p}: approx {approx} exact {exact}"
            );
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        prop_assert_eq!(h.min(), sorted[0]);
    }

    /// A link serializes: total occupancy equals the sum of serialization
    /// times, and arrivals are monotone for monotone sends.
    #[test]
    fn link_conservation(sizes in proptest::collection::vec(64u64..10_000, 1..100),
                         gap_ns in 0u64..1000) {
        let bw = Bandwidth::gbps(10.0);
        let mut link = Link::new(bw, SimDuration::from_nanos(100));
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for &s in &sizes {
            let arrival = link.transmit(now, s);
            prop_assert!(arrival >= last_arrival, "reordering");
            // Arrival must be at least serialization + propagation.
            prop_assert!(arrival >= now + bw.time_for_bytes(s) + SimDuration::from_nanos(100));
            last_arrival = arrival;
            now += SimDuration::from_nanos(gap_ns);
        }
        let total_bytes: u64 = sizes.iter().sum();
        prop_assert_eq!(sent(&link).0, Some(total_bytes));
        // The last arrival can never beat perfect pipelining.
        let lower = bw.time_for_bytes(total_bytes);
        prop_assert!(last_arrival >= SimTime::ZERO + lower);
    }

    /// `Link::transmit` remembers serialization times; whatever the size
    /// sequence, it equals the definition evaluated afresh — on a clone
    /// taken mid-sequence too.
    #[test]
    fn link_transmit_matches_the_unmemoised_reference(
        sizes in size_sequence(),
        gbps in prop_oneof![Just(25.0f64), Just(50.0), Just(6.4), 0.001f64..400.0],
        gap_ns in 0u64..2_000,
    ) {
        let bw = Bandwidth::gbps(gbps);
        let propagation = SimDuration::from_nanos(100);
        let mut link = Link::new(bw, propagation);
        let mut forked: Option<Link> = None;
        let (mut now, mut next_free) = (SimTime::ZERO, SimTime::ZERO);
        for (i, &bytes) in sizes.iter().enumerate() {
            let done = now.max(next_free) + bw.time_for_bytes(bytes);
            next_free = done;
            prop_assert_eq!(link.transmit(now, bytes), done + propagation, "size {} at {}", bytes, i);
            if let Some(fork) = forked.as_mut() {
                prop_assert_eq!(fork.transmit(now, bytes), done + propagation, "clone, at {}", i);
            }
            if i == sizes.len() / 2 {
                forked = Some(link.clone());
            }
            now += SimDuration::from_nanos(gap_ns);
        }
        prop_assert_eq!(link.backlog(SimTime::ZERO), next_free.since(SimTime::ZERO));
        prop_assert_eq!(sent(&link).1, Some(sizes.len() as u64));
    }

    /// A bounded link's queue never holds more than its buffer plus the
    /// largest unit offered, and a refused offer changes nothing.
    #[test]
    fn bounded_link_queue_stays_within_buffer_plus_one_frame(
        offers in proptest::collection::vec((64u64..9_000, 0u64..2_000), 1..300),
        buffer in 1u64..64_000,
        // Rates at which a byte is a whole number of picoseconds, so the
        // queue in bytes is exact.
        gbps in prop_oneof![Just(1.0f64), Just(10.0), Just(25.0), Just(40.0), Just(50.0), Just(100.0)],
    ) {
        let mut link = Link::new(Bandwidth::gbps(gbps), SimDuration::from_nanos(100))
            .with_buffer(buffer);
        let largest = offers.iter().map(|&(bytes, _)| bytes).max().unwrap_or(0);
        let mut now = SimTime::ZERO;
        for &(bytes, gap_ns) in &offers {
            now += SimDuration::from_nanos(gap_ns);
            let before = (link.backlog(now), sent(&link));
            if link.offer(now, bytes).is_none() {
                prop_assert_eq!(link.credits(now), 0);
                prop_assert_eq!((link.backlog(now), sent(&link)), before);
            }
            prop_assert!(
                link.queued_bytes(now) <= buffer + largest,
                "{} B queued against a {} B buffer", link.queued_bytes(now), buffer
            );
        }
    }

    /// A token bucket never admits more than rate*time + burst bytes.
    #[test]
    fn token_bucket_rate_bound(
        sizes in proptest::collection::vec(64u64..2000, 1..200),
        gap_ns in 1u64..2000,
    ) {
        let rate = Bandwidth::gbps(1.0);
        let burst = 4000u64;
        let mut tb = TokenBucket::new(rate, burst);
        let mut now = SimTime::ZERO;
        let mut admitted = 0u64;
        for &s in &sizes {
            if tb.earliest_send(now, s) <= now {
                tb.consume(now, s);
                admitted += s;
            }
            now += SimDuration::from_nanos(gap_ns);
        }
        let max_allowed = (rate.as_bps() * now.as_secs_f64() / 8.0) as u64 + burst + 2000;
        prop_assert!(admitted <= max_allowed, "admitted {admitted} > {max_allowed}");
    }

    /// The event calendar pops in nondecreasing time order regardless of
    /// insertion order.
    #[test]
    fn calendar_orders(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// The calendar is observationally a sorted `Vec`: the same op
    /// sequence — same-tick bursts, schedule-during-pop, far-future
    /// delays, disorder past the lanes' reach, peek-then-earlier-push,
    /// `clear()` mid-run — gives the same `(time, event)` pops and the
    /// same `len()` / `is_empty()` / `peek_time()` after every op,
    /// whatever lane each push names. This is the property that lets
    /// lanes be declared, moved or dropped without re-blessing a single
    /// golden.
    #[test]
    fn calendar_matches_sorted_vec(ops in proptest::collection::vec(cal_op(), 1..120)) {
        let reference = run_calendar(SortedVec::default(), &ops);
        for lanes in [Lanes::Unlaned, Lanes::Hinted(4), Lanes::Hinted(7), Lanes::AllOne] {
            let other = run_calendar(Laned::new(lanes), &ops);
            prop_assert_eq!(reference.len(), other.len(), "{:?}: lengths diverge", lanes);
            for (i, (r, o)) in reference.iter().zip(other.iter()).enumerate() {
                prop_assert_eq!(r, o, "{:?}: divergence at step {}", lanes, i);
            }
        }
        // (time, insertion-seq) order must hold within the trace too,
        // between clears (a clear may drop later events than were popped).
        let pops = reference.iter().filter_map(|s| match s {
            Seen::Pop(t, _) => Some(*t),
            Seen::State(..) => None,
        });
        let mut last = 0;
        for t in pops {
            prop_assert!(t >= last, "time went backwards");
            last = t;
        }
    }

    /// `round_to_u64` is `f64::round` without the libm call: equal on
    /// [0, 2^53], at exact ties, on the floats either side of a tie, on
    /// every power-of-two scale up to 2^64 and past it where both
    /// saturate, and for the values a duration can never hold (negative,
    /// infinite, NaN), which both send to 0 or `u64::MAX`.
    #[test]
    fn round_to_u64_matches_round(
        whole in 0u64..(1 << 52),
        frac in 0.0f64..1.0,
        scale in 0i32..14,
        shape in 0u8..8,
    ) {
        let tie = whole as f64 + 0.5;
        let x = match shape {
            0 => whole as f64 + frac,
            1 => tie,
            2 => tie.next_down(),
            3 => tie.next_up(),
            // The upper half of the range, where every float is whole.
            4 => (whole + (1 << 52)) as f64,
            // 2^52 ..= 2^65: whole floats up to and past the saturating end.
            5 => (whole + (1 << 52)) as f64 * 2f64.powi(scale),
            6 => -(whole as f64 + frac),
            _ => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, u64::MAX as f64,
                  (u64::MAX as f64).next_down(), 0.5f64.next_down(), -0.0][whole as usize % 7],
        };
        prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
    }

    /// The duration constructor that rounds goes through the same helper.
    #[test]
    fn duration_rounding_matches_round(secs in 0.0f64..1e6) {
        prop_assert_eq!(
            SimDuration::from_secs_f64(secs).as_picos(),
            (secs * 1_000_000_000_000.0).round() as u64
        );
    }
}
