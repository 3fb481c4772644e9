//! Property-based tests for the simulation engine: histogram accuracy
//! against exact percentiles, link conservation laws, calendar
//! ordering, and pre-resolved counter groups against the naive scans.

use proptest::prelude::*;

use fld_sim::counters::{CounterSum, CounterTree};
use fld_sim::link::{Link, TokenBucket};
use fld_sim::queue::{CalendarKind, EventQueue};
use fld_sim::stats::Histogram;
use fld_sim::time::{Bandwidth, SimDuration, SimTime};

/// One step of the differential calendar exercise. Delays are relative to
/// the queue's notion of "now" so both backends see identical inputs.
#[derive(Debug, Clone)]
enum CalOp {
    /// Schedule a single event `delay_ps` past the current time.
    Schedule { delay_ps: u64 },
    /// Schedule `n` events at the *same* timestamp — the FIFO-within-a-
    /// tick case the engine's replay determinism depends on.
    Burst { delay_ps: u64, n: u8 },
    /// Pop up to `n` events, rescheduling every other popped event a
    /// little into the future (the engine's schedule-during-pop pattern).
    PopReschedule { n: u8 },
    /// Schedule past the wheel's 2^39 ps span so the overflow heap and
    /// its epoch migration path are exercised.
    Far { delay_ps: u64 },
}

fn cal_op() -> impl Strategy<Value = CalOp> {
    // The vendored prop_oneof! is unweighted; duplicate arms bias the mix
    // toward schedules and pops, with overflow schedules rarest.
    prop_oneof![
        (0u64..100_000).prop_map(|delay_ps| CalOp::Schedule { delay_ps }),
        (0u64..100_000).prop_map(|delay_ps| CalOp::Schedule { delay_ps }),
        (0u64..100_000).prop_map(|delay_ps| CalOp::Schedule { delay_ps }),
        ((0u64..10_000), 2u8..8).prop_map(|(delay_ps, n)| CalOp::Burst { delay_ps, n }),
        ((0u64..10_000), 2u8..8).prop_map(|(delay_ps, n)| CalOp::Burst { delay_ps, n }),
        (1u8..16).prop_map(|n| CalOp::PopReschedule { n }),
        (1u8..16).prop_map(|n| CalOp::PopReschedule { n }),
        ((1u64 << 39)..(1u64 << 41)).prop_map(|delay_ps| CalOp::Far { delay_ps }),
    ]
}

/// Replays `ops` against one backend, returning the full popped trace.
fn run_calendar(kind: CalendarKind, ops: &[CalOp]) -> Vec<(u64, u32)> {
    let mut q: EventQueue<u32> = EventQueue::with_kind(kind);
    let mut next_id = 0u32;
    let mut trace = Vec::new();
    for op in ops {
        match *op {
            CalOp::Schedule { delay_ps } => {
                q.schedule_in(SimDuration::from_picos(delay_ps), next_id);
                next_id += 1;
            }
            CalOp::Burst { delay_ps, n } => {
                let at = q.now() + SimDuration::from_picos(delay_ps);
                for _ in 0..n {
                    q.schedule_at(at, next_id);
                    next_id += 1;
                }
            }
            CalOp::PopReschedule { n } => {
                for i in 0..n {
                    match q.pop() {
                        Some((t, id)) => {
                            trace.push((t.as_picos(), id));
                            if i % 2 == 1 {
                                q.schedule_in(
                                    SimDuration::from_picos(517 * (i as u64 + 1)),
                                    next_id,
                                );
                                next_id += 1;
                            }
                        }
                        None => break,
                    }
                }
            }
            CalOp::Far { delay_ps } => {
                q.schedule_in(SimDuration::from_picos(delay_ps), next_id);
                next_id += 1;
            }
        }
    }
    while let Some((t, id)) = q.pop() {
        trace.push((t.as_picos(), id));
    }
    trace
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
        prop_assert_eq!(link.bytes_sent(), total_bytes);
        // The last arrival can never beat perfect pipelining.
        let lower = bw.time_for_bytes(total_bytes);
        prop_assert!(last_arrival >= SimTime::ZERO + lower);
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

    /// The timing wheel is observationally identical to the binary heap:
    /// identical op sequences — same-tick bursts, schedule-during-pop,
    /// far-future overflow — produce byte-identical pop traces. This is
    /// the property that lets the wheel replace the heap without
    /// re-blessing a single golden.
    #[test]
    fn wheel_matches_heap(ops in proptest::collection::vec(cal_op(), 1..120)) {
        let heap = run_calendar(CalendarKind::Heap, &ops);
        let wheel = run_calendar(CalendarKind::Wheel, &ops);
        prop_assert_eq!(heap.len(), wheel.len(), "trace lengths diverge");
        for (i, (h, w)) in heap.iter().zip(wheel.iter()).enumerate() {
            prop_assert_eq!(h, w, "divergence at pop {}", i);
        }
        // (time, insertion-seq) order must hold within each trace too.
        for pair in wheel.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time went backwards");
        }
    }
}
