//! The event calendar: FIFO lanes in front of a binary heap.
//!
//! Events pop in exactly `(time, insertion-seq)` order, so a simulation
//! run is bit-identical from one execution to the next.
//!
//! # FIFO lanes
//!
//! Most event streams need no ordering work at all: each event *kind* of
//! a model is fed by a ring, a serialising link or a fixed latency, so
//! its timestamps arrive already sorted, or within one PCIe jitter of
//! sorted. [`EventQueue::set_lanes`] declares a set of FIFO lanes and
//! [`EventQueue::schedule_at_lane`] names the lane a push belongs to. A
//! lane is a deque kept in `(time, seq)` order: a push appends when its
//! time is not before the lane's tail, otherwise walks back at most
//! [`LANE_REACH`] entries and inserts there, and only beyond that reach —
//! or with no (valid) lane named — goes to the heap.
//!
//! # The heap
//!
//! What no lane takes — unlaned timers, the rare push out of a lane's
//! reach — is ordered by one `std::collections::BinaryHeap`. On the
//! measured workloads that is none of the single-node pushes and about
//! a third of a percent of a rack's, a few dozen entries deep
//! (DESIGN.md § 3.10), so the heap is chosen for being small, not fast.
//!
//! `seq` comes from the one counter either way and [`EventQueue::pop`]
//! takes the minimum `(time, seq)` over the lane heads and the heap's
//! root, so the pop order is the same total order whatever the hints
//! say: a lane is a performance hint, never a correctness condition.
//! Lanes and heap hold the same [`Entry`], payload inline.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// One pending event, payload inline: what a lane queues and what the
/// heap orders. Entries compare on `(time, seq)` alone — an event's
/// timestamp in picoseconds, then its insertion sequence number, the
/// deterministic tie-break. `seq` is deliberately `u32`: it keeps the
/// entry of a 20-byte event at 32 bytes, it caps a run at ~4.3 billion
/// events (28× the largest bench sweep), and [`EventQueue::stamp`]
/// panics before it can wrap, so the tie-break can never silently
/// reorder.
#[derive(Debug)]
struct Entry<E> {
    time_ps: u64,
    seq: u32,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (u64, u32) {
        (self.time_ps, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// How far back from its tail a lane lets a push walk to find its place
/// before the push goes to the heap instead. The jittered event kinds
/// (PCIe completion jitter ≤ 300 ns against ~20 ns packet spacing) land
/// up to a dozen or so entries back; 48 covers them with room to spare
/// and caps what a wrong hint can cost at 48 compares.
pub const LANE_REACH: usize = 48;

/// Head key of an empty lane: above every real key (`seq` never reaches
/// `u32::MAX`).
const NO_HEAD: u128 = u128::MAX;

/// `(time, seq)` packed so the calendar's total order is one integer
/// compare, with the lane the key heads in the low bits: the minimum
/// over the lane heads is then a plain (branch-free) integer minimum
/// that carries its own lane. `(time, seq)` is unique per event, so the
/// lane bits never decide a comparison between two events.
#[inline]
fn head_key(time_ps: u64, seq: u32, lane: usize) -> u128 {
    (time_ps as u128) << 64 | (seq as u128) << 32 | lane as u128
}

/// A deterministic discrete-event calendar.
///
/// Events of type `E` are scheduled at absolute instants and popped in
/// `(time, insertion-order)` order. The calendar also tracks the current
/// simulation time: popping an event advances `now` to the event's time.
///
/// # Examples
///
/// ```
/// use fld_sim::queue::EventQueue;
/// use fld_sim::time::SimDuration;
///
/// let mut q = EventQueue::new();
/// q.schedule_in(SimDuration::from_nanos(10), "b");
/// q.schedule_in(SimDuration::from_nanos(5), "a");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// What no lane took, earliest `(time, seq)` at the root.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// The FIFO lanes, each in `(time, seq)` order (see the module docs).
    lanes: Vec<VecDeque<Entry<E>>>,
    /// Packed key of each lane's front entry ([`NO_HEAD`] when empty),
    /// dense so that `pop` finds the earliest lane in one linear pass,
    /// and padded with `NO_HEAD` to a multiple of four.
    heads: Vec<u128>,
    /// Events pending in lanes.
    laned: usize,
    now: SimTime,
    next_seq: u32,
    scheduled_total: u64,
    /// Pushes the heap ordered: no lane named, or out of its reach.
    fallback_pushes: u64,
    /// Entries laned pushes walked past to find their place.
    insert_steps: u64,
    /// Whether the creating thread had [`crate::prof`] armed: sampled
    /// once, so the hot path reads a field, never the switch.
    profiled: bool,
    prof: ProfCounters,
}

/// Self-profiler bookkeeping (see [`crate::prof::CalendarStats`]).
/// `last_pop_ps` uses `u64::MAX` as "no pop yet" — a plain integer
/// compare on the hot path instead of an `Option<SimTime>` unpack.
#[derive(Debug)]
struct ProfCounters {
    pops: u64,
    peak_depth: u64,
    last_pop_ps: u64,
    current_burst: u64,
    max_burst: u64,
    coincident_pops: u64,
}

impl Default for ProfCounters {
    fn default() -> Self {
        ProfCounters {
            pops: 0,
            peak_depth: 0,
            last_pop_ps: u64::MAX,
            current_burst: 0,
            max_burst: 0,
            coincident_pops: 0,
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar at time zero, keeping the depth/burst
    /// statistics iff [`crate::prof::enabled`] on the calling thread.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            heads: Vec::new(),
            laned: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            scheduled_total: 0,
            fallback_pushes: 0,
            insert_steps: 0,
            profiled: crate::prof::enabled(),
            prof: ProfCounters::default(),
        }
    }

    /// Declares FIFO lanes `0..lanes` for [`Self::schedule_at_lane`].
    /// Grow-only: lanes already declared, and whatever is pending in
    /// them, stay.
    ///
    /// `pop` looks at every lane's head, so declare a lane per event
    /// *kind* (a dozen or two), not per entity: a rack's nodes share the
    /// per-kind lanes.
    pub fn set_lanes(&mut self, lanes: usize) {
        if lanes > self.lanes.len() {
            // Every lane index stays below `u32::MAX`, which is the lane
            // `pop` reads out of an all-empty [`NO_HEAD`].
            assert!(lanes <= u32::MAX as usize, "lane index must fit a head key");
            self.lanes.resize_with(lanes, VecDeque::new);
            self.heads.resize(lanes.next_multiple_of(4), NO_HEAD);
        }
    }

    /// Number of declared FIFO lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.laned
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for throughput accounting).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Clamps `at` to the clock and draws the event's sequence number:
    /// the part of a push that is the same whichever structure ends up
    /// holding the event.
    #[inline]
    fn stamp(&mut self, at: SimTime) -> (u64, u32) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let at = at.max(self.now);
        let seq = self.next_seq;
        // A wrapped u32 tie-break would silently reorder same-timestamp
        // events; fail loudly instead (~4.3B events, 28× the largest
        // sweep). The branch is never taken, so it costs nothing.
        assert!(seq != u32::MAX, "event sequence space exhausted");
        self.next_seq += 1;
        self.scheduled_total += 1;
        (at.as_picos(), seq)
    }

    /// Hands a stamped event to the heap.
    fn push_heap(&mut self, time_ps: u64, seq: u32, event: E) {
        self.fallback_pushes += 1;
        self.heap.push(Reverse(Entry {
            time_ps,
            seq,
            event,
        }));
        self.note_depth();
    }

    #[inline]
    fn note_depth(&mut self) {
        // One field read guards the bookkeeping: the unprofiled timed
        // legs must not pay for attribution they are not recording.
        if self.profiled {
            self.prof.peak_depth = self.prof.peak_depth.max(self.len() as u64);
        }
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// `at` is clamped to the current time: an instant already in the
    /// past (a model bug — this panics in debug builds) delivers at
    /// `now` rather than behind an event that has already popped.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when scheduling in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let (time_ps, seq) = self.stamp(at);
        self.push_heap(time_ps, seq, event);
    }

    /// Schedules `event` at `at` (clamped as in [`Self::schedule_at`]),
    /// naming the FIFO lane its stream belongs to.
    ///
    /// The lane is a hint. When `at` is not before the lane's tail the
    /// event is appended; otherwise the push walks back up to
    /// [`LANE_REACH`] entries to its `(time, seq)` place. A lane that was
    /// never declared, or a place beyond that reach, sends the event to
    /// the heap exactly as [`Self::schedule_at`] would. The pop order
    /// is the same in every case.
    #[inline]
    pub fn schedule_at_lane(&mut self, at: SimTime, lane: usize, event: E) {
        let (time_ps, seq) = self.stamp(at);
        // In order — the lane is empty or its tail is not later — is the
        // case the lanes exist for, and all that is inlined into the
        // model's handlers, so that the event is built in the lane's slot
        // rather than copied there.
        match self.lanes.get_mut(lane) {
            Some(q) if q.back().is_none_or(|tail| tail.time_ps <= time_ps) => {
                if q.is_empty() {
                    self.heads[lane] = head_key(time_ps, seq, lane);
                }
                q.push_back(Entry {
                    time_ps,
                    seq,
                    event,
                });
                self.laned += 1;
                self.note_depth();
            }
            _ => self.schedule_out_of_order(time_ps, seq, lane, event),
        }
    }

    /// The rest of [`Self::schedule_at_lane`]: an event earlier than its
    /// lane's tail, or naming no lane.
    #[inline(never)]
    fn schedule_out_of_order(&mut self, time_ps: u64, seq: u32, lane: usize, event: E) {
        // The new event carries the largest `seq` so far, so its place is
        // behind every entry that is not strictly later: count the later
        // ones at the tail.
        let steps = self.lanes.get(lane).map_or(usize::MAX, |q| {
            q.iter()
                .rev()
                .take(LANE_REACH + 1)
                .take_while(|e| e.time_ps > time_ps)
                .count()
        });
        if steps > LANE_REACH {
            return self.push_heap(time_ps, seq, event);
        }
        let q = &mut self.lanes[lane];
        let place = q.len() - steps;
        q.insert(
            place,
            Entry {
                time_ps,
                seq,
                event,
            },
        );
        if place == 0 {
            self.heads[lane] = head_key(time_ps, seq, lane);
        }
        self.insert_steps += steps as u64;
        self.laned += 1;
        self.note_depth();
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at the current time (processed after already-queued
    /// events with the same timestamp).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// The earliest lane head's key ([`NO_HEAD`] when every lane is
    /// empty).
    #[inline]
    fn earliest_head(&self) -> u128 {
        // Which lane is earliest changes from pop to pop, so a compare-
        // and-branch per lane mispredicts about once a call. The minimum
        // of a block of four compiles to conditional moves; a plain
        // running minimum does not (a loop-carried select is turned back
        // into a branch), hence the blocks, and `heads` padded to suit.
        self.heads.chunks_exact(4).fold(NO_HEAD, |best, c| {
            best.min(c[0].min(c[1]).min(c[2].min(c[3])))
        })
    }

    /// Pops the heap's root. Out of line: `pop` is the engine loop's hot
    /// call and the workloads all but never take this branch.
    #[inline(never)]
    fn pop_heap(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        Some((self.advance(entry.time_ps), entry.event))
    }

    /// Pops the earliest event and advances the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let lane_key = self.earliest_head();
        // Every real key is below `NO_HEAD`, so this also covers the
        // case of nothing pending in any lane.
        if self
            .heap
            .peek()
            .is_some_and(|Reverse(e)| head_key(e.time_ps, e.seq, 0) < lane_key)
        {
            return self.pop_heap();
        }
        // `NO_HEAD` names a lane that cannot exist (`set_lanes`).
        let lane = lane_key as u32 as usize;
        let q = self.lanes.get(lane)?;
        // All the bookkeeping first, so that the entry moves out of the
        // lane straight into the caller's slot: a 64-byte enum staged
        // through a stack temporary is copied piecewise, and reloading
        // it across those piece boundaries stalls on store forwarding.
        self.heads[lane] = q
            .get(1)
            .map_or(NO_HEAD, |e| head_key(e.time_ps, e.seq, lane));
        self.laned -= 1;
        let time = self.advance((lane_key >> 64) as u64);
        let entry = self.lanes[lane].pop_front()?;
        Some((time, entry.event))
    }

    /// Moves the clock to a popped event's time.
    #[inline]
    fn advance(&mut self, time_ps: u64) -> SimTime {
        let time = SimTime::from_picos(time_ps);
        self.now = time;
        if self.profiled {
            // Branchless on purpose: ~21% of pops are coincident, so a
            // same-time branch would be genuinely unpredictable — the
            // arithmetic form compiles to cmov/mul and costs the same
            // every pop.
            let same = (self.prof.last_pop_ps == time_ps) as u64;
            self.prof.pops += 1;
            self.prof.coincident_pops += same;
            self.prof.current_burst = self.prof.current_burst * same + 1;
            self.prof.last_pop_ps = time_ps;
            self.prof.max_burst = self.prof.max_burst.max(self.prof.current_burst);
        }
        time
    }

    /// This calendar's behavioral statistics for the self-profiler.
    ///
    /// `pushes` and the lane accounting (`laned_pushes`,
    /// `fallback_pushes`, `insert_steps`) are always populated; the
    /// depth/burst counters are kept only when [`crate::prof::enabled`]
    /// held at [`EventQueue::new`] and read zero otherwise.
    /// `sample_rearms` is owned by the engine, not the calendar, and is
    /// zero here.
    pub fn calendar_stats(&self) -> crate::prof::CalendarStats {
        crate::prof::CalendarStats {
            pushes: self.scheduled_total,
            laned_pushes: self.scheduled_total - self.fallback_pushes,
            fallback_pushes: self.fallback_pushes,
            insert_steps: self.insert_steps,
            pops: self.prof.pops,
            peak_depth: self.prof.peak_depth,
            coincident_pops: self.prof.coincident_pops,
            max_burst: self.prof.max_burst,
            ..Default::default()
        }
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane_key = self.earliest_head();
        let lane = (lane_key != NO_HEAD).then_some((lane_key >> 64) as u64);
        let heap = self.heap.peek().map(|Reverse(e)| e.time_ps);
        lane.into_iter().chain(heap).min().map(SimTime::from_picos)
    }

    /// Drops all pending events (the clock is unchanged).
    ///
    /// Burst tracking (`last_pop` / `current_burst`) resets too: the
    /// first pop after a clear starts a fresh burst even if its
    /// timestamp matches the last pre-clear pop. Cumulative totals
    /// (`pops`, `peak_depth`, `max_burst`, `scheduled_total`, the lane
    /// accounting) survive, and so do the declared lanes.
    pub fn clear(&mut self) {
        self.heap.clear();
        for q in &mut self.lanes {
            q.clear();
        }
        self.heads.fill(NO_HEAD);
        self.laned = 0;
        self.prof.last_pop_ps = u64::MAX;
        self.prof.current_burst = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_in(SimDuration::from_nanos(7), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    fn schedule_now_runs_at_current_time() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_in(SimDuration::from_nanos(5), 1);
        q.pop();
        q.schedule_now(2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(5));
        assert_eq!(e, 2);
    }

    #[test]
    fn schedule_during_pop_interleaves_correctly() {
        // Events scheduled while draining a coincident burst (the
        // engine's normal mode: every dispatch schedules successors)
        // must slot into the global order, not the end of the slot.
        let mut q: EventQueue<i32> = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule_at(t, 0);
        q.schedule_at(t, 1);
        q.schedule_at(t + SimDuration::from_picos(1), 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        // Same timestamp as the in-flight burst: runs after "1"
        // (insertion order) but before the later-time "3".
        q.schedule_now(2);
        q.schedule_in(SimDuration::from_nanos(50), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn peek_does_not_disturb_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_millis(80), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(80)));
        // Scheduling earlier than the peeked event still pops first.
        q.schedule_in(SimDuration::from_nanos(5), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(15)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn calendar_stats_track_depth_and_bursts() {
        crate::prof::set_enabled(true);
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 0);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(10), 2);
        q.schedule_at(SimTime::from_nanos(20), 3);
        while q.pop().is_some() {}
        let stats = q.calendar_stats();
        assert_eq!(stats.pushes, 4);
        assert_eq!(stats.sample_rearms, 0);
        assert_eq!(stats.pops, 4);
        assert_eq!(stats.peak_depth, 4);
        // The three t=10 pops form one burst: two beyond its first.
        assert_eq!(stats.coincident_pops, 2);
        assert_eq!(stats.max_burst, 3);
    }

    #[test]
    fn len_and_clear() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_now(1);
        q.schedule_now(2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn lanes_and_heap_pop_as_one_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        let ns = SimTime::from_nanos;
        q.set_lanes(2);
        assert_eq!(q.lanes(), 2);
        q.schedule_at_lane(ns(30), 0, 3);
        q.schedule_at(ns(10), 1); // no lane named: the heap's
        q.schedule_at_lane(ns(20), 1, 2);
        q.schedule_at_lane(ns(20), 0, 4); // walks back past the 30
        q.schedule_at_lane(ns(20), 9, 5); // no such lane: the heap's
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 4, 5, 3]);
        let stats = q.calendar_stats();
        assert_eq!(stats.pushes, 5);
        assert_eq!(stats.laned_pushes, 3);
        assert_eq!(stats.fallback_pushes, 2);
        assert_eq!(stats.insert_steps, 1);
    }

    #[test]
    fn disorder_beyond_the_reach_falls_back_and_stays_ordered() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.set_lanes(1);
        // Strictly decreasing times: push k belongs k entries back.
        let n = LANE_REACH as i32 + 10;
        for i in 0..n {
            q.schedule_at_lane(SimTime::from_nanos((n - i) as u64), 0, i);
        }
        let stats = q.calendar_stats();
        // Everything pushed lands in front of the whole lane, so the
        // lane takes pushes until it is `LANE_REACH` deep and one
        // more (a walk of exactly the reach).
        assert_eq!(stats.laned_pushes, LANE_REACH as u64 + 1);
        assert_eq!(stats.fallback_pushes, 9);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..n).rev().collect::<Vec<_>>());
    }

    #[test]
    fn depth_peek_and_clear_span_lanes_and_heap() {
        crate::prof::set_enabled(true);
        let mut q: EventQueue<i32> = EventQueue::new();
        let ns = SimTime::from_nanos;
        q.set_lanes(3);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule_at_lane(ns(40), 0, 0);
        q.schedule_at_lane(ns(25), 2, 1);
        assert_eq!(q.peek_time(), Some(ns(25))); // lanes only
        q.schedule_at(ns(50), 2);
        assert_eq!(q.peek_time(), Some(ns(25))); // lane before heap
        q.schedule_at(ns(15), 3);
        assert_eq!(q.peek_time(), Some(ns(15))); // heap before lane
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((ns(15), 3)));
        assert_eq!(q.pop(), Some((ns(25), 1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.calendar_stats().peak_depth, 4);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // The lanes survive a clear and start over empty.
        assert_eq!(q.lanes(), 3);
        q.schedule_at_lane(ns(30), 0, 9);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((ns(30), 9)));
        assert_eq!(q.scheduled_total(), 5);
    }

    #[test]
    fn clear_resets_burst_tracking() {
        // Regression: `last_pop`/`current_burst` used to survive a
        // clear, so the next run's first pop at the same timestamp was
        // miscounted as a continuation of the previous run's burst.
        crate::prof::set_enabled(true);
        let mut q: EventQueue<i32> = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.schedule_at(t, 0);
        q.schedule_at(t, 1);
        while q.pop().is_some() {}
        assert_eq!(q.calendar_stats().coincident_pops, 1);
        q.clear();
        q.schedule_at(t, 2);
        q.pop();
        let stats = q.calendar_stats();
        assert_eq!(
            stats.coincident_pops, 1,
            "pop after clear must start a fresh burst"
        );
        assert_eq!(stats.max_burst, 2);
    }

    #[test]
    fn an_entry_adds_twelve_bytes_to_a_handle_sized_event() {
        // What `seq: u32` buys: the systems' events are 20 bytes (a
        // 4-byte packet handle and a few small fields), and every pending
        // one of them — 175 k at `echo_64`'s peak — is one 32-byte entry.
        assert_eq!(std::mem::size_of::<Entry<[u32; 5]>>(), 32);
    }

    #[test]
    fn queue_reusable_after_clear() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_in(SimDuration::from_nanos(10), 1);
        q.schedule_in(SimDuration::from_millis(90), 2);
        q.clear();
        assert_eq!(q.pop(), None);
        q.schedule_in(SimDuration::from_nanos(3), 7);
        assert_eq!(q.pop().map(|(_, e)| e), Some(7));
    }
}
