//! A hierarchical timing wheel (Varghese & Lauck) with a calendar-queue
//! overflow level, tuned to this simulator's event mix.
//!
//! # Level sizing
//!
//! Level-0 slots are `2^G0` = 32768 ps (~32.8 ns) wide — a couple of
//! events per slot at 25 GbE line rate with 64 B frames (~20 ns event
//! spacing). The width is an empirical balance (swept on `bench_engine`):
//! finer slots push more events up the levels and through the cascade's
//! scattered re-placement; coarser slots fatten each slot's sort. Each
//! of the three levels has 256 slots, so the wheel directly spans
//! `2^(15+3·8)` ps ≈ 550 ms — comfortably past the millisecond-scale
//! timeouts the systems schedule. Anything farther sits in a `(time,
//! seq)` min-heap overflow and migrates into the wheel en masse when
//! the clock reaches its 550 ms epoch; the observed depth distribution
//! (`BENCH_engine.json`: peak 465k pending, ~all within microseconds of
//! now) makes that heap nearly empty in practice.
//!
//! # Aligned windows
//!
//! Each level holds only events inside the *aligned* `2^(G0+8(l+1))` ps
//! window containing `now` — alignment, not a sliding offset, is what
//! preserves ordering: every event in level `l+1` is strictly later
//! than everything remaining in level `l`'s window, so draining level 0
//! to exhaustion before cascading one level-1 slot (and so on up) can
//! never reorder. A cascade re-places a parent slot's events with the
//! same routing rule used for fresh pushes.
//!
//! # Determinism
//!
//! The pop order is exactly `(time, seq)`, bit-identical to the
//! reference heap (the differential proptest in `proptests.rs` holds
//! the two backends against each other): a drained slot is sorted by
//! `(time, seq)` before its events are handed out, and events that land
//! at or before the cursor — schedule-during-pop, the engine's normal
//! mode — are merge-inserted into the already-sorted drain buffer at
//! their `(time, seq)` position.

use std::collections::BinaryHeap;

use super::{MinSlot, Slot};

/// log2 of slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// log2 of the level-0 slot width in picoseconds (32768 ps ≈ 32.8 ns).
const G0: u32 = 15;
/// Wheel levels; beyond `2^(G0 + LEVELS·SLOT_BITS)` ps lies overflow.
const LEVELS: usize = 3;
/// Words in a level's occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Mask for a slot index within a level.
const MASK: u64 = (SLOTS - 1) as u64;
/// Refill keeps draining consecutive buckets until the buffer holds at
/// least this many events (or the level-0 window runs out), amortizing
/// the scan/call overhead over a batch instead of paying it per bucket.
/// The batch size is the pop-phase vs dispatch-phase tradeoff knob:
/// larger batches mean fewer refills per pop (the `bench_engine` pop
/// fraction drops roughly monotonically with it) but advance the cursor
/// further ahead of the clock, so more schedule-during-pop arrivals
/// land at-or-before the cursor and pay a merge into the drain buffer
/// on the push side — a binary search plus a move that the gap buffer
/// in [`TimingWheel::place`] halves but does not make cheap (it was a
/// quarter of a deep run's host time while every push came here; the
/// in-order streams now go to the queue's FIFO lanes instead). 320 was
/// swept on `bench_engine` as the corner where the pop fraction clears
/// its budget without giving back the events/s win.
const DRAIN_BATCH: usize = 320;

/// One wheel level: 256 buckets plus an occupancy bitmap so the refill
/// scan skips empty buckets 64 at a time.
#[derive(Debug)]
struct Level {
    buckets: Vec<Vec<Slot>>,
    occupied: [u64; WORDS],
}

impl Level {
    fn new() -> Level {
        Level {
            buckets: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
        }
    }

    #[inline]
    fn push(&mut self, rel: usize, slot: Slot) {
        self.buckets[rel].push(slot);
        self.occupied[rel >> 6] |= 1 << (rel & 63);
    }

    /// First occupied bucket index `>= from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let mut w = from >> 6;
        let mut word = self.occupied[w] & (!0u64 << (from & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            word = self.occupied[w];
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied = [0; WORDS];
    }
}

/// The wheel proper. Orders [`Slot`] keys; payloads live in the
/// [`super::EventQueue`] slab.
#[derive(Debug)]
pub(crate) struct TimingWheel {
    levels: Vec<Level>,
    /// Events beyond the wheel's span, min-ordered by `(time, seq)`.
    overflow: BinaryHeap<MinSlot>,
    /// The active bucket's events, sorted by `(time, seq)`; `buf_pos`
    /// is the drain cursor. Late arrivals at or before the cursor's
    /// bucket merge-insert here.
    buffer: Vec<Slot>,
    buf_pos: usize,
    /// Prefetch watermark: buffer entries below it have had their slab
    /// payloads hinted toward cache (see [`Self::prefetch_hints`]).
    hint_pos: usize,
    /// Absolute level-0 bucket index the buffer was drained from.
    cur0: u64,
    len: usize,
    /// Allocations of cascaded (hence empty) parent buckets, waiting for
    /// the next parent bucket that starts filling: what a cascade empties
    /// the next window takes over, so the wheel retains capacity in
    /// proportion to the buckets occupied at once, not to every bucket
    /// it ever filled — and the hot loop stays allocation-free.
    spares: Vec<Vec<Slot>>,
}

impl TimingWheel {
    pub(crate) fn new() -> TimingWheel {
        TimingWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            buffer: Vec::new(),
            buf_pos: 0,
            hint_pos: 0,
            cur0: 0,
            len: 0,
            spares: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, slot: Slot) {
        self.len += 1;
        self.place(slot);
    }

    /// Routes one event to the buffer, a wheel level, or overflow,
    /// relative to the current cursor. Used for fresh pushes, cascades,
    /// and overflow migration alike.
    #[inline]
    fn place(&mut self, slot: Slot) {
        let i0 = slot.time_ps >> G0;
        if i0 <= self.cur0 {
            // At or before the active bucket: merge into the sorted
            // drain buffer. Every already-served entry's key is
            // provably smaller — `time >= now` and seq grows
            // monotonically — so the search skips the dead prefix and
            // the insertion point is never behind the cursor.
            let at = self.buf_pos
                + self.buffer[self.buf_pos..].partition_point(|s| s.key() < slot.key());
            if self.buf_pos > 0 && at - self.buf_pos < self.buffer.len() - at {
                // The already-served prefix `[0, buf_pos)` is dead
                // space: shifting the (shorter) pending front side one
                // slot left into it is cheaper than memmoving the whole
                // tail right, and never grows the allocation: mid-drain
                // merges pay min(front, tail), gap-buffer style.
                self.buffer.copy_within(self.buf_pos..at, self.buf_pos - 1);
                self.buf_pos -= 1;
                self.buffer[at - 1] = slot;
            } else {
                self.buffer.insert(at, slot);
            }
            return;
        }
        // The highest differing index bit picks the innermost level
        // whose aligned window holds both the cursor and the event.
        let d = i0 ^ self.cur0;
        if d >> SLOT_BITS == 0 {
            self.levels[0].push((i0 & MASK) as usize, slot);
        } else if d >> (2 * SLOT_BITS) == 0 {
            self.push_parent(1, ((i0 >> SLOT_BITS) & MASK) as usize, slot);
        } else if d >> (3 * SLOT_BITS) == 0 {
            self.push_parent(2, ((i0 >> (2 * SLOT_BITS)) & MASK) as usize, slot);
        } else {
            self.overflow.push(MinSlot(slot));
        }
    }

    /// Pushes into a level-1/2 bucket. A bucket without an allocation —
    /// never used, or emptied by [`Self::cascade`] — takes over a spare
    /// one first.
    #[inline]
    fn push_parent(&mut self, level: usize, rel: usize, slot: Slot) {
        let lvl = &mut self.levels[level];
        if lvl.buckets[rel].capacity() == 0 {
            if let Some(spare) = self.spares.pop() {
                lvl.buckets[rel] = spare;
            }
        }
        lvl.push(rel, slot);
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Slot> {
        loop {
            if self.buf_pos < self.buffer.len() {
                let slot = self.buffer[self.buf_pos];
                self.buf_pos += 1;
                if self.buf_pos == self.buffer.len() {
                    self.buffer.clear();
                    self.buf_pos = 0;
                    self.hint_pos = 0;
                }
                self.len -= 1;
                return Some(slot);
            }
            if !self.refill() {
                return None;
            }
        }
    }

    /// Drain-buffer entries whose slab payloads should be prefetched
    /// now, advancing the watermark.
    ///
    /// Pops drain the buffer front-to-back long after the payloads were
    /// pushed, so each would eat a cold DRAM miss. Hinting a whole chunk
    /// at once overlaps those misses (the memory system sustains ~10
    /// concurrent line fills) instead of serializing them one pop at a
    /// time; the 16-pop lead keeps the watermark comfortably ahead of
    /// the cursor, and the chunked advance makes the per-pop cost of
    /// this method a single predictable branch.
    ///
    /// Hinting happens in two stages per drain. When the last in-buffer
    /// chunk is handed out, the *next* occupied bucket's slot array is
    /// prefetched (its lines were written a whole window ago and have
    /// long been evicted). When the drain is nearly dry, those
    /// now-warm slots are themselves returned as hints, so the next
    /// drain's first slab payloads are already in flight before refill
    /// serves them — without this, the head of every fresh buffer eats
    /// an unhinted DRAM miss.
    #[inline]
    pub(crate) fn prefetch_hints(&mut self) -> &[Slot] {
        const CHUNK: usize = 32;
        const LEAD: usize = 16;
        const TAIL_LEAD: usize = 4;
        let len = self.buffer.len();
        if self.hint_pos >= len {
            // Stage two: every buffer entry is hinted. Once the drain
            // is nearly dry, hand out the next bucket's slots (warmed
            // by stage one) exactly once; `usize::MAX` marks "done".
            if self.hint_pos != usize::MAX && self.buf_pos + TAIL_LEAD >= len {
                self.hint_pos = usize::MAX;
                let from0 = ((self.cur0 & MASK) + 1) as usize;
                if let Some(rel) = self.levels[0].next_occupied(from0) {
                    let b = &self.levels[0].buckets[rel];
                    return &b[..b.len().min(CHUNK)];
                }
            }
            return &[];
        }
        if self.buf_pos + LEAD < self.hint_pos {
            return &[];
        }
        let start = self.hint_pos;
        let end = (start + CHUNK).min(len);
        self.hint_pos = end;
        if end == len {
            // Stage one (last chunk of this drain): pull the next
            // occupied bucket's slot array toward cache for stage two
            // and for the refill itself. One prefetch covers four
            // 16 B slots, so step by 4.
            let mut from0 = ((self.cur0 & MASK) + 1) as usize;
            for _ in 0..2 {
                let Some(rel) = self.levels[0].next_occupied(from0) else {
                    break;
                };
                for s in self.levels[0].buckets[rel].iter().step_by(4) {
                    super::prefetch(s);
                }
                from0 = rel + 1;
            }
        }
        &self.buffer[start..end]
    }

    #[inline]
    pub(crate) fn peek(&mut self) -> Option<Slot> {
        if self.buf_pos >= self.buffer.len() && !self.refill() {
            return None;
        }
        Some(self.buffer[self.buf_pos])
    }

    pub(crate) fn clear(&mut self) {
        for level in &mut self.levels {
            level.clear();
        }
        self.overflow.clear();
        self.buffer.clear();
        self.buf_pos = 0;
        self.hint_pos = 0;
        self.len = 0;
        // `cur0` stays: the clock does not move backwards on clear.
    }

    /// Advances the cursor to the next occupied bucket and drains it
    /// into the (empty) buffer. Returns false when no events remain.
    fn refill(&mut self) -> bool {
        debug_assert!(self.buffer.is_empty() && self.buf_pos == 0);
        if self.len == 0 {
            return false;
        }
        loop {
            // Level 0: drain consecutive occupied buckets — not just
            // one — until the buffer holds a healthy batch. Buckets
            // average a couple of events each, so stopping at the
            // first would pay the refill overhead every 2-3 pops.
            // Each bucket's run is sorted in place; bucket order is
            // time order, so the concatenation stays globally sorted.
            let mut from0 = ((self.cur0 & MASK) + 1) as usize;
            while self.buffer.len() < DRAIN_BATCH {
                let Some(rel) = self.levels[0].next_occupied(from0) else {
                    break;
                };
                let level = &mut self.levels[0];
                level.occupied[rel >> 6] &= !(1u64 << (rel & 63));
                if self.buffer.is_empty() {
                    // Swap allocations instead of copying; capacities
                    // circulate between the buffer and the buckets.
                    std::mem::swap(&mut self.buffer, &mut level.buckets[rel]);
                    if self.buffer.len() > 1 {
                        self.buffer.sort_unstable_by_key(Slot::key);
                    }
                } else {
                    let start = self.buffer.len();
                    self.buffer.extend(level.buckets[rel].iter().copied());
                    level.buckets[rel].clear();
                    if self.buffer.len() - start > 1 {
                        self.buffer[start..].sort_unstable_by_key(Slot::key);
                    }
                }
                self.cur0 = (self.cur0 & !MASK) | rel as u64;
                from0 = rel + 1;
            }
            if !self.buffer.is_empty() {
                return true;
            }
            // Level 0 exhausted: cascade the next occupied parent
            // bucket down and rescan. Entries landing exactly at the
            // new cursor go to the buffer via `place`, so a non-empty
            // buffer is already sorted (merge-inserted one by one).
            if self.cascade(1) || self.cascade(2) {
                if !self.buffer.is_empty() {
                    return true;
                }
                continue;
            }
            // Wheel empty: migrate the earliest overflow epoch.
            let Some(min) = self.overflow.peek() else {
                debug_assert_eq!(self.len, 0);
                return false;
            };
            self.cur0 = min.0.time_ps >> G0;
            let epoch = self.cur0 >> (LEVELS as u32 * SLOT_BITS);
            while let Some(m) = self.overflow.peek() {
                if (m.0.time_ps >> G0) >> (LEVELS as u32 * SLOT_BITS) != epoch {
                    break;
                }
                let slot = self.overflow.pop().expect("peeked").0;
                self.place(slot);
            }
            // The epoch minimum landed at the cursor, i.e. the buffer.
            debug_assert!(!self.buffer.is_empty());
            return true;
        }
    }

    /// Drains the next occupied bucket of `level` (after the cursor's
    /// position there) down into the levels below / the buffer.
    /// Returns false when no such bucket exists in the aligned window.
    fn cascade(&mut self, level: usize) -> bool {
        let shift = level as u32 * SLOT_BITS;
        let from = (((self.cur0 >> shift) & MASK) + 1) as usize;
        let Some(rel) = self.levels[level].next_occupied(from) else {
            return false;
        };
        let abs = ((self.cur0 >> shift) & !MASK) | rel as u64;
        self.cur0 = abs << shift;
        // The bucket gives up its allocation along with its events.
        let lvl = &mut self.levels[level];
        lvl.occupied[rel >> 6] &= !(1u64 << (rel & 63));
        let mut staged = std::mem::take(&mut lvl.buckets[rel]);
        // The re-placements scatter-write across up to 256 child
        // buckets whose data tails are long evicted; hint every push
        // target first so the write-allocate misses overlap instead of
        // stalling one `Vec::push` at a time. Cascades from level 2
        // land in level 1 (same geometry, one shift up), so the hint
        // pass uses the child level's own index bits.
        let child = level - 1;
        let cshift = child as u32 * SLOT_BITS;
        for slot in &staged {
            let rel = ((slot.time_ps >> (G0 + cshift)) & MASK) as usize;
            let b = &self.levels[child].buckets[rel];
            super::prefetch_at(b.as_ptr().wrapping_add(b.len()));
        }
        for slot in &staged {
            self.place(*slot);
        }
        staged.clear();
        self.spares.push(staged);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(time_ps: u64, seq: u32) -> Slot {
        Slot {
            time_ps,
            seq,
            idx: seq,
        }
    }

    fn drain(w: &mut TimingWheel) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| w.pop().map(|s| (s.time_ps, s.seq))).collect()
    }

    #[test]
    fn same_bucket_sorts_by_time_then_seq() {
        let mut w = TimingWheel::new();
        // All within one 32768 ps bucket, pushed out of order.
        w.push(slot(3000, 2));
        w.push(slot(1000, 3));
        w.push(slot(1000, 1));
        w.push(slot(2000, 0));
        assert_eq!(
            drain(&mut w),
            vec![(1000, 1), (1000, 3), (2000, 0), (3000, 2)]
        );
    }

    #[test]
    fn cascade_respects_bucket_boundaries() {
        let mut w = TimingWheel::new();
        let l1 = 1u64 << (G0 + SLOT_BITS); // first level-1 bucket boundary
        let l2 = 1u64 << (G0 + 2 * SLOT_BITS); // first level-2 boundary
        w.push(slot(l2 + 5, 0)); // level 2
        w.push(slot(l1 + 3, 1)); // level 1
        w.push(slot(7, 2)); // level 0
        w.push(slot(l1, 3)); // exactly on a level-1 boundary
        assert_eq!(
            drain(&mut w),
            vec![(7, 2), (l1, 3), (l1 + 3, 1), (l2 + 5, 0)]
        );
    }

    #[test]
    fn overflow_migrates_per_epoch() {
        let mut w = TimingWheel::new();
        let span = 1u64 << (G0 + LEVELS as u32 * SLOT_BITS); // ≈550 ms
        w.push(slot(3 * span + 10, 0)); // two epochs out
        w.push(slot(span + 20, 1)); // next epoch
        w.push(slot(span + 20, 2)); // coincident with it
        w.push(slot(5, 3)); // in the wheel now
        assert_eq!(
            drain(&mut w),
            vec![(5, 3), (span + 20, 1), (span + 20, 2), (3 * span + 10, 0)]
        );
    }

    #[test]
    fn late_arrivals_merge_into_active_drain() {
        let mut w = TimingWheel::new();
        w.push(slot(1000, 0));
        w.push(slot(1000, 1));
        assert_eq!(w.pop(), Some(slot(1000, 0)));
        // Mid-drain arrivals: same timestamp (after seq 1) and a
        // later-but-same-bucket timestamp.
        w.push(slot(1000, 5));
        w.push(slot(1002, 4));
        assert_eq!(drain(&mut w), vec![(1000, 1), (1000, 5), (1002, 4)]);
    }

    #[test]
    fn peek_then_earlier_push_still_pops_in_order() {
        let mut w = TimingWheel::new();
        let far = 1u64 << (G0 + 2 * SLOT_BITS);
        w.push(slot(far, 0));
        assert_eq!(w.peek().map(|s| s.time_ps), Some(far)); // cascades cursor forward
        w.push(slot(500, 1)); // earlier than the peeked event
        assert_eq!(drain(&mut w), vec![(500, 1), (far, 0)]);
    }

    /// Slots of capacity the wheel holds on to, in every bucket, the
    /// drain buffer and the spares.
    fn retained_slots(w: &TimingWheel) -> usize {
        let buckets = w.levels.iter().flat_map(|l| &l.buckets);
        buckets
            .chain(&w.spares)
            .chain([&w.buffer])
            .map(Vec::capacity)
            .sum()
    }

    #[test]
    fn cascaded_buckets_hand_their_allocation_on() {
        // A steady stream, one event per `step`, each scheduled a window
        // and a half of level 0 ahead — so every event passes through a
        // level-1 bucket and the calendar holds `DEPTH` events throughout.
        // A cascade used to copy the bucket out and `clear()` it, leaving
        // every bucket it ever drained at its peak capacity: O(windows ×
        // depth) retained by a calendar `DEPTH` deep.
        const DEPTH: u64 = 1536;
        const WINDOWS: u64 = 96;
        let window = 1u64 << (G0 + SLOT_BITS);
        let step = window / 1024;
        let mut w = TimingWheel::new();
        for i in 0..DEPTH {
            w.push(slot(i * step, i as u32));
        }
        for i in DEPTH..WINDOWS * 1024 {
            let s = w.pop().expect("constant depth");
            assert_eq!(s.time_ps, (i - DEPTH) * step, "popped out of order");
            w.push(slot(i * step, i as u32));
        }
        let retained = retained_slots(&w);
        assert!(
            retained <= 8 * DEPTH as usize,
            "{retained} slots retained for a depth of {DEPTH}"
        );
    }

    #[test]
    fn empty_and_clear() {
        let mut w = TimingWheel::new();
        assert_eq!(w.pop(), None);
        assert_eq!(w.peek(), None);
        let span = 1u64 << (G0 + LEVELS as u32 * SLOT_BITS);
        w.push(slot(10, 0));
        w.push(slot(2 * span, 1));
        w.clear();
        assert_eq!(w.pop(), None);
        w.push(slot(42, 2));
        assert_eq!(drain(&mut w), vec![(42, 2)]);
    }
}
