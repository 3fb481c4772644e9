//! The packet pool: a system's in-flight packets stay put in one shared
//! buffer while only their 4-byte handles travel through the event
//! calendar — FLD's own arrangement (§ 5.2–5.3: packets parked in a
//! shared buffer, compressed descriptors on the move), applied to the
//! simulator of it (DESIGN.md § 3.15).
//!
//! The pool is a paged slab. A page is a boxed slice that is never
//! reallocated or moved once built, so growing the pool copies no packet;
//! a vacant slot holds the link of a LIFO free list, so a busy system
//! keeps reusing the slots (and cache lines) it touched last. Each new
//! page holds `max(64, capacity / 4)` slots: the pool grows by a quarter
//! of itself, in as many allocator calls as a doubling `Vec` would make
//! plus a few dozen, and never holds more than 1.25 × its high-water mark.

use std::ops::{Index, IndexMut};

use fld_nic::packet::SimPacket;

/// Names one live packet of a [`PacketPool`]: the page index in the top
/// byte, the slot within the page in the low 24 bits.
///
/// A handle is only as good as the slot behind it: using one after its
/// packet was [`PacketPool::remove`]d panics (or, if the slot has been
/// reused since, reads the new tenant) — the pool-conservation audit
/// clause in `system.rs` is what keeps handle lifetimes honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHandle(u32);

const SLOT_BITS: u32 = 24;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
/// Pages a pool may build. One short of what the top byte can name, so
/// that no handle ever equals [`NO_SLOT`].
const MAX_PAGES: usize = 255;
/// Free-list terminator.
const NO_SLOT: u32 = u32::MAX;
/// Slots of the first pages; later pages are a quarter of the capacity
/// before them.
const MIN_PAGE: usize = 64;

impl PacketHandle {
    fn new(page: usize, slot: usize) -> PacketHandle {
        PacketHandle((page as u32) << SLOT_BITS | slot as u32)
    }

    fn page(self) -> usize {
        (self.0 >> SLOT_BITS) as usize
    }

    fn slot(self) -> usize {
        (self.0 & SLOT_MASK) as usize
    }
}

/// One pool slot: a live packet, or a link of the free list. The tag
/// lives in one of [`SimPacket`]'s niches (its `bool`s), so a slot is
/// exactly a packet wide ([`PacketPool::SLOT_BYTES`]).
#[derive(Debug)]
enum Slot {
    Live(SimPacket),
    /// Vacant; the raw handle of the next vacant slot, or [`NO_SLOT`].
    Free(u32),
}

/// A paged slab of [`SimPacket`]s addressed by [`PacketHandle`].
#[derive(Debug)]
pub struct PacketPool {
    pages: Vec<Box<[Slot]>>,
    /// Raw handle of the most recently vacated slot, or [`NO_SLOT`].
    free: u32,
    live: usize,
    /// Slots built so far, live or vacant.
    capacity: usize,
}

impl Default for PacketPool {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketPool {
    /// Bytes one slot occupies, live or vacant.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

    /// An empty pool; the first page is built by the first insertion.
    pub fn new() -> PacketPool {
        PacketPool {
            pages: Vec::new(),
            free: NO_SLOT,
            live: 0,
            capacity: 0,
        }
    }

    /// Packets currently held.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Parks `pkt` in a vacant slot and names it.
    ///
    /// # Panics
    ///
    /// Panics if the pool would need a 256th page (billions of packets
    /// live at once).
    #[inline]
    pub fn insert(&mut self, pkt: SimPacket) -> PacketHandle {
        if self.free == NO_SLOT {
            self.grow();
        }
        let h = PacketHandle(self.free);
        let slot = &mut self.pages[h.page()][h.slot()];
        match *slot {
            Slot::Free(next) => self.free = next,
            Slot::Live(_) => unreachable!("free list names a live slot"),
        }
        *slot = Slot::Live(pkt);
        self.live += 1;
        h
    }

    /// Takes the packet out, vacating its slot for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `h`'s packet was removed already.
    #[inline]
    pub fn remove(&mut self, h: PacketHandle) -> SimPacket {
        let slot = &mut self.pages[h.page()][h.slot()];
        match std::mem::replace(slot, Slot::Free(self.free)) {
            Slot::Live(pkt) => {
                self.free = h.0;
                self.live -= 1;
                pkt
            }
            Slot::Free(_) => stale(h),
        }
    }

    /// Builds the next page and threads its slots onto the (empty) free
    /// list in ascending order.
    #[cold]
    fn grow(&mut self) {
        let page = self.pages.len();
        assert!(page < MAX_PAGES, "packet pool out of pages");
        let slots = MIN_PAGE.max(self.capacity / 4).min(SLOT_MASK as usize + 1);
        let links = (1..slots)
            .map(|next| PacketHandle::new(page, next).0)
            .chain([NO_SLOT]);
        self.pages.push(links.map(Slot::Free).collect());
        self.free = PacketHandle::new(page, 0).0;
        self.capacity += slots;
    }
}

#[cold]
fn stale(h: PacketHandle) -> ! {
    panic!("stale packet handle {h:?}: its packet was already removed")
}

impl Index<PacketHandle> for PacketPool {
    type Output = SimPacket;

    #[inline]
    fn index(&self, h: PacketHandle) -> &SimPacket {
        match &self.pages[h.page()][h.slot()] {
            Slot::Live(pkt) => pkt,
            Slot::Free(_) => stale(h),
        }
    }
}

impl IndexMut<PacketHandle> for PacketPool {
    #[inline]
    fn index_mut(&mut self, h: PacketHandle) -> &mut SimPacket {
        match &mut self.pages[h.page()][h.slot()] {
            Slot::Live(pkt) => pkt,
            Slot::Free(_) => stale(h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_net::FlowKey;
    use fld_sim::time::SimTime;

    fn pkt(id: u64) -> SimPacket {
        SimPacket::synthetic(id, 64, FlowKey::default(), SimTime::ZERO)
    }

    #[test]
    fn handles_read_back_their_own_packet_and_slots_are_reused_lifo() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        let b = pool.insert(pkt(2));
        assert_eq!((pool[a].id, pool[b].id, pool.live()), (1, 2, 2));
        pool[a].len = 99;
        assert_eq!(pool.remove(a).len, 99);
        assert_eq!(pool.live(), 1);
        // The slot vacated last is the next one handed out.
        assert_eq!(pool.insert(pkt(3)), a);
        assert_eq!(pool[a].id, 3);
        assert_eq!(pool.capacity, MIN_PAGE, "no growth below one page");
    }

    #[test]
    fn pages_grow_by_a_quarter_and_never_move_a_packet() {
        let mut pool = PacketPool::new();
        let handles: Vec<_> = (0..10_000).map(|i| pool.insert(pkt(i))).collect();
        let first = &pool[handles[0]] as *const SimPacket;
        for i in 10_000..100_000 {
            pool.insert(pkt(i));
        }
        assert_eq!(&pool[handles[0]] as *const SimPacket, first);
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(pool[*h].id, i as u64);
        }
        assert_eq!(pool.live(), 100_000);
        assert!(pool.capacity <= 125_000, "{}", pool.capacity);
        // Four minimum pages, then 1.25× a page: a few dozen pages, not
        // the 1 563 that fixed 64-slot pages would take.
        assert!(pool.pages.len() < 40, "{} pages", pool.pages.len());
        let sizes: Vec<usize> = pool.pages.iter().map(|p| p.len()).collect();
        assert_eq!(sizes[..6], [64, 64, 64, 64, 64, 80]);
    }

    #[test]
    fn draining_returns_every_slot_to_the_free_list() {
        let mut pool = PacketPool::new();
        let handles: Vec<_> = (0..300).map(|i| pool.insert(pkt(i))).collect();
        let capacity = pool.capacity;
        for h in handles {
            pool.remove(h);
        }
        assert_eq!(pool.live(), 0);
        for i in 0..capacity as u64 {
            pool.insert(pkt(i));
        }
        assert_eq!(pool.capacity, capacity, "vacant slots were not reused");
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn a_removed_handle_panics_on_use() {
        let mut pool = PacketPool::new();
        let h = pool.insert(pkt(1));
        pool.remove(h);
        let _ = &pool[h];
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn a_double_free_panics() {
        let mut pool = PacketPool::new();
        let h = pool.insert(pkt(1));
        pool.remove(h);
        pool.remove(h);
    }
}
