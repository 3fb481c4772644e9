//! # fld-cuckoo — four-bank cuckoo hash table with a stash
//!
//! The hardware hash table behind FlexDriver's Tx address-translation layer
//! (paper § 5.2): *"We use a 4-bank cuckoo hash-table (load factor ½) to
//! store a shared pool of N_txdesc descriptors. … when an inserted new entry
//! collides, it evicts some old entry to a stash (containing four entries).
//! The stash then tries to insert the evicted entry to another bank, and the
//! process proceeds till success. If the stash fills up, insertion of a new
//! entry stalls till some entry is released. To prevent backpressure, we
//! double the table size, guaranteeing convergence."*
//!
//! This crate implements exactly that structure in software:
//!
//! * four banks, each addressed by an independent hash function;
//! * a configurable capacity provisioned at load factor ½ (slots = 2 ×
//!   capacity), as the paper mandates;
//! * a four-entry stash holding displaced entries between insertions;
//! * insertion back-pressure ([`InsertOutcome::Stalled`]) when the stash is
//!   full — the condition that stalls the FLD pipeline in hardware.
//!
//! # Examples
//!
//! ```
//! use fld_cuckoo::CuckooTable;
//!
//! let mut t: CuckooTable<u64, u32> = CuckooTable::with_capacity(128);
//! for i in 0..128 {
//!     assert!(t.insert(i, i as u32 * 2).is_inserted());
//! }
//! assert_eq!(t.get(&5), Some(&10));
//! assert_eq!(t.remove(&5), Some(10));
//! assert_eq!(t.get(&5), None);
//! assert_eq!(t.len(), 127);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of banks, fixed by the hardware design.
pub const NUM_BANKS: usize = 4;

/// Stash capacity, fixed by the hardware design.
pub const STASH_SIZE: usize = 4;

/// Maximum displacement steps attempted during a single insertion before
/// the entry is parked in the stash.
const MAX_KICKS: usize = 32;

/// Result of an insertion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was stored in a bank.
    Inserted,
    /// The key was stored, but an entry now waits in the stash.
    InsertedViaStash,
    /// The stash is full: the pipeline must stall until a removal frees
    /// space. The entry was **not** stored.
    Stalled,
}

impl InsertOutcome {
    /// Whether the entry was stored.
    pub fn is_inserted(self) -> bool {
        !matches!(self, InsertOutcome::Stalled)
    }
}

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
}

/// A four-bank cuckoo hash table with a four-entry stash.
///
/// See the [crate-level documentation](crate) for the hardware rationale.
pub struct CuckooTable<K, V> {
    banks: Vec<Vec<Option<Slot<K, V>>>>,
    bank_slots: usize,
    stash: Vec<Slot<K, V>>,
    len: usize,
    seeds: [u64; NUM_BANKS],
    displacements: u64,
    stalls: u64,
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for CuckooTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CuckooTable")
            .field("len", &self.len)
            .field("bank_slots", &self.bank_slots)
            .field("stash_len", &self.stash.len())
            .field("displacements", &self.displacements)
            .finish()
    }
}

fn mix64(mut x: u64) -> u64 {
    // SplitMix64 finalizer: a strong 64-bit mixer.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl<K: Hash + Eq + Clone, V> CuckooTable<K, V> {
    /// Creates a table able to hold `capacity` entries at the paper's ½ load
    /// factor: the banks together provide at least `2 × capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let bank_slots = (2 * capacity).div_ceil(NUM_BANKS).next_power_of_two();
        CuckooTable {
            banks: (0..NUM_BANKS)
                .map(|_| {
                    let mut v = Vec::with_capacity(bank_slots);
                    v.resize_with(bank_slots, || None);
                    v
                })
                .collect(),
            bank_slots,
            stash: Vec::with_capacity(STASH_SIZE),
            len: 0,
            seeds: [0x9E37_79B9, 0x85EB_CA6B, 0xC2B2_AE35, 0x27D4_EB2F],
            displacements: 0,
            stalls: 0,
        }
    }

    /// The key's hash, taken once per operation; [`Self::bucket`] derives
    /// each bank's index from it.
    fn hash_of(key: &K) -> u64 {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    fn bucket(&self, hash: u64, bank: usize) -> usize {
        (mix64(hash ^ self.seeds[bank]) as usize) & (self.bank_slots - 1)
    }

    /// Number of stored entries (including stash residents).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries currently parked in the stash.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Total number of displacement (eviction) steps performed.
    pub fn displacements(&self) -> u64 {
        self.displacements
    }

    /// Number of insertions rejected because the stash was full.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Total slot count across banks (excluding the stash).
    pub fn slot_count(&self) -> usize {
        self.bank_slots * NUM_BANKS
    }

    /// Current load factor over bank slots.
    pub fn load_factor(&self) -> f64 {
        (self.len.saturating_sub(self.stash.len())) as f64 / self.slot_count() as f64
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let hash = Self::hash_of(key);
        for bank in 0..NUM_BANKS {
            let idx = self.bucket(hash, bank);
            if let Some(slot) = &self.banks[bank][idx] {
                if slot.key == *key {
                    return Some(&slot.value);
                }
            }
        }
        self.stash.iter().find(|s| s.key == *key).map(|s| &s.value)
    }

    /// Looks up a key, returning a mutable reference to its value.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let hash = Self::hash_of(key);
        for bank in 0..NUM_BANKS {
            let idx = self.bucket(hash, bank);
            // Split the borrow to appease the borrow checker.
            if self.banks[bank][idx]
                .as_ref()
                .is_some_and(|s| s.key == *key)
            {
                return self.banks[bank][idx].as_mut().map(|s| &mut s.value);
            }
        }
        self.stash
            .iter_mut()
            .find(|s| s.key == *key)
            .map(|s| &mut s.value)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts an entry whose key is absent. See [`InsertOutcome`] for the
    /// possible results; on [`InsertOutcome::Stalled`] the entry was not
    /// stored and the caller must retry after removing something (this is
    /// the hardware's pipeline-stall condition).
    ///
    /// The key must not be present: a hardware insert does not search for
    /// a duplicate first. Debug builds check it.
    pub fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        debug_assert!(self.get(&key).is_none(), "insert of a present key");
        if self.stash.len() >= STASH_SIZE {
            // The paper: "If the stash fills up, insertion of a new entry
            // stalls till some entry is released."
            self.stalls += 1;
            return InsertOutcome::Stalled;
        }
        self.len += 1;
        match self.place(Slot { key, value }) {
            None => {
                // Placement may have freed room to re-home stash residents.
                self.drain_stash();
                if self.stash.is_empty() {
                    InsertOutcome::Inserted
                } else {
                    InsertOutcome::InsertedViaStash
                }
            }
            Some(displaced) => {
                self.stash.push(displaced);
                InsertOutcome::InsertedViaStash
            }
        }
    }

    /// Attempts to place `slot`, displacing entries for up to `MAX_KICKS`
    /// steps. Returns the entry left homeless, if any.
    fn place(&mut self, mut slot: Slot<K, V>) -> Option<Slot<K, V>> {
        // First pass: the first empty bucket among the four candidates,
        // in bank order.
        let mut hash = Self::hash_of(&slot.key);
        for bank in 0..NUM_BANKS {
            let idx = self.bucket(hash, bank);
            if self.banks[bank][idx].is_none() {
                self.banks[bank][idx] = Some(slot);
                return None;
            }
        }
        // Displacement chain: kick occupants between banks.
        let mut bank = (mix64(self.displacements ^ 0xA5A5) as usize) % NUM_BANKS;
        for _ in 0..MAX_KICKS {
            let idx = self.bucket(hash, bank);
            let displaced = self.banks[bank][idx].replace(slot).expect("occupied slot");
            self.displacements += 1;
            slot = displaced;
            hash = Self::hash_of(&slot.key);
            // Try the displaced entry's remaining buckets.
            for b in 0..NUM_BANKS {
                if b == bank {
                    continue;
                }
                let i = self.bucket(hash, b);
                if self.banks[b][i].is_none() {
                    self.banks[b][i] = Some(slot);
                    return None;
                }
            }
            // Move on: kick from a different bank next round.
            bank = (bank + 1) % NUM_BANKS;
        }
        Some(slot)
    }

    /// Tries to re-home stash residents into banks.
    fn drain_stash(&mut self) {
        let mut i = 0;
        while i < self.stash.len() {
            let mut placed = false;
            let hash = Self::hash_of(&self.stash[i].key);
            for bank in 0..NUM_BANKS {
                let idx = self.bucket(hash, bank);
                if self.banks[bank][idx].is_none() {
                    let slot = self.stash.swap_remove(i);
                    self.banks[bank][idx] = Some(slot);
                    placed = true;
                    break;
                }
            }
            if !placed {
                i += 1;
            }
        }
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let hash = Self::hash_of(key);
        for bank in 0..NUM_BANKS {
            let idx = self.bucket(hash, bank);
            if self.banks[bank][idx]
                .as_ref()
                .is_some_and(|s| s.key == *key)
            {
                let slot = self.banks[bank][idx].take().expect("checked above");
                self.len -= 1;
                self.drain_stash();
                return Some(slot.value);
            }
        }
        if let Some(pos) = self.stash.iter().position(|s| s.key == *key) {
            let slot = self.stash.swap_remove(pos);
            self.len -= 1;
            return Some(slot.value);
        }
        None
    }

    /// Iterates over all `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.banks
            .iter()
            .flatten()
            .filter_map(|s| s.as_ref())
            .chain(self.stash.iter())
            .map(|s| (&s.key, &s.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn basic_insert_get_remove() {
        let mut t = CuckooTable::with_capacity(16);
        assert!(t.insert("a", 1).is_inserted());
        assert!(t.insert("b", 2).is_inserted());
        assert_eq!(t.get(&"a"), Some(&1));
        assert_eq!(t.get(&"b"), Some(&2));
        assert_eq!(t.get(&"c"), None);
        assert_eq!(t.remove(&"a"), Some(1));
        assert_eq!(t.get(&"a"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn holds_capacity_entries_at_half_load() {
        // The paper provisions the table at load factor 1/2 precisely so a
        // full capacity's worth of entries always converges.
        let n = 1133; // N_txdesc from Table 2a
        let mut t = CuckooTable::with_capacity(n);
        for i in 0..n as u64 {
            assert!(t.insert(i, i).is_inserted(), "stalled at {i}");
        }
        assert_eq!(t.len(), n);
        for i in 0..n as u64 {
            assert_eq!(t.get(&i), Some(&i));
        }
        assert!(t.load_factor() <= 0.5 + 1e-9);
    }

    #[test]
    fn get_mut_updates() {
        let mut t = CuckooTable::with_capacity(8);
        t.insert(7u32, 0u32);
        *t.get_mut(&7).unwrap() += 41;
        assert_eq!(t.get(&7), Some(&41));
        assert_eq!(t.get_mut(&8), None);
    }

    #[test]
    fn mirror_of_hashmap_under_churn() {
        let mut t = CuckooTable::with_capacity(256);
        let mut m = HashMap::new();
        let mut x: u64 = 0x12345;
        for step in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = x % 400;
            if step % 3 == 0 {
                assert_eq!(t.remove(&key), m.remove(&key), "step {step} key {key}");
                continue;
            }
            // `insert` takes absent keys only: a re-insert removes first.
            if let Some(old) = m.remove(&key) {
                assert_eq!(t.remove(&key), Some(old), "step {step} key {key}");
            }
            if t.insert(key, step).is_inserted() {
                m.insert(key, step);
            } else {
                // Stall: the model table must also be over capacity.
                assert!(m.len() >= 256, "unexpected stall at {} entries", m.len());
            }
        }
        assert_eq!(t.len(), m.len());
        for (k, v) in &m {
            assert_eq!(t.get(k), Some(v));
        }
        let collected: HashMap<u64, u64> = t.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(collected, m);
    }

    #[test]
    fn stash_backpressure_and_release() {
        // Overfill a tiny table until it stalls, then free entries and retry.
        let mut t = CuckooTable::with_capacity(4);
        let mut stored = Vec::new();
        let mut stalled_at = None;
        for i in 0..10_000u64 {
            match t.insert(i, i) {
                InsertOutcome::Stalled => {
                    stalled_at = Some(i);
                    break;
                }
                _ => stored.push(i),
            }
        }
        let first_fail = stalled_at.expect("tiny table must eventually stall");
        assert!(t.stalls() >= 1);
        // Everything accepted must still be readable.
        for k in &stored {
            assert_eq!(t.get(k), Some(k));
        }
        // Release one entry; insertion must succeed again.
        let victim = stored[0];
        assert_eq!(t.remove(&victim), Some(victim));
        assert!(t.insert(first_fail, first_fail).is_inserted());
        assert_eq!(t.get(&first_fail), Some(&first_fail));
    }

    #[test]
    fn stash_is_searched_by_get() {
        let mut t = CuckooTable::with_capacity(4);
        let mut keys = Vec::new();
        for i in 0..10_000u64 {
            if !t.insert(i, i).is_inserted() {
                break;
            }
            keys.push(i);
        }
        if t.stash_len() > 0 {
            // All keys remain visible even while stash-resident.
            for k in &keys {
                assert_eq!(t.get(k), Some(k), "key {k} lost (stash resident?)");
            }
        }
    }

    #[test]
    fn len_counts_stash_entries() {
        let mut t = CuckooTable::with_capacity(4);
        let mut inserted = 0usize;
        for i in 0..10_000u64 {
            if !t.insert(i, i).is_inserted() {
                break;
            }
            inserted += 1;
        }
        assert_eq!(t.len(), inserted);
        assert_eq!(t.iter().count(), inserted);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _: CuckooTable<u8, u8> = CuckooTable::with_capacity(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "insert of a present key")]
    fn inserting_a_present_key_panics_in_debug_builds() {
        let mut t = CuckooTable::with_capacity(8);
        t.insert(1u64, "x");
        t.insert(1u64, "y");
    }

    /// The two-pass insert this table had before it required absent
    /// keys: a full duplicate search, then a placement that re-hashes the
    /// key for every bank. Kept as the oracle for placement order, kick
    /// chains and the stash.
    mod reference {
        use super::super::*;

        pub struct Table {
            pub banks: Vec<Vec<Option<(u64, u64)>>>,
            bank_slots: usize,
            pub stash: Vec<(u64, u64)>,
            seeds: [u64; NUM_BANKS],
            pub displacements: u64,
            pub stalls: u64,
        }

        impl Table {
            pub fn with_capacity(capacity: usize) -> Self {
                let bank_slots = (2 * capacity).div_ceil(NUM_BANKS).next_power_of_two();
                Table {
                    banks: vec![vec![None; bank_slots]; NUM_BANKS],
                    bank_slots,
                    stash: Vec::new(),
                    seeds: [0x9E37_79B9, 0x85EB_CA6B, 0xC2B2_AE35, 0x27D4_EB2F],
                    displacements: 0,
                    stalls: 0,
                }
            }

            fn hash_key(&self, key: u64, bank: usize) -> usize {
                let mut h = FxHasher::default();
                key.hash(&mut h);
                (mix64(h.finish() ^ self.seeds[bank]) as usize) & (self.bank_slots - 1)
            }

            fn find(&self, key: u64) -> Option<(usize, usize)> {
                (0..NUM_BANKS)
                    .map(|b| (b, self.hash_key(key, b)))
                    .find(|&(b, i)| self.banks[b][i].is_some_and(|s| s.0 == key))
            }

            pub fn insert(&mut self, key: u64, value: u64) -> InsertOutcome {
                if let Some((b, i)) = self.find(key) {
                    self.banks[b][i] = Some((key, value));
                    return InsertOutcome::Inserted;
                }
                if let Some(s) = self.stash.iter_mut().find(|s| s.0 == key) {
                    s.1 = value;
                    return InsertOutcome::Inserted;
                }
                if self.stash.len() >= STASH_SIZE {
                    self.stalls += 1;
                    return InsertOutcome::Stalled;
                }
                match self.place((key, value)) {
                    None => {
                        self.drain_stash();
                        if self.stash.is_empty() {
                            InsertOutcome::Inserted
                        } else {
                            InsertOutcome::InsertedViaStash
                        }
                    }
                    Some(displaced) => {
                        self.stash.push(displaced);
                        InsertOutcome::InsertedViaStash
                    }
                }
            }

            fn place(&mut self, mut slot: (u64, u64)) -> Option<(u64, u64)> {
                for bank in 0..NUM_BANKS {
                    let idx = self.hash_key(slot.0, bank);
                    if self.banks[bank][idx].is_none() {
                        self.banks[bank][idx] = Some(slot);
                        return None;
                    }
                }
                let mut bank = (mix64(self.displacements ^ 0xA5A5) as usize) % NUM_BANKS;
                for _ in 0..MAX_KICKS {
                    let idx = self.hash_key(slot.0, bank);
                    slot = self.banks[bank][idx].replace(slot).expect("occupied slot");
                    self.displacements += 1;
                    for b in 0..NUM_BANKS {
                        if b == bank {
                            continue;
                        }
                        let i = self.hash_key(slot.0, b);
                        if self.banks[b][i].is_none() {
                            self.banks[b][i] = Some(slot);
                            return None;
                        }
                    }
                    bank = (bank + 1) % NUM_BANKS;
                }
                Some(slot)
            }

            fn drain_stash(&mut self) {
                let mut i = 0;
                while i < self.stash.len() {
                    let key = self.stash[i].0;
                    match (0..NUM_BANKS)
                        .map(|b| (b, self.hash_key(key, b)))
                        .find(|&(b, idx)| self.banks[b][idx].is_none())
                    {
                        Some((b, idx)) => self.banks[b][idx] = Some(self.stash.swap_remove(i)),
                        None => i += 1,
                    }
                }
            }

            pub fn remove(&mut self, key: u64) -> Option<u64> {
                if let Some((b, i)) = self.find(key) {
                    let slot = self.banks[b][i].take().expect("found");
                    self.drain_stash();
                    return Some(slot.1);
                }
                let pos = self.stash.iter().position(|s| s.0 == key)?;
                Some(self.stash.swap_remove(pos).1)
            }

            pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
                self.banks
                    .iter()
                    .flatten()
                    .flatten()
                    .chain(&self.stash)
                    .copied()
            }
        }
    }

    proptest::proptest! {
        /// Absent-key inserts and removes on a table small enough to kick,
        /// stash and stall: every outcome, the slot order (banks, then the
        /// stash), `displacements()` and `stalls()` match the two-pass
        /// insert.
        #[test]
        fn one_probe_insert_matches_the_two_pass_insert(
            ops in proptest::collection::vec((0u64..32, 0u64..4), 1..300),
        ) {
            // Eight bank slots and four stash entries against 32 keys, three
            // in four operations an insert: the table fills, kicks and stalls.
            let mut t = CuckooTable::with_capacity(4);
            let mut r = reference::Table::with_capacity(4);
            for (i, (key, op)) in ops.into_iter().enumerate() {
                if op == 0 {
                    assert_eq!(t.remove(&key), r.remove(key), "op {i}: remove {key}");
                } else if !t.contains_key(&key) {
                    assert_eq!(t.insert(key, i as u64), r.insert(key, i as u64), "op {i}");
                }
                let got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, r.iter().collect::<Vec<_>>(), "op {i}");
                assert_eq!(t.displacements(), r.displacements, "op {i}");
                assert_eq!(t.stalls(), r.stalls, "op {i}");
                assert_eq!(t.stash_len(), r.stash.len(), "op {i}");
            }
        }
    }
}
