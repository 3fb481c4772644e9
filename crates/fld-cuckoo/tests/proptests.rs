//! Property-based tests: the cuckoo table behaves exactly like a map under
//! arbitrary operation sequences, within its capacity envelope.

use std::collections::HashMap;

use proptest::prelude::*;

use fld_cuckoo::CuckooTable;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        any::<u16>().prop_map(|k| Op::Remove(k % 512)),
        any::<u16>().prop_map(|k| Op::Get(k % 512)),
    ]
}

proptest! {
    /// Model equivalence against HashMap under arbitrary op sequences.
    #[test]
    fn behaves_like_a_map(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut table: CuckooTable<u16, u32> = CuckooTable::with_capacity(512);
        let mut model: HashMap<u16, u32> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    // `insert` takes absent keys: a re-insert removes first.
                    prop_assert_eq!(table.remove(&k), model.remove(&k));
                    // Capacity 512 with keys drawn from 0..512 can never
                    // stall (the table is provisioned at load factor 1/2).
                    prop_assert!(table.insert(k, v).is_inserted());
                    model.insert(k, v);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(table.remove(&k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(table.get(&k).copied(), model.get(&k).copied());
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        // Final full sweep.
        for k in 0u16..512 {
            prop_assert_eq!(table.get(&k).copied(), model.get(&k).copied());
        }
    }

    /// Any set of up to `capacity` distinct keys always fits (the load
    /// factor 1/2 + stash convergence guarantee of § 5.2).
    #[test]
    fn capacity_always_fits(keys in proptest::collection::hash_set(any::<u64>(), 1..256)) {
        let mut table: CuckooTable<u64, u64> = CuckooTable::with_capacity(256);
        for (i, k) in keys.iter().enumerate() {
            let outcome = table.insert(*k, i as u64);
            prop_assert!(outcome.is_inserted(), "stall at entry {i}");
        }
        for (i, k) in keys.iter().enumerate() {
            prop_assert_eq!(table.get(k), Some(&(i as u64)));
        }
    }

    /// Insert/remove cycles leave no residue.
    #[test]
    fn churn_is_clean(rounds in 1usize..50, keys in proptest::collection::hash_set(any::<u32>(), 1..32)) {
        let mut table: CuckooTable<u32, u32> = CuckooTable::with_capacity(64);
        for r in 0..rounds {
            for k in &keys {
                let _ = table.insert(*k, r as u32);
            }
            for k in &keys {
                table.remove(k);
            }
        }
        prop_assert!(table.is_empty());
        prop_assert_eq!(table.stash_len(), 0);
    }

}
