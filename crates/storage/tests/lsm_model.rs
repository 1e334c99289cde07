//! Model-based property test for the tiered log-structured store.
//!
//! **Read-your-writes equivalence** — after any schedule of puts, deletes,
//! flushes and (implicitly triggered) compactions, every point read and the
//! canonical fold agree with a flat `BTreeMap` model. There is no crash
//! property to test at this level: the tier keeps no durable record of its
//! own, and what survives a failure is the engine's checkpoint.

use bytes::Bytes;
use clonos_storage::lsm::{TieredConfig, TieredStore};
use clonos_storage::SpillDevice;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Put(u8, u64, Vec<u8>),
    Delete(u8, u64),
    Flush,
    /// A batch of wide rows — forces memtable flushes and, under the tiny
    /// test config, compaction cascades.
    Churn(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..=2, 0u64..64, proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(s, k, v)| Op::Put(s, k, v)),
        (1u8..=2, 0u64..64, proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(s, k, v)| Op::Put(s, k, v)),
        (1u8..=2, 0u64..64).prop_map(|(s, k)| Op::Delete(s, k)),
        Just(Op::Flush),
        (0u64..8).prop_map(Op::Churn),
    ]
}

fn cfg() -> TieredConfig {
    // Tiny budgets so short schedules exercise flush, multi-level
    // compaction, and the in-place bottom-level path.
    TieredConfig {
        memtable_bytes: 192,
        level_fanout: 2,
        index_every: 3,
        filter_bits_per_key: 8,
        bulk_level: 3,
        bulk_segment_bytes: 256,
    }
}

fn fkey(section: u8, key: u64) -> Vec<u8> {
    let mut v = vec![section];
    v.extend_from_slice(&key.to_be_bytes());
    v
}

fn apply(s: &mut TieredStore, model: &mut BTreeMap<Vec<u8>, Bytes>, o: &Op) {
    match o {
        Op::Put(sec, k, v) => {
            let val = Bytes::from(v.clone());
            s.put(*sec, &k.to_be_bytes(), val.clone());
            model.insert(fkey(*sec, *k), val);
        }
        Op::Delete(sec, k) => {
            s.delete(*sec, &k.to_be_bytes());
            model.remove(&fkey(*sec, *k));
        }
        Op::Flush => {
            s.flush();
        }
        Op::Churn(base) => {
            for i in 0..16u64 {
                let k = 1000 + base * 16 + i;
                let val = Bytes::from(vec![(base + i) as u8; 24]);
                s.put(1, &k.to_be_bytes(), val.clone());
                model.insert(fkey(1, k), val);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reads_and_fold_match_flat_model(
        ops in proptest::collection::vec(op(), 1..80),
        bulk in any::<bool>(),
    ) {
        let mut s = TieredStore::new(cfg(), SpillDevice::new(), 0);
        let mut model: BTreeMap<Vec<u8>, Bytes> = BTreeMap::new();
        if bulk {
            let seed: Vec<(Vec<u8>, Bytes)> =
                (0..32u64).map(|i| (fkey(1, i), Bytes::from(vec![i as u8; 12]))).collect();
            for (k, v) in &seed {
                model.insert(k.clone(), v.clone());
            }
            s.bulk_load(seed);
        }
        for o in &ops {
            apply(&mut s, &mut model, o);
        }
        for sec in 1..=2u8 {
            for k in 0..64u64 {
                let expect = model.get(&fkey(sec, k)).cloned();
                prop_assert_eq!(s.get(sec, &k.to_be_bytes()), expect, "sec={} key={}", sec, k);
            }
        }
        prop_assert_eq!(s.fold_entries(), model);
    }
}
