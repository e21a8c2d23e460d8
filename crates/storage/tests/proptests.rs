//! Property tests: the LSM engine must be observationally equivalent to a
//! plain `BTreeMap` under any operation sequence, including across
//! flushes, compactions, reopens, and torn-WAL crashes.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_storage::sstable::TableOptions;
use pass_storage::tempdir::TempDir;
use pass_storage::{EngineOptions, KvStore, LsmEngine, MemEngine, WriteBatch};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Action {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Batch(Vec<(Vec<u8>, Option<Vec<u8>>)>),
    Flush,
    Compact,
    /// Drain the tiered picker, as the maintenance worker would.
    MaybeCompact,
    Reopen,
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    // Small keyspace so operations collide and shadowing is exercised.
    (0u8..32).prop_map(|i| format!("key-{i:02}").into_bytes())
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (arb_key(), proptest::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| Action::Put(k, v)),
        2 => arb_key().prop_map(Action::Delete),
        1 => proptest::collection::vec(
            (arb_key(), proptest::option::of(proptest::collection::vec(any::<u8>(), 0..16))),
            1..5
        ).prop_map(Action::Batch),
        1 => Just(Action::Flush),
        1 => Just(Action::Compact),
        1 => Just(Action::MaybeCompact),
        1 => Just(Action::Reopen),
    ]
}

/// Offsets at which a WAL frame (`[len u32 LE][crc u32 LE][payload]`)
/// starts, plus the end of the log.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = vec![0];
    let mut pos = 0;
    while pos + 8 <= bytes.len() {
        pos += 8 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        starts.push(pos);
    }
    starts
}

fn tiny_opts() -> EngineOptions {
    EngineOptions {
        memtable_bytes: 2 << 10, // flush constantly
        ..EngineOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lsm_matches_btreemap_model(actions in proptest::collection::vec(arb_action(), 1..60)) {
        let dir = TempDir::new("prop-lsm");
        let mut db = LsmEngine::open(dir.path(), tiny_opts()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for action in &actions {
            match action {
                Action::Put(k, v) => {
                    db.put(k, v).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                Action::Delete(k) => {
                    db.delete(k).unwrap();
                    model.remove(k);
                }
                Action::Batch(ops) => {
                    let mut batch = WriteBatch::new();
                    for (k, v) in ops {
                        match v {
                            Some(v) => {
                                batch.put(k.clone(), v.clone());
                                model.insert(k.clone(), v.clone());
                            }
                            None => {
                                batch.delete(k.clone());
                                model.remove(k);
                            }
                        }
                    }
                    db.apply(batch).unwrap();
                }
                Action::Flush => db.force_flush().unwrap(),
                Action::Compact => db.force_compact().unwrap(),
                Action::MaybeCompact => while db.maybe_compact().unwrap() {},
                Action::Reopen => {
                    drop(db);
                    db = LsmEngine::open(dir.path(), tiny_opts()).unwrap();
                }
            }
            // Full-state equivalence after every step.
            let scanned: BTreeMap<Vec<u8>, Vec<u8>> =
                db.scan_range(b"", None).unwrap().into_iter().collect();
            prop_assert_eq!(&scanned, &model);
        }
        // Point reads agree too.
        for (k, v) in &model {
            let got = db.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }

    #[test]
    fn mem_engine_matches_btreemap_model(actions in proptest::collection::vec(arb_action(), 1..60)) {
        let db = MemEngine::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for action in &actions {
            match action {
                Action::Put(k, v) => {
                    db.put(k, v).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                Action::Delete(k) => {
                    db.delete(k).unwrap();
                    model.remove(k);
                }
                Action::Batch(ops) => {
                    let mut batch = WriteBatch::new();
                    for (k, v) in ops {
                        match v {
                            Some(v) => {
                                batch.put(k.clone(), v.clone());
                                model.insert(k.clone(), v.clone());
                            }
                            None => {
                                batch.delete(k.clone());
                                model.remove(k);
                            }
                        }
                    }
                    db.apply(batch).unwrap();
                }
                Action::Flush | Action::Compact | Action::MaybeCompact | Action::Reopen => {}
            }
        }
        let scanned: BTreeMap<Vec<u8>, Vec<u8>> =
            db.scan_range(b"", None).unwrap().into_iter().collect();
        prop_assert_eq!(scanned, model);
    }

    #[test]
    fn recovery_after_torn_wal_is_a_batch_prefix(
        batches in proptest::collection::vec(
            proptest::collection::vec((arb_key(), proptest::collection::vec(any::<u8>(), 1..16)), 1..4),
            1..8
        ),
        cut_fraction in 0.0f64..1.0,
        at_boundary in any::<bool>(),
        zeros in prop_oneof![Just(0usize), 1usize..=4096],
    ) {
        let dir = TempDir::new("prop-torn");
        // Build prefix states: state[i] = model after first i batches.
        let mut states: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = vec![BTreeMap::new()];
        {
            let db = LsmEngine::open(dir.path(), EngineOptions::default()).unwrap();
            for ops in &batches {
                let mut batch = WriteBatch::new();
                let mut next = states.last().unwrap().clone();
                for (k, v) in ops {
                    batch.put(k.clone(), v.clone());
                    next.insert(k.clone(), v.clone());
                }
                db.apply(batch).unwrap();
                states.push(next);
            }
            // Dropped without flush: everything lives in the WAL.
        }
        let wal_path = dir.path().join("wal.log");
        let bytes = std::fs::read(&wal_path).unwrap();
        let mut cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if at_boundary {
            cut = frame_starts(&bytes).into_iter().filter(|&s| s <= cut).max().unwrap();
        }
        // A zero-filled tail is what an un-synced size extension leaves.
        let torn = [&bytes[..cut], &vec![0u8; zeros][..]].concat();
        std::fs::write(&wal_path, &torn).unwrap();

        let db = LsmEngine::open(dir.path(), EngineOptions::default()).unwrap();
        let recovered: BTreeMap<Vec<u8>, Vec<u8>> =
            db.scan_range(b"", None).unwrap().into_iter().collect();
        // The recovered state must be exactly one of the prefix states:
        // batches are atomic and applied in order.
        prop_assert!(
            states.iter().any(|s| s == &recovered),
            "recovered state is not a batch prefix: {recovered:?}"
        );
    }

    #[test]
    fn scan_range_agrees_with_model_on_random_bounds(
        entries in proptest::collection::btree_map(arb_key(), proptest::collection::vec(any::<u8>(), 0..8), 0..30),
        start in arb_key(),
        end in proptest::option::of(arb_key()),
    ) {
        let db = MemEngine::new();
        for (k, v) in &entries {
            db.put(k, v).unwrap();
        }
        let got = db.scan_range(&start, end.as_deref()).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .filter(|(k, _)| k.as_slice() >= start.as_slice())
            .filter(|(k, _)| end.as_ref().is_none_or(|e| k.as_slice() < e.as_slice()))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// The same bounds against an engine whose entries are spread over
    /// several flushed tables and the memtable, with blocks so small that
    /// bounds land mid-block and newer tombstones shadow older tables.
    #[test]
    fn lsm_scan_range_agrees_with_model_on_random_bounds(
        rounds in proptest::collection::vec(
            proptest::collection::vec(
                (arb_key(), proptest::option::of(proptest::collection::vec(any::<u8>(), 0..24))),
                1..24,
            ),
            2..6,
        ),
        start in arb_key(),
        end in proptest::option::of(arb_key()),
    ) {
        let dir = TempDir::new("prop-lsm-range");
        let opts = EngineOptions {
            table: TableOptions { block_bytes: 64 },
            ..EngineOptions::default()
        };
        let db = LsmEngine::open(dir.path(), opts).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (i, round) in rounds.iter().enumerate() {
            for (k, v) in round {
                match v {
                    Some(v) => {
                        db.put(k, v).unwrap();
                        model.insert(k.clone(), v.clone());
                    }
                    None => {
                        db.delete(k).unwrap();
                        model.remove(k);
                    }
                }
            }
            // Every round but the last becomes a table of its own.
            if i + 1 < rounds.len() {
                db.force_flush().unwrap();
            }
        }
        prop_assert_eq!(db.stats().num_tables, rounds.len() - 1);
        let got = db.scan_range(&start, end.as_deref()).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter(|(k, _)| k.as_slice() >= start.as_slice())
            .filter(|(k, _)| end.as_ref().is_none_or(|e| k.as_slice() < e.as_slice()))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(got, expected);
    }
}
