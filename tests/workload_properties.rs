//! Property-based tests over the core data structures and invariants, using
//! proptest: the concurrent skip list, flat filing into operation chains, the
//! version chains, the Zipf sampler, the queued record lock and the schedule
//! produced by TStream on randomly generated micro-workloads.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use tstream_apps::conventional;
use tstream_apps::workload::{Rng, Zipf};
use tstream_core::restructure::{self, BatchAbortLog, RestructureContext};
use tstream_core::{
    ChainPlacement, ChainPoolSet, DependencyResolution, Engine, EngineConfig, Scheme,
};
use tstream_skiplist::ConcurrentSkipList;
use tstream_state::checkpoint::StoreSnapshot;
use tstream_state::codec;
use tstream_state::{StateStore, TableBuilder, TableId, Value, VersionChain};
use tstream_stream::executor::{ExecutorId, ExecutorLayout};
use tstream_stream::metrics::Breakdown;
use tstream_stream::operator::{AccessMode, ReadWriteSet, StateRef};
use tstream_txn::{Application, EventBlotter, ExecEnv, Operation, PostAction, TxnBuilder};

/// proptest strategy producing an arbitrary state [`Value`].
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Long),
        // Totally ordered doubles only (NaN breaks PartialEq round-trips by
        // definition, and application state never stores NaN).
        (-1.0e12f64..1.0e12).prop_map(Value::Double),
        "[a-zA-Z0-9 ]{0,40}".prop_map(|s: String| Value::Str(s.into())),
        proptest::collection::vec(any::<u64>(), 0..20)
            .prop_map(|ids| Value::Set(ids.into_iter().collect())),
        (any::<i64>(), any::<i64>()).prop_map(|(a, b)| Value::Pair(a, b)),
    ]
}

proptest! {
    // Explicitly bounded so `cargo test -q` stays within CI time; the
    // engine-level properties below use an even smaller budget because every
    // case spins up executor threads.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The skip list iterates exactly the distinct inserted keys, in order,
    /// no matter what order they were inserted in.
    #[test]
    fn skiplist_iterates_sorted_distinct_keys(keys in proptest::collection::vec(0u64..5_000, 1..400)) {
        let list = ConcurrentSkipList::new();
        let mut expected: Vec<u64> = Vec::new();
        for &k in &keys {
            let inserted = list.insert(k, k * 2);
            let fresh = !expected.contains(&k);
            prop_assert_eq!(inserted, fresh);
            if fresh {
                expected.push(k);
            }
        }
        expected.sort_unstable();
        let got: Vec<u64> = list.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(got, expected.clone());
        prop_assert_eq!(list.len(), expected.len());
        for k in &expected {
            prop_assert_eq!(list.get(k), Some(&(k * 2)));
        }
    }

    /// Version chains always return the newest version strictly older than
    /// the reader, regardless of install order.
    #[test]
    fn version_chain_visibility(installs in proptest::collection::vec((1u64..1_000, -1_000i64..1_000), 1..60),
                                read_ts in 0u64..1_200) {
        let mut chain = VersionChain::new();
        let mut reference: Vec<(u64, i64)> = Vec::new();
        for &(ts, v) in &installs {
            chain.install(ts, Value::Long(v));
            reference.push((ts, v));
        }
        // Expected: the value whose ts is the largest among those < read_ts;
        // ties broken by latest install (both the chain and this reference
        // keep later installs after earlier ones for equal timestamps).
        let expected = reference
            .iter()
            .filter(|(ts, _)| *ts < read_ts)
            .max_by_key(|(ts, _)| *ts)
            .map(|(ts, _)| {
                // last installed value for that timestamp
                reference.iter().rev().find(|(t, _)| t == ts).unwrap().1
            });
        let got = chain.visible_before(read_ts).map(|v| v.as_long().unwrap());
        prop_assert_eq!(got, expected);
    }

    /// The Zipf sampler only produces keys in range and is deterministic for
    /// a given seed.
    #[test]
    fn zipf_sampler_is_in_range_and_deterministic(n in 1usize..2_000, theta in 0.0f64..1.5, seed in any::<u64>()) {
        let zipf = Zipf::new(n, theta);
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..200 {
            let x = zipf.sample(&mut a);
            let y = zipf.sample(&mut b);
            prop_assert_eq!(x, y);
            prop_assert!((x as usize) < n);
        }
    }

    /// Every state value survives a codec round trip, byte for byte.
    #[test]
    fn codec_round_trips_arbitrary_values(values in proptest::collection::vec(value_strategy(), 0..40)) {
        let mut buf = Vec::new();
        for v in &values {
            codec::encode_value(&mut buf, v);
        }
        let mut reader = codec::Reader::new(&buf);
        for v in &values {
            let decoded = codec::decode_value(&mut reader).unwrap();
            prop_assert_eq!(&decoded, v);
        }
        prop_assert_eq!(reader.remaining(), 0);
    }

    /// A store snapshot decodes back to itself and restores onto a
    /// same-schema store exactly.
    #[test]
    fn snapshot_round_trips_and_restores(entries in proptest::collection::vec((0u64..64, value_strategy()), 1..48)) {
        // Deduplicate keys (tables reject duplicates).
        let mut seen = HashSet::new();
        let entries: Vec<(u64, Value)> = entries
            .into_iter()
            .filter(|(k, _)| seen.insert(*k))
            .collect();
        let build = |values: &[(u64, Value)]| {
            let table = TableBuilder::new("t")
                .extend(values.iter().cloned())
                .build()
                .unwrap();
            StateStore::new(vec![table]).unwrap()
        };
        let source = build(&entries);
        let snapshot = StoreSnapshot::capture(&source);
        let decoded = StoreSnapshot::decode(&snapshot.encode()).unwrap();
        prop_assert_eq!(&decoded, &snapshot);

        // Restore onto a store with the same keys but zeroed values.
        let blank: Vec<(u64, Value)> = entries.iter().map(|(k, _)| (*k, Value::Null)).collect();
        let target = build(&blank);
        decoded.restore(&target).unwrap();
        prop_assert_eq!(target.snapshot(), source.snapshot());
    }

    /// Key-based partitioning of the conventional pipeline is total and
    /// stable: every segment maps to exactly one executor, always the same.
    #[test]
    fn conventional_partitioning_is_stable(segments in proptest::collection::vec(any::<u64>(), 1..200),
                                           executors in 1usize..16) {
        for &segment in &segments {
            let owner = conventional::owner_of(segment, executors);
            prop_assert!(owner < executors);
            prop_assert_eq!(owner, conventional::owner_of(segment, executors));
        }
    }

    /// Read/write set classification: writes dominate reads for duplicate
    /// entries, and `touched` is the sorted union.
    #[test]
    fn read_write_set_classification(entries in proptest::collection::vec((0u32..3, 0u64..50, any::<bool>()), 0..40)) {
        let mut set = ReadWriteSet::new();
        for &(table, key, write) in &entries {
            set.push(
                StateRef::new(table, key),
                if write { AccessMode::Write } else { AccessMode::Read },
            );
        }
        let touched = set.touched();
        let mut expected: Vec<StateRef> = entries
            .iter()
            .map(|&(t, k, _)| StateRef::new(t, k))
            .collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(touched, expected);
        for state in set.write_set() {
            prop_assert!(entries.iter().any(|&(t, k, w)| w && StateRef::new(t, k) == state));
        }
    }
}

/// States the filing property files under; dependencies may also name the
/// keys from here up to [`FILING_KEYS`], which never get a chain of their own.
const FILED_KEYS: u64 = 40;
/// Keys of the filing property's store.
const FILING_KEYS: u64 = 48;

/// One generated access: target key, kind (0 reads, 1 modifies, 2 modifies
/// depending on the third field) and a dependency key.
type Access = (u64, u8, u64);

/// The operations of the generated transactions (distinct timestamps, one to
/// four accesses each; a transaction may touch a state twice).
fn filing_ops(txns: &[(u64, Vec<Access>)]) -> Vec<Operation> {
    let mut seen = HashSet::new();
    let mut ops = Vec::new();
    for (ts, accesses) in txns.iter().filter(|(ts, _)| seen.insert(*ts)) {
        let mut txn = TxnBuilder::new(*ts);
        for &(key, kind, dep) in accesses {
            if kind == 0 {
                txn.read(0, key);
            } else {
                let dep = (kind == 2).then_some(StateRef::new(0, dep));
                txn.read_modify(0, key, dep, |ctx| {
                    Ok(Value::Long(ctx.current.as_long()?.wrapping_add(1)))
                });
            }
        }
        ops.extend(txn.build().0.ops);
    }
    ops
}

/// File `ops` from `threads` threads released together, freeze, and check
/// the frozen chains against the model built from `ops` alone; then evaluate
/// the batch and clear the pools.
fn file_freeze_and_check(
    pools: &ChainPoolSet,
    store: &StateStore,
    ops: Vec<Operation>,
    threads: usize,
) {
    let mut model: BTreeMap<StateRef, Vec<(u64, u32)>> = BTreeMap::new();
    let mut depended_upon = BTreeSet::new();
    let mut dependent = BTreeSet::new();
    for op in &ops {
        model
            .entry(op.target)
            .or_default()
            .push((op.ts, op.op_index));
        if let Some(dep) = op.dependency {
            depended_upon.insert(dep);
            dependent.insert(op.target);
        }
    }
    model.values_mut().for_each(|keys| keys.sort_unstable());
    let total = ops.len();

    let mut shares: Vec<Vec<Operation>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, op) in ops.into_iter().enumerate() {
        shares[i % threads].push(op);
    }
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        for share in shares {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for op in share {
                    pools.chain_for_op(&op).insert(op);
                }
            });
        }
    });

    let mut frozen_model = BTreeMap::new();
    for pool in pools.pools() {
        pool.for_each_chain(|chain| {
            let keys: Vec<(u64, u32)> = chain.iter().map(|op| (op.ts, op.op_index)).collect();
            assert!(chain.iter().all(|op| op.target == chain.state()));
            assert_eq!(
                chain.is_depended_upon(),
                depended_upon.contains(&chain.state())
            );
            assert_eq!(chain.has_dependencies(), dependent.contains(&chain.state()));
            assert!(
                frozen_model.insert(chain.state(), keys).is_none(),
                "one chain per state"
            );
        });
    }
    assert_eq!(frozen_model, model);
    let frozen = pools.freeze();
    for key in 0..FILING_KEYS {
        let state = StateRef::new(0, key);
        let found = pools.find_chain(&frozen, state).map(|chain| chain.len());
        assert_eq!(found, model.get(&state).map(Vec::len), "{state:?}");
    }
    drop(frozen);

    // Filing into the frozen batch fails loudly and leaves it untouched.
    let late = filing_ops(&[(u64::MAX, vec![(0, 1, 0)])]).remove(0);
    let slot = pools.chain_for_op(&late);
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.insert(late)));
    assert!(refused.is_err(), "insert after the freeze must panic");
    assert_eq!(pools.total_chains(), model.len());

    // A dependency on a state with no chain blocks nothing and leaves
    // nothing to collapse: evaluation terminates and versions exactly the
    // depended-upon states that have a chain.
    let abort_log = BatchAbortLog::new();
    let ctx = RestructureContext {
        pools,
        store,
        env: ExecEnv::single(),
        resolution: DependencyResolution::FineGrained,
        work_stealing: false,
        classify_remote: false,
        single_executor: true,
        abort_log: &abort_log,
    };
    let (stats, versioned) =
        restructure::process_assigned(&ctx, pools.assignment(ExecutorId(0)), &mut Breakdown::new());
    assert_eq!(stats.chains, model.len());
    assert_eq!(stats.ops + stats.skipped, total);
    let with_chain = depended_upon
        .iter()
        .filter(|dep| model.contains_key(dep))
        .count();
    assert_eq!(versioned.len(), with_chain);
    restructure::collapse_versioned(store, &versioned);

    pools.clear_all();
    assert_eq!(pools.total_chains(), 0);
    pools.clear_all();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat filing against a model: whatever the thread count, interleaving
    /// and timestamp order of the inserts, the freeze yields exactly one
    /// chain per state holding that state's operations in `(ts, op_index)`
    /// order — on a fresh pool set and again after `clear_all`.
    #[test]
    fn filing_freezes_into_the_model(
        txns in proptest::collection::vec(
            (0u64..2_000, proptest::collection::vec(
                (0..FILED_KEYS, 0u8..3, 0..FILING_KEYS), 1..5)),
            1..120,
        ),
        threads in 1usize..5,
    ) {
        let store = affine_store(FILING_KEYS);
        let pools = ChainPoolSet::new(ChainPlacement::SharedNothing, ExecutorLayout::new(1, 10), 1);
        let ops = filing_ops(&txns);
        let again: Vec<Operation> = ops.iter().rev().step_by(2).cloned().collect();
        file_freeze_and_check(&pools, &store, ops, threads);
        file_freeze_and_check(&pools, &store, again, threads);
    }
}

/// A tiny order-sensitive application for the randomized schedule test: each
/// event applies `value = value * a + b` to one of a few hot keys.
#[derive(Clone)]
struct AffineEvent {
    key: u64,
    a: i64,
    b: i64,
}

struct AffineApp;

impl Application for AffineApp {
    type Payload = AffineEvent;

    fn name(&self) -> &'static str {
        "affine"
    }

    fn read_write_set(&self, e: &AffineEvent) -> ReadWriteSet {
        ReadWriteSet::new().write(StateRef::new(0, e.key))
    }

    fn state_access(&self, e: &AffineEvent, txn: &mut TxnBuilder) {
        let (a, b) = (e.a, e.b);
        txn.read_modify(0, e.key, None, move |ctx| {
            Ok(Value::Long(
                ctx.current.as_long()?.wrapping_mul(a).wrapping_add(b),
            ))
        });
    }

    fn post_process(&self, _e: &AffineEvent, _b: &EventBlotter) -> PostAction {
        PostAction::Emit
    }
}

fn affine_store(keys: u64) -> Arc<StateStore> {
    let t = TableBuilder::new("t")
        .extend((0..keys).map(|k| (k, Value::Long(1))))
        .build()
        .unwrap();
    StateStore::new(vec![t]).unwrap()
}

/// A multi-write application for the abort-replay property test: each event
/// adds a delta to several keys, and the whole transaction aborts if any key
/// would go negative.  Whether an event commits therefore depends on the
/// state produced by all earlier events — the serial fold below is the ground
/// truth TStream must reproduce even though its chains are processed in
/// parallel and aborted transactions must be rolled back across chains.
#[derive(Clone)]
struct MultiAddEvent {
    adds: Vec<(u64, i64)>,
}

struct MultiAddApp;

impl Application for MultiAddApp {
    type Payload = MultiAddEvent;

    fn name(&self) -> &'static str {
        "multi-add"
    }

    fn read_write_set(&self, e: &MultiAddEvent) -> ReadWriteSet {
        let mut set = ReadWriteSet::new();
        for &(key, _) in &e.adds {
            set.push(StateRef::new(0, key), AccessMode::Write);
        }
        set
    }

    fn state_access(&self, e: &MultiAddEvent, txn: &mut TxnBuilder) {
        for &(key, delta) in &e.adds {
            txn.read_modify(0, key, None, move |ctx| {
                let next = ctx.current.as_long()? + delta;
                if next < 0 {
                    Err(tstream_state::StateError::ConsistencyViolation(
                        "balance would go negative".into(),
                    ))
                } else {
                    Ok(Value::Long(next))
                }
            });
        }
    }

    fn post_process(&self, _e: &MultiAddEvent, _b: &EventBlotter) -> PostAction {
        PostAction::Emit
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TStream's restructured, parallel execution of randomly generated
    /// order-sensitive transactions matches the serial fold, for arbitrary
    /// event sequences, key counts and punctuation intervals.
    #[test]
    fn tstream_schedule_matches_serial_fold(
        events in proptest::collection::vec((0u64..4, 1i64..5, -10i64..10), 1..300),
        interval in 1usize..64,
        executors in 1usize..6,
    ) {
        let keys = 4u64;
        let payloads: Vec<AffineEvent> = events
            .iter()
            .map(|&(key, a, b)| AffineEvent { key, a, b })
            .collect();

        // Serial reference.
        let mut expected = vec![1i64; keys as usize];
        for e in &payloads {
            let v = &mut expected[e.key as usize];
            *v = v.wrapping_mul(e.a).wrapping_add(e.b);
        }

        let store = affine_store(keys);
        let engine = Engine::new(EngineConfig::with_executors(executors).punctuation(interval));
        let report = engine.run(&Arc::new(AffineApp), &store, payloads, &Scheme::TStream);
        prop_assert_eq!(report.rejected, 0);
        for k in 0..keys {
            let got = store.record(TableId(0), k).unwrap().read_committed().as_long().unwrap();
            prop_assert_eq!(got, expected[k as usize], "key {}", k);
        }
    }

    /// Multi-write transactions with state-dependent aborts: TStream's final
    /// state and commit/abort counts match the serial fold for arbitrary
    /// event sequences, even though aborted transactions must be rolled back
    /// across operation chains (Section IV-F).
    #[test]
    fn tstream_multi_write_aborts_match_serial_fold(
        events in proptest::collection::vec(
            proptest::collection::vec((0u64..4, -6i64..8), 1..4),
            1..120,
        ),
        interval in 1usize..48,
        executors in 1usize..6,
    ) {
        let keys = 4u64;
        let payloads: Vec<MultiAddEvent> = events
            .iter()
            .map(|adds| MultiAddEvent { adds: adds.clone() })
            .collect();

        // Serial reference: apply each event atomically, skipping events that
        // would drive any touched key negative at its position in the order.
        let mut expected = vec![3i64; keys as usize];
        let mut expected_rejects = 0u64;
        for e in &payloads {
            let mut tentative = expected.clone();
            let mut ok = true;
            for &(key, delta) in &e.adds {
                let slot = &mut tentative[key as usize];
                *slot += delta;
                if *slot < 0 {
                    ok = false;
                    break;
                }
            }
            if ok {
                expected = tentative;
            } else {
                expected_rejects += 1;
            }
        }

        let table = TableBuilder::new("t")
            .extend((0..keys).map(|k| (k, Value::Long(3))))
            .build()
            .unwrap();
        let store = StateStore::new(vec![table]).unwrap();
        let engine = Engine::new(EngineConfig::with_executors(executors).punctuation(interval));
        let report = engine.run(&Arc::new(MultiAddApp), &store, payloads, &Scheme::TStream);
        prop_assert_eq!(report.rejected, expected_rejects);
        for k in 0..keys {
            let got = store.record(TableId(0), k).unwrap().read_committed().as_long().unwrap();
            prop_assert_eq!(got, expected[k as usize], "key {}", k);
        }
    }
}
