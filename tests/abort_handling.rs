//! Abort / failure-injection tests.
//!
//! Section IV-C.2 ("Handling Transaction Abort") promises that application
//! semantics do not change across schemes: whether a transaction commits or
//! is rejected depends only on the application's consistency checks evaluated
//! at the transaction's position in the timestamp order, never on *how* the
//! scheme executes or aborts it.  These tests inject aborts through the real
//! benchmark applications (scarce bidding inventory, scarce ledger balances,
//! invalid updates) and verify that every consistency-preserving scheme makes
//! identical commit/abort decisions, leaves no partial effects behind, and
//! reports rejected events on the output stream.

use std::sync::Arc;

use tstream_apps::workload::WorkloadSpec;
use tstream_apps::{gs, ob, sl, AppKind, RunOptions, SchemeKind};
use tstream_core::{Engine, EngineConfig, Scheme};
use tstream_state::{StateStore, StoreSnapshot, TableBuilder, TableId, Value};

/// OB store with only `qty` units of every item, so bids quickly exhaust the
/// inventory and later bids must be rejected.
fn scarce_ob_store(keys: u64, qty: i64) -> Arc<StateStore> {
    let items = TableBuilder::new("items")
        .extend((0..keys).map(|k| (k, Value::Pair(ob::INITIAL_PRICE, qty))))
        .build()
        .unwrap();
    StateStore::new(vec![items]).unwrap()
}

/// SL store with only `balance` per account/asset, so transfers quickly
/// drain the sources and later transfers must be rejected.
fn scarce_sl_store(keys: u64, balance: i64) -> Arc<StateStore> {
    let accounts = TableBuilder::new("accounts")
        .extend((0..keys).map(|k| (k, Value::Long(balance))))
        .build()
        .unwrap();
    let assets = TableBuilder::new("assets")
        .extend((0..keys).map(|k| (k, Value::Long(balance))))
        .build()
        .unwrap();
    StateStore::new(vec![accounts, assets]).unwrap()
}

#[test]
fn scarce_inventory_bids_abort_identically_under_every_scheme() {
    // 16 items with 5 units each and thousands of bids: most bids must be
    // rejected, and *which* ones are rejected is fully determined by the
    // timestamp order, so every scheme agrees on the counts and final state.
    let spec = WorkloadSpec::default().events(2_000).keys(16).seed(71);
    let events = ob::generate(&spec);
    let app = Arc::new(ob::OnlineBidding);

    let reference_store = scarce_ob_store(spec.keys, 5);
    let reference_report = Engine::new(EngineConfig::with_executors(1).punctuation(200)).run(
        &app,
        &reference_store,
        events.clone(),
        &Scheme::TStream,
    );
    assert!(
        reference_report.rejected > 0,
        "the scarce workload must actually produce aborts"
    );
    assert!(reference_report.committed > 0);

    for scheme in SchemeKind::CONSISTENT {
        let store = scarce_ob_store(spec.keys, 5);
        let engine = Engine::new(EngineConfig::with_executors(6).punctuation(200));
        let report = engine.run(&app, &store, events.clone(), &scheme.build(4));
        assert_eq!(
            report.committed,
            reference_report.committed,
            "{} commits differ",
            scheme.label()
        );
        assert_eq!(
            report.rejected,
            reference_report.rejected,
            "{} rejects differ",
            scheme.label()
        );
        assert_eq!(
            store.snapshot(),
            reference_store.snapshot(),
            "{} final state differs",
            scheme.label()
        );
    }
}

#[test]
fn scarce_balances_conserve_money_under_aborting_transfers() {
    let spec = WorkloadSpec::default().events(1_500).keys(32).seed(72);
    let events = sl::generate(&spec);
    let app = Arc::new(sl::StreamingLedger);

    // Deposits add money; transfers only move it.  Regardless of how many
    // transfers abort, the closing balance must equal the opening balance
    // plus exactly the committed deposits — any partial transfer effect
    // would break this equation.
    let deposit_total: i64 = events
        .iter()
        .map(|e| match e {
            sl::SlEvent::Deposit { amount, .. } => 2 * amount, // account + asset
            sl::SlEvent::Transfer { .. } => 0,
        })
        .sum();

    for scheme in SchemeKind::CONSISTENT {
        let store = scarce_sl_store(spec.keys, 50);
        let opening = sl::total_balance(&store);
        let engine = Engine::new(EngineConfig::with_executors(5).punctuation(150));
        let report = engine.run(&app, &store, events.clone(), &scheme.build(4));
        assert!(
            report.rejected > 0,
            "{}: scarce balances must reject some transfers",
            scheme.label()
        );
        assert_eq!(
            sl::total_balance(&store),
            opening + deposit_total,
            "{}: money was created or destroyed by aborted transfers",
            scheme.label()
        );
    }
}

#[test]
fn multi_write_abort_rolls_back_every_operation_chain() {
    // An Alter request with one invalid price (<= 0) in the middle must abort
    // as a whole: none of its 20 item prices may change, even though its
    // operations live in 20 different operation chains under TStream
    // (the "high overhead when aborting multi-write transactions" limitation
    // of Section IV-F — expensive, but still correct).
    let spec = WorkloadSpec::default().events(1).keys(64).seed(73);
    let app = Arc::new(ob::OnlineBidding);
    let items: Vec<u64> = (0..20u64).collect();
    let mut prices: Vec<i64> = (0..20).map(|i| 200 + i as i64).collect();
    prices[13] = -5; // the poisoned update

    let poisoned = vec![ob::ObEvent::Alter {
        items: items.clone(),
        prices,
    }];

    for scheme in SchemeKind::CONSISTENT {
        let store = ob::build_store(&spec);
        let before = store.snapshot();
        let engine = Engine::new(EngineConfig::with_executors(4).punctuation(10));
        let report = engine.run(&app, &store, poisoned.clone(), &scheme.build(4));
        assert_eq!(report.committed, 0, "{}", scheme.label());
        assert_eq!(report.rejected, 1, "{}", scheme.label());
        assert_eq!(
            store.snapshot(),
            before,
            "{}: an aborted multi-write transaction left partial effects",
            scheme.label()
        );
    }
}

#[test]
fn multi_write_abort_spanning_two_shards_restores_both_shards() {
    // A poisoned Alter whose 20 writes physically span both shards of a
    // 2-shard store: under TStream its operations live in chains routed to
    // different shard-affine pools (possibly processed by different
    // executors), so the abort triggers the serial batch replay.  The replay
    // must restore the exact pre-batch state on *both* shards, verified
    // shard by shard through the store's own per-shard snapshots.
    let spec = WorkloadSpec::default()
        .events(1)
        .keys(64)
        .seed(78)
        .shards(2);
    let app = Arc::new(ob::OnlineBidding);
    let store = ob::build_store(&spec);
    assert_eq!(store.num_shards(), 2);

    let items: Vec<u64> = (0..20u64).collect();
    let mut prices: Vec<i64> = (0..20).map(|i| 300 + i as i64).collect();
    prices[11] = -9; // the poisoned update

    // The transaction must really be a cross-shard one.
    let mut shards_touched: Vec<u32> = items.iter().map(|&k| store.shard_of(k).0).collect();
    shards_touched.sort_unstable();
    shards_touched.dedup();
    assert_eq!(
        shards_touched,
        vec![0, 1],
        "the poisoned Alter must write to both shards"
    );

    let before_shard0 = store.snapshot_shard(tstream_state::ShardId(0));
    let before_shard1 = store.snapshot_shard(tstream_state::ShardId(1));

    let poisoned = vec![ob::ObEvent::Alter { items, prices }];
    let engine = Engine::new(EngineConfig::with_executors(4).punctuation(10).shards(2));
    let report = engine.run(&app, &store, poisoned, &Scheme::TStream);
    assert_eq!(report.committed, 0);
    assert_eq!(report.rejected, 1);

    assert_eq!(
        store.snapshot_shard(tstream_state::ShardId(0)),
        before_shard0,
        "shard 0 must be restored to its pre-batch state"
    );
    assert_eq!(
        store.snapshot_shard(tstream_state::ShardId(1)),
        before_shard1,
        "shard 1 must be restored to its pre-batch state"
    );
}

#[test]
fn missing_key_in_a_multi_write_transaction_rejects_identically_on_every_path() {
    // An Alter naming an item that does not exist must abort as a whole,
    // whichever way TStream executes the batch: restructured into chains (the
    // second Alter shares item 0 with it) or on the conflict-free fast path
    // (the second Alter shares nothing).  Serial No-Lock is the reference.
    let spec = WorkloadSpec::default().keys(64).seed(79);
    let app = Arc::new(ob::OnlineBidding);
    let run = |engine: EngineConfig, scheme: &Scheme, events: Vec<ob::ObEvent>, offline| {
        let store = ob::build_store(&spec);
        let engine = Engine::new(engine.punctuation(10));
        let report = if offline {
            engine.run_offline(&app, &store, events, scheme)
        } else {
            engine.run(&app, &store, events, scheme)
        };
        (report, StoreSnapshot::capture(&store))
    };

    for (second_items, conflict_free) in [(vec![0u64, 3], false), (vec![4u64, 3], true)] {
        let events = vec![
            ob::ObEvent::Alter {
                items: vec![0, 1, 9_999_999, 2],
                prices: vec![210, 211, 212, 213],
            },
            ob::ObEvent::Alter {
                items: second_items,
                prices: vec![220, 221],
            },
        ];
        let (reference, reference_snapshot) = run(
            EngineConfig::with_executors(1),
            &SchemeKind::NoLock.build(1),
            events.clone(),
            true,
        );
        assert_eq!((reference.committed, reference.rejected), (1, 1));

        for executors in [1usize, 2] {
            let (report, snapshot) = run(
                EngineConfig::with_executors(executors),
                &Scheme::TStream,
                events.clone(),
                false,
            );
            let ctx = format!("{executors} executors, conflict-free: {conflict_free}");
            assert_eq!(report.fast_path_batches > 0, conflict_free, "{ctx}");
            assert_eq!(report.committed, reference.committed, "committed: {ctx}");
            assert_eq!(report.rejected, reference.rejected, "rejected: {ctx}");
            assert_eq!(snapshot, reference_snapshot, "snapshot: {ctx}");
        }
    }
}

#[test]
fn lone_and_filed_aborts_in_one_batch_match_serial_execution() {
    // One batch mixes transactions alone in it, which TStream runs directly,
    // with filed ones whose multi-write abort triggers the closure replay.
    // The replay must neither reach nor disturb the direct runs: store and
    // outcomes equal serial No-Lock.
    let alter = |items: Vec<u64>, prices: Vec<i64>| ob::ObEvent::Alter { items, prices };
    let events = vec![
        // Alone, aborts at its second write after applying its first.
        alter(vec![40, 41, 42], vec![300, -1, 302]),
        // Filed: shares items 0 and 2 below, aborts after applying item 0.
        alter(vec![0, 1, 2], vec![210, -1, 212]),
        // Alone, commits.
        alter(vec![50, 51], vec![310, 311]),
        // Filed, reads the aborted write's items: re-executed by the replay.
        alter(vec![0, 3], vec![220, 221]),
        ob::ObEvent::Bid {
            item: 2,
            price: 1_000,
            qty: 1,
        },
        // Alone, commits after the filed abort.
        ob::ObEvent::Top {
            items: vec![60],
            amounts: vec![5],
        },
    ];
    let app = Arc::new(ob::OnlineBidding);
    for shards in [1u32, 4] {
        let spec = WorkloadSpec::default().keys(64).seed(80).shards(shards);
        let run = |executors: usize, scheme: &Scheme| {
            let store = ob::build_store(&spec);
            let engine = Engine::new(
                EngineConfig::with_executors(executors)
                    .punctuation(events.len())
                    .shards(shards as usize),
            );
            let report = engine.run(&app, &store, events.clone(), scheme);
            let replays = engine.metrics_snapshot().exec_serial_replays;
            (report, replays, StoreSnapshot::capture(&store))
        };
        let (reference, _, reference_snapshot) = run(1, &SchemeKind::NoLock.build(1));
        assert_eq!((reference.committed, reference.rejected), (4, 2));

        for executors in [1usize, 2] {
            let (report, replays, snapshot) = run(executors, &Scheme::TStream);
            let ctx = format!("{executors} executors, {shards} shards");
            assert_eq!(report.direct_ops, 3 + 2 + 1, "direct runs: {ctx}");
            assert_eq!(report.fast_path_batches, 0, "{ctx}");
            assert_eq!(replays, 1, "closure replays: {ctx}");
            assert_eq!(report.committed, reference.committed, "committed: {ctx}");
            assert_eq!(report.rejected, reference.rejected, "rejected: {ctx}");
            assert_eq!(snapshot, reference_snapshot, "snapshot: {ctx}");
        }
    }
}

#[test]
fn aborted_transaction_does_not_block_later_transactions_on_the_same_keys() {
    // A rejected Alter is followed by a valid Alter touching the same items;
    // the later transaction must commit and its values must be the final
    // state under every scheme (locks released, chains skipped, versions
    // discarded).
    let app = Arc::new(ob::OnlineBidding);
    let spec = WorkloadSpec::default().keys(16).seed(74);
    let items: Vec<u64> = (0..10u64).collect();
    let bad_prices: Vec<i64> = vec![-1; 10];
    let good_prices: Vec<i64> = (0..10).map(|i| 500 + i as i64).collect();
    let events = vec![
        ob::ObEvent::Alter {
            items: items.clone(),
            prices: bad_prices,
        },
        ob::ObEvent::Alter {
            items: items.clone(),
            prices: good_prices.clone(),
        },
    ];

    for scheme in SchemeKind::CONSISTENT {
        let store = ob::build_store(&spec);
        let engine = Engine::new(EngineConfig::with_executors(2).punctuation(2));
        let report = engine.run(&app, &store, events.clone(), &scheme.build(4));
        assert_eq!(report.committed, 1, "{}", scheme.label());
        assert_eq!(report.rejected, 1, "{}", scheme.label());
        for (i, &item) in items.iter().enumerate() {
            let (price, _) = store
                .record(TableId(ob::ITEM_TABLE), item)
                .unwrap()
                .read_committed()
                .as_pair()
                .unwrap();
            assert_eq!(price, good_prices[i], "{} item {item}", scheme.label());
        }
    }
}

#[test]
fn gs_negative_writes_abort_and_leave_prior_values() {
    // A GS write transaction with a negative value in the middle of its ten
    // writes must abort completely.
    let spec = WorkloadSpec::default().keys(100).seed(75);
    let app = Arc::new(gs::GrepSum::default());
    let keys: Vec<u64> = (0..10u64).collect();
    let mut writes: Vec<i64> = (0..10).map(|i| 1_000 + i as i64).collect();
    writes[7] = -1;
    let events = vec![gs::GsEvent {
        keys: keys.clone(),
        writes: Some(writes),
    }];

    for scheme in SchemeKind::CONSISTENT {
        let store = gs::build_store(&spec);
        let before = store.snapshot();
        let engine = Engine::new(EngineConfig::with_executors(3).punctuation(5));
        let report = engine.run(&app, &store, events.clone(), &scheme.build(4));
        assert_eq!(report.rejected, 1, "{}", scheme.label());
        assert_eq!(store.snapshot(), before, "{}", scheme.label());
    }
}

#[test]
fn rejected_ratio_is_stable_across_executor_counts() {
    // The commit/abort decision depends only on the timestamp order, so the
    // number of rejected events must not change with the degree of
    // parallelism.
    let spec = WorkloadSpec::default().events(1_200).keys(8).seed(76);
    let events = ob::generate(&spec);
    let app = Arc::new(ob::OnlineBidding);
    let mut reference = None;
    for executors in [1usize, 2, 4, 8] {
        let store = scarce_ob_store(spec.keys, 25);
        let engine = Engine::new(EngineConfig::with_executors(executors).punctuation(300));
        let report = engine.run(&app, &store, events.clone(), &Scheme::TStream);
        match reference {
            None => reference = Some((report.committed, report.rejected)),
            Some(expected) => assert_eq!(
                (report.committed, report.rejected),
                expected,
                "{executors} executors changed the abort decisions"
            ),
        }
    }
}

#[test]
fn abort_heavy_runs_still_report_latency_for_committed_events() {
    let mut options = RunOptions::default();
    options.spec = options.spec.events(800).keys(8).seed(77);
    options.engine = EngineConfig::with_executors(4).punctuation(200);
    // The stock OB store is plentiful, so use the runner as a smoke test and
    // the scarce store through the engine for the abort-heavy variant.
    let plentiful = tstream_apps::runner::run_benchmark(AppKind::Ob, SchemeKind::TStream, &options);
    assert_eq!(plentiful.committed + plentiful.rejected, 800);

    let spec = options.spec;
    let events = ob::generate(&spec);
    let app = Arc::new(ob::OnlineBidding);
    let store = scarce_ob_store(spec.keys, 3);
    let engine = Engine::new(options.engine);
    let report = engine.run(&app, &store, events, &Scheme::TStream);
    assert!(report.rejected > 0);
    assert_eq!(
        report.latency.samples() as u64,
        report.committed,
        "only committed events contribute latency samples"
    );
}
