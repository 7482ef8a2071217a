//! Cross-scheme differential tests for the sharded state store.
//!
//! Sharding is a *physical* layout choice: hash-partitioning the records,
//! routing chains shard-affine and even routing events by key-partition must
//! never change what a run computes — only where it computes it.  These tests
//! pin that down end to end: for identical seeded workloads, TStream running
//! on 1 / 2 / 4 / 8 shards (and whatever extra count `TSTREAM_TEST_SHARDS`
//! names) must produce a final state byte-identical to a **serial No-Lock
//! run** — one executor, single batch, per-transaction rollback — which is
//! the definition of the correct timestamp-order schedule.  Store snapshots
//! are key-sorted, so layouts with different physical record orders compare
//! directly.

use std::collections::HashMap;
use std::sync::Arc;

use tstream_apps::workload::WorkloadSpec;
use tstream_apps::{gs, ob, sl, tp, AppKind, SchemeKind};
use tstream_core::{Engine, EngineConfig, EventRouting, Scheme};
use tstream_state::Value;

/// Shard counts exercised by every differential test.  The CI matrix sets
/// `TSTREAM_TEST_SHARDS` to force an extra (or repeated) count, so the
/// sharded path is exercised even if the default list ever changes.
fn shard_counts() -> Vec<u32> {
    let mut counts = vec![1, 2, 4, 8];
    if let Ok(extra) = std::env::var("TSTREAM_TEST_SHARDS") {
        if let Ok(n) = extra.trim().parse::<u32>() {
            if n >= 1 && !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

/// Run `app` under `scheme` with the given spec/engine and return the final
/// (key-sorted) store snapshot.
fn snapshot_after(
    app: AppKind,
    scheme: &Scheme,
    spec: &WorkloadSpec,
    engine: EngineConfig,
) -> Vec<(String, u64, Value)> {
    let engine = Engine::new(engine);
    match app {
        AppKind::Gs => {
            let store = gs::build_store(spec);
            let _ = engine.run(
                &Arc::new(gs::GrepSum::default()),
                &store,
                gs::generate(spec),
                scheme,
            );
            store.snapshot()
        }
        AppKind::Sl => {
            let store = sl::build_store(spec);
            let _ = engine.run(
                &Arc::new(sl::StreamingLedger),
                &store,
                sl::generate(spec),
                scheme,
            );
            store.snapshot()
        }
        AppKind::Ob => {
            let store = ob::build_store(spec);
            let _ = engine.run(
                &Arc::new(ob::OnlineBidding),
                &store,
                ob::generate(spec),
                scheme,
            );
            store.snapshot()
        }
        AppKind::Tp => {
            let store = tp::build_store(spec);
            let _ = engine.run(
                &Arc::new(tp::TollProcessing),
                &store,
                tp::generate(spec),
                scheme,
            );
            store.snapshot()
        }
    }
}

/// The serial reference: one executor, one shard, a single batch, No-Lock —
/// i.e. plain sequential execution in timestamp order with per-transaction
/// rollback.
fn serial_nolock_reference(app: AppKind, spec: &WorkloadSpec) -> Vec<(String, u64, Value)> {
    let serial_spec = spec.shards(1);
    let engine = EngineConfig::with_executors(1)
        .punctuation(serial_spec.events.max(1))
        .shards(1);
    snapshot_after(app, &SchemeKind::NoLock.build(1), &serial_spec, engine)
}

fn assert_sharded_tstream_matches_serial(app: AppKind, seed: u64) {
    let spec = WorkloadSpec::default().events(1_000).seed(seed);
    let reference = serial_nolock_reference(app, &spec);
    for shards in shard_counts() {
        let sharded_spec = spec.shards(shards);
        let engine = EngineConfig::with_executors(4)
            .punctuation(125)
            .shards(shards as usize);
        let got = snapshot_after(app, &Scheme::TStream, &sharded_spec, engine);
        assert_eq!(
            got,
            reference,
            "{}: TStream on {shards} shards diverged from the serial No-Lock run",
            app.label()
        );
    }
}

#[test]
fn gs_tstream_matches_serial_nolock_on_every_shard_count() {
    assert_sharded_tstream_matches_serial(AppKind::Gs, 0xA1);
}

#[test]
fn sl_tstream_matches_serial_nolock_on_every_shard_count() {
    assert_sharded_tstream_matches_serial(AppKind::Sl, 0xA2);
}

#[test]
fn ob_tstream_matches_serial_nolock_on_every_shard_count() {
    assert_sharded_tstream_matches_serial(AppKind::Ob, 0xA3);
}

#[test]
fn tp_tstream_matches_serial_nolock_on_every_shard_count() {
    assert_sharded_tstream_matches_serial(AppKind::Tp, 0xA4);
}

#[test]
fn every_consistent_scheme_matches_the_serial_reference_on_a_sharded_store() {
    // Cross-scheme: LOCK / MVLK / PAT / TStream all run against the same
    // 4-shard store and must agree with the serial No-Lock reference.
    let spec = WorkloadSpec::default().events(800).seed(0xB1);
    let reference = serial_nolock_reference(AppKind::Sl, &spec);
    let sharded_spec = spec.shards(4);
    for scheme in SchemeKind::CONSISTENT {
        let engine = EngineConfig::with_executors(4).punctuation(100).shards(4);
        let got = snapshot_after(
            AppKind::Sl,
            &scheme.build(sharded_spec.partitions),
            &sharded_spec,
            engine,
        );
        assert_eq!(
            got,
            reference,
            "{} on a 4-shard store diverged from the serial No-Lock run",
            scheme.label()
        );
    }
}

#[test]
fn shard_affine_event_routing_does_not_change_results() {
    // Routing events to the owners of their key shards changes *where* work
    // happens, never *what* is computed.
    let spec = WorkloadSpec::default().events(900).seed(0xC1);
    let reference = serial_nolock_reference(AppKind::Gs, &spec);
    for shards in shard_counts() {
        let sharded_spec = spec.shards(shards);
        let engine = EngineConfig::with_executors(4)
            .punctuation(150)
            .shards(shards as usize)
            .event_routing(EventRouting::ShardAffine);
        let got = snapshot_after(AppKind::Gs, &Scheme::TStream, &sharded_spec, engine);
        assert_eq!(
            got, reference,
            "shard-affine routing on {shards} shards diverged from the serial run"
        );
    }
}

#[test]
fn per_shard_chain_counts_cover_every_chain() {
    // The engine's per-shard placement report must account for real routing:
    // one entry per shard, every shard of a multi-shard GS run non-empty, and
    // the counts must agree with an independent recomputation from the
    // store's own router.
    let shards = 4u32;
    let spec = WorkloadSpec::default()
        .events(1_000)
        .seed(0xD1)
        .shards(shards);
    let store = gs::build_store(&spec);
    assert_eq!(store.num_shards(), shards);
    let engine = Engine::new(
        EngineConfig::with_executors(2)
            .punctuation(250)
            .shards(shards as usize),
    );
    let report = engine.run(
        &Arc::new(gs::GrepSum::default()),
        &store,
        gs::generate(&spec),
        &Scheme::TStream,
    );
    assert_eq!(report.per_shard_chains.len(), shards as usize);
    assert!(
        report.per_shard_chains.iter().all(|&c| c > 0),
        "every shard must receive chains: {:?}",
        report.per_shard_chains
    );

    // Independent recomputation: route every filed key through the store's
    // router and count distinct (table, key) states per (batch, shard).  A
    // transaction is filed only when it shares a key with another event of
    // its batch (GS keys are distinct within an event); the others run
    // directly and build no chain.
    let router = store.router();
    let mut expected = vec![0u64; shards as usize];
    let events = gs::generate(&spec);
    for batch in events.chunks(250) {
        let mut touches: HashMap<u64, u32> = HashMap::new();
        for &key in batch.iter().flat_map(|e| &e.keys) {
            *touches.entry(key).or_default() += 1;
        }
        let mut states: Vec<u64> = batch
            .iter()
            .filter(|e| e.keys.iter().any(|key| touches[key] > 1))
            .flat_map(|e| e.keys.clone())
            .collect();
        states.sort_unstable();
        states.dedup();
        for key in states {
            expected[router.shard_of(key).index()] += 1;
        }
    }
    assert_eq!(report.per_shard_chains, expected);
}

#[test]
fn eager_schemes_report_zero_chain_placement() {
    let spec = WorkloadSpec::default().events(300).seed(0xE1).shards(2);
    let store = gs::build_store(&spec);
    let engine = Engine::new(EngineConfig::with_executors(2).punctuation(100).shards(2));
    let report = engine.run(
        &Arc::new(gs::GrepSum::default()),
        &store,
        gs::generate(&spec),
        &SchemeKind::Lock.build(2),
    );
    assert_eq!(report.per_shard_chains, vec![0, 0]);
}
