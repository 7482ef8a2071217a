//! Engine-level integration tests: dual-mode scheduling behaviour,
//! punctuation intervals, NUMA-aware placements, breakdown accounting and
//! report plumbing, exercised through the public API only.

use std::sync::Arc;

use tstream_apps::workload::WorkloadSpec;
use tstream_apps::{gs, runner, tp, AppKind, RunOptions, SchemeKind};
use tstream_core::{ChainPlacement, Engine, EngineConfig, Scheme};
use tstream_txn::NumaModel;

#[test]
fn punctuation_interval_controls_batch_count_not_results() {
    let spec = WorkloadSpec::default().events(1_000).seed(5);
    let app = Arc::new(gs::GrepSum::default());
    let payloads = gs::generate(&spec);
    let mut snapshots = Vec::new();
    for interval in [25usize, 100, 500, 1_000, 4_000] {
        let store = gs::build_store(&spec);
        let engine = Engine::new(EngineConfig::with_executors(4).punctuation(interval));
        let report = engine.run(&app, &store, payloads.clone(), &Scheme::TStream);
        assert_eq!(report.committed, 1_000, "interval {interval}");
        assert_eq!(report.punctuation_interval, interval);
        snapshots.push(store.snapshot());
    }
    for pair in snapshots.windows(2) {
        assert_eq!(pair[0], pair[1], "results must not depend on the interval");
    }
}

#[test]
fn more_executors_do_not_change_results() {
    let spec = WorkloadSpec::default().events(900).seed(6);
    let app = Arc::new(tp::TollProcessing);
    let payloads = tp::generate(&spec);
    let mut reference = None;
    for executors in [1usize, 2, 4, 8, 12] {
        let store = tp::build_store(&spec);
        let engine = Engine::new(EngineConfig::with_executors(executors).punctuation(150));
        let report = engine.run(&app, &store, payloads.clone(), &Scheme::TStream);
        assert_eq!(report.executors, executors);
        assert_eq!(report.committed, 900);
        let snap = store.snapshot();
        match &reference {
            None => reference = Some(snap),
            Some(r) => assert_eq!(&snap, r, "{executors} executors diverged"),
        }
    }
}

#[test]
fn numa_model_counts_remote_accesses_without_changing_results() {
    let spec = WorkloadSpec::default().events(400).seed(7);
    let app = Arc::new(gs::GrepSum::default());
    let payloads = gs::generate(&spec);

    for kind in SchemeKind::ALL {
        // No-Lock has no synchronisation, so its concurrent runs are
        // deterministic only with one event per batch.
        let punctuation_interval = if kind == SchemeKind::NoLock { 1 } else { 100 };
        let run = |numa| {
            // 4 executors over sockets of 2 cores => 2 synthetic sockets.
            let config = EngineConfig {
                executors: 4,
                punctuation_interval,
                cores_per_socket: 2,
                numa,
                ..Default::default()
            };
            let store = gs::build_store(&spec);
            let report = Engine::new(config).run(
                &app,
                &store,
                payloads.clone(),
                &kind.build(spec.partitions),
            );
            (report.breakdown.remote_accesses, store.snapshot())
        };
        let (local_count, local) = run(NumaModel::disabled());
        let (modelled_count, modelled) = run(NumaModel::paper_calibrated());
        let scheme = kind.label();
        assert_eq!(local_count, 0, "{scheme}: the model is off");
        assert!(
            modelled_count > 0,
            "{scheme}: with two synthetic sockets some accesses must be remote"
        );
        assert_eq!(local, modelled, "{scheme}: the model changed the results");
    }
}

#[test]
fn breakdown_components_are_populated_sensibly() {
    let mut options = RunOptions::default();
    options.spec = options.spec.events(600).seed(8);
    options.engine = EngineConfig::with_executors(4).punctuation(150);

    // Baselines spend time in Sync (counters) and Lock; TStream spends Sync
    // (barriers) but no Lock at all.
    let lock_report = runner::run_benchmark(AppKind::Sl, SchemeKind::Lock, &options);
    assert!(lock_report.breakdown.lock > std::time::Duration::ZERO);
    assert!(lock_report.breakdown.useful > std::time::Duration::ZERO);

    let tstream_report = runner::run_benchmark(AppKind::Sl, SchemeKind::TStream, &options);
    assert_eq!(tstream_report.breakdown.lock, std::time::Duration::ZERO);
    assert!(tstream_report.breakdown.sync > std::time::Duration::ZERO);
    assert!(tstream_report.breakdown.useful > std::time::Duration::ZERO);
    assert!(tstream_report.state_access_time > std::time::Duration::ZERO);
    assert!(tstream_report.compute_time > std::time::Duration::ZERO);
    assert!(tstream_report.chain_stats.ops > 0);
    assert!(tstream_report.compute_mode_share() > 0.0);
}

#[test]
fn all_chain_placements_process_every_operation() {
    let spec = WorkloadSpec::default().events(700).seed(9);
    let app = Arc::new(gs::GrepSum::default());
    let payloads = gs::generate(&spec);
    // 700 GS events × transaction length 10 = 7000 operations.
    for placement in ChainPlacement::ALL {
        for stealing in [false, true] {
            let store = gs::build_store(&spec);
            let engine = Engine::new(
                EngineConfig::with_executors(6)
                    .punctuation(100)
                    .placement(placement)
                    .work_stealing(stealing),
            );
            let report = engine.run(&app, &store, payloads.clone(), &Scheme::TStream);
            assert_eq!(
                report.chain_stats.ops + report.chain_stats.skipped,
                7_000,
                "placement {placement:?} stealing {stealing}"
            );
        }
    }
}

#[test]
fn latency_percentiles_are_monotone() {
    let mut options = RunOptions::default();
    options.spec = options.spec.events(1_000).seed(10);
    options.engine = EngineConfig::with_executors(4).punctuation(250);
    let report = runner::run_benchmark(AppKind::Ob, SchemeKind::TStream, &options);
    let p50 = report.latency.percentile(50.0).unwrap();
    let p99 = report.latency.percentile(99.0).unwrap();
    let max = report.latency.max().unwrap();
    assert!(p50 <= p99);
    assert!(p99 <= max);
    assert!(report.latency.mean().unwrap() <= max);
}

#[test]
fn empty_input_produces_an_empty_report() {
    let spec = WorkloadSpec::default().events(0);
    let store = gs::build_store(&spec);
    let app = Arc::new(gs::GrepSum::default());
    let engine = Engine::new(EngineConfig::with_executors(3).punctuation(100));
    let report = engine.run(&app, &store, Vec::new(), &Scheme::TStream);
    assert_eq!(report.events, 0);
    assert_eq!(report.committed, 0);
    assert_eq!(report.latency.samples(), 0);
}

#[test]
fn single_event_single_executor_works() {
    let spec = WorkloadSpec::default().events(1).seed(20);
    let store = gs::build_store(&spec);
    let app = Arc::new(gs::GrepSum::default());
    let engine = Engine::new(EngineConfig::with_executors(1).punctuation(500));
    let report = engine.run(&app, &store, gs::generate(&spec), &Scheme::TStream);
    assert_eq!(report.committed, 1);
}

#[test]
fn executors_exceeding_events_are_harmless() {
    let spec = WorkloadSpec::default().events(5).seed(21);
    let store = gs::build_store(&spec);
    let app = Arc::new(gs::GrepSum::default());
    let engine = Engine::new(EngineConfig::with_executors(16).punctuation(2));
    let report = engine.run(&app, &store, gs::generate(&spec), &Scheme::TStream);
    assert_eq!(report.committed, 5);
}
