//! Durability integration tests (Section IV-D).
//!
//! A durable session replicates the committed state to disk at punctuation
//! boundaries — with `checkpoint_every(1)`, at every one.  These tests
//! exercise the full path — durable run with checkpointing, crash, recovery
//! onto a fresh store — through the public API only.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tstream_apps::workload::WorkloadSpec;
use tstream_apps::{gs, sl, tp};
use tstream_core::prelude::*;
use tstream_recovery::coordinator::CHECKPOINT_SUBDIR;
use tstream_recovery::DurableLog;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tstream-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// An engine checkpointing at every punctuation.
fn checkpointing_engine(executors: usize, interval: usize) -> Engine {
    Engine::new(
        EngineConfig::with_executors(executors)
            .punctuation(interval)
            .checkpoint_every(1),
    )
}

/// Stream `events` through a durable session over `dir`; returns the report
/// and the session's log, whose checkpointer the assertions inspect.
fn run_durable<A>(
    engine: &Engine,
    dir: &Path,
    app: &Arc<A>,
    store: &Arc<StateStore>,
    events: Vec<A::Payload>,
    scheme: &Scheme,
) -> (RunReport, Arc<DurableLog>)
where
    A: Application,
    A::Payload: WalPayload,
{
    let mut session = engine
        .session_builder(app, store, scheme)
        .durable(dir)
        .open()
        .unwrap();
    let log = session.log().unwrap().clone();
    for event in events {
        session.push(event).unwrap();
    }
    (session.report().unwrap(), log)
}

#[test]
fn engine_writes_one_checkpoint_per_punctuation_batch() {
    let dir = temp_dir("per-batch");
    let spec = WorkloadSpec::default().events(1_000).seed(31);
    let store = gs::build_store(&spec);
    let app = Arc::new(gs::GrepSum::default());

    let engine = checkpointing_engine(4, 250);
    let (report, log) = run_durable(
        &engine,
        &dir,
        &app,
        &store,
        gs::generate(&spec),
        &Scheme::TStream,
    );

    // 1000 events / interval 250 = 4 punctuation batches = 4 checkpoints
    // (numbered 0..=3 on disk; durable sessions retain the newest two).
    assert_eq!(report.checkpoints, 4);
    let checkpointer = log.checkpointer();
    assert_eq!(checkpointer.next_sequence(), 4);

    // The newest checkpoint equals the final committed state.
    let latest = checkpointer.latest_snapshot().unwrap().unwrap();
    assert_eq!(latest, StoreSnapshot::capture(&store));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_after_crash_matches_the_original_final_state() {
    let dir = temp_dir("recovery");
    let spec = WorkloadSpec::default().events(800).seed(32);
    let events = tp::generate(&spec);
    let app = Arc::new(tp::TollProcessing);

    // First "process": run to completion with checkpointing enabled.
    let original = tp::build_store(&spec);
    {
        let engine = checkpointing_engine(4, 200);
        let (report, _) = run_durable(
            &engine,
            &dir,
            &app,
            &original,
            events.clone(),
            &Scheme::TStream,
        );
        assert_eq!(report.committed, 800);
    }

    // Second "process": recover the latest checkpoint into a fresh store.
    let recovered = tp::build_store(&spec);
    let checkpointer = Checkpointer::new(dir.join(CHECKPOINT_SUBDIR), 4).unwrap();
    assert!(checkpointer.recover_into(&recovered).unwrap());
    assert_eq!(recovered.snapshot(), original.snapshot());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_are_written_under_eager_schemes_too() {
    let dir = temp_dir("eager");
    let spec = WorkloadSpec::default().events(600).seed(33);
    let store = sl::build_store(&spec);
    let app = Arc::new(sl::StreamingLedger);

    let engine = checkpointing_engine(3, 200);
    let (report, log) = run_durable(
        &engine,
        &dir,
        &app,
        &store,
        sl::generate(&spec),
        &tstream_apps::SchemeKind::Mvlk.build(4),
    );
    assert_eq!(report.checkpoints, 3);
    let latest = log.checkpointer().latest_snapshot().unwrap().unwrap();
    assert_eq!(latest, StoreSnapshot::capture(&store));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn retention_limit_is_honoured_across_a_run() {
    let dir = temp_dir("retention");
    let spec = WorkloadSpec::default().events(1_500).seed(34);
    let store = gs::build_store(&spec);
    let app = Arc::new(gs::GrepSum::default());

    let engine = checkpointing_engine(2, 100);
    let (report, log) = run_durable(
        &engine,
        &dir,
        &app,
        &store,
        gs::generate(&spec),
        &Scheme::TStream,
    );
    assert_eq!(report.checkpoints, 15);
    assert_eq!(
        log.checkpointer().list().unwrap().len(),
        2,
        "only the retained number of checkpoints may remain on disk"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn runs_without_durability_write_nothing() {
    let spec = WorkloadSpec::default().events(300).seed(35);
    let store = gs::build_store(&spec);
    let app = Arc::new(gs::GrepSum::default());
    let engine = checkpointing_engine(2, 100);
    let mut session = engine
        .session_builder(&app, &store, &Scheme::TStream)
        .open()
        .unwrap();
    assert!(session.log().is_none());
    for event in gs::generate(&spec) {
        session.push(event).unwrap();
    }
    let report = session.report().unwrap();
    assert_eq!(report.checkpoints, 0);
    assert_eq!(report.wal_bytes, 0);
}

#[test]
fn checkpointing_does_not_change_results() {
    let dir = temp_dir("equivalence");
    let spec = WorkloadSpec::default().events(700).seed(36);
    let events = gs::generate(&spec);
    let app = Arc::new(gs::GrepSum::default());

    let plain_store = gs::build_store(&spec);
    let _ = checkpointing_engine(4, 150).run(&app, &plain_store, events.clone(), &Scheme::TStream);

    let durable_store = gs::build_store(&spec);
    let _ = run_durable(
        &checkpointing_engine(4, 150),
        &dir,
        &app,
        &durable_store,
        events,
        &Scheme::TStream,
    );

    assert_eq!(plain_store.snapshot(), durable_store.snapshot());
    let _ = fs::remove_dir_all(&dir);
}
