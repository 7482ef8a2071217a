//! Lock-order tracking is live in test builds and clean on the real engine.
//!
//! The workspace turns on `parking_lot`'s `lock-order` feature from the root
//! crate's dev-dependencies, so every integration test in this repository
//! runs with the acquisition-graph deadlock detector armed.  This test runs
//! a durable multi-shard, multi-session engine workload — crossing the
//! StateStore per-shard maintenance locks, the `ExecutorPool` scheduler
//! lock, and the `Checkpointer` directory lock — and then asserts the
//! tracker (a) was compiled in and (b) actually observed nested
//! acquisitions.  A lock-order inversion anywhere on that path would have
//! panicked the run with both acquisition sites named.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::lock_order;
use tstream_apps::gs;
use tstream_apps::workload::WorkloadSpec;
use tstream_core::{Engine, EngineConfig, Scheme};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tstream-lock-order-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_engine_run_is_clean_under_the_lock_order_tracker() {
    assert!(
        lock_order::enabled(),
        "test builds must compile parking_lot with the lock-order feature; \
         check the root Cargo.toml dev-dependencies"
    );

    let dir = temp_dir("engine");
    let spec = WorkloadSpec::default().events(1_200).seed(47);
    let store = gs::build_store(&spec);
    let app = Arc::new(gs::GrepSum::default());

    let before = lock_order::edges_recorded();
    let engine = Engine::new(
        EngineConfig::with_executors(4)
            .punctuation(200)
            .checkpoint_every(1),
    );
    let mut session = engine
        .session_builder(&app, &store, &Scheme::TStream)
        .durable(&dir)
        .open()
        .unwrap();
    for event in gs::generate(&spec) {
        session.push(event).unwrap();
    }
    let report = session.report().unwrap();
    assert_eq!(report.committed, 1_200);
    assert_eq!(report.checkpoints, 6);

    // Reaching here means no ABBA inversion exists across the shard,
    // scheduler, and checkpoint-directory locks on this path; the edge
    // count proves the tracker watched real nested acquisitions rather
    // than being compiled out or bypassed.
    assert!(
        lock_order::edges_recorded() > before,
        "a durable multi-executor run must nest locks at least once"
    );
    let _ = fs::remove_dir_all(&dir);
}
