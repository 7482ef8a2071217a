//! Differential and liveness tests for **concurrent session multiplexing**:
//! N sessions open on one engine at the same time, interleaving punctuation
//! batches over the shared executor pool.
//!
//! The tentpole guarantees pinned down here:
//!
//! * **determinism under concurrency** — N sessions pushing GS/SL/OB/TP
//!   interleaved from N threads produce byte-identical snapshots and counts
//!   to the same N runs executed sequentially via `run_offline`, on {1, 4}
//!   shards;
//! * **concurrent progress** — two sessions opened on one engine advance
//!   together: pushes and flushes interleave without either session
//!   blocking the other or being dropped;
//! * **spawn-once** — opening and closing M sessions (sequentially and
//!   concurrently) spawns no executor threads beyond the engine's first
//!   use.

use std::sync::Arc;

use tstream_apps::workload::WorkloadSpec;
use tstream_apps::{
    gs, ob, run_benchmark_concurrent, run_benchmark_with_snapshot, sl, tp, AppKind, ExecutionPath,
    RunOptions, SchemeKind,
};
use tstream_core::prelude::*;
use tstream_core::Scheme;
use tstream_state::Value;

type Snapshot = Vec<(String, u64, Value)>;

/// Run one app through its own **concurrent** session on the shared engine,
/// from the calling thread, and return `(committed, rejected, snapshot)`.
fn drive_session(
    engine: &Engine,
    app: AppKind,
    spec: &WorkloadSpec,
    pat_partitions: u32,
) -> (u64, u64, Snapshot) {
    fn go<A: Application>(
        engine: &Engine,
        application: A,
        store: Arc<StateStore>,
        payloads: Vec<A::Payload>,
        scheme: &Scheme,
        label: &str,
    ) -> (u64, u64, Snapshot) {
        let app = Arc::new(application);
        let mut session = engine
            .session_builder(&app, &store, scheme)
            .label(label)
            .open()
            .unwrap();
        for payload in payloads {
            session.push(payload).unwrap();
        }
        let report = session.report().unwrap();
        assert_eq!(report.label.as_deref(), Some(label));
        (report.committed, report.rejected, store.snapshot())
    }
    // Each session builds its own scheme instance — concurrent sessions
    // must not share eager-scheme counters.
    let scheme = SchemeKind::TStream.build(pat_partitions);
    match app {
        AppKind::Gs => go(
            engine,
            gs::GrepSum::default(),
            gs::build_store(spec),
            gs::generate(spec),
            &scheme,
            "GS",
        ),
        AppKind::Sl => go(
            engine,
            sl::StreamingLedger,
            sl::build_store(spec),
            sl::generate(spec),
            &scheme,
            "SL",
        ),
        AppKind::Ob => go(
            engine,
            ob::OnlineBidding,
            ob::build_store(spec),
            ob::generate(spec),
            &scheme,
            "OB",
        ),
        AppKind::Tp => go(
            engine,
            tp::TollProcessing,
            tp::build_store(spec),
            tp::generate(spec),
            &scheme,
            "TP",
        ),
    }
}

/// The same app through the sequential offline baseline (fresh engine).
fn offline_baseline(
    app: AppKind,
    spec: &WorkloadSpec,
    engine_config: EngineConfig,
) -> (u64, u64, Snapshot) {
    let options = RunOptions::new(*spec, engine_config);
    let (report, _) =
        run_benchmark_with_snapshot(app, SchemeKind::TStream, &options, ExecutionPath::Offline);
    // Re-run to capture the raw store snapshot in the same format the
    // session path reports.
    fn snap<A: Application>(
        application: A,
        store: Arc<StateStore>,
        payloads: Vec<A::Payload>,
        engine_config: EngineConfig,
    ) -> Snapshot {
        let engine = Engine::new(engine_config);
        let app = Arc::new(application);
        let _ = engine.run_offline(&app, &store, payloads, &Scheme::TStream);
        store.snapshot()
    }
    let snapshot = match app {
        AppKind::Gs => snap(
            gs::GrepSum::default(),
            gs::build_store(spec),
            gs::generate(spec),
            engine_config,
        ),
        AppKind::Sl => snap(
            sl::StreamingLedger,
            sl::build_store(spec),
            sl::generate(spec),
            engine_config,
        ),
        AppKind::Ob => snap(
            ob::OnlineBidding,
            ob::build_store(spec),
            ob::generate(spec),
            engine_config,
        ),
        AppKind::Tp => snap(
            tp::TollProcessing,
            tp::build_store(spec),
            tp::generate(spec),
            engine_config,
        ),
    };
    (report.committed, report.rejected, snapshot)
}

/// The headline differential: four sessions (GS, SL, OB, TP) pushed from
/// four threads **concurrently on one engine** must produce byte-identical
/// results to four sequential offline runs, on 1 and 4 shards.
#[test]
fn four_concurrent_sessions_match_sequential_offline_runs() {
    for shards in [1u32, 4] {
        let spec = WorkloadSpec::default()
            .events(600)
            .seed(0xC0 + shards as u64)
            .shards(shards);
        let engine_config = EngineConfig::with_executors(4)
            .punctuation(125)
            .shards(shards as usize);
        let engine = Engine::new(engine_config);

        let concurrent: Vec<(AppKind, (u64, u64, Snapshot))> = std::thread::scope(|scope| {
            let handles: Vec<_> = AppKind::ALL
                .iter()
                .map(|&app| {
                    let engine = &engine;
                    let spec = &spec;
                    scope.spawn(move || (app, drive_session(engine, app, spec, spec.partitions)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            engine.runtime_threads_spawned(),
            4,
            "four concurrent sessions share one pool"
        );

        for (app, (committed, rejected, snapshot)) in concurrent {
            let (base_committed, base_rejected, base_snapshot) =
                offline_baseline(app, &spec, engine_config);
            let ctx = format!("{} on {shards} shards", app.label());
            assert_eq!(committed, base_committed, "committed diverged: {ctx}");
            assert_eq!(rejected, base_rejected, "rejected diverged: {ctx}");
            assert_eq!(snapshot, base_snapshot, "store snapshots diverged: {ctx}");
        }
    }
}

/// A tiny inline application for the liveness tests: every event increments
/// one counter.
struct Counter;

impl Application for Counter {
    type Payload = u64;
    fn name(&self) -> &'static str {
        "counter"
    }
    fn read_write_set(&self, key: &u64) -> ReadWriteSet {
        ReadWriteSet::new().write(StateRef::new(0, *key))
    }
    fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
        txn.read_modify(0, *key, None, |ctx| {
            Ok(Value::Long(ctx.current.as_long()? + 1))
        });
    }
    fn post_process(&self, _key: &u64, _b: &EventBlotter) -> PostAction {
        PostAction::Emit
    }
}

fn counter_store(keys: u64) -> Arc<StateStore> {
    let table = TableBuilder::new("counters")
        .extend((0..keys).map(|k| (k, Value::Long(0))))
        .build()
        .unwrap();
    StateStore::new(vec![table]).unwrap()
}

fn counter_sum(store: &StateStore) -> i64 {
    store
        .table_by_name("counters")
        .unwrap()
        .iter()
        .map(|(_, r)| r.read_committed().as_long().unwrap())
        .sum()
}

/// Two sessions on one engine make progress **concurrently**: pushes and
/// flushes interleave from one thread, and each flush proves the session
/// advanced while the other stayed open with work in flight.  Under the old
/// exclusive run lease the second `open` would deadlock this thread.
#[test]
fn two_sessions_interleave_pushes_and_both_advance() {
    let engine = Engine::new(EngineConfig::with_executors(2).punctuation(16));
    let app = Arc::new(Counter);
    let store_a = counter_store(8);
    let store_b = counter_store(8);

    let mut a = engine
        .session_builder(&app, &store_a, &Scheme::TStream)
        .label("a")
        .open()
        .unwrap();
    let mut b = engine
        .session_builder(&app, &store_b, &Scheme::TStream)
        .label("b")
        .open()
        .unwrap();

    // Interleave pushes batch by batch: a full batch for A, then one for B.
    for round in 0..4u64 {
        for i in 0..16u64 {
            a.push((round * 16 + i) % 8).unwrap();
        }
        for i in 0..16u64 {
            b.push((round * 16 + i) % 8).unwrap();
        }
        // A flushes (and observes its own progress) while B stays open with
        // a full batch dispatched and more forming — and vice versa.
        a.flush().unwrap();
        assert_eq!(
            counter_sum(&store_a),
            ((round + 1) * 16) as i64,
            "session A must advance while B is open (round {round})"
        );
        b.flush().unwrap();
        assert_eq!(
            counter_sum(&store_b),
            ((round + 1) * 16) as i64,
            "session B must advance while A is open (round {round})"
        );
    }

    let ra = a.report().unwrap();
    let rb = b.report().unwrap();
    assert_eq!(ra.committed, 64);
    assert_eq!(rb.committed, 64);
    assert_eq!(ra.label.as_deref(), Some("a"));
    assert_eq!(rb.label.as_deref(), Some("b"));
    assert_eq!(engine.runtime_threads_spawned(), 2);
}

/// Sessions from independent threads hammering one engine concurrently:
/// every session completes with its own exact counts (no cross-session
/// leakage), and the pool never grows.
#[test]
fn many_threads_many_sessions_no_cross_talk() {
    let engine = Engine::new(EngineConfig::with_executors(2).punctuation(10));
    let app = Arc::new(Counter);
    let per_session = 137u64; // deliberately not batch-aligned

    let results: Vec<(usize, u64, i64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6usize)
            .map(|t| {
                let engine = &engine;
                let app = &app;
                scope.spawn(move || {
                    let store = counter_store(8);
                    let mut session = engine
                        .session_builder(app, &store, &Scheme::TStream)
                        .label(format!("t{t}"))
                        .pipeline_depth(1 + t % 3)
                        .open()
                        .unwrap();
                    for i in 0..per_session {
                        session.push(i % 8).unwrap();
                    }
                    let report = session.report().unwrap();
                    (t, report.committed, counter_sum(&store))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, committed, sum) in results {
        assert_eq!(committed, per_session, "session t{t} lost events");
        assert_eq!(sum, per_session as i64, "session t{t} store diverged");
    }
    assert_eq!(engine.runtime_threads_spawned(), 2);
}

/// Opening and closing M sessions — concurrently and sequentially — spawns
/// no executor threads beyond the engine's first use.
#[test]
fn opening_and_closing_sessions_never_spawns_threads() {
    let executors = 3u64;
    let engine = Engine::new(EngineConfig::with_executors(executors as usize).punctuation(25));
    let app = Arc::new(Counter);
    assert_eq!(engine.runtime_threads_spawned(), 0, "pool spawns lazily");

    // Sequential open/close, including an unused session.
    for _ in 0..3 {
        let store = counter_store(4);
        let mut session = engine
            .session_builder(&app, &store, &Scheme::TStream)
            .open()
            .unwrap();
        for i in 0..60u64 {
            session.push(i % 4).unwrap();
        }
        drop(session);
        assert_eq!(engine.runtime_threads_spawned(), executors);
    }
    {
        let store = counter_store(4);
        let session = engine
            .session_builder(&app, &store, &Scheme::TStream)
            .open()
            .unwrap();
        drop(session); // opened, never pushed
    }

    // Concurrent open/close.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = &engine;
            let app = &app;
            scope.spawn(move || {
                let store = counter_store(4);
                let mut session = engine
                    .session_builder(app, &store, &Scheme::TStream)
                    .open()
                    .unwrap();
                for i in 0..60u64 {
                    session.push(i % 4).unwrap();
                }
                session.report().unwrap()
            });
        }
    });
    assert_eq!(
        engine.runtime_threads_spawned(),
        executors,
        "M sessions, still one pool"
    );
}

/// Builder validation: contradictory option combinations are rejected with
/// clear errors instead of opening a half-configured session.
#[test]
fn builder_rejects_contradictory_options() {
    let engine = Engine::new(EngineConfig::with_executors(1).punctuation(16));
    let app = Arc::new(Counter);
    let store = counter_store(4);

    match engine
        .session_builder(&app, &store, &Scheme::TStream)
        .recover()
        .open()
    {
        Err(tstream_state::StateError::InvalidDefinition(msg)) => {
            assert!(msg.contains("durable"), "{msg}");
        }
        other => panic!("recover() without durable(dir) must fail, got {other:?}"),
    }

    let dir = std::env::temp_dir().join(format!("tstream-builder-conflict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = WorkloadSpec::default().events(10);
    let sl_store = sl::build_store(&spec);
    let sl_app = Arc::new(sl::StreamingLedger);
    match engine
        .session_builder(&sl_app, &sl_store, &Scheme::TStream)
        .durable(&dir)
        .adaptive_punctuation()
        .open()
    {
        Err(tstream_state::StateError::InvalidDefinition(msg)) => {
            assert!(msg.contains("adaptive"), "{msg}");
        }
        other => panic!("adaptive + durable must fail, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durability directory admits one live durable session per process: a
/// concurrent second open would truncate the live session's WAL tail and
/// interleave appends, so it is rejected — and admitted again once the
/// first session closes.
#[test]
fn a_durable_directory_admits_one_live_session() {
    let engine = Engine::new(EngineConfig::with_executors(1).punctuation(50));
    let dir =
        std::env::temp_dir().join(format!("tstream-durable-exclusive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = WorkloadSpec::default().events(100).seed(0xD6);
    let payloads = sl::generate(&spec);
    let sl_app = Arc::new(sl::StreamingLedger);

    let store_a = sl::build_store(&spec);
    let mut live = engine
        .session_builder(&sl_app, &store_a, &Scheme::TStream)
        .durable(&dir)
        .open()
        .unwrap();
    for p in payloads.iter().take(60).cloned() {
        live.push(p).unwrap();
    }

    let store_b = sl::build_store(&spec);
    match engine
        .session_builder(&sl_app, &store_b, &Scheme::TStream)
        .durable(&dir)
        .open()
    {
        Err(tstream_state::StateError::InvalidDefinition(msg)) => {
            assert!(msg.contains("live durable session"), "{msg}");
        }
        other => panic!(
            "a second durable open over a live directory must fail, got {:?}",
            other.map(|_| ())
        ),
    }

    drop(live); // releases the directory
    let store_c = sl::build_store(&spec);
    let mut resumed = engine
        .session_builder(&sl_app, &store_c, &Scheme::TStream)
        .durable(&dir)
        .recover()
        .open()
        .expect("the directory frees when its session closes");
    assert_eq!(resumed.ingested(), 60);
    for p in payloads.iter().skip(60).cloned() {
        resumed.push(p).unwrap();
    }
    let report = resumed.report().unwrap();
    assert_eq!(report.events, 100);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Adaptive punctuation: the controller retunes the interval between
/// batches (growing it while throughput improves), and results stay exact.
#[test]
fn adaptive_punctuation_retunes_the_interval_and_stays_exact() {
    let engine = Engine::new(EngineConfig::with_executors(2).punctuation(25));
    let app = Arc::new(Counter);
    let store = counter_store(16);
    let mut session = engine
        .session_builder(&app, &store, &Scheme::TStream)
        .adaptive_punctuation()
        .open()
        .unwrap();
    assert_eq!(session.punctuation_interval(), 25);
    // Noise can walk the hill climb back down to 25 by the end, so the
    // growth is asserted on the largest interval seen along the way.
    let mut largest = 25;
    for i in 0..2_000u64 {
        session.push(i % 16).unwrap();
        largest = largest.max(session.punctuation_interval());
    }
    assert!(
        largest > 25,
        "the first observations always improve on no-best, so the \
         controller must have grown the interval (largest {largest})"
    );
    let in_effect = session.punctuation_interval();
    let report = session.report().unwrap();
    assert_eq!(
        report.punctuation_interval, in_effect,
        "the report must carry the interval in effect, not the configured one"
    );
    assert_eq!(report.committed, 2_000);
    assert_eq!(counter_sum(&store), 2_000);
}

/// A fixed-size session keeps its configured interval: adaptive tuning is
/// strictly opt-in.
#[test]
fn non_adaptive_sessions_keep_a_fixed_interval() {
    let engine = Engine::new(EngineConfig::with_executors(1).punctuation(32));
    let app = Arc::new(Counter);
    let store = counter_store(8);
    let mut session = engine
        .session_builder(&app, &store, &Scheme::TStream)
        .open()
        .unwrap();
    for i in 0..500u64 {
        session.push(i % 8).unwrap();
    }
    assert_eq!(session.punctuation_interval(), 32);
    let report = session.report().unwrap();
    assert_eq!(report.committed, 500);
}

/// The report stamps shard count and label for attribution, and the
/// concurrent runner wires them through.
#[test]
fn reports_are_attributable_by_label_and_shards() {
    let spec = WorkloadSpec::default().events(300).seed(0xAB).shards(4);
    let options = RunOptions::new(spec, EngineConfig::with_executors(2).punctuation(100));
    let run = run_benchmark_concurrent(&AppKind::ALL[..2], SchemeKind::TStream, &options);
    assert_eq!(run.reports.len(), 2);
    assert_eq!(run.reports[0].label.as_deref(), Some("GS"));
    assert_eq!(run.reports[1].label.as_deref(), Some("SL"));
    for report in &run.reports {
        assert_eq!(report.shards, 4);
        assert_eq!(report.events, 300);
    }
    assert_eq!(run.events(), 600);
    assert!(run.aggregate_keps() > 0.0);
}
