//! Observability integration tests.
//!
//! The metrics hub and the flight recorder are wired through every runtime
//! layer; these tests pin the invariants that make their numbers *trustworthy*
//! rather than merely present: hub counters must agree with the
//! [`RunReport`](tstream_core::RunReport) totals computed independently by the
//! sinks, the merged flight timeline must be chronologically ordered, and a
//! poisoned run must emit its post-mortem dump exactly once no matter how many
//! executors unwind.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tstream_apps::workload::WorkloadSpec;
use tstream_apps::{gs, ob, sl, SchemeKind};
use tstream_core::prelude::*;
use tstream_recovery::coordinator::CHECKPOINT_SUBDIR;
use tstream_state::StateError;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tstream-observability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every event increments one counter — conflict-free whenever the keys
/// within a punctuation batch are distinct, conflict-heavy when they repeat.
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
    fn post_process(&self, _key: &u64, _blotter: &EventBlotter) -> PostAction {
        PostAction::Emit
    }
}

/// Same application, but processing the poisoned key panics on the executor —
/// the crash the flight recorder's post-mortem dump exists for.
struct PanickyCounter {
    poison_key: u64,
}

impl Application for PanickyCounter {
    type Payload = u64;
    fn name(&self) -> &'static str {
        "panicky-counter"
    }
    fn read_write_set(&self, key: &u64) -> ReadWriteSet {
        ReadWriteSet::new().write(StateRef::new(0, *key))
    }
    fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
        assert_ne!(*key, self.poison_key, "deliberate test panic");
        txn.read_modify(0, *key, None, |ctx| {
            Ok(Value::Long(ctx.current.as_long()? + 1))
        });
    }
    fn post_process(&self, _key: &u64, _blotter: &EventBlotter) -> PostAction {
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

/// OB store with scarce inventory so a realistic share of bids is rejected.
fn scarce_ob_store(keys: u64, qty: i64) -> Arc<StateStore> {
    let items = TableBuilder::new("items")
        .extend((0..keys).map(|k| (k, Value::Pair(ob::INITIAL_PRICE, qty))))
        .build()
        .unwrap();
    StateStore::new(vec![items]).unwrap()
}

#[test]
fn every_ingested_event_is_accounted_committed_or_rejected() {
    // Abort-heavy workload: the hub's ingestion counter must equal the sum of
    // its own commit/reject counters AND the independently aggregated report.
    let spec = WorkloadSpec::default().events(2_000).keys(16).seed(91);
    let events = ob::generate(&spec);
    let app = Arc::new(ob::OnlineBidding);
    let store = scarce_ob_store(spec.keys, 5);
    let engine = Engine::new(EngineConfig::with_executors(4).punctuation(250));
    let report = engine.run(&app, &store, events, &Scheme::TStream);
    assert!(report.rejected > 0, "workload must actually abort");

    let m = engine.metrics_snapshot();
    assert_eq!(m.ingest_events, 2_000);
    assert_eq!(
        m.ingest_events,
        m.exec_committed + m.exec_rejected,
        "events in must equal committed + rejected"
    );
    assert_eq!(m.exec_committed, report.committed);
    assert_eq!(m.exec_rejected, report.rejected);
    assert_eq!(m.ingest_batches, 2_000 / 250);
    assert_eq!(m.exec_batches, m.ingest_batches);
}

#[test]
fn fast_path_counter_matches_the_report() {
    // Distinct keys per batch → every batch is conflict-free → fast path.
    let store = counter_store(256);
    let engine = Engine::new(EngineConfig::with_executors(4).punctuation(64));
    let report = engine.run(
        &Arc::new(Counter),
        &store,
        (0..256u64).collect(),
        &Scheme::TStream,
    );
    assert_eq!(
        report.fast_path_batches, 4,
        "all four batches conflict-free"
    );

    let m = engine.metrics_snapshot();
    assert_eq!(m.exec_fast_path_batches, report.fast_path_batches);
    assert_eq!(m.exec_batches, 4);
    assert_eq!(m.exec_restructured_batches, 0);

    // Conflict-heavy keys on a fresh engine: no fast path, chains instead.
    let store = counter_store(4);
    let engine = Engine::new(EngineConfig::with_executors(4).punctuation(64));
    let report = engine.run(
        &Arc::new(Counter),
        &store,
        (0..256u64).map(|i| i % 4).collect(),
        &Scheme::TStream,
    );
    assert_eq!(report.fast_path_batches, 0);
    let m = engine.metrics_snapshot();
    assert_eq!(m.exec_fast_path_batches, 0);
    assert_eq!(m.exec_restructured_batches, 4);
    assert!(m.exec_chains_built >= 4, "each batch builds chains");
    assert_eq!(
        m.exec_chains_recycled, m.exec_chains_built,
        "every chain arena goes back to its pool"
    );
}

/// Stream `events` through one session (durable over a fresh directory when
/// `durable`) and return the barrier rounds each executor paid per batch,
/// with the metrics that show which execution path the batches took.
fn barrier_rounds_per_batch<A>(
    executors: usize,
    interval: usize,
    app: A,
    store: Arc<StateStore>,
    events: Vec<A::Payload>,
    scheme: &Scheme,
    durable: bool,
) -> (u64, MetricsSnapshot)
where
    A: Application,
    A::Payload: WalPayload,
{
    let dir = temp_dir(&format!("rounds-{}-{executors}-{durable}", app.name()));
    let engine = Engine::new(EngineConfig::with_executors(executors).punctuation(interval));
    let app = Arc::new(app);
    let mut builder = engine.session_builder(&app, &store, scheme);
    if durable {
        builder = builder.durable(&dir);
    }
    let mut session = builder.open().unwrap();
    for event in events {
        session.push(event).unwrap();
    }
    let _ = session.report().unwrap();
    let _ = fs::remove_dir_all(&dir);

    let m = engine.metrics_snapshot();
    assert_eq!(m.exec_batches, 4, "every case runs exactly four batches");
    let slots = executors as u64 * m.exec_batches;
    assert_eq!(
        m.exec_barrier_waits % slots,
        0,
        "every executor must pay the same rounds in every batch"
    );
    (m.exec_barrier_waits / slots, m)
}

#[test]
fn barrier_rounds_per_batch_are_fixed_per_execution_path() {
    // The barrier protocol, as recorded numbers: rounds per batch on two
    // executors for each execution path, plain and durable.  Every batch
    // closes with one round whose action ends the batch and checkpoints;
    // neither durability nor a serial replay (the processing round's action)
    // adds one.
    let sl_spec = WorkloadSpec::default().events(800).keys(32).seed(93);
    let ob_spec = WorkloadSpec::default().keys(16).seed(94);
    // A poisoned Alter followed by a valid one over the same items: the pair
    // conflicts (no fast path) and the multi-write abort forces a replay.
    let items: Vec<u64> = (0..10u64).collect();
    let alter_pair = [vec![-1; 10], (0..10).map(|i| 500 + i as i64).collect()];
    let ob_events: Vec<ob::ObEvent> = (0..4)
        .flat_map(|_| alter_pair.clone())
        .map(|prices| ob::ObEvent::Alter {
            items: items.clone(),
            prices,
        })
        .collect();
    // One distinct key per event: every batch is conflict-free.
    let gs_events: Vec<gs::GsEvent> = (0..256u64)
        .map(|k| gs::GsEvent {
            keys: vec![k],
            writes: Some(vec![1]),
        })
        .collect();

    for executors in [2, 1] {
        for durable in [false, true] {
            // With one executor every round is elided.
            let expect = |rounds: u64| if executors == 1 { 0 } else { rounds };
            let case = format!("{executors} executors, durable = {durable}");

            let (eager, _) = barrier_rounds_per_batch(
                executors,
                200,
                sl::StreamingLedger,
                sl::build_store(&sl_spec),
                sl::generate(&sl_spec),
                &SchemeKind::NoLock.build(4),
                durable,
            );
            assert_eq!(eager, expect(2), "eager, {case}");

            let (restructured, m) = barrier_rounds_per_batch(
                executors,
                200,
                sl::StreamingLedger,
                sl::build_store(&sl_spec),
                sl::generate(&sl_spec),
                &Scheme::TStream,
                durable,
            );
            assert_eq!((m.exec_restructured_batches, m.exec_serial_replays), (4, 0));
            assert_eq!(restructured, expect(3), "restructured, {case}");

            let (replayed, m) = barrier_rounds_per_batch(
                executors,
                2,
                ob::OnlineBidding,
                ob::build_store(&ob_spec),
                ob_events.clone(),
                &Scheme::TStream,
                durable,
            );
            assert_eq!(m.exec_serial_replays, 4);
            assert_eq!(replayed, expect(3), "restructured + replay, {case}");

            let (fast, m) = barrier_rounds_per_batch(
                executors,
                64,
                gs::GrepSum::default(),
                gs::build_store(&WorkloadSpec::default()),
                gs_events.clone(),
                &Scheme::TStream,
                durable,
            );
            assert_eq!(m.exec_fast_path_batches, 4);
            assert_eq!(fast, expect(1), "fast, {case}");
        }
    }
}

#[test]
fn wal_counters_match_the_durable_report() {
    let dir = temp_dir("wal");
    let spec = WorkloadSpec::default().events(1_200).keys(32).seed(92);
    let events = sl::generate(&spec);
    let store = sl::build_store(&spec);
    let app = Arc::new(sl::StreamingLedger);
    let engine = Engine::new(EngineConfig::with_executors(4).punctuation(200));
    let mut session = engine
        .session_builder(&app, &store, &Scheme::TStream)
        .durable(&dir)
        .open()
        .unwrap();
    for event in events {
        session.push(event).unwrap();
    }
    let report = session.report().unwrap();
    assert!(report.wal_bytes > 0);

    let m = engine.metrics_snapshot();
    assert_eq!(
        m.wal_bytes, report.wal_bytes,
        "hub WAL bytes must equal the report's"
    );
    assert!(
        m.wal_seals >= m.ingest_batches,
        "every batch seals a segment"
    );
    assert!(m.wal_fsyncs > 0);
    assert!(m.wal_windows > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn failed_checkpoints_are_counted_while_the_session_keeps_committing() {
    let dir = temp_dir("checkpoint-failure");
    let spec = WorkloadSpec::default().events(400).keys(32).seed(95);
    let events = sl::generate(&spec);
    let store = sl::build_store(&spec);
    let app = Arc::new(sl::StreamingLedger);
    let engine = Engine::new(
        EngineConfig::with_executors(2)
            .punctuation(200)
            .checkpoint_every(1),
    );
    let mut session = engine
        .session_builder(&app, &store, &Scheme::TStream)
        .durable(&dir)
        .open()
        .unwrap();

    for event in &events[..200] {
        session.push(event.clone()).unwrap();
    }
    session.flush().unwrap();
    let m = engine.metrics_snapshot();
    assert_eq!((m.wal_checkpoints, m.wal_checkpoint_failures), (1, 0));

    // Make the checkpoint directory unwritable.  Permission bits do not stop
    // a test running as root, so swap the directory for a plain file.
    let checkpoints = dir.join(CHECKPOINT_SUBDIR);
    fs::remove_dir_all(&checkpoints).unwrap();
    fs::write(&checkpoints, b"not a directory").unwrap();

    for event in &events[200..] {
        session.push(event.clone()).unwrap();
    }
    session.flush().unwrap();
    let m = engine.metrics_snapshot();
    assert_eq!((m.wal_checkpoints, m.wal_checkpoint_failures), (1, 1));
    assert!(
        engine
            .flight_recording()
            .iter()
            .any(|e| e.kind == TraceKind::CheckpointFailed { epoch: 1 }),
        "the failure must leave a flight-recorder event"
    );
    assert!(engine
        .metrics_text()
        .contains("tstream_wal_checkpoint_failures_total 1"));

    // The WAL still covers the batch, and the session is not poisoned.
    let report = session.report().unwrap();
    assert_eq!(report.events, 400);
    assert_eq!(report.committed + report.rejected, 400);
    assert_eq!(report.checkpoints, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flight_timeline_is_merged_in_chronological_order() {
    let store = counter_store(64);
    let engine = Engine::new(EngineConfig::with_executors(4).punctuation(64));
    let _ = engine.run(
        &Arc::new(Counter),
        &store,
        (0..512u64).map(|i| i % 64).collect(),
        &Scheme::TStream,
    );

    let timeline = engine.flight_recording();
    assert!(!timeline.is_empty());
    for pair in timeline.windows(2) {
        assert!(
            (pair[0].t_ns, pair[0].seq) <= (pair[1].t_ns, pair[1].seq),
            "timeline must be ordered by (t_ns, seq)"
        );
    }
    // Events from more than one lane made it into the merge.
    let mut lanes: Vec<u32> = timeline.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert!(
        lanes.len() > 1,
        "expected executor + ingest lanes, got {lanes:?}"
    );
    assert!(
        timeline
            .iter()
            .any(|e| matches!(e.kind, TraceKind::FastPath | TraceKind::Restructured { .. })),
        "scheduling decisions must be traced"
    );
}

#[test]
fn metrics_text_exposes_a_rich_series_catalogue() {
    let store = counter_store(64);
    let engine = Engine::new(EngineConfig::with_executors(2).punctuation(64));
    let _ = engine.run(
        &Arc::new(Counter),
        &store,
        (0..128u64).map(|i| i % 64).collect(),
        &Scheme::TStream,
    );

    let text = engine.metrics_text();
    let series: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .map(|l| l.split_whitespace().nth(2).unwrap())
        .collect();
    assert!(
        series.len() >= 20,
        "expected at least 20 distinct series, got {}: {series:?}",
        series.len()
    );
    // Every series declared must also be emitted with a numeric value.
    for name in &series {
        assert!(
            text.lines()
                .any(|l| l.starts_with(name) && !l.starts_with('#')),
            "{name} declared but never emitted"
        );
    }
    // The JSON dump parses as one flat object with the same ingest total.
    let json = engine.metrics_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"ingest_events\":128"));
}

#[test]
fn disabled_observability_records_nothing() {
    let store = counter_store(64);
    let engine = Engine::new(
        EngineConfig::with_executors(2)
            .punctuation(64)
            .observability(ObsConfig::disabled()),
    );
    let report = engine.run(
        &Arc::new(Counter),
        &store,
        (0..128u64).map(|i| i % 64).collect(),
        &Scheme::TStream,
    );
    assert_eq!(report.committed, 128, "results unaffected by obs mode");
    let m = engine.metrics_snapshot();
    assert_eq!(m.ingest_events, 0);
    assert_eq!(m.exec_committed, 0);
    assert!(engine.flight_recording().is_empty());
}

#[test]
fn poisoned_run_dumps_the_post_mortem_exactly_once() {
    // A panicking application poisons the batch barrier: the panicking
    // executor and every sibling that unwinds on the poisoned barrier all
    // funnel into the same dump latch, which must fire exactly once.
    let store = counter_store(64);
    let engine = Engine::new(EngineConfig::with_executors(4).punctuation(64));
    let app = Arc::new(PanickyCounter { poison_key: 13 });
    assert_eq!(engine.post_mortem_count(), 0);

    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut session = engine
            .session_builder(&app, &store, &Scheme::TStream)
            .open()
            .unwrap();
        for key in 0..256u64 {
            session.push(key % 64).unwrap();
        }
        session.report().unwrap()
    }));
    assert!(caught.is_err(), "the application panic must re-raise");

    assert_eq!(
        engine.post_mortem_count(),
        1,
        "the dump latch must fire exactly once per engine"
    );
    let dump = engine.last_post_mortem().expect("a dump was recorded");
    assert!(
        dump.contains("executor panicked"),
        "dump must name the reason: {dump}"
    );
    // The recorder captured the crash markers before the dump formatted it.
    assert!(
        dump.contains("PANICKED") && dump.contains("POISONED"),
        "dump must carry the crash trace markers: {dump}"
    );

    // The engine survives: a healthy session on the same pool still works,
    // and its panic-free run does not re-arm the dump latch.
    let healthy = Engine::new(EngineConfig::with_executors(4).punctuation(64));
    drop(healthy);
    let store2 = counter_store(64);
    let report = engine.run(
        &Arc::new(Counter),
        &store2,
        (0..128u64).map(|i| i % 64).collect(),
        &Scheme::TStream,
    );
    assert_eq!(report.committed, 128);
    assert_eq!(engine.post_mortem_count(), 1, "still exactly one dump");
}

/// Two-event batches that force a serial replay whose re-execution panics.
#[derive(Clone)]
enum ReplayStep {
    /// Writes both keys; the write to the second fails, so a multi-write
    /// transaction aborts in the first pass.
    Abort(u64, u64),
    /// Increments the key — the closure panics the second time it runs,
    /// which is inside the replay of the abort's closure.
    Bump(u64),
}

struct PanicsOnReplay {
    bumps: Arc<AtomicUsize>,
}

impl Application for PanicsOnReplay {
    type Payload = ReplayStep;
    fn name(&self) -> &'static str {
        "panics-on-replay"
    }
    fn read_write_set(&self, step: &ReplayStep) -> ReadWriteSet {
        match *step {
            ReplayStep::Abort(a, b) => ReadWriteSet::new()
                .write(StateRef::new(0, a))
                .write(StateRef::new(0, b)),
            ReplayStep::Bump(key) => ReadWriteSet::new().write(StateRef::new(0, key)),
        }
    }
    fn state_access(&self, step: &ReplayStep, txn: &mut TxnBuilder) {
        match *step {
            ReplayStep::Abort(a, b) => {
                txn.write_value(0, a, Value::Long(-1));
                txn.write_with(0, b, None, |_| {
                    Err(StateError::ConsistencyViolation("deliberate abort".into()))
                });
            }
            ReplayStep::Bump(key) => {
                let bumps = self.bumps.clone();
                txn.read_modify(0, key, None, move |ctx| {
                    assert_eq!(
                        bumps.fetch_add(1, Ordering::SeqCst),
                        0,
                        "deliberate panic in the replay"
                    );
                    Ok(Value::Long(ctx.current.as_long()? + 1))
                });
            }
        }
    }
    fn post_process(&self, _: &ReplayStep, _: &EventBlotter) -> PostAction {
        PostAction::Emit
    }
}

#[test]
fn panic_inside_a_round_action_dumps_the_post_mortem_exactly_once() {
    // The replay runs as the processing round's action on whichever of the
    // two executors arrives last; its panic must surface as the session's
    // root cause while the sibling blocked in the round unwinds on the
    // poison instead of hanging.
    let store = counter_store(4);
    let engine = Engine::new(EngineConfig::with_executors(2).punctuation(2));
    let bumps = Arc::new(AtomicUsize::new(0));
    let app = Arc::new(PanicsOnReplay {
        bumps: bumps.clone(),
    });

    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut session = engine
            .session_builder(&app, &store, &Scheme::TStream)
            .open()
            .unwrap();
        session.push(ReplayStep::Abort(0, 1)).unwrap();
        session.push(ReplayStep::Bump(0)).unwrap();
        session.report().unwrap()
    }));
    let payload = caught.expect_err("the panic in the replay must re-raise");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("deliberate panic in the replay"),
        "the root cause must be the action's panic, not a poisoned round: {message}"
    );
    assert_eq!(
        bumps.load(Ordering::SeqCst),
        2,
        "first pass, then the replay"
    );
    assert_eq!(engine.post_mortem_count(), 1);
    let dump = engine.last_post_mortem().expect("a dump was recorded");
    assert!(
        dump.contains("PANICKED") && dump.contains("POISONED"),
        "dump must carry the crash trace markers: {dump}"
    );
    let m = engine.metrics_snapshot();
    assert_eq!(
        m.exec_barrier_waits, 2,
        "both executors passed TXN_START; neither left the replay round"
    );
}
