//! Schedule-equivalence tests (Definition 2 of the paper).
//!
//! Every consistency-preserving scheme must produce a state transaction
//! schedule that is conflict-equivalent to the timestamp order of the
//! triggering events.  We verify this end to end: the same deterministic
//! workload is executed (a) serially on one executor under LOCK — the
//! reference — and (b) under every scheme with many executors; the final
//! contents of every table must be identical.

use std::sync::Arc;

use tstream_apps::runner::{run_benchmark, AppKind, RunOptions, SchemeKind};
use tstream_apps::workload::WorkloadSpec;
use tstream_apps::{gs, ob, sl, tp};
use tstream_core::prelude::{
    Application, EventBlotter, PostAction, ReadWriteSet, StateRef, TableBuilder, TxnBuilder,
};
use tstream_core::{ChainPlacement, DependencyResolution, Engine, EngineConfig, Scheme};
use tstream_state::{StateStore, Value};

/// Run one app serially (reference) and return the final snapshot.
fn reference_snapshot(app: AppKind, spec: &WorkloadSpec) -> Vec<(String, u64, Value)> {
    let options = RunOptions {
        spec: *spec,
        engine: EngineConfig::with_executors(1).punctuation(spec.events.max(1)),
        pat_partitions: spec.partitions,
        ..RunOptions::default()
    };
    snapshot_after(app, SchemeKind::Lock, &options)
}

/// Run one (app, scheme) combination and return the final store snapshot.
fn snapshot_after(
    app: AppKind,
    scheme: SchemeKind,
    options: &RunOptions,
) -> Vec<(String, u64, Value)> {
    // run_benchmark builds its own store internally; rebuild the same store
    // here and run through the engine directly so we can inspect it.
    let engine = Engine::new(options.engine);
    let built = scheme.build(options.pat_partitions);
    match app {
        AppKind::Gs => {
            let store = gs::build_store(&options.spec);
            let application = Arc::new(gs::GrepSum::default());
            let _ = engine.run(&application, &store, gs::generate(&options.spec), &built);
            store.snapshot()
        }
        AppKind::Sl => {
            let store = sl::build_store(&options.spec);
            let application = Arc::new(sl::StreamingLedger);
            let _ = engine.run(&application, &store, sl::generate(&options.spec), &built);
            store.snapshot()
        }
        AppKind::Ob => {
            let store = ob::build_store(&options.spec);
            let application = Arc::new(ob::OnlineBidding);
            let _ = engine.run(&application, &store, ob::generate(&options.spec), &built);
            store.snapshot()
        }
        AppKind::Tp => {
            let store = tp::build_store(&options.spec);
            let application = Arc::new(tp::TollProcessing);
            let _ = engine.run(&application, &store, tp::generate(&options.spec), &built);
            store.snapshot()
        }
    }
}

fn assert_equivalent(app: AppKind, scheme: SchemeKind, executors: usize, spec: WorkloadSpec) {
    let reference = reference_snapshot(app, &spec);
    let options = RunOptions {
        spec,
        engine: EngineConfig::with_executors(executors).punctuation(100),
        pat_partitions: spec.partitions,
        ..RunOptions::default()
    };
    let got = snapshot_after(app, scheme, &options);
    assert_eq!(
        got,
        reference,
        "{} under {} with {executors} executors diverged from serial execution",
        app.label(),
        scheme.label()
    );
}

#[test]
fn gs_all_schemes_match_serial_execution() {
    let spec = WorkloadSpec::default().events(1_200).seed(11);
    for scheme in SchemeKind::CONSISTENT {
        assert_equivalent(AppKind::Gs, scheme, 6, spec);
    }
}

#[test]
fn sl_all_schemes_match_serial_execution() {
    let spec = WorkloadSpec::default().events(1_200).seed(12);
    for scheme in SchemeKind::CONSISTENT {
        assert_equivalent(AppKind::Sl, scheme, 6, spec);
    }
}

#[test]
fn ob_all_schemes_match_serial_execution() {
    let spec = WorkloadSpec::default().events(1_200).seed(13);
    for scheme in SchemeKind::CONSISTENT {
        assert_equivalent(AppKind::Ob, scheme, 6, spec);
    }
}

#[test]
fn tp_all_schemes_match_serial_execution() {
    let spec = WorkloadSpec::default().events(1_200).seed(14);
    for scheme in SchemeKind::CONSISTENT {
        assert_equivalent(AppKind::Tp, scheme, 6, spec);
    }
}

#[test]
fn tstream_placements_and_resolutions_are_all_correct() {
    // The NUMA-aware placements and both dependency-resolution strategies
    // must not change results, only performance (Figure 14).
    let spec = WorkloadSpec::default().events(1_000).seed(15);
    let reference = reference_snapshot(AppKind::Sl, &spec);
    for placement in ChainPlacement::ALL {
        for resolution in [
            DependencyResolution::FineGrained,
            DependencyResolution::Rounds,
        ] {
            for work_stealing in [false, true] {
                let store = sl::build_store(&spec);
                let app = Arc::new(sl::StreamingLedger);
                let engine = Engine::new(
                    EngineConfig::with_executors(6)
                        .punctuation(125)
                        .placement(placement)
                        .resolution(resolution)
                        .work_stealing(work_stealing),
                );
                let _ = engine.run(&app, &store, sl::generate(&spec), &Scheme::TStream);
                assert_eq!(
                    store.snapshot(),
                    reference,
                    "placement {placement:?} resolution {resolution:?} stealing {work_stealing}"
                );
            }
        }
    }
}

#[test]
fn skewed_single_key_contention_is_still_correct() {
    // Extreme contention: nearly every transaction touches the same few keys.
    let spec = WorkloadSpec::default().events(800).skew(0.99).seed(16);
    for scheme in SchemeKind::CONSISTENT {
        assert_equivalent(AppKind::Gs, scheme, 8, spec);
    }
}

#[test]
fn throughput_reports_are_internally_consistent() {
    let mut options = RunOptions::default();
    options.spec = options.spec.events(500).seed(17);
    options.engine = EngineConfig::with_executors(4).punctuation(100);
    for app in AppKind::ALL {
        for scheme in SchemeKind::ALL {
            let report = run_benchmark(app, scheme, &options);
            assert_eq!(report.events, 500);
            assert_eq!(report.committed + report.rejected, report.events);
            assert!(report.latency.samples() as u64 <= report.events);
            assert!(report.elapsed.as_nanos() > 0);
        }
    }
}

#[test]
fn store_snapshots_are_deterministic_for_identical_runs() {
    // Two runs of the exact same configuration must agree bit for bit —
    // guards against hidden nondeterminism in the generators.
    let spec = WorkloadSpec::default().events(600).seed(18);
    let a = reference_snapshot(AppKind::Tp, &spec);
    let b = reference_snapshot(AppKind::Tp, &spec);
    assert_eq!(a, b);
}

/// Helper: assert a snapshot holds a specific number of entries (sanity that
/// the snapshot machinery sees every table).
#[test]
fn snapshots_cover_all_tables() {
    let spec = WorkloadSpec::default().events(10).seed(19);
    let store: Arc<StateStore> = sl::build_store(&spec);
    assert_eq!(store.snapshot().len(), 2 * spec.keys as usize);
}

/// Event `(key, value)` writes the constant `value` to `key`.
struct WriteConst;

impl Application for WriteConst {
    type Payload = (u64, i64);
    fn name(&self) -> &'static str {
        "write-const"
    }
    fn read_write_set(&self, &(key, _): &(u64, i64)) -> ReadWriteSet {
        ReadWriteSet::new().write(StateRef::new(0, key))
    }
    fn state_access(&self, &(key, value): &(u64, i64), txn: &mut TxnBuilder) {
        txn.write_value(0, key, Value::Long(value));
    }
    fn post_process(&self, _: &(u64, i64), _: &EventBlotter) -> PostAction {
        PostAction::Emit
    }
}

/// Conflict-free batches must not overtake each other.  Batch `b` writes `b`
/// to every one of `keys` keys, key `k` at in-batch position `(k - b) mod
/// keys`: each batch is conflict-free, and round-robin routing hands each
/// key to the other executor in every batch.  An executor that starts batch
/// `b + 1` while its sibling is still writing batch `b` lets the older write
/// land last, leaving half the keys one batch stale.
#[test]
fn conflict_free_batches_keep_their_order_across_executors() {
    const KEYS: u64 = 64;
    const BATCHES: u64 = 200;
    let events: Vec<(u64, i64)> = (0..BATCHES)
        .flat_map(|b| (0..KEYS).map(move |p| ((p + b) % KEYS, b as i64)))
        .collect();
    let run = |executors: usize| {
        let table = TableBuilder::new("consts")
            .extend((0..KEYS).map(|k| (k, Value::Long(-1))))
            .build()
            .unwrap();
        let store = StateStore::new(vec![table]).unwrap();
        let engine =
            Engine::new(EngineConfig::with_executors(executors).punctuation(KEYS as usize));
        let report = engine.run(
            &Arc::new(WriteConst),
            &store,
            events.clone(),
            &Scheme::TStream,
        );
        assert_eq!(
            report.fast_path_batches, BATCHES,
            "every batch is conflict-free"
        );
        store.snapshot()
    };
    let serial = run(1);
    assert!(serial
        .iter()
        .all(|(_, _, v)| *v == Value::Long(BATCHES as i64 - 1)));
    // One overtaking needs the two executors one batch apart at the very
    // end; a few runs make a broken protocol fail almost surely.
    for attempt in 0..5 {
        assert_eq!(
            run(2),
            serial,
            "attempt {attempt}: a stale batch landed last"
        );
    }
}
