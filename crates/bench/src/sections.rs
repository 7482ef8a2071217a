//! The paper's in-text results: Section II-C, Section VI-A's compute-share
//! table and Section VI-G's S-Store comparison.

use std::sync::Arc;
use std::time::Instant;

use tstream_apps::gs;
use tstream_apps::runner::{run_benchmark, AppKind, RunOptions, SchemeKind};
use tstream_apps::workload::WorkloadSpec;
use tstream_core::{Engine, EngineConfig, Scheme};
use tstream_state::{StateStore, TableBuilder, TableId, Value};
use tstream_txn::nolock::NoLockScheme;
use tstream_txn::occ::OccScheme;
use tstream_txn::to::{ToPolicy, ToScheme};

use crate::{events_for, list, pct, run_point, HarnessConfig, Report};

/// Section II-C: why classic order-unaware concurrency controls (T/O, OCC)
/// are unsuitable for concurrent stateful stream processing.
///
/// The paper argues that timestamp-ordering either rejects transactions that
/// must commit (violating exactly-once processing of the input stream) or,
/// when restarted with fresh timestamps, violates the state access order
/// (F3); OCC similarly serialises in commit order rather than event order.
/// This experiment quantifies both effects on a write-only, skewed GS
/// workload: for every scheme it reports the fraction of rejected events and
/// the number of state cells whose final value differs from the correct
/// state transaction schedule (serial execution in timestamp order).
pub fn sec2c_order_unaware(cfg: &HarnessConfig) -> Report {
    let cores = cfg.max_cores().min(16);
    let events = if cfg.quick { 5_000 } else { 40_000 };

    // Write-only, moderately skewed GS: the worst case for freshness checks,
    // and the configuration Figure 11(b) uses for the contention study.
    let spec = WorkloadSpec::default()
        .events(events)
        .read_ratio(0.0)
        .skew(0.6);
    let payloads = gs::generate(&spec);
    let app = Arc::new(gs::GrepSum {
        with_summation: false,
    });
    let run = |executors: usize, scheme: &Scheme| {
        let store = gs::build_store(&spec);
        let engine = Engine::new(EngineConfig::with_executors(executors).punctuation(500));
        let report = engine.run(&app, &store, payloads.clone(), scheme);
        (report, store.snapshot())
    };
    // Reference: serial execution in timestamp order (1 executor, any
    // consistency-preserving scheme).  This is the "correct state transaction
    // schedule" of Definition 2.
    let reference = run(1, &Scheme::TStream).1;

    let to = |policy| Scheme::Eager(Arc::new(ToScheme::new(policy)));
    let candidates = [
        ("TStream", Scheme::TStream),
        ("T/O (reject)", to(ToPolicy::Reject)),
        ("T/O (restamp)", to(ToPolicy::Restamp)),
        ("OCC", Scheme::Eager(Arc::new(OccScheme::default()))),
        ("No-Lock", Scheme::Eager(Arc::new(NoLockScheme::new()))),
    ];
    let mut rows = Vec::new();
    // Per candidate: committed, rejected, diverging cells.
    let mut outcomes = Vec::new();
    for (label, scheme) in candidates {
        let (report, state) = run(cores, &scheme);
        let diverging = state.iter().zip(&reference).filter(|(x, y)| x != y).count();
        let reject = 100.0 * report.rejected as f64 / report.events.max(1) as f64;
        outcomes.push((report.committed, report.rejected, diverging));
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", report.throughput_keps()),
            report.committed.to_string(),
            report.rejected.to_string(),
            format!("{reject:.2}%"),
            diverging.to_string(),
        ]);
    }
    let mut r = Report::new(cfg);
    r.table(
        format!(
            "Section II-C: order-unaware concurrency controls on write-only GS \
             ({events} events, skew 0.6, {cores} cores)"
        ),
        "scheme|K events/s|committed|rejected|reject %|diverging cells",
        &rows,
    );

    let shown = |o: &[(u64, u64, usize)]| format!("(committed, rejected, diverging): {o:?}");
    let events = events as u64;
    r.check(
        "sec2c.tstream_exact: TStream commits every event and matches the serial-order state \
         exactly",
        0,
        outcomes[0] == (events, 0, 0),
        shown(&outcomes[..1]),
    );
    // Arrivals leave timestamp order only when two executors race.
    r.check(
        "sec2c.to_rejects: T/O with the reject policy loses a growing fraction of events under \
         contention (one contention level here: it loses some)",
        cores.max(2),
        outcomes[1].1 > 0,
        shown(&outcomes[1..2]),
    );
    r.check(
        "sec2c.others_diverge: with the restamp policy (and with OCC / No-Lock) everything \
         commits but the final state diverges from the correct schedule",
        cores.max(2),
        outcomes[2..].iter().all(|&(c, _, d)| c == events && d > 0),
        shown(&outcomes[2..]) + " (T/O restamp; OCC; No-Lock)",
    );
    r
}

/// Simulated trigger-style execution: each of the three writes of the stored
/// procedure is dispatched as its own task, with a context switch between
/// tasks (S-Store's trigger chain).  S-Store is a partitioned engine, so the
/// model runs against the sharded store API with a single shard — the
/// single-core configuration of the paper's comparison.
fn run_trigger_style(events: usize) -> f64 {
    let table = TableBuilder::new("t")
        .extend((0..1_000u64).map(|k| (k, Value::Long(0))))
        .build_sharded(1)
        .expect("one table of 1000 keys on one shard");
    let store = StateStore::with_shards(vec![table], 1).expect("one table on one shard");
    let start = Instant::now();
    for i in 0..events {
        for w in 0..3u64 {
            let key = (i as u64 * 3 + w) % 1_000;
            let record = store
                .record(TableId(0), key)
                .expect("keys below 1000 exist");
            record.update_committed(|v| {
                if let Value::Long(x) = v {
                    *x += 1;
                }
            });
            // The trigger hand-off: the next write runs in a different task.
            std::thread::yield_now();
        }
    }
    events as f64 / start.elapsed().as_secs_f64() / 1_000.0
}

/// Section VI-G: sanity comparison against S-Store on its micro-benchmark
/// (one stored procedure with three write operations, single core).
///
/// The real S-Store binary is not available; we model its trigger-based
/// execution style — every write is dispatched as an independent micro-task
/// with a thread yield (context switch) in between — and compare it with the
/// PAT scheme running inside our engine, which executes the three writes
/// consecutively on one thread.
pub fn sec6g_sstore(cfg: &HarnessConfig) -> Report {
    let events = if cfg.quick { 20_000 } else { 200_000 };
    let trigger = run_trigger_style(events);
    let spec = WorkloadSpec::default()
        .events(events)
        .read_ratio(0.0)
        .multi_partition(0.0, 1)
        .partitions(1)
        .shards(1)
        .txn_len(3)
        .keys(1_000);
    let mut options = RunOptions::new(spec, EngineConfig::with_executors(1).punctuation(500));
    options.pat_partitions = 1;
    options.gs_with_summation = false;
    let pat = run_benchmark(AppKind::Gs, SchemeKind::Pat, &options).throughput_keps();
    let ratio = pat / trigger.max(f64::MIN_POSITIVE);

    let mut r = Report::new(cfg);
    r.line(format!(
        "Section VI-G: S-Store-style trigger execution vs PAT (single core, 3-write procedure)\n\n  \
         trigger-style (S-Store model): {trigger:.1} K events/s\n  \
         PAT inside this engine:        {pat:.1} K events/s\n  \
         ratio:                         {ratio:.1}x\n"
    ));
    r.check(
        "sec6g.pat_faster: the re-implemented PAT outruns S-Store (~3x: 11.7K vs 3.6K events/s \
         on the paper's machine, rates not comparable here), by consecutive execution on one \
         thread vs trigger dispatch",
        1,
        ratio > 1.0,
        format!("PAT, trigger-style K/s: {}", list([pat, trigger])),
    );
    r
}

/// Section VI-A (in-text table): fraction of time spent in compute mode on a
/// single core for each application.
pub fn tab_compute_share(cfg: &HarnessConfig) -> Report {
    let mut rows = Vec::new();
    let mut shares = Vec::new();
    for app in AppKind::ALL {
        let events = events_for(app, 1, cfg.quick);
        let report = run_point(app, SchemeKind::TStream, 1, events, 500);
        shares.push(100.0 * report.compute_mode_share());
        rows.push(vec![
            app.label().to_string(),
            pct(report.compute_mode_share()),
            format!("{:.1}", report.throughput_keps()),
        ]);
    }
    let mut r = Report::new(cfg);
    r.table(
        "Section VI-A: compute-mode time share on a single core (TStream)",
        "app|compute-mode share|K events/s",
        &rows,
    );
    let [gs, sl, ob, tp] = [0, 1, 2, 3].map(|a| shares[a]);
    r.check(
        "tab.order: the compute-mode share orders TP > SL > OB > GS (39, 29, 22, 13% in the \
         paper's JVM engine; only the order is checked): GS is the most state-access bound \
         application, TP the least",
        1,
        tp > sl && sl > ob && ob > gs,
        format!("GS, SL, OB, TP %: {}", list(shares)),
    );
    r
}
