//! Ablations beyond the paper's figures: the cost of multi-write aborts, the
//! adaptive punctuation interval, and the dependency-resolution strategy.

use std::sync::Arc;
use std::time::Duration;

use tstream_apps::gs;
use tstream_apps::runner::{
    run_benchmark, run_benchmark_with_snapshot, AppKind, ExecutionPath, RunOptions, SchemeKind,
};
use tstream_apps::workload::{Rng, WorkloadSpec};
use tstream_core::{
    AdaptiveConfig, AdaptiveIntervalController, DependencyResolution, Engine, EngineConfig,
    IntervalObservation,
};

use crate::{header, list, ms, rows, HarnessConfig, Report};

/// Poison a fraction of write transactions so that one of their ten writes
/// violates GS's "records must be non-negative" consistency check.
fn poison(events: &mut [gs::GsEvent], fraction: f64, seed: u64) -> usize {
    let mut rng = Rng::new(seed);
    let mut poisoned = 0;
    for event in events.iter_mut() {
        if let Some(writes) = &mut event.writes {
            if rng.chance(fraction) {
                let slot = rng.next_below(writes.len() as u64) as usize;
                writes[slot] = -1;
                poisoned += 1;
            }
        }
    }
    poisoned
}

/// Ablation: the cost of aborting multi-write transactions (Section IV-F).
///
/// TStream decomposes every transaction into per-state operations and spreads
/// them over many chains, so aborting a multi-write transaction is expensive:
/// its writes in other chains, and everything that read them since, have to
/// be rolled back and replayed serially to preserve the correct schedule —
/// and every executor waits at one more barrier while the leader does so.
/// The eager schemes only undo the offending transaction.
/// This experiment injects a controlled fraction of aborting ten-write GS
/// transactions and measures how each scheme's throughput degrades — the
/// quantitative version of the limitation the paper states qualitatively.
pub fn abort_overhead(cfg: &HarnessConfig) -> Report {
    let cores = cfg.max_cores().min(8);
    let events_n = if cfg.quick { 6_000 } else { 60_000 };
    let schemes = [SchemeKind::Lock, SchemeKind::Mvlk, SchemeKind::TStream];
    let fractions = [0.0f64, 0.005, 0.02, 0.05, 0.10];
    // Per abort rate: poisoned transactions, and each scheme's throughput.
    let (mut poisoned_txns, mut points) = (Vec::new(), Vec::new());
    let mut miscounted = Vec::new();
    for fraction in fractions {
        let spec = WorkloadSpec::default()
            .events(events_n)
            .read_ratio(0.0)
            .seed(0xAB07);
        let mut events = gs::generate(&spec);
        let poisoned = poison(&mut events, fraction, 0xFEED);
        points.push(schemes.map(|scheme| {
            let store = gs::build_store(&spec);
            let app = Arc::new(gs::GrepSum {
                with_summation: false,
            });
            let engine = Engine::new(EngineConfig::with_executors(cores).punctuation(500));
            let report = engine.run(&app, &store, events.clone(), &scheme.build(cores as u32));
            if report.rejected != poisoned as u64 {
                let (label, rejected) = (scheme.label(), report.rejected);
                miscounted.push(format!(
                    "{label} rejected {rejected} of {poisoned} poisoned"
                ));
            }
            report.throughput_keps()
        }));
        poisoned_txns.push(poisoned);
    }
    let mut r = Report::new(cfg);
    let mut table = rows(fractions.map(|f| format!("{:.1}%", f * 100.0)), &points, 1);
    for (cells, poisoned) in table.iter_mut().zip(poisoned_txns) {
        cells.insert(1, poisoned.to_string());
    }
    r.table(
        format!(
            "Ablation: multi-write abort overhead on write-only GS \
             ({events_n} events, transaction length 10, {cores} cores)"
        ),
        &header("abort rate", ["poisoned txns", "LOCK", "MVLK", "TStream"]),
        &table,
    );
    r.check(
        "abort.rejects_the_poison: correctness is identical in all cases: rejected counts match \
         the injected poison exactly",
        0,
        miscounted.is_empty(),
        miscounted.join("; "),
    );
    // TStream's throughput over the better lock-based scheme's, by abort rate.
    let lead: Vec<f64> = points.iter().map(|t| t[2] / t[0].max(t[1])).collect();
    r.check(
        "abort.advantage_narrows: with no aborts TStream is far ahead (at least 2x the better \
         lock-based scheme); as aborting multi-write transactions grow, it pays an extra barrier \
         round and a serial replay of each abort's closure, so its advantage narrows while the \
         lock-based schemes only undo the offending transaction",
        cores,
        lead[0] >= 2.0 && lead[lead.len() - 1] < lead[0],
        format!("TStream / best of LOCK, MVLK by abort rate: {}", list(lead)),
    );
    r
}

/// Ablation: adaptive punctuation-interval tuning (Section VI-F future work).
///
/// Figure 12 sweeps the punctuation interval by hand; the paper leaves the
/// estimation of the optimal interval to future work.  This experiment runs
/// the hill-climbing [`AdaptiveIntervalController`] against real engine runs
/// for every application and reports the interval it converges to, its
/// throughput, and how that compares to the paper's fixed default of 500.
pub fn adaptive_interval(cfg: &HarnessConfig) -> Report {
    let bound = Duration::from_millis(5);
    let cores = cfg.max_cores().min(8);
    let events = if cfg.quick { 8_000 } else { 60_000 };
    let max_rounds = if cfg.quick { 6 } else { 14 };
    let measure = |app: AppKind, interval: usize| {
        let spec = WorkloadSpec::default().events(events);
        let engine = EngineConfig::with_executors(cores).punctuation(interval);
        let report = run_benchmark(app, SchemeKind::TStream, &RunOptions::new(spec, engine));
        let p99 = report.latency.percentile(99.0).unwrap_or(Duration::ZERO);
        (report.throughput_keps(), p99)
    };
    let mut rows = Vec::new();
    // Per app: tuned interval, tuned K/s, tuned p99 ms, interval-500 K/s.
    let mut tuned = Vec::new();
    for app in AppKind::ALL {
        let config = AdaptiveConfig {
            latency_bound: Some(bound),
            ..Default::default()
        };
        let mut controller = AdaptiveIntervalController::new(config, 50);
        let mut interval = controller.suggested_interval();
        let rounds = (1..=max_rounds)
            .find(|_| {
                let (throughput_keps, p99) = measure(app, interval);
                let observation = IntervalObservation {
                    interval,
                    throughput_keps,
                    p99,
                };
                interval = controller.observe(observation);
                controller.converged()
            })
            .unwrap_or(max_rounds);
        let best = controller.best().expect("at least one feasible run");
        let (default_keps, default_p99) = measure(app, 500);
        let (best_p99, default_p99) = (ms(best.p99), ms(default_p99));
        tuned.push([
            best.interval as f64,
            best.throughput_keps,
            best_p99,
            default_keps,
        ]);
        rows.push(vec![
            app.label().to_owned(),
            rounds.to_string(),
            best.interval.to_string(),
            format!("{:.1}", best.throughput_keps),
            format!("{best_p99:.2}"),
            format!("{default_keps:.1}"),
            format!("{default_p99:.2}"),
        ]);
    }
    let mut r = Report::new(cfg);
    r.table(
        format!(
            "Ablation: adaptive punctuation-interval tuning \
             ({cores} cores, {events} events per measurement, latency bound 5 ms)"
        ),
        "app|rounds|tuned interval|tuned K/s|tuned p99 ms|interval-500 K/s|interval-500 p99 ms",
        &rows,
    );
    let column = |c: usize| tuned.iter().map(move |t| t[c]);
    r.check(
        "adaptive.larger_for_tp: the tuned interval lands in the flat region of Figure 12(a): \
         larger for contended workloads like TP (TP's is the largest)",
        cores,
        column(0).all(|i| i <= tuned[3][0]),
        format!("tuned interval per app: {}", list(column(0))),
    );
    r.check(
        "adaptive.matches_default: matching or beating the fixed default of 500 (at least 90% \
         of its throughput) while keeping p99 latency inside the bound",
        cores,
        tuned
            .iter()
            .all(|t| t[1] >= 0.9 * t[3] && t[2] <= ms(bound)),
        format!(
            "per app, tuned K/s: {}; at 500: {}; tuned p99 ms: {}",
            list(column(1)),
            list(column(3)),
            list(column(2))
        ),
    );
    r
}

/// Ablation: chain-level round-based dependency resolution (the paper's
/// iterative process) vs the fine-grained watermark scheduler, on the
/// dependency-heavy SL workload and on the dependency-free GS workload.
pub fn resolution(cfg: &HarnessConfig) -> Report {
    let resolutions = [
        DependencyResolution::FineGrained,
        DependencyResolution::Rounds,
    ];
    let cores = cfg.max_cores().min(4);
    let events = if cfg.quick { 4_000 } else { 40_000 };
    let apps = [AppKind::Sl, AppKind::Gs];
    let runs = apps.map(|app| {
        resolutions.map(|resolution| {
            let spec = WorkloadSpec::default()
                .events(events)
                .partitions(cores as u32);
            let engine = EngineConfig::with_executors(cores)
                .punctuation(500)
                .resolution(resolution);
            let options = RunOptions::new(spec, engine);
            run_benchmark_with_snapshot(
                app,
                SchemeKind::TStream,
                &options,
                ExecutionPath::Pipelined,
            )
        })
    });
    let keps = runs
        .each_ref()
        .map(|r| r.each_ref().map(|(report, _)| report.throughput_keps()));
    let mut r = Report::new(cfg);
    r.table(
        format!(
            "Ablation: dependency resolution, TStream K events/s ({cores} cores, {events} events)"
        ),
        &header("app", resolutions.map(|r| r.label())),
        &rows(apps.map(|a| a.label()), &keps, 1),
    );
    r.check(
        "resolution.same_state: the paper's round-based resolution and fine-grained scheduling \
         leave the same final state (the paper states no speed comparison)",
        0,
        runs.iter().all(|[fine, rounds]| fine.1 == rounds.1),
        "the final states differ".into(),
    );
    r
}
