//! One run of one workload: the phases in order, the correctness gate, and
//! the metrics by name.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use tstream::apps::{gs, sl, tp};
use tstream::core::prelude::*;
use tstream::core::ObsConfig;

use crate::host;
use crate::json::Json;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::phases::{
    closed_phase, open_phase, recovery_phase, recovery_prefix, recovery_replayed, reference,
    ClosedRun, Job, OpenRun, Outcome, PhaseDir, RECOVERY_COPIES,
};
use crate::probes;
use crate::stats::{highest_supported_percentile, median, ms, percentile};
use crate::workloads::{poison, AppKind, Scale, Workload, PUNCTUATION};

/// An open-phase event later than this counts as failed, like one that never
/// completed: the latency limit of the serving contract.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(100);

/// The generator may run this late (p99) before the run is called invalid:
/// beyond it the latencies describe the generator, not the engine.
pub const GEN_LATE_LIMIT_MS: f64 = 5.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Also run the traced closed phase and the per-layer probes.
    pub trace: bool,
    /// Sizes divided by 100 and debug builds allowed: the test suite's run.
    pub smoke: bool,
    /// A directory of this run's own, for durable sessions; removed after.
    pub scratch: PathBuf,
}

/// What came out.
#[derive(Debug)]
pub struct RunResult {
    pub values: Values,
    /// Events whose results were checked: closed (twice) + open + recovered.
    pub attempted: u64,
    /// Of those, how many differed from the reference, errored, or (open
    /// phase) never completed.
    pub failed: u64,
    /// Why the measurement (not the result) is not to be trusted, if so.
    pub invalid: Vec<String>,
    pub scale: Scale,
    /// Exact counts that must repeat run to run.
    pub counts: Vec<(String, Json)>,
    /// Spans and the ladder table of the traced run.
    pub trace: Option<Json>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Run `args.workload` once.
pub fn run_workload(args: &RunArgs) -> Result<RunResult, String> {
    let w = args.workload;
    let seed = args.seed;
    match w.app {
        AppKind::Gs {
            read_ratio,
            poison: fraction,
            ..
        } => run_job(
            args,
            Job {
                app: Arc::new(gs::GrepSum {
                    // Write-only GS has nothing to sum.
                    with_summation: read_ratio > 0.0,
                }),
                generate: Box::new(move |events| {
                    let mut input = gs::generate(&w.spec(seed, events));
                    if fraction > 0.0 {
                        poison(&mut input, fraction, seed);
                    }
                    input
                }),
                build_store: Box::new(move || gs::build_store(&w.spec(seed, 0))),
            },
        ),
        AppKind::Sl => run_job(
            args,
            Job {
                app: Arc::new(sl::StreamingLedger),
                generate: Box::new(move |events| sl::generate(&w.spec(seed, events))),
                build_store: Box::new(move || sl::build_store(&w.spec(seed, 0))),
            },
        ),
        AppKind::Tp => run_job(
            args,
            Job {
                app: Arc::new(tp::TollProcessing),
                generate: Box::new(move |events| tp::generate(&w.spec(seed, events))),
                build_store: Box::new(move || tp::build_store(&w.spec(seed, 0))),
            },
        ),
    }
}

fn run_job<A: Application>(args: &RunArgs, job: Job<A>) -> Result<RunResult, String>
where
    A::Payload: WalPayload,
{
    let w = args.workload;
    let scale = Scale::new(w, args.seconds, args.smoke);
    let n = scale.closed_events;
    std::fs::create_dir_all(&args.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let name = w.name;
    let fail = |phase: &'static str| move |e| format!("{name}: {phase} phase failed: {e}");
    let phase_dir = |phase: &str| PhaseDir::new(w, &args.scratch, phase);

    closed_phase(
        w,
        &job,
        n / 5,
        ObsConfig::new(),
        phase_dir("warm-up").path(),
    )
    .map_err(fail("warm-up"))?;
    let closed_early = closed_phase(w, &job, n, ObsConfig::new(), phase_dir("closed").path())
        .map_err(fail("closed"))?;
    let (open, inputs) = open_phase(
        w,
        &job,
        n,
        scale.open_events,
        ObsConfig::new(),
        phase_dir("open").path(),
    )
    .map_err(fail("open"))?;

    // One serial pass gives the reference at every prefix a phase stopped at.
    let prefix = recovery_prefix(n);
    let mut cuts = vec![prefix, scale.open_events, n];
    cuts.sort_unstable();
    cuts.dedup();
    let (references, reference_elapsed) = reference(w, &job, &inputs, &cuts);
    let reference_at = |events: usize| -> &Outcome {
        &references[cuts.binary_search(&events).expect("a cut per phase length")]
    };

    let recovery =
        recovery_phase(w, &job, &inputs[..prefix], &args.scratch).map_err(fail("recovery"))?;

    // The closed phase a second time, some seconds after the first.  On a
    // shared host the executor's speed drops by a third for seconds at a time
    // with what the neighbours do; two repetitions this far apart are rarely
    // both inside such an episode, and the better one is the measurement.
    let closed_late = closed_phase(
        w,
        &job,
        n,
        ObsConfig::new(),
        phase_dir("closed-again").path(),
    )
    .map_err(fail("second closed"))?;

    // ---- The correctness gate.
    let latency = LatencySummary::of(&open, scale.ramp_events);
    let failed_closed: u64 = [&closed_early, &closed_late]
        .iter()
        .map(|run| run.errors + run.outcome.differences(reference_at(n)))
        .sum();
    let closed = if closed_late.throughput_keps() > closed_early.throughput_keps() {
        &closed_late
    } else {
        &closed_early
    };
    let failed_open = open.errors
        + open.outcome.differences(reference_at(scale.open_events))
        + latency.never_completed;
    let failed_recovery: u64 = recovery.prefix.errors
        + recovery
            .outcomes
            .iter()
            .map(|recovered| recovered.differences(reference_at(prefix)))
            .sum::<u64>();
    let failed = failed_closed + failed_open + failed_recovery;
    let attempted = (2 * n + scale.open_events + prefix * RECOVERY_COPIES) as u64;

    // ---- End-to-end metrics.
    let mut values = Values::default();
    values.set("throughput_keps", closed.throughput_keps());
    values.set("latency_p50_ms", latency.p50_ms);
    values.set("latency_p95_ms", latency.p95_ms);
    let mut recover_ms: Vec<f64> = recovery.recover.iter().map(|d| ms(*d)).collect();
    values.set("recovery_ms", median(&mut recover_ms));
    let mut setups: Vec<f64> = [&closed_early.setup, &open.setup, &closed_late.setup]
        .iter()
        .map(|s| s.total().as_secs_f64())
        .collect();
    values.set("setup_s", median(&mut setups));

    // ---- Per-layer metrics the untraced phases already hold.
    journey_metrics(&mut values, w, closed, &latency);
    let nolock_keps = n as f64 / reference_elapsed.as_secs_f64() / 1e3;
    values.set("baseline.nolock_keps", nolock_keps);
    values.set("baseline.gap_frac", closed.throughput_keps() / nolock_keps);
    // The serving view of failure: a result later than the latency limit is
    // as good as none.  (`failed` itself counts wrong or missing results
    // only, so that a slow host yields a slow run, not an incorrect one.)
    let late = latency.late;
    values.set(
        "core.failed_share",
        (failed + late) as f64 / attempted as f64,
    );
    let replayed = recovery_replayed(prefix).max(1);
    let durable = &recovery.prefix;
    let batches = (prefix / PUNCTUATION) as f64;
    values.set(
        "recovery.wal_bytes_per_event",
        durable.report.wal_bytes as f64 / prefix as f64,
    );
    values.set(
        "recovery.fsyncs_per_batch",
        durable.metrics.wal_fsyncs as f64 / batches,
    );
    values.set(
        "recovery.fsync_ms_total",
        durable.metrics.wal_fsync_ns as f64 / 1e6,
    );

    let mut trace = None;
    if args.trace {
        let traced = probes::traced_run(w, &job, &inputs, &recovery, &args.scratch, &mut values)
            .map_err(fail("traced"))?;
        traced.metrics(&mut values, closed, replayed);
        trace = Some(traced.trace_json(&values));
    }
    let _ = std::fs::remove_dir_all(&args.scratch);

    // Last, so that it is the high-water mark of everything above.
    values.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));

    let mut missing = values.missing(&END_TO_END);
    if args.trace {
        missing.extend(values.missing(&PER_LAYER));
    }
    if !missing.is_empty() {
        return Err(format!("{}: metrics without a value: {missing:?}", w.name));
    }

    let mut invalid = Vec::new();
    if latency.gen_late_p99_ms > GEN_LATE_LIMIT_MS {
        invalid.push(format!(
            "generator ran late: gen_late_p99_ms {:.3} > {GEN_LATE_LIMIT_MS}",
            latency.gen_late_p99_ms
        ));
    }
    if late > 0 && !args.smoke {
        invalid.push(format!(
            "{late} open-phase events missed the {} ms latency limit",
            LATENCY_LIMIT.as_millis()
        ));
    }
    if latency.backlog_growing {
        invalid.push(format!(
            "backlog still growing at the end of the open schedule ({:.0} events)",
            latency.backlog_end
        ));
    }
    if host::nproc() < 2 {
        invalid.push("nproc < 2: generator and executor share one core".into());
    }

    let count = |v: u64| Json::Num(v as f64);
    let counts = vec![
        ("closed_events".into(), count(closed.report.events)),
        ("closed_committed".into(), count(closed.report.committed)),
        ("closed_rejected".into(), count(closed.report.rejected)),
        ("closed_batches".into(), count(closed.metrics.exec_batches)),
        (
            "closed_fast_path_batches".into(),
            count(closed.metrics.exec_fast_path_batches),
        ),
        (
            "closed_serial_replays".into(),
            count(closed.metrics.exec_serial_replays),
        ),
        (
            "closed_chains_built".into(),
            count(closed.metrics.exec_chains_built),
        ),
        ("closed_wal_bytes".into(), count(closed.report.wal_bytes)),
        ("open_events".into(), count(open.outcome.events)),
        ("open_committed".into(), count(open.outcome.committed)),
        ("open_rejected".into(), count(open.outcome.rejected)),
        ("recovery_prefix_events".into(), count(prefix as u64)),
        (
            "recovery_wal_bytes".into(),
            count(recovery.prefix.report.wal_bytes),
        ),
        ("failed_closed".into(), count(failed_closed)),
        ("failed_open".into(), count(failed_open)),
        ("failed_recovery".into(), count(failed_recovery)),
    ];

    Ok(RunResult {
        values,
        attempted,
        failed,
        invalid,
        scale,
        counts,
        trace,
    })
}

/// Slices of the open phase's measured window that the end-to-end latency
/// percentiles are taken over; the metric is the median slice's.  A stall of
/// some tens of ms on a shared host lands in one or two slices and is left
/// out; a slower engine is slower in every slice and moves the median.
const LATENCY_WINDOWS: usize = 8;

/// The open phase, summarised over its measured window (ramp excluded).
struct LatencySummary {
    p50_ms: f64,
    p95_ms: f64,
    batch_p50_ms: f64,
    /// Whole-window figures, stalls and all: the diagnostics.
    p99_ms: f64,
    /// Batch latency at the highest percentile its sample count supports.
    batch_hi_ms: f64,
    batch_hi_pct: f64,
    batch_samples: usize,
    /// Events that completed, but later than [`LATENCY_LIMIT`].
    late: u64,
    never_completed: u64,
    gen_late_p99_ms: f64,
    /// Mean backlog over the last tenth of the schedule.
    backlog_end: f64,
    backlog_growing: bool,
}

/// An event that never completed sorts after every one that did.
const NEVER: u64 = u64::MAX;

/// `pct`-th percentile of `latencies`, in ms.
fn percentile_ms(latencies: &[Option<u64>], pct: f64) -> f64 {
    let mut sorted: Vec<u64> = latencies.iter().map(|l| l.unwrap_or(NEVER)).collect();
    sorted.sort_unstable();
    percentile(&sorted, pct).map_or(f64::NAN, ns_to_ms)
}

/// Median over [`LATENCY_WINDOWS`] equal slices of each slice's percentile.
fn windowed_percentile_ms(latencies: &[Option<u64>], pct: f64) -> f64 {
    let window = latencies.len().div_ceil(LATENCY_WINDOWS).max(1);
    let mut per_window: Vec<f64> = latencies
        .chunks(window)
        .map(|slice| percentile_ms(slice, pct))
        .collect();
    median(&mut per_window)
}

impl LatencySummary {
    fn of(open: &OpenRun, ramp_events: usize) -> Self {
        let measured = &open.latency_ns[ramp_events..];
        // The event that closes a punctuation window waits for nothing but
        // the queue and its batch: window fill excluded.  The ramp is a whole
        // number of batches, so these are every 500th measured event.
        let closing: Vec<Option<u64>> = measured
            .iter()
            .skip(PUNCTUATION - 1)
            .step_by(PUNCTUATION)
            .copied()
            .collect();
        let limit = LATENCY_LIMIT.as_nanos() as u64;
        let late = measured.iter().flatten().filter(|&&ns| ns > limit).count() as u64;
        let batch_hi_pct = highest_supported_percentile(closing.len()).unwrap_or(50.0);

        let mut gen_late = open.gen_late_ns[ramp_events..].to_vec();
        gen_late.sort_unstable();

        let backlog = &open.backlog[ramp_events / PUNCTUATION..];
        let mean =
            |samples: &[u64]| samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64;
        let tail = (backlog.len() / 10).max(1);
        let backlog_end = mean(&backlog[backlog.len() - tail..]);
        let backlog_first_half = mean(&backlog[..backlog.len() / 2]);

        LatencySummary {
            p50_ms: windowed_percentile_ms(measured, 50.0),
            p95_ms: windowed_percentile_ms(measured, 95.0),
            batch_p50_ms: windowed_percentile_ms(&closing, 50.0),
            p99_ms: percentile_ms(measured, 99.0),
            batch_hi_ms: percentile_ms(&closing, batch_hi_pct),
            batch_hi_pct,
            batch_samples: closing.len(),
            late,
            never_completed: measured.iter().filter(|l| l.is_none()).count() as u64,
            gen_late_p99_ms: percentile(&gen_late, 99.0).map_or(f64::NAN, ns_to_ms),
            backlog_end,
            // In a steady open loop the backlog saw-tooths around one forming
            // batch plus the few in flight; three more batches than the first
            // half's mean is growth, not noise.
            backlog_growing: backlog_end > backlog_first_half + (3 * PUNCTUATION) as f64,
        }
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer metrics read off the untraced closed and open phases: the
/// engine's own public report and metrics snapshot, no extra work.
fn journey_metrics(
    values: &mut Values,
    w: &Workload,
    closed: &ClosedRun,
    latency: &LatencySummary,
) {
    let report = &closed.report;
    let m = &closed.metrics;
    let elapsed = closed.elapsed.as_secs_f64();
    let executor_time = elapsed * w.executors as f64;
    let backpressure = m.ingest_backpressure_wait_ns as f64 / 1e9;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;

    values.set("core.flush_ms", ms(closed.flush));
    values.set(
        "core.ingest_busy_share",
        closed.cpu.ingest.as_secs_f64() / elapsed,
    );
    values.set(
        "core.exec_busy_share",
        (report.compute_time + report.state_access_time).as_secs_f64() / executor_time,
    );
    values.set(
        "core.exec_cpu_share",
        closed.cpu.executors.as_secs_f64() / executor_time,
    );
    values.set(
        "recovery.wal_writer_cpu_share",
        closed.cpu.wal_writer.as_secs_f64() / elapsed,
    );
    values.set("core.compute_share", report.compute_mode_share());
    values.set(
        "core.sync_share",
        report.breakdown.sync.as_secs_f64() / executor_time,
    );
    values.set("core.backpressure_wait_share", backpressure / elapsed);
    values.set(
        "core.chains_per_batch",
        ratio(m.exec_chains_built, m.exec_restructured_batches),
    );
    values.set(
        "core.ops_per_chain",
        ratio(
            report.chain_stats.ops as u64,
            report.chain_stats.chains as u64,
        ),
    );
    values.set(
        "core.fast_path_share",
        ratio(m.exec_fast_path_batches, m.exec_batches),
    );
    values.set(
        "core.serial_replay_share",
        ratio(m.exec_serial_replays, m.exec_batches),
    );
    values.set(
        "core.chains_recycled_share",
        ratio(m.exec_chains_recycled, m.exec_chains_built),
    );
    values.set(
        "stream.barrier_wait_p50_us",
        m.exec_barrier_wait.p50 as f64 / 1e3,
    );
    values.set("core.latency_p99_ms", latency.p99_ms);
    values.set("core.batch_latency_p50_ms", latency.batch_p50_ms);
    values.set("core.batch_latency_hi_ms", latency.batch_hi_ms);
    values.set("core.batch_latency_hi_pct", latency.batch_hi_pct);
    values.set("core.batch_latency_samples", latency.batch_samples as f64);
    values.set("core.gen_late_p99_ms", latency.gen_late_p99_ms);
    values.set("core.backlog_end_events", latency.backlog_end);
    values.set(
        "apps.generate_ns_per_event",
        closed.setup.generate.as_nanos() as f64 / report.events.max(1) as f64,
    );
    values.set("state.store_build_ms", ms(closed.setup.store_build));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_line;
    use crate::workloads::WORKLOADS;

    /// The whole benchmark at a hundredth of its size, traced, so that every
    /// phase and every probe runs: all seven workloads are correct against
    /// the reference, report every declared metric, and sit on the execution
    /// paths their reasons claim.
    fn smoke(name: &str, seed: u64) -> RunResult {
        let workload = Workload::by_name(name).expect("a workload of that name");
        let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(format!("test-{name}-{seed}-{}", std::process::id()));
        let result = run_workload(&RunArgs {
            workload,
            seed,
            seconds: crate::workloads::REFERENCE_SECONDS,
            trace: true,
            smoke: true,
            scratch: scratch.clone(),
        })
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(!scratch.exists(), "{name}: scratch directory removed");
        assert!(result.correct(), "{name}: {:?}", result.counts);
        assert!(result.attempted >= 1);
        assert!(result.trace.is_some());
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = result_line(&result, trace);
            let metrics = line.get("metrics").expect("a metrics object").members();
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let declared: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(names, declared, "{name}");
        }
        result
    }

    fn count(result: &RunResult, key: &str) -> f64 {
        result
            .counts
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("count {key}"))
    }

    #[test]
    fn smoke_run_of_all_seven_workloads() {
        for w in &WORKLOADS {
            let result = smoke(w.name, 7);
            let share = |metric: &str| result.values.get(metric).unwrap();
            if w.name == "gs_sparse" {
                assert!(
                    share("core.fast_path_share") > 0.5,
                    "the fast-path workload"
                );
            } else {
                assert_eq!(share("core.fast_path_share"), 0.0, "{}", w.name);
            }
            if w.name == "gs_abort" {
                assert!(
                    share("core.serial_replay_share") > 0.0,
                    "the abort workload"
                );
                assert!(count(&result, "closed_rejected") > 0.0);
                assert!(share("core.replay_ns_per_event") > 0.0);
            } else {
                assert_eq!(share("core.serial_replay_share"), 0.0, "{}", w.name);
            }
            assert!(share("recovery.wal_bytes_per_event") > 0.0, "{}", w.name);
            assert!(share("txn.ops_per_event") >= 1.0, "{}", w.name);
            if w.executors > 1 {
                assert!(share("core.sync_share") > 0.0, "{}", w.name);
            }
            assert_eq!(
                count(&result, "closed_wal_bytes") > 0.0,
                w.durable,
                "only durable workloads log their closed phase: {}",
                w.name
            );
        }
    }

    #[test]
    fn the_same_seed_rejects_the_same_events() {
        let a = smoke("gs_abort", 11);
        let b = smoke("gs_abort", 11);
        for key in ["closed_rejected", "open_rejected", "closed_serial_replays"] {
            assert_eq!(count(&a, key), count(&b, key), "{key}");
        }
        assert_eq!(
            a.values.get("recovery.wal_bytes_per_event"),
            b.values.get("recovery.wal_bytes_per_event")
        );
    }
}
