//! Uniform benchmark runner.
//!
//! The experiments of the `tstream-bench` driver sweep (application × scheme
//! × cores × workload knobs).  Applications have different payload types, so
//! this module provides the small amount of dynamic dispatch needed to drive
//! any combination through one function, plus table-formatting helpers shared
//! by every experiment.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use tstream_core::{Engine, EngineConfig, RunReport, Scheme};
use tstream_recovery::WalPayload;
use tstream_state::{StateResult, StateStore, StoreSnapshot};
use tstream_txn::Application;
use tstream_txn::{
    lock_based::LockScheme,
    mvlk::MvlkScheme,
    nolock::NoLockScheme,
    occ::OccScheme,
    pat::PatScheme,
    to::{ToPolicy, ToScheme},
};

use crate::workload::WorkloadSpec;
use crate::{gs, ob, sl, tp};

/// The five schemes compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Upper bound: all synchronisation removed.
    NoLock,
    /// S2PL with a centralized lockAhead counter.
    Lock,
    /// Multi-version locking with per-state `lwm` counters.
    Mvlk,
    /// Partition-based ordering (S-Store style).
    Pat,
    /// TStream (dual-mode scheduling + dynamic restructuring).
    TStream,
    /// Basic timestamp ordering (order-unaware; Section II-C discussion).
    /// Rejects transactions that fail the freshness check.
    To,
    /// Backward-validation OCC (order-unaware; Section II-C discussion).
    Occ,
}

impl SchemeKind {
    /// All schemes in the order of the paper's legends.
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::NoLock,
        SchemeKind::Lock,
        SchemeKind::Mvlk,
        SchemeKind::Pat,
        SchemeKind::TStream,
    ];

    /// Consistency-preserving schemes only (Figure 13 excludes No-Lock from
    /// some comparisons; keeping it separate is convenient for harnesses).
    pub const CONSISTENT: [SchemeKind; 4] = [
        SchemeKind::Lock,
        SchemeKind::Mvlk,
        SchemeKind::Pat,
        SchemeKind::TStream,
    ];

    /// The classic order-unaware concurrency controls discussed (and
    /// dismissed) in Section II-C; compared by the `sec2c_order_unaware`
    /// experiment, never by the paper's main figures.
    pub const ORDER_UNAWARE: [SchemeKind; 2] = [SchemeKind::To, SchemeKind::Occ];

    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::NoLock => "No-Lock",
            SchemeKind::Lock => "LOCK",
            SchemeKind::Mvlk => "MVLK",
            SchemeKind::Pat => "PAT",
            SchemeKind::TStream => "TStream",
            SchemeKind::To => "T/O",
            SchemeKind::Occ => "OCC",
        }
    }

    /// Instantiate the scheme; `partitions` is only used by PAT.
    pub fn build(&self, partitions: u32) -> Scheme {
        match self {
            SchemeKind::NoLock => Scheme::Eager(Arc::new(NoLockScheme::new())),
            SchemeKind::Lock => Scheme::Eager(Arc::new(LockScheme::new())),
            SchemeKind::Mvlk => Scheme::Eager(Arc::new(MvlkScheme::new())),
            SchemeKind::Pat => Scheme::Eager(Arc::new(PatScheme::new(partitions))),
            SchemeKind::TStream => Scheme::TStream,
            SchemeKind::To => Scheme::Eager(Arc::new(ToScheme::new(ToPolicy::Reject))),
            SchemeKind::Occ => Scheme::Eager(Arc::new(OccScheme::default())),
        }
    }
}

/// The four benchmark applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Grep and Sum.
    Gs,
    /// Streaming Ledger.
    Sl,
    /// Online Bidding.
    Ob,
    /// Toll Processing.
    Tp,
}

impl AppKind {
    /// All applications in the order of Figure 8.
    pub const ALL: [AppKind; 4] = [AppKind::Gs, AppKind::Sl, AppKind::Ob, AppKind::Tp];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            AppKind::Gs => "GS",
            AppKind::Sl => "SL",
            AppKind::Ob => "OB",
            AppKind::Tp => "TP",
        }
    }
}

/// Options controlling one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Workload parameters.
    pub spec: WorkloadSpec,
    /// Engine configuration (executors, punctuation interval, placement...).
    pub engine: EngineConfig,
    /// Partitions handed to the PAT scheme (should match `spec.partitions`).
    pub pat_partitions: u32,
    /// GS only: whether the Sum computation runs (Figure 11a disables it).
    pub gs_with_summation: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        let spec = WorkloadSpec::default();
        RunOptions {
            spec,
            engine: EngineConfig::default(),
            pat_partitions: spec.partitions,
            gs_with_summation: true,
        }
    }
}

impl RunOptions {
    /// Convenience constructor.
    pub fn new(spec: WorkloadSpec, engine: EngineConfig) -> Self {
        RunOptions {
            spec,
            engine,
            pat_partitions: spec.partitions,
            gs_with_summation: true,
        }
    }
}

/// How a benchmark run is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionPath {
    /// The streaming runtime: online batch formation pipelined onto the
    /// engine's persistent executor pool ([`Engine::run`], which streams
    /// the input through a `Session`).
    #[default]
    Pipelined,
    /// The seed's offline mode: pre-materialize every batch, then execute
    /// with scoped per-run threads ([`Engine::run_offline`]).  Kept as the
    /// differential baseline — results must be identical to `Pipelined`.
    Offline,
}

/// What to do with one benchmark application once its concrete payload
/// type is known: [`visit_app`] builds the application, its store and its
/// input from the run options and hands them to the visitor.
trait AppVisitor {
    type Out;
    fn visit<A>(self, app: A, store: Arc<StateStore>, payloads: Vec<A::Payload>) -> Self::Out
    where
        A: Application,
        A::Payload: WalPayload;
}

/// The one place the four applications are matched against their types.
fn visit_app<V: AppVisitor>(app: AppKind, options: &RunOptions, visitor: V) -> V::Out {
    let spec = &options.spec;
    match app {
        AppKind::Gs => visitor.visit(
            gs::GrepSum {
                with_summation: options.gs_with_summation,
            },
            gs::build_store(spec),
            gs::generate(spec),
        ),
        AppKind::Sl => visitor.visit(
            sl::StreamingLedger,
            sl::build_store(spec),
            sl::generate(spec),
        ),
        AppKind::Ob => visitor.visit(ob::OnlineBidding, ob::build_store(spec), ob::generate(spec)),
        AppKind::Tp => visitor.visit(
            tp::TollProcessing,
            tp::build_store(spec),
            tp::generate(spec),
        ),
    }
}

/// Run the whole input under `scheme` on `path`, returning the report and
/// the final store snapshot.
struct Drive<'a> {
    engine: &'a Engine,
    scheme: &'a Scheme,
    path: ExecutionPath,
}

impl AppVisitor for Drive<'_> {
    type Out = (RunReport, StoreSnapshot);

    fn visit<A: Application>(
        self,
        app: A,
        store: Arc<StateStore>,
        payloads: Vec<A::Payload>,
    ) -> Self::Out {
        let app = Arc::new(app);
        let report = match self.path {
            ExecutionPath::Pipelined => self.engine.run(&app, &store, payloads, self.scheme),
            ExecutionPath::Offline => self.engine.run_offline(&app, &store, payloads, self.scheme),
        };
        (report, StoreSnapshot::capture(&store))
    }
}

/// Drive a durable (write-ahead-logged) session over `dir`: recover whatever
/// the directory already holds, then push `payloads[ingested..until]`.
struct DriveDurable<'a> {
    engine: &'a Engine,
    scheme: &'a Scheme,
    dir: &'a Path,
    until: Option<usize>,
}

impl AppVisitor for DriveDurable<'_> {
    type Out = StateResult<(RunReport, StoreSnapshot)>;

    fn visit<A>(self, app: A, store: Arc<StateStore>, payloads: Vec<A::Payload>) -> Self::Out
    where
        A: Application,
        A::Payload: WalPayload,
    {
        let mut session = self
            .engine
            .session_builder(&Arc::new(app), &store, self.scheme)
            .durable(self.dir)
            .open()?;
        let start = session.ingested() as usize;
        let stop = self.until.unwrap_or(payloads.len()).min(payloads.len());
        for payload in payloads.into_iter().take(stop).skip(start) {
            session.push(payload)?;
        }
        let report = session.report()?;
        Ok((report, StoreSnapshot::capture(&store)))
    }
}

/// Run one (application, scheme) combination and return the report.
///
/// The store is built from `options.spec`, so its shard count is
/// authoritative: the engine's `num_shards` is aligned to `spec.shards` here,
/// keeping chain-pool routing and physical record placement in agreement
/// (one knob — `WorkloadSpec::shards` — controls both).
pub fn run_benchmark(app: AppKind, scheme: SchemeKind, options: &RunOptions) -> RunReport {
    run_benchmark_via(app, scheme, options, ExecutionPath::Pipelined)
}

/// [`run_benchmark`] with an explicit [`ExecutionPath`] — the differential
/// tests drive the pipelined runtime and the offline baseline through this
/// single entry point.
pub fn run_benchmark_via(
    app: AppKind,
    scheme: SchemeKind,
    options: &RunOptions,
    path: ExecutionPath,
) -> RunReport {
    run_benchmark_with_snapshot(app, scheme, options, path).0
}

/// Run one (application, scheme) combination through a **durable session**
/// over `dir` — the `--durable` / `--recover` path of the benchmark
/// harnesses.
///
/// The call is self-positioning: it first recovers whatever durability state
/// `dir` already holds (an empty directory starts a fresh log), then pushes
/// the generated input from the first not-yet-ingested event up to `until`
/// (exclusive; `None` = the whole input).  Calling it once with
/// `until = Some(n)` and again with `until = None` over the same directory
/// therefore models a crash after `n` events followed by a recovery that
/// finishes the stream — the second report carries the *cumulative* counts.
///
/// Returns the report and the final key-sorted store snapshot, so harnesses
/// can compare recovered runs byte-for-byte against uninterrupted ones.
pub fn run_benchmark_durable(
    app: AppKind,
    scheme: SchemeKind,
    options: &RunOptions,
    dir: &Path,
    until: Option<usize>,
) -> StateResult<(RunReport, StoreSnapshot)> {
    let engine = Engine::new(options.engine.shards(options.spec.shards as usize));
    let scheme = scheme.build(options.pat_partitions);
    let result = visit_app(
        app,
        options,
        DriveDurable {
            engine: &engine,
            scheme: &scheme,
            dir,
            until,
        },
    );
    maybe_dump_metrics(&engine, app);
    result
}

/// Result of one concurrent multi-session run: the per-session reports
/// (labelled with the app they drove) plus the shared wall-clock window.
#[derive(Debug, Clone)]
pub struct ConcurrentRun {
    /// One report per session, in the order of the `apps` argument.
    pub reports: Vec<RunReport>,
    /// Wall-clock duration from the first session opening to the last
    /// report, shared by all sessions.
    pub elapsed: Duration,
}

impl ConcurrentRun {
    /// Total events across every session.
    pub fn events(&self) -> u64 {
        self.reports.iter().map(|r| r.events).sum()
    }

    /// Aggregate throughput over the shared wall-clock window, in thousands
    /// of events per second.
    pub fn aggregate_keps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.events() as f64 / self.elapsed.as_secs_f64() / 1_000.0
    }
}

/// One fully prepared session run, waiting for the timed window.
type PreparedSession = Box<dyn FnOnce(&Engine) -> RunReport + Send>;

/// Prepare a labelled plain session that pushes the whole input from the
/// thread that eventually calls it.
struct SessionThread {
    scheme: Scheme,
    label: &'static str,
}

impl AppVisitor for SessionThread {
    type Out = PreparedSession;

    fn visit<A: Application>(
        self,
        app: A,
        store: Arc<StateStore>,
        payloads: Vec<A::Payload>,
    ) -> Self::Out {
        Box::new(move |engine: &Engine| {
            let mut session = engine
                .session_builder(&Arc::new(app), &store, &self.scheme)
                .label(self.label)
                .open()
                .expect("plain sessions cannot fail to open");
            for payload in payloads {
                session
                    .push(payload)
                    .expect("plain sessions cannot fail to push");
            }
            session
                .report()
                .expect("plain sessions cannot fail to report")
        })
    }
}

/// Run one session **per entry of `apps`, concurrently, on one engine**:
/// each session gets its own store, workload and scheme instance, is pushed
/// from its own thread, and is labelled with its app, so the reports stay
/// attributable.  The sessions multiplex over the engine's shared executor
/// pool — this is the multi-client shape the session scheduler exists for.
pub fn run_benchmark_concurrent(
    apps: &[AppKind],
    scheme: SchemeKind,
    options: &RunOptions,
) -> ConcurrentRun {
    let engine = Engine::new(options.engine.shards(options.spec.shards as usize));
    // Build every session's store, workload and scheme instance (eager
    // schemes carry per-run counters that concurrent sessions must not
    // share) *before* the clock starts: the shared window must measure
    // push-to-report work only, so the aggregate rows stay comparable to
    // the per-app throughput points.
    let jobs: Vec<PreparedSession> = apps
        .iter()
        .map(|&app| {
            let visitor = SessionThread {
                scheme: scheme.build(options.pat_partitions),
                label: app.label(),
            };
            visit_app(app, options, visitor)
        })
        .collect();
    let started = std::time::Instant::now();
    let reports: Vec<RunReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let engine = &engine;
                scope.spawn(move || job(engine))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    ConcurrentRun {
        reports,
        elapsed: started.elapsed(),
    }
}

/// [`run_benchmark_via`] that also returns the final key-sorted store
/// snapshot — what the crash-recovery differential harnesses compare
/// durable runs against.
pub fn run_benchmark_with_snapshot(
    app: AppKind,
    scheme: SchemeKind,
    options: &RunOptions,
    path: ExecutionPath,
) -> (RunReport, StoreSnapshot) {
    let engine = Engine::new(options.engine.shards(options.spec.shards as usize));
    let scheme = scheme.build(options.pat_partitions);
    let result = visit_app(
        app,
        options,
        Drive {
            engine: &engine,
            scheme: &scheme,
            path,
        },
    );
    maybe_dump_metrics(&engine, app);
    result
}

/// Dump the engine's full metrics scrape to stderr when `TSTREAM_METRICS`
/// is set — ad-hoc observability for any figure harness or differential
/// test without threading a flag through every entry point.
fn maybe_dump_metrics(engine: &Engine, app: AppKind) {
    if std::env::var_os("TSTREAM_METRICS").is_some() {
        eprintln!(
            "--- metrics ({}) ---\n{}",
            app.label(),
            engine.metrics_text()
        );
    }
}

/// Format a duration as milliseconds with two decimals.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1_000.0)
}

/// Format a throughput figure (K events/s) with one decimal.
pub fn fmt_keps(v: f64) -> String {
    format!("{v:.1}")
}

/// Render one row of a fixed-width text table.
pub fn table_row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (i, cell) in cells.iter().enumerate() {
        let width = widths.get(i).copied().unwrap_or(12);
        out.push_str(&format!("{cell:>width$}  "));
    }
    out.trim_end().to_owned()
}

/// Render a full fixed-width text table (header + rows).
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = table_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    );
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&table_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_all_variants() {
        assert_eq!(SchemeKind::ALL.len(), 5);
        assert_eq!(AppKind::ALL.len(), 4);
        assert_eq!(SchemeKind::TStream.label(), "TStream");
        assert_eq!(AppKind::Tp.label(), "TP");
        assert_eq!(SchemeKind::CONSISTENT.len(), 4);
        assert_eq!(SchemeKind::ORDER_UNAWARE.len(), 2);
        assert_eq!(SchemeKind::To.label(), "T/O");
        assert_eq!(SchemeKind::Occ.label(), "OCC");
    }

    #[test]
    fn order_unaware_schemes_run_but_are_not_part_of_the_paper_comparison() {
        // They must be runnable through the same dispatch (used by the
        // sec2c_order_unaware harness) without being listed in ALL/CONSISTENT.
        let mut options = RunOptions::default();
        options.spec = options.spec.events(300);
        options.engine = EngineConfig::with_executors(2).punctuation(100);
        for scheme in SchemeKind::ORDER_UNAWARE {
            assert!(!SchemeKind::ALL.contains(&scheme));
            assert!(!SchemeKind::CONSISTENT.contains(&scheme));
            let report = run_benchmark(AppKind::Gs, scheme, &options);
            assert_eq!(report.events, 300);
            assert_eq!(report.committed + report.rejected, 300);
        }
    }

    #[test]
    fn every_app_runs_under_every_scheme_smoke() {
        // A very small end-to-end sweep: 2 executors, 200 events per app.
        let mut options = RunOptions::default();
        options.spec = options.spec.events(200);
        options.engine = EngineConfig::with_executors(2).punctuation(50);
        for app in AppKind::ALL {
            for scheme in SchemeKind::ALL {
                let report = run_benchmark(app, scheme, &options);
                assert_eq!(report.events, 200, "{} / {}", app.label(), scheme.label());
                assert_eq!(report.committed + report.rejected, 200);
                assert!(report.throughput_keps() > 0.0);
            }
        }
    }

    #[test]
    fn pipelined_and_offline_paths_agree() {
        let mut options = RunOptions::default();
        options.spec = options.spec.events(400).seed(0x51);
        options.engine = EngineConfig::with_executors(2).punctuation(100);
        let pipelined = run_benchmark_via(
            AppKind::Sl,
            SchemeKind::TStream,
            &options,
            ExecutionPath::Pipelined,
        );
        let offline = run_benchmark_via(
            AppKind::Sl,
            SchemeKind::TStream,
            &options,
            ExecutionPath::Offline,
        );
        assert_eq!(pipelined.committed, offline.committed);
        assert_eq!(pipelined.rejected, offline.rejected);
        assert_eq!(pipelined.events, offline.events);
        assert_eq!(ExecutionPath::default(), ExecutionPath::Pipelined);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["scheme", "keps"],
            &[
                vec!["LOCK".into(), "12.3".into()],
                vec!["TStream".into(), "45.6".into()],
            ],
        );
        assert!(table.contains("TStream"));
        assert!(table.lines().count() >= 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.50");
        assert_eq!(fmt_keps(123.456), "123.5");
    }
}
