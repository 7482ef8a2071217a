//! The measured phases of one workload run, each on a fresh store and
//! engine: the closed loop (throughput), the open loop (latency), the serial
//! reference (correctness, baseline) and crash recovery.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tstream::core::prelude::*;
use tstream::core::ObsConfig;
use tstream::state::StateResult;

use crate::host;
use crate::schedule::{Clock, Schedule};
use crate::stamped::{tag, Recorder, Stamped};
use crate::stats::median;
use crate::workloads::{Workload, CHECKPOINT_EVERY, PUNCTUATION};

/// An application, how to make its input and how to build its store.
pub struct Job<A: Application> {
    pub app: Arc<A>,
    /// `events` → the seeded input of that length.
    pub generate: Box<dyn Fn(usize) -> Vec<A::Payload>>,
    pub build_store: Box<dyn Fn() -> Arc<StateStore>>,
}

/// What a session left behind: counts and the final committed state.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub events: u64,
    pub committed: u64,
    pub rejected: u64,
    pub state: StoreSnapshot,
}

impl Outcome {
    fn of(report: &RunReport, store: &StateStore) -> Self {
        Outcome {
            events: report.events,
            committed: report.committed,
            rejected: report.rejected,
            state: StoreSnapshot::capture(store),
        }
    }

    /// How many events' worth of difference there is to `reference`: the
    /// distance between the commit counts plus one per record whose final
    /// value differs (0 = identical).
    pub fn differences(&self, reference: &Outcome) -> u64 {
        let counts = self.events.abs_diff(reference.events)
            + self.committed.abs_diff(reference.committed)
            + self.rejected.abs_diff(reference.rejected);
        let records: usize = self
            .state
            .tables
            .iter()
            .zip(&reference.state.tables)
            .map(|(ours, theirs)| {
                ours.entries
                    .iter()
                    .zip(&theirs.entries)
                    .filter(|(a, b)| a != b)
                    .count()
                    + ours.entries.len().abs_diff(theirs.entries.len())
            })
            .sum();
        let tables = self
            .state
            .tables
            .len()
            .abs_diff(reference.state.tables.len());
        counts + records as u64 + tables as u64
    }
}

/// Times of the set-up steps before the first timed push.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: Duration,
    pub store_build: Duration,
    /// `Engine::new` + session open (which spawns the executor pool).
    pub open: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.generate + self.store_build + self.open
    }
}

/// Generate the input and build the store, timing both.
pub fn prepare<A: Application>(
    job: &Job<A>,
    events: usize,
) -> (Vec<A::Payload>, Arc<StateStore>, SetupTimes) {
    let t = Instant::now();
    let inputs = (job.generate)(events);
    let generate = t.elapsed();
    let t = Instant::now();
    let store = (job.build_store)();
    let store_build = t.elapsed();
    let times = SetupTimes {
        generate,
        store_build,
        open: Duration::ZERO,
    };
    (inputs, store, times)
}

/// A durable workload's directory for one phase: every phase starts from an
/// empty log, and the directory goes when the phase is over.  `path()` is
/// `None` for workloads that are not durable.
pub struct PhaseDir(Option<PathBuf>);

impl PhaseDir {
    pub fn new(w: &Workload, scratch: &Path, phase: &str) -> Self {
        PhaseDir(w.durable.then(|| scratch.join(phase)))
    }

    pub fn path(&self) -> Option<&Path> {
        self.0.as_deref()
    }
}

impl Drop for PhaseDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Open a session the way the workload prescribes.
fn open_session<'e, B: Application>(
    w: &Workload,
    engine: &'e Engine,
    app: &Arc<B>,
    store: &Arc<StateStore>,
    dir: Option<&Path>,
) -> StateResult<Session<'e, B>>
where
    B::Payload: WalPayload,
{
    let builder = engine
        .session_builder(app, store, &Scheme::TStream)
        .pipeline_depth(4)
        .label(w.name);
    let session = match dir {
        Some(dir) => builder.durable(dir).open(),
        None => builder.open(),
    }?;
    // The pool is spawned by now: place its threads and this one.
    host::pin_engine_threads(w.executors);
    Ok(session)
}

/// Windows a closed run's throughput is taken over; see
/// [`ClosedRun::throughput_keps`].
pub const THROUGHPUT_WINDOWS: usize = 8;

/// Result of one closed-loop run.
pub struct ClosedRun {
    pub setup: SetupTimes,
    /// First `push` to `report()` returned.
    pub elapsed: Duration,
    /// Events per second of each of [`THROUGHPUT_WINDOWS`] equal slices of
    /// the input: from the push that starts a slice to the push that starts
    /// the next (`report()` returned, for the last).
    pub window_rates: Vec<f64>,
    /// The `report()` call: flush of the tail and drain of the pipeline.
    pub flush: Duration,
    pub report: RunReport,
    pub metrics: MetricsSnapshot,
    pub outcome: Outcome,
    /// `push` / `report` calls that returned an error.
    pub errors: u64,
    /// On-CPU time over `elapsed`, as the OS scheduler accounts it: the
    /// pushing thread, the executor threads together, the WAL writer.
    pub cpu: ThreadCpu,
}

/// On-CPU time of the engine's threads over a closed run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadCpu {
    pub ingest: Duration,
    pub executors: Duration,
    pub wal_writer: Duration,
}

impl ThreadCpu {
    /// What each thread burned between two samples of
    /// [`host::thread_cpu_ns`], sorted into roles by the names the engine
    /// gives its threads.
    fn between(before: &[(u64, String, u64)], after: &[(u64, String, u64)]) -> Self {
        let me = host::current_tid();
        let mut cpu = ThreadCpu::default();
        for (tid, name, run_ns) in after {
            let earlier = before
                .iter()
                .find(|(t, _, _)| t == tid)
                .map_or(0, |(_, _, ns)| *ns);
            let spent = Duration::from_nanos(run_ns.saturating_sub(earlier));
            if Some(*tid) == me {
                cpu.ingest += spent;
            } else if name.starts_with("tstream-exec") {
                cpu.executors += spent;
            } else if name.starts_with("tstream-wal") {
                cpu.wal_writer += spent;
            }
        }
        cpu
    }
}

impl ClosedRun {
    /// Closed-loop throughput, k events/s: the median of the window rates.
    /// On a shared host a stall of some tens of ms (a neighbour, a daemon)
    /// lands in one or two windows; the median leaves it out, where events
    /// over elapsed would carry it whole.
    pub fn throughput_keps(&self) -> f64 {
        median(&mut self.window_rates.clone()) / 1e3
    }
}

/// Every `push` of a traced closed run as a span: start (ns since `epoch`,
/// the span recorder's, so all spans share one clock) and duration.
pub struct PushTrace {
    epoch: Instant,
    pub start_ns: Vec<u64>,
    pub duration_ns: Vec<u32>,
}

impl PushTrace {
    /// Room for `events` pushes, allocated before the run starts.
    pub fn new(epoch: Instant, events: usize) -> Self {
        PushTrace {
            epoch,
            start_ns: Vec::with_capacity(events),
            duration_ns: Vec::with_capacity(events),
        }
    }
}

/// Closed loop: one producer pushes `inputs` as fast as backpressure admits,
/// then reports.  `trace`, when given, receives every push as a span (the
/// traced run; the untraced loop reads no clock between pushes).
pub fn closed_run<B: Application>(
    w: &Workload,
    app: &Arc<B>,
    store: &Arc<StateStore>,
    inputs: impl ExactSizeIterator<Item = B::Payload>,
    obs: ObsConfig,
    dir: Option<&Path>,
    trace: Option<&mut PushTrace>,
) -> StateResult<ClosedRun>
where
    B::Payload: WalPayload,
{
    let t = Instant::now();
    let engine = Engine::new(w.engine_config(obs));
    let mut session = open_session(w, &engine, app, store, dir)?;
    // The caller adds what it spent on the input and the store.
    let setup = SetupTimes {
        open: t.elapsed(),
        ..SetupTimes::default()
    };

    let mut errors = 0u64;
    let window = inputs.len().div_ceil(THROUGHPUT_WINDOWS).max(1);
    // (events pushed, when) at each window boundary.
    let mut marks: Vec<(usize, Instant)> = Vec::with_capacity(THROUGHPUT_WINDOWS + 2);
    let cpu_before = host::thread_cpu_ns();
    let started = Instant::now();
    marks.push((0, started));
    let mut pushed = 0usize;
    match trace {
        None => {
            for payload in inputs {
                errors += session.push(payload).is_err() as u64;
                pushed += 1;
                if pushed.is_multiple_of(window) {
                    marks.push((pushed, Instant::now()));
                }
            }
        }
        Some(trace) => {
            for payload in inputs {
                let t = Instant::now();
                errors += session.push(payload).is_err() as u64;
                let spent = t.elapsed();
                pushed += 1;
                if pushed.is_multiple_of(window) {
                    marks.push((pushed, t + spent));
                }
                trace
                    .start_ns
                    .push(t.duration_since(trace.epoch).as_nanos() as u64);
                trace
                    .duration_ns
                    .push(spent.as_nanos().min(u32::MAX as u128) as u32);
            }
        }
    }
    let push_loop = started.elapsed();
    let report = session.report()?;
    let ended = Instant::now();
    let elapsed = ended - started;
    let cpu = ThreadCpu::between(&cpu_before, &host::thread_cpu_ns());
    // The last window ends when everything pushed has been processed.
    match marks.last_mut() {
        Some(last) if last.0 == pushed && pushed > 0 => last.1 = ended,
        _ => marks.push((pushed, ended)),
    }
    let window_rates = marks
        .windows(2)
        .map(|pair| (pair[1].0 - pair[0].0) as f64 / (pair[1].1 - pair[0].1).as_secs_f64())
        .collect();
    Ok(ClosedRun {
        setup,
        elapsed,
        window_rates,
        flush: elapsed - push_loop,
        metrics: engine.metrics_snapshot(),
        outcome: Outcome::of(&report, store),
        report,
        errors,
        cpu,
    })
}

/// Closed loop over the bare application on a freshly generated input of
/// `events` events.  Payloads are moved into `push`, as a real producer
/// would: the timed loop clones nothing.
pub fn closed_phase<A: Application>(
    w: &Workload,
    job: &Job<A>,
    events: usize,
    obs: ObsConfig,
    dir: Option<&Path>,
) -> StateResult<ClosedRun>
where
    A::Payload: WalPayload,
{
    let (inputs, store, prepared) = prepare(job, events);
    let mut run = closed_run(w, &job.app, &store, inputs.into_iter(), obs, dir, None)?;
    run.setup.generate = prepared.generate;
    run.setup.store_build = prepared.store_build;
    Ok(run)
}

/// The serial reference: No-Lock on one executor is timestamp order by
/// construction.  Runs `inputs` in consecutive slices ending at each of
/// `cuts` (ascending event counts) over one store, and returns the outcome
/// at every cut plus the execution time of all slices together.
pub fn reference<A: Application>(
    w: &Workload,
    job: &Job<A>,
    inputs: &[A::Payload],
    cuts: &[usize],
) -> (Vec<Outcome>, Duration) {
    let store = (job.build_store)();
    let config = Workload { executors: 1, ..*w }.engine_config(ObsConfig::disabled());
    let engine = Engine::new(config);
    let scheme = Scheme::Eager(Arc::new(NoLockScheme::new()));
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(cuts.len());
    let mut elapsed = Duration::ZERO;
    let mut from = 0;
    for &cut in cuts {
        let report = engine.run_offline(&job.app, &store, inputs[from..cut].to_vec(), &scheme);
        elapsed += report.elapsed;
        let mut outcome = Outcome::of(&report, &store);
        if let Some(previous) = outcomes.last() {
            outcome.events += previous.events;
            outcome.committed += previous.committed;
            outcome.rejected += previous.rejected;
        }
        outcomes.push(outcome);
        from = cut;
    }
    (outcomes, elapsed)
}

/// How long the open-loop generator sleeps at least, when it is early.
pub const GENERATOR_TICK_NS: u64 = 100_000;

/// The pacing loop's clock: the recorder's, offset to the schedule start.
struct OpenClock<'a> {
    recorder: &'a Recorder,
    start_ns: u64,
}

impl Clock for OpenClock<'_> {
    fn now_ns(&self) -> u64 {
        self.recorder.now_ns().saturating_sub(self.start_ns)
    }

    /// Whenever it is early the generator sleeps a whole tick, then sends
    /// everything that fell due meanwhile back to back: events leave up to a
    /// tick (plus the kernel's timer slack) late, and that lateness is in
    /// every latency, which is counted from the due time.  Spinning to each
    /// due time instead would pin a core at 100 %: on a small host any other
    /// process then has to take its time from the generator or the executor,
    /// and the latencies describe that process.  A sleeping generator leaves
    /// its core free for it.
    #[allow(clippy::disallowed_methods)] // pacing by the clock is the job
    fn idle(&self, remaining_ns: u64) {
        std::thread::sleep(Duration::from_nanos(remaining_ns.max(GENERATOR_TICK_NS)));
    }
}

/// Result of one open-loop run.
pub struct OpenRun {
    pub setup: SetupTimes,
    /// Due time → `post_process`, per event in input order; `None` for an
    /// event that never completed.  Ramp events included.
    pub latency_ns: Vec<Option<u64>>,
    /// How late each push started against its due time.
    pub gen_late_ns: Vec<u64>,
    /// Events pushed but not yet completed, sampled after each
    /// batch-closing push.
    pub backlog: Vec<u64>,
    pub outcome: Outcome,
    pub errors: u64,
}

/// Open loop: event `i` is due `i / rate` after the start and is pushed then
/// (or as soon after as the previous push returns).  Generates `events`
/// events like the closed phase (a further sample of the set-up time), pushes
/// the first `open_events`, and hands the whole input back for the phases
/// that follow.
pub fn open_phase<A: Application>(
    w: &Workload,
    job: &Job<A>,
    events: usize,
    open_events: usize,
    obs: ObsConfig,
    dir: Option<&Path>,
) -> StateResult<(OpenRun, Vec<A::Payload>)>
where
    A::Payload: WalPayload,
{
    let (inputs, store, mut setup) = prepare(job, events);
    let recorder = Recorder::for_latency(open_events);
    let app = Stamped::new(job.app.clone(), recorder.clone());
    let t = Instant::now();
    let engine = Engine::new(w.engine_config(obs));
    let mut session = open_session(w, &engine, &app, &store, dir)?;
    setup.open = t.elapsed();

    // Tagged and cloned before the schedule starts, then moved into `push`:
    // the generator must be able to run well ahead of the rate it paces.
    let tagged: Vec<_> = tag(inputs[..open_events].iter().cloned()).collect();
    let schedule = Schedule::new(w.open_rate);
    let clock = OpenClock {
        recorder: &recorder,
        start_ns: recorder.now_ns(),
    };
    let mut errors = 0u64;
    let mut backlog = Vec::with_capacity(open_events / PUNCTUATION);
    let gen_late_ns = {
        let mut tagged = tagged.into_iter();
        schedule.run(&clock, open_events, |idx| {
            let payload = tagged.next().expect("one payload per scheduled event");
            errors += session.push(payload).is_err() as u64;
            if idx % PUNCTUATION == PUNCTUATION - 1 {
                backlog.push((idx as u64 + 1).saturating_sub(recorder.completed()));
            }
        })
    };
    let report = session.report()?;

    let latency_ns = (0..open_events)
        .map(|idx| {
            let due = clock.start_ns + schedule.due_ns(idx);
            recorder.done_ns(idx).map(|done| done.saturating_sub(due))
        })
        .collect();
    let run = OpenRun {
        setup,
        latency_ns,
        gen_late_ns,
        backlog,
        outcome: Outcome::of(&report, &store),
        errors,
    };
    Ok((run, inputs))
}

/// Events in the recovery measurement's durable prefix: enough batches for
/// one checkpoint, then one batch short of the next — so the directory holds
/// a checkpoint plus `CHECKPOINT_EVERY - 1` sealed segments to replay.
pub fn recovery_prefix(closed_events: usize) -> usize {
    ((2 * CHECKPOINT_EVERY - 1) * PUNCTUATION).min(closed_events)
}

/// Events recovery has to replay from the WAL after such a prefix.
pub fn recovery_replayed(prefix: usize) -> usize {
    prefix.saturating_sub(CHECKPOINT_EVERY * PUNCTUATION)
}

/// Copies of the crashed directory recovery is timed over.
pub const RECOVERY_COPIES: usize = 3;

/// Result of the recovery measurement.
pub struct RecoveryRun {
    /// The durable run that wrote the directory.
    pub prefix: ClosedRun,
    /// `open()` + `flush()` of a recovering session, per directory copy.
    pub recover: Vec<Duration>,
    /// The recovered outcome of each copy.
    pub outcomes: Vec<Outcome>,
    /// One copy of the directory as the crash left it, for the probes.
    pub directory: PathBuf,
}

/// Crash recovery: run `inputs` through a durable session into a fresh
/// directory under `scratch` and stop there (as a crash right after the last
/// seal would), then time a recovering session on fresh engines and stores
/// over copies of the directory.
pub fn recovery_phase<A: Application>(
    w: &Workload,
    job: &Job<A>,
    inputs: &[A::Payload],
    scratch: &Path,
) -> StateResult<RecoveryRun>
where
    A::Payload: WalPayload,
{
    let directory = scratch.join("crashed");
    let store = (job.build_store)();
    let prefix = closed_run(
        w,
        &job.app,
        &store,
        inputs.iter().cloned(),
        ObsConfig::new(),
        Some(&directory),
        None,
    )?;

    let mut recover = Vec::with_capacity(RECOVERY_COPIES);
    let mut outcomes = Vec::with_capacity(RECOVERY_COPIES);
    for copy in 0..RECOVERY_COPIES {
        let dir = scratch.join(format!("recover-{copy}"));
        copy_dir(&directory, &dir)?;
        let store = (job.build_store)();
        let engine = Engine::new(w.engine_config(ObsConfig::new()));
        let t = Instant::now();
        let mut session = engine
            .session_builder(&job.app, &store, &Scheme::TStream)
            .pipeline_depth(4)
            .durable(&dir)
            .recover()
            .open()?;
        host::pin_engine_threads(w.executors);
        session.flush()?;
        recover.push(t.elapsed());
        let report = session.report()?;
        outcomes.push(Outcome::of(&report, &store));
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(RecoveryRun {
        prefix,
        recover,
        outcomes,
        directory,
    })
}

/// Copy a directory tree of regular files.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}
