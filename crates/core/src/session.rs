//! Streaming sessions: continuous ingestion over the shared runtime.
//!
//! A [`Session`] is the engine's one streaming handle, built with
//! [`Engine::session_builder`].  It connects the three pipeline stages:
//!
//! * **ingestion** — [`Session::push`] stamps the payload at arrival time
//!   and feeds the engine's online
//!   [`tstream_stream::source::BatchBuilder`]; in durable mode the payload
//!   is appended to the write-ahead log first;
//! * **execution** — every completed punctuation batch is staged with the
//!   pool's session scheduler ([`crate::runtime::ExecutorPool`]) and
//!   injected round-robin with the batches of every other open session, so
//!   batch *k + 1* forms while batch *k* executes and N sessions interleave
//!   at punctuation granularity; a full staging queue blocks only this
//!   session's `push` (per-session backpressure);
//! * **sink** — [`Session::report`] flushes the trailing partial batch,
//!   waits for the pool to drain this session's work, and aggregates the
//!   same [`RunReport`] an offline run produces.
//!
//! Sessions of one engine run **concurrently**: each has its own epoch
//! counters, barrier, accumulator slots and report, and the scheduler keeps
//! their batches from interleaving *within* a batch.  Two caveats are the
//! caller's to uphold, exactly as with two independent engines: concurrent
//! sessions must not share one [`StateStore`] (each session resets and owns
//! its store's synchronisation state) and must not share one eager-scheme
//! instance (scheme counters are per run).  Durability directories are
//! guarded for them: a second durable open over a directory with a live
//! session in this process is rejected.  Results are deterministic —
//! identical inputs produce the same committed / rejected counts and final
//! store state as [`Engine::run_offline`], which the `session_runtime` and
//! `concurrent_sessions` differential suites pin down.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use tstream_obs::{clock, Stopwatch, TraceKind};
use tstream_recovery::DurableLog;
use tstream_state::{StateResult, StateStore};
use tstream_stream::source::BatchBuilder;
use tstream_txn::{Application, TxnDescriptor};

use crate::adaptive::{AdaptiveConfig, AdaptiveIntervalController, IntervalObservation};
use crate::chains::StateIndex;
use crate::engine::{Engine, EngineBatch, ExecutorState, RunContext, RunReport, Scheme};
use crate::runtime::{ExecutorPool, SessionToken};

/// Payload of a panic caught on a pool worker.
type PanicPayload = Box<dyn Any + Send + 'static>;

/// Tracks finished per-executor batch jobs — and the first panic any of
/// them raised — so `flush` can wait for the pool to drain this session's
/// work and re-raise the failure on the caller's thread.
#[derive(Default)]
struct Completion {
    state: Mutex<CompletionState>,
    cv: Condvar,
}

#[derive(Default)]
struct CompletionState {
    done: u64,
    panic: Option<PanicPayload>,
}

impl Completion {
    fn mark_one(&self) {
        let mut state = self.state.lock();
        state.done += 1;
        drop(state);
        self.cv.notify_all();
    }

    /// Jobs finished so far (sampled for the staged-depth gauge).
    fn done(&self) -> u64 {
        self.state.lock().done
    }

    /// Record the first panic (later ones — typically the poisoned-barrier
    /// panics of the sibling executors — are dropped as secondary).
    fn record_panic(&self, payload: PanicPayload) {
        let mut state = self.state.lock();
        state.panic.get_or_insert(payload);
    }

    /// Wait until `target` jobs finished; returns the recorded root-cause
    /// panic, if any, for the caller to re-raise.
    fn wait_for(&self, target: u64) -> Option<PanicPayload> {
        let mut state = self.state.lock();
        while state.done < target {
            self.cv.wait(&mut state);
        }
        state.panic.take()
    }
}

/// State shared between the session handle and the jobs it dispatched:
/// the run context plus one accumulator slot per executor.  Jobs of one
/// executor run strictly in order on its pool thread, so each slot's mutex
/// is uncontended — it exists to move the state into `'static` jobs, not to
/// arbitrate access.
struct SessionShared<A: Application> {
    ctx: RunContext<A>,
    slots: Vec<Mutex<ExecutorState>>,
    completion: Completion,
}

/// The write-ahead-log half of a durable session.  The `append` hook is a
/// plain function pointer instantiated by
/// [`crate::builder::SessionBuilder::durable`], where the
/// `A::Payload: WalPayload` bound is in scope — the session itself stays
/// bound-free.
pub(crate) struct DurableParts<P> {
    pub(crate) log: Arc<DurableLog>,
    pub(crate) append: fn(&DurableLog, &P) -> StateResult<()>,
    /// Claims the durability directory process-wide for this session's
    /// lifetime — two live durable sessions over one directory would
    /// interleave WAL appends and desynchronize epochs.
    pub(crate) _dir_guard: crate::builder::DurableDirGuard,
}

/// Live state of adaptive punctuation tuning
/// ([`crate::builder::SessionBuilder::adaptive_punctuation`]): the
/// hill-climbing controller plus the measurement window it observes.
struct AdaptiveRuntime {
    controller: AdaptiveIntervalController,
    /// Whether observations need a real p99 (a latency bound is set);
    /// without one the percentile scan is skipped entirely.
    needs_latency: bool,
    window_started: Option<Instant>,
    window_events: u64,
}

/// Options threaded from the builder into [`Session::open`].
#[derive(Debug, Clone, Default)]
pub(crate) struct SessionOptions {
    pub(crate) label: Option<String>,
    /// Staging-queue depth override (defaults to the engine's
    /// `pipeline_depth`).
    pub(crate) staging_depth: Option<usize>,
    pub(crate) adaptive: Option<AdaptiveConfig>,
}

/// A continuous-ingestion handle onto an [`Engine`], created by
/// [`Engine::session_builder`].
///
/// One type serves every mode: plain streaming, durable (write-ahead
/// logged) and recovered sessions differ only in how the builder opened
/// them.  [`Session::push`] is fallible for that reason — in plain mode it
/// never returns an error.
///
/// ```
/// use std::sync::Arc;
/// use tstream_core::prelude::*;
///
/// struct Count;
/// impl Application for Count {
///     type Payload = u64;
///     fn name(&self) -> &'static str { "count" }
///     fn read_write_set(&self, key: &u64) -> ReadWriteSet {
///         ReadWriteSet::new().write(StateRef::new(0, *key))
///     }
///     fn state_access(&self, key: &u64, txn: &mut TxnBuilder) {
///         txn.read_modify(0, *key, None, |ctx| {
///             Ok(Value::Long(ctx.current.as_long()? + 1))
///         });
///     }
///     fn post_process(&self, _key: &u64, _b: &EventBlotter) -> PostAction {
///         PostAction::Emit
///     }
/// }
///
/// let table = TableBuilder::new("counters")
///     .extend((0..8u64).map(|k| (k, Value::Long(0))))
///     .build()
///     .unwrap();
/// let store = StateStore::new(vec![table]).unwrap();
/// let engine = Engine::new(EngineConfig::with_executors(2).punctuation(16));
/// let mut session = engine
///     .session_builder(&Arc::new(Count), &store, &Scheme::TStream)
///     .label("quickstart")
///     .open()
///     .unwrap();
/// for i in 0..64u64 {
///     session.push(i % 8).unwrap();
/// }
/// session.flush().unwrap(); // everything pushed so far is executed
/// let report = session.report().unwrap();
/// assert_eq!(report.committed, 64);
/// assert_eq!(report.label.as_deref(), Some("quickstart"));
/// ```
pub struct Session<'e, A: Application> {
    pool: &'e ExecutorPool,
    token: SessionToken,
    shared: Arc<SessionShared<A>>,
    builder: BatchBuilder<A::Payload, TxnDescriptor>,
    conflict_scratch: StateIndex,
    started: Option<Instant>,
    pushed: u64,
    jobs_dispatched: u64,
    durable: Option<DurableParts<A::Payload>>,
    adaptive: Option<AdaptiveRuntime>,
}

impl<'e, A: Application> Session<'e, A> {
    pub(crate) fn open(
        engine: &'e Engine,
        app: &Arc<A>,
        store: &Arc<StateStore>,
        scheme: &Scheme,
        durable: Option<DurableParts<A::Payload>>,
        options: SessionOptions,
    ) -> Self {
        let pool = engine.pool();
        let staging_depth = options
            .staging_depth
            .unwrap_or(engine.config().pipeline_depth)
            .max(1);
        let token = pool.register_session(staging_depth);
        let log = durable.as_ref().map(|parts| parts.log.clone());
        let ctx = RunContext::new(engine, app, store, scheme, log, options.label);
        let executors = ctx.executors();
        let hub = engine.obs().hub();
        hub.session_opened();
        hub.punctuation_interval(engine.config().punctuation_interval.max(1) as u64);
        Session {
            pool,
            token,
            shared: Arc::new(SessionShared {
                ctx,
                slots: (0..executors)
                    .map(|_| Mutex::new(ExecutorState::default()))
                    .collect(),
                completion: Completion::default(),
            }),
            builder: engine.batch_builder(app, store),
            conflict_scratch: StateIndex::default(),
            started: None,
            pushed: 0,
            jobs_dispatched: 0,
            durable,
            adaptive: options.adaptive.map(|config| AdaptiveRuntime {
                needs_latency: config.latency_bound.is_some(),
                controller: AdaptiveIntervalController::new(
                    config,
                    engine.config().punctuation_interval.max(1),
                ),
                window_started: None,
                window_events: 0,
            }),
        }
    }

    /// Number of executors serving this session.
    pub fn executors(&self) -> usize {
        self.shared.ctx.executors()
    }

    /// Events pushed into this session so far (live pushes only; see
    /// [`Session::ingested`] for the recovery-inclusive count).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events this session has ingested overall.  For plain sessions this
    /// equals [`Session::pushed`]; for durable sessions it additionally
    /// counts the events covered by the restored checkpoint and replayed
    /// from the WAL — a resuming producer feeds `input[ingested()..]`.
    pub fn ingested(&self) -> u64 {
        let base = self
            .durable
            .as_ref()
            .map_or(0, |parts| parts.log.base().events);
        base + self.pushed
    }

    /// Batches handed to the executor pool so far.
    pub fn batches_dispatched(&self) -> u64 {
        self.jobs_dispatched / self.executors() as u64
    }

    /// The session's label, if one was set on the builder.
    pub fn label(&self) -> Option<&str> {
        self.shared.ctx.label()
    }

    /// The punctuation interval currently in effect.  Fixed at the engine's
    /// configured interval unless the session was opened with
    /// [`crate::builder::SessionBuilder::adaptive_punctuation`], in which
    /// case the controller retunes it between batches.
    pub fn punctuation_interval(&self) -> usize {
        self.builder.interval()
    }

    /// The durability log backing this session (`None` for plain sessions).
    pub fn log(&self) -> Option<&Arc<DurableLog>> {
        self.durable.as_ref().map(|parts| &parts.log)
    }

    /// Ingest one event: stamp it at arrival time, route it, and — when it
    /// completes a punctuation batch — stage the batch with the pool's
    /// session scheduler.  Blocks only when this session's staging queue
    /// (and the executor queues behind it) are full — per-session
    /// backpressure under sustained overload.
    ///
    /// In durable mode the event is appended to the write-ahead log before
    /// routing, and the WAL segment seals before the completed batch is
    /// dispatched.
    ///
    /// # Errors
    ///
    /// Plain sessions never return an error.  For durable sessions, an
    /// `Err` from the WAL *append* means the event is **not** durable and
    /// was not routed — the producer may retry it.  An `Err` from *sealing*
    /// is reported after the completed batch was dispatched anyway: the
    /// event is routed and must **not** be retried; only its durability is
    /// degraded until the next successful seal or checkpoint.
    pub fn push(&mut self, payload: A::Payload) -> StateResult<()> {
        if let Some(parts) = &self.durable {
            (parts.append)(&parts.log, &payload)?;
        }
        self.ingest_logged(payload)
    }

    /// Route one already-logged (or non-durable) event, sealing +
    /// dispatching at punctuation.
    ///
    /// A completed batch is dispatched even when the seal fails: its events
    /// are already routed into the run, so dropping the batch would fork the
    /// live results away from what recovery reproduces.  The seal error is
    /// still reported — durability is degraded (a crash would replay these
    /// events from the unsealed tail) but results stay exactly-once.
    pub(crate) fn ingest_logged(&mut self, payload: A::Payload) -> StateResult<()> {
        if let Some(batch) = self.ingest(payload) {
            let events = batch.events();
            let replayed = batch.replayed;
            let seq = batch.punctuation.seq;
            let obs = &self.shared.ctx.obs;
            let sealed = match &self.durable {
                Some(parts) => match parts.log.seal() {
                    Ok(epoch) => {
                        obs.trace_wal(seq, TraceKind::Sealed { epoch });
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
                None => Ok(()),
            };
            self.dispatch(batch);
            self.observe_batch(events, replayed);
            sealed?;
        }
        Ok(())
    }

    /// Mark subsequent ingests as recovery replays (or back to live events);
    /// replayed batches are excluded from latency sampling and adaptive
    /// observations.  The builder's durable open toggles this around the WAL
    /// replay loops.
    pub(crate) fn set_replay(&mut self, replaying: bool) {
        self.builder.set_replay(replaying);
    }

    /// Stamp and route one event *without* dispatching: the completed batch
    /// (if this event filled the punctuation interval) is handed back to
    /// the caller.  The builder's durable open uses this to replay sealed
    /// WAL segments without re-appending them.
    pub(crate) fn ingest(&mut self, payload: A::Payload) -> Option<EngineBatch<A::Payload>> {
        if self.started.is_none() {
            self.started = Some(clock::now());
        }
        if let Some(adaptive) = self.adaptive.as_mut() {
            adaptive.window_started.get_or_insert_with(clock::now);
        }
        self.pushed += 1;
        self.builder.push(payload)
    }

    /// Close and hand back the partially filled batch without dispatching
    /// (`None` if no events are pending).
    pub(crate) fn take_partial(&mut self) -> Option<EngineBatch<A::Payload>> {
        self.builder.finish()
    }

    /// Dispatch a batch previously handed out by [`Session::ingest`] /
    /// [`Session::take_partial`].
    pub(crate) fn dispatch_now(&mut self, batch: EngineBatch<A::Payload>) {
        self.dispatch(batch);
    }

    /// Block until every dispatched batch has been fully processed,
    /// re-raising the first executor panic (see [`Session::flush`]).
    pub(crate) fn drain(&mut self) {
        self.pool.drain_staged(self.token);
        if let Some(panic) = self.shared.completion.wait_for(self.jobs_dispatched) {
            std::panic::resume_unwind(panic);
        }
    }

    /// Close and dispatch the partially filled batch (if any) and block
    /// until every dispatched batch has been fully processed.  The store
    /// then reflects every event pushed so far; further `push` calls are
    /// allowed and start the next batch.  In durable mode the WAL segment
    /// seals before the partial batch dispatches, so the durability
    /// directory also reflects every pushed event on return.
    ///
    /// # Errors
    ///
    /// Plain sessions never return an error.  A durable seal failure is
    /// reported only after the partial batch was dispatched — results never
    /// fork from the log.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic an executor hit while processing this
    /// session's batches (e.g. a panicking [`Application`] method) — the
    /// same propagation `Engine::run` gave through `thread::scope` before
    /// the persistent pool.  The pool itself survives: the session's
    /// barrier is poisoned so sibling executors unwind instead of waiting
    /// forever, and the engine stays usable for new runs and sessions.
    pub fn flush(&mut self) -> StateResult<()> {
        let sealed = match self.take_partial() {
            Some(batch) => {
                let sealed = match &self.durable {
                    Some(parts) => parts.log.seal().map(|_| ()),
                    None => Ok(()),
                };
                self.dispatch(batch);
                sealed
            }
            None => Ok(()),
        };
        self.drain();
        sealed
    }

    /// Flush and aggregate the session into a [`RunReport`], closing the
    /// session.  For durable sessions the report's `events` / `committed` /
    /// `rejected` are cumulative across recovery — identical to an
    /// uninterrupted run over the same input.  Re-raises a worker panic the
    /// way [`Session::flush`] does.
    ///
    /// # Errors
    ///
    /// Plain sessions never return an error; durable sessions surface seal
    /// failures like [`Session::flush`].
    #[must_use = "the report carries the session's results"]
    pub fn report(mut self) -> StateResult<RunReport> {
        self.flush()?;
        let elapsed = self.started.map(|s| s.elapsed()).unwrap_or(Duration::ZERO);
        let states: Vec<ExecutorState> = self
            .shared
            .slots
            .iter()
            .map(|slot| std::mem::take(&mut *slot.lock()))
            .collect();
        let mut report = self.shared.ctx.aggregate(states, elapsed, self.pushed);
        // Adaptive punctuation retunes the interval between batches; report
        // the one in effect, not the one the engine was configured with.
        report.punctuation_interval = self.punctuation_interval();
        if let Some(parts) = &self.durable {
            let base = parts.log.base();
            report.events += base.events;
            report.committed += base.committed;
            report.rejected += base.rejected;
        }
        Ok(report)
    }

    /// Feed one completed batch into the adaptive-punctuation controller
    /// (no-op unless the session was opened with adaptive punctuation): the
    /// measured window throughput — and, when a latency bound is
    /// configured, the p99 over the results sunk so far — becomes an
    /// observation, and the suggested interval takes effect for the next
    /// batch.
    ///
    /// Replayed batches are excluded entirely: their throughput reflects
    /// replay speed, not live ingestion, and feeding it to the controller
    /// would tune the interval against a workload that no longer exists.
    /// The measurement window restarts at the next live batch.
    fn observe_batch(&mut self, batch_events: usize, replayed: bool) {
        if replayed {
            if let Some(adaptive) = self.adaptive.as_mut() {
                adaptive.window_started = None;
                adaptive.window_events = 0;
            }
            return;
        }
        let interval = self.builder.interval();
        // p99 across the per-executor sinks (only when the controller needs
        // it: the percentile scan is not free).
        let p99 = match &self.adaptive {
            Some(adaptive) if adaptive.needs_latency => self
                .shared
                .slots
                .iter()
                .filter_map(|slot| slot.lock().sink.percentile_so_far(99.0))
                .max()
                .unwrap_or(Duration::ZERO),
            _ => Duration::ZERO,
        };
        let Some(adaptive) = self.adaptive.as_mut() else {
            return;
        };
        adaptive.window_events += batch_events as u64;
        let Some(started) = adaptive.window_started else {
            return;
        };
        let elapsed = started.elapsed();
        if elapsed.is_zero() {
            return;
        }
        let throughput_keps = adaptive.window_events as f64 / elapsed.as_secs_f64() / 1_000.0;
        let next = adaptive.controller.observe(IntervalObservation {
            interval,
            throughput_keps,
            p99,
        });
        adaptive.window_started = Some(clock::now());
        adaptive.window_events = 0;
        if next != interval {
            self.builder.set_interval(next);
            self.shared.ctx.obs.hub().punctuation_interval(next as u64);
        }
    }

    /// Stage one completed batch with the pool's scheduler as a unit of
    /// per-executor jobs.  The scheduler injects it atomically into every
    /// executor queue, round-robin with the batches of other open sessions;
    /// a full staging queue delays only this (ingestion) thread, never an
    /// executor or a sibling session.
    ///
    /// Each job catches panics from the step (application code runs inside
    /// it): the first panic is recorded as the root cause and the session's
    /// barrier is poisoned, so sibling executors mid-batch unwind too (their
    /// poisoned-barrier panics are recorded only as secondary and dropped).
    /// Every job still marks completion, which keeps `flush` finite and the
    /// pool threads alive for the other sessions.
    fn dispatch(&mut self, mut batch: EngineBatch<A::Payload>) {
        self.shared
            .ctx
            .admit(&mut batch, &mut self.conflict_scratch);
        let obs = self.shared.ctx.obs.clone();
        let seq = batch.punctuation.seq;
        let batch = Arc::new(batch);
        let jobs: Vec<_> = (0..self.executors())
            .map(|e| {
                let shared = self.shared.clone();
                let batch = batch.clone();
                Box::new(move || {
                    let step = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let mut slot = shared.slots[e].lock();
                        shared.ctx.step(e, &batch, &mut slot);
                    }));
                    if let Err(payload) = step {
                        // First panic wins the post-mortem; siblings dying on
                        // the poisoned barrier are no-ops on the latch.
                        let obs = &shared.ctx.obs;
                        obs.trace_exec(e, batch.punctuation.seq, TraceKind::Panicked);
                        shared.completion.record_panic(payload);
                        shared.ctx.poison();
                        obs.trace_exec(e, batch.punctuation.seq, TraceKind::Poisoned);
                        obs.post_mortem("executor panicked while processing a session batch");
                    }
                    shared.completion.mark_one();
                }) as crate::runtime::Job
            })
            .collect();
        self.jobs_dispatched += jobs.len() as u64;
        let watch = Stopwatch::start_if(obs.enabled());
        let blocked = self.pool.stage(self.token, jobs);
        let wait_ns = if blocked {
            let waited = watch.elapsed();
            obs.hub().backpressure_wait(waited);
            waited.as_nanos().min(u64::MAX as u128) as u64
        } else {
            0
        };
        obs.trace_ingest(seq, TraceKind::BatchStaged { wait_ns });
        // Depth of this session's in-flight pipeline after staging, in
        // batches (dispatched minus retired).
        let executors = self.executors() as u64;
        let retired = self.shared.completion.done() / executors;
        obs.hub()
            .staged_depth(self.jobs_dispatched / executors - retired);
    }
}

impl<A: Application> std::fmt::Debug for Session<'_, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("label", &self.label())
            .field("executors", &self.executors())
            .field("pushed", &self.pushed)
            .field("batches_dispatched", &self.batches_dispatched())
            .field("durable", &self.durable.is_some())
            .field("adaptive", &self.adaptive.is_some())
            .finish()
    }
}

impl<A: Application> Drop for Session<'_, A> {
    fn drop(&mut self) {
        // The session must never unregister while its jobs are still on the
        // pool — `aggregate` reads the slots, and the scheduler must not
        // lose staged work.  Two cases:
        //
        // * normal drop: the session still completes — the trailing partial
        //   batch is dispatched (push has no "provisional until punctuation"
        //   caveat; durable sessions seal the WAL first so epochs stay
        //   aligned) and the pool drains.  After `report`/`flush` both steps
        //   are no-ops.  A recorded worker panic is swallowed — observing
        //   failures is what `flush`/`report` are for, and panicking from
        //   `drop` would abort;
        // * drop while unwinding: this session is being abandoned, so poison
        //   its barrier — in-flight jobs unwind at their next barrier wait
        //   instead of running the stream to completion — and drain before
        //   unregistering.  (Every job ends, panicked or not, so the wait
        //   is finite.)
        if std::thread::panicking() {
            self.shared.ctx.poison();
        } else if let Some(batch) = self.builder.finish() {
            if let Some(parts) = &self.durable {
                let _ = parts.log.seal();
            }
            self.dispatch(batch);
        }
        self.pool.drain_staged(self.token);
        let _ = self.shared.completion.wait_for(self.jobs_dispatched);
        self.pool.unregister_session(self.token);
        self.shared.ctx.obs.hub().session_closed();
    }
}
