//! The execution engine.
//!
//! The engine drives input events through a three-stage pipeline:
//!
//! 1. **Ingestion** — an online [`tstream_stream::source::BatchBuilder`]
//!    stamps each event at arrival time, derives its determined read/write
//!    set, routes it to an executor (round-robin or shard-affine) and closes
//!    a batch at every punctuation;
//! 2. **Execution** — a persistent pool of executor threads
//!    ([`crate::runtime::ExecutorPool`], spawned once per engine) processes
//!    the batches under the selected scheme:
//!    * **eager schemes** (No-Lock / LOCK / MVLK / PAT) follow the
//!      coarse-grained paradigm of the prior work: each executor fully
//!      processes one event — pre-process, state transaction, post-process —
//!      before the next;
//!    * **TStream** follows dual-mode scheduling (Section IV-B): executors
//!      decompose and postpone the transactions during compute mode, switch
//!      together into state-access mode at every punctuation, process the
//!      operation chains in parallel, then post-process the cached events;
//! 3. **Sink** — per-executor [`Sink`] shards record completions and
//!    end-to-end latencies, merged into the [`RunReport`].
//!
//! Continuous ingestion goes through [`Engine::session_builder`] (push /
//! flush / report; durable, recovering, adaptive and labelled sessions are
//! builder options).  Sessions of one engine run **concurrently**: the
//! pool's scheduler interleaves their punctuation batches round-robin with
//! per-session backpressure.  [`Engine::run`] streams a pre-collected input
//! through a session and is what the figure harnesses use.
//! [`Engine::run_offline`] keeps the seed's pre-materialized, scope-per-run
//! behaviour as a differential baseline — both paths admit and execute
//! batches through the same `RunContext::admit` / `RunContext::step`, so
//! they must produce identical results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;
use tstream_obs::clock;
use tstream_obs::{MetricsSnapshot, Obs, TraceEvent, TraceKind, NO_BATCH};
use tstream_recovery::{DurableLog, WalStats};
use tstream_state::checkpoint::CheckpointManifest;
use tstream_state::{ShardRouter, StateStore, TableId, MAX_SHARDS};
use tstream_stream::barrier::CyclicBarrier;
use tstream_stream::event::Event;
use tstream_stream::executor::{ExecutorId, ExecutorLayout};
use tstream_stream::metrics::{Breakdown, Component};
use tstream_stream::partition::EventRouting;
use tstream_stream::sink::{LatencyStats, Sink};
use tstream_stream::source::{BatchBuilder, SourceBatch};
use tstream_txn::exec::{execute_transaction_body, ValueMode};
use tstream_txn::{
    Application, BlotterHandle, EagerScheme, ExecEnv, StateTransaction, TxnBuilder, TxnDescriptor,
    TxnOutcome,
};

use crate::chains::{ChainPoolSet, StateIndex};
use crate::config::EngineConfig;
use crate::restructure::{self, BatchAbortLog, ChainStats, RestructureContext};
use crate::runtime::ExecutorPool;

/// Which execution scheme a run uses.
#[derive(Clone)]
pub enum Scheme {
    /// One of the baseline schemes, executed eagerly.
    Eager(Arc<dyn EagerScheme>),
    /// TStream's dual-mode scheduling + dynamic restructuring execution.
    TStream,
}

impl Scheme {
    /// Display name (matches the paper's legends).
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Eager(s) => s.name(),
            Scheme::TStream => "TStream",
        }
    }
}

impl std::fmt::Debug for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scheme({})", self.name())
    }
}

/// Result of one engine run (or one finished streaming session).
#[derive(Debug, Clone)]
#[must_use = "a report carries the run's results and should be inspected"]
pub struct RunReport {
    /// Scheme name.
    pub scheme: String,
    /// Application name.
    pub app: String,
    /// Label of the session that produced this report (set via
    /// [`crate::builder::SessionBuilder::label`]; `None` for unlabelled
    /// sessions and offline runs).  Makes multi-session benchmark output
    /// attributable.
    pub label: Option<String>,
    /// Number of state shards the run executed against (the engine's
    /// `num_shards`, clamped).
    pub shards: usize,
    /// Number of executors used.
    pub executors: usize,
    /// Punctuation interval used.
    pub punctuation_interval: usize,
    /// Total input events processed.
    pub events: u64,
    /// Events whose transaction committed.
    pub committed: u64,
    /// Events rejected because their transaction aborted.
    pub rejected: u64,
    /// Wall-clock duration of the run: first `push` to final flush for the
    /// pipelined paths, execution only for [`Engine::run_offline`].
    pub elapsed: Duration,
    /// End-to-end latency statistics.
    ///
    /// Since the pipelined runtime, latency is measured from the instant an
    /// event was stamped at ingestion ([`Event::arrival`] inside the
    /// [`BatchBuilder`]) to result emission — the true event-to-sink
    /// interval, including queueing.  The seed stamped the whole input
    /// up front and restarted the clock at processing time, which understated
    /// latency under backlog; `run_offline` still pre-stamps, so its reported
    /// latencies include the materialization skew and are only meaningful
    /// relative to each other.
    pub latency: LatencyStats,
    /// Aggregated per-component time breakdown (sum over executors).
    pub breakdown: Breakdown,
    /// Total executor time spent in compute mode (pre/post-processing).
    pub compute_time: Duration,
    /// Total executor time spent in state-access mode (TStream only).
    pub state_access_time: Duration,
    /// Chain-processing statistics (TStream only).
    pub chain_stats: ChainStats,
    /// Operation chains routed to each state shard, summed over every batch
    /// of the run (TStream only; all zeros under eager schemes).  Length
    /// equals the engine's `num_shards`.
    pub per_shard_chains: Vec<u64>,
    /// Number of durability checkpoints written during the run (zero unless
    /// the run was a durable session).
    pub checkpoints: u64,
    /// Bytes appended to the write-ahead input log during the run (zero for
    /// non-durable runs) — the storage side of the durability tax.
    pub wal_bytes: u64,
    /// Punctuation batches that filed nothing (TStream only): every
    /// transaction was alone in its batch and ran directly, so the batch
    /// built no chains and paid only its closing barrier round.
    pub fast_path_batches: u64,
    /// Operations of transactions alone in their batch, run directly and
    /// never filed (TStream only).  With [`ChainStats::ops`] and
    /// [`ChainStats::skipped`] it counts every operation exactly once.
    pub direct_ops: u64,
}

impl RunReport {
    /// Throughput in thousands of events per second (the unit of Figure 8).
    #[must_use]
    pub fn throughput_keps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.events as f64 / self.elapsed.as_secs_f64() / 1_000.0
    }

    /// Fraction of executor time spent in compute mode (the statistic quoted
    /// in Section VI-A: 39 % for TP, 29 % for SL, 22 % for OB, 13 % for GS).
    #[must_use]
    pub fn compute_mode_share(&self) -> f64 {
        let total = self.compute_time + self.state_access_time + self.breakdown.sync;
        if total.is_zero() {
            return 0.0;
        }
        self.compute_time.as_secs_f64() / total.as_secs_f64()
    }
}

/// Cumulative WAL counters at the last metrics drain (see
/// [`RunContext::drain_wal_activity`]).
#[derive(Default)]
struct WalSeen {
    bytes: u64,
    stats: WalStats,
}

/// Per-executor accumulators, carried across every batch of a run.
#[derive(Default)]
pub(crate) struct ExecutorState {
    pub(crate) sink: Sink,
    pub(crate) breakdown: Breakdown,
    pub(crate) compute_time: Duration,
    pub(crate) access_time: Duration,
    pub(crate) committed: u64,
    pub(crate) rejected: u64,
    pub(crate) chain_stats: ChainStats,
    pub(crate) checkpoints: u64,
    pub(crate) fast_batches: u64,
    pub(crate) direct_ops: u64,
}

/// One punctuation-delimited batch as the engine consumes it: events split
/// per executor plus the transaction descriptors of the whole batch.
pub(crate) type EngineBatch<P> = SourceBatch<P, TxnDescriptor>;

/// Events whose post-processing a batch body postponed, each with the
/// blotter its transaction's outcome lands in.
type Postponed<'b, P> = Vec<(&'b Event<P>, BlotterHandle)>;

/// Everything a run shares between its executors: the immutable run
/// parameters and the cross-executor synchronisation state.  Built once per
/// run / session; [`RunContext::step`] borrows it for every batch.
pub(crate) struct RunContext<A: Application> {
    pub(crate) app: Arc<A>,
    pub(crate) store: Arc<StateStore>,
    pub(crate) scheme: Scheme,
    pub(crate) config: EngineConfig,
    pub(crate) layout: ExecutorLayout,
    label: Option<String>,
    barrier: CyclicBarrier,
    pools: ChainPoolSet,
    shard_chains: Mutex<Vec<u64>>,
    abort_log: BatchAbortLog,
    /// The write-ahead log of a durable session (`None`: nothing is written
    /// to disk).  Inputs are logged before routing, the closing round's
    /// action stamps epoch-numbered checkpoints and truncates the
    /// segments they cover, and reopening the directory with
    /// `session_builder(..).durable(dir).recover()` restores + replays after
    /// a crash.
    durability: Option<Arc<DurableLog>>,
    /// The engine's observability state: metrics hub, flight recorder and
    /// post-mortem latch, shared by every run and session of the engine.
    pub(crate) obs: Arc<Obs>,
    /// Last WAL statistics drained into the metrics hub, so each drain folds
    /// only the delta in (the log's own counters are cumulative).
    wal_seen: Mutex<WalSeen>,
    /// Cumulative progress of this run, published by every executor before
    /// the closing barrier round so its action can stamp manifests with
    /// exact counts (only maintained for durable sessions).
    live_events: AtomicU64,
    live_committed: AtomicU64,
    live_rejected: AtomicU64,
}

impl<A: Application> RunContext<A> {
    /// Prepares the shared state of one run: resets the scheme counters and
    /// the store's synchronisation state, and builds barrier + chain pools
    /// for the engine's executor layout.
    pub(crate) fn new(
        engine: &Engine,
        app: &Arc<A>,
        store: &Arc<StateStore>,
        scheme: &Scheme,
        durability: Option<Arc<DurableLog>>,
        label: Option<String>,
    ) -> Self {
        let config = engine.config;
        let executors = config.executors.max(1);
        let layout = ExecutorLayout::new(executors, config.cores_per_socket);
        let num_shards = config.num_shards.clamp(1, MAX_SHARDS as usize) as u32;
        if let Scheme::Eager(s) = scheme {
            s.reset();
        }
        store.reset_sync();
        RunContext {
            app: app.clone(),
            store: store.clone(),
            scheme: scheme.clone(),
            config,
            layout,
            label,
            barrier: CyclicBarrier::new(executors),
            pools: ChainPoolSet::new(config.tstream.placement, layout, num_shards),
            shard_chains: Mutex::new(vec![0; num_shards as usize]),
            abort_log: BatchAbortLog::new(),
            durability,
            obs: engine.obs.clone(),
            wal_seen: Mutex::new(WalSeen::default()),
            live_events: AtomicU64::new(0),
            live_committed: AtomicU64::new(0),
            live_rejected: AtomicU64::new(0),
        }
    }

    /// Number of executors this run uses.
    pub(crate) fn executors(&self) -> usize {
        self.layout.executors
    }

    /// The run's session label, if any.
    pub(crate) fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Poison the run's barrier after a participant died: surviving
    /// executors blocked (or about to block) in a batch step panic instead
    /// of waiting forever for a party that will never arrive.
    pub(crate) fn poison(&self) {
        self.barrier.poison();
    }

    /// Admit one formed batch to execution (on the ingestion side, before
    /// any executor sees it): mark its transactions, count it, trace it.
    ///
    /// The marking is routing-time conflict detection (TStream only): a
    /// transaction alone in its batch runs directly on the executors, and a
    /// batch of nothing else files nothing (see [`mark_alone`]).
    pub(crate) fn admit(&self, batch: &mut EngineBatch<A::Payload>, scratch: &mut StateIndex) {
        if matches!(self.scheme, Scheme::TStream) {
            batch.conflict_free = mark_alone(&mut batch.descriptors, scratch);
        }
        self.obs
            .hub()
            .batch_ingested(batch.events() as u64, batch.replayed);
        self.obs.trace_ingest(
            batch.punctuation.seq,
            TraceKind::BatchFormed {
                events: batch.events().min(u32::MAX as usize) as u32,
                replayed: batch.replayed,
            },
        );
    }

    /// One barrier round: every executor arrives, the last one runs
    /// `action` on its own accumulators, and nobody leaves before the action
    /// has run.  Elided for single-executor runs: with one executor there is
    /// nobody to rendezvous with, and the `SeqCst` round-trips per batch are
    /// pure overhead — so the sole executor runs the action inline, with
    /// zero waits.  Poisoning still works: a single-executor run has no
    /// surviving sibling to unblock.
    #[inline]
    fn round(
        &self,
        index: usize,
        batch: u64,
        state: &mut ExecutorState,
        action: impl FnOnce(&mut ExecutorState),
    ) {
        if self.layout.executors == 1 {
            action(state);
            return;
        }
        let waited = self.barrier.wait(|| action(state));
        state.breakdown.charge(Component::Sync, waited);
        self.obs.hub().barrier_wait(waited);
        self.obs.trace_exec(
            index,
            batch,
            TraceKind::BarrierRound {
                wait_ns: waited.as_nanos().min(u64::MAX as u128) as u64,
            },
        );
    }

    /// Process one batch on executor `index`, advancing its accumulators:
    /// run the body of the batch's execution path, close the batch, then
    /// post-process whatever the body postponed.  Every executor of the run
    /// must call this for every batch, in the same order — the barrier
    /// rounds keep them in lockstep.
    ///
    /// Barrier rounds per batch, with the actions their last arrivers run
    /// (zero rounds with a single executor, which runs the actions inline);
    /// neither a replay nor durability adds one.  `tests/observability.rs`
    /// pins these numbers.
    ///
    /// | path | rounds | actions |
    /// |---|---|---|
    /// | eager | 2 | register the batch with the scheme; close |
    /// | restructured | 3 | freeze at TXN_START; replay an abort's closure if needed; close |
    /// | nothing filed | 1 | close |
    pub(crate) fn step(
        &self,
        index: usize,
        batch: &EngineBatch<A::Payload>,
        state: &mut ExecutorState,
    ) {
        let env = ExecEnv {
            executor: ExecutorId(index),
            layout: self.layout,
            numa: self.config.numa,
        };
        let seq = batch.punctuation.seq;
        if index == 0 {
            self.obs.hub().batch_executed();
            self.obs.trace_exec(index, seq, TraceKind::BatchInjected);
        }
        let committed_before = state.committed;
        let rejected_before = state.rejected;

        // ---- Run: the body performs this executor's state accesses.  The
        // eager body finishes every event as it goes; the TStream body
        // finishes the transactions it ran directly and hands the filed
        // ones back for the tail below.
        let postponed = match &self.scheme {
            Scheme::Eager(scheme) => {
                self.eager_step(scheme, index, env, batch, state);
                Vec::new()
            }
            Scheme::TStream => self.tstream_step(index, env, batch, state),
        };

        // ---- Close.  A durable session first publishes this executor's
        // outcome counts (final by now, see `tstream_step`) so the closing
        // action can stamp the checkpoint manifest with exact cumulative
        // counts.
        if self.durability.is_some() {
            let mut committed = state.committed - committed_before;
            let mut rejected = state.rejected - rejected_before;
            for (_, blotter) in &postponed {
                if blotter.is_aborted() {
                    rejected += 1;
                } else {
                    committed += 1;
                }
            }
            self.live_committed.fetch_add(committed, Ordering::Relaxed);
            self.live_rejected.fetch_add(rejected, Ordering::Relaxed);
        }
        // Every batch closes with one round, whose action needs every
        // executor's writes in place: the path's end-of-batch work, then the
        // durable epilogue.  No executor starts the next batch before it has
        // run, so the next batch's writes never overtake this one's or reach
        // a checkpoint of it, and the next restructured batch files into
        // empty pools.
        self.round(index, seq, state, |state| {
            match &self.scheme {
                // E.g. MVLK's version garbage collection.
                Scheme::Eager(scheme) => scheme.end_batch(&self.store),
                Scheme::TStream if batch.conflict_free => {}
                Scheme::TStream => {
                    // `clear_all` keeps every buffer: each chain built is recycled.
                    let recycled = self.pools.total_chains() as u64;
                    self.obs.hub().chains_recycled(recycled);
                    self.pools.clear_all();
                    self.abort_log.clear_batch();
                }
            }
            self.wal_leader_checkpoint(batch, state);
        });

        // ---- Tail: back in compute mode, post-process the postponed events.
        let t_post = clock::now();
        for (event, blotter) in postponed {
            self.finish_event(batch, event, &blotter, state);
        }
        state.compute_time += t_post.elapsed();
        self.publish_results(
            index,
            seq,
            state.committed - committed_before,
            state.rejected - rejected_before,
        );
    }

    /// Post-process one event whose outcome is final and record it with the
    /// executor's counters and sink.  Replayed batches count but are not
    /// latency-sampled: their arrival instant is the re-ingestion time, not
    /// the original arrival.
    fn finish_event(
        &self,
        batch: &EngineBatch<A::Payload>,
        event: &Event<A::Payload>,
        blotter: &BlotterHandle,
        state: &mut ExecutorState,
    ) {
        let _ = self.app.post_process(&event.payload, blotter);
        if blotter.is_aborted() {
            state.rejected += 1;
            state.sink.reject();
        } else {
            state.committed += 1;
            if batch.replayed {
                state.sink.emit_unsampled();
            } else {
                state.sink.emit(event.arrival);
            }
        }
    }

    /// Record one executor's per-batch committed/rejected deltas with the
    /// metrics hub and the flight recorder.
    #[inline]
    fn publish_results(&self, index: usize, batch: u64, committed: u64, rejected: u64) {
        self.obs.hub().batch_published(committed, rejected);
        self.obs.trace_exec(
            index,
            batch,
            TraceKind::Published {
                committed: committed.min(u32::MAX as u64) as u32,
                rejected: rejected.min(u32::MAX as u64) as u32,
            },
        );
    }

    /// Aggregate the per-executor accumulators into the run's report.
    pub(crate) fn aggregate(
        &self,
        states: Vec<ExecutorState>,
        elapsed: Duration,
        events: u64,
    ) -> RunReport {
        let mut breakdown = Breakdown::new();
        let mut compute_time = Duration::ZERO;
        let mut access_time = Duration::ZERO;
        let mut committed = 0;
        let mut rejected = 0;
        let mut chain_stats = ChainStats::default();
        let mut checkpoints = 0;
        let mut fast_path_batches = 0;
        let mut direct_ops = 0;
        let mut sinks = Vec::with_capacity(states.len());
        for s in states {
            breakdown += s.breakdown;
            compute_time += s.compute_time;
            access_time += s.access_time;
            committed += s.committed;
            rejected += s.rejected;
            chain_stats.merge(&s.chain_stats);
            checkpoints += s.checkpoints;
            fast_path_batches += s.fast_batches;
            direct_ops += s.direct_ops;
            sinks.push(s.sink);
        }
        RunReport {
            scheme: self.scheme.name().to_owned(),
            app: self.app.name().to_owned(),
            label: self.label.clone(),
            shards: self.config.num_shards.clamp(1, MAX_SHARDS as usize),
            executors: self.executors(),
            punctuation_interval: self.config.punctuation_interval.max(1),
            events,
            committed,
            rejected,
            elapsed,
            latency: Sink::merge(sinks),
            breakdown,
            compute_time,
            state_access_time: access_time,
            chain_stats,
            per_shard_chains: self.shard_chains.lock().clone(),
            checkpoints,
            wal_bytes: self.durability.as_ref().map_or(0, |log| {
                // Catch the tail of WAL activity (final seals, offline
                // window syncs) that landed after the last closing drain.
                self.drain_wal_activity(log);
                log.wal_bytes()
            }),
            fast_path_batches,
            direct_ops,
        }
    }

    /// The durable epilogue of a batch, run by the closing round's action
    /// (every executor has published its outcome counts): account the
    /// batch's events, and — on the configured cadence — write an
    /// epoch-stamped checkpoint and truncate the WAL segments it covers
    /// (Section IV-D).  Nothing to do for a plain run.
    fn wal_leader_checkpoint(&self, batch: &EngineBatch<A::Payload>, state: &mut ExecutorState) {
        let Some(log) = &self.durability else {
            return;
        };
        self.live_events
            .fetch_add(batch.events() as u64, Ordering::Relaxed);
        let seq = batch.punctuation.seq;
        let epoch = log.epoch_base() + seq;
        // Replication hook: when a shipper (or a divergence check) asked for
        // epoch roots, hash the quiescent store once per batch — for *every*
        // epoch, not just checkpointed ones — so the standby can cross-check
        // each applied segment.  Costs nothing when nothing asked.
        if log.wants_epoch_roots() {
            log.record_epoch_root(epoch, tstream_state::state_root(&self.store));
        }
        if !log.should_checkpoint(epoch) {
            self.drain_wal_activity(log);
            return;
        }
        let t = clock::now();
        let base = log.base();
        let manifest = CheckpointManifest {
            epoch,
            events: base.events + self.live_events.load(Ordering::Relaxed),
            committed: base.committed + self.live_committed.load(Ordering::Relaxed),
            rejected: base.rejected + self.live_rejected.load(Ordering::Relaxed),
        };
        match log.checkpoint(&self.store, manifest) {
            Ok(_) => {
                state.checkpoints += 1;
                self.obs.hub().checkpoint();
                self.obs.trace_wal(seq, TraceKind::Checkpointed { epoch });
            }
            // Nothing was truncated, so the batch stays covered by the WAL
            // and the session keeps committing; but a directory that stops
            // accepting checkpoints grows its log without bound, so the
            // operator must be able to see it.
            Err(_) => {
                self.obs.hub().checkpoint_failed();
                self.obs
                    .trace_wal(seq, TraceKind::CheckpointFailed { epoch });
            }
        }
        self.drain_wal_activity(log);
        state.breakdown.charge(Component::Others, t.elapsed());
    }

    /// Fold the WAL's cumulative counters into the metrics hub as a delta
    /// since the previous drain.  Called by the closing action of durable
    /// batches and once more at aggregation, so the hub's durability
    /// series track the log without the log ever holding an obs handle.
    fn drain_wal_activity(&self, log: &DurableLog) {
        if !self.obs.enabled() {
            return;
        }
        let bytes = log.wal_bytes();
        let stats = log.wal_stats();
        let mut seen = self.wal_seen.lock();
        let delta = stats.delta_since(&seen.stats);
        let bytes_delta = bytes.saturating_sub(seen.bytes);
        seen.bytes = bytes;
        seen.stats = stats;
        drop(seen);
        self.obs.hub().wal_activity(
            bytes_delta,
            delta.windows,
            delta.fsyncs,
            delta.fsync_ns,
            delta.seals,
            delta.truncated_segments,
        );
        if delta.truncated_segments > 0 {
            self.obs.trace_wal(
                NO_BATCH,
                TraceKind::Truncated {
                    segments: delta.truncated_segments.min(u32::MAX as u64) as u32,
                },
            );
        }
    }

    /// The body of one batch of the eager (baseline) paradigm on executor
    /// `index`: each event is fully processed — state transaction, then
    /// post-processing — before the next.
    fn eager_step(
        &self,
        scheme: &Arc<dyn EagerScheme>,
        index: usize,
        env: ExecEnv,
        batch: &EngineBatch<A::Payload>,
        state: &mut ExecutorState,
    ) {
        // Enter the batch together; the round's action registers the batch
        // with the scheme (counter bookkeeping derived from read/write sets).
        self.round(index, batch.punctuation.seq, state, |_| {
            scheme.prepare_batch(&batch.descriptors);
        });

        let t_batch = clock::now();
        for event in &batch.per_executor[index] {
            let (txn, blotter, _) = resolved_transaction(self.app.as_ref(), batch, event);
            let outcome = scheme.execute(&txn, &self.store, &env, &mut state.breakdown);
            // The blotter carries the outcome from here on (a no-op for the
            // schemes that already marked it; the first reason sticks).
            if let TxnOutcome::Aborted { reason } = outcome {
                blotter.mark_aborted(reason);
            }
            self.finish_event(batch, event, &blotter, state);
        }
        state.compute_time += t_batch.elapsed();
    }

    /// The body of one batch of TStream's dual-mode scheduling on executor
    /// `index`: in compute mode, run each transaction alone in its batch
    /// (see [`mark_alone`]) directly and decompose the others; then process
    /// the operation chains in state-access mode, replaying serially if a
    /// multi-write transaction aborted.  Returns this executor's filed
    /// events for post-processing after the closing round.
    ///
    /// A lone transaction commutes with the rest of its batch, so running it
    /// on the committed state is conflict-equivalent to the timestamp order;
    /// no closure replay reaches it, as no filed operation targets or reads
    /// its states.  A batch of lone transactions skips both state-access
    /// rounds.
    fn tstream_step<'b>(
        &self,
        index: usize,
        env: ExecEnv,
        batch: &'b EngineBatch<A::Payload>,
        state: &mut ExecutorState,
    ) -> Postponed<'b, A::Payload> {
        let seq = batch.punctuation.seq;

        // ---- Compute mode: pre-process events, run the lone transactions,
        // decompose and postpone the others, cache their events for
        // post-processing.  The pools are empty: the previous batch's
        // closing action cleared them before releasing anyone.
        // Remote chain insertions only exist when the NUMA model is on *and*
        // the layout spans several sockets; only then are they counted.
        let classify_remote = env.numa.enabled && self.layout.sockets() > 1;
        let t_compute = clock::now();
        let mut direct = Duration::ZERO;
        let my_events = &batch.per_executor[index];
        let mut cached: Postponed<'b, A::Payload> = Vec::with_capacity(my_events.len());
        for event in my_events {
            let (txn, blotter, alone) = resolved_transaction(self.app.as_ref(), batch, event);
            if alone {
                let t_access = clock::now();
                // An `Err` marks the blotter aborted and rolls back this
                // transaction's own writes.
                let _ = execute_transaction_body(
                    &txn.ops,
                    &self.store,
                    &env,
                    ValueMode::Committed,
                    &mut state.breakdown,
                );
                direct += t_access.elapsed();
                state.direct_ops += txn.ops.len() as u64;
                self.finish_event(batch, event, &blotter, state);
                continue;
            }
            // Dynamic transaction decomposition (Section IV-C.1): one chain
            // insert per operation.
            for op in txn.ops {
                if classify_remote && self.pools.is_remote_insert(env.executor, op.target) {
                    state.breakdown.remote_accesses += 1;
                }
                self.pools.chain_for_op(&op).insert(op);
            }
            cached.push((event, blotter));
        }
        state.access_time += direct;
        state.compute_time += t_compute.elapsed().saturating_sub(direct);
        if batch.conflict_free {
            if index == 0 {
                state.fast_batches += 1;
                self.obs.hub().fast_path_batch();
                self.obs.trace_exec(index, seq, TraceKind::FastPath);
            }
            return cached;
        }

        // ---- TXN_START: first barrier — all executors must have finished
        // registering their postponed transactions before state access
        // begins (Section IV-B.2).
        self.round(index, seq, state, |_| {
            // Freeze the pools — the first read does it: one sort per pool
            // turns the filed operations into chains — and record the real
            // shard placement of this batch's chains before processing
            // starts (the pools are cleared at the batch end).
            let per_shard = self.pools.chains_per_shard();
            let built: u64 = per_shard.iter().map(|&count| count as u64).sum();
            for (total, count) in self.shard_chains.lock().iter_mut().zip(per_shard) {
                *total += count as u64;
            }
            self.obs.hub().restructured_batch(built);
            self.obs.trace_exec(
                index,
                seq,
                TraceKind::Restructured {
                    chains: built.min(u32::MAX as u64) as u32,
                },
            );
        });

        // ---- State-access mode: process the operation chains in parallel.
        let t_access = clock::now();
        let assignment = self.pools.assignment(env.executor);
        let ctx = RestructureContext {
            pools: &self.pools,
            store: &self.store,
            env,
            resolution: self.config.tstream.resolution,
            work_stealing: self.config.tstream.work_stealing,
            classify_remote,
            single_executor: self.layout.executors == 1,
            abort_log: &self.abort_log,
        };
        let (stats, versioned) =
            restructure::process_assigned(&ctx, assignment, &mut state.breakdown);
        state.chain_stats.merge(&stats);
        state.access_time += t_access.elapsed();

        // ---- Second barrier: post-processing must not start until every
        // postponed state access has been processed (or aborted).  Its
        // action handles multi-write aborts (Section IV-F): if any
        // multi-operation transaction aborted, its writes in other chains may
        // already have been applied, so the closure of the abort is rolled
        // back and replayed — before anyone reads an outcome.
        self.round(index, seq, state, |state| {
            if self.abort_log.replay_needed() {
                let t_replay = clock::now();
                let replay = restructure::replay_batch_serially(
                    &self.store,
                    &self.pools,
                    &self.abort_log,
                    &env,
                    &mut state.breakdown,
                );
                self.obs
                    .hub()
                    .aborts_replayed(replay.transactions as u64, replay.aborted as u64);
                let count = |n: usize| n.min(u32::MAX as usize) as u32;
                self.obs.trace_exec(
                    index,
                    seq,
                    TraceKind::AbortReplay {
                        transactions: count(replay.transactions),
                        writes: count(replay.reapplied_writes),
                        aborted: count(replay.aborted),
                    },
                );
                state.access_time += t_replay.elapsed();
            }
        });

        // Fold temporary versions of depended-upon states into the committed
        // values (safe: all processing finished at the barrier above).  A
        // replay already folded every versioned state; the flag it ran on
        // stands until the closing action clears it, so every executor
        // agrees on whether to skip.
        if !self.abort_log.replay_needed() {
            restructure::collapse_versioned(&self.store, &versioned);
        }
        cached
    }
}

/// The TStream / baseline execution engine.
///
/// The engine owns a persistent [`ExecutorPool`], spawned lazily on the
/// first run/session and reused — threads are spawned **once per engine**,
/// never per run, session or batch (`runtime_threads_spawned` makes that
/// verifiable).  Clones share the pool whether they are made before or
/// after the pool is spawned.
///
/// Sessions ([`Engine::session_builder`]) multiplex concurrently over the
/// pool: each session has its own barrier, accumulators and (for durable
/// sessions) epoch counters, and the pool's scheduler interleaves their
/// batches fairly.  Concurrent sessions must use disjoint stores and
/// eager-scheme instances — see [`crate::session::Session`].
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
    /// The `Arc` is what clones share; the `OnceLock` is the lazy spawn.
    /// Keeping the cell itself shared means a clone made *before* the first
    /// run still uses the same pool as the original.
    pool: Arc<OnceLock<ExecutorPool>>,
    /// The engine's observability state (metrics hub + flight recorder +
    /// post-mortem latch), shared by clones like the pool.
    obs: Arc<Obs>,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            pool: Arc::new(OnceLock::new()),
            obs: Arc::new(Obs::new(config.obs, config.executors.max(1))),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's observability state, for layers (sessions, the WAL
    /// writer) that record into it directly.
    pub(crate) fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// A shared handle to the engine's observability aggregate, for
    /// out-of-crate layers (the replication shipper and standby) that record
    /// their own series into this engine's metrics hub.
    pub fn observability(&self) -> Arc<Obs> {
        self.obs.clone()
    }

    /// Point-in-time copy of every metric series the engine maintains:
    /// ingestion, execution, durability, session gauges and the flight
    /// recorder's own counters.  Cumulative over the engine's lifetime,
    /// across runs and sessions; all zeros when the engine was built with
    /// [`tstream_obs::ObsConfig::disabled`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.metrics_snapshot()
    }

    /// The current metrics in Prometheus text exposition format (one
    /// `# HELP`/`# TYPE`/value stanza per series) — scrape-ready.
    pub fn metrics_text(&self) -> String {
        self.obs.metrics_text()
    }

    /// The current metrics as one flat JSON object.
    pub fn metrics_json(&self) -> String {
        self.obs.metrics_json()
    }

    /// Drain the flight recorder: the last events of every runtime lane
    /// (executors, ingestion, WAL writer) merged into one chronological
    /// timeline.
    pub fn flight_recording(&self) -> Vec<TraceEvent> {
        self.obs.flight_recording()
    }

    /// How many post-mortem dumps this engine has emitted (0 or 1: the dump
    /// fires exactly once, on the first executor panic / barrier poisoning).
    pub fn post_mortem_count(&self) -> u64 {
        self.obs.post_mortem_count()
    }

    /// The stored post-mortem dump, if one fired.
    pub fn last_post_mortem(&self) -> Option<String> {
        self.obs.last_post_mortem()
    }

    /// The engine's persistent executor pool, spawning it on first use.
    pub(crate) fn pool(&self) -> &ExecutorPool {
        self.pool.get_or_init(|| {
            ExecutorPool::new(
                self.config.executors.max(1),
                self.config.pipeline_depth.max(1),
            )
        })
    }

    /// Executor threads this engine's runtime has spawned so far: `0` before
    /// the first run, the configured executor count from then on — however
    /// many runs, sessions and batches the engine serves.
    pub fn runtime_threads_spawned(&self) -> u64 {
        self.pool.get().map(|p| p.spawned()).unwrap_or(0)
    }

    /// Run `payloads` through `app` on top of `store` under `scheme`.
    ///
    /// This is a thin wrapper that streams the input through one plain
    /// [`crate::session::Session`] built with [`Engine::session_builder`]:
    /// ingestion (stamping, routing, batch formation) overlaps execution,
    /// and the executor threads come from the engine's persistent pool.
    pub fn run<A: Application>(
        &self,
        app: &Arc<A>,
        store: &Arc<StateStore>,
        payloads: Vec<A::Payload>,
        scheme: &Scheme,
    ) -> RunReport {
        let mut session = self
            .session_builder(app, store, scheme)
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
    }

    /// The seed's offline execution mode, kept as a differential baseline:
    /// pre-materialize every batch, then spawn one scoped thread per executor
    /// that loops over the batches.  Admits and executes every batch through
    /// the same code as the pipelined path, so committed/rejected counts and
    /// final state must be byte-identical to [`Engine::run`]; only scheduling
    /// (and hence timing) differs.
    pub fn run_offline<A: Application>(
        &self,
        app: &Arc<A>,
        store: &Arc<StateStore>,
        payloads: Vec<A::Payload>,
        scheme: &Scheme,
    ) -> RunReport {
        // Offline runs never touch the pool (scoped threads); like
        // concurrent sessions, they own the store and scheme instance they
        // run against, so they may execute alongside sessions on other
        // stores of the same engine.
        let ctx = RunContext::new(self, app, store, scheme, None, None);
        let total_events = payloads.len() as u64;
        let mut builder = self.batch_builder(app, store);
        let mut batches: Vec<EngineBatch<A::Payload>> = Vec::new();
        for payload in payloads {
            if let Some(batch) = builder.push(payload) {
                batches.push(batch);
            }
        }
        batches.extend(builder.finish());
        let mut scratch = StateIndex::default();
        for batch in &mut batches {
            ctx.admit(batch, &mut scratch);
        }

        let started = clock::now();
        let states: Vec<ExecutorState> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ctx.executors())
                .map(|e| {
                    let ctx = &ctx;
                    let batches = &batches;
                    scope.spawn(move || {
                        let mut state = ExecutorState::default();
                        for batch in batches {
                            ctx.step(e, batch, &mut state);
                        }
                        state
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        ctx.aggregate(states, started.elapsed(), total_events)
    }

    /// Build the ingestion-side batch builder for a run over `app`: dense
    /// arrival-time stamping, the engine's routing policy applied per event,
    /// read/write sets derived once and carried as the batch's descriptors —
    /// with every set entry resolved to its record slot in `store`.
    ///
    /// Slot resolution here is the routing half of the slot-resolved fast
    /// path: it runs on the ingestion thread, overlapped with execution of
    /// the previous batch, so the per-operation index lookups leave the
    /// executors' critical path entirely (the determined read/write set —
    /// feature F2 — is what makes the slots knowable this early).
    pub(crate) fn batch_builder<A: Application>(
        &self,
        app: &Arc<A>,
        store: &Arc<StateStore>,
    ) -> BatchBuilder<A::Payload, TxnDescriptor> {
        let executors = self.config.executors.max(1);
        let layout = ExecutorLayout::new(executors, self.config.cores_per_socket);
        let interval = self.config.punctuation_interval.max(1);
        let num_shards = self.config.num_shards.clamp(1, MAX_SHARDS as usize) as u32;
        let shard_router =
            ShardRouter::new(num_shards).expect("clamped shard count is always valid");
        let routing = self.config.event_routing;
        let app = app.clone();
        let store = store.clone();
        BatchBuilder::new(
            executors,
            interval,
            Box::new(move |event: &Event<A::Payload>, in_batch: usize| {
                let rw_set = app.read_write_set(&event.payload);
                let target = match routing {
                    EventRouting::RoundRobin => in_batch % executors,
                    EventRouting::ShardAffine => rw_set
                        .primary()
                        .map(|state| {
                            layout
                                .executor_for_shard(shard_router.shard_of(state.key).0)
                                .index()
                        })
                        .unwrap_or(in_batch % executors),
                };
                let mut slots = Vec::with_capacity(rw_set.len());
                for (state, _) in rw_set.iter() {
                    slots.push(
                        store
                            .try_slot_of(TableId(state.table), state.key)
                            .unwrap_or(tstream_txn::INVALID_SLOT),
                    );
                }
                (
                    target,
                    TxnDescriptor {
                        ts: event.ts,
                        rw_set,
                        slots,
                        alone: false,
                    },
                )
            }),
        )
    }
}

/// Routing-time admission: mark `alone` each transaction whose determined
/// read/write set (feature **F2**) shares no state with another transaction
/// of the batch, and return whether all are (`false` for an empty batch).
/// Runs on the ingestion thread, off the executors.
///
/// Single pass over the read/write-set entries against a recycled scratch
/// index from each touched state to the first transaction touching it: a
/// later transaction finding a state claimed clears its own flag and the
/// claimant's.  Only hashes are compared, so a (rare) collision of distinct
/// states counts as shared — both are merely filed, which is always correct.
fn mark_alone(descriptors: &mut [TxnDescriptor], scratch: &mut StateIndex) -> bool {
    let touched: usize = descriptors.iter().map(|d| d.rw_set.len()).sum();
    scratch.reset(touched);
    let mut all_alone = !descriptors.is_empty();
    for txn in 0..descriptors.len() {
        let (earlier, rest) = descriptors.split_at_mut(txn);
        let mut alone = true;
        for (state, _) in rest[0].rw_set.iter() {
            let owner = scratch.find_or_insert(*state, txn as u32, |_| true);
            if let Some(owner) = owner.filter(|&owner| owner != txn as u32) {
                earlier[owner as usize].alone = false;
                alone = false;
            }
        }
        rest[0].alone = alone;
        all_alone &= alone;
    }
    all_alone
}

/// Build the state transaction for one event (pre-process + state access)
/// and stamp each operation with the record slots the router resolved at
/// ingestion time (carried by the batch's descriptors), beside whether
/// admission marked it alone in its batch.  Timestamps are dense within a
/// batch, so the descriptor of an event is found by offset in O(1); a binary
/// search over the ts-sorted descriptors covers any non-dense tail without
/// assuming density for correctness.
fn resolved_transaction<A: Application>(
    app: &A,
    batch: &EngineBatch<A::Payload>,
    event: &Event<A::Payload>,
) -> (StateTransaction, BlotterHandle, bool) {
    let mut builder = TxnBuilder::new(event.ts);
    if app.pre_process(&event.payload) {
        app.state_access(&event.payload, &mut builder);
    }
    let (mut txn, blotter) = builder.build();
    let descriptors = &batch.descriptors;
    let first_ts = batch.punctuation.ts.wrapping_sub(descriptors.len() as u64);
    let idx = event.ts.wrapping_sub(first_ts) as usize;
    let found = match descriptors.get(idx) {
        Some(d) if d.ts == event.ts => Some(idx),
        _ => descriptors.binary_search_by_key(&event.ts, |d| d.ts).ok(),
    };
    let Some(descriptor) = found.map(|i| &descriptors[i]) else {
        return (txn, blotter, false);
    };
    if !descriptor.slots.is_empty() {
        txn.resolve_slots(|state| descriptor.slot_for(state));
    }
    (txn, blotter, descriptor.alone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstream_stream::operator::{ReadWriteSet, StateRef};

    fn descriptor(ts: u64, rw_set: ReadWriteSet) -> TxnDescriptor {
        TxnDescriptor::unresolved(ts, rw_set)
    }

    fn flags(descriptors: &[TxnDescriptor]) -> Vec<bool> {
        descriptors.iter().map(|d| d.alone).collect()
    }

    #[test]
    fn mark_alone_clears_both_sharers_and_keeps_the_rest() {
        let mut scratch = StateIndex::default();
        let mut batch = vec![
            descriptor(0, ReadWriteSet::new().write(StateRef::new(0, 1))),
            descriptor(1, ReadWriteSet::new().write(StateRef::new(0, 2))),
            descriptor(2, ReadWriteSet::new().read(StateRef::new(0, 1))),
        ];
        assert!(!mark_alone(&mut batch, &mut scratch));
        assert_eq!(flags(&batch), [false, true, false]);
    }

    #[test]
    fn mark_alone_keeps_a_transaction_that_reads_and_writes_one_state() {
        let mut scratch = StateIndex::default();
        let state = StateRef::new(1, 7);
        let mut batch = vec![
            descriptor(0, ReadWriteSet::new().read(state).write(state)),
            descriptor(1, ReadWriteSet::new().write(StateRef::new(1, 8))),
        ];
        assert!(mark_alone(&mut batch, &mut scratch));
        assert_eq!(flags(&batch), [true, true]);
    }

    #[test]
    fn mark_alone_reports_disjoint_and_empty_batches() {
        let mut scratch = StateIndex::default();
        // Equal keys in different tables are different states.
        let mut disjoint: Vec<_> = (0..100u64)
            .map(|i| {
                descriptor(
                    i,
                    ReadWriteSet::new().write(StateRef::new(i as u32 % 2, i / 2)),
                )
            })
            .collect();
        assert!(mark_alone(&mut disjoint, &mut scratch));
        assert!(disjoint.iter().all(|d| d.alone));
        assert!(!mark_alone(&mut [], &mut scratch));
    }
}
