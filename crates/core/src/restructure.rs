//! Dynamic restructuring execution: parallel processing of operation chains.
//!
//! Once every executor has entered state-access mode, the batch of postponed
//! transactions — already decomposed into per-state operation chains — is
//! processed collaboratively (Section IV-C.2):
//!
//! * chains with no data dependencies are simply walked from the smallest
//!   timestamp, in parallel, with **no** lock acquisition of any kind;
//! * chains with dependencies are handled either with the paper's iterative
//!   round-based process ([`DependencyResolution::Rounds`]) or with a
//!   fine-grained scheme in which an operation waits only until the
//!   depended-upon chain has advanced past every write with a smaller
//!   timestamp ([`DependencyResolution::FineGrained`]);
//! * states that other chains depend on keep *temporary versions* during the
//!   batch so dependent reads observe timestamp-consistent values even when
//!   their own chain runs ahead; the newest version is folded back into the
//!   committed value when the batch ends;
//! * an operation whose consistency check fails is skipped and its
//!   transaction marked aborted ("rejected"), exactly as described in
//!   "Handling Transaction Abort";
//! * if the aborting transaction had *multiple* operations, its already
//!   applied writes may live in other chains (possibly already processed by
//!   other executors).  This is the expensive case the paper calls out in
//!   Section IV-F: the batch is then **replayed serially** from its pre-batch
//!   state — every applied write is undone from the [`BatchAbortLog`] and the
//!   leader re-executes the whole batch in timestamp order, which restores
//!   exact serial-equivalent semantics at the cost the paper acknowledges.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use tstream_obs::clock::{self, Stopwatch};
use tstream_state::StateStore;
use tstream_stream::metrics::{Breakdown, Component};
use tstream_stream::operator::StateRef;
use tstream_txn::exec::{
    execute_operation, execute_transaction_body, resolve_record, AccessPlan, UndoEntry, ValueMode,
};
use tstream_txn::{ExecEnv, Operation};

use crate::chains::{ChainPoolSet, FrozenPool, OperationChain, ProcessingAssignment, StateIndex};
use crate::config::DependencyResolution;

/// Per-batch abort bookkeeping shared by all executors.
///
/// Executors append the undo entries of the writes they applied once they
/// finish their share of the batch; if any multi-operation transaction
/// aborted, the batch is replayed serially from the restored pre-batch state
/// (see [`replay_batch_serially`]).
#[derive(Debug, Default)]
pub struct BatchAbortLog {
    undo: Mutex<Vec<UndoEntry>>,
    replay_needed: AtomicBool,
    /// Scratch table of the serial replay's restore pass, recycled across
    /// batches (replays are leader-only at a quiescent point, so the lock is
    /// never contended).
    replay_arena: Mutex<ReplayArena>,
}

impl BatchAbortLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one executor's undo entries.
    pub fn append(&self, mut entries: Vec<UndoEntry>) {
        if entries.is_empty() {
            return;
        }
        self.undo.lock().append(&mut entries);
    }

    /// Flag that a multi-operation transaction aborted during the batch, so
    /// the batch must be replayed serially.
    pub fn request_replay(&self) {
        self.replay_needed.store(true, Ordering::Release);
    }

    /// Whether a serial replay of the current batch is required.
    pub fn replay_needed(&self) -> bool {
        self.replay_needed.load(Ordering::Acquire)
    }

    /// Number of undo entries accumulated for the current batch.
    pub fn undo_len(&self) -> usize {
        self.undo.lock().len()
    }

    /// Take all undo entries, leaving the log empty.
    pub fn take_undo(&self) -> Vec<UndoEntry> {
        std::mem::take(&mut self.undo.lock())
    }

    /// Reset for the next batch.
    pub fn clear_batch(&self) {
        self.undo.lock().clear();
        self.replay_needed.store(false, Ordering::Release);
    }
}

/// Scratch table of the serial replay's restore pass: maps each written state
/// to the *oldest* undo entry the batch produced for it, i.e. the committed
/// value the state had before the batch touched it.  Hash collisions in the
/// index are disambiguated against the actual state in the dense entry list,
/// so restores are always exact.  In steady state a replay allocates nothing
/// here.
#[derive(Debug, Default)]
struct ReplayArena {
    /// State → position in `entries`.
    index: StateIndex,
    entries: Vec<UndoEntry>,
}

impl ReplayArena {
    /// Fold one undo entry in, keeping the oldest (smallest-timestamp) entry
    /// per state.
    fn note(&mut self, entry: UndoEntry) {
        let entries = &self.entries;
        let found = self
            .index
            .find_or_insert(entry.target, entries.len() as u32, |at| {
                entries[at as usize].target == entry.target
            });
        match found {
            None => self.entries.push(entry),
            Some(at) => {
                let oldest = &mut self.entries[at as usize];
                if entry.ts < oldest.ts {
                    *oldest = entry;
                }
            }
        }
    }
}

/// Statistics returned by one executor's share of chain processing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Chains processed by this executor.
    pub chains: usize,
    /// Operations applied.
    pub ops: usize,
    /// Operations skipped because their transaction aborted.
    pub skipped: usize,
    /// Rounds needed (round-based resolution only).
    pub rounds: usize,
}

impl ChainStats {
    /// Merge another executor's statistics into this one.
    pub fn merge(&mut self, other: &ChainStats) {
        self.chains += other.chains;
        self.ops += other.ops;
        self.skipped += other.skipped;
        self.rounds = self.rounds.max(other.rounds);
    }
}

/// Everything an executor needs to process its share of a batch's chains.
#[derive(Clone, Copy)]
pub struct RestructureContext<'a> {
    /// The chain pools of the run.
    pub pools: &'a ChainPoolSet,
    /// The shared state store.
    pub store: &'a StateStore,
    /// This executor's environment (identity + NUMA model).
    pub env: ExecEnv,
    /// Dependency-resolution strategy.
    pub resolution: DependencyResolution,
    /// Whether chains are claimed dynamically within a sharing group.
    pub work_stealing: bool,
    /// Whether per-operation remote/local classification (and the fine
    /// per-operation timers that come with it) is worth paying for: true only
    /// when the NUMA model is enabled *and* the layout spans sockets.  When
    /// false, access time is charged at chain/batch granularity instead of
    /// two clock reads per operation.
    pub classify_remote: bool,
    /// Whether the whole run uses a single executor.  Barriers are elided
    /// and the executor takes every chain of its pool.
    pub single_executor: bool,
    /// Per-batch abort bookkeeping (undo entries + replay flag).
    pub abort_log: &'a BatchAbortLog,
}

/// The state of a *versioned* chain: one that was processed with temporary
/// versions, which [`collapse_versioned`] folds away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionedState {
    target: StateRef,
    slot: u32,
}

/// Process the chains assigned to one executor for the current batch.
///
/// Returns the statistics and the states of the *versioned* chains this
/// executor processed; their temporary versions must be folded into the
/// committed values once every executor has finished the batch
/// (see [`collapse_versioned`]).
pub fn process_assigned(
    ctx: &RestructureContext<'_>,
    assignment: ProcessingAssignment,
    breakdown: &mut Breakdown,
) -> (ChainStats, Vec<VersionedState>) {
    // The frozen runs are shared through reference counts, not guards: state
    // access takes record locks and touches per-event blotters, and nesting
    // those under a pool lock both risks lock-order inversions and poisons
    // the lock-order tracker's acquisition graph in test builds.
    let frozen = ctx.pools.freeze();
    let pool = &frozen[assignment.pool];
    let mut stats = ChainStats::default();
    let mut undo: Vec<UndoEntry> = Vec::new();

    // Claim the chains this executor is responsible for; a lone group
    // member owns every chain of its pool.
    let my_chains: Vec<OperationChain<'_>> = if assignment.group_size <= 1 {
        pool.chains().collect()
    } else if ctx.work_stealing {
        std::iter::from_fn(|| pool.claim_next()).collect()
    } else {
        pool.chains()
            .skip(assignment.member)
            .step_by(assignment.group_size)
            .collect()
    };

    // With per-op classification off, Useful is charged per chain/burst —
    // or, for a lone executor, once around its whole share.
    let t_all = Stopwatch::start_if(ctx.single_executor && !ctx.classify_remote);
    let per_chain = !ctx.single_executor && !ctx.classify_remote;

    if ctx.single_executor || ctx.resolution == DependencyResolution::FineGrained {
        // With one executor the cooperative scheduler can never stall: the
        // smallest-timestamp unprocessed operation is always runnable.
        process_cooperatively(
            ctx, &frozen, &my_chains, &mut stats, breakdown, &mut undo, per_chain,
        );
        stats.rounds = 1;
    } else {
        // Round 1 .. k: only process chains whose dependency chains have
        // been fully processed; remaining chains wait for the next round.
        let mut pending: Vec<OperationChain<'_>> = Vec::new();
        let mut current: Vec<OperationChain<'_>> = my_chains.clone();
        loop {
            stats.rounds += 1;
            let mut progressed = false;
            for chain in current.drain(..) {
                let ready = !chain.has_dependencies()
                    || chain.iter().filter_map(|op| op.dependency).all(|dep| {
                        ctx.pools
                            .find_chain(&frozen, dep)
                            .is_none_or(|c| c.is_fully_processed())
                    });
                if ready {
                    process_whole_chain(ctx, chain, &mut stats, breakdown, &mut undo, per_chain);
                    progressed = true;
                } else {
                    pending.push(chain);
                }
            }
            if pending.is_empty() {
                break;
            }
            if !progressed {
                // No chain became ready in a whole pass: either a
                // dependency cycle between chains or a dependency owned by
                // another executor that is itself not finished.  Fall back
                // to the deadlock-free cooperative scheduler for the rest.
                let rest = std::mem::take(&mut pending);
                process_cooperatively(
                    ctx, &frozen, &rest, &mut stats, breakdown, &mut undo, per_chain,
                );
                break;
            }
            std::mem::swap(&mut current, &mut pending);
        }
    }
    breakdown.charge(Component::Useful, t_all.elapsed());

    ctx.abort_log.append(undo);
    // Every operation of a chain targets the chain's state, so the first
    // one carries the state's slot.
    let versioned = my_chains
        .iter()
        .filter(|chain| chain.is_depended_upon())
        .filter_map(|chain| chain.get(0))
        .map(|op| VersionedState {
            target: op.target,
            slot: op.slot,
        })
        .collect();
    (stats, versioned)
}

/// Cursor over one chain during cooperative processing: the chain and the
/// position of its next unprocessed operation.
struct ChainCursor<'a> {
    chain: OperationChain<'a>,
    next: usize,
}

/// Process a set of chains cooperatively: the executor keeps cycling over its
/// chains, advancing each one until it hits an operation whose dependency is
/// not yet satisfied, then moves on to the next chain.
///
/// This never blocks while runnable work is available, which makes the
/// fine-grained schedule deadlock-free even when a chain and the chain it
/// depends on are assigned to the *same* executor: the globally
/// smallest-timestamp unprocessed operation is always runnable, and its owner
/// reaches it within one pass over its cursors.
///
/// `timed` charges every chain walk and burst to Useful (see
/// [`process_assigned`]).
fn process_cooperatively(
    ctx: &RestructureContext<'_>,
    frozen: &[FrozenPool],
    chains: &[OperationChain<'_>],
    stats: &mut ChainStats,
    breakdown: &mut Breakdown,
    undo: &mut Vec<UndoEntry>,
    timed: bool,
) {
    // First pass: walk each chain in place.  Only a chain that actually hits
    // an unsatisfied dependency leaves a cursor for the cycling loop below;
    // most chains — every one that neither depends on another chain nor is
    // depended upon — complete here.
    let mut blocked: Vec<ChainCursor<'_>> = Vec::new();
    'chains: for &chain in chains {
        let versioned_target = chain.is_depended_upon();
        let t = Stopwatch::start_if(timed);
        for (next, op) in chain.iter().enumerate() {
            if dependency_blocked(ctx.pools, frozen, op) {
                breakdown.charge(Component::Useful, t.elapsed());
                blocked.push(ChainCursor { chain, next });
                continue 'chains;
            }
            execute_chain_op(ctx, chain, op, versioned_target, stats, breakdown, undo);
        }
        breakdown.charge(Component::Useful, t.elapsed());
        chain.mark_fully_processed();
        stats.chains += 1;
    }

    // Cycling loop over the blocked chains: advance each as far as its
    // dependencies allow, then move on; never block while runnable work
    // exists.
    let mut remaining: usize = blocked.len();
    let mut wait_timer: Option<Instant> = None;
    while remaining > 0 {
        let mut progressed = false;
        for cursor in &mut blocked {
            if cursor.next >= cursor.chain.len() {
                continue;
            }
            let versioned_target = cursor.chain.is_depended_upon();
            let t = Stopwatch::start_if(timed);
            while let Some(op) = cursor.chain.get(cursor.next) {
                if dependency_blocked(ctx.pools, frozen, op) {
                    break;
                }
                execute_chain_op(
                    ctx,
                    cursor.chain,
                    op,
                    versioned_target,
                    stats,
                    breakdown,
                    undo,
                );
                cursor.next += 1;
                progressed = true;
            }
            breakdown.charge(Component::Useful, t.elapsed());
            if cursor.next >= cursor.chain.len() {
                cursor.chain.mark_fully_processed();
                stats.chains += 1;
                remaining -= 1;
            }
        }
        if !progressed {
            // Every remaining operation waits on a chain owned by another
            // executor; account the stall as Sync and yield until it advances.
            wait_timer.get_or_insert_with(clock::now);
            std::thread::yield_now();
        } else if let Some(timer) = wait_timer.take() {
            breakdown.charge(Component::Sync, timer.elapsed());
        }
    }
    if let Some(timer) = wait_timer.take() {
        breakdown.charge(Component::Sync, timer.elapsed());
    }
}

/// Whether `op` must wait for a write in the chain it depends on: every write
/// with a smaller timestamp in the depended-upon chain must have been applied
/// before `op` may read it.
#[inline]
fn dependency_blocked(pools: &ChainPoolSet, frozen: &[FrozenPool], op: &Operation) -> bool {
    let Some(dep) = op.dependency else {
        return false;
    };
    let Some(dep_chain) = pools.find_chain(frozen, dep) else {
        return false;
    };
    match dep_chain.last_write_before(op.ts) {
        Some(threshold) => dep_chain.processed_upto() <= threshold,
        None => false,
    }
}

/// Walk one operation chain from the smallest timestamp, applying every
/// operation; used by the round-based scheduler once the chain's dependencies
/// are known to be fully processed.
fn process_whole_chain(
    ctx: &RestructureContext<'_>,
    chain: OperationChain<'_>,
    stats: &mut ChainStats,
    breakdown: &mut Breakdown,
    undo: &mut Vec<UndoEntry>,
    timed: bool,
) {
    let versioned_target = chain.is_depended_upon();
    let t = Stopwatch::start_if(timed);
    for op in chain.iter() {
        execute_chain_op(ctx, chain, op, versioned_target, stats, breakdown, undo);
    }
    breakdown.charge(Component::Useful, t.elapsed());
    chain.mark_fully_processed();
    stats.chains += 1;
}

/// Run one operation of a chain through the state-access kernel — or skip
/// it, when its transaction already aborted — and advance the chain's
/// processed watermark.
///
/// Unlike the eager schemes this never takes a lock: the chain structure
/// already guarantees that the operations of one state are applied by one
/// thread in timestamp order.  A depended-upon chain keeps temporary
/// versions, and a dependency state is by construction depended upon, so it
/// is always read at the version visible at our timestamp (the committed
/// value when the batch never wrote it).
#[inline]
fn execute_chain_op(
    ctx: &RestructureContext<'_>,
    chain: OperationChain<'_>,
    op: &Operation,
    versioned_target: bool,
    stats: &mut ChainStats,
    breakdown: &mut Breakdown,
    undo: &mut Vec<UndoEntry>,
) {
    let plan = AccessPlan {
        target: if versioned_target {
            ValueMode::Versioned
        } else {
            ValueMode::Committed
        },
        dependency: ValueMode::Versioned,
        classify: ctx.classify_remote,
    };
    if op.blotter.is_aborted() {
        stats.skipped += 1;
    } else if let Err(e) = execute_operation(op, ctx.store, &ctx.env, plan, breakdown, undo) {
        // The offending operation is skipped and the transaction marked
        // rejected; sibling operations of the same transaction will be
        // skipped when their chains reach them.  If the transaction has
        // other operations, some of its writes may already have been
        // applied in other chains — the batch must then be replayed
        // serially to restore serial-equivalent semantics (Section IV-F).
        op.blotter.mark_aborted(e.to_string());
        if op.blotter.slots() > 1 {
            ctx.abort_log.request_replay();
        }
        stats.skipped += 1;
    } else {
        stats.ops += 1;
    }
    // Only depended-upon chains ever have their watermark read.
    if versioned_target {
        chain.advance_processed(op.ts + 1);
    }
}

/// Fold the temporary versions of the given states into their committed
/// values (end-of-batch garbage collection, Section IV-C.2).
///
/// Must only be called once every executor has finished processing the batch.
pub fn collapse_versioned(store: &StateStore, versioned: &[VersionedState]) {
    for state in versioned {
        if let Ok(record) = resolve_record(store, state.target, state.slot, None) {
            record.collapse_versions();
        }
    }
}

/// Statistics of one serial batch replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// States restored to their pre-batch values.
    pub restored_states: usize,
    /// Transactions re-executed.
    pub transactions: usize,
    /// Transactions that aborted during the replay (the authoritative abort
    /// decisions of the batch).
    pub aborted: usize,
}

/// Serially replay the current batch after a multi-write abort.
///
/// Dynamic restructuring applies the operations of one transaction in
/// different chains, possibly on different executors; when such a transaction
/// aborts, writes it already applied elsewhere — and every later operation
/// that read them — do not match the serial schedule any more.  The paper
/// accepts that "the abortion of a multi-write transaction may roll back
/// multiple operation chains" and flags it as TStream's expensive case
/// (Section IV-F).  This routine restores exact serial semantics:
///
/// 1. every write applied during the first pass is undone (oldest first per
///    state, using the [`BatchAbortLog`]'s undo entries), restoring the
///    pre-batch committed values;
/// 2. the result slots and abort flags of every transaction in the batch are
///    cleared;
/// 3. the whole batch is re-executed by one thread in timestamp order with
///    per-transaction rollback, which is the definition of the correct state
///    transaction schedule.
///
/// Must be called from a single thread at a quiescent point (after the
/// end-of-processing barrier, before post-processing starts).
pub fn replay_batch_serially(
    store: &StateStore,
    pools: &ChainPoolSet,
    abort_log: &BatchAbortLog,
    env: &ExecEnv,
    breakdown: &mut Breakdown,
) -> ReplayStats {
    let mut stats = ReplayStats::default();

    // ---- 1. Restore the pre-batch committed values: for every written state
    // the undo entry with the smallest timestamp holds the value it had
    // before the batch touched it.  The fold runs over an arena recycled
    // across batches, and the restore itself goes through the resolved
    // record slots — no ordered map, no per-state index lookup.
    let mut arena = abort_log.replay_arena.lock();
    let undo = abort_log.take_undo();
    arena.index.reset(undo.len());
    for entry in undo {
        arena.note(entry);
    }
    for entry in arena.entries.drain(..) {
        if let Ok(record) = resolve_record(store, entry.target, entry.slot, None) {
            record.discard_versions();
            record.write_committed(entry.previous);
            stats.restored_states += 1;
        }
    }
    drop(arena);

    // ---- 2. Gather the batch's operations back out of the frozen logs, as
    // *references*: not a single `Operation` (or its blotter handle) is
    // cloned.  One unstable sort by (ts, op_index) recovers both the serial
    // transaction order and the issue order within each transaction.
    let frozen = pools.freeze();
    let mut ops: Vec<&Operation> = frozen.iter().flat_map(|pool| pool.operations()).collect();
    ops.sort_unstable_by_key(|op| (op.ts, op.op_index));

    // ---- 3. Re-execute serially in timestamp order through the shared
    // eager body: per-transaction rollback, the usual breakdown charging.
    for txn_ops in ops.chunk_by(|a, b| a.ts == b.ts) {
        txn_ops[0].blotter.reset();
        stats.transactions += 1;
        let body = execute_transaction_body(
            txn_ops.iter().copied(),
            store,
            env,
            ValueMode::Committed,
            breakdown,
        );
        if body.is_err() {
            stats.aborted += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chains::ChainPoolSet;
    use crate::config::ChainPlacement;
    use std::sync::Arc;
    use tstream_state::{StateError, StateStore, TableBuilder, TableId, Value};
    use tstream_stream::executor::ExecutorLayout;
    use tstream_stream::operator::StateRef;
    use tstream_txn::TxnBuilder;

    fn store(keys: u64) -> Arc<StateStore> {
        let t = TableBuilder::new("t")
            .extend((0..keys).map(|k| (k, Value::Long(0))))
            .build()
            .unwrap();
        StateStore::new(vec![t]).unwrap()
    }

    fn ctx<'a>(
        pools: &'a ChainPoolSet,
        store: &'a StateStore,
        abort_log: &'a BatchAbortLog,
        resolution: DependencyResolution,
    ) -> RestructureContext<'a> {
        RestructureContext {
            pools,
            store,
            env: ExecEnv::single(),
            resolution,
            work_stealing: false,
            classify_remote: true,
            single_executor: false,
            abort_log,
        }
    }

    /// Decompose a transaction into the pools (what compute mode does).
    fn decompose(pools: &ChainPoolSet, txn: tstream_txn::StateTransaction) {
        for op in txn.ops {
            pools.chain_for_op(&op).insert(op);
        }
    }

    #[test]
    fn independent_chains_apply_all_operations() {
        let store = store(8);
        let layout = ExecutorLayout::new(1, 10);
        let pools = ChainPoolSet::new(ChainPlacement::SharedNothing, layout, 1);

        for ts in 0..64u64 {
            let mut b = TxnBuilder::new(ts);
            b.read_modify(0, ts % 8, None, |ctx| {
                Ok(Value::Long(ctx.current.as_long()? + 1))
            });
            let (txn, _) = b.build();
            decompose(&pools, txn);
        }
        let abort_log = BatchAbortLog::new();
        let context = ctx(
            &pools,
            &store,
            &abort_log,
            DependencyResolution::FineGrained,
        );
        let mut breakdown = Breakdown::new();
        let (stats, versioned) = process_assigned(
            &context,
            pools.assignment(tstream_stream::ExecutorId(0)),
            &mut breakdown,
        );
        assert_eq!(stats.ops, 64);
        assert!(!abort_log.replay_needed());
        assert_eq!(
            abort_log.undo_len(),
            64,
            "one undo record per applied write"
        );
        assert_eq!(stats.chains, 8);
        assert!(versioned.is_empty());
        for k in 0..8u64 {
            assert_eq!(
                store.record(TableId(0), k).unwrap().read_committed(),
                Value::Long(8)
            );
        }
    }

    #[test]
    fn dependent_chains_observe_timestamp_consistent_values() {
        // Transfer-style dependency: txn at ts writes key 1 += value of key 0
        // (as of ts); interleaved txns increment key 0.  The final value of
        // key 1 is the sum of key 0's values at each transfer timestamp,
        // which is only correct if dependent reads see the right version.
        for resolution in [
            DependencyResolution::FineGrained,
            DependencyResolution::Rounds,
        ] {
            let store = store(2);
            let layout = ExecutorLayout::new(2, 10);
            let pools = ChainPoolSet::new(ChainPlacement::SharedEverything, layout, 1);

            // ts 0,2,4,6: key0 += 10.  ts 1,3,5,7: key1 += key0 (visible).
            for ts in 0..8u64 {
                let mut b = TxnBuilder::new(ts);
                if ts % 2 == 0 {
                    b.read_modify(0, 0, None, |ctx| {
                        Ok(Value::Long(ctx.current.as_long()? + 10))
                    });
                } else {
                    b.write_with(0, 1, Some(StateRef::new(0, 0)), |ctx| {
                        Ok(Value::Long(
                            ctx.current.as_long()? + ctx.dependency.unwrap().as_long()?,
                        ))
                    });
                }
                let (txn, _) = b.build();
                decompose(&pools, txn);
            }

            // Two executors process the (single, shared) pool concurrently
            // with work stealing, so the two chains can be walked by
            // different threads.
            let abort_log = BatchAbortLog::new();
            let stats: Vec<(ChainStats, Vec<VersionedState>)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|e| {
                        let pools = &pools;
                        let abort_log = &abort_log;
                        let store = store.clone();
                        s.spawn(move || {
                            let context = RestructureContext {
                                pools,
                                store: &store,
                                env: ExecEnv::single(),
                                resolution,
                                work_stealing: true,
                                classify_remote: true,
                                single_executor: false,
                                abort_log,
                            };
                            let mut breakdown = Breakdown::new();
                            process_assigned(
                                &context,
                                pools.assignment(tstream_stream::ExecutorId(e)),
                                &mut breakdown,
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            let versioned: Vec<VersionedState> = stats.into_iter().flat_map(|(_, v)| v).collect();
            collapse_versioned(&store, &versioned);

            // key0 goes 10,20,30,40 at ts 0,2,4,6; transfers at ts 1,3,5,7 add
            // 10+20+30+40 = 100 to key1.
            assert_eq!(
                store.record(TableId(0), 0).unwrap().read_committed(),
                Value::Long(40),
                "{resolution:?}"
            );
            assert_eq!(
                store.record(TableId(0), 1).unwrap().read_committed(),
                Value::Long(100),
                "{resolution:?}"
            );
        }
    }

    #[test]
    fn aborted_transaction_operations_are_skipped() {
        let store = store(4);
        let layout = ExecutorLayout::new(1, 10);
        let pools = ChainPoolSet::new(ChainPlacement::SharedNothing, layout, 1);

        // A two-write transaction whose first (by chain order) write fails:
        // both writes must be skipped and the event marked rejected.
        let mut b = TxnBuilder::new(0);
        b.read_modify(0, 0, None, |_| {
            Err(StateError::ConsistencyViolation("bad".into()))
        });
        b.read_modify(0, 1, None, |ctx| {
            Ok(Value::Long(ctx.current.as_long()? + 1))
        });
        let (txn, blotter) = b.build();
        decompose(&pools, txn);
        let abort_log = BatchAbortLog::new();
        let context = ctx(
            &pools,
            &store,
            &abort_log,
            DependencyResolution::FineGrained,
        );
        let mut breakdown = Breakdown::new();
        let (stats, _) = process_assigned(
            &context,
            pools.assignment(tstream_stream::ExecutorId(0)),
            &mut breakdown,
        );
        assert!(blotter.is_aborted());
        assert!(
            abort_log.replay_needed(),
            "an aborted multi-operation transaction must request a serial replay"
        );
        assert!(stats.skipped >= 1);
        assert_eq!(
            store.record(TableId(0), 0).unwrap().read_committed(),
            Value::Long(0)
        );
        // NOTE: whether the second write is skipped depends on chain
        // processing order; with a single executor the chains are processed
        // in state order, so key 1's chain runs after key 0's chain has
        // already marked the transaction aborted.
        assert_eq!(
            store.record(TableId(0), 1).unwrap().read_committed(),
            Value::Long(0)
        );
    }

    #[test]
    fn serial_replay_restores_serial_semantics_after_a_multi_write_abort() {
        // Two transactions on two keys:
        //   ts 0: key0 += 5, key1 += 5    (commits)
        //   ts 1: key0 += 1, key1 -> fails (must abort as a whole)
        //   ts 2: key0 += 3, key1 += 3    (commits, must see ts 0 but not ts 1)
        // Under chain processing alone, ts 1's write to key0 is applied before
        // its failure on key1 is discovered; the replay must erase it.
        let store = store(2);
        let layout = ExecutorLayout::new(1, 10);
        let pools = ChainPoolSet::new(ChainPlacement::SharedNothing, layout, 1);

        let add = |b: &mut TxnBuilder, key: u64, delta: i64| {
            b.read_modify(0, key, None, move |ctx| {
                Ok(Value::Long(ctx.current.as_long()? + delta))
            });
        };
        let mut blotters = Vec::new();
        for ts in 0..3u64 {
            let mut b = TxnBuilder::new(ts);
            if ts == 1 {
                add(&mut b, 0, 1);
                b.read_modify(0, 1, None, |_| {
                    Err(StateError::ConsistencyViolation("poisoned".into()))
                });
            } else {
                let delta = if ts == 0 { 5 } else { 3 };
                add(&mut b, 0, delta);
                add(&mut b, 1, delta);
            }
            let (txn, blotter) = b.build();
            decompose(&pools, txn);
            blotters.push(blotter);
        }

        let abort_log = BatchAbortLog::new();
        let context = ctx(
            &pools,
            &store,
            &abort_log,
            DependencyResolution::FineGrained,
        );
        let mut breakdown = Breakdown::new();
        process_assigned(
            &context,
            pools.assignment(tstream_stream::ExecutorId(0)),
            &mut breakdown,
        );
        assert!(abort_log.replay_needed());

        let env = ExecEnv::single();
        let replay = replay_batch_serially(&store, &pools, &abort_log, &env, &mut breakdown);
        assert_eq!(replay.transactions, 3);
        assert_eq!(replay.aborted, 1);
        assert!(replay.restored_states >= 1);

        // Serial semantics: key0 = 5 + 3 = 8 (ts 1 contributes nothing),
        // key1 = 5 + 3 = 8.
        assert_eq!(
            store.record(TableId(0), 0).unwrap().read_committed(),
            Value::Long(8)
        );
        assert_eq!(
            store.record(TableId(0), 1).unwrap().read_committed(),
            Value::Long(8)
        );
        assert!(blotters[1].is_aborted());
        assert!(!blotters[0].is_aborted());
        assert!(!blotters[2].is_aborted());
        // The log is drained by the replay and can be reused for the next
        // batch after a clear.
        assert_eq!(abort_log.undo_len(), 0);
        abort_log.clear_batch();
        assert!(!abort_log.replay_needed());
    }

    #[test]
    fn a_versioned_chain_and_the_serial_body_agree_on_state_and_results() {
        // Key 0 is read through a dependency, so its chain is processed with
        // temporary versions; key 1 is written in place.  The same
        // operations through the serial eager body must leave the same
        // committed values and the same blotter results.
        let build = || {
            (0..8u64)
                .map(|ts| {
                    let mut b = TxnBuilder::new(ts);
                    match ts % 4 {
                        0 => b.read_modify(0, 0, None, |ctx| {
                            Ok(Value::Long(ctx.current.as_long()? + 10))
                        }),
                        1 => b.read_modify(0, 1, Some(StateRef::new(0, 0)), |ctx| {
                            Ok(Value::Long(
                                ctx.current.as_long()? + ctx.dependency.unwrap().as_long()?,
                            ))
                        }),
                        2 => b.read(0, 0),
                        _ => b.read_modify(0, 0, None, |ctx| {
                            if ctx.current.as_long()? >= 10 {
                                Err(StateError::ConsistencyViolation("too rich".into()))
                            } else {
                                Ok(Value::Long(0))
                            }
                        }),
                    };
                    b.build()
                })
                .collect::<Vec<_>>()
        };
        let results = |blotters: &[tstream_txn::BlotterHandle]| {
            blotters
                .iter()
                .map(|b| (b.is_aborted(), b.result(0)))
                .collect::<Vec<_>>()
        };

        let serial_store = store(2);
        let mut breakdown = Breakdown::new();
        let (txns, serial_blotters): (Vec<_>, Vec<_>) = build().into_iter().unzip();
        for txn in &txns {
            let _ = execute_transaction_body(
                &txn.ops,
                &serial_store,
                &ExecEnv::single(),
                ValueMode::Committed,
                &mut breakdown,
            );
        }

        let chained_store = store(2);
        let pools = ChainPoolSet::new(ChainPlacement::SharedNothing, ExecutorLayout::new(1, 10), 1);
        let (txns, chained_blotters): (Vec<_>, Vec<_>) = build().into_iter().unzip();
        for txn in txns {
            decompose(&pools, txn);
        }
        assert!(pools
            .find_chain(&pools.freeze(), StateRef::new(0, 0))
            .unwrap()
            .is_depended_upon());
        let abort_log = BatchAbortLog::new();
        let mut context = ctx(
            &pools,
            &chained_store,
            &abort_log,
            DependencyResolution::FineGrained,
        );
        context.single_executor = true;
        let (_, versioned) = process_assigned(
            &context,
            pools.assignment(tstream_stream::ExecutorId(0)),
            &mut breakdown,
        );
        assert_eq!(versioned.len(), 1);
        collapse_versioned(&chained_store, &versioned);
        assert!(!abort_log.replay_needed(), "single-operation aborts only");

        assert_eq!(chained_store.snapshot(), serial_store.snapshot());
        assert_eq!(results(&chained_blotters), results(&serial_blotters));
        assert!(serial_blotters.iter().any(|b| b.is_aborted()));
    }

    #[test]
    fn chain_stats_merge() {
        let mut a = ChainStats {
            chains: 1,
            ops: 10,
            skipped: 0,
            rounds: 1,
        };
        let b = ChainStats {
            chains: 2,
            ops: 5,
            skipped: 1,
            rounds: 3,
        };
        a.merge(&b);
        assert_eq!(a.chains, 3);
        assert_eq!(a.ops, 15);
        assert_eq!(a.skipped, 1);
        assert_eq!(a.rounds, 3);
    }
}
