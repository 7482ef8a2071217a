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
//!   other executors), and later operations may have read them.  This is
//!   the expensive case the paper calls out in Section IV-F: "the abortion
//!   of a multi-write transaction may roll back multiple operation chains".
//!   The action of the round that ends state-access mode then replays the
//!   abort's *closure* — the transactions that read a state it may have
//!   changed, transitively, and the blind writes that land on such a state —
//!   after restoring each state it reached from the [`BatchAbortLog`]; every
//!   other outcome of the batch stands.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use tstream_obs::clock::{self, Stopwatch};
use tstream_state::StateStore;
use tstream_stream::metrics::{Breakdown, Component};
use tstream_stream::operator::StateRef;
use tstream_txn::exec::{
    execute_operation, execute_transaction_planned, resolve_record, AccessPlan, UndoEntry,
    ValueMode,
};
use tstream_txn::{AccessType, ExecEnv, OpFunc, Operation, Timestamp};

use crate::chains::{ChainPoolSet, FrozenPool, OperationChain, ProcessingAssignment, StateIndex};
use crate::config::DependencyResolution;

/// [`BatchAbortLog`]'s first abort when no multi-operation transaction
/// aborted.
const NO_ABORT: Timestamp = Timestamp::MAX;

/// Per-batch abort bookkeeping shared by all executors.
///
/// Executors append the undo entries of the writes they applied once they
/// finish their share of the batch, and note the timestamp of every
/// multi-operation transaction that aborted; if one did, the abort's closure
/// is replayed (see [`replay_batch_serially`]).
#[derive(Debug)]
pub struct BatchAbortLog {
    undo: Mutex<Vec<UndoEntry>>,
    /// Timestamp of the earliest multi-operation transaction that aborted
    /// during chain evaluation — where the replay's closure starts — or
    /// [`NO_ABORT`].
    first_abort: AtomicU64,
    /// Scratch table of the replay, recycled across batches (a replay runs
    /// in one barrier action at a quiescent point, so the lock is never
    /// contended).
    dirty: Mutex<DirtyStates>,
}

impl Default for BatchAbortLog {
    fn default() -> Self {
        BatchAbortLog {
            undo: Mutex::default(),
            first_abort: AtomicU64::new(NO_ABORT),
            dirty: Mutex::default(),
        }
    }
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

    /// Note that the multi-operation transaction at `ts` aborted during the
    /// batch, so its closure must be replayed.
    pub fn request_replay(&self, ts: Timestamp) {
        self.first_abort.fetch_min(ts, Ordering::AcqRel);
    }

    /// Whether a replay of the current batch is required.
    pub fn replay_needed(&self) -> bool {
        self.first_abort.load(Ordering::Acquire) != NO_ABORT
    }

    /// Number of undo entries accumulated for the current batch.
    pub fn undo_len(&self) -> usize {
        self.undo.lock().len()
    }

    /// Reset for the next batch.
    pub fn clear_batch(&self) {
        self.undo.lock().clear();
        self.first_abort.store(NO_ABORT, Ordering::Release);
    }
}

/// The states a replay's closure reached, each with `d(s)` — the timestamp
/// from which its first-pass value may differ from the serial schedule — and
/// the undo entry that restores it.  Hash collisions in the index are
/// disambiguated against the actual state in the dense list.  In steady
/// state a replay allocates nothing here.
#[derive(Debug, Default)]
struct DirtyStates {
    /// State → position in `states`.
    index: StateIndex,
    states: Vec<DirtyState>,
}

#[derive(Debug)]
struct DirtyState {
    state: StateRef,
    /// `d(s)`: dirty from this timestamp on.
    from: Timestamp,
    /// Timestamp and log position of the first-pass write with the smallest
    /// timestamp `>= from`: its `previous` is the state's value at `from`.
    restore: Option<(Timestamp, usize)>,
}

impl DirtyStates {
    /// Forget the previous replay and size the index for `marks` states.
    fn reset(&mut self, marks: usize) {
        self.index.reset(marks);
        self.states.clear();
    }

    fn find(&self, state: StateRef) -> Option<usize> {
        let states = &self.states;
        self.index
            .find(state, |at| states[at as usize].state == state)
            .map(|at| at as usize)
    }

    fn is_dirty(&self, state: StateRef) -> bool {
        self.find(state).is_some()
    }

    /// Mark `state` dirty from `ts` on.  The closure runs forward in
    /// timestamp order, so an existing mark is already the smaller one.
    fn mark(&mut self, state: StateRef, ts: Timestamp) {
        let states = &self.states;
        let found = self.index.find_or_insert(state, states.len() as u32, |at| {
            states[at as usize].state == state
        });
        if found.is_none() {
            self.states.push(DirtyState {
                state,
                from: ts,
                restore: None,
            });
        }
    }

    /// Fold in the undo entry at position `at` of the first-pass log.  Of
    /// two entries with one timestamp (a transaction writing a state twice)
    /// the first logged is kept: a chain is evaluated by one executor, so its
    /// entries reach the log in chain order.
    fn note(&mut self, at: usize, entry: &UndoEntry) {
        let Some(dirty) = self.find(entry.target) else {
            return;
        };
        let dirty = &mut self.states[dirty];
        if entry.ts >= dirty.from && dirty.restore.is_none_or(|(ts, _)| entry.ts < ts) {
            dirty.restore = Some((entry.ts, at));
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
    /// Whether this executor counts the remote operations of the chains it
    /// claimed, in one pass after processing them: worth doing only when the
    /// NUMA model is enabled *and* the layout spans sockets.
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

impl VersionedState {
    /// The state of `chain` if the chain is versioned.  Every operation of a
    /// chain targets the chain's state, so the first one carries its slot.
    fn of(chain: &OperationChain<'_>) -> Option<VersionedState> {
        if !chain.is_depended_upon() {
            return None;
        }
        chain.get(0).map(|op| VersionedState {
            target: op.target,
            slot: op.slot,
        })
    }

    /// Fold the state's temporary versions into its committed value.
    fn collapse(self, store: &StateStore) {
        if let Ok(record) = resolve_record(store, self.target, self.slot, None) {
            record.collapse_versions();
        }
    }
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

    // Useful is charged per chain/burst — or, for a lone executor, once
    // around its whole share.
    let t_all = Stopwatch::start_if(ctx.single_executor);
    let per_chain = !ctx.single_executor;

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
    if ctx.classify_remote {
        breakdown.remote_accesses += my_chains
            .iter()
            .flat_map(|chain| chain.iter())
            .filter(|op| ctx.env.is_remote_op(op))
            .count() as u64;
    }

    ctx.abort_log.append(undo);
    let versioned = my_chains.iter().filter_map(VersionedState::of).collect();
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
        classify: false,
    };
    if op.blotter.is_aborted() {
        stats.skipped += 1;
    } else if let Err(e) = execute_operation(op, ctx.store, &ctx.env, plan, breakdown, undo) {
        // The offending operation is skipped and the transaction marked
        // rejected; sibling operations of the same transaction will be
        // skipped when their chains reach them.  If the transaction has
        // other operations, some of its writes may already have been
        // applied in other chains — the abort's closure must then be
        // replayed to restore serial-equivalent semantics (Section IV-F).
        op.blotter.mark_aborted(e.to_string());
        if op.blotter.slots() > 1 {
            ctx.abort_log.request_replay(op.ts);
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
/// values (end-of-batch garbage collection, Section IV-C.2).  Folding a
/// state twice is a no-op: the first fold leaves no versions behind.
///
/// Must only be called once every executor has finished processing the batch.
pub fn collapse_versioned(store: &StateStore, versioned: &[VersionedState]) {
    for state in versioned {
        state.collapse(store);
    }
}

/// Statistics of one closure replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Dirty states restored to their value where the closure reached them.
    pub restored_states: usize,
    /// Transactions re-executed: those the closure found dirty.
    pub transactions: usize,
    /// Blind writes of clean transactions re-applied over a restored state.
    pub reapplied_writes: usize,
    /// Re-executed transactions that aborted (the authoritative decisions
    /// for those; every other decision of the first pass stands).
    pub aborted: usize,
}

/// One step of a replay's re-execution, over the gathered operations.
enum Step {
    /// Re-execute a dirty transaction.
    Transaction(Range<usize>),
    /// Re-apply a clean blind write on a dirty state.
    BlindWrite(usize),
}

/// A `WRITE` of a constant: it reads neither its target nor a dependency,
/// so its effect is the same whatever the batch did before it.
fn is_blind_write(op: &Operation) -> bool {
    op.access == AccessType::Write
        && op.dependency.is_none()
        && matches!(op.func, Some(OpFunc::Const(_)))
}

/// Replay the closure of the current batch's multi-write aborts.
///
/// Dynamic restructuring applies the operations of one transaction in
/// different chains, possibly on different executors; when such a transaction
/// aborts, writes it already applied elsewhere — and every later operation
/// that read them — do not match the serial schedule any more.  The paper
/// accepts that "the abortion of a multi-write transaction may roll back
/// multiple operation chains" (Section IV-F).  A write at timestamp `t` can
/// only affect operations after `t`, so one forward pass from the earliest
/// such abort `t0` finds everything to redo:
///
/// 1. the batch's operations from `t0` on are walked in `(ts, op_index)`
///    order, one transaction at a time.  A transaction is *dirty* when it is
///    a multi-operation transaction that aborted, or when it reads — as
///    target or dependency — a state already marked dirty; a dirty
///    transaction marks every state it touches dirty from its timestamp.  A
///    blind write ([`OpFunc::Const`] `WRITE`) of a clean, committed
///    transaction onto a dirty state is kept for re-application;
/// 2. each dirty state is restored to its value at the timestamp it became
///    dirty: the `previous` of its first undo entry from there on (none: it
///    was never written after, and is already right);
/// 3. the dirty transactions are re-executed with per-transaction rollback,
///    and the kept blind writes re-applied, in timestamp order.
///
/// The temporary versions of every versioned chain are folded into the
/// committed values first (see [`collapse_versioned`]), so the replay reads
/// and writes committed values only; a caller may have folded them already.
///
/// Must be called from a single thread at a quiescent point: after every
/// executor finished processing the batch and before post-processing starts.
pub fn replay_batch_serially(
    store: &StateStore,
    pools: &ChainPoolSet,
    abort_log: &BatchAbortLog,
    env: &ExecEnv,
    breakdown: &mut Breakdown,
) -> ReplayStats {
    let mut stats = ReplayStats::default();
    let first_abort = abort_log.first_abort.load(Ordering::Acquire);

    let frozen = pools.freeze();
    for chain in frozen.iter().flat_map(FrozenPool::chains) {
        if let Some(state) = VersionedState::of(&chain) {
            state.collapse(store);
        }
    }

    // Gather the operations from the first abort on out of the frozen logs,
    // as references beside their sort keys.  One unstable sort by
    // (ts, op_index) recovers both the serial transaction order and the
    // issue order within each transaction.
    let mut keyed: Vec<(Timestamp, u32, &Operation)> = frozen
        .iter()
        .flat_map(|pool| pool.operations())
        .filter(|op| op.ts >= first_abort)
        .map(|op| (op.ts, op.op_index, op))
        .collect();
    keyed.sort_unstable_by_key(|&(ts, op_index, _)| (ts, op_index));
    let ops: Vec<&Operation> = keyed.into_iter().map(|(_, _, op)| op).collect();

    // ---- 1. The closure.
    let mut guard = abort_log.dirty.lock();
    let dirty = &mut *guard;
    // Each operation marks at most its target and its dependency.
    dirty.reset(2 * ops.len());
    let mut steps = Vec::new();
    let mut start = 0;
    for txn in ops.chunk_by(|a, b| a.ts == b.ts) {
        let range = start..start + txn.len();
        start = range.end;
        let blotter = &txn[0].blotter;
        let aborted = blotter.is_aborted();
        let reads_dirty = |op: &&Operation| {
            (!is_blind_write(op) && dirty.is_dirty(op.target))
                || op.dependency.is_some_and(|dep| dirty.is_dirty(dep))
        };
        if (aborted && blotter.slots() > 1) || txn.iter().any(reads_dirty) {
            // A dependency the transaction only reads is marked too: its
            // re-execution must see the value at its own timestamp, so a
            // later blind write there has to be undone and re-applied.
            for op in txn {
                dirty.mark(op.target, op.ts);
                if let Some(dep) = op.dependency {
                    dirty.mark(dep, op.ts);
                }
            }
            steps.push(Step::Transaction(range));
        } else if !aborted {
            steps.extend(
                range
                    .filter(|&i| is_blind_write(ops[i]) && dirty.is_dirty(ops[i].target))
                    .map(Step::BlindWrite),
            );
        }
    }

    // ---- 2. Restore, through the resolved record slots of the undo log.
    // The log itself stays for `clear_batch`, as it does for any batch.
    let log = abort_log.undo.lock();
    for (at, entry) in log.iter().enumerate() {
        dirty.note(at, entry);
    }
    for (_, at) in dirty.states.drain(..).filter_map(|state| state.restore) {
        let entry = &log[at];
        if let Ok(record) = resolve_record(store, entry.target, entry.slot, None) {
            record.write_committed(entry.previous.clone());
            stats.restored_states += 1;
        }
    }
    drop(log);
    drop(guard);

    // ---- 3. Re-execute in timestamp order through the shared kernel,
    // charging the whole re-execution at once.
    let plan = AccessPlan {
        classify: false,
        ..AccessPlan::eager(ValueMode::Committed)
    };
    let t_all = Stopwatch::start();
    let mut undo = Vec::new();
    for step in steps {
        match step {
            Step::Transaction(range) => {
                let txn = &ops[range];
                txn[0].blotter.reset();
                stats.transactions += 1;
                let body =
                    execute_transaction_planned(txn.iter().copied(), store, env, plan, breakdown);
                if body.is_err() {
                    stats.aborted += 1;
                }
            }
            Step::BlindWrite(i) => {
                // It applied in the first pass, so it applies again.
                let _ = execute_operation(ops[i], store, env, plan, breakdown, &mut undo);
                undo.clear();
                stats.reapplied_writes += 1;
            }
        }
    }
    breakdown.charge(Component::Useful, t_all.elapsed());
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
    use tstream_txn::exec::execute_transaction_body;
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
        // ts 0 precedes the abort and stands; ts 2 reads both keys ts 1
        // marked dirty, so it is re-executed too.
        assert_eq!(
            replay,
            ReplayStats {
                restored_states: 2,
                transactions: 2,
                reapplied_writes: 0,
                aborted: 1,
            }
        );

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
        // The log is reused for the next batch after a clear.
        abort_log.clear_batch();
        assert_eq!(abort_log.undo_len(), 0);
        assert!(!abort_log.replay_needed());
    }

    #[test]
    fn a_write_only_abort_replays_one_transaction_and_its_blind_overwrites() {
        // GS write-only: 500 ten-write transactions of constants over 1000
        // keys, one of them poisoned.  Nothing reads, so the closure is the
        // poisoned transaction plus the later writes onto its keys.
        const KEYS: u64 = 1000;
        const POISONED: u64 = 123;
        let build = || {
            let mut seed = 0x2545_f491_4f6c_dd1du64;
            (0..500u64)
                .map(|ts| {
                    let mut b = TxnBuilder::new(ts);
                    let mut keys = Vec::new();
                    while keys.len() < 10 {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let key = seed % KEYS;
                        if !keys.contains(&key) {
                            keys.push(key);
                        }
                    }
                    for (i, &key) in keys.iter().enumerate() {
                        if ts == POISONED && i == 4 {
                            b.write_with(0, key, None, |_| {
                                Err(StateError::ConsistencyViolation("negative".into()))
                            });
                        } else {
                            b.write_value(0, key, Value::Long((ts * 10 + i as u64) as i64));
                        }
                    }
                    b.build()
                })
                .collect::<Vec<_>>()
        };

        let serial_store = store(KEYS);
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
        let poisoned_keys: Vec<StateRef> = txns[POISONED as usize]
            .ops
            .iter()
            .map(|op| op.target)
            .collect();
        let overwrites = txns[POISONED as usize + 1..]
            .iter()
            .flat_map(|txn| &txn.ops)
            .filter(|op| poisoned_keys.contains(&op.target))
            .count();
        assert!(overwrites > 0, "the batch overwrites a poisoned key");

        let store = store(KEYS);
        let pools = ChainPoolSet::new(ChainPlacement::SharedNothing, ExecutorLayout::new(1, 10), 1);
        let (txns, blotters): (Vec<_>, Vec<_>) = build().into_iter().unzip();
        for txn in txns {
            decompose(&pools, txn);
        }
        let abort_log = BatchAbortLog::new();
        let context = ctx(
            &pools,
            &store,
            &abort_log,
            DependencyResolution::FineGrained,
        );
        let (_, versioned) = process_assigned(
            &context,
            pools.assignment(tstream_stream::ExecutorId(0)),
            &mut breakdown,
        );
        collapse_versioned(&store, &versioned);
        assert!(abort_log.replay_needed());
        let replay = replay_batch_serially(
            &store,
            &pools,
            &abort_log,
            &ExecEnv::single(),
            &mut breakdown,
        );

        assert_eq!(replay.transactions, 1);
        assert_eq!(replay.aborted, 1);
        assert!(replay.restored_states <= 10, "{replay:?}");
        assert_eq!(replay.reapplied_writes, overwrites);
        assert_eq!(store.snapshot(), serial_store.snapshot());
        let aborted = |blotters: &[tstream_txn::BlotterHandle]| {
            blotters.iter().map(|b| b.is_aborted()).collect::<Vec<_>>()
        };
        assert_eq!(aborted(&blotters), aborted(&serial_blotters));
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
    fn remote_operations_are_counted_once_by_the_executor_that_claims_them() {
        // Two executors on two synthetic sockets, one shared-nothing pool
        // each.  Every odd transaction reads a dependency, so both sides of
        // an operation can be remote.
        let layout = ExecutorLayout::new(2, 1);
        assert_eq!(layout.sockets(), 2);
        let env_of = |e: usize| ExecEnv {
            executor: tstream_stream::ExecutorId(e),
            layout,
            numa: tstream_txn::NumaModel::paper_calibrated(),
        };
        let run = |classify_remote: bool| {
            let store = store(16);
            let pools = ChainPoolSet::new(ChainPlacement::SharedNothing, layout, 1);
            let mut accesses = Vec::new();
            for ts in 0..64u64 {
                let mut b = TxnBuilder::new(ts);
                let dependency = (ts % 2 == 1).then(|| StateRef::new(0, (ts + 5) % 16));
                b.write_with(0, ts % 16, dependency, |ctx| {
                    let read = ctx.dependency.map_or(Ok(1), Value::as_long)?;
                    Ok(Value::Long(ctx.current.as_long()? + read))
                });
                accesses.push((StateRef::new(0, ts % 16), dependency));
                decompose(&pools, b.build().0);
            }
            let abort_log = BatchAbortLog::new();
            let counts: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|e| {
                        let (pools, store, abort_log) = (&pools, &store, &abort_log);
                        s.spawn(move || {
                            let context = RestructureContext {
                                pools,
                                store,
                                env: env_of(e),
                                resolution: DependencyResolution::FineGrained,
                                work_stealing: false,
                                classify_remote,
                                single_executor: false,
                                abort_log,
                            };
                            let mut breakdown = Breakdown::new();
                            let executor = tstream_stream::ExecutorId(e);
                            process_assigned(&context, pools.assignment(executor), &mut breakdown);
                            breakdown.remote_accesses
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // The oracle: the executor owning the target's pool processes the
            // operation; a side is remote when its key's socket is not the
            // executor's.
            let mut expected = [0u64; 2];
            for (target, dependency) in accesses {
                let e = pools.pool_index_for_state(target);
                let env = env_of(e);
                let remote =
                    |state: StateRef| env.owner_socket(state.key) != layout.socket_of(env.executor);
                expected[e] += u64::from(remote(target) || dependency.is_some_and(remote));
            }
            (counts, expected)
        };

        let (counts, expected) = run(true);
        assert_eq!(counts, expected);
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        let (counts, _) = run(false);
        assert_eq!(counts, [0, 0]);
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
