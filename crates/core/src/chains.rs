//! Operation chains and their placement pools.
//!
//! During *compute mode* every postponed state transaction is decomposed into
//! operations and each operation is **filed** under its target state
//! (Section IV-C.1, Figure 4).  Filing is an append: a pool is a handful of
//! append-only logs (*lanes*), the lane chosen by the state's hash, so one
//! state always lands in one lane while inserters on several executors
//! spread over the lanes.  Nothing is looked up and nothing exists per state:
//! a batch of thousands of short chains costs sequential writes, not one cold
//! bucket, object and buffer per state.
//!
//! At TXN_START the pool is **frozen** once: the logs are taken out of their
//! mutexes and one sort by `(state, ts, op_index)` groups them.  An
//! **operation chain** — the timestamp-ordered operations of one state — is
//! then a contiguous run of that order, described by one entry of a dense,
//! state-sorted vector.  State-access mode reads only the frozen runs:
//! claiming a share of the chains, walking a chain, finding the chain of a
//! dependency (binary search over the runs), the last write before a
//! timestamp (binary search inside a run), the serial replay and the
//! per-shard accounting.  The first read after filing performs the freeze
//! (the engine's TXN_START round action does it); filing into a frozen pool
//! is a bug and panics.  `clear` empties logs and runs and keeps their capacity,
//! so in steady state filing, freezing and clearing allocate nothing.
//!
//! How many pools exist and which executors insert into / process which pool
//! is decided by the NUMA-aware placement policy (Section IV-E):
//! shared-nothing (one pool per executor), shared-everything (one global
//! pool) or shared-per-socket (one pool per synthetic socket).
//!
//! Pool routing is **shard-aware**: a state's pool is derived from the shard
//! the state store assigns its key to (the same [`ShardRouter`] the store
//! uses), so with `num_shards == pool count` every chain of a shard lands in
//! exactly one pool — the shard's owner ([`ExecutorLayout::executor_for_shard`])
//! — and with fewer shards than pools each shard's chains are spread over a
//! fixed, disjoint pool subset.  `num_shards == 1` reproduces the seed's pure
//! hash spreading.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use tstream_state::{ShardId, ShardRouter, Timestamp, MAX_SHARDS};
use tstream_stream::executor::{ExecutorId, ExecutorLayout};
use tstream_stream::operator::StateRef;
use tstream_txn::Operation;

use crate::config::ChainPlacement;

/// Recycled open-addressing index from states to a small payload, sized to
/// the batch and reused across batches so it allocates nothing in steady
/// state (the [`ChainPool`] pattern).  Serves the two per-batch scratch
/// tables of the engine: conflict classification at admission and the
/// dirty states of a closure replay.
#[derive(Debug, Default)]
pub(crate) struct StateIndex {
    /// `(state hash, payload)`; hash `0` marks an empty slot.
    slots: Vec<(u64, u32)>,
}

/// fx-style mix of a state reference into one 64-bit hash (non-zero, so `0`
/// can mark an empty index slot).
fn state_hash(state: StateRef) -> u64 {
    let mut h = state.key ^ ((state.table as u64) << 32);
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h.max(1)
}

impl StateIndex {
    /// Size the index for `entries` insertions and forget previous contents;
    /// existing capacity is reused.
    pub(crate) fn reset(&mut self, entries: usize) {
        let wanted = (entries * 2).next_power_of_two().max(64);
        if self.slots.len() < wanted {
            self.slots = vec![(0, 0); wanted];
        } else {
            self.slots.fill((0, 0));
        }
    }

    /// The payload stored for `state`, if any; `is_state` as in
    /// [`Self::find_or_insert`].
    pub(crate) fn find(&self, state: StateRef, is_state: impl FnMut(u32) -> bool) -> Option<u32> {
        self.probe(state_hash(state), is_state).ok()
    }

    /// The payload stored for `state`, or `None` after storing `payload`
    /// for it.  Only hashes are kept, so `is_state` tells whether a payload
    /// with an equal hash really belongs to `state`; a caller that accepts
    /// every candidate may (very rarely) be handed the payload of a distinct
    /// state with a colliding hash, never miss the payload of an equal one.
    pub(crate) fn find_or_insert(
        &mut self,
        state: StateRef,
        payload: u32,
        is_state: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let h = state_hash(state);
        match self.probe(h, is_state) {
            Ok(found) => Some(found),
            Err(empty) => {
                self.slots[empty] = (h, payload);
                None
            }
        }
    }

    /// Linear probe for hash `h`: the payload `is_state` accepts, or the
    /// empty slot that ends the probe sequence.
    #[inline]
    fn probe(&self, h: u64, mut is_state: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let (slot_hash, found) = self.slots[i];
            if slot_hash == 0 {
                return Err(i);
            }
            if slot_hash == h && is_state(found) {
                return Ok(found);
            }
            i = (i + 1) & mask;
        }
    }
}

/// Sentinel meaning "every operation of this chain has been processed".
const FULLY_PROCESSED: u64 = u64::MAX;

/// Logs per pool: enough that inserters on different executors rarely meet
/// on one mutex, few enough for [`Filed::lane`].
const LANES: usize = 32;
const _: () = assert!(LANES <= 1 << u8::BITS);

const FILED_INTO_FROZEN: &str =
    "operation filed into a frozen chain pool: its batch is already being evaluated";

/// One append-only log of a pool.
#[derive(Debug, Default)]
struct Lane {
    ops: Vec<Operation>,
    /// States of this lane that an operation elsewhere depends on.
    depended_upon: Vec<StateRef>,
    /// Set by the freeze, reset by `clear`.
    frozen: bool,
}

/// Where a pool files the operations of one state during compute mode: the
/// state's lane.  What [`ChainPool::chain_for`] hands out.
#[derive(Debug)]
pub struct ChainSlot<'a> {
    lane: &'a Mutex<Lane>,
    state: StateRef,
}

impl ChainSlot<'_> {
    /// File a decomposed operation (concurrent: one short lock on the lane).
    ///
    /// # Panics
    /// When the pool is frozen — the operation would otherwise vanish from,
    /// or tear, a batch that executors are already evaluating.
    pub fn insert(&self, op: Operation) {
        debug_assert_eq!(op.target, self.state, "filed under a foreign state");
        let mut lane = self.lane.lock();
        assert!(!lane.frozen, "{FILED_INTO_FROZEN}");
        lane.ops.push(op);
    }

    /// Mark that another chain depends on this state: its chain is then
    /// processed with temporary versions so dependent reads observe
    /// timestamp-consistent values.  A mark on a state nothing is filed
    /// under has no chain to flag and is dropped at the freeze.
    pub fn mark_depended_upon(&self) {
        let mut lane = self.lane.lock();
        assert!(!lane.frozen, "{FILED_INTO_FROZEN}");
        if lane.depended_upon.last() != Some(&self.state) {
            lane.depended_upon.push(self.state);
        }
    }

    /// Declare that an operation of this state depends on `dep`.  The edge
    /// travels with the operation itself ([`Operation::dependency`]) and is
    /// read off it at the freeze, so there is nothing to record here; the
    /// method keeps decomposition loops written against per-chain objects
    /// compiling.
    pub fn add_dependency(&self, _dep: StateRef) {}
}

/// One filed operation in the frozen order: its sort key, where its body
/// lies in the logs, and the two facts the schedulers ask of an operation
/// without touching the body.
#[derive(Debug, Clone, Copy)]
struct Filed {
    table: u32,
    op_index: u32,
    key: u64,
    ts: Timestamp,
    pos: u32,
    lane: u8,
    write: bool,
    depends: bool,
}

/// One chain of a frozen pool: the run `start..end` of [`Frozen::order`].
#[derive(Debug)]
struct Run {
    state: StateRef,
    start: u32,
    end: u32,
    /// Some operation in *another* chain declared a dependency on this
    /// state.
    depended_upon: bool,
    /// Some operation of this chain declares a dependency.
    has_deps: bool,
    /// All operations with `ts < processed_upto` have been applied;
    /// [`FULLY_PROCESSED`] once the whole chain is done.
    processed_upto: AtomicU64,
}

/// A pool's batch after the freeze.
#[derive(Debug, Default)]
struct Frozen {
    /// The lanes' logs, swapped out of their mutexes.
    logs: Vec<Vec<Operation>>,
    /// Every filed operation, sorted by `(state, ts, op_index)`.
    order: Vec<Filed>,
    /// One entry per distinct state, sorted by state.
    runs: Vec<Run>,
    /// Scratch of the freeze: the lanes' depended-upon marks.
    marks: Vec<StateRef>,
    /// Claim cursor of a work-stealing group.
    next_task: AtomicUsize,
}

impl Frozen {
    /// Take the batch out of `lanes` and group it into chains.
    fn freeze(&mut self, lanes: &[Mutex<Lane>]) {
        self.logs.resize_with(lanes.len(), Vec::new);
        for (lane, log) in lanes.iter().zip(&mut self.logs) {
            let mut lane = lane.lock();
            lane.frozen = true;
            std::mem::swap(&mut lane.ops, log);
            self.marks.append(&mut lane.depended_upon);
        }
        let filed: usize = self.logs.iter().map(Vec::len).sum();
        assert!(
            u32::try_from(filed).is_ok(),
            "a batch files at most u32::MAX operations into one pool"
        );
        self.order.reserve(filed);
        for (lane, log) in self.logs.iter().enumerate() {
            self.order
                .extend(log.iter().enumerate().map(|(pos, op)| Filed {
                    table: op.target.table,
                    op_index: op.op_index,
                    key: op.target.key,
                    ts: op.ts,
                    pos: pos as u32,
                    lane: lane as u8,
                    write: op.is_write(),
                    depends: op.dependency.is_some(),
                }));
        }
        self.order
            .sort_unstable_by_key(|f| (f.table, f.key, f.ts, f.op_index));
        let mut start = 0u32;
        for run in self
            .order
            .chunk_by(|a, b| (a.table, a.key) == (b.table, b.key))
        {
            debug_assert!(
                run.windows(2)
                    .all(|w| (w[0].ts, w[0].op_index) != (w[1].ts, w[1].op_index)),
                "chain keys (ts, op_index) are unique within a batch"
            );
            let end = start + run.len() as u32;
            self.runs.push(Run {
                state: StateRef::new(run[0].table, run[0].key),
                start,
                end,
                depended_upon: false,
                has_deps: run.iter().any(|f| f.depends),
                processed_upto: AtomicU64::new(0),
            });
            start = end;
        }
        for state in self.marks.drain(..) {
            if let Ok(run) = self.runs.binary_search_by_key(&state, |r| r.state) {
                self.runs[run].depended_upon = true;
            }
        }
    }

    /// Forget the batch, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.logs.iter_mut().for_each(Vec::clear);
        self.order.clear();
        self.runs.clear();
        *self.next_task.get_mut() = 0;
    }

    fn chain<'a>(&'a self, run: &'a Run) -> OperationChain<'a> {
        OperationChain { frozen: self, run }
    }
}

/// The frozen chains of one pool — what state-access mode reads.  Holding
/// one keeps the batch's buffers from being recycled, so drop it before the
/// pool is cleared.
#[derive(Debug)]
pub struct FrozenPool(Arc<Frozen>);

impl FrozenPool {
    /// Number of chains (distinct states filed under).
    pub fn len(&self) -> usize {
        self.0.runs.len()
    }

    /// Whether nothing was filed.
    pub fn is_empty(&self) -> bool {
        self.0.runs.is_empty()
    }

    /// Every chain, in state order.
    pub fn chains(&self) -> impl ExactSizeIterator<Item = OperationChain<'_>> {
        self.0.runs.iter().map(|run| self.0.chain(run))
    }

    /// The chain of `state`, if anything was filed under it.
    pub fn find(&self, state: StateRef) -> Option<OperationChain<'_>> {
        let run = self.0.runs.binary_search_by_key(&state, |r| r.state).ok()?;
        Some(self.0.chain(&self.0.runs[run]))
    }

    /// Every filed operation, in no particular order.
    pub fn operations(&self) -> impl Iterator<Item = &Operation> {
        self.0.logs.iter().flatten()
    }

    /// Claim the next unclaimed chain (work-stealing style); `None` when
    /// every chain is taken.
    pub fn claim_next(&self) -> Option<OperationChain<'_>> {
        let idx = self.0.next_task.fetch_add(1, Ordering::AcqRel);
        self.0.runs.get(idx).map(|run| self.0.chain(run))
    }
}

/// A timestamp-ordered list of operations targeting one state: one run of a
/// frozen pool.
#[derive(Debug, Clone, Copy)]
pub struct OperationChain<'a> {
    frozen: &'a Frozen,
    run: &'a Run,
}

impl<'a> OperationChain<'a> {
    fn entries(&self) -> &'a [Filed] {
        &self.frozen.order[self.run.start as usize..self.run.end as usize]
    }

    fn body(&self, filed: &Filed) -> &'a Operation {
        &self.frozen.logs[filed.lane as usize][filed.pos as usize]
    }

    /// The state this chain targets.
    pub fn state(&self) -> StateRef {
        self.run.state
    }

    /// Number of operations in the chain (never zero).
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the chain holds no operations (it never does: a state with
    /// nothing filed under it has no chain).
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Iterate operations in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Operation> + 'a {
        let chain = *self;
        self.entries().iter().map(move |filed| chain.body(filed))
    }

    /// The `index`-th operation in timestamp order.
    pub fn get(&self, index: usize) -> Option<&'a Operation> {
        self.entries().get(index).map(|filed| self.body(filed))
    }

    /// Whether any other chain depends on this chain's state.
    pub fn is_depended_upon(&self) -> bool {
        self.run.depended_upon
    }

    /// Whether this chain declares any dependency.
    pub fn has_dependencies(&self) -> bool {
        self.run.has_deps
    }

    /// Timestamp of the latest *write* operation strictly before `ts`, if
    /// any.  A dependent reader at `ts` must wait until this chain has
    /// advanced past it.
    pub fn last_write_before(&self, ts: Timestamp) -> Option<Timestamp> {
        let entries = self.entries();
        let earlier = entries.partition_point(|filed| filed.ts < ts);
        entries[..earlier]
            .iter()
            .rev()
            .find(|filed| filed.write)
            .map(|filed| filed.ts)
    }

    /// Advance the processed watermark: every operation with a strictly
    /// smaller timestamp than `next_ts` has been applied.
    pub fn advance_processed(&self, next_ts: Timestamp) {
        self.run
            .processed_upto
            .fetch_max(next_ts, Ordering::Release);
    }

    /// Mark the whole chain processed.
    pub fn mark_fully_processed(&self) {
        self.run
            .processed_upto
            .store(FULLY_PROCESSED, Ordering::Release);
    }

    /// Whether every operation of the chain has been processed.
    pub fn is_fully_processed(&self) -> bool {
        self.processed_upto() == FULLY_PROCESSED
    }

    /// Current processed watermark.
    pub fn processed_upto(&self) -> u64 {
        self.run.processed_upto.load(Ordering::Acquire)
    }
}

/// The filing state of a pool: whether the current batch is frozen, and the
/// frozen chains (empty, with last batch's capacity, while filing).
#[derive(Debug, Default)]
struct Batch {
    frozen: bool,
    chains: Arc<Frozen>,
}

/// A pool of operation chains (one per state touched in the current batch):
/// append-only lanes during compute mode, frozen runs during state access.
#[derive(Debug)]
pub struct ChainPool {
    lanes: Box<[Mutex<Lane>]>,
    batch: Mutex<Batch>,
}

impl Default for ChainPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ChainPool {
            lanes: (0..LANES).map(|_| Mutex::default()).collect(),
            batch: Mutex::default(),
        }
    }

    /// Where operations of `state` are filed.
    pub fn chain_for(&self, state: StateRef) -> ChainSlot<'_> {
        ChainSlot {
            lane: &self.lanes[state_hash(state) as usize % LANES],
            state,
        }
    }

    /// The batch's chains, frozen by the first call after filing.
    pub fn freeze(&self) -> FrozenPool {
        let mut batch = self.batch.lock();
        let batch = &mut *batch;
        if !batch.frozen {
            Arc::get_mut(&mut batch.chains)
                .expect("`clear` left the unfrozen batch unshared")
                .freeze(&self.lanes);
            batch.frozen = true;
        }
        FrozenPool(batch.chains.clone())
    }

    /// Visit every chain of the (frozen) batch, in state order.
    pub fn for_each_chain(&self, f: impl FnMut(OperationChain<'_>)) {
        self.freeze().chains().for_each(f);
    }

    /// End of batch: forget every filed operation and thaw the pool.
    pub fn clear(&self) {
        let mut batch = self.batch.lock();
        match Arc::get_mut(&mut batch.chains) {
            Some(chains) => chains.clear(),
            // A reader outlived the batch: it keeps the buffers.
            None => batch.chains = Arc::default(),
        }
        batch.frozen = false;
        for lane in self.lanes.iter() {
            let mut lane = lane.lock();
            lane.ops.clear();
            lane.depended_upon.clear();
            lane.frozen = false;
        }
    }
}

/// The set of chain pools for a run, organised according to the placement
/// policy, plus the routing logic from states to pools (through the state
/// store's shard layer) and from executors to the pools they process.
#[derive(Debug)]
pub struct ChainPoolSet {
    placement: ChainPlacement,
    layout: ExecutorLayout,
    router: ShardRouter,
    pools: Vec<ChainPool>,
}

/// Which pool an executor processes, which position it occupies within the
/// group sharing that pool, and how large the group is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessingAssignment {
    /// Index of the pool the executor processes.
    pub pool: usize,
    /// The executor's rank within the group sharing the pool.
    pub member: usize,
    /// Number of executors sharing the pool.
    pub group_size: usize,
}

impl ChainPoolSet {
    /// Creates the pools for the given placement, executor layout and state
    /// shard count (clamped to `1..=MAX_SHARDS`; it should match the shard
    /// count of the store the run executes against).
    pub fn new(placement: ChainPlacement, layout: ExecutorLayout, num_shards: u32) -> Self {
        let pool_count = match placement {
            ChainPlacement::SharedNothing => layout.executors,
            ChainPlacement::SharedEverything => 1,
            ChainPlacement::SharedPerSocket => layout.sockets(),
        };
        let router = ShardRouter::new(num_shards.clamp(1, MAX_SHARDS))
            .expect("clamped shard count is always valid");
        ChainPoolSet {
            placement,
            layout,
            router,
            pools: (0..pool_count.max(1)).map(|_| ChainPool::new()).collect(),
        }
    }

    /// Number of state shards chains are routed by.
    pub fn num_shards(&self) -> u32 {
        self.router.shards()
    }

    /// The state shard owning a state's key (agrees with the store's router
    /// for the same shard count).
    pub fn shard_of_state(&self, state: StateRef) -> ShardId {
        self.router.shard_of(state.key)
    }

    /// All pools.
    pub fn pools(&self) -> &[ChainPool] {
        &self.pools
    }

    #[inline]
    fn hash_state(state: StateRef) -> u64 {
        let mut h = state.key ^ ((state.table as u64).rotate_left(32));
        h ^= h >> 31;
        h = h.wrapping_mul(0x7FB5_D329_728E_A185);
        h ^= h >> 27;
        h
    }

    /// Pool a state's chain lives in: the state's shard decides.
    ///
    /// With at least as many shards as pools, shard `s` maps straight to pool
    /// `s % pools` (shard-affine: one shard never splits across pools).  With
    /// fewer shards than pools, each shard owns the disjoint pool subset
    /// `{p | p % shards == s}` and spreads its chains over it by hash, so all
    /// pools stay busy; one shard degenerates to the seed's pure hash
    /// spreading.
    pub fn pool_index_for_state(&self, state: StateRef) -> usize {
        if matches!(self.placement, ChainPlacement::SharedEverything) {
            return 0;
        }
        let pools = self.pools.len();
        let shards = self.router.shards() as usize;
        let shard = self.router.shard_of(state.key).index();
        if shards >= pools {
            shard % pools
        } else {
            let candidates = (pools - shard).div_ceil(shards);
            shard + shards * (Self::hash_state(state) % candidates as u64) as usize
        }
    }

    /// Where operations of `state` are filed, whichever pool that is.
    pub fn chain_for(&self, state: StateRef) -> ChainSlot<'_> {
        self.pools[self.pool_index_for_state(state)].chain_for(state)
    }

    /// Dynamic transaction decomposition (Section IV-C.1): where `op` is
    /// filed — under its target state — with the state it depends on flagged
    /// so that chain is processed with temporary versions.  The caller
    /// completes the step with `.insert(op)`.  (Taking the operation by
    /// value and inserting it here copies it once more on its way into the
    /// log; measured, that is 8 % of GS's single-executor throughput.)
    pub fn chain_for_op(&self, op: &Operation) -> ChainSlot<'_> {
        if let Some(dep) = op.dependency {
            self.chain_for(dep).mark_depended_upon();
        }
        self.chain_for(op.target)
    }

    /// Every pool's frozen chains (see [`ChainPool::freeze`]), indexed like
    /// [`ChainPoolSet::pools`].
    pub fn freeze(&self) -> Vec<FrozenPool> {
        self.pools.iter().map(ChainPool::freeze).collect()
    }

    /// The chain of `state` among `frozen` (this set's [`ChainPoolSet::freeze`]),
    /// wherever it lives, if anything was filed under it.
    pub fn find_chain<'f>(
        &self,
        frozen: &'f [FrozenPool],
        state: StateRef,
    ) -> Option<OperationChain<'f>> {
        frozen[self.pool_index_for_state(state)].find(state)
    }

    /// The processing assignment of an executor.
    pub fn assignment(&self, executor: ExecutorId) -> ProcessingAssignment {
        match self.placement {
            ChainPlacement::SharedNothing => ProcessingAssignment {
                pool: executor.index() % self.pools.len(),
                member: 0,
                group_size: 1,
            },
            ChainPlacement::SharedEverything => ProcessingAssignment {
                pool: 0,
                member: executor.index(),
                group_size: self.layout.executors,
            },
            ChainPlacement::SharedPerSocket => {
                let socket = self.layout.socket_of(executor);
                let member = executor.index() % self.layout.cores_per_socket;
                let group_size = self.layout.executors_in_socket(socket).count().max(1);
                ProcessingAssignment {
                    pool: socket.min(self.pools.len() - 1),
                    member,
                    group_size,
                }
            }
        }
    }

    /// Whether insertion of `state` by `executor` crosses a pool boundary
    /// that the NUMA model counts as remote (counted in
    /// `Breakdown::remote_accesses` during decomposition).
    pub fn is_remote_insert(&self, executor: ExecutorId, state: StateRef) -> bool {
        match self.placement {
            ChainPlacement::SharedNothing => {
                self.pool_index_for_state(state) != executor.index() % self.pools.len()
            }
            ChainPlacement::SharedEverything => false,
            ChainPlacement::SharedPerSocket => {
                self.pool_index_for_state(state) != self.layout.socket_of(executor)
            }
        }
    }

    /// Total chains across all (frozen) pools.
    pub fn total_chains(&self) -> usize {
        self.pools.iter().map(|p| p.freeze().len()).sum()
    }

    /// Number of chains currently routed to each state shard (summed over
    /// pools).  The multipartition harness reports this to show the real
    /// shard placement of a batch.
    ///
    /// The engine calls this once per batch, so it must stay off the measured
    /// hot path: the single-shard (default) case is a handful of counter
    /// reads, and the multi-shard case walks the dense run vectors.
    pub fn chains_per_shard(&self) -> Vec<usize> {
        if self.router.shards() == 1 {
            return vec![self.total_chains()];
        }
        let mut counts = vec![0usize; self.router.shards() as usize];
        for pool in &self.pools {
            pool.for_each_chain(|chain| {
                counts[self.router.shard_of(chain.state().key).index()] += 1;
            });
        }
        counts
    }

    /// Clear every pool (end of batch).
    pub fn clear_all(&self) {
        for pool in &self.pools {
            pool.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstream_txn::{AccessType, EventBlotter};

    fn op(ts: Timestamp, op_index: u32, table: u32, key: u64) -> Operation {
        Operation {
            ts,
            op_index,
            target: StateRef::new(table, key),
            slot: tstream_txn::INVALID_SLOT,
            access: AccessType::Read,
            dependency: None,
            dep_slot: tstream_txn::INVALID_SLOT,
            func: None,
            blotter: EventBlotter::new(1),
        }
    }

    fn write(ts: Timestamp, key: u64) -> Operation {
        Operation {
            access: AccessType::Write,
            ..op(ts, 0, 0, key)
        }
    }

    /// A pool with `ops` filed, frozen.
    fn frozen(ops: impl IntoIterator<Item = Operation>) -> FrozenPool {
        let pool = ChainPool::new();
        for op in ops {
            pool.chain_for(op.target).insert(op);
        }
        pool.freeze()
    }

    #[test]
    fn chain_keeps_operations_in_timestamp_order() {
        let pool = frozen([5u64, 1, 9, 3].map(|ts| op(ts, 0, 0, 1)));
        let chain = pool.find(StateRef::new(0, 1)).unwrap();
        let order: Vec<u64> = chain.iter().map(|o| o.ts).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
        assert_eq!(chain.len(), 4);
        assert!(!chain.is_empty());
        assert_eq!(chain.get(2).unwrap().ts, 5);
        assert!(chain.get(4).is_none());
    }

    #[test]
    fn same_transaction_can_touch_a_state_twice() {
        let pool = frozen([op(7, 1, 0, 1), op(7, 0, 0, 1)]);
        let chain = pool.find(StateRef::new(0, 1)).unwrap();
        let order: Vec<u32> = chain.iter().map(|o| o.op_index).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn dependency_flags_and_edges() {
        let pool = ChainPool::new();
        let dependent = Operation {
            dependency: Some(StateRef::new(0, 2)),
            ..write(3, 1)
        };
        pool.chain_for(dependent.target)
            .add_dependency(StateRef::new(0, 2));
        pool.chain_for(dependent.target).insert(dependent);
        pool.chain_for(StateRef::new(0, 2)).insert(write(1, 2));
        pool.chain_for(StateRef::new(0, 2)).mark_depended_upon();
        // A dependency on a state nothing is filed under: no chain, no flag.
        pool.chain_for(StateRef::new(0, 9)).mark_depended_upon();
        let pool = pool.freeze();

        let chain = pool.find(StateRef::new(0, 1)).unwrap();
        assert!(chain.has_dependencies());
        assert!(!chain.is_depended_upon());
        let source = pool.find(StateRef::new(0, 2)).unwrap();
        assert!(source.is_depended_upon());
        assert!(!source.has_dependencies());
        assert!(pool.find(StateRef::new(0, 9)).is_none());
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn last_write_before_skips_reads_and_later_ops() {
        let modify = Operation {
            access: AccessType::ReadModify,
            ..op(6, 0, 0, 1)
        };
        let pool = frozen([write(2, 1), op(4, 0, 0, 1), modify]);
        let chain = pool.find(StateRef::new(0, 1)).unwrap();
        assert_eq!(chain.last_write_before(1), None);
        assert_eq!(chain.last_write_before(5), Some(2));
        assert_eq!(chain.last_write_before(100), Some(6));
    }

    #[test]
    fn last_write_before_on_a_long_chain_checks_every_boundary() {
        // 10 000 operations at ts 10, 20, ..: writes at the even positions,
        // reads at the odd ones.  Every probe is a binary search plus a scan
        // back over at most one read, so the whole sweep is instant; walking
        // from the head per probe would be 10^8 steps.
        const OPS: u64 = 10_000;
        let pool = frozen((0..OPS).map(|i| {
            let ts = (i + 1) * 10;
            if i % 2 == 0 {
                write(ts, 1)
            } else {
                op(ts, 0, 0, 1)
            }
        }));
        let chain = pool.find(StateRef::new(0, 1)).unwrap();
        assert_eq!(chain.len(), OPS as usize);
        assert_eq!(chain.last_write_before(0), None);
        assert_eq!(chain.last_write_before(9), None, "below the first");
        assert_eq!(
            chain.last_write_before(10),
            None,
            "equal to the first write"
        );
        let mut last_write = None;
        for i in 0..OPS {
            let ts = (i + 1) * 10;
            assert_eq!(
                chain.last_write_before(ts - 1),
                last_write,
                "between, below {ts}"
            );
            assert_eq!(chain.last_write_before(ts), last_write, "equal to {ts}");
            if i % 2 == 0 {
                last_write = Some(ts);
            }
            assert_eq!(
                chain.last_write_before(ts + 1),
                last_write,
                "just above {ts}"
            );
        }
        assert_eq!(
            chain.last_write_before(u64::MAX),
            Some((OPS - 1) * 10),
            "above the last"
        );
    }

    #[test]
    fn processed_watermark_progression() {
        let pool = frozen([op(1, 0, 0, 1)]);
        let chain = pool.find(StateRef::new(0, 1)).unwrap();
        assert_eq!(chain.processed_upto(), 0);
        chain.advance_processed(4);
        assert_eq!(chain.processed_upto(), 4);
        assert!(!chain.is_fully_processed());
        chain.mark_fully_processed();
        assert!(chain.is_fully_processed());
    }

    #[test]
    fn freezing_groups_by_state_and_clearing_thaws() {
        let pool = ChainPool::new();
        assert!(pool.freeze().is_empty());
        pool.clear();
        for (ts, key) in [(1, 1), (2, 2), (3, 1)] {
            pool.chain_for(StateRef::new(0, key))
                .insert(op(ts, 0, 0, key));
        }
        let batch = pool.freeze();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.find(StateRef::new(0, 1)).unwrap().len(), 2);
        assert!(batch.find(StateRef::new(0, 3)).is_none());
        assert_eq!(batch.operations().count(), 3);
        let mut visited = Vec::new();
        pool.for_each_chain(|chain| visited.push(chain.state().key));
        assert_eq!(visited, vec![1, 2], "state order");
        drop(batch);

        // The next batch starts empty: flags, watermarks and operations of
        // the previous one are gone.
        pool.clear();
        pool.chain_for(StateRef::new(1, 42)).insert(op(9, 0, 1, 42));
        let batch = pool.freeze();
        assert_eq!(batch.len(), 1);
        let chain = batch.find(StateRef::new(1, 42)).unwrap();
        assert_eq!(chain.processed_upto(), 0);
        assert!(!chain.is_depended_upon());
    }

    #[test]
    #[should_panic(expected = "frozen chain pool")]
    fn filing_into_a_frozen_pool_panics() {
        let pool = ChainPool::new();
        pool.chain_for(StateRef::new(0, 1)).insert(op(1, 0, 0, 1));
        pool.freeze();
        pool.chain_for(StateRef::new(0, 1)).insert(op(2, 0, 0, 1));
    }

    #[test]
    fn a_reader_that_outlives_the_clear_keeps_its_batch() {
        let pool = ChainPool::new();
        pool.chain_for(StateRef::new(0, 1)).insert(op(1, 0, 0, 1));
        let held = pool.freeze();
        pool.clear();
        pool.chain_for(StateRef::new(0, 2)).insert(op(2, 0, 0, 2));
        assert!(pool.freeze().find(StateRef::new(0, 1)).is_none());
        assert_eq!(held.find(StateRef::new(0, 1)).unwrap().len(), 1);
    }

    #[test]
    fn pool_task_claiming_visits_every_chain_exactly_once() {
        let pool = frozen((0..50u64).map(|k| op(k, 0, 0, k)));
        let mut seen = Vec::new();
        while let Some(chain) = pool.claim_next() {
            seen.push(chain.state());
        }
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn concurrent_inserts_into_one_pool() {
        let pool = ChainPool::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let state = StateRef::new(0, i % 20);
                        pool.chain_for(state).insert(op(t * 500 + i, 0, 0, i % 20));
                    }
                });
            }
        });
        let batch = pool.freeze();
        assert_eq!(batch.len(), 20);
        for chain in batch.chains() {
            assert_eq!(chain.len(), 8 * 500 / 20);
            assert!(chain
                .iter()
                .zip(chain.iter().skip(1))
                .all(|(a, b)| a.ts < b.ts));
        }
    }

    #[test]
    fn placement_routes_and_assignments() {
        let layout = ExecutorLayout::new(20, 10);

        let sn = ChainPoolSet::new(ChainPlacement::SharedNothing, layout, 1);
        assert_eq!(sn.pools().len(), 20);
        let a = sn.assignment(ExecutorId(7));
        assert_eq!(a.pool, 7);
        assert_eq!(a.group_size, 1);

        let se = ChainPoolSet::new(ChainPlacement::SharedEverything, layout, 1);
        assert_eq!(se.pools().len(), 1);
        let a = se.assignment(ExecutorId(7));
        assert_eq!(a.pool, 0);
        assert_eq!(a.group_size, 20);
        assert_eq!(se.assignment(ExecutorId(0)).member, 0);

        let sps = ChainPoolSet::new(ChainPlacement::SharedPerSocket, layout, 1);
        assert_eq!(sps.pools().len(), 2);
        let a = sps.assignment(ExecutorId(13));
        assert_eq!(a.pool, 1);
        assert_eq!(a.member, 3);
        assert_eq!(a.group_size, 10);
    }

    #[test]
    fn state_routing_is_stable_and_within_bounds() {
        let layout = ExecutorLayout::new(12, 10);
        for num_shards in [1u32, 4, 32] {
            for placement in ChainPlacement::ALL {
                let set = ChainPoolSet::new(placement, layout, num_shards);
                assert_eq!(set.num_shards(), num_shards);
                for key in 0..500u64 {
                    let s = StateRef::new(1, key);
                    let p = set.pool_index_for_state(s);
                    assert!(p < set.pools().len());
                    assert_eq!(p, set.pool_index_for_state(s));
                    set.chain_for(s).insert(op(key, 0, 1, key));
                }
                let frozen = set.freeze();
                let found = set.find_chain(&frozen, StateRef::new(1, 7));
                assert_eq!(found.unwrap().len(), 1);
                drop(frozen);
                assert_eq!(set.total_chains(), 500);
                assert_eq!(
                    set.chains_per_shard().iter().sum::<usize>(),
                    500,
                    "per-shard counts must cover every chain"
                );
                set.clear_all();
                assert_eq!(set.total_chains(), 0);
            }
        }
    }

    #[test]
    fn shard_affine_routing_keeps_each_shard_in_one_pool() {
        // As many shards as executor pools: shard s maps to pool s, which is
        // exactly the pool executor s processes under shared-nothing.
        let layout = ExecutorLayout::new(8, 10);
        let set = ChainPoolSet::new(ChainPlacement::SharedNothing, layout, 8);
        for key in 0..2_000u64 {
            let state = StateRef::new(0, key);
            let shard = set.shard_of_state(state);
            assert_eq!(set.pool_index_for_state(state), shard.index());
            let owner = layout.executor_for_shard(shard.0);
            assert!(
                !set.is_remote_insert(owner, state),
                "the shard owner's insert must be pool-local"
            );
        }
    }

    #[test]
    fn few_shards_spread_over_disjoint_pool_subsets() {
        // 2 shards over 8 pools: shard 0 may only use even pools, shard 1
        // only odd pools, and both subsets are actually used.
        let layout = ExecutorLayout::new(8, 10);
        let set = ChainPoolSet::new(ChainPlacement::SharedNothing, layout, 2);
        let mut used = [Vec::new(), Vec::new()];
        for key in 0..2_000u64 {
            let state = StateRef::new(0, key);
            let shard = set.shard_of_state(state).index();
            let pool = set.pool_index_for_state(state);
            assert_eq!(pool % 2, shard, "pool parity must match the shard");
            used[shard].push(pool);
        }
        for pools in &mut used {
            pools.sort_unstable();
            pools.dedup();
            assert!(pools.len() > 1, "a shard must spread over its pool subset");
        }
    }

    #[test]
    fn per_shard_chain_counts_track_routing() {
        let layout = ExecutorLayout::new(4, 10);
        let set = ChainPoolSet::new(ChainPlacement::SharedNothing, layout, 4);
        let mut expected = vec![0usize; 4];
        for key in 0..300u64 {
            let state = StateRef::new(2, key);
            set.chain_for(state).insert(op(key, 0, 2, key));
            expected[set.shard_of_state(state).index()] += 1;
        }
        assert_eq!(set.chains_per_shard(), expected);
    }

    #[test]
    fn remote_insert_classification() {
        let layout = ExecutorLayout::new(20, 10);
        let se = ChainPoolSet::new(ChainPlacement::SharedEverything, layout, 1);
        assert!(!se.is_remote_insert(ExecutorId(5), StateRef::new(0, 1)));

        let sn = ChainPoolSet::new(ChainPlacement::SharedNothing, layout, 1);
        let mut remote = 0;
        for key in 0..1000u64 {
            if sn.is_remote_insert(ExecutorId(0), StateRef::new(0, key)) {
                remote += 1;
            }
        }
        // With 20 executor-local pools, ~95 % of states belong to other pools.
        assert!(remote > 800);
    }
}
