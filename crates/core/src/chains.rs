//! Operation chains and their placement pools.
//!
//! During *compute mode* every postponed state transaction is decomposed into
//! operations, and each operation is inserted into the **operation chain** of
//! its target state: a timestamp-ordered list tied to exactly one state
//! (Section IV-C.1, Figure 4).  Chains are backed by the concurrent skip list
//! so multiple executors can insert simultaneously while preserving order.
//!
//! Chains live in **pools**; how many pools exist and which executors insert
//! into / process which pool is decided by the NUMA-aware placement policy
//! (Section IV-E): shared-nothing (one pool per executor), shared-everything
//! (one global pool) or shared-per-socket (one pool per synthetic socket).
//!
//! Pool routing is **shard-aware**: a state's pool is derived from the shard
//! the state store assigns its key to (the same [`ShardRouter`] the store
//! uses), so with `num_shards == pool count` every chain of a shard lands in
//! exactly one pool — the shard's owner ([`ExecutorLayout::executor_for_shard`])
//! — and with fewer shards than pools each shard's chains are spread over a
//! fixed, disjoint pool subset.  `num_shards == 1` reproduces the seed's pure
//! hash spreading.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use tstream_skiplist::ConcurrentSkipList;
use tstream_state::{ShardId, ShardRouter, Timestamp, MAX_SHARDS};
use tstream_stream::executor::{ExecutorId, ExecutorLayout};
use tstream_stream::operator::StateRef;
use tstream_txn::Operation;

use crate::config::ChainPlacement;

/// Ordering key of an operation within a chain: `(timestamp, op index)` —
/// unique even if a transaction touches the same state twice.
pub type ChainKey = (Timestamp, u32);

/// `BuildHasher` for the pool shard maps: an Fx-style multiplicative word
/// hash.  `StateRef` keys are a pair of machine words on the per-operation
/// routing hot path, where the default SipHash costs more than the map probe
/// itself; hash flooding is no concern for keys the applications themselves
/// generate.
#[derive(Debug, Default, Clone)]
struct FxBuildHasher;

impl std::hash::BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher(0)
    }
}

#[derive(Debug)]
struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// Recycled open-addressing index from states to a small payload, sized to
/// the batch and reused across batches so it allocates nothing in steady
/// state (the [`ChainPool`] pattern).  Serves the two per-batch scratch
/// tables of the engine: conflict classification at admission and the
/// serial replay's restore pass.
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

    /// The payload stored for `state`, or `None` after storing `payload`
    /// for it.  Only hashes are kept, so `is_state` tells whether a payload
    /// with an equal hash really belongs to `state`; a caller that accepts
    /// every candidate may (very rarely) be handed the payload of a distinct
    /// state with a colliding hash, never miss the payload of an equal one.
    pub(crate) fn find_or_insert(
        &mut self,
        state: StateRef,
        payload: u32,
        mut is_state: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let h = state_hash(state);
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let (slot_hash, found) = self.slots[i];
            if slot_hash == 0 {
                self.slots[i] = (h, payload);
                return None;
            }
            if slot_hash == h && is_state(found) {
                return Some(found);
            }
            i = (i + 1) & mask;
        }
    }
}

/// Sentinel meaning "every operation of this chain has been processed".
const FULLY_PROCESSED: u64 = u64::MAX;

/// A timestamp-ordered list of operations targeting one state.
#[derive(Debug)]
pub struct OperationChain {
    state: StateRef,
    ops: ConcurrentSkipList<ChainKey, Operation>,
    /// Set when some operation in *another* chain declares a dependency on
    /// this chain's state — processing then keeps temporary versions so
    /// dependent reads observe timestamp-consistent values.
    depended_upon: AtomicBool,
    /// Mirror of `!dependencies.is_empty()`, readable without the lock: the
    /// schedulers test this once per chain on the processing hot path.
    has_deps: AtomicBool,
    /// States this chain's operations depend on (chain-level dependency
    /// edges, used by the round-based scheduler).
    dependencies: Mutex<Vec<StateRef>>,
    /// All operations with `ts < processed_upto` have been applied.
    /// `u64::MAX` once the whole chain is done.
    processed_upto: AtomicU64,
}

impl OperationChain {
    /// Creates an empty chain for `state`.
    pub fn new(state: StateRef) -> Self {
        OperationChain {
            state,
            ops: ConcurrentSkipList::new(),
            depended_upon: AtomicBool::new(false),
            has_deps: AtomicBool::new(false),
            dependencies: Mutex::new(Vec::new()),
            processed_upto: AtomicU64::new(0),
        }
    }

    /// The state this chain targets.
    pub fn state(&self) -> StateRef {
        self.state
    }

    /// Insert a decomposed operation (concurrent, lock-free).
    ///
    /// Batch events are decomposed in timestamp order, so in the common case
    /// this is an O(1) append onto the chain's tail (the skip list's append
    /// fast path); out-of-order keys — a replay tail interleaving with fresh
    /// events — fall back to a sorted insertion.
    pub fn insert(&self, op: Operation) {
        let key = (op.ts, op.op_index);
        let inserted = self.ops.insert(key, op);
        debug_assert!(
            inserted,
            "chain keys (ts, op_index) are unique within a batch"
        );
    }

    /// Number of operations currently in the chain.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the chain holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterate operations in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = &Operation> {
        self.ops.iter().map(|(_, op)| op)
    }

    /// Mark that another chain depends on this chain's state.
    pub fn mark_depended_upon(&self) {
        self.depended_upon.store(true, Ordering::Release);
    }

    /// Whether any other chain depends on this chain's state.
    pub fn is_depended_upon(&self) -> bool {
        self.depended_upon.load(Ordering::Acquire)
    }

    /// Record that this chain contains an operation depending on `dep`.
    pub fn add_dependency(&self, dep: StateRef) {
        let mut deps = self.dependencies.lock();
        if !deps.contains(&dep) {
            deps.push(dep);
        }
        self.has_deps.store(true, Ordering::Release);
    }

    /// Distinct states this chain depends on.
    pub fn dependencies(&self) -> Vec<StateRef> {
        self.dependencies.lock().clone()
    }

    /// Whether this chain declares any dependency.  Lock-free: the schedulers
    /// ask this once per chain while routing work.
    pub fn has_dependencies(&self) -> bool {
        self.has_deps.load(Ordering::Acquire)
    }

    /// Timestamp of the latest *write* operation strictly before `ts`, if
    /// any.  A dependent reader at `ts` must wait until this chain has
    /// advanced past it.
    pub fn last_write_before(&self, ts: Timestamp) -> Option<Timestamp> {
        let mut last = None;
        for (key, op) in self.ops.iter() {
            if key.0 >= ts {
                break;
            }
            if op.is_write() {
                last = Some(key.0);
            }
        }
        last
    }

    /// Advance the processed watermark: every operation with a strictly
    /// smaller timestamp than `next_ts` has been applied.
    pub fn advance_processed(&self, next_ts: Timestamp) {
        self.processed_upto.fetch_max(next_ts, Ordering::Release);
    }

    /// Mark the whole chain processed.
    pub fn mark_fully_processed(&self) {
        self.processed_upto
            .store(FULLY_PROCESSED, Ordering::Release);
    }

    /// Whether every operation of the chain has been processed.
    pub fn is_fully_processed(&self) -> bool {
        self.processed_upto.load(Ordering::Acquire) == FULLY_PROCESSED
    }

    /// Current processed watermark.
    pub fn processed_upto(&self) -> u64 {
        self.processed_upto.load(Ordering::Acquire)
    }

    /// Rebind a recycled chain to a new state, wiping every trace of the
    /// previous batch.  Exclusive access (the pool holds the only `Arc`)
    /// makes every reset a plain store — no synchronisation.
    fn reset_for(&mut self, state: StateRef) {
        self.state = state;
        self.ops.clear();
        *self.depended_upon.get_mut() = false;
        *self.has_deps.get_mut() = false;
        self.dependencies.get_mut().clear();
        *self.processed_upto.get_mut() = 0;
    }
}

/// A pool of operation chains (one per state touched in the current batch).
///
/// Chains are **arena-recycled** across batches: `clear` returns every chain
/// nothing else still references to a free list instead of dropping it, and
/// `chain_for` rebinds a recycled chain (skip-list nodes' allocations and
/// the dependency vector's capacity included) before allocating a fresh one.
/// On the steady-state hot path a batch touching the same working set as the
/// last one allocates nothing.
#[derive(Debug)]
pub struct ChainPool {
    shards: Vec<RwLock<HashMap<StateRef, Arc<OperationChain>, FxBuildHasher>>>,
    mask: u64,
    /// Per-batch task list (snapshot of chains) used during processing.
    tasks: Mutex<Vec<Arc<OperationChain>>>,
    next_task: AtomicUsize,
    /// Recycled chains awaiting reuse (bounded by [`FREE_LIST_CAP`]).
    free: Mutex<Vec<Arc<OperationChain>>>,
}

const POOL_SHARDS: usize = 32;

/// Upper bound on recycled chains retained per pool: enough to cover a
/// punctuation batch touching thousands of distinct states, small enough
/// that an outlier batch cannot pin its peak footprint forever.
const FREE_LIST_CAP: usize = 4096;

impl Default for ChainPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ChainPool {
            shards: (0..POOL_SHARDS)
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
            mask: (POOL_SHARDS - 1) as u64,
            tasks: Mutex::new(Vec::new()),
            next_task: AtomicUsize::new(0),
            free: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    fn shard_of(&self, state: StateRef) -> usize {
        let mut h = state.key ^ ((state.table as u64) << 48);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h & self.mask) as usize
    }

    /// Get (or create) the chain for `state`, preferring a recycled chain
    /// over a fresh allocation.
    pub fn chain_for(&self, state: StateRef) -> Arc<OperationChain> {
        let shard = &self.shards[self.shard_of(state)];
        if let Some(chain) = shard.read().get(&state) {
            return chain.clone();
        }
        let mut guard = shard.write();
        guard
            .entry(state)
            .or_insert_with(|| self.allocate(state))
            .clone()
    }

    /// Pop a recycled chain and rebind it, or allocate a fresh one.
    fn allocate(&self, state: StateRef) -> Arc<OperationChain> {
        let mut free = self.free.lock();
        while let Some(mut chain) = free.pop() {
            if let Some(slot) = Arc::get_mut(&mut chain) {
                slot.reset_for(state);
                return chain;
            }
            // Still pinned by a stale external reference: unsafe to reuse,
            // let it drop.  `clear` checks the count before recycling, so
            // this arm is defensive only.
        }
        drop(free);
        Arc::new(OperationChain::new(state))
    }

    /// Recycled chains currently waiting for reuse.
    pub fn free_chains(&self) -> usize {
        self.free.lock().len()
    }

    /// Get the chain for `state` if it exists.
    pub fn get(&self, state: StateRef) -> Option<Arc<OperationChain>> {
        self.shards[self.shard_of(state)]
            .read()
            .get(&state)
            .cloned()
    }

    /// Number of chains in the pool.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the pool holds no chains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every chain currently in the pool.
    pub fn snapshot(&self) -> Vec<Arc<OperationChain>> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.read().values().cloned());
        }
        out
    }

    /// Build the per-batch task list from the current chains (called once per
    /// batch by the pool's processing-group leader).
    pub fn prepare_tasks(&self) {
        let mut tasks = self.tasks.lock();
        tasks.clear();
        for shard in &self.shards {
            tasks.extend(shard.read().values().cloned());
        }
        // A deterministic order helps reproducibility of round-based
        // scheduling; sort by state.
        tasks.sort_by_key(|c| c.state());
        self.next_task.store(0, Ordering::Release);
    }

    /// Claim the next unprocessed task (work-stealing style); `None` when the
    /// task list is exhausted.
    pub fn claim_next(&self) -> Option<Arc<OperationChain>> {
        let tasks = self.tasks.lock();
        let idx = self.next_task.fetch_add(1, Ordering::AcqRel);
        tasks.get(idx).cloned()
    }

    /// Claim every not-yet-claimed task in one step.  A single-member
    /// processing group owns the whole list anyway; taking it in one lock
    /// acquisition avoids one mutex round-trip per chain.
    pub fn claim_all_remaining(&self) -> Vec<Arc<OperationChain>> {
        let tasks = self.tasks.lock();
        let start = self
            .next_task
            .swap(tasks.len(), Ordering::AcqRel)
            .min(tasks.len());
        tasks[start..].to_vec()
    }

    /// Static share of the task list for member `member` of a processing
    /// group of `group_size` executors (no work stealing).
    pub fn task_slice(&self, member: usize, group_size: usize) -> Vec<Arc<OperationChain>> {
        let tasks = self.tasks.lock();
        tasks
            .iter()
            .enumerate()
            .filter(|(i, _)| i % group_size.max(1) == member)
            .map(|(_, c)| c.clone())
            .collect()
    }

    /// Visit every chain currently in the pool without cloning `Arc`s (one
    /// read lock per pool shard; used by per-shard accounting).
    pub fn for_each_chain(&self, mut f: impl FnMut(&OperationChain)) {
        for shard in &self.shards {
            for chain in shard.read().values() {
                f(chain);
            }
        }
    }

    /// Recycle every chain (end of batch): chains nothing else references
    /// go back to the free list for the next batch; the rest (e.g. versioned
    /// chains an executor still holds) drop normally.
    pub fn clear(&self) {
        // The task list holds `Arc` clones — drop them first or every chain
        // would look externally pinned.
        self.tasks.lock().clear();
        self.next_task.store(0, Ordering::Release);
        // Drain the shards before touching the free list: `chain_for` locks
        // shard-then-free-list, so holding the free list across a shard lock
        // would invert the order.
        let mut drained = Vec::new();
        for shard in &self.shards {
            drained.extend(shard.write().drain().map(|(_, chain)| chain));
        }
        let mut free = self.free.lock();
        for chain in drained {
            if free.len() < FREE_LIST_CAP && Arc::strong_count(&chain) == 1 {
                free.push(chain);
            }
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

impl ProcessingAssignment {
    /// Whether this executor is the group leader (rank 0), responsible for
    /// preparing the pool's task list and clearing the pool afterwards.
    pub fn is_leader(&self) -> bool {
        self.member == 0
    }
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

    /// Placement policy in force.
    pub fn placement(&self) -> ChainPlacement {
        self.placement
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

    /// Route a state to its pool.
    pub fn route(&self, state: StateRef) -> &ChainPool {
        &self.pools[self.pool_index_for_state(state)]
    }

    /// Get (or create) the chain for a state, wherever it lives.
    pub fn chain_for(&self, state: StateRef) -> Arc<OperationChain> {
        self.route(state).chain_for(state)
    }

    /// Dynamic transaction decomposition (Section IV-C.1): the chain `op`
    /// belongs in — the chain of its target state, with the chain-level
    /// dependency edge recorded and the depended-upon chain flagged so it is
    /// processed with temporary versions.  The caller completes the step
    /// with `.insert(op)`.  (Taking the operation by value and inserting it
    /// here copies it once more on its way into the chain; measured, that is
    /// 8 % of GS's single-executor throughput.)
    pub fn chain_for_op(&self, op: &Operation) -> Arc<OperationChain> {
        let chain = self.chain_for(op.target);
        if let Some(dep) = op.dependency {
            chain.add_dependency(dep);
            self.chain_for(dep).mark_depended_upon();
        }
        chain
    }

    /// Find an existing chain for a state, wherever it lives.
    pub fn find_chain(&self, state: StateRef) -> Option<Arc<OperationChain>> {
        self.route(state).get(state)
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
    /// that the NUMA model counts as remote (used for RMA accounting during
    /// decomposition).
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

    /// Total chains across all pools.
    pub fn total_chains(&self) -> usize {
        self.pools.iter().map(|p| p.len()).sum()
    }

    /// Number of chains currently routed to each state shard (summed over
    /// pools).  The multipartition harness reports this to show the real
    /// shard placement of a batch.
    ///
    /// The engine calls this once per batch, so it must stay off the measured
    /// hot path: the single-shard (default) case is a handful of counter
    /// reads, and the multi-shard case visits chains in place without
    /// cloning.
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

    /// Drop every chain in every pool (end of batch).
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

    #[test]
    fn chain_keeps_operations_in_timestamp_order() {
        let chain = OperationChain::new(StateRef::new(0, 1));
        for ts in [5u64, 1, 9, 3] {
            chain.insert(op(ts, 0, 0, 1));
        }
        let order: Vec<u64> = chain.iter().map(|o| o.ts).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
        assert_eq!(chain.len(), 4);
        assert!(!chain.is_empty());
    }

    #[test]
    fn same_transaction_can_touch_a_state_twice() {
        let chain = OperationChain::new(StateRef::new(0, 1));
        chain.insert(op(7, 0, 0, 1));
        chain.insert(op(7, 1, 0, 1));
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn dependency_flags_and_edges() {
        let chain = OperationChain::new(StateRef::new(0, 1));
        assert!(!chain.is_depended_upon());
        chain.mark_depended_upon();
        assert!(chain.is_depended_upon());
        chain.add_dependency(StateRef::new(1, 2));
        chain.add_dependency(StateRef::new(1, 2));
        assert_eq!(chain.dependencies().len(), 1);
        assert!(chain.has_dependencies());
    }

    #[test]
    fn last_write_before_skips_reads_and_later_ops() {
        let chain = OperationChain::new(StateRef::new(0, 1));
        let mut w = op(2, 0, 0, 1);
        w.access = AccessType::Write;
        chain.insert(w);
        chain.insert(op(4, 0, 0, 1)); // read at ts 4
        let mut w2 = op(6, 0, 0, 1);
        w2.access = AccessType::ReadModify;
        chain.insert(w2);
        assert_eq!(chain.last_write_before(1), None);
        assert_eq!(chain.last_write_before(5), Some(2));
        assert_eq!(chain.last_write_before(100), Some(6));
    }

    #[test]
    fn processed_watermark_progression() {
        let chain = OperationChain::new(StateRef::new(0, 1));
        assert_eq!(chain.processed_upto(), 0);
        chain.advance_processed(4);
        assert_eq!(chain.processed_upto(), 4);
        assert!(!chain.is_fully_processed());
        chain.mark_fully_processed();
        assert!(chain.is_fully_processed());
    }

    #[test]
    fn pool_creates_chains_on_demand_and_clears() {
        let pool = ChainPool::new();
        assert!(pool.is_empty());
        let a = pool.chain_for(StateRef::new(0, 1));
        let b = pool.chain_for(StateRef::new(0, 1));
        assert!(Arc::ptr_eq(&a, &b), "same state must map to the same chain");
        pool.chain_for(StateRef::new(0, 2));
        assert_eq!(pool.len(), 2);
        assert!(pool.get(StateRef::new(0, 3)).is_none());
        pool.clear();
        assert!(pool.is_empty());
    }

    #[test]
    fn cleared_chains_are_recycled_with_state_wiped() {
        let pool = ChainPool::new();
        let chain = pool.chain_for(StateRef::new(0, 7));
        chain.insert(op(3, 0, 0, 7));
        chain.mark_depended_upon();
        chain.add_dependency(StateRef::new(0, 9));
        chain.advance_processed(4);
        let recycled_ptr = Arc::as_ptr(&chain);
        drop(chain); // the pool must hold the only reference to recycle
        pool.prepare_tasks();
        pool.clear();
        assert_eq!(pool.free_chains(), 1);

        // The next batch's chain for a *different* state reuses the arena
        // slot, fully reset.
        let reused = pool.chain_for(StateRef::new(1, 42));
        assert_eq!(Arc::as_ptr(&reused), recycled_ptr, "arena reuse");
        assert_eq!(reused.state(), StateRef::new(1, 42));
        assert!(reused.is_empty());
        assert!(!reused.is_depended_upon());
        assert!(!reused.has_dependencies());
        assert_eq!(reused.processed_upto(), 0);
        assert_eq!(pool.free_chains(), 0);
    }

    #[test]
    fn externally_pinned_chains_are_not_recycled() {
        let pool = ChainPool::new();
        let held = pool.chain_for(StateRef::new(0, 1)); // keep an Arc alive
        pool.chain_for(StateRef::new(0, 2));
        pool.clear();
        assert_eq!(pool.free_chains(), 1, "only the unpinned chain recycles");
        assert!(held.is_empty(), "the held chain is untouched");
        assert_eq!(held.state(), StateRef::new(0, 1));
    }

    #[test]
    fn pool_task_claiming_visits_every_chain_exactly_once() {
        let pool = ChainPool::new();
        for k in 0..50u64 {
            pool.chain_for(StateRef::new(0, k));
        }
        pool.prepare_tasks();
        let mut seen = Vec::new();
        while let Some(chain) = pool.claim_next() {
            seen.push(chain.state());
        }
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn static_task_slices_partition_the_pool() {
        let pool = ChainPool::new();
        for k in 0..10u64 {
            pool.chain_for(StateRef::new(0, k));
        }
        pool.prepare_tasks();
        let a = pool.task_slice(0, 3);
        let b = pool.task_slice(1, 3);
        let c = pool.task_slice(2, 3);
        assert_eq!(a.len() + b.len() + c.len(), 10);
    }

    #[test]
    fn concurrent_inserts_into_one_pool() {
        let pool = Arc::new(ChainPool::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        let state = StateRef::new(0, i % 20);
                        let chain = pool.chain_for(state);
                        chain.insert(op(t * 500 + i, 0, 0, i % 20));
                    }
                });
            }
        });
        assert_eq!(pool.len(), 20);
        let total: usize = pool.snapshot().iter().map(|c| c.len()).sum();
        assert_eq!(total, 8 * 500);
    }

    #[test]
    fn placement_routes_and_assignments() {
        let layout = ExecutorLayout::new(20, 10);

        let sn = ChainPoolSet::new(ChainPlacement::SharedNothing, layout, 1);
        assert_eq!(sn.pools().len(), 20);
        let a = sn.assignment(ExecutorId(7));
        assert_eq!(a.pool, 7);
        assert_eq!(a.group_size, 1);
        assert!(a.is_leader());

        let se = ChainPoolSet::new(ChainPlacement::SharedEverything, layout, 1);
        assert_eq!(se.pools().len(), 1);
        let a = se.assignment(ExecutorId(7));
        assert_eq!(a.pool, 0);
        assert_eq!(a.group_size, 20);
        assert!(!a.is_leader());
        assert!(se.assignment(ExecutorId(0)).is_leader());

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
                    let chain = set.chain_for(s);
                    assert!(Arc::ptr_eq(&chain, &set.find_chain(s).unwrap()));
                }
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
            set.chain_for(state);
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
