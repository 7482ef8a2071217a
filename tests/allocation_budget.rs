//! Allocation budget of building and filing GS write transactions.
//!
//! Allocation counts repeat exactly from run to run, so they hold what a
//! timing on a noisy host cannot: that a written value costs one allocation
//! (the shared record string), that a transaction costs a fixed handful
//! beside them, and that filing, freezing and clearing the chain pools cost
//! none at all once their buffers are warm.
//!
//! The counter is per thread, so the test harness's own threads cannot
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tstream_apps::gs::{self, GrepSum, GsEvent};
use tstream_apps::workload::WorkloadSpec;
use tstream_core::{ChainPlacement, ChainPoolSet};
use tstream_stream::executor::ExecutorLayout;
use tstream_txn::{Application, Operation, TxnBuilder};

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down; those allocations are nobody's budget.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `ptr` came from this allocator — that
        // is, from `System` — with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator — that
        // is, from `System` — with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const TRANSACTIONS: usize = 500;
const TXN_LEN: usize = 10;

/// Build the batch's transactions the way an executor does.
fn build(app: &GrepSum, events: &[GsEvent]) -> Vec<Vec<Operation>> {
    let mut batch = Vec::with_capacity(events.len());
    for (ts, event) in events.iter().enumerate() {
        let mut txn = TxnBuilder::new(ts as u64);
        app.state_access(event, &mut txn);
        batch.push(txn.build().0.ops);
    }
    batch
}

/// Decompose into the pools, freeze, clear: compute mode to batch end.
fn file_freeze_clear(pools: &ChainPoolSet, batch: Vec<Vec<Operation>>) {
    for op in batch.into_iter().flatten() {
        pools.chain_for_op(&op).insert(op);
    }
    assert!(pools.total_chains() > 0);
    pools.clear_all();
}

#[test]
fn gs_write_transactions_stay_within_the_allocation_budget() {
    let spec = WorkloadSpec::default().events(TRANSACTIONS).read_ratio(0.0);
    assert_eq!(spec.txn_len, TXN_LEN);
    let events = gs::generate(&spec);
    assert!(events.iter().all(|e| !e.is_read()));
    let app = GrepSum::default();
    let pools = ChainPoolSet::new(ChainPlacement::SharedNothing, ExecutorLayout::new(1, 10), 1);

    // Two warm-up batches: the pools' logs are double-buffered, and both
    // halves must have grown to the batch.
    for _ in 0..2 {
        file_freeze_clear(&pools, build(&app, &events));
    }

    // Filing + freeze + clear alone: nothing, in steady state.
    let batch = build(&app, &events);
    let (filing, ()) = allocations(|| file_freeze_clear(&pools, batch));
    assert_eq!(filing, 0, "filing, freezing and clearing allocate nothing");

    // Build + decompose + clear.  Per transaction: the operation vector, the
    // blotter and its result slots, one shared string per written value —
    // and one to spare.
    let measure = || {
        let (all, ()) = allocations(|| file_freeze_clear(&pools, build(&app, &events)));
        // The batch vector itself is the measurement's, not the engine's.
        all - 1
    };
    let first = measure();
    assert!(
        first <= (4 + TXN_LEN as u64) * TRANSACTIONS as u64,
        "{first} allocations for {TRANSACTIONS} transactions of length {TXN_LEN}: \
         more than 14 each"
    );
    assert!(
        first >= TXN_LEN as u64 * TRANSACTIONS as u64,
        "the counter must see at least the written values ({first})"
    );
    assert_eq!(measure(), first, "allocation counts repeat exactly");
}
