//! Allocation budgets: building and filing GS write transactions, and
//! executing TP's accesses to a set value that has grown large.
//!
//! Allocation counts repeat exactly from run to run, so they hold what a
//! timing on a noisy host cannot: that a written value costs one allocation
//! (the shared record string), that a transaction costs a fixed handful
//! beside them, that filing, freezing and clearing the chain pools cost
//! none at all once their buffers are warm — and that adding a vehicle to a
//! segment's set, or reading the set, copies a path of the set and not the
//! set.
//!
//! The counters are per thread, so the test harness's own threads cannot
//! disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tstream_apps::gs::{self, GrepSum, GsEvent};
use tstream_apps::tp::{self, TollProcessing, TpEvent, TpKind};
use tstream_apps::workload::WorkloadSpec;
use tstream_core::{ChainPlacement, ChainPoolSet};
use tstream_state::{TableId, Value};
use tstream_stream::executor::ExecutorLayout;
use tstream_stream::metrics::Breakdown;
use tstream_txn::exec::{execute_transaction_body, ValueMode};
use tstream_txn::{Application, ExecEnv, Operation, TxnBuilder};

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down; those allocations are nobody's budget.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

/// Blocks and bytes this thread allocates while running `f`.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let before = ALLOCATED_BYTES.with(Cell::get);
    let (blocks, ()) = allocations(f);
    (blocks, ALLOCATED_BYTES.with(Cell::get) - before)
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

/// A one-segment TP store whose vehicle set already holds `vehicles` ids,
/// inserted in scattered order as traffic reports would, and an id it lacks.
fn segment_with(vehicles: u64) -> (std::sync::Arc<tstream_state::StateStore>, u64) {
    // An odd multiplier permutes the 64-bit ids, so no two collide.
    let scatter = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let store = tp::build_store_with_segments(1);
    store
        .record(TableId(tp::COUNT_TABLE), 0)
        .unwrap()
        .write_committed(Value::Set((0..vehicles).map(scatter).collect()));
    (store, scatter(vehicles))
}

/// What executing `kind` for segment 0 (and post-processing it, as the engine
/// does) allocates against a set of `vehicles` ids.
fn tp_event_cost(kind: TpKind, vehicles: u64, mode: ValueMode) -> (u64, u64) {
    let (store, vehicle) = segment_with(vehicles);
    let execute = |kind| {
        let event = TpEvent {
            kind,
            segment: 0,
            vehicle,
            speed: 30.0,
        };
        let mut txn = TxnBuilder::new(1);
        TollProcessing.state_access(&event, &mut txn);
        let (txn, blotter) = txn.build();
        let (env, mut breakdown) = (ExecEnv::single(), Breakdown::new());
        allocated(|| {
            execute_transaction_body(&txn.ops, &store, &env, mode, &mut breakdown).unwrap();
            TollProcessing.post_process(&event, &blotter);
        })
    };
    // Test builds track lock order (`parking_lot`'s `lock-order` feature) and
    // the tracker allocates, on the locking thread, when it first sees a lock
    // held across another acquisition.  Let it meet the segment's two records
    // before anything is counted.
    execute(TpKind::TollNotification);
    let cost = execute(kind);
    let grown = store
        .record(TableId(tp::COUNT_TABLE), 0)
        .unwrap()
        .with_committed(|set| set.as_set().unwrap().len() as u64);
    let inserted = u64::from(kind == TpKind::VehicleCnt && mode == ValueMode::Committed);
    assert_eq!(grown, vehicles + inserted);
    cost
}

#[test]
fn a_traffic_report_costs_a_path_of_the_set_not_the_set() {
    // One node per tree level, a split now and then, the undo vector; one
    // copy of 100 000 ids would be 800 kB before any container overhead.
    const BLOCKS: u64 = 12;
    const BYTES: u64 = 4096;
    for mode in [ValueMode::Committed, ValueMode::Versioned] {
        for vehicles in [100_000, 1_000] {
            let (blocks, bytes) = tp_event_cost(TpKind::VehicleCnt, vehicles, mode);
            assert!(
                blocks <= BLOCKS && bytes <= BYTES,
                "inserting into {vehicles} ids ({mode:?}): {bytes} bytes in {blocks} blocks"
            );
            assert_eq!(
                tp_event_cost(TpKind::VehicleCnt, vehicles, mode),
                (blocks, bytes),
                "allocation counts repeat exactly"
            );
        }
        // Reading a set into the blotter and measuring it there shares it.
        assert_eq!(
            tp_event_cost(TpKind::TollNotification, 100_000, mode),
            tp_event_cost(TpKind::TollNotification, 0, mode),
            "a toll notification costs the same whatever the set holds ({mode:?})"
        );
    }
}
