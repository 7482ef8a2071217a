//! T/O: basic timestamp-ordering concurrency control.
//!
//! Section II-C of the paper discusses why the classic timestamp-ordering
//! approach (Bernstein & Goodman) is *not* a viable drop-in for concurrent
//! stateful stream processing even though it is lock-free: each state keeps a
//! read timestamp (`rts`) and a write timestamp (`wts`), and a transaction is
//! admitted only while it is still "fresh" —
//!
//! * a **read** by transaction `ts` is rejected if the state has already been
//!   written by a transaction with a larger timestamp (`ts < wts`);
//! * a **write** by transaction `ts` is rejected if the state has already been
//!   read or written by a transaction with a larger timestamp
//!   (`ts < rts` or `ts < wts`).
//!
//! Under stream semantics every transaction *must* eventually commit with the
//! timestamp of its triggering event (feature **F3**), so neither of the two
//! classic remedies works: rejecting the transaction outright violates
//! exactly-once processing of the input event, and restarting it with a fresh,
//! larger timestamp violates the state access order (the toll would be
//! computed against a *future* road congestion status).  This module
//! implements the scheme faithfully so the paper's argument can be
//! demonstrated quantitatively (the `sec2c_order_unaware` harness): the
//! rejection rate grows with the number of executors and with key skew, and a
//! retry policy that re-stamps transactions produces final states that diverge
//! from the serial order.
//!
//! The scheme is deliberately **not** part of the paper's Figure 8 comparison;
//! it exists to reproduce the Section II-C analysis.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use tstream_state::StateStore;
use tstream_stream::metrics::{Breakdown, Component, ComponentTimer};
use tstream_stream::operator::StateRef;

use crate::exec::{execute_operation, undo_all, AccessPlan, ValueMode};
use crate::outcome::TxnOutcome;
use crate::scheme::{EagerScheme, ExecEnv, TxnDescriptor};
use crate::transaction::StateTransaction;
use crate::Timestamp;

/// What the scheme does with a transaction that fails the freshness check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToPolicy {
    /// Reject the transaction (its event is reported as rejected on the
    /// output stream).  Exactly-once processing is violated.
    Reject,
    /// Restart the transaction with a fresh timestamp larger than every
    /// timestamp handed out so far.  The transaction commits, but the state
    /// access order of Definition 2 is violated.
    Restamp,
}

/// Why a T/O execution attempt failed.
#[derive(Debug)]
enum ToFailure {
    /// A freshness check failed: the transaction arrived "too late" for one
    /// of its states.  Retriable under [`ToPolicy::Restamp`].
    Stale,
    /// The application's own consistency check rejected an update; retrying
    /// cannot help.
    App(String),
}

/// Per-state timestamp bookkeeping.
#[derive(Debug, Default)]
struct TsEntry {
    /// Largest timestamp that has read this state.
    rts: u64,
    /// Largest timestamp that has written this state.
    wts: u64,
}

/// The basic timestamp-ordering scheme.
#[derive(Debug)]
pub struct ToScheme {
    policy: ToPolicy,
    /// `rts` / `wts` per state.  A sharded map would scale better, but the
    /// point of this scheme is the *algorithmic* abort behaviour, not raw
    /// speed, so a single mutex-protected map keeps it simple and obviously
    /// correct.
    timestamps: Mutex<HashMap<StateRef, TsEntry>>,
    /// Source of fresh timestamps for the [`ToPolicy::Restamp`] policy.
    restamp_clock: AtomicU64,
    /// Number of freshness-check failures observed (before any retry).
    conflicts: AtomicU64,
    /// Number of transactions that were ultimately rejected.
    rejections: AtomicU64,
    /// Number of transactions committed under a restamped (out-of-order)
    /// timestamp.
    order_violations: AtomicU64,
}

impl Default for ToScheme {
    fn default() -> Self {
        Self::new(ToPolicy::Reject)
    }
}

impl ToScheme {
    /// Creates the scheme with the given conflict policy.
    pub fn new(policy: ToPolicy) -> Self {
        ToScheme {
            policy,
            timestamps: Mutex::new(HashMap::new()),
            restamp_clock: AtomicU64::new(u64::MAX / 2),
            conflicts: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            order_violations: AtomicU64::new(0),
        }
    }

    /// Conflict policy in force.
    pub fn policy(&self) -> ToPolicy {
        self.policy
    }

    /// Number of freshness-check failures observed so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }

    /// Number of transactions rejected so far.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// Number of transactions committed with a violated state-access order.
    pub fn order_violations(&self) -> u64 {
        self.order_violations.load(Ordering::Relaxed)
    }

    /// Attempt to run the transaction's operations under timestamp `ts`.
    ///
    /// Returns `Ok(())` if every operation passed the freshness checks and was
    /// applied, `Err(())` if a check failed (all applied writes are rolled
    /// back).
    fn try_execute(
        &self,
        txn: &StateTransaction,
        ts: Timestamp,
        store: &StateStore,
        env: &ExecEnv,
        breakdown: &mut Breakdown,
    ) -> Result<(), ToFailure> {
        let mut undo = Vec::with_capacity(txn.ops.len());
        for op in &txn.ops {
            // ---- Freshness check against the state's rts / wts (the "Sync"
            // cost of this scheme: the shared map is its central contention
            // point, just like the counters of LOCK/MVLK/PAT).
            let t = ComponentTimer::start();
            let admitted = {
                let mut map = self.timestamps.lock();
                let entry = map.entry(op.target).or_default();
                if op.is_write() {
                    if ts < entry.rts || ts < entry.wts {
                        false
                    } else {
                        entry.wts = ts;
                        true
                    }
                } else if ts < entry.wts {
                    false
                } else {
                    entry.rts = entry.rts.max(ts);
                    true
                }
            };
            t.stop(breakdown, Component::Sync);
            if !admitted {
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                undo_all(store, &mut undo);
                return Err(ToFailure::Stale);
            }

            // ---- Apply the operation against the committed value.
            if let Err(e) = execute_operation(
                op,
                store,
                env,
                AccessPlan::eager(ValueMode::Committed),
                breakdown,
                &mut undo,
            ) {
                undo_all(store, &mut undo);
                return Err(ToFailure::App(e.to_string()));
            }
        }
        Ok(())
    }
}

impl EagerScheme for ToScheme {
    fn name(&self) -> &'static str {
        "T/O"
    }

    fn prepare_batch(&self, _batch: &[TxnDescriptor]) {
        // T/O needs no per-batch preparation: admission is decided per access
        // against the rts/wts bookkeeping.
    }

    fn execute(
        &self,
        txn: &StateTransaction,
        store: &StateStore,
        env: &ExecEnv,
        breakdown: &mut Breakdown,
    ) -> TxnOutcome {
        match self.try_execute(txn, txn.ts, store, env, breakdown) {
            Ok(()) => TxnOutcome::Committed,
            Err(ToFailure::App(reason)) => {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                txn.blotter.mark_aborted(reason.clone());
                TxnOutcome::aborted(reason)
            }
            Err(ToFailure::Stale) => match self.policy {
                ToPolicy::Reject => {
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    txn.blotter.mark_aborted("T/O freshness check failed");
                    TxnOutcome::aborted("T/O freshness check failed")
                }
                ToPolicy::Restamp => {
                    // Retry with fresh, strictly larger timestamps until the
                    // transaction commits.  Each retry is an order violation:
                    // the transaction no longer executes at its event's
                    // logical position.
                    loop {
                        let fresh = self.restamp_clock.fetch_add(1, Ordering::Relaxed);
                        match self.try_execute(txn, fresh, store, env, breakdown) {
                            Ok(()) => {
                                self.order_violations.fetch_add(1, Ordering::Relaxed);
                                return TxnOutcome::Committed;
                            }
                            Err(ToFailure::App(reason)) => {
                                self.rejections.fetch_add(1, Ordering::Relaxed);
                                txn.blotter.mark_aborted(reason.clone());
                                return TxnOutcome::aborted(reason);
                            }
                            Err(ToFailure::Stale) => continue,
                        }
                    }
                }
            },
        }
    }

    fn end_batch(&self, _store: &StateStore) {}

    fn reset(&self) {
        self.timestamps.lock().clear();
        self.restamp_clock.store(u64::MAX / 2, Ordering::Relaxed);
        self.conflicts.store(0, Ordering::Relaxed);
        self.rejections.store(0, Ordering::Relaxed);
        self.order_violations.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TxnBuilder;
    use std::sync::Arc;
    use tstream_state::{StateStore, TableBuilder, TableId, Value};

    fn store(keys: u64) -> Arc<StateStore> {
        let t = TableBuilder::new("t")
            .extend((0..keys).map(|k| (k, Value::Long(0))))
            .build()
            .unwrap();
        StateStore::new(vec![t]).unwrap()
    }

    fn stamp_txn(ts: u64, key: u64) -> StateTransaction {
        let mut b = TxnBuilder::new(ts);
        b.write_value(0, key, Value::Long(ts as i64));
        b.build().0
    }

    fn read_txn(ts: u64, key: u64) -> StateTransaction {
        let mut b = TxnBuilder::new(ts);
        b.read(0, key);
        b.build().0
    }

    #[test]
    fn in_order_transactions_all_commit() {
        let store = store(4);
        let scheme = ToScheme::new(ToPolicy::Reject);
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();
        for ts in 0..50u64 {
            let txn = stamp_txn(ts, ts % 4);
            assert!(scheme
                .execute(&txn, &store, &env, &mut breakdown)
                .is_committed());
        }
        assert_eq!(scheme.conflicts(), 0);
        assert_eq!(scheme.rejections(), 0);
    }

    #[test]
    fn late_read_is_rejected() {
        // The paper's example: txn_t1 = read(x), txn_t2 = write(x) with
        // t1 < t2, but txn_t2 happens to run first.  txn_t1's read then fails
        // the freshness check and can never commit at its own timestamp.
        let store = store(1);
        let scheme = ToScheme::new(ToPolicy::Reject);
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();

        let write = stamp_txn(2, 0);
        assert!(scheme
            .execute(&write, &store, &env, &mut breakdown)
            .is_committed());

        let read = read_txn(1, 0);
        let outcome = scheme.execute(&read, &store, &env, &mut breakdown);
        assert!(outcome.is_aborted());
        assert!(read.blotter.is_aborted());
        assert_eq!(scheme.conflicts(), 1);
        assert_eq!(scheme.rejections(), 1);
    }

    #[test]
    fn late_write_is_rejected_after_newer_read() {
        let store = store(1);
        let scheme = ToScheme::new(ToPolicy::Reject);
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();

        assert!(scheme
            .execute(&read_txn(5, 0), &store, &env, &mut breakdown)
            .is_committed());
        assert!(scheme
            .execute(&stamp_txn(3, 0), &store, &env, &mut breakdown)
            .is_aborted());
    }

    #[test]
    fn rejected_multi_write_rolls_back_applied_operations() {
        let store = store(2);
        let scheme = ToScheme::new(ToPolicy::Reject);
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();

        // Poison key 1 with a newer write so the second operation fails.
        assert!(scheme
            .execute(&stamp_txn(10, 1), &store, &env, &mut breakdown)
            .is_committed());

        let mut b = TxnBuilder::new(4);
        b.write_value(0, 0, Value::Long(44));
        b.write_value(0, 1, Value::Long(44));
        let (txn, _) = b.build();
        assert!(scheme
            .execute(&txn, &store, &env, &mut breakdown)
            .is_aborted());
        // The first write (key 0) must have been rolled back.
        assert_eq!(
            store.record(TableId(0), 0).unwrap().read_committed(),
            Value::Long(0)
        );
    }

    #[test]
    fn missing_dependency_rejects_the_transaction_as_under_no_lock() {
        let store = store(1);
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();
        let txn = || {
            let mut b = TxnBuilder::new(1);
            b.read_modify(0, 0, Some(StateRef::new(0, 99)), |_ctx| Ok(Value::Long(7)));
            b.build().0
        };
        let nolock = crate::nolock::NoLockScheme::new();
        assert!(nolock
            .execute(&txn(), &store, &env, &mut breakdown)
            .is_aborted());
        for policy in [ToPolicy::Reject, ToPolicy::Restamp] {
            let scheme = ToScheme::new(policy);
            let txn = txn();
            assert!(scheme
                .execute(&txn, &store, &env, &mut breakdown)
                .is_aborted());
            assert!(txn.blotter.is_aborted());
            assert_eq!(scheme.rejections(), 1);
            assert_eq!(
                store.record(TableId(0), 0).unwrap().read_committed(),
                Value::Long(0)
            );
        }
    }

    #[test]
    fn restamp_policy_commits_but_violates_order() {
        let store = store(1);
        let scheme = ToScheme::new(ToPolicy::Restamp);
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();

        // ts=2 writes 2, then ts=1 arrives late and writes 1.  Under a correct
        // schedule the final value is 2 (the larger timestamp wins); under
        // restamped T/O the late transaction is re-executed with a fresh
        // larger timestamp and overwrites it with 1.
        assert!(scheme
            .execute(&stamp_txn(2, 0), &store, &env, &mut breakdown)
            .is_committed());
        assert!(scheme
            .execute(&stamp_txn(1, 0), &store, &env, &mut breakdown)
            .is_committed());
        assert_eq!(scheme.order_violations(), 1);
        assert_eq!(
            store.record(TableId(0), 0).unwrap().read_committed(),
            Value::Long(1),
            "restamping produced a final state that differs from the correct schedule"
        );
    }

    #[test]
    fn concurrent_contention_produces_conflicts() {
        // Many threads write the same key with interleaved timestamps; the
        // arrival order inevitably differs from the timestamp order, so the
        // freshness checks must fire.
        let store = store(1);
        let scheme = Arc::new(ToScheme::new(ToPolicy::Reject));
        let threads = 8usize;
        let per_thread = 64u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let store = store.clone();
                let scheme = scheme.clone();
                s.spawn(move || {
                    let env = ExecEnv::single();
                    let mut breakdown = Breakdown::new();
                    for i in 0..per_thread {
                        let ts = i * threads as u64 + t as u64;
                        let txn = stamp_txn(ts, 0);
                        let _ = scheme.execute(&txn, &store, &env, &mut breakdown);
                    }
                });
            }
        });
        assert!(
            scheme.conflicts() > 0,
            "contended out-of-order arrivals must trip the freshness check"
        );
        // The committed value is always the largest admitted timestamp, i.e.
        // monotone, but some events were lost (rejected) along the way.
        assert_eq!(scheme.conflicts(), scheme.rejections());
    }

    #[test]
    fn reset_clears_all_bookkeeping() {
        let store = store(1);
        let scheme = ToScheme::new(ToPolicy::Reject);
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();
        scheme.execute(&stamp_txn(2, 0), &store, &env, &mut breakdown);
        scheme.execute(&stamp_txn(1, 0), &store, &env, &mut breakdown);
        assert!(scheme.rejections() > 0);
        scheme.reset();
        assert_eq!(scheme.conflicts(), 0);
        assert_eq!(scheme.rejections(), 0);
        assert_eq!(scheme.order_violations(), 0);
        // After the reset an "old" timestamp is admitted again.
        assert!(scheme
            .execute(&stamp_txn(1, 0), &store, &env, &mut breakdown)
            .is_committed());
    }

    #[test]
    fn policy_accessor_reports_configuration() {
        assert_eq!(ToScheme::new(ToPolicy::Reject).policy(), ToPolicy::Reject);
        assert_eq!(ToScheme::default().policy(), ToPolicy::Reject);
        assert_eq!(ToScheme::new(ToPolicy::Restamp).policy(), ToPolicy::Restamp);
    }
}
