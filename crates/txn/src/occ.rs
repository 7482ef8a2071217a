//! OCC: backward-validation optimistic concurrency control.
//!
//! Section II-C of the paper notes that "other existing CCs (e.g., OCC) are
//! similarly not designed with an awareness of state access order (F3)".
//! This module implements a classic three-phase OCC scheme so that claim can
//! be demonstrated alongside the T/O scheme (`sec2c_order_unaware` harness):
//!
//! 1. **Read phase** — the transaction reads committed values and remembers,
//!    for every state it touched, the state's commit counter at read time;
//!    writes are buffered locally;
//! 2. **Validation phase** — under a (per-scheme) critical section the
//!    transaction checks that none of the states it read has been committed
//!    to since its read phase;
//! 3. **Write phase** — still inside the critical section, buffered writes
//!    are installed and the commit counters of the written states are bumped.
//!
//! Failed validation restarts the read phase (bounded by
//! [`OccScheme::max_retries`]); the transaction keeps its original timestamp,
//! so retries do not re-order it — but OCC serialises transactions in
//! *commit* order, not event-timestamp order, so the final state can diverge
//! from the correct state transaction schedule (Definition 2) whenever two
//! conflicting transactions happen to validate out of timestamp order.
//! That divergence, together with the retry rate under contention, is exactly
//! what the harness measures.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use tstream_state::{StateStore, TableId, Value};
use tstream_stream::metrics::{Breakdown, Component, ComponentTimer};
use tstream_stream::operator::StateRef;

use crate::exec::resolve_record;
use crate::outcome::TxnOutcome;
use crate::scheme::{EagerScheme, ExecEnv, TxnDescriptor};
use crate::transaction::StateTransaction;

/// Default bound on validation retries before the transaction is rejected.
pub const DEFAULT_MAX_RETRIES: u32 = 64;

/// The OCC scheme.
#[derive(Debug)]
pub struct OccScheme {
    /// Per-state commit counters consulted during validation.
    commit_counters: Mutex<HashMap<StateRef, u64>>,
    /// Validation + write phases run under this critical section (classic
    /// serial-validation OCC).
    validation: Mutex<()>,
    /// Upper bound on read-phase restarts per transaction.
    max_retries: u32,
    /// Validation failures observed (each failure triggers one retry).
    validation_failures: AtomicU64,
    /// Transactions rejected after exhausting their retries.
    rejections: AtomicU64,
    /// Transactions that committed only after at least one retry.
    retried_commits: AtomicU64,
}

impl Default for OccScheme {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_RETRIES)
    }
}

impl OccScheme {
    /// Creates the scheme with the given retry bound.
    pub fn new(max_retries: u32) -> Self {
        OccScheme {
            commit_counters: Mutex::new(HashMap::new()),
            validation: Mutex::new(()),
            max_retries,
            validation_failures: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            retried_commits: AtomicU64::new(0),
        }
    }

    /// Retry bound per transaction.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Number of validation failures observed so far.
    pub fn validation_failures(&self) -> u64 {
        self.validation_failures.load(Ordering::Relaxed)
    }

    /// Number of transactions rejected after exhausting their retries.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// Number of transactions that needed at least one retry to commit.
    pub fn retried_commits(&self) -> u64 {
        self.retried_commits.load(Ordering::Relaxed)
    }

    /// Counter snapshot of one state (0 if never written).
    fn counter_of(counters: &HashMap<StateRef, u64>, state: &StateRef) -> u64 {
        counters.get(state).copied().unwrap_or(0)
    }

    /// One read-phase attempt: evaluate every operation against the committed
    /// values, buffering writes.  Returns the read-set snapshot and the write
    /// buffer, or the application-level abort reason.
    #[allow(clippy::type_complexity)]
    fn read_phase(
        &self,
        txn: &StateTransaction,
        store: &StateStore,
        breakdown: &mut Breakdown,
    ) -> Result<(HashMap<StateRef, u64>, Vec<(StateRef, Value)>), String> {
        let mut read_set: HashMap<StateRef, u64> = HashMap::new();
        let mut write_buffer: Vec<(StateRef, Value)> = Vec::new();
        // Values already written by this transaction are visible to its own
        // later operations (read-your-writes within the buffer).
        let mut local: HashMap<StateRef, Value> = HashMap::new();

        let t = ComponentTimer::start();
        {
            let counters = self.commit_counters.lock();
            for op in &txn.ops {
                for state in std::iter::once(op.target).chain(op.dependency) {
                    read_set
                        .entry(state)
                        .or_insert_with(|| Self::counter_of(&counters, &state));
                }
            }
        }
        t.stop(breakdown, Component::Sync);

        let t = ComponentTimer::start();
        for op in &txn.ops {
            let committed = match local.get(&op.target) {
                Some(v) => v.clone(),
                None => match resolve_record(store, op.target, op.slot, None) {
                    Ok(r) => r.read_committed(),
                    Err(e) => {
                        t.stop(breakdown, Component::Useful);
                        return Err(e.to_string());
                    }
                },
            };
            let dep_value = match op.dependency {
                Some(dep) => match local.get(&dep) {
                    Some(v) => Some(v.clone()),
                    None => resolve_record(store, dep, op.dep_slot, None)
                        .ok()
                        .map(|r| r.read_committed()),
                },
                None => None,
            };
            match op.evaluate(&committed, dep_value.as_ref()) {
                Ok(Some(new_value)) => {
                    local.insert(op.target, new_value.clone());
                    write_buffer.push((op.target, new_value));
                }
                Ok(None) => {}
                Err(e) => {
                    t.stop(breakdown, Component::Useful);
                    return Err(e.to_string());
                }
            }
        }
        t.stop(breakdown, Component::Useful);
        Ok((read_set, write_buffer))
    }
}

impl EagerScheme for OccScheme {
    fn name(&self) -> &'static str {
        "OCC"
    }

    fn prepare_batch(&self, _batch: &[TxnDescriptor]) {}

    fn execute(
        &self,
        txn: &StateTransaction,
        store: &StateStore,
        _env: &ExecEnv,
        breakdown: &mut Breakdown,
    ) -> TxnOutcome {
        let mut attempts = 0u32;
        loop {
            // ---- Read phase.
            let (read_set, write_buffer) = match self.read_phase(txn, store, breakdown) {
                Ok(parts) => parts,
                Err(reason) => {
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    txn.blotter.mark_aborted(reason.clone());
                    return TxnOutcome::aborted(reason);
                }
            };

            // ---- Validation + write phase (serial critical section).
            let t = ComponentTimer::start();
            let committed = {
                let _serial = self.validation.lock();
                let mut counters = self.commit_counters.lock();
                let valid = read_set
                    .iter()
                    .all(|(state, seen)| Self::counter_of(&counters, state) == *seen);
                if valid {
                    for (state, value) in &write_buffer {
                        if let Ok(record) = store.record(TableId(state.table), state.key) {
                            record.write_committed(value.clone());
                        }
                        *counters.entry(*state).or_insert(0) += 1;
                    }
                }
                valid
            };
            t.stop(breakdown, Component::Sync);

            if committed {
                if attempts > 0 {
                    self.retried_commits.fetch_add(1, Ordering::Relaxed);
                }
                return TxnOutcome::Committed;
            }

            self.validation_failures.fetch_add(1, Ordering::Relaxed);
            attempts += 1;
            if attempts > self.max_retries {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                txn.blotter.mark_aborted("OCC validation retries exhausted");
                return TxnOutcome::aborted("OCC validation retries exhausted");
            }
        }
    }

    fn end_batch(&self, _store: &StateStore) {}

    fn reset(&self) {
        self.commit_counters.lock().clear();
        self.validation_failures.store(0, Ordering::Relaxed);
        self.rejections.store(0, Ordering::Relaxed);
        self.retried_commits.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TxnBuilder;
    use std::sync::Arc;
    use tstream_state::{StateError, StateStore, TableBuilder};

    fn store(keys: u64) -> Arc<StateStore> {
        let t = TableBuilder::new("t")
            .extend((0..keys).map(|k| (k, Value::Long(0))))
            .build()
            .unwrap();
        StateStore::new(vec![t]).unwrap()
    }

    fn increment_txn(ts: u64, key: u64) -> StateTransaction {
        let mut b = TxnBuilder::new(ts);
        b.read_modify(0, key, None, |ctx| {
            Ok(Value::Long(ctx.current.as_long()? + 1))
        });
        b.build().0
    }

    #[test]
    fn uncontended_transactions_commit_without_retries() {
        let store = store(8);
        let scheme = OccScheme::default();
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();
        for ts in 0..64u64 {
            let txn = increment_txn(ts, ts % 8);
            assert!(scheme
                .execute(&txn, &store, &env, &mut breakdown)
                .is_committed());
        }
        assert_eq!(scheme.validation_failures(), 0);
        assert_eq!(scheme.retried_commits(), 0);
        assert_eq!(scheme.rejections(), 0);
        for k in 0..8u64 {
            assert_eq!(
                store.record(TableId(0), k).unwrap().read_committed(),
                Value::Long(8)
            );
        }
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        // OCC is order-unaware but still serialisable: concurrent increments
        // of the same key must all be reflected.
        let store = store(2);
        let scheme = Arc::new(OccScheme::default());
        let threads = 8usize;
        let per_thread = 100u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let store = store.clone();
                let scheme = scheme.clone();
                s.spawn(move || {
                    let env = ExecEnv::single();
                    let mut breakdown = Breakdown::new();
                    for i in 0..per_thread {
                        let ts = i * threads as u64 + t as u64;
                        let txn = increment_txn(ts, ts % 2);
                        assert!(scheme
                            .execute(&txn, &store, &env, &mut breakdown)
                            .is_committed());
                    }
                });
            }
        });
        let total: i64 = (0..2u64)
            .map(|k| {
                store
                    .record(TableId(0), k)
                    .unwrap()
                    .read_committed()
                    .as_long()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, (threads as u64 * per_thread) as i64);
    }

    #[test]
    fn commit_order_can_violate_timestamp_order() {
        // Two "stamp" transactions over the same key, executed in arrival
        // order 2 then 1.  OCC happily commits both; the final value is the
        // one committed last (ts=1), which differs from the correct schedule
        // (ts=2 should win).
        let store = store(1);
        let scheme = OccScheme::default();
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();
        for ts in [2u64, 1u64] {
            let mut b = TxnBuilder::new(ts);
            b.write_value(0, 0, Value::Long(ts as i64));
            let (txn, _) = b.build();
            assert!(scheme
                .execute(&txn, &store, &env, &mut breakdown)
                .is_committed());
        }
        assert_eq!(
            store.record(TableId(0), 0).unwrap().read_committed(),
            Value::Long(1),
            "OCC serialises in commit order, not timestamp order"
        );
    }

    #[test]
    fn application_aborts_are_not_retried() {
        let store = store(1);
        let scheme = OccScheme::default();
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();
        let mut b = TxnBuilder::new(0);
        b.read_modify(0, 0, None, |_| {
            Err(StateError::ConsistencyViolation("no".into()))
        });
        let (txn, blotter) = b.build();
        assert!(scheme
            .execute(&txn, &store, &env, &mut breakdown)
            .is_aborted());
        assert!(blotter.is_aborted());
        assert_eq!(scheme.validation_failures(), 0);
        assert_eq!(scheme.rejections(), 1);
    }

    #[test]
    fn zero_retry_budget_keeps_bookkeeping_consistent_under_contention() {
        // With no retry budget every validation failure becomes a rejection.
        // Regardless of how many failures actually occur under scheduling
        // noise, the committed increments must exactly equal the final value
        // (rejected work leaves no trace) and the statistics must balance.
        let store = store(1);
        let scheme = Arc::new(OccScheme::new(0));
        let threads = 6usize;
        let per_thread = 200u64;
        let committed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..threads {
                let store = store.clone();
                let scheme = scheme.clone();
                let committed = committed.clone();
                s.spawn(move || {
                    let env = ExecEnv::single();
                    let mut breakdown = Breakdown::new();
                    for i in 0..per_thread {
                        let ts = i * threads as u64 + t as u64;
                        let txn = increment_txn(ts, 0);
                        if scheme
                            .execute(&txn, &store, &env, &mut breakdown)
                            .is_committed()
                        {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let final_value = store
            .record(TableId(0), 0)
            .unwrap()
            .read_committed()
            .as_long()
            .unwrap();
        assert_eq!(final_value as u64, committed.load(Ordering::Relaxed));
        assert_eq!(scheme.validation_failures(), scheme.rejections());
        assert_eq!(
            committed.load(Ordering::Relaxed) + scheme.rejections(),
            threads as u64 * per_thread
        );
    }

    #[test]
    fn reset_clears_counters_and_statistics() {
        let store = store(1);
        let scheme = OccScheme::default();
        let env = ExecEnv::single();
        let mut breakdown = Breakdown::new();
        scheme.execute(&increment_txn(0, 0), &store, &env, &mut breakdown);
        assert!(!scheme.commit_counters.lock().is_empty());
        scheme.reset();
        assert!(scheme.commit_counters.lock().is_empty());
        assert_eq!(scheme.validation_failures(), 0);
        assert_eq!(scheme.rejections(), 0);
        assert_eq!(scheme.retried_commits(), 0);
    }

    #[test]
    fn accessors_report_configuration() {
        assert_eq!(OccScheme::default().max_retries(), DEFAULT_MAX_RETRIES);
        assert_eq!(OccScheme::new(3).max_retries(), 3);
    }
}
