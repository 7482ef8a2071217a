//! MVLK: multi-version locking with per-state `lwm` watermarks.
//!
//! Re-implementation of the multi-version variant of Wang et al.
//! (Section II-C.2).  Every state keeps a low-water-mark counter (`lwm`) that
//! tracks how many writes have been applied to it:
//!
//! * a **write** is admitted only when the state's `lwm` equals the write's
//!   position among all writes to that state in timestamp order (so writes to
//!   one state apply strictly in timestamp order);
//! * a **read** only has to wait until every write with a *smaller* timestamp
//!   has been applied; it then picks the version visible at its timestamp, so
//!   it is never blocked by writers with larger timestamps — the relaxation
//!   that distinguishes MVLK from LOCK.
//!
//! The positions ("write indices") are derived from the determined read/write
//! sets (feature F2) in timestamp order during batch preparation, mirroring
//! the counter bookkeeping of the original scheme.  Versions created during a
//! batch are folded into the committed values at the end of the batch.

use std::collections::HashMap;

use parking_lot::Mutex;
use tstream_state::{StateStore, TableId, Value};
use tstream_stream::metrics::{Breakdown, Component, ComponentTimer};
use tstream_stream::operator::{AccessMode, StateRef};

use crate::exec::resolve_record;
use crate::outcome::TxnOutcome;
use crate::scheme::{EagerScheme, ExecEnv, TxnDescriptor};
use crate::transaction::StateTransaction;
use crate::Timestamp;

/// Per-state admission information for one transaction.
#[derive(Debug, Clone, Copy, Default)]
struct StateSlot {
    /// Number of writes to this state by transactions with smaller
    /// timestamps (what a read must wait for).
    prior_writes: u64,
    /// Index of this transaction's first write to the state, if it writes it.
    first_write_index: u64,
    /// How many times this transaction writes the state.
    writes_by_txn: u64,
}

/// Admission plan of one transaction.
#[derive(Debug, Clone, Default)]
struct MvlkPlan {
    slots: HashMap<StateRef, StateSlot>,
}

/// The MVLK scheme.
#[derive(Debug, Default)]
pub struct MvlkScheme {
    /// Cumulative number of writes assigned per state (prepare-side).
    assigned_writes: Mutex<HashMap<StateRef, u64>>,
    /// Plans for not-yet-executed transactions.
    plans: Mutex<HashMap<Timestamp, MvlkPlan>>,
    /// States written during the current batch (for end-of-batch collapse).
    dirty: Mutex<Vec<StateRef>>,
}

impl MvlkScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EagerScheme for MvlkScheme {
    fn name(&self) -> &'static str {
        "MVLK"
    }

    fn prepare_batch(&self, batch: &[TxnDescriptor]) {
        let mut descriptors: Vec<&TxnDescriptor> = batch.iter().collect();
        descriptors.sort_by_key(|d| d.ts);
        let mut assigned = self.assigned_writes.lock();
        let mut plans = self.plans.lock();
        let mut dirty = self.dirty.lock();
        for d in descriptors {
            let mut plan = MvlkPlan::default();
            // First pass: snapshot prior write counts for every touched state.
            for (state, _) in d.rw_set.iter() {
                plan.slots.entry(*state).or_insert_with(|| StateSlot {
                    prior_writes: assigned.get(state).copied().unwrap_or(0),
                    first_write_index: 0,
                    writes_by_txn: 0,
                });
            }
            // Second pass: allocate write indices in declaration order.
            for (state, mode) in d.rw_set.iter() {
                if *mode == AccessMode::Write {
                    let counter = assigned.entry(*state).or_insert(0);
                    let slot = plan.slots.get_mut(state).expect("slot inserted above");
                    if slot.writes_by_txn == 0 {
                        slot.first_write_index = *counter;
                        dirty.push(*state);
                    }
                    slot.writes_by_txn += 1;
                    *counter += 1;
                }
            }
            plans.insert(d.ts, plan);
        }
    }

    fn execute(
        &self,
        txn: &StateTransaction,
        store: &StateStore,
        env: &ExecEnv,
        breakdown: &mut Breakdown,
    ) -> TxnOutcome {
        let plan = self.plans.lock().remove(&txn.ts).unwrap_or_default();
        let mut failure: Option<String> = None;

        // ---- Phase 1: evaluate every operation against the versions visible
        // at this transaction's timestamp, producing the values to install.
        // Nothing is installed yet, so an abort discovered at a later
        // operation can simply discard the plan — no reader ever observes a
        // version of an aborted transaction (atomicity, Section IV-D).
        let mut planned: Vec<Option<Value>> = Vec::with_capacity(txn.ops.len());
        for op in &txn.ops {
            let slot = plan.slots.get(&op.target).copied().unwrap_or_default();
            let record = match resolve_record(store, op.target, op.slot, None) {
                Ok(r) => r,
                Err(e) => {
                    failure = Some(e.to_string());
                    break;
                }
            };

            // Admission: all writes with smaller timestamps must be applied
            // before we may read the target (the `lwm` comparison of the
            // paper); same for the dependency state.
            let t = ComponentTimer::start();
            record.write_gate().wait_at_least(slot.prior_writes);
            let dep_record = match op.dependency {
                Some(dep) => match resolve_record(store, dep, op.dep_slot, None) {
                    Ok(r) => {
                        let dep_prior = plan.slots.get(&dep).map(|s| s.prior_writes).unwrap_or(0);
                        r.write_gate().wait_at_least(dep_prior);
                        Some(r)
                    }
                    Err(e) => {
                        failure = Some(e.to_string());
                        break;
                    }
                },
                None => None,
            };
            t.stop(breakdown, Component::Sync);

            // Evaluate against timestamp-visible values.
            let remote =
                env.is_remote(op.target.key) || op.dependency.is_some_and(|d| env.is_remote(d.key));
            let t_access = ComponentTimer::start();
            if remote {
                env.remote_penalty();
            }
            let current = record.read_visible(op.ts);
            let dep_value = dep_record.map(|r| r.read_visible(op.ts));
            let produced = op.evaluate(&current, dep_value.as_ref());
            t_access.stop(
                breakdown,
                if remote {
                    Component::Rma
                } else {
                    Component::Useful
                },
            );
            match produced {
                Ok(value) => planned.push(value),
                Err(e) => {
                    failure = Some(e.to_string());
                    break;
                }
            }
        }

        // ---- Phase 2: pass every write position of this transaction through
        // the per-state counters in order, installing the planned versions
        // only if the whole transaction validated.  Aborted transactions
        // still advance the counters so later writers are not stranded; the
        // counter updates are charged to Others (the paper's lwm-maintenance
        // cost).
        let committed = failure.is_none();
        let mut writes_done: HashMap<StateRef, u64> = HashMap::new();
        for (i, op) in txn.ops.iter().enumerate() {
            if !op.is_write() {
                continue;
            }
            let Ok(record) = resolve_record(store, op.target, op.slot, None) else {
                continue;
            };
            let slot = plan.slots.get(&op.target).copied().unwrap_or_default();
            let my_write_index =
                slot.first_write_index + writes_done.get(&op.target).copied().unwrap_or(0);
            let t = ComponentTimer::start();
            record.write_gate().wait_exact(my_write_index);
            t.stop(breakdown, Component::Sync);

            if committed {
                if let Some(Some(value)) = planned.get(i) {
                    let t_access = ComponentTimer::start();
                    record.install_version(op.ts, value.clone());
                    t_access.stop(breakdown, Component::Useful);
                }
            }
            let t = ComponentTimer::start();
            record.write_gate().advance();
            *writes_done.entry(op.target).or_insert(0) += 1;
            t.stop(breakdown, Component::Others);
        }

        match failure {
            None => TxnOutcome::Committed,
            Some(reason) => {
                txn.blotter.mark_aborted(reason.clone());
                TxnOutcome::aborted(reason)
            }
        }
    }

    fn end_batch(&self, store: &StateStore) {
        // Fold the newest version of every dirty state into its committed
        // value (versions older than the newest are garbage collected).
        let mut dirty = self.dirty.lock();
        dirty.sort_unstable();
        dirty.dedup();
        for state in dirty.drain(..) {
            if let Ok(record) = store.record(TableId(state.table), state.key) {
                record.collapse_versions();
            }
        }
    }

    fn reset(&self) {
        self.assigned_writes.lock().clear();
        self.plans.lock().clear();
        self.dirty.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TxnBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tstream_state::{StateStore, TableBuilder, Value};
    use tstream_stream::operator::ReadWriteSet;

    fn store(keys: u64) -> Arc<StateStore> {
        let t = TableBuilder::new("t")
            .extend((0..keys).map(|k| (k, Value::Long(0))))
            .build()
            .unwrap();
        StateStore::new(vec![t]).unwrap()
    }

    fn add_txn(ts: u64, key: u64, delta: i64) -> (StateTransaction, TxnDescriptor) {
        let mut b = TxnBuilder::new(ts);
        b.read_modify(0, key, None, move |ctx| {
            Ok(Value::Long(ctx.current.as_long()? + delta))
        });
        let set = ReadWriteSet::new().write(StateRef::new(0, key));
        (b.build().0, TxnDescriptor::unresolved(ts, set))
    }

    fn run_concurrently(
        scheme: &Arc<MvlkScheme>,
        store: &Arc<StateStore>,
        txns: Vec<StateTransaction>,
        threads: usize,
    ) {
        let next = Arc::new(AtomicUsize::new(0));
        let txns = Arc::new(txns);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let scheme = scheme.clone();
                let store = store.clone();
                let txns = txns.clone();
                let next = next.clone();
                s.spawn(move || {
                    let env = ExecEnv::single();
                    let mut breakdown = Breakdown::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= txns.len() {
                            break;
                        }
                        scheme.execute(&txns[i], &store, &env, &mut breakdown);
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_increments_apply_exactly_once_each() {
        let store = store(8);
        let scheme = Arc::new(MvlkScheme::new());
        let count = 256u64;
        let mut txns = Vec::new();
        let mut descs = Vec::new();
        for ts in 0..count {
            let (t, d) = add_txn(ts, ts % 8, 1);
            txns.push(t);
            descs.push(d);
        }
        scheme.prepare_batch(&descs);
        run_concurrently(&scheme, &store, txns, 8);
        scheme.end_batch(&store);
        let total: i64 = (0..8u64)
            .map(|k| {
                store
                    .record(TableId(0), k)
                    .unwrap()
                    .read_committed()
                    .as_long()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, count as i64);
    }

    #[test]
    fn reads_observe_timestamp_consistent_values() {
        // txn 0 writes key 0 := 10; txn 1 reads key 0; txn 2 writes key 0 := 20.
        // Under a correct schedule the read of txn 1 must observe 10 — never
        // 0 (too old) or 20 (too new) — regardless of thread interleaving.
        for _ in 0..20 {
            let store = store(1);
            let scheme = Arc::new(MvlkScheme::new());

            let mut b0 = TxnBuilder::new(0);
            b0.write_value(0, 0, Value::Long(10));
            let (t0, _) = b0.build();
            let d0 = TxnDescriptor::unresolved(0, ReadWriteSet::new().write(StateRef::new(0, 0)));

            let mut b1 = TxnBuilder::new(1);
            b1.read(0, 0);
            let (t1, blotter1) = b1.build();
            let d1 = TxnDescriptor::unresolved(1, ReadWriteSet::new().read(StateRef::new(0, 0)));

            let mut b2 = TxnBuilder::new(2);
            b2.write_value(0, 0, Value::Long(20));
            let (t2, _) = b2.build();
            let d2 = TxnDescriptor::unresolved(2, ReadWriteSet::new().write(StateRef::new(0, 0)));

            scheme.prepare_batch(&[d0, d1, d2]);
            run_concurrently(&scheme, &store, vec![t0, t1, t2], 3);
            scheme.end_batch(&store);

            assert_eq!(blotter1.result_long(0), 10);
            assert_eq!(
                store.record(TableId(0), 0).unwrap().read_committed(),
                Value::Long(20)
            );
        }
    }

    #[test]
    fn aborted_write_does_not_stall_later_writers() {
        let store = store(1);
        let scheme = Arc::new(MvlkScheme::new());

        // txn 0 aborts after being admitted; txn 1 then writes the key.
        let mut b0 = TxnBuilder::new(0);
        b0.read_modify(0, 0, None, |_| {
            Err(tstream_state::StateError::ConsistencyViolation("no".into()))
        });
        let (t0, blotter0) = b0.build();
        let d0 = TxnDescriptor::unresolved(0, ReadWriteSet::new().write(StateRef::new(0, 0)));
        let (t1, d1) = add_txn(1, 0, 5);
        scheme.prepare_batch(&[d0, d1]);
        run_concurrently(&scheme, &store, vec![t0, t1], 2);
        scheme.end_batch(&store);

        assert!(blotter0.is_aborted());
        assert_eq!(
            store.record(TableId(0), 0).unwrap().read_committed(),
            Value::Long(5)
        );
    }

    #[test]
    fn reset_clears_cross_batch_counters() {
        let store = store(1);
        let scheme = MvlkScheme::new();
        let (t0, d0) = add_txn(0, 0, 1);
        scheme.prepare_batch(&[d0]);
        let env = ExecEnv::single();
        let mut b = Breakdown::new();
        scheme.execute(&t0, &store, &env, &mut b);
        scheme.end_batch(&store);
        assert!(!scheme.assigned_writes.lock().is_empty());
        scheme.reset();
        assert!(scheme.assigned_writes.lock().is_empty());
        assert!(scheme.plans.lock().is_empty());
    }
}
