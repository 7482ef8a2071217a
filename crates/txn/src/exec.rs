//! The state-access kernel.
//!
//! All schemes ultimately perform the same physical work per operation —
//! resolve the target record, read the current (or timestamp-visible) value,
//! run the user function, apply the write, log it for undo — and they all
//! charge that work to the same breakdown components.  [`execute_operation`]
//! is the only place that work happens: the eager bodies, TStream's direct
//! runs, its chain evaluation and its serial replay all run it, so whether a
//! transaction commits can never depend on which of them executed it.  The schemes stay focused on *synchronisation*, which is what
//! the paper compares.

use tstream_obs::clock::Stopwatch;
use tstream_state::{Record, StateError, StateResult, StateStore, TableId, Value};
use tstream_stream::metrics::{Breakdown, Component};
use tstream_stream::operator::StateRef;

use crate::operation::{Operation, INVALID_SLOT};
use crate::scheme::ExecEnv;
use crate::Timestamp;

/// How values are read and written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueMode {
    /// Single-version: read and overwrite the committed value directly
    /// (No-Lock, LOCK, PAT, and TStream chains nothing depends on).
    Committed,
    /// Multi-version: reads pick the version visible at the operation's
    /// timestamp, writes install a new version; the newest version is folded
    /// into the committed value at the end of the batch (TStream's
    /// dependency handling).
    Versioned,
}

/// How [`execute_operation`] accesses the two states of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPlan {
    /// How the target state is read and written.
    pub target: ValueMode,
    /// How the dependency state (if any) is read.
    pub dependency: ValueMode,
    /// Whether the operation is timed on its own (two clock reads) and
    /// counted when the NUMA model classifies it remote.  When false nothing
    /// is charged here and the caller times a whole chain or batch instead.
    pub classify: bool,
}

impl AccessPlan {
    /// The plan of the eager bodies: both states accessed in `mode`, every
    /// operation classified and timed.
    pub fn eager(mode: ValueMode) -> Self {
        AccessPlan {
            target: mode,
            dependency: mode,
            classify: true,
        }
    }
}

/// Undo information for one applied write, so an aborting transaction — or
/// the states a multi-write abort reached — can be rolled back.
#[derive(Debug)]
pub struct UndoEntry {
    /// Which state was written.
    pub target: StateRef,
    /// Record slot of the written state (see [`resolve_record`]), so rollback
    /// needs no further index lookup.
    pub slot: u32,
    /// Timestamp of the writing operation.
    pub ts: Timestamp,
    /// Value of the state immediately before the write in timestamp order:
    /// the committed value it overwrote, or — for a versioned write — the
    /// value visible at `ts`.
    pub previous: Value,
    /// Whether the write installed a temporary version at `ts`
    /// ([`ValueMode::Versioned`]) instead of overwriting the committed value.
    pub versioned: bool,
}

/// Resolve a state to its record: straight to the slot when routing resolved
/// it, through the keyed index otherwise.  An unresolved slot is never wrong,
/// only slower; with `others` given, that index lookup is charged to
/// *Others* (a resolved slot leaves no index work to measure).
#[inline]
pub fn resolve_record<'s>(
    store: &'s StateStore,
    state: StateRef,
    slot: u32,
    others: Option<&mut Breakdown>,
) -> StateResult<&'s Record> {
    if slot != INVALID_SLOT {
        return Ok(store.record_at(TableId(state.table), slot));
    }
    let t_index = Stopwatch::start_if(others.is_some());
    let record = store.record(TableId(state.table), state.key);
    if let Some(breakdown) = others {
        breakdown.charge(Component::Others, t_index.elapsed());
    }
    record
}

/// Execute a single operation: resolve, read, evaluate, write, log for undo.
///
/// On success, any applied write is appended to `undo`.  On failure — the
/// user function rejected the access, or a state does not exist — nothing was
/// written and the caller decides how the transaction aborts.  With
/// `plan.classify`, the state access is charged to *Useful* and, when the NUMA
/// model classifies a touched record as remote to the executor, counted in
/// [`Breakdown::remote_accesses`].
///
/// `#[inline]` because the callers' per-operation loops live in other crates
/// (chain evaluation, the generic transaction body) and the build has no LTO.
#[inline]
pub fn execute_operation(
    op: &Operation,
    store: &StateStore,
    env: &ExecEnv,
    plan: AccessPlan,
    breakdown: &mut Breakdown,
    undo: &mut Vec<UndoEntry>,
) -> StateResult<()> {
    let record = resolve_record(
        store,
        op.target,
        op.slot,
        plan.classify.then_some(&mut *breakdown),
    )?;
    let dep_record = match op.dependency {
        Some(dep) => Some(resolve_record(
            store,
            dep,
            op.dep_slot,
            plan.classify.then_some(&mut *breakdown),
        )?),
        None => None,
    };

    let t_access = Stopwatch::start_if(plan.classify);
    let dep_value = dep_record.map(|r| match plan.dependency {
        ValueMode::Committed => r.read_committed(),
        ValueMode::Versioned => r.read_visible(op.ts),
    });
    // A versioned target is read once, at its timestamp: the value is
    // evaluated against and, if the operation writes, logged as the value it
    // replaces, so a closure replay can restore the state to just before the
    // write even after the versions collapsed.
    let visible = match plan.target {
        ValueMode::Committed => None,
        ValueMode::Versioned => Some(record.read_visible(op.ts)),
    };
    let produced = match &visible {
        // Evaluate against the committed value in place — no clone of the
        // current value just to read it.
        None => record.with_committed(|current| op.evaluate(current, dep_value.as_ref())),
        Some(current) => op.evaluate(current, dep_value.as_ref()),
    };
    let outcome = produced.map(|produced| {
        if let Some(new_value) = produced {
            let (previous, versioned) = match visible {
                None => (record.write_committed(new_value), false),
                Some(previous) => {
                    record.install_version(op.ts, new_value);
                    (previous, true)
                }
            };
            undo.push(UndoEntry {
                target: op.target,
                slot: op.slot,
                ts: op.ts,
                previous,
                versioned,
            });
        }
    });
    if plan.classify {
        breakdown.charge(Component::Useful, t_access.elapsed());
        breakdown.remote_accesses += u64::from(env.is_remote_op(op));
    }
    outcome
}

/// Roll back previously applied writes, newest first.
pub fn undo_all(store: &StateStore, undo: &mut Vec<UndoEntry>) {
    while let Some(entry) = undo.pop() {
        if let Ok(record) = resolve_record(store, entry.target, entry.slot, None) {
            if entry.versioned {
                record.remove_version(entry.ts);
            } else {
                record.write_committed(entry.previous);
            }
        }
    }
}

/// Execute every operation of a transaction in issue order, rolling back on
/// the first failure.
///
/// This is the body shared by the eager schemes once their synchronisation
/// has admitted the transaction, by TStream's direct runs of transactions
/// alone in their batch, and by its serial replay.
pub fn execute_transaction_body<'a>(
    ops: impl IntoIterator<Item = &'a Operation>,
    store: &StateStore,
    env: &ExecEnv,
    mode: ValueMode,
    breakdown: &mut Breakdown,
) -> StateResult<()> {
    execute_transaction_planned(ops, store, env, AccessPlan::eager(mode), breakdown)
}

/// [`execute_transaction_body`] under an explicit [`AccessPlan`], for a
/// caller that times a whole run of transactions itself instead of each
/// operation.
pub fn execute_transaction_planned<'a>(
    ops: impl IntoIterator<Item = &'a Operation>,
    store: &StateStore,
    env: &ExecEnv,
    plan: AccessPlan,
    breakdown: &mut Breakdown,
) -> StateResult<()> {
    let ops = ops.into_iter();
    let mut undo = Vec::with_capacity(ops.size_hint().0);
    for op in ops {
        if let Err(e) = execute_operation(op, store, env, plan, breakdown, &mut undo) {
            undo_all(store, &mut undo);
            op.blotter.mark_aborted(e.to_string());
            return Err(StateError::Aborted {
                timestamp: op.ts,
                reason: e.to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::NumaModel;
    use crate::transaction::TxnBuilder;
    use std::time::Duration;
    use tstream_state::TableBuilder;
    use tstream_stream::executor::{ExecutorId, ExecutorLayout};

    #[test]
    fn an_undo_entry_stays_within_fifty_six_bytes() {
        // One is pushed per applied write and kept until the batch commits.
        assert!(std::mem::size_of::<UndoEntry>() <= 56);
    }

    fn store() -> std::sync::Arc<StateStore> {
        let t = TableBuilder::new("accounts")
            .extend((0..10u64).map(|k| (k, Value::Long(100))))
            .build()
            .unwrap();
        StateStore::new(vec![t]).unwrap()
    }

    #[test]
    fn committed_mode_reads_and_writes_in_place() {
        let store = store();
        let env = ExecEnv::single();
        let mut b = Breakdown::new();

        let mut txn = TxnBuilder::new(1);
        txn.read(0, 3);
        txn.read_modify(0, 3, None, |ctx| {
            Ok(Value::Long(ctx.current.as_long()? + 5))
        });
        let (txn, blotter) = txn.build();
        execute_transaction_body(&txn.ops, &store, &env, ValueMode::Committed, &mut b).unwrap();

        assert_eq!(blotter.result_long(0), 100);
        assert_eq!(blotter.result_long(1), 105);
        assert_eq!(
            store.record(TableId(0), 3).unwrap().read_committed(),
            Value::Long(105)
        );
        assert!(b.useful > std::time::Duration::ZERO);
        assert!(b.others > std::time::Duration::ZERO);
    }

    #[test]
    fn versioned_mode_defers_commit_to_collapse() {
        let store = store();
        let env = ExecEnv::single();
        let mut b = Breakdown::new();

        let mut txn = TxnBuilder::new(5);
        txn.write_value(0, 2, Value::Long(999));
        let (txn, _) = txn.build();
        execute_transaction_body(&txn.ops, &store, &env, ValueMode::Versioned, &mut b).unwrap();

        let record = store.record(TableId(0), 2).unwrap();
        // The committed value is untouched until collapse.
        assert_eq!(record.read_committed(), Value::Long(100));
        // But readers at a later timestamp see the new version.
        assert_eq!(record.read_visible(6), Value::Long(999));
        // Readers logically before the write still see the base value.
        assert_eq!(record.read_visible(5), Value::Long(100));
        record.collapse_versions();
        assert_eq!(record.read_committed(), Value::Long(999));
    }

    #[test]
    fn failure_rolls_back_applied_writes() {
        let store = store();
        let env = ExecEnv::single();
        let mut b = Breakdown::new();

        let mut txn = TxnBuilder::new(2);
        // First write succeeds, second fails the consistency check.
        txn.read_modify(0, 1, None, |ctx| {
            Ok(Value::Long(ctx.current.as_long()? - 10))
        });
        txn.read_modify(0, 4, None, |_ctx| {
            Err(StateError::ConsistencyViolation("boom".into()))
        });
        let (txn, blotter) = txn.build();
        let err = execute_transaction_body(&txn.ops, &store, &env, ValueMode::Committed, &mut b)
            .unwrap_err();
        assert!(matches!(err, StateError::Aborted { .. }));
        assert!(blotter.is_aborted());
        // The first write was rolled back.
        assert_eq!(
            store.record(TableId(0), 1).unwrap().read_committed(),
            Value::Long(100)
        );
    }

    /// The kernel over every way it can be asked to run one operation:
    /// {target committed / visible} × {dependency committed / visible} ×
    /// {slots resolved / keyed} × {read, write, failing write, missing key}
    /// × {local / remote executor} × {classified / not}.
    #[test]
    fn kernel_reads_writes_logs_and_charges_per_plan() {
        #[derive(Debug, Clone, Copy)]
        enum Kind {
            Read,
            Write,
            FailingWrite,
            MissingKey,
        }
        const TS: u64 = 5;
        let two_sockets = ExecEnv {
            executor: ExecutorId(0),
            layout: ExecutorLayout::new(20, 10),
            numa: NumaModel::paper_calibrated(),
        };
        let target_key = (0..10u64)
            .find(|&k| two_sockets.is_remote(k))
            .expect("some key lives on the other socket");
        let dep = StateRef::new(0, (target_key + 1) % 10);
        let modes = [ValueMode::Committed, ValueMode::Versioned];
        let kinds = [
            Kind::Read,
            Kind::Write,
            Kind::FailingWrite,
            Kind::MissingKey,
        ];

        for (target, dependency) in modes.iter().flat_map(|t| modes.map(|d| (*t, d))) {
            for (resolved, kind) in [true, false].iter().flat_map(|r| kinds.map(|k| (*r, k))) {
                for (env, classify) in [ExecEnv::single(), two_sockets]
                    .iter()
                    .flat_map(|e| [true, false].map(|c| (*e, c)))
                {
                    // Both states carry a temporary version below TS, so a
                    // committed read and a visible read see different values.
                    let store = store();
                    let record = store.record(TableId(0), target_key).unwrap();
                    record.install_version(3, Value::Long(150));
                    let dep_record = store.record(TableId(0), dep.key).unwrap();
                    dep_record.write_committed(Value::Long(7));
                    dep_record.install_version(3, Value::Long(9));
                    let seen = |mode, committed, visible| match mode {
                        ValueMode::Committed => committed,
                        ValueMode::Versioned => visible,
                    };
                    let seen_target = seen(target, 100, 150);
                    let written = seen_target + seen(dependency, 7, 9);

                    let mut b = TxnBuilder::new(TS);
                    match kind {
                        Kind::Read => b.read(0, target_key),
                        Kind::Write => b.read_modify(0, target_key, Some(dep), |ctx| {
                            Ok(Value::Long(
                                ctx.current.as_long()? + ctx.dependency.unwrap().as_long()?,
                            ))
                        }),
                        Kind::FailingWrite => b.read_modify(0, target_key, Some(dep), |_| {
                            Err(StateError::ConsistencyViolation("no".into()))
                        }),
                        Kind::MissingKey => {
                            b.read_modify(0, 999, Some(dep), |ctx| Ok(ctx.current.clone()))
                        }
                    };
                    let (mut txn, blotter) = b.build();
                    if resolved {
                        txn.resolve_slots(|s| {
                            store
                                .try_slot_of(TableId(s.table), s.key)
                                .unwrap_or(INVALID_SLOT)
                        });
                    }
                    let op = &txn.ops[0];
                    let plan = AccessPlan {
                        target,
                        dependency,
                        classify,
                    };
                    let remote = env.is_remote(target_key);
                    let case = format!("{plan:?} resolved={resolved} {kind:?} remote={remote}");

                    let mut breakdown = Breakdown::new();
                    let mut undo = Vec::new();
                    let result =
                        execute_operation(op, &store, &env, plan, &mut breakdown, &mut undo);

                    let untouched = |record: &Record| {
                        assert_eq!(record.read_committed(), Value::Long(100), "{case}");
                        assert_eq!(record.read_visible(TS + 1), Value::Long(150), "{case}");
                    };
                    match kind {
                        Kind::Read => {
                            result.unwrap();
                            assert_eq!(blotter.result_long(0), seen_target, "{case}");
                            assert!(undo.is_empty(), "{case}");
                            untouched(record);
                        }
                        Kind::Write => {
                            result.unwrap();
                            assert_eq!(blotter.result_long(0), written, "{case}");
                            let versioned = target == ValueMode::Versioned;
                            if versioned {
                                assert_eq!(record.read_committed(), Value::Long(100), "{case}");
                                assert_eq!(
                                    record.read_visible(TS + 1),
                                    Value::Long(written),
                                    "{case}"
                                );
                            } else {
                                assert_eq!(record.read_committed(), Value::Long(written), "{case}");
                            }
                            assert_eq!(undo.len(), 1, "{case}");
                            let entry = &undo[0];
                            assert_eq!(
                                (entry.target, entry.slot, entry.ts, entry.versioned),
                                (op.target, op.slot, TS, versioned),
                                "{case}"
                            );
                            // The value the write replaced at TS: the visible
                            // version for a versioned write, not the committed
                            // pre-batch value.
                            assert_eq!(entry.previous, Value::Long(seen_target), "{case}");
                            if versioned {
                                assert_eq!(entry.previous, Value::Long(150), "{case}");
                            }
                            undo_all(&store, &mut undo);
                            assert!(undo.is_empty(), "{case}");
                            untouched(record);
                        }
                        Kind::FailingWrite => {
                            let err = result.unwrap_err();
                            assert!(matches!(err, StateError::ConsistencyViolation(_)), "{case}");
                            assert!(undo.is_empty(), "{case}");
                            untouched(record);
                        }
                        Kind::MissingKey => {
                            let err = result.unwrap_err();
                            assert!(matches!(err, StateError::KeyNotFound { .. }), "{case}");
                            assert!(undo.is_empty(), "{case}");
                        }
                    }

                    // Others only for an index lookup, a remote count only
                    // when classified remote, nothing at all when not
                    // classified.
                    let keyed = !resolved || matches!(kind, Kind::MissingKey);
                    let accessed = !matches!(kind, Kind::MissingKey);
                    let charged = |d: Duration| d > Duration::ZERO;
                    assert_eq!(charged(breakdown.others), classify && keyed, "{case}");
                    assert_eq!(charged(breakdown.useful), classify && accessed, "{case}");
                    assert_eq!(
                        breakdown.remote_accesses,
                        u64::from(classify && accessed && remote),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn dependency_value_is_passed_to_functions() {
        let store = store();
        store
            .record(TableId(0), 7)
            .unwrap()
            .write_committed(Value::Long(1));
        let env = ExecEnv::single();
        let mut b = Breakdown::new();
        let mut txn = TxnBuilder::new(3);
        // Write key 0 to (dependency key 7's value) * 2.
        txn.write_with(0, 0, Some(StateRef::new(0, 7)), |ctx| {
            Ok(Value::Long(ctx.dependency.unwrap().as_long()? * 2))
        });
        let (txn, _) = txn.build();
        execute_transaction_body(&txn.ops, &store, &env, ValueMode::Committed, &mut b).unwrap();
        assert_eq!(
            store.record(TableId(0), 0).unwrap().read_committed(),
            Value::Long(2)
        );
    }
}
