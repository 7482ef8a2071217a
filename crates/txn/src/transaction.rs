//! State transactions and the builder applications use to issue them.

use std::sync::Arc;

use tstream_state::{StateResult, Value};
use tstream_stream::operator::{AccessMode, ReadWriteSet, StateRef};

use crate::blotter::{BlotterHandle, EventBlotter};
use crate::operation::{AccessType, OpCtx, OpFunc, Operation, INVALID_SLOT};
use crate::Timestamp;

/// The set of state accesses triggered by processing of a single input event
/// at an operator (Definition 1 of the paper).
#[derive(Debug, Clone)]
pub struct StateTransaction {
    /// Timestamp of the triggering event.
    pub ts: Timestamp,
    /// Decomposed operations, in issue order.
    pub ops: Vec<Operation>,
    /// Result carrier shared with the triggering event.
    pub blotter: BlotterHandle,
}

impl StateTransaction {
    /// Transaction length (number of operations), the metric the paper's
    /// workload descriptions use.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the transaction issues no state access at all.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Distinct states touched (targets plus declared dependencies).
    pub fn touched_states(&self) -> Vec<StateRef> {
        let mut v: Vec<StateRef> = self
            .ops
            .iter()
            .flat_map(|op| std::iter::once(op.target).chain(op.dependency))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The read/write set of the transaction, derived from its operations
    /// (dependencies count as reads).  Used by schemes that were not given a
    /// pre-computed set.
    pub fn read_write_set(&self) -> ReadWriteSet {
        let mut set = ReadWriteSet::new();
        for op in &self.ops {
            let mode = if op.is_write() {
                AccessMode::Write
            } else {
                AccessMode::Read
            };
            set.push(op.target, mode);
            if let Some(dep) = op.dependency {
                set.push(dep, AccessMode::Read);
            }
        }
        set
    }

    /// Resolve every operation's target (and dependency) to its record slot
    /// via `slot_for` — typically backed by the slots the router resolved at
    /// ingestion time from the determined read/write set.  `slot_for` returns
    /// [`INVALID_SLOT`] for states it cannot resolve; those operations keep
    /// the keyed-lookup fallback.
    pub fn resolve_slots(&mut self, mut slot_for: impl FnMut(StateRef) -> u32) {
        for op in &mut self.ops {
            op.slot = slot_for(op.target);
            if let Some(dep) = op.dependency {
                op.dep_slot = slot_for(dep);
            }
        }
    }
}

/// Builder used inside an application's `STATE_ACCESS` implementation
/// (Algorithms 2–4 of the paper) to issue the operations of one transaction.
#[derive(Debug)]
pub struct TxnBuilder {
    ts: Timestamp,
    ops: Vec<Operation>,
    /// Shared with every operation as it is issued; its result slots are
    /// sized when the transaction is built and their number is known.
    blotter: BlotterHandle,
}

impl TxnBuilder {
    /// Starts building the transaction for the event with timestamp `ts`.
    pub fn new(ts: Timestamp) -> Self {
        TxnBuilder {
            ts,
            ops: Vec::new(),
            blotter: EventBlotter::unsized_yet(),
        }
    }

    /// Timestamp of the transaction under construction.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// Number of operations issued so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations were issued yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Make room for `additional` more operations at once; worth calling
    /// for a long transaction whose length is known up front.
    pub fn reserve(&mut self, additional: usize) {
        self.ops.reserve_exact(additional);
    }

    /// `READ(table, key)`: read a state; its value becomes available in the
    /// blotter slot with this operation's index.  Returns the slot index.
    pub fn read(&mut self, table: u32, key: u64) -> usize {
        self.issue(table, key, AccessType::Read, None, None)
    }

    /// `WRITE(table, key, v)`: unconditionally overwrite a state.
    pub fn write_value(&mut self, table: u32, key: u64, value: Value) -> usize {
        let func = Some(OpFunc::Const(value));
        self.issue(table, key, AccessType::Write, None, func)
    }

    /// `WRITE(table, key, Fun, CFun)`: overwrite a state with a computed
    /// value; `dependency` (if any) names the state the function may consult
    /// — a cross-chain data dependency under TStream.
    pub fn write_with(
        &mut self,
        table: u32,
        key: u64,
        dependency: Option<StateRef>,
        func: impl Fn(&OpCtx<'_>) -> StateResult<Value> + Send + Sync + 'static,
    ) -> usize {
        let func = Some(OpFunc::Dyn(Arc::new(func)));
        self.issue(table, key, AccessType::Write, dependency, func)
    }

    /// `READ_MODIFY(table, key, Fun, CFun)`: read-modify-write a state; the
    /// produced value is also recorded in the blotter.
    pub fn read_modify(
        &mut self,
        table: u32,
        key: u64,
        dependency: Option<StateRef>,
        func: impl Fn(&OpCtx<'_>) -> StateResult<Value> + Send + Sync + 'static,
    ) -> usize {
        let func = Some(OpFunc::Dyn(Arc::new(func)));
        self.issue(table, key, AccessType::ReadModify, dependency, func)
    }

    fn issue(
        &mut self,
        table: u32,
        key: u64,
        access: AccessType,
        dependency: Option<StateRef>,
        func: Option<OpFunc>,
    ) -> usize {
        let op_index = self.ops.len();
        self.ops.push(Operation {
            ts: self.ts,
            op_index: op_index as u32,
            target: StateRef::new(table, key),
            slot: INVALID_SLOT,
            access,
            dependency,
            dep_slot: INVALID_SLOT,
            func,
            blotter: self.blotter.clone(),
        });
        op_index
    }

    /// Finish building: size the blotter (one result slot per operation)
    /// and produce the transaction.
    pub fn build(self) -> (StateTransaction, BlotterHandle) {
        self.blotter.size(self.ops.len());
        let txn = StateTransaction {
            ts: self.ts,
            ops: self.ops,
            blotter: self.blotter.clone(),
        };
        (txn, self.blotter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_op_indices_in_issue_order() {
        let mut b = TxnBuilder::new(9);
        assert!(b.is_empty());
        let r0 = b.read(0, 1);
        let r1 = b.write_value(1, 2, Value::Long(5));
        let r2 = b.read_modify(0, 3, None, |ctx| {
            Ok(Value::Long(ctx.current.as_long()? + 1))
        });
        assert_eq!((r0, r1, r2), (0, 1, 2));
        assert_eq!(b.len(), 3);
        let (txn, blotter) = b.build();
        assert_eq!(txn.ts, 9);
        assert_eq!(txn.len(), 3);
        assert_eq!(blotter.slots(), 3);
        assert_eq!(txn.ops[1].access, AccessType::Write);
        assert_eq!(txn.ops[2].access, AccessType::ReadModify);
    }

    #[test]
    fn touched_states_include_dependencies() {
        let mut b = TxnBuilder::new(0);
        b.write_with(1, 10, Some(StateRef::new(0, 20)), |ctx| {
            Ok(ctx.current.clone())
        });
        let (txn, _) = b.build();
        let touched = txn.touched_states();
        assert!(touched.contains(&StateRef::new(1, 10)));
        assert!(touched.contains(&StateRef::new(0, 20)));
    }

    #[test]
    fn derived_read_write_set_classifies_accesses() {
        let mut b = TxnBuilder::new(0);
        b.read(0, 1);
        b.write_value(0, 2, Value::Long(1));
        b.write_with(1, 3, Some(StateRef::new(0, 1)), |_| Ok(Value::Long(0)));
        let (txn, _) = b.build();
        let set = txn.read_write_set();
        assert_eq!(set.write_set().len(), 2);
        assert!(set.read_set().contains(&StateRef::new(0, 1)));
    }

    #[test]
    fn empty_transaction_is_allowed() {
        let (txn, blotter) = TxnBuilder::new(3).build();
        assert!(txn.is_empty());
        assert_eq!(blotter.slots(), 0);
        assert!(txn.touched_states().is_empty());
    }

    #[test]
    fn write_value_produces_constant() {
        let mut b = TxnBuilder::new(0);
        b.write_value(0, 0, Value::Long(77));
        let (txn, _) = b.build();
        let out = txn.ops[0].evaluate(&Value::Long(1), None).unwrap();
        assert_eq!(out, Some(Value::Long(77)));
    }
}
