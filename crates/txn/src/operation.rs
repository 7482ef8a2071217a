//! Decomposed state-access operations.
//!
//! TStream "conceptually decomposes each state transaction into multiple
//! operations, each targeting one state" (Section III, D2).  The same
//! decomposition is used by every scheme in this reproduction: one invocation
//! of the system-provided APIs `READ`, `WRITE` or `READ_MODIFY` (Table III)
//! becomes one [`Operation`].

use std::fmt;
use std::sync::Arc;

use tstream_state::{StateError, StateResult, Value};
use tstream_stream::operator::StateRef;

use crate::blotter::BlotterHandle;
use crate::Timestamp;

/// The kind of access an operation performs (Table III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// `READ(key)` — read the state and store the result in the blotter.
    Read,
    /// `WRITE(key, value, CFun)` — overwrite the state; the new value is
    /// produced by the operation's function (which may consult a dependency
    /// state and may reject the update).
    Write,
    /// `READ_MODIFY(key, Fun, CFun)` — read the current value and replace it
    /// with `Fun(current)`; the produced value is also stored in the blotter.
    ReadModify,
}

impl AccessType {
    /// Whether the operation writes its target state.
    pub fn is_write(&self) -> bool {
        !matches!(self, AccessType::Read)
    }
}

/// Evaluation context handed to an operation's user function.
#[derive(Debug)]
pub struct OpCtx<'a> {
    /// Current value of the target state, visible at the operation's
    /// timestamp.
    pub current: &'a Value,
    /// Value of the dependency state (if the operation declared one), visible
    /// at the operation's timestamp.
    pub dependency: Option<&'a Value>,
    /// Timestamp of the enclosing transaction.
    pub ts: Timestamp,
}

/// A user function of a WRITE / READ_MODIFY operation.
pub type UserFn = dyn Fn(&OpCtx<'_>) -> StateResult<Value> + Send + Sync;

/// How a WRITE / READ_MODIFY operation produces the value it installs.
#[derive(Clone)]
pub enum OpFunc {
    /// `WRITE(key, v)`: install `v` whatever the state holds.  Carried
    /// inline, so issuing the operation allocates nothing.
    Const(Value),
    /// A user function: computes the new value (possibly from the current
    /// value and a dependency) or signals a consistency violation, which
    /// aborts the transaction.
    Dyn(Arc<UserFn>),
}

/// Sentinel for an operation whose target (or dependency) has not been
/// resolved to a record slot.  Execution falls back to the keyed index
/// lookup, so an unresolved slot is never wrong — only slower.
pub const INVALID_SLOT: u32 = u32::MAX;

/// A single decomposed state access.
#[derive(Clone)]
pub struct Operation {
    /// Timestamp of the transaction this operation belongs to.
    pub ts: Timestamp,
    /// Index of this operation within its transaction (also the blotter slot
    /// its result lands in).
    pub op_index: u32,
    /// Target state.
    pub target: StateRef,
    /// Record slot of the target state, resolved once at routing time on the
    /// ingestion thread (the determined read/write set makes this possible —
    /// feature F2).  [`INVALID_SLOT`] when unresolved; execution then falls
    /// back to the keyed index lookup.
    pub slot: u32,
    /// Kind of access.
    pub access: AccessType,
    /// State this operation's function additionally reads (a cross-state
    /// data dependency, e.g. SL's transfer reading the source account while
    /// crediting the destination).
    pub dependency: Option<StateRef>,
    /// Record slot of the dependency state; [`INVALID_SLOT`] when absent or
    /// unresolved.
    pub dep_slot: u32,
    /// New-value function for writes; `None` for plain reads.
    pub func: Option<OpFunc>,
    /// Result carrier of the triggering event.
    pub blotter: BlotterHandle,
}

impl fmt::Debug for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Operation")
            .field("ts", &self.ts)
            .field("op_index", &self.op_index)
            .field("target", &self.target)
            .field("access", &self.access)
            .field("dependency", &self.dependency)
            .field("has_func", &self.func.is_some())
            .finish()
    }
}

impl Operation {
    /// Evaluate the operation against explicit current/dependency values and
    /// return the value to install (for writes) — `None` for plain reads.
    ///
    /// Recording into the blotter: reads record the current value,
    /// read-modifies record the newly produced value, writes record nothing.
    /// Consistency violations are returned as errors; the caller decides how
    /// to abort.
    pub fn evaluate(
        &self,
        current: &Value,
        dependency: Option<&Value>,
    ) -> StateResult<Option<Value>> {
        match self.access {
            AccessType::Read => {
                self.blotter.record(self.op_index as usize, current.clone());
                Ok(None)
            }
            AccessType::Write | AccessType::ReadModify => {
                let func = self.func.as_ref().ok_or_else(|| {
                    StateError::InvalidDefinition(format!(
                        "write operation {} of txn {} has no function",
                        self.op_index, self.ts
                    ))
                })?;
                let new_value = match func {
                    OpFunc::Const(value) => value.clone(),
                    OpFunc::Dyn(func) => func(&OpCtx {
                        current,
                        dependency,
                        ts: self.ts,
                    })?,
                };
                if self.access == AccessType::ReadModify {
                    self.blotter
                        .record(self.op_index as usize, new_value.clone());
                }
                Ok(Some(new_value))
            }
        }
    }

    /// Whether this operation writes its target.
    pub fn is_write(&self) -> bool {
        self.access.is_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blotter::EventBlotter;

    #[test]
    fn an_operation_stays_within_ninety_six_bytes() {
        // Operations move by value into the chain logs; PR 14 measured 8-10 %
        // of GS throughput from one extra move of an 88-byte operation.
        assert!(std::mem::size_of::<Operation>() <= 96);
    }

    fn read_op(blotter: BlotterHandle) -> Operation {
        Operation {
            ts: 1,
            op_index: 0,
            target: StateRef::new(0, 5),
            slot: INVALID_SLOT,
            access: AccessType::Read,
            dependency: None,
            dep_slot: INVALID_SLOT,
            func: None,
            blotter,
        }
    }

    #[test]
    fn read_records_current_value() {
        let b = EventBlotter::new(1);
        let op = read_op(b.clone());
        let out = op.evaluate(&Value::Long(42), None).unwrap();
        assert_eq!(out, None);
        assert_eq!(b.result_long(0), 42);
    }

    #[test]
    fn read_modify_produces_and_records_new_value() {
        let b = EventBlotter::new(1);
        let op = Operation {
            ts: 2,
            op_index: 0,
            target: StateRef::new(0, 5),
            slot: INVALID_SLOT,
            access: AccessType::ReadModify,
            dependency: None,
            dep_slot: INVALID_SLOT,
            func: Some(OpFunc::Dyn(Arc::new(|ctx: &OpCtx<'_>| {
                Ok(Value::Long(ctx.current.as_long()? + 10))
            }))),
            blotter: b.clone(),
        };
        let out = op.evaluate(&Value::Long(5), None).unwrap();
        assert_eq!(out, Some(Value::Long(15)));
        assert_eq!(b.result_long(0), 15);
    }

    #[test]
    fn write_with_dependency_condition() {
        let b = EventBlotter::new(1);
        let op = Operation {
            ts: 3,
            op_index: 0,
            target: StateRef::new(1, 7),
            slot: INVALID_SLOT,
            access: AccessType::Write,
            dependency: Some(StateRef::new(0, 3)),
            dep_slot: INVALID_SLOT,
            func: Some(OpFunc::Dyn(Arc::new(|ctx: &OpCtx<'_>| {
                let src = ctx.dependency.expect("dependency required").as_long()?;
                if src >= 100 {
                    Ok(Value::Long(ctx.current.as_long()? + 100))
                } else {
                    Err(StateError::ConsistencyViolation(
                        "insufficient balance".into(),
                    ))
                }
            }))),
            blotter: b,
        };
        // Enough balance: the write succeeds.
        let out = op
            .evaluate(&Value::Long(50), Some(&Value::Long(200)))
            .unwrap();
        assert_eq!(out, Some(Value::Long(150)));
        // Not enough: consistency violation bubbles up.
        let err = op
            .evaluate(&Value::Long(50), Some(&Value::Long(10)))
            .unwrap_err();
        assert!(matches!(err, StateError::ConsistencyViolation(_)));
    }

    #[test]
    fn write_without_function_is_invalid() {
        let b = EventBlotter::new(1);
        let op = Operation {
            ts: 1,
            op_index: 0,
            target: StateRef::new(0, 0),
            slot: INVALID_SLOT,
            access: AccessType::Write,
            dependency: None,
            dep_slot: INVALID_SLOT,
            func: None,
            blotter: b,
        };
        assert!(matches!(
            op.evaluate(&Value::Long(0), None),
            Err(StateError::InvalidDefinition(_))
        ));
    }

    #[test]
    fn access_type_write_predicate() {
        assert!(!AccessType::Read.is_write());
        assert!(AccessType::Write.is_write());
        assert!(AccessType::ReadModify.is_write());
    }

    #[test]
    fn debug_format_omits_closures() {
        let b = EventBlotter::new(1);
        let op = read_op(b);
        let s = format!("{op:?}");
        assert!(s.contains("op_index"));
        assert!(s.contains("has_func"));
    }
}
