//! The EventBlotter: the data bridge between state access and post-processing.
//!
//! The paper introduces the EventBlotter (Section IV-B.1) as the thread-local
//! auxiliary structure that tracks the parameters and results of a postponed
//! transaction.  In this reproduction it is also the result carrier for the
//! eager schemes, so post-processing is identical under every scheme.
//!
//! Under TStream the operations of one transaction can be evaluated by
//! *different* threads (they live in different operation chains), so result
//! slots are lock-free one-shot cells: every operation writes only its own
//! slot.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use tstream_state::Value;

/// Shared handle to an [`EventBlotter`].
pub type BlotterHandle = Arc<EventBlotter>;

/// Per-event result carrier.
#[derive(Debug)]
pub struct EventBlotter {
    /// One result slot per operation of the transaction, indexed by the
    /// operation's index within the transaction.  Slots are independent
    /// one-shot cells (an operation only ever writes its own slot), but they
    /// can be cleared wholesale by [`EventBlotter::reset`] when the engine
    /// re-executes a transaction after a multi-write abort.  Sized once: by
    /// `new`, or — for the blotter a `TxnBuilder` hands to operations while it
    /// is still counting them — when the transaction is built.
    results: OnceLock<Box<[Mutex<Option<Value>>]>>,
    aborted: AtomicBool,
    abort_reason: Mutex<Option<String>>,
}

impl EventBlotter {
    /// Creates a blotter with `ops` result slots and returns a shared handle.
    pub fn new(ops: usize) -> BlotterHandle {
        let blotter = Self::unsized_yet();
        blotter.size(ops);
        blotter
    }

    /// A blotter whose slot count is not known yet (zero until [`Self::size`]).
    pub(crate) fn unsized_yet() -> BlotterHandle {
        Arc::new(EventBlotter {
            results: OnceLock::new(),
            aborted: AtomicBool::new(false),
            abort_reason: Mutex::new(None),
        })
    }

    /// Give an [`Self::unsized_yet`] blotter its `ops` result slots.
    pub(crate) fn size(&self, ops: usize) {
        let sized = self
            .results
            .set((0..ops).map(|_| Mutex::new(None)).collect());
        debug_assert!(sized.is_ok(), "a blotter is sized once");
    }

    fn results(&self) -> &[Mutex<Option<Value>>] {
        self.results.get().map_or(&[], |slots| slots)
    }

    /// Number of result slots.
    pub fn slots(&self) -> usize {
        self.results().len()
    }

    /// Record the result of operation `op_index`.  The first write wins;
    /// subsequent writes are ignored (an operation is evaluated exactly once
    /// per committed transaction, retries after aborts keep the first value
    /// unless the slot was [`EventBlotter::reset`] in between).
    pub fn record(&self, op_index: usize, value: Value) {
        if let Some(slot) = self.results().get(op_index) {
            let mut slot = slot.lock();
            if slot.is_none() {
                *slot = Some(value);
            }
        }
    }

    /// Read the result of operation `op_index`, if it was recorded.
    pub fn result(&self, op_index: usize) -> Option<Value> {
        self.with_result(op_index, Value::clone)
    }

    /// Look at the result of operation `op_index` in place, if it was
    /// recorded — for readers that do not keep the value (a clone of a
    /// `Value::Str` is a refcount round-trip on a line the writer may own).
    pub fn with_result<R>(&self, op_index: usize, f: impl FnOnce(&Value) -> R) -> Option<R> {
        self.results()
            .get(op_index)
            .and_then(|slot| slot.lock().as_ref().map(f))
    }

    /// Clear every result slot and the abort flag.
    ///
    /// Used by the engine before *re-executing* a transaction that a
    /// multi-write abort reached (Section IV-F): the replay re-evaluates it
    /// against restored state, so the results and abort decision recorded by
    /// the first pass must be discarded.
    pub fn reset(&self) {
        for slot in self.results() {
            *slot.lock() = None;
        }
        self.aborted.store(false, Ordering::Release);
        *self.abort_reason.lock() = None;
    }

    /// Read the result of operation `op_index` as a long, defaulting to 0.
    pub fn result_long(&self, op_index: usize) -> i64 {
        self.result(op_index)
            .and_then(|v| v.as_long().ok())
            .unwrap_or(0)
    }

    /// Read the result of operation `op_index` as a double, defaulting to 0.
    pub fn result_double(&self, op_index: usize) -> f64 {
        self.result(op_index)
            .and_then(|v| v.as_double().ok())
            .unwrap_or(0.0)
    }

    /// Mark the transaction aborted; the first reason sticks.
    pub fn mark_aborted(&self, reason: impl Into<String>) {
        if !self.aborted.swap(true, Ordering::AcqRel) {
            *self.abort_reason.lock() = Some(reason.into());
        }
    }

    /// Whether the transaction was aborted.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Abort reason, if aborted.
    pub fn abort_reason(&self) -> Option<String> {
        self.abort_reason.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_results() {
        let b = EventBlotter::new(3);
        assert_eq!(b.slots(), 3);
        b.record(0, Value::Long(7));
        b.record(2, Value::Double(1.5));
        assert_eq!(b.result(0), Some(Value::Long(7)));
        assert_eq!(b.result(1), None);
        assert_eq!(b.with_result(0, |v| v.as_long().unwrap()), Some(7));
        assert_eq!(b.with_result(1, |_| ()), None);
        assert_eq!(b.result_long(0), 7);
        assert_eq!(b.result_double(2), 1.5);
        assert_eq!(b.result_long(1), 0, "missing results default to zero");
    }

    #[test]
    fn first_write_wins() {
        let b = EventBlotter::new(1);
        b.record(0, Value::Long(1));
        b.record(0, Value::Long(2));
        assert_eq!(b.result_long(0), 1);
    }

    #[test]
    fn out_of_range_record_is_ignored() {
        let b = EventBlotter::new(1);
        b.record(5, Value::Long(1));
        assert_eq!(b.result(5), None);
    }

    #[test]
    fn reset_clears_results_and_abort_state() {
        let b = EventBlotter::new(2);
        b.record(0, Value::Long(1));
        b.mark_aborted("first pass failed");
        b.reset();
        assert_eq!(b.result(0), None);
        assert!(!b.is_aborted());
        assert_eq!(b.abort_reason(), None);
        // After a reset the slots accept fresh values again.
        b.record(0, Value::Long(2));
        assert_eq!(b.result_long(0), 2);
    }

    #[test]
    fn abort_flag_and_reason() {
        let b = EventBlotter::new(0);
        assert!(!b.is_aborted());
        b.mark_aborted("insufficient balance");
        b.mark_aborted("second reason ignored");
        assert!(b.is_aborted());
        assert_eq!(b.abort_reason().unwrap(), "insufficient balance");
    }

    #[test]
    fn concurrent_slot_writes_are_safe() {
        let b = EventBlotter::new(64);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let b = &b;
                s.spawn(move || {
                    for i in (t..64).step_by(8) {
                        b.record(i, Value::Long(i as i64));
                    }
                });
            }
        });
        for i in 0..64 {
            assert_eq!(b.result_long(i), i as i64);
        }
    }
}
