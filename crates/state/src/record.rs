//! A single keyed state record.

use parking_lot::{Mutex, RwLock};

use crate::lock::{RecordLock, SeqGate};
use crate::value::Value;
use crate::version::VersionChain;
use crate::Timestamp;

/// One application state (e.g. the average speed of one road segment, one
/// account balance, one bidding item).
///
/// A record bundles everything any of the five schemes needs:
///
/// * the committed value (`RwLock<Value>`), the single-version "truth";
/// * a [`VersionChain`] for committed versions (MVLK) or temporary in-batch
///   versions (TStream's dependency handling);
/// * a queued, timestamp-ordered [`RecordLock`] (LOCK / PAT);
/// * a [`SeqGate`] write watermark: the number of writes applied to this
///   record so far — MVLK's `lwm`.  Only MVLK waits on it; TStream's
///   restructured execution waits on its operation chains' own
///   `processed_upto` watermarks instead.
#[derive(Debug)]
pub struct Record {
    value: RwLock<Value>,
    versions: Mutex<VersionChain>,
    lock: RecordLock,
    write_gate: SeqGate,
}

impl Record {
    /// Creates a record with an initial committed value.
    pub fn new(value: Value) -> Self {
        Record {
            value: RwLock::new(value),
            versions: Mutex::new(VersionChain::new()),
            lock: RecordLock::new(),
            write_gate: SeqGate::new(0),
        }
    }

    /// Clone of the committed value.
    pub fn read_committed(&self) -> Value {
        self.value.read().clone()
    }

    /// Apply a closure to the committed value without cloning.
    pub fn with_committed<R>(&self, f: impl FnOnce(&Value) -> R) -> R {
        f(&self.value.read())
    }

    /// Overwrite the committed value, returning the previous one.
    pub fn write_committed(&self, value: Value) -> Value {
        std::mem::replace(&mut *self.value.write(), value)
    }

    /// Mutate the committed value in place.
    pub fn update_committed<R>(&self, f: impl FnOnce(&mut Value) -> R) -> R {
        f(&mut self.value.write())
    }

    /// Read the value visible to a transaction with timestamp `ts`:
    /// the newest retained version strictly older than `ts` if one exists,
    /// otherwise the committed value.
    pub fn read_visible(&self, ts: Timestamp) -> Value {
        let versions = self.versions.lock();
        match versions.visible_before(ts) {
            Some(v) => v.clone(),
            None => {
                drop(versions);
                self.read_committed()
            }
        }
    }

    /// Install a version written by the transaction with timestamp `ts`.
    pub fn install_version(&self, ts: Timestamp, value: Value) {
        self.versions.lock().install(ts, value);
    }

    /// Remove the version installed at exactly `ts` (abort rollback).
    pub fn remove_version(&self, ts: Timestamp) -> Option<Value> {
        self.versions.lock().remove_at(ts)
    }

    /// Number of retained (uncollapsed) versions.
    pub fn version_count(&self) -> usize {
        self.versions.lock().len()
    }

    /// Fold the newest retained version into the committed value and drop the
    /// rest (end-of-batch garbage collection in TStream / commit in MVLK).
    ///
    /// Returns `true` if a version was promoted.
    pub fn collapse_versions(&self) -> bool {
        let latest = self.versions.lock().collapse();
        match latest {
            Some((_, v)) => {
                *self.value.write() = v;
                true
            }
            None => false,
        }
    }

    /// Drop all retained versions without promoting any of them.
    pub fn discard_versions(&self) {
        self.versions.lock().clear();
    }

    /// The record's queued lock (LOCK / PAT schemes).
    pub fn lock(&self) -> &RecordLock {
        &self.lock
    }

    /// The record's write watermark (MVLK's `lwm`).
    pub fn write_gate(&self) -> &SeqGate {
        &self.write_gate
    }

    /// Reset per-run synchronisation state (watermark); used between
    /// benchmark runs so a `StateStore` can be reused.
    pub fn reset_sync(&self) {
        self.write_gate.reset(0);
        self.discard_versions();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_read_write_roundtrip() {
        let rec = Record::new(Value::Long(5));
        assert_eq!(rec.read_committed(), Value::Long(5));
        let prev = rec.write_committed(Value::Long(9));
        assert_eq!(prev, Value::Long(5));
        assert_eq!(rec.read_committed(), Value::Long(9));
        rec.update_committed(|v| {
            if let Value::Long(x) = v {
                *x += 1;
            }
        });
        assert_eq!(rec.read_committed(), Value::Long(10));
    }

    #[test]
    fn visible_read_prefers_versions() {
        let rec = Record::new(Value::Long(0));
        rec.install_version(10, Value::Long(100));
        rec.install_version(20, Value::Long(200));
        assert_eq!(rec.read_visible(5), Value::Long(0), "before all versions");
        assert_eq!(rec.read_visible(15), Value::Long(100));
        assert_eq!(rec.read_visible(25), Value::Long(200));
    }

    #[test]
    fn collapse_promotes_latest_version() {
        let rec = Record::new(Value::Long(0));
        rec.install_version(1, Value::Long(1));
        rec.install_version(2, Value::Long(2));
        assert!(rec.collapse_versions());
        assert_eq!(rec.read_committed(), Value::Long(2));
        assert_eq!(rec.version_count(), 0);
        assert!(!rec.collapse_versions(), "nothing left to promote");
    }

    #[test]
    fn abort_rollback_removes_version() {
        let rec = Record::new(Value::Long(0));
        rec.install_version(3, Value::Long(30));
        assert_eq!(rec.remove_version(3), Some(Value::Long(30)));
        assert_eq!(rec.read_visible(10), Value::Long(0));
    }

    #[test]
    fn reset_sync_clears_gate_and_versions() {
        let rec = Record::new(Value::Long(0));
        rec.write_gate().advance();
        rec.install_version(1, Value::Long(1));
        rec.reset_sync();
        assert_eq!(rec.write_gate().current(), 0);
        assert_eq!(rec.version_count(), 0);
    }
}
