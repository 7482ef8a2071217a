//! The lock-free metrics hub.
//!
//! One [`MetricsHub`] is created per engine and shared (behind an `Arc`) by
//! every runtime layer.  All series are registered once as plain struct
//! fields — there is no name → slot map to hash into — and every hot-path
//! update is a relaxed atomic `fetch_add` / `store`: no locks, no
//! allocation, repolint-compatible.  When the hub is built from
//! [`crate::ObsConfig::disabled`], every recording method returns after one
//! predictable branch so the disabled engine measures the true cost of the
//! instrumentation (the benchmark's `obs.overhead_frac`).
//!
//! Series are grouped by runtime layer:
//!
//! | prefix                | layer                                       |
//! |-----------------------|---------------------------------------------|
//! | `tstream_ingest_*`    | batch formation and staging backpressure    |
//! | `tstream_exec_*`      | executor pool, restructuring, barriers      |
//! | `tstream_wal_*`       | durability: WAL, group commit, checkpoints  |
//! | `tstream_session_*`   | per-engine session gauges                   |
//! | `tstream_obs_*`       | the observability layer itself              |

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::hist::{AtomicHistogram, HistogramSummary};

/// A monotonically increasing counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (relaxed atomics).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increment (for population-style gauges such as open sessions).
    #[inline]
    pub fn rise(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement, saturating at zero.
    #[inline]
    pub fn fall(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The per-engine metrics hub.  All counters are cumulative over the
/// engine's lifetime (across sessions and runs).
#[derive(Debug, Default)]
pub struct MetricsHub {
    enabled: bool,

    // --- ingestion -----------------------------------------------------
    ingest_events: Counter,
    ingest_batches: Counter,
    ingest_replayed_batches: Counter,
    ingest_backpressure_waits: Counter,
    ingest_backpressure_wait_ns: Counter,

    // --- execution -----------------------------------------------------
    exec_batches: Counter,
    exec_fast_path_batches: Counter,
    exec_restructured_batches: Counter,
    exec_chains_built: Counter,
    exec_chains_recycled: Counter,
    exec_aborts_replayed: Counter,
    exec_replayed_transactions: Counter,
    exec_serial_replays: Counter,
    exec_committed: Counter,
    exec_rejected: Counter,
    exec_barrier_waits: Counter,
    exec_barrier_wait_ns: AtomicHistogram,

    // --- durability ----------------------------------------------------
    wal_bytes: Counter,
    wal_windows: Counter,
    wal_fsyncs: Counter,
    wal_fsync_ns: Counter,
    wal_seals: Counter,
    wal_checkpoints: Counter,
    wal_checkpoint_failures: Counter,
    wal_truncated_segments: Counter,

    // --- replication ---------------------------------------------------
    replica_shipped_bytes: Counter,
    replica_divergence_total: Counter,
    replica_lag_epochs: Gauge,

    // --- sessions ------------------------------------------------------
    session_open: Gauge,
    session_staged_depth: Gauge,
    session_punctuation_interval: Gauge,
}

/// A point-in-time copy of every hub series, plus the flight-recorder and
/// post-mortem counters the owning [`crate::Obs`] fills in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror the series catalogue above
pub struct MetricsSnapshot {
    pub ingest_events: u64,
    pub ingest_batches: u64,
    pub ingest_replayed_batches: u64,
    pub ingest_backpressure_waits: u64,
    pub ingest_backpressure_wait_ns: u64,
    pub exec_batches: u64,
    pub exec_fast_path_batches: u64,
    pub exec_restructured_batches: u64,
    pub exec_chains_built: u64,
    pub exec_chains_recycled: u64,
    pub exec_aborts_replayed: u64,
    pub exec_replayed_transactions: u64,
    pub exec_serial_replays: u64,
    pub exec_committed: u64,
    pub exec_rejected: u64,
    pub exec_barrier_waits: u64,
    pub exec_barrier_wait: HistogramSummary,
    pub wal_bytes: u64,
    pub wal_windows: u64,
    pub wal_fsyncs: u64,
    pub wal_fsync_ns: u64,
    pub wal_seals: u64,
    pub wal_checkpoints: u64,
    pub wal_checkpoint_failures: u64,
    pub wal_truncated_segments: u64,
    pub replica_shipped_bytes: u64,
    pub replica_divergence_total: u64,
    pub replica_lag_epochs: u64,
    pub session_open: u64,
    pub session_staged_depth: u64,
    pub session_punctuation_interval: u64,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub postmortems: u64,
}

impl MetricsHub {
    /// A hub recording every update.
    pub fn new(enabled: bool) -> Self {
        MetricsHub {
            enabled,
            ..MetricsHub::default()
        }
    }

    /// Whether recording methods do anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    // --- ingestion -----------------------------------------------------

    /// A punctuation batch completed formation: `events` events in, one
    /// batch formed, optionally tainted as a recovery replay.
    #[inline]
    pub fn batch_ingested(&self, events: u64, replayed: bool) {
        if !self.enabled {
            return;
        }
        self.ingest_events.add(events);
        self.ingest_batches.incr();
        if replayed {
            self.ingest_replayed_batches.incr();
        }
    }

    /// The ingestion thread blocked on a full staging queue.
    #[inline]
    pub fn backpressure_wait(&self, wait: Duration) {
        if !self.enabled {
            return;
        }
        self.ingest_backpressure_waits.incr();
        self.ingest_backpressure_wait_ns
            .add(wait.as_nanos().min(u64::MAX as u128) as u64);
    }

    // --- execution -----------------------------------------------------

    /// A batch entered execution (any scheme).
    #[inline]
    pub fn batch_executed(&self) {
        if self.enabled {
            self.exec_batches.incr();
        }
    }

    /// A batch filed nothing: every transaction ran directly.
    #[inline]
    pub fn fast_path_batch(&self) {
        if self.enabled {
            self.exec_fast_path_batches.incr();
        }
    }

    /// A batch was decomposed into `chains` operation chains.
    #[inline]
    pub fn restructured_batch(&self, chains: u64) {
        if !self.enabled {
            return;
        }
        self.exec_restructured_batches.incr();
        self.exec_chains_built.add(chains);
    }

    /// `n` operation-chain arenas were recycled back into their pools.
    #[inline]
    pub fn chains_recycled(&self, n: u64) {
        if self.enabled {
            self.exec_chains_recycled.add(n);
        }
    }

    /// A closure replay re-executed `transactions` transactions, of which
    /// `aborted` aborted (first-pass aborts the replay leaves standing are
    /// not counted).
    #[inline]
    pub fn aborts_replayed(&self, transactions: u64, aborted: u64) {
        if !self.enabled {
            return;
        }
        self.exec_serial_replays.incr();
        self.exec_replayed_transactions.add(transactions);
        self.exec_aborts_replayed.add(aborted);
    }

    /// A batch published its results: per-batch committed/rejected deltas.
    #[inline]
    pub fn batch_published(&self, committed: u64, rejected: u64) {
        if !self.enabled {
            return;
        }
        self.exec_committed.add(committed);
        self.exec_rejected.add(rejected);
    }

    /// One executor finished one barrier round after waiting `wait`.
    #[inline]
    pub fn barrier_wait(&self, wait: Duration) {
        if !self.enabled {
            return;
        }
        self.exec_barrier_waits.incr();
        self.exec_barrier_wait_ns
            .record(wait.as_nanos().min(u64::MAX as u128) as u64);
    }

    // --- durability ----------------------------------------------------

    /// Fold a delta of WAL activity (drained from the durable log at batch
    /// boundaries) into the durability series.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn wal_activity(
        &self,
        bytes: u64,
        windows: u64,
        fsyncs: u64,
        fsync_ns: u64,
        seals: u64,
        truncated_segments: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.wal_bytes.add(bytes);
        self.wal_windows.add(windows);
        self.wal_fsyncs.add(fsyncs);
        self.wal_fsync_ns.add(fsync_ns);
        self.wal_seals.add(seals);
        self.wal_truncated_segments.add(truncated_segments);
    }

    /// A checkpoint completed.
    #[inline]
    pub fn checkpoint(&self) {
        if self.enabled {
            self.wal_checkpoints.incr();
        }
    }

    /// A due checkpoint could not be written; the WAL keeps the batch.
    #[inline]
    pub fn checkpoint_failed(&self) {
        if self.enabled {
            self.wal_checkpoint_failures.incr();
        }
    }

    // --- replication ---------------------------------------------------

    /// `bytes` of replication payload (segments, checkpoints, metadata)
    /// were handed to the ship transport.
    #[inline]
    pub fn replica_shipped(&self, bytes: u64) {
        if self.enabled {
            self.replica_shipped_bytes.add(bytes);
        }
    }

    /// Current replication lag in epochs (primary's newest executed epoch
    /// minus the newest standby-acked epoch).
    #[inline]
    pub fn replica_lag(&self, epochs: u64) {
        if self.enabled {
            self.replica_lag_epochs.set(epochs);
        }
    }

    /// A state-root divergence between primary and standby was detected.
    #[inline]
    pub fn replica_divergence(&self) {
        if self.enabled {
            self.replica_divergence_total.incr();
        }
    }

    // --- sessions ------------------------------------------------------

    /// A session opened.
    #[inline]
    pub fn session_opened(&self) {
        if self.enabled {
            self.session_open.rise();
        }
    }

    /// A session closed.
    #[inline]
    pub fn session_closed(&self) {
        if self.enabled {
            self.session_open.fall();
        }
    }

    /// Batches staged but not yet retired for the most recently observed
    /// session (a depth gauge, sampled at dispatch time).
    #[inline]
    pub fn staged_depth(&self, depth: u64) {
        if self.enabled {
            self.session_staged_depth.set(depth);
        }
    }

    /// Current punctuation interval (events per batch; follows adaptive
    /// retuning).
    #[inline]
    pub fn punctuation_interval(&self, interval: u64) {
        if self.enabled {
            self.session_punctuation_interval.set(interval);
        }
    }

    // --- exposition ----------------------------------------------------

    /// Copy every series.  The flight-recorder / post-mortem fields are
    /// zero here; [`crate::Obs::metrics_snapshot`] fills them in.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            ingest_events: self.ingest_events.get(),
            ingest_batches: self.ingest_batches.get(),
            ingest_replayed_batches: self.ingest_replayed_batches.get(),
            ingest_backpressure_waits: self.ingest_backpressure_waits.get(),
            ingest_backpressure_wait_ns: self.ingest_backpressure_wait_ns.get(),
            exec_batches: self.exec_batches.get(),
            exec_fast_path_batches: self.exec_fast_path_batches.get(),
            exec_restructured_batches: self.exec_restructured_batches.get(),
            exec_chains_built: self.exec_chains_built.get(),
            exec_chains_recycled: self.exec_chains_recycled.get(),
            exec_aborts_replayed: self.exec_aborts_replayed.get(),
            exec_replayed_transactions: self.exec_replayed_transactions.get(),
            exec_serial_replays: self.exec_serial_replays.get(),
            exec_committed: self.exec_committed.get(),
            exec_rejected: self.exec_rejected.get(),
            exec_barrier_waits: self.exec_barrier_waits.get(),
            exec_barrier_wait: self.exec_barrier_wait_ns.summary(),
            wal_bytes: self.wal_bytes.get(),
            wal_windows: self.wal_windows.get(),
            wal_fsyncs: self.wal_fsyncs.get(),
            wal_fsync_ns: self.wal_fsync_ns.get(),
            wal_seals: self.wal_seals.get(),
            wal_checkpoints: self.wal_checkpoints.get(),
            wal_checkpoint_failures: self.wal_checkpoint_failures.get(),
            wal_truncated_segments: self.wal_truncated_segments.get(),
            replica_shipped_bytes: self.replica_shipped_bytes.get(),
            replica_divergence_total: self.replica_divergence_total.get(),
            replica_lag_epochs: self.replica_lag_epochs.get(),
            session_open: self.session_open.get(),
            session_staged_depth: self.session_staged_depth.get(),
            session_punctuation_interval: self.session_punctuation_interval.get(),
            trace_events: 0,
            trace_dropped: 0,
            postmortems: 0,
        }
    }
}

impl MetricsSnapshot {
    /// Render in Prometheus text exposition format.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };
        counter(
            "tstream_ingest_events_total",
            "Events accepted by batch formation",
            self.ingest_events,
        );
        counter(
            "tstream_ingest_batches_total",
            "Punctuation batches formed",
            self.ingest_batches,
        );
        counter(
            "tstream_ingest_replayed_batches_total",
            "Batches tainted as recovery replays",
            self.ingest_replayed_batches,
        );
        counter(
            "tstream_ingest_backpressure_waits_total",
            "Times ingestion blocked on a full staging queue",
            self.ingest_backpressure_waits,
        );
        counter(
            "tstream_ingest_backpressure_wait_ns_total",
            "Nanoseconds ingestion spent blocked on staging backpressure",
            self.ingest_backpressure_wait_ns,
        );
        counter(
            "tstream_exec_batches_total",
            "Batches executed (all schemes)",
            self.exec_batches,
        );
        counter(
            "tstream_exec_fast_path_batches_total",
            "Conflict-free batches executed without restructuring",
            self.exec_fast_path_batches,
        );
        counter(
            "tstream_exec_restructured_batches_total",
            "Batches decomposed into operation chains",
            self.exec_restructured_batches,
        );
        counter(
            "tstream_exec_chains_built_total",
            "Operation chains built by restructuring",
            self.exec_chains_built,
        );
        counter(
            "tstream_exec_chains_recycled_total",
            "Operation-chain arenas recycled into pools",
            self.exec_chains_recycled,
        );
        counter(
            "tstream_exec_aborts_replayed_total",
            "Re-executed transactions that aborted in a closure replay",
            self.exec_aborts_replayed,
        );
        counter(
            "tstream_exec_replayed_transactions_total",
            "Transactions re-executed by a closure replay",
            self.exec_replayed_transactions,
        );
        counter(
            "tstream_exec_serial_replays_total",
            "Serial replay rounds run by the leader",
            self.exec_serial_replays,
        );
        counter(
            "tstream_exec_committed_total",
            "Transactions committed",
            self.exec_committed,
        );
        counter(
            "tstream_exec_rejected_total",
            "Transactions rejected by application logic",
            self.exec_rejected,
        );
        counter(
            "tstream_exec_barrier_waits_total",
            "Barrier rounds completed across all executors",
            self.exec_barrier_waits,
        );
        counter(
            "tstream_wal_bytes_total",
            "Bytes appended to the write-ahead log",
            self.wal_bytes,
        );
        counter(
            "tstream_wal_windows_total",
            "Group-commit windows flushed",
            self.wal_windows,
        );
        counter(
            "tstream_wal_fsyncs_total",
            "fsync calls issued by the WAL",
            self.wal_fsyncs,
        );
        counter(
            "tstream_wal_fsync_ns_total",
            "Nanoseconds spent in WAL fsync",
            self.wal_fsync_ns,
        );
        counter(
            "tstream_wal_seals_total",
            "WAL segments sealed at punctuation boundaries",
            self.wal_seals,
        );
        counter(
            "tstream_wal_checkpoints_total",
            "Checkpoints written",
            self.wal_checkpoints,
        );
        counter(
            "tstream_wal_checkpoint_failures_total",
            "Due checkpoints that could not be written (WAL left untruncated)",
            self.wal_checkpoint_failures,
        );
        counter(
            "tstream_wal_truncated_segments_total",
            "Sealed WAL segments truncated after checkpoints",
            self.wal_truncated_segments,
        );
        counter(
            "tstream_replica_shipped_bytes",
            "Replication payload bytes handed to the ship transport",
            self.replica_shipped_bytes,
        );
        counter(
            "tstream_replica_divergence_total",
            "State-root divergences detected between primary and standby",
            self.replica_divergence_total,
        );
        counter(
            "tstream_obs_trace_events_total",
            "Flight-recorder events recorded",
            self.trace_events,
        );
        counter(
            "tstream_obs_trace_dropped_total",
            "Flight-recorder events overwritten before draining",
            self.trace_dropped,
        );
        counter(
            "tstream_obs_postmortems_total",
            "Post-mortem dumps emitted",
            self.postmortems,
        );
        let mut gauge = |name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        };
        gauge(
            "tstream_replica_lag_epochs",
            "Epochs the standby trails the primary by",
            self.replica_lag_epochs,
        );
        gauge(
            "tstream_session_open",
            "Sessions currently open on the engine",
            self.session_open,
        );
        gauge(
            "tstream_session_staged_depth",
            "Batches staged but not yet retired (last sampled session)",
            self.session_staged_depth,
        );
        gauge(
            "tstream_session_punctuation_interval",
            "Current punctuation interval in events",
            self.session_punctuation_interval,
        );
        let h = &self.exec_barrier_wait;
        let name = "tstream_exec_barrier_wait_ns";
        let _ = writeln!(out, "# HELP {name} Barrier wait time per executor round");
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", h.p50);
        let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", h.p99);
        let _ = writeln!(out, "{name}{{quantile=\"0.999\"}} {}", h.p999);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
        out
    }

    /// Render as a flat JSON object (hand-rolled; no serde in the tree).
    pub fn to_json(&self) -> String {
        let h = &self.exec_barrier_wait;
        format!(
            concat!(
                "{{\"ingest_events\":{},\"ingest_batches\":{},",
                "\"ingest_replayed_batches\":{},\"ingest_backpressure_waits\":{},",
                "\"ingest_backpressure_wait_ns\":{},\"exec_batches\":{},",
                "\"exec_fast_path_batches\":{},\"exec_restructured_batches\":{},",
                "\"exec_chains_built\":{},\"exec_chains_recycled\":{},",
                "\"exec_aborts_replayed\":{},\"exec_replayed_transactions\":{},",
                "\"exec_serial_replays\":{},",
                "\"exec_committed\":{},\"exec_rejected\":{},",
                "\"exec_barrier_waits\":{},\"exec_barrier_wait_ns\":{{",
                "\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p99\":{},\"p999\":{}}},",
                "\"wal_bytes\":{},\"wal_windows\":{},\"wal_fsyncs\":{},",
                "\"wal_fsync_ns\":{},\"wal_seals\":{},\"wal_checkpoints\":{},",
                "\"wal_checkpoint_failures\":{},",
                "\"wal_truncated_segments\":{},\"replica_shipped_bytes\":{},",
                "\"replica_divergence_total\":{},\"replica_lag_epochs\":{},",
                "\"session_open\":{},",
                "\"session_staged_depth\":{},\"session_punctuation_interval\":{},",
                "\"trace_events\":{},\"trace_dropped\":{},\"postmortems\":{}}}",
            ),
            self.ingest_events,
            self.ingest_batches,
            self.ingest_replayed_batches,
            self.ingest_backpressure_waits,
            self.ingest_backpressure_wait_ns,
            self.exec_batches,
            self.exec_fast_path_batches,
            self.exec_restructured_batches,
            self.exec_chains_built,
            self.exec_chains_recycled,
            self.exec_aborts_replayed,
            self.exec_replayed_transactions,
            self.exec_serial_replays,
            self.exec_committed,
            self.exec_rejected,
            self.exec_barrier_waits,
            h.count,
            h.sum,
            h.max,
            h.p50,
            h.p99,
            h.p999,
            self.wal_bytes,
            self.wal_windows,
            self.wal_fsyncs,
            self.wal_fsync_ns,
            self.wal_seals,
            self.wal_checkpoints,
            self.wal_checkpoint_failures,
            self.wal_truncated_segments,
            self.replica_shipped_bytes,
            self.replica_divergence_total,
            self.replica_lag_epochs,
            self.session_open,
            self.session_staged_depth,
            self.session_punctuation_interval,
            self.trace_events,
            self.trace_dropped,
            self.postmortems,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let hub = MetricsHub::new(true);
        hub.batch_ingested(64, false);
        hub.batch_ingested(64, true);
        hub.batch_executed();
        hub.fast_path_batch();
        hub.restructured_batch(7);
        hub.chains_recycled(7);
        hub.aborts_replayed(5, 3);
        hub.batch_published(120, 8);
        hub.barrier_wait(Duration::from_micros(5));
        hub.wal_activity(1024, 2, 1, 500, 1, 0);
        hub.checkpoint();
        hub.replica_shipped(2048);
        hub.replica_shipped(100);
        hub.replica_lag(3);
        hub.replica_divergence();
        hub.session_opened();
        hub.staged_depth(4);
        hub.punctuation_interval(64);
        let s = hub.snapshot();
        assert_eq!(s.ingest_events, 128);
        assert_eq!(s.ingest_batches, 2);
        assert_eq!(s.ingest_replayed_batches, 1);
        assert_eq!(s.exec_fast_path_batches, 1);
        assert_eq!(s.exec_chains_built, 7);
        assert_eq!(s.exec_aborts_replayed, 3);
        assert_eq!(s.exec_replayed_transactions, 5);
        assert_eq!(s.exec_committed, 120);
        assert_eq!(s.exec_barrier_waits, 1);
        assert_eq!(s.exec_barrier_wait.count, 1);
        assert_eq!(s.wal_bytes, 1024);
        assert_eq!(s.wal_checkpoints, 1);
        assert_eq!(s.replica_shipped_bytes, 2148);
        assert_eq!(s.replica_lag_epochs, 3);
        assert_eq!(s.replica_divergence_total, 1);
        assert_eq!(s.session_open, 1);
        assert_eq!(s.session_staged_depth, 4);
        hub.session_closed();
        assert_eq!(hub.snapshot().session_open, 0);
        hub.session_closed();
        assert_eq!(hub.snapshot().session_open, 0, "gauge saturates at zero");
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let hub = MetricsHub::new(false);
        hub.batch_ingested(64, false);
        hub.batch_executed();
        hub.barrier_wait(Duration::from_micros(5));
        hub.wal_activity(1024, 2, 1, 500, 1, 0);
        hub.replica_shipped(2048);
        hub.replica_lag(3);
        hub.replica_divergence();
        hub.session_opened();
        assert_eq!(hub.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn prometheus_text_has_all_series() {
        let hub = MetricsHub::new(true);
        hub.batch_ingested(10, false);
        let text = hub.snapshot().to_prometheus_text();
        let names: std::collections::BTreeSet<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .filter_map(|l| l.split([' ', '{']).next())
            .collect();
        assert!(
            names.len() >= 20,
            "expected at least 20 distinct series, got {}: {names:?}",
            names.len()
        );
        assert!(text.contains("tstream_ingest_events_total 10"));
        assert!(text.contains("# TYPE tstream_session_open gauge"));
        assert!(text.contains("tstream_replica_shipped_bytes 0"));
        assert!(text.contains("tstream_replica_divergence_total 0"));
        assert!(text.contains("# TYPE tstream_replica_lag_epochs gauge"));
        assert!(text.contains("# TYPE tstream_exec_barrier_wait_ns summary"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let hub = MetricsHub::new(true);
        hub.batch_ingested(5, false);
        let json = hub.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"ingest_events\":5"));
        assert!(json.contains("\"exec_barrier_wait_ns\":{"));
        assert!(json.contains("\"replica_shipped_bytes\":0"));
        assert!(json.contains("\"replica_lag_epochs\":0"));
        assert!(json.contains("\"replica_divergence_total\":0"));
    }
}
