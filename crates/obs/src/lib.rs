//! # tstream-obs
//!
//! The observability layer of the TStream reproduction: a lock-free
//! [`MetricsHub`] (counters, gauges, log-bucketed histograms updated with
//! relaxed atomics), a [`FlightRecorder`] (fixed-capacity per-thread rings
//! of typed trace events, drainable as one merged chronological timeline),
//! and the [`clock`] facade that is the only sanctioned source of
//! `Instant::now()` in the runtime crates.
//!
//! One [`Obs`] instance is created per engine and threaded (behind an
//! `Arc`) through ingestion, execution and durability.  When a barrier
//! poisons or a runtime thread panics, [`Obs::post_mortem`] dumps the
//! recorder's recent history exactly once, so every crash leaves a readable
//! last-N-events timeline instead of a bare re-raised panic.
//!
//! The whole layer can be switched off with [`ObsConfig::disabled`]; every
//! recording call then returns after a single branch, which is what the
//! benchmark's `obs.overhead_frac` measures to keep the hub's overhead
//! honest.

#![warn(missing_docs)]

pub mod clock;
pub mod flight;
pub mod hist;
pub mod metrics;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

pub use clock::Stopwatch;
pub use flight::{FlightRecorder, TraceEvent, TraceKind, DEFAULT_FLIGHT_CAPACITY, NO_BATCH};
pub use hist::{AtomicHistogram, HistogramSummary, LatencyHistogram};
pub use metrics::{Counter, Gauge, MetricsHub, MetricsSnapshot};

/// Observability configuration, carried inside the engine config (`Copy` so
/// the engine config stays `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether the metrics hub and flight recorder record anything.
    pub enabled: bool,
    /// Per-lane flight-recorder ring capacity (events), clamped to ≥ 1.
    pub flight_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

impl ObsConfig {
    /// Observability on, default flight capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything off: recording methods return after one branch.  The
    /// post-mortem path still fires (a crash dump is never optional), but
    /// with an empty timeline.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            flight_capacity: 1,
        }
    }

    /// Builder-style override of the flight-recorder capacity.
    pub fn flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity.max(1);
        self
    }
}

/// The per-engine observability aggregate: metrics hub + flight recorder +
/// the dump-once post-mortem latch.
#[derive(Debug)]
pub struct Obs {
    hub: MetricsHub,
    recorder: FlightRecorder,
    postmortem_fired: AtomicBool,
    postmortems: AtomicU64,
    last_postmortem: Mutex<Option<String>>,
}

impl Obs {
    /// Build the observability state for an engine with `executors`
    /// executor threads (the recorder gets `executors + 2` lanes).
    pub fn new(config: ObsConfig, executors: usize) -> Self {
        Obs {
            hub: MetricsHub::new(config.enabled),
            recorder: FlightRecorder::new(config.enabled, executors, config.flight_capacity),
            postmortem_fired: AtomicBool::new(false),
            postmortems: AtomicU64::new(0),
            last_postmortem: Mutex::new(None),
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.hub.enabled()
    }

    /// The metrics hub.
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Record a trace event on executor `i`'s lane.
    #[inline]
    pub fn trace_exec(&self, executor: usize, batch: u64, kind: TraceKind) {
        self.recorder
            .record(self.recorder.executor_lane(executor), batch, kind);
    }

    /// Record a trace event on the ingestion lane.
    #[inline]
    pub fn trace_ingest(&self, batch: u64, kind: TraceKind) {
        self.recorder
            .record(self.recorder.ingest_lane(), batch, kind);
    }

    /// Record a trace event on the WAL lane.
    #[inline]
    pub fn trace_wal(&self, batch: u64, kind: TraceKind) {
        self.recorder.record(self.recorder.wal_lane(), batch, kind);
    }

    /// Merged chronological timeline of all lanes.
    pub fn flight_recording(&self) -> Vec<TraceEvent> {
        self.recorder.timeline()
    }

    /// Snapshot of every metric series, including the recorder and
    /// post-mortem counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.hub.snapshot();
        snap.trace_events = self.recorder.recorded();
        snap.trace_dropped = self.recorder.dropped();
        snap.postmortems = self.postmortems.load(Ordering::Relaxed);
        snap
    }

    /// Prometheus text exposition of the current snapshot.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus_text()
    }

    /// Flat JSON rendering of the current snapshot.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// Dump the flight recorder's recent history — once.
    ///
    /// The first caller wins: it formats the merged timeline, stores it for
    /// [`Obs::last_post_mortem`], writes it to stderr and returns `true`.
    /// Every later call (other executors panicking on the same poisoned
    /// barrier, the session re-raising) is a no-op returning `false`, so a
    /// multi-thread crash produces exactly one readable dump.
    pub fn post_mortem(&self, reason: &str) -> bool {
        if self
            .postmortem_fired
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        let timeline = self.recorder.timeline();
        let mut dump = format!(
            "=== tstream post-mortem: {reason} ===\nlast {} flight-recorder events:\n",
            timeline.len()
        );
        dump.push_str(&self.recorder.format_timeline(&timeline));
        dump.push_str("=== end post-mortem ===");
        self.postmortems.fetch_add(1, Ordering::Relaxed);
        *self.last_postmortem.lock() = Some(dump.clone());
        eprintln!("{dump}");
        true
    }

    /// How many post-mortem dumps have fired (0 or 1).
    pub fn post_mortem_count(&self) -> u64 {
        self.postmortems.load(Ordering::Relaxed)
    }

    /// The stored post-mortem dump, if one fired.
    pub fn last_post_mortem(&self) -> Option<String> {
        self.last_postmortem.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_mortem_fires_exactly_once() {
        let obs = Obs::new(ObsConfig::default(), 2);
        obs.trace_exec(0, 7, TraceKind::Poisoned);
        assert_eq!(obs.post_mortem_count(), 0);
        assert!(obs.post_mortem("executor panic"));
        assert!(!obs.post_mortem("second caller"));
        assert!(!obs.post_mortem("third caller"));
        assert_eq!(obs.post_mortem_count(), 1);
        let dump = obs.last_post_mortem().expect("dump stored");
        assert!(dump.contains("executor panic"));
        assert!(dump.contains("POISONED"));
        assert!(dump.contains("batch=7"));
    }

    #[test]
    fn post_mortem_races_elect_one_winner() {
        let obs = std::sync::Arc::new(Obs::new(ObsConfig::default(), 4));
        let winners: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let obs = obs.clone();
                    s.spawn(move || obs.post_mortem("race") as u64)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(winners, 1, "exactly one thread dumps");
        assert_eq!(obs.post_mortem_count(), 1);
    }

    #[test]
    fn disabled_obs_still_dumps_but_records_nothing() {
        let obs = Obs::new(ObsConfig::disabled(), 2);
        obs.hub().batch_ingested(64, false);
        obs.trace_exec(0, 0, TraceKind::FastPath);
        assert_eq!(obs.metrics_snapshot().ingest_events, 0);
        assert!(obs.flight_recording().is_empty());
        assert!(obs.post_mortem("crash while disabled"));
        assert_eq!(obs.post_mortem_count(), 1);
    }

    #[test]
    fn snapshot_carries_recorder_counters() {
        let obs = Obs::new(ObsConfig::default().flight_capacity(2), 1);
        for i in 0..5 {
            obs.trace_ingest(i, TraceKind::BatchInjected);
        }
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.trace_events, 5);
        assert_eq!(snap.trace_dropped, 3);
        let text = obs.metrics_text();
        assert!(text.contains("tstream_obs_trace_events_total 5"));
    }
}
