//! The sink: throughput and end-to-end latency measurement.
//!
//! Following the paper (Section VI-F, after its reference \[37\]), end-to-end processing
//! latency is the duration between the time an input event enters the system
//! and the time its result is generated.  Each executor records completions
//! into its own [`Sink`] shard (no shared counters on the hot path); shards
//! are merged into [`LatencyStats`] when the run finishes.
//!
//! Latencies are held in a log-bucketed
//! [`tstream_obs::LatencyHistogram`] rather than a vector
//! of raw samples: recording is O(1) without allocation, merging is a
//! bucket-wise sum, and every sample contributes to the distribution — so
//! p50/p99/p99.9 are exact to the bucket resolution (≤ 1.6 % relative
//! error) instead of being biased by sampling, while min, max and mean stay
//! exact.  Replayed batches are still excluded via [`Sink::emit_unsampled`].

use std::time::{Duration, Instant};

use tstream_obs::LatencyHistogram;

/// Per-executor completion recorder.
#[derive(Debug, Default)]
pub struct Sink {
    hist: LatencyHistogram,
    emitted: u64,
    rejected: u64,
}

impl Sink {
    /// Creates an empty sink shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a successfully processed event whose arrival instant is known.
    pub fn emit(&mut self, arrival: Instant) {
        self.hist.record(arrival.elapsed());
        self.emitted += 1;
    }

    /// Record a successfully processed event with an explicit latency (used
    /// by tests and by replayed traces).
    pub fn emit_with_latency(&mut self, latency: Duration) {
        self.hist.record(latency);
        self.emitted += 1;
    }

    /// Record a successfully processed event *without* a latency sample.
    ///
    /// Recovery replay uses this: a replayed event's "arrival" is its
    /// re-ingestion instant, not the original arrival, so sampling it would
    /// pollute the live latency distribution (and anything observing it,
    /// like adaptive punctuation).  The event still counts as emitted.
    pub fn emit_unsampled(&mut self) {
        self.emitted += 1;
    }

    /// Record a rejected event (aborted transaction surfaced to the user,
    /// Section IV-C.2 "Handling Transaction Abort").
    pub fn reject(&mut self) {
        self.rejected += 1;
    }

    /// Number of emitted results.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Number of rejected events.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Latency percentile over the samples recorded so far, without
    /// consuming the sink (adaptive punctuation observes this between
    /// batches).  A bucket scan — no sort, no copy — so it is cheap enough
    /// to sample at batch granularity.
    pub fn percentile_so_far(&self, pct: f64) -> Option<Duration> {
        self.hist.percentile(pct)
    }

    /// Merge several per-executor shards into aggregate statistics.
    pub fn merge(shards: impl IntoIterator<Item = Sink>) -> LatencyStats {
        let mut hist = LatencyHistogram::new();
        let mut emitted = 0;
        let mut rejected = 0;
        for shard in shards {
            emitted += shard.emitted;
            rejected += shard.rejected;
            hist.merge(&shard.hist);
        }
        LatencyStats {
            hist,
            emitted,
            rejected,
        }
    }
}

/// Aggregated latency statistics for a run.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    hist: LatencyHistogram,
    emitted: u64,
    rejected: u64,
}

impl LatencyStats {
    /// Total results emitted.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Total events rejected (aborted).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of recorded latency samples.
    pub fn samples(&self) -> usize {
        self.hist.count() as usize
    }

    /// Latency percentile in `0.0 ..= 100.0` (e.g. `99.0` for p99).  The
    /// endpoints are exact; interior quantiles are within the histogram's
    /// 1.6 % bucket resolution.
    pub fn percentile(&self, pct: f64) -> Option<Duration> {
        self.hist.percentile(pct)
    }

    /// Arithmetic mean latency (exact: the histogram tracks the exact sum).
    pub fn mean(&self) -> Option<Duration> {
        self.hist.mean()
    }

    /// Maximum observed latency (exact).
    pub fn max(&self) -> Option<Duration> {
        self.hist.max()
    }

    /// The underlying latency distribution.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }
}

#[cfg(test)]
mod tests {
    // These tests probe real timing (blocked-thread interleavings), so
    // they sleep deliberately; the workspace-wide sleep ban targets
    // production code.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn merge_and_percentiles() {
        let mut a = Sink::new();
        let mut b = Sink::new();
        for ms in 1..=50u64 {
            a.emit_with_latency(Duration::from_millis(ms));
        }
        for ms in 51..=100u64 {
            b.emit_with_latency(Duration::from_millis(ms));
        }
        b.reject();
        let stats = Sink::merge([a, b]);
        assert_eq!(stats.emitted(), 100);
        assert_eq!(stats.rejected(), 1);
        assert_eq!(stats.samples(), 100);
        // Endpoints and max are exact even on the bucketed histogram.
        assert_eq!(stats.percentile(0.0), Some(Duration::from_millis(1)));
        assert_eq!(stats.percentile(100.0), Some(Duration::from_millis(100)));
        assert_eq!(stats.max(), Some(Duration::from_millis(100)));
        // Interior quantiles carry the 1.6 % bucket resolution.
        let p99 = stats.percentile(99.0).unwrap().as_secs_f64();
        assert!((p99 - 0.099).abs() / 0.099 < 0.02, "p99={p99}");
        let mean = stats.mean().unwrap();
        assert!(mean > Duration::from_millis(49) && mean < Duration::from_millis(52));
    }

    #[test]
    fn unsampled_emissions_count_but_leave_no_latency_trace() {
        let mut sink = Sink::new();
        sink.emit_with_latency(Duration::from_millis(3));
        sink.emit_unsampled();
        sink.emit_unsampled();
        assert_eq!(sink.emitted(), 3);
        assert_eq!(
            sink.percentile_so_far(99.0),
            Some(Duration::from_millis(3)),
            "unsampled events must not perturb the percentile scan"
        );
        let stats = Sink::merge([sink]);
        assert_eq!(stats.emitted(), 3);
        assert_eq!(stats.samples(), 1);
    }

    #[test]
    fn empty_stats_return_none() {
        let stats = Sink::merge([]);
        assert_eq!(stats.percentile(99.0), None);
        assert_eq!(stats.mean(), None);
        assert_eq!(stats.max(), None);
        assert_eq!(stats.samples(), 0);
    }

    #[test]
    fn emit_uses_wall_clock() {
        let mut sink = Sink::new();
        let arrival = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        sink.emit(arrival);
        let stats = Sink::merge([sink]);
        assert!(stats.max().unwrap() >= Duration::from_millis(1));
    }

    #[test]
    fn percentile_is_clamped() {
        let mut sink = Sink::new();
        sink.emit_with_latency(Duration::from_millis(5));
        let stats = Sink::merge([sink]);
        assert_eq!(stats.percentile(150.0), Some(Duration::from_millis(5)));
        assert_eq!(stats.percentile(-3.0), Some(Duration::from_millis(5)));
    }

    #[test]
    fn large_distributions_stay_bias_free() {
        // 100k samples: the old sampled sink would have had to cap or sort
        // all of these; the histogram keeps every one at fixed memory.
        let mut sink = Sink::new();
        for i in 1..=100_000u64 {
            sink.emit_with_latency(Duration::from_micros(i));
        }
        let stats = Sink::merge([sink]);
        assert_eq!(stats.samples(), 100_000);
        let p999 = stats.percentile(99.9).unwrap().as_secs_f64();
        assert!((p999 - 0.0999).abs() / 0.0999 < 0.02, "p99.9={p999}");
        assert_eq!(stats.max(), Some(Duration::from_micros(100_000)));
    }
}
