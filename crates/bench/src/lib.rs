//! # tstream-bench
//!
//! Benchmark harnesses that regenerate every table and figure of the paper's
//! evaluation (Section VI), plus Criterion micro-benchmarks of the core data
//! structures.
//!
//! Each figure has a dedicated binary under `src/bin/` that prints the same
//! rows/series the paper reports, e.g.:
//!
//! ```text
//! cargo run --release -p tstream-bench --bin fig08_throughput
//! cargo run --release -p tstream-bench --bin fig12_punctuation -- --quick
//! ```
//!
//! Pass `--quick` to any harness to run a reduced sweep (fewer events, fewer
//! sweep points); the `figures_quick` Criterion-style bench target runs the
//! quick variants of the headline figures so `cargo bench` touches every
//! experiment.
//!
//! The absolute numbers differ from the paper (different machine, Rust
//! instead of the JVM, modelled NUMA); the *shape* (which scheme wins, by
//! roughly what factor, where the crossovers are) is what these harnesses
//! reproduce.

#![warn(missing_docs)]

use std::time::Duration;

use tstream_apps::runner::{run_benchmark, AppKind, RunOptions, SchemeKind};
use tstream_apps::workload::WorkloadSpec;
use tstream_core::{EngineConfig, RunReport};
use tstream_stream::metrics::Breakdown;
use tstream_txn::NumaModel;

/// Common command-line handling and sizing for the figure harnesses.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Reduced sweep for CI / `cargo bench`.
    pub quick: bool,
    /// Maximum number of executors the machine supports for sweeps.
    pub max_cores: usize,
}

impl HarnessConfig {
    /// Parse `--quick` from the process arguments and detect the core count.
    pub fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        Self::new(quick)
    }

    /// Construct explicitly (used by the `figures_quick` bench target).
    pub fn new(quick: bool) -> Self {
        let available = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(8);
        HarnessConfig {
            quick,
            max_cores: available.min(24),
        }
    }

    /// Events per run for a given sweep size.
    pub fn events(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(2_000)
        } else {
            full
        }
    }

    /// Core counts swept by the scalability figures (the paper uses
    /// 1, 5, 10, ..., 40; we clamp to the host).
    pub fn core_sweep(&self) -> Vec<usize> {
        let mut points = vec![1usize, 2, 4, 8, 12, 16, 20, 24];
        points.retain(|&c| c <= self.max_cores);
        if self.quick {
            points.retain(|&c| c == 1 || c == 4 || c == self.max_cores.min(8));
        }
        if points.is_empty() {
            points.push(1);
        }
        points
    }
}

/// Default workload sizing for one (app, cores) benchmark point: enough
/// events to keep every executor busy for a meaningful time without making
/// full sweeps take hours.
pub fn events_for(app: AppKind, cores: usize, quick: bool) -> usize {
    let per_core = match app {
        AppKind::Gs => 6_000,
        AppKind::Sl => 8_000,
        AppKind::Ob => 6_000,
        AppKind::Tp => 12_000,
    };
    let scaled = per_core * cores.max(1);
    if quick {
        (scaled / 10).max(2_000)
    } else {
        scaled
    }
}

/// Run one benchmark point with the paper's default configuration
/// (punctuation 500, shared-nothing, Zipf skew per Section VI-B).
pub fn run_point(
    app: AppKind,
    scheme: SchemeKind,
    cores: usize,
    events: usize,
    punctuation: usize,
) -> RunReport {
    let spec = WorkloadSpec::default()
        .events(events)
        .partitions(cores.max(1) as u32);
    let engine = EngineConfig::with_executors(cores)
        .punctuation(punctuation)
        .numa(NumaModel::paper_calibrated());
    let mut options = RunOptions::new(spec, engine);
    options.pat_partitions = cores.max(1) as u32;
    run_benchmark(app, scheme, &options)
}

/// The modelled remote-memory-access time of a run, "RMA (modelled)": its
/// counted remote accesses, each priced at the paper-calibrated local-vs-remote
/// latency gap.  Nothing was delayed while the run executed.
pub fn modelled_rma(breakdown: &Breakdown) -> Duration {
    Duration::from_nanos(breakdown.remote_accesses * NumaModel::paper_calibrated().remote_delay_ns)
}

/// Format a duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Percentage formatting helper for breakdown rows.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_config_scales_down_in_quick_mode() {
        let quick = HarnessConfig::new(true);
        let full = HarnessConfig::new(false);
        assert!(quick.events(100_000) < 100_000);
        assert!(quick.core_sweep().len() <= full.core_sweep().len());
        assert!(full.core_sweep().contains(&1));
    }

    #[test]
    fn run_point_produces_a_report() {
        let report = run_point(AppKind::Gs, SchemeKind::TStream, 2, 1_000, 250);
        assert_eq!(report.events, 1_000);
        assert!(report.throughput_keps() > 0.0);
    }

    #[test]
    fn event_sizing_grows_with_cores() {
        assert!(events_for(AppKind::Tp, 8, false) > events_for(AppKind::Tp, 1, false));
        assert!(events_for(AppKind::Gs, 4, true) < events_for(AppKind::Gs, 4, false));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5), "50.0%");
        assert!((ms(Duration::from_millis(3)) - 3.0).abs() < 1e-9);
    }
}
