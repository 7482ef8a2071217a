//! # tstream-bench
//!
//! The experiment driver that regenerates every table and figure of the
//! paper's evaluation (Section VI) and checks what the paper says about each:
//!
//! ```text
//! cargo run --release -p tstream-bench -- fig08_throughput --quick
//! cargo run --release -p tstream-bench -- claims --quick
//! ```
//!
//! `--quick` runs a reduced sweep; `claims` runs every experiment and prints
//! one verdict table.  The absolute numbers differ from the paper (different
//! machine, Rust instead of the JVM, modelled NUMA); the *shape* (which scheme
//! wins, where the crossovers are) is what these experiments reproduce.  Each
//! sentence the paper states about a figure is a [`Claim`]: a predicate over
//! the run, whose text says why any part of it is not checked.

#![warn(missing_docs)]

mod ablations;
mod figures;
mod sections;

use std::fmt::{Display, Write};
use std::time::Duration;

use tstream_apps::runner::{render_table, run_benchmark, AppKind, RunOptions, SchemeKind};
use tstream_apps::workload::WorkloadSpec;
use tstream_core::{EngineConfig, RunReport};
use tstream_stream::metrics::Breakdown;
use tstream_txn::NumaModel;

/// Sizing of one driver run.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Reduced sweep for CI.
    pub quick: bool,
    /// CPUs available to this process: a claim about N executors needs
    /// N + 1 of them, one for the producer.
    pub cpus: usize,
}

impl HarnessConfig {
    /// Size a run for this host.
    pub fn new(quick: bool) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        HarnessConfig { quick, cpus }
    }

    /// Maximum number of executors the machine supports for sweeps.
    pub fn max_cores(&self) -> usize {
        self.cpus.min(24)
    }

    /// Core counts swept by the scalability figures (the paper uses
    /// 1, 5, 10, ..., 40; we clamp to the host).
    pub fn core_sweep(&self) -> Vec<usize> {
        let mut points = vec![1usize, 2, 4, 8, 12, 16, 20, 24];
        points.retain(|&c| c <= self.max_cores());
        if self.quick {
            points.retain(|&c| c == 1 || c == 4 || c == self.max_cores().min(8));
        }
        if points.is_empty() {
            points.push(1);
        }
        points
    }
}

/// What the run says about one sentence of the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The predicate holds on this run.
    Holds,
    /// The predicate is false on this run; the measured values.
    Fails(String),
    /// The host has too few CPUs to test the sentence; what it needs, and
    /// the measured values.
    HostLimited(String),
}

/// One sentence of the paper about an experiment, and its verdict.
#[derive(Debug, Clone)]
pub struct Claim {
    /// `<experiment>.<name>`.
    pub id: &'static str,
    /// What the paper says.
    pub text: &'static str,
    /// Executors the sentence is about; 0 when it must hold on any host.
    pub needs: usize,
    /// The verdict on this run.
    pub verdict: Verdict,
}

impl Claim {
    /// Whether this claim fails the driver's exit status: it must hold on
    /// any host, and it does not.
    pub fn gates(&self) -> bool {
        self.needs == 0 && matches!(self.verdict, Verdict::Fails(_))
    }
}

/// The tables an experiment printed and the claims it checked.
#[derive(Debug)]
pub struct Report {
    /// The experiment's output, tables and lines in order.
    pub text: String,
    /// One entry per sentence of the paper about the experiment.
    pub claims: Vec<Claim>,
    cpus: usize,
}

impl Report {
    /// An empty report for a run on `cfg`'s host.
    pub fn new(cfg: &HarnessConfig) -> Self {
        let (text, claims, cpus) = (String::new(), Vec::new(), cfg.cpus);
        Report { text, claims, cpus }
    }

    /// Append a titled table; `header` separates its columns with `|`.
    pub fn table(&mut self, title: impl Display, header: &str, rows: &[Vec<String>]) {
        let header: Vec<&str> = header.split('|').collect();
        let _ = writeln!(self.text, "{title}\n\n{}", render_table(&header, rows));
    }

    /// Append one line.
    pub fn line(&mut self, line: impl Display) {
        let _ = writeln!(self.text, "{line}");
    }

    /// Check `claim` ("`id`: what the paper says") by its predicate `holds`
    /// over this run; `measured` names the values behind it.  With fewer
    /// than `needs + 1` CPUs the run cannot test a sentence about `needs`
    /// executors, whatever the predicate says.
    pub fn check(&mut self, claim: &'static str, needs: usize, holds: bool, measured: String) {
        let verdict = if self.cpus < needs + 1 {
            let here = if holds { "holds" } else { "fails" };
            let (cpus, host) = (needs + 1, self.cpus);
            Verdict::HostLimited(format!(
                "needs {cpus} CPUs, host has {host}; {here} here: {measured}"
            ))
        } else if holds {
            Verdict::Holds
        } else {
            Verdict::Fails(measured)
        };
        let (id, text) = claim.split_once(": ").expect("a claim reads `id: text`");
        self.claims.push(Claim {
            id,
            text,
            needs,
            verdict,
        });
    }
}

/// One experiment: it runs on a host sized by the config.
pub type Experiment = fn(&HarnessConfig) -> Report;

/// Every experiment by name, in the order `claims` runs them.
pub const EXPERIMENTS: [(&str, Experiment); 15] = [
    ("fig01_pat_breakdown", figures::fig01_pat_breakdown),
    ("fig02_conventional", figures::fig02_conventional),
    ("fig08_throughput", figures::fig08_throughput),
    ("fig09_breakdown_sl", figures::fig09_breakdown_sl),
    ("fig10_multipartition", figures::fig10_multipartition),
    ("fig11_read_ratio_skew", figures::fig11_read_ratio_skew),
    ("fig12_punctuation", figures::fig12_punctuation),
    ("fig13_latency", figures::fig13_latency),
    ("fig14_numa", figures::fig14_numa),
    ("sec2c_order_unaware", sections::sec2c_order_unaware),
    ("sec6g_sstore", sections::sec6g_sstore),
    ("tab_compute_share", sections::tab_compute_share),
    ("ablation_abort_overhead", ablations::abort_overhead),
    ("ablation_adaptive_interval", ablations::adaptive_interval),
    ("ablation_resolution", ablations::resolution),
];

/// Run the experiment called `name`.
pub fn run_experiment(name: &str, cfg: &HarnessConfig) -> Result<Report, String> {
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => Ok(run(cfg)),
        None => {
            let names = EXPERIMENTS.map(|(n, _)| n).join(", ");
            Err(format!(
                "unknown experiment `{name}`; expected `claims` or one of: {names}"
            ))
        }
    }
}

/// One line per claim: its id, verdict and the paper's sentence, then a line
/// with the measured values unless it holds.
pub fn verdict_table(claims: &[Claim]) -> String {
    let width = claims.iter().map(|c| c.id.len()).max().unwrap_or(0);
    let mut out = String::new();
    for c in claims {
        let (verdict, detail) = match &c.verdict {
            Verdict::Holds => ("holds", ""),
            Verdict::Fails(d) => ("FAILS", d.as_str()),
            Verdict::HostLimited(d) => ("host-limited", d.as_str()),
        };
        let _ = writeln!(out, "{:width$}  {verdict:12}  {}", c.id, c.text);
        if !detail.is_empty() {
            let _ = writeln!(out, "{:width$}  {:12}  {detail}", "", "");
        }
    }
    out
}

/// Table rows: each label, then its values with `digits` decimals.
pub fn rows<L: Display, const N: usize>(
    labels: impl IntoIterator<Item = L>,
    values: &[[f64; N]],
    digits: usize,
) -> Vec<Vec<String>> {
    let row = |(label, v): (L, &[f64; N])| {
        let cells = v.iter().map(|v| format!("{v:.digits$}"));
        std::iter::once(label.to_string()).chain(cells).collect()
    };
    labels.into_iter().zip(values).map(row).collect()
}

/// A table header: `first`, then one column per label.
pub fn header<'a>(first: &'a str, labels: impl IntoIterator<Item = &'a str>) -> String {
    let columns: Vec<&str> = std::iter::once(first).chain(labels).collect();
    columns.join("|")
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

/// The paper's machine has four sockets.
pub const SOCKETS: usize = 4;

/// Run one benchmark point with the paper's default configuration
/// (punctuation 500, shared-nothing, Zipf skew per Section VI-B).
pub fn run_point(
    app: AppKind,
    scheme: SchemeKind,
    cores: usize,
    events: usize,
    punctuation: usize,
) -> RunReport {
    let engine = EngineConfig::with_executors(cores).punctuation(punctuation);
    run_engine(app, scheme, events, engine)
}

/// Run one benchmark point under `engine`, its executors spread over
/// [`SOCKETS`] synthetic sockets so that every host models remote accesses.
pub fn run_on_sockets(
    app: AppKind,
    scheme: SchemeKind,
    events: usize,
    mut engine: EngineConfig,
) -> RunReport {
    engine.cores_per_socket = engine.executors.div_ceil(SOCKETS);
    run_engine(app, scheme, events, engine)
}

/// The paper's workload over one partition per executor, remote accesses
/// counted.
fn run_engine(app: AppKind, scheme: SchemeKind, events: usize, engine: EngineConfig) -> RunReport {
    let partitions = engine.executors as u32;
    let spec = WorkloadSpec::default()
        .events(events)
        .partitions(partitions);
    let mut options = RunOptions::new(spec, engine.numa(NumaModel::paper_calibrated()));
    options.pat_partitions = partitions;
    run_benchmark(app, scheme, &options)
}

/// The modelled remote-memory-access time of a run, "RMA (modelled)": its
/// counted remote accesses, each priced at the paper-calibrated local-vs-remote
/// latency gap.  Nothing was delayed while the run executed.
pub fn modelled_rma(breakdown: &Breakdown) -> Duration {
    Duration::from_nanos(breakdown.remote_accesses * NumaModel::paper_calibrated().remote_delay_ns)
}

/// A run's 99th-percentile end-to-end latency in milliseconds.
pub fn p99_ms(report: &RunReport) -> f64 {
    report.latency.percentile(99.0).map_or(0.0, ms)
}

/// Format a duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Percentage formatting helper for breakdown rows.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format each value with one decimal, comma-separated.
pub fn list(values: impl IntoIterator<Item = f64>) -> String {
    let cells: Vec<String> = values.into_iter().map(|v| format!("{v:.1}")).collect();
    cells.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cpus: usize) -> HarnessConfig {
        HarnessConfig { quick: true, cpus }
    }

    #[test]
    fn harness_config_scales_down_in_quick_mode() {
        let quick = HarnessConfig::new(true);
        let full = HarnessConfig::new(false);
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
        assert_eq!(list([1.0, 2.25]), "1.0, 2.2");
        assert_eq!(rows(["x"], &[[1.0, 2.25]], 2), [["x", "1.00", "2.25"]]);
        assert_eq!(header("app", ["GS", "SL"]), "app|GS|SL");
    }

    #[test]
    fn an_unknown_experiment_fails_and_lists_the_valid_names() {
        let err = run_experiment("fig99_nothing", &host(2)).unwrap_err();
        assert!(err.contains("fig99_nothing"));
        for (name, _) in EXPERIMENTS {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }

    #[test]
    fn a_claim_about_more_executors_than_the_host_can_run_is_host_limited() {
        for cpus in 1..=4 {
            let mut r = Report::new(&host(cpus));
            r.check("t.fails: x", cpus, false, "measured".into());
            r.check("t.holds: x", cpus, true, "measured".into());
            for claim in &r.claims {
                assert!(
                    matches!(&claim.verdict, Verdict::HostLimited(d) if d.contains("measured")),
                    "{cpus} CPUs: {claim:?}"
                );
            }
        }
        let mut r = Report::new(&host(3));
        r.check("t.fails: x", 2, false, "measured".into());
        r.check("t.holds: x", 2, true, "measured".into());
        assert_eq!(r.claims[0].verdict, Verdict::Fails("measured".into()));
        assert_eq!(r.claims[1].verdict, Verdict::Holds);
    }

    #[test]
    fn only_host_independent_failures_gate_the_exit_status() {
        let mut r = Report::new(&host(64));
        r.check("t.bound: x", 4, false, "slow".into());
        r.check("t.limited: x", 64, false, "slow".into());
        r.check("t.exact: x", 0, true, String::new());
        assert!(r.claims.iter().all(|c| !c.gates()), "{:?}", r.claims);
        r.check("t.exact_broken: x", 0, false, "diverged".into());
        let gating: Vec<&str> = r
            .claims
            .iter()
            .filter(|c| c.gates())
            .map(|c| c.id)
            .collect();
        assert_eq!(gating, ["t.exact_broken"]);
        // A host-independent claim is never host-limited, even on one CPU.
        let mut r = Report::new(&host(1));
        r.check("t.exact_broken: x", 0, false, "diverged".into());
        assert!(r.claims[0].gates());
    }

    /// Run `names` as the driver does and check what every report must hold.
    fn check_experiments(names: &[&str]) {
        let cfg = host(2);
        for name in names {
            let report = run_experiment(name, &cfg).unwrap();
            assert!(!report.text.is_empty(), "{name} printed nothing");
            assert!(!report.claims.is_empty(), "{name} checks nothing");
            for claim in &report.claims {
                assert!(!claim.text.is_empty(), "{}", claim.id);
                assert!(!claim.gates(), "{name}: {claim:?}");
            }
        }
    }

    /// Three of the four experiments whose claims must hold on any host: the
    /// exact-state and state-forwarding checks run on every test run (the
    /// abort ablation's rejection count runs in the ignored test below).
    #[test]
    fn the_host_independent_claims_hold() {
        check_experiments(&[
            "fig02_conventional",
            "sec2c_order_unaware",
            "ablation_resolution",
        ]);
    }

    /// Every registered experiment prints its tables and checks at least one
    /// claim.  It runs the whole quick sweep, which takes minutes in the
    /// lock-order test build; `tstream-bench claims --quick` in CI covers it
    /// on every push.
    #[test]
    #[ignore = "runs every experiment; minutes in the lock-order debug build"]
    fn every_experiment_checks_its_sentences() {
        check_experiments(&EXPERIMENTS.map(|(name, _)| name));
    }
}
