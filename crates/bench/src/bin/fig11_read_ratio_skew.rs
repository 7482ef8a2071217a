//! Figure 11: workload sensitivity of GS — (a) varying the percentage of
//! read requests (uniform keys, summation removed), (b) varying the Zipf
//! skew of a write-only workload.

use tstream_apps::runner::{render_table, run_benchmark, AppKind, RunOptions, SchemeKind};
use tstream_apps::workload::WorkloadSpec;
use tstream_bench::HarnessConfig;
use tstream_core::EngineConfig;
use tstream_txn::NumaModel;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Lock,
    SchemeKind::Mvlk,
    SchemeKind::Pat,
    SchemeKind::TStream,
];

fn run(cfg: &HarnessConfig, cores: usize, read_ratio: f64, skew: f64, scheme: SchemeKind) -> f64 {
    let events = if cfg.quick { 4_000 } else { 40_000 };
    let spec = WorkloadSpec::default()
        .events(events)
        .read_ratio(read_ratio)
        .skew(skew)
        .multi_partition(0.5, 4)
        .partitions(cores as u32);
    let engine = EngineConfig::with_executors(cores)
        .punctuation(500)
        .numa(NumaModel::paper_calibrated());
    let mut options = RunOptions::new(spec, engine);
    options.pat_partitions = cores as u32;
    options.gs_with_summation = false;
    run_benchmark(AppKind::Gs, scheme, &options).throughput_keps()
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let cores = cfg.max_cores.min(16);

    println!(
        "Figure 11(a): GS throughput vs percentage of read requests (skew 0, {cores} cores)\n"
    );
    let ratios: &[f64] = if cfg.quick {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let mut rows = Vec::new();
    for &ratio in ratios {
        let mut row = vec![format!("{:.0}%", ratio * 100.0)];
        for scheme in SCHEMES {
            row.push(format!("{:.1}", run(&cfg, cores, ratio, 0.0, scheme)));
        }
        rows.push(row);
    }
    let header: Vec<&str> = std::iter::once("reads")
        .chain(SCHEMES.iter().map(|s| s.label()))
        .collect();
    println!("{}", render_table(&header, &rows));

    println!("Figure 11(b): GS throughput vs Zipf skew (write-only, {cores} cores)\n");
    let skews: &[f64] = if cfg.quick {
        &[0.0, 0.6, 1.0]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let mut rows = Vec::new();
    for &skew in skews {
        let mut row = vec![format!("{skew:.1}")];
        for scheme in SCHEMES {
            row.push(format!("{:.1}", run(&cfg, cores, 0.0, skew, scheme)));
        }
        rows.push(row);
    }
    let header: Vec<&str> = std::iter::once("skew")
        .chain(SCHEMES.iter().map(|s| s.label()))
        .collect();
    println!("{}", render_table(&header, &rows));

    println!("Paper shape: the read/write mix barely moves the prior schemes (synchronisation");
    println!("dominates them); TStream stays well ahead across the whole range and remains");
    println!("tolerant to skew, while the lock-based schemes degrade as contention grows.");
}
