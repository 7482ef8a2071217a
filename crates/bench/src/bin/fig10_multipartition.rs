//! Figure 10: PAT vs TStream under multi-partition transactions on the GS
//! microbenchmark: (a) varying the ratio of multi-partition transactions at
//! length 6, (b) varying the length at ratio 50% — for write-only and
//! read-only workloads.
//!
//! Since the sharding rework this harness runs against a **real** partitioned
//! store: the GS table is physically split over one shard per core
//! (`WorkloadSpec::shards`), the engine routes operation chains shard-affine,
//! and the trailing table reports the measured per-shard chain placement of a
//! TStream run instead of a simulated partitioning.

use tstream_apps::runner::{render_table, run_benchmark, AppKind, RunOptions, SchemeKind};
use tstream_apps::workload::WorkloadSpec;
use tstream_bench::HarnessConfig;
use tstream_core::{EngineConfig, RunReport};
use tstream_txn::NumaModel;

fn run_report(
    cfg: &HarnessConfig,
    cores: usize,
    ratio: f64,
    len: usize,
    read_only: bool,
    scheme: SchemeKind,
) -> RunReport {
    let events = if cfg.quick { 4_000 } else { 40_000 };
    // The PAT partition count tracks the core count (the paper's setup); the
    // physical shard count is a state-layout knob and is floored at 4 so the
    // shard-placement report stays meaningful on small machines (with more
    // shards than executor pools, each pool owns several whole shards).
    let spec = WorkloadSpec::default()
        .events(events)
        .read_ratio(if read_only { 1.0 } else { 0.0 })
        .multi_partition(ratio, len)
        .partitions(cores as u32)
        .shards((cores as u32).max(4));
    let engine = EngineConfig::with_executors(cores)
        .punctuation(500)
        .numa(NumaModel::paper_calibrated());
    let mut options = RunOptions::new(spec, engine);
    options.pat_partitions = cores as u32;
    options.gs_with_summation = false;
    run_benchmark(AppKind::Gs, scheme, &options)
}

fn run(
    cfg: &HarnessConfig,
    cores: usize,
    ratio: f64,
    len: usize,
    read_only: bool,
    scheme: SchemeKind,
) -> f64 {
    run_report(cfg, cores, ratio, len, read_only, scheme).throughput_keps()
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let cores = cfg.max_cores.min(16);

    let shards = (cores as u32).max(4);
    println!(
        "Figure 10(a): throughput vs ratio of multi-partition txns (length 6, {cores} cores,\n\
         store sharded over {shards} physical shards)\n"
    );
    let ratios: &[f64] = if cfg.quick {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let mut rows = Vec::new();
    for &ratio in ratios {
        rows.push(vec![
            format!("{ratio:.1}"),
            format!("{:.1}", run(&cfg, cores, ratio, 6, false, SchemeKind::Pat)),
            format!("{:.1}", run(&cfg, cores, ratio, 6, true, SchemeKind::Pat)),
            format!(
                "{:.1}",
                run(&cfg, cores, ratio, 6, false, SchemeKind::TStream)
            ),
            format!(
                "{:.1}",
                run(&cfg, cores, ratio, 6, true, SchemeKind::TStream)
            ),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "mp ratio",
                "PAT (write-only)",
                "PAT (read-only)",
                "TStream (write-only)",
                "TStream (read-only)"
            ],
            &rows
        )
    );

    println!(
        "Figure 10(b): throughput vs length of multi-partition txns (ratio 50%, {cores} cores)\n"
    );
    let lengths: &[usize] = if cfg.quick {
        &[1, 6, 10]
    } else {
        &[1, 2, 4, 6, 8, 10]
    };
    let mut rows = Vec::new();
    for &len in lengths {
        let len = len.min(cores.max(1));
        rows.push(vec![
            len.to_string(),
            format!("{:.1}", run(&cfg, cores, 0.5, len, false, SchemeKind::Pat)),
            format!("{:.1}", run(&cfg, cores, 0.5, len, true, SchemeKind::Pat)),
            format!(
                "{:.1}",
                run(&cfg, cores, 0.5, len, false, SchemeKind::TStream)
            ),
            format!(
                "{:.1}",
                run(&cfg, cores, 0.5, len, true, SchemeKind::TStream)
            ),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "mp length",
                "PAT (write-only)",
                "PAT (read-only)",
                "TStream (write-only)",
                "TStream (read-only)"
            ],
            &rows
        )
    );

    // ---- Real shard placement: per-shard chain counts of one representative
    // TStream run (write-only, 50 % multi-partition, length capped at cores).
    let report = run_report(
        &cfg,
        cores,
        0.5,
        6.min(cores.max(1)),
        false,
        SchemeKind::TStream,
    );
    println!(
        "Measured shard placement (TStream, write-only, mp ratio 0.5, {} shards):\n",
        report.per_shard_chains.len()
    );
    let total: u64 = report.per_shard_chains.iter().sum();
    let rows: Vec<Vec<String>> = report
        .per_shard_chains
        .iter()
        .enumerate()
        .map(|(shard, &chains)| {
            vec![
                shard.to_string(),
                chains.to_string(),
                format!("{:.1}", 100.0 * chains as f64 / total.max(1) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["shard", "chains (all batches)", "share %"], &rows)
    );
    println!("Paper shape: PAT degrades as multi-partition ratio/length grows; TStream stays");
    println!("flat and beats PAT even with no multi-partition transactions at all.");
}
