//! Figure 14: TStream throughput under the three NUMA-aware chain placements
//! (shared-nothing, shared-everything, shared-per-socket), with work stealing
//! enabled for the shared configurations, beside the modelled
//! remote-memory-access time of each run.

use tstream_apps::runner::render_table;
use tstream_apps::{AppKind, SchemeKind};
use tstream_bench::{events_for, modelled_rma, ms, run_on_sockets, HarnessConfig, SOCKETS};
use tstream_core::{ChainPlacement, EngineConfig, RunReport};

/// TStream on `cores` executors over four synthetic sockets.
fn run(
    cfg: &HarnessConfig,
    app: AppKind,
    cores: usize,
    placement: ChainPlacement,
    stealing: bool,
) -> RunReport {
    let engine = EngineConfig::with_executors(cores)
        .punctuation(500)
        .placement(placement)
        .work_stealing(stealing);
    let events = events_for(app, cores, cfg.quick);
    run_on_sockets(app, SchemeKind::TStream, events, engine)
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let cores = cfg.max_cores;
    println!(
        "Figure 14: TStream throughput (K txns/s) under NUMA-aware configurations ({cores} cores"
    );
    println!(
        "over {SOCKETS} synthetic sockets; RMA (modelled) = counted remote accesses x calibrated price)\n"
    );

    let placements = [
        (ChainPlacement::SharedNothing, false),
        (ChainPlacement::SharedEverything, true),
        (ChainPlacement::SharedPerSocket, true),
    ];
    let mut throughput = Vec::new();
    let mut rma = Vec::new();
    for app in AppKind::ALL {
        let reports: Vec<RunReport> = placements
            .iter()
            .map(|&(placement, stealing)| run(&cfg, app, cores, placement, stealing))
            .collect();
        // One row per app: its label, then one cell per placement.
        let row = |cell: fn(&RunReport) -> String| {
            let cells = reports.iter().map(cell);
            std::iter::once(app.label().to_string())
                .chain(cells)
                .collect::<Vec<_>>()
        };
        throughput.push(row(|r| format!("{:.1}", r.throughput_keps())));
        rma.push(row(|r| format!("{:.2}", ms(modelled_rma(&r.breakdown)))));
    }
    let header = [
        "app",
        "shared-nothing",
        "shared-everything",
        "shared-per-socket",
    ];
    println!("{}", render_table(&header, &throughput));
    println!("RMA (modelled), ms summed over executors\n");
    println!("{}", render_table(&header, &rma));

    println!(
        "Work-stealing ablation (shared-everything, GS): throughput with and without stealing\n"
    );
    let with = run(
        &cfg,
        AppKind::Gs,
        cores,
        ChainPlacement::SharedEverything,
        true,
    );
    let without = run(
        &cfg,
        AppKind::Gs,
        cores,
        ChainPlacement::SharedEverything,
        false,
    );
    println!("  with stealing:    {:.1} K/s", with.throughput_keps());
    println!("  without stealing: {:.1} K/s", without.throughput_keps());
    println!("\nPaper shape: shared-nothing wins for every application; work stealing helps the");
    println!("shared configurations but does not close the gap (Section VI-F).");
}
