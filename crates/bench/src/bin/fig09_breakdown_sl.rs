//! Figure 9: per-transaction runtime breakdown in SL (Useful / Sync / Lock /
//! Others, plus the modelled RMA time), on a single synthetic socket and
//! spread over four.

use tstream_apps::runner::render_table;
use tstream_apps::{AppKind, SchemeKind};
use tstream_bench::{
    events_for, modelled_rma, ms, pct, run_on_sockets, run_point, HarnessConfig, SOCKETS,
};
use tstream_core::EngineConfig;
use tstream_stream::metrics::Component;

/// The timed components as shares of the timed total, then the modelled RMA
/// time (counted remote accesses x calibrated price, summed over executors).
const HEADER: [&str; 6] = [
    "scheme",
    "Useful",
    "Sync",
    "Lock",
    "Others",
    "RMA (modelled) ms",
];

fn breakdown_rows(cores: usize, quick: bool, all_sockets: bool) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for scheme in SchemeKind::ALL {
        let events = events_for(AppKind::Sl, cores, quick);
        let report = if all_sockets {
            let engine = EngineConfig::with_executors(cores).punctuation(500);
            run_on_sockets(AppKind::Sl, scheme, events, engine)
        } else {
            run_point(AppKind::Sl, scheme, cores, events, 500)
        };
        let mut row = vec![scheme.label().to_string()];
        for c in [
            Component::Useful,
            Component::Sync,
            Component::Lock,
            Component::Others,
        ] {
            row.push(pct(report.breakdown.fraction(c)));
        }
        row.push(format!("{:.2}", ms(modelled_rma(&report.breakdown))));
        rows.push(row);
    }
    rows
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let single_socket = 10.min(cfg.max_cores);
    let all_sockets = cfg.max_cores;

    println!(
        "Figure 9(a): runtime breakdown per state transaction in SL, single socket ({single_socket} cores)\n"
    );
    println!(
        "{}",
        render_table(&HEADER, &breakdown_rows(single_socket, cfg.quick, false))
    );

    println!(
        "Figure 9(b): runtime breakdown per state transaction in SL, all sockets ({all_sockets} cores over {SOCKETS} synthetic sockets)\n"
    );
    println!(
        "{}",
        render_table(&HEADER, &breakdown_rows(all_sockets, cfg.quick, true))
    );
    println!("Paper shape: Sync dominates every consistency-preserving prior scheme (~80%);");
    println!("No-Lock is dominated by Others (index lookups); TStream trades the lock waits");
    println!("for barrier synchronisation, which is still visible on SL because of its heavy");
    println!("data dependencies.");
}
