//! Figure 1: severe lock contention of the PAT scheme on Toll Processing.
//!
//! For 1..N cores, runs TP under PAT and reports the fraction of transaction
//! processing time spent on (i) state access, (ii) access overhead (lock
//! insertion + blocking on counters) and (iii) everything else — the three
//! series of the paper's Figure 1 — beside the modelled remote-memory-access
//! time: the counted remote accesses, each priced at the calibrated gap.

use tstream_apps::runner::render_table;
use tstream_apps::{AppKind, SchemeKind};
use tstream_bench::{events_for, modelled_rma, ms, pct, run_point, HarnessConfig};

fn main() {
    let cfg = HarnessConfig::from_args();
    println!("Figure 1: time breakdown of PAT on TP vs number of cores\n");
    let mut rows = Vec::new();
    for cores in cfg.core_sweep() {
        let events = events_for(AppKind::Tp, cores, cfg.quick);
        let report = run_point(AppKind::Tp, SchemeKind::Pat, cores, events, 500);
        let b = &report.breakdown;
        let total = b.total().as_secs_f64().max(f64::MIN_POSITIVE);
        let state_access = b.useful.as_secs_f64() / total;
        let overhead = (b.sync + b.lock).as_secs_f64() / total;
        let others = b.others.as_secs_f64() / total;
        rows.push(vec![
            cores.to_string(),
            pct(state_access),
            pct(overhead),
            pct(others),
            format!("{:.2}", ms(modelled_rma(b))),
            format!("{:.1}", report.throughput_keps()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "cores",
                "state access",
                "access overhead",
                "others",
                "RMA (modelled) ms",
                "K events/s"
            ],
            &rows
        )
    );
    println!("Paper shape: the access-overhead share grows with the core count until it");
    println!("dominates, which motivates TStream (Section I, Figure 1).");
}
