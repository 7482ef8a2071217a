//! Ablation: the cost of aborting multi-write transactions (Section IV-F).
//!
//! TStream decomposes every transaction into per-state operations and spreads
//! them over many chains, so aborting a multi-write transaction is expensive:
//! its writes in other chains, and everything that read them since, have to
//! be rolled back and replayed serially to preserve the correct schedule —
//! and every executor waits at one more barrier while the leader does so.
//! The eager schemes only undo the offending transaction.
//! This harness injects a controlled fraction of aborting ten-write GS
//! transactions and measures how each scheme's throughput degrades — the
//! quantitative version of the limitation the paper states qualitatively.

use std::sync::Arc;

use tstream_apps::gs;
use tstream_apps::runner::render_table;
use tstream_apps::workload::{Rng, WorkloadSpec};
use tstream_apps::SchemeKind;
use tstream_bench::HarnessConfig;
use tstream_core::{Engine, EngineConfig};

/// Poison a fraction of write transactions so that one of their ten writes
/// violates GS's "records must be non-negative" consistency check.
fn poison(events: &mut [gs::GsEvent], fraction: f64, seed: u64) -> usize {
    let mut rng = Rng::new(seed);
    let mut poisoned = 0;
    for event in events.iter_mut() {
        if let Some(writes) = &mut event.writes {
            if rng.chance(fraction) {
                let slot = rng.next_below(writes.len() as u64) as usize;
                writes[slot] = -1;
                poisoned += 1;
            }
        }
    }
    poisoned
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let cores = cfg.max_cores.min(8);
    let events_n = if cfg.quick { 6_000 } else { 60_000 };
    let schemes = [SchemeKind::Lock, SchemeKind::Mvlk, SchemeKind::TStream];

    println!(
        "Ablation: multi-write abort overhead on write-only GS \
         ({events_n} events, transaction length 10, {cores} cores)\n"
    );

    let mut rows = Vec::new();
    for abort_fraction in [0.0f64, 0.005, 0.02, 0.05, 0.10] {
        let spec = WorkloadSpec::default()
            .events(events_n)
            .read_ratio(0.0)
            .seed(0xAB07);
        let mut events = gs::generate(&spec);
        let poisoned = poison(&mut events, abort_fraction, 0xFEED);

        let mut row = vec![
            format!("{:.1}%", abort_fraction * 100.0),
            poisoned.to_string(),
        ];
        for scheme in schemes {
            let store = gs::build_store(&spec);
            let app = Arc::new(gs::GrepSum {
                with_summation: false,
            });
            let engine = Engine::new(EngineConfig::with_executors(cores).punctuation(500));
            let report = engine.run(&app, &store, events.clone(), &scheme.build(cores as u32));
            assert_eq!(
                report.rejected,
                poisoned as u64,
                "{}: every poisoned transaction (and only those) must be rejected",
                scheme.label()
            );
            row.push(format!("{:.1}", report.throughput_keps()));
        }
        rows.push(row);
    }

    let header: Vec<&str> = ["abort rate", "poisoned txns"]
        .into_iter()
        .chain(schemes.iter().map(|s| s.label()))
        .collect();
    println!("{}", render_table(&header, &rows));

    println!("Shape: with no aborts TStream is far ahead; as the fraction of aborting");
    println!("multi-write transactions grows, TStream pays an extra barrier round and a");
    println!("serial replay of each abort's closure (Section IV-F), so its advantage narrows");
    println!("while the lock-based schemes only undo the offending transaction.  Correctness is");
    println!("identical in all cases: rejected counts match the injected poison exactly.");
}
