//! Toll Processing (TP) end to end — the paper's motivating example
//! (Figure 2b), expressed first as a logical Storm-like DAG and then executed
//! as the fused operator with concurrent state access.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p tstream-apps --example toll_processing -- [events]
//! ```

use std::sync::Arc;

use tstream_apps::tp::{self, TollProcessing};
use tstream_apps::workload::WorkloadSpec;
use tstream_apps::SchemeKind;
use tstream_core::{Engine, EngineConfig};
use tstream_state::TableId;
use tstream_stream::topology::{Grouping, Topology};

fn main() {
    let events: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150_000);

    // ---- The logical DAG the user writes (Figure 2b).
    let mut dag = Topology::new();
    let parser = dag.add_operator("Parser", 2, false);
    let rs = dag.add_operator("Road Speed", 8, true);
    let vc = dag.add_operator("Vehicle Cnt", 8, true);
    let tn = dag.add_operator("Toll Notification", 8, true);
    let sink = dag.add_operator("Sink", 1, false);
    for op in [rs, vc, tn] {
        dag.connect(parser, op, Grouping::Shuffle);
        dag.connect(op, sink, Grouping::Shuffle);
    }
    dag.validate().expect("valid DAG");
    let fused = dag.fuse_stateful();
    println!(
        "fused operator: {:?} with parallelism {}",
        fused.names, fused.parallelism
    );

    // ---- Execute the fused operator over shared congestion state.
    let spec = WorkloadSpec::default().events(events).skew(tp::TP_SKEW);
    let payloads = tp::generate(&spec);
    let executors = std::thread::available_parallelism()
        .map(|p| p.get().min(fused.parallelism))
        .unwrap_or(4);
    let engine = Engine::new(EngineConfig::with_executors(executors).punctuation(500));
    let app = Arc::new(TollProcessing);

    println!("\nToll Processing: {events} traffic events, {executors} executors");
    println!(
        "{:>10}  {:>14}  {:>12}",
        "scheme", "throughput", "p99 latency"
    );
    for kind in [SchemeKind::Lock, SchemeKind::Pat, SchemeKind::TStream] {
        let store = tp::build_store(&spec);
        let report = engine.run(
            &app,
            &store,
            payloads.clone(),
            &kind.build(executors as u32),
        );
        println!(
            "{:>10}  {:>10.1} K/s  {:>9.2} ms",
            kind.label(),
            report.throughput_keps(),
            report
                .latency
                .percentile(99.0)
                .map(|d| d.as_secs_f64() * 1e3)
                .unwrap_or(0.0)
        );

        // Show a bit of the shared congestion state the run produced.
        if kind == SchemeKind::TStream {
            let speed = store.table(TableId(tp::SPEED_TABLE));
            let busiest = store
                .table(TableId(tp::COUNT_TABLE))
                .iter()
                .map(|(k, r)| (k, r.with_committed(|v| v.as_set().unwrap().len())))
                .max_by_key(|&(_, vehicles)| vehicles)
                .unwrap();
            println!(
                "    busiest segment: {} with {} unique vehicles, avg speed {:.1}",
                busiest.0,
                busiest.1,
                speed
                    .get(busiest.0)
                    .unwrap()
                    .read_committed()
                    .as_double()
                    .unwrap()
            );
        }
    }
}
