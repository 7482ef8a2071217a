//! Result files: one run's, and a whole set's (`run`), both led by a header
//! that says what the numbers were measured on.

use std::path::Path;

use crate::host;
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::{RunArgs, RunResult};
use crate::stats::{median, quartiles};

fn metric_values(result: &RunResult, table: &[MetricDef]) -> Json {
    Json::obj(table.iter().filter_map(|m| {
        let value = result.values.get(m.name)?;
        Some((
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        ))
    }))
}

/// The line the driver reads: the last line of standard output.
pub fn result_line(result: &RunResult, trace: bool) -> Json {
    let table: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metric_values(result, table)),
    ])
}

/// Every metric by name with its unit, for a person to read.
pub fn print_metrics(result: &RunResult) {
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(value) = result.values.get(m.name) {
            println!("{:<40} {:>16.4} {}", m.name, value, m.unit);
        }
    }
}

/// One run's result file.
pub fn run_file(args: &RunArgs, result: &RunResult, repo: &Path) -> Json {
    let w = args.workload;
    let mut header = host::header(repo, &args.scratch);
    let num = |v: f64| Json::Num(v);
    header.extend([
        ("workload".to_owned(), Json::str(w.name)),
        ("why".to_owned(), Json::str(w.why)),
        ("seed".to_owned(), num(args.seed as f64)),
        ("seconds".to_owned(), num(args.seconds)),
        ("trace".to_owned(), Json::Bool(args.trace)),
        ("smoke".to_owned(), Json::Bool(args.smoke)),
        ("executors".to_owned(), num(w.executors as f64)),
        ("shards".to_owned(), num(w.shards as f64)),
        ("durable".to_owned(), Json::Bool(w.durable)),
        (
            "closed_events".to_owned(),
            num(result.scale.closed_events as f64),
        ),
        ("open_rate_per_s".to_owned(), num(w.open_rate)),
        (
            "open_events".to_owned(),
            num(result.scale.open_events as f64),
        ),
        (
            "open_ramp_events".to_owned(),
            num(result.scale.ramp_events as f64),
        ),
    ]);
    let all: Vec<MetricDef> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    Json::obj([
        ("header", Json::Obj(header)),
        ("valid", Json::Bool(result.invalid.is_empty())),
        (
            "invalid_because",
            Json::Arr(result.invalid.iter().map(Json::str).collect()),
        ),
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metric_values(result, &all)),
        ("counts", Json::Obj(result.counts.clone())),
        ("claim", Json::Null),
    ])
}

/// Median, quartiles and spread of one metric over a set's repetitions.
fn summarize(values: &[f64], unit: &str) -> Json {
    let mid = median(&mut values.to_vec());
    let mut pairs = vec![
        ("n", Json::Num(values.len() as f64)),
        ("median", Json::Num(mid)),
        ("unit", Json::str(unit)),
    ];
    // The acceptance rule's spread: quartile distance over the median.
    if let Some((q1, q3)) = quartiles(values) {
        pairs.extend([
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("spread", Json::Num((q3 - q1) / mid.abs())),
        ]);
    }
    Json::obj(pairs)
}

/// One workload's part of a set file, from its runs' result files.
pub fn workload_summary(runs: Vec<Json>) -> Json {
    let metric = |run: &Json, name: &str| {
        run.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let summary = END_TO_END.iter().chain(&PER_LAYER).filter_map(|m| {
        let values: Vec<f64> = runs.iter().filter_map(|run| metric(run, m.name)).collect();
        (!values.is_empty()).then(|| (m.name, summarize(&values, m.unit)))
    });
    Json::obj([("summary", Json::obj(summary)), ("runs", Json::Arr(runs))])
}
