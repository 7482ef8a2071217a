//! `compare <a.json> <b.json>`: is set B worse than set A?
//!
//! One row per (workload, end-to-end metric), never a combined score: a
//! change may help one workload and hurt another, and both must show.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread of either set is wider than the bound, so the
    /// comparison cannot tell: not the same as unchanged.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload in one set: median and, with at least two
/// repetitions, the quartile spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub median: f64,
    pub spread: Option<f64>,
}

/// Decide one row.
pub fn verdict(better: Better, bound: f64, a: Sample, b: Sample) -> Verdict {
    let spread = a.spread.into_iter().chain(b.spread).fold(0.0, f64::max);
    if spread > bound {
        Verdict::Unresolved
    } else if better.worsening(a.median, b.median) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn sample(set: &Json, workload: &str, metric: &str) -> Option<Sample> {
    let summary = set
        .get("workloads")?
        .get(workload)?
        .get("summary")?
        .get(metric)?;
    Some(Sample {
        median: summary.get("median")?.as_f64()?,
        spread: summary.get("spread").and_then(Json::as_f64),
    })
}

/// One compared row.
pub struct Row {
    pub workload: String,
    pub metric: &'static MetricDef,
    pub a: Sample,
    pub b: Sample,
    pub verdict: Verdict,
}

/// Compare two set files; rows in workload order of A, metric order of the
/// table.  A pair present in only one set is an error, not a silent skip.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .ok_or("first file has no `workloads`: is it the output of `run`?")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads.members() {
        for metric in &END_TO_END {
            let missing =
                |which: &str| format!("{which} file lacks {} for {workload}", metric.name);
            let sa = sample(a, workload, metric.name).ok_or_else(|| missing("first"))?;
            let sb = sample(b, workload, metric.name).ok_or_else(|| missing("second"))?;
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            rows.push(Row {
                workload: workload.clone(),
                metric,
                a: sa,
                b: sb,
                verdict: verdict(metric.better, bound, sa, sb),
            });
        }
    }
    Ok(rows)
}

/// Print the table; returns whether every row is `ok`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<12} {:<22} {:>12} {:>12} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "bound"
    );
    let pct = |s: Option<f64>| s.map_or_else(|| "-".to_owned(), |s| format!("{:.1}%", s * 100.0));
    for row in rows {
        println!(
            "{:<12} {:<22} {:>12.4} {:>12.4} {:>9.4} {:>8} {:>8} {:>5.0}%  {}",
            row.workload,
            row.metric.name,
            row.a.median,
            row.b.median,
            row.b.median / row.a.median,
            pct(row.a.spread),
            pct(row.b.spread),
            row.metric.bound.unwrap_or(0.0) * 100.0,
            row.verdict.label(),
        );
    }
    println!(
        "B/A has A as its base.  worse: B's median is worse than A's by more than the bound; \
         unresolved: a set's quartile spread is wider than the bound."
    );
    rows.iter().all(|row| row.verdict == Verdict::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    fn s(median: f64, spread: Option<f64>) -> Sample {
        Sample { median, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Throughput (higher is better), bound 10 %.
        assert_eq!(
            verdict(Higher, 0.1, s(500.0, None), s(460.0, None)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Higher, 0.1, s(500.0, None), s(440.0, None)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Higher, 0.1, s(500.0, None), s(900.0, None)),
            Verdict::Ok
        );
        // Latency (lower is better), bound 15 %.
        assert_eq!(
            verdict(Lower, 0.15, s(2.0, Some(0.03)), s(2.2, Some(0.04))),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Lower, 0.15, s(2.0, Some(0.03)), s(2.4, Some(0.04))),
            Verdict::Worse
        );
        // A spread wider than the bound in either set: cannot tell.
        assert_eq!(
            verdict(Lower, 0.15, s(2.0, Some(0.2)), s(2.0, Some(0.01))),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Lower, 0.15, s(2.0, Some(0.01)), s(9.0, Some(0.3))),
            Verdict::Unresolved
        );
    }

    #[test]
    fn sets_compare_row_by_row_and_missing_pairs_are_errors() {
        let set = |keps: f64| {
            let summary = END_TO_END.iter().map(|m| {
                let median = if m.name == "throughput_keps" {
                    keps
                } else {
                    1.0
                };
                (
                    m.name,
                    Json::obj([("median", Json::Num(median)), ("spread", Json::Num(0.01))]),
                )
            });
            Json::obj([(
                "workloads",
                Json::obj([("sl_dep", Json::obj([("summary", Json::obj(summary))]))]),
            )])
        };
        let rows = compare(&set(500.0), &set(350.0)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        for row in &rows {
            let expected = if row.metric.name == "throughput_keps" {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            assert_eq!(row.verdict, expected, "{}", row.metric.name);
        }
        let empty = Json::obj([("workloads", Json::obj([("sl_dep", Json::Obj(vec![]))]))]);
        assert!(compare(&set(500.0), &empty).is_err());
        assert!(compare(&Json::Null, &set(1.0)).is_err());
    }
}
