//! The repo's benchmark: seven workloads, the end-to-end metrics a user of
//! the engine sees, and a per-layer ladder timed from outside.  `README.md`
//! beside `Cargo.toml` defines every workload and metric; `BENCHMARK.json` at
//! the repo root lists them for the driver.
//!
//! ```text
//! tstream-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tstream-benchmark run --seed <n> [--seconds <s>] [--reps <k>] [--trace] --out <file>
//! tstream-benchmark compare <a.json> <b.json>
//! ```

mod compare;
mod host;
mod json;
mod metrics;
mod phases;
mod probes;
mod report;
mod run;
mod schedule;
mod stamped;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use run::{run_workload, RunArgs};
use workloads::{Workload, REFERENCE_SECONDS, WORKLOADS};

/// Exit code of a run whose results differ from the reference.
const EXIT_INCORRECT: u8 = 1;
/// Exit code of a usage error, a refused build, or a phase that failed.
const EXIT_ERROR: u8 = 2;
/// Exit code of `run` when a measurement was invalid (late generator,
/// growing backlog, one CPU), and of `compare` when a row is not `ok`.
const EXIT_INVALID: u8 = 3;

fn main() -> ExitCode {
    host::start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_set(&args[1..]),
        Some("compare") => compare_sets(&args[1..]),
        _ => run_one(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("tstream-benchmark: {message}");
        ExitCode::from(EXIT_ERROR)
    })
}

/// The benchmark's own directory: where scratch and result files go, so that
/// everything it writes stays inside the checkout it was built in.
fn home() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn value_of<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match value_of(args, name) {
        None => Ok(default),
        Some(text) => text.parse().map_err(|e| format!("{name} {text}: {e}")),
    }
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, format!("{value}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload, once: what the driver calls.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let name = value_of(args, "--workload").ok_or(
        "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | run ... | compare <a> <b>",
    )?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; the workloads are {names:?}")
    })?;
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", REFERENCE_SECONDS)?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds}: must be between 1 and 60"));
    }
    let trace = match value_of(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: must be 0 or 1")),
    };
    let smoke = has(args, "--smoke");
    if host::debug_build() && !smoke {
        return Err("refusing to measure a debug build: run with --release".into());
    }

    let tag = format!("{name}-seed{seed}-trace{}", trace as u8);
    let home = home();
    let out = value_of(args, "--out").map_or_else(
        || home.join(".out").join(format!("{tag}.json")),
        PathBuf::from,
    );
    let run_args = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        scratch: home
            .join(".scratch")
            .join(format!("{tag}-{}", std::process::id())),
    };
    let result = run_workload(&run_args)?;

    let repo = home.parent().unwrap_or(&home);
    write_json(&out, &report::run_file(&run_args, &result, repo))?;
    if let Some(trace) = &result.trace {
        write_json(&out.with_extension("trace.json"), trace)?;
    }
    report::print_metrics(&result);
    for reason in &result.invalid {
        eprintln!("tstream-benchmark: measurement not valid: {reason}");
    }
    // Last line of standard output: what the driver parses.
    println!("{}", report::result_line(&result, trace));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tstream-benchmark: {} of {} results differ from the reference",
            result.failed, result.attempted
        );
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// Every workload, `--reps` times each, every run in a process of its own
/// (so `peak_rss_mb` is that run's high-water mark), into one set file.
fn run_set(args: &[String]) -> Result<ExitCode, String> {
    let out = PathBuf::from(value_of(args, "--out").ok_or("run: --out <file> is required")?);
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", REFERENCE_SECONDS)?;
    let reps: u64 = parsed(args, "--reps", 1)?;
    let trace = has(args, "--trace");
    let smoke = has(args, "--smoke");
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let home = home();
    let run_dir = home
        .join(".out")
        .join(format!("set-{}", std::process::id()));

    let mut workloads = Vec::new();
    let (mut incorrect, mut invalid) = (0, 0);
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for rep in 0..reps {
            let file = run_dir.join(format!("{}-{rep}.json", w.name));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name])
                .args(["--seed", &(seed + rep).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&file)
                .stdout(std::process::Stdio::null());
            if smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child: no process outlives this one.
            let status = child.status().map_err(|e| format!("{}: {e}", w.name))?;
            match status.code() {
                Some(0) => {}
                Some(code) if code == EXIT_INCORRECT as i32 => incorrect += 1,
                _ => return Err(format!("{} (seed {}): {status}", w.name, seed + rep)),
            }
            let run = read_json(&file.to_string_lossy())?;
            invalid += (run.get("valid") != Some(&Json::Bool(true))) as usize;
            runs.push(run);
            if trace {
                let from = file.with_extension("trace.json");
                let to = out.with_extension(format!("{}-{rep}.trace.json", w.name));
                std::fs::rename(&from, &to).map_err(|e| format!("{}: {e}", from.display()))?;
            }
        }
        let summary = report::workload_summary(runs);
        print_summary(w, &summary);
        workloads.push((w.name, summary));
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    let repo = home.parent().unwrap_or(&home);
    let mut header = host::header(repo, &home);
    header.extend([
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("reps".to_owned(), Json::Num(reps as f64)),
        ("trace".to_owned(), Json::Bool(trace)),
    ]);
    let set = Json::obj([
        ("header", Json::Obj(header)),
        ("workloads", Json::obj(workloads)),
        ("claim", Json::Null),
    ]);
    write_json(&out, &set)?;
    println!(
        "{} runs not correct, {} not valid; wrote {}",
        incorrect,
        invalid,
        out.display()
    );
    // This benchmark defines names; it claims no gain.
    println!("\"claim\": null");
    Ok(if incorrect > 0 {
        ExitCode::from(EXIT_INCORRECT)
    } else if invalid > 0 {
        ExitCode::from(EXIT_INVALID)
    } else {
        ExitCode::SUCCESS
    })
}

fn print_summary(w: &Workload, summary: &Json) {
    println!("== {} — {}", w.name, w.why);
    let Some(metrics) = summary.get("summary") else {
        return;
    };
    for (name, s) in metrics.members() {
        let field = |key: &str| s.get(key).and_then(Json::as_f64);
        let spread =
            field("spread").map_or_else(String::new, |s| format!("  spread {:.1}%", s * 100.0));
        println!(
            "  {:<40} {:>16.4} {}{}",
            name,
            field("median").unwrap_or(f64::NAN),
            s.get("unit").and_then(Json::as_str).unwrap_or(""),
            spread
        );
    }
}

fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let rows = compare::compare(&read_json(a)?, &read_json(b)?)?;
    Ok(if compare::print(&rows) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INVALID)
    })
}
