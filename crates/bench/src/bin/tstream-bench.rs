//! `tstream-bench <experiment> [--quick]`: run one experiment of the paper's
//! evaluation, print its tables and check its claims.
//!
//! `tstream-bench claims [--quick]` runs every experiment and prints one
//! verdict table.  Either form exits non-zero only when a claim that must
//! hold on any host fails.

use std::process::ExitCode;

use tstream_bench::{run_experiment, verdict_table, HarnessConfig, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = HarnessConfig::new(args.iter().any(|a| a == "--quick"));
    let reports = match args.iter().filter(|a| *a != "--quick").collect::<Vec<_>>()[..] {
        [name] if name == "claims" => Ok(EXPERIMENTS.iter().map(|(_, run)| run(&cfg)).collect()),
        [name] => run_experiment(name, &cfg).map(|report| {
            print!("{}", report.text);
            vec![report]
        }),
        _ => Err("usage: tstream-bench <experiment | claims> [--quick]".to_string()),
    };
    let claims: Vec<_> = match reports {
        Ok(reports) => reports.into_iter().flat_map(|r| r.claims).collect(),
        Err(message) => {
            eprintln!("tstream-bench: {message}");
            return ExitCode::from(2);
        }
    };
    println!("Claims ({} CPUs):\n\n{}", cfg.cpus, verdict_table(&claims));
    ExitCode::from(u8::from(claims.iter().any(|c| c.gates())))
}
