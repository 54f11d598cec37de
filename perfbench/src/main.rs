//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints a readable summary followed by one JSON
//! result line (`correct`, `attempted`, `failed`, `metrics`). Exits 1
//! when a correctness check fails, 2 on a usage error.

use perfbench::{run, Options, Sizes, Workload};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload refine-dense|query-sparse|serve-durable|serve-sched \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse() -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::RefineDense,
        seed: 1,
        window: Duration::from_secs(10),
        traced: false,
        sizes: Sizes::FULL,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&secs) {
                    return Err("--seconds must lie in [0, 3600]".to_string());
                }
                opts.window = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&opts);
    let metrics = report.finish(opts.traced);
    for line in &report.notes {
        println!("{line}");
    }
    for (def, value) in &metrics {
        let moves = if opts.traced {
            format!("  -> {}", def.moves)
        } else {
            String::new()
        };
        println!("  {:<32} {value:>16.6} {:<6}{moves}", def.name, def.unit);
    }
    println!(
        "  operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", report.json_line(&metrics));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
