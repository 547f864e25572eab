//! `mob-bench run --workload <name> --seed <n> [--seconds <s>]
//! [--trace [0|1]] [--out <file>] [--scale smoke|full]`
//!
//! `mob-bench diff <A> <B> [--spec BENCHMARK.json]`

use mob_workload_bench::diff::{diff, load_runs, Spec};
use mob_workload_bench::run::{run, Args};
use mob_workload_bench::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  mob-bench run --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
                [--out <file>] [--scale smoke|full]
  mob-bench diff <A> <B> [--spec <BENCHMARK.json>]";

fn parse_run(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
        scale: Scale::Full,
        inject_wrong_answer: false,
    };
    let mut seed = None;
    let mut it = it.by_ref().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--scale" => {
                let s = value("--scale")?;
                args.scale = Scale::parse(&s).ok_or(format!("--scale: unknown scale {s:?}"))?;
            }
            "--inject-wrong-answer" => args.inject_wrong_answer = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

fn cmd_run(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let args = parse_run(args)?;
    let outcome = run(&args)?;
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<30} {value:>16.4} {unit}");
    }
    println!(
        "checks {}  attempted {}  failed {}",
        outcome.checks, outcome.attempted, outcome.failed
    );
    println!("{}", outcome.line());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_diff(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = args;
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec = PathBuf::from(it.next().ok_or("--spec needs a value")?);
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("diff takes exactly two result files".into());
    };
    let spec = Spec::load(&spec)?;
    let (report, regressed) = diff(&spec, &load_runs(a)?, &load_runs(b)?);
    print!("{report}");
    if regressed {
        println!("end-to-end regression: B is worse than A beyond a bound");
        return Ok(ExitCode::from(1));
    }
    println!("no end-to-end regression");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("run") => cmd_run(args),
        Some("diff") => cmd_diff(args),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("mob-bench: {e}");
        ExitCode::from(2)
    })
}
