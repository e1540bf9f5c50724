//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload of the repository benchmark and prints a readable
//! report followed by one JSON line: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). `--scale X` overrides the workload's
//! scale, `--reference FILE` the fixed points a pipeline workload is
//! checked against, and `--write-reference FILE` writes them instead
//! of running.

use perfbench::run::{run, write_reference, Config, Workload};
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<(Config, Option<String>), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale) = (701u64, 10.0f64, false, None);
    let (mut reference, mut write) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--scale" => {
                let v = value()?;
                scale = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad(&v))?,
                );
            }
            "--reference" => reference = Some(value()?.into()),
            "--write-reference" => write = Some(value()?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        Config {
            workload,
            seed,
            seconds,
            trace,
            scale: scale.unwrap_or_else(|| workload.scale()),
            reference,
        },
        write,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, write) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload long-run|short-window|ingest [--seed N] \
                 [--seconds S] [--trace 0|1] [--scale X] [--reference FILE] \
                 [--write-reference FILE]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(path) = write {
        return match write_reference(&config, path.as_ref()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&config) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
