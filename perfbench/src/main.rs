//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics in an untraced run, the per-layer metrics in a
//! traced one. Exit codes: 0 with a result, 1 on a run-time error, 2 on a
//! usage error.

use ccured_perfbench::{run_workload, RunConfig, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload <plain|temporal> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(10),
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                cfg.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`",
            cfg.workload
        ));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_workload(&cfg) {
        Ok(out) => {
            for p in &out.problems {
                eprintln!("perfbench: INCORRECT: {p}");
            }
            for n in &out.notes {
                println!("perfbench: {n}");
            }
            println!("{}", out.summary_line(&cfg.workload, cfg.seed));
            println!("{}", out.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            ExitCode::from(1)
        }
    }
}
