//! The `bench` binary.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload; last stdout line is the result object
//! bench run  [--seed N] [--seconds S] [--reps R] [--out FILE]      every workload, untraced then traced, one result file
//! bench diff <baseline.json> <candidate.json>                     rows against the bounds; non-zero exit on a regression
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use conquer_perfbench::driver::{self, RunAll, RUN_SECONDS};
use conquer_perfbench::json::Json;
use conquer_perfbench::{diff, host};

const USAGE: &str = "usage:
  bench --workload <adhoc_fig8|served_read|served_mix|durable_dml> --seed <n> --seconds <s> --trace <0|1>
  bench run [--seed N] [--seconds S] [--reps R] [--out FILE]
  bench diff <baseline.json> <candidate.json>";

/// `--key value` pairs after the subcommand; unknown keys are an error.
fn options(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(
    opts: &[(String, String)],
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match opts.iter().rev().find(|(k, _)| k == key) {
        Some((_, v)) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn one_workload(args: &[String]) -> Result<bool, String> {
    let opts = options(args, &["workload", "seed", "seconds", "trace", "detail"])?;
    let workload: String = get(&opts, "workload", None)?;
    let seed: u64 = get(&opts, "seed", None)?;
    let seconds: u64 = get(&opts, "seconds", None)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1..=60"));
    }
    let traced = match get::<u8>(&opts, "trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let report = driver::run_workload(&workload, seed, seconds, traced)?;
    print!("{}", report.render());
    if let Ok(path) = get::<PathBuf>(&opts, "detail", None) {
        std::fs::write(&path, report.to_json().compact())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The contract: the result object is the last line of standard output.
    println!("{}", report.contract_line());
    Ok(report.correct())
}

fn run_all(args: &[String]) -> Result<bool, String> {
    let opts = options(args, &["seed", "seconds", "reps", "out"])?;
    driver::run_all(&RunAll {
        seed: get(&opts, "seed", Some(12))?,
        seconds: get(&opts, "seconds", Some(RUN_SECONDS))?,
        reps: get(&opts, "reps", Some(3))?,
        out: get(&opts, "out", Some(host::scratch_root().join("BENCH.json")))?,
    })
}

fn diff_files(args: &[String]) -> Result<bool, String> {
    let [baseline, candidate] = args else {
        return Err("diff takes exactly two files".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let d = diff::diff(&load(baseline)?, &load(candidate)?);
    print!("{}", diff::render(&d));
    Ok(!d.failed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("diff") => diff_files(&args[1..]),
        Some(flag) if flag.starts_with("--") => one_workload(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Output checks failed (or a regression was found): the numbers
        // were printed, and the exit code says not to trust them.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
