//! Dispatch one workload by name, and `bench run`: every workload in its
//! own child process, untraced then traced, collected into one result file.

use std::path::Path;
use std::process::Command;

use crate::host;
use crate::json::Json;
use crate::metrics::{self, WORKLOADS};
use crate::report::WorkloadReport;
use crate::samples::Samples;
use crate::workloads::{adhoc_fig8, durable_dml, served};

/// The `--seconds` budget `BENCHMARK.json` declares (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Run one workload in this process with the op counts its `--seconds`
/// budget implies. Refuses ambient `CONQUER_*` configuration.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<WorkloadReport, String> {
    host::guard_env()?;
    Ok(match name {
        "adhoc_fig8" => adhoc_fig8::run(
            seed,
            seconds,
            traced,
            adhoc_fig8::Sizes::for_seconds(seconds),
        ),
        "served_read" => served::run(
            false,
            seed,
            seconds,
            traced,
            served::Sizes::for_seconds(false, seconds),
        ),
        "served_mix" => served::run(
            true,
            seed,
            seconds,
            traced,
            served::Sizes::for_seconds(true, seconds),
        ),
        "durable_dml" => durable_dml::run(
            seed,
            seconds,
            traced,
            durable_dml::Sizes::for_seconds(seconds),
        ),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// Options of `bench run`.
#[derive(Debug, Clone)]
pub struct RunAll {
    /// The run seed.
    pub seed: u64,
    /// `--seconds` handed to every child.
    pub seconds: u64,
    /// Untraced repetitions per workload (their spread goes in the file).
    pub reps: usize,
    /// Where to write the result file.
    pub out: std::path::PathBuf,
}

/// Run one workload in a child process (so `peak_rss_mb` is that
/// workload's own) and read back its detailed report.
fn child(workload: &str, opts: &RunAll, traced: bool, detail: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the bench binary: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(detail)
        .status()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = std::fs::read_to_string(detail)
        .map_err(|e| format!("{workload} left no report ({status}): {e}"))?;
    let _ = std::fs::remove_file(detail);
    Json::parse(&text).map_err(|e| format!("{workload} report: {e}"))
}

/// `bench run`: every workload untraced (`reps` rounds over all four) then
/// traced once, each run in its own child process; write the result file; report whether
/// every output check passed.
pub fn run_all(opts: &RunAll) -> Result<bool, String> {
    host::guard_env()?;
    let scratch = host::scratch_root();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let detail = scratch.join(format!("detail-{}.json", std::process::id()));

    // Repetitions go round-robin over the workloads, not back to back: a
    // shared host's speed drifts over minutes, and a file whose repetitions
    // of one workload span the whole run carries that drift in its own
    // spread — where `bench diff` can see it — instead of hiding it.
    let reps = opts.reps.max(1);
    let mut untraced: Vec<Vec<Json>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (runs, workload) in untraced.iter_mut().zip(WORKLOADS) {
            eprintln!("-- {workload}: untraced run {}/{reps}", rep + 1);
            runs.push(child(workload, opts, false, &detail)?);
        }
    }

    let mut all_correct = true;
    let mut workloads = Json::obj();
    for (runs, workload) in untraced.into_iter().zip(WORKLOADS) {
        eprintln!("-- {workload}: traced run");
        let traced = child(workload, opts, true, &detail)?;

        // Summarize each end-to-end metric over the repetitions.
        let mut summary = Json::obj();
        for def in metrics::END_TO_END
            .iter()
            .filter(|m| m.applies_to(workload))
        {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("end_to_end")?.get(def.name)?.get("value")?.as_f64())
                .collect();
            let s = Samples::new(values.clone());
            let (q1, q3) = s.quartiles();
            let mut m = Json::obj();
            m.push("unit", def.unit)
                .push("better", def.better.as_str())
                .push("bound", def.bound)
                .push("median", s.median())
                .push("q1", q1)
                .push("q3", q3)
                .push("spread", s.spread())
                .push(
                    "values",
                    values.into_iter().map(Json::Num).collect::<Vec<_>>(),
                );
            summary.push(def.name, m);
        }
        for r in runs.iter().chain([&traced]) {
            all_correct &= r.get("correct").and_then(Json::as_bool) == Some(true);
        }
        let mut w = Json::obj();
        w.push("end_to_end", summary)
            .push(
                "per_layer",
                traced.get("per_layer").cloned().unwrap_or(Json::Null),
            )
            .push(
                "fingerprints",
                runs[0].get("fingerprints").cloned().unwrap_or(Json::Null),
            )
            .push(
                "counts",
                runs[0].get("counts").cloned().unwrap_or(Json::Null),
            )
            .push("untraced_runs", Json::Arr(runs))
            .push("traced_run", traced);
        workloads.push(workload, w);
    }

    let mut doc = Json::obj();
    doc.push("benchmark", "conquer-perfbench")
        .push("host", host::fingerprint())
        .push("seed", opts.seed)
        .push("seconds", opts.seconds)
        .push("reps", opts.reps.max(1))
        .push("correct", all_correct)
        .push("workloads", workloads);
    if let Some(parent) = opts.out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&opts.out, doc.pretty()).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    print_summary(&doc);
    eprintln!("wrote {}", opts.out.display());
    Ok(all_correct)
}

/// Print every metric of a result file by name with its unit.
pub fn print_summary(doc: &Json) {
    for (workload, w) in doc.get("workloads").map_or(&[][..], Json::fields) {
        println!("== {workload} ==");
        for (name, m) in w.get("end_to_end").map_or(&[][..], Json::fields) {
            println!(
                "  {name:<22} {:>14.4} {:<6} (q1 {:.4}, q3 {:.4}, spread {:.1}% of bound {:.0}%)",
                m.get("median").and_then(Json::as_f64).unwrap_or(0.0),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
                m.get("q1").and_then(Json::as_f64).unwrap_or(0.0),
                m.get("q3").and_then(Json::as_f64).unwrap_or(0.0),
                m.get("spread").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
                m.get("bound").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
            );
        }
        for (name, m) in w.get("per_layer").map_or(&[][..], Json::fields) {
            println!(
                "  {name:<36} {:>16.4} {}",
                m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
            );
        }
        for run in w
            .get("untraced_runs")
            .map_or(&[][..], Json::items)
            .iter()
            .chain(w.get("traced_run"))
        {
            for c in run.get("checks").map_or(&[][..], Json::items) {
                if c.get("passed").and_then(Json::as_bool) != Some(true) {
                    println!(
                        "  [FAIL] {}: {}",
                        c.get("name").and_then(Json::as_str).unwrap_or("?"),
                        c.get("detail").and_then(Json::as_str).unwrap_or("")
                    );
                }
            }
        }
    }
    println!(
        "output checks: {}",
        if doc.get("correct").and_then(Json::as_bool) == Some(true) {
            "all passed"
        } else {
            "FAILED"
        }
    );
}
