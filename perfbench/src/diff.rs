//! `bench diff <baseline.json> <candidate.json>`: one row per workload ×
//! end-to-end metric against the catalogue's bounds.
//!
//! A row is a **regression** when the candidate's median is worse than the
//! baseline's by more than the bound *and* the difference is resolvable:
//! larger than either file's own run-to-run spread (interquartile range
//! over median of its repetitions), or every candidate run worse than
//! every baseline run. A difference beyond the bound that the spread could
//! explain, or a spread wider than the bound itself, reads **unresolved** —
//! never "unchanged". Every ratio is printed with its base. Fingerprints
//! are compared when the two files share a seed.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};

/// Verdict on one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regression,
    /// The files' own spread exceeds the bound; no call made.
    Unresolved,
    /// One of the files does not report the metric.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
        }
    }
}

/// One compared row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline median (the base of the ratio).
    pub base: f64,
    /// Candidate median.
    pub candidate: f64,
    /// Share of the base by which the candidate is worse (negative: better).
    pub worsening: f64,
    /// The wider of the two files' own spreads.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The outcome of a comparison.
#[derive(Debug, Default)]
pub struct Diff {
    /// One row per workload × applicable end-to-end metric.
    pub rows: Vec<Row>,
    /// Fingerprints present in both files that differ (`workload/key`).
    pub fingerprint_mismatches: Vec<String>,
    /// Exact counts that differ (informational: a change may move them).
    pub count_changes: Vec<String>,
    /// Whether fingerprints were compared (same seed and budget).
    pub fingerprints_compared: bool,
    /// Whether the candidate's own output checks passed.
    pub candidate_correct: bool,
}

impl Diff {
    /// Whether `bench diff` should exit non-zero.
    pub fn failed(&self) -> bool {
        !self.candidate_correct
            || !self.fingerprint_mismatches.is_empty()
            || self
                .rows
                .iter()
                .any(|r| matches!(r.verdict, Verdict::Regression | Verdict::Missing))
    }
}

struct Side {
    median: f64,
    spread: f64,
    values: Vec<f64>,
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Side {
        median: m.get("median")?.as_f64()?,
        spread: m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
        values: m
            .get("values")
            .map_or(&[][..], Json::items)
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

fn judge(def: &EndToEnd, base: &Side, cand: &Side) -> (f64, Verdict) {
    let worse_by = |b: f64, c: f64| match def.better {
        Better::Lower => c - b,
        Better::Higher => b - c,
    };
    let delta = worse_by(base.median, cand.median);
    let worsening = if base.median == 0.0 {
        // A zero base (fail_share) has no ratio; any worsening is infinite.
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.median.abs()
    };
    let every = |pred: fn(f64) -> bool| {
        !base.values.is_empty()
            && !cand.values.is_empty()
            && base
                .values
                .iter()
                .all(|&b| cand.values.iter().all(|&c| pred(worse_by(b, c))))
    };
    // A difference is resolvable when it is larger than either file's own
    // run-to-run spread, or when every run of one file is on one side of
    // every run of the other (which no spread explains).
    let spread = base.spread.max(cand.spread);
    let verdict = if worsening > def.bound {
        if worsening > spread || every(|d| d > 0.0) {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worsening < -def.bound.max(f64::MIN_POSITIVE) {
        if -worsening > spread || every(|d| d < 0.0) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if spread > def.bound && def.bound > 0.0 {
        // Too noisy to call unchanged.
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worsening, verdict)
}

/// Compare two result files written by `bench run`.
pub fn diff(baseline: &Json, candidate: &Json) -> Diff {
    let mut out = Diff {
        candidate_correct: candidate.get("correct").and_then(Json::as_bool) == Some(true),
        ..Diff::default()
    };
    for workload in WORKLOADS {
        for def in END_TO_END.iter().filter(|m| m.applies_to(workload)) {
            let row = match (
                side(baseline, workload, def.name),
                side(candidate, workload, def.name),
            ) {
                (Some(b), Some(c)) => {
                    let (worsening, verdict) = judge(def, &b, &c);
                    Row {
                        workload,
                        metric: def.name,
                        base: b.median,
                        candidate: c.median,
                        worsening,
                        spread: b.spread.max(c.spread),
                        verdict,
                    }
                }
                _ => Row {
                    workload,
                    metric: def.name,
                    base: 0.0,
                    candidate: 0.0,
                    worsening: 0.0,
                    spread: 0.0,
                    verdict: Verdict::Missing,
                },
            };
            out.rows.push(row);
        }
    }

    let same_inputs = ["seed", "seconds"]
        .iter()
        .all(|k| baseline.get(k).is_some() && baseline.get(k) == candidate.get(k));
    out.fingerprints_compared = same_inputs;
    if same_inputs {
        for workload in WORKLOADS {
            let section = |doc: &'_ Json, key: &str| -> Vec<(String, Json)> {
                doc.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get(key))
                    .map_or(Vec::new(), |f| f.fields().to_vec())
            };
            let cand_fps = section(candidate, "fingerprints");
            for (key, base_fp) in section(baseline, "fingerprints") {
                match cand_fps.iter().find(|(k, _)| *k == key) {
                    Some((_, fp)) if *fp == base_fp => {}
                    _ => out.fingerprint_mismatches.push(format!("{workload}/{key}")),
                }
            }
            let cand_counts = section(candidate, "counts");
            for (key, base_count) in section(baseline, "counts") {
                if let Some((_, c)) = cand_counts.iter().find(|(k, _)| *k == key) {
                    if *c != base_count {
                        out.count_changes.push(format!(
                            "{workload}/{key}: {} -> {}",
                            base_count.compact(),
                            c.compact()
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Render the comparison as the table `bench diff` prints.
pub fn render(d: &Diff) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "candidate", "cand/base", "worse", "bound"
    );
    for r in &d.rows {
        let def = END_TO_END
            .iter()
            .find(|m| m.name == r.metric)
            .expect("rows come from the catalogue");
        let ratio = if r.base == 0.0 {
            "-".to_string()
        } else {
            format!("{:.3}", r.candidate / r.base)
        };
        let _ = writeln!(
            out,
            "{:<12} {:<22} {:>14.4} {:>14.4} {:>9} {:>6.1}% {:>6.1}%  {}{}",
            r.workload,
            r.metric,
            r.base,
            r.candidate,
            ratio,
            r.worsening * 100.0,
            def.bound * 100.0,
            r.verdict.as_str(),
            if r.verdict == Verdict::Unresolved {
                format!(" (own spread {:.1}% > bound)", r.spread * 100.0)
            } else {
                String::new()
            },
        );
    }
    if d.fingerprints_compared {
        let _ = writeln!(
            out,
            "fingerprints: {}",
            if d.fingerprint_mismatches.is_empty() {
                "identical".to_string()
            } else {
                format!("MISMATCH in {}", d.fingerprint_mismatches.join(", "))
            }
        );
        for c in &d.count_changes {
            let _ = writeln!(out, "count changed: {c}");
        }
    } else {
        let _ = writeln!(
            out,
            "fingerprints: not compared (the files differ in seed or budget)"
        );
    }
    if !d.candidate_correct {
        let _ = writeln!(out, "candidate failed its own output checks");
    }
    let _ = writeln!(out, "result: {}", if d.failed() { "FAIL" } else { "pass" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file where every metric of every workload has the given
    /// repetitions (scaled per metric so values are distinct).
    fn file(values: &[f64], fingerprint: &str) -> Json {
        let mut workloads = Json::obj();
        for w in WORKLOADS {
            let mut e2e = Json::obj();
            for def in END_TO_END.iter().filter(|m| m.applies_to(w)) {
                let zero = def.name == "fail_share";
                let vals: Vec<f64> = values.iter().map(|v| if zero { 0.0 } else { *v }).collect();
                let s = crate::samples::Samples::new(vals.clone());
                let mut m = Json::obj();
                m.push("median", s.median())
                    .push("spread", s.spread())
                    .push(
                        "values",
                        vals.into_iter().map(Json::Num).collect::<Vec<_>>(),
                    );
                e2e.push(def.name, m);
            }
            let mut fps = Json::obj();
            fps.push("final_state", fingerprint);
            let mut counts = Json::obj();
            counts.push("statements", 100u64);
            let mut wl = Json::obj();
            wl.push("end_to_end", e2e)
                .push("fingerprints", fps)
                .push("counts", counts);
            workloads.push(w, wl);
        }
        let mut doc = Json::obj();
        doc.push("seed", 1u64)
            .push("seconds", 20u64)
            .push("correct", true)
            .push("workloads", workloads);
        doc
    }

    fn verdict(d: &Diff, workload: &str, metric: &str) -> Verdict {
        d.rows
            .iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .unwrap()
            .verdict
    }

    #[test]
    fn identical_files_pass_both_ways() {
        let a = file(&[100.0, 101.0, 102.0], "aa");
        let d = diff(&a, &a);
        assert!(!d.failed(), "{}", render(&d));
        assert!(d.fingerprints_compared && d.fingerprint_mismatches.is_empty());
        assert!(d.rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn direction_decides_what_a_larger_number_means() {
        let a = file(&[99.5, 100.0, 100.5], "aa");
        let b = file(&[129.5, 130.0, 130.5], "aa");
        let d = diff(&a, &b);
        assert!(d.failed());
        assert_eq!(
            verdict(&d, "served_read", "read_p50_ms"),
            Verdict::Regression
        );
        assert_eq!(verdict(&d, "served_read", "qps"), Verdict::Improved);
        let back = diff(&b, &a);
        assert_eq!(
            verdict(&back, "served_read", "read_p50_ms"),
            Verdict::Improved
        );
        assert_eq!(verdict(&back, "served_read", "qps"), Verdict::Regression);
        let text = render(&d);
        assert!(
            text.contains("1.300") && text.contains("REGRESSION"),
            "{text}"
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_agrees() {
        // 12% worse on medians, but each file's own spread is ~40%.
        let a = file(&[80.0, 100.0, 120.0], "aa");
        let b = file(&[90.0, 112.0, 135.0], "aa");
        let d = diff(&a, &b);
        assert_eq!(
            verdict(&d, "adhoc_fig8", "clean_pass_ms"),
            Verdict::Unresolved
        );
        assert!(render(&d).contains("unresolved (own spread"));
        // Every candidate run beyond every baseline run: no spread explains that.
        let c = file(&[200.0, 240.0, 300.0], "aa");
        assert_eq!(
            verdict(&diff(&a, &c), "adhoc_fig8", "clean_pass_ms"),
            Verdict::Regression
        );
    }

    #[test]
    fn fingerprint_mismatch_and_failed_checks_fail_the_diff() {
        let a = file(&[100.0, 100.0, 100.0], "aa");
        let b = file(&[100.0, 100.0, 100.0], "bb");
        let d = diff(&a, &b);
        assert!(d.failed());
        assert_eq!(d.fingerprint_mismatches.len(), WORKLOADS.len());
        assert!(render(&d).contains("MISMATCH"));

        let mut c = file(&[100.0, 100.0, 100.0], "aa");
        if let Json::Obj(fields) = &mut c {
            fields.retain(|(k, _)| k != "correct");
        }
        c.push("correct", false);
        assert!(diff(&a, &c).failed());
    }

    #[test]
    fn zero_bound_metrics_tolerate_nothing() {
        let a = file(&[100.0, 100.0, 100.0], "aa");
        let mut b = file(&[100.0, 100.0, 100.0], "aa");
        // Raise fail_share on one workload from 0.
        let Json::Obj(root) = &mut b else {
            unreachable!()
        };
        let (_, Json::Obj(workloads)) = root.iter_mut().find(|(k, _)| k == "workloads").unwrap()
        else {
            unreachable!()
        };
        let (_, Json::Obj(wl)) = &mut workloads[0] else {
            unreachable!()
        };
        let (_, Json::Obj(e2e)) = wl.iter_mut().find(|(k, _)| k == "end_to_end").unwrap() else {
            unreachable!()
        };
        let (_, m) = e2e.iter_mut().find(|(k, _)| k == "fail_share").unwrap();
        let mut worse = Json::obj();
        worse
            .push("median", 0.01)
            .push("spread", 0.0)
            .push("values", vec![Json::Num(0.01)]);
        *m = worse;
        let d = diff(&a, &b);
        assert_eq!(verdict(&d, WORKLOADS[0], "fail_share"), Verdict::Regression);
    }

    #[test]
    fn different_seeds_skip_fingerprints() {
        let a = file(&[100.0, 100.0, 100.0], "aa");
        let mut b = file(&[100.0, 100.0, 100.0], "bb");
        if let Json::Obj(fields) = &mut b {
            fields.retain(|(k, _)| k != "seed");
        }
        b.push("seed", 2u64);
        let d = diff(&a, &b);
        assert!(!d.fingerprints_compared && !d.failed());
    }
}
