//! What one run of one workload produces, and its two renderings: the
//! driver contract's result line and the detailed object `bench run`
//! stores in `BENCH_<pr>.json`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{self, universal_source, UNIVERSAL};
use crate::samples::Samples;

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Counts, or the first violation.
    pub detail: String,
}

/// Collected output checks of a run.
#[derive(Debug, Default)]
pub struct Checks(Vec<Check>);

impl Checks {
    /// Record one check; `detail` says what was compared or what broke.
    pub fn record(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.0.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    /// Record a check over many items: passes when `violations` is empty,
    /// else reports the first.
    pub fn all(&mut self, name: &str, checked: usize, violations: Vec<String>) {
        let detail = match violations.first() {
            None => format!("{checked} checked"),
            Some(first) => format!("{} of {checked} failed; first: {first}", violations.len()),
        };
        self.record(name, violations.is_empty(), detail);
    }

    /// The checks, in record order.
    pub fn into_vec(self) -> Vec<Check> {
        self.0
    }
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
}

/// Everything one run of one workload reports.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: &'static str,
    /// The run seed.
    pub seed: u64,
    /// The `--seconds` budget the op counts were derived from.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Statements attempted in the measured phase.
    pub attempted: u64,
    /// Statements that failed or were refused.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Workload-specific end-to-end metrics (untraced run only).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only), every catalogue name.
    pub per_layer: Vec<Metric>,
    /// Op counts and other exact counts: repeat exactly for one seed.
    pub counts: BTreeMap<String, u64>,
    /// Bit-level fingerprints by statement / table / stream.
    pub fingerprints: BTreeMap<String, String>,
    /// Timing distributions behind the metrics.
    pub samples: BTreeMap<String, Samples>,
}

impl WorkloadReport {
    /// The report of a run whose set-up failed: nothing measured, one
    /// failed check saying why.
    pub fn failed_setup(
        workload: &'static str,
        seed: u64,
        seconds: u64,
        traced: bool,
        error: String,
    ) -> WorkloadReport {
        WorkloadReport {
            workload,
            seed,
            seconds,
            traced,
            attempted: 1,
            failed: 1,
            checks: vec![Check {
                name: "set-up".to_string(),
                passed: false,
                detail: error,
            }],
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            counts: BTreeMap::new(),
            fingerprints: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Every output check passed and no statement failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// An end-to-end metric by name.
    pub fn end_to_end(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// A per-layer metric by name.
    pub fn per_layer(&self, name: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The metrics the driver contract asks for: the universal end-to-end
    /// list on an untraced run, every per-layer metric on a traced one.
    pub fn contract_metrics(&self) -> Vec<Metric> {
        if self.traced {
            return self.per_layer.clone();
        }
        UNIVERSAL
            .iter()
            .map(|u| {
                let src = universal_source(u.name, self.workload);
                Metric {
                    name: u.name.to_string(),
                    // Missing only when set-up failed; the run is already
                    // marked incorrect, so the placeholder is never trusted.
                    value: self.end_to_end(src).unwrap_or(0.0),
                    unit: u.unit,
                }
            })
            .collect()
    }

    /// The driver contract's result object: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let mut m = Json::obj();
        for metric in self.contract_metrics() {
            let mut v = Json::obj();
            v.push("value", metric.value).push("unit", metric.unit);
            m.push(&metric.name, v);
        }
        let mut out = Json::obj();
        out.push("correct", self.correct())
            .push("attempted", self.attempted.max(1))
            .push("failed", self.failed)
            .push("metrics", m);
        out.compact()
    }

    /// The detailed object stored per run in `BENCH_<pr>.json`.
    pub fn to_json(&self) -> Json {
        let metrics = |list: &[Metric]| {
            let mut o = Json::obj();
            for m in list {
                let mut v = Json::obj();
                v.push("value", m.value).push("unit", m.unit);
                o.push(&m.name, v);
            }
            o
        };
        let mut checks = Vec::new();
        for c in &self.checks {
            let mut o = Json::obj();
            o.push("name", c.name.as_str())
                .push("passed", c.passed)
                .push("detail", c.detail.as_str());
            checks.push(o);
        }
        let mut counts = Json::obj();
        for (k, v) in &self.counts {
            counts.push(k, *v);
        }
        let mut fingerprints = Json::obj();
        for (k, v) in &self.fingerprints {
            fingerprints.push(k, v.as_str());
        }
        let mut samples = Json::obj();
        for (k, v) in &self.samples {
            samples.push(k, v.to_json());
        }
        let mut out = Json::obj();
        out.push("workload", self.workload)
            .push("seed", self.seed)
            .push("seconds", self.seconds)
            .push("traced", self.traced)
            .push("correct", self.correct())
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("end_to_end", metrics(&self.end_to_end))
            .push("per_layer", metrics(&self.per_layer))
            .push("counts", counts)
            .push("fingerprints", fingerprints)
            .push("samples", samples)
            .push("checks", Json::Arr(checks));
        out
    }

    /// Human-readable rendering: every metric by name with its unit, then
    /// the checks.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {} s budget, {}) ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" }
        );
        for (title, list) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if list.is_empty() {
                continue;
            }
            let _ = writeln!(out, "  {title}:");
            let width = list.iter().map(|m| m.name.len()).max().unwrap_or(0);
            for m in list {
                let _ = writeln!(out, "    {:<width$}  {:>14.4} {}", m.name, m.value, m.unit);
            }
        }
        if !self.traced {
            let _ = writeln!(out, "  universal (BENCHMARK.json):");
            for m in self.contract_metrics() {
                let src = universal_source(&m.name, self.workload);
                let _ = writeln!(
                    out,
                    "    {:<12} = {:<18} {:>14.4} {}",
                    m.name, src, m.value, m.unit
                );
            }
        }
        let _ = writeln!(out, "  samples:");
        for (name, s) in &self.samples {
            let tail = s
                .tail()
                .map_or("-".to_string(), |(p, v)| format!("p{p}={v:.3}"));
            let (q1, q3) = s.quartiles();
            let _ = writeln!(
                out,
                "    {name:<24} n={:<5} median={:.3} q1={q1:.3} q3={q3:.3} tail {tail}",
                s.count(),
                s.median()
            );
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {}; counts: {}",
            self.attempted,
            self.failed,
            self.counts
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  [{}] {}: {}",
                if c.passed { "ok" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        out
    }
}

/// Build the end-to-end metric list for `workload` from computed values,
/// insisting that exactly the catalogue's metrics for it are present.
pub fn end_to_end_metrics(workload: &str, values: &[(&str, f64)]) -> Vec<Metric> {
    let out: Vec<Metric> = metrics::END_TO_END
        .iter()
        .filter(|m| m.applies_to(workload))
        .map(|m| Metric {
            name: m.name.to_string(),
            value: values
                .iter()
                .find(|(n, _)| *n == m.name)
                .unwrap_or_else(|| panic!("{workload} computed no {}", m.name))
                .1,
            unit: m.unit,
        })
        .collect();
    assert_eq!(
        out.len(),
        values.len(),
        "{workload} computed an undeclared metric"
    );
    out
}

/// Build the full per-layer metric list: catalogue order, `0.0` for every
/// layer the workload never enters.
pub fn per_layer_metrics(values: &BTreeMap<String, f64>) -> Vec<Metric> {
    let catalogue = metrics::per_layer();
    for name in values.keys() {
        assert!(
            catalogue.iter().any(|m| &m.name == name),
            "{name} is not a declared per-layer metric"
        );
    }
    catalogue
        .into_iter()
        .map(|m| Metric {
            value: values.get(&m.name).copied().unwrap_or(0.0),
            name: m.name,
            unit: m.unit,
        })
        .collect()
}
