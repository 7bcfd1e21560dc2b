//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the regression bound.
//!
//! Two tables of end-to-end metrics exist because two readers want
//! different things. The repository's driver contract wants a short list
//! that *every* workload reports and that is never zero
//! ([`UNIVERSAL`], mirrored by `BENCHMARK.json`; a test pins the two
//! together). A developer reading one workload wants that workload's own
//! vocabulary — `clean_pass_ms`, `read_p99_ms`, `recovery_s` — which is
//! [`END_TO_END`], printed by `bench run`, stored in `BENCH_<pr>.json` and
//! gated by `bench diff`. Each universal metric is an alias of one
//! workload-specific metric per workload (see [`universal_source`]).

use conquer_datagen::queries::QUERY_IDS;

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["adhoc_fig8", "served_read", "served_mix", "durable_dml"];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (rates, hit ratios).
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `bench diff` calls a regression.
    pub bound: f64,
    /// Workloads that report it (empty = all four).
    pub workloads: &'static [&'static str],
}

impl EndToEnd {
    /// Whether `workload` reports this metric.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

use Better::{Higher, Lower};

const SERVED: &[&str] = &["served_read", "served_mix"];
const WRITERS: &[&str] = &["served_mix", "durable_dml"];

/// The metrics every workload reports (the driver contract's
/// `end_to_end`). `setup_s` has the widest bound, as the contract asks.
///
/// Every bound is the contract's maximum, 25 %: these are checked across
/// seeds on a shared 2-core host whose own speed drifts by ±10 % over
/// minutes (the same Q9, back to back, takes 490–840 ms), so a tighter
/// bound would reject the benchmark itself. The per-workload table below
/// keeps tighter bounds for `bench diff`, which says "unresolved" instead
/// of guessing. `peak_rss_mb` is not here for the same reason (a maximum
/// over allocator and checkpoint timing, 5–24 % spread); it stays in the
/// per-workload table and is reported per layer as `proc.peak_rss_mb`.
pub const UNIVERSAL: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        workloads: &[],
    },
    EndToEnd {
        name: "typical_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        workloads: &[],
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        workloads: &[],
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        workloads: &[],
    },
];

/// The workload-specific metric each universal metric aliases.
pub fn universal_source(universal: &str, workload: &str) -> &'static str {
    match (universal, workload) {
        ("ops_per_s", "adhoc_fig8") => "clean_per_s",
        ("ops_per_s", "durable_dml") => "dml_per_s",
        ("ops_per_s", _) => "qps",
        ("typical_ms", "adhoc_fig8") => "clean_geomean_ms",
        ("typical_ms", "durable_dml") => "write_p50_ms",
        // Not `read_p50_ms`: with ≈ 55 % of reads served from the cache the
        // raw median sits on the boundary between the slowest hits and the
        // cheapest misses and jumps between the two from seed to seed
        // (4.8–10.9 ms over six seeds). Nor the median hit: at 0.5 ms it
        // measures thread wake-ups on a 2-core host (22–39 % spread). The
        // geometric mean is a smooth function of every read — hits, misses
        // and the share of each — and, unlike the mean, is not one Q9 miss.
        ("typical_ms", _) => "read_geomean_ms",
        ("tail_ms", "adhoc_fig8") => "clean_worst_ms",
        // Not `write_p90_ms`: ≈ 13 % of commits carry a checkpoint, so p90
        // sits at the lower edge of that cluster and falls out of it when a
        // run has one checkpoint fewer (202–418 ms over eight seeds). The
        // median stalled commit is the same tail, measured in its middle.
        ("tail_ms", "durable_dml") => "write_stall_p50_ms",
        ("tail_ms", _) => "read_p99_ms",
        ("setup_s", _) => "setup_s",
        (other, _) => panic!("{other} is not a universal metric"),
    }
}

/// The workload-specific end-to-end metrics (untraced run).
pub const END_TO_END: [EndToEnd; 20] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.15,
        workloads: &[],
    },
    EndToEnd {
        name: "clean_pass_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        workloads: &["adhoc_fig8"],
    },
    EndToEnd {
        name: "clean_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.10,
        workloads: &["adhoc_fig8"],
    },
    EndToEnd {
        name: "clean_geomean_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        workloads: &["adhoc_fig8"],
    },
    EndToEnd {
        name: "clean_worst_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        workloads: &["adhoc_fig8"],
    },
    EndToEnd {
        name: "rewrite_overhead",
        unit: "ratio",
        better: Lower,
        bound: 0.10,
        workloads: &["adhoc_fig8"],
    },
    EndToEnd {
        name: "orig_geomean_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        workloads: &["adhoc_fig8"],
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Higher,
        bound: 0.10,
        workloads: SERVED,
    },
    EndToEnd {
        name: "read_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        workloads: SERVED,
    },
    EndToEnd {
        name: "read_hit_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        workloads: SERVED,
    },
    EndToEnd {
        name: "read_geomean_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        workloads: SERVED,
    },
    EndToEnd {
        name: "read_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        workloads: SERVED,
    },
    EndToEnd {
        name: "write_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        workloads: WRITERS,
    },
    EndToEnd {
        name: "write_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.15,
        workloads: WRITERS,
    },
    EndToEnd {
        name: "write_stall_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.15,
        workloads: &["durable_dml"],
    },
    EndToEnd {
        name: "dml_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.10,
        workloads: &["durable_dml"],
    },
    EndToEnd {
        name: "wal_bytes_per_commit",
        unit: "B",
        better: Lower,
        bound: 0.0,
        workloads: WRITERS,
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Lower,
        bound: 0.15,
        workloads: &["durable_dml"],
    },
    EndToEnd {
        name: "fail_share",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        workloads: &[],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        workloads: &[],
    },
];

/// One per-layer metric (traced run; no bound).
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    /// `layer.metric` name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Every per-layer metric, in print order. Every workload's traced run
/// reports all of them; one that reads 0 means the workload never enters
/// that layer.
pub fn per_layer() -> Vec<PerLayer> {
    let fixed: &[(&str, &'static str, Better)] = &[
        ("sql.parse_us", "us", Lower),
        ("core.def7_us", "us", Lower),
        ("core.rewrite_us", "us", Lower),
        ("core.propagate_ms", "ms", Lower),
        ("prob.assign_ms", "ms", Lower),
        ("datagen.generate_ms", "ms", Lower),
        ("engine.analyze_us", "us", Lower),
        ("engine.bind_us", "us", Lower),
        ("engine.plan_us", "us", Lower),
        ("engine.prepare_us", "us", Lower),
    ];
    let exec: &[(&str, &'static str, Better)] = &[
        ("engine.exec.orig_sum_ms", "ms", Lower),
        ("engine.exec.scan_self_ms", "ms", Lower),
        ("engine.exec.hashjoin_self_ms", "ms", Lower),
        ("engine.exec.hashagg_self_ms", "ms", Lower),
        ("engine.exec.sort_self_ms", "ms", Lower),
        ("engine.exec.project_self_ms", "ms", Lower),
        ("engine.exec.gather_self_ms", "ms", Lower),
        ("engine.exec.rows_scanned", "count", Lower),
        ("engine.exec.rows_out", "count", Higher),
        ("engine.exec.rows_scanned_per_answer", "ratio", Lower),
        ("engine.exec.peak_mem_bytes", "B", Lower),
        ("engine.exec.spill_bytes", "B", Lower),
        ("engine.exec.threads_used", "count", Higher),
        ("shared.result_hit_ratio", "ratio", Higher),
        ("shared.plan_hit_ratio", "ratio", Higher),
        ("shared.evictions", "count", Lower),
        ("shared.epochs", "count", Lower),
        ("shared.admitted", "count", Higher),
        ("shared.shed", "count", Lower),
        ("shared.snapshot_us", "us", Lower),
        ("shared.session_hit_us", "us", Lower),
        ("shared.clone_ms", "ms", Lower),
        ("shared.commit_ms", "ms", Lower),
        ("view.create_ms", "ms", Lower),
        ("view.maintain_ms", "ms", Lower),
        ("view.refresh_all_ms", "ms", Lower),
        ("view.delta_vs_refresh", "ratio", Lower),
        ("view.rows", "count", Higher),
        ("view.deltas_applied", "count", Higher),
        ("wal.commit_us", "us", Lower),
        ("wal.raw_fsync_us", "us", Lower),
        ("wal.durable_extra_ms", "ms", Lower),
        ("storage.checkpoint_ms", "ms", Lower),
        ("storage.checkpoints", "count", Lower),
        ("storage.checkpoint_write_ms", "ms", Lower),
        ("storage.plain_write_ms", "ms", Lower),
        ("storage.save_ms", "ms", Lower),
        ("storage.load_ms", "ms", Lower),
        ("storage.dir_bytes", "B", Lower),
        ("server.ping_us", "us", Lower),
        ("server.connect_us", "us", Lower),
        ("server.hit_ms", "ms", Lower),
        ("server.plan_hit_ms", "ms", Lower),
        ("server.miss_ms", "ms", Lower),
        ("server.wire_overhead_ms", "ms", Lower),
        ("server.encode_us_per_row", "us", Lower),
        ("trace.unattributed_share", "ratio", Lower),
        ("trace.overhead_share", "ratio", Lower),
        ("share.exec", "ratio", Lower),
        ("share.view_wal", "ratio", Lower),
        ("share.cache_served", "ratio", Higher),
        ("proc.peak_rss_mb", "MB", Lower),
    ];
    let mut out: Vec<PerLayer> = Vec::new();
    let mut push = |name: String, unit, better| out.push(PerLayer { name, unit, better });
    for &(name, unit, better) in fixed {
        push(name.to_string(), unit, better);
    }
    for id in QUERY_IDS {
        push(exec_template_metric(id), "ms", Lower);
    }
    for &(name, unit, better) in exec {
        push(name.to_string(), unit, better);
    }
    out
}

/// `engine.exec.q<N>r_ms`: executor time of rewritten template `id`.
pub fn exec_template_metric(id: u8) -> String {
    format!("engine.exec.q{id}r_ms")
}

/// Whether `name` is a legal metric name under the driver contract.
pub fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in UNIVERSAL
            .iter()
            .map(|m| m.name.to_string())
            .chain(per_layer().into_iter().map(|m| m.name))
        {
            assert!(legal_name(&m), "{m}");
            assert!(seen.insert(m.clone()), "{m} declared twice");
        }
        assert!(seen.len() <= 16 + 128);
        let mut e2e = std::collections::BTreeSet::new();
        for m in END_TO_END {
            assert!(legal_name(m.name) && e2e.insert(m.name), "{}", m.name);
            assert!(m.bound <= 0.25);
        }
    }

    #[test]
    fn every_universal_metric_aliases_a_declared_metric_everywhere() {
        for u in UNIVERSAL {
            assert!(u.bound > 0.0 && u.bound <= 0.25);
            for w in WORKLOADS {
                let src = universal_source(u.name, w);
                let def = END_TO_END
                    .iter()
                    .find(|m| m.name == src)
                    .unwrap_or_else(|| panic!("{src} undeclared"));
                assert!(def.applies_to(w), "{src} does not apply to {w}");
                assert_eq!((def.unit, def.better), (u.unit, u.better), "{src}");
            }
        }
        assert!(UNIVERSAL
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup = UNIVERSAL.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(UNIVERSAL.iter().all(|m| m.bound <= setup.bound));
    }
}
