//! Per-operator runtime statistics collected by the batched executor.
//!
//! Every physical operator records how many rows and batches flowed
//! through it, its *inclusive* wall time (the time spent in its `next`
//! calls, children included — Postgres `EXPLAIN ANALYZE` convention) and
//! the peak size of any state it materialized (hash tables, sort buffers).
//! The tree mirrors the physical plan; [`ExecStats::render`] produces the
//! text shown by `EXPLAIN ANALYZE`.

use std::fmt;
use std::time::Duration;

use conquer_storage::{Row, Value};

/// Statistics for one operator node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    /// Operator name, e.g. `HashJoin on 1 key(s)` or `Scan customer [c]`.
    pub name: String,
    /// Rows pulled from children (for `Scan`: rows read from the table,
    /// of which the `pruned` ones never reach the pushed-down filter).
    pub rows_in: u64,
    /// Rows emitted to the parent.
    pub rows_out: u64,
    /// Batches emitted to the parent.
    pub batches: u64,
    /// Inclusive wall time spent inside this operator's `next` calls.
    pub time: Duration,
    /// Peak bytes of materialized state (0 for streaming operators).
    pub peak_mem: u64,
    /// Bytes written to spill files (0 when the operator stayed in
    /// memory).
    pub spill_bytes: u64,
    /// Non-empty spill partitions / sort runs this operator produced.
    pub spill_partitions: u64,
    /// Partitioning/merge passes over spilled data (>1 means an oversized
    /// partition forced recursion).
    pub spill_passes: u64,
    /// Runs of its run key a `HashAggregate` aggregated in (0 when it
    /// had no run key).
    pub runs: u64,
    /// The tuple of its pass at which a `HashAggregate` aggregating in
    /// runs first switched to hashing, if it did.
    pub hashed_at: Option<u64>,
    /// Rows a `Scan` read and skipped, before its filter, because their
    /// key lay outside the build key range of the join it feeds.
    pub pruned: u64,
    /// Child operators; a join's probe (streamed) input first.
    pub children: Vec<OpStats>,
}

impl OpStats {
    /// Wall time net of children (never negative).
    pub fn self_time(&self) -> Duration {
        let children: Duration = self.children.iter().map(|c| c.time).sum();
        self.time.saturating_sub(children)
    }

    /// Total materialized bytes in this subtree.
    pub fn total_mem(&self) -> u64 {
        self.peak_mem + self.children.iter().map(OpStats::total_mem).sum::<u64>()
    }

    /// Total spill-file bytes written in this subtree.
    pub fn total_spilled(&self) -> u64 {
        self.spill_bytes
            + self
                .children
                .iter()
                .map(OpStats::total_spilled)
                .sum::<u64>()
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        out.push_str(&format!(
            " (rows={} batches={} time={}",
            self.rows_out,
            self.batches,
            fmt_duration(self.time)
        ));
        if self.rows_in != self.rows_out || !self.children.is_empty() {
            out.push_str(&format!(" rows_in={}", self.rows_in));
        }
        if self.peak_mem > 0 {
            out.push_str(&format!(" mem={}", fmt_bytes(self.peak_mem)));
        }
        if self.spill_bytes > 0 {
            out.push_str(&format!(
                " spilled={} partitions={} passes={}",
                fmt_bytes(self.spill_bytes),
                self.spill_partitions,
                self.spill_passes
            ));
        }
        if self.runs > 0 {
            out.push_str(&format!(" runs={}", self.runs));
        }
        if let Some(at) = self.hashed_at {
            out.push_str(&format!(" hashed_at={at}"));
        }
        if self.pruned > 0 {
            out.push_str(&format!(" pruned={}", self.pruned));
        }
        out.push_str(")\n");
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }

    /// Walk the tree pre-order, visiting every node.
    pub fn visit(&self, f: &mut impl FnMut(usize, &OpStats)) {
        fn go(node: &OpStats, depth: usize, f: &mut impl FnMut(usize, &OpStats)) {
            f(depth, node);
            for c in &node.children {
                go(c, depth + 1, f);
            }
        }
        go(self, 0, f);
    }
}

/// The full statistics tree for one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecStats {
    /// Root operator (the last stage before rows reach the result).
    pub root: OpStats,
    /// End-to-end execution wall time.
    pub total_time: Duration,
    /// The memory budget the query ran under, if one was configured.
    pub mem_budget: Option<u64>,
    /// High-water mark of materialized state charged against the budget
    /// (includes the final result buffer; spilling operators release
    /// state they move to disk, so this tracks the peak, not a running
    /// total).
    pub mem_charged: u64,
    /// The spill-disk budget the query ran under, if one was configured
    /// (`Some(0)` means spilling was disabled).
    pub disk_budget: Option<u64>,
    /// Total bytes written to spill files across all operators.
    pub disk_charged: u64,
    /// The wall-clock limit the query ran under, if one was configured.
    pub timeout: Option<Duration>,
    /// Threads that executed the query: always `1`, since a query runs
    /// on the thread that calls it.
    pub threads_used: usize,
}

impl ExecStats {
    /// Statistics for an ungoverned run (no limits) — the common
    /// constructor for tests and synthetic trees.
    pub fn ungoverned(root: OpStats, total_time: Duration) -> Self {
        ExecStats {
            root,
            total_time,
            mem_budget: None,
            mem_charged: 0,
            disk_budget: None,
            disk_charged: 0,
            timeout: None,
            threads_used: 1,
        }
    }

    /// Render the tree as indented text, one operator per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, 0);
        out.push_str(&format!(
            "Execution time: {} (peak operator memory: {})\n",
            fmt_duration(self.total_time),
            fmt_bytes(self.root.total_mem()),
        ));
        if self.mem_budget.is_some() || self.disk_budget.is_some() || self.timeout.is_some() {
            let mem = match self.mem_budget {
                Some(b) => format!("mem={}", fmt_bytes(b)),
                None => "mem=unlimited".to_string(),
            };
            let disk = match self.disk_budget {
                Some(0) => "disk=off".to_string(),
                Some(b) => format!("disk={}", fmt_bytes(b)),
                None => "disk=unlimited".to_string(),
            };
            let time = match self.timeout {
                Some(t) => format!("timeout={}", fmt_duration(t)),
                None => "timeout=none".to_string(),
            };
            out.push_str(&format!(
                "Resource limits: {mem}, {disk}, {time}; charged {}, spilled {}\n",
                fmt_bytes(self.mem_charged),
                fmt_bytes(self.disk_charged)
            ));
        }
        out
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Approximate heap footprint of one value.
pub fn approx_value_bytes(v: &Value) -> u64 {
    let heap = match v {
        Value::Text(s) => s.capacity() as u64,
        _ => 0,
    };
    std::mem::size_of::<Value>() as u64 + heap
}

/// Approximate heap footprint of one row.
pub fn approx_row_bytes(row: &Row) -> u64 {
    std::mem::size_of::<Row>() as u64 + row.iter().map(approx_value_bytes).sum::<u64>()
}

fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shows_tree_shape_and_units() {
        let stats = ExecStats::ungoverned(
            OpStats {
                name: "Project".into(),
                rows_in: 10,
                rows_out: 10,
                batches: 1,
                time: Duration::from_micros(1500),
                peak_mem: 0,
                children: vec![OpStats {
                    name: "Scan t [t]".into(),
                    rows_in: 20,
                    rows_out: 10,
                    batches: 1,
                    time: Duration::from_micros(900),
                    peak_mem: 2048,
                    ..OpStats::default()
                }],
                ..OpStats::default()
            },
            Duration::from_micros(1600),
        );
        let text = stats.render();
        assert!(text.starts_with("Project (rows=10"), "{text}");
        assert!(text.contains("\n  Scan t [t] (rows=10"), "{text}");
        assert!(text.contains("1.50ms"), "{text}");
        assert!(text.contains("2.0KiB"), "{text}");
        assert!(text.contains("(peak operator memory: 2.0KiB)\n"), "{text}");
        assert!(!text.contains("Resource limits"), "{text}");
        assert_eq!(stats.root.self_time(), Duration::from_micros(600));
    }

    #[test]
    fn render_shows_limits_when_governed() {
        let mut stats = ExecStats::ungoverned(OpStats::default(), Duration::from_micros(10));
        stats.mem_budget = Some(10 * 1024 * 1024);
        stats.mem_charged = 2048;
        stats.timeout = Some(Duration::from_millis(500));
        let text = stats.render();
        assert!(text.contains("Resource limits: mem=10.0MiB"), "{text}");
        assert!(text.contains("timeout=500.00ms"), "{text}");
        assert!(text.contains("charged 2.0KiB"), "{text}");
        assert!(text.contains("disk=unlimited"), "{text}");
        stats.disk_budget = Some(0);
        assert!(stats.render().contains("disk=off"), "{}", stats.render());
    }

    #[test]
    fn render_shows_spill_metrics_when_an_operator_spilled() {
        let stats = ExecStats::ungoverned(
            OpStats {
                name: "HashJoin".into(),
                rows_out: 5,
                batches: 1,
                peak_mem: 512,
                spill_bytes: 3 * 1024 * 1024,
                spill_partitions: 16,
                spill_passes: 2,
                ..OpStats::default()
            },
            Duration::from_micros(10),
        );
        let text = stats.render();
        assert!(
            text.contains("spilled=3.0MiB partitions=16 passes=2"),
            "{text}"
        );
        assert_eq!(stats.root.total_spilled(), 3 * 1024 * 1024);
        // Operators that never spilled stay silent.
        let quiet = ExecStats::ungoverned(OpStats::default(), Duration::ZERO);
        assert!(!quiet.render().contains("spilled"), "{}", quiet.render());
    }
}
