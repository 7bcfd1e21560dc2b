//! Layer probes: every layer measured from outside, by timing calls into
//! its public functions.
//!
//! The centrepiece is [`staged_request`], the clean-answer pipeline taken
//! apart into one public call per layer — parse → analyze → Definition-7
//! check → rewrite → bind → plan → execute → answers — each under its own
//! child span. Its answer must fingerprint-match the one-call path
//! (`DirtyDatabase::clean_answers`), which is what makes the per-layer
//! times trustworthy as a decomposition of the end-to-end time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use conquer_core::dirty::result_to_answers;
use conquer_core::graph::check_rewritable;
use conquer_core::{CleanAnswers, DirtyDatabase, RewriteClean};
use conquer_datagen::queries::QUERY_IDS;
use conquer_engine::analyze::analyze_sql;
use conquer_engine::binder::bind_select;
use conquer_engine::exec::execute_plan;
use conquer_engine::planner::plan_select;
use conquer_engine::{ExecStats, OpStats, SharedDatabase};
use conquer_sql::{parse_select, parse_statement};

use crate::inputs::variant_sql;
use crate::metrics::exec_template_metric;
use crate::samples::Samples;
use crate::trace::Recorder;

/// Span names of the staged pipeline, in call order.
pub const STAGES: [&str; 8] = [
    "sql.parse",
    "engine.analyze",
    "core.def7",
    "core.rewrite",
    "engine.bind",
    "engine.plan",
    "engine.exec",
    "core.answers",
];

/// Run one clean-answer request stage by stage under `rec`, returning the
/// answers (with the executor's statistics attached) or the first error.
pub fn staged_request(
    dirty: &DirtyDatabase,
    sql: &str,
    rec: &mut Recorder,
    request: u64,
) -> Result<CleanAnswers, String> {
    let catalog = dirty.db().catalog();
    let spec = dirty.spec();
    let root = rec.begin("request", request);
    let out = (|| {
        let stmt = rec
            .span("sql.parse", request, || parse_select(sql))
            .map_err(|e| e.to_string())?;
        let diagnostics = rec.span("engine.analyze", request, || analyze_sql(catalog, sql));
        if let Some(d) = diagnostics.iter().find(|d| d.is_error()) {
            return Err(d.render(sql));
        }
        rec.span("core.def7", request, || {
            check_rewritable(catalog, spec, &stmt)
        })
        .map_err(|e| e.to_string())?;
        // `rewrite_unchecked`: the Definition-7 check already ran, as its
        // own span.
        let rewritten = rec
            .span("core.rewrite", request, || {
                RewriteClean.rewrite_unchecked(spec, &stmt)
            })
            .map_err(|e| e.to_string())?;
        let bound = rec
            .span("engine.bind", request, || bind_select(catalog, &rewritten))
            .map_err(|e| e.to_string())?;
        let plan = rec
            .span("engine.plan", request, || plan_select(catalog, bound))
            .map_err(|e| e.to_string())?;
        let ctx = dirty.db().exec_context(*dirty.db().limits());
        let result = rec
            .span("engine.exec", request, || {
                execute_plan(catalog, &plan, &ctx)
            })
            .map_err(|e| e.to_string())?;
        Ok(rec.span("core.answers", request, || result_to_answers(result)))
    })();
    rec.end(root);
    out
}

/// Executor statistics of one pass over the rewritten templates, folded by
/// operator kind.
#[derive(Debug, Default, Clone)]
pub struct ExecFold {
    /// Self time by operator kind (`scan`, `hashjoin`, …), ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Rows read by scans, before pushed-down filters.
    pub rows_scanned: u64,
    /// Rows the root operators emitted (= answers).
    pub rows_out: u64,
    /// Largest `mem_charged` of any plan.
    pub peak_mem_bytes: u64,
    /// Spill bytes over all plans.
    pub spill_bytes: u64,
    /// Most worker threads any plan used.
    pub threads_used: u64,
}

fn op_kind(name: &str) -> Option<&'static str> {
    let head = name.split(' ').next().unwrap_or(name);
    Some(match head {
        "Scan" => "scan",
        "HashJoin" => "hashjoin",
        "HashAggregate" => "hashagg",
        "Sort" => "sort",
        "Project" => "project",
        "Gather" => "gather",
        _ => return None,
    })
}

impl ExecFold {
    /// Add one executed plan's statistics.
    pub fn add(&mut self, stats: &ExecStats) {
        stats.root.visit(&mut |_, op: &OpStats| {
            if let Some(kind) = op_kind(&op.name) {
                *self.self_ms.entry(kind).or_insert(0.0) += op.self_time().as_secs_f64() * 1e3;
                if kind == "scan" {
                    self.rows_scanned += op.rows_in;
                }
            }
        });
        self.rows_out += stats.root.rows_out;
        self.peak_mem_bytes = self.peak_mem_bytes.max(stats.mem_charged);
        self.spill_bytes += stats.disk_charged;
        self.threads_used = self.threads_used.max(stats.threads_used as u64);
    }
}

/// Per-stage and executor measurements of the 13 base templates, as
/// per-layer metrics.
#[derive(Debug, Default)]
pub struct PipelineProbe {
    durations: BTreeMap<&'static str, Vec<Duration>>,
    exec_by_template: BTreeMap<u8, Vec<Duration>>,
    folds: Vec<ExecFold>,
    prepare: Vec<Duration>,
    orig_pass_ms: Vec<f64>,
}

impl PipelineProbe {
    /// Fold in the spans `rec` holds: requests `base..base + 13` are the
    /// templates in `QUERY_IDS` order.
    pub fn absorb_spans(&mut self, rec: &Recorder, base: u64) {
        for s in rec.spans() {
            let Some(&stage) = STAGES.iter().find(|&&n| n == s.name) else {
                continue;
            };
            let d = Duration::from_nanos(s.duration_ns());
            self.durations.entry(stage).or_default().push(d);
            if stage == "engine.exec" {
                let slot = (s.request.wrapping_sub(base) % QUERY_IDS.len() as u64) as usize;
                self.exec_by_template
                    .entry(QUERY_IDS[slot])
                    .or_default()
                    .push(d);
            }
        }
    }

    /// Record one pass's folded executor statistics.
    pub fn push_fold(&mut self, fold: ExecFold) {
        self.folds.push(fold);
    }

    /// Record one `Database::prepare` of a rewritten statement.
    pub fn push_prepare(&mut self, d: Duration) {
        self.prepare.push(d);
    }

    /// Record one pass's total time over the 13 original templates.
    pub fn push_orig_pass_ms(&mut self, ms: f64) {
        self.orig_pass_ms.push(ms);
    }

    /// The per-layer metrics this probe measured.
    pub fn metrics(&self, out: &mut BTreeMap<String, f64>) {
        let us = |stage: &str| {
            self.durations
                .get(stage)
                .map_or(0.0, |d| Samples::from_us(d).median())
        };
        out.insert("sql.parse_us".into(), us("sql.parse"));
        out.insert("engine.analyze_us".into(), us("engine.analyze"));
        out.insert("core.def7_us".into(), us("core.def7"));
        out.insert("core.rewrite_us".into(), us("core.rewrite"));
        out.insert("engine.bind_us".into(), us("engine.bind"));
        out.insert("engine.plan_us".into(), us("engine.plan"));
        out.insert(
            "engine.prepare_us".into(),
            Samples::from_us(&self.prepare).median(),
        );
        for (&id, d) in &self.exec_by_template {
            out.insert(exec_template_metric(id), Samples::from_ms(d).median());
        }
        out.insert(
            "engine.exec.orig_sum_ms".into(),
            Samples::new(self.orig_pass_ms.clone()).median(),
        );
        // Operator self times: median over passes of the per-pass sums.
        for kind in ["scan", "hashjoin", "hashagg", "sort", "project", "gather"] {
            let per_pass: Vec<f64> = self
                .folds
                .iter()
                .map(|f| f.self_ms.get(kind).copied().unwrap_or(0.0))
                .collect();
            out.insert(
                format!("engine.exec.{kind}_self_ms"),
                Samples::new(per_pass).median(),
            );
        }
        // Counts repeat exactly pass to pass; the last pass speaks for all.
        if let Some(f) = self.folds.last() {
            out.insert("engine.exec.rows_scanned".into(), f.rows_scanned as f64);
            out.insert("engine.exec.rows_out".into(), f.rows_out as f64);
            out.insert(
                "engine.exec.rows_scanned_per_answer".into(),
                f.rows_scanned as f64 / (f.rows_out.max(1)) as f64,
            );
            out.insert("engine.exec.peak_mem_bytes".into(), f.peak_mem_bytes as f64);
            out.insert("engine.exec.spill_bytes".into(), f.spill_bytes as f64);
            out.insert("engine.exec.threads_used".into(), f.threads_used as f64);
        }
    }
}

/// One traced pass of [`staged_request`] over the 13 base templates (plus
/// `Database::prepare` of each rewritten text and one pass over the
/// originals), folded into `probe`. Returns the answers in `QUERY_IDS`
/// order. Requests are numbered from `base`.
pub fn staged_pass(
    dirty: &DirtyDatabase,
    rec: &mut Recorder,
    base: u64,
    probe: &mut PipelineProbe,
) -> Result<Vec<CleanAnswers>, String> {
    let mut answers = Vec::with_capacity(QUERY_IDS.len());
    let mut fold = ExecFold::default();
    for (slot, &id) in QUERY_IDS.iter().enumerate() {
        let sql = variant_sql(id, 0);
        let a = staged_request(dirty, &sql, rec, base + slot as u64)
            .map_err(|e| format!("staged Q{id}: {e}"))?;
        if let Some(stats) = a.stats() {
            fold.add(stats);
        }
        answers.push(a);
    }
    probe.push_fold(fold);
    Ok(answers)
}

/// The compile and executor layers on a workload's own data set — what a
/// miss (or recomputing a view) pays: `passes` staged passes over the 13
/// base templates, folded into `out`. Returns the errors met.
pub fn pipeline_probe(
    dirty: &DirtyDatabase,
    passes: usize,
    out: &mut BTreeMap<String, f64>,
) -> Vec<String> {
    let mut probe = PipelineProbe::default();
    let mut rec = Recorder::on(Instant::now());
    let mut errors = Vec::new();
    for pass in 1..=passes {
        let base = (pass * QUERY_IDS.len()) as u64;
        if let Err(e) = staged_pass(dirty, &mut rec, base, &mut probe)
            .and_then(|_| prepare_and_original_pass(dirty, &mut probe))
        {
            errors.push(e);
        }
    }
    probe.absorb_spans(&rec, 0);
    probe.metrics(out);
    errors
}

/// Time `Database::prepare` of each rewritten template and one
/// prepare-and-query pass over the original templates.
pub fn prepare_and_original_pass(
    dirty: &DirtyDatabase,
    probe: &mut PipelineProbe,
) -> Result<(), String> {
    let db = dirty.db();
    let mut orig_ms = 0.0;
    for &id in &QUERY_IDS {
        let sql = variant_sql(id, 0);
        let rewritten = dirty
            .rewrite(&sql)
            .map_err(|e| format!("rewrite Q{id}: {e}"))?
            .to_string();
        let t0 = Instant::now();
        let stmt = db.prepare(&rewritten);
        probe.push_prepare(t0.elapsed());
        stmt.map_err(|e| format!("prepare Q{id}r: {e}"))?;

        let t0 = Instant::now();
        db.prepare(&sql)
            .and_then(|s| s.query(db))
            .map_err(|e| format!("original Q{id}: {e}"))?;
        orig_ms += t0.elapsed().as_secs_f64() * 1e3;
    }
    probe.push_orig_pass_ms(orig_ms);
    Ok(())
}

/// Median cost of `parse_statement` over arbitrary statements (DML
/// included), µs.
pub fn parse_us(statements: &[String]) -> f64 {
    let d: Vec<Duration> = statements
        .iter()
        .map(|sql| {
            let t0 = Instant::now();
            let parsed = parse_statement(std::hint::black_box(sql));
            let took = t0.elapsed();
            std::hint::black_box(parsed.is_ok());
            took
        })
        .collect();
    Samples::from_us(&d).median()
}

/// Probes of the `engine.shared` layer on a live handle: the cost of
/// pinning a snapshot, of a result-cache hit without the wire, and of the
/// whole-database clone every write starts with.
pub fn shared_probe(shared: &SharedDatabase, hot: &[String], out: &mut BTreeMap<String, f64>) {
    let snaps: Vec<Duration> = (0..2000)
        .map(|_| {
            let t0 = Instant::now();
            let snap = shared.snapshot();
            let took = t0.elapsed();
            std::hint::black_box(snap.epoch());
            took
        })
        .collect();
    out.insert(
        "shared.snapshot_us".into(),
        Samples::from_us(&snaps).median(),
    );

    let session = shared.session();
    let mut hits = Vec::new();
    for sql in hot {
        // First call fills the cache at the current epoch; the rest hit.
        let _ = session.query(sql);
        for _ in 0..5 {
            let t0 = Instant::now();
            let r = session.query(sql);
            hits.push(t0.elapsed());
            std::hint::black_box(r.is_ok());
        }
    }
    out.insert(
        "shared.session_hit_us".into(),
        Samples::from_us(&hits).median(),
    );

    let clones: Vec<Duration> = (0..5)
        .map(|_| {
            let snap = shared.snapshot();
            let t0 = Instant::now();
            let copy = snap.db().clone();
            let took = t0.elapsed();
            std::hint::black_box(copy.catalog().len());
            took
        })
        .collect();
    out.insert("shared.clone_ms".into(), Samples::from_ms(&clones).median());
}

/// Watches a durable handle's log across one commit: how much the WAL file
/// grew (exact with one writer) and whether a checkpoint folded it.
#[derive(Debug)]
pub struct WalWatch<'a> {
    shared: &'a SharedDatabase,
    path: Option<std::path::PathBuf>,
    len: Option<u64>,
    checkpoints: u64,
}

impl<'a> WalWatch<'a> {
    /// Watch `dir/wal.log` (`None`: an in-memory handle, nothing to watch).
    pub fn new(shared: &'a SharedDatabase, dir: Option<&std::path::Path>) -> WalWatch<'a> {
        WalWatch {
            shared,
            path: dir.map(|d| d.join(conquer_storage::wal::WAL_FILE)),
            len: None,
            checkpoints: 0,
        }
    }

    fn file_len(&self) -> Option<u64> {
        let path = self.path.as_ref()?;
        std::fs::metadata(path).ok().map(|m| m.len())
    }

    /// Call right before the statement is sent.
    pub fn before(&mut self) {
        self.len = self.file_len();
        self.checkpoints = self.shared.stats().checkpoints;
    }

    /// Call right after it was acknowledged: `(growth, checkpointed)`.
    /// Growth is `None` when a checkpoint truncated the log in between.
    pub fn after(&self) -> (Option<u64>, bool) {
        let checkpointed = self.shared.stats().checkpoints > self.checkpoints;
        let growth = match (self.len, self.file_len()) {
            (Some(a), Some(b)) if !checkpointed && b >= a => Some(b - a),
            _ => None,
        };
        (growth, checkpointed)
    }
}

/// One acknowledged write.
#[derive(Debug, Clone, Copy)]
pub struct WriteObs {
    /// Client-visible latency.
    pub latency: Duration,
    /// WAL file growth across the commit, when observable.
    pub wal_growth: Option<u64>,
    /// Whether an automatic checkpoint ran inside this commit.
    pub checkpointed: bool,
}

/// Mean WAL bytes per acknowledged commit over the commits whose growth
/// was observable (`0.0` with none).
pub fn wal_bytes_per_commit(writes: &[WriteObs]) -> f64 {
    let growth: Vec<u64> = writes.iter().filter_map(|w| w.wal_growth).collect();
    if growth.is_empty() {
        0.0
    } else {
        growth.iter().sum::<u64>() as f64 / growth.len() as f64
    }
}

/// Per-statement outcome of a DML stream run through `Session::execute`.
#[derive(Debug, Default)]
pub struct DmlRun {
    /// Each acknowledged statement, in stream order.
    pub writes: Vec<WriteObs>,
    /// Statements that failed, with their errors.
    pub failures: Vec<String>,
    /// Wall time of the whole stream.
    pub wall: Duration,
}

impl DmlRun {
    /// Latencies of the acknowledged statements.
    pub fn latencies(&self) -> Vec<Duration> {
        self.writes.iter().map(|w| w.latency).collect()
    }
}

/// Run `statements` through one `Session::execute` writer on `shared`,
/// timing each. The same function drives the measured `durable_dml` stream
/// and its in-memory twins, so their difference is the layers' cost and
/// nothing else.
pub fn run_dml(
    shared: &SharedDatabase,
    dir: Option<&std::path::Path>,
    statements: &[String],
    rec: &mut Recorder,
) -> DmlRun {
    let session = shared.session();
    let mut watch = WalWatch::new(shared, dir);
    let mut run = DmlRun::default();
    let start = Instant::now();
    for (i, sql) in statements.iter().enumerate() {
        watch.before();
        let t0 = Instant::now();
        let outcome = session.execute(sql);
        let latency = t0.elapsed();
        rec.record("request.write", i as u64, t0, latency);
        match outcome {
            Ok(_) => {
                let (wal_growth, checkpointed) = watch.after();
                run.writes.push(WriteObs {
                    latency,
                    wal_growth,
                    checkpointed,
                });
            }
            Err(e) => run.failures.push(format!("{sql}: {e}")),
        }
    }
    run.wall = start.elapsed();
    run
}

/// Probes of `storage.wal` / `storage.persist` beside a durable handle:
/// `Wal::commit` of one `customer` image against the raw append+fsync
/// floor (the sandbox's, not a device's), `save_catalog` / `load_catalog`
/// of the current state, an explicit checkpoint, and the directory's size.
/// Scratch files go under `dir`'s parent so the handle's own directory is
/// measured untouched.
pub fn storage_probe(
    shared: &SharedDatabase,
    dir: &std::path::Path,
    out: &mut BTreeMap<String, f64>,
) {
    use std::io::Write as _;
    let Ok(scratch) = crate::host::ScratchDir::new("storage_probe") else {
        return;
    };
    let snap = shared.snapshot();
    let catalog = snap.db().catalog();
    const COMMITS: usize = 32;

    if let (Ok(customer), Ok(mut wal)) = (
        catalog.table("customer"),
        conquer_storage::Wal::open(&scratch.path().join("wal")),
    ) {
        let commits: Vec<Duration> = (0..COMMITS)
            .filter_map(|_| {
                let t0 = Instant::now();
                wal.commit(&[conquer_storage::WalOp::Put(customer)]).ok()?;
                Some(t0.elapsed())
            })
            .collect();
        out.insert("wal.commit_us".into(), Samples::from_us(&commits).median());

        // The floor any durable commit pays: append a frame-sized buffer,
        // then `sync_data`.
        let frame = vec![0u8; (wal.size_bytes() / COMMITS as u64).max(64) as usize];
        if let Ok(mut raw) = std::fs::File::create(scratch.path().join("raw.log")) {
            let syncs: Vec<Duration> = (0..COMMITS)
                .filter_map(|_| {
                    let t0 = Instant::now();
                    raw.write_all(&frame).ok()?;
                    raw.sync_data().ok()?;
                    Some(t0.elapsed())
                })
                .collect();
            out.insert("wal.raw_fsync_us".into(), Samples::from_us(&syncs).median());
        }
    }

    let saved = scratch.path().join("saved");
    let saves: Vec<Duration> = (0..3)
        .filter_map(|_| {
            let t0 = Instant::now();
            conquer_storage::save_catalog(catalog, &saved).ok()?;
            Some(t0.elapsed())
        })
        .collect();
    out.insert("storage.save_ms".into(), Samples::from_ms(&saves).median());
    let loads: Vec<Duration> = (0..3)
        .filter_map(|_| {
            let t0 = Instant::now();
            let loaded = conquer_storage::load_catalog(&saved).ok()?;
            let took = t0.elapsed();
            std::hint::black_box(loaded.len());
            Some(took)
        })
        .collect();
    out.insert("storage.load_ms".into(), Samples::from_ms(&loads).median());

    let checkpoints: Vec<Duration> = (0..3)
        .filter_map(|_| {
            let t0 = Instant::now();
            let info = shared.checkpoint().ok()??;
            std::hint::black_box(info.wal_bytes_folded);
            Some(t0.elapsed())
        })
        .collect();
    out.insert(
        "storage.checkpoint_ms".into(),
        Samples::from_ms(&checkpoints).median(),
    );
    out.insert(
        "storage.dir_bytes".into(),
        crate::host::dir_bytes(dir) as f64,
    );
}
