//! `durable_dml` — one in-process writer (`Session::execute`) on a durable
//! handle with all 13 rewritten templates pinned as materialized views;
//! afterwards the handle is dropped, reopened, and compared. View deltas,
//! the WAL append, the fsync and checkpoints do most of the work and the
//! executor's entry points none. This is where structural sharing and
//! delta logging must show, and where `adhoc_fig8` predicts no change.
//!
//! The reopen is an acknowledged-write check, **not** a crash test: the
//! process is not killed and nothing unflushed is discarded — crash images
//! stay with the SimFs suites in `crates/storage/tests` and
//! `crates/engine/tests`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use conquer_datagen::queries::{query_sql, QUERY_IDS};
use conquer_engine::view::state_table_name;
use conquer_engine::{CacheStats, Database, SharedConfig, SharedDatabase};

use crate::fingerprint;
use crate::host::{self, ScratchDir};
use crate::inputs::{self, StagedData};
use crate::layers::{self, DmlRun};
use crate::report::{end_to_end_metrics, per_layer_metrics, Checks, WorkloadReport};
use crate::samples::Samples;
use crate::trace::Recorder;
use crate::workloads::{fail_share, probability_ok, SetupTimes};

/// Input sizes. Only `statements` scales with `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// TPC-H-lite scale factor.
    pub sf: f64,
    /// DML statements in the measured stream.
    pub statements: usize,
    /// Times the set-up is repeated (median reported).
    pub setups: usize,
}

impl Sizes {
    /// Sizes for a `--seconds` budget, from ≈ 6 maintained durable DML
    /// statements per second on the 2-core reference host.
    pub fn for_seconds(seconds: u64) -> Sizes {
        Sizes {
            sf: 0.05,
            statements: (seconds as usize * 6).max(24),
            setups: 3,
        }
    }
}

/// One handle over freshly generated data: durable or in-memory, with or
/// without the 13 views.
struct Twin {
    data: StagedData,
    shared: SharedDatabase,
    dir: Option<ScratchDir>,
    views: Vec<String>,
    create: Duration,
    dml: Vec<String>,
}

fn view_name(id: u8) -> String {
    format!("q{id}")
}

fn setup(seed: u64, sizes: Sizes, durable: bool, with_views: bool) -> Result<Twin, String> {
    let data = inputs::generate(sizes.sf, inputs::DATA_SEED);
    let dml = inputs::dml_stream(data.dirty.db(), seed, sizes.statements);
    // Explicit configuration: default caches, unlimited admission, 16 MiB
    // WAL limit, fsync on every commit.
    let config = SharedConfig::default();
    let (shared, dir) = if durable {
        let dir = ScratchDir::new("durable_dml").map_err(|e| e.to_string())?;
        let (shared, _report) =
            SharedDatabase::open_durable(dir.path(), config).map_err(|e| e.to_string())?;
        let initial = data.dirty.db().clone();
        shared
            .mutate(move |db| {
                *db = initial;
                Ok(())
            })
            .map_err(|e| e.to_string())?;
        (shared, Some(dir))
    } else {
        (
            SharedDatabase::with_config(data.dirty.db().clone(), config),
            None,
        )
    };
    let mut views = Vec::new();
    let t0 = Instant::now();
    if with_views {
        let session = shared.session();
        for &id in &QUERY_IDS {
            let rewritten = data
                .dirty
                // No ORDER BY: a maintained view is kept in group-key order.
                .rewrite(&query_sql(id, false))
                .map_err(|e| format!("rewrite Q{id}: {e}"))?;
            let name = view_name(id);
            session
                .execute(&format!("CREATE MATERIALIZED VIEW {name} AS {rewritten}"))
                .map_err(|e| format!("creating view {name}: {e}"))?;
            views.push(name);
        }
    }
    Ok(Twin {
        data,
        shared,
        dir,
        views,
        create: t0.elapsed(),
        dml,
    })
}

fn table_rows(db: &Database, table: &str) -> Option<u64> {
    db.catalog().table(table).ok().map(fingerprint::table)
}

/// What the measured rounds left behind.
struct Outcome {
    twin: Twin,
    run: DmlRun,
    before: CacheStats,
    after: CacheStats,
    rec: Recorder,
    /// The untraced reference stream (traced runs only).
    reference: Option<DmlRun>,
    setup_times: SetupTimes,
    create: Vec<Duration>,
}

/// Set up and run the measured stream. Untraced: several set-ups (median),
/// one measured stream. Traced: the identical stream twice on fresh
/// durable twins — recorder off, then on — so their difference is the
/// tracing overhead.
fn execute(seed: u64, traced: bool, sizes: Sizes) -> Result<Outcome, String> {
    let mut setup_times = SetupTimes::default();
    let mut create = Vec::new();
    let mut reference = None;
    let rounds: &[bool] = if traced { &[false, true] } else { &[false] };
    for (round, &record) in rounds.iter().enumerate() {
        let mut twin = None;
        for _ in 0..if traced { 1 } else { sizes.setups.max(1) } {
            drop(twin.take());
            let t0 = Instant::now();
            let t = setup(seed, sizes, true, true)?;
            setup_times.push(t0.elapsed(), &t.data);
            create.push(t.create);
            twin = Some(t);
        }
        let twin = twin.expect("at least one set-up ran");
        let before = twin.shared.stats();
        let mut rec = Recorder::new(record, Instant::now());
        let run = layers::run_dml(
            &twin.shared,
            twin.dir.as_ref().map(|d| d.path()),
            &twin.dml,
            &mut rec,
        );
        if round + 1 == rounds.len() {
            let after = twin.shared.stats();
            return Ok(Outcome {
                twin,
                run,
                before,
                after,
                rec,
                reference,
                setup_times,
                create,
            });
        }
        reference = Some(run);
    }
    unreachable!("the last round returns")
}

/// Run the workload.
pub fn run(seed: u64, seconds: u64, traced: bool, sizes: Sizes) -> WorkloadReport {
    match execute(seed, traced, sizes) {
        Ok(outcome) => finish(seed, seconds, traced, sizes, outcome),
        Err(e) => WorkloadReport::failed_setup("durable_dml", seed, seconds, traced, e),
    }
}

/// Check what the stream left behind and compute the metrics.
fn finish(seed: u64, seconds: u64, traced: bool, sizes: Sizes, outcome: Outcome) -> WorkloadReport {
    let workload = "durable_dml";
    let Outcome {
        twin,
        run,
        before,
        after,
        rec,
        reference,
        setup_times,
        create: create_ms,
    } = outcome;
    let mut checks = Checks::default();
    let mut fingerprints = BTreeMap::new();
    let mut samples = BTreeMap::new();
    let mut counts = BTreeMap::new();
    let failed = run.failures.len() as u64;
    let attempted = twin.dml.len() as u64;
    checks.all(
        "no statement failed or was refused",
        attempted as usize,
        run.failures.clone(),
    );

    // Output check 1: every maintained view — contents and accumulator
    // state — is bit-identical to a from-scratch REFRESH on a clone.
    let current = twin.shared.snapshot();
    let mut fresh = current.db().clone();
    let mut view_violations = Vec::new();
    let mut bad_probabilities = Vec::new();
    let mut view_answers = 0usize;
    let t0 = Instant::now();
    for v in &twin.views {
        let sql = format!("REFRESH MATERIALIZED VIEW {v}");
        if let Err(e) = fresh.prepare(&sql).and_then(|s| s.run(&mut fresh)) {
            view_violations.push(format!("{sql}: {e}"));
        }
    }
    let refresh_all = t0.elapsed();
    for v in &twin.views {
        for table in [v.clone(), state_table_name(v)] {
            if table_rows(current.db(), &table) != table_rows(&fresh, &table) {
                view_violations.push(format!("{table} diverged from REFRESH recompute"));
            }
        }
        if let Ok(t) = current.db().catalog().table(v) {
            for row in t.rows() {
                view_answers += 1;
                match row.last().and_then(|p| p.as_f64()) {
                    Some(p) if probability_ok(p) => {}
                    other => bad_probabilities.push(format!("{v} probability {other:?}")),
                }
            }
            if let Some(fp) = table_rows(current.db(), v) {
                fingerprints.insert(format!("view.{v}"), fingerprint::hex(fp));
            }
        }
    }
    drop(fresh);
    checks.all(
        "each view bit-identical to REFRESH recompute",
        twin.views.len() * 2,
        view_violations,
    );
    checks.all(
        "every probability in (0, 1]",
        view_answers,
        bad_probabilities,
    );

    // Output check 2: drop the handle, open the directory again, and
    // compare table by table with the pre-drop state.
    let pre_drop = fingerprint::catalog(current.db().catalog());
    fingerprints.insert(
        "final_state".into(),
        fingerprint::hex(fingerprint::combine(
            pre_drop.iter().map(|(n, fp)| (n.as_str(), *fp)),
        )),
    );
    let view_rows = after.view_rows;
    let dir_bytes = twin.dir.as_ref().map_or(0, |d| host::dir_bytes(d.path()));

    // Layer probes need the live handle; take them before the drop.
    let mut layer = BTreeMap::new();
    if traced {
        let hot: Vec<String> = twin
            .views
            .iter()
            .map(|v| format!("SELECT * FROM {v}"))
            .collect();
        layers::shared_probe(&twin.shared, &hot, &mut layer);
        if let Some(dir) = &twin.dir {
            layers::storage_probe(&twin.shared, dir.path(), &mut layer);
        }
    }

    let Twin {
        data,
        shared,
        dir,
        dml,
        ..
    } = twin;
    drop(current);
    drop(shared);
    let mut recovery = Duration::ZERO;
    let mut reopen_violations = Vec::new();
    if let Some(dir) = &dir {
        let t0 = Instant::now();
        match SharedDatabase::open_durable(dir.path(), SharedConfig::default()) {
            Err(e) => reopen_violations.push(format!("reopen failed: {e}")),
            Ok((reopened, report)) => {
                recovery = t0.elapsed();
                if !report.is_clean() {
                    reopen_violations.push(format!("recovery was not clean: {report:?}"));
                }
                let snap = reopened.snapshot();
                let recovered = fingerprint::catalog(snap.db().catalog());
                if recovered != pre_drop {
                    let differing: Vec<&str> = pre_drop
                        .iter()
                        .filter(|t| !recovered.contains(t))
                        .map(|(n, _)| n.as_str())
                        .collect();
                    reopen_violations.push(format!(
                        "reopened database differs in {differing:?} ({} vs {} tables)",
                        recovered.len(),
                        pre_drop.len()
                    ));
                }
            }
        }
    }
    checks.all(
        "reopened database bit-identical to the pre-drop snapshot",
        pre_drop.len(),
        reopen_violations,
    );

    let mut stream = fingerprint::Fnv::default();
    for sql in &dml {
        stream.str(sql);
    }
    fingerprints.insert("op_stream".into(), fingerprint::hex(stream.finish()));

    let write_ms = Samples::from_ms(&run.latencies());
    let wal_bytes_per_commit = layers::wal_bytes_per_commit(&run.writes);
    counts.insert("statements".into(), attempted);
    counts.insert("views".into(), QUERY_IDS.len() as u64);
    counts.insert("epochs".into(), after.epoch - before.epoch);
    counts.insert("wal_commits".into(), after.wal_commits - before.wal_commits);
    counts.insert("rows".into(), data.dirty.db().catalog().total_rows() as u64);
    counts.insert("view_rows".into(), view_rows as u64);
    counts.insert(
        "wal_bytes_total".into(),
        run.writes.iter().filter_map(|w| w.wal_growth).sum(),
    );
    samples.insert("write_ms".into(), write_ms.clone());
    for (name, checkpointed) in [("write_plain_ms", false), ("write_checkpoint_ms", true)] {
        let d: Vec<Duration> = run
            .writes
            .iter()
            .filter(|w| w.checkpointed == checkpointed)
            .map(|w| w.latency)
            .collect();
        samples.insert(name.into(), Samples::from_ms(&d));
    }
    samples.insert("setup_s".into(), setup_times.samples());
    checks.record(
        "sample supports the named percentiles",
        true,
        format!(
            "write p90 {} ({} writes)",
            if write_ms.supports(90.0) {
                "supported"
            } else {
                "UNSUPPORTED"
            },
            write_ms.count()
        ),
    );

    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    if !traced {
        end_to_end = end_to_end_metrics(
            workload,
            &[
                ("setup_s", setup_times.setup_s()),
                ("write_p50_ms", write_ms.median()),
                ("write_p90_ms", write_ms.percentile(90.0)),
                (
                    "write_stall_p50_ms",
                    // A stream too short to trigger a checkpoint has no
                    // stall; its slowest commit stands in.
                    match &samples["write_checkpoint_ms"] {
                        s if s.count() > 0 => s.median(),
                        _ => write_ms.percentile(100.0),
                    },
                ),
                (
                    "dml_per_s",
                    run.writes.len() as f64 / run.wall.as_secs_f64(),
                ),
                ("wal_bytes_per_commit", wal_bytes_per_commit),
                ("recovery_s", recovery.as_secs_f64()),
                ("fail_share", fail_share(failed, attempted)),
                ("peak_rss_mb", host::peak_rss_mb()),
            ],
        );
    } else {
        setup_times.layer_metrics(&mut layer);
        layer.insert(
            "view.create_ms".into(),
            Samples::from_ms(&create_ms).median(),
        );
        layer.insert("shared.epochs".into(), (after.epoch - before.epoch) as f64);
        layer.insert(
            "shared.admitted".into(),
            (after.admitted - before.admitted) as f64,
        );
        layer.insert("shared.shed".into(), (after.shed - before.shed) as f64);
        layer.insert(
            "shared.evictions".into(),
            (after.evictions - before.evictions) as f64,
        );
        layer.insert("view.rows".into(), view_rows as f64);
        layer.insert(
            "view.deltas_applied".into(),
            (after.view_deltas_applied - before.view_deltas_applied) as f64,
        );
        layer.insert(
            "view.refresh_all_ms".into(),
            refresh_all.as_secs_f64() * 1e3,
        );
        layer.insert("storage.dir_bytes".into(), dir_bytes as f64);
        layer.insert(
            "storage.checkpoints".into(),
            (after.checkpoints - before.checkpoints) as f64,
        );
        let pick = |want: bool| -> Vec<Duration> {
            run.writes
                .iter()
                .filter(|w| w.checkpointed == want)
                .map(|w| w.latency)
                .collect()
        };
        layer.insert(
            "storage.checkpoint_write_ms".into(),
            Samples::from_ms(&pick(true)).median(),
        );
        layer.insert(
            "storage.plain_write_ms".into(),
            Samples::from_ms(&pick(false)).median(),
        );

        // Differential attribution of the write path: the same seeded
        // stream on an in-memory twin without views (clone + apply +
        // publish), an in-memory twin with the 13 views (+ maintenance),
        // and the durable twin measured above (+ WAL, fsync, checkpoints).
        let mut twin_ms = |with_views: bool, label: &str| -> (f64, f64) {
            match setup(seed, sizes, false, with_views) {
                Err(e) => {
                    checks.record(label, false, e);
                    (0.0, 0.0)
                }
                Ok(t) => {
                    let r = layers::run_dml(&t.shared, None, &t.dml, &mut Recorder::off());
                    let s = Samples::from_ms(&r.latencies());
                    checks.all(label, t.dml.len(), r.failures);
                    (s.median(), s.sum())
                }
            }
        };
        let (commit_p50, commit_sum) = twin_ms(false, "in-memory twin accepted the DML stream");
        let (views_p50, _) = twin_ms(true, "in-memory twin with views accepted the DML stream");
        layer.insert("shared.commit_ms".into(), commit_p50);
        layer.insert("view.maintain_ms".into(), views_p50 - commit_p50);
        layer.insert("wal.durable_extra_ms".into(), write_ms.median() - views_p50);
        layer.insert(
            "view.delta_vs_refresh".into(),
            (views_p50 - commit_p50) / (refresh_all.as_secs_f64() * 1e3).max(f64::MIN_POSITIVE),
        );
        layer.insert(
            "share.view_wal".into(),
            ((write_ms.sum() - commit_sum) / write_ms.sum().max(f64::MIN_POSITIVE)).max(0.0),
        );
        // The workload calls no executor entry point; executor work done
        // inside view maintenance is counted under `view`.
        layer.insert("share.exec".into(), 0.0);

        // The compile and executor layers on this dataset: what recomputing
        // a view would pay.
        checks.all(
            "staged probe ran",
            3,
            layers::pipeline_probe(&data.dirty, 3, &mut layer),
        );
        layer.insert("sql.parse_us".into(), layers::parse_us(&dml));

        layer.insert("trace.unattributed_share".into(), rec.unattributed_share());
        let reference_ms =
            reference.map_or(write_ms.sum(), |r| Samples::from_ms(&r.latencies()).sum());
        layer.insert(
            "trace.overhead_share".into(),
            write_ms.sum() / reference_ms - 1.0,
        );
        layer.insert("proc.peak_rss_mb".into(), host::peak_rss_mb());
        per_layer = per_layer_metrics(&layer);
        rec.write_trace(workload);
    }

    WorkloadReport {
        workload,
        seed,
        seconds,
        traced,
        attempted,
        failed,
        checks: checks.into_vec(),
        end_to_end,
        per_layer,
        counts,
        fingerprints,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_storage::Value;

    fn tiny() -> Sizes {
        Sizes {
            sf: 0.005,
            statements: 8,
            setups: 1,
        }
    }

    #[test]
    fn a_corrupted_view_fails_the_run() {
        let o = execute(4, false, tiny()).expect("set-up");
        // Overwrite one maintained view's probabilities behind the
        // maintainer's back; REFRESH on the clone will disagree.
        o.twin
            .shared
            .mutate(|db| {
                let view = db.catalog_mut().table_mut("q1")?;
                assert!(!view.is_empty(), "q1 has answers at this scale");
                view.update_column("probability", |_, _| Value::Float(0.5))?;
                Ok(())
            })
            .expect("corrupting the view");
        let r = finish(4, 1, false, tiny(), o);
        assert!(!r.correct());
        let failed: Vec<&str> = r
            .checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(failed, ["each view bit-identical to REFRESH recompute"]);
    }
}
