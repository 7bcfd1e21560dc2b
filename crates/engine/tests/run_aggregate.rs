//! Run-mode `GROUP BY` against the hash path. RewriteClean groups by the
//! root relation's identifier, and the root is the plan's spine: the scan
//! whose row order the joins keep. A `GROUP BY` key that is a bare column
//! of the spine makes the aggregate work in runs of that key, and fall
//! back to hashing at the first tuple that breaks run order. Written
//! `l_id + 0`, the same key is an expression, which takes the hash path
//! from the start. Each case runs both spellings and demands the same
//! answers in the same order, probabilities bit for bit, and the same
//! memory and spill counters on the aggregate.
//!
//! The cases: input in runs; a run key that reappears after an `INSERT`
//! into an old cluster and after a `RECLUSTER`; a run with more groups
//! than a run may scan; a join below that spilled to grace partitions;
//! and budgets of 16 and 64 KiB, under which the aggregate spills.

use conquer_engine::{Database, ExecLimits, OpStats, QueryResult};
use conquer_storage::Value;

/// Clusters of `l`, the spine; cluster `i` has `1 + i % 3` tuples.
const CLUSTERS: i64 = 900;

/// Join keys of `o`, each on two tuples.
const KEYS: i64 = 400;

/// `l` in runs of `l_id` and a smaller `o` it joins on `k`, so `o` is the
/// build side and `l` the spine. With `wide`, cluster 450 has 12 tuples
/// with distinct join keys, which meet 13 values of `o.x`: 13 groups in
/// one run.
fn database(wide: bool) -> Database {
    let mut db = Database::new();
    db.set_limits(ExecLimits::none());
    db.execute_script(
        "CREATE TABLE l (l_id INTEGER, k INTEGER, v INTEGER, prob DOUBLE);
         CREATE TABLE o (o_id INTEGER, k INTEGER, x INTEGER, prob DOUBLE)",
    )
    .unwrap();
    let mut rows = Vec::new();
    let mut n = 0i64;
    for id in 0..CLUSTERS {
        let size = if wide && id == CLUSTERS / 2 {
            12
        } else {
            1 + id % 3
        };
        for j in 0..size {
            n += 1;
            let k = if size == 12 { j } else { (id * 7 + j) % KEYS };
            let prob = 1.0 / (size as f64 + 0.1 * (j as f64));
            rows.push(format!("({id}, {k}, {}, {prob:?})", n % 40));
        }
    }
    for chunk in rows.chunks(500) {
        db.execute_script(&format!("INSERT INTO l VALUES {}", chunk.join(", ")))
            .unwrap();
    }
    let dims: Vec<String> = (0..2 * KEYS)
        .map(|i| {
            format!(
                "({i}, {}, {}, {:?})",
                i % KEYS,
                i % 13,
                0.3 + 0.4 * (i / KEYS) as f64
            )
        })
        .collect();
    db.execute_script(&format!("INSERT INTO o VALUES {}", dims.join(", ")))
        .unwrap();
    db
}

/// RewriteClean's shape, grouped by `key` (`l.l_id` or `l.l_id + 0`). The
/// `HAVING` keeps about one group in forty, spread over the whole output,
/// so a result fits a small budget while the aggregate keeps every group.
fn query(key: &str) -> String {
    format!(
        "SELECT {key}, o.x, SUM(l.prob * o.prob) FROM l, o WHERE l.k = o.k \
         GROUP BY {key}, o.x HAVING MIN(l.v) = 0"
    )
}

fn run(db: &Database, key: &str, limits: ExecLimits) -> QueryResult {
    let ctx = db.exec_context(limits);
    let sql = query(key);
    db.prepare(&sql)
        .and_then(|s| s.query_with(db, &ctx))
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// The answers with every DOUBLE as its bits.
fn bits(result: &QueryResult) -> Vec<Vec<(u8, u64)>> {
    result
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Int(i) => (0, *i as u64),
                    Value::Float(f) => (1, f.to_bits()),
                    other => panic!("unexpected cell {other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The statistics of the operator whose name starts with `kind`.
fn op(result: &QueryResult, kind: &str) -> OpStats {
    let mut found = None;
    result.stats().unwrap().root.visit(&mut |_, op| {
        if op.name.starts_with(kind) {
            found = Some(op.clone());
        }
    });
    found.unwrap_or_else(|| panic!("no {kind}"))
}

/// What charging and spilling left on an aggregate.
fn counters(agg: &OpStats) -> (u64, u64, u64, u64) {
    (
        agg.peak_mem,
        agg.spill_bytes,
        agg.spill_partitions,
        agg.spill_passes,
    )
}

/// Run both spellings under `limits`; they agree on answers, order and
/// counters. Returns the run-mode aggregate's statistics.
fn both(db: &Database, limits: ExecLimits, case: &str) -> OpStats {
    let runs = run(db, "l.l_id", limits);
    let hashed = run(db, "l.l_id + 0", limits);
    assert!(!runs.rows.is_empty(), "{case}: no answers");
    assert_eq!(
        bits(&runs),
        bits(&hashed),
        "{case}: answers or order differ"
    );
    let (agg, plain) = (op(&runs, "HashAggregate"), op(&hashed, "HashAggregate"));
    assert!(agg.name.contains("runs of l_id"), "{case}: {}", agg.name);
    assert!(!plain.name.contains("runs of"), "{case}: {}", plain.name);
    assert_eq!(plain.runs, 0, "{case}: the hash path counted runs");
    assert_eq!(counters(&agg), counters(&plain), "{case}: charges differ");
    assert!(agg.runs > 0, "{case}: no run opened");
    agg
}

#[test]
fn input_in_runs_stays_in_runs_to_the_end() {
    let db = database(false);
    let agg = both(&db, ExecLimits::none(), "in runs");
    assert_eq!(agg.runs, CLUSTERS as u64);
    assert_eq!(agg.hashed_at, None);
}

#[test]
fn a_reappearing_run_key_switches_to_hashing() {
    // An INSERT appends a tuple to cluster 3, long closed.
    let mut db = database(false);
    db.execute_script("INSERT INTO l VALUES (3, 5, 0, 0.5)")
        .unwrap();
    let agg = both(&db, ExecLimits::none(), "after INSERT");
    assert_eq!(
        agg.runs, CLUSTERS as u64,
        "every cluster opened a run first"
    );
    // The new tuple joins two `o` tuples; the first breaks run order.
    let tuples = op(&run(&db, "l.l_id", ExecLimits::none()), "HashJoin").rows_out;
    assert_eq!(agg.hashed_at, Some(tuples - 1));

    // A RECLUSTER moves cluster 600's tuples, in place, into cluster 7.
    let mut db = database(false);
    db.execute_script("RECLUSTER l (l_id, prob) TO 7 WHERE l_id = 600")
        .unwrap();
    let agg = both(&db, ExecLimits::none(), "after RECLUSTER");
    assert!(agg.hashed_at.is_some(), "{agg:?}");
}

#[test]
fn a_run_past_the_scan_bound_switches_to_hashing() {
    let db = database(true);
    let agg = both(&db, ExecLimits::none(), "wide run");
    assert!(agg.hashed_at.is_some(), "{agg:?}");
    // Every run before the wide one was aggregated in runs.
    assert_eq!(agg.runs, CLUSTERS as u64 / 2 + 1);
}

#[test]
fn spilled_join_and_aggregate_keep_answers_order_and_counters() {
    for wide in [false, true] {
        let db = database(wide);
        for kib in [16, 64] {
            let case = format!("{kib} KiB, wide {wide}");
            let limits = ExecLimits::none().with_mem_bytes(kib << 10);
            let agg = both(&db, limits, &case);
            assert!(agg.spill_bytes > 0, "{case}: the aggregate did not spill");
            let join = op(&run(&db, "l.l_id", limits), "HashJoin");
            if kib == 16 {
                // Grace partitions reorder the probe side, so a run key
                // reappears (if the aggregate's own spill did not end its
                // runs first).
                assert!(join.spill_bytes > 0, "{case}: the join did not spill");
            }
            assert!(agg.hashed_at.is_some(), "{case}: {agg:?}");
            // Whatever the budget, the answers are the unconstrained ones
            // as a multiset (a spilled aggregate re-emits by partition).
            let mut spilled = bits(&run(&db, "l.l_id", limits));
            let mut free = bits(&run(&db, "l.l_id", ExecLimits::none()));
            spilled.sort();
            free.sort();
            assert_eq!(spilled, free, "{case}: answers moved");
        }
    }
}
