//! The randomized mutation oracle for incremental view maintenance.
//!
//! Every one of the thirteen TPC-H templates is rewritten by
//! `RewriteClean` (Figure 4) and materialized as a delta-maintained view
//! over a miniature UIS-dirtied TPC-H database. A randomized sequence of
//! INSERT / DELETE / UPDATE / RECLUSTER / REANNOTATE statements then
//! mutates the base tables, and after **every** committed statement each
//! view's contents *and* hidden accumulator state are compared
//! bit-for-bit (`f64::to_bits`, not epsilon) against a recompute-from-
//! scratch on a cloned database. Both paths are the same exact,
//! order-independent fold, so any divergence is a real maintenance bug,
//! not float noise. The state table must also stay one row per group:
//! the same row count and key columns as the contents table.
//!
//! Case counts are tunable via `CONQUER_PROPTEST_CASES` (see DESIGN.md).

use conquer::proptest_cases;
use conquer_datagen::{
    dirty::{dirty_database, ProbMode, UisConfig, DIRTIED_TABLES},
    perturb::PerturbOptions,
    queries::{query_sql, QUERY_IDS},
    tpch::{identifier_column, TpchConfig},
};
use conquer_engine::{view, Database, SharedDatabase};
use conquer_storage::{DataType, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------- fixture

fn fixture() -> (Database, Vec<String>) {
    let cfg = UisConfig {
        tpch: TpchConfig { sf: 0.002, seed: 7 },
        if_factor: 2,
        prob_mode: ProbMode::Uniform,
        perturb: PerturbOptions::default(),
    };
    let dirty = dirty_database(cfg).unwrap();
    let mut db = dirty.db().clone();
    let mut views = Vec::new();
    for &id in &QUERY_IDS {
        let rewritten = dirty.rewrite(&query_sql(id, false)).unwrap();
        let name = format!("q{id}");
        exec(
            &mut db,
            &format!("CREATE MATERIALIZED VIEW {name} AS {rewritten}"),
        );
        views.push(name);
    }
    (db, views)
}

fn exec(db: &mut Database, sql: &str) {
    db.prepare(sql)
        .and_then(|s| s.run(db))
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
}

fn rows_of(db: &Database, table: &str) -> Vec<Vec<Value>> {
    db.catalog().table(table).unwrap().rows().to_vec()
}

/// The state table holds one row per group: the contents table's keys, in
/// the same order, and nothing per contribution.
fn assert_state_is_per_group(db: &Database, v: &str, ctx: &str) {
    let contents = db.catalog().table(v).unwrap();
    let state = db.catalog().table(&view::state_table_name(v)).unwrap();
    assert_eq!(
        state.len(),
        contents.len(),
        "{ctx}: {v} holds {} state rows for {} groups",
        state.len(),
        contents.len()
    );
    let columns = state.schema().columns();
    let keys = &columns[..columns.len() - 2];
    for (k, col) in keys.iter().enumerate() {
        let c = contents.column_index(col.name()).unwrap();
        for (srow, crow) in state.rows().iter().zip(contents.rows()) {
            assert_eq!(srow[k], crow[c], "{ctx}: {v} key column {:?}", col.name());
        }
    }
}

/// Render a row set with floats spelled as raw bit patterns, so equality
/// is bit-identity rather than `==` (which would conflate 0.0 and -0.0).
fn bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("f64:{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The oracle: refresh every view on a clone and demand that the
/// incrementally maintained contents *and* accumulator state are
/// bit-identical to the from-scratch recompute.
fn assert_views_match_recompute(db: &Database, views: &[String], ctx: &str) {
    let mut fresh = db.clone();
    for v in views {
        exec(&mut fresh, &format!("REFRESH MATERIALIZED VIEW {v}"));
        let state = view::state_table_name(v);
        assert_eq!(
            bits(&rows_of(db, v)),
            bits(&rows_of(&fresh, v)),
            "{ctx}: maintained contents of {v} diverged from recompute"
        );
        assert_eq!(
            bits(&rows_of(db, &state)),
            bits(&rows_of(&fresh, &state)),
            "{ctx}: maintained accumulator state of {v} diverged from recompute"
        );
    }
}

// ------------------------------------------------------------- mutations

/// One raw mutation decision; interpreted against the current database
/// state, so every generated step is executable.
#[derive(Debug, Clone, Copy)]
struct RawOp {
    table: u8,
    op: u8,
    row: u16,
    target: u16,
    scale: u8,
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(|(table, op, row, target, scale)| RawOp {
            table,
            op,
            row,
            target,
            scale,
        })
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Bool(b) => {
            if *b {
                "1 = 1".to_string()
            } else {
                "1 = 0".to_string()
            }
        }
        Value::Int(i) => i.to_string(),
        // `{:?}` is Rust's shortest round-trip rendering; the lexer
        // accepts both `1.0` and exponent forms.
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => format!("DATE '{d}'"),
    }
}

/// Interpret a raw decision as a concrete mutation statement, or `None`
/// when the chosen table has no rows left to act on.
fn op_sql(db: &Database, raw: RawOp) -> Option<String> {
    let table = DIRTIED_TABLES[raw.table as usize % DIRTIED_TABLES.len()];
    let t = db.catalog().table(table).unwrap();
    let rows = t.rows();
    if rows.is_empty() {
        return None;
    }
    let row = &rows[raw.row as usize % rows.len()];
    let id_col = identifier_column(table);
    let id_idx = t.column_index(id_col).unwrap();
    let id_lit = literal(&row[id_idx]);
    Some(match raw.op % 5 {
        // Duplicate an existing tuple: adds one more term to every
        // product the tuple participates in.
        0 => {
            let vals: Vec<String> = row.iter().map(literal).collect();
            format!("INSERT INTO {table} VALUES ({})", vals.join(", "))
        }
        // Retract a whole cluster.
        1 => format!("DELETE FROM {table} WHERE {id_col} = {id_lit}"),
        // Shift a non-identifier integer attribute: moves tuples between
        // groups (key change), not just between sums.
        2 => {
            let bump = (raw.scale % 5) as i64 + 1;
            match int_column(db, table, id_col) {
                Some(c) => {
                    format!("UPDATE {table} SET {c} = {c} + {bump} WHERE {id_col} = {id_lit}")
                }
                None => format!("UPDATE {table} SET prob = prob * 0.5 WHERE {id_col} = {id_lit}"),
            }
        }
        // Move a cluster's tuples into another cluster and renormalize.
        3 => {
            let target = &rows[raw.target as usize % rows.len()];
            format!(
                "RECLUSTER {table} ({id_col}, prob) TO {} WHERE {id_col} = {id_lit}",
                literal(&target[id_idx])
            )
        }
        // Re-derive probabilities without moving tuples.
        _ => {
            let f = [0.5, 0.9, 1.1, 2.0][raw.scale as usize % 4];
            format!(
                "REANNOTATE {table} ({id_col}, prob) SET prob * {f:?} WHERE {id_col} = {id_lit}"
            )
        }
    })
}

/// First integer column that is neither the cluster identifier nor a key
/// another generated statement relies on staying put.
fn int_column(db: &Database, table: &str, id_col: &str) -> Option<String> {
    let t = db.catalog().table(table).unwrap();
    t.schema()
        .columns()
        .iter()
        .find(|c| {
            c.data_type() == DataType::Int && c.name() != id_col && !c.name().ends_with("key")
        })
        .map(|c| c.name().to_string())
}

fn run_sequence(db: &mut Database, views: &[String], ops: &[RawOp], check_every: usize) {
    let mut applied = 0usize;
    for (i, raw) in ops.iter().enumerate() {
        let Some(sql) = op_sql(db, *raw) else {
            continue;
        };
        exec(db, &sql);
        applied += 1;
        for v in views {
            assert_state_is_per_group(db, v, &format!("step {i} ({sql})"));
        }
        if applied.is_multiple_of(check_every) {
            assert_views_match_recompute(db, views, &format!("step {i} ({sql})"));
        }
    }
    assert_views_match_recompute(db, views, "final state");
}

// ----------------------------------------------------------------- tests

/// The acceptance bar: a 200-step mutation sequence, all thirteen views
/// checked bit-identical against recompute after every single commit.
#[test]
fn two_hundred_step_sequence_keeps_all_views_bit_identical() {
    let (mut db, views) = fixture();
    // Deterministic xorshift so the 200 steps are stable run to run.
    let mut s: u64 = 0x9e3779b97f4a7c15;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let ops: Vec<RawOp> = (0..200)
        .map(|_| {
            let r = next();
            RawOp {
                table: (r & 0xff) as u8,
                op: ((r >> 8) & 0xff) as u8,
                row: ((r >> 16) & 0xffff) as u16,
                target: ((r >> 32) & 0xffff) as u16,
                scale: ((r >> 48) & 0xff) as u8,
            }
        })
        .collect();
    run_sequence(&mut db, &views, &ops, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(8)))]

    /// Shorter random interleavings, many seeds: the same oracle over
    /// proptest-generated op vectors (shrinkable on failure).
    #[test]
    fn random_interleavings_keep_views_bit_identical(
        ops in prop::collection::vec(raw_op(), 1..40)
    ) {
        let (mut db, views) = fixture();
        run_sequence(&mut db, &views, &ops, 4);
    }
}

/// Serving a maintained view is a scan of its contents table, cached like
/// any other answer: the base join plan is never re-executed on lookup.
#[test]
fn view_lookup_is_a_cached_scan_not_a_join() {
    let (db, views) = fixture();
    for v in &views {
        let plan = db
            .plan(&conquer_sql::parse_select(&format!("SELECT * FROM {v}")).unwrap())
            .unwrap()
            .describe();
        assert!(
            !plan.contains("Join"),
            "{v} lookup re-joins base tables: {plan}"
        );
    }

    let shared = SharedDatabase::new(db);
    let session = shared.session();
    let sql = "SELECT * FROM q1";
    session.query(sql).unwrap();
    let before = shared.stats();
    session.query(sql).unwrap();
    let after = shared.stats();
    assert_eq!(
        after.result_hits,
        before.result_hits + 1,
        "repeated view lookup missed the result cache: {before:?} -> {after:?}"
    );
}

/// Mutating a base table leaves views queryable through the shared handle
/// and bumps the maintenance counters the server reports.
#[test]
fn shared_handle_serves_maintained_views_across_epochs() {
    let (db, _views) = fixture();
    let shared = SharedDatabase::new(db);
    let session = shared.session();
    let before: usize = session.query("SELECT * FROM q1").unwrap().result.len();
    assert!(before > 0, "q1 should have groups at this scale");

    let t = DIRTIED_TABLES[5]; // lineitem
    let id_col = identifier_column(t);
    let id_lit = shared.with_db(|db| {
        let t = db.catalog().table(t).unwrap();
        literal(&t.rows()[0][t.column_index(id_col).unwrap()])
    });
    session
        .execute(&format!("DELETE FROM {t} WHERE {id_col} = {id_lit}"))
        .unwrap();

    let stats = shared.stats();
    assert!(
        stats.views >= 13,
        "view registry lost entries: {}",
        stats.views
    );
    assert!(
        stats.view_deltas_applied > 0,
        "DML over a referenced table must count a view delta"
    );
    // The new epoch serves the maintained contents.
    let _ = session.query("SELECT * FROM q1").unwrap();
}
