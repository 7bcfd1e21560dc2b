//! `EXPLAIN` prints the operator tree that runs. The planner fixes every
//! join's build side and so the spine; plain `EXPLAIN` builds the
//! executor's operator tree without pulling it. So for every query here
//! its lines are `EXPLAIN ANALYZE`'s operator names at the same depths:
//! the 13 rewritten templates on a small dirty TPC-H database, and
//! queries with `HAVING`, a residual join filter, a cross join and
//! `DISTINCT` + `ORDER BY` + `LIMIT`.
//!
//! It also pins that a hash join lists its probe input first, that a
//! prepared statement keeps the build sides it was planned with however
//! its tables grow, and that a plan the executor would refuse is refused
//! when it is bound.

use conquer_datagen::dirty::{dirty_database, UisConfig};
use conquer_datagen::queries::{query_sql, QUERY_IDS};
use conquer_datagen::tpch::TpchConfig;
use conquer_engine::{Database, ErrorKind};
use conquer_storage::Value;

/// The `QUERY PLAN` lines of `EXPLAIN [ANALYZE] sql`.
fn query_plan(db: &Database, explain: &str, sql: &str) -> Vec<String> {
    let result = db
        .prepare(&format!("{explain} {sql}"))
        .and_then(|stmt| stmt.query(db))
        .unwrap_or_else(|e| panic!("{explain} {sql}: {e}"));
    result.rows.iter().map(|row| row[0].to_string()).collect()
}

/// Plain `EXPLAIN`'s lines, checked against `EXPLAIN ANALYZE`'s operator
/// lines with their counters cut off.
fn explain_is_the_tree_that_runs(db: &Database, sql: &str) -> Vec<String> {
    let plain = query_plan(db, "EXPLAIN", sql);
    let ran: Vec<String> = query_plan(db, "EXPLAIN ANALYZE", sql)
        .iter()
        .filter_map(|line| line.rsplit_once(" (rows=").map(|(op, _)| op.to_string()))
        .collect();
    assert_eq!(plain, ran, "{sql}");
    plain
}

fn tpch() -> conquer_core::DirtyDatabase {
    let mut config = UisConfig::default();
    (config.tpch, config.if_factor) = (TpchConfig { sf: 0.002, seed: 7 }, 2);
    dirty_database(config).unwrap()
}

#[test]
fn plain_explain_is_the_analyze_tree_for_every_template_and_shape() {
    let dirty = tpch();
    let db = dirty.db();
    for id in QUERY_IDS {
        let sql = dirty.rewrite(&query_sql(id, true)).unwrap().to_string();
        let plan = explain_is_the_tree_that_runs(db, &sql);
        // Every rewritten template streams its Definition 7 root and
        // aggregates in runs of the root's identifier.
        let runs = |l: &String| {
            let op = l.trim_start();
            op.starts_with("HashAggregate (runs of l_id")
                || op.starts_with("HashAggregate (runs of ps_id")
        };
        assert!(plan.iter().any(runs), "Q{id}: {plan:?}");
        assert!(
            !plan.iter().any(|l| l.contains("NestedLoopJoin")),
            "Q{id}: {plan:?}"
        );
    }
    let shapes = [
        (
            "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag \
             HAVING COUNT(*) > 1",
            "Filter (HAVING)",
        ),
        (
            "SELECT o_orderkey, c_custkey FROM orders, customer \
             WHERE o_custkey = c_custkey AND o_totalprice > c_acctbal",
            "Filter",
        ),
        (
            "SELECT n_name, r_name FROM nation, region",
            "NestedLoopJoin",
        ),
        (
            "SELECT DISTINCT n_regionkey FROM nation WHERE n_nationkey > 3 \
             ORDER BY n_regionkey DESC LIMIT 3",
            "Distinct",
        ),
    ];
    for (sql, op) in shapes {
        let plan = explain_is_the_tree_that_runs(db, sql);
        assert!(plan.iter().any(|l| l.trim_start() == op), "{sql}: {plan:?}");
    }
    let plan = explain_is_the_tree_that_runs(db, shapes[3].0);
    assert_eq!(
        plan,
        [
            "Limit",
            "  Sort",
            "    Distinct",
            "      Project",
            "        Scan nation [nation] (filtered)",
        ]
    );
}

/// `small` (2 rows) and `big` (5 rows), joined on `k`.
fn two_tables() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE small (k INTEGER, s INTEGER);
         CREATE TABLE big (k INTEGER, b INTEGER);
         INSERT INTO small VALUES (1, 10), (2, 20);
         INSERT INTO big VALUES (1, 1), (2, 2), (2, 3), (3, 4), (4, 5)",
    )
    .unwrap();
    db
}

const JOIN: &str = "SELECT s.k, s.s, b.b FROM small s, big b WHERE s.k = b.k";

#[test]
fn a_hash_join_lists_its_probe_input_first() {
    let db = two_tables();
    // `small` is FROM's first relation but the smaller one, so it builds
    // and `big` is the probe side, listed first, and the spine.
    assert_eq!(
        explain_is_the_tree_that_runs(&db, JOIN),
        [
            "Project",
            "  HashJoin on 1 key(s)",
            "    Scan big [b]",
            "    Scan small [s]",
        ]
    );
    let result = db.prepare(JOIN).unwrap().query(&db).unwrap();
    let join = &result.stats().unwrap().root.children[0];
    // The build child streams all of `small`, whose keys span [1, 2]. The
    // probe scan reads all 5 rows of `big` and emits the 3 in that range:
    // its 2 others are pruned, as `EXPLAIN ANALYZE` shows.
    let (probe, build) = (&join.children[0], &join.children[1]);
    assert_eq!(build.rows_out, 2);
    assert_eq!((probe.rows_in, probe.pruned, probe.rows_out), (5, 2, 3));
    let analyzed = query_plan(&db, "EXPLAIN ANALYZE", JOIN);
    assert!(analyzed[2].contains(" pruned=2)"), "{analyzed:?}");
    // The output follows the probe side's order.
    let b: Vec<&Value> = result.rows.iter().map(|r| &r[2]).collect();
    assert_eq!(b, [&Value::Int(1), &Value::Int(2), &Value::Int(3)]);
}

#[test]
fn a_prepared_statement_keeps_its_build_side_as_tables_grow() {
    let mut db = two_tables();
    let stmt = db.prepare(JOIN).unwrap();
    let probe_of = |result: &conquer_engine::QueryResult| {
        result.stats().unwrap().root.children[0].children[0]
            .name
            .clone()
    };
    assert_eq!(probe_of(&stmt.query(&db).unwrap()), "Scan big [b]");
    // Grow the build table past the probe table.
    let rows: Vec<String> = (0..20)
        .map(|i| format!("({}, {})", i % 4, 100 + i))
        .collect();
    db.execute_script(&format!("INSERT INTO small VALUES {}", rows.join(", ")))
        .unwrap();
    let kept = stmt.query(&db).unwrap();
    assert_eq!(probe_of(&kept), "Scan big [b]", "the build side moved");
    let fresh = db.prepare(JOIN).unwrap().query(&db).unwrap();
    assert_eq!(probe_of(&fresh), "Scan small [s]");
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort();
        rows
    };
    assert_eq!(kept.rows.len(), 6 + 2 * 6 + 5);
    assert_eq!(sorted(kept.rows), sorted(fresh.rows));
}

#[test]
fn distinct_with_an_unprojected_sort_key_is_refused_when_bound() {
    let db = two_tables();
    let sql = "SELECT DISTINCT k FROM big ORDER BY b";
    assert_eq!(db.prepare(sql).unwrap_err().kind(), ErrorKind::Bind);
    let explain = db.prepare(&format!("EXPLAIN {sql}"));
    assert_eq!(explain.unwrap_err().kind(), ErrorKind::Bind);
    let parsed = conquer_sql::parse_select(sql).unwrap();
    assert_eq!(db.plan(&parsed).unwrap_err().kind(), ErrorKind::Bind);
    // A sort key the output computes is fine.
    let ok = db.prepare("SELECT DISTINCT k FROM big ORDER BY k").unwrap();
    assert_eq!(ok.query(&db).unwrap().len(), 4);
}
