//! The hash join against a nested-loop reference. Two keys meet exactly
//! when `Value::sql_cmp`, the one SQL comparison, finds them equal, for
//! every pair of `INTEGER`, `DOUBLE`, `TEXT` and `DATE` keys; a key pair of
//! different comparison classes is the same type error in both joins. And
//! the hash join's two shortcuts: a build that finishes in memory empty
//! ends the join without reading its probe input, and a probe scan that
//! has not started skips the rows whose key lies outside the build keys'
//! range before its filter sees them. Neither may drop a match or move
//! one: the join's rows come out exactly as a nested loop over its probe
//! and build inputs emits them.

use std::cmp::Ordering;

use conquer_engine::{Database, ErrorKind, OpStats, QueryResult};
use conquer_storage::{Catalog, DataType, Date, Schema, Table, Value};
use proptest::prelude::*;

/// Key cells the random tables draw from, per column type. Against a
/// `DOUBLE` key an integer meets the float nearest to it, as SQL equality
/// compares them (so 2⁵³ + 1 meets 2⁵³); two `INTEGER` keys beyond 2⁵³
/// (and `i64::MIN`) compare exactly; `-0.0` meets `0.0`; a text meets the
/// date it spells, and one that spells none meets no date; a NaN and
/// `NULL` meet nothing, not even themselves.
const EXACT: i64 = 1 << 53;

fn int_pool() -> Vec<Value> {
    let ints = [0, 1, 2, -3, EXACT, EXACT + 1, EXACT + 2, -(EXACT + 1)];
    let extremes = [i64::MAX, i64::MIN];
    let cells = ints.into_iter().chain(extremes).map(Value::Int);
    std::iter::once(Value::Null).chain(cells).collect()
}

fn float_pool() -> Vec<Value> {
    let floats = [
        -0.0,
        0.0,
        1.0,
        2.0,
        -3.0,
        2.5,
        EXACT as f64,
        (EXACT + 2) as f64,
    ];
    let odd = [1e300, f64::INFINITY, f64::NAN];
    let cells = floats.into_iter().chain(odd).map(Value::Float);
    std::iter::once(Value::Null).chain(cells).collect()
}

fn text_pool() -> Vec<Value> {
    let texts = ["", "a", "ab", "b", "B", "ä", "zz"];
    let cells = texts.into_iter().map(Value::text);
    std::iter::once(Value::Null).chain(cells).collect()
}

fn date_pool() -> Vec<Value> {
    let dates = ["1995-03-15", "1995-03-16", "1994-01-01", "2000-02-29"];
    let cells = dates
        .into_iter()
        .map(|d| Value::Date(d.parse::<Date>().unwrap()));
    std::iter::once(Value::Null).chain(cells).collect()
}

/// Texts to compare with dates: some spell one, some spell none.
fn date_text_pool() -> Vec<Value> {
    let texts = ["1995-03-15", "1995-03-16", "x", ""];
    let cells = texts.into_iter().map(Value::text);
    std::iter::once(Value::Null).chain(cells).collect()
}

/// The key column types of `a` and `b`, and the cells each draws from.
fn key_types(case: usize) -> [(DataType, Vec<Value>); 2] {
    let int = || (DataType::Int, int_pool());
    let float = || (DataType::Float, float_pool());
    let text = || (DataType::Text, text_pool());
    let date = || (DataType::Date, date_pool());
    let date_text = || (DataType::Text, date_text_pool());
    match case {
        0 => [int(), float()],
        1 => [float(), int()],
        2 => [text(), text()],
        3 => [int(), int()],
        4 => [float(), float()],
        5 => [date_text(), date()],
        6 => [date(), date_text()],
        _ => [date(), date()],
    }
}

/// A database of tables `a` and `b`, each `(i INTEGER, k <type>)` with
/// `i` the row's position, keys picked from the pools by index.
fn database(case: usize, picks: [&[usize]; 2]) -> Database {
    let mut catalog = Catalog::new();
    for ((name, picks), (ty, pool)) in ["a", "b"].into_iter().zip(picks).zip(key_types(case)) {
        let schema = Schema::from_pairs([("i", DataType::Int), ("k", ty)]).unwrap();
        let mut table = Table::new(name, schema);
        for (i, &pick) in picks.iter().enumerate() {
            let key = pool[pick % pool.len()].clone();
            table.insert(vec![Value::Int(i as i64), key]).unwrap();
        }
        catalog.add_table(table).unwrap();
    }
    Database::from_catalog(catalog)
}

/// Two keys meet exactly when SQL comparison finds them equal.
fn keys_meet(a: &Value, b: &Value) -> bool {
    a.sql_cmp(b) == Ok(Some(Ordering::Equal))
}

fn run(db: &Database, sql: &str) -> QueryResult {
    db.prepare(sql)
        .and_then(|stmt| stmt.query(db))
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// The first operator named `prefix…` in `result`'s tree, pre-order.
fn find(result: &QueryResult, prefix: &str) -> OpStats {
    let mut found = None;
    result.stats().unwrap().root.visit(&mut |_, op| {
        if found.is_none() && op.name.starts_with(prefix) {
            found = Some(op.clone());
        }
    });
    found.unwrap_or_else(|| panic!("no {prefix} operator"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hash_joins_emit_what_a_nested_loop_emits_in_its_order(
        case in 0usize..8,
        a in prop::collection::vec(0usize..16, 0..9),
        b in prop::collection::vec(0usize..16, 0..9),
        (min_a, min_b) in (0i64..4, 0i64..4),
    ) {
        let db = database(case, [&a, &b]);
        let sql = format!(
            "SELECT a.i, b.i FROM a, b WHERE a.k = b.k AND a.i >= {min_a} AND b.i >= {min_b}"
        );
        let result = run(&db, &sql);
        let join = find(&result, "HashJoin");
        let probe_is_a = join.children[0].name.starts_with("Scan a ");
        let rows = |t: &str, min: i64| -> Vec<(i64, Value)> {
            let table = db.catalog().table(t).unwrap();
            table.rows().iter().filter_map(|r| match r[0] {
                Value::Int(i) if i >= min => Some((i, r[1].clone())),
                _ => None,
            }).collect()
        };
        let (a_rows, b_rows) = (rows("a", min_a), rows("b", min_b));
        let (probe, build) = if probe_is_a { (&a_rows, &b_rows) } else { (&b_rows, &a_rows) };
        let mut expected = Vec::new();
        for (p, pk) in probe {
            for (q, qk) in build {
                if keys_meet(pk, qk) {
                    let (ai, bi) = if probe_is_a { (*p, *q) } else { (*q, *p) };
                    expected.push(vec![Value::Int(ai), Value::Int(bi)]);
                }
            }
        }
        prop_assert_eq!(&result.rows, &expected, "{}", sql);
        // An empty build never reads its probe input.
        let build_op = &join.children[1];
        if build_op.rows_out == 0 {
            prop_assert_eq!(join.children[0].rows_in, 0, "{}", sql);
        }
    }
}

/// `small` (2 rows, keys 1 and 2) and `big` (5 rows, keys 1 to 4).
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

#[test]
fn an_empty_build_leaves_its_probe_scan_unread() {
    let db = two_tables();
    // `small` builds; its filter keeps none of its rows.
    let result = run(
        &db,
        "SELECT s.k, b.b FROM small s, big b WHERE s.k = b.k AND s.s > 100",
    );
    assert!(result.rows.is_empty());
    let join = find(&result, "HashJoin");
    assert_eq!(join.children[1].name, "Scan small [s] (filtered)");
    assert_eq!(
        (join.children[1].rows_in, join.children[1].rows_out),
        (2, 0)
    );
    let probe = &join.children[0];
    assert_eq!(probe.name, "Scan big [b]");
    assert_eq!((probe.rows_in, probe.rows_out, probe.batches), (0, 0, 0));
    assert_eq!(join.peak_mem, 0);
}

#[test]
fn a_pruned_probe_scan_filters_only_the_rows_in_the_build_keys_range() {
    let db = two_tables();
    let sql = "SELECT s.k, b.b FROM small s, big b WHERE s.k = b.k AND b.b > 1";
    let result = run(&db, sql);
    let ints = |v: &[[i64; 2]]| -> Vec<Vec<Value>> {
        v.iter().map(|r| r.map(Value::Int).to_vec()).collect()
    };
    assert_eq!(result.rows, ints(&[[2, 2], [2, 3]]));
    let probe = find(&result, "Scan big");
    assert_eq!(probe.name, "Scan big [b] (filtered)");
    // All 5 rows are read; keys 3 and 4 lie outside [1, 2] and are
    // skipped, so the filter sees the 3 others and keeps 2 of them.
    assert_eq!((probe.rows_in, probe.pruned, probe.rows_out), (5, 2, 2));
    let analyzed = run(&db, &format!("EXPLAIN ANALYZE {sql}"));
    let line = analyzed.rows[2][0].to_string();
    assert!(line.contains("Scan big [b] (filtered) (rows=2 "), "{line}");
    assert!(line.ends_with(" rows_in=5 pruned=2)"), "{line}");

    // A probe key that is not a bare column of the scan prunes nothing.
    let result = run(
        &db,
        "SELECT s.k, b.b FROM small s, big b WHERE s.k = b.k + 0 AND b.b > 1",
    );
    assert_eq!(result.rows, ints(&[[2, 2], [2, 3]]));
    let probe = find(&result, "Scan big");
    assert_eq!((probe.rows_in, probe.pruned, probe.rows_out), (5, 0, 4));
}

#[test]
fn text_keys_prune_by_their_order() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE tags (t TEXT);
         CREATE TABLE docs (d INTEGER, t TEXT);
         INSERT INTO tags VALUES ('b'), ('c');
         INSERT INTO docs VALUES (1, 'a'), (2, 'b'), (3, NULL), (4, 'bz'), (5, 'c'), (6, 'd')",
    )
    .unwrap();
    let result = run(&db, "SELECT docs.d FROM tags, docs WHERE tags.t = docs.t");
    assert_eq!(result.rows, [vec![Value::Int(2)], vec![Value::Int(5)]]);
    let probe = find(&result, "Scan docs");
    // 'a', NULL and 'd' lie outside ['b', 'c']; 'bz' lies inside and is
    // probed, matching nothing.
    assert_eq!((probe.rows_in, probe.pruned, probe.rows_out), (6, 3, 3));
}

/// An `INTEGER` key past 2⁵³ meets the `DOUBLE` it rounds to, in the hash
/// join as in the evaluator (and its nested loop): `sql_cmp` reads the
/// integer as `i as f64`. The hash join's probe range reads it the same
/// way, so it is not pruned either; two `INTEGER` keys stay exact.
#[test]
fn an_integer_past_two_to_the_53_meets_the_double_it_rounds_to() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (i INTEGER, k INTEGER);
         CREATE TABLE b (j INTEGER, k DOUBLE);
         CREATE TABLE c (m INTEGER, k INTEGER);
         INSERT INTO a VALUES (1, 9007199254740993), (2, 5);
         INSERT INTO b VALUES (10, 9007199254740992.0);
         INSERT INTO c VALUES (20, 9007199254740992)",
    )
    .unwrap();
    let hashed = run(&db, "SELECT a.i, b.j FROM a, b WHERE a.k = b.k");
    let looped = run(&db, "SELECT a.i, b.j FROM a, b WHERE a.k = b.k OR 1 = 0");
    assert_eq!(hashed.rows, [vec![Value::Int(1), Value::Int(10)]]);
    assert_eq!(hashed.rows, looped.rows);
    find(&hashed, "HashJoin");
    find(&looped, "NestedLoopJoin");
    let probe = find(&hashed, "Scan a ");
    assert_eq!(
        (probe.rows_in, probe.pruned),
        (2, 1),
        "only 5 is out of range"
    );

    let exact = run(&db, "SELECT a.i, c.m FROM a, c WHERE a.k = c.k");
    assert!(exact.rows.is_empty(), "{:?}", exact.rows);
    let looped = run(&db, "SELECT a.i, c.m FROM a, c WHERE a.k = c.k OR 1 = 0");
    assert_eq!(exact.rows, looped.rows);
}

/// A `CASE` key compares as its static type: with an `INTEGER` and a
/// `DOUBLE` arm it is `DOUBLE`, so against an `INTEGER` key the pair is
/// compared as SQL equality compares them, in the hash join as in the
/// evaluator, whichever arm a row takes.
#[test]
fn a_case_key_is_compared_as_its_static_type() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (i INTEGER);
         CREATE TABLE b (tag INTEGER, j INTEGER, f DOUBLE);
         INSERT INTO a VALUES (9007199254740993);
         INSERT INTO b VALUES (1, 9007199254740993, 0.5)",
    )
    .unwrap();
    let one = [vec![Value::Int(9007199254740993)]];
    for key in ["CASE WHEN b.tag = 1 THEN b.j ELSE b.f END", "b.j * 1.0"] {
        let hashed = run(&db, &format!("SELECT a.i FROM a, b WHERE a.i = {key}"));
        find(&hashed, "HashJoin");
        assert_eq!(hashed.rows, one, "{key}");
        let looped = format!("SELECT a.i FROM a, b WHERE a.i = {key} OR 1 = 0");
        assert_eq!(run(&db, &looped).rows, one, "{key}");
    }
    let filtered = run(
        &db,
        "SELECT a.i FROM a WHERE a.i = CASE WHEN 1 = 1 THEN 9007199254740993 ELSE 0.5 END",
    );
    assert_eq!(filtered.rows, one);
}

/// Each comparison answers the same in a hash join's form (`WHERE x = y`)
/// and in a nested loop's (`… OR 1 = 0`): a text meets the date it spells
/// and one that spells none meets nothing, a NaN meets nothing, and a pair
/// of different comparison classes is a type error (`ErrorKind::Exec`),
/// never a violated plan invariant (`ErrorKind::Internal`).
#[test]
fn both_join_forms_compare_by_the_one_rule() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (i INTEGER, t TEXT, f DOUBLE);
         CREATE TABLE b (j INTEGER, d DATE, s TEXT);
         INSERT INTO a VALUES (1, '1995-03-15', 1e309 - 1e309), (2, '1996-02-02', 0.5),
           (3, 'x', 2.0);
         INSERT INTO b VALUES (1, DATE '1995-03-15', '1'), (2, DATE '1996-01-01', 'x')",
    )
    .unwrap();
    let ints = |v: &[&[i64]]| -> Vec<Vec<Value>> {
        v.iter()
            .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
            .collect()
    };
    let hashed = run(&db, "SELECT a.i, b.j FROM a, b WHERE a.t = b.d");
    find(&hashed, "HashJoin");
    assert_eq!(hashed.rows, ints(&[&[1, 1]]));
    let looped = run(&db, "SELECT a.i, b.j FROM a, b WHERE a.t = b.d OR 1 = 0");
    assert_eq!(looped.rows, hashed.rows);

    let type_error = "cannot compare INTEGER 1 with TEXT '1'";
    for sql in [
        "SELECT a.i, b.j FROM a, b WHERE a.i = b.s",
        "SELECT a.i, b.j FROM a, b WHERE a.i = b.s OR 1 = 0",
        "SELECT a.i FROM a WHERE a.i IN ('1', 'x')",
    ] {
        let err = db.prepare(sql).and_then(|s| s.query(&db)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Exec, "{sql}: {err}");
        assert!(err.to_string().contains(type_error), "{sql}: {err}");
    }
    let sql = "SELECT a.i FROM a WHERE a.i BETWEEN 'a' AND 'z'";
    let err = db.prepare(sql).and_then(|s| s.query(&db)).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Exec, "{sql}: {err}");

    for (predicate, want) in [
        ("a.f = a.f", ints(&[&[2], &[3]])),
        ("a.f < 1.0", ints(&[&[2]])),
        ("a.f IN (0.5, a.f)", ints(&[&[2], &[3]])),
        ("a.f BETWEEN 0.0 AND 1.0", ints(&[&[2]])),
        ("a.t = DATE '1995-03-15'", ints(&[&[1]])),
    ] {
        let result = run(&db, &format!("SELECT a.i FROM a WHERE {predicate}"));
        assert_eq!(result.rows, want, "{predicate}");
    }
}
