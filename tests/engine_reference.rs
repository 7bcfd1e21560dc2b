//! Differential testing of the query engine: randomized SPJ queries are
//! executed both by the engine (predicate pushdown, hash joins) and by a
//! deliberately naive reference evaluator (cartesian product + row-at-a-
//! time filter), and the result multisets must match. This pins down the
//! planner's pushdown/join-ordering transformations as semantics-preserving
//! — the engine is the substrate every clean-answer measurement stands on.

use conquer_engine::{Database, QueryResult};
use conquer_storage::{Row, Value};
use proptest::prelude::*;

fn q(db: &Database, sql: &str) -> QueryResult {
    db.prepare(sql).expect("valid").query(db).expect("valid")
}

/// Three small tables with mixed types and NULLs.
#[derive(Debug, Clone)]
struct Data {
    t1: Vec<(i64, Option<i64>)>, // t1(a, b?)
    t2: Vec<(i64, i64, String)>, // t2(a, k, s)
    t3: Vec<(i64, f64)>,         // t3(k, x)
}

impl Data {
    fn build(&self) -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t1 (a INTEGER, b INTEGER);
             CREATE TABLE t2 (a INTEGER, k INTEGER, s TEXT);
             CREATE TABLE t3 (k INTEGER, x DOUBLE)",
        )
        .unwrap();
        {
            let t = db.catalog_mut().table_mut("t1").unwrap();
            for (a, b) in &self.t1 {
                t.insert(vec![(*a).into(), b.map(Value::Int).unwrap_or(Value::Null)])
                    .unwrap();
            }
        }
        {
            let t = db.catalog_mut().table_mut("t2").unwrap();
            for (a, k, s) in &self.t2 {
                t.insert(vec![(*a).into(), (*k).into(), s.as_str().into()])
                    .unwrap();
            }
        }
        {
            let t = db.catalog_mut().table_mut("t3").unwrap();
            for (k, x) in &self.t3 {
                t.insert(vec![(*k).into(), (*x).into()]).unwrap();
            }
        }
        db
    }
}

fn data_strategy() -> impl Strategy<Value = Data> {
    (
        prop::collection::vec((0i64..5, prop::option::of(0i64..5)), 0..8),
        prop::collection::vec((0i64..5, 0i64..4, "[ab]{1,2}"), 0..8),
        prop::collection::vec((0i64..4, (0u8..40).prop_map(|v| v as f64 / 4.0)), 0..6),
    )
        .prop_map(|(t1, t2, t3)| Data { t1, t2, t3 })
}

/// Reference evaluation: cartesian product of the FROM tables, evaluate the
/// WHERE row-at-a-time with the *same* expression evaluator (the engine's
/// expression semantics have their own unit tests), project.
///
/// Crucially this path exercises none of the planner's transformations:
/// no pushdown, no equi-edge extraction, no hash joins, no build-side swap.
fn reference(db: &Database, sql: &str) -> Vec<Row> {
    use conquer_engine::binder::{bind_select, OrderKey};
    use conquer_engine::expr::{Cells, ColumnId};
    use conquer_engine::EngineError;

    /// A row of the FROM relations' rows concatenated, relation `rel`
    /// starting at `offsets[rel]`.
    #[derive(Clone, Copy)]
    struct Concat<'r> {
        row: &'r Row,
        offsets: &'r [usize],
    }
    impl<'r> Cells<'r> for Concat<'r> {
        fn cell(self, id: ColumnId) -> Result<&'r Value, EngineError> {
            Ok(&self.row[self.offsets[id.rel] + id.col])
        }
    }

    let stmt = conquer_sql::parse_select(sql).unwrap();
    let bound = bind_select(db.catalog(), &stmt).unwrap();
    assert!(bound.group.is_none(), "reference covers SPJ only");

    // Cartesian product in FROM order.
    let mut rows: Vec<Row> = vec![vec![]];
    let mut offsets = Vec::new();
    let mut width = 0;
    for rel in &bound.relations {
        offsets.push(width);
        width += rel.schema.len();
        let table = db.catalog().table(&rel.table).unwrap();
        let mut next = Vec::new();
        for base in &rows {
            for row in table.rows() {
                let mut r = base.clone();
                r.extend(row.iter().cloned());
                next.push(r);
            }
        }
        rows = next;
    }
    let mut out = Vec::new();
    for row in &rows {
        let cells = Concat {
            row,
            offsets: &offsets,
        };
        if let Some(f) = &bound.filter {
            if !f.eval_predicate(cells).unwrap() {
                continue;
            }
        }
        let mut proj = Vec::new();
        for item in &bound.output {
            proj.push(item.expr.eval(cells).unwrap());
        }
        out.push(proj);
    }
    // Apply ORDER BY cheaply by sorting on the same keys.
    if !bound.order_by.is_empty() {
        // Only Output keys appear in our templates.
        let keys: Vec<(usize, bool)> = bound
            .order_by
            .iter()
            .map(|o| match &o.key {
                OrderKey::Output(i) => (*i, o.desc),
                OrderKey::Expr(_) => panic!("templates sort on outputs"),
            })
            .collect();
        out.sort_by(|x, y| {
            for (i, desc) in &keys {
                let ord = x[*i].cmp(&y[*i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    out
}

fn multiset(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// Query templates; `{}` is replaced by a small constant.
const TEMPLATES: [&str; 12] = [
    "select a, b from t1 where b >= {}",
    "select t1.a, t2.s from t1, t2 where t1.a = t2.a",
    "select t1.a, t2.s from t1, t2 where t1.a = t2.a and t2.k > {}",
    "select t1.b, t3.x from t1, t3 where t1.a = t3.k and t3.x < {}",
    "select t2.s, t3.x from t2, t3 where t2.k = t3.k or t3.x > {}",
    "select t1.a, t2.k, t3.x from t1, t2, t3 where t1.a = t2.a and t2.k = t3.k",
    "select t1.a + t2.k as v from t1, t2 where t1.a = t2.a and t1.b is not null",
    "select t1.a from t1, t2 where t1.a < t2.k",
    "select t2.s from t2 where t2.s like 'a%' and t2.a in (1, 2, {})",
    "select t1.a, t3.x from t1, t3 where t1.b = t3.k and t1.a between 1 and {}",
    // INTEGER = DOUBLE keys with a nullable probe side: the hash join must
    // match 1 with 1.0 and never match a NULL.
    "select t1.a, t3.x from t1, t3 where t1.b = t3.x and t1.a >= {}",
    // Nullable self-join: NULL = NULL never joins.
    "select x.a, y.a from t1 x, t1 y where x.b = y.b and x.a >= {}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn engine_matches_reference(
        data in data_strategy(),
        template in 0usize..TEMPLATES.len(),
        constant in 0i64..5,
    ) {
        let db = data.build();
        let sql = TEMPLATES[template].replace("{}", &constant.to_string());
        let engine = q(&db, &sql);
        let expected = reference(&db, &sql);
        prop_assert_eq!(
            multiset(engine.rows.clone()),
            multiset(expected),
            "query: {}", sql
        );
    }

    #[test]
    fn order_by_returns_sorted_rows(data in data_strategy(), desc in any::<bool>()) {
        let db = data.build();
        let dir = if desc { "desc" } else { "" };
        let sql = format!("select a, b from t1 order by a {dir}, b");
        let result = q(&db, &sql);
        for w in result.rows.windows(2) {
            let ord = w[0][0].cmp(&w[1][0]);
            let ord = if desc { ord.reverse() } else { ord };
            prop_assert!(ord != std::cmp::Ordering::Greater, "a out of order");
        }
    }
}

#[test]
fn join_keys_match_numerically_and_never_on_null() {
    let data = Data {
        t1: vec![(1, Some(1)), (2, None), (3, None), (4, Some(3))],
        t2: vec![],
        t3: vec![(0, 1.0), (0, 2.5), (0, 3.0)],
    };
    let db = data.build();
    let sql = "select t1.a, t3.x from t1, t3 where t1.b = t3.x";
    assert_eq!(
        multiset(q(&db, sql).rows),
        [
            vec![Value::Int(1), Value::Float(1.0)],
            vec![Value::Int(4), Value::Float(3.0)]
        ],
        "INTEGER keys meet equal DOUBLE keys"
    );
    let sql = "select x.a, y.a from t1 x, t1 y where x.b = y.b";
    assert_eq!(
        multiset(q(&db, sql).rows),
        [
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(4), Value::Int(4)]
        ],
        "NULL = NULL must not join"
    );
}
