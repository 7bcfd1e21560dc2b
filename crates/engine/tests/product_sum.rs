//! The product-sum aggregate against the general evaluator.
//!
//! RewriteClean's `SUM(R1.prob * … * Rm.prob)` over `DOUBLE` columns is
//! folded by reading its factors in place and multiplying them as `f64`s
//! (`AggCall::factors`). `SUM(1.0 * a * b * c)` is the same sum through
//! the evaluator — the literal is not a column, so the call is not
//! recognised, and `1.0 · x` is `x` exactly — so the two must agree by
//! `f64::to_bits`, group by group, in memory and with the aggregate forced
//! to spill (its partitions are re-aggregated by the same routine). Both
//! must also equal a reference computed here: the products multiplied left
//! to right, summed exactly.
//!
//! The cells include NULL, NaN, ±∞, ±0, subnormals, and magnitudes whose
//! products underflow to 0 or overflow to ∞. Calls that are not a
//! product-sum — INTEGER or mixed factors, a product that is not
//! left-deep, `SUM(DISTINCT …)` — keep the evaluator and today's values.

use conquer_engine::exact::ExactSum;
use conquer_engine::expr::ColumnId;
use conquer_engine::{Database, ExecLimits, QueryResult};
use conquer_storage::Value;

/// Deterministic xorshift, so a failure reproduces run to run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Finite special cells. Two `1e-160`s multiply to a subnormal, three
/// underflow to 0.
const FINITE: [Option<f64>; 10] = [
    None,
    Some(0.0),
    Some(-0.0),
    Some(5e-324),
    Some(f64::from_bits(0x000f_ffff_ffff_ffff)), // the largest subnormal
    Some(f64::MIN_POSITIVE),
    Some(1e-160),
    Some(0.1),
    Some(0.7),
    Some(1.0),
];

/// Cells whose products are not finite: `1e160` squared overflows to ∞.
const WILD: [Option<f64>; 5] = [
    Some(f64::NAN),
    Some(f64::INFINITY),
    Some(f64::NEG_INFINITY),
    Some(1e160),
    Some(-1e160),
];

/// One DOUBLE cell: a probability most of the time, a special value one
/// time in four. Only `wild` groups draw non-finite products, so most
/// groups keep a finite sum to compare.
fn cell(rng: &mut Rng, wild: bool) -> Option<f64> {
    match rng.below(8) {
        0 if wild => WILD[rng.below(WILD.len())],
        0 | 1 => FINITE[rng.below(FINITE.len())],
        _ => Some((rng.next() >> 11) as f64 / (1u64 << 53) as f64),
    }
}

fn float(x: Option<f64>) -> Value {
    x.map_or(Value::Null, Value::Float)
}

/// Groups of the fact tables.
const GROUPS: i64 = 500;
/// Join keys; `y` and `z` hold two rows per key.
const KEYS: i64 = 200;

/// Rows of `t`, `x` and `y`/`z` as inserted, every cell as an `f64`.
type TRow = [Option<f64>; 5];
type XRow = [Option<f64>; 3];
type DimRow = [Option<f64>; 2];
/// One row's term of a sum, NULL when it has none.
type Term = fn(&TRow) -> Option<f64>;

/// `t (g, k, a, b, c)`: one table whose rows carry three DOUBLE factors.
/// `x (g, k, p)`, `y (k, p)`, `z (k, p)`: RewriteClean's shape, a fact
/// table joined on `k` to two dirty dimensions. Returns the database and
/// the rows as inserted, for the reference.
fn database() -> (Database, Vec<TRow>, Vec<XRow>, Vec<DimRow>) {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut db = Database::new();
    db.set_limits(ExecLimits::none());
    db.execute_script(
        "CREATE TABLE t (g INTEGER, k INTEGER, a DOUBLE, b DOUBLE, c DOUBLE);
         CREATE TABLE x (g INTEGER, k INTEGER, p DOUBLE);
         CREATE TABLE y (k INTEGER, p DOUBLE);
         CREATE TABLE z (k INTEGER, p DOUBLE);",
    )
    .unwrap();
    let cat = db.catalog_mut();
    let mut t_rows = Vec::new();
    for i in 0..4 * GROUPS {
        let (g, k) = (i % GROUPS, i % 7 - 3);
        let wild = g % 4 == 3;
        let [a, b, c] = [0; 3].map(|_| cell(&mut rng, wild));
        let row = vec![Value::Int(g), Value::Int(k), float(a), float(b), float(c)];
        cat.table_mut("t").unwrap().insert(row).unwrap();
        t_rows.push([Some(g as f64), Some(k as f64), a, b, c]);
    }
    let mut x_rows = Vec::new();
    for i in 0..3 * GROUPS {
        let (g, k) = (i % GROUPS, i % KEYS);
        let p = cell(&mut rng, g % 4 == 3);
        let row = vec![Value::Int(g), Value::Int(k), float(p)];
        cat.table_mut("x").unwrap().insert(row).unwrap();
        x_rows.push([Some(g as f64), Some(k as f64), p]);
    }
    let mut dims = Vec::new();
    for name in ["y", "z"] {
        for i in 0..2 * KEYS {
            // Keys past KEYS / 2 only ever meet finite dimension cells.
            let k = i % KEYS;
            let p = cell(&mut rng, k < KEYS / 2);
            let row = vec![Value::Int(k), float(p)];
            cat.table_mut(name).unwrap().insert(row).unwrap();
            dims.push([Some(k as f64), p]);
        }
    }
    (db, t_rows, x_rows, dims)
}

/// The `(group, SUM bits)` rows of `sql` under `limits`, which must be
/// `SELECT g, SUM(…) … GROUP BY g ORDER BY g`.
fn run(db: &Database, sql: &str, limits: ExecLimits) -> (Vec<(i64, Option<u64>)>, QueryResult) {
    let result = db
        .prepare(sql)
        .unwrap()
        .query_with(db, &db.exec_context(limits))
        .unwrap();
    let rows = result
        .rows
        .iter()
        .map(|row| match &row[..] {
            [Value::Int(g), Value::Float(s)] => (*g, Some(s.to_bits())),
            [Value::Int(g), Value::Int(s)] => (*g, Some(*s as u64)),
            [Value::Int(g), Value::Null] => (*g, None),
            other => panic!("unexpected row {other:?}"),
        })
        .collect();
    (rows, result)
}

/// The product-sum factors the planner recorded for `sql`'s one
/// aggregate, and the plan's `EXPLAIN` text.
fn factors(db: &Database, sql: &str) -> (Vec<ColumnId>, String) {
    let plan = db.plan(&conquer_sql::parse_select(sql).unwrap()).unwrap();
    let group = plan.group.as_ref().expect("an aggregate query");
    assert_eq!(group.aggs.len(), 1, "{sql}");
    let explain = conquer_engine::exec::explain_plan(db.catalog(), &plan).unwrap();
    (group.aggs[0].factors.clone(), explain)
}

/// Per group, the exact sum of the terms `term` gives (NULL terms are
/// skipped), rounded once.
fn reference<R>(
    rows: &[R],
    group: impl Fn(&R) -> i64,
    term: impl Fn(&R) -> Option<f64>,
) -> Vec<(i64, Option<u64>)> {
    let mut sums: Vec<ExactSum> = (0..GROUPS).map(|_| ExactSum::new()).collect();
    for r in rows {
        if let Some(x) = term(r) {
            sums[group(r) as usize].add(x);
        }
    }
    sums.iter()
        .enumerate()
        .map(|(g, s)| (g as i64, s.value().map(f64::to_bits)))
        .collect()
}

/// The left-to-right product of `cells`, NULL if any is.
fn product(cells: &[Option<f64>]) -> Option<f64> {
    let (first, rest) = cells.split_first()?;
    rest.iter().try_fold((*first)?, |p, x| Some(p * (*x)?))
}

/// Every path a grouped query can take: in memory, and spilled under two
/// budgets that keep different shares of the groups in memory (the rest
/// are aggregated from their spilled partitions by the same routine).
fn every_path(db: &Database, sql: &str) -> Vec<(i64, Option<u64>)> {
    let (in_memory, _) = run(db, sql, ExecLimits::none());
    for budget in [96 << 10, 64 << 10] {
        let (spilled, result) = run(db, sql, ExecLimits::none().with_mem_bytes(budget));
        let stats = result.stats().unwrap();
        assert!(stats.disk_charged > 0, "{sql} did not spill at {budget} B");
        assert_eq!(spilled, in_memory, "{sql} spilled at {budget} B");
    }
    in_memory
}

#[test]
fn a_product_sum_is_bit_identical_to_the_evaluator() {
    let (db, t_rows, x_rows, dims) = database();

    // One relation, three factors.
    let fast = "SELECT g, SUM(a * b * c) FROM t GROUP BY g ORDER BY g";
    let slow = "SELECT g, SUM(1.0 * a * b * c) FROM t GROUP BY g ORDER BY g";
    let (ids, explain) = factors(&db, fast);
    assert_eq!(ids, [2, 3, 4].map(|col| ColumnId { rel: 0, col }));
    assert!(
        explain.contains("HashAggregate (runs of g; SUM of 3 DOUBLE factors)"),
        "{explain}"
    );
    let (ids, explain) = factors(&db, slow);
    assert!(ids.is_empty());
    assert!(explain.contains("HashAggregate (runs of g)\n"), "{explain}");
    let want = reference(&t_rows, |r| r[0].unwrap() as i64, |r| product(&r[2..]));
    assert_eq!(every_path(&db, fast), want, "product-sum");
    assert_eq!(every_path(&db, slow), want, "evaluator");
    let value = |s: &Option<u64>| s.map(f64::from_bits);
    assert!(want.iter().any(|(_, s)| value(s).is_some_and(f64::is_nan)));
    assert!(want
        .iter()
        .any(|(_, s)| value(s).is_some_and(f64::is_infinite)));
    assert!(want
        .iter()
        .any(|(_, s)| value(s).is_some_and(f64::is_finite)));

    // RewriteClean's shape: one factor per relation, across two joins.
    let from = "FROM x, y, z WHERE x.k = y.k AND x.k = z.k GROUP BY x.g ORDER BY x.g";
    let fast = format!("SELECT x.g, SUM(x.p * y.p * z.p) {from}");
    let slow = format!("SELECT x.g, SUM(1.0 * x.p * y.p * z.p) {from}");
    let (ids, _) = factors(&db, &fast);
    let id = |rel, col| ColumnId { rel, col };
    assert_eq!(ids, [id(0, 2), id(1, 1), id(2, 1)]);
    assert!(factors(&db, &slow).0.is_empty());
    let (y_rows, z_rows) = dims.split_at(dims.len() / 2);
    let mut joined = Vec::new();
    for xr in &x_rows {
        for yr in y_rows.iter().filter(|yr| yr[0] == xr[1]) {
            for zr in z_rows.iter().filter(|zr| zr[0] == xr[1]) {
                joined.push((xr[0].unwrap() as i64, [xr[2], yr[1], zr[1]]));
            }
        }
    }
    assert_eq!(joined.len(), x_rows.len() * 4);
    let want = reference(&joined, |(g, _)| *g, |(_, cells)| product(cells));
    assert_eq!(every_path(&db, &fast), want, "joined product-sum");
    assert_eq!(every_path(&db, &slow), want, "joined evaluator");

    // The terms reach every case the test is about: NULL, NaN, ±∞ (from
    // an infinite cell and from overflow), -0.0, subnormals, and products
    // of non-zero cells that underflow to zero.
    let cells = t_rows
        .iter()
        .map(|r| r[2..].to_vec())
        .chain(joined.iter().map(|(_, c)| c.to_vec()));
    let (mut seen, mut overflow, mut underflow) = ([false; 6], false, false);
    for c in cells {
        let Some(term) = product(&c) else {
            seen[0] = true;
            continue;
        };
        let finite_cells = c.iter().all(|x| x.is_some_and(f64::is_finite));
        let nonzero_cells = c.iter().all(|x| x.is_some_and(|x| x != 0.0));
        overflow |= term.is_infinite() && finite_cells;
        underflow |= term == 0.0 && nonzero_cells;
        seen[1] |= term.is_nan();
        seen[2] |= term == f64::INFINITY;
        seen[3] |= term == f64::NEG_INFINITY;
        seen[4] |= term == 0.0 && term.is_sign_negative();
        seen[5] |= term.is_subnormal();
    }
    assert_eq!(seen, [true; 6], "NULL, NaN, +∞, −∞, −0.0, subnormal");
    assert!(
        overflow && underflow,
        "overflow {overflow}, underflow {underflow}"
    );
}

#[test]
fn other_sums_keep_the_evaluator() {
    let (db, t_rows, ..) = database();
    let g = |r: &TRow| r[0].unwrap() as i64;
    let cases: [(&str, Term); 3] = [
        // INTEGER × DOUBLE: the INTEGER cell is a `Value::Int`.
        ("SUM(k * a)", |r| product(&[r[1], r[2]])),
        // Not left-deep.
        ("SUM(a * (b * c))", |r| Some(r[2]? * (r[3]? * r[4]?))),
        // One factor is no product.
        ("SUM(a)", |r| r[2]),
    ];
    for (call, term) in cases {
        let sql = format!("SELECT g, {call} FROM t GROUP BY g ORDER BY g");
        let (ids, explain) = factors(&db, &sql);
        assert!(ids.is_empty(), "{call} was recognised");
        assert!(explain.contains("HashAggregate (runs of g)\n"), "{explain}");
        assert_eq!(every_path(&db, &sql), reference(&t_rows, g, term), "{call}");
    }
    // All-INTEGER factors sum to an INTEGER.
    let sql = "SELECT g, SUM(k * k) FROM t GROUP BY g ORDER BY g";
    assert!(factors(&db, sql).0.is_empty());
    let (sums, _) = run(&db, sql, ExecLimits::none());
    let squares: i64 = (0..4).map(|i| ((i * GROUPS) % 7 - 3).pow(2)).sum();
    assert_eq!(sums[0], (0, Some(squares as u64)));
    // DISTINCT folds each distinct product once: the evaluator's path.
    let distinct = "SELECT g, SUM(DISTINCT a * b) FROM t GROUP BY g ORDER BY g";
    let twin = "SELECT g, SUM(DISTINCT 1.0 * a * b) FROM t GROUP BY g ORDER BY g";
    assert!(factors(&db, distinct).0.is_empty());
    assert_eq!(every_path(&db, distinct), every_path(&db, twin));
}
