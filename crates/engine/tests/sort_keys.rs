//! Property test for `ORDER BY`: the executor sorts a `(prefix, index)`
//! pair per row, where the prefix is an order-preserving byte encoding of
//! the row's keys, and compares full keys only where two prefixes tie. Its
//! order must be exactly a stable sort by `Value::cmp`.
//!
//! Each key is one of every kind of value the encoding distinguishes:
//! NULL, BOOLEAN, INTEGER (±2⁵³±1, the extremes, and integers numerically
//! equal to a DOUBLE), DOUBLE (NaN of both signs, ±0.0, ±∞, subnormals),
//! TEXT (`""`, `"\0"`, `"a\0b"`, texts of 20 bytes and more that differ
//! past any prefix, multibyte) and DATE. A `CASE` on a per-row selector
//! makes one key hold every type. Cases draw one to three keys, each
//! ASC or DESC, written as an output column or as an expression the output
//! does not compute, and run each query in memory and under a budget that
//! forces the external merge sort.

use conquer_engine::{Database, ExecLimits, QueryResult};
use conquer_storage::date::Date;
use conquer_storage::{Catalog, DataType, Row, Schema, Value};

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

/// Keys a row can hold.
const KEYS: usize = 3;

/// Rows per table.
const ROWS: usize = 600;

/// Every value a key draws from. Few enough that keys tie often.
fn pool() -> Vec<Value> {
    const E: i64 = 1 << 53;
    let long = "a-long-text-shared-by-many-keys";
    let mut pool = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
    pool.extend(
        [
            0,
            3,
            -3,
            E,
            E - 1,
            E + 1,
            -E,
            -E - 1,
            -E + 1,
            i64::MIN,
            i64::MAX,
        ]
        .map(Value::Int),
    );
    pool.extend(
        [
            0.0,
            -0.0,
            3.0,
            -3.0,
            E as f64,
            (E + 2) as f64,
            -(E as f64),
            0.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            i64::MAX as f64,
        ]
        .map(Value::Float),
    );
    let texts = [
        String::new(),
        "\0".to_string(),
        "\0\0".to_string(),
        "a".to_string(),
        "a\0".to_string(),
        "a\0b".to_string(),
        "a\u{1}".to_string(),
        "ab".to_string(),
        "\u{ff}".to_string(),
        "é".to_string(),
        "日本".to_string(),
        long.to_string(),
        format!("{long}\0"),
        format!("{long}-x"),
        format!("{long}-y"),
        format!("{long}é"),
    ];
    pool.extend(texts.into_iter().map(Value::Text));
    pool.extend([-800_000, -1, 0, 1, 10_957, 2_000_000].map(|d| Value::Date(Date::from_days(d))));
    pool
}

/// The typed columns a key's value lives in, and its selector: key `j` is
/// `sel_j` choosing among `b_j`, `i_j`, `f_j`, `t_j`, `d_j` (0: NULL).
fn schema() -> Schema {
    let mut cols = vec![("seq".to_string(), DataType::Int)];
    for j in 0..KEYS {
        for (name, ty) in [
            ("sel", DataType::Int),
            ("b", DataType::Bool),
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("t", DataType::Text),
            ("d", DataType::Date),
        ] {
            cols.push((format!("{name}_{j}"), ty));
        }
    }
    Schema::from_pairs(cols.iter().map(|(n, t)| (n.as_str(), *t))).unwrap()
}

/// The stored row holding `keys`, and its selector cells.
fn stored(seq: usize, keys: &[Value]) -> Row {
    let mut row = vec![Value::Int(seq as i64)];
    for v in keys {
        let mut cells = vec![Value::Null; 6];
        let sel = match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
            Value::Date(_) => 5,
        };
        cells[0] = Value::Int(sel);
        if sel > 0 {
            cells[sel as usize] = v.clone();
        }
        row.extend(cells);
    }
    row
}

/// Key `j` as one expression over its typed columns.
fn key_expr(j: usize) -> String {
    format!(
        "CASE WHEN sel_{j} = 1 THEN b_{j} WHEN sel_{j} = 2 THEN i_{j} \
         WHEN sel_{j} = 3 THEN f_{j} WHEN sel_{j} = 4 THEN t_{j} \
         WHEN sel_{j} = 5 THEN d_{j} ELSE NULL END"
    )
}

/// A table of [`ROWS`] rows whose keys are drawn from [`pool`]; a row
/// repeats the previous row's first key now and then, so ties reach the
/// later keys. Returns the database and each row's keys.
fn table(rng: &mut Rng) -> (Database, Vec<Vec<Value>>) {
    let pool = pool();
    let mut catalog = Catalog::new();
    let table = catalog.create_table("s", schema()).unwrap();
    let mut all: Vec<Vec<Value>> = Vec::new();
    for seq in 0..ROWS {
        let mut keys: Vec<Value> = (0..KEYS)
            .map(|_| pool[rng.below(pool.len())].clone())
            .collect();
        if let (Some(prev), 0) = (all.last(), rng.below(3)) {
            keys[0] = prev[0].clone();
        }
        table.insert(stored(seq, &keys)).unwrap();
        all.push(keys);
    }
    let mut db = Database::from_catalog(catalog);
    db.set_limits(ExecLimits::none());
    (db, all)
}

/// How one sort key is written.
#[derive(Debug, Clone, Copy)]
struct Key {
    col: usize,
    desc: bool,
    /// Selected as an output column (and ordered by its alias), or an
    /// expression only `ORDER BY` reads.
    output: bool,
}

/// The query, and the `seq` order a stable sort by `Value::cmp` gives.
fn case(keys: &[Key], rows: &[Vec<Value>]) -> (String, Vec<i64>) {
    let select: Vec<String> = keys
        .iter()
        .enumerate()
        .filter(|(_, k)| k.output)
        .map(|(n, k)| format!("{} AS k{n}", key_expr(k.col)))
        .collect();
    let order: Vec<String> = keys
        .iter()
        .enumerate()
        .map(|(n, k)| {
            let key = if k.output {
                format!("k{n}")
            } else {
                key_expr(k.col)
            };
            format!("{key}{}", if k.desc { " DESC" } else { "" })
        })
        .collect();
    let sql = format!(
        "SELECT {} FROM s ORDER BY {}",
        std::iter::once("seq".to_string())
            .chain(select)
            .collect::<Vec<_>>()
            .join(", "),
        order.join(", ")
    );
    let mut seqs: Vec<usize> = (0..rows.len()).collect();
    seqs.sort_by(|&a, &b| {
        keys.iter()
            .map(|k| {
                let ord = rows[a][k.col].cmp(&rows[b][k.col]);
                if k.desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    (sql, seqs.into_iter().map(|s| s as i64).collect())
}

fn run(db: &Database, sql: &str, limits: ExecLimits) -> QueryResult {
    let ctx = db.exec_context(limits);
    db.prepare(sql)
        .and_then(|s| s.query_with(db, &ctx))
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
}

fn seqs(result: &QueryResult) -> Vec<i64> {
    result
        .rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(s) => s,
            ref other => panic!("seq {other:?}"),
        })
        .collect()
}

/// The sort's peak buffer and the bytes it spilled.
fn sort_stats(result: &QueryResult) -> (u64, u64, u64) {
    let mut out = (0, 0, 0);
    result.stats().unwrap().root.visit(&mut |_, op| {
        if op.name == "Sort" {
            out = (op.peak_mem, op.spill_bytes, op.spill_partitions);
        }
    });
    out
}

#[test]
fn sorted_order_is_a_stable_sort_by_value_cmp_in_memory_and_spilled() {
    let mut rng = Rng(0x5eed_50f7);
    let (mut spilled, mut expression_keys) = (0, 0);
    for case_no in 0..24 {
        let (db, rows) = table(&mut rng);
        let n = 1 + rng.below(KEYS);
        let keys: Vec<Key> = (0..n)
            .map(|col| Key {
                col,
                desc: rng.below(2) == 1,
                output: rng.below(2) == 1,
            })
            .collect();
        expression_keys += keys.iter().filter(|k| !k.output).count();
        let (sql, want) = case(&keys, &rows);

        let in_memory = run(&db, &sql, ExecLimits::none());
        assert_eq!(seqs(&in_memory), want, "case {case_no} in memory: {sql}");
        let (peak, bytes, _) = sort_stats(&in_memory);
        assert_eq!(bytes, 0, "case {case_no} spilled without a budget");

        // The sort keeps half the budget, so it flushes runs; the result
        // buffer, never spilled, fits beside the merge.
        let budget = peak * 3 / 2;
        let merged = run(&db, &sql, ExecLimits::none().with_mem_bytes(budget));
        assert_eq!(
            seqs(&merged),
            want,
            "case {case_no} under {budget} B: {sql}"
        );
        assert_eq!(merged.rows, in_memory.rows, "case {case_no}: rows differ");
        let (_, bytes, runs) = sort_stats(&merged);
        if bytes > 0 {
            assert!(runs >= 2, "case {case_no}: one run is no merge");
            spilled += 1;
        }
    }
    assert!(spilled >= 20, "only {spilled} of 24 cases merged runs");
    assert!(expression_keys > 0, "no expression key drawn");
}
