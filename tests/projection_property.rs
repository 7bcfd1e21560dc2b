//! Property test for how joined tuples are read: randomized
//! select-project-join / aggregate queries over randomized dirty tables,
//! each run beside a *wide* twin that reads every column of every
//! relation above the scans (every cell of every position tuple, through
//! joins, aggregation and sort) and is trimmed back to the original
//! columns. The narrow plan must agree with it cell for cell — same row
//! order after ORDER BY, f64 aggregates (`SUM(val)`, `SUM(prob)`) equal
//! down to the bit — unconstrained and under a 16 MiB budget.

use conquer_engine::{Database, ExecLimits, QueryResult};
use conquer_storage::{Catalog, DataType, Schema, Table, Value};
use proptest::prelude::*;

/// Deterministic data generator (splitmix64) — tables of many batches,
/// built directly through the storage API so each proptest case stays
/// cheap.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn build_db(seed: u64, fact_rows: usize, dim_rows: usize) -> Database {
    let mut gen = Gen(seed);
    let mut catalog = Catalog::new();

    let mut dim = Table::new(
        "dim",
        Schema::from_pairs([
            ("key".to_string(), DataType::Int),
            ("name".to_string(), DataType::Text),
            ("weight".to_string(), DataType::Float),
        ])
        .unwrap(),
    );
    for k in 0..dim_rows {
        dim.insert(vec![
            Value::Int(k as i64),
            Value::text(format!("dim-{:04}", gen.next() % 500)),
            Value::Float(gen.unit()),
        ])
        .unwrap();
    }
    catalog.add_table(dim).unwrap();

    let mut fact = Table::new(
        "fact",
        Schema::from_pairs([
            ("id".to_string(), DataType::Int),
            ("key".to_string(), DataType::Int),
            ("grp".to_string(), DataType::Text),
            ("val".to_string(), DataType::Float),
            ("prob".to_string(), DataType::Float),
        ])
        .unwrap(),
    );
    for i in 0..fact_rows {
        // `key` sometimes dangles (no dim match) to exercise non-matching
        // probes; val mixes magnitudes so float sum order matters.
        fact.insert(vec![
            Value::Int(i as i64),
            Value::Int((gen.next() % (dim_rows as u64 * 5 / 4)) as i64),
            Value::text(format!("g{:02}", gen.next() % 23)),
            Value::Float(gen.unit() * 1000.0 + 1.0 / ((i + 1) as f64)),
            Value::Float(gen.unit()),
        ])
        .unwrap();
    }
    catalog.add_table(fact).unwrap();

    let mut db = Database::from_catalog(catalog);
    db.set_limits(ExecLimits::none());
    db
}

const FACT_COLS: [&str; 5] = ["id", "key", "grp", "val", "prob"];
const DIM_COLS: [&str; 3] = ["key", "name", "weight"];

/// One query of the SPJ/aggregate space, in pieces, so its wide twin can
/// be derived from the same text.
struct Query {
    distinct: bool,
    select: &'static str,
    /// `FROM … [WHERE …]`; a join iff `dim d` appears.
    from: String,
    grouped: bool,
    /// `GROUP BY … HAVING … ORDER BY … LIMIT …`.
    tail: &'static str,
}

/// The query space: scan-only and equi-join spines, filters on either
/// side, grouped f64 sums, DISTINCT, ORDER BY + LIMIT.
fn query_for(shape: u8, threshold: f64) -> Query {
    let q = |distinct, select, from: String, grouped, tail| Query {
        distinct,
        select,
        from,
        grouped,
        tail,
    };
    let join = "FROM fact f, dim d WHERE f.key = d.key";
    match shape % 6 {
        0 => q(
            false,
            "grp, COUNT(*), SUM(val)",
            format!("FROM fact f WHERE val < {threshold:.6}"),
            true,
            "GROUP BY grp ORDER BY grp",
        ),
        1 => q(
            false,
            "d.name, SUM(f.val * f.prob), COUNT(*)",
            join.into(),
            true,
            "GROUP BY d.name ORDER BY d.name",
        ),
        2 => q(
            false,
            "f.id, f.val",
            format!("{join} AND d.weight > {:.6}", threshold / 1500.0),
            false,
            "ORDER BY f.val, f.id LIMIT 50",
        ),
        // No ORDER BY: DISTINCT's first-seen emission order is itself
        // part of the determinism contract being tested.
        3 => q(true, "f.grp", join.into(), false, ""),
        4 => q(
            false,
            "grp, SUM(prob)",
            "FROM fact f".into(),
            true,
            "GROUP BY grp ORDER BY grp",
        ),
        _ => q(
            false,
            "f.grp, SUM(f.val + d.weight)",
            format!("{join} AND f.val < {threshold:.6}"),
            true,
            "GROUP BY f.grp HAVING COUNT(*) > 2 ORDER BY f.grp",
        ),
    }
}

impl Query {
    fn sql(&self) -> String {
        let distinct = if self.distinct { "DISTINCT " } else { "" };
        format!(
            "SELECT {distinct}{} {} {}",
            self.select, self.from, self.tail
        )
    }

    /// The same query reading every column of every relation above the
    /// scans: appended to the projection, or — grouped — as `MIN(col)`
    /// aggregates, which leave group order and the sums alone. DISTINCT
    /// is dropped (extra columns would change what is distinct) and
    /// redone by [`Query::trim`].
    fn wide_sql(&self) -> String {
        let mut cols: Vec<String> = FACT_COLS.iter().map(|c| format!("f.{c}")).collect();
        if self.from.contains("dim d") {
            cols.extend(DIM_COLS.iter().map(|c| format!("d.{c}")));
        }
        if self.grouped {
            cols = cols.iter().map(|c| format!("MIN({c})")).collect();
        }
        format!(
            "SELECT {}, {} {} {}",
            self.select,
            cols.join(", "),
            self.from,
            self.tail
        )
    }

    /// Cut a wide result back to the narrow query's columns (and, for
    /// DISTINCT, to first occurrences in stream order).
    fn trim(&self, wide: &QueryResult) -> Vec<Vec<String>> {
        let keep = self.select.split(", ").count();
        let mut rows = fingerprint(wide);
        for row in &mut rows {
            row.truncate(keep);
        }
        if self.distinct {
            let mut seen = std::collections::HashSet::new();
            rows.retain(|row| seen.insert(row.clone()));
        }
        rows
    }
}

fn fingerprint(res: &QueryResult) -> Vec<Vec<String>> {
    res.rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("f64:{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn narrow_and_wide_projections_agree_bit_for_bit(
        seed in any::<u64>(),
        fact_rows in 5000usize..15000,
        dim_rows in 50usize..400,
        shape in 0u8..6,
        threshold in 1.0f64..900.0,
    ) {
        let db = build_db(seed, fact_rows, dim_rows);
        let query = query_for(shape, threshold);
        let (sql, wide_sql) = (query.sql(), query.wide_sql());
        let run_with = |sql: &str, limits: ExecLimits| {
            db.prepare(sql).unwrap().with_limits(limits).query(&db).unwrap()
        };

        // Narrow rows vs. full-width rows: same cells, bit for bit.
        for limits in [ExecLimits::none(), ExecLimits::none().with_mem_bytes(16 << 20)] {
            prop_assert_eq!(
                fingerprint(&run_with(&sql, limits)),
                query.trim(&run_with(&wide_sql, limits)),
                "shape {} over seed {}: narrow and full-width rows disagree under {:?}",
                shape, seed, limits
            );
        }
    }
}
