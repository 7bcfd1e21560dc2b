//! The clean-answer oracle's harness: one seeded generator of dirty
//! databases, queries and mutation sequences (families A–D), and a runner
//! that evaluates each query on every path that computes a clean answer
//! (`naive`, `flat`, `budget`, `session`, `view`, `refresh`, `snapshot`,
//! `reopen`, `expected`) and checks the paths against each other; DESIGN.md,
//! "Verification strategy", has the path table. A failure names the seed
//! and the first path pair that disagreed. Each entry point runs its own
//! seeds and asserts the coverage it is named for; instance counts scale
//! with `CONQUER_PROPTEST_CASES`.
//!
//! Shared by the entry points in `tests/clean_answer_oracle.rs`,
//! `tests/rewrite_vs_naive.rs`, `tests/expected_aggregates.rs`,
//! `tests/clean_answers_equivalence.rs` and
//! `tests/view_maintenance_property.rs`; each uses part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::sync::Arc;

use conquer::proptest_cases;
use conquer_core::{
    dirty::result_to_answers,
    naive::{naive_clean_answers, NaiveOptions},
    naive_expected, CandidateDatabases, DirtyDatabase, DirtySpec, RewriteClean,
};
use conquer_datagen::{
    dirty::{dirty_database, tpch_spec, UisConfig, DIRTIED_TABLES},
    queries::{query_sql, QUERY_IDS},
    tpch::{identifier_column, schemas, TpchConfig, NATIONS, REGIONS},
};
use conquer_engine::{
    view, Database, ExecLimits, QueryResult, QuerySource, SharedConfig, SharedDatabase, Snapshot,
};
use conquer_sql::{parse_select, SelectStatement};
use conquer_storage::{Catalog, DataType, Row, Value};
use rand::{rngs::StdRng, RngExt, SeedableRng};

const EPS: f64 = 1e-9;
/// Naive enumeration runs up to this many candidate databases per query;
/// a larger instance counts a refusal.
const NAIVE_LIMIT: u128 = 1 << 12;
const NAIVE: NaiveOptions = NaiveOptions {
    max_candidates: NAIVE_LIMIT,
};
/// A durable run checks every path each this many commits; the view and
/// snapshot paths run after every commit.
const FULL_CHECK_EVERY: usize = 25;

/// Per cluster, its tuples' probabilities and value lists.
type Clusters = Vec<Vec<(f64, String)>>;

/// `n` clusters of 1 to `dups` tuples drawn by `tuple`, each weighted 1–4
/// over its cluster's total, so each cluster sums to 1.
fn clusters(
    g: &mut StdRng,
    n: RangeInclusive<usize>,
    dups: usize,
    mut tuple: impl FnMut(&mut StdRng) -> String,
) -> Clusters {
    let mut cluster = |g: &mut StdRng| {
        let drawn: Vec<(f64, String)> = (0..g.random_range(1..=dups))
            .map(|_| (g.random_range(1..5) as f64, tuple(g)))
            .collect();
        let total: f64 = drawn.iter().map(|(w, _)| w).sum();
        drawn.into_iter().map(|(w, t)| (w / total, t)).collect()
    };
    (0..g.random_range(n)).map(|_| cluster(g)).collect()
}

/// One `INSERT` per tuple: the cluster's identifier, the values, the
/// probability.
fn inserts(table: &str, id: fn(usize) -> String, clusters: &Clusters) -> String {
    let mut sql = String::new();
    for (ci, cluster) in clusters.iter().enumerate() {
        for (p, values) in cluster {
            sql += &format!("INSERT INTO {table} VALUES ({}, {values}, {p:?});", id(ci));
        }
    }
    sql
}

/// One generated instance: a dirty database, the queries as written (the
/// naive path's input), and raw mutation decisions.
pub struct Instance {
    pub family: &'static str,
    pub seed: u64,
    pub dirty: DirtyDatabase,
    pub queries: Vec<String>,
    /// A `COUNT`/`SUM` query for the expected-aggregates path.
    pub expected: Option<String>,
    pub ops: Vec<u64>,
    /// Commits to run on a durable handle, with checkpoints between.
    pub durable: Option<usize>,
    pub views: bool,
    pub budgets: &'static [u64],
}

/// An instance of the thirteen templates over `db`, with no mutations.
fn instance(family: &'static str, seed: u64, db: Database, spec: DirtySpec) -> Instance {
    Instance {
        family,
        seed,
        dirty: DirtyDatabase::new(db, spec).unwrap(),
        queries: QUERY_IDS.iter().map(|&id| query_sql(id, false)).collect(),
        expected: None,
        ops: Vec::new(),
        durable: None,
        views: true,
        budgets: &[],
    }
}

/// Family A: `r(id, a, b, prob)` and `s(id, c, fk, prob)`, three random
/// rewritable SPJ queries, an expected-aggregate query, up to 6 mutations.
pub fn family_a(seed: u64) -> Instance {
    let g = &mut StdRng::seed_from_u64(seed);
    let n = |g: &mut StdRng, below: usize| g.random_range(0..below);
    let r = clusters(g, 1..=3, 3, |g| format!("{}, {}", n(g, 6), n(g, 6)));
    let s = clusters(g, 1..=2, 3, |g| {
        format!("{}, 'r{}'", n(g, 6), n(g, r.len()))
    });
    let mut db = Database::new();
    db.execute_script(&format!(
        "CREATE TABLE r (id TEXT, a INTEGER, b INTEGER, prob DOUBLE);
         CREATE TABLE s (id TEXT, c INTEGER, fk TEXT, prob DOUBLE); {}{}",
        inserts("r", |ci| format!("'r{ci}'"), &r),
        inserts("s", |ci| format!("'s{ci}'"), &s),
    ))
    .unwrap();
    let shape = EXPECTED_SHAPES[g.random_range(0..EXPECTED_SHAPES.len())];
    Instance {
        queries: (0..3).map(|_| random_spj(g)).collect(),
        expected: Some(shape.replace("{}", &g.random_range(0..6i64).to_string())),
        ops: (0..g.random_range(0..=6)).map(|_| g.random()).collect(),
        ..instance("A", seed, db, DirtySpec::uniform(&["r", "s"]))
    }
}

/// A random comparison on one of `columns`, one time in four the `OR` of
/// two.
fn random_pred(g: &mut StdRng, columns: &[&str]) -> String {
    let cmp = |g: &mut StdRng| {
        let ops = ["<", "<=", "=", ">", ">=", "<>"];
        let column = columns[g.random_range(0..columns.len())];
        let op = ops[g.random_range(0..ops.len())];
        format!("{column} {op} {}", g.random_range(0..6))
    };
    match g.random_range(0..4) {
        0 => format!("({} OR {})", cmp(g), cmp(g)),
        _ => cmp(g),
    }
}

/// A rewritable SPJ query over `r`, or over `s ⋈ r` rooted at `s`.
fn random_spj(g: &mut StdRng) -> String {
    let (join, extra) = (g.random::<bool>(), g.random::<bool>());
    let mut wheres = Vec::new();
    if join {
        wheres.push("s.fk = r.id".to_string());
    }
    if g.random() {
        wheres.push(random_pred(g, &["r.a", "r.b"]));
    }
    if join && g.random() {
        wheres.push(random_pred(g, &["s.c"]));
    }
    // Aliases keep the output names distinct, as a view's columns must be.
    let from = match (join, extra) {
        (true, true) => "s.id AS sid, r.id AS rid, r.a, s.c FROM s, r",
        (true, false) => "s.id AS sid, r.id AS rid FROM s, r",
        (false, true) => "r.id, r.b FROM r",
        (false, false) => "r.id FROM r",
    };
    match wheres.is_empty() {
        true => format!("SELECT {from}"),
        false => format!("SELECT {from} WHERE {}", wheres.join(" AND ")),
    }
}

/// Expected-aggregate query shapes, `{}` filled with a random constant.
const EXPECTED_SHAPES: [&str; 6] = [
    "select r.id, count(*) from r group by r.id",
    "select r.id, sum(r.a) from r where r.b < {} group by r.id",
    "select count(*), sum(r.a + r.b) from r",
    "select r.id, count(*), sum(s.c) from s, r where s.fk = r.id group by r.id",
    // non-identifier join: outside the clean-answer class, still exact here
    "select count(*) from s, r where s.c = r.a",
    "select r.id, sum(s.c * r.a) from s, r where s.fk = r.id and s.c > {} group by r.id",
];

/// Family B's dirty relations, with the most clusters each may have (the
/// least is 2).
const MINI_TABLES: [(&str, usize); 6] = [
    ("supplier", 2),
    ("customer", 2),
    ("part", 2),
    ("partsupp", 3),
    ("orders", 2),
    ("lineitem", 3),
];

/// Family B's tuples per [`MINI_TABLES`] relation, after the cluster index:
/// each `{a|b|…}` is drawn per tuple, `$` is its serial number. Values
/// straddle the templates' filters: quantity Q17's 15, Q6's 24, Q18's 45;
/// discount Q6's band; availqty Q20's 100; order dates Q4's and Q10's
/// windows; line dates Q3's cutoff, Q6's and Q20's year, Q12's order, Q14's
/// month; names Q9's and Q20's; nations Q2's, Q11's and Q20's.
const MINI_TUPLES: [&str; 6] = [
    "$, 'Supplier#$', '$ Main St', {7|6|23|3|12|4}, '10-555-$', {-900.0|1200.0|4000.0|9600.0}",
    "$, 'Customer#$', '$ Oak Ave', {7|6|23|3|12|4}, '10-555-$', {-900.0|1200.0|4000.0|9600.0}, \
     '{BUILDING|MACHINERY}'",
    "$, '{forest green almond|green antique azure|blue coral ivory}', 'Manufacturer#2', \
     '{Brand#23|Brand#41}', '{LARGE PLATED BRASS|SMALL ANODIZED TIN}', {15|7}, 'MED BOX', 1500.0",
    "$, {0|1}, {0|1}, {60|99|101|140}, 42.5",
    "$, {0|1}, 'O', 30000.0, DATE '{1992-12-01|1993-08-15|1993-11-20|1994-06-01|1995-01-10}', \
     '{1-URGENT|3-MEDIUM|5-LOW}', 'Clerk#$', 0",
    "$, {0|1}, {0|1}, {0|1}, 1, {5|14|16|23|25|44|46|55}, {1000.0|25000.0|99900.0}, \
     {0.03|0.05|0.06|0.07|0.08}, 0.04, '{R|A|N}', '{O|F}', \
     DATE '{1993-03-01|1994-02-01|1994-06-15|1995-04-01|1995-09-10|1996-01-20}', \
     DATE '{1993-03-20|1994-02-20|1994-07-01|1995-09-20}', \
     DATE '{1993-04-01|1994-03-05|1994-07-10|1995-09-25|1996-02-10}', 'NONE', \
     '{MAIL|SHIP|TRUCK|RAIL}'",
];

/// One tuple of `template` (see [`MINI_TUPLES`]), the next serial number.
fn expand(g: &mut StdRng, template: &str, serial: &mut usize) -> String {
    *serial += 1;
    let (mut out, mut rest) = (String::new(), template);
    while let Some(open) = rest.find('{') {
        let close = open + rest[open..].find('}').unwrap();
        let choices: Vec<&str> = rest[open + 1..close].split('|').collect();
        out += &rest[..open];
        out += choices[g.random_range(0..choices.len())];
        rest = &rest[close + 1..];
    }
    (out + rest).replace('$', &serial.to_string())
}

/// Family B: the real TPC-H schemas, 2–3 entities per dirty relation in
/// 1–2 tuple clusters (a template enumerates at most a few hundred
/// candidates), the thirteen templates with ORDER BY, up to 4 mutations.
pub fn family_b(seed: u64) -> Instance {
    let g = &mut StdRng::seed_from_u64(seed);
    let mut catalog = Catalog::new();
    for (name, schema) in schemas().unwrap() {
        catalog.create_table(name, schema).unwrap();
    }
    let region = REGIONS.map(|r| vec![(1.0, format!("'{r}'"))]).to_vec();
    let nation = NATIONS
        .map(|(n, r)| vec![(1.0, format!("'{n}', {r}"))])
        .to_vec();
    let mut script = inserts("region", |ci| ci.to_string(), &region);
    script += &inserts("nation", |ci| ci.to_string(), &nation);
    let mut serial = 0;
    for ((table, most), template) in MINI_TABLES.into_iter().zip(MINI_TUPLES) {
        let rows = clusters(g, 2..=most, 2, |g| expand(g, template, &mut serial));
        script += &inserts(table, |ci| ci.to_string(), &rows);
    }
    let mut db = Database::from_catalog(catalog);
    db.execute_script(&script).unwrap();
    Instance {
        queries: QUERY_IDS.iter().map(|&id| query_sql(id, true)).collect(),
        ops: (0..g.random_range(0..=4)).map(|_| g.random()).collect(),
        ..instance("B", seed, db, tpch_spec())
    }
}

fn datagen(sf: f64, seed: u64, if_factor: u32) -> Database {
    let mut config = UisConfig::default();
    (config.tpch, config.if_factor) = (TpchConfig { sf, seed }, if_factor);
    dirty_database(config).unwrap().db().clone()
}

/// Family C: 200 commits, with a checkpoint in about one step of 20.
pub fn family_c() -> Instance {
    let g = &mut StdRng::seed_from_u64(7);
    Instance {
        ops: (0..400).map(|_| g.random()).collect(),
        durable: Some(200),
        ..instance("C", 7, datagen(0.002, 7, 2), tpch_spec())
    }
}

/// Family D. Q1 peaks at 4 601 436 B of aggregate state here (Q9 at
/// 2 192 678 B, Q18 at 1 607 746 B), so 4 MiB must spill; 3 MiB would fail
/// on Q1's result buffer, which is never spilled.
pub fn family_d() -> Instance {
    Instance {
        views: false,
        budgets: &[16 << 20, 4 << 20],
        ..instance("D", 2024, datagen(0.1, 2024, 3), tpch_spec())
    }
}

/// A SQL literal for `v`; no column here is `BOOLEAN`.
pub fn literal(v: &Value) -> String {
    match v {
        // `{:?}` is the shortest round-trip rendering.
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => format!("DATE '{d}'"),
        null_or_int => null_or_int.to_string(),
    }
}

/// Read a raw decision as a mutation statement on the current state:
/// bits 0–7 pick the table, 8–15 the kind, 16– the row, 32– the target
/// cluster, 48– the scale. `None` when the table is empty.
fn op_sql(db: &Database, family: &str, raw: u64) -> Option<String> {
    let (tables, id_of): (&[&str], fn(&str) -> &'static str) = match family {
        "A" => (&["r", "s"], |_| "id"),
        _ => (&DIRTIED_TABLES, identifier_column),
    };
    let table = tables[(raw & 0xff) as usize % tables.len()];
    let (id_col, t) = (id_of(table), db.catalog().table(table).unwrap());
    let rows = t.rows();
    let pick = |shift: u32| rows.get((raw >> shift) as usize % rows.len().max(1));
    let (row, target) = (pick(16)?, pick(32)?);
    let id_idx = t.column_index(id_col).unwrap();
    let id = literal(&row[id_idx]);
    let scale = (raw >> 48) as usize;
    Some(match (raw >> 8) % 5 {
        // Duplicate a tuple: one more term in every product it joins.
        0 => {
            let values: Vec<String> = row.iter().map(literal).collect();
            format!("INSERT INTO {table} VALUES ({})", values.join(", "))
        }
        // Retract a whole cluster.
        1 => format!("DELETE FROM {table} WHERE {id_col} = {id}"),
        // Shift an integer attribute (not a key): tuples change groups.
        2 => {
            let int = t.schema().columns().iter().find(|c| {
                c.data_type() == DataType::Int && c.name() != id_col && !c.name().ends_with("key")
            });
            let set = match int.map(|c| c.name()) {
                Some(c) => format!("{c} = {c} + {}", scale % 5 + 1),
                None => "prob = prob * 0.5".to_string(),
            };
            format!("UPDATE {table} SET {set} WHERE {id_col} = {id}")
        }
        // Move a cluster into another one and renormalize.
        3 => format!(
            "RECLUSTER {table} ({id_col}, prob) TO {} WHERE {id_col} = {id}",
            literal(&target[id_idx])
        ),
        // Scale probabilities without renormalizing (breaks Definition 2).
        _ => {
            let f = [0.5, 0.9, 1.1, 2.0][scale % 4];
            format!("REANNOTATE {table} ({id_col}, prob) SET prob * {f:?} WHERE {id_col} = {id}")
        }
    })
}

/// What a family's runs exercised; each family test asserts its share.
#[derive(Debug, Default)]
pub struct Coverage {
    pub naive_compared: usize,
    pub naive_after_dml: usize,
    pub naive_refused: usize,
    pub expected_compared: usize,
    /// Answers, on a valid state, checked to lie in (0, 1].
    pub bounded: usize,
    /// Valid states whose candidate probabilities were summed to 1.
    pub candidate_sums: usize,
    /// Commits; each checks the view, refresh and snapshot paths.
    pub commits: usize,
    pub cache_hits: usize,
    pub reopens: usize,
    pub spilled_at_4_mib: usize,
    /// Unconstrained rewritten answers whose aggregate ran in runs of
    /// its spine's identifier, and those of them that switched to hashing
    /// part-way (a run key reappeared, or a run outgrew its bound).
    pub in_runs: usize,
    pub runs_hashed: usize,
}

impl Coverage {
    fn note_runs(&mut self, result: &QueryResult) {
        if let Some(stats) = result.stats() {
            stats.root.visit(&mut |_, op| {
                self.in_runs += usize::from(op.runs > 0);
                self.runs_hashed += usize::from(op.runs > 0 && op.hashed_at.is_some());
            });
        }
    }
}

/// One query as written (the naive path's input), RewriteClean's output
/// (every engine path's input), and the view maintaining it.
pub struct Query(SelectStatement, SelectStatement, Option<String>);

/// An answer in key order (the probability is last).
fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

fn rows_of(db: &Database, table: &str) -> Vec<Row> {
    db.catalog().table(table).unwrap().rows().to_vec()
}

/// The database without its views' tables: naive enumeration copies the
/// catalog per candidate, and would rehydrate every view with each copy.
fn without_views(dirty: &DirtyDatabase) -> DirtyDatabase {
    let mut catalog = dirty.db().catalog().clone();
    for v in dirty.db().views() {
        catalog.drop_table(&v.name).unwrap();
        catalog.drop_table(&v.state_table()).unwrap();
    }
    DirtyDatabase::new_unvalidated(Database::from_catalog(catalog), dirty.spec().clone())
}

/// The durable directory of an instance.
fn dir_of(inst: &Instance) -> std::path::PathBuf {
    let id = format!("{}_{}_{}", inst.family, inst.seed, std::process::id());
    std::env::temp_dir().join(format!("conquer_oracle_{id}"))
}

/// One instance in flight.
struct Run<'a> {
    inst: &'a Instance,
    cov: &'a mut Coverage,
    shared: SharedDatabase,
    queries: Vec<Query>,
    /// Where in the sequence the run is.
    when: String,
}

impl Run<'_> {
    /// Panic naming the seed and the first path pair that disagreed.
    fn fail(&self, q: Option<usize>, pair: &str, detail: impl Display) -> ! {
        let query = q.map_or(String::new(), |q| format!(", query {q}"));
        let (family, seed, when) = (self.inst.family, self.inst.seed, &self.when);
        panic!("oracle: family {family} seed {seed}{query}, {when}: {pair} disagree: {detail}")
    }

    /// Rows agree bit for bit: `Value` compares floats by `total_cmp`.
    fn same(&self, q: usize, pair: &str, left: &[Row], right: &[Row]) {
        if left != right {
            let first = left.iter().zip(right).find(|(a, b)| a != b);
            let (m, n) = (left.len(), right.len());
            self.fail(Some(q), pair, format!("{m} vs {n} rows, first {first:?}"));
        }
    }

    fn rewritten(&self, db: &Database, q: usize, limits: ExecLimits) -> QueryResult {
        let ctx = db.exec_context(limits);
        let run = db.prepare_select(&self.queries[q].1);
        let result = run.and_then(|s| s.query_with(db, &ctx));
        result.unwrap_or_else(|e| self.fail(Some(q), "flat vs engine", e))
    }

    fn flat(&self, db: &Database, q: usize) -> Vec<Row> {
        sorted(self.rewritten(db, q, ExecLimits::none()).rows)
    }

    /// Every path at the current state; returns the flat answers.
    fn check_state(&mut self, after_dml: bool) -> Vec<Vec<Row>> {
        let snap = self.shared.snapshot();
        let (db, spec) = (snap.db(), self.inst.dirty.spec());
        let valid = spec.validate(db.catalog()).is_ok();
        let dirty = DirtyDatabase::new_unvalidated(db.clone(), spec.clone());
        let mut base = None;
        let mut flats = Vec::new();
        for q in 0..self.queries.len() {
            let result = self.rewritten(db, q, ExecLimits::none());
            self.cov.note_runs(&result);
            let flat = sorted(result.rows);
            // Naive first: a wrong rewriting shows as naive vs flat, not
            // as a disagreement among rewritten paths.
            let from = self.queries[q].0.from.iter();
            let tables: Vec<String> = from.map(|t| t.table.clone()).collect();
            match valid.then(|| dirty.candidate_count(Some(&tables)).unwrap()) {
                Some(n) if n > NAIVE_LIMIT => self.cov.naive_refused += 1,
                Some(_) => {
                    let base = base.get_or_insert_with(|| without_views(&dirty));
                    self.check_naive(base, q, &flat, after_dml);
                }
                None => {}
            }
            for &budget in self.inst.budgets {
                let result = self.rewritten(db, q, ExecLimits::none().with_mem_bytes(budget));
                let spilled = result.stats().is_some_and(|s| s.disk_charged > 0);
                self.cov.spilled_at_4_mib += usize::from(spilled && budget == 4 << 20);
                let pair = format!("budget {} MiB vs flat", budget >> 20);
                self.same(q, &pair, &sorted(result.rows), &flat);
            }
            // The first serve may already hit (a commit misses only the
            // answers that read a table it wrote); the second must.
            let text = self.queries[q].1.to_string();
            for (pair, must_hit) in [("session vs flat", false), ("session-hit vs flat", true)] {
                let served = self.shared.session().query(&text);
                let served = served.unwrap_or_else(|e| self.fail(Some(q), pair, e));
                if must_hit && served.source != QuerySource::ResultCache {
                    self.fail(Some(q), pair, format!("served {:?}", served.source));
                }
                self.cov.cache_hits += usize::from(must_hit);
                self.same(q, pair, &sorted(served.result.rows.clone()), &flat);
            }
            if let Some(v) = &self.queries[q].2 {
                self.same(q, "view vs flat", &rows_of(db, v), &flat);
            }
            let p = |row: &Row| row.last().and_then(Value::as_f64).unwrap_or(f64::NAN);
            let outside = |row: &&Row| valid && !(p(row) > 0.0 && p(row) <= 1.0 + EPS);
            if let Some(row) = flat.iter().find(outside) {
                self.fail(Some(q), "flat vs (0, 1]", format!("{row:?}"));
            }
            self.cov.bounded += usize::from(valid);
            flats.push(flat);
        }
        let tables: Vec<String> = spec.tables().map(|(n, _)| n.to_string()).collect();
        if valid && dirty.candidate_count(Some(&tables)).unwrap() <= NAIVE_LIMIT {
            let candidates = CandidateDatabases::new(db.catalog(), spec, &tables).unwrap();
            let total: f64 = candidates.map(|(_, p)| p).sum();
            if (total - 1.0).abs() > EPS {
                self.fail(None, "candidate probabilities vs 1", total);
            }
            self.cov.candidate_sums += 1;
        }
        if let (true, Some(sql)) = (valid, &self.inst.expected) {
            self.check_expected(base.get_or_insert_with(|| without_views(&dirty)), sql);
        }
        flats
    }

    fn check_naive(&mut self, dirty: &DirtyDatabase, q: usize, flat: &[Row], after_dml: bool) {
        let (catalog, spec) = (dirty.db().catalog(), dirty.spec());
        let naive = naive_clean_answers(catalog, spec, &self.queries[q].0, NAIVE);
        let naive = naive.unwrap_or_else(|e| self.fail(Some(q), "naive vs flat", e));
        let columns = naive.columns.iter().cloned().chain(["p".into()]).collect();
        let rewritten = result_to_answers(QueryResult::new(columns, flat.to_vec()));
        if !rewritten.approx_same(&naive, EPS) {
            self.fail(Some(q), "naive vs flat", format!("{naive} vs {rewritten}"));
        }
        self.cov.naive_compared += 1;
        self.cov.naive_after_dml += usize::from(after_dml);
    }

    /// `RewriteExpected` against `naive_expected`: each group's values
    /// within 1e-9, and no group on one side only unless its values are 0.
    fn check_expected(&mut self, dirty: &DirtyDatabase, sql: &str) {
        let fail = |d: String| -> ! { self.fail(None, "expected vs naive", format!("{sql}: {d}")) };
        let (catalog, spec) = (dirty.db().catalog(), dirty.spec());
        let stmt = parse_select(sql).unwrap();
        let want = naive_expected(catalog, spec, &stmt, NAIVE);
        let want = BTreeMap::from_iter(want.unwrap_or_else(|e| fail(e.to_string())));
        let got = dirty.expected_answers(sql);
        let got = got.unwrap_or_else(|e| fail(e.to_string())).rows;
        // The group keys lead the projection in every shape.
        let keys = want.keys().next().map_or(0, Vec::len);
        let value = |v: &Value| v.as_f64().unwrap_or(0.0);
        let split = |r: &Row| (r[..keys].to_vec(), r[keys..].iter().map(value).collect());
        let got: BTreeMap<Row, Vec<f64>> = got.iter().map(split).collect();
        for key in want.keys().chain(got.keys()) {
            let (w, g) = (want.get(key), got.get(key));
            let close = match (w, g) {
                (Some(w), Some(g)) => w.iter().zip(g).all(|(a, b)| (a - b).abs() < EPS),
                (None, Some(g)) => g.iter().all(|x| x.abs() <= EPS),
                _ => false,
            };
            if !close {
                fail(format!("group {key:?}: {w:?} vs {g:?}"));
            }
        }
        self.cov.expected_compared += 1;
    }

    fn views(&self) -> impl Iterator<Item = (usize, &String)> {
        let named = self.queries.iter().enumerate();
        named.filter_map(|(q, query)| Some((q, query.2.as_ref()?)))
    }

    /// Each view's contents and state rows, as `db` holds them.
    fn view_tables(&self, db: &Database) -> Vec<(usize, Vec<Row>)> {
        let both = |(q, v): (usize, &String)| [(q, v.clone()), (q, view::state_table_name(v))];
        let tables = self.views().flat_map(both);
        tables.map(|(q, t)| (q, rows_of(db, &t))).collect()
    }

    /// Each view equals `REFRESH` on a clone in contents and state and keeps
    /// one state row per group. A view whose base, contents and state tables
    /// are all still the allocations (so the rows) of `verified`, a version
    /// that passed this check, needs no recompute.
    fn check_views(&self, verified: Option<&Snapshot>) {
        let snap = self.shared.snapshot();
        let db = snap.db();
        let mut fresh = db.clone();
        for (q, v) in self.views() {
            let state = view::state_table_name(v);
            let unchanged = verified.is_some_and(|old| {
                let (old, new) = (old.db().catalog(), db.catalog());
                let same = |t: &str| Arc::ptr_eq(old.shared(t).unwrap(), new.shared(t).unwrap());
                let from = self.queries[q].1.from.iter().map(|t| t.table.as_str());
                from.chain([v.as_str(), state.as_str()]).all(same)
            });
            if unchanged {
                continue;
            }
            let refresh = fresh.prepare(&format!("REFRESH MATERIALIZED VIEW {v}"));
            refresh.and_then(|s| s.run(&mut fresh)).unwrap();
            let (contents, kept) = (rows_of(db, v), rows_of(db, &state));
            self.same(q, "view vs refresh", &contents, &rows_of(&fresh, v));
            self.same(q, "view state vs refresh", &kept, &rows_of(&fresh, &state));
            // A state row is the group key, the count and the sum; the
            // contents row is the key and the probability.
            let keys = |rows: &[Row], n| -> Vec<Row> {
                rows.iter().map(|r| r[..r.len() - n].to_vec()).collect()
            };
            if keys(&kept, 2) != keys(&contents, 1) {
                self.fail(Some(q), "view state vs view", "not one state row per group");
            }
        }
    }

    /// `db` gives the answers `flats` and the view tables `views`.
    fn same_as(&self, pair: &str, db: &Database, flats: &[Vec<Row>], views: &[(usize, Vec<Row>)]) {
        for (q, flat) in flats.iter().enumerate() {
            self.same(q, &format!("{pair} vs flat"), &self.flat(db, q), flat);
        }
        for ((q, now), (_, then)) in self.view_tables(db).iter().zip(views) {
            self.same(*q, &format!("{pair} view vs view"), now, then);
        }
    }

    /// Drop the durable handle, reopen its directory, and demand the same
    /// answers and view tables.
    fn reopen(&mut self, flats: &[Vec<Row>]) {
        let views = self.view_tables(self.shared.snapshot().db());
        // Release the old handle before opening its directory again.
        self.shared = SharedDatabase::new(Database::new());
        let reopened = SharedDatabase::open_durable(dir_of(self.inst), SharedConfig::default());
        let (shared, _) = reopened.unwrap_or_else(|e| self.fail(None, "reopen vs flat", e));
        self.shared = shared;
        self.same_as("reopen", self.shared.snapshot().db(), flats, &views);
        self.cov.reopens += 1;
    }
}

/// A shared handle on the instance's database (durable if it is), and each
/// query rewritten and, if the instance has views, kept as `oracle_v<i>`.
pub fn open(inst: &Instance) -> (SharedDatabase, Vec<Query>) {
    let initial = inst.dirty.db().clone();
    let shared = match inst.durable {
        Some(_) => {
            let _ = std::fs::remove_dir_all(dir_of(inst));
            let opened = SharedDatabase::open_durable(dir_of(inst), SharedConfig::default());
            let (shared, _) = opened.unwrap();
            let load = |db: &mut Database| Ok(std::mem::replace(db, initial));
            shared.mutate(load).unwrap();
            shared
        }
        None => SharedDatabase::new(initial),
    };
    let mut queries = Vec::new();
    for (q, sql) in inst.queries.iter().enumerate() {
        let stmt = parse_select(sql).unwrap();
        let (catalog, spec) = (inst.dirty.db().catalog(), inst.dirty.spec());
        let rewritten = RewriteClean.rewrite(catalog, spec, &stmt);
        let rewritten = rewritten.unwrap_or_else(|e| panic!("{sql} should be rewritable: {e}"));
        // A maintained view is kept in group-key order.
        let mut body = rewritten.clone();
        body.order_by.clear();
        let view = inst.views.then(|| format!("oracle_v{q}"));
        if let Some(v) = &view {
            let create = format!("CREATE MATERIALIZED VIEW {v} AS {body}");
            let created = shared.session().execute(&create);
            created.unwrap_or_else(|e| panic!("{create}: {e}"));
        }
        queries.push(Query(stmt, rewritten, view));
    }
    (shared, queries)
}

/// Evaluate one instance on every path through its whole mutation
/// sequence.
pub fn run_instance(inst: &Instance, cov: &mut Coverage) {
    let ((shared, queries), when) = (open(inst), "initial state".to_string());
    let mut run = Run {
        inst,
        cov,
        shared,
        queries,
        when,
    };
    run.check_views(None);
    let mut flats = Some(run.check_state(false));
    let mut commits = 0;
    for (i, &raw) in inst.ops.iter().enumerate() {
        if inst.durable.is_some_and(|n| commits >= n) {
            break;
        }
        if inst.durable.is_some() && (raw >> 56) % 20 == 0 {
            run.when = format!("step {i} (checkpoint)");
            run.shared.checkpoint().unwrap();
            continue;
        }
        let pinned = run.shared.snapshot();
        let Some(sql) = op_sql(pinned.db(), inst.family, raw) else {
            continue;
        };
        let views = run.view_tables(pinned.db());
        run.when = format!("step {i} ({sql})");
        let done = run.shared.session().execute(&sql);
        done.unwrap_or_else(|e| run.fail(None, "commit vs sequence", e));
        commits += 1;
        run.cov.commits += 1;
        // First after a commit: a maintenance bug shows as view vs refresh.
        run.check_views(Some(&pinned));
        let before = flats.as_deref().unwrap_or(&[]);
        run.same_as("snapshot", pinned.db(), before, &views);
        let full = inst.durable.is_none() || commits % FULL_CHECK_EVERY == 0;
        flats = full.then(|| run.check_state(true));
        if inst.durable == Some(commits * 2) {
            let now = flats.take().unwrap_or_else(|| run.check_state(true));
            run.reopen(&now);
            flats = Some(now);
        }
    }
    run.when = "final state".to_string();
    let last = flats.unwrap_or_else(|| run.check_state(true));
    if inst.durable.is_some() {
        run.reopen(&last);
        std::fs::remove_dir_all(dir_of(inst)).ok();
    }
}

/// Run share `share` of a family: its `n` seeds `share · n`, …, `share · n +
/// n - 1`. A family's entry points take distinct shares, so no instance
/// runs twice.
fn run_share(family: fn(u64) -> Instance, share: u64, n: u32) -> Coverage {
    let (mut cov, n) = (Coverage::default(), u64::from(n));
    for seed in share * n..(share + 1) * n {
        run_instance(&family(seed), &mut cov);
    }
    cov
}

/// Family A's share `share` of four, each `4 ×` the proptest case count of
/// seeds: shares 0–2 are `rewrite_vs_naive`'s, share 3
/// `expected_aggregates`'.
pub fn family_a_share(share: u64) -> Coverage {
    run_share(family_a, share, 4 * proptest_cases(8))
}

/// Family B's share `share` of three: shares 0–1 are
/// `clean_answers_equivalence`'s, share 2 `view_maintenance_property`'s.
pub fn family_b_share(share: u64) -> Coverage {
    run_share(family_b, share, proptest_cases(3))
}
