//! Everything the workloads feed the program: the dirty database (fixed,
//! see [`DATA_SEED`]) and, made from `--seed`, the statement popularity,
//! the read stream, the template order and the DML stream. The program
//! under test sees only these generated inputs; the same seed always
//! yields byte-identical inputs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use conquer_core::DirtyDatabase;
use conquer_datagen::{
    dirty::{
        compute_probabilities, generate_unpropagated, propagate_identifiers, DirtyTpch, ProbMode,
        UisConfig, DIRTIED_TABLES,
    },
    perturb::PerturbOptions,
    queries::{query_sql, QUERY_IDS},
    tpch::{identifier_column, srckey_column, TpchConfig},
};
use conquer_engine::Database;
use conquer_storage::{Date, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Inconsistency factor of every workload (the paper's Figure 8 setting).
pub const IF_FACTOR: u32 = 3;

/// Seed of the generated database. The data is the same in every run: a
/// template's cost follows the selectivities the generator happens to draw
/// (Q9's `%green%` match count alone moves ±10 % with the data seed at
/// sf = 0.2), which would swamp every regression bound. `--seed` drives
/// what is done *to* this database — statement popularity, stream order,
/// DML targets — not the database.
pub const DATA_SEED: u64 = 2006;

/// Literal variants per template in the served workloads.
pub const VARIANTS: usize = 24;

/// Independent sub-seed `lane` of the run seed (SplitMix64 finalizer), so
/// data, statement popularity, stream order and DML targets never share a
/// random stream.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

// ------------------------------------------------------------------ data

/// A generated dirty database with the wall time of each offline stage —
/// the paper's Figure 7 pipeline, run stage by stage.
#[derive(Debug)]
pub struct StagedData {
    /// The annotated, validated dirty database.
    pub dirty: DirtyDatabase,
    /// `generate_unpropagated`: clean data + duplicates.
    pub generate: Duration,
    /// `propagate_identifiers`: foreign keys → cluster identifiers.
    pub propagate: Duration,
    /// `compute_probabilities` (information loss, Section 4) over the six
    /// dirtied tables, plus validation.
    pub assign: Duration,
}

/// Generate the TPC-H-lite dirty database at `sf` from `data_seed`
/// (workloads pass [`DATA_SEED`]), timing the three offline stages.
/// Probabilities are the paper's information-loss assignment.
pub fn generate(sf: f64, data_seed: u64) -> StagedData {
    let config = UisConfig {
        tpch: TpchConfig {
            sf,
            seed: data_seed,
        },
        if_factor: IF_FACTOR,
        prob_mode: ProbMode::InfoLoss,
        perturb: PerturbOptions::default(),
    };
    let t0 = Instant::now();
    let DirtyTpch { mut catalog, spec } =
        generate_unpropagated(config).expect("generating the dirty catalog");
    let generate = t0.elapsed();

    let t0 = Instant::now();
    let dangling = propagate_identifiers(&mut catalog).expect("identifier propagation");
    let propagate = t0.elapsed();
    assert_eq!(dangling, 0, "generated data has no dangling references");

    let t0 = Instant::now();
    for table in DIRTIED_TABLES {
        compute_probabilities(&mut catalog, table, config.prob_mode, config.tpch.seed)
            .expect("probability assignment");
    }
    let dirty = DirtyDatabase::new(Database::from_catalog(catalog), spec)
        .expect("generated database validates");
    let assign = t0.elapsed();

    StagedData {
        dirty,
        generate,
        propagate,
        assign,
    }
}

// ------------------------------------------------------------ statements

/// How a template's text varies with the variant number `v`.
enum Vary {
    /// Shift every occurrence of this date literal by `sign · v` days.
    Date(&'static str, i32),
    /// Add `sign · v` to the integer that follows this prefix.
    Int(&'static str, i64, i64),
    /// Append ` and <text><base + v>` (nothing for variant 0) — for
    /// templates whose only literals are names.
    Append(&'static str, i64),
}

/// The benchmark-owned substitution table: one literal per template moves
/// with the variant, so the 13 × 24 statements are distinct texts with
/// near-identical cost.
fn vary(id: u8) -> Vary {
    match id {
        1 => Vary::Date("1998-09-02", -1),
        2 => Vary::Int("p_size = ", 15, 1),
        3 => Vary::Date("1995-03-15", 1),
        4 => Vary::Date("1993-07-01", 1),
        6 => Vary::Int("l_quantity < ", 24, 1),
        9 => Vary::Append("l_quantity <= ", 50),
        10 => Vary::Date("1993-10-01", 1),
        11 => Vary::Append("ps_availqty >= ", 0),
        12 => Vary::Date("1994-01-01", 1),
        14 => Vary::Date("1995-09-01", 1),
        17 => Vary::Int("l_quantity < ", 15, 1),
        18 => Vary::Append("l_quantity <= ", 50),
        20 => Vary::Int("ps_availqty > ", 100, 1),
        other => panic!("query {other} is not part of the paper's workload"),
    }
}

/// Original-form SQL of template `id`, literal variant `v` (`v = 0` is the
/// paper's template unchanged). ORDER BY is kept, as in Figure 8.
pub fn variant_sql(id: u8, v: usize) -> String {
    let base = query_sql(id, false);
    let order = query_sql(id, true)[base.len()..].to_string();
    let v = v as i64;
    let body = match vary(id) {
        Vary::Date(lit, sign) => {
            let date: Date = lit.parse().expect("template date literal");
            let needle = format!("DATE '{lit}'");
            assert!(base.contains(&needle), "Q{id} lost its date literal");
            base.replace(
                &needle,
                &format!("DATE '{}'", date.add_days(sign * v as i32)),
            )
        }
        Vary::Int(prefix, value, sign) => {
            let needle = format!("{prefix}{value}");
            assert!(base.contains(&needle), "Q{id} lost its integer literal");
            base.replace(&needle, &format!("{prefix}{}", value + sign * v))
        }
        Vary::Append(..) if v == 0 => base,
        Vary::Append(text, value) => format!("{base} and {text}{}", value + v),
    };
    format!("{body}{order}")
}

/// One statement of the served workloads.
#[derive(Debug, Clone)]
pub struct ReadStatement {
    /// TPC-H template number.
    pub template: u8,
    /// Literal variant, `0..VARIANTS`.
    pub variant: usize,
    /// The original-form SQL.
    pub original: String,
    /// The rewritten (clean-answer) SQL text the clients send.
    pub rewritten: String,
}

impl ReadStatement {
    /// `q9r.v3`-style label.
    pub fn label(&self) -> String {
        format!("q{}r.v{}", self.template, self.variant)
    }
}

/// All `13 × variants` rewritten statements, template-major.
pub fn read_statements(dirty: &DirtyDatabase, variants: usize) -> Vec<ReadStatement> {
    let mut out = Vec::with_capacity(QUERY_IDS.len() * variants);
    for &id in &QUERY_IDS {
        for v in 0..variants {
            let original = variant_sql(id, v);
            let rewritten = dirty
                .rewrite(&original)
                .unwrap_or_else(|e| panic!("Q{id} variant {v} must be rewritable: {e}"))
                .to_string();
            out.push(ReadStatement {
                template: id,
                variant: v,
                original,
                rewritten,
            });
        }
    }
    out
}

/// Largest-remainder apportionment of `n` draws over `weights`.
fn apportion(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// One client's read stream: `n` indexes into [`read_statements`]' output.
///
/// Templates are uniform and variants Zipf(s = 1) — as *quotas*, not
/// independent draws: every stream holds the same number of each
/// popularity rank, and the seed decides which variant holds which rank
/// and the order of the stream. Stratifying removes the draw-to-draw
/// variance in how many expensive misses a run happens to contain, which
/// would otherwise swamp the run-to-run spread of `qps`.
pub fn read_stream(seed: u64, client: usize, n: usize, variants: usize) -> Vec<usize> {
    let templates = QUERY_IDS.len();
    // Popularity ranks are a property of the run, shared by all clients…
    let mut rank_rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let ranks: Vec<Vec<usize>> = (0..templates)
        .map(|_| {
            let mut r: Vec<usize> = (0..variants).collect();
            shuffle(&mut r, &mut rank_rng);
            r
        })
        .collect();
    // …while the order is each client's own.
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 100 + client as u64));
    let zipf: Vec<f64> = (1..=variants).map(|r| 1.0 / r as f64).collect();
    let mut stream = Vec::with_capacity(n);
    let per_template = apportion(n, &vec![1.0; templates]);
    for (t, &quota) in per_template.iter().enumerate() {
        for (rank, &count) in apportion(quota, &zipf).iter().enumerate() {
            stream.extend(std::iter::repeat_n(t * variants + ranks[t][rank], count));
        }
    }
    shuffle(&mut stream, &mut rng);
    stream
}

/// The order in which `adhoc_fig8` runs its `n` templates in pass `pass`.
pub fn template_order(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1000 + pass as u64));
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, &mut rng);
    order
}

// -------------------------------------------------------------------- DML

/// The numeric non-key attribute `UPDATE` bumps, per dirtied table.
fn update_column(table: &str) -> &'static str {
    match table {
        "supplier" => "s_acctbal",
        "part" => "p_size",
        "partsupp" => "ps_availqty",
        "customer" => "c_acctbal",
        "orders" => "o_shippriority",
        "lineitem" => "l_quantity",
        other => panic!("{other} is not a dirtied table"),
    }
}

/// Render a value as a SQL literal.
fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Bool(b) => if *b { "1 = 1" } else { "1 = 0" }.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => format!("DATE '{d}'"),
    }
}

/// `n` DML statements against the *initial* state of `db`, cycling
/// `UPDATE` / `INSERT` / `DELETE` / `REANNOTATE` over the six dirtied
/// tables. Each touches O(1) clusters, and each targets a cluster no
/// earlier statement touched, so the stream is valid as generated (no twin
/// database has to be evolved) and every statement keeps the database a
/// valid dirty database — cluster probabilities still sum to 1:
///
/// * `UPDATE` bumps a non-key numeric attribute of one cluster;
/// * `INSERT` adds a new entity (fresh identifier, probability 1) copied
///   from an existing tuple;
/// * `DELETE` retracts one whole cluster;
/// * `REANNOTATE` resets one multi-tuple cluster to the uniform assignment.
pub fn dml_stream(db: &Database, seed: u64, n: usize) -> Vec<String> {
    struct Targets {
        /// `(identifier literal, first row index, cluster size)`, shuffled.
        clusters: Vec<(i64, usize, usize)>,
        next: usize,
        next_id: i64,
        next_src: i64,
    }

    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    let mut targets: BTreeMap<&str, Targets> = BTreeMap::new();
    for table in DIRTIED_TABLES {
        let t = db.catalog().table(table).expect("dirtied table");
        let id_idx = t
            .column_index(identifier_column(table))
            .expect("identifier column");
        let src_idx = t
            .column_index(srckey_column(table).expect("dirtied tables have source keys"))
            .expect("source-key column");
        let mut by_id: BTreeMap<i64, (usize, usize)> = BTreeMap::new();
        let (mut max_id, mut max_src) = (0i64, 0i64);
        for (i, row) in t.rows().iter().enumerate() {
            let id = row[id_idx].as_i64().expect("integer identifier");
            max_id = max_id.max(id);
            max_src = max_src.max(row[src_idx].as_i64().expect("integer source key"));
            by_id.entry(id).or_insert((i, 0)).1 += 1;
        }
        let mut clusters: Vec<(i64, usize, usize)> = by_id
            .into_iter()
            .map(|(id, (first, size))| (id, first, size))
            .collect();
        shuffle(&mut clusters, &mut rng);
        targets.insert(
            table,
            Targets {
                clusters,
                next: 0,
                next_id: max_id + 1,
                next_src: max_src + 1,
            },
        );
    }

    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        // Shift the op against the table every 12 statements so all 24
        // (table, op) pairs occur.
        let op = (i + i / 12) % 4;
        // REANNOTATE wants a cluster with something to re-weigh. A table
        // with no untouched cluster left (supplier has five at sf = 0.05)
        // passes its turn to the next one.
        let eligible =
            |tg: &Targets| (tg.next..tg.clusters.len()).find(|&k| op != 3 || tg.clusters[k].2 >= 2);
        let (table, pick) = (0..DIRTIED_TABLES.len())
            .map(|shift| DIRTIED_TABLES[(i + shift) % DIRTIED_TABLES.len()])
            .find_map(|t| Some((t, eligible(&targets[t])?)))
            .unwrap_or_else(|| panic!("no untouched cluster left after {i} statements"));
        let t = db.catalog().table(table).expect("dirtied table");
        let id_col = identifier_column(table);
        let tg = targets.get_mut(table).expect("targets per table");
        tg.clusters.swap(tg.next, pick);
        let (id, first, size) = tg.clusters[tg.next];
        tg.next += 1;
        out.push(match op {
            0 => {
                let c = update_column(table);
                format!("UPDATE {table} SET {c} = {c} + 1 WHERE {id_col} = {id}")
            }
            1 => {
                let mut row = t.rows()[first].clone();
                let id_idx = t.column_index(id_col).expect("identifier column");
                let src_idx = t
                    .column_index(srckey_column(table).expect("source key"))
                    .expect("source-key column");
                let prob_idx = t.column_index("prob").expect("prob column");
                row[id_idx] = Value::Int(tg.next_id);
                row[src_idx] = Value::Int(tg.next_src);
                row[prob_idx] = Value::Float(1.0);
                tg.next_id += 1;
                tg.next_src += 1;
                let vals: Vec<String> = row.iter().map(literal).collect();
                format!("INSERT INTO {table} VALUES ({})", vals.join(", "))
            }
            2 => format!("DELETE FROM {table} WHERE {id_col} = {id}"),
            _ => format!(
                "REANNOTATE {table} ({id_col}, prob) SET {:?} WHERE {id_col} = {id}",
                1.0 / size as f64
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_zero_is_the_papers_template() {
        for &id in &QUERY_IDS {
            assert_eq!(variant_sql(id, 0), query_sql(id, true), "Q{id}");
        }
    }

    #[test]
    fn variants_are_distinct_texts() {
        for &id in &QUERY_IDS {
            let texts: std::collections::BTreeSet<String> =
                (0..VARIANTS).map(|v| variant_sql(id, v)).collect();
            assert_eq!(texts.len(), VARIANTS, "Q{id}");
        }
        assert!(variant_sql(1, 3).contains("DATE '1998-08-30'"));
        assert!(variant_sql(3, 2).matches("DATE '1995-03-17'").count() == 2);
        assert!(variant_sql(6, 5).contains("l_quantity < 29"));
        assert!(variant_sql(9, 4).contains("and l_quantity <= 54 order by"));
    }

    #[test]
    fn apportion_is_exact_and_monotone() {
        let zipf: Vec<f64> = (1..=24).map(|r| 1.0 / r as f64).collect();
        for n in [0, 1, 7, 92, 93, 1200] {
            let c = apportion(n, &zipf);
            assert_eq!(c.iter().sum::<usize>(), n);
            assert!(c.windows(2).all(|w| w[0] + 1 >= w[1]), "{c:?}");
        }
        assert_eq!(apportion(13, &[1.0; 13]), vec![1; 13]);
    }

    #[test]
    fn read_stream_depends_on_seed_and_client_only() {
        let a = read_stream(7, 0, 500, VARIANTS);
        assert_eq!(a, read_stream(7, 0, 500, VARIANTS));
        assert_ne!(a, read_stream(7, 1, 500, VARIANTS));
        assert_ne!(a, read_stream(8, 0, 500, VARIANTS));
        assert_eq!(a.len(), 500);
        assert!(a.iter().all(|&i| i < 13 * VARIANTS));
        // Same quotas whatever the seed: only labels and order move.
        let hist = |s: &[usize]| {
            let mut h = vec![0usize; 13 * VARIANTS];
            for &i in s {
                h[i] += 1;
            }
            h.sort_unstable();
            h
        };
        assert_eq!(hist(&a), hist(&read_stream(8, 1, 500, VARIANTS)));
    }
}
