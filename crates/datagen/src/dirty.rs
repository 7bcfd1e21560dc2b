//! UIS-style dirtying of the TPC-H-lite catalog (Section 5.1/5.2).
//!
//! The UIS Database Generator "creates clusters of potential duplicates"
//! whose cardinalities are "drawn from a uniform distribution whose mean is
//! the value of `if`" — i.e. `Uniform[1, 2·if − 1]`. This module reproduces
//! that: every clean tuple becomes a cluster of perturbed duplicates, the
//! clean key becomes the cluster identifier, each physical row gets a fresh
//! *source key*, and foreign keys initially reference parent source keys
//! (as they would in raw multi-source data). The offline pipeline that
//! Figure 7 measures then consists of:
//!
//! 1. **identifier propagation** ([`propagate_identifiers`]) — rewrite
//!    every foreign key from source keys to cluster identifiers, and
//! 2. **probability computation** ([`compute_probabilities`]) — run the
//!    Figure-5 algorithm (or a cheaper mode) per dirty relation.
//!
//! [`dirty_database`] runs the full pipeline and returns a validated
//! [`DirtyDatabase`] ready for clean-answer queries.

use std::collections::HashMap;
use std::sync::Arc;

use conquer_core::{propagate_in_place, DirtyDatabase, DirtySpec, DirtyTableMeta};
use conquer_engine::{Database, EngineError};
use conquer_prob::{assign_probabilities, uniform_probabilities, Clustering, InfoLossDistance};
use conquer_storage::{Catalog, Table, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::perturb::{perturb_row, PerturbOptions};
use crate::tpch::{generate_clean, identifier_column, srckey_column, TpchConfig};
use crate::Result;

/// How tuple probabilities are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbMode {
    /// `1/|cluster|` for every member.
    #[default]
    Uniform,
    /// Random weights normalized per cluster (seeded).
    Random,
    /// The paper's Section-4 information-loss assignment over the table's
    /// categorical attributes.
    InfoLoss,
    /// Source-reliability (provenance) probabilities — the paper's
    /// introduction suggests "the more reliable the source, the higher its
    /// probability". Cluster member `j` (the `j`-th source's
    /// representation) gets weight `0.6^j`, normalized per cluster, so the
    /// first source is trusted most.
    Provenance,
}

/// Configuration of the dirty-data generator.
#[derive(Debug, Clone, Copy)]
pub struct UisConfig {
    /// Underlying clean-data configuration.
    pub tpch: TpchConfig,
    /// Inconsistency factor: mean cluster size; cardinalities are drawn
    /// from `Uniform[1, 2·if − 1]`.
    pub if_factor: u32,
    /// Probability assignment mode.
    pub prob_mode: ProbMode,
    /// Duplicate perturbation options.
    pub perturb: PerturbOptions,
}

impl Default for UisConfig {
    fn default() -> Self {
        UisConfig {
            tpch: TpchConfig::default(),
            if_factor: 3,
            prob_mode: ProbMode::Uniform,
            perturb: PerturbOptions::default(),
        }
    }
}

/// A dirtied TPC-H catalog plus its dirty metadata.
#[derive(Debug, Clone)]
pub struct DirtyTpch {
    /// The (possibly not yet propagated/probability-annotated) catalog.
    pub catalog: Catalog,
    /// Identifier/probability column metadata for every table.
    pub spec: DirtySpec,
}

/// Tables that receive duplicates (dimension tables region/nation stay
/// clean, with singleton clusters of probability 1).
pub const DIRTIED_TABLES: [&str; 6] = [
    "supplier", "part", "partsupp", "customer", "orders", "lineitem",
];

/// Foreign keys that need identifier propagation:
/// `(child, fk column, parent)`.
pub const PROPAGATIONS: [(&str, &str, &str); 6] = [
    ("partsupp", "ps_partkey", "part"),
    ("partsupp", "ps_suppkey", "supplier"),
    ("orders", "o_custkey", "customer"),
    ("lineitem", "l_orderkey", "orders"),
    ("lineitem", "l_partkey", "part"),
    ("lineitem", "l_suppkey", "supplier"),
];

/// Categorical attributes used by the information-loss assignment, per
/// table (Section 4's measure targets categorical data).
pub fn categorical_attributes(table: &str) -> Vec<&'static str> {
    match table {
        "customer" => vec!["c_name", "c_address", "c_phone", "c_mktsegment"],
        "orders" => vec!["o_orderstatus", "o_orderpriority", "o_clerk"],
        "lineitem" => vec![
            "l_returnflag",
            "l_linestatus",
            "l_shipinstruct",
            "l_shipmode",
        ],
        "part" => vec!["p_name", "p_brand", "p_type", "p_container"],
        "supplier" => vec!["s_name", "s_address", "s_phone"],
        "partsupp" => vec!["ps_availqty", "ps_supplycost"],
        _ => vec![],
    }
}

/// The spec covering all eight tables.
pub fn tpch_spec() -> DirtySpec {
    let mut spec = DirtySpec::new();
    for t in [
        "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
    ] {
        spec.add(t, DirtyTableMeta::new(identifier_column(t), "prob"));
    }
    spec
}

/// Generate the dirty catalog with *unpropagated* foreign keys and
/// placeholder probabilities (every tuple still carries `prob = 1`;
/// run [`compute_probabilities`] before querying).
pub fn generate_unpropagated(config: UisConfig) -> Result<DirtyTpch> {
    let clean = generate_clean(config.tpch)?;
    let mut rng = StdRng::seed_from_u64(config.tpch.seed ^ 0x5ee0_d1e5);
    let mut catalog = Catalog::new();
    for t in ["region", "nation"] {
        catalog.add_table(clean.table(t)?.clone())?;
    }

    // id → source keys of each dirtied parent, for FK retargeting.
    let mut src_keys: HashMap<String, HashMap<i64, Vec<i64>>> = HashMap::new();

    for name in DIRTIED_TABLES {
        let table = clean.table(name)?;
        let (dirty, keys) = dirty_table(&mut rng, table, &config, &src_keys)?;
        src_keys.insert(name.to_string(), keys);
        catalog.add_table(dirty)?;
    }

    Ok(DirtyTpch {
        catalog,
        spec: tpch_spec(),
    })
}

/// Source-key column of a dirtied table (every table in [`DIRTIED_TABLES`]
/// and every propagation parent has one).
fn require_srckey(name: &str) -> Result<&'static str> {
    srckey_column(name).ok_or_else(|| {
        EngineError::internal(format!("table {name} has no source-key column")).into()
    })
}

/// Duplicate one clean table.
fn dirty_table(
    rng: &mut StdRng,
    clean: &Table,
    config: &UisConfig,
    parent_srcs: &HashMap<String, HashMap<i64, Vec<i64>>>,
) -> Result<(Table, HashMap<i64, Vec<i64>>)> {
    let name = clean.name();
    let id_col = clean.column_index(identifier_column(name))?;
    let src_col = clean.column_index(require_srckey(name)?)?;
    let prob_col = clean.column_index("prob")?;

    // Foreign keys into *dirtied* parents need retargeting to source keys.
    let mut fk_cols: Vec<(usize, &str)> = Vec::new();
    for (_, fk, parent) in PROPAGATIONS.iter().filter(|(child, _, _)| *child == name) {
        fk_cols.push((clean.column_index(fk)?, *parent));
    }

    // Identifier, source key, FKs and prob survive perturbation untouched.
    let mut keep: Vec<usize> = vec![id_col, src_col, prob_col];
    keep.extend(fk_cols.iter().map(|(c, _)| *c));

    let mut out = Table::new(name, clean.schema().clone());
    let mut keys: HashMap<i64, Vec<i64>> = HashMap::with_capacity(clean.len());
    let mut next_src: i64 = 0;

    for row in clean.shared_rows() {
        let cluster_id = row[id_col].as_i64().ok_or_else(|| {
            EngineError::internal(format!("identifier column of {name} must hold integers"))
        })?;
        let size = if config.if_factor <= 1 {
            1
        } else {
            rng.random_range(1..=(2 * config.if_factor - 1)) as usize
        };
        let members = keys.entry(cluster_id).or_default();
        for variant in 0..size {
            let mut r = if variant == 0 {
                row.clone()
            } else {
                perturb_row(rng, row, &keep, &config.perturb)
            };
            // Copies the clean row once; a perturbed one is written in place.
            let cells = Arc::make_mut(&mut r);
            cells[src_col] = Value::Int(next_src);
            members.push(next_src);
            next_src += 1;
            // Point FKs at a random source key of the referenced parent
            // cluster (different sources cite different representations).
            for (fk, parent) in &fk_cols {
                let parent_cluster = cells[*fk].as_i64().ok_or_else(|| {
                    EngineError::internal(format!("foreign keys of {name} must hold integers"))
                })?;
                let srcs = &parent_srcs[*parent][&parent_cluster];
                cells[*fk] = Value::Int(srcs[rng.random_range(0..srcs.len())]);
            }
            out.insert(r)?;
        }
    }
    Ok((out, keys))
}

/// Rewrite every foreign key from parent source keys to parent cluster
/// identifiers (the offline step the paper calls identifier propagation).
/// Returns the number of dangling references (0 for generated data).
pub fn propagate_identifiers(catalog: &mut Catalog) -> Result<usize> {
    let mut dangling = 0;
    for (child, fk, parent) in PROPAGATIONS {
        let parent_src = require_srckey(parent)?;
        let parent_id = identifier_column(parent);
        dangling += propagate_in_place(catalog, parent, parent_src, parent_id, child, fk)?;
    }
    Ok(dangling)
}

/// Compute and store tuple probabilities for one table.
pub fn compute_probabilities(
    catalog: &mut Catalog,
    table: &str,
    mode: ProbMode,
    seed: u64,
) -> Result<()> {
    let id_col = identifier_column(table);
    let t = catalog.table_mut(table)?;
    let clustering = Clustering::from_id_column(t, id_col)?;
    let probs = match mode {
        ProbMode::Uniform => uniform_probabilities(&clustering, t.len()),
        ProbMode::Random => random_probabilities(&clustering, t.len(), seed),
        ProbMode::Provenance => provenance_probabilities(&clustering, t.len()),
        ProbMode::InfoLoss => {
            let attrs = categorical_attributes(table);
            if attrs.is_empty() {
                uniform_probabilities(&clustering, t.len())
            } else {
                let matrix = conquer_prob::CategoricalMatrix::from_table(t, &attrs)?;
                assign_probabilities(&matrix, &clustering, &InfoLossDistance)
            }
        }
    };
    t.update_column("prob", |i, _| Value::Float(probs[i]))?;
    Ok(())
}

/// Geometric source-reliability weights: member `j` of a cluster (in source
/// order) gets `0.6^j`, normalized.
fn provenance_probabilities(clustering: &Clustering, n: usize) -> Vec<f64> {
    const DECAY: f64 = 0.6;
    let mut probs = vec![0.0; n];
    for cluster in clustering.clusters() {
        let weights: Vec<f64> = (0..cluster.len()).map(|j| DECAY.powi(j as i32)).collect();
        let total: f64 = weights.iter().sum();
        for (&t, w) in cluster.iter().zip(&weights) {
            probs[t] = w / total;
        }
    }
    probs
}

fn random_probabilities(clustering: &Clustering, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probs = vec![0.0; n];
    for cluster in clustering.clusters() {
        if cluster.len() == 1 {
            probs[cluster[0]] = 1.0;
            continue;
        }
        let weights: Vec<f64> = cluster
            .iter()
            .map(|_| rng.random_range(0.05..1.0))
            .collect();
        let total: f64 = weights.iter().sum();
        for (&t, w) in cluster.iter().zip(&weights) {
            probs[t] = w / total;
        }
    }
    probs
}

/// Run the full pipeline: generate, propagate identifiers, compute
/// probabilities on every dirtied table, validate, and wrap.
pub fn dirty_database(config: UisConfig) -> Result<DirtyDatabase> {
    let DirtyTpch { mut catalog, spec } = generate_unpropagated(config)?;
    propagate_identifiers(&mut catalog)?;
    for table in DIRTIED_TABLES {
        compute_probabilities(&mut catalog, table, config.prob_mode, config.tpch.seed)?;
    }
    DirtyDatabase::new(Database::from_catalog(catalog), spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(if_factor: u32, mode: ProbMode) -> UisConfig {
        UisConfig {
            tpch: TpchConfig { sf: 0.01, seed: 11 },
            if_factor,
            prob_mode: mode,
            perturb: PerturbOptions::default(),
        }
    }

    #[test]
    fn if1_produces_singletons() {
        let d = generate_unpropagated(small(1, ProbMode::Uniform)).unwrap();
        let c = d.catalog.table("customer").unwrap();
        let clean = generate_clean(TpchConfig { sf: 0.01, seed: 11 }).unwrap();
        assert_eq!(c.len(), clean.table("customer").unwrap().len());
    }

    #[test]
    fn cluster_sizes_bounded_and_average_near_if() {
        let iff = 3;
        let d = generate_unpropagated(small(iff, ProbMode::Uniform)).unwrap();
        let li = d.catalog.table("lineitem").unwrap();
        let clustering = Clustering::from_id_column(li, "l_id").unwrap();
        let max = clustering.clusters().iter().map(Vec::len).max().unwrap();
        assert!(max <= (2 * iff - 1) as usize);
        let mean = li.len() as f64 / clustering.len() as f64;
        assert!((mean - iff as f64).abs() < 0.5, "mean cluster size {mean}");
    }

    #[test]
    fn source_keys_unique_and_fks_reference_them() {
        let d = generate_unpropagated(small(2, ProbMode::Uniform)).unwrap();
        let cust = d.catalog.table("customer").unwrap();
        let src = cust.column_index("c_srckey").unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in cust.rows() {
            assert!(
                seen.insert(row[src].as_i64().unwrap()),
                "duplicate source key"
            );
        }
        // Unpropagated orders reference *source keys* (a superset range of
        // cluster ids); after propagation they reference cluster ids.
        let mut cat = d.catalog.clone();
        let dangling = propagate_identifiers(&mut cat).unwrap();
        assert_eq!(dangling, 0);
        let orders = cat.table("orders").unwrap();
        let fk = orders.column_index("o_custkey").unwrap();
        let ids: std::collections::HashSet<i64> = cat
            .table("customer")
            .unwrap()
            .rows()
            .iter()
            .map(|r| r[cust.column_index("c_custkey").unwrap()].as_i64().unwrap())
            .collect();
        for row in orders.rows() {
            assert!(ids.contains(&row[fk].as_i64().unwrap()));
        }
    }

    #[test]
    fn full_pipeline_validates_for_every_mode() {
        for mode in [
            ProbMode::Uniform,
            ProbMode::Random,
            ProbMode::InfoLoss,
            ProbMode::Provenance,
        ] {
            let db = dirty_database(small(2, mode)).unwrap();
            db.validate().unwrap();
        }
    }

    #[test]
    fn paper_query_q3_is_rewritable_on_generated_data() {
        let db = dirty_database(small(2, ProbMode::Uniform)).unwrap();
        let sql = crate::queries::query_sql(3, true);
        let graph = db.check_rewritable(&sql).unwrap();
        assert!(graph.is_tree());
    }

    #[test]
    fn duplicates_share_identifier_but_differ() {
        let d = generate_unpropagated(small(4, ProbMode::Uniform)).unwrap();
        let cust = d.catalog.table("customer").unwrap();
        let clustering = Clustering::from_id_column(cust, "c_custkey").unwrap();
        let big = clustering
            .clusters()
            .iter()
            .find(|c| c.len() >= 3)
            .expect("some big cluster");
        let name_col = cust.column_index("c_name").unwrap();
        let names: std::collections::HashSet<String> = big
            .iter()
            .map(|&r| cust.rows()[r][name_col].to_string())
            .collect();
        // With ≥3 duplicates and 35% field perturbation, at least one name
        // variant differs with overwhelming probability for this seed.
        assert!(names.len() >= 2, "{names:?}");
    }

    #[test]
    fn provenance_probabilities_decay_by_source_order() {
        let db = dirty_database(small(4, ProbMode::Provenance)).unwrap();
        let cust = db.db().catalog().table("customer").unwrap();
        let prob = cust.column_index("prob").unwrap();
        for cluster in db.clusters("customer").unwrap() {
            let ps: Vec<f64> = cluster
                .rows
                .iter()
                .map(|&r| cust.rows()[r][prob].as_f64().unwrap())
                .collect();
            let sum: f64 = ps.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            for w in ps.windows(2) {
                assert!(w[0] > w[1], "earlier sources must be more reliable: {ps:?}");
            }
        }
    }

    #[test]
    fn dimension_tables_stay_clean() {
        let db = dirty_database(small(3, ProbMode::Uniform)).unwrap();
        let nation = db.db().catalog().table("nation").unwrap();
        assert_eq!(nation.len(), 25);
        for c in db.clusters("nation").unwrap() {
            assert_eq!(c.rows.len(), 1);
        }
    }
}
