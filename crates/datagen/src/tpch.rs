//! TPC-H-lite: schema and clean-data generation.
//!
//! The paper's evaluation uses TPC-H data (Section 5.1). This module
//! generates a faithful miniature: the eight TPC-H relations with the
//! standard row ratios per scale factor, realistic value pools (market
//! segments, ship modes, brands, part-name color words, nations/regions),
//! and consistent foreign keys and dates. One scale unit (`sf = 1`) is
//! 1,500 customers / 15,000 orders / 60,000 lineitems — 1/100 of real TPC-H,
//! chosen so the full figure suite runs in memory (see DESIGN.md).
//!
//! Every generated table already carries the two dirty-database columns:
//! a `*_srckey` *source key* (unique per physical row — the "original key"
//! a tuple matcher would see) and a `prob` column (1.0 for clean data).
//! The cluster-identifier column is the relation's natural key (`c_custkey`,
//! `o_orderkey`, …; `l_id`/`ps_id` for the composite-key relations), which
//! is exactly how the paper's experiments model identifiers ("the original
//! keys of the relations [are replaced] with the identifier").

use conquer_engine::EngineError;
use conquer_storage::{Catalog, DataType, Date, Schema, SharedRow, Value};

use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Configuration of the clean generator.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Scale factor: 1.0 ≈ 78k rows across all tables.
    pub sf: f64,
    /// RNG seed for reproducible data.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig { sf: 0.1, seed: 42 }
    }
}

impl TpchConfig {
    /// Row counts per table derived from the scale factor (minimums keep
    /// tiny scale factors usable).
    pub fn counts(&self) -> TpchCounts {
        let sf = self.sf.max(0.001);
        let customers = ((1500.0 * sf) as usize).max(10);
        let orders = customers * 10;
        let lineitems_per_order = 4;
        let parts = ((2000.0 * sf) as usize).max(20);
        let suppliers = ((100.0 * sf) as usize).max(5);
        TpchCounts {
            customers,
            orders,
            lineitems_per_order,
            parts,
            suppliers,
        }
    }
}

/// Derived row counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpchCounts {
    /// Number of customers.
    pub customers: usize,
    /// Number of orders (10 per customer).
    pub orders: usize,
    /// Average lineitems per order (1..=7, mean 4).
    pub lineitems_per_order: usize,
    /// Number of parts.
    pub parts: usize,
    /// Number of suppliers.
    pub suppliers: usize,
}

// --------------------------------------------------------------------------
// Value pools (subsets of the TPC-H specification's lists)
// --------------------------------------------------------------------------

/// The five TPC-H regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 TPC-H nations with their region index.
pub const NATIONS: [(&str, usize); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// Customer market segments.
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

/// Order priorities.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Line-item ship modes.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// Line-item ship instructions.
pub const SHIP_INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// Part-name color words (TPC-H uses five random color words per name;
/// `forest` and `green` are present so Q9's `%green%` and Q20's `forest%`
/// filters select realistic fractions).
pub const COLORS: [&str; 20] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "blanched",
    "blue",
    "burlywood",
    "chartreuse",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
    "forest",
    "green",
    "honeydew",
    "ivory",
    "khaki",
];

/// Part containers.
pub const CONTAINERS: [&str; 8] = [
    "SM CASE",
    "SM BOX",
    "MED BOX",
    "MED BAG",
    "LG CASE",
    "LG BOX",
    "JUMBO PACK",
    "WRAP JAR",
];

/// Part type fragments (syllable1 syllable2 syllable3).
pub const TYPE_S1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
/// Second part-type fragment.
pub const TYPE_S2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
/// Third part-type fragment.
pub const TYPE_S3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// First names for customer/clerk names.
const FIRST_NAMES: [&str; 16] = [
    "John",
    "Mary",
    "Marion",
    "Robert",
    "Patricia",
    "Linda",
    "James",
    "Michael",
    "Barbara",
    "William",
    "Elizabeth",
    "David",
    "Susan",
    "Richard",
    "Jessica",
    "Joseph",
];
const LAST_NAMES: [&str; 16] = [
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
];
const STREETS: [&str; 10] = [
    "Jones Ave",
    "Arrow St",
    "Baldwin Rd",
    "College St",
    "King St",
    "Queen St",
    "Main St",
    "Oak Ave",
    "Pine Rd",
    "Lake Dr",
];

fn pick<'a, R: Rng>(rng: &mut R, pool: &[&'a str]) -> &'a str {
    pool[rng.random_range(0..pool.len())]
}

fn lit_date(s: &str) -> Result<Date> {
    s.parse().map_err(|_| {
        EngineError::internal(format!("invalid date literal {s:?} in the TPC-H generator")).into()
    })
}

fn date(rng: &mut StdRng, lo: &str, hi: &str) -> Result<Date> {
    let lo = lit_date(lo)?;
    let hi = lit_date(hi)?;
    Ok(Date::from_days(rng.random_range(lo.days()..=hi.days())))
}

fn money(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (rng.random_range(lo..hi) * 100.0).round() / 100.0
}

// --------------------------------------------------------------------------
// Schemas
// --------------------------------------------------------------------------

fn schema(pairs: &[(&str, DataType)]) -> Result<Schema> {
    Ok(Schema::from_pairs(
        pairs.iter().map(|(n, t)| (n.to_string(), *t)),
    )?)
}

/// Schema of every TPC-H-lite table (with `*_srckey` and `prob` columns).
pub fn schemas() -> Result<Vec<(&'static str, Schema)>> {
    use DataType::*;
    Ok(vec![
        (
            "region",
            schema(&[("r_regionkey", Int), ("r_name", Text), ("prob", Float)])?,
        ),
        (
            "nation",
            schema(&[
                ("n_nationkey", Int),
                ("n_name", Text),
                ("n_regionkey", Int),
                ("prob", Float),
            ])?,
        ),
        (
            "supplier",
            schema(&[
                ("s_suppkey", Int),
                ("s_srckey", Int),
                ("s_name", Text),
                ("s_address", Text),
                ("s_nationkey", Int),
                ("s_phone", Text),
                ("s_acctbal", Float),
                ("prob", Float),
            ])?,
        ),
        (
            "part",
            schema(&[
                ("p_partkey", Int),
                ("p_srckey", Int),
                ("p_name", Text),
                ("p_mfgr", Text),
                ("p_brand", Text),
                ("p_type", Text),
                ("p_size", Int),
                ("p_container", Text),
                ("p_retailprice", Float),
                ("prob", Float),
            ])?,
        ),
        (
            "partsupp",
            schema(&[
                ("ps_id", Int),
                ("ps_srckey", Int),
                ("ps_partkey", Int),
                ("ps_suppkey", Int),
                ("ps_availqty", Int),
                ("ps_supplycost", Float),
                ("prob", Float),
            ])?,
        ),
        (
            "customer",
            schema(&[
                ("c_custkey", Int),
                ("c_srckey", Int),
                ("c_name", Text),
                ("c_address", Text),
                ("c_nationkey", Int),
                ("c_phone", Text),
                ("c_acctbal", Float),
                ("c_mktsegment", Text),
                ("prob", Float),
            ])?,
        ),
        (
            "orders",
            schema(&[
                ("o_orderkey", Int),
                ("o_srckey", Int),
                ("o_custkey", Int),
                ("o_orderstatus", Text),
                ("o_totalprice", Float),
                ("o_orderdate", Date),
                ("o_orderpriority", Text),
                ("o_clerk", Text),
                ("o_shippriority", Int),
                ("prob", Float),
            ])?,
        ),
        (
            "lineitem",
            schema(&[
                ("l_id", Int),
                ("l_srckey", Int),
                ("l_orderkey", Int),
                ("l_partkey", Int),
                ("l_suppkey", Int),
                ("l_linenumber", Int),
                ("l_quantity", Int),
                ("l_extendedprice", Float),
                ("l_discount", Float),
                ("l_tax", Float),
                ("l_returnflag", Text),
                ("l_linestatus", Text),
                ("l_shipdate", Date),
                ("l_commitdate", Date),
                ("l_receiptdate", Date),
                ("l_shipinstruct", Text),
                ("l_shipmode", Text),
                ("prob", Float),
            ])?,
        ),
    ])
}

/// Identifier column of each table (the cluster identifier in the dirty
/// database; also the join key the queries use).
pub fn identifier_column(table: &str) -> &'static str {
    match table {
        "region" => "r_regionkey",
        "nation" => "n_nationkey",
        "supplier" => "s_suppkey",
        "part" => "p_partkey",
        "partsupp" => "ps_id",
        "customer" => "c_custkey",
        "orders" => "o_orderkey",
        "lineitem" => "l_id",
        other => panic!("unknown TPC-H table {other:?}"),
    }
}

/// Source-key column of each dirtied table (`None` for the clean
/// region/nation dimensions).
pub fn srckey_column(table: &str) -> Option<&'static str> {
    match table {
        "supplier" => Some("s_srckey"),
        "part" => Some("p_srckey"),
        "partsupp" => Some("ps_srckey"),
        "customer" => Some("c_srckey"),
        "orders" => Some("o_srckey"),
        "lineitem" => Some("l_srckey"),
        _ => None,
    }
}

// --------------------------------------------------------------------------
// Clean data
// --------------------------------------------------------------------------

/// Generate the clean TPC-H-lite catalog. All `prob` values are 1 and every
/// `*_srckey` equals the row's identifier (each entity has exactly one
/// representation).
pub fn generate_clean(config: TpchConfig) -> Result<Catalog> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let counts = config.counts();
    let mut catalog = Catalog::new();
    for (name, s) in schemas()? {
        catalog.create_table(name, s)?;
    }

    // region / nation
    {
        let t = catalog.table_mut("region")?;
        for (i, r) in REGIONS.iter().enumerate() {
            t.insert(SharedRow::from([
                (i as i64).into(),
                (*r).into(),
                1.0.into(),
            ]))?;
        }
        let t = catalog.table_mut("nation")?;
        for (i, (n, r)) in NATIONS.iter().enumerate() {
            t.insert(SharedRow::from([
                (i as i64).into(),
                (*n).into(),
                (*r as i64).into(),
                1.0.into(),
            ]))?;
        }
    }

    // supplier
    {
        let t = catalog.table_mut("supplier")?;
        for k in 0..counts.suppliers as i64 {
            let nation = rng.random_range(0..NATIONS.len() as i64);
            let row = SharedRow::from([
                k.into(),
                k.into(),
                format!("Supplier#{k:06}").into(),
                format!("{} {}", rng.random_range(1..999), pick(&mut rng, &STREETS)).into(),
                nation.into(),
                phone(&mut rng, nation),
                money(&mut rng, -999.99, 9999.99).into(),
                1.0.into(),
            ]);
            t.insert(row)?;
        }
    }

    // part
    {
        let t = catalog.table_mut("part")?;
        for k in 0..counts.parts as i64 {
            let name = (0..5)
                .map(|_| pick(&mut rng, &COLORS))
                .collect::<Vec<_>>()
                .join(" ");
            let mfgr = rng.random_range(1..=5);
            let brand = format!("Brand#{}{}", mfgr, rng.random_range(1..=5));
            let ptype = format!(
                "{} {} {}",
                pick(&mut rng, &TYPE_S1),
                pick(&mut rng, &TYPE_S2),
                pick(&mut rng, &TYPE_S3)
            );
            let row = SharedRow::from([
                k.into(),
                k.into(),
                name.into(),
                format!("Manufacturer#{mfgr}").into(),
                brand.into(),
                ptype.into(),
                (rng.random_range(1..=50) as i64).into(),
                pick(&mut rng, &CONTAINERS).into(),
                money(&mut rng, 900.0, 2000.0).into(),
                1.0.into(),
            ]);
            t.insert(row)?;
        }
    }

    // partsupp: 4 suppliers per part
    {
        let t = catalog.table_mut("partsupp")?;
        let mut id = 0i64;
        for p in 0..counts.parts as i64 {
            for _ in 0..4 {
                let s = rng.random_range(0..counts.suppliers as i64);
                let row = SharedRow::from([
                    id.into(),
                    id.into(),
                    p.into(),
                    s.into(),
                    (rng.random_range(1..=9999) as i64).into(),
                    money(&mut rng, 1.0, 1000.0).into(),
                    1.0.into(),
                ]);
                t.insert(row)?;
                id += 1;
            }
        }
    }

    // customer
    {
        let t = catalog.table_mut("customer")?;
        for k in 0..counts.customers as i64 {
            let nation = rng.random_range(0..NATIONS.len() as i64);
            let name = format!(
                "{} {}",
                pick(&mut rng, &FIRST_NAMES),
                pick(&mut rng, &LAST_NAMES)
            );
            let row = SharedRow::from([
                k.into(),
                k.into(),
                name.into(),
                format!("{} {}", rng.random_range(1..999), pick(&mut rng, &STREETS)).into(),
                nation.into(),
                phone(&mut rng, nation),
                money(&mut rng, -999.99, 9999.99).into(),
                pick(&mut rng, &SEGMENTS).into(),
                1.0.into(),
            ]);
            t.insert(row)?;
        }
    }

    // orders + lineitem
    {
        let parts = counts.parts as i64;
        let suppliers = counts.suppliers as i64;
        let cutoff = lit_date("1995-06-17")?;
        let mut order_rows = Vec::with_capacity(counts.orders);
        let mut line_rows = Vec::new();
        let mut l_id = 0i64;
        for k in 0..counts.orders as i64 {
            let cust = rng.random_range(0..counts.customers as i64);
            let odate = date(&mut rng, "1992-01-01", "1998-08-02")?;
            let n_lines = rng.random_range(1..=7u32).min(7) as i64;
            let mut total = 0.0;
            for ln in 1..=n_lines {
                let price = money(&mut rng, 900.0, 100_000.0);
                let ship = odate.add_days(rng.random_range(1..=121));
                let commit = odate.add_days(rng.random_range(30..=90));
                let receipt = ship.add_days(rng.random_range(1..=30));
                total += price;
                line_rows.push(SharedRow::from([
                    l_id.into(),
                    l_id.into(),
                    k.into(),
                    rng.random_range(0..parts).into(),
                    rng.random_range(0..suppliers).into(),
                    ln.into(),
                    (rng.random_range(1..=50) as i64).into(),
                    price.into(),
                    ((rng.random_range(0..=10) as f64) / 100.0).into(),
                    ((rng.random_range(0..=8) as f64) / 100.0).into(),
                    if receipt <= cutoff {
                        if rng.random_bool(0.5) { "R" } else { "A" }.into()
                    } else {
                        "N".into()
                    },
                    if ship > cutoff { "O" } else { "F" }.into(),
                    ship.into(),
                    commit.into(),
                    receipt.into(),
                    pick(&mut rng, &SHIP_INSTRUCTIONS).into(),
                    pick(&mut rng, &SHIP_MODES).into(),
                    1.0.into(),
                ]));
                l_id += 1;
            }
            order_rows.push(SharedRow::from([
                k.into(),
                k.into(),
                cust.into(),
                if rng.random_bool(0.5) { "O" } else { "F" }.into(),
                ((total * 100.0).round() / 100.0).into(),
                odate.into(),
                pick(&mut rng, &PRIORITIES).into(),
                format!("Clerk#{:06}", rng.random_range(0..1000)).into(),
                0i64.into(),
                1.0.into(),
            ]));
        }
        catalog.table_mut("orders")?.insert_all(order_rows)?;
        catalog.table_mut("lineitem")?.insert_all(line_rows)?;
    }

    Ok(catalog)
}

fn phone(rng: &mut StdRng, nation: i64) -> Value {
    format!(
        "{}-{:03}-{:03}-{:04}",
        10 + nation,
        rng.random_range(100..1000),
        rng.random_range(100..1000),
        rng.random_range(1000..10000)
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_follow_ratios() {
        let c = TpchConfig { sf: 1.0, seed: 1 }.counts();
        assert_eq!(c.customers, 1500);
        assert_eq!(c.orders, 15000);
        assert_eq!(c.parts, 2000);
        assert_eq!(c.suppliers, 100);
    }

    #[test]
    fn clean_catalog_has_all_tables_and_fk_integrity() {
        let cat = generate_clean(TpchConfig { sf: 0.02, seed: 7 }).unwrap();
        assert_eq!(cat.len(), 8);
        let customers = cat.table("customer").unwrap().len() as i64;
        let orders = cat.table("orders").unwrap();
        let ckey = orders.column_index("o_custkey").unwrap();
        for row in orders.rows() {
            let c = row[ckey].as_i64().unwrap();
            assert!((0..customers).contains(&c));
        }
        let lineitem = cat.table("lineitem").unwrap();
        assert!(lineitem.len() >= orders.len(), "≥1 line per order");
        let okey = lineitem.column_index("l_orderkey").unwrap();
        for row in lineitem.rows() {
            let o = row[okey].as_i64().unwrap();
            assert!((0..orders.len() as i64).contains(&o));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_clean(TpchConfig { sf: 0.01, seed: 3 }).unwrap();
        let b = generate_clean(TpchConfig { sf: 0.01, seed: 3 }).unwrap();
        assert_eq!(
            a.table("customer").unwrap().rows(),
            b.table("customer").unwrap().rows()
        );
        let c = generate_clean(TpchConfig { sf: 0.01, seed: 4 }).unwrap();
        assert_ne!(
            a.table("customer").unwrap().rows(),
            c.table("customer").unwrap().rows()
        );
    }

    #[test]
    fn dates_consistent() {
        let cat = generate_clean(TpchConfig { sf: 0.01, seed: 9 }).unwrap();
        let li = cat.table("lineitem").unwrap();
        let (ship, receipt) = (
            li.column_index("l_shipdate").unwrap(),
            li.column_index("l_receiptdate").unwrap(),
        );
        for row in li.rows() {
            assert!(row[ship].as_date().unwrap() < row[receipt].as_date().unwrap());
        }
    }

    #[test]
    fn identifier_columns_resolve() {
        let cat = generate_clean(TpchConfig { sf: 0.01, seed: 1 }).unwrap();
        for t in cat.tables() {
            let id = identifier_column(t.name());
            assert!(t.column_index(id).is_ok(), "{} missing {id}", t.name());
            if let Some(src) = srckey_column(t.name()) {
                assert!(t.column_index(src).is_ok());
            }
        }
    }

    #[test]
    fn clean_probabilities_are_one() {
        let cat = generate_clean(TpchConfig { sf: 0.01, seed: 1 }).unwrap();
        for t in cat.tables() {
            let p = t.column_index("prob").unwrap();
            for row in t.rows() {
                assert_eq!(row[p], Value::Float(1.0));
            }
        }
    }
}
