//! Family B of the clean-answer oracle (`oracle/mod.rs`) on its view
//! paths: the thirteen templates as maintained views under random
//! mutation sequences, each view equal to `REFRESH` after every commit;
//! and a view keyed on a `CASE` that mixes `INTEGER` and `DOUBLE` arms.

mod oracle;

use conquer_engine::{view, Database};
use conquer_storage::Value;
use oracle::family_b_share;

#[test]
fn random_interleavings_keep_views_bit_identical() {
    let cov = family_b_share(2);
    assert!(cov.commits > 0, "{cov:?}");
}

/// `CASE WHEN tag = 1 THEN i ELSE f END` over an `INTEGER` `i` and a
/// `DOUBLE` `f` is typed `DOUBLE` and evaluates to it: `GROUP BY` on it
/// makes one group of the integer 1 and the float 1.0, and a view keyed
/// on it stays equal to `REFRESH` through an INSERT and a DELETE.
#[test]
fn a_mixed_type_case_key_is_one_group_in_a_query_and_a_view() {
    let key = "CASE WHEN tag = 1 THEN i ELSE f END";
    let mut db = Database::new();
    db.execute_script(&format!(
        "CREATE TABLE g (tag INTEGER, i INTEGER, f DOUBLE, prob DOUBLE);
         INSERT INTO g VALUES (1, 1, 0.0, 0.5), (0, 1, 1.0, 0.25);
         CREATE MATERIALIZED VIEW v AS SELECT {key} AS k, SUM(prob) AS p FROM g GROUP BY {key}"
    ))
    .unwrap();
    let grouped = format!("SELECT {key}, COUNT(*) FROM g GROUP BY {key}");
    let rows = db.prepare(&grouped).unwrap().query(&db).unwrap().rows;
    assert_eq!(rows, [[Value::Float(1.0), Value::Int(2)]]);
    for dml in [
        "INSERT INTO g VALUES (1, 1, 2.0, 0.125), (0, 0, 1.0, 0.0625)",
        "DELETE FROM g WHERE tag = 1",
    ] {
        db.execute_script(dml).unwrap();
        let mut fresh = db.clone();
        fresh.execute_script("REFRESH MATERIALIZED VIEW v").unwrap();
        for table in ["v".to_string(), view::state_table_name("v")] {
            let rows = |db: &Database| db.catalog().table(&table).unwrap().rows().to_vec();
            assert_eq!(rows(&db), rows(&fresh), "{dml}: {table}");
        }
    }
    let contents = db.catalog().table("v").unwrap().rows();
    assert_eq!(contents, [[Value::Float(1.0), Value::Float(0.3125)]]);
}
