//! Property test: a saved catalog loads back value for value. Every
//! [`DataType`] is covered with adversarial values — quotes, commas,
//! newlines, CRs and the empty string in text, NULLs anywhere, extreme
//! integers, non-finite, signed-zero and negative-NaN floats, and dates
//! across the whole supported calendar (years 1–9999). Values compare with
//! `Value` equality, which uses `f64::total_cmp`, so NaN sign and payload
//! count; no value is normalized before the comparison.

use conquer_storage::{Catalog, DataType, Date, Schema, Table, Value};
use proptest::prelude::*;

fn text_strategy() -> impl Strategy<Value = String> {
    // Printable ASCII plus the separators a text format would have to
    // escape, and some multi-byte UTF-8 for good measure.
    proptest::collection::vec(
        prop_oneof![
            Just('"'),
            Just(','),
            Just('\n'),
            Just('\r'),
            Just('é'),
            Just('日'),
            (32u8..=126).prop_map(|b| b as char),
        ],
        0..24,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn float_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(5e-324), // smallest subnormal
        Just(0.0),
        Just(-0.0),
    ]
}

/// Days range spanning 0001-01-01 ..= 9999-12-31.
const MIN_DAY: i32 = -719162;
const MAX_DAY: i32 = 2932896;

fn value_for(ty: DataType) -> BoxedStrategy<Value> {
    let with_null = |s: BoxedStrategy<Value>| prop_oneof![1 => Just(Value::Null), 4 => s].boxed();
    match ty {
        DataType::Bool => with_null(any::<bool>().prop_map(Value::Bool).boxed()),
        DataType::Int => with_null(
            prop_oneof![
                any::<i64>(),
                Just(i64::MIN),
                Just(i64::MAX),
                Just(0),
                Just(-1),
            ]
            .prop_map(Value::Int)
            .boxed(),
        ),
        DataType::Float => with_null(float_strategy().prop_map(Value::Float).boxed()),
        DataType::Text => with_null(text_strategy().prop_map(Value::text).boxed()),
        DataType::Date => with_null(
            (MIN_DAY..=MAX_DAY)
                .prop_map(|d| Value::Date(Date::from_days(d)))
                .boxed(),
        ),
    }
}

fn schema() -> Schema {
    Schema::from_pairs([
        ("b", DataType::Bool),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("t", DataType::Text),
        ("d", DataType::Date),
    ])
    .unwrap()
}

fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    (
        value_for(DataType::Bool),
        value_for(DataType::Int),
        value_for(DataType::Float),
        value_for(DataType::Text),
        value_for(DataType::Date),
    )
        .prop_map(|(b, i, f, t, d)| vec![b, i, f, t, d])
}

/// A one-column `TEXT` table's values: always a NULL and an empty string,
/// which must each stay a row and stay apart, among arbitrary others.
fn one_column_strategy() -> impl Strategy<Value = Vec<Value>> {
    (
        proptest::collection::vec(value_for(DataType::Text), 0..6),
        0..4usize,
    )
        .prop_map(|(mut values, at)| {
            let at = at.min(values.len());
            values.insert(at, Value::text(""));
            values.insert(at, Value::Null);
            values
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// save_catalog → load_catalog is the identity through the full epoch
    /// path (manifest verification included).
    #[test]
    fn persist_roundtrip_adversarial(
        rows in proptest::collection::vec(row_strategy(), 0..8),
        column in one_column_strategy(),
    ) {
        let mut table = Table::new("t", schema());
        for row in &rows {
            table.insert(row.clone()).unwrap();
        }
        let mut narrow = Table::new("s", Schema::from_pairs([("v", DataType::Text)]).unwrap());
        for v in &column {
            narrow.insert(vec![v.clone()]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.add_table(table).unwrap();
        cat.add_table(narrow).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "conquer_persist_prop_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        conquer_storage::save_catalog(&cat, &dir).unwrap();
        let back = conquer_storage::load_catalog(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(back.table_names(), cat.table_names());
        for name in ["s", "t"] {
            let (saved, loaded) = (cat.table(name).unwrap(), back.table(name).unwrap());
            prop_assert_eq!(loaded.schema(), saved.schema());
            prop_assert_eq!(loaded.len(), saved.len(), "table {}", name);
            for (ri, (got, want)) in loaded.rows().iter().zip(saved.rows()).enumerate() {
                prop_assert_eq!(got, want, "table {} row {}", name, ri);
            }
        }
    }
}
