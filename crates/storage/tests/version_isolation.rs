//! Property test: table versions share rows, and a write to one version
//! never shows in another. A catalog is cloned before every write, as a
//! database publishes versions, and random valid [`Edit`]s (replacements
//! only, removals only, insertions only, and all three mixed) go through
//! [`Catalog::apply`] on the newest clone, followed by one
//! `table_mut().update_column`. Every version must still hold exactly the
//! rows it held when the next one was cloned from it (compared with deep
//! copies taken then), and the newest must equal a model that applies the
//! same edits to owned vectors.

use std::sync::Arc;

use conquer_storage::{Catalog, DataType, Edit, Schema, SharedRow, Table, Value};
use proptest::prelude::*;

type Model = Vec<Vec<Value>>;

/// One generated row: `k INTEGER, s TEXT, p DOUBLE`. An integer `p` is
/// widened to a float by the table (and the model).
fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    (
        -5i64..5,
        "[a-c]{0,3}",
        prop_oneof![
            (0i64..3).prop_map(Value::Int),
            (0u8..8).prop_map(|p| Value::Float(f64::from(p) / 8.0)),
        ],
    )
        .prop_map(|(k, s, p)| vec![Value::Int(k), Value::Text(s), p])
}

/// What one edit does, before it is fitted to the table's length.
#[derive(Debug, Clone)]
enum Shape {
    Replace,
    Remove,
    Insert,
    Mixed,
}

/// A generated edit: its shape, picked positions (taken modulo the
/// table's length) and rows.
#[derive(Debug, Clone)]
struct Plan {
    shape: Shape,
    picks: Vec<(usize, bool)>,
    rows: Vec<Vec<Value>>,
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (
        prop_oneof![
            Just(Shape::Replace),
            Just(Shape::Remove),
            Just(Shape::Insert),
            Just(Shape::Mixed),
        ],
        prop::collection::vec((0usize..1000, any::<bool>()), 1..6),
        prop::collection::vec(row_strategy(), 6),
    )
        .prop_map(|(shape, picks, rows)| Plan { shape, picks, rows })
}

/// The valid edit `plan` describes on `table`'s rows. A replacement
/// that `Shape::Replace` flips is the stored row with one cell written,
/// as an `UPDATE` builds it: a copy on write of a row older versions
/// share.
fn fit(plan: &Plan, table: &[SharedRow]) -> Edit {
    let len = table.len();
    let mut edit = Edit::default();
    let mut rows = plan.rows.iter().cycle().cloned().map(SharedRow::from);
    let (change, insert) = match plan.shape {
        Shape::Replace | Shape::Remove => (true, false),
        Shape::Insert => (false, true),
        Shape::Mixed => (true, true),
    };
    if change && len > 0 {
        let mut positions: Vec<usize> = plan.picks.iter().map(|(p, _)| p % len).collect();
        positions.sort_unstable();
        positions.dedup();
        for (pos, (_, flip)) in positions.into_iter().zip(&plan.picks) {
            let row = match plan.shape {
                Shape::Replace if *flip => {
                    let mut row = table[pos].clone();
                    let cells = Arc::make_mut(&mut row);
                    cells[0] = Value::Int(cells[0].as_i64().unwrap() + 100);
                    Some(row)
                }
                Shape::Replace => rows.next(),
                Shape::Remove => None,
                _ => flip.then(|| rows.next().unwrap()),
            };
            edit.changed.push((pos, row));
        }
    }
    if insert {
        let mut positions: Vec<usize> = plan.picks.iter().map(|(p, _)| p % (len + 1)).collect();
        positions.sort_unstable();
        for pos in positions {
            edit.inserted.push((pos, rows.next().unwrap()));
        }
    }
    edit
}

/// `row` as the table stores it: an integer `p` widened to a float.
fn conformed(row: &[Value]) -> Vec<Value> {
    let mut row = row.to_vec();
    if let Value::Int(i) = row[2] {
        row[2] = Value::Float(i as f64);
    }
    row
}

/// `edit` applied to owned rows, by its own reading of the positions.
fn apply_model(model: &Model, edit: &Edit) -> Model {
    let mut out = Vec::new();
    let inserted_at = |pos: usize| edit.inserted.iter().filter(move |(p, _)| *p == pos);
    for (pos, row) in model.iter().enumerate() {
        out.extend(inserted_at(pos).map(|(_, r)| conformed(r)));
        match edit.changed.iter().find(|(p, _)| *p == pos) {
            Some((_, Some(new))) => out.push(conformed(new)),
            Some((_, None)) => {}
            None => out.push(row.clone()),
        }
    }
    out.extend(inserted_at(model.len()).map(|(_, r)| conformed(r)));
    out
}

/// A deep copy of a table's rows.
fn owned(cat: &Catalog, name: &str) -> Model {
    let rows = cat.table(name).unwrap().shared_rows();
    rows.iter().map(|r| r.to_vec()).collect()
}

fn catalog(t: &[Vec<Value>], u: &[Vec<Value>]) -> Catalog {
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("s", DataType::Text),
        ("p", DataType::Float),
    ])
    .unwrap();
    let mut cat = Catalog::new();
    for (name, rows) in [("t", t), ("u", u)] {
        let mut table = Table::new(name, schema.clone());
        table.insert_all(rows.iter().cloned()).unwrap();
        cat.add_table(table).unwrap();
    }
    cat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_write_to_one_version_never_shows_in_another(
        t in prop::collection::vec(row_strategy(), 0..12),
        u in prop::collection::vec(row_strategy(), 0..4),
        plans in prop::collection::vec(plan_strategy(), 1..6),
    ) {
        let mut next = catalog(&t, &u);
        let mut model = owned(&next, "t");
        // Every version with the deep copy of `t` and `u` taken when the
        // next one was cloned from it.
        let mut versions = Vec::new();
        for plan in &plans {
            let base = next.clone();
            versions.push((base, model.clone(), owned(&next, "u")));
            let edit = fit(plan, next.table("t").unwrap().shared_rows());
            model = apply_model(&model, &edit);
            next.apply("t", edit).unwrap();
            prop_assert_eq!(owned(&next, "t"), model.clone());
        }
        let base = next.clone();
        versions.push((base, model.clone(), owned(&next, "u")));
        next.table_mut("t")
            .unwrap()
            .update_column("p", |i, old| Value::Float(old.as_f64().unwrap() + i as f64))
            .unwrap();
        for (i, row) in model.iter_mut().enumerate() {
            row[2] = Value::Float(row[2].as_f64().unwrap() + i as f64);
        }
        prop_assert_eq!(owned(&next, "t"), model);
        for (version, t_then, u_then) in &versions {
            prop_assert_eq!(&owned(version, "t"), t_then);
            prop_assert_eq!(&owned(version, "u"), u_then);
        }
    }
}
