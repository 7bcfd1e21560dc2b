//! Properties tying `Database::analyze` to `Database::prepare`:
//!
//! * a diagnostic of a binding code (CQ0002–CQ0004, CQ0006–CQ0008) is
//!   reported if and only if `prepare` fails with `ErrorKind::Bind` — the
//!   analyzer's binding diagnostics are the binder's own;
//! * a query reported free of error-severity diagnostics binds, plans and
//!   executes — and the plan validator, always on, checks every planner
//!   stage on every generated query.

use conquer::prelude::*;
use proptest::prelude::*;

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE customer (custid TEXT, name TEXT, income INTEGER, prob DOUBLE);
         INSERT INTO customer VALUES
           ('c1', 'John', 120000, 0.9), ('c1', 'John', 80000, 0.1),
           ('c2', 'Mary', 140000, 0.4), ('c2', 'Marion', 40000, 0.6);
         CREATE TABLE orders (oid TEXT, custfk TEXT, quantity INTEGER, prob DOUBLE);
         INSERT INTO orders VALUES
           ('o1', 'c1', 3, 1.0), ('o2', 'c1', 2, 0.5), ('o2', 'c2', 5, 0.5)",
    )
    .expect("fixture schema");
    db
}

/// Projection items: valid columns, expressions, aggregates, wildcards —
/// and a few deliberately broken ones, so the generator also exercises the
/// reject path (those cases carry error diagnostics and must not prepare).
fn projection_item() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("c.name".to_string()),
        Just("c.custid".to_string()),
        Just("c.income".to_string()),
        Just("o.oid".to_string()),
        Just("o.quantity".to_string()),
        Just("c.income * 2".to_string()),
        Just("COUNT(*)".to_string()),
        Just("SUM(c.income)".to_string()),
        Just("SUM(c.income) AS total".to_string()),
        Just("MIN(o.quantity)".to_string()),
        Just("nmae".to_string()),
        Just("c.nonexistent".to_string()),
        Just("prob".to_string()),
        // An alias that shadows an input column, and one that does not.
        Just("c.income AS name".to_string()),
        Just("c.income AS total".to_string()),
        Just("CASE WHEN c.income > 100000 THEN 'rich' ELSE 'poor' END AS band".to_string()),
        Just("CASE WHEN c.income > 100000 THEN 'a' ELSE 2 END".to_string()),
        Just("-c.income".to_string()),
        Just("-c.name".to_string()),
        Just("*".to_string()),
        Just("c.*".to_string()),
        Just("o.*".to_string()),
        Just("x.*".to_string()),
    ]
}

fn predicate() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("c.custid = o.custfk".to_string()),
        Just("c.income > 50000".to_string()),
        Just("c.income >= 100000".to_string()),
        Just("o.quantity IN (1, 2, 3)".to_string()),
        Just("c.name LIKE 'M%'".to_string()),
        Just("1 = 1".to_string()),
        Just("'a' = 'b'".to_string()),
        Just("c.income = o.prob".to_string()),
        Just("c.income = missing_col".to_string()),
        Just("-c.income < 0".to_string()),
        // Mixed-class arms: no static type, so no CQ0005 — and no row of
        // the fixture takes the TEXT arm, so it runs.
        Just("(CASE WHEN c.income > 9000000 THEN 'a' ELSE 2 END) = 2".to_string()),
    ]
}

fn query() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(projection_item(), 1..4),
        prop_oneof![
            Just("customer c"),
            Just("customer c, orders o"),
            Just("custoner c"),
            Just("customer c, orders c"),
        ],
        proptest::collection::vec(predicate(), 0..3),
        proptest::option::of(prop_oneof![Just("c.name"), Just("c.custid"), Just("o.oid")]),
        proptest::option::of(prop_oneof![
            Just("COUNT(*) > 1"),
            Just("c.income > 1"),
            Just("c.name = 'Mary'"),
        ]),
        proptest::option::of(prop_oneof![
            Just("total"),
            Just("name"),
            Just("1"),
            Just("9"),
            Just("SUM(c.income)"),
            Just("c.custid DESC"),
            Just("nmae"),
        ]),
    )
        .prop_map(|(proj, from, preds, group, having, order)| {
            let mut sql = format!("SELECT {} FROM {from}", proj.join(", "));
            if !preds.is_empty() {
                sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
            }
            for (keyword, clause) in [("GROUP BY", group), ("HAVING", having), ("ORDER BY", order)]
            {
                if let Some(clause) = clause {
                    sql.push_str(&format!(" {keyword} {clause}"));
                }
            }
            sql
        })
}

/// The codes the binder itself raises: name resolution and grouping.
const BINDING_CODES: [Code; 6] = [
    Code::UnknownTable,
    Code::UnknownColumn,
    Code::AmbiguousColumn,
    Code::DuplicateBinding,
    Code::BindError,
    Code::UngroupedColumn,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn check_clean_queries_execute_without_internal_errors(sql in query()) {
        let db = fixture();
        let diags = db.analyze(&sql);
        let prepared = db.prepare(&sql);

        // Both directions: the binder's diagnostics *are* what prepare
        // fails with — a binding code is reported iff prepare is a BIND
        // error.
        let binding: Vec<&Diagnostic> =
            diags.iter().filter(|d| BINDING_CODES.contains(&d.code)).collect();
        let bind_failure = matches!(&prepared, Err(e) if e.kind() == ErrorKind::Bind);
        prop_assert_eq!(
            !binding.is_empty(),
            bind_failure,
            "analyze and prepare disagree: {:?} vs {:?}\nquery: {}",
            binding,
            prepared.as_ref().err(),
            sql
        );
        // …and they are first-hand: worded by the rule that found them and
        // pointing at the offending reference, not a spanless echo of the
        // engine error.
        for d in &binding {
            prop_assert!(!d.message.contains("binding error"), "{d:?}\nquery: {sql}");
            let column_level = matches!(d.code, Code::UnknownColumn | Code::AmbiguousColumn)
                || (d.code == Code::UngroupedColumn && !d.message.contains("wildcard"));
            if column_level {
                let name = sql
                    .get(d.span.start as usize..d.span.end as usize)
                    .and_then(|reference| reference.rsplit('.').next());
                prop_assert!(
                    name.is_some_and(|name| d.message.contains(name)),
                    "span {:?} does not select the named column: {d:?}\nquery: {sql}",
                    d.span
                );
            }
        }

        if diags.iter().any(|d| d.is_error()) {
            // The analyzer rejected the query; nothing to execute.
            return Ok(());
        }
        // Documented contract: error-free analysis ⇒ the statement prepares.
        let stmt = match prepared {
            Ok(s) => s,
            Err(e) => panic!("analyze() found no errors but prepare failed: {e}\nquery: {sql}"),
        };
        // Re-analyzing the prepared statement's SQL must agree.
        prop_assert!(db.analyze(stmt.sql()).iter().all(|d| !d.is_error()));
        // Execution must never trip a plan invariant — and,
        // the generator dividing by nothing, has no other way to fail.
        if let Err(e) = stmt.query(&db) {
            panic!("analyze-clean query failed at runtime: {e}\nquery: {sql}");
        }
    }
}
