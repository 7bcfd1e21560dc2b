//! Engine-kernel benchmarks: hash join vs nested-loop join, aggregation,
//! and sorting — the operators whose relative costs determine the rewritten
//! queries' overhead (the rewriting adds exactly one hash aggregation).
//!
//! Ablation called out in DESIGN.md: the paper built indexes on identifier
//! columns; our analogue is the equality-driven hash join versus the
//! nested-loop fallback an engine without equi detection would use.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use conquer_engine::Database;

/// Two tables joined 1:N (N ≈ 4).
fn setup(parents: usize) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE parent (id INTEGER, grp INTEGER, prob DOUBLE);
         CREATE TABLE child (id INTEGER, fk INTEGER, v INTEGER, prob DOUBLE)",
    )
    .unwrap();
    {
        let t = db.catalog_mut().table_mut("parent").unwrap();
        for i in 0..parents as i64 {
            t.insert(vec![i.into(), (i % 10).into(), 1.0.into()])
                .unwrap();
        }
    }
    {
        let t = db.catalog_mut().table_mut("child").unwrap();
        let mut id = 0i64;
        for i in 0..parents as i64 {
            for _ in 0..4 {
                t.insert(vec![id.into(), i.into(), (id % 97).into(), 1.0.into()])
                    .unwrap();
                id += 1;
            }
        }
    }
    db
}

fn bench_joins(c: &mut Criterion) {
    let db = setup(2000);
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);

    let hash_join = db
        .prepare("SELECT c.id FROM child c, parent p WHERE c.fk = p.id")
        .unwrap();
    group.bench_function("hash_join_8k_x_2k", |b| {
        b.iter(|| black_box(hash_join.query(&db).expect("runs").len()))
    });

    // Forcing the nested-loop path with an inequality predicate of matched
    // selectivity is not possible; compare with a much smaller cross join
    // instead, which is what the planner falls back to without equi keys.
    let small = setup(150);
    let nested = small
        .prepare("SELECT c.id FROM child c, parent p WHERE c.fk < p.id")
        .unwrap();
    group.bench_function("nested_loop_600_x_150", |b| {
        b.iter(|| black_box(nested.query(&small).expect("runs").len()))
    });

    let agg = db
        .prepare(
            "SELECT p.grp, COUNT(*), SUM(c.v * p.prob) \
             FROM child c, parent p WHERE c.fk = p.id GROUP BY p.grp",
        )
        .unwrap();
    group.bench_function("hash_aggregate_8k_rows", |b| {
        b.iter(|| black_box(agg.query(&db).expect("runs").len()))
    });

    let sort = db
        .prepare("SELECT id, v FROM child ORDER BY v DESC, id")
        .unwrap();
    group.bench_function("sort_8k_rows", |b| {
        b.iter(|| black_box(sort.query(&db).expect("runs").len()))
    });

    let filter = db.prepare("SELECT id FROM child WHERE v < 50").unwrap();
    group.bench_function("filter_scan_8k_rows", |b| {
        b.iter(|| black_box(filter.query(&db).expect("runs").len()))
    });

    group.finish();
}

criterion_group!(benches, bench_joins);
criterion_main!(benches);
