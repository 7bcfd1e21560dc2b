//! Joins carry positions, not rows: below the aggregate a joined tuple is
//! one row position per relation into the tables the query pinned, so
//! running a join allocates per batch and per group, never per scanned
//! row or per joined tuple. A group's `SUM` holds its exact sum inline, so
//! a group of a `SUM` allocates no more than a group of a `COUNT(*)`.
//!
//! This binary holds exactly one test and installs a counting global
//! allocator, so the count is what `execute_plan` allocates and nothing
//! else. Run it in release as well (`cargo test --release -p
//! conquer-engine --test alloc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use conquer_engine::binder::bind_select;
use conquer_engine::exec::execute_plan;
use conquer_engine::planner::plan_select;
use conquer_engine::{Database, ExecContext, ExecLimits, QueryResult};
use conquer_storage::Value;

/// Counts every allocation and reallocation, on every thread.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fact rows, each matching [`DUPLICATES`] rows of both dimensions.
const FACTS: i64 = 15_000;
/// Join keys shared by the fact table and both dimensions.
const KEYS: i64 = 600;
/// Rows per key in each dimension: a dirty cluster's duplicates.
const DUPLICATES: i64 = 2;
/// Text group keys over the fact rows.
const GROUPS: i64 = 40;

/// A fact table of 15 000 rows and two dimensions whose every key is
/// duplicated, so each fact row joins into `DUPLICATES²` tuples.
fn database() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE fact (k INTEGER, grp TEXT, prob DOUBLE, id INTEGER);
         CREATE TABLE dim_a (k INTEGER, note TEXT, prob DOUBLE);
         CREATE TABLE dim_b (k INTEGER, name TEXT, prob DOUBLE);",
    )
    .unwrap();
    let cat = db.catalog_mut();
    let fact = cat.table_mut("fact").unwrap();
    for i in 0..FACTS {
        let row = vec![
            Value::Int(i % KEYS),
            Value::text(format!("group-{:02}", i % GROUPS)),
            Value::Float(0.5),
            Value::Int(i),
        ];
        fact.insert(row).unwrap();
    }
    for name in ["dim_a", "dim_b"] {
        let dim = cat.table_mut(name).unwrap();
        for k in 0..KEYS * DUPLICATES {
            let row = vec![
                Value::Int(k % KEYS),
                Value::text(format!("{name}-{k}")),
                Value::Float(0.25),
            ];
            dim.insert(row).unwrap();
        }
    }
    db
}

/// Run `sql` through `execute_plan` alone, returning the result and the
/// allocations made inside the call.
fn run(db: &Database, sql: &str) -> (QueryResult, usize) {
    let stmt = conquer_sql::parse_select(sql).unwrap();
    let bound = bind_select(db.catalog(), &stmt).unwrap();
    let plan = plan_select(db.catalog(), bound).unwrap();
    let ctx = ExecContext::new(ExecLimits::none());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = execute_plan(db.catalog(), &plan, &ctx).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (result, allocations)
}

#[test]
fn a_fan_out_join_allocates_per_batch_not_per_tuple() {
    let db = database();
    let from = "FROM fact f, dim_a a, dim_b b WHERE f.k = a.k AND f.k = b.k";
    let joined = FACTS * DUPLICATES * DUPLICATES;
    let (count, _) = run(&db, &format!("SELECT COUNT(*) {from}"));
    assert_eq!(count.rows, [[Value::Int(joined)]]);

    let sql = format!("SELECT f.grp, SUM(f.prob * a.prob * b.prob) {from} GROUP BY f.grp");
    let (result, allocations) = run(&db, &sql);
    assert_eq!(result.rows.len(), GROUPS as usize);
    assert!(
        allocations < joined as usize / 16,
        "{allocations} allocations for {joined} joined tuples"
    );

    // RewriteClean's shape with one group per fact row: each group copies
    // its text key and makes an output row whatever it aggregates, and a
    // SUM's exact sum adds nothing to that.
    let by_row = |agg: &str| format!("SELECT f.id, f.grp, {agg} {from} GROUP BY f.id, f.grp");
    let (sums, sum_allocations) = run(&db, &by_row("SUM(f.prob * a.prob * b.prob)"));
    let (counts, count_allocations) = run(&db, &by_row("COUNT(*)"));
    assert_eq!(sums.rows.len(), FACTS as usize);
    assert_eq!(counts.rows.len(), FACTS as usize);
    let term = 0.5 * 0.25 * 0.25;
    let sum = (DUPLICATES * DUPLICATES) as f64 * term;
    assert!(sums.rows.iter().all(|row| row[2] == Value::Float(sum)));
    let groups = FACTS as usize;
    assert!(
        sum_allocations < count_allocations + groups / 16,
        "{sum_allocations} allocations with a SUM per group, \
         {count_allocations} with a COUNT(*), over {groups} groups"
    );
}
