//! The clean-answer oracle's durable and budget families (C, D), the
//! single-behaviour view tests, and the check that the oracle catches
//! seeded mutants. The harness and families A–B's entry points are in
//! `oracle/mod.rs` and the files it names.

mod oracle;

use conquer_datagen::queries::QUERY_IDS;
use conquer_engine::exec::explain_plan;
use conquer_engine::{QuerySource, SharedDatabase};
use conquer_sql::parse_select;
use oracle::{family_a, family_c, family_d, literal, open, run_instance, Coverage};

#[test]
fn family_c_two_hundred_commits_under_thirteen_views() {
    let mut cov = Coverage::default();
    run_instance(&family_c(), &mut cov);
    assert_eq!(cov.commits, 200, "{cov:?}");
    assert!(cov.reopens > 0 && cov.cache_hits > 0, "{cov:?}");
    assert!(cov.naive_refused > 0, "{cov:?}");
    // Rewritten answers aggregate in runs of the root identifier, and the
    // commits (a duplicated tuple, a RECLUSTER) break run order at least
    // once, which switches that pass to hashing.
    assert!(cov.in_runs > 0 && cov.runs_hashed > 0, "{cov:?}");
}

#[test]
fn family_d_thirteen_templates_under_spilling_budgets() {
    let mut cov = Coverage::default();
    run_instance(&family_d(), &mut cov);
    assert!(cov.spilled_at_4_mib > 0, "nothing spilled: {cov:?}");
    assert_eq!(cov.cache_hits, QUERY_IDS.len(), "{cov:?}");
}

/// Family C's database in memory, with the thirteen templates as views
/// `oracle_v0`… in [`QUERY_IDS`] order.
fn views_fixture() -> SharedDatabase {
    let mut inst = family_c();
    inst.durable = None;
    open(&inst).0
}

/// Serving a maintained view is a scan of its contents table, cached like
/// any other answer: the base join plan is never re-executed on lookup.
#[test]
fn view_lookup_is_a_cached_scan_not_a_join() {
    let shared = views_fixture();
    for q in 0..QUERY_IDS.len() {
        let lookup = parse_select(&format!("SELECT * FROM oracle_v{q}")).unwrap();
        let snapshot = shared.snapshot();
        let db = snapshot.db();
        let plan = explain_plan(db.catalog(), &db.plan(&lookup).unwrap()).unwrap();
        assert!(!plan.contains("Join"), "view {q} re-joins: {plan}");
    }
    let session = shared.session();
    let served = [0, 1].map(|_| session.query("SELECT * FROM oracle_v0").unwrap().source);
    assert_eq!(served[1], QuerySource::ResultCache, "lookup missed");
}

/// Mutating a base table leaves views queryable through the shared handle
/// and bumps the maintenance counters the server reports.
#[test]
fn shared_handle_serves_maintained_views_across_epochs() {
    let shared = views_fixture();
    let (session, lookup) = (shared.session(), "SELECT * FROM oracle_v0");
    assert!(!session.query(lookup).unwrap().result.is_empty());
    let snap = shared.snapshot();
    let lineitem = snap.db().catalog().table("lineitem").unwrap();
    let id = literal(&lineitem.rows()[0][lineitem.column_index("l_id").unwrap()]);
    let delete = format!("DELETE FROM lineitem WHERE l_id = {id}");
    session.execute(&delete).unwrap();
    let stats = shared.stats();
    assert!(stats.views >= 13, "view registry lost entries: {stats:?}");
    assert!(stats.view_deltas_applied > 0, "no view delta counted");
    // The new epoch serves the maintained contents.
    session.query(lookup).unwrap();
}

/// The oracle is not vacuous: with a seeded mutant armed, family A fails
/// on the path pair the mutant breaks. Mutants fire only on threads the
/// schedule explorer owns, so the armed run is one virtual thread.
#[cfg(any(debug_assertions, feature = "analysis"))]
#[test]
fn oracle_catches_drop_factor_and_skip_retract() {
    use conquer_core::sync::{arm_mutant, clear_mutants, rank, sched::Explorer, Mutex};

    static SERIAL: Mutex<()> = Mutex::new(&rank::TEST_SERIAL, ());
    let _serial = SERIAL.lock();
    let caught = |mutant: &'static str| {
        arm_mutant(mutant);
        let explorer = Explorer::new().max_schedules(1).max_steps(usize::MAX);
        let report = explorer.explore(|exec| {
            exec.spawn("oracle", || {
                for seed in 0..64 {
                    run_instance(&family_a(seed), &mut Coverage::default());
                }
            })
        });
        clear_mutants();
        report.failure.unwrap_or_else(|| panic!("{mutant} escaped"))
    };
    // A dropped probability factor: the rewritten paths all agree with
    // each other, so only the naive enumeration can tell.
    let failure = caught("rewrite::drop-factor");
    assert!(failure.contains("naive vs flat"), "{failure}");
    // A skipped retraction: the view diverges from its recompute first.
    let failure = caught("view::skip-retract");
    assert!(failure.contains("view vs refresh"), "{failure}");
}
