//! Self-tests for the lock-order / rank / blocking-region analyzer.
//!
//! These construct violations with test-local lock labels (so the global
//! lock-order graph never intersects the production rank table) and assert
//! the panic message names both acquisition sites.

use conquer_sync::{blocking_region, rank, Condvar, Mutex, Rank, RwLock, ANALYSIS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn panic_message(r: std::thread::Result<()>) -> String {
    match r {
        Ok(()) => String::new(),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    }
}

fn catch(f: impl FnOnce()) -> String {
    panic_message(catch_unwind(AssertUnwindSafe(f)))
}

#[test]
// ANALYSIS is a compile-time constant by design — asserting on it is the
// whole point of this test.
#[allow(clippy::assertions_on_constants)]
fn analysis_is_on_in_debug_and_test_builds() {
    // Debug builds (cargo test default) must have the instrumentation; a
    // release run of this suite exercises the passthrough test below instead.
    if cfg!(debug_assertions) {
        assert!(ANALYSIS, "debug builds must carry the instrumentation");
    }
}

#[test]
fn release_wrappers_are_field_identical_passthroughs() {
    if !ANALYSIS {
        assert_eq!(
            std::mem::size_of::<Mutex<u64>>(),
            std::mem::size_of::<std::sync::Mutex<u64>>(),
            "release Mutex wrapper must add no fields"
        );
        assert_eq!(
            std::mem::size_of::<RwLock<u64>>(),
            std::mem::size_of::<std::sync::RwLock<u64>>(),
            "release RwLock wrapper must add no fields"
        );
        assert_eq!(
            std::mem::size_of::<Condvar>(),
            std::mem::size_of::<std::sync::Condvar>(),
            "release Condvar wrapper must add no fields"
        );
    }
}

#[test]
fn lock_order_cycle_is_reported_with_both_sites() {
    if !ANALYSIS {
        return;
    }
    static A: Rank = Rank {
        order: 0,
        name: "selftest_cycle_a",
        blocking_ok: false,
    };
    static B: Rank = Rank {
        order: 0,
        name: "selftest_cycle_b",
        blocking_ok: false,
    };
    let a = Mutex::new(&A, ());
    let b = Mutex::new(&B, ());
    {
        // Witness the order a -> b.
        let _ga = a.lock();
        let _gb = b.lock();
    }
    // Now the reverse nesting must be rejected as a potential deadlock.
    let _gb = b.lock();
    let msg = catch(|| {
        let _ga = a.lock();
    });
    assert!(
        msg.contains("lock-order cycle"),
        "unexpected message: {msg}"
    );
    assert!(
        msg.contains("selftest_cycle_a") && msg.contains("selftest_cycle_b"),
        "{msg}"
    );
    // Both acquisition sites (all in this file) must be named.
    let sites = msg.matches("analyzer.rs").count();
    assert!(sites >= 2, "expected at least two named sites in: {msg}");
}

#[test]
fn rank_inversion_is_reported_with_both_sites() {
    if !ANALYSIS {
        return;
    }
    static HI: Rank = Rank {
        order: 7,
        name: "selftest_inv_hi",
        blocking_ok: false,
    };
    static LO: Rank = Rank {
        order: 6,
        name: "selftest_inv_lo",
        blocking_ok: false,
    };
    let hi = Mutex::new(&HI, ());
    let lo = Mutex::new(&LO, ());
    let _g = hi.lock();
    let msg = catch(|| {
        let _g2 = lo.lock();
    });
    assert!(
        msg.contains("lock-rank inversion"),
        "unexpected message: {msg}"
    );
    assert!(
        msg.contains("selftest_inv_hi") && msg.contains("selftest_inv_lo"),
        "{msg}"
    );
    assert!(
        msg.matches("analyzer.rs").count() >= 2,
        "expected both sites named in: {msg}"
    );
}

#[test]
fn equal_rank_nesting_is_an_inversion() {
    if !ANALYSIS {
        return;
    }
    static R1: Rank = Rank {
        order: 9,
        name: "selftest_eq_a",
        blocking_ok: false,
    };
    static R2: Rank = Rank {
        order: 9,
        name: "selftest_eq_b",
        blocking_ok: false,
    };
    let a = Mutex::new(&R1, ());
    let b = Mutex::new(&R2, ());
    let _g = a.lock();
    let msg = catch(|| {
        let _g2 = b.lock();
    });
    assert!(msg.contains("lock-rank inversion"), "{msg}");
}

#[test]
fn reentrant_acquisition_is_reported() {
    if !ANALYSIS {
        return;
    }
    static R: Rank = Rank {
        order: 0,
        name: "selftest_reentrant",
        blocking_ok: false,
    };
    let m = Mutex::new(&R, 0u32);
    let _g = m.lock();
    let msg = catch(|| {
        let _g2 = m.lock();
    });
    assert!(msg.contains("re-entrant"), "{msg}");
}

#[test]
fn ascending_ranks_are_accepted() {
    // The production table must be usable in its documented order.
    let w = Mutex::new(&rank::SHARED_WRITER, ());
    let cur = RwLock::new(&rank::DB_CURRENT, 0u64);
    let results = Mutex::new(&rank::RESULT_CACHE, ());
    let gate = Mutex::new(&rank::GATE, ());
    let _gw = w.lock();
    {
        let _gc = cur.write();
    }
    let _gr = results.lock();
    let _gg = gate.lock();
}

#[test]
fn blocking_region_flags_non_blocking_ok_locks() {
    if !ANALYSIS {
        return;
    }
    static R: Rank = Rank {
        order: 0,
        name: "selftest_blocking",
        blocking_ok: false,
    };
    let m = Mutex::new(&R, ());
    let _g = m.lock();
    let msg = catch(|| {
        let _b = blocking_region("selftest::fsync");
    });
    assert!(msg.contains("blocking region"), "{msg}");
    assert!(
        msg.contains("selftest_blocking") && msg.contains("selftest::fsync"),
        "{msg}"
    );
}

#[test]
fn blocking_region_allows_blocking_ok_locks() {
    let m = Mutex::new(&rank::SHARED_WRITER, ());
    let _g = m.lock();
    let _b = blocking_region("selftest::fsync-ok");
}

#[test]
fn injected_spurious_wakeup_returns_without_notify() {
    if !ANALYSIS {
        return;
    }
    static R: Rank = Rank {
        order: 0,
        name: "selftest_spurious",
        blocking_ok: false,
    };
    let m = Mutex::new(&R, false);
    let cv = Condvar::new();
    assert!(cv.inject_spurious(1));
    let g = m.lock();
    // Returns immediately (no notifier exists); predicate still false.
    let (g, r) = cv.wait_timeout(g, Duration::from_secs(60));
    assert!(
        !*g,
        "predicate must still be unfulfilled after a spurious wake"
    );
    assert!(!r.timed_out(), "spurious wake is not a timeout");
    drop(g);
}

#[test]
fn poison_is_recovered_and_clearable() {
    static R: Rank = Rank {
        order: 0,
        name: "selftest_poison",
        blocking_ok: false,
    };
    static M: Mutex<u32> = Mutex::new(&R, 7);
    let _ = catch_unwind(AssertUnwindSafe(|| {
        let _g = M.lock();
        panic!("poison it");
    }));
    assert!(M.is_poisoned());
    // lock() recovers the data instead of propagating the poison.
    assert_eq!(*M.lock(), 7);
    M.clear_poison();
    assert!(!M.is_poisoned());
}

#[test]
fn wait_requires_innermost_lock() {
    if !ANALYSIS {
        return;
    }
    static OUTER: Rank = Rank {
        order: 0,
        name: "selftest_wait_outer",
        blocking_ok: false,
    };
    static INNER: Rank = Rank {
        order: 0,
        name: "selftest_wait_inner",
        blocking_ok: false,
    };
    let outer = Mutex::new(&OUTER, ());
    let inner = Mutex::new(&INNER, ());
    let cv = Condvar::new();
    cv.inject_spurious(1); // would return immediately if the check passed
    let go = outer.lock();
    let _gi = inner.lock();
    let msg = catch(|| {
        let _ = cv.wait_timeout(go, Duration::from_millis(1));
    });
    assert!(msg.contains("innermost"), "{msg}");
}
