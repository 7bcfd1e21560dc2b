//! Family A of the clean-answer oracle (`oracle/mod.rs`): random `r`/`s`
//! dirty databases and rewritable SPJ queries, each run on every path
//! through a mutation sequence. Each test runs its own share of the
//! family's seeds and asserts that the check it is named for ran.

mod oracle;

use oracle::family_a_share;

/// RewriteClean's answers equal naive enumeration's, before and after DML.
#[test]
fn rewrite_computes_clean_answers() {
    let cov = family_a_share(0);
    assert!(cov.naive_compared > 0 && cov.naive_after_dml > 0, "{cov:?}");
    assert!(cov.cache_hits > 0, "{cov:?}");
}

/// Every clean answer's probability lies in (0, 1].
#[test]
fn probabilities_bounded() {
    let cov = family_a_share(1);
    assert!(cov.bounded > 0, "{cov:?}");
}

/// The candidate databases' probabilities sum to 1.
#[test]
fn candidate_probabilities_sum_to_one() {
    let cov = family_a_share(2);
    assert!(cov.candidate_sums > 0, "{cov:?}");
}
