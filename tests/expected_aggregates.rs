//! Family A of the clean-answer oracle (`oracle/mod.rs`), on its
//! `expected` path: `RewriteExpected`'s `COUNT`/`SUM` answers against
//! `naive_expected`'s enumeration, with every other path run too.

mod oracle;

use oracle::family_a_share;

#[test]
fn expected_aggregates_match_enumeration() {
    let cov = family_a_share(3);
    assert!(cov.expected_compared > 0, "{cov:?}");
}
