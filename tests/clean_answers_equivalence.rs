//! Family B of the clean-answer oracle (`oracle/mod.rs`): a miniature
//! TPC-H with the thirteen templates, each run on every path through a
//! mutation sequence. Each test runs its own share of the family's seeds
//! and asserts that the check it is named for ran.

mod oracle;

use conquer_datagen::queries::QUERY_IDS;
use oracle::family_b_share;

/// Every template's rewritten answer equals naive enumeration's.
#[test]
fn all_templates_rewritten_match_naive() {
    let cov = family_b_share(0);
    assert!(cov.naive_compared >= QUERY_IDS.len(), "{cov:?}");
}

/// Every template's clean answers have probabilities in (0, 1].
#[test]
fn all_templates_probabilities_bounded() {
    let cov = family_b_share(1);
    assert!(cov.bounded >= QUERY_IDS.len(), "{cov:?}");
}
