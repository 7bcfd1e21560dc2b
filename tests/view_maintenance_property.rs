//! Family B of the clean-answer oracle (`oracle/mod.rs`) on its view
//! paths: the thirteen templates as maintained views under random
//! mutation sequences, each view equal to `REFRESH` after every commit.

mod oracle;

use oracle::family_b_share;

#[test]
fn random_interleavings_keep_views_bit_identical() {
    let cov = family_b_share(2);
    assert!(cov.commits > 0, "{cov:?}");
}
