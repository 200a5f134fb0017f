//! The default DTM scope is the paper's: any junction above the threshold
//! crashes the whole chip's frequency.

use hp_sim::DtmScope;

#[test]
fn default_scope_is_the_papers_chip_wide_crash() {
    assert_eq!(DtmScope::default(), DtmScope::Chip);
}
