//! Documented numeric conversions for the thermal/linalg math.
//!
//! The workspace lint gate (`cargo xtask check`, rule `cast`) bans bare
//! `as` float↔int casts in `hp-linalg` and `hp-thermal` library code: a
//! silent truncation or precision loss in an index-to-time conversion
//! corrupts temperatures without any test noticing. Every conversion the
//! solvers need goes through one of these helpers instead, so its
//! rounding and range behaviour is named at the call site and the `as`
//! itself lives in exactly one audited place per shape.

/// Converts a count (loop index, dimension, sample number) to `f64`.
///
/// Exact for every value below 2⁵³ (≈ 9·10¹⁵); thermal models and epoch
/// counts live many orders of magnitude below that, and the debug
/// assertion documents the boundary rather than guarding a reachable
/// case.
#[inline]
#[must_use]
pub fn usize_to_f64(n: usize) -> f64 {
    debug_assert!(n < (1usize << 53), "usize→f64 would round: {n}");
    // xtask: allow(cast) — exact below 2^53, asserted above; this helper
    // is the audited home of the cast.
    n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usize_to_f64_is_exact_for_small_counts() {
        for n in [0usize, 1, 3, 48, 4096, 1 << 20] {
            let f = usize_to_f64(n);
            assert_eq!(f, n as f64);
            assert_eq!(f.fract(), 0.0);
        }
    }
}
