//! Geometric random variables for lazy propagation sampling.
//!
//! Lemma 6 of the paper establishes that Bernoulli probing an edge with
//! probability `p` across θ iterations is statistically identical to
//! skipping ahead by i.i.d. geometric gaps: the edge fires at trial numbers
//! `X₁, X₁+X₂, …` with `Xᵢ ~ Geometric(p)` (support `1, 2, …`). Sampling a
//! gap is one `ln` instead of up to `1/p` coin flips — the entire point of
//! §5.1.
//!
//! The inversion is split in two so the lazy sampler can compute `ln(1−p)`
//! once per armed edge and reuse it on every re-arm: `ln_miss` maps `p` to
//! `ln(1−p)`, `gap` draws from it, and [`geometric`] is their composition.

use rand::Rng;

/// A geometric gap sentinel meaning "never fires" (`p = 0`, or a gap too
/// long to count).
pub const NEVER: u64 = u64::MAX;

/// `ln(1−p)` for `0 < p`, the input of [`gap`]; `−∞` for `p ≥ 1`.
///
/// When `p` is so small that `1 − p` rounds to 1 (`p < ~5.5e-17`),
/// `(1−p).ln()` would be 0 and the gap would collapse to 1; that branch
/// goes through `ln_1p` instead, which keeps `ln(1−p) ≈ −p`. Every other
/// `p` takes the plain `ln`, so their gaps are unchanged.
#[inline]
pub(crate) fn ln_miss(p: f64) -> f64 {
    if p >= 1.0 {
        return f64::NEG_INFINITY;
    }
    let q = 1.0 - p;
    if q == 1.0 {
        (-p).ln_1p()
    } else {
        q.ln()
    }
}

/// Draws `X ~ Geometric(p)` given `ln_q = ln(1−p)` (see [`ln_miss`]) via
/// inversion: `X = ⌊ln(1−U)/ln(1−p)⌋ + 1`, `U ~ U[0,1)`.
///
/// `ln_q = −∞` (`p ≥ 1`) returns 1 without drawing; a gap beyond `u64`
/// saturates to [`NEVER`].
#[inline]
pub(crate) fn gap<R: Rng + ?Sized>(ln_q: f64, rng: &mut R) -> u64 {
    if ln_q == f64::NEG_INFINITY {
        return 1;
    }
    // u ∈ [0, 1): ln(1-u) ≤ 0 and ln(1-p) < 0, so the ratio is ≥ 0. Floor+1
    // implements the ceiling on the open interval while mapping u = 0 to
    // X = 1; the cast saturates and the add must too.
    let u: f64 = rng.gen();
    (((1.0 - u).ln() / ln_q).floor() as u64).saturating_add(1)
}

/// Draws `X ~ Geometric(p)` with support `{1, 2, …}`.
///
/// Returns [`NEVER`] for `p ≤ 0` and 1 for `p ≥ 1` (without drawing).
#[inline]
pub fn geometric<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    if p <= 0.0 {
        return NEVER;
    }
    gap(ln_miss(p), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn degenerate_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(geometric(0.0, &mut rng), NEVER);
        assert_eq!(geometric(-0.5, &mut rng), NEVER);
        assert_eq!(geometric(1.0, &mut rng), 1);
        assert_eq!(geometric(1.5, &mut rng), 1);
        // Certain edges consume no randomness, from `p` or from `ln(1−p)`.
        let mut fresh = StdRng::seed_from_u64(1);
        assert_eq!(gap(ln_miss(1.0), &mut rng), 1);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn vanishing_probabilities_draw_long_gaps() {
        // Below ~5.5e-17, `1 − p == 1`: the plain `ln` gave a zero
        // denominator and every draw collapsed to 1 (fire on every trial).
        let mut rng = StdRng::seed_from_u64(5);
        for p in [1e-17, 1e-20, f32::MIN_POSITIVE as f64] {
            assert!(ln_miss(p) < 0.0, "p={p}: ln(1-p) must stay negative");
            for _ in 0..1_000 {
                let x = geometric(p, &mut rng);
                assert!(x >= 1_000_000, "p={p}: gap {x}");
            }
        }
        // Gaps past u64 saturate instead of wrapping to 1.
        assert_eq!(geometric(f32::MIN_POSITIVE as f64, &mut rng), NEVER);
        // p = 1e-17 still has the right mean, 1/p.
        let n = 10_000u32;
        let mean: f64 = (0..n).map(|_| geometric(1e-17, &mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean * 1e-17 - 1.0).abs() < 0.05, "mean {mean:e}");
    }

    #[test]
    fn matches_plain_inversion_wherever_one_minus_p_is_not_one() {
        // The `ln_1p` branch is taken only where `1 − p` rounds to 1; every
        // other p draws bit-identical gaps to `⌊ln(1−U)/ln(1−p)⌋ + 1`.
        for p in [1.2e-16f64, 1e-9, 7.9e-4, 0.01, 0.3, 0.5, 0.999_999] {
            let mut a = StdRng::seed_from_u64(6);
            let mut b = StdRng::seed_from_u64(6);
            for _ in 0..1_000 {
                let u: f64 = b.gen();
                let plain = ((1.0 - u).ln() / (1.0 - p).ln()).floor() as u64 + 1;
                assert_eq!(geometric(p, &mut a), plain, "p={p}");
            }
        }
    }

    #[test]
    fn support_starts_at_one() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(geometric(0.9, &mut rng) >= 1);
        }
    }

    #[test]
    fn mean_matches_one_over_p() {
        let mut rng = StdRng::seed_from_u64(3);
        for &p in &[0.1f64, 0.25, 0.5, 0.8] {
            let n = 200_000u64;
            let sum: u64 = (0..n).map(|_| geometric(p, &mut rng)).sum();
            let mean = sum as f64 / n as f64;
            let expected = 1.0 / p;
            assert!((mean - expected).abs() < 0.03 * expected, "p={p}: mean {mean} vs {expected}");
        }
    }

    /// Lemma 6: the number of "heads" in θ Bernoulli(p) trials equals (in
    /// distribution) the largest Y with X₁+…+X_Y ≤ θ for geometric gaps Xᵢ.
    /// We compare empirical means and variances of the two processes.
    #[test]
    fn lemma6_equivalence_moments() {
        let theta = 200u64;
        let p = 0.3f64;
        let reps = 20_000;

        let mut rng = StdRng::seed_from_u64(4);
        let mut bern_mean = 0.0f64;
        let mut bern_sq = 0.0f64;
        for _ in 0..reps {
            let mut heads = 0u64;
            for _ in 0..theta {
                if rng.gen_bool(p) {
                    heads += 1;
                }
            }
            bern_mean += heads as f64;
            bern_sq += (heads * heads) as f64;
        }
        bern_mean /= reps as f64;
        bern_sq /= reps as f64;

        let mut geo_mean = 0.0f64;
        let mut geo_sq = 0.0f64;
        for _ in 0..reps {
            let mut pos = 0u64;
            let mut fires = 0u64;
            loop {
                pos += geometric(p, &mut rng);
                if pos > theta {
                    break;
                }
                fires += 1;
            }
            geo_mean += fires as f64;
            geo_sq += (fires * fires) as f64;
        }
        geo_mean /= reps as f64;
        geo_sq /= reps as f64;

        let expected_mean = theta as f64 * p;
        let expected_var = theta as f64 * p * (1.0 - p);
        for (mean, sq, label) in
            [(bern_mean, bern_sq, "bernoulli"), (geo_mean, geo_sq, "geometric")]
        {
            let var = sq - mean * mean;
            assert!(
                (mean - expected_mean).abs() < 0.02 * expected_mean,
                "{label} mean {mean} vs {expected_mean}"
            );
            assert!(
                (var - expected_var).abs() < 0.08 * expected_var,
                "{label} var {var} vs {expected_var}"
            );
        }
        assert!((bern_mean - geo_mean).abs() < 0.02 * expected_mean);
    }
}
