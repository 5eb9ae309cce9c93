//! The split search's two fused passes over a node's rows.
//!
//! Each pass reads every row once and updates the accumulators of all
//! [`MAX_THRESHOLDS`] candidate thresholds; every accumulator still adds
//! its rows in row order, so the sums are the ones a threshold-by-threshold
//! loop would produce. Pass 1 adds `y` to one side and `+0.0` to the other:
//! the sums start at `+0.0` and so never become `-0.0`, which makes adding
//! `+0.0` an exact no-op.
//!
//! On x86_64 the passes run two thresholds per SSE2 instruction, with the
//! side chosen by a compare mask. Scalar code would do the same work with a
//! branch per threshold and row, and those branches are unpredictable. The
//! portable scalar version serves other targets, and the tests hold the two
//! to the same bits (a NaN result only to NaN: Rust leaves the sign and
//! payload of NaN unspecified).

use super::MAX_THRESHOLDS;

#[cfg(not(target_arch = "x86_64"))]
pub(super) use portable::{side_sse, side_sums};
#[cfg(target_arch = "x86_64")]
pub(super) use sse2::{side_sse, side_sums};

/// Pass 1's per-threshold totals.
#[derive(Debug)]
pub(super) struct SideSums {
    /// Rows with `x <= threshold`.
    pub(super) left_n: [usize; MAX_THRESHOLDS],
    /// Sum of `y` over those rows, in row order.
    pub(super) left_sum: [f64; MAX_THRESHOLDS],
    /// Sum of `y` over the other rows, in row order.
    pub(super) right_sum: [f64; MAX_THRESHOLDS],
}

#[cfg(any(test, not(target_arch = "x86_64")))]
mod portable {
    use super::{SideSums, MAX_THRESHOLDS};

    /// Pass 1: left counts and both sides' target sums per threshold.
    // detlint::hot
    pub(in crate::forest) fn side_sums(
        xs: &[f64],
        ys: &[f64],
        thresholds: &[f64; MAX_THRESHOLDS],
    ) -> SideSums {
        let mut sums = SideSums {
            left_n: [0; MAX_THRESHOLDS],
            left_sum: [0.0; MAX_THRESHOLDS],
            right_sum: [0.0; MAX_THRESHOLDS],
        };
        for (&x, &y) in xs.iter().zip(ys) {
            for (t, &threshold) in thresholds.iter().enumerate() {
                let le = x <= threshold;
                sums.left_n[t] += usize::from(le);
                sums.left_sum[t] += if le { y } else { 0.0 };
                sums.right_sum[t] += if le { 0.0 } else { y };
            }
        }
        sums
    }

    /// Pass 2: each threshold's sum of squared errors around its side
    /// means, in row order.
    // detlint::hot
    pub(in crate::forest) fn side_sse(
        xs: &[f64],
        ys: &[f64],
        thresholds: &[f64; MAX_THRESHOLDS],
        left_mean: &[f64; MAX_THRESHOLDS],
        right_mean: &[f64; MAX_THRESHOLDS],
    ) -> [f64; MAX_THRESHOLDS] {
        let mut sse = [0.0; MAX_THRESHOLDS];
        for (&x, &y) in xs.iter().zip(ys) {
            for (t, &threshold) in thresholds.iter().enumerate() {
                let mean = if x <= threshold { left_mean[t] } else { right_mean[t] };
                sse[t] += (y - mean) * (y - mean);
            }
        }
        sse
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{SideSums, MAX_THRESHOLDS};
    use std::arch::x86_64::{
        __m128d, _mm_add_pd, _mm_and_pd, _mm_andnot_pd, _mm_castpd_si128, _mm_cmple_pd,
        _mm_cvtsd_f64, _mm_cvtsi128_si64, _mm_mul_pd, _mm_or_pd, _mm_set1_pd, _mm_set_pd,
        _mm_setzero_pd, _mm_setzero_si128, _mm_sub_epi64, _mm_sub_pd, _mm_unpackhi_epi64,
        _mm_unpackhi_pd,
    };

    /// Threshold lanes per SSE2 register.
    const PAIRS: usize = MAX_THRESHOLDS / 2;

    /// Pass 1: left counts and both sides' target sums per threshold.
    pub(in crate::forest) fn side_sums(
        xs: &[f64],
        ys: &[f64],
        thresholds: &[f64; MAX_THRESHOLDS],
    ) -> SideSums {
        // SAFETY: SSE2 is part of the x86_64 baseline, so the target
        // feature `sums` is compiled with is present on every CPU this
        // code can run on.
        unsafe { sums(xs, ys, thresholds) }
    }

    /// Pass 2: each threshold's sum of squared errors around its side
    /// means, in row order.
    pub(in crate::forest) fn side_sse(
        xs: &[f64],
        ys: &[f64],
        thresholds: &[f64; MAX_THRESHOLDS],
        left_mean: &[f64; MAX_THRESHOLDS],
        right_mean: &[f64; MAX_THRESHOLDS],
    ) -> [f64; MAX_THRESHOLDS] {
        // SAFETY: as in `side_sums`, SSE2 is always present on x86_64.
        unsafe { sse(xs, ys, thresholds, left_mean, right_mean) }
    }

    // detlint::hot
    #[target_feature(enable = "sse2")]
    fn sums(xs: &[f64], ys: &[f64], thresholds: &[f64; MAX_THRESHOLDS]) -> SideSums {
        let thresholds = pack(thresholds);
        let mut left = [_mm_setzero_pd(); PAIRS];
        let mut right = [_mm_setzero_pd(); PAIRS];
        let mut count = [_mm_setzero_si128(); PAIRS];
        for (&x, &y) in xs.iter().zip(ys) {
            let (x, y) = (_mm_set1_pd(x), _mm_set1_pd(y));
            for k in 0..PAIRS {
                // All-ones lanes where `x <= threshold` (false on NaN, as
                // with `<=`); an all-ones lane is -1 as an integer.
                let le = _mm_cmple_pd(x, thresholds[k]);
                left[k] = _mm_add_pd(left[k], _mm_and_pd(le, y));
                right[k] = _mm_add_pd(right[k], _mm_andnot_pd(le, y));
                count[k] = _mm_sub_epi64(count[k], _mm_castpd_si128(le));
            }
        }
        let mut left_n = [0; MAX_THRESHOLDS];
        for (k, &pair) in count.iter().enumerate() {
            left_n[2 * k] = _mm_cvtsi128_si64(pair) as usize;
            left_n[2 * k + 1] = _mm_cvtsi128_si64(_mm_unpackhi_epi64(pair, pair)) as usize;
        }
        SideSums { left_n, left_sum: unpack(&left), right_sum: unpack(&right) }
    }

    // detlint::hot
    #[target_feature(enable = "sse2")]
    fn sse(
        xs: &[f64],
        ys: &[f64],
        thresholds: &[f64; MAX_THRESHOLDS],
        left_mean: &[f64; MAX_THRESHOLDS],
        right_mean: &[f64; MAX_THRESHOLDS],
    ) -> [f64; MAX_THRESHOLDS] {
        let (thresholds, left_mean, right_mean) =
            (pack(thresholds), pack(left_mean), pack(right_mean));
        let mut sse = [_mm_setzero_pd(); PAIRS];
        for (&x, &y) in xs.iter().zip(ys) {
            let (x, y) = (_mm_set1_pd(x), _mm_set1_pd(y));
            for k in 0..PAIRS {
                let le = _mm_cmple_pd(x, thresholds[k]);
                let mean =
                    _mm_or_pd(_mm_and_pd(le, left_mean[k]), _mm_andnot_pd(le, right_mean[k]));
                let error = _mm_sub_pd(y, mean);
                sse[k] = _mm_add_pd(sse[k], _mm_mul_pd(error, error));
            }
        }
        unpack(&sse)
    }

    #[target_feature(enable = "sse2")]
    fn pack(values: &[f64; MAX_THRESHOLDS]) -> [__m128d; PAIRS] {
        let mut pairs = [_mm_setzero_pd(); PAIRS];
        for (k, pair) in pairs.iter_mut().enumerate() {
            *pair = _mm_set_pd(values[2 * k + 1], values[2 * k]);
        }
        pairs
    }

    #[target_feature(enable = "sse2")]
    fn unpack(pairs: &[__m128d; PAIRS]) -> [f64; MAX_THRESHOLDS] {
        let mut values = [0.0; MAX_THRESHOLDS];
        for (k, &pair) in pairs.iter().enumerate() {
            values[2 * k] = _mm_cvtsd_f64(pair);
            values[2 * k + 1] = _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A value drawn mostly from a few repeats, with signed zeros,
    /// infinities and NaN mixed in.
    fn value(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..12) {
            0 => -0.0,
            1 => 0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5..=7 => [0.25, 0.5, 0.75][rng.gen_range(0..3)],
            _ => rng.gen_range(-2.0..2.0),
        }
    }

    /// Equal bits, or both NaN: Rust leaves the sign and payload of a NaN
    /// result unspecified, so only NaN-ness is comparable across codegen.
    fn assert_same(got: &[f64; MAX_THRESHOLDS], want: &[f64; MAX_THRESHOLDS], case: usize) {
        for (g, w) in got.iter().zip(want) {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "case {case}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn selected_kernel_matches_the_portable_one_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..400 {
            let n = rng.gen_range(0..60);
            let xs: Vec<f64> = (0..n).map(|_| value(&mut rng)).collect();
            let ys: Vec<f64> = (0..n).map(|_| value(&mut rng)).collect();
            let mut lane = || if rng.gen_range(0..8) == 0 { f64::NAN } else { value(&mut rng) };
            let thresholds: [f64; MAX_THRESHOLDS] = std::array::from_fn(|_| lane());
            let left_mean: [f64; MAX_THRESHOLDS] = std::array::from_fn(|_| lane());
            let right_mean: [f64; MAX_THRESHOLDS] = std::array::from_fn(|_| lane());

            let (got, want) =
                (side_sums(&xs, &ys, &thresholds), portable::side_sums(&xs, &ys, &thresholds));
            assert_eq!(got.left_n, want.left_n, "case {case}");
            assert_same(&got.left_sum, &want.left_sum, case);
            assert_same(&got.right_sum, &want.right_sum, case);
            let got = side_sse(&xs, &ys, &thresholds, &left_mean, &right_mean);
            let want = portable::side_sse(&xs, &ys, &thresholds, &left_mean, &right_mean);
            assert_same(&got, &want, case);
        }
    }
}
