//! The split search's two fused passes over a node's rows.
//!
//! Each pass reads every row once and updates the accumulators of all
//! [`MAX_THRESHOLDS`] candidate thresholds; every accumulator still adds
//! its rows in row order, so the sums are the ones a threshold-by-threshold
//! loop would produce. Pass 1 adds `y` to one side and `+0.0` to the other:
//! the sums start at `+0.0` and so never become `-0.0`, which makes adding
//! `+0.0` an exact no-op.
//!
//! On x86_64 CPUs with AVX2 (checked at run time by
//! `is_x86_feature_detected!`, which caches the CPU's answer) the passes
//! run four thresholds per instruction, three registers for the twelve,
//! with the side chosen by a compare mask. Scalar code would do the same work with a branch per
//! threshold and row, and those branches are unpredictable. Every other
//! CPU runs the portable scalar version, and the tests hold the two to the
//! same bits (a NaN result only to NaN: Rust leaves the sign and payload
//! of NaN unspecified).

use super::MAX_THRESHOLDS;

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

/// Pass 1: left counts and both sides' target sums per threshold.
pub(super) fn side_sums(xs: &[f64], ys: &[f64], thresholds: &[f64; MAX_THRESHOLDS]) -> SideSums {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2::side_sums` is compiled with the `avx2` target
        // feature, and `is_x86_feature_detected!` just found it on this CPU.
        return unsafe { avx2::side_sums(xs, ys, thresholds) };
    }
    portable::side_sums(xs, ys, thresholds)
}

/// Pass 2: each threshold's sum of squared errors around its side means,
/// in row order.
pub(super) fn side_sse(
    xs: &[f64],
    ys: &[f64],
    thresholds: &[f64; MAX_THRESHOLDS],
    left_mean: &[f64; MAX_THRESHOLDS],
    right_mean: &[f64; MAX_THRESHOLDS],
) -> [f64; MAX_THRESHOLDS] {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: as in `side_sums`, `is_x86_feature_detected!` just found
        // the `avx2` feature that `avx2::side_sse` is compiled with.
        return unsafe { avx2::side_sse(xs, ys, thresholds, left_mean, right_mean) };
    }
    portable::side_sse(xs, ys, thresholds, left_mean, right_mean)
}

mod portable {
    use super::{SideSums, MAX_THRESHOLDS};

    // detlint::hot
    pub(super) fn side_sums(
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

    // detlint::hot
    pub(super) fn side_sse(
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
mod avx2 {
    use super::{SideSums, MAX_THRESHOLDS};
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_andnot_pd, _mm256_blendv_pd,
        _mm256_castpd256_pd128, _mm256_castpd_si256, _mm256_cmp_pd, _mm256_extract_epi64,
        _mm256_extractf128_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_set_pd, _mm256_setzero_pd,
        _mm256_setzero_si256, _mm256_sub_epi64, _mm256_sub_pd, _mm_cvtsd_f64, _mm_unpackhi_pd,
        _CMP_LE_OQ,
    };

    /// Threshold lanes per AVX2 register.
    const LANES: usize = 4;
    /// Registers for all thresholds.
    const QUADS: usize = MAX_THRESHOLDS / LANES;

    /// [`super::side_sums`] four lanes wide; callers must have detected
    /// AVX2.
    // detlint::hot
    #[target_feature(enable = "avx2")]
    pub(super) fn side_sums(
        xs: &[f64],
        ys: &[f64],
        thresholds: &[f64; MAX_THRESHOLDS],
    ) -> SideSums {
        let thresholds = pack(thresholds);
        let mut left = [_mm256_setzero_pd(); QUADS];
        let mut right = [_mm256_setzero_pd(); QUADS];
        let mut count = [_mm256_setzero_si256(); QUADS];
        for (&x, &y) in xs.iter().zip(ys) {
            let (x, y) = (_mm256_set1_pd(x), _mm256_set1_pd(y));
            for k in 0..QUADS {
                // All-ones lanes where `x <= threshold` (false on NaN, as
                // with `<=`); an all-ones lane is -1 as an integer.
                let le = _mm256_cmp_pd::<_CMP_LE_OQ>(x, thresholds[k]);
                left[k] = _mm256_add_pd(left[k], _mm256_and_pd(le, y));
                right[k] = _mm256_add_pd(right[k], _mm256_andnot_pd(le, y));
                count[k] = _mm256_sub_epi64(count[k], _mm256_castpd_si256(le));
            }
        }
        let mut left_n = [0; MAX_THRESHOLDS];
        for (lanes, &quad) in left_n.chunks_exact_mut(LANES).zip(&count) {
            lanes[0] = _mm256_extract_epi64::<0>(quad) as usize;
            lanes[1] = _mm256_extract_epi64::<1>(quad) as usize;
            lanes[2] = _mm256_extract_epi64::<2>(quad) as usize;
            lanes[3] = _mm256_extract_epi64::<3>(quad) as usize;
        }
        SideSums { left_n, left_sum: unpack(&left), right_sum: unpack(&right) }
    }

    /// [`super::side_sse`] four lanes wide; callers must have detected
    /// AVX2.
    // detlint::hot
    #[target_feature(enable = "avx2")]
    pub(super) fn side_sse(
        xs: &[f64],
        ys: &[f64],
        thresholds: &[f64; MAX_THRESHOLDS],
        left_mean: &[f64; MAX_THRESHOLDS],
        right_mean: &[f64; MAX_THRESHOLDS],
    ) -> [f64; MAX_THRESHOLDS] {
        let (thresholds, left_mean, right_mean) =
            (pack(thresholds), pack(left_mean), pack(right_mean));
        let mut sse = [_mm256_setzero_pd(); QUADS];
        for (&x, &y) in xs.iter().zip(ys) {
            let (x, y) = (_mm256_set1_pd(x), _mm256_set1_pd(y));
            for k in 0..QUADS {
                // The left mean where the mask lane is set, else the right.
                let le = _mm256_cmp_pd::<_CMP_LE_OQ>(x, thresholds[k]);
                let mean = _mm256_blendv_pd(right_mean[k], left_mean[k], le);
                let error = _mm256_sub_pd(y, mean);
                sse[k] = _mm256_add_pd(sse[k], _mm256_mul_pd(error, error));
            }
        }
        unpack(&sse)
    }

    #[target_feature(enable = "avx2")]
    fn pack(values: &[f64; MAX_THRESHOLDS]) -> [__m256d; QUADS] {
        let mut quads = [_mm256_setzero_pd(); QUADS];
        for (quad, v) in quads.iter_mut().zip(values.chunks_exact(LANES)) {
            *quad = _mm256_set_pd(v[3], v[2], v[1], v[0]);
        }
        quads
    }

    #[target_feature(enable = "avx2")]
    fn unpack(quads: &[__m256d; QUADS]) -> [f64; MAX_THRESHOLDS] {
        let mut values = [0.0; MAX_THRESHOLDS];
        for (lanes, &quad) in values.chunks_exact_mut(LANES).zip(quads) {
            let (low, high) = (_mm256_castpd256_pd128(quad), _mm256_extractf128_pd::<1>(quad));
            lanes[0] = _mm_cvtsd_f64(low);
            lanes[1] = _mm_cvtsd_f64(_mm_unpackhi_pd(low, low));
            lanes[2] = _mm_cvtsd_f64(high);
            lanes[3] = _mm_cvtsd_f64(_mm_unpackhi_pd(high, high));
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
    fn assert_same(got: &[f64; MAX_THRESHOLDS], want: &[f64; MAX_THRESHOLDS], case: &str) {
        for (g, w) in got.iter().zip(want) {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{case}: {got:?} vs {want:?}"
            );
        }
    }

    /// Both passes of `kernel` against the portable tier on 400 random
    /// cases of up to 60 rows, with NaN in about an eighth of the lanes.
    fn assert_matches_portable(
        name: &str,
        sums: impl Fn(&[f64], &[f64], &[f64; MAX_THRESHOLDS]) -> SideSums,
        sse: impl Fn(
            &[f64],
            &[f64],
            &[f64; MAX_THRESHOLDS],
            &[f64; MAX_THRESHOLDS],
            &[f64; MAX_THRESHOLDS],
        ) -> [f64; MAX_THRESHOLDS],
    ) {
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..400 {
            let n = rng.gen_range(0..60);
            let xs: Vec<f64> = (0..n).map(|_| value(&mut rng)).collect();
            let ys: Vec<f64> = (0..n).map(|_| value(&mut rng)).collect();
            let mut lane = || {
                if rng.gen_range(0..8) == 0 {
                    f64::NAN
                } else {
                    value(&mut rng)
                }
            };
            let thresholds: [f64; MAX_THRESHOLDS] = std::array::from_fn(|_| lane());
            let left_mean: [f64; MAX_THRESHOLDS] = std::array::from_fn(|_| lane());
            let right_mean: [f64; MAX_THRESHOLDS] = std::array::from_fn(|_| lane());

            let case = format!("{name} case {case}");
            let (got, want) =
                (sums(&xs, &ys, &thresholds), portable::side_sums(&xs, &ys, &thresholds));
            assert_eq!(got.left_n, want.left_n, "{case}");
            assert_same(&got.left_sum, &want.left_sum, &case);
            assert_same(&got.right_sum, &want.right_sum, &case);
            let got = sse(&xs, &ys, &thresholds, &left_mean, &right_mean);
            let want = portable::side_sse(&xs, &ys, &thresholds, &left_mean, &right_mean);
            assert_same(&got, &want, &case);
        }
    }

    /// The selected kernel, and each tier this host can run, give the
    /// portable tier's bits.
    #[test]
    fn selected_kernel_matches_the_portable_one_bit_for_bit() {
        assert_matches_portable("selected", side_sums, side_sse);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert_matches_portable(
                "avx2",
                // SAFETY: `is_x86_feature_detected!` just found AVX2.
                |xs, ys, t| unsafe { avx2::side_sums(xs, ys, t) },
                // SAFETY: as above, this host has AVX2.
                |xs, ys, t, l, r| unsafe { avx2::side_sse(xs, ys, t, l, r) },
            );
        } else {
            eprintln!("no AVX2 on this host: only the selected (portable) tier was checked");
        }
    }
}
