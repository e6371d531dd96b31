//! Vector kernels shared by the encoder and both frameworks.

/// Dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dot product unrolled into four independent accumulators, combined in
/// the fixed order `((s0+s1) + (s2+s3)) + tail`.
///
/// On the scoring hot path this breaks the serial dependency chain of the
/// naive fold (≈4× more instruction-level parallelism); the combine order
/// is part of the function's contract — every call site gets the same bits
/// for the same inputs, which the deterministic batch-scoring layer relies
/// on. Note the result intentionally differs in low-order bits from
/// [`dot`]: the two kernels are separate summation orders, not
/// interchangeable implementations.
// ultra-lint: hot
#[inline]
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

/// Cosine similarity; returns 0 for zero vectors instead of NaN so that
/// never-mentioned entities rank last rather than poisoning sorts.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// In-place l2 normalization; zero vectors are left untouched.
/// Returns the original norm.
pub fn l2_normalize(v: &mut [f32]) -> f32 {
    let n = dot(v, v).sqrt();
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
    n
}

/// Backward pass of l2 normalization.
///
/// Given the *normalized* output `y`, the pre-normalization norm `n`, and
/// the loss gradient w.r.t. `y`, returns the gradient w.r.t. the
/// unnormalized input: `(dy - y·(y·dy)) / n`.
pub fn l2_normalize_backward(y: &[f32], norm: f32, dy: &[f32]) -> Vec<f32> {
    if norm == 0.0 {
        return dy.to_vec();
    }
    let proj = dot(y, dy);
    y.iter()
        .zip(dy)
        .map(|(&yi, &di)| (di - yi * proj) / norm)
        .collect()
}

/// [`l2_normalize_backward`] into a caller-owned buffer — same math and
/// bits, no allocation. `dx.len()` must equal `y.len()`.
// ultra-lint: hot
pub fn l2_normalize_backward_into(y: &[f32], norm: f32, dy: &[f32], dx: &mut [f32]) {
    debug_assert_eq!(dx.len(), y.len());
    if norm == 0.0 {
        dx.copy_from_slice(dy);
        return;
    }
    let proj = dot(y, dy);
    for ((o, &yi), &di) in dx.iter_mut().zip(y).zip(dy) {
        *o = (di - yi * proj) / norm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_parallel_and_orthogonal_vectors() {
        assert!((cosine(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 3.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn dot_unrolled_matches_dot_closely_and_handles_tails() {
        for n in [0usize, 1, 3, 4, 5, 8, 17, 96, 100] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.71).cos()).collect();
            let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            let got = dot_unrolled(&a, &b);
            assert!((got as f64 - exact).abs() < 1e-4, "n={n}: {got} vs {exact}");
        }
    }

    #[test]
    fn dot_unrolled_is_deterministic_bit_for_bit() {
        let a: Vec<f32> = (0..103).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let b: Vec<f32> = (0..103).map(|i| (i as f32).sqrt()).collect();
        assert_eq!(
            dot_unrolled(&a, &b).to_bits(),
            dot_unrolled(&a, &b).to_bits()
        );
    }

    #[test]
    fn cosine_zero_vector_is_zero_not_nan() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn normalize_produces_unit_norm_and_returns_old_norm() {
        let mut v = vec![3.0, 4.0];
        let n = l2_normalize(&mut v);
        assert!((n - 5.0).abs() < 1e-6);
        assert!((dot(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_backward_matches_finite_differences() {
        let x = [0.8f32, -0.4, 1.3];
        let dy = [0.3f32, 0.9, -0.2];
        // Analytic gradient.
        let mut y = x.to_vec();
        let n = l2_normalize(&mut y);
        let dx = l2_normalize_backward(&y, n, &dy);
        // Finite differences on f(x) = dy · normalize(x).
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            xp[i] += eps;
            l2_normalize(&mut xp);
            let mut xm = x.to_vec();
            xm[i] -= eps;
            l2_normalize(&mut xm);
            let fd = (dot(&xp, &dy) - dot(&xm, &dy)) / (2.0 * eps);
            assert!(
                (fd - dx[i]).abs() < 1e-2,
                "component {i}: fd {fd} vs analytic {}",
                dx[i]
            );
        }
    }
}
