//! Dense row-major `f32` matrix with the handful of BLAS-like kernels the
//! autograd tape needs. Everything is CPU-only and single-threaded; the
//! matmul is written so LLVM autovectorizes the inner loop.

use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from an explicit row-major buffer. Panics if sizes disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            rows * cols,
            data.len(),
            "buffer length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// A 1x1 matrix holding a scalar.
    pub fn scalar(v: f32) -> Self {
        Matrix::from_vec(1, 1, vec![v])
    }

    /// A 1xN row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-element matrix.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The row-major backing buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the row-major backing buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, yielding its buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    /// Write element at `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// The value of a 1x1 matrix.
    pub fn item(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "item() on non-scalar {:?}",
            self.shape()
        );
        self.data[0]
    }

    /// `self @ other` — the classic ikj loop; the innermost loop is a
    /// contiguous axpy which LLVM turns into SIMD with `target-cpu=native`.
    /// A zero `self` element contributes nothing and is skipped.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        gemm(self, other, true)
    }

    /// `self^T @ other` without materializing the transpose: the pki loop,
    /// one `axpy` per nonzero `self[p][i]`. Each output element sums over
    /// `p` in ascending order with zero `self` elements skipped, exactly
    /// as `self.transpose().matmul(other)`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}^T @ {:?}",
            self.shape(),
            other.shape()
        );
        let (m, n) = (self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        if m > 0 && n > 0 {
            for (arow, brow) in self.data.chunks_exact(m).zip(other.data.chunks_exact(n)) {
                for (&av, orow) in arow.iter().zip(out.chunks_exact_mut(n)) {
                    if av != 0.0 {
                        axpy(orow, av, brow);
                    }
                }
            }
        }
        Matrix {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// `self @ other^T`. Each output element is the plain dot
    /// `((0 + a₀b₀) + a₁b₁) + …` in ascending `k`, with no zero skip, so
    /// a zero in `self` still meets a non-finite `other` element.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt shape mismatch: {:?} @ {:?}^T",
            self.shape(),
            other.shape()
        );
        gemm(self, &other.transpose(), false)
    }

    /// Materialized transpose. Fills the output row by row, so writes
    /// are contiguous and only the reads stride.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        if self.rows > 0 {
            for (c, orow) in out.data.chunks_exact_mut(self.rows).enumerate() {
                for (o, &v) in orow
                    .iter_mut()
                    .zip(self.data[c..].iter().step_by(self.cols))
                {
                    *o = v;
                }
            }
        }
        out
    }

    /// Elementwise `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += c * other`.
    pub fn add_scaled_assign(&mut self, other: &Matrix, c: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_assign shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += c * b;
        }
    }

    /// Elementwise `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, c: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * c).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Apply `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean norm of the whole buffer.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Row-wise softmax (numerically stable).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            softmax_in_place(out.row_mut(r));
        }
        out
    }

    /// Stack matrices vertically. All inputs must share the column count.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Stack matrices horizontally. All inputs must share the row count.
    pub fn hstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hstack of nothing");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts {
                assert_eq!(p.rows, rows, "hstack row mismatch");
                data.extend_from_slice(p.row(r));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Copy of rows `[start, start+len)`.
    pub fn slice_rows(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.rows, "slice_rows out of range");
        let data = self.data[start * self.cols..(start + len) * self.cols].to_vec();
        Matrix {
            rows: len,
            cols: self.cols,
            data,
        }
    }

    /// Copy of columns `[start, start+len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.cols, "slice_cols out of range");
        let mut data = Vec::with_capacity(self.rows * len);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[start..start + len]);
        }
        Matrix {
            rows: self.rows,
            cols: len,
            data,
        }
    }

    /// Gather rows by index (duplicates allowed).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &i in idx {
            assert!(
                i < self.rows,
                "gather_rows index {} out of {}",
                i,
                self.rows
            );
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: idx.len(),
            cols: self.cols,
            data,
        }
    }

    /// Mean over rows, producing a 1xC row vector.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for o in &mut out {
            *o *= inv;
        }
        Matrix {
            rows: 1,
            cols: self.cols,
            data: out,
        }
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// `out += a * b` elementwise: the inner loop of all three products.
///
/// One rounded multiply then one rounded add per element (rustc never
/// contracts them into an FMA). The loop is contiguous, so wide SIMD lanes
/// run the same IEEE-754 operations per element as a scalar loop.
#[inline(always)]
fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// `a @ b` for row-major `a (m×k)` and `b (k×n)`, the ikj loop behind
/// [`Matrix::matmul`] and [`Matrix::matmul_nt`]. Each output element
/// starts at `+0.0` and adds `a[i][p] * b[p][j]` for `p` in ascending
/// order; `skip_zero` leaves out the terms whose `a` element compares
/// equal to zero.
fn gemm(a: &Matrix, b: &Matrix, skip_zero: bool) -> Matrix {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(k, b.rows);
    let mut out = vec![0.0f32; m * n];
    if k > 0 && n > 0 {
        for (arow, orow) in a.data.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            for (&av, brow) in arow.iter().zip(b.data.chunks_exact(n)) {
                if !(skip_zero && av == 0.0) {
                    axpy(orow, av, brow);
                }
            }
        }
    }
    Matrix {
        rows: m,
        cols: n,
        data: out,
    }
}

/// Numerically stable in-place softmax over a slice.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Numerically stable log-sum-exp of a slice.
pub fn log_sum_exp(row: &[f32]) -> f32 {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    let s: f32 = row.iter().map(|v| (v - max).exp()).sum();
    max + s.ln()
}

/// Helpers for the bit-exact kernel tests of this crate.
#[cfg(test)]
pub(crate) mod bits {
    use super::Matrix;
    use rand::Rng;

    /// Bit equality, except that any NaN matches any NaN: Rust leaves NaN
    /// payloads unspecified. Every other value, the sign of zero
    /// included, must match exactly.
    pub(crate) fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            let same = (g.is_nan() && w.is_nan()) || g.to_bits() == w.to_bits();
            assert!(same, "{what}: element {i} is {g:?}, oracle {w:?}");
        }
    }

    /// Random values with about one element in eight replaced by ±0.0,
    /// NaN or ±inf when `special` is set.
    pub(crate) fn seeded(rows: usize, cols: usize, special: bool, rng: &mut impl Rng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            if special && rng.gen::<f32>() < 0.125 {
                [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..5usize)]
            } else {
                (rng.gen::<f32>() - 0.5) * 4.0
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::bits::{assert_same_bits, seeded};
    use rand::{Rng, SeedableRng};

    /// The ikj loop `matmul` ran before the shared kernel: the oracle.
    fn matmul_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a.data[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b.data[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        Matrix::from_vec(m, n, out)
    }

    /// The pki loop `matmul_tn` ran before the shared kernel: the oracle.
    fn matmul_tn_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.cols, a.rows, b.cols);
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let arow = &a.data[p * m..(p + 1) * m];
            let brow = &b.data[p * n..(p + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        Matrix::from_vec(m, n, out)
    }

    /// The serial dot `matmul_nt` ran before the shared kernel: the oracle.
    fn matmul_nt_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows, a.cols, b.rows);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a.data[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
        Matrix::from_vec(m, n, out)
    }

    #[test]
    fn products_match_the_previous_loops_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut shapes = vec![
            (40, 64, 64),
            (40, 16, 40),
            (40, 32, 48),
            (1, 3000, 64),
            (5, 2999, 17),
        ];
        for _ in 0..24 {
            shapes.push((
                rng.gen_range(1..9),
                rng.gen_range(1..70),
                rng.gen_range(1..40),
            ));
        }
        for (m, k, n) in shapes {
            for special in [false, true] {
                let what = format!("m{m} k{k} n{n} special={special}");
                let a = seeded(m, k, special, &mut rng);
                let b = seeded(k, n, special, &mut rng);
                assert_same_bits(
                    &a.matmul(&b),
                    &matmul_oracle(&a, &b),
                    &format!("matmul {what}"),
                );
                let at = seeded(k, m, special, &mut rng);
                assert_same_bits(
                    &at.matmul_tn(&b),
                    &matmul_tn_oracle(&at, &b),
                    &format!("matmul_tn {what}"),
                );
                let bt = seeded(n, k, special, &mut rng);
                assert_same_bits(
                    &a.matmul_nt(&bt),
                    &matmul_nt_oracle(&a, &bt),
                    &format!("matmul_nt {what}"),
                );
            }
        }
    }

    #[test]
    fn each_product_keeps_its_zero_skip_rule() {
        // A zero on the left meets an infinity on the right. `matmul` and
        // `matmul_tn` skip the term and stay finite; `matmul_nt` never
        // skipped, so 0 * inf = NaN reaches its output.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        assert_eq!(a.matmul(&b).data(), &[2.0]);
        assert_eq!(a.transpose().matmul_tn(&b).data(), &[2.0]);
        assert!(a.matmul_nt(&b.transpose()).data()[0].is_nan());
        // Zero-sized operands give zeros of the right shape.
        assert_eq!(
            Matrix::zeros(3, 0).matmul(&Matrix::zeros(0, 2)),
            Matrix::zeros(3, 2)
        );
        assert_eq!(
            Matrix::zeros(0, 3).matmul_tn(&Matrix::zeros(0, 2)),
            Matrix::zeros(3, 2)
        );
        assert_eq!(
            Matrix::zeros(2, 4).matmul_nt(&Matrix::zeros(0, 4)),
            Matrix::zeros(2, 0)
        );
    }

    #[test]
    fn matmul_matches_by_hand() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.25);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(5, 3, |r, c| (r + 2 * c) as f32 * 0.25);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let total: f32 = s.row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_values() {
        let a = Matrix::from_vec(1, 3, vec![1000., 1000., 1000.]);
        let s = a.softmax_rows();
        for &v in s.data() {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn stack_and_slice_roundtrip() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let b = Matrix::from_fn(1, 3, |_, c| 100.0 + c as f32);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.slice_rows(0, 2), a);
        assert_eq!(v.slice_rows(2, 1), b);

        let c = Matrix::from_fn(2, 2, |r, _| r as f32);
        let h = Matrix::hstack(&[&a, &c]);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h.slice_cols(0, 3), a);
        assert_eq!(h.slice_cols(3, 2), c);
    }

    #[test]
    fn gather_rows_duplicates() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), a.row(2));
        assert_eq!(g.row(1), a.row(0));
        assert_eq!(g.row(2), a.row(2));
    }

    #[test]
    fn mean_rows_is_columnwise_mean() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let m = a.mean_rows();
        assert_eq!(m.data(), &[2., 3.]);
    }

    #[test]
    fn log_sum_exp_stable() {
        let v = [1000.0f32, 1000.0, 1000.0];
        let lse = log_sum_exp(&v);
        assert!((lse - (1000.0 + 3.0f32.ln())).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
