//! Dense row-major `f64` matrix used as the common numeric interchange type
//! between the tabular, ML, and VFL crates.
//!
//! The matrix is deliberately simple: a contiguous `Vec<f64>` with row-major
//! layout, plus the handful of operations the reproduction needs (row/column
//! selection, horizontal stacking, transpose, and matrix multiplication with
//! transposed variants for the neural-network backward pass).

use crate::error::{Result, TabularError};

/// Dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TabularError::ShapeMismatch {
                context: "Matrix::from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of equally sized rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(TabularError::LengthMismatch {
                    expected: cols,
                    got: r.len(),
                    column: format!("row {i}"),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Immutable view of the backing storage (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor. Panics on out-of-bounds access (debug-friendly; hot
    /// paths use `row()` slices instead).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter. Panics on out-of-bounds access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies column `c` into a freshly allocated vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        debug_assert!(c < self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Returns a new matrix containing only the given rows (in order).
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(indices, &mut out).map(|()| out)
    }

    /// Writes the given rows (in order) into `out`, reusing its storage.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) -> Result<()> {
        out.rows = 0;
        out.cols = self.cols;
        out.data.clear();
        for &i in indices {
            if i >= self.rows {
                return Err(TabularError::IndexOutOfBounds {
                    context: "Matrix::select_rows",
                    index: i,
                    len: self.rows,
                });
            }
            out.data.extend_from_slice(self.row(i));
            out.rows += 1;
        }
        Ok(())
    }

    /// Returns a new matrix containing only the given columns (in order).
    pub fn select_cols(&self, indices: &[usize]) -> Result<Matrix> {
        for &c in indices {
            if c >= self.cols {
                return Err(TabularError::IndexOutOfBounds {
                    context: "Matrix::select_cols",
                    index: c,
                    len: self.cols,
                });
            }
        }
        let mut data = Vec::with_capacity(indices.len() * self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for &c in indices {
                data.push(row[c]);
            }
        }
        Ok(Matrix {
            rows: self.rows,
            cols: indices.len(),
            data,
        })
    }

    /// Horizontally stacks matrices that share a row count.
    pub fn hstack(parts: &[&Matrix]) -> Result<Matrix> {
        if parts.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let rows = parts[0].rows;
        for p in parts {
            if p.rows != rows {
                return Err(TabularError::ShapeMismatch {
                    context: "Matrix::hstack",
                    lhs: (rows, parts[0].cols),
                    rhs: p.shape(),
                });
            }
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row(r));
            }
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Vertically stacks matrices that share a column count.
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix> {
        if parts.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = parts[0].cols;
        for p in parts {
            if p.cols != cols {
                return Err(TabularError::ShapeMismatch {
                    context: "Matrix::vstack",
                    lhs: (parts[0].rows, cols),
                    rhs: p.shape(),
                });
            }
        }
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Reshapes to `rows x cols` with every element `0.0`, reusing the
    /// storage when it is large enough.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into `out`, reusing its storage.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset_zeros(self.cols, self.rows);
        for (r, row) in self.iter_rows().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// `self * rhs` as a new matrix.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out).map(|()| out)
    }

    /// `out = self * rhs`, reusing `out`'s storage.
    ///
    /// Each `out[i][j]` starts at `0.0` and adds `self[i][k] * rhs[k][j]` in
    /// ascending `k`, skipping the `k` whose `self[i][k]` is zero. The
    /// accumulator can never be `-0.0`, so a skipped term (a `±0.0` product
    /// when `rhs` is finite) would not have changed it: the result equals the
    /// plain dot product bit for bit. The loops run row-axpy style (`k`
    /// outer, `j` inner) so the inner loop is a contiguous, vectorisable
    /// multiply-add over `rhs`'s row `k`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(TabularError::ShapeMismatch {
                context: "Matrix::matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.reset_zeros(self.rows, rhs.cols);
        for (a_row, out_row) in self
            .iter_rows()
            .zip(out.data.chunks_exact_mut(rhs.cols.max(1)))
        {
            for (&a, b_row) in a_row.iter().zip(rhs.iter_rows()) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Ok(())
    }

    /// `self^T * rhs` as a new matrix, without materialising the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.t_matmul_into(rhs, &mut out).map(|()| out)
    }

    /// `out = self^T * rhs`, reusing `out`'s storage. Each `out[i][j]` adds
    /// `self[r][i] * rhs[r][j]` in ascending `r`, skipping zero `self[r][i]`
    /// (exact for finite `rhs`, as in [`Matrix::matmul_into`]).
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows != rhs.rows {
            return Err(TabularError::ShapeMismatch {
                context: "Matrix::t_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.reset_zeros(self.cols, rhs.cols);
        for (a_row, b_row) in self.iter_rows().zip(rhs.iter_rows()) {
            for (&a, out_row) in a_row.iter().zip(out.data.chunks_exact_mut(rhs.cols.max(1))) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Ok(())
    }

    /// `self * rhs^T` as a new matrix (row axpys over a transient transpose;
    /// exact for finite `rhs`, as in [`Matrix::matmul_into`]).
    pub fn matmul_t(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul(&rhs.transpose())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds `rhs` element-wise in place.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TabularError::ShapeMismatch {
                context: "Matrix::add_assign",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        Ok(())
    }

    /// Scales every element in place.
    pub fn scale(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sum of every column, as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        self.col_sums_into(&mut sums);
        sums
    }

    /// Writes the sum of every column into `sums` (length `cols`).
    pub fn col_sums_into(&self, sums: &mut [f64]) {
        assert_eq!(sums.len(), self.cols, "Matrix::col_sums_into: length");
        sums.fill(0.0);
        for row in self.iter_rows() {
            for (s, v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
    }

    /// Mean of every column, as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        let mut sums = self.col_sums();
        let n = self.rows.max(1) as f64;
        for s in &mut sums {
            *s /= n;
        }
        sums
    }

    /// Frobenius norm, used for gradient sanity checks.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, data: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec()).unwrap()
    }

    #[test]
    fn zeros_has_right_shape() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = Matrix::zeros(2, 3);
        a.set(1, 2, 5.5);
        assert_eq!(a.get(1, 2), 5.5);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn row_and_col_extraction() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn select_rows_reorders() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.select_rows(&[2, 0]).unwrap();
        assert_eq!(b.row(0), &[5.0, 6.0]);
        assert_eq!(b.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn select_rows_out_of_bounds() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert!(a.select_rows(&[5]).is_err());
    }

    #[test]
    fn select_cols_picks_subset() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.select_cols(&[0, 2]).unwrap();
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.row(0), &[1.0, 3.0]);
        assert_eq!(b.row(1), &[4.0, 6.0]);
    }

    #[test]
    fn hstack_concatenates_columns() {
        let a = m(2, 1, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::hstack(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn hstack_rejects_row_mismatch() {
        let a = m(2, 1, &[1.0, 2.0]);
        let b = m(3, 1, &[1.0, 2.0, 3.0]);
        assert!(Matrix::hstack(&[&a, &b]).is_err());
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[0.5, 1.5, 2.5, 3.5, 4.5, 5.5]);
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 2.0, 0.5, 1.0, 1.5, 2.0, 2.0, 2.0, 3.0, 1.0, 0.0],
        );
        let fast = a.matmul_t(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn col_sums_and_means() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
        assert_eq!(a.col_means(), vec![2.0, 3.0]);
    }

    #[test]
    fn map_and_scale() {
        let mut a = m(1, 3, &[1.0, -2.0, 3.0]);
        a.map_inplace(f64::abs);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn add_assign_elementwise() {
        let mut a = m(1, 2, &[1.0, 2.0]);
        let b = m(1, 2, &[0.5, 0.5]);
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[1.5, 2.5]);
        let c = Matrix::zeros(2, 2);
        assert!(a.add_assign(&c).is_err());
    }

    /// Naive triple-loop reference: `out[i][j] = Σ_k a[i][k] * b[k][j]`,
    /// every term added in ascending `k` from `0.0`.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Naive `a^T * b`: `out[i][j] = Σ_r a[r][i] * b[r][j]` in ascending `r`.
    fn naive_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for r in 0..a.rows() {
                    acc += a.get(r, i) * b.get(r, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Naive `d * w^T` as a dot product per element — the layout of a
    /// linear layer's input gradient: `out[i][j] = Σ_k d[i][k] * w[j][k]`.
    fn naive_matmul_t(d: &Matrix, w: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(d.rows(), w.rows());
        for i in 0..d.rows() {
            for j in 0..w.rows() {
                let mut acc = 0.0;
                for k in 0..d.cols() {
                    acc += d.get(i, k) * w.get(j, k);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Seeded values with a heavy share of `0.0` and `-0.0` (ReLU outputs
    /// and their gradients are full of both).
    fn random(rows: usize, cols: usize, state: &mut u64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            *state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let bits = *state >> 11;
            data.push(match bits % 6 {
                0 => 0.0,
                1 => -0.0,
                _ => (bits as f64 / (1u64 << 53) as f64 - 0.5) * 8.0,
            });
        }
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {k}: {g} vs {w}");
        }
    }

    /// A reused output buffer: larger than any product below and full of
    /// garbage, so a kernel that forgets to reshape or zero it fails.
    fn dirty() -> Matrix {
        Matrix::filled(13, 17, f64::NAN)
    }

    const SHAPES: [(usize, usize, usize); 9] = [
        (0, 3, 4),
        (1, 1, 1),
        (1, 5, 3),
        (3, 0, 2),
        (4, 6, 0),
        (2, 7, 5),
        (5, 4, 9),
        (9, 16, 8),
        (7, 9, 1),
    ];

    #[test]
    fn matmul_into_is_bitwise_naive() {
        let mut state = 1;
        for (n, k, m) in SHAPES {
            let a = random(n, k, &mut state);
            let b = random(k, m, &mut state);
            let mut out = dirty();
            a.matmul_into(&b, &mut out).unwrap();
            assert_bits_eq(&out, &naive_matmul(&a, &b), "matmul_into");
            assert_bits_eq(&a.matmul(&b).unwrap(), &out, "matmul");
        }
    }

    #[test]
    fn t_matmul_into_is_bitwise_naive() {
        let mut state = 2;
        for (n, k, m) in SHAPES {
            let a = random(n, k, &mut state);
            let b = random(n, m, &mut state);
            let mut out = dirty();
            a.t_matmul_into(&b, &mut out).unwrap();
            assert_bits_eq(&out, &naive_t_matmul(&a, &b), "t_matmul_into");
            assert_bits_eq(&a.t_matmul(&b).unwrap(), &out, "t_matmul");
        }
    }

    #[test]
    fn transposed_axpys_are_bitwise_the_dot_product() {
        // The input-gradient path of a linear layer: d · Wᵀ as row axpys
        // over a transposed copy of W, held in a reused buffer.
        let mut state = 3;
        for (n, k, m) in SHAPES {
            let d = random(n, k, &mut state);
            let w = random(m, k, &mut state);
            let mut wt = dirty();
            w.transpose_into(&mut wt);
            assert_eq!(wt, w.transpose());
            let mut dx = dirty();
            d.matmul_into(&wt, &mut dx).unwrap();
            let want = naive_matmul_t(&d, &w);
            assert_bits_eq(&dx, &want, "d·Wᵀ");
            assert_bits_eq(&d.matmul_t(&w).unwrap(), &want, "matmul_t");
        }
    }

    #[test]
    fn negative_zero_terms_leave_a_positive_zero() {
        // Every product is -0.0: the plain dot product yields +0.0, and so
        // must the kernels that skip zero multipliers.
        let a = m(1, 2, &[-0.0, 0.0]);
        let b = m(2, 1, &[1.0, -1.0]);
        let want = naive_matmul(&a, &b);
        assert_eq!(want.get(0, 0).to_bits(), 0.0f64.to_bits());
        assert_bits_eq(&a.matmul(&b).unwrap(), &want, "matmul");
        assert_bits_eq(&a.transpose().t_matmul(&b).unwrap(), &want, "t_matmul");
        assert_bits_eq(&a.matmul_t(&b.transpose()).unwrap(), &want, "matmul_t");
    }

    #[test]
    fn reset_zeros_reuses_and_reshapes() {
        let mut a = dirty();
        a.reset_zeros(2, 3);
        assert_eq!(a, Matrix::zeros(2, 3));
        a.reset_zeros(0, 5);
        assert_eq!(a.shape(), (0, 5));
        assert!(a.as_slice().is_empty());
    }

    #[test]
    fn select_rows_into_overwrites_a_dirty_buffer() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = dirty();
        a.select_rows_into(&[2, 2, 0], &mut out).unwrap();
        assert_eq!(out, m(3, 2, &[5.0, 6.0, 5.0, 6.0, 1.0, 2.0]));
        assert!(a.select_rows_into(&[3], &mut out).is_err());
    }

    #[test]
    fn frobenius_norm_simple() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
