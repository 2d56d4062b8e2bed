use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use cbmf_trace::Counter;
use serde::{Deserialize, Serialize};

use crate::error::LinalgError;
use crate::vecops;

/// Multiply-add pairs executed by the dense product kernels (`matmul`,
/// `t_matmul`, `matmul_t`, `gram`/`weighted_gram`); one unit = one fused
/// multiply + add, so ~2 flops in the usual convention.
static PRODUCT_MACS: Counter = Counter::new("linalg.product_macs");
/// `f64` elements read or written by the product kernels, assuming each
/// operand is streamed once (cache reuse makes the true traffic lower).
static PRODUCT_F64S: Counter = Counter::new("linalg.product_f64s");

/// Flop budget below which a matrix product is not worth a fork-join; at
/// ~1 ns/flop sequential, 128k flops ≈ 100 µs of work per chunk. Measured on
/// a 2-vCPU host, a two-chunk fork-join costs 10–12 µs of CPU when a
/// parked pool worker takes a 50 µs chunk (wake, hand-off and park; 1.6 µs
/// when the caller runs both chunks before the worker wakes), against
/// 73–82 µs for the per-call scoped-thread spawns it replaced.
const MIN_PAR_FLOPS: usize = 128 * 1024;

/// Minimum output rows per worker chunk for a product whose per-row cost is
/// `row_flops`; [`cbmf_parallel::par_rows_mut`] runs sequentially below twice
/// this, so small test-sized matrices never pay thread overhead.
pub(crate) fn grain_rows(row_flops: usize) -> usize {
    (MIN_PAR_FLOPS / row_flops.max(1)).max(1)
}

/// A dense, row-major `f64` matrix.
///
/// This is the workhorse type of the crate: it stores its elements in a
/// single contiguous `Vec<f64>` in row-major order so that row slices can be
/// handed out as `&[f64]` for tight inner loops.
///
/// # Examples
///
/// ```
/// use cbmf_linalg::Matrix;
///
/// # fn main() -> Result<(), cbmf_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
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

    /// Creates a `rows x cols` matrix with every element set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidInput {
                what: format!("data length {} does not match {rows}x{cols}", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `rows` is empty or the rows
    /// have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidInput {
                what: "cannot build a matrix from zero rows".to_string(),
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidInput {
                    what: format!("row {i} has length {}, expected {cols}", r.len()),
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

    /// Creates a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Copies the main diagonal into a new vector.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).collect()
    }

    /// Sum of the diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_impl(rhs, &mut out);
        Ok(out)
    }

    /// Matrix–matrix product `self * rhs` written into a preallocated `out`
    /// (fully overwritten). With a warm [`crate::block`] workspace pool the
    /// blocked path performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`
    /// or `out` is not `self.rows() x rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_into",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_into(out)",
                lhs: (self.rows, rhs.cols),
                rhs: out.shape(),
            });
        }
        out.data.fill(0.0);
        self.matmul_impl(rhs, out);
        Ok(())
    }

    /// Shared `matmul` body; `out` must be the right shape and zeroed.
    fn matmul_impl(&self, rhs: &Matrix, out: &mut Matrix) {
        let macs = self.rows * self.cols * rhs.cols;
        PRODUCT_MACS.add(macs as u64);
        PRODUCT_F64S.add((self.data.len() + rhs.data.len() + out.data.len()) as u64);
        let p = rhs.cols;
        if crate::block::wants_blocking(macs) {
            crate::block::gemm(
                &mut out.data,
                self.rows,
                p,
                &crate::block::View::normal(&self.data, self.rows, self.cols),
                &crate::block::View::normal(&rhs.data, rhs.rows, p),
            );
            return;
        }
        // ikj loop order: the innermost loop walks contiguous rows of `rhs`
        // and `out`, which is dramatically faster than the naive ijk order.
        // Output rows are independent, so they are computed in parallel row
        // chunks; each row accumulates in the same k order as the sequential
        // loop, keeping results bitwise identical at any thread count.
        cbmf_parallel::par_rows_mut(&mut out.data, p, grain_rows(self.cols * p), |i0, chunk| {
            for (li, out_row) in chunk.chunks_mut(p).enumerate() {
                let i = i0 + li;
                let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                for (k, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &rhs.data[k * p..(k + 1) * p];
                    vecops::axpy(aik, b_row, out_row);
                }
            }
        });
    }

    /// Product `selfᵀ * rhs` without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() != rhs.rows()`.
    pub fn t_matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let macs = self.rows * self.cols * rhs.cols;
        PRODUCT_MACS.add(macs as u64);
        PRODUCT_F64S.add((self.data.len() + rhs.data.len() + out.data.len()) as u64);
        let p = rhs.cols;
        if crate::block::wants_blocking(macs) {
            crate::block::gemm(
                &mut out.data,
                self.cols,
                p,
                &crate::block::View::transposed(&self.data, self.rows, self.cols),
                &crate::block::View::normal(&rhs.data, rhs.rows, p),
            );
            return Ok(out);
        }
        // Partition the *output* rows (columns of self): each worker streams
        // all of `rhs` once and scatters into its own disjoint row chunk.
        // Every output row still accumulates in ascending k, so the result is
        // bitwise identical to the sequential k-outer loop.
        cbmf_parallel::par_rows_mut(&mut out.data, p, grain_rows(self.rows * p), |i0, chunk| {
            let chunk_rows = chunk.len() / p;
            for k in 0..self.rows {
                let a_seg = &self.data[k * self.cols + i0..k * self.cols + i0 + chunk_rows];
                let b_row = &rhs.data[k * p..(k + 1) * p];
                for (li, &aki) in a_seg.iter().enumerate() {
                    if aki == 0.0 {
                        continue;
                    }
                    vecops::axpy(aki, b_row, &mut chunk[li * p..(li + 1) * p]);
                }
            }
        });
        Ok(out)
    }

    /// Product `self * rhsᵀ` without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_t_impl(rhs, &mut out);
        Ok(out)
    }

    /// Product `self * rhsᵀ` written into a preallocated `out` (fully
    /// overwritten). With a warm [`crate::block`] workspace pool the blocked
    /// path performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.cols()`
    /// or `out` is not `self.rows() x rhs.rows()`.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t_into",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.rows) {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t_into(out)",
                lhs: (self.rows, rhs.rows),
                rhs: out.shape(),
            });
        }
        out.data.fill(0.0);
        self.matmul_t_impl(rhs, out);
        Ok(())
    }

    /// Shared `matmul_t` body; `out` must be the right shape and zeroed.
    fn matmul_t_impl(&self, rhs: &Matrix, out: &mut Matrix) {
        let macs = self.rows * self.cols * rhs.rows;
        PRODUCT_MACS.add(macs as u64);
        PRODUCT_F64S.add((self.data.len() + rhs.data.len() + out.data.len()) as u64);
        let p = rhs.rows;
        if crate::block::wants_blocking(macs) {
            crate::block::gemm(
                &mut out.data,
                self.rows,
                p,
                &crate::block::View::normal(&self.data, self.rows, self.cols),
                &crate::block::View::transposed(&rhs.data, p, rhs.cols),
            );
            return;
        }
        // Four output entries per pass over a_row: the dot4 kernel reads each
        // a_row element once for four rhs rows instead of re-streaming it per
        // element, and output rows are computed in parallel chunks.
        cbmf_parallel::par_rows_mut(&mut out.data, p, grain_rows(self.cols * p), |i0, chunk| {
            for (li, out_row) in chunk.chunks_mut(p).enumerate() {
                let a_row = self.row(i0 + li);
                let mut j = 0;
                while j + 4 <= p {
                    let s = vecops::dot4(
                        a_row,
                        rhs.row(j),
                        rhs.row(j + 1),
                        rhs.row(j + 2),
                        rhs.row(j + 3),
                    );
                    out_row[j..j + 4].copy_from_slice(&s);
                    j += 4;
                }
                while j < p {
                    out_row[j] = vecops::dot(a_row, rhs.row(j));
                    j += 1;
                }
            }
        });
    }

    /// Symmetric product `self * selfᵀ` (a syrk-style Gram kernel).
    ///
    /// Computes only the lower triangle — entry `(i, j)` for `j ≤ i` is the
    /// dot of rows `i` and `j` — and mirrors it, roughly halving the work of
    /// `self.matmul_t(&self)` while guaranteeing exact symmetry with no
    /// follow-up `symmetrized()` pass.
    pub fn gram(&self) -> Matrix {
        self.gram_with(None)
    }

    /// Weighted symmetric product `self * diag(w) * selfᵀ`.
    ///
    /// This is the diagonal `B Λ Bᵀ` block of the C-BMF observation
    /// covariance computed without materializing `B Λ` or the upper triangle.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `w.len() != self.cols()`.
    pub fn weighted_gram(&self, w: &[f64]) -> Result<Matrix, LinalgError> {
        if w.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "weighted_gram",
                lhs: self.shape(),
                rhs: (w.len(), 1),
            });
        }
        Ok(self.gram_with(Some(w)))
    }

    /// Symmetric product `self * selfᵀ` written into a preallocated `out`
    /// (fully overwritten). With a warm [`crate::block`] workspace pool the
    /// blocked path performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `out` is not
    /// `self.rows() x self.rows()`.
    pub fn gram_into(&self, out: &mut Matrix) -> Result<(), LinalgError> {
        if out.shape() != (self.rows, self.rows) {
            return Err(LinalgError::ShapeMismatch {
                op: "gram_into(out)",
                lhs: (self.rows, self.rows),
                rhs: out.shape(),
            });
        }
        out.data.fill(0.0);
        self.gram_impl(None, out);
        Ok(())
    }

    /// Column `j` of [`Matrix::gram`] written into `out` (fully
    /// overwritten), at `O(rows·cols)` cost instead of the full product's
    /// `O(rows²·cols)`.
    ///
    /// Every entry is bitwise equal to `self.gram()[(i, j)]` at any size,
    /// ISA and thread count: the column takes the same kernel the full
    /// product would take for this matrix (the decision is made on the full
    /// product's MAC count) and reproduces that kernel's per-entry
    /// accumulation order. On the blocked path that is the packed FMA order
    /// of [`crate::block`]; on the streaming path it is `dot4` for the
    /// entries the full kernel batches four at a time and `dot` for the rest.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidInput`] if `j >= self.rows()`.
    /// * [`LinalgError::ShapeMismatch`] if `out.len() != self.rows()`.
    pub fn gram_col_into(&self, j: usize, out: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.rows;
        if j >= n {
            return Err(LinalgError::InvalidInput {
                what: format!("gram column {j} of a {n}-row matrix"),
            });
        }
        if out.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "gram_col_into(out)",
                lhs: (n, 1),
                rhs: (out.len(), 1),
            });
        }
        PRODUCT_MACS.add((n * self.cols) as u64);
        PRODUCT_F64S.add((self.data.len() + n) as u64);
        let row_j = self.row(j);
        if crate::block::wants_blocking(n * (n + 1) / 2 * self.cols) {
            // Entry (i, j) of the SYRK accumulates the products of rows i
            // and j slab by slab, exactly as this one-column GEMM does (the
            // mirrored upper entries only swap the factors of exact products).
            out.fill(0.0);
            crate::block::gemm(
                out,
                n,
                1,
                &crate::block::View::normal(&self.data, n, self.cols),
                &crate::block::View::transposed(row_j, 1, self.cols),
            );
            return Ok(());
        }
        // The streaming kernel computes lower entry (r, c), c ≤ r, in row r:
        // with `dot4` when c's group of four ends at or before the diagonal,
        // with `dot` otherwise. In column j that leaves `dot` for rows
        // g..g+3 of j's diagonal 4×4 block (g = j - j % 4) unless j is the
        // block's last row. Both kernels are symmetric in their operands.
        let dot4_rows = |out: &mut [f64], lo: usize, hi: usize| {
            for i0 in (lo..hi).step_by(4) {
                // A short final group repeats its last row; lanes are
                // independent, so the repeats change no kept lane.
                let row = |l: usize| self.row((i0 + l).min(hi - 1));
                let s = vecops::dot4(row_j, row(0), row(1), row(2), row(3));
                let len = (hi - i0).min(4);
                out[i0..i0 + len].copy_from_slice(&s[..len]);
            }
        };
        let g = j - j % 4;
        let dot_hi = if j % 4 == 3 { g } else { (g + 3).min(n) };
        dot4_rows(out, 0, g);
        for (i, o) in (g..dot_hi).zip(&mut out[g..dot_hi]) {
            *o = vecops::dot(row_j, self.row(i));
        }
        dot4_rows(out, dot_hi, n);
        Ok(())
    }

    /// Weighted symmetric product `self * diag(w) * selfᵀ` written into a
    /// preallocated `out` (fully overwritten).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `w.len() != self.cols()` or
    /// `out` is not `self.rows() x self.rows()`.
    pub fn weighted_gram_into(&self, w: &[f64], out: &mut Matrix) -> Result<(), LinalgError> {
        if w.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "weighted_gram_into",
                lhs: self.shape(),
                rhs: (w.len(), 1),
            });
        }
        if out.shape() != (self.rows, self.rows) {
            return Err(LinalgError::ShapeMismatch {
                op: "weighted_gram_into(out)",
                lhs: (self.rows, self.rows),
                rhs: out.shape(),
            });
        }
        out.data.fill(0.0);
        self.gram_impl(Some(w), out);
        Ok(())
    }

    fn gram_with(&self, w: Option<&[f64]>) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.rows);
        self.gram_impl(w, &mut out);
        out
    }

    /// Shared Gram body; `out` must be `rows x rows` and zeroed.
    fn gram_impl(&self, w: Option<&[f64]>, out: &mut Matrix) {
        let n = self.rows;
        // Lower triangle only: n(n+1)/2 dots of length `cols`, mirrored for
        // free (the mirror pass is counted as output traffic, not MACs).
        let macs = n * (n + 1) / 2 * self.cols;
        PRODUCT_MACS.add(macs as u64);
        PRODUCT_F64S.add((self.data.len() + out.data.len()) as u64);
        if crate::block::wants_blocking(macs) {
            crate::block::syrk(
                &mut out.data,
                n,
                &crate::block::View::normal(&self.data, n, self.cols),
                w,
            );
            return;
        }
        // With weights, row i is pre-scaled once into `scratch` and dotted
        // against the *unscaled* rows j ≤ i; dot(w ⊙ rᵢ, rⱼ) = rᵢᵀ diag(w) rⱼ.
        let scratch_proto = w.map(|_| vec![0.0; self.cols]);
        // Lower-triangle rows grow linearly in cost, so halve the flops
        // estimate when sizing chunks.
        let grain = grain_rows(self.cols * n / 2);
        cbmf_parallel::par_rows_mut(&mut out.data, n, grain, |i0, chunk| {
            let mut scratch = scratch_proto.clone();
            for (li, out_row) in chunk.chunks_mut(n).enumerate() {
                let i = i0 + li;
                let a_row = match (&mut scratch, w) {
                    (Some(buf), Some(w)) => {
                        for ((b, &r), &wi) in buf.iter_mut().zip(self.row(i)).zip(w) {
                            *b = r * wi;
                        }
                        buf.as_slice()
                    }
                    _ => self.row(i),
                };
                let mut j = 0;
                while j + 4 <= i + 1 {
                    let s = vecops::dot4(
                        a_row,
                        self.row(j),
                        self.row(j + 1),
                        self.row(j + 2),
                        self.row(j + 3),
                    );
                    out_row[j..j + 4].copy_from_slice(&s);
                    j += 4;
                }
                while j <= i {
                    out_row[j] = vecops::dot(a_row, self.row(j));
                    j += 1;
                }
            }
        });
        for i in 0..n {
            for j in i + 1..n {
                out.data[i * n + j] = out.data[j * n + i];
            }
        }
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| vecops::dot(self.row(i), v))
            .collect())
    }

    /// Transposed matrix–vector product `selfᵀ * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() != v.len()`.
    pub fn t_matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.rows != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            vecops::axpy(vi, self.row(i), &mut out);
        }
        Ok(out)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns a copy with every element multiplied by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "hadamard",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Copies the rectangular block with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or inverted.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "bad row range {r0}..{r1}");
        assert!(c0 <= c1 && c1 <= self.cols, "bad col range {c0}..{c1}");
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            out.row_mut(i - r0).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Writes `block` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(r0 + block.rows <= self.rows, "block rows do not fit");
        assert!(c0 + block.cols <= self.cols, "block cols do not fit");
        for i in 0..block.rows {
            let dst = i + r0;
            self.row_mut(dst)[c0..c0 + block.cols].copy_from_slice(block.row(i));
        }
    }

    /// Builds a new matrix keeping only the listed columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (jj, &j) in indices.iter().enumerate() {
                assert!(j < self.cols, "col index {j} out of bounds");
                dst[jj] = src[j];
            }
        }
        out
    }

    /// Returns `(self + selfᵀ) / 2`, forcing exact symmetry.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrized(&self) -> Matrix {
        assert!(self.is_square(), "symmetrized requires a square matrix");
        let n = self.rows;
        let mut out = self.clone();
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (self.data[i * n + j] + self.data[j * n + i]);
                out.data[i * n + j] = avg;
                out.data[j * n + i] = avg;
            }
        }
        out
    }

    /// Maximum absolute element (∞-entrywise norm). Zero for empty matrices.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        vecops::norm2(&self.data)
    }

    /// Adds `value` to every diagonal entry in place.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diag_mut(&mut self, value: f64) {
        assert!(self.is_square(), "add_diag_mut requires a square matrix");
        let n = self.rows;
        for i in 0..n {
            self.data[i * n + i] += value;
        }
    }

    /// True if all elements are finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4e}", self[(i, j)])?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abcd() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn constructors_agree() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a, abcd());
        let b = Matrix::from_fn(2, 2, |i, j| (i * 2 + j + 1) as f64);
        assert_eq!(b, abcd());
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0]),
            Err(LinalgError::InvalidInput { .. })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let r0: &[f64] = &[1.0, 2.0];
        let r1: &[f64] = &[3.0];
        assert!(Matrix::from_rows(&[r0, r1]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn identity_and_diag() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3.trace(), 3.0);
        assert_eq!(i3.diag(), vec![1.0, 1.0, 1.0]);
        let d = Matrix::from_diag(&[2.0, 5.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 1)], 5.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = abcd();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = abcd();
        let b = Matrix::zeros(3, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn transpose_products_match_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-1.0, 2.0]]).unwrap();
        let t1 = a.t_matmul(&b).unwrap();
        let t2 = a.transpose().matmul(&b).unwrap();
        assert!((&t1 - &t2).max_abs() < 1e-14);

        let c = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 1.0, -1.0]]).unwrap();
        let u1 = a.matmul_t(&c).unwrap();
        let u2 = a.matmul(&c.transpose()).unwrap();
        assert!((&u1 - &u2).max_abs() < 1e-14);
    }

    #[test]
    fn gram_matches_matmul_t_and_is_symmetric() {
        // 37 rows: exercises the dot4 block, the scalar tail, and (with
        // enough threads) the parallel chunking.
        let a = Matrix::from_fn(37, 19, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let g = a.gram();
        let reference = a.matmul_t(&a).unwrap();
        assert!((&g - &reference).max_abs() < 1e-12);
        for i in 0..g.rows() {
            for j in 0..g.rows() {
                assert_eq!(g[(i, j)].to_bits(), g[(j, i)].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn weighted_gram_matches_explicit_scaling() {
        let a = Matrix::from_fn(23, 9, |i, j| ((i * 5 + j) % 7) as f64 * 0.5 - 1.0);
        let w: Vec<f64> = (0..9).map(|j| 0.1 + j as f64 * 0.3).collect();
        let g = a.weighted_gram(&w).unwrap();
        let mut scaled = a.clone();
        for i in 0..scaled.rows() {
            for j in 0..scaled.cols() {
                scaled[(i, j)] *= w[j];
            }
        }
        let reference = scaled.matmul_t(&a).unwrap();
        assert!((&g - &reference).max_abs() < 1e-12);
        assert!(a.weighted_gram(&w[..3]).is_err());
    }

    #[test]
    fn products_are_identical_across_thread_counts() {
        // Large enough to cross the parallel gate; the row-chunked kernels
        // must reproduce the single-thread result bit for bit.
        let a = Matrix::from_fn(70, 90, |i, j| ((i * 13 + j * 29) % 17) as f64 / 17.0 - 0.4);
        let b = Matrix::from_fn(90, 70, |i, j| ((i * 11 + j * 5) % 13) as f64 / 13.0);
        let serial = cbmf_parallel::with_threads(1, || {
            (
                a.matmul(&b).unwrap(),
                a.t_matmul(&a.matmul(&b).unwrap().transpose()).unwrap(),
                a.matmul_t(&b.transpose()).unwrap(),
                a.gram(),
            )
        });
        let parallel = cbmf_parallel::with_threads(8, || {
            (
                a.matmul(&b).unwrap(),
                a.t_matmul(&a.matmul(&b).unwrap().transpose()).unwrap(),
                a.matmul_t(&b.transpose()).unwrap(),
                a.gram(),
            )
        });
        for (s, p) in [
            (&serial.0, &parallel.0),
            (&serial.1, &parallel.1),
            (&serial.2, &parallel.2),
            (&serial.3, &parallel.3),
        ] {
            assert_eq!(s.shape(), p.shape());
            for (x, y) in s.data.iter().zip(&p.data) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn matvec_and_t_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let v = [1.0, 1.0, 1.0];
        assert_eq!(a.matvec(&v).unwrap(), vec![6.0, 15.0]);
        let w = [1.0, 2.0];
        assert_eq!(a.t_matvec(&w).unwrap(), vec![9.0, 12.0, 15.0]);
        assert!(a.matvec(&w).is_err());
        assert!(a.t_matvec(&v).is_err());
    }

    #[test]
    fn block_and_set_block_round_trip() {
        let a = Matrix::from_fn(4, 5, |i, j| (i * 5 + j) as f64);
        let b = a.block(1, 3, 2, 5);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b[(0, 0)], a[(1, 2)]);
        let mut c = Matrix::zeros(4, 5);
        c.set_block(1, 2, &b);
        assert_eq!(c[(1, 2)], a[(1, 2)]);
        assert_eq!(c[(2, 4)], a[(2, 4)]);
        assert_eq!(c[(0, 0)], 0.0);
    }

    #[test]
    fn select_cols_picks_in_order() {
        let a = Matrix::from_fn(2, 4, |i, j| (i * 4 + j) as f64);
        let s = a.select_cols(&[3, 0]);
        assert_eq!(s.row(0), &[3.0, 0.0]);
        assert_eq!(s.row(1), &[7.0, 4.0]);
    }

    #[test]
    fn symmetrized_is_symmetric() {
        let a = abcd();
        let s = a.symmetrized();
        assert_eq!(s[(0, 1)], s[(1, 0)]);
        assert_eq!(s[(0, 1)], 2.5);
    }

    #[test]
    fn arithmetic_operators() {
        let a = abcd();
        let sum = &a + &a;
        assert_eq!(sum[(1, 1)], 8.0);
        let diff = &sum - &a;
        assert_eq!(diff, a);
        let neg = -&a;
        assert_eq!(neg[(0, 0)], -1.0);
        let scaled = &a * 2.0;
        assert_eq!(scaled, sum);
        let mut b = a.clone();
        b += &a;
        assert_eq!(b, sum);
        b -= &a;
        assert_eq!(b, a);
    }

    #[test]
    fn norms_and_finiteness() {
        let a = abcd();
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.fro_norm() - (30.0_f64).sqrt()).abs() < 1e-14);
        assert!(a.is_finite());
        let mut bad = a.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn add_diag_mut_only_touches_diagonal() {
        let mut a = abcd();
        a.add_diag_mut(10.0);
        assert_eq!(a[(0, 0)], 11.0);
        assert_eq!(a[(1, 1)], 14.0);
        assert_eq!(a[(0, 1)], 2.0);
    }

    #[test]
    fn hadamard_is_elementwise() {
        let a = abcd();
        let h = a.hadamard(&a).unwrap();
        assert_eq!(h[(1, 0)], 9.0);
        assert!(a.hadamard(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn debug_output_is_nonempty() {
        let s = format!("{:?}", abcd());
        assert!(s.contains("Matrix 2x2"));
    }
}
