//! Small dense linear algebra for spectral unmixing.
//!
//! The linear mixture model needs, per scene, one factorization of the
//! endmember Gram matrix (c×c with c ≈ 30) and, per pixel, one triangular
//! solve. That is small enough that a self-contained column-major `f64`
//! matrix with Cholesky and partially-pivoted LU is both sufficient and
//! dependency-free.

use crate::error::{HsiError, Result};
use std::cell::RefCell;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major slice.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(HsiError::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self {
            rows,
            cols,
            data: data.to_vec(),
        })
    }

    /// Build a `rows x cols` matrix whose columns are the given `f32` spectra
    /// (the endmember matrix E of the mixture model).
    pub fn from_columns_f32(columns: &[&[f32]]) -> Result<Self> {
        let cols = columns.len();
        if cols == 0 {
            return Err(HsiError::EmptyDimension { which: "columns" });
        }
        let rows = columns[0].len();
        for c in columns {
            if c.len() != rows {
                return Err(HsiError::DimensionMismatch {
                    expected: rows,
                    actual: c.len(),
                });
            }
        }
        let mut m = Self::zeros(rows, cols);
        for (j, col) in columns.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                m[(i, j)] = v as f64;
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(HsiError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(HsiError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *o = row.iter().zip(v).map(|(&a, &b)| a * b).sum();
        }
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (symmetric positive semi-definite).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for k in 0..self.rows {
                    s += self[(k, i)] * self[(k, j)];
                }
                g[(i, j)] = s;
                g[(j, i)] = s;
            }
        }
        g
    }

    /// `selfᵀ * v` for an `f32` vector — the per-pixel right-hand side of the
    /// normal equations, computed without materialising a transpose.
    pub fn transpose_matvec_f32(&self, v: &[f32]) -> Result<Vec<f64>> {
        if v.len() != self.rows {
            return Err(HsiError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            let vi = vi as f64;
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &r) in out.iter_mut().zip(row) {
                *o += r * vi;
            }
        }
        Ok(out)
    }

    /// Maximum absolute entry (for test tolerances).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Cache-blocked matrix product `self * rhs`.
    ///
    /// Same contract as [`Matrix::matmul`], but the loops are tiled so that
    /// a `block × block` panel of `self` and the matching rows of `rhs` stay
    /// resident while an output panel accumulates. The summation order is
    /// fixed by the blocking (independent of any threading), so repeated
    /// calls are bit-identical.
    pub fn matmul_block(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(HsiError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        const BLOCK: usize = 64;
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for kb in (0..k).step_by(BLOCK) {
            let kend = (kb + BLOCK).min(k);
            for ib in (0..m).step_by(BLOCK) {
                let iend = (ib + BLOCK).min(m);
                for i in ib..iend {
                    for kk in kb..kend {
                        let a = self.data[i * k + kk];
                        if a == 0.0 {
                            continue;
                        }
                        let row = &rhs.data[kk * n..(kk + 1) * n];
                        let orow = &mut out.data[i * n..(i + 1) * n];
                        for (o, &r) in orow.iter_mut().zip(row) {
                            *o += a * r;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Copy the square sub-block `[r0, r0+rows) × [c0, c0+cols)` into a new
    /// matrix (used to extract the abundance block of a bordered-system
    /// inverse).
    pub fn sub_block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Result<Matrix> {
        if r0 + rows > self.rows || c0 + cols > self.cols {
            return Err(HsiError::ShapeMismatch {
                left: self.shape(),
                right: (r0 + rows, c0 + cols),
            });
        }
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                out[(i, j)] = self[(r0 + i, c0 + j)];
            }
        }
        Ok(out)
    }
}

/// Dot product of an `f64` row with an `f32` vector, accumulating in `f64`.
///
/// Four interleaved partial sums break the dependency chain of a naive
/// sequential reduction while keeping the summation order fixed: lane `l`
/// sums bands `b ≡ l (mod 4)` in band order, the `k mod 4` tail sums in
/// order, and the result is `(a0 + a1) + (a2 + a3) + tail`. This chain is
/// the contract of every batched operator output ([`apply_operator_f32`]
/// reproduces it bit for bit), so results are bit-reproducible at every
/// thread count.
#[inline]
pub fn dot_f32(row: &[f64], v: &[f32]) -> f64 {
    debug_assert_eq!(row.len(), v.len());
    let mut acc = [0.0f64; 4];
    let mut rc = row.chunks_exact(4);
    let mut vc = v.chunks_exact(4);
    for (r, p) in (&mut rc).zip(&mut vc) {
        acc[0] += r[0] * p[0] as f64;
        acc[1] += r[1] * p[1] as f64;
        acc[2] += r[2] * p[2] as f64;
        acc[3] += r[3] * p[3] as f64;
    }
    let mut tail = 0.0;
    for (r, p) in rc.remainder().iter().zip(vc.remainder()) {
        tail += r * *p as f64;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Dot product of two `f64` slices with the same fixed 4-way accumulation
/// order as [`dot_f32`].
#[inline]
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (x, y) in (&mut ac).zip(&mut bc) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut tail = 0.0;
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Pixels per block of the pixel-lane operator kernel.
///
/// Chosen by measurement on baseline x86-64 (one thread, k = 96 bands,
/// m = 16/32/64 rows): 8 lanes ran at least as fast as 4, and clearly
/// faster than 6, 12 or 16.
const LANES: usize = 8;

// Per-worker band-major scratch of the pixel-lane kernel: `k × LANES` f64,
// grown once per thread and reused by every block after that.
thread_local! {
    static LANE_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Batched operator application over a BIP pixel block: for every pixel `p`
/// and operator row `j`, `out[p·m + j] = Σ_b op[(j, b)] · pixels[p·k + b]`,
/// where `op` is `m × k` and `pixels` holds `n` contiguous `k`-band `f32`
/// pixel vectors. Inputs widen to `f64` before accumulation.
///
/// This is the inner GEMM of the batched unmixing tail: `op` (a few KiB)
/// stays cache-resident while the pixels stream through in blocks of eight,
/// each widened once into a band-major per-worker scratch so the pixels are
/// the vector lanes. Every output has the same bits as
/// `dot_f32(op.row(j), pixel)`, and no allocation happens after a worker's
/// first call.
pub fn apply_operator_f32(op: &Matrix, pixels: &[f32], out: &mut [f64]) -> Result<()> {
    apply_operator(op, pixels, out)
}

/// [`apply_operator_f32`] for `f64` input rows (the `c × c` stages of the
/// batched residual computation, applied to already-projected pixels). Every
/// output has the same bits as [`dot_f64`] on its row and input.
pub fn apply_operator_f64(op: &Matrix, rows: &[f64], out: &mut [f64]) -> Result<()> {
    apply_operator(op, rows, out)
}

// The pixel-lane kernel behind both `apply_operator_*` entry points: it
// checks the shapes, borrows this worker's scratch, and runs
// `operator_lanes` through its AVX2 copy when the CPU has AVX2. The copy is
// picked inside `with`, not wrapped around it, because a closure body is
// compiled where `LocalKey::with` instantiates it, without AVX2.
fn apply_operator<T: Copy + Into<f64>>(op: &Matrix, pixels: &[T], out: &mut [f64]) -> Result<()> {
    let (m, k) = op.shape();
    if k == 0 || !pixels.len().is_multiple_of(k) {
        return Err(HsiError::DimensionMismatch {
            expected: k,
            actual: pixels.len(),
        });
    }
    let n = pixels.len() / k;
    if out.len() != n * m {
        return Err(HsiError::DimensionMismatch {
            expected: n * m,
            actual: out.len(),
        });
    }
    if m == 0 {
        return Ok(());
    }
    LANE_SCRATCH.with(|scratch| {
        let mut wide = scratch.borrow_mut();
        wide.resize(k * LANES, 0.0);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `operator_lanes_avx2` requires AVX2, and
            // `is_x86_feature_detected!("avx2")` just found it on this CPU.
            unsafe { operator_lanes_avx2(op, pixels, out, &mut wide) };
            return;
        }
        operator_lanes(op, pixels, out, &mut wide);
    });
    Ok(())
}

/// [`operator_lanes`] compiled with AVX2: four `f64` lanes per vector
/// instead of SSE2's two, the same operations in the same order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn operator_lanes_avx2<T: Copy + Into<f64>>(
    op: &Matrix,
    pixels: &[T],
    out: &mut [f64],
    wide: &mut [f64],
) {
    operator_lanes(op, pixels, out, wide);
}

// The loop itself, for shapes `apply_operator` has checked (`m > 0`) and a
// `k × LANES` scratch. Each block of up to `LANES` pixels runs every
// operator row across the block with the four partial sums of `dot_f32`
// held per pixel, so each lane repeats that function's summation chain
// exactly. A short last block leaves stale values in its unused lanes; they
// are computed but never stored.
#[inline(always)]
fn operator_lanes<T: Copy + Into<f64>>(
    op: &Matrix,
    pixels: &[T],
    out: &mut [f64],
    wide: &mut [f64],
) {
    let (m, k) = op.shape();
    let body = k - k % 4;
    for (block, out_block) in pixels.chunks(k * LANES).zip(out.chunks_mut(m * LANES)) {
        // Widen once: band b of pixel p lands at wide[b·LANES + p].
        for (p, px) in block.chunks_exact(k).enumerate() {
            for (w, &v) in wide.iter_mut().skip(p).step_by(LANES).zip(px) {
                *w = v.into();
            }
        }
        let (wide_body, wide_tail) = wide.split_at(body * LANES);
        for (j, row) in op.data.chunks_exact(k).enumerate() {
            let (row_body, row_tail) = row.split_at(body);
            let mut acc = [[0.0f64; LANES]; 4];
            for (r, w) in row_body
                .chunks_exact(4)
                .zip(wide_body.chunks_exact(4 * LANES))
            {
                for ((a, &r), w) in acc.iter_mut().zip(r).zip(w.chunks_exact(LANES)) {
                    for (a, &w) in a.iter_mut().zip(w) {
                        *a += r * w;
                    }
                }
            }
            let mut tail = [0.0f64; LANES];
            for (&r, w) in row_tail.iter().zip(wide_tail.chunks_exact(LANES)) {
                for (t, &w) in tail.iter_mut().zip(w) {
                    *t += r * w;
                }
            }
            for (p, o) in out_block.iter_mut().skip(j).step_by(m).enumerate() {
                *o = (acc[0][p] + acc[1][p]) + (acc[2][p] + acc[3][p]) + tail[p];
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Holds the lower-triangular factor and solves `A x = b` with two triangular
/// sweeps — the per-pixel hot path of unmixing.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>, // row-major lower triangle (full storage for simplicity)
}

impl Cholesky {
    /// Factorize `a`. Fails with [`HsiError::SingularMatrix`] if `a` is not
    /// positive definite (within a tiny pivot tolerance).
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(HsiError::ShapeMismatch {
                left: a.shape(),
                right: (a.cols(), a.rows()),
            });
        }
        let n = a.rows();
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if s <= 1e-14 * (1.0 + a[(i, i)].abs()) {
                        return Err(HsiError::SingularMatrix);
                    }
                    l[i * n + i] = s.sqrt();
                } else {
                    l[i * n + j] = s / l[j * n + j];
                }
            }
        }
        Ok(Self { n, l })
    }

    /// Solve `A x = b` in place (`b` becomes `x`).
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<()> {
        if b.len() != self.n {
            return Err(HsiError::ShapeMismatch {
                left: (self.n, self.n),
                right: (b.len(), 1),
            });
        }
        let n = self.n;
        // Forward: L y = b.
        for i in 0..n {
            let dot: f64 = self.l[i * n..i * n + i]
                .iter()
                .zip(&*b)
                .map(|(&l, &x)| l * x)
                .sum();
            b[i] = (b[i] - dot) / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y (column of L read with stride n).
        for i in (0..n).rev() {
            let dot: f64 = b[i + 1..]
                .iter()
                .enumerate()
                .map(|(j, &x)| self.l[(i + 1 + j) * n + i] * x)
                .sum();
            b[i] = (b[i] - dot) / self.l[i * n + i];
        }
        Ok(())
    }

    /// Solve returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Explicit inverse `A⁻¹`, one triangular solve per unit column.
    ///
    /// Used once per model fit to precompute the dense abundance operator
    /// `(EᵀE)⁻¹Eᵀ`; never called per pixel.
    pub fn inverse(&self) -> Matrix {
        let n = self.n;
        let mut inv = Matrix::zeros(n, n);
        let mut col = vec![0.0f64; n];
        for j in 0..n {
            col.fill(0.0);
            col[j] = 1.0;
            self.solve_in_place(&mut col)
                .expect("column length matches factorization by construction");
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        inv
    }
}

/// LU factorization with partial pivoting, for general square systems
/// (used by the sum-to-one constrained unmixing's bordered system, which is
/// symmetric but indefinite).
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl Lu {
    /// Factorize `a`.
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(HsiError::ShapeMismatch {
                left: a.shape(),
                right: (a.cols(), a.rows()),
            });
        }
        let n = a.rows();
        let mut lu: Vec<f64> = (0..n * n).map(|i| a.data[i]).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Pivot.
            let mut p = col;
            for r in col + 1..n {
                if lu[r * n + col].abs() > lu[p * n + col].abs() {
                    p = r;
                }
            }
            if lu[p * n + col].abs() < 1e-300 {
                return Err(HsiError::SingularMatrix);
            }
            if p != col {
                for j in 0..n {
                    lu.swap(col * n + j, p * n + j);
                }
                perm.swap(col, p);
            }
            let pivot = lu[col * n + col];
            for r in col + 1..n {
                let factor = lu[r * n + col] / pivot;
                lu[r * n + col] = factor;
                for j in col + 1..n {
                    lu[r * n + j] -= factor * lu[col * n + j];
                }
            }
        }
        Ok(Self { n, lu, perm })
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(HsiError::ShapeMismatch {
                left: (self.n, self.n),
                right: (b.len(), 1),
            });
        }
        let n = self.n;
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution (unit lower triangle).
        for i in 0..n {
            for k in 0..i {
                x[i] -= self.lu[i * n + k] * x[k];
            }
        }
        // Backward substitution.
        for i in (0..n).rev() {
            for k in i + 1..n {
                x[i] -= self.lu[i * n + k] * x[k];
            }
            x[i] /= self.lu[i * n + i];
        }
        Ok(x)
    }

    /// Explicit inverse `A⁻¹`, one solve per unit column.
    ///
    /// Used once per model fit to extract the abundance block and offset of
    /// the bordered sum-to-one system; never called per pixel.
    pub fn inverse(&self) -> Matrix {
        let n = self.n;
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0f64; n];
        for j in 0..n {
            e.fill(0.0);
            e[j] = 1.0;
            let col = self
                .solve(&e)
                .expect("column length matches factorization by construction");
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn identity_and_indexing() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        assert_eq!(i3.shape(), (3, 3));
    }

    #[test]
    fn from_rows_validates_length() {
        assert!(Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn from_columns_builds_endmember_matrix() {
        let e0 = [1.0f32, 2.0, 3.0];
        let e1 = [4.0f32, 5.0, 6.0];
        let m = Matrix::from_columns_f32(&[&e0, &e1]).unwrap();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(2, 1)], 6.0);
        // Ragged columns rejected.
        let short = [1.0f32];
        assert!(Matrix::from_columns_f32(&[&e0, &short]).is_err());
        assert!(Matrix::from_columns_f32(&[]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_and_matvec() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(1, 1)], 50.0);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
        let bad = Matrix::zeros(3, 3);
        assert!(a.matmul(&bad).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(3, 2, &[1.0, 2.0, 0.0, 1.0, 4.0, -1.0]).unwrap();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < TOL);
            }
        }
    }

    #[test]
    fn transpose_matvec_f32_matches_explicit() {
        let a = Matrix::from_rows(3, 2, &[1.0, 2.0, 0.0, 1.0, 4.0, -1.0]).unwrap();
        let v = [1.0f32, 2.0, 3.0];
        let got = a.transpose_matvec_f32(&v).unwrap();
        let expected = a.transpose().matvec(&[1.0, 2.0, 3.0]).unwrap();
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < TOL);
        }
        assert!(a.transpose_matvec_f32(&[1.0]).is_err());
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = Lref Lrefᵀ with Lref = [[2,0],[1,3]] → A = [[4,2],[2,10]].
        let a = Matrix::from_rows(2, 2, &[4.0, 2.0, 2.0, 10.0]).unwrap();
        let chol = Cholesky::new(&a).unwrap();
        let x = chol.solve(&[8.0, 26.0]).unwrap();
        // Check A x = b.
        let b = a.matvec(&x).unwrap();
        assert!((b[0] - 8.0).abs() < TOL && (b[1] - 26.0).abs() < TOL);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]).unwrap(); // eigenvalues 3, −1
        assert!(matches!(Cholesky::new(&a), Err(HsiError::SingularMatrix)));
        let rect = Matrix::zeros(2, 3);
        assert!(Cholesky::new(&rect).is_err());
    }

    #[test]
    fn cholesky_solve_checks_length() {
        let a = Matrix::identity(3);
        let chol = Cholesky::new(&a).unwrap();
        assert!(chol.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn lu_solves_general_system() {
        // Needs pivoting: zero on the diagonal.
        let a = Matrix::from_rows(3, 3, &[0.0, 2.0, 1.0, 1.0, 0.0, 3.0, 2.0, 1.0, 0.0]).unwrap();
        let lu = Lu::new(&a).unwrap();
        let xref = [1.0, -2.0, 3.0];
        let b = a.matvec(&xref).unwrap();
        let x = lu.solve(&b).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-8, "{x:?}");
        }
    }

    #[test]
    fn lu_rejects_singular() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(matches!(Lu::new(&a), Err(HsiError::SingularMatrix)));
    }

    #[test]
    fn matmul_block_matches_matmul() {
        // Odd shapes exercise partial blocks; values from a fixed recurrence.
        let mut vals = Vec::new();
        let mut x = 0.37f64;
        for _ in 0..(70 * 65 + 65 * 3) {
            x = (x * 997.0 + 0.123).rem_euclid(7.0) - 3.5;
            vals.push(x);
        }
        let a = Matrix::from_rows(70, 65, &vals[..70 * 65]).unwrap();
        let b = Matrix::from_rows(65, 3, &vals[70 * 65..]).unwrap();
        let naive = a.matmul(&b).unwrap();
        let blocked = a.matmul_block(&b).unwrap();
        for i in 0..70 {
            for j in 0..3 {
                assert!((naive[(i, j)] - blocked[(i, j)]).abs() < 1e-9 * naive.max_abs());
            }
        }
        assert!(a.matmul_block(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn sub_block_extracts_and_validates() {
        let m = Matrix::from_rows(3, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        let b = m.sub_block(1, 0, 2, 2).unwrap();
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b[(0, 0)], 4.0);
        assert_eq!(b[(1, 1)], 8.0);
        assert!(m.sub_block(2, 2, 2, 2).is_err());
    }

    #[test]
    fn dot_products_match_naive_sums() {
        // 11 elements: exercises the 4-wide kernel plus a 3-element tail.
        let a: Vec<f64> = (0..11).map(|i| (i as f64) * 0.5 - 2.0).collect();
        let b32: Vec<f32> = (0..11).map(|i| (i as f32) * 0.25 + 1.0).collect();
        let b64: Vec<f64> = b32.iter().map(|&v| v as f64).collect();
        let naive: f64 = a.iter().zip(&b64).map(|(x, y)| x * y).sum();
        assert!((dot_f32(&a, &b32) - naive).abs() < TOL);
        assert!((dot_f64(&a, &b64) - naive).abs() < TOL);
    }

    #[test]
    fn apply_operator_matches_per_row_matvec() {
        let op = Matrix::from_rows(2, 3, &[1.0, -2.0, 0.5, 0.0, 3.0, 1.0]).unwrap();
        let pixels = [1.0f32, 2.0, 3.0, -1.0, 0.5, 2.0];
        let mut out = vec![0.0f64; 4];
        apply_operator_f32(&op, &pixels, &mut out).unwrap();
        for p in 0..2 {
            let v: Vec<f64> = pixels[p * 3..(p + 1) * 3]
                .iter()
                .map(|&x| x as f64)
                .collect();
            let expected = op.matvec(&v).unwrap();
            assert!((out[p * 2] - expected[0]).abs() < TOL);
            assert!((out[p * 2 + 1] - expected[1]).abs() < TOL);
        }
        // f64 variant agrees on the same data.
        let rows64: Vec<f64> = pixels.iter().map(|&x| x as f64).collect();
        let mut out64 = vec![0.0f64; 4];
        apply_operator_f64(&op, &rows64, &mut out64).unwrap();
        for (a, b) in out.iter().zip(&out64) {
            assert!((a - b).abs() < TOL);
        }
        // Shape validation.
        assert!(apply_operator_f32(&op, &pixels[..5], &mut out).is_err());
        assert!(apply_operator_f32(&op, &pixels, &mut out[..3]).is_err());
        assert!(apply_operator_f64(&op, &rows64[..5], &mut out64).is_err());
        assert!(apply_operator_f64(&op, &rows64, &mut out64[..3]).is_err());
        // A zero-row operator maps every pixel to an empty output.
        assert!(apply_operator_f32(&Matrix::zeros(0, 3), &pixels, &mut []).is_ok());
        assert!(apply_operator_f64(&Matrix::zeros(0, 3), &rows64, &mut []).is_ok());
    }

    // Xorshift stream of values that expose any change to a summation
    // chain: signed zeros, subnormals, and magnitudes from 1e-30 to 1e30
    // whose partial sums cancel and round differently in every order.
    struct AwkwardValues(u64);

    impl AwkwardValues {
        fn bits(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn unit(&mut self) -> f64 {
            (self.bits() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn f64(&mut self) -> f64 {
            let sign = if self.bits() & 1 == 0 { 1.0 } else { -1.0 };
            match self.bits() % 8 {
                0 => -0.0,
                1 => sign * f64::from_bits(1 + self.bits() % (1 << 52)),
                _ => sign * (1.0 + self.unit()) * 10f64.powf(self.unit() * 60.0 - 30.0),
            }
        }

        fn f32(&mut self) -> f32 {
            let sign = if self.bits() & 1 == 0 { 1.0f32 } else { -1.0 };
            match self.bits() % 8 {
                0 => -0.0,
                1 => sign * f32::from_bits(1 + (self.bits() % (1 << 23)) as u32),
                _ => sign * ((1.0 + self.unit()) * 10f64.powf(self.unit() * 60.0 - 30.0)) as f32,
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        // The pixel-lane kernel must reproduce `dot_f32` / `dot_f64` bit for
        // bit on every (row, pixel): k < 4 and k mod 4 ≠ 0 exercise the tail
        // sum, n < 8 and n mod 8 ≠ 0 a short last block.
        #[test]
        fn prop_apply_operator_is_bit_identical_to_dot(
            m in 1usize..70,
            k in 1usize..100,
            n in 1usize..40,
            seed in 1u64..1u64 << 48,
        ) {
            let mut gen = AwkwardValues(seed);
            let op_data: Vec<f64> = (0..m * k).map(|_| gen.f64()).collect();
            let op = Matrix::from_rows(m, k, &op_data).unwrap();
            let px32: Vec<f32> = (0..n * k).map(|_| gen.f32()).collect();
            let px64: Vec<f64> = (0..n * k).map(|_| gen.f64()).collect();
            let mut out32 = vec![f64::NAN; n * m];
            let mut out64 = vec![f64::NAN; n * m];
            apply_operator_f32(&op, &px32, &mut out32).unwrap();
            apply_operator_f64(&op, &px64, &mut out64).unwrap();
            // The baseline body run directly: on an AVX2 host the entry
            // points above ran the AVX2 copy, so both copies are pinned.
            let mut base32 = vec![f64::NAN; n * m];
            let mut base64 = vec![f64::NAN; n * m];
            let mut wide = vec![0.0; k * LANES];
            operator_lanes(&op, &px32, &mut base32, &mut wide);
            operator_lanes(&op, &px64, &mut base64, &mut wide);
            for p in 0..n {
                for j in 0..m {
                    let want32 = dot_f32(op.row(j), &px32[p * k..(p + 1) * k]);
                    let want64 = dot_f64(op.row(j), &px64[p * k..(p + 1) * k]);
                    for (copy, out32, out64) in
                        [("dispatched", &out32, &out64), ("baseline", &base32, &base64)]
                    {
                        proptest::prop_assert!(
                            out32[p * m + j].to_bits() == want32.to_bits(),
                            "{} f32 m={} k={} n={} pixel {} row {}: {:e} vs dot_f32 {:e}",
                            copy, m, k, n, p, j, out32[p * m + j], want32
                        );
                        proptest::prop_assert!(
                            out64[p * m + j].to_bits() == want64.to_bits(),
                            "{} f64 m={} k={} n={} pixel {} row {}: {:e} vs dot_f64 {:e}",
                            copy, m, k, n, p, j, out64[p * m + j], want64
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cholesky_inverse_reproduces_identity() {
        let a = Matrix::from_rows(3, 3, &[4.0, 2.0, 1.0, 2.0, 10.0, 3.0, 1.0, 3.0, 6.0]).unwrap();
        let inv = Cholesky::new(&a).unwrap().inverse();
        let prod = a.matmul(&inv).unwrap();
        let ident = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert!((prod[(i, j)] - ident[(i, j)]).abs() < 1e-10, "{prod:?}");
            }
        }
    }

    #[test]
    fn lu_inverse_reproduces_identity() {
        let a = Matrix::from_rows(3, 3, &[0.0, 2.0, 1.0, 1.0, 0.0, 3.0, 2.0, 1.0, 0.0]).unwrap();
        let inv = Lu::new(&a).unwrap().inverse();
        let prod = a.matmul(&inv).unwrap();
        let ident = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert!((prod[(i, j)] - ident[(i, j)]).abs() < 1e-10, "{prod:?}");
            }
        }
    }
}
