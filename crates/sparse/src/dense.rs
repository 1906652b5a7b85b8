//! Row-major dense matrices (the `X`, `Z`, `W` operands).

use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// Dense row-major f32 matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, length `rows · cols`.
    pub data: Vec<f32>,
}

impl DenseMatrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row slices.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            data.extend_from_slice(r);
        }
        DenseMatrix {
            rows: rows.len(),
            cols: ncols,
            data,
        }
    }

    /// Build from a generator function over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Deterministic pseudo-random features in [-1, 1] (for reproducible
    /// workloads without threading an RNG everywhere).
    pub fn random_features(rows: usize, cols: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        DenseMatrix::from_fn(rows, cols, |_, _| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            ((bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
    }

    /// Borrow row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Dense matrix multiply `self · other`: the host side of the GNN
    /// Update GEMMs (their simulated cost is `hc_core::fusion::gemm_run`).
    ///
    /// Summation order: each output element sums its products in serial `k`
    /// order, starting from `+0.0` and skipping `k` where `self[(r, k)]` is
    /// `0.0`, so the result is bit-identical to the naive triple loop at any
    /// thread count (a NaN or inf in `other` meets only non-zero factors).
    /// The pool takes contiguous 64-row blocks of the output, and each row
    /// keeps its accumulators in registers (see `matmul_row`).
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        if self.rows == 0 || other.cols == 0 {
            return out;
        }
        let n = other.cols;
        let work = 2 * self.rows as u64 * self.cols as u64 * n as u64;
        hc_parallel::par_chunks_mut(&mut out.data, MATMUL_ROW_BLOCK * n, work, |blk, chunk| {
            let r0 = blk * MATMUL_ROW_BLOCK;
            for (r, out_row) in chunk.chunks_exact_mut(n).enumerate() {
                matmul_row(self.row(r0 + r), other, out_row);
            }
        });
        out
    }

    /// Transpose-free `selfᵀ · other` for two matrices that share their row
    /// count (the weight gradient `Hᵀ·G` of a GNN layer).
    ///
    /// It streams the shared rows once, applying the rank-1 update
    /// `out[i] += self[(k, i)] · other.row(k)` into the `self.cols ×
    /// other.cols` output, which stays cache-resident. Summation order
    /// matches [`matmul`](Self::matmul) on `self.transposed()`: serial `k`
    /// order from `+0.0`, skipping zero factors, so the two agree bit for bit.
    /// The pool takes one contiguous range of output rows per worker.
    pub fn matmul_tn(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let (p, q) = (self.cols, other.cols);
        let mut out = DenseMatrix::zeros(p, q);
        if p == 0 || q == 0 {
            return out;
        }
        let work = 2 * self.rows as u64 * p as u64 * q as u64;
        let rows_per_worker = p.div_ceil(hc_parallel::threads());
        hc_parallel::par_chunks_mut(&mut out.data, rows_per_worker * q, work, |blk, chunk| {
            let i0 = blk * rows_per_worker;
            for k in 0..self.rows {
                let b = other.row(k);
                let a_row = &self.row(k)[i0..i0 + chunk.len() / q];
                for (&a, out_row) in a_row.iter().zip(chunk.chunks_exact_mut(q)) {
                    if a != 0.0 {
                        axpy(a, b, out_row);
                    }
                }
            }
        });
        out
    }

    /// Transposed copy. Meant for weight-sized matrices: a product with a
    /// transposed left operand is [`matmul_tn`](Self::matmul_tn).
    pub fn transposed(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Element-wise `self + other`.
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise scale.
    pub fn scale(&self, s: f32) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Apply `f` element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Max absolute difference against another matrix (test helper).
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Storage footprint in bytes.
    pub fn byte_size(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

/// Output rows per pool chunk in [`DenseMatrix::matmul`].
const MATMUL_ROW_BLOCK: usize = 64;

/// `out += a · b`, element-wise.
#[inline(always)]
fn axpy(a: f32, b: &[f32], out: &mut [f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// One output row of `A · other` from the row `a_row` of `A`. Columns run
/// in const-width blocks of 16, then 8, whose accumulators stay in
/// registers across the whole `k` loop; the last `< 8` columns accumulate
/// in `out_row` itself. Every element sums in serial `k` order from `+0.0`.
fn matmul_row(a_row: &[f32], other: &DenseMatrix, out_row: &mut [f32]) {
    let n = out_row.len();
    let mut c = 0;
    while c + 16 <= n {
        matmul_block::<16>(a_row, other, c, out_row);
        c += 16;
    }
    if c + 8 <= n {
        matmul_block::<8>(a_row, other, c, out_row);
        c += 8;
    }
    if c < n {
        for (&a, b) in a_row.iter().zip(other.data.chunks_exact(n)) {
            if a != 0.0 {
                axpy(a, &b[c..], &mut out_row[c..]);
            }
        }
    }
}

/// Columns `c..c + W` of one output row, accumulated in a `[f32; W]`.
#[inline(always)]
fn matmul_block<const W: usize>(a_row: &[f32], other: &DenseMatrix, c: usize, out_row: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for (&a, b) in a_row.iter().zip(other.data.chunks_exact(other.cols)) {
        if a == 0.0 {
            continue;
        }
        let b: &[f32; W] = b[c..c + W].try_into().expect("block width");
        for (o, &bv) in acc.iter_mut().zip(b) {
            *o += a * bv;
        }
    }
    out_row[c..c + W].copy_from_slice(&acc);
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_index() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn matmul_small() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DenseMatrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DenseMatrix::random_features(7, 3, 42);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn transpose_matmul_identity_property() {
        // (A·B)^T == B^T·A^T
        let a = DenseMatrix::random_features(4, 5, 1);
        let b = DenseMatrix::random_features(5, 3, 2);
        let lhs = a.matmul(&b).transposed();
        let rhs = b.transposed().matmul(&a.transposed());
        assert!(lhs.max_abs_diff(&rhs) < 1e-5);
    }

    #[test]
    fn random_features_deterministic_and_bounded() {
        let a = DenseMatrix::random_features(10, 10, 7);
        let b = DenseMatrix::random_features(10, 10, 7);
        assert_eq!(a, b);
        assert!(a.data.iter().all(|v| (-1.0..=1.0).contains(v)));
        // Not all equal.
        assert!(a.data.iter().any(|&v| v != a.data[0]));
    }

    #[test]
    fn add_scale_map() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.add(&a).row(0), &[2.0, -4.0]);
        assert_eq!(a.scale(3.0).row(0), &[3.0, -6.0]);
        assert_eq!(a.map(f32::abs).row(0), &[1.0, 2.0]);
    }
}
