//! Bit-exactness of the dense GEMMs against naive serial references.
//!
//! `DenseMatrix::matmul` tiles its columns into register blocks and hands
//! the pool row blocks; `DenseMatrix::matmul_tn` streams rank-1 updates
//! without building a transpose. Both promise the summation order of the
//! naive loop below: serial `k` order from `+0.0`, skipping zero factors.
//! This suite holds them to it bit for bit, on widths around the 16/8
//! block edges, row counts off the 4- and 64-row grains, ReLU-style
//! operands full of `±0.0`, and NaN/±inf in the right operand, at 1, 2
//! and 8 threads under both `ParallelMode::Force` and `Auto`.
//!
//! Outputs are compared by bit pattern, except that two NaNs are equal:
//! Rust leaves NaN payloads unspecified, so only NaN-ness is arithmetic.

use graph_sparse::DenseMatrix;
use hc_parallel::ParallelMode;

/// Output and shared-dimension widths: both sides of every block edge.
const WIDTHS: [usize; 12] = [1, 3, 7, 8, 15, 16, 17, 31, 32, 33, 64, 75];
/// Row counts: empty, and none a multiple of 4 or 64.
const ROWS: [usize; 5] = [0, 1, 3, 5, 67];

/// The loop `matmul` replaced: one output row at a time, accumulated in
/// place in serial `k` order, skipping zero left factors.
fn naive_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(a.rows, b.cols);
    for r in 0..a.rows {
        for k in 0..a.cols {
            let x = a[(r, k)];
            if x == 0.0 {
                continue;
            }
            for j in 0..b.cols {
                out[(r, j)] += x * b[(k, j)];
            }
        }
    }
    out
}

/// The route `matmul_tn` replaced: an explicit transpose, then the loop.
fn naive_tn(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    naive_matmul(&a.transposed(), b)
}

/// Bit-for-bit equality, with any NaN equal to any NaN.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_bitexact(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
    assert_eq!(
        (got.rows, got.cols),
        (want.rows, want.cols),
        "{what}: shape"
    );
    if let Some(i) = (0..got.data.len()).find(|&i| !same(got.data[i], want.data[i])) {
        let (r, c) = (i / got.cols, i % got.cols);
        panic!(
            "{what}: element ({r}, {c}) is {:e} ({:#010x}), reference {:e} ({:#010x})",
            got.data[i],
            got.data[i].to_bits(),
            want.data[i],
            want.data[i].to_bits()
        );
    }
}

/// ReLU-style values: about 40% `+0.0`, 10% `-0.0`, the rest in [-1, 1]
/// with a spread of magnitudes so that summation order shows in the bits.
fn relu_like(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let noise = DenseMatrix::random_features(rows, cols, seed);
    let scale = DenseMatrix::random_features(rows, cols, seed ^ 0x5eed);
    DenseMatrix::from_fn(rows, cols, |r, c| {
        let v = noise[(r, c)];
        let s = scale[(r, c)];
        if s < -0.2 {
            0.0
        } else if s < 0.0 {
            -0.0
        } else {
            v * (1.0 + 1000.0 * s * s)
        }
    })
}

/// Plant non-finite values in `b`'s row `k`: NaN, +inf and -inf in turn.
fn poison_row(b: &mut DenseMatrix, k: usize) {
    let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for (j, v) in b.row_mut(k).iter_mut().enumerate() {
        *v = bad[j % 3];
    }
}

/// Operands for `a · b` with `a: m×k`, `b: k×n`. Row 0 of `b` is poisoned
/// and column 0 of `a` is all `±0.0`, so the poison must be skipped; row
/// `k - 1` of `b` is poisoned too and meets a non-zero factor in every
/// third row of `a`, and `±0.0` in the others.
fn nn_operands(m: usize, k: usize, n: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
    let mut a = relu_like(m, k, seed);
    let mut b = relu_like(k, n, seed + 1);
    if k >= 2 {
        for r in 0..m {
            a[(r, 0)] = if r % 2 == 0 { 0.0 } else { -0.0 };
            a[(r, k - 1)] = [0.75, 0.0, -0.0][r % 3];
        }
        poison_row(&mut b, 0);
        poison_row(&mut b, k - 1);
    }
    (a, b)
}

/// Operands for `aᵀ · b` with `a: n×p`, `b: n×q`, poisoned as in
/// [`nn_operands`] with the shared dimension now the row index.
fn tn_operands(n: usize, p: usize, q: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
    let mut a = relu_like(n, p, seed);
    let mut b = relu_like(n, q, seed + 1);
    if n >= 2 {
        for i in 0..p {
            a[(0, i)] = if i % 2 == 0 { 0.0 } else { -0.0 };
            a[(n - 1, i)] = [-1.5, 0.0, -0.0][i % 3];
        }
        poison_row(&mut b, 0);
        poison_row(&mut b, n - 1);
    }
    (a, b)
}

/// One product and its reference result.
struct Case {
    what: String,
    a: DenseMatrix,
    b: DenseMatrix,
    tn: bool,
    want: DenseMatrix,
}

impl Case {
    fn nn(m: usize, k: usize, n: usize, seed: u64) -> Case {
        let (a, b) = nn_operands(m, k, n, seed);
        let want = naive_matmul(&a, &b);
        let what = format!("matmul {m}x{k}·{k}x{n}");
        Case {
            what,
            a,
            b,
            tn: false,
            want,
        }
    }

    fn tn(n: usize, p: usize, q: usize, seed: u64) -> Case {
        let (a, b) = tn_operands(n, p, q, seed);
        let want = naive_tn(&a, &b);
        let what = format!("matmul_tn ({n}x{p})ᵀ·{n}x{q}");
        Case {
            what,
            a,
            b,
            tn: true,
            want,
        }
    }

    fn check(&self, config: &str) {
        let got = if self.tn {
            self.a.matmul_tn(&self.b)
        } else {
            self.a.matmul(&self.b)
        };
        assert_bitexact(&got, &self.want, &format!("{} ({config})", self.what));
    }
}

/// Every shape in the grid through both kernels, plus the GCN epoch's
/// shapes scaled down but large enough that `Auto` engages the pool on a
/// multi-core host.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut seed = 1;
    for &m in &ROWS {
        for &k in &WIDTHS {
            for &n in &WIDTHS {
                seed += 1;
                cases.push(Case::nn(m, k, n, seed));
                cases.push(Case::tn(m, k, n, seed));
            }
        }
    }
    cases.push(Case::nn(1029, 75, 32, 7));
    cases.push(Case::tn(1029, 75, 33, 8));
    cases
}

#[test]
fn dense_gemms_match_naive_loops_at_every_config() {
    let cases = cases();
    let saved = hc_parallel::thread_override();
    for mode in [ParallelMode::Force, ParallelMode::Auto] {
        hc_parallel::set_parallel_mode(mode);
        for threads in [1, 2, 8] {
            hc_parallel::set_threads(threads);
            let config = format!("{threads} threads, {mode:?}");
            for case in &cases {
                case.check(&config);
            }
        }
    }
    hc_parallel::set_parallel_mode(ParallelMode::Auto);
    hc_parallel::set_threads(saved);
}

#[test]
fn zero_sized_operands() {
    for (m, k, n) in [(0, 0, 0), (0, 5, 3), (4, 0, 3), (4, 5, 0), (0, 0, 7)] {
        let a = relu_like(m, k, 3);
        let b = relu_like(k, n, 4);
        let got = a.matmul(&b);
        assert_eq!((got.rows, got.cols), (m, n));
        assert_bitexact(&got, &naive_matmul(&a, &b), "matmul zero-sized");
        let b = relu_like(m, n, 5);
        let got = a.matmul_tn(&b);
        assert_eq!((got.rows, got.cols), (k, n));
        assert_bitexact(&got, &naive_tn(&a, &b), "matmul_tn zero-sized");
    }
}

#[test]
fn poison_is_skipped_only_behind_zero_factors() {
    // The grid's operands must actually exercise both sides of the
    // zero-skip, or the suite could not tell a dropped skip apart.
    let (a, b) = nn_operands(5, 17, 33, 9);
    let out = a.matmul(&b);
    assert!(
        out.data.iter().any(|v| !v.is_finite()),
        "poison never reached"
    );
    assert!(out.data.iter().any(|v| v.is_finite()), "poison everywhere");
    let (a, b) = tn_operands(17, 5, 33, 9);
    let out = a.matmul_tn(&b);
    assert!(
        out.data.iter().any(|v| !v.is_finite()),
        "poison never reached"
    );
    assert!(out.data.iter().any(|v| v.is_finite()), "poison everywhere");
}

#[test]
#[should_panic(expected = "matmul_tn dimension mismatch")]
fn matmul_tn_rejects_mismatched_rows() {
    DenseMatrix::zeros(3, 2).matmul_tn(&DenseMatrix::zeros(4, 2));
}
