//! Bit-exactness of the numeric kernels against naive references.
//!
//! The determinism suites compare thread counts with each other, so a
//! change to the arithmetic itself would pass them. This suite pins the
//! arithmetic: every numeric path runs [`Precision::axpy`], which must
//! equal the per-element loop `z[j] += q(a) * q(x[j])` bit for bit at all
//! four precisions, and `Plan::execute` for each kernel family must equal
//! an in-test serial reference at 1, 2 and 8 threads.
//!
//! Outputs are compared by bit pattern, except that two NaNs are equal:
//! Rust leaves NaN payloads unspecified, so only NaN-ness is arithmetic.

use gpu_sim::{DeviceSpec, Precision};
use graph_sparse::{gen, Csr, DenseMatrix};
use hc_core::{CoreChoice, HcSpmm, KernelFamily, Plan, PlanSpec};
use proptest::prelude::*;

const PRECISIONS: [Precision; 4] = [
    Precision::Fp32,
    Precision::Tf32,
    Precision::Fp16,
    Precision::Bf16,
];

/// Bit-for-bit equality, with any NaN equal to any NaN.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Index of the first element where `got` and `want` differ, if any.
fn first_diff(got: &[f32], want: &[f32]) -> Option<usize> {
    assert_eq!(got.len(), want.len(), "length mismatch");
    (0..got.len()).find(|&j| !same(got[j], want[j]))
}

/// The loop `Precision::axpy` replaced: quantize on every element.
fn naive_axpy(p: Precision, a: f32, x: &[f32], z: &mut [f32]) {
    for (o, &xv) in z.iter_mut().zip(x) {
        *o += p.quantize(a) * p.quantize(xv);
    }
}

/// Round-to-nearest-even onto `bits` mantissa bits, written with explicit
/// branches as an independent check of the TF32/BF16 quantizers.
fn rne_reference(x: f32, bits: u32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let drop = 23 - bits;
    let u = x.to_bits();
    let half = 1u32 << (drop - 1);
    let rem = u & ((1u32 << drop) - 1);
    let mut kept = u >> drop;
    if rem > half || (rem == half && kept & 1 == 1) {
        kept += 1;
    }
    f32::from_bits(kept << drop)
}

/// Values chosen to break quantizers: NaNs, infinities, signed zeros,
/// f32 and f16 subnormals, the f16 overflow and underflow edges, and
/// exact round-to-nearest-even ties for TF32, BF16 and FP16.
fn hostile() -> Vec<f32> {
    let mut v = vec![
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7f80_0001), // signalling-pattern NaN
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        f32::from_bits(1),           // smallest f32 subnormal
        f32::from_bits(0x007f_ffff), // largest f32 subnormal
        -f32::from_bits(0x0040_0000),
        f32::MAX,
        f32::MIN,
        f32::from_bits(0x7f7f_f000), // rounds past f32::MAX at TF32/BF16
        65504.0,                     // f16 max
        f32::from_bits(0x477f_efff), // just below the f16 overflow tie
        65520.0,                     // f16 overflow tie: rounds to inf
        -65520.0,
        65536.0,
        2.0f32.powi(-14),                    // smallest f16 normal
        2.0f32.powi(-14) - 2.0f32.powi(-24), // largest f16 subnormal
        2.0f32.powi(-24),                    // smallest f16 subnormal
        2.0f32.powi(-25),                    // f16 underflow tie
        2.0f32.powi(-25) * 1.000_001,        // just above it
        3.0 * 2.0f32.powi(-25),              // f16 subnormal tie
        1.0,
        -1.0,
    ];
    // Ties and near-ties at each dropped-bit width: TF32 drops 13 bits,
    // FP16 (normal range) 13, BF16 16.
    for drop in [13u32, 16] {
        let half = 1u32 << (drop - 1);
        for base in [0x3f80_0000u32, 0x3f80_0000 | (1 << drop), 0x4780_0000] {
            for off in [half - 1, half, half + 1] {
                v.push(f32::from_bits(base + off));
                v.push(-f32::from_bits(base + off));
            }
        }
    }
    v
}

/// Arbitrary f32 bit patterns: every class of value, NaNs included.
fn any_f32() -> impl Strategy<Value = f32> {
    (0u32..=u32::MAX).prop_map(f32::from_bits)
}

fn assert_axpy_matches(p: Precision, a: f32, x: &[f32], z0: &[f32]) {
    let mut got = z0.to_vec();
    p.axpy(a, x, &mut got);
    let mut want = z0.to_vec();
    naive_axpy(p, a, x, &mut want);
    if let Some(j) = first_diff(&got, &want) {
        panic!(
            "{p:?} axpy a={a:e} x[{j}]={:e} z0={:e}: got {:e} ({:#010x}), want {:e} ({:#010x})",
            x[j],
            z0[j],
            got[j],
            got[j].to_bits(),
            want[j],
            want[j].to_bits()
        );
    }
}

#[test]
fn tf32_and_bf16_quantizers_match_the_branching_reference() {
    let samples = hostile()
        .into_iter()
        .chain((0..1u32 << 20).map(|i| f32::from_bits(i.wrapping_mul(0x9e37_79b9) ^ i)));
    for x in samples {
        for (p, bits) in [(Precision::Tf32, 10), (Precision::Bf16, 7)] {
            let (got, want) = (p.quantize(x), rne_reference(x, bits));
            assert!(
                same(got, want),
                "{p:?} quantize({x:e} = {:#010x}): got {:#010x}, want {:#010x}",
                x.to_bits(),
                got.to_bits(),
                want.to_bits()
            );
        }
    }
}

#[test]
fn axpy_matches_per_element_quantize_on_hostile_inputs() {
    let h = hostile();
    // Every hostile scalar against a row of every hostile value, over
    // hostile accumulators (rotated so each x meets several z).
    let z0: Vec<f32> = h.iter().cycle().skip(7).take(h.len()).copied().collect();
    for p in PRECISIONS {
        for &a in &h {
            assert_axpy_matches(p, a, &h, &z0);
            assert_axpy_matches(p, a, &h, &vec![0.0; h.len()]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn axpy_matches_per_element_quantize_on_any_bits(
        a in any_f32(),
        xz in prop::collection::vec((any_f32(), any_f32()), 0..70),
    ) {
        let (x, z0): (Vec<f32>, Vec<f32>) = xz.into_iter().unzip();
        for p in PRECISIONS {
            assert_axpy_matches(p, a, &x, &z0);
        }
    }

    #[test]
    fn axpy_matches_per_element_quantize_on_typical_values(
        a in -4.0f32..4.0,
        xz in prop::collection::vec((-70_000.0f32..70_000.0, -1.0f32..1.0), 0..70),
        scale in 0i32..40,
    ) {
        // Scaling down by 2^scale walks the values through the f16
        // subnormal and underflow range.
        let s = 2.0f32.powi(-scale);
        let x: Vec<f32> = xz.iter().map(|&(x, _)| x * s).collect();
        let z0: Vec<f32> = xz.iter().map(|&(_, z)| z).collect();
        for p in PRECISIONS {
            assert_axpy_matches(p, a * s, &x, &z0);
        }
    }
}

/// Serial `Z = A · X` where entry `i` of row `r` runs at `prec(r)`: the
/// loop every numeric path must reproduce, in CSR entry order.
fn reference(a: &Csr, x: &DenseMatrix, prec: impl Fn(usize) -> Precision) -> DenseMatrix {
    let mut z = DenseMatrix::zeros(a.nrows, x.cols);
    for r in 0..a.nrows {
        let p = prec(r);
        let (s, e) = a.row_range(r);
        for i in s..e {
            naive_axpy(p, a.vals[i], x.row(a.col_idx[i] as usize), z.row_mut(r));
        }
    }
    z
}

/// Features with hostile values sprinkled in: large enough to overflow
/// FP16, small enough to be FP16 subnormals, and exact rounding ties.
fn features(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut x = DenseMatrix::random_features(rows, cols, seed);
    let h: Vec<f32> = hostile().into_iter().filter(|v| v.is_finite()).collect();
    for (k, slot) in x.data.iter_mut().enumerate().step_by(97) {
        *slot = h[k % h.len()];
    }
    x
}

/// Execute `plan` at 1, 2 and 8 threads and compare each output with
/// `want`, bit for bit.
fn assert_plan_matches(plan: &Plan, a: &Csr, x: &DenseMatrix, want: &DenseMatrix, what: &str) {
    let dev = DeviceSpec::rtx3090();
    for threads in [1, 2, 8] {
        hc_parallel::set_threads(threads);
        let got = plan.execute(a, x, &dev).z;
        assert_eq!(
            (got.rows, got.cols),
            (want.rows, want.cols),
            "{what}: shape"
        );
        if let Some(j) = first_diff(&got.data, &want.data) {
            panic!(
                "{what} at {threads} threads: element ({}, {}) is {:e}, reference {:e}",
                j / want.cols,
                j % want.cols,
                got.data[j],
                want.data[j]
            );
        }
    }
}

/// Single `#[test]` on purpose: the thread override is process-global.
#[test]
fn plan_execute_matches_naive_reference_at_every_precision_and_thread_count() {
    let dev = DeviceSpec::rtx3090();
    let graphs = [
        (
            "community",
            gen::community(1_024, 8_000, 32, 0.9, 1).gcn_normalize(),
        ),
        ("molecules", gen::molecules(1_024, 3_000, 2)),
        ("erdos_renyi", gen::erdos_renyi(1_024, 6_000, 3)),
    ];
    let saved = hc_parallel::thread_override();
    let mut mixed_windows = false;
    for (name, a) in &graphs {
        // An odd width exercises the vector loops' scalar remainder.
        for dim in [13, 32] {
            let x = features(a.nrows, dim, dim as u64);
            let spec = |family| PlanSpec {
                family,
                use_loa: false,
            };

            // One precision on both cores: every entry runs at `p`.
            for p in PRECISIONS {
                let want = reference(a, &x, |_| p);
                let hc = HcSpmm::with_precision(p);
                for family in [
                    KernelFamily::Cuda,
                    KernelFamily::Tensor,
                    KernelFamily::Hybrid,
                ] {
                    let plan = Plan::prepare_with(hc, a, spec(family), &dev);
                    let what = format!("{family:?} at {p:?} on {name} (dim {dim})");
                    assert_plan_matches(&plan, a, &x, &want, &what);
                }
            }

            // The deployed mix: CUDA windows exact, Tensor windows at `p`,
            // chosen per window by the selector.
            for p in PRECISIONS {
                let mut hc = HcSpmm::default();
                hc.tensor.precision = p;
                let plan = Plan::prepare_with(hc, a, spec(KernelFamily::Hybrid), &dev);
                let pre = &plan.pre;
                mixed_windows |= pre.choices.contains(&CoreChoice::Cuda)
                    && pre.choices.contains(&CoreChoice::Tensor);
                let want = reference(a, &x, |r| {
                    match pre.choices[r / pre.partition.window_rows] {
                        CoreChoice::Cuda => plan.hc.cuda.precision,
                        CoreChoice::Tensor => plan.hc.tensor.precision,
                    }
                });
                let what = format!("Hybrid, Tensor windows at {p:?}, on {name} (dim {dim})");
                assert_plan_matches(&plan, a, &x, &want, &what);
            }

            // The per-tile hybrid quantizes (TF32) exactly the entries in
            // tiles at or above its density threshold: threshold 0 makes
            // every tile dense, an infinite one none.
            let mut plan = Plan::prepare(a, spec(KernelFamily::Straightforward), &dev);
            for (threshold, p) in [(0.0, Precision::Tf32), (f64::INFINITY, Precision::Fp32)] {
                plan.sf.tile_density_threshold = threshold;
                let want = reference(a, &x, |_| p);
                let what = format!("Straightforward, threshold {threshold}, on {name} (dim {dim})");
                assert_plan_matches(&plan, a, &x, &want, &what);
            }
        }
    }
    hc_parallel::set_threads(saved);
    assert!(
        mixed_windows,
        "no graph mixed CUDA and Tensor windows; the mixed-precision check ran on one core only"
    );
}
