//! gcn-train: 2-layer GCN training with the fused `HcAggregator` on the YH
//! analogue. The operation is one training epoch.

use std::time::Instant;

use gnn::{ops, train::synthetic_labels, Aggregator, Gcn, HcAggregator, KernelAggregator, Trainer};
use gpu_sim::DeviceSpec;
use graph_sparse::{Csr, DatasetId, DenseMatrix};
use hc_core::fusion::gemm_run;
use hc_core::CudaSpmm;

use crate::host::timed;
use crate::trace::Tracer;
use crate::{finish_trace, setup_done, Knobs, Measured};

const HIDDEN: usize = 32;
const CLASSES: usize = 16;
const LR: f32 = 0.05;
/// Epochs compared against the CUDA-core baseline run.
const CHECK_EPOCHS: usize = 3;
/// Largest weight difference allowed after `CHECK_EPOCHS` epochs: covers
/// the Tensor path's TF32 rounding against exact f32 CUDA cores.
const WEIGHT_TOL: f32 = 1e-3;
/// Least share of an epoch's CPU time the replayed calls must cover.
const COVERAGE_FLOOR: f64 = 0.8;

struct Setup {
    a: Csr,
    x: DenseMatrix,
    labels: Vec<usize>,
    model: Gcn,
    agg: HcAggregator,
}

fn setup(seed: u64, dev: &DeviceSpec) -> Setup {
    let ds = DatasetId::YH.load_scaled(64);
    let a = ds.adj.gcn_normalize();
    let x = DenseMatrix::random_features(a.nrows, ds.spec.dim, seed);
    let labels = synthetic_labels(a.nrows, CLASSES);
    let model = Gcn::new(ds.spec.dim, HIDDEN, CLASSES, seed ^ 0x6c);
    let agg = HcAggregator::new(&a, dev);
    Setup {
        a,
        x,
        labels,
        model,
        agg,
    }
}

fn epoch(s: &mut Setup, agg: &dyn Aggregator, dev: &DeviceSpec) -> gnn::EpochTiming {
    let trainer = Trainer { lr: LR, epochs: 1 };
    trainer.train_gcn(&mut s.model, &s.a, &s.x, &s.labels, agg, dev)[0]
}

pub fn run(k: &Knobs) -> Measured {
    let dev = DeviceSpec::rtx3090();
    let mut m = Measured::default();
    let mut state = None;
    while !setup_done(&m.setup_s) {
        drop(state.take());
        let t0 = Instant::now();
        let s = setup(k.seed, &dev);
        m.setup_s.push(t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    let mut s = state.expect("at least one set-up");
    m.working_set_bytes = s.a.byte_size() + s.x.byte_size() + s.agg.plan.approx_bytes();
    m.notes.push(format!(
        "graph YH@1/64: {} rows, {} nnz, dim {}, hidden {HIDDEN}, {CLASSES} classes",
        s.a.nrows,
        s.a.nnz(),
        s.x.cols
    ));
    let init = s.model.clone();
    let agg = HcAggregator::from_plan(std::sync::Arc::clone(&s.agg.plan), true);

    // The first CHECK_EPOCHS epochs double as warm-up; their weights are
    // compared with a CUDA-core baseline run at the end.
    for _ in 0..CHECK_EPOCHS {
        let e = epoch(&mut s, &agg, &dev);
        if !e.loss.is_finite() {
            m.check_failures
                .push(format!("warm-up loss {} is not finite", e.loss));
        }
    }
    let checked = s.model.clone();

    let mut tr = Tracer::new(k.fingerprint_delay);
    let mut untraced_ms = Vec::new();
    let (mut regions, mut fallbacks, mut flops) = (0u64, 0u64, 0.0);
    let (mut sim_exec, mut blocks, mut dram) = (0.0, 0u64, 0u64);
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < k.seconds || (k.trace && tr.ops == 0) {
        n += 1;
        let traced = k.trace && n.is_multiple_of(2);
        let before = traced.then(|| s.model.clone());
        let pool0 = hc_parallel::pool_stats();
        let t = timed(|| epoch(&mut s, &agg, &dev));
        let pool1 = hc_parallel::pool_stats();
        let e = t.value;
        m.attempted += 1;
        if !e.loss.is_finite() {
            m.failed += 1;
            m.wrong += 1;
            continue;
        }
        if !k.trace {
            m.latencies_ms.push(t.wall_ms);
            m.busy_s += t.wall_ms / 1e3;
            m.sim_ms += e.forward_ms + e.backward_ms;
            continue;
        }
        let Some(mut model) = before else {
            untraced_ms.push(t.wall_ms);
            continue;
        };
        tr.record_op(t.wall_ms, t.cpu_ms);
        tr.ops += 1;
        regions += pool1.parallel_regions - pool0.parallel_regions;
        fallbacks += pool1.serial_fallbacks - pool0.serial_fallbacks;
        sim_exec += e.forward_ms + e.backward_ms;
        let r = replay_epoch(&mut tr, &mut model, &s, &agg, &dev);
        flops += r.flops;
        blocks += r.blocks;
        dram += r.dram;
    }

    // Output check: the same CHECK_EPOCHS epochs through an unfused CUDA-core
    // aggregator must land on the same weights, within TF32 rounding.
    let baseline = KernelAggregator::new(CudaSpmm::optimized());
    let mut b = Setup {
        model: init,
        agg: HcAggregator::from_plan(std::sync::Arc::clone(&s.agg.plan), true),
        ..s
    };
    for _ in 0..CHECK_EPOCHS {
        epoch(&mut b, &baseline, &dev);
    }
    let diff = b
        .model
        .w1
        .max_abs_diff(&checked.w1)
        .max(b.model.w2.max_abs_diff(&checked.w2));
    m.notes.push(format!(
        "weights after {CHECK_EPOCHS} epochs vs the CUDA-core baseline: max |diff| {diff:e} (tolerance {WEIGHT_TOL:e})"
    ));
    if diff.is_nan() || diff > WEIGHT_TOL {
        m.wrong += 1;
        m.check_failures.push(format!(
            "weights differ from the CUDA-core baseline by {diff} > {WEIGHT_TOL}"
        ));
    }

    if k.trace {
        let ops = tr.ops.max(1) as f64;
        let numeric_s = tr.inclusive_ms_per_op("core.numeric") * ops / 1e3;
        let (cuda, tensor) = b.agg.plan.pre.window_split();
        let l = &mut m.layers;
        l.insert("core.numeric_gflops", flops / numeric_s.max(1e-12) / 1e9);
        l.insert(
            "core.tensor_window_frac",
            tensor as f64 / (cuda + tensor).max(1) as f64,
        );
        l.insert(
            "sparse.meta_bytes",
            crate::spmm_hot::meta_bytes(&b.agg.plan) as f64,
        );
        l.insert("gpu_sim.sim_exec_ms", sim_exec / ops);
        l.insert("gpu_sim.blocks", blocks as f64 / ops);
        l.insert("gpu_sim.dram_mb", dram as f64 / ops / (1 << 20) as f64);
        l.insert("parallel.regions", regions as f64 / ops);
        l.insert("parallel.serial_fallbacks", fallbacks as f64 / ops);
        finish_trace(&mut m, &tr, &untraced_ms, COVERAGE_FLOOR);
    }
    m
}

struct Replayed {
    flops: f64,
    blocks: u64,
    dram: u64,
}

/// Replay one epoch of `Trainer::train_gcn` as `Gcn::forward` and
/// `Gcn::backward` compose it, on a copy of the pre-epoch model: dense
/// products, transposes and `gnn::ops` under `gnn.dense`, the aggregator's
/// `aggregate`/`agg_update` under `gnn.aggregate` (with the hybrid kernel's
/// block costs, scheduling and numeric replayed as its children), and the
/// simulated GEMM launches under `gpu_sim.schedule`.
fn replay_epoch(
    tr: &mut Tracer,
    model: &mut Gcn,
    s: &Setup,
    agg: &HcAggregator,
    dev: &DeviceSpec,
) -> Replayed {
    let (a, x) = (&s.a, &s.x);
    let mut out = Replayed {
        flops: 0.0,
        blocks: 0,
        dram: 0,
    };
    let mut kernel_children = |tr: &mut Tracer, g: &DenseMatrix| {
        let (hc, pre) = (&agg.plan.hc, &agg.plan.pre);
        let blocks = tr.span("core.block_cost", Some("gnn.aggregate"), || {
            hc.block_costs(pre, g.cols, dev)
        });
        let run = tr.span("gpu_sim.schedule", Some("gnn.aggregate"), || {
            dev.execute(&blocks)
        });
        tr.span("core.numeric", Some("gnn.aggregate"), || {
            hc.numeric(pre, a, g).data.len()
        });
        out.flops += 2.0 * a.nnz() as f64 * g.cols as f64;
        out.blocks += run.profile.blocks;
        out.dram += run.profile.dram_bytes_loaded + run.profile.dram_bytes_stored;
    };
    let gemm = |tr: &mut Tracer, m: usize, n: usize, k: usize| {
        tr.span("gpu_sim.schedule", None, || gemm_run(m, n, k, dev).time_ms);
    };

    // Forward: Update then Aggregation per layer.
    gemm(tr, x.rows, model.w1.cols, model.w1.rows);
    let xw1 = tr.span("gnn.dense", None, || x.matmul(&model.w1));
    let (z1, _) = tr.span("gnn.aggregate", None, || agg.aggregate(a, &xw1, dev));
    kernel_children(tr, &xw1);
    let (h1, _) = tr.span("gnn.dense", None, || ops::relu(&z1, dev));
    gemm(tr, h1.rows, model.w2.cols, model.w2.rows);
    let h1w2 = tr.span("gnn.dense", None, || h1.matmul(&model.w2));
    let (logits, _) = tr.span("gnn.aggregate", None, || agg.aggregate(a, &h1w2, dev));
    kernel_children(tr, &h1w2);
    let (_, dlogits, _) = tr.span("gnn.dense", None, || {
        ops::softmax_cross_entropy(&logits, &s.labels, dev)
    });

    // Backward: fused Aggregation+Update, then the weight gradients.
    let w2t = tr.span("gnn.dense", None, || model.w2.transposed());
    let f2 = tr.span("gnn.aggregate", None, || {
        agg.agg_update(a, &dlogits, &w2t, dev)
    });
    kernel_children(tr, &dlogits);
    gemm(tr, model.w2.rows, model.w2.cols, h1.rows);
    let dw2 = tr.span("gnn.dense", None, || h1.transposed().matmul(&f2.aggregated));
    let (dz1, _) = tr.span("gnn.dense", None, || ops::relu_backward(&f2.out, &h1, dev));
    let w1t = tr.span("gnn.dense", None, || model.w1.transposed());
    let f1 = tr.span("gnn.aggregate", None, || agg.agg_update(a, &dz1, &w1t, dev));
    kernel_children(tr, &dz1);
    gemm(tr, model.w1.rows, model.w1.cols, x.rows);
    let dw1 = tr.span("gnn.dense", None, || x.transposed().matmul(&f1.aggregated));
    tr.span("gnn.dense", None, || {
        ops::sgd_step(&mut model.w2, &dw2, LR, dev);
        ops::sgd_step(&mut model.w1, &dw1, LR, dev);
    });
    out
}
