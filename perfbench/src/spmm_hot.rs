//! spmm-hot: warm-plan SpMM. One `Plan::prepare(hybrid)` per graph in
//! set-up, then round-robin `Plan::execute` calls. The operation is one
//! `Plan::execute`.

use std::time::Instant;

use gpu_sim::DeviceSpec;
use graph_sparse::{Csr, DatasetId, DenseMatrix};
use hc_core::{KernelFamily, Plan, PlanSpec, Validation};

use crate::host::timed;
use crate::trace::{delay_fingerprint, Tracer};
use crate::{setup_done, Knobs, Measured};

/// Five structure classes, each at the scale divisor whose GCN-normalized
/// analogue is nearest 300k non-zeros, with registry feature widths.
const GRAPHS: [(DatasetId, usize); 5] = [
    (DatasetId::PT, 1),
    (DatasetId::AZ, 12),
    (DatasetId::YH, 32),
    (DatasetId::RD, 64),
    (DatasetId::TT, 64),
];

struct Case {
    name: &'static str,
    a: Csr,
    x: DenseMatrix,
    plan: Plan,
}

fn setup(seed: u64, dev: &DeviceSpec) -> Vec<Case> {
    GRAPHS
        .iter()
        .enumerate()
        .map(|(i, &(id, scale))| {
            let ds = id.load_scaled(scale);
            let a = ds.adj.gcn_normalize();
            let x = DenseMatrix::random_features(a.ncols, ds.spec.dim, seed ^ (i as u64 + 1));
            let plan = Plan::prepare(&a, PlanSpec::hybrid(), dev);
            Case {
                name: id.code(),
                a,
                x,
                plan,
            }
        })
        .collect()
}

/// FNV-1a over the output's bits: repeats must be bit-identical.
fn digest(z: &DenseMatrix) -> u64 {
    z.data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits() as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

pub fn run(k: &Knobs) -> Measured {
    let dev = DeviceSpec::rtx3090();
    let mut m = Measured::default();
    let mut cases = Vec::new();
    while !setup_done(&m.setup_s) {
        drop(std::mem::take(&mut cases));
        let t = Instant::now();
        cases = setup(k.seed, &dev);
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let tol = Validation::default().tol;
    for c in &cases {
        m.working_set_bytes += c.a.byte_size() + 2 * c.x.byte_size() + c.plan.approx_bytes();
        m.notes.push(format!(
            "graph {}: {} rows, {} nnz, dim {}",
            c.name,
            c.a.nrows,
            c.a.nnz(),
            c.x.cols
        ));
    }

    // Warm-up round: fills each plan's block-cost cache and checks each
    // graph's output against the CPU reference once. Later repeats must
    // reproduce that output and its simulated time bit for bit.
    let mut expect: Vec<(u64, u64)> = Vec::new();
    for c in &cases {
        let r = c.plan.execute(&c.a, &c.x, &dev);
        let err = c.a.spmm_reference(&c.x).max_abs_diff(&r.z);
        if err.is_nan() || err > tol {
            m.wrong += 1;
            m.check_failures.push(format!(
                "{}: max |z - reference| {err} exceeds the Tensor-path tolerance {tol}",
                c.name
            ));
        }
        expect.push((digest(&r.z), r.run.time_ms.to_bits()));
    }

    let mut tr = Tracer::new(k.fingerprint_delay);
    let mut untraced_ms = Vec::new();
    let (mut flops, mut blocks, mut dram, mut sim_exec) = (0.0, 0u64, 0u64, 0.0);
    let (mut regions, mut fallbacks, mut tensor_frac) = (0u64, 0u64, 0.0);
    let ws0: Vec<_> = cases.iter().map(|c| c.plan.workspace_stats()).collect();
    let start = Instant::now();
    let mut i = k.seed as usize % cases.len();
    let mut n = 0u64;
    m.latency_classes = cases.iter().map(|c| (c.name, Vec::new())).collect();
    while start.elapsed().as_secs_f64() < k.seconds || (k.trace && tr.ops == 0) {
        let ci = i;
        let c = &cases[ci];
        i = (i + 1) % cases.len();
        n += 1;
        let traced = k.trace && n.is_multiple_of(2);
        let pool0 = hc_parallel::pool_stats();
        let t = timed(|| {
            let r = c.plan.execute(&c.a, &c.x, &dev);
            delay_fingerprint(k.fingerprint_delay, &c.a);
            r
        });
        let pool1 = hc_parallel::pool_stats();
        let r = t.value;
        m.attempted += 1;
        let ok = (digest(&r.z), r.run.time_ms.to_bits()) == expect[ci];
        if !ok {
            m.failed += 1;
            m.wrong += 1;
        }
        if !k.trace {
            m.latencies_ms.push(t.wall_ms);
            m.latency_classes[ci].1.push(t.wall_ms);
            m.busy_s += t.wall_ms / 1e3;
            m.sim_ms += r.run.time_ms;
            continue;
        }
        if !traced {
            untraced_ms.push(t.wall_ms);
            continue;
        }
        tr.record_op(t.wall_ms, t.cpu_ms);
        tr.ops += 1;
        regions += pool1.parallel_regions - pool0.parallel_regions;
        fallbacks += pool1.serial_fallbacks - pool0.serial_fallbacks;
        blocks += r.run.profile.blocks;
        dram += r.run.profile.dram_bytes_loaded + r.run.profile.dram_bytes_stored;
        sim_exec += r.run.time_ms;
        // Free the output first, so the replay allocates as the call did.
        drop(r);
        let (cuda, tensor) = c.plan.pre.window_split();
        tensor_frac += tensor as f64 / (cuda + tensor).max(1) as f64;
        // Replay Plan::execute's layer calls in its order.
        tr.fingerprint(None, &c.a);
        let dim = c.x.cols;
        let costs = tr.span("core.block_cost", None, || {
            c.plan
                .workspace
                .block_costs(KernelFamily::Hybrid, dim, dev.kind, || {
                    c.plan.hc.block_costs(&c.plan.pre, dim, &dev)
                })
        });
        tr.span("gpu_sim.schedule", None, || dev.execute(&costs));
        tr.span("core.numeric", None, || {
            std::hint::black_box(c.plan.hc.numeric(&c.plan.pre, &c.a, &c.x))
        });
        flops += 2.0 * c.a.nnz() as f64 * dim as f64;
    }

    if k.trace {
        let ops = tr.ops.max(1) as f64;
        let ws: hc_core::WorkspaceStats =
            cases
                .iter()
                .zip(&ws0)
                .fold(Default::default(), |mut acc, (c, w0)| {
                    let w = c.plan.workspace_stats();
                    acc.cost_builds += w.cost_builds - w0.cost_builds;
                    acc.cost_reuses += w.cost_reuses - w0.cost_reuses;
                    acc
                });
        let layers = &mut m.layers;
        let numeric_s = tr.inclusive_ms_per_op("core.numeric") * ops / 1e3;
        layers.insert("core.numeric_gflops", flops / numeric_s.max(1e-12) / 1e9);
        layers.insert(
            "sparse.meta_bytes",
            cases.iter().map(|c| meta_bytes(&c.plan)).sum::<u64>() as f64,
        );
        layers.insert("core.tensor_window_frac", tensor_frac / ops);
        layers.insert("core.workspace_hit_rate", ws.cost_hit_rate());
        layers.insert("gpu_sim.blocks", blocks as f64 / ops);
        layers.insert("gpu_sim.dram_mb", dram as f64 / ops / (1 << 20) as f64);
        layers.insert("gpu_sim.sim_exec_ms", sim_exec / ops);
        layers.insert("parallel.regions", regions as f64 / ops);
        layers.insert("parallel.serial_fallbacks", fallbacks as f64 / ops);
        crate::finish_trace(&mut m, &tr, &untraced_ms, COVERAGE_FLOOR);
    }
    m
}

/// Least share of `Plan::execute`'s CPU time that fingerprint + block-cost
/// lookup + scheduling + numeric must account for.
const COVERAGE_FLOOR: f64 = 0.8;

/// Encoded `TileMeta` bytes of a plan's windows.
pub fn meta_bytes(plan: &Plan) -> u64 {
    plan.pre
        .partition
        .windows
        .iter()
        .map(|w| w.meta.encoded_bytes() as u64)
        .sum()
}
