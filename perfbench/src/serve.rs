//! serve-mix and serve-churn: multi-tenant `Front` traffic, read-only and
//! under edge churn with a `DurableFront`. The operation is one served
//! request; requests travel in batches (one `Front::run_events` or
//! `DurableFront::run` call), and each request's latency runs from its
//! batch's start to the call's return.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::DeviceSpec;
use graph_sparse::{
    gen, Csr, DeltaCsr, DenseMatrix, FingerprintState, RowWindowPartition, StructureFingerprint,
};
use hc_core::{execute_resilient, KernelFamily, Plan, PlanSpec, ResiliencePolicy, Validation};
use hc_serve::{
    DurabilityConfig, DurableFront, Front, FrontConfig, FrontEvent, FrontReport, FrontRequest,
    Mutation, Outcome, Request, SharedPlanCache, TenantId,
};

use crate::host::{fs_type, timed};
use crate::spmm_hot::meta_bytes;
use crate::trace::{delay_fingerprint, Tracer};
use crate::{finish_trace, setup_done, Knobs, Measured};

/// Vertices of every serving structure.
const N: usize = 16_384;
/// Undirected edges per structure (about 524k stored non-zeros).
const EDGES: usize = 262_144;
const TENANTS: u32 = 4;
const EPOCH: usize = 16;
/// Batches run before measuring, so the plan cache reaches its steady state.
const WARMUP_BATCHES: usize = 4;
/// Least share of a batch's CPU time the replayed layer calls must cover.
const COVERAGE_FLOOR: f64 = 0.7;

/// Serving structure `i`: even ids are `gen::community`, odd ids
/// `gen::social`. Fixed generator seeds: the workload seed never changes
/// a structure.
fn structure(i: usize) -> Csr {
    let seed = 0x5e7e_0000 + i as u64;
    if i.is_multiple_of(2) {
        gen::community(N, EDGES, N / 64, 0.9, seed)
    } else {
        gen::social(N, EDGES, seed)
    }
}

/// Generate structures on one thread per core; order follows `ids`.
fn structures(ids: impl Iterator<Item = usize>) -> Vec<Arc<Csr>> {
    let ids: Vec<usize> = ids.collect();
    let workers = crate::host::nproc().min(ids.len()).max(1);
    let mut out: Vec<Option<Arc<Csr>>> = vec![None; ids.len()];
    std::thread::scope(|s| {
        let chunks: Vec<_> = out
            .chunks_mut(ids.len().div_ceil(workers))
            .zip(ids.chunks(ids.len().div_ceil(workers)))
            .map(|(slots, ids)| {
                s.spawn(move || {
                    for (slot, &i) in slots.iter_mut().zip(ids) {
                        *slot = Some(Arc::new(structure(i)));
                    }
                })
            })
            .collect();
        for c in chunks {
            c.join().expect("structure generation must not panic");
        }
    });
    out.into_iter()
        .map(|g| g.expect("every structure generated"))
        .collect()
}

fn front_config() -> FrontConfig {
    FrontConfig {
        workers: crate::host::nproc(),
        queue_depth: 16,
        tenant_quota: 8,
        arrivals_per_epoch: EPOCH,
        max_cohort: 8,
        ..FrontConfig::default()
    }
}

/// SplitMix64: the seeded source of popularity, tenants, features and
/// deltas.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `n` tenant ids, balanced so no tenant exceeds its epoch quota, in a
/// seeded order.
fn tenants(rng: &mut Rng, n: usize) -> Vec<TenantId> {
    let mut t: Vec<TenantId> = (0..n).map(|i| TenantId(i as u32 % TENANTS)).collect();
    rng.shuffle(&mut t);
    t
}

fn serve(graph: &Arc<Csr>, tenant: TenantId, dim: usize, rng: &mut Rng) -> FrontEvent {
    FrontEvent::Serve(FrontRequest {
        tenant,
        request: Request {
            graph: Arc::clone(graph),
            features: DenseMatrix::random_features(graph.ncols, dim, rng.next()),
        },
    })
}

/// Per-run accounting shared by both serving workloads.
#[derive(Default)]
struct Tally {
    // Traced-run counters, per traced batch.
    requests: u64,
    hits: u64,
    lookups: u64,
    evictions: u64,
    cohorted: u64,
    completed: u64,
    retries: u64,
    sim_exec: f64,
    sim_prepare: f64,
    blocks: u64,
    dram: u64,
    flops: f64,
    tensor_frac: f64,
    members: u64,
    ws_builds: u64,
    ws_reuses: u64,
    regions: u64,
    fallbacks: u64,
    mutations: u64,
    patched: u64,
    wal_bytes: u64,
    untraced_ms: Vec<f64>,
}

/// Fold one batch's report into the run: failures, sampled output checks,
/// latencies and simulated time.
fn account(
    m: &mut Measured,
    events: &[FrontEvent],
    report: &FrontReport,
    batch_ms: f64,
    rng: &mut Rng,
    measured: bool,
) {
    let tol = Validation::default().tol;
    let check = rng.below(report.responses.len().max(1));
    for (i, r) in report.responses.iter().enumerate() {
        let FrontEvent::Serve(fr) = &events[r.trace_index] else {
            unreachable!("responses answer serve events");
        };
        let wrong = match r.z() {
            Some(z) if i == check => {
                let err = fr
                    .request
                    .graph
                    .spmm_reference(&fr.request.features)
                    .max_abs_diff(z);
                err.is_nan() || err > tol
            }
            Some(_) => false,
            None => true,
        };
        if !measured {
            if wrong {
                m.check_failures.push(format!(
                    "warm-up request {} failed: {:?}",
                    r.trace_index, r.outcome
                ));
            }
            continue;
        }
        m.attempted += 1;
        if wrong {
            m.failed += 1;
            if r.z().is_some() {
                m.wrong += 1;
            }
            continue;
        }
        m.latencies_ms.push(batch_ms);
        m.sim_ms += r.latency_sim_ms;
        m.stale += r.stale as u64;
    }
    if measured {
        m.busy_s += batch_ms / 1e3;
    }
}

/// Replay the layer calls one batch made, epoch by epoch in the order the
/// front composes them: screening (`Csr::validate`), cohort fingerprints,
/// one `SharedPlanCache::lookup` per cohort (its fingerprint, and on a
/// miss `Plan::prepare`), `execute_resilient` per member, and at the epoch
/// barrier each mutation's fingerprints and `Plan::patch`.
///
/// `plans` holds the plans resident before the batch ran, by fingerprint;
/// replayed prepares and patches are added as they happen.
fn replay(
    tr: &mut Tracer,
    t: &mut Tally,
    events: &[FrontEvent],
    report: &FrontReport,
    plans: &mut HashMap<StructureFingerprint, Arc<Plan>>,
    dev: &DeviceSpec,
    policy: &ResiliencePolicy,
) {
    let mut epochs: BTreeMap<usize, BTreeMap<u64, Vec<usize>>> = BTreeMap::new();
    for (i, r) in report.responses.iter().enumerate() {
        if let Some(c) = r.cohort {
            epochs
                .entry(r.epoch)
                .or_default()
                .entry(c)
                .or_default()
                .push(i);
        }
    }
    let serve_of = |ti: usize| match &events[ti] {
        FrontEvent::Serve(fr) => fr,
        FrontEvent::Mutate(_) => unreachable!("cohort members are serve events"),
    };
    let mutations: Vec<_> = report.mutations.iter().collect();
    for (epoch, cohorts) in epochs {
        let epoch_mutations: Vec<&Mutation> = mutations
            .iter()
            .filter(|mo| mo.epoch == epoch)
            .map(|mo| match &events[mo.trace_index] {
                FrontEvent::Mutate(mu) => mu,
                FrontEvent::Serve(_) => unreachable!("mutation outcomes answer mutations"),
            })
            .collect();
        for mu in &epoch_mutations {
            tr.fingerprint(None, &mu.base); // marked stale at admission
        }
        let mut members: Vec<usize> = cohorts.values().flatten().copied().collect();
        members.sort_by_key(|&i| report.responses[i].trace_index);
        for &i in &members {
            let g = &serve_of(report.responses[i].trace_index).request.graph;
            tr.span("sparse.validate", None, || g.validate().is_ok());
        }
        for &i in &members {
            tr.fingerprint(
                None,
                &serve_of(report.responses[i].trace_index).request.graph,
            );
        }
        for idx in cohorts.values() {
            let first = &report.responses[idx[0]];
            let g = &serve_of(first.trace_index).request.graph;
            tr.fingerprint(None, g);
            let fp = StructureFingerprint::of(g);
            let plan = if first.hit {
                match plans.get(&fp) {
                    Some(p) => Arc::clone(p),
                    None => warm_plan(g, serve_of(first.trace_index).request.features.cols, dev),
                }
            } else {
                let p = Arc::new(tr.span("core.prepare", None, || {
                    Plan::prepare(g, PlanSpec::hybrid(), dev)
                }));
                tr.span("sparse.fingerprint", Some("core.prepare"), || {
                    FingerprintState::of(g).fingerprint()
                });
                tr.span("core.classify", Some("core.prepare"), || {
                    p.hc.preprocess(g, dev).choices.len()
                });
                tr.span("sparse.window_build", Some("core.classify"), || {
                    RowWindowPartition::build(g).len()
                });
                plans.insert(fp, Arc::clone(&p));
                p
            };
            let (cuda, tensor) = plan.pre.window_split();
            for (k, &i) in idx.iter().enumerate() {
                let fr = serve_of(report.responses[i].trace_index);
                let (g, x) = (&fr.request.graph, &fr.request.features);
                let cold = !first.hit && k == 0;
                let w0 = plan.workspace_stats();
                let delay = tr.fingerprint_delay;
                let run = tr.span("core.validate", None, || {
                    let run = execute_resilient(&plan, g, x, dev, policy);
                    delay_fingerprint(delay, g);
                    run
                });
                let w1 = plan.workspace_stats();
                t.ws_builds += w1.cost_builds - w0.cost_builds;
                t.ws_reuses += w1.cost_reuses - w0.cost_reuses;
                if let Ok(r) = &run.result {
                    t.blocks += r.run.profile.blocks;
                    t.dram += r.run.profile.dram_bytes_loaded + r.run.profile.dram_bytes_stored;
                }
                drop(run);
                tr.fingerprint(Some("core.validate"), g);
                let dim = x.cols;
                let blocks = tr.span("core.block_cost", Some("core.validate"), || {
                    if cold {
                        Arc::new(plan.hc.block_costs(&plan.pre, dim, dev))
                    } else {
                        plan.workspace
                            .block_costs(KernelFamily::Hybrid, dim, dev.kind, || {
                                plan.hc.block_costs(&plan.pre, dim, dev)
                            })
                    }
                });
                tr.span("gpu_sim.schedule", Some("core.validate"), || {
                    dev.execute(&blocks)
                });
                tr.span("core.numeric", Some("core.validate"), || {
                    plan.hc.numeric(&plan.pre, g, x).data.len()
                });
                t.flops += 2.0 * g.nnz() as f64 * dim as f64;
                t.tensor_frac += tensor as f64 / (cuda + tensor).max(1) as f64;
                t.members += 1;
            }
        }
        for mu in epoch_mutations {
            tr.fingerprint(None, &mu.base); // the barrier's old fingerprint
            let fp = StructureFingerprint::of(&mu.base);
            let Some(old) = plans.get(&fp).cloned() else {
                continue;
            };
            let delay = tr.fingerprint_delay;
            let patched = tr.span("core.patch", None, || {
                let p = old.patch(&mu.base, &mu.delta, dev);
                delay_fingerprint(delay, &mu.base);
                p
            });
            tr.fingerprint(Some("core.patch"), &mu.base);
            tr.span("sparse.delta_apply", Some("core.patch"), || {
                mu.delta.apply(&mu.base).map_or(0, |g| g.nnz())
            });
            if let Ok(p) = patched {
                plans.insert(p.fingerprint, Arc::new(p));
            }
        }
    }
}

/// A warm plan for a hit the replay has no plan for: one resident before
/// the batch, replay-prepared or replay-patched always covers a hit, so this
/// is a fallback only. Prepared and executed once at width `dim`, untimed.
fn warm_plan(g: &Csr, dim: usize, dev: &DeviceSpec) -> Arc<Plan> {
    let p = Plan::prepare(g, PlanSpec::hybrid(), dev);
    let x = DenseMatrix::random_features(g.ncols, dim, 0);
    drop(p.execute(g, &x, dev));
    Arc::new(p)
}

/// Resident plans for every structure a batch touches, before it runs.
fn resident(
    cache: &SharedPlanCache,
    events: &[FrontEvent],
) -> HashMap<StructureFingerprint, Arc<Plan>> {
    let mut out = HashMap::new();
    for ev in events {
        let g = match ev {
            FrontEvent::Serve(fr) => &fr.request.graph,
            FrontEvent::Mutate(mu) => &mu.base,
        };
        let fp = StructureFingerprint::of(g);
        if let Some(p) = cache.peek(fp) {
            out.insert(fp, p);
        }
    }
    out
}

/// The self-test's known delay, emulated for one batch: the delay of
/// [`delay_fingerprint`] for every `StructureFingerprint::of` pass the
/// program made (cohort formation
/// and `execute_resilient` per member, the lookup per cohort, admission and
/// barrier per mutation and `Plan::patch`'s base check, and the durable
/// front's pass over every event).
fn fingerprint_delay(events: &[FrontEvent], report: &FrontReport, durable: bool) {
    let mut cohorts = std::collections::HashSet::new();
    for r in &report.responses {
        let Some(c) = r.cohort else { continue };
        let FrontEvent::Serve(fr) = &events[r.trace_index] else {
            continue;
        };
        let passes = if cohorts.insert(c) { 3 } else { 2 };
        for _ in 0..passes {
            delay_fingerprint(true, &fr.request.graph);
        }
    }
    for mo in &report.mutations {
        if let FrontEvent::Mutate(mu) = &events[mo.trace_index] {
            for _ in 0..2 + mo.patched as usize {
                delay_fingerprint(true, &mu.base);
            }
        }
    }
    // `DurableFront::run` fingerprints every event's graph once more.
    if durable {
        for ev in events {
            let g = match ev {
                FrontEvent::Serve(fr) => &fr.request.graph,
                FrontEvent::Mutate(mu) => &mu.base,
            };
            delay_fingerprint(true, g);
        }
    }
}

fn counters_into(t: &mut Tally, report: &FrontReport) {
    t.cohorted += report.counters.cohorted_requests;
    t.completed += report.counters.completed;
    for r in &report.responses {
        t.requests += 1;
        t.sim_exec += r.exec_sim_ms;
        t.sim_prepare += r.prepare_sim_ms;
        if let Outcome::Degraded { retries, .. } = &r.outcome {
            t.retries += *retries as u64;
        }
    }
    t.mutations += report.mutations.len() as u64;
    t.patched += report.mutations.iter().filter(|mo| mo.patched).count() as u64;
}

fn layers_into(
    m: &mut Measured,
    tr: &Tracer,
    t: &Tally,
    cache: &SharedPlanCache,
    graphs: &[Arc<Csr>],
) {
    let ops = t.requests.max(1) as f64;
    let numeric_s = tr.inclusive_ms_per_op("core.numeric") * tr.ops as f64 / 1e3;
    let meta: u64 = graphs
        .iter()
        .filter_map(|g| cache.peek(StructureFingerprint::of(g)))
        .map(|p| meta_bytes(&p))
        .sum();
    let l = &mut m.layers;
    l.insert("sparse.meta_bytes", meta as f64);
    l.insert("core.numeric_gflops", t.flops / numeric_s.max(1e-12) / 1e9);
    l.insert("core.retries", t.retries as f64 / ops);
    l.insert(
        "core.tensor_window_frac",
        t.tensor_frac / t.members.max(1) as f64,
    );
    l.insert(
        "core.workspace_hit_rate",
        t.ws_reuses as f64 / (t.ws_builds + t.ws_reuses).max(1) as f64,
    );
    l.insert("gpu_sim.blocks", t.blocks as f64 / ops);
    l.insert("gpu_sim.dram_mb", t.dram as f64 / ops / (1 << 20) as f64);
    l.insert("gpu_sim.sim_exec_ms", t.sim_exec / ops);
    l.insert("gpu_sim.sim_prepare_ms", t.sim_prepare / ops);
    l.insert("parallel.regions", t.regions as f64 / ops);
    l.insert("parallel.serial_fallbacks", t.fallbacks as f64 / ops);
    l.insert("serve.hit_rate", t.hits as f64 / t.lookups.max(1) as f64);
    l.insert("serve.evictions", t.evictions as f64 / ops);
    l.insert(
        "serve.cohort_rate",
        t.cohorted as f64 / t.completed.max(1) as f64,
    );
    l.insert("serve.plan_bytes", cache.bytes_used() as f64);
    if t.mutations > 0 {
        l.insert("serve.patched_frac", t.patched as f64 / t.mutations as f64);
        l.insert("serve.wal_bytes", t.wal_bytes as f64 / ops);
    }
}

/// Run one batch as a traced operation (the program's call, timed whole),
/// then replay its layer calls. Returns the report and the call's wall and
/// CPU ms.
#[allow(clippy::too_many_arguments)]
fn traced_batch(
    k: &Knobs,
    tr: &mut Tracer,
    t: &mut Tally,
    cache: &SharedPlanCache,
    events: &[FrontEvent],
    dev: &DeviceSpec,
    durable: bool,
    call: &mut dyn FnMut(&[FrontEvent]) -> FrontReport,
) -> (FrontReport, f64, f64) {
    let mut plans = resident(cache, events);
    let stats0 = cache.stats();
    let pool0 = hc_parallel::pool_stats();
    let op = timed(|| {
        let report = call(events);
        if k.fingerprint_delay {
            fingerprint_delay(events, &report, durable);
        }
        report
    });
    let pool1 = hc_parallel::pool_stats();
    let stats1 = cache.stats();
    tr.record_op(op.wall_ms, op.cpu_ms);
    tr.ops += op.value.responses.len() as u64;
    t.regions += pool1.parallel_regions - pool0.parallel_regions;
    t.fallbacks += pool1.serial_fallbacks - pool0.serial_fallbacks;
    t.hits += stats1.hits - stats0.hits;
    t.lookups += (stats1.hits + stats1.misses) - (stats0.hits + stats0.misses);
    t.evictions += stats1.evictions - stats0.evictions;
    counters_into(t, &op.value);
    replay(
        tr,
        t,
        events,
        &op.value,
        &mut plans,
        dev,
        &front_config().policy,
    );
    (op.value, op.wall_ms, op.cpu_ms)
}

/// Requests per stratified popularity cycle of serve-mix.
const ZIPF_CYCLE: usize = 256;

/// Rank ids of one popularity cycle: `len` requests, rank `r` (0-based)
/// appearing in proportion to `1 / (r + 1)`, every rank at least once.
fn zipf_cycle(ranks: usize, len: usize) -> Vec<usize> {
    let total: f64 = (1..=ranks).map(|r| 1.0 / r as f64).sum();
    let share: Vec<f64> = (1..=ranks)
        .map(|r| len as f64 / (r as f64 * total))
        .collect();
    let mut count: Vec<usize> = share.iter().map(|s| (s.floor() as usize).max(1)).collect();
    let mut order: Vec<usize> = (0..ranks).collect();
    order.sort_by(|&a, &b| (share[b] - share[b].floor()).total_cmp(&(share[a] - share[a].floor())));
    for &r in order
        .iter()
        .cycle()
        .take(len.saturating_sub(count.iter().sum()))
    {
        count[r] += 1;
    }
    count
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
        .collect()
}

pub fn run_mix(k: &Knobs) -> Measured {
    const STRUCTURES: usize = 48;
    const DIM: usize = 8;
    let dev = DeviceSpec::rtx3090();
    let mut m = Measured::default();
    let mut setup = None;
    while !setup_done(&m.setup_s) {
        drop(setup.take());
        let t0 = Instant::now();
        let graphs = structures(0..STRUCTURES);
        // Plan bytes of one structure of each class size the cache budget
        // to about a third of all 48 plans.
        let probe: u64 = graphs[..2]
            .iter()
            .map(|g| Plan::prepare(g, PlanSpec::hybrid(), &dev).approx_bytes())
            .sum();
        let budget = probe * STRUCTURES as u64 / 2 / 3;
        let front = Front::new(budget, PlanSpec::hybrid(), 1, front_config());
        m.setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some((graphs, front, budget));
    }
    let (graphs, front, budget) = setup.expect("at least one set-up");
    m.working_set_bytes = graphs.iter().map(|g| g.byte_size()).sum::<u64>() + budget;
    m.notes.push(format!(
        "structures: {STRUCTURES} x {N} rows, {} nnz (community) / {} nnz (social), dim {DIM}; \
         cache budget {:.1} MB",
        graphs[0].nnz(),
        graphs[1].nnz(),
        budget as f64 / (1 << 20) as f64
    ));

    // Zipf(1) popularity over ranks; ranks alternate the two classes and
    // the seed permutes structures within each class. Draws are stratified:
    // every cycle of ZIPF_CYCLE requests holds each rank exactly its Zipf
    // share (largest-remainder rounding, at least once), in seeded order,
    // so runs differ in order, not in composition.
    let mut rng = Rng::new(k.seed);
    let mut even: Vec<usize> = (0..STRUCTURES).step_by(2).collect();
    let mut odd: Vec<usize> = (1..STRUCTURES).step_by(2).collect();
    rng.shuffle(&mut even);
    rng.shuffle(&mut odd);
    let by_rank: Vec<usize> = (0..STRUCTURES)
        .map(|r| if r % 2 == 0 { even[r / 2] } else { odd[r / 2] })
        .collect();
    let cycle = zipf_cycle(STRUCTURES, ZIPF_CYCLE);
    let mut pending: Vec<usize> = Vec::new();
    let next_batch = |rng: &mut Rng, pending: &mut Vec<usize>| -> Vec<FrontEvent> {
        tenants(rng, EPOCH)
            .into_iter()
            .map(|tenant| {
                if pending.is_empty() {
                    *pending = cycle.clone();
                    rng.shuffle(pending);
                }
                let rank = pending.pop().expect("refilled above");
                serve(&graphs[by_rank[rank]], tenant, DIM, rng)
            })
            .collect()
    };

    let mut tr = Tracer::new(k.fingerprint_delay);
    let mut t = Tally::default();
    for _ in 0..WARMUP_BATCHES {
        let events = next_batch(&mut rng, &mut pending);
        let report = front.run_events(&events, &dev);
        account(&mut m, &events, &report, 0.0, &mut rng, false);
    }
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < k.seconds || (k.trace && tr.ops == 0) {
        let events = next_batch(&mut rng, &mut pending);
        n += 1;
        if k.trace && n.is_multiple_of(2) {
            let (report, wall_ms, _) = traced_batch(
                k,
                &mut tr,
                &mut t,
                front.cache(),
                &events,
                &dev,
                false,
                &mut |ev| front.run_events(ev, &dev),
            );
            account(&mut m, &events, &report, wall_ms, &mut rng, true);
            continue;
        }
        let tm = timed(|| {
            let report = front.run_events(&events, &dev);
            if k.fingerprint_delay {
                fingerprint_delay(&events, &report, false);
            }
            report
        });
        if k.trace {
            t.untraced_ms.push(tm.wall_ms);
        }
        account(&mut m, &events, &tm.value, tm.wall_ms, &mut rng, true);
    }
    if k.trace {
        layers_into(&mut m, &tr, &t, front.cache(), &graphs);
        trace_finish(&mut m, &tr, &t);
    }
    m
}

fn trace_finish(m: &mut Measured, tr: &Tracer, t: &Tally) {
    finish_trace(m, tr, &t.untraced_ms, COVERAGE_FLOOR);
    // Plan::prepare is reported inclusive of its children.
    m.layers
        .insert("core.prepare_ms", tr.inclusive_ms_per_op("core.prepare"));
}

/// Scratch directory for the WAL and snapshots, inside the working
/// directory; removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> ScratchDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let p = PathBuf::from(".bench_tmp").join(format!("churn-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&p).expect("the working directory must be writable");
        ScratchDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// A delta of 16 deletes and 16 inserts spread over the rows of `g`.
fn churn_delta(g: &Csr, rng: &mut Rng) -> DeltaCsr {
    const EACH: usize = 16;
    let band = g.nrows / EACH;
    let mut deletes = Vec::with_capacity(EACH);
    let mut inserts = Vec::with_capacity(EACH);
    for j in 0..EACH {
        let mut r = j * band + rng.below(band);
        while g.row_cols(r).is_empty() {
            r = (r + 1) % g.nrows;
        }
        let cols = g.row_cols(r);
        deletes.push((r as u32, cols[rng.below(cols.len())]));
        let r = j * band + rng.below(band);
        let present = g.row_cols(r);
        let c = loop {
            let c = rng.below(g.ncols) as u32;
            if present.binary_search(&c).is_err() {
                break c;
            }
        };
        inserts.push((r as u32, c, 1.0));
    }
    deletes.sort_unstable();
    deletes.dedup();
    inserts.sort_unstable_by_key(|&(r, c, _)| (r, c));
    inserts.dedup_by_key(|&mut (r, c, _)| (r, c));
    DeltaCsr::new(g.nrows, g.ncols, inserts, deletes).expect("spread deltas are well formed")
}

pub fn run_churn(k: &Knobs) -> Measured {
    const STRUCTURES: usize = 8;
    const DIM: usize = 16;
    /// Epochs per `DurableFront::run` call; one snapshot each.
    const SESSION_EPOCHS: usize = 4;
    let dev = DeviceSpec::rtx3090();
    let mut m = Measured::default();
    let dir = ScratchDir::new();
    let cfg = DurabilityConfig {
        wal_path: dir.path().join("front.wal"),
        snapshot_path: dir.path().join("front.snap"),
        snapshot_every: SESSION_EPOCHS as u64,
    };
    let mut setup = None;
    while !setup_done(&m.setup_s) {
        drop(setup.take());
        let t0 = Instant::now();
        let graphs = structures((0..STRUCTURES).map(|i| 2 * i));
        let plan_bytes: u64 = graphs
            .iter()
            .map(|g| Plan::prepare(g, PlanSpec::hybrid(), &dev).approx_bytes())
            .sum();
        // Room for every plan twice over: patched plans never evict.
        let cache = Arc::new(SharedPlanCache::new(2 * plan_bytes, PlanSpec::hybrid(), 1));
        let durable = DurableFront::create(
            Front::with_cache(Arc::clone(&cache), front_config()),
            cfg.clone(),
        )
        .expect("the WAL must be creatable");
        m.setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some((graphs, cache, durable, plan_bytes));
    }
    let (mut graphs, cache, durable, plan_bytes) = setup.expect("at least one set-up");
    drop(durable);
    m.working_set_bytes = graphs.iter().map(|g| g.byte_size()).sum::<u64>() + plan_bytes;
    m.notes.push(format!(
        "structures: {STRUCTURES} x {N} rows, {} nnz, dim {DIM}; WAL and snapshots in {} ({})",
        graphs[0].nnz(),
        dir.path().display(),
        fs_type(dir.path())
    ));

    let mut rng = Rng::new(k.seed);
    // One session: SESSION_EPOCHS epochs of 16 events; every 8th event is
    // a mutation. The two mutations of an epoch hit distinct structures;
    // requests see a mutation's result from the next epoch on.
    let next_session = |rng: &mut Rng, graphs: &mut Vec<Arc<Csr>>| -> Vec<FrontEvent> {
        let mut events = Vec::with_capacity(SESSION_EPOCHS * EPOCH);
        for _ in 0..SESSION_EPOCHS {
            let mut ts = tenants(rng, EPOCH - EPOCH / 8).into_iter();
            // Every structure once, plus distinct extras for the other
            // serve slots, in seeded order.
            let mut extra: Vec<usize> = (0..STRUCTURES).collect();
            rng.shuffle(&mut extra);
            let mut picks: Vec<usize> = (0..STRUCTURES)
                .chain(extra.into_iter().take(EPOCH - EPOCH / 8 - STRUCTURES))
                .collect();
            rng.shuffle(&mut picks);
            let mut picks = picks.into_iter();
            let first = rng.below(STRUCTURES);
            let second = (first + 1 + rng.below(STRUCTURES - 1)) % STRUCTURES;
            let mut targets = [first, second].into_iter();
            let mut applied = Vec::new();
            for slot in 0..EPOCH {
                if (slot + 1) % 8 == 0 {
                    let s = targets.next().expect("two mutations per epoch");
                    let base = Arc::clone(&graphs[s]);
                    let delta = churn_delta(&base, rng);
                    applied.push((s, delta.apply(&base).expect("delta matches its base")));
                    events.push(FrontEvent::Mutate(Mutation { base, delta }));
                } else {
                    let s = picks.next().expect("one structure per serve slot");
                    let tenant = ts.next().expect("one tenant per serve slot");
                    events.push(serve(&graphs[s], tenant, DIM, rng));
                }
            }
            for (s, g) in applied {
                graphs[s] = Arc::new(g);
            }
        }
        events
    };

    // The traced run keeps a plain front on a second cache in lockstep: it
    // serves every session too, so its run of a traced session starts from
    // the same state and the durable layer's cost is the difference.
    let shadow = k
        .trace
        .then(|| Front::new(2 * plan_bytes, PlanSpec::hybrid(), 1, front_config()));
    let mut run_session = |events: &[FrontEvent]| -> FrontReport {
        let mut df = DurableFront::create(
            Front::with_cache(Arc::clone(&cache), front_config()),
            cfg.clone(),
        )
        .expect("the WAL must be creatable");
        let attempt = df.run(events, &dev).expect("durable serving must not fail");
        attempt.report.expect("no crash is injected")
    };
    let mut tr = Tracer::new(k.fingerprint_delay);
    let mut t = Tally::default();
    for _ in 0..WARMUP_BATCHES / SESSION_EPOCHS {
        let events = next_session(&mut rng, &mut graphs);
        let report = run_session(&events);
        if let Some(s) = &shadow {
            s.run_events(&events, &dev);
        }
        account(&mut m, &events, &report, 0.0, &mut rng, false);
    }
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < k.seconds || (k.trace && tr.ops == 0) {
        let events = next_session(&mut rng, &mut graphs);
        n += 1;
        if k.trace && n.is_multiple_of(2) {
            let shadow = shadow.as_ref().expect("traced runs keep a shadow front");
            let (report, wall_ms, cpu_ms) = traced_batch(
                k,
                &mut tr,
                &mut t,
                &cache,
                &events,
                &dev,
                true,
                &mut run_session,
            );
            let plain = timed(|| {
                let report = shadow.run_events(&events, &dev);
                if k.fingerprint_delay {
                    fingerprint_delay(&events, &report, false);
                }
            });
            tr.record_span(
                "serve.durable_overhead",
                None,
                wall_ms - plain.wall_ms,
                cpu_ms - plain.cpu_ms,
            );
            t.wal_bytes += std::fs::metadata(&cfg.wal_path).map_or(0, |md| md.len());
            account(&mut m, &events, &report, wall_ms, &mut rng, true);
            continue;
        }
        let tm = timed(|| {
            let report = run_session(&events);
            if k.fingerprint_delay {
                fingerprint_delay(&events, &report, true);
            }
            report
        });
        if let Some(s) = &shadow {
            s.run_events(&events, &dev);
        }
        if k.trace {
            t.untraced_ms.push(tm.wall_ms);
        }
        account(&mut m, &events, &tm.value, tm.wall_ms, &mut rng, true);
    }
    if k.trace {
        layers_into(&mut m, &tr, &t, &cache, &graphs);
        trace_finish(&mut m, &tr, &t);
    }
    m
}
