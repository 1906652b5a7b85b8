//! Machine-readable bench metrics: the `BENCH.json` report emitted by
//! `run_all`, plus the perf-regression gate that compares a fresh report
//! against the committed baseline in CI.
//!
//! The container has no crates.io access (the `serde` shim has no
//! serializer backend), so the JSON here is hand-rolled: a small writer
//! with string escaping and a minimal recursive-descent parser covering
//! exactly the subset the report uses.
//!
//! ## `BENCH.json` schema (version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "scale": 1024,
//!   "threads": 8,
//!   "experiments": [
//!     {"name": "fig10_spmm", "wall_ms": 123.4, "cpu_ms": 119.7}
//!   ],
//!   "kernels": [
//!     {"family": "hybrid", "dataset": "CR", "serial_ms": 80.1,
//!      "parallel_ms": 11.9, "speedup": 6.73, "bit_identical": true,
//!      "serial_fallback": false}
//!   ],
//!   "plan_cache": {"requests": 48, "hits": 44, "misses": 4,
//!                  "evictions": 0, "hit_rate": 0.9167,
//!                  "cold_ms": 1.92, "amortized_ms": 0.31},
//!   "fault_recovery": {"requests": 32, "ok": 24, "degraded": 8,
//!                      "failed": 0, "retries": 5, "fallbacks": 3,
//!                      "quarantined": 1, "degraded_rate": 0.25,
//!                      "wasted_sim_ms": 0.42},
//!   "hot_path": {"requests": 64, "cost_builds": 1, "cost_reuses": 63,
//!                "scratch_allocs": 1, "scratch_reuses": 63,
//!                "allocs_per_request": 0.031, "parallel_regions": 0,
//!                "serial_fallbacks": 128, "warm_ms": 0.4, "cold_ms": 2.1},
//!   "serving_load": {"submitted": 96, "admitted": 84, "rejected_queue": 8,
//!                    "rejected_quota": 4, "served": 84, "cohorts": 24,
//!                    "cohort_rate": 0.86, "p50_sim_ms": 1.2,
//!                    "p99_sim_ms": 4.7, "amortized_sim_ms": 0.9,
//!                    "uncohorted_sim_ms": 2.8, "tenants": [
//!      {"tenant": 0, "submitted": 24, "admitted": 20, "rejected": 4,
//!       "slo_violations": 1, "p99_sim_ms": 4.7}
//!   ]},
//!   "dynamic_graphs": {"max_patch_ratio": 0.11, "sublinear": true,
//!                      "mutations": 4, "patched_plans": 4,
//!                      "stale_served": 6, "swaps": 4,
//!                      "amortized_churn_sim_ms": 0.52,
//!                      "amortized_steady_sim_ms": 0.49,
//!                      "churn_overhead_ratio": 1.06, "scale_points": [
//!      {"nrows": 4096, "nnz": 32768, "windows": 256,
//!       "full_prepare_sim_ms": 0.8, "patch_sim_ms": 0.09,
//!       "patch_ratio": 0.11}
//!   ]},
//!   "recovery": {"crash_points": 14, "resume_epoch": 3, "total_epochs": 8,
//!                "replayed_deltas": 2, "skipped_duplicates": 0,
//!                "double_applied": 0, "rolled_back_records": 0,
//!                "restored_plans": 2, "full_prepares": 1,
//!                "patch_replays": 1, "warm_recovery_sim_ms": 0.9,
//!                "cold_replay_sim_ms": 4.1, "recovery_ratio": 0.22,
//!                "equivalent": true},
//!   "tile_compress": {"windows": 1792, "meta_bytes_compressed": 180000,
//!                     "meta_bytes_uncompressed": 1400000,
//!                     "bytes_ratio": 0.13, "plan_bytes_compressed": 310000,
//!                     "plan_bytes_uncompressed": 1500000,
//!                     "plan_bytes_ratio": 0.21,
//!                     "prepare_sim_ms_compressed": 0.8,
//!                     "prepare_sim_ms_uncompressed": 1.1,
//!                     "prepare_cost_ratio": 0.73,
//!                     "tensor_cycles_pipelined": 1.1e6,
//!                     "tensor_cycles_unpipelined": 1.5e6,
//!                     "tensor_cycle_ratio": 0.74}
//! }
//! ```
//!
//! `plan_cache` (the `ext_plan_cache_amortization` experiment's counters),
//! `fault_recovery` (the `ext_fault_recovery` chaos-serving counters),
//! `hot_path` (the `ext_hot_path` workspace/pool counters),
//! `serving_load` (the `ext_serving_load` front-end counters),
//! `dynamic_graphs` (the `ext_churn` incremental re-planning counters) and
//! `recovery` (the `ext_recovery` crash-recovery counters) are
//! all optional: reports written before those subsystems existed —
//! including the committed baseline — parse unchanged. The same goes for
//! the per-kernel `serial_fallback` flag.
//!
//! `experiments` records wall-clock and process CPU time per experiment;
//! `kernels` records per-kernel-family SpMM timings against a forced
//! single-thread run of the same kernel, with a bit-identity check of the
//! two outputs. The CI gate compares `cpu_ms` when both reports carry it
//! (CPU time is immune to scheduler preemption and hypervisor steal, which
//! dominate wall-clock variance on shared runners) and falls back to
//! `wall_ms` otherwise; `cpu_ms` is 0 when the platform cannot measure it.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use gpu_sim::DeviceSpec;
use graph_sparse::{DatasetId, DenseMatrix};
use hc_core::{CudaSpmm, HcSpmm, SpmmKernel, StraightforwardHybrid, TensorSpmm};

use crate::harness::DatasetCache;

/// Report schema version written to (and required from) `BENCH.json`.
pub const SCHEMA_VERSION: u64 = 1;

/// Timing of one experiment in a `run_all` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTiming {
    /// Experiment name (stable across runs; the gate joins on it).
    pub name: String,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Process CPU milliseconds (user + system, all threads); 0 when the
    /// platform cannot measure it.
    pub cpu_ms: f64,
}

/// One kernel family timed at the configured thread count and serially.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpeedup {
    /// Kernel family (`straightforward` / `cuda` / `tensor` / `hybrid`).
    pub family: String,
    /// Dataset code the measurement ran on.
    pub dataset: String,
    /// Wall-clock of the forced single-thread run, ms.
    pub serial_ms: f64,
    /// Wall-clock at the configured thread count, ms.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`, pinned to 1.0 when the pool never
    /// engaged (see [`serial_fallback`](KernelSpeedup::serial_fallback)).
    pub speedup: f64,
    /// Whether the two runs produced bit-identical output matrices.
    pub bit_identical: bool,
    /// True when the calibrated serial fast path handled every region of
    /// the "parallel" run (sub-threshold work or a single-core host). Both
    /// sides then execute identical code, the measured ratio is pure
    /// scheduler noise, and `speedup` is pinned to 1.0.
    pub serial_fallback: bool,
}

/// Plan-cache serving counters from the `ext_plan_cache_amortization`
/// experiment: how much of a repeated-graph request mix the structure-keyed
/// cache absorbed, and what that did to the per-request cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCacheMetrics {
    /// Requests served.
    pub requests: u64,
    /// Requests that reused a cached plan.
    pub hits: u64,
    /// Requests that prepared a plan.
    pub misses: u64,
    /// Plans evicted by the byte budget.
    pub evictions: u64,
    /// `hits / requests`.
    pub hit_rate: f64,
    /// Mean simulated per-request cost if every request re-prepared, ms.
    pub cold_ms: f64,
    /// Mean simulated per-request cost through the cache, ms.
    pub amortized_ms: f64,
}

/// Chaos-serving counters from the `ext_fault_recovery` experiment: how a
/// deterministic fault schedule degraded a batched request mix, and what
/// the recovery (retries + fallbacks) cost in discarded simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecoveryMetrics {
    /// Requests served under the fault schedule.
    pub requests: u64,
    /// Clean primary-family successes.
    pub ok: u64,
    /// Requests served after retry and/or fallback.
    pub degraded: u64,
    /// Requests that could not be served (typed errors).
    pub failed: u64,
    /// Total retries across all requests.
    pub retries: u64,
    /// Requests whose surviving result came from a non-primary step.
    pub fallbacks: u64,
    /// Plan structures quarantined by fault implication.
    pub quarantined: u64,
    /// `degraded / requests`.
    pub degraded_rate: f64,
    /// Total simulated milliseconds of discarded (faulted) attempts.
    pub wasted_sim_ms: f64,
}

/// Hot-path counters from the `ext_hot_path` experiment: how much
/// per-request work the plan workspace amortized away on a repeated
/// serving mix, and how often the calibrated pool declined to fan out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotPathMetrics {
    /// Requests served through the warm plan.
    pub requests: u64,
    /// Block-cost vectors built (workspace cost-cache misses).
    pub cost_builds: u64,
    /// Requests served from the cached block-cost vector.
    pub cost_reuses: u64,
    /// LOA scratch checkouts that allocated fresh buffers.
    pub scratch_allocs: u64,
    /// LOA scratch checkouts served by recycled buffers.
    pub scratch_reuses: u64,
    /// `(cost_builds + scratch_allocs) / requests` — the per-request
    /// allocation rate the workspace is driving toward zero.
    pub allocs_per_request: f64,
    /// Pool regions that fanned out during the serving loop.
    pub parallel_regions: u64,
    /// Pool regions the calibrated serial fast path absorbed.
    pub serial_fallbacks: u64,
    /// Mean host milliseconds per request through the warm plan.
    pub warm_ms: f64,
    /// Mean host milliseconds per request on a cold workspace (a fresh
    /// plan per request, re-deriving costs and re-allocating staging).
    pub cold_ms: f64,
}

/// One tenant's admission/SLO row inside [`ServingLoadMetrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSlo {
    /// Tenant identifier.
    pub tenant: u64,
    /// Trace entries this tenant submitted.
    pub submitted: u64,
    /// Entries that passed admission.
    pub admitted: u64,
    /// Entries shed at admission (queue or quota).
    pub rejected: u64,
    /// Served entries whose simulated latency exceeded the SLO.
    pub slo_violations: u64,
    /// 99th-percentile simulated latency over this tenant's served
    /// entries, ms.
    pub p99_sim_ms: f64,
}

/// Serving-load counters from the `ext_serving_load` experiment: what the
/// cohorting front-end did to a multi-tenant request mix — admission
/// shedding, cohort formation, latency percentiles, and the amortized
/// per-request simulated cost vs. the uncohorted in-order driver.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingLoadMetrics {
    /// Trace entries ingested.
    pub submitted: u64,
    /// Entries that passed admission.
    pub admitted: u64,
    /// Shed: ingestion queue full.
    pub rejected_queue: u64,
    /// Shed: tenant epoch quota exhausted.
    pub rejected_quota: u64,
    /// Entries served (ok or degraded).
    pub served: u64,
    /// Cohorts dispatched.
    pub cohorts: u64,
    /// Fraction of admitted entries that executed in a cohort of ≥ 2.
    pub cohort_rate: f64,
    /// Median simulated latency over served entries, ms.
    pub p50_sim_ms: f64,
    /// 99th-percentile simulated latency over served entries, ms.
    pub p99_sim_ms: f64,
    /// Mean simulated cost (prepare + exec + wasted) per admitted entry
    /// through the cohorting front, ms.
    pub amortized_sim_ms: f64,
    /// The same mix through the uncohorted in-order front
    /// (`FrontConfig::in_order`), ms per request — the control the front
    /// must beat.
    pub uncohorted_sim_ms: f64,
    /// Per-tenant admission and SLO accounting, ordered by tenant id.
    pub tenants: Vec<TenantSlo>,
}

/// One graph size in the patch-cost scaling sweep inside
/// [`DynamicGraphsMetrics`]. All times are simulated (deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnScalePoint {
    /// Graph rows.
    pub nrows: u64,
    /// Graph non-zeros.
    pub nnz: u64,
    /// 16-row windows (what full preprocessing scales with).
    pub windows: u64,
    /// Simulated cost of preparing a plan from scratch, ms.
    pub full_prepare_sim_ms: f64,
    /// Simulated cost of patching the plan for a small delta (dirty
    /// windows only), ms.
    pub patch_sim_ms: f64,
    /// `patch_sim_ms / full_prepare_sim_ms` — the gated ratio.
    pub patch_ratio: f64,
}

/// Dynamic-graph churn counters from the `ext_churn` experiment: the
/// patch-cost scaling sweep (incremental re-planning must stay sublinear
/// in graph size for small deltas) and the serving-under-churn comparison
/// (amortized per-request cost must stay flat when mutations interleave
/// with requests). All times are simulated, so every field is
/// deterministic and exactly gateable.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicGraphsMetrics {
    /// Patch-vs-full cost at increasing graph sizes, smallest first.
    pub scale_points: Vec<ChurnScalePoint>,
    /// Largest `patch_ratio` across the sweep (gated by
    /// `bench_gate --max-patch-cost-ratio`).
    pub max_patch_ratio: f64,
    /// Whether the patch ratio *shrinks* as the graph grows — the
    /// sublinearity evidence (a fixed small delta dirties a fixed number
    /// of windows while full preprocessing scales with all of them).
    pub sublinear: bool,
    /// Mutations ingested by the churn serving trace.
    pub mutations: u64,
    /// Mutations resolved by incremental patching (vs. re-prepare).
    pub patched_plans: u64,
    /// Requests served by the stale plan while its patch was in flight.
    pub stale_served: u64,
    /// Patched plans swapped into the cache.
    pub swaps: u64,
    /// Mean simulated cost per admitted request, churn trace, ms.
    pub amortized_churn_sim_ms: f64,
    /// Mean simulated cost per admitted request, identical trace with the
    /// mutations removed, ms.
    pub amortized_steady_sim_ms: f64,
    /// `amortized_churn_sim_ms / amortized_steady_sim_ms` — how much
    /// churn inflates the serving cost (flat ⇒ close to 1).
    pub churn_overhead_ratio: f64,
}

/// Crash-recovery counters from the `ext_recovery` experiment: a churn
/// serving trace is crashed mid-flight, recovered from (snapshot, WAL)
/// and resumed. Warm recovery rebuilds plans deterministically
/// (`prepare` at a materialized root plus `patch` replay) instead of
/// re-running the completed prefix, so its simulated cost must come in
/// well under the cold-replay cost — gated by
/// `bench_gate --max-recovery-ratio` — and the merged report must be
/// bit-identical to the uncrashed control with zero double-applied
/// deltas. All times are simulated, so every field is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryMetrics {
    /// Crash points the uncrashed schedule exposes (the sweep horizon).
    pub crash_points: u64,
    /// First epoch the resumed run executed (`last marker + 1`).
    pub resume_epoch: u64,
    /// Scheduling epochs in the full trace.
    pub total_epochs: u64,
    /// Durable WAL delta records re-applied at recovery.
    pub replayed_deltas: u64,
    /// Durable records skipped because their post-apply graph was
    /// already materialized (idempotent replay).
    pub skipped_duplicates: u64,
    /// Deltas applied more than once — must be zero, gated.
    pub double_applied: u64,
    /// Intact-but-unmarked records rolled back past the last fsync
    /// marker.
    pub rolled_back_records: u64,
    /// Plans restored into the cache by recovery, total.
    pub restored_plans: u64,
    /// Rebuild steps served by a full `Plan::prepare`.
    pub full_prepares: u64,
    /// Rebuild steps served by `Plan::patch` replay.
    pub patch_replays: u64,
    /// Simulated cost of the warm rebuild (prepares + patch replays).
    pub warm_recovery_sim_ms: f64,
    /// Simulated cost of re-running the completed prefix cold (prepare +
    /// exec + wasted time of every delivered pre-crash request, plus the
    /// pre-crash patch work) — what a restart without durability pays.
    pub cold_replay_sim_ms: f64,
    /// `warm_recovery_sim_ms / cold_replay_sim_ms` — the gated ratio.
    pub recovery_ratio: f64,
    /// Whether the recovered, merged report was bit-identical to the
    /// uncrashed control (responses, counters, mutation outcomes,
    /// latency, tenants, cache statistics) — gated.
    pub equivalent: bool,
}

/// Tile-metadata compression counters from the `ext_tile_compress`
/// experiment: what the occupancy-bitmap + delta-varint window metadata
/// (the condense step's canonical output) and the double-buffered tensor
/// schedule buy on dense-community graphs, against the pre-compression
/// dense form and the synchronous schedule. Bytes are exact and cycles
/// simulated, so every field is deterministic and exactly gateable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileCompressMetrics {
    /// Non-empty row windows across the sweep.
    pub windows: u64,
    /// Total encoded tile-metadata heap bytes (column streams + bitmaps).
    pub meta_bytes_compressed: u64,
    /// The same windows under the legacy dense form: a u32 condensed
    /// index per entry plus a u32 per unique column.
    pub meta_bytes_uncompressed: u64,
    /// `meta_bytes_compressed / meta_bytes_uncompressed`.
    pub bytes_ratio: f64,
    /// `Plan::approx_bytes` of the prepared plans (compressed metadata).
    pub plan_bytes_compressed: u64,
    /// The same plans with every window billed at the legacy dense
    /// metadata size (gated by `bench_gate --max-plan-bytes-ratio`).
    pub plan_bytes_uncompressed: u64,
    /// `plan_bytes_compressed / plan_bytes_uncompressed`.
    pub plan_bytes_ratio: f64,
    /// Simulated preprocessing cost with the compressed write-back, ms.
    pub prepare_sim_ms_compressed: f64,
    /// Simulated preprocessing cost of the pre-compression kernel that
    /// wrote per-entry condensed indices, ms (gated by
    /// `bench_gate --max-prepare-cost-ratio`).
    pub prepare_sim_ms_uncompressed: f64,
    /// `prepare_sim_ms_compressed / prepare_sim_ms_uncompressed`.
    pub prepare_cost_ratio: f64,
    /// Summed per-window cycles of the pipelined + compressed tensor
    /// kernel over the sweep's windows.
    pub tensor_cycles_pipelined: f64,
    /// The same windows under the synchronous uncompressed schedule.
    pub tensor_cycles_unpipelined: f64,
    /// `tensor_cycles_pipelined / tensor_cycles_unpipelined` — must stay
    /// below 1 for the pipelining to be worth shipping.
    pub tensor_cycle_ratio: f64,
}

/// The full machine-readable report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Dataset scale divisor the run used (`HC_SCALE`).
    pub scale: usize,
    /// Worker-thread count the run used.
    pub threads: usize,
    /// Per-experiment wall clocks, in run order.
    pub experiments: Vec<ExperimentTiming>,
    /// Kernel-family speedup measurements.
    pub kernels: Vec<KernelSpeedup>,
    /// Plan-cache amortization counters (absent in pre-serving reports).
    pub plan_cache: Option<PlanCacheMetrics>,
    /// Chaos-serving recovery counters (absent in pre-resilience reports).
    pub fault_recovery: Option<FaultRecoveryMetrics>,
    /// Workspace / adaptive-pool hot-path counters (absent in reports
    /// written before the workspace existed).
    pub hot_path: Option<HotPathMetrics>,
    /// Multi-tenant serving-load counters (absent in reports written
    /// before the front-end existed).
    pub serving_load: Option<ServingLoadMetrics>,
    /// Dynamic-graph churn counters (absent in reports written before
    /// incremental re-planning existed).
    pub dynamic_graphs: Option<DynamicGraphsMetrics>,
    /// Crash-recovery counters (absent in reports written before the
    /// durability layer existed).
    pub recovery: Option<RecoveryMetrics>,
    /// Tile-metadata compression counters (absent in reports written
    /// before the compressed condense form existed).
    pub tile_compress: Option<TileCompressMetrics>,
}

impl BenchReport {
    /// Empty report for a run at the given configuration.
    pub fn new(scale: usize, threads: usize) -> Self {
        BenchReport {
            scale,
            threads,
            experiments: Vec::new(),
            kernels: Vec::new(),
            plan_cache: None,
            fault_recovery: None,
            hot_path: None,
            serving_load: None,
            dynamic_graphs: None,
            recovery: None,
            tile_compress: None,
        }
    }

    /// Record one experiment's timings.
    pub fn push_experiment(&mut self, name: &str, wall_ms: f64, cpu_ms: f64) {
        self.experiments.push(ExperimentTiming {
            name: name.to_string(),
            wall_ms,
            cpu_ms,
        });
    }

    /// Serialize to pretty-printed JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"scale\": {},", self.scale);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        s.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            let comma = if i + 1 < self.experiments.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "    {{\"name\": {}, \"wall_ms\": {}, \"cpu_ms\": {}}}{comma}",
                esc(&e.name),
                num(e.wall_ms),
                num(e.cpu_ms)
            );
        }
        s.push_str("  ],\n  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let comma = if i + 1 < self.kernels.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"family\": {}, \"dataset\": {}, \"serial_ms\": {}, \
                 \"parallel_ms\": {}, \"speedup\": {}, \"bit_identical\": {}, \
                 \"serial_fallback\": {}}}{comma}",
                esc(&k.family),
                esc(&k.dataset),
                num(k.serial_ms),
                num(k.parallel_ms),
                num(k.speedup),
                k.bit_identical,
                k.serial_fallback
            );
        }
        s.push_str("  ]");
        if let Some(pc) = &self.plan_cache {
            let _ = write!(
                s,
                ",\n  \"plan_cache\": {{\"requests\": {}, \"hits\": {}, \"misses\": {}, \
                 \"evictions\": {}, \"hit_rate\": {}, \"cold_ms\": {}, \"amortized_ms\": {}}}",
                pc.requests,
                pc.hits,
                pc.misses,
                pc.evictions,
                num(pc.hit_rate),
                num(pc.cold_ms),
                num(pc.amortized_ms)
            );
        }
        if let Some(fr) = &self.fault_recovery {
            let _ = write!(
                s,
                ",\n  \"fault_recovery\": {{\"requests\": {}, \"ok\": {}, \"degraded\": {}, \
                 \"failed\": {}, \"retries\": {}, \"fallbacks\": {}, \"quarantined\": {}, \
                 \"degraded_rate\": {}, \"wasted_sim_ms\": {}}}",
                fr.requests,
                fr.ok,
                fr.degraded,
                fr.failed,
                fr.retries,
                fr.fallbacks,
                fr.quarantined,
                num(fr.degraded_rate),
                num(fr.wasted_sim_ms)
            );
        }
        if let Some(hp) = &self.hot_path {
            let _ = write!(
                s,
                ",\n  \"hot_path\": {{\"requests\": {}, \"cost_builds\": {}, \
                 \"cost_reuses\": {}, \"scratch_allocs\": {}, \"scratch_reuses\": {}, \
                 \"allocs_per_request\": {}, \"parallel_regions\": {}, \
                 \"serial_fallbacks\": {}, \"warm_ms\": {}, \"cold_ms\": {}}}",
                hp.requests,
                hp.cost_builds,
                hp.cost_reuses,
                hp.scratch_allocs,
                hp.scratch_reuses,
                num(hp.allocs_per_request),
                hp.parallel_regions,
                hp.serial_fallbacks,
                num(hp.warm_ms),
                num(hp.cold_ms)
            );
        }
        if let Some(sl) = &self.serving_load {
            let _ = write!(
                s,
                ",\n  \"serving_load\": {{\"submitted\": {}, \"admitted\": {}, \
                 \"rejected_queue\": {}, \"rejected_quota\": {}, \"served\": {}, \
                 \"cohorts\": {}, \"cohort_rate\": {}, \"p50_sim_ms\": {}, \
                 \"p99_sim_ms\": {}, \"amortized_sim_ms\": {}, \
                 \"uncohorted_sim_ms\": {}, \"tenants\": [",
                sl.submitted,
                sl.admitted,
                sl.rejected_queue,
                sl.rejected_quota,
                sl.served,
                sl.cohorts,
                num(sl.cohort_rate),
                num(sl.p50_sim_ms),
                num(sl.p99_sim_ms),
                num(sl.amortized_sim_ms),
                num(sl.uncohorted_sim_ms)
            );
            for (i, t) in sl.tenants.iter().enumerate() {
                let comma = if i + 1 < sl.tenants.len() { "," } else { "" };
                let _ = write!(
                    s,
                    "\n    {{\"tenant\": {}, \"submitted\": {}, \"admitted\": {}, \
                     \"rejected\": {}, \"slo_violations\": {}, \"p99_sim_ms\": {}}}{comma}",
                    t.tenant,
                    t.submitted,
                    t.admitted,
                    t.rejected,
                    t.slo_violations,
                    num(t.p99_sim_ms)
                );
            }
            if sl.tenants.is_empty() {
                s.push_str("]}");
            } else {
                s.push_str("\n  ]}");
            }
        }
        if let Some(dg) = &self.dynamic_graphs {
            let _ = write!(
                s,
                ",\n  \"dynamic_graphs\": {{\"max_patch_ratio\": {}, \"sublinear\": {}, \
                 \"mutations\": {}, \"patched_plans\": {}, \"stale_served\": {}, \
                 \"swaps\": {}, \"amortized_churn_sim_ms\": {}, \
                 \"amortized_steady_sim_ms\": {}, \"churn_overhead_ratio\": {}, \
                 \"scale_points\": [",
                num(dg.max_patch_ratio),
                dg.sublinear,
                dg.mutations,
                dg.patched_plans,
                dg.stale_served,
                dg.swaps,
                num(dg.amortized_churn_sim_ms),
                num(dg.amortized_steady_sim_ms),
                num(dg.churn_overhead_ratio)
            );
            for (i, p) in dg.scale_points.iter().enumerate() {
                let comma = if i + 1 < dg.scale_points.len() {
                    ","
                } else {
                    ""
                };
                let _ = write!(
                    s,
                    "\n    {{\"nrows\": {}, \"nnz\": {}, \"windows\": {}, \
                     \"full_prepare_sim_ms\": {}, \"patch_sim_ms\": {}, \
                     \"patch_ratio\": {}}}{comma}",
                    p.nrows,
                    p.nnz,
                    p.windows,
                    num(p.full_prepare_sim_ms),
                    num(p.patch_sim_ms),
                    num(p.patch_ratio)
                );
            }
            if dg.scale_points.is_empty() {
                s.push_str("]}");
            } else {
                s.push_str("\n  ]}");
            }
        }
        if let Some(rc) = &self.recovery {
            let _ = write!(
                s,
                ",\n  \"recovery\": {{\"crash_points\": {}, \"resume_epoch\": {}, \
                 \"total_epochs\": {}, \"replayed_deltas\": {}, \
                 \"skipped_duplicates\": {}, \"double_applied\": {}, \
                 \"rolled_back_records\": {}, \"restored_plans\": {}, \
                 \"full_prepares\": {}, \"patch_replays\": {}, \
                 \"warm_recovery_sim_ms\": {}, \"cold_replay_sim_ms\": {}, \
                 \"recovery_ratio\": {}, \"equivalent\": {}}}",
                rc.crash_points,
                rc.resume_epoch,
                rc.total_epochs,
                rc.replayed_deltas,
                rc.skipped_duplicates,
                rc.double_applied,
                rc.rolled_back_records,
                rc.restored_plans,
                rc.full_prepares,
                rc.patch_replays,
                num(rc.warm_recovery_sim_ms),
                num(rc.cold_replay_sim_ms),
                num(rc.recovery_ratio),
                rc.equivalent
            );
        }
        if let Some(tc) = &self.tile_compress {
            let _ = write!(
                s,
                ",\n  \"tile_compress\": {{\"windows\": {}, \
                 \"meta_bytes_compressed\": {}, \"meta_bytes_uncompressed\": {}, \
                 \"bytes_ratio\": {}, \"plan_bytes_compressed\": {}, \
                 \"plan_bytes_uncompressed\": {}, \"plan_bytes_ratio\": {}, \
                 \"prepare_sim_ms_compressed\": {}, \
                 \"prepare_sim_ms_uncompressed\": {}, \"prepare_cost_ratio\": {}, \
                 \"tensor_cycles_pipelined\": {}, \
                 \"tensor_cycles_unpipelined\": {}, \"tensor_cycle_ratio\": {}}}",
                tc.windows,
                tc.meta_bytes_compressed,
                tc.meta_bytes_uncompressed,
                num(tc.bytes_ratio),
                tc.plan_bytes_compressed,
                tc.plan_bytes_uncompressed,
                num(tc.plan_bytes_ratio),
                num(tc.prepare_sim_ms_compressed),
                num(tc.prepare_sim_ms_uncompressed),
                num(tc.prepare_cost_ratio),
                num(tc.tensor_cycles_pipelined),
                num(tc.tensor_cycles_unpipelined),
                num(tc.tensor_cycle_ratio)
            );
        }
        s.push_str("\n}\n");
        s
    }

    /// Parse a report back from JSON, checking the schema version.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = Json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_f64)
            .ok_or("missing \"schema\"")? as u64;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {schema} (expected {SCHEMA_VERSION})"
            ));
        }
        let field = |key: &str| v.get(key).ok_or(format!("missing {key:?}"));
        let mut report = BenchReport::new(
            field("scale")?.as_f64().ok_or("scale not a number")? as usize,
            field("threads")?.as_f64().ok_or("threads not a number")? as usize,
        );
        for e in field("experiments")?
            .as_arr()
            .ok_or("experiments not an array")?
        {
            report.experiments.push(ExperimentTiming {
                name: e
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("experiment missing name")?
                    .to_string(),
                wall_ms: e
                    .get("wall_ms")
                    .and_then(Json::as_f64)
                    .ok_or("experiment missing wall_ms")?,
                // Absent in reports from platforms without CPU accounting.
                cpu_ms: e.get("cpu_ms").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
        for k in field("kernels")?.as_arr().ok_or("kernels not an array")? {
            let f = |key: &str| k.get(key).and_then(Json::as_f64);
            report.kernels.push(KernelSpeedup {
                family: k
                    .get("family")
                    .and_then(Json::as_str)
                    .ok_or("kernel missing family")?
                    .to_string(),
                dataset: k
                    .get("dataset")
                    .and_then(Json::as_str)
                    .ok_or("kernel missing dataset")?
                    .to_string(),
                serial_ms: f("serial_ms").ok_or("kernel missing serial_ms")?,
                parallel_ms: f("parallel_ms").ok_or("kernel missing parallel_ms")?,
                speedup: f("speedup").ok_or("kernel missing speedup")?,
                bit_identical: k
                    .get("bit_identical")
                    .and_then(Json::as_bool)
                    .ok_or("kernel missing bit_identical")?,
                // Absent in reports written before the serial fast path.
                serial_fallback: k
                    .get("serial_fallback")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            });
        }
        if let Some(pc) = v.get("plan_cache") {
            let f = |key: &str| {
                pc.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("plan_cache missing {key}"))
            };
            report.plan_cache = Some(PlanCacheMetrics {
                requests: f("requests")? as u64,
                hits: f("hits")? as u64,
                misses: f("misses")? as u64,
                evictions: f("evictions")? as u64,
                hit_rate: f("hit_rate")?,
                cold_ms: f("cold_ms")?,
                amortized_ms: f("amortized_ms")?,
            });
        }
        if let Some(fr) = v.get("fault_recovery") {
            let f = |key: &str| {
                fr.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("fault_recovery missing {key}"))
            };
            report.fault_recovery = Some(FaultRecoveryMetrics {
                requests: f("requests")? as u64,
                ok: f("ok")? as u64,
                degraded: f("degraded")? as u64,
                failed: f("failed")? as u64,
                retries: f("retries")? as u64,
                fallbacks: f("fallbacks")? as u64,
                quarantined: f("quarantined")? as u64,
                degraded_rate: f("degraded_rate")?,
                wasted_sim_ms: f("wasted_sim_ms")?,
            });
        }
        if let Some(hp) = v.get("hot_path") {
            let f = |key: &str| {
                hp.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("hot_path missing {key}"))
            };
            report.hot_path = Some(HotPathMetrics {
                requests: f("requests")? as u64,
                cost_builds: f("cost_builds")? as u64,
                cost_reuses: f("cost_reuses")? as u64,
                scratch_allocs: f("scratch_allocs")? as u64,
                scratch_reuses: f("scratch_reuses")? as u64,
                allocs_per_request: f("allocs_per_request")?,
                parallel_regions: f("parallel_regions")? as u64,
                serial_fallbacks: f("serial_fallbacks")? as u64,
                warm_ms: f("warm_ms")?,
                cold_ms: f("cold_ms")?,
            });
        }
        if let Some(sl) = v.get("serving_load") {
            let f = |key: &str| {
                sl.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("serving_load missing {key}"))
            };
            let mut tenants = Vec::new();
            for t in sl
                .get("tenants")
                .and_then(Json::as_arr)
                .ok_or("serving_load missing tenants array")?
            {
                let tf = |key: &str| {
                    t.get(key)
                        .and_then(Json::as_f64)
                        .ok_or(format!("serving_load tenant missing {key}"))
                };
                tenants.push(TenantSlo {
                    tenant: tf("tenant")? as u64,
                    submitted: tf("submitted")? as u64,
                    admitted: tf("admitted")? as u64,
                    rejected: tf("rejected")? as u64,
                    slo_violations: tf("slo_violations")? as u64,
                    p99_sim_ms: tf("p99_sim_ms")?,
                });
            }
            report.serving_load = Some(ServingLoadMetrics {
                submitted: f("submitted")? as u64,
                admitted: f("admitted")? as u64,
                rejected_queue: f("rejected_queue")? as u64,
                rejected_quota: f("rejected_quota")? as u64,
                served: f("served")? as u64,
                cohorts: f("cohorts")? as u64,
                cohort_rate: f("cohort_rate")?,
                p50_sim_ms: f("p50_sim_ms")?,
                p99_sim_ms: f("p99_sim_ms")?,
                amortized_sim_ms: f("amortized_sim_ms")?,
                uncohorted_sim_ms: f("uncohorted_sim_ms")?,
                tenants,
            });
        }
        if let Some(dg) = v.get("dynamic_graphs") {
            let f = |key: &str| {
                dg.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("dynamic_graphs missing {key}"))
            };
            let mut scale_points = Vec::new();
            for p in dg
                .get("scale_points")
                .and_then(Json::as_arr)
                .ok_or("dynamic_graphs missing scale_points array")?
            {
                let pf = |key: &str| {
                    p.get(key)
                        .and_then(Json::as_f64)
                        .ok_or(format!("dynamic_graphs scale point missing {key}"))
                };
                scale_points.push(ChurnScalePoint {
                    nrows: pf("nrows")? as u64,
                    nnz: pf("nnz")? as u64,
                    windows: pf("windows")? as u64,
                    full_prepare_sim_ms: pf("full_prepare_sim_ms")?,
                    patch_sim_ms: pf("patch_sim_ms")?,
                    patch_ratio: pf("patch_ratio")?,
                });
            }
            report.dynamic_graphs = Some(DynamicGraphsMetrics {
                scale_points,
                max_patch_ratio: f("max_patch_ratio")?,
                sublinear: dg
                    .get("sublinear")
                    .and_then(Json::as_bool)
                    .ok_or("dynamic_graphs missing sublinear")?,
                mutations: f("mutations")? as u64,
                patched_plans: f("patched_plans")? as u64,
                stale_served: f("stale_served")? as u64,
                swaps: f("swaps")? as u64,
                amortized_churn_sim_ms: f("amortized_churn_sim_ms")?,
                amortized_steady_sim_ms: f("amortized_steady_sim_ms")?,
                churn_overhead_ratio: f("churn_overhead_ratio")?,
            });
        }
        if let Some(rc) = v.get("recovery") {
            let f = |key: &str| {
                rc.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("recovery missing {key}"))
            };
            report.recovery = Some(RecoveryMetrics {
                crash_points: f("crash_points")? as u64,
                resume_epoch: f("resume_epoch")? as u64,
                total_epochs: f("total_epochs")? as u64,
                replayed_deltas: f("replayed_deltas")? as u64,
                skipped_duplicates: f("skipped_duplicates")? as u64,
                double_applied: f("double_applied")? as u64,
                rolled_back_records: f("rolled_back_records")? as u64,
                restored_plans: f("restored_plans")? as u64,
                full_prepares: f("full_prepares")? as u64,
                patch_replays: f("patch_replays")? as u64,
                warm_recovery_sim_ms: f("warm_recovery_sim_ms")?,
                cold_replay_sim_ms: f("cold_replay_sim_ms")?,
                recovery_ratio: f("recovery_ratio")?,
                equivalent: rc
                    .get("equivalent")
                    .and_then(Json::as_bool)
                    .ok_or("recovery missing equivalent")?,
            });
        }
        if let Some(tc) = v.get("tile_compress") {
            let f = |key: &str| {
                tc.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("tile_compress missing {key}"))
            };
            report.tile_compress = Some(TileCompressMetrics {
                windows: f("windows")? as u64,
                meta_bytes_compressed: f("meta_bytes_compressed")? as u64,
                meta_bytes_uncompressed: f("meta_bytes_uncompressed")? as u64,
                bytes_ratio: f("bytes_ratio")?,
                plan_bytes_compressed: f("plan_bytes_compressed")? as u64,
                plan_bytes_uncompressed: f("plan_bytes_uncompressed")? as u64,
                plan_bytes_ratio: f("plan_bytes_ratio")?,
                prepare_sim_ms_compressed: f("prepare_sim_ms_compressed")?,
                prepare_sim_ms_uncompressed: f("prepare_sim_ms_uncompressed")?,
                prepare_cost_ratio: f("prepare_cost_ratio")?,
                tensor_cycles_pipelined: f("tensor_cycles_pipelined")?,
                tensor_cycles_unpipelined: f("tensor_cycles_unpipelined")?,
                tensor_cycle_ratio: f("tensor_cycle_ratio")?,
            });
        }
        Ok(report)
    }
}

/// Cumulative process CPU time in milliseconds (user + system, across all
/// threads, including exited-and-joined workers), or `None` when the
/// platform cannot measure it. CPU time is the gate's preferred metric: it
/// does not advance while the process is preempted or the VM is stolen
/// from, so it stays stable on oversubscribed CI runners where wall clock
/// swings by 2x between identical runs.
///
/// Measured with `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` — nanosecond
/// resolution, so sub-10 ms experiments report real CPU time instead of
/// the zeros the old `/proc/self/stat` USER_HZ tick produced (which made
/// the gate silently skip them). Falls back to `/proc` parsing if the
/// syscall is unavailable.
pub fn cpu_time_ms() -> Option<f64> {
    #[cfg(unix)]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        }
        // POSIX: the CPU-time clock of the calling process.
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid writable timespec and the clock id is a
        // POSIX constant; the call writes `ts` and returns a status.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return Some(ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6);
        }
    }
    cpu_time_ms_proc()
}

/// USER_HZ-resolution fallback: utime+stime from `/proc/self/stat`
/// (10 ms ticks).
fn cpu_time_ms_proc() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // comm (field 2) may contain spaces or parens; real fields resume
    // after the last ')'. utime/stime are fields 14/15 of the line, i.e.
    // the 12th/13th after comm.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // /proc clock ticks are USER_HZ, fixed at 100 on Linux: 10 ms each.
    Some((utime + stime) * 10.0)
}

/// Output path for the report: `HC_BENCH_JSON` or `BENCH.json`.
pub fn default_path() -> PathBuf {
    std::env::var_os("HC_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH.json"))
}

/// Time the four kernel families at the configured thread count and at a
/// forced single thread, on two structurally different datasets. The
/// single-thread rerun also serves as the determinism check: both outputs
/// must be bit-identical.
///
/// Each side is best-of-3 — the minimum is the least-preempted run, which
/// is what a speedup ratio should compare. When the calibrated serial
/// fast path handled every region of the "parallel" run (sub-threshold
/// work, or a single-core host), both sides executed identical code; the
/// measurement is flagged `serial_fallback` and the speedup pinned to 1.0
/// instead of reporting scheduler noise as a parallel regression.
pub fn measure_kernel_speedups(cache: &mut DatasetCache, dev: &DeviceSpec) -> Vec<KernelSpeedup> {
    let kernels: Vec<(&str, Box<dyn SpmmKernel>)> = vec![
        (
            "straightforward",
            Box::new(StraightforwardHybrid::default()),
        ),
        ("cuda", Box::new(CudaSpmm::optimized())),
        ("tensor", Box::new(TensorSpmm::optimized())),
        ("hybrid", Box::new(HcSpmm::default())),
    ];
    const REPEAT: usize = 3;
    let saved = hc_parallel::thread_override();
    let mut out = Vec::new();
    for id in [DatasetId::CR, DatasetId::PM] {
        let a = cache.get(id).adj.clone();
        let dim = cache.get(id).spec.dim.min(512);
        let x = DenseMatrix::random_features(a.nrows, dim, id as u64);
        for (family, kern) in &kernels {
            hc_parallel::reset_pool_stats();
            let mut parallel_ms = f64::INFINITY;
            let mut z_par = DenseMatrix::zeros(0, 0);
            for _ in 0..REPEAT {
                let t0 = Instant::now();
                z_par = kern.spmm(&a, &x, dev).z;
                parallel_ms = parallel_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            let engaged = hc_parallel::pool_stats().parallel_regions > 0;

            hc_parallel::set_threads(1);
            let mut serial_ms = f64::INFINITY;
            let mut z_ser = DenseMatrix::zeros(0, 0);
            for _ in 0..REPEAT {
                let t0 = Instant::now();
                z_ser = kern.spmm(&a, &x, dev).z;
                serial_ms = serial_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            hc_parallel::set_threads(saved);

            out.push(KernelSpeedup {
                family: family.to_string(),
                dataset: id.code().to_string(),
                serial_ms,
                parallel_ms,
                speedup: if engaged {
                    serial_ms / parallel_ms.max(1e-9)
                } else {
                    1.0
                },
                bit_identical: z_par == z_ser,
                serial_fallback: !engaged,
            });
        }
    }
    out
}

/// One experiment the gate flags as regressed.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Experiment name.
    pub name: String,
    /// Baseline time, ms (in the compared metric).
    pub base_ms: f64,
    /// Current time, ms (in the compared metric).
    pub cur_ms: f64,
    /// `cur_ms / base_ms`.
    pub ratio: f64,
    /// Which metric was compared: `"cpu"` or `"wall"`.
    pub metric: &'static str,
}

/// Result of gating a current report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Experiments present in both reports and above the noise floor.
    pub compared: usize,
    /// Experiments slower than `baseline · (1 + threshold)`.
    pub regressions: Vec<Regression>,
    /// Baseline experiments absent from the current report.
    pub missing: Vec<String>,
}

impl GateOutcome {
    /// True when the gate should fail the build.
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty() || !self.missing.is_empty()
    }
}

/// Compare per-experiment timings. For each experiment the gate uses CPU
/// time when both reports measured it (scheduler- and steal-immune) and
/// wall clock otherwise. An experiment regresses when its current time
/// exceeds the baseline by more than `threshold` (0.25 = +25 %) AND by
/// more than `min_ms` absolute — the relative test catches slowdowns, the
/// absolute test absorbs the 10 ms CPU-tick quantization on small
/// experiments. Experiments where both sides sit under `min_ms` are
/// skipped entirely: sub-floor timings measure the scheduler, not the
/// code.
pub fn gate(base: &BenchReport, cur: &BenchReport, threshold: f64, min_ms: f64) -> GateOutcome {
    let mut outcome = GateOutcome {
        compared: 0,
        regressions: Vec::new(),
        missing: Vec::new(),
    };
    for b in &base.experiments {
        let Some(c) = cur.experiments.iter().find(|c| c.name == b.name) else {
            outcome.missing.push(b.name.clone());
            continue;
        };
        let (base_ms, cur_ms, metric) = if b.cpu_ms > 0.0 && c.cpu_ms > 0.0 {
            (b.cpu_ms, c.cpu_ms, "cpu")
        } else {
            (b.wall_ms, c.wall_ms, "wall")
        };
        if base_ms.max(cur_ms) < min_ms {
            continue;
        }
        outcome.compared += 1;
        if cur_ms > base_ms * (1.0 + threshold) && cur_ms - base_ms > min_ms {
            outcome.regressions.push(Regression {
                name: b.name.clone(),
                base_ms,
                cur_ms,
                ratio: cur_ms / base_ms.max(1e-9),
                metric,
            });
        }
    }
    outcome
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float so it round-trips as JSON (always with a decimal point
/// or exponent so the reader can tell it is a number).
fn num(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no Infinity/NaN; clamp to a sentinel the gate treats as
        // "huge" rather than producing an unparseable document.
        return "1e308".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Minimal JSON value for the report parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String (escape sequences decoded).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace only).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.b[self.i..];
                    let ch_len = std::str::from_utf8(rest)
                        .map_err(|e| e.to_string())?
                        .chars()
                        .next()
                        .map(char::len_utf8)
                        .unwrap_or(1);
                    out.push_str(std::str::from_utf8(&rest[..ch_len]).unwrap());
                    self.i += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new(1024, 8);
        r.push_experiment("fig10_spmm", 123.456, 120.0);
        r.push_experiment("table01", 4.2, 4.0);
        r.kernels.push(KernelSpeedup {
            family: "hybrid".into(),
            dataset: "CR".into(),
            serial_ms: 80.0,
            parallel_ms: 10.0,
            speedup: 8.0,
            bit_identical: true,
            serial_fallback: false,
        });
        r
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = sample();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn plan_cache_block_roundtrips_and_stays_optional() {
        // Without the block: absent from the JSON, parses back as None —
        // pre-serving reports (the committed baseline) stay readable.
        let bare = sample();
        assert!(!bare.to_json().contains("plan_cache"));
        assert_eq!(BenchReport::from_json(&bare.to_json()).unwrap(), bare);

        let mut r = sample();
        r.plan_cache = Some(PlanCacheMetrics {
            requests: 48,
            hits: 44,
            misses: 4,
            evictions: 0,
            hit_rate: 44.0 / 48.0,
            cold_ms: 1.92,
            amortized_ms: 0.31,
        });
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn fault_recovery_block_roundtrips_and_stays_optional() {
        let bare = sample();
        assert!(!bare.to_json().contains("fault_recovery"));
        assert_eq!(BenchReport::from_json(&bare.to_json()).unwrap(), bare);

        let mut r = sample();
        r.fault_recovery = Some(FaultRecoveryMetrics {
            requests: 32,
            ok: 24,
            degraded: 8,
            failed: 0,
            retries: 5,
            fallbacks: 3,
            quarantined: 1,
            degraded_rate: 0.25,
            wasted_sim_ms: 0.42,
        });
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn hot_path_block_roundtrips_and_stays_optional() {
        let bare = sample();
        assert!(!bare.to_json().contains("hot_path"));
        assert_eq!(BenchReport::from_json(&bare.to_json()).unwrap(), bare);

        let mut r = sample();
        r.hot_path = Some(HotPathMetrics {
            requests: 64,
            cost_builds: 1,
            cost_reuses: 63,
            scratch_allocs: 1,
            scratch_reuses: 63,
            allocs_per_request: 2.0 / 64.0,
            parallel_regions: 0,
            serial_fallbacks: 128,
            warm_ms: 0.4,
            cold_ms: 2.1,
        });
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn serving_load_block_roundtrips_and_stays_optional() {
        let bare = sample();
        assert!(!bare.to_json().contains("serving_load"));
        assert_eq!(BenchReport::from_json(&bare.to_json()).unwrap(), bare);

        let mut r = sample();
        r.serving_load = Some(ServingLoadMetrics {
            submitted: 96,
            admitted: 84,
            rejected_queue: 8,
            rejected_quota: 4,
            served: 84,
            cohorts: 24,
            cohort_rate: 0.86,
            p50_sim_ms: 1.2,
            p99_sim_ms: 4.7,
            amortized_sim_ms: 0.9,
            uncohorted_sim_ms: 2.8,
            tenants: vec![
                TenantSlo {
                    tenant: 0,
                    submitted: 24,
                    admitted: 20,
                    rejected: 4,
                    slo_violations: 1,
                    p99_sim_ms: 4.7,
                },
                TenantSlo {
                    tenant: 3,
                    submitted: 12,
                    admitted: 12,
                    rejected: 0,
                    slo_violations: 0,
                    p99_sim_ms: 2.2,
                },
            ],
        });
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);

        // An empty tenant list still roundtrips.
        let mut r = sample();
        r.serving_load = Some(ServingLoadMetrics {
            submitted: 0,
            admitted: 0,
            rejected_queue: 0,
            rejected_quota: 0,
            served: 0,
            cohorts: 0,
            cohort_rate: 0.0,
            p50_sim_ms: 0.0,
            p99_sim_ms: 0.0,
            amortized_sim_ms: 0.0,
            uncohorted_sim_ms: 0.0,
            tenants: Vec::new(),
        });
        assert_eq!(BenchReport::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn dynamic_graphs_block_roundtrips_and_stays_optional() {
        let bare = sample();
        assert!(!bare.to_json().contains("dynamic_graphs"));
        assert_eq!(BenchReport::from_json(&bare.to_json()).unwrap(), bare);

        let mut r = sample();
        r.dynamic_graphs = Some(DynamicGraphsMetrics {
            scale_points: vec![
                ChurnScalePoint {
                    nrows: 4096,
                    nnz: 32768,
                    windows: 256,
                    full_prepare_sim_ms: 0.8,
                    patch_sim_ms: 0.09,
                    patch_ratio: 0.1125,
                },
                ChurnScalePoint {
                    nrows: 16384,
                    nnz: 131072,
                    windows: 1024,
                    full_prepare_sim_ms: 3.1,
                    patch_sim_ms: 0.1,
                    patch_ratio: 0.0323,
                },
            ],
            max_patch_ratio: 0.1125,
            sublinear: true,
            mutations: 4,
            patched_plans: 4,
            stale_served: 6,
            swaps: 4,
            amortized_churn_sim_ms: 0.52,
            amortized_steady_sim_ms: 0.49,
            churn_overhead_ratio: 1.0612,
        });
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);

        // An empty sweep still roundtrips.
        let mut r = sample();
        r.dynamic_graphs = Some(DynamicGraphsMetrics {
            scale_points: Vec::new(),
            max_patch_ratio: 0.0,
            sublinear: false,
            mutations: 0,
            patched_plans: 0,
            stale_served: 0,
            swaps: 0,
            amortized_churn_sim_ms: 0.0,
            amortized_steady_sim_ms: 0.0,
            churn_overhead_ratio: 0.0,
        });
        assert_eq!(BenchReport::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn recovery_block_roundtrips_and_stays_optional() {
        let bare = sample();
        assert!(!bare.to_json().contains("\"recovery\""));
        assert_eq!(BenchReport::from_json(&bare.to_json()).unwrap(), bare);

        let mut r = sample();
        r.recovery = Some(RecoveryMetrics {
            crash_points: 14,
            resume_epoch: 3,
            total_epochs: 8,
            replayed_deltas: 2,
            skipped_duplicates: 1,
            double_applied: 0,
            rolled_back_records: 1,
            restored_plans: 2,
            full_prepares: 1,
            patch_replays: 1,
            warm_recovery_sim_ms: 0.9,
            cold_replay_sim_ms: 4.1,
            recovery_ratio: 0.2195,
            equivalent: true,
        });
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);

        // `equivalent: false` survives the trip too (the gate must see it).
        let mut r = sample();
        r.recovery = Some(RecoveryMetrics {
            crash_points: 0,
            resume_epoch: 0,
            total_epochs: 0,
            replayed_deltas: 0,
            skipped_duplicates: 0,
            double_applied: 2,
            rolled_back_records: 0,
            restored_plans: 0,
            full_prepares: 0,
            patch_replays: 0,
            warm_recovery_sim_ms: 0.0,
            cold_replay_sim_ms: 0.0,
            recovery_ratio: 0.0,
            equivalent: false,
        });
        assert_eq!(BenchReport::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn tile_compress_block_roundtrips_and_stays_optional() {
        let bare = sample();
        assert!(!bare.to_json().contains("tile_compress"));
        assert_eq!(BenchReport::from_json(&bare.to_json()).unwrap(), bare);

        let mut r = sample();
        r.tile_compress = Some(TileCompressMetrics {
            windows: 1792,
            meta_bytes_compressed: 180_000,
            meta_bytes_uncompressed: 1_400_000,
            bytes_ratio: 180.0 / 1400.0,
            plan_bytes_compressed: 310_000,
            plan_bytes_uncompressed: 1_500_000,
            plan_bytes_ratio: 31.0 / 150.0,
            prepare_sim_ms_compressed: 0.8,
            prepare_sim_ms_uncompressed: 1.1,
            prepare_cost_ratio: 0.8 / 1.1,
            tensor_cycles_pipelined: 1.1e6,
            tensor_cycles_unpipelined: 1.5e6,
            tensor_cycle_ratio: 1.1 / 1.5,
        });
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn kernel_serial_fallback_flag_defaults_to_false_in_old_reports() {
        // A baseline written before the flag existed must parse with the
        // flag off rather than erroring.
        let old = "{\"schema\": 1, \"scale\": 1, \"threads\": 1, \
                    \"experiments\": [], \"kernels\": [\
                    {\"family\": \"cuda\", \"dataset\": \"CR\", \
                     \"serial_ms\": 2.0, \"parallel_ms\": 1.0, \
                     \"speedup\": 2.0, \"bit_identical\": true}]}";
        let r = BenchReport::from_json(old).unwrap();
        assert!(!r.kernels[0].serial_fallback);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2",
            "{\"a\": 1} trailing",
            "{\"schema\": 99}",
        ] {
            assert!(BenchReport::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut r = BenchReport::new(1, 1);
        r.push_experiment("weird \"name\"\\with\nescapes\tand unicode µ", 50.0, 50.0);
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.experiments[0].name, r.experiments[0].name);
    }

    #[test]
    fn gate_flags_slowdowns_over_threshold() {
        let base = sample();
        let mut cur = sample();
        cur.experiments[0].wall_ms = 123.456 * 1.5; // +50 %
        cur.experiments[0].cpu_ms = 120.0 * 1.5;
        let out = gate(&base, &cur, 0.25, 1.0);
        assert!(out.failed());
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].name, "fig10_spmm");
        assert_eq!(out.regressions[0].metric, "cpu");
        assert!((out.regressions[0].ratio - 1.5).abs() < 1e-9);
    }

    #[test]
    fn gate_passes_within_threshold_and_under_noise_floor() {
        let base = sample();
        let mut cur = sample();
        cur.experiments[0].wall_ms *= 1.2; // +20 % < 25 %
        cur.experiments[0].cpu_ms *= 1.2;
        cur.experiments[1].wall_ms *= 10.0; // huge ratio but under the floor
        cur.experiments[1].cpu_ms *= 10.0;
        let out = gate(&base, &cur, 0.25, 100.0);
        assert!(!out.failed(), "{:?}", out.regressions);
        assert_eq!(out.compared, 1); // table01 skipped by the floor
    }

    #[test]
    fn gate_prefers_cpu_time_over_noisy_wall_clock() {
        // Wall clock doubled (preempted run) but CPU time is unchanged:
        // the code did the same work, so the gate must pass.
        let base = sample();
        let mut cur = sample();
        cur.experiments[0].wall_ms *= 2.0;
        let out = gate(&base, &cur, 0.25, 1.0);
        assert!(!out.failed(), "{:?}", out.regressions);
    }

    #[test]
    fn gate_falls_back_to_wall_when_cpu_unmeasured() {
        let mut base = sample();
        let mut cur = sample();
        base.experiments[0].cpu_ms = 0.0;
        cur.experiments[0].cpu_ms = 0.0;
        cur.experiments[0].wall_ms *= 2.0;
        let out = gate(&base, &cur, 0.25, 1.0);
        assert!(out.failed());
        assert_eq!(out.regressions[0].metric, "wall");
    }

    #[test]
    fn gate_requires_absolute_delta_past_min_ms() {
        // One CPU tick of quantization (10 -> 20 ms) is a 2x ratio but
        // only a 10 ms delta; with min_ms = 10 it must not flag.
        let mut base = sample();
        let mut cur = sample();
        base.experiments[0].cpu_ms = 10.0;
        cur.experiments[0].cpu_ms = 20.0;
        let out = gate(&base, &cur, 0.25, 10.0);
        assert!(!out.failed(), "{:?}", out.regressions);
    }

    #[test]
    fn gate_flags_missing_experiments() {
        let base = sample();
        let mut cur = sample();
        cur.experiments.remove(1);
        let out = gate(&base, &cur, 0.25, 1.0);
        assert!(out.failed());
        assert_eq!(out.missing, vec!["table01".to_string()]);
    }
}
