//! The repository benchmark: one command that generates a workload from a
//! seed, runs it against the library's public functions, checks the
//! outputs and prints every metric by name with its unit. The last line
//! of standard output is the machine-readable result.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload spmm-hot --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. See `perfbench/README.md` for definitions.

mod gcn;
mod host;
mod serve;
mod spmm_hot;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use stats::{json_number, json_string, latency_summary, median, Value};

/// `(name, why)` of every workload.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "spmm-hot",
        "warm-plan Plan::execute round-robin over five registry graphs: numeric kernels and gpu-sim scheduling do nearly all the work",
    ),
    (
        "serve-mix",
        "read-only multi-tenant Front traffic over 48 structures, a third of them cacheable: screening, fingerprinting and prepare dominate",
    ),
    (
        "serve-churn",
        "DurableFront serving under edge churn: delta apply, Plan::patch, swap, WAL fsync and snapshots run beside reads",
    ),
    (
        "gcn-train",
        "2-layer GCN epochs with the fused HcAggregator: the gnn dense GEMMs and fused Aggregation+Update run nowhere else",
    ),
];

/// `(name, unit, better, bound)` of every end-to-end metric.
const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("sim_op_ms", "sim_ms", "lower", 0.15),
    ("success_rate", "frac", "higher", 0.01),
    ("fresh_frac", "frac", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// `(name, unit, better)` of every per-layer metric.
const PER_LAYER: [(&str, &str, &str); 35] = [
    ("sparse.fingerprint_ms", "ms", "lower"),
    ("sparse.validate_ms", "ms", "lower"),
    ("sparse.window_build_ms", "ms", "lower"),
    ("sparse.delta_apply_ms", "ms", "lower"),
    ("sparse.meta_bytes", "bytes", "lower"),
    ("core.prepare_ms", "ms", "lower"),
    ("core.classify_ms", "ms", "lower"),
    ("core.patch_ms", "ms", "lower"),
    ("core.numeric_ms", "ms", "lower"),
    ("core.numeric_gflops", "GFLOP/s", "higher"),
    ("core.block_cost_ms", "ms", "lower"),
    ("core.validate_ms", "ms", "lower"),
    ("core.retries", "count", "lower"),
    ("core.tensor_window_frac", "frac", "higher"),
    ("core.workspace_hit_rate", "frac", "higher"),
    ("gpu_sim.schedule_ms", "ms", "lower"),
    ("gpu_sim.blocks", "count", "lower"),
    ("gpu_sim.dram_mb", "MB", "lower"),
    ("gpu_sim.sim_exec_ms", "sim_ms", "lower"),
    ("gpu_sim.sim_prepare_ms", "sim_ms", "lower"),
    ("parallel.regions", "count", "higher"),
    ("parallel.serial_fallbacks", "count", "lower"),
    ("parallel.spawn_ns", "ns", "lower"),
    ("parallel.ns_per_unit", "ns", "lower"),
    ("serve.hit_rate", "frac", "higher"),
    ("serve.evictions", "count", "lower"),
    ("serve.cohort_rate", "frac", "higher"),
    ("serve.plan_bytes", "bytes", "lower"),
    ("serve.durable_overhead_ms", "ms", "lower"),
    ("serve.wal_bytes", "bytes", "lower"),
    ("serve.patched_frac", "frac", "higher"),
    ("gnn.dense_ms", "ms", "lower"),
    ("gnn.aggregate_ms", "ms", "lower"),
    ("trace.coverage", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
];

/// Measured seconds per run, as written to `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;

/// Set-ups per run: at least `SETUP_MIN_REPS`, then more while together
/// they took under `SETUP_MIN_S`, up to `SETUP_MAX_REPS`. `setup_s` is
/// their median. One set-up can swing by a third within a run; the median
/// of several swings less. serve-mix, whose set-up takes seconds, stays at
/// the minimum so that all runs fit the time limit.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 4.0;
const SETUP_MAX_REPS: usize = 25;

/// Whether a workload has set up often enough, given each set-up's seconds.
pub fn setup_done(setup_s: &[f64]) -> bool {
    let n = setup_s.len();
    n >= SETUP_MAX_REPS || (n >= SETUP_MIN_REPS && setup_s.iter().sum::<f64>() >= SETUP_MIN_S)
}

/// Settings of one run.
pub struct Knobs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test of the benchmark: every fingerprint pass the program makes
    /// is followed, inside the timed operation, by `trace::DELAY_PASSES`
    /// more `StructureFingerprint::of` passes over the same graph — a known
    /// delay in that one layer. Off unless `--inject-fingerprint-delay`.
    pub fingerprint_delay: bool,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Measured {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host latency of each completed operation, ms.
    pub latencies_ms: Vec<f64>,
    /// The same latencies split by operation class, when a workload mixes
    /// classes of very different cost. `op_p50_ms` is then the geometric
    /// mean of the classes' medians: the median of the mixture would sit at
    /// the edge between two classes, where a small shift in either moves
    /// it far.
    pub latency_classes: Vec<(&'static str, Vec<f64>)>,
    /// Wall seconds the timed operations took, summed.
    pub busy_s: f64,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Attempted operations that failed, were shed or gave a wrong output.
    pub failed: u64,
    /// Simulated device ms of the completed operations, summed.
    pub sim_ms: f64,
    /// Served requests answered by a stale plan.
    pub stale: u64,
    /// Output-check failures (each also counts in `failed`).
    pub wrong: u64,
    /// Other check failures (attribution floor, determinism), described.
    pub check_failures: Vec<String>,
    /// Bytes of graphs, features and plans the workload keeps live.
    pub working_set_bytes: u64,
    /// Per-layer values of the traced run, by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--inject-fingerprint-delay]\n       perfbench --write-spec <path>",
        WORKLOADS.map(|w| w.0).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut fingerprint_delay = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned();
        match a.as_str() {
            "--workload" => workload = val(),
            "--seed" => seed = val().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = val().and_then(|v| v.parse::<f64>().ok()),
            "--trace" => trace = val().and_then(|v| v.parse::<u8>().ok()),
            "--inject-fingerprint-delay" => fingerprint_delay = true,
            "--write-spec" => {
                let Some(path) = val() else { return usage() };
                return match std::fs::write(&path, spec_json()) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("cannot write {path}: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace @ (0 | 1))) =
        (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return usage();
    }
    let knobs = Knobs {
        seed,
        seconds,
        trace: trace == 1,
        fingerprint_delay,
    };

    let pin = host::pin_engine();
    let run: fn(&Knobs) -> Measured = match workload.as_str() {
        "spmm-hot" => spmm_hot::run,
        "serve-mix" => serve::run_mix,
        "serve-churn" => serve::run_churn,
        "gcn-train" => gcn::run,
        _ => return usage(),
    };
    hc_parallel::reset_pool_stats();
    let m = run(&knobs);
    report(&workload, &knobs, &pin, m)
}

fn report(workload: &str, knobs: &Knobs, pin: &host::EnginePin, mut m: Measured) -> ExitCode {
    let cal = hc_parallel::calibration();
    let pool = hc_parallel::pool_stats();
    println!(
        "workload {workload} seed {} seconds {} trace {}{}",
        knobs.seed,
        knobs.seconds,
        knobs.trace as u8,
        if knobs.fingerprint_delay {
            " (self-test: fingerprint delay injected)"
        } else {
            ""
        }
    );
    println!(
        "host: nproc {} HC_THREADS {} profile {} commit {} llc {}",
        host::nproc(),
        pin.threads,
        host::profile(),
        host::git_commit(),
        host::llc()
    );
    println!(
        "calibration: spawn_ns {:.1} ns_per_unit {:.4} cores {} ({}, {})",
        cal.spawn_ns,
        cal.ns_per_unit,
        cal.cores,
        if host::calibration_pinned(cal.cores) {
            "pinned"
        } else {
            "measured: no pinned entry for this core count"
        },
        pin.calibration_path.display()
    );
    println!(
        "pool_stats: parallel_regions {} serial_fallbacks {}",
        pool.parallel_regions, pool.serial_fallbacks
    );
    println!(
        "working set: {:.1} MB",
        m.working_set_bytes as f64 / (1 << 20) as f64
    );
    for n in &m.notes {
        println!("{n}");
    }
    let mut setups = m.setup_s.clone();
    setups.sort_by(f64::total_cmp);
    println!(
        "set-up: {} reps, min {:.4} median {:.4} max {:.4} s",
        setups.len(),
        setups[0],
        median(&setups),
        setups[setups.len() - 1]
    );

    let mut correct = m.wrong == 0 && m.check_failures.is_empty();
    let metrics: Vec<Value> = if knobs.trace {
        m.layers.insert("parallel.spawn_ns", cal.spawn_ns);
        m.layers.insert("parallel.ns_per_unit", cal.ns_per_unit);
        for name in m.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|l| l.0 == *name),
                "workload reported an undeclared layer metric {name}"
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Value {
                name,
                value: m.layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    } else {
        let lat = latency_summary(&m.latencies_ms);
        let ops = m.latencies_ms.len() as f64;
        println!(
            "latency: {} samples, p50 {:.3} ms, tail p{} {:.3} ms",
            lat.samples, lat.p50_ms, lat.tail_pct, lat.tail_ms
        );
        let mut p50_ms = lat.p50_ms;
        let classes: Vec<_> = m
            .latency_classes
            .iter()
            .filter(|(_, samples)| !samples.is_empty())
            .collect();
        if !classes.is_empty() {
            let mut log_sum = 0.0;
            for (name, samples) in &classes {
                let p50 = median(samples);
                println!("latency {name}: {} samples, p50 {p50:.3} ms", samples.len());
                log_sum += p50.ln();
            }
            p50_ms = (log_sum / classes.len() as f64).exp();
            println!("op_p50_ms is the geometric mean of the per-class medians");
        }
        let values = [
            median(&m.setup_s),
            ops / m.busy_s,
            p50_ms,
            lat.tail_ms,
            m.sim_ms / ops,
            1.0 - m.failed as f64 / m.attempted.max(1) as f64,
            1.0 - m.stale as f64 / ops,
            host::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), value)| Value { name, value, unit })
            .collect()
    };
    for v in &metrics {
        println!("{:<28} {:>16} {}", v.name, json_number(v.value), v.unit);
        if !v.value.is_finite() {
            correct = false;
        }
    }
    if m.wrong > 0 {
        println!("OUTPUT CHECK FAILED: {} wrong outputs", m.wrong);
    }
    for f in &m.check_failures {
        println!("CHECK FAILED: {f}");
    }
    println!(
        "{}",
        stats::result_line(correct, m.attempted.max(1), m.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, generated from the tables above so the spec and the
/// program cannot disagree.
fn spec_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, w)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(n),
                json_string(w)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                json_string(n),
                json_string(u),
                json_string(b)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(n),
                json_string(u),
                json_string(b)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Fold a traced run into the per-layer metrics: each span's self time per
/// operation under its `<span>_ms` metric, the attribution share (checked
/// against `floor`) and the tracing overhead against the untraced
/// operations interleaved with the traced ones.
pub fn finish_trace(m: &mut Measured, tr: &trace::Tracer, untraced_ms: &[f64], floor: f64) {
    for (span, ms) in tr.self_ms_per_op() {
        let key = format!("{span}_ms");
        match PER_LAYER.iter().find(|l| l.0 == key) {
            Some(&(name, _, _)) => {
                m.layers.insert(name, ms);
            }
            None => m.notes.push(format!("span {span}: self {ms:.4} ms/op")),
        }
    }
    let coverage = tr.coverage();
    m.layers.insert("trace.coverage", coverage);
    m.notes.push(format!(
        "attribution: replayed layer calls cover {:.1}% of the operations' CPU time (floor {:.0}%)",
        coverage * 100.0,
        floor * 100.0
    ));
    if coverage.is_nan() || coverage < floor {
        m.check_failures
            .push(format!("attribution {coverage:.3} below the floor {floor}"));
    }
    if !untraced_ms.is_empty() {
        m.layers.insert(
            "trace.overhead_frac",
            tr.op_p50_ms() / median(untraced_ms) - 1.0,
        );
    }
}
