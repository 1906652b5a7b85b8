//! Outside-in layer tracing.
//!
//! The program is not instrumented. A traced operation is the program's
//! own call, timed as a whole; afterwards the harness replays the layer
//! calls that operation made, on the same inputs and in the order the
//! program composes them, timing each one. A replayed composite call
//! (say `execute_resilient`) names its replayed children by parent, so a
//! layer's self time is its span minus the spans of its timed children.
//! Spans stay in memory until the run ends.
//!
//! The attribution check compares the replayed root spans with the
//! operation spans in process CPU time, which counts every thread: the
//! serving front executes cohorts on several workers while the replay runs
//! them one after another, so wall time would not compare like with like.

use std::collections::BTreeMap;

use crate::host::timed;

struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    wall_ms: f64,
    cpu_ms: f64,
}

/// Spans of one traced run.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    op_wall_ms: Vec<f64>,
    op_cpu_ms: f64,
    /// Operations (in the workload's unit) the traced calls cover.
    pub ops: u64,
    /// Extra work wrapped around every replayed fingerprint call; see
    /// [`crate::Knobs::fingerprint_delay`].
    pub fingerprint_delay: bool,
}

impl Tracer {
    pub fn new(fingerprint_delay: bool) -> Tracer {
        Tracer {
            fingerprint_delay,
            ..Tracer::default()
        }
    }

    /// Record one program call, timed by the caller, as an operation span.
    pub fn record_op(&mut self, wall_ms: f64, cpu_ms: f64) {
        self.op_wall_ms.push(wall_ms);
        self.op_cpu_ms += cpu_ms;
    }

    /// Time one replayed layer call.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = timed(f);
        self.spans.push(Span {
            name,
            parent,
            wall_ms: t.wall_ms,
            cpu_ms: t.cpu_ms,
        });
        t.value
    }

    /// Record a span derived by the caller (a difference of two timings).
    pub fn record_span(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        wall_ms: f64,
        cpu_ms: f64,
    ) {
        self.spans.push(Span {
            name,
            parent,
            wall_ms,
            cpu_ms,
        });
    }

    /// Replay `StructureFingerprint::of`, with the self-test delay when on.
    pub fn fingerprint(&mut self, parent: Option<&'static str>, g: &graph_sparse::Csr) {
        let delay = self.fingerprint_delay;
        self.span("sparse.fingerprint", parent, || {
            std::hint::black_box(graph_sparse::StructureFingerprint::of(g));
            delay_fingerprint(delay, g);
        });
    }

    /// Self wall ms per operation of every layer seen, by name.
    pub fn self_ms_per_op(&self) -> BTreeMap<&'static str, f64> {
        let mut total: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            *total.entry(s.name).or_default() += s.wall_ms;
            if let Some(p) = s.parent {
                *total.entry(p).or_default() -= s.wall_ms;
            }
        }
        let ops = self.ops.max(1) as f64;
        total.into_iter().map(|(k, v)| (k, v / ops)).collect()
    }

    /// Wall ms per operation of every span of `name`, children included.
    pub fn inclusive_ms_per_op(&self, name: &str) -> f64 {
        let sum = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.wall_ms);
        sum / self.ops.max(1) as f64
    }

    /// Share of the operations' CPU time that the replayed root spans
    /// account for.
    pub fn coverage(&self) -> f64 {
        let roots = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .fold(0.0, |acc, s| acc + s.cpu_ms);
        roots / self.op_cpu_ms.max(1e-9)
    }

    /// Median wall time of the traced operation spans.
    pub fn op_p50_ms(&self) -> f64 {
        crate::stats::median(&self.op_wall_ms)
    }
}

/// Extra passes the self-test adds per fingerprint pass: the layer then
/// takes about four times as long, a delay well clear of run-to-run noise.
pub const DELAY_PASSES: usize = 3;

/// The self-test delay for one `StructureFingerprint::of` pass over `g`:
/// `DELAY_PASSES` more passes, when `on`. Replayed composite calls that
/// fingerprint inside (`execute_resilient`, `Plan::patch`) take it in their
/// own span too, as the program would.
pub fn delay_fingerprint(on: bool, g: &graph_sparse::Csr) {
    if on {
        for _ in 0..DELAY_PASSES {
            std::hint::black_box(graph_sparse::StructureFingerprint::of(g));
        }
    }
}
