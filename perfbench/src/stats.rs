//! Order statistics and the result line.

/// Percentiles the tail metric may report, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile must leave beyond it before it is reported.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted samples.
fn nearest_rank(sorted: &[f64], p: f64) -> (usize, f64) {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    (rank, sorted[rank.min(sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency summary of one run: the median and the highest ladder
/// percentile with at least ten samples beyond it.
pub struct LatencySummary {
    pub samples: usize,
    pub p50_ms: f64,
    pub tail_pct: f64,
    pub tail_ms: f64,
}

pub fn latency_summary(samples_ms: &[f64]) -> LatencySummary {
    let mut v = samples_ms.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "no latency samples");
    let p50_ms = median(&v);
    let (mut tail_pct, mut tail_ms) = (50.0, p50_ms);
    for p in TAIL_LADDER {
        let (rank, value) = nearest_rank(&v, p);
        if v.len() - rank >= TAIL_BEYOND {
            (tail_pct, tail_ms) = (p, value);
        }
    }
    LatencySummary {
        samples: v.len(),
        p50_ms,
        tail_pct,
        tail_ms,
    }
}

/// One metric value with its unit, as printed.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Value]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Full-precision JSON number (non-finite values have no JSON form and
/// are reported as `null`, which fails the run's consumer loudly).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Minimal JSON string escaping for the spec file.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = latency_summary(&v);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail_ms, 90.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(latency_summary(&v).tail_pct, 99.0);
    }
}
