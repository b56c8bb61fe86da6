//! What a workload run hands back, and the result line built from it.

use crate::host::Clocks;

/// What one run was asked to do.
pub struct RunSpec {
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    pub traced: bool,
    /// Clocks started with the process: the first set-up is timed from
    /// here.
    pub process_start: Clocks,
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Median CPU time of the repeated set-ups, seconds.
    pub setup_s: f64,
    /// Per-op times, seconds: process CPU time of one BFC call, or wall
    /// time of one request from its due time to its full response.
    pub op_s: Vec<f64>,
    /// The ops `op_ms_p50` is taken over when not all of them
    /// (`serve_open`: the light phase).
    pub p50_s: Option<Vec<f64>>,
    /// Mean CPU time inside one op's time, seconds: `None` when `op_s` are
    /// CPU times themselves (the closed loops).
    pub op_cpu_s: Option<f64>,
    /// Time the ops were measured over, seconds: the op clocks summed for
    /// the closed loops, the phases' wall time for `serve_open`.
    pub timed_s: f64,
    /// CPU time inside `timed_s`, seconds.
    pub timed_cpu_s: f64,
    /// Wall time of the same ops, seconds (closed loops; for the notes).
    pub timed_wall_s: f64,
    /// Σ `ConvShape::bfc_flops` of the ops that completed.
    pub flops: f64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Largest checked error, in units of `u·Σ|x·∇y|`.
    pub oracle_worst: f64,
    /// Per-layer metrics (traced runs only).
    pub layer: Vec<Metric>,
}

impl Outcome {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Ops that completed and passed their check.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// The last stdout line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}, …}}`. Refuses non-finite
/// values, which JSON cannot carry.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let m = vec![
            Metric {
                name: "op_ms_p50".into(),
                value: 1.25,
                unit: "ms",
            },
            Metric {
                name: "setup_s".into(),
                value: 0.5,
                unit: "s",
            },
        ];
        let line = result_line(true, 10, 0, &m).expect("finite");
        let doc = winrs_json::Json::parse(&line).expect("valid JSON");
        assert_eq!(
            doc.get("attempted").and_then(winrs_json::Json::as_f64),
            Some(10.0)
        );
        let metrics = doc.get("metrics").expect("metrics");
        let p50 = metrics
            .get("op_ms_p50")
            .and_then(|v| v.get("value"))
            .and_then(winrs_json::Json::as_f64);
        assert_eq!(p50, Some(1.25));
        let bad = vec![Metric {
            name: "x".into(),
            value: f64::NAN,
            unit: "ms",
        }];
        assert!(result_line(true, 1, 0, &bad).is_err());
    }
}
