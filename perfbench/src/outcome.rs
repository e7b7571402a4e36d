//! What one run reports, and the result line it prints.

use crate::json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// The result of one run of a workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Every correctness violation found; empty means correct.
    pub problems: Vec<String>,
    /// The reported metrics: end-to-end ones in an untraced run,
    /// per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// Time the measuring thread sat runnable but not running during the
    /// timed phase, in ms. Printed by every run.
    pub runqueue_wait_ms: f64,
    /// Notes printed before the result line (per-run context such as the
    /// end-to-end figures a traced run saw).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a correctness violation.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The last line of a run's standard output: one JSON object with
    /// exactly the keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::number(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The line printed just before the result line, so that a run slowed
    /// by other tenants can be recognised without a rerun.
    pub fn summary_line(&self, workload: &str, seed: u64) -> String {
        format!(
            "perfbench: workload={workload} seed={seed} attempted={} failed={} host.runqueue_wait_ms={:.3} correct={}",
            self.attempted,
            self.failed,
            self.runqueue_wait_ms,
            self.correct()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 20,
            failed: 1,
            ..Outcome::default()
        };
        o.metric("latency_ms", 1.2034, "ms");
        let j = Json::parse(&o.result_line()).unwrap();
        let Json::Obj(fields) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        let m = j.get("metrics").and_then(|m| m.get("latency_ms")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        o.problem("wrong output");
        let j = Json::parse(&o.result_line()).unwrap();
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(false));
    }
}
