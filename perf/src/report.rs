//! What a run prints: one `name value unit` line per metric, and as the
//! last line of standard output the JSON object the driver reads.

use crate::spec::MetricDef;
use mobidx_obs::json::Value;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The declared metrics of the mode that ran, in declaration order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics (`# ...`).
    pub notes: Vec<String>,
    /// Client calls made plus oracle checks made.
    pub attempted: u64,
    /// Calls that failed plus checks that disagreed.
    pub failed: u64,
}

impl Report {
    /// Whether every call succeeded and every answer was exact.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of a metric by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable lines followed by the driver's JSON line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "failed_ops {} count", self.failed);
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
    /// rendered by the repository's own JSON emitter. A value that is not
    /// finite has no JSON form and is reported as 0.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                let entry = Value::Obj(vec![
                    ("value".to_owned(), Value::Num(value)),
                    ("unit".to_owned(), Value::from(m.unit)),
                ]);
                (m.name.to_owned(), entry)
            })
            .collect();
        Value::Obj(vec![
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), Value::from(self.attempted)),
            ("failed".to_owned(), Value::from(self.failed)),
            ("metrics".to_owned(), Value::Obj(metrics)),
        ])
        .render()
    }
}

/// Collects values for a declared metric list, then emits them in the
/// declared order; a metric nobody set is reported as 0.
#[derive(Debug)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl MetricSet {
    /// An all-zero set over `defs`.
    #[must_use]
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    /// Panics on a name that is not declared: that is a bug in the
    /// harness, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values[i] = value;
    }

    /// The metrics in declaration order.
    #[must_use]
    pub fn into_metrics(self) -> Vec<Metric> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let report = Report {
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
            notes: vec!["# note".to_owned()],
            attempted: 10,
            failed: 0,
        };
        let text = report.render();
        let last = text.lines().last().unwrap();
        let v = mobidx_obs::json::Value::parse(last).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(0.8127));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("s"));
        assert!(text.contains("setup_s 0.8127 s\n"));
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let report = Report {
            attempted: 5,
            failed: 1,
            ..Report::default()
        };
        assert!(!report.correct());
        assert!(report.json().starts_with("{\"correct\":false"));
    }

    #[test]
    fn unset_metrics_read_zero_and_order_is_declared_order() {
        static DEFS: [MetricDef; 2] = [("a", "us"), ("b", "count")];
        let mut set = MetricSet::new(&DEFS);
        set.set("b", 2.0);
        let m = set.into_metrics();
        assert_eq!((m[0].name, m[0].value), ("a", 0.0));
        assert_eq!((m[1].name, m[1].value), ("b", 2.0));
    }
}
