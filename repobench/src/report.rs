//! Result collection and the one-line JSON result.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Everything one run reports: metrics, operations attempted and failed,
/// and the output checks.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in insertion order.
    pub metrics: Vec<Metric>,
    /// Operations attempted: trainings, requests, checks.
    pub attempted: u64,
    /// Failed operations: failed checks, shed requests, missed deadlines
    /// and wrong answers.
    pub failed: u64,
    /// `(check, passed, detail)` for every output check made.
    pub checks: Vec<(String, bool, String)>,
}

impl Report {
    /// Record `name = value unit` (replacing an earlier value of `name`).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record an output check; a failed check is a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Record `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Failed operations over attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Keep only the metrics named in `names`, in that order. A name with
    /// no measurement is an error: the result must carry every metric.
    pub fn select(&self, names: &[&str]) -> Result<Vec<Metric>, String> {
        names
            .iter()
            .map(|&n| {
                self.metrics
                    .iter()
                    .find(|m| m.name == n)
                    .cloned()
                    .ok_or_else(|| format!("metric {n} was not measured"))
            })
            .collect()
    }

    /// Human-readable lines: checks, then every metric measured.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok  " } else { "FAIL" };
            let _ = writeln!(s, "check {verdict} {name}: {detail}");
        }
        for m in &self.metrics {
            let _ = writeln!(s, "{:<24} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            s,
            "{:<24} {:>16.6} ratio ({} of {} operations failed)",
            "fail_ratio",
            self.fail_ratio(),
            self.failed,
            self.attempted
        );
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self, metrics: &[Metric]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits; non-finite values (which JSON
/// cannot carry) become `-1`, and the caller's checks fail the run.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let mut r = Report::default();
        r.metric("train_s", 1.25, "s");
        r.check("finite", true, "all finite");
        let line = r.json(&r.select(&["train_s"]).unwrap());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"train_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(r.select(&["missing"]).is_err());
    }
}
