//! The metric catalogue and the result line.
//!
//! The catalogue is `BENCHMARK.json` itself, compiled in. A run with
//! `--trace 0` reports every `end_to_end` metric, a run with `--trace 1`
//! every `per_layer` metric; a per-layer metric whose layer the workload
//! never touches reads 0 and is explained on an `n/a` line of the
//! human-readable summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `BENCHMARK.json` from the repository root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// (name, unit) of every metric in the `per_layer` (`traced`) or
/// `end_to_end` list of `BENCHMARK.json`, in file order.
pub fn catalogue(traced: bool) -> Vec<(String, String)> {
    let key = if traced { "per_layer" } else { "end_to_end" };
    let doc = serde::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(key)
        .and_then(|v| v.as_array())
        .expect("BENCHMARK.json lists the metrics")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(|v| v.as_str())
                    .expect("every metric has a name and a unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// What one workload run produced: operation counts, metric values by
/// name, and human-readable lines for the summary.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check other than a per-operation one failed.
    pub broken: bool,
    /// Why per-layer metrics this workload does not produce read 0.
    pub na_reason: String,
    pub values: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Add a human-readable summary line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Record one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && !self.broken
    }

    /// The human-readable summary followed by the result line (the
    /// last line). `Err` names an end-to-end metric the workload did
    /// not produce, or a non-finite value.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let mut out = String::new();
        for line in &self.lines {
            writeln!(out, "{line}").unwrap();
        }
        let error_rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        writeln!(
            out,
            "error_rate = {error_rate} (= {} failed / {} attempted)",
            self.failed, self.attempted
        )
        .unwrap();
        let mut metrics = Vec::new();
        for (name, unit) in catalogue(traced) {
            let value = match self.values.get(name.as_str()) {
                Some(v) if v.is_finite() => {
                    writeln!(out, "{name} = {v} {unit}").unwrap();
                    *v
                }
                Some(v) => return Err(format!("metric {name} is not finite ({v})")),
                None if traced => {
                    writeln!(out, "{name} = n/a ({})", self.na_reason).unwrap();
                    0.0
                }
                None => return Err(format!("metric {name} was not measured")),
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
        .unwrap();
        Ok(out)
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(traced: bool) -> Outcome {
        let mut o = Outcome::default();
        for (name, _) in catalogue(traced) {
            o.set(Box::leak(name.into_boxed_str()), 1.5);
        }
        o.op(true);
        o
    }

    #[test]
    fn catalogue_has_setup_time_and_per_layer_metrics() {
        let e2e = catalogue(false);
        assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
        assert!(catalogue(true).len() > e2e.len());
    }

    #[test]
    fn result_line_is_last_and_complete() {
        for traced in [false, true] {
            let text = measured(traced).render(traced).unwrap();
            let doc = serde::json::parse(text.lines().last().unwrap()).unwrap();
            assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
            assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(1));
            assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
            let metrics = doc.get("metrics").unwrap();
            for (name, unit) in catalogue(traced) {
                let m = metrics.get(&name).unwrap();
                assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some(unit.as_str()));
                assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1.5));
            }
        }
    }

    #[test]
    fn missing_or_infinite_end_to_end_metric_is_an_error() {
        let mut o = Outcome::default();
        o.op(true);
        assert!(o.render(false).is_err());
        let mut o = measured(false);
        o.set("setup_s", f64::INFINITY);
        assert!(o.render(false).is_err());
    }

    #[test]
    fn unused_layers_read_zero_and_say_why() {
        let mut o = Outcome {
            na_reason: "no simulation".into(),
            ..Outcome::default()
        };
        o.op(true);
        o.set("sim-serve.exec_ms", 0.25);
        let text = o.render(true).unwrap();
        assert!(text.contains("avf.report_s = n/a (no simulation)"));
        assert!(text.contains("sim-serve.exec_ms = 0.25 ms"));
        let doc = serde::json::parse(text.lines().last().unwrap()).unwrap();
        let v = doc
            .get("metrics")
            .and_then(|m| m.get("avf.report_s"))
            .unwrap();
        assert_eq!(v.get("value").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn failed_operations_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.op(true);
        o.op(false);
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
    }

    #[test]
    fn whole_numbers_keep_a_decimal_point() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.125), "0.125");
    }
}
