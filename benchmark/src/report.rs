//! The result line: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! The metric names a run may print are the ones `BENCHMARK.json` (at
//! the repository root, embedded at build time) declares: its
//! `end_to_end` list for an untraced run, its `per_layer` list for a
//! traced one. A run that would print any other set fails instead.

use jucq_obs::json::{self, Value};

/// The benchmark's declaration, embedded so a rebuilt binary always
/// checks against the file it was built with.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every checked answer equalled the oracle's.
    pub correct: bool,
    pub attempted: u64,
    /// Requests that failed or were refused outside the expected cells.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Metric names are made of `[A-Za-z0-9_.-]`, start with a letter or
/// digit and have at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares for an untraced
/// (`traced = false`, `end_to_end`) or traced (`per_layer`) run.
pub fn declared(traced: bool) -> Result<Vec<(String, String)>, String> {
    let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if traced { "per_layer" } else { "end_to_end" };
    let list = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no `{key}`"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_owned);
            match (field("name"), field("unit")) {
                (Some(name), Some(unit)) => Ok((name, unit)),
                _ => Err(format!("BENCHMARK.json: `{key}` entry without name or unit")),
            }
        })
        .collect()
}

/// Check that `metrics` are exactly the declared set (same names, same
/// units, each once) and every value is finite.
pub fn check(metrics: &[Metric], traced: bool) -> Result<(), String> {
    let declared = declared(traced)?;
    let mut problems = Vec::new();
    for m in metrics {
        if !valid_name(m.name) {
            problems.push(format!("invalid metric name `{}`", m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("`{}` is not finite ({})", m.name, m.value));
        }
        if metrics.iter().filter(|o| o.name == m.name).count() > 1 {
            problems.push(format!("`{}` emitted twice", m.name));
        }
        match declared.iter().find(|(n, _)| n == m.name) {
            None => problems.push(format!("`{}` is not declared in BENCHMARK.json", m.name)),
            Some((_, unit)) if unit != m.unit => problems
                .push(format!("`{}` has unit {} but BENCHMARK.json says {unit}", m.name, m.unit)),
            Some(_) => {}
        }
    }
    for (name, _) in &declared {
        if !metrics.iter().any(|m| m.name == name) {
            problems.push(format!("`{name}` is declared in BENCHMARK.json but not emitted"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        problems.dedup();
        Err(problems.join("; "))
    }
}

/// The result line.
pub fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit of the measurement (Rust's shortest
/// round-trip form), always with a fraction or exponent.
fn number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        for traced in [false, true] {
            let names = declared(traced).expect("BENCHMARK.json parses");
            assert!(!names.is_empty());
            for (i, (name, _)) in names.iter().enumerate() {
                assert!(valid_name(name), "{name}");
                assert!(names[i + 1..].iter().all(|(n, _)| n != name), "{name} twice");
            }
        }
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("store.exec.tuples_scanned"));
        assert!(valid_name("latency_p50_ms"));
        assert!(valid_name("a-b.c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn check_rejects_missing_extra_and_mismatched() {
        let declared = declared(false).unwrap();
        let all: Vec<Metric> = declared
            .iter()
            .map(|(n, u)| Metric {
                name: Box::leak(n.clone().into_boxed_str()),
                value: 1.5,
                unit: Box::leak(u.clone().into_boxed_str()),
            })
            .collect();
        assert_eq!(check(&all, false), Ok(()));
        assert!(check(&all[1..], false).is_err());
        let mut extra = all.clone();
        extra.push(Metric::new("not_declared", 1.0, "ms"));
        assert!(check(&extra, false).is_err());
        let mut unit = all.clone();
        unit[0].unit = "furlongs";
        assert!(check(&unit, false).is_err());
        let mut nan = all;
        nan[0].value = f64::NAN;
        assert!(check(&nan, false).is_err());
    }

    #[test]
    fn render_is_parseable_json_with_full_digits() {
        let line = render(&Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::new("qps", 1234.0, "1/s"),
                Metric::new("x", 0.123456789012, "ms"),
            ],
        });
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(3));
        let x = v.get("metrics").and_then(|m| m.get("x")).and_then(|m| m.get("value"));
        assert_eq!(x.and_then(Value::as_f64), Some(0.123456789012));
        assert!(line.contains("\"value\": 1234.0"));
    }
}
