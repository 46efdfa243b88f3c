//! Runs every workload briefly, untraced and traced, and checks the
//! result line: exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`, a correct run, and exactly the metric names and units
//! `BENCHMARK.json` declares for that mode.

use std::process::Command;

use jucq_obs::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declared(key: &str) -> Vec<(String, String)> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let mut out: Vec<(String, String)> = doc
        .get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn run(workload: &str, seconds: u32, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_jucq-e2e"))
        .args(["--workload", workload, "--seed", "3", "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace={trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: result line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    // serve_rw needs 20 writes (one every 250 ms) in the untraced half
    // of a traced run for its write tail.
    for (workload, seconds) in [("paper_cold", 2), ("template_hot", 2), ("serve_rw", 12)] {
        for trace in [false, true] {
            let result = run(workload, seconds, trace);
            let keys: Vec<&str> =
                result.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{workload}");
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{workload}");
            assert!(result.get("attempted").and_then(Value::as_u64).is_some_and(|n| n >= 1));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{workload}");
            let mut emitted: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
                    assert!(value.is_finite(), "{workload} {name}");
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_owned())
                })
                .collect();
            emitted.sort();
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(emitted, declared(key), "{workload} trace={trace}");
        }
    }
}
