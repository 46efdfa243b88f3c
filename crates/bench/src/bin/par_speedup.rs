//! Parallel-execution speedup: sequential vs multi-threaded JUCQ
//! evaluation on a reformulation-heavy LUBM workload.
//!
//! Runs the UCQ and GCov strategies at parallelism 1 (the strictly
//! sequential engine) and 4 (the issue's reference worker count) over
//! the LUBM workload, and records per-strategy wall times plus the
//! aggregate speedup in `results/BENCH_par_speedup.json`. The sidecar
//! also captures the host's available hardware concurrency: on a
//! single-core host the worker pool cannot physically speed anything
//! up, and the recorded speedup will honestly hover around 1.0×.
//!
//! Run: `cargo run --release -p jucq-bench --bin par_speedup [universities]`

use std::time::{Duration, Instant};

use jucq_bench::harness::{arg_scale, lubm_db, parse_workload, render_table};
use jucq_core::Strategy;
use jucq_datagen::lubm;
use jucq_store::EngineProfile;

const SEQUENTIAL: usize = 1;
const PARALLEL: usize = 4;
const WARM: u32 = 3;

struct Measurement {
    query: String,
    strategy: &'static str,
    seq: Option<Duration>,
    par: Option<Duration>,
}

/// Best-of-`WARM` warm evaluation time of one query, or `None` on
/// failure — the minimum is the standard noise-robust estimator for a
/// deterministic computation.
fn measure(
    db: &mut jucq_core::RdfDatabase,
    q: &jucq_reformulation::BgpQuery,
    strategy: &Strategy,
) -> Option<Duration> {
    db.answer(q, strategy).ok()?; // warm-up
    let mut best = Duration::MAX;
    for _ in 0..WARM {
        let started = Instant::now();
        db.answer(q, strategy).ok()?;
        best = best.min(started.elapsed());
    }
    Some(best)
}

fn ms(d: Option<Duration>) -> String {
    d.map(|d| format!("{:.1}", d.as_secs_f64() * 1e3)).unwrap_or_else(|| "-".into())
}

fn json_ms(d: Option<Duration>) -> String {
    d.map(|d| format!("{:.3}", d.as_secs_f64() * 1e3)).unwrap_or_else(|| "null".into())
}

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("par_speedup");
    let universities = arg_scale(1, 2);
    eprintln!("building LUBM-like({universities} universities)...");
    let mut db = lubm_db(universities, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.graph().len());

    let queries = parse_workload(&mut db, &lubm::workload());
    let strategies: [(&'static str, Strategy); 2] =
        [("UCQ", Strategy::Ucq), ("GCov", Strategy::gcov_default())];

    // The two parallelism legs alternate within each round so machine
    // drift over the run hits both equally; per-cell minima accumulate
    // across rounds.
    const ROUNDS: u32 = 3;
    let mut measurements: Vec<Measurement> = queries
        .iter()
        .flat_map(|(name, _)| {
            strategies.iter().map(|(label, _)| Measurement {
                query: name.clone(),
                strategy: label,
                seq: None,
                par: None,
            })
        })
        .collect();
    for round in 0..ROUNDS {
        eprintln!("round {}/{ROUNDS}...", round + 1);
        for (threads, slot) in [(SEQUENTIAL, 0usize), (PARALLEL, 1usize)] {
            db.set_profile(EngineProfile::pg_like().with_parallelism(threads));
            let mut mi = 0;
            for (_, q) in &queries {
                for (_, strategy) in &strategies {
                    let t = measure(&mut db, q, strategy);
                    let cell = &mut measurements[mi];
                    let best = if slot == 0 { &mut cell.seq } else { &mut cell.par };
                    *best = match (*best, t) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (prev, fresh) => fresh.or(prev),
                    };
                    mi += 1;
                }
            }
        }
    }

    // Aggregate speedup over the cells where both runs completed.
    let (mut seq_total, mut par_total) = (Duration::ZERO, Duration::ZERO);
    for m in &measurements {
        if let (Some(s), Some(p)) = (m.seq, m.par) {
            seq_total += s;
            par_total += p;
        }
    }
    let speedup =
        if par_total.is_zero() { 1.0 } else { seq_total.as_secs_f64() / par_total.as_secs_f64() };
    let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            let ratio = match (m.seq, m.par) {
                (Some(s), Some(p)) if !p.is_zero() => {
                    format!("{:.2}", s.as_secs_f64() / p.as_secs_f64())
                }
                _ => "-".into(),
            };
            vec![m.query.clone(), m.strategy.to_owned(), ms(m.seq), ms(m.par), ratio]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Parallel speedup: {SEQUENTIAL} vs {PARALLEL} workers \
                 ({hardware} hardware threads)"
            ),
            &[
                "q".into(),
                "strategy".into(),
                "seq (ms)".into(),
                "par (ms)".into(),
                "speedup".into()
            ],
            &rows,
        )
    );
    println!(
        "total: seq {:.1} ms, par {:.1} ms, speedup {speedup:.2}x",
        seq_total.as_secs_f64() * 1e3,
        par_total.as_secs_f64() * 1e3,
    );

    jucq_obs::metrics::gauge_set("bench.par_speedup.sequential_ms", seq_total.as_secs_f64() * 1e3);
    jucq_obs::metrics::gauge_set("bench.par_speedup.parallel_ms", par_total.as_secs_f64() * 1e3);
    jucq_obs::metrics::gauge_set("bench.par_speedup.speedup", speedup);

    // Requesting workers must never cost wall time. On a single-core
    // host `eval_union` runs the sequential path outright, so the
    // worker pool's fan-out overhead cannot produce the sub-1.0
    // "speedups" the seed measured (0.88x at 4 workers on 1 core); on
    // multi-core hosts the parallel leg should win outright.
    assert!(
        speedup >= 0.98,
        "parallelism regressed the workload: {speedup:.2}x (seq {:.1} ms, par {:.1} ms, \
         {hardware} hardware threads)",
        seq_total.as_secs_f64() * 1e3,
        par_total.as_secs_f64() * 1e3,
    );

    // Always write the machine-readable sidecar: the speedup number is
    // the experiment's artifact, not an optional trace.
    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"par_speedup\",\n");
    json.push_str(&format!("  \"universities\": {universities},\n"));
    json.push_str(&format!("  \"hardware_threads\": {hardware},\n"));
    json.push_str(&format!("  \"sequential_parallelism\": {SEQUENTIAL},\n"));
    json.push_str(&format!("  \"parallel_parallelism\": {PARALLEL},\n"));
    json.push_str(&format!("  \"sequential_total_ms\": {:.3},\n", seq_total.as_secs_f64() * 1e3));
    json.push_str(&format!("  \"parallel_total_ms\": {:.3},\n", par_total.as_secs_f64() * 1e3));
    json.push_str(&format!("  \"speedup\": {speedup:.4},\n"));
    json.push_str("  \"queries\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"strategy\": \"{}\", \
             \"sequential_ms\": {}, \"parallel_ms\": {}}}{}\n",
            m.query,
            m.strategy,
            json_ms(m.seq),
            json_ms(m.par),
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("BENCH_par_speedup.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
