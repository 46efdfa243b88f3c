//! Batched-execution speedup: one-row vs 1024-row batches, and the
//! extra win from sideways-information-passing (SIP) Bloom filters, on
//! the LUBM and DBLP reformulation workloads.
//!
//! Three modes share one prepared database per workload:
//!   batch1     1-row batches, SIP off — the per-tuple-poll baseline
//!   batch      1024-row batches, SIP off — batching alone
//!   batch+sip  1024-row batches, SIP on — the default engine
//! Every query's answer is asserted identical across the three modes,
//! wall times and the SIP probe/drop totals are recorded, and the
//! machine-readable artifact lands in `results/BENCH_vectorized.json`.
//!
//! Run: `cargo run --release -p jucq-bench --bin vec_speedup [scale]`

use std::time::Duration;

use jucq_bench::harness::{arg_scale, dblp_db, lubm_db, parse_workload, render_table};
use jucq_core::{RdfDatabase, Strategy};
use jucq_datagen::{dblp, lubm};
use jucq_store::EngineProfile;

const WARM: u32 = 5;
const BATCH: usize = 1024;

/// One execution mode of the matrix.
struct Mode {
    label: &'static str,
    profile: EngineProfile,
}

fn modes() -> [Mode; 3] {
    [
        Mode {
            label: "batch1",
            profile: EngineProfile::pg_like().with_batch_size(1).with_sip_filters(false),
        },
        Mode {
            label: "batch",
            profile: EngineProfile::pg_like().with_batch_size(BATCH).with_sip_filters(false),
        },
        Mode {
            label: "batch+sip",
            profile: EngineProfile::pg_like().with_batch_size(BATCH).with_sip_filters(true),
        },
    ]
}

/// Per-(query, mode) measurement.
struct Cell {
    time: Option<Duration>,
    rows: Option<Vec<Vec<jucq_model::TermId>>>,
    sip_probes: u64,
    sip_drops: u64,
}

/// Best-of-`WARM` evaluation time of one query under the current
/// profile. The report's `eval_time` isolates query evaluation from
/// planning (reformulation + cover search runs identical work in every
/// mode), and the minimum is the standard noise-robust estimator for
/// a deterministic computation.
fn measure(db: &mut RdfDatabase, q: &jucq_reformulation::BgpQuery, strategy: &Strategy) -> Cell {
    let first = match db.answer(q, strategy) {
        Ok(r) => r,
        Err(_) => return Cell { time: None, rows: None, sip_probes: 0, sip_drops: 0 },
    };
    let mut sorted: Vec<Vec<jucq_model::TermId>> = first.rows.rows().map(|r| r.to_vec()).collect();
    sorted.sort();
    let mut best = Duration::MAX;
    let (mut probes, mut drops) = (first.counters.sip_probes, first.counters.sip_drops);
    for _ in 0..WARM {
        match db.answer(q, strategy) {
            Ok(r) => {
                best = best.min(r.eval_time);
                probes = r.counters.sip_probes;
                drops = r.counters.sip_drops;
            }
            Err(_) => return Cell { time: None, rows: None, sip_probes: 0, sip_drops: 0 },
        }
    }
    Cell { time: Some(best), rows: Some(sorted), sip_probes: probes, sip_drops: drops }
}

fn ms(d: Option<Duration>) -> String {
    d.map(|d| format!("{:.1}", d.as_secs_f64() * 1e3)).unwrap_or_else(|| "-".into())
}

struct WorkloadResult {
    workload: &'static str,
    // totals[mode] over cells where all three modes completed
    totals: [Duration; 3],
    sip_probes: u64,
    sip_drops: u64,
    table_rows: Vec<Vec<String>>,
}

fn run_workload(
    workload: &'static str,
    db: &mut RdfDatabase,
    queries: &[(String, jucq_reformulation::BgpQuery)],
    strategy: &Strategy,
) -> WorkloadResult {
    let modes = modes();
    // cells[query][mode]
    let mut cells: Vec<Vec<Cell>> = queries.iter().map(|_| Vec::new()).collect();
    for (mi, mode) in modes.iter().enumerate() {
        eprintln!("[{workload}/{}] running workload...", mode.label);
        jucq_bench::harness::switch_profile(db, mode.profile.clone());
        for (qi, (_, q)) in queries.iter().enumerate() {
            let cell = measure(db, q, strategy);
            if mi > 0 {
                // Differential check: every mode answers identically.
                if let (Some(a), Some(b)) = (&cells[qi][0].rows, &cell.rows) {
                    assert_eq!(a, b, "{workload}/{}: answers diverge from batch1 mode", mode.label);
                }
            }
            cells[qi].push(cell);
        }
    }

    let mut totals = [Duration::ZERO; 3];
    let (mut probes, mut drops) = (0u64, 0u64);
    let mut table_rows = Vec::new();
    for (qi, (name, _)) in queries.iter().enumerate() {
        let all_done = cells[qi].iter().all(|c| c.time.is_some());
        if all_done {
            for (mi, c) in cells[qi].iter().enumerate() {
                totals[mi] += c.time.unwrap();
            }
        }
        let sip_cell = &cells[qi][2];
        probes += sip_cell.sip_probes;
        drops += sip_cell.sip_drops;
        table_rows.push(vec![
            name.clone(),
            ms(cells[qi][0].time),
            ms(cells[qi][1].time),
            ms(cells[qi][2].time),
            format!("{}", sip_cell.sip_drops),
        ]);
    }
    WorkloadResult { workload, totals, sip_probes: probes, sip_drops: drops, table_rows }
}

fn speedup(base: Duration, other: Duration) -> f64 {
    if other.is_zero() {
        1.0
    } else {
        base.as_secs_f64() / other.as_secs_f64()
    }
}

fn main() {
    let _obs = jucq_bench::harness::obs_sidecar("vec_speedup");
    let scale = arg_scale(1, 2);
    let strategy = Strategy::gcov_default();

    let mut results: Vec<WorkloadResult> = Vec::new();

    eprintln!("building LUBM-like({scale} universities)...");
    let mut db = lubm_db(scale, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.graph().len());
    let queries = parse_workload(&mut db, &lubm::workload());
    results.push(run_workload("lubm", &mut db, &queries, &strategy));

    eprintln!("building DBLP-like({} authors)...", scale * 100);
    let mut db = dblp_db(scale * 100, EngineProfile::pg_like());
    eprintln!("  {} data triples", db.graph().len());
    let queries = parse_workload(&mut db, &dblp::workload());
    results.push(run_workload("dblp", &mut db, &queries, &strategy));

    for r in &results {
        println!(
            "{}",
            render_table(
                &format!("Batched speedup — {} (batch {BATCH})", r.workload),
                &[
                    "q".into(),
                    "batch1 (ms)".into(),
                    "batch (ms)".into(),
                    "batch+sip (ms)".into(),
                    "sip drops".into(),
                ],
                &r.table_rows,
            )
        );
        println!(
            "{}: batch1 {:.1} ms, batch {:.1} ms ({:.2}x), batch+sip {:.1} ms ({:.2}x), \
             sip dropped {}/{} probed tuples",
            r.workload,
            r.totals[0].as_secs_f64() * 1e3,
            r.totals[1].as_secs_f64() * 1e3,
            speedup(r.totals[0], r.totals[1]),
            r.totals[2].as_secs_f64() * 1e3,
            speedup(r.totals[0], r.totals[2]),
            r.sip_drops,
            r.sip_probes,
        );
        let (speedup_gauge, drops_gauge) = if r.workload == "lubm" {
            ("bench.vec_speedup.lubm.batch_speedup", "bench.vec_speedup.lubm.sip_drops")
        } else {
            ("bench.vec_speedup.dblp.batch_speedup", "bench.vec_speedup.dblp.sip_drops")
        };
        jucq_obs::metrics::gauge_set(speedup_gauge, speedup(r.totals[0], r.totals[1]));
        jucq_obs::metrics::gauge_set(drops_gauge, r.sip_drops as f64);
    }

    // Machine-readable artifact: the speedups and the SIP selectivity
    // are the experiment's deliverable.
    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"vec_speedup\",\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"batch_rows\": {BATCH},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"batch1_total_ms\": {:.3}, \"batch_total_ms\": {:.3}, \
             \"batch_sip_total_ms\": {:.3}, \"batch_speedup\": {:.4}, \
             \"batch_sip_speedup\": {:.4}, \"sip_probes\": {}, \"sip_drops\": {}}}{}\n",
            r.workload,
            r.totals[0].as_secs_f64() * 1e3,
            r.totals[1].as_secs_f64() * 1e3,
            r.totals[2].as_secs_f64() * 1e3,
            speedup(r.totals[0], r.totals[1]),
            speedup(r.totals[0], r.totals[2]),
            r.sip_probes,
            r.sip_drops,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("BENCH_vectorized.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
