//! `template_hot`: repeated templates on a warm plan cache.
//!
//! LUBM-1 under GCov on the pg-like profile, with the plan cache
//! enabled and sized for every instance. A seeded, skewed stream draws
//! from the 28 templates (see [`inputs::Mix`]); templates naming
//! department 0 draw one of the generated departments. Every instance
//! is answered once before the window opens, so the warm-up is not
//! measured. One closed-loop client; a request is `parse_query`,
//! `answer`, `decode_rows`.

use std::time::Instant;

use jucq_core::model::Term;
use jucq_core::store::EngineProfile;
use jucq_core::{RdfDatabase, Strategy};

use crate::harness::{self, canonical, Answer, Args, Tally, Verdict};
use crate::inputs::{self, Instance, Mix};
use crate::ledger::{RequestLedger, ServeLedger, SetupLedger};
use crate::report::{Metric, Outcome};

const SALT_STREAM: u64 = 0x484f_5421;
const SETUP_REPS: usize = 9;

type Rows = Vec<Vec<Term>>;

/// The LUBM-1 inputs shared by `template_hot` and `serve_rw`.
pub struct HotInputs {
    pub turtle: String,
    pub instances: Vec<Instance>,
    pub vocab: inputs::WriteVocab,
}

impl HotInputs {
    pub fn new(seed: u64) -> Self {
        let (lubm, graph) = inputs::lubm(seed);
        let instances = inputs::instances(&lubm.queries, &inputs::departments(&graph));
        HotInputs { turtle: lubm.turtle, instances, vocab: inputs::WriteVocab::new(&graph) }
    }
}

/// Every instance under saturation (the oracle), on `db`.
fn oracle(db: &mut RdfDatabase, instances: &[Instance]) -> Result<Vec<Answer>, String> {
    instances
        .iter()
        .map(|inst| {
            let q = db.parse_query(&inst.sparql).map_err(|e| format!("{}: {e}", inst.label))?;
            let report = db
                .answer(&q, &Strategy::Saturation)
                .map_err(|e| format!("oracle {}: {e}", inst.label))?;
            Ok(canonical(&db.decode_rows(&report.rows)))
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = HotInputs::new(args.seed);
    let instances = &inputs.instances;
    let profile = EngineProfile::pg_like();
    let capacity = instances.len();
    let mut setup_ledger = SetupLedger::default();
    let (mut db, setup_s) = if args.trace {
        let db = harness::load_and_prepare(
            &inputs.turtle,
            &profile,
            Some(capacity),
            Some(&mut setup_ledger),
        )?;
        (db, 0.0)
    } else {
        harness::setup_median(SETUP_REPS, || {
            harness::load_and_prepare(&inputs.turtle, &profile, Some(capacity), None)
        })?
    };
    let oracle = oracle(&mut db, instances)?;
    let strategy = Strategy::gcov_default();
    let mut rng = inputs::seeded(args.seed, SALT_STREAM);

    // Warm-up: every instance once, checked like any other request.
    let mut warm: Vec<usize> = (0..instances.len()).collect();
    inputs::shuffle(&mut rng, &mut warm);
    let mut warm_tally = Tally::default();
    for &i in &warm {
        let started = Instant::now();
        let rows = answer(&mut db, &instances[i].sparql, &strategy, None);
        warm_tally.record(started.elapsed(), verdict(rows, &instances[i], &oracle[i]));
    }
    harness::report_problems(&warm_tally);
    if warm_tally.failed > 0 {
        return Err(format!("{} warm-up requests failed", warm_tally.failed));
    }

    let mix = Mix::new(instances);
    let mut tallies = Vec::new();
    let mut ledger = RequestLedger::default();
    for (length, traced) in args.phases() {
        let mut tally = Tally::default();
        let deadline = Instant::now() + length;
        'window: loop {
            for i in mix.deal(&mut rng) {
                if Instant::now() >= deadline {
                    break 'window;
                }
                let started = Instant::now();
                let rows =
                    answer(&mut db, &instances[i].sparql, &strategy, traced.then_some(&mut ledger));
                let elapsed = started.elapsed();
                if traced {
                    ledger.requests += 1;
                    ledger.wall += elapsed;
                }
                tally.record(elapsed, verdict(rows, &instances[i], &oracle[i]));
            }
            tally.end_deck();
        }
        harness::report_problems(&tally);
        tallies.push(tally);
    }

    let correct =
        warm_tally.mismatches.is_empty() && tallies.iter().all(|t| t.mismatches.is_empty());
    let attempted = tallies.iter().map(|t| t.attempted).sum();
    let failed = tallies.iter().map(|t| t.failed).sum();
    let metrics = if args.trace {
        let mut m: Vec<Metric> = setup_ledger.metrics();
        m.extend(ledger.metrics());
        m.extend(ServeLedger::default().metrics());
        m.extend(harness::traced_summary(&tallies[0], &tallies[1], &Default::default())?);
        m
    } else {
        harness::end_to_end(setup_s, &tallies[0])?
    };
    Ok(Outcome { correct, attempted, failed, metrics })
}

/// One request: parse, answer, decode. With a ledger, each call is
/// timed and the answer is attributed through its report and the
/// plan-cache counters it moved.
fn answer(
    db: &mut RdfDatabase,
    sparql: &str,
    strategy: &Strategy,
    ledger: Option<&mut RequestLedger>,
) -> Result<Rows, String> {
    let Some(ledger) = ledger else {
        let q = db.parse_query(sparql).map_err(|e| format!("parse: {e}"))?;
        let report = db.answer(&q, strategy).map_err(|e| e.to_string())?;
        return Ok(db.decode_rows(&report.rows));
    };
    let at = Instant::now();
    let q = db.parse_query(sparql).map_err(|e| format!("parse: {e}"))?;
    ledger.parse += at.elapsed();
    let before = db.plan_cache_stats();
    let report = db.answer(&q, strategy).map_err(|e| e.to_string())?;
    let (searched, _) = ledger.add_cache_delta(before, db.plan_cache_stats());
    ledger.add_answer(&report, searched);
    let at = Instant::now();
    let rows = db.decode_rows(&report.rows);
    ledger.decode += at.elapsed();
    Ok(rows)
}

fn verdict(rows: Result<Rows, String>, inst: &Instance, oracle: &Answer) -> Verdict {
    match rows {
        Ok(rows) => {
            if canonical(&rows) == *oracle {
                Verdict::Answered
            } else {
                Verdict::Wrong(inst.label.clone())
            }
        }
        Err(why) => Verdict::Failed(format!("{}: {why}", inst.label)),
    }
}
