//! `paper_cold`: the paper's evaluation matrix with nothing reused.
//!
//! LUBM-1 Q01–Q28 and DBLP-2000 Q01–Q10, each under UCQ, SCQ and GCov
//! on the pg- and db2-like profiles (see [`PROFILES`]), with the plan cache off
//! (the library default). One closed-loop client sends every cell once
//! per pass, in an order the seed shuffles each pass; a request is
//! `parse_query`, `answer`, `decode_rows`.
//!
//! The traced half makes the calls `answer` makes, in the same order,
//! and times each: the parse, `gcov` over a `CoverSearch` built as the
//! database builds it, `jucq_for_cover_bounded` at the profile's union
//! limit, `plan_jucq_views`, `eval_plan_views`, and the decode.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use jucq_core::model::{SchemaClosure, Term, TermId};
use jucq_core::optimizer::{gcov, CostConstants, CoverSearch, PaperCostModel};
use jucq_core::reformulation::jucq::jucq_for_cover_bounded;
use jucq_core::reformulation::{Cover, ReformulationEnv};
use jucq_core::store::{EngineError, EngineProfile, Store};
use jucq_core::{AnswerError, RdfDatabase, Strategy};

use crate::harness::{self, canonical, Answer, Args, Tally, Verdict};
use crate::inputs::{self, Dataset};
use crate::ledger::{RequestLedger, ServeLedger, SetupLedger};
use crate::report::{Metric, Outcome};

const SALT_ORDER: u64 = 0x4f52_4445;
const SETUP_REPS: usize = 5;

type MakeProfile = fn() -> EngineProfile;

/// The engine profiles of the matrix. The mysql-like profile is left
/// out: its SCQ plans take about 25 s on LUBM Q28 alone (a pass of the
/// full matrix about 60 s), so no run of a few seconds would finish a
/// pass of it.
const PROFILES: [(&str, MakeProfile); 2] =
    [("pg", EngineProfile::pg_like), ("db2", EngineProfile::db2_like)];

/// The expected refusals, one `dataset/query/strategy/profile` cell a
/// line of the `paper_cold` list in `expected_failures.json`.
const EXPECTED: &str = include_str!("../expected_failures.json");

/// UCQ, SCQ and GCov, in this order ([`GCOV`] indexes the last).
fn strategies() -> [Strategy; 3] {
    [Strategy::Ucq, Strategy::Scq, Strategy::gcov_default()]
}

const GCOV: usize = 2;

fn expected_refusals() -> Result<BTreeSet<String>, String> {
    let doc =
        jucq_obs::json::parse(EXPECTED).map_err(|e| format!("expected_failures.json: {e}"))?;
    let cells = doc
        .get("paper_cold")
        .and_then(|v| v.as_arr())
        .ok_or("expected_failures.json: no `paper_cold` list")?;
    cells
        .iter()
        .map(|c| c.as_str().map(str::to_owned).ok_or_else(|| "non-string cell".to_owned()))
        .collect()
}

/// One database of the matrix: a dataset under a profile.
struct Db {
    dataset: usize,
    profile: &'static str,
    db: RdfDatabase,
}

fn build(datasets: &[Dataset], mut ledger: Option<&mut SetupLedger>) -> Result<Vec<Db>, String> {
    let mut dbs = Vec::new();
    for (dataset, ds) in datasets.iter().enumerate() {
        for (profile, make) in PROFILES {
            let db = harness::load_and_prepare(&ds.turtle, &make(), None, ledger.as_deref_mut())?;
            dbs.push(Db { dataset, profile, db });
        }
    }
    Ok(dbs)
}

/// How a request failed.
enum Fail {
    /// The engine refused the query (union limit, memory budget): the
    /// paper's missing bars.
    Refused(String),
    Other(String),
}

impl From<AnswerError> for Fail {
    fn from(e: AnswerError) -> Self {
        match e {
            AnswerError::Engine(
                EngineError::UnionTooLarge { .. } | EngineError::MemoryBudgetExceeded { .. },
            ) => Fail::Refused(e.to_string()),
            _ => Fail::Other(e.to_string()),
        }
    }
}

impl From<EngineError> for Fail {
    fn from(e: EngineError) -> Self {
        AnswerError::Engine(e).into()
    }
}

type Rows = Vec<Vec<Term>>;

/// One cell of the matrix.
struct Cell {
    db: usize,
    query: usize,
    strategy: usize,
    key: String,
}

/// What the traced half keeps of a database: the pieces `answer` reads
/// from its preparation, copied so the database stays free for
/// `parse_query` and `decode_rows`.
struct Prepared {
    plain: Store,
    closure: SchemaClosure,
    rdf_type: TermId,
    constants: CostConstants,
}

impl Prepared {
    fn of(db: &mut RdfDatabase) -> Self {
        Prepared {
            plain: db.plain_store().clone(),
            closure: db.closure().clone(),
            rdf_type: db.rdf_type(),
            constants: db.cost_constants(),
        }
    }
}

/// Per-cell search and execution times of the traced half, for
/// `optimizer.gcov_payback_ratio`.
#[derive(Default)]
struct CellCosts {
    /// Per strategy: (summed cost, successful requests).
    cost: [(Duration, u32); 3],
    gcov_attempts: u32,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (lubm, _) = inputs::lubm(args.seed);
    let datasets = [lubm, inputs::dblp(args.seed)];
    let expected = expected_refusals()?;

    let mut setup_ledger = SetupLedger::default();
    let (mut dbs, setup_s) = if args.trace {
        (build(&datasets, Some(&mut setup_ledger))?, 0.0)
    } else {
        harness::setup_median(SETUP_REPS, || build(&datasets, None))?
    };

    // The oracle: every (dataset, query) under saturation, outside the
    // timed window (Theorem 3.1: every strategy must return these rows).
    let mut oracle: Vec<Vec<Answer>> = Vec::new();
    for (d, ds) in datasets.iter().enumerate() {
        let db = &mut dbs.iter_mut().find(|x| x.dataset == d).expect("one db per dataset").db;
        let mut answers = Vec::new();
        for q in &ds.queries {
            let parsed = db.parse_query(&q.sparql).map_err(|e| format!("{}: {e}", q.name))?;
            let report = db
                .answer(&parsed, &Strategy::Saturation)
                .map_err(|e| format!("oracle {}/{}: {e}", ds.name, q.name))?;
            answers.push(canonical(&db.decode_rows(&report.rows)));
        }
        oracle.push(answers);
    }

    let strategies = strategies();
    let mut cells = Vec::new();
    for (i, db) in dbs.iter().enumerate() {
        let ds = &datasets[db.dataset];
        for (query, q) in ds.queries.iter().enumerate() {
            for (strategy, s) in strategies.iter().enumerate() {
                let key = format!("{}/{}/{}/{}", ds.name, q.name, s.name(), db.profile);
                cells.push(Cell { db: i, query, strategy, key });
            }
        }
    }
    let prepared: Vec<Prepared> = if args.trace {
        dbs.iter_mut().map(|d| Prepared::of(&mut d.db)).collect()
    } else {
        Vec::new()
    };

    let mut rng = inputs::seeded(args.seed, SALT_ORDER);
    let mut tallies = Vec::new();
    let mut ledger = RequestLedger::default();
    let mut costs: BTreeMap<(usize, usize), CellCosts> = BTreeMap::new();
    let mut surprises = BTreeSet::new();
    for (length, traced) in args.phases() {
        let mut tally = Tally::default();
        let deadline = Instant::now() + length;
        'window: loop {
            let mut order: Vec<usize> = (0..cells.len()).collect();
            inputs::shuffle(&mut rng, &mut order);
            for &c in &order {
                if Instant::now() >= deadline {
                    break 'window;
                }
                let cell = &cells[c];
                let db = &mut dbs[cell.db];
                let sparql = &datasets[db.dataset].queries[cell.query].sparql;
                let strategy = &strategies[cell.strategy];
                let started = Instant::now();
                let result = if traced {
                    let mut split = (Duration::ZERO, Duration::ZERO);
                    let r = traced_answer(
                        &mut db.db,
                        &prepared[cell.db],
                        sparql,
                        strategy,
                        &mut ledger,
                        &mut split,
                    );
                    let entry = costs.entry((cell.db, cell.query)).or_default();
                    if cell.strategy == GCOV {
                        entry.gcov_attempts += 1;
                    }
                    if r.is_ok() {
                        let slot = &mut entry.cost[cell.strategy];
                        slot.0 += split.0 + split.1;
                        slot.1 += 1;
                    }
                    r
                } else {
                    answer(&mut db.db, sparql, strategy)
                };
                let elapsed = started.elapsed();
                if traced {
                    ledger.requests += 1;
                    ledger.wall += elapsed;
                }
                let verdict = match result {
                    Ok(rows) => {
                        if expected.contains(&cell.key) {
                            surprises.insert(cell.key.clone());
                        }
                        if canonical(&rows) == oracle[db.dataset][cell.query] {
                            Verdict::Answered
                        } else {
                            Verdict::Wrong(cell.key.clone())
                        }
                    }
                    Err(Fail::Refused(_)) if expected.contains(&cell.key) => {
                        Verdict::ExpectedRefusal
                    }
                    Err(Fail::Refused(why) | Fail::Other(why)) => {
                        Verdict::Failed(format!("{}: {why}", cell.key))
                    }
                };
                tally.record(elapsed, verdict);
            }
            tally.end_deck();
        }
        harness::report_problems(&tally);
        tallies.push(tally);
    }
    for key in &surprises {
        eprintln!("note: {key} is listed as an expected refusal but was answered");
    }

    let correct = tallies.iter().all(|t| t.mismatches.is_empty());
    let attempted = tallies.iter().map(|t| t.attempted).sum();
    let failed = tallies.iter().map(|t| t.failed).sum();
    let metrics = if args.trace {
        ledger.gcov_payback = payback(&costs);
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

/// One untraced request: parse, answer, decode.
fn answer(db: &mut RdfDatabase, sparql: &str, strategy: &Strategy) -> Result<Rows, Fail> {
    let q = db.parse_query(sparql).map_err(|e| Fail::Other(format!("parse: {e}")))?;
    let report = db.answer(&q, strategy)?;
    Ok(db.decode_rows(&report.rows))
}

/// One traced request: the calls `answer` makes, each timed into the
/// ledger. `split` receives the cover-search and execution times.
fn traced_answer(
    db: &mut RdfDatabase,
    p: &Prepared,
    sparql: &str,
    strategy: &Strategy,
    ledger: &mut RequestLedger,
    split: &mut (Duration, Duration),
) -> Result<Rows, Fail> {
    let at = Instant::now();
    let q = db.parse_query(sparql).map_err(|e| Fail::Other(format!("parse: {e}")))?;
    ledger.parse += at.elapsed();

    let planning = Instant::now();
    let env = ReformulationEnv { closure: &p.closure, rdf_type: p.rdf_type };
    let profile = p.plain.profile();
    let limit = profile.max_union_terms;
    let cover = match strategy {
        Strategy::Ucq => Cover::single_fragment(&q),
        Strategy::Scq => Cover::singletons(&q),
        Strategy::GCov { budget, max_moves, .. } => {
            let at = Instant::now();
            let model = PaperCostModel::new(p.plain.table(), p.plain.stats(), p.constants)
                .with_range_pricing(profile.range_scans)
                .with_view_pricing(None);
            let search = CoverSearch::new(&q, env, &model)
                .with_union_limit(limit)
                .with_parallelism(profile.effective_parallelism());
            let found = gcov(&search, *budget, *max_moves);
            split.0 = at.elapsed();
            ledger.cover_search += split.0;
            found.map(|r| {
                ledger.gcov_requests += 1;
                ledger.covers_explored += r.explored as u64;
                r.cover
            })
        }
        other => unreachable!("paper_cold runs UCQ, SCQ and GCov, not {}", other.name()),
    }
    .map_err(|e| Fail::Other(format!("cover: {e}")))?;
    let at = Instant::now();
    let jucq = jucq_for_cover_bounded(&q, &cover, &env, limit);
    ledger.reformulation += at.elapsed();
    ledger.answer_planning += planning.elapsed();
    let jucq = jucq.map_err(|terms| EngineError::UnionTooLarge { terms, limit })?;
    ledger.admitted += 1;
    ledger.union_terms += jucq.union_terms() as u64;

    let at = Instant::now();
    let plan = p.plain.plan_jucq_views(&jucq, None);
    ledger.plan += at.elapsed();
    let plan = plan?;
    let at = Instant::now();
    let outcome = p.plain.eval_plan_views(&plan, None, None);
    split.1 = at.elapsed();
    ledger.exec += split.1;
    ledger.answer_eval += split.1;
    let mut outcome = outcome?;
    if let Some(n) = q.limit {
        outcome.relation.truncate(n);
    }
    ledger.add_counters(&outcome.counters, outcome.relation.len());

    let at = Instant::now();
    let rows = db.decode_rows(&outcome.relation);
    ledger.decode += at.elapsed();
    Ok(rows)
}

/// The share of GCov cells (dataset, query, profile) whose mean search
/// plus execution is no slower than the faster of UCQ's and SCQ's mean
/// execution (a refused UCQ or SCQ counts as infinitely slow).
fn payback(costs: &BTreeMap<(usize, usize), CellCosts>) -> f64 {
    let mean = |(total, n): (Duration, u32)| (n > 0).then(|| total.as_secs_f64() / f64::from(n));
    let (mut cells, mut paid) = (0u32, 0u32);
    for c in costs.values().filter(|c| c.gcov_attempts > 0) {
        cells += 1;
        let rival =
            [mean(c.cost[0]), mean(c.cost[1])].into_iter().flatten().fold(f64::INFINITY, f64::min);
        if mean(c.cost[GCOV]).is_some_and(|g| g <= rival) {
            paid += 1;
        }
    }
    if cells == 0 {
        0.0
    } else {
        f64::from(paid) / f64::from(cells)
    }
}
