//! `serve_rw`: reads beside writes, through the HTTP endpoint.
//!
//! An in-process `jucq_server::Server` (one worker per core) serves a
//! `ServingDb` over LUBM-1 with GCov and the plan cache on. One
//! closed-loop HTTP client sends the `template_hot` mix while one
//! writer thread applies a seeded batch through
//! `ServingDb::apply_data_updates` every [`WRITE_PERIOD`]: insert one
//! graduate student, delete the one inserted [`inputs::WRITE_KEEP`]
//! batches before (known vocabulary only, so every update is
//! incremental).
//!
//! Correctness: responses at a few sampled epochs are kept, and after
//! the window each sampled epoch is rebuilt single-threaded on a fresh
//! `RdfDatabase` (initial data plus the first `epoch` batches, then a
//! from-scratch saturation) and the kept rows are compared with its
//! saturation answers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jucq_core::store::EngineProfile;
use jucq_core::{AnswerReport, PlanCacheStats, RdfDatabase, ServingDb, Strategy, UpdateReport};
use jucq_server::{ServeConfig, Server};

use crate::harness::{self, canonical, Answer, Args, Tally, Verdict};
use crate::inputs::{self, Mix, WriteVocab};
use crate::ledger::{RequestLedger, ServeLedger, SetupLedger};
use crate::report::{Metric, Outcome};
use crate::stats::{median, Samples};
use crate::template_hot::HotInputs;

const SALT_STREAM: u64 = 0x5257_2121;
const SETUP_REPS: usize = 7;
/// Cadence of the writer. No recorded jucq traffic gives a write rate,
/// so this is an assumption: at about 25 ms an update, the writer takes
/// a tenth of one core. Reads that overlap a write are reported apart
/// (`core.serving.write_interference_ratio`), so the interference shows
/// even where it is too rare to move the median.
const WRITE_PERIOD: Duration = Duration::from_millis(250);
/// Responses are kept for the replay check at epochs divisible by this…
const CHECK_EPOCH_STRIDE: u64 = 10;
/// …at most this many per epoch.
const CHECKS_PER_EPOCH: usize = 8;

/// A running endpoint. Dropping it shuts the server down and joins its
/// threads.
struct Served {
    serving: Arc<ServingDb>,
    server: Server,
}

fn start(
    turtle: &str,
    capacity: usize,
    ledger: Option<&mut SetupLedger>,
) -> Result<Served, String> {
    let db = harness::load_and_prepare(turtle, &EngineProfile::pg_like(), Some(capacity), ledger)?;
    let serving = Arc::new(ServingDb::new(db));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config =
        ServeConfig { threads, strategy: Strategy::gcov_default(), ..ServeConfig::default() };
    let server = Server::start(Arc::clone(&serving), config).map_err(|e| format!("server: {e}"))?;
    Ok(Served { serving, server })
}

/// One applied write batch.
struct Write {
    at: Instant,
    took: Duration,
    report: UpdateReport,
}

/// Apply batch 0, 1, … every [`WRITE_PERIOD`] until `stop`.
fn writer(serving: &ServingDb, vocab: &WriteVocab, seed: u64, stop: &AtomicBool) -> Vec<Write> {
    let started = Instant::now();
    let mut writes = Vec::new();
    for index in 0.. {
        let due = started + WRITE_PERIOD * (index as u32 + 1);
        loop {
            if stop.load(Ordering::SeqCst) {
                return writes;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
        }
        let batch = inputs::batch(vocab, seed, index);
        let at = Instant::now();
        let report = serving.apply_data_updates(&batch.inserts, &batch.deletes);
        writes.push(Write { at, took: at.elapsed(), report });
    }
    writes
}

/// A response kept for the replay check, as its rows' fingerprint.
struct Kept {
    epoch: u64,
    instance: usize,
    answer: Answer,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = HotInputs::new(args.seed);
    let instances = &inputs.instances;
    let capacity = instances.len();
    let mut setup_ledger = SetupLedger::default();
    let (served, setup_s) = if args.trace {
        (start(&inputs.turtle, capacity, Some(&mut setup_ledger))?, 0.0)
    } else {
        harness::setup_median(SETUP_REPS, || start(&inputs.turtle, capacity, None))?
    };
    let addr = served.server.local_addr();
    let target = "/query?strategy=gcov";
    let strategy = Strategy::gcov_default();
    let mut rng = inputs::seeded(args.seed, SALT_STREAM);

    // Warm-up: every instance once (covers and plans cached), unmeasured.
    let mut warm: Vec<usize> = (0..instances.len()).collect();
    inputs::shuffle(&mut rng, &mut warm);
    for &i in &warm {
        let r = crate::http::post(addr, target, &instances[i].sparql)
            .map_err(|e| format!("warm-up: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up {}: HTTP {}", instances[i].label, r.status));
        }
    }

    let mix = Mix::new(instances);
    let stop = AtomicBool::new(false);
    let mut tallies: Vec<Tally> = Vec::new();
    let mut windows: Vec<(Instant, Instant)> = Vec::new();
    let mut ledger = RequestLedger::default();
    let mut serve = ServeLedger::default();
    let mut kept: Vec<Kept> = Vec::new();
    // Answered untraced reads: start and latency.
    let mut reads: Vec<(Instant, Duration)> = Vec::new();
    let (writes, read) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| writer(&served.serving, &inputs.vocab, args.seed, &stop));
        // The reader; whatever it returns, the writer is stopped and
        // joined before the scope ends.
        let read = (|| -> Result<(), String> {
            let mut last_epoch = 0;
            for (length, traced) in args.phases() {
                let mut tally = Tally::default();
                let opened = Instant::now();
                let deadline = opened + length;
                'window: loop {
                    for i in mix.deal(&mut rng) {
                        if Instant::now() >= deadline {
                            break 'window;
                        }
                        let sparql = &instances[i].sparql;
                        let stats = || served.serving.snapshot().plan_cache_stats();
                        let before = if traced { stats() } else { None };
                        let started = Instant::now();
                        let response = crate::http::post(addr, target, sparql);
                        let elapsed = started.elapsed();
                        let after = if traced { stats() } else { None };
                        let verdict = match response {
                            Ok(r) if r.status == 200 => {
                                let epoch = r
                                    .epoch
                                    .ok_or_else(|| "a response without X-Jucq-Epoch".to_owned())?;
                                if traced && epoch > last_epoch {
                                    serve.first_reads += 1;
                                    serve.first_read_time += elapsed;
                                }
                                last_epoch = last_epoch.max(epoch);
                                if epoch % CHECK_EPOCH_STRIDE == 0
                                    && kept.iter().filter(|k| k.epoch == epoch).count()
                                        < CHECKS_PER_EPOCH
                                {
                                    let answer = canonical(&crate::http::rows(&r.body)?);
                                    kept.push(Kept { epoch, instance: i, answer });
                                }
                                if traced {
                                    let cache = (before, after);
                                    let serving = &served.serving;
                                    twin(
                                        serving,
                                        sparql,
                                        &strategy,
                                        &r,
                                        elapsed,
                                        cache,
                                        &mut ledger,
                                    )?;
                                } else {
                                    reads.push((started, elapsed));
                                }
                                Verdict::Answered
                            }
                            Ok(r) => {
                                if traced {
                                    if r.status == 429 {
                                        serve.refused += 1;
                                    } else {
                                        serve.errors += 1;
                                    }
                                }
                                let body = String::from_utf8_lossy(&r.body).into_owned();
                                Verdict::Failed(format!(
                                    "{}: HTTP {} {body}",
                                    instances[i].label, r.status
                                ))
                            }
                            Err(e) => Verdict::Failed(format!("{}: {e}", instances[i].label)),
                        };
                        if traced {
                            ledger.requests += 1;
                            ledger.wall += elapsed;
                        }
                        tally.record(elapsed, verdict);
                    }
                    tally.end_deck();
                }
                windows.push((opened, Instant::now()));
                harness::report_problems(&tally);
                tallies.push(tally);
            }
            Ok(())
        })();
        stop.store(true, Ordering::SeqCst);
        (writer.join(), read)
    });
    drop(served);
    read?;
    let writes = writes.map_err(|_| "the writer thread panicked".to_owned())?;

    let mismatches = check_kept(&inputs, args.seed, &kept)?;
    for m in mismatches.iter().take(5) {
        eprintln!("WRONG ANSWER: {m}");
    }
    let correct = mismatches.is_empty();
    let attempted = tallies.iter().map(|t| t.attempted).sum();
    let failed = tallies.iter().map(|t| t.failed).sum();
    let in_window =
        |w: &Write, (opened, closed): (Instant, Instant)| w.at >= opened && w.at < closed;
    let metrics = if args.trace {
        let mut reference_writes = Samples::default();
        for w in writes.iter().filter(|w| in_window(w, windows[0])) {
            reference_writes.push(w.took.as_secs_f64() * 1e3);
        }
        for w in writes.iter().filter(|w| in_window(w, windows[1])) {
            serve.updates += 1;
            serve.update_time += w.took;
            serve.incremental += u64::from(w.report.incremental);
            serve.entailed += (w.report.entailed_added + w.report.entailed_removed) as u64;
        }
        serve.write_interference = write_interference(&reads, &writes);
        let mut m: Vec<Metric> = setup_ledger.metrics();
        m.extend(ledger.metrics());
        m.extend(serve.metrics());
        m.extend(harness::traced_summary(&tallies[0], &tallies[1], &reference_writes)?);
        m
    } else {
        harness::end_to_end(setup_s, &tallies[0])?
    };
    eprintln!("{} writes applied, {} responses checked by replay", writes.len(), kept.len());
    Ok(Outcome { correct, attempted, failed, metrics })
}

/// The traced half's in-process twin of one served request. The
/// server's own planning and evaluation times come from the response
/// body. The twin repeats the server's calls on the current snapshot
/// (`parse_query`, `answer_recorded`, `decode_rows`) to time parsing,
/// decoding, and what `answer_recorded` spends beyond planning and
/// evaluation (plan lookup, query-log record), which stays
/// unattributed. The latency beyond all of these is the HTTP overhead.
/// It is measured only on requests whose physical plan was cached,
/// where the twin's path is the server's; the lowering of a re-planned
/// request stays unattributed too.
fn twin(
    serving: &ServingDb,
    sparql: &str,
    strategy: &Strategy,
    response: &crate::http::Response,
    wall: Duration,
    (before, after): (Option<PlanCacheStats>, Option<PlanCacheStats>),
    ledger: &mut RequestLedger,
) -> Result<(), String> {
    let (planning, eval) = crate::http::timings(&response.body)?;
    let (cover_searched, replanned) = ledger.add_cache_delta(before, after);
    let snapshot = serving.snapshot();
    let at = Instant::now();
    let q = snapshot.parse_query(sparql).map_err(|e| format!("parse: {e}"))?;
    let parse = at.elapsed();
    let at = Instant::now();
    let (result, _record) = snapshot.answer_recorded(&q, strategy, None);
    let answered = at.elapsed();
    let report = result.map_err(|e| e.to_string())?;
    let glue = answered.saturating_sub(report.planning_time + report.eval_time);
    let at = Instant::now();
    std::hint::black_box(snapshot.decode_rows(&report.rows));
    let decode = at.elapsed();
    ledger.parse += parse;
    ledger.decode += decode;
    ledger.add_answer(
        &AnswerReport { planning_time: planning, eval_time: eval, ..report },
        cover_searched,
    );
    if !replanned {
        let layers = parse + planning + eval + glue + decode;
        ledger.http_overhead += (wall.as_secs_f64() - layers.as_secs_f64()) * 1e3;
        ledger.http_measured += 1;
    }
    Ok(())
}

/// Median latency of the reads that overlapped a write, over that of
/// the other reads (0 when either set is empty).
fn write_interference(reads: &[(Instant, Duration)], writes: &[Write]) -> f64 {
    let (mut overlapped, mut clear) = (Vec::new(), Vec::new());
    for &(at, took) in reads {
        let hit = writes.iter().any(|w| w.at < at + took && at < w.at + w.took);
        let ms = took.as_secs_f64() * 1e3;
        if hit {
            overlapped.push(ms);
        } else {
            clear.push(ms);
        }
    }
    match (median(&overlapped), median(&clear)) {
        (Some(o), Some(c)) => o / c,
        _ => 0.0,
    }
}

/// Rebuild each kept epoch on a fresh database and compare the kept
/// responses with its saturation answers. Returns the mismatches.
fn check_kept(inputs: &HotInputs, seed: u64, kept: &[Kept]) -> Result<Vec<String>, String> {
    let mut epochs: Vec<u64> = kept.iter().map(|k| k.epoch).collect();
    epochs.sort_unstable();
    epochs.dedup();
    let mut mismatches = Vec::new();
    for epoch in epochs {
        let mut db = RdfDatabase::new();
        db.load_turtle(&inputs.turtle).map_err(|e| format!("replay load: {e}"))?;
        for index in 0..epoch as usize {
            let batch = inputs::batch(&inputs.vocab, seed, index);
            db.apply_data_updates(&batch.inserts, &batch.deletes);
        }
        for k in kept.iter().filter(|k| k.epoch == epoch) {
            let inst = &inputs.instances[k.instance];
            let q = db.parse_query(&inst.sparql).map_err(|e| format!("{}: {e}", inst.label))?;
            let report = db
                .answer(&q, &Strategy::Saturation)
                .map_err(|e| format!("replay oracle {} at epoch {epoch}: {e}", inst.label))?;
            let want: Vec<Vec<String>> = db
                .decode_rows(&report.rows)
                .into_iter()
                .map(|row| row.iter().map(ToString::to_string).collect())
                .collect();
            let want = canonical(&want);
            if k.answer != want {
                mismatches.push(format!(
                    "{} at epoch {epoch}: {} rows, oracle {}",
                    inst.label,
                    k.answer.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(mismatches)
}
