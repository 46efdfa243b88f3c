//! What the three workloads share: arguments, the request tally, timed
//! set-up, the traced set-up ledger, peak memory and the result
//! metrics.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use jucq_core::optimizer::calibrate;
use jucq_core::reformulation::saturation::{saturate, schema_triples};
use jucq_core::store::{EngineProfile, Store};
use jucq_core::RdfDatabase;

use crate::ledger::SetupLedger;
use crate::report::Metric;
use crate::stats::Samples;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10u64, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(bad)?,
                "--seconds" => seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args { workload, seed, seconds, trace })
    }

    /// The measuring windows of this run: the whole run untraced, or,
    /// when traced, an untraced half (the reference for the tracing
    /// overhead and the end-to-end figures the ledger repeats) followed
    /// by a traced half.
    pub fn phases(&self) -> Vec<(Duration, bool)> {
        let total = Duration::from_secs(self.seconds);
        if self.trace {
            vec![(total / 2, false), (total / 2, true)]
        } else {
            vec![(total, false)]
        }
    }
}

/// An answer in canonical form: the sorted 128-bit fingerprints of its
/// decoded rows. Two answers compare equal exactly when their sorted
/// decoded rows do, barring a 128-bit collision; the compact form keeps
/// the oracle's own memory out of `peak_rss_mb` and the comparison
/// cheap.
pub type Answer = Vec<u128>;

pub fn canonical<T: Hash>(rows: &[Vec<T>]) -> Answer {
    let mut out: Answer = rows
        .iter()
        .map(|row| {
            let lane = |salt: u8| {
                let mut h = DefaultHasher::new();
                salt.hash(&mut h);
                row.hash(&mut h);
                h.finish()
            };
            (u128::from(lane(0)) << 64) | u128::from(lane(1))
        })
        .collect();
    out.sort_unstable();
    out
}

/// How one request ended.
#[derive(Debug)]
pub enum Verdict {
    /// Answered, and the rows equal the oracle's (or were sampled for
    /// a later check).
    Answered,
    /// Answered with rows that differ from the oracle's.
    Wrong(String),
    /// Refused in a cell the benchmark expects to be refused (the
    /// paper's missing bars).
    ExpectedRefusal,
    /// Failed or refused anywhere else.
    Failed(String),
}

/// A deck or set-up whose share of stolen host CPU time is at most
/// this is quiet.
pub const QUIET_STEAL: f64 = 0.05;

/// Which of the timed spans with these steal shares a figure covers:
/// the quiet ones, or, when fewer are quiet, the quietest quarter (at
/// least 3, at most all). Hypervisor steal slows every request of a
/// span at once: a preempted virtual CPU delays each wake-up between
/// the client, the server and the engine's threads. On a 2-core host,
/// decks with about 12 % steal had median latencies about 60 % above
/// decks with 4 %. A figure over spans that ran with the host to
/// themselves compares across runs; the others are left out, not
/// averaged in.
fn measured(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let quiet = steal.iter().filter(|&&s| s <= QUIET_STEAL).count();
    order.truncate(quiet.max(steal.len() / 4).max(3));
    order
}

/// One complete deck (one pass of the request mix).
#[derive(Debug, Default)]
struct Deck {
    busy: Duration,
    answered: u64,
    /// Latencies of the answered requests, in ms.
    latencies: Vec<f64>,
    /// Share of the host's CPU time stolen by the hypervisor while the
    /// deck ran.
    steal: f64,
}

/// Counts and latencies of one measuring window.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub answered: u64,
    pub expected_refusals: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub failures: Vec<String>,
    /// Answered requests' latencies in ms, the incomplete last deck's
    /// too.
    latencies: Samples,
    busy: Duration,
    decks: Vec<Deck>,
    open: Deck,
    /// Host CPU counters when the open deck began.
    open_cpu: Option<CpuTimes>,
}

impl Tally {
    pub fn record(&mut self, elapsed: Duration, verdict: Verdict) {
        if self.open_cpu.is_none() {
            self.open_cpu = CpuTimes::read();
        }
        self.attempted += 1;
        self.busy += elapsed;
        self.open.busy += elapsed;
        match verdict {
            Verdict::Answered => {}
            Verdict::Wrong(why) => self.mismatches.push(why),
            Verdict::ExpectedRefusal => {
                self.expected_refusals += 1;
                return;
            }
            Verdict::Failed(why) => {
                self.failed += 1;
                self.failures.push(why);
                return;
            }
        }
        self.answered += 1;
        self.open.answered += 1;
        let ms = elapsed.as_secs_f64() * 1e3;
        self.latencies.push(ms);
        self.open.latencies.push(ms);
    }

    /// Close a complete deck.
    pub fn end_deck(&mut self) {
        let mut deck = std::mem::take(&mut self.open);
        deck.steal = CpuTimes::steal_since(self.open_cpu.take());
        if !deck.busy.is_zero() {
            self.decks.push(deck);
        }
    }

    /// The decks the figures cover (see [`measured`]).
    fn measured(&self) -> Vec<&Deck> {
        let steal: Vec<f64> = self.decks.iter().map(|d| d.steal).collect();
        measured(&steal).into_iter().map(|i| &self.decks[i]).collect()
    }

    /// Complete decks, and how many of them were quiet.
    pub fn deck_counts(&self) -> (usize, usize) {
        (self.decks.len(), self.decks.iter().filter(|d| d.steal <= QUIET_STEAL).count())
    }

    /// Median share of host CPU time stolen over the complete decks.
    pub fn steal(&self) -> f64 {
        let steal: Vec<f64> = self.decks.iter().map(|d| d.steal).collect();
        crate::stats::median(&steal).unwrap_or(0.0)
    }

    /// Answered requests per second of client busy time: the median
    /// over the measured decks, so every value covers the same mix (the
    /// whole window when no deck completed).
    pub fn qps(&self) -> f64 {
        let qps: Vec<f64> =
            self.measured().iter().map(|d| d.answered as f64 / d.busy.as_secs_f64()).collect();
        crate::stats::median(&qps).unwrap_or_else(|| {
            self.answered as f64 / self.busy.as_secs_f64().max(f64::MIN_POSITIVE)
        })
    }

    pub fn error_rate(&self) -> f64 {
        (self.failed + self.expected_refusals) as f64 / self.attempted.max(1) as f64
    }

    /// `latency_p50_ms` (the median of the measured decks' medians,
    /// like [`Tally::qps`]) and `latency_tail_ms`, plus the tail's
    /// percentile and sample count. The tail is taken over every
    /// answered request of the window, not only the measured decks': the
    /// percentile follows the sample count, and a count that moved with
    /// the host's steal would move the tail across the gap between the
    /// slowest template and the next.
    pub fn latency(&self) -> Result<(f64, crate::stats::Tail), String> {
        let p50s: Vec<f64> =
            self.measured().iter().filter_map(|d| crate::stats::median(&d.latencies)).collect();
        let p50 = crate::stats::median(&p50s)
            .or_else(|| self.latencies.median())
            .ok_or("no request was answered")?;
        let tail = self.latencies.tail().ok_or_else(|| {
            format!("{} answered requests are too few for a tail percentile", self.latencies.len())
        })?;
        Ok((p50, tail))
    }
}

/// The host's cumulative CPU time counters (the `cpu` line of
/// `/proc/stat`, in clock ticks): all of them summed, and steal, the
/// time a virtual CPU was ready but the hypervisor ran something else.
#[derive(Debug, Clone, Copy)]
struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// `None` where `/proc/stat` is not readable.
    fn read() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user and nice.
        let steal = *fields.get(7)?;
        Some(CpuTimes { total: fields.iter().take(8).sum(), steal })
    }

    /// Share of the host's CPU time since `began` that was stolen (0
    /// where the counters are not readable).
    fn steal_since(began: Option<CpuTimes>) -> f64 {
        let (Some(began), Some(now)) = (began, CpuTimes::read()) else { return 0.0 };
        let total = now.total.saturating_sub(began.total);
        if total == 0 {
            0.0
        } else {
            now.steal.saturating_sub(began.steal) as f64 / total as f64
        }
    }
}

/// Build `reps` times, timing each build, and keep the last result;
/// earlier results are dropped before the next build starts. Returns
/// the median time in seconds of the builds [`measured`] selects by
/// host steal.
pub fn setup_median<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut kept = None;
    let (mut times, mut steal) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let began = CpuTimes::read();
        let started = Instant::now();
        let value = build()?;
        times.push(started.elapsed().as_secs_f64());
        steal.push(CpuTimes::steal_since(began));
        kept = Some(value);
    }
    let quiet: Vec<f64> = measured(&steal).into_iter().map(|i| times[i]).collect();
    let median = crate::stats::median(&quiet).expect("at least one build");
    Ok((kept.expect("at least one build"), median))
}

/// Load `turtle` into a fresh database and prepare it, as the untraced
/// set-up does. With a ledger, also replay `RdfDatabase::prepare`'s
/// layer calls (saturation, index build, calibration) on a copy of the
/// loaded graph and time each one.
pub fn load_and_prepare(
    turtle: &str,
    profile: &EngineProfile,
    plan_cache: Option<usize>,
    ledger: Option<&mut SetupLedger>,
) -> Result<RdfDatabase, String> {
    let mut db = RdfDatabase::with_profile(profile.clone());
    if let Some(capacity) = plan_cache {
        db.enable_plan_cache(capacity);
    }
    let started = Instant::now();
    db.load_turtle(turtle).map_err(|e| format!("load_turtle: {e}"))?;
    let load = started.elapsed();
    let started = Instant::now();
    db.prepare();
    let prepare = started.elapsed();
    if let Some(ledger) = ledger {
        ledger.load += load;
        ledger.prepare += prepare;
        replay_prepare(db.graph().clone(), profile, ledger);
    }
    Ok(db)
}

/// The layer calls `RdfDatabase::prepare` makes, on a copy of the graph.
fn replay_prepare(
    mut graph: jucq_core::model::Graph,
    profile: &EngineProfile,
    ledger: &mut SetupLedger,
) {
    let closure = graph.schema_closure();
    let schema = schema_triples(&mut graph, &closure);
    let started = Instant::now();
    let mut saturated = saturate(&mut graph);
    ledger.saturation += started.elapsed();
    let mut plain = graph.data().to_vec();
    for triples in [&mut plain, &mut saturated] {
        triples.extend_from_slice(&schema);
        triples.sort_unstable();
        triples.dedup();
    }
    ledger.saturated_triples += saturated.len() as u64;
    let started = Instant::now();
    let plain_store = Store::from_triples(&plain, profile.clone());
    let saturated_store = Store::from_triples(&saturated, profile.clone());
    ledger.index_build += started.elapsed();
    drop(saturated_store);
    let started = Instant::now();
    std::hint::black_box(calibrate(&plain_store));
    ledger.calibrate += started.elapsed();
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The untraced end-to-end metrics.
pub fn end_to_end(setup_s: f64, tally: &Tally) -> Result<Vec<Metric>, String> {
    let (p50, tail) = tally.latency()?;
    let (decks, quiet) = tally.deck_counts();
    eprintln!(
        "{quiet} of {decks} complete decks quiet (host steal <= {QUIET_STEAL}, median {:.3}); \
         latency tail: p{} over {} answered requests ({} beyond it)",
        tally.steal(),
        tail.percentile,
        tally.latencies.len(),
        tail.beyond
    );
    if quiet * 4 < decks {
        eprintln!(
            "warning: the host stole CPU time through most of this run; its figures read slow"
        );
    }
    Ok(vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("qps", tally.qps(), "1/s"),
        Metric::new("latency_p50_ms", p50, "ms"),
        Metric::new("latency_tail_ms", tail.value, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// The end-to-end figures a traced run repeats in its ledger: from the
/// untraced half (`reference`) the error rate, write latencies, the
/// tail's percentile and sample count and the host's CPU steal; and the
/// tracing overhead as the qps of both halves.
pub fn traced_summary(
    reference: &Tally,
    traced: &Tally,
    writes: &Samples,
) -> Result<Vec<Metric>, String> {
    let (_, tail) = reference.latency()?;
    let (write_p50, write_tail) = if writes.len() == 0 {
        (0.0, 0.0)
    } else {
        let tail = writes
            .tail()
            .ok_or_else(|| format!("{} writes are too few for a tail", writes.len()))?;
        (writes.median().expect("non-empty"), tail.value)
    };
    let (untraced_qps, traced_qps) = (reference.qps(), traced.qps());
    Ok(vec![
        Metric::new("error_rate", reference.error_rate(), "ratio"),
        Metric::new("write_p50_ms", write_p50, "ms"),
        Metric::new("write_tail_ms", write_tail, "ms"),
        Metric::new("latency_tail_percentile", tail.percentile, "pct"),
        Metric::new("latency_samples", reference.latencies.len() as f64, "count"),
        Metric::new("host.steal_ratio", reference.steal(), "ratio"),
        Metric::new("tracing.qps_untraced", untraced_qps, "1/s"),
        Metric::new("tracing.qps_traced", traced_qps, "1/s"),
        Metric::new("tracing.qps_delta", untraced_qps - traced_qps, "1/s"),
    ])
}

/// Print a few of the window's failures and mismatches to stderr.
pub fn report_problems(tally: &Tally) {
    for why in tally.failures.iter().take(5) {
        eprintln!("failed: {why}");
    }
    for why in tally.mismatches.iter().take(5) {
        eprintln!("WRONG ANSWER: {why}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_takes_the_quiet_spans_or_the_quietest_quarter() {
        assert_eq!(measured(&[0.0, 0.2, 0.01, 0.3, 0.04]), [0, 2, 4]);
        // None quiet: the quietest quarter of 20.
        let steal: Vec<f64> = (0..20).map(|i| 0.3 - i as f64 / 100.0).collect();
        assert_eq!(measured(&steal), [19, 18, 17, 16, 15]);
        // At least 3, at most all.
        assert_eq!(measured(&[0.0, 0.2, 0.1, 0.3]), [0, 2, 1]);
        assert_eq!(measured(&[0.3, 0.2]), [1, 0]);
    }
}
