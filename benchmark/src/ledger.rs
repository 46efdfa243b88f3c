//! The per-layer ledger of a traced run.
//!
//! The benchmark times its own calls into each layer's public function
//! (spans inside the program are not used). Every time is reported as
//! a mean per request over the traced window, so the layer times of a
//! request add up to its wall time; `core.unattributed_ms` is what they
//! leave over. A layer a workload does not reach reports 0 (see
//! README.md for which workload loads which layer).

use std::time::Duration;

use jucq_core::store::exec::Counters;
use jucq_core::{AnswerReport, PlanCacheStats};

use crate::report::Metric;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Setup layers, summed over every database a workload builds.
#[derive(Debug, Default, Clone)]
pub struct SetupLedger {
    pub load: Duration,
    pub prepare: Duration,
    pub saturation: Duration,
    pub index_build: Duration,
    pub calibrate: Duration,
    pub saturated_triples: u64,
}

impl SetupLedger {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("core.turtle.load_s", self.load.as_secs_f64(), "s"),
            Metric::new("core.prepare_s", self.prepare.as_secs_f64(), "s"),
            Metric::new("reformulation.saturation_s", self.saturation.as_secs_f64(), "s"),
            Metric::new("store.index_build_s", self.index_build.as_secs_f64(), "s"),
            Metric::new("optimizer.calibrate_s", self.calibrate.as_secs_f64(), "s"),
            Metric::new("store.saturated_triples", self.saturated_triples as f64, "count"),
        ]
    }
}

/// Request-path layers.
#[derive(Debug, Default, Clone)]
pub struct RequestLedger {
    /// Requests traced (attempted, refused ones included).
    pub requests: u64,
    /// Their summed wall time.
    pub wall: Duration,
    pub parse: Duration,
    pub reformulation: Duration,
    pub cover_search: Duration,
    pub plan: Duration,
    pub exec: Duration,
    pub decode: Duration,
    /// HTTP latency beyond the layer times, summed over the served
    /// requests whose physical plan was cached (serve_rw), and their
    /// count.
    pub http_overhead: f64,
    pub http_measured: u64,
    /// `AnswerReport::planning_time` / `eval_time`, summed.
    pub answer_planning: Duration,
    pub answer_eval: Duration,
    /// Requests whose reformulation was admitted, and their union terms.
    pub admitted: u64,
    pub union_terms: u64,
    pub gcov_requests: u64,
    pub covers_explored: u64,
    pub counters: Counters,
    pub result_rows: u64,
    pub cache: PlanCacheStats,
    /// Share of GCov cells that paid for their search (paper_cold only).
    pub gcov_payback: f64,
}

impl RequestLedger {
    pub fn add_counters(&mut self, c: &Counters, rows: usize) {
        self.counters.tuples_scanned += c.tuples_scanned;
        self.counters.tuples_joined += c.tuples_joined;
        self.counters.tuples_materialized += c.tuples_materialized;
        self.counters.tuples_deduped += c.tuples_deduped;
        self.result_rows += rows as u64;
    }

    /// Attribute one in-process `answer` through its report. Planning
    /// goes to cover search when the cover cache missed (or there is no
    /// cache) and to reformulation on a hit, where the cached branch
    /// only re-reformulates; evaluation goes to execution. The physical
    /// plan lookup or lowering inside `answer` has no public call of its
    /// own and stays unattributed.
    pub fn add_answer(&mut self, report: &AnswerReport, cover_searched: bool) {
        self.answer_planning += report.planning_time;
        self.answer_eval += report.eval_time;
        if cover_searched {
            self.cover_search += report.planning_time;
        } else {
            self.reformulation += report.planning_time;
        }
        self.exec += report.eval_time;
        self.admitted += 1;
        self.union_terms += report.union_terms as u64;
        if let Some(n) = report.covers_explored.filter(|_| cover_searched) {
            self.gcov_requests += 1;
            self.covers_explored += n as u64;
        }
        self.add_counters(&report.counters, report.rows.len());
    }

    /// Add the difference between two plan-cache stat snapshots and
    /// return whether the cover lookup missed and whether the physical
    /// plan had to be lowered.
    pub fn add_cache_delta(
        &mut self,
        before: Option<PlanCacheStats>,
        after: Option<PlanCacheStats>,
    ) -> (bool, bool) {
        let (Some(b), Some(a)) = (before, after) else { return (true, true) };
        self.cache.hits += a.hits.saturating_sub(b.hits);
        self.cache.misses += a.misses.saturating_sub(b.misses);
        self.cache.plan_hits += a.plan_hits.saturating_sub(b.plan_hits);
        self.cache.plan_misses += a.plan_misses.saturating_sub(b.plan_misses);
        (a.misses > b.misses, a.plan_misses > b.plan_misses)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let per_req =
            |d: Duration| if self.requests == 0 { 0.0 } else { ms(d) / self.requests as f64 };
        let per = |n: u64, over: u64| if over == 0 { 0.0 } else { n as f64 / over as f64 };
        // Per request: the mean over the requests it was measured on.
        let http_overhead = if self.http_measured == 0 {
            0.0
        } else {
            self.http_overhead / self.http_measured as f64
        };
        let layers = self.parse
            + self.reformulation
            + self.cover_search
            + self.plan
            + self.exec
            + self.decode;
        let unattributed = ms(self.wall) - ms(layers) - http_overhead * self.requests as f64;
        let per_req_ms = |v: f64| v / self.requests.max(1) as f64;
        let c = &self.counters;
        let ratio = |hit: usize, miss: usize| per(hit as u64, (hit + miss) as u64);
        vec![
            Metric::new("core.parser.parse_us", per_req(self.parse) * 1e3, "us"),
            Metric::new("reformulation.ms", per_req(self.reformulation), "ms"),
            Metric::new("reformulation.union_terms", per(self.union_terms, self.admitted), "count"),
            Metric::new("optimizer.cover_search_ms", per_req(self.cover_search), "ms"),
            Metric::new(
                "optimizer.covers_explored",
                per(self.covers_explored, self.gcov_requests),
                "count",
            ),
            Metric::new("optimizer.gcov_payback_ratio", self.gcov_payback, "ratio"),
            Metric::new("store.plan_ms", per_req(self.plan), "ms"),
            Metric::new("store.exec_ms", per_req(self.exec), "ms"),
            Metric::new("store.exec.tuples_scanned", per(c.tuples_scanned, self.admitted), "count"),
            Metric::new("store.exec.tuples_joined", per(c.tuples_joined, self.admitted), "count"),
            Metric::new(
                "store.exec.tuples_materialized",
                per(c.tuples_materialized, self.admitted),
                "count",
            ),
            Metric::new("store.exec.tuples_deduped", per(c.tuples_deduped, self.admitted), "count"),
            Metric::new(
                "store.exec.scanned_per_result",
                per(c.tuples_scanned, self.result_rows),
                "ratio",
            ),
            Metric::new("core.decode_ms", per_req(self.decode), "ms"),
            Metric::new("core.unattributed_ms", per_req_ms(unattributed), "ms"),
            Metric::new(
                "core.plan_cache.cover_hit_ratio",
                ratio(self.cache.hits, self.cache.misses),
                "ratio",
            ),
            Metric::new(
                "core.plan_cache.plan_hit_ratio",
                ratio(self.cache.plan_hits, self.cache.plan_misses),
                "ratio",
            ),
            Metric::new("core.answer.planning_ms", per_req(self.answer_planning), "ms"),
            Metric::new("core.answer.eval_ms", per_req(self.answer_eval), "ms"),
            Metric::new("server.http_overhead_ms", http_overhead, "ms"),
        ]
    }
}

/// The write path and the server's failure counters (serve_rw).
#[derive(Debug, Default, Clone)]
pub struct ServeLedger {
    pub updates: u64,
    pub update_time: Duration,
    pub incremental: u64,
    pub entailed: u64,
    pub first_reads: u64,
    pub first_read_time: Duration,
    pub refused: u64,
    pub errors: u64,
    /// Median latency of untraced reads that overlapped a write over
    /// that of the others.
    pub write_interference: f64,
}

impl ServeLedger {
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |n: f64, over: u64| if over == 0 { 0.0 } else { n / over as f64 };
        vec![
            Metric::new("core.serving.update_ms", per(ms(self.update_time), self.updates), "ms"),
            Metric::new(
                "core.serving.incremental_ratio",
                per(self.incremental as f64, self.updates),
                "ratio",
            ),
            Metric::new(
                "reformulation.incremental.entailed_per_update",
                per(self.entailed as f64, self.updates),
                "count",
            ),
            Metric::new(
                "core.serving.first_read_after_write_ms",
                per(ms(self.first_read_time), self.first_reads),
                "ms",
            ),
            Metric::new("core.serving.write_interference_ratio", self.write_interference, "ratio"),
            Metric::new("server.refused", self.refused as f64, "count"),
            Metric::new("server.errors", self.errors as f64, "count"),
        ]
    }
}
