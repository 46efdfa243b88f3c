//! The relational executor: σ, π, ⋈, ∪ and duplicate elimination.
//!
//! Split by operator family:
//! * [`cq`] — conjunctive-query pipelines over the triple table
//!   (index-nested-loop or hash);
//! * [`join`] — joins of materialized relations (hash, sort-merge,
//!   block-nested-loop);
//! * [`union`] — unions of CQ results with set semantics;
//! * [`batch`] — the batched kernels every operator above runs, and the
//!   sideways-information-passing Bloom filter.
//!
//! All operators run inside an [`ExecContext`] that enforces the engine
//! profile's deadline and memory budget and records the counters the
//! calibration layer fits cost constants against.

pub mod batch;
pub mod cq;
pub mod join;
pub mod parallel;
pub mod pool;
pub mod union;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::EngineError;
use crate::profile::EngineProfile;

/// How often (in produced tuples) the deadline is polled.
const DEADLINE_POLL_MASK: u64 = 0x3FFF; // every 16384 tuples

/// Work counters, exposed for calibration and diagnostics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Tuples read from index scans.
    pub tuples_scanned: u64,
    /// Tuples emitted by join operators.
    pub tuples_joined: u64,
    /// Tuples copied into materialized intermediates.
    pub tuples_materialized: u64,
    /// Tuples examined by duplicate elimination.
    pub tuples_deduped: u64,
    /// Tuples probed against sideways-information-passing filters.
    pub sip_probes: u64,
    /// Tuples dropped by sideways-information-passing filters before
    /// reaching their fragment join.
    pub sip_drops: u64,
    /// Collapsed-interval (`RangeScan`) operator executions.
    pub range_scans: u64,
    /// Fragments served from the materialized-view catalog (epoch-exact
    /// `ViewScan` resolutions; fallback unions do not count).
    pub view_hits: u64,
    /// Merge-join inputs whose sort was skipped because the rows already
    /// arrived in key order from a clustered permutation index.
    pub sorts_elided: u64,
    /// Galloping (exponential-search) seeks taken by skewed merge joins
    /// in place of linear advancement on the larger side.
    pub gallop_seeks: u64,
    /// Scan rows handed to a consumer without the usual dedup/ownership
    /// pass (zero-copy boundary: provably-distinct scan output).
    pub scan_rows_borrowed: u64,
    /// Rows of output capacity reserved up-front from the plan's
    /// cardinality estimates (compare with actual output tuples to see
    /// how well pre-sizing tracks reality).
    pub rows_reserved: u64,
}

/// Per-filter probe/drop totals of one sideways-information-passing
/// Bloom filter, keyed by its node label (`fragment[i].sip_filter`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SipFilterStat {
    /// The filter's node label.
    pub label: String,
    /// Tuples probed against the filter.
    pub probes: u64,
    /// Tuples dropped (probe missed: they cannot join).
    pub drops: u64,
}

/// Aggregated runtime profile of one plan node (operator × position in
/// the plan), produced when the context runs with profiling on.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProfile {
    /// Scoped node label, e.g. `fragment[0].union` or `join[1].hash_join`.
    pub label: String,
    /// Operator invocations merged into this node.
    pub invocations: u64,
    /// Output rows across all invocations.
    pub rows: u64,
    /// Wall time across all invocations, in nanoseconds.
    pub elapsed_ns: u64,
}

/// Merges operator samples into per-label [`NodeProfile`]s, preserving
/// first-seen order (which follows plan order).
#[derive(Debug, Default)]
struct NodeRecorder {
    nodes: Vec<NodeProfile>,
    by_label: jucq_model::FxHashMap<String, usize>,
    scope: String,
}

impl NodeRecorder {
    fn record(&mut self, op: &str, rows: u64, elapsed_ns: u64) {
        let label = format!("{}{}", self.scope, op);
        self.merge(NodeProfile { label, invocations: 1, rows, elapsed_ns });
    }

    /// Merge an already-labelled profile (e.g. from a worker context)
    /// into the per-label aggregate, ignoring the current scope.
    fn merge(&mut self, profile: NodeProfile) {
        let ix = *self.by_label.entry(profile.label.clone()).or_insert_with(|| {
            self.nodes.push(NodeProfile {
                label: profile.label.clone(),
                invocations: 0,
                rows: 0,
                elapsed_ns: 0,
            });
            self.nodes.len() - 1
        });
        let node = &mut self.nodes[ix];
        node.invocations += profile.invocations;
        node.rows += profile.rows;
        node.elapsed_ns += profile.elapsed_ns;
    }
}

/// Cross-thread evaluation state shared by every worker context of one
/// query: a cooperative cancel flag (set on the first failure, polled by
/// the amortized tick) and the total tuples currently held by worker
/// results, charged against the profile's memory budget *globally* so a
/// parallel run cannot hold more than a sequential one is allowed to.
#[derive(Debug, Default)]
pub struct ExecShared {
    cancel: AtomicBool,
    held_tuples: AtomicU64,
}

impl ExecShared {
    /// Ask every sibling context to stop at its next poll.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether a sibling context requested a stop.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// Shared evaluation state: profile, deadline, counters.
#[derive(Debug)]
pub struct ExecContext<'a> {
    profile: &'a EngineProfile,
    started: Instant,
    /// Cumulative work counters.
    pub counters: Counters,
    ticks: u64,
    recorder: Option<NodeRecorder>,
    sip_stats: Vec<SipFilterStat>,
    shared: Arc<ExecShared>,
}

impl<'a> ExecContext<'a> {
    /// Start an evaluation clock for `profile`.
    pub fn new(profile: &'a EngineProfile) -> Self {
        ExecContext {
            profile,
            started: Instant::now(),
            counters: Counters::default(),
            ticks: 0,
            recorder: None,
            sip_stats: Vec::new(),
            shared: Arc::new(ExecShared::default()),
        }
    }

    /// Like [`ExecContext::new`], additionally collecting per-node
    /// runtime profiles (operators pay for an `Instant` read per call).
    pub fn with_profiling(profile: &'a EngineProfile) -> Self {
        let mut ctx = Self::new(profile);
        ctx.recorder = Some(NodeRecorder::default());
        ctx
    }

    /// Whether per-node profiling is on.
    pub fn profiling(&self) -> bool {
        self.recorder.is_some()
    }

    /// Set the label prefix for subsequently recorded operators, e.g.
    /// `"fragment[0]."`. No-op unless profiling.
    pub fn set_scope(&mut self, scope: String) {
        if let Some(r) = &mut self.recorder {
            r.scope = scope;
        }
    }

    /// Start timing one operator invocation; `None` unless profiling,
    /// so unprofiled runs skip the clock read entirely.
    #[inline]
    pub fn op_start(&self) -> Option<Instant> {
        if self.recorder.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close the invocation opened by [`ExecContext::op_start`],
    /// merging it into the node `scope + op`.
    #[inline]
    pub fn op_finish(&mut self, start: Option<Instant>, op: &str, rows: u64) {
        if let (Some(start), Some(r)) = (start, &mut self.recorder) {
            r.record(op, rows, start.elapsed().as_nanos() as u64);
        }
    }

    /// Take the collected node profiles (empty unless profiling).
    pub fn take_nodes(&mut self) -> Vec<NodeProfile> {
        self.recorder.take().map(|r| r.nodes).unwrap_or_default()
    }

    /// Merge one filter application into the per-filter SIP statistics
    /// (always collected — there are at most a handful of filters per
    /// plan, so this is far off the per-tuple hot path).
    pub fn record_sip(&mut self, label: &str, probes: u64, drops: u64) {
        match self.sip_stats.iter_mut().find(|s| s.label == label) {
            Some(s) => {
                s.probes += probes;
                s.drops += drops;
            }
            None => {
                self.sip_stats.push(SipFilterStat { label: label.to_string(), probes, drops });
            }
        }
    }

    /// Take the per-filter SIP statistics accumulated so far.
    pub fn take_sip_stats(&mut self) -> Vec<SipFilterStat> {
        std::mem::take(&mut self.sip_stats)
    }

    /// The governing profile.
    pub fn profile(&self) -> &EngineProfile {
        self.profile
    }

    /// A [`WorkerSpawner`] capturing everything worker threads need to
    /// open sibling contexts: the profile, the *same* start instant (the
    /// deadline is global) and the shared cancel/budget state.
    pub fn spawner(&self) -> WorkerSpawner<'a> {
        WorkerSpawner {
            profile: self.profile,
            started: self.started,
            shared: Arc::clone(&self.shared),
            profiling: self.recorder.is_some(),
        }
    }

    /// Fold a finished worker context into this one: counters add up
    /// (they are commutative sums, so aggregate totals are independent
    /// of scheduling) and node profiles merge by their recorded labels.
    pub fn absorb(&mut self, mut worker: ExecContext<'_>) {
        self.counters.tuples_scanned += worker.counters.tuples_scanned;
        self.counters.tuples_joined += worker.counters.tuples_joined;
        self.counters.tuples_materialized += worker.counters.tuples_materialized;
        self.counters.tuples_deduped += worker.counters.tuples_deduped;
        self.counters.sip_probes += worker.counters.sip_probes;
        self.counters.sip_drops += worker.counters.sip_drops;
        self.counters.range_scans += worker.counters.range_scans;
        self.counters.view_hits += worker.counters.view_hits;
        self.counters.sorts_elided += worker.counters.sorts_elided;
        self.counters.gallop_seeks += worker.counters.gallop_seeks;
        self.counters.scan_rows_borrowed += worker.counters.scan_rows_borrowed;
        self.counters.rows_reserved += worker.counters.rows_reserved;
        for s in worker.take_sip_stats() {
            self.record_sip(&s.label, s.probes, s.drops);
        }
        if let Some(r) = &mut self.recorder {
            for node in worker.take_nodes() {
                r.merge(node);
            }
        }
    }

    /// The cross-thread shared state (cancel flag + held-tuples budget).
    pub fn shared(&self) -> &Arc<ExecShared> {
        &self.shared
    }

    /// Charge `tuples` held worker-result tuples against the *global*
    /// memory budget (the cross-thread sum, not one intermediate).
    /// Release with [`ExecContext::release_memory`] once merged.
    pub fn reserve_memory(&self, tuples: usize) -> Result<(), EngineError> {
        let total =
            self.shared.held_tuples.fetch_add(tuples as u64, Ordering::Relaxed) + tuples as u64;
        if total > self.profile.memory_budget_tuples as u64 {
            Err(EngineError::MemoryBudgetExceeded {
                tuples: total as usize,
                budget: self.profile.memory_budget_tuples,
            })
        } else {
            Ok(())
        }
    }

    /// Return `tuples` previously charged by [`ExecContext::reserve_memory`].
    pub fn release_memory(&self, tuples: usize) {
        self.shared.held_tuples.fetch_sub(tuples as u64, Ordering::Relaxed);
    }

    /// Amortized liveness check for a whole batch of `n` produced
    /// tuples: advances the tick counter in one step and polls once per
    /// crossed poll window (at least every 16384 tuples) without one
    /// branch per tuple. Each poll checks the deadline and the shared
    /// cancel flag, so a failure on one worker stops all of them
    /// promptly.
    #[inline]
    pub fn tick_n(&mut self, n: u64) -> Result<(), EngineError> {
        let before = self.ticks;
        self.ticks = self.ticks.wrapping_add(n);
        if self.ticks / (DEADLINE_POLL_MASK + 1) != before / (DEADLINE_POLL_MASK + 1) {
            self.check_live()?;
        }
        Ok(())
    }

    /// Unconditional deadline check (call at operator boundaries).
    pub fn check_deadline(&self) -> Result<(), EngineError> {
        if self.started.elapsed() > self.profile.timeout {
            Err(EngineError::Timeout { limit: self.profile.timeout })
        } else {
            Ok(())
        }
    }

    /// Deadline check plus cross-thread cancellation: errors with
    /// [`EngineError::Cancelled`] when a sibling worker already failed.
    pub fn check_live(&self) -> Result<(), EngineError> {
        if self.shared.cancelled() {
            return Err(EngineError::Cancelled);
        }
        self.check_deadline()
    }

    /// Shift the evaluation clock `by` into the past, as if the context
    /// had been created earlier. Test support for deterministic deadline
    /// coverage: a zero timeout plus any positive backdate is expired
    /// without sleeping.
    pub fn backdate(&mut self, by: Duration) {
        if let Some(t) = self.started.checked_sub(by) {
            self.started = t;
        }
    }

    /// Enforce the memory budget for a materialized intermediate of
    /// `tuples` rows.
    pub fn check_memory(&self, tuples: usize) -> Result<(), EngineError> {
        if tuples > self.profile.memory_budget_tuples {
            Err(EngineError::MemoryBudgetExceeded {
                tuples,
                budget: self.profile.memory_budget_tuples,
            })
        } else {
            Ok(())
        }
    }

    /// Time elapsed since the context was created.
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }
}

/// Everything a worker thread needs to open a sibling [`ExecContext`]
/// of a running evaluation. `Sync`, so one spawner can be borrowed by
/// every thread of a [`std::thread::scope`].
#[derive(Debug)]
pub struct WorkerSpawner<'a> {
    profile: &'a EngineProfile,
    started: Instant,
    shared: Arc<ExecShared>,
    profiling: bool,
}

impl<'a> WorkerSpawner<'a> {
    /// Open a sibling context: fresh counters/profiles, but the same
    /// profile, start instant (global deadline) and shared cancel/budget
    /// state as the originating context.
    pub fn context(&self) -> ExecContext<'a> {
        ExecContext {
            profile: self.profile,
            started: self.started,
            counters: Counters::default(),
            ticks: 0,
            recorder: self.profiling.then(NodeRecorder::default),
            sip_stats: Vec::new(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// The shared cross-thread state.
    pub fn shared(&self) -> &ExecShared {
        &self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn deadline_enforced() {
        // Backdated clock instead of sleeping: deterministic under any
        // scheduler load.
        let p = EngineProfile::pg_like().with_timeout(Duration::from_millis(0));
        let mut ctx = ExecContext::new(&p);
        ctx.backdate(Duration::from_millis(2));
        assert!(matches!(ctx.check_deadline(), Err(EngineError::Timeout { .. })));
        let generous = EngineProfile::pg_like();
        let fresh = ExecContext::new(&generous);
        assert!(fresh.check_deadline().is_ok(), "generous deadline passes");
    }

    #[test]
    fn memory_budget_enforced() {
        let p = EngineProfile::pg_like().with_memory_budget(10);
        let ctx = ExecContext::new(&p);
        assert!(ctx.check_memory(10).is_ok());
        assert!(matches!(
            ctx.check_memory(11),
            Err(EngineError::MemoryBudgetExceeded { tuples: 11, budget: 10 })
        ));
    }

    #[test]
    fn node_profiles_merge_by_scoped_label() {
        let p = EngineProfile::pg_like();
        let mut ctx = ExecContext::with_profiling(&p);
        assert!(ctx.profiling());
        ctx.set_scope("fragment[0].".to_string());
        let t = ctx.op_start();
        ctx.op_finish(t, "union", 10);
        let t = ctx.op_start();
        ctx.op_finish(t, "union", 5);
        ctx.set_scope(String::new());
        let t = ctx.op_start();
        ctx.op_finish(t, "dedup", 3);
        let nodes = ctx.take_nodes();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].label, "fragment[0].union");
        assert_eq!(nodes[0].invocations, 2);
        assert_eq!(nodes[0].rows, 15);
        assert_eq!(nodes[1].label, "dedup");
        assert_eq!(nodes[1].rows, 3);

        let mut off = ExecContext::new(&p);
        assert!(off.op_start().is_none());
        let t = off.op_start();
        off.op_finish(t, "union", 1);
        assert!(off.take_nodes().is_empty());
    }

    #[test]
    fn tick_is_cheap_and_eventually_polls() {
        let p = EngineProfile::pg_like().with_timeout(Duration::from_millis(0));
        let mut ctx = ExecContext::new(&p);
        ctx.backdate(Duration::from_millis(2));
        let mut failed = false;
        for _ in 0..=DEADLINE_POLL_MASK {
            if ctx.tick_n(1).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "deadline must surface within one poll window");
    }

    #[test]
    fn tick_n_polls_once_per_crossed_window() {
        let p = EngineProfile::pg_like().with_timeout(Duration::from_millis(0));
        let mut ctx = ExecContext::new(&p);
        ctx.backdate(Duration::from_millis(2));
        // Inside the first poll window nothing is checked...
        assert!(ctx.tick_n(DEADLINE_POLL_MASK).is_ok());
        // ...crossing the boundary surfaces the expired deadline.
        assert!(matches!(ctx.tick_n(1), Err(EngineError::Timeout { .. })));

        // A single huge batch crosses a window by itself.
        let mut ctx = ExecContext::new(&p);
        ctx.backdate(Duration::from_millis(2));
        assert!(matches!(
            ctx.tick_n(10 * (DEADLINE_POLL_MASK + 1)),
            Err(EngineError::Timeout { .. })
        ));
    }

    #[test]
    fn sip_stats_merge_by_label_and_absorb() {
        let p = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&p);
        ctx.record_sip("fragment[1].sip_filter", 10, 4);
        ctx.record_sip("fragment[1].sip_filter", 5, 1);

        let spawner = ctx.spawner();
        let mut w = spawner.context();
        w.record_sip("fragment[2].sip_filter", 7, 7);
        w.counters.sip_probes = 7;
        w.counters.sip_drops = 7;
        ctx.absorb(w);

        assert_eq!(ctx.counters.sip_probes, 7);
        assert_eq!(ctx.counters.sip_drops, 7);
        let stats = ctx.take_sip_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].label, "fragment[1].sip_filter");
        assert_eq!(stats[0].probes, 15);
        assert_eq!(stats[0].drops, 5);
        assert_eq!(stats[1].label, "fragment[2].sip_filter");
        assert!(ctx.take_sip_stats().is_empty(), "take drains the stats");
    }

    #[test]
    fn worker_contexts_share_deadline_and_cancel() {
        let p = EngineProfile::pg_like().with_timeout(Duration::from_millis(0));
        let mut ctx = ExecContext::new(&p);
        ctx.backdate(Duration::from_millis(2));
        // A worker opened from an expired context is itself expired.
        let worker = ctx.spawner().context();
        assert!(matches!(worker.check_deadline(), Err(EngineError::Timeout { .. })));

        let p = EngineProfile::pg_like();
        let ctx = ExecContext::new(&p);
        let spawner = ctx.spawner();
        let a = spawner.context();
        let b = spawner.context();
        assert!(a.check_live().is_ok());
        b.shared().cancel();
        assert!(matches!(a.check_live(), Err(EngineError::Cancelled)));
        assert!(matches!(ctx.check_live(), Err(EngineError::Cancelled)));
    }

    #[test]
    fn reserved_memory_is_charged_globally() {
        let p = EngineProfile::pg_like().with_memory_budget(10);
        let ctx = ExecContext::new(&p);
        let spawner = ctx.spawner();
        let a = spawner.context();
        let b = spawner.context();
        assert!(a.reserve_memory(6).is_ok());
        // Each worker is within budget alone, but the cross-thread sum
        // is not.
        assert!(matches!(
            b.reserve_memory(6),
            Err(EngineError::MemoryBudgetExceeded { tuples: 12, budget: 10 })
        ));
        // Releasing the breached reservation restores headroom.
        b.release_memory(6);
        a.release_memory(6);
        assert!(ctx.reserve_memory(10).is_ok());
    }

    #[test]
    fn absorb_sums_counters_and_merges_nodes() {
        let p = EngineProfile::pg_like();
        let mut ctx = ExecContext::with_profiling(&p);
        let t = ctx.op_start();
        ctx.op_finish(t, "dedup", 3);
        ctx.counters.tuples_scanned = 5;

        let spawner = ctx.spawner();
        let mut w = spawner.context();
        assert!(w.profiling(), "workers inherit profiling");
        w.set_scope("fragment[0].".to_string());
        let t = w.op_start();
        w.op_finish(t, "cq", 7);
        w.counters.tuples_scanned = 2;
        w.counters.tuples_joined = 4;

        ctx.absorb(w);
        assert_eq!(ctx.counters.tuples_scanned, 7);
        assert_eq!(ctx.counters.tuples_joined, 4);
        let nodes = ctx.take_nodes();
        let labels: Vec<&str> = nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(labels, vec!["dedup", "fragment[0].cq"]);
        assert_eq!(nodes[1].rows, 7);
    }
}
