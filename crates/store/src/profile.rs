//! Engine profiles: the substitution for DB2 / PostgreSQL / MySQL.
//!
//! The paper's experiments (§5) show that the three RDBMSs differ
//! sharply in how they cope with reformulated queries: DB2 fails on huge
//! UCQs with stack-depth errors, MySQL is catastrophically slow on SCQs
//! (it materializes every derived table and joins without hashing),
//! Postgres sits in between. DESIGN.md §3 documents this substitution:
//! we reproduce the *phenomenon* — engines with different strengths and
//! weaknesses, each needing its own calibrated cost model — with one
//! executor parameterized by a profile.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// The join algorithm used when combining materialized fragment results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinAlgo {
    /// Build a hash table on the smaller input, probe with the larger.
    Hash,
    /// Sort both inputs on the join key, then merge.
    SortMerge,
    /// Nested loop over blocks of the outer input — no auxiliary
    /// structure, quadratic; this is what makes the MySQL-like profile
    /// collapse on SCQ's giant fragment unions.
    BlockNestedLoop,
}

/// Behavioural knobs emulating one RDBMS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    /// Human-readable name used in reports (e.g. `pg-like`).
    pub name: String,
    /// Maximum number of union terms the engine accepts in one query;
    /// beyond this it fails with a stack-depth-style error.
    pub max_union_terms: usize,
    /// Memory budget, in tuples, for any single materialized
    /// intermediate result; beyond this the evaluation aborts.
    pub memory_budget_tuples: usize,
    /// Join algorithm for fragment-level joins (UCQ × UCQ).
    pub fragment_join: JoinAlgo,
    /// If true, every union subquery result is fully copied
    /// (materialized) before use, even the one the paper's model assumes
    /// pipelined — MySQL's derived-table behaviour.
    pub materialize_all_unions: bool,
    /// If true, CQ bodies are evaluated with index-nested-loop joins
    /// against the triple table (all six indexes available); if false,
    /// CQ joins hash fully scanned pattern extents.
    pub index_nested_loop_cq: bool,
    /// Default per-query deadline.
    pub timeout: Duration,
    /// Worker threads for union-member / fragment evaluation and cover
    /// scoring. `1` evaluates strictly sequentially; parallel runs merge
    /// order-stably, so results and counters are identical either way.
    pub parallelism: usize,
    /// If true (the default), the planner factors triple-pattern scans
    /// that several union members share into a plan-wide `SharedScan`
    /// table: each distinct access path is computed once and its
    /// materialized extent is reused by every member referencing it.
    /// Disable to measure the unshared baseline (`BENCH_plan_sharing`).
    #[serde(default = "default_share_scans")]
    pub share_scans: bool,
    /// Rows per batch of the operator kernels: tuples move in chunks of
    /// this many rows, with one liveness poll and memory check per
    /// chunk. Clamped to ≥ 1.
    #[serde(default = "default_batch_rows")]
    pub batch_rows: usize,
    /// If true (the default), multi-fragment plans stage their fragment
    /// evaluation in join order and publish a Bloom filter on each join
    /// key into the plan-wide shared table: downstream fragments' union
    /// members probe it and drop non-joining tuples batches at a time
    /// before they reach the join (sideways information passing).
    /// Answers are unchanged — Bloom false positives are discarded by
    /// the join itself.
    #[serde(default = "default_sip_filters")]
    pub sip_filters: bool,
    /// If true (the default), the planner collapses union members that
    /// differ in exactly one constant whose ids form a contiguous run
    /// into a single `RangeScan` over that id interval (the LiteMat
    /// hierarchy-encoding payoff). The collapse checks actual id
    /// contiguity at plan time, so it is answer-preserving under any
    /// dictionary numbering; without the hierarchical encoding it simply
    /// fires rarely. Disable to measure the pure-UCQ baseline.
    #[serde(default = "default_range_scans")]
    pub range_scans: bool,
    /// If true (the default), the planner matches a query's cover
    /// fragments against the store's materialized-view catalog (when
    /// one is attached) and lowers matches to `ViewScan` nodes: the
    /// fragment's rows come from the catalog when the request's epoch
    /// matches the entry's, and from the embedded fallback union
    /// otherwise. `JUCQ_VIEWS=0` disables matching entirely (plans
    /// never contain `ViewScan`s). Answers are identical either way.
    #[serde(default = "default_view_scans")]
    pub view_scans: bool,
    /// If true (the default), the planner is order-aware: scan leaves
    /// record which permutation index produced them (and therefore the
    /// variable order their rows are sorted by), the interesting-orders
    /// pass picks permutations that feed the next fragment join, and
    /// joins whose inputs already arrive sorted on the key lower to
    /// `MergeJoin` with the sort elided — chosen by cost against the
    /// profile's native algorithm, never forced. `JUCQ_ORDER=0`
    /// disables the whole pass (plans and costs revert to the
    /// order-blind baseline). Answers are identical either way.
    #[serde(default = "default_order_aware")]
    pub order_aware: bool,
}

// Referenced by the `#[serde(default)]` attribute, which only expands
// when the real serde crate replaces the offline shim.
#[allow(dead_code)]
fn default_share_scans() -> bool {
    true
}

#[allow(dead_code)]
fn default_sip_filters() -> bool {
    true
}

#[allow(dead_code)]
fn default_range_scans() -> bool {
    true
}

#[allow(dead_code)]
fn default_batch_rows() -> usize {
    DEFAULT_BATCH_ROWS
}

/// Rows per batch when nothing overrides it: the sweet spot where the
/// per-batch bookkeeping amortizes but batches stay cache-resident.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// The environment variable `name` as a number, read once per profile
/// construction: `None` when unset. An unparsable or non-unicode value
/// warns once under `warn_key` through `jucq-obs` and also yields
/// `None`, so the caller keeps its default.
fn env_usize(name: &str, warn_key: &'static str) -> Option<usize> {
    match std::env::var(name) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => {
                jucq_obs::warn_once(
                    warn_key,
                    &format!("ignoring unparsable {name}={v:?}; keeping the default"),
                );
                None
            }
        },
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            jucq_obs::warn_once(
                warn_key,
                &format!("ignoring non-unicode {name}; keeping the default"),
            );
            None
        }
    }
}

/// The `JUCQ_VIEWS` environment variable: unset or any non-zero number
/// keeps view matching on, `0` disables it. (Numbers above zero double
/// as a tuple budget for the layers that own a catalog; the profile
/// only cares whether matching is enabled.)
pub fn default_view_scans() -> bool {
    env_usize("JUCQ_VIEWS", "warn.jucq_views_invalid") != Some(0)
}

/// The `JUCQ_ORDER` environment variable: unset or any non-zero number
/// keeps order-aware planning on, `0` disables it.
pub fn default_order_aware() -> bool {
    env_usize("JUCQ_ORDER", "warn.jucq_order_invalid") != Some(0)
}

/// The default worker-pool width: the `JUCQ_THREADS` environment
/// variable when set, otherwise the machine's available parallelism.
///
/// `JUCQ_THREADS=0` means strictly sequential (consistent with
/// [`EngineProfile::with_parallelism`], which clamps 0 to 1); an
/// unparsable value falls back to the hardware width.
pub fn default_parallelism() -> usize {
    env_usize("JUCQ_THREADS", "warn.jucq_threads_invalid").map_or_else(
        || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        |n| n.max(1),
    )
}

impl EngineProfile {
    /// PostgreSQL-like: hash joins, pipelined largest union, generous
    /// union limit, moderate memory.
    pub fn pg_like() -> Self {
        EngineProfile {
            name: "pg-like".into(),
            max_union_terms: 100_000,
            memory_budget_tuples: 40_000_000,
            fragment_join: JoinAlgo::Hash,
            materialize_all_unions: false,
            index_nested_loop_cq: true,
            timeout: Duration::from_secs(30),
            parallelism: default_parallelism(),
            share_scans: true,
            batch_rows: DEFAULT_BATCH_ROWS,
            sip_filters: true,
            range_scans: true,
            view_scans: default_view_scans(),
            order_aware: default_order_aware(),
        }
    }

    /// DB2-like: strong executor (hash joins) but a hard stack-depth
    /// limit on the number of union terms it can plan.
    pub fn db2_like() -> Self {
        EngineProfile {
            name: "db2-like".into(),
            max_union_terms: 2_000,
            memory_budget_tuples: 40_000_000,
            fragment_join: JoinAlgo::Hash,
            materialize_all_unions: false,
            index_nested_loop_cq: true,
            timeout: Duration::from_secs(30),
            parallelism: default_parallelism(),
            share_scans: true,
            batch_rows: DEFAULT_BATCH_ROWS,
            sip_filters: true,
            range_scans: true,
            view_scans: default_view_scans(),
            order_aware: default_order_aware(),
        }
    }

    /// MySQL-like: materializes every derived union and joins fragments
    /// with block-nested loops; tight memory budget.
    pub fn mysql_like() -> Self {
        EngineProfile {
            name: "mysql-like".into(),
            max_union_terms: 60_000,
            memory_budget_tuples: 25_000_000,
            fragment_join: JoinAlgo::BlockNestedLoop,
            materialize_all_unions: true,
            index_nested_loop_cq: true,
            timeout: Duration::from_secs(30),
            parallelism: default_parallelism(),
            share_scans: true,
            batch_rows: DEFAULT_BATCH_ROWS,
            sip_filters: true,
            range_scans: true,
            view_scans: default_view_scans(),
            order_aware: default_order_aware(),
        }
    }

    /// Virtuoso-like "native RDF store" used only for the saturation
    /// comparison of Figure 10: same executor as pg-like but without the
    /// per-query connection overhead (modelled in the cost layer) and
    /// with a larger memory budget.
    pub fn native_like() -> Self {
        EngineProfile {
            name: "native-like".into(),
            max_union_terms: 100_000,
            memory_budget_tuples: 80_000_000,
            fragment_join: JoinAlgo::Hash,
            materialize_all_unions: false,
            index_nested_loop_cq: true,
            timeout: Duration::from_secs(30),
            parallelism: default_parallelism(),
            share_scans: true,
            batch_rows: DEFAULT_BATCH_ROWS,
            sip_filters: true,
            range_scans: true,
            view_scans: default_view_scans(),
            order_aware: default_order_aware(),
        }
    }

    /// All three RDBMS-like profiles, in the order the figures use.
    pub fn rdbms_trio() -> [EngineProfile; 3] {
        [Self::db2_like(), Self::pg_like(), Self::mysql_like()]
    }

    /// Replace the deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Replace the memory budget.
    pub fn with_memory_budget(mut self, tuples: usize) -> Self {
        self.memory_budget_tuples = tuples;
        self
    }

    /// Replace the union-term limit.
    pub fn with_max_union_terms(mut self, terms: usize) -> Self {
        self.max_union_terms = terms;
        self
    }

    /// Replace the worker-pool width (clamped to at least one).
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// Replace the fragment-level join algorithm.
    pub fn with_fragment_join(mut self, algo: JoinAlgo) -> Self {
        self.fragment_join = algo;
        self
    }

    /// Enable or disable common-scan factoring across union members.
    pub fn with_scan_sharing(mut self, share: bool) -> Self {
        self.share_scans = share;
        self
    }

    /// Replace the rows per batch (clamped to at least one).
    pub fn with_batch_size(mut self, rows: usize) -> Self {
        self.batch_rows = rows.max(1);
        self
    }

    /// Enable or disable cross-fragment sideways information passing.
    pub fn with_sip_filters(mut self, on: bool) -> Self {
        self.sip_filters = on;
        self
    }

    /// Enable or disable collapsing contiguous-id union members into
    /// `RangeScan` nodes.
    pub fn with_range_scans(mut self, on: bool) -> Self {
        self.range_scans = on;
        self
    }

    /// Enable or disable matching cover fragments against the
    /// materialized-view catalog.
    pub fn with_view_scans(mut self, on: bool) -> Self {
        self.view_scans = on;
        self
    }

    /// Enable or disable order-aware planning (interesting orders,
    /// sort-elided merge joins, zero-copy scan handoff).
    pub fn with_order_aware(mut self, on: bool) -> Self {
        self.order_aware = on;
        self
    }

    /// The effective worker count: at least one.
    pub fn effective_parallelism(&self) -> usize {
        self.parallelism.max(1)
    }

    /// The effective rows-per-batch: at least one.
    pub fn effective_batch_rows(&self) -> usize {
        self.batch_rows.max(1)
    }

    /// A cache-key fingerprint of every knob that changes the *plan* or
    /// how a cached plan may be replayed: toggling any of these (e.g.
    /// via `JUCQ_ORDER` or `with_sip_filters`) must miss the plan cache
    /// rather than serve a plan lowered under the old settings. The
    /// name alone is not enough — two profiles can share a name and
    /// differ in knobs (the `set_profile` staleness class).
    pub fn plan_cache_key(&self) -> String {
        format!(
            "{}|join={:?}|mat={}|inlj={}|share={}|batch={}|sip={}|range={}|views={}|order={}",
            self.name,
            self.fragment_join,
            self.materialize_all_unions,
            self.index_nested_loop_cq,
            self.share_scans,
            self.effective_batch_rows(),
            self.sip_filters,
            self.range_scans,
            self.view_scans,
            self.order_aware,
        )
    }
}

impl Default for EngineProfile {
    fn default() -> Self {
        Self::pg_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_distinct_names() {
        let names: Vec<String> =
            EngineProfile::rdbms_trio().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, vec!["db2-like", "pg-like", "mysql-like"]);
    }

    #[test]
    fn db2_has_tightest_union_limit() {
        let [db2, pg, my] = EngineProfile::rdbms_trio();
        assert!(db2.max_union_terms < pg.max_union_terms);
        assert!(db2.max_union_terms < my.max_union_terms);
    }

    #[test]
    fn mysql_materializes_and_nested_loops() {
        let my = EngineProfile::mysql_like();
        assert!(my.materialize_all_unions);
        assert_eq!(my.fragment_join, JoinAlgo::BlockNestedLoop);
    }

    #[test]
    fn builders_override_fields() {
        let p = EngineProfile::pg_like()
            .with_timeout(Duration::from_millis(5))
            .with_memory_budget(7)
            .with_max_union_terms(3);
        assert_eq!(p.timeout, Duration::from_millis(5));
        assert_eq!(p.memory_budget_tuples, 7);
        assert_eq!(p.max_union_terms, 3);
    }

    #[test]
    fn default_is_pg_like() {
        assert_eq!(EngineProfile::default().name, "pg-like");
    }

    /// Serializes tests that mutate the process environment.
    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn jucq_threads_zero_means_sequential() {
        let _serial = env_lock();
        std::env::set_var("JUCQ_THREADS", "0");
        assert_eq!(default_parallelism(), 1);
        std::env::set_var("JUCQ_THREADS", "3");
        assert_eq!(default_parallelism(), 3);
        std::env::remove_var("JUCQ_THREADS");
    }

    #[test]
    fn jucq_threads_junk_warns_once_and_falls_back() {
        let _serial = env_lock();
        jucq_obs::warn::reset_for_test();
        std::env::set_var("JUCQ_THREADS", "banana");
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(default_parallelism(), hw);
        assert!(jucq_obs::warn::warned("warn.jucq_threads_invalid"));
        // Second call with junk does not re-print (warn_once dedupes).
        assert_eq!(default_parallelism(), hw);
        std::env::remove_var("JUCQ_THREADS");
        jucq_obs::warn::reset_for_test();
    }

    #[test]
    fn jucq_order_env_controls_order_awareness() {
        let _serial = env_lock();
        std::env::set_var("JUCQ_ORDER", "0");
        assert!(!default_order_aware(), "JUCQ_ORDER=0 disables order-aware planning");
        std::env::set_var("JUCQ_ORDER", "1");
        assert!(default_order_aware());
        std::env::remove_var("JUCQ_ORDER");
        assert!(default_order_aware(), "order-aware planning is on by default");
    }

    #[test]
    fn plan_cache_key_distinguishes_batch_and_sip_knobs() {
        let base = EngineProfile::pg_like();
        let keys = [
            base.clone().plan_cache_key(),
            base.clone().with_sip_filters(!base.sip_filters).plan_cache_key(),
            base.clone().with_scan_sharing(false).plan_cache_key(),
            base.clone().with_batch_size(7).plan_cache_key(),
            base.clone().with_range_scans(!base.range_scans).plan_cache_key(),
            base.clone().with_view_scans(!base.view_scans).plan_cache_key(),
            base.clone().with_order_aware(!base.order_aware).plan_cache_key(),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "knob change must change the key");
            }
        }
        // Knobs that never affect the plan or its replay semantics —
        // timeouts, budgets — keep the key stable (cache stays warm).
        assert_eq!(
            base.clone().with_timeout(Duration::from_secs(1)).plan_cache_key(),
            base.plan_cache_key()
        );
    }

    #[test]
    fn parallelism_clamps_to_one() {
        let p = EngineProfile::pg_like().with_parallelism(0);
        assert_eq!(p.effective_parallelism(), 1);
        let p = EngineProfile::pg_like().with_parallelism(8);
        assert_eq!(p.effective_parallelism(), 8);
        assert!(EngineProfile::pg_like().effective_parallelism() >= 1);
    }

    #[test]
    fn batch_size_clamps_to_one() {
        assert_eq!(EngineProfile::pg_like().effective_batch_rows(), DEFAULT_BATCH_ROWS);
        let p = EngineProfile::pg_like().with_batch_size(0);
        assert_eq!(p.effective_batch_rows(), 1);
        let p = EngineProfile::pg_like().with_batch_size(333);
        assert_eq!(p.effective_batch_rows(), 333);
    }
}
