//! Shared cover-search machinery: fragment caching + pluggable cost.
//!
//! Both ECov and GCov repeatedly estimate "the cost of the cover-based
//! reformulation" of candidate covers. A [`CoverSearch`] memoizes the
//! expensive part — reformulating each fragment's cover query into its
//! UCQ — keyed by the fragment's atom set, and delegates JUCQ costing
//! to a [`JucqCostEstimator`]: either the paper's analytic model
//! ([`crate::cost::PaperCostModel`]) or the engine's internal estimator
//! ([`EngineCostModel`], the Figure 9 alternative).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use jucq_model::FxHashMap;
use jucq_reformulation::reformulate::{reformulate_with_limit, ReformulationEnv};
use jucq_reformulation::{BgpQuery, Cover};
use jucq_store::{internal_cost, Store, StoreJucq, StorePattern, StoreUcq, VarId};

use crate::cost::PaperCostModel;

/// Everything the cover search knows about one fragment when asking for
/// its cost: the reformulated union plus the fragment's *cover query*
/// shape (original atoms and each atom's singleton reformulation),
/// enabling overlap-aware cardinality estimation.
pub struct FragmentCostInput<'x> {
    /// The fragment's atom indices (a stable cache key).
    pub key: &'x [usize],
    /// The fragment's reformulated UCQ.
    pub ucq: &'x StoreUcq,
    /// The cover query's body atoms, aligned with `key`.
    pub template_atoms: &'x [StorePattern],
    /// Per original atom, its singleton reformulation UCQ.
    pub atom_singletons: Vec<&'x StoreUcq>,
}

/// A whole cover's cost-estimation inputs.
pub struct CoverCostInputs<'x> {
    /// The query head.
    pub head: &'x [VarId],
    /// One input per fragment.
    pub fragments: Vec<FragmentCostInput<'x>>,
}

/// Estimates the evaluation cost of a JUCQ (lower is better).
pub trait JucqCostEstimator {
    /// The estimated cost, in arbitrary but consistent units.
    fn estimate(&self, jucq: &StoreJucq) -> f64;

    /// Cover-aware estimation; the default materializes the JUCQ and
    /// delegates to [`JucqCostEstimator::estimate`].
    fn estimate_cover(&self, inputs: &CoverCostInputs<'_>) -> f64 {
        let jucq = StoreJucq::new(
            inputs.fragments.iter().map(|f| f.ucq.clone()).collect(),
            inputs.head.to_vec(),
        );
        self.estimate(&jucq)
    }
}

impl JucqCostEstimator for PaperCostModel<'_> {
    fn estimate(&self, jucq: &StoreJucq) -> f64 {
        self.cost(jucq)
    }

    fn estimate_cover(&self, inputs: &CoverCostInputs<'_>) -> f64 {
        let comps: Vec<crate::cost::FragComponents> = inputs
            .fragments
            .iter()
            .map(|f| {
                // Unioned per-atom extents: the scan volume of each
                // atom's singleton reformulation.
                let extents: Vec<f64> =
                    f.atom_singletons.iter().map(|u| self.ucq_scan_volume(u)).collect();
                self.fragment_components_cached(f.ucq, Some((f.template_atoms, &extents)))
            })
            .collect();
        self.combine(&comps)
    }
}

/// The engine's internal cost estimator (the paper's "RDBMS cost
/// estimation" alternative of Figure 9).
pub struct EngineCostModel<'a> {
    store: &'a Store,
}

impl<'a> EngineCostModel<'a> {
    /// Bind to a store (profile + statistics).
    pub fn new(store: &'a Store) -> Self {
        EngineCostModel { store }
    }
}

impl JucqCostEstimator for EngineCostModel<'_> {
    fn estimate(&self, jucq: &StoreJucq) -> f64 {
        internal_cost::estimate(self.store, jucq)
    }
}

/// A cached fragment reformulation: the UCQ, or `None` when it blew the
/// materialization limit (treated as infinitely expensive).
type FragmentEntry = Option<Arc<StoreUcq>>;

/// Cache key for a reformulated cover query: its atoms *and* head
/// (Definition 3.4 heads vary with the cover for overlapping covers, so
/// atom indices alone would alias distinct queries).
type FragmentKey = (Vec<jucq_store::StorePattern>, Vec<VarId>);

/// The search context shared by ECov and GCov.
pub struct CoverSearch<'a> {
    query: &'a BgpQuery,
    env: ReformulationEnv<'a>,
    estimator: &'a (dyn JucqCostEstimator + Sync),
    /// Cap on the number of member CQs materialized per fragment; a
    /// fragment beyond it costs `+∞` (no engine accepts it anyway).
    reformulation_limit: usize,
    /// The engine's union-term limit: covers whose fragments sum past
    /// it are infeasible (the engine would reject the JUCQ at
    /// admission), so they cost `+∞` and the search routes around them.
    union_limit: usize,
    /// Worker threads for batch cover scoring ([`CoverSearch::cover_costs`]).
    parallelism: usize,
    /// Fragment memos are read far more often than written (repeated
    /// fragments across candidate covers): `RwLock` keeps the hot hit
    /// path a shared, non-exclusive read usable from scoring workers.
    cache: RwLock<FxHashMap<FragmentKey, FragmentEntry>>,
    /// Per-fragment standalone cost memo (the GCov redundancy-pruning
    /// order re-asks the same fragments constantly).
    cost_cache: RwLock<FxHashMap<FragmentKey, f64>>,
    /// Covers whose cost was estimated so far (the "number of query
    /// covers explored" of Figures 7–8).
    explored: AtomicUsize,
}

/// The outcome of a cover search.
#[derive(Debug, Clone)]
pub struct CoverSearchResult {
    /// The best cover found.
    pub cover: Cover,
    /// Its estimated cost.
    pub estimated_cost: f64,
    /// Number of covers whose cost was estimated.
    pub explored: usize,
    /// Search wall-clock time.
    pub elapsed: Duration,
    /// True iff the search gave up (timeout / space cap) before
    /// finishing; the result is still the best cover seen (ECov and
    /// GCov are anytime).
    pub truncated: bool,
}

impl<'a> CoverSearch<'a> {
    /// Create a search context.
    pub fn new(
        query: &'a BgpQuery,
        env: ReformulationEnv<'a>,
        estimator: &'a (dyn JucqCostEstimator + Sync),
    ) -> Self {
        CoverSearch {
            query,
            env,
            estimator,
            reformulation_limit: 400_000,
            union_limit: usize::MAX,
            parallelism: 1,
            cache: RwLock::new(FxHashMap::default()),
            cost_cache: RwLock::new(FxHashMap::default()),
            explored: AtomicUsize::new(0),
        }
    }

    /// Override the per-fragment reformulation cap.
    pub fn with_reformulation_limit(mut self, limit: usize) -> Self {
        self.reformulation_limit = limit;
        self
    }

    /// Declare the target engine's union-term limit (admission control);
    /// infeasible covers then cost `+∞`. Also caps per-fragment
    /// reformulation at `limit + 1` members: a fragment alone exceeding
    /// the engine limit need never be materialized further.
    pub fn with_union_limit(mut self, limit: usize) -> Self {
        self.union_limit = limit;
        self.reformulation_limit = self.reformulation_limit.min(limit.saturating_add(1));
        self
    }

    /// Use up to `threads` workers for batch cover scoring.
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// The configured scoring parallelism.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The query under optimization.
    pub fn query(&self) -> &BgpQuery {
        self.query
    }

    /// Number of covers costed so far.
    pub fn explored(&self) -> usize {
        self.explored.load(Ordering::Relaxed)
    }

    /// The (cached) UCQ reformulation of one cover query.
    pub fn fragment_ucq(&self, cq: &BgpQuery) -> FragmentEntry {
        let key: FragmentKey = (cq.atoms.clone(), cq.head.clone());
        if let Some(hit) = self.cache.read().expect("cache lock").get(&key) {
            jucq_obs::metrics::counter_add("cover_search.reformulation_cache.hits", 1);
            return hit.clone();
        }
        jucq_obs::metrics::counter_add("cover_search.reformulation_cache.misses", 1);
        let entry = match reformulate_with_limit(cq, &self.env, self.reformulation_limit) {
            Ok(ucq) => Some(Arc::new(ucq)),
            Err(_) => None,
        };
        // Two workers may race to fill the same key; both compute the
        // same value, so last-write-wins is harmless.
        self.cache.write().expect("cache lock").insert(key, entry.clone());
        entry
    }

    /// Assemble the JUCQ reformulation for a cover from cached
    /// fragments. `None` if any fragment exceeds the limit.
    pub fn jucq_for(&self, cover: &Cover) -> Option<StoreJucq> {
        let mut fragments = Vec::with_capacity(cover.len());
        for cq in cover.cover_queries(self.query) {
            fragments.push(self.fragment_ucq(&cq)?.as_ref().clone());
        }
        Some(StoreJucq::new(fragments, self.query.head.clone()))
    }

    /// Estimated cost of a cover's JUCQ (`+∞` when un-materializable).
    /// Each call counts as one explored cover.
    pub fn cover_cost(&self, cover: &Cover) -> f64 {
        jucq_obs::span!("cost_estimation");
        self.explored.fetch_add(1, Ordering::Relaxed);
        let fragments = cover.fragments();
        let cover_queries = cover.cover_queries(self.query);
        // Resolve every fragment UCQ and the per-atom singleton
        // reformulations first; any over-limit fragment makes the cover
        // infeasible. Singleton *extent* queries use all-variable heads
        // (extent sums are head-insensitive; one cache entry per atom).
        let mut frag_ucqs: Vec<Arc<StoreUcq>> = Vec::with_capacity(fragments.len());
        let mut singleton_ucqs: Vec<Vec<Arc<StoreUcq>>> = Vec::with_capacity(fragments.len());
        let mut total_terms = 0usize;
        for (f, cq) in fragments.iter().zip(&cover_queries) {
            let Some(ucq) = self.fragment_ucq(cq) else {
                return f64::INFINITY;
            };
            total_terms += ucq.len();
            if total_terms > self.union_limit {
                // The engine would reject this JUCQ at admission.
                return f64::INFINITY;
            }
            frag_ucqs.push(ucq);
            let mut singles = Vec::with_capacity(f.len());
            for &i in f {
                let atom = self.query.atoms[i];
                let extent_q = BgpQuery::new(atom.variables().to_vec(), vec![atom]);
                let Some(s) = self.fragment_ucq(&extent_q) else {
                    return f64::INFINITY;
                };
                singles.push(s);
            }
            singleton_ucqs.push(singles);
        }
        let inputs = CoverCostInputs {
            head: &self.query.head,
            fragments: fragments
                .iter()
                .enumerate()
                .map(|(i, f)| FragmentCostInput {
                    key: f.as_slice(),
                    ucq: frag_ucqs[i].as_ref(),
                    template_atoms: &cover_queries[i].atoms,
                    atom_singletons: singleton_ucqs[i].iter().map(Arc::as_ref).collect(),
                })
                .collect(),
        };
        self.estimator.estimate_cover(&inputs)
    }

    /// Cost of a single fragment's reformulated UCQ alone (used by the
    /// redundancy pruning order in GCov). Uses the complement-context
    /// head — adequate for ordering. Memoized: candidate covers repeat
    /// the same fragments constantly, so each is costed once.
    pub fn fragment_cost(&self, fragment: &[usize]) -> f64 {
        let cq = self.query.cover_query(fragment);
        let key: FragmentKey = (cq.atoms.clone(), cq.head.clone());
        if let Some(&hit) = self.cost_cache.read().expect("cost cache lock").get(&key) {
            jucq_obs::metrics::counter_add("cover_search.fragment_cost_cache.hits", 1);
            return hit;
        }
        jucq_obs::metrics::counter_add("cover_search.fragment_cost_cache.misses", 1);
        let cost = match self.fragment_ucq(&cq) {
            Some(ucq) => {
                let head = ucq.head.clone();
                let jucq = StoreJucq::new(vec![ucq.as_ref().clone()], head);
                self.estimator.estimate(&jucq)
            }
            None => f64::INFINITY,
        };
        self.cost_cache.write().expect("cost cache lock").insert(key, cost);
        cost
    }

    /// Score a batch of covers, in input order, using up to the
    /// configured parallelism worker threads. Scheduling only changes
    /// *when* each cover is costed, never its cost (estimators are pure
    /// functions of the statistics), so callers folding the returned
    /// vector in order make exactly the sequential decisions.
    pub fn cover_costs(&self, covers: &[Cover]) -> Vec<f64> {
        // On single-core hardware scoring workers are pure overhead —
        // take the sequential path outright, mirroring the executor's
        // `eval_union` gate.
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = if hw <= 1 { 1 } else { self.parallelism.min(covers.len()) };
        if workers <= 1 {
            return covers.iter().map(|c| self.cover_cost(c)).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut costs = vec![f64::INFINITY; covers.len()];
        let scored: Vec<Vec<(usize, f64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= covers.len() {
                                break;
                            }
                            out.push((i, self.cover_cost(&covers[i])));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scoring worker panicked")).collect()
        });
        for (i, c) in scored.into_iter().flatten() {
            costs[i] = c;
        }
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostConstants;
    use jucq_model::{Graph, Term, TermId, Triple};
    use jucq_store::{EngineProfile, PatternTerm, StorePattern};

    struct Fixture {
        graph: Graph,
        rdf_type: TermId,
        store: Store,
    }

    fn fixture() -> Fixture {
        let mut graph = Graph::new();
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        graph.extend(&[
            t("b1", jucq_model::vocab::RDF_TYPE, Term::uri("Book")),
            t("b1", "writtenBy", Term::uri("a1")),
            t("b2", "writtenBy", Term::uri("a1")),
            t("Book", jucq_model::vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("writtenBy", jucq_model::vocab::RDFS_DOMAIN, Term::uri("Book")),
        ]);
        let rdf_type = graph.rdf_type();
        let store = Store::from_triples(graph.data(), EngineProfile::pg_like());
        Fixture { graph, rdf_type, store }
    }

    fn query(f: &Fixture) -> BgpQuery {
        let ty = f.rdf_type;
        let written_by = f.graph.dict().lookup(&Term::uri("writtenBy")).unwrap();
        let book = f.graph.dict().lookup(&Term::uri("Book")).unwrap();
        BgpQuery::new(
            vec![0, 1],
            vec![
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(ty),
                    PatternTerm::Const(book),
                ),
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(written_by),
                    PatternTerm::Var(1),
                ),
            ],
        )
    }

    #[test]
    fn fragment_cache_hits() {
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = query(&f);
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model);
        let cq = q.cover_query(&[0]);
        let a = search.fragment_ucq(&cq).unwrap();
        let b = search.fragment_ucq(&cq).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup is a cache hit");
    }

    #[test]
    fn fragment_cost_is_memoized() {
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = query(&f);
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model);
        let a = search.fragment_cost(&[0]);
        let b = search.fragment_cost(&[0]);
        assert_eq!(a.to_bits(), b.to_bits(), "memo returns the identical cost");
        assert_eq!(search.cost_cache.read().unwrap().len(), 1);
    }

    #[test]
    fn parallel_cover_costs_match_sequential_order() {
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = query(&f);
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let covers = vec![Cover::single_fragment(&q).unwrap(), Cover::singletons(&q).unwrap()];
        let seq_search = CoverSearch::new(&q, env, &model);
        let seq: Vec<f64> = covers.iter().map(|c| seq_search.cover_cost(c)).collect();
        let par_search = CoverSearch::new(&q, env, &model).with_parallelism(4);
        let par = par_search.cover_costs(&covers);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&seq), bits(&par), "costs identical and in input order");
        assert_eq!(par_search.explored(), 2);
    }

    #[test]
    fn cover_cost_counts_explorations() {
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = query(&f);
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model);
        let c1 = Cover::single_fragment(&q).unwrap();
        let c2 = Cover::singletons(&q).unwrap();
        let cost1 = search.cover_cost(&c1);
        let cost2 = search.cover_cost(&c2);
        assert!(cost1.is_finite() && cost2.is_finite());
        assert_eq!(search.explored(), 2);
    }

    #[test]
    fn limit_makes_cover_infinite() {
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = query(&f);
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model).with_reformulation_limit(1);
        let c1 = Cover::single_fragment(&q).unwrap();
        assert!(search.cover_cost(&c1).is_infinite());
    }

    #[test]
    fn engine_estimator_works_too() {
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = query(&f);
        let model = EngineCostModel::new(&f.store);
        let search = CoverSearch::new(&q, env, &model);
        let cost = search.cover_cost(&Cover::singletons(&q).unwrap());
        assert!(cost.is_finite() && cost > 0.0);
    }
}
