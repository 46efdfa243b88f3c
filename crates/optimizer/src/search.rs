//! Shared cover-search machinery: fragment caching + pluggable cost.
//!
//! Both ECov and GCov repeatedly estimate "the cost of the cover-based
//! reformulation" of candidate covers. A [`CoverSearch`] memoizes the
//! expensive part — reformulating each fragment's cover query into its
//! UCQ — and delegates JUCQ costing to a [`JucqCostEstimator`]: either
//! the paper's analytic model ([`crate::cost::PaperCostModel`]) or the
//! engine's internal estimator ([`EngineCostModel`], the Figure 9
//! alternative).
//!
//! Candidate covers are lists of `u64` atom masks ([`AtomMask`]), and
//! every memo is keyed by masks: a fragment's reformulation by its atom
//! mask plus its cover-query head mask, its standalone cost by its atom
//! mask, and each query atom's singleton reformulation by the atom's
//! index. Nothing on a memo hit allocates or hashes query patterns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

use jucq_model::FxHashMap;
use jucq_reformulation::cover::{atoms_of, AtomMask, CoverMasks, VarMask};
use jucq_reformulation::reformulate::{
    atom_query, reformulate_with_atom_ucqs, reformulate_with_limit, ReformulationEnv,
};
use jucq_reformulation::{BgpQuery, Cover, CoverError};
use jucq_store::{internal_cost, Store, StoreJucq, StorePattern, StoreUcq, VarId};

use crate::cost::PaperCostModel;

/// One query atom's singleton reformulation — the atom with all its
/// variables in the head — computed once per search.
pub struct AtomSingleton {
    /// The atom's reformulated UCQ.
    pub ucq: Arc<StoreUcq>,
    /// The atom's unioned extent (the scan volume of `ucq`), filled by
    /// the estimator the first time a fragment holding the atom misses
    /// its component memo, then reused for the rest of the search.
    pub extent: OnceLock<f64>,
}

/// Everything the cover search knows about one fragment when asking for
/// its cost: the reformulated union plus the fragment's *cover query*
/// shape (original atoms and each atom's singleton reformulation),
/// enabling overlap-aware cardinality estimation.
pub struct FragmentCostInput<'x> {
    /// The fragment's atoms.
    pub atoms: AtomMask,
    /// The fragment's reformulated UCQ.
    pub ucq: &'x StoreUcq,
    /// The cover query's body atoms, in atom-index order.
    pub template_atoms: &'x [StorePattern],
    /// Per original atom, its singleton reformulation.
    pub atom_singletons: Vec<&'x AtomSingleton>,
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
                // Unioned per-atom extents — the scan volume of each
                // atom's singleton reformulation — are only needed on a
                // component-memo miss, and then once per search.
                self.fragment_components_cached(f.ucq, f.template_atoms, || {
                    f.atom_singletons
                        .iter()
                        .map(|s| *s.extent.get_or_init(|| self.ucq_scan_volume(&s.ucq)))
                        .collect()
                })
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

/// The machine's available parallelism, read once per process: the
/// lookup reads cgroup files (tens of microseconds), and GCov scores a
/// batch per developed cover.
fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// A reformulated cover query: its body atoms and its UCQ.
struct Fragment {
    atoms: Vec<StorePattern>,
    ucq: Arc<StoreUcq>,
}

/// A cached fragment reformulation, or `None` when it blew the
/// materialization limit (treated as infinitely expensive).
type FragmentEntry = Option<Arc<Fragment>>;

/// The search context shared by ECov and GCov.
pub struct CoverSearch<'a> {
    query: &'a BgpQuery,
    /// The query's atoms and variables as bitmasks, or why the query is
    /// too large for them.
    masks: Result<CoverMasks, CoverError>,
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
    /// Fragment reformulations keyed by atom mask and cover-query head
    /// mask (Definition 3.4 heads vary with the cover for overlapping
    /// covers, so the atoms alone would alias distinct queries). Read
    /// far more often than written: `RwLock` keeps the hit path a
    /// shared read usable from scoring workers.
    cache: RwLock<FxHashMap<(AtomMask, VarMask), FragmentEntry>>,
    /// Per query atom, its singleton reformulation (`None` past the
    /// limit). Fragment costing reads it for extents, and fragment
    /// reformulation multiplies it on the per-atom product path.
    singletons: Vec<OnceLock<Option<AtomSingleton>>>,
    /// Per-fragment standalone cost memo, for the GCov redundancy-pruning
    /// order.
    cost_cache: RwLock<FxHashMap<AtomMask, f64>>,
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
            masks: CoverMasks::new(query),
            env,
            estimator,
            reformulation_limit: 400_000,
            union_limit: usize::MAX,
            parallelism: 1,
            cache: RwLock::new(FxHashMap::default()),
            singletons: (0..query.len()).map(|_| OnceLock::new()).collect(),
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

    /// The query as bitmasks, or [`CoverError::TooLarge`] past
    /// 64 atoms (or 128 variables).
    pub fn masks(&self) -> Result<&CoverMasks, CoverError> {
        self.masks.as_ref().map_err(Clone::clone)
    }

    /// Number of covers costed so far.
    pub fn explored(&self) -> usize {
        self.explored.load(Ordering::Relaxed)
    }

    /// Atom `i`'s singleton reformulation (`None` past the limit).
    fn singleton(&self, i: usize) -> Option<&AtomSingleton> {
        self.singletons[i]
            .get_or_init(|| {
                let q = atom_query(self.query.atoms[i]);
                let ucq = reformulate_with_limit(&q, &self.env, self.reformulation_limit).ok()?;
                Some(AtomSingleton { ucq: Arc::new(ucq), extent: OnceLock::new() })
            })
            .as_ref()
    }

    /// The (cached) reformulation of the cover query of `fragment` when
    /// the other fragments' atoms are `context`.
    fn fragment(&self, masks: &CoverMasks, fragment: AtomMask, context: AtomMask) -> FragmentEntry {
        let key = (fragment, masks.head(fragment, context));
        if let Some(hit) = self.cache.read().expect("cache lock").get(&key) {
            jucq_obs::metrics::counter_add("cover_search.reformulation_cache.hits", 1);
            return hit.clone();
        }
        jucq_obs::metrics::counter_add("cover_search.reformulation_cache.misses", 1);
        let atoms: Vec<usize> = atoms_of(fragment).collect();
        let others: Vec<usize> = atoms_of(context).collect();
        let cq = self.query.cover_query_in(&atoms, &others);
        let ucq = match atoms[..] {
            // A one-atom fragment whose head is all the atom's variables
            // is the atom's singleton query.
            [i] if cq == atom_query(self.query.atoms[i]) => {
                self.singleton(i).map(|s| s.ucq.clone())
            }
            _ => {
                let limit = self.reformulation_limit;
                reformulate_with_atom_ucqs(&cq, &self.env, limit, |k| {
                    self.singleton(atoms[k]).map(|s| s.ucq.as_ref()).ok_or(limit.saturating_add(1))
                })
                .ok()
                .map(Arc::new)
            }
        };
        let entry = ucq.map(|ucq| Arc::new(Fragment { atoms: cq.atoms, ucq }));
        // Two workers may race to fill the same key; both compute the
        // same value, so last-write-wins is harmless.
        self.cache.write().expect("cache lock").insert(key, entry.clone());
        entry
    }

    /// The union of every fragment but `i`: fragment `i`'s context.
    fn context(fragments: &[AtomMask], i: usize) -> AtomMask {
        fragments.iter().enumerate().filter(|&(j, _)| j != i).fold(0, |m, (_, &f)| m | f)
    }

    /// Assemble the JUCQ reformulation for a cover from cached
    /// fragments. `None` if any fragment exceeds the limit.
    pub fn jucq_for(&self, cover: &Cover) -> Option<StoreJucq> {
        let masks = self.masks.as_ref().ok()?;
        let fragments = cover.masks();
        let mut ucqs = Vec::with_capacity(fragments.len());
        for (i, &f) in fragments.iter().enumerate() {
            ucqs.push(self.fragment(masks, f, Self::context(&fragments, i))?.ucq.as_ref().clone());
        }
        Some(StoreJucq::new(ucqs, self.query.head.clone()))
    }

    /// Estimated cost of a cover's JUCQ (`+∞` when un-materializable,
    /// or when the query is too large for the search). Each call counts
    /// as one explored cover.
    pub fn cover_cost(&self, cover: &Cover) -> f64 {
        match &self.masks {
            Ok(_) => self.mask_cover_cost(&cover.masks()),
            Err(_) => f64::INFINITY,
        }
    }

    /// [`CoverSearch::cover_cost`] of a cover given as atom masks in
    /// [`Cover`] fragment order.
    pub fn mask_cover_cost(&self, fragments: &[AtomMask]) -> f64 {
        jucq_obs::span!("cost_estimation");
        self.explored.fetch_add(1, Ordering::Relaxed);
        let Ok(masks) = &self.masks else {
            return f64::INFINITY;
        };
        // Resolve every fragment UCQ and the per-atom singleton
        // reformulations first; any over-limit fragment makes the cover
        // infeasible.
        let mut resolved: Vec<Arc<Fragment>> = Vec::with_capacity(fragments.len());
        let mut total_terms = 0usize;
        for (i, &f) in fragments.iter().enumerate() {
            let Some(fragment) = self.fragment(masks, f, Self::context(fragments, i)) else {
                return f64::INFINITY;
            };
            total_terms += fragment.ucq.len();
            if total_terms > self.union_limit {
                // The engine would reject this JUCQ at admission.
                return f64::INFINITY;
            }
            resolved.push(fragment);
        }
        let mut inputs = Vec::with_capacity(fragments.len());
        for (fragment, &f) in resolved.iter().zip(fragments) {
            let Some(atom_singletons) = atoms_of(f).map(|i| self.singleton(i)).collect() else {
                return f64::INFINITY;
            };
            inputs.push(FragmentCostInput {
                atoms: f,
                ucq: &fragment.ucq,
                template_atoms: &fragment.atoms,
                atom_singletons,
            });
        }
        self.estimator
            .estimate_cover(&CoverCostInputs { head: &self.query.head, fragments: inputs })
    }

    /// Cost of a single fragment's reformulated UCQ alone (the GCov
    /// redundancy-pruning order). Uses the complement-context head —
    /// adequate for ordering. Memoized: candidate covers repeat the same
    /// fragments constantly, so each is costed once.
    pub fn fragment_cost(&self, fragment: AtomMask) -> f64 {
        if let Some(&hit) = self.cost_cache.read().expect("cost cache lock").get(&fragment) {
            jucq_obs::metrics::counter_add("cover_search.fragment_cost_cache.hits", 1);
            return hit;
        }
        jucq_obs::metrics::counter_add("cover_search.fragment_cost_cache.misses", 1);
        let cost = match &self.masks {
            Ok(masks) => match self.fragment(masks, fragment, masks.full() & !fragment) {
                Some(f) => {
                    let jucq = StoreJucq::new(vec![f.ucq.as_ref().clone()], f.ucq.head.clone());
                    self.estimator.estimate(&jucq)
                }
                None => f64::INFINITY,
            },
            Err(_) => f64::INFINITY,
        };
        self.cost_cache.write().expect("cost cache lock").insert(fragment, cost);
        cost
    }

    /// Score a batch of covers (atom masks in [`Cover`] fragment order),
    /// in input order, using up to the configured parallelism worker
    /// threads. Scheduling only changes *when* each cover is costed,
    /// never its cost (estimators are pure functions of the
    /// statistics), so callers folding the returned vector in order
    /// make exactly the sequential decisions.
    pub fn cover_costs(&self, covers: &[Vec<AtomMask>]) -> Vec<f64> {
        // On single-core hardware scoring workers are pure overhead —
        // take the sequential path outright, mirroring the executor's
        // `eval_union` gate.
        let workers = if hardware_threads() <= 1 { 1 } else { self.parallelism.min(covers.len()) };
        if workers <= 1 {
            return covers.iter().map(|c| self.mask_cover_cost(c)).collect();
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
                            out.push((i, self.mask_cover_cost(&covers[i])));
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
        let masks = search.masks().unwrap();
        let a = search.fragment(masks, 0b01, 0b10).unwrap();
        let b = search.fragment(masks, 0b01, 0b10).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup is a cache hit");
        assert_eq!(*a.ucq, reformulate_with_limit(&q.cover_query(&[0]), &env, usize::MAX).unwrap());
        // Its head is all of the atom's variables: the singleton's union.
        assert!(Arc::ptr_eq(&a.ucq, &search.singleton(0).unwrap().ucq));
    }

    #[test]
    fn product_fragments_reuse_the_singletons() {
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = query(&f);
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model);
        let masks = search.masks().unwrap();
        let whole = search.fragment(masks, 0b11, 0).unwrap();
        assert!(search.singletons.iter().all(|s| s.get().is_some()), "product path filled them");
        assert_eq!(*whole.ucq, reformulate_with_limit(&q, &env, usize::MAX).unwrap());
    }

    #[test]
    fn fragment_cost_is_memoized() {
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = query(&f);
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model);
        let a = search.fragment_cost(0b01);
        let b = search.fragment_cost(0b01);
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
        let covers = vec![
            Cover::single_fragment(&q).unwrap().masks(),
            Cover::singletons(&q).unwrap().masks(),
        ];
        let seq_search = CoverSearch::new(&q, env, &model);
        let seq: Vec<f64> = covers.iter().map(|c| seq_search.mask_cover_cost(c)).collect();
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
