//! GCov — the greedy query cover algorithm (§4.3, Algorithm 1).
//!
//! GCov starts from the all-singletons cover `C₀ = {{t₁},…,{tₙ}}` and
//! explores *moves*: adding to one fragment an extra triple connected to
//! it by a join variable. Moves whose resulting cover does not degrade
//! the best cost are kept in a list sorted by increasing estimated
//! cost; the search repeatedly applies the most promising move,
//! breadth-first and greedily, updating the best cover whenever a move
//! improves on it. After every cover update, fragments made redundant by
//! the move are pruned in decreasing-cost order (the paper's sorted
//! redundancy check). The algorithm is anytime; an optional move cap and
//! time budget bound the search.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use jucq_model::FxHashSet;
use jucq_reformulation::cover::AtomMask;
use jucq_reformulation::{Cover, CoverError};

use crate::search::{CoverSearch, CoverSearchResult};

/// A candidate cover: its fragments' atom masks in [`Cover`] fragment
/// order.
type Masks = Vec<AtomMask>;

/// Cost-ordered move list keyed by (cost bits, tiebreak counter).
struct MoveList {
    map: BTreeMap<(u64, u64), Masks>,
    counter: u64,
}

impl MoveList {
    fn new() -> Self {
        MoveList { map: BTreeMap::new(), counter: 0 }
    }

    fn push(&mut self, cost: f64, cover: Masks) {
        // f64 bits of non-negative costs (incl. +inf) order
        // consistently. NaN is mapped to +inf explicitly: `max(0.0)`
        // would silently turn it into the bits of 0.0, making a poisoned
        // estimate the *cheapest* move in the list.
        debug_assert!(!cost.is_nan(), "NaN cover cost pushed to move list");
        let cost = if cost.is_nan() { f64::INFINITY } else { cost.max(0.0) };
        let key = (cost.to_bits(), self.counter);
        self.counter += 1;
        self.map.insert(key, cover);
    }

    fn pop_min(&mut self) -> Option<(f64, Masks)> {
        let ((bits, _), cover) = self.map.pop_first()?;
        Some((f64::from_bits(bits), cover))
    }

    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Run GCov (Algorithm 1). `max_moves` bounds the number of applied
/// moves; `budget` bounds wall-clock time (the paper notes "one could
/// easily change the stop condition").
///
/// Queries with no valid starting cover — a disconnected body, whose
/// singleton fragments would be mutually isolated — return the
/// [`CoverError`] instead of panicking, as do queries past the bitmask
/// search's 64 atoms ([`CoverError::TooLarge`]); the caller decides
/// whether to fall back to saturation or surface the error.
pub fn gcov(
    search: &CoverSearch<'_>,
    budget: Duration,
    max_moves: usize,
) -> Result<CoverSearchResult, CoverError> {
    jucq_obs::span!("cover_search");
    let started = Instant::now();
    let q = search.query();
    let masks = search.masks()?;

    // A disconnected body has no valid starting cover: report why.
    Cover::singletons(q)?;
    let c0: Masks = (0..q.len()).map(|i| 1 << i).collect();
    let mut best_cost = search.mask_cover_cost(&c0);
    let mut best = c0.clone();

    let mut analysed: FxHashSet<Masks> = FxHashSet::default();
    analysed.insert(c0.clone());
    let mut moves = MoveList::new();
    let mut truncated = false;

    // Develop the moves available from a cover; push those not worse
    // than the current best. Candidates are gathered first (generation
    // and the analysed-dedup stay sequential, so the candidate order is
    // exactly the sequential one), then batch-scored on the search's
    // worker pool; pushing in candidate order preserves the move list's
    // insertion-order tiebreak.
    let develop = |cover: &Masks,
                   best_cost: f64,
                   analysed: &mut FxHashSet<Masks>,
                   moves: &mut MoveList,
                   strict: bool| {
        let mut candidates: Vec<Masks> = Vec::new();
        for (fi, &frag) in cover.iter().enumerate() {
            for t in 0..q.len() {
                // The added triple must join the fragment.
                if frag & 1 << t != 0 || !masks.connected(frag | 1 << t) {
                    continue;
                }
                let Some(next) = masks.add_atom(cover, fi, t) else {
                    continue;
                };
                let next = masks.prune_redundant_by(next, |f| search.fragment_cost(f));
                if !analysed.insert(next.clone()) {
                    continue;
                }
                candidates.push(next);
            }
        }
        let costs = search.cover_costs(&candidates);
        for (next, cost) in candidates.into_iter().zip(costs) {
            let keep = if strict { cost < best_cost } else { cost <= best_cost };
            if keep {
                moves.push(cost, next);
            }
        }
    };

    // Initial moves from C₀ (Algorithm 1, lines 4–7: kept when not
    // worse than the best cost so far).
    develop(&c0, best_cost, &mut analysed, &mut moves, false);

    // Greedy best-first exploration (lines 8–16).
    let mut applied = 0usize;
    while !moves.is_empty() {
        if applied >= max_moves || started.elapsed() > budget {
            truncated = true;
            break;
        }
        let (cost, cover) = moves.pop_min().expect("non-empty move list");
        applied += 1;
        if cost <= best_cost {
            best_cost = cost;
            best = cover.clone();
        }
        // New moves must strictly improve on the best (line 15).
        develop(&cover, best_cost, &mut analysed, &mut moves, true);
    }

    Ok(CoverSearchResult {
        cover: Cover::from_masks(q, &best).expect("GCov keeps covers valid"),
        estimated_cost: best_cost,
        explored: search.explored(),
        elapsed: started.elapsed(),
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostConstants, PaperCostModel};
    use crate::ecov::ecov;
    use jucq_model::{Graph, Term, TermId, Triple};
    use jucq_reformulation::reformulate::ReformulationEnv;
    use jucq_reformulation::BgpQuery;
    use jucq_store::{EngineProfile, PatternTerm, Store, StorePattern};

    struct Fixture {
        graph: Graph,
        rdf_type: TermId,
        store: Store,
    }

    /// A dataset where a selective atom (p_sel) pairs with an expensive
    /// reformulation-heavy atom (rdf:type with a deep hierarchy), so
    /// grouping matters.
    fn fixture() -> Fixture {
        let mut graph = Graph::new();
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        let mut triples = Vec::new();
        // Class hierarchy: C0 ⊒ C1 ⊒ ... ⊒ C5; several domain props.
        for i in 0..5 {
            triples.push(t(
                &format!("C{}", i + 1),
                jucq_model::vocab::RDFS_SUBCLASS_OF,
                Term::uri(format!("C{i}")),
            ));
            triples.push(t(
                &format!("d{i}"),
                jucq_model::vocab::RDFS_DOMAIN,
                Term::uri(format!("C{i}")),
            ));
        }
        for i in 0..200 {
            triples.push(t(&format!("e{i}"), "d0", Term::uri("x")));
            triples.push(t(
                &format!("e{i}"),
                jucq_model::vocab::RDF_TYPE,
                Term::uri(format!("C{}", i % 6)),
            ));
        }
        // p_sel: very selective.
        triples.push(t("e0", "psel", Term::uri("target")));
        graph.extend(&triples);
        let rdf_type = graph.rdf_type();
        let store = Store::from_triples(graph.data(), EngineProfile::pg_like());
        Fixture { graph, rdf_type, store }
    }

    fn query(f: &Fixture) -> BgpQuery {
        let ty = f.rdf_type;
        let c0 = f.graph.dict().lookup(&Term::uri("C0")).unwrap();
        let psel = f.graph.dict().lookup(&Term::uri("psel")).unwrap();
        let d0 = f.graph.dict().lookup(&Term::uri("d0")).unwrap();
        BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(ty),
                    PatternTerm::Const(c0),
                ),
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(psel),
                    PatternTerm::Var(1),
                ),
                StorePattern::new(PatternTerm::Var(0), PatternTerm::Const(d0), PatternTerm::Var(2)),
            ],
        )
    }

    #[test]
    fn gcov_completes_and_returns_valid_cover() {
        let f = fixture();
        let q = query(&f);
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model);
        let r = gcov(&search, Duration::from_secs(10), 10_000).unwrap();
        assert!(!r.truncated);
        assert!(r.estimated_cost.is_finite());
        // All atoms covered.
        let covered: Vec<usize> = {
            let mut v: Vec<usize> = r.cover.fragments().into_iter().flatten().collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(covered, vec![0, 1, 2]);
    }

    #[test]
    fn gcov_not_worse_than_singletons() {
        let f = fixture();
        let q = query(&f);
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model);
        let r = gcov(&search, Duration::from_secs(10), 10_000).unwrap();
        let scq_cost = search.cover_cost(&Cover::singletons(&q).unwrap());
        assert!(r.estimated_cost <= scq_cost + 1e-12);
    }

    #[test]
    fn gcov_explores_fewer_covers_than_ecov() {
        let f = fixture();
        let q = query(&f);
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());

        let s1 = CoverSearch::new(&q, env, &model);
        let g = gcov(&s1, Duration::from_secs(10), 10_000).unwrap();
        let s2 = CoverSearch::new(&q, env, &model);
        let e = ecov(&s2, Duration::from_secs(10)).unwrap();
        assert!(g.explored <= e.explored, "gcov {} vs ecov {}", g.explored, e.explored);
        // The greedy result should be close to the exhaustive optimum
        // (paper: "GCov JUCQ performs as well as the ECov one").
        assert!(g.estimated_cost <= e.estimated_cost * 4.0 + 1e-9);
    }

    #[test]
    fn move_list_orders_by_cost() {
        let f = fixture();
        let c = Cover::singletons(&query(&f)).unwrap().masks();
        let mut ml = MoveList::new();
        ml.push(5.0, c.clone());
        ml.push(1.0, c.clone());
        ml.push(3.0, c);
        let (a, _) = ml.pop_min().unwrap();
        let (b, _) = ml.pop_min().unwrap();
        let (z, _) = ml.pop_min().unwrap();
        assert_eq!((a, b, z), (1.0, 3.0, 5.0));
        assert!(ml.pop_min().is_none());
    }

    #[test]
    fn single_atom_query_trivially_best() {
        let f = fixture();
        let psel = f.graph.dict().lookup(&Term::uri("psel")).unwrap();
        let q = BgpQuery::new(
            vec![0],
            vec![StorePattern::new(
                PatternTerm::Var(0),
                PatternTerm::Const(psel),
                PatternTerm::Var(1),
            )],
        );
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model);
        let r = gcov(&search, Duration::from_secs(5), 100).unwrap();
        assert_eq!(r.cover.len(), 1);
        assert_eq!(r.explored, 1, "no moves available");
    }
}
