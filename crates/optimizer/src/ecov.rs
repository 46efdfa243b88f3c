//! ECov — the exhaustive query cover algorithm (§4.2).
//!
//! "As a yardstick for the quality of the query covers we find, we
//! developed an exhaustive query cover finding algorithm ... that
//! traverses the search space of reformulated queries and outputs a
//! query cover leading to a cover-based reformulation with lowest
//! cost." ECov enumerates every valid cover (Definition 3.3 plus
//! fragment connectivity), estimates each one's cost, and returns the
//! cheapest. Like the paper's ECov — which "times out while exploring
//! (exhaustively) the huge query covers search space" of the 10-atom
//! DBLP Q10 — the enumeration is bounded by a wall-clock budget and a
//! state cap, and is *anytime*: the best cover seen so far is returned
//! with `truncated = true`.

use std::time::{Duration, Instant};

use jucq_model::FxHashSet;
use jucq_reformulation::cover::{atoms_of, lex_cmp, AtomMask, CoverMasks};
use jucq_reformulation::{Cover, CoverError};

use crate::search::{CoverSearch, CoverSearchResult};

/// Hard cap on enumeration states, protecting against combinatorial
/// blowup even under a generous time budget.
const STATE_CAP: usize = 2_000_000;

/// All connected subsets of the query's atoms, ascending, and whether
/// the enumeration stopped early, at `budget` past `started` or at
/// [`STATE_CAP`] subsets (a many-atom star has exponentially many).
fn connected_subsets(
    masks: &CoverMasks,
    started: Instant,
    budget: Duration,
) -> (Vec<AtomMask>, bool) {
    let mut seen: FxHashSet<AtomMask> = FxHashSet::default();
    let mut frontier: Vec<AtomMask> = (0..masks.len()).map(|i| 1 << i).collect();
    seen.extend(frontier.iter().copied());
    let mut truncated = false;
    while let Some(mask) = frontier.pop() {
        if seen.len() > STATE_CAP || started.elapsed() > budget {
            truncated = true;
            break;
        }
        let vars = masks.vars(mask);
        for j in atoms_of(masks.full() & !mask) {
            let next = mask | 1 << j;
            if masks.vars(1 << j) & vars != 0 && seen.insert(next) {
                frontier.push(next);
            }
        }
    }
    let mut out: Vec<AtomMask> = seen.into_iter().collect();
    out.sort_unstable();
    (out, truncated)
}

/// Run ECov: exhaustively enumerate covers and return the cheapest.
///
/// A query with no valid cover at all — a disconnected body — returns
/// the [`CoverError`] from the single-fragment fallback instead of
/// panicking, and a query past the bitmask search's 64 atoms returns
/// [`CoverError::TooLarge`].
pub fn ecov(search: &CoverSearch<'_>, budget: Duration) -> Result<CoverSearchResult, CoverError> {
    jucq_obs::span!("cover_search");
    let started = Instant::now();
    let q = search.query();
    let masks = search.masks()?;
    let full = masks.full();
    let (subsets, mut truncated) = connected_subsets(masks, started, budget);

    let mut best: Option<(Vec<AtomMask>, f64)> = None;
    let mut completed: FxHashSet<Vec<AtomMask>> = FxHashSet::default();
    let mut states = 0usize;

    // Complete covers are batched (in discovery order) and scored by
    // the search's worker pool; folding the in-order costs with the
    // same strict `<` keeps the selected cover identical to scoring
    // each cover inline at discovery.
    let batch_cap = (search.parallelism() * 8).max(32);
    let mut pending: Vec<Vec<AtomMask>> = Vec::new();
    let flush = |pending: &mut Vec<Vec<AtomMask>>, best: &mut Option<(Vec<AtomMask>, f64)>| {
        if pending.is_empty() {
            return;
        }
        let costs = search.cover_costs(pending);
        for (cover, cost) in pending.drain(..).zip(costs) {
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                *best = Some((cover, cost));
            }
        }
    };

    // DFS state: chosen fragments (antichain) + covered mask.
    let mut stack: Vec<(Vec<AtomMask>, AtomMask)> = vec![(Vec::new(), 0)];
    while let Some((chosen, covered)) = stack.pop() {
        states += 1;
        if states > STATE_CAP || started.elapsed() > budget {
            truncated = true;
            break;
        }
        if covered == full {
            // In `Cover` fragment order: the canonical dedup key, and
            // the order costs are summed in.
            let mut cover = chosen;
            cover.sort_by(|&a, &b| lex_cmp(a, b));
            if !masks.is_cover(&cover) || !completed.insert(cover.clone()) {
                continue;
            }
            pending.push(cover);
            if pending.len() >= batch_cap {
                flush(&mut pending, &mut best);
            }
            continue;
        }
        // Cover the lowest uncovered atom.
        let target = (!covered & full).trailing_zeros();
        for &frag in &subsets {
            if frag & (1 << target) == 0 {
                continue;
            }
            // Maintain the antichain property (no fragment included in
            // another).
            if chosen.iter().any(|&c| (c & frag) == c || (c & frag) == frag) {
                continue;
            }
            let mut next = chosen.clone();
            next.push(frag);
            stack.push((next, covered | frag));
        }
    }

    // Score whatever the DFS discovered before completing (or being
    // truncated): the search stays anytime.
    flush(&mut pending, &mut best);

    let (cover, estimated_cost) = match best {
        Some((masks, cost)) => (Cover::from_masks(q, &masks).expect("valid cover"), cost),
        None => {
            // Degenerate fallback: the single-fragment cover exists for
            // every connected query; a disconnected one has no valid
            // cover, and the error propagates.
            let cover = Cover::single_fragment(q)?;
            let cost = search.cover_cost(&cover);
            (cover, cost)
        }
    };
    Ok(CoverSearchResult {
        cover,
        estimated_cost,
        explored: search.explored(),
        elapsed: started.elapsed(),
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostConstants, PaperCostModel};
    use jucq_model::{Graph, Term, TermId, Triple};
    use jucq_reformulation::reformulate::ReformulationEnv;
    use jucq_reformulation::BgpQuery;
    use jucq_store::{EngineProfile, PatternTerm, Store, StorePattern};

    struct Fixture {
        graph: Graph,
        rdf_type: TermId,
        store: Store,
    }

    fn fixture() -> Fixture {
        let mut graph = Graph::new();
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        let mut triples = vec![
            t("P", jucq_model::vocab::RDFS_SUBCLASS_OF, Term::uri("Q")),
            t("p1", jucq_model::vocab::RDFS_DOMAIN, Term::uri("P")),
        ];
        for i in 0..20 {
            triples.push(t(&format!("s{i}"), "p1", Term::uri(format!("o{i}"))));
            triples.push(t(&format!("s{i}"), "p2", Term::uri("hub")));
        }
        graph.extend(&triples);
        let rdf_type = graph.rdf_type();
        let store = Store::from_triples(graph.data(), EngineProfile::pg_like());
        Fixture { graph, rdf_type, store }
    }

    fn star_query(f: &Fixture, arms: usize) -> BgpQuery {
        let p1 = f.graph.dict().lookup(&Term::uri("p1")).unwrap();
        let p2 = f.graph.dict().lookup(&Term::uri("p2")).unwrap();
        let atoms = (0..arms)
            .map(|i| {
                StorePattern::new(
                    PatternTerm::Var(0),
                    PatternTerm::Const(if i % 2 == 0 { p1 } else { p2 }),
                    PatternTerm::Var((i + 1) as u16),
                )
            })
            .collect();
        BgpQuery::new(vec![0], atoms)
    }

    fn run(f: &Fixture, q: &BgpQuery, budget: Duration) -> CoverSearchResult {
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(q, env, &model);
        ecov(&search, budget).unwrap()
    }

    #[test]
    fn single_atom_query_has_one_cover() {
        let f = fixture();
        let q = star_query(&f, 1);
        let r = run(&f, &q, Duration::from_secs(5));
        assert_eq!(r.cover.len(), 1);
        assert!(!r.truncated);
        assert_eq!(r.explored, 1);
    }

    #[test]
    fn two_atom_query_explores_both_extremes() {
        let f = fixture();
        let q = star_query(&f, 2);
        let r = run(&f, &q, Duration::from_secs(5));
        // Covers of 2 connected atoms: {{0,1}}, {{0},{1}} and the
        // overlapping {{0,1}} variants; at least the two extremes.
        assert!(r.explored >= 2, "explored {}", r.explored);
        assert!(r.estimated_cost.is_finite());
        assert!(!r.truncated);
    }

    #[test]
    fn explored_counts_grow_with_atoms() {
        let f = fixture();
        let small = run(&f, &star_query(&f, 2), Duration::from_secs(5)).explored;
        let large = run(&f, &star_query(&f, 4), Duration::from_secs(5)).explored;
        assert!(large > small, "4-atom space ({large}) larger than 2-atom ({small})");
    }

    #[test]
    fn best_cover_is_cheapest_explored() {
        let f = fixture();
        let q = star_query(&f, 3);
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model);
        let r = ecov(&search, Duration::from_secs(5)).unwrap();
        // Re-costing the returned cover must reproduce the reported cost.
        let recost = search.cover_cost(&r.cover);
        assert!((recost - r.estimated_cost).abs() < 1e-9);
        // And it must beat (or tie) the two fixed extremes.
        let ucq_cost = search.cover_cost(&Cover::single_fragment(&q).unwrap());
        let scq_cost = search.cover_cost(&Cover::singletons(&q).unwrap());
        assert!(r.estimated_cost <= ucq_cost + 1e-9);
        assert!(r.estimated_cost <= scq_cost + 1e-9);
    }

    #[test]
    fn zero_budget_truncates_but_returns() {
        let f = fixture();
        let q = star_query(&f, 4);
        let r = run(&f, &q, Duration::from_millis(0));
        assert!(r.truncated);
        assert!(r.estimated_cost.is_finite());
    }

    #[test]
    fn connected_subsets_of_a_path() {
        // Path query x-p-y-p-z: subsets {0},{1},{0,1} ⇒ 3.
        let f = fixture();
        let p1 = f.graph.dict().lookup(&Term::uri("p1")).unwrap();
        let q = BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(PatternTerm::Var(0), PatternTerm::Const(p1), PatternTerm::Var(1)),
                StorePattern::new(PatternTerm::Var(1), PatternTerm::Const(p1), PatternTerm::Var(2)),
            ],
        );
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let model = PaperCostModel::new(f.store.table(), f.store.stats(), CostConstants::default());
        let search = CoverSearch::new(&q, env, &model);
        assert_eq!(
            connected_subsets(search.masks().unwrap(), Instant::now(), Duration::from_secs(60)),
            (vec![0b01, 0b10, 0b11], false)
        );
    }
}
