//! The engine's *internal* cost estimator.
//!
//! Figure 9 of the paper compares two ways of guiding ECov/GCov: the
//! analytic cost model of §4.1 (implemented in `jucq-optimizer`) and
//! "the RDBMS's internal cost estimation function", obtained there by
//! sending `EXPLAIN` statements to Postgres. This module plays the
//! latter role for our engine: it estimates the cost of a [`StoreJucq`]
//! from the engine's *actual* physical plan — greedy INLJ pipelines per
//! CQ, per-profile fragment join algorithm, materialization policy —
//! rather than from the paper's abstract scan/join/materialize formulas.
//! The two models legitimately disagree in places, which is precisely
//! what the figure studies.

use jucq_model::FxHashMap;

use crate::ir::{StoreCq, StoreJucq, StorePattern, StoreUcq};
use crate::profile::{EngineProfile, JoinAlgo};
use crate::stats::Statistics;
use crate::table::TripleTable;
use crate::Store;

/// Per-tuple work factors of the internal model (arbitrary engine cost
/// units, like Postgres' `cost=` numbers — only relative order matters).
const CPU_TUPLE: f64 = 1.0;
const CPU_PROBE: f64 = 1.2;
const CPU_HASH_BUILD: f64 = 1.5;
const CPU_SORT_FACTOR: f64 = 2.0;
const CPU_MATERIALIZE: f64 = 0.8;
const CPU_DEDUP: f64 = 1.1;
const STARTUP: f64 = 10.0;

/// Join-input discount when sideways-information-passing filters are
/// on: Bloom probes drop part of each non-base fragment before it
/// reaches the fragment join, shrinking build and probe inputs.
const SIP_JOIN_DISCOUNT: f64 = 0.85;

/// Cost of one fragment-join step over inputs of `acc` and `c` rows.
/// For [`JoinAlgo::SortMerge`], `elide` drops the sort term of a side
/// that already arrives ordered on the join key (the order-aware
/// planner's sort elision); the residual linear term is the merge
/// itself. The other algorithms ignore `elide`.
pub(crate) fn join_step_cost(algo: JoinAlgo, acc: f64, c: f64, elide: (bool, bool)) -> f64 {
    match algo {
        JoinAlgo::Hash => CPU_HASH_BUILD * acc.min(c) + CPU_PROBE * acc.max(c),
        JoinAlgo::SortMerge => {
            let sort = |n: f64, elided: bool| {
                if elided {
                    0.0
                } else {
                    CPU_SORT_FACTOR * n * n.max(2.0).log2()
                }
            };
            sort(acc, elide.0) + sort(c, elide.1) + CPU_TUPLE * (acc + c)
        }
        JoinAlgo::BlockNestedLoop => CPU_TUPLE * acc * c,
    }
}

/// Estimate the internal cost of evaluating one CQ with the greedy
/// index-nested-loop pipeline: sum of intermediate result sizes.
fn cq_cost(stats: &Statistics, table: &TripleTable, cq: &StoreCq) -> f64 {
    if cq.patterns.is_empty() {
        return CPU_TUPLE;
    }
    // Approximate the pipeline by accumulating the CQ estimate over
    // prefixes of the greedy order (cheapest extent first).
    let mut order: Vec<usize> = (0..cq.patterns.len()).collect();
    order.sort_by_key(|&i| table.count(&cq.patterns[i].bound()));
    let mut cost = 0.0;
    for k in 1..=order.len() {
        let prefix: Vec<_> = order[..k].iter().map(|&i| cq.patterns[i]).collect();
        let sub = StoreCq::with_var_head(prefix, vec![]);
        let inter = stats.est_cq(table, &sub);
        cost += CPU_PROBE * inter + CPU_TUPLE;
    }
    cost
}

/// Estimate the internal cost of one fragment UCQ (members + dedup).
fn ucq_cost(stats: &Statistics, table: &TripleTable, ucq: &StoreUcq) -> f64 {
    let members: f64 = ucq.cqs.iter().map(|cq| cq_cost(stats, table, cq)).sum();
    let card = stats.est_ucq(table, ucq);
    members + CPU_DEDUP * card + STARTUP * ucq.cqs.len() as f64
}

/// Scan work the planner's common-scan factoring saves: each distinct
/// pattern scanned by `k > 1` members is computed once instead of `k`
/// times. Mirrors the planner's scan-position prediction (the
/// first-minimum-extent leaf per member under INLJ, every atom under
/// the hash strategy) but stays deliberately cheap — `estimate` runs
/// inside cover-search scoring loops, so no full plan lowering here.
fn sharing_savings(table: &TripleTable, profile: &EngineProfile, q: &StoreJucq) -> f64 {
    if !profile.share_scans {
        return 0.0;
    }
    let mut uses: FxHashMap<StorePattern, (usize, f64)> = FxHashMap::default();
    let mut count_use = |p: StorePattern| {
        let e = uses.entry(p).or_insert_with(|| (0, table.count(&p.bound()) as f64));
        e.0 += 1;
    };
    for frag in &q.fragments {
        for cq in &frag.cqs {
            if cq.patterns.is_empty() {
                continue;
            }
            if profile.index_nested_loop_cq {
                let leaf = cq
                    .patterns
                    .iter()
                    .min_by_key(|p| table.count(&p.bound()))
                    .expect("non-empty body");
                count_use(*leaf);
            } else {
                for p in &cq.patterns {
                    count_use(*p);
                }
            }
        }
    }
    uses.values().filter(|(k, _)| *k > 1).map(|(k, card)| (*k - 1) as f64 * CPU_PROBE * card).sum()
}

/// Estimate the internal cost of a whole JUCQ under the store's profile.
pub fn estimate(store: &Store, q: &StoreJucq) -> f64 {
    let stats = store.stats();
    let table = store.table();
    let profile = store.profile();

    let frag_costs: f64 = q.fragments.iter().map(|f| ucq_cost(stats, table, f)).sum();
    let frag_cards: Vec<f64> = q.fragments.iter().map(|f| stats.est_ucq(table, f)).collect();

    // Materialization: all fragments if the profile materializes every
    // union, otherwise all but the largest.
    let mat: f64 = if q.fragments.len() <= 1 && !profile.materialize_all_unions {
        0.0
    } else {
        let largest = frag_cards.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(0.0);
        let total: f64 = frag_cards.iter().sum();
        let charged = if profile.materialize_all_unions { total } else { total - largest };
        CPU_MATERIALIZE * charged.max(0.0)
    };

    // Fragment joins, following the profile's algorithm.
    let mut join_cost = 0.0;
    if q.fragments.len() > 1 {
        let mut acc = frag_cards[0];
        for (i, &c) in frag_cards.iter().enumerate().skip(1) {
            let base = join_step_cost(profile.fragment_join, acc, c, (false, false));
            join_cost += if profile.order_aware
                && !matches!(profile.fragment_join, JoinAlgo::BlockNestedLoop)
            {
                // Mirror the order-aware planner: a single-member
                // fragment's scan can feed the join pre-sorted on the
                // key, dropping that side's sort term, and the planner
                // takes the cheaper of the profile's algorithm and the
                // (possibly sort-elided) merge. The left side is only
                // assumed ordered on the first step, where it is still
                // a fragment rather than a join output.
                let elide =
                    (i == 1 && q.fragments[0].cqs.len() == 1, q.fragments[i].cqs.len() == 1);
                base.min(join_step_cost(JoinAlgo::SortMerge, acc, c, elide))
            } else {
                base
            };
            // Rough running estimate of the accumulated join size.
            let sub = StoreJucq::new(q.fragments[..=i].to_vec(), q.head.clone());
            acc = stats.est_jucq(table, &sub);
        }
    }

    let final_card = stats.est_jucq(table, q);
    let savings = sharing_savings(table, profile, q);
    let join_scale =
        if profile.sip_filters && q.fragments.len() > 1 { SIP_JOIN_DISCOUNT } else { 1.0 };
    (frag_costs - savings).max(0.0)
        + mat
        + CPU_DEDUP * final_card
        + join_scale * join_cost
        + STARTUP
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{PatternTerm, StorePattern, VarId};
    use crate::profile::EngineProfile;
    use jucq_model::term::TermKind;
    use jucq_model::{TermId, TripleId};

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    fn t(s: u32, p: u32, o: u32) -> TripleId {
        TripleId::new(id(s), id(p), id(o))
    }

    fn c(i: u32) -> PatternTerm {
        PatternTerm::Const(id(i))
    }

    fn v(i: VarId) -> PatternTerm {
        PatternTerm::Var(i)
    }

    fn store(profile: EngineProfile) -> Store {
        let triples: Vec<TripleId> =
            (0..100).map(|i| t(i, 10, i % 7)).chain((0..10).map(|i| t(i, 11, 99))).collect();
        Store::from_triples(&triples, profile)
    }

    fn one_fragment(patterns: Vec<StorePattern>) -> StoreUcq {
        let head: Vec<VarId> = {
            let cq = StoreCq::with_var_head(patterns.clone(), vec![]);
            cq.body_variables()
        };
        StoreUcq::new(vec![StoreCq::with_var_head(patterns, head.clone())], head)
    }

    #[test]
    fn cost_is_positive_and_finite() {
        let s = store(EngineProfile::pg_like());
        let q = StoreJucq::from_ucq(one_fragment(vec![StorePattern::new(v(0), c(10), v(1))]));
        let cost = estimate(&s, &q);
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn more_union_terms_cost_more() {
        let s = store(EngineProfile::pg_like());
        let member = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]);
        let small = StoreJucq::from_ucq(StoreUcq::new(vec![member.clone()], vec![0, 1]));
        let big = StoreJucq::from_ucq(StoreUcq::new(
            vec![member.clone(), member.clone(), member],
            vec![0, 1],
        ));
        assert!(estimate(&s, &big) > estimate(&s, &small));
    }

    #[test]
    fn nested_loop_profile_penalizes_fragment_joins() {
        let fa = one_fragment(vec![StorePattern::new(v(0), c(10), v(1))]);
        let fb = one_fragment(vec![StorePattern::new(v(0), c(11), v(2))]);
        let q = StoreJucq::new(vec![fa, fb], vec![0, 1, 2]);
        let hash_cost = estimate(&store(EngineProfile::pg_like()), &q);
        let bnl_cost = estimate(&store(EngineProfile::mysql_like()), &q);
        assert!(bnl_cost > hash_cost, "BNL {bnl_cost} should exceed hash {hash_cost}");
    }

    #[test]
    fn scan_sharing_lowers_the_estimate() {
        // Two members sharing the same cheap leaf (?0 11 99): the
        // factored plan scans it once, and the internal model credits
        // the saving when the profile shares scans.
        let member_a = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(11), c(99)), StorePattern::new(v(0), c(10), v(1))],
            vec![0, 1],
        );
        let member_b = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(11), c(99)), StorePattern::new(v(1), c(10), v(0))],
            vec![0, 1],
        );
        let q = StoreJucq::from_ucq(StoreUcq::new(vec![member_a, member_b], vec![0, 1]));
        let shared = estimate(&store(EngineProfile::pg_like()), &q);
        let unshared = estimate(&store(EngineProfile::pg_like().with_scan_sharing(false)), &q);
        assert!(shared < unshared, "shared {shared} should undercut unshared {unshared}");
    }

    #[test]
    fn sip_discounts_multi_fragment_joins_only() {
        let fa = one_fragment(vec![StorePattern::new(v(0), c(10), v(1))]);
        let fb = one_fragment(vec![StorePattern::new(v(0), c(11), v(2))]);
        let multi = StoreJucq::new(vec![fa.clone(), fb], vec![0, 1, 2]);
        let on = estimate(&store(EngineProfile::pg_like()), &multi);
        let off = estimate(&store(EngineProfile::pg_like().with_sip_filters(false)), &multi);
        assert!(on < off, "SIP {on} should undercut no-SIP {off}");
        // A single fragment has no join for SIP to discount.
        let single = StoreJucq::from_ucq(fa);
        let on = estimate(&store(EngineProfile::pg_like()), &single);
        let off = estimate(&store(EngineProfile::pg_like().with_sip_filters(false)), &single);
        assert_eq!(on, off);
    }

    #[test]
    fn empty_extent_query_is_cheap() {
        let s = store(EngineProfile::pg_like());
        let q = StoreJucq::from_ucq(one_fragment(vec![StorePattern::new(v(0), c(99), v(1))]));
        let cost = estimate(&s, &q);
        assert!(
            cost < estimate(
                &s,
                &StoreJucq::from_ucq(one_fragment(vec![StorePattern::new(v(0), c(10), v(1)),]))
            )
        );
    }
}
