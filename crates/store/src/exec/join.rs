//! Joins of materialized relations (the ⋈ between JUCQ fragments).
//!
//! Three algorithms, selected by the engine profile: hash join (build on
//! the smaller side), sort-merge join, and block-nested-loop join (the
//! deliberately weak algorithm of the MySQL-like profile). All three
//! compute the natural join on the variables shared by the two schemas;
//! with no shared variable they degrade to a cartesian product.

use crate::error::EngineError;
use crate::exec::{batch, ExecContext};
use crate::ir::VarId;
use crate::profile::JoinAlgo;
use crate::relation::Relation;

/// Per-join options threaded from the plan node into a fragment join:
/// the order-aware planner's merge sort-elision flags and the output
/// cardinality estimate used to pre-size the result.
#[derive(Debug, Default, Clone, Copy)]
pub struct JoinOpts {
    /// Which merge-join inputs (left, right) the planner proved already
    /// sorted on the join key (ignored by the other algorithms). The
    /// kernel verifies the claim with one linear pass and falls back to
    /// sorting if it does not hold, so a wrong flag costs performance,
    /// never correctness.
    pub elide: (bool, bool),
    /// Estimated output rows.
    pub est: Option<f64>,
}

/// Input-size skew ratio at which the merge advances the larger side
/// with galloping (exponential-search) seeks instead of one row at a
/// time.
pub(crate) const GALLOP_SKEW: usize = 8;

/// Rows of output capacity to reserve for a cardinality estimate,
/// clamped so a wild over-estimate cannot allocate unboundedly ahead of
/// the first memory check.
pub(crate) fn reserve_rows(est: Option<f64>) -> usize {
    const MAX_RESERVE: usize = 1 << 20;
    est.map(|e| (e.max(0.0) as usize).min(MAX_RESERVE)).unwrap_or(0)
}

/// An output relation pre-sized from the plan estimate, recording the
/// reservation so reserved-vs-actual can be compared downstream.
pub(crate) fn sized_output(
    vars: Vec<VarId>,
    est: Option<f64>,
    ctx: &mut ExecContext<'_>,
) -> Relation {
    let reserve = reserve_rows(est);
    ctx.counters.rows_reserved += reserve as u64;
    Relation::with_capacity(vars, reserve)
}

/// First index in `[lo, hi)` satisfying `pred`, assuming `pred` is
/// monotone (false…false, then true…true) and `pred(lo)` is false:
/// probe at exponentially growing offsets from `lo`, then binary-search
/// the crossed window. Returns `hi` when no index satisfies `pred`.
pub(crate) fn gallop_to(lo: usize, hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut prev = lo;
    let mut step = 1usize;
    let mut top = hi;
    loop {
        let cand = match lo.checked_add(step) {
            Some(c) if c < hi => c,
            _ => break,
        };
        if pred(cand) {
            top = cand;
            break;
        }
        prev = cand;
        step <<= 1;
    }
    // First true index in (prev, top], or `hi` when all remain false.
    let (mut a, mut b) = (prev + 1, top);
    while a < b {
        let m = a + (b - a) / 2;
        if pred(m) {
            b = m;
        } else {
            a = m + 1;
        }
    }
    a
}

/// Join `left` and `right` with `algo` (the plan node's fragment-join
/// algorithm, chosen from the profile at planning time).
pub fn fragment_join(
    algo: JoinAlgo,
    left: &Relation,
    right: &Relation,
    opts: JoinOpts,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let op = ctx.op_start();
    let out = match algo {
        JoinAlgo::Hash => batch::hash_join(left, right, opts, ctx),
        JoinAlgo::SortMerge => batch::sort_merge_join(left, right, opts, ctx),
        JoinAlgo::BlockNestedLoop => batch::block_nested_loop_join(left, right, ctx),
    }?;
    ctx.op_finish(op, op_name(algo), out.len() as u64);
    Ok(out)
}

/// Stable operator name for a join algorithm, used in node labels.
pub fn op_name(algo: JoinAlgo) -> &'static str {
    match algo {
        JoinAlgo::Hash => "hash_join",
        JoinAlgo::SortMerge => "sort_merge_join",
        JoinAlgo::BlockNestedLoop => "block_nested_loop_join",
    }
}

/// The join plan shared by all algorithms: key columns on both sides and
/// the output schema (left columns ++ right non-key columns), consumed
/// by the kernels in [`crate::exec::batch`].
pub(crate) struct JoinPlan {
    pub(crate) left_key: Vec<usize>,
    pub(crate) right_key: Vec<usize>,
    pub(crate) right_carry: Vec<usize>,
    pub(crate) out_vars: Vec<VarId>,
}

pub(crate) fn plan(left: &Relation, right: &Relation) -> JoinPlan {
    let shared: Vec<VarId> =
        left.vars().iter().copied().filter(|v| right.column_of(*v).is_some()).collect();
    let left_key: Vec<usize> =
        shared.iter().map(|v| left.column_of(*v).expect("shared var")).collect();
    let right_key: Vec<usize> =
        shared.iter().map(|v| right.column_of(*v).expect("shared var")).collect();
    let right_carry: Vec<usize> = right
        .vars()
        .iter()
        .enumerate()
        .filter(|(_, v)| !shared.contains(v))
        .map(|(i, _)| i)
        .collect();
    let mut out_vars = left.vars().to_vec();
    out_vars.extend(right_carry.iter().map(|&i| right.vars()[i]));
    JoinPlan { left_key, right_key, right_carry, out_vars }
}

/// Hash join: build a table on the smaller input, probe with the larger.
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    batch::hash_join(left, right, JoinOpts::default(), ctx)
}

/// Sort-merge join: sort both inputs on the key, merge equal runs.
pub fn sort_merge_join(
    left: &Relation,
    right: &Relation,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    batch::sort_merge_join(left, right, JoinOpts::default(), ctx)
}

/// Block-nested-loop join: compare every pair of rows. Quadratic by
/// design — the weak spot of the MySQL-like profile.
pub fn block_nested_loop_join(
    left: &Relation,
    right: &Relation,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    batch::block_nested_loop_join(left, right, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::EngineProfile;
    use jucq_model::term::TermKind;
    use jucq_model::TermId;
    use std::time::Duration;

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    fn rel(vars: Vec<VarId>, rows: &[&[u32]]) -> Relation {
        let mut r = Relation::empty(vars);
        for row in rows {
            let ids: Vec<TermId> = row.iter().map(|&x| id(x)).collect();
            r.push_row(&ids);
        }
        r
    }

    fn all_algos(left: &Relation, right: &Relation) -> Vec<Relation> {
        let profile = EngineProfile::pg_like();
        let mut out = Vec::new();
        for f in [hash_join, sort_merge_join, block_nested_loop_join] {
            let mut ctx = ExecContext::new(&profile);
            let mut r = f(left, right, &mut ctx).expect("join succeeds");
            r.sort();
            out.push(r);
        }
        out
    }

    #[test]
    fn natural_join_on_one_shared_var() {
        let l = rel(vec![0, 1], &[&[1, 10], &[2, 20], &[3, 30]]);
        let r = rel(vec![1, 2], &[&[10, 100], &[10, 101], &[30, 300]]);
        let results = all_algos(&l, &r);
        for res in &results {
            assert_eq!(res.vars(), &[0, 1, 2]);
            assert_eq!(
                res.to_rows(),
                vec![
                    vec![id(1), id(10), id(100)],
                    vec![id(1), id(10), id(101)],
                    vec![id(3), id(30), id(300)],
                ]
            );
        }
    }

    #[test]
    fn join_on_two_shared_vars() {
        let l = rel(vec![0, 1], &[&[1, 2], &[1, 3]]);
        let r = rel(vec![0, 1, 2], &[&[1, 2, 9], &[1, 4, 8]]);
        for res in all_algos(&l, &r) {
            assert_eq!(res.to_rows(), vec![vec![id(1), id(2), id(9)]]);
        }
    }

    #[test]
    fn disjoint_schemas_give_cartesian_product() {
        let l = rel(vec![0], &[&[1], &[2]]);
        let r = rel(vec![1], &[&[7], &[8]]);
        for res in all_algos(&l, &r) {
            assert_eq!(res.len(), 4);
        }
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        let l = rel(vec![0, 1], &[]);
        let r = rel(vec![1], &[&[7]]);
        for res in all_algos(&l, &r) {
            assert!(res.is_empty());
            assert_eq!(res.vars(), &[0, 1]);
        }
    }

    #[test]
    fn duplicates_multiply() {
        let l = rel(vec![0], &[&[1], &[1]]);
        let r = rel(vec![0, 1], &[&[1, 5], &[1, 5]]);
        for res in all_algos(&l, &r) {
            assert_eq!(res.len(), 4, "bag semantics: 2×2 matches");
        }
    }

    #[test]
    fn counters_consistent_across_algorithms() {
        let l = rel(vec![0, 1], &[&[1, 10], &[2, 20], &[3, 30]]);
        let r = rel(vec![1, 2], &[&[10, 100], &[10, 101], &[30, 300], &[40, 400]]);
        let profile = EngineProfile::pg_like();
        let mut joined = Vec::new();
        let mut materialized = Vec::new();
        for f in [hash_join, sort_merge_join, block_nested_loop_join] {
            let mut ctx = ExecContext::new(&profile);
            let out = f(&l, &r, &mut ctx).expect("join succeeds");
            assert_eq!(
                ctx.counters.tuples_joined,
                out.len() as u64,
                "tuples_joined counts emitted rows"
            );
            assert_eq!(ctx.counters.tuples_scanned, 0, "fragment joins scan no indexes");
            assert_eq!(ctx.counters.tuples_deduped, 0, "fragment joins do not dedup");
            joined.push(ctx.counters.tuples_joined);
            materialized.push(ctx.counters.tuples_materialized);
        }
        // The same logical join emits the same rows under every algorithm.
        assert!(joined.iter().all(|&j| j == joined[0]), "{joined:?}");
        // Materialization reflects each algorithm's working set: hash
        // builds on the smaller side, sort-merge sorts both inputs,
        // block-nested-loop streams both.
        assert_eq!(materialized[0], l.len().min(r.len()) as u64);
        assert_eq!(materialized[1], (l.len() + r.len()) as u64);
        assert_eq!(materialized[2], 0);
    }

    #[test]
    fn gallop_to_finds_first_true_index() {
        for n in [1usize, 2, 3, 7, 8, 9, 100] {
            for first_true in 1..=n {
                // pred true from `first_true` on (or never, when == n).
                let got = gallop_to(0, n, |x| x >= first_true);
                assert_eq!(got, first_true, "n={n}");
            }
        }
    }

    #[test]
    fn sort_elision_matrix_matches_hash_join() {
        // Sorted inputs on the shared var 1 (left col 1, right col 0).
        let l = rel(vec![0, 1], &[&[3, 10], &[2, 20], &[1, 30], &[9, 30]]);
        let r = rel(vec![1, 2], &[&[10, 100], &[10, 101], &[30, 300], &[40, 400]]);
        let profile = EngineProfile::pg_like();
        let mut hctx = ExecContext::new(&profile);
        let mut expect = hash_join(&l, &r, &mut hctx).expect("hash join");
        expect.sort();
        for elide in [(false, false), (true, false), (false, true), (true, true)] {
            let mut ctx = ExecContext::new(&profile);
            let opts = JoinOpts { elide, est: None };
            let mut got = batch::sort_merge_join(&l, &r, opts, &mut ctx).expect("merge join");
            got.sort();
            assert_eq!(got.to_rows(), expect.to_rows(), "elide={elide:?}");
            let claimed = u64::from(elide.0) + u64::from(elide.1);
            assert_eq!(ctx.counters.sorts_elided, claimed, "elide={elide:?}");
            // Only genuinely sorted sides skip the materialization charge.
            let mut charge = 0u64;
            if !elide.0 {
                charge += l.len() as u64;
            }
            if !elide.1 {
                charge += r.len() as u64;
            }
            assert_eq!(ctx.counters.tuples_materialized, charge, "elide={elide:?}");
        }
    }

    #[test]
    fn false_elision_claim_falls_back_to_sorting() {
        // Left is NOT sorted on the shared var: the claim must be
        // rejected by the verification pass, not trusted.
        let l = rel(vec![0, 1], &[&[1, 30], &[2, 10], &[3, 20]]);
        let r = rel(vec![1, 2], &[&[10, 100], &[20, 200], &[30, 300]]);
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        let opts = JoinOpts { elide: (true, true), est: None };
        let mut got = batch::sort_merge_join(&l, &r, opts, &mut ctx).expect("merge join");
        got.sort();
        let mut hctx = ExecContext::new(&profile);
        let mut expect = hash_join(&l, &r, &mut hctx).expect("hash join");
        expect.sort();
        assert_eq!(got.to_rows(), expect.to_rows());
        assert_eq!(ctx.counters.sorts_elided, 1, "only the sorted right side elides");
        assert_eq!(ctx.counters.tuples_materialized, l.len() as u64);
    }

    #[test]
    fn skewed_merge_gallops_and_matches_hash_join() {
        let lrows: Vec<Vec<u32>> = (0..512).map(|i| vec![i, i * 2]).collect();
        let lslices: Vec<&[u32]> = lrows.iter().map(Vec::as_slice).collect();
        let l = rel(vec![0, 1], &lslices);
        let r = rel(vec![0, 2], &[&[100, 7], &[400, 8]]);
        assert!(l.len() >= GALLOP_SKEW * r.len());
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        let mut got =
            batch::sort_merge_join(&l, &r, JoinOpts::default(), &mut ctx).expect("merge join");
        got.sort();
        assert!(ctx.counters.gallop_seeks > 0, "skewed sides should gallop");
        let mut hctx = ExecContext::new(&profile);
        let mut expect = hash_join(&l, &r, &mut hctx).expect("hash join");
        expect.sort();
        assert_eq!(got.to_rows(), expect.to_rows());

        // With the order-aware knob off the same merge steps row by
        // row: identical answer, zero gallop seeks.
        let off = EngineProfile::pg_like().with_order_aware(false);
        let mut octx = ExecContext::new(&off);
        let mut plain =
            batch::sort_merge_join(&l, &r, JoinOpts::default(), &mut octx).expect("merge join");
        plain.sort();
        assert_eq!(octx.counters.gallop_seeks, 0, "knob off must not gallop");
        assert_eq!(plain.to_rows(), expect.to_rows());
    }

    #[test]
    fn estimates_pre_size_join_outputs() {
        let l = rel(vec![0, 1], &[&[1, 10], &[2, 20]]);
        let r = rel(vec![1, 2], &[&[10, 100], &[20, 200]]);
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        let opts = JoinOpts { elide: (false, false), est: Some(2.0) };
        batch::hash_join(&l, &r, opts, &mut ctx).expect("hash join");
        assert_eq!(ctx.counters.rows_reserved, 2);
        // The clamp bounds pathological estimates.
        assert_eq!(reserve_rows(Some(f64::MAX)), 1 << 20);
        assert_eq!(reserve_rows(Some(-5.0)), 0);
        assert_eq!(reserve_rows(None), 0);
    }

    #[test]
    fn memory_budget_fails_large_builds() {
        let l = rel(vec![0], &[&[1], &[2], &[3]]);
        let r = rel(vec![0], &[&[1], &[2], &[3], &[4]]);
        let profile = EngineProfile::pg_like().with_memory_budget(2);
        let mut ctx = ExecContext::new(&profile);
        assert!(matches!(
            hash_join(&l, &r, &mut ctx),
            Err(EngineError::MemoryBudgetExceeded { .. })
        ));
    }

    #[test]
    fn timeout_aborts_block_nested_loop() {
        let rows: Vec<Vec<u32>> = (0..2000).map(|i| vec![i]).collect();
        let slices: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
        let l = rel(vec![0], &slices);
        let r = rel(vec![1], &slices);
        let profile = EngineProfile::mysql_like().with_timeout(Duration::from_millis(0));
        // Pre-expired backdated clock: deterministic without sleeping.
        let mut ctx = ExecContext::new(&profile);
        ctx.backdate(Duration::from_millis(1));
        assert!(matches!(
            block_nested_loop_join(&l, &r, &mut ctx),
            Err(EngineError::Timeout { .. })
        ));
    }
}
