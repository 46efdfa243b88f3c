//! Union-member (CQ) operators: interpreting the access-path subtree of
//! a physical plan member.
//!
//! A member is a [`PlanNode::Project`] (or [`PlanNode::TrueRow`]) over an
//! access chain the planner lowered from the CQ body. Two shapes exist,
//! chosen by the profile at planning time:
//!
//! * **index-nested-loop** (`index_nested_loop_cq = true`): a single
//!   leaf scan extended by [`PlanNode::Inlj`] probes — each probe
//!   extends the current binding set against the best permutation
//!   index. This is how an RDBMS with all six `(s,p,o)` indexes
//!   evaluates these queries.
//! * **hash** (`false`): every atom's extent is scanned (leaf nodes)
//!   and hash-joined left-deep via member-internal
//!   [`PlanNode::HashJoin`] nodes.
//!
//! Leaf scans are either private [`PlanNode::IndexScan`]s or references
//! into the plan's shared-scan table ([`PlanNode::SharedScan`]), already
//! materialized by the driver; shared extents are borrowed, never
//! copied, and charge no scan counters here.

use std::borrow::Cow;

use crate::error::EngineError;
use crate::exec::{batch, join, ExecContext};
use crate::plan::PlanNode;
use crate::relation::Relation;
use crate::table::TripleTable;

/// Evaluate one lowered union member against `table`, with `shared`
/// holding the plan's materialized shared scans. Bag semantics:
/// duplicates arising from the head projection are *not* removed here
/// (the union layer deduplicates).
pub(crate) fn eval_member(
    table: &TripleTable,
    member: &PlanNode,
    shared: &[Relation],
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let op = ctx.op_start();
    let out = eval_member_inner(table, member, shared, ctx)?;
    ctx.op_finish(op, "cq", out.len() as u64);
    Ok(out)
}

fn eval_member_inner(
    table: &TripleTable,
    member: &PlanNode,
    shared: &[Relation],
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.check_deadline()?;
    match member {
        PlanNode::TrueRow { out_vars } => {
            // An empty body denotes the always-true query with no
            // bindings.
            let mut r = Relation::empty(out_vars.clone());
            if out_vars.is_empty() {
                r.push_row(&[]);
            }
            Ok(r)
        }
        PlanNode::Project { input, head, out_vars } => {
            let body = eval_access(table, input, shared, ctx)?;
            if body.is_empty() {
                // Pipelines short-circuit on an empty intermediate, so
                // `body` may lack columns for later atoms' variables;
                // the projection of nothing is nothing.
                return Ok(Relation::empty(out_vars.clone()));
            }
            batch::project_head(&body, head, out_vars, ctx)
        }
        other => Ok(eval_access(table, other, shared, ctx)?.into_owned()),
    }
}

/// Evaluate an access-path node to a relation over its distinct
/// variables. Shared scans are borrowed from the plan-wide table.
fn eval_access<'s>(
    table: &TripleTable,
    node: &PlanNode,
    shared: &'s [Relation],
    ctx: &mut ExecContext<'_>,
) -> Result<Cow<'s, Relation>, EngineError> {
    match node {
        PlanNode::IndexScan { pattern, perm, .. } => {
            Ok(Cow::Owned(batch::scan_pattern(table, pattern, *perm, ctx)?))
        }
        PlanNode::RangeScan { pattern, ranged, lo, hi, .. } => {
            Ok(Cow::Owned(batch::scan_range(table, pattern, *ranged, *lo, *hi, ctx)?))
        }
        // The scan kernels apply the repeated-variable filter inline;
        // the Filter node documents it in the plan tree.
        PlanNode::Filter { input, .. } => eval_access(table, input, shared, ctx),
        PlanNode::SharedScan { id, .. } => Ok(Cow::Borrowed(&shared[*id])),
        PlanNode::Inlj { input, pattern } => {
            let acc = eval_access(table, input, shared, ctx)?;
            Ok(Cow::Owned(batch::probe_extend(table, &acc, pattern, ctx)?))
        }
        PlanNode::RangeProbe { input, pattern, ranged, lo, hi, .. } => {
            let acc = eval_access(table, input, shared, ctx)?;
            Ok(Cow::Owned(batch::probe_extend_range(table, &acc, pattern, *ranged, *lo, *hi, ctx)?))
        }
        PlanNode::HashJoin { left, right, step: None, est } => {
            let l = eval_access(table, left, shared, ctx)?;
            if l.is_empty() {
                // Short-circuit: the right subtree is never scanned.
                return Ok(l);
            }
            let r = eval_access(table, right, shared, ctx)?;
            let opts = join::JoinOpts { elide: (false, false), est: *est };
            Ok(Cow::Owned(batch::hash_join(&l, &r, opts, ctx)?))
        }
        other => unreachable!("not an access-path node: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Store;
    use crate::ir::{PatternTerm, StoreCq, StorePattern, VarId};
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

    /// advisor edges: 1-\[10\]->2, 2-\[10\]->3, 3-\[10\]->1, plus names 1-\[11\]->100.
    fn sample_triples() -> Vec<TripleId> {
        vec![
            t(1, 10, 2),
            t(2, 10, 3),
            t(3, 10, 1),
            t(1, 11, 100),
            t(2, 11, 101),
            t(4, 10, 4), // self-loop
        ]
    }

    fn run(cq: &StoreCq, inlj: bool) -> Relation {
        let mut profile = EngineProfile::pg_like();
        profile.index_nested_loop_cq = inlj;
        let s = Store::from_triples(&sample_triples(), profile);
        let mut r = s.eval_cq(cq).expect("evaluation succeeds").relation;
        r.sort();
        r
    }

    #[test]
    fn single_pattern_scan() {
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]);
        for inlj in [true, false] {
            let r = run(&cq, inlj);
            assert_eq!(r.len(), 4, "inlj={inlj}");
        }
    }

    #[test]
    fn two_hop_join() {
        // ?x -10-> ?y -10-> ?z
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(1), c(10), v(2))],
            vec![0, 2],
        );
        for inlj in [true, false] {
            let r = run(&cq, inlj);
            // 1->2->3, 2->3->1, 3->1->2, 4->4->4.
            assert_eq!(r.len(), 4, "inlj={inlj}");
        }
    }

    #[test]
    fn join_with_selective_constant() {
        // ?x -10-> ?y, ?x -11-> 100  ⇒ x=1, y=2.
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), c(100))],
            vec![0, 1],
        );
        for inlj in [true, false] {
            let r = run(&cq, inlj);
            assert_eq!(r.to_rows(), vec![vec![id(1), id(2)]], "inlj={inlj}");
        }
    }

    #[test]
    fn repeated_variable_selects_self_loops() {
        // ?x -10-> ?x  ⇒ only the 4-4 self loop.
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(0))], vec![0]);
        for inlj in [true, false] {
            let r = run(&cq, inlj);
            assert_eq!(r.to_rows(), vec![vec![id(4)]], "inlj={inlj}");
        }
    }

    #[test]
    fn empty_result_short_circuits() {
        let cq = StoreCq::with_var_head(
            vec![
                StorePattern::new(v(0), c(99), v(1)), // no matches
                StorePattern::new(v(1), c(10), v(2)),
            ],
            vec![0, 2],
        );
        for inlj in [true, false] {
            assert!(run(&cq, inlj).is_empty(), "inlj={inlj}");
        }
    }

    #[test]
    fn cartesian_product_when_disconnected() {
        // ?x -11-> 100 (1 row) × ?a -11-> 101 (1 row).
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(11), c(100)), StorePattern::new(v(1), c(11), c(101))],
            vec![0, 1],
        );
        for inlj in [true, false] {
            let r = run(&cq, inlj);
            assert_eq!(r.to_rows(), vec![vec![id(1), id(2)]], "inlj={inlj}");
        }
    }

    #[test]
    fn projection_to_distinct_subset() {
        // Objects of predicate 10 are all distinct here, so the head
        // projection keeps all four rows even under set semantics.
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![1]);
        let r = run(&cq, true);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn variable_in_property_position() {
        // ?x ?p 100 ⇒ (1, 11).
        let cq = StoreCq::with_var_head(vec![StorePattern::new(v(0), v(1), c(100))], vec![0, 1]);
        for inlj in [true, false] {
            let r = run(&cq, inlj);
            assert_eq!(r.to_rows(), vec![vec![id(1), id(11)]], "inlj={inlj}");
        }
    }

    #[test]
    fn four_atom_cycle_query() {
        // 1-10->2-10->3-10->1 is a 3-cycle; query a 3-cycle shape.
        let cq = StoreCq::with_var_head(
            vec![
                StorePattern::new(v(0), c(10), v(1)),
                StorePattern::new(v(1), c(10), v(2)),
                StorePattern::new(v(2), c(10), v(0)),
            ],
            vec![0, 1, 2],
        );
        for inlj in [true, false] {
            let r = run(&cq, inlj);
            // Rotations of (1,2,3) plus the self-loop (4,4,4).
            assert_eq!(r.len(), 4, "inlj={inlj}");
        }
    }

    #[test]
    fn all_constant_pattern_is_boolean_row() {
        let s = Store::from_triples(&sample_triples(), EngineProfile::pg_like());
        let cq = StoreCq::with_var_head(vec![StorePattern::new(c(1), c(10), c(2))], vec![]);
        let r = s.eval_cq(&cq).unwrap().relation;
        assert_eq!(r.len(), 1, "the triple exists");
        let missing = StoreCq::with_var_head(vec![StorePattern::new(c(1), c(10), c(99))], vec![]);
        let r = s.eval_cq(&missing).unwrap().relation;
        assert_eq!(r.len(), 0, "the triple does not exist");
    }

    #[test]
    fn inlj_and_hash_agree_on_longer_chains() {
        // ?a -10-> ?b -10-> ?c, ?a -11-> ?n (mixed star/chain).
        let cq = StoreCq::with_var_head(
            vec![
                StorePattern::new(v(0), c(10), v(1)),
                StorePattern::new(v(1), c(10), v(2)),
                StorePattern::new(v(0), c(11), v(3)),
            ],
            vec![0, 2, 3],
        );
        let a = run(&cq, true);
        let b = run(&cq, false);
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn empty_body_boolean_true() {
        let s = Store::from_triples(&sample_triples(), EngineProfile::pg_like());
        let cq = StoreCq::with_var_head(vec![], vec![]);
        let r = s.eval_cq(&cq).unwrap().relation;
        assert_eq!(r.len(), 1);
    }
}
