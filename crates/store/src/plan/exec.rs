//! Driving a physical [`Plan`]: shared-scan materialization, fragment
//! union evaluation (sequential or parallel — both interpret the same
//! plan), the fragment join tree, and the final projection and
//! duplicate elimination.
//!
//! There is one driver, and it is **staged**: the planner only builds
//! left-deep fragment join trees, so fragments run one at a time in join
//! order (each union still fans its members across the worker pool),
//! and each join step's accumulated left side exists when its target
//! fragment starts. A step with a planned sideways-information-passing
//! filter (`plan.sip`) hashes that left side into a Bloom filter the
//! fragment's members probe; a plan without SIP is the same run with
//! zero filters.
//!
//! Fragment leaves may be [`PlanNode::ViewScan`]s: the executor
//! resolves each through the supplied [`ViewSource`] — epoch-exact, so
//! a catalog entry computed at any other epoch never serves — and
//! copies the materialized rows through a scan-priced batched kernel.
//! A miss, or running with no view source at all, evaluates the
//! embedded fallback union; answers are identical either way.

use crate::error::EngineError;
use crate::exec::{batch, join, parallel, ExecContext};
use crate::plan::node::{Plan, PlanNode};
use crate::profile::JoinAlgo;
use crate::relation::Relation;
use crate::table::TripleTable;
use crate::views::ViewSource;

/// Copy a resolved view's rows into a fresh relation on `ctx`'s
/// counters: charged as a scan (`tuples_scanned`, one `view_hits`
/// resolution), in batches with the same liveness-poll cadence as any
/// other scan.
///
/// The copy is **positional**: column `k` of the stored relation is the
/// pinning fragment's `k`-th head variable, and the head-aware canonical
/// [`ViewSignature`](crate::views::ViewSignature) numbers head variables
/// first in head order, so any fragment matching the signature binds the
/// same value at head position `k`. VarIds are per-query (the consuming
/// query's `head` generally differs from the pinning query's stored
/// schema), so realigning by VarId would be wrong — only the labels are
/// taken from `head`.
fn copy_view_rows(
    rows: &Relation,
    idx: usize,
    head: &[crate::ir::VarId],
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let op = ctx.op_start();
    debug_assert_eq!(rows.vars().len(), head.len(), "view arity checked by resolve_view");
    let mut out = Relation::with_capacity(head.to_vec(), rows.len());
    let batch_rows = ctx.profile().effective_batch_rows();
    let mut done = 0;
    while done < rows.len() {
        let n = batch_rows.min(rows.len() - done);
        for r in done..done + n {
            out.push_row(rows.row(r));
        }
        ctx.tick_n(n as u64)?;
        done += n;
    }
    ctx.counters.tuples_scanned += out.len() as u64;
    ctx.counters.view_hits += 1;
    ctx.check_memory(out.len())?;
    ctx.op_finish(op, &format!("fragment[{idx}].view_scan"), out.len() as u64);
    Ok(out)
}

/// Resolve a fragment leaf's view binding, if it has one and the
/// request's epoch matches.
fn resolve_view(
    leaf: &PlanNode,
    plan: &Plan,
    views: Option<&ViewSource<'_>>,
    ctx: &mut ExecContext<'_>,
) -> Result<Option<Relation>, EngineError> {
    if let PlanNode::ViewScan { idx, head, view, .. } = leaf {
        if let Some(src) = views {
            if let Some(rows) = src.resolve(&plan.views[*view].signature) {
                // An arity mismatch can only mean a signature collision
                // (the signature encodes the head arity); treat it as a
                // miss and evaluate the fallback union rather than serve
                // another fragment's rows.
                if rows.vars().len() == head.len() {
                    return Ok(Some(copy_view_rows(&rows, *idx, head, ctx)?));
                }
            }
        }
    }
    Ok(None)
}

/// Execute `plan` against `table` with up to `threads` union workers,
/// resolving [`PlanNode::ViewScan`] leaves through `views` (when given).
pub(crate) fn execute(
    table: &TripleTable,
    plan: &Plan,
    ctx: &mut ExecContext<'_>,
    threads: usize,
    views: Option<&ViewSource<'_>>,
) -> Result<Relation, EngineError> {
    if plan.is_const_empty() {
        return Ok(Relation::empty(plan.head.clone()));
    }

    // Materialize the plan-wide shared scans once, on the driver
    // context: every member referencing one borrows the same extent, so
    // scan counters are charged exactly once per distinct pattern
    // regardless of how many members use it or how many workers run.
    // The held extents are charged against the global memory budget
    // until the query completes.
    let mut shared: Vec<Relation> = Vec::with_capacity(plan.shared.len());
    for (i, def) in plan.shared.iter().enumerate() {
        let op = ctx.op_start();
        let rel = batch::scan_pattern(table, &def.pattern, None, ctx)?;
        ctx.reserve_memory(rel.len())?;
        ctx.op_finish(op, &format!("shared_scan[{i}]"), rel.len() as u64);
        shared.push(rel);
    }
    let shared_held: usize = shared.iter().map(|r| r.len()).sum();

    let tree = match &plan.root {
        PlanNode::Dedup { input, .. } => match &**input {
            PlanNode::Project { input, .. } => &**input,
            other => other,
        },
        other => other,
    };
    let (base, steps) = join_steps(tree);

    let eval_fragment = |leaf: &PlanNode,
                         filter: Option<&batch::SipFilter>,
                         ctx: &mut ExecContext<'_>|
     -> Result<Relation, EngineError> {
        let (idx, rel) = match resolve_view(leaf, plan, views, ctx)? {
            // A view-resolved fragment skips its filter: the filter only
            // prunes work the copy kernel does not do, and the join
            // itself discards non-matching rows.
            Some(rel) => {
                let PlanNode::ViewScan { idx, .. } = leaf else { unreachable!() };
                (*idx, rel)
            }
            None => {
                let union = leaf.fallback_union();
                let (idx, head, members) = union.as_union().expect("fragment leaf wraps a union");
                let est = match union {
                    PlanNode::HashUnion { est, .. } => *est,
                    _ => None,
                };
                let task = parallel::UnionTask { idx, head, members, est, filter };
                (idx, parallel::eval_union(table, &task, &shared, ctx, threads)?)
            }
        };
        // All but the pipelined (largest-estimate) fragment are charged
        // as materialized (§4.1: "the largest-result sub-query ... is
        // the one pipelined"). A single-fragment plan has no pipelined
        // fragment and nothing to join, so it charges nothing.
        if plan.pipelined.is_some_and(|p| p != idx) {
            ctx.counters.tuples_materialized += rel.len() as u64;
            ctx.check_memory(rel.len())?;
        }
        Ok(rel)
    };

    let mut acc = eval_fragment(base, None, ctx)?;
    for (algo, opts, step, right_node) in steps {
        let filter = plan.sip.iter().find(|d| d.step == step).map(|d| {
            batch::SipFilter::build(&acc, &d.keys, format!("fragment[{}].sip_filter", d.target))
        });
        let r = eval_fragment(right_node, filter.as_ref(), ctx)?;
        ctx.set_scope(format!("join[{step}]."));
        let out = join::fragment_join(algo, &acc, &r, opts, ctx);
        ctx.set_scope(String::new());
        acc = out?;
    }

    let op = ctx.op_start();
    let mut relation = acc.project(&plan.head);
    ctx.counters.tuples_deduped += relation.len() as u64;
    relation.dedup_in_place_hashed();
    ctx.op_finish(op, "dedup", relation.len() as u64);

    ctx.release_memory(shared_held);
    Ok(relation)
}

/// One fragment join step in execution order: the algorithm, its
/// options (merge sort-elision flags and output estimate), the step
/// number, and the right-hand fragment leaf.
type JoinStep<'p> = (JoinAlgo, join::JoinOpts, usize, &'p PlanNode);

/// Linearize the left-deep fragment join tree into its base fragment
/// and the join steps that fold the remaining fragments in, in order.
fn join_steps(tree: &PlanNode) -> (&PlanNode, Vec<JoinStep<'_>>) {
    let mut steps: Vec<JoinStep<'_>> = Vec::new();
    let mut node = tree;
    let base = loop {
        let (algo, opts, left, right, step) = match node {
            PlanNode::HashUnion { .. } | PlanNode::ViewScan { .. } => break node,
            PlanNode::HashJoin { left, right, step: Some(step), est } => {
                let opts = join::JoinOpts { elide: (false, false), est: *est };
                (JoinAlgo::Hash, opts, left, right, *step)
            }
            PlanNode::MergeJoin { left, right, step, est, sort_elided } => {
                let opts = join::JoinOpts { elide: *sort_elided, est: *est };
                (JoinAlgo::SortMerge, opts, left, right, step.expect("fragment join has a step"))
            }
            PlanNode::NestedLoopJoin { left, right, step, est } => {
                let opts = join::JoinOpts { elide: (false, false), est: *est };
                (
                    JoinAlgo::BlockNestedLoop,
                    opts,
                    left,
                    right,
                    step.expect("fragment join has a step"),
                )
            }
            other => unreachable!("not a fragment-level node: {other:?}"),
        };
        steps.push((algo, opts, step, &**right));
        node = left;
    };
    steps.reverse();
    (base, steps)
}
