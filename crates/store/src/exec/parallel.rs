//! Parallel union/member evaluation over the immutable triple table.
//!
//! Reformulated queries fan out into unions of hundreds–thousands of
//! member CQs per fragment; each lowered member is an independent
//! read-only plan subtree over the [`TripleTable`] (plus the plan's
//! already-materialized shared scans), so a union's members are pulled
//! by a pool of `std::thread::scope` workers. Determinism is preserved
//! by keeping the *merge* sequential: worker results are stored per
//! member slot and folded into the union's streaming dedup accumulator
//! in member order, so rows, counters and node profiles are identical
//! to a sequential run regardless of scheduling.
//!
//! The engine profile's limits stay global across threads: every worker
//! context shares the originating context's start instant (deadline)
//! and an atomic held-tuples budget, and the first failure flips a
//! shared cancel flag that all siblings poll from their amortized tick.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::EngineError;
use crate::exec::union::DedupAccumulator;
use crate::exec::{batch, cq, pool, union, ExecContext};
use crate::ir::VarId;
use crate::plan::PlanNode;
use crate::relation::Relation;
use crate::table::TripleTable;

/// One fragment union of a physical plan, ready to evaluate: the
/// fragment's index (for node labels), output schema and lowered
/// members.
pub(crate) struct UnionTask<'p> {
    /// Fragment index, used in `fragment[{idx}].` node scopes.
    pub idx: usize,
    /// The union's output schema (the fragment head).
    pub head: &'p [VarId],
    /// Lowered member plans.
    pub members: &'p [PlanNode],
    /// The planner's union-output estimate, used to pre-size the dedup
    /// accumulator's row buffer.
    pub est: Option<f64>,
    /// Sideways-information-passing filter published by an upstream
    /// fragment join: each member result is probed against it (and
    /// non-joining rows dropped) before merging into the union.
    pub filter: Option<&'p batch::SipFilter>,
}

/// Evaluate one fragment union of a plan, using up to `threads` worker
/// threads across its members. With one worker (or at most one member)
/// this is exactly the sequential path. `shared` is the plan's
/// materialized shared-scan table.
///
/// The profile's `threads` is a *request*, not a reservation: the
/// calling thread always works for free, and every extra worker needs
/// a permit from the process-wide [`pool::PermitPool`]. Under
/// concurrent queries the pool arbitrates, so inter-query and
/// intra-query parallelism share one machine-sized budget instead of
/// multiplying — a busy server degrades each query toward sequential
/// evaluation rather than oversubscribing every core at once.
pub(crate) fn eval_union(
    table: &TripleTable,
    u: &UnionTask<'_>,
    shared: &[Relation],
    ctx: &mut ExecContext<'_>,
    threads: usize,
) -> Result<Relation, EngineError> {
    let members = u.members;
    // On single-core hardware extra workers are pure overhead (the
    // process-wide permit pool's floor would still grant them), so the
    // sequential path is taken outright regardless of the profile's
    // thread request.
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let desired = if hw <= 1 { 1 } else { threads.min(members.len()).max(1) };
    // Non-blocking admission: a zero grant just means "run sequential".
    let permits =
        if desired > 1 { Some(pool::PermitPool::global().try_acquire(desired - 1)) } else { None };
    let workers = 1 + permits.as_ref().map_or(0, pool::Permits::count);
    let scope = format!("fragment[{}].", u.idx);
    if workers <= 1 {
        ctx.set_scope(scope);
        let op = ctx.op_start();
        let out = if union::borrowable(members, ctx) {
            ctx.check_deadline()?;
            let mut r = cq::eval_member(table, &members[0], shared, ctx)?;
            if let Some(f) = u.filter {
                batch::apply_sip_filter(&mut r, f, ctx)?;
            }
            union::borrow_member(r, op, ctx)?
        } else {
            let mut acc = DedupAccumulator::with_est(u.head.to_vec(), u.est, ctx);
            for m in members {
                ctx.check_deadline()?;
                let mut r = cq::eval_member(table, m, shared, ctx)?;
                if let Some(f) = u.filter {
                    batch::apply_sip_filter(&mut r, f, ctx)?;
                }
                batch::merge_member(&mut acc, &r, ctx)?;
            }
            union::finish_union(acc, op, ctx)?
        };
        ctx.set_scope(String::new());
        return Ok(out);
    }

    // Work-stealing claim counter: assignment is nondeterministic, but
    // results land in per-member slots, so the merge below is not.
    let spawner = ctx.spawner();
    let next = AtomicUsize::new(0);
    type Slot<'s> = Option<(Result<Relation, EngineError>, ExecContext<'s>)>;
    let mut slots: Vec<Slot<'_>> = (0..members.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let m = next.fetch_add(1, Ordering::Relaxed);
                        if m >= members.len() || spawner.shared().cancelled() {
                            break;
                        }
                        let mut wctx = spawner.context();
                        wctx.set_scope(scope.clone());
                        let r = wctx
                            .check_live()
                            .and_then(|()| cq::eval_member(table, &members[m], shared, &mut wctx))
                            .and_then(|mut rel| {
                                if let Some(f) = u.filter {
                                    batch::apply_sip_filter(&mut rel, f, &mut wctx)?;
                                }
                                // Charge the held member result against
                                // the *global* budget until it is merged.
                                wctx.reserve_memory(rel.len())?;
                                Ok(rel)
                            });
                        if r.is_err() {
                            spawner.shared().cancel();
                        }
                        produced.push((m, r, wctx));
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            for (m, r, wctx) in h.join().expect("worker thread panicked") {
                slots[m] = Some((r, wctx));
            }
        }
    });

    // Surface the originating failure (in member order), never the
    // secondary `Cancelled`s it provoked on sibling workers.
    if slots.iter().any(|s| matches!(s, Some((Err(_), _))) || s.is_none()) {
        for slot in &slots {
            if let Some((Err(e), _)) = slot {
                if !matches!(e, EngineError::Cancelled) {
                    return Err(e.clone());
                }
            }
        }
        return Err(EngineError::Cancelled);
    }

    // Deterministic order-stable merge: fold member results into the
    // union's dedup accumulator in member order, absorbing worker
    // counters/profiles in the same order the sequential path would
    // produce them.
    ctx.set_scope(scope);
    let op = ctx.op_start();
    let mut results = slots.into_iter().map(|slot| {
        let (r, wctx) = slot.expect("member claimed");
        (r.expect("errors surfaced above"), wctx)
    });
    let out = if union::borrowable(members, ctx) {
        let (rel, wctx) = results.next().expect("one member");
        ctx.absorb(wctx);
        ctx.release_memory(rel.len());
        union::borrow_member(rel, op, ctx)?
    } else {
        let mut acc = DedupAccumulator::with_est(u.head.to_vec(), u.est, ctx);
        for (rel, wctx) in results {
            ctx.absorb(wctx);
            batch::merge_member(&mut acc, &rel, ctx)?;
            ctx.release_memory(rel.len());
        }
        union::finish_union(acc, op, ctx)?
    };
    ctx.set_scope(String::new());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Counters;
    use crate::ir::{PatternTerm, StoreCq, StoreJucq, StorePattern, StoreUcq};
    use crate::plan::Planner;
    use crate::profile::EngineProfile;
    use crate::stats::Statistics;
    use jucq_model::term::TermKind;
    use jucq_model::{TermId, TripleId};
    use std::time::Duration;

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

    /// 40 predicates × 50 subjects, with heavy overlap across members.
    fn table() -> TripleTable {
        let mut triples = Vec::new();
        for p in 0..40u32 {
            for s in 0..50u32 {
                triples.push(t(s, 100 + p, s % 7));
            }
        }
        TripleTable::build(&triples)
    }

    /// A UCQ of one member per predicate (overlapping object columns).
    fn wide_ucq() -> StoreUcq {
        let cqs = (0..40u32)
            .map(|p| {
                StoreCq::with_var_head(vec![StorePattern::new(v(0), c(100 + p), v(1))], vec![0, 1])
            })
            .collect();
        StoreUcq::new(cqs, vec![0, 1])
    }

    fn eval(
        q: &StoreJucq,
        profile: &EngineProfile,
        threads: usize,
    ) -> Result<(Relation, Counters), EngineError> {
        let table = table();
        let stats = Statistics::build(&table);
        let plan = Planner::new(&table, &stats, profile).plan(q);
        let mut ctx = ExecContext::new(profile);
        let rel = crate::plan::exec::execute(&table, &plan, &mut ctx, threads, None)?;
        Ok((rel, ctx.counters))
    }

    #[test]
    fn parallel_union_matches_sequential_exactly() {
        let q = StoreJucq::from_ucq(wide_ucq());
        let profile = EngineProfile::pg_like();
        let (seq, seq_counters) = eval(&q, &profile, 1).unwrap();
        for threads in [2, 4, 8] {
            let (par, par_counters) = eval(&q, &profile, threads).unwrap();
            // Bit-identical, not just set-equal: the order-stable merge
            // reproduces the sequential accumulator row order.
            assert_eq!(seq, par, "rows differ at {threads} threads");
            assert_eq!(seq_counters, par_counters, "counters differ at {threads} threads");
        }
    }

    #[test]
    fn multi_fragment_parallel_matches_sequential() {
        let fa = wide_ucq();
        let fb = StoreUcq::new(
            vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(101), v(2))], vec![0, 2])],
            vec![0, 2],
        );
        let q = StoreJucq::new(vec![fa, fb], vec![0, 1, 2]);
        let profile = EngineProfile::mysql_like();
        let (seq, seq_counters) = eval(&q, &profile, 1).unwrap();
        let (par, par_counters) = eval(&q, &profile, 8).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq_counters, par_counters);
    }

    #[test]
    fn exhausted_permit_pool_degrades_to_sequential_correctness() {
        // Hog the process-wide pool, then run a parallel-profile query:
        // admission grants zero extra workers, the caller thread does
        // all the work, and the answer is still bit-identical.
        let q = StoreJucq::from_ucq(wide_ucq());
        let profile = EngineProfile::pg_like();
        let (seq, seq_counters) = eval(&q, &profile, 1).unwrap();
        let pool = crate::exec::pool::PermitPool::global();
        let hog = pool.try_acquire(pool.capacity());
        let (par, par_counters) = eval(&q, &profile, 8).unwrap();
        drop(hog);
        assert_eq!(seq, par);
        assert_eq!(seq_counters, par_counters);
    }

    #[test]
    fn budget_breach_on_one_worker_aborts_the_query() {
        // Each member yields 50 rows; the shared budget admits a couple
        // of held member results but not the fleet, so some worker's
        // reservation must push the cross-thread sum over the top and
        // the whole query aborts with the *originating* error.
        let q = StoreJucq::from_ucq(wide_ucq());
        let profile = EngineProfile::pg_like().with_memory_budget(120);
        let err = eval(&q, &profile, 4).unwrap_err();
        assert!(
            matches!(err, EngineError::MemoryBudgetExceeded { .. }),
            "expected a budget breach, got {err:?}"
        );
    }

    #[test]
    fn expired_deadline_aborts_all_workers() {
        let q = StoreJucq::from_ucq(wide_ucq());
        let profile = EngineProfile::pg_like().with_timeout(Duration::from_millis(0));
        let table = table();
        let stats = Statistics::build(&table);
        let plan = Planner::new(&table, &stats, &profile).plan(&q);
        let mut ctx = ExecContext::new(&profile);
        ctx.backdate(Duration::from_millis(2));
        let err = crate::plan::exec::execute(&table, &plan, &mut ctx, 4, None).unwrap_err();
        assert!(matches!(err, EngineError::Timeout { .. }), "got {err:?}");
    }

    #[test]
    fn profiled_parallel_run_reports_sequential_node_shape() {
        let q = StoreJucq::from_ucq(wide_ucq());
        let profile = EngineProfile::pg_like();
        let table = table();
        let stats = Statistics::build(&table);
        let plan = Planner::new(&table, &stats, &profile).plan(&q);
        let run = |threads: usize| {
            let mut ctx = ExecContext::with_profiling(&profile);
            crate::plan::exec::execute(&table, &plan, &mut ctx, threads, None).unwrap();
            ctx.take_nodes()
        };
        let seq = run(1);
        let par = run(8);
        let shape = |nodes: &[crate::exec::NodeProfile]| {
            nodes.iter().map(|n| (n.label.clone(), n.invocations, n.rows)).collect::<Vec<_>>()
        };
        assert_eq!(shape(&seq), shape(&par), "labels, invocations and rows match");
    }
}
