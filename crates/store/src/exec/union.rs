//! Union evaluation support: a UCQ fragment's result under set
//! semantics.
//!
//! Member results are deduplicated **streamingly** (hash-aggregation
//! style, like the engines the paper targets): peak memory is the
//! number of *distinct* rows, not the sum of member result sizes —
//! which for reformulated unions differ by orders of magnitude, since
//! members overlap heavily. The union driver itself lives in
//! [`crate::exec::parallel`], which folds lowered member plans into the
//! accumulator defined here, sequentially or across a worker pool.

use jucq_model::TermId;

use crate::error::EngineError;
use crate::exec::ExecContext;
use crate::relation::Relation;

/// Open-addressing set of row indices into an accumulating relation,
/// with Fx hashing over the row's ids. Avoids one allocation per row
/// (the rows live in the relation's flat buffer).
pub(crate) struct DedupAccumulator {
    rel: Relation,
    /// 0 = empty slot, otherwise row index + 1.
    slots: Vec<u32>,
    mask: usize,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn hash_row(row: &[TermId]) -> u64 {
    let mut h: u64 = row.len() as u64;
    for t in row {
        h = (h.rotate_left(5) ^ u64::from(t.raw())).wrapping_mul(SEED);
    }
    h
}

impl DedupAccumulator {
    /// An accumulator whose row buffer is pre-sized from the planner's
    /// union estimate (clamped by [`crate::exec::join::reserve_rows`]),
    /// recording the reservation in `rows_reserved`. The slot table
    /// still starts small and grows on demand — only the flat row
    /// storage is reserved, since that is where regrowth copies rows.
    pub(crate) fn with_est(
        vars: Vec<crate::ir::VarId>,
        est: Option<f64>,
        ctx: &mut ExecContext<'_>,
    ) -> Self {
        let reserve = crate::exec::join::reserve_rows(est);
        ctx.counters.rows_reserved += reserve as u64;
        DedupAccumulator {
            rel: Relation::with_capacity(vars, reserve),
            slots: vec![0; 64],
            mask: 63,
        }
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        self.mask = new_len - 1;
        self.slots = vec![0; new_len];
        for i in 0..self.rel.len() {
            let h = hash_row(self.rel.row(i)) as usize;
            let mut slot = h & self.mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & self.mask;
            }
            self.slots[slot] = (i + 1) as u32;
        }
    }

    /// Insert `row` if unseen; returns `true` when it was new.
    pub(crate) fn insert(&mut self, row: &[TermId]) -> bool {
        // Zero-width (boolean) rows: keep at most one presence marker.
        if row.is_empty() && self.rel.vars().is_empty() {
            if self.rel.is_empty() {
                self.rel.push_row(row);
                return true;
            }
            return false;
        }
        if (self.rel.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let h = hash_row(row) as usize;
        let mut slot = h & self.mask;
        loop {
            match self.slots[slot] {
                0 => {
                    self.rel.push_row(row);
                    self.slots[slot] = self.rel.len() as u32;
                    return true;
                }
                idx => {
                    if self.rel.row(idx as usize - 1) == row {
                        return false;
                    }
                    slot = (slot + 1) & self.mask;
                }
            }
        }
    }

    fn into_relation(self) -> Relation {
        self.rel
    }

    pub(crate) fn len(&self) -> usize {
        self.rel.len()
    }
}

/// Close a **borrowed** union: the zero-copy path for a single-member
/// fragment whose member plan is
/// [distinct by construction](crate::plan::PlanNode::distinct_by_construction).
/// The member result is the union result — no dedup accumulator is
/// built, no rows are hashed or copied; the borrow is counted in
/// `scan_rows_borrowed` and the memory budget still sees the held rows.
/// Taken only when the profile's `order_aware` knob is on and the
/// profile does not force derived-table materialization.
pub(crate) fn borrow_member(
    rel: Relation,
    op: Option<std::time::Instant>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.counters.scan_rows_borrowed += rel.len() as u64;
    ctx.check_memory(rel.len())?;
    ctx.op_finish(op, "union", rel.len() as u64);
    Ok(rel)
}

/// Whether `task`'s union may take the [`borrow_member`] path: one
/// member, provably distinct rows, order-aware execution enabled, and
/// no profile-mandated derived-table copy.
pub(crate) fn borrowable(members: &[crate::plan::PlanNode], ctx: &ExecContext<'_>) -> bool {
    ctx.profile().order_aware
        && !ctx.profile().materialize_all_unions
        && members.len() == 1
        && members[0].distinct_by_construction()
}

/// Close an accumulated union: apply the profile's derived-table
/// materialization (an extra full copy) when configured, and record the
/// `union` operator node.
pub(crate) fn finish_union(
    acc: DedupAccumulator,
    op: Option<std::time::Instant>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let mut out = acc.into_relation();
    if ctx.profile().materialize_all_unions {
        ctx.counters.tuples_materialized += out.len() as u64;
        ctx.check_memory(out.len())?;
        out = out.clone();
    }
    ctx.op_finish(op, "union", out.len() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Store;
    use crate::error::EngineError;
    use crate::ir::{PatternTerm, StoreCq, StorePattern, StoreUcq, VarId};
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
        Store::from_triples(&[t(1, 10, 2), t(1, 11, 2), t(3, 10, 4), t(5, 12, 6)], profile)
    }

    #[test]
    fn union_merges_and_dedups() {
        // {?x 10 ?y} ∪ {?x 11 ?y}: (1,2) appears via both members.
        let s = store(EngineProfile::pg_like());
        let ucq = StoreUcq::new(
            vec![
                StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]),
                StoreCq::with_var_head(vec![StorePattern::new(v(0), c(11), v(1))], vec![0, 1]),
            ],
            vec![0, 1],
        );
        let mut r = s.eval_ucq(&ucq).unwrap().relation;
        r.sort();
        assert_eq!(r.to_rows(), vec![vec![id(1), id(2)], vec![id(3), id(4)]]);
    }

    #[test]
    fn empty_union_yields_empty_relation() {
        let s = store(EngineProfile::pg_like());
        let ucq = StoreUcq::new(vec![], vec![0]);
        let r = s.eval_ucq(&ucq).unwrap().relation;
        assert!(r.is_empty());
        assert_eq!(r.vars(), &[0]);
    }

    #[test]
    fn materializing_profile_counts_extra_copy() {
        let ucq = StoreUcq::new(
            vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1])],
            vec![0, 1],
        );
        let pg = store(EngineProfile::pg_like()).eval_ucq(&ucq).unwrap();
        let my = store(EngineProfile::mysql_like()).eval_ucq(&ucq).unwrap();
        assert!(my.counters.tuples_materialized > pg.counters.tuples_materialized);
    }

    #[test]
    fn memory_budget_counts_distinct_rows_only() {
        let member =
            StoreCq::with_var_head(vec![StorePattern::new(v(0), v(1), v(2))], vec![0, 1, 2]);
        let ucq = StoreUcq::new(vec![member.clone(), member.clone()], vec![0, 1, 2]);
        // The members accumulate to 4 distinct rows: budget 4 passes...
        let s = store(EngineProfile::pg_like().with_memory_budget(4));
        assert_eq!(s.eval_ucq(&ucq).unwrap().relation.len(), 4);
        // ...and budget 3 fails (streaming dedup, not sum-of-members).
        let s = store(EngineProfile::pg_like().with_memory_budget(3));
        assert!(matches!(s.eval_ucq(&ucq), Err(EngineError::MemoryBudgetExceeded { .. })));
    }

    #[test]
    fn boolean_unions_collapse_to_one_marker() {
        let s = store(EngineProfile::pg_like());
        let member = StoreCq::new(vec![StorePattern::new(v(0), c(10), v(1))], vec![]);
        let distinct = StoreCq::new(vec![StorePattern::new(v(0), c(12), v(1))], vec![]);
        let ucq = StoreUcq::new(vec![member, distinct], vec![]);
        let r = s.eval_ucq(&ucq).unwrap().relation;
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn single_member_scan_union_borrows_rows() {
        // One member, plain scan chain: the union result is the member
        // result — no dedup pass, rows counted as borrowed. Knob off
        // takes the accumulator path and answers identically.
        let ucq = StoreUcq::new(
            vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1])],
            vec![0, 1],
        );
        let on = store(EngineProfile::pg_like()).eval_ucq(&ucq).unwrap();
        let off = store(EngineProfile::pg_like().with_order_aware(false)).eval_ucq(&ucq).unwrap();
        assert_eq!(on.counters.scan_rows_borrowed, 2, "both p10 rows borrowed");
        assert_eq!(off.counters.scan_rows_borrowed, 0, "knob off copies through the accumulator");
        let (mut a, mut b) = (on.relation, off.relation);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn multi_member_union_never_borrows() {
        // Overlapping members must still deduplicate; the borrow path
        // is reserved for provably distinct single-member fragments.
        // (Two *distinct* members — identical ones would be collapsed
        // to a single member by the planner's rewrite pass.)
        let ucq = StoreUcq::new(
            vec![
                StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]),
                StoreCq::with_var_head(vec![StorePattern::new(v(0), c(11), v(1))], vec![0, 1]),
            ],
            vec![0, 1],
        );
        let out = store(EngineProfile::pg_like()).eval_ucq(&ucq).unwrap();
        assert_eq!(out.counters.scan_rows_borrowed, 0);
        assert_eq!(out.relation.len(), 2, "(1,2) reached via both members deduplicated");
    }

    #[test]
    fn projection_dropping_a_variable_is_not_distinct() {
        // (?0 #u12 ?1) with head [?1] projects away ?0: objects repeat
        // (both 0 and 1 have two p12 edges in `store`), so the member is
        // not distinct-by-construction and the accumulator must run.
        let ucq = StoreUcq::new(
            vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(12), v(1))], vec![1])],
            vec![1],
        );
        let s =
            Store::from_triples(&[t(1, 12, 7), t(2, 12, 7), t(3, 12, 8)], EngineProfile::pg_like());
        let out = s.eval_ucq(&ucq).unwrap();
        assert_eq!(out.counters.scan_rows_borrowed, 0, "lossy projection takes the dedup path");
        assert_eq!(out.relation.len(), 2, "duplicate object deduplicated");
    }

    #[test]
    fn accumulator_grows_correctly() {
        // Force several growth rounds and verify exact dedup.
        let profile = EngineProfile::pg_like();
        let mut ctx = crate::exec::ExecContext::new(&profile);
        let mut acc = DedupAccumulator::with_est(vec![0, 1], None, &mut ctx);
        for i in 0..500u32 {
            let row = [id(i % 250), id(i % 7)];
            acc.insert(&row);
            // Every row twice.
            assert!(!acc.insert(&row), "immediate duplicate rejected");
        }
        let mut distinct = std::collections::HashSet::new();
        for i in 0..500u32 {
            distinct.insert((i % 250, i % 7));
        }
        assert_eq!(acc.len(), distinct.len());
    }
}
