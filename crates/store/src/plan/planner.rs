//! Lowering `StoreJucq → Plan` through an ordered rewrite-pass pipeline.
//!
//! Passes run in a fixed order, each wrapped in a `jucq-obs` span and
//! reporting before/after node counts to the metrics registry:
//!
//! 1. **prune_empty** — drop union members containing a pattern with an
//!    empty extent (exact index cardinality); a fragment that loses all
//!    members proves the whole JUCQ empty (`∅ ⋈ X = ∅`).
//! 2. **dedup_members** — drop exact-duplicate members, then members
//!    subsumed by another member of the same fragment (same head terms,
//!    body pattern superset): reformulation stamps both out routinely.
//! 3. **factor_scans** — count how often each distinct [`StorePattern`]
//!    is scanned across all members of all fragments (under the INLJ
//!    strategy only each member's leaf atom is a scan; under the hash
//!    strategy every atom is); patterns scanned twice or more become
//!    [`SharedScanDef`]s computed once per query.
//! 4. **join_order** — greedy per-member atom ordering (cheapest exact
//!    extent first, then always a join-connected atom), baked into the
//!    plan instead of re-derived at execution time.
//! 5. **lower** — physical operator choice from the profile (INLJ chain
//!    vs. member hash joins; hash / sort-merge / block-nested-loop
//!    fragment joins), fragment join order (smallest estimate first,
//!    connected-first), the pipelined-fragment choice (largest
//!    estimate, §4.1), and cardinality estimates on every plan node.

use jucq_model::{FxHashMap, FxHashSet};

use crate::exec::join;
use crate::internal_cost::join_step_cost;
use crate::ir::{PatternTerm, StoreCq, StoreJucq, StorePattern, StoreUcq, VarId};
use crate::plan::node::{scan_order, Plan, PlanNode, SharedScanDef, SipFilterDef, ViewBindingDef};
use crate::profile::{EngineProfile, JoinAlgo};
use crate::stats::Statistics;
use crate::table::{Perm, RangePos, TripleTable};
use crate::views::{ViewCatalog, ViewSignature};

/// The O(members²) subsumption sweep is skipped beyond this union width
/// (exact-duplicate elimination still runs; it is linear).
const SUBSUMPTION_MEMBER_LIMIT: usize = 2_000;

/// Lowers logical [`StoreJucq`]s to physical [`Plan`]s for one store.
pub struct Planner<'a> {
    table: &'a TripleTable,
    stats: &'a Statistics,
    profile: &'a EngineProfile,
    views: Option<&'a ViewCatalog>,
}

/// One union member mid-rewrite: the CQ plus its exact per-atom extents
/// and (after the join-order pass) its scan/probe order.
struct DraftMember {
    cq: StoreCq,
    counts: Vec<usize>,
    order: Vec<usize>,
    /// Set by the range-collapse pass: this member stands in for a whole
    /// grid of members whose only differences were the constants at
    /// these atoms' ranged positions. At most one entry per atom.
    ranges: Vec<RangeAtom>,
}

/// One collapsed-interval atom: atom `atom`'s constant at the `ranged`
/// position is replaced by the raw-id interval `[lo, hi)`, which covers
/// exactly the `members` original constants — consecutive raw ids, or
/// runs of them separated by gaps whose extent the index proved empty,
/// so the interval matches no triple the original constants did not.
struct RangeAtom {
    atom: usize,
    ranged: RangePos,
    lo: u32,
    hi: u32,
    members: usize,
}

/// Fixpoint-collapse scratch state for one surviving union member.
struct Scratch {
    ranges: Vec<RangeAtom>,
    alive: bool,
}

/// One fragment mid-rewrite.
struct DraftFragment {
    head: Vec<VarId>,
    members: Vec<DraftMember>,
}

/// Logical node count of the draft (fragments + members + atoms), the
/// unit of the per-pass before/after metrics.
fn draft_nodes(draft: &[DraftFragment]) -> usize {
    draft.iter().map(|f| 1 + f.members.iter().map(|m| 1 + m.cq.patterns.len()).sum::<usize>()).sum()
}

/// First index of the minimum value (ties keep the earliest atom, the
/// same rule `Iterator::min_by_key` applies in the join-order pass).
fn cheapest_atom(counts: &[usize]) -> usize {
    let mut best = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c < counts[best] {
            best = i;
        }
    }
    best
}

/// One collapsible run over a union member list: the members at
/// `members` (indices into the input, ascending by the constant's raw
/// id) differ only in the constant at atom `atom`'s `pos` position, and
/// those constants are exactly the consecutive raw ids `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapsibleRun {
    /// Atom index within each member's pattern list.
    pub atom: usize,
    /// Which position of that atom holds the running constant.
    pub pos: RangePos,
    /// Inclusive lower raw id of the run.
    pub lo: u32,
    /// Exclusive upper raw id of the run.
    pub hi: u32,
    /// Indices of the collapsed members, ascending by raw id.
    pub members: Vec<usize>,
}

/// Find member runs collapsible into single range atoms: maximal groups
/// of ≥ 2 members that share head and body except for one constant — at
/// some atom's predicate or object position — whose raw ids are
/// consecutive. Greedy and non-overlapping (a member joins at most one
/// run), in the planner's deterministic candidate order. This is the
/// *first pass* of [`Planner::plan`]'s fixpoint collapse: the planner
/// performs at least these merges and usually more (later passes treat
/// already-collapsed intervals as mergeable values and bridge raw-id
/// gaps whose index extent is provably empty), so the result is a lower
/// bound. Public so the cost model can price a fragment's collapse
/// opportunity without lowering it.
pub fn collapsible_runs<'c>(members: impl IntoIterator<Item = &'c StoreCq>) -> Vec<CollapsibleRun> {
    let members: Vec<&StoreCq> = members.into_iter().collect();
    // Group the (member, slot) candidates by their masked signature, in
    // first-seen order: (atom, position, [(member, raw id)]).
    type Group = (usize, RangePos, Vec<(usize, u32)>);
    let mut groups: FxHashMap<MaskedSlot<'_>, usize> = FxHashMap::default();
    let mut order: Vec<Group> = Vec::new();
    for (mi, &cq) in members.iter().enumerate() {
        for (ai, pat) in cq.patterns.iter().enumerate() {
            for (pos, term) in [(RangePos::Predicate, pat.p), (RangePos::Object, pat.o)] {
                let PatternTerm::Const(id) = term else { continue };
                let group = *groups.entry(MaskedSlot { cq, atom: ai, pos }).or_insert_with(|| {
                    order.push((ai, pos, Vec::new()));
                    order.len() - 1
                });
                order[group].2.push((mi, id.raw()));
            }
        }
    }
    let mut consumed = vec![false; members.len()];
    let mut runs = Vec::new();
    for (atom, pos, group) in &order {
        let mut entries: Vec<(usize, u32)> =
            group.iter().copied().filter(|&(mi, _)| !consumed[mi]).collect();
        if entries.len() < 2 {
            continue;
        }
        entries.sort_unstable_by_key(|&(_, raw)| raw);
        let mut start = 0;
        while start < entries.len() {
            let mut end = start + 1;
            while end < entries.len() && entries[end].1 == entries[end - 1].1 + 1 {
                end += 1;
            }
            if end - start >= 2 {
                for &(mi, _) in &entries[start..end] {
                    consumed[mi] = true;
                }
                runs.push(CollapsibleRun {
                    atom: *atom,
                    pos: *pos,
                    lo: entries[start].1,
                    hi: entries[end - 1].1 + 1,
                    members: entries[start..end].iter().map(|&(mi, _)| mi).collect(),
                });
            }
            start = end;
        }
    }
    runs
}

/// The signature of a [`collapsible_runs`] candidate, borrowed: member
/// `cq` with the constant at atom `atom`'s `pos` position masked out.
/// Two candidates are equal iff their members share head and body
/// except for that constant.
#[derive(Clone, Copy)]
struct MaskedSlot<'c> {
    cq: &'c StoreCq,
    atom: usize,
    pos: RangePos,
}

impl MaskedSlot<'_> {
    fn masked_patterns(&self) -> impl Iterator<Item = StorePattern> + '_ {
        self.cq.patterns.iter().enumerate().map(|(i, &p)| {
            let mut p = p;
            if i == self.atom {
                match self.pos {
                    RangePos::Predicate => p.p = PatternTerm::Var(VarId::MAX),
                    RangePos::Object => p.o = PatternTerm::Var(VarId::MAX),
                }
            }
            p
        })
    }
}

impl PartialEq for MaskedSlot<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.atom == other.atom
            && self.pos == other.pos
            && self.cq.head == other.cq.head
            && self.masked_patterns().eq(other.masked_patterns())
    }
}

impl Eq for MaskedSlot<'_> {}

impl std::hash::Hash for MaskedSlot<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.cq.head.hash(state);
        self.atom.hash(state);
        self.pos.hash(state);
        self.masked_patterns().for_each(|p| p.hash(state));
    }
}

/// `a ⊆ b` over sorted, deduplicated pattern vectors.
fn is_subset(a: &[StorePattern], b: &[StorePattern]) -> bool {
    let mut j = 0;
    for p in a {
        while j < b.len() && b[j] < *p {
            j += 1;
        }
        if j >= b.len() || b[j] != *p {
            return false;
        }
        j += 1;
    }
    true
}

impl<'a> Planner<'a> {
    /// Bind a planner to a store's table, statistics and profile.
    pub fn new(table: &'a TripleTable, stats: &'a Statistics, profile: &'a EngineProfile) -> Self {
        Planner { table, stats, profile, views: None }
    }

    /// Attach a materialized-view catalog: `lower` will match each
    /// fragment's *logical* (pre-rewrite) UCQ signature against it and
    /// wrap matched unions in [`PlanNode::ViewScan`]s. A `None` catalog
    /// or a profile with `view_scans` off plans exactly as before.
    pub fn with_views(mut self, views: Option<&'a ViewCatalog>) -> Self {
        self.views = views;
        self
    }

    /// Lower `q` through the full rewrite pipeline. Infallible:
    /// admission control (union-term limits) happens before planning,
    /// resource limits during execution.
    pub fn plan(&self, q: &StoreJucq) -> Plan {
        jucq_obs::span!("physical_planning");
        let mut draft: Vec<DraftFragment> = q
            .fragments
            .iter()
            .map(|f| DraftFragment {
                head: f.head.clone(),
                members: f
                    .cqs
                    .iter()
                    .map(|cq| DraftMember {
                        counts: cq.patterns.iter().map(|p| self.table.count(&p.bound())).collect(),
                        cq: cq.clone(),
                        order: Vec::new(),
                        ranges: Vec::new(),
                    })
                    .collect(),
            })
            .collect();

        self.prune_empty_members(&mut draft);
        self.dedup_members(&mut draft);
        let range_eligible = self.collapse_ranges(&mut draft);
        let shared = self.factor_common_scans(&draft);
        self.select_join_orders(&mut draft);
        self.lower(q, &draft, shared, range_eligible)
    }

    /// Pass 1: a member containing a zero-extent pattern can never
    /// produce a row — drop it. Fragments are never removed: a fragment
    /// left without members makes the whole plan constant-empty.
    fn prune_empty_members(&self, draft: &mut [DraftFragment]) {
        jucq_obs::span!("plan.prune_empty");
        let before = draft_nodes(draft);
        for frag in draft.iter_mut() {
            frag.members.retain(|m| !m.counts.contains(&0));
        }
        let after = draft_nodes(draft);
        jucq_obs::metrics::counter_add("planner.prune_empty.nodes_before", before as u64);
        jucq_obs::metrics::counter_add("planner.prune_empty.nodes_after", after as u64);
    }

    /// Pass 2: drop exact-duplicate members, then members subsumed by
    /// another member of the same fragment — same head term sequence and
    /// a body pattern set that is a superset of the other's (every
    /// valuation satisfying the superset body satisfies the subset body,
    /// so under set semantics the superset member contributes nothing).
    fn dedup_members(&self, draft: &mut [DraftFragment]) {
        jucq_obs::span!("plan.dedup_members");
        let before = draft_nodes(draft);
        for frag in draft.iter_mut() {
            let mut seen: FxHashSet<StoreCq> = FxHashSet::default();
            let mut kept: Vec<DraftMember> = Vec::with_capacity(frag.members.len());
            for m in std::mem::take(&mut frag.members) {
                if seen.insert(m.cq.clone()) {
                    kept.push(m);
                }
            }
            if kept.len() > 1 && kept.len() <= SUBSUMPTION_MEMBER_LIMIT {
                let sorted: Vec<Vec<StorePattern>> = kept
                    .iter()
                    .map(|m| {
                        let mut v = m.cq.patterns.clone();
                        v.sort_unstable();
                        v.dedup();
                        v
                    })
                    .collect();
                let mut drop = vec![false; kept.len()];
                for a in 0..kept.len() {
                    for b in 0..kept.len() {
                        if a == b || kept[b].cq.head != kept[a].cq.head {
                            continue;
                        }
                        // Strict subset, or equal sets keeping the first.
                        if is_subset(&sorted[b], &sorted[a])
                            && (sorted[b].len() < sorted[a].len() || b < a)
                        {
                            drop[a] = true;
                            break;
                        }
                    }
                }
                let mut it = drop.iter();
                kept.retain(|_| !*it.next().expect("one flag per member"));
            }
            frag.members = kept;
        }
        let after = draft_nodes(draft);
        jucq_obs::metrics::counter_add("planner.dedup_members.nodes_before", before as u64);
        jucq_obs::metrics::counter_add("planner.dedup_members.nodes_after", after as u64);
    }

    /// Pass 2b: collapse union members that differ only in constants with
    /// contiguous raw ids into single members carrying [`RangeAtom`]
    /// intervals, iterated to a *fixpoint*:
    ///
    /// * every constant is a degenerate interval `[c, c+1)` and every
    ///   already-collapsed slot is its interval, so a second pass can
    ///   merge along another atom once a first pass made the members
    ///   textually equal (a k×m grid of members — a class subtree times a
    ///   property subtree — collapses to *one* member with two intervals);
    /// * two intervals also merge across a raw-id gap when the index
    ///   proves the gap empty for the member's atom template (a
    ///   zero-count `count_value_range` over the gap): ids in the gap
    ///   match no triple, so widening the interval over them adds no row.
    ///   Classes without direct instances no longer split a subtree run.
    ///
    /// The half-open intervals then match exactly the triples the
    /// collapsed constants did, so the rewrite is correct under any
    /// dictionary encoding; the hierarchy-aware encoding merely makes
    /// contiguous runs likely (a class subtree becomes one raw-id block).
    /// An atom carries at most one interval (a scan ranges over one
    /// component).
    ///
    /// Always *detects* eligibility (the returned count of fragments the
    /// fixpoint would shrink feeds telemetry); only *rewrites* when the
    /// profile's `range_scans` knob is on.
    fn collapse_ranges(&self, draft: &mut [DraftFragment]) -> usize {
        jucq_obs::span!("plan.range_collapse");
        let before = draft_nodes(draft);
        let apply = self.profile.range_scans;
        let mut eligible = 0usize;
        let mut collapsed = 0u64;
        for frag in draft.iter_mut() {
            let mut scratch: Vec<Scratch> =
                frag.members.iter().map(|_| Scratch { ranges: Vec::new(), alive: true }).collect();
            if !self.collapse_fixpoint(&frag.members, &mut scratch) {
                continue;
            }
            eligible += 1;
            if !apply {
                continue;
            }
            let orig_len = frag.members.len();
            let old = std::mem::take(&mut frag.members);
            let mut kept: Vec<DraftMember> = Vec::with_capacity(old.len());
            for (s, mut m) in scratch.into_iter().zip(old) {
                if !s.alive {
                    continue;
                }
                for r in &s.ranges {
                    let mut bound = m.cq.patterns[r.atom].bound();
                    match r.ranged {
                        RangePos::Predicate => bound[1] = None,
                        RangePos::Object => bound[2] = None,
                    }
                    m.counts[r.atom] = self.table.count_value_range(&bound, r.ranged, r.lo, r.hi);
                }
                m.ranges = s.ranges;
                kept.push(m);
            }
            collapsed += (orig_len - kept.len()) as u64;
            frag.members = kept;
        }
        let after = draft_nodes(draft);
        jucq_obs::metrics::counter_add("planner.range_collapse.nodes_before", before as u64);
        jucq_obs::metrics::counter_add("planner.range_collapse.nodes_after", after as u64);
        jucq_obs::metrics::counter_add("planner.range_collapse.members_collapsed", collapsed);
        eligible
    }

    /// Run the interval-merge passes over `scratch` until nothing merges;
    /// returns whether any merge happened. Each pass groups the alive
    /// members' candidate slots (constant or already-ranged predicate /
    /// object positions) by a signature masking the slot out of the body
    /// — head, slot coordinates, masked patterns, and the *other* slots'
    /// intervals — then merges every chain of ≥ 2 interval-adjacent (or
    /// provably-empty-gap-separated) entries into the lowest-id member.
    fn collapse_fixpoint(&self, members: &[DraftMember], scratch: &mut [Scratch]) -> bool {
        type Sig = (
            Vec<PatternTerm>,
            usize,
            RangePos,
            Vec<StorePattern>,
            Vec<(usize, RangePos, u32, u32)>,
        );
        fn mask(pats: &mut [StorePattern], atom: usize, pos: RangePos) {
            match pos {
                RangePos::Predicate => pats[atom].p = PatternTerm::Var(VarId::MAX),
                RangePos::Object => pats[atom].o = PatternTerm::Var(VarId::MAX),
            }
        }
        let mut merged_any = false;
        loop {
            let mut changed = false;
            // Entries per signature: (scratch index, lo, hi, constants in
            // the slot's interval so far).
            let mut groups: FxHashMap<Sig, Vec<(usize, u32, u32, usize)>> = FxHashMap::default();
            let mut order: Vec<Sig> = Vec::new();
            for (si, s) in scratch.iter().enumerate() {
                if !s.alive {
                    continue;
                }
                let cq = &members[si].cq;
                for (ai, pat) in cq.patterns.iter().enumerate() {
                    for pos in [RangePos::Predicate, RangePos::Object] {
                        let existing = s.ranges.iter().find(|r| r.atom == ai);
                        let (lo, hi, slot_members) = match existing {
                            Some(r) if r.ranged == pos => (r.lo, r.hi, r.members),
                            // One interval per atom: the other position of
                            // an already-ranged atom is not a candidate.
                            Some(_) => continue,
                            None => {
                                let term = match pos {
                                    RangePos::Predicate => pat.p,
                                    RangePos::Object => pat.o,
                                };
                                let PatternTerm::Const(id) = term else { continue };
                                (id.raw(), id.raw() + 1, 1)
                            }
                        };
                        let mut masked = cq.patterns.clone();
                        mask(&mut masked, ai, pos);
                        let mut others: Vec<(usize, RangePos, u32, u32)> = Vec::new();
                        for r in &s.ranges {
                            if r.atom == ai {
                                continue;
                            }
                            // Other ranged slots: mask the (arbitrary)
                            // template constant, carry the interval in the
                            // signature instead.
                            mask(&mut masked, r.atom, r.ranged);
                            others.push((r.atom, r.ranged, r.lo, r.hi));
                        }
                        others.sort_unstable();
                        let sig = (cq.head.clone(), ai, pos, masked, others);
                        let entry = groups.entry(sig.clone()).or_default();
                        if entry.is_empty() {
                            order.push(sig);
                        }
                        entry.push((si, lo, hi, slot_members));
                    }
                }
            }
            let mut consumed = vec![false; scratch.len()];
            for sig in &order {
                let (ai, pos) = (sig.1, sig.2);
                let mut entries: Vec<(usize, u32, u32, usize)> = groups[sig]
                    .iter()
                    .copied()
                    .filter(|&(si, ..)| scratch[si].alive && !consumed[si])
                    .collect();
                if entries.len() < 2 {
                    continue;
                }
                entries.sort_unstable_by_key(|&(_, lo, hi, _)| (lo, hi));
                let mut start = 0;
                while start < entries.len() {
                    let template = &members[entries[start].0].cq.patterns[ai];
                    let mut end = start + 1;
                    while end < entries.len() {
                        let prev_hi = entries[end - 1].2;
                        let next_lo = entries[end].1;
                        let joins = next_lo == prev_hi
                            || (next_lo > prev_hi
                                && self.gap_is_empty(template, pos, prev_hi, next_lo));
                        if !joins {
                            break;
                        }
                        end += 1;
                    }
                    if end - start >= 2 {
                        let keep = entries[start].0;
                        let (lo, hi) = (entries[start].1, entries[end - 1].2);
                        let total: usize = entries[start..end].iter().map(|e| e.3).sum();
                        for &(si, ..) in &entries[start + 1..end] {
                            scratch[si].alive = false;
                            consumed[si] = true;
                        }
                        consumed[keep] = true;
                        scratch[keep].ranges.retain(|r| r.atom != ai);
                        scratch[keep].ranges.push(RangeAtom {
                            atom: ai,
                            ranged: pos,
                            lo,
                            hi,
                            members: total,
                        });
                        changed = true;
                        merged_any = true;
                    }
                    start = end;
                }
            }
            if !changed {
                break;
            }
        }
        merged_any
    }

    /// Does the index hold *no* triple matching `pat`'s template with its
    /// `pos` component in `[lo, hi)`? Variables (and the ranged slot
    /// itself) relax to unbound, so a zero count is conservative: the gap
    /// is empty for every binding the member could produce.
    fn gap_is_empty(&self, pat: &StorePattern, pos: RangePos, lo: u32, hi: u32) -> bool {
        let mut bound = pat.bound();
        match pos {
            RangePos::Predicate => bound[1] = None,
            RangePos::Object => bound[2] = None,
        }
        self.table.count_value_range(&bound, pos, lo, hi) == 0
    }

    /// Pass 3: factor the scans several members share. A scan position
    /// is each member's leaf atom under the INLJ strategy (later atoms
    /// are index probes, not extent scans) and every atom under the hash
    /// strategy; the leaf prediction uses the same first-minimum rule as
    /// the join-order pass, so the factored set matches the lowered plan
    /// exactly.
    fn factor_common_scans(&self, draft: &[DraftFragment]) -> Vec<SharedScanDef> {
        jucq_obs::span!("plan.factor_scans");
        let before = draft_nodes(draft);
        let mut defs: Vec<SharedScanDef> = Vec::new();
        if self.profile.share_scans {
            let mut uses: FxHashMap<StorePattern, usize> = FxHashMap::default();
            let mut order: Vec<StorePattern> = Vec::new();
            let mut count_use = |p: StorePattern| {
                let n = uses.entry(p).or_insert(0);
                if *n == 0 {
                    order.push(p);
                }
                *n += 1;
            };
            for frag in draft {
                for m in &frag.members {
                    if m.cq.patterns.is_empty() {
                        continue;
                    }
                    if self.profile.index_nested_loop_cq {
                        // A ranged leaf is a RangeScan (never shareable
                        // as a plain extent).
                        let leaf = cheapest_atom(&m.counts);
                        if !m.ranges.iter().any(|r| r.atom == leaf) {
                            count_use(m.cq.patterns[leaf]);
                        }
                    } else {
                        for (i, p) in m.cq.patterns.iter().enumerate() {
                            if m.ranges.iter().any(|r| r.atom == i) {
                                continue;
                            }
                            count_use(*p);
                        }
                    }
                }
            }
            defs = order
                .into_iter()
                .filter(|p| uses[p] >= 2)
                .map(|p| SharedScanDef {
                    pattern: p,
                    uses: uses[&p],
                    est: Some(self.table.count(&p.bound()) as f64),
                })
                .collect();
        }
        let saved: usize = defs.iter().map(|d| d.uses - 1).sum();
        jucq_obs::metrics::counter_add("planner.factor_scans.nodes_before", before as u64);
        jucq_obs::metrics::counter_add(
            "planner.factor_scans.nodes_after",
            (before + defs.len()) as u64,
        );
        jucq_obs::metrics::counter_add("planner.factor_scans.shared_defs", defs.len() as u64);
        jucq_obs::metrics::counter_add("planner.factor_scans.scan_uses_saved", saved as u64);
        defs
    }

    /// Pass 4: greedy per-member atom order — cheapest exact extent
    /// first, then repeatedly the connected atom (sharing a variable
    /// with the bound set) of smallest extent, falling back to the
    /// globally smallest remaining atom for disconnected bodies.
    fn select_join_orders(&self, draft: &mut [DraftFragment]) {
        jucq_obs::span!("plan.join_order");
        let before = draft_nodes(draft);
        for frag in draft.iter_mut() {
            for m in &mut frag.members {
                // Ranged atoms need no special seeding: an interval can
                // be the leaf (RangeScan) *or* probed per binding row
                // (RangeProbe), so the cheapest atom leads as usual.
                m.order = atom_order(&m.cq.patterns, &m.counts);
            }
        }
        jucq_obs::metrics::counter_add("planner.join_order.nodes_before", before as u64);
        jucq_obs::metrics::counter_add("planner.join_order.nodes_after", before as u64);
    }

    /// Pass 5: physical lowering — see the module docs for the choices
    /// made here.
    fn lower(
        &self,
        q: &StoreJucq,
        draft: &[DraftFragment],
        shared: Vec<SharedScanDef>,
        range_eligible: usize,
    ) -> Plan {
        jucq_obs::span!("plan.lower");
        let before = draft_nodes(draft) + shared.len();
        let range_scans =
            draft.iter().flat_map(|f| &f.members).map(|m| m.ranges.len()).sum::<usize>();

        if draft.is_empty() || draft.iter().any(|f| f.members.is_empty()) {
            let plan = Plan {
                root: PlanNode::Empty { head: q.head.clone() },
                shared: Vec::new(),
                head: q.head.clone(),
                pipelined: None,
                estimates: Vec::new(),
                sip: Vec::new(),
                range_eligible,
                range_scans: 0,
                views: Vec::new(),
            };
            jucq_obs::metrics::counter_add("planner.lower.nodes_before", before as u64);
            jucq_obs::metrics::counter_add("planner.lower.nodes_after", plan.node_count() as u64);
            return plan;
        }

        let shared_ix: FxHashMap<StorePattern, usize> =
            shared.iter().enumerate().map(|(i, d)| (d.pattern, i)).collect();
        let mut estimates: Vec<(String, f64)> = Vec::new();
        for (i, def) in shared.iter().enumerate() {
            estimates.push((format!("shared_scan[{i}]"), def.est.unwrap_or(0.0)));
        }

        // Estimates over the *rewritten* members (what actually runs).
        let pruned_ucqs: Vec<StoreUcq> = draft
            .iter()
            .map(|f| {
                StoreUcq::new(f.members.iter().map(|m| m.cq.clone()).collect(), f.head.clone())
            })
            .collect();
        let frag_est: Vec<f64> =
            pruned_ucqs.iter().map(|u| self.stats.est_ucq(self.table, u)).collect();
        for (i, est) in frag_est.iter().enumerate() {
            estimates.push((format!("fragment[{i}].union"), *est));
        }

        // Interesting orders: the fragment join order depends only on
        // estimates and heads, so the join key each fragment will be
        // merged on is known *before* member lowering. Lowering passes
        // it down so leaf scans can pick the permutation index whose
        // key order feeds a sort-elided merge join.
        let desired = if self.profile.order_aware {
            interesting_orders(draft, &frag_est)
        } else {
            vec![Vec::new(); draft.len()]
        };

        let mut union_nodes: Vec<Option<PlanNode>> = draft
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let members: Vec<PlanNode> = f
                    .members
                    .iter()
                    .map(|m| self.lower_member(m, &f.head, &shared_ix, &desired[i]))
                    .collect();
                Some(PlanNode::HashUnion {
                    idx: i,
                    head: f.head.clone(),
                    members,
                    est: Some(frag_est[i]),
                })
            })
            .collect();

        // View matching: a fragment whose *logical* (pre-rewrite) UCQ —
        // the same shape the materializer keyed its entry by — has a
        // current-epoch catalog entry is wrapped in a `ViewScan` over
        // its lowered union. The signature travels in the plan; the
        // rows never do (resolution is epoch-exact at evaluation time).
        let mut views: Vec<ViewBindingDef> = Vec::new();
        if let Some(catalog) = self.views.filter(|_| self.profile.view_scans) {
            for (i, slot) in union_nodes.iter_mut().enumerate() {
                let signature = ViewSignature::of(&q.fragments[i]);
                if let Some(tuples) = catalog.contains_current(&signature) {
                    let fallback = slot.take().expect("union lowered exactly once");
                    estimates.push((format!("fragment[{i}].view_scan"), tuples as f64));
                    *slot = Some(PlanNode::ViewScan {
                        idx: i,
                        head: draft[i].head.clone(),
                        view: views.len(),
                        est: Some(tuples as f64),
                        fallback: Box::new(fallback),
                    });
                    views.push(ViewBindingDef { signature, tuples });
                }
            }
        }

        // §4.1: the largest-result fragment is the one pipelined.
        let pipelined = if draft.len() > 1 {
            frag_est.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i)
        } else {
            None
        };

        // Fragment join order: smallest estimate first, then always a
        // fragment connected (sharing a head variable) to the schema
        // accumulated so far; disconnected inputs fall back to the
        // smallest remaining (cartesian product).
        let algo = self.profile.fragment_join;
        let mut remaining: Vec<usize> = (0..draft.len()).collect();
        remaining.sort_by(|&a, &b| frag_est[a].total_cmp(&frag_est[b]));
        let first = remaining.remove(0);
        let mut acc_vars: Vec<VarId> = draft[first].head.clone();
        let mut tree = union_nodes[first].take().expect("each fragment lowered once");
        let mut acc_est = frag_est[first];
        let mut joined: Vec<usize> = vec![first];
        let mut sip: Vec<SipFilterDef> = Vec::new();
        let mut step = 0usize;
        while !remaining.is_empty() {
            let pos = remaining
                .iter()
                .position(|&i| draft[i].head.iter().any(|v| acc_vars.contains(v)))
                .unwrap_or(0);
            let next = remaining.remove(pos);
            joined.push(next);
            if self.profile.sip_filters {
                // The filter keys are exactly the join keys of this
                // step: head variables of the incoming fragment already
                // bound by the accumulated schema. A disconnected
                // fragment (cartesian product) gets no filter.
                let keys: Vec<VarId> =
                    draft[next].head.iter().copied().filter(|v| acc_vars.contains(v)).collect();
                if !keys.is_empty() {
                    sip.push(SipFilterDef { step, target: next, keys });
                }
            }
            for &v in &draft[next].head {
                if !acc_vars.contains(&v) {
                    acc_vars.push(v);
                }
            }
            // Estimate the JUCQ over exactly the fragments joined so far
            // — the same node the join output materializes.
            let sub = StoreJucq::new(
                joined.iter().map(|&i| pruned_ucqs[i].clone()).collect(),
                q.head.clone(),
            );
            let est = self.stats.est_jucq(self.table, &sub);
            let right = union_nodes[next].take().expect("each fragment lowered once");
            // Order-aware step choice: when the inputs' order properties
            // make a (possibly sort-elided) merge cheaper than the
            // profile's algorithm on this step's input estimates, lower
            // to a merge join — chosen by cost, not forced.
            let (step_algo, elided) = if self.profile.order_aware {
                choose_join_algo(algo, &tree, &right, acc_est, frag_est[next])
            } else {
                (algo, (false, false))
            };
            estimates.push((format!("join[{step}].{}", join::op_name(step_algo)), est));
            tree = make_join(step_algo, tree, right, step, est, elided);
            acc_est = est;
            step += 1;
        }

        let final_est =
            self.stats.est_jucq(self.table, &StoreJucq::new(pruned_ucqs, q.head.clone()));
        estimates.push(("dedup".to_string(), final_est));
        let root = PlanNode::Dedup {
            input: Box::new(PlanNode::Project {
                input: Box::new(tree),
                head: q.head.iter().map(|&v| PatternTerm::Var(v)).collect(),
                out_vars: q.head.clone(),
            }),
            est: Some(final_est),
        };
        let plan = Plan {
            root,
            shared,
            head: q.head.clone(),
            pipelined,
            estimates,
            sip,
            range_eligible,
            range_scans,
            views,
        };
        jucq_obs::metrics::counter_add("planner.lower.nodes_before", before as u64);
        jucq_obs::metrics::counter_add("planner.lower.nodes_after", plan.node_count() as u64);
        plan
    }

    /// Lower one union member to its access chain: a leaf scan (shared
    /// or private, filtered when the pattern repeats a variable) extended
    /// by INLJ probes, or member-internal hash joins of scanned extents,
    /// topped by the head projection.
    fn lower_member(
        &self,
        m: &DraftMember,
        frag_head: &[VarId],
        shared_ix: &FxHashMap<StorePattern, usize>,
        desired: &[VarId],
    ) -> PlanNode {
        if m.cq.patterns.is_empty() {
            return PlanNode::TrueRow { out_vars: frag_head.to_vec() };
        }
        let leaf = |pi: usize| -> PlanNode {
            let p = m.cq.patterns[pi];
            if let Some(r) = m.ranges.iter().find(|r| r.atom == pi) {
                let scan = PlanNode::RangeScan {
                    pattern: p,
                    ranged: r.ranged,
                    lo: r.lo,
                    hi: r.hi,
                    members: r.members,
                    est: Some(m.counts[pi] as f64),
                };
                return if p.has_repeated_var() {
                    PlanNode::Filter { pattern: p, input: Box::new(scan) }
                } else {
                    scan
                };
            }
            match shared_ix.get(&p) {
                Some(&id) => {
                    PlanNode::SharedScan { id, pattern: p, est: Some(m.counts[pi] as f64) }
                }
                None => {
                    let perm = if self.profile.order_aware { pick_perm(&p, desired) } else { None };
                    let scan =
                        PlanNode::IndexScan { pattern: p, perm, est: Some(m.counts[pi] as f64) };
                    if p.has_repeated_var() {
                        PlanNode::Filter { pattern: p, input: Box::new(scan) }
                    } else {
                        scan
                    }
                }
            }
        };
        let mut node = leaf(m.order[0]);
        for &pi in &m.order[1..] {
            node = if self.profile.index_nested_loop_cq {
                if let Some(r) = m.ranges.iter().find(|r| r.atom == pi) {
                    PlanNode::RangeProbe {
                        input: Box::new(node),
                        pattern: m.cq.patterns[pi],
                        ranged: r.ranged,
                        lo: r.lo,
                        hi: r.hi,
                        members: r.members,
                    }
                } else {
                    PlanNode::Inlj { input: Box::new(node), pattern: m.cq.patterns[pi] }
                }
            } else {
                PlanNode::HashJoin {
                    left: Box::new(node),
                    right: Box::new(leaf(pi)),
                    step: None,
                    est: None,
                }
            };
        }
        PlanNode::Project {
            input: Box::new(node),
            head: m.cq.head.clone(),
            out_vars: frag_head.to_vec(),
        }
    }
}

/// Greedy atom ordering over precomputed exact extents: start from the
/// smallest atom; repeatedly append the connected atom (sharing a
/// variable with the bound set) of smallest extent; fall back to the
/// globally smallest remaining atom when the body is disconnected.
fn atom_order(patterns: &[StorePattern], counts: &[usize]) -> Vec<usize> {
    if patterns.is_empty() {
        return Vec::new();
    }
    let mut remaining: Vec<usize> = (0..patterns.len()).collect();
    let mut order = Vec::with_capacity(patterns.len());
    let mut bound_vars: Vec<VarId> = Vec::new();

    let first = remaining.iter().copied().min_by_key(|&i| counts[i]).expect("non-empty body");
    order.push(first);
    bound_vars.extend(patterns[first].variables());
    remaining.retain(|&i| i != first);

    while !remaining.is_empty() {
        let connected = remaining
            .iter()
            .copied()
            .filter(|&i| patterns[i].variables().iter().any(|v| bound_vars.contains(v)))
            .min_by_key(|&i| counts[i]);
        let next = connected.unwrap_or_else(|| {
            remaining.iter().copied().min_by_key(|&i| counts[i]).expect("remaining non-empty")
        });
        order.push(next);
        for v in patterns[next].variables() {
            if !bound_vars.contains(&v) {
                bound_vars.push(v);
            }
        }
        remaining.retain(|&i| i != next);
    }
    order
}

/// Build the fragment-level join node matching `algo`. `elided` marks
/// which merge-join inputs already arrive sorted on the join key (only
/// meaningful for [`JoinAlgo::SortMerge`]).
fn make_join(
    algo: JoinAlgo,
    left: PlanNode,
    right: PlanNode,
    step: usize,
    est: f64,
    elided: (bool, bool),
) -> PlanNode {
    let (left, right, step, est) = (Box::new(left), Box::new(right), Some(step), Some(est));
    match algo {
        JoinAlgo::Hash => PlanNode::HashJoin { left, right, step, est },
        JoinAlgo::SortMerge => PlanNode::MergeJoin { left, right, step, est, sort_elided: elided },
        JoinAlgo::BlockNestedLoop => PlanNode::NestedLoopJoin { left, right, step, est },
    }
}

/// The interesting-orders pass: replay the fragment join order (which
/// depends only on estimates and heads — the same greedy loop `lower`
/// runs) and record, per fragment, the join-key sequence it will be
/// merged on. The base fragment inherits the first step's key (it is
/// the left side of that merge); every other fragment gets the key of
/// the step where it joins. Fragments joined by cartesian product keep
/// an empty desired order.
fn interesting_orders(draft: &[DraftFragment], frag_est: &[f64]) -> Vec<Vec<VarId>> {
    let mut desired: Vec<Vec<VarId>> = vec![Vec::new(); draft.len()];
    if draft.len() < 2 {
        return desired;
    }
    let mut remaining: Vec<usize> = (0..draft.len()).collect();
    remaining.sort_by(|&a, &b| frag_est[a].total_cmp(&frag_est[b]));
    let first = remaining.remove(0);
    let mut acc_vars: Vec<VarId> = draft[first].head.clone();
    let mut step = 0usize;
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|&i| draft[i].head.iter().any(|v| acc_vars.contains(v)))
            .unwrap_or(0);
        let next = remaining.remove(pos);
        // The join key in accumulated-schema order — exactly what
        // `PlanNode::join_key` will compute for this step.
        let key: Vec<VarId> =
            acc_vars.iter().copied().filter(|v| draft[next].head.contains(v)).collect();
        desired[next] = key.clone();
        if step == 0 {
            desired[first] = key;
        }
        for &v in &draft[next].head {
            if !acc_vars.contains(&v) {
                acc_vars.push(v);
            }
        }
        step += 1;
    }
    desired
}

/// Pick the permutation index for a leaf scan of `p`: among every
/// candidate whose bound prefix covers the pattern's constants, the one
/// whose output order matches the longest prefix of `desired` (the join
/// key the planner wants this scan sorted on). `None` keeps the default
/// bound-prefix choice — candidates are tried in declaration order with
/// the default first, so a tie never deviates from it.
fn pick_perm(p: &StorePattern, desired: &[VarId]) -> Option<Perm> {
    if desired.is_empty() {
        return None;
    }
    let bound = p.bound();
    let default = Perm::for_bound(&bound);
    let score = |perm: Perm| -> usize {
        scan_order(p, perm).iter().zip(desired).take_while(|(a, b)| a == b).count()
    };
    let mut best = default;
    let mut best_score = score(default);
    for perm in Perm::candidates_for_bound(&bound) {
        let s = score(perm);
        if s > best_score {
            best = perm;
            best_score = s;
        }
    }
    (best != default).then_some(best)
}

/// Order-aware join-step choice: compute the step's join key and which
/// inputs already arrive sorted on it, then price the profile's
/// algorithm against the (possibly sort-elided) merge on the inputs'
/// estimated sizes. Merge wins only when strictly cheaper — or when the
/// profile forces it anyway, in which case the elision flags are a free
/// improvement.
fn choose_join_algo(
    profile_algo: JoinAlgo,
    left: &PlanNode,
    right: &PlanNode,
    l_est: f64,
    r_est: f64,
) -> (JoinAlgo, (bool, bool)) {
    if matches!(profile_algo, JoinAlgo::BlockNestedLoop) {
        // The MySQL-like profile's quadratic join is a modeled weakness
        // of that engine, not a cost-model oversight — don't rescue it.
        return (profile_algo, (false, false));
    }
    let key = PlanNode::join_key(left, right);
    if key.is_empty() {
        // Cartesian product: a merge degenerates and order buys nothing.
        return (profile_algo, (false, false));
    }
    let elide = (left.order().starts_with(&key), right.order().starts_with(&key));
    if matches!(profile_algo, JoinAlgo::SortMerge) {
        return (JoinAlgo::SortMerge, elide);
    }
    let base = join_step_cost(profile_algo, l_est, r_est, (false, false));
    let merge = join_step_cost(JoinAlgo::SortMerge, l_est, r_est, elide);
    if merge < base {
        (JoinAlgo::SortMerge, elide)
    } else {
        (profile_algo, (false, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn collapsible_runs_group_members_differing_in_one_constant() {
        let member = |p: u32, o: u32| {
            StoreCq::with_var_head(vec![StorePattern::new(v(0), c(p), c(o))], vec![0])
        };
        let members = [
            member(10, 7),
            member(10, 5),
            member(10, 6),
            member(10, 9), // gap after 7: no run with 5..=7
            member(11, 20),
            member(12, 20), // predicates 11, 12 with the same object
            StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), c(8))], vec![]),
        ];
        let runs = collapsible_runs(members.iter());
        let object_run =
            CollapsibleRun { atom: 0, pos: RangePos::Object, lo: 5, hi: 8, members: vec![1, 2, 0] };
        let predicate_run = CollapsibleRun {
            atom: 0,
            pos: RangePos::Predicate,
            lo: 11,
            hi: 13,
            members: vec![4, 5],
        };
        // A different head never joins a run, even with the next object.
        assert_eq!(runs, vec![object_run, predicate_run]);
    }

    fn table() -> TripleTable {
        TripleTable::build(&[
            t(1, 10, 2),
            t(2, 10, 3),
            t(3, 10, 1),
            t(1, 11, 100),
            t(2, 11, 101),
            t(4, 10, 4),
        ])
    }

    fn plan_of(q: &StoreJucq, profile: &EngineProfile) -> Plan {
        let table = table();
        let stats = Statistics::build(&table);
        Planner::new(&table, &stats, profile).plan(q)
    }

    fn one_pattern_member(p: StorePattern, head: Vec<VarId>) -> StoreCq {
        StoreCq::with_var_head(vec![p], head)
    }

    #[test]
    fn order_starts_from_cheapest_atom() {
        let patterns = vec![
            StorePattern::new(v(0), c(10), v(1)),   // 4 matches
            StorePattern::new(v(0), c(11), c(100)), // 1 match
        ];
        let counts = vec![4, 1];
        let order = atom_order(&patterns, &counts);
        assert_eq!(order[0], 1);
    }

    #[test]
    fn order_prefers_connected_atoms() {
        // The connected atom (?0 10 ?1, 4 matches) beats the cheaper
        // but disconnected (?2 11 101, 1 match): connectivity trumps
        // extent size once a variable is bound.
        let patterns = vec![
            StorePattern::new(v(0), c(11), c(100)), // 1 match, binds ?0
            StorePattern::new(v(0), c(10), v(1)),   // 4 matches, connected
            StorePattern::new(v(2), c(11), c(101)), // 1 match, disconnected
        ];
        let counts = vec![1, 4, 1];
        let order = atom_order(&patterns, &counts);
        assert_eq!(order, vec![0, 1, 2], "connected beats cheaper disconnected");
    }

    #[test]
    fn empty_extent_member_is_pruned_to_const_empty_plan() {
        let frag = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(0), c(99), v(1)), vec![0])],
            vec![0],
        );
        let plan = plan_of(&StoreJucq::new(vec![frag], vec![0]), &EngineProfile::pg_like());
        assert!(plan.is_const_empty());
        assert!(plan.estimates.is_empty());
    }

    #[test]
    fn duplicate_and_subsumed_members_are_dropped() {
        let narrow = one_pattern_member(StorePattern::new(v(0), c(10), v(1)), vec![0, 1]);
        let superset = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), c(100))],
            vec![0, 1],
        );
        let frag = StoreUcq::new(vec![narrow.clone(), narrow.clone(), superset], vec![0, 1]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        assert_eq!(members.len(), 1, "duplicate and subsumed members dropped");
    }

    #[test]
    fn subsumption_requires_equal_heads() {
        let a = one_pattern_member(StorePattern::new(v(0), c(10), v(1)), vec![0, 1]);
        // Same body superset but a constant head: different output.
        let b = StoreCq::new(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), c(100))],
            vec![PatternTerm::Var(0), PatternTerm::Const(id(7))],
        );
        let frag = StoreUcq::new(vec![a, b], vec![0, 1]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        assert_eq!(members.len(), 2, "different heads are never subsumed");
    }

    #[test]
    fn common_leaf_scans_are_factored() {
        // Two members whose cheapest atom is the same pattern.
        let shared_leaf = StorePattern::new(v(0), c(11), c(100)); // 1 match
        let a = StoreCq::with_var_head(
            vec![shared_leaf, StorePattern::new(v(0), c(10), v(1))],
            vec![0, 1],
        );
        let b = StoreCq::with_var_head(
            vec![shared_leaf, StorePattern::new(v(1), c(10), v(0))],
            vec![0, 1],
        );
        let frag = StoreUcq::new(vec![a, b], vec![0, 1]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        assert_eq!(plan.shared.len(), 1);
        assert_eq!(plan.shared[0].pattern, shared_leaf);
        assert_eq!(plan.shared[0].uses, 2);
        assert!(plan.estimates.iter().any(|(l, _)| l == "shared_scan[0]"));
    }

    #[test]
    fn scan_sharing_can_be_disabled() {
        let shared_leaf = StorePattern::new(v(0), c(11), c(100));
        let a = StoreCq::with_var_head(
            vec![shared_leaf, StorePattern::new(v(0), c(10), v(1))],
            vec![0, 1],
        );
        let b = StoreCq::with_var_head(
            vec![shared_leaf, StorePattern::new(v(1), c(10), v(0))],
            vec![0, 1],
        );
        let frag = StoreUcq::new(vec![a, b], vec![0, 1]);
        let profile = EngineProfile::pg_like().with_scan_sharing(false);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &profile);
        assert!(plan.shared.is_empty());
    }

    #[test]
    fn hash_strategy_factors_all_scan_positions() {
        // Neither member's pattern set contains the other's, so both
        // survive the subsumption pass and both scan `pat`.
        let pat = StorePattern::new(v(0), c(10), v(1));
        let a = StoreCq::with_var_head(vec![pat, StorePattern::new(v(0), c(11), v(3))], vec![0, 1]);
        let b = StoreCq::with_var_head(vec![pat, StorePattern::new(v(1), c(11), v(2))], vec![0, 1]);
        let mut profile = EngineProfile::pg_like();
        profile.index_nested_loop_cq = false;
        let frag = StoreUcq::new(vec![a, b], vec![0, 1]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &profile);
        assert_eq!(plan.shared.len(), 1, "(?0 #u10 ?1) scanned by both members");
        // Member b's plan contains a member-internal hash join.
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        let has_member_join = members.iter().any(|m| {
            matches!(
                m,
                PlanNode::Project { input, .. }
                    if matches!(**input, PlanNode::HashJoin { step: None, .. })
            )
        });
        assert!(has_member_join, "hash strategy lowers member joins");
    }

    #[test]
    fn fragment_join_algo_follows_profile() {
        let fa = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(0), c(10), v(1)), vec![0, 1])],
            vec![0, 1],
        );
        let fb = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(0), c(11), v(2)), vec![0, 2])],
            vec![0, 2],
        );
        let q = StoreJucq::new(vec![fa, fb], vec![0, 1, 2]);
        let hash = plan_of(&q, &EngineProfile::pg_like().with_order_aware(false));
        let bnl = plan_of(&q, &EngineProfile::mysql_like());
        let top_join = |p: &Plan| match &p.root {
            PlanNode::Dedup { input, .. } => match &**input {
                PlanNode::Project { input, .. } => (**input).clone(),
                other => other.clone(),
            },
            other => other.clone(),
        };
        assert!(matches!(top_join(&hash), PlanNode::HashJoin { step: Some(0), .. }));
        // The MySQL-like profile's weak join is never rescued by the
        // order-aware pass, even with the knob on.
        assert!(matches!(top_join(&bnl), PlanNode::NestedLoopJoin { step: Some(0), .. }));
        assert!(hash.pipelined.is_some());
        assert!(hash.estimates.iter().any(|(l, _)| l == "join[0].hash_join"));
        assert!(bnl.estimates.iter().any(|(l, _)| l == "join[0].block_nested_loop_join"));
    }

    #[test]
    fn order_aware_planner_elides_merge_sorts_by_cost() {
        // Two single-member fragments joining on ?0: both leaf scans can
        // emit in ?0-first order, so the fully elided merge undercuts
        // the hash join and wins on cost despite the hash-join profile.
        let fa = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(0), c(10), v(1)), vec![0, 1])],
            vec![0, 1],
        );
        let fb = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(0), c(11), v(2)), vec![0, 2])],
            vec![0, 2],
        );
        let q = StoreJucq::new(vec![fa, fb], vec![0, 1, 2]);
        let plan = plan_of(&q, &EngineProfile::pg_like());
        let top_join = |p: &Plan| match &p.root {
            PlanNode::Dedup { input, .. } => match &**input {
                PlanNode::Project { input, .. } => (**input).clone(),
                other => other.clone(),
            },
            other => other.clone(),
        };
        let join = top_join(&plan);
        assert!(
            matches!(join, PlanNode::MergeJoin { step: Some(0), sort_elided: (true, true), .. }),
            "{join:?}"
        );
        assert!(plan.estimates.iter().any(|(l, _)| l == "join[0].sort_merge_join"));
        // The chosen merge is genuinely ordered: both inputs' order
        // properties start with the join key.
        if let PlanNode::MergeJoin { left, right, .. } = &join {
            let key = PlanNode::join_key(left, right);
            assert!(!key.is_empty());
            assert!(left.order().starts_with(&key));
            assert!(right.order().starts_with(&key));
        }
    }

    #[test]
    fn interesting_orders_steer_leaf_permutation_choice() {
        // Fragment heads join on ?1 — the *object* of fragment a's
        // pattern. The default perm for a p-bound pattern (Pso) emits in
        // subject order; the order-aware planner must flip that leaf to
        // an object-first permutation so the merge key leads.
        let fa = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(0), c(10), v(1)), vec![1])],
            vec![1],
        );
        let fb = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(1), c(11), v(2)), vec![1, 2])],
            vec![1, 2],
        );
        let q = StoreJucq::new(vec![fa, fb], vec![1, 2]);
        let plan = plan_of(&q, &EngineProfile::pg_like());
        let mut saw_pos = false;
        for u in plan.unions() {
            let Some((_, head, members)) = u.as_union() else { continue };
            if head != [1] {
                continue;
            }
            for m in members {
                if let PlanNode::Project { input, .. } = m {
                    if let PlanNode::IndexScan { perm, .. } = &**input {
                        assert_eq!(*perm, Some(Perm::Pos), "object-first perm");
                        saw_pos = true;
                    }
                }
            }
        }
        assert!(saw_pos, "fragment a's leaf scan was lowered with a perm override");
    }

    #[test]
    fn repeated_var_scan_gets_a_filter_node() {
        let frag = StoreUcq::new(
            vec![one_pattern_member(StorePattern::new(v(0), c(10), v(0)), vec![0])],
            vec![0],
        );
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        assert!(matches!(
            &members[0],
            PlanNode::Project { input, .. } if matches!(**input, PlanNode::Filter { .. })
        ));
    }

    #[test]
    fn consecutive_object_constants_collapse_into_a_range_scan() {
        // Members (?0 #u10 #uC) for C ∈ {1, 2, 3}: same head, same shape,
        // consecutive object ids ⇒ one RangeScan o∈[1, 4).
        let members: Vec<StoreCq> = [1u32, 2, 3]
            .iter()
            .map(|&o| one_pattern_member(StorePattern::new(v(0), c(10), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        assert_eq!(plan.range_eligible, 1);
        assert_eq!(plan.range_scans, 1);
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        assert_eq!(members.len(), 1, "three members collapsed into one");
        match &members[0] {
            PlanNode::Project { input, .. } => match &**input {
                PlanNode::RangeScan { ranged, lo, hi, members, .. } => {
                    assert_eq!(*ranged, crate::table::RangePos::Object);
                    assert_eq!((*lo, *hi), (1, 4));
                    assert_eq!(*members, 3);
                }
                other => panic!("expected RangeScan leaf, got {other:?}"),
            },
            other => panic!("expected Project member, got {other:?}"),
        }
    }

    #[test]
    fn non_consecutive_constants_do_not_collapse() {
        // Objects 1 and 3 are not adjacent raw ids: no run, no rewrite.
        let members: Vec<StoreCq> = [1u32, 3]
            .iter()
            .map(|&o| one_pattern_member(StorePattern::new(v(0), c(10), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        assert_eq!(plan.range_eligible, 0);
        assert_eq!(plan.range_scans, 0);
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        assert_eq!(members.len(), 2);
    }

    #[test]
    fn range_knob_off_keeps_the_union_but_reports_eligibility() {
        let members: Vec<StoreCq> = [1u32, 2, 3]
            .iter()
            .map(|&o| one_pattern_member(StorePattern::new(v(0), c(10), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let profile = EngineProfile::pg_like().with_range_scans(false);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &profile);
        assert_eq!(plan.range_eligible, 1, "eligibility is detected even when off");
        assert_eq!(plan.range_scans, 0);
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        assert_eq!(members.len(), 3, "knob off: plain UCQ member per constant");
    }

    #[test]
    fn consecutive_predicate_constants_collapse_in_predicate_position() {
        // Members (?0 #uP ?1) for P ∈ {10, 11}: consecutive predicates.
        let members: Vec<StoreCq> = [10u32, 11]
            .iter()
            .map(|&p| one_pattern_member(StorePattern::new(v(0), c(p), v(1)), vec![0, 1]))
            .collect();
        let frag = StoreUcq::new(members, vec![0, 1]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        assert_eq!(plan.range_scans, 1);
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        match &members[0] {
            PlanNode::Project { input, .. } => match &**input {
                PlanNode::RangeScan { ranged, lo, hi, .. } => {
                    assert_eq!(*ranged, crate::table::RangePos::Predicate);
                    assert_eq!((*lo, *hi), (10, 12));
                }
                other => panic!("expected RangeScan leaf, got {other:?}"),
            },
            other => panic!("expected Project member, got {other:?}"),
        }
    }

    #[test]
    fn ranged_atoms_off_the_leaf_become_range_probes() {
        // Two-atom members differing in the first atom's object const:
        // the second atom's 1-row extent leads, and the collapsed
        // interval is probed per binding row instead of being pinned at
        // the leaf (the old behavior, which conserved all probe work).
        let members: Vec<StoreCq> = [2u32, 3]
            .iter()
            .map(|&o| {
                StoreCq::with_var_head(
                    vec![
                        StorePattern::new(v(0), c(10), c(o)),
                        StorePattern::new(v(0), c(11), c(100)), // 1 match
                    ],
                    vec![0],
                )
            })
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        assert_eq!(plan.range_scans, 1);
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        assert_eq!(members.len(), 1);
        match &members[0] {
            PlanNode::Project { input, .. } => match &**input {
                PlanNode::RangeProbe { input, ranged, lo, hi, members, .. } => {
                    assert_eq!(*ranged, crate::table::RangePos::Object);
                    assert_eq!((*lo, *hi), (2, 4));
                    assert_eq!(*members, 2);
                    assert!(
                        matches!(**input, PlanNode::IndexScan { .. }),
                        "the selective atom stays the leaf"
                    );
                }
                other => panic!("expected RangeProbe over IndexScan, got {other:?}"),
            },
            other => panic!("expected Project member, got {other:?}"),
        }
    }

    #[test]
    fn single_atom_grids_collapse_one_slot_per_atom() {
        // Members (?0 #uP #uO) for P ∈ {10, 11}, O ∈ {2, 3}: the
        // predicate runs merge (one per object), and since an atom
        // carries at most one interval the object slot of the merged
        // atoms stays constant — 4 members become 2, each p∈[10, 12).
        let table = TripleTable::build(&[t(1, 10, 2), t(2, 10, 3), t(3, 11, 2), t(4, 11, 3)]);
        let members: Vec<StoreCq> = [(10u32, 2u32), (10, 3), (11, 2), (11, 3)]
            .iter()
            .map(|&(p, o)| one_pattern_member(StorePattern::new(v(0), c(p), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let q = StoreJucq::from_ucq(frag);
        let stats = Statistics::build(&table);
        let profile = EngineProfile::pg_like();
        let plan = Planner::new(&table, &stats, &profile).plan(&q);
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        assert_eq!(members.len(), 2, "one member per object, predicates collapsed");
        assert_eq!(plan.range_scans, 2);
    }

    #[test]
    fn fixpoint_collapses_a_grid_across_two_atoms() {
        // Q23's shape: (?0 #uP #u100) ⋈ (?0 #u11 #uC) for P ∈ {10, 11}...
        // predicates here must not overlap the type predicate, so use
        // P ∈ {10, 11} on atom 0 and objects C ∈ {100, 101} on a second
        // atom with fixed predicate. 2×2 = 4 members fix down to ONE
        // member with an interval on each atom.
        let table = TripleTable::build(&[t(1, 10, 5), t(2, 11, 5), t(1, 12, 100), t(2, 12, 101)]);
        let members: Vec<StoreCq> = [(10u32, 100u32), (10, 101), (11, 100), (11, 101)]
            .iter()
            .map(|&(p, o)| {
                StoreCq::with_var_head(
                    vec![StorePattern::new(v(0), c(p), c(5)), StorePattern::new(v(0), c(12), c(o))],
                    vec![0],
                )
            })
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let q = StoreJucq::from_ucq(frag);
        let stats = Statistics::build(&table);
        let profile = EngineProfile::pg_like();
        let plan = Planner::new(&table, &stats, &profile).plan(&q);
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        assert_eq!(members.len(), 1, "2x2 grid fixes down to one member");
        assert_eq!(plan.range_scans, 2, "one interval per atom");
    }

    #[test]
    fn empty_gaps_between_interval_runs_are_bridged() {
        // Objects 5 and 7 are not adjacent, but no triple matches
        // (?s #u10 #u6): the gap is provably empty, so the interval
        // widens over it — o∈[5, 8) — without adding a row.
        let table = TripleTable::build(&[t(1, 10, 5), t(2, 10, 7), t(3, 11, 6)]);
        let members: Vec<StoreCq> = [5u32, 7]
            .iter()
            .map(|&o| one_pattern_member(StorePattern::new(v(0), c(10), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let q = StoreJucq::from_ucq(frag);
        let stats = Statistics::build(&table);
        let profile = EngineProfile::pg_like();
        let plan = Planner::new(&table, &stats, &profile).plan(&q);
        assert_eq!(plan.range_eligible, 1);
        assert_eq!(plan.range_scans, 1);
        let unions = plan.unions();
        let (_, _, members) = unions[0].as_union().unwrap();
        assert_eq!(members.len(), 1);
        match &members[0] {
            PlanNode::Project { input, .. } => match &**input {
                PlanNode::RangeScan { lo, hi, members, .. } => {
                    assert_eq!((*lo, *hi), (5, 8));
                    assert_eq!(*members, 2);
                }
                other => panic!("expected RangeScan leaf, got {other:?}"),
            },
            other => panic!("expected Project member, got {other:?}"),
        }
    }

    #[test]
    fn range_probe_plans_return_the_same_rows_as_ucq() {
        use crate::engine::Store;
        // Two-atom members where the collapsed interval rides a probe:
        // every (knob × batch size) combination must agree row-for-row.
        let members: Vec<StoreCq> = [1u32, 2, 3]
            .iter()
            .map(|&o| {
                StoreCq::with_var_head(
                    vec![
                        StorePattern::new(v(0), c(10), c(o)),
                        StorePattern::new(v(0), c(11), v(1)),
                    ],
                    vec![0, 1],
                )
            })
            .collect();
        let frag = StoreUcq::new(members, vec![0, 1]);
        let q = StoreJucq::from_ucq(frag);
        let triples: Vec<TripleId> =
            vec![t(1, 10, 2), t(2, 10, 3), t(3, 10, 1), t(1, 11, 100), t(2, 11, 101), t(4, 10, 4)];
        let mut rows_by_mode = Vec::new();
        for on in [true, false] {
            for batch in [1, 1024] {
                let profile = EngineProfile::pg_like().with_range_scans(on).with_batch_size(batch);
                let s = Store::from_triples(&triples, profile);
                let out = s.eval_jucq(&q).expect("evaluation succeeds");
                let mut r = out.relation;
                r.sort();
                if on {
                    assert!(
                        out.counters.range_scans > 0,
                        "collapsed plan exercises a range kernel (batch={batch})"
                    );
                }
                rows_by_mode.push(r.to_rows());
            }
        }
        for w in rows_by_mode.windows(2) {
            assert_eq!(w[0], w[1], "range-probe and UCQ plans are row-identical");
        }
    }

    #[test]
    fn collapsed_plans_return_the_same_rows() {
        use crate::engine::Store;
        let members: Vec<StoreCq> = [1u32, 2, 3]
            .iter()
            .map(|&o| one_pattern_member(StorePattern::new(v(0), c(10), c(o)), vec![0]))
            .collect();
        let frag = StoreUcq::new(members, vec![0]);
        let q = StoreJucq::from_ucq(frag);
        let triples: Vec<TripleId> =
            vec![t(1, 10, 2), t(2, 10, 3), t(3, 10, 1), t(1, 11, 100), t(2, 11, 101), t(4, 10, 4)];
        let mut rows_by_mode = Vec::new();
        for on in [true, false] {
            for batch in [1, 1024] {
                let profile = EngineProfile::pg_like().with_range_scans(on).with_batch_size(batch);
                let s = Store::from_triples(&triples, profile);
                let out = s.eval_jucq(&q).expect("evaluation succeeds");
                let mut r = out.relation;
                r.sort();
                assert_eq!(
                    out.counters.range_scans,
                    u64::from(on),
                    "range_scans counter tracks the knob (batch={batch})"
                );
                rows_by_mode.push(r.to_rows());
            }
        }
        for w in rows_by_mode.windows(2) {
            assert_eq!(w[0], w[1], "range and UCQ plans are row-identical");
        }
    }

    #[test]
    fn render_shows_shared_table_and_tree() {
        let shared_leaf = StorePattern::new(v(0), c(11), c(100));
        let a = StoreCq::with_var_head(
            vec![shared_leaf, StorePattern::new(v(0), c(10), v(1))],
            vec![0, 1],
        );
        let b = StoreCq::with_var_head(
            vec![shared_leaf, StorePattern::new(v(1), c(10), v(0))],
            vec![0, 1],
        );
        let frag = StoreUcq::new(vec![a, b], vec![0, 1]);
        let plan = plan_of(&StoreJucq::from_ucq(frag), &EngineProfile::pg_like());
        let text = plan.render(3);
        assert!(text.contains("Shared scans:"), "{text}");
        assert!(text.contains("SharedScan #0"), "{text}");
        assert!(text.contains("Dedup"), "{text}");
        assert!(text.contains("HashUnion fragment[0]"), "{text}");
        assert!(text.contains("Inlj probe"), "{text}");
    }
}
