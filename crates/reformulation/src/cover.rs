//! BGP query covers (Definition 3.3).
//!
//! A cover of `q(x̄):- t₁,…,tₙ` is a set of fragments (non-empty,
//! possibly overlapping subsets of the atoms) such that:
//!
//! 1. the fragments' union is all of `{t₁,…,tₙ}`;
//! 2. no fragment is included in another;
//! 3. with more than one fragment, every fragment joins (shares a
//!    variable) with at least one other.
//!
//! Following §3 ("In practice, however, we require each fragment to
//! share a variable with another (if any), so that cover queries, hence
//! cover-based reformulations do not feature cartesian products"), we
//! additionally require each fragment's own join graph to be connected.
//!
//! Cover *search* works on [`CoverMasks`]: fragments as `u64` atom
//! bitmasks and cover-query heads as variable bitmasks, so moves,
//! validity checks and memo keys never allocate. [`Cover`] stays the
//! result type.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use jucq_store::VarId;
use serde::{Deserialize, Serialize};

use crate::bgp::BgpQuery;

/// A cover: a set of fragments, each a sorted set of atom indices.
/// Fragments are kept sorted for canonical comparison.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Cover {
    fragments: BTreeSet<BTreeSet<usize>>,
}

/// Why a candidate cover is invalid for a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverError {
    /// A fragment is empty.
    EmptyFragment,
    /// A fragment references an atom index outside the query.
    AtomOutOfRange {
        /// The offending index.
        index: usize,
    },
    /// The fragments' union misses some atom.
    MissingAtom {
        /// An uncovered atom index.
        index: usize,
    },
    /// One fragment is a subset of another.
    IncludedFragment,
    /// A fragment's internal join graph is disconnected (cartesian
    /// product inside a cover query).
    DisconnectedFragment,
    /// A fragment shares no variable with any other fragment.
    IsolatedFragment,
    /// The query is too large for the bitmask cover search (more than
    /// [`MAX_MASK_ATOMS`] atoms or [`MAX_MASK_VARS`] variables).
    TooLarge {
        /// The query's atom count.
        atoms: usize,
        /// The query's distinct variable count.
        variables: usize,
    },
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::EmptyFragment => write!(f, "empty fragment"),
            CoverError::AtomOutOfRange { index } => write!(f, "atom index {index} out of range"),
            CoverError::MissingAtom { index } => write!(f, "atom {index} not covered"),
            CoverError::IncludedFragment => write!(f, "fragment included in another"),
            CoverError::DisconnectedFragment => write!(f, "fragment join graph disconnected"),
            CoverError::IsolatedFragment => write!(f, "fragment joins no other fragment"),
            CoverError::TooLarge { atoms, variables } => write!(
                f,
                "query too large for cover search: {atoms} atoms, {variables} variables \
                 (at most {MAX_MASK_ATOMS} atoms and {MAX_MASK_VARS} variables)"
            ),
        }
    }
}

impl std::error::Error for CoverError {}

impl Cover {
    /// Build a cover from fragments, validating Definition 3.3 against
    /// `q` (plus internal fragment connectivity).
    pub fn new(q: &BgpQuery, fragments: Vec<Vec<usize>>) -> Result<Self, CoverError> {
        let n = q.len();
        let mut sets: BTreeSet<BTreeSet<usize>> = BTreeSet::new();
        for f in fragments {
            if f.is_empty() {
                return Err(CoverError::EmptyFragment);
            }
            if let Some(&bad) = f.iter().find(|&&i| i >= n) {
                return Err(CoverError::AtomOutOfRange { index: bad });
            }
            sets.insert(f.into_iter().collect());
        }
        let cover = Cover { fragments: sets };
        cover.validate(q)?;
        Ok(cover)
    }

    /// The canonical single-fragment cover (the classical UCQ
    /// reformulation shape) — requires a connected query body.
    pub fn single_fragment(q: &BgpQuery) -> Result<Self, CoverError> {
        Cover::new(q, vec![(0..q.len()).collect()])
    }

    /// The all-singletons cover (the SCQ reformulation of \[13\]).
    pub fn singletons(q: &BgpQuery) -> Result<Self, CoverError> {
        Cover::new(q, (0..q.len()).map(|i| vec![i]).collect())
    }

    fn validate(&self, q: &BgpQuery) -> Result<(), CoverError> {
        // Union covers all atoms.
        for i in 0..q.len() {
            if !self.fragments.iter().any(|f| f.contains(&i)) {
                return Err(CoverError::MissingAtom { index: i });
            }
        }
        // No inclusion.
        for a in &self.fragments {
            for b in &self.fragments {
                if a != b && a.is_subset(b) {
                    return Err(CoverError::IncludedFragment);
                }
            }
        }
        // Internal connectivity.
        for f in &self.fragments {
            let idx: Vec<usize> = f.iter().copied().collect();
            if !q.atoms_connected(&idx) {
                return Err(CoverError::DisconnectedFragment);
            }
        }
        // Pairwise join requirement.
        if self.fragments.len() > 1 {
            for f in &self.fragments {
                let f_vars: BTreeSet<_> = f.iter().flat_map(|&i| q.atoms[i].variables()).collect();
                let joins_other = self.fragments.iter().any(|g| {
                    g != f
                        && g.iter()
                            .flat_map(|&i| q.atoms[i].variables())
                            .any(|v| f_vars.contains(&v))
                });
                if !joins_other {
                    return Err(CoverError::IsolatedFragment);
                }
            }
        }
        Ok(())
    }

    /// The fragments, as sorted index vectors.
    pub fn fragments(&self) -> Vec<Vec<usize>> {
        self.fragments.iter().map(|f| f.iter().copied().collect()).collect()
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True iff there are no fragments (only for the empty query).
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// The cover queries (Definition 3.4), in fragment order. Each
    /// fragment's head exposes the variables shared with the atoms of
    /// the *other fragments* — including overlap atoms, which belong to
    /// both sides (the subtlety that makes overlapping covers sound).
    pub fn cover_queries(&self, q: &BgpQuery) -> Vec<BgpQuery> {
        let frags = self.fragments();
        frags
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut others: Vec<usize> = frags
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .flat_map(|(_, g)| g.iter().copied())
                    .collect();
                others.sort_unstable();
                others.dedup();
                q.cover_query_in(f, &others)
            })
            .collect()
    }

    /// The fragments as atom bitmasks, in fragment order. Every atom
    /// index must be below [`MAX_MASK_ATOMS`] (true of any cover of a
    /// query [`CoverMasks::new`] accepts).
    pub fn masks(&self) -> Vec<AtomMask> {
        self.fragments.iter().map(|f| f.iter().fold(0, |m, &i| m | 1 << i)).collect()
    }

    /// Build a cover from atom-bitmask fragments, validating it like
    /// [`Cover::new`].
    pub fn from_masks(q: &BgpQuery, fragments: &[AtomMask]) -> Result<Self, CoverError> {
        Cover::new(q, fragments.iter().map(|&m| atoms_of(m).collect()).collect())
    }
}

/// A set of query atoms: bit `i` stands for atom `tᵢ₊₁`.
pub type AtomMask = u64;

/// A set of query variables, over [`CoverMasks`]' dense numbering of
/// the query's variables in first-occurrence order.
pub type VarMask = u128;

/// Most atoms the bitmask cover search handles.
pub const MAX_MASK_ATOMS: usize = AtomMask::BITS as usize;

/// Most distinct variables the bitmask cover search handles.
pub const MAX_MASK_VARS: usize = VarMask::BITS as usize;

/// The atom indices of a mask, ascending.
pub fn atoms_of(mask: AtomMask) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            i
        })
    })
}

/// [`Cover`]'s fragment order on masks: the lexicographic order of the
/// fragments' ascending atom-index lists (a proper prefix sorts first).
pub fn lex_cmp(a: AtomMask, b: AtomMask) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    // Below the lowest differing atom both lists agree. The mask holding
    // that atom lists it next; the other lists a larger atom, or ends.
    let low = (a ^ b).trailing_zeros();
    let continues = |m: AtomMask| low < 63 && m >> (low + 1) != 0;
    match (a >> low & 1 == 1, continues(a), continues(b)) {
        (true, _, true) | (false, false, _) => Ordering::Less,
        _ => Ordering::Greater,
    }
}

/// A query's atoms and variables as bitmasks: everything Definition
/// 3.3, the GCov move and the cover-query heads of Definition 3.4 need,
/// without allocating per check.
#[derive(Debug, Clone)]
pub struct CoverMasks {
    /// Per atom, the variables it mentions.
    atom_vars: Vec<VarMask>,
    /// The query's distinguished variables.
    head: VarMask,
}

impl CoverMasks {
    /// Number the query's atoms and variables. Queries beyond
    /// [`MAX_MASK_ATOMS`] atoms or [`MAX_MASK_VARS`] variables get
    /// [`CoverError::TooLarge`].
    pub fn new(q: &BgpQuery) -> Result<Self, CoverError> {
        let vars = q.variables();
        if q.len() > MAX_MASK_ATOMS || vars.len() > MAX_MASK_VARS {
            return Err(CoverError::TooLarge { atoms: q.len(), variables: vars.len() });
        }
        let bit = |v: VarId| -> VarMask {
            1 << vars.iter().position(|&w| w == v).expect("head and body variables are numbered")
        };
        Ok(CoverMasks {
            atom_vars: q
                .atoms
                .iter()
                .map(|a| a.variables().iter().fold(0, |m, &v| m | bit(v)))
                .collect(),
            head: q.head.iter().fold(0, |m, &v| m | bit(v)),
        })
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atom_vars.len()
    }

    /// True iff the query has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atom_vars.is_empty()
    }

    /// Every atom.
    pub fn full(&self) -> AtomMask {
        match self.len() {
            0 => 0,
            n => AtomMask::MAX >> (MAX_MASK_ATOMS - n),
        }
    }

    /// The variables of some atoms.
    pub fn vars(&self, atoms: AtomMask) -> VarMask {
        atoms_of(atoms).fold(0, |m, i| m | self.atom_vars[i])
    }

    /// True iff the atoms form a connected join graph (see
    /// [`BgpQuery::atoms_connected`]).
    pub fn connected(&self, atoms: AtomMask) -> bool {
        let mut reached = atoms & atoms.wrapping_neg();
        let mut vars = self.vars(reached);
        loop {
            let grown = atoms_of(atoms & !reached)
                .filter(|&i| self.atom_vars[i] & vars != 0)
                .fold(reached, |m, i| m | 1 << i);
            if grown == reached {
                return reached == atoms;
            }
            vars = self.vars(grown);
            reached = grown;
        }
    }

    /// The head of a fragment's cover query (Definition 3.4): its
    /// variables that are distinguished or occur in `context`, the
    /// atoms of the other fragments.
    pub fn head(&self, fragment: AtomMask, context: AtomMask) -> VarMask {
        self.vars(fragment) & (self.head | self.vars(context))
    }

    /// True iff `fragments` — distinct masks — form a valid cover, as
    /// [`Cover::new`] would judge them.
    pub fn is_cover(&self, fragments: &[AtomMask]) -> bool {
        let union = fragments.iter().fold(0, |m, f| m | f);
        union == self.full()
            && fragments.iter().all(|&f| f != 0 && self.connected(f))
            && fragments
                .iter()
                .enumerate()
                .all(|(i, &a)| fragments.iter().enumerate().all(|(j, &b)| i == j || a & b != a))
            && self.fragments_join(fragments, None)
    }

    /// Every fragment (but `skip`) shares a variable with another one
    /// (but `skip`); vacuous for one remaining fragment.
    fn fragments_join(&self, fragments: &[AtomMask], skip: Option<usize>) -> bool {
        let kept = || fragments.iter().enumerate().filter(move |&(i, _)| Some(i) != skip);
        if kept().count() <= 1 {
            return true;
        }
        kept().all(|(i, &f)| {
            let others = kept().filter(|&(j, _)| j != i).fold(0, |m, (_, &g)| m | g);
            self.vars(f) & self.vars(others) != 0
        })
    }

    /// True iff dropping fragment `index` from the valid cover
    /// `fragments` leaves a valid cover. Dropping keeps the rest an
    /// antichain of connected fragments, so only coverage and the
    /// pairwise join requirement need checking.
    pub fn removable(&self, fragments: &[AtomMask], index: usize) -> bool {
        let rest =
            fragments.iter().enumerate().filter(|&(i, _)| i != index).fold(0, |m, (_, &f)| m | f);
        fragments.len() > 1 && rest == self.full() && self.fragments_join(fragments, Some(index))
    }

    /// The GCov move on the valid cover `fragments` (in [`lex_cmp`]
    /// order): add `atom` to fragment `index`, then drop fragments
    /// included in another, keeping the first of equal ones (restoring
    /// Definition 3.3). The result is in [`lex_cmp`] order. `None` if
    /// the move is a no-op or yields an invalid cover.
    /// Coverage-redundancy pruning is a separate step:
    /// [`CoverMasks::prune_redundant_by`].
    pub fn add_atom(
        &self,
        fragments: &[AtomMask],
        index: usize,
        atom: usize,
    ) -> Option<Vec<AtomMask>> {
        let bit = 1 << atom;
        if fragments.get(index)? & bit != 0 {
            return None;
        }
        let mut grown = fragments.to_vec();
        grown[index] |= bit;
        let mut kept: Vec<AtomMask> = grown
            .iter()
            .enumerate()
            .filter(|&(i, &f)| {
                !grown.iter().enumerate().any(|(j, &g)| i != j && f & g == f && (f != g || i > j))
            })
            .map(|(_, &f)| f)
            .collect();
        kept.sort_by(|&a, &b| lex_cmp(a, b));
        (self.is_cover(&kept) && kept != fragments).then_some(kept)
    }

    /// The paper's redundancy pruning (§4.3): "all the fragments of a
    /// cover are kept sorted in the decreasing order of their cost ...
    /// when a fragment is found redundant (with respect to the other
    /// fragments in the cover), the fragment is removed". A fragment is
    /// coverage-redundant when the remaining fragments still form a
    /// valid cover; of several redundant fragments the costliest goes
    /// first (the lowest index among equally costly ones), then the
    /// check repeats. `cost` is only asked when at least two fragments
    /// are removable at once — the only time the order decides anything.
    pub fn prune_redundant_by(
        &self,
        mut fragments: Vec<AtomMask>,
        mut cost: impl FnMut(AtomMask) -> f64,
    ) -> Vec<AtomMask> {
        loop {
            let removable: Vec<usize> =
                (0..fragments.len()).filter(|&i| self.removable(&fragments, i)).collect();
            let drop = match removable[..] {
                [] => return fragments,
                [only] => only,
                _ => {
                    let mut best = (removable[0], cost(fragments[removable[0]]));
                    for &i in &removable[1..] {
                        let c = cost(fragments[i]);
                        if c > best.1 {
                            best = (i, c);
                        }
                    }
                    best.0
                }
            };
            fragments.remove(drop);
        }
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .fragments
            .iter()
            .map(|frag| {
                let ts: Vec<String> = frag.iter().map(|i| format!("t{}", i + 1)).collect();
                format!("{{{}}}", ts.join(","))
            })
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;
    use jucq_model::TermId;
    use jucq_store::{PatternTerm, StorePattern, VarId};

    fn c(i: u32) -> PatternTerm {
        PatternTerm::Const(TermId::new(TermKind::Uri, i))
    }

    fn v(i: VarId) -> PatternTerm {
        PatternTerm::Var(i)
    }

    /// q1 shape: three atoms all sharing x.
    fn q1() -> BgpQuery {
        BgpQuery::new(
            vec![0, 1],
            vec![
                StorePattern::new(v(0), c(100), v(1)),
                StorePattern::new(v(0), c(101), c(200)),
                StorePattern::new(v(0), c(102), c(201)),
            ],
        )
    }

    #[test]
    fn paper_example_cover_is_valid() {
        // {{t1,t2},{t2,t3}} — the paper's example cover of q1.
        let cover = Cover::new(&q1(), vec![vec![0, 1], vec![1, 2]]).unwrap();
        assert_eq!(cover.len(), 2);
        assert_eq!(cover.to_string(), "{{t1,t2}, {t2,t3}}");
    }

    #[test]
    fn single_and_singleton_covers() {
        let q = q1();
        assert_eq!(Cover::single_fragment(&q).unwrap().len(), 1);
        assert_eq!(Cover::singletons(&q).unwrap().len(), 3);
    }

    #[test]
    fn missing_atom_rejected() {
        assert_eq!(
            Cover::new(&q1(), vec![vec![0], vec![1]]),
            Err(CoverError::MissingAtom { index: 2 })
        );
    }

    #[test]
    fn included_fragment_rejected() {
        assert_eq!(
            Cover::new(&q1(), vec![vec![0, 1, 2], vec![1]]),
            Err(CoverError::IncludedFragment)
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            Cover::new(&q1(), vec![vec![0, 1, 2, 7]]),
            Err(CoverError::AtomOutOfRange { index: 7 })
        );
    }

    #[test]
    fn empty_fragment_rejected() {
        assert_eq!(Cover::new(&q1(), vec![vec![], vec![0, 1, 2]]), Err(CoverError::EmptyFragment));
    }

    #[test]
    fn disconnected_fragment_rejected() {
        // (x p y)(z p w)(x p z): atoms 0 and 1 share nothing.
        let q = BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(v(0), c(1), v(1)),
                StorePattern::new(v(2), c(1), v(3)),
                StorePattern::new(v(0), c(1), v(2)),
            ],
        );
        assert_eq!(
            Cover::new(&q, vec![vec![0, 1], vec![2]]),
            Err(CoverError::DisconnectedFragment)
        );
        assert!(Cover::new(&q, vec![vec![0, 2], vec![1, 2]]).is_ok());
    }

    #[test]
    fn isolated_fragment_rejected() {
        // Two disconnected components: {t0}, {t1} cannot form a
        // multi-fragment cover.
        let q = BgpQuery::new(
            vec![0],
            vec![StorePattern::new(v(0), c(1), v(1)), StorePattern::new(v(2), c(1), v(3))],
        );
        assert_eq!(Cover::new(&q, vec![vec![0], vec![1]]), Err(CoverError::IsolatedFragment));
    }

    #[test]
    fn cover_queries_follow_definition() {
        let q = q1();
        let cover = Cover::new(&q, vec![vec![0], vec![1, 2]]).unwrap();
        let cqs = cover.cover_queries(&q);
        assert_eq!(cqs.len(), 2);
        // Fragment {t1}: head (x, y); fragment {t2,t3}: head (x).
        assert_eq!(cqs[0].head, vec![0, 1]);
        assert_eq!(cqs[1].head, vec![0]);
    }

    fn masks(q: &BgpQuery) -> CoverMasks {
        CoverMasks::new(q).unwrap()
    }

    fn m(fragments: &[&[usize]]) -> Vec<AtomMask> {
        fragments.iter().map(|f| f.iter().fold(0, |m, &i| m | 1 << i)).collect()
    }

    /// A 4-atom star: all atoms share x.
    fn star4() -> BgpQuery {
        BgpQuery::new(
            vec![0],
            (1..=4).map(|i| StorePattern::new(v(0), c(i), v(i as VarId))).collect(),
        )
    }

    /// An n-atom chain x0 p x1, x1 p x2, …
    fn chain(n: usize) -> BgpQuery {
        BgpQuery::new(
            vec![0],
            (0..n).map(|i| StorePattern::new(v(i as VarId), c(1), v(i as VarId + 1))).collect(),
        )
    }

    #[test]
    fn gcov_move_adds_and_prunes() {
        // Paper §4.3's example: {{t1,t2},{t1,t3},{t3,t4}} + (f0 ← t4)
        // ⇒ after coverage pruning: {{t1,t2,t4},{t1,t3}} (in a 4-atom
        // star query where all atoms share a variable).
        let qm = masks(&star4());
        let cover = m(&[&[0, 1], &[0, 2], &[2, 3]]);
        let moved = qm.add_atom(&cover, 0, 3).unwrap();
        assert_eq!(
            moved,
            m(&[&[0, 1, 3], &[0, 2], &[2, 3]]),
            "inclusion pruning alone keeps {{t3,t4}}"
        );
        // {t3,t4} is the costliest fragment here; coverage pruning
        // removes it.
        let pruned = qm.prune_redundant_by(moved, |f| if f == 0b1100 { 10.0 } else { 1.0 });
        assert_eq!(pruned, m(&[&[0, 1, 3], &[0, 2]]));
    }

    #[test]
    fn gcov_move_drops_included_fragments() {
        // {t1},{t2},{t3} + (f0 ← t2) ⇒ {t1,t2} swallows {t2}.
        let qm = masks(&q1());
        let moved = qm.add_atom(&m(&[&[0], &[1], &[2]]), 0, 1).unwrap();
        assert_eq!(moved, m(&[&[0, 1], &[2]]));
    }

    #[test]
    fn prune_keeps_necessary_fragments() {
        let qm = masks(&q1());
        let cover = m(&[&[0, 1], &[1, 2]]);
        // Neither fragment is coverage-redundant: removing either loses
        // an atom.
        assert_eq!(qm.prune_redundant_by(cover.clone(), |_| 1.0), cover);
    }

    #[test]
    fn gcov_move_noop_returns_none() {
        let qm = masks(&q1());
        assert!(qm.add_atom(&[0b111], 0, 0).is_none(), "atom already present");
    }

    /// The pruning order before it turned lazy: sort every fragment by
    /// decreasing cost, drop the first removable one, repeat. Also
    /// reports the most fragments removable at any one step.
    fn eager_prune(q: &BgpQuery, cover: &Cover, cost: impl Fn(&[usize]) -> f64) -> (Cover, usize) {
        let mut frags = cover.fragments();
        let mut most = 0;
        loop {
            if frags.len() <= 1 {
                break;
            }
            let rest = |idx: usize| -> Vec<Vec<usize>> {
                frags
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != idx)
                    .map(|(_, f)| f.clone())
                    .collect()
            };
            most = most.max((0..frags.len()).filter(|&i| Cover::new(q, rest(i)).is_ok()).count());
            let mut order: Vec<usize> = (0..frags.len()).collect();
            order.sort_by(|&a, &b| cost(&frags[b]).partial_cmp(&cost(&frags[a])).unwrap());
            let Some(idx) = order.into_iter().find(|&i| Cover::new(q, rest(i)).is_ok()) else {
                break;
            };
            frags.remove(idx);
        }
        (Cover::new(q, frags).unwrap(), most)
    }

    /// Every valid cover of `q` (up to 4 atoms): antichains of
    /// non-empty atom subsets that [`Cover::new`] accepts.
    fn all_covers(q: &BgpQuery) -> Vec<Cover> {
        let subsets: Vec<AtomMask> = (1..1 << q.len()).collect();
        (1u32..1 << subsets.len())
            .filter_map(|pick| {
                let frags: Vec<Vec<usize>> =
                    atoms_of(u64::from(pick)).map(|k| atoms_of(subsets[k]).collect()).collect();
                Cover::new(q, frags).ok()
            })
            .collect()
    }

    #[test]
    fn lazy_pruning_matches_the_eager_order_and_skips_forced_choices() {
        // Costs with ties (5 distinct values over 15 fragments), so the
        // lowest-index tiebreak is exercised too.
        let cost = |f: AtomMask| (f.wrapping_mul(2_654_435_761) % 5) as f64;
        let cost_of = |f: &[usize]| cost(f.iter().fold(0, |m, &i| m | 1 << i));
        let mut choices = 0;
        for q in [star4(), chain(4), q1()] {
            let qm = masks(&q);
            for cover in all_covers(&q) {
                // Every valid cover, not only GCov's move results.
                let mut calls = 0;
                let lazy = qm.prune_redundant_by(cover.masks(), |f| {
                    calls += 1;
                    cost(f)
                });
                let (eager, most_removable) = eager_prune(&q, &cover, cost_of);
                assert_eq!(Cover::from_masks(&q, &lazy).unwrap(), eager, "{cover}");
                assert_eq!(calls == 0, most_removable <= 1, "{cover}: {calls} cost calls");
                choices += usize::from(most_removable > 1);
            }
        }
        assert!(choices > 0, "some covers offer a choice of redundant fragments");
    }

    #[test]
    fn forced_removal_asks_no_cost() {
        // Chain t1-t2-t3-t4 with {{t1,t2},{t2,t3},{t3,t4}}: only {t2,t3}
        // is redundant.
        let qm = masks(&chain(4));
        let pruned = qm.prune_redundant_by(m(&[&[0, 1], &[1, 2], &[2, 3]]), |_| {
            panic!("cost asked without a choice")
        });
        assert_eq!(pruned, m(&[&[0, 1], &[2, 3]]));
    }

    #[test]
    fn mask_validity_matches_cover_new() {
        for q in [star4(), chain(4), q1()] {
            let qm = masks(&q);
            let subsets: Vec<AtomMask> = (1..1 << q.len()).collect();
            for pick in 1u32..1 << subsets.len() {
                let mut frags: Vec<AtomMask> =
                    atoms_of(u64::from(pick)).map(|k| subsets[k]).collect();
                frags.sort_by(|&a, &b| lex_cmp(a, b));
                let cover = Cover::from_masks(&q, &frags);
                assert_eq!(qm.is_cover(&frags), cover.is_ok(), "{frags:?}");
                if let Ok(cover) = cover {
                    assert_eq!(cover.masks(), frags, "lex_cmp is the cover's fragment order");
                }
            }
        }
    }

    #[test]
    fn masks_connectivity_and_heads() {
        let q = chain(4);
        let qm = masks(&q);
        assert_eq!(qm.full(), 0b1111);
        assert!(qm.connected(0b0111) && qm.connected(0b0001) && !qm.connected(0b0101));
        // Fragment {t2,t3} with context {t1}: only x1 joins outside
        // (x0 is the head variable, not in the fragment).
        let head = qm.head(0b0110, 0b0001);
        let cq = q.cover_query_in(&[1, 2], &[0]);
        assert_eq!(head.count_ones() as usize, cq.head.len());
        assert_eq!(head, qm.vars(0b0010) & qm.vars(0b0001));
    }

    #[test]
    fn too_many_atoms_is_a_typed_error() {
        assert!(CoverMasks::new(&chain(64)).is_ok());
        assert_eq!(
            CoverMasks::new(&chain(65)).unwrap_err(),
            CoverError::TooLarge { atoms: 65, variables: 66 }
        );
        assert_eq!(masks(&chain(64)).full(), u64::MAX);
    }
}
