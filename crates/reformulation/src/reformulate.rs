//! CQ-to-UCQ query reformulation (backward chaining).
//!
//! The paper answers queries by reformulating them against the RDFS
//! constraints: `Reformulate(q, db) = q_ref` such that
//! `q(db∞) = q_ref(db)` (§2.3). Its reference algorithm \[4, 23\]
//! "exhaustively applies a set of 13 reformulation rules" over the
//! direct constraints. We implement the same fixpoint over the
//! **closed** schema ([`jucq_model::SchemaClosure`]), which folds the
//! hierarchy-traversal rules of \[4\] into the closure and leaves six
//! single-step rules; schema-level query atoms need no rules at all
//! because both stores materialize the closed schema triples
//! (see [`crate::saturation::schema_triples`]). For an atom `g` of a
//! CQ, with `τ = rdf:type`:
//!
//! | rule | atom shape | produces |
//! |------|-----------|----------|
//! | R1 | `(e, τ, C)` | `(e, τ, C′)` for every `C′ ⊑꜀⁺ C` |
//! | R2 | `(e, τ, C)` | `(e, p, fresh)` for every `p` with `C ∈ dom⁺(p)` |
//! | R3 | `(e, τ, C)` | `(fresh, p, e)` for every `p` with `C ∈ rng⁺(p)` |
//! | R4 | `(s, p, o)` | `(s, p′, o)` for every `p′ ⊑ₚ⁺ p` |
//! | R5 | `(e, τ, y)`, `y` a variable | the CQ with `y := C` substituted throughout, for every known class `C` (paper Example 4) |
//! | R6 | `(s, y, o)`, `y` a variable | the CQ with `y := p` for every known property `p`, and `y := τ` |
//!
//! The union always contains the original query; duplicates are removed
//! by canonicalizing each CQ (sorted atoms, canonical renaming of
//! non-head variables).

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::hash::BuildHasher;

use jucq_model::{FxHashMap, FxHashSet, SchemaClosure, TermId};
use jucq_store::{PatternTerm, StoreCq, StorePattern, StoreUcq, VarId};

use crate::bgp::BgpQuery;

/// Everything reformulation needs about the database: the closed schema
/// and the id of `rdf:type`.
#[derive(Debug, Clone, Copy)]
pub struct ReformulationEnv<'a> {
    /// The saturated schema.
    pub closure: &'a SchemaClosure,
    /// The dictionary id of `rdf:type`.
    pub rdf_type: TermId,
}

/// A CQ under construction: head terms (variables, or constants after
/// variable instantiation) plus body atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WorkCq {
    head: Vec<PatternTerm>,
    atoms: Vec<StorePattern>,
}

impl WorkCq {
    fn head_vars(&self) -> FxHashSet<VarId> {
        self.head.iter().filter_map(|t| t.as_var()).collect()
    }

    fn max_var(&self) -> Option<VarId> {
        let body = self.atoms.iter().flat_map(StorePattern::variables).max();
        let head = self.head.iter().filter_map(|t| t.as_var()).max();
        body.max(head)
    }
}

/// Canonicalize: sort atoms with a head-variable-stable key, rename
/// non-head (existential) variables in first-occurrence order, re-sort,
/// and drop duplicate atoms (idempotent in a join).
fn normalize(mut cq: WorkCq) -> WorkCq {
    let head_vars = cq.head_vars();
    let base: VarId = head_vars.iter().copied().max().map_or(0, |m| m + 1);

    let pre_key = |t: &PatternTerm| -> (u8, u32) {
        match t {
            PatternTerm::Const(c) => (0, c.raw()),
            PatternTerm::Var(v) if head_vars.contains(v) => (1, u32::from(*v)),
            PatternTerm::Var(_) => (2, 0),
        }
    };
    cq.atoms.sort_by_key(|a| [pre_key(&a.s), pre_key(&a.p), pre_key(&a.o)]);

    let mut rename: FxHashMap<VarId, VarId> = FxHashMap::default();
    let mut next = base;
    let mut mapped = |v: VarId, rename: &mut FxHashMap<VarId, VarId>| -> VarId {
        if head_vars.contains(&v) {
            return v;
        }
        *rename.entry(v).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        })
    };
    for a in &mut cq.atoms {
        for pos in [&mut a.s, &mut a.p, &mut a.o] {
            if let PatternTerm::Var(v) = pos {
                *pos = PatternTerm::Var(mapped(*v, &mut rename));
            }
        }
    }
    cq.atoms.sort();
    cq.atoms.dedup();
    cq
}

/// Apply a single-variable substitution to the whole CQ (head + body).
fn substitute(cq: &WorkCq, var: VarId, value: TermId) -> WorkCq {
    let subst = |t: &PatternTerm| -> PatternTerm {
        match t {
            PatternTerm::Var(v) if *v == var => PatternTerm::Const(value),
            other => *other,
        }
    };
    WorkCq {
        head: cq.head.iter().map(subst).collect(),
        atoms: cq
            .atoms
            .iter()
            .map(|a| StorePattern::new(subst(&a.s), subst(&a.p), subst(&a.o)))
            .collect(),
    }
}

/// Replace atom `ai` with `new_atom`.
fn replace_atom(cq: &WorkCq, ai: usize, new_atom: StorePattern) -> WorkCq {
    let mut atoms = cq.atoms.clone();
    atoms[ai] = new_atom;
    WorkCq { head: cq.head.clone(), atoms }
}

/// All one-step reformulations of `cq`.
fn successors(cq: &WorkCq, env: &ReformulationEnv<'_>) -> Vec<WorkCq> {
    let mut out = Vec::new();
    let mut next_fresh: VarId = cq.max_var().map_or(0, |m| m + 1);
    let closure: &SchemaClosure = env.closure;

    for (ai, atom) in cq.atoms.iter().enumerate() {
        match atom.p {
            PatternTerm::Const(p) if p == env.rdf_type => match atom.o {
                // Class atom (e, τ, C).
                PatternTerm::Const(c) => {
                    if !c.is_uri() {
                        continue;
                    }
                    // R1: subclasses.
                    for &sub in closure.sub_classes(c) {
                        if sub != c {
                            out.push(replace_atom(
                                cq,
                                ai,
                                StorePattern::new(atom.s, atom.p, PatternTerm::Const(sub)),
                            ));
                        }
                    }
                    // R2: properties whose domain entails C.
                    for &p in closure.properties_with_domain(c) {
                        let fresh = PatternTerm::Var(next_fresh);
                        next_fresh += 1;
                        out.push(replace_atom(
                            cq,
                            ai,
                            StorePattern::new(atom.s, PatternTerm::Const(p), fresh),
                        ));
                    }
                    // R3: properties whose range entails C.
                    for &p in closure.properties_with_range(c) {
                        let fresh = PatternTerm::Var(next_fresh);
                        next_fresh += 1;
                        out.push(replace_atom(
                            cq,
                            ai,
                            StorePattern::new(fresh, PatternTerm::Const(p), atom.s),
                        ));
                    }
                }
                // Class-variable atom (e, τ, y): R5 instantiation.
                PatternTerm::Var(y) => {
                    for &c in closure.classes() {
                        out.push(substitute(cq, y, c));
                    }
                }
            },
            // Property atom (s, p, o), p ≠ τ: R4 subproperties.
            PatternTerm::Const(p) => {
                for &sub in closure.sub_properties(p) {
                    if sub != p {
                        out.push(replace_atom(
                            cq,
                            ai,
                            StorePattern::new(atom.s, PatternTerm::Const(sub), atom.o),
                        ));
                    }
                }
            }
            // Property-variable atom (s, y, o): R6 instantiation.
            PatternTerm::Var(y) => {
                for &p in closure.properties() {
                    out.push(substitute(cq, y, p));
                }
                out.push(substitute(cq, y, env.rdf_type));
            }
        }
    }
    out
}

/// Reformulate `q` into its full UCQ (the paper's `q_ref`).
///
/// The result's first member is always the original query; members are
/// produced in breadth-first derivation order, deduplicated modulo
/// canonical renaming of existential variables.
pub fn reformulate(q: &BgpQuery, env: &ReformulationEnv<'_>) -> StoreUcq {
    reformulate_with_limit(q, env, usize::MAX).expect("no limit")
}

/// The variables of an atom that the instantiation rules (R5/R6) may
/// substitute throughout the query: a property-position variable, and
/// the object variable of a (present or R6-producible) `rdf:type` atom.
fn instantiable_vars(atom: &StorePattern, rdf_type: TermId) -> Vec<VarId> {
    let mut out = Vec::new();
    match atom.p {
        PatternTerm::Var(y) => {
            out.push(y);
            // R6 can turn `y` into rdf:type, making the object a class
            // variable.
            if let PatternTerm::Var(o) = atom.o {
                if !out.contains(&o) {
                    out.push(o);
                }
            }
        }
        PatternTerm::Const(p) if p == rdf_type => {
            if let PatternTerm::Var(o) = atom.o {
                out.push(o);
            }
        }
        PatternTerm::Const(_) => {}
    }
    out
}

/// True iff the per-atom product decomposition is exact: no atom's
/// instantiable variable occurs in any other atom, so no rule
/// application ever rewrites two atoms at once.
fn atoms_independent(q: &BgpQuery, rdf_type: TermId) -> bool {
    for (i, atom) in q.atoms.iter().enumerate() {
        for v in instantiable_vars(atom, rdf_type) {
            for (j, other) in q.atoms.iter().enumerate() {
                if i != j && other.variables().contains(&v) {
                    return false;
                }
            }
        }
    }
    true
}

/// Fast path: reformulate each atom independently and take the
/// cartesian product of the member sets. Exact when
/// [`atoms_independent`] holds; reformulation sizes then multiply
/// across atoms, which is exactly the paper's arithmetic (q1: 188 × 4
/// × 3 = 2256).
fn reformulate_product<U: Borrow<StoreUcq>>(
    q: &BgpQuery,
    limit: usize,
    mut atom_ucq: impl FnMut(usize) -> Result<U, usize>,
) -> Result<StoreUcq, usize> {
    let global_max: VarId = q.max_var().map_or(0, |m| m + 1);
    // Per-atom member lists: (rewritten atom, substitution of the
    // atom's original head vars).
    type Member = (StorePattern, Vec<(VarId, PatternTerm)>);
    let mut per_atom: Vec<Vec<Member>> = Vec::new();
    let mut total: usize = 1;
    for (ai, atom) in q.atoms.iter().enumerate() {
        let atom_vars = atom.variables();
        let ucq = atom_ucq(ai)?;
        let ucq: &StoreUcq = ucq.borrow();
        let mut members = Vec::with_capacity(ucq.len());
        for m in &ucq.cqs {
            debug_assert_eq!(m.patterns.len(), 1);
            let mut rewritten = m.patterns[0];
            // Remap the member's fresh (non-original) variable, if any,
            // into a range unique to this atom so members of different
            // atoms never accidentally join.
            let fresh_slot = global_max + 1 + (ai as VarId);
            for pos in [&mut rewritten.s, &mut rewritten.p, &mut rewritten.o] {
                if let PatternTerm::Var(v) = pos {
                    if !atom_vars.contains(v) {
                        *pos = PatternTerm::Var(fresh_slot);
                    }
                }
            }
            let subst: Vec<(VarId, PatternTerm)> = atom_vars
                .iter()
                .zip(&m.head)
                .filter(|(v, t)| PatternTerm::Var(**v) != **t)
                .map(|(v, t)| (*v, *t))
                .collect();
            members.push((rewritten, subst));
        }
        total = total.saturating_mul(members.len());
        if total > limit {
            return Err(total);
        }
        per_atom.push(members);
    }

    // Cartesian product.
    let head_terms: Vec<PatternTerm> = q.head.iter().map(|&v| PatternTerm::Var(v)).collect();
    // Dedup without a second copy of every member: the latest member
    // per hash, and per member the previous one with its hash.
    let mut latest: FxHashMap<u64, usize> = FxHashMap::default();
    let mut previous: Vec<usize> = Vec::with_capacity(total);
    let mut result: Vec<StoreCq> = Vec::with_capacity(total);
    let mut indices = vec![0usize; per_atom.len()];
    loop {
        let mut head = head_terms.clone();
        let mut atoms = Vec::with_capacity(per_atom.len());
        for (ai, &k) in indices.iter().enumerate() {
            let (atom, subst) = &per_atom[ai][k];
            atoms.push(*atom);
            for (v, t) in subst {
                for h in &mut head {
                    if *h == PatternTerm::Var(*v) {
                        *h = *t;
                    }
                }
            }
        }
        let n = normalize(WorkCq { head, atoms });
        let hash = jucq_model::hash::FxBuildHasher::default().hash_one(&n);
        let chain = latest.get(&hash).copied().unwrap_or(usize::MAX);
        let mut j = chain;
        while j != usize::MAX && (result[j].patterns != n.atoms || result[j].head != n.head) {
            j = previous[j];
        }
        if j == usize::MAX {
            latest.insert(hash, result.len());
            previous.push(chain);
            result.push(StoreCq::new(n.atoms, n.head));
            if result.len() > limit {
                return Err(result.len());
            }
        }
        // Advance the mixed-radix counter.
        let mut pos = indices.len();
        loop {
            if pos == 0 {
                return Ok(StoreUcq::new(result, q.head.clone()));
            }
            pos -= 1;
            indices[pos] += 1;
            if indices[pos] < per_atom[pos].len() {
                break;
            }
            indices[pos] = 0;
        }
    }
}

/// Like [`reformulate`] but aborting once more than `limit` member CQs
/// have been produced; `Err(n)` reports the lower bound `n > limit`
/// reached. Lets callers detect "union too large for any engine"
/// without materializing millions of members.
pub fn reformulate_with_limit(
    q: &BgpQuery,
    env: &ReformulationEnv<'_>,
    limit: usize,
) -> Result<StoreUcq, usize> {
    reformulate_with_atom_ucqs(q, env, limit, |ai| {
        reformulate_fixpoint(&atom_query(q.atoms[ai]), env, limit)
    })
}

/// The single-atom query whose reformulation the per-atom product path
/// of [`reformulate_with_limit`] multiplies: the atom with all its
/// variables in the head.
pub fn atom_query(atom: StorePattern) -> BgpQuery {
    BgpQuery { head: atom.variables().to_vec(), atoms: vec![atom], limit: None }
}

/// [`reformulate_with_limit`] taking each atom's reformulation from
/// `atom_ucq` (called with the atom's index in `q`) instead of
/// recomputing it. The answer must be the reformulation of
/// [`atom_query`] under the same `limit`, or the `Err` that
/// reformulation returned; callers holding a per-atom cache (the cover
/// search) pass it here.
pub fn reformulate_with_atom_ucqs<U: Borrow<StoreUcq>>(
    q: &BgpQuery,
    env: &ReformulationEnv<'_>,
    limit: usize,
    atom_ucq: impl FnMut(usize) -> Result<U, usize>,
) -> Result<StoreUcq, usize> {
    if q.atoms.len() > 1 && atoms_independent(q, env.rdf_type) {
        return reformulate_product(q, limit, atom_ucq);
    }
    reformulate_fixpoint(q, env, limit)
}

/// The general breadth-first fixpoint. Exposed for the ablation
/// benchmarks comparing it against the product fast path; prefer
/// [`reformulate_with_limit`], which dispatches automatically.
pub fn reformulate_fixpoint(
    q: &BgpQuery,
    env: &ReformulationEnv<'_>,
    limit: usize,
) -> Result<StoreUcq, usize> {
    let start = normalize(WorkCq {
        head: q.head.iter().map(|&v| PatternTerm::Var(v)).collect(),
        atoms: q.atoms.clone(),
    });
    let mut seen: FxHashSet<WorkCq> = FxHashSet::default();
    seen.insert(start.clone());
    let mut queue: VecDeque<WorkCq> = VecDeque::new();
    queue.push_back(start);
    let mut result: Vec<StoreCq> = Vec::new();

    while let Some(cq) = queue.pop_front() {
        result.push(StoreCq::new(cq.atoms.clone(), cq.head.clone()));
        if result.len() + queue.len() > limit {
            return Err(result.len() + queue.len());
        }
        for succ in successors(&cq, env) {
            let n = normalize(succ);
            if seen.insert(n.clone()) {
                queue.push_back(n);
            }
        }
    }
    Ok(StoreUcq::new(result, q.head.clone()))
}

/// The number of member CQs of the reformulation (the paper's `|q_ref|`
/// reported throughout Tables 1–4), up to `limit`.
pub fn reformulation_size(q: &BgpQuery, env: &ReformulationEnv<'_>, limit: usize) -> usize {
    match reformulate_with_limit(q, env, limit) {
        Ok(ucq) => ucq.len(),
        Err(n) => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::{Graph, Schema, Term, Triple};

    fn c(id: TermId) -> PatternTerm {
        PatternTerm::Const(id)
    }

    fn v(i: VarId) -> PatternTerm {
        PatternTerm::Var(i)
    }

    /// The paper's Example 1/2 database with its schema.
    struct Fixture {
        graph: Graph,
        rdf_type: TermId,
    }

    fn fixture() -> Fixture {
        let mut graph = Graph::new();
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::uri(s), Term::uri(p), o);
        graph.extend(&[
            t("doi1", jucq_model::vocab::RDF_TYPE, Term::uri("Book")),
            t("doi1", "writtenBy", Term::blank("b1")),
            t("Book", jucq_model::vocab::RDFS_SUBCLASS_OF, Term::uri("Publication")),
            t("writtenBy", jucq_model::vocab::RDFS_SUBPROPERTY_OF, Term::uri("hasAuthor")),
            t("writtenBy", jucq_model::vocab::RDFS_DOMAIN, Term::uri("Book")),
            t("writtenBy", jucq_model::vocab::RDFS_RANGE, Term::uri("Person")),
        ]);
        let rdf_type = graph.rdf_type();
        Fixture { graph, rdf_type }
    }

    fn uri(f: &Fixture, s: &str) -> TermId {
        f.graph.dict().lookup(&Term::uri(s)).expect("known uri")
    }

    #[test]
    fn example4_class_variable_query() {
        // q(x, y):- x rdf:type y over the Example 2 schema. The paper's
        // Example 4 lists 11 items, but its items (3), (7) and (10)
        // replace `writtenBy` by its *super*property `hasAuthor`, which
        // is unsound for certain-answer semantics (an explicit hasAuthor
        // triple entails no type, since hasAuthor declares no domain or
        // range) and would break the paper's own Definition 3.2
        // (`q_JUCQ(db₂) = q(db₂)` for every db₂ with the same schema).
        // We produce the sound subset: items (0), (1), (2), (4), (5),
        // (6), (8), (9) — 8 members. DESIGN.md records the deviation.
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = BgpQuery::new(vec![0, 1], vec![StorePattern::new(v(0), c(f.rdf_type), v(1))]);
        let ucq = reformulate(&q, &env);
        assert_eq!(ucq.len(), 8, "sound subset of paper Example 4");

        // Spot-check members.
        let book = uri(&f, "Book");
        let publication = uri(&f, "Publication");
        let written_by = uri(&f, "writtenBy");
        let has_author = uri(&f, "hasAuthor");
        let person = uri(&f, "Person");
        // (2): q(x, Book):- x writtenBy z.
        assert!(ucq.cqs.iter().any(|m| m.head[1] == c(book)
            && m.patterns.len() == 1
            && m.patterns[0].p == c(written_by)
            && m.patterns[0].s == v(0)));
        // (6): q(x, Publication):- x writtenBy z (widened domain).
        assert!(ucq.cqs.iter().any(|m| m.head[1] == c(publication)
            && m.patterns[0].p == c(written_by)
            && m.patterns[0].s == v(0)));
        // (9): q(x, Person):- z writtenBy x (range).
        assert!(ucq.cqs.iter().any(|m| m.head[1] == c(person)
            && m.patterns[0].p == c(written_by)
            && m.patterns[0].o == v(0)));
        // The unsound (3)/(7)/(10) members must NOT appear: no member
        // uses hasAuthor in a type-deriving position.
        assert!(!ucq.cqs.iter().any(
            |m| m.patterns[0].p == c(has_author) && matches!(m.head[1], PatternTerm::Const(_))
        ));
    }

    #[test]
    fn class_atom_reformulation() {
        // q(x):- x rdf:type Publication: original + subclass Book +
        // domain writtenBy ⇒ 3 members.
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let publication = uri(&f, "Publication");
        let q =
            BgpQuery::new(vec![0], vec![StorePattern::new(v(0), c(f.rdf_type), c(publication))]);
        let ucq = reformulate(&q, &env);
        assert_eq!(ucq.len(), 3);
        // First member is the original.
        assert_eq!(ucq.cqs[0].patterns[0].o, c(publication));
    }

    #[test]
    fn property_atom_reformulation() {
        // q(x, z):- x hasAuthor z: original + subproperty writtenBy.
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let has_author = uri(&f, "hasAuthor");
        let written_by = uri(&f, "writtenBy");
        let q = BgpQuery::new(vec![0, 1], vec![StorePattern::new(v(0), c(has_author), v(1))]);
        let ucq = reformulate(&q, &env);
        assert_eq!(ucq.len(), 2);
        assert!(ucq.cqs.iter().any(|m| m.patterns[0].p == c(written_by)));
    }

    #[test]
    fn no_schema_means_identity_reformulation() {
        let closure = jucq_model::SchemaClosure::new(&Schema::new(), [], []);
        let mut g = Graph::new();
        let rdf_type = g.rdf_type();
        let env = ReformulationEnv { closure: &closure, rdf_type };
        let p = TermId::new(jucq_model::term::TermKind::Uri, 5);
        let q = BgpQuery::new(vec![0], vec![StorePattern::new(v(0), c(p), v(1))]);
        let ucq = reformulate(&q, &env);
        assert_eq!(ucq.len(), 1);
        assert_eq!(ucq.cqs[0].patterns, q.atoms);
    }

    #[test]
    fn multi_atom_counts_multiply_when_independent() {
        // (x τ Publication)(x hasAuthor y): 3 × 2 = 6 members, because
        // no variable links the two atoms' reformulations.
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let publication = uri(&f, "Publication");
        let has_author = uri(&f, "hasAuthor");
        let q = BgpQuery::new(
            vec![0, 1],
            vec![
                StorePattern::new(v(0), c(f.rdf_type), c(publication)),
                StorePattern::new(v(0), c(has_author), v(1)),
            ],
        );
        let ucq = reformulate(&q, &env);
        assert_eq!(ucq.len(), 6);
    }

    #[test]
    fn duplicate_derivations_are_collapsed() {
        // (x τ Publication)(x τ Book): Book ⊑ Publication makes several
        // derivation paths converge on identical CQs; the fixpoint must
        // dedup them. All members must be distinct.
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let publication = uri(&f, "Publication");
        let book = uri(&f, "Book");
        let q = BgpQuery::new(
            vec![0],
            vec![
                StorePattern::new(v(0), c(f.rdf_type), c(publication)),
                StorePattern::new(v(0), c(f.rdf_type), c(book)),
            ],
        );
        let ucq = reformulate(&q, &env);
        let mut seen = FxHashSet::default();
        for m in &ucq.cqs {
            assert!(seen.insert(m.clone()), "duplicate member {m:?}");
        }
        // The atoms are independent, so this ran the product path, and
        // some of its combinations collapsed.
        let combinations: usize =
            q.atoms.iter().map(|&a| reformulate(&atom_query(a), &env).len()).product();
        assert!(ucq.len() < combinations, "{} of {combinations}", ucq.len());
    }

    #[test]
    fn limit_aborts_early() {
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = BgpQuery::new(vec![0, 1], vec![StorePattern::new(v(0), c(f.rdf_type), v(1))]);
        match reformulate_with_limit(&q, &env, 3) {
            Err(n) => assert!(n > 3),
            Ok(u) => panic!("expected limit abort, got {} members", u.len()),
        }
        assert_eq!(reformulation_size(&q, &env, usize::MAX), 8);
    }

    #[test]
    fn product_fast_path_matches_fixpoint() {
        // Multi-atom independent query: the product decomposition must
        // produce exactly the fixpoint's member set.
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let publication = uri(&f, "Publication");
        let has_author = uri(&f, "hasAuthor");
        let q = BgpQuery::new(
            vec![0, 1, 2],
            vec![
                StorePattern::new(v(0), c(f.rdf_type), v(2)),
                StorePattern::new(v(0), c(has_author), v(1)),
                StorePattern::new(v(1), c(f.rdf_type), c(publication)),
            ],
        );
        assert!(super::atoms_independent(&q, f.rdf_type));
        let fast = reformulate_with_limit(&q, &env, usize::MAX).unwrap();
        let slow = super::reformulate_fixpoint(&q, &env, usize::MAX).unwrap();
        let norm = |u: &StoreUcq| {
            let mut v: Vec<StoreCq> = u.cqs.clone();
            v.sort_by_key(|m| format!("{m:?}"));
            v
        };
        assert_eq!(norm(&fast), norm(&slow));

        // Supplied per-atom reformulations give the identical union,
        // member order included; a supplied refusal propagates.
        let cached: Vec<StoreUcq> = q
            .atoms
            .iter()
            .map(|&a| reformulate_with_limit(&atom_query(a), &env, usize::MAX).unwrap())
            .collect();
        let shared =
            reformulate_with_atom_ucqs(&q, &env, usize::MAX, |ai| Ok::<_, usize>(&cached[ai]))
                .unwrap();
        assert_eq!(shared, fast);
        assert_eq!(
            reformulate_with_atom_ucqs(&q, &env, usize::MAX, |_| Err::<&StoreUcq, _>(7)),
            Err(7)
        );
    }

    #[test]
    fn interaction_disables_fast_path() {
        // (x τ y)(z p y): y is instantiable in atom 0 and occurs in
        // atom 1 ⇒ not independent.
        let f = fixture();
        let has_author = uri(&f, "hasAuthor");
        let q = BgpQuery::new(
            vec![0, 1],
            vec![
                StorePattern::new(v(0), c(f.rdf_type), v(1)),
                StorePattern::new(v(2), c(has_author), v(1)),
            ],
        );
        assert!(!super::atoms_independent(&q, f.rdf_type));
        // Still must produce a correct (fixpoint) reformulation.
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let ucq = reformulate(&q, &env);
        assert!(!ucq.is_empty());
    }

    #[test]
    fn fresh_variables_do_not_leak_into_heads() {
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let publication = uri(&f, "Publication");
        let q =
            BgpQuery::new(vec![0], vec![StorePattern::new(v(0), c(f.rdf_type), c(publication))]);
        let ucq = reformulate(&q, &env);
        for m in &ucq.cqs {
            assert_eq!(m.head.len(), 1);
            assert_eq!(m.head[0], v(0));
        }
    }

    #[test]
    fn property_variable_instantiation_reaches_subproperties() {
        // q(x, y, z):- x y z must include the member (x writtenBy z)
        // with head y := hasAuthor, capturing entailed hasAuthor triples.
        let f = fixture();
        let closure = f.graph.schema_closure();
        let env = ReformulationEnv { closure: &closure, rdf_type: f.rdf_type };
        let q = BgpQuery::new(vec![0, 1, 2], vec![StorePattern::new(v(0), v(1), v(2))]);
        let ucq = reformulate(&q, &env);
        let written_by = uri(&f, "writtenBy");
        let has_author = uri(&f, "hasAuthor");
        assert!(ucq
            .cqs
            .iter()
            .any(|m| m.head[1] == c(has_author) && m.patterns[0].p == c(written_by)));
        // And the rdf:type branch with class instantiation.
        let book = uri(&f, "Book");
        assert!(ucq.cqs.iter().any(|m| m.head[1] == c(f.rdf_type)
            && m.head[2] == c(book)
            && m.patterns[0].p == c(written_by)));
    }
}
