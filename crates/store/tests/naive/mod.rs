//! A naive reference evaluator for the differential tests. It shares no
//! code with the engine's executor: each CQ is a backtracking match over
//! the plain triple list, each fragment is the set union of its CQs'
//! head bindings, and fragments combine by a nested-loop natural join.
//! Slow, but small enough to check by eye.

use std::collections::{BTreeMap, BTreeSet};

use jucq_model::{TermId, TripleId};
use jucq_store::{PatternTerm, StoreJucq, StorePattern, StoreUcq, VarId};

type Binding = BTreeMap<VarId, TermId>;

/// Bind `term` to `value`: a constant must equal it, a bound variable
/// must already hold it, a free variable takes it.
fn unify(term: PatternTerm, value: TermId, b: &mut Binding) -> bool {
    match term {
        PatternTerm::Const(c) => c == value,
        PatternTerm::Var(v) => *b.entry(v).or_insert(value) == value,
    }
}

/// Every extension of `b` that matches all of `patterns`.
fn matches(patterns: &[StorePattern], triples: &[TripleId], b: &Binding, out: &mut Vec<Binding>) {
    let Some((p, rest)) = patterns.split_first() else {
        out.push(b.clone());
        return;
    };
    for t in triples {
        let mut next = b.clone();
        if unify(p.s, t.s, &mut next) && unify(p.p, t.p, &mut next) && unify(p.o, t.o, &mut next) {
            matches(rest, triples, &next, out);
        }
    }
}

/// A fragment's answers as bindings of its head variables.
fn fragment(ucq: &StoreUcq, triples: &[TripleId]) -> BTreeSet<Binding> {
    let mut rows = BTreeSet::new();
    for cq in &ucq.cqs {
        let mut bodies = Vec::new();
        matches(&cq.patterns, triples, &Binding::new(), &mut bodies);
        for body in bodies {
            let row = ucq
                .head
                .iter()
                .zip(&cq.head)
                .map(|(&v, t)| match *t {
                    PatternTerm::Const(c) => (v, c),
                    PatternTerm::Var(x) => (v, body[&x]),
                })
                .collect();
            rows.insert(row);
        }
    }
    rows
}

/// The answer set of `q` over `triples`, as sorted head rows.
pub fn answers(q: &StoreJucq, triples: &[TripleId]) -> Vec<Vec<TermId>> {
    let mut acc: Vec<Binding> = vec![Binding::new()];
    for f in &q.fragments {
        let rows = fragment(f, triples);
        let mut joined = Vec::new();
        for a in &acc {
            for r in &rows {
                if r.iter().all(|(v, x)| a.get(v).is_none_or(|y| y == x)) {
                    let mut m = a.clone();
                    m.extend(r.iter().map(|(&v, &x)| (v, x)));
                    joined.push(m);
                }
            }
        }
        acc = joined;
    }
    let rows: BTreeSet<Vec<TermId>> =
        acc.iter().map(|b| q.head.iter().map(|v| b[v]).collect()).collect();
    rows.into_iter().collect()
}
