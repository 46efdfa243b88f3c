//! Order-aware-execution differential matrix: sort elision, galloping
//! seeks and zero-copy scan borrows must be pure performance features.
//! Across order-awareness on/off, both fragment-join algorithms, every
//! engine profile, 1/8 worker threads, and one-row vs full batches, the
//! answer set equals a naive reference evaluator's; with the knob off
//! every ordering counter is zero (the baseline leg of the
//! `order_merge` bench really is a pre-ordering engine), and on the
//! right fixture the knob-on counters are provably live.

mod naive;

use jucq_model::term::TermKind;
use jucq_model::{TermId, TripleId};
use jucq_store::{
    EngineProfile, JoinAlgo, PatternTerm, Relation, Store, StoreCq, StoreJucq, StorePattern,
    StoreUcq, VarId,
};

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

/// A chain on p10, a two-member-union feeder on p13, and a skewed pair
/// p14/p15: p14 fans 25 subjects out to 12 objects each (300 rows)
/// while p15 touches 6 of those subjects once — past the 8× gallop
/// threshold when they merge.
fn sample_triples() -> Vec<TripleId> {
    let mut data = Vec::new();
    for i in 0..40 {
        data.push(t(i, 10, i + 1));
    }
    for i in (0..40).step_by(3) {
        data.push(t(i, 13, i));
    }
    for s in 0..25 {
        for o in 0..12 {
            data.push(t(s, 14, 100 + (s * 7 + o * 11) % 60));
        }
    }
    for s in 0..6 {
        data.push(t(s * 4, 15, 200 + s));
    }
    data
}

/// Three joined fragments: two single-member (borrow candidates) and a
/// two-member union in the middle whose output order is unknown, so
/// elision must stay partial on this shape.
fn chain_query() -> StoreJucq {
    let fa = StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1])],
        vec![0, 1],
    );
    let fb = StoreUcq::new(
        vec![
            StoreCq::with_var_head(vec![StorePattern::new(v(1), c(10), v(2))], vec![1, 2]),
            StoreCq::with_var_head(vec![StorePattern::new(v(1), c(13), v(2))], vec![1, 2]),
        ],
        vec![1, 2],
    );
    let fc = StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(14), v(3))], vec![0, 3])],
        vec![0, 3],
    );
    StoreJucq::new(vec![fa, fb, fc], vec![0, 1, 2, 3])
}

/// Two single-member fragments over the skewed predicates: both scans
/// can be steered to subject order, so a SortMerge fragment join can
/// elide both sorts and must gallop through the 50× size skew.
fn skewed_query() -> StoreJucq {
    let big = StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(14), v(1))], vec![0, 1])],
        vec![0, 1],
    );
    let small = StoreUcq::new(
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(15), v(2))], vec![0, 2])],
        vec![0, 2],
    );
    StoreJucq::new(vec![big, small], vec![0, 1, 2])
}

fn sorted_rows(r: &Relation) -> Vec<Vec<TermId>> {
    let mut rows: Vec<Vec<TermId>> = r.rows().map(|row| row.to_vec()).collect();
    rows.sort();
    rows
}

/// Every (order, join, profile, threads, batch) cell answers like the
/// naive reference, and the knob-off cells report zero ordering
/// counters.
#[test]
fn order_aware_matrix_is_differentially_identical() {
    let data = sample_triples();
    for (qname, q) in [("chain", chain_query()), ("skewed", skewed_query())] {
        let baseline = naive::answers(&q, &data);
        assert!(!baseline.is_empty(), "{qname}: the fixture must produce answers");

        let bases: [fn() -> EngineProfile; 4] = [
            EngineProfile::pg_like,
            EngineProfile::db2_like,
            EngineProfile::mysql_like,
            EngineProfile::native_like,
        ];
        for base in bases {
            for join in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
                for order in [true, false] {
                    for threads in [1usize, 8] {
                        for batch in [1usize, 1024] {
                            let profile = base()
                                .with_fragment_join(join)
                                .with_order_aware(order)
                                .with_parallelism(threads)
                                .with_batch_size(batch);
                            let label = format!(
                                "{qname} {} join={join:?} order={order} threads={threads} \
                                 batch={batch}",
                                profile.name
                            );
                            let store = Store::from_triples(&data, profile);
                            let out = store
                                .eval_jucq(&q)
                                .unwrap_or_else(|e| panic!("{label}: evaluation failed: {e}"));
                            assert_eq!(sorted_rows(&out.relation), baseline, "{label}");
                            if !order {
                                assert_eq!(
                                    out.counters.sorts_elided, 0,
                                    "{label}: knob off must not elide"
                                );
                                assert_eq!(
                                    out.counters.gallop_seeks, 0,
                                    "{label}: knob off must not gallop"
                                );
                                assert_eq!(
                                    out.counters.scan_rows_borrowed, 0,
                                    "{label}: knob off must not borrow"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// On the skewed fixture the order-aware SortMerge run provably
/// exercises all three mechanisms: both scan orders align with the
/// join key (sorts elided), the 50× skew gallops, and the
/// single-member distinct fragments borrow their scan rows. SIP is
/// off here — its Bloom filter would pre-drop the non-joining rows
/// whose runs the gallop skips.
#[test]
fn order_aware_counters_are_live_on_the_skewed_fixture() {
    let data = sample_triples();
    let q = skewed_query();
    let on = Store::from_triples(
        &data,
        EngineProfile::pg_like().with_fragment_join(JoinAlgo::SortMerge).with_sip_filters(false),
    )
    .eval_jucq(&q)
    .unwrap();
    assert!(on.counters.sorts_elided > 0, "no sorts elided: {:?}", on.counters);
    assert!(on.counters.gallop_seeks > 0, "no gallop seeks: {:?}", on.counters);
    assert!(on.counters.scan_rows_borrowed > 0, "no rows borrowed: {:?}", on.counters);
    assert!(on.counters.rows_reserved > 0, "no output pre-sizing: {:?}", on.counters);
}
