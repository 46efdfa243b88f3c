//! Batched-execution differential matrix: the batch size and the
//! sideways-information-passing (SIP) Bloom filters must be pure
//! performance features. Across batch sizes, SIP on/off, every engine
//! profile, and 1/2/8 worker threads, the answer set equals a naive
//! reference evaluator's; with SIP fixed, every batch size additionally
//! reports *identical* counters (scanned/joined/materialized/deduped
//! and SIP probe/drop totals), so one-row batches and full batches are
//! observably the same operators.

mod naive;

use jucq_model::term::TermKind;
use jucq_model::{TermId, TripleId};
use jucq_store::{
    Counters, EngineError, EngineProfile, PatternTerm, Relation, Store, StoreCq, StoreJucq,
    StorePattern, StoreUcq, VarId,
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

/// A chain on p10, fan-out on p11 and p12, and self-loops on p13 — big
/// enough that 1024-row batches are partially filled and a 3-row batch
/// size crosses many batch boundaries, small enough for a full matrix.
fn sample_triples() -> Vec<TripleId> {
    let mut data = Vec::new();
    for i in 0..40 {
        data.push(t(i, 10, i + 1));
    }
    for i in 0..40 {
        data.push(t(i, 11, i % 7));
        data.push(t(i, 11, (i + 3) % 7));
    }
    for i in 0..20 {
        data.push(t(i % 7, 12, i));
    }
    for i in (0..40).step_by(3) {
        data.push(t(i, 13, i));
    }
    data
}

/// Three joined fragments (so the planner places SIP filters on two
/// join steps) with a two-member union in the middle fragment.
fn query() -> StoreJucq {
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
        vec![StoreCq::with_var_head(vec![StorePattern::new(v(0), c(11), v(3))], vec![0, 3])],
        vec![0, 3],
    );
    StoreJucq::new(vec![fa, fb, fc], vec![0, 1, 2, 3])
}

fn sorted_rows(r: &Relation) -> Vec<Vec<TermId>> {
    let mut rows: Vec<Vec<TermId>> = r.rows().map(|row| row.to_vec()).collect();
    rows.sort();
    rows
}

/// Every (batch, sip, profile, threads) cell answers like the naive
/// reference, and within one (sip, profile, threads) cell the three
/// batch sizes (one row / tiny / default) report identical counters.
#[test]
fn batch_and_sip_matrix_is_differentially_identical() {
    let data = sample_triples();
    let q = query();

    let baseline = naive::answers(&q, &data);
    assert!(!baseline.is_empty(), "the fixture must produce answers");

    let bases: [fn() -> EngineProfile; 4] = [
        EngineProfile::pg_like,
        EngineProfile::db2_like,
        EngineProfile::mysql_like,
        EngineProfile::native_like,
    ];
    // One-row batches are the reference cadence; 3 forces many partial
    // batches; 1024 is the default target.
    let batch_sizes = [1usize, 3, 1024];
    for base in bases {
        for sip in [true, false] {
            for threads in [1usize, 2, 8] {
                let mut counters = Vec::new();
                for batch in batch_sizes {
                    let profile = base()
                        .with_batch_size(batch)
                        .with_sip_filters(sip)
                        .with_parallelism(threads);
                    let label =
                        format!("{} batch={batch} sip={sip} threads={threads}", profile.name);
                    let store = Store::from_triples(&data, profile);
                    let out = store
                        .eval_jucq(&q)
                        .unwrap_or_else(|e| panic!("{label}: evaluation failed: {e}"));
                    assert_eq!(sorted_rows(&out.relation), baseline, "{label}");
                    counters.push((label, out.counters));
                }
                // The batch size is counter-invisible at fixed SIP: same
                // tuples scanned, joined, materialized, deduped, and
                // the same SIP probe/drop totals.
                let (ref_label, reference) = &counters[0];
                for (label, got) in &counters[1..] {
                    assert_eq!(got, reference, "{label} counters diverge from {ref_label}");
                }
            }
        }
    }
}

/// SIP filters only ever drop rows the join would discard anyway, and
/// on this fixture they provably drop some: probe/drop counters are
/// live when the knob is on and zero when it is off.
#[test]
fn sip_filters_drop_tuples_without_changing_answers() {
    let data = sample_triples();
    let q = query();
    let on = Store::from_triples(&data, EngineProfile::pg_like()).eval_jucq(&q).unwrap();
    let off = Store::from_triples(&data, EngineProfile::pg_like().with_sip_filters(false))
        .eval_jucq(&q)
        .unwrap();
    assert_eq!(sorted_rows(&on.relation), sorted_rows(&off.relation));
    assert!(on.counters.sip_probes > 0, "filters ran: {:?}", on.counters);
    assert!(on.counters.sip_drops > 0, "fixture is selective: {:?}", on.counters);
    assert!(on.counters.sip_drops <= on.counters.sip_probes);
    assert_eq!(off.counters.sip_probes, 0, "knob off probes nothing");
    assert_eq!(off.counters.sip_drops, 0);
    // The filters shrink the join inputs, which the join counter sees.
    assert!(
        on.counters.tuples_joined <= off.counters.tuples_joined,
        "SIP must not inflate join work: on={:?} off={:?}",
        on.counters,
        off.counters
    );
}

/// A memory-budget breach on one worker still aborts the whole query
/// with the originating error when the breach happens mid-batch under
/// batched parallel execution.
#[test]
fn budget_breach_aborts_batched_parallel_runs() {
    let data = sample_triples();
    let q = query();
    for batch in [3usize, 1024] {
        for threads in [1usize, 4] {
            let profile = EngineProfile::pg_like()
                .with_batch_size(batch)
                .with_parallelism(threads)
                .with_memory_budget(10);
            let err = Store::from_triples(&data, profile)
                .eval_jucq(&q)
                .expect_err("a 10-tuple budget cannot hold this query");
            assert!(
                matches!(err, EngineError::MemoryBudgetExceeded { .. }),
                "batch={batch} threads={threads}: expected a budget breach, got {err:?}"
            );
        }
    }
}

/// The plan driver runs every plan staged; a single-fragment plan and a
/// multi-fragment plan without SIP filters are its edge cases (no join
/// step, and join steps with zero filters). Their counters are pinned
/// to the values of the earlier driver, which ran such plans' fragments
/// up-front: in particular a single-fragment plan charges nothing as
/// materialized, since it has no pipelined fragment to exempt.
#[test]
fn single_fragment_and_sip_off_counters_are_pinned() {
    let data = sample_triples();
    let multi = query();
    let single = StoreJucq::from_ucq(multi.fragments[1].clone());
    let pinned = |scanned, joined, materialized, deduped, borrowed, reserved| Counters {
        tuples_scanned: scanned,
        tuples_joined: joined,
        tuples_materialized: materialized,
        tuples_deduped: deduped,
        scan_rows_borrowed: borrowed,
        rows_reserved: reserved,
        ..Counters::default()
    };
    type Case<'q> = (&'static str, fn() -> EngineProfile, &'q StoreJucq, Counters);
    let cases: [Case<'_>; 4] = [
        ("pg single", EngineProfile::pg_like, &single, pinned(54, 0, 0, 108, 0, 108)),
        ("pg multi", EngineProfile::pg_like, &multi, pinned(174, 156, 186, 158, 120, 390)),
        // MySQL-like copies every derived union, so even the single
        // fragment is materialized — by the union, not the driver.
        ("mysql single", EngineProfile::mysql_like, &single, pinned(54, 0, 54, 108, 0, 108)),
        ("mysql multi", EngineProfile::mysql_like, &multi, pinned(174, 156, 268, 278, 0, 348)),
    ];
    for (label, base, q, expected) in cases {
        for threads in [1usize, 2] {
            let profile =
                base().with_sip_filters(false).with_order_aware(true).with_parallelism(threads);
            let out = Store::from_triples(&data, profile).eval_jucq(q).unwrap();
            assert_eq!(sorted_rows(&out.relation), naive::answers(q, &data), "{label}");
            assert_eq!(out.counters, expected, "{label} threads={threads}");
        }
    }
}
