//! Pinned GCov decisions: the cover GCov chooses and the number of
//! covers it costs, for every LUBM and DBLP workload query on the pg-
//! and db2-like profiles, under the default (uncalibrated) cost
//! constants.
//!
//! Cover-search optimizations must leave this table untouched: they may
//! make the search cheaper, never make it decide differently. A change
//! that is *meant* to change decisions (a cost-model fix) updates the
//! affected rows and names them in its change notes. On a mismatch the
//! test prints the whole observed table, ready to paste.

use std::time::Duration;

use jucq_core::reformulation::reformulate::ReformulationEnv;
use jucq_core::RdfDatabase;
use jucq_datagen::{dblp, lubm, NamedQuery};
use jucq_model::Graph;
use jucq_optimizer::{gcov, CostConstants, CoverSearch, PaperCostModel};
use jucq_store::EngineProfile;

/// `dataset/profile/query cover explored`, one line per search.
const PINNED: &str = "\
lubm/pg/Q01 {{t1}} 1
lubm/pg/Q02 {{t1}} 1
lubm/pg/Q03 {{t1}} 1
lubm/pg/Q04 {{t1}} 1
lubm/pg/Q05 {{t1}} 1
lubm/pg/Q06 {{t1,t2}} 2
lubm/pg/Q07 {{t1,t2}} 2
lubm/pg/Q08 {{t1,t2}} 2
lubm/pg/Q09 {{t1,t3}, {t2,t3}} 5
lubm/pg/Q10 {{t1,t2}} 2
lubm/pg/Q11 {{t1,t2,t3}} 5
lubm/pg/Q12 {{t1,t2}} 2
lubm/pg/Q13 {{t1,t2}} 2
lubm/pg/Q14 {{t1,t2}} 2
lubm/pg/Q15 {{t1,t2}, {t3,t4}} 18
lubm/pg/Q16 {{t1,t2}, {t2,t3,t4}} 36
lubm/pg/Q17 {{t1,t2}, {t3,t4}} 17
lubm/pg/Q18 {{t1,t4,t5}, {t2,t3}} 63
lubm/pg/Q19 {{t1,t5}, {t2}, {t3,t4,t5}} 116
lubm/pg/Q20 {{t1}, {t2,t3}} 5
lubm/pg/Q21 {{t1}} 1
lubm/pg/Q22 {{t1,t2,t3,t4,t6}, {t1,t5}} 208
lubm/pg/Q23 {{t1,t2}} 2
lubm/pg/Q24 {{t1,t3}, {t2}} 5
lubm/pg/Q25 {{t1,t2,t3,t7}, {t4,t5}, {t6}} 216
lubm/pg/Q26 {{t1}, {t2,t3}} 5
lubm/pg/Q27 {{t1}} 1
lubm/pg/Q28 {{t1,t5}, {t2}, {t3,t5}, {t4,t5}} 57
lubm/db2/Q01 {{t1}} 1
lubm/db2/Q02 {{t1}} 1
lubm/db2/Q03 {{t1}} 1
lubm/db2/Q04 {{t1}} 1
lubm/db2/Q05 {{t1}} 1
lubm/db2/Q06 {{t1,t2}} 2
lubm/db2/Q07 {{t1,t2}} 2
lubm/db2/Q08 {{t1,t2}} 2
lubm/db2/Q09 {{t1,t3}, {t2,t3}} 5
lubm/db2/Q10 {{t1,t2}} 2
lubm/db2/Q11 {{t1,t2,t3}} 5
lubm/db2/Q12 {{t1,t2}} 2
lubm/db2/Q13 {{t1,t2}} 2
lubm/db2/Q14 {{t1,t2}} 2
lubm/db2/Q15 {{t1,t2}, {t3,t4}} 18
lubm/db2/Q16 {{t1,t2}, {t2,t3,t4}} 36
lubm/db2/Q17 {{t1,t2}, {t3,t4}} 17
lubm/db2/Q18 {{t1,t4,t5}, {t2,t3}} 63
lubm/db2/Q19 {{t1,t5}, {t2}, {t3,t4,t5}} 116
lubm/db2/Q20 {{t1}, {t2,t3}} 5
lubm/db2/Q21 {{t1}} 1
lubm/db2/Q22 {{t1,t2,t3,t4,t6}, {t1,t5}} 208
lubm/db2/Q23 {{t1,t2}} 2
lubm/db2/Q24 {{t1,t3}, {t2}} 5
lubm/db2/Q25 {{t1,t2,t3,t7}, {t4,t5}, {t6}} 216
lubm/db2/Q26 {{t1}, {t2,t3}} 5
lubm/db2/Q27 {{t1}} 1
lubm/db2/Q28 {{t1,t5}, {t2}, {t3,t5}, {t4,t5}} 57
dblp/pg/Q01 {{t1}} 1
dblp/pg/Q02 {{t1}} 1
dblp/pg/Q03 {{t1}} 1
dblp/pg/Q04 {{t1}} 1
dblp/pg/Q05 {{t1,t2}} 2
dblp/pg/Q06 {{t1,t3}, {t2,t3}} 8
dblp/pg/Q07 {{t1,t2}, {t3}} 5
dblp/pg/Q08 {{t1,t4}, {t2,t4,t5}, {t3}} 48
dblp/pg/Q09 {{t1}, {t2,t3}} 5
dblp/pg/Q10 {{t1}, {t2}, {t3,t8}, {t4,t10}, {t5,t9}, {t6,t8}, {t7}} 465
dblp/db2/Q01 {{t1}} 1
dblp/db2/Q02 {{t1}} 1
dblp/db2/Q03 {{t1}} 1
dblp/db2/Q04 {{t1}} 1
dblp/db2/Q05 {{t1,t2}} 2
dblp/db2/Q06 {{t1,t3}, {t2,t3}} 8
dblp/db2/Q07 {{t1,t2}, {t3}} 5
dblp/db2/Q08 {{t1,t4}, {t2,t4,t5}, {t3}} 48
dblp/db2/Q09 {{t1}, {t2,t3}} 5
dblp/db2/Q10 {{t1}, {t2}, {t3,t8}, {t4,t10}, {t5,t9}, {t6,t8}, {t7}} 465
";

/// Run GCov on every query of `queries`, with the search configured as
/// the database configures it for `Strategy::gcov_default()` (range
/// pricing from the profile, the profile's union limit and parallelism)
/// but a budget no run comes near, so the table never depends on timing.
fn observe(
    dataset: &str,
    graph: &Graph,
    queries: &[NamedQuery],
    profiles: &[(&str, EngineProfile)],
    out: &mut Vec<String>,
) {
    for (name, profile) in profiles {
        let mut db = RdfDatabase::from_graph(graph.clone(), profile.clone());
        db.set_cost_constants(CostConstants::default());
        let parsed: Vec<_> = queries
            .iter()
            .map(|nq| {
                (nq.name.as_str(), db.parse_query(&nq.sparql).expect("workload query parses"))
            })
            .collect();
        let constants = db.cost_constants();
        let closure = db.closure().clone();
        let rdf_type = db.rdf_type();
        let store = db.plain_store();
        let env = ReformulationEnv { closure: &closure, rdf_type };
        for (qname, q) in &parsed {
            let model = PaperCostModel::new(store.table(), store.stats(), constants)
                .with_range_pricing(profile.range_scans);
            let search = CoverSearch::new(q, env, &model)
                .with_union_limit(profile.max_union_terms)
                .with_parallelism(profile.effective_parallelism());
            let r = gcov(&search, Duration::from_secs(600), 10_000).expect("connected query");
            assert!(!r.truncated, "{dataset}/{name}/{qname}: search truncated");
            out.push(format!("{dataset}/{name}/{qname} {} {}", r.cover, r.explored));
        }
    }
}

#[test]
fn gcov_covers_and_explored_counts_are_pinned() {
    let profiles = [("pg", EngineProfile::pg_like()), ("db2", EngineProfile::db2_like())];
    let mut observed = Vec::new();
    let lubm_graph = lubm::generate(&lubm::LubmConfig { universities: 1, seed: 42 });
    observe("lubm", &lubm_graph, &lubm::workload(), &profiles, &mut observed);
    let dblp_graph = dblp::generate(&dblp::DblpConfig { authors: 2_000, seed: 42 });
    observe("dblp", &dblp_graph, &dblp::workload(), &profiles, &mut observed);

    let pinned: Vec<&str> = PINNED.lines().collect();
    let differing: Vec<String> = observed
        .iter()
        .zip(pinned.iter().copied().chain(std::iter::repeat("<missing>")))
        .filter(|(got, want)| got.as_str() != *want)
        .map(|(got, want)| format!("  pinned:   {want}\n  observed: {got}"))
        .collect();
    if !differing.is_empty() || observed.len() != pinned.len() {
        eprintln!("observed table:\n{}", observed.join("\n"));
        panic!(
            "{} of {} GCov decisions differ from the pinned table ({} pinned rows):\n{}",
            differing.len(),
            observed.len(),
            pinned.len(),
            differing.join("\n")
        );
    }
}
