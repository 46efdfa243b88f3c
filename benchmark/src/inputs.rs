//! Seeded inputs: the datasets (as Turtle text), the query instances,
//! the `template_hot` request mix and the `serve_rw` write batches.
//!
//! The program under test only ever receives the Turtle text and the
//! SPARQL strings built here; the workload seed drives every choice.

use jucq_core::model::{vocab, Graph, Term, Triple};
use jucq_datagen::lubm::generator::department_uri;
use jucq_datagen::{dblp, lubm, NamedQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SALT_LUBM: u64 = 0x4c55_424d;
const SALT_DBLP: u64 = 0x4442_4c50;
const SALT_WRITES: u64 = 0x5752_4954;

/// The generator for `seed` on the stream named by `salt`, so the data,
/// request and write streams of one seed are independent.
pub fn seeded(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.rotate_left(17))
}

/// Fisher–Yates shuffle (the `rand` shim has none).
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// LUBM-1 is fixed at this many data triples (within
/// [`LUBM_TOLERANCE`]): the generator's department count varies with
/// its seed by ±15 %, which would make the input size, not the
/// program, set the run-to-run spread.
pub const LUBM_TRIPLES: usize = 60_000;
pub const LUBM_TOLERANCE: usize = 1_500;
/// DBLP-2000: 2 000 authors, about 69 000 data triples at every seed.
pub const DBLP_AUTHORS: usize = 2_000;

/// A generated dataset: its Turtle text and its query workload.
pub struct Dataset {
    pub name: &'static str,
    pub turtle: String,
    pub queries: Vec<NamedQuery>,
}

/// LUBM-1 for `seed`. Candidate generator seeds are drawn from the
/// workload seed until one lands within the size band (the closest of
/// 64 candidates otherwise). Returns the graph too, for the write
/// vocabulary and the department list.
pub fn lubm(seed: u64) -> (Dataset, Graph) {
    let mut rng = seeded(seed, SALT_LUBM);
    let mut best: Option<Graph> = None;
    for _ in 0..64 {
        let graph = lubm::generate(&lubm::LubmConfig { universities: 1, seed: rng.gen() });
        let off = graph.data().len().abs_diff(LUBM_TRIPLES);
        if best.as_ref().is_none_or(|b| off < b.data().len().abs_diff(LUBM_TRIPLES)) {
            best = Some(graph);
        }
        if off <= LUBM_TOLERANCE {
            break;
        }
    }
    let graph = best.expect("at least one candidate");
    let dataset = Dataset {
        name: "lubm",
        turtle: jucq_core::turtle::write(&graph),
        queries: lubm::workload(),
    };
    (dataset, graph)
}

/// DBLP-2000 for `seed`.
pub fn dblp(seed: u64) -> Dataset {
    let seed = seeded(seed, SALT_DBLP).gen();
    let graph = dblp::generate(&dblp::DblpConfig { authors: DBLP_AUTHORS, seed });
    Dataset { name: "dblp", turtle: jucq_core::turtle::write(&graph), queries: dblp::workload() }
}

/// The departments of university 0 present in `graph`, in order.
pub fn departments(graph: &Graph) -> Vec<String> {
    (0..)
        .map(|d| department_uri(0, d))
        .take_while(|uri| graph.dict().lookup_uri(uri).is_some())
        .collect()
}

/// One concrete query of a template.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Index of the template in its workload.
    pub template: usize,
    /// `Q08` or `Q08@dept3`.
    pub label: String,
    pub sparql: String,
}

/// Every instance of `templates`: a template naming department 0 gets
/// one instance per department, the others one instance each.
pub fn instances(templates: &[NamedQuery], departments: &[String]) -> Vec<Instance> {
    let dept0 = format!("<{}>", department_uri(0, 0));
    let mut out = Vec::new();
    for (template, q) in templates.iter().enumerate() {
        if q.sparql.contains(&dept0) {
            for (d, uri) in departments.iter().enumerate() {
                out.push(Instance {
                    template,
                    label: format!("{}@dept{d}", q.name),
                    sparql: q.sparql.replace(&dept0, &format!("<{uri}>")),
                });
            }
        } else {
            out.push(Instance { template, label: q.name.clone(), sparql: q.sparql.clone() });
        }
    }
    out
}

/// Templates drawn per deck of the `template_hot` mix.
pub const DECK_SIZE: usize = 100;

/// The skewed `template_hot` request mix. One deck holds template `t`
/// `max(1, round(DECK_SIZE * w_t))` times, where `w` is Zipf(1) over the
/// templates in workload order (`Q01` the most requested); each deck is
/// shuffled by the seed and every draw of a department-naming template
/// picks a department uniformly.
///
/// No recorded jucq traffic exists to take the mix from, so both the
/// skew and the ranking are assumptions: Zipf(1) is the textbook model
/// of request popularity, and the workload's own order is the ranking
/// that adds no further choice. The ranking is fixed rather than drawn
/// from the seed so that every seed runs the same cost mix and only the
/// draws differ.
pub struct Mix {
    deck: Vec<usize>,
    by_template: Vec<Vec<usize>>,
}

impl Mix {
    pub fn new(instances: &[Instance]) -> Self {
        let templates = instances.iter().map(|i| i.template).max().map_or(0, |m| m + 1);
        let mut by_template = vec![Vec::new(); templates];
        for (i, inst) in instances.iter().enumerate() {
            by_template[inst.template].push(i);
        }
        let harmonic: f64 = (1..=templates).map(|r| 1.0 / r as f64).sum();
        let mut deck = Vec::new();
        for t in 0..templates {
            let share = 1.0 / ((t + 1) as f64 * harmonic);
            let copies = ((DECK_SIZE as f64 * share).round() as usize).max(1);
            deck.extend(std::iter::repeat_n(t, copies));
        }
        Mix { deck, by_template }
    }

    /// The next deck of instance indices.
    pub fn deal(&self, rng: &mut StdRng) -> Vec<usize> {
        let mut templates = self.deck.clone();
        shuffle(rng, &mut templates);
        templates
            .into_iter()
            .map(|t| {
                let choices = &self.by_template[t];
                choices[rng.gen_range(0..choices.len())]
            })
            .collect()
    }
}

/// Existing LUBM entities the write batches attach new students to.
pub struct WriteVocab {
    departments: Vec<String>,
    courses: Vec<String>,
    advisors: Vec<String>,
}

impl WriteVocab {
    pub fn new(graph: &Graph) -> Self {
        let dict = graph.dict();
        let uri = |name: &str| dict.lookup_uri(&format!("{}{name}", lubm::NS));
        let (takes, advisor) = (uri("takesCourse"), uri("advisor"));
        let mut courses = Vec::new();
        let mut advisors = Vec::new();
        for t in graph.data() {
            if Some(t.p) == takes {
                courses.push(dict.lexical(t.o).to_owned());
            } else if Some(t.p) == advisor {
                advisors.push(dict.lexical(t.o).to_owned());
            }
        }
        for v in [&mut courses, &mut advisors] {
            v.sort_unstable();
            v.dedup();
        }
        WriteVocab { departments: departments(graph), courses, advisors }
    }
}

/// Batches a student is kept before its triples are deleted again, so
/// the data size stays flat over a run.
pub const WRITE_KEEP: usize = 8;

/// One `apply_data_updates` call.
#[derive(Debug, Clone)]
pub struct Batch {
    pub inserts: Vec<Triple>,
    pub deletes: Vec<Triple>,
}

fn student(vocab: &WriteVocab, seed: u64, index: usize) -> Vec<Triple> {
    let mut rng = seeded(seed, SALT_WRITES.wrapping_add(index as u64));
    let dept = &vocab.departments[rng.gen_range(0..vocab.departments.len())];
    let s = Term::uri(format!("{dept}/benchStudent{index}"));
    let ub = |name: &str| Term::uri(format!("{}{name}", lubm::NS));
    let pick = |rng: &mut StdRng, v: &[String]| Term::uri(v[rng.gen_range(0..v.len())].clone());
    vec![
        Triple::new(s.clone(), Term::uri(vocab::RDF_TYPE), ub("GraduateStudent")),
        Triple::new(s.clone(), ub("memberOf"), Term::uri(dept.clone())),
        Triple::new(s.clone(), ub("takesCourse"), pick(&mut rng, &vocab.courses)),
        Triple::new(s, ub("advisor"), pick(&mut rng, &vocab.advisors)),
    ]
}

/// Write batch `index` (0-based) for `seed`: insert one new graduate
/// student (type, department, course, advisor — all known vocabulary,
/// so the update stays incremental) and delete the student inserted
/// [`WRITE_KEEP`] batches earlier. Applying batches `0..e` to the
/// initial data gives the state the server publishes as epoch `e`.
pub fn batch(vocab: &WriteVocab, seed: u64, index: usize) -> Batch {
    let deletes =
        if index >= WRITE_KEEP { student(vocab, seed, index - WRITE_KEEP) } else { Vec::new() };
    Batch { inserts: student(vocab, seed, index), deletes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(name: &str, sparql: &str) -> NamedQuery {
        NamedQuery { name: name.into(), sparql: sparql.into() }
    }

    #[test]
    fn department_templates_expand_per_department() {
        let dept0 = department_uri(0, 0);
        let templates = vec![
            q("A", "SELECT ?x WHERE { ?x a ?y }"),
            q("B", &format!("SELECT ?x WHERE {{ ?x ?p <{dept0}> }}")),
        ];
        let depts = vec![department_uri(0, 0), department_uri(0, 1)];
        let inst = instances(&templates, &depts);
        assert_eq!(inst.len(), 3);
        assert_eq!(inst[2].label, "B@dept1");
        assert!(inst[2].sparql.contains(&department_uri(0, 1)));
        assert!(!inst[2].sparql.contains(&format!("<{dept0}>")));
    }

    #[test]
    fn write_batches_replace_an_earlier_student() {
        let (_, graph) = lubm(1);
        let vocab = WriteVocab::new(&graph);
        let first = batch(&vocab, 9, 0);
        assert_eq!(first.inserts.len(), 4);
        assert!(first.deletes.is_empty());
        let later = batch(&vocab, 9, WRITE_KEEP);
        assert_eq!(later.deletes, first.inserts);
        // Same seed, same batch.
        assert_eq!(batch(&vocab, 9, 3).inserts, batch(&vocab, 9, 3).inserts);
    }

    #[test]
    fn lubm_lands_in_the_size_band_and_is_seeded() {
        let (a, graph) = lubm(4);
        assert!(graph.data().len().abs_diff(LUBM_TRIPLES) <= LUBM_TOLERANCE);
        assert!(departments(&graph).len() >= 15);
        assert_eq!(a.turtle, lubm(4).0.turtle);
        assert_ne!(a.turtle, lubm(5).0.turtle);
    }

    #[test]
    fn mix_is_skewed_and_covers_every_template() {
        let templates: Vec<NamedQuery> = (0..28).map(|i| q(&format!("Q{i}"), "x")).collect();
        let inst = instances(&templates, &[]);
        let mix = Mix::new(&inst);
        let deck = mix.deal(&mut seeded(1, 0));
        let count = |t: usize| deck.iter().filter(|&&i| inst[i].template == t).count();
        assert!((0..28).all(|t| count(t) >= 1));
        assert!(count(0) > 5 * count(27));
        // Same seed, same deck; another seed, another order.
        assert_eq!(deck, mix.deal(&mut seeded(1, 0)));
        assert_ne!(deck, mix.deal(&mut seeded(2, 0)));
    }
}
