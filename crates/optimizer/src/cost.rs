//! The analytic cost model of §4.1.
//!
//! For a JUCQ `q(x̄):- q^UCQ₁ ⋈ … ⋈ q^UCQₘ`:
//!
//! ```text
//! c(q) = c_db                                   (i)   connection overhead
//!      + Σᵢ c_eval(q^UCQᵢ)                      (ii)  fragment evaluation
//!        └ c_unique(q^UCQᵢ) + Σ_CQ c_eval(CQ)   (iii) incl. per-fragment dedup
//!      + c_join(q^UCQ₁..ₘ)                      (iv)  fragment joins
//!      + c_mat(q^UCQᵢ, i ≠ k)                   (v)   materialization, largest
//!                                                     fragment k pipelined
//!      + c_unique(q)                            (vi)  final dedup
//! ```
//!
//! with `c_eval(CQ) = (c_t + c_j)·Σ_tᵢ |CQ_{tᵢ}|` (scan + linear join,
//! equation 2), `c_join = c_j · Σ` over fragment input volumes
//! (equation 3), `c_mat = c_m · Σ` over the same volumes excluding the
//! largest fragment (equation 4), and `c_unique(q) = c_l·|q|` for
//! in-memory hashing or `c_k·|q|·log|q|` once `|q|` exceeds the
//! disk-sort threshold. The `|·|` cardinalities come from the
//! statistics layer: exact per-triple extents, estimated UCQ/JUCQ
//! result sizes.

use std::sync::{Arc, RwLock};

use jucq_model::{FxHashMap, FxHashSet};
use jucq_store::{
    collapsible_runs, PatternTerm, Statistics, StoreCq, StoreJucq, StorePattern, StoreUcq,
    TripleTable, VarId, ViewCatalog, ViewSignature,
};
use serde::{Deserialize, Serialize};

/// The system-dependent constants of the model, "which we determine by
/// running a set of simple calibration queries on the RDBMS being used"
/// (§4.1). Units: seconds (per tuple where applicable).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostConstants {
    /// Fixed overhead of connecting to the engine (`c_db`).
    pub c_db: f64,
    /// Cost of retrieving one tuple by scan (`c_t`).
    pub c_t: f64,
    /// Per-input-tuple join effort (`c_j`).
    pub c_j: f64,
    /// Per-tuple materialization effort (`c_m`).
    pub c_m: f64,
    /// Per-tuple in-memory duplicate-elimination effort (`c_l`).
    pub c_l: f64,
    /// Per-tuple·log(tuple) disk-sort dedup effort (`c_k`).
    pub c_k: f64,
    /// Result size beyond which dedup switches from hashing (`c_l`) to
    /// disk merge sort (`c_k n log n`).
    pub sort_threshold: f64,
    /// Per-tuple cost of streaming one contiguous dictionary interval
    /// (`c_range`): a collapsed union member's tuples arrive from a
    /// single index range scan, skipping the per-member lookup setup and
    /// union-dedup pressure that `c_t + c_j` prices. Defaulted on
    /// deserialization so constants documents written before the
    /// hierarchy encoding existed still load.
    #[serde(default = "default_c_range")]
    pub c_range: f64,
    /// Per-tuple cost of copying one tuple out of a materialized
    /// fragment view (`c_view`): a view-backed fragment skips member
    /// scans, joins and union dedup entirely — its price is a single
    /// sequential copy of the stored result. Defaulted on
    /// deserialization so constants documents written before the view
    /// catalog existed still load.
    #[serde(default = "default_c_view")]
    pub c_view: f64,
}

/// `c_range` for constants documents serialized before the range-scan
/// collapse existed (and the [`Default`] value): a quarter of the
/// default `c_t + c_j` — a streamed interval tuple skips the member's
/// own scan setup and join bookkeeping.
fn default_c_range() -> f64 {
    2.5e-8
}

/// `c_view` for constants documents serialized before the view catalog
/// existed (and the [`Default`] value): below even `c_range` — a view
/// tuple is a plain copy of an already-deduplicated stored row, with no
/// index traversal at all.
fn default_c_view() -> f64 {
    1.5e-8
}

impl Default for CostConstants {
    /// Plausible laptop-scale defaults; experiments calibrate real ones.
    fn default() -> Self {
        CostConstants {
            c_db: 1e-3,
            c_t: 4e-8,
            c_j: 6e-8,
            c_m: 3e-8,
            c_l: 8e-8,
            c_k: 2e-8,
            sort_threshold: 5e6,
            c_range: default_c_range(),
            c_view: default_c_view(),
        }
    }
}

/// How `c_eval(CQ)` measures a member CQ's evaluation input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalModel {
    /// Equation 2 verbatim: every atom's full extent is scanned —
    /// faithful to the paper's RDBMS plans, which scan each union arm's
    /// inputs.
    ScanVolume,
    /// The substrate-aware refinement: our engine evaluates member CQs
    /// with index-nested-loop pipelines, so the input volume is the
    /// first (smallest) extent plus the estimated intermediate sizes of
    /// the greedy pipeline prefixes. DESIGN.md documents this
    /// substitution; `ScanVolume` remains available as an ablation.
    IndexPipeline,
}

/// Cached per-fragment cost ingredients: everything `combine` needs,
/// computable once per fragment and reused across the many covers that
/// share it.
#[derive(Debug, Clone, PartialEq)]
pub struct FragComponents {
    /// Σ member `c_eval` (scan + linear join effort).
    pub eval: f64,
    /// Σ member scan volumes (the input-size proxy of equations 3–4).
    pub volume: f64,
    /// Estimated result cardinality of the fragment UCQ.
    pub card: f64,
    /// Join-selectivity domains of the fragment's head variables.
    pub var_domains: Vec<(VarId, f64)>,
}

impl FragComponents {
    /// Debug-mode sanity check: every ingredient must be finite and
    /// non-negative, or cover comparison silently corrupts (NaN breaks
    /// `<`; negative costs invert the greedy search's preferences).
    pub fn debug_check(&self) {
        debug_assert!(
            self.eval.is_finite() && self.eval >= 0.0,
            "fragment eval cost not finite/non-negative: {}",
            self.eval
        );
        debug_assert!(
            self.volume.is_finite() && self.volume >= 0.0,
            "fragment volume not finite/non-negative: {}",
            self.volume
        );
        debug_assert!(
            self.card.is_finite() && self.card >= 0.0,
            "fragment cardinality not finite/non-negative: {}",
            self.card
        );
        debug_assert!(
            self.var_domains.iter().all(|&(_, d)| d.is_finite() && d >= 0.0),
            "fragment var domain not finite/non-negative: {:?}",
            self.var_domains
        );
    }
}

/// Member-sampling threshold: fragments beyond this many member CQs are
/// estimated on an evenly-strided sample, scaled back up.
const MEMBER_SAMPLE_CAP: usize = 4096;

/// The §4.1 model bound to a dataset's statistics.
#[derive(Debug)]
pub struct PaperCostModel<'a> {
    table: &'a TripleTable,
    stats: &'a Statistics,
    constants: CostConstants,
    eval_model: EvalModel,
    /// Price range-collapse opportunities: a fragment whose members form
    /// consecutive-constant runs evaluates the collapsed share of its
    /// volume at `c_range` per tuple instead of `c_t + c_j`. Enabled by
    /// the engine when the profile's `range_scans` knob is on, so the
    /// cover search favors collapsible fragments exactly when the
    /// planner will actually collapse them.
    price_ranges: bool,
    /// Price view-backed fragments: a candidate fragment whose *body*
    /// signature has a current-epoch catalog entry costs `c_view` per
    /// stored tuple instead of its member scans and joins — so the
    /// cover search gravitates toward covers the catalog can serve.
    /// The body signature is head-agnostic (candidate heads are not
    /// final during search); a false positive only skews an estimate,
    /// never an answer.
    price_views: Option<&'a ViewCatalog>,
    /// Fragment-component memo keyed by template atoms, with the join
    /// domains of every body variable; `RwLock` so concurrent scoring
    /// workers share the hot read path without exclusive locking.
    cache: RwLock<FxHashMap<Vec<StorePattern>, Arc<FragComponents>>>,
}

impl<'a> PaperCostModel<'a> {
    /// Bind the model to a dataset and a set of calibrated constants.
    pub fn new(table: &'a TripleTable, stats: &'a Statistics, constants: CostConstants) -> Self {
        PaperCostModel {
            table,
            stats,
            constants,
            eval_model: EvalModel::IndexPipeline,
            price_ranges: false,
            price_views: None,
            cache: RwLock::new(FxHashMap::default()),
        }
    }

    /// Select the member-evaluation model (ablation hook).
    pub fn with_eval_model(mut self, eval_model: EvalModel) -> Self {
        self.eval_model = eval_model;
        self
    }

    /// Enable or disable range-collapse pricing (see
    /// [`CostConstants::c_range`]); callers pass the profile's
    /// `range_scans` knob.
    pub fn with_range_pricing(mut self, enabled: bool) -> Self {
        self.price_ranges = enabled;
        self
    }

    /// Enable view-backed fragment pricing (see
    /// [`CostConstants::c_view`]); callers pass the serving layer's
    /// catalog when the profile's `view_scans` knob is on. The memo
    /// cache keys only on template atoms, so bind the catalog before
    /// the first scoring call and keep it for the model's lifetime —
    /// [`crate::search`] constructs one model per cover search, which
    /// satisfies this by construction.
    pub fn with_view_pricing(mut self, catalog: Option<&'a ViewCatalog>) -> Self {
        self.price_views = catalog;
        self
    }

    /// The constants in use.
    pub fn constants(&self) -> &CostConstants {
        &self.constants
    }

    /// `c_unique`: duplicate elimination over `n` tuples.
    ///
    /// Degenerate cardinalities are guarded: a NaN or negative estimate
    /// (which would otherwise poison every comparison downstream — NaN
    /// breaks `<` ordering in the cover search) is treated as an empty
    /// input, and the `n·log n` branch clamps `n` to 2 before the log so
    /// `n ≤ 1` cannot produce a negative or `-inf` factor.
    pub fn c_unique(&self, n: f64) -> f64 {
        debug_assert!(!n.is_nan(), "c_unique over NaN cardinality");
        let n = if n.is_nan() { 0.0 } else { n.max(0.0) };
        if n <= self.constants.sort_threshold {
            self.constants.c_l * n
        } else {
            self.constants.c_k * n * n.max(2.0).log2()
        }
    }

    /// Total scan volume of one CQ: `Σ_tᵢ |CQ_{tᵢ}|` (exact extents).
    pub fn cq_scan_volume(&self, cq: &StoreCq) -> f64 {
        cq.patterns.iter().map(|p| self.stats.pattern_card(self.table, p) as f64).sum()
    }

    /// `c_eval(CQ) = c_scan + c_join = (c_t + c_j)·V` (equation 2),
    /// where `V` is the member's input volume under the configured
    /// [`EvalModel`].
    pub fn c_eval_cq(&self, cq: &StoreCq) -> f64 {
        (self.constants.c_t + self.constants.c_j) * self.member_input_volume(cq, &self.extents(cq))
    }

    /// Each atom's exact extent.
    fn extents(&self, cq: &StoreCq) -> Vec<f64> {
        cq.patterns.iter().map(|p| self.stats.pattern_card(self.table, p) as f64).collect()
    }

    /// The member's evaluated input volume under the configured model,
    /// given its atoms' [`PaperCostModel::extents`].
    fn member_input_volume(&self, cq: &StoreCq, extents: &[f64]) -> f64 {
        if self.eval_model == EvalModel::ScanVolume || cq.patterns.len() <= 1 {
            return extents.iter().sum();
        }
        // Greedy min-extent-first pipeline: the first extent is scanned;
        // every further step's input is the estimated intermediate result
        // so far.
        let mut order: Vec<usize> = (0..cq.patterns.len()).collect();
        order.sort_by(|&a, &b| extents[a].partial_cmp(&extents[b]).expect("finite extents"));
        let mut volume = extents[order[0]];
        let mut prefix: Vec<StorePattern> = vec![cq.patterns[order[0]]];
        let mut prefix_ext: Vec<f64> = vec![extents[order[0]]];
        for &i in &order[1..] {
            prefix.push(cq.patterns[i]);
            prefix_ext.push(extents[i]);
            volume += self.stats.est_with_extents(&prefix, &prefix_ext);
        }
        volume
    }

    /// Total scan volume of a UCQ (the input-size proxy of equations
    /// 3–4).
    pub fn ucq_scan_volume(&self, ucq: &StoreUcq) -> f64 {
        ucq.cqs.iter().map(|cq| self.cq_scan_volume(cq)).sum()
    }

    /// `c_eval(UCQ) = c_unique(UCQ) + Σ_CQ c_eval(CQ)`.
    pub fn c_eval_ucq(&self, ucq: &StoreUcq) -> f64 {
        let comps = self.fragment_components(ucq, None);
        comps.eval + self.c_unique(comps.card)
    }

    /// Evenly strided member sample with its scale-back factor.
    fn member_sample<'u>(&self, ucq: &'u StoreUcq) -> (Vec<&'u StoreCq>, f64) {
        let n = ucq.cqs.len();
        if n <= MEMBER_SAMPLE_CAP {
            (ucq.cqs.iter().collect(), 1.0)
        } else {
            let stride = n.div_ceil(MEMBER_SAMPLE_CAP / 2);
            let sample: Vec<&StoreCq> = ucq.cqs.iter().step_by(stride).collect();
            // `step_by` over a non-empty list always yields at least one
            // member, but guard the ratio anyway: an empty sample must
            // scale by 1, not by n/0 = inf.
            let scale = if sample.is_empty() { 1.0 } else { n as f64 / sample.len() as f64 };
            (sample, scale)
        }
    }

    /// Compute a fragment's cost ingredients. `template` optionally
    /// supplies the fragment's *cover query* (its original atoms plus
    /// each atom's unioned reformulation extent): with it, the result
    /// cardinality is the overlap-aware join estimate over unioned
    /// extents instead of the member-sum, which overcounts badly (all
    /// members of a reformulated union return overlapping answers).
    pub fn fragment_components(
        &self,
        ucq: &StoreUcq,
        template: Option<(&[StorePattern], &[f64])>,
    ) -> FragComponents {
        self.components(ucq, template, &ucq.head)
    }

    /// [`PaperCostModel::fragment_components`], except that a template
    /// estimate reports the join domains of `domain_vars` instead of the
    /// head's (the member-derived estimate always reports the head's).
    fn components(
        &self,
        ucq: &StoreUcq,
        template: Option<(&[StorePattern], &[f64])>,
        domain_vars: &[VarId],
    ) -> FragComponents {
        let (members, scale) = self.member_sample(ucq);
        let mut eval = 0.0;
        let mut volume = 0.0;
        let mut member_card_sum = 0.0;
        let c_tj = self.constants.c_t + self.constants.c_j;
        for cq in &members {
            let extents = self.extents(cq);
            eval += c_tj * self.member_input_volume(cq, &extents);
            volume += extents.iter().sum::<f64>();
            if template.is_none() {
                member_card_sum += self.stats.est_cq(self.table, cq);
            }
        }
        eval *= scale;
        volume *= scale;
        member_card_sum *= scale;

        // Range-collapse discount: the share of members a planner
        // collapse would eliminate streams its volume at `c_range` per
        // tuple instead of paying per-member scan + join setup.
        // Detection only runs below the sampling cap — a strided sample
        // destroys id-consecutiveness, so larger unions conservatively
        // keep the undiscounted price.
        if self.price_ranges && ucq.cqs.len() > 1 && ucq.cqs.len() <= MEMBER_SAMPLE_CAP {
            let runs = collapsible_runs(ucq.cqs.iter());
            let collapsed: usize = runs.iter().map(|r| r.members.len() - 1).sum();
            if collapsed > 0 {
                let f = collapsed as f64 / ucq.cqs.len() as f64;
                eval = eval * (1.0 - f) + self.constants.c_range * volume * f;
            }
        }

        let card = match template {
            Some((atoms, extents)) => {
                debug_assert_eq!(atoms.len(), extents.len());
                self.stats.est_with_extents(atoms, extents)
            }
            None => member_card_sum,
        };

        // Head-variable domains for fragment-join selectivity.
        let head_vars: Vec<VarId> = ucq.head.clone();
        let mut var_domains: Vec<(VarId, f64)> = Vec::with_capacity(domain_vars.len());
        match template {
            Some((atoms, extents)) => {
                for &v in domain_vars {
                    let d = self.stats.var_domain_in(atoms, extents, v);
                    var_domains.push((v, d.min(card.max(1.0))));
                }
            }
            None => {
                // Derive from (sampled) members: pattern-based domains,
                // plus distinct constants for instantiated head vars.
                let mut consts: FxHashMap<VarId, FxHashSet<jucq_model::TermId>> =
                    FxHashMap::default();
                let mut domains: FxHashMap<VarId, f64> = FxHashMap::default();
                for cq in &members {
                    let extents: Vec<f64> = cq
                        .patterns
                        .iter()
                        .map(|p| self.stats.pattern_card(self.table, p) as f64)
                        .collect();
                    for &v in &head_vars {
                        let d = self.stats.var_domain_in(&cq.patterns, &extents, v);
                        domains.entry(v).and_modify(|cur| *cur = cur.max(d)).or_insert(d);
                    }
                    for (pos, &v) in head_vars.iter().enumerate() {
                        if let Some(PatternTerm::Const(c)) = cq.head.get(pos) {
                            consts.entry(v).or_default().insert(*c);
                        }
                    }
                }
                for &v in &head_vars {
                    let mut d = domains.get(&v).copied().unwrap_or(1.0);
                    if let Some(cs) = consts.get(&v) {
                        d = d.max(cs.len() as f64 * scale.min(8.0));
                    }
                    var_domains.push((v, d.min(card.max(1.0))));
                }
            }
        }
        let mut comps = FragComponents { eval, volume, card, var_domains };

        // View-backed pricing: if the catalog holds this fragment body
        // at the current epoch, the fragment's true cost is one
        // sequential copy of the stored result — and its stored tuple
        // count is the *exact* result cardinality, better than any
        // estimate.
        if let Some(catalog) = self.price_views {
            if let Some(tuples) = catalog.body_tuples(&ViewSignature::body_of(ucq)) {
                let t = tuples as f64;
                comps.eval = self.constants.c_view * t;
                comps.volume = t;
                comps.card = t;
                for d in &mut comps.var_domains {
                    d.1 = d.1.min(t.max(1.0));
                }
            }
        }

        comps.debug_check();
        comps
    }

    /// [`PaperCostModel::fragment_components`] with a cover-query
    /// template, memoized by the template's atoms (content-addressed, so
    /// one model instance can serve several queries safely). `extents`
    /// supplies each atom's unioned extent and is only called on a miss.
    ///
    /// Only the join domains depend on the fragment's head, which varies
    /// with the cover for the same atoms: the memo holds the domains of
    /// every body variable, and each call keeps its own head's.
    pub fn fragment_components_cached(
        &self,
        ucq: &StoreUcq,
        atoms: &[StorePattern],
        extents: impl FnOnce() -> Vec<f64>,
    ) -> FragComponents {
        let hit = self.cache.read().expect("component cache lock").get(atoms).cloned();
        let all = hit.unwrap_or_else(|| {
            let mut body_vars: Vec<VarId> = Vec::new();
            for v in atoms.iter().flat_map(StorePattern::variables) {
                if !body_vars.contains(&v) {
                    body_vars.push(v);
                }
            }
            let extents = extents();
            let comps = Arc::new(self.components(ucq, Some((atoms, &extents)), &body_vars));
            self.cache.write().expect("component cache lock").insert(atoms.to_vec(), comps.clone());
            comps
        });
        let var_domains = ucq
            .head
            .iter()
            .map(|&v| {
                *all.var_domains
                    .iter()
                    .find(|d| d.0 == v)
                    .expect("head variables occur in the body")
            })
            .collect();
        FragComponents { var_domains, ..*all }
    }

    /// Equation 1: assemble a JUCQ's cost from its fragments'
    /// ingredients.
    ///
    /// Join and materialization inputs (equations 3–4) are measured per
    /// the configured [`EvalModel`]: the literal `ScanVolume` variant
    /// uses the paper's scan-volume proxy for fragment result sizes,
    /// while `IndexPipeline` uses the estimated fragment cardinalities —
    /// the engine joins and materializes *results*, and the
    /// overlap-aware estimates make that quantity available (the scan
    /// proxy overstates a selective fragment's join input by orders of
    /// magnitude).
    pub fn combine(&self, frags: &[FragComponents]) -> f64 {
        let c = &self.constants;
        let eval: f64 = frags.iter().map(|f| f.eval + self.c_unique(f.card)).sum();
        let total_volume: f64 = frags.iter().map(|f| f.volume).sum();
        let join_measure = |f: &FragComponents| match self.eval_model {
            EvalModel::ScanVolume => f.volume,
            EvalModel::IndexPipeline => f.card,
        };
        let (join, mat) = if frags.len() > 1 {
            let total: f64 = frags.iter().map(join_measure).sum();
            let largest = frags.iter().map(join_measure).fold(f64::NEG_INFINITY, f64::max);
            (c.c_j * total, c.c_m * (total - largest).max(0.0))
        } else {
            (0.0, 0.0)
        };
        // Fragment-join cardinality: product of fragment estimates with
        // per-shared-variable containment selectivity.
        let mut est: f64 = frags.iter().map(|f| f.card).product();
        let mut var_domains: Vec<(VarId, f64)> =
            frags.iter().flat_map(|f| f.var_domains.iter().copied()).collect();
        var_domains.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| a.1.partial_cmp(&b.1).expect("finite domains"))
        });
        for domains in var_domains.chunk_by(|a, b| a.0 == b.0) {
            for &(_, d) in &domains[1..] {
                est /= d.max(1.0);
            }
        }
        // Clamp by the plan's total input: independence estimates can
        // explode on many-fragment covers, and every JUCQ of one query
        // has the same true result anyway.
        let final_card = est.min(total_volume.max(1.0));
        let total = c.c_db + eval + join + mat + self.c_unique(final_card);
        debug_assert!(
            total.is_finite() && total >= 0.0,
            "combined JUCQ cost not finite/non-negative: {total}"
        );
        total
    }

    /// Full JUCQ cost (equation 1 with equations 2–4 injected),
    /// computed from per-fragment components without template
    /// information (used when only the compiled JUCQ is at hand; the
    /// cover search supplies templates through
    /// [`PaperCostModel::fragment_components_cached`]).
    pub fn cost(&self, jucq: &StoreJucq) -> f64 {
        let comps: Vec<FragComponents> =
            jucq.fragments.iter().map(|u| self.fragment_components(u, None)).collect();
        self.combine(&comps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::term::TermKind;
    use jucq_model::{TermId, TripleId};
    use jucq_store::{PatternTerm, StorePattern, VarId};

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

    fn setup() -> (TripleTable, Statistics) {
        let triples: Vec<TripleId> =
            (0..50).map(|i| t(i, 10, i % 5)).chain((0..10).map(|i| t(i, 11, 100 + i))).collect();
        let table = TripleTable::build(&triples);
        let stats = Statistics::build(&table);
        (table, stats)
    }

    fn frag(patterns: Vec<StorePattern>, head: Vec<VarId>) -> StoreUcq {
        StoreUcq::new(vec![StoreCq::with_var_head(patterns, head.clone())], head)
    }

    #[test]
    fn unique_switches_regimes() {
        let (table, stats) = setup();
        let constants = CostConstants { sort_threshold: 100.0, ..CostConstants::default() };
        let m = PaperCostModel::new(&table, &stats, constants);
        let small = m.c_unique(100.0);
        let large = m.c_unique(101.0);
        assert!((small - constants.c_l * 100.0).abs() < 1e-12);
        assert!((large - constants.c_k * 101.0 * 101f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn scan_volume_uses_exact_extents() {
        let (table, stats) = setup();
        let m = PaperCostModel::new(&table, &stats, CostConstants::default());
        let cq = StoreCq::with_var_head(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), v(2))],
            vec![0],
        );
        assert_eq!(m.cq_scan_volume(&cq), 60.0);
    }

    #[test]
    fn single_fragment_has_no_join_or_mat_cost() {
        let (table, stats) = setup();
        let constants = CostConstants::default();
        let m = PaperCostModel::new(&table, &stats, constants);
        let f = frag(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]);
        let jucq = StoreJucq::from_ucq(f.clone());
        let expected =
            constants.c_db + m.c_eval_ucq(&f) + m.c_unique(stats.est_jucq(&table, &jucq));
        assert!((m.cost(&jucq) - expected).abs() < 1e-12);
    }

    #[test]
    fn multi_fragment_adds_join_and_materialization() {
        let (table, stats) = setup();
        let m = PaperCostModel::new(&table, &stats, CostConstants::default());
        let fa = frag(vec![StorePattern::new(v(0), c(10), v(1))], vec![0]);
        let fb = frag(vec![StorePattern::new(v(0), c(11), v(2))], vec![0]);
        let joint = StoreJucq::new(vec![fa.clone(), fb.clone()], vec![0]);
        let single_costs = m.c_eval_ucq(&fa) + m.c_eval_ucq(&fb);
        assert!(m.cost(&joint) > single_costs, "join + mat + dedup add cost");
    }

    #[test]
    fn materialization_skips_largest_fragment() {
        let (table, stats) = setup();
        let constants = CostConstants {
            c_db: 0.0,
            c_t: 0.0,
            c_j: 0.0,
            c_l: 0.0,
            c_k: 0.0,
            c_m: 1.0,
            sort_threshold: f64::MAX,
            c_range: 0.0,
            c_view: 0.0,
        };
        let m = PaperCostModel::new(&table, &stats, constants);
        // Volumes: fragment a = 50, fragment b = 10 ⇒ mat cost = 10.
        let fa = frag(vec![StorePattern::new(v(0), c(10), v(1))], vec![0]);
        let fb = frag(vec![StorePattern::new(v(0), c(11), v(2))], vec![0]);
        let joint = StoreJucq::new(vec![fa, fb], vec![0]);
        assert!((m.cost(&joint) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn range_pricing_discounts_collapsible_fragments() {
        let (table, stats) = setup();
        let m_off = PaperCostModel::new(&table, &stats, CostConstants::default());
        let m_on =
            PaperCostModel::new(&table, &stats, CostConstants::default()).with_range_pricing(true);
        // Members differing only in a consecutive object constant
        // (objects 0..5 of predicate 10 — the planner would collapse
        // them into one RangeScan).
        let consecutive = StoreUcq::new(
            (0..5)
                .map(|o| {
                    StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), c(o))], vec![0])
                })
                .collect(),
            vec![0],
        );
        let priced = m_on.fragment_components(&consecutive, None);
        let plain = m_off.fragment_components(&consecutive, None);
        assert!(
            priced.eval < plain.eval,
            "collapsible fragment not discounted: {} vs {}",
            priced.eval,
            plain.eval
        );
        // Gapped constants form no run: both models price identically.
        let gapped = StoreUcq::new(
            [0u32, 2, 4]
                .iter()
                .map(|&o| {
                    StoreCq::with_var_head(vec![StorePattern::new(v(0), c(10), c(o))], vec![0])
                })
                .collect(),
            vec![0],
        );
        let priced = m_on.fragment_components(&gapped, None);
        let plain = m_off.fragment_components(&gapped, None);
        assert_eq!(priced.eval, plain.eval, "non-collapsible fragment must not be discounted");
    }

    #[test]
    fn view_pricing_discounts_catalog_backed_fragments() {
        use jucq_store::{Relation, ViewCatalog, ViewFootprint, ViewSignature};

        let (table, stats) = setup();
        let f = frag(
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), v(2))],
            vec![0],
        );

        // Materialize a stand-in result for the fragment and register it.
        let mut rows = Relation::empty(vec![0]);
        for i in 0..10u32 {
            rows.push_row(&[id(i)]);
        }
        let catalog = ViewCatalog::new(1_000);
        assert!(catalog.insert(
            ViewSignature::of(&f),
            ViewSignature::body_of(&f),
            rows,
            ViewFootprint::of(&f, id(9999)),
        ));

        let plain = PaperCostModel::new(&table, &stats, CostConstants::default());
        let priced = PaperCostModel::new(&table, &stats, CostConstants::default())
            .with_view_pricing(Some(&catalog));
        let without = plain.fragment_components(&f, None);
        let with = priced.fragment_components(&f, None);
        assert!(
            with.eval < without.eval,
            "view-backed fragment not discounted: {} vs {}",
            with.eval,
            without.eval
        );
        assert_eq!(with.card, 10.0, "stored tuple count is the exact cardinality");
        assert_eq!(with.volume, 10.0);

        // A fragment the catalog does not hold prices identically.
        let other = frag(vec![StorePattern::new(v(0), c(11), v(1))], vec![0]);
        assert_eq!(
            plain.fragment_components(&other, None).eval,
            priced.fragment_components(&other, None).eval,
            "non-catalog fragment must not be discounted"
        );
    }

    #[test]
    fn component_memo_keeps_each_heads_domains() {
        // The same template atoms under head {x}, then {x, y} (as one
        // fragment's cover query does in two covers): the memo hit must
        // report y's domain too, exactly as a fresh model computes it.
        let (table, stats) = setup();
        let atoms =
            vec![StorePattern::new(v(0), c(10), v(1)), StorePattern::new(v(0), c(11), v(2))];
        let extents = || vec![50.0, 10.0];
        let under_x = frag(atoms.clone(), vec![0]);
        let under_xy = frag(atoms.clone(), vec![0, 1]);

        let m = PaperCostModel::new(&table, &stats, CostConstants::default());
        let first = m.fragment_components_cached(&under_x, &atoms, extents);
        let second = m.fragment_components_cached(&under_xy, &atoms, extents);
        let fresh = PaperCostModel::new(&table, &stats, CostConstants::default())
            .fragment_components_cached(&under_xy, &atoms, extents);
        assert_eq!(second, fresh);
        assert_eq!(second.var_domains.iter().map(|d| d.0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(first.var_domains, second.var_domains[..1]);
        assert_eq!(first, m.fragment_components(&under_x, Some((&atoms, &extents()))));
    }

    #[test]
    fn bigger_scan_volume_costs_more() {
        let (table, stats) = setup();
        let m = PaperCostModel::new(&table, &stats, CostConstants::default());
        let big = StoreJucq::from_ucq(frag(vec![StorePattern::new(v(0), c(10), v(1))], vec![0, 1]));
        let small =
            StoreJucq::from_ucq(frag(vec![StorePattern::new(v(0), c(11), v(1))], vec![0, 1]));
        assert!(m.cost(&big) > m.cost(&small));
    }
}
