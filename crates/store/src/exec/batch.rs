//! The operator kernels and the sideways-information-passing (SIP)
//! Bloom filter.
//!
//! Every kernel processes `EngineProfile::batch_rows` tuples per step:
//! column positions and probe-key templates are resolved once per
//! operator, rows are gathered into a flat batch buffer flushed in one
//! bulk append, hash-join keys are u64 hashes (verified on probe)
//! instead of per-row `Vec` keys, sort-merge keys are materialized once
//! per side, and the liveness poll ([`ExecContext::tick_n`]) and memory
//! check run once per batch.
//!
//! **Contract**: the batch size is invisible to everything but the
//! poll cadence (still at least once per 16384 tuples) — for the same
//! plan, every batch size produces the exact same row sequence and the
//! same [`Counters`](crate::exec::Counters). The differential matrix in
//! `tests/vectorized_differential.rs` locks this against one-row
//! batches and a naive reference evaluator.
//!
//! [`SipFilter`] rides on top of batches: when the plan driver (see
//! `plan/exec.rs`) finishes the accumulated left side of a fragment
//! join step, it publishes a Bloom filter over the join-key columns;
//! the next fragment's union members probe it batch-at-a-time
//! ([`apply_sip_filter`]) and drop tuples that cannot join before they
//! are merged or joined. False positives only let a non-joining tuple
//! through to the join (which discards it), so answers are unchanged;
//! drops are counted per filter for `explain_analyze`.

use jucq_model::{FxHashMap, TermId, TripleId};

use crate::error::EngineError;
use crate::exec::union::DedupAccumulator;
use crate::exec::{join, ExecContext};
use crate::ir::{PatternTerm, StorePattern, VarId};
use crate::relation::Relation;
use crate::table::{Perm, RangePos, TripleTable};

const HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Order-independent-free (position-sensitive) hash of selected row
/// columns — the same mixing the union dedup accumulator uses.
#[inline]
fn hash_cols(row: &[TermId], cols: &[usize]) -> u64 {
    let mut h: u64 = cols.len() as u64;
    for &c in cols {
        h = (h.rotate_left(5) ^ u64::from(row[c].raw())).wrapping_mul(HASH_SEED);
    }
    h
}

#[inline]
fn keys_equal(a: &[TermId], a_cols: &[usize], b: &[TermId], b_cols: &[usize]) -> bool {
    a_cols.iter().zip(b_cols).all(|(&ac, &bc)| a[ac] == b[bc])
}

/// A triple matches a pattern's variable structure iff repeated
/// variables bind equal values.
#[inline]
fn repeated_vars_consistent(p: &StorePattern, t: &TripleId) -> bool {
    let pos = p.positions();
    let val = [t.s, t.p, t.o];
    for i in 0..3 {
        for j in (i + 1)..3 {
            if let (PatternTerm::Var(a), PatternTerm::Var(b)) = (pos[i], pos[j]) {
                if a == b && val[i] != val[j] {
                    return false;
                }
            }
        }
    }
    true
}

/// A Bloom filter over join-key tuples, published by a completed
/// fragment-join build side and probed by downstream fragments' union
/// members. Sized at ~10 bits per key (two probe positions), so the
/// false-positive rate stays in the low percent range; false positives
/// are harmless (the join discards them), false negatives impossible.
pub(crate) struct SipFilter {
    /// The join-key variables the filter covers.
    pub(crate) keys: Vec<VarId>,
    /// The filter's node label (`fragment[target].sip_filter`).
    pub(crate) label: String,
    bits: Vec<u64>,
    mask: u64,
}

impl SipFilter {
    /// Build the filter from the key columns of `source` (the join's
    /// accumulated left side).
    pub(crate) fn build(source: &Relation, keys: &[VarId], label: String) -> Self {
        let cols: Vec<usize> = keys
            .iter()
            .map(|&v| source.column_of(v).expect("SIP key bound by the build side"))
            .collect();
        let nbits = source.len().saturating_mul(10).next_power_of_two().max(1024);
        let mut bits = vec![0u64; nbits / 64];
        let mask = (nbits - 1) as u64;
        for row in source.rows() {
            let h = hash_cols(row, &cols);
            for b in Self::probe_bits(h, mask) {
                bits[(b / 64) as usize] |= 1 << (b % 64);
            }
        }
        SipFilter { keys: keys.to_vec(), label, bits, mask }
    }

    #[inline]
    fn probe_bits(h: u64, mask: u64) -> [u64; 2] {
        // Double hashing: derive the second position from the high bits
        // so the two probes are decorrelated.
        let g = (h >> 32) | 1;
        [h & mask, h.wrapping_add(g.wrapping_mul(HASH_SEED)) & mask]
    }

    /// Whether a row whose key columns hash to `h` may join (no = never).
    #[inline]
    fn may_contain(&self, h: u64) -> bool {
        Self::probe_bits(h, self.mask)
            .iter()
            .all(|&b| self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0)
    }

    /// The number of distinct keys this filter was sized for — the
    /// build-side row count rounded into bits (diagnostic only).
    #[cfg(test)]
    pub(crate) fn bit_len(&self) -> usize {
        self.bits.len() * 64
    }
}

/// Probe every row of `rel` against `filter`, dropping rows whose join
/// key cannot be present on the build side. Counts probes/drops into
/// the context's counters and per-filter stats and records the
/// `sip_filter` operator node (under the caller's `fragment[i].` scope).
pub(crate) fn apply_sip_filter(
    rel: &mut Relation,
    filter: &SipFilter,
    ctx: &mut ExecContext<'_>,
) -> Result<(), EngineError> {
    if rel.width() == 0 {
        // Boolean member results carry no key columns to probe.
        return Ok(());
    }
    let cols: Vec<usize> = filter
        .keys
        .iter()
        .map(|&v| rel.column_of(v).expect("SIP key bound by the member head"))
        .collect();
    let probes = rel.len() as u64;
    let op = ctx.op_start();
    ctx.tick_n(probes)?;
    let kept = rel.retain_rows(|row| filter.may_contain(hash_cols(row, &cols))) as u64;
    ctx.counters.sip_probes += probes;
    ctx.counters.sip_drops += probes - kept;
    ctx.record_sip(&filter.label, probes, probes - kept);
    ctx.op_finish(op, "sip_filter", kept);
    Ok(())
}

/// The triple position a collapsed interval ranges over.
fn ranged_index(ranged: RangePos) -> usize {
    match ranged {
        RangePos::Predicate => 1,
        RangePos::Object => 2,
    }
}

/// Scan one pattern into a relation over its distinct variables,
/// through `perm` (the order-aware planner's choice, so the output
/// order can feed a sort-elided merge join) or the default permutation
/// index for the bound positions. Any perm yields the same row *set*;
/// only the emission order differs.
pub(crate) fn scan_pattern(
    table: &TripleTable,
    p: &StorePattern,
    perm: Option<Perm>,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let bound = p.bound();
    let extent = table.scan_with(perm.unwrap_or_else(|| Perm::for_bound(&bound)), &bound);
    gather_extent(p, extent, ctx)
}

/// Scan one collapsed interval into a relation over the pattern
/// template's distinct variables: all triples matching the template with
/// its `ranged` position's constant replaced by any raw id in `[lo, hi)`.
/// Row-identical (and counter-identical) to unioning the point scans of
/// every id in the interval, since the underlying permutation index sorts
/// the interval contiguously.
pub(crate) fn scan_range(
    table: &TripleTable,
    p: &StorePattern,
    ranged: RangePos,
    lo: u32,
    hi: u32,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.counters.range_scans += 1;
    let mut bound = p.bound();
    bound[ranged_index(ranged)] = None;
    gather_extent(p, table.scan_value_range(&bound, ranged, lo, hi), ctx)
}

/// Gather a scanned index extent into a relation over `p`'s distinct
/// variables, dropping triples that violate a repeated variable.
fn gather_extent(
    p: &StorePattern,
    extent: &[TripleId],
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let vars = p.variables();
    let positions = p.positions();
    let var_pos: Vec<usize> = vars
        .iter()
        .map(|&v| {
            positions.iter().position(|pt| pt.as_var() == Some(v)).expect("var occurs in pattern")
        })
        .collect();
    let check_repeats = p.has_repeated_var();
    let batch = ctx.profile().effective_batch_rows();
    ctx.counters.rows_reserved += extent.len() as u64;
    let mut out = Relation::with_capacity(vars.to_vec(), extent.len());
    let zero_width = vars.is_empty();
    let mut flat: Vec<TermId> = Vec::with_capacity(batch * vars.len());
    for chunk in extent.chunks(batch) {
        ctx.counters.tuples_scanned += chunk.len() as u64;
        ctx.tick_n(chunk.len() as u64)?;
        for t in chunk {
            if check_repeats && !repeated_vars_consistent(p, t) {
                continue;
            }
            if zero_width {
                out.push_row(&[]);
            } else {
                let val = [t.s, t.p, t.o];
                flat.extend(var_pos.iter().map(|&i| val[i]));
            }
        }
        if !flat.is_empty() {
            out.append_flat(&flat);
            flat.clear();
        }
        ctx.check_memory(out.len())?;
    }
    ctx.check_memory(out.len())?;
    Ok(out)
}

/// What fills each probe-key position of an index-nested-loop step:
/// resolved once per operator instead of searched per row.
enum ProbeSlot {
    /// A pattern constant.
    Const(TermId),
    /// A column of the accumulated binding relation.
    Col(usize),
    /// A free variable (scan wildcard).
    Free,
}

/// One index-nested-loop step: extend the binding relation `acc` by
/// probing the best permutation index for `p` with the bound values of
/// each row.
pub(crate) fn probe_extend(
    table: &TripleTable,
    acc: &Relation,
    p: &StorePattern,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    probe(acc, p, None, |bound| table.scan(bound), ctx)
}

/// One interval-probe step: like [`probe_extend`], but the probed
/// pattern's `ranged` position matches any raw id in `[lo, hi)` — one
/// contiguous `scan_value_range` probe per input row where the
/// uncollapsed union needed one point probe per collapsed member
/// (LiteMat's "the type check becomes an interval membership test").
pub(crate) fn probe_extend_range(
    table: &TripleTable,
    acc: &Relation,
    p: &StorePattern,
    ranged: RangePos,
    lo: u32,
    hi: u32,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.counters.range_scans += 1;
    // The ranged position's template constant stands for the whole
    // interval: unbind it so the probe covers the contiguous index run.
    let unbound = Some(ranged_index(ranged));
    probe(acc, p, unbound, |bound| table.scan_value_range(bound, ranged, lo, hi), ctx)
}

/// The probe loop shared by both index-nested-loop steps: per row of
/// `acc`, fill the probe key (pattern constants plus the row's bound
/// variables; `unbound` forces one position free) and extend the row by
/// every triple `scan` returns for it. The probe-key template and the
/// new-variable positions are resolved once per operator.
fn probe<'t>(
    acc: &Relation,
    p: &StorePattern,
    unbound: Option<usize>,
    scan: impl Fn(&[Option<TermId>; 3]) -> &'t [TripleId],
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    let p_vars = p.variables();
    let positions = p.positions();
    let mut slots: Vec<ProbeSlot> = positions
        .iter()
        .map(|pt| match pt {
            PatternTerm::Const(c) => ProbeSlot::Const(*c),
            PatternTerm::Var(v) => match acc.column_of(*v) {
                Some(col) => ProbeSlot::Col(col),
                None => ProbeSlot::Free,
            },
        })
        .collect();
    if let Some(i) = unbound {
        slots[i] = ProbeSlot::Free;
    }
    let new_vars: Vec<VarId> =
        p_vars.iter().copied().filter(|&v| acc.column_of(v).is_none()).collect();
    let new_pos: Vec<usize> = new_vars
        .iter()
        .map(|&v| {
            positions
                .iter()
                .position(|pt| pt.as_var() == Some(v))
                .expect("new var occurs in pattern")
        })
        .collect();
    let mut out_vars = acc.vars().to_vec();
    out_vars.extend(new_vars.iter().copied());
    let width = out_vars.len();
    let zero_width = width == 0;
    let check_repeats = p.has_repeated_var();
    let mut out = Relation::empty(out_vars);
    let batch = ctx.profile().effective_batch_rows();
    let mut flat: Vec<TermId> = Vec::with_capacity(batch * width);
    let mut pending: u64 = 0;

    for arow in acc.rows() {
        pending += 1;
        let mut bound: [Option<TermId>; 3] = [None, None, None];
        for (i, slot) in slots.iter().enumerate() {
            bound[i] = match slot {
                ProbeSlot::Const(c) => Some(*c),
                ProbeSlot::Col(col) => Some(arow[*col]),
                ProbeSlot::Free => None,
            };
        }
        let matches = scan(&bound);
        ctx.counters.tuples_scanned += matches.len() as u64;
        pending += matches.len() as u64;
        for t in matches {
            if check_repeats && !repeated_vars_consistent(p, t) {
                continue;
            }
            ctx.counters.tuples_joined += 1;
            if zero_width {
                out.push_row(&[]);
            } else {
                let val = [t.s, t.p, t.o];
                flat.extend_from_slice(arow);
                flat.extend(new_pos.iter().map(|&i| val[i]));
            }
        }
        if pending >= batch as u64 {
            ctx.tick_n(pending)?;
            pending = 0;
            if !flat.is_empty() {
                out.append_flat(&flat);
                flat.clear();
            }
            ctx.check_memory(out.len())?;
        }
    }
    ctx.tick_n(pending)?;
    if !flat.is_empty() {
        out.append_flat(&flat);
    }
    ctx.check_memory(out.len())?;
    Ok(out)
}

/// Project a body result onto a head of variables and constants:
/// sources resolved once, rows gathered through a flat batch buffer.
pub(crate) fn project_head(
    body: &Relation,
    head: &[PatternTerm],
    out_vars: &[VarId],
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    enum Source {
        Column(usize),
        Constant(TermId),
    }
    let sources: Vec<Source> = head
        .iter()
        .map(|t| match t {
            PatternTerm::Var(v) => {
                Source::Column(body.column_of(*v).expect("head variable bound by the body"))
            }
            PatternTerm::Const(c) => Source::Constant(*c),
        })
        .collect();
    let mut out = Relation::with_capacity(out_vars.to_vec(), body.len());
    if out_vars.is_empty() {
        let n = body.len();
        ctx.tick_n(n as u64)?;
        for _ in 0..n {
            out.push_row(&[]);
        }
        return Ok(out);
    }
    let batch = ctx.profile().effective_batch_rows();
    let mut flat: Vec<TermId> = Vec::with_capacity(batch * out_vars.len());
    let mut in_batch = 0usize;
    for row in body.rows() {
        for s in &sources {
            flat.push(match s {
                Source::Column(c) => row[*c],
                Source::Constant(c) => *c,
            });
        }
        in_batch += 1;
        if in_batch == batch {
            ctx.tick_n(in_batch as u64)?;
            out.append_flat(&flat);
            flat.clear();
            in_batch = 0;
        }
    }
    ctx.tick_n(in_batch as u64)?;
    if !flat.is_empty() {
        out.append_flat(&flat);
    }
    Ok(out)
}

/// Hash join: build on the smaller input, probe with the larger. The
/// build table is keyed by u64 key hashes (bucket entries verified
/// against the actual key columns on probe) instead of one allocated
/// `Vec` key per row. Rows are always emitted as (left ++ right-carry),
/// so the build/probe choice only affects which side is hashed; bucket
/// candidates are stored in build order, so the output order does not
/// depend on the batch size.
pub(crate) fn hash_join(
    left: &Relation,
    right: &Relation,
    opts: join::JoinOpts,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.check_deadline()?;
    let p = join::plan(left, right);
    let mut out = join::sized_output(p.out_vars.clone(), opts.est, ctx);
    if left.is_empty() || right.is_empty() {
        return Ok(out);
    }
    let build_left = left.len() <= right.len();
    let (build, probe) = if build_left { (left, right) } else { (right, left) };
    let (build_key, probe_key) =
        if build_left { (&p.left_key, &p.right_key) } else { (&p.right_key, &p.left_key) };
    let mut table: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    table.reserve(build.len());
    for (i, row) in build.rows().enumerate() {
        table.entry(hash_cols(row, build_key)).or_default().push(i as u32);
    }
    ctx.tick_n(build.len() as u64)?;
    ctx.counters.tuples_materialized += build.len() as u64;
    ctx.check_memory(build.len())?;

    let width = out.width();
    let zero_width = width == 0;
    let batch = ctx.profile().effective_batch_rows();
    let mut flat: Vec<TermId> = Vec::with_capacity(batch * width);
    let mut pending: u64 = 0;
    for prow in probe.rows() {
        pending += 1;
        if let Some(cands) = table.get(&hash_cols(prow, probe_key)) {
            for &bi in cands {
                let brow = build.row(bi as usize);
                if !keys_equal(brow, build_key, prow, probe_key) {
                    continue;
                }
                pending += 1;
                ctx.counters.tuples_joined += 1;
                let (lrow, rrow) = if build_left { (brow, prow) } else { (prow, brow) };
                if zero_width {
                    out.push_row(&[]);
                } else {
                    flat.extend_from_slice(lrow);
                    flat.extend(p.right_carry.iter().map(|&i| rrow[i]));
                }
            }
        }
        if pending >= batch as u64 {
            ctx.tick_n(pending)?;
            pending = 0;
            if !flat.is_empty() {
                out.append_flat(&flat);
                flat.clear();
            }
            ctx.check_memory(out.len())?;
        }
    }
    ctx.tick_n(pending)?;
    if !flat.is_empty() {
        out.append_flat(&flat);
    }
    ctx.check_memory(out.len())?;
    Ok(out)
}

/// Gather the key columns of every row into one flat buffer (`k` values
/// per row) so sort comparisons read contiguous slices instead of
/// allocating a key `Vec` per comparison.
fn gather_keys(rel: &Relation, cols: &[usize]) -> Vec<TermId> {
    let mut keys = Vec::with_capacity(rel.len() * cols.len());
    for row in rel.rows() {
        keys.extend(cols.iter().map(|&c| row[c]));
    }
    keys
}

/// Sort-merge join: both sides' keys are materialized once into flat
/// buffers, then sorted and merged with batched emission. Order-aware
/// (`opts.elide`): a side the planner proved sorted skips its sort
/// after one cheap linear verification — a violated claim falls back to
/// sorting — and when input sizes are skewed ≥
/// [`GALLOP_SKEW`](join::GALLOP_SKEW)× the larger side advances with
/// galloping seeks instead of one row at a time.
pub(crate) fn sort_merge_join(
    left: &Relation,
    right: &Relation,
    opts: join::JoinOpts,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.check_deadline()?;
    let p = join::plan(left, right);
    let mut out = join::sized_output(p.out_vars.clone(), opts.est, ctx);
    if left.is_empty() || right.is_empty() {
        return Ok(out);
    }
    let k = p.left_key.len();
    let lkeys = gather_keys(left, &p.left_key);
    let rkeys = gather_keys(right, &p.right_key);
    fn slice_key(keys: &[TermId], i: usize, k: usize) -> &[TermId] {
        &keys[i * k..i * k + k]
    }
    // The longest key prefix the input already arrives sorted on, in
    // one linear pass (early exit once no prefix survives).
    let sorted_prefix = |keys: &[TermId], n: usize| -> usize {
        let mut j = k;
        for x in 1..n {
            let (a, b) = (slice_key(keys, x - 1, k), slice_key(keys, x, k));
            for c in 0..j {
                match a[c].cmp(&b[c]) {
                    std::cmp::Ordering::Less => break,
                    std::cmp::Ordering::Equal => continue,
                    std::cmp::Ordering::Greater => {
                        j = c;
                        break;
                    }
                }
            }
            if j == 0 {
                break;
            }
        }
        j
    };
    let aware = ctx.profile().order_aware;
    let order_side = |keys: &[TermId], n: usize, elide: bool| -> (Vec<u32>, bool) {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let cmp_full =
            |&a: &u32, &b: &u32| slice_key(keys, a as usize, k).cmp(slice_key(keys, b as usize, k));
        if aware {
            if n <= 1 {
                return (ids, elide);
            }
            let j = sorted_prefix(keys, n);
            if j == k {
                // Fully sorted: merge in input order. Only a
                // planner-claimed elision is counted (and exempted
                // from the materialization charge) — an input sorted
                // by coincidence still skips the sort, silently.
                return (ids, elide);
            }
            if j > 0 {
                // Sorted on a strict key prefix: sort only within the
                // runs of equal prefix — O(n log run) not O(n log n).
                let mut s = 0;
                while s < n {
                    let mut e = s + 1;
                    while e < n && slice_key(keys, s, k)[..j] == slice_key(keys, e, k)[..j] {
                        e += 1;
                    }
                    ids[s..e].sort_unstable_by(cmp_full);
                    s = e;
                }
                return (ids, false);
            }
        } else if elide && (1..n).all(|x| slice_key(keys, x - 1, k) <= slice_key(keys, x, k)) {
            return (ids, true);
        }
        ids.sort_unstable_by(cmp_full);
        (ids, false)
    };
    let (lids, l_elided) = order_side(&lkeys, left.len(), opts.elide.0);
    let (rids, r_elided) = order_side(&rkeys, right.len(), opts.elide.1);
    // An elided side is merged in input order — only sides actually
    // sorted here are charged as materialized working set.
    let mut charged = 0usize;
    for (elided, n) in [(l_elided, left.len()), (r_elided, right.len())] {
        if elided {
            ctx.counters.sorts_elided += 1;
        } else {
            charged += n;
        }
    }
    ctx.tick_n((left.len() + right.len()) as u64)?;
    ctx.counters.tuples_materialized += charged as u64;
    ctx.check_memory(left.len() + right.len())?;
    // Galloping is an order-aware execution feature: with the knob off
    // (`JUCQ_ORDER=0`) the merge steps one row at a time.
    let gallop = ctx.profile().order_aware;
    let gallop_l = gallop && left.len() >= join::GALLOP_SKEW * right.len();
    let gallop_r = gallop && right.len() >= join::GALLOP_SKEW * left.len();

    let width = out.width();
    let zero_width = width == 0;
    let batch = ctx.profile().effective_batch_rows();
    let mut flat: Vec<TermId> = Vec::with_capacity(batch * width);
    let mut pending: u64 = 0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < lids.len() && j < rids.len() {
        let lk = slice_key(&lkeys, lids[i] as usize, k);
        let rk = slice_key(&rkeys, rids[j] as usize, k);
        match lk.cmp(rk) {
            std::cmp::Ordering::Less => {
                if gallop_l {
                    i = join::gallop_to(i, lids.len(), |x| {
                        slice_key(&lkeys, lids[x] as usize, k) >= rk
                    });
                    ctx.counters.gallop_seeks += 1;
                } else {
                    i += 1;
                }
            }
            std::cmp::Ordering::Greater => {
                if gallop_r {
                    j = join::gallop_to(j, rids.len(), |x| {
                        slice_key(&rkeys, rids[x] as usize, k) >= lk
                    });
                    ctx.counters.gallop_seeks += 1;
                } else {
                    j += 1;
                }
            }
            std::cmp::Ordering::Equal => {
                let i_end = (i..lids.len())
                    .find(|&x| slice_key(&lkeys, lids[x] as usize, k) != lk)
                    .unwrap_or(lids.len());
                let j_end = (j..rids.len())
                    .find(|&x| slice_key(&rkeys, rids[x] as usize, k) != rk)
                    .unwrap_or(rids.len());
                for &li in &lids[i..i_end] {
                    for &rj in &rids[j..j_end] {
                        pending += 1;
                        ctx.counters.tuples_joined += 1;
                        if zero_width {
                            out.push_row(&[]);
                        } else {
                            flat.extend_from_slice(left.row(li as usize));
                            let rrow = right.row(rj as usize);
                            flat.extend(p.right_carry.iter().map(|&c| rrow[c]));
                        }
                        if pending >= batch as u64 {
                            ctx.tick_n(pending)?;
                            pending = 0;
                            if !flat.is_empty() {
                                out.append_flat(&flat);
                                flat.clear();
                            }
                        }
                    }
                }
                ctx.check_memory(out.len() + flat.len() / width.max(1))?;
                i = i_end;
                j = j_end;
            }
        }
    }
    ctx.tick_n(pending)?;
    if !flat.is_empty() {
        out.append_flat(&flat);
    }
    ctx.check_memory(out.len())?;
    Ok(out)
}

/// Block-nested-loop join: compare every pair of rows. Quadratic by
/// design — the weak spot of the MySQL-like profile.
pub(crate) fn block_nested_loop_join(
    left: &Relation,
    right: &Relation,
    ctx: &mut ExecContext<'_>,
) -> Result<Relation, EngineError> {
    ctx.check_deadline()?;
    let p = join::plan(left, right);
    let mut out = Relation::empty(p.out_vars.clone());
    let width = out.width();
    let zero_width = width == 0;
    let batch = ctx.profile().effective_batch_rows();
    let mut flat: Vec<TermId> = Vec::with_capacity(batch * width);
    let mut pending: u64 = 0;
    for lrow in left.rows() {
        for rrow in right.rows() {
            pending += 1;
            if keys_equal(lrow, &p.left_key, rrow, &p.right_key) {
                ctx.counters.tuples_joined += 1;
                if zero_width {
                    out.push_row(&[]);
                } else {
                    flat.extend_from_slice(lrow);
                    flat.extend(p.right_carry.iter().map(|&i| rrow[i]));
                }
            }
            if pending >= batch as u64 {
                ctx.tick_n(pending)?;
                pending = 0;
                if !flat.is_empty() {
                    out.append_flat(&flat);
                    flat.clear();
                }
            }
        }
        // The budget is enforced once per outer row, so a runaway
        // product stops before the next outer row is expanded.
        ctx.check_memory(out.len() + flat.len() / width.max(1))?;
    }
    ctx.tick_n(pending)?;
    if !flat.is_empty() {
        out.append_flat(&flat);
    }
    ctx.check_memory(out.len())?;
    Ok(out)
}

/// Merge one member's result into the accumulating union: count the
/// examined rows as deduplicated work, insert each and enforce the
/// memory budget on the distinct rows held so far. Shared by the
/// sequential and parallel union paths so both charge identical work.
pub(crate) fn merge_member(
    acc: &mut DedupAccumulator,
    r: &Relation,
    ctx: &mut ExecContext<'_>,
) -> Result<(), EngineError> {
    ctx.counters.tuples_deduped += r.len() as u64;
    let batch = ctx.profile().effective_batch_rows();
    let mut in_batch = 0u64;
    for row in r.rows() {
        acc.insert(row);
        in_batch += 1;
        if in_batch == batch as u64 {
            ctx.tick_n(in_batch)?;
            in_batch = 0;
        }
    }
    ctx.tick_n(in_batch)?;
    ctx.check_memory(acc.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Counters;
    use crate::profile::EngineProfile;
    use jucq_model::term::TermKind;

    fn id(i: u32) -> TermId {
        TermId::new(TermKind::Uri, i)
    }

    fn rel(vars: Vec<VarId>, rows: &[&[u32]]) -> Relation {
        let mut r = Relation::empty(vars);
        for row in rows {
            let ids: Vec<TermId> = row.iter().map(|&x| id(x)).collect();
            r.push_row(&ids);
        }
        r
    }

    #[test]
    fn bloom_filter_has_no_false_negatives() {
        let mut source = Relation::empty(vec![0, 1]);
        for i in 0..1000u32 {
            source.push_row(&[id(i), id(i % 13)]);
        }
        let f = SipFilter::build(&source, &[0], "fragment[1].sip_filter".to_string());
        assert!(f.bit_len() >= 1024);
        let cols = [0usize];
        for i in 0..1000u32 {
            let row = [id(i), id(0)];
            assert!(f.may_contain(hash_cols(&row, &cols)), "present key {i} must pass");
        }
        // Far-away keys are mostly rejected (probabilistic, but with
        // 10 bits/key the miss rate on 1000 foreign keys is tiny — well
        // under half even with margin for unlucky seeds).
        let rejected =
            (100_000..101_000u32).filter(|&i| !f.may_contain(hash_cols(&[id(i)], &[0]))).count();
        assert!(rejected > 500, "only {rejected}/1000 foreign keys rejected");
    }

    #[test]
    fn apply_sip_filter_drops_only_non_joining_rows() {
        let build = rel(vec![0], &[&[1], &[2], &[3]]);
        let f = SipFilter::build(&build, &[0], "fragment[1].sip_filter".to_string());
        let mut member = rel(vec![0, 1], &[&[1, 10], &[50, 20], &[3, 30], &[60, 40]]);
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        apply_sip_filter(&mut member, &f, &mut ctx).unwrap();
        // Keys 1 and 3 must survive (no false negatives); 50 and 60 are
        // *allowed* to survive as false positives but the counters must
        // reconcile either way.
        assert!(member.to_rows().contains(&vec![id(1), id(10)]));
        assert!(member.to_rows().contains(&vec![id(3), id(30)]));
        assert_eq!(ctx.counters.sip_probes, 4);
        assert_eq!(ctx.counters.sip_drops, 4 - member.len() as u64);
        let stats = ctx.take_sip_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].probes, 4);
    }

    #[test]
    fn zero_width_member_is_never_filtered() {
        let build = rel(vec![0], &[&[1]]);
        let f = SipFilter::build(&build, &[0], "fragment[1].sip_filter".to_string());
        let mut boolean = Relation::empty(vec![]);
        boolean.push_row(&[]);
        let profile = EngineProfile::pg_like();
        let mut ctx = ExecContext::new(&profile);
        apply_sip_filter(&mut boolean, &f, &mut ctx).unwrap();
        assert_eq!(boolean.len(), 1);
        assert_eq!(ctx.counters.sip_probes, 0);
    }

    /// Joins over `l` and `r` at one-row batches (the reference) and
    /// at `sizes`: identical rows in identical order, identical counters.
    fn assert_batch_invariant(
        l: &Relation,
        r: &Relation,
        opts: join::JoinOpts,
        sizes: &[usize],
    ) -> Counters {
        type JoinFn = fn(
            &Relation,
            &Relation,
            join::JoinOpts,
            &mut ExecContext<'_>,
        ) -> Result<Relation, EngineError>;
        let kernels: [(&str, JoinFn); 3] = [
            ("hash", hash_join),
            ("merge", sort_merge_join),
            ("bnl", |l, r, _, ctx| block_nested_loop_join(l, r, ctx)),
        ];
        let mut merge_counters = Counters::default();
        for (name, f) in kernels {
            let one = EngineProfile::pg_like().with_batch_size(1);
            let mut rctx = ExecContext::new(&one);
            let reference = f(l, r, opts, &mut rctx).unwrap();
            for &size in sizes {
                let profile = EngineProfile::pg_like().with_batch_size(size);
                let mut bctx = ExecContext::new(&profile);
                let got = f(l, r, opts, &mut bctx).unwrap();
                assert_eq!(
                    reference, got,
                    "{name} batch={size}: identical rows in identical order"
                );
                assert_eq!(rctx.counters, bctx.counters, "{name} batch={size}: identical counters");
            }
            if name == "merge" {
                merge_counters = rctx.counters;
            }
        }
        merge_counters
    }

    #[test]
    fn batched_joins_match_row_joins_exactly() {
        let l = rel(vec![0, 1], &[&[1, 10], &[2, 20], &[3, 30], &[1, 11]]);
        let r = rel(vec![1, 2], &[&[10, 100], &[10, 101], &[30, 300], &[40, 400]]);
        assert_batch_invariant(&l, &r, join::JoinOpts::default(), &[2, 3, 1024]);
    }

    #[test]
    fn batched_merge_join_mirrors_order_aware_counters() {
        let l = rel(vec![0, 1], &[&[1, 10], &[2, 20], &[3, 30], &[9, 30]]);
        let r = rel(vec![1, 2], &[&[10, 100], &[10, 101], &[30, 300], &[40, 400]]);
        for elide in [(false, false), (true, false), (false, true), (true, true)] {
            let opts = join::JoinOpts { elide, est: Some(4.0) };
            let merge = assert_batch_invariant(&l, &r, opts, &[2, 1024]);
            let claimed = u64::from(elide.0) + u64::from(elide.1);
            assert_eq!(merge.sorts_elided, claimed, "elide={elide:?}");
        }
    }

    #[test]
    fn batched_gallop_counts_match_row_kernel() {
        let lrows: Vec<Vec<u32>> = (0..512).map(|i| vec![i, i * 2]).collect();
        let lslices: Vec<&[u32]> = lrows.iter().map(Vec::as_slice).collect();
        let l = rel(vec![0, 1], &lslices);
        let r = rel(vec![0, 2], &[&[100, 7], &[400, 8]]);
        let merge = assert_batch_invariant(&l, &r, join::JoinOpts::default(), &[3, 64, 1024]);
        assert!(merge.gallop_seeks > 0);
    }
}
