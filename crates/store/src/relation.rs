//! Materialized relations: the tuples flowing between operators.

use jucq_model::{FxHashSet, TermId};

use crate::ir::VarId;

/// A materialized relation: a flat row-major buffer of [`TermId`]s with
/// a variable-name schema. Flattening keeps rows contiguous (one
/// allocation instead of one per row) — the hot representation the
/// perf-book guidance asks for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relation {
    vars: Vec<VarId>,
    data: Vec<TermId>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(vars: Vec<VarId>) -> Self {
        Relation { vars, data: Vec::new() }
    }

    /// An empty relation with pre-reserved row capacity.
    pub fn with_capacity(vars: Vec<VarId>, rows: usize) -> Self {
        let width = vars.len();
        Relation { vars, data: Vec::with_capacity(rows * width) }
    }

    /// The schema: one variable per column.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.vars.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        if self.vars.is_empty() {
            // Zero-width relations encode boolean results: we store the
            // row count out-of-band as data length (0 or 1 sentinel per
            // row would be invisible with width 0), so treat data len as
            // the count directly.
            self.data.len()
        } else {
            self.data.len() / self.vars.len()
        }
    }

    /// True iff the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics (debug) if the row width does not match the schema. For
    /// zero-width relations, pushes a presence marker.
    pub fn push_row(&mut self, row: &[TermId]) {
        debug_assert_eq!(row.len(), self.vars.len());
        if self.vars.is_empty() {
            // Presence marker for boolean relations.
            self.data.push(TermId::from_raw(0));
        } else {
            self.data.extend_from_slice(row);
        }
    }

    /// Iterate over rows as slices. Zero-width (boolean) relations yield
    /// one empty slice per presence marker.
    pub fn rows(&self) -> impl Iterator<Item = &[TermId]> + '_ {
        let zero_width = self.vars.is_empty();
        let width = if zero_width { 1 } else { self.vars.len() };
        self.data.chunks_exact(width).map(move |chunk| if zero_width { &chunk[..0] } else { chunk })
    }

    /// Row access by index. Zero-width (boolean) relations yield empty
    /// slices.
    pub fn row(&self, i: usize) -> &[TermId] {
        if self.vars.is_empty() {
            debug_assert!(i < self.data.len());
            return &[];
        }
        let w = self.vars.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// The column position of a variable, if present.
    pub fn column_of(&self, var: VarId) -> Option<usize> {
        self.vars.iter().position(|&v| v == var)
    }

    /// Project onto `head` (reordering/dropping columns).
    ///
    /// # Panics
    /// Panics if a head variable is missing from the schema.
    pub fn project(&self, head: &[VarId]) -> Relation {
        if head == self.vars {
            return self.clone();
        }
        let cols: Vec<usize> =
            head.iter().map(|v| self.column_of(*v).expect("projection variable present")).collect();
        let mut out = Relation::with_capacity(head.to_vec(), self.len());
        let mut row_buf: Vec<TermId> = Vec::with_capacity(head.len());
        for row in self.rows() {
            row_buf.clear();
            row_buf.extend(cols.iter().map(|&c| row[c]));
            out.push_row(&row_buf);
        }
        out
    }

    /// Remove duplicate rows (hash-based; set semantics). Returns the
    /// number of rows removed.
    pub fn dedup_in_place(&mut self) -> usize {
        if self.vars.is_empty() {
            let before = self.data.len();
            self.data.truncate(1.min(before));
            return before - self.data.len();
        }
        let width = self.vars.len();
        let mut seen: FxHashSet<&[TermId]> = FxHashSet::default();
        let mut keep: Vec<bool> = Vec::with_capacity(self.len());
        // Safety dance avoided: collect row hashes via a temporary set of
        // owned keys would allocate per row; instead do two passes over
        // indices with a set of row slices borrowed from a snapshot.
        let snapshot = self.data.clone();
        for chunk in snapshot.chunks_exact(width) {
            keep.push(seen.insert(chunk));
        }
        let mut removed = 0;
        let mut write = 0;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                if write != i {
                    self.data.copy_within(i * width..(i + 1) * width, write * width);
                }
                write += 1;
            } else {
                removed += 1;
            }
        }
        self.data.truncate(write * width);
        removed
    }

    /// Remove duplicate rows without the snapshot copy of
    /// [`Relation::dedup_in_place`]: open-addressing over row indices
    /// into the already-compacted prefix (kept rows sit at or before the
    /// candidate, so probing only ever reads settled data). Same result
    /// and first-occurrence order as the snapshot version; used by the
    /// plan driver's final duplicate elimination.
    pub fn dedup_in_place_hashed(&mut self) -> usize {
        if self.vars.is_empty() {
            let before = self.data.len();
            self.data.truncate(1.min(before));
            return before - self.data.len();
        }
        let width = self.vars.len();
        let n = self.len();
        if n == 0 {
            return 0;
        }
        // ≤ 50% load factor; slot 0 = empty, else kept-row index + 1.
        let mut slots: Vec<u32> = vec![0; (n * 2).next_power_of_two()];
        let mask = slots.len() - 1;
        let hash = |row: &[TermId]| -> usize {
            let mut h: u64 = row.len() as u64;
            for t in row {
                h = (h.rotate_left(5) ^ u64::from(t.raw())).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
            }
            h as usize
        };
        let mut write = 0usize;
        let mut removed = 0usize;
        for i in 0..n {
            let start = i * width;
            let mut slot = hash(&self.data[start..start + width]) & mask;
            let mut dup = false;
            loop {
                match slots[slot] {
                    0 => {
                        slots[slot] = write as u32 + 1;
                        break;
                    }
                    idx => {
                        let j = (idx as usize - 1) * width;
                        if self.data[j..j + width] == self.data[start..start + width] {
                            dup = true;
                            break;
                        }
                        slot = (slot + 1) & mask;
                    }
                }
            }
            if dup {
                removed += 1;
            } else {
                if write != i {
                    self.data.copy_within(start..start + width, write * width);
                }
                write += 1;
            }
        }
        self.data.truncate(write * width);
        removed
    }

    /// Keep only the rows satisfying `pred`, preserving order; returns
    /// the number of rows kept. Zero-width (boolean) relations are left
    /// untouched — their rows carry no values to test.
    pub fn retain_rows(&mut self, mut pred: impl FnMut(&[TermId]) -> bool) -> usize {
        if self.vars.is_empty() {
            return self.len();
        }
        let width = self.vars.len();
        let n = self.len();
        let mut write = 0usize;
        for i in 0..n {
            let start = i * width;
            if pred(&self.data[start..start + width]) {
                if write != i {
                    self.data.copy_within(start..start + width, write * width);
                }
                write += 1;
            }
        }
        self.data.truncate(write * width);
        write
    }

    /// Append width-aligned row data in one bulk copy (the batched
    /// kernels' flush path).
    ///
    /// # Panics
    /// Panics (debug) if the relation is zero-width or the data length
    /// is not a multiple of the width.
    pub(crate) fn append_flat(&mut self, flat: &[TermId]) {
        debug_assert!(!self.vars.is_empty(), "zero-width rows are presence markers, not data");
        debug_assert_eq!(flat.len() % self.vars.len(), 0);
        self.data.extend_from_slice(flat);
    }

    /// Concatenate another relation with the same schema.
    ///
    /// # Panics
    /// Panics (debug) if the schemas differ.
    pub fn append(&mut self, other: &Relation) {
        debug_assert_eq!(self.vars, other.vars);
        self.data.extend_from_slice(&other.data);
    }

    /// Sort rows lexicographically (used by sort-merge join and for
    /// deterministic test comparisons).
    pub fn sort(&mut self) {
        if self.vars.is_empty() {
            return;
        }
        let width = self.vars.len();
        let mut rows: Vec<Vec<TermId>> =
            self.data.chunks_exact(width).map(<[TermId]>::to_vec).collect();
        rows.sort_unstable();
        self.data.clear();
        for r in rows {
            self.data.extend_from_slice(&r);
        }
    }

    /// Keep only the first `n` rows (SPARQL `LIMIT`).
    pub fn truncate(&mut self, n: usize) {
        let w = if self.vars.is_empty() { 1 } else { self.vars.len() };
        self.data.truncate(n.saturating_mul(w));
    }

    /// Collect rows as owned vectors (test/diagnostic helper).
    pub fn to_rows(&self) -> Vec<Vec<TermId>> {
        self.rows().map(<[TermId]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn push_and_iterate() {
        let r = rel(vec![0, 1], &[&[1, 2], &[3, 4]]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1), &[id(3), id(4)]);
        assert_eq!(r.rows().count(), 2);
    }

    #[test]
    fn projection_reorders_and_drops() {
        let r = rel(vec![0, 1, 2], &[&[1, 2, 3], &[4, 5, 6]]);
        let p = r.project(&[2, 0]);
        assert_eq!(p.vars(), &[2, 0]);
        assert_eq!(p.to_rows(), vec![vec![id(3), id(1)], vec![id(6), id(4)]]);
    }

    #[test]
    fn projection_identity_is_cheap_copy() {
        let r = rel(vec![0, 1], &[&[1, 2]]);
        assert_eq!(r.project(&[0, 1]), r);
    }

    #[test]
    fn dedup_removes_duplicates_keeping_first_occurrence_order() {
        let mut r = rel(vec![0], &[&[1], &[2], &[1], &[3], &[2]]);
        let removed = r.dedup_in_place();
        assert_eq!(removed, 2);
        assert_eq!(r.to_rows(), vec![vec![id(1)], vec![id(2)], vec![id(3)]]);
    }

    #[test]
    fn dedup_on_empty_is_noop() {
        let mut r = Relation::empty(vec![0, 1]);
        assert_eq!(r.dedup_in_place(), 0);
        assert_eq!(r.dedup_in_place_hashed(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn hashed_dedup_matches_snapshot_dedup() {
        let mut snap = Relation::empty(vec![0, 1]);
        for i in 0..300u32 {
            snap.push_row(&[id(i % 40), id(i % 7)]);
        }
        let mut hashed = snap.clone();
        assert_eq!(snap.dedup_in_place(), hashed.dedup_in_place_hashed());
        assert_eq!(snap, hashed, "same survivors in the same order");

        let mut boolean = Relation::empty(vec![]);
        boolean.push_row(&[]);
        boolean.push_row(&[]);
        assert_eq!(boolean.dedup_in_place_hashed(), 1);
        assert_eq!(boolean.len(), 1);
    }

    #[test]
    fn retain_rows_compacts_in_order() {
        let mut r = rel(vec![0, 1], &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let kept = r.retain_rows(|row| row[0] != id(3) && row[0] != id(7));
        assert_eq!(kept, 2);
        assert_eq!(r.to_rows(), vec![vec![id(1), id(2)], vec![id(5), id(6)]]);

        let mut boolean = Relation::empty(vec![]);
        boolean.push_row(&[]);
        assert_eq!(boolean.retain_rows(|_| false), 1, "boolean rows are never filtered");
        assert_eq!(boolean.len(), 1);
    }

    #[test]
    fn append_concatenates() {
        let mut a = rel(vec![0], &[&[1]]);
        let b = rel(vec![0], &[&[2], &[3]]);
        a.append(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn sort_orders_rows() {
        let mut r = rel(vec![0, 1], &[&[3, 1], &[1, 2], &[2, 0]]);
        r.sort();
        assert_eq!(r.to_rows(), vec![vec![id(1), id(2)], vec![id(2), id(0)], vec![id(3), id(1)]]);
    }

    #[test]
    fn zero_width_boolean_relation() {
        let mut r = Relation::empty(vec![]);
        assert!(r.is_empty());
        r.push_row(&[]);
        r.push_row(&[]);
        assert_eq!(r.len(), 2);
        r.dedup_in_place();
        assert_eq!(r.len(), 1, "boolean TRUE collapses to one row");
    }

    #[test]
    fn truncate_keeps_prefix() {
        let mut r = rel(vec![0, 1], &[&[1, 2], &[3, 4], &[5, 6]]);
        r.truncate(2);
        assert_eq!(r.to_rows(), vec![vec![id(1), id(2)], vec![id(3), id(4)]]);
        r.truncate(10);
        assert_eq!(r.len(), 2, "over-truncation is a no-op");
    }

    #[test]
    fn column_lookup() {
        let r = rel(vec![4, 7], &[]);
        assert_eq!(r.column_of(7), Some(1));
        assert_eq!(r.column_of(9), None);
    }
}
