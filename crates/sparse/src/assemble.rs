//! Reusable CSR assembly for systems that are rebuilt every iteration.

use crate::csr::CsrMatrix;
use crate::triplet::TripletMatrix;

/// Turns a sequence of stamped [`TripletMatrix`] batches into one
/// regularized [`CsrMatrix`], in buffers that live across calls.
///
/// Entries are counted per row, then scattered into row-grouped arrays in
/// arrival order (batch by batch), and every row goes through the same
/// sort and duplicate merge as [`CsrMatrix::from_triplets`]. A row therefore
/// sees its entries in the same order as it would after concatenating the
/// batches, so the result is bit-identical to that path, while nothing is
/// concatenated and, once the buffers have grown to the system's size,
/// nothing is allocated.
///
/// # Example
///
/// ```
/// use complx_sparse::{CsrAssembler, TripletMatrix};
///
/// let mut nets = TripletMatrix::new(3);
/// nets.add_connection(0, 1, 2.0);
/// let mut asm = CsrAssembler::new();
/// let mut pulled = Vec::new();
/// let a = asm.assemble_regularized(3, [&nets], 1e-8, |row| pulled.push(row));
/// assert_eq!(a.get(0, 1), -2.0);
/// assert_eq!(a.get(2, 2), 1e-8); // row 2 has no connection of its own
/// assert_eq!(pulled, [2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsrAssembler {
    /// Start of each row in the row-grouped raw arrays (`n + 1` entries).
    row_start: Vec<usize>,
    /// Next free slot of each row while scattering.
    cursor: Vec<usize>,
    /// Row-grouped raw column indices, in arrival order within a row.
    col_raw: Vec<u32>,
    /// Row-grouped raw values, parallel to `col_raw`.
    val_raw: Vec<f64>,
    /// One row's raw entries while it is sorted and merged.
    scratch: Vec<(u32, f64)>,
    /// The assembled matrix.
    csr: CsrMatrix,
}

impl CsrAssembler {
    /// Creates an assembler with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles the `n`×`n` sum of `batches` and keeps it positive
    /// definite: every row whose merged diagonal is not positive gets `reg`
    /// added to its diagonal after its own entries, and
    /// `regularized(row)` is called for it, rows in increasing order.
    ///
    /// The result equals, bit for bit, concatenating the batches into one
    /// [`TripletMatrix`], converting it to CSR to read the diagonal, adding
    /// `reg` to the rows found wanting and converting again — with one
    /// conversion instead of two.
    ///
    /// # Panics
    ///
    /// Panics if a batch is not `n`×`n`.
    pub fn assemble_regularized<'a, I>(
        &mut self,
        n: usize,
        batches: I,
        reg: f64,
        mut regularized: impl FnMut(usize),
    ) -> &CsrMatrix
    where
        I: IntoIterator<Item = &'a TripletMatrix>,
        I::IntoIter: Clone,
    {
        let batches = batches.into_iter();

        // Count the entries per row.
        self.row_start.clear();
        self.row_start.resize(n + 1, 0);
        for b in batches.clone() {
            assert_eq!(b.n, n, "CsrAssembler: batch dimension mismatch");
            for &r in &b.rows {
                self.row_start[r as usize + 1] += 1;
            }
        }
        for i in 0..n {
            self.row_start[i + 1] += self.row_start[i];
        }

        // Scatter into row-grouped arrays, batch by batch. Every slot is
        // written, so the arrays only need the right length.
        let total = self.row_start[n];
        self.col_raw.resize(total, 0);
        self.val_raw.resize(total, 0.0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.row_start[..n]);
        for b in batches {
            for ((&r, &c), &v) in b.rows.iter().zip(&b.cols).zip(&b.vals) {
                let dst = &mut self.cursor[r as usize];
                self.col_raw[*dst] = c;
                self.val_raw[*dst] = v;
                *dst += 1;
            }
        }

        // Sort and merge each row; a row without a positive diagonal is
        // merged again with the `reg` entry appended to its raw entries.
        self.csr.reset(n);
        for r in 0..n {
            let raw = self.row_start[r]..self.row_start[r + 1];
            self.fill_scratch(raw.clone());
            self.csr.push_row(&mut self.scratch);
            if self.csr.last_row_diagonal() <= 0.0 {
                self.csr.pop_row();
                self.fill_scratch(raw);
                self.scratch.push((r as u32, reg));
                self.csr.push_row(&mut self.scratch);
                regularized(r);
            }
        }
        &self.csr
    }

    /// Loads the raw entries `raw` of one row into `scratch`.
    fn fill_scratch(&mut self, raw: std::ops::Range<usize>) {
        self.scratch.clear();
        self.scratch.extend(
            self.col_raw[raw.clone()]
                .iter()
                .copied()
                .zip(self.val_raw[raw].iter().copied()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-conversion assembly the assembler replaces: concatenate,
    /// probe the diagonal, regularize, convert again.
    fn reference(n: usize, batches: &[&TripletMatrix], reg: f64) -> (CsrMatrix, Vec<usize>) {
        let mut q = TripletMatrix::new(n);
        for b in batches {
            for ((&r, &c), &v) in b.rows.iter().zip(&b.cols).zip(&b.vals) {
                q.add(r as usize, c as usize, v);
            }
        }
        let probe = q.to_csr();
        let mut pulled = Vec::new();
        for (v, &d) in probe.diagonal().iter().enumerate() {
            if d <= 0.0 {
                q.add_diagonal(v, reg);
                pulled.push(v);
            }
        }
        (q.to_csr(), pulled)
    }

    fn bits(a: &CsrMatrix) -> Vec<Vec<(usize, u64)>> {
        (0..a.dim())
            .map(|r| a.row(r).map(|(c, v)| (c, v.to_bits())).collect())
            .collect()
    }

    /// Two batches whose duplicates need several additions per entry, and
    /// whose rows 3 (isolated) and 4 (diagonal summing to zero) need `reg`.
    fn batches() -> (TripletMatrix, TripletMatrix) {
        let mut a = TripletMatrix::new(5);
        a.add_connection(0, 1, 0.1);
        a.add_connection(1, 2, 0.7);
        a.add_diagonal(4, 0.3);
        a.add_connection(0, 2, 1.0 / 3.0);
        let mut b = TripletMatrix::new(5);
        b.add_connection(2, 0, 0.2);
        b.add_diagonal(4, -0.3);
        b.add_diagonal(1, 1e-17);
        b.add_connection(1, 0, 0.3);
        (a, b)
    }

    #[test]
    fn matches_two_conversion_reference_bit_for_bit() {
        let (a, b) = batches();
        let (want, want_pulled) = reference(5, &[&a, &b], 1e-8);
        let mut asm = CsrAssembler::new();
        let mut pulled = Vec::new();
        let got = asm.assemble_regularized(5, [&a, &b], 1e-8, |r| pulled.push(r));
        assert_eq!(bits(got), bits(&want));
        assert_eq!(pulled, want_pulled);
        assert_eq!(pulled, [3, 4]);
    }

    #[test]
    fn reuse_across_sizes_matches_a_fresh_assembler() {
        let (a, b) = batches();
        let mut small = TripletMatrix::new(2);
        small.add_connection(0, 1, 4.0);
        let mut asm = CsrAssembler::new();
        asm.assemble_regularized(5, [&a, &b], 1e-8, |_| {});
        let got = bits(asm.assemble_regularized(2, [&small], 1e-8, |_| {}));
        let want = bits(CsrAssembler::new().assemble_regularized(2, [&small], 1e-8, |_| {}));
        assert_eq!(got, want);
        let again = bits(asm.assemble_regularized(5, [&a, &b], 1e-8, |_| {}));
        assert_eq!(again, bits(&reference(5, &[&a, &b], 1e-8).0));
    }

    #[test]
    fn empty_system() {
        let mut asm = CsrAssembler::new();
        let a = asm.assemble_regularized(0, [&TripletMatrix::new(0)], 1e-8, |_| {});
        assert_eq!(a.dim(), 0);
        assert_eq!(a.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_mismatched_batch() {
        let mut asm = CsrAssembler::new();
        asm.assemble_regularized(3, [&TripletMatrix::new(2)], 1e-8, |_| {});
    }
}
