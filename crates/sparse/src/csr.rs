//! Compressed sparse row storage.

/// Matrices with fewer stored entries than this multiply sequentially —
/// pool dispatch costs more than the multiply below it. The gate depends
/// only on the matrix, never the thread count, and the parallel kernel
/// writes each output row exactly once, so `mul_vec` results are
/// bit-identical for every thread count.
const PAR_MIN_NNZ: usize = 8192;

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Rows are stored contiguously; within each row, column indices are strictly
/// increasing. The matrix is not required to be symmetric, but the placement
/// systems built on top of it always are, and [`CsrMatrix::is_symmetric`]
/// lets tests assert it.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Default for CsrMatrix {
    /// The empty `0`×`0` matrix.
    fn default() -> Self {
        Self {
            n: 0,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from parallel triplet arrays, summing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or contain out-of-bounds
    /// indices.
    pub fn from_triplets(n: usize, rows: &[u32], cols: &[u32], vals: &[f64]) -> Self {
        assert_eq!(rows.len(), cols.len());
        assert_eq!(rows.len(), vals.len());

        // Count entries per row.
        let mut counts = vec![0usize; n + 1];
        for &r in rows {
            assert!((r as usize) < n, "row index out of bounds");
            counts[r as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let row_ptr_raw = counts.clone();

        // Scatter into row-grouped arrays.
        let mut cursor = row_ptr_raw.clone();
        let mut col_raw = vec![0u32; rows.len()];
        let mut val_raw = vec![0.0f64; rows.len()];
        for k in 0..rows.len() {
            assert!((cols[k] as usize) < n, "col index out of bounds");
            let r = rows[k] as usize;
            let dst = cursor[r];
            col_raw[dst] = cols[k];
            val_raw[dst] = vals[k];
            cursor[r] += 1;
        }

        // Sort each row by column and merge duplicates.
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut m = Self {
            n,
            row_ptr,
            col_idx: Vec::with_capacity(rows.len()),
            values: Vec::with_capacity(rows.len()),
        };
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..n {
            scratch.clear();
            scratch.extend(
                col_raw[row_ptr_raw[r]..row_ptr_raw[r + 1]]
                    .iter()
                    .copied()
                    .zip(val_raw[row_ptr_raw[r]..row_ptr_raw[r + 1]].iter().copied()),
            );
            m.push_row(&mut scratch);
        }
        m
    }

    /// Empties the matrix and makes it `n`×`n`, keeping the allocations so
    /// that [`CsrMatrix::push_row`] can refill it.
    pub(crate) fn reset(&mut self, n: usize) {
        self.n = n;
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.col_idx.clear();
        self.values.clear();
    }

    /// Appends the next row from its raw `(col, value)` entries: sorts them
    /// by column, sums duplicate columns and drops sums of exactly zero.
    ///
    /// Every CSR build goes through this one routine, so the order in which
    /// duplicates are summed is a function of the raw arrival order alone:
    /// two builders that present a row's entries in the same order produce
    /// the same bits.
    pub(crate) fn push_row(&mut self, raw: &mut [(u32, f64)]) {
        debug_assert!(self.row_ptr.len() <= self.n, "every row already pushed");
        raw.sort_unstable_by_key(|&(c, _)| c);
        let mut i = 0;
        while i < raw.len() {
            let c = raw[i].0;
            let mut v = raw[i].1;
            let mut j = i + 1;
            while j < raw.len() && raw[j].0 == c {
                v += raw[j].1;
                j += 1;
            }
            // lint:allow(no-float-eq): drops entries that sum to exact
            // zero (e.g. +a + -a); small values must be kept.
            if v != 0.0 {
                self.col_idx.push(c);
                self.values.push(v);
            }
            i = j;
        }
        self.row_ptr.push(self.col_idx.len());
    }

    /// Drops the last pushed row.
    pub(crate) fn pop_row(&mut self) {
        debug_assert!(self.row_ptr.len() > 1, "no row to pop");
        self.row_ptr.pop();
        let start = self.row_ptr[self.row_ptr.len() - 1];
        self.col_idx.truncate(start);
        self.values.truncate(start);
    }

    /// The stored diagonal entry of the last pushed row, or `0.0`.
    pub(crate) fn last_row_diagonal(&self) -> f64 {
        let r = self.row_ptr.len() - 2;
        let lo = self.row_ptr[r];
        match self.col_idx[lo..].binary_search(&(r as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// The matrix dimension (the matrix is square).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the entry at `(row, col)`, or `0.0` if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n);
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        match self.col_idx[lo..hi].binary_search(&(col as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Computes `out = A·v`.
    ///
    /// Large matrices are multiplied on the `complx-par` pool, with rows
    /// partitioned into contiguous, nnz-balanced ranges. Each output row is
    /// written exactly once, so results are bit-identical across thread
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `out` have length different from [`CsrMatrix::dim`].
    pub fn mul_vec(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(
            v.len(),
            self.n,
            "CsrMatrix::mul_vec: input vector length {} does not match matrix dim {}",
            v.len(),
            self.n
        );
        assert_eq!(
            out.len(),
            self.n,
            "CsrMatrix::mul_vec: output vector length {} does not match matrix dim {}",
            out.len(),
            self.n
        );
        debug_assert_eq!(self.row_ptr.len(), self.n + 1, "corrupt row_ptr");
        let t = complx_par::threads().min(self.n.max(1));
        if self.nnz() < PAR_MIN_NNZ || t <= 1 {
            self.mul_vec_rows(v, out, 0);
            return;
        }
        // nnz-balanced partition: the k-th boundary is the first row whose
        // cumulative entry count reaches k/t of the total. The boundaries
        // depend on the thread count, which is fine here: per-row outputs
        // are independent, so any partition produces identical bits.
        let nnz = self.nnz();
        let mut bounds = Vec::with_capacity(t + 1);
        bounds.push(0usize);
        let mut prev_bound = 0usize;
        for k in 1..t {
            let target = k * nnz / t;
            let row = self.row_ptr.partition_point(|&p| p < target).min(self.n);
            prev_bound = row.max(prev_bound);
            bounds.push(prev_bound);
        }
        bounds.push(self.n);
        let car = complx_obs::carrier();
        complx_par::scope(|s| {
            let mut rest = out;
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let (part, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                let car = &car;
                s.spawn(move || {
                    let _attached = car.attach();
                    let _sp = complx_obs::span("chunks");
                    self.mul_vec_rows(v, part, lo);
                });
            }
        });
    }

    /// The sequential multiply kernel for rows `row0 .. row0 + out.len()`.
    fn mul_vec_rows(&self, v: &[f64], out: &mut [f64], row0: usize) {
        for (i, slot) in out.iter_mut().enumerate() {
            let r = row0 + i;
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * v[self.col_idx[k] as usize];
            }
            *slot = acc;
        }
    }

    /// Returns the diagonal as a dense vector (zeros for missing entries).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, i)).collect()
    }

    /// Computes the quadratic form `vᵀAv`.
    pub fn quadratic_form(&self, v: &[f64]) -> f64 {
        assert_eq!(v.len(), self.n);
        let mut acc = 0.0;
        for r in 0..self.n {
            let mut row_acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                row_acc += self.values[k] * v[self.col_idx[k] as usize];
            }
            acc += v[r] * row_acc;
        }
        acc
    }

    /// Checks symmetry up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.n {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                if (self.values[k] - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Iterates over the stored entries of row `r` as `(col, value)` pairs.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .map(|&c| c as usize)
            .zip(self.values[lo..hi].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn sample() -> CsrMatrix {
        let mut t = TripletMatrix::new(3);
        t.add(0, 0, 2.0);
        t.add(0, 1, -1.0);
        t.add(1, 0, -1.0);
        t.add(1, 1, 2.0);
        t.add(1, 2, -1.0);
        t.add(2, 1, -1.0);
        t.add(2, 2, 2.0);
        t.to_csr()
    }

    #[test]
    fn get_and_nnz() {
        let a = sample();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(2, 1), -1.0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = sample();
        let v = [1.0, 2.0, 3.0];
        let mut out = vec![0.0; 3];
        a.mul_vec(&v, &mut out);
        assert_eq!(out, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn quadratic_form_positive_definite() {
        let a = sample();
        // Tridiagonal Toeplitz [2,-1] is SPD.
        for v in [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-1.0, 2.0, -1.0]] {
            assert!(a.quadratic_form(&v) > 0.0);
        }
    }

    #[test]
    fn symmetry_check() {
        let a = sample();
        assert!(a.is_symmetric(1e-12));
        let mut t = TripletMatrix::new(2);
        t.add(0, 1, 1.0);
        assert!(!t.to_csr().is_symmetric(1e-12));
    }

    #[test]
    fn row_iterator_sorted() {
        let a = sample();
        let row1: Vec<_> = a.row(1).collect();
        assert_eq!(row1, vec![(0, -1.0), (1, 2.0), (2, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "input vector length 2 does not match matrix dim 3")]
    fn mul_vec_rejects_wrong_input_length() {
        let a = sample();
        let mut out = vec![0.0; 3];
        a.mul_vec(&[1.0, 2.0], &mut out);
    }

    #[test]
    #[should_panic(expected = "output vector length 4 does not match matrix dim 3")]
    fn mul_vec_rejects_wrong_output_length() {
        let a = sample();
        let mut out = vec![0.0; 4];
        a.mul_vec(&[1.0, 2.0, 3.0], &mut out);
    }

    /// Builds a matrix big enough to clear `PAR_MIN_NNZ` (a 1-D Poisson
    /// chain has ~3n entries).
    fn big_poisson(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.add(i, i, 2.0 + (i % 7) as f64 * 0.125);
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                t.add(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn parallel_mul_vec_bit_identical_across_thread_counts() {
        let n = 4096; // ~12k nnz: engages the parallel path
        let a = big_poisson(n);
        assert!(a.nnz() >= super::PAR_MIN_NNZ);
        let v: Vec<f64> = (0..n)
            .map(|i| ((i * 31 % 101) as f64) * 0.013 - 0.5)
            .collect();
        let reference = {
            let _g = complx_par::with_threads(1);
            let mut out = vec![0.0; n];
            a.mul_vec(&v, &mut out);
            out
        };
        for t in [2, 8] {
            let _g = complx_par::with_threads(t);
            let mut out = vec![0.0; n];
            a.mul_vec(&v, &mut out);
            for (got, want) in out.iter().zip(&reference) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn duplicate_cancellation_drops_entry() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 1, 1.0);
        t.add(0, 1, -1.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 0);
    }
}
