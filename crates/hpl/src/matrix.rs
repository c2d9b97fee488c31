//! Column-major dense matrix storage and the deterministic test-matrix
//! generator.
//!
//! HPL matrices are regenerable from `(seed, i, j)` so the verifier can
//! reconstruct the original system without any image storing it.

/// A column-major `rows × cols` matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element (i, j).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    /// Set element (i, j).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows] = v;
    }

    /// The contiguous column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Raw column-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Leading dimension (= rows for this dense layout).
    pub fn ld(&self) -> usize {
        self.rows
    }

    /// Swap rows `a` and `b` across columns `c_lo..c_hi`.
    pub fn swap_rows(&mut self, a: usize, b: usize, c_lo: usize, c_hi: usize) {
        if a == b {
            return;
        }
        for j in c_lo..c_hi {
            let base = j * self.rows;
            self.data.swap(base + a, base + b);
        }
    }

    /// Apply the row swaps `swaps` in order, across columns `c_lo..c_hi` —
    /// the same result as one [`Matrix::swap_rows`] call per pair, but
    /// columns outer and swaps inner (LAPACK's `dlaswp`): each column is
    /// brought into cache once instead of once per swap.
    pub fn swap_rows_batched(&mut self, swaps: &[(usize, usize)], c_lo: usize, c_hi: usize) {
        if swaps.is_empty() {
            return;
        }
        for j in c_lo..c_hi {
            let col = self.col_mut(j);
            for &(a, b) in swaps {
                col.swap(a, b);
            }
        }
    }

    /// Copy rows `rows` of columns `c_lo..c_hi` into `out`, one column after
    /// the other (`out[(j − c_lo)·rows.len() + i]` = element `(rows[i], j)`)
    /// — columns outer, like [`Matrix::swap_rows_batched`], so each column
    /// is brought into cache once however many rows are taken from it.
    pub fn gather_rows(&self, rows: &[usize], c_lo: usize, c_hi: usize, out: &mut [f64]) {
        assert_eq!(out.len(), rows.len() * (c_hi - c_lo), "gather size");
        if rows.is_empty() {
            return;
        }
        for (j, dst) in (c_lo..c_hi).zip(out.chunks_exact_mut(rows.len())) {
            let col = self.col(j);
            for (slot, &r) in dst.iter_mut().zip(rows) {
                *slot = col[r];
            }
        }
    }

    /// The inverse of [`Matrix::gather_rows`]: overwrite rows `rows` of
    /// columns `c_lo..c_hi` from `src` in the same layout.
    pub fn scatter_rows(&mut self, rows: &[usize], c_lo: usize, c_hi: usize, src: &[f64]) {
        assert_eq!(src.len(), rows.len() * (c_hi - c_lo), "scatter size");
        if rows.is_empty() {
            return;
        }
        for (j, from) in (c_lo..c_hi).zip(src.chunks_exact(rows.len())) {
            let col = self.col_mut(j);
            for (&v, &r) in from.iter().zip(rows) {
                col[r] = v;
            }
        }
    }

    /// Max-absolute-value norm (‖·‖_max).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        let mut best: f64 = 0.0;
        for i in 0..self.rows {
            let mut s = 0.0;
            for j in 0..self.cols {
                s += self.get(i, j).abs();
            }
            best = best.max(s);
        }
        best
    }
}

/// SplitMix64 — the deterministic element generator.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The HPL test-matrix element `A(i, j)` for a given seed: uniform in
/// (−0.5, 0.5), exactly reproducible on any image.
#[inline]
pub fn hpl_element(seed: u64, n: usize, i: usize, j: usize) -> f64 {
    let h = splitmix64(seed ^ ((i * n + j) as u64).wrapping_mul(0x2545F4914F6CDD1D));
    // 53 random mantissa bits -> [0,1) -> (-0.5, 0.5).
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) - 0.5
}

/// Materialize the full `n × n` HPL matrix (verification-scale only).
pub fn hpl_matrix(seed: u64, n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            m.set(i, j, hpl_element(seed, n, i, j));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn get_set_roundtrip_column_major() {
        let mut m = Matrix::zeros(3, 2);
        m.set(2, 1, 7.5);
        assert_eq!(m.get(2, 1), 7.5);
        // Column-major: element (2,1) is the last of the flat data.
        assert_eq!(m.as_slice()[5], 7.5);
        assert_eq!(m.col(1), &[0.0, 0.0, 7.5]);
    }

    #[test]
    fn swap_rows_partial_columns() {
        let mut m = Matrix::zeros(2, 3);
        for j in 0..3 {
            m.set(0, j, j as f64);
            m.set(1, j, 10.0 + j as f64);
        }
        m.swap_rows(0, 1, 1, 3);
        assert_eq!(m.get(0, 0), 0.0); // untouched
        assert_eq!(m.get(0, 1), 11.0);
        assert_eq!(m.get(1, 2), 2.0);
    }

    #[test]
    fn swap_same_row_is_noop() {
        let mut m = hpl_matrix(1, 4);
        let before = m.clone();
        m.swap_rows(2, 2, 0, 4);
        assert_eq!(m, before);
    }

    proptest! {
        #[test]
        fn batched_swaps_equal_sequential_swaps(
            // (a, b) row pairs over 12 rows: repeats, chains through a
            // shared row and identity swaps (a == b) all occur.
            swaps in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
            c_lo in 0usize..5,
            width in 0usize..6,
        ) {
            let c_hi = c_lo + width;
            let mut sequential = hpl_matrix(5, 12);
            let mut batched = sequential.clone();
            for &(a, b) in &swaps {
                sequential.swap_rows(a, b, c_lo, c_hi);
            }
            batched.swap_rows_batched(&swaps, c_lo, c_hi);
            prop_assert_eq!(batched, sequential);
        }
    }

    #[test]
    fn gather_is_columns_outer_and_scatter_undoes_it() {
        let mut m = hpl_matrix(9, 6);
        let original = m.clone();
        let rows = [4, 0, 5];
        let mut packed = [0.0; 6];
        m.gather_rows(&rows, 2, 4, &mut packed);
        let want: Vec<f64> = [(4, 2), (0, 2), (5, 2), (4, 3), (0, 3), (5, 3)]
            .iter()
            .map(|&(i, j)| original.get(i, j))
            .collect();
        assert_eq!(packed.as_slice(), want);
        // Scattered one row down the list, rows 4, 0, 5 rotate; columns
        // outside 2..4 and the other rows stay.
        m.scatter_rows(&[0, 5, 4], 2, 4, &packed);
        for j in 0..6 {
            for i in 0..6 {
                let from = match (i, (2..4).contains(&j)) {
                    (0, true) => 4,
                    (5, true) => 0,
                    (4, true) => 5,
                    _ => i,
                };
                assert_eq!(m.get(i, j), original.get(from, j), "({i}, {j})");
            }
        }
        // No rows, or no columns: nothing to size, nothing moves.
        m.gather_rows(&[], 0, 6, &mut []);
        m.scatter_rows(&rows, 3, 3, &[]);
    }

    #[test]
    fn generator_is_deterministic_and_seed_sensitive() {
        assert_eq!(hpl_element(42, 100, 3, 7), hpl_element(42, 100, 3, 7));
        assert_ne!(hpl_element(42, 100, 3, 7), hpl_element(43, 100, 3, 7));
        assert_ne!(hpl_element(42, 100, 3, 7), hpl_element(42, 100, 7, 3));
    }

    #[test]
    fn generator_range_and_spread() {
        let n = 50;
        let m = hpl_matrix(7, n);
        let mut sum = 0.0;
        for j in 0..n {
            for i in 0..n {
                let v = m.get(i, j);
                assert!(v > -0.5 && v < 0.5);
                sum += v;
            }
        }
        let mean = sum / (n * n) as f64;
        assert!(mean.abs() < 0.02, "mean {mean} should be near zero");
    }

    #[test]
    fn norms() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 0, -3.0);
        m.set(0, 1, 1.0);
        m.set(1, 1, 2.0);
        assert_eq!(m.norm_max(), 3.0);
        assert_eq!(m.norm_inf(), 4.0);
    }
}
