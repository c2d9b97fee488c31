//! 2-D block-cyclic distribution on a `P × Q` image grid — HPL's data
//! layout. Index arithmetic follows ScaLAPACK's `numroc`/`indxg2l`
//! conventions (0-based here).

/// How the images of a run are numbered onto the grid — HPL's `PMAP`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Image `prow · q + pcol + 1`: a grid row is consecutive images.
    RowMajor,
    /// Image `pcol · p + prow + 1`: a grid column is consecutive images.
    ColumnMajor,
}

/// The block-cyclic layout of an `n × n` matrix with `nb × nb` blocks on a
/// `p × q` process grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockCyclic {
    /// Global matrix dimension.
    pub n: usize,
    /// Block size.
    pub nb: usize,
    /// Grid rows.
    pub p: usize,
    /// Grid columns.
    pub q: usize,
    /// Which image holds which grid position.
    pub layout: Layout,
}

/// ScaLAPACK `numroc`: how many of `n` items (in blocks of `nb`) land on
/// process `iproc` of `nprocs`.
pub fn numroc(n: usize, nb: usize, iproc: usize, nprocs: usize) -> usize {
    let nblocks = n / nb;
    let extra = n % nb;
    let base = (nblocks / nprocs) * nb;
    let rem = nblocks % nprocs;
    base + match iproc.cmp(&rem) {
        std::cmp::Ordering::Less => nb,
        std::cmp::Ordering::Equal => extra,
        std::cmp::Ordering::Greater => 0,
    }
}

/// Choose a near-square grid `P × Q` with `P ≤ Q` and `P·Q = n_images`.
pub fn grid_dims(n_images: usize) -> (usize, usize) {
    assert!(n_images > 0);
    let mut p = (n_images as f64).sqrt() as usize;
    while p > 1 && !n_images.is_multiple_of(p) {
        p -= 1;
    }
    (p.max(1), n_images / p.max(1))
}

impl BlockCyclic {
    /// Build a row-major layout, validating the parameters.
    pub fn new(n: usize, nb: usize, p: usize, q: usize) -> Self {
        assert!(n > 0 && nb > 0 && p > 0 && q > 0);
        Self {
            n,
            nb,
            p,
            q,
            layout: Layout::RowMajor,
        }
    }

    /// The same distribution with its grid positions numbered by `layout`.
    pub fn with_layout(self, layout: Layout) -> Self {
        Self { layout, ..self }
    }

    /// This grid laid out for a machine whose image `i` (1-based) runs on
    /// node `node_of(i)`: column-major when node-mates share memory and
    /// column-major puts the column teams — the pivot reductions — on
    /// fewer nodes than row-major does; row-major otherwise. Over a NIC
    /// loopback a node-local column team serializes on one NIC, and where
    /// the two layouts span as many nodes they only trade one team's
    /// messages for the other's.
    pub fn laid_out_for(self, shared_memory: bool, node_of: impl Fn(usize) -> usize) -> Self {
        let (rows, cols) = (
            self.with_layout(Layout::RowMajor),
            self.with_layout(Layout::ColumnMajor),
        );
        if shared_memory && cols.column_nodes(&node_of) < rows.column_nodes(&node_of) {
            cols
        } else {
            rows
        }
    }

    /// The nodes each column team occupies, summed over the grid columns.
    fn column_nodes(&self, node_of: impl Fn(usize) -> usize) -> usize {
        (0..self.q)
            .map(|pcol| {
                let mut nodes: Vec<usize> = (0..self.p)
                    .map(|prow| node_of(self.image_of(prow, pcol)))
                    .collect();
                nodes.sort_unstable();
                nodes.dedup();
                nodes.len()
            })
            .sum()
    }

    /// The image (1-based) at grid position `(prow, pcol)`.
    #[inline]
    pub fn image_of(&self, prow: usize, pcol: usize) -> usize {
        debug_assert!(prow < self.p && pcol < self.q);
        1 + match self.layout {
            Layout::RowMajor => prow * self.q + pcol,
            Layout::ColumnMajor => pcol * self.p + prow,
        }
    }

    /// The grid position `(prow, pcol)` of image `image` (1-based).
    #[inline]
    pub fn coords_of(&self, image: usize) -> (usize, usize) {
        debug_assert!((1..=self.p * self.q).contains(&image));
        let rank0 = image - 1;
        match self.layout {
            Layout::RowMajor => (rank0 / self.q, rank0 % self.q),
            Layout::ColumnMajor => (rank0 % self.p, rank0 / self.p),
        }
    }

    /// Grid row owning global row `g`.
    #[inline]
    pub fn owner_row(&self, g: usize) -> usize {
        (g / self.nb) % self.p
    }

    /// Grid column owning global column `g`.
    #[inline]
    pub fn owner_col(&self, g: usize) -> usize {
        (g / self.nb) % self.q
    }

    /// Local row index of global row `g` on its owner.
    #[inline]
    pub fn local_row(&self, g: usize) -> usize {
        (g / (self.nb * self.p)) * self.nb + g % self.nb
    }

    /// Local column index of global column `g` on its owner.
    #[inline]
    pub fn local_col(&self, g: usize) -> usize {
        (g / (self.nb * self.q)) * self.nb + g % self.nb
    }

    /// Global row of local row `l` on grid row `prow`.
    #[inline]
    pub fn global_row(&self, prow: usize, l: usize) -> usize {
        ((l / self.nb) * self.p + prow) * self.nb + l % self.nb
    }

    /// Global column of local column `l` on grid column `pcol`.
    #[inline]
    pub fn global_col(&self, pcol: usize, l: usize) -> usize {
        ((l / self.nb) * self.q + pcol) * self.nb + l % self.nb
    }

    /// Number of local rows on grid row `prow`.
    #[inline]
    pub fn local_rows(&self, prow: usize) -> usize {
        numroc(self.n, self.nb, prow, self.p)
    }

    /// Number of local columns on grid column `pcol`.
    #[inline]
    pub fn local_cols(&self, pcol: usize) -> usize {
        numroc(self.n, self.nb, pcol, self.q)
    }

    /// First local row on grid row `prow` whose global row is ≥ `g`
    /// (local rows are globally monotone, so this is a boundary index;
    /// returns `local_rows(prow)` when none qualify).
    pub fn first_local_row_ge(&self, prow: usize, g: usize) -> usize {
        let lr = self.local_rows(prow);
        // Binary search over the monotone global_row mapping.
        let mut lo = 0;
        let mut hi = lr;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.global_row(prow, mid) >= g {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// First local column on grid column `pcol` with global column ≥ `g`.
    pub fn first_local_col_ge(&self, pcol: usize, g: usize) -> usize {
        let lc = self.local_cols(pcol);
        let mut lo = 0;
        let mut hi = lc;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.global_col(pcol, mid) >= g {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numroc_even_split() {
        assert_eq!(numroc(16, 4, 0, 2), 8);
        assert_eq!(numroc(16, 4, 1, 2), 8);
    }

    #[test]
    fn numroc_uneven_blocks() {
        // 5 blocks of 4 (n=20) over 2 procs: proc0 gets 3 blocks.
        assert_eq!(numroc(20, 4, 0, 2), 12);
        assert_eq!(numroc(20, 4, 1, 2), 8);
    }

    #[test]
    fn numroc_partial_last_block() {
        // n=10, nb=4: blocks 4,4,2 over 2 procs: p0: 4+2, p1: 4.
        assert_eq!(numroc(10, 4, 0, 2), 6);
        assert_eq!(numroc(10, 4, 1, 2), 4);
        // Sum invariant across many shapes.
        for n in 1..40 {
            for nb in 1..7 {
                for np in 1..5 {
                    let total: usize = (0..np).map(|i| numroc(n, nb, i, np)).sum();
                    assert_eq!(total, n, "n={n} nb={nb} np={np}");
                }
            }
        }
    }

    #[test]
    fn grid_dims_near_square() {
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(4), (2, 2));
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(64), (8, 8));
        assert_eq!(grid_dims(256), (16, 16));
        assert_eq!(grid_dims(6), (2, 3));
        assert_eq!(grid_dims(7), (1, 7));
        assert_eq!(grid_dims(12), (3, 4));
    }

    #[test]
    fn image_of_and_coords_of_are_inverse_bijections() {
        for images in 1..=64usize {
            for p in (1..=images).filter(|p| images.is_multiple_of(*p)) {
                let q = images / p;
                for layout in [Layout::RowMajor, Layout::ColumnMajor] {
                    let g = BlockCyclic::new(8, 2, p, q).with_layout(layout);
                    let mut seen = vec![false; images];
                    for prow in 0..p {
                        for pcol in 0..q {
                            let image = g.image_of(prow, pcol);
                            assert!((1..=images).contains(&image), "{p}x{q} {layout:?}");
                            assert!(!seen[image - 1], "{p}x{q} {layout:?}: image {image} twice");
                            seen[image - 1] = true;
                            assert_eq!(g.coords_of(image), (prow, pcol), "{p}x{q} {layout:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_major_column_teams_span_the_fewest_nodes_block_placement_allows() {
        for images in 1..=64 {
            let (p, q) = grid_dims(images);
            let g = BlockCyclic::new(8, 2, p, q);
            // Where the nodes' size and the column height divide one into
            // the other, ⌈p / per_node⌉ nodes can hold a column team.
            for per_node in (1..=8).filter(|k| p.is_multiple_of(*k) || k.is_multiple_of(p)) {
                let node_of = |image: usize| (image - 1) / per_node;
                let (rows, cols) = (
                    g.column_nodes(node_of),
                    g.with_layout(Layout::ColumnMajor).column_nodes(node_of),
                );
                // No team spans fewer, so the sum pins every team.
                assert_eq!(
                    cols,
                    q * p.div_ceil(per_node),
                    "{p}x{q}, {per_node} per node"
                );
                assert!(cols <= rows, "{p}x{q}, {per_node} per node");
                let laid = g.laid_out_for(true, node_of).layout;
                let want = if cols < rows {
                    Layout::ColumnMajor
                } else {
                    Layout::RowMajor
                };
                assert_eq!(laid, want, "{p}x{q}, {per_node} per node");
                assert_eq!(g.laid_out_for(false, node_of).layout, Layout::RowMajor);
            }
        }
    }

    #[test]
    fn the_layout_follows_the_machine() {
        // images(nodes) under block placement, memory shared on a node or not.
        let laid = |images: usize, nodes: usize, shared: bool| {
            let (p, q) = grid_dims(images);
            let per_node = images / nodes;
            BlockCyclic::new(1024, 64, p, q)
                .laid_out_for(shared, |image| (image - 1) / per_node)
                .layout
        };
        // Figure 1: one image per node leaves nothing to gather.
        assert_eq!(laid(4, 4, true), Layout::RowMajor);
        assert_eq!(laid(16, 16, true), Layout::RowMajor);
        for (images, nodes) in [(16, 2), (64, 8), (256, 32)] {
            assert_eq!(laid(images, nodes, true), Layout::ColumnMajor);
            assert_eq!(laid(images, nodes, false), Layout::RowMajor);
        }
        // A one-row grid (hpl-fleet's 1 × 2) numbers its images alike
        // either way, and stays row-major.
        assert_eq!(laid(2, 2, true), Layout::RowMajor);
        let g = BlockCyclic::new(8, 2, 1, 2);
        for pcol in 0..2 {
            let image = g.image_of(0, pcol);
            assert_eq!(g.with_layout(Layout::ColumnMajor).image_of(0, pcol), image);
        }
    }

    #[test]
    fn row_mapping_roundtrip() {
        let g = BlockCyclic::new(37, 4, 3, 2);
        for grow in 0..37 {
            let owner = g.owner_row(grow);
            let l = g.local_row(grow);
            assert_eq!(g.global_row(owner, l), grow);
            assert!(l < g.local_rows(owner));
        }
        for pcol in 0..2 {
            for l in 0..g.local_cols(pcol) {
                let gc = g.global_col(pcol, l);
                assert_eq!(g.owner_col(gc), pcol);
                assert_eq!(g.local_col(gc), l);
            }
        }
    }

    #[test]
    fn local_rows_monotone_in_global() {
        let g = BlockCyclic::new(64, 8, 2, 2);
        for prow in 0..2 {
            let lr = g.local_rows(prow);
            for l in 1..lr {
                assert!(g.global_row(prow, l) > g.global_row(prow, l - 1));
            }
        }
    }

    #[test]
    fn first_local_row_ge_boundaries() {
        let g = BlockCyclic::new(32, 4, 2, 2);
        // Grid row 0 owns blocks 0,2,4,6 -> global rows 0-3,8-11,16-19,24-27.
        assert_eq!(g.first_local_row_ge(0, 0), 0);
        assert_eq!(g.first_local_row_ge(0, 4), 4); // next owned row is 8 at local 4
        assert_eq!(g.global_row(0, 4), 8);
        assert_eq!(g.first_local_row_ge(0, 9), 5);
        assert_eq!(g.first_local_row_ge(0, 28), 16); // none left
        assert_eq!(g.local_rows(0), 16);
        // Grid row 1 owns blocks 1,3,5,7.
        assert_eq!(g.first_local_row_ge(1, 0), 0);
        assert_eq!(g.first_local_row_ge(1, 5), 1);
    }

    #[test]
    fn first_local_col_ge_matches_linear_scan() {
        let g = BlockCyclic::new(50, 3, 2, 3);
        for pcol in 0..3 {
            for target in 0..=50 {
                let expect = (0..g.local_cols(pcol))
                    .position(|l| g.global_col(pcol, l) >= target)
                    .unwrap_or(g.local_cols(pcol));
                assert_eq!(g.first_local_col_ge(pcol, target), expect);
            }
        }
    }
}
