//! Distributed right-looking LU factorization with partial pivoting on a
//! 2-D block-cyclic grid — the communication skeleton of HPL, expressed
//! through `caf-rs` **row teams and column teams** exactly as the paper's
//! CAF port does (§V-B). A block step costs what it logically is:
//!
//! * pivot search, row swap and pivot-row broadcast: **one** `co_reduce`
//!   per panel column over the **column team**, on a derived type that
//!   carries the candidate's row and the diagonal row with their keys —
//!   HPL's own max-loc/swap/broadcast exchange. Where the column team sits
//!   on one node with a power-of-two size (16(2) and 64(8) under the
//!   column-major layout), the team's reduction is recursive doubling even
//!   in the 2-level configuration (`ReduceAlgo::resolve`);
//! * panel broadcast (the panel's pivots, then its L blocks): one ring
//!   broadcast per block step over **row teams** — the panel's owner is
//!   grid column k mod Q, so roots advance in row-team rank order and the
//!   next owner receives first (netlib HPL's increasing ring), with no ack
//!   or release wave to wait for, and where the row team has three or more
//!   members (and node-mates do not share a NIC) the panel streams in
//!   chunks that each member forwards as they arrive;
//! * row interchanges outside the panel: the panel's transpositions folded
//!   into one permutation, one coarray put per partner grid row inside one
//!   `sync images` pair. A one-row grid exchanges nothing and swaps its
//!   trailing columns in place; its L columns, which nothing reads again,
//!   take every later panel's swaps in one pass per column at the end;
//! * U-block-row broadcast over **column teams** and the trailing update's
//!   local `dgemm`: one pipeline over block columns ([`u12_blocks`]: a
//!   quarter of `nb` first, then doubling up to `nb`), each block's
//!   split-phase broadcast begun by its root before the `dgemm` of the block
//!   before it, and by a receiver after that `dgemm`, when the block has
//!   landed.
//!
//! The loop looks one panel ahead: the owner of panel k + 1 factors and
//! sends it before finishing step k's update, and the broadcast travels
//! while it does (see [`factorize`]).
//!
//! The panel's local work goes in inner blocks of `IB` = 16 columns: a
//! column's rank-1 update reaches only its block, and at the block's end
//! the panel's columns right of it take the block's steps at once — the
//! block's U rows by forward substitution, the rows below by one `dgemm`
//! of depth `IB`. Every element sees the same chain of fused steps, in the
//! same order, as under one rank-1 update per column across the panel, so
//! the factors are bit for bit those of the right-looking panel.
//!
//! The grid's layout follows the machine ([`BlockCyclic::laid_out_for`]).
//! The pivot reductions are the most latency-bound traffic of the run — one
//! per panel column, on the column team, on the look-ahead's critical path —
//! so when node-mates share memory and numbering the grid column-major
//! (HPL's `PMAP = 1`) puts the column teams on fewer nodes, it is
//! column-major; otherwise row-major. The row teams then straddle the nodes
//! instead, and they carry one broadcast per block step. Every image ↔
//! position question goes through [`BlockCyclic::image_of`] and
//! [`BlockCyclic::coords_of`].
//!
//! Local computation is accounted to the simulator's virtual clock through
//! `ImageCtx::compute`, converting flop counts with the machine model's
//! per-core rate, so simulated GFLOP/s reflect the modeled hardware while
//! the arithmetic itself really executes (enabling residual verification).
//! Flops are charged where the right-looking schedule spends them, not
//! where the code does: each panel column charges its search and a rank-1
//! update across the rest of the panel, and an inner block's end charges
//! nothing. How the local work is arranged therefore moves no virtual
//! nanosecond.

use crate::blas;
use crate::grid::{grid_dims, BlockCyclic};
use crate::matrix::{hpl_element, Matrix};
use caf_runtime::{Coarray, ImageCtx, Team};
use caf_topology::ProcId;
use std::ops::Range;

/// Parameters of one HPL factorization.
#[derive(Clone, Copy, Debug)]
pub struct HplConfig {
    /// Global matrix dimension N.
    pub n: usize,
    /// Panel/block size NB.
    pub nb: usize,
    /// Matrix generator seed.
    pub seed: u64,
}

/// Where one image's factorization time went, by step of the block loop.
/// Read off `ImageCtx::now_ns` at the step boundaries (virtual time on the
/// simulator, where reading the clock charges nothing), so the seven
/// entries add up to [`HplOutcome::time_ns`] exactly. With look-ahead the
/// steps of two block steps interleave on the next panel's grid column;
/// each stretch is booked to the step it ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNs {
    /// (a) panel factorization: pivot reductions and rank-1 updates.
    pub panel: u64,
    /// (b)+(c) the panel's pivots and L slab along the row team: a
    /// receiver waiting for the next panel to reach it, a forwarder or the
    /// owner waiting for its ring successor's credit (no owner waits for
    /// acks: the ring has none).
    pub panel_bcast: u64,
    /// (d) row interchanges outside the panel.
    pub interchange: u64,
    /// (e) the `dtrsm` that turns the block row into U12.
    pub dtrsm: u64,
    /// (f) U12 along the column team: a receiver waiting for a block to
    /// land (for the first block of an update, behind the root's
    /// interchange and the first block's `dtrsm`) and acking it, a root
    /// sending and, in `begin` and at the update's one `finish`, waiting
    /// for acks of blocks two back.
    pub u12_bcast: u64,
    /// (g) trailing `dgemm` update.
    pub update: u64,
    /// The barrier that closes the timed region.
    pub closing_sync: u64,
}

impl PhaseNs {
    /// The phases in execution order, named as the result files name them.
    pub fn rows(&self) -> [(&'static str, u64); 7] {
        [
            ("panel", self.panel),
            ("panel_bcast", self.panel_bcast),
            ("interchange", self.interchange),
            ("dtrsm", self.dtrsm),
            ("u12_bcast", self.u12_bcast),
            ("update", self.update),
            ("closing_sync", self.closing_sync),
        ]
    }

    /// Sum of all phases.
    pub fn total(&self) -> u64 {
        self.rows().iter().map(|r| r.1).sum()
    }
}

/// Per-image result of a factorization.
pub struct HplOutcome {
    /// Wall/virtual nanoseconds between the start and end barriers.
    pub time_ns: u64,
    /// The same nanoseconds split by step of the block loop.
    pub phase_ns: PhaseNs,
    /// Pivot vector: global row exchanged with row `s` at step `s`.
    pub pivots: Vec<usize>,
    /// My local piece of the factored matrix (L strictly below the
    /// diagonal with unit diagonal implied; U on and above).
    pub local: Matrix,
    /// The distribution used.
    pub grid: BlockCyclic,
    /// My grid row.
    pub prow: usize,
    /// My grid column.
    pub pcol: usize,
}

impl HplOutcome {
    /// HPL's flop count for an `n × n` solve (factorization dominates):
    /// `2/3·n³ + 3/2·n²`.
    pub fn flops(n: usize) -> f64 {
        let nf = n as f64;
        2.0 / 3.0 * nf * nf * nf + 1.5 * nf * nf
    }

    /// GFLOP/s achieved by this run.
    pub fn gflops(&self) -> f64 {
        Self::flops(self.grid.n) / self.time_ns.max(1) as f64
    }
}

/// Account `flops` of local computation to the virtual clock.
fn account(img: &ImageCtx, flops: u64) {
    let ns = img.fabric().cost().flops_to_ns(flops);
    img.compute(ns);
}

/// Values per lane of step (a)'s reduction.
const LANE: usize = 8;

/// Columns per inner block of step (a)'s panel ([`Lu::factor_panel`]).
const IB: usize = 16;

/// One lane of step (a)'s reduction: eight consecutive values of a matrix
/// row, keyed by that row's claim `(|candidate|, global row)` — what a CAF
/// `co_reduce` over a derived type carries. Every lane of a row has the
/// same key, so the whole row follows the winner, and the key travels once
/// per eight values. A partial last lane is padded with zeros.
type PivotLane = ((f64, u64), [f64; LANE]);

/// MAXLOC on the key: the larger magnitude wins, the smaller row on a tie.
fn maxloc(a: PivotLane, b: PivotLane) -> PivotLane {
    let ((mag_a, row_a), (mag_b, row_b)) = (a.0, b.0);
    if mag_a > mag_b || (mag_a == mag_b && row_a <= row_b) {
        a
    } else {
        b
    }
}

/// The first `n` values a run of lanes carries, in row order.
fn lane_values(lanes: &[PivotLane], n: usize) -> impl Iterator<Item = f64> + '_ {
    lanes.iter().flat_map(|lane| lane.1).take(n)
}

/// Fold the transpositions `(first + j) ↔ pivots[j]`, applied in order,
/// into the one permutation they amount to: `perm` receives a
/// `(position, source)` pair for every row a transposition touches (at
/// most `2 · pivots.len()` of them, in order of first touch — the same
/// list on every image). None of them ends up holding its own content
/// again: a row's content moves either to a diagonal position, where it
/// stays, or from one to a row further down.
fn net_permutation(first: usize, pivots: &[usize], perm: &mut Vec<(usize, usize)>) {
    fn entry(perm: &mut Vec<(usize, usize)>, row: usize) -> usize {
        perm.iter().position(|e| e.0 == row).unwrap_or_else(|| {
            perm.push((row, row));
            perm.len() - 1
        })
    }
    perm.clear();
    for (j, &piv) in pivots.iter().enumerate() {
        let s = first + j;
        if piv != s {
            let (a, b) = (entry(perm, s), entry(perm, piv));
            (perm[a].1, perm[b].1) = (perm[b].1, perm[a].1);
        }
    }
}

/// Step (d): the row interchanges of one panel, applied to my columns
/// outside it. Owns everything the step needs, sized from the grid before
/// the clock starts.
struct Interchange {
    grid: BlockCyclic,
    prow: usize,
    pcol: usize,
    /// Landing zone for rows from the other grid rows of my grid column:
    /// one slot of `slot_len` per source row (initial-team coarray). A
    /// one-row grid exchanges nothing and has none.
    exchange: Option<Coarray<f64>>,
    slot_len: usize,
    /// One-row grid: the panel's local swaps, applied in one pass; at the
    /// end, every panel's ([`Interchange::finish_left`]).
    swaps: Vec<(usize, usize)>,
    /// The panel's net `(position, source)` permutation, global rows.
    perm: Vec<(usize, usize)>,
    /// Local indices of the rows one gather or scatter moves.
    rows: Vec<usize>,
    /// Images (1-based, initial team) I trade rows with in this panel.
    partners: Vec<usize>,
    /// Rows of mine that move to another row of mine, kept until every
    /// gather is done.
    snap: Vec<f64>,
    /// Rows on their way to, then from, one partner.
    stage: Vec<f64>,
}

impl Interchange {
    /// Collective over the initial team when the grid has several rows.
    fn new(img: &mut ImageCtx, grid: BlockCyclic, prow: usize, pcol: usize) -> Self {
        let nb = grid.nb;
        // One source row can send me at most the 2·nb rows a panel touches.
        let slot_len = 2 * nb * grid.local_cols(0).max(1);
        let several = grid.p > 1;
        let staging = if several {
            2 * nb * grid.local_cols(pcol)
        } else {
            0
        };
        Interchange {
            grid,
            prow,
            pcol,
            exchange: several.then(|| img.coarray::<f64>((grid.p - 1) * slot_len)),
            slot_len,
            swaps: Vec::with_capacity(if several { 0 } else { grid.n }),
            perm: Vec::with_capacity(2 * nb),
            rows: Vec::with_capacity(2 * nb),
            partners: Vec::with_capacity(grid.p),
            snap: vec![0.0; staging],
            stage: vec![0.0; staging],
        }
    }

    /// Apply the interchanges `(first + j) ↔ pivots[j]`, in order, to my
    /// local column ranges `cols` (`lo..hi` each, outside the panel
    /// `first .. first + pivots.len()`). Every image of my grid column must
    /// pass the same ranges.
    ///
    /// On a one-row grid that is a `dlaswp`. Otherwise the net permutation
    /// says which rows change place: those headed for another grid row are
    /// gathered and put into that row's image — one put per partner,
    /// inside one `sync images` pair (slots free / payloads landed), so
    /// disjoint grid columns and disjoint partner sets proceed
    /// independently — and afterwards every position is written from the
    /// snapshot of my own rows or from a landing slot.
    fn apply(
        &mut self,
        img: &mut ImageCtx,
        local: &mut Matrix,
        first: usize,
        pivots: &[usize],
        cols: &[(usize, usize)],
    ) {
        let g = self.grid;
        let (me, pcol, slot_len) = (self.prow, self.pcol, self.slot_len);
        // The image on grid row `row` of my grid column, and where in its
        // exchange coarray the rows from grid row `from` land.
        let landing = move |row: usize, from: usize| {
            let slot = if from < row { from } else { from - 1 };
            (g.image_of(row, pcol), slot * slot_len)
        };
        let Some(exchange) = &self.exchange else {
            self.swaps.clear();
            let moved = pivots
                .iter()
                .enumerate()
                .filter(|&(j, &piv)| piv != first + j);
            self.swaps
                .extend(moved.map(|(j, &piv)| (g.local_row(first + j), g.local_row(piv))));
            for &(lo, hi) in cols {
                local.swap_rows_batched(&self.swaps, lo, hi);
            }
            return;
        };
        net_permutation(first, pivots, &mut self.perm);
        let ncols: usize = cols.iter().map(|(lo, hi)| hi - lo).sum();
        if self.perm.is_empty() || ncols == 0 {
            return; // and so says every image of my grid column
        }
        // Where each column range sits in a packed buffer of `nrows` rows.
        let spans = |nrows: usize| {
            let mut at = 0;
            cols.iter().map(move |&(lo, hi)| {
                let span = at..at + nrows * (hi - lo);
                at = span.end;
                (lo, hi, span)
            })
        };
        // The permutation's entries that take a row from grid row `from`
        // to grid row `to`, in the order both ends see them.
        let perm = &self.perm;
        let moving = |from: usize, to: usize| {
            perm.iter().filter(move |&&(position, source)| {
                g.owner_row(source) == from && g.owner_row(position) == to
            })
        };
        self.partners.clear();
        for row in (0..g.p).filter(|&row| row != me) {
            if moving(me, row).chain(moving(row, me)).next().is_some() {
                self.partners.push(landing(row, me).0);
            }
        }

        img.sync_images(&self.partners); // my slots on the partners are free
        for to in 0..g.p {
            self.rows.clear();
            self.rows
                .extend(moving(me, to).map(|&(_, source)| g.local_row(source)));
            if self.rows.is_empty() {
                continue;
            }
            let buf = if to == me {
                &mut self.snap
            } else {
                &mut self.stage
            };
            let buf = &mut buf[..self.rows.len() * ncols];
            for (lo, hi, span) in spans(self.rows.len()) {
                local.gather_rows(&self.rows, lo, hi, &mut buf[span]);
            }
            if to != me {
                let (image, start) = landing(to, me);
                exchange.put(image, start, buf);
            }
        }
        img.sync_images(&self.partners); // every payload has landed
        for from in 0..g.p {
            self.rows.clear();
            self.rows
                .extend(moving(from, me).map(|&(position, _)| g.local_row(position)));
            if self.rows.is_empty() {
                continue;
            }
            let len = self.rows.len() * ncols;
            let buf = if from == me {
                &self.snap[..len]
            } else {
                let (image, start) = landing(me, from);
                exchange.get(image, start, &mut self.stage[..len]);
                &self.stage[..len]
            };
            for (lo, hi, span) in spans(self.rows.len()) {
                local.scatter_rows(&self.rows, lo, hi, &buf[span]);
            }
        }
    }

    /// On a one-row grid, my L columns after the last panel: each panel's
    /// block of them gets the swaps of every later panel, in order, in one
    /// pass per column — what [`Interchange::apply`] would have done to it
    /// panel by panel. A grid of several rows exchanges its L columns as
    /// it goes, and this does nothing.
    fn finish_left(&mut self, local: &mut Matrix, pivots: &[usize]) {
        if self.exchange.is_some() {
            return;
        }
        let g = self.grid;
        self.swaps.clear();
        let moved = pivots.iter().enumerate().filter(|&(s, &piv)| piv != s);
        self.swaps
            .extend(moved.map(|(s, &piv)| (g.local_row(s), g.local_row(piv))));
        for first in (0..g.n).step_by(g.nb) {
            if g.owner_col(first) != self.pcol {
                continue;
            }
            // One grid row: local rows are global rows.
            let later = self.swaps.partition_point(|&(s, _)| s < first + g.nb);
            let lo = g.local_col(first);
            local.swap_rows_batched(&self.swaps[later..], lo, lo + g.nb.min(g.n - first));
        }
    }
}

/// Every other buffer a factorization needs besides the matrix, sized once
/// for the largest block step and allocated before the clock starts, so
/// the timed loop never touches the allocator.
struct Workspace {
    /// Step (a)'s reduction buffer: the candidate's row across the panel,
    /// in lanes, then the diagonal row.
    reduce: Vec<PivotLane>,
    /// The pivot row across the panel from its inner block's first column
    /// on; at an inner block's end, one U row right of the block.
    rowseg: Vec<f64>,
    /// The inner block's pivot rows across the panel, as the reductions
    /// returned them: `IB` rows, column-major (`urows[c·IB + r]` is row `r`
    /// in panel column `c`). Left of a row's diagonal they hold L11; right
    /// of the block, U once the block ends.
    urows: Vec<f64>,
    /// The panels as broadcast along the row team — panel k in
    /// `panel[k % 2]`, so panel k + 1 can be factored and sent while panel
    /// k still updates the rest of step k. Each holds its `nb` pivots (as
    /// bit patterns), then its active rows × `nb`.
    panel: [Vec<f64>; 2],
    /// `nb` × my trailing columns, as broadcast along the column team.
    u12: Vec<f64>,
    /// Step (g)'s `L21`, packed once per block step for the `dgemm` of
    /// every block column.
    l21: blas::PackedA,
    /// The block step (its first column) whose `L21` is packed.
    l21_of: Option<usize>,
}

impl Workspace {
    fn new(grid: &BlockCyclic, prow: usize, pcol: usize) -> Self {
        let (lr, lc) = (grid.local_rows(prow), grid.local_cols(pcol));
        let panel = || vec![0.0; (1 + lr) * grid.nb];
        Workspace {
            reduce: vec![((0.0, 0), [0.0; LANE]); 2 * grid.nb.div_ceil(LANE)],
            rowseg: vec![0.0; grid.nb],
            urows: vec![0.0; IB * grid.nb],
            panel: [panel(), panel()],
            u12: vec![0.0; grid.nb * lc],
            l21: blas::PackedA::with_capacity(lr, grid.nb),
            l21_of: None,
        }
    }
}

/// Block step `k`'s place on the grid.
#[derive(Clone, Copy)]
struct Block {
    /// Its first global row and column.
    first: usize,
    /// Its width.
    nb: usize,
    /// The grid column that owns its panel.
    q: usize,
    /// The grid row that owns its block row.
    p: usize,
    /// Which of the two panel buffers it travels in.
    buf: usize,
}

impl Block {
    fn new(grid: &BlockCyclic, k: usize) -> Self {
        let first = k * grid.nb;
        Block {
            first,
            nb: grid.nb.min(grid.n - first),
            q: grid.owner_col(first),
            p: grid.owner_row(first),
            buf: k % 2,
        }
    }
}

/// The blocks the U12 pipeline cuts an image's trailing local columns
/// `cols` into, for block size `nb`: `nb` wide each, or, `narrow`, a first
/// block of `nb / 4` columns (rounded up) and then widths doubling up to
/// `nb` — 16, 32, 64, 64, … at `nb` = 64 — so the receivers of the first
/// block wait only for a quarter-width `dtrsm`.
pub fn u12_blocks(
    cols: Range<usize>,
    nb: usize,
    narrow: bool,
) -> impl Iterator<Item = Range<usize>> {
    let (mut lo, mut width) = (cols.start, if narrow { nb.div_ceil(4) } else { nb });
    std::iter::from_fn(move || {
        (lo < cols.end).then(|| {
            let block = lo..(lo + width).min(cols.end);
            (lo, width) = (block.end, (2 * width).min(nb));
            block
        })
    })
}

/// One image's factorization in progress: its piece of the matrix, its
/// teams, the buffers the block loop reuses and where its time went.
struct Lu {
    grid: BlockCyclic,
    prow: usize,
    pcol: usize,
    local: Matrix,
    pivots: Vec<usize>,
    ws: Workspace,
    interchange: Interchange,
    /// My grid row (team rank == pcol) and my grid column (team rank ==
    /// prow), both formed from the initial team.
    row_team: Team,
    col_team: Team,
    laps: Laps,
}

/// Where an image's time went so far, and the clock at the last boundary.
#[derive(Default)]
struct Laps {
    ns: PhaseNs,
    mark: u64,
}

impl Laps {
    /// Book the time since the previous boundary to `phase`.
    fn book(&mut self, img: &ImageCtx, phase: fn(&mut PhaseNs) -> &mut u64) {
        let now = img.now_ns();
        *phase(&mut self.ns) += now - self.mark;
        self.mark = now;
    }
}

impl Lu {
    /// (a) Factor panel `b` — on its grid column — and pack it with its
    /// pivots for the row team.
    ///
    /// Column at a time, and every column costs the column team one
    /// reduction: each image offers its candidate's row (all `b.nb` panel
    /// columns of it) keyed by the candidate, and the diagonal row keyed so
    /// that its owner wins. The result holds the pivot row and the
    /// diagonal row on every image — pivot search, row swap and pivot-row
    /// broadcast in one exchange.
    ///
    /// The columns go in inner blocks of [`IB`]: a column's rank-1 update
    /// reaches only the columns of its block, and the panel's columns right
    /// of the block are brought up to date when it ends
    /// ([`Lu::finish_inner_block`]).
    fn factor_panel(&mut self, img: &mut ImageCtx, b: Block) {
        for jb in (0..b.nb).step_by(IB) {
            let ib = IB.min(b.nb - jb);
            self.factor_inner_block(img, b, jb..jb + ib);
            self.finish_inner_block(b, jb..jb + ib);
        }
        // The panel as it travels: the pivots at the head (as bit patterns,
        // exact through the byte copy), then the L slab.
        let (grid, prow) = (self.grid, self.prow);
        let (lr, lj0) = (grid.local_rows(prow), grid.local_col(b.first));
        let act0 = grid.first_local_row_ge(prow, b.first);
        let slab_rows = lr - act0;
        let panel = &mut self.ws.panel[b.buf][..(1 + slab_rows) * b.nb];
        let (head, slab) = panel.split_at_mut(b.nb);
        for (slot, &piv) in head.iter_mut().zip(&self.pivots[b.first..]) {
            *slot = f64::from_bits(piv as u64);
        }
        if slab_rows > 0 {
            for (jj, dst) in slab.chunks_exact_mut(slab_rows).enumerate() {
                dst.copy_from_slice(&self.local.col(lj0 + jj)[act0..lr]);
            }
        }
        self.laps.book(img, |t| &mut t.panel);
    }

    /// The columns `block` of panel `b`, one at a time: pivot search and
    /// reduction, swap across the panel, scaling, and the rank-1 update of
    /// the block's columns right of the pivot. Each column is charged the
    /// right-looking step's flops, across the whole panel, where that step
    /// would spend them.
    fn factor_inner_block(&mut self, img: &mut ImageCtx, b: Block, block: Range<usize>) {
        let (grid, prow, p) = (self.grid, self.prow, self.grid.p);
        let lr = grid.local_rows(prow);
        let ld = self.local.ld();
        let lj0 = grid.local_col(b.first);
        let lanes = b.nb.div_ceil(LANE);
        let (jb, jend) = (block.start, block.end);
        let local = &mut self.local;
        for j in block {
            let gdiag = b.first + j;
            let lj = lj0 + j;
            // Local pivot candidate among my rows >= gdiag.
            let li_from = grid.first_local_row_ge(prow, gdiag);
            let mut cand = (-1.0f64, 0u64);
            for (li, v) in (li_from..lr).zip(&local.col(lj)[li_from..lr]) {
                if v.abs() > cand.0 {
                    cand = (v.abs(), grid.global_row(prow, li) as u64);
                }
            }
            account(img, 2 * (lr - li_from) as u64);
            let diag_owner = grid.owner_row(gdiag);
            let diag_lr = grid.local_row(gdiag); // valid only on diag_owner
            if p > 1 {
                // The rows I can offer; an image without one offers zeros
                // under a key that loses.
                let cand_row = (cand.0 >= 0.0).then(|| grid.local_row(cand.1 as usize));
                let diag_row = (prow == diag_owner).then_some(diag_lr);
                let diag_key = (if diag_row.is_some() { 1.0 } else { -1.0 }, 0);
                let lane = |row: Option<usize>, l: usize| {
                    let mut vals = [0.0; LANE];
                    for (c, v) in (l * LANE..b.nb).zip(&mut vals) {
                        *v = row.map_or(0.0, |r| local.get(r, lj0 + c));
                    }
                    vals
                };
                let (cands, diags) = self.ws.reduce[..2 * lanes].split_at_mut(lanes);
                for (l, (cand_lane, diag_lane)) in cands.iter_mut().zip(diags).enumerate() {
                    *cand_lane = (cand, lane(cand_row, l));
                    *diag_lane = (diag_key, lane(diag_row, l));
                }
                self.col_team
                    .comm_mut()
                    .co_reduce_with(&mut self.ws.reduce[..2 * lanes], maxloc);
                cand = self.ws.reduce[0].0;
            }
            assert!(
                cand.0 > 0.0,
                "HPL: matrix numerically singular at global column {gdiag}"
            );
            let piv = cand.1 as usize;
            self.pivots[gdiag] = piv;
            // Swap within the panel columns only (deferred elsewhere) and
            // read the pivot row from the inner block's first column on.
            let rowseg = &mut self.ws.rowseg[..b.nb - jb];
            if p > 1 {
                // The diagonal's owner stores the pivot row, the pivot's
                // owner the diagonal row.
                let (pivot_row, diag_row) = self.ws.reduce[..2 * lanes].split_at(lanes);
                if prow == diag_owner {
                    for (c, v) in lane_values(pivot_row, b.nb).enumerate() {
                        local.set(diag_lr, lj0 + c, v);
                    }
                }
                if prow == grid.owner_row(piv) && piv != gdiag {
                    for (c, v) in lane_values(diag_row, b.nb).enumerate() {
                        local.set(grid.local_row(piv), lj0 + c, v);
                    }
                }
                for (slot, v) in rowseg.iter_mut().zip(lane_values(pivot_row, b.nb).skip(jb)) {
                    *slot = v;
                }
            } else {
                // A column team of one: both rows are mine.
                local.swap_rows(diag_lr, grid.local_row(piv), lj0, lj0 + b.nb);
                for (slot, col) in rowseg.iter_mut().zip(lj0 + jb..lj0 + b.nb) {
                    *slot = local.get(diag_lr, col);
                }
            }
            // Kept as the block's pivot row j − jb.
            let urows = self.ws.urows[jb * IB..].chunks_exact_mut(IB);
            for (col, &v) in urows.zip(rowseg.iter()) {
                col[j - jb] = v;
            }
            let pivot_val = rowseg[j - jb];
            // Scale my subdiagonal column and rank-1 update the block's
            // columns right of it.
            let li1 = grid.first_local_row_ge(prow, gdiag + 1);
            blas::dscal(1.0 / pivot_val, &mut local.col_mut(lj)[li1..lr]);
            if li1 < lr && j + 1 < b.nb {
                let (m_rows, n_cols) = (lr - li1, b.nb - j - 1);
                if j + 1 < jend {
                    // x = L column (li1.., lj), y = the pivot row's rest of
                    // the block.
                    let (left, right) = local.as_mut_slice().split_at_mut((lj + 1) * ld);
                    let x = &left[lj * ld + li1..lj * ld + lr];
                    let y = &rowseg[j + 1 - jb..jend - jb];
                    blas::dger_minus(m_rows, y.len(), x, y, &mut right[li1..], ld);
                }
                account(img, blas::dgemm_flops(m_rows, n_cols, 1) + m_rows as u64);
            }
        }
    }

    /// The end of inner block `block` of panel `b`: the panel's columns
    /// right of it receive the block's steps. The block's U rows get them
    /// by forward substitution — rank-1 steps on the pivot rows, `l`
    /// ascending — on every image of the column team from the rows its
    /// reductions returned, and the rows' owner stores the result; my rows
    /// below the block get them as one `dgemm` of depth `block.len()`, `l`
    /// ascending too. So every element sees the chain of fused steps, in
    /// the order, that one rank-1 update per column across the panel gives
    /// it. No flops are charged here: the columns were.
    fn finish_inner_block(&mut self, b: Block, block: Range<usize>) {
        let (c0, ib) = (block.end, block.len());
        let n = b.nb - c0;
        if n == 0 {
            return;
        }
        let (grid, prow) = (self.grid, self.prow);
        let (l11, u) = self.ws.urows.split_at_mut(c0 * IB);
        let u = &mut u[..n * IB];
        for l in 0..ib - 1 {
            let y = &mut self.ws.rowseg[..n];
            for (slot, col) in y.iter_mut().zip(u.chunks_exact(IB)) {
                *slot = col[l];
            }
            let x = &l11[(block.start + l) * IB..][l + 1..ib];
            blas::dger_minus(ib - l - 1, n, x, y, &mut u[l + 1..], IB);
        }
        let lj0 = grid.local_col(b.first);
        if prow == b.p {
            let li = grid.local_row(b.first + block.start);
            for (jj, col) in u.chunks_exact(IB).enumerate() {
                self.local.col_mut(lj0 + c0 + jj)[li..li + ib].copy_from_slice(&col[..ib]);
            }
        }
        let below = grid.first_local_row_ge(prow, b.first + c0);
        let m = grid.local_rows(prow) - below;
        if m > 0 {
            let ld = self.local.ld();
            let (l21, a22) = self.local.as_mut_slice().split_at_mut((lj0 + c0) * ld);
            let l21 = &l21[(lj0 + block.start) * ld + below..];
            blas::dgemm_minus(m, n, ib, l21, ld, u, IB, &mut a22[below..], ld);
        }
    }

    /// (b)+(c) Panel `b` along my row team, as one ring broadcast — the
    /// pivots, then the L slab (only the pivots where no active row is
    /// left): its grid column sends it, everyone else comes away holding
    /// it, and nothing is left to finish.
    fn broadcast_panel(&mut self, img: &ImageCtx, b: Block) {
        let act0 = self.grid.first_local_row_ge(self.prow, b.first);
        let slab_rows = self.grid.local_rows(self.prow) - act0;
        let panel = &mut self.ws.panel[b.buf][..(1 + slab_rows) * b.nb];
        self.row_team.comm_mut().co_broadcast_ring(panel, b.q);
        let pivots = &mut self.pivots[b.first..b.first + b.nb];
        for (slot, bits) in pivots.iter_mut().zip(&panel[..b.nb]) {
            *slot = bits.to_bits() as usize;
        }
        self.laps.book(img, |t| &mut t.panel_bcast);
    }

    /// (d)–(g) of block step `b` on my trailing local columns `cols` and,
    /// with `left`, (d) on my L columns left of the panel too — on a grid
    /// of several rows; a one-row grid leaves them to
    /// [`Interchange::finish_left`], since nothing reads an L column of the
    /// matrix again before the factorization ends. Every image of my grid
    /// column passes the same arguments.
    ///
    /// Steps (e)–(g) run as a pipeline over the blocks of [`u12_blocks`]:
    /// grid row `b.p` solves block c + 1 and begins its broadcast before
    /// the `dgemm` of block c, so a block's U12 travels while the one
    /// before it updates; every other row runs the `dgemm` of block c
    /// before it begins receiving block c + 1, which has landed meanwhile
    /// (unless node-mates share a NIC, `TeamComm::shares_a_nic`).
    fn update(&mut self, img: &mut ImageCtx, b: Block, cols: Range<usize>, left: bool) {
        // -------- (d) apply the panel's row interchanges ----------------
        let l_end = if left && self.grid.p > 1 {
            self.grid.first_local_col_ge(self.pcol, b.first)
        } else {
            0
        };
        let pivots = &self.pivots[b.first..b.first + b.nb];
        let ranges = [(0, l_end), (cols.start, cols.end)];
        (self.interchange).apply(img, &mut self.local, b.first, pivots, &ranges);
        self.laps.book(img, |t| &mut t.interchange);
        if cols.is_empty() {
            return;
        }

        let (grid, prow) = (self.grid, self.prow);
        let act0 = grid.first_local_row_ge(prow, b.first);
        let lt_r0 = grid.first_local_row_ge(prow, b.first + b.nb);
        let (trows, slab_rows) = (grid.local_rows(prow) - lt_r0, grid.local_rows(prow) - act0);
        if self.ws.l21_of != Some(b.first) {
            let l21 = &self.ws.panel[b.buf][b.nb + lt_r0 - act0..];
            self.ws.l21.pack(trows, b.nb, l21, slab_rows);
            self.ws.l21_of = Some(b.first);
        }

        // A column team of one has no broadcast to hide and takes `cols`
        // whole. Otherwise the root solves and sends block c + 1 before the
        // `dgemm` of block c, and a receiver updates block c first, since
        // beginning c + 1 would only wait for it to land; the first block
        // is narrow. Through a NIC shared with node-mates both lost on
        // EXP-F1 — every extra block is one more message in the node's
        // queue — so there the blocks stay `nb` wide and receivers begin
        // c + 1 before the `dgemm` of block c, as the root does.
        let overlap = !self.col_team.comm().shares_a_nic();
        let width = if grid.p > 1 { b.nb } else { cols.len() };
        let ahead = prow == b.p || !overlap;
        let mut blocks = u12_blocks(cols, width, grid.p > 1 && overlap);
        let mut block = blocks.next().expect("a nonempty column range");
        self.next_u12(img, b, block.clone());
        for next in blocks {
            if ahead {
                self.next_u12(img, b, next.clone());
            }
            self.trailing(img, b, block);
            if !ahead {
                self.next_u12(img, b, next.clone());
            }
            block = next;
        }
        self.trailing(img, b, block);
        self.col_team.comm_mut().co_broadcast_finish();
        self.laps.book(img, |t| &mut t.u12_bcast);
    }

    /// The piece of the U12 buffer that holds my local columns `cols` of
    /// block step `b` (`nb` doubles per column).
    fn u12_range(&self, b: Block, cols: &Range<usize>) -> Range<usize> {
        let lt_c0 = self.grid.first_local_col_ge(self.pcol, b.first + b.nb);
        (cols.start - lt_c0) * b.nb..(cols.end - lt_c0) * b.nb
    }

    /// (e)+(f) for local columns `cols` of block step `b`: on grid row
    /// `b.p`, U12 = L11⁻¹ · A(K, cols) — solved in the contiguous broadcast
    /// buffer (the block row of the local matrix is `nb` doubles every
    /// `ld`), then written back — and its broadcast begun along the column
    /// team; elsewhere, the broadcast begun, which returns holding it.
    fn next_u12(&mut self, img: &mut ImageCtx, b: Block, cols: Range<usize>) {
        let (grid, prow) = (self.grid, self.prow);
        let at = self.u12_range(b, &cols);
        let u12 = &mut self.ws.u12[at];
        if prow == b.p {
            let act0 = grid.first_local_row_ge(prow, b.first);
            let slab_rows = grid.local_rows(prow) - act0;
            let li_k0 = grid.local_row(b.first);
            for (jj, dst) in u12.chunks_exact_mut(b.nb).enumerate() {
                dst.copy_from_slice(&self.local.col(cols.start + jj)[li_k0..li_k0 + b.nb]);
            }
            // L11 (unit diagonal implied) sits in the slab at my rows of
            // block K.
            let l11 = &self.ws.panel[b.buf][b.nb + li_k0 - act0..];
            blas::dtrsm_lower_unit(b.nb, cols.len(), l11, slab_rows, u12, b.nb);
            account(img, blas::dtrsm_flops(b.nb, cols.len()));
            for (jj, src) in u12.chunks_exact(b.nb).enumerate() {
                self.local.col_mut(cols.start + jj)[li_k0..li_k0 + b.nb].copy_from_slice(src);
            }
            self.laps.book(img, |t| &mut t.dtrsm);
        }
        self.col_team.comm_mut().co_broadcast_begin(u12, b.p);
        self.laps.book(img, |t| &mut t.u12_bcast);
    }

    /// (g) for local columns `cols` of block step `b`: A22 −= L21 · U12,
    /// `L21` as `update` packed it.
    fn trailing(&mut self, img: &mut ImageCtx, b: Block, cols: Range<usize>) {
        let (grid, prow) = (self.grid, self.prow);
        let lt_r0 = grid.first_local_row_ge(prow, b.first + b.nb);
        let trows = grid.local_rows(prow) - lt_r0;
        if trows > 0 {
            let ld = self.local.ld();
            let u12 = &self.ws.u12[self.u12_range(b, &cols)];
            let c = &mut self.local.as_mut_slice()[cols.start * ld + lt_r0..];
            self.ws.l21.gemm_minus(cols.len(), u12, b.nb, c, ld);
            account(img, blas::dgemm_flops(trows, cols.len(), b.nb));
        }
        self.laps.book(img, |t| &mut t.update);
    }
}

/// Run one distributed factorization. Collective over all images of the
/// run; every image receives its own [`HplOutcome`].
///
/// The block loop looks one panel ahead, as netlib HPL does: during step
/// k, the grid column that owns panel k + 1 takes only that panel's
/// columns through the step, factors it and sends it along the row team's
/// ring, and then finishes step k on its other columns while the panel
/// travels; the other grid columns run step k whole and then receive panel
/// k + 1, the next panel's owner first.
///
/// # Panics
/// Panics if the matrix turns out numerically singular (never the case for
/// the built-in generator at sensible sizes).
pub fn factorize(img: &mut ImageCtx, cfg: &HplConfig) -> HplOutcome {
    let (p, q) = grid_dims(img.num_images());
    let fabric = img.fabric();
    let map = fabric.image_map();
    let grid = BlockCyclic::new(cfg.n, cfg.nb, p, q)
        .laid_out_for(!fabric.overheads().intra_via_nic, |image| {
            map.node_of(ProcId(image - 1)).index()
        });
    let (prow, pcol) = grid.coords_of(img.this_image());

    // Local storage, filled from the deterministic generator.
    let lr = grid.local_rows(prow);
    let lc = grid.local_cols(pcol);
    let mut local = Matrix::zeros(lr.max(1), lc.max(1));
    for lj in 0..lc {
        let gj = grid.global_col(pcol, lj);
        for li in 0..lr {
            let gi = grid.global_row(prow, li);
            local.set(li, lj, hpl_element(cfg.seed, cfg.n, gi, gj));
        }
    }

    let row_team: Team = img.form_team(prow as i64);
    let col_team: Team = img.form_team(pcol as i64);
    debug_assert_eq!(row_team.this_image() - 1, pcol);
    debug_assert_eq!(col_team.this_image() - 1, prow);
    let interchange = Interchange::new(img, grid, prow, pcol);
    let mut lu = Lu {
        grid,
        prow,
        pcol,
        local,
        pivots: vec![0usize; cfg.n],
        ws: Workspace::new(&grid, prow, pcol),
        interchange,
        row_team,
        col_team,
        laps: Laps::default(),
    };
    img.sync_all();
    lu.laps.mark = img.now_ns();

    let nblocks = cfg.n.div_ceil(cfg.nb);
    let first = Block::new(&grid, 0);
    if pcol == first.q {
        lu.factor_panel(img, first);
    }
    lu.broadcast_panel(img, first);
    for k in 0..nblocks {
        let b = Block::new(&grid, k);
        let trailing = grid.first_local_col_ge(pcol, b.first + b.nb);
        match (k + 1 < nblocks).then(|| Block::new(&grid, k + 1)) {
            Some(next) if pcol == next.q => {
                // Panel k + 1 is my trailing columns' head: take it through
                // step k, factor and send it, then the rest of step k
                // while it travels.
                let split = trailing + next.nb;
                lu.update(img, b, trailing..split, false);
                lu.factor_panel(img, next);
                lu.broadcast_panel(img, next);
                lu.update(img, b, split..lc, true);
            }
            next => {
                lu.update(img, b, trailing..lc, true);
                if let Some(next) = next {
                    lu.broadcast_panel(img, next);
                }
            }
        }
    }

    lu.interchange.finish_left(&mut lu.local, &lu.pivots);
    lu.laps.book(img, |t| &mut t.interchange);
    img.sync_all();
    lu.laps.book(img, |t| &mut t.closing_sync);

    HplOutcome {
        time_ns: lu.laps.ns.total(),
        phase_ns: lu.laps.ns,
        pivots: lu.pivots,
        local: lu.local,
        grid,
        prow,
        pcol,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Layout;
    use caf_fabric::StatsSnapshot;
    use caf_runtime::CoValue;
    use caf_runtime::{run_on_fabric, CollectiveConfig, RunConfig};
    use caf_topology::presets;
    use proptest::prelude::*;

    /// Run `body` on `images` simulated images (2 nodes × 4 cores) and
    /// return what each image returned plus everything the fabric counted.
    fn counted<R: Send + 'static>(
        images: usize,
        body: impl Fn(&mut ImageCtx) -> R + Send + Sync + 'static,
    ) -> (Vec<R>, StatsSnapshot) {
        let fabric = RunConfig::sim_packed(presets::mini(2, 4), images).build_fabric();
        let out = run_on_fabric(fabric.clone(), CollectiveConfig::auto(), body);
        (out, fabric.stats().snapshot())
    }

    fn puts(s: &StatsSnapshot) -> u64 {
        s.puts_intra + s.puts_inter
    }

    fn flags(s: &StatsSnapshot) -> u64 {
        s.flags_intra + s.flags_inter
    }

    fn bytes(s: &StatsSnapshot) -> u64 {
        s.bytes_intra + s.bytes_inter
    }

    /// My local column ranges outside the panel `first .. first + len`.
    fn outside(grid: &BlockCyclic, pcol: usize, first: usize, len: usize) -> [(usize, usize); 2] {
        [
            (0, grid.first_local_col_ge(pcol, first)),
            (
                grid.first_local_col_ge(pcol, first + len),
                grid.local_cols(pcol),
            ),
        ]
    }

    /// Pivots for `n` rows from proptest's picks: step `s` picks one of
    /// the twelve rows from `s` on.
    fn pivots_from(picks: &[usize], n: usize) -> Vec<usize> {
        (0..n).map(|s| s + picks[s] % (n - s).min(12)).collect()
    }

    /// The value that starts at global `(gi, gj)`.
    fn row_id(gi: usize, gj: usize) -> f64 {
        (gi * 100 + gj) as f64
    }

    /// The whole matrix of [`row_id`]s with every panel's transpositions
    /// applied one at a time to the columns outside the panel.
    fn one_at_a_time(n: usize, nb: usize, pivots: &[usize]) -> Matrix {
        let mut want = Matrix::zeros(n, n);
        for gj in 0..n {
            for gi in 0..n {
                want.set(gi, gj, row_id(gi, gj));
            }
        }
        for (s, &piv) in pivots.iter().enumerate() {
            let panel = s / nb * nb;
            want.swap_rows(s, piv, 0, panel);
            want.swap_rows(s, piv, (panel + nb).min(n), n);
        }
        want
    }

    /// My piece of the matrix of [`row_id`]s.
    fn local_ids(grid: &BlockCyclic, prow: usize, pcol: usize) -> Matrix {
        let (lr, lc) = (grid.local_rows(prow), grid.local_cols(pcol));
        let mut local = Matrix::zeros(lr.max(1), lc.max(1));
        for lj in 0..lc {
            for li in 0..lr {
                let (gi, gj) = (grid.global_row(prow, li), grid.global_col(pcol, lj));
                local.set(li, lj, row_id(gi, gj));
            }
        }
        local
    }

    #[test]
    fn net_permutation_of_a_three_cycle_and_of_nothing() {
        let mut perm = Vec::new();
        // 0↔5, then 1↔5: row 5's content ends at 0, row 0's at 1, row 1's at 5.
        net_permutation(0, &[5, 5], &mut perm);
        perm.sort_unstable();
        assert_eq!(perm, [(0, 5), (1, 0), (5, 1)]);
        // Pivots on the diagonal move nothing; a row picked twice moves on.
        net_permutation(4, &[9, 5, 6], &mut perm);
        assert_eq!(perm, [(4, 9), (9, 4)]);
        net_permutation(4, &[9, 5, 6, 7, 9], &mut perm);
        assert_eq!(perm, [(4, 9), (9, 8), (8, 4)]);
        net_permutation(2, &[2, 3], &mut perm);
        assert!(perm.is_empty());
    }

    proptest! {
        #[test]
        fn net_permutation_is_the_sequence_of_transpositions(
            first in 0usize..6,
            picks in proptest::collection::vec(0usize..40, 0..9),
        ) {
            let n = 24;
            let pivots: Vec<usize> = picks
                .iter()
                .enumerate()
                .map(|(j, pick)| first + j + pick % (n - first - j))
                .collect();
            let mut rows: Vec<usize> = (0..n).collect();
            for (j, &piv) in pivots.iter().enumerate() {
                rows.swap(first + j, piv);
            }
            let mut perm = Vec::with_capacity(2 * pivots.len());
            net_permutation(first, &pivots, &mut perm);
            prop_assert!(perm.len() <= 2 * pivots.len());
            let mut folded: Vec<usize> = (0..n).collect();
            for &(position, source) in &perm {
                prop_assert!(position != source);
                folded[position] = source;
            }
            prop_assert_eq!(folded, rows);
        }

        /// A matrix of row ids, every panel of it interchanged by step
        /// (d) on a p × q grid, ends up where one transposition at a time
        /// puts it — pivots on the diagonal, repeated pivot rows, pivots
        /// inside and outside the block, cycles through three grid rows —
        /// with at most p − 1 puts per image and panel.
        #[test]
        fn batched_interchange_equals_sequential_transpositions(
            p in 1usize..=4,
            q in 1usize..=2,
            layout in proptest::sample::select(vec![Layout::RowMajor, Layout::ColumnMajor]),
            picks in proptest::collection::vec(0usize..30, 26),
        ) {
            let (n, nb) = (26, 4); // 7 panels, the last one partial
            let pivots = pivots_from(&picks, n);
            let want = one_at_a_time(n, nb, &pivots);

            let grid = BlockCyclic::new(n, nb, p, q).with_layout(layout);
            let program = move |panels: bool| {
                let pivots = pivots.clone();
                counted(p * q, move |img| {
                    let (prow, pcol) = grid.coords_of(img.this_image());
                    let mut local = local_ids(&grid, prow, pcol);
                    let mut interchange = Interchange::new(img, grid, prow, pcol);
                    for first in (0..n).step_by(nb).filter(|_| panels) {
                        let panel = &pivots[first..(first + nb).min(n)];
                        let cols = outside(&grid, pcol, first, panel.len());
                        interchange.apply(img, &mut local, first, panel, &cols);
                    }
                    img.sync_all();
                    local
                })
            };
            let (locals, with_panels) = program(true);
            let (_, without) = program(false);
            for (image, local) in (1..).zip(&locals) {
                let (prow, pcol) = grid.coords_of(image);
                for lj in 0..grid.local_cols(pcol) {
                    for li in 0..grid.local_rows(prow) {
                        let (gi, gj) = (grid.global_row(prow, li), grid.global_col(pcol, lj));
                        prop_assert_eq!(
                            local.get(li, lj), want.get(gi, gj),
                            "global ({}, {}) on image {}, {:?}", gi, gj, image, layout
                        );
                    }
                }
            }
            let panels = n.div_ceil(nb) as u64;
            let sent = puts(&with_panels) - puts(&without);
            prop_assert!(
                sent <= panels * (p * q * (p - 1)) as u64,
                "{} interchange puts over {} panels on a {}x{} grid", sent, panels, p, q
            );
        }

        /// On a one-row grid, panels interchanged on their trailing
        /// columns only, the L columns left to one `finish_left` at the
        /// end, leave every row where one transposition at a time puts it.
        #[test]
        fn deferred_left_swaps_equal_sequential_transpositions(
            q in 1usize..=3,
            picks in proptest::collection::vec(0usize..30, 26),
        ) {
            let (n, nb) = (26, 4);
            let pivots = pivots_from(&picks, n);
            let want = one_at_a_time(n, nb, &pivots);
            let grid = BlockCyclic::new(n, nb, 1, q);
            let locals = counted(q, move |img| {
                let pcol = grid.coords_of(img.this_image()).1;
                let mut local = local_ids(&grid, 0, pcol);
                let mut interchange = Interchange::new(img, grid, 0, pcol);
                for first in (0..n).step_by(nb) {
                    let panel = &pivots[first..(first + nb).min(n)];
                    let [_, trailing] = outside(&grid, pcol, first, panel.len());
                    interchange.apply(img, &mut local, first, panel, &[trailing]);
                }
                interchange.finish_left(&mut local, &pivots);
                local
            })
            .0;
            for (pcol, local) in locals.iter().enumerate() {
                for lj in 0..grid.local_cols(pcol) {
                    for gi in 0..n {
                        let gj = grid.global_col(pcol, lj);
                        prop_assert_eq!(local.get(gi, lj), want.get(gi, gj), "({}, {})", gi, gj);
                    }
                }
            }
        }
    }

    /// What a panel column adds to a factorization's traffic is one
    /// `co_reduce` of its size on its column team — nothing besides — and
    /// that reduction carries the candidate's and the diagonal row in
    /// ⌈nb/8⌉ lanes each, one key per eight values.
    #[test]
    fn a_panel_column_costs_one_reduction_on_the_column_team() {
        // Grid 2 × 2. With `n == nb` a factorization is one panel on grid
        // column 0, one panel broadcast per row team, and neither an
        // interchange (no column outside the panel) nor a U12.
        let one_panel = |nb: usize| {
            let hpl = HplConfig { n: nb, nb, seed: 5 };
            counted(4, move |img| factorize(img, &hpl).pivots).1
        };
        // The same teams, then `calls` reductions of a panel column's size
        // on grid column 0's team.
        let reductions = |nb: usize, calls: usize| {
            counted(4, move |img| {
                let (prow, pcol) = BlockCyclic::new(nb, nb, 2, 2).coords_of(img.this_image());
                let _row_team = img.form_team(prow as i64);
                let mut col_team = img.form_team(pcol as i64);
                if pcol == 0 {
                    let lane: PivotLane = ((prow as f64, 0), [1.0; LANE]);
                    let mut buf = vec![lane; 2 * nb.div_ceil(LANE)];
                    for _ in 0..calls {
                        col_team.comm_mut().co_reduce_with(&mut buf, maxloc);
                    }
                }
            })
            .1
        };
        let (small, large) = (one_panel(8), one_panel(16));
        for (what, count) in [
            ("notifications", flags as fn(&StatsSnapshot) -> u64),
            ("puts", puts),
        ] {
            let per_call = |nb| count(&reductions(nb, 3)) - count(&reductions(nb, 2));
            assert!(per_call(8) > 0, "a reduction sends {what}");
            assert_eq!(
                count(&large) - count(&small),
                16 * per_call(16) - 8 * per_call(8),
                "{what}: 16 columns of a 16-wide panel against 8 of an 8-wide one"
            );
        }
        // The payload, in bytes on the fabric: a lane is a 16 B key and
        // 64 B of values, and a two-image reduction moves it twice (in to
        // the leader, back out). At nb = 64 that is 1 280 B per column
        // where one key per value made it 3 072 B.
        assert_eq!(<PivotLane as CoValue>::SIZE, 80);
        for (nb, lanes) in [(8, 2), (16, 4), (61, 16), (64, 16)] {
            let per_call = bytes(&reductions(nb, 3)) - bytes(&reductions(nb, 2));
            assert_eq!(per_call, 2 * lanes * 80, "nb = {nb}");
        }
    }

    /// On a 2 × 2 grid every image has one partner at most: a panel whose
    /// pivots all cross the grid rows costs each image exactly one put and
    /// one `sync images` pair, however many rows move — under either
    /// layout.
    #[test]
    fn a_panel_of_crossing_pivots_is_one_put_per_image() {
        for layout in [Layout::RowMajor, Layout::ColumnMajor] {
            crossing_pivots(layout);
        }
    }

    fn crossing_pivots(layout: Layout) {
        let (n, nb) = (32, 4);
        let grid = BlockCyclic::new(n, nb, 2, 2).with_layout(layout);
        let traffic = |panels: usize| {
            counted(4, move |img| {
                let (prow, pcol) = grid.coords_of(img.this_image());
                let mut local = Matrix::zeros(grid.local_rows(prow), grid.local_cols(pcol));
                let mut interchange = Interchange::new(img, grid, prow, pcol);
                for k in 0..panels {
                    // Block k lives on grid row k % 2, block k + 1 on the other.
                    let first = k * nb;
                    let pivots: Vec<usize> = (first + nb..first + 2 * nb).collect();
                    let cols = outside(&grid, pcol, first, nb);
                    interchange.apply(img, &mut local, first, &pivots, &cols);
                }
                img.sync_all();
            })
            .1
        };
        let (none, three) = (traffic(0), traffic(3));
        assert_eq!(puts(&three) - puts(&none), 3 * 4, "{layout:?}");
        // Two `sync images` with one partner each, per image and panel.
        assert_eq!(flags(&three) - flags(&none), 3 * 4 * 2, "{layout:?}");
    }

    /// On whale 16(2) with the UHCAF stack each column team sits on one
    /// node, so the pivot reductions never leave it: the eight more panel
    /// columns of a 16-wide one-panel factorization than of an 8-wide one
    /// add no inter-node message. Over the NIC loopback (UHCAF_FLAT) the
    /// grid stays row-major and every one of those columns crosses.
    #[test]
    fn pivot_reductions_stay_on_the_node_when_node_mates_share_memory() {
        use caf_fabric::{Fabric, SimConfig, SimFabric};
        use caf_topology::{presets::stacks, ImageMap, Placement, SoftwareOverheads};
        let one_panel = |stack: SoftwareOverheads, collectives, nb: usize| {
            let map = ImageMap::new(presets::whale(), 16, &Placement::Block { per_node: 8 });
            let config = SimConfig {
                cost: presets::whale_cost(),
                overheads: stack,
                ..SimConfig::default()
            };
            let fabric = SimFabric::new(map, config);
            let hpl = HplConfig { n: nb, nb, seed: 5 };
            let layouts = run_on_fabric(fabric.clone(), collectives, move |img| {
                factorize(img, &hpl).grid.layout
            });
            assert!(layouts.iter().all(|l| *l == layouts[0]));
            let s = fabric.stats().snapshot();
            (layouts[0], s.puts_inter + s.flags_inter + s.gets_inter)
        };
        let added = |stack, collectives| {
            let (layout, small) = one_panel(stack, collectives, 8);
            let (_, large) = one_panel(stack, collectives, 16);
            (layout, large as i64 - small as i64)
        };
        assert_eq!(
            added(stacks::UHCAF, CollectiveConfig::two_level()),
            (Layout::ColumnMajor, 0)
        );
        let (layout, crossing) = added(stacks::UHCAF_FLAT, CollectiveConfig::one_level());
        assert_eq!(layout, Layout::RowMajor);
        assert!(crossing > 0, "row-major column teams span both nodes");
    }
}
