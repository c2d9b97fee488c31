//! Distributed right-looking LU factorization with partial pivoting on a
//! 2-D block-cyclic grid — the communication skeleton of HPL, expressed
//! through `caf-rs` **row teams and column teams** exactly as the paper's
//! CAF port does (§V-B):
//!
//! * pivot search: `co_reduce` MAXLOC over the **column team**;
//! * pivot row exchange: pairwise coarray puts + `sync images`;
//! * panel broadcast (L blocks + pivots): `co_broadcast` over **row teams**;
//! * U-block-row broadcast: `co_broadcast` over **column teams**;
//! * trailing update: local `dgemm`.
//!
//! Local computation is accounted to the simulator's virtual clock through
//! `ImageCtx::compute`, converting flop counts with the machine model's
//! per-core rate, so simulated GFLOP/s reflect the modeled hardware while
//! the arithmetic itself really executes (enabling residual verification).

use crate::blas;
use crate::grid::{grid_dims, BlockCyclic};
use crate::matrix::{hpl_element, Matrix};
use caf_runtime::{Coarray, ImageCtx, Team};

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

/// Per-image result of a factorization.
pub struct HplOutcome {
    /// Wall/virtual nanoseconds between the start and end barriers.
    pub time_ns: u64,
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

/// What a swap of global rows `r1` and `r2` asks of an image on grid row
/// `prow`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SwapKind {
    /// Same row, or neither row lives on my grid row: nothing to do.
    Skip,
    /// Both rows live on my grid row: a local swap of these local rows.
    Local(usize, usize),
    /// My local row `my_lr` trades places with a row on grid row
    /// `partner_prow`.
    Exchange { my_lr: usize, partner_prow: usize },
}

fn swap_kind(grid: &BlockCyclic, prow: usize, r1: usize, r2: usize) -> SwapKind {
    let (p1, p2) = (grid.owner_row(r1), grid.owner_row(r2));
    if r1 == r2 || (prow != p1 && prow != p2) {
        SwapKind::Skip
    } else if p1 == p2 {
        SwapKind::Local(grid.local_row(r1), grid.local_row(r2))
    } else if prow == p1 {
        SwapKind::Exchange {
            my_lr: grid.local_row(r1),
            partner_prow: p2,
        }
    } else {
        SwapKind::Exchange {
            my_lr: grid.local_row(r2),
            partner_prow: p1,
        }
    }
}

/// Exchange (or locally swap) global rows `r1` and `r2` across my columns
/// in global column range `gc_lo..gc_hi`. Pairwise-synchronized through
/// `sync images` (rendezvous before the put, completion after), so no
/// global synchronization is needed — see the paper's point that teams let
/// disjoint communication proceed independently.
#[allow(clippy::too_many_arguments)]
fn swap_rows_distributed(
    img: &mut ImageCtx,
    grid: &BlockCyclic,
    local: &mut Matrix,
    prow: usize,
    pcol: usize,
    q_width: usize,
    r1: usize,
    r2: usize,
    gc_lo: usize,
    gc_hi: usize,
    swap_buf: &Coarray<f64>,
    row_buf: &mut [f64],
) {
    let lc_lo = grid.first_local_col_ge(pcol, gc_lo);
    let lc_hi = grid.first_local_col_ge(pcol, gc_hi);
    let (my_lr, partner_prow) = match swap_kind(grid, prow, r1, r2) {
        SwapKind::Skip => return,
        SwapKind::Local(a, b) => return local.swap_rows(a, b, lc_lo, lc_hi),
        SwapKind::Exchange {
            my_lr,
            partner_prow,
        } => (my_lr, partner_prow),
    };
    if lc_lo == lc_hi {
        return; // no columns of mine in range; partner skips likewise
    }
    let partner_image = partner_prow * q_width + pcol + 1; // 1-based initial

    let row = &mut row_buf[..lc_hi - lc_lo];
    for (slot, lj) in row.iter_mut().zip(lc_lo..lc_hi) {
        *slot = local.get(my_lr, lj);
    }
    img.sync_images(&[partner_image]); // rendezvous: partner's buffer free
    swap_buf.put(partner_image, 0, row);
    img.sync_images(&[partner_image]); // both payloads have landed
    swap_buf.get(img.this_image(), 0, row);
    for (&v, lj) in row.iter().zip(lc_lo..lc_hi) {
        local.set(my_lr, lj, v);
    }
}

/// Account `flops` of local computation to the virtual clock.
fn account(img: &ImageCtx, flops: u64) {
    let ns = img.fabric().cost().flops_to_ns(flops);
    img.compute(ns);
}

/// Every buffer a factorization needs besides the matrix, sized once for
/// the largest block step and allocated before the clock starts, so the
/// timed loop never touches the allocator.
struct Workspace {
    /// Pivot rows chosen in the current panel.
    pivots_k: Vec<u64>,
    /// The pivot row's segment right of the diagonal, within the panel.
    rowseg: Vec<f64>,
    /// One row's worth of my columns, out and back in a distributed swap.
    row_buf: Vec<f64>,
    /// Local swaps of step (d) waiting to be applied in one pass.
    swaps: Vec<(usize, usize)>,
    /// The panel's active rows × `nb`, as broadcast along the row team.
    slab: Vec<f64>,
    /// `nb` × my trailing columns, as broadcast along the column team.
    u12: Vec<f64>,
}

impl Workspace {
    fn new(grid: &BlockCyclic, prow: usize, pcol: usize) -> Self {
        let (lr, lc) = (grid.local_rows(prow), grid.local_cols(pcol));
        Workspace {
            pivots_k: vec![0; grid.nb],
            rowseg: vec![0.0; grid.nb],
            row_buf: vec![0.0; lc],
            swaps: Vec::with_capacity(grid.nb),
            slab: vec![0.0; lr * grid.nb],
            u12: vec![0.0; grid.nb * lc],
        }
    }
}

/// Run one distributed factorization. Collective over all images of the
/// run; every image receives its own [`HplOutcome`].
///
/// # Panics
/// Panics if the matrix turns out numerically singular (never the case for
/// the built-in generator at sensible sizes).
pub fn factorize(img: &mut ImageCtx, cfg: &HplConfig) -> HplOutcome {
    let n_images = img.num_images();
    let (p, q) = grid_dims(n_images);
    let rank0 = img.this_image() - 1;
    let (prow, pcol) = (rank0 / q, rank0 % q);
    let grid = BlockCyclic::new(cfg.n, cfg.nb, p, q);

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
    let ld = local.ld();

    // Row team = my grid row (team rank == pcol); column team = my grid
    // column (team rank == prow). Both formed from the initial team.
    let mut row_team: Team = img.form_team(prow as i64);
    let mut col_team: Team = img.form_team(pcol as i64);
    debug_assert_eq!(row_team.this_image() - 1, pcol);
    debug_assert_eq!(col_team.this_image() - 1, prow);

    // Pivot-row exchange buffer (initial-team coarray, one row slice).
    let max_lc = grid.local_cols(0).max(1);
    let swap_buf = img.coarray::<f64>(max_lc);

    let mut pivots = vec![0usize; cfg.n];
    let mut ws = Workspace::new(&grid, prow, pcol);
    img.sync_all();
    let t0 = img.now_ns();

    let nblocks = cfg.n.div_ceil(cfg.nb);
    for k in 0..nblocks {
        let gcol0 = k * cfg.nb;
        let nb_k = cfg.nb.min(cfg.n - gcol0);
        let q_k = grid.owner_col(gcol0);
        let p_k = grid.owner_row(gcol0);
        let lj0 = grid.local_col(gcol0); // valid only on pcol == q_k

        // -------- (a) panel factorization, on grid column q_k ----------
        // Column at a time: every column costs the column team one MAXLOC
        // reduction and one row broadcast, and that sequence is the
        // communication skeleton the model is calibrated on.
        let pivots_k = &mut ws.pivots_k[..nb_k];
        if pcol == q_k {
            for (j, pivot_slot) in pivots_k.iter_mut().enumerate() {
                let gdiag = gcol0 + j;
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
                // MAXLOC over the column team (smaller row wins ties).
                let mut m = [cand];
                col_team.comm_mut().co_reduce_with(&mut m, |a, b| {
                    if a.0 > b.0 || (a.0 == b.0 && a.1 <= b.1) {
                        a
                    } else {
                        b
                    }
                });
                assert!(
                    m[0].0 > 0.0,
                    "HPL: matrix numerically singular at global column {gdiag}"
                );
                let piv = m[0].1 as usize;
                *pivot_slot = piv as u64;
                // Swap within the panel columns only (deferred elsewhere).
                swap_rows_distributed(
                    img,
                    &grid,
                    &mut local,
                    prow,
                    pcol,
                    q,
                    gdiag,
                    piv,
                    gcol0,
                    gcol0 + nb_k,
                    &swap_buf,
                    &mut ws.row_buf,
                );
                // Broadcast the (post-swap) pivot row segment to the team.
                let owner = grid.owner_row(gdiag);
                let rowseg = &mut ws.rowseg[..nb_k - j];
                if prow == owner {
                    let plr = grid.local_row(gdiag);
                    for (slot, col) in rowseg.iter_mut().zip(lj..lj0 + nb_k) {
                        *slot = local.get(plr, col);
                    }
                }
                col_team.comm_mut().co_broadcast(rowseg, owner);
                let pivot_val = rowseg[0];
                // Scale my subdiagonal column and rank-1 update the panel.
                let li1 = grid.first_local_row_ge(prow, gdiag + 1);
                blas::dscal(1.0 / pivot_val, &mut local.col_mut(lj)[li1..lr]);
                if li1 < lr && j + 1 < nb_k {
                    let m_rows = lr - li1;
                    let n_cols = nb_k - j - 1;
                    // x = L column (li1.., lj), y = rowseg[1..].
                    let (left, right) = local.as_mut_slice().split_at_mut((lj + 1) * ld);
                    let x = &left[lj * ld + li1..lj * ld + lr];
                    blas::dger_minus(m_rows, n_cols, x, &rowseg[1..], &mut right[li1..], ld);
                    account(img, blas::dgemm_flops(m_rows, n_cols, 1) + m_rows as u64);
                }
            }
        }

        // -------- (b) pivots travel along row teams --------------------
        row_team.comm_mut().co_broadcast(pivots_k, q_k);
        for (slot, &pv) in pivots[gcol0..].iter_mut().zip(pivots_k.iter()) {
            *slot = pv as usize;
        }

        // -------- (c) panel L slab travels along row teams -------------
        let act0 = grid.first_local_row_ge(prow, gcol0);
        let slab_rows = lr - act0;
        let slab = &mut ws.slab[..slab_rows * nb_k];
        if slab_rows > 0 {
            if pcol == q_k {
                for (jj, dst) in slab.chunks_exact_mut(slab_rows).enumerate() {
                    dst.copy_from_slice(&local.col(lj0 + jj)[act0..lr]);
                }
            }
            row_team.comm_mut().co_broadcast(slab, q_k);
        }

        // -------- (d) apply row interchanges outside the panel ---------
        // Swaps whose two rows are both mine (all of them when p == 1)
        // queue up and are applied dlaswp-style, one pass per column; a
        // swap that needs the partner grid row flushes the queue first,
        // so every element sees the interchanges in pivot order.
        let lc_left = grid.first_local_col_ge(pcol, gcol0);
        let lt_c0 = grid.first_local_col_ge(pcol, gcol0 + nb_k);
        let apply_queued = |local: &mut Matrix, queued: &mut Vec<(usize, usize)>| {
            local.swap_rows_batched(queued, 0, lc_left);
            local.swap_rows_batched(queued, lt_c0, lc);
            queued.clear();
        };
        for (j, &pv) in pivots_k.iter().enumerate() {
            let s = gcol0 + j;
            let piv = pv as usize;
            match swap_kind(&grid, prow, s, piv) {
                SwapKind::Skip => {}
                SwapKind::Local(a, b) => ws.swaps.push((a, b)),
                SwapKind::Exchange { .. } => {
                    apply_queued(&mut local, &mut ws.swaps);
                    for (gc_lo, gc_hi) in [(0, gcol0), (gcol0 + nb_k, cfg.n)] {
                        swap_rows_distributed(
                            img,
                            &grid,
                            &mut local,
                            prow,
                            pcol,
                            q,
                            s,
                            piv,
                            gc_lo,
                            gc_hi,
                            &swap_buf,
                            &mut ws.row_buf,
                        );
                    }
                }
            }
        }
        apply_queued(&mut local, &mut ws.swaps);

        // -------- (e) U12 = L11⁻¹ · A(K, trailing) on grid row p_k ------
        // Solved in the contiguous broadcast buffer (the block row of the
        // local matrix is `nb` doubles every `ld`), then written back.
        let tcols = lc - lt_c0;
        let u12 = &mut ws.u12[..nb_k * tcols];
        if tcols > 0 {
            if prow == p_k {
                let li_k0 = grid.local_row(gcol0);
                for (jj, dst) in u12.chunks_exact_mut(nb_k).enumerate() {
                    dst.copy_from_slice(&local.col(lt_c0 + jj)[li_k0..li_k0 + nb_k]);
                }
                // L11 (unit diagonal implied) sits in the slab at my rows
                // of block K.
                let l11 = &slab[li_k0 - act0..];
                blas::dtrsm_lower_unit(nb_k, tcols, l11, slab_rows, u12, nb_k);
                account(img, blas::dtrsm_flops(nb_k, tcols));
                for (jj, src) in u12.chunks_exact(nb_k).enumerate() {
                    local.col_mut(lt_c0 + jj)[li_k0..li_k0 + nb_k].copy_from_slice(src);
                }
            }

            // -------- (f) U12 travels along column teams ----------------
            col_team.comm_mut().co_broadcast(u12, p_k);
        }

        // -------- (g) trailing update: A22 -= L21 · U12 -----------------
        let lt_r0 = grid.first_local_row_ge(prow, gcol0 + nb_k);
        let trows = lr - lt_r0;
        if trows > 0 && tcols > 0 {
            let a = &slab[lt_r0 - act0..];
            let c = &mut local.as_mut_slice()[lt_c0 * ld + lt_r0..];
            blas::dgemm_minus(trows, tcols, nb_k, a, slab_rows, u12, nb_k, c, ld);
            account(img, blas::dgemm_flops(trows, tcols, nb_k));
        }
    }

    img.sync_all();
    let time_ns = img.now_ns() - t0;

    HplOutcome {
        time_ns,
        pivots,
        local,
        grid,
        prow,
        pcol,
    }
}
