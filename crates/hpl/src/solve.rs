//! Distributed triangular solves: given the block-cyclic LU factors of
//! [`crate::lu::factorize`], solve `L·y = P·b` (forward) and `U·x = y`
//! (backward) — completing the HPL benchmark's `A·x = b`.
//!
//! Each image keeps a *partial contribution* vector for its local rows
//! (the part of `Σ L(i,j)·y_j` computable from its local columns). At each
//! block step the true residual for the pivot block row is assembled by a
//! **row-team `co_sum`**, the diagonal owner solves its `nb × nb` triangle
//! locally, and the block solution travels down its **column team** via
//! `co_broadcast` so the owning grid column can update its partials — the
//! same team-collective choreography HPL's update phase uses, now in its
//! solve phase.
//!
//! Verification is fully distributed: every image recomputes `A(i,:)·x`
//! for its own rows straight from the deterministic generator, and the
//! worst row error is combined with a `co_max`. No image ever materializes
//! the full matrix.

use crate::grid::grid_dims;
use crate::lu::{HplConfig, HplOutcome};
use crate::matrix::hpl_element;
use caf_runtime::ImageCtx;

/// The right-hand side used by the benchmark: one extra generated column.
#[inline]
pub fn rhs_element(cfg: &HplConfig, i: usize) -> f64 {
    hpl_element(cfg.seed, cfg.n, i, cfg.n)
}

/// Result of a distributed solve.
pub struct SolveOutcome {
    /// The full solution vector, replicated on every image.
    pub x: Vec<f64>,
    /// Nanoseconds between the solve's start and end barriers.
    pub time_ns: u64,
}

/// Solve `A·x = b` using the factors in `fact` (collective over all
/// images of the run that produced them).
#[allow(clippy::needless_range_loop)] // index loops mirror the BLAS math
pub fn solve(img: &mut ImageCtx, cfg: &HplConfig, fact: &HplOutcome) -> SolveOutcome {
    let n = cfg.n;
    let grid = fact.grid;
    debug_assert_eq!(grid_dims(img.num_images()), (grid.p, grid.q));
    let (prow, pcol) = (fact.prow, fact.pcol);
    let lr = grid.local_rows(prow);

    let mut row_team = img.form_team(prow as i64);
    let mut col_team = img.form_team(pcol as i64);

    img.sync_all();
    let t0 = img.now_ns();

    // P·b, restricted to rows (kept in full since pivots are global).
    let mut pb: Vec<f64> = (0..n).map(|i| rhs_element(cfg, i)).collect();
    for (s, &piv) in fact.pivots.iter().enumerate() {
        pb.swap(s, piv);
    }
    img.compute(img.fabric().cost().flops_to_ns(n as u64));

    let nblocks = n.div_ceil(cfg.nb);
    // Forward: L y = Pb. y blocks end up replicated via block broadcasts.
    let mut y = vec![0.0f64; n];
    let mut partial = vec![0.0f64; lr.max(1)]; // Σ L(i,j) y_j from my columns
    for k in 0..nblocks {
        let g0 = k * cfg.nb;
        let nb_k = cfg.nb.min(n - g0);
        let p_k = grid.owner_row(g0);
        let q_k = grid.owner_col(g0);
        let diag_owner = prow == p_k && pcol == q_k;

        // Assemble the block's residual on grid row p_k.
        let mut blk = vec![0.0f64; nb_k];
        if prow == p_k {
            for (t, slot) in blk.iter_mut().enumerate() {
                let li = grid.local_row(g0 + t);
                *slot = partial[li];
            }
            row_team.comm_mut().co_sum(&mut blk);
            for (t, slot) in blk.iter_mut().enumerate() {
                *slot = pb[g0 + t] - *slot;
            }
        }
        // Diagonal owner solves the unit-lower triangle.
        if diag_owner {
            let li0 = grid.local_row(g0);
            let lj0 = grid.local_col(g0);
            for j in 0..nb_k {
                let yj = blk[j];
                for i in j + 1..nb_k {
                    blk[i] -= fact.local.get(li0 + i, lj0 + j) * yj;
                }
            }
            img.compute(img.fabric().cost().flops_to_ns((nb_k * nb_k) as u64));
        }
        // The solved block travels down the owning grid column...
        if pcol == q_k {
            col_team.comm_mut().co_broadcast(&mut blk, p_k);
            // ...which updates its partials for the rows below.
            let lj0 = grid.local_col(g0);
            let li_from = grid.first_local_row_ge(prow, g0 + nb_k);
            for li in li_from..lr {
                let mut acc = 0.0;
                for (j, &yj) in blk.iter().enumerate() {
                    acc += fact.local.get(li, lj0 + j) * yj;
                }
                partial[li] += acc;
            }
            img.compute(
                img.fabric()
                    .cost()
                    .flops_to_ns(2 * ((lr - li_from) * nb_k) as u64),
            );
        }
        // ...and to everyone for the final assembly (roots differ per k, so
        // route through the initial team).
        img.co_broadcast(&mut blk, grid.image_of(p_k, q_k));
        y[g0..g0 + nb_k].copy_from_slice(&blk);
    }

    // Backward: U x = y (non-unit diagonal), blocks from last to first.
    let mut x = vec![0.0f64; n];
    let mut partial = vec![0.0f64; lr.max(1)]; // Σ U(i,j) x_j from my columns
    for k in (0..nblocks).rev() {
        let g0 = k * cfg.nb;
        let nb_k = cfg.nb.min(n - g0);
        let p_k = grid.owner_row(g0);
        let q_k = grid.owner_col(g0);
        let diag_owner = prow == p_k && pcol == q_k;

        let mut blk = vec![0.0f64; nb_k];
        if prow == p_k {
            for (t, slot) in blk.iter_mut().enumerate() {
                let li = grid.local_row(g0 + t);
                *slot = partial[li];
            }
            row_team.comm_mut().co_sum(&mut blk);
            for (t, slot) in blk.iter_mut().enumerate() {
                *slot = y[g0 + t] - *slot;
            }
        }
        if diag_owner {
            let li0 = grid.local_row(g0);
            let lj0 = grid.local_col(g0);
            for j in (0..nb_k).rev() {
                let d = fact.local.get(li0 + j, lj0 + j);
                assert!(d != 0.0, "singular U diagonal at {}", g0 + j);
                blk[j] /= d;
                let xj = blk[j];
                for i in 0..j {
                    blk[i] -= fact.local.get(li0 + i, lj0 + j) * xj;
                }
            }
            img.compute(img.fabric().cost().flops_to_ns((nb_k * nb_k) as u64));
        }
        if pcol == q_k {
            col_team.comm_mut().co_broadcast(&mut blk, p_k);
            // Update partials for the rows above this block.
            let lj0 = grid.local_col(g0);
            let li_end = grid.first_local_row_ge(prow, g0);
            for li in 0..li_end {
                let mut acc = 0.0;
                for (j, &xj) in blk.iter().enumerate() {
                    acc += fact.local.get(li, lj0 + j) * xj;
                }
                partial[li] += acc;
            }
            img.compute(img.fabric().cost().flops_to_ns(2 * (li_end * nb_k) as u64));
        }
        img.co_broadcast(&mut blk, grid.image_of(p_k, q_k));
        x[g0..g0 + nb_k].copy_from_slice(&blk);
    }

    img.sync_all();
    SolveOutcome {
        x,
        time_ns: img.now_ns() - t0,
    }
}

/// Distributed residual check `max_i |A(i,:)·x − b(i)| / (‖A‖∞ ‖x‖∞ n)`:
/// every image verifies a strided share of the rows from the generator and
/// the worst error is `co_max`-combined. Returns the scaled residual (same
/// value on every image).
pub fn verify_solve(img: &mut ImageCtx, cfg: &HplConfig, x: &[f64]) -> f64 {
    let n = cfg.n;
    assert_eq!(x.len(), n);
    let me0 = img.this_image() - 1;
    let stride = img.num_images();
    let mut worst = 0.0f64;
    let mut norm_a_rows = 0.0f64;
    let mut i = me0;
    while i < n {
        let mut acc = 0.0;
        let mut row_abs = 0.0;
        for (j, &xj) in x.iter().enumerate() {
            let a = hpl_element(cfg.seed, n, i, j);
            acc += a * xj;
            row_abs += a.abs();
        }
        worst = worst.max((acc - rhs_element(cfg, i)).abs());
        norm_a_rows = norm_a_rows.max(row_abs);
        i += stride;
    }
    img.compute(img.fabric().cost().flops_to_ns((2 * n * n / stride) as u64));
    let mut combined = vec![worst, norm_a_rows];
    img.co_max(&mut combined);
    let norm_x = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    combined[0] / (combined[1] * norm_x * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize;
    use caf_runtime::{run, CollectiveConfig, RunConfig};
    use caf_topology::presets;

    fn solve_and_verify(images: usize, nodes: usize, cores: usize, n: usize, nb: usize) {
        let rc = RunConfig::sim_packed(presets::mini(nodes, cores), images);
        let hpl = HplConfig { n, nb, seed: 77 };
        let out = run(rc, move |img| {
            let fact = factorize(img, &hpl);
            let sol = solve(img, &hpl, &fact);
            let residual = verify_solve(img, &hpl, &sol.x);
            (sol.time_ns, residual, sol.x)
        });
        // All images agree on x and the residual is tiny.
        for (t, r, x) in &out {
            assert!(*t > 0);
            assert!(*r < 1e-9, "residual {r} (n={n}, images={images})");
            assert_eq!(x, &out[0].2, "solution must be replicated identically");
        }
    }

    #[test]
    fn solve_single_image() {
        solve_and_verify(1, 1, 1, 24, 4);
    }

    #[test]
    fn solve_2x2_grid() {
        solve_and_verify(4, 2, 2, 32, 4);
    }

    #[test]
    fn solve_rectangular_grid_partial_blocks() {
        solve_and_verify(6, 2, 3, 38, 4);
    }

    #[test]
    fn solve_3x3_grid() {
        solve_and_verify(9, 3, 3, 45, 5);
    }

    #[test]
    fn solve_with_one_level_collectives() {
        let rc = RunConfig::sim_packed(presets::mini(2, 2), 4)
            .with_collectives(CollectiveConfig::one_level());
        let hpl = HplConfig {
            n: 32,
            nb: 4,
            seed: 3,
        };
        let out = run(rc, move |img| {
            let fact = factorize(img, &hpl);
            let sol = solve(img, &hpl, &fact);
            verify_solve(img, &hpl, &sol.x)
        });
        assert!(out.iter().all(|r| *r < 1e-9));
    }

    #[test]
    fn verify_rejects_wrong_solution() {
        let rc = RunConfig::sim_packed(presets::mini(1, 2), 2);
        let hpl = HplConfig {
            n: 16,
            nb: 4,
            seed: 3,
        };
        let out = run(rc, move |img| {
            let fact = factorize(img, &hpl);
            let mut sol = solve(img, &hpl, &fact);
            sol.x[3] += 0.25; // corrupt identically on every image
            verify_solve(img, &hpl, &sol.x)
        });
        assert!(out.iter().all(|r| *r > 1e-6), "corruption must be caught");
    }
}
