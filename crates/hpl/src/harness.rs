//! Verification and reporting for the HPL port: gather the distributed
//! factors, rebuild `L·U`, and compare against the pivoted original matrix
//! (which is regenerated from the seed — no image ever stores it).

use crate::lu::{HplConfig, HplOutcome};
use crate::matrix::{hpl_matrix, Matrix};
use caf_runtime::ImageCtx;

/// Collectively gather the factored matrix and, **on image 1 only**,
/// compute the scaled residual
/// `‖L·U − P·A‖_max / (‖A‖_max · N)`.
///
/// Verification-scale only (image 1 materializes the full matrix); the
/// benchmark harnesses skip it at large N.
pub fn residual_check(img: &mut ImageCtx, cfg: &HplConfig, out: &HplOutcome) -> Option<f64> {
    let grid = out.grid;
    let max_lr = grid.local_rows(0).max(1);
    let max_lc = grid.local_cols(0).max(1);
    let gather = img.coarray::<f64>(max_lr * max_lc);

    // Publish my local factor block.
    let lr = grid.local_rows(out.prow);
    let lc = grid.local_cols(out.pcol);
    let mut flat = vec![0.0f64; max_lr * max_lc];
    for lj in 0..lc {
        for li in 0..lr {
            flat[li + lj * max_lr] = out.local.get(li, lj);
        }
    }
    gather.put(img.this_image(), 0, &flat);
    img.sync_all();

    let result = if img.this_image() == 1 {
        Some(assemble_and_check(img, cfg, out, &gather, max_lr))
    } else {
        None
    };
    img.sync_all();
    result
}

fn assemble_and_check(
    _img: &ImageCtx,
    cfg: &HplConfig,
    out: &HplOutcome,
    gather: &caf_runtime::Coarray<f64>,
    max_lr: usize,
) -> f64 {
    let grid = out.grid;
    let n = cfg.n;
    // Reassemble the factored matrix F (L below diag, U on/above).
    let mut f = Matrix::zeros(n, n);
    let mut buf = vec![0.0f64; gather.len()];
    for prow in 0..grid.p {
        for pcol in 0..grid.q {
            gather.get(grid.image_of(prow, pcol), 0, &mut buf);
            for lj in 0..grid.local_cols(pcol) {
                let gj = grid.global_col(pcol, lj);
                for li in 0..grid.local_rows(prow) {
                    let gi = grid.global_row(prow, li);
                    f.set(gi, gj, buf[li + lj * max_lr]);
                }
            }
        }
    }
    residual_from_factors(&f, &out.pivots, cfg.seed, n)
}

/// `‖L·U − P·A‖_max / (‖A‖_max · N)` given the packed factors `f`, the
/// pivot vector, and the generator parameters.
pub fn residual_from_factors(f: &Matrix, pivots: &[usize], seed: u64, n: usize) -> f64 {
    // P·A: regenerate A and apply the recorded interchanges in order.
    let mut pa = hpl_matrix(seed, n);
    let norm_a = pa.norm_max();
    for (s, &piv) in pivots.iter().enumerate() {
        pa.swap_rows(s, piv, 0, n);
    }
    // L·U from the packed factors.
    let mut worst: f64 = 0.0;
    for j in 0..n {
        for i in 0..n {
            let mut s = 0.0;
            let kmax = i.min(j + 1); // L(i,k) nonzero for k<i (unit diag at k=i)
            for k in 0..kmax {
                s += f.get(i, k) * f.get(k, j);
            }
            if i <= j {
                s += f.get(i, j); // unit diagonal of L times U(i,j)
            }
            worst = worst.max((s - pa.get(i, j)).abs());
        }
    }
    worst / (norm_a * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;

    /// Serial reference LU with partial pivoting, packed like LAPACK.
    fn serial_lu(seed: u64, n: usize) -> (Matrix, Vec<usize>) {
        let mut a = hpl_matrix(seed, n);
        let mut pivots = vec![0usize; n];
        #[allow(clippy::needless_range_loop)]
        for s in 0..n {
            // Pivot search in column s, rows s..n.
            let col: Vec<f64> = (s..n).map(|i| a.get(i, s)).collect();
            let piv = s + blas::idamax(&col).expect("nonempty");
            pivots[s] = piv;
            a.swap_rows(s, piv, 0, n);
            let d = a.get(s, s);
            assert!(d != 0.0, "singular test matrix");
            for i in s + 1..n {
                let l = a.get(i, s) / d;
                a.set(i, s, l);
                for j in s + 1..n {
                    let v = a.get(i, j) - l * a.get(s, j);
                    a.set(i, j, v);
                }
            }
        }
        (a, pivots)
    }

    #[test]
    fn serial_lu_residual_is_tiny() {
        for n in [1usize, 2, 5, 16, 33] {
            let (f, pivots) = serial_lu(11, n);
            let r = residual_from_factors(&f, &pivots, 11, n);
            assert!(r < 1e-12, "n={n}: residual {r}");
        }
    }

    #[test]
    fn factorize_picks_the_reference_pivots_on_every_grid() {
        // 1x1 and 1x2 apply every interchange through the batched local
        // path; 2x2 and 2x3 mix it with distributed exchanges.
        use caf_runtime::{run, RunConfig};
        use caf_topology::presets;
        let (n, seed) = (256, 21);
        let (_, want) = serial_lu(seed, n);
        for (images, nodes, cores) in [(1, 1, 1), (2, 1, 2), (4, 2, 2), (6, 2, 3)] {
            let rc = RunConfig::sim_packed(presets::mini(nodes, cores), images);
            let hpl = HplConfig { n, nb: 32, seed };
            let out = run(rc, move |img| {
                let o = crate::lu::factorize(img, &hpl);
                let r = residual_check(img, &hpl, &o);
                (o.pivots, r)
            });
            for (pivots, _) in &out {
                assert_eq!(
                    pivots, &want,
                    "{images} images: pivots differ from serial LU"
                );
            }
            let r = out[0].1.expect("image 1 verifies");
            assert!(r < 1e-10, "{images} images: residual {r}");
        }
    }

    #[test]
    fn residual_detects_corruption() {
        let n = 16;
        let (mut f, pivots) = serial_lu(11, n);
        f.set(3, 7, f.get(3, 7) + 0.5);
        let r = residual_from_factors(&f, &pivots, 11, n);
        assert!(r > 1e-4, "corruption must show: {r}");
    }
}
