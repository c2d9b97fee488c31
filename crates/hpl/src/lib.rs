//! # caf-hpl
//!
//! A High-Performance Linpack (HPL) port on `caf-rs` teams, mirroring the
//! paper's §V-B CAF port of HPL: the matrix lives in a 2-D block-cyclic
//! layout on a P×Q image grid, **row teams and column teams** carry the
//! panel and update traffic, and collective algorithm choice (1-level vs.
//! 2-level) is the experiment variable behind Figure 1.
//!
//! The factorization is right-looking LU with partial pivoting; local
//! kernels (`dgemm`, `dtrsm`, rank-1 updates) really execute (so residuals
//! can be verified) while their flop counts also advance the simulator's
//! virtual clock, making simulated GFLOP/s reflect the modeled machine.

#![warn(missing_docs)]
// `kernel` is the one module allowed `unsafe`: its SIMD micro-kernels.
#![deny(unsafe_code)]

pub mod blas;
pub mod grid;
pub mod harness;
mod kernel;
pub mod lu;
pub mod matrix;
pub mod solve;

pub use grid::{grid_dims, numroc, BlockCyclic, Layout};
pub use harness::residual_check;
pub use lu::{factorize, u12_blocks, HplConfig, HplOutcome, PhaseNs};
pub use matrix::{hpl_element, hpl_matrix, Matrix};
pub use solve::{solve, verify_solve, SolveOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use caf_runtime::{run, CollectiveConfig, RunConfig};
    use caf_topology::presets;

    fn check(
        images: usize,
        nodes: usize,
        cores: usize,
        n: usize,
        nb: usize,
        cfg: CollectiveConfig,
    ) {
        let rc = RunConfig::sim_packed(presets::mini(nodes, cores), images).with_collectives(cfg);
        let hpl = HplConfig { n, nb, seed: 42 };
        let out = run(rc, move |img| {
            let outcome = factorize(img, &hpl);
            let residual = residual_check(img, &hpl, &outcome);
            (outcome.time_ns, residual)
        });
        for (i, (t, residual)) in out.into_iter().enumerate() {
            assert!(t > 0, "image {} reported zero time", i + 1);
            if i == 0 {
                let r = residual.expect("image 1 verifies");
                assert!(r < 1e-10, "residual {r} too large (n={n}, images={images})");
            } else {
                assert!(residual.is_none());
            }
        }
    }

    #[test]
    fn single_image_lu() {
        check(1, 1, 1, 24, 4, CollectiveConfig::auto());
    }

    #[test]
    fn four_images_2x2_grid() {
        check(4, 2, 2, 32, 4, CollectiveConfig::auto());
    }

    #[test]
    fn four_images_one_level_collectives() {
        check(4, 2, 2, 32, 4, CollectiveConfig::one_level());
    }

    #[test]
    fn four_images_two_level_collectives() {
        check(4, 2, 2, 32, 4, CollectiveConfig::two_level());
    }

    #[test]
    fn six_images_rectangular_grid() {
        // 2x3 grid; N not divisible by NB exercises partial blocks.
        check(6, 2, 3, 38, 4, CollectiveConfig::auto());
    }

    #[test]
    fn eight_images_2x4_grid_larger_matrix() {
        check(8, 2, 4, 64, 8, CollectiveConfig::auto());
    }

    #[test]
    fn nine_images_3x3_grid() {
        check(9, 3, 3, 45, 5, CollectiveConfig::auto());
    }

    #[test]
    fn block_size_one() {
        check(4, 2, 2, 12, 1, CollectiveConfig::auto());
    }

    #[test]
    fn nb_larger_than_matrix_is_serial_panel() {
        check(4, 2, 2, 8, 16, CollectiveConfig::auto());
    }

    #[test]
    fn odd_block_size_fills_a_partial_pivot_lane() {
        // nb = 61 is seven lanes of 8 and one of 5, the last block (17)
        // two and one of 1; on a 2 × 3 grid every panel column is a
        // column-team reduction, and the pivots are the serial run's.
        let (n, nb) = (200, 61);
        check(6, 2, 3, n, nb, CollectiveConfig::auto());
        let pivots = |images, nodes, cores| {
            let rc = RunConfig::sim_packed(presets::mini(nodes, cores), images);
            let hpl = HplConfig { n, nb, seed: 42 };
            run(rc, move |img| factorize(img, &hpl).pivots).swap_remove(0)
        };
        assert_eq!(pivots(6, 2, 3), pivots(1, 1, 1));
    }

    #[test]
    fn gflops_accounting_sane() {
        let rc = RunConfig::sim_packed(presets::mini(2, 2), 4);
        let hpl = HplConfig {
            n: 32,
            nb: 4,
            seed: 1,
        };
        let out = run(rc, move |img| {
            let o = factorize(img, &hpl);
            (o.time_ns, o.gflops())
        });
        for (t, g) in out {
            assert!(t > 0);
            assert!(g > 0.0 && g < 1000.0, "gflops {g} out of plausible range");
        }
    }

    #[test]
    fn factorizing_twice_is_bit_identical() {
        // Same seed, same process, fresh runs: the kernels' summation
        // order depends on the shapes alone, so every bit must repeat.
        let hpl = HplConfig {
            n: 96,
            nb: 16,
            seed: 3,
        };
        let once = || {
            let rc = RunConfig::sim_packed(presets::mini(2, 2), 4);
            run(rc, move |img| {
                let o = factorize(img, &hpl);
                (o.pivots, o.local)
            })
        };
        let (first, second) = (once(), once());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.0, b.0, "pivots differ between two runs");
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.1), bits(&b.1), "factors differ between two runs");
        }
    }

    #[test]
    fn pivots_agree_across_images() {
        let rc = RunConfig::sim_packed(presets::mini(2, 2), 4);
        let hpl = HplConfig {
            n: 24,
            nb: 4,
            seed: 7,
        };
        let out = run(rc, move |img| factorize(img, &hpl).pivots);
        for p in &out[1..] {
            assert_eq!(p, &out[0], "pivot vectors must be identical everywhere");
        }
        // Pivots are row indices >= their step.
        for (s, &p) in out[0].iter().enumerate() {
            assert!(p >= s && p < 24);
        }
    }
}
