//! Ragged shapes pinned: N = 200 with nb = 20, 24, 40 and 48, so the last
//! block step is narrower than nb and nb is no multiple of 16 or of a
//! pivot lane (8). Each case runs on 1, 2, 3, 4 and 6 images (grids 1 × 1,
//! 1 × 2, 1 × 3, 2 × 2, 2 × 3), on SimFabric and on ThreadFabric, and must
//! give the pivots and the factored blocks the digests below, which were
//! computed on the commit before the panel was factored in inner blocks
//! (d9702b3). There is one column per local kernel — FMA and
//! mul-then-subtract round differently — and the portable column was taken
//! with the FMA kernels masked out of `Kernel::supported`, as
//! `same_answers.rs` took its own. The blocks are hashed in grid order.
//!
//! On a mismatch the test prints the digests as they now read.

use caf_hpl::{blas, factorize, HplConfig};
use caf_runtime::{run, RunConfig};
use caf_topology::presets;

const N: usize = 200;
const SEED: u64 = 2015;
/// FNV-1a over the pivot vector — the same on every grid and block size.
const PIVOTS: u64 = 0x270df2fef0048174;

/// `(images, nodes, cores per node, nb)`.
type Case = (usize, usize, usize, usize);

/// Digest of every grid position's `local` under the FMA kernels and under
/// the portable one.
#[rustfmt::skip]
const FACTORS: [(Case, u64, u64); 20] = [
    ((1, 1, 1, 20),   0x0e5bef687c973754, 0xc90ce33238b80c36),
    ((1, 1, 1, 24),   0x51730807b9a41618, 0xc90ce33238b80c36),
    ((1, 1, 1, 40),   0x8a594840dbc7b8c8, 0xc90ce33238b80c36),
    ((1, 1, 1, 48),   0xd6605b61545c49a7, 0xc90ce33238b80c36),
    ((2, 1, 2, 20),   0xba15b66867ef655c, 0x92505452a6f8429e),
    ((2, 1, 2, 24),   0xc28878cd7d84e34c, 0x7dda876d098d019e),
    ((2, 1, 2, 40),   0x7a8bc2b4a7eb8a84, 0xd9d47326a6be9c42),
    ((2, 1, 2, 48),   0x62a74c88d87e924b, 0x91e51a0242412f76),
    ((3, 1, 3, 20),   0x69a9db6301614750, 0x8c2e535c1458c7ca),
    ((3, 1, 3, 24),   0x04aa77738a355098, 0xace5eba3c968a35a),
    ((3, 1, 3, 40),   0xbaecb45e0686db24, 0xd0b02a6a9ba08e1e),
    ((3, 1, 3, 48),   0x69fea5c73a5e5c37, 0x67030946a65a523e),
    ((4, 2, 2, 20),   0x83a24ab905680eb0, 0xf6384b960a277262),
    ((4, 2, 2, 24),   0xbb13449ea3c6c380, 0x8df931384997de1e),
    ((4, 2, 2, 40),   0xc69b055a9d5556b8, 0x8c35df952ef29e06),
    ((4, 2, 2, 48),   0x901788230d059ad3, 0x08d138d3ea410012),
    ((6, 2, 3, 20),   0x3531d35fea08a334, 0x300c0c57d9aa0f7a),
    ((6, 2, 3, 24),   0x83567849372a27b4, 0xec6a9f6146bc473a),
    ((6, 2, 3, 40),   0xad6a8afbd2cfef98, 0x2ff7f12342312342),
    ((6, 2, 3, 48),   0x4f8cda2d3990f64f, 0xd395424e8c0a75ce),
];

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// (pivot digest, digest of every factored block in grid order).
fn digest(rc: RunConfig, nb: usize) -> (u64, u64) {
    let hpl = HplConfig {
        n: N,
        nb,
        seed: SEED,
    };
    let mut out = run(rc, move |img| {
        let o = factorize(img, &hpl);
        ((o.prow, o.pcol), o.pivots, o.local)
    });
    out.sort_by_key(|o| o.0);
    let (mut ph, mut lh) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    for &p in &out[0].1 {
        fnv(&mut ph, p as u64);
    }
    for (_, pivots, local) in &out {
        assert_eq!(pivots, &out[0].1, "pivot vectors differ between images");
        fnv(&mut lh, local.rows() as u64);
        fnv(&mut lh, local.cols() as u64);
        for v in local.as_slice() {
            fnv(&mut lh, v.to_bits());
        }
    }
    (ph, lh)
}

#[test]
fn ragged_shapes_keep_the_parent_commits_pivots_and_factors() {
    let fma = blas::kernel_name().starts_with("avx2+fma");
    let mut moved = String::new();
    for ((images, nodes, cores, nb), on_fma, portable) in FACTORS {
        let want = (PIVOTS, if fma { on_fma } else { portable });
        let machine = || presets::mini(nodes, cores);
        for (fabric, rc) in [
            ("sim", RunConfig::sim_packed(machine(), images)),
            ("threads", RunConfig::threads_packed(machine(), images)),
        ] {
            let got = digest(rc, nb);
            if got != want {
                moved += &format!(
                    "    {images} images, nb={nb}, {fabric}: (0x{:016x}, 0x{:016x})\n",
                    got.0, got.1
                );
            }
        }
    }
    assert!(
        moved.is_empty(),
        "(pivots, factors) digests moved on the {} kernel:\n{moved}",
        blas::kernel_name()
    );
}
