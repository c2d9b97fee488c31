//! The factorization's answers are pinned to what the commit *before* the
//! fused pivot step and the batched interchange produced: same pivots and
//! the same bits in every grid position's factored block, whatever carries
//! the messages and however the grid is laid out over the images. The
//! digests below were computed on that parent commit (a41ed76), once per
//! local kernel — FMA and mul-then-subtract round differently, so the
//! factors depend on the kernel the host dispatches (the portable column
//! was taken with the AVX2 kernel masked out). The blocks are hashed in
//! grid order, row by row, which is image order under a row-major layout.

use caf_fabric::SimConfig;
use caf_hpl::{blas, factorize, grid_dims, HplConfig, Layout};
use caf_runtime::{run, CollectiveConfig, FabricChoice, RunConfig};
use caf_topology::presets;

const N: usize = 256;
const SEED: u64 = 2015;
/// FNV-1a over the pivot vector — the same on every grid and block size.
const PIVOTS: u64 = 0x2036dede5873bd87;

/// `(images, nodes, cores per node, nb)`.
type Case = (usize, usize, usize, usize);

/// Digest of every grid position's `local` under the AVX2+FMA kernel and
/// under the portable one.
#[rustfmt::skip]
const FACTORS: [(Case, u64, u64); 12] = [
    ((1, 1, 1, 32),  0x9502e51b42f80633, 0x5a9372f4c7f56e96),
    ((1, 1, 1, 64),  0x3a7a6e312575364f, 0x5a9372f4c7f56e96),
    ((2, 1, 2, 32),  0x5ceb324be69bdd83, 0xcb248db55841fe02),
    ((2, 1, 2, 64),  0xcd48c0ff503cefdf, 0xfd0d100ae267269a),
    ((4, 2, 2, 32),  0x30524db4350e09fb, 0x4d109903950e35d6),
    ((4, 2, 2, 64),  0x124f1240934d591b, 0x7e8d679f8b035346),
    ((6, 2, 3, 32),  0x4bf42212f4c3a51f, 0xde567ad993b271be),
    ((6, 2, 3, 64),  0xbd2c94ad6b220a63, 0xcce5201616603a7a),
    ((9, 3, 3, 32),  0x03ab862387fd2cbb, 0x192eff553b4bd1e6),
    ((9, 3, 3, 64),  0xab84c21cae082a93, 0x8a17e0c2bc0586c2),
    ((16, 2, 8, 32), 0x278f436f0f617b53, 0x35c100d0fcc380b2),
    ((16, 2, 8, 64), 0xdca099fd479a3237, 0xa735bb49ed0617a6),
];

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// (pivot digest, digest of every factored block in grid order), and the
/// layout every image ran.
fn digest(rc: RunConfig, nb: usize) -> ((u64, u64), Layout) {
    let hpl = HplConfig {
        n: N,
        nb,
        seed: SEED,
    };
    let mut out = run(rc, move |img| {
        let o = factorize(img, &hpl);
        ((o.prow, o.pcol), o.grid.layout, o.pivots, o.local)
    });
    let layout = out[0].1;
    assert!(out.iter().all(|o| o.1 == layout), "layouts differ");
    out.sort_by_key(|o| o.0);
    let (mut ph, mut lh) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    for &p in &out[0].2 {
        fnv(&mut ph, p as u64);
    }
    for (_, _, pivots, local) in &out {
        assert_eq!(pivots, &out[0].2, "pivot vectors differ between images");
        fnv(&mut lh, local.rows() as u64);
        fnv(&mut lh, local.cols() as u64);
        for v in local.as_slice() {
            fnv(&mut lh, v.to_bits());
        }
    }
    ((ph, lh), layout)
}

#[test]
fn pivots_and_factors_are_the_parent_commits_on_six_grids() {
    let avx2 = blas::kernel_name().starts_with("avx2+fma");
    for ((images, nodes, cores, nb), fma, portable) in FACTORS {
        let want = (PIVOTS, if avx2 { fma } else { portable });
        // Where node-mates share memory, every multi-node case here has a
        // column team that row-major spreads over nodes and column-major
        // does not; over the NIC loopback the grid stays row-major.
        let shared = if nodes > 1 && grid_dims(images).0 > 1 {
            Layout::ColumnMajor
        } else {
            Layout::RowMajor
        };
        let loopback = SimConfig {
            overheads: presets::stacks::UHCAF_FLAT,
            ..SimConfig::default()
        };
        for collectives in [CollectiveConfig::one_level(), CollectiveConfig::two_level()] {
            let machine = || presets::mini(nodes, cores);
            for (fabric, rc, layout) in [
                ("sim", RunConfig::sim_packed(machine(), images), shared),
                (
                    "threads",
                    RunConfig::threads_packed(machine(), images),
                    shared,
                ),
                (
                    "sim over the NIC loopback",
                    RunConfig {
                        fabric: FabricChoice::Sim(loopback.clone()),
                        ..RunConfig::sim_packed(machine(), images)
                    },
                    Layout::RowMajor,
                ),
            ] {
                let got = digest(rc.with_collectives(collectives), nb);
                assert_eq!(
                    got,
                    (want, layout),
                    "{images} images, nb={nb}, {fabric}, {collectives:?}: \
                     ((pivots, factors) digest, layout)"
                );
            }
        }
    }
}
