//! What the sweep runs: machine scenarios, the collective-algorithm
//! matrix, and the built-in SPMD conformance program.

use caf_collectives::{
    BarrierAlgo, BcastAlgo, CollectiveConfig, GatherAlgo, ReduceAlgo, SizePolicy,
};
use caf_runtime::ImageCtx;
use caf_topology::{presets, MachineModel, ProcId};

/// A machine + image-count cell of the sweep.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Short label used in reports.
    pub name: String,
    /// The simulated cluster.
    pub machine: MachineModel,
    /// Images launched (packed placement).
    pub images: usize,
}

impl Scenario {
    /// Small hierarchical box: 2 nodes × 1 socket × 4 cores, 8 images.
    pub fn mini() -> Self {
        Self {
            name: "mini-2x4".into(),
            machine: presets::mini(2, 4),
            images: 8,
        }
    }

    /// The paper's cluster preset (2 sockets × 4 cores per node), 16
    /// images packed onto 2 nodes — exercises the socket level too.
    pub fn whale() -> Self {
        Self {
            name: "whale-16".into(),
            machine: presets::whale(),
            images: 16,
        }
    }

    /// A deliberately tiny cell for unit tests of the harness itself.
    pub fn tiny() -> Self {
        Self {
            name: "tiny-2x2".into(),
            machine: presets::mini(2, 2),
            images: 4,
        }
    }

    /// Resolve a scenario by its report label — how a fleet member
    /// reconstructs the parent's scenario from its argv.
    pub fn by_name(name: &str) -> Option<Self> {
        [Self::mini(), Self::whale(), Self::tiny()]
            .into_iter()
            .find(|s| s.name == name)
    }
}

/// Resolve an algorithm-matrix cell by its label (the same lookup, for the
/// collective config).
pub fn algo_by_name(name: &str) -> Option<CollectiveConfig> {
    algo_matrix()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, a)| a)
}

/// The collective-algorithm matrix: presets plus every per-dimension
/// algorithm forced individually (including the pipelined and
/// Rabenseifner large-message paths) on top of the two-level base.
pub fn algo_matrix() -> Vec<(String, CollectiveConfig)> {
    let mut m: Vec<(String, CollectiveConfig)> = vec![
        ("auto".into(), CollectiveConfig::auto()),
        ("one_level".into(), CollectiveConfig::one_level()),
        ("two_level".into(), CollectiveConfig::two_level()),
    ];
    for b in [
        BarrierAlgo::CentralCounter,
        BarrierAlgo::Dissemination,
        BarrierAlgo::BinomialTree,
        BarrierAlgo::Tdlb,
        BarrierAlgo::TdlbMultilevel,
    ] {
        m.push((
            format!("barrier={b:?}"),
            CollectiveConfig {
                barrier: b,
                ..CollectiveConfig::two_level()
            },
        ));
    }
    for r in [
        ReduceAlgo::FlatRecursiveDoubling,
        ReduceAlgo::FlatBinomial,
        ReduceAlgo::TwoLevel,
        ReduceAlgo::TwoLevelPipelined,
        ReduceAlgo::Rabenseifner,
    ] {
        m.push((
            format!("reduce={r:?}"),
            CollectiveConfig {
                reduce: r,
                ..CollectiveConfig::two_level()
            },
        ));
    }
    for b in [
        BcastAlgo::FlatLinear,
        BcastAlgo::FlatBinomial,
        BcastAlgo::TwoLevel,
        BcastAlgo::TwoLevelPipelined,
    ] {
        m.push((
            format!("bcast={b:?}"),
            CollectiveConfig {
                bcast: b,
                ..CollectiveConfig::two_level()
            },
        ));
    }
    for g in [GatherAlgo::FlatLinear, GatherAlgo::TwoLevel] {
        m.push((
            format!("gather={g:?}"),
            CollectiveConfig {
                gather: g,
                ..CollectiveConfig::two_level()
            },
        ));
    }
    m
}

/// FNV-1a accumulation of one `u64`.
fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Elements in the "large" buffers: 2 500 × 8 B = 20 000 B, above the
/// default 16 KiB pipeline chunk, so pipelined/Rabenseifner paths run
/// multi-chunk.
const BIG: usize = 2_500;

/// The built-in SPMD conformance program: point-to-point coarray traffic
/// plus every collective family, small and multi-chunk payloads, subteam
/// phases (one uneven, whose siblings allocate differently; one per node),
/// split-phase broadcasts, and ring broadcasts among them. Returns a
/// per-image digest of everything observed; any schedule- or
/// fabric-dependent divergence changes the digest. Integer arithmetic only
/// — u64 sums are exactly associative, so the digest is fabric- and
/// schedule-independent for a correct runtime.
pub fn conformance(img: &mut ImageCtx) -> u64 {
    let me = img.this_image();
    let n = img.num_images();
    let mut h = 0xcbf2_9ce4_8422_2325u64;

    // 1. Neighbor-ring coarray put, then read back what our left neighbor
    //    wrote into us.
    let co = img.coarray::<u64>(2);
    let right = me % n + 1;
    co.put(right, 0, &[me as u64 * 17 + 3, me as u64]);
    img.sync_all();
    for v in co.read_local() {
        fnv(&mut h, v);
    }
    img.sync_all(); // reads done before anyone reuses the segment

    // 2. Small allreduce (latency path).
    let mut small = [me as u64, (me * me) as u64, 7];
    img.co_sum(&mut small);
    for v in small {
        fnv(&mut h, v);
    }

    // 3. Multi-chunk allreduce (pipelined / Rabenseifner paths).
    let mut big: Vec<u64> = (0..BIG as u64).map(|i| i.wrapping_mul(me as u64)).collect();
    img.co_sum(&mut big);
    for i in [0, BIG / 2, BIG - 1] {
        fnv(&mut h, big[i]);
    }

    // 4. Max reduction.
    let mut mx = [(me as u64 * 31) % 13];
    img.co_max(&mut mx);
    fnv(&mut h, mx[0]);

    // 5. Small broadcast from the last image.
    let mut b = [me as u64; 5];
    img.co_broadcast(&mut b, n);
    for v in b {
        fnv(&mut h, v);
    }

    // 6. Multi-chunk broadcast from image 1.
    let mut bb: Vec<u64> = (0..BIG as u64).map(|i| i ^ (me as u64) << 32).collect();
    img.co_broadcast(&mut bb, 1);
    for i in [0, BIG / 2, BIG - 1] {
        fnv(&mut h, bb[i]);
    }

    // 7. Gather at image 1.
    if let Some(all) = img.co_gather(&[me as u64 * 3 + 1], 1) {
        for v in all {
            fnv(&mut h, v);
        }
    }

    // 8. All-to-all.
    let send: Vec<u64> = (1..=n as u64).map(|j| me as u64 * 100 + j).collect();
    for v in img.co_alltoall(&send, 1) {
        fnv(&mut h, v);
    }

    // 9. Even/odd subteams, reduce within each.
    let team = img.form_team(if me.is_multiple_of(2) { 1 } else { 2 });
    let (_team, sub) = img.change_team(team, |img| {
        let mut s = [img.this_image() as u64 * 5 + 1];
        img.co_sum(&mut s);
        s[0]
    });
    fnv(&mut h, sub);

    // 10. Split-phase broadcasts from rotating roots, a reduction between
    //     each begin and its finish; the even rounds stay in flight until
    //     the next round finishes both.
    for k in 0..4u64 {
        let root = (3 * k as usize) % n + 1;
        let mut b = [me as u64 * 11 + k; 3];
        img.co_broadcast_begin(&mut b, root);
        let mut s = [b[0] ^ me as u64];
        img.co_sum(&mut s);
        if k % 2 == 1 {
            img.co_broadcast_finish();
        }
        for v in b.into_iter().chain(s) {
            fnv(&mut h, v);
        }
    }

    // 11. Ring broadcasts from roots advancing in image order, each between
    //     a split-phase tree broadcast's begin and a reduction on the same
    //     team; every other round finishes the tree broadcasts. Beside each,
    //     a team of everyone cut to 16-byte chunks rings three chunks and a
    //     ragged tail: a ring of three or more streams them.
    let mut chunked = img.form_team(1);
    let policy = SizePolicy {
        chunk_bytes: 16,
        ..chunked.comm().size_policy()
    };
    chunked.comm_mut().set_size_policy(policy);
    for k in 0..2 * n {
        let root = k % n + 1;
        let mut t = [me as u64 * 7 + k as u64; 2];
        img.co_broadcast_begin(&mut t, n - k % n);
        let mut r = [me as u64 * 13 + k as u64; 3];
        img.co_broadcast_ring(&mut r, root);
        let mut c = [me as u64 * 17 + k as u64; 7];
        chunked.comm_mut().co_broadcast_ring(&mut c, k % n);
        let mut s = [r[0] ^ t[1] ^ c[6] ^ me as u64];
        img.co_sum(&mut s);
        if k % 2 == 1 {
            img.co_broadcast_finish();
        }
        for v in r.into_iter().chain(t).chain(c).chain(s) {
            fnv(&mut h, v);
        }
    }

    // 12. An uneven split, a third against the rest: the siblings allocate
    //     different numbers of coarrays and event blocks, and the smaller
    //     grows its scratch with a multi-chunk broadcast. Back in the initial
    //     team, a new coarray must line up on every image.
    let third = me <= n.div_ceil(3);
    let team = img.form_team(1 + !third as i64);
    let (_team, sub) = img.change_team(team, |img| {
        let (m, k) = (img.num_images(), img.this_image());
        let mut bb = vec![k as u64; if third { BIG } else { 1 }];
        for r in 0..if third { 1 } else { 3 } {
            let co = img.coarray::<u64>(1 + r);
            co.put(k % m + 1, r, &[k as u64 * 13 + r as u64]);
            img.sync_all();
            bb[0] += co.read_local()[r];
            img.sync_all();
        }
        let mut ev = img.events(if third { 2 } else { 1 });
        ev.post(k % m + 1, 0);
        ev.wait(0, 1);
        img.co_broadcast(&mut bb, m);
        bb[0] ^ bb[bb.len() - 1] << 1
    });
    fnv(&mut h, sub);
    let ring = img.coarray::<u64>(1);
    ring.put(right, 0, &[me as u64 * 29 + 5]);
    img.sync_all();
    fnv(&mut h, ring.read_local()[0] ^ ring.get_elem(right, 0) << 1);

    // 13. One subteam per node, a sum and a MAXLOC inside each: one-node
    //     teams of every size the packed placement gives (4 on mini-2x4,
    //     8 on whale-16), where the reduction has its one-node rule.
    let node = img.fabric().image_map().node_of(ProcId(me - 1)).index();
    let team = img.form_team(node as i64 + 1);
    let (_team, sub) = img.change_team(team, |img| {
        let k = img.this_image() as u64;
        let mut s = [k * 3 + 1, me as u64];
        img.co_sum(&mut s);
        let mut m = [((k * 7 + 3) % 5, me as u64)];
        img.co_reduce_with(&mut m, |a, b| {
            if a.0 > b.0 || (a.0 == b.0 && a.1 <= b.1) {
                a
            } else {
                b
            }
        });
        s[0] ^ s[1] << 16 ^ m[0].0 << 32 ^ m[0].1 << 48
    });
    fnv(&mut h, sub);

    img.sync_all();
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_dimension() {
        let m = algo_matrix();
        assert!(m.len() >= 16, "got {} configs", m.len());
        let names: Vec<&str> = m.iter().map(|(n, _)| n.as_str()).collect();
        for needle in [
            "reduce=Rabenseifner",
            "reduce=TwoLevelPipelined",
            "bcast=TwoLevelPipelined",
            "barrier=Dissemination",
        ] {
            assert!(names.contains(&needle), "matrix lacks {needle}");
        }
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len(), "duplicate matrix entries");
    }

    #[test]
    fn conformance_digest_is_reproducible() {
        let run = || {
            caf_runtime::run(
                caf_runtime::RunConfig::sim_packed(presets::mini(2, 2), 4),
                conformance,
            )
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.len(), 4);
    }
}
