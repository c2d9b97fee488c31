//! Symmetric team resources under uneven splits: every member of a team
//! addresses a co-member's coarray, event block, scratch and gather region
//! by the one id the team agreed on, whatever sibling teams allocated
//! before. Random SPMD scripts split the team (singletons and siblings of
//! unequal size included), nest `change team` three deep, allocate coarrays
//! and event blocks of random sizes inside the sub-teams, grow scratch and
//! gather regions with collectives, and allocate again in the parent after
//! `end team`. After every allocation each member writes into every other
//! member's new resource and reads it back — an id that differs between
//! two members lands the write in the wrong segment or flag, or in none.

use caf::fabric::{ArcFabric, FlagId, SegmentId, SimConfig, SimFabric};
use caf::hpl::{factorize, HplConfig};
use caf::runtime::{run_on_fabric, CollectiveConfig, ImageCtx};
use caf::topology::{presets, ImageMap, Placement, ProcId};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64: the members of a team draw one sequence from one seed, so
/// they run the same script.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What image `image` (1-based, current team) writes: its initial-team
/// index, so a write that reaches the wrong image is caught too.
fn mark(img: &ImageCtx, image: usize) -> u64 {
    img.image_index_in_initial(image) as u64 * 1_000 + 7
}

/// A coarray of `n + extra` elements: every member puts its mark into
/// element `me` of every member's, then reads its own back from each.
fn coarray_round(img: &mut ImageCtx, extra: usize) {
    let (n, me) = (img.num_images(), img.this_image());
    if extra == 0 {
        // A zero-length coarray still takes an id of its own.
        assert!(img.coarray::<u64>(0).is_empty());
    }
    let co = img.coarray::<u64>(n + extra);
    for j in 1..=n {
        co.put(j, me - 1, &[mark(img, me)]);
    }
    img.sync_all();
    let local = co.read_local();
    for j in 1..=n {
        assert_eq!(
            local[j - 1],
            mark(img, j),
            "image {me}: element {} of its coarray",
            j - 1
        );
        assert_eq!(
            co.get_elem(j, me - 1),
            mark(img, me),
            "image {me}: read back from {j}"
        );
    }
    img.sync_all();
}

/// An event block of `count`: every member posts once to every other
/// member, and each waits for exactly the posts it is owed.
fn events_round(img: &mut ImageCtx, count: usize) {
    let (n, me) = (img.num_images(), img.this_image());
    let mut ev = img.events(count);
    for j in (1..=n).filter(|&j| j != me) {
        ev.post(j, (me - 1) % count);
    }
    for idx in 0..count {
        let owed = (1..=n)
            .filter(|&j| j != me && (j - 1) % count == idx)
            .count() as u64;
        if owed > 0 {
            ev.wait(idx, owed);
        }
        assert_eq!(ev.query(idx), 0, "image {me}: a stray post on event {idx}");
    }
    img.sync_all();
}

/// A reduction and a broadcast of up to 2 600 elements: scratch grows,
/// past one pipeline chunk at the top.
fn scratch_round(img: &mut ImageCtx, draw: &mut Draw) {
    let (n, me) = (img.num_images(), img.this_image());
    let len = 1 + draw.below(2_600);
    let mut v = vec![mark(img, me); len];
    img.co_sum(&mut v);
    let sum: u64 = (1..=n).map(|j| mark(img, j)).sum();
    assert!(v.iter().all(|&x| x == sum), "image {me}: co_sum of {len}");
    let root = 1 + draw.below(n);
    let mut b = vec![if me == root { mark(img, root) } else { 0 }; len];
    img.co_broadcast(&mut b, root);
    assert!(
        b.iter().all(|&x| x == mark(img, root)),
        "image {me}: broadcast of {len}"
    );
}

/// A gather and an all-to-all of up to 600 elements each: the gather
/// region grows.
fn gather_round(img: &mut ImageCtx, draw: &mut Draw) {
    let (n, me) = (img.num_images(), img.this_image());
    let len = 1 + draw.below(600);
    let root = 1 + draw.below(n);
    if let Some(all) = img.co_gather(&vec![mark(img, me); len], root) {
        for j in 1..=n {
            assert!(all[(j - 1) * len..j * len]
                .iter()
                .all(|&x| x == mark(img, j)));
        }
    }
    let send: Vec<u64> = (1..=n).map(|j| mark(img, me) + j as u64).collect();
    let got = img.co_alltoall(&send, 1);
    for j in 1..=n {
        assert_eq!(
            got[j - 1],
            mark(img, j) + me as u64,
            "image {me}: all-to-all from {j}"
        );
    }
}

/// Split the current team by random colors, run a script in each part,
/// and allocate in this team again after `end team`.
fn split(img: &mut ImageCtx, draw: &mut Draw, depth: usize) {
    let n = img.num_images();
    let colors: Vec<usize> = {
        let k = 1 + draw.below(n);
        (0..n).map(|_| draw.below(k)).collect()
    };
    let base = draw.next();
    let color = colors[img.this_image() - 1];
    let team = img.form_team(color as i64);
    let mut sub = Draw(base ^ (color as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    img.change_team(team, |img| script(img, &mut sub, depth + 1));
    coarray_round(img, draw.below(8));
}

/// Three random steps on the current team; splits nest to depth 3.
fn script(img: &mut ImageCtx, draw: &mut Draw, depth: usize) {
    for _ in 0..3 {
        match draw.below(if depth < 3 { 5 } else { 4 }) {
            0 => coarray_round(img, draw.below(24)),
            1 => events_round(img, 1 + draw.below(4)),
            2 => scratch_round(img, draw),
            3 => gather_round(img, draw),
            _ => split(img, draw, depth),
        }
    }
}

/// `images` of 12 cores (3 nodes × 4) picked at random: nodes hold
/// uneven shares, and team ranks interleave them.
fn ragged(images: usize, seed: u64) -> ArcFabric {
    let mut draw = Draw(seed);
    let mut cores: Vec<usize> = (0..12).collect();
    for i in (1..cores.len()).rev() {
        cores.swap(i, draw.below(i + 1));
    }
    cores.truncate(images);
    let map = ImageMap::new(presets::mini(3, 4), images, &Placement::Custom(cores));
    SimFabric::new(map, SimConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn uneven_splits_keep_every_team_resource_symmetric(
        images in 5usize..10,
        seed in any::<u64>(),
    ) {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run_on_fabric(ragged(images, seed), CollectiveConfig::auto(), move |img| {
                script(img, &mut Draw(seed), 0);
            })
        }));
        prop_assert!(ran.is_ok(), "{}", caf::fabric::panic_message(&*ran.unwrap_err()));
    }
}

/// `hpl-fleet`'s shape — one image per node, a 1 × 2 grid — pads nothing:
/// after two factorizations both images' next ids are equal, and equal to
/// where the unpadded allocations of its five teams end (pinned: it moves
/// only with the size of a team's flag block or segments).
#[test]
fn two_one_by_two_factorizations_pad_nothing() {
    let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
    let sim: ArcFabric = SimFabric::new(map, SimConfig::default());
    run_on_fabric(sim.clone(), CollectiveConfig::two_level(), |img| {
        for seed in [1, 2] {
            factorize(
                img,
                &HplConfig {
                    n: 96,
                    nb: 16,
                    seed,
                },
            );
        }
    });
    let next = |i| {
        (
            sim.alloc_segment(ProcId(i), 0),
            sim.alloc_flags(ProcId(i), 0),
        )
    };
    assert_eq!(next(0), next(1));
    assert_eq!(next(0), (SegmentId(9), FlagId(151)));
}
