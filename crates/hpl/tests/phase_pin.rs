//! Virtual-time pin for HPL's block loop: a whale 16(2) factorization at
//! N = 256 (EXP-F1's quick 16(2) cell, UHCAF 2-level) on SimFabric, each
//! image's `PhaseNs` total and `u12_bcast` compared with the values pinned
//! below. The simulator is deterministic, so any change to the order of a
//! step's messages or computation moves at least one of them.
//!
//! [`PARENT`] holds the same figures as the commit before the U12 pipeline
//! changed read them: receivers began block c + 1 before the `dgemm` of
//! block c, every block was `nb` wide and the panel's ring stored and
//! forwarded the whole panel. The pin must stay below them on every image.
//!
//! On a mismatch the test prints the table as it stands now, in the syntax
//! of [`PIN`]; paste it only when the change of op order is intended.

use caf_fabric::{SimConfig, SimFabric};
use caf_hpl::{factorize, HplConfig, PhaseNs};
use caf_runtime::{run_on_fabric, CollectiveConfig};
use caf_topology::{presets, ImageMap, Placement};

const IMAGES: usize = 16;

/// `(total, u12_bcast)` per image, in image order.
type Table = [(u64, u64); IMAGES];

/// Every image's grid position and phase split, in image order.
fn phases() -> Vec<((usize, usize), PhaseNs)> {
    let map = ImageMap::new(presets::whale(), IMAGES, &Placement::Block { per_node: 8 });
    let config = SimConfig {
        cost: presets::whale_cost(),
        overheads: presets::stacks::UHCAF,
        ..SimConfig::default()
    };
    let hpl = HplConfig {
        n: 256,
        nb: 64,
        seed: 2015,
    };
    run_on_fabric(
        SimFabric::new(map, config),
        CollectiveConfig::two_level(),
        move |img| {
            let out = factorize(img, &hpl);
            ((out.prow, out.pcol), out.phase_ns)
        },
    )
}

fn table() -> Table {
    let mut t = [(0, 0); IMAGES];
    for (row, (_, p)) in t.iter_mut().zip(phases()) {
        *row = (p.total(), p.u12_bcast);
    }
    t
}

#[test]
fn every_image_keeps_its_pinned_phase_times() {
    let now = table();
    if now != PIN {
        let rows: String = now.iter().map(|r| format!("    {r:?},\n")).collect();
        panic!("phase times moved; the table now reads:\n{rows}");
    }
}

/// Every total falls. So does `u12_bcast` on each image that only ever
/// receives U12: at N = 4 · nb on a 4 × 4 grid, block k's row is grid row k
/// and its columns grid column k, so grid row r solves U12 only where it
/// holds columns right of block r — grid column c > r. (The images that
/// solve wait longer for their acks instead: a receiver now acks block
/// c + 1 after the `dgemm` of block c.) Grid column 0 holds panel 0 only
/// and receives no U12 at all.
#[test]
fn the_pin_is_below_the_parent() {
    for (image, ((prow, pcol), _)) in (1..).zip(phases()) {
        let (pin, parent) = (PIN[image - 1], PARENT[image - 1]);
        let at = format!("image {image} at ({prow}, {pcol})");
        assert!(
            pin.0 < parent.0,
            "{at}: total {} ns, {} before",
            pin.0,
            parent.0
        );
        if (1..=prow).contains(&pcol) {
            assert!(
                pin.1 < parent.1,
                "{at}: u12_bcast {} ns, {} before",
                pin.1,
                parent.1
            );
        }
    }
}

/// The figures now, recorded on this commit.
#[rustfmt::skip]
const PIN: Table = [
    (2419867, 0),
    (2419867, 0),
    (2419867, 0),
    (2419867, 0),
    (2419867, 107372),
    (2419867, 65101),
    (2419867, 69067),
    (2419867, 72337),
    (2419867, 382822),
    (2419867, 155477),
    (2419867, 119110),
    (2419867, 125522),
    (2419867, 584680),
    (2419867, 349509),
    (2419867, 209486),
    (2419867, 175771),
];

/// The figures on the parent commit (8e32e4d), by the same test.
#[rustfmt::skip]
const PARENT: Table = [
    (2631468, 0),
    (2631468, 0),
    (2631468, 0),
    (2631468, 0),
    (2631468, 43630),
    (2631468, 108649),
    (2631468, 116711),
    (2631468, 124077),
    (2631468, 269544),
    (2631468, 146207),
    (2631468, 225322),
    (2631468, 239926),
    (2631468, 416867),
    (2631468, 285818),
    (2631468, 262880),
    (2631468, 352839),
];
