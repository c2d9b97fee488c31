//! Virtual-time pin for the tree collectives: every barrier algorithm and
//! every broadcast algorithm (× root kind × payload) runs three episodes on
//! SimFabric with the whale cost model, on a ragged placement and on a
//! sub-team of it, and each image's clock afterwards must equal the value
//! recorded on the commit *before* the bodies were folded into one protocol
//! over a per-team shape. The simulator is deterministic, so any reordering
//! of puts, flag adds or waits inside a collective — or inside the control
//! plane that forms the teams — moves at least one of these numbers.
//!
//! On a mismatch the test prints the whole table as it stands now, in the
//! syntax of [`PIN`]; paste it only when the change of op order is intended.

use caf_collectives::{BarrierAlgo, BcastAlgo, CollectiveConfig, SizePolicy, TeamComm};
use caf_fabric::{run_spmd, ArcFabric, SimConfig, SimFabric};
use caf_topology::{presets, ImageMap, Placement};
use std::sync::{Arc, Mutex};

const IMAGES: usize = 8;
const EPISODES: u64 = 3;

/// Image → global core on whale (8 cores per node, 4 per socket): node 0
/// holds images 0, 2, 5, 6 (both sockets), node 1 holds 1, 4, 7 (both
/// sockets), node 2 holds image 3 alone. Image order interleaves the nodes,
/// so no intranode set is a contiguous rank range.
const CORES: [usize; IMAGES] = [0, 8, 1, 16, 12, 2, 5, 13];

/// The sub-team under test keeps images 1, 2, 3, 5, 6, 7 (team ranks 0..6 in
/// that order: sets {0, 5} on node 1, {1, 3, 4} on node 0, {2} on node 2);
/// images 0 and 4 form the sibling team and run the same program.
fn in_sub(image: usize) -> bool {
    image != 0 && image != 4
}

fn fabric() -> ArcFabric {
    let map = ImageMap::new(presets::whale(), IMAGES, &Placement::Custom(CORES.to_vec()));
    SimFabric::new(map, SimConfig::default())
}

#[derive(Clone, Copy)]
enum Program {
    Barrier,
    /// `(root kind, elements)`; root kinds index [`roots`].
    Bcast(usize, usize),
}

/// Team ranks of {rank 0, a non-leader, the lone image of its node} on a
/// team of `size` (the 2-image sibling team clamps them).
fn roots(sub: bool, size: usize) -> [usize; 3] {
    let r = if sub { [0, 4, 2] } else { [0, 5, 3] };
    r.map(|x| x.min(size - 1))
}

/// Run `program` three times on the initial team or on the sub-team and
/// return every image's clock afterwards.
fn run(cfg: CollectiveConfig, sub: bool, program: Program) -> [u64; IMAGES] {
    let fab = fabric();
    let f2 = fab.clone();
    let times = Arc::new(Mutex::new([0u64; IMAGES]));
    let t2 = times.clone();
    run_spmd(fab, move |me| {
        let mut boot = 0u64;
        let mut initial = TeamComm::create_initial(f2.clone(), me, cfg, &mut boot);
        let mut team = if sub {
            initial.create_sub(in_sub(me.index()) as i64, None, None)
        } else {
            initial
        };
        // 8 u64 elements per chunk; the crossovers are moot (no `Auto`).
        team.set_size_policy(SizePolicy {
            chunk_bytes: 64,
            bcast_crossover_bytes: usize::MAX,
            reduce_crossover_bytes: usize::MAX,
        });
        for e in 1..=EPISODES {
            match program {
                Program::Barrier => team.barrier(),
                Program::Bcast(kind, len) => {
                    let root = roots(sub, team.size())[kind];
                    let expect: Vec<u64> = (0..len as u64).map(|i| (e << 32) | i).collect();
                    let mut v = if team.rank() == root {
                        expect.clone()
                    } else {
                        vec![0; len]
                    };
                    team.co_broadcast(&mut v, root);
                    assert_eq!(v, expect, "episode {e} root {root} at {me:?}");
                }
            }
        }
        t2.lock().unwrap()[me.index()] = f2.now_ns(me);
        f2.image_done(me);
    });
    let out = *times.lock().unwrap();
    out
}

/// Every pinned run, labelled.
fn table() -> Vec<(String, [u64; IMAGES])> {
    let mut rows = Vec::new();
    for sub in [false, true] {
        let team = if sub { "sub" } else { "initial" };
        for algo in [
            BarrierAlgo::CentralCounter,
            BarrierAlgo::BinomialTree,
            BarrierAlgo::Dissemination,
            BarrierAlgo::Tdlb,
            BarrierAlgo::TdlbMultilevel,
        ] {
            let cfg = CollectiveConfig {
                barrier: algo,
                ..CollectiveConfig::two_level()
            };
            rows.push((
                format!("{team} barrier {algo:?}"),
                run(cfg, sub, Program::Barrier),
            ));
        }
        for algo in [
            BcastAlgo::FlatLinear,
            BcastAlgo::FlatBinomial,
            BcastAlgo::TwoLevel,
            BcastAlgo::TwoLevelPipelined,
        ] {
            let cfg = CollectiveConfig {
                bcast: algo,
                ..CollectiveConfig::two_level()
            };
            for (kind, root) in ["rank0", "nonleader", "lone"].iter().enumerate() {
                // 8 B, and three 8-element chunks plus one element.
                for len in [1usize, 25] {
                    rows.push((
                        format!("{team} bcast {algo:?} root={root} len={len}"),
                        run(cfg, sub, Program::Bcast(kind, len)),
                    ));
                }
            }
        }
    }
    rows
}

#[test]
fn tree_collectives_keep_the_parents_virtual_times() {
    let now = table();
    let same = now.len() == PIN.len()
        && now
            .iter()
            .zip(PIN)
            .all(|((label, t), (pin_label, pin_t))| label == pin_label && t == pin_t);
    if !same {
        let mut out = String::new();
        for (label, t) in &now {
            out.push_str(&format!("    (\"{label}\", {t:?}),\n"));
        }
        for ((label, t), (_, pin_t)) in now.iter().zip(PIN) {
            if t != pin_t {
                eprintln!("moved: {label}\n   pin {pin_t:?}\n   now {t:?}");
            }
        }
        panic!("virtual times moved; the table now reads:\n{out}");
    }
}

/// Recorded on commit c77d515 (the four broadcast and four tree-barrier
/// bodies as separate functions); re-recorded when formation became one
/// bootstrap barrier, which moved every clock by formation's share only —
/// the same runs fenced after formation (a 10 ms idle and a control
/// barrier, clocks read from the fence) gave identical tables before and
/// after.
#[rustfmt::skip]
const PIN: &[(&str, [u64; IMAGES])] = &[
    ("initial barrier CentralCounter", [27591, 28100, 26227, 28632, 29032, 27159, 27291, 29696]),
    ("initial barrier BinomialTree", [48303, 50676, 48135, 52781, 50581, 52781, 48235, 54886]),
    ("initial barrier Dissemination", [29126, 28811, 27948, 28421, 27472, 27431, 27868, 29516]),
    ("initial barrier Tdlb", [25110, 26514, 24946, 24165, 26482, 25078, 25210, 26614]),
    ("initial barrier TdlbMultilevel", [25801, 27337, 25769, 25120, 27569, 25901, 25637, 27669]),
    ("initial bcast FlatLinear root=rank0 len=1", [66079, 66588, 64715, 67120, 67520, 65647, 65779, 68184]),
    ("initial bcast FlatLinear root=rank0 len=25", [66655, 67164, 65291, 67696, 68096, 66223, 66355, 68760]),
    ("initial bcast FlatLinear root=nonleader len=1", [63883, 66288, 64415, 66820, 67220, 65647, 65347, 67752]),
    ("initial bcast FlatLinear root=nonleader len=25", [64459, 66864, 64991, 67396, 67796, 66223, 65923, 68328]),
    ("initial bcast FlatLinear root=lone len=1", [74061, 74461, 74861, 74356, 75261, 75661, 76061, 76461]),
    ("initial bcast FlatLinear root=lone len=25", [74205, 74605, 75005, 74500, 75405, 75805, 76205, 76605]),
    ("initial bcast FlatBinomial root=rank0 len=1", [85783, 88156, 85615, 90261, 88061, 90261, 85715, 92366]),
    ("initial bcast FlatBinomial root=rank0 len=25", [86215, 88588, 86047, 90693, 88493, 90693, 86147, 92798]),
    ("initial bcast FlatBinomial root=nonleader len=1", [70006, 72634, 69738, 74284, 72484, 70074, 69638, 72179]),
    ("initial bcast FlatBinomial root=nonleader len=25", [70399, 73027, 70131, 74677, 72877, 70467, 70031, 72572]),
    ("initial bcast FlatBinomial root=lone len=1", [79517, 79517, 79349, 75307, 77412, 77412, 79249, 77717]),
    ("initial bcast FlatBinomial root=lone len=25", [79738, 79738, 79570, 75528, 77633, 77633, 79470, 77938]),
    ("initial bcast TwoLevel root=rank0 len=1", [56953, 58526, 56789, 58662, 58494, 56921, 57053, 58626]),
    ("initial bcast TwoLevel root=rank0 len=25", [57481, 59054, 57317, 59190, 59022, 57449, 57581, 59154]),
    ("initial bcast TwoLevel root=nonleader len=1", [56357, 58094, 56489, 58230, 58062, 56521, 56621, 58194]),
    ("initial bcast TwoLevel root=nonleader len=25", [56932, 58669, 57064, 58805, 58637, 57096, 57196, 58769]),
    ("initial bcast TwoLevel root=lone len=1", [61259, 61527, 61095, 59158, 61495, 61227, 61359, 61627]),
    ("initial bcast TwoLevel root=lone len=25", [61835, 62103, 61671, 59734, 62071, 61803, 61935, 62203]),
    ("initial bcast TwoLevelPipelined root=rank0 len=1", [56953, 58526, 56789, 58662, 58494, 56921, 57053, 58626]),
    ("initial bcast TwoLevelPipelined root=rank0 len=25", [78859, 80432, 78695, 80568, 80400, 78827, 78959, 80532]),
    ("initial bcast TwoLevelPipelined root=nonleader len=1", [56357, 58094, 56489, 58230, 58062, 56521, 56621, 58194]),
    ("initial bcast TwoLevelPipelined root=nonleader len=25", [78263, 80000, 78395, 80136, 79968, 78427, 78527, 80100]),
    ("initial bcast TwoLevelPipelined root=lone len=1", [61259, 61527, 61095, 59158, 61495, 61227, 61359, 61627]),
    ("initial bcast TwoLevelPipelined root=lone len=25", [75659, 75927, 75495, 73558, 75895, 75627, 75759, 76027]),
    ("sub barrier CentralCounter", [76183, 79315, 80088, 80488, 78688, 80888, 81288, 79415]),
    ("sub barrier BinomialTree", [75373, 89667, 91504, 91372, 77478, 91204, 91809, 93609]),
    ("sub barrier Dissemination", [70500, 80147, 80235, 80335, 69745, 81757, 80902, 82320]),
    ("sub barrier Tdlb", [69963, 79475, 77939, 77543, 69564, 77907, 78039, 79575]),
    ("sub barrier TdlbMultilevel", [69963, 79475, 77959, 77543, 69564, 78059, 77927, 79575]),
    ("sub bcast FlatLinear root=rank0 len=1", [89466, 109315, 110088, 110488, 92018, 110888, 111288, 109415]),
    ("sub bcast FlatLinear root=rank0 len=25", [89679, 109660, 110433, 110833, 92171, 111233, 111633, 109760]),
    ("sub bcast FlatLinear root=nonleader len=1", [93223, 111167, 109294, 111699, 90788, 109826, 110126, 112231]),
    ("sub bcast FlatLinear root=nonleader len=25", [93452, 111684, 109811, 112216, 90969, 110343, 110643, 112748]),
    ("sub bcast FlatLinear root=lone len=1", [93200, 114655, 115055, 114150, 91095, 115455, 115855, 116255]),
    ("sub bcast FlatLinear root=lone len=25", [93424, 114884, 115284, 114379, 91319, 115684, 116084, 116484]),
    ("sub bcast FlatBinomial root=rank0 len=1", [89404, 118292, 120129, 119997, 91509, 119829, 120434, 122234]),
    ("sub bcast FlatBinomial root=rank0 len=25", [89569, 118643, 120480, 120348, 91674, 120180, 120785, 122585]),
    ("sub bcast FlatBinomial root=nonleader len=1", [92893, 124429, 126229, 124524, 90788, 126629, 122419, 124524]),
    ("sub bcast FlatBinomial root=nonleader len=25", [93074, 125270, 127070, 125365, 90969, 127470, 123260, 125365]),
    ("sub bcast FlatBinomial root=lone len=1", [92893, 120491, 120323, 118386, 90788, 120223, 120396, 122196]),
    ("sub bcast FlatBinomial root=lone len=25", [93074, 120990, 120822, 118885, 90969, 120722, 120895, 122695]),
    ("sub bcast TwoLevel root=rank0 len=1", [89404, 102874, 104711, 104847, 91509, 104679, 104811, 102974]),
    ("sub bcast TwoLevel root=rank0 len=25", [89569, 103303, 105140, 105276, 91674, 105108, 105240, 103403]),
    ("sub bcast TwoLevel root=nonleader len=1", [92893, 108709, 106704, 108177, 90788, 106836, 106736, 108809]),
    ("sub bcast TwoLevel root=nonleader len=25", [93122, 109226, 107221, 108694, 90969, 107353, 107253, 109326]),
    ("sub bcast TwoLevel root=lone len=1", [92900, 107773, 108305, 105936, 90795, 108273, 108405, 107873]),
    ("sub bcast TwoLevel root=lone len=25", [93116, 108434, 108966, 106597, 91011, 108934, 109066, 108534]),
    ("sub bcast TwoLevelPipelined root=rank0 len=1", [89404, 102874, 104711, 104847, 91509, 104679, 104811, 102974]),
    ("sub bcast TwoLevelPipelined root=rank0 len=25", [96592, 119768, 121605, 121741, 99213, 121573, 121705, 119868]),
    ("sub bcast TwoLevelPipelined root=nonleader len=1", [92893, 108709, 106704, 108177, 90788, 106836, 106736, 108809]),
    ("sub bcast TwoLevelPipelined root=nonleader len=25", [100298, 128054, 126049, 127522, 97935, 126181, 126081, 128154]),
    ("sub bcast TwoLevelPipelined root=lone len=1", [92900, 107773, 108305, 105936, 90795, 108273, 108405, 107873]),
    ("sub bcast TwoLevelPipelined root=lone len=25", [100124, 121664, 122196, 119827, 98019, 122164, 122296, 121764]),
];
