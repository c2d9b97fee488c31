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
/// bodies as separate functions).
#[rustfmt::skip]
const PIN: &[(&str, [u64; IMAGES])] = &[
    ("initial barrier CentralCounter", [35376, 35885, 34012, 36417, 36817, 34944, 35076, 37481]),
    ("initial barrier BinomialTree", [56238, 58611, 56070, 60716, 58516, 60716, 56170, 62821]),
    ("initial barrier Dissemination", [37731, 37416, 36553, 37026, 36136, 36036, 36473, 38121]),
    ("initial barrier Tdlb", [32854, 34258, 32690, 31909, 34226, 32822, 32954, 34358]),
    ("initial barrier TdlbMultilevel", [33486, 35022, 33454, 32805, 35254, 33586, 33322, 35354]),
    ("initial bcast FlatLinear root=rank0 len=1", [73963, 74472, 72599, 75004, 75404, 73531, 73663, 76068]),
    ("initial bcast FlatLinear root=rank0 len=25", [74539, 75048, 73175, 75580, 75980, 74107, 74239, 76644]),
    ("initial bcast FlatLinear root=nonleader len=1", [71767, 74172, 72299, 74704, 75104, 73531, 73231, 75636]),
    ("initial bcast FlatLinear root=nonleader len=25", [72343, 74748, 72875, 75280, 75680, 74107, 73807, 76212]),
    ("initial bcast FlatLinear root=lone len=1", [81945, 82345, 82745, 82240, 83145, 83545, 83945, 84345]),
    ("initial bcast FlatLinear root=lone len=25", [82089, 82489, 82889, 82384, 83289, 83689, 84089, 84489]),
    ("initial bcast FlatBinomial root=rank0 len=1", [93667, 96040, 93499, 98145, 95945, 98145, 93599, 100250]),
    ("initial bcast FlatBinomial root=rank0 len=25", [94099, 96472, 93931, 98577, 96377, 98577, 94031, 100682]),
    ("initial bcast FlatBinomial root=nonleader len=1", [77890, 80518, 77622, 82168, 80368, 77958, 77522, 80063]),
    ("initial bcast FlatBinomial root=nonleader len=25", [78283, 80911, 78015, 82561, 80761, 78351, 77915, 80456]),
    ("initial bcast FlatBinomial root=lone len=1", [87401, 87401, 87233, 83191, 85296, 85296, 87133, 85601]),
    ("initial bcast FlatBinomial root=lone len=25", [87622, 87622, 87454, 83412, 85517, 85517, 87354, 85822]),
    ("initial bcast TwoLevel root=rank0 len=1", [64837, 66410, 64673, 66546, 66378, 64805, 64937, 66510]),
    ("initial bcast TwoLevel root=rank0 len=25", [65365, 66938, 65201, 67074, 66906, 65333, 65465, 67038]),
    ("initial bcast TwoLevel root=nonleader len=1", [64241, 65978, 64373, 66114, 65946, 64405, 64505, 66078]),
    ("initial bcast TwoLevel root=nonleader len=25", [64816, 66553, 64948, 66689, 66521, 64980, 65080, 66653]),
    ("initial bcast TwoLevel root=lone len=1", [69143, 69411, 68979, 67042, 69379, 69111, 69243, 69511]),
    ("initial bcast TwoLevel root=lone len=25", [69719, 69987, 69555, 67618, 69955, 69687, 69819, 70087]),
    ("initial bcast TwoLevelPipelined root=rank0 len=1", [64837, 66410, 64673, 66546, 66378, 64805, 64937, 66510]),
    ("initial bcast TwoLevelPipelined root=rank0 len=25", [86743, 88316, 86579, 88452, 88284, 86711, 86843, 88416]),
    ("initial bcast TwoLevelPipelined root=nonleader len=1", [64241, 65978, 64373, 66114, 65946, 64405, 64505, 66078]),
    ("initial bcast TwoLevelPipelined root=nonleader len=25", [86147, 87884, 86279, 88020, 87852, 86311, 86411, 87984]),
    ("initial bcast TwoLevelPipelined root=lone len=1", [69143, 69411, 68979, 67042, 69379, 69111, 69243, 69511]),
    ("initial bcast TwoLevelPipelined root=lone len=25", [83543, 83811, 83379, 81442, 83779, 83511, 83643, 83911]),
    ("sub barrier CentralCounter", [84067, 87199, 87972, 88372, 86572, 88772, 89172, 87299]),
    ("sub barrier BinomialTree", [83257, 97551, 99388, 99256, 85362, 99088, 99693, 101493]),
    ("sub barrier Dissemination", [78384, 88031, 88119, 88219, 77629, 89641, 88786, 90204]),
    ("sub barrier Tdlb", [77847, 87359, 85823, 85427, 77448, 85791, 85923, 87459]),
    ("sub barrier TdlbMultilevel", [77847, 87359, 85843, 85427, 77448, 85943, 85811, 87459]),
    ("sub bcast FlatLinear root=rank0 len=1", [97350, 117199, 117972, 118372, 99902, 118772, 119172, 117299]),
    ("sub bcast FlatLinear root=rank0 len=25", [97563, 117544, 118317, 118717, 100055, 119117, 119517, 117644]),
    ("sub bcast FlatLinear root=nonleader len=1", [101107, 119051, 117178, 119583, 98672, 117710, 118010, 120115]),
    ("sub bcast FlatLinear root=nonleader len=25", [101336, 119568, 117695, 120100, 98853, 118227, 118527, 120632]),
    ("sub bcast FlatLinear root=lone len=1", [101084, 122539, 122939, 122034, 98979, 123339, 123739, 124139]),
    ("sub bcast FlatLinear root=lone len=25", [101308, 122768, 123168, 122263, 99203, 123568, 123968, 124368]),
    ("sub bcast FlatBinomial root=rank0 len=1", [97288, 126176, 128013, 127881, 99393, 127713, 128318, 130118]),
    ("sub bcast FlatBinomial root=rank0 len=25", [97453, 126527, 128364, 128232, 99558, 128064, 128669, 130469]),
    ("sub bcast FlatBinomial root=nonleader len=1", [100777, 132313, 134113, 132408, 98672, 134513, 130303, 132408]),
    ("sub bcast FlatBinomial root=nonleader len=25", [100958, 133154, 134954, 133249, 98853, 135354, 131144, 133249]),
    ("sub bcast FlatBinomial root=lone len=1", [100777, 128375, 128207, 126270, 98672, 128107, 128280, 130080]),
    ("sub bcast FlatBinomial root=lone len=25", [100958, 128874, 128706, 126769, 98853, 128606, 128779, 130579]),
    ("sub bcast TwoLevel root=rank0 len=1", [97288, 110758, 112595, 112731, 99393, 112563, 112695, 110858]),
    ("sub bcast TwoLevel root=rank0 len=25", [97453, 111187, 113024, 113160, 99558, 112992, 113124, 111287]),
    ("sub bcast TwoLevel root=nonleader len=1", [100777, 116593, 114588, 116061, 98672, 114720, 114620, 116693]),
    ("sub bcast TwoLevel root=nonleader len=25", [101006, 117110, 115105, 116578, 98853, 115237, 115137, 117210]),
    ("sub bcast TwoLevel root=lone len=1", [100784, 115657, 116189, 113820, 98679, 116157, 116289, 115757]),
    ("sub bcast TwoLevel root=lone len=25", [101000, 116318, 116850, 114481, 98895, 116818, 116950, 116418]),
    ("sub bcast TwoLevelPipelined root=rank0 len=1", [97288, 110758, 112595, 112731, 99393, 112563, 112695, 110858]),
    ("sub bcast TwoLevelPipelined root=rank0 len=25", [104476, 127652, 129489, 129625, 107097, 129457, 129589, 127752]),
    ("sub bcast TwoLevelPipelined root=nonleader len=1", [100777, 116593, 114588, 116061, 98672, 114720, 114620, 116693]),
    ("sub bcast TwoLevelPipelined root=nonleader len=25", [108182, 135938, 133933, 135406, 105819, 134065, 133965, 136038]),
    ("sub bcast TwoLevelPipelined root=lone len=1", [100784, 115657, 116189, 113820, 98679, 116157, 116289, 115757]),
    ("sub bcast TwoLevelPipelined root=lone len=25", [108008, 129548, 130080, 127711, 105903, 130048, 130180, 129648]),
];
