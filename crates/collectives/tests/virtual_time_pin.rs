//! Virtual-time pin for the tree collectives: every barrier algorithm and
//! every broadcast algorithm (× root kind × payload) runs three episodes on
//! SimFabric with the whale cost model, on a ragged placement and on a
//! sub-team of it, and each image's clock afterwards must equal the value
//! recorded on the commit *before* the bodies were folded into one protocol
//! over a per-team shape. Every gather algorithm (a gather then a scatter
//! per episode, × root kind × payload) and the flat binomial `co_sum` are
//! pinned the same way, in [`EXT_PIN`]. The simulator is deterministic, so any reordering
//! of puts, flag adds or waits inside a collective — or inside the control
//! plane that forms the teams — moves at least one of these numbers.
//!
//! On a mismatch the test prints the whole table as it stands now, in the
//! syntax of [`PIN`]; paste it only when the change of op order is intended.

use caf_collectives::{
    BarrierAlgo, BcastAlgo, CollectiveConfig, GatherAlgo, ReduceAlgo, SizePolicy, TeamComm,
};
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
    /// A gather, then a scatter of what was gathered; as `Bcast`.
    GatherScatter(usize, usize),
    /// `co_sum` of this many elements.
    Sum(usize),
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
            crossover_bytes: usize::MAX,
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
                Program::GatherScatter(kind, len) => {
                    let root = roots(sub, team.size())[kind];
                    let of =
                        |r: usize| (0..len as u64).map(move |i| (e << 40) | (r as u64) << 20 | i);
                    let mine: Vec<u64> = of(team.rank()).collect();
                    let all: Vec<u64> = (0..team.size()).flat_map(of).collect();
                    let got = team.co_gather(&mine, root);
                    let want = (team.rank() == root).then(|| all.clone());
                    assert_eq!(got, want, "gather episode {e} root {root} at {me:?}");
                    let mut out = vec![0; len];
                    team.co_scatter(got.as_deref(), &mut out, root);
                    assert_eq!(out, mine, "scatter episode {e} root {root} at {me:?}");
                }
                Program::Sum(len) => {
                    let mut v = vec![e + team.rank() as u64; len];
                    team.co_sum(&mut v);
                    let n = team.size() as u64;
                    assert_eq!(
                        v,
                        vec![n * e + n * (n - 1) / 2; len],
                        "episode {e} at {me:?}"
                    );
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

/// The gather algorithms (a gather then a scatter per episode) and the flat
/// binomial `co_sum`, labelled.
fn ext_table() -> Vec<(String, [u64; IMAGES])> {
    let mut rows = Vec::new();
    for sub in [false, true] {
        let team = if sub { "sub" } else { "initial" };
        for algo in [GatherAlgo::FlatLinear, GatherAlgo::TwoLevel] {
            let cfg = CollectiveConfig {
                gather: algo,
                ..CollectiveConfig::two_level()
            };
            for (kind, root) in ["rank0", "nonleader", "lone"].iter().enumerate() {
                for len in [1usize, 25] {
                    rows.push((
                        format!("{team} gather+scatter {algo:?} root={root} len={len}"),
                        run(cfg, sub, Program::GatherScatter(kind, len)),
                    ));
                }
            }
        }
        let cfg = CollectiveConfig {
            reduce: ReduceAlgo::FlatBinomial,
            ..CollectiveConfig::two_level()
        };
        for len in [1usize, 25] {
            rows.push((
                format!("{team} co_sum FlatBinomial len={len}"),
                run(cfg, sub, Program::Sum(len)),
            ));
        }
    }
    rows
}

/// Fail, printing the table as it stands now, unless `now` is `pin`.
fn assert_pinned(now: &[(String, [u64; IMAGES])], pin: &[(&str, [u64; IMAGES])]) {
    let same = now.len() == pin.len()
        && now
            .iter()
            .zip(pin)
            .all(|((label, t), (pin_label, pin_t))| label == pin_label && t == pin_t);
    if !same {
        let mut out = String::new();
        for (label, t) in now {
            out.push_str(&format!("    (\"{label}\", {t:?}),\n"));
        }
        for ((label, t), (_, pin_t)) in now.iter().zip(pin) {
            if t != pin_t {
                eprintln!("moved: {label}\n   pin {pin_t:?}\n   now {t:?}");
            }
        }
        panic!("virtual times moved; the table now reads:\n{out}");
    }
}

#[test]
fn tree_collectives_keep_the_parents_virtual_times() {
    assert_pinned(&table(), PIN);
}

#[test]
fn gather_scatter_and_binomial_sum_keep_the_parents_virtual_times() {
    assert_pinned(&ext_table(), EXT_PIN);
}

/// Recorded on commit c77d515 (the four broadcast and four tree-barrier
/// bodies as separate functions); re-recorded when formation became one
/// bootstrap barrier, which moved every clock by formation's share only —
/// the same runs fenced after formation (a 10 ms idle and a control
/// barrier, clocks read from the fence) gave identical tables before and
/// after. Re-recorded when every blocking put-then-notify became one
/// signalled put: fenced that way, the ten barrier rows read the same
/// before and after, and every broadcast row's clocks went down.
#[rustfmt::skip]
const PIN: &[(&str, [u64; IMAGES])] = &[
    ("initial barrier CentralCounter", [25042, 25551, 23678, 26083, 26483, 24610, 24742, 27147]),
    ("initial barrier BinomialTree", [45904, 48277, 45736, 50382, 48182, 50382, 45836, 52487]),
    ("initial barrier Dissemination", [27391, 27076, 26213, 26686, 25796, 25696, 26133, 27781]),
    ("initial barrier Tdlb", [22520, 23924, 22356, 21575, 23892, 22488, 22620, 24024]),
    ("initial barrier TdlbMultilevel", [23152, 24688, 23120, 22471, 24920, 23252, 22988, 25020]),
    ("initial bcast FlatLinear root=rank0 len=1", [54943, 55452, 53579, 55984, 56384, 54511, 54643, 57048]),
    ("initial bcast FlatLinear root=rank0 len=25", [55801, 56310, 54437, 56842, 57242, 55369, 55501, 57906]),
    ("initial bcast FlatLinear root=nonleader len=1", [53167, 55572, 53699, 56104, 56504, 54931, 54631, 57036]),
    ("initial bcast FlatLinear root=nonleader len=25", [54154, 56559, 54686, 57091, 57491, 55918, 55618, 58023]),
    ("initial bcast FlatLinear root=lone len=1", [60555, 60955, 61355, 60850, 61755, 62155, 62555, 62955]),
    ("initial bcast FlatLinear root=lone len=25", [61254, 61654, 62054, 61549, 62454, 62854, 63254, 63654]),
    ("initial bcast FlatBinomial root=rank0 len=1", [77252, 79625, 77084, 81730, 79530, 81730, 77184, 83835]),
    ("initial bcast FlatBinomial root=rank0 len=25", [78643, 81016, 78475, 83121, 80921, 83121, 78575, 85226]),
    ("initial bcast FlatBinomial root=nonleader len=1", [61967, 64595, 61699, 66245, 64445, 62035, 61599, 64140]),
    ("initial bcast FlatBinomial root=nonleader len=25", [63027, 65655, 62759, 67305, 65505, 63095, 62659, 65200]),
    ("initial bcast FlatBinomial root=lone len=1", [69700, 69700, 69532, 65490, 67595, 67595, 69432, 67900]),
    ("initial bcast FlatBinomial root=lone len=25", [70721, 70721, 70553, 66511, 68616, 68616, 70453, 68921]),
    ("initial bcast TwoLevel root=rank0 len=1", [49420, 50993, 49256, 51129, 50961, 49388, 49520, 51093]),
    ("initial bcast TwoLevel root=rank0 len=25", [50407, 51980, 50243, 52116, 51948, 50375, 50507, 52080]),
    ("initial bcast TwoLevel root=nonleader len=1", [48824, 50561, 48956, 50697, 50529, 48988, 49088, 50661]),
    ("initial bcast TwoLevel root=nonleader len=25", [49811, 51548, 49943, 51684, 51516, 49975, 50075, 51648]),
    ("initial bcast TwoLevel root=lone len=1", [52574, 52842, 52410, 50473, 52810, 52542, 52674, 52942]),
    ("initial bcast TwoLevel root=lone len=25", [53561, 53829, 53397, 51460, 53797, 53529, 53661, 53929]),
    ("initial bcast TwoLevelPipelined root=rank0 len=1", [51676, 53249, 51512, 53385, 53217, 51644, 51776, 53349]),
    ("initial bcast TwoLevelPipelined root=rank0 len=25", [73582, 75155, 73418, 75291, 75123, 73550, 73682, 75255]),
    ("initial bcast TwoLevelPipelined root=nonleader len=1", [51080, 52817, 51212, 52953, 52785, 51244, 51344, 52917]),
    ("initial bcast TwoLevelPipelined root=nonleader len=25", [72986, 74723, 73118, 74859, 74691, 73150, 73250, 74823]),
    ("initial bcast TwoLevelPipelined root=lone len=1", [55982, 56250, 55818, 53881, 56218, 55950, 56082, 56350]),
    ("initial bcast TwoLevelPipelined root=lone len=25", [70382, 70650, 70218, 68281, 70618, 70350, 70482, 70750]),
    ("sub barrier CentralCounter", [68077, 71209, 71982, 72382, 70582, 72782, 73182, 71309]),
    ("sub barrier BinomialTree", [67267, 81561, 83398, 83266, 69372, 83098, 83703, 85503]),
    ("sub barrier Dissemination", [62394, 72041, 72129, 72229, 61639, 73651, 72796, 74214]),
    ("sub barrier Tdlb", [61857, 71369, 69833, 69437, 61458, 69801, 69933, 71469]),
    ("sub barrier TdlbMultilevel", [61857, 71369, 69853, 69437, 61458, 69953, 69821, 71469]),
    ("sub bcast FlatLinear root=rank0 len=1", [79352, 95386, 96159, 96559, 81457, 96959, 97359, 95486]),
    ("sub bcast FlatLinear root=rank0 len=25", [79862, 96362, 97135, 97535, 81967, 97935, 98335, 96462]),
    ("sub bcast FlatLinear root=nonleader len=1", [83430, 96710, 94837, 97242, 81325, 95369, 95669, 97774]),
    ("sub bcast FlatLinear root=nonleader len=25", [84513, 96745, 94872, 97277, 82408, 95404, 95704, 97809]),
    ("sub bcast FlatLinear root=lone len=1", [82970, 97994, 98394, 97489, 80865, 98794, 99194, 99594]),
    ("sub bcast FlatLinear root=lone len=25", [84140, 98452, 98852, 97947, 81635, 99252, 99652, 100052]),
    ("sub bcast FlatBinomial root=rank0 len=1", [79326, 104336, 106173, 106041, 81929, 105873, 106478, 108278]),
    ("sub bcast FlatBinomial root=rank0 len=25", [80129, 105590, 107427, 107295, 82884, 107127, 107732, 109532]),
    ("sub bcast FlatBinomial root=nonleader len=1", [84537, 110104, 111904, 110199, 81934, 112304, 108094, 110199]),
    ("sub bcast FlatBinomial root=nonleader len=25", [84895, 111298, 113098, 111393, 82527, 113498, 109288, 111393]),
    ("sub bcast FlatBinomial root=lone len=1", [83370, 107323, 107155, 105218, 81265, 107055, 107228, 109028]),
    ("sub bcast FlatBinomial root=lone len=25", [83740, 108433, 108265, 106328, 81635, 108165, 108338, 110138]),
    ("sub bcast TwoLevel root=rank0 len=1", [78760, 90576, 92413, 92549, 80865, 92381, 92513, 90676]),
    ("sub bcast TwoLevel root=rank0 len=25", [79985, 91390, 93227, 93363, 82090, 93195, 93327, 91490]),
    ("sub bcast TwoLevel root=nonleader len=1", [83896, 95100, 93095, 94568, 81791, 93227, 93127, 95200]),
    ("sub bcast TwoLevel root=nonleader len=25", [84853, 96385, 94380, 95853, 82703, 94512, 94412, 96485]),
    ("sub bcast TwoLevel root=lone len=1", [83036, 93806, 94338, 91969, 80931, 94306, 94438, 93906]),
    ("sub bcast TwoLevel root=lone len=25", [83877, 94695, 95227, 92858, 81772, 95195, 95327, 94795]),
    ("sub bcast TwoLevelPipelined root=rank0 len=1", [80304, 92354, 94191, 94327, 82409, 94159, 94291, 92454]),
    ("sub bcast TwoLevelPipelined root=rank0 len=25", [87604, 109448, 111285, 111421, 89931, 111253, 111385, 109548]),
    ("sub bcast TwoLevelPipelined root=nonleader len=1", [84918, 97836, 95831, 97304, 82813, 95963, 95863, 97936]),
    ("sub bcast TwoLevelPipelined root=nonleader len=25", [92506, 117746, 115741, 117214, 90189, 115873, 115773, 117846]),
    ("sub bcast TwoLevelPipelined root=lone len=1", [84589, 96900, 97432, 95063, 82065, 97400, 97532, 97000]),
    ("sub bcast TwoLevelPipelined root=lone len=25", [91275, 111300, 111832, 109463, 89170, 111800, 111932, 111400]),
];

/// Recorded on commit cdcbfe3, where gather and scatter were four
/// hand-written bodies (flat and two-level, each direction) and the
/// control plane's `allgather4` and the flat binomial reduction each built
/// their own clear-lowest-bit tree.
#[rustfmt::skip]
const EXT_PIN: &[(&str, [u64; IMAGES])] = &[
    ("initial gather+scatter FlatLinear root=rank0 len=1", [75268, 75777, 73904, 76309, 76709, 74836, 74968, 77373]),
    ("initial gather+scatter FlatLinear root=rank0 len=25", [78100, 78609, 76736, 79141, 79541, 77668, 77800, 80205]),
    ("initial gather+scatter FlatLinear root=nonleader len=1", [74164, 76569, 74696, 77101, 77501, 75928, 75628, 78033]),
    ("initial gather+scatter FlatLinear root=nonleader len=25", [77125, 79530, 77657, 80062, 80462, 78889, 78589, 80994]),
    ("initial gather+scatter FlatLinear root=lone len=1", [82361, 82761, 83161, 82656, 83561, 83961, 84361, 84761]),
    ("initial gather+scatter FlatLinear root=lone len=25", [84950, 85350, 85750, 85245, 86150, 86550, 86950, 87350]),
    ("initial gather+scatter TwoLevel root=rank0 len=1", [68428, 70001, 68264, 70137, 69969, 68396, 68528, 70101]),
    ("initial gather+scatter TwoLevel root=rank0 len=25", [72962, 74535, 72798, 74671, 74503, 72930, 73062, 74635]),
    ("initial gather+scatter TwoLevel root=nonleader len=1", [68264, 70001, 68396, 70137, 69969, 68428, 68528, 70101]),
    ("initial gather+scatter TwoLevel root=nonleader len=25", [72798, 74535, 72930, 74671, 74503, 72962, 73062, 74635]),
    ("initial gather+scatter TwoLevel root=lone len=1", [71308, 71576, 71144, 69207, 71544, 71276, 71408, 71676]),
    ("initial gather+scatter TwoLevel root=lone len=25", [77170, 77438, 77006, 75069, 77406, 77138, 77270, 77538]),
    ("initial co_sum FlatBinomial len=1", [114863, 117236, 114695, 119341, 117141, 119341, 114795, 121446]),
    ("initial co_sum FlatBinomial len=25", [118330, 120703, 118162, 122808, 120608, 122808, 118262, 124913]),
    ("sub gather+scatter FlatLinear root=rank0 len=1", [94421, 114689, 115462, 115862, 96526, 116262, 116662, 114789]),
    ("sub gather+scatter FlatLinear root=rank0 len=25", [96877, 117218, 117991, 118391, 99032, 118791, 119191, 117318]),
    ("sub gather+scatter FlatLinear root=nonleader len=1", [94933, 111855, 109982, 112387, 92828, 110514, 110814, 112919]),
    ("sub gather+scatter FlatLinear root=nonleader len=25", [95846, 114291, 112418, 114823, 93741, 112950, 113250, 115355]),
    ("sub gather+scatter FlatLinear root=lone len=1", [94159, 117001, 117401, 116496, 92054, 117801, 118201, 118601]),
    ("sub gather+scatter FlatLinear root=lone len=25", [96146, 119605, 120005, 119100, 94020, 120405, 120805, 121205]),
    ("sub gather+scatter TwoLevel root=rank0 len=1", [95795, 108797, 110634, 110770, 97900, 110602, 110734, 108897]),
    ("sub gather+scatter TwoLevel root=rank0 len=25", [97061, 113497, 115334, 115470, 99566, 115302, 115434, 113597]),
    ("sub gather+scatter TwoLevel root=nonleader len=1", [94201, 108088, 106483, 108356, 91969, 106615, 106515, 108188]),
    ("sub gather+scatter TwoLevel root=nonleader len=25", [96737, 111719, 110114, 111987, 94156, 110246, 110146, 111819]),
    ("sub gather+scatter TwoLevel root=lone len=1", [94523, 111878, 112410, 110041, 92418, 112378, 112510, 111978]),
    ("sub gather+scatter TwoLevel root=lone len=25", [97124, 116448, 116980, 114611, 94426, 116948, 117080, 116548]),
    ("sub co_sum FlatBinomial len=1", [92994, 128857, 130694, 130562, 95099, 130394, 130999, 132799]),
    ("sub co_sum FlatBinomial len=25", [94063, 131311, 133148, 133016, 96187, 132848, 133453, 135253]),
];

/// Every image's clock after three `co_sum`s of `len` u64 elements on a
/// whale launch of `images` images packed onto one node (`images`(1)).
fn one_node_sum(cfg: CollectiveConfig, images: usize, len: usize) -> Vec<u64> {
    let map = ImageMap::new(presets::whale(), images, &Placement::Packed);
    let fab: ArcFabric = SimFabric::new(map, SimConfig::default());
    let f2 = fab.clone();
    let times = Arc::new(Mutex::new(vec![0u64; images]));
    let t2 = times.clone();
    run_spmd(fab, move |me| {
        let mut boot = 0u64;
        let mut team = TeamComm::create_initial(f2.clone(), me, cfg, &mut boot);
        for e in 1..=EPISODES {
            let mut v = vec![e + me.index() as u64; len];
            team.co_sum(&mut v);
            let want = images as u64 * e + (images * (images - 1) / 2) as u64;
            assert_eq!(v, vec![want; len], "episode {e} at {me:?}");
        }
        t2.lock().unwrap()[me.index()] = f2.now_ns(me);
        f2.image_done(me);
    });
    let out = times.lock().unwrap().clone();
    out
}

/// A one-node team of power-of-two size reduces by recursive doubling
/// under the two-level configuration: at 4(1) and 8(1), for 8 B and for
/// 1 280 B (HPL's pivot lanes at `nb` = 64), its clocks are those of
/// `FlatRecursiveDoubling` on the same launch. A 3-image node keeps the
/// linear two-level scheme, at the clocks recorded before the rule.
#[test]
fn one_node_reductions_keep_their_virtual_times() {
    let rd = CollectiveConfig {
        reduce: ReduceAlgo::FlatRecursiveDoubling,
        ..CollectiveConfig::two_level()
    };
    let mut now = Vec::new();
    for images in [3, 4, 8] {
        for len in [1, 160] {
            let t = one_node_sum(CollectiveConfig::two_level(), images, len);
            if images.is_power_of_two() {
                assert_eq!(
                    t,
                    one_node_sum(rd, images, len),
                    "{images}(1), len {len}: two_level must be recursive doubling"
                );
            }
            now.push((images, len, t));
        }
    }
    let pinned: Vec<_> = ONE_NODE_PIN
        .iter()
        .map(|(images, len, t)| (*images, *len, t.to_vec()))
        .collect();
    if now != pinned {
        let mut out = String::new();
        for (images, len, t) in &now {
            out.push_str(&format!("    ({images}, {len}, &{t:?}),\n"));
        }
        panic!("one-node virtual times moved; the table now reads:\n{out}");
    }
}

/// `(images, u64 elements, clocks)`; the 3(1) rows were recorded before a
/// one-node team of power-of-two size stopped reducing two-level.
#[rustfmt::skip]
const ONE_NODE_PIN: &[(usize, usize, &[u64])] = &[
    (3, 1, &[3744, 3714, 3846]),
    (3, 160, &[9440, 9410, 9860]),
    (4, 1, &[5504, 5402, 5424, 5322]),
    (4, 160, &[13454, 13034, 13374, 12954]),
    (8, 1, &[9374, 9068, 9272, 8864, 9294, 8988, 9192, 8784]),
    (8, 160, &[23482, 21802, 23062, 21382, 23402, 21722, 22982, 21302]),
];
