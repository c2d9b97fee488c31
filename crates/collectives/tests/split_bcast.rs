//! The split-phase broadcast (`co_broadcast_begin` / `co_broadcast_finish`):
//! back to back it is `co_broadcast`, op for op; apart, two broadcasts per
//! team may be in flight and no slot is reused early, however far a chain
//! of fast roots runs ahead of a slow receiver; a third `begin` finishes
//! the oldest, a barrier all of them; a hosted episode that splits its
//! broadcasts matches its threaded run; and a team dropped with one
//! unfinished says which rank did it.

use caf_collectives::{hosted, BcastAlgo, CollectiveConfig, Provisioned, SizePolicy, TeamComm};
use caf_fabric::{
    panic_message, run_spmd, run_stepped, ArcFabric, ChaosConfig, Fabric, SimConfig, SimFabric,
    StatsSnapshot, ThreadConfig, ThreadFabric,
};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const ALGOS: [BcastAlgo; 4] = [
    BcastAlgo::FlatLinear,
    BcastAlgo::FlatBinomial,
    BcastAlgo::TwoLevel,
    BcastAlgo::TwoLevelPipelined,
];

/// 8 u64 elements per chunk: a 25-element payload streams in four chunks.
const POLICY: SizePolicy = SizePolicy {
    chunk_bytes: 64,
    crossover_bytes: usize::MAX,
};
const LEN: usize = 25;

/// Whale with 4 / 3 / 1 images on three nodes, ranks interleaved
/// (`virtual_time_pin.rs`' placement), or three nodes of four.
fn map(ragged: bool) -> ImageMap {
    if ragged {
        let cores = vec![0, 8, 1, 16, 12, 2, 5, 13];
        ImageMap::new(presets::whale(), cores.len(), &Placement::Custom(cores))
    } else {
        ImageMap::new(presets::mini(3, 4), 12, &Placement::Block { per_node: 4 })
    }
}

fn sim(ragged: bool, chaos: Option<ChaosConfig>) -> Arc<SimFabric> {
    let config = SimConfig {
        chaos,
        ..SimConfig::default()
    };
    SimFabric::new(map(ragged), config)
}

fn config(bcast: BcastAlgo) -> CollectiveConfig {
    CollectiveConfig {
        bcast,
        ..CollectiveConfig::two_level()
    }
}

/// Episode `e`'s payload, distinct per episode and element.
fn payload(e: usize) -> Vec<u64> {
    (0..LEN as u64).map(|i| ((e as u64) << 32) | i).collect()
}

/// Run `body(team, me)` on every image of `fabric` with a fresh initial
/// team under `cfg`.
fn with_team(
    fabric: ArcFabric,
    cfg: CollectiveConfig,
    body: impl Fn(&mut TeamComm, ProcId) + Send + Sync + 'static,
) {
    let f = fabric.clone();
    run_spmd(fabric, move |me| {
        let mut boot = 0u64;
        let mut team = TeamComm::create_initial(f.clone(), me, cfg, &mut boot);
        team.set_size_policy(POLICY);
        body(&mut team, me);
        f.image_done(me);
    });
}

/// `(per-image clocks, counters)` after four rotating-root broadcasts, as
/// `co_broadcast` or as `begin` + `finish` back to back.
fn back_to_back(ragged: bool, algo: BcastAlgo, split: bool) -> (Vec<u64>, StatsSnapshot) {
    let sim = sim(ragged, None);
    let n = sim.n_images();
    with_team(sim.clone(), config(algo), move |team, me| {
        for e in 1..=4 {
            let root = (3 * e) % n;
            let mut v = if team.rank() == root {
                payload(e)
            } else {
                vec![0; LEN]
            };
            if split {
                team.co_broadcast_begin(&mut v, root);
                team.co_broadcast_finish();
            } else {
                team.co_broadcast(&mut v, root);
            }
            assert_eq!(v, payload(e), "{algo:?} episode {e} at {me:?}");
        }
    });
    let clocks = (0..n).map(|i| sim.now_ns(ProcId(i))).collect();
    (clocks, sim.stats().snapshot())
}

#[test]
fn begin_then_finish_is_co_broadcast_op_for_op() {
    for ragged in [true, false] {
        for algo in ALGOS {
            let (joined, split) = (
                back_to_back(ragged, algo, false),
                back_to_back(ragged, algo, true),
            );
            let what = format!("{algo:?}, ragged {ragged}");
            assert_eq!(joined.0, split.0, "per-image clocks: {what}");
            assert_eq!(joined.1, split.1, "counters: {what}");
            if algo == BcastAlgo::TwoLevelPipelined {
                assert!(split.1.puts_nb_injected > 0, "{what}: not streamed");
            }
        }
    }
}

/// Rotating roots, and one image that arrives late at every `begin`;
/// members never finish a broadcast before the closing barrier, so a chain
/// of fast roots runs up to two broadcasts ahead of the late image.
/// Whatever anyone reads is its episode's payload: no root overwrote a
/// slot before the broadcast that last used it had finished.
fn slow_receiver(
    fabric: ArcFabric,
    algo: BcastAlgo,
    delay: impl Fn(ProcId) + Send + Sync + 'static,
) {
    let n = fabric.n_images();
    let slow = n - 1;
    with_team(fabric, config(algo), move |team, me| {
        for e in 1..=2 * n {
            let root = e % n;
            if team.rank() == slow {
                delay(me);
            }
            let mut v = if team.rank() == root {
                payload(e)
            } else {
                vec![0; LEN]
            };
            team.co_broadcast_begin(&mut v, root);
            assert_eq!(v, payload(e), "{algo:?} episode {e} at {me:?}");
            // Every other root finishes at once, as HPL's do.
            if team.rank() == root && e % 2 == 1 {
                team.co_broadcast_finish();
            }
        }
        team.barrier();
    });
}

#[test]
fn a_slow_receiver_reads_every_payload_on_the_simulator() {
    for algo in ALGOS {
        let sim = sim(true, None);
        let f = sim.clone();
        slow_receiver(sim, algo, move |me| f.compute(me, 40_000));
    }
}

#[test]
fn a_slow_receiver_reads_every_payload_under_chaos() {
    for seed in [3, 11, 29] {
        let chaos = ChaosConfig {
            completion_delay_ns: 900,
            duplicate_completions: true,
            ..ChaosConfig::from_seed(seed)
        };
        for algo in ALGOS {
            let sim = sim(false, Some(chaos));
            let f = sim.clone();
            slow_receiver(sim, algo, move |me| f.compute(me, 40_000));
        }
    }
}

#[test]
fn a_slow_receiver_reads_every_payload_on_threads() {
    for algo in ALGOS {
        let threads = ThreadFabric::new(map(false), ThreadConfig::default());
        slow_receiver(threads, algo, |_| {
            std::thread::sleep(Duration::from_micros(300))
        });
    }
}

/// Why each parity has its own counters. Four images, binomial trees,
/// roots alternating 2 and 0, each root finishing at once; image 1 is
/// late at every `begin`. In root 0's episodes image 3 hangs below image
/// 1, while in root 2's episodes it is root 2's direct child — so root 2
/// sends episode e + 1 to image 3 while image 3 still waits for episode e
/// (and for e − 2's release) through image 1. With one set of cumulative
/// counters that early arrival (and root 2's early release of e − 1)
/// would count as image 3's, and it would read a slot before its data
/// landed.
#[test]
fn a_later_episode_never_passes_for_an_earlier_one() {
    for chaos in [None, Some(ChaosConfig::from_seed(5))] {
        let sim = SimFabric::new(
            ImageMap::new(presets::mini(4, 1), 4, &Placement::Packed),
            SimConfig {
                chaos,
                ..SimConfig::default()
            },
        );
        let f = sim.clone();
        with_team(sim, config(BcastAlgo::FlatBinomial), move |team, me| {
            team.co_broadcast(&mut payload(0), 0);
            for e in 1..=8 {
                let root = 2 * (e % 2);
                if me.index() == 1 {
                    f.compute(me, 40_000);
                }
                let mut v = if team.rank() == root {
                    payload(e)
                } else {
                    vec![0; LEN]
                };
                team.co_broadcast_begin(&mut v, root);
                assert_eq!(v, payload(e), "episode {e} at {me:?}");
                if team.rank() == root {
                    team.co_broadcast_finish();
                }
            }
            team.barrier();
        });
    }
}

/// Image 3 reaches its first `begin` 1 ms late. Image 0, root of episode 1,
/// does not wait for it in `begin(2)` — episode 1 stays in flight — but
/// does in `begin(3)`, which must finish episode 1 first. A barrier then
/// finishes episodes 2 and 3: the team drops cleanly.
#[test]
fn a_third_begin_finishes_the_oldest_and_a_barrier_all() {
    let fabric = SimFabric::new(
        ImageMap::new(presets::mini(4, 1), 4, &Placement::Packed),
        SimConfig::default(),
    );
    let f = fabric.clone();
    // Image 3's clock when it starts its first `begin`, then image 0's
    // after each of its three.
    let seen = Arc::new(Mutex::new(vec![0u64]));
    let s = seen.clone();
    with_team(fabric, config(BcastAlgo::FlatLinear), move |team, me| {
        // Grow the scratch (a collective exchange) before anyone is late.
        team.co_broadcast(&mut payload(0), 0);
        if me.index() == 3 {
            f.compute(me, 1_000_000);
            s.lock().unwrap()[0] = f.now_ns(me);
        }
        for e in 1..=3 {
            let root = e - 1;
            let mut v = if team.rank() == root {
                payload(e)
            } else {
                vec![0; LEN]
            };
            team.co_broadcast_begin(&mut v, root);
            assert_eq!(v, payload(e));
            if me.index() == 0 {
                s.lock().unwrap().push(f.now_ns(me));
            }
        }
        team.barrier();
    });
    let t = seen.lock().unwrap().clone();
    let late = t[0];
    assert!(
        t[2] < late,
        "begin(2) waited for episode 1's last ack: {t:?}"
    );
    assert!(t[3] > late, "begin(3) did not finish episode 1: {t:?}");
}

/// A hosted episode that splits its broadcast around a `co_sum` steps to
/// the same clocks and counters as the same episode on image threads.
#[test]
fn a_hosted_split_broadcast_matches_the_threaded_run() {
    let episode = || {
        let mut e = 0usize;
        move |c: &mut TeamComm| {
            e += 1;
            c.set_size_policy(POLICY);
            let mut v = vec![e as u64; LEN];
            c.co_broadcast_begin(&mut v, (3 * e) % c.size());
            c.co_sum(&mut [e as u64; 3]);
            if e.is_multiple_of(2) {
                c.co_broadcast_finish();
            }
        }
    };
    for ragged in [true, false] {
        for algo in ALGOS {
            let provision = |sim: &SimFabric| {
                let members = (0..sim.n_images()).map(ProcId).collect();
                Provisioned::new(sim, members, config(algo), 8 * LEN)
            };
            let hosted = sim(ragged, None);
            let team = provision(&hosted);
            run_stepped(&hosted, hosted::fleet(&hosted, &team, 4, episode()));

            let threaded = sim(ragged, None);
            let team = provision(&threaded);
            let f = threaded.clone();
            run_spmd(threaded.clone(), move |me| {
                let mut comm = team.comm(f.clone(), me.index());
                let mut episode = episode();
                for _ in 0..4 {
                    episode(&mut comm);
                }
                drop(comm);
                f.image_done(me);
            });

            let what = format!("{algo:?}, ragged {ragged}");
            let clocks = |s: &SimFabric| -> Vec<u64> {
                (0..s.n_images()).map(|i| s.now_ns(ProcId(i))).collect()
            };
            assert_eq!(clocks(&hosted), clocks(&threaded), "clocks: {what}");
            assert_eq!(
                hosted.stats().snapshot(),
                threaded.stats().snapshot(),
                "counters: {what}"
            );
        }
    }
}

#[test]
fn dropping_a_team_with_a_broadcast_unfinished_names_the_rank() {
    // A root's `begin` only sends, so one thread can play rank 2 alone.
    let threads: ArcFabric = ThreadFabric::new(map(false), ThreadConfig::default());
    let members = (0..threads.n_images()).map(ProcId).collect();
    let team = Provisioned::new(&*threads, members, config(BcastAlgo::FlatLinear), 8 * LEN);
    let mut comm = team.comm(threads.clone(), 2);
    comm.co_broadcast_begin(&mut payload(1), 2);
    let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(comm)));
    let msg = panic_message(&*dropped.expect_err("an unfinished broadcast must be refused"));
    assert_eq!(
        msg,
        "image 2: team rank 2 dropped its team with broadcast 1 begun and not finished — \
         call co_broadcast_finish (or sync the team) first"
    );
}
