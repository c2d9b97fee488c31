//! Differential property test: the sharded lazy event queue
//! ([`caf_fabric::ShardedEvq`]) must pop in exactly the order of a single
//! global `BinaryHeap<Reverse<(EvKey, u64)>>` for *any* interleaving of
//! pushes and pops — including equal-time events whose order is decided by
//! the chaos-style `tie` word and, past that, by the insertion sequence
//! number. This is the pop-order oracle behind the simulator's bit-for-bit
//! determinism guarantee, so the sharded core can never be "mostly
//! ordered": one transposition would change flag-delivery order and with
//! it every downstream virtual time.

use caf_fabric::{
    run_stepped, EvKey, FlagId, ShardedEvq, SimConfig, SimFabric, StepOp, StepProgram,
};
use caf_topology::{presets, ImageMap, Placement, SoftwareOverheads};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// One scripted step against both queues.
#[derive(Clone, Debug)]
enum Step {
    /// Push onto `shard % shards` with a (possibly colliding) time and a
    /// chaos-priority-style tie word.
    Push { shard: usize, time: u64, tie: u64 },
    /// Pop once from both queues and compare.
    Pop,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // 3:2 push:pop mix, encoded through a selector byte (the vendored
    // proptest shim has no `prop_oneof`).
    (0u8..5, any::<usize>(), 0u64..64, any::<u64>()).prop_map(|(pick, shard, time, tie)| {
        if pick < 3 {
            Step::Push { shard, time, tie }
        } else {
            Step::Pop
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_queue_pops_match_a_global_heap(
        shards in 1usize..9,
        steps in proptest::collection::vec(step_strategy(), 1..200),
    ) {
        let mut sharded: ShardedEvq<u64> = ShardedEvq::new(shards);
        let mut reference: BinaryHeap<Reverse<(EvKey, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for step in steps {
            match step {
                Step::Push { shard, time, tie } => {
                    // `seq` uniquifies keys exactly as the simulator's
                    // event counter does; the payload remembers it so a
                    // mismatched pop names the offending event.
                    let key = EvKey { time, tie, seq };
                    seq += 1;
                    sharded.push(shard % shards, key, key.seq);
                    reference.push(Reverse((key, key.seq)));
                }
                Step::Pop => {
                    let got = sharded.pop();
                    let want = reference.pop().map(|Reverse((k, p))| (k, p));
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(sharded.len(), reference.len());
            prop_assert_eq!(sharded.is_empty(), reference.is_empty());
        }
        // Drain both completely: the tail must agree too, or a lazily
        // deferred shard head could hide an ordering bug past the last
        // scripted pop.
        while let Some(want) = reference.pop() {
            let Reverse((k, p)) = want;
            prop_assert_eq!(sharded.pop(), Some((k, p)));
        }
        prop_assert_eq!(sharded.pop(), None);
        prop_assert!(sharded.is_empty());
    }

    #[test]
    fn equal_time_pops_follow_tie_then_seq(
        shards in 1usize..5,
        ties in proptest::collection::vec(any::<u64>(), 2..40),
    ) {
        // All events at one timestamp, scattered round-robin over shards:
        // pop order must be (tie, seq) — the simulator's chaos reorder
        // contract — regardless of which shard each event landed on.
        let mut sharded: ShardedEvq<usize> = ShardedEvq::new(shards);
        let mut expect: Vec<EvKey> = Vec::new();
        for (i, &tie) in ties.iter().enumerate() {
            let key = EvKey { time: 7, tie, seq: i as u64 };
            sharded.push(i % shards, key, i);
            expect.push(key);
        }
        expect.sort();
        for key in expect {
            let (got, payload) = sharded.pop().expect("queue drained early");
            prop_assert_eq!(got, key);
            prop_assert_eq!(payload as u64, key.seq);
        }
        prop_assert!(sharded.is_empty());
    }
}

/// One scripted step of the simulator's own pattern: a push is never
/// earlier than the time last popped.
#[derive(Clone, Debug)]
enum MonotoneStep {
    /// Push at the last popped time plus `delay` (0 = an equal-time burst).
    Push {
        delay: u64,
        tie: u64,
    },
    Pop,
}

fn monotone_strategy() -> impl Strategy<Value = MonotoneStep> {
    // Delays span "same instant", "same 64 ns digit", "a few µs" and "far
    // ahead", so entries land in the run, the side heap and several levels
    // of buckets; ties are hashed priorities, as `event_tiebreak` makes.
    (0u8..5, 0u8..4, any::<u64>(), any::<u64>()).prop_map(|(pick, span, raw, tie)| {
        if pick < 3 {
            let delay = raw % [1, 64, 4096, 1 << 40][span as usize];
            MonotoneStep::Push { delay, tie }
        } else {
            MonotoneStep::Pop
        }
    })
}

/// An operation on one image's turn, or on all of them.
#[derive(Clone, Debug)]
enum TurnStep {
    /// Clock advance (or wake, if the image had no turn): a turn `delay`
    /// after the head's time.
    Advance { rank: usize, delay: u64 },
    /// Block or kill: the image gives up its turn.
    Drop { rank: usize },
    /// An event `delay` after the head's time.
    Event { delay: u64, tie: u64 },
    /// Take whatever is at the head: a due event, or the next image's turn
    /// (which that image then gives up).
    Take,
    /// Chaos reshuffle: every image gets a new priority.
    Reshuffle { salt: u64 },
}

fn turn_strategy(images: usize) -> impl Strategy<Value = TurnStep> {
    (0u8..10, 0..images, 0u8..3, any::<u64>(), any::<u64>()).prop_map(
        |(pick, rank, span, raw, tie)| {
            let delay = raw % [1, 200, 1 << 20][span as usize];
            match pick {
                0..=3 => TurnStep::Advance { rank, delay },
                4 => TurnStep::Drop { rank },
                5..=6 => TurnStep::Event { delay, tie },
                7..=8 => TurnStep::Take,
                _ => TurnStep::Reshuffle { salt: raw },
            }
        },
    )
}

/// What the model holds: `(time, class, tie | prio, seq | rank)`, events
/// being class 0 and turns class 1.
type ModelKey = (u64, u8, u64, u64);

fn prio_of(salt: u64, rank: usize) -> u64 {
    (salt ^ rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn monotone_pushes_pop_like_a_global_heap_and_never_fall_behind(
        steps in proptest::collection::vec(monotone_strategy(), 1..400),
    ) {
        let mut q: ShardedEvq<u64> = ShardedEvq::new(1);
        let mut reference: BinaryHeap<Reverse<(EvKey, u64)>> = BinaryHeap::new();
        let (mut seq, mut now) = (0u64, 0u64);
        for step in steps {
            match step {
                MonotoneStep::Push { delay, tie } => {
                    let key = EvKey { time: now + delay, tie, seq };
                    seq += 1;
                    q.push(0, key, key.seq);
                    reference.push(Reverse((key, key.seq)));
                }
                MonotoneStep::Pop => {
                    let want = reference.pop().map(|Reverse(kp)| kp);
                    prop_assert_eq!(q.pop(), want);
                    now = want.map_or(now, |(k, _)| k.time);
                }
            }
            prop_assert_eq!(q.len(), reference.len());
        }
        while let Some(Reverse(want)) = reference.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(q.footprint().behind_pushes, 0);
    }

    #[test]
    fn versioned_turns_match_an_ordered_set(
        images in 1usize..24,
        steps in proptest::collection::vec(turn_strategy(24), 1..400),
    ) {
        let mut q: ShardedEvq<u64> = ShardedEvq::with_images(images);
        let mut model: BTreeSet<ModelKey> = BTreeSet::new();
        // The model's copy of each image's live turn, and of its priority.
        let mut turn: Vec<Option<ModelKey>> = vec![None; images];
        let mut prio: Vec<u64> = vec![0; images];
        // `now` is the head's time (the head is read after every step):
        // like the simulator, nothing is pushed earlier than that.
        let (mut seq, mut now) = (0u64, 0u64);
        for step in steps {
            match step {
                TurnStep::Advance { rank, delay } => {
                    let rank = rank % images;
                    if let Some(old) = turn[rank].take() {
                        model.remove(&old);
                    }
                    let key = (now + delay, 1, prio[rank], rank as u64);
                    model.insert(key);
                    turn[rank] = Some(key);
                    q.set_turn(rank, now + delay, prio[rank]);
                }
                TurnStep::Drop { rank } => {
                    let rank = rank % images;
                    if let Some(old) = turn[rank].take() {
                        model.remove(&old);
                    }
                    q.drop_turn(rank);
                }
                TurnStep::Event { delay, tie } => {
                    model.insert((now + delay, 0, tie, seq));
                    q.push(0, EvKey { time: now + delay, tie, seq }, seq);
                    seq += 1;
                }
                TurnStep::Take => match model.pop_first() {
                    Some((time, 0, tie, s)) => {
                        prop_assert_eq!(q.next_turn(), None);
                        prop_assert_eq!(q.pop(), Some((EvKey { time, tie, seq: s }, s)));
                    }
                    Some((_, _, _, rank)) => {
                        prop_assert_eq!(q.pop(), None);
                        prop_assert_eq!(q.next_turn(), Some(rank as usize));
                        q.drop_turn(rank as usize);
                        turn[rank as usize] = None;
                    }
                    None => {
                        prop_assert_eq!(q.pop(), None);
                        prop_assert_eq!(q.next_turn(), None);
                    }
                },
                TurnStep::Reshuffle { salt } => {
                    for rank in 0..images {
                        prio[rank] = prio_of(salt, rank);
                        if let Some(old) = turn[rank] {
                            model.remove(&old);
                            let new = (old.0, 1, prio[rank], rank as u64);
                            model.insert(new);
                            turn[rank] = Some(new);
                        }
                    }
                    q.rekey_turns(|rank| prio_of(salt, rank));
                }
            }
            // The live head is the model's minimum, whichever class it is.
            match model.first() {
                Some(&(time, 0, tie, s)) => {
                    prop_assert_eq!(q.peek_key(), Some(EvKey { time, tie, seq: s }));
                    prop_assert_eq!(q.next_turn(), None);
                }
                Some(&(_, _, _, rank)) => {
                    prop_assert_eq!(q.peek_key(), None);
                    prop_assert_eq!(q.next_turn(), Some(rank as usize));
                }
                None => {
                    prop_assert_eq!(q.peek_key(), None);
                    prop_assert_eq!(q.next_turn(), None);
                }
            }
            now = model.first().map_or(now, |key| key.0);
            let live_turns = turn.iter().flatten().count();
            prop_assert_eq!(q.turns(), live_turns);
            prop_assert_eq!(q.len(), model.len() - live_turns);
        }
    }
}

/// The benchmark probe's pattern (`benchmark/src/probes.rs`): a steady
/// depth of 4096 with keys drawn from a window that drifts far slower than
/// the minimum rises, so in steady state most pushes are *behind* the last
/// pop. They must still come out in heap order, through the side heap.
#[test]
fn pushes_behind_the_last_pop_still_pop_like_a_global_heap() {
    let mix = |x: u64| {
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) >> 11
    };
    let mut q: ShardedEvq<u32> = ShardedEvq::new(64);
    let mut reference: BinaryHeap<Reverse<EvKey>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |q: &mut ShardedEvq<u32>, reference: &mut BinaryHeap<Reverse<EvKey>>| {
        seq += 1;
        let key = EvKey {
            time: mix(seq) % 1_000_000 + seq,
            tie: 0,
            seq,
        };
        q.push((seq % 64) as usize, key, 0);
        reference.push(Reverse(key));
    };
    for _ in 0..4096 {
        push(&mut q, &mut reference);
    }
    for _ in 0..40_000 {
        push(&mut q, &mut reference);
        let want = reference.pop().map(|Reverse(k)| (k, 0));
        assert_eq!(q.pop(), want);
    }
    let behind = q.footprint().behind_pushes;
    assert!(
        behind > 20_000,
        "the pattern no longer exercises pushes behind the last pop ({behind} of 40000)"
    );
}

/// Traffic for the footprint test: every lap each image notifies its
/// right-hand neighbour and the image one node over, then waits for its
/// own two notifications.
struct Ring {
    me: usize,
    n: usize,
    laps: u64,
    step: u64,
}

impl StepProgram for Ring {
    fn next(&mut self) -> StepOp {
        let (lap, at) = (self.step / 3, self.step % 3);
        if lap == self.laps {
            return StepOp::Done;
        }
        self.step += 1;
        let (flag, delta) = (FlagId(2), 1);
        let at_least = 2 * (lap + 1);
        match at {
            0 => StepOp::FlagAdd {
                dst: (self.me + 1) % self.n,
                flag,
                delta,
            },
            1 => StepOp::FlagAdd {
                dst: (self.me + 512) % self.n,
                flag,
                delta,
            },
            _ => StepOp::WaitGe { flag, at_least },
        }
    }
}

/// After 10 000 images have gone round the ring eight times the queue
/// holds on to little more than it ever had to hold at once — no bucket
/// keeps a high-water mark of its own — and the simulator never pushed
/// behind the last pop.
#[test]
fn footprint_follows_the_high_water_mark_of_queued_entries() {
    let (n, per_node) = (10_000usize, 512usize);
    let map = ImageMap::new(
        presets::mini(n.div_ceil(per_node), per_node),
        n,
        &Placement::Block { per_node },
    );
    let fabric = SimFabric::new(
        map,
        SimConfig {
            cost: presets::whale_cost(),
            overheads: SoftwareOverheads::NONE,
            chaos: None,
            legacy_queue: false,
            bootstrap_slots: Some(4),
            ..SimConfig::default()
        },
    );
    let (laps, step) = (8, 0);
    let progs: Vec<_> = (0..n).map(|me| Ring { me, n, laps, step }).collect();
    let report = run_stepped(&fabric, progs);
    assert_eq!(report.total_ops(), n as u64 * (3 * laps + 1));
    let f = fabric.queue_footprint().expect("the default core");
    assert_eq!(f.behind_pushes, 0);
    assert!(
        f.queued_hwm >= n && f.queued_hwm <= 3 * n,
        "{} entries queued at once for {n} images",
        f.queued_hwm
    );
    assert!(
        f.retained <= 2 * f.queued_hwm,
        "retained room for {} entries, high-water mark {}",
        f.retained,
        f.queued_hwm
    );
}
