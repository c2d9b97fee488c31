//! One monotone queue under the simulator: pending events *and* image
//! turns, radix-bucketed on virtual time.
//!
//! The conservative simulator asks one question on every scheduling
//! decision: what comes next — an event that is due, or an image's commit
//! turn? Both kinds of entry live here, in one queue, so the answer is a
//! read of its head:
//!
//! * an **event** (a flag arrival, a NIC landing, an AM batch) carries a
//!   payload, kept in a slab arena so the queue itself moves only 32-byte
//!   entries and event records are recycled instead of churning the
//!   allocator;
//! * a **turn** says "image `rank` may commit at `time`". An image has at
//!   most one *live* turn. Every change to it — clock advance, block, wake,
//!   death — bumps the image's version and pushes at most one fresh entry;
//!   the superseded entry stays where it is and falls out when it reaches
//!   the head (its version no longer matches).
//!
//! # Ordering contract
//!
//! Entries come out in ascending `(time, class, tie, seq)` order:
//!
//! * `class` puts every event before every turn of the same `time`. That
//!   *is* the simulator's rule "an event is due iff its time is at or
//!   before the minimal alive clock": with the rule folded into the key,
//!   draining due events is "pop while the head is an event", the next
//!   eligible image is the head once it is a turn, and a deadlock is an
//!   empty queue.
//! * for an event, `(tie, seq)` are [`EvKey`]'s: the chaos tie-break (0
//!   under the default scheduler) and the unique push sequence number —
//!   exactly the order of the reference `BinaryHeap<Reverse<(EvKey, _)>>`;
//! * for a turn they are `(prio, rank)`: the PCT priority (all zero without
//!   chaos) and the image rank, so the lowest rank wins an exact tie just
//!   as the reference `min_by_key` scan over alive images picks it.
//!
//! # Why radix buckets
//!
//! The simulator never pushes earlier than the time the queue has reached
//! (`last`, the time of the entries popped last):
//!
//! 1. an image commits only once every event due at its clock is drained,
//!    and whatever it posts arrives at or after that clock;
//! 2. a wake lands at the time of the event that caused it — the entry
//!    just popped;
//! 3. a `Landing` schedules its `FlagArrive` forward of itself.
//!
//! So an entry can be filed by where its time first differs from `last`:
//! its *level* is the highest 6-bit digit in which the two differ, its
//! bucket that digit's value. Push is O(1). The minimum is in the lowest
//! non-empty bucket of the lowest non-empty level; when that bucket is
//! *opened* its minimal time becomes the new `last`, its entries at that
//! time become the **run** — sorted once by the rest of the key and popped
//! from its end — and the others move to strictly lower levels. An entry
//! moves at most once per digit, sequentially, instead of being sifted
//! through a heap whose depth grows with the fleet.
//!
//! Buckets are chains of fixed-size chunks drawn from one pool and handed
//! back as they empty, so the queue's footprint follows the number of
//! entries queued at once, not each bucket's own high-water mark.
//! [`ShardedEvq::with_images`] reserves (without touching) what the t = 0
//! burst takes — every image's first turn in the run, then one event and
//! one next turn apiece in the pool — so none of it is reached by doubling.
//!
//! # A push at or behind `last`
//!
//! Nothing here *requires* monotone pushes: the queue stays a correct
//! general priority queue (`tests/evq_differential.rs` holds it to a
//! `BinaryHeap` under arbitrary interleavings). An entry at `last` that
//! sorts before the whole run extends it; any other entry at or before
//! `last` (a wake-up turn behind the events of its instant; in general use,
//! a key earlier than the last pop) joins a small **side heap** ordered by
//! the full key, and whichever of run and side heap holds the smaller head
//! pops first. That costs O(log k) in the number of such entries; `last`
//! never moves backwards and nothing is rebuilt. The simulator never pushes
//! *earlier* than `last` ([`Footprint::behind_pushes`] stays 0).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total-order key of a simulator event: virtual due `time`, the chaos
/// `tie` (0 under the default scheduler, a hashed priority under chaos
/// reordering), and the globally unique push sequence number `seq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EvKey {
    /// Virtual time at which the event comes due.
    pub time: u64,
    /// Same-time tie-break (chaos reordering); 0 = FIFO by `seq`.
    pub tie: u64,
    /// Unique, monotonically assigned push sequence number.
    pub seq: u64,
}

const EVENT: u32 = 0;
const TURN: u32 = 1;

/// One queued entry. Field order is sort order: `(time, class, tie, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: u64,
    /// [`EVENT`] or [`TURN`].
    class: u32,
    /// An event's `tie`; a turn's `prio`.
    tie: u64,
    /// An event's `seq`; a turn's image rank.
    seq: u64,
    /// An event's arena slot; the version a turn was pushed at.
    tag: u32,
}

impl Entry {
    const ZERO: Entry = Entry {
        time: 0,
        class: EVENT,
        tie: 0,
        seq: 0,
        tag: 0,
    };

    /// An event entry's key.
    fn key(&self) -> EvKey {
        EvKey {
            time: self.time,
            tie: self.tie,
            seq: self.seq,
        }
    }
}

/// Bits per radix digit: an entry's *level* is the highest digit in which
/// its time differs from `last`, its bucket that digit's value.
const BITS: u32 = 6;
/// Buckets per level.
const WIDTH: usize = 1 << BITS;
/// Digits in a `u64` time.
const LEVELS: usize = 64usize.div_ceil(BITS as usize);
/// Entries per chunk of a bucket's chain.
const CHUNK: usize = 64;
/// "No chunk": end of a chain, empty bucket, empty free list.
const NIL: u32 = u32::MAX;

/// Bookkeeping of one chunk; its entries are `pool[c * CHUNK..][..len]`.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    len: u32,
    next: u32,
}

/// The monotone priority queue of bare entries; see the module docs.
#[derive(Debug)]
struct Radix {
    /// Time of the bucket opened last; every bucketed entry is later.
    last: u64,
    /// The opened bucket's entries at `last`, sorted descending by the
    /// full key: the minimum is at the end.
    run: Vec<Entry>,
    /// Entries pushed at or before `last` that could not extend `run`;
    /// whichever of the two heads is smaller pops first.
    side: BinaryHeap<Reverse<Entry>>,
    /// `heads[level * WIDTH + digit]`: first chunk of the chain of entries
    /// whose time agrees with `last` above digit `level` and has `digit`
    /// there (necessarily a higher one than `last`'s).
    heads: [u32; LEVELS * WIDTH],
    /// Minimal time in each bucket (valid while it is non-empty).
    mins: [u64; LEVELS * WIDTH],
    /// `masks[level]`: bit `digit` set = that bucket is non-empty.
    masks: [u64; LEVELS],
    /// Bit `level` set = `masks[level]` is non-zero.
    levels: u32,
    pool: Vec<Entry>,
    chunks: Vec<Chunk>,
    /// Chain of handed-back chunks.
    free: u32,
    queued: usize,
    queued_hwm: usize,
    behind_pushes: u64,
}

impl Radix {
    fn new() -> Self {
        Self {
            last: 0,
            run: Vec::new(),
            side: BinaryHeap::new(),
            heads: [NIL; LEVELS * WIDTH],
            mins: [0; LEVELS * WIDTH],
            masks: [0; LEVELS],
            levels: 0,
            pool: Vec::new(),
            chunks: Vec::new(),
            free: NIL,
            queued: 0,
            queued_hwm: 0,
            behind_pushes: 0,
        }
    }

    #[inline]
    fn push(&mut self, e: Entry) {
        self.queued += 1;
        self.queued_hwm = self.queued_hwm.max(self.queued);
        if e.time > self.last {
            self.file(e);
        } else if e.time == self.last && self.run.last().is_none_or(|min| e < *min) {
            self.run.push(e);
        } else {
            self.behind_pushes += u64::from(e.time < self.last);
            self.side.push(Reverse(e));
        }
    }

    /// File `e`, which is later than `last`, in its bucket.
    #[inline]
    fn file(&mut self, e: Entry) {
        let level = (63 - (e.time ^ self.last).leading_zeros()) / BITS;
        let digit = (e.time >> (level * BITS)) as usize & (WIDTH - 1);
        let b = level as usize * WIDTH + digit;
        let mut c = self.heads[b];
        if c == NIL {
            self.masks[level as usize] |= 1 << digit;
            self.levels |= 1 << level;
            self.mins[b] = e.time;
        } else {
            self.mins[b] = self.mins[b].min(e.time);
        }
        if c == NIL || self.chunks[c as usize].len as usize == CHUNK {
            c = self.take_chunk(c);
            self.heads[b] = c;
        }
        let chunk = &mut self.chunks[c as usize];
        self.pool[c as usize * CHUNK + chunk.len as usize] = e;
        chunk.len += 1;
    }

    /// An empty chunk linked in front of `next`: recycled, else new.
    fn take_chunk(&mut self, next: u32) -> u32 {
        let c = if self.free != NIL {
            let c = self.free;
            self.free = self.chunks[c as usize].next;
            c
        } else {
            self.pool.resize(self.pool.len() + CHUNK, Entry::ZERO);
            self.chunks.push(Chunk { len: 0, next: NIL });
            (self.chunks.len() - 1) as u32
        };
        self.chunks[c as usize] = Chunk { len: 0, next };
        c
    }

    /// Open the nearest non-empty bucket: its minimum becomes `last`, its
    /// entries at that time become the sorted run, the rest move to
    /// strictly lower levels, its chunks go back to the pool.
    fn open_nearest_bucket(&mut self) {
        let level = self.levels.trailing_zeros() as usize;
        let mask = &mut self.masks[level];
        let b = level * WIDTH + mask.trailing_zeros() as usize;
        *mask &= *mask - 1;
        if *mask == 0 {
            self.levels &= self.levels - 1;
        }
        self.last = self.mins[b];
        let mut c = std::mem::replace(&mut self.heads[b], NIL);
        while c != NIL {
            let Chunk { len, next } = self.chunks[c as usize];
            for i in 0..len as usize {
                let e = self.pool[c as usize * CHUNK + i];
                if e.time == self.last {
                    self.run.push(e);
                } else {
                    self.file(e);
                }
            }
            self.chunks[c as usize].next = self.free;
            self.free = c;
            c = next;
        }
        self.run.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// The minimal entry.
    #[inline]
    fn peek(&mut self) -> Option<Entry> {
        if self.run.is_empty() && self.side.is_empty() {
            if self.levels == 0 {
                return None;
            }
            self.open_nearest_bucket();
        }
        match (self.run.last(), self.side.peek()) {
            (Some(r), Some(Reverse(s))) => Some(*r.min(s)),
            (r, s) => r.or(s.map(|Reverse(s)| s)).copied(),
        }
    }

    /// Remove the entry [`Self::peek`] just returned.
    #[inline]
    fn pop_peeked(&mut self) {
        match (self.run.last(), self.side.peek()) {
            (Some(r), Some(Reverse(s))) if s < r => self.side.pop().map(|Reverse(s)| s),
            (Some(_), _) => self.run.pop(),
            (None, _) => self.side.pop().map(|Reverse(s)| s),
        };
        self.queued -= 1;
    }

    /// Rewrite every queued entry in place. `f` must not change `time`.
    fn for_each_mut(&mut self, mut f: impl FnMut(&mut Entry)) {
        self.run.iter_mut().for_each(&mut f);
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        let mut side = std::mem::take(&mut self.side).into_vec();
        side.iter_mut().for_each(|Reverse(e)| f(e));
        self.side = BinaryHeap::from(side);
        let mut levels = self.levels;
        while levels != 0 {
            let level = levels.trailing_zeros() as usize;
            levels &= levels - 1;
            let mut mask = self.masks[level];
            while mask != 0 {
                let mut c = self.heads[level * WIDTH + mask.trailing_zeros() as usize];
                mask &= mask - 1;
                while c != NIL {
                    let Chunk { len, next } = self.chunks[c as usize];
                    let at = c as usize * CHUNK;
                    self.pool[at..at + len as usize].iter_mut().for_each(&mut f);
                    c = next;
                }
            }
        }
    }

    fn clear(&mut self) {
        self.last = 0;
        self.run.clear();
        self.side.clear();
        self.heads = [NIL; LEVELS * WIDTH];
        self.masks = [0; LEVELS];
        self.levels = 0;
        self.pool.clear();
        self.chunks.clear();
        self.free = NIL;
        self.queued = 0;
    }
}

/// How much the queue holds and has held; see [`ShardedEvq::footprint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Most entries ever queued at once (events, turns, and superseded
    /// turns that had not reached the head yet).
    pub queued_hwm: usize,
    /// Entries the queue's retained allocations have room for.
    pub retained: usize,
    /// Pushes that were earlier than the time the queue had reached (see
    /// the module docs); 0 in any simulator run.
    pub behind_pushes: u64,
}

/// The simulator's queue of events and image turns; see the module docs.
/// Generic over the event payload so the differential tests (and the
/// benchmark's probe) can drive it with plain markers. The name and the
/// `shard` arguments date from the per-node heaps this queue replaced.
#[derive(Debug)]
pub struct ShardedEvq<T> {
    q: Radix,
    /// Arena of event payloads; `None` = free slot.
    slots: Vec<Option<T>>,
    /// Recycled arena slots.
    free: Vec<u32>,
    events: usize,
    /// `versions[rank]`: odd while image `rank` has a live turn queued —
    /// the one entry whose tag equals it.
    versions: Vec<u32>,
    turns: usize,
}

impl<T> ShardedEvq<T> {
    /// An empty queue. `shards` is ignored: one queue serves every node.
    pub fn new(_shards: usize) -> Self {
        Self::with_images(0)
    }

    /// An empty queue sized for the turns of images `0..images`.
    pub fn with_images(images: usize) -> Self {
        let mut q = Radix::new();
        // Everyone's first turn is at t = 0 = `last`: the run holds the
        // whole fleet once, and never that many again.
        q.run.reserve_exact(images);
        // ...and at that moment everyone posts one event and gets its next
        // turn: reserve the burst (untouched until used) so the pool does
        // not reach it by doubling.
        let burst = (2 * images).div_ceil(CHUNK) + LEVELS * WIDTH / 8;
        q.pool.reserve_exact(burst * CHUNK);
        q.chunks.reserve_exact(burst);
        Self {
            q,
            slots: Vec::with_capacity(images),
            free: Vec::with_capacity(images),
            events: 0,
            versions: vec![0; images],
            turns: 0,
        }
    }

    /// Number of queued events (turns are not counted).
    pub fn len(&self) -> usize {
        self.events
    }

    /// True when no event is queued.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Number of images with a live turn.
    pub fn turns(&self) -> usize {
        self.turns
    }

    /// Queue `payload` at `key`. Keys must be unique (the simulator's `seq`
    /// guarantees this). `shard` is ignored.
    pub fn push(&mut self, _shard: usize, key: EvKey, payload: T) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(payload);
                s
            }
            None => {
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        self.q.push(Entry {
            time: key.time,
            class: EVENT,
            tie: key.tie,
            seq: key.seq,
            tag: slot,
        });
        self.events += 1;
    }

    /// Give image `rank` (one of [`Self::with_images`]' images) the turn
    /// `(time, prio)`, superseding any turn it had.
    pub fn set_turn(&mut self, rank: usize, time: u64, prio: u64) {
        let v = &mut self.versions[rank];
        if *v & 1 == 0 {
            self.turns += 1;
        }
        *v = v.wrapping_add(2) | 1;
        let tag = *v;
        self.q.push(Entry {
            time,
            class: TURN,
            tie: prio,
            seq: rank as u64,
            tag,
        });
    }

    /// Take image `rank`'s turn away (block or death). No-op without one.
    pub fn drop_turn(&mut self, rank: usize) {
        let v = &mut self.versions[rank];
        if *v & 1 == 1 {
            *v = v.wrapping_add(1);
            self.turns -= 1;
        }
    }

    /// The minimal live entry, after discarding superseded turns above it.
    #[inline]
    fn head(&mut self) -> Option<Entry> {
        loop {
            let e = self.q.peek()?;
            if e.class == TURN && self.versions[e.seq as usize] != e.tag {
                self.q.pop_peeked();
                continue;
            }
            return Some(e);
        }
    }

    /// The key of the minimal event, if no turn comes before it.
    pub fn peek_key(&mut self) -> Option<EvKey> {
        self.head().filter(|e| e.class == EVENT).map(|e| e.key())
    }

    /// Remove and return the minimal event, if no turn comes before it —
    /// for the simulator: the next *due* event.
    #[inline]
    pub fn pop(&mut self) -> Option<(EvKey, T)> {
        let e = self.head().filter(|e| e.class == EVENT)?;
        self.q.pop_peeked();
        let payload = self.slots[e.tag as usize].take().expect("live slot");
        self.free.push(e.tag);
        self.events -= 1;
        Some((e.key(), payload))
    }

    /// The image whose turn it is, if no event comes before it — for the
    /// simulator: the next eligible image once due events are drained.
    #[inline]
    pub fn next_turn(&mut self) -> Option<usize> {
        self.head()
            .filter(|e| e.class == TURN)
            .map(|e| e.seq as usize)
    }

    /// Re-prioritize every live turn in place (chaos priority reshuffle).
    pub fn rekey_turns(&mut self, prio_of: impl Fn(usize) -> u64) {
        self.q.for_each_mut(|e| {
            if e.class == TURN {
                e.tie = prio_of(e.seq as usize);
            }
        });
    }

    /// Drop every queued event and turn (recovery reset).
    pub fn clear(&mut self) {
        self.q.clear();
        self.slots.clear();
        self.free.clear();
        self.events = 0;
        for v in &mut self.versions {
            *v = v.wrapping_add(*v & 1);
        }
        self.turns = 0;
    }

    /// What the queue holds on to, against what it has had to hold.
    pub fn footprint(&self) -> Footprint {
        Footprint {
            queued_hwm: self.q.queued_hwm,
            retained: self.q.run.capacity() + self.q.side.capacity() + self.q.pool.capacity(),
            behind_pushes: self.q.behind_pushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;

    #[test]
    fn pops_in_global_key_order_across_shards() {
        let mut q = ShardedEvq::new(4);
        let mut seq = 0u64;
        let mut push = |q: &mut ShardedEvq<u64>, shard: usize, time: u64| {
            q.push(
                shard,
                EvKey { time, tie: 0, seq },
                time * 1000 + shard as u64,
            );
            seq += 1;
        };
        for (shard, time) in [(0, 50), (1, 10), (2, 30), (3, 10), (0, 5), (1, 70)] {
            push(&mut q, shard, time);
        }
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(k, _)| k.time)).collect();
        assert_eq!(times, vec![5, 10, 10, 30, 50, 70]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_order_by_tie_then_seq() {
        let mut q = ShardedEvq::new(2);
        q.push(
            0,
            EvKey {
                time: 9,
                tie: 2,
                seq: 0,
            },
            "late-tie",
        );
        q.push(
            1,
            EvKey {
                time: 9,
                tie: 0,
                seq: 2,
            },
            "fifo-second",
        );
        q.push(
            1,
            EvKey {
                time: 9,
                tie: 0,
                seq: 1,
            },
            "fifo-first",
        );
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["fifo-first", "fifo-second", "late-tie"]);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut q = ShardedEvq::new(1);
        for round in 0..10u64 {
            for k in 0..8u64 {
                q.push(
                    0,
                    EvKey {
                        time: k,
                        tie: 0,
                        seq: round * 8 + k,
                    },
                    k,
                );
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.slots.len() <= 8,
            "arena grew past the high-water mark: {}",
            q.slots.len()
        );
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap_under_chaos_keys() {
        // Drive both queues with the *actual* chaos key derivation
        // (event_delay + event_tiebreak), interleaving pushes and pops.
        let ch = ChaosConfig::from_seed(1234);
        let mut q: ShardedEvq<u64> = ShardedEvq::new(8);
        let mut reference: BinaryHeap<Reverse<(EvKey, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut s: u64 = 77;
        let mut rnd = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..5000 {
            if rnd() % 3 != 0 {
                let base = rnd() % 1000;
                let key = EvKey {
                    time: base + ch.event_delay(seq),
                    tie: ch.event_tiebreak(seq),
                    seq,
                };
                q.push((rnd() % 8) as usize, key, seq);
                reference.push(Reverse((key, seq)));
                seq += 1;
            } else {
                assert_eq!(
                    q.pop(),
                    reference.pop().map(|Reverse((k, p))| (k, p)),
                    "pop order diverged from the reference heap"
                );
            }
            assert_eq!(q.len(), reference.len());
            assert_eq!(q.peek_key(), reference.peek().map(|Reverse((k, _))| *k));
        }
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), reference.pop().map(|Reverse((k, p))| (k, p)));
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn monotone_pushes_with_chaos_ties_match_reference_and_never_fall_behind() {
        // The simulator's pattern: every push at or after the time last
        // popped, bursts of equal times, ties from the real chaos hash.
        let ch = ChaosConfig::from_seed(99);
        let mut q: ShardedEvq<u64> = ShardedEvq::new(1);
        let mut reference: BinaryHeap<Reverse<(EvKey, u64)>> = BinaryHeap::new();
        let mut s: u64 = 5;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let (mut seq, mut now) = (0u64, 0u64);
        for _ in 0..20_000 {
            if rnd() % 5 < 3 {
                // Zero delay in a third of the pushes, else up to ~4 µs.
                let delay = [0, 0, rnd() % 64, rnd() % 4096][(rnd() % 4) as usize];
                let key = EvKey {
                    time: now + delay,
                    tie: ch.event_tiebreak(seq),
                    seq,
                };
                q.push(0, key, seq);
                reference.push(Reverse((key, seq)));
                seq += 1;
            } else {
                let want = reference.pop().map(|Reverse(kp)| kp);
                assert_eq!(q.pop(), want);
                now = want.map_or(now, |(k, _)| k.time);
            }
        }
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.footprint().behind_pushes, 0);
    }

    #[test]
    fn events_sort_before_turns_of_their_time_and_stale_turns_fall_out() {
        let mut q: ShardedEvq<&str> = ShardedEvq::with_images(3);
        let ev = |time, seq| EvKey { time, tie: 0, seq };
        q.set_turn(2, 10, 0);
        q.set_turn(0, 10, 0);
        q.set_turn(1, 5, 0);
        q.push(0, ev(10, 0), "due with the turns at 10");
        q.push(0, ev(11, 1), "after them");
        assert_eq!((q.len(), q.turns()), (2, 3));
        // Image 1 is first; nothing is due before it.
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_key(), None);
        assert_eq!(q.next_turn(), Some(1));
        // It advances to 10: its old turn is superseded, the event at 10
        // now comes before every turn at 10.
        q.set_turn(1, 10, 0);
        assert_eq!(q.next_turn(), None, "an event is at the head");
        assert_eq!(q.peek_key(), Some(ev(10, 0)));
        assert_eq!(q.pop().map(|(_, p)| p), Some("due with the turns at 10"));
        assert_eq!(q.pop(), None, "the event at 11 is behind the turns at 10");
        // Exact ties go to the lowest rank; a blocked image has no turn.
        assert_eq!(q.next_turn(), Some(0));
        q.drop_turn(0);
        q.drop_turn(0);
        assert_eq!(q.next_turn(), Some(1));
        assert_eq!(q.turns(), 2);
        q.drop_turn(1);
        q.drop_turn(2);
        assert_eq!(q.next_turn(), None);
        assert_eq!(q.pop().map(|(_, p)| p), Some("after them"));
        assert_eq!((q.len(), q.turns()), (0, 0));
        assert_eq!(q.footprint().behind_pushes, 0);
    }

    #[test]
    fn rekeying_reorders_turns_wherever_they_are_queued() {
        // Turns in the run (t = 0), the side heap and several buckets.
        let mut q: ShardedEvq<()> = ShardedEvq::with_images(8);
        for rank in (0..8).rev() {
            q.set_turn(rank, [0, 0, 0, 70, 70, 5000, 5000, 5000][rank], 0);
        }
        assert_eq!(q.next_turn(), Some(0));
        q.set_turn(1, 0, 0); // re-pushed behind rank 0: lands in the side heap
        q.rekey_turns(|rank| 100 - rank as u64);
        let mut order = Vec::new();
        while let Some(rank) = q.next_turn() {
            order.push(rank);
            q.drop_turn(rank);
        }
        assert_eq!(order, vec![2, 1, 0, 4, 3, 7, 6, 5]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut q = ShardedEvq::with_images(5);
        for k in 0..9u64 {
            q.push(
                (k % 3) as usize,
                EvKey {
                    time: k,
                    tie: 0,
                    seq: k,
                },
                k,
            );
        }
        q.set_turn(4, 3, 0);
        q.clear();
        assert!(q.is_empty());
        assert_eq!((q.turns(), q.next_turn()), (0, None));
        assert_eq!(q.pop(), None);
        q.push(
            2,
            EvKey {
                time: 1,
                tie: 0,
                seq: 100,
            },
            42,
        );
        assert_eq!(
            q.pop(),
            Some((
                EvKey {
                    time: 1,
                    tie: 0,
                    seq: 100
                },
                42
            ))
        );
    }
}
