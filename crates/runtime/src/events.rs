//! CAF events (`event_type`, `event post`, `event wait`, `event_query`).
//!
//! An event variable is a counting semaphore on some image: any image may
//! `post` to it; the owner `wait`s, which consumes posts. Built directly on
//! the fabric's accumulating flags and their counted wait ([`Arrivals`]).

use caf_collectives::TeamComm;
use caf_fabric::{ArcFabric, Arrivals};
use caf_topology::ProcId;
use caf_trace::{Event, EventKind};
use std::sync::Arc;

/// A block of `count` event variables on every image of the allocating
/// team.
pub struct Events {
    fabric: ArcFabric,
    me: ProcId,
    members: Arc<Vec<ProcId>>,
    count: usize,
    /// The event block's flags (the same ids on every member) and the
    /// posts I have consumed from each.
    posts: Arrivals,
}

impl Events {
    pub(crate) fn allocate(comm: &mut TeamComm, count: usize) -> Self {
        assert!(count > 0, "event block needs at least one variable");
        let (flags, _) = comm.alloc_symmetric("event block", count, 0, [count as u64, 0]);
        Self {
            fabric: comm.fabric().clone(),
            me: comm.proc_of(comm.rank()),
            members: comm.members().clone(),
            count,
            posts: Arrivals::new(flags, count),
        }
    }

    /// Event variables per image.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `event post (ev[image1])`: post once to event `idx` on `image1`
    /// (1-based team index).
    pub fn post(&self, image1: usize, idx: usize) {
        assert!(idx < self.count, "event index {idx} out of {}", self.count);
        assert!(
            (1..=self.members.len()).contains(&image1),
            "event image {image1} outside team of {}",
            self.members.len()
        );
        self.fabric
            .flag_add(self.me, self.members[image1 - 1], self.posts.flag(idx), 1);
        let tracer = self.fabric.tracer();
        if tracer.enabled() {
            tracer.record(
                self.me.index(),
                Event::instant(EventKind::EventPost, self.fabric.now_ns(self.me))
                    .a(self.members[image1 - 1].index() as u64)
                    .b(idx as u64),
            );
        }
    }

    /// `event wait (ev, until_count=n)`: block until `n` unconsumed posts
    /// are available on my event `idx`, then consume them.
    pub fn wait(&mut self, idx: usize, until_count: u64) {
        assert!(idx < self.count, "event index {idx} out of {}", self.count);
        assert!(until_count > 0, "event wait needs until_count >= 1");
        let tracer = self.fabric.tracer();
        let t0 = if tracer.enabled() {
            self.fabric.now_ns(self.me)
        } else {
            0
        };
        let target = self.posts.wait(&*self.fabric, self.me, idx, until_count);
        if tracer.enabled() {
            let t1 = self.fabric.now_ns(self.me);
            tracer.record(
                self.me.index(),
                Event::span(EventKind::EventWait, t0, t1.saturating_sub(t0))
                    .a(idx as u64)
                    .b(target),
            );
        }
    }

    /// `event_query (ev, count)`: unconsumed posts currently available on
    /// my event `idx` (never blocks).
    pub fn query(&self, idx: usize) -> u64 {
        assert!(idx < self.count, "event index {idx} out of {}", self.count);
        self.posts.pending(&*self.fabric, self.me, idx)
    }
}
