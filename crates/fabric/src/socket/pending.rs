//! The completion core: which requests are still owed a response, and the
//! one way an image waits for them.
//!
//! Owns the cookie source, the cookie-indexed table of in-flight requests
//! and the per-image nonblocking debt [`Fabric::quiet`](crate::Fabric::quiet)
//! drains — all mutated under one lock, so a completion's wake-up cannot
//! be lost. It does not decide what goes on the wire
//! ([`route`](super::route) does) or when a corked frame leaves
//! ([`egress`](super::egress) does); the response reader's whole job here
//! is [`Pending::complete`], which takes this lock and never a cork's.

use super::egress::{Egress, Urgency};
use super::wire::FrameRef;
use super::{SocketFabric, POLL};
use crate::stats::FabricStats;
use caf_topology::ProcId;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// An in-flight request awaiting its response frame.
enum Entry {
    /// A blocking caller parked on the table's condvar.
    Sync(Option<Reply>),
    /// A nonblocking put (`put: true`) or an active-message batch awaiting
    /// its ack; `img` indexes `outstanding_nb`. A batch shares the sender's
    /// `outstanding_nb` debt so `quiet` covers batched AMs, but does not
    /// count as a nonblocking-put completion in the stats.
    Nb { img: usize, put: bool },
}

pub(super) enum Reply {
    Ack,
    /// A get's bytes: the front `len` of a buffer on loan from
    /// `SocketFabric::get_bufs`, exactly as the response reader filled it.
    Data {
        buf: Vec<u8>,
        len: usize,
    },
    Val(u64),
}

/// Cookie-indexed in-flight requests plus per-image nonblocking-put debt.
pub(super) struct Table {
    entries: HashMap<u64, Entry>,
    outstanding_nb: Vec<u64>,
}

impl Table {
    /// Has image `img` nonblocking puts or batches still unacked?
    pub(super) fn has_debt(&self, img: usize) -> bool {
        self.outstanding_nb[img] > 0
    }

    pub(super) fn is_pending(&self, cookie: u64) -> bool {
        self.entries.contains_key(&cookie)
    }

    /// The reply to blocking request `cookie`, once it has arrived.
    fn take_reply(&mut self, cookie: u64) -> Option<Reply> {
        match self.entries.get_mut(&cookie) {
            Some(Entry::Sync(slot)) if slot.is_some() => {
                let reply = slot.take();
                self.entries.remove(&cookie);
                reply
            }
            _ => None,
        }
    }
}

pub(super) struct Pending {
    /// Monotonic request-cookie source (0 is reserved = "complete").
    next_cookie: AtomicU64,
    table: Mutex<Table>,
    cv: Condvar,
}

impl Pending {
    pub(super) fn new(n_images: usize) -> Self {
        Self {
            next_cookie: AtomicU64::new(1),
            table: Mutex::new(Table {
                entries: HashMap::new(),
                outstanding_nb: vec![0; n_images],
            }),
            cv: Condvar::new(),
        }
    }

    #[inline]
    pub(super) fn cookie(&self) -> u64 {
        self.next_cookie.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a blocking request under `cookie` (before sending it).
    fn register_sync(&self, cookie: u64) {
        (self.table.lock().entries).insert(cookie, Entry::Sync(None));
    }

    /// Register an asynchronous request of image `img` (a nonblocking
    /// `put`, or else an AM batch) under `cookie`, charging the image's
    /// `quiet` debt. Call *before* sending, so the response can never race
    /// the registration.
    pub(super) fn register_nb(&self, cookie: u64, img: usize, put: bool) {
        let mut g = self.table.lock();
        g.entries.insert(cookie, Entry::Nb { img, put });
        g.outstanding_nb[img] += 1;
    }

    pub(super) fn is_pending(&self, cookie: u64) -> bool {
        self.table.lock().is_pending(cookie)
    }

    /// Retire a batch of responses from a reader thread under one lock,
    /// with one wake-up (a late response after a timeout or a recovery
    /// reset is dropped). The peer's ack clock ticks before the waiters
    /// wake — an image back from `quiet` finds the link idle — and `true`
    /// asks the caller to poke the egress thread (the lost-flush rule).
    pub(super) fn complete(
        &self,
        batch: impl Iterator<Item = (u64, Reply)>,
        stats: &FabricStats,
        egress: &Egress,
    ) -> bool {
        let mut awaited = 0;
        let mut g = self.table.lock();
        for (cookie, reply) in batch {
            let img = match g.entries.get_mut(&cookie) {
                Some(Entry::Sync(slot)) => {
                    *slot = Some(reply);
                    awaited += 1;
                    continue;
                }
                Some(Entry::Nb { img, put }) => {
                    if *put {
                        stats.record_put_nb_complete();
                    }
                    *img
                }
                None => continue,
            };
            g.entries.remove(&cookie);
            g.outstanding_nb[img] -= 1;
            awaited += 1;
        }
        let poke = egress.retired(awaited);
        self.cv.notify_all();
        poke
    }

    /// Recovery reset: no request is in flight any more.
    pub(super) fn reset(&self) {
        let mut g = self.table.lock();
        g.entries.clear();
        g.outstanding_nb.fill(0);
    }

    /// Wake every waiter so it re-checks poison.
    pub(super) fn wake_all(&self) {
        let _g = self.table.lock();
        self.cv.notify_all();
    }
}

impl SocketFabric {
    /// The one wait on the pending table. Flushes what this process has
    /// corked (nothing an image waits for may sit in its own buffer), then
    /// parks on the table's condvar until `done` yields, re-checking poison
    /// every [`POLL`]. After `io_timeout` it gives up: `timed_out` does
    /// the op's poisoning and returns the message the image panics with.
    pub(super) fn wait_pending<T>(
        &self,
        me: ProcId,
        doing: &str,
        timed_out: impl FnOnce() -> String,
        mut done: impl FnMut(&mut Table) -> Option<T>,
    ) -> T {
        self.flush_corked();
        let deadline = Instant::now() + self.cfg.io_timeout;
        let mut g = self.pending.table.lock();
        loop {
            if let Some(v) = done(&mut g) {
                return v;
            }
            drop(g);
            self.check_poison(me, doing);
            if Instant::now() > deadline {
                panic!("{}", timed_out());
            }
            g = self.pending.table.lock();
            self.pending.cv.wait_for(&mut g, POLL);
        }
    }

    /// One blocking exchange with the process hosting `peer`: register
    /// `cookie` (before sending, so the response cannot race it), send
    /// `frame` (which carries it) now, park for the reply. Returns the
    /// reply with the tracer's `(queue_ns, service_ns)` split.
    pub(super) fn call(
        &self,
        me: ProcId,
        peer: ProcId,
        doing: &str,
        cookie: u64,
        frame: FrameRef<'_>,
    ) -> (Reply, u64, u64) {
        self.pending.register_sync(cookie);
        let (queue_ns, rank) = self.send_request(me, peer, frame, true, Urgency::Now);
        let s0 = Instant::now();
        let timed_out = || {
            let waited = self.cfg.io_timeout;
            self.declare_dead(rank, &format!("{doing} got no response within {waited:?}"));
            self.check_poison(me, doing);
            format!(
                "image {} {doing}: no response from {} within {waited:?}",
                me.index() + 1,
                self.peer_desc(rank)
            )
        };
        let reply = self.wait_pending(me, doing, timed_out, |t| t.take_reply(cookie));
        (reply, queue_ns, s0.elapsed().as_nanos() as u64)
    }
}
