//! The completion core: which requests are still owed a response, and the
//! one way an image waits for them.
//!
//! A connection is FIFO — one ingress thread serves a peer's requests in
//! arrival order and answers on the same connection in that order — so a
//! request is named by its *sequence number* on the connection to its
//! peer, and what is in flight toward a peer is a ring indexed by
//! `seq − base`: no hash, no global counter. The number is assigned under
//! the peer's cork lock, at append ([`Egress::send`]), so ring order is
//! wire order whichever image registers. The rings, the per-image
//! nonblocking debt [`Fabric::quiet`](crate::Fabric::quiet) drains and the
//! per-image slot a blocking call's reply is left in are all mutated under
//! one lock, so a completion's wake-up cannot be lost. This
//! module does not decide what goes on the wire ([`route`](super::route)
//! does) or when a corked frame leaves ([`egress`](super::egress) does); the
//! response reader's whole job here is [`Pending::complete`], which takes
//! this lock and never a cork's.

use super::egress::{Egress, Urgency};
use super::{Op, SocketFabric, POLL};
use crate::stats::FabricStats;
use crate::PutToken;
use caf_topology::ProcId;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// An in-flight request awaiting its response frame. Eight bytes: a ring
/// holds one per request of the outstanding window.
pub(super) enum Entry {
    /// A blocking call of image `img`, parked on the table's condvar: the
    /// kind of reply it is owed, which goes to the image's slot in
    /// `Table::replies` (an image makes one blocking call at a time).
    Sync { img: u32, awaits: Kind },
    /// A nonblocking put (`put: true`) or an active-message batch awaiting
    /// its ack; `img` indexes `outstanding_nb`. A batch shares the sender's
    /// `outstanding_nb` debt so `quiet` covers batched AMs, but does not
    /// count as a nonblocking-put completion in the stats.
    Nb { img: u32, put: bool },
    /// Retired, but behind an entry that is not: a ring gives its slots
    /// back from the front only.
    Done,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 8);

/// What a response carries, without the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Kind {
    Ack,
    Data,
    Val,
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

impl Reply {
    fn kind(&self) -> Kind {
        match self {
            Reply::Ack => Kind::Ack,
            Reply::Data { .. } => Kind::Data,
            Reply::Val(_) => Kind::Val,
        }
    }
}

/// Sequence numbers fit the low bits of a [`PutToken`] (the peer's rank
/// takes the rest): at ten million requests a second to one peer, 48 bits
/// last ten months.
const SEQ_BITS: u32 = 48;

/// The requests in flight toward one peer, oldest first: `entries[i]` is
/// request `base + i`. Grows with the outstanding window and is never
/// sized ahead of it.
struct Ring {
    /// Sequence number of `entries[0]`; every request below it is retired
    /// (or was forgotten by a recovery reset). Starts at 1: 0 is "no ack
    /// requested" on the wire and "complete" in a [`PutToken`].
    base: u64,
    entries: VecDeque<Entry>,
}

impl Ring {
    fn slot(&mut self, seq: u64) -> Option<&mut Entry> {
        let at = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.entries.get_mut(at)
    }

    /// Mark `seq` retired and give back every retired slot at the front.
    fn retire(&mut self, seq: u64) {
        if let Some(e) = self.slot(seq) {
            *e = Entry::Done;
        }
        while let Some(Entry::Done) = self.entries.front() {
            self.entries.pop_front();
            self.base += 1;
        }
    }
}

/// Per-peer rings of in-flight requests plus, per image, its
/// nonblocking-put debt and the reply to the blocking call it is parked in.
pub(super) struct Table {
    rings: Vec<Ring>,
    outstanding_nb: Vec<u64>,
    replies: Vec<Option<Reply>>,
}

impl Table {
    /// Has image `img` nonblocking puts or batches still unacked?
    pub(super) fn has_debt(&self, img: usize) -> bool {
        self.outstanding_nb[img] > 0
    }

    /// Is the nonblocking put behind `token` still unacked? Anything below
    /// its ring's base is not — retired, or from before a recovery reset.
    pub(super) fn is_pending(&self, token: PutToken) -> bool {
        let (peer, seq) = (
            token.arrival_ns >> SEQ_BITS,
            token.arrival_ns % (1 << SEQ_BITS),
        );
        let Some(ring) = self.rings.get(peer as usize) else {
            return false;
        };
        let at = seq
            .checked_sub(ring.base)
            .and_then(|at| usize::try_from(at).ok());
        !matches!(
            at.and_then(|at| ring.entries.get(at)),
            None | Some(Entry::Done)
        )
    }

    /// The reply to image `img`'s blocking call, once it has arrived.
    fn take_reply(&mut self, img: usize) -> Option<Reply> {
        self.replies[img].take()
    }
}

pub(super) struct Pending {
    table: Mutex<Table>,
    cv: Condvar,
}

impl Pending {
    pub(super) fn new(n_images: usize, n_procs: usize) -> Self {
        assert!(
            n_procs as u64 <= 1 << (u64::BITS - SEQ_BITS),
            "{n_procs} processes do not fit a put token"
        );
        let ring = || Ring {
            base: 1,
            entries: VecDeque::new(),
        };
        Self {
            table: Mutex::new(Table {
                rings: (0..n_procs).map(|_| ring()).collect(),
                outstanding_nb: vec![0; n_images],
                replies: (0..n_images).map(|_| None).collect(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Register the next request to `peer` and return its sequence number,
    /// charging an asynchronous one to its image's `quiet` debt. Call with
    /// `peer`'s cork locked, before the frame is appended: the ring then
    /// has the wire's order, and the response cannot race the registration.
    pub(super) fn register(&self, peer: usize, entry: Entry) -> u64 {
        let mut g = self.table.lock();
        if let Entry::Nb { img, .. } = entry {
            g.outstanding_nb[img as usize] += 1;
        }
        let ring = &mut g.rings[peer];
        let seq = ring.base + ring.entries.len() as u64;
        assert!(
            seq < 1 << SEQ_BITS,
            "request sequence to process {peer} exhausted"
        );
        ring.entries.push_back(entry);
        seq
    }

    /// The token `put_test`/`put_wait` resolve nonblocking put `seq` to
    /// `peer` by (never 0, the "complete" token: sequences start at 1).
    pub(super) fn token(peer: usize, seq: u64) -> PutToken {
        PutToken {
            arrival_ns: (peer as u64) << SEQ_BITS | seq,
        }
    }

    pub(super) fn is_pending(&self, token: PutToken) -> bool {
        self.table.lock().is_pending(token)
    }

    /// Retire a batch of `peer`'s responses from its reader thread under
    /// one lock, with one wake-up. A response below the ring's base — late
    /// after a recovery reset — is dropped; one past the ring's end, or of
    /// the wrong kind for its entry (an ack where data is awaited, a second
    /// response to a request still in the ring), stops the batch and is handed back as an
    /// `InvalidData` error for the caller to poison with: what came before
    /// it is retired all the same. The peer's ack clock ticks before the waiters wake — an
    /// image back from `quiet` finds the link idle — and `Ok(true)` asks
    /// the caller to poke the egress thread (the lost-flush rule).
    pub(super) fn complete(
        &self,
        peer: usize,
        batch: impl Iterator<Item = (u64, Reply)>,
        stats: &FabricStats,
        egress: &Egress,
    ) -> io::Result<bool> {
        let (mut retired, mut puts) = (0, 0);
        let mut refused = None;
        let mut g = self.table.lock();
        let Table {
            rings,
            outstanding_nb,
            replies,
        } = &mut *g;
        let ring = &mut rings[peer];
        for (seq, reply) in batch {
            if seq < ring.base {
                continue;
            }
            let kind = reply.kind();
            let refusal = match (ring.slot(seq), kind) {
                (Some(&mut Entry::Sync { img, awaits }), _) if awaits == kind => {
                    replies[img as usize] = Some(reply);
                    ring.retire(seq);
                    None
                }
                (Some(&mut Entry::Nb { img, put }), Kind::Ack) => {
                    outstanding_nb[img as usize] -= 1;
                    puts += u64::from(put);
                    ring.retire(seq);
                    None
                }
                (Some(Entry::Sync { awaits, .. }), _) => Some(format!("it awaits {awaits:?}")),
                (Some(Entry::Nb { .. }), _) => Some("it awaits Ack".to_string()),
                (Some(Entry::Done), _) => Some("it was already answered".to_string()),
                (None, _) => Some(format!(
                    "requests {}..{} are in flight",
                    ring.base,
                    ring.base + ring.entries.len() as u64
                )),
            };
            if let Some(why) = refusal {
                refused = Some(format!("{kind:?} response to request {seq}: {why}"));
                break;
            }
            retired += 1;
        }
        stats.puts_nb_completed.fetch_add(puts, Ordering::Relaxed);
        let poke = egress.retired(retired);
        self.cv.notify_all();
        match refused {
            None => Ok(poke),
            Some(why) => Err(io::Error::new(io::ErrorKind::InvalidData, why)),
        }
    }

    /// Recovery reset: no request is in flight any more. Each ring's base
    /// moves past everything it ever issued, so a response that arrives
    /// late — or a token a program kept — reads as retired.
    pub(super) fn reset(&self) {
        let mut g = self.table.lock();
        for ring in &mut g.rings {
            ring.base += ring.entries.len() as u64;
            ring.entries.clear();
        }
        g.outstanding_nb.fill(0);
        g.replies.fill_with(|| None);
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
        // Built on the first miss: a wait that is already done reads no
        // clock.
        let mut deadline = None;
        let mut g = self.pending.table.lock();
        loop {
            if let Some(v) = done(&mut g) {
                return v;
            }
            drop(g);
            self.poisoned.check(me, doing);
            let now = Instant::now();
            if now > *deadline.get_or_insert(now + self.cfg.io_timeout) {
                panic!("{}", timed_out());
            }
            g = self.pending.table.lock();
            self.pending.cv.wait_for(&mut g, POLL);
        }
    }

    /// One blocking exchange of `op` with the process hosting its peer:
    /// send now the frame `encode` writes around the request's sequence
    /// number, park for the reply, which must be of kind `awaits`. Returns
    /// the reply with the tracer's `(queue_ns, service_ns)` split.
    pub(super) fn call<'a>(
        &self,
        op: &Op,
        doing: &str,
        awaits: Kind,
        encode: impl FnOnce(u64, &mut Vec<u8>) -> &'a [u8],
    ) -> (Reply, u64, u64) {
        let me = op.me;
        let img = me.index() as u32;
        let entry = Entry::Sync { img, awaits };
        let (rank, sent) = self.send_request(op, Some(entry), Urgency::Now, encode);
        let s0 = Instant::now();
        let timed_out = || {
            let waited = self.cfg.io_timeout;
            self.declare_dead(rank, &format!("{doing} got no response within {waited:?}"));
            self.poisoned.check(me, doing);
            format!(
                "image {} {doing}: no response from {} within {waited:?}",
                me.index() + 1,
                self.peer_desc(rank)
            )
        };
        let reply = self.wait_pending(me, doing, timed_out, |t| t.take_reply(me.index()));
        (reply, sent.queue_ns, s0.elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::wire::{Frame, FrameReader, PutHead, Stream};
    use std::os::unix::net::UnixStream;
    use std::sync::Barrier;

    /// A pending table for two peers and four images, its counters, and an
    /// egress toward peer 1 with the other end of its connection.
    fn table() -> (Pending, FabricStats, Egress, Stream) {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        let egress = Egress::new(Stream::Uds(ours), Default::default());
        let stats = FabricStats::default();
        (Pending::new(4, 2), stats, egress, Stream::Uds(theirs))
    }

    /// Cork an 8-byte put to peer 1 that awaits `entry`'s response, the way
    /// the fabric does; returns its sequence number.
    fn request(p: &Pending, e: &Egress, entry: Entry) -> u64 {
        let sent = e.send(Some((p, 1, entry)), Urgency::Data, false, |ack, b| {
            let put = PutHead {
                src: 0,
                dst: 2,
                seg: 0,
                off: 0,
                ack,
                len: 8,
                flag: None,
            };
            put.encode_head(b, &[7; 8])
        });
        sent.expect("corked").seq
    }

    fn put_nb(img: u32) -> Entry {
        Entry::Nb { img, put: true }
    }

    fn acks(seqs: impl IntoIterator<Item = u64>) -> impl Iterator<Item = (u64, Reply)> {
        seqs.into_iter().map(|seq| (seq, Reply::Ack))
    }

    #[test]
    fn two_images_appending_to_one_peer_complete_in_wire_order() {
        const EACH: u64 = 3000;
        let (p, stats, e, theirs) = table();
        let start = Barrier::new(2);
        let wire_order = std::thread::scope(|s| {
            // The peer's end: the ack cookies in the order they arrive.
            let wire = s.spawn(move || {
                let mut r = FrameReader::new(theirs);
                let mut seqs = Vec::new();
                while let Ok((Frame::Put { ack, .. }, _)) = r.next_frame() {
                    seqs.push(ack);
                }
                seqs
            });
            let images = [0, 1].map(|img| {
                let (p, e, start) = (&p, &e, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..EACH {
                        request(p, e, put_nb(img));
                    }
                })
            });
            for h in images {
                h.join().expect("image");
            }
            e.flush().expect("flush");
            e.shutdown_write();
            wire.join().expect("wire")
        });
        // Whichever image got there first, the number a request carries is
        // its place on the wire.
        let all: Vec<u64> = (1..=2 * EACH).collect();
        assert_eq!(wire_order, all);
        // So the peer's acks, which come back in that order, each retire
        // the front of the ring.
        assert!(p.table.lock().has_debt(0) && p.table.lock().has_debt(1));
        let poke = p.complete(1, acks(all), &stats, &e).expect("in order");
        assert!(!poke, "nothing is corked");
        let t = p.table.lock();
        assert!(!t.has_debt(0) && !t.has_debt(1));
        assert!(t.rings[1].entries.is_empty());
        assert_eq!(t.rings[1].base, 2 * EACH + 1);
        assert_eq!(stats.snapshot().puts_nb_completed, 2 * EACH);
        assert!(!e.has_debt());
    }

    #[test]
    fn a_stale_response_after_a_reset_is_dropped_and_retires_nothing() {
        let (p, stats, e, _theirs) = table();
        let before: Vec<_> = (0..3)
            .map(|_| Pending::token(1, request(&p, &e, put_nb(0))))
            .collect();
        assert!(before.iter().all(|t| p.is_pending(*t)));
        p.reset();
        e.reset();
        // Tokens a program kept across the reset read as complete:
        // `put_test` returns, `put_wait` does not wait.
        assert!(before.iter().all(|t| !p.is_pending(*t)));
        assert!(!p.table.lock().has_debt(0));
        // The ring goes on where it stopped, so the forgotten requests'
        // acks, arriving late, cannot be taken for the new one's.
        let seq = request(&p, &e, put_nb(3));
        assert_eq!(seq, 4);
        p.complete(1, acks([1, 2, 3]), &stats, &e).expect("dropped");
        assert!(p.is_pending(Pending::token(1, seq)));
        assert!(p.table.lock().has_debt(3) && e.has_debt());
        assert_eq!(stats.snapshot().puts_nb_completed, 0);
        p.complete(1, acks([seq]), &stats, &e).expect("retired");
        assert!(!p.is_pending(Pending::token(1, seq)));
        assert!(!p.table.lock().has_debt(3) && !e.has_debt());
        assert_eq!(stats.snapshot().puts_nb_completed, 1);
    }

    #[test]
    fn a_response_nobody_awaits_is_refused_and_what_preceded_it_is_retired() {
        let (p, stats, e, _theirs) = table();
        let refused = |batch: Vec<(u64, Reply)>| {
            let err = (p.complete(1, batch.into_iter(), &stats, &e)).expect_err("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            err.to_string()
        };
        let ack = |seq| (seq, Reply::Ack);
        let val = |seq| (seq, Reply::Val(5));
        // One past the ring's end — after a good ack in the same batch.
        let first = request(&p, &e, put_nb(0));
        let second = request(&p, &e, put_nb(0));
        assert_eq!(
            refused(vec![ack(first), ack(9)]),
            "Ack response to request 9: requests 2..3 are in flight"
        );
        assert!(!p.is_pending(Pending::token(1, first)));
        assert!(p.is_pending(Pending::token(1, second)));
        // An ack where a get's data, or an AMO's value, is awaited; the
        // right reply is still delivered afterwards, to the calling image.
        let (getter, adder) = (2, 3);
        let get = request(
            &p,
            &e,
            Entry::Sync {
                img: getter,
                awaits: Kind::Data,
            },
        );
        let amo = request(
            &p,
            &e,
            Entry::Sync {
                img: adder,
                awaits: Kind::Val,
            },
        );
        assert_eq!(
            refused(vec![ack(second), ack(get)]),
            format!("Ack response to request {get}: it awaits Data")
        );
        assert_eq!(
            refused(vec![val(get)]),
            format!("Val response to request {get}: it awaits Data")
        );
        assert_eq!(
            refused(vec![ack(amo)]),
            format!("Ack response to request {amo}: it awaits Val")
        );
        // Out of order (a connection never does this; the ring copes): the
        // AMO's slot waits, retired, behind the get's, and a second response
        // to it is refused.
        (p.complete(1, [val(amo)].into_iter(), &stats, &e)).expect("a value for the AMO");
        assert_eq!(p.table.lock().rings[1].base, get);
        assert_eq!(
            refused(vec![val(amo)]),
            format!("Val response to request {amo}: it was already answered")
        );
        let data = Reply::Data {
            buf: vec![1, 2],
            len: 2,
        };
        (p.complete(1, [(get, data)].into_iter(), &stats, &e)).expect("data for the get");
        let mut t = p.table.lock();
        assert!(matches!(t.take_reply(adder as usize), Some(Reply::Val(5))));
        assert!(t.take_reply(adder as usize).is_none());
        assert!(matches!(
            t.take_reply(getter as usize),
            Some(Reply::Data { len: 2, .. })
        ));
        assert!(t.rings[1].entries.is_empty());
        assert_eq!(t.rings[1].base, amo + 1);
        drop(t);
        assert!(!e.has_debt(), "every request was answered once");
        assert_eq!(stats.snapshot().puts_nb_completed, 2);
    }
}
