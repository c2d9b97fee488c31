//! The completion core: which requests are still owed a response, and the
//! one way an image waits for them.
//!
//! A connection is FIFO — one ingress thread serves a peer's requests in
//! arrival order and answers on the same connection in that order — so a
//! request is named by its *sequence number* on the connection to its
//! peer, and what is in flight toward a peer is a ring indexed by
//! `seq − base`: no hash, no global counter. A request is numbered at
//! append under the peer's cork lock ([`Egress::send`]), and the cork
//! registers what it holds in one batch before the write that carries it
//! ([`Pending::register_batch`]) — so ring order is wire order whichever
//! image appended, and a response never beats its registration. Between
//! the two a request is *corked*: past the ring's end, below the peer's
//! published count of numbered requests, and pending all the same
//! ([`Table::is_pending`]). The rings, the per-image nonblocking debt
//! [`Fabric::quiet`](crate::Fabric::quiet) drains and the per-image slot a
//! blocking call's reply is left in are all mutated under one lock, so a
//! completion's wake-up cannot be lost. This module does not decide what
//! goes on the wire ([`route`](super::route) does) or when a corked frame
//! leaves ([`egress`](super::egress) does); the response reader's whole
//! job here is [`Pending::complete`], which takes this lock and never a
//! cork's.

use super::egress::{Egress, Urgency};
use super::{Op, SocketFabric, POLL};
use crate::stats::FabricStats;
use crate::PutToken;
use caf_topology::ProcId;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// An in-flight request awaiting its response frame. Eight bytes: a ring
/// holds one per request of the outstanding window.
pub(super) enum Entry {
    /// A blocking call of image `img`, parked on the table's condvar: the
    /// kind of reply it is owed, which goes to the image's slot in
    /// `Table::replies` (an image makes one blocking call at a time).
    Sync { img: u32, awaits: Kind },
    /// A nonblocking put (`put: true`) or a signalled put's `PutFlag`
    /// frame awaiting its ack; `img` indexes `outstanding_nb`. The
    /// `PutFlag` shares the sender's `outstanding_nb` debt so `quiet`
    /// covers it, but does not count as a nonblocking-put completion in the
    /// stats.
    Nb { img: u32, put: bool },
    /// Retired, but behind an entry that is not: a ring gives its slots
    /// back from the front only.
    Done,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 8);

impl Entry {
    /// Is this request answered by an ack (and so by any later ack)?
    fn awaits_ack(&self) -> bool {
        match self {
            Entry::Nb { .. } => true,
            Entry::Sync { awaits, .. } => *awaits == Kind::Ack,
            Entry::Done => false,
        }
    }
}

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
        self.trim();
    }

    /// Give back every retired slot at the front.
    fn trim(&mut self) {
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

    /// Is the nonblocking put behind `token` still unacked? Below its
    /// ring's base it is not — retired, or from before a recovery reset.
    /// In the ring it is until retired. At or past the ring's end it is
    /// while its peer's cork still holds it: below `numbered`, the peer's
    /// count [`Pending::numbered`] (a discarded request is not).
    pub(super) fn is_pending(&self, token: PutToken, numbered: &[AtomicU64]) -> bool {
        let (peer, seq) = (
            (token.arrival_ns >> SEQ_BITS) as usize,
            token.arrival_ns % (1 << SEQ_BITS),
        );
        let Some(ring) = self.rings.get(peer) else {
            return false;
        };
        let Some(at) = seq.checked_sub(ring.base) else {
            return false;
        };
        match usize::try_from(at).ok().and_then(|at| ring.entries.get(at)) {
            Some(e) => !matches!(e, Entry::Done),
            None => seq < numbered[peer].load(Ordering::Relaxed),
        }
    }

    /// The reply to image `img`'s blocking call, once it has arrived.
    fn take_reply(&mut self, img: usize) -> Option<Reply> {
        self.replies[img].take()
    }
}

pub(super) struct Pending {
    table: Mutex<Table>,
    cv: Condvar,
    /// Per peer, one past the last request its cork numbered: the requests
    /// from the ring's end up to it are corked, not yet registered.
    /// Published by the cork, under its lock, at every number it hands out
    /// or takes back; read by [`Table::is_pending`].
    pub(super) numbered: Vec<AtomicU64>,
    /// Calls of [`Pending::register_batch`].
    #[cfg(test)]
    pub(super) registrations: AtomicU64,
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
            numbered: (0..n_procs).map(|_| AtomicU64::new(1)).collect(),
            #[cfg(test)]
            registrations: AtomicU64::new(0),
        }
    }

    /// Register the requests a write to `peer` is about to carry, numbered
    /// `first..` at append, under one lock, charging each asynchronous one
    /// to its image's `quiet` debt. Call with `peer`'s cork locked, before
    /// any byte of the write leaves: the ring then has the wire's order,
    /// and no response can race its registration. The cork numbers from
    /// the ring's end and takes back the numbers it discards, so `first`
    /// is the ring's end.
    pub(super) fn register_batch(
        &self,
        peer: usize,
        first: u64,
        entries: impl ExactSizeIterator<Item = Entry>,
    ) {
        #[cfg(test)]
        self.registrations.fetch_add(1, Ordering::Relaxed);
        let mut g = self.table.lock();
        let Table {
            rings,
            outstanding_nb,
            ..
        } = &mut *g;
        let ring = &mut rings[peer];
        let end = ring.base + ring.entries.len() as u64;
        assert_eq!(
            first, end,
            "requests to process {peer} numbered out of ring order"
        );
        assert!(
            end + (entries.len() as u64) <= 1 << SEQ_BITS,
            "request sequence to process {peer} exhausted"
        );
        for entry in entries {
            if let Entry::Nb { img, .. } = entry {
                outstanding_nb[img as usize] += 1;
            }
            ring.entries.push_back(entry);
        }
    }

    /// The token `put_test`/`put_wait` resolve nonblocking put `seq` to
    /// `peer` by (never 0, the "complete" token: sequences start at 1).
    pub(super) fn token(peer: usize, seq: u64) -> PutToken {
        PutToken {
            arrival_ns: (peer as u64) << SEQ_BITS | seq,
        }
    }

    pub(super) fn is_pending(&self, token: PutToken) -> bool {
        self.table.lock().is_pending(token, &self.numbered)
    }

    /// Retire a batch of `peer`'s responses from its reader thread under
    /// one lock, with one wake-up. Data and a value answer the one request
    /// they name. An ack answers every request from the ring's base through
    /// the one it names that is not answered yet: the peer serves in order
    /// and sends one ack per response burst. So each `Nb` entry it covers
    /// pays its image's debt and each `Sync` entry awaiting an ack gets
    /// its reply.
    ///
    /// A response below the ring's base — late after a recovery reset — is
    /// dropped. Some responses are refused, and stop the batch: one past
    /// the ring's end, which retires nothing; one of the wrong kind for the
    /// request it names (an ack where data is awaited, a second response to
    /// a request still in the ring); and an ack whose range reaches a
    /// request that awaits data or a value, which stops at that request. A
    /// refusal is handed back as an `InvalidData` error for the caller to
    /// poison with; what came before it is retired all the same. The peer's
    /// ack clock ticks before the waiters wake — an image back from `quiet`
    /// finds the link idle — and `Ok(true)` asks the caller to poke the
    /// egress thread (the lost-flush rule).
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
                (Some(e), Kind::Ack) if e.awaits_ack() => {
                    let covered = ring.entries.iter_mut().take((seq - ring.base) as usize + 1);
                    let mut stop = None;
                    for (at, e) in (ring.base..).zip(covered) {
                        match *e {
                            Entry::Done => continue,
                            Entry::Nb { img, put } => {
                                outstanding_nb[img as usize] -= 1;
                                puts += u64::from(put);
                            }
                            Entry::Sync {
                                img,
                                awaits: Kind::Ack,
                            } => replies[img as usize] = Some(Reply::Ack),
                            Entry::Sync { awaits, .. } => {
                                stop = Some((at, format!("it awaits {awaits:?}")));
                                break;
                            }
                        }
                        *e = Entry::Done;
                        retired += 1;
                    }
                    ring.trim();
                    stop
                }
                (Some(&mut Entry::Sync { img, awaits }), _) if awaits == kind => {
                    replies[img as usize] = Some(reply);
                    ring.retire(seq);
                    retired += 1;
                    None
                }
                (Some(Entry::Sync { awaits, .. }), _) => {
                    Some((seq, format!("it awaits {awaits:?}")))
                }
                (Some(Entry::Nb { .. }), _) => Some((seq, "it awaits Ack".to_string())),
                (Some(Entry::Done), _) => Some((seq, "it was already answered".to_string())),
                (None, _) => Some((
                    seq,
                    format!(
                        "requests {}..{} are in flight",
                        ring.base,
                        ring.base + ring.entries.len() as u64
                    ),
                )),
            };
            if let Some((at, why)) = refusal {
                refused = Some(format!("{kind:?} response to request {at}: {why}"));
                break;
            }
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
    /// moves past everything it registered, so a response that arrives
    /// late — or a token a program kept — reads as retired. What a cork
    /// still holds is discarded alongside ([`Egress::reset`]), which takes
    /// its numbers back: the next request is numbered the new base.
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
    use crate::socket::egress::{Left, Sent, CORK_BYTES};
    use crate::socket::wire::{Frame, FrameReader, PutHead, Stream};
    use std::os::unix::net::UnixStream;
    use std::sync::{Arc, Barrier};

    /// A pending table for two peers and four images, its counters, and an
    /// egress toward peer 1 with the other end of its connection.
    fn table() -> (Arc<Pending>, FabricStats, Egress, Stream) {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        let p = Arc::new(Pending::new(4, 2));
        let egress = Egress::new(Stream::Uds(ours), Default::default(), p.clone(), 1);
        let stats = FabricStats::default();
        (p, stats, egress, Stream::Uds(theirs))
    }

    /// Cork an 8-byte put to peer 1 that awaits `entry`'s response, the way
    /// the fabric does; what the send did.
    fn send(e: &Egress, entry: Entry) -> Sent {
        let sent = e.send(Some(entry), Urgency::Data, false, |ack, b| {
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
        sent.expect("corked")
    }

    /// [`send`], returning the request's sequence number: pending from its
    /// append on, written or not.
    fn request(p: &Pending, e: &Egress, entry: Entry) -> u64 {
        let seq = send(e, entry).seq;
        assert!(p.is_pending(Pending::token(1, seq)), "request {seq}");
        seq
    }

    fn registrations(p: &Pending) -> u64 {
        p.registrations.load(Ordering::Relaxed)
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
            // Shut the wire down before any result is unwrapped: a
            // panicked image must fail the test, not leave the peer's end
            // blocked in `next_frame` with the scope waiting on it.
            let joined = images.map(|h| h.join());
            let flushed = e.flush();
            e.shutdown_write();
            for image in joined {
                image.expect("image");
            }
            flushed.expect("flush");
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
        e.flush().expect("written");
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
        e.flush().expect("written");
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
    fn corked_requests_register_in_one_batch_at_the_write_numbered_in_order() {
        let (p, stats, e, theirs) = table();
        let seqs: Vec<u64> = (0..10).map(|i| request(&p, &e, put_nb(i % 4))).collect();
        // Numbered at append, one after another...
        assert_eq!(seqs, (1..=10).collect::<Vec<_>>());
        assert_eq!(p.numbered[1].load(Ordering::Relaxed), 11);
        // ...but not in the ring, nor anyone's debt, before the write.
        assert_eq!(registrations(&p), 0);
        assert!(p.table.lock().rings[1].entries.is_empty());
        assert!(!p.table.lock().has_debt(0));
        let left = e.flush().expect("written");
        assert_eq!((left.frames, left.writes), (10, 1));
        assert_eq!(registrations(&p), 1, "one batch for the write");
        let t = p.table.lock();
        assert_eq!((t.rings[1].base, t.rings[1].entries.len()), (1, 10));
        assert_eq!(t.outstanding_nb, [3, 3, 2, 2]);
        drop(t);
        // The wire carries the same numbers in the same order.
        let mut r = FrameReader::new(theirs);
        let on_wire: Vec<u64> = (0..10)
            .map(|_| match r.next_frame().expect("frame").0 {
                Frame::Put { ack, .. } => ack,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(on_wire, seqs);
        p.complete(1, acks([10]), &stats, &e).expect("retired");
        assert!(seqs.iter().all(|&s| !p.is_pending(Pending::token(1, s))));
    }

    #[test]
    fn a_discard_takes_its_numbers_back_and_late_acks_are_dropped() {
        let (p, stats, e, _theirs) = table();
        let token = |seq| Pending::token(1, seq);
        let written = [put_nb(0), put_nb(0)].map(|entry| request(&p, &e, entry));
        e.flush().expect("written");
        let corked = [put_nb(1), put_nb(1)].map(|entry| request(&p, &e, entry));
        assert_eq!((written, corked), ([1, 2], [3, 4]));
        // A recovery reset: the ring's base moves past what was written,
        // and the corked requests are discarded with their numbers.
        p.reset();
        e.reset();
        assert!((written.iter().chain(&corked)).all(|&s| !p.is_pending(token(s))));
        assert_eq!(p.table.lock().rings[1].base, 3);
        assert!(!p.table.lock().has_debt(0) && !p.table.lock().has_debt(1));
        let fresh = request(&p, &e, put_nb(2));
        assert_eq!(fresh, 3, "numbered the ring's new base");
        e.flush().expect("written");
        // Late acks for the forgotten requests are dropped; the new one
        // stays pending until its own.
        p.complete(1, acks(written), &stats, &e).expect("dropped");
        assert!(p.is_pending(token(fresh)));
        p.complete(1, acks([fresh]), &stats, &e).expect("retired");
        assert!(!p.is_pending(token(fresh)));
        assert_eq!(stats.snapshot().puts_nb_completed, 1);
        // A re-dial discards what was corked for the dead connection the
        // same way, and the next request leaves on the new one.
        let lost = request(&p, &e, put_nb(0));
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        e.redial(Stream::Uds(ours));
        assert!(!p.is_pending(token(lost)));
        let next = request(&p, &e, put_nb(0));
        assert_eq!(next, lost);
        e.flush().expect("written");
        let mut r = FrameReader::new(Stream::Uds(theirs));
        assert!(matches!(r.next_frame().expect("put").0, Frame::Put { ack, .. } if ack == next));
        // A broken write: what it registered stays registered — the peer
        // may have read it — and nothing else is left to take back.
        drop(r);
        let broken = request(&p, &e, put_nb(3));
        assert!(e.flush().is_err(), "the peer hung up");
        assert!(p.is_pending(token(broken)));
        assert_eq!(p.numbered[1].load(Ordering::Relaxed), broken + 1);
        p.reset();
        e.reset();
        assert_eq!(request(&p, &e, put_nb(3)), broken + 1);
    }

    #[test]
    fn a_stream_of_put_nb_registers_once_per_write_not_once_per_put() {
        const PUTS: u64 = 1000;
        let (p, _stats, e, _theirs) = table();
        let mut left = (0..PUTS).fold(Left::default(), |mut left, _| {
            left += send(&e, put_nb(0)).left;
            left
        });
        left += e.flush().expect("written");
        let bound = left.bytes.div_ceil(CORK_BYTES as u64) + 2;
        let regs = registrations(&p);
        assert!(
            regs <= bound,
            "{regs} registrations for {PUTS} puts, bound {bound}"
        );
        assert_eq!(left.frames, PUTS);
        let t = p.table.lock();
        assert_eq!(
            (t.rings[1].entries.len(), t.outstanding_nb[0]),
            (1000, PUTS)
        );
    }

    #[test]
    fn one_ack_retires_every_unanswered_request_up_to_it_and_none_after() {
        let (p, stats, e, _theirs) = table();
        let put_flag = |img| Entry::Nb { img, put: false };
        let blocking_put = |img| Entry::Sync {
            img,
            awaits: Kind::Ack,
        };
        let amo = |img| Entry::Sync {
            img,
            awaits: Kind::Val,
        };
        // A mixed run, with an AMO in it answered out of order (a connection
        // never does this; the ring copes): its slot is retired already.
        let first = request(&p, &e, put_nb(0));
        request(&p, &e, put_flag(1));
        let answered = request(&p, &e, amo(3));
        request(&p, &e, blocking_put(2));
        let last = request(&p, &e, put_nb(1));
        let after = [put_nb(1), blocking_put(0)].map(|entry| request(&p, &e, entry));
        e.flush().expect("written");
        (p.complete(1, [(answered, Reply::Val(4))].into_iter(), &stats, &e)).expect("value");
        assert_eq!(p.table.lock().rings[1].base, first);
        // One ack for the burst.
        p.complete(1, acks([last]), &stats, &e).expect("cumulative");
        let mut t = p.table.lock();
        assert_eq!(t.outstanding_nb, [0, 1, 0, 0], "image 1 owes one put");
        assert!(matches!(t.take_reply(2), Some(Reply::Ack)));
        assert!(matches!(t.take_reply(3), Some(Reply::Val(4))));
        assert!(t.take_reply(0).is_none(), "the blocking put after the ack");
        assert_eq!(t.rings[1].base, after[0]);
        drop(t);
        assert_eq!(
            stats.snapshot().puts_nb_completed,
            2,
            "a PutFlag is no put_nb"
        );
        assert!(!p.is_pending(Pending::token(1, first)));
        assert!(p.is_pending(Pending::token(1, after[0])));
        // The requests after it still owe their responses, and each was
        // counted off the wire debt once.
        assert!(e.has_debt());
        p.complete(1, acks([after[1]]), &stats, &e)
            .expect("the rest");
        assert!(matches!(p.table.lock().take_reply(0), Some(Reply::Ack)));
        assert!(!p.table.lock().has_debt(1) && !e.has_debt());
        assert_eq!(stats.snapshot().puts_nb_completed, 3);
        // After a reset, a late ack that covers the forgotten requests is
        // ignored, and the new request stays pending.
        let forgotten = request(&p, &e, put_nb(0));
        e.flush().expect("written");
        p.reset();
        e.reset();
        let fresh = request(&p, &e, put_nb(0));
        e.flush().expect("written");
        p.complete(1, acks([forgotten]), &stats, &e)
            .expect("dropped");
        assert!(p.is_pending(Pending::token(1, fresh)));
        assert!(p.table.lock().has_debt(0) && e.has_debt());
        assert_eq!(stats.snapshot().puts_nb_completed, 3);
    }

    #[test]
    fn an_ack_stops_at_a_request_that_awaits_data_and_keeps_what_it_retired() {
        let (p, stats, e, _theirs) = table();
        let before = request(&p, &e, put_nb(0));
        let get = request(
            &p,
            &e,
            Entry::Sync {
                img: 2,
                awaits: Kind::Data,
            },
        );
        let last = request(&p, &e, put_nb(1));
        e.flush().expect("written");
        let err = p
            .complete(1, acks([last]), &stats, &e)
            .expect_err("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!("Ack response to request {get}: it awaits Data")
        );
        assert!(!p.is_pending(Pending::token(1, before)));
        assert!(p.is_pending(Pending::token(1, last)));
        let t = p.table.lock();
        assert_eq!((t.rings[1].base, t.outstanding_nb[0]), (get, 0));
        assert!(t.has_debt(1));
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
        e.flush().expect("written");
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
        e.flush().expect("written");
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
