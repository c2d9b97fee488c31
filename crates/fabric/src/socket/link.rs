//! Connections and the threads that serve them: dialing and accepting
//! (with the `Rejoin` handshake of a respawned peer), one ingress thread
//! per peer applying its requests in arrival order, one response reader
//! per peer retiring acks, the heartbeat, and the liveness rules that turn
//! silence or an unexplained EOF into a loud death.
//!
//! Owns the sockets, `peer_state` and `last_seen`. An ingress thread
//! reaches hosted memory only through the [`store`](super::store)'s
//! checked resolver — a request that does not resolve is a malformed
//! frame, named and poisoned, never a panic. A response reader never
//! writes and never takes a cork lock (the deadlock rule in
//! [`egress`](super::egress)): it retires a batch into
//! [`pending`](super::pending) and pokes the egress thread. Liveness is
//! written here; for *routing*, only [`route`](super::route) reads it.

use super::egress::{Cork, Egress, Left, Urgency};
use super::pending::Reply;
use super::wire::{
    self, is_timeout, write_frame, Addr, Frame, FrameReader, Incoming, Listener, PutHead, Stream,
    MAX_FRAME_BYTES, READER_BYTES, WIRE_MAGIC,
};
use super::{shm, SocketFabric, PEER_ALIVE, PEER_DEAD, PEER_GRACEFUL, POLL};
use crate::seg::{Access, Amo, FlagCell, FlagId, Window};
use crate::Fabric;
use std::fmt::Display;
use std::io;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an unexplained EOF may wait for a racing `Bye` (on the other
/// connection of the pair) before it is declared a death.
const EOF_GRACE: Duration = Duration::from_millis(300);

/// First connect-retry backoff of a dial; doubles per attempt, up to
/// [`CONNECT_BACKOFF_CAP`].
const CONNECT_BACKOFF_START: Duration = Duration::from_millis(10);

/// Longest pause between two connect attempts.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Frames a reader thread takes in before it publishes them at the latest
/// (more may be buffered): the responses a reader retires at once.
const RETIRE_BATCH: u64 = 256;

/// The frames a reader thread has taken in since it last published: one
/// `read(2)` brings a burst of small frames, and what is per burst —
/// counters, the liveness mark, retiring responses — is paid once for it.
#[derive(Default)]
struct Burst {
    frames: u64,
    bytes: u64,
}

impl Burst {
    /// One more frame, of `n` wire bytes.
    fn add(&mut self, n: usize) {
        self.frames += 1;
        self.bytes += n as u64;
    }

    /// Is it time to publish? When the reader has nothing more buffered,
    /// and at the latest after [`RETIRE_BATCH`] frames or a reader's
    /// buffer of bytes — bulk frames, which can follow each other for
    /// seconds without the buffer ever running dry, publish one by one.
    fn is_over(&self, reader_drained: bool) -> bool {
        reader_drained || self.frames >= RETIRE_BATCH || self.bytes >= READER_BYTES as u64
    }
}

/// The largest get buffer kept for reuse (an ingress thread's window copy,
/// a pooled response buffer); one grown past this by a rare huge get is
/// freed after use instead of pinning its memory for the fabric's life.
pub(super) const KEEP_BYTES: usize = 4 << 20;

/// What a served request is owed; `Data` borrows the serving thread's
/// reused get buffer, so no response owns a payload.
pub(super) enum Response<'a> {
    Ack(u64),
    Val { req: u64, old: u64 },
    Data { req: u64, data: &'a [u8] },
}

/// Who dialed, as a connection's first frame says.
struct Dialer {
    rank: usize,
    /// Path of its shared segment (empty: it offers none).
    shm: String,
    /// A respawned incarnation's `(generation, listen address)`.
    rejoin: Option<(u64, String)>,
}

impl SocketFabric {
    pub(super) fn spawn_guarded(
        self: &Arc<Self>,
        name: &'static str,
        f: impl FnOnce() + Send + 'static,
    ) -> std::thread::Thread {
        let fab = self.clone();
        let h = std::thread::Builder::new()
            .name(format!("caf-sock-{name}"))
            .spawn(move || {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                if let Err(p) = r {
                    let msg = crate::panic_message(p.as_ref());
                    if !fab.shutting_down.load(Ordering::Acquire) {
                        fab.poison(&format!("socket fabric {name} thread: {msg}"));
                    }
                }
            })
            .expect("spawn socket service thread");
        let thread = h.thread().clone();
        self.threads.lock().push(h);
        thread
    }

    /// Accept loop: collect `expected` ingress connections, identify each
    /// by its `Open` (or, in respawn mode, `Rejoin`) frame, and hand it to
    /// a dedicated ingress thread. In respawn mode the listener stays up
    /// past fleet bring-up so a respawned peer can dial back in at any
    /// point in the run. A connection that does not open the way a member
    /// of this fleet would is dropped — loudly, through the poison, if it
    /// sent a frame — and the loop keeps accepting.
    pub(super) fn spawn_accepting(self: &Arc<Self>, listener: Listener, expected: usize) {
        let fab = self.clone();
        self.spawn_guarded("accept", move || {
            listener
                .set_nonblocking(true)
                .expect("listener nonblocking");
            let mut accepted = 0;
            while !fab.stopping()
                && (accepted < expected
                    || (fab.cfg.respawn && !fab.all_done.load(Ordering::Acquire)))
            {
                match listener.accept() {
                    Ok(stream) => {
                        stream
                            .set_read_timeout(Some(POLL))
                            .expect("ingress read timeout");
                        let mut reader =
                            FrameReader::new(stream.try_clone().expect("clone ingress stream"));
                        let peer = match fab.greet(&mut reader) {
                            Ok(Some(peer)) => peer,
                            Ok(None) => continue,
                            Err(e) => {
                                fab.malformed_frame("a dialing process", &e);
                                continue;
                            }
                        };
                        accepted += 1;
                        fab.ingress_up.fetch_add(1, Ordering::Release);
                        let f2 = fab.clone();
                        f2.clone().spawn_guarded("ingress", move || {
                            f2.ingress_loop(peer, reader, stream)
                        });
                    }
                    Err(e) if is_timeout(&e) => std::thread::sleep(Duration::from_millis(2)),
                    Err(e) => panic!("accept failed: {e}"),
                }
            }
            // Fleet fully connected (or tearing down): drop the listener,
            // unlinking the socket file.
        });
    }

    /// Read the first frame of a freshly accepted connection, which must
    /// identify the dialer, and get this process ready to serve it: its
    /// shared segment mapped and, for a rejoin, the pair re-established —
    /// all before its ingress thread starts, since once requests flow,
    /// replies may race reads of segments only the mapping serves. Returns
    /// the dialer's rank; `Ok(None)` when there is nobody to serve (the
    /// dialer vanished or stayed silent, this process is stopping, the
    /// rejoin was stale), `Err` (`InvalidData`) for a frame no member of
    /// this fleet opens a connection with.
    fn greet(self: &Arc<Self>, reader: &mut FrameReader<Stream>) -> io::Result<Option<usize>> {
        let deadline = Instant::now() + self.cfg.io_timeout;
        let (hello, n) = loop {
            match reader.next_frame() {
                Ok(first) => break first,
                Err(e) if is_timeout(&e) && Instant::now() <= deadline && !self.stopping() => {}
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                Err(_) => return Ok(None),
            }
        };
        let Dialer { rank, shm, rejoin } = self.check_hello(hello)?;
        let mut hello = Burst::default();
        hello.add(n);
        self.publish_rx(rank, &mut hello);
        match rejoin {
            None if shm.is_empty() => {}
            None => self.map_shm_peer(rank, &shm),
            Some((generation, addr)) => {
                if let Err(e) = self.accept_rejoin(rank, generation, &addr, &shm) {
                    eprintln!("caf-socket: rejected rejoin from process {rank}: {e}");
                    return Ok(None);
                }
            }
        }
        Ok(Some(rank))
    }

    /// What a connection's first frame must be: an `Open` or a `Rejoin`, of
    /// this wire protocol, from another rank of this fleet.
    fn check_hello(&self, hello: Frame) -> io::Result<Dialer> {
        let (node, magic, shm, rejoin) = match hello {
            Frame::Open { node, magic, shm } => (node, magic, shm, None),
            Frame::Rejoin {
                node,
                generation,
                addr,
                magic,
                shm,
            } => (node, magic, shm, Some((generation, addr))),
            other => {
                let what: String = format!("{other:?}").chars().take(120).collect();
                return Err(refused(
                    what,
                    "a connection opens with Open or Rejoin".into(),
                ));
            }
        };
        let rank = node as usize;
        if rank >= self.occ.len() || rank == self.node_rank {
            let n = self.occ.len();
            return Err(refused(
                format_args!("hello from process {node}"),
                format!(
                    "no such peer of process {} in a fleet of {n}",
                    self.node_rank
                ),
            ));
        }
        if magic != WIRE_MAGIC {
            return Err(refused(
                format_args!("hello from {}", self.peer_desc(rank)),
                format!(
                    "it speaks wire protocol {magic:#010x}, this process {WIRE_MAGIC:#010x} \
                     (a fleet of mixed versions?)"
                ),
            ));
        }
        Ok(Dialer { rank, shm, rejoin })
    }

    /// A respawned incarnation of `node` dialed in: validate its
    /// generation, rebuild the egress half of the pair by back-dialing its
    /// fresh address, and revive its liveness state. Runs on the accept
    /// thread *before* the ingress thread for the new connection starts,
    /// so by the time the rejoiner's first request arrives the pair is
    /// fully re-established.
    fn accept_rejoin(
        self: &Arc<Self>,
        node: usize,
        generation: u64,
        addr: &str,
        shm_path: &str,
    ) -> io::Result<()> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if !self.cfg.respawn {
            return Err(bad("rejoin received but respawn mode is off".into()));
        }
        // A stale frame from a dead incarnation carries an old generation;
        // only the incarnation establishing the *next* generation may join.
        let current = self.recovery.generation.load(Ordering::Acquire);
        if generation != current + 1 {
            return Err(bad(format!(
                "stale rejoin generation {generation} (current {current})"
            )));
        }
        let peer_addr: Addr = addr
            .parse()
            .map_err(|e: String| bad(format!("unparseable rejoin address {addr:?}: {e}")))?;
        // The rejoin may outrun our own death detection (EOF grace still
        // ticking). Recovery needs every survivor to observe the death —
        // poison is what sends hosted images into `heal` — so declare it
        // now; a no-op if the heartbeat/EOF path already did.
        self.declare_dead(node, "peer process restarted (rejoin handshake)");
        // Replace the dead egress before flipping the peer alive: anyone
        // observing PEER_ALIVE must find a usable connection.
        self.dial_peer(node, &peer_addr, &self.open_frame())?;
        // The dead incarnation's segment is gone; remap (or drop) before
        // anyone observes PEER_ALIVE and routes data ops through shm.
        self.store.tables.set_peer(node, None);
        if !shm_path.is_empty() {
            self.map_shm_peer(node, shm_path);
        }
        *self.last_peer_stats[node].lock() = None;
        self.mark_seen(node);
        self.peer_state[node].store(PEER_ALIVE, Ordering::Release);
        Ok(())
    }

    /// The first-life handshake frame (also what a survivor back-dials a
    /// rejoiner with).
    pub(super) fn open_frame(&self) -> Frame {
        Frame::Open {
            node: self.node_rank as u32,
            magic: WIRE_MAGIC,
            shm: self.store.shm_path(),
        }
    }

    /// Map the shared segment `rank` announced in its handshake. Failure
    /// is a warning, not an error: traffic *to* that peer falls back to
    /// the wire, and each direction independently keeps program order.
    fn map_shm_peer(&self, rank: usize, path: &str) {
        if !self.cfg.shm {
            return;
        }
        match shm::PeerShm::open(std::path::Path::new(path)) {
            Ok(seg) => self.store.tables.set_peer(rank, Some(seg)),
            Err(e) => eprintln!(
                "caf-socket: cannot map shared segment of process {rank} ({path}): {e}; \
                 using the wire for it"
            ),
        }
    }

    /// Dial peer `rank` with capped exponential backoff, send `hello`
    /// (`Open`, or `Rejoin` when this process is a respawned incarnation),
    /// store the write half, and start the response-reader thread. The
    /// egress slot is write-once: the first dial fills it, and a rejoin's
    /// re-dial of a peer whose previous connection died with the old
    /// incarnation swaps the stream inside the `Egress` it holds.
    pub(super) fn dial_peer(
        self: &Arc<Self>,
        rank: usize,
        addr: &Addr,
        hello: &Frame,
    ) -> io::Result<()> {
        let t0 = Instant::now();
        let mut backoff = CONNECT_BACKOFF_START;
        let mut attempts = 0u64;
        let mut stream = loop {
            match Stream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    attempts += 1;
                    self.stats.wire_retries.fetch_add(1, Ordering::Relaxed);
                    if t0.elapsed() >= self.cfg.io_timeout {
                        return Err(io::Error::new(
                            e.kind(),
                            format!(
                                "{}: peer {addr} unreachable after {attempts} attempts: {e}",
                                self.peer_desc(rank)
                            ),
                        ));
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(CONNECT_BACKOFF_CAP);
                }
            }
        };
        if attempts > 0 {
            self.stats.wire_reconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.obs.dial_result(rank, attempts);
        stream.set_read_timeout(Some(POLL))?;
        stream.set_write_timeout(Some(self.cfg.io_timeout))?;
        let reader_half = FrameReader::new(stream.try_clone()?);
        let n = write_frame(&mut stream, hello)?;
        let hello_left = Left {
            frames: 1,
            bytes: n as u64,
            writes: 1,
        };
        self.count_sent(rank, hello_left);
        let mut fresh = Some(stream);
        let egress = self.egress[rank].get_or_init(|| {
            let stream = fresh.take().expect("the first dial's stream");
            let unacked = self.wire_debt[rank].clone();
            Arc::new(Egress::new(stream, unacked, self.pending.clone(), rank))
        });
        if let Some(stream) = fresh {
            egress.redial(stream);
        }
        let egress = egress.clone();
        self.mark_seen(rank);
        let fab = self.clone();
        self.spawn_guarded("response", move || {
            fab.response_loop(rank, reader_half, &egress)
        });
        Ok(())
    }

    /// Block until every ingress connection is up (egress dials complete
    /// synchronously in `join`).
    pub(super) fn wait_established(&self, expected: usize) -> io::Result<()> {
        let deadline = Instant::now() + self.cfg.io_timeout;
        while self.ingress_up.load(Ordering::Acquire) < expected {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "fleet bring-up timed out: {}/{expected} ingress connections \
                         after {:?}",
                        self.ingress_up.load(Ordering::Acquire),
                        self.cfg.io_timeout
                    ),
                ));
            }
            if let Some(msg) = self.poisoned.cause() {
                return Err(io::Error::other(msg));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }

    /// Serve one peer's requests: apply them in arrival order and write
    /// responses back on the same connection, in that order (which is what
    /// lets the requester complete them by sequence number). Acks are
    /// corked while the burst of requests lasts — a burst of puts is
    /// answered with one frame, the last request's ack, which stands for
    /// the requests before it — and leave before this thread blocks in a
    /// read again; data and values, which a caller is blocked on, end the
    /// burst. Its frames are counted, and the peer marked seen, once,
    /// before the responses leave.
    fn ingress_loop(&self, peer: usize, mut reader: FrameReader<Stream>, stream: Stream) {
        let mut cork = Cork::new(stream);
        // The window copy a `Get` is answered from, reused across requests.
        let mut get_buf = Vec::new();
        let mut burst = Burst::default();
        loop {
            if burst.frames == 0 && self.stopping() {
                return;
            }
            let served = reader.incoming().and_then(|(incoming, n)| {
                let response = match incoming {
                    Incoming::Put(put) => self.land_put(&put, &mut reader)?,
                    Incoming::Frame(f) => self.serve(peer, f, &mut get_buf)?,
                    Incoming::GetResp { req, .. } => {
                        return Err(unexpected(format_args!("get response {req}"), "request"))
                    }
                };
                burst.add(n);
                Ok(response)
            });
            let blocks_a_caller = !matches!(served, Ok(None | Some(Response::Ack(_))));
            let burst_over = blocks_a_caller || burst.is_over(reader.is_drained());
            if burst_over {
                self.publish_rx(peer, &mut burst);
            }
            let response = match served {
                Ok(r) => r,
                Err(e) if self.read_failed(peer, &e) => return,
                Err(_) => continue,
            };
            match respond(&mut cork, response, burst_over) {
                Ok(left) => self.count_sent(peer, left),
                // A response that cannot be written means the requester
                // can never complete, so it poisons.
                Err(_) if self.stopping() || self.all_done.load(Ordering::Acquire) => {}
                Err(e) => self.declare_dead(peer, &format!("response write failed: {e}")),
            }
            if get_buf.len() > KEEP_BYTES {
                get_buf = Vec::new();
            }
        }
    }

    /// Count the frames of `burst`, all read from `peer`, and mark it seen:
    /// once per burst, before anything that lets another thread learn the
    /// burst was read (its acks leaving, its responses retiring), so
    /// whoever sees an operation complete reads counters that include it.
    fn publish_rx(&self, peer: usize, burst: &mut Burst) {
        let Burst { frames, bytes } = std::mem::take(burst);
        if frames > 0 {
            self.stats.record_wire_rx(frames, bytes);
            self.obs.wire_rx(peer, frames, bytes);
            self.mark_seen(peer);
        }
    }

    /// A frame read on `peer`'s connection failed with `e`: `false` for an
    /// idle timeout (poll the stop flags and read again); otherwise the
    /// connection is finished — poisoned if the frame was malformed, run
    /// through the EOF rules if the stream ended or broke — and the reader
    /// thread returns.
    fn read_failed(&self, peer: usize, e: &io::Error) -> bool {
        if is_timeout(e) {
            return false;
        }
        if e.kind() == io::ErrorKind::InvalidData {
            // A malformed frame is a protocol bug (or a corrupted wire),
            // not a peer death: poison loudly with context instead of
            // letting the I/O thread die quietly.
            self.malformed_frame(&self.peer_desc(peer), e);
        } else {
            self.peer_eof(peer);
        }
        true
    }

    /// The hosted window a wire request addresses, with every
    /// wire-supplied field checked by the store's resolver *before* a byte
    /// lands or a buffer is sized from it. The refusal names the frame kind
    /// and fields; `InvalidData` takes the caller down the
    /// `malformed_frame` path, which adds the peer.
    fn requested_window(
        &self,
        what: &str,
        (src, dst, seg, off): (u32, u32, u64, u64),
        len: usize,
        access: Access,
    ) -> io::Result<Rc<Window>> {
        let window = if len > MAX_FRAME_BYTES {
            Err(format!("longer than any frame ({MAX_FRAME_BYTES} bytes)"))
        } else {
            (self.store).window(access, dst as usize, index(seg), off, len)
        };
        window.map_err(|why| {
            let fields = format!("src: {src}, dst: {dst}, seg: {seg}, off: {off}, len: {len}");
            refused(format_args!("{what} {{ {fields} }}"), why)
        })
    }

    /// Land a put's payload: validate the destination — and, of a fused
    /// `PutFlag`, the flag — then copy each chunk the reader hands over
    /// straight into the window — wire to segment, no staging. The flag is
    /// bumped, and the ack owed, only once the last chunk is in.
    fn land_put(
        &self,
        put: &PutHead,
        reader: &mut FrameReader<Stream>,
    ) -> io::Result<Option<Response<'static>>> {
        let target = (put.src, put.dst, put.seg, put.off);
        let what = if put.flag.is_some() { "PutFlag" } else { "Put" };
        let window = self.requested_window(what, target, put.len, Access::Put)?;
        let flag = (put.flag)
            .map(|(flag, delta)| self.requested_flag(what, (put.src, put.dst), flag, delta))
            .transpose()?;
        let mut at = put.off as usize;
        reader.payload(|chunk| {
            window.write(at, chunk);
            at += chunk.len();
        })?;
        if let Some((cell, flag, delta)) = flag {
            self.land_flag(
                cell.cell(),
                put.src as usize,
                put.dst as usize,
                flag,
                delta,
                None,
            );
        }
        Ok((put.ack != 0).then_some(Response::Ack(put.ack)))
    }

    /// The hosted flag cell a wire request bumps, through the store's
    /// resolver; refused like [`Self::requested_window`].
    fn requested_flag(
        &self,
        what: &str,
        (src, dst): (u32, u32),
        flag: u64,
        delta: u64,
    ) -> io::Result<(Rc<FlagCell>, FlagId, u64)> {
        match self.store.flag(dst as usize, index(flag)) {
            Ok(cell) => Ok((cell, FlagId(flag as usize), delta)),
            Err(why) => {
                let fields = format!("src: {src}, dst: {dst}, flag: {flag}, delta: {delta}");
                Err(refused(format_args!("{what} {{ {fields} }}"), why))
            }
        }
    }

    /// Apply one non-put request from `peer`; returns the response it is
    /// owed, if any. A `Get` is answered out of `get_buf`.
    pub(super) fn serve<'a>(
        &self,
        peer: usize,
        frame: Frame,
        get_buf: &'a mut Vec<u8>,
    ) -> io::Result<Option<Response<'a>>> {
        Ok(match frame {
            Frame::Get {
                src,
                dst,
                seg,
                off,
                len,
                req,
            } => {
                let len = len as usize;
                let window =
                    self.requested_window("Get", (src, dst, seg, off), len, Access::Get)?;
                if get_buf.len() < len {
                    get_buf.resize(len, 0);
                }
                window.read(off as usize, &mut get_buf[..len]);
                Some(Response::Data {
                    req,
                    data: &get_buf[..len],
                })
            }
            Frame::AmoFadd {
                src,
                dst,
                seg,
                off,
                delta,
                req,
            } => {
                let target = (src, dst, seg, off);
                let window = self.requested_window("AmoFadd", target, 8, Access::Amo)?;
                let old = window.amo(off as usize, Amo::Add(delta));
                Some(Response::Val { req, old })
            }
            Frame::AmoCas {
                src,
                dst,
                seg,
                off,
                expected,
                new,
                req,
            } => {
                let target = (src, dst, seg, off);
                let window = self.requested_window("AmoCas", target, 8, Access::Amo)?;
                let old = window.amo(off as usize, Amo::Cas { expected, new });
                Some(Response::Val { req, old })
            }
            Frame::FlagAdd {
                src,
                dst,
                flag,
                delta,
            } => {
                let (cell, flag, delta) =
                    self.requested_flag("FlagAdd", (src, dst), flag, delta)?;
                self.land_flag(cell.cell(), src as usize, dst as usize, flag, delta, None);
                None
            }
            Frame::Heartbeat { node: _, stats } => {
                // Liveness came from `mark_seen`; keep the sender's
                // counter snapshot (a dying process's last heartbeat is
                // the fleet's only record of what it was doing) and its
                // arrival time for jitter accounting.
                self.obs.heartbeat_seen(peer, self.wall_now());
                *self.last_peer_stats[peer].lock() = Some(stats);
                None
            }
            Frame::Bye { .. } => {
                self.peer_state[peer].store(PEER_GRACEFUL, Ordering::Release);
                None
            }
            Frame::RecoverBarrier {
                node,
                round,
                generation,
            } => {
                self.record_recover_mark(node as usize, round, generation);
                None
            }
            other => return Err(unexpected(other, "data")),
        })
    }

    /// Drain responses (acks, get data, AMO results) from one egress
    /// connection into the pending table: everything the read buffered is
    /// decoded first, then counted and retired under one lock with one
    /// wake-up. This thread never writes and never takes a cork lock (the
    /// deadlock rule in [`egress`]); it hands the ack-clocked flush to the
    /// egress thread.
    fn response_loop(&self, peer: usize, mut reader: FrameReader<Stream>, egress: &Egress) {
        let mut batch = Vec::new();
        let mut burst = Burst::default();
        loop {
            if batch.is_empty() && self.stopping() {
                return;
            }
            let read = reader.incoming().and_then(|(incoming, n)| {
                batch.push(match incoming {
                    Incoming::Frame(Frame::PutAck { ack }) => (ack, Reply::Ack),
                    Incoming::Frame(Frame::AmoResp { req, old }) => (req, Reply::Val(old)),
                    // The payload goes from the socket into a recycled
                    // buffer the requester copies out of — its only stop
                    // in user space on this side.
                    Incoming::GetResp { req, .. } => {
                        let mut buf = self.get_bufs.lock().pop().unwrap_or_default();
                        let len = reader.payload_into(&mut buf)?;
                        (req, Reply::Data { buf, len })
                    }
                    Incoming::Frame(f) => return Err(unexpected(f, "response")),
                    Incoming::Put(put) => return Err(unexpected(put, "response")),
                });
                burst.add(n);
                Ok(())
            });
            // What did arrive is honoured even if the read after it failed.
            let due = burst.is_over(reader.is_drained()) || read.is_err();
            let retired = if due && !batch.is_empty() {
                self.publish_rx(peer, &mut burst);
                (self.pending).complete(peer, batch.drain(..), &self.stats, egress)
            } else {
                Ok(false)
            };
            let done = retired.and_then(|poke| {
                if poke {
                    self.ack_clock.poke();
                }
                read
            });
            match done {
                Err(e) if self.read_failed(peer, &e) => return,
                _ => {}
            }
        }
    }

    /// Send heartbeats and watch for stale peers.
    pub(super) fn heartbeat_loop(&self) {
        loop {
            std::thread::sleep(self.cfg.heartbeat_period);
            if self.stopping() || self.all_done.load(Ordering::Acquire) {
                return;
            }
            // One snapshot per beat, shared by every peer's frame: each
            // peer holds our last-known counters if we die mid-run.
            let snap = self.stats.snapshot();
            for rank in 0..self.occ.len() {
                if rank == self.node_rank {
                    continue;
                }
                if self.peer_state[rank].load(Ordering::Acquire) == PEER_DEAD {
                    // Dead peers get no heartbeats; in respawn mode the
                    // slot may come back to life, so keep watching.
                    continue;
                }
                let beat = Frame::Heartbeat {
                    node: self.node_rank as u32,
                    stats: snap,
                };
                let _ = self.send_control(rank, &beat);
                if self.peer_state[rank].load(Ordering::Acquire) == PEER_ALIVE {
                    let seen = self.last_seen[rank].load(Ordering::Acquire);
                    let now = self.wall_now();
                    if now.saturating_sub(seen) > self.cfg.peer_timeout.as_nanos() as u64 {
                        self.declare_dead(
                            rank,
                            &format!(
                                "no frames for {:?} (peer timeout {:?})",
                                Duration::from_nanos(now.saturating_sub(seen)),
                                self.cfg.peer_timeout
                            ),
                        );
                        // In respawn mode survivors keep beating so they do
                        // not falsely time each other out during recovery.
                        if !self.cfg.respawn {
                            return;
                        }
                    }
                }
            }
        }
    }

    pub(super) fn stopping(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire) || self.severed.load(Ordering::Acquire)
    }

    pub(super) fn mark_seen(&self, peer: usize) {
        self.last_seen[peer].store(self.wall_now(), Ordering::Release);
    }

    /// EOF or I/O error on a connection to `peer`: expected during orderly
    /// teardown or after its `Bye`; otherwise — after a short grace window
    /// for the `Bye` racing in on the other connection of the pair — it is
    /// a death.
    fn peer_eof(&self, peer: usize) {
        let entered = self.wall_now();
        let deadline = Instant::now() + EOF_GRACE;
        loop {
            if self.stopping()
                || self.all_done.load(Ordering::Acquire)
                || self.peer_state[peer].load(Ordering::Acquire) != PEER_ALIVE
            {
                return;
            }
            // The peer spoke *after* this connection hit EOF: a respawned
            // incarnation is already up on a fresh connection, and this
            // thread is watching the corpse of the old one. Not a death.
            if self.last_seen[peer].load(Ordering::Acquire) > entered {
                return;
            }
            if Instant::now() > deadline {
                self.declare_dead(peer, "connection closed without Bye");
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    pub(super) fn declare_dead(&self, peer: usize, cause: &str) {
        if self.peer_state[peer]
            .compare_exchange(PEER_ALIVE, PEER_DEAD, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let mut msg = format!("{} is dead: {cause}", self.peer_desc(peer));
        // Say what the fleet was doing, not just what this observer saw:
        // the dead node's own counters from its final heartbeat.
        match *self.last_peer_stats[peer].lock() {
            Some(s) => {
                msg.push_str("\ndead node last-known stats (from its final heartbeat): ");
                msg.push_str(&s.render_brief());
            }
            None => {
                msg.push_str("\n(no heartbeat stats were received from the dead node)");
            }
        }
        self.push_recent_ops(&mut msg);
        self.poison(&msg);
    }

    /// `"process R (node N, images i,j,...)"` with 1-based image numbers —
    /// the rank list operators grep for in failure reports.
    pub(super) fn peer_desc(&self, peer: usize) -> String {
        let node = self.occ[peer];
        let imgs: Vec<String> = self
            .map
            .images_on_node(node)
            .iter()
            .map(|p| (p.index() + 1).to_string())
            .collect();
        format!(
            "peer process {peer} (node {}, images {})",
            node.index(),
            imgs.join(",")
        )
    }

    /// A frame failed to decode (`InvalidData`): the connection's framing
    /// is broken — a protocol bug or wire corruption, not a peer death.
    /// Poison the whole fabric with the decode error and the tracer's
    /// recent-operation window so the failure is loud and diagnosable.
    fn malformed_frame(&self, from: &str, e: &io::Error) {
        let mut msg = format!("malformed frame from {from}: {e} (protocol bug or wire corruption)");
        self.push_recent_ops(&mut msg);
        self.poison(&msg);
    }
}

/// Cork `response` (an ack into the one it follows: [`Cork::push_ack`]);
/// write the cork out if the burst of requests `is_over`. Returns what
/// left.
fn respond(cork: &mut Cork, response: Option<Response<'_>>, is_over: bool) -> io::Result<Left> {
    let mut left = match response {
        None => Left::default(),
        Some(Response::Ack(ack)) => cork.push_ack(ack)?,
        Some(Response::Val { req, old }) => {
            let amo_resp = Frame::AmoResp { req, old };
            cork.push(Urgency::Now, None, |_, b| {
                amo_resp.encode_into(b);
                &[]
            })?
            .0
        }
        Some(Response::Data { req, data }) => {
            (cork.push(Urgency::Now, None, |_, b| {
                wire::encode_get_resp(b, req, data)
            })?)
            .0
        }
    };
    if is_over {
        left += cork.flush()?;
    }
    Ok(left)
}

/// A wire-supplied index as a table index (one no table holds, where it
/// does not fit).
fn index(wire: u64) -> usize {
    usize::try_from(wire).unwrap_or(usize::MAX)
}

/// A well-formed frame, `what`, arrived on a `connection` that never
/// carries it: the peer broke the protocol.
fn unexpected(what: impl std::fmt::Debug, connection: &str) -> io::Error {
    let why = format!("unexpected {what:?} on a {connection} connection");
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// `what` (a frame's kind and fields) was refused because `why`.
fn refused(what: impl Display, why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {why}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::rendezvous::{self, Coordinator};
    use crate::socket::wire::Transport;
    use crate::socket::{CoordClient, SocketConfig};
    use crate::RecoveryError;
    use caf_topology::{presets, ImageMap, Placement};
    use std::io::Write;

    /// The previous wire protocol's magic: what a process of the last
    /// release opens with.
    const OLD_MAGIC: u32 = 0xCAF5_0C07;

    /// Process 0 of a two-process fleet whose process 1 is the test.
    struct Lone {
        fabric: Arc<SocketFabric>,
        /// Where it accepts (respawn mode: the listener stays up).
        listens: Addr,
        /// The connection it dialed to "process 1": its requests arrive
        /// here, and what is written here reaches its response reader.
        dialed: Stream,
        /// The connection "process 1" dialed to it, kept open: closing it
        /// without a `Bye` would be a death.
        _opened: Stream,
    }

    fn lone_process() -> Lone {
        let cfg = SocketConfig {
            shm: false,
            respawn: true,
            heartbeat_period: Duration::from_secs(1),
            peer_timeout: Duration::from_secs(60),
            io_timeout: Duration::from_secs(5),
            ..SocketConfig::default()
        };
        let mut coord = Coordinator::bind(Transport::Uds, 2).expect("bind coordinator");
        let me = Listener::bind(Transport::Uds).expect("bind process 1");
        let my_addr = me.local_addr().expect("own addr");
        let coord_addr = coord.addr().clone();
        let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
        let at = coord_addr.clone();
        let joining = std::thread::spawn(move || SocketFabric::join(map, 0, &at, cfg).map(|j| j.0));
        // The test is process 1 at the rendezvous too; its control
        // connection may close, the test reports nothing.
        let hello = std::thread::spawn(move || {
            CoordClient::join(&coord_addr, 1, &my_addr, Duration::from_secs(5)).map(|j| j.1)
        });
        coord
            .admit(Duration::from_secs(5), rendezvous::nap)
            .expect("rendezvous");
        let peers = hello.join().expect("hello thread").expect("peer list");
        let listens = peers[0].clone();
        let dialed = me.accept().expect("process 0 dials");
        // The well-formed hello `join` waits for.
        let mut opened = Stream::connect(&listens).expect("dial process 0");
        let open = Frame::Open {
            node: 1,
            magic: WIRE_MAGIC,
            shm: String::new(),
        };
        write_frame(&mut opened, &open).expect("open");
        let fabric = joining.join().expect("join thread").expect("join");
        Lone {
            fabric,
            listens,
            dialed,
            _opened: opened,
        }
    }

    impl Lone {
        /// Wait for the poison, and lift it again for the next case.
        fn take_poison(&self) -> String {
            let t0 = Instant::now();
            loop {
                if let Err(RecoveryError::Poisoned(msg)) = self.fabric.health() {
                    self.fabric.poisoned.clear();
                    return msg;
                }
                assert!(t0.elapsed() < Duration::from_secs(5), "never poisoned");
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        /// Dial process 0 and open with `first` (raw bytes); the poison it
        /// answers with, once it has dropped the connection.
        fn refused(&self, first: &[u8]) -> String {
            let mut s = Stream::connect(&self.listens).expect("the accept thread is alive");
            s.write_all(first).expect("write");
            let msg = self.take_poison();
            s.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            let eof = FrameReader::new(s).next_frame().expect_err("dropped");
            assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof, "{eof}");
            msg
        }
    }

    #[test]
    fn a_wrong_first_frame_is_refused_loudly_and_the_accept_thread_lives() {
        let lone = lone_process();
        let ingress_before = lone.fabric.ingress_up.load(Ordering::Acquire);
        // A process of the previous release.
        let old = Frame::Open {
            node: 1,
            magic: OLD_MAGIC,
            shm: String::new(),
        };
        let msg = lone.refused(&old.encode());
        assert!(
            msg.contains(
                "malformed frame from a dialing process: hello from peer process 1 (node 1, \
                 images 2): it speaks wire protocol 0xcaf50c07, this process 0xcaf50c08"
            ),
            "{msg}"
        );
        let rejoin = Frame::Rejoin {
            node: 1,
            generation: 1,
            addr: "uds:/nowhere".into(),
            magic: OLD_MAGIC,
            shm: String::new(),
        };
        let msg = lone.refused(&rejoin.encode());
        assert!(msg.contains("it speaks wire protocol 0xcaf50c07"), "{msg}");
        // A rank that is not a peer: out of the fleet, and its own.
        for node in [7, 0] {
            let open = Frame::Open {
                node,
                magic: WIRE_MAGIC,
                shm: String::new(),
            };
            let msg = lone.refused(&open.encode());
            let why =
                format!("hello from process {node}: no such peer of process 0 in a fleet of 2");
            assert!(msg.contains(&why), "{msg}");
        }
        // A data frame where the hello belongs.
        let put = Frame::Put {
            src: 1,
            dst: 0,
            seg: 0,
            off: 0,
            ack: 1,
            data: vec![0xEE; 8],
        };
        let msg = lone.refused(&put.encode());
        assert!(
            msg.contains("Put { src: 1, dst: 0, seg: 0, off: 0, ack: 1"),
            "{msg}"
        );
        assert!(
            msg.contains("a connection opens with Open or Rejoin"),
            "{msg}"
        );
        // A hello whose body stops short of its fields.
        let open = Frame::Open {
            node: 1,
            magic: WIRE_MAGIC,
            shm: "/dev/shm/x".into(),
        };
        let whole = open.encode();
        let mut short = whole[..whole.len() - 4].to_vec();
        let body = (short.len() - 4) as u32;
        short[..4].copy_from_slice(&body.to_le_bytes());
        let msg = lone.refused(&short);
        assert!(msg.contains("truncated frame body"), "{msg}");
        // One cut off by the dialer going away is nobody's protocol error.
        let mut gone = Stream::connect(&lone.listens).expect("dial");
        gone.write_all(&whole[..7]).expect("write");
        drop(gone);
        // Through all of it no connection was taken into service, and the
        // thread that would is still there to take the next.
        let s = Stream::connect(&lone.listens).expect("the accept thread is alive");
        drop(s);
        assert_eq!(
            lone.fabric.ingress_up.load(Ordering::Acquire),
            ingress_before
        );
        assert!(lone.fabric.health().is_ok());
        lone.fabric.shutdown();
    }

    /// A well-formed frame on a connection that never carries it — a
    /// response or a rendezvous frame among requests, a request among
    /// responses — poisons naming the peer; no service thread panics.
    #[test]
    fn a_frame_on_the_wrong_connection_poisons_naming_the_peer() {
        let from = "malformed frame from peer process 1 (node 1, images 2): unexpected";
        let resp = Frame::GetResp {
            req: 4,
            data: vec![1, 2, 3],
        };
        let hello = Frame::Hello {
            node: 1,
            addr: "uds:/nowhere".into(),
            magic: WIRE_MAGIC,
        };
        let get = Frame::Get {
            src: 1,
            dst: 0,
            seg: 0,
            off: 0,
            len: 8,
            req: 4,
        };
        // Each on a connection of a lone process of its own: the first
        // frame ends the connection it came on.
        let cases = [
            (
                resp,
                true,
                "get response 4 on a request connection".to_string(),
            ),
            (
                hello.clone(),
                true,
                format!("{hello:?} on a data connection"),
            ),
            (
                get.clone(),
                false,
                format!("{get:?} on a response connection"),
            ),
        ];
        for (frame, among_requests, what) in cases {
            let lone = lone_process();
            let on = if among_requests {
                &lone._opened
            } else {
                &lone.dialed
            };
            write_frame(&mut on.try_clone().expect("clone"), &frame).expect("write");
            let msg = lone.take_poison();
            assert!(msg.contains(&format!("{from} {what}")), "{msg}");
            lone.fabric.shutdown();
        }
    }

    #[test]
    fn a_response_to_no_request_poisons_naming_the_peer() {
        let lone = lone_process();
        let mut dialed = lone.dialed.try_clone().expect("clone");
        write_frame(&mut dialed, &Frame::PutAck { ack: 9 }).expect("ack");
        let msg = lone.take_poison();
        assert!(
            msg.contains(
                "malformed frame from peer process 1 (node 1, images 2): Ack response to \
                 request 9: requests 1..1 are in flight"
            ),
            "{msg}"
        );
        lone.fabric.shutdown();
    }
}
