//! The socket fabric's wire protocol: addresses, streams, and
//! length-prefixed frames.
//!
//! Every message on every connection — data-plane traffic between peer
//! processes, and the rendezvous exchange with the launcher's coordinator —
//! is one [`Frame`], encoded as a little-endian `u32` body length followed
//! by a one-byte tag and the tag's fixed fields. The format is declared once
//! in the `frames!` table (no serde on the hot path), each field type's
//! encoding once behind the crate-private `Field` trait, and it is versioned
//! by the `OPEN` handshake's magic, so a mismatched peer fails loudly at
//! connect time rather than corrupting segments.
//!
//! The bulk frames — `Put`, `PutFlag` and `GetResp` — end in a payload
//! behind their fixed fields, and those heads have one codec: a sender
//! encodes a [`PutHead`] (or the `GetResp` head) in front of a payload
//! it only borrows, and one parser reads the heads back for the streaming
//! [`FrameReader`], for [`Frame::decode`] and for the egress cork's fusion
//! of a flag into a corked put (`fuse_flag`).

use super::obs::{HeartbeatSnapshot, PeerWireSnapshot};
use crate::am::AmOp;
use crate::stats::StatsSnapshot;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Protocol magic carried by [`Frame::Open`] and [`Frame::Hello`]; bump on
/// any incompatible frame-format change.
pub const WIRE_MAGIC: u32 = 0xCAF5_0C07;

/// Upper bound on one frame body — a corrupted length prefix fails here
/// instead of attempting a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A transport endpoint address, printable as `uds:<path>` or
/// `tcp:<ip>:<port>` (the form exchanged through the rendezvous and the
/// `CAF_LAUNCH_COORD` environment variable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    /// Unix-domain socket path (node-local fleets).
    Uds(PathBuf),
    /// TCP socket address (cross-node fleets).
    Tcp(SocketAddr),
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Uds(p) => write!(f, "uds:{}", p.display()),
            Addr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl std::str::FromStr for Addr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if let Some(path) = s.strip_prefix("uds:") {
            Ok(Addr::Uds(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            addr.parse()
                .map(Addr::Tcp)
                .map_err(|e| format!("bad tcp address {addr:?}: {e}"))
        } else {
            Err(format!("address {s:?} has neither uds: nor tcp: prefix"))
        }
    }
}

/// Which transport a listener binds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Unix-domain sockets under the system temp directory.
    Uds,
    /// TCP on the loopback interface.
    Tcp,
}

impl Transport {
    /// Transport selected by the environment: `CAF_SOCKET_TCP=1` forces
    /// TCP, anything else picks Unix-domain sockets.
    pub fn from_env() -> Self {
        match std::env::var("CAF_SOCKET_TCP") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Transport::Tcp,
            _ => Transport::Uds,
        }
    }
}

/// A connected byte stream over either transport.
#[derive(Debug)]
pub enum Stream {
    /// Unix-domain connection.
    Uds(UnixStream),
    /// TCP connection (Nagle disabled — frames are latency-sensitive).
    Tcp(TcpStream),
}

impl Stream {
    /// Clone the underlying descriptor so reads and writes can proceed from
    /// different threads.
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Bound every read so reader threads can poll shutdown/poison flags.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Bound every write so a peer that stopped draining cannot wedge the
    /// sender forever.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_write_timeout(t),
            Stream::Tcp(s) => s.set_write_timeout(t),
        }
    }

    /// Orderly close of the write half (flushes buffered data before the
    /// peer observes EOF).
    pub fn shutdown_write(&self) {
        let _ = match self {
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Write),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
        };
    }

    /// Connect to `addr` once (no retry — backoff policy lives in the
    /// fabric, which owns the stats counters).
    pub fn connect(addr: &Addr) -> io::Result<Stream> {
        match addr {
            Addr::Uds(p) => UnixStream::connect(p).map(Stream::Uds),
            Addr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound listener over either transport. Dropping a Unix-domain listener
/// unlinks its socket file.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain listener plus the path to unlink on drop.
    Uds(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind a fresh listener: a unique socket file under the temp directory
    /// for UDS, an ephemeral loopback port for TCP.
    pub fn bind(transport: Transport) -> io::Result<Listener> {
        match transport {
            Transport::Uds => {
                use std::sync::atomic::{AtomicU64, Ordering};
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let path = std::env::temp_dir().join(format!(
                    "caf-sock-{}-{}.sock",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let _ = std::fs::remove_file(&path);
                Ok(Listener::Uds(UnixListener::bind(&path)?, path))
            }
            Transport::Tcp => TcpListener::bind("127.0.0.1:0").map(Listener::Tcp),
        }
    }

    /// The address peers should dial.
    pub fn local_addr(&self) -> io::Result<Addr> {
        Ok(match self {
            Listener::Uds(_, p) => Addr::Uds(p.clone()),
            Listener::Tcp(l) => Addr::Tcp(l.local_addr()?),
        })
    }

    /// Toggle nonblocking accepts (the fabric's accept loop polls a
    /// shutdown flag between attempts).
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Uds(l, _) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    /// Accept one connection.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Uds(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Uds(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Declares [`Frame`] **once**. Each control frame is one row — its docs,
/// name, tag and typed fields — and the row is the variant, its encoder arm
/// and its decoder arm: the tag byte, then each field through its type's
/// [`Field`] codec, in row order. The bulk frames are variants of the same
/// enum whose heads have codecs of their own ([`PutHead`], the `GetResp`
/// head, `AmBatch`'s). A new frame is one row, under a tag never used.
macro_rules! frames {
    (
        $(#[$meta:meta])*
        pub enum $Frame:ident;
        bulk {$(
            $(#[$bdoc:meta])*
            $Bulk:ident { $($(#[$bfdoc:meta])* $bf:ident: $BTy:ty,)* },
        )*}
        control {$(
            $(#[$doc:meta])*
            $Name:ident = $tag:literal { $($(#[$fdoc:meta])* $f:ident: $Ty:ty,)* },
        )*}
    ) => {
        $(#[$meta])*
        pub enum $Frame {
            $($(#[$bdoc])* $Bulk { $($(#[$bfdoc])* $bf: $BTy,)* },)*
            $($(#[$doc])* $Name { $($(#[$fdoc])* $f: $Ty,)* },)*
        }

        impl $Frame {
            /// The tag and fields of a control frame.
            fn encode_control(&self, b: &mut Vec<u8>) {
                match self {
                    $($Frame::$Name { $($f),* } => {
                        b.push($tag);
                        $($f.put(b);)*
                    })*
                    _ => unreachable!("{self:?} has an encoder of its own"),
                }
            }

            /// The control frame `tag` names, from the rest of its body.
            // Out of line, as is `decode_am_batch`: `Frame::decode` returns
            // what they build in place, and its bulk path stays small.
            #[inline(never)]
            fn decode_control(tag: u8, rest: &[u8]) -> io::Result<$Frame> {
                let mut c = Cursor::new(rest);
                let f = match tag {
                    $($tag => $Frame::$Name { $($f: c.get()?),* },)*
                    _ => return Err(invalid("unknown frame tag")),
                };
                if !c.done() {
                    return Err(invalid("trailing bytes in frame body"));
                }
                Ok(f)
            }
        }
    };
}

frames! {
    /// One protocol message. Data-plane tags (`Open`..`Bye`) flow on peer
    /// connections; rendezvous tags (`Hello`..`Abort`) flow on the coordinator
    /// connection. See the module docs for encoding.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Frame;

    bulk {
        /// One-sided write into a hosted image's segment. `ack != 0` requests
        /// a [`Frame::PutAck`] echoing it once the payload is applied.
        Put {
            /// Issuing image (global 0-based rank).
            src: u32,
            /// Target image (must be hosted by the receiver).
            dst: u32,
            /// Target segment id.
            seg: u64,
            /// Byte offset within the segment.
            off: u64,
            /// Completion-ack cookie (0 = no ack requested).
            ack: u64,
            /// Payload bytes.
            data: Vec<u8>,
        },
        /// A [`Frame::Put`] and the [`Frame::FlagAdd`] that followed it from
        /// the same image to the same target, as one frame: the receiver lands
        /// the payload, then bumps the flag, then acks — what the pair does on
        /// an ordered connection. A signalled put (`Fabric::put_flag`) is sent
        /// as one, and the egress cork rewrites a still-corked `put_nb`'s `Put`
        /// into one when its flag arrives.
        PutFlag {
            /// Issuing image (global 0-based rank).
            src: u32,
            /// Target image (must be hosted by the receiver).
            dst: u32,
            /// Target segment id.
            seg: u64,
            /// Byte offset within the segment.
            off: u64,
            /// Completion-ack cookie (0 = no ack requested).
            ack: u64,
            /// Payload bytes.
            data: Vec<u8>,
            /// Target flag id, bumped once the payload has landed.
            flag: u64,
            /// Increment.
            delta: u64,
        },
        /// Response to a [`Frame::Get`].
        GetResp {
            /// The request cookie.
            req: u64,
            /// The bytes read.
            data: Vec<u8>,
        },
        /// A batch of active-message ops from one image to one target image,
        /// applied at the receiver **in vector order** (the AM tier's
        /// per-destination program-order guarantee). `ack` requests a
        /// [`Frame::PutAck`] once every op in the batch has been applied, so
        /// the sender's `quiet` covers batched AMs exactly like nonblocking
        /// puts.
        AmBatch {
            /// Issuing image (global 0-based rank).
            src: u32,
            /// Target image (must be hosted by the receiver).
            dst: u32,
            /// Completion-ack cookie (0 = no ack requested).
            ack: u64,
            /// The ops, in program order.
            ops: Vec<AmOp>,
        },
    }

    control {
        /// First frame on every data connection: the dialing process
        /// identifies itself (and the protocol version, via `magic`).
        Open = 1 {
            /// Dialer's process (node) rank.
            node: u32,
            /// Must equal [`WIRE_MAGIC`].
            magic: u32,
            /// Path of the dialer's shared-memory segment file (empty when the
            /// dialer offers none). A receiver that shares the host maps it and
            /// services its side of the pair's traffic at memory speed.
            shm: String,
        },
        /// Completion ack for a [`Frame::Put`] or [`Frame::PutFlag`].
        PutAck = 3 {
            /// The cookie from the acked put.
            ack: u64,
        },
        /// One-sided read request.
        Get = 4 {
            /// Issuing image.
            src: u32,
            /// Source image (must be hosted by the receiver).
            dst: u32,
            /// Source segment id.
            seg: u64,
            /// Byte offset within the segment.
            off: u64,
            /// Bytes requested.
            len: u32,
            /// Request cookie echoed by the response.
            req: u64,
        },
        /// Remote atomic fetch-and-add.
        AmoFadd = 6 {
            /// Issuing image.
            src: u32,
            /// Target image.
            dst: u32,
            /// Target segment id.
            seg: u64,
            /// Byte offset (8-byte aligned).
            off: u64,
            /// Addend.
            delta: u64,
            /// Request cookie.
            req: u64,
        },
        /// Remote atomic compare-and-swap.
        AmoCas = 7 {
            /// Issuing image.
            src: u32,
            /// Target image.
            dst: u32,
            /// Target segment id.
            seg: u64,
            /// Byte offset (8-byte aligned).
            off: u64,
            /// Expected value.
            expected: u64,
            /// Replacement value.
            new: u64,
            /// Request cookie.
            req: u64,
        },
        /// Response to either AMO: the previous cell value.
        AmoResp = 8 {
            /// The request cookie.
            req: u64,
            /// Previous value of the cell.
            old: u64,
        },
        /// One-way accumulating sync-flag notification (ordered after any
        /// preceding puts on the same connection — the fabric's point-to-point
        /// ordering guarantee).
        FlagAdd = 9 {
            /// Issuing image.
            src: u32,
            /// Target image.
            dst: u32,
            /// Target flag id.
            flag: u64,
            /// Increment.
            delta: u64,
        },
        /// Liveness beacon, sent on every egress connection each heartbeat
        /// period. Carries the sender's counter snapshot so every peer holds a
        /// last-known picture of what the sender was doing — the flight
        /// recorder's view of a process that dies between beacons.
        Heartbeat = 10 {
            /// Sender's process rank.
            node: u32,
            /// The sender's [`StatsSnapshot`] at send time.
            stats: StatsSnapshot,
        },
        /// Graceful goodbye: the sender's hosted images have all finished, no
        /// more requests or heartbeats will follow, and subsequent EOF from it
        /// is *not* a death.
        Bye = 11 {
            /// Sender's process rank.
            node: u32,
        },
        /// First frame on a data connection dialed by a **respawned** process:
        /// like [`Frame::Open`], but announces that the dialer is a new
        /// incarnation of a previously dead rank. `generation` is the recovery
        /// generation this rejoin establishes — a receiver at generation `g`
        /// accepts only `generation == g + 1` and drops anything else as a
        /// stale frame from a dead incarnation. `addr` is the rejoiner's fresh
        /// data-plane listen address, which the receiver back-dials to rebuild
        /// its egress half of the pair.
        Rejoin = 12 {
            /// Dialer's process (node) rank.
            node: u32,
            /// The recovery generation this rejoin establishes.
            generation: u64,
            /// The rejoiner's listen address, as `Addr` text.
            addr: String,
            /// Must equal [`WIRE_MAGIC`].
            magic: u32,
            /// Path of the rejoiner's **new** generation-tagged shared-memory
            /// segment file (empty when none). Receivers must remap: the dead
            /// incarnation's segment is gone.
            shm: String,
        },
        /// Recovery fence mark, sent point-to-point to every recovery
        /// participant during [`Fabric::heal`](crate::Fabric::heal). Round 1
        /// means "my images have all stopped; everything I sent before this
        /// frame is pre-recovery traffic" (per-connection FIFO drains it);
        /// round 2 means "my state reset for `generation` is complete". No new
        /// traffic may be issued until round 2 arrives from every participant.
        RecoverBarrier = 13 {
            /// Sender's process rank.
            node: u32,
            /// Fence round (1 = stopped, 2 = reset complete).
            round: u64,
            /// The generation being established.
            generation: u64,
        },
        /// Rendezvous: a fleet member announces its rank and listen address.
        Hello = 16 {
            /// Member's process rank.
            node: u32,
            /// Its listen address, as `Addr` text.
            addr: String,
            /// Must equal [`WIRE_MAGIC`].
            magic: u32,
        },
        /// Rendezvous: the coordinator's reply — every member's listen address,
        /// indexed by process rank.
        Peers = 17 {
            /// Listen addresses in rank order.
            addrs: Vec<String>,
        },
        /// A fleet member's final result report (per hosted image).
        Done = 18 {
            /// Member's process rank.
            node: u32,
            /// `(global image rank, result)` pairs for every hosted image.
            results: Vec<(u32, u64)>,
        },
        /// Rendezvous: abort the fleet with a message.
        Abort = 19 {
            /// Human-readable reason.
            msg: String,
        },
        /// Control-plane telemetry shipment: an encoded
        /// [`NodeTelemetry`](crate::socket::obs::NodeTelemetry) blob (trace
        /// window, counters, wire/latency/heartbeat observations). Flows only on
        /// the coordinator connection; the payload format is versioned
        /// independently by its own magic.
        Telemetry = 20 {
            /// Sender's process rank.
            node: u32,
            /// Encoded `NodeTelemetry`.
            payload: Vec<u8>,
        },
    }
}

// The bulk frames' tags; every other frame's is in its row above.
const T_PUT: u8 = 2;
const T_GET_RESP: u8 = 5;
const T_AM_BATCH: u8 = 14;
const T_PUT_FLAG: u8 = 15;

/// The `InvalidData` error every malformed body fails as.
#[cold]
pub(crate) fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// How one field type travels, written once for every frame and telemetry
/// payload that carries it. Integers are little-endian; a `Vec<T>` is a
/// `u32` count and then its items.
pub(crate) trait Field: Sized {
    /// The fewest bytes one value takes on the wire.
    const MIN_BYTES: usize;
    /// The most items a `Vec` of this type may claim: a larger count is a
    /// corrupted header, not traffic. 0 for a type no vector carries.
    const MAX_ITEMS: usize = 0;

    /// Append the encoding to `b`.
    fn put(&self, b: &mut Vec<u8>);

    /// Read one value at the cursor.
    fn get(c: &mut Cursor<'_>) -> io::Result<Self>;

    /// Append `items` back to back (bytes: in one copy).
    fn put_all(items: &[Self], b: &mut Vec<u8>) {
        for item in items {
            item.put(b);
        }
    }

    /// Read `n` items onto `out` (bytes: in one copy).
    fn get_all(c: &mut Cursor<'_>, n: usize, out: &mut Vec<Self>) -> io::Result<()> {
        for _ in 0..n {
            out.push(Self::get(c)?);
        }
        Ok(())
    }
}

/// Little-endian integers. A vector of `u32`s is a list of image ranks: at
/// most 2^20 of them.
macro_rules! int_field {
    ($($t:ty => $max:expr),*) => {$(
        impl Field for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            const MAX_ITEMS: usize = $max;

            fn put(&self, b: &mut Vec<u8>) {
                b.extend_from_slice(&self.to_le_bytes());
            }

            fn get(c: &mut Cursor<'_>) -> io::Result<Self> {
                let bytes = c.take(Self::MIN_BYTES)?.try_into();
                Ok(<$t>::from_le_bytes(bytes.expect("take returns the bytes it was asked for")))
            }
        }
    )*};
}
int_field!(u32 => 1 << 20, u64 => 0);

/// A byte; a byte string is a `Vec<u8>`, copied in one go and bounded only
/// by the body it arrives in.
impl Field for u8 {
    const MIN_BYTES: usize = 1;
    const MAX_ITEMS: usize = u32::MAX as usize;

    fn put(&self, b: &mut Vec<u8>) {
        b.push(*self);
    }

    fn get(c: &mut Cursor<'_>) -> io::Result<Self> {
        Ok(c.take(1)?[0])
    }

    fn put_all(items: &[u8], b: &mut Vec<u8>) {
        b.extend_from_slice(items);
    }

    fn get_all(c: &mut Cursor<'_>, n: usize, out: &mut Vec<u8>) -> io::Result<()> {
        out.extend_from_slice(c.take(n)?);
        Ok(())
    }
}

/// A `u32` count, then the items: the one place a decoder reads a count,
/// checks it, and sizes an allocation by it.
impl<T: Field> Field for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn put(&self, b: &mut Vec<u8>) {
        put_items(self, b);
    }

    fn get(c: &mut Cursor<'_>) -> io::Result<Self> {
        let n = c.get::<u32>()? as usize;
        if n > T::MAX_ITEMS {
            let what = std::any::type_name::<T>();
            return Err(invalid(&format!("absurd count of {what}: {n}")));
        }
        // No more items than the bytes left could hold: a count claimed by
        // a short body does not size the allocation.
        let mut items = Vec::with_capacity(n.min(c.remaining() / T::MIN_BYTES));
        T::get_all(c, n, &mut items)?;
        Ok(items)
    }
}

/// Append `items` as the `Vec<T>` they would make, from a borrowed slice.
pub(crate) fn put_items<T: Field>(items: &[T], b: &mut Vec<u8>) {
    (items.len() as u32).put(b);
    T::put_all(items, b);
}

/// UTF-8 text, as its bytes. A vector of strings is one per process: at
/// most 2^16 of them.
impl Field for String {
    const MIN_BYTES: usize = 4;
    const MAX_ITEMS: usize = 1 << 16;

    fn put(&self, b: &mut Vec<u8>) {
        put_items(self.as_bytes(), b);
    }

    fn get(c: &mut Cursor<'_>) -> io::Result<Self> {
        String::from_utf8(c.get()?).map_err(|_| invalid("non-utf8 string in frame"))
    }
}

/// A pair, first then second. A vector of pairs is a `(image, result)`
/// report: at most 2^24 of them.
impl<A: Field, B: Field> Field for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    const MAX_ITEMS: usize = 1 << 24;

    fn put(&self, b: &mut Vec<u8>) {
        self.0.put(b);
        self.1.put(b);
    }

    fn get(c: &mut Cursor<'_>) -> io::Result<Self> {
        Ok((c.get()?, c.get()?))
    }
}

/// `N` words, with no count: their number is the type's.
impl<const N: usize> Field for [u64; N] {
    const MIN_BYTES: usize = 8 * N;

    fn put(&self, b: &mut Vec<u8>) {
        u64::put_all(self, b);
    }

    fn get(c: &mut Cursor<'_>) -> io::Result<Self> {
        let mut words = [0; N];
        for w in &mut words {
            *w = c.get()?;
        }
        Ok(words)
    }
}

/// A counter snapshot, as its words in table order (`to_words`). A vector
/// of them is one per peer process: at most 2^16.
macro_rules! snapshot_field {
    ($($Snap:ty),*) => {$(
        impl Field for $Snap {
            const MIN_BYTES: usize = 8 * <$Snap>::WORDS;
            const MAX_ITEMS: usize = 1 << 16;

            fn put(&self, b: &mut Vec<u8>) {
                self.to_words().put(b);
            }

            fn get(c: &mut Cursor<'_>) -> io::Result<Self> {
                Ok(Self::from_words(c.get()?))
            }
        }
    )*};
}
snapshot_field!(StatsSnapshot, PeerWireSnapshot, HeartbeatSnapshot);

/// A read position in a frame body or a telemetry payload.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet read: what bounds a decoder's pre-allocation, so a
    /// count field cannot ask for more items than the body could hold.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(invalid("truncated frame body"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one `T`, through its [`Field`] codec.
    pub(crate) fn get<T: Field>(&mut self) -> io::Result<T> {
        T::get(self)
    }
}

/// Append one frame to `b`: the length prefix, then whatever `body` writes
/// (tag + fields). The prefix also counts the `tail` bytes of bulk payload
/// that follow the body on the wire but are *not* written into `b`.
fn framed(b: &mut Vec<u8>, tail: usize, body: impl FnOnce(&mut Vec<u8>)) {
    let start = b.len();
    0u32.put(b);
    body(b);
    let body_len = (b.len() - start - 4 + tail) as u32;
    b[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// The fixed fields of a [`Frame::Put`] or [`Frame::PutFlag`], the head in
/// front of its payload — and the one codec of that head. A sender writes
/// it in front of a payload it only borrows ([`Self::encode_head`]); the
/// reader parses it and leaves the payload in the stream
/// ([`Incoming::Put`]); an owned [`Frame`] is encoded and decoded through
/// it; and `fuse_flag` reads and rewrites a corked one with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PutHead {
    /// Issuing image (global 0-based rank).
    pub src: u32,
    /// Target image (must be hosted by the receiver).
    pub dst: u32,
    /// Target segment id.
    pub seg: u64,
    /// Byte offset within the segment.
    pub off: u64,
    /// Completion-ack cookie (0 = no ack requested).
    pub ack: u64,
    /// Payload bytes that follow.
    pub len: usize,
    /// A `PutFlag`'s `(flag, delta)`, bumped once the payload has landed;
    /// `None` for a plain `Put`.
    pub flag: Option<(u64, u64)>,
}

impl PutHead {
    /// Body bytes before a `PutFlag`'s payload, the longest head of any
    /// bulk frame: the tag, `src`, `dst`, `seg`, `off`, `ack`, `len`, then
    /// `flag` and `delta`.
    const MAX_BYTES: usize = 1 + 4 + 4 + 8 + 8 + 8 + 4 + 8 + 8;

    /// Append the frame of this head and `data` (its `len` bytes) to `b`
    /// **without the payload**, which is handed back: the length prefix
    /// already counts it, so the wire image is `b`'s new bytes followed by
    /// `data` — copied behind them, or written in place by one vectored
    /// write, never staged in a frame of its own.
    pub fn encode_head<'d>(&self, b: &mut Vec<u8>, data: &'d [u8]) -> &'d [u8] {
        debug_assert_eq!(self.len, data.len(), "the head of another payload");
        let (head, n) = self.encode();
        b.extend_from_slice(&head[..n]);
        data
    }

    /// The length prefix and the head — the tag, then the fields in
    /// declaration order — as the first `n` bytes of the array; and `n`.
    fn encode(&self) -> ([u8; 4 + Self::MAX_BYTES], usize) {
        let mut head = [0; 4 + Self::MAX_BYTES];
        let mut n = 4;
        let mut put = |bytes: &[u8]| {
            head[n..n + bytes.len()].copy_from_slice(bytes);
            n += bytes.len();
        };
        put(&[self.flag.map_or(T_PUT, |_| T_PUT_FLAG)]);
        put(&self.src.to_le_bytes());
        put(&self.dst.to_le_bytes());
        put(&self.seg.to_le_bytes());
        put(&self.off.to_le_bytes());
        put(&self.ack.to_le_bytes());
        put(&(self.len as u32).to_le_bytes());
        if let Some((flag, delta)) = self.flag {
            put(&flag.to_le_bytes());
            put(&delta.to_le_bytes());
        }
        let body_len = (n - 4 + self.len) as u32;
        head[..4].copy_from_slice(&body_len.to_le_bytes());
        (head, n)
    }

    /// Read back the head [`Self::encode`] writes, from the front of a
    /// frame's `body`: the fields, and where in `body` the payload lies.
    /// `None` if `body` starts no `Put` or `PutFlag`.
    fn decode(body: &[u8]) -> Option<io::Result<(PutHead, Range<usize>)>> {
        let (&tag, rest) = body.split_first()?;
        let flagged = match tag {
            T_PUT => false,
            T_PUT_FLAG => true,
            _ => return None,
        };
        let mut c = Cursor::new(rest);
        let head = (|| -> io::Result<PutHead> {
            Ok(PutHead {
                src: c.get()?,
                dst: c.get()?,
                seg: c.get()?,
                off: c.get()?,
                ack: c.get()?,
                len: c.get::<u32>()? as usize,
                flag: if flagged { Some(c.get()?) } else { None },
            })
        })();
        let at = 1 + c.pos;
        Some(head.map(|head| (head, at..at + head.len)))
    }

    /// The owned frame these fields and their `data` make.
    fn with_payload(self, data: Vec<u8>) -> Frame {
        let PutHead {
            src,
            dst,
            seg,
            off,
            ack,
            len: _,
            flag,
        } = self;
        match flag {
            None => Frame::Put {
                src,
                dst,
                seg,
                off,
                ack,
                data,
            },
            Some((flag, delta)) => Frame::PutFlag {
                src,
                dst,
                seg,
                off,
                ack,
                data,
                flag,
                delta,
            },
        }
    }
}

/// Append a [`Frame::GetResp`] answering request `req` with `data` to `b`,
/// without the payload, which is handed back as by
/// [`PutHead::encode_head`].
pub(super) fn encode_get_resp<'d>(b: &mut Vec<u8>, req: u64, data: &'d [u8]) -> &'d [u8] {
    framed(b, data.len(), |b| {
        b.push(T_GET_RESP);
        req.put(b);
        (data.len() as u32).put(b);
    });
    data
}

/// Append a [`Frame::AmBatch`] of `ops` to `b`.
pub(super) fn encode_am_batch(b: &mut Vec<u8>, src: u32, dst: u32, ack: u64, ops: &[AmOp]) {
    framed(b, 0, |b| {
        b.push(T_AM_BATCH);
        src.put(b);
        dst.put(b);
        ack.put(b);
        (ops.len() as u32).put(b);
        for op in ops {
            op.encode(b);
        }
    })
}

/// Read back the fields [`encode_am_batch`] writes after the tag.
#[inline(never)]
fn decode_am_batch(rest: &[u8]) -> io::Result<Frame> {
    let mut c = Cursor::new(rest);
    let (src, dst, ack) = (c.get()?, c.get()?, c.get()?);
    let n = c.get::<u32>()? as usize;
    // A batch is bounded by the batcher's op budget; a count in the
    // millions means a corrupted header, not real traffic.
    if n > 1 << 20 {
        return Err(invalid("absurd am op count"));
    }
    let mut ops = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        ops.push(AmOp::decode(&mut c)?);
    }
    if !c.done() {
        return Err(invalid("trailing bytes in frame body"));
    }
    Ok(Frame::AmBatch { src, dst, ack, ops })
}

/// Parse the head of a bulk frame — a `Put`, `PutFlag` or `GetResp`, whose
/// payload follows its fixed fields — at the front of `body`: the frame as
/// far as its head tells, and where in the body its payload lies. `None`
/// if `body` starts some other frame. The one parser of these heads, for
/// the reader and [`Frame::decode`] alike.
fn parse_head(body: &[u8]) -> Option<io::Result<(Incoming, Range<usize>)>> {
    if let Some(put) = PutHead::decode(body) {
        return Some(put.map(|(put, payload)| (Incoming::Put(put), payload)));
    }
    let mut c = Cursor::new(body.strip_prefix(&[T_GET_RESP])?);
    let head = c.get::<(u64, u32)>().map(|(req, len)| (req, len as usize));
    let at = 1 + c.pos;
    Some(head.map(|(req, len)| (Incoming::GetResp { req, len }, at..at + len)))
}

impl Frame {
    /// Encode into a `len || tag || fields` byte vector ready for one
    /// `write_all`.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        self.encode_into(&mut b);
        b
    }

    /// Append the encoded frame to `b` (which may already hold frames). The
    /// bulk frames and `AmBatch` go through the encoders the hot paths
    /// call on borrowed payloads.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        let tail: &[u8] = match *self {
            Frame::Put {
                src,
                dst,
                seg,
                off,
                ack,
                ref data,
            }
            | Frame::PutFlag {
                src,
                dst,
                seg,
                off,
                ack,
                ref data,
                ..
            } => {
                let flag = match *self {
                    Frame::PutFlag { flag, delta, .. } => Some((flag, delta)),
                    _ => None,
                };
                let len = data.len();
                let head = PutHead {
                    src,
                    dst,
                    seg,
                    off,
                    ack,
                    len,
                    flag,
                };
                head.encode_head(b, data)
            }
            Frame::GetResp { req, ref data } => encode_get_resp(b, req, data),
            Frame::AmBatch {
                src,
                dst,
                ack,
                ref ops,
            } => {
                encode_am_batch(b, src, dst, ack, ops);
                &[]
            }
            _ => {
                framed(b, 0, |b| self.encode_control(b));
                &[]
            }
        };
        b.extend_from_slice(tail);
    }

    /// Decode a frame body (everything after the length prefix): a bulk
    /// frame's head, then a copy of its payload; any other frame field by
    /// field.
    pub fn decode(body: &[u8]) -> io::Result<Frame> {
        if let Some(parsed) = parse_head(body) {
            let (incoming, payload) = parsed?;
            if payload.end != body.len() {
                return Err(invalid("payload length disagrees with the frame body"));
            }
            return Ok(incoming.with_payload(body[payload].to_vec()));
        }
        let (&tag, rest) = body.split_first().ok_or_else(|| invalid("empty frame"))?;
        match tag {
            T_AM_BATCH => decode_am_batch(rest),
            _ => Frame::decode_control(tag, rest),
        }
    }
}

/// A read (or a nonblocking accept) gave up waiting rather than failed:
/// the caller looks at its deadline and flags, then tries again.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Write one frame; returns the wire bytes written (for stats).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<usize> {
    let bytes = frame.encode();
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Bytes a [`FrameReader`] buffers once it has streamed a bulk payload,
/// and so the largest chunk of one: big enough that a bulk put costs a
/// handful of `read(2)`s per MiB, small enough that a chunk is still
/// cache-resident when it is copied on into the destination window.
pub const READER_BYTES: usize = 128 << 10;

/// Bytes a [`FrameReader`] starts with (`BufReader`'s default): a
/// connection that only ever carries small frames never pays for more.
const READER_START_BYTES: usize = 8 << 10;

/// Rewrite the `Put` encoded at `b[start..]` — the last frame in `b` — into
/// the [`Frame::PutFlag`] that also bumps `flag` by `delta`, byte for byte
/// what encoding the fused frame afresh would produce. `false`, with `b`
/// untouched, unless that frame is a `Put` from image `src` to image `dst`
/// ending where `b` ends.
pub(super) fn fuse_flag(
    b: &mut Vec<u8>,
    start: usize,
    (src, dst): (u32, u32),
    flag: u64,
    delta: u64,
) -> bool {
    let body = b.get(start + 4..).unwrap_or_default();
    let Some(Ok((put, payload))) = PutHead::decode(body) else {
        return false;
    };
    if put.flag.is_some() || (put.src, put.dst) != (src, dst) || payload.end != body.len() {
        return false;
    }
    // The payload moves up behind the fused frame's longer head, which
    // then takes the plain one's place.
    let fused = PutHead {
        flag: Some((flag, delta)),
        ..put
    };
    let (head, n) = fused.encode();
    let (from, to, end) = (start + 4 + payload.start, start + n, b.len());
    b.resize(end + to - from, 0);
    b.copy_within(from..end, to);
    b[start..to].copy_from_slice(&head[..n]);
    true
}

/// One `read` into `buf` under the mid-frame rule: part of a frame has
/// been consumed, so a timeout keeps collecting (returning would drop the
/// partial frame and desynchronize the stream; a genuinely dead peer still
/// trips the caller's liveness checks) and EOF is an error.
fn read_mid_frame<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match r.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ))
            }
            Ok(n) => return Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// What [`FrameReader::incoming`] found. The bulk frames arrive as their
/// heads only, parsed by the one parser of them (the one [`Frame::decode`]
/// uses too): the payload stays in the reader until the caller — who by
/// then knows where it belongs — drains it with [`FrameReader::payload`]
/// or [`FrameReader::payload_into`], which it must do before the next
/// `incoming`.
// Returned by value once per frame; boxing `Frame` would put an allocation
// back on every small frame.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Incoming {
    /// A [`Frame::Put`] or [`Frame::PutFlag`], payload pending.
    Put(PutHead),
    /// A [`Frame::GetResp`], payload pending.
    GetResp {
        /// The request cookie.
        req: u64,
        /// Payload bytes that follow.
        len: usize,
    },
    /// Any other frame, decoded.
    Frame(Frame),
}

impl Incoming {
    /// The whole frame, once its payload is `data` (empty for a frame
    /// decoded whole).
    fn with_payload(self, data: Vec<u8>) -> Frame {
        match self {
            Incoming::Put(put) => put.with_payload(data),
            Incoming::GetResp { req, len: _ } => Frame::GetResp { req, data },
            Incoming::Frame(f) => f,
        }
    }
}

/// The reading side of one connection: a reusable buffer frames are
/// decoded out of, so a small frame costs no allocation, and a bulk payload
/// is handed on in buffer-sized chunks (or read straight into the caller's
/// buffer) instead of being staged in a frame-sized `Vec`.
///
/// Timeouts: a read timeout surfaces as `Err` (`WouldBlock`/`TimedOut`)
/// only *between* frames, with nothing of the next frame consumed; once a
/// frame has begun, reads follow the mid-frame rule and keep collecting.
pub struct FrameReader<R> {
    src: R,
    /// `buf[pos..end]` is read but not yet consumed. Grows to the largest
    /// unstreamed frame seen, and to [`READER_BYTES`] with the first
    /// payload it streams; anything above that is given back.
    buf: Vec<u8>,
    /// What `buf` grows to for streaming ([`READER_BYTES`]; tests shrink
    /// it to cross chunk boundaries with small frames).
    chunk: usize,
    pos: usize,
    end: usize,
    /// Read whatever the source has (up to the buffer) rather than exactly
    /// the bytes asked for. Off only for the `read_frame` wrappers, whose
    /// source outlives them and must be left at a frame boundary.
    read_ahead: bool,
    /// Payload bytes of the frame `incoming` last returned, not yet drained.
    pending: usize,
}

impl<R: Read> FrameReader<R> {
    /// A reader over `src`.
    pub fn new(src: R) -> Self {
        Self::with_sizes(src, READER_START_BYTES, READER_BYTES)
    }

    /// A reader that starts with `start` buffer bytes and streams payloads
    /// in chunks of up to `chunk`.
    fn with_sizes(src: R, start: usize, chunk: usize) -> Self {
        Self {
            src,
            buf: vec![0; start.max(4)],
            chunk,
            pos: 0,
            end: 0,
            read_ahead: true,
            pending: 0,
        }
    }

    /// A reader that takes from `src` exactly the bytes of the frames it
    /// returns, and so may be dropped between frames.
    fn exact(src: R) -> Self {
        Self {
            read_ahead: false,
            ..Self::with_sizes(src, 4, 4)
        }
    }

    /// True when nothing read is waiting to be consumed — the burst of
    /// frames the last `read(2)` brought in is over.
    pub fn is_drained(&self) -> bool {
        self.pos == self.end
    }

    /// Move the unconsumed bytes to the front of the buffer.
    fn compact(&mut self) {
        self.buf.copy_within(self.pos..self.end, 0);
        (self.pos, self.end) = (0, self.end - self.pos);
    }

    /// Where in `buf` a read may stop that wants `want` unconsumed bytes in
    /// all: the buffer's end, or — reading no further than asked — exactly
    /// that many.
    fn read_limit(&self, want: usize) -> usize {
        if self.read_ahead {
            self.buf.len()
        } else {
            (self.pos + want).min(self.buf.len())
        }
    }

    /// Have `need` unconsumed bytes buffered (mid-frame rule), growing the
    /// buffer when a frame is larger than it.
    fn fill(&mut self, need: usize) -> io::Result<()> {
        if self.pos + need > self.buf.len() {
            self.compact();
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
        while self.end - self.pos < need {
            let limit = self.read_limit(need);
            self.end += read_mid_frame(&mut self.src, &mut self.buf[self.end..limit])?;
        }
        Ok(())
    }

    /// Read the next frame; returns it with its wire bytes (prefix, body
    /// and any pending payload).
    pub fn incoming(&mut self) -> io::Result<(Incoming, usize)> {
        assert_eq!(self.pending, 0, "previous frame's payload not drained");
        if self.buf.len() > self.chunk && self.end - self.pos <= self.chunk {
            // An oversized frame grew the buffer; give the memory back.
            self.compact();
            self.buf.truncate(self.chunk);
            self.buf.shrink_to_fit();
        }
        if self.is_drained() {
            // Idle: the one read whose timeout the caller gets to see.
            (self.pos, self.end) = (0, 0);
            let limit = self.read_limit(4);
            self.end = loop {
                match self.src.read(&mut self.buf[..limit]) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed",
                        ))
                    }
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            };
        }
        self.fill(4)?;
        let prefix = &self.buf[self.pos..self.pos + 4];
        let len = u32::from_le_bytes(prefix.try_into().expect("4-byte prefix")) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(invalid(&format!("frame length {len} out of range")));
        }
        // Enough of the body for the longest bulk head: a bulk frame leaves
        // its payload in the stream, any other frame is decoded whole.
        let head = len.min(PutHead::MAX_BYTES);
        self.fill(4 + head)?;
        let (incoming, payload) = match parse_head(&self.buf[self.pos + 4..self.pos + 4 + head]) {
            Some(parsed) => parsed?,
            None => {
                self.fill(4 + len)?;
                let frame = Frame::decode(&self.buf[self.pos + 4..self.pos + 4 + len]);
                self.pos += 4 + len;
                return Ok((Incoming::Frame(frame?), 4 + len));
            }
        };
        if payload.end != len {
            return Err(invalid(&format!(
                "payload of {} bytes in a frame body of {len}",
                payload.len()
            )));
        }
        self.pos += 4 + payload.start;
        self.pending = payload.len();
        Ok((incoming, 4 + len))
    }

    /// Drain the pending payload through `sink`, in order, in chunks of at
    /// most the buffer's size: what is already buffered first, then one
    /// chunk per `read(2)`.
    pub fn payload(&mut self, mut sink: impl FnMut(&[u8])) -> io::Result<()> {
        while self.pending > 0 {
            if self.is_drained() {
                if self.buf.len() < self.chunk.min(self.pending) {
                    self.buf.resize(self.chunk, 0);
                }
                (self.pos, self.end) = (0, 0);
                let limit = self.read_limit(self.pending);
                self.end = read_mid_frame(&mut self.src, &mut self.buf[..limit])?;
            }
            let n = (self.end - self.pos).min(self.pending);
            sink(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            self.pending -= n;
        }
        Ok(())
    }

    /// Drain the pending payload into the front of `out` (grown, never
    /// shrunk, to hold it): what is buffered is copied, the rest is read
    /// from the source straight into `out`. Returns the payload length.
    pub fn payload_into(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        let len = std::mem::take(&mut self.pending);
        if out.len() < len {
            out.resize(len, 0);
        }
        let mut got = (self.end - self.pos).min(len);
        out[..got].copy_from_slice(&self.buf[self.pos..self.pos + got]);
        self.pos += got;
        while got < len {
            got += read_mid_frame(&mut self.src, &mut out[got..len])?;
        }
        Ok(len)
    }

    /// Read the next frame whole, as an owned [`Frame`] (control-plane
    /// convenience: handshakes, rendezvous).
    pub fn next_frame(&mut self) -> io::Result<(Frame, usize)> {
        let (incoming, n) = self.incoming()?;
        let mut data = Vec::new();
        self.payload_into(&mut data)?;
        Ok((incoming.with_payload(data), n))
    }
}

/// Read one frame; returns the frame and the wire bytes consumed. A thin
/// wrapper over a [`FrameReader`] that reads no further than the frame
/// (timeout semantics are the reader's); connections that carry more than
/// a handshake keep a `FrameReader` instead.
pub fn read_frame<R: Read>(r: &mut BufReader<R>) -> io::Result<(Frame, usize)> {
    FrameReader::exact(r).next_frame()
}

/// A frame read by [`read_frame_direct`]: a `Put`'s payload is read from
/// the stream straight into `buf`, never passing through a frame-sized
/// staging body.
// As for `Incoming`: returned by value once per frame, never stored.
#[allow(clippy::large_enum_variant)]
pub enum RawFrame {
    /// A `Put`; `buf[payload..]` is the payload.
    Put {
        /// Issuing image (global 0-based rank).
        src: u32,
        /// Target image (must be hosted by the receiver).
        dst: u32,
        /// Target segment id.
        seg: u64,
        /// Byte offset within the segment.
        off: u64,
        /// Completion-ack cookie (0 = no ack requested).
        ack: u64,
        /// The buffer the payload was read into.
        buf: Vec<u8>,
        /// Byte index where the payload starts in `buf`.
        payload: usize,
    },
    /// Any other frame, fully decoded.
    Other(Frame),
}

/// Like [`read_frame`], but hands a `Put` over as its fields plus the
/// payload buffer (see [`RawFrame`]). Identical timeout semantics.
pub fn read_frame_direct<R: Read>(r: &mut BufReader<R>) -> io::Result<(RawFrame, usize)> {
    let (frame, n) = read_frame(r)?;
    let raw = match frame {
        Frame::Put {
            src,
            dst,
            seg,
            off,
            ack,
            data,
        } => RawFrame::Put {
            src,
            dst,
            seg,
            off,
            ack,
            buf: data,
            payload: 0,
        },
        other => RawFrame::Other(other),
    };
    Ok((raw, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rebuild the next frame of `r` the way the ingress loop consumes it:
    /// fixed fields from `incoming`, payload chunk by chunk.
    fn next_streamed<R: Read>(r: &mut FrameReader<R>) -> io::Result<Frame> {
        let (incoming, _) = r.incoming()?;
        let mut data = Vec::new();
        r.payload(|chunk| data.extend_from_slice(chunk))?;
        Ok(incoming.with_payload(data))
    }

    /// A [`FrameReader`] must make of `body` exactly what [`Frame::decode`]
    /// does — the same frame or an `InvalidData` refusal — whether the
    /// frame fits its buffer, outgrows it, or has its payload streamed
    /// across many chunk boundaries, and must stop at the frame's end.
    fn reader_agrees_with_decode(body: &[u8]) {
        let want = Frame::decode(body);
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        wire.extend_from_slice(&Frame::Bye { node: 7 }.encode());
        let check = |form: &str, got: io::Result<Frame>| match (&want, got) {
            (Ok(want), Ok(got)) => assert_eq!(&got, want, "{form}"),
            (Err(_), Err(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{form}: {e}"),
            (want, got) => panic!("{form}: decode says {want:?}, the reader {got:?}"),
        };
        for (start, chunk) in [(READER_START_BYTES, READER_BYTES), (4, 8), (16, 16)] {
            let form = format!("buffer {start}, chunk {chunk}");
            let mut r = FrameReader::with_sizes(&wire[..], start, chunk);
            let whole = r.next_frame();
            if whole.is_ok() {
                let (next, _) = r.next_frame().expect("the frame behind it");
                assert_eq!(next, Frame::Bye { node: 7 }, "{form}: overran the frame");
            }
            check(
                &form,
                whole.map(|(f, n)| {
                    assert_eq!(n, 4 + body.len(), "{form}: wire bytes");
                    f
                }),
            );
            let mut r = FrameReader::with_sizes(&wire[..], start, chunk);
            let streamed = next_streamed(&mut r);
            if streamed.is_ok() {
                assert_eq!(
                    next_streamed(&mut r).unwrap(),
                    Frame::Bye { node: 7 },
                    "{form}"
                );
                assert!(r.is_drained(), "{form}");
            }
            check(&format!("{form}, streamed"), streamed);
        }
        // The `BufReader` wrappers take exactly the frame and no more.
        let mut r = BufReader::with_capacity(5, &wire[..]);
        check("read_frame", read_frame(&mut r).map(|(f, _)| f));
        if want.is_ok() {
            assert_eq!(read_frame(&mut r).unwrap().0, Frame::Bye { node: 7 });
        }
    }

    fn roundtrip(f: Frame) {
        let enc = f.encode();
        let len = u32::from_le_bytes(enc[..4].try_into().unwrap()) as usize;
        assert_eq!(len, enc.len() - 4);
        assert_eq!(Frame::decode(&enc[4..]).unwrap(), f);
        reader_agrees_with_decode(&enc[4..]);

        // `encode_into` behind frames already corked in the buffer is the
        // same bytes, byte for byte — owned, and through the
        // borrowed-payload encoder where the variant has one.
        let corked = Frame::PutAck { ack: 9 }.encode();
        let want = [&corked[..], &enc[..]].concat();
        let mut buf = corked.clone();
        f.encode_into(&mut buf);
        assert_eq!(buf, want, "{f:?}");
        let mut head = corked.clone();
        let tail: &[u8] = match &f {
            Frame::Put {
                src,
                dst,
                seg,
                off,
                ack,
                data,
            } => PutHead {
                src: *src,
                dst: *dst,
                seg: *seg,
                off: *off,
                ack: *ack,
                len: data.len(),
                flag: None,
            }
            .encode_head(&mut head, data),
            Frame::PutFlag {
                src,
                dst,
                seg,
                off,
                ack,
                data,
                flag,
                delta,
            } => PutHead {
                src: *src,
                dst: *dst,
                seg: *seg,
                off: *off,
                ack: *ack,
                len: data.len(),
                flag: Some((*flag, *delta)),
            }
            .encode_head(&mut head, data),
            Frame::GetResp { req, data } => encode_get_resp(&mut head, *req, data),
            Frame::AmBatch { src, dst, ack, ops } => {
                encode_am_batch(&mut head, *src, *dst, *ack, ops);
                &[]
            }
            other => {
                other.encode_into(&mut head);
                &[]
            }
        };
        // Head and tail apart (the vectored-write form) are the same wire
        // image.
        assert_eq!([&head[..], tail].concat(), want, "{f:?}");

        // A flipped byte anywhere in the body may decode to a
        // different-but-valid frame or fail as InvalidData; it must never
        // panic (the receiver's host/bounds checks own the former).
        for i in 0..enc.len() - 4 {
            let mut fuzz = enc[4..].to_vec();
            fuzz[i] ^= 0xA5;
            if let Err(e) = Frame::decode(&fuzz) {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{f:?} byte {i}");
            }
            reader_agrees_with_decode(&fuzz);
        }
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Open {
            node: 3,
            magic: WIRE_MAGIC,
            shm: "/dev/shm/caf-shm-1-0-g0-r3".into(),
        });
        roundtrip(Frame::Open {
            node: 0,
            magic: WIRE_MAGIC,
            shm: String::new(),
        });
        roundtrip(Frame::Put {
            src: 1,
            dst: 9,
            seg: 2,
            off: 4096,
            ack: 77,
            data: vec![1, 2, 3, 4, 5],
        });
        roundtrip(put_flag());
        roundtrip(Frame::PutFlag {
            src: 0,
            dst: 1,
            seg: 0,
            off: 0,
            ack: 0,
            data: vec![],
            flag: u64::MAX,
            delta: 0,
        });
        roundtrip(Frame::PutAck { ack: 77 });
        roundtrip(Frame::Get {
            src: 0,
            dst: 5,
            seg: 1,
            off: 8,
            len: 64,
            req: 12,
        });
        roundtrip(Frame::GetResp {
            req: 12,
            data: vec![0; 64],
        });
        roundtrip(Frame::AmoFadd {
            src: 2,
            dst: 3,
            seg: 0,
            off: 16,
            delta: 5,
            req: 9,
        });
        roundtrip(Frame::AmoCas {
            src: 2,
            dst: 3,
            seg: 0,
            off: 16,
            expected: 1,
            new: 2,
            req: 10,
        });
        roundtrip(Frame::AmoResp { req: 10, old: 1 });
        roundtrip(Frame::FlagAdd {
            src: 7,
            dst: 0,
            flag: 3,
            delta: 1,
        });
        roundtrip(Frame::AmBatch {
            src: 2,
            dst: 6,
            ack: 99,
            ops: vec![
                AmOp::Put {
                    seg: crate::SegmentId(1),
                    off: 128,
                    data: vec![7; 16],
                },
                AmOp::FlagAdd {
                    flag: crate::FlagId(3),
                    delta: 2,
                },
                AmOp::AmoAdd {
                    seg: crate::SegmentId(0),
                    off: 8,
                    delta: 5,
                },
                AmOp::PutFlag {
                    seg: crate::SegmentId(2),
                    off: 0,
                    data: vec![1, 2, 3],
                    flag: crate::FlagId(4),
                    delta: 1,
                },
            ],
        });
        roundtrip(Frame::AmBatch {
            src: 0,
            dst: 1,
            ack: 0,
            ops: vec![],
        });
        roundtrip(Frame::Heartbeat {
            node: 1,
            stats: StatsSnapshot {
                puts_inter: 7,
                bytes_inter: 4096,
                wire_frames_tx: 12,
                wire_reconnects: 1,
                ..StatsSnapshot::default()
            },
        });
        roundtrip(Frame::Bye { node: 0 });
        roundtrip(Frame::Rejoin {
            node: 1,
            generation: 3,
            addr: "uds:/tmp/reborn.sock".into(),
            magic: WIRE_MAGIC,
            shm: "/dev/shm/caf-shm-1-0-g3-r1".into(),
        });
        roundtrip(Frame::RecoverBarrier {
            node: 2,
            round: 2,
            generation: 3,
        });
        roundtrip(Frame::Hello {
            node: 2,
            addr: "uds:/tmp/x.sock".into(),
            magic: WIRE_MAGIC,
        });
        roundtrip(Frame::Peers {
            addrs: vec!["uds:/tmp/a".into(), "tcp:127.0.0.1:4000".into()],
        });
        roundtrip(Frame::Done {
            node: 1,
            results: vec![(4, 0xdead_beef), (5, 42)],
        });
        roundtrip(Frame::Abort {
            msg: "node 2 died".into(),
        });
        roundtrip(Frame::Telemetry {
            node: 3,
            payload: vec![0xCA, 0xF0, 1, 2, 3],
        });
    }

    fn put_flag() -> Frame {
        Frame::PutFlag {
            src: 1,
            dst: 9,
            seg: 2,
            off: 4096,
            ack: 77,
            data: vec![1, 2, 3, 4, 5],
            flag: 3,
            delta: 6,
        }
    }

    #[test]
    fn golden_bytes_of_a_put_flag() {
        // Prefix, tag 15, then src, dst, seg, off, ack, len, flag, delta in
        // that order, little-endian, and the payload last.
        let hex: String = (put_flag().encode().iter())
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "3a000000\
             0f\
             01000000\
             09000000\
             0200000000000000\
             0010000000000000\
             4d00000000000000\
             05000000\
             0300000000000000\
             0600000000000000\
             0102030405"
        );
    }

    /// One frame of every kind, with an `AmBatch` carrying every op kind,
    /// and every field a different value.
    fn one_of_each() -> Vec<Frame> {
        let (seg, flag) = (crate::SegmentId(3), crate::FlagId(6));
        vec![
            Frame::Open {
                node: 1,
                magic: WIRE_MAGIC,
                shm: "/s".into(),
            },
            Frame::Put {
                src: 1,
                dst: 2,
                seg: 3,
                off: 4,
                ack: 5,
                data: vec![0xd0, 0xd1, 0xd2],
            },
            Frame::PutFlag {
                src: 1,
                dst: 2,
                seg: 3,
                off: 4,
                ack: 5,
                data: vec![0xd0, 0xd1, 0xd2],
                flag: 6,
                delta: 7,
            },
            Frame::PutAck { ack: 5 },
            Frame::Get {
                src: 1,
                dst: 2,
                seg: 3,
                off: 4,
                len: 8,
                req: 9,
            },
            Frame::GetResp {
                req: 9,
                data: vec![0xd0, 0xd1, 0xd2],
            },
            Frame::AmoFadd {
                src: 1,
                dst: 2,
                seg: 3,
                off: 4,
                delta: 7,
                req: 9,
            },
            Frame::AmoCas {
                src: 1,
                dst: 2,
                seg: 3,
                off: 4,
                expected: 10,
                new: 11,
                req: 9,
            },
            Frame::AmoResp { req: 9, old: 10 },
            Frame::AmBatch {
                src: 1,
                dst: 2,
                ack: 5,
                ops: vec![
                    AmOp::Put {
                        seg,
                        off: 4,
                        data: vec![0xd0],
                    },
                    AmOp::FlagAdd { flag, delta: 7 },
                    AmOp::AmoAdd {
                        seg,
                        off: 8,
                        delta: 7,
                    },
                    AmOp::PutFlag {
                        seg,
                        off: 4,
                        data: vec![0xd1],
                        flag,
                        delta: 7,
                    },
                ],
            },
            Frame::FlagAdd {
                src: 1,
                dst: 2,
                flag: 6,
                delta: 7,
            },
            Frame::Heartbeat {
                node: 1,
                stats: StatsSnapshot {
                    puts_intra: 12,
                    wire_frames_tx: 13,
                    ..StatsSnapshot::default()
                },
            },
            Frame::Bye { node: 1 },
            Frame::Rejoin {
                node: 1,
                generation: 14,
                addr: "uds:/a".into(),
                magic: WIRE_MAGIC,
                shm: "/s".into(),
            },
            Frame::RecoverBarrier {
                node: 1,
                round: 2,
                generation: 14,
            },
            Frame::Hello {
                node: 1,
                addr: "uds:/a".into(),
                magic: WIRE_MAGIC,
            },
            Frame::Peers {
                addrs: vec!["uds:/a".into(), "uds:/b".into()],
            },
            Frame::Done {
                node: 1,
                results: vec![(2, 15)],
            },
            Frame::Abort { msg: "x".into() },
            Frame::Telemetry {
                node: 1,
                payload: vec![0xd0, 0xd1],
            },
        ]
    }

    /// The wire image of each of [`one_of_each`], then of its `Put` with
    /// `fuse_flag` folding in the `PutFlag`'s flag, pinned byte for byte:
    /// a field order that an encoder and its decoder change together
    /// still round-trips, and fails here.
    const GOLDEN: [&str; 21] = [
        "0f0000000101000000070cf5ca020000002f73",
        "2800000002010000000200000003000000000000000400000000000000050000\
         000000000003000000d0d1d2",
        "380000000f010000000200000003000000000000000400000000000000050000\
         00000000000300000006000000000000000700000000000000d0d1d2",
        "09000000030500000000000000",
        "2500000004010000000200000003000000000000000400000000000000080000\
         000900000000000000",
        "1000000005090000000000000003000000d0d1d2",
        "2900000006010000000200000003000000000000000400000000000000070000\
         00000000000900000000000000",
        "31000000070100000002000000030000000000000004000000000000000a0000\
         00000000000b000000000000000900000000000000",
        "110000000809000000000000000a00000000000000",
        "7b0000000e010000000200000005000000000000000400000001030000000000\
         0000040000000000000001000000d00206000000000000000700000000000000\
         0303000000000000000800000000000000070000000000000004030000000000\
         0000040000000000000001000000d106000000000000000700000000000000",
        "1900000009010000000200000006000000000000000700000000000000",
        "0d0100000a010000000c00000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000d00000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000",
        "050000000b01000000",
        "210000000c010000000e00000000000000060000007564733a2f61070cf5ca02\
         0000002f73",
        "150000000d0100000002000000000000000e00000000000000",
        "130000001001000000060000007564733a2f61070cf5ca",
        "190000001102000000060000007564733a2f61060000007564733a2f62",
        "15000000120100000001000000020000000f00000000000000",
        "06000000130100000078",
        "0b000000140100000002000000d0d1",
        "380000000f010000000200000003000000000000000400000000000000050000\
         00000000000300000006000000000000000700000000000000d0d1d2",
    ];

    #[test]
    fn golden_bytes_of_every_frame() {
        let hex = |b: &[u8]| b.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let frames = one_of_each();
        let mut fused = frames[1].encode();
        assert!(fuse_flag(&mut fused, 0, (1, 2), 6, 7));
        let mut got: Vec<_> = (frames.iter())
            .map(|f| (format!("{f:?}"), hex(&f.encode())))
            .collect();
        got.push(("fused Put".to_string(), hex(&fused)));
        assert_eq!(got.len(), GOLDEN.len());
        for ((what, got), want) in got.into_iter().zip(GOLDEN) {
            assert_eq!(got, want, "{what}");
        }
    }

    /// The reader and [`Frame::decode`] agree on every cut of each of
    /// [`one_of_each`], and on it with each byte overwritten by 0x00 and by
    /// 0xFF — the mutations `tests/decode_alloc.rs` feeds `decode` alone,
    /// watching its allocations.
    #[test]
    fn reader_agrees_with_decode_on_hostile_bodies() {
        for f in one_of_each() {
            let body = &f.encode()[4..];
            for cut in 0..body.len() {
                reader_agrees_with_decode(&body[..cut]);
            }
            for (i, v) in (0..body.len()).flat_map(|i| [(i, 0x00), (i, 0xFF)]) {
                let mut m = body.to_vec();
                m[i] = v;
                reader_agrees_with_decode(&m);
            }
        }
    }

    #[test]
    fn a_corked_put_fused_in_place_is_the_put_flag_frame() {
        let put = |src, dst, data: &[u8]| Frame::Put {
            src,
            dst,
            seg: 2,
            off: 4096,
            ack: 77,
            data: data.to_vec(),
        };
        let corked = Frame::PutAck { ack: 9 }.encode();
        // With a payload (which moves), with none, and with one that spans
        // many words.
        for data in [&[1u8, 2, 3, 4, 5][..], &[], &[0xAB; 1000]] {
            let mut buf = corked.clone();
            put(1, 9, data).encode_into(&mut buf);
            assert!(fuse_flag(&mut buf, corked.len(), (1, 9), 3, 6));
            let fused = Frame::PutFlag {
                src: 1,
                dst: 9,
                seg: 2,
                off: 4096,
                ack: 77,
                data: data.to_vec(),
                flag: 3,
                delta: 6,
            };
            assert_eq!(buf, [&corked[..], &fused.encode()[..]].concat());
        }
        // Anything else is left exactly as it was: another image's put,
        // another target's, a frame that is not a put, one that is not the
        // last in the buffer, an offset past the end.
        let mut buf = corked.clone();
        put(1, 9, &[7; 8]).encode_into(&mut buf);
        let before = buf.clone();
        assert!(!fuse_flag(&mut buf, corked.len(), (2, 9), 3, 6));
        assert!(!fuse_flag(&mut buf, corked.len(), (1, 8), 3, 6));
        assert!(!fuse_flag(&mut buf, 0, (1, 9), 3, 6), "a PutAck");
        assert!(!fuse_flag(&mut buf, before.len(), (1, 9), 3, 6));
        buf.push(0);
        assert!(!fuse_flag(&mut buf, corked.len(), (1, 9), 3, 6));
        assert_eq!(buf[..before.len()], before[..]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Frame::decode(&[]).is_err());
        assert!(Frame::decode(&[200]).is_err());
        // Truncated put.
        assert!(Frame::decode(&[T_PUT, 1, 0, 0]).is_err());
        // Trailing junk.
        let mut enc = Frame::PutAck { ack: 1 }.encode();
        enc.push(0xFF);
        assert!(Frame::decode(&enc[4..]).is_err());
    }

    #[test]
    fn corrupted_am_batches_fail_as_invalid_data_not_panics() {
        let base = Frame::AmBatch {
            src: 1,
            dst: 2,
            ack: 7,
            ops: vec![
                AmOp::Put {
                    seg: crate::SegmentId(0),
                    off: 64,
                    data: vec![9; 8],
                },
                AmOp::FlagAdd {
                    flag: crate::FlagId(2),
                    delta: 1,
                },
            ],
        };
        let enc = base.encode();
        let body = &enc[4..];

        let expect_invalid = |bytes: &[u8]| {
            let err = Frame::decode(bytes).expect_err("corrupt batch must not decode");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        };

        // Op count inflated far past the body (absurd-count guard).
        let mut bad = body.to_vec();
        bad[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_invalid(&bad);

        // Op count claims one more op than the body carries.
        let mut bad = body.to_vec();
        bad[17..21].copy_from_slice(&3u32.to_le_bytes());
        expect_invalid(&bad);

        // Truncations at every byte boundary: header, mid-op, mid-payload.
        for cut in 1..body.len() {
            assert!(
                Frame::decode(&body[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }

        // Payload length field of the first op inflated (absurd-payload
        // guard inside AmOp::decode). The put's len field sits after the
        // frame header (4+4+8+4 = 20 bytes) plus op tag + seg + off.
        let mut bad = body.to_vec();
        let len_at = 21 + 1 + 8 + 8;
        bad[len_at..len_at + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        expect_invalid(&bad);

        // Unknown op tag inside the batch.
        let mut bad = body.to_vec();
        bad[21] = 0xEE;
        expect_invalid(&bad);

        // (Single flipped bytes: `roundtrip` fuzzes every variant.)
    }

    #[test]
    fn addr_parse_display_roundtrip() {
        for s in ["uds:/tmp/caf.sock", "tcp:127.0.0.1:9000"] {
            let a: Addr = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
        assert!("zmq:whatever".parse::<Addr>().is_err());
        assert!("tcp:notanaddr".parse::<Addr>().is_err());
    }

    #[test]
    fn tcp_data_connections_disable_nagle_at_dial_and_accept() {
        // The fabric coalesces frames itself (see `egress`); kernel Nagle
        // plus delayed ACK under its write-write-wait pattern would stack
        // a second, timer-driven coalescer on top.
        let listener = Listener::bind(Transport::Tcp).unwrap();
        let addr = listener.local_addr().unwrap();
        let dialed = Stream::connect(&addr).unwrap();
        let accepted = listener.accept().unwrap();
        for (side, s) in [("dial", dialed), ("accept", accepted)] {
            match s {
                Stream::Tcp(t) => assert!(t.nodelay().unwrap(), "{side} side"),
                Stream::Uds(_) => panic!("tcp transport produced a uds stream"),
            }
        }
    }

    #[test]
    fn write_read_roundtrip_over_uds() {
        let listener = Listener::bind(Transport::Uds).unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            write_frame(
                &mut s,
                &Frame::FlagAdd {
                    src: 0,
                    dst: 1,
                    flag: 2,
                    delta: 3,
                },
            )
            .unwrap()
        });
        let s = Stream::connect(&addr).unwrap();
        let mut r = BufReader::new(s);
        let (frame, n) = read_frame(&mut r).unwrap();
        assert_eq!(
            frame,
            Frame::FlagAdd {
                src: 0,
                dst: 1,
                flag: 2,
                delta: 3
            }
        );
        assert_eq!(n, t.join().unwrap());
    }

    #[test]
    fn direct_read_leaves_put_payload_in_place() {
        let listener = Listener::bind(Transport::Uds).unwrap();
        let addr = listener.local_addr().unwrap();
        let put = Frame::Put {
            src: 3,
            dst: 5,
            seg: 1,
            off: 256,
            ack: 42,
            data: (0..=99).collect(),
        };
        let p2 = put.clone();
        let t = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let mut n = write_frame(&mut s, &p2).unwrap();
            n += write_frame(&mut s, &Frame::PutAck { ack: 42 }).unwrap();
            n
        });
        let s = Stream::connect(&addr).unwrap();
        let mut r = BufReader::new(s);
        let (raw, n1) = read_frame_direct(&mut r).unwrap();
        match raw {
            RawFrame::Put {
                src,
                dst,
                seg,
                off,
                ack,
                buf,
                payload,
            } => {
                assert_eq!((src, dst, seg, off, ack), (3, 5, 1, 256, 42));
                let want: Vec<u8> = (0..=99).collect();
                assert_eq!(&buf[payload..], &want[..]);
            }
            RawFrame::Other(f) => panic!("put decoded as {f:?}"),
        }
        let (raw, n2) = read_frame_direct(&mut r).unwrap();
        match raw {
            RawFrame::Other(f) => assert_eq!(f, Frame::PutAck { ack: 42 }),
            RawFrame::Put { .. } => panic!("ack decoded as put"),
        }
        assert_eq!(n1 + n2, t.join().unwrap(), "byte accounting matches");
    }

    /// A source that times out before every byte it yields.
    struct Choppy<'a> {
        bytes: &'a [u8],
        timed_out: bool,
    }

    impl Read for Choppy<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.timed_out = !self.timed_out;
            if self.timed_out {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self.bytes.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn timeouts_surface_between_frames_and_are_collected_through_mid_frame() {
        let put = Frame::Put {
            src: 1,
            dst: 2,
            seg: 3,
            off: 5,
            ack: 9,
            data: (0..200).collect(),
        };
        let flag = Frame::FlagAdd {
            src: 1,
            dst: 2,
            flag: 3,
            delta: 4,
        };
        let wire = [put.encode(), flag.encode()].concat();
        let mut r = FrameReader::with_sizes(
            Choppy {
                bytes: &wire,
                timed_out: false,
            },
            8,
            16,
        );
        for want in [put, flag] {
            // Idle: the timeout is the caller's to see, and costs nothing.
            let idle = r.incoming().expect_err("no byte of the frame has arrived");
            assert_eq!(idle.kind(), io::ErrorKind::WouldBlock);
            // Once begun, a frame is collected through any number of them —
            // header, payload chunks and all.
            assert_eq!(next_streamed(&mut r).unwrap(), want);
        }
        assert_eq!(r.incoming().unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(
            r.incoming().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof,
            "a close between frames is an orderly end"
        );
    }

    #[test]
    fn a_stream_cut_mid_payload_is_an_eof_error_not_a_short_frame() {
        let enc = Frame::Put {
            src: 1,
            dst: 2,
            seg: 3,
            off: 0,
            ack: 9,
            data: vec![7; 100],
        }
        .encode();
        for cut in 1..enc.len() {
            let mut r = FrameReader::with_sizes(&enc[..cut], 8, 16);
            let err = next_streamed(&mut r).expect_err("cut stream");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn an_oversized_frame_grows_the_buffer_only_until_it_is_consumed() {
        let big = Frame::Telemetry {
            node: 1,
            payload: vec![3; 1000],
        };
        let wire = [big.encode(), Frame::Bye { node: 1 }.encode()].concat();
        let mut r = FrameReader::with_sizes(&wire[..], 16, 64);
        assert_eq!(r.next_frame().unwrap().0, big);
        assert!(r.buf.len() > 1000);
        assert_eq!(r.next_frame().unwrap().0, Frame::Bye { node: 1 });
        assert_eq!(r.buf.len(), 64, "back to the streaming chunk");
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let listener = Listener::bind(Transport::Uds).unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        });
        let s = Stream::connect(&addr).unwrap();
        let mut r = BufReader::new(s);
        assert!(read_frame(&mut r).is_err());
        t.join().unwrap();
    }
}
