//! Fleet rendezvous: how N freshly spawned processes find each other.
//!
//! **The launcher's half** is [`Coordinator`]: it binds one listener whose
//! address reaches every member (through the environment, for spawned
//! children), [`admit`](Coordinator::admit)s one [`Frame::Hello`] per rank
//! — refusing a dialer that speaks another protocol version, names a rank
//! outside the fleet or one already admitted, or opens with anything but a
//! `Hello` — and, once the whole fleet has been heard from, answers every
//! member with [`Frame::Peers`], the rank-ordered list of data-plane
//! listen addresses. [`readmit`](Coordinator::readmit) repeats that for the
//! one respawned incarnation of a dead rank. This is the only code that
//! builds a `Peers` frame.
//!
//! **A member's half** is [`CoordClient`]: dial (with backoff), send
//! `Hello` with its own listen address, block for `Peers`. After that the
//! connection stays open as the member's control channel: it ships
//! [`Frame::Telemetry`] while it runs and reports per-image results with
//! [`Frame::Done`]; what the supervisor makes of those is `caf-launch`'s
//! business (DESIGN.md §3.3b).

use super::wire::{
    is_timeout, read_frame, write_frame, Addr, Frame, Listener, Stream, Transport, WIRE_MAGIC,
};
use std::io::{self, BufReader};
use std::time::{Duration, Instant};

/// Why a fleet failed to assemble or to finish.
#[derive(Debug)]
pub enum FleetError {
    /// Socket plumbing failed (bind, accept, frame I/O).
    Io(io::Error),
    /// The fleet itself failed: a member was refused, died, hung, or
    /// misbehaved. The message names the node rank (and, from the
    /// launcher, its 1-based images) where possible.
    Fleet(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "launcher I/O error: {e}"),
            FleetError::Fleet(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<io::Error> for FleetError {
    fn from(e: io::Error) -> Self {
        FleetError::Io(e)
    }
}

/// The [`Coordinator::admit`] wait of a coordinator with no other duty: a
/// short sleep.
pub fn nap() -> Result<(), FleetError> {
    std::thread::sleep(Duration::from_millis(1));
    Ok(())
}

/// The launcher's end of the rendezvous (see the module docs).
#[derive(Debug)]
pub struct Coordinator {
    listener: Listener,
    addr: Addr,
    /// Each rank's data-plane listen address, from its latest `Hello`.
    addrs: Vec<String>,
}

impl Coordinator {
    /// Bind the coordinator listener for a fleet of `members` processes.
    pub fn bind(transport: Transport, members: usize) -> io::Result<Coordinator> {
        let listener = Listener::bind(transport)?;
        listener.set_nonblocking(true)?;
        Ok(Coordinator {
            addr: listener.local_addr()?,
            listener,
            addrs: vec![String::new(); members],
        })
    }

    /// The address members dial.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Accept one dialer and read its `Hello` before `deadline`, calling
    /// `wait` whenever nobody is dialing. `Ok(None)` is the deadline.
    fn hello(
        &self,
        deadline: Instant,
        wait: &mut dyn FnMut() -> Result<(), FleetError>,
    ) -> Result<Option<(Frame, BufReader<Stream>)>, FleetError> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            match self.listener.accept() {
                Ok(stream) => {
                    stream.set_read_timeout(Some(left))?;
                    let mut reader = BufReader::new(stream);
                    return match read_frame(&mut reader) {
                        Ok((frame, _)) => Ok(Some((frame, reader))),
                        // Connected and said nothing: that is the deadline.
                        Err(e) if is_timeout(&e) => Ok(None),
                        Err(e) => Err(e.into()),
                    };
                }
                Err(e) if is_timeout(&e) => wait()?,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Answer `member` with the current peer list.
    fn send_peers(&self, member: &mut BufReader<Stream>) -> io::Result<()> {
        let peers = Frame::Peers {
            addrs: self.addrs.clone(),
        };
        write_frame(member.get_mut(), &peers).map(drop)
    }

    /// Rendezvous the whole fleet within `timeout`: one valid `Hello` per
    /// rank, then `Peers` to everyone. `wait` is called whenever nobody is
    /// dialing: it passes the time until the next look at the listener (a
    /// sleep; a yield where every millisecond of bring-up is measured) and
    /// may call the rendezvous off — the launcher polls child exits there.
    /// Returns each member's control connection, by rank.
    pub fn admit(
        &mut self,
        timeout: Duration,
        mut wait: impl FnMut() -> Result<(), FleetError>,
    ) -> Result<Vec<BufReader<Stream>>, FleetError> {
        let n = self.addrs.len();
        let deadline = Instant::now() + timeout;
        let mut members: Vec<Option<BufReader<Stream>>> = (0..n).map(|_| None).collect();
        for joined in 0..n {
            let refused = match self.hello(deadline, &mut wait)? {
                None => {
                    format!("rendezvous timed out after {timeout:?}: {joined}/{n} processes joined")
                }
                Some((Frame::Hello { node, magic, .. }, _)) if magic != WIRE_MAGIC => {
                    format!("node {node} speaks a different wire-protocol version")
                }
                Some((Frame::Hello { node, addr, .. }, member)) => {
                    match members.get_mut(node as usize) {
                        Some(slot @ None) => {
                            self.addrs[node as usize] = addr;
                            *slot = Some(member);
                            continue;
                        }
                        _ => format!("bogus or duplicate Hello from node {node}"),
                    }
                }
                Some((other, _)) => format!("expected Hello during rendezvous, got {other:?}"),
            };
            return Err(FleetError::Fleet(refused));
        }
        let mut members: Vec<_> = members.into_iter().flatten().collect();
        for member in &mut members {
            self.send_peers(member)?;
        }
        Ok(members)
    }

    /// A respawned incarnation of `rank` re-registers: accept its `Hello`,
    /// record its fresh data-plane address, and hand it the current peer
    /// list (survivors learn the new address from its `Rejoin` handshake,
    /// not from here). Returns its control connection.
    pub fn readmit(
        &mut self,
        rank: usize,
        timeout: Duration,
    ) -> Result<BufReader<Stream>, FleetError> {
        match self.hello(Instant::now() + timeout, &mut nap)? {
            None => Err(FleetError::Fleet(format!(
                "respawned node {rank} did not re-register within {timeout:?}"
            ))),
            Some((Frame::Hello { node, addr, magic }, mut member))
                if magic == WIRE_MAGIC && node as usize == rank =>
            {
                self.addrs[rank] = addr;
                self.send_peers(&mut member)?;
                Ok(member)
            }
            Some((other, _)) => Err(FleetError::Fleet(format!(
                "expected re-registration Hello from node {rank}, got {other:?}"
            ))),
        }
    }
}

/// A fleet member's client end of the coordinator connection.
#[derive(Debug)]
pub struct CoordClient {
    reader: BufReader<Stream>,
    writer: Stream,
    /// This member's process rank.
    pub node: u32,
}

impl CoordClient {
    /// Dial the coordinator (retrying with capped exponential backoff up to
    /// `deadline`), announce `listen_addr`, and wait for the peer list.
    pub fn join(
        coord: &Addr,
        node: u32,
        listen_addr: &Addr,
        deadline: Duration,
    ) -> io::Result<(CoordClient, Vec<Addr>)> {
        let t0 = Instant::now();
        let mut backoff = Duration::from_millis(10);
        let stream = loop {
            match Stream::connect(coord) {
                Ok(s) => break s,
                Err(e) => {
                    if t0.elapsed() >= deadline {
                        return Err(io::Error::new(
                            e.kind(),
                            format!("node {node}: coordinator {coord} unreachable: {e}"),
                        ));
                    }
                    std::thread::sleep(backoff.min(deadline - t0.elapsed()));
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
            }
        };
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        write_frame(
            &mut writer,
            &Frame::Hello {
                node,
                addr: listen_addr.to_string(),
                magic: WIRE_MAGIC,
            },
        )?;
        let (frame, _) = read_frame(&mut reader)?;
        let addrs = match frame {
            Frame::Peers { addrs } => addrs
                .iter()
                .map(|s| {
                    s.parse().map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("bad peer addr: {e}"))
                    })
                })
                .collect::<io::Result<Vec<Addr>>>()?,
            Frame::Abort { msg } => return Err(io::Error::other(format!("fleet aborted: {msg}"))),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected Peers from coordinator, got {other:?}"),
                ))
            }
        };
        Ok((
            CoordClient {
                reader,
                writer,
                node,
            },
            addrs,
        ))
    }

    /// Report this member's final per-image results to the launcher.
    pub fn send_done(&mut self, results: &[(u32, u64)]) -> io::Result<()> {
        write_frame(
            &mut self.writer,
            &Frame::Done {
                node: self.node,
                results: results.to_vec(),
            },
        )?;
        Ok(())
    }

    /// Ship an encoded [`NodeTelemetry`](super::obs::NodeTelemetry) blob to
    /// the coordinator (live metrics, the final snapshot, or a flight
    /// recorder on the way down).
    pub fn send_telemetry(&mut self, payload: Vec<u8>) -> io::Result<()> {
        write_frame(
            &mut self.writer,
            &Frame::Telemetry {
                node: self.node,
                payload,
            },
        )?;
        Ok(())
    }

    /// Block (up to the stream's read timeout) for one control frame from
    /// the coordinator — used by launch modes that hold children open.
    pub fn recv(&mut self) -> io::Result<Frame> {
        read_frame(&mut self.reader).map(|(f, _)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_members_rendezvous() {
        let n = 3;
        let mut coord = Coordinator::bind(Transport::Uds, n).unwrap();
        let at = coord.addr().clone();
        let handles: Vec<_> = (0..n as u32)
            .map(|rank| {
                let at = at.clone();
                std::thread::spawn(move || {
                    let me = Addr::Uds(format!("/tmp/fake-{rank}.sock").into());
                    let (_client, peers) =
                        CoordClient::join(&at, rank, &me, Duration::from_secs(5)).unwrap();
                    peers
                })
            })
            .collect();
        let members = coord.admit(Duration::from_secs(5), nap).unwrap();
        assert_eq!(members.len(), n);
        for h in handles {
            let peers = h.join().unwrap();
            assert_eq!(peers.len(), n);
            for (i, p) in peers.iter().enumerate() {
                assert_eq!(*p, Addr::Uds(format!("/tmp/fake-{i}.sock").into()));
            }
        }
    }

    /// Connect to `at` and say `first`; the connection stays open.
    fn dial(at: &Addr, first: &Frame) -> Stream {
        let mut s = Stream::connect(at).unwrap();
        write_frame(&mut s, first).unwrap();
        s
    }

    fn hello(node: u32, magic: u32) -> Frame {
        Frame::Hello {
            node,
            addr: format!("uds:/tmp/fake-{node}.sock"),
            magic,
        }
    }

    /// What a two-member `admit` makes of `dialers`, in dialing order.
    fn refusal(dialers: &[Frame]) -> String {
        let mut coord = Coordinator::bind(Transport::Uds, 2).unwrap();
        let _open: Vec<Stream> = dialers.iter().map(|f| dial(coord.addr(), f)).collect();
        match coord.admit(Duration::from_millis(300), nap) {
            Err(FleetError::Fleet(why)) => why,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn admit_refuses_what_is_not_a_member_of_this_fleet() {
        assert_eq!(
            refusal(&[hello(1, WIRE_MAGIC ^ 1)]),
            "node 1 speaks a different wire-protocol version"
        );
        assert_eq!(
            refusal(&[hello(2, WIRE_MAGIC)]),
            "bogus or duplicate Hello from node 2"
        );
        assert_eq!(
            refusal(&[hello(0, WIRE_MAGIC), hello(0, WIRE_MAGIC)]),
            "bogus or duplicate Hello from node 0"
        );
        let put = Frame::Put {
            src: 0,
            dst: 1,
            seg: 0,
            off: 0,
            ack: 1,
            data: vec![7; 8],
        };
        let why = refusal(&[hello(0, WIRE_MAGIC), put]);
        assert!(
            why.starts_with("expected Hello during rendezvous, got Put"),
            "{why}"
        );
    }

    #[test]
    fn admit_gives_up_at_the_deadline_and_says_who_joined() {
        // One member joined; the other connects and says nothing.
        let mut coord = Coordinator::bind(Transport::Uds, 2).unwrap();
        let _joined = dial(coord.addr(), &hello(1, WIRE_MAGIC));
        let _silent = Stream::connect(coord.addr()).unwrap();
        let t0 = Instant::now();
        let err = coord.admit(Duration::from_millis(200), nap).unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        assert_eq!(
            err.to_string(),
            "rendezvous timed out after 200ms: 1/2 processes joined"
        );
    }

    #[test]
    fn admit_stops_when_the_wait_callback_says_so() {
        let mut coord = Coordinator::bind(Transport::Uds, 1).unwrap();
        let mut polls = 0;
        let err = coord
            .admit(Duration::from_secs(5), || {
                polls += 1;
                if polls < 3 {
                    return Ok(());
                }
                Err(FleetError::Fleet("node 0 exited during rendezvous".into()))
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "node 0 exited during rendezvous");
    }

    #[test]
    fn readmit_takes_only_the_respawned_rank() {
        let mut coord = Coordinator::bind(Transport::Uds, 2).unwrap();
        let _first = [
            dial(coord.addr(), &hello(0, WIRE_MAGIC)),
            dial(coord.addr(), &hello(1, WIRE_MAGIC)),
        ];
        coord.admit(Duration::from_secs(5), nap).unwrap();
        let _wrong = dial(coord.addr(), &hello(0, WIRE_MAGIC));
        let err = coord.readmit(1, Duration::from_secs(5)).unwrap_err();
        assert!(
            err.to_string()
                .starts_with("expected re-registration Hello from node 1, got Hello"),
            "{err}"
        );
        // The right rank gets the peer list with its fresh address in it.
        let fresh = Frame::Hello {
            node: 1,
            addr: "uds:/tmp/fake-1-reborn.sock".into(),
            magic: WIRE_MAGIC,
        };
        let reborn = dial(coord.addr(), &fresh);
        coord.readmit(1, Duration::from_secs(5)).unwrap();
        let (peers, _) = read_frame(&mut BufReader::new(reborn)).unwrap();
        assert_eq!(
            peers,
            Frame::Peers {
                addrs: vec![
                    "uds:/tmp/fake-0.sock".into(),
                    "uds:/tmp/fake-1-reborn.sock".into()
                ]
            }
        );
        let err = coord.readmit(1, Duration::from_millis(50)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "respawned node 1 did not re-register within 50ms"
        );
    }

    #[test]
    fn join_retries_until_coordinator_appears() {
        // Bind lazily after a delay: the client's backoff loop should ride
        // through the initial connection refusals.
        let path = std::env::temp_dir().join(format!("caf-rdv-late-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let coord = Addr::Uds(path.clone());
        let coord2 = coord.clone();
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            let l = std::os::unix::net::UnixListener::bind(&path).unwrap();
            let (s, _) = l.accept().unwrap();
            let s = Stream::Uds(s);
            let mut r = BufReader::new(s.try_clone().unwrap());
            let (f, _) = read_frame(&mut r).unwrap();
            assert!(matches!(f, Frame::Hello { node: 0, .. }));
            let mut w = s;
            write_frame(
                &mut w,
                &Frame::Peers {
                    addrs: vec!["uds:/tmp/only.sock".into()],
                },
            )
            .unwrap();
            std::fs::remove_file(&path).ok();
        });
        let me = Addr::Uds("/tmp/only.sock".into());
        let (_c, peers) = CoordClient::join(&coord2, 0, &me, Duration::from_secs(5)).unwrap();
        assert_eq!(peers.len(), 1);
        server.join().unwrap();
    }

    #[test]
    fn join_times_out_without_coordinator() {
        let coord = Addr::Uds("/tmp/caf-rdv-nonexistent.sock".into());
        let me = Addr::Uds("/tmp/whatever.sock".into());
        let err = CoordClient::join(&coord, 0, &me, Duration::from_millis(100)).unwrap_err();
        assert!(err.to_string().contains("unreachable"));
    }
}
