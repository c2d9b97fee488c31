//! mmap-backed shared-memory segments: the intranode zero-copy tier of
//! the socket fabric.
//!
//! Each process creates **one** segment file (in `/dev/shm` when present)
//! sized for its hosted images' coarray windows plus per-image flag/AMO
//! tables, and announces the file's path in its `Open`/`Rejoin`
//! handshake. Peers that share the host map the file and service puts,
//! gets, AMOs, and flag adds against it with plain memory operations — a
//! memcpy plus a release-store instead of a frame plus an ack.
//!
//! # Segment layout
//!
//! ```text
//! header (64 B): magic, n_hosted, max_segs, max_flags,
//!                tables_off, arena_off, arena_len
//! per hosted image (local index k), stride-aligned:
//!     flag table   max_flags × AtomicU64
//!     segment dir  max_segs × (state, offset, len)
//! arena: bump-allocated segment storage (zeroed on allocation)
//! ```
//!
//! The owner allocates segments from the arena and *publishes* each one
//! by writing its directory entry and release-storing the entry's state
//! word; peers acquire-load the state word before building a window, so
//! a published entry's offset/length are always visible. Every window and
//! flag cell is a [`Window`] or [`FlagCell`] carved from the one map of
//! the file — the types a heap segment and cell are too — so payload bytes
//! move through the same relaxed atomics and the same checks; flag adds
//! use release stores and flag waits acquire loads, which give
//! properly-synchronized programs full payload visibility across
//! processes.
//!
//! A segment file is unlinked when its owner's [`NodeShm`] drops — with
//! the owning fabric, however many windows into the map threads still
//! hold; `caf-launch` additionally sets [`ENV_FLEET`] so it can sweep
//! `/dev/shm` for the litter of a crashed fleet (see [`file_name`] for
//! the naming scheme).

use crate::seg::{FlagCell, Local, Window};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// `CAF_SOCKET_SHM=0` disables the shared-memory tier (pure-socket
/// differential oracle); `1` (or unset) enables it where supported.
pub const ENV_SHM: &str = "CAF_SOCKET_SHM";
/// Arena bytes reserved per hosted image (`CAF_SOCKET_SHM_BYTES`,
/// default 16 MiB). Pages are only committed when touched.
pub const ENV_SHM_BYTES: &str = "CAF_SOCKET_SHM_BYTES";
/// Fleet tag set by `caf-launch` so segment files of one fleet share a
/// greppable prefix the supervisor can clean up after a crash.
pub const ENV_FLEET: &str = "CAF_SHM_FLEET";
/// Directory override for segment files (default `/dev/shm` when it
/// exists, the system temp dir otherwise).
pub const ENV_SHM_DIR: &str = "CAF_SHM_DIR";

/// Default arena bytes per hosted image.
pub const DEFAULT_ARENA_PER_IMAGE: usize = 16 << 20;

const MAGIC: u64 = 0xCAF5_11A6_0000_0001;
const HEADER_BYTES: usize = 64;
/// Directory capacity: segments addressable per hosted image. Segments
/// allocated past this (or once the arena runs dry) degrade gracefully
/// to owner-heap windows reached over the wire — the unpublished
/// directory entry is the shared truth peers consult, so both sides of
/// a mapping agree without coordination.
pub const MAX_SEGS: usize = 256;
/// Shared flag-table capacity per hosted image. Flags allocated past
/// this index degrade gracefully to heap cells reached over the wire —
/// the index alone decides the backing, so both sides of a mapping
/// agree without coordination.
pub const MAX_FLAGS: usize = 256;
/// Directory entry: `[state, offset, len]`.
const DIR_ENTRY_BYTES: usize = 24;
const STATE_EMPTY: u64 = 0;
const STATE_PUBLISHED: u64 = 1;

// Header word offsets (bytes).
const H_MAGIC: usize = 0;
const H_N_HOSTED: usize = 8;
const H_MAX_SEGS: usize = 16;
const H_MAX_FLAGS: usize = 24;
const H_TABLES_OFF: usize = 32;
const H_ARENA_OFF: usize = 40;
const H_ARENA_LEN: usize = 48;

/// The directory where segment files live.
pub fn segment_dir() -> PathBuf {
    if let Ok(d) = std::env::var(ENV_SHM_DIR) {
        return PathBuf::from(d);
    }
    let dev_shm = Path::new("/dev/shm");
    if dev_shm.is_dir() {
        dev_shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

/// The prefix shared by every segment file of fleet `tag` — what the
/// launcher's crash sweep matches on.
pub fn fleet_prefix(tag: &str) -> String {
    format!("caf-shm-{tag}-")
}

/// Segment file name for process `rank` of fleet `tag` at recovery
/// generation `generation`. A respawned incarnation creates a fresh file
/// at its target generation, so its name never collides with the dead
/// incarnation's.
pub fn file_name(tag: &str, generation: u64, rank: usize) -> String {
    format!("{}g{generation}-r{rank}", fleet_prefix(tag))
}

/// Parse `name` as a segment file of fleet `tag`, returning its
/// `(generation, rank)`. The remainder after the fleet prefix must match
/// the full `g<digits>-r<digits>` structure [`file_name`] produces: a tag
/// that is merely a *prefix* of another fleet's tag (`ab` vs `ab-1` — the
/// tag is user-settable via `CAF_SHM_FLEET`) leaves a non-digit residue
/// and is rejected, so one fleet's sweep can never claim another's files.
fn parse_fleet_file(name: &str, tag: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix(&fleet_prefix(tag))?;
    let (generation, rank) = rest.strip_prefix('g')?.split_once("-r")?;
    Some((generation.parse().ok()?, rank.parse().ok()?))
}

/// True when `name` is a segment file of fleet `tag` owned by `rank`
/// (any generation) — the stale files the launcher removes before
/// respawning that rank.
pub fn is_rank_file(name: &str, tag: &str, rank: usize) -> bool {
    parse_fleet_file(name, tag).is_some_and(|(_, r)| r == rank)
}

fn fleet_tag() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::var(ENV_FLEET).unwrap_or_else(|_| {
        format!(
            "{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )
    })
}

/// Remove every segment file of fleet `tag`, any rank, any generation —
/// the launcher's teardown/crash sweep, so no `/dev/shm` litter survives
/// a reaped fleet. Returns how many files were removed.
pub fn sweep_fleet(tag: &str) -> usize {
    sweep_matching(|name| parse_fleet_file(name, tag).is_some())
}

/// Remove `rank`'s segment files of fleet `tag` from *any* generation —
/// what the launcher runs before respawning that rank, so the dead
/// incarnation's segment (whose owner never ran its unlink) cannot be
/// confused with the new generation's. Returns how many files were
/// removed.
pub fn sweep_rank(tag: &str, rank: usize) -> usize {
    sweep_matching(|name| is_rank_file(name, tag, rank))
}

fn sweep_matching(matches: impl Fn(&str) -> bool) -> usize {
    let Ok(entries) = std::fs::read_dir(segment_dir()) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if matches(name) && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Layout parameters read back from a mapped segment's header.
#[derive(Clone, Copy)]
struct Layout {
    n_hosted: usize,
    max_segs: usize,
    max_flags: usize,
    tables_off: usize,
    arena_off: usize,
    arena_len: usize,
}

impl Layout {
    fn read(map: &Window, path: &Path) -> io::Result<Layout> {
        let word = |at| map.as_atomic_u64(at).load(Ordering::Relaxed) as usize;
        let magic = map.as_atomic_u64(H_MAGIC).load(Ordering::Acquire);
        if magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shared segment {} has magic {magic:#x}, expected {MAGIC:#x} \
                     (mixed fabric versions on one host?)",
                    path.display()
                ),
            ));
        }
        Ok(Layout {
            n_hosted: word(H_N_HOSTED),
            max_segs: word(H_MAX_SEGS),
            max_flags: word(H_MAX_FLAGS),
            tables_off: word(H_TABLES_OFF),
            arena_off: word(H_ARENA_OFF),
            arena_len: word(H_ARENA_LEN),
        })
    }

    #[inline]
    fn table_stride(&self) -> usize {
        let raw = self.max_flags * 8 + self.max_segs * DIR_ENTRY_BYTES;
        raw.next_multiple_of(64)
    }

    #[inline]
    fn flag_off(&self, local: usize, flag: usize) -> usize {
        assert!(
            local < self.n_hosted && flag < self.max_flags,
            "shm flag table access out of range (image slot {local}, flag {flag})"
        );
        self.tables_off + local * self.table_stride() + flag * 8
    }

    #[inline]
    fn dir_off(&self, local: usize, seg: usize) -> usize {
        assert!(
            local < self.n_hosted && seg < self.max_segs,
            "shm segment directory access out of range (image slot {local}, seg {seg})"
        );
        self.tables_off + local * self.table_stride() + self.max_flags * 8 + seg * DIR_ENTRY_BYTES
    }
}

/// The segment this process owns: hosted images' flag tables plus a bump
/// arena their coarray windows are carved from. `map` is the whole file;
/// every window and flag cell handed out is carved from it and holds the
/// map alive, however long it outlives this.
pub struct NodeShm {
    map: Window,
    path: PathBuf,
    layout: Layout,
    /// Owner-local bump pointer into the arena (bytes from `arena_off`).
    arena_next: AtomicU64,
    /// Arena watermark right after bootstrap allocation — what a
    /// recovery-fence reset rolls back to.
    boot_mark: AtomicU64,
}

impl Drop for NodeShm {
    /// The owner unlinks its file here, not when the last window into the
    /// map goes: threads keep windows into it in their views
    /// (`seg::Tables`), and a file must not outlive its fabric for that.
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

impl NodeShm {
    /// Create this process's segment: `n_hosted` per-image tables plus
    /// `arena_per_image` arena bytes each, under the fleet tag from
    /// [`ENV_FLEET`] (or a process-unique fallback).
    pub fn create(
        rank: usize,
        generation: u64,
        n_hosted: usize,
        arena_per_image: usize,
    ) -> io::Result<NodeShm> {
        let layout = Layout {
            n_hosted,
            max_segs: MAX_SEGS,
            max_flags: MAX_FLAGS,
            tables_off: HEADER_BYTES,
            arena_off: 0, // fixed up below
            arena_len: n_hosted * arena_per_image,
        };
        let arena_off = (HEADER_BYTES + n_hosted * layout.table_stride()).next_multiple_of(4096);
        let layout = Layout {
            arena_off,
            ..layout
        };
        let total = (arena_off + layout.arena_len).next_multiple_of(4096);
        let path = segment_dir().join(file_name(&fleet_tag(), generation, rank));
        let file = (fs::OpenOptions::new().read(true).write(true))
            .create_new(true)
            .open(&path)?;
        let map = file
            .set_len(total as u64)
            .and_then(|()| Window::map(&file, total));
        let map = map.inspect_err(|_| {
            let _ = fs::remove_file(&path);
        })?;
        let header = [
            (H_N_HOSTED, n_hosted),
            (H_MAX_SEGS, MAX_SEGS),
            (H_MAX_FLAGS, MAX_FLAGS),
            (H_TABLES_OFF, HEADER_BYTES),
            (H_ARENA_OFF, arena_off),
            (H_ARENA_LEN, layout.arena_len),
        ];
        for (at, value) in header {
            map.as_atomic_u64(at).store(value as u64, Ordering::Relaxed);
        }
        // Publish the magic last: a peer that maps a half-built header
        // (impossible through the handshake, but cheap to rule out) sees
        // a zero magic and rejects.
        map.as_atomic_u64(H_MAGIC).store(MAGIC, Ordering::Release);
        Ok(NodeShm {
            map,
            path,
            layout,
            arena_next: AtomicU64::new(0),
            boot_mark: AtomicU64::new(0),
        })
    }

    /// The segment file's path (announced to peers in the handshake).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Carve `bytes` from the arena for segment id `seg` of hosted image
    /// slot `local`, zero it, and publish its directory entry.
    pub fn alloc(&self, local: usize, seg: usize, bytes: usize) -> Result<Window, String> {
        if seg >= self.layout.max_segs {
            return Err(format!(
                "image slot {local} needs segment id {seg} but the shared segment \
                 directory holds {} entries",
                self.layout.max_segs
            ));
        }
        let need = bytes.next_multiple_of(64).max(64);
        let off = self.arena_next.fetch_add(need as u64, Ordering::Relaxed) as usize;
        if off + need > self.layout.arena_len {
            return Err(format!(
                "shared-memory arena exhausted allocating {bytes} bytes \
                 ({} of {} arena bytes used); raise {ENV_SHM_BYTES}",
                off, self.layout.arena_len
            ));
        }
        let base = self.layout.arena_off + off;
        let window = self.map.window(base, bytes);
        // Fresh allocations hand out zeroed memory, like a heap window —
        // this also scrubs stale bytes after a recovery-fence rollback.
        window.zero();
        let dir = self.layout.dir_off(local, seg);
        let entry = |at| self.map.as_atomic_u64(dir + at);
        entry(8).store(base as u64, Ordering::Relaxed);
        entry(16).store(bytes as u64, Ordering::Relaxed);
        entry(0).store(STATE_PUBLISHED, Ordering::Release);
        Ok(window)
    }

    /// Flag cell `flag` of hosted image slot `local`.
    pub fn flag(&self, local: usize, flag: usize) -> FlagCell {
        self.map.flag(self.layout.flag_off(local, flag))
    }

    /// Record the post-bootstrap arena watermark; [`NodeShm::reset`]
    /// rolls the arena back to it.
    pub fn seal_bootstrap(&self) {
        self.boot_mark
            .store(self.arena_next.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Recovery-fence reset: unpublish every directory entry past the
    /// first `keep_segs`, zero every flag cell, and roll the arena back
    /// to the bootstrap watermark. Runs between the two fence rounds,
    /// when no peer is issuing traffic.
    pub fn reset(&self, keep_segs: usize) {
        let word = |at| self.map.as_atomic_u64(at);
        for local in 0..self.layout.n_hosted {
            for s in keep_segs..self.layout.max_segs {
                word(self.layout.dir_off(local, s)).store(STATE_EMPTY, Ordering::Release);
            }
            for f in 0..self.layout.max_flags {
                word(self.layout.flag_off(local, f)).store(0, Ordering::Release);
            }
        }
        self.arena_next
            .store(self.boot_mark.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A peer's mapped segment: windows and flag cells resolved against the
/// peer's published directory. A clone is one more reference to the same
/// map.
#[derive(Clone)]
pub struct PeerShm {
    map: Window,
    layout: Layout,
}

impl AsRef<Window> for PeerShm {
    fn as_ref(&self) -> &Window {
        &self.map
    }
}

impl PeerShm {
    /// Map the segment a peer announced in its handshake.
    pub fn open(path: &Path) -> io::Result<PeerShm> {
        let file = fs::OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len() as usize;
        if len < HEADER_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shared segment {} is truncated ({len} bytes)",
                    path.display()
                ),
            ));
        }
        let map = Window::map(&file, len)?;
        let layout = Layout::read(&map, path)?;
        let need = layout.arena_off + layout.arena_len;
        if len < need {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shared segment {} is {len} bytes but its header claims {need}",
                    path.display(),
                ),
            ));
        }
        Ok(PeerShm { map, layout })
    }

    /// Where the peer's directory puts segment id `seg` of its hosted image
    /// slot `local` — `(base, len)` — or `None` while the entry is not
    /// published. Read anew by every op: the directory is the truth.
    #[inline(always)]
    pub(super) fn published(&self, local: usize, seg: usize) -> Option<(usize, usize)> {
        if local >= self.layout.n_hosted || seg >= self.layout.max_segs {
            return None;
        }
        let dir = self.layout.dir_off(local, seg);
        let entry = |at| self.map.as_atomic_u64(dir + at);
        if entry(0).load(Ordering::Acquire) != STATE_PUBLISHED {
            return None;
        }
        let base = entry(8).load(Ordering::Relaxed) as usize;
        Some((base, entry(16).load(Ordering::Relaxed) as usize))
    }

    /// The published window for segment id `seg` of the peer's hosted
    /// image slot `local`, or `None` when the peer has not allocated it.
    pub fn window(&self, local: usize, seg: usize) -> Option<Window> {
        let (base, len) = self.published(local, seg)?;
        Some(self.map.window(base, len))
    }

    /// [`PeerShm::window`] held through a thread's own handle `peer`: the
    /// form a direct op takes.
    #[inline(always)]
    pub(crate) fn window_of(peer: Rc<PeerShm>, local: usize, seg: usize) -> Option<Window<Local>> {
        let (base, len) = peer.published(local, seg)?;
        Some(Window::of(peer, base, len))
    }

    /// Flag cell `flag` of the peer's hosted image slot `local`.
    pub fn flag(&self, local: usize, flag: usize) -> FlagCell {
        self.map.flag(self.layout.flag_off(local, flag))
    }

    /// [`PeerShm::flag`] held through a thread's own handle `peer`: the
    /// form a direct op bumps.
    #[inline(always)]
    pub(crate) fn flag_of(peer: Rc<PeerShm>, local: usize, flag: usize) -> FlagCell<Local> {
        let at = peer.layout.flag_off(local, flag);
        FlagCell::of(peer, at)
    }

    /// Number of image slots the peer's segment holds.
    pub fn n_hosted(&self) -> usize {
        self.layout.n_hosted
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn create_alloc_publish_and_peer_window_roundtrip() {
        let own = NodeShm::create(0, 0, 2, 1 << 16).expect("create");
        assert!(own.path().exists());
        let w = own.alloc(1, 0, 100).expect("alloc");
        w.write(4, &[1, 2, 3, 4]);
        let peer = PeerShm::open(own.path()).expect("open");
        assert_eq!(peer.n_hosted(), 2);
        let pw = peer.window(1, 0).expect("published window");
        assert_eq!(pw.len(), 100);
        let mut out = [0u8; 6];
        pw.read(3, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 4, 0]);
        assert!(peer.window(0, 0).is_none(), "unpublished id stays hidden");
        assert!(peer.window(1, 7).is_none());
    }

    /// A mapped window moves bytes with the same routine as a heap one
    /// (window bases are 64-byte aligned in the mapping, so the same
    /// offsets hit the same ragged-end cases).
    #[test]
    fn shm_window_copy_matches_seg_model() {
        use crate::seg::tests::{check_copy_against_model, MODEL_SPAN};
        let own = NodeShm::create(0, 0, 1, 1 << 16).expect("create");
        let w = own.alloc(0, 0, MODEL_SPAN).expect("alloc");
        let peer = PeerShm::open(own.path()).expect("open");
        let pw = peer.window(0, 0).expect("published window");
        for seed in [1, 0x9E37_79B9_7F4A_7C15] {
            // Written through the owner's mapping, read through the peer's.
            check_copy_against_model(seed, &|o, b| w.write(o, b), &|o, b| pw.read(o, b));
        }
    }

    #[test]
    fn flags_and_amos_are_shared_atomics() {
        let own = NodeShm::create(0, 0, 1, 1 << 12).expect("create");
        let peer = PeerShm::open(own.path()).expect("open");
        own.flag(0, 3).cell().fetch_add(5, Ordering::Release);
        peer.flag(0, 3).cell().fetch_add(2, Ordering::Release);
        assert_eq!(own.flag(0, 3).cell().load(Ordering::Acquire), 7);
        let w = own.alloc(0, 0, 64).expect("alloc");
        let pw = peer.window(0, 0).expect("window");
        w.as_atomic_u64(8).store(40, Ordering::Release);
        assert_eq!(pw.as_atomic_u64(8).fetch_add(2, Ordering::AcqRel), 40);
        let mut out = [0u8; 8];
        w.read(8, &mut out);
        assert_eq!(u64::from_ne_bytes(out), 42);
    }

    #[test]
    fn reset_rolls_back_to_bootstrap() {
        let own = NodeShm::create(0, 0, 1, 1 << 12).expect("create");
        let boot = own.alloc(0, 0, 64).expect("bootstrap seg");
        own.seal_bootstrap();
        boot.write(0, &[9u8; 64]);
        own.alloc(0, 1, 128).expect("app seg");
        own.flag(0, 0).cell().store(77, Ordering::Release);
        own.reset(1);
        let peer = PeerShm::open(own.path()).expect("open");
        assert!(peer.window(0, 0).is_some(), "bootstrap entry survives");
        assert!(peer.window(0, 1).is_none(), "app entry unpublished");
        assert_eq!(own.flag(0, 0).cell().load(Ordering::Acquire), 0);
        // The arena rolled back: the next allocation reuses (and zeroes)
        // the old app segment's bytes.
        let w = own.alloc(0, 1, 128).expect("realloc");
        let mut out = [0u8; 128];
        w.read(0, &mut out);
        assert!(
            out.iter().all(|b| *b == 0),
            "realloc hands out zeroed bytes"
        );
    }

    #[test]
    fn arena_exhaustion_is_a_loud_error() {
        let own = NodeShm::create(0, 0, 1, 4096).expect("create");
        let err = own.alloc(0, 0, 1 << 20).map(|_| ()).unwrap_err();
        assert!(err.contains(ENV_SHM_BYTES), "error names the knob: {err}");
    }

    #[test]
    fn window_bounds_and_alignment_match_shared_bytes_contract() {
        let own = NodeShm::create(0, 0, 1, 1 << 12).expect("create");
        let w = own.alloc(0, 0, 32).expect("alloc");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.write(30, &[0u8; 4])));
        let msg = *r.unwrap_err().downcast::<String>().expect("panic message");
        assert!(msg.contains("exceeds segment of 32 bytes"), "{msg}");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.as_atomic_u64(4)));
        let msg = *r.unwrap_err().downcast::<String>().expect("panic message");
        assert!(msg.contains("not 8-byte aligned"), "{msg}");
        // Every kind of window refuses an access with `check`'s own words:
        // past the end, an end that overflows, a misaligned AMO.
        let peer = Rc::new(PeerShm::open(own.path()).expect("open"));
        let mapped = PeerShm::window_of(peer, 0, 0).expect("published window");
        refusals_are_checks(&Window::heap(32));
        refusals_are_checks(&w);
        refusals_are_checks(&mapped);
    }

    /// Each accessor of `window` (32 bytes) panics with the `Err` text
    /// `check` gives for the same access.
    fn refusals_are_checks<K>(window: &Window<K>) {
        use crate::seg::Access::{self, Amo, Get, Put};
        let far = usize::MAX - 7;
        let cases = [
            (Put, 28),
            (Put, far),
            (Get, 28),
            (Get, far),
            (Amo, 32),
            (Amo, far),
            (Amo, 4),
        ];
        for (access, off) in cases {
            let want = window.check(access, off as u64, 8).expect_err("refused");
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match access {
                Access::Put => window.write(off, &[0; 8]),
                Access::Get => window.read(off, &mut [0; 8]),
                Access::Amo => {
                    window.as_atomic_u64(off);
                }
            }));
            assert_eq!(
                crate::panic_message(got.expect_err("refused").as_ref()),
                want
            );
        }
    }

    /// An AMO offset is wire-supplied, and optimized builds wrap: the end
    /// of the cell must be a checked add, or `usize::MAX - 7` lands the
    /// AMO on the 8 bytes *before* the window.
    #[test]
    #[should_panic(expected = "exceeds segment")]
    fn amo_offset_that_wraps_is_refused() {
        let own = NodeShm::create(0, 0, 1, 1 << 12).expect("create");
        own.alloc(0, 0, 64).expect("neighbour below the window");
        let w = own.alloc(0, 1, 64).expect("alloc");
        w.as_atomic_u64(usize::MAX - 7);
    }

    #[test]
    #[should_panic(expected = "exceeds segment")]
    fn amo_one_word_past_the_end_is_refused() {
        let own = NodeShm::create(0, 0, 1, 1 << 12).expect("create");
        let w = own.alloc(0, 0, 64).expect("alloc");
        w.as_atomic_u64(64);
    }

    #[test]
    fn drop_of_owner_unlinks_the_file() {
        let own = NodeShm::create(7, 3, 1, 4096).expect("create");
        let path = own.path().to_path_buf();
        let peer = PeerShm::open(&path).expect("open");
        drop(own);
        assert!(!path.exists(), "owner drop unlinks");
        // The peer's mapping is still valid after the unlink.
        peer.flag(0, 0).cell().store(1, Ordering::Release);
        assert_eq!(peer.flag(0, 0).cell().load(Ordering::Acquire), 1);
    }

    #[test]
    fn naming_scheme_is_greppable_per_rank() {
        assert_eq!(file_name("ab-1", 2, 3), "caf-shm-ab-1-g2-r3");
        assert!(is_rank_file("caf-shm-ab-1-g2-r3", "ab-1", 3));
        assert!(is_rank_file("caf-shm-ab-1-g0-r3", "ab-1", 3));
        assert!(!is_rank_file("caf-shm-ab-1-g2-r13", "ab-1", 3));
        assert!(!is_rank_file("caf-shm-other-g2-r3", "ab-1", 3));
    }

    #[test]
    fn fleet_match_rejects_prefix_collisions_between_tags() {
        // `CAF_SHM_FLEET` is user-settable, so one tag can be a raw prefix
        // of another (`ab` vs `ab-1`). The sweep must only claim files
        // whose post-prefix remainder has the full g<gen>-r<rank> shape.
        assert_eq!(parse_fleet_file("caf-shm-ab-g2-r3", "ab"), Some((2, 3)));
        assert_eq!(
            parse_fleet_file(&file_name("ab", 0, 11), "ab"),
            Some((0, 11))
        );
        // Fleet "ab-1"'s files are not fleet "ab"'s, despite the prefix.
        assert_eq!(parse_fleet_file("caf-shm-ab-1-g2-r3", "ab"), None);
        // ...and vice versa.
        assert_eq!(parse_fleet_file("caf-shm-ab-g2-r3", "ab-1"), None);
        // Structural garbage after a matching prefix is left alone.
        assert_eq!(parse_fleet_file("caf-shm-ab-gx-r3", "ab"), None);
        assert_eq!(parse_fleet_file("caf-shm-ab-g2", "ab"), None);
        assert_eq!(parse_fleet_file("caf-shm-ab-", "ab"), None);
        assert_eq!(parse_fleet_file("caf-shm-other-g2-r3", "ab"), None);
    }
}
