//! Epoch-based checkpoint/rollback — the state half of survivable fleets.
//!
//! A [`CheckpointStore`] holds, per image, a sequence of epoch-numbered
//! snapshots of that image's application state (typically the raw bytes of
//! its coarray segments, via [`crate::Coarray::local_bytes`]). The runtime
//! entry points ([`crate::ImageCtx::checkpoint`] /
//! [`crate::ImageCtx::restore`]) wrap the store in the collective protocol:
//!
//! * **checkpoint(epoch)** — quiet + team barrier (so no one-sided traffic
//!   is in flight), snapshot, *atomic local commit* (write to a temp file,
//!   rename into place), then a completion barrier. A node dying at any
//!   point leaves every image's store either without the epoch or with it
//!   complete — never torn.
//! * **restore** — each member reports its latest locally committed epoch;
//!   a `co_min` resolves the **last globally complete epoch** (the largest
//!   epoch committed by *every* member of the restoring team); each image
//!   reloads its own snapshot at that epoch. Survivors and rejoiners run
//!   the same protocol: a respawned process finds its predecessor's
//!   snapshots in the file-backed store (`CAF_CKPT_DIR`).
//!
//! The two-phase structure is thus: phase 1 is the per-image atomic
//! rename-commit, phase 2 is the min-resolution at restore time. There is
//! no global commit record to tear.

use caf_fabric::RecoveryError;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Environment variable naming the file-backed checkpoint directory. When
/// set, snapshots survive process death — required for `caf-launch
/// --respawn`, where the rejoined process must restore state its
/// predecessor wrote.
pub const ENV_CKPT_DIR: &str = "CAF_CKPT_DIR";

/// Magic header of a checkpoint file (version 1).
const CKPT_MAGIC: u64 = 0xCAF5_C4B7_0000_0001;

/// One image's snapshot at one epoch: the payload list its `snapshot`
/// closure produced, in order.
pub type SnapshotPayloads = Vec<Vec<u8>>;

/// Per-process store of epoch-numbered per-image snapshots. Shared by all
/// images a process hosts (`Arc` it across image threads); in-memory
/// always, mirrored to disk when built file-backed.
pub struct CheckpointStore {
    dir: Option<PathBuf>,
    /// `(image, epoch)` → payload list, for same-process restores.
    mem: Mutex<BTreeMap<(usize, u64), SnapshotPayloads>>,
    /// Committed epochs per image (in-memory view; disk is rescanned for
    /// epochs written by a dead predecessor process).
    committed: Mutex<BTreeMap<usize, BTreeSet<u64>>>,
}

impl CheckpointStore {
    /// An in-memory store: snapshots die with the process. Sufficient for
    /// shrinking-team recovery, where only survivors restore.
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            mem: Mutex::new(BTreeMap::new()),
            committed: Mutex::new(BTreeMap::new()),
        }
    }

    /// A file-backed store under `dir` (created if missing): snapshots
    /// survive process death, so a respawned node can roll back to its
    /// predecessor's last committed epoch.
    pub fn file_backed(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir: Some(dir),
            mem: Mutex::new(BTreeMap::new()),
            committed: Mutex::new(BTreeMap::new()),
        })
    }

    /// File-backed under `$CAF_CKPT_DIR` when set (and creatable),
    /// in-memory otherwise.
    pub fn from_env() -> Self {
        match std::env::var(ENV_CKPT_DIR) {
            Ok(dir) if !dir.is_empty() => Self::file_backed(dir).unwrap_or_else(|e| {
                eprintln!("caf-runtime: cannot open {ENV_CKPT_DIR}: {e}; using in-memory store");
                Self::in_memory()
            }),
            _ => Self::in_memory(),
        }
    }

    /// True when snapshots survive process death.
    pub fn is_file_backed(&self) -> bool {
        self.dir.is_some()
    }

    fn final_path(dir: &Path, img: usize, epoch: u64) -> PathBuf {
        dir.join(format!("img{img}-epoch{epoch}.ckpt"))
    }

    /// Atomically commit image `img`'s snapshot for `epoch`. On a
    /// file-backed store the payloads are written to a temporary file and
    /// renamed into place, so a crash mid-write never leaves a readable
    /// half-epoch; the in-memory mirror is updated only after the rename
    /// succeeds.
    pub fn commit(&self, img: usize, epoch: u64, payloads: &[Vec<u8>]) -> std::io::Result<()> {
        if let Some(dir) = &self.dir {
            let tmp = dir.join(format!("img{img}-epoch{epoch}.ckpt.tmp"));
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&CKPT_MAGIC.to_le_bytes())?;
            f.write_all(&epoch.to_le_bytes())?;
            f.write_all(&(payloads.len() as u64).to_le_bytes())?;
            for p in payloads {
                f.write_all(&(p.len() as u64).to_le_bytes())?;
                f.write_all(p)?;
            }
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, Self::final_path(dir, img, epoch))?;
        }
        self.mem.lock().insert((img, epoch), payloads.to_vec());
        self.committed.lock().entry(img).or_default().insert(epoch);
        Ok(())
    }

    /// The largest epoch image `img` has committed, or `None`. Scans the
    /// backing directory too, so a freshly respawned process sees the
    /// epochs its predecessor wrote.
    pub fn latest_committed(&self, img: usize) -> Option<u64> {
        let mut best = self
            .committed
            .lock()
            .get(&img)
            .and_then(|s| s.iter().next_back().copied());
        if let Some(dir) = &self.dir {
            if let Ok(entries) = std::fs::read_dir(dir) {
                let prefix = format!("img{img}-epoch");
                for e in entries.flatten() {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    if let Some(rest) = name.strip_prefix(&prefix) {
                        if let Some(num) = rest.strip_suffix(".ckpt") {
                            if let Ok(ep) = num.parse::<u64>() {
                                best = Some(best.map_or(ep, |b: u64| b.max(ep)));
                            }
                        }
                    }
                }
            }
        }
        best
    }

    /// Load image `img`'s committed snapshot for `epoch`, from memory or
    /// disk. `None` when the epoch was never committed (or the file fails
    /// validation — a torn write is treated as absent, which the
    /// min-resolution protocol then skips past).
    pub fn load(&self, img: usize, epoch: u64) -> Option<Vec<Vec<u8>>> {
        if let Some(p) = self.mem.lock().get(&(img, epoch)) {
            return Some(p.clone());
        }
        let dir = self.dir.as_ref()?;
        let mut f = std::fs::File::open(Self::final_path(dir, img, epoch)).ok()?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes).ok()?;
        decode_ckpt(&bytes, epoch)
    }

    /// Drop all snapshots strictly older than `epoch` (garbage collection
    /// between successful checkpoints).
    pub fn prune_below(&self, img: usize, epoch: u64) {
        let mut mem = self.mem.lock();
        let stale: Vec<(usize, u64)> = mem.range((img, 0)..(img, epoch)).map(|(k, _)| *k).collect();
        for k in &stale {
            mem.remove(k);
        }
        drop(mem);
        if let Some(set) = self.committed.lock().get_mut(&img) {
            set.retain(|&e| e >= epoch);
        }
        if let Some(dir) = &self.dir {
            for (_, e) in stale {
                let _ = std::fs::remove_file(Self::final_path(dir, img, e));
            }
        }
    }
}

fn decode_ckpt(bytes: &[u8], epoch: u64) -> Option<Vec<Vec<u8>>> {
    let mut at = 0usize;
    let u64_at = |at: &mut usize| -> Option<u64> {
        let v = u64::from_le_bytes(bytes.get(*at..*at + 8)?.try_into().ok()?);
        *at += 8;
        Some(v)
    };
    if u64_at(&mut at)? != CKPT_MAGIC || u64_at(&mut at)? != epoch {
        return None;
    }
    let count = u64_at(&mut at)? as usize;
    // Each entry is at least its 8-byte length.
    let mut out = Vec::with_capacity(count.min((bytes.len() - at) / 8));
    for _ in 0..count {
        let len = u64_at(&mut at)? as usize;
        out.push(bytes.get(at..at.checked_add(len)?)?.to_vec());
        at += len;
    }
    if at != bytes.len() {
        return None;
    }
    Some(out)
}

/// Convert a caught panic payload into a [`RecoveryError`], preferring the
/// fabric's own poison report when present.
pub(crate) fn panic_to_recovery(
    fabric: &caf_fabric::ArcFabric,
    payload: Box<dyn std::any::Any + Send>,
) -> RecoveryError {
    if let Err(e) = fabric.health() {
        return e;
    }
    RecoveryError::Poisoned(caf_fabric::panic_message(payload.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_roundtrip_and_latest() {
        let s = CheckpointStore::in_memory();
        assert_eq!(s.latest_committed(0), None);
        s.commit(0, 1, &[vec![1, 2, 3]]).unwrap();
        s.commit(0, 2, &[vec![4, 5]]).unwrap();
        assert_eq!(s.latest_committed(0), Some(2));
        assert_eq!(s.load(0, 1), Some(vec![vec![1, 2, 3]]));
        assert_eq!(s.load(0, 3), None);
    }

    #[test]
    fn file_backed_survives_a_new_store_instance() {
        let dir = std::env::temp_dir().join(format!("caf-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = CheckpointStore::file_backed(&dir).unwrap();
            s.commit(3, 7, &[vec![9u8; 100], vec![]]).unwrap();
        }
        // A fresh store (a "respawned process") sees the committed epoch.
        let s2 = CheckpointStore::file_backed(&dir).unwrap();
        assert_eq!(s2.latest_committed(3), Some(7));
        assert_eq!(s2.load(3, 7), Some(vec![vec![9u8; 100], vec![]]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_file_is_treated_as_absent() {
        let dir = std::env::temp_dir().join(format!("caf-ckpt-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A half-written (pre-rename) file never counts...
        std::fs::write(dir.join("img0-epoch5.ckpt.tmp"), [0u8; 12]).unwrap();
        // ...and a corrupt "committed" file fails validation on load.
        std::fs::write(dir.join("img0-epoch6.ckpt"), [0u8; 12]).unwrap();
        let s = CheckpointStore::file_backed(&dir).unwrap();
        assert_eq!(
            s.latest_committed(0),
            Some(6),
            "file exists so it is scanned"
        );
        assert_eq!(s.load(0, 5), None);
        assert_eq!(s.load(0, 6), None, "torn payload must not decode");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupt count or length is refused, not allocated or added.
    #[test]
    fn a_corrupt_count_or_length_does_not_decode() {
        let file = |words: &[u64]| -> Vec<u8> {
            let head = [CKPT_MAGIC, 5];
            (head.iter().chain(words))
                .flat_map(|w| w.to_le_bytes())
                .collect()
        };
        assert_eq!(decode_ckpt(&file(&[u64::MAX]), 5), None, "count");
        assert_eq!(decode_ckpt(&file(&[1, u64::MAX]), 5), None, "length");
    }

    #[test]
    fn prune_drops_old_epochs() {
        let s = CheckpointStore::in_memory();
        for e in 1..=4 {
            s.commit(1, e, &[vec![e as u8]]).unwrap();
        }
        s.prune_below(1, 3);
        assert_eq!(s.load(1, 2), None);
        assert_eq!(s.load(1, 3), Some(vec![vec![3]]));
        assert_eq!(s.latest_committed(1), Some(4));
    }
}
