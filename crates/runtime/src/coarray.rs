//! Coarrays: symmetric data objects with square-bracket remote access.
//!
//! `A(:)[k] = B(:)` in Coarray Fortran is `a.put(k, 0, &b)` here; the
//! 1-sided semantics, the 1-based image index, and the "allocated over the
//! current team" rule all match the language. Atomic subroutines
//! (`atomic_add`, `atomic_cas`, …) are provided on `u64` cells.

use caf_collectives::{CoValue, TeamComm};
use caf_fabric::{ArcFabric, SegmentId};
use caf_topology::ProcId;
use std::marker::PhantomData;
use std::sync::Arc;

/// A coarray of `len` elements of `T` on every image of the team that
/// allocated it. Cloneable: clones refer to the same storage.
#[derive(Clone)]
pub struct Coarray<T: CoValue> {
    fabric: ArcFabric,
    me: ProcId,
    my_rank: usize,
    members: Arc<Vec<ProcId>>,
    /// The segment, under the same id on every member.
    seg: SegmentId,
    len: usize,
    _t: PhantomData<T>,
}

impl<T: CoValue> Coarray<T> {
    /// Collective allocation over `comm`'s team (every member calls with
    /// the same `len`).
    pub(crate) fn allocate(comm: &mut TeamComm, len: usize) -> Self {
        // A zero-length coarray still takes an id of its own.
        let bytes = (len * T::SIZE).max(1);
        let (_, seg) = comm.alloc_symmetric("coarray", 0, bytes, [len as u64, T::SIZE as u64]);
        Self {
            fabric: comm.fabric().clone(),
            me: comm.proc_of(comm.rank()),
            my_rank: comm.rank(),
            members: comm.members().clone(),
            seg,
            len,
            _t: PhantomData,
        }
    }

    /// Elements per image.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the coarray holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of images the coarray spans (the allocating team's size).
    pub fn team_size(&self) -> usize {
        self.members.len()
    }

    /// My 1-based image index within the allocating team.
    pub fn this_image(&self) -> usize {
        self.my_rank + 1
    }

    fn target(&self, image1: usize) -> (ProcId, SegmentId) {
        assert!(
            (1..=self.members.len()).contains(&image1),
            "coarray image index {image1} outside team of {}",
            self.members.len()
        );
        (self.members[image1 - 1], self.seg)
    }

    fn check_range(&self, start: usize, count: usize) {
        assert!(
            start + count <= self.len,
            "coarray range {start}..{} exceeds length {}",
            start + count,
            self.len
        );
    }

    /// `A(start+1 : start+data.len())[image1] = data` — one-sided write.
    pub fn put(&self, image1: usize, start: usize, data: &[T]) {
        self.check_range(start, data.len());
        let (proc, seg) = self.target(image1);
        let mut bytes = vec![0u8; data.len() * T::SIZE];
        caf_collectives::value::slice_to_bytes(data, &mut bytes);
        self.fabric.put(self.me, proc, seg, start * T::SIZE, &bytes);
    }

    /// `out = A(start+1 : start+out.len())[image1]` — one-sided read.
    pub fn get(&self, image1: usize, start: usize, out: &mut [T]) {
        self.check_range(start, out.len());
        let (proc, seg) = self.target(image1);
        let mut bytes = vec![0u8; out.len() * T::SIZE];
        self.fabric
            .get(self.me, proc, seg, start * T::SIZE, &mut bytes);
        caf_collectives::value::bytes_to_slice(&bytes, out);
    }

    /// Write a single element on a (possibly remote) image.
    pub fn put_elem(&self, image1: usize, idx: usize, value: T) {
        self.put(image1, idx, &[value]);
    }

    /// Read a single element from a (possibly remote) image.
    pub fn get_elem(&self, image1: usize, idx: usize) -> T {
        let mut out = [value_zeroed::<T>()];
        self.get(image1, idx, &mut out);
        out[0]
    }

    /// Overwrite my local slice.
    pub fn write_local(&self, data: &[T]) {
        assert_eq!(data.len(), self.len, "write_local length mismatch");
        self.put(self.this_image(), 0, data);
    }

    /// Copy my local slice out.
    pub fn read_local(&self) -> Vec<T> {
        let mut out = vec![value_zeroed::<T>(); self.len];
        self.get(self.this_image(), 0, &mut out);
        out
    }

    /// Raw bytes of my local slice — the unit of state a checkpoint
    /// snapshots (see [`crate::ImageCtx::checkpoint`]).
    pub fn local_bytes(&self) -> Vec<u8> {
        let data = self.read_local();
        let mut bytes = vec![0u8; data.len() * T::SIZE];
        caf_collectives::value::slice_to_bytes(&data, &mut bytes);
        bytes
    }

    /// Overwrite my local slice from bytes previously captured by
    /// [`Self::local_bytes`] (the checkpoint restore path).
    pub fn restore_local_bytes(&self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.len * T::SIZE,
            "restore_local_bytes length mismatch"
        );
        let mut data = vec![value_zeroed::<T>(); self.len];
        caf_collectives::value::bytes_to_slice(bytes, &mut data);
        self.write_local(&data);
    }
}

/// Zero-initialized value of a `CoValue` (all segments start zeroed, so
/// this is the natural fill).
fn value_zeroed<T: CoValue>() -> T {
    let bytes = vec![0u8; T::SIZE];
    T::load(&bytes)
}

impl Coarray<u64> {
    /// CAF `atomic_add(A[image1](idx), delta)` — no result.
    pub fn atomic_add(&self, image1: usize, idx: usize, delta: u64) {
        self.atomic_fetch_add(image1, idx, delta);
    }

    /// CAF `atomic_fetch_add`: returns the previous value.
    pub fn atomic_fetch_add(&self, image1: usize, idx: usize, delta: u64) -> u64 {
        self.check_range(idx, 1);
        let (proc, seg) = self.target(image1);
        self.fabric
            .amo_fetch_add_u64(self.me, proc, seg, idx * 8, delta)
    }

    /// CAF `atomic_cas`: returns the previous value (the swap happened iff
    /// it equals `expected`).
    pub fn atomic_cas(&self, image1: usize, idx: usize, expected: u64, new: u64) -> u64 {
        self.check_range(idx, 1);
        let (proc, seg) = self.target(image1);
        self.fabric
            .amo_cas_u64(self.me, proc, seg, idx * 8, expected, new)
    }

    /// CAF `atomic_ref`-style read (single atomic cell).
    pub fn atomic_read(&self, image1: usize, idx: usize) -> u64 {
        // A CAS with an impossible swap is a plain atomic read.
        self.atomic_cas(image1, idx, u64::MAX, u64::MAX)
    }
}
