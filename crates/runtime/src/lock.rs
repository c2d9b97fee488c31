//! CAF locks: `type(lock_type) :: l[*]` with `lock`/`unlock` statements.
//!
//! A [`LockSet`] is a coarray of lock variables — each cell an independent
//! mutual-exclusion lock living on a specific image — built on remote
//! compare-and-swap. Lock acquisition spins with remote CAS; on the
//! simulator every retry advances virtual time (and pays NIC/bus costs), so
//! contention is costed realistically.

use crate::coarray::Coarray;
use crate::image::ImageCtx;
use caf_collectives::TeamComm;

/// A coarray of `count` lock variables per image of the allocating team.
pub struct LockSet {
    cells: Coarray<u64>,
    /// 1-based ticket identifying this image in lock cells.
    ticket: u64,
    /// Locks currently held: (image1, idx), to catch double-unlock.
    held: Vec<(usize, usize)>,
}

/// RAII guard for a held lock; releases on drop… except that CAF unlock is
/// an explicit statement, so we expose explicit [`LockSet::unlock`] and the
/// guard-free style matches the language. (A closure API is on
/// [`ImageCtx::critical`].)
impl LockSet {
    pub(crate) fn allocate(comm: &mut TeamComm, count: usize) -> Self {
        assert!(count > 0, "lock set needs at least one lock");
        let cells = Coarray::allocate(comm, count);
        Self {
            ticket: comm.rank() as u64 + 1,
            cells,
            held: Vec::new(),
        }
    }

    /// Locks per image.
    pub fn count(&self) -> usize {
        self.cells.len()
    }

    /// `lock(l[image1](idx))`: acquire, spinning until free.
    ///
    /// # Panics
    /// Panics on attempted recursive acquisition of a lock this image
    /// already holds (Fortran makes this an error condition).
    pub fn lock(&mut self, image1: usize, idx: usize) {
        assert!(
            !self.held.contains(&(image1, idx)),
            "image already holds lock ({image1}, {idx})"
        );
        loop {
            let old = self.cells.atomic_cas(image1, idx, 0, self.ticket);
            if old == 0 {
                break;
            }
            assert_ne!(
                old, self.ticket,
                "lock ({image1}, {idx}) already held by this image"
            );
        }
        self.held.push((image1, idx));
    }

    /// `lock(l[image1](idx), acquired_lock=ok)`: one attempt, no spin.
    /// Returns whether the lock was acquired.
    pub fn try_lock(&mut self, image1: usize, idx: usize) -> bool {
        if self.held.contains(&(image1, idx)) {
            return false;
        }
        let old = self.cells.atomic_cas(image1, idx, 0, self.ticket);
        if old == 0 {
            self.held.push((image1, idx));
            true
        } else {
            false
        }
    }

    /// `unlock(l[image1](idx))`.
    ///
    /// # Panics
    /// Panics if this image does not hold the lock.
    pub fn unlock(&mut self, image1: usize, idx: usize) {
        let pos = self
            .held
            .iter()
            .position(|&h| h == (image1, idx))
            .unwrap_or_else(|| panic!("unlock of lock ({image1}, {idx}) not held by this image"));
        self.held.swap_remove(pos);
        let old = self.cells.atomic_cas(image1, idx, self.ticket, 0);
        assert_eq!(old, self.ticket, "lock ({image1}, {idx}) corrupted");
    }

    /// True when this image currently holds the given lock.
    pub fn holds(&self, image1: usize, idx: usize) -> bool {
        self.held.contains(&(image1, idx))
    }
}

impl ImageCtx {
    /// Allocate a coarray of `count` lock variables per image over the
    /// current team (CAF `type(lock_type) :: l(count)[*]`). Collective.
    pub fn locks(&mut self, count: usize) -> LockSet {
        LockSet::allocate(self.current_comm_mut(), count)
    }
}
