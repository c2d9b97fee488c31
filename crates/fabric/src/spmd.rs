//! The image-thread harness: one OS thread per image, a panic turned into
//! poison where it happens, every thread joined, the first failure
//! re-raised with its image number. Every launcher in the workspace —
//! [`run_spmd`] here, `caf-runtime`'s `run*` family, the in-process socket
//! fleets of [`crate::socket::testing`] — is a thin front over
//! [`run_images`].

use crate::Fabric;
use caf_topology::ProcId;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Stack of every image thread (HPL panels and deep collective call
/// chains live on it).
const IMAGE_STACK_BYTES: usize = 4 * 1024 * 1024;

/// The text of a caught panic payload — the workspace's one place that
/// knows a payload is a `String` or a `&str`.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run `body(p)` on one thread per image of `images` and join them all.
///
/// Images are numbered `p.index() + base` in thread names (`image-N`) and
/// messages: 0 for fabric-level callers, 1 for Fortran numbering. A body
/// that panics calls `poison("image N panicked")` **from its own thread,
/// before unwinding further** — so siblings blocked on that image fail at
/// once instead of waiting out a timeout — unless `excused(p)` says the
/// fabric already retired the image, whose unwinding is then the expected
/// path and neither poisons nor counts as a failure.
///
/// Returns `(image, result)` for every image whose body returned, in
/// `images` order, or — when any non-excused image panicked —
/// `Err("image N panicked: <message>")` for the one that panicked
/// **first**; siblings that then die of the poison do not displace it.
pub fn run_images<R, B>(
    images: &[ProcId],
    base: usize,
    poison: impl Fn(&str) + Sync,
    excused: impl Fn(ProcId) -> bool + Sync,
    body: B,
) -> Result<Vec<(ProcId, R)>, String>
where
    R: Send,
    B: Fn(ProcId) -> R + Sync,
{
    let first_panic = parking_lot::Mutex::new(None);
    let run_one = |p: ProcId, n: usize| {
        let payload = match catch_unwind(AssertUnwindSafe(|| body(p))) {
            Ok(out) => return Some((p, out)),
            Err(payload) => payload,
        };
        if !excused(p) {
            let msg = panic_message(payload.as_ref());
            first_panic
                .lock()
                .get_or_insert_with(|| format!("image {n} panicked: {msg}"));
            // Fail the whole team loudly instead of hanging peers.
            poison(&format!("image {n} panicked"));
        }
        None
    };
    let finished: Vec<(ProcId, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = images
            .iter()
            .map(|&p| {
                let n = p.index() + base;
                std::thread::Builder::new()
                    .name(format!("image-{n}"))
                    .stack_size(IMAGE_STACK_BYTES)
                    .spawn_scoped(scope, move || run_one(p, n))
                    .unwrap_or_else(|e| {
                        // The images already running would wait for this
                        // one until their timeouts; the scope joins them.
                        poison(&format!("image {n} could not be spawned"));
                        panic!("spawn image thread {n}: {e}")
                    })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("image threads catch their own panics"))
            .collect()
    });
    match first_panic.into_inner() {
        Some(msg) => Err(msg),
        None => Ok(finished),
    }
}

/// Spawn one OS thread per image of `fabric` and run `body(me)` on each.
///
/// Panics in any image are re-raised here (after all threads have been
/// joined) with the image number attached, so a failing collective test
/// reports *which* image misbehaved rather than hanging.
pub fn run_spmd<F, B>(fabric: Arc<F>, body: B)
where
    F: Fabric + ?Sized,
    B: Fn(ProcId) + Send + Sync + 'static,
{
    let all: Vec<ProcId> = (0..fabric.n_images()).map(ProcId).collect();
    if let Err(msg) = run_images(&all, 0, |why| fabric.poison(why), |_| false, body) {
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, SimFabric};
    use caf_topology::{presets, ImageMap, Placement};

    fn fabric(n: usize) -> Arc<SimFabric> {
        let map = ImageMap::new(presets::mini(1, n), n, &Placement::Packed);
        SimFabric::new(map, SimConfig::default())
    }

    #[test]
    fn runs_every_image_exactly_once() {
        let f = fabric(4);
        let counts = Arc::new(parking_lot::Mutex::new(vec![0u32; 4]));
        let c2 = counts.clone();
        let f2 = f.clone();
        run_spmd(f, move |me| {
            c2.lock()[me.index()] += 1;
            f2.image_done(me);
        });
        assert_eq!(*counts.lock(), vec![1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "image 2 panicked")]
    fn propagates_image_panics() {
        let f = fabric(3);
        let f2 = f.clone();
        run_spmd(f, move |me| {
            f2.image_done(me);
            if me == ProcId(2) {
                panic!("boom");
            }
        });
    }

    /// A stand-in fabric for the harness contract: `poison` raises a flag,
    /// a "blocked" image spins on it like a `flag_wait_ge` would.
    #[derive(Default)]
    struct Poison(std::sync::atomic::AtomicBool);

    impl Poison {
        fn raise(&self, _why: &str) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
        fn raised(&self) -> bool {
            self.0.load(std::sync::atomic::Ordering::SeqCst)
        }
        /// Block until poisoned, then die of it — or of the timeout a
        /// late poison would have cost.
        fn wait(&self) -> ! {
            let t0 = std::time::Instant::now();
            while !self.raised() {
                assert!(t0.elapsed().as_secs() < 20, "wait timed out");
                std::thread::yield_now();
            }
            panic!("fabric poisoned");
        }
    }

    #[test]
    fn results_come_back_in_list_order_for_a_hosted_subset() {
        let hosted = [ProcId(5), ProcId(2), ProcId(9)];
        let names = run_images(
            &hosted,
            1,
            |_| unreachable!(),
            |_| false,
            |p| (p.index(), std::thread::current().name().map(str::to_owned)),
        )
        .expect("no image panicked");
        let name = |n: &str| Some(n.to_string());
        assert_eq!(
            names,
            vec![
                (ProcId(5), (5, name("image-6"))),
                (ProcId(2), (2, name("image-3"))),
                (ProcId(9), (9, name("image-10"))),
            ]
        );
    }

    #[test]
    fn an_excused_panic_neither_poisons_nor_is_reraised() {
        let poison = Poison::default();
        let images: Vec<ProcId> = (0..3).map(ProcId).collect();
        let out = run_images(
            &images,
            0,
            |why| poison.raise(why),
            |p| p == ProcId(1),
            |p| {
                if p == ProcId(1) {
                    panic!("retired by the fabric");
                }
                p.index() * 10
            },
        );
        assert_eq!(out, Ok(vec![(ProcId(0), 0), (ProcId(2), 20)]));
        assert!(!poison.raised());
    }

    #[test]
    fn a_panic_poisons_at_once_and_the_first_message_survives() {
        // Images 0 and 1 block on image 2, which panics: they must come
        // back by its poison (not their timeout), and although both die
        // of it — and are joined before image 2 — the report is image 2's.
        let poison = Poison::default();
        let images: Vec<ProcId> = (0..3).map(ProcId).collect();
        let t0 = std::time::Instant::now();
        let out: Result<Vec<(ProcId, ())>, String> = run_images(
            &images,
            1,
            |why| poison.raise(why),
            |_| false,
            |p| {
                if p == ProcId(2) {
                    panic!("the real cause");
                }
                poison.wait()
            },
        );
        assert_eq!(out, Err("image 3 panicked: the real cause".to_string()));
        assert!(t0.elapsed().as_secs() < 10, "siblings waited for a timeout");
    }

    #[test]
    fn panic_message_reads_both_string_kinds() {
        let owned = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        let literal = catch_unwind(|| panic!("literal")).unwrap_err();
        let other = catch_unwind(|| std::panic::panic_any(7u8)).unwrap_err();
        assert_eq!(panic_message(owned.as_ref()), "formatted 7");
        assert_eq!(panic_message(literal.as_ref()), "literal");
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }
}
