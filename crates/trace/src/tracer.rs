//! The recording handle threaded through fabrics, collectives, and the
//! runtime.
//!
//! An *enabled* tracer holds one [`EventRing`] per image plus a system
//! ring for simulator-side records. The default tracer is
//! [`Tracer::off`]: it records nothing, and an instrumentation site pays
//! one `Option` check for it. A run records exactly where something
//! installed an enabled tracer ([`Tracer::for_images`]).

use crate::event::{Event, SYSTEM_IMG};
use crate::ring::EventRing;
use std::sync::Arc;

/// Default per-image ring capacity (events retained per image).
const DEFAULT_RING_CAPACITY: usize = 1 << 14;

struct Shared {
    /// One ring per image, plus the system ring at index `n_images`.
    rings: Vec<EventRing>,
}

/// Cloneable recording handle; clones share the same rings.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Shared>>,
}

impl Tracer {
    /// The inert tracer: records nothing, returns nothing.
    pub const fn off() -> Self {
        Self { inner: None }
    }

    /// An enabled tracer with default ring capacity.
    pub fn for_images(n_images: usize) -> Self {
        Self::with_capacity(n_images, DEFAULT_RING_CAPACITY)
    }

    /// An enabled tracer retaining `capacity` events per image.
    pub fn with_capacity(n_images: usize, capacity: usize) -> Self {
        let rings = (0..=n_images).map(|_| EventRing::new(capacity)).collect();
        Self {
            inner: Some(Arc::new(Shared { rings })),
        }
    }

    /// Whether records are being kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record an event on image `img`'s ring. Must be called from the
    /// single thread driving that image (or while it is blocked).
    #[inline]
    pub fn record(&self, img: usize, mut ev: Event) {
        if let Some(s) = &self.inner {
            ev.img = img as u32;
            s.rings[img].push(&ev);
        }
    }

    /// Record a simulator-side event (delivery instants etc.) on the
    /// system ring. Callers serialize via the simulator core lock.
    #[inline]
    pub fn record_system(&self, mut ev: Event) {
        if let Some(s) = &self.inner {
            ev.img = SYSTEM_IMG;
            let n = s.rings.len() - 1;
            s.rings[n].push(&ev);
        }
    }

    /// Images this tracer was sized for.
    pub fn n_images(&self) -> usize {
        self.inner.as_ref().map_or(0, |s| s.rings.len() - 1)
    }

    /// All retained events from every ring, sorted by start time
    /// (stable, so same-time events keep per-image order).
    pub fn events(&self) -> Vec<Event> {
        let Some(s) = &self.inner else {
            return Vec::new();
        };
        let mut out: Vec<Event> = s.rings.iter().flat_map(|r| r.snapshot()).collect();
        out.sort_by_key(|e| e.t_ns);
        out
    }

    /// Retained events of one image, oldest first.
    pub fn events_of(&self, img: usize) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |s| s.rings[img].snapshot())
    }

    /// The last `n` events of one image, oldest first.
    pub fn last_events(&self, img: usize, n: usize) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |s| s.rings[img].last(n))
    }

    /// Total events ever recorded across all rings (including any
    /// that have been overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |s| s.rings.iter().map(|r| r.total()).sum())
    }

    /// Render the last `per_image` retained events of every image as an
    /// indented multi-line block — the "recent window" that failure
    /// reports (deadlock diagnostics, `caf-check` mismatch reports) embed
    /// so a failing schedule can be read without re-running under a
    /// debugger. Says how to install a tracer when no records are being
    /// kept.
    pub fn render_recent(&self, per_image: usize) -> String {
        if !self.enabled() {
            return "  (install a tracer — `Tracer::for_images` — \
                    for per-image operation history)\n"
                .to_string();
        }
        let mut out = String::new();
        for img in 0..self.n_images() {
            let evs = self.last_events(img, per_image);
            if evs.is_empty() {
                continue;
            }
            out.push_str(&format!("  image {img} recent events:\n"));
            for ev in evs {
                out.push_str(&format!("    {}\n", ev.render()));
            }
        }
        out
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.enabled() {
            write!(f, "Tracer(on, {} images)", self.n_images())
        } else {
            f.write_str("Tracer(off)")
        }
    }
}

static OFF_TRACER: Tracer = Tracer::off();

/// A `'static` inert tracer, for default trait implementations.
pub fn off_ref() -> &'static Tracer {
    &OFF_TRACER
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn off_tracer_is_inert() {
        let t = Tracer::off();
        assert!(!t.enabled());
        t.record(0, Event::instant(EventKind::Put, 1));
        t.record_system(Event::instant(EventKind::FlagDeliver, 2));
        assert!(t.events().is_empty());
        assert_eq!(t.total_recorded(), 0);
    }

    #[test]
    fn enabled_tracer_collects_and_sorts() {
        let t = Tracer::for_images(2);
        assert!(t.enabled());
        assert_eq!(t.n_images(), 2);
        t.record(1, Event::instant(EventKind::FlagAdd, 30).a(0));
        t.record(0, Event::instant(EventKind::FlagAdd, 10).a(1));
        t.record_system(Event::instant(EventKind::FlagDeliver, 20));
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs.iter().map(|e| e.t_ns).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(evs[0].img, 0);
        assert_eq!(evs[1].img, crate::event::SYSTEM_IMG);
        assert_eq!(t.events_of(1).len(), 1);
        assert_eq!(t.last_events(0, 5).len(), 1);
        assert_eq!(t.total_recorded(), 3);
    }

    #[test]
    fn clones_share_rings() {
        let t = Tracer::for_images(1);
        let t2 = t.clone();
        t2.record(0, Event::instant(EventKind::Quiet, 5));
        assert_eq!(t.events().len(), 1);
    }
}
