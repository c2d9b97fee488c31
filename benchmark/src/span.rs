//! The traced run's instrument: a [`Fabric`] that wraps the real one,
//! delegates every call, and records an in-memory span around each.
//!
//! Nothing in runtime/collectives/hpl downcasts the fabric and the trait
//! is object-safe, so the whole stack runs on a [`SpanFabric`] unchanged.
//! The benchmark's own programs open the parent spans (a stream chunk, a
//! factorization, a collective they call directly) through
//! [`SpanLog::open`]; fabric calls made inside become their children.
//! Spans live in memory until the run ends; a layer's self time is its
//! span's duration minus the part its children cover.

use caf_fabric::{
    AmOp, ArcFabric, Fabric, FabricStats, FlagId, NodeTelemetry, PutToken, RecoveryError,
    SegmentId, TelemetryPhase, Tracer,
};
use caf_topology::{CostParams, ImageMap, ProcId, SoftwareOverheads};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// What a span covers. `App` and `Collective` are opened by the
/// benchmark's programs; the rest are single [`Fabric`] calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    App,
    Collective,
    Put,
    PutNb,
    Get,
    FlagAdd,
    FlagWait,
    Quiet,
    AmDeliver,
    /// AMOs, allocation, flag reads, put tests: calls no workload leans on.
    Other,
}

impl Kind {
    pub const ALL: [Kind; 10] = [
        Kind::App,
        Kind::Collective,
        Kind::Put,
        Kind::PutNb,
        Kind::Get,
        Kind::FlagAdd,
        Kind::FlagWait,
        Kind::Quiet,
        Kind::AmDeliver,
        Kind::Other,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kind::App => "app",
            Kind::Collective => "collective",
            Kind::Put => "fabric.put",
            Kind::PutNb => "fabric.put_nb",
            Kind::Get => "fabric.get",
            Kind::FlagAdd => "fabric.flag_add",
            Kind::FlagWait => "fabric.flag_wait",
            Kind::Quiet => "fabric.quiet",
            Kind::AmDeliver => "fabric.am_deliver",
            Kind::Other => "fabric.other",
        }
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the log's epoch;
/// `parent` indexes the same image's span list; spans of one top-level
/// operation share `op`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct ImageLog {
    spans: Vec<Span>,
    /// Indices of the image's currently open spans, innermost last.
    open: Vec<u32>,
}

/// All spans of one traced run, one list per image (each image is one OS
/// thread, so its lock is uncontended).
pub struct SpanLog {
    epoch: Instant,
    images: Vec<Mutex<ImageLog>>,
    next_op: AtomicU64,
}

impl SpanLog {
    pub fn new(n_images: usize) -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            images: (0..n_images).map(|_| Mutex::default()).collect(),
            next_op: AtomicU64::new(1),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn image(&self, me: ProcId) -> std::sync::MutexGuard<'_, ImageLog> {
        self.images[me.index()]
            .lock()
            .expect("an image thread panicked while recording a span")
    }

    /// Where a new span of this image goes: under the innermost open span
    /// and in its operation, or at the top with a fresh operation id.
    fn place(&self, log: &ImageLog) -> (u32, u64) {
        match log.open.last() {
            Some(&p) => (p, log.spans[p as usize].op),
            None => (NO_PARENT, self.next_op.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Open a parent span on image `me`; it closes when the guard drops.
    /// A span opened with nothing else open starts a new operation id.
    pub fn open(self: &Arc<Self>, me: ProcId, kind: Kind) -> SpanGuard {
        let start_ns = self.now_ns();
        let mut log = self.image(me);
        let (parent, op) = self.place(&log);
        let idx = log.spans.len() as u32;
        log.spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        log.open.push(idx);
        SpanGuard {
            log: Arc::clone(self),
            me,
            idx,
        }
    }

    /// Record a completed leaf span (one fabric call) under whatever the
    /// image has open.
    fn leaf(&self, me: ProcId, kind: Kind, start_ns: u64) {
        let end_ns = self.now_ns();
        let mut log = self.image(me);
        let (parent, op) = self.place(&log);
        log.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            parent,
            op,
        });
    }

    /// Every image's spans, in image order.
    pub fn snapshot(&self) -> Vec<Vec<Span>> {
        self.images
            .iter()
            .map(|m| m.lock().expect("span log poisoned").spans.clone())
            .collect()
    }
}

/// Closes its span on drop.
pub struct SpanGuard {
    log: Arc<SpanLog>,
    me: ProcId,
    idx: u32,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.log.now_ns();
        // Never panic in drop: a poisoned lock means the run already failed.
        if let Ok(mut log) = self.log.images[self.me.index()].lock() {
            log.spans[self.idx as usize].end_ns = end_ns;
            if let Some(pos) = log.open.iter().rposition(|&i| i == self.idx) {
                log.open.truncate(pos);
            }
        }
    }
}

/// Self time per kind plus the wall time of the top-level spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelfTimes {
    /// Seconds of self time, indexed like [`Kind::ALL`].
    pub self_s: [f64; Kind::ALL.len()],
    /// Summed duration of the spans that have no parent.
    pub top_level_s: f64,
    pub calls: u64,
}

impl SelfTimes {
    pub fn of(&self, kind: Kind) -> f64 {
        self.self_s[Kind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind listed")]
    }

    pub fn total_self_s(&self) -> f64 {
        self.self_s.iter().sum()
    }
}

/// Self time = duration − time covered by direct children. One image's
/// spans never overlap except by nesting, so the children's durations
/// simply add up.
pub fn self_times(images: &[Vec<Span>]) -> SelfTimes {
    let mut out = SelfTimes::default();
    for spans in images {
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.dur_ns();
            }
        }
        for (s, child_ns) in spans.iter().zip(&covered) {
            let k = Kind::ALL
                .iter()
                .position(|k| *k == s.kind)
                .expect("kind listed");
            out.self_s[k] += s.dur_ns().saturating_sub(*child_ns) as f64 / 1e9;
            if s.parent == NO_PARENT {
                out.top_level_s += s.dur_ns() as f64 / 1e9;
            }
            out.calls += 1;
        }
    }
    out
}

/// The span file: totals per kind, then at most `max_spans` raw spans per
/// image (a shm stream records millions; the head of the run is enough to
/// read the nesting, and the totals cover all of them).
pub fn trace_json(workload: &str, images: &[Vec<Span>], max_spans: usize) -> Json {
    let totals = self_times(images);
    let per_kind = Kind::ALL
        .iter()
        .map(|k| {
            let n = images.iter().flatten().filter(|s| s.kind == *k).count();
            Json::obj(vec![
                ("name", Json::str(k.label())),
                ("calls", Json::Num(n as f64)),
                ("self_s", Json::Num(totals.of(*k))),
            ])
        })
        .collect();
    let image_spans = images
        .iter()
        .enumerate()
        .map(|(img, spans)| {
            Json::obj(vec![
                ("image", Json::Num(img as f64)),
                ("recorded", Json::Num(spans.len() as f64)),
                (
                    "spans",
                    Json::Arr(
                        spans
                            .iter()
                            .take(max_spans)
                            .map(|s| {
                                Json::obj(vec![
                                    ("name", Json::str(s.kind.label())),
                                    ("start_ns", Json::Num(s.start_ns as f64)),
                                    ("end_ns", Json::Num(s.end_ns as f64)),
                                    (
                                        "parent",
                                        if s.parent == NO_PARENT {
                                            Json::Null
                                        } else {
                                            Json::Num(f64::from(s.parent))
                                        },
                                    ),
                                    ("op", Json::Num(s.op as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("top_level_s", Json::Num(totals.top_level_s)),
        ("self_total_s", Json::Num(totals.total_self_s())),
        ("calls_total", Json::Num(totals.calls as f64)),
        ("per_kind", Json::Arr(per_kind)),
        ("images", Json::Arr(image_spans)),
    ])
}

/// A [`Fabric`] that records a span around every call into the fabric it
/// wraps. Accessors and the no-op `compute` pass straight through.
pub struct SpanFabric {
    inner: ArcFabric,
    log: Arc<SpanLog>,
}

impl SpanFabric {
    pub fn wrap(inner: ArcFabric, log: Arc<SpanLog>) -> ArcFabric {
        Arc::new(SpanFabric { inner, log })
    }

    fn timed<R>(&self, me: ProcId, kind: Kind, call: impl FnOnce(&dyn Fabric) -> R) -> R {
        let start = self.log.now_ns();
        let out = call(&*self.inner);
        self.log.leaf(me, kind, start);
        out
    }
}

impl Fabric for SpanFabric {
    fn n_images(&self) -> usize {
        self.inner.n_images()
    }
    fn image_map(&self) -> &ImageMap {
        self.inner.image_map()
    }
    fn cost(&self) -> &CostParams {
        self.inner.cost()
    }
    fn overheads(&self) -> &SoftwareOverheads {
        self.inner.overheads()
    }
    fn stats(&self) -> &FabricStats {
        self.inner.stats()
    }
    fn tracer(&self) -> &Tracer {
        self.inner.tracer()
    }
    fn process_telemetry(
        &self,
        phase: TelemetryPhase,
        cause: Option<&str>,
    ) -> Option<NodeTelemetry> {
        self.inner.process_telemetry(phase, cause)
    }
    fn alloc_segment(&self, me: ProcId, bytes: usize) -> SegmentId {
        self.timed(me, Kind::Other, |f| f.alloc_segment(me, bytes))
    }
    fn alloc_flags(&self, me: ProcId, count: usize) -> FlagId {
        self.timed(me, Kind::Other, |f| f.alloc_flags(me, count))
    }
    fn put(&self, me: ProcId, dst: ProcId, seg: SegmentId, offset: usize, bytes: &[u8]) {
        self.timed(me, Kind::Put, |f| f.put(me, dst, seg, offset, bytes))
    }
    fn put_nb(
        &self,
        me: ProcId,
        dst: ProcId,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
    ) -> PutToken {
        self.timed(me, Kind::PutNb, |f| f.put_nb(me, dst, seg, offset, bytes))
    }
    fn put_test(&self, me: ProcId, token: PutToken) -> bool {
        self.timed(me, Kind::Other, |f| f.put_test(me, token))
    }
    fn put_wait(&self, me: ProcId, token: PutToken) {
        self.timed(me, Kind::Quiet, |f| f.put_wait(me, token))
    }
    fn get(&self, me: ProcId, src: ProcId, seg: SegmentId, offset: usize, out: &mut [u8]) {
        self.timed(me, Kind::Get, |f| f.get(me, src, seg, offset, out))
    }
    fn amo_fetch_add_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        delta: u64,
    ) -> u64 {
        self.timed(me, Kind::Other, |f| {
            f.amo_fetch_add_u64(me, target, seg, offset, delta)
        })
    }
    fn amo_cas_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        expected: u64,
        new: u64,
    ) -> u64 {
        self.timed(me, Kind::Other, |f| {
            f.amo_cas_u64(me, target, seg, offset, expected, new)
        })
    }
    fn flag_add(&self, me: ProcId, target: ProcId, flag: FlagId, delta: u64) {
        self.timed(me, Kind::FlagAdd, |f| f.flag_add(me, target, flag, delta))
    }
    fn flag_wait_ge(&self, me: ProcId, flag: FlagId, at_least: u64) {
        self.timed(me, Kind::FlagWait, |f| f.flag_wait_ge(me, flag, at_least))
    }
    fn flag_read(&self, me: ProcId, flag: FlagId) -> u64 {
        self.timed(me, Kind::Other, |f| f.flag_read(me, flag))
    }
    fn am_deliver(&self, me: ProcId, dst: ProcId, ops: &[AmOp]) {
        self.timed(me, Kind::AmDeliver, |f| f.am_deliver(me, dst, ops))
    }
    fn quiet(&self, me: ProcId) {
        self.timed(me, Kind::Quiet, |f| f.quiet(me))
    }
    fn compute(&self, me: ProcId, ns: u64) {
        self.inner.compute(me, ns)
    }
    fn now_ns(&self, me: ProcId) -> u64 {
        self.inner.now_ns(me)
    }
    fn image_done(&self, me: ProcId) {
        self.inner.image_done(me)
    }
    fn poison(&self, msg: &str) {
        self.inner.poison(msg)
    }
    fn health(&self) -> Result<(), RecoveryError> {
        self.inner.health()
    }
    fn alive_images(&self) -> Vec<ProcId> {
        self.inner.alive_images()
    }
    fn generation(&self) -> u64 {
        self.inner.generation()
    }
    fn heal(&self, me: ProcId) -> Result<(), RecoveryError> {
        self.inner.heal(me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_fabric::{bootstrap, ThreadConfig, ThreadFabric};
    use caf_topology::{presets, Placement};

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // app [0,1000] holds collective [100,600] (which holds a 200 ns
        // put and a 100 ns wait) and a 150 ns quiet; a second image has
        // one bare 50 ns flag_add with no parent.
        let img0 = vec![
            span(Kind::App, 0, 1000, NO_PARENT),
            span(Kind::Collective, 100, 600, 0),
            span(Kind::Put, 150, 350, 1),
            span(Kind::FlagWait, 400, 500, 1),
            span(Kind::Quiet, 700, 850, 0),
        ];
        let img1 = vec![span(Kind::FlagAdd, 10, 60, NO_PARENT)];
        let t = self_times(&[img0, img1]);
        let ns = |k| (t.of(k) * 1e9).round() as u64;
        assert_eq!(ns(Kind::App), 1000 - 500 - 150);
        assert_eq!(ns(Kind::Collective), 500 - 200 - 100);
        assert_eq!(ns(Kind::Put), 200);
        assert_eq!(ns(Kind::FlagWait), 100);
        assert_eq!(ns(Kind::Quiet), 150);
        assert_eq!(ns(Kind::FlagAdd), 50);
        assert_eq!(t.calls, 6);
        // Self times always add up to the top-level spans' wall time.
        assert_eq!((t.top_level_s * 1e9).round() as u64, 1050);
        assert!((t.total_self_s() - t.top_level_s).abs() < 1e-12);
    }

    #[test]
    fn span_fabric_delegates_and_nests_under_open_spans() {
        let map = ImageMap::new(presets::mini(1, 2), 2, &Placement::Packed);
        let inner: ArcFabric = ThreadFabric::new(map, ThreadConfig::default());
        let log = SpanLog::new(2);
        let f = SpanFabric::wrap(inner, Arc::clone(&log));
        let me = ProcId(0);
        {
            let _chunk = log.open(me, Kind::App);
            f.put(me, ProcId(1), bootstrap::SEG, 0, &7u64.to_ne_bytes());
            f.flag_add(me, ProcId(1), FlagId(2), 1);
            f.quiet(me);
        }
        f.flag_wait_ge(ProcId(1), FlagId(2), 1);
        let mut out = [0u8; 8];
        f.get(ProcId(1), ProcId(1), bootstrap::SEG, 0, &mut out);
        assert_eq!(u64::from_ne_bytes(out), 7, "calls reach the wrapped fabric");

        let spans = log.snapshot();
        let kinds: Vec<Kind> = spans[0].iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [Kind::App, Kind::Put, Kind::FlagAdd, Kind::Quiet]);
        assert!(spans[0][1..].iter().all(|s| s.parent == 0));
        assert!(spans[0].iter().all(|s| s.op == spans[0][0].op));
        assert!(spans[0][0].end_ns >= spans[0][3].end_ns);
        // Image 1's calls had nothing open: each is its own operation.
        assert!(spans[1].iter().all(|s| s.parent == NO_PARENT));
        assert_ne!(spans[1][0].op, spans[1][1].op);
        let t = self_times(&spans);
        assert!((t.total_self_s() - t.top_level_s).abs() < 1e-9);
    }

    #[test]
    fn trace_json_caps_raw_spans_but_totals_cover_all() {
        let spans = vec![(0..10)
            .map(|i| span(Kind::PutNb, i * 10, i * 10 + 5, NO_PARENT))
            .collect::<Vec<_>>()];
        let j = trace_json("t", &spans, 3);
        assert_eq!(j.get("calls_total").and_then(Json::as_f64), Some(10.0));
        let img = &j.get("images").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(img.get("recorded").and_then(Json::as_f64), Some(10.0));
        assert_eq!(img.get("spans").and_then(Json::as_arr).unwrap().len(), 3);
    }
}
