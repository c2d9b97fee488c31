//! The workloads and what each run of one reports.

pub mod bulk;
pub mod hpl_fleet;
pub mod paper_sim;
pub mod sim_scale;
pub mod smallop;

use crate::span::Span;

/// One invocation's knobs. `seed` drives payload bytes and HPL matrix
/// seeds only; `seconds` is how long the timed loop runs.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: per-layer metrics and the span file instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Self-test scale: every workload at roughly 1/20 of its size, the
    /// paths exercised but nothing pinned to a committed full-size value.
    pub smoke: bool,
}

/// When a closed-loop stream stops issuing chunks: after a wall-clock
/// budget (the measured run) or after a fixed count (the traced run, so
/// the bare and the traced pass do the same work).
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    After(f64),
    Chunks(usize),
}

impl Stop {
    /// Is the chunk about to be issued the last one? The sender decides
    /// before issuing, so it can tell the receiver in the chunk itself.
    pub fn is_last(self, started: std::time::Instant, issued: usize) -> bool {
        match self {
            Stop::After(s) => started.elapsed().as_secs_f64() >= s,
            Stop::Chunks(n) => issued + 1 >= n,
        }
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Report {
    /// Operations issued, and how many of them produced a wrong result.
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few).
    pub failures: Vec<String>,
    /// Work units per second, one sample per timed chunk/repetition. The
    /// end-to-end `throughput` is their upper decile.
    pub throughput: Vec<f64>,
    /// One sample per set-up performed; `setup_s` is their lower decile.
    pub setup_s: Vec<f64>,
    /// Peak resident set in MiB, where the process-wide high-water mark
    /// at exit would include an artefact of the harness (see `hpl-fleet`);
    /// `None` = read `VmHWM` when the run ends.
    pub peak_rss_mb: Option<f64>,
    /// Per-layer values this workload measured (traced run). Per-layer
    /// metrics it does not list report 0: the layer was not exercised.
    pub layers: Vec<(&'static str, f64)>,
    /// The traced run's spans, one list per image.
    pub spans: Option<Vec<Vec<Span>>>,
}

impl Report {
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops.max(1);
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Count a side phase's operations and failures with this run's.
    pub fn count_in(&mut self, side: &Report) {
        self.attempted += side.attempted;
        self.failed += side.failed;
        self.failures.extend(side.failures.iter().cloned());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// Every workload, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 6] = [
    "hpl-fleet",
    "smallop-wire",
    "smallop-shm",
    "bulk-wire",
    "paper-sim",
    "sim-scale",
];

pub fn run(name: &str, p: &Params) -> Option<Report> {
    use crate::fleet::Tier;
    Some(match name {
        "hpl-fleet" => hpl_fleet::run(p),
        "smallop-wire" => smallop::run(smallop::Path::Direct(Tier::Wire), p),
        "smallop-shm" => smallop::run(smallop::Path::Direct(Tier::Shm), p),
        "bulk-wire" => bulk::run(Tier::Wire, p),
        "paper-sim" => paper_sim::run(p),
        "sim-scale" => sim_scale::run(p),
        _ => return None,
    })
}

/// Fold a traced phase into the report: self time per span kind, the
/// call count, and what tracing cost (`plain` and `traced` are the same
/// work's rates without and with the `SpanFabric`). By construction the
/// self times add up to the top-level spans' wall time; a gap means the
/// span bookkeeping broke, and fails the run.
pub fn span_layers(r: &mut Report, spans: &[Vec<Span>], plain: &[f64], traced: &[f64]) {
    use crate::span::{self_times, Kind};
    let t = self_times(spans);
    r.layer("span.app_self_s", t.of(Kind::App));
    r.layer("span.collectives_self_s", t.of(Kind::Collective));
    r.layer("span.fabric_put_s", t.of(Kind::Put));
    r.layer("span.fabric_putnb_s", t.of(Kind::PutNb));
    r.layer("span.fabric_get_s", t.of(Kind::Get));
    r.layer("span.fabric_flag_add_s", t.of(Kind::FlagAdd));
    r.layer("span.fabric_flag_wait_s", t.of(Kind::FlagWait));
    r.layer("span.fabric_quiet_s", t.of(Kind::Quiet));
    r.layer("span.fabric_am_deliver_s", t.of(Kind::AmDeliver));
    r.layer("span.fabric_other_s", t.of(Kind::Other));
    r.layer("span.top_level_s", t.top_level_s);
    r.layer("span.calls_total", t.calls as f64);
    if !plain.is_empty() && !traced.is_empty() {
        let overhead = 1.0 - crate::stats::median(traced) / crate::stats::median(plain);
        r.layer("trace_overhead_pct", 100.0 * overhead);
    }
    if t.top_level_s > 0.0 && (t.total_self_s() - t.top_level_s).abs() > 0.1 * t.top_level_s {
        r.fail(
            1,
            format!(
                "span self times sum to {:.6} s but the top-level spans cover {:.6} s",
                t.total_self_s(),
                t.top_level_s
            ),
        );
    }
}
