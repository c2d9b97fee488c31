//! `caf-benchmark`: the repo's end-to-end benchmark.
//!
//! ```text
//! caf-benchmark --workload W --seed N --seconds S --trace 0|1 [--out F]
//! caf-benchmark [--seed N] [--seconds S] [--trace] [--out F] [--repeat R]   # every workload
//! caf-benchmark compare A.json B.json
//! caf-benchmark --smoke
//! ```
//!
//! With `--workload` it runs that one workload in this process and prints,
//! as the last line of standard output, the JSON object the driver reads
//! (see BENCHMARK.json and README.md). Without, it runs every workload as
//! a child process under a hard timeout and writes a results file.

mod compare;
mod fleet;
mod host;
mod json;
mod metrics;
mod probes;
mod span;
mod stats;
mod steps;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Params, Report};

/// Everything a run leaves on disk goes here, inside the checkout.
const OUT_DIR: &str = "benchmark/out";
/// A single workload must finish well inside the driver's 180 s.
const WORKLOAD_TIMEOUT: Duration = Duration::from_secs(170);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    /// Runs per workload in a set (seeds `seed`, `seed + 1`, ...).
    repeat: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: caf-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out F] [--repeat R]\n\
         \x20      caf-benchmark compare A.json B.json\n\
         \x20      caf-benchmark --smoke\n\
         workloads: {}",
        workloads::NAMES.join(" ")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        smoke: false,
        repeat: 1,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => a.workload = Some(value(&mut i)),
            "--seed" => a.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = value(&mut i).parse().unwrap_or_else(|_| usage());
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    usage();
                }
            }
            "--trace" => {
                // `--trace 0|1` (the driver) or a bare `--trace`.
                a.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--out" => a.out = Some(PathBuf::from(value(&mut i))),
            "--smoke" => a.smoke = true,
            "--repeat" => a.repeat = value(&mut i).parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        i += 1;
    }
    a
}

/// Keep every file the fabrics create inside the checkout: UDS socket
/// files go to `std::env::temp_dir()`, shm segments to `CAF_SHM_DIR`.
/// Relative paths keep the socket paths under the 108-byte `sun_path`
/// limit wherever the checkout lives. Each process tags its segments, so
/// litter can be told apart and is a failure. Must run before any thread
/// exists (it edits the environment).
fn confine_to_checkout() -> String {
    let tag = format!("bench-{}", std::process::id());
    let tmp = format!("{OUT_DIR}/tmp");
    let shm = format!("{OUT_DIR}/shm");
    for dir in [&tmp, &shm] {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
    }
    std::env::set_var("TMPDIR", &tmp);
    std::env::set_var("CAF_SHM_FLEET", &tag);
    std::env::set_var("CAF_SHM_DIR", &shm);
    // A filesystem that cannot back a shared mapping would silently turn
    // the shm tier off; fall back to the fabric's default (/dev/shm).
    if let Err(e) = caf_fabric::socket::shm::NodeShm::create(9, 0, 1, 1 << 16) {
        eprintln!(
            "caf-benchmark: {shm} cannot hold shared segments ({e}); using the default directory"
        );
        std::env::remove_var("CAF_SHM_DIR");
    }
    tag
}

/// A poisoned fabric or a lost wake-up must end as a failed run, not a
/// hang: past the deadline the process reports and exits.
fn arm_watchdog(workload: String) {
    std::thread::spawn(move || {
        std::thread::sleep(WORKLOAD_TIMEOUT);
        eprintln!(
            "caf-benchmark: workload {workload} exceeded {} s; giving up",
            WORKLOAD_TIMEOUT.as_secs()
        );
        std::process::exit(3);
    });
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// One workload, in this process. Returns the process exit code.
fn run_single(name: &str, args: &Args) -> ExitCode {
    if !workloads::NAMES.contains(&name) {
        eprintln!("caf-benchmark: unknown workload {name:?}");
        usage();
    }
    let tag = confine_to_checkout();
    // One CPU for the workload, the rest of the machine for everything
    // else: see README.md, "What repeats and what does not".
    match host::pin_to_one_cpu() {
        Some(cpu) => println!("confined to CPU {cpu}"),
        None => eprintln!("caf-benchmark: could not confine the run to one CPU"),
    }
    arm_watchdog(name.to_string());
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let t0 = Instant::now();
    let probes = if p.trace && !p.smoke {
        probes::run_all()
    } else {
        Vec::new()
    };
    let mut r: Report = workloads::run(name, &p).expect("name was checked");
    // Segment files carry this process's tag; any still there is litter
    // (counted, then swept).
    let litter = caf_fabric::socket::shm::sweep_fleet(&tag);
    if litter > 0 {
        r.fail(
            1,
            format!("{litter} shared-memory segment file(s) were left behind"),
        );
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let mut fields: Vec<(String, Json)> = Vec::new();
    let mut detail: Vec<(&str, Json)> = Vec::new();
    if p.trace {
        r.layers.extend(probes);
        for m in PER_LAYER.iter() {
            let v = r
                .layers
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v);
            println!("{} {} {}", m.name, Json::Num(v).compact(), m.unit);
            fields.push((m.name.to_string(), metric_json(v, m.unit)));
        }
        for (n, _) in &r.layers {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *n),
                "{n} is not a declared per-layer metric"
            );
        }
        if let Some(spans) = &r.spans {
            let path = format!("{OUT_DIR}/trace-{name}.json");
            let text = span::trace_json(name, spans, 20_000).pretty();
            std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("spans written to {path}");
        }
    } else {
        if r.throughput.is_empty() || r.setup_s.is_empty() {
            r.fail(1, "the workload produced no samples");
            r.throughput.push(0.0);
            r.setup_s.push(0.0);
        }
        let throughput = stats::summarize(&r.throughput);
        let setup = stats::summarize(&r.setup_s);
        // Each metric's figure is the decile on its good side: what the
        // system does while the host leaves it alone. A shared host's slow
        // spells last seconds and fill any share of a run, so a run's
        // median follows the host; its good decile follows the code.
        let values = [
            stats::percentile(&r.throughput, 90.0),
            stats::percentile(&r.setup_s, 10.0),
            r.peak_rss_mb.unwrap_or_else(host::peak_rss_mb),
        ];
        for (m, v) in END_TO_END.iter().zip(values) {
            println!("{} {} {}", m.name, Json::Num(v).compact(), m.unit);
            fields.push((m.name.to_string(), metric_json(v, m.unit)));
        }
        for (label, s) in [("throughput", throughput), ("setup_s", setup)] {
            println!(
                "{label}: median {:e} q1 {:e} q3 {:e} over {} samples",
                s.median, s.q1, s.q3, s.n
            );
            // The tail that hurts: the slowest set-ups, the slowest chunks
            // (as seconds per work unit).
            let times: Vec<f64> = if label == "setup_s" {
                r.setup_s.clone()
            } else {
                r.throughput.iter().map(|x| 1.0 / x).collect()
            };
            if let Some((pct, v)) = stats::tail_percentile(&times) {
                println!(
                    "{label}: p{pct:.1} of the time per {} is {v:e} s (highest percentile with \
                     ten samples beyond it)",
                    if label == "setup_s" {
                        "set-up"
                    } else {
                        "work unit"
                    }
                );
            }
            detail.push((
                label,
                Json::obj(vec![
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("samples", Json::Num(s.n as f64)),
                ]),
            ));
        }
    }
    println!("ops_attempted {} count", r.attempted);
    println!("ops_failed {} count", r.failed);
    for why in &r.failures {
        println!("failure: {why}");
    }
    println!("wall_s {wall_s}");

    let correct = r.failed == 0 && r.attempted > 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::Obj(fields)),
    ]);
    if let Some(path) = &args.out {
        let mut file = vec![
            ("workload", Json::str(name)),
            ("trace", Json::Bool(p.trace)),
            ("wall_s", Json::Num(wall_s)),
            ("result", result.clone()),
            (
                "failures",
                Json::Arr(r.failures.iter().map(Json::str).collect()),
            ),
        ];
        file.extend(detail);
        write_file(path, &Json::obj(file));
    }
    println!("{}", result.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_file(path: &Path, json: &Json) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(path, json.pretty())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// Run one workload as a child of this binary, under a hard timeout.
/// Returns the child's `--out` file, or why there is none.
fn run_child(
    name: &str,
    args: &Args,
    seed: u64,
    trace: bool,
    seconds: f64,
) -> Result<Json, String> {
    let out = PathBuf::from(format!(
        "{OUT_DIR}/child-{name}-{}.json",
        if trace { "trace" } else { "e2e" }
    ));
    let _ = std::fs::remove_file(&out);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .stdout(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let deadline = Instant::now() + WORKLOAD_TIMEOUT + Duration::from_secs(5);
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{name} timed out and was killed"));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("{name} exited with {status} and left no result: {e}"))?;
    let _ = std::fs::remove_file(&out);
    Json::parse(&text)
}

/// Every workload, one child each; writes the results file.
fn run_set(args: &Args) -> ExitCode {
    let t0 = Instant::now();
    let seconds = if args.smoke { 0.4 } else { args.seconds };
    let mut rows = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        // `--repeat` untraced runs on consecutive seeds, then one traced.
        let mut plan: Vec<(u64, bool)> = (0..args.repeat).map(|i| (args.seed + i, false)).collect();
        if args.trace {
            plan.push((args.seed, true));
        }
        let (mut end_to_end, mut traced) = (Vec::new(), Json::Null);
        for (seed, trace) in plan {
            let key = if trace { "traced" } else { "end_to_end" };
            // A timeout or a crash is failed operations, not a hang.
            let file = run_child(name, args, seed, trace, seconds).unwrap_or_else(|why| {
                println!("{name:<14} {key:<10} FAILED: {why}");
                Json::obj(vec![
                    (
                        "result",
                        Json::obj(vec![
                            ("correct", Json::Bool(false)),
                            ("attempted", Json::Num(1.0)),
                            ("failed", Json::Num(1.0)),
                            ("metrics", Json::Obj(Vec::new())),
                        ]),
                    ),
                    ("failures", Json::Arr(vec![Json::str(why)])),
                ])
            });
            all_correct &= file
                .get("result")
                .and_then(|r| r.get("correct"))
                .and_then(Json::as_bool)
                .unwrap_or(false);
            print_row(name, key, &file);
            if trace {
                traced = file;
            } else {
                end_to_end.push(file);
            }
        }
        rows.push(Json::obj(vec![
            ("name", Json::str(name)),
            ("end_to_end", Json::Arr(end_to_end)),
            ("traced", traced),
        ]));
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("{OUT_DIR}/results.json")));
    let file = Json::obj(vec![
        ("benchmark", Json::str("caf-benchmark")),
        ("environment", host::environment(args.seed)),
        ("run_seconds", Json::Num(seconds)),
        ("wall_s", Json::Num(t0.elapsed().as_secs_f64())),
        ("workloads", Json::Arr(rows)),
    ]);
    write_file(&path, &file);
    println!(
        "results written to {} ({:.1} s)",
        path.display(),
        t0.elapsed().as_secs_f64()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_row(name: &str, key: &str, file: &Json) {
    let result = file.get("result");
    let num = |k: &str| {
        result
            .and_then(|r| r.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let wall = file.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
    let mut line = format!(
        "{name:<14} {key:<10} {:>9} ops {:>3} failed {wall:>6.1} s",
        num("attempted"),
        num("failed")
    );
    if key == "end_to_end" {
        for m in END_TO_END.iter() {
            let v = result
                .and_then(|r| r.get("metrics"))
                .and_then(|ms| ms.get(m.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            line.push_str(&format!("  {} {v:.4e} {}", m.name, m.unit));
        }
    }
    println!("{line}");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else { usage() };
        return compare::run(Path::new(a), Path::new(b));
    }
    let args = parse_args(&argv);
    match &args.workload {
        Some(name) => run_single(&name.clone(), &args),
        None => run_set(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line_and_the_bare_flag() {
        let a = parse_args(&argv("--workload bulk-wire --seed 7 --seconds 3 --trace 0"));
        assert_eq!(a.workload.as_deref(), Some("bulk-wire"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, false));
        assert!(parse_args(&argv("--trace 1 --seed 2")).trace);
        let bare = parse_args(&argv("--trace --seed 2"));
        assert!(bare.trace);
        assert_eq!(bare.seed, 2);
    }

    /// BENCHMARK.json (one level up; absent in a stripped checkout, where
    /// tests do not run) must list exactly the declared workloads and
    /// metrics.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            j.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), workloads::NAMES);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, decl) in j
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(decl.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(decl.better.label())
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(decl.bound));
        }
        for (m, decl) in j
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(decl.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(decl.better.label())
            );
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in PER_LAYER
            .iter()
            .map(|m| m.name)
            .chain(END_TO_END.iter().map(|m| m.name))
        {
            assert!(seen.insert(m), "{m} is declared twice");
            assert!(m.len() <= 64);
        }
    }
}
