//! `cargo xtask` — repo automation.
//!
//! `cargo xtask check [--quick|--deep] [--seeds N] [--socket|--socket-only]
//! [--shm-only]`
//!
//! builds and runs the `caf-check` differential harness (crates/check):
//! the conformance program across the fabric × algorithm × chaos-seed
//! matrix, plus the shared-memory column (real fleets with the zero-copy
//! shm tier on, diffed against the sim oracle and the pure-wire fleet —
//! part of every sweep, alone via `--shm-only`). `--quick` is the CI
//! sweep (a few hundred seeded runs, about a minute); `--deep` is the
//! scheduled/manual sweep; `--socket` adds the pure-wire backend column
//! (real multi-process `SocketFabric` fleets diffed against the sim
//! oracle) and `--socket-only` runs just that column. Any extra flags are
//! passed through to the `caf-check` binary, and `CAF_CHECK_SEED=<seed>`
//! replays a single reported seed.
//!
//! `cargo xtask bench-diff <baseline.json> <new.json> [--tolerance PCT]
//! [--wall-tolerance PCT]`
//!
//! compares two bench JSON files (`exp_c1_msgsize`'s
//! `BENCH_collectives.json`, `exp_s1_simscale`'s `BENCH_simscale.json`)
//! and fails (exit 1) when any matching `(op, bytes, algo)` entry
//! regressed by more than the tolerance (default 10%). The simulator is
//! deterministic, so on an unchanged runtime modeled-time rows diff to
//! exactly zero; any drift is a real change to the modeled data path.
//! Rows whose algo ends in `wall` measure host wall-clock (simulator
//! throughput) and are inherently noisy on shared CI runners:
//! `--wall-tolerance` applies a looser gate to just those rows.
//!
//! A file whose header records a `"kernel"` (EXP-K1's `BENCH_blas.json`:
//! the micro-kernel the host dispatched) times that kernel in its wall
//! rows. Against a baseline recorded on another kernel those rows are
//! shown but not gated, and the baseline's wall rows the run lacks (the
//! per-tile rows of a tile this CPU does not have) are listed, not failed;
//! every other row stays on its gate.
//!
//! Rows that exist only in the new file are listed as `new (ungated)`:
//! they pass, but the report says the baseline has to be regenerated
//! before they are gated. No external JSON crate: the files come from
//! `caf_bench::results` and are read with `caf_trace::json`.

use caf_trace::json;
use std::process::ExitCode;

#[derive(Debug, PartialEq)]
struct Entry {
    op: String,
    bytes: u64,
    algo: String,
    ns: f64,
}

/// A bench file's `"experiment"` name, its `"kernel"` if it records one,
/// and its result rows.
#[allow(clippy::type_complexity)]
fn parse_bench(path: &str) -> Result<(String, Option<String>, Vec<Entry>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let experiment = root
        .get("experiment")
        .and_then(json::Value::as_str)
        .ok_or_else(|| format!("{path}: no \"experiment\" string"))?
        .to_string();
    let kernel = root
        .get("kernel")
        .and_then(json::Value::as_str)
        .map(str::to_string);
    let results = root
        .get("results")
        .and_then(json::Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"results\" array"))?;
    let mut out = Vec::new();
    for (i, r) in results.iter().enumerate() {
        let text = |k: &str| {
            r.get(k)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}: results[{i}].{k} missing or not a string"))
        };
        let num = |k: &str| {
            r.get(k)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{path}: results[{i}].{k} missing or not a number"))
        };
        out.push(Entry {
            op: text("op")?,
            bytes: num("bytes")? as u64,
            algo: text("algo")?,
            ns: num("ns")?,
        });
    }
    Ok((experiment, kernel, out))
}

fn bench_diff(
    baseline: &str,
    new: &str,
    tolerance_pct: f64,
    wall_tolerance_pct: Option<f64>,
    markdown: bool,
) -> Result<(), String> {
    let (report, verdict) =
        bench_diff_report(baseline, new, tolerance_pct, wall_tolerance_pct, markdown)?;
    println!("{report}");
    verdict
}

/// The diff itself, rendering into a string so the markdown table can be
/// unit-tested and piped verbatim into `$GITHUB_STEP_SUMMARY`. The outer
/// `Result` is a parse/usage failure; the inner one is the regression
/// verdict (the report is printed either way).
#[allow(clippy::type_complexity)]
fn bench_diff_report(
    baseline: &str,
    new: &str,
    tolerance_pct: f64,
    wall_tolerance_pct: Option<f64>,
    markdown: bool,
) -> Result<(String, Result<(), String>), String> {
    use std::fmt::Write as _;
    let (_, base_kernel, base) = parse_bench(baseline)?;
    let (experiment, cur_kernel, cur) = parse_bench(new)?;
    let same = |a: &Entry, b: &Entry| a.op == b.op && a.bytes == b.bytes && a.algo == b.algo;
    // Wall rows time the kernel the host dispatched: against a baseline
    // recorded on another one they measure other code.
    let other_kernel = base_kernel != cur_kernel;
    let gated = |e: &Entry| !(other_kernel && e.algo.ends_with("wall"));
    let mut out = String::new();
    let mut compared = 0usize;
    let mut failures = Vec::new();
    if markdown {
        // GitHub-flavored table, made to be appended to a CI step summary
        // (`cargo xtask bench-diff a b --markdown >> "$GITHUB_STEP_SUMMARY"`).
        let _ = writeln!(out, "### Bench diff: {experiment}\n");
        let _ = writeln!(
            out,
            "| op | bytes | algo | baseline ns | new ns | Δ% | status |"
        );
        let _ = writeln!(out, "|---|---:|---|---:|---:|---:|---|");
    }
    for b in &base {
        let Some(c) = cur.iter().find(|c| same(c, b)) else {
            if gated(b) {
                failures.push(format!(
                    "missing in {new}: {} {} B {}",
                    b.op, b.bytes, b.algo
                ));
            } else if markdown {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {:.1} | – | – | ➖ not run (other kernel) |",
                    b.op, b.bytes, b.algo, b.ns
                );
            } else {
                let _ = writeln!(
                    out,
                    "{:>4}  {:<9} {:>8} B  {:<24} {:>14.1} -> {:>14} ns  (not run, other kernel)",
                    "skip", b.op, b.bytes, b.algo, b.ns, "-"
                );
            }
            continue;
        };
        compared += 1;
        let delta_pct = (c.ns - b.ns) / b.ns * 100.0;
        // Wall-clock rows (simulator throughput) get their own, typically
        // looser, gate; modeled-time rows stay on the strict one.
        let tol = if b.algo.ends_with("wall") {
            wall_tolerance_pct.unwrap_or(tolerance_pct)
        } else {
            tolerance_pct
        };
        let regressed = gated(b) && delta_pct > tol;
        if regressed {
            failures.push(format!(
                "REGRESSION {} {} B {}: {:.1} -> {:.1} ns ({:+.1}%)",
                b.op, b.bytes, b.algo, b.ns, c.ns, delta_pct
            ));
        }
        if markdown {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.1} | {:.1} | {:+.2}% | {} |",
                b.op,
                b.bytes,
                b.algo,
                b.ns,
                c.ns,
                delta_pct,
                if regressed {
                    "❌ regression"
                } else if gated(b) {
                    "✅ ok"
                } else {
                    "➖ other kernel (ungated)"
                }
            );
        } else {
            let _ = writeln!(
                out,
                "{:>4}  {:<9} {:>8} B  {:<24} {:>14.1} -> {:>14.1} ns  {:+.2}%",
                if regressed {
                    "FAIL"
                } else if gated(b) {
                    "ok"
                } else {
                    "skip"
                },
                b.op,
                b.bytes,
                b.algo,
                b.ns,
                c.ns,
                delta_pct
            );
        }
    }
    if compared == 0 {
        return Err("no comparable entries between the two files".into());
    }
    // Rows the baseline does not know: shown, never gated.
    let added: Vec<&Entry> = cur
        .iter()
        .filter(|c| !base.iter().any(|b| same(b, c)))
        .collect();
    for c in &added {
        if markdown {
            let _ = writeln!(
                out,
                "| {} | {} | {} | – | {:.1} | – | 🆕 new (ungated) |",
                c.op, c.bytes, c.algo, c.ns
            );
        } else {
            let _ = writeln!(
                out,
                "{:>4}  {:<9} {:>8} B  {:<24} {:>14} -> {:>14.1} ns  (ungated)",
                "new", c.op, c.bytes, c.algo, "-", c.ns
            );
        }
    }
    let mut verdict = if failures.is_empty() {
        "no regressions".to_string()
    } else {
        format!("{} failure(s)", failures.len())
    };
    if !added.is_empty() {
        verdict.push_str(&format!(", {} new (ungated)", added.len()));
    }
    if other_kernel {
        let name = |k: &Option<String>| k.clone().unwrap_or_else(|| "none recorded".into());
        verdict.push_str(&format!(
            ", wall rows ungated (baseline kernel: {}, this run: {})",
            name(&base_kernel),
            name(&cur_kernel)
        ));
    }
    let wall_note = match wall_tolerance_pct {
        Some(w) => format!(" (wall rows ±{w}%)"),
        None => String::new(),
    };
    if markdown {
        let _ = writeln!(
            out,
            "\ncompared {compared} entries at ±{tolerance_pct}% tolerance{wall_note}: **{verdict}**"
        );
    } else {
        let _ = writeln!(
            out,
            "\ncompared {compared} entries, tolerance {tolerance_pct}%{wall_note}: {verdict}"
        );
    }
    let result = if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    };
    Ok((out, result))
}

/// Build and run the `caf-check` harness, passing every remaining CLI
/// argument straight through (`--quick`, `--deep`, `--seeds N`).
fn check(passthrough: &[String]) -> Result<(), String> {
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.args(["run", "--release", "-p", "caf-check", "--"]);
    cmd.args(passthrough);
    let status = cmd
        .status()
        .map_err(|e| format!("launching cargo run -p caf-check: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("caf-check failed ({status})"))
    }
}

fn usage() -> String {
    "usage: cargo xtask check [--quick|--deep] [--seeds N] [--socket|--socket-only]\n       \
     \x20                 [--shm-only] [--recover|--recover-only] [--kill-after-ms T]\n       \
     cargo xtask bench-diff <baseline.json> <new.json> [--tolerance PCT]\n       \
     \x20                 [--wall-tolerance PCT] [--markdown]"
        .into()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("bench-diff") => {
            let mut tolerance = 10.0f64;
            let mut wall_tolerance = None;
            let mut markdown = false;
            let mut files = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                if a == "--tolerance" {
                    let v = it.next().ok_or("--tolerance needs a value")?;
                    tolerance = v.parse().map_err(|e| format!("bad tolerance {v:?}: {e}"))?;
                } else if a == "--wall-tolerance" {
                    let v = it.next().ok_or("--wall-tolerance needs a value")?;
                    wall_tolerance = Some(
                        v.parse()
                            .map_err(|e| format!("bad wall tolerance {v:?}: {e}"))?,
                    );
                } else if a == "--markdown" {
                    markdown = true;
                } else {
                    files.push(a.clone());
                }
            }
            if files.len() != 2 {
                return Err(usage());
            }
            bench_diff(&files[0], &files[1], tolerance, wall_tolerance, markdown)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "experiment": "exp_c1_msgsize",
  "quick": true,
  "results": [
    {"op": "broadcast", "bytes": 8, "algo": "two_level", "ns": 100.0},
    {"op": "allreduce", "bytes": 1048576, "algo": "two_level_pipelined", "ns": 5000.5}
  ]
}"#;

    fn tmp(name: &str, content: &str) -> String {
        let p = std::env::temp_dir().join(format!("xtask-test-{name}.json"));
        std::fs::write(&p, content).unwrap();
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn parses_the_emitted_shape() {
        let p = tmp("parse", SAMPLE);
        let (experiment, kernel, entries) = parse_bench(&p).unwrap();
        assert_eq!(experiment, "exp_c1_msgsize");
        assert_eq!(kernel, None);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].op, "broadcast");
        assert_eq!(entries[1].bytes, 1_048_576);
        assert_eq!(entries[1].ns, 5000.5);
    }

    #[test]
    fn identical_files_pass() {
        let a = tmp("ident-a", SAMPLE);
        let b = tmp("ident-b", SAMPLE);
        assert!(bench_diff(&a, &b, 10.0, None, false).is_ok());
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let a = tmp("reg-a", SAMPLE);
        let worse = SAMPLE.replace("100.0", "115.0");
        let b = tmp("reg-b", &worse);
        let err = bench_diff(&a, &b, 10.0, None, false).unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
        // A looser tolerance admits the same delta.
        assert!(bench_diff(&a, &b, 20.0, None, false).is_ok());
    }

    #[test]
    fn wall_rows_use_the_looser_gate() {
        // A simscale-style file: one deterministic virt row, one noisy
        // wall row that regressed 30%.
        let base = r#"{
  "experiment": "exp_s1_simscale",
  "quick": true,
  "results": [
    {"op": "barrier", "bytes": 10000, "algo": "sharded_virt", "ns": 1000.0},
    {"op": "barrier", "bytes": 10000, "algo": "sharded_wall", "ns": 100.0}
  ]
}"#;
        let a = tmp("wall-a", base);
        let b = tmp("wall-b", &base.replace("100.0", "130.0"));
        // Without a wall tolerance the strict gate catches it...
        assert!(bench_diff(&a, &b, 10.0, None, false).is_err());
        // ...with one, the wall row passes while virt rows stay strict.
        assert!(bench_diff(&a, &b, 10.0, Some(75.0), false).is_ok());
        let c = tmp("wall-c", &base.replace("1000.0", "1300.0"));
        let err = bench_diff(&a, &c, 10.0, Some(75.0), false).unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
    }

    #[test]
    fn wall_rows_of_another_kernel_are_shown_not_gated() {
        // A blas-style file: the kernel in its header, one modeled row, a
        // dispatched row and one tile's own row.
        let base = r#"{
  "experiment": "exp_k1_blas",
  "kernel": "avx2+fma+avx512f 24x8",
  "quick": true,
  "results": [
    {"op": "dgemm", "bytes": 64, "algo": "dispatched_wall", "ns": 100.0},
    {"op": "dgemm", "bytes": 64, "algo": "avx2+fma+avx512f_24x8_wall", "ns": 100.0},
    {"op": "hpl", "bytes": 256, "algo": "two_level_virt", "ns": 1000.0}
  ]
}"#;
        let a = tmp("kern-a", base);
        // The same kernel: a lost tile row and a slow dispatched row fail.
        let fewer = base.replace(
            "    {\"op\": \"dgemm\", \"bytes\": 64, \"algo\": \"avx2+fma+avx512f_24x8_wall\", \"ns\": 100.0},\n",
            "",
        );
        let b = tmp("kern-b", &fewer.replace("100.0", "300.0"));
        let err = bench_diff(&a, &b, 10.0, Some(75.0), false).unwrap_err();
        assert!(
            err.contains("missing") && err.contains("REGRESSION"),
            "{err}"
        );
        // Another kernel: both are shown and pass...
        let c = tmp("kern-c", &b_text(&fewer.replace("100.0", "300.0")));
        let (report, verdict) = bench_diff_report(&a, &c, 10.0, Some(75.0), false).unwrap();
        assert!(verdict.is_ok(), "{report}");
        assert!(report.contains("not run, other kernel"), "{report}");
        assert!(
            report.contains("wall rows ungated (baseline kernel: avx2+fma+avx512f 24x8, this run: avx2+fma 8x6)"),
            "{report}"
        );
        // ...while the modeled row keeps its gate.
        let d = tmp("kern-d", &b_text(&fewer.replace("1000.0", "1200.0")));
        let err = bench_diff(&a, &d, 10.0, Some(75.0), false).unwrap_err();
        assert!(err.contains("REGRESSION hpl"), "{err}");

        fn b_text(s: &str) -> String {
            s.replace("avx2+fma+avx512f 24x8", "avx2+fma 8x6")
        }
    }

    #[test]
    fn improvement_passes() {
        let a = tmp("imp-a", SAMPLE);
        let better = SAMPLE.replace("5000.5", "2000.0");
        let b = tmp("imp-b", &better);
        assert!(bench_diff(&a, &b, 10.0, None, false).is_ok());
    }

    #[test]
    fn missing_entry_fails() {
        let a = tmp("miss-a", SAMPLE);
        let fewer = SAMPLE.replace(
            "    {\"op\": \"broadcast\", \"bytes\": 8, \"algo\": \"two_level\", \"ns\": 100.0},\n",
            "",
        );
        let b = tmp("miss-b", &fewer);
        let err = bench_diff(&a, &b, 10.0, None, false).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn markdown_renders_a_github_table() {
        let a = tmp("md-a", SAMPLE);
        let b = tmp("md-b", SAMPLE);
        let (report, verdict) = bench_diff_report(&a, &b, 10.0, None, true).unwrap();
        assert!(verdict.is_ok());
        // The heading names the surface that was diffed, whichever it is.
        assert!(
            report.starts_with("### Bench diff: exp_c1_msgsize\n"),
            "{report}"
        );
        let s = tmp("md-s", &SAMPLE.replace("exp_c1_msgsize", "exp_s1_simscale"));
        let (simscale, _) = bench_diff_report(&s, &s, 10.0, None, true).unwrap();
        assert!(
            simscale.starts_with("### Bench diff: exp_s1_simscale\n"),
            "{simscale}"
        );
        assert!(
            report.contains("| op | bytes | algo | baseline ns | new ns | Δ% | status |"),
            "{report}"
        );
        assert!(
            report.contains("| broadcast | 8 | two_level | 100.0 | 100.0 | +0.00% | ✅ ok |"),
            "{report}"
        );
        assert!(report.contains("**no regressions**"), "{report}");
    }

    #[test]
    fn rows_only_in_the_new_file_are_listed_as_ungated() {
        let a = tmp("new-a", SAMPLE);
        let more = SAMPLE.replace(
            "  \"results\": [\n",
            "  \"results\": [\n    {\"op\": \"gather\", \"bytes\": 64, \"algo\": \"flat\", \"ns\": 7.5},\n",
        );
        let b = tmp("new-b", &more);
        for markdown in [false, true] {
            let (report, verdict) = bench_diff_report(&a, &b, 10.0, None, markdown).unwrap();
            assert!(verdict.is_ok(), "a new row alone does not fail the gate");
            let row = report
                .lines()
                .find(|l| l.contains("gather"))
                .unwrap_or_else(|| panic!("new row not listed:\n{report}"));
            assert!(row.contains("new") && row.contains("(ungated)"), "{row}");
            assert!(
                row.contains("64") && row.contains("flat") && row.contains("7.5"),
                "{row}"
            );
            assert!(report.contains("compared 2 entries"), "{report}");
            assert!(
                report.contains("no regressions, 1 new (ungated)"),
                "{report}"
            );
        }
    }

    #[test]
    fn markdown_regressions_still_fail() {
        let a = tmp("mdreg-a", SAMPLE);
        let worse = SAMPLE.replace("100.0", "130.0");
        let b = tmp("mdreg-b", &worse);
        let (report, verdict) = bench_diff_report(&a, &b, 10.0, None, true).unwrap();
        let err = verdict.unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
        assert!(report.contains("❌ regression"), "{report}");
        assert!(report.contains("**1 failure(s)**"), "{report}");
    }
}
