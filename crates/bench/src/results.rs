//! The one writer behind every committed `BENCH_*.json`: a header that
//! names the experiment and its scale, then one result object per line,
//! keyed `(op, bytes, algo)` — the shape `cargo xtask bench-diff` reads.

use crate::quick_mode;
use caf_trace::json::escape;

/// One result row. `(op, bytes, algo)` is the row's identity across runs;
/// `bytes` holds whatever the surface sweeps (payload bytes, image count,
/// flops per call).
pub struct Rec {
    /// Operation measured.
    pub op: &'static str,
    /// The swept size.
    pub bytes: usize,
    /// Variant; a `wall` suffix marks host wall-clock rows (looser gate).
    pub algo: String,
    /// Nanoseconds, modeled or measured, per `unit`.
    pub ns: f64,
}

/// A header value between `"experiment"` and `"quick"`.
pub enum Meta<'a> {
    /// Emitted as a JSON string.
    Str(&'a str),
    /// Emitted as a JSON number.
    Num(usize),
}

/// What a bench says about its result file besides the rows.
pub struct Surface<'a> {
    /// The bench target's name.
    pub experiment: &'a str,
    /// File name under the repo root when `CAF_BENCH_OUT` is unset.
    pub file: &'a str,
    /// Extra header fields, in order.
    pub header: &'a [(&'a str, Meta<'a>)],
    /// What the `ns` column means on this surface.
    pub unit: &'a str,
    /// Decimals `ns` is written with.
    pub ns_decimals: usize,
}

/// The document `write` emits.
pub fn render(s: &Surface, recs: &[Rec]) -> String {
    let mut out = format!("{{\n  \"experiment\": \"{}\",\n", escape(s.experiment));
    for (key, value) in s.header {
        match value {
            Meta::Str(v) => out.push_str(&format!("  \"{key}\": \"{}\",\n", escape(v))),
            Meta::Num(v) => out.push_str(&format!("  \"{key}\": {v},\n")),
        }
    }
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str(&format!("  \"unit\": \"{}\",\n", escape(s.unit)));
    out.push_str("  \"results\": [\n");
    for (i, r) in recs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"bytes\": {}, \"algo\": \"{}\", \"ns\": {:.*}}}{}\n",
            escape(r.op),
            r.bytes,
            escape(&r.algo),
            s.ns_decimals,
            r.ns,
            if i + 1 < recs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `recs` to `CAF_BENCH_OUT`, or to `s.file` at the repo root.
pub fn write(s: &Surface, recs: &[Rec]) {
    let path = std::env::var("CAF_BENCH_OUT").unwrap_or_else(|_| {
        let root = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
        format!("{root}/../../{}", s.file)
    });
    std::fs::write(&path, render(s, recs)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path} ({} results)", recs.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baselines are in this shape, byte for byte: header
    /// order, one row per line, fixed decimals. bench-diff parses it.
    #[test]
    fn renders_the_committed_shape() {
        let recs = [
            Rec {
                op: "dgemm_1024x1024x64",
                bytes: 134217728,
                algo: "dispatched_wall".into(),
                ns: 3837614.0,
            },
            Rec {
                op: "hpl_f1_16x2",
                bytes: 256,
                algo: "two_level_virt".into(),
                ns: 10889351.00049,
            },
        ];
        let surface = Surface {
            experiment: "exp_k1_blas",
            file: "BENCH_blas.json",
            header: &[
                ("kernel", Meta::Str("avx2+fma 8x6")),
                ("per_node", Meta::Num(512)),
            ],
            unit: "wall_rows_best_wall_ns_per_call_virt_rows_modeled_ns",
            ns_decimals: 3,
        };
        let quick = quick_mode();
        let want = format!(
            r#"{{
  "experiment": "exp_k1_blas",
  "kernel": "avx2+fma 8x6",
  "per_node": 512,
  "quick": {quick},
  "unit": "wall_rows_best_wall_ns_per_call_virt_rows_modeled_ns",
  "results": [
    {{"op": "dgemm_1024x1024x64", "bytes": 134217728, "algo": "dispatched_wall", "ns": 3837614.000}},
    {{"op": "hpl_f1_16x2", "bytes": 256, "algo": "two_level_virt", "ns": 10889351.000}}
  ]
}}
"#
        );
        assert_eq!(render(&surface, &recs), want);
        let four = Surface {
            ns_decimals: 4,
            ..surface
        };
        assert!(render(&four, &recs).contains("\"ns\": 3837614.0000}"));
    }
}
