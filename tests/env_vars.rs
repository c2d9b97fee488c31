//! Every `CAF_*` environment variable the sources name is documented: a
//! `"CAF_…"` string literal anywhere under `crates/` must also appear in
//! README.md (user-facing knobs in its tables, parent→child variables in
//! the paragraph that calls them internal).

use std::collections::BTreeSet;
use std::path::Path;

fn caf_literals(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            caf_literals(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            for piece in text.split("\"CAF_").skip(1) {
                let name: String = piece
                    .chars()
                    .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                    .collect();
                if piece[name.len()..].starts_with('"') {
                    out.insert(format!("CAF_{name}"));
                }
            }
        }
    }
}

#[test]
fn readme_names_every_caf_env_var() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut vars = BTreeSet::new();
    caf_literals(&root.join("crates"), &mut vars);
    assert!(vars.len() >= 30, "the scan found only {vars:?}");
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    // A whole-name mention: `CAF_AM_BATCH_OPS` does not document `CAF_AM`.
    let named = |v: &str| {
        readme.match_indices(v).any(|(at, _)| {
            !readme[at + v.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
        })
    };
    let missing: Vec<&String> = vars.iter().filter(|v| !named(v)).collect();
    assert!(
        missing.is_empty(),
        "README.md does not mention {missing:?}: add each to the env-var table of its section"
    );
}
