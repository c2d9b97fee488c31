//! Every `CAF_*` environment variable the sources name is documented, and
//! nothing else is: a `"CAF_…"` string literal anywhere under `crates/`
//! must also appear in README.md (user-facing knobs in its tables,
//! parent→child variables in the paragraph that calls them internal), and
//! every `CAF_…` name README.md mentions must still be such a literal — a
//! deleted knob takes its documentation with it.

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

/// Every whole `CAF_…` name in `text` (a name ends at the first character
/// that cannot continue it: `CAF_SOCKET_SHM_BYTES` does not name
/// `CAF_SOCKET_SHM`; the pattern `CAF_*` names nothing).
fn caf_names(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (at, _) in text.match_indices("CAF_") {
        let before = text[..at].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let name: String = text[at..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        let name = name.trim_end_matches('_');
        if name.len() > "CAF_".len() {
            out.insert(name.to_string());
        }
    }
    out
}

#[test]
fn readme_names_every_caf_env_var() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut vars = BTreeSet::new();
    caf_literals(&root.join("crates"), &mut vars);
    assert_eq!(vars.len(), 23, "the scan found {vars:?}");
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let named = caf_names(&readme);
    let missing: Vec<&String> = vars.difference(&named).collect();
    assert!(
        missing.is_empty(),
        "README.md does not mention {missing:?}: add each to the env-var table of its section"
    );
    let stale: Vec<&String> = named.difference(&vars).collect();
    assert!(
        stale.is_empty(),
        "README.md documents {stale:?}, which no source under crates/ reads any more: \
         delete the documentation with the knob"
    );
}
