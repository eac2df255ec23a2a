//! The workspace rules of `rules/`, and that one module asks the CPU
//! for its features, checked over a whole tree: the real workspace
//! keeps them, and a synthetic one that breaks each of them is reported
//! line by line.

mod rules;

use std::fs;
use std::path::{Path, PathBuf};

/// The one source under `crates/*/src` that asks the CPU for its
/// features; every other one reads the level it decides.
const ISA_MODULE: &str = "crates/seqio/src/isa.rs";

/// One line per broken rule under the workspace root `root`, and the
/// number of crate manifests read.
fn violations(root: &Path) -> (Vec<String>, usize) {
    let mut found = Vec::new();
    let step2 = fs::read_to_string(root.join("crates/core/src/step2.rs"))
        .expect("crates/core/src/step2.rs reads");
    for name in rules::telemetry_names(&step2) {
        found.push(format!("crates/core/src/step2.rs names `{name}`"));
    }
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|e| e.expect("a crates/ entry").path())
        .collect();
    dirs.sort();
    let mut manifests = 0;
    for dir in dirs {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        for path in sources(&dir.join("src")) {
            let rel = path.strip_prefix(root).expect("under the root");
            let src = fs::read_to_string(&path).expect("a source reads");
            if rel != Path::new(ISA_MODULE) && src.contains("is_x86_feature_detected") {
                let rel = rel.display();
                found.push(format!("{rel} detects CPU features outside {ISA_MODULE}"));
            }
        }
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        manifests += 1;
        if !rules::manifest_scopes_unsafe(name, &manifest) {
            found.push(format!(
                "crates/{name}/Cargo.toml neither inherits [workspace.lints] nor is an \
                 allowed-unsafe crate with its own table"
            ));
        }
    }
    (found, manifests)
}

/// Every `.rs` file under `dir`, sorted; none if it is not a directory.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).into_iter().flatten() {
        let path = entry.expect("a directory entry").path();
        match path.is_dir() {
            true => out.extend(sources(&path)),
            false => out.extend(path.extension().is_some_and(|e| e == "rs").then_some(path)),
        }
    }
    out.sort();
    out
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (found, manifests) = violations(&root);
    assert!(found.is_empty(), "{}", found.join("\n"));
    assert!(
        manifests >= 10,
        "read {manifests} crate manifests under {root:?}"
    );
}

#[test]
fn synthetic_workspace_reports_expected_diagnostics() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("synthetic-workspace");
    let _ = fs::remove_dir_all(&root);
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("a parent")).expect("mkdir");
        fs::write(path, text).expect("write");
    };
    let own_table = "[lints.rust]\nmissing_debug_implementations = \"warn\"\n\n\
                     [lints.clippy]\nundocumented_unsafe_blocks = \"warn\"\n";
    write(
        "crates/core/Cargo.toml",
        "[package]\nname = \"psc-core\"\n\n[lints]\nworkspace = true\n",
    );
    write(
        "crates/core/src/step2.rs",
        "use psc_telemetry::keys::Key;\nfn run() {}\n",
    );
    write("crates/align/Cargo.toml", own_table);
    write(
        "crates/align/src/simd/pick.rs",
        "fn wide() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }\n",
    );
    write(
        "crates/seqio/src/isa.rs",
        "fn detected() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }\n",
    );
    write("crates/score/Cargo.toml", own_table);
    write(
        "crates/seqio/Cargo.toml",
        "[package]\nname = \"psc-seqio\"\n",
    );
    write("crates/notes/README.md", "not a crate\n");

    let (found, manifests) = violations(&root);
    assert_eq!(manifests, 4);
    let table = "neither inherits [workspace.lints] nor is an allowed-unsafe crate \
                 with its own table";
    assert_eq!(
        found,
        [
            "crates/core/src/step2.rs names `psc_telemetry`".to_string(),
            "crates/core/src/step2.rs names `keys::`".to_string(),
            format!("crates/align/src/simd/pick.rs detects CPU features outside {ISA_MODULE}"),
            format!("crates/score/Cargo.toml {table}"),
            format!("crates/seqio/Cargo.toml {table}"),
        ]
    );
    fs::remove_dir_all(&root).expect("remove the synthetic workspace");
}
