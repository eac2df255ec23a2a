//! End-to-end driver tests: a synthetic mini-workspace on disk, and
//! the self-test asserting the real workspace is clean under the real
//! checked-in `analyzer.toml`.

use std::path::{Path, PathBuf};

use psc_analyzer::{analyze_workspace, Config};

fn write(path: &Path, text: &str) {
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::fs::write(path, text).expect("write fixture workspace");
}

#[test]
fn synthetic_workspace_reports_expected_diagnostics() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("mini-ws");
    let _ = std::fs::remove_dir_all(&root);
    write(
        &root.join("crates/good/Cargo.toml"),
        "[package]\nname = \"good\"\n\n[lints]\nworkspace = true\n",
    );
    write(&root.join("crates/good/src/lib.rs"), "pub fn ok() {}\n");
    write(
        &root.join("crates/evil/Cargo.toml"),
        "[package]\nname = \"evil\"\n",
    );
    write(
        &root.join("crates/evil/src/lib.rs"),
        "pub mod hot;\npub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    );
    write(
        &root.join("crates/evil/src/hot.rs"),
        "pub fn k(xs: &[i32]) -> i32 {\n    *xs.first().unwrap()\n}\n",
    );
    let config =
        Config::parse("[lint.hot-path-no-panic]\nhot_modules = [\"crates/evil/src/hot.rs\"]\n")
            .expect("config");

    let report = analyze_workspace(&root, &config).expect("analyze");
    // Three .rs sources plus the two crate manifests.
    assert_eq!(report.files_checked, 5);
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(rendered.len(), 2, "{rendered:?}");
    // Sorted by file, then line; paths are workspace-relative.
    assert!(rendered[0].starts_with("crates/evil/Cargo.toml:1: [unsafe-scope]"));
    assert!(rendered[1].starts_with("crates/evil/src/hot.rs:2: [hot-path-no-panic]"));
}

/// The transitive pass end-to-end: a planted `.unwrap()` two hops from
/// the hot module is reported with the full call chain, an allocation
/// behind a helper is flagged only in loop context, a call-graph cycle
/// terminates, and a cross-crate call resolves through the symbol
/// index. Unresolvable calls surface in the report counter.
#[test]
fn transitive_lints_walk_a_synthetic_workspace() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("transitive-ws");
    let _ = std::fs::remove_dir_all(&root);
    for name in ["core", "util"] {
        write(
            &root.join(format!("crates/{name}/Cargo.toml")),
            &format!("[package]\nname = \"{name}\"\n\n[lints]\nworkspace = true\n"),
        );
    }
    // Hot module: calls a same-crate helper (inside a loop) and a
    // cross-crate one; also a call nothing can resolve.
    write(
        &root.join("crates/core/src/step2.rs"),
        "#![forbid(unsafe_code)]\npub fn run_bucketed(xs: &[u32]) {\n    for x in xs {\n        middle(*x);\n    }\n    util_entry();\n    mystery_extern_call();\n}\n",
    );
    // The middle hop lives outside the hot module so the chain really
    // is transitive, not a same-file root.
    write(
        &root.join("crates/core/src/mid.rs"),
        "#![forbid(unsafe_code)]\npub fn middle(x: u32) {\n    crate::merge(x);\n}\n",
    );
    // Same crate, different file: panics two hops from the root, and
    // cycles back into the middle hop (merge → middle → merge).
    write(
        &root.join("crates/core/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub mod step2;\npub fn merge(x: u32) {\n    let v = x.checked_mul(2).unwrap();\n    if v > 100 {\n        mid::middle(v);\n    }\n}\n",
    );
    // Other crate: reached via `psc_util::…` path, allocates in its own
    // loop (flagged) and at its top (allowed from straight-line code).
    write(
        &root.join("crates/util/src/lib.rs"),
        "#![forbid(unsafe_code)]\npub fn scratch(n: usize) -> Vec<u32> {\n    let mut out = Vec::with_capacity(n);\n    for _ in 0..n {\n        out.extend(vec![0u32]);\n    }\n    out\n}\n",
    );
    write(
        &root.join("crates/core/src/util_glue.rs"),
        "#![forbid(unsafe_code)]\npub fn util_entry() {\n    psc_util::scratch(4);\n}\n",
    );
    let config = Config::parse(
        "[lint.hot-path-no-panic]\nhot_modules = [\"crates/core/src/step2.rs\"]\n[lint.hot-path-no-alloc]\nkernel_modules = [\"crates/core/src/step2.rs\"]\n",
    )
    .expect("config");

    let report = analyze_workspace(&root, &config).expect("analyze");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    let panic_chain = rendered
        .iter()
        .find(|d| d.contains("[hot-path-no-panic]"))
        .unwrap_or_else(|| panic!("no panic diagnostic in {rendered:?}"));
    // The full chain, two hops from the hot module, despite the
    // middle → merge → middle cycle.
    assert!(
        panic_chain.contains("step2.rs:run_bucketed → mid.rs:middle → lib.rs:merge → .unwrap()"),
        "{panic_chain}"
    );
    let alloc_lines: Vec<&String> = rendered
        .iter()
        .filter(|d| d.contains("[hot-path-no-alloc]"))
        .collect();
    // Only the loop-context `vec!` in the cross-crate helper fires; the
    // amortizable `Vec::with_capacity` at fn scope does not (the chain
    // into `scratch` runs through straight-line code).
    assert_eq!(alloc_lines.len(), 1, "{rendered:?}");
    assert!(
        alloc_lines[0].starts_with("crates/util/src/lib.rs:5:")
            && alloc_lines[0].contains("util_glue.rs:util_entry → lib.rs:scratch → vec!"),
        "{}",
        alloc_lines[0]
    );
    // `mystery_extern_call` (and the std calls) resolve to nothing and
    // are surfaced in the counter rather than silently dropped.
    assert!(report.unresolved_calls >= 1, "{}", report.unresolved_calls);
    assert!(report.call_edges >= 4, "{}", report.call_edges);
}

/// The analyzer must run clean on the workspace that ships it — the
/// same invocation CI gates on (`cargo run -p psc-analyzer`).
#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let config_text =
        std::fs::read_to_string(root.join("analyzer.toml")).expect("read analyzer.toml");
    let config = Config::parse(&config_text).expect("parse analyzer.toml");
    #[expect(clippy::disallowed_methods, reason = "times the pass itself")]
    let t0 = std::time::Instant::now();
    let report = analyze_workspace(&root, &config).expect("analyze workspace");
    // The lint gate stays a pre-merge step, not a build phase (0.02 s
    // in release on the PR 20 tree).
    let wall = t0.elapsed().as_secs_f64();
    assert!(wall < 5.0, "workspace analysis took {wall:.2} s");
    assert!(report.files_checked > 50, "found {}", report.files_checked);
    // The call graph must actually cover the workspace — a resolution
    // regression that silently dropped all edges would otherwise keep
    // this test green while gutting the transitive lints.
    assert!(report.functions > 300, "found {}", report.functions);
    assert!(report.call_edges > 500, "found {}", report.call_edges);
    // Some call sites resolve and some are assumed safe; the summary
    // line prints the share, and DESIGN.md quotes it.
    let resolved = report.resolved_fraction();
    assert!(
        resolved > 0.0 && resolved < 1.0,
        "resolved share {resolved}"
    );
    assert!(
        report.is_clean(),
        "workspace violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
