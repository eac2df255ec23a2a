//! Fixture-driven lint tests: every lint has a violating, a clean, and
//! (where waivers are allowed) a waived fixture under
//! `tests/fixtures/`, exercised through the public [`analyze_source`]
//! entry point exactly as the workspace driver uses it.

use psc_analyzer::{analyze_source, Diagnostic, LintSelection};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn check(name: &str, is_crate_root: bool, sel: &LintSelection) -> Vec<Diagnostic> {
    analyze_source(
        &format!("crates/fix/src/{name}"),
        "fix",
        is_crate_root,
        &fixture(name),
        sel,
    )
}

/// Non-root module file: unsafe-scope does not apply.
fn module_sel(sel: LintSelection) -> LintSelection {
    LintSelection {
        allow_unsafe: true,
        ..sel
    }
}

#[test]
fn safety_comment_fixtures() {
    let sel = module_sel(LintSelection::default());
    let bad = check("safety_comment_bad.rs", false, &sel);
    assert_eq!(bad.len(), 3, "{bad:?}");
    assert!(bad.iter().all(|d| d.lint == "safety-comment"));
    // Diagnostics carry the file:line anchors of the unsafe tokens.
    assert_eq!(
        bad.iter().map(|d| d.line).collect::<Vec<_>>(),
        [4, 7, 12],
        "{bad:?}"
    );
    assert!(check("safety_comment_ok.rs", false, &sel).is_empty());
    assert!(check("safety_comment_waived.rs", false, &sel).is_empty());
}

#[test]
fn unsafe_scope_fixtures() {
    let sel = LintSelection::default();
    let bad = check("unsafe_scope_bad.rs", true, &sel);
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].lint, "unsafe-scope");
    assert!(check("unsafe_scope_ok.rs", true, &sel).is_empty());
    // The same file as a non-root module needs no declaration.
    assert!(check("unsafe_scope_bad.rs", false, &sel).is_empty());
    // Crates on the unsafe allow-list are exempt.
    let allowed = LintSelection {
        allow_unsafe: true,
        ..LintSelection::default()
    };
    assert!(check("unsafe_scope_bad.rs", true, &allowed).is_empty());
}

#[test]
fn hot_path_fixtures() {
    let sel = module_sel(LintSelection {
        hot_module: true,
        ..LintSelection::default()
    });
    let bad = check("hot_path_bad.rs", false, &sel);
    assert_eq!(bad.len(), 5, "{bad:?}");
    assert!(bad.iter().all(|d| d.lint == "hot-path-no-panic"));
    assert!(check("hot_path_ok.rs", false, &sel).is_empty());
    assert!(check("hot_path_waived.rs", false, &sel).is_empty());
    // Outside a hot module the same source is clean.
    let cold = module_sel(LintSelection::default());
    assert!(check("hot_path_bad.rs", false, &cold).is_empty());
}

#[test]
fn determinism_fixtures() {
    let sel = module_sel(LintSelection {
        ban_wall_clock: true,
        ordered_module: true,
        ..LintSelection::default()
    });
    let bad = check("determinism_bad.rs", false, &sel);
    // Instant::now once; HashMap named three times (use + two sites).
    assert_eq!(bad.len(), 4, "{bad:?}");
    assert!(bad.iter().all(|d| d.lint == "determinism"));
    assert!(check("determinism_ok.rs", false, &sel).is_empty());
    assert!(check("determinism_waived.rs", false, &sel).is_empty());
    // The timing crates may read the clock.
    let timing = module_sel(LintSelection {
        ordered_module: true,
        ..LintSelection::default()
    });
    assert_eq!(check("determinism_bad.rs", false, &timing).len(), 3);
}

#[test]
fn hot_alloc_fixtures() {
    let sel = module_sel(LintSelection {
        no_alloc_module: true,
        ..LintSelection::default()
    });
    let bad = check("hot_alloc_bad.rs", false, &sel);
    // vec!, format!, Vec::with_capacity, .to_string(), Box::new.
    assert_eq!(bad.len(), 5, "{bad:?}");
    assert!(bad.iter().all(|d| d.lint == "hot-path-no-alloc"));
    assert!(check("hot_alloc_ok.rs", false, &sel).is_empty());
    assert!(check("hot_alloc_waived.rs", false, &sel).is_empty());
    // Outside the kernel-module list the same source is clean.
    let cold = module_sel(LintSelection::default());
    assert!(check("hot_alloc_bad.rs", false, &cold).is_empty());
}

#[test]
fn recorder_fixtures() {
    let sel = module_sel(LintSelection {
        kernel_module: true,
        ..LintSelection::default()
    });
    let bad = check("recorder_bad.rs", false, &sel);
    assert!(!bad.is_empty());
    assert!(bad.iter().all(|d| d.lint == "recorder-off-hot-loop"));
    assert!(check("recorder_ok.rs", false, &sel).is_empty());
}

#[test]
fn tracer_fixtures() {
    let sel = module_sel(LintSelection {
        kernel_module: true,
        ..LintSelection::default()
    });
    let bad = check("tracer_bad.rs", false, &sel);
    // psc_telemetry, Tracer x2, UnitTrace x2, .commit(.
    assert_eq!(bad.len(), 6, "{bad:?}");
    assert!(bad.iter().all(|d| d.lint == "recorder-off-hot-loop"));
    // The epoch-in, timings-out shape the step-2 kernel uses is clean,
    // and so is the same file outside the kernel-module list.
    assert!(check("tracer_ok.rs", false, &sel).is_empty());
    let outside = module_sel(LintSelection::default());
    assert!(check("tracer_bad.rs", false, &outside).is_empty());
}

/// The symbol scanner keeps a fn whose signature holds a `;` (an array
/// type) or an `impl Trait`: the body is its body, so its calls enter
/// the call graph the transitive lints walk.
#[test]
fn signature_fixtures() {
    let file = psc_analyzer::source::SourceFile::new(
        "crates/fix/src/signatures.rs",
        "fix",
        false,
        &fixture("signatures.rs"),
    );
    let syms = psc_analyzer::symbols::scan(&file);
    let by_name = |name: &str| {
        syms.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    };
    for (name, qual) in [
        ("lanes", None),
        ("each", None),
        ("provided", None),
        ("after_the_trait", Some("Row")),
    ] {
        let f = by_name(name);
        assert!(f.has_body, "{name} lost its body");
        assert_eq!(f.qual.as_deref(), qual, "{name}");
        let calls: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(calls.contains(&"helper"), "{name} calls {calls:?}");
    }
    assert!(!by_name("declared").has_body);
    assert!(by_name("helper").calls.is_empty());
}

#[test]
fn diagnostics_render_file_line_format() {
    let sel = module_sel(LintSelection {
        hot_module: true,
        ..LintSelection::default()
    });
    let bad = check("hot_path_bad.rs", false, &sel);
    let rendered = bad[0].to_string();
    assert!(
        rendered.starts_with("crates/fix/src/hot_path_bad.rs:4: [hot-path-no-panic]"),
        "{rendered}"
    );
}
