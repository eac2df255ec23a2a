//! Fixture-driven lint tests. Every source lint has a violating, a
//! clean, and (where waivers are allowed) a waived fixture under
//! `tests/fixtures/`, exercised through the public [`analyze_source`]
//! entry point; and every rule has one plant — a defect that
//! `cargo clippy --all-targets -- -D warnings` passes — run through the
//! workspace driver.

use std::path::PathBuf;

use psc_analyzer::{analyze_source, analyze_workspace, Config, Diagnostic, LintSelection};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn check(name: &str, sel: &LintSelection) -> Vec<Diagnostic> {
    analyze_source(
        &format!("crates/fix/src/{name}"),
        "fix",
        &fixture(name),
        sel,
    )
}

/// A crate manifest that inherits the workspace lints.
const INHERITS: &str = "[package]\nname = \"fix\"\n\n[lints]\nworkspace = true\n";

/// Run the driver over a one-crate workspace on disk: `manifest` and
/// `lib` are crate `fix`'s `Cargo.toml` and `src/lib.rs`, beside a
/// telemetry key registry at `src/keys.rs`. Returns each diagnostic's
/// `file:line: [lint]` head.
fn plant(name: &str, manifest: &str, lib: &str, config: &str) -> Vec<String> {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("plant-{name}"));
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/fix/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    for (path, text) in [
        (root.join("crates/fix/Cargo.toml"), manifest),
        (src.join("lib.rs"), lib),
        (
            src.join("keys.rs"),
            "pub const PAIRS: &str = \"step2.pairs\";\n",
        ),
    ] {
        std::fs::write(path, text).expect("write plant");
    }
    let config = Config::parse(config).expect("config");
    let report = analyze_workspace(&root, &config).expect("analyze");
    report
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}: [{}]", d.file, d.line, d.lint))
        .collect()
}

/// One plant per rule the analyzer keeps, with every diagnostic it must
/// raise. The rules that moved into `[workspace.lints]` and
/// `clippy.toml` are planted against the compiler, not here.
#[test]
fn every_rule_has_a_plant() {
    const LIB: &str = "crates/fix/src/lib.rs";
    let hot = "[lint.hot-path-no-panic]\nhot_modules = [\"crates/fix/src/lib.rs\"]\n";
    let alloc = "[lint.hot-path-no-alloc]\nkernel_modules = [\"crates/fix/src/lib.rs\"]\n";
    let kernel = "[lint.recorder-off-hot-loop]\nkernel_modules = [\"crates/fix/src/lib.rs\"]\n";
    let registry = "[lint.telemetry-key-registry]\nregistry = \"crates/fix/src/keys.rs\"\n";
    let typo = "[lint.hot-path-no-panic]\nhot_modules = [\"crates/fix/src/missing.rs\"]\n";
    let no_lints = "[package]\nname = \"fix\"\n";
    let bare_waiver = "pub fn f() {} // analyzer: allow(hot-path-no-panic)\n".to_string();
    /// Rule, manifest, `src/lib.rs`, config, and the file and lines the
    /// rule must flag.
    type Plant<'a> = (&'a str, &'a str, String, &'a str, &'a str, &'a [u32]);
    // `recorder_bad.rs` names `psc_telemetry` and `Recorder` on line 3;
    // `hot_path_waived.rs` outside a hot module suppresses nothing.
    #[rustfmt::skip]
    let plants: [Plant; 8] = [
        ("hot-path-no-panic", INHERITS, fixture("hot_path_bad.rs"), hot, LIB, &[4, 5, 7, 10, 11]),
        ("hot-path-no-alloc", INHERITS, fixture("hot_alloc_bad.rs"), alloc, LIB, &[6, 7, 8, 9, 13]),
        ("recorder-off-hot-loop", INHERITS, fixture("recorder_bad.rs"), kernel, LIB, &[3, 3, 5, 7]),
        ("telemetry-key-registry", INHERITS, fixture("recorder_bad.rs"), registry, LIB, &[7]),
        ("waiver-hygiene", INHERITS, fixture("hot_path_waived.rs"), "", LIB, &[4]),
        ("bad-waiver", INHERITS, bare_waiver, "", LIB, &[1]),
        ("config-integrity", INHERITS, fixture("hot_path_ok.rs"), typo, "analyzer.toml", &[2]),
        ("unsafe-scope", no_lints, fixture("unsafe_scope_bad.rs"), "", "crates/fix/Cargo.toml", &[1]),
    ];
    for (rule, manifest, lib, config, file, lines) in plants {
        let want: Vec<String> = lines
            .iter()
            .map(|l| format!("{file}:{l}: [{rule}]"))
            .collect();
        assert_eq!(plant(rule, manifest, &lib, config), want, "{rule}");
    }
}

/// `unsafe-scope` reads the manifest, not the source: the documented
/// `unsafe` block is flagged in a crate with a `[lints]` table of its
/// own, and clean in one that inherits the workspace's forbid (rustc
/// then rejects the block) or that is on the unsafe allow-list.
#[test]
fn unsafe_scope_fixtures() {
    let lib = fixture("unsafe_scope_bad.rs");
    let own = "[package]\nname = \"fix\"\n\n[lints.rust]\nunsafe_code = \"deny\"\n";
    assert_eq!(
        plant("own-table", own, &lib, ""),
        ["crates/fix/Cargo.toml:1: [unsafe-scope]"]
    );
    assert!(plant("inherits", INHERITS, &lib, "").is_empty());
    let allowed = "[lint.unsafe-scope]\nallow_unsafe_crates = [\"fix\"]\n";
    assert!(plant("allowed", own, &lib, allowed).is_empty());
}

#[test]
fn hot_path_fixtures() {
    let sel = LintSelection {
        hot_module: true,
        ..LintSelection::default()
    };
    let bad = check("hot_path_bad.rs", &sel);
    assert_eq!(bad.len(), 5, "{bad:?}");
    assert!(bad.iter().all(|d| d.lint == "hot-path-no-panic"));
    assert!(check("hot_path_ok.rs", &sel).is_empty());
    assert!(check("hot_path_waived.rs", &sel).is_empty());
    // Outside a hot module the same source is clean.
    let cold = LintSelection::default();
    assert!(check("hot_path_bad.rs", &cold).is_empty());
}

#[test]
fn hot_alloc_fixtures() {
    let sel = LintSelection {
        no_alloc_module: true,
        ..LintSelection::default()
    };
    let bad = check("hot_alloc_bad.rs", &sel);
    // vec!, format!, Vec::with_capacity, .to_string(), Box::new.
    assert_eq!(bad.len(), 5, "{bad:?}");
    assert!(bad.iter().all(|d| d.lint == "hot-path-no-alloc"));
    assert!(check("hot_alloc_ok.rs", &sel).is_empty());
    assert!(check("hot_alloc_waived.rs", &sel).is_empty());
    // Outside the kernel-module list the same source is clean.
    let cold = LintSelection::default();
    assert!(check("hot_alloc_bad.rs", &cold).is_empty());
}

#[test]
fn recorder_fixtures() {
    let sel = LintSelection {
        kernel_module: true,
        ..LintSelection::default()
    };
    let bad = check("recorder_bad.rs", &sel);
    assert!(!bad.is_empty());
    assert!(bad.iter().all(|d| d.lint == "recorder-off-hot-loop"));
    assert!(check("recorder_ok.rs", &sel).is_empty());
}

#[test]
fn tracer_fixtures() {
    let sel = LintSelection {
        kernel_module: true,
        ..LintSelection::default()
    };
    let bad = check("tracer_bad.rs", &sel);
    // psc_telemetry, Tracer x2, UnitTrace x2, .commit(.
    assert_eq!(bad.len(), 6, "{bad:?}");
    assert!(bad.iter().all(|d| d.lint == "recorder-off-hot-loop"));
    // The epoch-in, timings-out shape the step-2 kernel uses is clean,
    // and so is the same file outside the kernel-module list.
    assert!(check("tracer_ok.rs", &sel).is_empty());
    let outside = LintSelection::default();
    assert!(check("tracer_bad.rs", &outside).is_empty());
}

/// The symbol scanner keeps a fn whose signature holds a `;` (an array
/// type) or an `impl Trait`: the body is its body, so its calls enter
/// the call graph the transitive lints walk.
#[test]
fn signature_fixtures() {
    let file = psc_analyzer::source::SourceFile::new(
        "crates/fix/src/signatures.rs",
        "fix",
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
    let sel = LintSelection {
        hot_module: true,
        ..LintSelection::default()
    };
    let bad = check("hot_path_bad.rs", &sel);
    let rendered = bad[0].to_string();
    assert!(
        rendered.starts_with("crates/fix/src/hot_path_bad.rs:4: [hot-path-no-panic]"),
        "{rendered}"
    );
}
