//! Each workspace rule of `rules/` on small fixtures: text that keeps
//! the rule and text that breaks it.

mod rules;

use rules::{manifest_scopes_unsafe, stale_doc_refs, telemetry_names};

#[test]
fn unsafe_scope_fixtures() {
    let inherits = "[package]\nname = \"psc-x\"\n\n[lints]\nworkspace = true\n";
    let own_table = "[lints.rust]\nmissing_debug_implementations = \"warn\"\n\n\
                     [lints.clippy]\nundocumented_unsafe_blocks = \"warn\"\n";
    assert!(manifest_scopes_unsafe("seqio", inherits));
    assert!(manifest_scopes_unsafe("align", inherits));
    for name in ["align", "index", "alloc-count"] {
        assert!(manifest_scopes_unsafe(name, own_table), "{name}");
    }
    // An own table is only for the crates allowed unsafe code.
    assert!(!manifest_scopes_unsafe("seqio", own_table));
    // No lints at all, lints switched off, or commented out.
    for manifest in [
        "[package]\nname = \"psc-seqio\"\n",
        "[lints]\nworkspace = false\n",
        "# [lints]\n# workspace = true\n",
    ] {
        assert!(!manifest_scopes_unsafe("seqio", manifest), "{manifest}");
    }
    // An allowed crate's table may not set unsafe_code itself.
    let allows = format!("{own_table}\n[lints.rust]\nunsafe_code = \"allow\"\n");
    assert!(!manifest_scopes_unsafe("align", &allows));
    // Nor may it drop the documentation lint.
    assert!(!manifest_scopes_unsafe("index", "[lints.rust]\n"));
}

#[test]
fn recorder_fixtures() {
    let none: [&str; 0] = [];
    assert_eq!(
        telemetry_names("pub fn run() -> Step2Stats { Step2Stats::default() }"),
        none
    );
    assert_eq!(
        telemetry_names("use psc_telemetry::Recorder;"),
        ["psc_telemetry", "Recorder"]
    );
    assert_eq!(telemetry_names("fn run(t: &mut dyn Tracer) {}"), ["Tracer"]);
    assert_eq!(
        telemetry_names("rec.add(keys::step2_hits(), 1);"),
        ["keys::"]
    );
}

#[test]
fn doc_ref_fixtures() {
    let design = "# Design\n\n## 4. Step 2\n\n### 4.1 The lane filter\n\n## 9. Verification\n";
    let experiments = "# Experiments\n\n## Measured causes and negatives\n";
    let stale = |src: &str| stale_doc_refs(src, design, experiments);
    let none: [&str; 0] = [];
    // Names that exist: numbered headings, a heading's opening words,
    // a name that runs over two comment lines.
    assert_eq!(stale("// no panic path (DESIGN §9).\nfn f() {}\n"), none);
    assert_eq!(stale("/// three µops (DESIGN.md §4.1).\n"), none);
    assert_eq!(stale("//! DESIGN.md\n//! §4/§9 has the rest.\n"), none);
    assert_eq!(
        stale("/// (EXPERIMENTS.md, \"Measured causes and\n/// negatives\")\n"),
        none
    );
    // Neither a bare file name nor a string outside a comment names a
    // section.
    assert_eq!(
        stale("//! EXPERIMENTS.md records it; see DESIGN.md.\n"),
        none
    );
    assert_eq!(stale("const S: &str = \"DESIGN.md §14\";\n"), none);
    // Names that do not.
    assert_eq!(
        stale("// DESIGN §12 and DESIGN.md §4.2b\n"),
        ["DESIGN.md §12", "DESIGN.md §4.2b"]
    );
    assert_eq!(
        stale("//! DESIGN.md §2/§5.\n"),
        ["DESIGN.md §2", "DESIGN.md §5"]
    );
    assert_eq!(
        stale("/// EXPERIMENTS.md \"Step-2 gather in place\"\n"),
        ["EXPERIMENTS.md \"Step-2 gather in place\""]
    );
    // A comment block ends at the first line of code.
    assert_eq!(
        stale("// DESIGN.md\nfn f() {}\n// §12 is elsewhere.\n"),
        none
    );
}
