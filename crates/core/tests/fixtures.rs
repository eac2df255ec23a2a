//! Each workspace rule of `rules/` on small fixtures: text that keeps
//! the rule and text that breaks it.

mod rules;

use rules::{manifest_scopes_unsafe, telemetry_names};

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
