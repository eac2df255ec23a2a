//! The two workspace rules that no compiler lint states, as predicates
//! over file text: the step-2 kernels stay off the telemetry surface,
//! and unsafe code stays in the crates that are allowed it.

/// Names of the telemetry surface. Step 2 returns its counts by value
/// and the pipeline records them, so `step2.rs` names none of these.
const TELEMETRY_NAMES: [&str; 4] = ["psc_telemetry", "Recorder", "Tracer", "keys::"];

/// The telemetry names that a step-2 source mentions, in
/// `TELEMETRY_NAMES` order.
pub fn telemetry_names(src: &str) -> Vec<&'static str> {
    TELEMETRY_NAMES
        .into_iter()
        .filter(|name| src.contains(name))
        .collect()
}

/// The crates that hold audited `unsafe`, each block under a
/// `// SAFETY:` comment.
const UNSAFE_CRATES: [&str; 3] = ["align", "index", "alloc-count"];

/// Whether the manifest of crate `name` (its directory under `crates/`)
/// keeps unsafe code scoped. It inherits `[workspace.lints]`, whose
/// `unsafe_code = "forbid"` keeps unsafe code out of it, or it is an
/// allowed-unsafe crate whose own table has no `unsafe_code` entry and
/// still wants every unsafe block documented.
pub fn manifest_scopes_unsafe(name: &str, manifest: &str) -> bool {
    let lines: Vec<&str> = manifest
        .lines()
        .map(str::trim)
        .filter(|l| !l.starts_with('#'))
        .collect();
    let inherits = lines
        .windows(2)
        .any(|w| w == ["[lints]", "workspace = true"]);
    let own_table = UNSAFE_CRATES.contains(&name)
        && lines.contains(&"[lints.rust]")
        && lines.contains(&"undocumented_unsafe_blocks = \"warn\"")
        && !lines.iter().any(|l| l.starts_with("unsafe_code"));
    inherits || own_table
}
