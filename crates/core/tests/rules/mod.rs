//! The workspace rules that no compiler lint states, as predicates
//! over file text: the step-2 kernels stay off the telemetry surface,
//! unsafe code stays in the crates that are allowed it, and a comment
//! that sends its reader to a section of DESIGN.md or EXPERIMENTS.md
//! names one that exists.

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

/// The document sections that the comments of `src` name and that the
/// documents lack, given the text of DESIGN.md and EXPERIMENTS.md. A
/// DESIGN section is named by its number after `DESIGN` or
/// `DESIGN.md` (`§` and the number, several joined by `/`) and must be
/// a numbered heading; an EXPERIMENTS section is named by a quoted
/// title after `EXPERIMENTS.md` and must begin a heading. A name may
/// run over consecutive comment lines.
pub fn stale_doc_refs(src: &str, design: &str, experiments: &str) -> Vec<String> {
    let design_ids: Vec<&str> = headings(design)
        .filter_map(|h| h.split_whitespace().next())
        .map(|id| id.trim_end_matches('.'))
        .collect();
    let experiment_titles: Vec<&str> = headings(experiments).collect();
    let text = comment_text(src);
    let mut stale = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        let mut rest = text[at + "DESIGN".len()..].trim_start_matches(".md");
        while let Some(tail) = rest.trim_start_matches(' ').strip_prefix('§') {
            let end = tail
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.'))
                .unwrap_or(tail.len());
            let id = tail[..end].trim_end_matches('.');
            if !design_ids.contains(&id) {
                stale.push(format!("DESIGN.md §{id}"));
            }
            rest = tail[end..].strip_prefix('/').unwrap_or("");
        }
    }
    for (at, _) in text.match_indices("EXPERIMENTS.md") {
        let rest = text[at + "EXPERIMENTS.md".len()..].trim_start_matches(',');
        let Some(quoted) = rest.trim_start_matches(' ').strip_prefix('"') else {
            continue;
        };
        let title = &quoted[..quoted.find('"').unwrap_or(quoted.len())];
        if !experiment_titles.iter().any(|h| h.starts_with(title)) {
            stale.push(format!("EXPERIMENTS.md \"{title}\""));
        }
    }
    stale
}

/// The text of each markdown heading of `doc`, without its `#`s.
fn headings(doc: &str) -> impl Iterator<Item = &str> {
    doc.lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|l| l.trim_start_matches('#').trim())
}

/// The text of `src`'s comments: consecutive comment lines joined by a
/// space, with the `//`, `///` or `//!` taken off, and blocks split by
/// a newline.
fn comment_text(src: &str) -> String {
    let mut text = String::new();
    for line in src.lines() {
        match line.trim_start().strip_prefix("//") {
            Some(comment) => {
                text.push_str(comment.trim_start_matches(['/', '!']).trim());
                text.push(' ');
            }
            None => text.push('\n'),
        }
    }
    text
}
