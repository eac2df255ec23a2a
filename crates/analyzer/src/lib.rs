//! # psc-analyzer — the workspace's own lint pass
//!
//! The correctness story of this reproduction rests on invariants
//! neither `rustc` nor clippy can see: the step-2 kernels must stay
//! panic-free, allocation-free in their loops and telemetry-free (they
//! are the 97 %-of-runtime critical section the paper offloads) through
//! every helper they reach, telemetry keys must come from one registry,
//! and every crate outside the audited two must inherit the workspace's
//! `unsafe_code = "forbid"`. This crate lexes the workspace's `.rs`
//! sources with a hand-rolled tokenizer ([`lexer`]) and enforces those
//! house rules ([`lints`], [`callgraph`]), configured by a checked-in
//! `analyzer.toml` ([`config`]) with inline
//! `// analyzer: allow(<lint>) -- reason` waivers ([`source`]). What the
//! compiler can say — documented `unsafe`, the clock and hash-map bans —
//! lives in `[workspace.lints]` and `clippy.toml` instead.
//!
//! It is deliberately **std-only**: the build container is offline, so
//! the gate cannot depend on Dylint, Miri, or any crates.io proc-macro
//! stack — and a zero-dependency binary keeps the gate itself out of
//! the supply chain being gated.

pub mod callgraph;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod source;
pub mod symbols;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use config::Config;
pub use diag::Diagnostic;
pub use lints::LintSelection;
use source::SourceFile;
use symbols::FileSymbols;

/// Outcome of a workspace pass.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub files_checked: usize,
    /// Linkable fns pass 1 indexed (non-test, with a body).
    pub functions: usize,
    /// Resolved call edges in the workspace graph.
    pub call_edges: usize,
    /// Call sites resolved to at least one workspace fn.
    pub resolved_calls: usize,
    /// Call sites resolved to nothing — assumed safe, counted so the
    /// conservatism is visible in the summary line.
    pub unresolved_calls: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Share of all call sites the graph resolved: what "transitively"
    /// covers. The transitive lints assume the rest safe.
    pub fn resolved_fraction(&self) -> f64 {
        let all = self.resolved_calls + self.unresolved_calls;
        if all == 0 {
            0.0
        } else {
            self.resolved_calls as f64 / all as f64
        }
    }
}

/// Lint one source text under an explicit selection (the unit the
/// fixture tests drive directly).
pub fn analyze_source(
    path: &str,
    crate_name: &str,
    text: &str,
    sel: &LintSelection,
) -> Vec<Diagnostic> {
    let file = SourceFile::new(path, crate_name, text);
    lints::check_file(&file, sel)
}

/// The directory whose subdirectories are the workspace's crates.
const CRATES_DIR: &str = "crates";

/// Analyze the workspace in two passes: pass 1 runs the file-local
/// lints while building per-file symbol tables; pass 2 builds the call
/// graph and runs the transitive lints over it. Workspace-level lints
/// (`config-integrity`, `unsafe-scope`, `telemetry-key-registry`) and
/// the stale-waiver sweep (which must observe every other lint's waiver
/// use) complete the report.
pub fn analyze_workspace(root: &Path, config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    report.diagnostics.extend(config_integrity(root, config));
    let allow_unsafe = config.list("lint.unsafe-scope", "allow_unsafe_crates");
    let mut files: Vec<SourceFile> = Vec::new();
    let mut sels: Vec<LintSelection> = Vec::new();
    for krate in sorted_dir(&root.join(CRATES_DIR))? {
        let manifest = krate.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let crate_name = file_name(&krate);
        if !allow_unsafe.contains(&crate_name) {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("read {}: {e}", manifest.display()))?;
            report
                .diagnostics
                .extend(lints::unsafe_scope(&relative(&manifest, root), &text));
            report.files_checked += 1;
        }
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        walk_rs(&src, &mut paths)?;
        for path in paths {
            let rel = relative(&path, root);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let sel = selection_for(config, &rel);
            let file = SourceFile::new(&rel, &crate_name, &text);
            report.diagnostics.extend(lints::check_file(&file, &sel));
            report.files_checked += 1;
            files.push(file);
            sels.push(sel);
        }
    }

    // Telemetry key registry: collect the declared keys, then hold
    // every literal passed to a Recorder/Tracer sink against them.
    if let Some((registry_rel, keys)) = telemetry_registry(root, config, &files) {
        for file in &files {
            if file.path == registry_rel {
                continue; // the registry declares keys, it doesn't emit
            }
            report
                .diagnostics
                .extend(lints::telemetry_keys(file, &keys));
        }
    }

    // Pass 2: symbol index, call graph, transitive lints.
    let syms: Vec<FileSymbols> = files.iter().map(symbols::scan).collect();
    let graph = callgraph::build(&syms);
    report.functions = syms
        .iter()
        .flat_map(|s| s.fns.iter())
        .filter(|f| f.has_body && !f.is_test)
        .count();
    report.call_edges = graph.n_edges;
    report.resolved_calls = graph.resolved;
    report.unresolved_calls = graph.unresolved;
    let ws = callgraph::Workspace {
        files: &files,
        sels: &sels,
        syms: &syms,
    };
    report.diagnostics.extend(callgraph::transitive_check(
        &ws,
        &graph,
        callgraph::MAX_CALL_DEPTH,
    ));

    // Last: waivers nothing above consulted are stale.
    for file in &files {
        report.diagnostics.extend(file.stale_waivers());
    }
    report.diagnostics.sort();
    report.diagnostics.dedup();
    Ok(report)
}

/// `config-integrity`: every path in `analyzer.toml` must resolve to a
/// real file or directory, and every crate name to a crate directory —
/// a typoed `hot_modules` entry silently un-lints the hot path, which
/// is the worst possible failure mode for a gate. Diagnostics anchor to
/// the config file's own lines.
fn config_integrity(root: &Path, config: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let config_rel = "analyzer.toml";
    const PATH_KEYS: &[(&str, &str)] = &[
        ("lint.hot-path-no-panic", "hot_modules"),
        ("lint.recorder-off-hot-loop", "kernel_modules"),
        ("lint.hot-path-no-alloc", "kernel_modules"),
        ("lint.telemetry-key-registry", "registry"),
    ];
    for (section, key) in PATH_KEYS {
        for (item, line) in config.items(section, key) {
            if !root.join(item).exists() {
                out.push(Diagnostic::new(
                    config_rel,
                    line,
                    lints::CONFIG_INTEGRITY,
                    format!("[{section}] {key}: `{item}` does not resolve to a file or directory"),
                ));
            }
        }
    }
    let (section, key) = ("lint.unsafe-scope", "allow_unsafe_crates");
    for (item, line) in config.items(section, key) {
        if !root
            .join(CRATES_DIR)
            .join(item)
            .join("Cargo.toml")
            .is_file()
        {
            out.push(Diagnostic::new(
                config_rel,
                line,
                lints::CONFIG_INTEGRITY,
                format!("[{section}] {key}: no crate named `{item}` under {CRATES_DIR}/"),
            ));
        }
    }
    out
}

/// The declared telemetry key set: every string literal in the
/// configured registry module (outside test code). `None` when no
/// registry is configured (the lint is off) — a configured-but-missing
/// registry file is already a `config-integrity` finding.
fn telemetry_registry(
    root: &Path,
    config: &Config,
    files: &[SourceFile],
) -> Option<(String, BTreeSet<String>)> {
    let registry_rel = config
        .list("lint.telemetry-key-registry", "registry")
        .first()?
        .clone();
    let keys = match files.iter().find(|f| f.path == registry_rel) {
        Some(file) => lints::registry_keys(file),
        None => {
            // Registry outside the walked crate dirs: read it directly.
            let text = std::fs::read_to_string(root.join(&registry_rel)).ok()?;
            let file = SourceFile::new(&registry_rel, "", &text);
            lints::registry_keys(&file)
        }
    };
    Some((registry_rel, keys))
}

/// Derive which lints apply to `rel` (workspace-relative path with
/// forward slashes) from the config.
pub fn selection_for(config: &Config, rel: &str) -> LintSelection {
    let in_list = |section: &str, key: &str| {
        config
            .list(section, key)
            .iter()
            .any(|m| rel == m || rel.starts_with(&format!("{m}/")))
    };
    LintSelection {
        hot_module: in_list("lint.hot-path-no-panic", "hot_modules"),
        kernel_module: in_list("lint.recorder-off-hot-loop", "kernel_modules"),
        no_alloc_module: in_list("lint.hot-path-no-alloc", "kernel_modules"),
    }
}

fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in sorted_dir(dir)? {
        if entry.is_dir() {
            walk_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

fn file_name(p: &Path) -> String {
    p.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Workspace-relative path with forward slashes (diagnostics must be
/// byte-identical across platforms).
fn relative(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_prefix_matches_directories() {
        let cfg = Config::parse(
            "[lint.hot-path-no-panic]\nhot_modules = [\"crates/align/src\", \"crates/core/src/step2.rs\"]\n",
        )
        .unwrap();
        let hot = |rel: &str| selection_for(&cfg, rel).hot_module;
        assert!(hot("crates/align/src/batch.rs"));
        assert!(hot("crates/align/src/x86/body.rs"));
        assert!(hot("crates/core/src/step2.rs"));
        assert!(!hot("crates/core/src/step2.rs.bak"));
        assert!(!hot("crates/align/srcx/batch.rs"));
        assert!(!hot("crates/core/src/pipeline.rs"));
    }
}
