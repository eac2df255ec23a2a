//! The lint suite. Each source lint walks the token stream of one
//! [`SourceFile`] and reports [`Diagnostic`]s; inline waivers
//! (`// analyzer: allow(<lint>) -- reason`) and `#[cfg(test)]` regions
//! are honored where documented. `unsafe-scope` reads crate manifests.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::source::SourceFile;

pub const UNSAFE_SCOPE: &str = "unsafe-scope";
pub const HOT_PATH_NO_PANIC: &str = "hot-path-no-panic";
pub const HOT_PATH_NO_ALLOC: &str = "hot-path-no-alloc";
pub const RECORDER_OFF_HOT_LOOP: &str = "recorder-off-hot-loop";
pub const TELEMETRY_KEY_REGISTRY: &str = "telemetry-key-registry";
pub const WAIVER_HYGIENE: &str = "waiver-hygiene";
pub const CONFIG_INTEGRITY: &str = "config-integrity";

/// Which lints apply to the file being checked, derived from
/// `analyzer.toml` by the driver (or built directly by fixture tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct LintSelection {
    /// `hot-path-no-panic` applies (file is a designated hot module).
    pub hot_module: bool,
    /// `recorder-off-hot-loop` applies (file is a kernel module).
    pub kernel_module: bool,
    /// `hot-path-no-alloc` applies (file holds kernel inner loops).
    pub no_alloc_module: bool,
}

/// Run every applicable lint over `file`.
pub fn check_file(file: &SourceFile, sel: &LintSelection) -> Vec<Diagnostic> {
    let mut out = file.waiver_problems();
    if sel.hot_module {
        out.extend(hot_path_no_panic(file));
    }
    if sel.kernel_module {
        out.extend(recorder_off_hot_loop(file));
    }
    if sel.no_alloc_module {
        out.extend(hot_path_no_alloc(file));
    }
    out.sort();
    out
}

/// `unsafe-scope`: a crate manifest must inherit the workspace lints
/// (`[lints]` with `workspace = true`), whose `unsafe_code = "forbid"`
/// then holds in every target of the crate. The driver skips the crates
/// on the unsafe allow-list, which carry `[lints]` tables of their own.
/// Checked line by line on the raw manifest text; no waivers.
pub fn unsafe_scope(rel: &str, manifest: &str) -> Vec<Diagnostic> {
    let mut section = "";
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            section = line;
        } else if section == "[lints]" && line.replace(' ', "") == "workspace=true" {
            return Vec::new();
        }
    }
    vec![Diagnostic::new(
        rel,
        1,
        UNSAFE_SCOPE,
        "crate manifest must inherit the workspace lints (`[lints]` with `workspace = true`), \
         which forbid unsafe code (crate is not on the unsafe allow-list)",
    )]
}

/// `hot-path-no-panic`: `.unwrap()`, `.expect(`, `panic!`, `todo!`,
/// `unimplemented!` are banned in hot modules outside `#[cfg(test)]`.
fn hot_path_no_panic(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.toks;
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        let call = match name {
            "unwrap" | "expect" => {
                let method = i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if !method {
                    continue;
                }
                format!(".{name}()")
            }
            "panic" | "todo" | "unimplemented" => {
                if !toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                    continue;
                }
                format!("{name}!")
            }
            _ => continue,
        };
        if file.in_test_code(t.line) || file.waived(HOT_PATH_NO_PANIC, t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            &file.path,
            t.line,
            HOT_PATH_NO_PANIC,
            format!(
                "{call} in a hot module (return a Result or add a waiver with a justification)"
            ),
        ));
    }
    out
}

/// Constructor names that heap-allocate when reached through a
/// `Type::ctor` path (`Vec::new`, `String::with_capacity`, …). Shared
/// with the pass-1 symbol scanner ([`crate::symbols`]).
pub(crate) const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
/// Allocating method calls, flagged when invoked as methods.
pub(crate) const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "collect"];

/// `hot-path-no-alloc`: heap-allocating idioms (`Vec::new`, `vec!`,
/// `format!`, `.collect()`, …) inside `for`/`while`/`loop` bodies of
/// kernel modules. The kernels amortize buffers by hoisting them into
/// scratch structs; an allocation that genuinely belongs in a loop
/// (e.g. a per-work-item result vector that is moved out) takes a
/// waiver with a justification.
fn hot_path_no_alloc(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.toks;
    // Brace stack: `true` marks a `{` that opened a loop body. Any
    // `true` on the stack means the current token is in a loop,
    // including closures defined inside one (they run per iteration).
    let mut stack: Vec<bool> = Vec::new();
    let mut loops_open = 0usize;
    let mut pending_loop = false;
    // `impl Trait for Type {` uses `for` as a keyword that opens the
    // impl body, not a loop; suppress until that header's brace.
    let mut in_impl_header = false;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(pending_loop);
            loops_open += pending_loop as usize;
            pending_loop = false;
            in_impl_header = false;
            continue;
        }
        if t.is_punct('}') {
            loops_open -= stack.pop().unwrap_or(false) as usize;
            continue;
        }
        if t.is_punct(';') {
            in_impl_header = false;
            continue;
        }
        let Some(name) = t.ident() else { continue };
        match name {
            "impl" => {
                in_impl_header = true;
                continue;
            }
            "for" | "while" | "loop" => {
                if !in_impl_header {
                    pending_loop = true;
                }
                continue;
            }
            _ => {}
        }
        if loops_open == 0 {
            continue;
        }
        let alloc = match name {
            "Vec" | "String" | "Box" => {
                let pathed = toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|a| a.is_punct(':'));
                match toks.get(i + 3).and_then(|a| a.ident()) {
                    Some(ctor) if pathed && ALLOC_CTORS.contains(&ctor) => {
                        format!("{name}::{ctor}")
                    }
                    _ => continue,
                }
            }
            "vec" | "format" => {
                if !toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                    continue;
                }
                format!("{name}!")
            }
            m if ALLOC_METHODS.contains(&m) => {
                let method = i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if !method {
                    continue;
                }
                format!(".{m}()")
            }
            _ => continue,
        };
        if file.in_test_code(t.line) || file.waived(HOT_PATH_NO_ALLOC, t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            &file.path,
            t.line,
            HOT_PATH_NO_ALLOC,
            format!(
                "{alloc} inside a loop in a kernel module (hoist the buffer into scratch \
                 or add a waiver with a justification)"
            ),
        ));
    }
    out
}

/// Identifiers that mean telemetry crossed into a kernel module.
pub(crate) const RECORDER_IDENTS: &[&str] = &[
    "Recorder",
    "SpanGuard",
    "MemRecorder",
    "NullRecorder",
    "psc_telemetry",
    // The flight-recorder surface is held to the same discipline: a
    // kernel returns plain timing structs, the driver commits them.
    "Tracer",
    "RingTracer",
    "NullTracer",
    "UnitTrace",
    "UnitEvent",
    "TraceClock",
];
/// Recorder/Tracer method names, flagged when invoked as methods.
pub(crate) const RECORDER_METHODS: &[&str] = &["record_span", "set_meta", "observe", "commit"];

/// `recorder-off-hot-loop`: kernel modules must not touch the telemetry
/// surface at all — PR 2's zero-overhead promise, mechanized, and since
/// PR 7 covering the flight recorder (`Tracer`) too. No waivers:
/// instrumentation belongs in the drivers around the kernels.
fn recorder_off_hot_loop(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.toks;
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        let hit = RECORDER_IDENTS.contains(&name)
            || (RECORDER_METHODS.contains(&name)
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('(')));
        if !hit || file.in_test_code(t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            &file.path,
            t.line,
            RECORDER_OFF_HOT_LOOP,
            format!("`{name}` inside a kernel module — telemetry must stay off the hot loop"),
        ));
    }
    out
}

/// Recorder/Tracer entry points that take a telemetry *name*, and
/// which argument position carries it.
const KEY_SINKS_METHOD: &[&str] = &["add", "observe", "record_span", "set_meta"];
const KEY_SINKS_PATH: &[(&str, &str, usize)] = &[
    ("SpanGuard", "enter", 1),
    ("UnitEvent", "span", 0),
    ("UnitEvent", "mark", 0),
];

/// The declared key set: every string literal in the registry module,
/// outside test code. Helper fns for dynamic key families live in the
/// same module, so their format templates register too.
pub fn registry_keys(file: &SourceFile) -> BTreeSet<String> {
    file.toks
        .iter()
        .filter(|t| !file.in_test_code(t.line))
        .filter_map(|t| t.str_lit())
        .map(str::to_string)
        .collect()
}

/// `telemetry-key-registry`: a string literal passed as the *name*
/// argument of a Recorder/Tracer sink must be declared in the keys
/// registry. Names that arrive through a const or a helper fn are
/// trusted (the registry module is where those live) — the lint exists
/// to stop ad-hoc literals from drifting the emitter vocabulary away
/// from what `psc report` and `--compare` read.
pub fn telemetry_keys(file: &SourceFile, keys: &BTreeSet<String>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.toks;
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let method = i > 0 && toks[i - 1].is_punct('.');
        let arg_index = if method && KEY_SINKS_METHOD.contains(&name) {
            0
        } else if i >= 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            let qual = toks[i - 3].ident();
            match KEY_SINKS_PATH
                .iter()
                .find(|(q, m, _)| qual == Some(q) && *m == name)
            {
                Some((_, _, idx)) => *idx,
                None => continue,
            }
        } else {
            continue;
        };
        // Walk the argument list; literals in the name position must
        // be registered. A `format!` in that position is scanned too:
        // dynamic key families belong in the registry as helper fns.
        let mut depth = 1usize;
        let mut arg = 0usize;
        let mut j = i + 2;
        while depth > 0 {
            let Some(tok) = toks.get(j) else { break };
            match &tok.kind {
                crate::lexer::TokKind::Punct('(' | '[' | '{') => depth += 1,
                crate::lexer::TokKind::Punct(')' | ']' | '}') => depth -= 1,
                crate::lexer::TokKind::Punct(',') if depth == 1 => arg += 1,
                _ => {
                    if arg == arg_index {
                        if let Some(s) = tok.str_lit() {
                            if !keys.contains(s)
                                && !file.in_test_code(tok.line)
                                && !file.waived(TELEMETRY_KEY_REGISTRY, tok.line)
                            {
                                out.push(Diagnostic::new(
                                    &file.path,
                                    tok.line,
                                    TELEMETRY_KEY_REGISTRY,
                                    format!(
                                        "telemetry key {s:?} is not declared in the keys registry \
                                         (add it to psc-telemetry's `keys` module and use the const)"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs", "x", src)
    }

    #[test]
    fn unsafe_scope_requires_forbid() {
        let bad = |manifest: &str| unsafe_scope("crates/x/Cargo.toml", manifest).len();
        let missing = unsafe_scope("crates/x/Cargo.toml", "[package]\nname = \"x\"\n");
        assert_eq!(missing.len(), 1);
        assert_eq!((missing[0].lint, missing[0].line), (UNSAFE_SCOPE, 1));
        assert_eq!(
            bad("[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"),
            0
        );
        assert_eq!(bad("[lints] # inherited\nworkspace=true\n"), 0);
        // An own table, a `false`, or the key under another section
        // does not inherit the forbid.
        assert_eq!(bad("[lints.rust]\nunsafe_code = \"allow\"\n"), 1);
        assert_eq!(bad("[lints]\nworkspace = false\n"), 1);
        assert_eq!(bad("[dependencies]\nworkspace = true\n[lints]\n"), 1);
        assert_eq!(bad("[lints]\n# workspace = true\n"), 1);
    }

    #[test]
    fn hot_path_flags_panics_outside_tests() {
        let f = file(
            "fn hot() {\n    x.unwrap();\n    y.expect(\"m\");\n    panic!(\"no\");\n    todo!();\n    unimplemented!();\n}\n#[cfg(test)]\nmod tests {\n    fn t() { z.unwrap(); }\n}\n",
        );
        assert_eq!(hot_path_no_panic(&f).len(), 5);
    }

    #[test]
    fn hot_path_ignores_non_method_unwrap_idents() {
        // A fn *named* unwrap, or unwrap_or, must not trip the lint.
        let f = file("fn unwrap() {}\nfn g() { x.unwrap_or(0); h.unwrap_or_default(); }\n");
        assert!(hot_path_no_panic(&f).is_empty());
    }

    #[test]
    fn hot_path_waiver_with_reason() {
        let f = file(
            "fn hot() {\n    // analyzer: allow(hot-path-no-panic) -- full FIFO implies pop succeeds\n    fifo.pop().unwrap();\n}\n",
        );
        assert!(hot_path_no_panic(&f).is_empty());
        assert!(f.waiver_problems().is_empty());
    }

    #[test]
    fn no_alloc_flags_only_loop_bodies() {
        let f = file(
            "fn k() {\n    let mut scratch = Vec::new();\n    for i in 0..n {\n        let v = vec![0; 4];\n        let s = format!(\"{i}\");\n        let w: Vec<u32> = xs.iter().collect();\n        let t = Vec::with_capacity(8);\n    }\n    while go {\n        let b = Box::new(1);\n    }\n    let after = Vec::new();\n}\n",
        );
        let found = hot_path_no_alloc(&f);
        assert_eq!(found.len(), 5, "{found:?}");
        assert!(found.iter().all(|d| d.lint == HOT_PATH_NO_ALLOC));
        // Setup allocations outside loops (lines 2 and 12) stay clean.
        assert!(found.iter().all(|d| d.line != 2 && d.line != 12));
    }

    #[test]
    fn no_alloc_ignores_impl_for_and_tests() {
        // `impl Trait for Type` must not count the impl body as a loop.
        let f = file(
            "impl Iterator for K {\n    fn next(&mut self) -> Option<u8> {\n        let v = Vec::new();\n        None\n    }\n}\n#[cfg(test)]\nmod tests {\n    fn t() { for _ in 0..2 { let v = vec![1]; } }\n}\n",
        );
        assert!(hot_path_no_alloc(&f).is_empty());
    }

    #[test]
    fn no_alloc_waiver_with_reason() {
        let f = file(
            "fn k() {\n    loop {\n        // analyzer: allow(hot-path-no-alloc) -- per-item result vector, moved out on send\n        let out = Vec::new();\n    }\n}\n",
        );
        assert!(hot_path_no_alloc(&f).is_empty());
    }

    #[test]
    fn telemetry_keys_flag_unregistered_name_literals() {
        let keys: BTreeSet<String> = ["step2.pairs", "step1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = file(
            "fn drive(rec: &dyn Recorder) {\n    rec.observe(\"step2.pairs\", 1);\n    rec.add(\"step2.typo\", 1);\n    let _g = SpanGuard::enter(rec, \"step1\");\n    let e = UnitEvent::mark(\"unregistered\", 2);\n    rec.set_meta(name_var, \"free-text value\");\n    rec.observe(&format!(\"step2.b{i:02}\"), 1);\n    plain.observe_like(\"not-a-sink\");\n}\n",
        );
        let found = telemetry_keys(&f, &keys);
        let lines: Vec<u32> = found.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![3, 5, 7], "{found:?}");
        assert!(found.iter().all(|d| d.lint == TELEMETRY_KEY_REGISTRY));
        // Registered names, non-literal names, and value-position
        // literals all pass; test code is exempt.
        let test_only = file(
            "#[cfg(test)]\nmod tests {\n    fn t(rec: &dyn Recorder) { rec.observe(\"anything\", 1); }\n}\n",
        );
        assert!(telemetry_keys(&test_only, &keys).is_empty());
    }

    #[test]
    fn registry_keys_collects_nontest_literals() {
        let reg = file(
            "pub const STEP1: &str = \"step1\";\npub fn lane(b: usize) -> String { format!(\"step2.lane.b{b:02}\") }\n#[cfg(test)]\nmod tests { const T: &str = \"test-only\"; }\n",
        );
        let keys = registry_keys(&reg);
        assert!(keys.contains("step1"));
        assert!(keys.contains("step2.lane.b{b:02}"));
        assert!(!keys.contains("test-only"));
    }

    #[test]
    fn recorder_banned_in_kernel_modules() {
        let f =
            file("use psc_telemetry::Recorder;\nfn k(r: &dyn Recorder) { r.observe(\"x\", 1); }\n");
        let found = recorder_off_hot_loop(&f);
        assert!(found.len() >= 3, "{found:?}");
        // And it has no waiver escape hatch.
        let waived = file(
            "// analyzer: allow(recorder-off-hot-loop) -- please\nuse psc_telemetry::Recorder;\n",
        );
        assert!(!recorder_off_hot_loop(&waived).is_empty());
    }
}
