//! Per-file source model shared by every lint: the token stream,
//! `#[cfg(test)]` region tracking, and inline waivers.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::lexer::{lex, Tok, TokKind};

/// An inline waiver: `// analyzer: allow(<lint>) -- <reason>`.
#[derive(Clone, Debug)]
pub struct Waiver {
    pub lint: String,
    pub reason: String,
}

/// A lexed source file plus everything the lints ask about it.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Crate directory name under `crates/` (e.g. `core`).
    pub crate_name: String,
    pub toks: Vec<Tok>,
    /// Lines covered by a `#[cfg(test)]` / `#[test]` item.
    test_lines: Vec<bool>,
    waivers: BTreeMap<u32, Vec<Waiver>>,
    /// `(waiver line, lint)` pairs some lint actually consulted — what
    /// is left over at the end of the pass is a stale waiver.
    used_waivers: RefCell<BTreeSet<(u32, String)>>,
}

impl SourceFile {
    pub fn new(path: &str, crate_name: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let n_lines = src.lines().count().max(1);
        let test_lines = mark_test_regions(&toks, n_lines);
        let waivers = collect_waivers(&toks);
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            toks,
            test_lines,
            waivers,
            used_waivers: RefCell::new(BTreeSet::new()),
        }
    }

    /// Is `line` inside a `#[cfg(test)]`-gated item or `#[test]` fn?
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_lines
            .get(line.saturating_sub(1) as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Does a waiver for `lint` cover `line`? A waiver covers its own
    /// line and the line directly below it, so it works both trailing
    /// (`stmt; // analyzer: allow(…) -- why`) and preceding (its own
    /// comment line above the statement). A hit is remembered: the
    /// `waiver-hygiene` lint reports waivers nothing consulted.
    pub fn waived(&self, lint: &str, line: u32) -> bool {
        let mut hit = false;
        for l in [line.saturating_sub(1), line] {
            if l == 0 {
                continue;
            }
            for w in self.waivers.get(&l).into_iter().flatten() {
                if w.lint == lint {
                    self.used_waivers.borrow_mut().insert((l, w.lint.clone()));
                    hit = true;
                }
            }
        }
        hit
    }

    /// Malformed waivers (missing `-- reason`) are themselves findings:
    /// an unjustified exemption is exactly what the lints exist to stop.
    pub fn waiver_problems(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (&line, ws) in &self.waivers {
            for w in ws {
                if w.reason.is_empty() {
                    out.push(Diagnostic::new(
                        &self.path,
                        line,
                        "bad-waiver",
                        format!("waiver for `{}` lacks a `-- reason`", w.lint),
                    ));
                }
            }
        }
        out
    }

    /// `waiver-hygiene`: waivers that suppressed nothing. Must run
    /// *after* every pass (file-local and transitive) has had its
    /// chance to consult them — the driver calls this last. A waiver
    /// naming a lint that never fires on its lines is dead weight at
    /// best and a typoed lint slug at worst; both are findings.
    pub fn stale_waivers(&self) -> Vec<Diagnostic> {
        let used = self.used_waivers.borrow();
        let mut out = Vec::new();
        for (&line, ws) in &self.waivers {
            for w in ws {
                if w.reason.is_empty() {
                    continue; // already reported as bad-waiver
                }
                if !used.contains(&(line, w.lint.clone())) {
                    out.push(Diagnostic::new(
                        &self.path,
                        line,
                        crate::lints::WAIVER_HYGIENE,
                        format!(
                            "stale waiver: `{}` suppresses no diagnostic here (remove it, or fix the lint name)",
                            w.lint
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Mark every line covered by an item annotated `#[cfg(test)]` (any
/// `cfg` whose argument mentions `test`) or `#[test]`: from the
/// attribute itself to the closing brace of the item (or its `;`).
fn mark_test_regions(toks: &[Tok], n_lines: usize) -> Vec<bool> {
    let mut test = vec![false; n_lines];
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_punct('#') || !matches!(toks.get(i + 1), Some(t) if t.is_punct('[')) {
            i += 1;
            continue;
        }
        // Bracket-match the attribute, remembering the idents inside.
        let attr_start_line = toks[i].line;
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident(s) => idents.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = idents
            .first()
            .is_some_and(|&first| first == "test" || (first == "cfg" && idents.contains(&"test")));
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip to the item body: the first `{` (or a `;` for an
        // extern/use-like item) past any further attributes.
        let mut k = j + 1;
        let mut paren = 0i32;
        let end_line = loop {
            match toks.get(k).map(|t| &t.kind) {
                None => break toks.last().map(|t| t.line).unwrap_or(attr_start_line),
                Some(TokKind::Punct('(')) => paren += 1,
                Some(TokKind::Punct(')')) => paren -= 1,
                Some(TokKind::Punct(';')) if paren == 0 => break toks[k].line,
                Some(TokKind::Punct('{')) if paren == 0 => {
                    // Brace-match the body.
                    let mut bdepth = 0usize;
                    while k < toks.len() {
                        match &toks[k].kind {
                            TokKind::Punct('{') => bdepth += 1,
                            TokKind::Punct('}') => {
                                bdepth -= 1;
                                if bdepth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    break toks.get(k).map(|t| t.line).unwrap_or(attr_start_line);
                }
                Some(_) => {}
            }
            k += 1;
        };
        for line in attr_start_line..=end_line {
            if let Some(slot) = test.get_mut(line as usize - 1) {
                *slot = true;
            }
        }
        i = k + 1;
    }
    test
}

fn collect_waivers(toks: &[Tok]) -> BTreeMap<u32, Vec<Waiver>> {
    let mut out: BTreeMap<u32, Vec<Waiver>> = BTreeMap::new();
    for t in toks {
        let Some(rest) = t
            .comment()
            .and_then(|text| text.trim().strip_prefix("analyzer: allow("))
        else {
            continue;
        };
        let Some((lint, tail)) = rest.split_once(')') else {
            continue;
        };
        let reason = tail
            .trim()
            .strip_prefix("--")
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        out.entry(t.line).or_default().push(Waiver {
            lint: lint.trim().to_string(),
            reason,
        });
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
    fn cfg_test_region_covers_module() {
        let src = "fn real() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn after() {}\n";
        let f = file(src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(f.in_test_code(5));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn test_attr_on_fn() {
        let src = "#[test]\nfn t() {\n    panic!();\n}\nfn real() {}\n";
        let f = file(src);
        assert!(f.in_test_code(3));
        assert!(!f.in_test_code(5));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = file("#[cfg(target_arch = \"x86_64\")]\nmod x86 {\n    fn f() {}\n}\n");
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn waivers_cover_their_line_and_the_next() {
        let src = "// analyzer: allow(hot-path-no-panic) -- join only fails on a panicked worker\nh.join().unwrap();\nh2.join().unwrap();\n";
        let f = file(src);
        assert!(f.waived("hot-path-no-panic", 1));
        assert!(f.waived("hot-path-no-panic", 2));
        assert!(!f.waived("hot-path-no-panic", 3));
        assert!(!f.waived("determinism", 2));
        assert!(f.waiver_problems().is_empty());
    }

    #[test]
    fn unconsulted_waivers_are_stale() {
        let f = file(
            "// analyzer: allow(hot-path-no-panic) -- checked above\nx.unwrap();\n// analyzer: allow(hot-path-nopanic) -- typoed slug\ny.unwrap();\n",
        );
        // Only the first waiver is consulted (correct slug, right line).
        assert!(f.waived("hot-path-no-panic", 2));
        assert!(!f.waived("hot-path-no-panic", 4));
        let stale = f.stale_waivers();
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].line, 3);
        assert_eq!(stale[0].lint, "waiver-hygiene");
        assert!(stale[0].message.contains("hot-path-nopanic"));
    }

    #[test]
    fn waiver_without_reason_is_flagged() {
        let f = file("x(); // analyzer: allow(determinism)\n");
        let problems = f.waiver_problems();
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].lint, "bad-waiver");
    }
}
