//! Pass 1 of the workspace analysis: extract every `fn` definition
//! from a file's token stream, together with the *facts* the transitive
//! lints care about (panic sites, allocation sites with loop context,
//! telemetry-surface touches) and every call site.
//!
//! This is a scanner, not a parser: it tracks just enough structure —
//! a brace stack distinguishing fn bodies, loop bodies and `impl`
//! blocks — to attribute each fact and call to the innermost enclosing
//! function and to know whether it sits inside a loop. Exotic shapes
//! the workspace does not use (braces in const-generic positions,
//! manually implemented `Fn` traits) degrade to missing attribution,
//! never to a crash; the call-graph layer treats anything it cannot
//! see as unresolved-and-assumed-safe, and counts it.

use crate::lexer::Tok;
use crate::source::SourceFile;

/// One `fn` definition found in a file.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub name: String,
    /// `impl` target type for methods and associated fns (`Fifo` for
    /// `impl Fifo { fn push … }`, also set for `impl Trait for Fifo`);
    /// `None` for free fns and trait default methods.
    pub qual: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// False for bodyless signatures (trait method declarations).
    pub has_body: bool,
    /// True when the first parameter is a `self` receiver — a `x.m(…)`
    /// method call can only land on these; associated constructors
    /// (`SeedIndex::build(flat, …)`) are unreachable from method syntax.
    pub has_self: bool,
    /// True when the definition sits under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
    /// True for `unsafe fn` — where `p.add(n)` is a raw-pointer offset.
    pub is_unsafe: bool,
    pub facts: Facts,
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// Display name for call chains: `Fifo::push` or `merge`.
    pub fn display(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A line-anchored observation inside a fn body.
#[derive(Clone, Debug)]
pub struct Fact {
    pub line: u32,
    /// What was seen, as the diagnostic prints it (`.unwrap()`,
    /// `Vec::new`, `Recorder`, …).
    pub what: String,
}

/// An allocation fact additionally records loop context: `Vec::new`
/// at the top of a helper is amortizable, the same call inside the
/// helper's own loop is per-iteration work wherever the helper runs.
#[derive(Clone, Debug)]
pub struct AllocFact {
    pub line: u32,
    pub what: String,
    pub in_loop: bool,
}

/// Everything the transitive lints check on a reachable fn.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    /// `.unwrap()` / `.expect(` / `panic!` / `todo!` / `unimplemented!`.
    pub panics: Vec<Fact>,
    /// Heap-allocating idioms, with loop context.
    pub allocs: Vec<AllocFact>,
    /// Recorder/Tracer identifiers and method calls.
    pub telemetry: Vec<Fact>,
}

/// How a call site names its target, which decides resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(…)` — a free fn, same file first, then workspace-unique.
    Bare,
    /// `qual::helper(…)` — resolved through the qualifier.
    Path,
    /// `x.helper(…)` — resolved by method name across all impls.
    Method,
}

/// One call expression inside a fn body.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub line: u32,
    pub name: String,
    /// Immediate qualifier for [`CallKind::Path`] (`Fifo` in
    /// `Fifo::push(…)`, `Self`, a module name, `crate`, …).
    pub qual: Option<String>,
    pub kind: CallKind,
    /// The call sits inside a loop of the *calling* fn.
    pub in_loop: bool,
}

/// The pass-1 product for one file.
#[derive(Clone, Debug)]
pub struct FileSymbols {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub crate_name: String,
    pub fns: Vec<FnDef>,
}

impl FileSymbols {
    /// `step2.rs` for `crates/core/src/step2.rs` — chain display and
    /// module-qualifier matching both use the basename.
    pub fn basename(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// File stem (`step2`), the token a `step2::helper(…)` path uses.
    pub fn stem(&self) -> &str {
        self.basename()
            .strip_suffix(".rs")
            .unwrap_or(self.basename())
    }
}

/// `fn name<G>(&mut self, …)` — does the parameter list open with a
/// `self` receiver? `j` points just past the fn name; generics before
/// the `(` are skipped by angle-depth.
fn takes_self(toks: &[Tok], mut j: usize) -> bool {
    let mut angle = 0i32;
    while let Some(t) = toks.get(j) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct('(') {
                j += 1;
                while let Some(p) = toks.get(j) {
                    if p.is_punct('&') || p.ident() == Some("mut") || p.is_lifetime() {
                        j += 1;
                        continue;
                    }
                    return p.ident() == Some("self");
                }
                return false;
            }
            if t.is_punct('{') || t.is_punct(';') {
                return false;
            }
        }
        j += 1;
    }
    false
}

/// Identifiers that cannot open a bare call expression.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "ref", "mut", "let", "pub", "use", "mod", "where", "impl", "trait", "struct", "enum",
    "union", "const", "static", "type", "dyn", "unsafe", "async", "await", "fn", "self", "super",
    "crate", "Self",
];

/// Scan one lexed file into its symbol table.
pub fn scan(file: &SourceFile) -> FileSymbols {
    Scanner {
        file,
        fns: Vec::new(),
        stack: Vec::new(),
        fn_stack: Vec::new(),
        impl_stack: Vec::new(),
        pending: Pending::None,
        sig_depth: 0,
    }
    .run()
}

/// What the next `{` opens.
enum Pending {
    None,
    Fn(usize),
    Loop,
    Impl(Option<String>),
}

/// One open `{` on the scanner's stack.
enum Frame {
    Fn,
    Loop,
    Impl,
    Other,
}

struct Scanner<'a> {
    file: &'a SourceFile,
    fns: Vec<FnDef>,
    stack: Vec<Frame>,
    fn_stack: Vec<usize>,
    impl_stack: Vec<Option<String>>,
    pending: Pending,
    /// `(`/`[` depth inside the signature of a pending fn: a `;` in
    /// there belongs to an array type (`&mut [i32; 16]`), not to a
    /// bodyless declaration.
    sig_depth: u32,
}

impl Scanner<'_> {
    fn run(mut self) -> FileSymbols {
        let toks = &self.file.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.is_punct('{') {
                self.open_brace();
                continue;
            }
            if t.is_punct('}') {
                self.close_brace();
                continue;
            }
            let in_signature = matches!(self.pending, Pending::Fn(_));
            if in_signature && (t.is_punct('(') || t.is_punct('[')) {
                self.sig_depth += 1;
                continue;
            }
            if in_signature && (t.is_punct(')') || t.is_punct(']')) {
                self.sig_depth = self.sig_depth.saturating_sub(1);
                continue;
            }
            if t.is_punct(';') {
                // A `;` outside every bracket of the signature, before
                // the body brace, means a bodyless declaration (trait
                // method, extern).
                if in_signature && self.sig_depth == 0 {
                    self.pending = Pending::None;
                }
                continue;
            }
            let Some(name) = t.ident() else { continue };
            match name {
                "fn" => {
                    // Skip `fn` in type position (`fn(u32) -> u32`).
                    if let Some(fname) = toks.get(i + 1).and_then(|n| n.ident()) {
                        let idx = self.fns.len();
                        self.fns.push(FnDef {
                            name: fname.to_string(),
                            qual: self.impl_stack.last().cloned().flatten(),
                            line: t.line,
                            has_body: false,
                            has_self: takes_self(toks, i + 2),
                            is_test: self.file.in_test_code(t.line),
                            is_unsafe: i > 0 && toks[i - 1].ident() == Some("unsafe"),
                            facts: Facts::default(),
                            calls: Vec::new(),
                        });
                        self.pending = Pending::Fn(idx);
                        self.sig_depth = 0;
                    }
                    continue;
                }
                // `impl Trait` in a signature (argument or return
                // position) opens no impl block.
                "impl" if in_signature => continue,
                "impl" => {
                    self.pending = Pending::Impl(impl_target(self.file, i));
                    continue;
                }
                "for" | "while" | "loop" => {
                    // `impl Trait for Type` and HRTB `for<'a>` use the
                    // keyword without opening a loop body.
                    let hrtb = name == "for" && toks.get(i + 1).is_some_and(|n| n.is_punct('<'));
                    if !matches!(self.pending, Pending::Impl(_)) && !hrtb {
                        self.pending = Pending::Loop;
                    }
                    continue;
                }
                _ => {}
            }
            if self.fn_stack.is_empty() || self.file.in_test_code(t.line) {
                continue;
            }
            self.fact_or_call(i, name, t.line);
        }
        FileSymbols {
            path: self.file.path.clone(),
            crate_name: self.file.crate_name.clone(),
            fns: self.fns,
        }
    }

    fn open_brace(&mut self) {
        let frame = match std::mem::replace(&mut self.pending, Pending::None) {
            Pending::Fn(idx) => {
                self.fns[idx].has_body = true;
                self.fn_stack.push(idx);
                Frame::Fn
            }
            Pending::Loop => Frame::Loop,
            Pending::Impl(target) => {
                self.impl_stack.push(target);
                Frame::Impl
            }
            Pending::None => Frame::Other,
        };
        self.stack.push(frame);
    }

    fn close_brace(&mut self) {
        match self.stack.pop() {
            Some(Frame::Fn) => {
                self.fn_stack.pop();
            }
            Some(Frame::Impl) => {
                self.impl_stack.pop();
            }
            _ => {}
        }
    }

    /// In a loop of the innermost fn?
    fn in_loop(&self) -> bool {
        for frame in self.stack.iter().rev() {
            match frame {
                Frame::Loop => return true,
                Frame::Fn => return false,
                _ => {}
            }
        }
        false
    }

    fn cur_fn(&mut self) -> &mut FnDef {
        let idx = *self.fn_stack.last().expect("caller checked fn_stack");
        &mut self.fns[idx]
    }

    /// Classify the ident at `i` as a fact or a call site (or neither).
    fn fact_or_call(&mut self, i: usize, name: &str, line: u32) {
        let toks = &self.file.toks;
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let in_loop = self.in_loop();
        let fact = |what: String| Fact { line, what };

        match name {
            "unwrap" | "expect" if prev_dot && next_paren => {
                self.cur_fn().facts.panics.push(fact(format!(".{name}()")));
                return;
            }
            "panic" | "todo" | "unimplemented" if next_bang => {
                self.cur_fn().facts.panics.push(fact(format!("{name}!")));
                return;
            }
            "Vec" | "String" | "Box" => {
                let pathed = toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|a| a.is_punct(':'));
                if let Some(ctor) = toks.get(i + 3).and_then(|a| a.ident()) {
                    if pathed && crate::lints::ALLOC_CTORS.contains(&ctor) {
                        self.cur_fn().facts.allocs.push(AllocFact {
                            line,
                            what: format!("{name}::{ctor}"),
                            in_loop,
                        });
                        return;
                    }
                }
            }
            "vec" | "format" if next_bang => {
                self.cur_fn().facts.allocs.push(AllocFact {
                    line,
                    what: format!("{name}!"),
                    in_loop,
                });
                return;
            }
            m if crate::lints::ALLOC_METHODS.contains(&m) && prev_dot && next_paren => {
                self.cur_fn().facts.allocs.push(AllocFact {
                    line,
                    what: format!(".{m}()"),
                    in_loop,
                });
                return;
            }
            m if crate::lints::RECORDER_IDENTS.contains(&m) => {
                self.cur_fn()
                    .facts
                    .telemetry
                    .push(fact(format!("`{name}`")));
                return;
            }
            m if crate::lints::RECORDER_METHODS.contains(&m) && prev_dot && next_paren => {
                self.cur_fn().facts.telemetry.push(fact(format!(".{m}()")));
                return;
            }
            _ => {}
        }

        // Call sites: `name(` with the macro (`name!`), definition
        // (`fn name(`), and keyword forms already excluded above or
        // here. Turbofish (`name::<T>(`) is left unresolved by design:
        // the workspace style spells concrete types at the binding.
        if !next_paren || KEYWORDS.contains(&name) {
            return;
        }
        let prev_ident = i.checked_sub(1).and_then(|p| toks[p].ident());
        if prev_ident == Some("fn") {
            return;
        }
        let (kind, qual) = if prev_dot {
            (CallKind::Method, None)
        } else if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            let qual = i.checked_sub(3).and_then(|p| toks[p].ident());
            // The qualifier token already became a fact (`Vec::new`,
            // `SpanGuard::enter`): don't double-count the path as a
            // call edge on top of it.
            if let Some(q) = qual {
                let alloc_ctor = matches!(q, "Vec" | "String" | "Box")
                    && crate::lints::ALLOC_CTORS.contains(&name);
                if alloc_ctor || crate::lints::RECORDER_IDENTS.contains(&q) {
                    return;
                }
            }
            (CallKind::Path, qual.map(str::to_string))
        } else {
            // Capitalized bare parens are tuple-struct / enum-variant
            // constructors (`Some(…)`, `Anchor(…)`), not fn calls.
            if name.chars().next().is_some_and(|c| c.is_uppercase()) {
                return;
            }
            (CallKind::Bare, None)
        };
        self.cur_fn().calls.push(CallSite {
            line,
            name: name.to_string(),
            qual,
            kind,
            in_loop,
        });
    }
}

/// The impl target type from the header starting at the `impl` keyword
/// (token index `i`): the last depth-0 ident of the type position —
/// after `for` in `impl Trait for Type`, before any `where`.
fn impl_target(file: &SourceFile, i: usize) -> Option<String> {
    let toks = &file.toks;
    let mut angle = 0i32;
    let mut target: Option<&str> = None;
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if let Some(s) = t.ident() {
                match s {
                    "where" => break,
                    "for" => target = None,
                    "dyn" | "crate" | "self" | "super" => {}
                    _ => target = Some(s),
                }
            }
        }
        j += 1;
    }
    target.map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn syms(src: &str) -> FileSymbols {
        scan(&SourceFile::new("crates/x/src/util.rs", "x", src))
    }

    fn by_name<'a>(s: &'a FileSymbols, name: &str) -> &'a FnDef {
        s.fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn fn_defs_capture_name_qual_and_body() {
        let s = syms(
            "pub fn free() {}\nimpl Fifo {\n    pub fn push(&mut self) {}\n}\nimpl Iterator for Walker {\n    fn next(&mut self) -> Option<u8> { None }\n}\ntrait T {\n    fn sig(&self);\n    fn with_default(&self) {}\n}\n",
        );
        assert_eq!(by_name(&s, "free").qual, None);
        assert_eq!(by_name(&s, "push").qual.as_deref(), Some("Fifo"));
        assert_eq!(by_name(&s, "next").qual.as_deref(), Some("Walker"));
        assert!(!by_name(&s, "sig").has_body);
        assert!(by_name(&s, "with_default").has_body);
        assert_eq!(by_name(&s, "with_default").qual, None);
    }

    #[test]
    fn facts_attach_to_the_innermost_fn_with_loop_context() {
        let s = syms(
            "fn outer() {\n    let a = Vec::new();\n    for _ in 0..3 {\n        let b = vec![1];\n        helper();\n    }\n    x.unwrap();\n}\nfn helper() {\n    y.expect(\"m\");\n}\n",
        );
        let outer = by_name(&s, "outer");
        assert_eq!(outer.facts.panics.len(), 1);
        assert_eq!(outer.facts.allocs.len(), 2);
        assert!(!outer.facts.allocs[0].in_loop, "{:?}", outer.facts);
        assert!(outer.facts.allocs[1].in_loop, "{:?}", outer.facts);
        assert_eq!(outer.calls.len(), 1);
        assert!(outer.calls[0].in_loop);
        let helper = by_name(&s, "helper");
        assert_eq!(helper.facts.panics.len(), 1);
        assert!(helper.facts.allocs.is_empty());
    }

    #[test]
    fn call_kinds_and_quals() {
        let s = syms(
            "fn f() {\n    bare();\n    module::pathed();\n    Fifo::push_raw();\n    Self::assoc();\n    x.method();\n    Some(1);\n    mac!(arg);\n    if (a) {}\n}\n",
        );
        let calls = &by_name(&s, "f").calls;
        let kinds: Vec<(&str, CallKind, Option<&str>)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind, c.qual.as_deref()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("bare", CallKind::Bare, None),
                ("pathed", CallKind::Path, Some("module")),
                ("push_raw", CallKind::Path, Some("Fifo")),
                ("assoc", CallKind::Path, Some("Self")),
                ("method", CallKind::Method, None),
            ]
        );
    }

    #[test]
    fn test_code_yields_no_facts_and_marks_fns() {
        let s = syms(
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); helper(); }\n}\n",
        );
        assert!(!by_name(&s, "real").is_test);
        let t = by_name(&s, "t");
        assert!(t.is_test);
        assert!(t.facts.panics.is_empty());
        assert!(t.calls.is_empty());
    }

    #[test]
    fn impl_for_is_not_a_loop_and_hrtb_is_skipped() {
        let s = syms(
            "impl Drop for Guard {\n    fn drop(&mut self) {\n        let v = Vec::new();\n    }\n}\nfn hr(f: impl for<'a> Fn(&'a u8)) {\n    let v = Vec::new();\n}\n",
        );
        assert!(by_name(&s, "drop").facts.allocs.iter().all(|a| !a.in_loop));
        assert!(by_name(&s, "hr").facts.allocs.iter().all(|a| !a.in_loop));
    }

    #[test]
    fn fact_tokens_are_not_double_counted_as_calls() {
        let s = syms("fn f() {\n    x.unwrap();\n    y.collect();\n    r.observe();\n}\n");
        assert!(by_name(&s, "f").calls.is_empty());
    }
}
