//! A small hand-rolled Rust tokenizer.
//!
//! The lints only need a faithful separation of *code* from *comments
//! and literals* — `.unwrap()` inside a string must not trip the
//! hot-path lint, a `// analyzer: allow(…)` inside a string must not
//! waive it. So the lexer handles exactly the lexical features that
//! matter for that separation: line and (nested) block comments, string /
//! raw-string / byte-string / char literals, lifetimes vs char
//! literals, identifiers and single-character punctuation. Everything
//! else (numeric literal forms, multi-character operators) degrades to
//! a benign token stream without affecting any lint.

/// What a token is. Comment *text* is kept — the waiver scanner reads
/// it. String-literal *content* is kept too (escapes unprocessed) — the
/// telemetry-key-registry lint reads the key names passed to the
/// Recorder/Tracer surface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers `r#ident` normalize to
    /// their bare name, so keyword checks never see the `r#`).
    Ident(String),
    /// One punctuation character (`.`, `!`, `(`, `{`, …).
    Punct(char),
    /// `// …` comment, text without the slashes (doc comments too).
    LineComment(String),
    /// `/* … */` comment, text without the delimiters.
    BlockComment(String),
    /// A string / raw-string / byte-string literal; content without the
    /// delimiters, escape sequences left as written.
    Str(String),
    /// A char or byte-char literal (content discarded).
    Literal,
    /// A lifetime such as `'a`.
    Lifetime,
    /// Numeric literal (content discarded).
    Number,
}

/// One token with the 1-based line it starts on.
#[derive(Clone, Debug)]
pub struct Tok {
    pub line: u32,
    pub kind: TokKind,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// The comment text, if this token is a comment of either flavor.
    pub fn comment(&self) -> Option<&str> {
        match &self.kind {
            TokKind::LineComment(s) | TokKind::BlockComment(s) => Some(s),
            _ => None,
        }
    }

    /// True for `'a`-style lifetime (or char-literal) tokens.
    pub fn is_lifetime(&self) -> bool {
        matches!(self.kind, TokKind::Lifetime)
    }

    /// The literal content, if this token is a string-flavored literal.
    pub fn str_lit(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Tokenize `src`. Unterminated constructs consume to end of input
/// rather than erroring: the analyzer lints plausible Rust that `rustc`
/// already accepted, so recovery beats rejection.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer {
    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line),
                'r' if self.raw_string_ahead(1) => {
                    self.bump();
                    self.raw_string(line);
                }
                // Raw identifier `r#ident`: normalize to the bare name
                // so downstream keyword/symbol scans never see a stray
                // `#` + keyword pair desyncing their token patterns.
                'r' if self.peek(1) == Some('#')
                    && self
                        .peek(2)
                        .is_some_and(|c| c == '_' || c.is_alphanumeric()) =>
                {
                    self.bump();
                    self.bump();
                    self.ident(line);
                }
                'b' => match (self.peek(1), self.peek(2)) {
                    (Some('"'), _) => {
                        self.bump();
                        self.string(line);
                    }
                    (Some('\''), _) => {
                        self.bump();
                        self.char_literal(line);
                    }
                    (Some('r'), _) if self.raw_string_ahead(2) => {
                        self.bump();
                        self.bump();
                        self.raw_string(line);
                    }
                    _ => self.ident(line),
                },
                '\'' => self.quote(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c == '_' || c.is_alphanumeric() => self.ident(line),
                c => {
                    self.bump();
                    self.push(line, TokKind::Punct(c));
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, line: u32, kind: TokKind) {
        self.out.push(Tok { line, kind });
    }

    /// Is `r`/`br` at offset `from` the start of a raw string, i.e.
    /// followed by zero or more `#` then `"`?
    fn raw_string_ahead(&self, from: usize) -> bool {
        let mut i = from;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn line_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(line, TokKind::LineComment(text));
    }

    fn block_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
                text.push_str("/*");
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
                text.push_str("*/");
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(line, TokKind::BlockComment(text));
    }

    /// A `"…"` string (the opening quote is at the cursor). Escape
    /// sequences are kept as written: the lints compare literal keys
    /// that never contain escapes, so decoding would be dead weight.
    fn string(&mut self, line: u32) {
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    text.push(c);
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        self.push(line, TokKind::Str(text));
    }

    /// A raw string `#…#"…"#…#` (cursor on the first `#` or the quote;
    /// the `r`/`br` prefix is already consumed).
    fn raw_string(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        text.push(c);
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
        }
        self.push(line, TokKind::Str(text));
    }

    /// `'` — either a char literal or a lifetime.
    fn quote(&mut self, line: u32) {
        // Lifetime: 'ident not followed by a closing quote.
        let mut i = 1;
        let mut saw_ident = false;
        while let Some(c) = self.peek(i) {
            if c == '_' || c.is_alphanumeric() {
                saw_ident = true;
                i += 1;
            } else {
                break;
            }
        }
        if saw_ident && self.peek(i) != Some('\'') {
            for _ in 0..i {
                self.bump();
            }
            self.push(line, TokKind::Lifetime);
            return;
        }
        self.char_literal(line);
    }

    /// A char/byte literal (cursor on the opening quote).
    fn char_literal(&mut self, line: u32) {
        self.bump();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(line, TokKind::Literal);
    }

    fn number(&mut self, line: u32) {
        // Consume the alphanumeric run (covers 0x…, 1e3, 1_000u64); a
        // trailing `.` digit sequence is folded in so `1.5` is one token.
        while let Some(c) = self.peek(0) {
            let continues = c == '_'
                || c.is_alphanumeric()
                || (c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()));
            if !continues {
                break;
            }
            self.bump();
        }
        self.push(line, TokKind::Number);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(line, TokKind::Ident(text));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = lex("fn f() { x.unwrap() }");
        let idents: Vec<&str> = toks.iter().filter_map(|t| t.ident()).collect();
        assert_eq!(idents, ["fn", "f", "x", "unwrap"]);
        assert!(toks.iter().any(|t| t.is_punct('.')));
    }

    fn strs(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter_map(|t| t.str_lit().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "unsafe { panic!() }";"#);
        assert!(!toks
            .iter()
            .any(|k| matches!(k, TokKind::Ident(s) if s == "unsafe" || s == "panic")));
        assert!(matches!(&toks[3], TokKind::Str(s) if s == "unsafe { panic!() }"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r##"let s = r#"an "unsafe" quote"#; let b = b"unwrap"; let c = br"x";"##);
        assert!(!toks
            .iter()
            .any(|k| matches!(k, TokKind::Ident(s) if s == "unsafe" || s == "unwrap")));
        assert_eq!(
            toks.iter().filter(|k| matches!(k, TokKind::Str(_))).count(),
            3,
            "{toks:?}"
        );
    }

    #[test]
    fn string_content_is_kept_for_the_key_lints() {
        assert_eq!(strs(r#"rec.add("step2.pairs", n);"#), ["step2.pairs"]);
        // Escapes stay as written; keys never contain them anyway.
        assert_eq!(strs(r#"let s = "a\"b\\c";"#), [r#"a\"b\\c"#]);
    }

    /// Regression battery (ISSUE 8 satellite): raw strings with hash
    /// guards must not desync the token stream or line numbers —
    /// everything after the literal must lex at its true position.
    #[test]
    fn raw_string_regressions_keep_positions() {
        // Embedded quote, embedded quote+hash shorter than the guard,
        // zero-hash raw string with a backslash (raw strings have no
        // escapes), and a byte-raw string.
        for (src, content) in [
            (r###"let s = r#"a"b"#; after();"###, r#"a"b"#),
            (r####"let s = r##"x"#y"##; after();"####, r##"x"#y"##),
            ("let s = r\"\\\"; after();", "\\"),
            (
                r###"let s = br#"raw "bytes""#; after();"###,
                r#"raw "bytes""#,
            ),
        ] {
            let toks = lex(src);
            assert_eq!(strs(src), [content], "{src}");
            let after = toks.iter().find(|t| t.ident() == Some("after"));
            assert!(after.is_some(), "token stream desynced on {src}: {toks:?}");
            assert_eq!(after.unwrap().line, 1, "{src}");
        }
        // Multi-line raw string: line counting resumes correctly.
        let toks = lex("let a = r#\"multi\nline\"#;\nzap();");
        let zap = toks.iter().find(|t| t.ident() == Some("zap")).unwrap();
        assert_eq!(zap.line, 3);
        // Unterminated raw string recovers by consuming to EOF.
        assert_eq!(strs("let s = r#\"never closed"), ["never closed"]);
    }

    /// Regression battery (ISSUE 8 satellite): nested block comments.
    #[test]
    fn nested_block_comment_regressions_keep_positions() {
        // Two levels, text preserved, following token at position.
        let toks = lex("/* a /* b */ c */ qux();");
        assert_eq!(toks[0].comment(), Some(" a /* b */ c "));
        assert_eq!(toks[1].ident(), Some("qux"));
        // Three levels across lines.
        let toks = lex("/* 1 /* 2\n/* 3 */ 2 */ 1 */\nmarker();");
        let marker = toks.iter().find(|t| t.ident() == Some("marker")).unwrap();
        assert_eq!(marker.line, 3);
        // `/*/` does not self-close (the `/` belongs to the text).
        let toks = lex("/*/ tricky */ w();");
        assert_eq!(toks[0].comment(), Some("/ tricky "));
        assert_eq!(toks[1].ident(), Some("w"));
        // A `*/` inside a string inside code after the comment is inert.
        assert_eq!(strs("/* c */ let s = \"*/\";"), ["*/"]);
    }

    /// Raw identifiers normalize to their bare name: `r#fn` must not
    /// leak a `fn` keyword token into the symbol scanner.
    #[test]
    fn raw_identifiers_lex_as_one_ident() {
        let toks = lex("let r#fn = r#type; r#match();");
        let idents: Vec<&str> = toks.iter().filter_map(|t| t.ident()).collect();
        assert_eq!(idents, ["let", "fn", "type", "match"]);
        assert!(!toks.iter().any(|t| t.is_punct('#')));
        // But `r` alone, and raw strings, still lex as before.
        let toks = lex(r##"let r = 1; let s = r#"x"#;"##);
        assert!(toks.iter().any(|t| t.ident() == Some("r")));
        assert_eq!(strs(r##"let r = 1; let s = r#"x"#;"##), ["x"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(toks.iter().filter(|k| **k == TokKind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|k| **k == TokKind::Literal).count(), 2);
    }

    #[test]
    fn comments_keep_text_and_lines() {
        let toks = lex("// SAFETY: fine\nlet x = 1; /* outer /* nested */ still */\n");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[0].comment(), Some(" SAFETY: fine"));
        let block = toks.iter().find(|t| t.comment().is_some() && t.line == 2);
        assert!(block.is_some());
        assert!(block
            .and_then(|t| t.comment())
            .is_some_and(|c| c.contains("nested")));
    }

    #[test]
    fn line_numbers_advance_through_literals() {
        let toks = lex("let a = \"multi\nline\";\nfoo();");
        let foo = toks.iter().find(|t| t.ident() == Some("foo")).unwrap();
        assert_eq!(foo.line, 3);
    }

    #[test]
    fn comment_inside_string_is_not_a_comment() {
        let toks = lex(r#"let s = "// SAFETY: not a comment";"#);
        assert!(toks.iter().all(|t| t.comment().is_none()));
    }
}
