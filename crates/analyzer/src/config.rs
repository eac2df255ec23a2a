//! Hand-rolled parser for `analyzer.toml`.
//!
//! The build container is offline, so no TOML crate: this reads exactly
//! the subset the checked-in config uses — `[section]` headers, string
//! scalars, and (possibly multi-line) string arrays, with `#` comments.
//! Unknown sections and keys are errors: a typoed lint name must not
//! silently disable a gate. Every item remembers the config line it
//! was written on, so the `config-integrity` lint can anchor "this
//! path does not exist" diagnostics to `analyzer.toml:<line>`.

use std::collections::BTreeMap;

/// One configured value: a scalar is a one-element list. `lines[i]` is
/// the 1-based config line `items[i]` sits on.
#[derive(Clone, Debug, Default)]
struct Value {
    items: Vec<String>,
    lines: Vec<u32>,
}

/// Parsed configuration: every value is a list of strings (a scalar is
/// a one-element list).
#[derive(Clone, Debug, Default)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, Value>>,
}

/// Section/key names the analyzer understands, used to reject typos.
const KNOWN: &[(&str, &[&str])] = &[
    ("lint.unsafe-scope", &["allow_unsafe_crates"]),
    ("lint.hot-path-no-panic", &["hot_modules"]),
    ("lint.recorder-off-hot-loop", &["kernel_modules"]),
    ("lint.hot-path-no-alloc", &["kernel_modules"]),
    ("lint.telemetry-key-registry", &["registry"]),
];

impl Config {
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((i, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                if !KNOWN.iter().any(|(s, _)| *s == section) {
                    return Err(format!("line {}: unknown section [{section}]", i + 1));
                }
                cfg.sections.entry(section.clone()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "line {}: expected `key = value`, got {raw:?}",
                    i + 1
                ));
            };
            let key = key.trim().to_string();
            let known_keys = KNOWN
                .iter()
                .find(|(s, _)| *s == section)
                .map(|(_, keys)| *keys)
                .ok_or_else(|| format!("line {}: key outside any section", i + 1))?;
            if !known_keys.contains(&key.as_str()) {
                return Err(format!(
                    "line {}: unknown key {key:?} in [{section}]",
                    i + 1
                ));
            }
            // Gather the value as (text, line) segments: a scalar or
            // one-line array is a single segment; a multi-line array
            // contributes one segment per physical line, so each item
            // keeps the line it was written on.
            let mut segments: Vec<(String, u32)> = vec![(value.trim().to_string(), i as u32 + 1)];
            if value.trim().starts_with('[') {
                while !segments
                    .last()
                    .map(|(s, _)| s.as_str())
                    .unwrap_or("")
                    .ends_with(']')
                {
                    let Some((j, next)) = lines.next() else {
                        return Err(format!("line {}: unterminated array for {key}", i + 1));
                    };
                    segments.push((strip_comment(next).trim().to_string(), j as u32 + 1));
                }
            }
            let parsed = parse_segments(&segments)
                .map_err(|e| format!("line {}: bad value for {key}: {e}", i + 1))?;
            cfg.sections
                .entry(section.clone())
                .or_default()
                .insert(key, parsed);
        }
        Ok(cfg)
    }

    /// The list under `[section] key`, empty if absent.
    pub fn list(&self, section: &str, key: &str) -> &[String] {
        self.sections
            .get(section)
            .and_then(|s| s.get(key))
            .map(|v| v.items.as_slice())
            .unwrap_or(&[])
    }

    /// The same list with each item's `analyzer.toml` line.
    pub fn items(&self, section: &str, key: &str) -> Vec<(&str, u32)> {
        self.sections
            .get(section)
            .and_then(|s| s.get(key))
            .map(|v| {
                v.items
                    .iter()
                    .map(String::as_str)
                    .zip(v.lines.iter().copied())
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Drop a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// A quoted scalar, or an array of quoted scalars split across the
/// given `(text, line)` segments.
fn parse_segments(segments: &[(String, u32)]) -> Result<Value, String> {
    let first = segments[0].0.trim();
    if !first.starts_with('[') {
        let mut v = Value::default();
        v.items.push(unquote(first)?);
        v.lines.push(segments[0].1);
        return Ok(v);
    }
    let mut v = Value::default();
    for (idx, (text, line)) in segments.iter().enumerate() {
        let mut text = text.trim();
        if idx == 0 {
            text = text.strip_prefix('[').unwrap_or(text).trim();
        }
        if idx == segments.len() - 1 {
            text = text
                .strip_suffix(']')
                .ok_or_else(|| format!("expected `]`, got {text:?}"))?
                .trim();
        }
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            v.items.push(unquote(part)?);
            v.lines.push(*line);
        }
    }
    Ok(v)
}

fn unquote(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let cfg = Config::parse(
            r#"
# comment
[lint.unsafe-scope]
allow_unsafe_crates = ["align", "index"] # trailing comment

[lint.hot-path-no-panic]
hot_modules = [
    "crates/core/src/step2.rs",
    "crates/align/src/batch.rs",
]
"#,
        )
        .unwrap();
        assert_eq!(
            cfg.list("lint.unsafe-scope", "allow_unsafe_crates"),
            ["align", "index"]
        );
        assert_eq!(
            cfg.list("lint.hot-path-no-panic", "hot_modules"),
            ["crates/core/src/step2.rs", "crates/align/src/batch.rs"]
        );
        assert!(cfg
            .list("lint.telemetry-key-registry", "registry")
            .is_empty());
    }

    #[test]
    fn items_carry_their_config_lines() {
        let cfg = Config::parse(
            "[lint.telemetry-key-registry]\nregistry = \"keys.rs\"\n[lint.hot-path-no-panic]\nhot_modules = [\n    \"a.rs\",\n    \"b.rs\", \"c.rs\",\n]\n",
        )
        .unwrap();
        assert_eq!(
            cfg.items("lint.telemetry-key-registry", "registry"),
            [("keys.rs", 2)]
        );
        assert_eq!(
            cfg.items("lint.hot-path-no-panic", "hot_modules"),
            [("a.rs", 5), ("b.rs", 6), ("c.rs", 6)]
        );
    }

    #[test]
    fn rejects_unknown_sections_and_keys() {
        assert!(Config::parse("[lint.nonsense]\n").is_err());
        assert!(Config::parse("[lint.hot-path-no-panic]\ntypo = [\"x\"]\n").is_err());
        // Sections of rules that moved into the compiler's lint tables.
        assert!(Config::parse("[lint.determinism]\n").is_err());
        assert!(Config::parse("[workspace]\nmax_call_depth = \"8\"\n").is_err());
        assert!(Config::parse("orphan = \"x\"\n").is_err());
    }

    #[test]
    fn rejects_unquoted_values() {
        assert!(Config::parse("[lint.telemetry-key-registry]\nregistry = keys.rs\n").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg =
            Config::parse("[lint.telemetry-key-registry]\nregistry = \"ke#ys.rs\"\n").unwrap();
        assert_eq!(
            cfg.list("lint.telemetry-key-registry", "registry"),
            ["ke#ys.rs"]
        );
    }
}
