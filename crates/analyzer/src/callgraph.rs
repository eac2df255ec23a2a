//! Pass 2 of the workspace analysis: a conservative intra-workspace
//! call graph over the pass-1 symbol tables ([`crate::symbols`]), and
//! the transitive lints that walk it.
//!
//! ## Resolution policy
//!
//! The scanner sees identifiers, not types, so resolution is by name:
//!
//! - **Bare** `helper(…)` — free fns named `helper` in the same file,
//!   else every free fn named `helper` in the workspace.
//! - **Path** `qual::helper(…)` — `Self` maps to the calling impl's
//!   type; a capitalized qualifier selects that impl's associated fns;
//!   a lowercase qualifier filters free fns by file stem or crate
//!   (`step2::seed`, `psc_core::run`); `crate`/`super`/`self` filter
//!   to the calling crate or file.
//! - **Method** `x.helper(…)` — methods named `helper` taking a `self`
//!   receiver (associated constructors are unreachable from method
//!   syntax), preferring same-file impls, *except* names on the
//!   std-method exclusion list (`push`, `len`, `iter`, …) whose edges
//!   would be noise.
//!
//! Anything that resolves to nothing — std calls, closures, excluded
//! method names, over-ambiguous names (> [`AMBIG_CAP`] candidates) —
//! is **assumed safe and counted**: the driver prints the resolved
//! share of all call sites in its summary so the blind spot is
//! visible, not silent.
//!
//! ## Transitive lints
//!
//! From every fn of a configured hot/kernel module, a bounded-depth,
//! cycle-safe BFS marks reachable fns; their panic/telemetry facts
//! inherit the root's constraints and are reported with the full
//! call chain. Allocation uses a two-level taint: a helper reached
//! from inside a kernel loop may not allocate at all, a helper reached
//! from straight-line kernel code may not allocate in *its own* loops.
//! Files already covered by the file-local lint are skipped here, and
//! the ordinary waiver syntax applies at the fact's line.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::diag::Diagnostic;
use crate::lints::{LintSelection, HOT_PATH_NO_ALLOC, HOT_PATH_NO_PANIC, RECORDER_OFF_HOT_LOOP};
use crate::source::SourceFile;
use crate::symbols::{CallKind, FileSymbols, FnDef};

/// Reachability bound for the transitive lints: call chains longer than
/// this are not followed (8 covers the deepest real chain with slack).
pub const MAX_CALL_DEPTH: usize = 8;

/// A name with more workspace candidates than this resolves to nothing
/// (counted as unresolved): past that point the edges are noise that
/// would drown real chains, not conservatism.
const AMBIG_CAP: usize = 8;

/// Method names whose receiver is almost always a std type (`Vec`,
/// `Option`, slices, iterators, channels, …). Resolving these against
/// same-named workspace methods would wire `candidates.push(x)` to
/// `Fifo::push` and flood the graph; they are skipped and counted.
#[rustfmt::skip] // keep the dense sorted table greppable
const STD_METHODS: &[&str] = &[
    "all", "any", "as_bytes", "as_mut", "as_mut_ptr", "as_ptr", "as_ref", "as_slice", "as_str",
    "borrow", "borrow_mut", "chain", "chars", "checked_add", "checked_mul", "checked_sub",
    "chunks", "clear", "clone", "cmp", "contains", "contains_key", "copy_from_slice", "count",
    "drain", "entry", "enumerate", "eq", "err", "extend", "fill", "filter", "filter_map", "find",
    "first", "flat_map", "flatten", "flush", "fmt", "fold", "get", "get_mut", "get_or_insert_with",
    "hash", "insert", "into", "into_iter", "is_empty", "is_err", "is_none", "is_ok", "is_some",
    "iter", "iter_mut", "join", "keys", "last", "len", "lock", "map", "map_err", "max", "max_by",
    "max_by_key", "min", "min_by", "min_by_key", "next", "ok", "ok_or", "ok_or_else", "or_else",
    "parse", "partial_cmp", "position", "pow", "push", "push_str", "pop", "read", "recv",
    "replace", "resize", "retain", "rev", "saturating_add", "saturating_sub", "send", "skip",
    "sort", "sort_by", "sort_by_key", "sort_unstable", "sort_unstable_by",
    "sort_unstable_by_key", "spawn", "split", "split_at", "split_at_mut", "starts_with", "sum",
    "swap", "take", "then", "trim", "truncate", "try_into", "try_recv", "unwrap_or",
    "unwrap_or_default", "unwrap_or_else", "values", "windows", "wrapping_add", "wrapping_sub",
    "write", "write_all", "zip",
];

/// One resolved call edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    pub to: usize,
    pub line: u32,
    /// The call site sits inside a loop of the calling fn.
    pub in_loop: bool,
}

/// The workspace call graph over flattened fn nodes.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Node id of each file's first fn (`node = offsets[file] + fn`).
    offsets: Vec<usize>,
    /// File index of each node.
    file_of: Vec<usize>,
    /// Out-edges per node, in token order.
    pub edges: Vec<Vec<Edge>>,
    /// Total resolved edges (including multi-candidate fan-out).
    pub n_edges: usize,
    /// Call sites resolved to at least one fn.
    pub resolved: usize,
    /// Call sites resolved to nothing — assumed safe, counted.
    pub unresolved: usize,
}

impl CallGraph {
    pub fn n_nodes(&self) -> usize {
        self.file_of.len()
    }

    pub fn node(&self, file: usize, f: usize) -> usize {
        self.offsets[file] + f
    }

    /// `(file index, fn index)` of a node.
    pub fn loc(&self, node: usize) -> (usize, usize) {
        let file = self.file_of[node];
        (file, node - self.offsets[file])
    }
}

/// True when the fn takes part in the graph: test fns and bodyless
/// trait signatures contribute neither facts nor edges.
fn linkable(f: &FnDef) -> bool {
    f.has_body && !f.is_test
}

/// `psc_core` / `psc-core` → `core`, for crate-qualified paths.
fn crate_key(name: &str) -> String {
    let s = name.replace('-', "_");
    s.strip_prefix("psc_").map(str::to_string).unwrap_or(s)
}

/// Build the graph by resolving every call site of every fn.
pub fn build(files: &[FileSymbols]) -> CallGraph {
    let mut offsets = Vec::new();
    let mut file_of = Vec::new();
    for (fi, fs) in files.iter().enumerate() {
        offsets.push(file_of.len());
        file_of.extend(std::iter::repeat_n(fi, fs.fns.len()));
    }
    let n = file_of.len();
    let node = |fi: usize, k: usize| offsets[fi] + k;
    let fn_of = |nd: usize| -> &FnDef {
        let fi = file_of[nd];
        &files[fi].fns[nd - offsets[fi]]
    };
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); n];
    let mut n_edges = 0usize;
    let mut resolved = 0usize;
    let mut unresolved = 0usize;

    // Name indexes over linkable fns, in node order (deterministic).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (fi, fs) in files.iter().enumerate() {
        for (k, f) in fs.fns.iter().enumerate() {
            if !linkable(f) {
                continue;
            }
            by_name.entry(&f.name).or_default().push(node(fi, k));
            if let Some(q) = &f.qual {
                by_qual.entry((q, &f.name)).or_default().push(node(fi, k));
            }
        }
    }
    let free_only = |nodes: &[usize]| -> Vec<usize> {
        nodes
            .iter()
            .copied()
            .filter(|&nd| fn_of(nd).qual.is_none())
            .collect()
    };

    for (fi, fs) in files.iter().enumerate() {
        for (k, f) in fs.fns.iter().enumerate() {
            if !linkable(f) {
                continue;
            }
            let from = node(fi, k);
            for call in &f.calls {
                let name = call.name.as_str();
                let cands: Vec<usize> = match call.kind {
                    CallKind::Method => {
                        // `p.add(n)` in an `unsafe fn` (the SIMD
                        // kernels) is a raw-pointer offset, not
                        // `Recorder::add`; anywhere else it is followed.
                        if STD_METHODS.contains(&name) || (name == "add" && f.is_unsafe) {
                            unresolved += 1;
                            continue;
                        }
                        let all: Vec<usize> = by_name
                            .get(name)
                            .map(|nodes| {
                                nodes
                                    .iter()
                                    .copied()
                                    .filter(|&nd| {
                                        let o = fn_of(nd);
                                        // Associated fns without a
                                        // `self` receiver can't be the
                                        // target of method syntax.
                                        o.qual.is_some() && o.has_self
                                    })
                                    .collect()
                            })
                            .unwrap_or_default();
                        // Mirror the bare-call rule: a same-file method
                        // of that name beats same-named methods on
                        // unrelated types elsewhere in the workspace.
                        let local: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&nd| file_of[nd] == fi)
                            .collect();
                        if local.is_empty() {
                            all
                        } else {
                            local
                        }
                    }
                    CallKind::Bare => {
                        let local: Vec<usize> = fs
                            .fns
                            .iter()
                            .enumerate()
                            .filter(|(_, o)| linkable(o) && o.name == name && o.qual.is_none())
                            .map(|(ok, _)| node(fi, ok))
                            .collect();
                        if local.is_empty() {
                            free_only(by_name.get(name).map(Vec::as_slice).unwrap_or(&[]))
                        } else {
                            local
                        }
                    }
                    CallKind::Path => {
                        let Some(qual) = call.qual.as_deref() else {
                            // `<T as Trait>::f(…)` and friends.
                            unresolved += 1;
                            continue;
                        };
                        let qual = if qual == "Self" {
                            match f.qual.as_deref() {
                                Some(q) => q,
                                None => {
                                    unresolved += 1;
                                    continue;
                                }
                            }
                        } else {
                            qual
                        };
                        if qual.chars().next().is_some_and(|c| c.is_uppercase()) {
                            by_qual.get(&(qual, name)).cloned().unwrap_or_default()
                        } else {
                            let all =
                                free_only(by_name.get(name).map(Vec::as_slice).unwrap_or(&[]));
                            match qual {
                                "self" => all.into_iter().filter(|&nd| file_of[nd] == fi).collect(),
                                "crate" | "super" => all
                                    .into_iter()
                                    .filter(|&nd| files[file_of[nd]].crate_name == fs.crate_name)
                                    .collect(),
                                q => {
                                    let key = crate_key(q);
                                    all.into_iter()
                                        .filter(|&nd| {
                                            let ofs = &files[file_of[nd]];
                                            ofs.stem() == q || crate_key(&ofs.crate_name) == key
                                        })
                                        .collect()
                                }
                            }
                        }
                    }
                };
                if cands.is_empty() || cands.len() > AMBIG_CAP {
                    unresolved += 1;
                    continue;
                }
                resolved += 1;
                for to in cands {
                    if to == from {
                        continue; // direct recursion adds no reach
                    }
                    let dup = edges[from]
                        .iter()
                        .any(|e| e.to == to && e.in_loop == call.in_loop);
                    if !dup {
                        edges[from].push(Edge {
                            to,
                            line: call.line,
                            in_loop: call.in_loop,
                        });
                        n_edges += 1;
                    }
                }
            }
        }
    }
    CallGraph {
        offsets,
        file_of,
        edges,
        n_edges,
        resolved,
        unresolved,
    }
}

/// Everything pass 2 needs about the workspace, index-aligned.
#[derive(Debug)]
pub struct Workspace<'a> {
    pub files: &'a [SourceFile],
    pub sels: &'a [LintSelection],
    pub syms: &'a [FileSymbols],
}

/// Run the three transitive lints; diagnostics carry full call chains.
pub fn transitive_check(ws: &Workspace, g: &CallGraph, max_depth: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let roots = |pick: &dyn Fn(&LintSelection) -> bool| -> Vec<usize> {
        let mut r = Vec::new();
        for (fi, fs) in ws.syms.iter().enumerate() {
            if !pick(&ws.sels[fi]) {
                continue;
            }
            for (k, f) in fs.fns.iter().enumerate() {
                if linkable(f) {
                    r.push(g.node(fi, k));
                }
            }
        }
        r
    };

    out.extend(simple_reach(
        ws,
        g,
        max_depth,
        &roots(&|s| s.hot_module),
        |s| s.hot_module,
        HOT_PATH_NO_PANIC,
        |f| &f.facts.panics,
        "reachable from the hot path",
    ));
    out.extend(simple_reach(
        ws,
        g,
        max_depth,
        &roots(&|s| s.kernel_module),
        |s| s.kernel_module,
        RECORDER_OFF_HOT_LOOP,
        |f| &f.facts.telemetry,
        "reachable from a kernel module",
    ));
    out.extend(alloc_taint(
        ws,
        g,
        max_depth,
        &roots(&|s| s.no_alloc_module),
    ));
    out
}

/// BFS with parent pointers; first visit wins, so chains are shortest.
/// Returns `(parent, depth)` per node; unvisited nodes keep
/// `usize::MAX` depth, roots are their own parent.
fn bfs(g: &CallGraph, roots: &[usize], max_depth: usize) -> (Vec<usize>, Vec<usize>) {
    let mut parent = vec![usize::MAX; g.n_nodes()];
    let mut depth = vec![usize::MAX; g.n_nodes()];
    let mut queue = VecDeque::new();
    for &r in roots {
        if depth[r] == usize::MAX {
            depth[r] = 0;
            parent[r] = r;
            queue.push_back(r);
        }
    }
    while let Some(v) = queue.pop_front() {
        if depth[v] >= max_depth {
            continue;
        }
        for e in &g.edges[v] {
            if depth[e.to] == usize::MAX {
                depth[e.to] = depth[v] + 1;
                parent[e.to] = v;
                queue.push_back(e.to);
            }
        }
    }
    (parent, depth)
}

/// `step2.rs:run_bucketed → util.rs:merge → .unwrap()`.
fn chain_string(
    ws: &Workspace,
    g: &CallGraph,
    parent: &[usize],
    node: usize,
    what: &str,
) -> String {
    let mut hops = Vec::new();
    let mut v = node;
    loop {
        let (fi, k) = g.loc(v);
        hops.push(format!(
            "{}:{}",
            ws.syms[fi].basename(),
            ws.syms[fi].fns[k].display()
        ));
        if parent[v] == v || parent[v] == usize::MAX {
            break;
        }
        v = parent[v];
    }
    hops.reverse();
    hops.push(what.to_string());
    hops.join(" → ")
}

/// The shared shape of the panic / telemetry transitive lints:
/// flag `facts(fn)` on every fn reachable from `roots`, skipping files
/// where `covered_locally` says the file-local lint already polices
/// the same fact, honoring waivers at the fact's line.
#[allow(clippy::too_many_arguments)]
fn simple_reach<'a>(
    ws: &'a Workspace,
    g: &CallGraph,
    max_depth: usize,
    roots: &[usize],
    covered_locally: impl Fn(&LintSelection) -> bool,
    lint: &'static str,
    facts: impl Fn(&'a FnDef) -> &'a [crate::symbols::Fact],
    whence: &str,
) -> Vec<Diagnostic> {
    let (parent, depth) = bfs(g, roots, max_depth);
    let mut out = Vec::new();
    for (v, &d) in depth.iter().enumerate() {
        if d == usize::MAX || d == 0 {
            continue;
        }
        let (fi, k) = g.loc(v);
        if covered_locally(&ws.sels[fi]) {
            continue;
        }
        for fact in facts(&ws.syms[fi].fns[k]) {
            if ws.files[fi].waived(lint, fact.line) {
                continue;
            }
            out.push(Diagnostic::new(
                &ws.syms[fi].path,
                fact.line,
                lint,
                format!(
                    "{} {whence}: {}",
                    fact.what,
                    chain_string(ws, g, &parent, v, &fact.what)
                ),
            ));
        }
    }
    out
}

/// Two-level allocation taint over `(fn, called-inside-a-loop)` states.
/// A helper reached from inside a kernel loop inherits the full ban;
/// one reached from straight-line kernel code only has its *own* loop
/// allocations flagged (they run per-iteration wherever the helper
/// lands). States double the node space; parents are per-state so the
/// chain shown is the one that actually carries the loop context.
fn alloc_taint(
    ws: &Workspace,
    g: &CallGraph,
    max_depth: usize,
    roots: &[usize],
) -> Vec<Diagnostic> {
    let n = g.n_nodes();
    let state = |v: usize, in_loop: bool| v * 2 + in_loop as usize;
    let mut parent = vec![usize::MAX; n * 2];
    let mut depth = vec![usize::MAX; n * 2];
    let mut queue = VecDeque::new();
    for &r in roots {
        let s = state(r, false);
        if depth[s] == usize::MAX {
            depth[s] = 0;
            parent[s] = s;
            queue.push_back(s);
        }
    }
    while let Some(s) = queue.pop_front() {
        if depth[s] >= max_depth {
            continue;
        }
        let (v, in_loop) = (s / 2, s % 2 == 1);
        for e in &g.edges[v] {
            let ns = state(e.to, in_loop || e.in_loop);
            if depth[ns] == usize::MAX {
                depth[ns] = depth[s] + 1;
                parent[ns] = s;
                queue.push_back(ns);
            }
        }
    }

    // Per fact, prefer the in-loop state's chain (it explains the
    // stricter verdict); report each file:line once.
    let mut seen: BTreeSet<(usize, u32)> = BTreeSet::new();
    let mut out = Vec::new();
    for v in 0..n {
        let (fi, k) = g.loc(v);
        if ws.sels[fi].no_alloc_module {
            continue;
        }
        for &in_loop in &[true, false] {
            let s = state(v, in_loop);
            if depth[s] == usize::MAX || depth[s] == 0 {
                continue;
            }
            let chain_parent = |node_state: usize| -> Vec<usize> {
                // Decode the state chain into node hops for display.
                let mut hops = Vec::new();
                let mut cur = node_state;
                loop {
                    hops.push(cur / 2);
                    if parent[cur] == cur || parent[cur] == usize::MAX {
                        break;
                    }
                    cur = parent[cur];
                }
                hops.reverse();
                hops
            };
            for fact in &ws.syms[fi].fns[k].facts.allocs {
                if !in_loop && !fact.in_loop {
                    continue; // straight-line alloc in a helper called once
                }
                if !seen.insert((fi, fact.line)) {
                    continue;
                }
                if ws.files[fi].waived(HOT_PATH_NO_ALLOC, fact.line) {
                    continue;
                }
                let mut hops: Vec<String> = chain_parent(s)
                    .into_iter()
                    .map(|node| {
                        let (hfi, hk) = g.loc(node);
                        format!(
                            "{}:{}",
                            ws.syms[hfi].basename(),
                            ws.syms[hfi].fns[hk].display()
                        )
                    })
                    .collect();
                hops.push(fact.what.clone());
                let context = if in_loop {
                    "helper called from a kernel loop"
                } else {
                    "loop inside a helper on the kernel path"
                };
                out.push(Diagnostic::new(
                    &ws.syms[fi].path,
                    fact.line,
                    HOT_PATH_NO_ALLOC,
                    format!(
                        "{} allocates on a kernel path ({context}): {}",
                        fact.what,
                        hops.join(" → ")
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::scan;

    /// Build a tiny workspace from `(path, crate, src)` triples with
    /// the first file treated as the hot/kernel module.
    fn ws_check(sources: &[(&str, &str, &str)]) -> (Vec<Diagnostic>, CallGraph) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, c, s)| SourceFile::new(p, c, s))
            .collect();
        let syms: Vec<FileSymbols> = files.iter().map(scan).collect();
        let sels: Vec<LintSelection> = sources
            .iter()
            .enumerate()
            .map(|(i, _)| LintSelection {
                hot_module: i == 0,
                kernel_module: i == 0,
                no_alloc_module: i == 0,
            })
            .collect();
        let g = build(&syms);
        let ws = Workspace {
            files: &files,
            sels: &sels,
            syms: &syms,
        };
        let diags = transitive_check(&ws, &g, MAX_CALL_DEPTH);
        (diags, g)
    }

    #[test]
    fn two_hop_unwrap_reports_the_full_chain() {
        let (diags, _) = ws_check(&[
            (
                "crates/core/src/step2.rs",
                "core",
                "pub fn run_bucketed() { middle(); }\n",
            ),
            (
                "crates/core/src/mid.rs",
                "core",
                "pub fn middle() { merge(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                "core",
                "pub fn merge() { x.unwrap(); }\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.lint, HOT_PATH_NO_PANIC);
        assert_eq!(d.file, "crates/core/src/util.rs");
        assert!(
            d.message
                .contains("step2.rs:run_bucketed → mid.rs:middle → util.rs:merge → .unwrap()"),
            "{}",
            d.message
        );
    }

    #[test]
    fn cycles_terminate_and_still_report() {
        let (diags, _) = ws_check(&[
            (
                "crates/core/src/step2.rs",
                "core",
                "pub fn kernel() { ping(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                "core",
                "pub fn ping() { pong(); }\npub fn pong() { ping(); leaf(); }\npub fn leaf() { panic!(\"boom\"); }\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("panic!"), "{}", diags[0].message);
    }

    #[test]
    fn depth_bound_cuts_reachability() {
        let sources = [
            (
                "crates/core/src/step2.rs",
                "core",
                "pub fn kernel() { h1(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                "core",
                "pub fn h1() { h2(); }\npub fn h2() { h3(); }\npub fn h3() { x.unwrap(); }\n",
            ),
        ];
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, c, s)| SourceFile::new(p, c, s))
            .collect();
        let syms: Vec<FileSymbols> = files.iter().map(scan).collect();
        let sels = vec![
            LintSelection {
                hot_module: true,
                ..LintSelection::default()
            },
            LintSelection::default(),
        ];
        let g = build(&syms);
        let ws = Workspace {
            files: &files,
            sels: &sels,
            syms: &syms,
        };
        assert_eq!(transitive_check(&ws, &g, 3).len(), 1);
        assert_eq!(transitive_check(&ws, &g, 2).len(), 0);
    }

    #[test]
    fn alloc_taint_distinguishes_loop_context() {
        let (diags, _) = ws_check(&[
            (
                "crates/core/src/step2.rs",
                "core",
                "pub fn kernel() {\n    setup();\n    for i in 0..n {\n        inner();\n    }\n}\n",
            ),
            (
                "crates/core/src/util.rs",
                "core",
                "pub fn setup() {\n    let v = Vec::new();\n    for j in 0..m {\n        let w = vec![j];\n    }\n}\npub fn inner() {\n    let v = Vec::with_capacity(4);\n}\n",
            ),
        ]);
        // setup(): line-2 Vec::new is straight-line in a helper called
        // once — allowed; line-4 vec! is in setup's own loop — flagged.
        // inner(): called from the kernel loop — all allocs flagged.
        let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(lines.contains(&4) && lines.contains(&8), "{diags:?}");
        assert!(
            diags.iter().all(|d| d.lint == HOT_PATH_NO_ALLOC),
            "{diags:?}"
        );
    }

    #[test]
    fn method_and_self_calls_resolve_through_impls() {
        let (diags, g) = ws_check(&[
            (
                "crates/rasc/src/operator.rs",
                "rasc",
                "impl Operator {\n    pub fn run(&mut self) { self.drain_words(); }\n}\n",
            ),
            (
                "crates/rasc/src/fifo.rs",
                "rasc",
                "impl Operator {\n    pub fn drain_words(&mut self) { Self::tick(); }\n    fn tick() { q.expect(\"msg\"); }\n}\n",
            ),
        ]);
        assert!(g.n_edges >= 2, "edges: {}", g.n_edges);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0]
                .message
                .contains("fifo.rs:Operator::tick → .expect()"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn method_calls_skip_selfless_fns_and_prefer_same_file_impls() {
        // `p.build(…)` must not reach `SeedIndex::build` (no `self`
        // receiver), and `p.window_len()` must bind the same-file
        // method, not the same-named one on an unrelated type.
        let (diags, g) = ws_check(&[
            (
                "crates/core/src/step2.rs",
                "core",
                "fn run() { p.build(m); p.window_len(); }\nimpl Params {\n    fn window_len(&self) -> usize { 4 }\n}\n",
            ),
            (
                "crates/index/src/table.rs",
                "index",
                "impl SeedIndex {\n    pub fn build(flat: &Flat) { q.expect(\"io\"); }\n}\nimpl Config {\n    pub fn window_len(&self) -> usize { w.unwrap() }\n}\n",
            ),
        ]);
        assert_eq!(diags.len(), 0, "{diags:?}");
        assert_eq!(g.unresolved, 1, "p.build should be unresolved");
    }

    #[test]
    fn cross_crate_paths_resolve_by_crate_and_stem() {
        let (diags, _) = ws_check(&[
            (
                "crates/core/src/step2.rs",
                "core",
                "pub fn kernel() { psc_align::score_all(); ungapped::seed_scan(); }\n",
            ),
            (
                "crates/align/src/batch.rs",
                "align",
                "pub fn score_all() { a.unwrap(); }\n",
            ),
            (
                "crates/align/src/ungapped.rs",
                "align",
                "pub fn seed_scan() { b.unwrap(); }\n",
            ),
        ]);
        assert_eq!(diags.len(), 2, "{diags:?}");
    }

    #[test]
    fn std_methods_and_unknowns_are_counted_unresolved() {
        let (_, g) = ws_check(&[(
            "crates/core/src/step2.rs",
            "core",
            "pub fn kernel() { v.push(1); v.len(); external_fn(); }\n",
        )]);
        assert_eq!(g.n_edges, 0);
        assert_eq!(g.unresolved, 3);
    }

    #[test]
    fn add_is_a_pointer_offset_only_inside_an_unsafe_fn() {
        let recorder = (
            "crates/telemetry/src/recorder.rs",
            "telemetry",
            "impl MemRecorder { pub fn add(&self) { x.unwrap(); } }\n",
        );
        let kernel = |body: &'static str| ("crates/align/src/batch.rs", "align", body);
        let (diags, _) = ws_check(&[
            kernel("pub unsafe fn score_all(p: *const u8) { p.add(1); }\n"),
            recorder,
        ]);
        assert!(diags.is_empty(), "{diags:?}");
        let (diags, _) = ws_check(&[kernel("pub fn score_all() { rec.add(1); }\n"), recorder]);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn waiver_at_the_fact_line_suppresses_the_transitive_finding() {
        let (diags, _) = ws_check(&[
            (
                "crates/core/src/step2.rs",
                "core",
                "pub fn kernel() { helper(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                "core",
                "pub fn helper() {\n    // analyzer: allow(hot-path-no-panic) -- slot checked by caller\n    x.unwrap();\n}\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn telemetry_reach_flags_recorder_touches() {
        let (diags, _) = ws_check(&[
            (
                "crates/core/src/step2.rs",
                "core",
                "pub fn kernel() { notify(); }\n",
            ),
            (
                "crates/core/src/pipeline.rs",
                "core",
                "pub fn notify() { rec.observe(\"step2.pairs\", 1); }\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].lint, RECORDER_OFF_HOT_LOOP);
    }
}
