//! The measuring child: the program under test plus timers.
//!
//! It is handed a directory of generated files and nothing else, runs
//! the workload for the asked number of seconds, and prints one JSON
//! report: raw samples, the digest of every operation's output, what it
//! recalled of the plants, and its own peak memory. Judging the digests
//! is the parent's job (`runner`), which also made the inputs — so this
//! process's memory is the program's, not the generator's or oracle's.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::gen::QUERY_PROTEINS;
use crate::host;
use crate::json::Json;
use crate::layers::{
    self, Answer, Bank, Config, MatchRow, PreparedBank, SearchEngine, Setup, Threads,
};
use crate::stats::{digest_lines, median, nearest_rank, percentile};
use crate::trace::Trace;
use crate::workloads::{Kind, Workload, CLOSURE_TOLERANCE_PCT, PER_LAYER, WORKERS};

/// The files a set-up leaves in the work directory.
#[derive(Clone, Debug)]
pub struct Files {
    pub proteins: PathBuf,
    pub genome: PathBuf,
    pub expected: PathBuf,
    pub bundle: PathBuf,
}

impl Files {
    pub fn in_dir(dir: &Path) -> Files {
        Files {
            proteins: dir.join("proteins.fasta"),
            genome: dir.join("genome.fasta"),
            expected: dir.join("expected.tsv"),
            bundle: dir.join("genome.bundle"),
        }
    }
}

/// One `(protein, plant)` pair a perfect search reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub protein_id: String,
    pub start: usize,
    pub end: usize,
    pub forward: bool,
}

impl Expected {
    pub fn tsv_line(&self) -> String {
        let strand = if self.forward { '+' } else { '-' };
        format!(
            "{}\t{}\t{}\t{strand}\n",
            self.protein_id, self.start, self.end
        )
    }

    fn parse(line: &str) -> Option<Expected> {
        let mut f = line.split('\t');
        Some(Expected {
            protein_id: f.next()?.to_string(),
            start: f.next()?.parse().ok()?,
            end: f.next()?.parse().ok()?,
            forward: f.next()? == "+",
        })
    }

    /// Found when a match of the right protein overlaps the plant on
    /// the plant's strand.
    pub fn found_in(&self, rows: &[MatchRow]) -> bool {
        rows.iter().any(|r| {
            r.protein_id == self.protein_id
                && r.forward == self.forward
                && r.genome_start < self.end
                && self.start < r.genome_end
        })
    }
}

fn read_expected(path: &Path) -> Result<Vec<Expected>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .lines()
        .map(|l| Expected::parse(l).ok_or_else(|| format!("{}: bad line {l:?}", path.display())))
        .collect()
}

/// Digest of the matches of every `stride`-th protein (the ones the
/// sampled oracle re-searches); of every match for `stride` 1.
pub fn sampled_digest(rows: &[MatchRow], stride: usize) -> u64 {
    let mut lines: Vec<String> = rows
        .iter()
        .filter(|r| r.protein_idx % stride == 0)
        .map(|r| r.line.clone())
        .collect();
    digest_lines(&mut lines)
}

/// Digest of every match.
pub fn digest(rows: &[MatchRow]) -> u64 {
    sampled_digest(rows, 1)
}

/// Named samples; a metric is the median of its samples.
#[derive(Debug, Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn all(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median, or 0 for a value this workload does not have.
    fn med(&self, name: &str) -> f64 {
        match self.all(name) {
            [] => 0.0,
            v => median(v),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(k, v)| (*k, Json::nums(v))))
    }
}

/// `a / b`, or 0 where the workload has no `b`.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What the parent needs to judge the run.
#[derive(Debug, Default)]
struct Verdict {
    /// Operations attempted (searches or queries), warm-ups included.
    attempted: usize,
    /// Operations that returned an error.
    errors: usize,
    /// One-shot: operations whose output differs from the first one's.
    unlike_reference: usize,
    /// Why the run cannot count, beyond failed operations.
    problems: Vec<String>,
}

pub struct ChildArgs {
    pub workload: &'static Workload,
    pub dir: PathBuf,
    pub seconds: f64,
    pub traced: bool,
    /// Where the traced run writes its spans.
    pub trace_file: PathBuf,
    pub seed: u64,
}

pub fn run(args: &ChildArgs) -> Result<Json, String> {
    let files = Files::in_dir(&args.dir);
    let expected = read_expected(&files.expected)?;
    let mut report = match (args.workload.kind, args.traced) {
        (Kind::OneShot, false) => oneshot(args, &files, &expected)?,
        (Kind::OneShot, true) => oneshot_traced(args, &files, &expected)?,
        (Kind::Served, false) => served(args, &files, &expected)?,
        (Kind::Served, true) => served_traced(args, &files, &expected)?,
    };
    // At exit, for the record; the one-shot run has already taken its
    // `peak_rss_mb` after the warm-ups.
    let at_exit = host::peak_rss_mb().map_or(Json::Null, Json::Num);
    if report.get("peak_rss_mb").is_none() {
        report.set("peak_rss_mb", at_exit.clone());
    }
    report.set("peak_rss_at_exit_mb", at_exit);
    Ok(report)
}

/// The child's report: what the workload produced (`outcome`), the
/// raw samples, the per-layer metrics of a traced run, and the verdict.
fn report(
    mut outcome: Json,
    samples: &Samples,
    layers: Option<Vec<(&'static str, f64)>>,
    verdict: &Verdict,
) -> Json {
    outcome.set("samples", samples.to_json());
    if let Some(layers) = layers {
        let layers = layers.into_iter().map(|(k, v)| (k, Json::Num(v)));
        outcome.set("layers", Json::obj(layers));
    }
    outcome.set("attempted", Json::Num(verdict.attempted as f64));
    outcome.set("errors", Json::Num(verdict.errors as f64));
    outcome.set(
        "unlike_reference",
        Json::Num(verdict.unlike_reference as f64),
    );
    outcome.set(
        "problems",
        Json::Arr(verdict.problems.iter().map(Json::str).collect()),
    );
    outcome
}

// ---- one-shot workloads --------------------------------------------

/// Fewest timed repeats of each configuration, whatever `--seconds` is.
const MIN_REPEATS: usize = 3;

/// The reference operation: its digests and the counts that go into
/// `golden.json`.
fn reference_json(answer: &Answer, stride: usize, expected: &[Expected]) -> (u64, Json) {
    let rows = answer.rows();
    let (full, sampled) = (digest(&rows), sampled_digest(&rows, stride));
    let found = expected.iter().filter(|e| e.found_in(&rows)).count();
    let f = answer.facts();
    let json = Json::obj([
        ("digest", Json::hex(full)),
        ("sampled_digest", Json::hex(sampled)),
        ("pairs", Json::Num(f.pairs)),
        ("candidates", Json::Num(f.candidates)),
        ("anchors", Json::Num(f.anchors)),
        ("hsps", Json::Num(f.hsps)),
        ("found", Json::Num(found as f64)),
        ("expected", Json::Num(expected.len() as f64)),
    ]);
    (full, json)
}

impl Verdict {
    /// Book one operation: an error, or an answer that must reproduce
    /// the reference digest.
    fn book(&mut self, out: Result<&Answer, &String>, reference: u64) {
        self.attempted += 1;
        match out {
            Ok(answer) => {
                if digest(&answer.rows()) != reference {
                    self.unlike_reference += 1;
                }
            }
            Err(e) => {
                self.errors += 1;
                self.problems.push(e.clone());
            }
        }
    }
}

fn oneshot(args: &ChildArgs, files: &Files, expected: &[Expected]) -> Result<Json, String> {
    let w = args.workload;
    let configs = [
        ("serial_s", layers::config(w.setup, Threads::One)),
        ("parallel_s", layers::config(w.setup, Threads::Two)),
    ];
    let mut verdict = Verdict::default();

    // Warm-up, discarded as a timing; its output is the reference every
    // later repeat must reproduce and the parent checks with the oracle.
    let (_, answer) = layers::search(&files.proteins, &files.genome, configs[0].1.clone())?;
    verdict.attempted += 1;
    let (reference, reference_json) = reference_json(&answer, w.oracle_sample, expected);
    drop(answer);
    let warm_up = layers::search(&files.proteins, &files.genome, configs[1].1.clone());
    verdict.book(warm_up.as_ref().map(|(_, answer)| answer), reference);
    drop(warm_up);
    // Peak memory of one search under each configuration in a fresh
    // process. Read here, not at exit: dozens of alternating searches
    // later the high-water mark also holds what the allocator's
    // per-thread arenas happened to keep, which does not repeat.
    let peak_rss_mb = host::peak_rss_mb();

    let mut samples = Samples::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut repeats = 0;
    while repeats < MIN_REPEATS || Instant::now() < deadline {
        for (name, cfg) in &configs {
            let t = Instant::now();
            let out = layers::search(&files.proteins, &files.genome, cfg.clone());
            let wall = t.elapsed().as_secs_f64();
            if out.is_ok() {
                samples.push(name, wall);
            }
            verdict.book(out.as_ref().map(|(_, answer)| answer), reference);
        }
        repeats += 1;
    }

    let outcome = Json::obj([
        ("reference", reference_json),
        ("peak_rss_mb", peak_rss_mb.map_or(Json::Null, Json::Num)),
    ]);
    Ok(report(outcome, &samples, None, &verdict))
}

/// Fewest rounds of the traced run.
const MIN_ROUNDS: usize = 2;
/// One-protein queries per round (`engine.query_1prot_ms`).
const ONE_PROTEIN_QUERIES: usize = 5;

/// Spans whose self times are the layers of one search; their sum is
/// compared with the wall of the search they were taken from.
const SEARCH_LAYERS: [&str; 7] = [
    "seqio.parse",
    "seqio.translate",
    "index.build_t1",
    "index.build_t0",
    "step2",
    "step3",
    "gff.format",
];

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// What one traced search leaves behind for the stage measurements.
struct Searched {
    bank: Bank,
    genome: layers::Seq,
    engine: SearchEngine,
}

/// One search with a span around every call into a layer: the same
/// calls, in the same order, as [`layers::search`].
fn traced_search(
    trace: &mut Trace,
    s: &mut Samples,
    run: u32,
    files: &Files,
    cfg: &Config,
) -> Result<(Searched, Answer), String> {
    let (out, traced_s) = trace.span("search", run, |t| {
        let (bank, _) = t.span("seqio.parse", run, |_| {
            layers::read_proteins(&files.proteins)
        });
        let (genome, _) = t.span("seqio.parse", run, |_| layers::read_genome(&files.genome));
        let (bank, genome) = (bank?, genome?);
        let (translated, _) = t.span("seqio.translate", run, |_| layers::translate(&genome));
        let (engine, build_s) = t.span("index.build_t1", run, |_| {
            layers::engine_from_translated(translated, cfg.clone())
        });
        let (answer, query_s) = t.span("engine.query", run, |t| {
            let answer = layers::query(&engine, &bank)?;
            let f = answer.facts();
            // The program's own account of the query. Its step 1 covers
            // both sides; the genome side is the span just closed.
            t.reported_children(&[
                ("index.build_t0", (f.step1_s - build_s).max(0.0)),
                ("step2", f.step2_wall_s),
                ("step3", f.step3_s),
            ]);
            for (key, value) in [
                ("pairs", f.pairs),
                ("candidates", f.candidates),
                ("anchors", f.anchors),
                ("hsps", f.hsps),
            ] {
                t.count(key, value);
                s.push(key, value);
            }
            s.push("step1_s", f.step1_s);
            Ok::<_, String>(answer)
        });
        let answer = answer?;
        s.push("query_s", query_s);
        let (text, _) = t.span("gff.format", run, |_| layers::gff(&engine, &answer));
        s.push("gff_bytes", text.len() as f64);
        Ok::<_, String>((
            Searched {
                bank,
                genome,
                engine,
            },
            answer,
        ))
    });
    s.push("traced_s", traced_s);
    let layer = |name| trace.self_time_of(name, run);
    s.push("layers_sum_s", SEARCH_LAYERS.iter().map(|n| layer(n)).sum());
    s.push("parse_s", layer("seqio.parse"));
    s.push("translate_s", layer("seqio.translate"));
    s.push(
        "engine_build_s",
        layer("seqio.translate") + layer("index.build_t1"),
    );
    s.push("step2_in_query_s", layer("step2"));
    s.push("step3_s", layer("step3"));
    s.push("gff_s", layer("gff.format"));
    out
}

/// Step 2 on its own over prepared banks: the scored walk, the gather
/// replayed without scoring, and the kernel over windows gathered
/// beforehand. Returns the pairs the walk scored.
fn step2_alone(
    t: &mut Trace,
    s: &mut Samples,
    run: u32,
    cfg: &Config,
    prep0: &PreparedBank,
    prep1: &PreparedBank,
) -> f64 {
    s.push("index_pair_count", layers::pair_count(prep0, prep1));
    let ((pairs, candidates, active), _) = t.span("stage.step2", run, |_| {
        layers::step2_software(cfg, prep0, prep1, 1)
    });
    s.push("step2_pairs", pairs);
    s.push("step2_candidates", candidates);
    s.push("step2_active_keys", active);
    let (bytes, _) = t.span("stage.gather_replay", run, |_| {
        layers::gather_replay(cfg, prep0, prep1)
    });
    s.push("gather_bytes", bytes);
    let input = layers::kernel_input(cfg, prep0, prep1);
    let (kernel_pairs, _) = t.span("stage.kernel", run, |_| input.score_all());
    s.push("kernel_pairs", kernel_pairs);
    pairs
}

/// The same query with the library's telemetry off and on; which goes
/// first alternates with `run`, so that going second favours neither.
fn telemetry_pair(
    t: &mut Trace,
    run: u32,
    engine: &SearchEngine,
    bank: &Bank,
) -> [Result<Answer, String>; 2] {
    let null = |t: &mut Trace| {
        t.span("stage.query_null", run, |_| layers::query(engine, bank))
            .0
    };
    let recorded = |t: &mut Trace| {
        t.span("stage.query_recorded", run, |_| {
            layers::query_recorded(engine, bank)
        })
        .0
    };
    if run.is_multiple_of(2) {
        [null(t), recorded(t)]
    } else {
        let second = recorded(t);
        [null(t), second]
    }
}

fn oneshot_traced(args: &ChildArgs, files: &Files, expected: &[Expected]) -> Result<Json, String> {
    let w = args.workload;
    let one = layers::config(w.setup, Threads::One);
    let two = layers::config(w.setup, Threads::Two);
    let mut verdict = Verdict::default();
    let mut s = Samples::default();
    let mut trace = Trace::new(Instant::now());

    let (_, answer) = layers::search(&files.proteins, &files.genome, one.clone())?;
    verdict.attempted += 1;
    let (reference, reference_json) = reference_json(&answer, w.oracle_sample, expected);
    drop(answer);

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut run = 0u32;
    while (run as usize) < MIN_ROUNDS || Instant::now() < deadline {
        // The untraced search: what the layers have to add up to.
        let t = Instant::now();
        let out = layers::search(&files.proteins, &files.genome, one.clone());
        s.push("untraced_s", t.elapsed().as_secs_f64());
        verdict.book(out.as_ref().map(|(_, answer)| answer), reference);
        drop(out);

        let (
            Searched {
                bank,
                genome,
                engine,
            },
            answer,
        ) = traced_search(&mut trace, &mut s, run, files, &one)?;
        verdict.book(Ok(&answer), reference);
        if let Some(board) = answer.facts().board {
            for (key, value) in board.named() {
                s.push(key, value);
            }
        }
        drop(answer);

        // Each stage on its own, over the same inputs.
        trace
            .span("stages", run, |t| -> Result<(), String> {
                let frames = layers::frames_bank(&layers::translate(&genome));
                let (prep1, _) = t.span("stage.prepare_t1", run, |_| {
                    layers::prepare(&one, 1, &frames)
                });
                let (prep0, _) =
                    t.span("stage.prepare_t0", run, |_| layers::prepare(&one, 0, &bank));
                s.push("positions_t1", layers::positions(&prep1));
                s.push("positions_t0", layers::positions(&prep0));
                step2_alone(t, &mut s, run, &one, &prep0, &prep1);
                t.span("stage.step2_par", run, |_| {
                    layers::step2_software(&one, &prep0, &prep1, WORKERS)
                });
                drop((prep0, prep1));

                let (bundle, _) =
                    t.span("stage.bundle_write", run, |_| layers::bundle_bytes(&engine));
                s.push("bundle_bytes", bundle.len() as f64);
                t.span("stage.bundle_load", run, |_| {
                    layers::engine_from_bundle(&bundle, one.clone())
                })
                .0?;
                drop(bundle);

                let engine2 = layers::engine_for_genome(&genome, two.clone());
                let (par, _) = t.span("stage.query_par", run, |_| layers::query(&engine2, &bank));
                s.push(
                    "step3_par_s",
                    par.as_ref().map_or(0.0, |a| a.facts().step3_s),
                );
                verdict.book(par.as_ref(), reference);
                drop((par, engine2));
                for out in telemetry_pair(t, run, &engine, &bank) {
                    verdict.book(out.as_ref(), reference);
                }
                let single = layers::first_protein(&bank);
                for _ in 0..ONE_PROTEIN_QUERIES {
                    t.span("stage.query_1prot", run, |_| {
                        layers::query(&engine, &single)
                    })
                    .0?;
                }
                if w.setup == Setup::Board {
                    // The paper's Table 2 denominator, on these inputs only.
                    let (blast, _) =
                        t.span("stage.tblastn", run, |_| layers::tblastn(&bank, &frames));
                    for (key, value) in blast.named() {
                        s.push(key, value);
                    }
                }
                s.push("kaa", layers::residues(&bank) as f64 / 1e3);
                s.push("mnt", genome.len() as f64 / 1e6);
                Ok(())
            })
            .0?;
        for sp in trace.spans().iter().filter(|sp| sp.run == run) {
            if let Some(stage) = sp.name.strip_prefix("stage.") {
                // One sample per round; the one-protein queries give
                // several, which the median over all rounds absorbs.
                s.push(stage_key(stage), sp.duration());
            }
        }
        run += 1;
    }
    s.push(
        "fasta_bytes",
        file_len(&files.proteins) + file_len(&files.genome),
    );

    let metrics = layer_metrics(&s, w);
    let gap = metrics
        .iter()
        .find(|(n, _)| *n == "closure.gap_pct")
        .map_or(0.0, |(_, v)| *v);
    if gap.abs() > CLOSURE_TOLERANCE_PCT {
        verdict.problems.push(format!(
            "layers do not add up to the traced search: closure.gap_pct = {gap:.1}"
        ));
    }
    if s.med("pairs") != s.med("index_pair_count") || s.med("pairs") != s.med("step2_pairs") {
        verdict.problems.push(format!(
            "pairs disagree: query {} / run_software {} / SeedIndex::pair_count {}",
            s.med("pairs"),
            s.med("step2_pairs"),
            s.med("index_pair_count")
        ));
    }
    write_trace(&trace, args)?;
    let outcome = Json::obj([("reference", reference_json)]);
    Ok(report(outcome, &s, Some(metrics), &verdict))
}

/// Sample names of the standalone stage spans.
fn stage_key(stage: &str) -> &'static str {
    match stage {
        "prepare_t1" => "build_t1_s",
        "prepare_t0" => "build_t0_s",
        "step2" => "step2_s",
        "step2_par" => "step2_par_s",
        "gather_replay" => "gather_s",
        "kernel" => "kernel_s",
        "bundle_write" => "bundle_write_s",
        "bundle_load" => "bundle_load_s",
        "query_par" => "query_par_s",
        "query_null" => "query_null_s",
        "query_recorded" => "query_recorded_s",
        "query_1prot" => "query_1prot_s",
        "tblastn" => "tblastn_s",
        other => panic!("stage span {other:?} has no sample name"),
    }
}

fn write_trace(trace: &Trace, args: &ChildArgs) -> Result<(), String> {
    std::fs::write(
        &args.trace_file,
        trace.to_json(args.workload.name, args.seed).pretty(),
    )
    .map_err(|e| format!("{}: {e}", args.trace_file.display()))
}

/// Median over the rounds of `share(untraced wall, traced wall, layer
/// sum)`, as a percentage. Taken per round because a round's searches
/// run seconds apart: a slow minute of the host moves them together.
fn per_round(s: &Samples, share: impl Fn(f64, f64, f64) -> f64) -> f64 {
    let rounds = s
        .all("untraced_s")
        .iter()
        .zip(s.all("traced_s"))
        .zip(s.all("layers_sum_s"));
    let shares: Vec<f64> = rounds
        .map(|((&untraced, &traced), &layers)| 100.0 * share(untraced, traced, layers))
        .collect();
    if shares.is_empty() {
        0.0
    } else {
        median(&shares)
    }
}

/// Every per-layer metric, in `PER_LAYER` order, from the medians of
/// the traced run's samples. A metric the workload does not have is 0.
fn layer_metrics(s: &Samples, w: &Workload) -> Vec<(&'static str, f64)> {
    let m = |name: &str| s.med(name);
    let served = w.kind == Kind::Served;
    let untraced = m("untraced_s");
    let duo = s.all("duo_ms");
    let value = |name: &str| -> f64 {
        match name {
            "seqio.parse_s" => m("parse_s"),
            "seqio.parse_mb_per_s" => ratio(m("fasta_bytes") / 1e6, m("parse_s")),
            "seqio.translate_s" => m("translate_s"),
            "seqio.translate_mnt_per_s" => ratio(m("mnt"), m("translate_s")),
            "index.build_t1_s" => m("build_t1_s"),
            "index.build_t0_s" => m("build_t0_s"),
            "index.positions_t1" => m("positions_t1"),
            "index.positions_t0" => m("positions_t0"),
            "index.mpos_per_s" => ratio(
                (m("positions_t0") + m("positions_t1")) / 1e6,
                m("build_t0_s") + m("build_t1_s"),
            ),
            "index.bundle_write_s" => m("bundle_write_s"),
            "index.bundle_load_s" => m("bundle_load_s"),
            "index.bundle_mb" => m("bundle_bytes") / 1e6,
            "index.load_vs_build" => ratio(m("bundle_load_s"), m("translate_s") + m("build_t1_s")),
            "step2.wall_s" => m("step2_s"),
            "step2.pairs" => m("step2_pairs"),
            "step2.mpairs_per_s" => ratio(m("step2_pairs") / 1e6, m("step2_s")),
            "step2.candidates" => m("step2_candidates"),
            "step2.active_keys" => m("step2_active_keys"),
            "step2.survivor_ppm" => ratio(m("step2_candidates") * 1e6, m("step2_pairs")),
            "step2.gather_replay_s" => m("gather_s"),
            "step2.gather_mb" => m("gather_bytes") / 1e6,
            "step2.gather_share" => ratio(m("gather_s"), m("step2_s")),
            "align.kernel_mpairs_per_s" => ratio(m("kernel_pairs") / 1e6, m("kernel_s")),
            "step2.wall_par_s" => m("step2_par_s"),
            "step2.par_eff" => ratio(m("step2_s"), WORKERS as f64 * m("step2_par_s")),
            "step3.wall_par_s" => m("step3_par_s"),
            "step3.par_eff" => ratio(m("step3_s"), WORKERS as f64 * m("step3_par_s")),
            "step3.wall_s" => m("step3_s"),
            "step3.anchors" => m("anchors"),
            "step3.hsps" => m("hsps"),
            "step3.us_per_anchor" => ratio(m("step3_s") * 1e6, m("anchors")),
            "engine.build_s" => m("engine_build_s"),
            "engine.query_s" => m("query_s"),
            "engine.step1_s" => m("step1_s"),
            "engine.query_1prot_ms" => m("query_1prot_s") * 1e3,
            "engine.query_solo_p50_ms" => m("solo_ms"),
            "engine.contention_ratio" => ratio(m("duo_ms"), m("solo_ms")),
            "engine.query_p90_ms" if served => percentile(duo, 90.0).unwrap_or(0.0),
            "engine.query_p99_ms" if served && !duo.is_empty() => nearest_rank(duo, 99.0),
            "engine.query_max_ms" if served => duo.iter().copied().fold(0.0, f64::max),
            "gff.format_s" => m("gff_s"),
            "gff.kb" => m("gff_bytes") / 1e3,
            "rasc.host_s" if w.setup == Setup::Board => m("step2_in_query_s"),
            "rasc.sim_s" => m("sim_s"),
            "rasc.mcycles" => m("max_cycles") / 1e6,
            "rasc.host_s_per_mcycle" if w.setup == Setup::Board => {
                ratio(m("step2_in_query_s"), m("max_cycles") / 1e6)
            }
            "rasc.host_mpairs_per_s" if w.setup == Setup::Board => {
                ratio(m("pairs") / 1e6, m("step2_in_query_s"))
            }
            "rasc.pe_utilization" => m("pe_utilization"),
            "rasc.stall_cycles" => m("stall_cycles"),
            "rasc.entries" => m("entries"),
            "rasc.mb_in" => m("bytes_in") / 1e6,
            "rasc.mb_out" => m("bytes_out") / 1e6,
            "rasc.fifo_peak" => m("fifo_peak"),
            "rasc.overlap_occupancy" => m("overlap_occupancy"),
            "rasc.sync_s" => m("sync_s"),
            "rasc.wire_s" => m("wire_s"),
            "blast.total_s" => m("blast_total_s"),
            "blast.scan_s" => m("blast_scan_s"),
            "blast.gapped_s" => m("blast_gapped_s"),
            "blast.word_hits" => m("blast_word_hits"),
            "blast.hsps" => m("blast_hsps"),
            "pipeline.kaamnt_per_s" => ratio(m("kaa") * m("mnt"), untraced),
            "telemetry.record_overhead_pct" => {
                100.0 * ratio(m("query_recorded_s") - m("query_null_s"), m("query_null_s"))
            }
            "closure.layers_sum_s" => m("layers_sum_s"),
            // The whole is the traced search's own wall: the same calls,
            // timed around the same spans. What ties it to the untraced
            // search is the overhead, which on a shared host is within
            // the noise of two searches run seconds apart.
            "closure.gap_pct" => per_round(s, |_, traced, layers| (traced - layers) / traced),
            "trace.overhead_pct" => {
                per_round(s, |untraced, traced, _| (traced - untraced) / untraced)
            }
            _ => 0.0,
        }
    };
    PER_LAYER.iter().map(|p| (p.name, value(p.name))).collect()
}

// ---- the served workload -------------------------------------------

/// Share of `--seconds` a single client has the engine to itself; two
/// clients share it for the rest.
const SOLO_SHARE: f64 = 0.3;
/// The two phases alternate in this many blocks, so that both sample
/// the whole run and a slow minute of the host lands on both.
const BLOCKS: usize = 5;
/// Queries run before timing starts, taken from the end of the list.
const WARMUP_QUERIES: usize = 8;
/// Fewest queries in each phase, whatever `--seconds` is.
const MIN_QUERIES: usize = 20;

/// One answered query, as its client saw it.
#[derive(Clone, Copy, Debug)]
struct Done {
    query: usize,
    /// When the client sent it, seconds since [`Served::epoch`].
    start_s: f64,
    latency_ms: f64,
    digest: u64,
    found: bool,
}

#[derive(Debug, Default)]
struct ClientLog {
    done: Vec<Done>,
    errors: Vec<String>,
}

struct Served<'a> {
    engine: &'a SearchEngine,
    queries: &'a [Bank],
    expected: &'a [Expected],
    epoch: Instant,
    /// Next query index to hand out.
    next: AtomicUsize,
    /// Queries at or beyond this index are never handed out (the
    /// warm-up used them).
    limit: usize,
}

impl<'a> Served<'a> {
    fn new(engine: &'a SearchEngine, queries: &'a [Bank], expected: &'a [Expected]) -> Served<'a> {
        Served {
            engine,
            queries,
            expected,
            epoch: Instant::now(),
            next: AtomicUsize::new(0),
            limit: queries.len() - WARMUP_QUERIES,
        }
    }

    fn warm_up(&self) -> Result<(), String> {
        for q in &self.queries[self.limit..] {
            let answer = layers::query(self.engine, q)?;
            std::hint::black_box(layers::gff(self.engine, &answer));
        }
        Ok(())
    }

    /// The value of the hand-out counter after `more` further queries.
    fn floor(&self, more: usize) -> usize {
        // Relaxed: the counter hands out indices and publishes nothing.
        self.next.load(Ordering::Relaxed) + more
    }

    /// A closed-loop client: take the next query, wait for its answer,
    /// repeat — for `seconds`, and until `floor` queries have been
    /// handed out in all, or until the queries run out. `each` sees
    /// every answer after its latency has been taken.
    fn client(
        &self,
        seconds: f64,
        floor: usize,
        mut each: impl FnMut(&Done, &Answer),
    ) -> ClientLog {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut log = ClientLog::default();
        loop {
            if Instant::now() >= deadline && self.floor(0) >= floor {
                return log;
            }
            let query = self.next.fetch_add(1, Ordering::Relaxed);
            if query >= self.limit {
                return log;
            }
            let t = Instant::now();
            let out = layers::query(self.engine, &self.queries[query])
                .map(|answer| (layers::gff(self.engine, &answer), answer));
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok((text, answer)) => {
                    std::hint::black_box(text);
                    let rows = answer.rows();
                    let done = Done {
                        query,
                        start_s: t.duration_since(self.epoch).as_secs_f64(),
                        latency_ms,
                        digest: digest(&rows),
                        found: self.expected[query].found_in(&rows),
                    };
                    each(&done, &answer);
                    log.done.push(done);
                }
                Err(e) => log.errors.push(e),
            }
        }
    }

    /// [`WORKERS`] closed-loop clients on the one engine, for `seconds`
    /// and at least `at_least` queries. Returns their logs and the wall
    /// of the whole pass.
    fn clients(&self, seconds: f64, at_least: usize) -> (Vec<ClientLog>, f64) {
        let floor = self.floor(at_least);
        let start = Instant::now();
        let logs = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..WORKERS)
                .map(|_| scope.spawn(|| self.client(seconds, floor, |_, _| ())))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        (logs, start.elapsed().as_secs_f64())
    }
}

fn load_queries(files: &Files, expected: &[Expected]) -> Result<Vec<Bank>, String> {
    let queries = layers::split_bank(layers::read_proteins(&files.proteins)?, QUERY_PROTEINS);
    if queries.len() != expected.len()
        || queries.len() < WARMUP_QUERIES + TRACED_QUERIES + 2 * MIN_QUERIES
    {
        return Err(format!(
            "{} queries for {} expected pairs",
            queries.len(),
            expected.len()
        ));
    }
    Ok(queries)
}

/// Logs of all phases as one report: per-query digests in query order
/// (every index below the count was run exactly once), what was found.
fn served_outcome(logs: Vec<ClientLog>, verdict: &mut Verdict) -> Json {
    let mut done: Vec<Done> = Vec::new();
    for log in logs {
        verdict.attempted += log.done.len() + log.errors.len();
        verdict.errors += log.errors.len();
        verdict.problems.extend(log.errors);
        done.extend(log.done);
    }
    done.sort_by_key(|d| d.query);
    if done.iter().enumerate().any(|(i, d)| d.query != i) && verdict.errors == 0 {
        verdict
            .problems
            .push("queries were skipped or answered twice".to_string());
    }
    Json::obj([
        (
            "query_digests",
            Json::Arr(done.iter().map(|d| Json::hex(d.digest)).collect()),
        ),
        (
            "found",
            Json::Num(done.iter().filter(|d| d.found).count() as f64),
        ),
        ("expected", Json::Num(done.len() as f64)),
    ])
}

fn served(args: &ChildArgs, files: &Files, expected: &[Expected]) -> Result<Json, String> {
    let bytes =
        std::fs::read(&files.bundle).map_err(|e| format!("{}: {e}", files.bundle.display()))?;
    let engine = layers::engine_from_bundle(&bytes, layers::config(Setup::Software, Threads::One))?;
    drop(bytes);
    let queries = load_queries(files, expected)?;
    let served = Served::new(&engine, &queries, expected);
    served.warm_up()?;
    let mut verdict = Verdict {
        attempted: WARMUP_QUERIES,
        ..Verdict::default()
    };
    let mut samples = Samples::default();

    let block_s = args.seconds / BLOCKS as f64;
    let at_least = MIN_QUERIES.div_ceil(BLOCKS);
    let mut logs = Vec::new();
    let mut duo_wall_s = 0.0;
    for _ in 0..BLOCKS {
        let solo = served.client(block_s * SOLO_SHARE, served.floor(at_least), |_, _| ());
        for d in &solo.done {
            samples.push("solo_ms", d.latency_ms);
        }
        let (duo, wall_s) = served.clients(block_s * (1.0 - SOLO_SHARE), at_least);
        for d in duo.iter().flat_map(|log| &log.done) {
            samples.push("duo_ms", d.latency_ms);
        }
        duo_wall_s += wall_s;
        logs.push(solo);
        logs.extend(duo);
    }
    samples.push("duo_wall_s", duo_wall_s);
    let outcome = served_outcome(logs, &mut verdict);
    Ok(report(outcome, &samples, None, &verdict))
}

/// Single queries the traced run takes apart. A fixed number, so that
/// the counts it reports repeat exactly for one seed.
const TRACED_QUERIES: usize = 30;
/// Share of `--seconds` two clients then run for.
const TRACED_DUO_SHARE: f64 = 0.5;
/// One-protein queries of the traced served run.
const SERVED_ONE_PROTEIN_QUERIES: usize = 40;
/// `run` of the spans that belong to no query.
const NO_QUERY: u32 = u32::MAX;

fn served_traced(args: &ChildArgs, files: &Files, expected: &[Expected]) -> Result<Json, String> {
    let one = layers::config(Setup::Software, Threads::One);
    let mut verdict = Verdict::default();
    let mut s = Samples::default();
    let mut trace = Trace::new(Instant::now());

    // The genome side, once: what a one-shot search pays on every call
    // and a served query never does.
    let (genome, parse_g) = trace.span("seqio.parse", NO_QUERY, |_| {
        layers::read_genome(&files.genome)
    });
    let genome = genome?;
    let (queries, parse_p) = trace.span("seqio.parse", NO_QUERY, |_| load_queries(files, expected));
    let queries = queries?;
    s.push("parse_s", parse_g + parse_p);
    s.push(
        "fasta_bytes",
        file_len(&files.genome) + file_len(&files.proteins),
    );
    s.push("mnt", genome.len() as f64 / 1e6);
    let (translated, translate_s) =
        trace.span("seqio.translate", NO_QUERY, |_| layers::translate(&genome));
    s.push("translate_s", translate_s);
    let frames = layers::frames_bank(&translated);
    let (built, build_s) = trace.span("index.build_t1", NO_QUERY, |_| {
        layers::engine_from_translated(translated, one.clone())
    });
    s.push("engine_build_s", translate_s + build_s);
    let (bundle, _) = trace.span("stage.bundle_write", NO_QUERY, |_| {
        layers::bundle_bytes(&built)
    });
    drop(built);
    s.push("bundle_bytes", bundle.len() as f64);
    let (engine, _) = trace.span("stage.bundle_load", NO_QUERY, |_| {
        layers::engine_from_bundle(&bundle, one.clone())
    });
    let engine = engine?;
    drop(bundle);
    let (prep1, _) = trace.span("stage.prepare_t1", NO_QUERY, |_| {
        layers::prepare(&one, 1, &frames)
    });
    s.push("positions_t1", layers::positions(&prep1));
    drop((frames, genome));

    let served = Served::new(&engine, &queries, expected);
    served.warm_up()?;
    verdict.attempted += WARMUP_QUERIES;

    // One client alone, as in the end-to-end run, for the contention ratio.
    let alone = served.client(0.0, served.floor(MIN_QUERIES), |done, _| {
        s.push("solo_ms", done.latency_ms);
    });

    // Single queries taken apart: each answered by the client loop, then
    // plain once more (now as warm as the traced run that follows),
    // then span by span, then its stages on their own.
    let mut staged: Result<(), String> = Ok(());
    let solo = served.client(0.0, served.floor(TRACED_QUERIES), |done, plain| {
        if staged.is_err() {
            return;
        }
        let run = done.query as u32;
        let q = &queries[done.query];
        let f = plain.facts();
        let t = Instant::now();
        let again = layers::query(&engine, q).map(|a| layers::gff(&engine, &a));
        s.push("untraced_s", t.elapsed().as_secs_f64());
        drop(again);
        let ((), traced_s) = trace.span("search", run, |t| {
            let (answer, query_s) = t.span("engine.query", run, |t| {
                let answer = layers::query(&engine, q);
                if let Ok(a) = &answer {
                    let f = a.facts();
                    // Loaded from a bundle, the engine's side of step 1
                    // cost nothing: the program's step 1 is the query
                    // side alone.
                    t.reported_children(&[
                        ("index.build_t0", f.step1_s),
                        ("step2", f.step2_wall_s),
                        ("step3", f.step3_s),
                    ]);
                    t.count("pairs", f.pairs);
                    s.push("step1_s", f.step1_s);
                    s.push("step2_in_query_s", f.step2_wall_s);
                    s.push("step3_s", f.step3_s);
                }
                answer
            });
            s.push("query_s", query_s);
            if let Ok(a) = &answer {
                let (text, gff_s) = t.span("gff.format", run, |_| layers::gff(&engine, a));
                s.push("gff_s", gff_s);
                s.push("gff_bytes", text.len() as f64);
            }
        });
        s.push("traced_s", traced_s);
        s.push(
            "layers_sum_s",
            SEARCH_LAYERS
                .iter()
                .map(|n| trace.self_time_of(n, run))
                .sum(),
        );
        s.push("pairs", f.pairs);
        s.push("anchors", f.anchors);
        s.push("hsps", f.hsps);
        s.push("positions_t0", f.positions_t0);
        s.push("kaa", layers::residues(q) as f64 / 1e3);

        staged = trace
            .span("stages", run, |t| -> Result<(), String> {
                let (prep0, _) = t.span("stage.prepare_t0", run, |_| layers::prepare(&one, 0, q));
                let pairs = step2_alone(t, &mut s, run, &one, &prep0, &prep1);
                if pairs != f.pairs || pairs != layers::pair_count(&prep0, &prep1) {
                    return Err(format!(
                        "query {}: pairs disagree: query {} / run_software {pairs} / \
                         SeedIndex::pair_count {}",
                        done.query,
                        f.pairs,
                        layers::pair_count(&prep0, &prep1)
                    ));
                }
                for out in telemetry_pair(t, run, &engine, q) {
                    out?;
                }
                Ok(())
            })
            .0;
    });
    staged?;
    let single = layers::first_protein(&queries[0]);
    for _ in 0..SERVED_ONE_PROTEIN_QUERIES {
        trace
            .span("stage.query_1prot", NO_QUERY, |_| {
                layers::query(&engine, &single)
            })
            .0?;
    }
    for sp in trace.spans() {
        if let Some(stage) = sp.name.strip_prefix("stage.") {
            s.push(stage_key(stage), sp.duration());
        }
    }

    // Two clients, each timing its own queries; their spans go into the
    // trace afterwards, one lane per client.
    let (duo, _) = served.clients(args.seconds * TRACED_DUO_SHARE, MIN_QUERIES);
    let trace_start = served.epoch.duration_since(trace.epoch()).as_secs_f64();
    for (lane, log) in duo.iter().enumerate() {
        for d in &log.done {
            s.push("duo_ms", d.latency_ms);
            let start_s = trace_start + d.start_s;
            trace.record(
                "engine.query",
                None,
                d.query as u32,
                lane as u32 + 1,
                start_s,
                start_s + d.latency_ms / 1e3,
            );
        }
    }

    let metrics = layer_metrics(&s, args.workload);
    let mut logs = vec![alone, solo];
    logs.extend(duo);
    let outcome = served_outcome(logs, &mut verdict);
    write_trace(&trace, args)?;
    Ok(report(outcome, &s, Some(metrics), &verdict))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str, idx: usize, start: usize, end: usize, forward: bool) -> MatchRow {
        MatchRow {
            protein_id: id.to_string(),
            protein_idx: idx,
            genome_start: start,
            genome_end: end,
            forward,
            line: format!("{id}\t{start}\t{end}"),
        }
    }

    #[test]
    fn a_plant_is_found_only_by_its_protein_on_its_strand() {
        let e = Expected {
            protein_id: "p7".into(),
            start: 1000,
            end: 1900,
            forward: false,
        };
        assert_eq!(Expected::parse(e.tsv_line().trim_end()), Some(e.clone()));
        assert!(e.found_in(&[row("p7", 7, 1850, 2100, false)]));
        assert!(
            !e.found_in(&[row("p7", 7, 1850, 2100, true)]),
            "wrong strand"
        );
        assert!(
            !e.found_in(&[row("p8", 8, 1000, 1900, false)]),
            "wrong protein"
        );
        assert!(
            !e.found_in(&[row("p7", 7, 1900, 2100, false)]),
            "adjacent, no overlap"
        );
    }

    #[test]
    fn sampled_digest_covers_every_stride_th_protein_in_any_order() {
        let rows = vec![
            row("a", 0, 1, 2, true),
            row("b", 1, 3, 4, true),
            row("c", 2, 5, 6, true),
            row("e", 4, 7, 8, true),
        ];
        let sampled = sampled_digest(&rows, 2);
        let kept = vec![rows[3].clone(), rows[0].clone(), rows[2].clone()];
        assert_eq!(digest(&kept), sampled);
        assert_ne!(digest(&rows), sampled);
    }

    #[test]
    fn every_per_layer_metric_gets_a_finite_value() {
        let mut s = Samples::default();
        for (k, v) in [
            ("untraced_s", 2.0),
            ("layers_sum_s", 1.9),
            ("traced_s", 2.1),
        ] {
            s.push(k, v);
        }
        let w = &crate::workloads::Scale::Full.workloads()[0];
        let metrics = layer_metrics(&s, w);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|(_, v)| v.is_finite()));
        let get = |n: &str| metrics.iter().find(|(k, _)| *k == n).unwrap().1;
        assert!((get("closure.gap_pct") - 100.0 * 0.2 / 2.1).abs() < 1e-9);
        assert!((get("trace.overhead_pct") - 5.0).abs() < 1e-9);
        assert_eq!(get("rasc.sim_s"), 0.0);
    }
}
