//! The parent side of a run: make the inputs, start the measuring
//! child, check what it produced against the oracle, and turn its
//! samples into the named metrics.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child::{digest, sampled_digest, Expected, Files};
use crate::gen::{self, Inputs, Protein, QUERY_PROTEINS};
use crate::json::Json;
use crate::layers::{self, Threads};
use crate::stats::{digest_lines, highest_percentile, median, nearest_rank};
use crate::workloads::{Kind, Scale, Tag, Workload, END_TO_END, PER_LAYER};

/// `setup_s` is the median of at least this many set-ups...
const MIN_SETUPS: usize = 3;
/// ...and of as many more as fit in this many seconds, up to
/// [`MAX_SETUPS`]: a set-up of a few milliseconds needs many repeats
/// for a steady median.
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 25;
/// A run whose recall falls below this did not search what it was given.
const RECALL_FLOOR: f64 = 0.8;
/// Served queries whose digests a blessed entry pins.
const GOLDEN_QUERIES: usize = 32;

pub struct RunArgs {
    /// The benchmark's own directory (`golden.json`, `out/`).
    pub home: PathBuf,
    pub workload: &'static Workload,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub tag: Tag,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug)]
pub struct Record {
    pub workload: &'static str,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// How the outputs were checked.
    pub oracle: String,
    pub metrics: Vec<Metric>,
    /// Sample counts behind the medians, and the tail percentile where
    /// there are samples enough for one.
    pub counts: Json,
    pub problems: Vec<String>,
}

impl Record {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("scale", Json::str(self.scale.name())),
            ("seed", Json::str(format!("{:#x}", self.seed))),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("oracle", Json::str(&self.oracle)),
            ("counts", self.counts.clone()),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                            ("tag", Json::str(m.tag.name())),
                        ]),
                    )
                })),
            ),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly `value` and `unit`.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .compact()
    }

    /// Every metric by name, with unit and tag, for a reader.
    pub fn print(&self) {
        println!(
            "== {} [{} scale, seed {:#x}, {} s, {}] ==",
            self.workload,
            self.scale.name(),
            self.seed,
            self.seconds,
            if self.traced {
                "traced run: per-layer"
            } else {
                "end to end"
            },
        );
        for m in &self.metrics {
            println!(
                "  {:<32} {:>16.6} {:<9} [{}]",
                m.name,
                m.value,
                m.unit,
                m.tag.name()
            );
        }
        println!(
            "  checked: {} | attempted {} failed {} | {}",
            self.oracle,
            self.attempted,
            self.failed,
            self.counts.compact()
        );
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }
}

// ---- set-up ---------------------------------------------------------

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn expected_pairs(inputs: &Inputs) -> Vec<Expected> {
    inputs
        .expected
        .iter()
        .map(|&(protein, plant)| Expected {
            protein_id: inputs.proteins[protein].id.clone(),
            start: inputs.plants[plant].start,
            end: inputs.plants[plant].end,
            forward: inputs.plants[plant].forward,
        })
        .collect()
}

/// Generate the inputs from the seed and leave them in `files`. The
/// served workload also builds its engine, writes the bundle and loads
/// it back, as a deployment would before taking queries.
fn set_up(w: &Workload, seed: u64, files: &Files) -> Result<Inputs, String> {
    let inputs = gen::generate(seed, &w.shape);
    write(&files.proteins, &gen::proteins_fasta(&inputs.proteins))?;
    write(&files.genome, &gen::genome_fasta(&inputs))?;
    let expected: String = expected_pairs(&inputs)
        .iter()
        .map(Expected::tsv_line)
        .collect();
    write(&files.expected, expected.as_bytes())?;
    if w.kind == Kind::Served {
        let cfg = layers::config(w.setup, Threads::One);
        let genome = layers::read_genome(&files.genome)?;
        let engine = layers::engine_for_genome(&genome, cfg.clone());
        write(&files.bundle, &layers::bundle_bytes(&engine))?;
        drop(engine);
        let bytes = std::fs::read(&files.bundle).map_err(|e| e.to_string())?;
        layers::engine_from_bundle(&bytes, cfg)?;
    }
    Ok(inputs)
}

/// A scratch directory under `out/` that is removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(home: &Path, label: &str) -> Result<WorkDir, String> {
        let dir = home
            .join("out")
            .join(format!("work-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory under out/ is ignored by git.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---- the oracle -----------------------------------------------------

/// The scalar oracle's digest of one search. With `stride > 1` only
/// every `stride`-th protein is searched: the bank is those proteins
/// plus one run of `X` that brings it back to the full bank's residue
/// count. `X` never seeds and windows never cross sequences, so each
/// kept protein meets exactly the pairs it met in the full bank, and
/// the equal residue count keeps every E-value bit-identical.
fn oneshot_oracle(
    w: &Workload,
    inputs: &Inputs,
    files: &Files,
    dir: &Path,
    stride: usize,
) -> Result<layers::Answer, String> {
    let bank = if stride == 1 {
        files.proteins.clone()
    } else {
        let mut kept: Vec<Protein> = inputs.proteins.iter().step_by(stride).cloned().collect();
        let total: usize = inputs.proteins.iter().map(|p| p.residues.len()).sum();
        let kept_len: usize = kept.iter().map(|p| p.residues.len()).sum();
        kept.push(Protein {
            id: "pad".to_string(),
            residues: vec![b'X'; total - kept_len],
        });
        let path = dir.join("oracle_proteins.fasta");
        write(&path, &gen::proteins_fasta(&kept))?;
        path
    };
    layers::search(&bank, &files.genome, layers::oracle_config(w.setup)).map(|(_, answer)| answer)
}

/// Scalar-oracle digests of the served queries at `indices`.
fn served_oracle(w: &Workload, files: &Files, indices: &[usize]) -> Result<Vec<u64>, String> {
    let bytes = std::fs::read(&files.bundle).map_err(|e| e.to_string())?;
    let engine = layers::engine_from_bundle(&bytes, layers::oracle_config(w.setup))?;
    let queries = layers::split_bank(layers::read_proteins(&files.proteins)?, QUERY_PROTEINS);
    indices
        .iter()
        .map(|&i| layers::query(&engine, &queries[i]).map(|a| digest(&a.rows())))
        .collect()
}

/// One digest for a list of per-query digests, in query order.
fn digest_of_digests(digests: &[u64]) -> u64 {
    let mut lines: Vec<String> = digests
        .iter()
        .enumerate()
        .map(|(i, d)| format!("{i:06} {d:016x}"))
        .collect();
    digest_lines(&mut lines)
}

fn golden_path(home: &Path) -> PathBuf {
    home.join("golden.json")
}

fn golden_key(w: &Workload, scale: Scale, seed: u64) -> String {
    format!("{}/{}/{seed:#x}", w.name, scale.name())
}

fn golden_entry(home: &Path, key: &str) -> Option<Json> {
    let text = std::fs::read_to_string(golden_path(home)).ok()?;
    Json::parse(&text).ok()?.get(key).cloned()
}

/// Run every workload once under the oracle configuration and store
/// what it produced.
pub fn bless(home: &Path, scale: Scale, seed: u64) -> Result<(), String> {
    let path = golden_path(home);
    let mut golden = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .filter(|j| j.as_obj().is_some())
        .unwrap_or(Json::Obj(Vec::new()));
    for w in scale.workloads() {
        let t = Instant::now();
        let work = WorkDir::create(home, w.name)?;
        let files = Files::in_dir(&work.0);
        let inputs = set_up(w, seed, &files)?;
        let entry = match w.kind {
            Kind::OneShot => {
                let answer = oneshot_oracle(w, &inputs, &files, &work.0, 1)?;
                let rows = answer.rows();
                // The sampled oracle must agree with the full one on
                // the proteins it keeps, or it checks nothing.
                let sampled = oneshot_oracle(w, &inputs, &files, &work.0, w.oracle_sample)?;
                if digest(&sampled.rows()) != sampled_digest(&rows, w.oracle_sample) {
                    return Err(format!(
                        "{}: the sampled oracle disagrees with the full oracle",
                        w.name
                    ));
                }
                let expected = expected_pairs(&inputs);
                let f = answer.facts();
                Json::obj([
                    ("digest", Json::hex(digest(&rows))),
                    ("pairs", Json::Num(f.pairs)),
                    ("candidates", Json::Num(f.candidates)),
                    ("anchors", Json::Num(f.anchors)),
                    ("hsps", Json::Num(f.hsps)),
                    (
                        "found",
                        Json::Num(expected.iter().filter(|e| e.found_in(&rows)).count() as f64),
                    ),
                    ("expected", Json::Num(expected.len() as f64)),
                ])
            }
            Kind::Served => {
                let indices: Vec<usize> = (0..GOLDEN_QUERIES).collect();
                let digests = served_oracle(w, &files, &indices)?;
                Json::obj([
                    ("digest", Json::hex(digest_of_digests(&digests))),
                    ("queries", Json::Num(GOLDEN_QUERIES as f64)),
                ])
            }
        };
        let key = golden_key(w, scale, seed);
        println!(
            "blessed {key} in {:.1} s: {}",
            t.elapsed().as_secs_f64(),
            entry.compact()
        );
        golden.set(&key, entry);
    }
    write(&path, golden.pretty().as_bytes())
}

// ---- one run ----------------------------------------------------------

fn start_child(args: &RunArgs, dir: &Path, trace_file: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .arg("--trace-file")
        .arg(trace_file)
        .args((args.scale == Scale::Quick).then_some("--quick"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // `output` waits for the child to end before it returns.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the measuring child failed: {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    Json::parse(text.lines().last().unwrap_or_default())
        .map_err(|e| format!("the child's report does not parse: {e}"))
}

/// The wall that stands for a set of repeats: their lower quartile.
///
/// On a shared host, other tenants only ever add time, in episodes that
/// last from seconds to minutes. On the host this was sized on such
/// episodes moved the median of a 20 s run by up to 27 % between runs
/// and its lower quartile by 12 %; on a quiet hour both repeat within
/// 3 %. The median and both quartiles are in every record's `counts`.
fn typical(samples: &[f64]) -> f64 {
    nearest_rank(samples, 25.0)
}

/// First and third quartile (nearest rank) of the samples, in seconds.
fn quartiles(samples: &[f64], scale_to_s: f64) -> Json {
    Json::nums(&[
        nearest_rank(samples, 25.0) * scale_to_s,
        nearest_rank(samples, 75.0) * scale_to_s,
    ])
}

fn num(report: &Json, key: &str) -> f64 {
    report.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn samples(report: &Json, name: &str) -> Vec<f64> {
    report
        .get("samples")
        .and_then(|s| s.get(name))
        .map(Json::as_nums)
        .unwrap_or_default()
}

/// Served queries the scalar oracle re-runs are this far apart, from
/// query 0: even the shortest run answers them all.
const ORACLE_QUERY_SPACING: usize = 4;

/// What the scalar oracle produced, computed in set-up.
enum Computed {
    /// One-shot: its digest over every `oracle_sample`-th protein.
    Search(u64),
    /// Served: its digest of some queries, by index.
    Queries(Vec<(usize, u64)>),
}

/// What the outputs are checked against.
struct Oracle {
    computed: Computed,
    /// The entry `bless` stored for this workload, scale and seed: the
    /// full oracle's digest and counts.
    blessed: Option<(String, Json)>,
}

/// Run the scalar oracle. This is part of set-up: a workload is not
/// ready to measure until there is something to check it against.
fn oracle(args: &RunArgs, inputs: &Inputs, files: &Files, dir: &Path) -> Result<Oracle, String> {
    let w = args.workload;
    let computed = match w.kind {
        Kind::OneShot => {
            let answer = oneshot_oracle(w, inputs, files, dir, w.oracle_sample)?;
            Computed::Search(digest(&answer.rows()))
        }
        Kind::Served => {
            let indices: Vec<usize> = (0..w.oracle_sample)
                .map(|j| j * ORACLE_QUERY_SPACING)
                .collect();
            let digests = served_oracle(w, files, &indices)?;
            Computed::Queries(indices.into_iter().zip(digests).collect())
        }
    };
    let key = golden_key(w, args.scale, args.seed);
    let blessed = golden_entry(&args.home, &key).map(|entry| (key, entry));
    Ok(Oracle { computed, blessed })
}

impl Oracle {
    fn describe(&self, w: &Workload) -> String {
        let computed = match &self.computed {
            Computed::Search(_) => {
                format!("scalar oracle over every {} protein(s)", w.oracle_sample)
            }
            Computed::Queries(q) => format!("scalar oracle over {} queries", q.len()),
        };
        match &self.blessed {
            Some((key, _)) => format!("{computed} + blessed digest {key}"),
            None => format!("{computed} (no blessed digest for this seed)"),
        }
    }

    /// Whether a one-shot reference (the child's first search) holds.
    fn holds_for_search(&self, reference: &Json, problems: &mut Vec<String>) -> bool {
        let Computed::Search(want) = self.computed else {
            unreachable!("a query oracle for a one-shot workload");
        };
        let got = reference.get("sampled_digest").and_then(Json::as_hex);
        let mut holds = got == Some(want);
        if !holds {
            problems.push(format!(
                "sampled digest is {got:016x?} but the scalar oracle gives {want:016x}"
            ));
        }
        if let Some((_, golden)) = &self.blessed {
            for field in [
                "digest",
                "pairs",
                "candidates",
                "anchors",
                "hsps",
                "found",
                "expected",
            ] {
                if reference.get(field) != golden.get(field) {
                    holds = false;
                    problems.push(format!(
                        "{field} is {} but golden.json has {}",
                        reference.get(field).map_or("missing".into(), Json::compact),
                        golden.get(field).map_or("missing".into(), Json::compact),
                    ));
                }
            }
        }
        holds
    }

    /// How many served queries (by the child's per-query digests, in
    /// query order) differ from the oracle.
    fn wrong_queries(&self, got: &[u64], problems: &mut Vec<String>) -> usize {
        let Computed::Queries(want) = &self.computed else {
            unreachable!("a search oracle for the served workload");
        };
        let mut wrong: Vec<usize> = want
            .iter()
            .filter(|(i, d)| got.get(*i) != Some(d))
            .map(|(i, _)| *i)
            .collect();
        if !wrong.is_empty() {
            problems.push(format!(
                "queries {wrong:?} differ from the scalar oracle (or were not answered)"
            ));
        }
        if let Some((_, golden)) = &self.blessed {
            let n = num(golden, "queries") as usize;
            let same = got.len() >= n
                && golden.get("digest").and_then(Json::as_hex)
                    == Some(digest_of_digests(&got[..n]));
            if !same {
                problems.push(format!("the first {n} queries differ from golden.json"));
                wrong.extend(0..n);
                wrong.sort_unstable();
                wrong.dedup();
            }
        }
        wrong.len()
    }
}

pub fn run(args: &RunArgs) -> Result<Record, String> {
    let w = args.workload;
    let work = WorkDir::create(&args.home, w.name)?;
    let files = Files::in_dir(&work.0);

    let started = Instant::now();
    let mut setup_s = Vec::new();
    let oracle = loop {
        let t = Instant::now();
        let inputs = set_up(w, args.seed, &files)?;
        let oracle = oracle(args, &inputs, &files, &work.0)?;
        setup_s.push(t.elapsed().as_secs_f64());
        // The traced run reports no set-up time: one set-up is enough.
        let enough = setup_s.len() >= MIN_SETUPS
            && (started.elapsed().as_secs_f64() >= SETUP_SECONDS || setup_s.len() >= MAX_SETUPS);
        if args.traced || enough {
            break oracle;
        }
    };

    let trace_file = args.home.join("out").join(format!("trace-{}.json", w.name));
    let report = start_child(args, &work.0, &trace_file)?;

    let mut problems: Vec<String> = report
        .get("problems")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    let attempted = num(&report, "attempted") as usize;
    let mut failed = (num(&report, "errors") + num(&report, "unlike_reference")) as usize;
    let outcome = match w.kind {
        Kind::OneShot => {
            let reference = report.get("reference").cloned().unwrap_or(Json::Null);
            if !oracle.holds_for_search(&reference, &mut problems) {
                // Every repeat reproduced a reference that is itself wrong.
                failed = attempted;
            }
            reference
        }
        Kind::Served => {
            let got: Vec<u64> = report
                .get("query_digests")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_hex).collect())
                .unwrap_or_default();
            failed += oracle.wrong_queries(&got, &mut problems);
            report.clone()
        }
    };
    let recall = num(&outcome, "found") / num(&outcome, "expected").max(1.0);
    if recall < RECALL_FLOOR {
        problems.push(format!(
            "planted_recall {recall:.3} is below {RECALL_FLOOR}"
        ));
    }

    let (metrics, counts) = if args.traced {
        let layers = report.get("layers").cloned().unwrap_or(Json::Null);
        let metrics = PER_LAYER
            .iter()
            .map(|p| Metric {
                name: p.name,
                value: num(&layers, p.name),
                unit: p.unit,
                tag: p.tag,
            })
            .collect();
        let rounds = samples(&report, "untraced_s").len();
        (
            metrics,
            Json::obj([("traced_operations", Json::Num(rounds as f64))]),
        )
    } else {
        let (one, two, scale_to_s) = match w.kind {
            Kind::OneShot => (
                samples(&report, "serial_s"),
                samples(&report, "parallel_s"),
                1.0,
            ),
            Kind::Served => (
                samples(&report, "solo_ms"),
                samples(&report, "duo_ms"),
                1e-3,
            ),
        };
        if one.is_empty() || two.is_empty() {
            return Err("the child timed no operation".to_string());
        }
        // Searches back to back at their typical wall; queries over the
        // wall of the whole two-client pass.
        let per_s = match w.kind {
            Kind::OneShot => 1.0 / typical(&two),
            Kind::Served => {
                two.len() as f64
                    / samples(&report, "duo_wall_s")
                        .first()
                        .copied()
                        .unwrap_or(f64::NAN)
            }
        };
        let value = |name: &str| -> f64 {
            match name {
                "search_wall_s" => typical(&one) * scale_to_s,
                "search_wall_par_s" => typical(&two) * scale_to_s,
                "queries_per_s" => per_s,
                "peak_rss_mb" => num(&report, "peak_rss_mb"),
                "planted_recall" => recall,
                "setup_s" => median(&setup_s),
                other => panic!("end-to-end metric {other:?} has no definition"),
            }
        };
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .map(|e| Metric {
                name: e.name,
                value: value(e.name),
                unit: e.unit,
                tag: e.tag,
            })
            .collect();
        let tail = highest_percentile(&two).map_or(Json::Null, |(name, v)| {
            Json::obj([
                ("percentile", Json::str(name)),
                ("value", Json::Num(v * scale_to_s)),
            ])
        });
        let counts = Json::obj([
            ("one_worker_samples", Json::Num(one.len() as f64)),
            ("one_worker_median_s", Json::Num(median(&one) * scale_to_s)),
            ("one_worker_quartiles_s", quartiles(&one, scale_to_s)),
            ("two_worker_samples", Json::Num(two.len() as f64)),
            ("two_worker_median_s", Json::Num(median(&two) * scale_to_s)),
            ("two_worker_quartiles_s", quartiles(&two, scale_to_s)),
            ("two_worker_tail_s", tail),
            ("setups", Json::Num(setup_s.len() as f64)),
            (
                "peak_rss_at_exit_mb",
                report
                    .get("peak_rss_at_exit_mb")
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
        ]);
        (metrics, counts)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} was not measured", m.name));
        }
    }

    Ok(Record {
        workload: w.name,
        scale: args.scale,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        correct: failed == 0 && problems.is_empty(),
        attempted: attempted.max(1),
        failed,
        oracle: oracle.describe(w),
        metrics,
        counts,
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_driver_line_has_exactly_the_contract_keys() {
        let record = Record {
            workload: "bank_heavy",
            scale: Scale::Full,
            seed: 7,
            seconds: 1.0,
            traced: false,
            correct: true,
            attempted: 12,
            failed: 0,
            oracle: "test".into(),
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
                tag: Tag::Measured,
            }],
            counts: Json::Null,
            problems: Vec::new(),
        };
        assert_eq!(
            record.driver_line(),
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        let full = record.to_json();
        assert_eq!(
            full.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("tag"),
            Some(&Json::str("measured"))
        );
        assert_eq!(full.get("seed"), Some(&Json::str("0x7")));
    }

    #[test]
    fn the_sampled_oracle_agrees_with_the_full_one_on_the_proteins_it_keeps() {
        let w = Workload {
            shape: gen::Shape {
                proteins: 30,
                genome_nt: 60_000,
                plants: 10,
                ..Scale::Quick.workloads()[0].shape
            },
            oracle_sample: 3,
            ..Scale::Quick.workloads()[0]
        };
        let dir = std::env::temp_dir().join(format!("psc-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files = Files::in_dir(&dir);
        let inputs = set_up(&w, 21, &files).unwrap();
        let full = oneshot_oracle(&w, &inputs, &files, &dir, 1).unwrap().rows();
        let sampled = oneshot_oracle(&w, &inputs, &files, &dir, 3).unwrap().rows();
        std::fs::remove_dir_all(&dir).unwrap();
        // Plants 0, 3, 6 and 9 belong to kept proteins.
        assert!(sampled.len() >= 4, "{} matches", sampled.len());
        assert!(full.len() > sampled.len());
        assert_eq!(digest(&sampled), sampled_digest(&full, 3));
        let found = expected_pairs(&inputs)
            .iter()
            .filter(|e| e.found_in(&full))
            .count();
        assert_eq!(found, 10);
    }

    #[test]
    fn digest_of_digests_depends_on_position() {
        assert_ne!(digest_of_digests(&[1, 2]), digest_of_digests(&[2, 1]));
        assert_eq!(digest_of_digests(&[1, 2]), digest_of_digests(&[1, 2]));
    }
}
