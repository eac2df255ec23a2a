//! `psc` — command-line front-end for the seed-based comparison pipeline.
//!
//! ```text
//! psc generate-bank   --count N [--min-len A --max-len B --seed S] -o bank.fasta
//! psc generate-genome --len L [--genes G --bank bank.fasta --seed S] -o genome.fasta
//! psc translate       --genome genome.fasta [-o frames.fasta]
//! psc search          --proteins bank.fasta --genome genome.fasta
//!                     [--backend scalar|parallel|rasc] [--pes 192] [--fpgas 1]
//!                     [--threads T] [--evalue 1e-3] [--seed-model subset4|subset3|exact4]
//!                     [--step2-kernel auto|scalar|profile|simd|wide]
//!                     [--step2-schedule contiguous|bucketed]
//!                     [--report-json report.json]
//!                     [--trace trace.json] [--trace-clock wall|virtual]
//! psc report          report.json
//! psc report          --compare old.json new.json [--max-wall-regress PCT]
//! psc trace           render|analyze trace.json
//! psc blast           --proteins bank.fasta --genome genome.fasta [--evalue 1e-3]
//! psc index           --genome genome.fasta -o genome.psc [--proteins bank.fasta]
//! psc serve           --index genome.psc [--listen 127.0.0.1:0] [--queue N]
//! psc query           --connect HOST:PORT --proteins bank.fasta
//! psc resources       [--pes N] [--window W] [--slot S]
//! psc matrix
//! ```

// A timing crate: it times runs and served queries on the wall clock.
#![allow(clippy::disallowed_methods)]

mod serve;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;

use psc_blast::{tblastn, BlastConfig};
use psc_core::{PipelineConfig, SeedChoice, Step2Backend};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
use psc_index::subset_seed_span3;
use psc_rasc::{OperatorConfig, ResourceModel};
use psc_score::blosum62;
use psc_seqio::{
    read_fasta_path, translate_six_frames, write_fasta, Frame, FrameCoord, GeneticCode, SeqKind,
};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `report` and `trace` take positional paths, not flag pairs.
    if command == "report" || command == "trace" {
        let run = if command == "report" {
            report_cmd(args)
        } else {
            trace_cmd(args)
        };
        return match run {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let known = match command.as_str() {
        "generate-bank" => KNOWN_GENERATE_BANK,
        "generate-genome" => KNOWN_GENERATE_GENOME,
        "translate" => KNOWN_TRANSLATE,
        "search" => KNOWN_SEARCH,
        "blast" => KNOWN_BLAST,
        "index" => KNOWN_INDEX,
        "serve" => KNOWN_SERVE,
        "query" => KNOWN_QUERY,
        "resources" => KNOWN_RESOURCES,
        _ => &[],
    };
    let flags = match Flags::parse_known(args, &command, known) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A mis-set flag value (kernel name, board shape, an E-value that
    // admits nothing, an array or a length range that cannot exist) is
    // a usage error like an unknown flag: reported before any file is
    // read or any socket bound.
    let usage = match command.as_str() {
        "search" | "serve" => pipeline_config(&flags).map(drop),
        "index" => index_config(&flags).map(drop),
        "blast" => max_evalue(&flags).map(drop),
        "generate-bank" => bank_config(&flags).map(drop),
        "resources" => operator_config(&flags).map(drop),
        _ => Ok(()),
    };
    if let Err(e) = usage {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let result = match command.as_str() {
        "generate-bank" => generate_bank(&flags),
        "generate-genome" => generate_genome_cmd(&flags),
        "translate" => translate(&flags),
        "search" => search(&flags),
        "blast" => blast(&flags),
        "index" => index_cmd(&flags),
        "serve" => serve::serve(&flags),
        "query" => return serve::query(&flags),
        "resources" => resources(&flags),
        "matrix" => matrix(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
psc — protein seed-based comparison (RASC-100 reproduction)

commands:
  generate-bank   --count N [--min-len A] [--max-len B] [--seed S] -o FILE
  generate-genome --len L [--genes G] [--bank FILE] [--seed S] -o FILE
  translate       --genome FILE [-o FILE]
  search          --proteins FILE --genome FILE [--backend scalar|parallel|rasc]
                  [--pes N] [--fpgas N] [--threads N] [--evalue E]
                  [--seed-model subset4|subset3|exact4] [--threshold T]
                  [--step2-kernel auto|scalar|profile|simd|wide]
                  [--step2-schedule contiguous|bucketed]   (step-2 work distribution)
                  [--step3-threads N]    (parallel gapped extension workers)
                  [--format tab|pairwise|gff] [--mask on]
                  [--report-json FILE]   (write a telemetry run report)
                  [--trace FILE]         (write a flight-recorder Chrome trace)
                  [--trace-clock wall|virtual]   (virtual = byte-deterministic)
  report          FILE                   (render a run report: step breakdown,
                                          PE utilization, pair histograms)
  report          --compare OLD NEW [--max-wall-regress PCT]
                  [--max-counter-regress PCT]   (regression diff; exits 1 when
                                          a gated metric regresses past PCT)
  trace           render FILE [--width N]       (terminal lane timeline)
  trace           analyze FILE [--report FILE]  (critical path, stall classes;
                                          --report reconciles span walls)
  blast           --proteins FILE --genome FILE [--evalue E] [--mask on]
  index           --genome FILE -o FILE [--seed-model ...] [--mask on]
                  [--proteins FILE]      (embed a T0 protein-bank section)
                  (writes an index bundle: frames + T1 index + score
                   profile + model fingerprint, for --index / serve)
  serve           --index FILE [--listen ADDR] [--queue N] [--report-dir DIR]
                  [search config flags]  (long-running query server; prints
                                          the bound address on stdout)
  query           --connect HOST:PORT --proteins FILE   (run one query
                                          against a psc serve instance)
  resources       [--pes N] [--window W] [--slot S]
  matrix

search also accepts --index FILE in place of --genome: the pipeline
state (frames, T1 index, scoring) loads from the bundle, so the query
skips the genome-side index build. Mistyped flags are rejected with a
nearest-match suggestion.";

// --- per-command flag tables --------------------------------------
//
// `Flags::parse_known` rejects anything not listed for its command:
// a mistyped flag used to be silently swallowed (`--step2-kernal
// wide` ran the default kernel without a word), which is the worst
// possible behavior for benchmark flags.

const KNOWN_GENERATE_BANK: &[&str] = &["count", "min-len", "max-len", "seed", "o"];
const KNOWN_GENERATE_GENOME: &[&str] = &["len", "genes", "bank", "seed", "o"];
const KNOWN_TRANSLATE: &[&str] = &["genome", "o"];
const KNOWN_SEARCH: &[&str] = &[
    "proteins",
    "genome",
    "index",
    "backend",
    "pes",
    "fpgas",
    "threads",
    "evalue",
    "seed-model",
    "threshold",
    "step2-kernel",
    "step2-schedule",
    "step3-threads",
    "format",
    "mask",
    "report-json",
    "trace",
    "trace-clock",
];
const KNOWN_BLAST: &[&str] = &["proteins", "genome", "evalue", "mask"];
const KNOWN_INDEX: &[&str] = &["genome", "o", "seed-model", "threads", "proteins", "mask"];
const KNOWN_SERVE: &[&str] = &[
    "index",
    "listen",
    "queue",
    "report-dir",
    "backend",
    "pes",
    "fpgas",
    "threads",
    "evalue",
    "seed-model",
    "threshold",
    "step2-kernel",
    "step2-schedule",
    "step3-threads",
    "mask",
];
const KNOWN_QUERY: &[&str] = &["connect", "proteins"];
const KNOWN_RESOURCES: &[&str] = &["pes", "window", "slot"];
const KNOWN_REPORT_COMPARE: &[&str] = &["max-wall-regress", "max-counter-regress"];
const KNOWN_TRACE: &[&str] = &["width", "report"];

/// Edit distance for the did-you-mean suggestion.
fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b): (Vec<u8>, Vec<u8>) = (a.bytes().collect(), b.bytes().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(prev + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// The closest known flag within edit distance 2, if any.
fn nearest_flag<'a>(key: &str, known: &[&'a str]) -> Option<&'a str> {
    known
        .iter()
        .map(|k| (levenshtein(key, k), *k))
        .filter(|&(d, _)| d <= 2)
        .min()
        .map(|(_, k)| k)
}

/// Trivial `--flag value` parser.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: impl Iterator<Item = String>) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            let key = a
                .strip_prefix("--")
                .or_else(|| a.strip_prefix('-'))
                .ok_or_else(|| format!("expected a flag, got {a:?}"))?;
            let value = args
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            map.insert(key.to_string(), value);
        }
        Ok(Flags(map))
    }

    /// [`Flags::parse`], then reject any flag the command does not
    /// know, suggesting the nearest known one.
    fn parse_known(
        args: impl Iterator<Item = String>,
        command: &str,
        known: &[&str],
    ) -> Result<Flags, String> {
        let flags = Flags::parse(args)?;
        for key in flags.0.keys() {
            if !known.contains(&key.as_str()) {
                let hint = match nearest_flag(key, known) {
                    Some(k) => format!(" (did you mean --{k}?)"),
                    None => String::new(),
                };
                return Err(format!("unknown flag --{key} for `psc {command}`{hint}"));
            }
        }
        Ok(flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }
}

/// The bank `generate-bank` is asked for.
fn bank_config(flags: &Flags) -> Result<BankConfig, String> {
    let config = BankConfig {
        count: flags.parsed("count", 0usize)?,
        min_len: flags.parsed("min-len", 100)?,
        max_len: flags.parsed("max-len", 600)?,
        seed: flags.parsed("seed", 0x5eed_u64)?,
    };
    if config.count == 0 {
        return Err("--count must be positive".into());
    }
    if config.min_len > config.max_len {
        return Err(format!(
            "--min-len {} exceeds --max-len {}",
            config.min_len, config.max_len
        ));
    }
    Ok(config)
}

fn generate_bank(flags: &Flags) -> Result<(), String> {
    let bank = random_bank(&bank_config(flags)?);
    let out = flags.required("o")?;
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    write_fasta(file, &bank).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} proteins ({} aa) to {out}",
        bank.len(),
        bank.total_residues()
    );
    Ok(())
}

fn generate_genome_cmd(flags: &Flags) -> Result<(), String> {
    let len = flags.parsed("len", 0usize)?;
    if len == 0 {
        return Err("--len must be positive".into());
    }
    let genes = flags.parsed("genes", 0usize)?;
    let donors = match flags.get("bank") {
        Some(path) => read_fasta_path(path, SeqKind::Protein).map_err(|e| e.to_string())?,
        None if genes > 0 => return Err("--genes needs --bank for donor proteins".into()),
        None => psc_seqio::Bank::new(),
    };
    let synth = generate_genome(
        &GenomeConfig {
            len,
            gene_count: genes,
            seed: flags.parsed("seed", 0xd14_u64)?,
            ..GenomeConfig::default()
        },
        &donors,
    );
    let out = flags.required("o")?;
    let mut bank = psc_seqio::Bank::new();
    bank.push(synth.genome.clone());
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    write_fasta(file, &bank).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote genome of {} nt with {} planted genes to {out}",
        synth.genome.len(),
        synth.plants.len()
    );
    for p in &synth.plants {
        eprintln!(
            "  plant: protein {} at {}..{} ({})",
            p.protein_idx,
            p.start,
            p.end,
            if p.forward { "+" } else { "-" }
        );
    }
    Ok(())
}

fn load_genome(path: &str) -> Result<psc_seqio::Seq, String> {
    let bank = read_fasta_path(path, SeqKind::Dna).map_err(|e| e.to_string())?;
    if bank.len() != 1 {
        return Err(format!("{path} must contain exactly one genome sequence"));
    }
    Ok(bank.into_seqs().remove(0))
}

/// Load the engine behind `--index`. An artifact of another format
/// version, or no bundle at all, cannot be fixed by another flag: say
/// what can.
fn load_engine(path: &str, config: PipelineConfig) -> Result<psc_core::SearchEngine, String> {
    use psc_core::EngineError::Serial;
    use psc_index::SerialError::{BadMagic, BadVersion};
    let data = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    psc_core::SearchEngine::from_bundle(&data, blosum62(), config).map_err(|e| match e {
        Serial(BadMagic | BadVersion(_)) => format!("{path}: {e}; rebuild it with `psc index`"),
        _ => e.to_string(),
    })
}

fn translate(flags: &Flags) -> Result<(), String> {
    let genome = load_genome(flags.required("genome")?)?;
    let translated = translate_six_frames(&genome, GeneticCode::standard());
    let bank = translated.to_bank();
    match flags.get("o") {
        Some(out) => {
            let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
            write_fasta(file, &bank).map_err(|e| e.to_string())?;
            eprintln!("wrote 6 frames ({} aa) to {out}", bank.total_residues());
        }
        None => {
            let stdout = std::io::stdout();
            write_fasta(stdout.lock(), &bank).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn seed_choice(flags: &Flags) -> Result<SeedChoice, String> {
    Ok(match flags.get("seed-model").unwrap_or("subset4") {
        "subset4" => SeedChoice::SubsetDefault,
        "subset3" => SeedChoice::Custom(subset_seed_span3()),
        "exact4" => SeedChoice::Exact(4),
        other => return Err(format!("unknown seed model {other:?}")),
    })
}

/// `--mask on|off` as a [`MaskConfig`].
fn mask_flag(flags: &Flags) -> Result<Option<psc_seqio::MaskConfig>, String> {
    match flags.get("mask") {
        Some("on") => Ok(Some(psc_seqio::MaskConfig::default())),
        Some("off") | None => Ok(None),
        Some(other) => Err(format!("bad --mask value {other:?}")),
    }
}

/// `--evalue`: the largest E-value reported. NaN or a value at or below
/// zero admits no alignment at all, so it is refused, not obeyed.
fn max_evalue(flags: &Flags) -> Result<f64, String> {
    let evalue = flags.parsed("evalue", 1e-3f64)?;
    if !(evalue.is_finite() && evalue > 0.0) {
        return Err(format!(
            "--evalue must be a positive finite number (got {evalue})"
        ));
    }
    Ok(evalue)
}

/// The full pipeline configuration from command-line flags (shared by
/// `psc search` and `psc serve`).
fn step2_kernel(flags: &Flags) -> Result<psc_core::KernelChoice, String> {
    match flags.get("step2-kernel") {
        None => Ok(psc_core::KernelChoice::Auto),
        Some(s) => psc_core::KernelChoice::parse(s).ok_or_else(|| {
            format!("bad --step2-kernel value {s:?} (auto|scalar|profile|simd|wide)")
        }),
    }
}

fn pipeline_config(flags: &Flags) -> Result<PipelineConfig, String> {
    let threads = at_least_one(flags, "threads", 1)?;
    let backend = match flags.get("backend").unwrap_or("scalar") {
        "scalar" => Step2Backend::SoftwareScalar,
        "parallel" => Step2Backend::SoftwareParallel { threads },
        "rasc" => Step2Backend::Rasc {
            pe_count: at_least_one(flags, "pes", 192)?,
            fpga_count: flags.parsed("fpgas", 1usize)?,
            host_threads: threads,
        },
        other => return Err(format!("unknown backend {other:?}")),
    };
    let step2_kernel = step2_kernel(flags)?;
    let step2_schedule = match flags.get("step2-schedule") {
        None => psc_core::Step2Schedule::default(),
        Some(s) => psc_core::Step2Schedule::parse(s)
            .ok_or_else(|| format!("bad --step2-schedule value {s:?} (contiguous|bucketed)"))?,
    };
    let config = PipelineConfig {
        seed: seed_choice(flags)?,
        backend,
        step2_kernel,
        step2_schedule,
        max_evalue: max_evalue(flags)?,
        threshold: flags.parsed("threshold", 45i32)?,
        index_threads: threads,
        mask: mask_flag(flags)?,
        step3_threads: at_least_one(flags, "step3-threads", 1)?,
        ..PipelineConfig::default()
    };
    // What `RascBoard::new` would assert or refuse on the first query.
    if let Step2Backend::Rasc {
        pe_count,
        fpga_count,
        ..
    } = config.backend
    {
        if !(1..=2).contains(&fpga_count) {
            return Err(format!("--fpgas must be 1 or 2 (got {fpga_count})"));
        }
        psc_rasc::ResourceModel::check(&config.operator_config(pe_count))
            .map_err(|e| format!("--pes {pe_count}: operator does not fit the FPGA: {e}"))?;
    }
    Ok(config)
}

/// Header of the tab output format, shared with `psc serve` so a
/// served query's stdout is byte-identical to `psc search`'s.
const TAB_HEADER: &str = "# protein\tframe\tgenome_start\tgenome_end\tstrand\traw\tbits\tevalue";

/// One tab-format match line (no trailing newline).
fn match_line(m: &psc_core::GenomeMatch) -> String {
    format!(
        "{}\t{:+}\t{}\t{}\t{}\t{}\t{:.1}\t{:.2e}",
        m.protein_id,
        m.frame.number(),
        m.genome_start,
        m.genome_end,
        if m.forward { "+" } else { "-" },
        m.score,
        m.bit_score,
        m.evalue
    )
}

fn search(flags: &Flags) -> Result<(), String> {
    let proteins = read_fasta_path(flags.required("proteins")?, SeqKind::Protein)
        .map_err(|e| e.to_string())?;
    let index_path = flags.get("index");
    if index_path.is_some() && flags.get("genome").is_some() {
        return Err(
            "--index and --genome are mutually exclusive (the bundle already carries the genome)"
                .into(),
        );
    }
    let genome = match index_path {
        Some(_) => None,
        None => Some(load_genome(flags.required("genome")?)?),
    };
    let config = pipeline_config(flags)?;
    // Telemetry is recorded only when a report is requested, and the
    // flight recorder only when a trace is; otherwise the
    // NullRecorder/NullTracer paths keep instrumentation off the hot
    // loops.
    let report_path = flags.get("report-json");
    let recorder = report_path.map(|_| psc_core::MemRecorder::new());
    let trace_path = flags.get("trace");
    let trace_clock = match flags.get("trace-clock") {
        None => psc_core::TraceClock::Wall,
        Some(s) => psc_core::TraceClock::from_name(s)
            .ok_or_else(|| format!("bad --trace-clock value {s:?} (wall|virtual)"))?,
    };
    if flags.get("trace-clock").is_some() && trace_path.is_none() {
        return Err("--trace-clock needs --trace".into());
    }
    let tracer = trace_path.map(|_| psc_core::RingTracer::new(trace_clock));
    let rec: &dyn psc_core::Recorder = match &recorder {
        Some(r) => r,
        None => &psc_core::NullRecorder,
    };
    let trc: &dyn psc_core::Tracer = match &tracer {
        Some(t) => t,
        None => &psc_core::NullTracer,
    };
    // One-shot and from-artifact runs share the engine path: build (or
    // load) the pipeline state, then run one query against it. The
    // loaded path skips the genome-side index build — its step1 span
    // reports only the query-side prep.
    let engine = match index_path {
        Some(path) => load_engine(path, config.clone())?,
        None => psc_core::SearchEngine::for_genome(
            genome.as_ref().expect("--genome checked above"),
            blosum62(),
            config.clone(),
            rec,
        ),
    };
    let result = engine
        .query_traced(&proteins, rec, trc)
        .map_err(|e| e.to_string())?;
    if let (Some(path), Some(rec)) = (report_path, &recorder) {
        let report = psc_core::build_run_report(&result.output, &config, &rec.snapshot());
        std::fs::write(path, report.to_json_string()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("run report written to {path} (render with `psc report {path}`)");
    }
    if let (Some(path), Some(tracer)) = (trace_path, &tracer) {
        let meta = [
            ("tool".to_string(), "psc search".to_string()),
            (
                "backend".to_string(),
                flags.get("backend").unwrap_or("scalar").to_string(),
            ),
        ];
        let trace = tracer.finish(&meta);
        std::fs::write(path, trace.to_chrome_string()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "trace written to {path} ({} lanes, {} units dropped; render with `psc trace render {path}`)",
            trace.lanes.len(),
            trace.dropped
        );
    }

    match flags.get("format") {
        Some("pairwise") => {
            let genome = genome
                .as_ref()
                .ok_or("--format pairwise needs --genome (not available with --index)")?;
            return print_pairwise(&proteins, genome, &result);
        }
        Some("gff") => {
            print!(
                "{}",
                psc_core::to_gff3(engine.genome_id(), "psc-rasc", &result.matches)
            );
            eprintln!("{} matches as GFF3", result.matches.len());
            return Ok(());
        }
        Some("tab") | None => {}
        Some(other) => return Err(format!("unknown format {other:?}")),
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "{TAB_HEADER}").map_err(|e| e.to_string())?;
    for m in &result.matches {
        writeln!(out, "{}", match_line(m)).map_err(|e| e.to_string())?;
    }
    let p = &result.output.profile;
    let kernel = match p.step2_kernel {
        Some(k) => k.name(),
        None => "rasc",
    };
    eprintln!(
        "steps: {:.2}s index / {:.2}s ungapped ({kernel}) / {:.2}s gapped; {} matches",
        p.step1,
        p.step2(),
        p.step3,
        result.matches.len()
    );
    if let Some(board) = &result.output.board {
        eprintln!(
            "simulated accelerator: {:.3}s ({} entries, {} hits, {:.1}% PE utilization)",
            board.accelerated_seconds,
            board.entries,
            board.hit_count,
            board.utilization(config_pes(flags).unwrap_or(192)) * 100.0
        );
    }
    Ok(())
}

fn config_pes(flags: &Flags) -> Result<usize, String> {
    flags.parsed("pes", 192usize)
}

/// Render a saved run report (`psc report FILE`): the paper-style step
/// breakdown, per-FPGA PE utilization, counters and histograms. With
/// `--compare OLD NEW` diff two reports instead, gated by
/// `--max-wall-regress` / `--max-counter-regress` percent thresholds
/// (exit 1 when a gate trips — CI's first perf gate).
fn report_cmd(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let Some(first) = args.next() else {
        return Err("usage: psc report FILE | psc report --compare OLD NEW".into());
    };
    if first == "--compare" {
        let (Some(old_path), Some(new_path)) = (args.next(), args.next()) else {
            return Err("usage: psc report --compare OLD NEW [--max-wall-regress PCT] [--max-counter-regress PCT]".into());
        };
        let flags = Flags::parse_known(args, "report --compare", KNOWN_REPORT_COMPARE)?;
        let config = psc_telemetry::CompareConfig {
            max_wall_regress_pct: flags
                .get("max-wall-regress")
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("bad --max-wall-regress value {v:?}"))
                })
                .transpose()?,
            max_counter_regress_pct: flags
                .get("max-counter-regress")
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("bad --max-counter-regress value {v:?}"))
                })
                .transpose()?,
        };
        let (old, new) = (load_report(&old_path)?, load_report(&new_path)?);
        let diff = psc_telemetry::diff_reports(&old, &new, config);
        print!("{}", psc_telemetry::render_diff(&diff));
        let tripped = diff.regressions().len();
        if tripped > 0 {
            return Err(format!("{tripped} metric(s) regressed past the gates"));
        }
        return Ok(());
    }
    let path = first;
    if let Some(extra) = args.next() {
        return Err(format!(
            "unexpected argument {extra:?} (usage: psc report FILE)"
        ));
    }
    let report = load_report(&path)?;
    print!("{}", psc_telemetry::render::render_report(&report));
    Ok(())
}

fn load_report(path: &str) -> Result<psc_telemetry::RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    psc_telemetry::RunReport::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `psc trace render|analyze FILE` — terminal views of a saved flight
/// recording (see `psc search --trace`).
fn trace_cmd(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    const USAGE: &str =
        "usage: psc trace render FILE [--width N] | psc trace analyze FILE [--report FILE]";
    let (Some(verb), Some(path)) = (args.next(), args.next()) else {
        return Err(USAGE.into());
    };
    let flags = Flags::parse_known(args, "trace", KNOWN_TRACE)?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let trace = psc_telemetry::Trace::from_chrome_str(&text).map_err(|e| format!("{path}: {e}"))?;
    match verb.as_str() {
        "render" => {
            let width = flags.parsed("width", 72usize)?.max(16);
            print!("{}", psc_telemetry::render_timeline(&trace, width));
        }
        "analyze" => {
            let analysis = psc_telemetry::analyze(&trace);
            print!("{}", psc_telemetry::render_analysis(&analysis));
            if let Some(report_path) = flags.get("report") {
                let report = load_report(report_path)?;
                let rows = psc_telemetry::reconcile(&analysis, &report);
                print!("{}", psc_telemetry::render_reconcile(&rows));
                if rows.iter().any(|r| !r.ok) {
                    return Err("trace does not reconcile with the run report".into());
                }
            }
        }
        other => return Err(format!("unknown trace subcommand {other:?} ({USAGE})")),
    }
    Ok(())
}

/// BLAST-style pairwise rendering of genome-search results.
fn print_pairwise(
    proteins: &psc_seqio::Bank,
    genome: &psc_seqio::Seq,
    result: &psc_core::GenomeSearchResult,
) -> Result<(), String> {
    use psc_align::{banded_global, format_pairwise, GapConfig};
    let translated = translate_six_frames(genome, GeneticCode::standard());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (h, m) in result.output.hsps.iter().zip(&result.matches) {
        let q = proteins.get(h.seq0 as usize);
        let frame_seq = translated.frame(m.frame);
        let qa = &q.residues[h.start0 as usize..h.end0 as usize];
        let sa = &frame_seq.residues[h.start1 as usize..h.end1 as usize];
        let band = qa.len().abs_diff(sa.len()) + 16;
        let aln = banded_global(blosum62(), qa, sa, &GapConfig::default(), band);
        writeln!(
            out,
            "> {} vs genome {}..{} (frame {:+}, {} strand)",
            q.id,
            m.genome_start,
            m.genome_end,
            m.frame.number(),
            if m.forward { "+" } else { "-" }
        )
        .map_err(|e| e.to_string())?;
        let text = format_pairwise(
            &aln,
            qa,
            sa,
            h.start0 as usize + 1,
            h.start1 as usize + 1,
            blosum62(),
            h.bit_score,
            h.evalue,
            60,
        );
        writeln!(out, "{text}").map_err(|e| e.to_string())?;
    }
    eprintln!("{} alignments rendered", result.matches.len());
    Ok(())
}

/// The configuration `psc index` builds its engine with.
fn index_config(flags: &Flags) -> Result<PipelineConfig, String> {
    Ok(PipelineConfig {
        seed: seed_choice(flags)?,
        index_threads: at_least_one(flags, "threads", 1)?,
        mask: mask_flag(flags)?,
        ..PipelineConfig::default()
    })
}

/// Build an index bundle — translated frames, T1 seed index, score
/// profile, seed-model fingerprint, optionally a protein-bank T0
/// section — and save it for `psc search --index` / `psc serve`.
fn index_cmd(flags: &Flags) -> Result<(), String> {
    let config = index_config(flags)?;
    let genome = load_genome(flags.required("genome")?)?;
    let out = flags.required("o")?;
    let proteins = match flags.get("proteins") {
        Some(path) => Some(read_fasta_path(path, SeqKind::Protein).map_err(|e| e.to_string())?),
        None => None,
    };
    let t0 = std::time::Instant::now();
    let engine = psc_core::SearchEngine::for_genome(
        &genome,
        blosum62(),
        config.clone(),
        &psc_core::NullRecorder,
    );
    let bytes = engine.to_bundle_bytes(proteins.as_ref());
    let build = t0.elapsed().as_secs_f64();
    std::fs::write(out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
    // Verify the round trip before declaring success: the checksum, the
    // model fingerprint and the matrix/mask sections must all load back.
    let reread = std::fs::read(out).map_err(|e| e.to_string())?;
    psc_core::SearchEngine::from_bundle(&reread, blosum62(), config)
        .map_err(|e| format!("bundle failed verification after write: {e}"))?;
    let config = engine.config();
    eprintln!(
        "indexed genome {} ({} nt) under {} in {build:.2}s; bundle of {} bytes (mask {}, T0 {}) to {out}",
        engine.genome_id(),
        engine.genome_len(),
        config.seed.model().name(),
        bytes.len(),
        if config.mask.is_some() { "on" } else { "off" },
        match &proteins {
            Some(bank) => format!("{} proteins", bank.len()),
            None => "none".to_string(),
        }
    );
    Ok(())
}

fn blast(flags: &Flags) -> Result<(), String> {
    let proteins = read_fasta_path(flags.required("proteins")?, SeqKind::Protein)
        .map_err(|e| e.to_string())?;
    let genome = load_genome(flags.required("genome")?)?;
    let translated = translate_six_frames(&genome, GeneticCode::standard());
    let config = BlastConfig {
        max_evalue: max_evalue(flags)?,
        mask: match flags.get("mask") {
            Some("on") => Some(psc_seqio::MaskConfig::default()),
            _ => None,
        },
        ..BlastConfig::default()
    };
    let report = tblastn(&proteins, &translated.to_bank(), blosum62(), &config);

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(
        out,
        "# protein\tframe\tgenome_start\tgenome_end\traw\tbits\tevalue"
    )
    .map_err(|e| e.to_string())?;
    for h in &report.hsps {
        let frame = Frame::ALL[h.seq1 as usize];
        let (s, e, _) = translated.to_genome_interval(
            FrameCoord {
                frame,
                aa_pos: h.start1 as usize,
            },
            (h.end1 - h.start1) as usize,
        );
        writeln!(
            out,
            "{}\t{:+}\t{}\t{}\t{}\t{:.1}\t{:.2e}",
            proteins.get(h.seq0 as usize).id,
            frame.number(),
            s,
            e,
            h.score,
            h.bit_score,
            h.evalue
        )
        .map_err(|e| e.to_string())?;
    }
    eprintln!(
        "tblastn: {} word hits, {} ungapped ext, {} gapped ext, {} HSPs in {:.2}s",
        report.word_hits,
        report.ungapped_extensions,
        report.gapped_extensions,
        report.hsps.len(),
        report.total_seconds()
    );
    Ok(())
}

/// A count no array can do without: `--NAME N`, `N` at least 1.
fn at_least_one(flags: &Flags, name: &str, default: usize) -> Result<usize, String> {
    match flags.parsed(name, default)? {
        0 => Err(format!("--{name} must be at least 1")),
        n => Ok(n),
    }
}

/// The operator `resources` is asked about.
fn operator_config(flags: &Flags) -> Result<OperatorConfig, String> {
    let mut cfg = OperatorConfig::new(at_least_one(flags, "pes", 192)?);
    cfg.window_len = at_least_one(flags, "window", 60)?;
    cfg.slot_size = at_least_one(flags, "slot", 16)?;
    Ok(cfg)
}

fn resources(flags: &Flags) -> Result<(), String> {
    let cfg = operator_config(flags)?;
    let pes = cfg.pe_count;
    match ResourceModel::check(&cfg) {
        Ok(u) => println!(
            "{pes} PEs, window {}, slots of {}: {} slices ({}%), {} BRAMs ({}%) on one Virtex-4 LX200",
            cfg.window_len, cfg.slot_size, u.slices, u.slice_pct, u.brams, u.bram_pct
        ),
        Err(e) => println!("does not fit: {e}"),
    }
    println!(
        "largest fitting array at this geometry: {} PEs",
        ResourceModel::max_pes(cfg.window_len, cfg.slot_size)
    );
    Ok(())
}

fn matrix() -> Result<(), String> {
    let m = blosum62();
    print!("  ");
    for b in psc_seqio::alphabet::AA_LETTERS {
        print!("{:>3}", b as char);
    }
    println!();
    for a in 0..24u8 {
        print!("{:>2}", psc_seqio::alphabet::AA_LETTERS[a as usize] as char);
        for b in 0..24u8 {
            print!("{:>3}", m.score(a, b));
        }
        println!();
    }
    Ok(())
}
