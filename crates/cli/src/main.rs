//! `psc` — command-line front-end for the seed-based comparison pipeline.

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
        eprintln!("{}", help_text());
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
    let flags = match Flags::parse_known(args, &command) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", help_text());
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
            println!("{}", help_text());
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

const COMMANDS: &str = "\
psc — protein seed-based comparison (RASC-100 reproduction)

commands:
  generate-bank    write a seeded random protein bank
  generate-genome  write a seeded genome, optionally with planted genes
  translate        write a genome's six frames as FASTA
  search           compare a protein bank against a genome or a bundle
  report           FILE | --compare OLD NEW: render or diff run reports
  trace            render|analyze FILE: view a flight recording
  blast            the tblastn-like baseline
  index            write an index bundle for `search --index` and `serve`
  serve            answer queries against a bundle over TCP
  query            send one protein bank to a `psc serve`
  resources        does a PE array fit the Virtex-4 LX200?
  matrix           print BLOSUM62";

/// The help text: the commands, then every flag of [`FLAGS`].
fn help_text() -> String {
    let mut text = format!("{COMMANDS}\n\nflags:\n");
    for f in FLAGS {
        let default = match f.default {
            "" => String::new(),
            d => format!("default {d}; "),
        };
        let (spelled, commands) = (f.spelled(), f.commands.join(", "));
        text += &format!("  {spelled:<38} {} ({default}{commands})\n", f.effect);
    }
    text + "Mistyped flags are rejected with a nearest-match suggestion."
}

/// One `psc` flag: its name, the value it takes, its default ("" for
/// none), the commands that take it and what it does. [`FLAGS`] is the
/// one list of flags: a command accepts exactly the flags that name it
/// (a mistyped one is exit 2 with a suggestion, never silently
/// ignored), and README's flag table is its rendering, kept byte-equal
/// by a test.
struct Flag {
    name: &'static str,
    value: &'static str,
    default: &'static str,
    commands: &'static [&'static str],
    effect: &'static str,
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "count", value: "N", default: "", commands: &["generate-bank"], effect: "proteins to generate (required)" },
    Flag { name: "min-len", value: "A", default: "100", commands: &["generate-bank"], effect: "shortest protein, in residues" },
    Flag { name: "max-len", value: "B", default: "600", commands: &["generate-bank"], effect: "longest protein, in residues" },
    Flag { name: "len", value: "L", default: "", commands: &["generate-genome"], effect: "genome length in nucleotides (required)" },
    Flag { name: "genes", value: "G", default: "0", commands: &["generate-genome"], effect: "genes to plant, each a protein of `--bank`" },
    Flag { name: "bank", value: "FILE", default: "", commands: &["generate-genome"], effect: "donor proteins for `--genes`" },
    Flag { name: "seed", value: "S", default: "24301 / 3348", commands: &["generate-bank", "generate-genome"], effect: "generator seed (bank / genome)" },
    Flag { name: "o", value: "FILE", default: "", commands: &["generate-bank", "generate-genome", "translate", "index"], effect: "output file (`translate` writes stdout without it)" },
    Flag { name: "genome", value: "FILE", default: "", commands: &["translate", "search", "blast", "index"], effect: "FASTA file of one genome sequence" },
    Flag { name: "proteins", value: "FILE", default: "", commands: &["search", "blast", "index", "query"], effect: "protein bank FASTA (`index`: embedded as the bundle's T0)" },
    Flag { name: "index", value: "FILE", default: "", commands: &["search", "serve"], effect: "answer from a `psc index` bundle (`search`: instead of `--genome`)" },
    Flag { name: "backend", value: "scalar|parallel|rasc", default: "scalar", commands: &["search", "serve"], effect: "where step 2 runs" },
    Flag { name: "threads", value: "N", default: "1", commands: &["search", "serve", "index"], effect: "software step-2 workers, board host threads, index-build threads" },
    Flag { name: "pes", value: "N", default: "192", commands: &["search", "serve", "resources"], effect: "PE array per simulated FPGA; one that does not fit the LX200 exits 2" },
    Flag { name: "fpgas", value: "1|2", default: "1", commands: &["search", "serve"], effect: "FPGAs on the simulated board" },
    Flag { name: "evalue", value: "E", default: "0.001", commands: &["search", "serve", "blast"], effect: "largest E-value reported; must be positive" },
    Flag { name: "seed-model", value: "subset4|subset3|exact4", default: "subset4", commands: &["search", "serve", "index"], effect: "step-1 seed model; a bundle refuses another" },
    Flag { name: "threshold", value: "T", default: "45", commands: &["search", "serve"], effect: "step-2 ungapped score threshold" },
    Flag { name: "step2-kernel", value: "auto|scalar|profile|simd|wide", default: "auto", commands: &["search", "serve"], effect: "software step-2 kernel; `auto` takes the widest the ISA level and window allow, and the report records a downgrade" },
    Flag { name: "step2-schedule", value: "contiguous|bucketed", default: "bucketed", commands: &["search", "serve"], effect: "software step-2 work split: equal key ranges, or mass-bucketed items pulled heaviest first" },
    Flag { name: "step3-threads", value: "N", default: "1", commands: &["search", "serve"], effect: "gapped-extension workers over 64-anchor shards, merged in order" },
    Flag { name: "format", value: "tab|pairwise|gff", default: "tab", commands: &["search"], effect: "output format; `pairwise` needs `--genome`" },
    Flag { name: "mask", value: "on|off", default: "off", commands: &["search", "serve", "blast", "index"], effect: "soft-mask low-complexity regions out of seeding" },
    Flag { name: "report-json", value: "FILE", default: "", commands: &["search"], effect: "write the run report (`psc report FILE` renders it)" },
    Flag { name: "trace", value: "FILE", default: "", commands: &["search"], effect: "write a Chrome-trace flight recording (`psc trace render|analyze`)" },
    Flag { name: "trace-clock", value: "wall|virtual", default: "wall", commands: &["search"], effect: "`virtual`: modeled units, byte-identical at any thread count; needs `--trace`" },
    Flag { name: "listen", value: "ADDR", default: "127.0.0.1:0", commands: &["serve"], effect: "bind address; the bound one is printed on stdout" },
    Flag { name: "queue", value: "N", default: "4", commands: &["serve"], effect: "in-flight query bound; past it a query is answered `-BUSY` (`psc query` exits 4)" },
    Flag { name: "report-dir", value: "DIR", default: "", commands: &["serve"], effect: "write each served query's run report here" },
    Flag { name: "connect", value: "HOST:PORT", default: "", commands: &["query"], effect: "the `psc serve` to send the bank to" },
    Flag { name: "window", value: "W", default: "60", commands: &["resources"], effect: "window length `W + 2N`" },
    Flag { name: "slot", value: "S", default: "16", commands: &["resources"], effect: "PEs per slot" },
    Flag { name: "max-wall-regress", value: "PCT", default: "", commands: &["report"], effect: "`--compare`: exit 1 when a wall regresses past PCT %" },
    Flag { name: "max-counter-regress", value: "PCT", default: "", commands: &["report"], effect: "`--compare`: exit 1 when a counter regresses past PCT %" },
    Flag { name: "width", value: "N", default: "72", commands: &["trace"], effect: "`render`: timeline width in columns (at least 16)" },
    Flag { name: "report", value: "FILE", default: "", commands: &["trace"], effect: "`analyze`: reconcile the trace against this run report" },
];

impl Flag {
    /// The flag as typed, with its value: `--pes N`, `-o FILE`.
    fn spelled(&self) -> String {
        let dash = if self.name.len() == 1 { "-" } else { "--" };
        format!("{dash}{} {}", self.name, self.value)
    }
}

/// The flags `command` takes.
fn known_flags(command: &str) -> Vec<&'static str> {
    FLAGS
        .iter()
        .filter(|f| f.commands.contains(&command))
        .map(|f| f.name)
        .collect()
}

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

    /// [`Flags::parse`], then reject any flag [`FLAGS`] does not give
    /// `command`, suggesting the nearest one it does.
    fn parse_known(args: impl Iterator<Item = String>, command: &str) -> Result<Flags, String> {
        let flags = Flags::parse(args)?;
        let known = known_flags(command);
        for key in flags.0.keys() {
            if !known.contains(&key.as_str()) {
                let hint = match nearest_flag(key, &known) {
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
        let flags = Flags::parse_known(args, "report")?;
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
    let flags = Flags::parse_known(args, "trace")?;
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

#[cfg(test)]
mod tests {
    use super::FLAGS;

    /// [`FLAGS`] as README's markdown table.
    fn markdown_table() -> String {
        let cell = |s: &str| s.replace('|', "\\|");
        let mut table = String::from("| flag | default | commands | effect |\n|---|---|---|---|\n");
        for f in FLAGS {
            let default = match f.default {
                "" => "—".to_string(),
                d => format!("`{d}`"),
            };
            table += &format!(
                "| `{}` | {default} | {} | {} |\n",
                cell(&f.spelled()),
                f.commands.join(", "),
                cell(f.effect)
            );
        }
        table
    }

    #[test]
    fn readme_flag_table_is_the_flag_table() {
        let mut names: Vec<_> = FLAGS.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FLAGS.len(), "a flag is declared twice");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("README.md reads");
        let header = "| flag | default | commands | effect |";
        let at = readme.find(header).expect("README.md has the flag table");
        let readme_table: String = readme[at..]
            .lines()
            .take_while(|l| l.starts_with('|'))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(readme_table, markdown_table(), "README.md's flag table");
    }
}
