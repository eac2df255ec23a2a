//! The one place the benchmark calls into the `psc-*` crates.
//!
//! Every other module sees plain numbers, strings and the opaque handles
//! re-exported here, so when the library's entry points change, this
//! file is the only one to edit. Functions here do no timing of their
//! own: the caller wraps each in a span.

use std::path::Path;

use psc_align::batch::{score_batch, InterleavedWindows, ScoreProfile};
use psc_core::step2::{self, Step2Params};
use psc_core::{
    GenomeSearchResult, KernelChoice, MemRecorder, NullRecorder, NullTracer, Pipeline, RingTracer,
    SeedChoice, Step2Backend, TraceClock,
};
use psc_score::blosum62;
use psc_seqio::{GeneticCode, SeqKind};

pub use psc_core::{PipelineConfig as Config, PreparedBank, SearchEngine};
pub use psc_seqio::{Bank, Seq, TranslatedGenome};

/// Which of the library's configurations a workload runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Setup {
    /// `PipelineConfig::default()`: span-4 subset seed, software step 2,
    /// kernel picked by the library for this host.
    Software,
    /// The experiment ladder's board configuration: span-3 subset seed,
    /// bitstream load scaled to the workload, step 2 on the simulated
    /// RASC-100 (192 PEs on each of 2 FPGAs, fault-free).
    Board,
}

/// How many host threads an operation may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Threads {
    One,
    Two,
}

pub const BOARD_PES: usize = 192;
pub const BOARD_FPGAS: usize = 2;

pub fn config(setup: Setup, threads: Threads) -> Config {
    let n = match threads {
        Threads::One => 1,
        Threads::Two => 2,
    };
    let base = Config {
        index_threads: n,
        step3_threads: n,
        ..Config::default()
    };
    match setup {
        Setup::Software => Config {
            backend: match threads {
                Threads::One => Step2Backend::SoftwareScalar,
                Threads::Two => Step2Backend::SoftwareParallel { threads: 2 },
            },
            ..base
        },
        Setup::Board => Config {
            seed: SeedChoice::Custom(psc_index::subset_seed_span3()),
            dma_override: Some(psc_rasc::DmaModel {
                bitstream_load: 0.04,
                ..psc_rasc::DmaModel::default()
            }),
            backend: Step2Backend::Rasc {
                pe_count: BOARD_PES,
                fpga_count: BOARD_FPGAS,
                host_threads: n,
            },
            ..base
        },
    }
}

/// The reference every output is checked against: the same seed model
/// and thresholds, step 2 in software with the per-pair scalar kernel,
/// one thread everywhere. The board must match it too (the library's
/// bit-identity invariant).
pub fn oracle_config(setup: Setup) -> Config {
    Config {
        backend: Step2Backend::SoftwareScalar,
        step2_kernel: KernelChoice::Scalar,
        ..config(setup, Threads::One)
    }
}

/// The step-2 kernel the library resolves to on this host for the
/// default window, and why it backed off the request, if it did.
pub fn kernel_facts() -> (&'static str, Option<&'static str>) {
    let cfg = Config::default();
    let (backend, reason) = cfg
        .step2_kernel
        .resolve_with_reason(cfg.window_len(), blosum62());
    (backend.name(), reason)
}

// ---- seqio ---------------------------------------------------------

pub fn read_proteins(path: &Path) -> Result<Bank, String> {
    psc_seqio::read_fasta_path(path, SeqKind::Protein)
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_genome(path: &Path) -> Result<Seq, String> {
    let bank = psc_seqio::read_fasta_path(path, SeqKind::Dna)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    bank.into_seqs()
        .into_iter()
        .next()
        .ok_or_else(|| format!("{}: no sequence", path.display()))
}

pub fn translate(genome: &Seq) -> TranslatedGenome {
    psc_seqio::translate_six_frames(genome, GeneticCode::standard())
}

pub fn residues(bank: &Bank) -> usize {
    bank.total_residues()
}

/// Consecutive groups of `size` sequences, each a bank of its own.
pub fn split_bank(bank: Bank, size: usize) -> Vec<Bank> {
    let mut seqs = bank.into_seqs().into_iter().peekable();
    let mut out = Vec::new();
    while seqs.peek().is_some() {
        out.push(Bank::from_seqs(seqs.by_ref().take(size).collect()));
    }
    out
}

/// The first sequence of a bank as a bank.
pub fn first_protein(bank: &Bank) -> Bank {
    Bank::from_seqs(vec![bank.get(0).clone()])
}

// ---- core::engine --------------------------------------------------

pub fn engine_for_genome(genome: &Seq, cfg: Config) -> SearchEngine {
    SearchEngine::for_genome(genome, blosum62(), cfg, &NullRecorder)
}

pub fn engine_from_translated(translated: TranslatedGenome, cfg: Config) -> SearchEngine {
    SearchEngine::from_translated(translated, blosum62(), cfg, &NullRecorder)
}

pub fn bundle_bytes(engine: &SearchEngine) -> Vec<u8> {
    engine.to_bundle_bytes(None)
}

pub fn engine_from_bundle(bytes: &[u8], cfg: Config) -> Result<SearchEngine, String> {
    SearchEngine::from_bundle(bytes, blosum62(), cfg).map_err(|e| e.to_string())
}

/// What one query returned, with the library's own account of it.
#[derive(Debug)]
pub struct Answer {
    result: GenomeSearchResult,
}

pub fn query(engine: &SearchEngine, proteins: &Bank) -> Result<Answer, String> {
    engine
        .query_traced(proteins, &NullRecorder, &NullTracer)
        .map(|result| Answer { result })
        .map_err(|e| e.to_string())
}

/// The same query with the library's in-memory recorder and flight
/// recorder attached (wall clock), for the telemetry-overhead figure.
pub fn query_recorded(engine: &SearchEngine, proteins: &Bank) -> Result<Answer, String> {
    let rec = MemRecorder::new();
    let tracer = RingTracer::new(TraceClock::Wall);
    engine
        .query_traced(proteins, &rec, &tracer)
        .map(|result| Answer { result })
        .map_err(|e| e.to_string())
}

pub fn gff(engine: &SearchEngine, answer: &Answer) -> String {
    psc_core::to_gff3(engine.genome_id(), "psc-rasc", &answer.result.matches)
}

/// One complete search, FASTA paths in, GFF3 text out: parse both
/// files, build the engine (translate + genome-side index), run the
/// one query, format. This is the paper's Table 2 accounting — nothing
/// is prepared beforehand.
pub fn search(proteins: &Path, genome: &Path, cfg: Config) -> Result<(String, Answer), String> {
    let bank = read_proteins(proteins)?;
    let genome = read_genome(genome)?;
    let engine = engine_for_genome(&genome, cfg);
    let answer = query(&engine, &bank)?;
    Ok((gff(&engine, &answer), answer))
}

/// One reported match, reduced to what the checks need.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchRow {
    pub protein_id: String,
    /// Position of the protein in the file it was read from.
    pub protein_idx: usize,
    pub genome_start: usize,
    pub genome_end: usize,
    pub forward: bool,
    /// Every field of the match that is part of the output, exactly
    /// (the E-value by its bits), one line per match.
    pub line: String,
}

/// Counts and times the library reports for one query.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    pub step1_s: f64,
    pub step2_wall_s: f64,
    pub step3_s: f64,
    pub positions_t0: f64,
    pub pairs: f64,
    pub candidates: f64,
    pub anchors: f64,
    pub hsps: f64,
    pub board: Option<BoardFacts>,
}

/// The simulated board's report. Cycles are 100 MHz device cycles and
/// seconds are device seconds; none of them is host time.
#[derive(Clone, Debug, Default)]
pub struct BoardFacts {
    pub sim_s: f64,
    pub max_cycles: f64,
    pub stall_cycles: f64,
    pub pe_utilization: f64,
    pub entries: f64,
    pub bytes_in: f64,
    pub bytes_out: f64,
    pub fifo_peak: f64,
    pub overlap_occupancy: f64,
    pub sync_s: f64,
    pub wire_s: f64,
}

impl BoardFacts {
    /// The fields by the sample names the traced run files them under.
    pub fn named(&self) -> [(&'static str, f64); 11] {
        [
            ("sim_s", self.sim_s),
            ("max_cycles", self.max_cycles),
            ("stall_cycles", self.stall_cycles),
            ("pe_utilization", self.pe_utilization),
            ("entries", self.entries),
            ("bytes_in", self.bytes_in),
            ("bytes_out", self.bytes_out),
            ("fifo_peak", self.fifo_peak),
            ("overlap_occupancy", self.overlap_occupancy),
            ("sync_s", self.sync_s),
            ("wire_s", self.wire_s),
        ]
    }
}

impl Answer {
    pub fn rows(&self) -> Vec<MatchRow> {
        self.result
            .matches
            .iter()
            .map(|m| MatchRow {
                protein_id: m.protein_id.clone(),
                protein_idx: m.protein_idx,
                genome_start: m.genome_start,
                genome_end: m.genome_end,
                forward: m.forward,
                line: format!(
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
                    m.protein_id,
                    m.genome_start,
                    m.genome_end,
                    if m.forward { '+' } else { '-' },
                    m.frame.number(),
                    m.protein_start,
                    m.protein_end,
                    m.score,
                    m.evalue.to_bits()
                ),
            })
            .collect()
    }

    pub fn facts(&self) -> Facts {
        let out = &self.result.output;
        Facts {
            step1_s: out.profile.step1,
            step2_wall_s: out.profile.step2_wall,
            step3_s: out.profile.step3,
            positions_t0: out.stats.indexed0 as f64,
            pairs: out.stats.step2.pairs as f64,
            candidates: out.stats.step2.candidates as f64,
            anchors: out.stats.anchors as f64,
            hsps: out.hsps.len() as f64,
            board: out.board.as_ref().map(|b| BoardFacts {
                sim_s: b.accelerated_seconds,
                max_cycles: b.fpga_cycles.iter().copied().max().unwrap_or(0) as f64,
                stall_cycles: b.stall_cycles.iter().sum::<u64>() as f64,
                pe_utilization: b.utilization(BOARD_PES),
                entries: b.entries as f64,
                bytes_in: b.bytes_in as f64,
                bytes_out: b.bytes_out as f64,
                fifo_peak: b.fifo_peak.iter().copied().max().unwrap_or(0) as f64,
                overlap_occupancy: b.overlap_occupancy,
                sync_s: b.sync_seconds,
                wire_s: b.wire_in_seconds + b.wire_out_seconds,
            }),
        }
    }
}

// ---- index, core::step2, align: the stages on their own ------------

/// Step 1 for one side (`which` 0 = proteins, 1 = genome frames).
pub fn prepare(cfg: &Config, which: usize, bank: &Bank) -> PreparedBank {
    Pipeline::new(cfg.clone()).prepare_bank(which, bank, &NullRecorder)
}

pub fn frames_bank(translated: &TranslatedGenome) -> Bank {
    translated.to_bank()
}

pub fn positions(prep: &PreparedBank) -> f64 {
    prep.index().total_positions() as f64
}

/// `Σ_k |IL0_k|·|IL1_k|` from the two indexes alone.
pub fn pair_count(prep0: &PreparedBank, prep1: &PreparedBank) -> f64 {
    prep0.index().pair_count(prep1.index()) as f64
}

fn step2_params(cfg: &Config) -> Step2Params<'static> {
    Step2Params {
        matrix: blosum62(),
        kernel: cfg.kernel,
        span: cfg.seed.model().span(),
        n_ctx: cfg.n_ctx,
        threshold: cfg.threshold,
        kernel_backend: cfg.step2_kernel,
        schedule: cfg.step2_schedule,
    }
}

/// Software step 2 alone over prepared banks:
/// `(pairs, candidates, active keys)`.
pub fn step2_software(
    cfg: &Config,
    prep0: &PreparedBank,
    prep1: &PreparedBank,
    threads: usize,
) -> (f64, f64, f64) {
    let (candidates, stats) = step2::run_software(
        prep0.flat(),
        prep0.index(),
        prep1.flat(),
        prep1.index(),
        &step2_params(cfg),
        threads,
    );
    (
        stats.pairs as f64,
        std::hint::black_box(candidates).len() as f64,
        stats.active_keys as f64,
    )
}

/// Keys with work on both sides, heaviest pair rectangle first.
fn active_keys(prep0: &PreparedBank, prep1: &PreparedBank) -> Vec<u32> {
    let (i0, i1) = (prep0.index(), prep1.index());
    let mut keys: Vec<u32> = (0..i0.key_count() as u32)
        .filter(|&k| !i0.list(k).is_empty() && !i1.list(k).is_empty())
        .collect();
    keys.sort_by_key(|&k| std::cmp::Reverse(i0.list(k).len() * i1.list(k).len()));
    keys
}

/// Replay the gather of step 2 without scoring anything: the windows
/// of `IL0_k` and `IL1_k` of every active key, key-major, into one
/// reused buffer. Returns the bytes written.
pub fn gather_replay(cfg: &Config, prep0: &PreparedBank, prep1: &PreparedBank) -> f64 {
    let (span, n_ctx) = (cfg.seed.model().span(), cfg.n_ctx);
    let mut keys = active_keys(prep0, prep1);
    keys.sort_unstable();
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    for k in keys {
        for prep in [prep0, prep1] {
            step2::gather_windows(prep.flat(), prep.index().list(k), span, n_ctx, &mut buf);
            bytes += std::hint::black_box(&buf).len();
        }
    }
    bytes as f64
}

/// Windows of the heaviest keys, gathered and interleaved ahead of
/// time, so that scoring them measures the kernel with the gather
/// taken out.
#[derive(Debug)]
pub struct KernelInput {
    cfg: Config,
    window_len: usize,
    keys: Vec<(Vec<u8>, Vec<u8>, InterleavedWindows)>,
}

/// Keys the kernel ceiling is measured over.
pub const KERNEL_KEYS: usize = 64;

pub fn kernel_input(cfg: &Config, prep0: &PreparedBank, prep1: &PreparedBank) -> KernelInput {
    let (span, n_ctx) = (cfg.seed.model().span(), cfg.n_ctx);
    let window_len = span + 2 * n_ctx;
    let keys = active_keys(prep0, prep1)
        .into_iter()
        .take(KERNEL_KEYS)
        .map(|k| {
            let (mut w0, mut w1) = (Vec::new(), Vec::new());
            step2::gather_windows(prep0.flat(), prep0.index().list(k), span, n_ctx, &mut w0);
            step2::gather_windows(prep1.flat(), prep1.index().list(k), span, n_ctx, &mut w1);
            let mut lanes = InterleavedWindows::new();
            lanes.build(&w1, window_len);
            (w0, w1, lanes)
        })
        .collect();
    KernelInput {
        cfg: cfg.clone(),
        window_len,
        keys,
    }
}

impl KernelInput {
    /// Score every `IL0 × IL1` pair of the prepared keys with the kernel
    /// the configuration resolves to. Returns the pairs scored.
    pub fn score_all(&self) -> f64 {
        let matrix = blosum62();
        let backend = self.cfg.step2_kernel.resolve(self.window_len, matrix);
        let mut profile = ScoreProfile::new();
        let mut scores = Vec::new();
        let mut pairs = 0usize;
        for (w0, w1, lanes) in &self.keys {
            for window in w0.chunks_exact(self.window_len) {
                profile.build(matrix, window);
                scores.clear();
                score_batch(
                    backend,
                    self.cfg.kernel,
                    matrix,
                    window,
                    &profile,
                    w1,
                    lanes,
                    &mut scores,
                );
                pairs += std::hint::black_box(&scores).len();
            }
        }
        pairs as f64
    }
}

// ---- blast ---------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub struct BlastFacts {
    pub total_s: f64,
    pub scan_s: f64,
    pub gapped_s: f64,
    pub word_hits: f64,
    pub hsps: f64,
}

impl BlastFacts {
    /// The fields by the sample names the traced run files them under.
    pub fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("blast_total_s", self.total_s),
            ("blast_scan_s", self.scan_s),
            ("blast_gapped_s", self.gapped_s),
            ("blast_word_hits", self.word_hits),
            ("blast_hsps", self.hsps),
        ]
    }
}

/// The tblastn-like baseline over the same banks (the paper's Table 2
/// denominator), default parameters.
pub fn tblastn(proteins: &Bank, frames: &Bank) -> BlastFacts {
    let r = psc_blast::tblastn(
        proteins,
        frames,
        blosum62(),
        &psc_blast::BlastConfig::default(),
    );
    BlastFacts {
        total_s: r.total_seconds(),
        scan_s: r.scan_seconds,
        gapped_s: r.gapped_seconds,
        word_hits: r.word_hits as f64,
        hsps: r.hsps.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn an_unmutated_plant_translates_back_to_its_donor() {
        let shape = gen::Shape {
            proteins: 6,
            min_len: 60,
            max_len: 90,
            genome_nt: 12_000,
            plants: 6,
            max_plant_aa: 300,
            queries: 0,
            plant_divergence: 0.0,
        };
        let inputs = gen::generate(5, &shape);
        let genome = Seq::dna("g", &inputs.genome);
        let translated = translate(&genome);
        let frames = frames_bank(&translated);
        for &(protein, plant) in &inputs.expected {
            let donor = Seq::protein("d", &inputs.proteins[protein].residues).residues;
            let found = frames
                .iter()
                .any(|(_, f)| f.residues.windows(donor.len()).any(|w| w == donor));
            assert!(found, "plant {plant} of protein {protein} not in any frame");
        }
    }

    #[test]
    fn split_bank_groups_in_file_order() {
        let seqs = (0..7)
            .map(|i| Seq::protein(format!("s{i}"), b"MKV"))
            .collect();
        let groups = split_bank(Bank::from_seqs(seqs), 3);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[1].get(0).id, "s3");
        assert_eq!(groups[2].len(), 1);
        assert_eq!(first_protein(&groups[1]).get(0).id, "s3");
    }

    #[test]
    fn oracle_keeps_the_seed_model_and_drops_the_board() {
        let board = oracle_config(Setup::Board);
        assert_eq!(board.seed.model().span(), 3);
        assert!(matches!(board.backend, Step2Backend::SoftwareScalar));
        assert_eq!(board.step2_kernel, KernelChoice::Scalar);
        let two = config(Setup::Software, Threads::Two);
        assert!(matches!(
            two.backend,
            Step2Backend::SoftwareParallel { threads: 2 }
        ));
        assert_eq!((two.index_threads, two.step3_threads), (2, 2));
    }
}
