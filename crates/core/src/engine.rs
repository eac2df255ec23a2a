//! The persistent query engine: pipeline state split from query state.
//!
//! A [`SearchEngine`] owns everything about a genome that is invariant
//! across queries — the six translated frames, flattened into the one
//! buffer both seeding and step 3 read (two, when masking gives seeding
//! a view of its own), the matrix and its search statistics, and the
//! configuration — built once by [`SearchEngine::for_genome`] or loaded
//! in one read by [`SearchEngine::from_bundle`], which also brings the
//! full T1 seed index. Each [`SearchEngine::query_traced`] call then
//! builds the per-query state (the protein bank's flat view and index
//! and, unless T1 was loaded, a T1 holding only the keys that index
//! holds, built a chunk of frames at a time on the software backends)
//! and runs steps 2 and 3 through
//! [`Pipeline::try_run_prepared_traced`] or, on a T1 it keys,
//! `Pipeline::try_run_keyed_traced`.
//!
//! Because the one-shot [`crate::genome::search_genome`] path is
//! itself engine construction followed by one query, a server
//! answering from a loaded bundle produces output bit-identical to a
//! fresh `psc search` by construction — the equivalence the serve-mode
//! tests pin.
//!
//! The engine is plain shared data (`Send + Sync`); a server wraps it
//! in an `Arc` and runs concurrent queries against one instance. Any
//! simulated-board state is created per query, so queries never share
//! mutable state.

use std::borrow::Cow;

use psc_index::{deserialize_bundle, serialize_bundle, BundleT0, FlatBank, SeedIndex, SerialError};
use psc_score::{KarlinParams, SubstitutionMatrix};
use psc_seqio::{Bank, Frame, FrameCoord, GeneticCode, MaskConfig, Seq, TranslatedGenome};
use psc_telemetry::{Recorder, Tracer};

use crate::config::PipelineConfig;
use crate::genome::{GenomeMatch, GenomeSearchResult};
use crate::pipeline::{BankViews, Pipeline, PipelineError, PreparedBank, CHUNK_GROUP};

/// Why an engine could not be loaded from a bundle, or a query could
/// not run.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The artifact failed to parse or verify (bad magic/version,
    /// checksum mismatch, seed-model fingerprint mismatch, …).
    Serial(SerialError),
    /// The artifact parsed but does not match the run configuration
    /// (different matrix or masking than the indexes were built under).
    BundleMismatch(String),
    /// The underlying pipeline rejected the configuration.
    Pipeline(PipelineError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Serial(e) => write!(f, "index bundle: {e}"),
            EngineError::BundleMismatch(why) => {
                write!(f, "index bundle does not match this run: {why}")
            }
            EngineError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SerialError> for EngineError {
    fn from(e: SerialError) -> EngineError {
        EngineError::Serial(e)
    }
}

impl From<PipelineError> for EngineError {
    fn from(e: PipelineError) -> EngineError {
        EngineError::Pipeline(e)
    }
}

/// Persistent pipeline state for protein-vs-genome queries.
pub struct SearchEngine {
    pipeline: Pipeline,
    matrix: SubstitutionMatrix,
    /// [`Pipeline::search_stats`] of `matrix`, resolved once for every query.
    stats: Result<KarlinParams, PipelineError>,
    genome_id: String,
    /// Genome length in nucleotides: what maps a frame position back
    /// to the forward strand.
    genome_len: usize,
    /// The six frames' ids, in `Frame::ALL` order: what a bundle
    /// records of them beside their residues.
    frame_ids: [String; 6],
    /// The six frames as bank 1, flattened in `Frame::ALL` order.
    frames: BankViews,
    /// The frames' full T1, when loaded from a bundle. Built from a
    /// genome, the engine holds none: each query keys its own by its T0.
    prep1: Option<PreparedBank>,
    /// Kept positions per active key a chunk of that T1 holds at least.
    group: usize,
    /// Optional protein-bank section carried by the bundle: reused
    /// (skipping the per-query index build) when a query bank is
    /// sequence-identical to it.
    t0: Option<BundleT0>,
}

impl std::fmt::Debug for SearchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchEngine")
            .field("genome_id", &self.genome_id)
            .field("genome_len", &self.genome_len)
            .field("matrix", &self.matrix.name)
            .field("has_t0", &self.t0.is_some())
            .finish_non_exhaustive()
    }
}

impl SearchEngine {
    /// Build the engine from a genome: translate the six frames straight
    /// into the one buffer seeding and step 3 read. No index is built,
    /// so nothing is recorded into `rec` (kept for existing callers):
    /// each query's T1 build lands in that query's recorder and `step1`
    /// span.
    pub fn for_genome(
        genome: &Seq,
        matrix: &SubstitutionMatrix,
        config: PipelineConfig,
        _rec: &dyn Recorder,
    ) -> SearchEngine {
        let frames = FlatBank::six_frames(genome, GeneticCode::standard());
        let frame_ids = Frame::ALL.map(|f| f.seq_id(&genome.id));
        let id = genome.id.clone();
        Self::new(id, genome.len(), frame_ids, frames, matrix, config)
    }

    /// [`SearchEngine::for_genome`] from an existing translation, whose
    /// frames are copied into the engine's buffer; it records nothing
    /// into `rec` either.
    pub fn from_translated(
        translated: TranslatedGenome,
        matrix: &SubstitutionMatrix,
        config: PipelineConfig,
        _rec: &dyn Recorder,
    ) -> SearchEngine {
        let frame_ids = translated.frames().each_ref().map(|f| f.id.clone());
        let (id, len) = (translated.genome_id.clone(), translated.genome_len);
        let frames = FlatBank::from_bank(&translated.into_bank());
        Self::new(id, len, frame_ids, frames, matrix, config)
    }

    /// An engine over the six frames of a genome, holding no index yet.
    fn new(
        genome_id: String,
        genome_len: usize,
        frame_ids: [String; 6],
        frames: FlatBank,
        matrix: &SubstitutionMatrix,
        config: PipelineConfig,
    ) -> SearchEngine {
        let pipeline = Pipeline::new(config);
        SearchEngine {
            frames: BankViews::new(&pipeline.config().mask, frames),
            stats: pipeline.search_stats(matrix),
            pipeline,
            matrix: matrix.clone(),
            genome_id,
            genome_len,
            frame_ids,
            prep1: None,
            group: CHUNK_GROUP,
            t0: None,
        }
    }

    /// Load the engine from a serialized index bundle.
    ///
    /// The bundle's checksum, seed-model fingerprint, matrix and mask
    /// configuration are all verified against `config`/`matrix` before
    /// anything is used; the frames, decoded into one buffer, and the T1
    /// index are moved out of the parsed artifact (that is the
    /// amortization) — only a masked seeding view is recomputed — so
    /// query results are bit-identical to an engine built fresh from
    /// the genome.
    pub fn from_bundle(
        data: &[u8],
        matrix: &SubstitutionMatrix,
        config: PipelineConfig,
    ) -> Result<SearchEngine, EngineError> {
        let model = config.seed.model();
        let bundle = deserialize_bundle(data, model.as_ref())?;
        if bundle.matrix != *matrix {
            return Err(EngineError::BundleMismatch(format!(
                "bundle was scored with matrix {}, this run uses {}",
                bundle.matrix.name, matrix.name
            )));
        }
        if bundle.mask != config.mask {
            return Err(EngineError::BundleMismatch(format!(
                "bundle was built with masking {}, this run uses {}",
                mask_desc(&bundle.mask),
                mask_desc(&config.mask)
            )));
        }
        let (len, ids, frames) = (bundle.genome_len as usize, bundle.frame_ids, bundle.frames);
        let mut engine = Self::new(bundle.genome_id, len, ids, frames, matrix, config);
        engine.prep1 = Some(PreparedBank::from_parts(engine.frames.clone(), bundle.t1));
        engine.t0 = bundle.t0;
        Ok(engine)
    }

    /// Serialize the engine's pipeline state as an index bundle, with
    /// the full T1 — built here unless it was loaded, since a T1 keyed
    /// by one query would lose every other query's hits.
    /// `proteins` adds the optional T0 section: the bank plus its index
    /// under the same model, letting a later `--index` run skip its own
    /// step-1 build when it queries that exact bank.
    pub fn to_bundle_bytes(&self, proteins: Option<&Bank>) -> Vec<u8> {
        let cfg = self.pipeline.config();
        let model = cfg.seed.model();
        let build =
            |flat: &FlatBank| SeedIndex::build(flat, model.as_ref(), cfg.index_threads, None);
        let t1 = match &self.prep1 {
            Some(prep1) => Cow::Borrowed(prep1.index()),
            None => Cow::Owned(build(&self.frames.seeding)),
        };
        let t0_index = proteins
            .map(|bank| build(&BankViews::new(&cfg.mask, FlatBank::from_bank(bank)).seeding));
        serialize_bundle(
            model.as_ref(),
            &self.genome_id,
            self.genome_len as u64,
            cfg.mask,
            &self.matrix,
            (&self.frame_ids, &self.frames.original, &t1),
            proteins.zip(t0_index.as_ref()),
        )
    }

    /// The frames as step 3 reads them, and as seeding does.
    #[cfg(test)]
    fn frame_views(&self) -> (&FlatBank, &FlatBank) {
        (&self.frames.original, &self.frames.seeding)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &PipelineConfig {
        self.pipeline.config()
    }

    /// Id of the genome this engine serves.
    pub fn genome_id(&self) -> &str {
        &self.genome_id
    }

    /// Genome length in nucleotides.
    pub fn genome_len(&self) -> usize {
        self.genome_len
    }

    /// Whether the engine carries a T0 (protein-bank) section.
    pub fn has_t0(&self) -> bool {
        self.t0.is_some()
    }

    /// Run one query: the per-query state (protein-side step 1) is
    /// built here — or reused from the bundle's T0 section when the
    /// query bank is sequence-identical to it — with, unless T1 was
    /// loaded, a T1 of only the keys that T0 holds (all step 2 reads);
    /// then steps 2 and 3 run over the shared pipeline state. On the
    /// software backends that T1 is built a chunk of frames at a time,
    /// each chunk extended and dropped before the next
    /// (`Pipeline::try_run_keyed_traced`).
    pub fn query_traced(
        &self,
        proteins: &Bank,
        rec: &dyn Recorder,
        tracer: &dyn Tracer,
    ) -> Result<GenomeSearchResult, PipelineError> {
        let stats = self.stats.clone()?;
        let prep0 = match self
            .t0
            .as_ref()
            .filter(|t0| banks_identical(&t0.bank, proteins))
        {
            Some(t0) => PreparedBank::from_parts(
                BankViews::new(&self.pipeline.config().mask, FlatBank::from_bank(proteins)),
                t0.index.clone(),
            ),
            None => self.pipeline.prepare_bank(0, proteins, rec),
        };
        let (pipeline, matrix) = (&self.pipeline, &self.matrix);
        let (frames, group) = (&self.frames, self.group);
        let output = match &self.prep1 {
            Some(prep1) => {
                pipeline.try_run_prepared_traced(&prep0, prep1, matrix, stats, rec, tracer)?
            }
            None => {
                pipeline.try_run_keyed_traced(&prep0, frames, group, matrix, stats, rec, tracer)?
            }
        };

        let matches = output
            .hsps
            .iter()
            .map(|h| {
                let frame = Frame::ALL[h.seq1 as usize];
                let aa_len = (h.end1 - h.start1) as usize;
                let coord = FrameCoord {
                    frame,
                    aa_pos: h.start1 as usize,
                };
                let (genome_start, genome_end, forward) =
                    coord.to_genome_interval(self.genome_len, aa_len);
                GenomeMatch {
                    protein_idx: h.seq0 as usize,
                    protein_id: proteins.get(h.seq0 as usize).id.clone(),
                    frame,
                    genome_start,
                    genome_end,
                    forward,
                    protein_start: h.start0 as usize,
                    protein_end: h.end0 as usize,
                    score: h.score,
                    bit_score: h.bit_score,
                    evalue: h.evalue,
                }
            })
            .collect();

        Ok(GenomeSearchResult { matches, output })
    }
}

fn mask_desc(m: &Option<MaskConfig>) -> String {
    match m {
        None => "off".to_string(),
        Some(c) => format!(
            "on (window {}, trigger {}, extend {})",
            c.window, c.trigger, c.extend
        ),
    }
}

/// Sequence-identical banks: same ids, same residues, same order.
fn banks_identical(a: &Bank, b: &Bank) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((_, x), (_, y))| x.id == y.id && x.residues == y.residues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
    use psc_score::blosum62;
    use psc_seqio::mask_low_complexity;
    use psc_seqio::prng::for_cases;
    use psc_telemetry::{NullRecorder, NullTracer};

    fn workload() -> (Bank, Seq) {
        let donors = random_bank(&BankConfig {
            count: 6,
            min_len: 80,
            max_len: 140,
            seed: 21,
        });
        let synth = generate_genome(
            &GenomeConfig {
                len: 30_000,
                gene_count: 6,
                seed: 22,
                ..GenomeConfig::default()
            },
            &donors,
        );
        (donors, synth.genome)
    }

    fn same_matches(a: &GenomeSearchResult, b: &GenomeSearchResult) {
        assert_eq!(a.matches.len(), b.matches.len());
        for (x, y) in a.matches.iter().zip(&b.matches) {
            assert_eq!(x.protein_idx, y.protein_idx);
            assert_eq!(x.frame, y.frame);
            assert_eq!(
                (x.genome_start, x.genome_end),
                (y.genome_start, y.genome_end)
            );
            assert_eq!(x.score, y.score);
            assert_eq!(x.evalue.to_bits(), y.evalue.to_bits());
        }
    }

    /// One configuration, two engines. (`tests/lattice.rs` holds the
    /// loaded engine to the oracle, report and trace included.) A fresh
    /// engine keys T1 by each query, so its bundle must not change when
    /// it has answered one: a bundle holding bank A's keys would answer
    /// bank B without B's hits.
    #[test]
    fn bundle_round_trip_preserves_query_results() {
        let (proteins, genome) = workload();
        let (bank_a, bank_b): (Bank, Bank) = {
            let (a, b) = proteins.seqs().split_at(3);
            (a.iter().cloned().collect(), b.iter().cloned().collect())
        };
        let config = PipelineConfig::default();
        let fresh = || SearchEngine::for_genome(&genome, blosum62(), config.clone(), &NullRecorder);
        let query = |e: &SearchEngine, bank| e.query_traced(bank, &NullRecorder, &NullTracer);
        let engine = fresh();
        let before = engine.to_bundle_bytes(None);
        let a = query(&engine, &bank_a).unwrap();
        let bytes = engine.to_bundle_bytes(None);
        assert!(before == bytes, "answering bank A changed the bundle");
        let loaded = SearchEngine::from_bundle(&bytes, blosum62(), config.clone()).unwrap();
        same_matches(&a, &query(&loaded, &bank_a).unwrap());
        let (b, fresh_b) = (query(&loaded, &bank_b), query(&fresh(), &bank_b));
        let (b, fresh_b) = (b.unwrap(), fresh_b.unwrap());
        assert!(!a.matches.is_empty() && !b.matches.is_empty());
        same_matches(&b, &fresh_b);
        assert_eq!(b.output.stats, fresh_b.output.stats);
    }

    #[test]
    fn t0_section_is_reused_for_identical_bank() {
        let (proteins, genome) = workload();
        let matrix = blosum62();
        let config = PipelineConfig::default();
        let fresh = SearchEngine::for_genome(&genome, matrix, config.clone(), &NullRecorder);
        let bytes = fresh.to_bundle_bytes(Some(&proteins));
        let loaded = SearchEngine::from_bundle(&bytes, matrix, config).unwrap();
        assert!(loaded.has_t0());
        let a = fresh
            .query_traced(&proteins, &NullRecorder, &NullTracer)
            .unwrap();
        let b = loaded
            .query_traced(&proteins, &NullRecorder, &NullTracer)
            .unwrap();
        same_matches(&a, &b);
        // A different bank must not hit the T0 fast path (results still
        // correct, just rebuilt).
        let other = random_bank(&BankConfig {
            count: 3,
            min_len: 60,
            max_len: 90,
            seed: 77,
        });
        let c = loaded
            .query_traced(&other, &NullRecorder, &NullTracer)
            .unwrap();
        let c2 = fresh
            .query_traced(&other, &NullRecorder, &NullTracer)
            .unwrap();
        same_matches(&c, &c2);
    }

    /// Sum a rewritten bundle again and load it: refused as
    /// `Corrupt(refused)`, or — `None` — loaded, and answering a query.
    fn load_resummed(mut raw: Vec<u8>, refused: Option<&str>, proteins: &Bank) {
        // The frame: magic, version and flags, the sum of those four
        // bytes and of everything after it.
        let sum = psc_index::fletcher64(&[&raw[8..12], &raw[20..]]);
        raw[12..20].copy_from_slice(&sum.to_le_bytes());
        match SearchEngine::from_bundle(&raw, blosum62(), PipelineConfig::default()) {
            Err(EngineError::Serial(SerialError::Corrupt(what))) => {
                assert_eq!(Some(what), refused)
            }
            Ok(loaded) if refused.is_none() => {
                let answer = loaded.query_traced(proteins, &NullRecorder, &NullTracer);
                answer.expect("a bundle that loads answers");
            }
            other => panic!("expected {refused:?}: {other:?}"),
        }
    }

    /// A bundle is input from outside the program: one whose tables
    /// were rewritten and then summed again is refused at load if a
    /// position left its bank — step 2 would index out of bounds on it
    /// at the first query — and answers queries if none did.
    #[test]
    fn resummed_bundle_with_a_position_outside_its_bank_is_refused() {
        let (proteins, genome) = workload();
        let matrix = blosum62();
        let config = PipelineConfig::default();
        let engine = SearchEngine::for_genome(&genome, matrix, config.clone(), &NullRecorder);
        // A table's positions are the last words of its section: of the
        // file for T1 without a T0 section, and for T0 with one.
        let bytes = engine.to_bundle_bytes(Some(&proteins));
        let loaded = SearchEngine::from_bundle(&bytes, matrix, config.clone()).unwrap();
        let t1 = (
            engine.to_bundle_bytes(None),
            loaded.prep1.expect("T1").index().total_positions(),
            engine.frame_views().0.len() as u32,
        );
        let t0 = (
            bytes,
            loaded.t0.expect("T0 section").index.total_positions(),
            proteins.total_residues() as u32,
        );
        for_cases(0xb0d1e, 48, |g| {
            let (bytes, positions, bank_len) = if g.chance(0.5) { &t1 } else { &t0 };
            let outside = g.chance(0.8);
            let mut raw = bytes.clone();
            for _ in 0..g.range(1usize..=8) {
                let at = raw.len() - 4 * g.range(1..=*positions);
                let pos = match outside {
                    true => g.range(*bank_len..=u32::MAX),
                    false => g.range(0..*bank_len),
                };
                raw[at..at + 4].copy_from_slice(&pos.to_le_bytes());
            }
            let refused = outside.then_some("position outside its bank");
            load_resummed(raw, refused, &proteins);
        });
    }

    /// Likewise a residue: the score matrix, the key rows and the lane
    /// tables are indexed by residue code unchecked, so a code outside
    /// the alphabet — in a frame or in the T0 bank — is refused at load
    /// (in a release build it panicked in the matrix at the first query,
    /// or silently read a neighbouring cell), and an in-range rewrite
    /// still loads and answers.
    #[test]
    fn resummed_bundle_with_a_residue_outside_the_alphabet_is_refused() {
        let (proteins, genome) = workload();
        let matrix = blosum62();
        let config = PipelineConfig::default();
        let engine = SearchEngine::for_genome(&genome, matrix, config.clone(), &NullRecorder);
        let bytes = engine.to_bundle_bytes(Some(&proteins));
        // Sequences are stored verbatim — the frames first, the T0 bank
        // after every copy the frames hold of a planted protein.
        let stored = |seq: &[u8], found: Option<usize>| {
            let start = found.expect("stored verbatim");
            start..start + seq.len()
        };
        let hits = |s: &[u8]| bytes.windows(s.len());
        let (original, _) = engine.frame_views();
        let frames = (0..6).map(|i| original.seq(i));
        let frames = frames.map(|s| stored(s, hits(s).position(|w| w == s)));
        let t0 = proteins.seqs().iter().map(|s| &s.residues[..]);
        let t0 = t0.map(|s| stored(s, hits(s).rposition(|w| w == s)));
        let runs: Vec<_> = frames.chain(t0).collect();
        assert!(runs[5].end < runs[6].start, "T0 bank after the frames");
        for_cases(0xa1fa, 48, |g| {
            let outside = g.chance(0.7);
            let mut raw = bytes.clone();
            let run = g.select(&runs).clone();
            raw[g.range(run)] = match outside {
                true => *g.select(&[24, 255]),
                false => g.range(0..24),
            };
            let refused = outside.then_some("residue code out of range");
            load_resummed(raw, refused, &proteins);
        });
    }

    /// And the genome length, which maps a minus-strand hit back to the
    /// forward strand as `genome_len - …`: understated, that subtraction
    /// went below zero on the first such hit. The six frame lengths
    /// determine the length, so any other value is refused.
    #[test]
    fn resummed_bundle_misstating_its_genome_length_is_refused() {
        let (proteins, genome) = workload();
        let matrix = blosum62();
        let config = PipelineConfig::default();
        let engine = SearchEngine::for_genome(&genome, matrix, config.clone(), &NullRecorder);
        let bytes = engine.to_bundle_bytes(None);
        // After the frame: the model name and the genome id, each
        // behind a `u32` length.
        let at = 20 + 4 + config.seed.model().name().len() + 4 + genome.id.len();
        let len = genome.len() as u64;
        assert_eq!(bytes[at..at + 8], len.to_le_bytes());
        // 2^40 nucleotides would be 0.7 TB of frames: the loader sizes
        // its buffer from the stored frames, so this too is refused
        // before anything that size is allocated.
        for stated in [len - 3, len - 300, 0, len - 1, len + 3, 1 << 40] {
            let mut raw = bytes.clone();
            raw[at..at + 8].copy_from_slice(&stated.to_le_bytes());
            let refused = "frame length does not match genome length";
            load_resummed(raw, Some(refused), &proteins);
        }
    }

    /// The frames are held once. Unmasked, the view step 3 extends over
    /// is the seeding view itself, built from a genome or loaded from a
    /// bundle. Masked, the seeding view is a copy of its own that
    /// differs from the original residues exactly where the mask wrote
    /// `X`.
    #[test]
    fn the_engine_holds_the_frames_once() {
        let (proteins, genome) = workload();
        // A CAG run reads as a single repeated residue in every frame.
        let mut ascii = genome.to_ascii();
        ascii[9_000..9_300].copy_from_slice(&b"CAG".repeat(100));
        let genome = Seq::dna(genome.id.clone(), &ascii);
        let matrix = blosum62();
        let mask = MaskConfig::default();
        let engines = |config: PipelineConfig| {
            let built = SearchEngine::for_genome(&genome, matrix, config.clone(), &NullRecorder);
            let bytes = built.to_bundle_bytes(None);
            let loaded = SearchEngine::from_bundle(&bytes, matrix, config).unwrap();
            loaded
                .query_traced(&proteins, &NullRecorder, &NullTracer)
                .unwrap();
            [built, loaded]
        };
        let plain = engines(PipelineConfig::default());
        for engine in &plain {
            let (original, seeding) = engine.frame_views();
            assert!(std::ptr::eq(original, seeding), "two copies of the frames");
        }
        let masked = engines(PipelineConfig {
            mask: Some(mask),
            ..PipelineConfig::default()
        });
        for engine in &masked {
            let (original, seeding) = engine.frame_views();
            assert_eq!(original, plain[0].frame_views().0);
            for i in 0..6 {
                assert_eq!(seeding.seq(i), mask_low_complexity(original.seq(i), &mask));
            }
            let pairs = original.residues().iter().zip(seeding.residues());
            let differ: Vec<u8> = pairs.filter(|(o, s)| o != s).map(|(_, &s)| s).collect();
            assert!(differ.len() >= 6 * 90, "{} residues masked", differ.len());
            assert!(differ.iter().all(|&s| s == psc_seqio::Aa::X.0));
        }
    }

    /// A matrix with a non-negative expected score has no statistics:
    /// every query fails with `UnsupportedMatrix`, from a built engine
    /// and from a loaded one, before any step runs.
    #[test]
    fn a_matrix_without_statistics_is_unsupported() {
        let (proteins, genome) = workload();
        let always_win = psc_score::matrix::match_mismatch("always-win", 1, 1);
        let config = PipelineConfig::default();
        let built = SearchEngine::for_genome(&genome, &always_win, config.clone(), &NullRecorder);
        let bytes = built.to_bundle_bytes(None);
        let loaded = SearchEngine::from_bundle(&bytes, &always_win, config).unwrap();
        for engine in [built, loaded] {
            let answer = engine.query_traced(&proteins, &NullRecorder, &NullTracer);
            assert_eq!(answer.unwrap_err(), PipelineError::UnsupportedMatrix);
        }
    }

    /// BLOSUM62 at gap costs 9/2 has no table entry: its E-values are
    /// the ungapped λ and K's, bit for bit as pinned before the
    /// statistics were resolved once per engine.
    #[test]
    fn gap_costs_without_a_table_entry_get_ungapped_statistics() {
        let (proteins, genome) = workload();
        let config = PipelineConfig {
            gap: psc_align::GapConfig {
                open: 9,
                extend: 2,
                ..psc_align::GapConfig::default()
            },
            ..PipelineConfig::default()
        };
        let engine = SearchEngine::for_genome(&genome, blosum62(), config, &NullRecorder);
        let answer = engine
            .query_traced(&proteins, &NullRecorder, &NullTracer)
            .unwrap();
        let bits: Vec<u64> = answer.matches.iter().map(|m| m.evalue.to_bits()).collect();
        let pinned = [
            0x3395507703c8f68f,
            0x343ef6ef2422baeb,
            0x360c3d86985b27ee,
            0x3637bc20c242a721,
            0x375dccffdaad9221,
            0x390636b0a8300ce0,
        ];
        assert_eq!(bits, pinned);
        let ungapped = psc_score::karlin::ungapped_params(blosum62(), &psc_score::ROBINSON_FREQS);
        let (m, n) = (proteins.total_residues(), engine.frame_views().0.len());
        for (hit, hsp) in answer.matches.iter().zip(&answer.output.hsps) {
            let evalue = ungapped.unwrap().evalue(hsp.score, m, n);
            assert_eq!(hit.evalue.to_bits(), evalue.to_bits());
        }
    }

    /// Today's whole keyed T1, as the board and the one-chunk case build
    /// it: step 1 over every frame, then steps 2 and 3.
    fn whole_t1_query(
        engine: &SearchEngine,
        proteins: &Bank,
        rec: &dyn Recorder,
        tracer: &dyn Tracer,
    ) -> crate::PipelineOutput {
        let (pipeline, stats) = (&engine.pipeline, engine.stats.clone().unwrap());
        let prep0 = pipeline.prepare_bank(0, proteins, rec);
        let prep1 = pipeline.index_bank(1, engine.frames.clone(), Some(prep0.index()), rec);
        let output =
            pipeline.try_run_prepared_traced(&prep0, &prep1, &engine.matrix, stats, rec, tracer);
        output.unwrap()
    }

    /// A fresh engine's genome side in chunks of frames answers as the
    /// whole keyed T1 does: matches, HSPs, `PipelineStats`, the
    /// wall-stripped report and the virtual trace — every frame a chunk
    /// (group 0), a grouping that merges some frames and not others,
    /// and one chunk (`usize::MAX`), at 1, 2, 3 and 7 step-2 workers,
    /// masked or not, on a genome that has a frame holding no kept
    /// position. Only the chunk count and the lane-slot and tile keys,
    /// which describe the rectangles walked, may differ, and at one
    /// chunk they do not.
    #[test]
    fn frame_chunks_answer_as_the_whole_t1() {
        use crate::config::Step2Backend;
        use crate::pipeline::chunk_groups;
        use psc_index::KeyCounts;
        use psc_telemetry::{keys, MemRecorder, RingTracer, TraceClock};
        let (proteins, genome) = workload();
        // Copies of the proteins coded in frame 0 ahead of the genome
        // weigh that frame down: it is a chunk alone where its
        // neighbours merge.
        let mut rng = psc_seqio::prng::SplitMix64::new(3);
        let mut codes = Vec::new();
        for protein in proteins.seqs().iter().cycle().take(12) {
            let code = GeneticCode::standard();
            codes.extend(psc_datagen::genome::back_translate(
                &mut rng,
                &protein.residues,
                code,
            ));
        }
        codes.extend_from_slice(&genome.residues);
        let genome = Seq::from_codes(genome.id.clone(), codes, psc_seqio::SeqKind::Dna);
        // One short protein keys a 600 nt genome: a frame holds none
        // of its keys.
        let short = random_bank(&BankConfig {
            count: 1,
            min_len: 14,
            max_len: 14,
            seed: 4,
        });
        let small = generate_genome(
            &GenomeConfig {
                len: 600,
                gene_count: 1,
                seed: 5,
                ..GenomeConfig::default()
            },
            &short,
        );
        let strip = |mut report: psc_telemetry::RunReport| {
            report.strip_wall_clock();
            let walked = [
                keys::STEP1_CHUNKS_BANK1.as_str(),
                keys::STEP2_SIMD_TILES.as_str(),
                "step2.lane_",
            ];
            let keep = |k: &str| !walked.iter().any(|w| k.starts_with(w));
            let whole = report.to_json_string();
            report.counters.retain(|(k, _)| keep(k));
            report.histograms.retain(|(k, _)| keep(k));
            (report.to_json_string(), whole)
        };
        let (mut merged, mut empty_frame) = (false, false);
        for (proteins, genome) in [(&proteins, &genome), (&short, &small.genome)] {
            for (threads, mask) in [(1, false), (2, true), (3, false), (7, true), (1, true)] {
                let config = PipelineConfig {
                    backend: Step2Backend::SoftwareParallel { threads },
                    index_threads: threads,
                    mask: mask.then(MaskConfig::default),
                    ..PipelineConfig::default()
                };
                let mut engine =
                    SearchEngine::for_genome(genome, blosum62(), config.clone(), &NullRecorder);
                let run = |engine: &SearchEngine, whole: bool| {
                    let (rec, ring) = (MemRecorder::new(), RingTracer::new(TraceClock::Virtual));
                    let output = match whole {
                        false => {
                            let answer = engine.query_traced(proteins, &rec, &ring).unwrap();
                            let matches = format!("{:#?}", answer.matches);
                            (answer.output, Some(matches))
                        }
                        true => (whole_t1_query(engine, proteins, &rec, &ring), None),
                    };
                    let report = crate::build_run_report(&output.0, &config, &rec.snapshot());
                    let trace = ring.finish(&[]).to_chrome_string();
                    (output, strip(report), trace)
                };
                let ((want, _), want_report, want_trace) = run(&engine, true);
                engine.group = usize::MAX;
                let ((_, want_matches), ..) = run(&engine, false);
                // Groupings of these frames: each a chunk, as they fall
                // at 1–256 positions a key, one.
                let prep0 = engine.pipeline.prepare_bank(0, proteins, &NullRecorder);
                let (model, flat1) = (config.seed.model(), engine.frames.seeding.clone());
                let seqs = (0..6).map(|s| (s, s + 1)).collect();
                let counts = KeyCounts::count(&flat1, model.as_ref(), seqs, 1, Some(prep0.index()));
                empty_frame |= (0..6).any(|f| counts.held(f..f + 1) == 0);
                let groups = [0, 1, 2, 3, 4, 16, 256, usize::MAX];
                for group in groups {
                    let chunks = chunk_groups(&counts, prep0.index(), group);
                    merged |=
                        chunks.iter().any(|c| c.len() == 1) && chunks.iter().any(|c| c.len() > 1);
                    let what = format!("threads {threads}, mask {mask}, group {group}: {chunks:?}");
                    engine.group = group;
                    let ((got, matches), got_report, got_trace) = run(&engine, false);
                    assert_eq!(got.hsps, want.hsps, "{what}");
                    assert_eq!(got.stats, want.stats, "{what}");
                    assert_eq!(got_report.0, want_report.0, "{what}");
                    assert_eq!(got_trace, want_trace, "{what}");
                    if chunks.len() == 1 {
                        assert_eq!(got_report.1, want_report.1, "{what}");
                    }
                    assert_eq!(matches, want_matches, "{what}");
                    assert!(group > 0 || chunks.len() == 6, "{what}");
                }
                assert!(!want.hsps.is_empty() || proteins.len() == 1);
            }
        }
        assert!(merged, "no grouping merged some frames and not others");
        assert!(empty_frame, "no frame without a kept position");
    }

    /// Median step-1, step-2 and step-3 milliseconds of a served query:
    /// an engine of the served workload's shape (a 2 Mnt genome holding
    /// 200 planted proteins of 100–600 aa, loaded from a bundle, one
    /// thread) answering three-protein queries, so a per-query fixed
    /// cost shows without running the benchmark. Run
    /// `cargo test --release -p psc-core --lib -- --ignored --nocapture served_step_ms`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn served_step_ms_per_query() {
        let proteins = random_bank(&BankConfig {
            count: 200,
            min_len: 100,
            max_len: 600,
            seed: 0x5e4e,
        });
        let genome = GenomeConfig {
            len: 2_000_000,
            gene_count: 200,
            max_plant_aa: 300,
            seed: 0x5e4f,
            ..GenomeConfig::default()
        };
        let genome = generate_genome(&genome, &proteins).genome;
        let config = PipelineConfig {
            backend: crate::config::Step2Backend::SoftwareScalar,
            index_threads: 1,
            step3_threads: 1,
            ..PipelineConfig::default()
        };
        let bytes = SearchEngine::for_genome(&genome, blosum62(), config.clone(), &NullRecorder)
            .to_bundle_bytes(None);
        let engine = SearchEngine::from_bundle(&bytes, blosum62(), config).unwrap();
        let queries: Vec<Bank> = proteins
            .seqs()
            .chunks(3)
            .map(|q| q.iter().cloned().collect())
            .collect();
        let mut ms: [Vec<f64>; 4] = Default::default();
        for query in queries.iter().cycle().take(3 * queries.len()) {
            let profile = engine
                .query_traced(query, &NullRecorder, &NullTracer)
                .unwrap()
                .output
                .profile;
            let steps = [profile.step1, profile.step2_wall, profile.step3];
            for (ms, s) in ms
                .iter_mut()
                .zip(steps.into_iter().chain([steps.iter().sum()]))
            {
                ms.push(s * 1e3);
            }
        }
        let [step1, step2, step3, sum] = ms.map(|mut v| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        });
        println!(
            "{} three-protein queries: median step1 {step1:.3} ms, step2 {step2:.3} ms, \
             step3 {step3:.3} ms (steps summed {sum:.3} ms)",
            3 * queries.len()
        );
    }

    /// Steps 1 + 2 of a `genome_heavy`-shaped one-shot query in ms,
    /// the genome side whole against in frame chunks, at one and two
    /// workers (medians of eleven alternating rounds), and the
    /// high-water mark (`VmHWM` in `/proc/self/status`) each raises above
    /// the resident set of its engine, read in a child process of its own
    /// since the mark never falls: a datagen 8 Mnt genome keyed by a
    /// 12-protein T0. Run
    /// `cargo test --release -p psc-core --lib -- --ignored --nocapture genome_side_chunks`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn genome_side_chunks() {
        use crate::config::Step2Backend;
        const CHILD: &str = "GENOME_SIDE_CHUNKS_CHILD";
        let child = std::env::var(CHILD).ok();
        let proteins = random_bank(&BankConfig {
            count: 12,
            seed: 17,
            ..BankConfig::default()
        });
        let genome = GenomeConfig {
            len: 8_000_000,
            gene_count: 12,
            seed: 18,
            ..GenomeConfig::default()
        };
        let genome = generate_genome(&genome, &proteins).genome;
        let engine = |threads| {
            let backend = match threads {
                1 => Step2Backend::SoftwareScalar,
                _ => Step2Backend::SoftwareParallel { threads },
            };
            let config = PipelineConfig {
                backend,
                index_threads: threads,
                step3_threads: threads,
                ..PipelineConfig::default()
            };
            SearchEngine::for_genome(&genome, blosum62(), config, &NullRecorder)
        };
        let steps_1_2 = |engine: &SearchEngine, whole: bool| {
            let profile = match whole {
                true => whole_t1_query(engine, &proteins, &NullRecorder, &NullTracer).profile,
                false => {
                    let answer = engine.query_traced(&proteins, &NullRecorder, &NullTracer);
                    answer.unwrap().output.profile
                }
            };
            (profile.step1 + profile.step2_wall) * 1e3
        };
        let status_mb = |field: &str| {
            let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
            let line = status.lines().find(|l| l.starts_with(field));
            let kb = line.and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok());
            kb.unwrap_or(f64::NAN) / 1024.0
        };
        // `threads whole`: one query, and its mark on stdout.
        if let Some((threads, whole)) = child.as_deref().and_then(|c| c.split_once(' ')) {
            let engine = engine(threads.parse().unwrap());
            let held = status_mb("VmRSS:");
            steps_1_2(&engine, whole == "true");
            return println!("mark {}", status_mb("VmHWM:") - held);
        }
        let mark = |threads: usize, whole: bool| {
            let exe = std::env::current_exe().unwrap();
            let test = ["--ignored", "--exact", "engine::tests::genome_side_chunks"];
            let mut run = std::process::Command::new(exe);
            run.args(test).arg("--nocapture");
            let out = run
                .env(CHILD, format!("{threads} {whole}"))
                .output()
                .unwrap();
            let out = String::from_utf8_lossy(&out.stdout).into_owned();
            let line = out.lines().find_map(|l| l.strip_prefix("mark "));
            line.and_then(|mb| mb.parse::<f64>().ok())
                .unwrap_or(f64::NAN)
        };
        let engines = [engine(1), engine(2)];
        let mut ms: [[Vec<f64>; 2]; 2] = Default::default();
        for round in 0..11 {
            for whole in [round % 2 == 0, round % 2 == 1] {
                for (w, engine) in engines.iter().enumerate() {
                    ms[w][usize::from(whole)].push(steps_1_2(engine, whole));
                }
            }
        }
        for (w, ms) in ms.iter_mut().enumerate() {
            let [chunks, whole] = [0, 1].map(|i| {
                ms[i].sort_by(f64::total_cmp);
                ms[i][ms[i].len() / 2]
            });
            println!(
                "{} worker(s): steps 1 + 2 whole T1 {whole:.1} ms, frame chunks {chunks:.1} ms; \
                 high-water above the engine whole {:.1} MB, chunks {:.1} MB",
                w + 1,
                mark(w + 1, true),
                mark(w + 1, false)
            );
        }
    }

    #[test]
    fn mismatched_matrix_and_mask_are_clean_errors() {
        let (_, genome) = workload();
        let matrix = blosum62();
        let config = PipelineConfig::default();
        let engine = SearchEngine::for_genome(&genome, matrix, config.clone(), &NullRecorder);
        let bytes = engine.to_bundle_bytes(None);

        let mut other = matrix.clone();
        other.name = "OTHER".to_string();
        let err = SearchEngine::from_bundle(&bytes, &other, config.clone()).unwrap_err();
        assert!(matches!(err, EngineError::BundleMismatch(_)), "{err}");

        let masked = PipelineConfig {
            mask: Some(MaskConfig::default()),
            ..config.clone()
        };
        let err = SearchEngine::from_bundle(&bytes, matrix, masked).unwrap_err();
        assert!(matches!(err, EngineError::BundleMismatch(_)), "{err}");

        let exact = PipelineConfig {
            seed: crate::config::SeedChoice::Exact(4),
            ..config
        };
        let err = SearchEngine::from_bundle(&bytes, matrix, exact).unwrap_err();
        assert!(
            matches!(err, EngineError::Serial(SerialError::ModelMismatch { .. })),
            "{err}"
        );
    }
}
