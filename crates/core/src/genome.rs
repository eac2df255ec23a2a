//! Protein-bank-vs-genome search: the paper's actual workload.
//!
//! Translates the genome into its six reading frames, runs the pipeline
//! with the frames as bank 1, and maps the resulting HSPs back to
//! forward-strand genomic coordinates.

use psc_score::SubstitutionMatrix;
use psc_seqio::{Bank, Frame, Seq};

use crate::config::PipelineConfig;
use crate::engine::SearchEngine;
use crate::pipeline::PipelineOutput;

/// One reported protein-to-genome match.
#[derive(Clone, Debug)]
pub struct GenomeMatch {
    /// Index and id of the protein in the query bank.
    pub protein_idx: usize,
    pub protein_id: String,
    /// Reading frame the hit was found in.
    pub frame: Frame,
    /// Forward-strand genomic interval `[start, end)` in nucleotides.
    pub genome_start: usize,
    pub genome_end: usize,
    /// True when the coding strand is the forward strand.
    pub forward: bool,
    /// Protein residue range `[start, end)` of the alignment.
    pub protein_start: usize,
    pub protein_end: usize,
    /// Scores.
    pub score: i32,
    pub bit_score: f64,
    pub evalue: f64,
}

/// Result of a genome search.
#[derive(Clone, Debug)]
pub struct GenomeSearchResult {
    /// Matches in ascending E-value order.
    pub matches: Vec<GenomeMatch>,
    /// The underlying pipeline output (profile, stats, board report);
    /// its `hsps` are in frame coordinates.
    pub output: PipelineOutput,
}

/// Compare a protein bank against a genome (the paper's tblastn-style
/// workload), reporting genomic coordinates.
///
/// This is exactly [`SearchEngine::for_genome`] followed by one
/// [`SearchEngine::query_traced`] call — frame translation happens
/// here, and the genome-side index build, keyed by this query's T0, is
/// attributed to this query's `step1` span, preserving one-shot
/// accounting. A server loading the same state from a bundle answers
/// the same query bit-identically, minus the build time.
///
/// (Frame translation is genuinely part of step 1 in the paper's
/// accounting, but it is cheap — <1 % here; the pipeline times indexing
/// separately either way.)
///
/// Panics on configuration errors; call the engine directly to handle
/// them.
pub fn search_genome(
    proteins: &Bank,
    genome: &Seq,
    matrix: &SubstitutionMatrix,
    config: PipelineConfig,
) -> GenomeSearchResult {
    let rec = &psc_telemetry::NullRecorder;
    SearchEngine::for_genome(genome, matrix, config, rec)
        .query_traced(proteins, rec, &psc_telemetry::NullTracer)
        .unwrap_or_else(|e| panic!("pipeline configuration error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig, MutationConfig};
    use psc_score::blosum62;

    #[test]
    fn recovers_planted_genes() {
        let donors = random_bank(&BankConfig {
            count: 8,
            min_len: 90,
            max_len: 150,
            seed: 41,
        });
        let synth = generate_genome(
            &GenomeConfig {
                len: 60_000,
                gene_count: 10,
                mutation: MutationConfig {
                    divergence: 0.15,
                    indel_rate: 0.002,
                    indel_extend: 0.3,
                },
                seed: 42,
                ..GenomeConfig::default()
            },
            &donors,
        );
        assert!(!synth.plants.is_empty());
        let result = search_genome(
            &donors,
            &synth.genome,
            blosum62(),
            PipelineConfig::default(),
        );
        assert!(!result.matches.is_empty());
        // Every plant should be hit by its donor protein at roughly the
        // planted interval.
        for plant in &synth.plants {
            let found = result.matches.iter().any(|m| {
                m.protein_idx == plant.protein_idx
                    && m.forward == plant.forward
                    && m.genome_start < plant.end
                    && plant.start < m.genome_end
            });
            assert!(found, "plant {plant:?} not recovered");
        }
        // Matches are sorted by E-value.
        for w in result.matches.windows(2) {
            assert!(w[0].evalue <= w[1].evalue);
        }
    }

    #[test]
    fn genome_without_genes_yields_nothing() {
        let proteins = random_bank(&BankConfig {
            count: 5,
            min_len: 100,
            max_len: 200,
            seed: 7,
        });
        let synth = generate_genome(
            &GenomeConfig {
                len: 30_000,
                gene_count: 0,
                seed: 8,
                ..GenomeConfig::default()
            },
            &psc_seqio::Bank::new(),
        );
        let result = search_genome(
            &proteins,
            &synth.genome,
            blosum62(),
            PipelineConfig::default(),
        );
        assert!(
            result.matches.is_empty(),
            "spurious matches: {:?}",
            result.matches.len()
        );
    }

    #[test]
    fn match_coordinates_are_consistent() {
        let donors = random_bank(&BankConfig {
            count: 3,
            min_len: 80,
            max_len: 120,
            seed: 13,
        });
        let synth = generate_genome(
            &GenomeConfig {
                len: 20_000,
                gene_count: 4,
                mutation: MutationConfig {
                    divergence: 0.0,
                    indel_rate: 0.0,
                    indel_extend: 0.0,
                },
                seed: 14,
                ..GenomeConfig::default()
            },
            &donors,
        );
        let result = search_genome(
            &donors,
            &synth.genome,
            blosum62(),
            PipelineConfig::default(),
        );
        for m in &result.matches {
            assert!(m.genome_end <= synth.genome.len());
            assert!(m.genome_start < m.genome_end);
            assert_eq!((m.genome_end - m.genome_start) % 3, 0);
            assert!(m.protein_end <= donors.get(m.protein_idx).len());
            assert!(m.evalue <= 1e-3);
        }
    }
}
