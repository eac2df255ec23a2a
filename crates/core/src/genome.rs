//! What a protein-bank-vs-genome search — the paper's actual workload —
//! reports: [`crate::SearchEngine::query_traced`] runs the pipeline with
//! the genome's six reading frames as bank 1 and maps the resulting HSPs
//! back to forward-strand genomic coordinates.

use psc_seqio::Frame;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineConfig, SearchEngine};
    use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig, MutationConfig};
    use psc_score::blosum62;
    use psc_seqio::{Bank, Seq};
    use psc_telemetry::{NullRecorder, NullTracer};

    /// One query on a fresh default engine over `genome`.
    fn search(proteins: &Bank, genome: &Seq) -> GenomeSearchResult {
        let config = PipelineConfig::default();
        let engine = SearchEngine::for_genome(genome, blosum62(), config, &NullRecorder);
        let answer = engine.query_traced(proteins, &NullRecorder, &NullTracer);
        answer.unwrap()
    }

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
        let result = search(&donors, &synth.genome);
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
        let result = search(&proteins, &synth.genome);
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
        let result = search(&donors, &synth.genome);
        for m in &result.matches {
            assert!(m.genome_end <= synth.genome.len());
            assert!(m.genome_start < m.genome_end);
            assert_eq!((m.genome_end - m.genome_start) % 3, 0);
            assert!(m.protein_end <= donors.get(m.protein_idx).len());
            assert!(m.evalue <= 1e-3);
        }
    }
}
