//! Quickstart: the README's library snippet on a small synthetic genome.
//! Four proteins of an eight-protein bank are planted, diverged, in a
//! 20 kb genome; the bank is searched against the genome's six frames
//! on the simulated RASC-100, and every planted copy must be found.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use psc_core::{
    NullRecorder, NullTracer, PipelineConfig, PipelineError, SearchEngine, Step2Backend,
};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
use psc_score::blosum62;

fn main() -> Result<(), PipelineError> {
    let proteins = random_bank(&BankConfig {
        count: 8,
        min_len: 100,
        max_len: 200,
        seed: 33,
    });
    let synth = generate_genome(
        &GenomeConfig {
            len: 20_000,
            gene_count: 4,
            seed: 34,
            ..GenomeConfig::default()
        },
        &proteins,
    );
    let genome = synth.genome;

    let config = PipelineConfig {
        backend: Step2Backend::Rasc {
            pe_count: 192,
            fpga_count: 1,
            host_threads: 4,
        },
        ..PipelineConfig::default()
    };
    let engine = SearchEngine::for_genome(&genome, blosum62(), config, &NullRecorder);
    let result = engine.query_traced(&proteins, &NullRecorder, &NullTracer)?;
    for m in &result.matches {
        println!(
            "{} hits {}..{} (frame {}, E={:.1e})",
            m.protein_id, m.genome_start, m.genome_end, m.frame, m.evalue
        );
    }

    for plant in &synth.plants {
        let found = result.matches.iter().any(|m| {
            m.protein_idx == plant.protein_idx
                && m.genome_start < plant.end
                && plant.start < m.genome_end
        });
        assert!(found, "planted copy not found: {plant:?}");
    }
    println!("all {} planted copies found", synth.plants.len());
    Ok(())
}
