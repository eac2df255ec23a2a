//! The simulated board's baseline run has work in it.

use psc_core::{NullRecorder, NullTracer, PipelineConfig, SearchEngine, Step2Backend};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
use psc_score::blosum62;

#[test]
fn baseline_has_work_to_corrupt() {
    let proteins = random_bank(&BankConfig {
        count: 10,
        min_len: 80,
        max_len: 150,
        seed: 1101,
    });
    let genome = GenomeConfig {
        len: 30_000,
        gene_count: 6,
        seed: 1102,
        ..GenomeConfig::default()
    };
    let genome = generate_genome(&genome, &proteins).genome;
    let cfg = PipelineConfig {
        backend: Step2Backend::Rasc {
            pe_count: 64,
            fpga_count: 2,
            host_threads: 1,
        },
        n_ctx: 8,
        threshold: 22,
        max_evalue: 10.0,
        ..PipelineConfig::default()
    };
    let engine = SearchEngine::for_genome(&genome, blosum62(), cfg, &NullRecorder);
    let answer = engine.query_traced(&proteins, &NullRecorder, &NullTracer);
    let baseline = answer.unwrap().output;
    let board = baseline.board.as_ref().expect("rasc run has a board");
    assert!(board.entries > 0);
    assert!(board.hit_count > 0);
    assert!(!baseline.hsps.is_empty());
}
