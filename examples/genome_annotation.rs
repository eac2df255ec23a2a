//! Genome annotation — the paper's motivating workload.
//!
//! Generates a synthetic genome with protein-coding regions planted from
//! a known bank (standing in for the Human chromosome 1 + NCBI nr banks
//! the paper used), then locates every region by comparing the protein
//! bank against the six-frame translation, once on the software backend
//! and once on the simulated RASC-100 with 192 PEs.
//!
//! ```text
//! cargo run --release --example genome_annotation
//! ```

use psc_core::{NullRecorder, NullTracer, PipelineConfig, SearchEngine, Step2Backend};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig, MutationConfig};
use psc_score::blosum62;

fn main() {
    // A 150 kb genome with 40 planted genes drawn from a 200-protein bank.
    let proteins = random_bank(&BankConfig {
        count: 200,
        min_len: 120,
        max_len: 450,
        seed: 1001,
    });
    let synth = generate_genome(
        &GenomeConfig {
            len: 150_000,
            gene_count: 40,
            mutation: MutationConfig {
                divergence: 0.25,
                indel_rate: 0.004,
                indel_extend: 0.3,
            },
            seed: 1002,
            ..GenomeConfig::default()
        },
        &proteins,
    );
    println!(
        "genome: {} nt, {} planted coding regions; bank: {} proteins ({} aa)",
        synth.genome.len(),
        synth.plants.len(),
        proteins.len(),
        proteins.total_residues()
    );

    let search = |config| {
        let engine = SearchEngine::for_genome(&synth.genome, blosum62(), config, &NullRecorder);
        let answer = engine.query_traced(&proteins, &NullRecorder, &NullTracer);
        answer.expect("a valid configuration")
    };

    // Software pipeline.
    let sw = search(PipelineConfig {
        backend: Step2Backend::SoftwareParallel { threads: 4 },
        index_threads: 4,
        ..PipelineConfig::default()
    });

    // Simulated RASC-100, one FPGA, 192 PEs.
    let hw = search(PipelineConfig {
        backend: Step2Backend::Rasc {
            pe_count: 192,
            fpga_count: 1,
            host_threads: 4,
        },
        ..PipelineConfig::default()
    });

    // Both backends must agree.
    assert_eq!(sw.output.hsps, hw.output.hsps);

    println!("\nmatches found: {}", sw.matches.len());
    let mut recovered = 0;
    for plant in &synth.plants {
        if sw.matches.iter().any(|m| {
            m.protein_idx == plant.protein_idx
                && m.genome_start < plant.end
                && plant.start < m.genome_end
        }) {
            recovered += 1;
        }
    }
    println!(
        "planted regions recovered: {recovered}/{}",
        synth.plants.len()
    );

    println!("\ntop matches (genome coordinates):");
    for m in sw.matches.iter().take(8) {
        println!(
            "  {:>12}  frame {:>2}  {:>8}..{:<8} {}  bits={:>6.1}  E={:.2e}",
            m.protein_id,
            m.frame.number(),
            m.genome_start,
            m.genome_end,
            if m.forward { "+" } else { "-" },
            m.bit_score,
            m.evalue
        );
    }

    let board = hw.output.board.as_ref().expect("RASC backend ran");
    println!("\nstep-2 accounting:");
    println!(
        "  software (4 threads) wall:     {:>9.3} s",
        sw.output.profile.step2_wall
    );
    println!(
        "  simulated RASC-100 (192 PEs):  {:>9.3} s  ({} cycles, {:.1}% PE utilization)",
        board.accelerated_seconds,
        board.fpga_cycles[0],
        board.utilization(192) * 100.0
    );
    println!(
        "  window pairs scored: {}   survivors: {}",
        hw.output.stats.step2.pairs, hw.output.stats.step2.candidates
    );
}
