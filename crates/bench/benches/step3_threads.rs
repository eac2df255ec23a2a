//! Sharded parallel gapped extension vs the sequential loop (paper
//! Table 7's post-RASC bottleneck, attacked on the host side).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psc_core::{search_genome, PipelineConfig, Step2Backend};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
use psc_score::blosum62;

fn workload() -> (psc_seqio::Bank, psc_seqio::Seq) {
    let proteins = random_bank(&BankConfig {
        count: 20,
        min_len: 100,
        max_len: 200,
        seed: 515,
    });
    let genome = generate_genome(
        &GenomeConfig {
            len: 40_000,
            gene_count: 10,
            seed: 516,
            ..GenomeConfig::default()
        },
        &proteins,
    );
    (proteins, genome.genome)
}

fn cfg(step3_threads: usize) -> PipelineConfig {
    PipelineConfig {
        backend: Step2Backend::Rasc {
            pe_count: 128,
            fpga_count: 1,
            host_threads: 1,
        },
        // More surviving candidates → a step-3 load worth sharding.
        threshold: 37,
        step3_threads,
        ..PipelineConfig::default()
    }
}

fn bench_step3_threads(c: &mut Criterion) {
    let (proteins, genome) = workload();
    let mut group = c.benchmark_group("step3_threads");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("search", threads),
            &threads,
            |bch, &threads| {
                bch.iter(|| search_genome(&proteins, &genome, blosum62(), cfg(threads)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_step3_threads);
criterion_main!(benches);
