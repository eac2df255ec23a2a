//! PSC-operator geometry sweeps (paper Figure 1): simulated-hardware
//! cycle counts vs array and slot size, reported via criterion's
//! measurement of the functional path's wall cost plus printed cycles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psc_rasc::{FunctionalOperator, OperatorConfig};
use psc_score::blosum62;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn windows(rng: &mut StdRng, count: usize, len: usize) -> Vec<u8> {
    (0..count * len).map(|_| rng.gen_range(0..20u8)).collect()
}

fn bench_array_sizes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let window = 60usize;
    let il0 = windows(&mut rng, 384, window);
    let il1 = windows(&mut rng, 128, window);

    let mut group = c.benchmark_group("operator_array_size");
    group.sample_size(10);
    for pes in [64usize, 128, 192] {
        let mut cfg = OperatorConfig::new(pes);
        cfg.window_len = window;
        let mut op = FunctionalOperator::new(cfg.clone(), blosum62()).unwrap();
        let cycles = op.run_entry(&il0, &il1).cycles;
        println!("[operator] {pes} PEs: {cycles} simulated cycles for 384×128 windows");
        group.bench_function(BenchmarkId::new("pes", pes), |b| {
            b.iter(|| op.run_entry(&il0, &il1));
        });
    }
    group.finish();
}

fn bench_slot_sizes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let window = 60usize;
    let il0 = windows(&mut rng, 192, window);
    let il1 = windows(&mut rng, 96, window);

    let mut group = c.benchmark_group("operator_slot_size");
    group.sample_size(10);
    for slot in [4usize, 16, 64] {
        let mut cfg = OperatorConfig::new(192);
        cfg.window_len = window;
        cfg.slot_size = slot;
        let mut op = FunctionalOperator::new(cfg.clone(), blosum62()).unwrap();
        let cycles = op.run_entry(&il0, &il1).cycles;
        println!("[operator] slot {slot}: {cycles} simulated cycles (192 PEs)");
        group.bench_function(BenchmarkId::new("slot", slot), |b| {
            b.iter(|| op.run_entry(&il0, &il1));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_array_sizes, bench_slot_sizes);
criterion_main!(benches);
