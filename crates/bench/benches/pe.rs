//! Cost of simulating one processing element, cycle-accurate vs
//! functional (paper Figure 2) — how expensive is fidelity?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use psc_rasc::{FunctionalOperator, OperatorConfig, PscOperator};
use psc_score::blosum62;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn windows(rng: &mut StdRng, count: usize, len: usize) -> Vec<u8> {
    (0..count * len).map(|_| rng.gen_range(0..20u8)).collect()
}

fn bench_pe_paths(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let window = 60usize;
    let il0 = windows(&mut rng, 16, window);
    let il1 = windows(&mut rng, 64, window);
    let scored = (16 * 64 * window) as u64;

    let mut cfg = OperatorConfig::new(16);
    cfg.window_len = window;
    cfg.slot_size = 8;

    let mut group = c.benchmark_group("pe_simulation");
    group.throughput(Throughput::Elements(scored));
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("cycle_accurate", "16x64"),
        &cfg,
        |b, cfg| {
            let mut op = PscOperator::new(cfg.clone(), blosum62()).unwrap();
            b.iter(|| op.run_entry(&il0, &il1));
        },
    );
    group.bench_with_input(BenchmarkId::new("functional", "16x64"), &cfg, |b, cfg| {
        let mut op = FunctionalOperator::new(cfg.clone(), blosum62()).unwrap();
        b.iter(|| op.run_entry(&il0, &il1));
    });
    group.finish();
}

criterion_group!(benches, bench_pe_paths);
criterion_main!(benches);
