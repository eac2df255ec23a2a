//! The simulated board's baseline run has work in it, and the step-2
//! SIMD tile telemetry counts the tiles the hot loop walks.

use psc_core::{Pipeline, PipelineConfig, Step2Backend};
use psc_datagen::{random_bank, BankConfig};
use psc_score::blosum62;
use psc_seqio::prng::for_cases;
use psc_seqio::Bank;

fn banks() -> (Bank, Bank) {
    let b0 = random_bank(&BankConfig {
        count: 10,
        min_len: 80,
        max_len: 150,
        seed: 1101,
    });
    let b1 = random_bank(&BankConfig {
        count: 8,
        min_len: 80,
        max_len: 150,
        seed: 1102,
    });
    (b0, b1)
}

#[test]
fn baseline_has_work_to_corrupt() {
    let (b0, b1) = banks();
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
    let baseline = Pipeline::new(cfg).run(&b0, &b1, blosum62());
    let board = baseline.board.as_ref().expect("rasc run has a board");
    assert!(board.entries > 0);
    assert!(board.hit_count > 0);
    assert!(!baseline.hsps.is_empty());
}

/// The step-2 SIMD tile telemetry's closed form equals the length
/// of the tile walk the hot loop actually performs.
#[test]
fn simd_tile_count_matches_walk() {
    for_cases(0xfa02, 8, |g| {
        let (n0, n1, l) = (
            g.range(0usize..3000),
            g.range(0usize..30_000),
            g.range(1usize..4096),
        );
        let walked = psc_core::step2::simd_tile_walk(n0, n1, l).count() as u64;
        assert_eq!(psc_core::step2::simd_tile_count(n0, n1, l), walked);
    });
}
