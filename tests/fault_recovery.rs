//! Pipeline-level fault-recovery guarantees: any fault plan the board
//! can express must leave the pipeline's final output bit-identical to
//! the fault-free run (recovery restores every faulted entry; slices of
//! the differential lattice, `tests/lattice.rs`), fault activity must
//! surface in the run report, and exhausted recovery must surface as
//! [`PipelineError::BoardFault`] — never a panic or hang.

#[path = "lattice.rs"]
mod lattice;

use std::sync::LazyLock;

use lattice::{check_where, Faults};
use psc_core::{
    NullRecorder, NullTracer, Pipeline, PipelineConfig, PipelineError, PipelineOutput, Step2Backend,
};
use psc_datagen::{random_bank, BankConfig};
use psc_rasc::{FaultKind, FaultPlan, FaultSpec, RecoveryPolicy};
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

fn rasc_config(host_threads: usize) -> PipelineConfig {
    PipelineConfig {
        backend: Step2Backend::Rasc {
            pe_count: 64,
            fpga_count: 2,
            host_threads,
        },
        n_ctx: 8,
        threshold: 22,
        max_evalue: 10.0,
        ..PipelineConfig::default()
    }
}

/// The fault-free RASC reference everything is compared against.
static BASELINE: LazyLock<PipelineOutput> = LazyLock::new(|| {
    let (b0, b1) = banks();
    Pipeline::new(rasc_config(1)).run(&b0, &b1, blosum62())
});

#[test]
fn baseline_has_work_to_corrupt() {
    let board = BASELINE.board.as_ref().expect("rasc run has a board");
    assert!(board.entries > 0);
    assert!(board.hit_count > 0);
    assert!(!BASELINE.hsps.is_empty());
}

/// An entry that never recovers degrades to host software: output
/// unchanged (the lattice's check), and the report says what happened.
#[test]
fn degraded_run_is_bit_identical_and_reported() {
    for (_, run) in check_where(|_, p| p.cfg.faults == Faults::Degrade && p.obs.recorder) {
        let report = run.report.expect("recorded");
        assert_eq!(report.counter("step2.entries_degraded"), Some(1));
        assert_eq!(report.counter("step2.fault_retries"), Some(3));
        assert!(report.counter("step2.faults_detected") >= Some(4));
        // The counters survive JSON, nested per detector and recovery.
        let back = psc_core::RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(
            back.board
                .as_ref()
                .unwrap()
                .faults
                .recovery
                .entries_degraded,
            1
        );
        assert_eq!(report, back);
    }
}

#[test]
fn exhausted_recovery_surfaces_as_pipeline_error() {
    let (b0, b1) = banks();
    for host_threads in [1, 2] {
        let cfg = PipelineConfig {
            fault_plan: Some(FaultPlan::Scripted(vec![FaultSpec {
                entry: 0,
                fpga: None,
                kind: FaultKind::DmaCorrupt,
                attempts: u32::MAX,
            }])),
            recovery: RecoveryPolicy {
                degrade: false,
                ..RecoveryPolicy::default()
            },
            ..rasc_config(host_threads)
        };
        let err = Pipeline::new(cfg)
            .try_run_traced(&b0, &b1, blosum62(), &NullRecorder, &NullTracer)
            .unwrap_err();
        match err {
            PipelineError::BoardFault(bf) => {
                assert_eq!(bf.entry, 0, "host_threads={host_threads}");
                assert_eq!(bf.kind, FaultKind::DmaCorrupt);
                assert_eq!(bf.attempts, 4, "default budget is 3 retries");
            }
            other => panic!("expected BoardFault, got {other:?}"),
        }
    }
}

/// Any seeded plan, at any rate up to "every dispatch faults", yields
/// bit-identical pipeline output.
#[test]
fn any_seeded_plan_is_lossless() {
    let seeded = |p: &lattice::Point| matches!(p.cfg.faults, Faults::Seeded(..));
    let runs = check_where(|w, p| ["genome", "window-20"].contains(&w.name) && seeded(p));
    assert!(runs
        .iter()
        .any(|(p, _)| p.cfg.faults == Faults::Seeded(5, 1_000_000)));
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
