//! Determinism guarantees: identical inputs and configuration produce
//! identical outputs — across repeated runs, across backends, and across
//! thread counts. This is what makes the simulated-hardware numbers in
//! EXPERIMENTS.md reproducible statements rather than measurements.
//! Each test checks the slice of the differential lattice
//! (`tests/lattice.rs`) its name promises; masking changes the output,
//! so its recall claim is a test of its own.

#[path = "lattice.rs"]
mod lattice;

use lattice::{check_where, Backend};
use psc_core::PipelineConfig;
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};

#[test]
fn repeated_runs_identical() {
    check_where(|w, p| w.name == "genome" && p.obs.repeat);
}

#[test]
fn telemetry_recording_does_not_change_results() {
    check_where(|w, p| w.name == "genome" && !p.obs.recorder);
}

#[test]
fn board_numbers_independent_of_host_threads() {
    check_where(|w, p| w.name == "genome" && p.obs.host_threads > 1);
}

/// Repetition again, where the whole telemetry artifact — counters,
/// histograms, simulated board seconds, metadata — is there to compare.
#[test]
fn stripped_run_reports_are_byte_identical() {
    let runs = check_where(|w, p| w.name != "genome" && p.obs.repeat && p.obs.recorder);
    assert!(runs
        .iter()
        .any(|(p, _)| matches!(p.cfg.backend, Backend::Board(..))));
}

/// Parallel step 3 is an optimisation, never a semantic change — on
/// every step-2 backend.
#[test]
fn step3_threads_match_sequential_on_every_backend() {
    let runs =
        check_where(|w, p| ["genome", "window-20"].contains(&w.name) && p.obs.step3_threads > 1);
    let on = |is: fn(&Backend) -> bool| runs.iter().any(|(p, _)| is(&p.cfg.backend));
    assert!(on(|b| *b == Backend::Scalar));
    assert!(on(|b| matches!(b, Backend::Parallel(_))));
    assert!(on(|b| matches!(b, Backend::Board(..))));
}

#[test]
fn masking_is_deterministic_and_recall_preserving() {
    check_where(|w, p| w.name == "masked" && p.obs.repeat);
    let proteins = random_bank(&BankConfig {
        count: 15,
        min_len: 80,
        max_len: 160,
        seed: 313,
    });
    let genome = generate_genome(
        &GenomeConfig {
            len: 25_000,
            gene_count: 6,
            repeat_tracts: 3,
            seed: 314,
            ..GenomeConfig::default()
        },
        &proteins,
    )
    .genome;
    let masked = lattice::search(
        &proteins,
        &genome,
        PipelineConfig {
            mask: Some(psc_seqio::MaskConfig::default()),
            ..PipelineConfig::default()
        },
    );
    // Every unmasked match's protein is still matched when masking.
    let plain = lattice::search(&proteins, &genome, PipelineConfig::default());
    for m in &plain.matches {
        assert!(
            masked.matches.iter().any(|x| x.protein_idx == m.protein_idx
                && x.genome_start < m.genome_end
                && m.genome_start < x.genome_end),
            "masking lost {m:?}"
        );
    }
}
