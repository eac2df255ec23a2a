//! Fleet-level guarantees: the multi-board work-stealing dispatcher is
//! an *optimisation*, never a semantic change — for any board count,
//! steal policy, quarantine threshold, host thread count and fault
//! plan, which the differential lattice (`tests/lattice.rs`) holds to
//! the oracle; these tests check its fleet slices. A permanently wedged
//! board must be quarantined with all of its entries completing on
//! other boards — without degrading a single entry to host software.

#[path = "lattice.rs"]
mod lattice;

use lattice::{check_where, wedge_board_1, Faults};
use psc_core::{search_genome, PipelineConfig, Step2Backend};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
use psc_rasc::FleetConfig;
use psc_score::blosum62;

/// Any fleet reproduces the oracle bit for bit, and reports itself.
#[test]
fn any_fleet_matches_the_single_board_run() {
    let runs = check_where(|w, p| {
        ["genome", "window-20"].contains(&w.name) && p.cfg.fleet.0 > 1 && p.obs.recorder
    });
    for (p, run) in &runs {
        let boards = run.report.as_ref().and_then(|r| r.counter("fleet.boards"));
        assert_eq!(boards, Some(p.cfg.fleet.0 as u64), "{p:?}");
    }
    assert!(runs.iter().any(|(p, _)| p.cfg.faults != Faults::None));
}

/// The board count changes dispatch, never results — including with
/// parallel step 3 downstream of the fleet, which must also leave the
/// fleet's own schedule (the `fleet.*` keys of the whole report) alone.
#[test]
fn fleet_is_step3_thread_invariant() {
    check_where(|_, p| p.cfg.fleet.0 > 1 && p.obs.step3_threads > 1);
}

/// A board that wedges on every entry it is handed gets quarantined,
/// and each of its entries completes on another board — never via the
/// host-software degradation path. (That the output is unchanged is the
/// lattice's `Faults::WedgeBoard1` point.)
#[test]
fn permanently_wedged_board_is_quarantined_and_entries_complete_elsewhere() {
    let proteins = random_bank(&BankConfig {
        count: 10,
        min_len: 80,
        max_len: 150,
        seed: 2301,
    });
    let genome = generate_genome(
        &GenomeConfig {
            len: 15_000,
            gene_count: 5,
            repeat_tracts: 2,
            seed: 2302,
            ..GenomeConfig::default()
        },
        &proteins,
    );
    // Entries 1, 4, 7, 10 round-robin onto board 1 of 3; the `#1` pin
    // makes them wedge there (and only there). Two cheap protocol
    // wedges trip the quarantine threshold; everything the drain
    // re-dispatches runs clean on boards 0 and 2.
    let cfg = PipelineConfig {
        backend: Step2Backend::Rasc {
            pe_count: 64,
            fpga_count: 2,
            host_threads: 2,
        },
        fleet: FleetConfig {
            boards: 3,
            quarantine_after: 2,
            ..FleetConfig::default()
        },
        fault_plan: Some(wedge_board_1()),
        ..PipelineConfig::default()
    };
    let output = search_genome(&proteins, &genome.genome, blosum62(), cfg).output;
    let f = output.fleet.expect("fleet report at 3 boards");
    let board = output.board.expect("board report at 3 boards");
    assert!(
        output.stats.step2.active_keys > 11,
        "workload too small to exercise the pinned entries"
    );
    assert!(
        f.quarantined.contains(&1),
        "the wedging board was not quarantined: {:?}",
        f.quarantined
    );
    assert!(
        f.redispatched >= 2,
        "expected the strikes and the drain to re-dispatch entries, got {}",
        f.redispatched
    );
    assert_eq!(
        board.faults.entries_degraded, 0,
        "re-dispatched entries must complete on boards, not host software"
    );
    let completed: u64 = f.entries_by_board.iter().sum();
    assert_eq!(
        completed, output.stats.step2.active_keys,
        "every entry must complete on some board"
    );
}
