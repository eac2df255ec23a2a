//! Fleet-level determinism guarantees: the multi-board work-stealing
//! dispatcher is an *optimisation*, never a semantic change. For any
//! board count, steal policy, quarantine threshold, host thread count,
//! and fault plan, the merged HSP set, the step counters, and the
//! fleet-neutral stripped run report must be byte-identical to the
//! classic single-board run. A permanently wedged board must be
//! quarantined with all of its entries completing on other boards —
//! without degrading a single entry to host software.

use std::sync::LazyLock;

use psc_align::Hsp;
use psc_core::{
    build_run_report, try_search_genome_traced, MemRecorder, NullTracer, PipelineConfig,
    PipelineStats, Step2Backend,
};
use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
use psc_rasc::{FaultPlan, FleetConfig, StealPolicy, Topology};
use psc_score::blosum62;
use psc_seqio::prng::for_cases;

static WORKLOAD: LazyLock<(psc_seqio::Bank, psc_seqio::Seq)> = LazyLock::new(|| {
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
    (proteins, genome.genome)
});

fn fleet_config(boards: usize, host_threads: usize) -> PipelineConfig {
    PipelineConfig {
        backend: Step2Backend::Rasc {
            pe_count: 64,
            fpga_count: 2,
            host_threads,
        },
        fleet: FleetConfig {
            boards,
            ..FleetConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// One recorded run reduced to what must be invariant across fleet
/// shapes: the HSPs, the step stats, and the run report with
/// wall-clock, board/accelerator, fleet, and fault telemetry removed
/// (board-salted fault streams legitimately differ per board, and the
/// board section's shape is the fleet size).
fn neutral_run(
    cfg: PipelineConfig,
) -> (
    Vec<Hsp>,
    PipelineStats,
    Option<psc_rasc::FleetReport>,
    String,
) {
    let (proteins, genome) = &*WORKLOAD;
    let rec = MemRecorder::new();
    let result =
        try_search_genome_traced(proteins, genome, blosum62(), cfg.clone(), &rec, &NullTracer)
            .expect("valid configuration");
    let mut report = build_run_report(&result.output, &cfg, &rec.snapshot());
    report.strip_wall_clock();
    report.board = None;
    for step in &mut report.steps {
        step.accelerated_seconds = None;
    }
    report.counters.retain(|(k, _)| {
        !k.starts_with("fleet.") && !k.starts_with("step2.fault") && k != "step2.entries_degraded"
    });
    report.spans.retain(|s| !s.name.starts_with("fleet."));
    (
        result.output.hsps,
        result.output.stats,
        result.output.fleet,
        report.to_json_string(),
    )
}

static BASELINE: LazyLock<(Vec<Hsp>, PipelineStats, String)> = LazyLock::new(|| {
    let (hsps, stats, fleet, json) = neutral_run(fleet_config(1, 1));
    assert!(fleet.is_none(), "1 board must use the classic board path");
    (hsps, stats, json)
});

/// Any seeded fleet reproduces the 1-board run bit for bit.
#[test]
fn any_fleet_matches_the_single_board_run() {
    for_cases(0xf1ee, 10, |g| {
        let (boards, host_threads) = (g.range(1usize..=8), g.range(1usize..=4));
        let steal = *g.select(&[StealPolicy::Richest, StealPolicy::None]);
        let topology = *g.select(&[Topology::Crossbar, Topology::Ring]);
        let quarantine_after = g.range(1u32..=3);
        let (plan_kind, plan_seed) = (g.range(0usize..3), g.range(0u64..1000));
        let plan = match plan_kind {
            0 => None,
            1 => Some(FaultPlan::seeded(plan_seed)),
            _ => Some(FaultPlan::seeded_heavy(plan_seed)),
        };
        let mut cfg = fleet_config(boards, host_threads);
        cfg.fleet.steal_policy = steal;
        cfg.fleet.topology = topology;
        cfg.fleet.quarantine_after = quarantine_after;
        cfg.fault_plan = plan.clone();
        let (hsps, stats, fleet, json) = neutral_run(cfg);
        let label = format!(
            "boards={boards} threads={host_threads} steal={} topology={} \
             quarantine_after={quarantine_after} plan={plan:?}",
            steal.name(),
            topology.name(),
        );
        assert_eq!(&BASELINE.0, &hsps, "HSPs diverged ({})", &label);
        assert_eq!(&BASELINE.1, &stats, "stats diverged ({})", &label);
        assert_eq!(&BASELINE.2, &json, "stripped report diverged ({})", &label);
        assert_eq!(
            fleet.is_some(),
            boards >= 2,
            "fleet report presence ({})",
            &label
        );
    });
}

/// A board that wedges on every entry it is handed gets quarantined,
/// and each of its entries completes on another board — never via the
/// host-software degradation path — leaving the output unchanged.
#[test]
fn permanently_wedged_board_is_quarantined_and_entries_complete_elsewhere() {
    // Entries 1, 4, 7, 10 round-robin onto board 1 of 3; the `#1` pin
    // makes them wedge there (and only there). Two cheap protocol
    // wedges trip the quarantine threshold; everything the drain
    // re-dispatches runs clean on boards 0 and 2.
    let plan = FaultPlan::parse(
        "1:adr-fault:1000000#1,4:adr-fault:1000000#1,7:adr-fault:1000000#1,10:adr-fault:1000000#1",
    )
    .expect("valid plan");
    let mut cfg = fleet_config(3, 2);
    cfg.fleet.quarantine_after = 2;
    cfg.fault_plan = Some(plan);
    let (hsps, stats, fleet, json) = neutral_run(cfg);
    assert_eq!(BASELINE.0, hsps, "HSPs changed under quarantine");
    assert_eq!(BASELINE.1, stats, "stats changed under quarantine");
    assert_eq!(BASELINE.2, json, "stripped report changed under quarantine");
    let f = fleet.expect("fleet report at 3 boards");
    assert!(
        stats.step2.active_keys > 11,
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
        f.aggregate.faults.entries_degraded, 0,
        "re-dispatched entries must complete on boards, not host software"
    );
    let completed: u64 = f.entries_by_board.iter().sum();
    assert_eq!(
        completed, stats.step2.active_keys,
        "every entry must complete on some board"
    );
}

/// The board count changes dispatch, never results — including with
/// parallel step 3 downstream of the fleet.
#[test]
fn fleet_is_step3_thread_invariant() {
    let mut sequential = fleet_config(4, 2);
    sequential.fault_plan = Some(FaultPlan::seeded_heavy(97));
    let mut parallel = sequential.clone();
    parallel.step3_threads = 4;
    let (h1, s1, f1, j1) = neutral_run(sequential);
    let (h2, s2, f2, j2) = neutral_run(parallel);
    assert_eq!(h1, h2, "HSPs diverged with step3_threads=4");
    assert_eq!(s1, s2, "stats diverged with step3_threads=4");
    assert_eq!(j1, j2, "stripped report diverged with step3_threads=4");
    // The fleet schedule itself is invariant too: same steals, same
    // makespan, same per-board entry counts.
    let (f1, f2) = (f1.expect("fleet"), f2.expect("fleet"));
    assert_eq!(f1.steals, f2.steals);
    assert_eq!(f1.makespan_seconds, f2.makespan_seconds);
    assert_eq!(f1.entries_by_board, f2.entries_by_board);
    assert_eq!(f1.quarantined, f2.quarantined);
}
