//! Integration tests of the board's fault-injection and recovery path.
//!
//! The tentpole invariant: under *any* fault plan, the hit sets the
//! board delivers are bit-identical to the fault-free run — faults cost
//! simulated cycles and bytes, never results. Reports (including the
//! fault counters) must also be independent of `host_threads`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use psc_rasc::fault::ALL_FAULT_KINDS;
use psc_rasc::{
    BoardConfig, BoardReport, Entry, FaultKind, FaultPlan, FaultSpec, Hit, OperatorConfig,
    RascBoard, RecoveryPolicy,
};
use psc_score::blosum62;
use psc_seqio::alphabet::encode_protein;

fn windows(words: &[&[u8]]) -> Vec<u8> {
    let mut v = Vec::new();
    for w in words {
        v.extend_from_slice(&encode_protein(w));
    }
    v
}

fn test_config(fpgas: usize) -> BoardConfig {
    let mut op = OperatorConfig::new(8);
    op.window_len = 6;
    op.threshold = 20;
    op.slot_size = 4;
    BoardConfig::new(op, fpgas)
}

/// Entries whose IL0 shards produce hits on *both* FPGAs of a 2-FPGA
/// board (so result-path faults always have something to damage), plus
/// some per-entry variation.
fn workload(n: usize) -> Vec<Entry> {
    (0..n)
        .map(|i| {
            let spice: Vec<u8> = (0..6u8).map(|r| (r * 3 + i as u8) % 20).collect();
            Entry {
                il0: [
                    windows(&[b"MKVLAW", b"RNDCQE", b"MKVLAW", b"RNDCQE"]),
                    spice.clone(),
                ]
                .concat(),
                il1: [windows(&[b"MKVLAW", b"RNDCQE"]), spice].concat(),
            }
        })
        .collect()
}

fn board(cfg: BoardConfig) -> RascBoard {
    RascBoard::new(cfg, blosum62()).unwrap()
}

fn sorted(mut hits: Vec<Vec<Hit>>) -> Vec<Vec<Hit>> {
    for h in &mut hits {
        h.sort_by_key(|h| (h.i0, h.i1, h.score));
    }
    hits
}

#[test]
fn every_fault_kind_recovers_bit_identical() {
    let work = workload(6);
    let (base_hits, base_rep) = board(test_config(2)).run_workload(&work).unwrap();
    let base_hits = sorted(base_hits);
    for kind in ALL_FAULT_KINDS {
        let mut cfg = test_config(2);
        cfg.fault_plan = Some(FaultPlan::Scripted(vec![FaultSpec {
            entry: 1,
            fpga: None,
            kind,
            attempts: 2,
        }]));
        let (hits, rep) = board(cfg).run_workload(&work).unwrap();
        assert_eq!(sorted(hits), base_hits, "{kind}: results must not change");
        // Two FPGAs, two failing attempts each.
        assert_eq!(rep.faults.faults_injected, 4, "{kind}");
        assert_eq!(rep.faults.faults_detected, 4, "{kind}");
        assert_eq!(rep.faults.retries, 4, "{kind}");
        assert_eq!(rep.faults.entries_degraded, 0, "{kind}");
        match kind {
            FaultKind::DmaCorrupt | FaultKind::FifoOverflow | FaultKind::PeFlip => {
                assert_eq!(rep.faults.checksum_mismatches, 4, "{kind}")
            }
            FaultKind::DmaTruncate | FaultKind::AdrFault => {
                assert_eq!(rep.faults.protocol_faults, 4, "{kind}")
            }
            FaultKind::FifoStall => assert_eq!(rep.faults.watchdog_trips, 4, "{kind}"),
        }
        // Every retry re-streams the entry and burns cycles.
        assert!(rep.bytes_in > base_rep.bytes_in, "{kind}");
        let cycles: u64 = rep.fpga_cycles.iter().sum();
        let base_cycles: u64 = base_rep.fpga_cycles.iter().sum();
        assert!(cycles > base_cycles, "{kind}");
        // Faulted attempts never count as useful PE work.
        assert_eq!(rep.busy_pe_cycles, base_rep.busy_pe_cycles, "{kind}");
        assert_eq!(rep.hit_count, base_rep.hit_count, "{kind}");
    }
}

#[test]
fn backoff_escalates_deterministically() {
    let work = workload(4);
    let mut cfg = test_config(2);
    cfg.fault_plan = Some(FaultPlan::Scripted(vec![FaultSpec {
        entry: 2,
        fpga: None,
        kind: FaultKind::AdrFault,
        attempts: 3,
    }]));
    let (_, rep) = board(cfg).run_workload(&work).unwrap();
    // Three retries per FPGA: 256 + 512 + 1024 cycles of backoff each.
    assert_eq!(rep.faults.retries, 6);
    assert_eq!(rep.faults.backoff_cycles, 2 * (256 + 512 + 1024));
}

#[test]
fn watchdog_trip_costs_simulated_time() {
    let work = workload(4);
    let (_, base) = board(test_config(1)).run_workload(&work).unwrap();
    let mut cfg = test_config(1);
    cfg.fault_plan = Some(FaultPlan::Scripted(vec![FaultSpec {
        entry: 0,
        fpga: Some(0),
        kind: FaultKind::FifoStall,
        attempts: 1,
    }]));
    let (_, rep) = board(cfg).run_workload(&work).unwrap();
    assert_eq!(rep.faults.watchdog_trips, 1);
    // The wedged dispatch burned its whole watchdog budget, so the
    // simulated accelerated section is strictly longer.
    assert!(rep.fpga_cycles[0] > base.fpga_cycles[0]);
    assert!(rep.accelerated_seconds > base.accelerated_seconds);
}

#[test]
fn persistent_fault_degrades_to_software_with_identical_results() {
    let work = workload(6);
    let (base_hits, _) = board(test_config(2)).run_workload(&work).unwrap();
    let mut cfg = test_config(2);
    // Outlasts the default 3-retry budget on FPGA 1 only.
    cfg.fault_plan = Some(FaultPlan::Scripted(vec![FaultSpec {
        entry: 4,
        fpga: Some(1),
        kind: FaultKind::PeFlip,
        attempts: 100,
    }]));
    let (hits, rep) = board(cfg).run_workload(&work).unwrap();
    assert_eq!(sorted(hits), sorted(base_hits));
    assert_eq!(rep.faults.entries_degraded, 1);
    assert_eq!(rep.faults.retries, 3);
    assert_eq!(rep.faults.faults_injected, 4);
}

#[test]
fn exhausted_recovery_without_degradation_is_an_error() {
    let work = workload(8);
    let mut cfg = test_config(2);
    cfg.recovery = RecoveryPolicy {
        degrade: false,
        ..RecoveryPolicy::default()
    };
    // Two persistently failing entries; the earliest must be reported.
    cfg.fault_plan = Some(FaultPlan::Scripted(vec![
        FaultSpec {
            entry: 5,
            fpga: None,
            kind: FaultKind::DmaCorrupt,
            attempts: 100,
        },
        FaultSpec {
            entry: 3,
            fpga: Some(1),
            kind: FaultKind::AdrFault,
            attempts: 100,
        },
    ]));
    let board = board(cfg);
    for threads in [1, 4] {
        let err = board
            .run_stream(work.iter().cloned(), threads, |_, _| {})
            .unwrap_err();
        assert_eq!(err.entry, 3, "threads={threads}");
        assert_eq!(err.fpga, 1, "threads={threads}");
        assert_eq!(err.kind, FaultKind::AdrFault, "threads={threads}");
        assert_eq!(err.attempts, 4, "threads={threads}");
        assert!(err.to_string().contains("entry 3"), "{err}");
    }
}

#[test]
fn seeded_plan_is_thread_count_invariant_and_lossless() {
    let work = workload(20);
    let (base_hits, _) = board(test_config(2)).run_workload(&work).unwrap();
    let mut cfg = test_config(2);
    cfg.fault_plan = Some(FaultPlan::seeded(42));
    let board = board(cfg);
    let (seq_hits, seq_rep) = board.run_workload(&work).unwrap();
    // The seeded plan actually does something on this workload…
    assert!(seq_rep.faults.faults_injected > 0);
    assert!(seq_rep.faults.retries > 0);
    // …and costs nothing in results.
    assert_eq!(sorted(seq_hits.clone()), sorted(base_hits));
    for threads in [2, 4] {
        let mut par_hits: Vec<Vec<Hit>> = vec![Vec::new(); work.len()];
        let par_rep = board
            .run_stream(work.iter().cloned(), threads, |idx, h| {
                par_hits[idx as usize] = h;
            })
            .unwrap();
        assert_eq!(seq_hits, par_hits, "threads={threads}");
        assert_eq!(seq_rep.faults, par_rep.faults, "threads={threads}");
        assert_eq!(
            seq_rep.fpga_cycles, par_rep.fpga_cycles,
            "threads={threads}"
        );
        assert_eq!(seq_rep.bytes_in, par_rep.bytes_in, "threads={threads}");
        assert_eq!(seq_rep.hit_count, par_rep.hit_count, "threads={threads}");
    }
}

#[test]
fn seeded_plan_exercises_degradation() {
    let work = workload(40);
    let (base_hits, _) = board(test_config(2)).run_workload(&work).unwrap();
    let mut cfg = test_config(2);
    cfg.fault_plan = Some(FaultPlan::seeded(7));
    let (hits, rep) = board(cfg).run_workload(&work).unwrap();
    // Seeded persistence spans 1–6 attempts, so a 40-entry run sees
    // both recovered retries and software-degraded shards.
    assert!(rep.faults.entries_degraded > 0);
    assert!(rep.faults.retries > rep.faults.entries_degraded * 3);
    assert_eq!(sorted(hits), sorted(base_hits));
}

/// One line per report: every counter vector, every `f64` by its bits,
/// and the `fletcher64` of the timeline's fields.
fn pin_line(r: &BoardReport) -> String {
    let mut timeline = Vec::new();
    for s in &r.timeline {
        for word in [
            s.entry,
            s.fpga as u64,
            s.dma_start.to_bits(),
            s.dma_end.to_bits(),
            s.compute_start.to_bits(),
            s.compute_end.to_bits(),
            s.backoff_seconds.to_bits(),
            s.retries as u64,
            s.degraded as u64,
        ] {
            timeline.extend_from_slice(&word.to_le_bytes());
        }
    }
    let f = &r.faults;
    let seconds = [
        r.wire_in_seconds,
        r.wire_out_seconds,
        r.accelerated_seconds,
        r.overlap_seconds,
        r.overlap_occupancy,
        r.sync_seconds,
        r.setup_seconds,
    ]
    .map(|s| format!("{:016x}", s.to_bits()));
    format!(
        "cycles {:?} stalls {:?} busy {:?} peak {:?} in {} out {} entries {} hits {} \
         faults {:?} seconds {} timeline {:016x}",
        r.fpga_cycles,
        r.stall_cycles,
        r.busy_pe_cycles,
        r.fifo_peak,
        r.bytes_in,
        r.bytes_out,
        r.entries,
        r.hit_count,
        [
            f.faults_injected,
            f.faults_detected,
            f.checksum_mismatches,
            f.watchdog_trips,
            f.protocol_faults,
            f.retries,
            f.entries_degraded,
            f.backoff_cycles,
        ],
        seconds.join(" "),
        psc_index::fletcher64(&[&timeline]),
    )
}

/// The board's whole report on `workload(40)`, pinned line for line:
/// what one board simulates must never move by accident.
#[test]
fn one_board_report_is_pinned() {
    let work = workload(40);
    let plans = [
        ("none", None),
        ("seeded(7)", Some(FaultPlan::seeded(7))),
        (
            "4:pe-flip:100@1",
            Some(FaultPlan::parse("4:pe-flip:100@1").unwrap()),
        ),
    ];
    let want = [
        // 1 FPGA, none
        "cycles [2080] stalls [0] busy [3600] peak [2] in 1920 out 1600 entries 40 hits 200 faults [0, 0, 0, 0, 0, 0, 0, 0] seconds 3ea421f5f40d8376 3ea0c6f7a0b5ed8d 3fe99a6e12ad2bc8 3ea3a11c9ac0602e 3f9cc77ca608bb76 0000000000000000 3fe99a415f45e0b5 timeline 19552844000395c4",
        // 1 FPGA, seeded(7)
        "cycles [22800] stalls [0] busy [2970] peak [2] in 3648 out 1320 entries 40 hits 165 faults [43, 43, 12, 0, 31, 36, 7, 20224] seconds 3eb3204341733ce4 3e9baeb22f9294c3 3fe99c206b5a6c07 3eb2dfd694cca9bd 3f74358deb4919b9 0000000000000000 3fe99a415f45e0b5 timeline 187b8f6b00036198",
        // 1 FPGA, 4:pe-flip:100@1
        "cycles [2080] stalls [0] busy [3600] peak [2] in 1920 out 1600 entries 40 hits 200 faults [0, 0, 0, 0, 0, 0, 0, 0] seconds 3ea421f5f40d8376 3ea0c6f7a0b5ed8d 3fe99a6e12ad2bc8 3ea3a11c9ac0602e 3f9cc77ca608bb76 0000000000000000 3fe99a415f45e0b5 timeline 19552844000395c4",
        // 2 FPGA, none
        "cycles [1560, 1360] stalls [0, 0] busy [2160, 1440] peak [2, 1] in 2640 out 1600 entries 40 hits 200 faults [0, 0, 0, 0, 0, 0, 0, 0] seconds 3eabaeb22f9294c3 3ea0c6f7a0b5ed8d 3fe99ae0fd306cda 3e9d71aae8208f5a 3f9cc77ca608ba90 3f0f75104d551d69 3fe99a415f45e0b5 timeline 4d294cf60006063e",
        // 2 FPGA, seeded(7)
        "cycles [22218, 16175] stalls [0, 0] busy [1782, 1296] peak [2, 1] in 4686 out 1368 entries 40 hits 171 faults [72, 72, 25, 1, 46, 61, 11, 33536] seconds 3eb8917157054a6d 3e9cb064e22cdb55 3fe99c92110f1bfd 3eac4fc1df32fd89 3f6f1bbbe3d8ce7c 3f0f75104d551d69 3fe99a415f45e0b5 timeline 4b067b8b0005b87c",
        // 2 FPGA, 4:pe-flip:100@1
        "cycles [1560, 3254] stalls [0, 0] busy [2160, 1404] peak [2, 1] in 2730 out 1584 entries 40 hits 198 faults [4, 4, 4, 0, 0, 3, 1, 1792] seconds 3eaca049b70336ec 3ea09c0482f18c75 3fe99b048017677b 3e9a6c92d051b8e0 3f88c650b9609cd9 3f0f75104d551d69 3fe99a415f45e0b5 timeline 4f10024300061a8a",
    ];
    let mut got = Vec::new();
    for fpgas in [1, 2] {
        for (name, plan) in &plans {
            let mut cfg = test_config(fpgas);
            cfg.fault_plan = plan.clone();
            cfg.record_timeline = true;
            let (_, r) = board(cfg).run_workload(&work).unwrap();
            got.push((format!("{fpgas} FPGA, {name}"), pin_line(&r)));
        }
    }
    for ((case, line), want) in got.iter().zip(want) {
        assert_eq!(line, want, "{case}");
    }
}

/// A worker that panics mid-workload (here: entries whose streams are
/// not whole windows trip the operator's input assertion) must not
/// leave the run blocked on a queue nobody serves any more: the panic
/// propagates to the caller.
#[test]
fn worker_panic_propagates_instead_of_deadlocking() {
    // Every entry is malformed (IL1 is not a whole number of windows),
    // so every worker dies on its first item.
    let work: Vec<Entry> = (0..64)
        .map(|_| Entry {
            il0: vec![0u8; 6],
            il1: vec![0u8; 7],
        })
        .collect();
    let board = board(test_config(1));
    let result = catch_unwind(AssertUnwindSafe(|| {
        board.run_stream(work.iter().cloned(), 2, |_, _| {})
    }));
    assert!(result.is_err(), "worker panic must surface, not hang");
}
