//! Integration tests of the whole board: its report on a fixed
//! workload, pinned, and a worker panic surfacing instead of a hang.

use std::panic::{catch_unwind, AssertUnwindSafe};

use psc_rasc::{BoardConfig, BoardReport, Entry, OperatorConfig, RascBoard};
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
/// board, plus some per-entry variation.
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
        ] {
            timeline.extend_from_slice(&word.to_le_bytes());
        }
    }
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
         seconds {} timeline {:016x}",
        r.fpga_cycles,
        r.stall_cycles,
        r.busy_pe_cycles,
        r.fifo_peak,
        r.bytes_in,
        r.bytes_out,
        r.entries,
        r.hit_count,
        seconds.join(" "),
        psc_index::fletcher64(&[&timeline]),
    )
}

/// The board's whole report on `workload(40)`, pinned line for line:
/// what one board simulates must never move by accident.
#[test]
fn one_board_report_is_pinned() {
    let work = workload(40);
    let want = [
        "cycles [2080] stalls [0] busy [3600] peak [2] in 1920 out 1600 entries 40 hits 200 seconds 3ea421f5f40d8376 3ea0c6f7a0b5ed8d 3fe99a6e12ad2bc8 3ea3a11c9ac0602e 3f9cc77ca608bb76 0000000000000000 3fe99a415f45e0b5 timeline 10ba35a400039204",
        "cycles [1560, 1360] stalls [0, 0] busy [2160, 1440] peak [2, 1] in 2640 out 1600 entries 40 hits 200 seconds 3eabaeb22f9294c3 3ea0c6f7a0b5ed8d 3fe99ae0fd306cda 3e9d71aae8208f5a 3f9cc77ca608ba90 3f0f75104d551d69 3fe99a415f45e0b5 timeline 330457160005febe",
    ];
    for (fpgas, want) in [1, 2].into_iter().zip(want) {
        let mut cfg = test_config(fpgas);
        cfg.record_timeline = true;
        let (_, r) = board(cfg).run_workload(&work);
        assert_eq!(pin_line(&r), want, "{fpgas} FPGA");
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
