//! The telemetry key registry: every counter, span, meta, unit-event
//! and trace-lane name the workspace emits, in one place.
//!
//! Emitters reference these constants (or the helper fns for keyed
//! families) instead of spelling string literals at the call site.
//! `psc-analyzer`'s `telemetry-key-registry` lint enforces the
//! complement: any *literal* name passed to a Recorder/Tracer sink
//! (`add`, `observe`, `record_span`, `set_meta`, `SpanGuard::enter`,
//! `UnitEvent::span`, `UnitEvent::mark`) must appear in this file, so
//! a typo'd or drive-by key shows up in review as either a new
//! registry line or a lint error — never as a silently forked name
//! that splits a time series in half.
//!
//! Naming: dot-separated, `<stage>.<metric>`; bucketed families end
//! in a fixed-width suffix (`.b07`) so reports sort lexically.

// --- wall-time spans (`Recorder::record_span`) --------------------

/// Step-1 wall time: seed-index construction over both banks.
pub const STEP1: &str = "step1";
/// Step-2 wall time across all backends (host-observed).
pub const STEP2_WALL: &str = "step2.wall";
/// Step-3 wall time: gapped extension plus merge.
pub const STEP3: &str = "step3";
/// Step-3 extension-only time (excludes merge wait).
pub const STEP3_EXTENSION: &str = "step3.extension";
/// Step-3 critical-path time under the modeled parallel schedule.
pub const STEP3_MODELED_PARALLEL: &str = "step3.modeled_parallel";
/// Time step-3 merge spent waiting on extension shards.
pub const STEP3_MERGE_WAIT: &str = "step3.merge_wait";

/// End-to-end wall time of one served query, admission included
/// (`psc serve`).
pub const SERVE_QUERY_WALL: &str = "serve.query_wall";

/// `step3.modeled_p{workers}` — the modeled-parallelism ladder
/// (`step3.modeled_p2`, `step3.modeled_p4`, …).
pub fn step3_modeled_workers(workers: usize) -> String {
    format!("step3.modeled_p{workers}")
}

// --- scoped spans (`SpanGuard::enter`) ----------------------------

/// Seed-index build for bank 0, under step 1.
pub const STEP1_INDEX_BANK0: &str = "step1.index_bank0";
/// Seed-index build for bank 1, under step 1.
pub const STEP1_INDEX_BANK1: &str = "step1.index_bank1";

// --- counters (`Recorder::add`) -----------------------------------

/// Positions indexed into bank 0's seed table by step 1.
pub const STEP1_POSITIONS_INDEXED_BANK0: &str = "step1.positions_indexed.bank0";
/// Positions indexed into bank 1's seed table by step 1.
pub const STEP1_POSITIONS_INDEXED_BANK1: &str = "step1.positions_indexed.bank1";
/// Positions bank 1's seed table holds: only the query's keys' when T1
/// was keyed by the query, all of them when it was loaded from a bundle.
pub const STEP1_POSITIONS_HELD_BANK1: &str = "step1.positions_held.bank1";
/// Chunks of bank 1 step 2 read a T1 of in turn: 1 for a T1 built
/// over the whole bank or loaded from a bundle.
pub const STEP1_CHUNKS_BANK1: &str = "step1.chunks.bank1";
/// Seed pairs enumerated by step 2.
pub const STEP2_PAIRS: &str = "step2.pairs";
/// Step-2 candidates above threshold, post-dedup.
pub const STEP2_CANDIDATES_KEPT: &str = "step2.candidates_kept";
/// Seed pairs scored below threshold and dropped by step 2.
pub const STEP2_CANDIDATES_CULLED: &str = "step2.candidates_culled";
/// Seed keys with a non-empty position list in both banks.
pub const STEP2_ACTIVE_KEYS: &str = "step2.active_keys";
/// Window bytes step 2 reads out of the two banks: Σ over active keys
/// of `(|IL0| + |IL1|) · window_len`. Computed from the indexes after
/// the run, like the tile count — never counted inside the kernels.
pub const STEP2_GATHER_BYTES: &str = "step2.gather_bytes";
/// In-flight queries observed when a served query was admitted
/// (admission-queue depth, this query included).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// SIMD tiles executed by the wide step-2 kernels.
pub const STEP2_SIMD_TILES: &str = "step2.simd_tiles";
/// Useful (non-padding) lane slots across all SIMD tiles.
pub const STEP2_LANE_SLOTS_USEFUL: &str = "step2.lane_slots_useful";
/// Total lane slots across all SIMD tiles.
pub const STEP2_LANE_SLOTS_TOTAL: &str = "step2.lane_slots_total";
/// Step-3 anchors handed to gapped extension.
pub const STEP3_ANCHORS: &str = "step3.anchors";
/// Step-3 extension shards.
pub const STEP3_SHARDS: &str = "step3.shards";
/// DP cells evaluated by the gapped extensions of all anchors.
pub const STEP3_DP_CELLS: &str = "step3.dp_cells";
/// Gapped extensions cut off by the X-drop rule.
pub const STEP3_XDROP_TERMINATIONS: &str = "step3.xdrop_terminations";
/// HSPs rejected by the E-value filter.
pub const STEP3_EVALUE_REJECTED: &str = "step3.evalue_rejected";
/// HSPs surviving to the final report.
pub const STEP3_HSPS_REPORTED: &str = "step3.hsps_reported";

/// `step2.lane_slots_useful.b{bucket:02}` — per-bucket useful-slot
/// counts behind [`STEP2_LANE_SLOTS_USEFUL`].
pub fn step2_lane_slots_useful_bucket(bucket: u32) -> String {
    format!("step2.lane_slots_useful.b{bucket:02}")
}

/// `step2.lane_slots_total.b{bucket:02}` — per-bucket slot totals
/// behind [`STEP2_LANE_SLOTS_TOTAL`].
pub fn step2_lane_slots_total_bucket(bucket: u32) -> String {
    format!("step2.lane_slots_total.b{bucket:02}")
}

// --- distributions (`Recorder::observe`) --------------------------

/// Seed-pair mass per active key (workload skew).
pub const STEP2_PAIRS_PER_KEY: &str = "step2.pairs_per_key";
/// Percent of SIMD lane slots doing useful work, per tile batch.
pub const STEP2_LANE_FILL: &str = "step2.lane_fill";

// --- run metadata (`Recorder::set_meta`) --------------------------

/// Step-2 backend name (`software-scalar`, `software-parallel`, `rasc`).
pub const BACKEND: &str = "backend";
/// Step-2 scheduling policy name.
pub const STEP2_SCHEDULE: &str = "step2.schedule";
/// Step-2 kernel flavor actually selected at run time.
pub const STEP2_KERNEL: &str = "step2.kernel";
/// Step-2 kernel flavor the config asked for.
pub const STEP2_KERNEL_REQUESTED: &str = "step2.kernel.requested";
/// Why the requested kernel was downgraded, when it was.
pub const STEP2_KERNEL_DOWNGRADE: &str = "step2.kernel.downgrade";
/// Host kernel the board simulator scored with (`wide`, `simd`,
/// `profile`, …): says whether a simulator wall was SIMD or scalar host
/// time. A host fact — it varies with the machine, unlike every
/// simulated board statistic.
pub const RASC_HOST_KERNEL: &str = "rasc.host_kernel";
/// Configured window length `W + 2N`.
pub const WINDOW_LEN: &str = "window_len";
/// Configured ungapped score threshold.
pub const THRESHOLD: &str = "threshold";
/// Sequence number of a served query within its server's lifetime.
pub const SERVE_QUERY_SEQ: &str = "serve.query_seq";

// --- unit-event names (`UnitEvent::span` / `UnitEvent::mark`) -----

/// Ungapped/gapped extension work inside one trace unit.
pub const EV_EXTEND: &str = "extend";
/// Merge thread blocked waiting for a shard.
pub const EV_MERGE_WAIT: &str = "merge_wait";
/// Host→board DMA transfer.
pub const EV_DMA_IN: &str = "dma_in";
/// Board→host DMA transfer plus sync.
pub const EV_DMA_OUT: &str = "dma_out";
/// Board compute busy time.
pub const EV_COMPUTE: &str = "compute";
/// Anchor count produced by the unit.
pub const EV_ANCHORS: &str = "anchors";
/// Candidate count carried by the unit.
pub const EV_CANDIDATES: &str = "candidates";
/// Board entry index the unit processed.
pub const EV_ENTRY: &str = "entry";
/// Hits the unit reported.
pub const EV_HITS: &str = "hits";

// --- trace-lane (stage) names (`UnitTrace::stage`) ----------------

/// Step-2 extension units.
pub const STAGE_STEP2: &str = "step2";
/// Step-3 extension units.
pub const STAGE_STEP3: &str = "step3";
/// Step-3 merge units.
pub const STAGE_STEP3_MERGE: &str = "step3.merge";
/// Simulated board DMA units.
pub const STAGE_BOARD_DMA: &str = "board.dma";
/// Simulated board compute units.
pub const STAGE_BOARD_COMPUTE: &str = "board.compute";
/// Simulated board link (readback) units.
pub const STAGE_BOARD_LINK: &str = "board.link";

// --- what follows the configuration, not the inputs ---------------

/// Key prefixes of everything in a run report that may differ between
/// two runs of the same inputs under configurations that must not
/// change the output: which backend, kernel and schedule ran; lane-slot
/// telemetry, which follows the kernel's block width; and the
/// genome-side index span, positions held and chunk count, which follow
/// whether T1 was loaded from a bundle or keyed by the query. With
/// the board section and the steps' accelerated seconds, this is all
/// [`crate::RunReport::strip_config_dependent`] removes — and all the
/// differential lattice (`tests/lattice.rs`) lets such runs differ in.
pub const CONFIG_DEPENDENT: &[&str] = &[
    BACKEND,
    STEP2_SCHEDULE,
    STEP2_KERNEL, // and `.requested`, `.downgrade`
    RASC_HOST_KERNEL,
    STEP2_SIMD_TILES,
    "step2.lane_slots_",
    STEP2_LANE_FILL,
    STEP1_INDEX_BANK1,
    STEP1_POSITIONS_HELD_BANK1,
    STEP1_CHUNKS_BANK1,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_families_are_fixed_width_and_sorted() {
        assert_eq!(
            step2_lane_slots_useful_bucket(7),
            "step2.lane_slots_useful.b07"
        );
        assert_eq!(
            step2_lane_slots_total_bucket(12),
            "step2.lane_slots_total.b12"
        );
        assert_eq!(step3_modeled_workers(4), "step3.modeled_p4");
        let a = step2_lane_slots_useful_bucket(2);
        let b = step2_lane_slots_useful_bucket(10);
        assert!(a < b, "bucket keys must sort numerically: {a} vs {b}");
    }
}
