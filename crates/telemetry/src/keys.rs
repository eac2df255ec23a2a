//! The telemetry key registry: every counter, span, meta, unit-event
//! and trace-lane name the workspace emits, in one place.
//!
//! Every sink — [`Recorder::add`](crate::Recorder::add), `observe`,
//! `record_span`, `set_meta`, [`SpanGuard::enter`](crate::SpanGuard::enter),
//! [`UnitEvent::span`](crate::UnitEvent::span), `UnitEvent::mark` and
//! [`UnitTrace::stage`](crate::UnitTrace::stage) — takes a [`Key`], and
//! only this module can make one: emitters name these constants (or
//! the fns of the keyed families), so a typo'd or drive-by name is a
//! compile error or a new line here, never a silently forked name that
//! splits a time series in half. Readers ([`crate::Snapshot`],
//! [`crate::RunReport`], `psc report --compare`) keep plain string
//! names; [`Key::as_str`] is the bridge.
//!
//! ```compile_fail,E0308
//! use psc_telemetry::{MemRecorder, Recorder};
//! MemRecorder::new().add("step2.pairs", 1); // a string is not a Key
//! ```
//!
//! Naming: dot-separated, `<stage>.<metric>`; bucketed families end
//! in a fixed-width suffix (`.b07`) so reports sort lexically.

use std::borrow::Cow;
use std::sync::OnceLock;

/// A registered telemetry name. Its constructor is private to this
/// module, so every name a sink receives is declared here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Key(Cow<'static, str>);

impl Key {
    const fn new(name: &'static str) -> Key {
        Key(Cow::Borrowed(name))
    }

    /// A keyed-family member, named by one of this module's fns.
    fn family(name: String) -> Key {
        Key(Cow::Owned(name))
    }

    /// The name as reports, snapshots and traces spell it.
    pub const fn as_str(&self) -> &str {
        match &self.0 {
            Cow::Borrowed(name) => name,
            Cow::Owned(name) => name.as_str(),
        }
    }

    /// Any name, for the telemetry crate's own unit tests.
    #[cfg(test)]
    pub(crate) fn test(name: &'static str) -> Key {
        Key::new(name)
    }
}

// --- wall-time spans (`Recorder::record_span`) --------------------

/// Step-1 wall time: seed-index construction over both banks.
pub const STEP1: &Key = &Key::new("step1");
/// Step-2 wall time across all backends (host-observed).
pub const STEP2_WALL: &Key = &Key::new("step2.wall");
/// Step-3 wall time: gapped extension plus merge.
pub const STEP3: &Key = &Key::new("step3");
/// Step-3 extension-only time (excludes merge wait).
pub const STEP3_EXTENSION: &Key = &Key::new("step3.extension");
/// Time step-3 merge spent waiting on extension shards.
pub const STEP3_MERGE_WAIT: &Key = &Key::new("step3.merge_wait");

/// End-to-end wall time of one served query, admission included
/// (`psc serve`).
pub const SERVE_QUERY_WALL: &Key = &Key::new("serve.query_wall");

// --- scoped spans (`SpanGuard::enter`) ----------------------------

/// Seed-index build for bank 0, under step 1.
pub const STEP1_INDEX_BANK0: &Key = &Key::new("step1.index_bank0");
/// Seed-index build for bank 1, under step 1.
pub const STEP1_INDEX_BANK1: &Key = &Key::new("step1.index_bank1");

// --- counters (`Recorder::add`) -----------------------------------

/// Positions indexed into bank 0's seed table by step 1.
pub const STEP1_POSITIONS_INDEXED_BANK0: &Key = &Key::new("step1.positions_indexed.bank0");
/// Positions indexed into bank 1's seed table by step 1.
pub const STEP1_POSITIONS_INDEXED_BANK1: &Key = &Key::new("step1.positions_indexed.bank1");
/// Positions bank 1's seed table holds: only the query's keys' when T1
/// was keyed by the query, all of them when it was loaded from a bundle.
pub const STEP1_POSITIONS_HELD_BANK1: &Key = &Key::new("step1.positions_held.bank1");
/// Chunks of bank 1 step 2 read a T1 of in turn: 1 for a T1 built
/// over the whole bank or loaded from a bundle.
pub const STEP1_CHUNKS_BANK1: &Key = &Key::new("step1.chunks.bank1");
/// Seed pairs enumerated by step 2.
pub const STEP2_PAIRS: &Key = &Key::new("step2.pairs");
/// Step-2 candidates at or above the threshold, every one pushed to
/// the anchor dedup (counted before it folds them).
pub const STEP2_CANDIDATES_KEPT: &Key = &Key::new("step2.candidates_kept");
/// Seed pairs scored below threshold and dropped by step 2.
pub const STEP2_CANDIDATES_CULLED: &Key = &Key::new("step2.candidates_culled");
/// Seed keys with a non-empty position list in both banks.
pub const STEP2_ACTIVE_KEYS: &Key = &Key::new("step2.active_keys");
/// Window bytes step 2 reads out of the two banks: Σ over active keys
/// of `(|IL0| + |IL1|) · window_len`. Computed from the indexes after
/// the run; the tile and lane-slot counts, by contrast, are tallied by
/// the lane kernels as they walk.
pub const STEP2_GATHER_BYTES: &Key = &Key::new("step2.gather_bytes");
/// In-flight queries observed when a served query was admitted
/// (admission-queue depth, this query included).
pub const SERVE_QUEUE_DEPTH: &Key = &Key::new("serve.queue_depth");
/// SIMD tiles executed by the wide step-2 kernels.
pub const STEP2_SIMD_TILES: &Key = &Key::new("step2.simd_tiles");
/// Useful (non-padding) lane slots across all SIMD tiles.
pub const STEP2_LANE_SLOTS_USEFUL: &Key = &Key::new("step2.lane_slots_useful");
/// Total lane slots across all SIMD tiles.
pub const STEP2_LANE_SLOTS_TOTAL: &Key = &Key::new("step2.lane_slots_total");
/// Step-3 anchors handed to gapped extension.
pub const STEP3_ANCHORS: &Key = &Key::new("step3.anchors");
/// Step-3 extension shards.
pub const STEP3_SHARDS: &Key = &Key::new("step3.shards");
/// DP cells evaluated by the gapped extensions of all anchors.
pub const STEP3_DP_CELLS: &Key = &Key::new("step3.dp_cells");
/// Gapped extensions cut off by the X-drop rule.
pub const STEP3_XDROP_TERMINATIONS: &Key = &Key::new("step3.xdrop_terminations");
/// HSPs rejected by the E-value filter.
pub const STEP3_EVALUE_REJECTED: &Key = &Key::new("step3.evalue_rejected");
/// HSPs surviving to the final report.
pub const STEP3_HSPS_REPORTED: &Key = &Key::new("step3.hsps_reported");

/// `step2.lane_slots_useful.b{bucket:02}` — per-bucket useful-slot
/// counts behind [`STEP2_LANE_SLOTS_USEFUL`], for a log2 mass bucket
/// `0..=64`. Each name is built once per process.
pub fn step2_lane_slots_useful_bucket(bucket: u32) -> &'static Key {
    static KEYS: OnceLock<[Key; 65]> = OnceLock::new();
    bucket_key(&KEYS, "step2.lane_slots_useful", bucket)
}

/// `step2.lane_slots_total.b{bucket:02}` — per-bucket slot totals
/// behind [`STEP2_LANE_SLOTS_TOTAL`], built once like
/// [`step2_lane_slots_useful_bucket`]'s.
pub fn step2_lane_slots_total_bucket(bucket: u32) -> &'static Key {
    static KEYS: OnceLock<[Key; 65]> = OnceLock::new();
    bucket_key(&KEYS, "step2.lane_slots_total", bucket)
}

/// Member `bucket` of the bucketed family `stem`, its 65 names made on
/// the first call.
fn bucket_key(keys: &'static OnceLock<[Key; 65]>, stem: &str, bucket: u32) -> &'static Key {
    let keys = keys.get_or_init(|| std::array::from_fn(|b| Key::family(format!("{stem}.b{b:02}"))));
    &keys[bucket as usize]
}

// --- distributions (`Recorder::observe`) --------------------------

/// Seed-pair mass per active key (workload skew).
pub const STEP2_PAIRS_PER_KEY: &Key = &Key::new("step2.pairs_per_key");
/// Percent of SIMD lane slots doing useful work, one observation per
/// lane rectangle.
pub const STEP2_LANE_FILL: &Key = &Key::new("step2.lane_fill");

// --- run metadata (`Recorder::set_meta`) --------------------------

/// Step-2 backend name (`software-scalar`, `software-parallel`, `rasc`).
pub const BACKEND: &Key = &Key::new("backend");
/// Step-2 scheduling policy name.
pub const STEP2_SCHEDULE: &Key = &Key::new("step2.schedule");
/// Step-2 kernel flavor actually selected at run time.
pub const STEP2_KERNEL: &Key = &Key::new("step2.kernel");
/// Step-2 kernel flavor the config asked for.
pub const STEP2_KERNEL_REQUESTED: &Key = &Key::new("step2.kernel.requested");
/// Why the requested kernel was downgraded, when it was.
pub const STEP2_KERNEL_DOWNGRADE: &Key = &Key::new("step2.kernel.downgrade");
/// Host kernel the board simulator scored with (`wide`, `simd`,
/// `profile`, …): says whether a simulator wall was SIMD or scalar host
/// time. A host fact — it varies with the machine, unlike every
/// simulated board statistic.
pub const RASC_HOST_KERNEL: &Key = &Key::new("rasc.host_kernel");
/// Configured window length `W + 2N`.
pub const WINDOW_LEN: &Key = &Key::new("window_len");
/// Configured ungapped score threshold.
pub const THRESHOLD: &Key = &Key::new("threshold");
/// Sequence number of a served query within its server's lifetime.
pub const SERVE_QUERY_SEQ: &Key = &Key::new("serve.query_seq");

// --- unit-event names (`UnitEvent::span` / `UnitEvent::mark`) -----

/// Ungapped/gapped extension work inside one trace unit.
pub const EV_EXTEND: &Key = &Key::new("extend");
/// Merge thread blocked waiting for a shard.
pub const EV_MERGE_WAIT: &Key = &Key::new("merge_wait");
/// Host→board DMA transfer.
pub const EV_DMA_IN: &Key = &Key::new("dma_in");
/// Board→host DMA transfer plus sync.
pub const EV_DMA_OUT: &Key = &Key::new("dma_out");
/// Board compute busy time.
pub const EV_COMPUTE: &Key = &Key::new("compute");
/// Anchor count produced by the unit.
pub const EV_ANCHORS: &Key = &Key::new("anchors");
/// Candidate count carried by the unit.
pub const EV_CANDIDATES: &Key = &Key::new("candidates");
/// Board entry index the unit processed.
pub const EV_ENTRY: &Key = &Key::new("entry");
/// Hits the unit reported.
pub const EV_HITS: &Key = &Key::new("hits");

// --- trace-lane (stage) names (`UnitTrace::stage`) ----------------

/// Step-2 extension units.
pub const STAGE_STEP2: &Key = &Key::new("step2");
/// Step-3 extension units.
pub const STAGE_STEP3: &Key = &Key::new("step3");
/// Step-3 merge units.
pub const STAGE_STEP3_MERGE: &Key = &Key::new("step3.merge");
/// Simulated board DMA units.
pub const STAGE_BOARD_DMA: &Key = &Key::new("board.dma");
/// Simulated board compute units.
pub const STAGE_BOARD_COMPUTE: &Key = &Key::new("board.compute");
/// Simulated board link (readback) units.
pub const STAGE_BOARD_LINK: &Key = &Key::new("board.link");

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
    BACKEND.as_str(),
    STEP2_SCHEDULE.as_str(),
    STEP2_KERNEL.as_str(), // and `.requested`, `.downgrade`
    RASC_HOST_KERNEL.as_str(),
    STEP2_SIMD_TILES.as_str(),
    "step2.lane_slots_",
    STEP2_LANE_FILL.as_str(),
    STEP1_INDEX_BANK1.as_str(),
    STEP1_POSITIONS_HELD_BANK1.as_str(),
    STEP1_CHUNKS_BANK1.as_str(),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_families_are_fixed_width_and_sorted() {
        assert_eq!(
            step2_lane_slots_useful_bucket(7).as_str(),
            "step2.lane_slots_useful.b07"
        );
        assert_eq!(
            step2_lane_slots_total_bucket(12).as_str(),
            "step2.lane_slots_total.b12"
        );
        let (a, b) = (
            step2_lane_slots_useful_bucket(2),
            step2_lane_slots_useful_bucket(10),
        );
        let (a, b) = (a.as_str(), b.as_str());
        assert!(std::ptr::eq(
            step2_lane_slots_total_bucket(12),
            step2_lane_slots_total_bucket(12)
        ));
        assert!(a < b, "bucket keys must sort numerically: {a} vs {b}");
    }
}
