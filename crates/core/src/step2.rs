//! Step 2 — all-pairs ungapped extension over matching index lists.
//!
//! This is the paper's critical section (97 % of sequential runtime,
//! Table 1). The software implementations here are the "Sequential"
//! baseline of Table 4 and the host-side reference the RASC backend is
//! verified against; they were deliberately written the way the paper
//! describes ("primarily designed to have an optimal efficiency on a
//! parallel support"): gather the fixed-length windows per key, then a
//! dense rectangular pair loop — exactly the data flow the PE array
//! consumes.
//!
//! Interchangeable kernel backends score that rectangle (selected by
//! [`psc_align::KernelChoice`], auto-detected by default): the original
//! per-pair `scalar` kernel, a score-`profile` kernel that builds one
//! substitution table per `IL0` window, and the lane paths (`simd`,
//! `wide`) that stream one side in lane order through cache-sized
//! tiles and run step 2 as what the paper's PE is — a threshold filter
//! ([`psc_align::LaneFilter`]): [`psc_align::LANES`] or
//! [`psc_align::WIDE_LANES`] window pairs are classified per step in
//! saturating byte lanes, and only the survivors are rescored. A lane
//! backend sends every rectangle through its filter, whatever its
//! shape, as the PE array streams every key. All emit bit-identical
//! candidates in identical order.
//!
//! The data plane is one pass per side per key, both sides walking one
//! [`psc_index::flat::WindowCursor`] down the index list. The side whose
//! windows are scanned one at a time is gathered row-major
//! ([`gather_windows`]); the lane side goes from the flat bank straight
//! into kernel layout (`gather_lanes`: [`InterleavedWindows::fill`]
//! transposes each interior window out of the bank where it lies, only
//! the windows at a sequence's edges are copied first, and the index
//! list — the address stream — is prefetched a fixed distance ahead so
//! its cache misses overlap). The scalar and profile backends, which
//! read both sides row-major, gather both with [`gather_windows`].
//!
//! Multi-threaded runs distribute keys under a [`Step2Schedule`]:
//! `contiguous` cuts the key range into one balanced chunk per worker,
//! while the default `bucketed` schedule builds mass-bucketed work
//! items (heavy keys alone, light keys coalesced), executes them
//! heaviest-first off an atomic pull counter, and orients each rectangle
//! so the lane axis is the larger index list (transposing the
//! orientation when `|IL1| < |IL0|`). Both schedules merge
//! per-item results back into key order, so candidates, stats and
//! report JSON are byte-identical at any thread count.

// A hot module: no panic path outside test code (DESIGN §9).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::sync::atomic::{AtomicUsize, Ordering};

use psc_align::{
    profile_score, profile_score2, ungapped_score, InterleavedWindows, Kernel, KernelBackend,
    KernelChoice, LaneFilter, ScoreProfile,
};
use psc_index::{FlatBank, SeedIndex};
use psc_score::SubstitutionMatrix;
use psc_seqio::alphabet::AA_ALPHABET_LEN;

/// A pair that survived step 2: global seed positions in each bank and
/// the windowed score.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    pub pos0: u32,
    pub pos1: u32,
    pub score: i32,
}

/// Instrumentation counters for step 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Step2Stats {
    /// Window pairs scored (`Σ_k |IL0_k|·|IL1_k|`).
    pub pairs: u64,
    /// Pairs at or above the threshold.
    pub candidates: u64,
    /// Keys with work on both sides.
    pub active_keys: u64,
}

/// Wall timing of one step-2 work unit — a bucketed [`WorkItem`], a
/// contiguous chunk, or the whole key range of a one-thread run —
/// collected by [`run_software_timed`] for the flight recorder. Kernel
/// modules stay off the telemetry surface, so these are plain numbers
/// relative to a caller-owned epoch; the pipeline turns them into
/// trace spans after the stage completes. All offsets come from
/// `epoch.elapsed()` on the instant the caller passes in — this module
/// never reads the clock on its own.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ItemTiming {
    /// Work-item index (bucketed schedule) or chunk ordinal
    /// (contiguous), both in key-major order.
    pub item: usize,
    /// Worker that ran the unit, in spawn order.
    pub worker: u32,
    /// Seconds from the epoch to the unit's kernel start.
    pub start_seconds: f64,
    /// Kernel time of the unit (gather + rectangle scoring).
    pub kernel_seconds: f64,
    /// Seed pairs the unit scored.
    pub pairs: u64,
    /// Candidates the unit produced.
    pub candidates: u64,
}

/// Gather the extension windows for every position of an index list into
/// one contiguous row-major buffer (the byte stream an input controller
/// would DMA). The cursor writes every byte of every row, so the buffer
/// is resized without clearing it first.
pub fn gather_windows(flat: &FlatBank, list: &[u32], span: usize, n_ctx: usize, out: &mut Vec<u8>) {
    let l = span + 2 * n_ctx;
    out.resize(list.len() * l, 0);
    let mut cursor = flat.window_cursor(span, n_ctx);
    for (i, &pos) in list.iter().enumerate() {
        cursor.copy_into(pos, &mut out[i * l..]);
    }
}

/// Windows ahead of the one being read that [`gather_lanes`]
/// prefetches. An index list is a known stream of random addresses into
/// the bank; this many windows cover the latency of a miss.
const PREFETCH_AHEAD: usize = 8;

/// Gather the windows of an index list straight into lane order: an
/// interior window is lent to [`InterleavedWindows::fill`] where it lies
/// in the flat bank and leaves it transposed — the lane side of a
/// rectangle never exists row-major. Only a window that overhangs its
/// sequence, or ends too close to the end of the bank, is copied first.
fn gather_lanes(
    flat: &FlatBank,
    list: &[u32],
    span: usize,
    n_ctx: usize,
    lanes: &mut InterleavedWindows,
) {
    let mut cursor = flat.window_cursor(span, n_ctx);
    lanes.fill(list.len(), span + 2 * n_ctx, |j, row| {
        if let Some(&ahead) = list.get(j + PREFETCH_AHEAD) {
            cursor.prefetch(ahead, row.len());
        }
        cursor.source(list[j], row)
    });
}

/// How step 2 distributes key work across workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Step2Schedule {
    /// Cut the key range into one contiguous, mass-balanced chunk per
    /// worker (the original scheme).
    Contiguous,
    /// Mass-bucketed work items pulled off an atomic counter, heaviest
    /// first, with light keys coalesced and each rectangle oriented so
    /// the lane axis is the larger list.
    #[default]
    Bucketed,
}

impl Step2Schedule {
    /// Parse a CLI-style name.
    pub fn parse(s: &str) -> Option<Step2Schedule> {
        Some(match s {
            "contiguous" => Step2Schedule::Contiguous,
            "bucketed" => Step2Schedule::Bucketed,
            _ => return None,
        })
    }

    /// Short stable name, for stats and profile output.
    pub fn name(self) -> &'static str {
        match self {
            Step2Schedule::Contiguous => "contiguous",
            Step2Schedule::Bucketed => "bucketed",
        }
    }
}

/// Scoring parameters threaded through the software backends.
#[derive(Clone, Copy, Debug)]
pub struct Step2Params<'m> {
    pub matrix: &'m SubstitutionMatrix,
    pub kernel: Kernel,
    pub span: usize,
    pub n_ctx: usize,
    pub threshold: i32,
    /// Which kernel implementation scores the pair rectangle
    /// (auto-detected by default; see [`Step2Params::resolved_backend`]).
    pub kernel_backend: KernelChoice,
    /// How keys are distributed across workers (output-invariant; see
    /// [`Step2Schedule`]).
    pub schedule: Step2Schedule,
}

impl Step2Params<'_> {
    /// Window length `W + 2N` of one extension window.
    #[inline]
    pub fn window_len(&self) -> usize {
        self.span + 2 * self.n_ctx
    }

    /// The concrete kernel backend this run will use.
    pub fn resolved_backend(&self) -> KernelBackend {
        self.kernel_backend.resolve(self.window_len(), self.matrix)
    }
}

/// Row-major windows scanned over one j-tile before moving to the next
/// (one i-tile).
const TILE_I: usize = 32;

/// Target bytes of interleaved lane stream per j-tile — sized so a tile
/// stays cache-resident while every window of the i-tile scans it.
const TILE_J_BYTES: usize = 32 << 10;

/// j-tile width (in windows) for a given window length and lane-block
/// width — the one formula both the hot loop and the analytic tile
/// count derive from. Always a whole number of lane blocks.
fn tile_j_for(window_len: usize, lane_width: usize) -> usize {
    (TILE_J_BYTES / window_len.max(1)).clamp(lane_width, 1 << 14) / lane_width * lane_width
}

/// j-tile width of the `simd` lane path.
#[cfg(test)]
fn simd_tile_j(window_len: usize) -> usize {
    tile_j_for(window_len, KernelBackend::Simd.lane_width())
}

/// The exact `(i, j)` tile sequence [`lanes_rectangle`] walks for one
/// key's `n0 × n1` pair rectangle — i-tiles outer, j-tiles inner. The
/// hot loop iterates this directly, and tests pin [`tile_count`]'s
/// closed form to `tile_walk(..).count()`, so the telemetry number
/// cannot drift from the real walk.
#[doc(hidden)]
pub fn tile_walk(
    n0: usize,
    n1: usize,
    window_len: usize,
    lane_width: usize,
) -> impl Iterator<Item = (std::ops::Range<usize>, std::ops::Range<usize>)> {
    let tile_j = tile_j_for(window_len, lane_width);
    (0..n0).step_by(TILE_I).flat_map(move |i0| {
        let i_end = (i0 + TILE_I).min(n0);
        (0..n1)
            .step_by(tile_j)
            .map(move |j0| (i0..i_end, j0..(j0 + tile_j).min(n1)))
    })
}

/// [`tile_walk`] of the `simd` lane path.
#[doc(hidden)]
pub fn simd_tile_walk(
    n0: usize,
    n1: usize,
    window_len: usize,
) -> impl Iterator<Item = (std::ops::Range<usize>, std::ops::Range<usize>)> {
    tile_walk(n0, n1, window_len, KernelBackend::Simd.lane_width())
}

/// Number of cache tiles a lane path of `lane_width` walks for one
/// key's `n0 × n1` pair rectangle — the telemetry counterpart of
/// [`tile_walk`], computed analytically so instrumentation never
/// touches the hot loop.
pub fn tile_count(n0: usize, n1: usize, window_len: usize, lane_width: usize) -> u64 {
    if n0 == 0 || n1 == 0 {
        return 0;
    }
    n0.div_ceil(TILE_I) as u64 * n1.div_ceil(tile_j_for(window_len, lane_width)) as u64
}

/// [`tile_count`] of the `simd` lane path.
pub fn simd_tile_count(n0: usize, n1: usize, window_len: usize) -> u64 {
    tile_count(n0, n1, window_len, KernelBackend::Simd.lane_width())
}

/// Cache tiles the resolved lane kernel walks for one key's `n0 × n1`
/// rectangle under `schedule` — 0 for scalar-width backends. Consults
/// the same orientation the hot loop does, so the telemetry count
/// cannot drift from the real walk.
pub fn rectangle_tile_count(
    n0: usize,
    n1: usize,
    window_len: usize,
    backend: KernelBackend,
    schedule: Step2Schedule,
) -> u64 {
    let width = backend.lane_width();
    if width == 1 {
        return 0;
    }
    if lane_orientation(n0, n1, schedule) {
        tile_count(n1, n0, window_len, width)
    } else {
        tile_count(n0, n1, window_len, width)
    }
}

/// Log2 mass bucket of a pair mass, using the same convention as the
/// telemetry histograms: bucket 0 holds mass 0, bucket `b >= 1` holds
/// `[2^(b-1), 2^b)`.
#[inline]
pub fn bucket_of_mass(mass: u64) -> u32 {
    if mass == 0 {
        0
    } else {
        64 - mass.leading_zeros()
    }
}

/// One schedulable unit of bucketed step-2 work: a contiguous run of
/// keys with its total pair mass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkItem {
    /// Keys this item covers (consecutive; empty keys ride along).
    pub keys: std::ops::Range<u32>,
    /// Total `|IL0|·|IL1|` pair mass over `keys`.
    pub mass: u64,
    /// Log2 mass bucket ([`bucket_of_mass`]).
    pub bucket: u32,
}

impl WorkItem {
    fn new(keys: std::ops::Range<u32>, mass: u64) -> WorkItem {
        WorkItem {
            keys,
            mass,
            bucket: bucket_of_mass(mass),
        }
    }
}

/// Pair mass at which a key is heavy enough to be its own work item;
/// lighter consecutive keys coalesce until their run accumulates this
/// much, so the atomic pull is never contended by near-empty grabs.
const ITEM_MASS: u64 = 4096;

/// Each key's pair mass `|IL0_k| · |IL1_k|`, in key order, with
/// `len1(k)` for `|IL1_k|`.
pub fn key_masses<'a>(
    idx0: &'a SeedIndex,
    len1: impl Fn(u32) -> usize + 'a,
) -> impl ExactSizeIterator<Item = u64> + 'a {
    let keys = 0..idx0.key_count() as u32;
    keys.map(move |k| idx0.list(k).len() as u64 * len1(k) as u64)
}

/// Partition the key space into bucketed-scheduler work items, in key
/// order, from each key's pair mass ([`key_masses`]).
///
/// Every key lands in exactly one item (the scheduler property tests
/// pin the partition): keys of mass >= `ITEM_MASS` get a
/// dedicated item, and runs of lighter keys (including empty ones)
/// coalesce into shared items of roughly `ITEM_MASS` pairs.
pub fn bucketed_items(masses: impl ExactSizeIterator<Item = u64>) -> Vec<WorkItem> {
    let key_count = masses.len() as u32;
    let mut items = Vec::new();
    let mut run_start = 0u32;
    let mut run_mass = 0u64;
    for (k, mass) in (0..key_count).zip(masses) {
        if mass >= ITEM_MASS {
            if k > run_start {
                items.push(WorkItem::new(run_start..k, run_mass));
            }
            items.push(WorkItem::new(k..k + 1, mass));
            run_start = k + 1;
            run_mass = 0;
        } else {
            run_mass += mass;
            if run_mass >= ITEM_MASS {
                items.push(WorkItem::new(run_start..k + 1, run_mass));
                run_start = k + 1;
                run_mass = 0;
            }
        }
    }
    if run_start < key_count {
        items.push(WorkItem::new(run_start..key_count, run_mass));
    }
    items
}

/// Execution order over `items` for the atomic pull: heaviest mass
/// first (longest-processing-time heuristic), ties broken by key order
/// so the order — unlike the completion order — is deterministic.
fn lpt_order(items: &[WorkItem]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(items[i].mass), items[i].keys.start));
    order
}

/// Whether a lane path transposes one `n0 × n1` rectangle under
/// `schedule`: the lane axis stays on `IL1` (`false`, always under
/// `contiguous`) or moves onto the larger `IL0` (`true`).
///
/// This is the single orientation decision both the hot loop and the
/// analytic lane-occupancy accounting consult, so the recorded
/// `step2.lane_fill` numbers cannot drift from the real walk.
pub fn lane_orientation(n0: usize, n1: usize, schedule: Step2Schedule) -> bool {
    schedule == Step2Schedule::Bucketed && n1 < n0
}

/// Lane-slot accounting for one key's `n0 × n1` rectangle: `(useful,
/// total)` lane slots the resolved backend consumes under `schedule`.
///
/// Pure arithmetic mirroring [`lane_orientation`] — the pipeline
/// derives the `step2.lane_fill` histogram and per-bucket occupancy
/// counters from this after the run, never inside the kernel loop.
pub fn rectangle_lane_slots(
    n0: usize,
    n1: usize,
    backend: KernelBackend,
    schedule: Step2Schedule,
) -> (u64, u64) {
    let useful = n0 as u64 * n1 as u64;
    if useful == 0 {
        return (0, 0);
    }
    let width = backend.lane_width();
    if width == 1 {
        return (useful, useful);
    }
    let (rows, cols) = if lane_orientation(n0, n1, schedule) {
        (n1, n0)
    } else {
        (n0, n1)
    };
    let total = rows as u64 * cols.div_ceil(width) as u64 * width as u64;
    (useful, total)
}

/// The transposed substitution lookup used when a rectangle runs in
/// transposed orientation: `t[b][a] = m[a][b]`, so scanning `IL1`
/// windows over streamed `IL0` lanes adds exactly the same substitution
/// score per recurrence step as the normal orientation — candidates
/// stay bit-identical even for asymmetric matrices.
fn transposed_matrix(m: &SubstitutionMatrix) -> SubstitutionMatrix {
    let flat = m.flat();
    let mut t = [0i8; AA_ALPHABET_LEN * AA_ALPHABET_LEN];
    for a in 0..AA_ALPHABET_LEN {
        for b in 0..AA_ALPHABET_LEN {
            t[b * AA_ALPHABET_LEN + a] = flat[a * AA_ALPHABET_LEN + b];
        }
    }
    SubstitutionMatrix::from_flat(format!("{}-transposed", m.name), t)
}

/// Reusable scratch buffers for one worker's key range, so the per-key
/// loop allocates nothing in steady state.
#[derive(Default)]
struct KeyScratch {
    /// Row-major `IL0` / `IL1` windows — on the lane path only the
    /// side scanned window by window is filled.
    w0: Vec<u8>,
    w1: Vec<u8>,
    /// The lane side of the current key, in lane order.
    lanes: InterleavedWindows,
    /// One lane's window copied back out row-major, for the rescoring
    /// of a flagged lane.
    lane_window: Vec<u8>,
    /// The profile backend's one profile.
    profile: ScoreProfile,
    /// `(i, j, score)` hits of the current key, tile order.
    hits: Vec<(u32, u32, i32)>,
}

/// The run's two lane filters: `[0]` scans `IL0` windows over `IL1`
/// lanes under the matrix as given, `[1]` the transposed orientation
/// under [`transposed_matrix`]. Absent for the scalar-width backends.
type LaneFilters = Option<[LaneFilter; 2]>;

/// Run step 2 on one key range, appending candidates (key-major order).
///
/// `scratch` is reused across calls so the bucketed scheduler's
/// per-item invocations allocate nothing in steady state.
#[allow(clippy::too_many_arguments)]
fn run_key_range(
    flat0: &FlatBank,
    idx0: &SeedIndex,
    flat1: &FlatBank,
    idx1: &SeedIndex,
    params: &Step2Params<'_>,
    backend: KernelBackend,
    filters: &LaneFilters,
    keys: std::ops::Range<u32>,
    scratch: &mut KeyScratch,
    out: &mut Vec<Candidate>,
    stats: &mut Step2Stats,
) {
    for key in keys {
        let list0 = idx0.list(key);
        let list1 = idx1.list(key);
        if list0.is_empty() || list1.is_empty() {
            continue;
        }
        stats.active_keys += 1;
        stats.pairs += list0.len() as u64 * list1.len() as u64;
        let (span, n_ctx) = (params.span, params.n_ctx);
        match filters {
            // Only the side scanned window by window is gathered
            // row-major; the lane side goes from the bank into lane
            // order.
            Some(filters) => {
                let transposed = lane_orientation(list0.len(), list1.len(), params.schedule);
                if transposed {
                    gather_windows(flat1, list1, span, n_ctx, &mut scratch.w1);
                    gather_lanes(flat0, list0, span, n_ctx, &mut scratch.lanes);
                } else {
                    gather_windows(flat0, list0, span, n_ctx, &mut scratch.w0);
                    gather_lanes(flat1, list1, span, n_ctx, &mut scratch.lanes);
                }
                let filter = &filters[transposed as usize];
                lanes_rectangle(params, filter, transposed, list0, list1, scratch, out);
            }
            None => {
                gather_windows(flat0, list0, span, n_ctx, &mut scratch.w0);
                gather_windows(flat1, list1, span, n_ctx, &mut scratch.w1);
                if backend == KernelBackend::Scalar {
                    scalar_rectangle(params, list0, list1, &scratch.w0, &scratch.w1, out);
                } else {
                    profile_rectangle(params, list0, list1, scratch, out);
                }
            }
        }
    }
}

/// The original per-pair loop (the paper's sequential kernel).
fn scalar_rectangle(
    params: &Step2Params<'_>,
    list0: &[u32],
    list1: &[u32],
    w0: &[u8],
    w1: &[u8],
    out: &mut Vec<Candidate>,
) {
    let l = params.window_len();
    for (i, &pos0) in list0.iter().enumerate() {
        let win0 = &w0[i * l..(i + 1) * l];
        for (j, &pos1) in list1.iter().enumerate() {
            let win1 = &w1[j * l..(j + 1) * l];
            let score = ungapped_score(params.kernel, params.matrix, win0, win1);
            if score >= params.threshold {
                out.push(Candidate { pos0, pos1, score });
            }
        }
    }
}

/// Score-profile loop: one profile build per `IL0` window, then two
/// independent `IL1` recurrences per iteration (the profile backend's
/// instruction-level parallelism).
fn profile_rectangle(
    params: &Step2Params<'_>,
    list0: &[u32],
    list1: &[u32],
    scratch: &mut KeyScratch,
    out: &mut Vec<Candidate>,
) {
    let l = params.window_len();
    let prof = &mut scratch.profile;
    for (i, &pos0) in list0.iter().enumerate() {
        prof.build(params.matrix, &scratch.w0[i * l..(i + 1) * l]);
        let mut j = 0;
        while j + 2 <= list1.len() {
            let (a, b) = profile_score2(
                params.kernel,
                prof,
                &scratch.w1[j * l..(j + 1) * l],
                &scratch.w1[(j + 1) * l..(j + 2) * l],
            );
            if a >= params.threshold {
                out.push(Candidate {
                    pos0,
                    pos1: list1[j],
                    score: a,
                });
            }
            if b >= params.threshold {
                out.push(Candidate {
                    pos0,
                    pos1: list1[j + 1],
                    score: b,
                });
            }
            j += 2;
        }
        if j < list1.len() {
            let score = profile_score(params.kernel, prof, &scratch.w1[j * l..(j + 1) * l]);
            if score >= params.threshold {
                out.push(Candidate {
                    pos0,
                    pos1: list1[j],
                    score,
                });
            }
        }
    }
}

/// The lane path (`simd` and `wide` backends): with the lane-axis
/// windows already in `scratch.lanes` ([`gather_lanes`]) and the other
/// side row-major, walk the pair rectangle in cache-sized tiles — each
/// j-tile of the interleaved stream is scanned by every window of the
/// i-tile before moving on (the PE array's broadcast, tiled for a cache
/// hierarchy instead of wires) — and keep what `filter` reports.
///
/// With `transposed` set (bucketed schedule, `|IL1| < |IL0|`) the
/// row-major axis is `IL1` (rows in `scratch.w1`), `filter` is the one
/// built on [`transposed_matrix`] and the lanes stream `IL0`, so lanes
/// fill from the larger list while every recurrence step adds the same
/// substitution score — hits are recorded in `(i0, i1)` coordinates
/// either way and sorted back to the scalar loop's lexicographic order.
fn lanes_rectangle(
    params: &Step2Params<'_>,
    filter: &LaneFilter,
    transposed: bool,
    list0: &[u32],
    list1: &[u32],
    scratch: &mut KeyScratch,
    out: &mut Vec<Candidate>,
) {
    let l = params.window_len();
    let KeyScratch {
        w0,
        w1,
        lanes,
        lane_window,
        hits,
        ..
    } = scratch;
    let (rows, nr, nl) = if transposed {
        (&*w1, list1.len(), list0.len())
    } else {
        (&*w0, list0.len(), list1.len())
    };
    debug_assert_eq!((lanes.count(), lanes.len()), (nl, l));
    hits.clear();

    for (ti, tj) in tile_walk(nr, nl, l, filter.block_width()) {
        for i in ti {
            let window = &rows[i * l..(i + 1) * l];
            filter.scan(window, lanes, tj.clone(), lane_window, |j, score| {
                let (i0, i1) = if transposed { (j, i) } else { (i, j) };
                hits.push((i0 as u32, i1 as u32, score));
            });
        }
    }

    // Tiles (and the transposed orientation) visit (i0, i1) out of
    // order; restore the scalar loop's lexicographic candidate order.
    hits.sort_unstable();
    out.extend(hits.iter().map(|&(i, j, score)| Candidate {
        pos0: list0[i as usize],
        pos1: list1[j as usize],
        score,
    }));
}

/// Software step 2 over all keys with `threads` workers (1 = the
/// sequential baseline). Candidates come back in key-major order
/// regardless of thread count.
pub fn run_software(
    flat0: &FlatBank,
    idx0: &SeedIndex,
    flat1: &FlatBank,
    idx1: &SeedIndex,
    params: &Step2Params<'_>,
    threads: usize,
) -> (Vec<Candidate>, Step2Stats) {
    let (out, stats, _) = run_units(flat0, idx0, flat1, idx1, params, threads, None);
    (out, stats)
}

/// [`run_software`] that also returns, with `epoch`, per-unit wall
/// timings for the flight recorder (none without). Candidates and stats
/// are byte-identical to the untimed driver; the only extra work is two
/// `epoch.elapsed()` reads per unit, outside the kernels.
pub fn run_software_timed(
    flat0: &FlatBank,
    idx0: &SeedIndex,
    flat1: &FlatBank,
    idx1: &SeedIndex,
    params: &Step2Params<'_>,
    threads: usize,
    epoch: Option<&std::time::Instant>,
) -> (Vec<Candidate>, Step2Stats, Vec<ItemTiming>) {
    run_units(flat0, idx0, flat1, idx1, params, threads, epoch)
}

/// The one step-2 worker loop. The key space is cut into *units* — the
/// whole range for one thread (both schedules walk keys in order then; only
/// the per-rectangle lane orientation differs, and that is a function of
/// the schedule, not of the partition), one [`balanced_chunks`] range
/// per worker under `contiguous`, the [`bucketed_items`] in
/// [`lpt_order`] under `bucketed` — and workers claim units off an
/// atomic counter. Per-unit results are stitched back together in unit
/// (= key) order, so the merged output is independent of which worker
/// finished which unit when. With `epoch` set each unit also yields an
/// [`ItemTiming`].
fn run_units(
    flat0: &FlatBank,
    idx0: &SeedIndex,
    flat1: &FlatBank,
    idx1: &SeedIndex,
    params: &Step2Params<'_>,
    threads: usize,
    epoch: Option<&std::time::Instant>,
) -> (Vec<Candidate>, Step2Stats, Vec<ItemTiming>) {
    assert_eq!(idx0.key_count(), idx1.key_count(), "incompatible indexes");
    let threads = threads.max(1);
    let backend = params.resolved_backend();
    let filter = |matrix| LaneFilter::new(backend, params.kernel, matrix, params.threshold);
    let filters: LaneFilters = filter(params.matrix)
        .zip(filter(&transposed_matrix(params.matrix)))
        .map(|(plain, transposed)| [plain, transposed]);

    // Units in key order, and the order workers claim them in.
    let (units, order): (Vec<std::ops::Range<u32>>, Vec<usize>) = if threads == 1 {
        let all_keys = 0..idx0.key_count() as u32;
        (vec![all_keys], vec![0])
    } else {
        match params.schedule {
            Step2Schedule::Contiguous => {
                let chunks = balanced_chunks(idx0, idx1, threads);
                let order = (0..chunks.len()).collect();
                (chunks, order)
            }
            Step2Schedule::Bucketed => {
                let items = bucketed_items(key_masses(idx0, |k| idx1.list(k).len()));
                let order = lpt_order(&items);
                (items.into_iter().map(|item| item.keys).collect(), order)
            }
        }
    };

    type UnitResult = (usize, Vec<Candidate>, Step2Stats);
    let next = AtomicUsize::new(0);
    let worker = |w: u32| -> (Vec<UnitResult>, Vec<ItemTiming>) {
        let mut scratch = KeyScratch::default();
        let mut mine = Vec::new();
        let mut my_times = Vec::new();
        while let Some(&unit) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let t0 = epoch.map(|e| e.elapsed().as_secs_f64());
            // The unit's own result vector, moved into the key-order merge.
            let mut out = Vec::new();
            let mut st = Step2Stats::default();
            run_key_range(
                flat0,
                idx0,
                flat1,
                idx1,
                params,
                backend,
                &filters,
                units[unit].clone(),
                &mut scratch,
                &mut out,
                &mut st,
            );
            my_times.extend(epoch.zip(t0).map(|(e, t0)| ItemTiming {
                item: unit,
                worker: w,
                start_seconds: t0,
                kernel_seconds: (e.elapsed().as_secs_f64() - t0).max(0.0),
                pairs: st.pairs,
                candidates: out.len() as u64,
            }));
            mine.push((unit, out, st));
        }
        (mine, my_times)
    };
    let workers = threads.min(units.len());
    #[expect(
        clippy::expect_used,
        reason = "join only fails if a worker already panicked"
    )]
    let per_worker = if workers <= 1 {
        vec![worker(0)]
    } else {
        std::thread::scope(|s| {
            let worker = &worker;
            let handles: Vec<_> = (0..workers as u32)
                .map(|w| s.spawn(move || worker(w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("step-2 worker panicked"))
                .collect()
        })
    };

    let mut results: Vec<UnitResult> = Vec::new();
    let mut times: Vec<ItemTiming> = Vec::new();
    for (mine, my_times) in per_worker {
        results.extend(mine);
        times.extend(my_times);
    }
    results.sort_unstable_by_key(|&(unit, ..)| unit);
    times.sort_unstable_by_key(|t| t.item);
    let mut out = Vec::new();
    let mut stats = Step2Stats::default();
    for (_, mut part, st) in results {
        if out.is_empty() {
            // The sequential run's single unit moves through uncopied.
            out = part;
        } else {
            out.append(&mut part);
        }
        stats.pairs += st.pairs;
        stats.active_keys += st.active_keys;
    }
    stats.candidates = out.len() as u64;
    (out, stats, times)
}

/// Cut the key space into at most `threads` ranges of roughly equal pair mass
/// (greedy prefix cuts over the per-key masses), dropping ranges that
/// carry no pairs so no worker is spawned on a zero-pair range.
fn balanced_chunks(
    idx0: &SeedIndex,
    idx1: &SeedIndex,
    threads: usize,
) -> Vec<std::ops::Range<u32>> {
    let key_count = idx0.key_count() as u32;
    let masses: Vec<u64> = key_masses(idx0, |k| idx1.list(k).len()).collect();
    let total_pairs: u64 = masses.iter().sum();
    let per = (total_pairs / threads as u64).max(1);
    let mut cuts = vec![0u32];
    let mut acc = 0u64;
    for (off, &mass) in masses.iter().enumerate() {
        acc += mass;
        if acc >= per && cuts.len() < threads {
            cuts.push(off as u32 + 1);
            acc = 0;
        }
    }
    cuts.push(key_count);

    let has_pairs = |r: &std::ops::Range<u32>| {
        masses[r.start as usize..r.end as usize]
            .iter()
            .any(|&m| m > 0)
    };
    cuts.windows(2)
        .map(|w| w[0]..w[1])
        .filter(has_pairs)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_align::{LANES, WIDE_LANES};
    use psc_index::seed::{subset_seed_default, SeedModel};
    use psc_score::blosum62;
    use psc_seqio::{Bank, Seq};

    fn setup(seqs0: &[&[u8]], seqs1: &[&[u8]]) -> (FlatBank, SeedIndex, FlatBank, SeedIndex) {
        let b0: Bank = seqs0
            .iter()
            .enumerate()
            .map(|(i, s)| Seq::protein(format!("a{i}"), s))
            .collect();
        let b1: Bank = seqs1
            .iter()
            .enumerate()
            .map(|(i, s)| Seq::protein(format!("b{i}"), s))
            .collect();
        let f0 = FlatBank::from_bank(&b0);
        let f1 = FlatBank::from_bank(&b1);
        let model = subset_seed_default();
        let i0 = SeedIndex::build(&f0, &model, 1, None);
        let i1 = SeedIndex::build(&f1, &model, 1, None);
        (f0, i0, f1, i1)
    }

    fn params(matrix: &SubstitutionMatrix, threshold: i32) -> Step2Params<'_> {
        Step2Params {
            matrix,
            kernel: Kernel::ClampedSum,
            span: 4,
            n_ctx: 6,
            threshold,
            kernel_backend: KernelChoice::Auto,
            schedule: Step2Schedule::default(),
        }
    }

    /// Bank and default-seed index over sequences given as residue
    /// *codes* (the ASCII `setup()` helper encodes letters instead).
    fn index_codes<S: AsRef<[u8]>>(seqs: &[S]) -> (FlatBank, SeedIndex) {
        let bank: Bank = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let codes = s.as_ref().to_vec();
                Seq::from_codes(format!("s{i}"), codes, psc_seqio::SeqKind::Protein)
            })
            .collect();
        let flat = FlatBank::from_bank(&bank);
        let idx = SeedIndex::build(&flat, &subset_seed_default(), 1, None);
        (flat, idx)
    }

    /// A sequence of `reps` copies of one 4-mer: its four rotations
    /// are four keys with about `reps` positions each, so the lane list
    /// of those keys spans several lane blocks with a ragged tail.
    fn motif_seq(reps: usize) -> Vec<u8> {
        [18u8, 4, 17, 1].repeat(reps)
    }

    /// Longest index list whose length is not a whole number of lane
    /// blocks at either width.
    fn longest_ragged_list(idx: &SeedIndex) -> usize {
        idx.nonempty_keys()
            .map(|k| idx.list(k).len())
            .filter(|n| n % LANES != 0)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn identical_sequences_pair_up() {
        let s = b"MKVLAWRNDCQEHFYW".as_slice();
        let (f0, i0, f1, i1) = setup(&[s], &[s]);
        let m = blosum62();
        let (cands, stats) = run_software(&f0, &i0, &f1, &i1, &params(m, 30), 1);
        assert!(!cands.is_empty());
        assert!(stats.pairs >= cands.len() as u64);
        // The strongest candidate pairs identical positions.
        assert!(cands.iter().any(|c| c.pos0 == c.pos1));
        assert_eq!(stats.candidates, cands.len() as u64);
    }

    #[test]
    fn threshold_filters() {
        let s = b"MKVLAWRNDCQEHFYW".as_slice();
        let (f0, i0, f1, i1) = setup(&[s], &[s]);
        let m = blosum62();
        let (lo, _) = run_software(&f0, &i0, &f1, &i1, &params(m, 10), 1);
        let (hi, _) = run_software(&f0, &i0, &f1, &i1, &params(m, 60), 1);
        assert!(lo.len() > hi.len());
        // The identical 16-residue window self-scores 101; a threshold
        // above that is unreachable.
        let (none, _) = run_software(&f0, &i0, &f1, &i1, &params(m, 105), 1);
        assert!(none.is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        // Enough sequences to spread across keys, plus motif keys whose
        // lane list is several ragged lane blocks long.
        let mut seqs: Vec<Vec<u8>> = (0..30)
            .map(|i| {
                (0..120u32)
                    .map(|j| (((i * 31 + j * 7) % 97) % 20) as u8)
                    .collect()
            })
            .collect();
        seqs.push(motif_seq(45));
        let (f0, i0) = index_codes(&seqs);
        let (f1, i1) = index_codes(&seqs);
        assert!(longest_ragged_list(&i1) > LANES);
        let m = blosum62();
        // 127 and 128 sit on either side of the byte lanes' ceiling
        // (past it the rescored comparison decides, not the flag); a
        // full window of the motif scores exactly 128.
        for threshold in [127, 128, 18] {
            let p = params(m, threshold);
            let (seq_c, seq_s) = run_software(&f0, &i0, &f1, &i1, &p, 1);
            for threads in [2, 4, 7] {
                let (par_c, par_s) = run_software(&f0, &i0, &f1, &i1, &p, threads);
                assert_eq!(seq_c, par_c, "threads={threads} t={threshold}");
                assert_eq!(seq_s, par_s, "threads={threads} t={threshold}");
            }
            assert!(!seq_c.is_empty(), "t={threshold}");
        }
        let (seq_c, seq_s) = run_software(&f0, &i0, &f1, &i1, &params(m, 18), 1);

        // The timed driver is the same loop: equal candidates and
        // stats, plus one timing per unit (in unit order) whose counts
        // add up to the run's.
        let epoch = std::time::Instant::now();
        for schedule in [Step2Schedule::Contiguous, Step2Schedule::Bucketed] {
            let p = Step2Params {
                schedule,
                ..params(m, 18)
            };
            for threads in [1, 2, 8] {
                let (c, st, times) =
                    run_software_timed(&f0, &i0, &f1, &i1, &p, threads, Some(&epoch));
                let tag = format!("{schedule:?} threads={threads}");
                assert_eq!(seq_c, c, "{tag}");
                assert_eq!(seq_s, st, "{tag}");
                let units = match (threads, schedule) {
                    (1, _) => 1,
                    (_, Step2Schedule::Contiguous) => balanced_chunks(&i0, &i1, threads).len(),
                    (_, Step2Schedule::Bucketed) => {
                        bucketed_items(key_masses(&i0, |k| i1.list(k).len())).len()
                    }
                };
                let items: Vec<usize> = times.iter().map(|t| t.item).collect();
                assert_eq!(items, (0..units).collect::<Vec<_>>(), "{tag}");
                assert_eq!(
                    times.iter().map(|t| t.pairs).sum::<u64>(),
                    st.pairs,
                    "{tag}"
                );
                assert_eq!(
                    times.iter().map(|t| t.candidates).sum::<u64>(),
                    st.candidates,
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn kernel_backends_agree() {
        // Candidates (values *and* order) must be identical across every
        // kernel backend, both ungapped kernels, odd/even list lengths,
        // and thread counts.
        let seqs: Vec<Vec<u8>> = (0..25)
            .map(|i| {
                (0..130u32)
                    .map(|j| (((i * 29 + j * 13) % 101) % 20) as u8)
                    .collect()
            })
            .collect();
        // The motif keys put a ragged lane list on either side — IL0
        // (70: two wide blocks, three narrow ones) under the bucketed
        // schedule, which transposes these rectangles, IL1 (45: one
        // wide block, two narrow ones) under the contiguous one.
        let with_motif = |n: usize, reps: usize| -> Vec<Vec<u8>> {
            let mut v = seqs[..n].to_vec();
            v.push(motif_seq(reps));
            v
        };
        let (f0, i0) = index_codes(&with_motif(25, 70));
        let (f1, i1) = index_codes(&with_motif(23, 45));
        assert!(longest_ragged_list(&i0) > WIDE_LANES);
        assert!(longest_ragged_list(&i1) > LANES);
        // A second pair of thin rectangles: each motif over A and G (a
        // group of its own at every seed position) is carried by `n0`
        // sequences of one bank and `n1` of the other, between flanks
        // with neither residue, so its key's rectangle is `n0 × n1`.
        const THIN: [(usize, usize, [u8; 4]); 5] = [
            (1, 1, [0, 0, 0, 0]),
            (1, 15, [0, 0, 0, 7]),
            (15, 1, [0, 0, 7, 0]),
            (7, 9, [0, 7, 0, 0]),
            (15, 15, [7, 0, 0, 0]),
        ];
        let pool: Vec<u8> = (0..20).filter(|&r| r != 0 && r != 7).collect();
        let thin_bank = |side: usize| -> (FlatBank, SeedIndex) {
            let mut seqs = Vec::new();
            for (s, (n0, n1, motif)) in THIN.into_iter().enumerate() {
                for i in 0..[n0, n1][side] {
                    let left = (0..6).map(|j| pool[(s * 5 + i * 7 + j * 3) % pool.len()]);
                    let right = (0..6).map(|j| pool[(s * 3 + i * 5 + j * 7 + side) % pool.len()]);
                    seqs.push(left.chain(motif).chain(right).collect::<Vec<u8>>());
                }
            }
            index_codes(&seqs)
        };
        let ((g0, j0), (g1, j1)) = (thin_bank(0), thin_bank(1));
        for (n0, n1, motif) in THIN {
            let key = subset_seed_default()
                .key(&motif)
                .expect("standard residues");
            assert_eq!((j0.list(key).len(), j1.list(key).len()), (n0, n1));
        }
        let m = blosum62();
        // 127 and 128 sit on either side of the byte lanes' ceiling
        // (past it the rescored comparison decides, not the flag); a
        // full window of the motif scores exactly 128.
        for (kernel, threshold) in [
            (Kernel::ClampedSum, 18),
            (Kernel::ClampedSum, 127),
            (Kernel::ClampedSum, 128),
            (Kernel::PaperLiteral, 18),
            (Kernel::PaperLiteral, 127),
            (Kernel::PaperLiteral, 128),
        ] {
            let base = Step2Params {
                kernel,
                kernel_backend: KernelChoice::Scalar,
                ..params(m, threshold)
            };
            for (name, f0, i0, f1, i1) in
                [("ragged", &f0, &i0, &f1, &i1), ("thin", &g0, &j0, &g1, &j1)]
            {
                let (want_c, want_s) = run_software(f0, i0, f1, i1, &base, 1);
                // The thin pair's motifs score far below the ceiling.
                let want_hits = name == "ragged" || threshold == 18;
                assert_eq!(
                    !want_c.is_empty(),
                    want_hits,
                    "{name} {kernel:?} t={threshold}"
                );
                for choice in [
                    KernelChoice::Auto,
                    KernelChoice::Profile,
                    KernelChoice::Simd,
                    KernelChoice::Wide,
                ] {
                    for schedule in [Step2Schedule::Contiguous, Step2Schedule::Bucketed] {
                        for threads in [1, 3] {
                            let p = Step2Params {
                                kernel_backend: choice,
                                schedule,
                                ..base
                            };
                            let (c, s) = run_software(f0, i0, f1, i1, &p, threads);
                            let tag = format!(
                                "{name} {kernel:?} t={threshold} {choice:?} {schedule:?} \
                                 threads={threads}"
                            );
                            assert_eq!(want_c, c, "{tag}");
                            assert_eq!(want_s, s, "{tag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn simd_tile_count_matches_tiling() {
        assert_eq!(simd_tile_count(0, 100, 60), 0);
        assert_eq!(simd_tile_count(100, 0, 60), 0);
        // One tile covers small rectangles entirely.
        assert_eq!(simd_tile_count(1, 1, 60), 1);
        assert_eq!(simd_tile_count(TILE_I, 8, 60), 1);
        // i splits every TILE_I rows.
        assert_eq!(simd_tile_count(TILE_I + 1, 8, 60), 2);
        // j splits every tile_j columns (the simd_rectangle formula).
        let l = 60;
        let tile_j = simd_tile_j(l);
        assert_eq!(simd_tile_count(1, tile_j, l), 1);
        assert_eq!(simd_tile_count(1, tile_j + 1, l), 2);
    }

    #[test]
    fn simd_tile_count_equals_walk_length() {
        // The closed form must agree with the tile sequence the hot
        // loop actually iterates, across boundary-straddling shapes and
        // window lengths (including extremes that hit both clamps) —
        // at the block width the hot loop takes from its filter, which
        // is the width the telemetry takes from the backend.
        let tile_j_60 = simd_tile_j(60);
        for backend in [KernelBackend::Simd, KernelBackend::Wide] {
            let filter = LaneFilter::new(backend, Kernel::ClampedSum, blosum62(), 45);
            let width = filter.expect("a lane backend").block_width();
            assert_eq!(width, backend.lane_width());
            for l in [1, 4, 16, 60, 200, TILE_J_BYTES, TILE_J_BYTES * 2] {
                for n0 in [0, 1, TILE_I - 1, TILE_I, TILE_I + 1, 3 * TILE_I + 5] {
                    for n1 in [0, 1, tile_j_60 - 1, tile_j_60, tile_j_60 + 1, 70_000] {
                        let walked = tile_walk(n0, n1, l, width).count() as u64;
                        let tag = format!("{backend:?} n0={n0} n1={n1} l={l}");
                        assert_eq!(tile_count(n0, n1, l, width), walked, "{tag}");
                        if backend == KernelBackend::Simd {
                            assert_eq!(simd_tile_count(n0, n1, l), walked, "{tag}");
                            assert_eq!(simd_tile_walk(n0, n1, l).count() as u64, walked, "{tag}");
                        }
                    }
                }
            }
        }
        // Walked tiles cover the rectangle exactly once, in order.
        let (n0, n1, l) = (TILE_I + 3, tile_j_60 + 9, 60);
        let mut covered = vec![false; n0 * n1];
        for (ti, tj) in simd_tile_walk(n0, n1, l) {
            for i in ti {
                for j in tj.clone() {
                    assert!(!covered[i * n1 + j], "tile overlap at ({i},{j})");
                    covered[i * n1 + j] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "walk left cells uncovered");
    }

    #[test]
    fn tile_count_matches_walk_for_wide_lanes() {
        // The generalized closed form must agree with the generalized
        // walk at the 64-lane width the wide path steps by.
        for l in [1, 16, 60, 200] {
            let tj = tile_j_for(l, WIDE_LANES);
            for n0 in [0, 1, TILE_I, TILE_I + 1] {
                for n1 in [0, 1, tj - 1, tj, tj + 1, 3 * tj + 17] {
                    let walked = tile_walk(n0, n1, l, WIDE_LANES).count() as u64;
                    assert_eq!(
                        tile_count(n0, n1, l, WIDE_LANES),
                        walked,
                        "n0={n0} n1={n1} l={l}"
                    );
                }
            }
            // The j tile is always a whole number of wide lane blocks.
            assert_eq!(tj % WIDE_LANES, 0, "l={l}");
            assert_eq!(WIDE_LANES, KernelBackend::Wide.lane_width());
        }
    }

    #[test]
    fn bucketed_items_partition_key_range() {
        let seqs: Vec<Vec<u8>> = (0..40)
            .map(|i| {
                (0..150u32)
                    .map(|j| (((i * 37 + j * 11) % 89) % 20) as u8)
                    .collect()
            })
            .collect();
        let bank: Bank = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| Seq::from_codes(format!("s{i}"), s.clone(), psc_seqio::SeqKind::Protein))
            .collect();
        let flat = FlatBank::from_bank(&bank);
        let idx = SeedIndex::build(&flat, &subset_seed_default(), 1, None);
        let keys = 0..idx.key_count() as u32;
        let items = bucketed_items(key_masses(&idx, |k| idx.list(k).len()));

        // Item key ranges are non-empty, contiguous and in order: their
        // concatenation is exactly the input key range (a permutation of
        // every key, each covered once).
        let mut cursor = keys.start;
        for item in &items {
            assert_eq!(item.keys.start, cursor, "gap or overlap before item");
            assert!(item.keys.start < item.keys.end, "empty item");
            assert_eq!(item.bucket, bucket_of_mass(item.mass));
            let mass: u64 = item
                .keys
                .clone()
                .map(|k| idx.list(k).len() as u64 * idx.list(k).len() as u64)
                .sum();
            assert_eq!(mass, item.mass, "item mass mismatch");
            cursor = item.keys.end;
        }
        assert_eq!(cursor, keys.end, "items do not cover the key range");

        // A heavy key owns its item; light keys coalesce.
        for item in &items {
            if item.keys.len() > 1 {
                for k in item.keys.clone() {
                    let m = idx.list(k).len() as u64 * idx.list(k).len() as u64;
                    assert!(m < ITEM_MASS, "heavy key {k} coalesced into a run");
                }
            }
        }

        // LPT order is a heaviest-first permutation of all items.
        let order = lpt_order(&items);
        let mut seen = vec![false; items.len()];
        for &i in &order {
            assert!(!seen[i], "duplicate item in lpt order");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "lpt order dropped an item");
        for w in order.windows(2) {
            assert!(items[w[0]].mass >= items[w[1]].mass, "not heaviest-first");
        }
    }

    #[test]
    fn bucket_of_mass_matches_log2_convention() {
        assert_eq!(bucket_of_mass(0), 0);
        assert_eq!(bucket_of_mass(1), 1);
        assert_eq!(bucket_of_mass(2), 2);
        assert_eq!(bucket_of_mass(3), 2);
        assert_eq!(bucket_of_mass(4), 3);
        assert_eq!(bucket_of_mass(u64::MAX), 64);
    }

    #[test]
    fn lane_orientation_and_slots_are_consistent() {
        // Contiguous never transposes (it reproduces the historical
        // walk); bucketed picks the larger side as the lane axis, however
        // narrow both sides are.
        let c = Step2Schedule::Contiguous;
        let b = Step2Schedule::Bucketed;
        assert!(!lane_orientation(3, 500, c));
        // Lanes already run over the larger il1 side: no transpose.
        assert!(!lane_orientation(3, 500, b));
        // il0 is the larger side: transpose so lanes run over it.
        assert!(lane_orientation(500, 3, b));
        assert!(!lane_orientation(5, 7, b));
        assert!(lane_orientation(7, 5, b));
        assert!(!lane_orientation(5, 7, c));

        // Slot accounting mirrors orientation: scalar-width backends
        // waste nothing; contiguous pads the il1 axis to whole blocks
        // (32 lanes under simd, 64 under wide); bucketed pads the larger
        // axis so narrow-il1 rectangles stop wasting nearly the whole
        // vector.
        let wide = KernelBackend::Wide;
        assert_eq!(
            rectangle_lane_slots(10, 10, KernelBackend::Scalar, b),
            (100, 100)
        );
        let (useful, total) = rectangle_lane_slots(3, 500, KernelBackend::Simd, c);
        assert_eq!(useful, 1500);
        assert_eq!(total, 3 * 500u64.div_ceil(32) * 32);
        let (useful_b, total_b) = rectangle_lane_slots(3, 500, wide, b);
        assert_eq!(useful_b, 1500);
        assert_eq!(total_b, 3 * 500u64.div_ceil(64) * 64);
        // Transposed, the padded axis is il0.
        assert_eq!(
            rectangle_lane_slots(500, 3, wide, b),
            (1500, 3 * 500u64.div_ceil(64) * 64)
        );
        assert_eq!(
            rectangle_tile_count(500, 3, 60, wide, b),
            tile_walk(3, 500, 60, 64).count() as u64
        );
        // Narrow-both rectangles take the lane path too: each of the
        // five rows pads its seven lanes to a whole block, and a single
        // pair takes one whole block.
        assert_eq!(rectangle_lane_slots(5, 7, wide, b), (35, 64 * 5));
        assert_eq!(
            rectangle_tile_count(5, 7, 60, wide, b),
            tile_walk(5, 7, 60, 64).count() as u64
        );
        for schedule in [c, b] {
            assert_eq!(rectangle_lane_slots(1, 1, wide, schedule), (1, 64));
            let simd = KernelBackend::Simd;
            assert_eq!(rectangle_lane_slots(1, 1, simd, schedule), (1, 32));
            assert_eq!(rectangle_tile_count(1, 1, 60, simd, schedule), 1);
        }
        // Contiguous on a lane-starved rectangle: 500×1 pads each row
        // to a full block.
        let (u, t) = rectangle_lane_slots(500, 1, KernelBackend::Simd, c);
        assert_eq!((u, t), (500, 500 * 32));
        assert!(u * 10 < t, "expected heavy padding on starved axis");
    }

    #[test]
    fn transposed_matrix_swaps_arguments() {
        let m = blosum62();
        let t = transposed_matrix(m);
        for a in 0..AA_ALPHABET_LEN as u8 {
            for b in 0..AA_ALPHABET_LEN as u8 {
                assert_eq!(m.score(a, b), t.score(b, a));
            }
        }
    }

    #[test]
    fn disjoint_banks_no_pairs() {
        let (f0, i0, f1, i1) = setup(&[b"MKVLMKVLMKVL"], &[b"GGGGGGGGGGGG"]);
        let m = blosum62();
        let (cands, stats) = run_software(&f0, &i0, &f1, &i1, &params(m, 1), 1);
        assert!(cands.is_empty());
        assert_eq!(stats.pairs, 0);
        assert_eq!(stats.active_keys, 0);
    }

    #[test]
    fn gather_lanes_equals_gather_windows_then_build() {
        // Windows that overhang the start and the end of a sequence, a
        // sequence shorter than the window, and neighbours whose
        // residues must not leak in: the fused gather must PAD exactly
        // like the row-major one, for either bank of a rectangle, and
        // over the leftovers of a previous, larger fill — at the unit
        // tests' 16-residue window, the default 60 and the board's 59,
        // whose interior windows are lent in place while the edge ones
        // (every window of a 30-residue sequence, and the last of each
        // bank, which ends flush with its allocation) are staged.
        let long: Vec<u8> = (0..2700u32)
            .map(|j| ((j * 7 + j / 13) % 20) as u8)
            .collect();
        let banks = [
            index_codes(&[&long[..200], &long[..5], &long[40..52], &long[3..90]]).0,
            index_codes(&[&long[..9], &long[..200]]).0,
            index_codes(&[
                &long[..],
                &long[..30],
                &long[60..90],
                &long[5..],
                &long[..30],
            ])
            .0,
        ];
        let mut fused = InterleavedWindows::new();
        let mut rows = Vec::new();
        let mut built = InterleavedWindows::new();
        for (span, n_ctx) in [(4, 6), (4, 28), (3, 28)] {
            let l = span + 2 * n_ctx;
            for flat in &banks {
                // Every position at which a seed fits, then ever shorter
                // prefixes and the bank's last positions: the lane
                // counts cross block boundaries on the way down.
                let all: Vec<u32> = (0..flat.seq_count())
                    .flat_map(|s| {
                        let (lo, hi) = flat.bounds_of(s);
                        lo..(hi + 1).saturating_sub(span as u32).max(lo)
                    })
                    .collect();
                assert!(all.len() > 3 * WIDE_LANES);
                let lists = [all.len(), 65, 33, 32, 5, 1, 0, 47].map(|take| &all[..take]);
                for list in lists.into_iter().chain([&all[all.len() - 70..]]) {
                    let take = list.len();
                    gather_lanes(flat, list, span, n_ctx, &mut fused);
                    gather_windows(flat, list, span, n_ctx, &mut rows);
                    for (&pos, row) in list.iter().zip(rows.chunks_exact(l)) {
                        assert_eq!(row, flat.window(pos, span, n_ctx), "pos={pos} l={l}");
                    }
                    built.build(&rows, l);
                    assert_eq!((fused.count(), fused.len()), (take, l));
                    for p in 0..l {
                        for j0 in (0..take).step_by(WIDE_LANES) {
                            assert_eq!(
                                fused.wide_lane_codes(p, j0),
                                built.wide_lane_codes(p, j0),
                                "take={take} l={l} p={p} j0={j0}"
                            );
                        }
                    }
                }
                // The cases this test exists for are really in the list.
                gather_windows(flat, &all, span, n_ctx, &mut rows);
                let padded = |w: &&[u8]| w.contains(&psc_index::flat::PAD);
                let pad_rows = rows.chunks_exact(l).filter(padded).count();
                assert!(pad_rows > 0 && (pad_rows < all.len() || flat.len() < 1000));
            }
        }
    }

    /// Where a key's time goes, per side: ns per window of the lane-side
    /// gather and of the row-side gather against the time the filter
    /// spends scanning, summed over every active key of three shapes
    /// that stand in for the benchmark's software workloads (uniform
    /// random residues; the bank a "genome" of six long frames or 1 000
    /// proteins). Run
    /// `cargo test --release -p psc-core --lib -- --ignored --nocapture gather_vs_scan`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn gather_vs_scan_per_key() {
        use psc_seqio::prng::SplitMix64;
        use std::time::Instant;
        let mut rng = SplitMix64::new(0x5eed_0019);
        let mut bank = |count: usize, len: usize| -> (FlatBank, SeedIndex) {
            let seqs: Vec<Vec<u8>> = (0..count)
                .map(|_| (0..len).map(|_| rng.range(0..20u8)).collect())
                .collect();
            index_codes(&seqs)
        };
        let m = blosum62();
        let p = Step2Params {
            n_ctx: 28,
            ..params(m, 45)
        };
        let (span, n_ctx) = (p.span, p.n_ctx);
        for (name, (f0, i0), (f1, i1)) in [
            ("3 x 350 against 6 x 667 k", bank(3, 350), bank(6, 667_000)),
            (
                "12 x 350 against 6 x 2.67 M",
                bank(12, 350),
                bank(6, 2_670_000),
            ),
            (
                "1000 x 350 against 6 x 333 k",
                bank(1000, 350),
                bank(6, 333_000),
            ),
        ] {
            let filter = LaneFilter::new(p.resolved_backend(), p.kernel, m, p.threshold);
            let Some(filter) = filter else {
                return println!("no lane backend on this host");
            };
            let mut scratch = KeyScratch::default();
            let mut out = Vec::new();
            let (mut rows, mut lanes, mut scan) = ((f64::MAX, 0), (f64::MAX, 0), f64::MAX);
            for _ in 0..3 {
                let mut pass = [(0.0, 0usize); 3];
                for key in 0..i0.key_count() as u32 {
                    let (list0, list1) = (i0.list(key), i1.list(key));
                    if list0.is_empty() || list1.is_empty() {
                        continue;
                    }
                    let t0 = Instant::now();
                    gather_windows(&f0, list0, span, n_ctx, &mut scratch.w0);
                    let t1 = Instant::now();
                    gather_lanes(&f1, list1, span, n_ctx, &mut scratch.lanes);
                    let t2 = Instant::now();
                    lanes_rectangle(&p, &filter, false, list0, list1, &mut scratch, &mut out);
                    let t3 = Instant::now();
                    for (sum, (t, n)) in pass.iter_mut().zip([
                        (t1 - t0, list0.len()),
                        (t2 - t1, list1.len()),
                        (t3 - t2, 0),
                    ]) {
                        *sum = (sum.0 + t.as_secs_f64(), sum.1 + n);
                    }
                }
                // The best of three passes, each part by itself.
                rows = if pass[0].0 < rows.0 { pass[0] } else { rows };
                lanes = if pass[1].0 < lanes.0 { pass[1] } else { lanes };
                scan = scan.min(pass[2].0);
            }
            println!(
                "{name}: gather_lanes {:.1} ns per window ({} windows, {:.4} s), \
                 gather_windows {:.1} ns per window ({} windows, {:.4} s), scan {:.4} s",
                lanes.0 * 1e9 / lanes.1 as f64,
                lanes.1,
                lanes.0,
                rows.0 * 1e9 / rows.1 as f64,
                rows.1,
                rows.0,
                scan
            );
        }
    }

    /// Step 2 by rectangle class on the bank-shaped stand-in of
    /// [`gather_vs_scan_per_key`] (1 000 proteins against six frames of
    /// 333 k): per class, the keys' gather seconds and their whole time
    /// (gathers and scan, oriented as the bucketed schedule orients
    /// them) in ms and ns a pair — best of three passes. The classes are
    /// both sides under 16, under 4 096 pairs, under 262 144, and larger.
    /// Run `cargo test --release -p psc-core --lib -- --ignored --nocapture step2_per_class`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn step2_per_class() {
        use psc_seqio::prng::SplitMix64;
        use std::time::Instant;
        let mut rng = SplitMix64::new(0x5eed_0039);
        let mut bank = |count: usize, len: usize| -> (FlatBank, SeedIndex) {
            let seqs: Vec<Vec<u8>> = (0..count)
                .map(|_| (0..len).map(|_| rng.range(0..20u8)).collect())
                .collect();
            index_codes(&seqs)
        };
        let ((f0, i0), (f1, i1)) = (bank(1000, 350), bank(6, 333_000));
        let m = blosum62();
        let p = Step2Params {
            n_ctx: 28,
            ..params(m, 45)
        };
        let (span, n_ctx) = (p.span, p.n_ctx);
        let filter = |matrix| LaneFilter::new(p.resolved_backend(), p.kernel, matrix, p.threshold);
        let Some(filters) = filter(m).zip(filter(&transposed_matrix(m))) else {
            return println!("no lane backend on this host");
        };
        let filters = [filters.0, filters.1];
        const CLASSES: [&str; 4] = ["thin", "< 4096", "< 262144", "larger"];
        let class = |n0: usize, n1: usize| match n0 * n1 {
            _ if n0.max(n1) < 16 => 0,
            pairs if pairs < 4096 => 1,
            pairs if pairs < 262_144 => 2,
            _ => 3,
        };
        let mut scratch = KeyScratch::default();
        let mut out = Vec::new();
        // (keys, pairs, gather s, total s) per class, best total of three.
        let mut best = [(0usize, 0u64, f64::MAX, f64::MAX); 4];
        for _ in 0..3 {
            let mut pass = [(0usize, 0u64, 0.0, 0.0); 4];
            out.clear();
            for key in 0..i0.key_count() as u32 {
                let (list0, list1) = (i0.list(key), i1.list(key));
                if list0.is_empty() || list1.is_empty() {
                    continue;
                }
                let transposed = lane_orientation(list0.len(), list1.len(), p.schedule);
                let t0 = Instant::now();
                if transposed {
                    gather_windows(&f1, list1, span, n_ctx, &mut scratch.w1);
                    gather_lanes(&f0, list0, span, n_ctx, &mut scratch.lanes);
                } else {
                    gather_windows(&f0, list0, span, n_ctx, &mut scratch.w0);
                    gather_lanes(&f1, list1, span, n_ctx, &mut scratch.lanes);
                }
                let t1 = Instant::now();
                let filter = &filters[transposed as usize];
                lanes_rectangle(&p, filter, transposed, list0, list1, &mut scratch, &mut out);
                let t2 = Instant::now();
                let c = &mut pass[class(list0.len(), list1.len())];
                c.0 += 1;
                c.1 += (list0.len() * list1.len()) as u64;
                c.2 += (t1 - t0).as_secs_f64();
                c.3 += (t2 - t0).as_secs_f64();
            }
            for (b, c) in best.iter_mut().zip(pass) {
                *b = if c.3 < b.3 { c } else { *b };
            }
        }
        for (name, (keys, pairs, gather, total)) in CLASSES.into_iter().zip(best) {
            println!(
                "{name:>9}: {keys} keys, {pairs} pairs, gather {:.1} ms, total {:.1} ms, \
                 {:.2} ns a pair",
                gather * 1e3,
                total * 1e3,
                total * 1e9 / pairs.max(1) as f64
            );
        }
    }

    #[test]
    fn gather_windows_layout() {
        let (f0, i0, _, _) = setup(&[b"MKVLAWRNDCQEHFYW"], &[b"MKVLAWRNDCQEHFYW"]);
        let key = i0.nonempty_keys().next().unwrap();
        let list = i0.list(key);
        let mut buf = Vec::new();
        gather_windows(&f0, list, 4, 6, &mut buf);
        assert_eq!(buf.len(), list.len() * 16);
        // Each window must equal the direct extraction.
        for (i, &pos) in list.iter().enumerate() {
            assert_eq!(&buf[i * 16..(i + 1) * 16], f0.window(pos, 4, 6).as_slice());
        }
    }
}
