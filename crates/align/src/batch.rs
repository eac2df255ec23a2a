//! Batched ungapped-extension engine — inter-pair vectorization of the
//! paper's step-2 kernel.
//!
//! The PSC operator wins on the RASC-100 by keeping one `IL0` window
//! resident per processing element and streaming every `IL1` window past
//! it. The software analogue of that data flow is implemented here:
//!
//! * a **score profile** ([`ScoreProfile`]) turns one `IL0` window into a
//!   per-position table of substitution scores indexed by residue code,
//!   built once and amortized over the whole of `IL1` (the table plays
//!   the role of the PE's substitution ROM preloaded with one row);
//! * an **interleaved layout** ([`InterleavedWindows`]) holds the
//!   lane-axis windows transposed, so that position `p` of [`LANES`]
//!   consecutive windows is one contiguous 16-byte load — the byte
//!   stream an input controller would broadcast across the PE array.
//!   Its one fill routine takes each window from the caller once, into
//!   an L1-resident staging block, and transposes the block in
//!   registers: the gather and the transposition are a single pass;
//! * [`score_lanes`] then scores [`LANES`] window pairs per recurrence
//!   step in 16-bit SIMD lanes (AVX2 on x86-64, an autovectorizable
//!   lane-array fallback elsewhere), and [`profile_score`] is the
//!   profile-based scalar kernel used when the batch is too small or the
//!   accumulator could overflow 16 bits.
//!
//! Every path returns max scores **bit-identical** to
//! [`ungapped_score`](crate::ungapped_score) for both [`Kernel`]
//! variants; the property tests in `tests/batch_prop.rs` pin that down.

use psc_score::SubstitutionMatrix;
use psc_seqio::alphabet::AA_ALPHABET_LEN;

use crate::ungapped::Kernel;

/// Window pairs scored per 16-lane SIMD recurrence step.
pub const LANES: usize = 16;

/// Window pairs scored per wide (32-lane) recurrence step. The
/// interleaved layout pads its stride to this, so every narrower path
/// divides it evenly.
pub const WIDE_LANES: usize = 32;

/// Bytes per profile position: two 16-byte shuffle tables (codes 0–15
/// and 16–23; the upper 8 slots of the second table stay zero).
const PROFILE_STRIDE: usize = 2 * LANES;

/// A concrete step-2 kernel implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelBackend {
    /// Per-pair scalar `ungapped_score` (the original baseline).
    Scalar,
    /// Score-profile scalar kernel: one table build per `IL0` window,
    /// then a single indexed load per residue pair.
    Profile,
    /// Batched SIMD kernel: score profiles plus 16 i16 lanes over the
    /// interleaved `IL1` stream.
    Simd,
    /// Wide batched kernel: 32 i16 lanes per step (AVX-512BW on hosts
    /// that have it, an autovectorizable 32-lane array elsewhere).
    Wide,
    /// Split accumulator kernel for short windows: 32 saturating i8
    /// lanes per 256-bit op, exact while the whole window fits the i8
    /// guard (see [`split_window_fits`]).
    Split,
}

impl KernelBackend {
    /// Short stable name, for stats and profile output.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Profile => "profile",
            KernelBackend::Simd => "simd",
            KernelBackend::Wide => "wide",
            KernelBackend::Split => "split",
        }
    }

    /// Window pairs consumed per recurrence step — the denominator of
    /// the lane-occupancy accounting.
    pub fn lane_width(self) -> usize {
        match self {
            KernelBackend::Scalar | KernelBackend::Profile => 1,
            KernelBackend::Simd => LANES,
            KernelBackend::Wide | KernelBackend::Split => WIDE_LANES,
        }
    }
}

/// User-facing kernel selection, resolved once per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Pick the fastest backend this host and window support.
    #[default]
    Auto,
    Scalar,
    Profile,
    Simd,
    Wide,
    Split,
}

impl KernelChoice {
    /// Parse a CLI-style name.
    pub fn parse(s: &str) -> Option<KernelChoice> {
        Some(match s {
            "auto" => KernelChoice::Auto,
            "scalar" => KernelChoice::Scalar,
            "profile" => KernelChoice::Profile,
            "simd" => KernelChoice::Simd,
            "wide" => KernelChoice::Wide,
            "split" => KernelChoice::Split,
            _ => return None,
        })
    }

    /// Resolve to a concrete backend for windows of `window_len` scored
    /// under `matrix`.
    ///
    /// The 16- and 32-lane paths accumulate in 16-bit lanes, so they
    /// are only selected (or honoured when requested) while
    /// `window_len * max_score` fits an `i16`; the split kernel's i8
    /// lanes demand the tighter [`split_window_fits`] bound. `Auto`
    /// prefers the widest path the host's instruction set and the
    /// window's overflow guards allow.
    pub fn resolve(self, window_len: usize, matrix: &SubstitutionMatrix) -> KernelBackend {
        self.resolve_with_reason(window_len, matrix).0
    }

    /// [`resolve`](KernelChoice::resolve), plus the reason when the
    /// requested backend could not be honoured (`None` means the choice
    /// resolved without a downgrade; `Auto` never downgrades — whatever
    /// it picks is the policy).
    pub fn resolve_with_reason(
        self,
        window_len: usize,
        matrix: &SubstitutionMatrix,
    ) -> (KernelBackend, Option<&'static str>) {
        let fits_i16 = simd_window_fits(window_len, matrix);
        let fits_i8 = split_window_fits(window_len, matrix);
        match self {
            KernelChoice::Scalar => (KernelBackend::Scalar, None),
            KernelChoice::Profile => (KernelBackend::Profile, None),
            KernelChoice::Simd if fits_i16 => (KernelBackend::Simd, None),
            KernelChoice::Simd => (
                KernelBackend::Profile,
                Some("window overflows the i16 lane accumulator"),
            ),
            KernelChoice::Wide if fits_i16 => (KernelBackend::Wide, None),
            KernelChoice::Wide => (
                KernelBackend::Profile,
                Some("window overflows the i16 lane accumulator"),
            ),
            KernelChoice::Split if fits_i8 => (KernelBackend::Split, None),
            KernelChoice::Split if fits_i16 => (
                KernelBackend::Simd,
                Some("window overflows the saturating i8 accumulator"),
            ),
            KernelChoice::Split => (
                KernelBackend::Profile,
                Some("window overflows both the i8 and i16 lane accumulators"),
            ),
            KernelChoice::Auto if fits_i16 && wide_available() => (KernelBackend::Wide, None),
            KernelChoice::Auto if fits_i16 && simd_available() => (KernelBackend::Simd, None),
            KernelChoice::Auto => (KernelBackend::Profile, None),
        }
    }
}

/// True when the i16 accumulator cannot overflow for this window/matrix
/// combination (scores are clamped at 0 below, so only the positive side
/// can grow).
fn simd_window_fits(window_len: usize, matrix: &SubstitutionMatrix) -> bool {
    let max = matrix.max_score().max(0) as i64;
    (window_len as i64) * max <= i16::MAX as i64
}

/// True when the split kernel's saturating i8 lanes are exact for this
/// window/matrix combination.
///
/// The running clamped score after `k` steps is at most `k * max_score`,
/// so while `window_len * max_score <= i8::MAX` no lane ever saturates
/// upward; downward saturation at -128 is erased by the `max(0)` clamp.
/// That makes the i8 path bit-identical to the scalar kernels — it is a
/// short-window variant, not an approximation.
pub fn split_window_fits(window_len: usize, matrix: &SubstitutionMatrix) -> bool {
    let max = matrix.max_score().max(0) as i64;
    (window_len as i64) * max <= i8::MAX as i64
}

/// Does this host have the SIMD instructions the 16-lane fast path
/// wants?
///
/// Without them [`score_lanes`] still works (the lane-array fallback is
/// plain safe Rust the compiler autovectorizes), so this only steers
/// `Auto` away from a path with no hardware win.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Does this host have the AVX-512BW instructions the 32-lane wide path
/// wants? Same contract as [`simd_available`]: the wide fallback is
/// portable, this only informs `Auto` and the recorded profile.
pub fn wide_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Per-position substitution-score table for one `IL0` window.
///
/// Row `p` holds `matrix.score(window[p], c)` for every residue code
/// `c`, laid out as two 16-byte halves so the SIMD path can use them as
/// byte-shuffle tables directly. Building a profile costs one row copy
/// per position and is amortized over every `IL1` window scored against
/// it — the software analogue of loading a PE's substitution ROM once
/// and streaming the bank past it.
#[derive(Clone, Debug, Default)]
pub struct ScoreProfile {
    data: Vec<i8>,
    len: usize,
}

impl ScoreProfile {
    pub fn new() -> ScoreProfile {
        ScoreProfile::default()
    }

    /// (Re)build the profile for `window`, reusing the allocation.
    pub fn build(&mut self, matrix: &SubstitutionMatrix, window: &[u8]) {
        self.len = window.len();
        // No `clear()`: the score slots of every row are overwritten
        // below and the unused tail of the second shuffle table is never
        // written at all, so `resize` only has to zero-fill growth.
        self.data.resize(window.len() * PROFILE_STRIDE, 0);
        let flat = matrix.flat();
        for (row, &a) in self.data.chunks_exact_mut(PROFILE_STRIDE).zip(window) {
            debug_assert!((a as usize) < AA_ALPHABET_LEN);
            row[..AA_ALPHABET_LEN]
                .copy_from_slice(&flat[a as usize * AA_ALPHABET_LEN..][..AA_ALPHABET_LEN]);
        }
    }

    /// Window length this profile was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Substitution score at window position `p` against residue `c`.
    #[cfg(test)]
    fn score(&self, p: usize, c: u8) -> i32 {
        self.data[p * PROFILE_STRIDE + c as usize] as i32
    }
}

/// Profile-based scalar kernel: bit-identical to
/// [`ungapped_score`](crate::ungapped_score) on the window the profile
/// was built from, one indexed byte load per residue pair.
///
/// The row walk keeps the whole lookup inside one 32-byte profile row
/// (`chunks_exact` + a masked index, so the compiler drops every bounds
/// check) and carries no dependence on the `IL0` residues — the two
/// things that make it faster than the `matrix.score(a, b)` baseline.
#[inline]
pub fn profile_score(kernel: Kernel, profile: &ScoreProfile, w1: &[u8]) -> i32 {
    debug_assert_eq!(profile.len(), w1.len());
    let mut score = 0i32;
    let mut max_score = 0i32;
    let rows = profile.data.chunks_exact(PROFILE_STRIDE);
    match kernel {
        Kernel::ClampedSum => {
            for (row, &b) in rows.zip(w1) {
                // The mask keeps the index inside the 32-byte row
                // (residue codes are < 24 by construction).
                let sub = row[(b & 0x1f) as usize] as i32;
                score = (score + sub).max(0);
                max_score = max_score.max(score);
            }
        }
        Kernel::PaperLiteral => {
            for (row, &b) in rows.zip(w1) {
                let sub = row[(b & 0x1f) as usize] as i32;
                score = score.max(score + sub);
                max_score = max_score.max(score);
            }
        }
    }
    max_score
}

/// Profile kernel over two windows at once.
///
/// The two recurrences are independent, so the CPU overlaps their
/// latency chains — this is what makes the profile *backend* faster
/// than the per-pair baseline even without SIMD, and it is the shape
/// the batch scorer feeds when it falls back to scalar code.
#[inline]
pub fn profile_score2(
    kernel: Kernel,
    profile: &ScoreProfile,
    w1a: &[u8],
    w1b: &[u8],
) -> (i32, i32) {
    debug_assert_eq!(profile.len(), w1a.len());
    debug_assert_eq!(profile.len(), w1b.len());
    let mut sa = 0i32;
    let mut ma = 0i32;
    let mut sb = 0i32;
    let mut mb = 0i32;
    let rows = profile.data.chunks_exact(PROFILE_STRIDE);
    match kernel {
        Kernel::ClampedSum => {
            for ((row, &a), &b) in rows.zip(w1a).zip(w1b) {
                sa = (sa + row[(a & 0x1f) as usize] as i32).max(0);
                sb = (sb + row[(b & 0x1f) as usize] as i32).max(0);
                ma = ma.max(sa);
                mb = mb.max(sb);
            }
        }
        Kernel::PaperLiteral => {
            for ((row, &a), &b) in rows.zip(w1a).zip(w1b) {
                sa = sa.max(sa + row[(a & 0x1f) as usize] as i32);
                sb = sb.max(sb + row[(b & 0x1f) as usize] as i32);
                ma = ma.max(sa);
                mb = mb.max(sb);
            }
        }
    }
    (ma, mb)
}

/// Lane-axis windows transposed into position-major (interleaved)
/// order.
///
/// `data[p * stride + j]` is residue `p` of window `j`; the lane stride
/// is padded up to a multiple of [`WIDE_LANES`] (pad windows read as
/// residue 0 and their scores are simply never consumed), so both the
/// 16- and 32-lane kernels can load full blocks. This is the transpose
/// an input controller performs when it broadcasts the `IL1` byte stream
/// across the PE array one residue per cycle.
///
/// There is one way in, [`fill`](InterleavedWindows::fill): the caller
/// writes each window once, into a staging row, and the routine does
/// the transposition — so a gather out of the flat bank lands in kernel
/// layout without a row-major copy of the whole list in between.
#[derive(Clone, Debug, Default)]
pub struct InterleavedWindows {
    data: Vec<u8>,
    /// [`WIDE_LANES`] staging rows, each the window length rounded up to
    /// whole tiles: the lane block being transposed (2 KiB at the
    /// default 60-residue window, so it never leaves L1).
    stage: Vec<u8>,
    len: usize,
    count: usize,
    stride: usize,
}

/// Lanes per transpose tile: eight staging rows, one `u64` of output
/// per position.
const TILE_ROWS: usize = 8;

/// Positions per transpose tile: one 16-byte load per staging row.
const TILE_COLS: usize = 16;

/// Transpose an 8×8 byte matrix held as eight little-endian `u64` rows
/// (`rows[r]` byte `c` is element `(r, c)`): three rounds of masked
/// swaps exchange the off-diagonal 1×1, 2×2 and 4×4 sub-blocks.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline(always)]
fn transpose_8x8(mut rows: [u64; 8]) -> [u64; 8] {
    const ROUNDS: [(usize, u64); 3] = [
        (1, 0x00ff_00ff_00ff_00ff),
        (2, 0x0000_ffff_0000_ffff),
        (4, 0x0000_0000_ffff_ffff),
    ];
    for (half, mask) in ROUNDS {
        let shift = 8 * half as u32;
        for lo in (0..8).filter(|r| r & half == 0) {
            let hi = lo + half;
            let t = ((rows[lo] >> shift) ^ rows[hi]) & mask;
            rows[hi] ^= t;
            rows[lo] ^= t << shift;
        }
    }
    rows
}

/// Portable transpose tile: `out[c]` byte `r` is `rows[r][c]` — two
/// 8×8 register transposes side by side.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline(always)]
fn transpose_tile_portable(rows: &[[u8; TILE_COLS]; TILE_ROWS]) -> [u64; TILE_COLS] {
    let mut out = [0u64; TILE_COLS];
    for (half, out) in out.chunks_exact_mut(8).enumerate() {
        let mut block = [0u64; 8];
        for (v, row) in block.iter_mut().zip(rows) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&row[half * 8..][..8]);
            *v = u64::from_le_bytes(bytes);
        }
        out.copy_from_slice(&transpose_8x8(block));
    }
    out
}

/// The transpose tile [`InterleavedWindows::fill`] is built from:
/// `out[c]` packs column `c` of the eight `rows`, row 0 in the low byte.
#[inline(always)]
fn transpose_tile(rows: &[[u8; TILE_COLS]; TILE_ROWS]) -> [u64; TILE_COLS] {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { x86::transpose_tile_sse2(rows) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        transpose_tile_portable(rows)
    }
}

impl InterleavedWindows {
    pub fn new() -> InterleavedWindows {
        InterleavedWindows::default()
    }

    /// (Re)fill with `count` windows of length `len`; `write(j, row)`
    /// must write all `len` residues of window `j` into `row` and is
    /// called once per window, in order.
    ///
    /// Windows are staged one lane block ([`WIDE_LANES`]) at a time,
    /// the block is transposed through [`TILE_ROWS`]×[`TILE_COLS`] byte
    /// tiles in registers, and every position receives its whole
    /// `WIDE_LANES`-byte run in one go. Each byte of the layout is
    /// written exactly once per call, whatever shape the buffers held
    /// before, and nothing is allocated once they have grown to the
    /// largest shape seen. Zero-length windows hold nothing: `len == 0`
    /// leaves the layout empty.
    pub fn fill(&mut self, count: usize, len: usize, mut write: impl FnMut(usize, &mut [u8])) {
        let count = if len == 0 { 0 } else { count };
        self.len = len;
        self.count = count;
        self.stride = count.div_ceil(WIDE_LANES) * WIDE_LANES;
        let stride = self.stride;
        // Staging rows are padded to whole tiles so the transpose loads
        // full columns; the pad columns are never stored.
        let stage_len = len.div_ceil(TILE_COLS) * TILE_COLS;
        self.data.resize(len * stride, 0);
        self.stage.resize(WIDE_LANES * stage_len, 0);

        for j0 in (0..count).step_by(WIDE_LANES) {
            let real = WIDE_LANES.min(count - j0);
            for (r, row) in self.stage.chunks_exact_mut(stage_len).enumerate() {
                if r < real {
                    write(j0 + r, &mut row[..len]);
                } else {
                    // Pad lanes of a short final block are scored like
                    // any other, so they must hold valid residue codes.
                    row[..len].fill(0);
                }
            }
            self.store_block(j0, stage_len);
        }
    }

    /// Transpose the staged lane block into lanes `j0 .. j0+WIDE_LANES`
    /// of every position (the part of [`fill`](InterleavedWindows::fill)
    /// that does not depend on the caller's closure).
    fn store_block(&mut self, j0: usize, stage_len: usize) {
        let (len, stride) = (self.len, self.stride);
        for p0 in (0..len).step_by(TILE_COLS) {
            let mut tiles = [[0u64; TILE_COLS]; WIDE_LANES / TILE_ROWS];
            for (g, tile) in tiles.iter_mut().enumerate() {
                let mut rows = [[0u8; TILE_COLS]; TILE_ROWS];
                for (r, row) in rows.iter_mut().enumerate() {
                    row.copy_from_slice(
                        &self.stage[(g * TILE_ROWS + r) * stage_len + p0..][..TILE_COLS],
                    );
                }
                *tile = transpose_tile(&rows);
            }
            for i in 0..TILE_COLS.min(len - p0) {
                let run = &mut self.data[(p0 + i) * stride + j0..][..WIDE_LANES];
                for (g, tile) in tiles.iter().enumerate() {
                    run[g * TILE_ROWS..][..TILE_ROWS].copy_from_slice(&tile[i].to_le_bytes());
                }
            }
        }
    }

    /// [`fill`](InterleavedWindows::fill) from row-major windows of
    /// length `len` packed back to back in `windows` (the
    /// `gather_windows` layout).
    pub fn build(&mut self, windows: &[u8], len: usize) {
        let count = windows.len().checked_div(len).unwrap_or(0);
        debug_assert_eq!(count * len, windows.len());
        self.fill(count, len, |j, row| {
            row.copy_from_slice(&windows[j * len..][..len])
        });
    }

    /// Number of real (non-pad) windows.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Window length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Residues of lane block `j0..j0+LANES` at window position `p`.
    /// Lane `j` holds window `j0 + j`'s residue (0 for pad lanes).
    #[inline(always)]
    pub fn lane_codes(&self, p: usize, j0: usize) -> &[u8] {
        &self.data[p * self.stride + j0..][..LANES]
    }

    /// Residues of wide lane block `j0..j0+WIDE_LANES` at position `p`.
    #[inline(always)]
    pub fn wide_lane_codes(&self, p: usize, j0: usize) -> &[u8] {
        &self.data[p * self.stride + j0..][..WIDE_LANES]
    }
}

/// Score one lane block: windows `j0 .. j0+LANES` of `il1` against
/// `profile`, writing [`LANES`] max scores into `out`.
///
/// `j0` must be a multiple of [`LANES`] and within the padded stride;
/// scores of pad lanes are meaningless and must be ignored by the
/// caller. Results are bit-identical to the scalar kernels as long as
/// `profile.len() * matrix.max_score()` fits an `i16` (see
/// [`KernelChoice::resolve`]).
#[inline]
pub fn score_lanes(
    kernel: Kernel,
    profile: &ScoreProfile,
    il1: &InterleavedWindows,
    j0: usize,
    out: &mut [i32; LANES],
) {
    debug_assert_eq!(profile.len(), il1.len());
    debug_assert_eq!(j0 % LANES, 0);
    debug_assert!(j0 + LANES <= il1.stride);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 confirmed present at runtime.
            unsafe { x86::score_lanes_avx2(kernel, profile, il1, j0, out) };
            return;
        }
    }
    score_lanes_fallback(kernel, profile, il1, j0, out);
}

/// Portable lane-array kernel: the same 16-lane recurrence written as
/// plain array arithmetic for the compiler to autovectorize. Used when
/// the host lacks AVX2 but a SIMD backend was requested explicitly.
fn score_lanes_fallback(
    kernel: Kernel,
    profile: &ScoreProfile,
    il1: &InterleavedWindows,
    j0: usize,
    out: &mut [i32; LANES],
) {
    let mut score = [0i16; LANES];
    let mut max_score = [0i16; LANES];
    for p in 0..profile.len() {
        let codes = il1.lane_codes(p, j0);
        let row = &profile.data[p * PROFILE_STRIDE..][..PROFILE_STRIDE];
        match kernel {
            Kernel::ClampedSum => {
                for l in 0..LANES {
                    let s = (score[l] + row[codes[l] as usize] as i16).max(0);
                    score[l] = s;
                    max_score[l] = max_score[l].max(s);
                }
            }
            Kernel::PaperLiteral => {
                // `score = max(score, score + sub)` only ever adds the
                // positive part, so the running score is the maximum.
                for l in 0..LANES {
                    score[l] += (row[codes[l] as usize] as i16).max(0);
                }
            }
        }
    }
    let final_v = match kernel {
        Kernel::ClampedSum => max_score,
        Kernel::PaperLiteral => score,
    };
    for l in 0..LANES {
        out[l] = final_v[l] as i32;
    }
}

/// Score one wide lane block: windows `j0 .. j0+WIDE_LANES` of `il1`
/// against `profile`, writing [`WIDE_LANES`] max scores into `out`.
///
/// Same contract as [`score_lanes`] with `j0` a multiple of
/// [`WIDE_LANES`]: pad-lane scores are meaningless, results are
/// bit-identical to the scalar kernels while the window passes the i16
/// guard of [`KernelChoice::resolve`].
#[inline]
pub fn score_lanes_wide(
    kernel: Kernel,
    profile: &ScoreProfile,
    il1: &InterleavedWindows,
    j0: usize,
    out: &mut [i32; WIDE_LANES],
) {
    debug_assert_eq!(profile.len(), il1.len());
    debug_assert_eq!(j0 % WIDE_LANES, 0);
    debug_assert!(j0 + WIDE_LANES <= il1.stride);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512bw") {
            // SAFETY: AVX-512F/BW confirmed present at runtime.
            unsafe { x86::score_lanes_avx512(kernel, profile, il1, j0, out) };
            return;
        }
    }
    score_lanes_wide_fallback(kernel, profile, il1, j0, out);
}

/// Portable 32-lane i16 kernel for hosts without AVX-512BW.
fn score_lanes_wide_fallback(
    kernel: Kernel,
    profile: &ScoreProfile,
    il1: &InterleavedWindows,
    j0: usize,
    out: &mut [i32; WIDE_LANES],
) {
    let mut score = [0i16; WIDE_LANES];
    let mut max_score = [0i16; WIDE_LANES];
    for p in 0..profile.len() {
        let codes = il1.wide_lane_codes(p, j0);
        let row = &profile.data[p * PROFILE_STRIDE..][..PROFILE_STRIDE];
        match kernel {
            Kernel::ClampedSum => {
                for l in 0..WIDE_LANES {
                    let s = (score[l] + row[codes[l] as usize] as i16).max(0);
                    score[l] = s;
                    max_score[l] = max_score[l].max(s);
                }
            }
            Kernel::PaperLiteral => {
                for l in 0..WIDE_LANES {
                    score[l] += (row[codes[l] as usize] as i16).max(0);
                }
            }
        }
    }
    let final_v = match kernel {
        Kernel::ClampedSum => max_score,
        Kernel::PaperLiteral => score,
    };
    for l in 0..WIDE_LANES {
        out[l] = final_v[l] as i32;
    }
}

/// Score one wide lane block with the split (saturating i8) kernel:
/// 32 window pairs per 256-bit op, twice the lanes of the i16 paths
/// per vector register.
///
/// Only exact while [`split_window_fits`] holds for the profile's
/// window — [`KernelChoice::resolve`] enforces that guard; callers
/// going through [`score_batch`] inherit it.
#[inline]
pub fn score_lanes_split(
    kernel: Kernel,
    profile: &ScoreProfile,
    il1: &InterleavedWindows,
    j0: usize,
    out: &mut [i32; WIDE_LANES],
) {
    debug_assert_eq!(profile.len(), il1.len());
    debug_assert_eq!(j0 % WIDE_LANES, 0);
    debug_assert!(j0 + WIDE_LANES <= il1.stride);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 confirmed present at runtime.
            unsafe { x86::score_lanes_split_avx2(kernel, profile, il1, j0, out) };
            return;
        }
    }
    score_lanes_split_fallback(kernel, profile, il1, j0, out);
}

/// Portable saturating-i8 lane kernel, bit-identical to the AVX2 split
/// path (both saturate at ±127/-128 the same way).
fn score_lanes_split_fallback(
    kernel: Kernel,
    profile: &ScoreProfile,
    il1: &InterleavedWindows,
    j0: usize,
    out: &mut [i32; WIDE_LANES],
) {
    let mut score = [0i8; WIDE_LANES];
    let mut max_score = [0i8; WIDE_LANES];
    for p in 0..profile.len() {
        let codes = il1.wide_lane_codes(p, j0);
        let row = &profile.data[p * PROFILE_STRIDE..][..PROFILE_STRIDE];
        match kernel {
            Kernel::ClampedSum => {
                for l in 0..WIDE_LANES {
                    let s = score[l].saturating_add(row[codes[l] as usize]).max(0);
                    score[l] = s;
                    max_score[l] = max_score[l].max(s);
                }
            }
            Kernel::PaperLiteral => {
                for l in 0..WIDE_LANES {
                    score[l] = score[l].saturating_add(row[codes[l] as usize].max(0));
                }
            }
        }
    }
    let final_v = match kernel {
        Kernel::ClampedSum => max_score,
        Kernel::PaperLiteral => score,
    };
    for l in 0..WIDE_LANES {
        out[l] = final_v[l] as i32;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// SSE2 transpose tile: three rounds of byte, word and dword
    /// unpacks turn eight 16-byte rows into eight registers that each
    /// hold two finished columns.
    ///
    /// # Safety
    /// Caller must ensure SSE2 is available (always, on x86_64).
    #[target_feature(enable = "sse2")]
    #[inline]
    pub(super) unsafe fn transpose_tile_sse2(
        rows: &[[u8; TILE_COLS]; TILE_ROWS],
    ) -> [u64; TILE_COLS] {
        let r = |i: usize| _mm_loadu_si128(rows[i].as_ptr() as *const __m128i);
        // Bytes of row pairs: columns 0–7 (`lo`) and 8–15 (`hi`).
        let (a0, a1) = (_mm_unpacklo_epi8(r(0), r(1)), _mm_unpackhi_epi8(r(0), r(1)));
        let (a2, a3) = (_mm_unpacklo_epi8(r(2), r(3)), _mm_unpackhi_epi8(r(2), r(3)));
        let (a4, a5) = (_mm_unpacklo_epi8(r(4), r(5)), _mm_unpackhi_epi8(r(4), r(5)));
        let (a6, a7) = (_mm_unpacklo_epi8(r(6), r(7)), _mm_unpackhi_epi8(r(6), r(7)));
        // Words of row quads: four columns per register.
        let (b0, b1) = (_mm_unpacklo_epi16(a0, a2), _mm_unpackhi_epi16(a0, a2));
        let (b2, b3) = (_mm_unpacklo_epi16(a1, a3), _mm_unpackhi_epi16(a1, a3));
        let (b4, b5) = (_mm_unpacklo_epi16(a4, a6), _mm_unpackhi_epi16(a4, a6));
        let (b6, b7) = (_mm_unpacklo_epi16(a5, a7), _mm_unpackhi_epi16(a5, a7));
        // Dwords of all eight rows: columns `2k` and `2k + 1` in `c[k]`.
        let c = [
            _mm_unpacklo_epi32(b0, b4),
            _mm_unpackhi_epi32(b0, b4),
            _mm_unpacklo_epi32(b1, b5),
            _mm_unpackhi_epi32(b1, b5),
            _mm_unpacklo_epi32(b2, b6),
            _mm_unpackhi_epi32(b2, b6),
            _mm_unpacklo_epi32(b3, b7),
            _mm_unpackhi_epi32(b3, b7),
        ];
        let mut out = [0u64; TILE_COLS];
        for (k, v) in c.into_iter().enumerate() {
            out[2 * k] = _mm_cvtsi128_si64(v) as u64;
            out[2 * k + 1] = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
        }
        out
    }

    /// AVX2 16-lane kernel. One recurrence step is: a 16-byte load of
    /// residue codes, a two-table byte shuffle against the profile row
    /// (codes 0–15 from the low table, 16–23 from the high table), a
    /// sign-extend to i16, then the add/max gates of the PE datapath —
    /// for 16 window pairs at once.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn score_lanes_avx2(
        kernel: Kernel,
        profile: &ScoreProfile,
        il1: &InterleavedWindows,
        j0: usize,
        out: &mut [i32; LANES],
    ) {
        let l = profile.len();
        let stride = il1.stride;
        let codes_base = il1.data.as_ptr().add(j0);
        let prof_base = profile.data.as_ptr();
        let zero = _mm256_setzero_si256();
        let fifteen = _mm_set1_epi8(15);
        let mut score = zero;
        let mut max_score = zero;
        for p in 0..l {
            let codes = _mm_loadu_si128(codes_base.add(p * stride) as *const __m128i);
            let row = prof_base.add(p * PROFILE_STRIDE);
            let lo = _mm_loadu_si128(row as *const __m128i);
            let hi = _mm_loadu_si128(row.add(LANES) as *const __m128i);
            // pshufb indexes by the low 4 bits, which for codes 16..24
            // is exactly `code - 16` — select the matching table.
            let from_hi = _mm_cmpgt_epi8(codes, fifteen);
            let sub8 = _mm_blendv_epi8(
                _mm_shuffle_epi8(lo, codes),
                _mm_shuffle_epi8(hi, codes),
                from_hi,
            );
            let sub = _mm256_cvtepi8_epi16(sub8);
            match kernel {
                Kernel::ClampedSum => {
                    score = _mm256_max_epi16(_mm256_add_epi16(score, sub), zero);
                    max_score = _mm256_max_epi16(max_score, score);
                }
                Kernel::PaperLiteral => {
                    score = _mm256_add_epi16(score, _mm256_max_epi16(sub, zero));
                }
            }
        }
        let final_v = match kernel {
            Kernel::ClampedSum => max_score,
            Kernel::PaperLiteral => score,
        };
        let lo32 = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(final_v));
        let hi32 = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(final_v, 1));
        _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, lo32);
        _mm256_storeu_si256(out.as_mut_ptr().add(8) as *mut __m256i, hi32);
    }

    /// AVX-512BW 32-lane kernel. The recurrence step widens the AVX2
    /// one: a 32-byte load of residue codes, the same two-table byte
    /// shuffle done per 128-bit half of a 256-bit register (the shuffle
    /// tables broadcast to both halves), a sign-extend of all 32 i8
    /// substitution scores into one `__m512i` of i16 lanes, then the
    /// add/max gates — 32 window pairs per step.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F and AVX-512BW are available.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn score_lanes_avx512(
        kernel: Kernel,
        profile: &ScoreProfile,
        il1: &InterleavedWindows,
        j0: usize,
        out: &mut [i32; WIDE_LANES],
    ) {
        let l = profile.len();
        let stride = il1.stride;
        let codes_base = il1.data.as_ptr().add(j0);
        let prof_base = profile.data.as_ptr();
        let zero = _mm512_setzero_si512();
        let fifteen = _mm256_set1_epi8(15);
        let mut score = zero;
        let mut max_score = zero;
        for p in 0..l {
            let codes = _mm256_loadu_si256(codes_base.add(p * stride) as *const __m256i);
            let row = prof_base.add(p * PROFILE_STRIDE);
            // Broadcast each 16-byte table to both 128-bit halves so
            // `_mm256_shuffle_epi8` (which shuffles per half) sees the
            // full table against either half of the code vector.
            let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(row as *const __m128i));
            let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(row.add(LANES) as *const __m128i));
            let from_hi = _mm256_cmpgt_epi8(codes, fifteen);
            let sub8 = _mm256_blendv_epi8(
                _mm256_shuffle_epi8(lo, codes),
                _mm256_shuffle_epi8(hi, codes),
                from_hi,
            );
            let sub = _mm512_cvtepi8_epi16(sub8);
            match kernel {
                Kernel::ClampedSum => {
                    score = _mm512_max_epi16(_mm512_add_epi16(score, sub), zero);
                    max_score = _mm512_max_epi16(max_score, score);
                }
                Kernel::PaperLiteral => {
                    score = _mm512_add_epi16(score, _mm512_max_epi16(sub, zero));
                }
            }
        }
        let final_v = match kernel {
            Kernel::ClampedSum => max_score,
            Kernel::PaperLiteral => score,
        };
        let lo32 = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(final_v));
        let hi32 = _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(final_v, 1));
        _mm512_storeu_si512(out.as_mut_ptr() as *mut _, lo32);
        _mm512_storeu_si512(out.as_mut_ptr().add(16) as *mut _, hi32);
    }

    /// AVX2 split-accumulator kernel: the whole recurrence stays in
    /// saturating i8 lanes, so one 256-bit register carries 32 window
    /// pairs — double the lanes of the i16 paths per op. Exact only
    /// under [`split_window_fits`] (no upward saturation possible;
    /// downward saturation is erased by the `max(0)` clamp).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn score_lanes_split_avx2(
        kernel: Kernel,
        profile: &ScoreProfile,
        il1: &InterleavedWindows,
        j0: usize,
        out: &mut [i32; WIDE_LANES],
    ) {
        let l = profile.len();
        let stride = il1.stride;
        let codes_base = il1.data.as_ptr().add(j0);
        let prof_base = profile.data.as_ptr();
        let zero = _mm256_setzero_si256();
        let fifteen = _mm256_set1_epi8(15);
        let mut score = zero;
        let mut max_score = zero;
        for p in 0..l {
            let codes = _mm256_loadu_si256(codes_base.add(p * stride) as *const __m256i);
            let row = prof_base.add(p * PROFILE_STRIDE);
            let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(row as *const __m128i));
            let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(row.add(LANES) as *const __m128i));
            let from_hi = _mm256_cmpgt_epi8(codes, fifteen);
            let sub8 = _mm256_blendv_epi8(
                _mm256_shuffle_epi8(lo, codes),
                _mm256_shuffle_epi8(hi, codes),
                from_hi,
            );
            match kernel {
                Kernel::ClampedSum => {
                    score = _mm256_max_epi8(_mm256_adds_epi8(score, sub8), zero);
                    max_score = _mm256_max_epi8(max_score, score);
                }
                Kernel::PaperLiteral => {
                    score = _mm256_adds_epi8(score, _mm256_max_epi8(sub8, zero));
                }
            }
        }
        let final_v = match kernel {
            Kernel::ClampedSum => max_score,
            Kernel::PaperLiteral => score,
        };
        let q0 = _mm256_castsi256_si128(final_v);
        let q1 = _mm256_extracti128_si256(final_v, 1);
        for (i, q) in [q0, q1].into_iter().enumerate() {
            let a = _mm256_cvtepi8_epi32(q);
            let b = _mm256_cvtepi8_epi32(_mm_srli_si128(q, 8));
            _mm256_storeu_si256(out.as_mut_ptr().add(16 * i) as *mut __m256i, a);
            _mm256_storeu_si256(out.as_mut_ptr().add(16 * i + 8) as *mut __m256i, b);
        }
    }
}

/// Score every window of `il1` against `profile` under `backend`,
/// appending one max score per window to `out` in window order.
///
/// This is the convenience entry point (tests, benches, small batches);
/// the tiled step-2 loop drives [`score_lanes`] directly.
#[allow(clippy::too_many_arguments)]
pub fn score_batch(
    backend: KernelBackend,
    kernel: Kernel,
    matrix: &SubstitutionMatrix,
    w0: &[u8],
    profile: &ScoreProfile,
    il1_rowmajor: &[u8],
    il1: &InterleavedWindows,
    out: &mut Vec<i32>,
) {
    match backend {
        KernelBackend::Scalar => {
            let l = w0.len();
            if l == 0 {
                out.extend(std::iter::repeat_n(0, il1.count()));
                return;
            }
            for w1 in il1_rowmajor.chunks_exact(l) {
                out.push(crate::ungapped_score(kernel, matrix, w0, w1));
            }
        }
        KernelBackend::Profile => {
            let l = profile.len();
            if l == 0 {
                out.extend(std::iter::repeat_n(0, il1.count()));
                return;
            }
            let mut pairs = il1_rowmajor.chunks_exact(2 * l);
            for two in &mut pairs {
                let (a, b) = profile_score2(kernel, profile, &two[..l], &two[l..]);
                out.push(a);
                out.push(b);
            }
            let rem = pairs.remainder();
            if !rem.is_empty() {
                out.push(profile_score(kernel, profile, rem));
            }
        }
        KernelBackend::Simd => {
            let mut lanes = [0i32; LANES];
            let mut j = 0;
            while j < il1.count() {
                score_lanes(kernel, profile, il1, j, &mut lanes);
                let take = LANES.min(il1.count() - j);
                out.extend_from_slice(&lanes[..take]);
                j += LANES;
            }
        }
        KernelBackend::Wide => {
            let mut lanes = [0i32; WIDE_LANES];
            let mut j = 0;
            while j < il1.count() {
                score_lanes_wide(kernel, profile, il1, j, &mut lanes);
                let take = WIDE_LANES.min(il1.count() - j);
                out.extend_from_slice(&lanes[..take]);
                j += WIDE_LANES;
            }
        }
        KernelBackend::Split => {
            let mut lanes = [0i32; WIDE_LANES];
            let mut j = 0;
            while j < il1.count() {
                score_lanes_split(kernel, profile, il1, j, &mut lanes);
                let take = WIDE_LANES.min(il1.count() - j);
                out.extend_from_slice(&lanes[..take]);
                j += WIDE_LANES;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ungapped_score;
    use psc_score::blosum62;
    use psc_score::matrix::match_mismatch;
    use psc_seqio::prng::SplitMix64;

    /// Seeded residue stream over the full alphabet.
    fn windows(seed: u64, count: usize, len: usize) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..count * len)
            .map(|_| rng.range(0..AA_ALPHABET_LEN as u8))
            .collect()
    }

    fn check_all_backends(w0: &[u8], il1_rows: &[u8], len: usize) {
        let m = blosum62();
        let mut profile = ScoreProfile::new();
        profile.build(m, w0);
        let mut il1 = InterleavedWindows::new();
        il1.build(il1_rows, len);
        for kernel in [Kernel::ClampedSum, Kernel::PaperLiteral] {
            let expect: Vec<i32> = if len == 0 {
                vec![0; il1.count()]
            } else {
                il1_rows
                    .chunks_exact(len)
                    .map(|w1| ungapped_score(kernel, m, w0, w1))
                    .collect()
            };
            for backend in [
                KernelBackend::Scalar,
                KernelBackend::Profile,
                KernelBackend::Simd,
                KernelBackend::Wide,
            ] {
                let mut got = Vec::new();
                score_batch(backend, kernel, m, w0, &profile, il1_rows, &il1, &mut got);
                assert_eq!(got, expect, "{backend:?} {kernel:?} len={len}");
            }
        }
    }

    #[test]
    fn backends_agree_across_shapes() {
        for (seed, count, len) in [
            (1, 1, 1),
            (2, 16, 60),
            (3, 17, 60), // one lane block + 1 tail window
            (4, 5, 7),   // sub-lane batch, odd length
            (5, 48, 33), // several blocks, non-lane-multiple length
            (6, 3, 0),   // empty windows
            (7, 0, 12),  // empty IL1
            (8, 33, 21), // one wide block + 1 tail window
            (9, 95, 14), // several wide blocks, ragged tail
        ] {
            let w0 = windows(seed, 1, len);
            let il1 = windows(seed ^ 0xff, count, len);
            check_all_backends(&w0, &il1, len);
        }
    }

    #[test]
    fn split_backend_agrees_under_its_guard() {
        // blosum62's max score is 11, so windows up to 11 residues pass
        // the i8 guard; a ±3 matrix stretches the length to 42.
        let cases: [(&SubstitutionMatrix, u64, usize, usize); 4] = [
            (blosum62(), 41, 70, 11),
            (blosum62(), 42, 7, 5),
            (&match_mismatch("PM3", 3, -3), 43, 65, 42),
            (&match_mismatch("PM2", 2, -2), 44, 33, 63),
        ];
        for (m, seed, count, len) in cases {
            assert!(split_window_fits(len, m), "case must satisfy the guard");
            let w0 = windows(seed, 1, len);
            let rows = windows(seed ^ 0xff, count, len);
            let mut profile = ScoreProfile::new();
            profile.build(m, &w0);
            let mut il1 = InterleavedWindows::new();
            il1.build(&rows, len);
            for kernel in [Kernel::ClampedSum, Kernel::PaperLiteral] {
                let expect: Vec<i32> = rows
                    .chunks_exact(len)
                    .map(|w1| ungapped_score(kernel, m, &w0, w1))
                    .collect();
                let mut got = Vec::new();
                score_batch(
                    KernelBackend::Split,
                    kernel,
                    m,
                    &w0,
                    &profile,
                    &rows,
                    &il1,
                    &mut got,
                );
                assert_eq!(got, expect, "{kernel:?} len={len} matrix={}", m.name);
            }
        }
    }

    #[test]
    fn profile_matches_matrix_rows() {
        let m = blosum62();
        let w0 = windows(11, 1, 24);
        let mut p = ScoreProfile::new();
        p.build(m, &w0);
        for (pos, &a) in w0.iter().enumerate() {
            for c in 0..AA_ALPHABET_LEN as u8 {
                assert_eq!(p.score(pos, c), m.score(a, c));
            }
        }
    }

    /// The layout `fill` must produce, byte by byte: residue `p` of
    /// window `j` at `p * stride + j`, pad lanes zero.
    fn naive_interleave(rows: &[u8], count: usize, len: usize) -> Vec<u8> {
        let stride = count.div_ceil(WIDE_LANES) * WIDE_LANES;
        let mut data = vec![0u8; len * stride];
        for j in 0..count {
            for p in 0..len {
                data[p * stride + j] = rows[j * len + p];
            }
        }
        data
    }

    #[test]
    fn fill_matches_naive_transposition_across_reused_shapes() {
        // One instance walks the whole grid down and back up again, so
        // every shape is filled over the leftovers of both a larger and
        // a smaller one: nothing stale may show through, in the real
        // lanes or in the pad lanes of the last block.
        const COUNTS: [usize; 9] = [0, 1, 31, 32, 33, 63, 64, 65, 1000];
        const LENS: [usize; 7] = [1, 7, 8, 9, 60, 64, 300];
        let mut shapes: Vec<(usize, usize)> = COUNTS
            .iter()
            .flat_map(|&c| LENS.iter().map(move |&l| (c, l)))
            .collect();
        shapes.extend(shapes.clone().into_iter().rev());
        let mut il = InterleavedWindows::new();
        for (n, (count, len)) in shapes.into_iter().enumerate() {
            // Residue codes offset by one so a stale or missing byte
            // cannot pass for the zero a pad lane must hold.
            let rows: Vec<u8> = windows(n as u64 + 1, count, len)
                .into_iter()
                .map(|c| c + 1)
                .collect();
            let mut calls = 0;
            il.fill(count, len, |j, row| {
                assert_eq!(j, calls, "windows are requested once, in order");
                calls += 1;
                row.copy_from_slice(&rows[j * len..][..len]);
            });
            assert_eq!(calls, count);
            assert_eq!((il.count(), il.len()), (count, len));
            assert_eq!(
                il.data,
                naive_interleave(&rows, count, len),
                "count={count} len={len}"
            );
            // `build` is the same routine fed from a row-major slice.
            let mut built = InterleavedWindows::new();
            built.build(&rows, len);
            assert_eq!(built.data, il.data, "count={count} len={len}");
        }
        // Zero-length windows hold nothing, whatever count is claimed.
        il.fill(5, 0, |_, _| panic!("no window to write"));
        assert_eq!((il.count(), il.len(), il.data.len()), (0, 0, 0));
    }

    #[test]
    fn transpose_tiles_match_naive() {
        // The tile `fill` runs on this target and the portable tile
        // (the only one on targets without SSE2) both equal the
        // definition: out[c] byte r = rows[r][c].
        for seed in 0..50u64 {
            let bytes = windows(seed + 100, TILE_ROWS, TILE_COLS);
            let mut rows = [[0u8; TILE_COLS]; TILE_ROWS];
            for (row, chunk) in rows.iter_mut().zip(bytes.chunks_exact(TILE_COLS)) {
                row.copy_from_slice(chunk);
                // Use the whole byte range, not just residue codes.
                for b in row.iter_mut() {
                    *b = b.wrapping_mul(37).wrapping_add(seed as u8);
                }
            }
            let mut want = [0u64; TILE_COLS];
            for (c, w) in want.iter_mut().enumerate() {
                let column: [u8; TILE_ROWS] = std::array::from_fn(|r| rows[r][c]);
                *w = u64::from_le_bytes(column);
            }
            assert_eq!(transpose_tile(&rows), want, "seed={seed}");
            assert_eq!(transpose_tile_portable(&rows), want, "seed={seed}");
        }
    }

    #[test]
    fn resolve_honours_overflow_guard() {
        let m = blosum62(); // max score 11
        assert_eq!(KernelChoice::Simd.resolve(60, m), KernelBackend::Simd);
        // 4000 * 11 > i16::MAX → profile fallback.
        assert_eq!(KernelChoice::Simd.resolve(4000, m), KernelBackend::Profile);
        assert_eq!(KernelChoice::Scalar.resolve(60, m), KernelBackend::Scalar);
        let auto = KernelChoice::Auto.resolve(60, m);
        assert_ne!(auto, KernelBackend::Scalar);
        // A pathological matrix can force the fallback at any length.
        let hot = match_mismatch("HOT", 127, -1);
        assert_eq!(
            KernelChoice::Simd.resolve(300, &hot),
            KernelBackend::Profile
        );
    }

    #[test]
    fn resolve_reports_downgrades_with_reasons() {
        let m = blosum62(); // max score 11
                            // Honoured requests carry no reason.
        assert_eq!(
            KernelChoice::Wide.resolve_with_reason(60, m),
            (KernelBackend::Wide, None)
        );
        assert_eq!(
            KernelChoice::Split.resolve_with_reason(11, m),
            (KernelBackend::Split, None)
        );
        // Wide shares the i16 guard with Simd.
        let (b, why) = KernelChoice::Wide.resolve_with_reason(4000, m);
        assert_eq!(b, KernelBackend::Profile);
        assert!(why.is_some_and(|r| r.contains("i16")));
        // Split degrades to Simd first, then Profile.
        let (b, why) = KernelChoice::Split.resolve_with_reason(60, m);
        assert_eq!(b, KernelBackend::Simd);
        assert!(why.is_some_and(|r| r.contains("i8")));
        let (b, why) = KernelChoice::Split.resolve_with_reason(4000, m);
        assert_eq!(b, KernelBackend::Profile);
        assert!(why.is_some_and(|r| r.contains("i16")));
        // Auto never reports a downgrade, and picks the widest lane
        // count the host supports when the window fits i16.
        let (auto, why) = KernelChoice::Auto.resolve_with_reason(60, m);
        assert_eq!(why, None);
        if wide_available() {
            assert_eq!(auto, KernelBackend::Wide);
        } else if simd_available() {
            assert_eq!(auto, KernelBackend::Simd);
        } else {
            assert_eq!(auto, KernelBackend::Profile);
        }
    }

    #[test]
    fn lane_widths_are_consistent() {
        assert_eq!(KernelBackend::Scalar.lane_width(), 1);
        assert_eq!(KernelBackend::Profile.lane_width(), 1);
        assert_eq!(KernelBackend::Simd.lane_width(), LANES);
        assert_eq!(KernelBackend::Wide.lane_width(), WIDE_LANES);
        assert_eq!(KernelBackend::Split.lane_width(), WIDE_LANES);
        assert_eq!(WIDE_LANES % LANES, 0);
    }

    #[test]
    fn extreme_matrix_scores_stay_exact() {
        // ±127 scores stress the i8 tables and i16 accumulation paths.
        let m = match_mismatch("MM", 127, -128);
        let len = 40;
        let w0 = windows(31, 1, len);
        let rows = windows(32, 33, len);
        let mut profile = ScoreProfile::new();
        profile.build(&m, &w0);
        let mut il1 = InterleavedWindows::new();
        il1.build(&rows, len);
        for kernel in [Kernel::ClampedSum, Kernel::PaperLiteral] {
            let expect: Vec<i32> = rows
                .chunks_exact(len)
                .map(|w1| ungapped_score(kernel, &m, &w0, w1))
                .collect();
            for backend in [
                KernelBackend::Profile,
                KernelBackend::Simd,
                KernelBackend::Wide,
            ] {
                let mut got = Vec::new();
                score_batch(backend, kernel, &m, &w0, &profile, &rows, &il1, &mut got);
                assert_eq!(got, expect, "{backend:?} {kernel:?}");
            }
        }
    }

    #[test]
    fn choice_parses() {
        assert_eq!(KernelChoice::parse("auto"), Some(KernelChoice::Auto));
        assert_eq!(KernelChoice::parse("scalar"), Some(KernelChoice::Scalar));
        assert_eq!(KernelChoice::parse("profile"), Some(KernelChoice::Profile));
        assert_eq!(KernelChoice::parse("simd"), Some(KernelChoice::Simd));
        assert_eq!(KernelChoice::parse("wide"), Some(KernelChoice::Wide));
        assert_eq!(KernelChoice::parse("split"), Some(KernelChoice::Split));
        assert_eq!(KernelChoice::parse("fpga"), None);
    }
}
