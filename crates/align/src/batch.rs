//! Batched ungapped-extension engine — inter-pair vectorization of the
//! paper's step-2 kernel.
//!
//! The PSC operator wins on the RASC-100 by keeping one `IL0` window
//! resident per processing element, streaming every `IL1` window past
//! it, and pushing only the pairs above a threshold into the result
//! FIFO: the PE is a *filter*. The software analogue of that data flow
//! is implemented here:
//!
//! * an **interleaved layout** ([`InterleavedWindows`]) holds the
//!   lane-axis windows transposed, so that position `p` of a block of
//!   consecutive windows is one contiguous load — the byte stream an
//!   input controller would broadcast across the PE array. Its one fill
//!   routine reads each window where the caller says it lies, sixteen
//!   at a time through a byte-transpose network in registers: the
//!   gather and the transposition are a single pass, with no copy in
//!   between;
//! * a **lane filter** ([`LaneFilter`]) is the threshold-scan primitive
//!   both step-2 callers run on: for one row-major window and a run of
//!   lane blocks it reports every lane whose score reaches the
//!   threshold. It *classifies* in saturating byte lanes — 64 window
//!   pairs per recurrence step on AVX-512 VBMI, 32 on AVX2, plain arrays
//!   elsewhere — and *rescores* only the flagged lanes, with
//!   [`ungapped_score`] itself. Substitution rows come from a
//!   per-matrix table built once; nothing is built per window;
//! * a **score profile** ([`ScoreProfile`]) turns one window into a
//!   per-position table of substitution scores, for the scalar
//!   [`profile_score`] kernel (small rectangles) and for
//!   [`score_batch`], which returns *every* score of a batch through
//!   16-bit lanes (tests and the benchmark's kernel measurement).
//!
//! Why byte lanes are exact as a classifier, at any window length and
//! any threshold: the running score is never negative and substitution
//! scores are `i8`, so a saturating add never clips downward; a lane
//! that never reaches 127 therefore holds its true score; and a lane
//! that does reach 127 has a true best of at least 127. Flagging the
//! lanes at `min(threshold, 127)` or above thus misses no pair that
//! scores `threshold`, and the rescoring — which compares the exact
//! `i32` score against the threshold itself — drops the few flagged
//! below a threshold past 127. (A threshold of zero or less flags every
//! lane: every pair is a hit.) The vector bodies run `ClampedSum` on
//! `127 - score` and flag its least value at `127 - threshold` or below:
//! the saturating subtract's ceiling is the clamp at 0, and its floor
//! caps the score at 255, past every flag threshold — the same flags.
//!
//! Every path reports scores **bit-identical** to [`ungapped_score`]
//! for both [`Kernel`] variants; the unit tests below and the property
//! tests in `tests/batch_prop.rs` pin that down.

// A hot module: no panic path outside test code (DESIGN §9).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::ops::Range;

use psc_score::SubstitutionMatrix;
use psc_seqio::alphabet::AA_ALPHABET_LEN;
use psc_seqio::isa::Isa;

use crate::ungapped::{ungapped_score, Kernel};

/// Window pairs per lane block of the `simd` path: one 256-bit register
/// of byte lanes (two of 16-bit lanes).
pub const LANES: usize = 32;

/// Window pairs per lane block of the `wide` path: one 512-bit register
/// of byte lanes (two of 16-bit lanes). The interleaved layout pads its
/// stride to this, so every narrower block divides it evenly.
pub const WIDE_LANES: usize = 64;

/// Bytes per substitution row ([`ScoreProfile`] position or
/// [`LaneFilter`] table row), indexed by `code & 0x1f` (slots 24–31
/// stay zero): one `vpermb` table broadcast to both halves of a 512-bit
/// register, or two 16-byte `pshufb` tables (codes 0–15 and 16–31).
const ROW_BYTES: usize = 32;

/// A concrete step-2 kernel implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelBackend {
    /// Per-pair scalar `ungapped_score` (the original baseline).
    Scalar,
    /// Score-profile scalar kernel: one table build per `IL0` window,
    /// then a single indexed load per residue pair.
    Profile,
    /// The AVX2 lane path: [`LaneFilter`] over [`LANES`]-wide blocks
    /// (a portable lane array below [`Isa::Avx2`]).
    Simd,
    /// The AVX-512 VBMI lane path: [`LaneFilter`] over
    /// [`WIDE_LANES`]-wide blocks (a portable lane array below
    /// [`Isa::Avx512Vbmi`]).
    Wide,
}

impl KernelBackend {
    /// Short stable name, for stats and profile output.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Profile => "profile",
            KernelBackend::Simd => "simd",
            KernelBackend::Wide => "wide",
        }
    }

    /// Window pairs per lane block — what [`LaneFilter`] steps by under
    /// this backend, and the denominator of the lane-occupancy
    /// accounting.
    pub fn lane_width(self) -> usize {
        match self {
            KernelBackend::Scalar | KernelBackend::Profile => 1,
            KernelBackend::Simd => LANES,
            KernelBackend::Wide => WIDE_LANES,
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
            _ => return None,
        })
    }

    /// Resolve to a concrete backend for windows of `window_len` scored
    /// under `matrix`.
    ///
    /// One resolution serves the filter and [`score_batch`], whose
    /// 16-bit lanes are exact only while `window_len * max_score` fits
    /// an `i16` — so the lane backends are selected (or honoured when
    /// requested) under that guard, although [`LaneFilter`] itself is
    /// exact at any length. `Auto` prefers the widest path
    /// [`Isa::host`] and the guard allow.
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
        match self {
            KernelChoice::Scalar => (KernelBackend::Scalar, None),
            KernelChoice::Profile => (KernelBackend::Profile, None),
            KernelChoice::Simd if fits_i16 => (KernelBackend::Simd, None),
            KernelChoice::Wide if fits_i16 => (KernelBackend::Wide, None),
            KernelChoice::Simd | KernelChoice::Wide => (
                KernelBackend::Profile,
                Some("window overflows the i16 lane accumulator"),
            ),
            KernelChoice::Auto => match (fits_i16, Isa::host()) {
                (true, Isa::Avx512Vbmi) => (KernelBackend::Wide, None),
                (true, Isa::Avx2 | Isa::Avx512) => (KernelBackend::Simd, None),
                _ => (KernelBackend::Profile, None),
            },
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

/// One matrix row in shuffle-table form: `scores[c]` for residue codes
/// `c < 24`, zero above.
type SubRow = [i8; ROW_BYTES];

fn sub_row(matrix: &SubstitutionMatrix, a: u8) -> SubRow {
    debug_assert!((a as usize) < AA_ALPHABET_LEN);
    let mut row = [0i8; ROW_BYTES];
    row[..AA_ALPHABET_LEN]
        .copy_from_slice(&matrix.flat()[a as usize * AA_ALPHABET_LEN..][..AA_ALPHABET_LEN]);
    row
}

/// Per-position substitution-score table for one `IL0` window.
///
/// Row `p` holds `matrix.score(window[p], c)` for every residue code
/// `c`, laid out as two 16-byte halves so the 16-bit lane bodies can use
/// them as byte-shuffle tables directly. Building a profile costs one
/// row copy per position and is amortized over every `IL1` window scored
/// against it. The scalar `profile` kernel and [`score_batch`] read
/// profiles; the [`LaneFilter`] does not.
#[derive(Clone, Debug, Default)]
pub struct ScoreProfile {
    rows: Vec<SubRow>,
}

impl ScoreProfile {
    pub fn new() -> ScoreProfile {
        ScoreProfile::default()
    }

    /// (Re)build the profile for `window`, reusing the allocation.
    pub fn build(&mut self, matrix: &SubstitutionMatrix, window: &[u8]) {
        self.rows.clear();
        self.rows.extend(window.iter().map(|&a| sub_row(matrix, a)));
    }

    /// Window length this profile was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Substitution score at window position `p` against residue `c`.
    #[cfg(test)]
    fn score(&self, p: usize, c: u8) -> i32 {
        self.rows[p][c as usize] as i32
    }
}

/// Profile-based scalar kernel: bit-identical to [`ungapped_score`] on
/// the window the profile was built from, one indexed byte load per
/// residue pair.
///
/// The row walk keeps the whole lookup inside one 32-byte profile row
/// (a masked index, so the compiler drops every bounds check) and
/// carries no dependence on the `IL0` residues — the two things that
/// make it faster than the `matrix.score(a, b)` baseline.
#[inline]
pub fn profile_score(kernel: Kernel, profile: &ScoreProfile, w1: &[u8]) -> i32 {
    debug_assert_eq!(profile.len(), w1.len());
    let mut score = 0i32;
    let mut max_score = 0i32;
    match kernel {
        Kernel::ClampedSum => {
            for (row, &b) in profile.rows.iter().zip(w1) {
                // The mask keeps the index inside the 32-byte row
                // (residue codes are < 24 by construction).
                let sub = row[(b & 0x1f) as usize] as i32;
                score = (score + sub).max(0);
                max_score = max_score.max(score);
            }
        }
        Kernel::PaperLiteral => {
            for (row, &b) in profile.rows.iter().zip(w1) {
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
    let rows = profile.rows.iter();
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
/// residue 0 and are never reported), so every lane body loads whole
/// blocks. This is the transpose an input controller performs when it
/// broadcasts the `IL1` byte stream across the PE array one residue per
/// cycle.
///
/// There is one way in, [`fill`](InterleavedWindows::fill): the caller
/// names a *source* for each window — the window's bytes where they
/// already lie — and a byte-transpose network reads [`GROUP`] sources at
/// a time into lane order. A gather out of the flat bank lands in kernel
/// layout without being copied on the way.
#[derive(Clone, Debug, Default)]
pub struct InterleavedWindows {
    /// The layout, `len * stride` bytes from the front. Kept at the
    /// largest size seen: a smaller shape leaves the tail untouched.
    data: Vec<u8>,
    /// [`GROUP`] rows a [`fill`](InterleavedWindows::fill) closure may
    /// write a window into when it cannot lend one in place, and one
    /// more that is never lent and stays zero: the pad lanes' source.
    edge: Vec<u8>,
    len: usize,
    count: usize,
    stride: usize,
}

/// Windows the network transposes together, and window positions the
/// narrowest pass of it covers: a 16 × 16 byte tile, sixteen bytes
/// loaded from each source and one 16-byte run of lanes stored per
/// position.
const GROUP: usize = 16;

/// The sources of one group of windows.
type Sources<'a> = [&'a [u8]; GROUP];

/// One pass of the byte-transpose network: `(pass.run)(rows, p0, cols,
/// out, stride)` writes residue `p0 + c` of `rows[r]` to `out[c * stride
/// + r]` for every `c < cols`, `cols <= pass.width`.
///
/// # Safety
/// The host must have the pass's instructions, every row must be
/// readable for `width` bytes from `p0`, and `out` must hold [`GROUP`]
/// bytes at `c * stride` for every `c < cols`.
#[derive(Clone, Copy)]
struct Pass {
    /// Positions one call covers: [`GROUP`] or a multiple of it.
    width: usize,
    run: unsafe fn(&Sources, usize, usize, &mut [u8], usize),
}

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

/// The portable pass — the definition the vector ones are tested
/// against, and the one every target without them runs: the tile as
/// four 8×8 register transposes.
#[cfg(any(test, not(target_arch = "x86_64")))]
const PORTABLE: Pass = Pass {
    width: GROUP,
    run: pass_portable,
};

/// See [`PORTABLE`].
#[cfg(any(test, not(target_arch = "x86_64")))]
fn pass_portable(rows: &Sources, p0: usize, cols: usize, out: &mut [u8], stride: usize) {
    for (half, rows) in rows.chunks_exact(8).enumerate() {
        for c0 in [0, 8] {
            let mut block = [0u64; 8];
            for (v, row) in block.iter_mut().zip(rows) {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&row[p0 + c0..][..8]);
                *v = u64::from_le_bytes(bytes);
            }
            for (c, v) in (c0..cols).zip(transpose_8x8(block)) {
                out[c * stride + 8 * half..][..8].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// The passes [`InterleavedWindows::fill`] runs at `level`, widest
/// first: on x86-64 the 512-bit pass from [`Isa::Avx512`], then SSE2
/// (the baseline); elsewhere the portable pass.
fn passes_at(level: Isa) -> &'static [Pass] {
    match level {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 | Isa::Avx512Vbmi => &[x86::AVX512, x86::SSE2],
        #[cfg(target_arch = "x86_64")]
        _ => &[x86::SSE2],
        #[cfg(not(target_arch = "x86_64"))]
        _ => &[PORTABLE],
    }
}

/// Write residue `p` of `rows[r]` to `data[p * stride + j0 + r]` for
/// every `p < len`: from `passes`, widest first, each pass for as long
/// as it reads no further than the window rounded up to [`GROUP`] (the
/// last must be [`GROUP`] wide); the columns a pass loads past `len` are
/// not stored.
fn transpose_group(
    passes: &[Pass],
    rows: &Sources,
    len: usize,
    data: &mut [u8],
    stride: usize,
    j0: usize,
) {
    // A vector pass loads whole registers from the sources and stores
    // 16-byte lane runs through raw pointers: these are its bounds
    // checks.
    let need = len.next_multiple_of(GROUP);
    assert!(
        rows.iter().all(|row| row.len() >= need),
        "a source is shorter than the network reads"
    );
    assert!(
        j0 + GROUP <= stride && len * stride <= data.len(),
        "lanes {j0}.. of {len} positions lie outside the layout"
    );
    let mut p0 = 0;
    for pass in passes {
        while p0 + pass.width <= need {
            let out = &mut data[p0 * stride + j0..len * stride];
            // SAFETY: the first assert and the loop's bound keep `width`
            // bytes from `p0` inside every source, the second the lane
            // run of every position inside `out`; `passes` are those of
            // a level at most `Isa::detected()`.
            unsafe { (pass.run)(rows, p0, pass.width.min(len - p0), out, stride) };
            p0 += pass.width;
        }
    }
    debug_assert_eq!(p0, need, "the narrowest pass is not {GROUP} wide");
}

impl InterleavedWindows {
    pub fn new() -> InterleavedWindows {
        InterleavedWindows::default()
    }

    /// (Re)fill with `count` windows of length `len`. `source(j, row)`
    /// is called once per window, in order, and either lends window `j`
    /// where it already lies — a slice of `row.len()` bytes, the window
    /// and then anything readable (the network loads whole registers;
    /// what lies past the window is not stored) — or writes the window
    /// to the front of `row` and returns `None`.
    ///
    /// Each byte of the layout is written exactly once per call,
    /// whatever shape the buffers held before, and nothing is allocated
    /// once they have grown to the largest shape seen. Zero-length
    /// windows hold nothing: `len == 0` leaves the layout empty.
    pub fn fill<'w>(
        &mut self,
        count: usize,
        len: usize,
        source: impl FnMut(usize, &mut [u8]) -> Option<&'w [u8]>,
    ) {
        self.fill_with(passes_at(Isa::host()), count, len, source);
    }

    /// [`fill`](InterleavedWindows::fill) through named passes, widest
    /// first.
    fn fill_with<'w>(
        &mut self,
        passes: &[Pass],
        count: usize,
        len: usize,
        mut source: impl FnMut(usize, &mut [u8]) -> Option<&'w [u8]>,
    ) {
        let count = if len == 0 { 0 } else { count };
        let stride = count.div_ceil(WIDE_LANES) * WIDE_LANES;
        (self.len, self.count, self.stride) = (len, count, stride);
        let need = len.next_multiple_of(GROUP);
        if self.data.len() < len * stride {
            self.data.resize(len * stride, 0);
        }
        if self.edge.len() < (GROUP + 1) * need {
            // Cut afresh into longer rows, all zero.
            self.edge.clear();
            self.edge.resize((GROUP + 1) * need, 0);
        }
        let pitch = self.edge.len() / (GROUP + 1);
        let (edge, zeros) = self.edge.split_at_mut(GROUP * pitch);

        for j0 in (0..count).step_by(GROUP) {
            // Pad lanes are scored like any other, so the ones of a
            // short last group read residue 0.
            let mut rows: Sources = [zeros; GROUP];
            let real = rows.iter_mut().zip(edge.chunks_exact_mut(pitch));
            for (j, (slot, row)) in (j0..count).zip(real) {
                let row = &mut row[..need];
                *slot = source(j, row).unwrap_or(row);
            }
            transpose_group(passes, &rows, len, &mut self.data, stride, j0);
        }
        // The pad lanes past the last group, a run of [`GROUP`] at a time.
        let grouped = count.next_multiple_of(GROUP);
        for p in 0..len {
            let pad = &mut self.data[p * stride..(p + 1) * stride][grouped..];
            for run in pad.chunks_exact_mut(GROUP) {
                run.copy_from_slice(&[0; GROUP]);
            }
        }
    }

    /// [`fill`](InterleavedWindows::fill) from row-major windows of
    /// length `len` packed back to back in `windows` (the
    /// `gather_windows` layout): every row is read where it lies but the
    /// last few, which end too close to the end of the slice.
    pub fn build(&mut self, windows: &[u8], len: usize) {
        let count = windows.len().checked_div(len).unwrap_or(0);
        debug_assert_eq!(count * len, windows.len());
        self.fill(count, len, |j, row| {
            let at = j * len;
            let run = windows.get(at..at + row.len());
            if run.is_none() {
                row[..len].copy_from_slice(&windows[at..at + len]);
            }
            run
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

    /// Copy window `j` back out of the lane layout, row-major, into
    /// `out` (`out.len()` must be the window length).
    pub fn window_into(&self, j: usize, out: &mut [u8]) {
        assert!(j < self.stride && out.len() == self.len);
        for (o, run) in out.iter_mut().zip(self.data.chunks_exact(self.stride)) {
            *o = run[j];
        }
    }
}

/// The level of the body `backend`'s lane path runs at `level`; at
/// [`Isa::Portable`], plain lane arrays of either width.
fn lane_body(backend: KernelBackend, level: Isa) -> Isa {
    match backend {
        KernelBackend::Wide if level >= Isa::Avx512Vbmi => Isa::Avx512Vbmi,
        KernelBackend::Simd if level >= Isa::Avx2 => Isa::Avx2,
        _ => Isa::Portable,
    }
}

/// Most lane blocks one body call scores: they share each substitution
/// row load, and their add→max dependency chains overlap.
pub const MAX_BLOCKS: usize = 4;

/// A matrix's 24 substitution rows in shuffle-table form — the lane
/// path's ROM, indexed by the profile-side residue at score time.
#[derive(Clone, Debug)]
#[repr(align(64))]
struct LaneTable([SubRow; AA_ALPHABET_LEN]);

/// The threshold-scan primitive of step 2: which lanes of an
/// [`InterleavedWindows`] score at least `threshold` against one
/// row-major window, and what exactly they score.
///
/// Built once per run and matrix (768 bytes of table plus the matrix
/// itself); [`scan`](LaneFilter::scan) allocates nothing.
#[derive(Clone, Debug)]
pub struct LaneFilter {
    matrix: SubstitutionMatrix,
    table: LaneTable,
    kernel: Kernel,
    threshold: i32,
    /// Lanes per block ([`KernelBackend::lane_width`]).
    width: usize,
    body: Isa,
}

impl LaneFilter {
    /// The filter `backend` runs for `kernel`, `matrix` and `threshold`
    /// on this host, or `None` for the scalar-width backends, which
    /// have no lane path. Any threshold and any window length are
    /// exact.
    pub fn new(
        backend: KernelBackend,
        kernel: Kernel,
        matrix: &SubstitutionMatrix,
        threshold: i32,
    ) -> Option<LaneFilter> {
        let width = backend.lane_width();
        (width > 1).then(|| LaneFilter {
            matrix: matrix.clone(),
            table: LaneTable(std::array::from_fn(|a| sub_row(matrix, a as u8))),
            kernel,
            threshold,
            width,
            body: lane_body(backend, Isa::host()),
        })
    }

    /// Lanes per block: `range.start` of a [`scan`](LaneFilter::scan)
    /// must be a multiple of this.
    pub fn block_width(&self) -> usize {
        self.width
    }

    /// Call `hit(j, score)` for every lane `j` of `range` whose window
    /// scores at least the threshold against `window`, in ascending
    /// lane order, with the exact score. Pad lanes are never reported.
    ///
    /// `range.start` must be a multiple of
    /// [`block_width`](LaneFilter::block_width) and `range.end` at most
    /// `lanes.count()`. `lane_window` is scratch for the flagged lanes'
    /// windows; it only grows to the window length.
    pub fn scan(
        &self,
        window: &[u8],
        lanes: &InterleavedWindows,
        range: Range<usize>,
        lane_window: &mut Vec<u8>,
        mut hit: impl FnMut(usize, i32),
    ) {
        // The bodies read `window.len()` positions of whole blocks
        // through raw pointers: these are their bounds checks.
        assert_eq!(window.len(), lanes.len(), "window length mismatch");
        assert!(
            range.start.is_multiple_of(self.width) && range.end <= lanes.count(),
            "lane range {range:?} off the block grid or past the last window"
        );
        lane_window.resize(window.len(), 0);
        let mut j0 = range.start;
        while j0 < range.end {
            let mut masks = [0u64; MAX_BLOCKS];
            let blocks = self.classify(window, lanes, j0, range.end, &mut masks);
            for (b, mut mask) in masks.into_iter().take(blocks).enumerate() {
                let block = j0 + b * self.width;
                // Pad lanes, and real ones past the range, are not ours
                // to report.
                let live = range.end - block;
                if live < u64::BITS as usize {
                    mask &= (1 << live) - 1;
                }
                while mask != 0 {
                    let j = block + mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    lanes.window_into(j, lane_window);
                    let score = ungapped_score(self.kernel, &self.matrix, window, lane_window);
                    // A flag says "at least `min(threshold, 127)`".
                    if score >= self.threshold {
                        hit(j, score);
                    }
                }
            }
            j0 += blocks * self.width;
        }
    }

    /// Classify the next blocks from lane `j0` (at most [`MAX_BLOCKS`],
    /// never past the block holding lane `end - 1`): bit `t` of
    /// `masks[b]` is set when byte lane `j0 + b * width + t` reaches the
    /// threshold or saturates. Returns the number of blocks classified.
    fn classify(
        &self,
        window: &[u8],
        lanes: &InterleavedWindows,
        j0: usize,
        end: usize,
        masks: &mut [u64; MAX_BLOCKS],
    ) -> usize {
        let left = (end - j0).div_ceil(self.width);
        debug_assert!(j0 + left * self.width <= lanes.stride);
        // A byte lane answers for thresholds up to its ceiling; `scan`
        // re-checks a higher one on the rescored lanes. Lanes never go
        // negative, so a threshold of zero or less flags them all.
        let threshold = self.threshold.clamp(0, i8::MAX as i32) as i8;
        match self.body {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `lane_body` named the host level, at most the CPU's;
            // `scan` checked that the window is as long as the layout's
            // and that `left` blocks from `j0` lie inside its stride.
            Isa::Avx512Vbmi => unsafe {
                x86::classify_avx512(self, window, lanes, j0, left, threshold, masks)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, at `Avx2`.
            Isa::Avx2 => unsafe {
                x86::classify_avx2(self, window, lanes, j0, left, threshold, masks)
            },
            _ => {
                let mut best = [0i8; WIDE_LANES];
                let best = &mut best[..self.width];
                let rows = window.iter().map(|&a| &self.table.0[a as usize]);
                lanes_portable(self.kernel, rows, lanes, j0, best);
                masks[0] = (best.iter().enumerate())
                    .fold(0, |mask, (l, &v)| mask | (u64::from(v >= threshold) << l));
                1
            }
        }
    }
}

/// A lane accumulator of the portable body. Byte lanes saturate — the
/// filter's exactness rests on it; the 16-bit lanes of [`score_batch`]
/// wrap like their vector bodies, exact while `len * max_score` fits an
/// `i16` ([`KernelChoice::resolve`]).
trait Lane: Copy + Ord + Default {
    fn plus(self, sub: i8) -> Self;
}

impl Lane for i8 {
    fn plus(self, sub: i8) -> i8 {
        self.saturating_add(sub)
    }
}

impl Lane for i16 {
    fn plus(self, sub: i8) -> i16 {
        self.wrapping_add(sub as i16)
    }
}

/// Portable lane body: best scores of lanes `j0 .. j0 + best.len()` (at
/// most [`WIDE_LANES`]) against the window whose substitution rows are
/// `rows`, one per position, as plain array arithmetic for the compiler
/// to autovectorize.
fn lanes_portable<'r, T: Lane>(
    kernel: Kernel,
    rows: impl Iterator<Item = &'r SubRow>,
    lanes: &InterleavedWindows,
    j0: usize,
    best: &mut [T],
) {
    let zero = T::default();
    let mut score = [zero; WIDE_LANES];
    let score = &mut score[..best.len()];
    best.fill(zero);
    for (p, row) in rows.enumerate() {
        let codes = &lanes.data[p * lanes.stride + j0..][..best.len()];
        match kernel {
            Kernel::ClampedSum => {
                for ((s, b), &c) in score.iter_mut().zip(best.iter_mut()).zip(codes) {
                    *s = s.plus(row[(c & 0x1f) as usize]).max(zero);
                    *b = (*b).max(*s);
                }
            }
            Kernel::PaperLiteral => {
                // `score = max(score, score + sub)` only ever adds the
                // positive part, so the running score is the maximum.
                for (s, &c) in score.iter_mut().zip(codes) {
                    *s = s.plus(row[(c & 0x1f) as usize].max(0));
                }
            }
        }
    }
    if kernel == Kernel::PaperLiteral {
        best.copy_from_slice(score);
    }
}

/// 16-bit lanes one [`score_batch`] step scores under `simd` (a 256-bit
/// register) and `wide` (a 512-bit one).
const SIMD_WORDS: usize = LANES / 2;
const WIDE_WORDS: usize = WIDE_LANES / 2;

/// Best scores of lanes `j0 .. j0 + best.len()` of `il1` against
/// `profile` in 16-bit lanes: `best.len()` is [`SIMD_WORDS`] (AVX2 from
/// [`Isa::Avx2`]) or [`WIDE_WORDS`] (AVX-512BW from [`Isa::Avx512`]).
fn score_words(
    kernel: Kernel,
    profile: &ScoreProfile,
    il1: &InterleavedWindows,
    j0: usize,
    best: &mut [i16],
) {
    assert_eq!(profile.len(), il1.len());
    assert!(j0 + best.len() <= il1.stride);
    #[cfg(target_arch = "x86_64")]
    {
        let (codes, level) = (il1.data[j0..].as_ptr(), Isa::host());
        if best.len() == WIDE_WORDS && level >= Isa::Avx512 {
            // SAFETY: the host level, at most the CPU's, is `Avx512`; the
            // asserts above keep every 32-byte load of `profile.len()`
            // positions at `j0` inside the layout.
            unsafe { x86::words_avx512(kernel, profile, codes, il1.stride, best) };
            return;
        }
        if best.len() == SIMD_WORDS && level >= Isa::Avx2 {
            // SAFETY: as above, at `Avx2` and with 16-byte loads.
            unsafe { x86::words_avx2(kernel, profile, codes, il1.stride, best) };
            return;
        }
    }
    lanes_portable(kernel, profile.rows.iter(), il1, j0, best);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// `body` sixteen times over, with `$i` bound to 0, 1, … 15 — a loop
    /// over the sixteen rows that cannot stay rolled, so every index is a
    /// constant and the register arrays the body names are never arrays
    /// in memory.
    macro_rules! unrolled {
        (|$i:ident| $body:expr) => {
            unrolled!(@ $i $body; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
        };
        (@ $i:ident $body:expr; $($n:literal)*) => {
            $({
                let $i: usize = $n;
                $body;
            })*
        };
    }

    /// Four times over, interleave the bytes of registers `i` and `i + 8`
    /// of `x` into registers `2i` (`punpcklbw`) and `2i + 1`
    /// (`punpckhbw`) — a perfect shuffle of the register file, which
    /// rotates the 8-bit (row, column) index of every byte of each
    /// 128-bit lane by one place, so four of them swap its halves.
    macro_rules! perfect_shuffles {
        ($x:ident, $lo:ident, $hi:ident) => {
            for _ in 0..4 {
                let mut y = $x;
                unrolled!(|i| {
                    let (a, b) = ($x[i / 2], $x[i / 2 + GROUP / 2]);
                    y[i] = if i & 1 == 0 { $lo(a, b) } else { $hi(a, b) };
                });
                $x = y;
            }
        };
    }

    /// The pass on the sixteen SSE2 registers: load one from each row,
    /// shuffle the register file four times over, and register `c` holds
    /// column `c`, rows 0–15 in byte order — one run of lanes, stored
    /// whole.
    pub(super) const SSE2: Pass = Pass {
        width: GROUP,
        run: pass_sse2,
    };

    /// See [`SSE2`].
    ///
    /// # Safety
    /// See [`Pass`].
    unsafe fn pass_sse2(rows: &Sources, p0: usize, cols: usize, out: &mut [u8], stride: usize) {
        let mut x = [_mm_setzero_si128(); GROUP];
        unrolled!(|r| x[r] = _mm_loadu_si128(rows[r].as_ptr().add(p0) as *const __m128i));
        perfect_shuffles!(x, _mm_unpacklo_epi8, _mm_unpackhi_epi8);
        let out = out.as_mut_ptr();
        unrolled!(|c| if c < cols {
            _mm_storeu_si128(out.add(c * stride) as *mut __m128i, x[c]);
        });
    }

    /// [`SSE2`] on sixteen of the 32 AVX-512 registers (their shuffled
    /// copy is the other sixteen): a 64-byte load from each row, the same
    /// shuffles, which work within 128-bit lanes, and lane `k` of
    /// register `c` holds column `16k + c` — four groups of positions a
    /// pass. Each column's run of lanes is stored by a 128-bit extract,
    /// lane by lane, so the stores walk the layout in position order.
    pub(super) const AVX512: Pass = Pass {
        width: 4 * GROUP,
        run: pass_avx512,
    };

    /// See [`AVX512`].
    ///
    /// # Safety
    /// The CPU must be at [`Isa::Avx512`] or above; see [`Pass`].
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn pass_avx512(rows: &Sources, p0: usize, cols: usize, out: &mut [u8], stride: usize) {
        let mut x = [_mm512_setzero_si512(); GROUP];
        unrolled!(|r| x[r] = _mm512_loadu_si512(rows[r].as_ptr().add(p0) as *const _));
        perfect_shuffles!(x, _mm512_unpacklo_epi8, _mm512_unpackhi_epi8);
        let out = out.as_mut_ptr();
        let store = |col: usize, run: __m128i| {
            if col < cols {
                _mm_storeu_si128(out.add(col * stride) as *mut __m128i, run);
            }
        };
        unrolled!(|c| store(c, _mm512_castsi512_si128(x[c])));
        unrolled!(|c| store(GROUP + c, _mm512_extracti32x4_epi32::<1>(x[c])));
        unrolled!(|c| store(2 * GROUP + c, _mm512_extracti32x4_epi32::<2>(x[c])));
        unrolled!(|c| store(3 * GROUP + c, _mm512_extracti32x4_epi32::<3>(x[c])));
    }

    /// Half of a [`SubRow`]: one 16-byte shuffle table.
    const HALF: usize = ROW_BYTES / 2;

    /// AVX-512 VBMI byte-lane body: `N` blocks of 64 window pairs; one
    /// recurrence step per block is a 64-byte load of residue codes, one
    /// `vpermb` of the table row (its 32 bytes broadcast to both halves,
    /// so the index is `code & 0x1f`, as in the portable body) and the
    /// PE's gates. `ClampedSum` keeps `t = 127 - score` and its least
    /// value: a `vpsubsb` and a `vpminsb`, two port-0 µops where the
    /// direct form's add, clamp and max take three (DESIGN.md §4.2b).
    ///
    /// # Safety
    /// The CPU must be at [`Isa::Avx512Vbmi`], and `codes + p * stride` must
    /// be readable for `64 * N` bytes at every `p < window.len()`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    #[inline]
    unsafe fn bytes_avx512<const N: usize>(
        f: &LaneFilter,
        window: &[u8],
        codes: *const u8,
        stride: usize,
        threshold: i8,
        masks: &mut [u64],
    ) {
        let (zero, top) = (_mm512_setzero_si512(), _mm512_set1_epi8(i8::MAX));
        let (mut t, mut least, mut score) = ([top; N], [top; N], [zero; N]);
        for (p, &a) in window.iter().enumerate() {
            let row = f.table.0[a as usize].as_ptr() as *const __m256i;
            let row = _mm512_broadcast_i64x4(_mm256_loadu_si256(row));
            let at = codes.add(p * stride);
            for b in 0..N {
                let c = _mm512_loadu_si512(at.add(b * WIDE_LANES) as *const _);
                let sub = _mm512_permutexvar_epi8(c, row);
                match f.kernel {
                    Kernel::ClampedSum => {
                        t[b] = _mm512_subs_epi8(t[b], sub);
                        least[b] = _mm512_min_epi8(least[b], t[b]);
                    }
                    Kernel::PaperLiteral => {
                        score[b] = _mm512_adds_epi8(score[b], _mm512_max_epi8(sub, zero));
                    }
                }
            }
        }
        let at_most = _mm512_set1_epi8(i8::MAX - threshold);
        let at_least = _mm512_set1_epi8(threshold);
        for b in 0..N {
            masks[b] = match f.kernel {
                Kernel::ClampedSum => _mm512_cmple_epi8_mask(least[b], at_most),
                Kernel::PaperLiteral => _mm512_cmpge_epi8_mask(score[b], at_least),
            };
        }
    }

    /// [`bytes_avx512`] over the next 1, 2 or 4 of `left` blocks.
    ///
    /// # Safety
    /// The CPU must be at [`Isa::Avx512Vbmi`], `window.len() == lanes.len()`
    /// and `j0 + left * 64 <= lanes.stride`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub(super) unsafe fn classify_avx512(
        f: &LaneFilter,
        window: &[u8],
        lanes: &InterleavedWindows,
        j0: usize,
        left: usize,
        threshold: i8,
        masks: &mut [u64; MAX_BLOCKS],
    ) -> usize {
        let (codes, stride) = (lanes.data.as_ptr().add(j0), lanes.stride);
        match left {
            1 => {
                bytes_avx512::<1>(f, window, codes, stride, threshold, masks);
                1
            }
            2 | 3 => {
                bytes_avx512::<2>(f, window, codes, stride, threshold, masks);
                2
            }
            _ => {
                bytes_avx512::<4>(f, window, codes, stride, threshold, masks);
                4
            }
        }
    }

    /// AVX2 byte-lane body: `N` blocks of 32 window pairs, the
    /// recurrence of the 512-bit body with the two-table byte shuffle
    /// and a compare-and-blend in place of `vpermb` and the mask
    /// registers.
    ///
    /// # Safety
    /// The CPU must be at [`Isa::Avx2`] or above, and `codes + p * stride` must be
    /// readable for `32 * N` bytes at every `p < window.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn bytes_avx2<const N: usize>(
        f: &LaneFilter,
        window: &[u8],
        codes: *const u8,
        stride: usize,
        threshold: i8,
        masks: &mut [u64],
    ) {
        let (zero, top) = (_mm256_setzero_si256(), _mm256_set1_epi8(i8::MAX));
        let fifteen = _mm256_set1_epi8(15);
        let (mut t, mut least, mut score) = ([top; N], [top; N], [zero; N]);
        for (p, &a) in window.iter().enumerate() {
            let row = f.table.0[a as usize].as_ptr();
            let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(row as *const __m128i));
            let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(row.add(HALF) as *const __m128i));
            let at = codes.add(p * stride);
            for b in 0..N {
                let c = _mm256_loadu_si256(at.add(b * LANES) as *const __m256i);
                let sub = _mm256_blendv_epi8(
                    _mm256_shuffle_epi8(lo, c),
                    _mm256_shuffle_epi8(hi, c),
                    _mm256_cmpgt_epi8(c, fifteen),
                );
                match f.kernel {
                    Kernel::ClampedSum => {
                        t[b] = _mm256_subs_epi8(t[b], sub);
                        least[b] = _mm256_min_epi8(least[b], t[b]);
                    }
                    Kernel::PaperLiteral => {
                        score[b] = _mm256_adds_epi8(score[b], _mm256_max_epi8(sub, zero));
                    }
                }
            }
        }
        // AVX2 compares bytes by `>` only: `least <= 127 - threshold` is
        // the complement of `least > 127 - threshold`, and as
        // `threshold >= 0`, `score >= threshold` is `score > threshold - 1`.
        let at_most = _mm256_set1_epi8(i8::MAX - threshold);
        let below = _mm256_set1_epi8(threshold - 1);
        for b in 0..N {
            masks[b] = match f.kernel {
                Kernel::ClampedSum => !_mm256_movemask_epi8(_mm256_cmpgt_epi8(least[b], at_most)),
                Kernel::PaperLiteral => _mm256_movemask_epi8(_mm256_cmpgt_epi8(score[b], below)),
            } as u32 as u64;
        }
    }

    /// [`bytes_avx2`] over the next 1, 2 or 4 of `left` blocks.
    ///
    /// # Safety
    /// The CPU must be at [`Isa::Avx2`] or above, `window.len() == lanes.len()` and
    /// `j0 + left * 32 <= lanes.stride`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn classify_avx2(
        f: &LaneFilter,
        window: &[u8],
        lanes: &InterleavedWindows,
        j0: usize,
        left: usize,
        threshold: i8,
        masks: &mut [u64; MAX_BLOCKS],
    ) -> usize {
        let (codes, stride) = (lanes.data.as_ptr().add(j0), lanes.stride);
        match left {
            1 => {
                bytes_avx2::<1>(f, window, codes, stride, threshold, masks);
                1
            }
            2 | 3 => {
                bytes_avx2::<2>(f, window, codes, stride, threshold, masks);
                2
            }
            _ => {
                bytes_avx2::<4>(f, window, codes, stride, threshold, masks);
                4
            }
        }
    }

    /// AVX-512BW 16-bit body of [`score_batch`]: 32 window pairs. The
    /// two-table byte shuffle runs per 128-bit half of a 256-bit
    /// register (the tables broadcast to both halves), all 32 `i8`
    /// substitution scores sign-extend into one `__m512i` of `i16`
    /// lanes, then the add/max gates.
    ///
    /// # Safety
    /// The CPU must be at [`Isa::Avx512`] or above, `codes + p * stride` must be
    /// readable for 32 bytes at every `p < profile.len()`, and `best`
    /// must hold 32 lanes.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn words_avx512(
        kernel: Kernel,
        profile: &ScoreProfile,
        codes: *const u8,
        stride: usize,
        best: &mut [i16],
    ) {
        debug_assert_eq!(best.len(), WIDE_WORDS);
        let zero = _mm512_setzero_si512();
        let fifteen = _mm256_set1_epi8(15);
        let mut score = zero;
        let mut max_score = zero;
        for (p, row) in profile.rows.iter().enumerate() {
            let row = row.as_ptr();
            let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(row as *const __m128i));
            let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(row.add(HALF) as *const __m128i));
            let c = _mm256_loadu_si256(codes.add(p * stride) as *const __m256i);
            let sub = _mm512_cvtepi8_epi16(_mm256_blendv_epi8(
                _mm256_shuffle_epi8(lo, c),
                _mm256_shuffle_epi8(hi, c),
                _mm256_cmpgt_epi8(c, fifteen),
            ));
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
        _mm512_storeu_si512(best.as_mut_ptr() as *mut _, final_v);
    }

    /// AVX2 16-bit body of [`score_batch`]: 16 window pairs — a 16-byte
    /// load of residue codes, the two-table byte shuffle, a sign-extend
    /// to `i16`, then the add/max gates.
    ///
    /// # Safety
    /// The CPU must be at [`Isa::Avx2`] or above, `codes + p * stride` must be readable
    /// for 16 bytes at every `p < profile.len()`, and `best` must hold
    /// 16 lanes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn words_avx2(
        kernel: Kernel,
        profile: &ScoreProfile,
        codes: *const u8,
        stride: usize,
        best: &mut [i16],
    ) {
        debug_assert_eq!(best.len(), SIMD_WORDS);
        let zero = _mm256_setzero_si256();
        let fifteen = _mm_set1_epi8(15);
        let mut score = zero;
        let mut max_score = zero;
        for (p, row) in profile.rows.iter().enumerate() {
            let row = row.as_ptr();
            let lo = _mm_loadu_si128(row as *const __m128i);
            let hi = _mm_loadu_si128(row.add(HALF) as *const __m128i);
            let c = _mm_loadu_si128(codes.add(p * stride) as *const __m128i);
            let sub = _mm256_cvtepi8_epi16(_mm_blendv_epi8(
                _mm_shuffle_epi8(lo, c),
                _mm_shuffle_epi8(hi, c),
                _mm_cmpgt_epi8(c, fifteen),
            ));
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
        _mm256_storeu_si256(best.as_mut_ptr() as *mut __m256i, final_v);
    }
}

/// Score every window of `il1` against `profile` under `backend`,
/// appending one max score per window to `out` in window order.
///
/// This returns *all* scores, through the 16-bit lane bodies under the
/// lane backends (tests, and the benchmark's kernel measurement); step 2
/// itself only wants the scores at or above a threshold and runs
/// [`LaneFilter::scan`].
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
                out.push(ungapped_score(kernel, matrix, w0, w1));
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
        KernelBackend::Simd | KernelBackend::Wide => {
            let mut best = [0i16; WIDE_WORDS];
            let best = &mut best[..backend.lane_width() / 2];
            for j in (0..il1.count()).step_by(best.len()) {
                score_words(kernel, profile, il1, j, best);
                let take = best.len().min(il1.count() - j);
                out.extend(best[..take].iter().map(|&s| s as i32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_score::blosum62;
    use psc_score::matrix::match_mismatch;
    use psc_seqio::isa;
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
            (3, 17, 60), // one 16-lane vector + 1 tail window
            (4, 5, 7),   // sub-vector batch, odd length
            (5, 48, 33), // several vectors, non-lane-multiple length
            (6, 3, 0),   // empty windows
            (7, 0, 12),  // empty IL1
            (8, 33, 21), // one 32-lane vector + 1 tail window
            (9, 95, 14), // several 32-lane vectors, ragged tail
        ] {
            let w0 = windows(seed, 1, len);
            let il1 = windows(seed ^ 0xff, count, len);
            check_all_backends(&w0, &il1, len);
        }
    }

    const KERNELS: [Kernel; 2] = [Kernel::ClampedSum, Kernel::PaperLiteral];

    /// Every dispatch body of both lane backends at each level this
    /// CPU has ([`lane_body`]), once each.
    fn bodies(kernel: Kernel, m: &SubstitutionMatrix, threshold: i32) -> Vec<(String, LaneFilter)> {
        let mut out: Vec<(String, LaneFilter)> = Vec::new();
        for level in isa::levels("a lane body") {
            for backend in [KernelBackend::Wide, KernelBackend::Simd] {
                let mut f = LaneFilter::new(backend, kernel, m, threshold).expect("a lane backend");
                f.body = lane_body(backend, level);
                let name = format!("{} at {:?}", backend.name(), f.body);
                if out.iter().all(|(seen, _)| *seen != name) {
                    out.push((name, f));
                }
            }
        }
        out
    }

    /// The scalar kernel's score of every window of `rows` against `w0`.
    fn all_scores(kernel: Kernel, m: &SubstitutionMatrix, w0: &[u8], rows: &[u8]) -> Vec<i32> {
        rows.chunks_exact(w0.len())
            .map(|w1| ungapped_score(kernel, m, w0, w1))
            .collect()
    }

    /// What a scan must report: `(lane, score)` of every score at least
    /// `threshold`, in lane order.
    fn at_least(scores: &[i32], threshold: i32) -> Vec<(usize, i32)> {
        let lanes = scores.iter().copied().enumerate();
        lanes.filter(|&(_, s)| s >= threshold).collect()
    }

    fn scalar_filter(
        kernel: Kernel,
        m: &SubstitutionMatrix,
        w0: &[u8],
        rows: &[u8],
        threshold: i32,
    ) -> Vec<(usize, i32)> {
        at_least(&all_scores(kernel, m, w0, rows), threshold)
    }

    fn scan(
        f: &LaneFilter,
        w0: &[u8],
        il: &InterleavedWindows,
        range: Range<usize>,
        lane_window: &mut Vec<u8>,
    ) -> Vec<(usize, i32)> {
        let mut got = Vec::new();
        f.scan(w0, il, range, lane_window, |j, s| got.push((j, s)));
        got
    }

    /// [`scan`] of the lanes of `scores` (the scalar kernel's), after
    /// checking that `f` flags exactly the lanes whose score reaches its
    /// threshold clamped to the byte range: a flag too many is dropped
    /// by the rescoring, so only the masks show it.
    fn scan_flags_checked(
        tag: &str,
        f: &LaneFilter,
        (w0, il): (&[u8], &InterleavedWindows),
        scores: &[i32],
        lane_window: &mut Vec<u8>,
    ) -> Vec<(usize, i32)> {
        let (count, mut j0, mut flags) = (scores.len(), 0, Vec::new());
        while j0 < count {
            let mut masks = [0u64; MAX_BLOCKS];
            let blocks = f.classify(w0, il, j0, count, &mut masks);
            for (b, mask) in masks.into_iter().take(blocks).enumerate() {
                let lanes = (0..f.width).filter(|t| mask >> t & 1 == 1);
                flags.extend(lanes.map(|t| j0 + b * f.width + t).filter(|&j| j < count));
            }
            j0 += blocks * f.width;
        }
        let flag_at = f.threshold.clamp(0, i8::MAX as i32);
        let want: Vec<usize> = at_least(scores, flag_at).iter().map(|h| h.0).collect();
        assert_eq!(flags, want, "{tag}: flags at {flag_at}");
        scan(f, w0, il, 0..count, lane_window)
    }

    #[test]
    fn lane_filter_equals_the_scalar_filter_on_every_body() {
        const COUNTS: [usize; 12] = [0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000];
        const LENS: [usize; 5] = [1, 7, 60, 64, 300];
        const THRESHOLDS: [i32; 7] = [-5, 0, 1, 45, 127, 128, 10_000];
        // One layout and one scratch window walk the whole grid down and
        // back up, so every shape is scanned over the leftovers of both
        // a larger and a smaller one: a stale pad lane would be reported.
        // (The one shape left out, 1000 x 300, is a third of the grid's
        // work and crosses no boundary its neighbours do not.)
        let mut shapes: Vec<(usize, usize)> = COUNTS
            .iter()
            .flat_map(|&c| LENS.iter().map(move |&l| (c, l)))
            .filter(|&shape| shape != (1000, 300))
            .collect();
        shapes.extend(shapes.clone().into_iter().rev());
        let hot = match_mismatch("PM127", 127, -127);
        let mut il = InterleavedWindows::new();
        let mut lane_window = Vec::new();
        let mut selective = 0usize;
        for (n, (count, len)) in shapes.into_iter().enumerate() {
            let mut rng = SplitMix64::new(n as u64 + 1);
            // Three profile-side windows: random; all residue 0, which
            // scores its best against the residue-0 pad lanes; and one
            // that a third of the lanes nearly copy.
            let planted = windows(n as u64 ^ 0x5eed, 1, len);
            let w0s = [windows(n as u64 ^ 0xabc, 1, len), vec![0u8; len], planted];
            let mut rows = windows(n as u64 ^ 0xff, count, len);
            for row in rows.chunks_exact_mut(len).step_by(3) {
                row.copy_from_slice(&w0s[2]);
                for _ in 0..len / 8 {
                    row[rng.range(0..len)] = rng.range(0..AA_ALPHABET_LEN as u8);
                }
            }
            il.build(&rows, len);
            for m in [blosum62(), &hot] {
                for kernel in KERNELS {
                    let scores: Vec<Vec<i32>> = w0s
                        .iter()
                        .map(|w0| all_scores(kernel, m, w0, &rows))
                        .collect();
                    for threshold in THRESHOLDS {
                        for (name, f) in bodies(kernel, m, threshold) {
                            for (w0, scores) in w0s.iter().zip(&scores) {
                                let want = at_least(scores, threshold);
                                let tag = format!(
                                    "{name} {kernel:?} {} count={count} len={len} t={threshold}",
                                    m.name
                                );
                                let got = scan(&f, w0, &il, 0..count, &mut lane_window);
                                assert_eq!(got, want, "{tag}");
                                selective += usize::from(!got.is_empty() && got.len() < count);
                                // The same lanes as two ranges: a whole
                                // first block, then the rest short of
                                // the last three windows.
                                let (w, end) = (f.block_width(), count.saturating_sub(3));
                                if w < end && threshold >= 45 {
                                    let mut split = scan(&f, w0, &il, 0..w, &mut lane_window);
                                    split.extend(scan(&f, w0, &il, w..end, &mut lane_window));
                                    let want = at_least(&scores[..end], threshold);
                                    assert_eq!(split, want, "{tag} (two ranges)");
                                }
                            }
                        }
                    }
                }
            }
        }
        // Plenty of scans were neither a flood nor a desert.
        assert!(selective > 1000, "only {selective} selective scans");
    }

    #[test]
    fn byte_lanes_stay_exact_through_saturation() {
        let code = |c: u8| psc_seqio::alphabet::encode_protein(&[c])[0];
        let (w, p) = (code(b'W'), code(b'P'));
        let len = 60;
        let mut il = InterleavedWindows::new();
        let mut lane_window = Vec::new();

        // BLOSUM62, W/W = 11 and W/P = -4, a window of Ws. Lane 0 climbs
        // to 143 in 13 steps and then falls to 0: its byte score sticks
        // at 127 where a wrapping add would leave a best of 121. Lane 1
        // stops at 121, lane 2 never leaves 0.
        let w0 = vec![w; len];
        let lane = |ws: usize| -> Vec<u8> {
            let mut v = vec![p; len];
            v[..ws].fill(w);
            v
        };
        let rows = [lane(13), lane(11), lane(0)].concat();
        let m = blosum62();
        il.build(&rows, len);
        let scores = all_scores(Kernel::ClampedSum, m, &w0, &rows);
        for threshold in [1, 45, 121, 122, 127, 128, 143, 144] {
            let want: Vec<(usize, i32)> = [(0, 143), (1, 121)]
                .into_iter()
                .filter(|&(_, s)| s >= threshold)
                .collect();
            assert_eq!(
                scalar_filter(Kernel::ClampedSum, m, &w0, &rows, threshold),
                want
            );
            for (name, f) in bodies(Kernel::ClampedSum, m, threshold) {
                let tag = format!("{name} t={threshold}");
                let got = scan_flags_checked(&tag, &f, (&w0, &il), &scores, &mut lane_window);
                assert_eq!(got, want, "{tag}");
            }
        }

        // +1/-1, 300 long: lane k matches its first 126 + k residues and
        // nothing after, so the lanes peak at exactly 126, 127 and 128.
        let pm1 = match_mismatch("PM1", 1, -1);
        let len = 300;
        let w0 = vec![w; len];
        let rows: Vec<u8> = (126..=128)
            .flat_map(|k| {
                let mut v = vec![p; len];
                v[..k].fill(w);
                v
            })
            .collect();
        il.build(&rows, len);
        for kernel in KERNELS {
            let scores = all_scores(kernel, &pm1, &w0, &rows);
            for (threshold, want) in [
                (126, vec![(0, 126), (1, 127), (2, 128)]),
                (127, vec![(1, 127), (2, 128)]),
                (128, vec![(2, 128)]),
                (129, vec![]),
            ] {
                for (name, f) in bodies(kernel, &pm1, threshold) {
                    let tag = format!("{name} {kernel:?} t={threshold}");
                    let got = scan_flags_checked(&tag, &f, (&w0, &il), &scores, &mut lane_window);
                    assert_eq!(got, want, "{tag}");
                }
            }
        }

        // +127/-127, 300 long: true scores pass i16 (`resolve` sends
        // this shape to `profile`), yet driven directly the byte lanes
        // still classify exactly, at thresholds on either side of their
        // ceiling, and the reported scores are the i32 truth. Lane 1
        // copies the window. Lanes 2 and 3 pass 255, where the vector
        // bodies' `127 - score` floors: lane 2 matches 3 residues (381),
        // collapses to 0 and never recovers; lane 3 does the same from
        // position 100 and scores one more match at 200. Lane 4 matches
        // nothing: its first -127 is one a wrapping subtract would flag.
        let hot = match_mismatch("PM127", 127, -127);
        assert!(!simd_window_fits(len, &hot));
        let w0 = windows(71, 1, len);
        let mut rows = windows(72, 70, len);
        rows[len..2 * len].copy_from_slice(&w0);
        for (r, &c) in rows[2 * len..5 * len].iter_mut().zip(w0.iter().cycle()) {
            *r = (c + 1) % AA_ALPHABET_LEN as u8;
        }
        rows[2 * len..2 * len + 3].copy_from_slice(&w0[..3]);
        rows[3 * len + 100..3 * len + 103].copy_from_slice(&w0[100..103]);
        rows[3 * len + 200] = w0[200];
        il.build(&rows, len);
        for (kernel, lane3) in [(Kernel::ClampedSum, 381), (Kernel::PaperLiteral, 508)] {
            let scores = all_scores(kernel, &hot, &w0, &rows);
            assert_eq!(scores[1..5], [38_100, 381, lane3, 0]);
            for threshold in [1, 127, 128, 381, 382, 10_000, 38_100, 38_101] {
                let want = at_least(&scores, threshold);
                for (name, f) in bodies(kernel, &hot, threshold) {
                    let tag = format!("{name} {kernel:?} t={threshold}");
                    let got = scan_flags_checked(&tag, &f, (&w0, &il), &scores, &mut lane_window);
                    assert_eq!(got, want, "{tag}");
                }
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

    /// Every network of passes `fill` may run: the portable pass, and
    /// on x86-64 [`passes_at`] each level this CPU has, once each.
    fn passes() -> Vec<(&'static str, &'static [Pass])> {
        let mut out: Vec<(&'static str, &'static [Pass])> = vec![("portable", &[PORTABLE])];
        #[cfg(target_arch = "x86_64")]
        for level in isa::levels("a transpose pass") {
            let name = if level >= Isa::Avx512 {
                "512-bit"
            } else {
                "sse2"
            };
            if out.iter().all(|&(seen, _)| seen != name) {
                out.push((name, passes_at(level)));
            }
        }
        out
    }

    /// `fill_with(pass, ..)` from row-major `rows`, lending two windows
    /// in three where they lie in a copy of `rows` that ends flush with
    /// the last one (so the last few cannot be lent) and staging the
    /// rest — junk behind the window — in the row `fill` offers. Returns
    /// how many windows were lent.
    fn fill_mixed(
        il: &mut InterleavedWindows,
        (name, passes): (&str, &[Pass]),
        rows: &[u8],
        len: usize,
    ) -> usize {
        let count = rows.len().checked_div(len).unwrap_or(0);
        let bank = rows.to_vec().into_boxed_slice();
        let (mut calls, mut lent) = (0, 0);
        // Whatever a larger shape left behind the layout stays as it is:
        // a last pass stores no column past the window.
        let stride = count.div_ceil(WIDE_LANES) * WIDE_LANES;
        let behind = il.data.get(len * stride..).map(<[u8]>::to_vec);
        il.fill_with(passes, count, len, |j, row| {
            assert_eq!(j, calls, "windows are requested once, in order");
            assert_eq!(row.len(), len.next_multiple_of(GROUP));
            calls += 1;
            let run = bank
                .get(j * len..j * len + row.len())
                .filter(|_| j % 3 != 0);
            if run.is_none() {
                row.fill(0xee);
                row[..len].copy_from_slice(&bank[j * len..][..len]);
            }
            lent += usize::from(run.is_some());
            run
        });
        assert_eq!(calls, if len == 0 { 0 } else { count });
        if let Some(behind) = behind {
            assert_eq!(il.data[len * il.stride..], behind, "{name} len={len}");
        }
        lent
    }

    #[test]
    fn fill_matches_naive_transposition_across_reused_shapes() {
        // One instance per pass walks the whole grid down and back up
        // again, so every shape is filled over the leftovers of both a
        // larger and a smaller one: nothing stale may show through, in
        // the real lanes or in the pad lanes of the last block. The
        // lengths sit on and around the tile's width and its multiples:
        // too short for a 64-wide pass, one of them and 16-wide tails,
        // two of them.
        const COUNTS: [usize; 9] = [0, 1, 15, 16, 17, 63, 64, 65, 1000];
        const LENS: [usize; 20] = [
            1, 15, 16, 17, 24, 31, 32, 33, 48, 49, 59, 60, 63, 64, 65, 127, 128, 129, 130, 192,
        ];
        let mut shapes: Vec<(usize, usize)> = COUNTS
            .iter()
            .flat_map(|&c| LENS.iter().map(move |&l| (c, l)))
            .collect();
        shapes.extend(shapes.clone().into_iter().rev());
        for (name, passes) in passes() {
            let mut il = InterleavedWindows::new();
            let (mut lent, mut total) = (0, 0);
            for (n, &(count, len)) in shapes.iter().enumerate() {
                // Residue codes offset by one so a stale or missing byte
                // cannot pass for the zero a pad lane must hold.
                let rows: Vec<u8> = windows(n as u64 + 1, count, len)
                    .into_iter()
                    .map(|c| c + 1)
                    .collect();
                let tag = format!("{name} count={count} len={len}");
                lent += fill_mixed(&mut il, (name, passes), &rows, len);
                total += count;
                assert_eq!((il.count(), il.len()), (count, len), "{tag}");
                let want = naive_interleave(&rows, count, len);
                assert_eq!(il.data[..want.len()], want, "{tag}");
                // `build` is `fill` through the host's pass, fed from the
                // row-major slice.
                let mut built = InterleavedWindows::new();
                built.build(&rows, len);
                assert_eq!(built.data, want, "{tag} (build)");
            }
            // Lent and staged sources were both common, so they met in
            // most groups of sixteen.
            assert!(
                lent > total / 2 && total - lent > total / 4,
                "{lent} of {total}"
            );
            // Nothing is allocated once the buffers have grown: a
            // smaller shape, then the largest again, leave them where
            // and as long as they were.
            let before = (
                il.data.as_ptr(),
                il.data.len(),
                il.edge.as_ptr(),
                il.edge.len(),
            );
            for (count, len) in [(17, 24), (1000, 130), (0, 60), (1000, 130)] {
                fill_mixed(&mut il, (name, passes), &windows(7, count, len), len);
                let after = (
                    il.data.as_ptr(),
                    il.data.len(),
                    il.edge.as_ptr(),
                    il.edge.len(),
                );
                assert_eq!(after, before, "{name} count={count} len={len}");
            }
            // Zero-length windows hold nothing, whatever count is claimed.
            il.fill_with(passes, 5, 0, |_, _| panic!("no window to write"));
            assert_eq!((il.count(), il.len(), il.stride), (0, 0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn a_source_shorter_than_the_network_reads_is_refused() {
        // The window itself is all there; the bytes behind it that a
        // whole-register load would touch are not.
        let rows = windows(3, 4, 60);
        InterleavedWindows::new().fill(4, 60, |j, _| Some(&rows[j * 60..][..60]));
    }

    #[test]
    fn transpose_tiles_match_naive() {
        // The 8×8 register transpose the portable pass is made of
        // equals the definition, out[c] byte r = rows[r][c], over the
        // whole byte range; so does one group of 64 positions — one
        // 512-bit pass, four of the others — through every network.
        for seed in 0..50u64 {
            let bytes: Vec<u8> = windows(seed + 100, GROUP, 64)
                .into_iter()
                .map(|b| b.wrapping_mul(37).wrapping_add(seed as u8))
                .collect();
            let block: [u64; 8] = std::array::from_fn(|r| {
                u64::from_le_bytes(std::array::from_fn(|c| bytes[r * 64 + c]))
            });
            let want: [u64; 8] = std::array::from_fn(|c| {
                u64::from_le_bytes(std::array::from_fn(|r| bytes[r * 64 + c]))
            });
            assert_eq!(transpose_8x8(block), want, "seed={seed}");
            for (name, passes) in passes() {
                let mut il = InterleavedWindows::new();
                fill_mixed(&mut il, (name, passes), &bytes, 64);
                let want = naive_interleave(&bytes, GROUP, 64);
                assert_eq!(il.data, want, "{name} seed={seed}");
            }
        }
    }

    /// Each network's speed, called directly over the same address
    /// stream: 200 k 60-residue windows in 50 ascending lists across a
    /// 16 MB bank, a 2 MB one and an L1-resident 32 KB one (the
    /// network's own cost, without the bank's memory traffic), every
    /// window lent in place and prefetched 8 ahead as
    /// `core::step2::gather_lanes` does. Nine rounds on fresh lists,
    /// every network in each, one walk with the bank out of L2. Prints
    /// the lowest and the median ns per window; run
    /// `cargo test --release -p psc-align --lib -- --ignored --nocapture gather_ns_per_window`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn gather_ns_per_window() {
        const LEN: usize = 60;
        const AHEAD: usize = 8;
        fn prefetch(bank: &[u8], at: usize, reach: usize) {
            #[cfg(target_arch = "x86_64")]
            for at in [at, at + reach - 1] {
                use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                // SAFETY: a prefetch never faults, whatever the address.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(bank.as_ptr().wrapping_add(at) as *const i8) };
            }
        }
        let sum = |bytes: &[u8]| bytes.iter().map(|&b| b as u64).sum::<u64>();
        let mut rng = SplitMix64::new(0x5eed_0019);
        for (bank_name, bytes) in [("16 MB", 16 << 20), ("2 MB", 2 << 20), ("32 KB", 32 << 10)] {
            let bank = windows(bytes as u64, bytes, 1);
            let mut ns = vec![Vec::new(); passes().len()];
            for _ in 0..9 {
                let lists: Vec<Vec<usize>> = (0..50)
                    .map(|_| {
                        let mut list: Vec<usize> =
                            (0..4000).map(|_| rng.range(0..bank.len() - 64)).collect();
                        list.sort_unstable();
                        list
                    })
                    .collect();
                let mut sums = Vec::new();
                for ((_, passes), ns) in passes().into_iter().zip(&mut ns) {
                    let mut il = InterleavedWindows::new();
                    il.fill_with(passes, 4000, LEN, |_, _| Some(&bank[..64]));
                    // Walk 16 MB of something else: the bank leaves L2.
                    let mut checksum = sum(&windows(9, 16 << 20, 1)) & 1;
                    let mut seconds = 0.0;
                    for list in &lists {
                        let t0 = std::time::Instant::now();
                        il.fill_with(passes, list.len(), LEN, |j, row| {
                            if let Some(&ahead) = list.get(j + AHEAD) {
                                prefetch(&bank, ahead, row.len());
                            }
                            Some(&bank[list[j]..][..row.len()])
                        });
                        seconds += t0.elapsed().as_secs_f64();
                        checksum += sum(&il.data[..LEN * il.stride]);
                    }
                    sums.push(checksum);
                    ns.push(seconds * 1e9 / 200_000.0);
                }
                assert!(sums.windows(2).all(|w| w[0] == w[1]), "{sums:?}");
            }
            for ((name, _), mut ns) in passes().into_iter().zip(ns) {
                ns.sort_by(f64::total_cmp);
                println!(
                    "{bank_name} bank, {name}: {:.1} ns per window at best, {:.1} in the median",
                    ns[0], ns[4]
                );
            }
        }
    }

    /// Each lane body's speed through `scan`, forced as in [`bodies`]:
    /// `n0` row-major windows against a layout of `n1` lanes, for a
    /// key's `IL0 × IL1` of 15 × 70, 32 × 512 and 4 × 3000; window 60,
    /// BLOSUM62, threshold 45, random windows (no survivors: the cost of
    /// classifying). Each body's round is sized to ≥ 50 ms; five rounds,
    /// every body in each. Prints the lowest and the median ns per
    /// window pair (pad lanes are work done, not pairs); run
    /// `cargo test --release -p psc-align --lib -- --ignored --nocapture scan_ns_per_pair`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn scan_ns_per_pair() {
        const LEN: usize = 60;
        let m = blosum62();
        let mut il = InterleavedWindows::new();
        let mut lane_window = Vec::new();
        for (n0, n1) in [(15, 70), (32, 512), (4, 3000)] {
            let w0s = windows(n0 as u64, n0, LEN);
            il.build(&windows(n1 as u64 ^ 0xff, n1, LEN), LEN);
            let pairs = |reps: usize| (reps * n0 * n1) as f64;
            let mut round = |f: &LaneFilter, reps: usize| {
                let t0 = std::time::Instant::now();
                for w0 in w0s.chunks_exact(LEN).cycle().take(reps * n0) {
                    let w0 = std::hint::black_box(w0);
                    f.scan(w0, &il, 0..n1, &mut lane_window, |_, _| {
                        panic!("a survivor")
                    });
                }
                t0.elapsed().as_secs_f64() * 1e9 / pairs(reps)
            };
            let bodies = bodies(Kernel::ClampedSum, m, 45);
            // Each body's repeats: the first power of two taking 50 ms.
            let reps: Vec<usize> = (bodies.iter())
                .map(|(_, f)| {
                    (0..)
                        .map(|k| 1 << k)
                        .find(|&r| round(f, r) * pairs(r) >= 5e7)
                })
                .map(|r| r.expect("some round takes 50 ms"))
                .collect();
            let mut ns = vec![Vec::new(); bodies.len()];
            for _ in 0..5 {
                for (((_, f), &r), ns) in bodies.iter().zip(&reps).zip(&mut ns) {
                    ns.push(round(f, r));
                }
            }
            for ((name, _), mut ns) in bodies.into_iter().zip(ns) {
                ns.sort_by(f64::total_cmp);
                println!(
                    "{n0} x {n1}, {name}: {:.3} ns per pair at best, {:.3} in the median",
                    ns[0], ns[2]
                );
            }
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
        // Wide shares the i16 guard with Simd.
        let (b, why) = KernelChoice::Wide.resolve_with_reason(4000, m);
        assert_eq!(b, KernelBackend::Profile);
        assert!(why.is_some_and(|r| r.contains("i16")));
        let (b, why) = KernelChoice::Simd.resolve_with_reason(4000, m);
        assert_eq!(b, KernelBackend::Profile);
        assert!(why.is_some_and(|r| r.contains("i16")));
        // Auto never reports a downgrade; what it picks at each level
        // is `each_level_picks_its_own_bodies`'.
        assert_eq!(KernelChoice::Auto.resolve_with_reason(60, m).1, None);
    }

    /// Under a cap at each level this CPU has, every picker of this
    /// crate names that level's body. The only test here that caps.
    #[test]
    fn each_level_picks_its_own_bodies() {
        use Isa::*;
        use KernelBackend::{Profile, Simd, Wide};
        let m = blosum62();
        for level in isa::levels("a level's picks") {
            let _cap = isa::cap(level);
            let body = |b| {
                LaneFilter::new(b, Kernel::ClampedSum, m, 45)
                    .expect("lanes")
                    .body
            };
            let auto = KernelChoice::Auto.resolve(60, m);
            let row = crate::xdrop::pick_body(&crate::GapConfig::default(), 60);
            let got = (
                body(Simd),
                body(Wide),
                auto,
                row,
                passes_at(Isa::host()).len(),
            );
            let want = match level {
                Portable => (Portable, Portable, Profile, Portable, 1),
                Avx2 => (Avx2, Portable, Simd, Avx2, 1),
                Avx512 => (Avx2, Portable, Simd, Avx512, 2),
                Avx512Vbmi => (Avx2, Avx512Vbmi, Wide, Avx512, 2),
            };
            assert_eq!(got, want, "{level:?}");
        }
    }

    #[test]
    fn lane_widths_are_consistent() {
        assert_eq!(KernelBackend::Scalar.lane_width(), 1);
        assert_eq!(KernelBackend::Profile.lane_width(), 1);
        assert_eq!(KernelBackend::Simd.lane_width(), LANES);
        assert_eq!(KernelBackend::Wide.lane_width(), WIDE_LANES);
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

    /// A lent source is read for `row.len()` bytes — the window, rounded
    /// up to the network's sixteen — and not one further: the last
    /// window's run ends where an unreadable page begins. A 64-wide pass
    /// runs only where it reads no further: the lengths end the row 16
    /// (40), 32 (20) or 48 (65, 80) bytes short of where one more would
    /// read to, or exactly there (49, 59, 60, 64, 128).
    #[cfg(target_os = "linux")]
    #[test]
    fn no_pass_reads_past_a_lent_row() {
        for len in [59, 60, 20, 40, 49, 64, 65, 80, 128] {
            let count = 70;
            // Windows back to back, as in a flat bank, and just enough
            // behind the last one for it to be lent like the others.
            let rows = windows(len as u64, count, len);
            let slack = vec![0; len.next_multiple_of(GROUP) - len];
            let bank = crate::guard::Guarded::before_a_guard(&[&rows[..], &slack].concat());
            for (name, passes) in passes() {
                let mut il = InterleavedWindows::new();
                il.fill_with(passes, count, len, |j, row| {
                    Some(&bank[j * len..][..row.len()])
                });
                assert_eq!(
                    il.data,
                    naive_interleave(&rows, count, len),
                    "{name} len={len}"
                );
            }
        }
    }

    /// The row-major window of a scan is read for its length and no
    /// further, in either direction, by every body this host runs.
    #[cfg(target_os = "linux")]
    #[test]
    fn no_body_reads_past_the_row_major_window() {
        use crate::guard::Guarded;
        let (m, kernel, threshold) = (blosum62(), Kernel::ClampedSum, 12);
        for len in [59, 60, 20] {
            let w0 = windows(len as u64 + 7, 1, len);
            let rows = windows(len as u64, 130, len);
            let mut il = InterleavedWindows::new();
            il.build(&rows, len);
            let want = scalar_filter(kernel, m, &w0, &rows, threshold);
            assert!(!want.is_empty() && want.len() < 130, "len={len}: {want:?}");
            for place in [Guarded::before_a_guard, Guarded::after_a_guard] {
                let window = place(&w0);
                for (name, f) in bodies(kernel, m, threshold) {
                    let got = scan(&f, &window, &il, 0..130, &mut Vec::new());
                    assert_eq!(got, want, "{name} len={len}");
                }
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
        // Removed with the kernel: the byte-lane filter subsumes it.
        assert_eq!(KernelChoice::parse("split"), None);
        assert_eq!(KernelChoice::parse("fpga"), None);
    }
}
