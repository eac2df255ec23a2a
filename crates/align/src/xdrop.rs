//! The affine X-drop sweep under [`gapped_extend`] — the paper's step 3,
//! and the one gapped kernel `core`, `blast` and the simulated gapped
//! operator share.
//!
//! A sweep fills the DP matrix of two sequences read outward from the
//! anchor, a row at a time, over a live window of columns that the
//! X-drop test narrows. [`sweep_frame`] is the frame — row 0, column 0,
//! the window, the work count — and hands each row's cells to a *row body*:
//! [`row_scalar`], which with the frame is the definition of the
//! extension, or a lane body that computes the same row 16 (AVX-512F)
//! or 8 (AVX2) cells at a time. The bodies are picked by what the CPU
//! has and what the gap model allows ([`Body::pick`]), never by a
//! setting, and return the same digits: score, end cell and cell count.
//!
//! Nothing here allocates once an [`ExtendScratch`] has been sized, and
//! a sweep initialises only the cells its window reaches.

use std::ops::Range;

use psc_score::SubstitutionMatrix;
use psc_seqio::alphabet::AA_ALPHABET_LEN;

use crate::gapped::{GapConfig, GappedHit, NEG_INF};

/// The DP rows of the sweep. Whoever extends many anchors owns one (a
/// step-3 worker, a baseline search, an operator batch) and lends it to
/// every [`gapped_extend`] call: the first calls size it, after that an
/// extension allocates nothing. Its contents never reach a result — a
/// sweep writes every cell before it reads it.
#[derive(Debug, Default)]
pub struct ExtendScratch {
    /// `h_prev`, `h_cur` and `f_col`, a third of the vector each.
    rows: Vec<i32>,
}

impl ExtendScratch {
    pub fn new() -> ExtendScratch {
        ExtendScratch::default()
    }

    /// Three rows of at least `width` cells each.
    fn rows(&mut self, width: usize) -> [&mut [i32]; 3] {
        if self.rows.len() < 3 * width {
            self.rows.resize(3 * width, NEG_INF);
        }
        let third = self.rows.len() / 3;
        let (h_prev, rest) = self.rows.split_at_mut(third);
        let (h_cur, f_col) = rest.split_at_mut(third);
        [h_prev, h_cur, f_col]
    }
}

/// Affine-gap X-drop extension around an anchor pair.
///
/// `anchor0`/`anchor1` is a position pair known to be similar (in the
/// pipeline: the seed start). The right sweep aligns
/// `s0[anchor0..] × s1[anchor1..]`; the left sweep aligns the prefixes
/// `s0[..anchor0] × s1[..anchor1]` read backwards from the anchor, in
/// place. Scores add because the two halves share only the anchor
/// boundary. Each sweep reads at most `cfg.max_extent` residues per
/// sequence, so the cost of one call does not depend on how long the
/// sequences are.
pub fn gapped_extend(
    matrix: &SubstitutionMatrix,
    s0: &[u8],
    s1: &[u8],
    anchor0: usize,
    anchor1: usize,
    cfg: &GapConfig,
    scratch: &mut ExtendScratch,
) -> GappedHit {
    assert!(anchor0 <= s0.len() && anchor1 <= s1.len());
    let (right, ri, rj, right_cells) =
        xdrop_half::<false>(matrix, &s0[anchor0..], &s1[anchor1..], cfg, scratch);
    let (left, li, lj, left_cells) =
        xdrop_half::<true>(matrix, &s0[..anchor0], &s1[..anchor1], cfg, scratch);
    GappedHit {
        score: left + right,
        start0: anchor0 - li,
        end0: anchor0 + ri,
        start1: anchor1 - lj,
        end1: anchor1 + rj,
        cells: left_cells + right_cells,
    }
}

/// What one sweep returns: `(best_score, a_consumed, b_consumed,
/// cells_evaluated)`.
type Swept = (i32, usize, usize, u64);

/// One direction of the extension — the single entry every caller
/// reaches: [`sweep`] with the row body this CPU and gap model get.
fn xdrop_half<const REV: bool>(
    matrix: &SubstitutionMatrix,
    a: &[u8],
    b: &[u8],
    cfg: &GapConfig,
    scratch: &mut ExtendScratch,
) -> Swept {
    let body = Body::pick(cfg, b.len().min(cfg.max_extent));
    sweep::<REV>(matrix, a, b, cfg, scratch, body)
}

/// [`sweep_frame`] around the row body named. A lane body's copy of the
/// frame is compiled with the body's target features, so the row is
/// inlined into the loop over rows and its constants stay in registers.
fn sweep<const REV: bool>(
    matrix: &SubstitutionMatrix,
    a: &[u8],
    b: &[u8],
    cfg: &GapConfig,
    scratch: &mut ExtendScratch,
    body: Body,
) -> Swept {
    match body {
        Body::Scalar => sweep_frame::<REV>(matrix, a, b, cfg, scratch, Body::Scalar),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Body::pick` (or a test) saw AVX-512F before naming
        // this body.
        Body::Avx512 => unsafe { x86::sweep_avx512::<REV>(matrix, a, b, cfg, scratch) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, with AVX2.
        Body::Avx2 => unsafe { x86::sweep_avx2::<REV>(matrix, a, b, cfg, scratch) },
    }
}

/// Which row body a sweep runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Body {
    /// [`row_scalar`]: the definition, and what runs off x86-64.
    Scalar,
    /// [`x86::row_avx512`], 16 cells a step.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// [`x86::row_avx2`], 8 cells a step.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Body {
    /// The widest body that is exact for `cfg` over `m` columns.
    ///
    /// The lane bodies' proof (see [`Row`]) needs gap moves that only
    /// subtract and a drop-off that only prunes — `open`, `extend` and
    /// `xdrop` non-negative — and, so that nothing wraps and `NEG_INF`
    /// stays below every threshold, costs that are small against it.
    /// Any other model runs the scalar body.
    fn pick(cfg: &GapConfig, m: usize) -> Body {
        // The most a sweep can subtract from a value, lanes of padding
        // included.
        let reach = i128::from(cfg.open)
            + i128::from(cfg.xdrop)
            + i128::from(cfg.extend) * (m as i128 + 16);
        if cfg.open < 0 || cfg.extend < 0 || cfg.xdrop < 0 || reach > i128::from(-(NEG_INF / 2)) {
            return Body::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Body::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Body::Avx2;
            }
        }
        Body::Scalar
    }
}

/// Residue `k` of a side, counted outward from the anchor: forwards
/// from the start of a suffix, or (`REV`) backwards from the end of a
/// prefix.
#[inline(always)]
fn outward<const REV: bool>(side: &[u8], k: usize) -> u8 {
    if REV {
        side[side.len() - 1 - k]
    } else {
        side[k]
    }
}

/// One row of a sweep, as the frame hands it to a row body.
///
/// **What a body must do.** For every column `j` of `cols`, in order:
///
/// * `F = max(h_prev[j] − open − ext, f_col[j] − ext)`, stored to
///   `f_col[j]` (a gap in `b`, coming down the column);
/// * `E = max(h_cur[j−1] − open − ext, E(j−1) − ext)`, `E` being
///   `NEG_INF` left of `cols` (a gap in `a`, coming along the row);
/// * `H = max(h_prev[j−1] + score, E, F)`;
/// * the cell *survives* when `H ≥ best − xdrop`, `best` being the best
///   score on entry or any higher `H` of a survivor to its left:
///   `h_cur[j]` is `H` for a survivor and `NEG_INF` otherwise, `lo..hi`
///   grows to span the survivors, and a survivor above `best` becomes
///   the new `best` with `best_j = j`.
///
/// **Why the lane bodies are exact.** They compute `F` and the
/// diagonal element-wise, `E` as a prefix maximum over
/// `T = max(diagonal, F)` with linear decay,
/// `E[j] = max_{k≤j} T[k] − open − ext·(j−k)`, and each threshold as
/// `max(best on entry, max_{k<j} H[k]) − xdrop`. Against the scalar
/// recurrence that (1) skips re-opening a gap from an `E`-derived
/// cell — dominated, since `open ≥ 0` makes opening twice no cheaper
/// than extending once — and admits the cell itself (`k = j`), whose
/// term `T[j] − open` never exceeds the `T[j]` that `H` already takes;
/// and (2) lets a *pruned* cell's value flow on to
/// its right where the scalar body stores `NEG_INF`. A pruned cell's
/// `H` is below its own threshold, thresholds never fall along a row,
/// and gap moves only subtract (`ext ≥ 0`, `xdrop ≥ 0`), so whatever a
/// pruned cell feeds rightwards stays below every later threshold: it
/// can neither rescue a cell nor be the maximum of a surviving one, and
/// it cannot raise `best`. By induction along the row the survivors,
/// their `H`, and `best`/`best_j` are the scalar body's; `f_col` and
/// the stored `h_cur` are then equal cell for cell, which is the
/// induction over rows. Two details: what descends from a `NEG_INF`
/// cell differs by a few costs between the bodies (the lane bodies add
/// the score to a `NEG_INF` diagonal where the scalar body keeps
/// `NEG_INF`) — all of it is below every threshold, [`Body::pick`]
/// having bounded the costs; and lanes past `cols.end` are masked out
/// of every load, store and survivor mask: the scalar body never
/// evaluates them, and their `E` could well clear the threshold.
struct Row<'a> {
    /// This row's residue of `a` against every residue code.
    scores: &'a [i8],
    /// The side the columns run over — whole, not cut to `max_extent`
    /// (a lane body loads a full vector of residues wherever the slice
    /// still has them).
    b: &'a [u8],
    open: i32,
    ext: i32,
    xdrop: i32,
    /// Row `i − 1`: survivors' `H`, `NEG_INF` around them.
    h_prev: &'a mut [i32],
    /// Row `i`; the frame has set `h_cur[cols.start − 1]`.
    h_cur: &'a mut [i32],
    f_col: &'a mut [i32],
    /// The columns to evaluate, `1 ≤ start < end ≤ b.len() + 1`.
    cols: Range<usize>,
    best: i32,
    /// The column that raised `best` on this row; 0 when none did.
    best_j: usize,
    /// Span of surviving columns; column 0 may have seeded it, and
    /// `lo` is `usize::MAX` while it is empty.
    lo: usize,
    hi: usize,
}

/// The row body that defines the sweep: one cell after the other.
#[inline]
fn row_scalar<const REV: bool>(r: &mut Row<'_>) {
    let mut e = NEG_INF;
    for j in r.cols.clone() {
        // F: gap in `b` (vertical move).
        let f = (r.h_prev[j] - r.open - r.ext).max(r.f_col[j] - r.ext);
        r.f_col[j] = f;
        // E: gap in `a` (horizontal move).
        e = (r.h_cur[j - 1] - r.open - r.ext).max(e - r.ext);
        // H: diagonal.
        let diag = if r.h_prev[j - 1] > NEG_INF {
            r.h_prev[j - 1] + i32::from(r.scores[outward::<REV>(r.b, j - 1) as usize])
        } else {
            NEG_INF
        };
        let h = diag.max(e).max(f);
        if h >= r.best - r.xdrop {
            r.h_cur[j] = h;
            if h > r.best {
                r.best = h;
                r.best_j = j;
            }
            if r.lo == usize::MAX {
                r.lo = j;
            }
            r.hi = j + 1;
        } else {
            r.h_cur[j] = NEG_INF;
        }
    }
}

/// One direction of affine X-drop extension: align what `a` and `b`
/// hold outward from the anchor (see [`outward`]), anchored at `(0,0)`,
/// returning `(best_score, a_consumed, b_consumed, cells_evaluated)`.
///
/// Row-sweep DP over `a` (i), columns over `b` (j), with a live column
/// window `[lo, hi)` — the span of the previous row's survivors — that
/// the X-drop test narrows as rows advance; a row evaluates the window
/// and one column past it.
///
/// The rows live in `scratch` and are never filled: around the cells a
/// row evaluates, the frame writes the two `NEG_INF` the next row can
/// read (left of the window, and one past the last column evaluated),
/// and `f_col` is initialised column by column as the window first
/// reaches it. Behind the window `f_col` is left **stale**: when a
/// column is evaluated again after rows in which it was not, it still
/// holds the `F` of the last row that evaluated it — too high by the
/// extensions not charged, where the true recurrence has `−∞`. That
/// cannot reach a surviving cell: the column dropped out of the window
/// because its `H` fell below the threshold of the time, `F ≤ H`, the
/// best score never falls, and from there the stale value is only
/// ever decremented — so an `F` descended from it stays below every
/// later threshold, and any cell whose `H` it decides is pruned.
#[inline(always)]
fn sweep_frame<const REV: bool>(
    matrix: &SubstitutionMatrix,
    a: &[u8],
    b: &[u8],
    cfg: &GapConfig,
    scratch: &mut ExtendScratch,
    body: Body,
) -> Swept {
    let n = a.len().min(cfg.max_extent);
    let m = b.len().min(cfg.max_extent);
    if n == 0 || m == 0 {
        return (0, 0, 0, 0);
    }
    let [h_prev, h_cur, f_col] = scratch.rows(m + 1);
    let mut r = Row {
        scores: &[],
        b,
        open: cfg.open,
        ext: cfg.extend,
        xdrop: cfg.xdrop,
        h_prev,
        h_cur,
        f_col,
        cols: 0..0,
        best: 0,
        best_j: 0,
        lo: 0,
        hi: 0,
    };
    let (mut best_i, mut best_j) = (0usize, 0usize);
    let mut cells = 0u64;

    // Row 0: leading gaps in `b`.
    r.h_prev[0] = 0;
    let mut hi = 1usize;
    while hi <= m {
        let s = -(cfg.open + cfg.extend * hi as i32);
        if s < -cfg.xdrop {
            break;
        }
        r.h_prev[hi] = s;
        hi += 1;
    }
    if hi <= m {
        r.h_prev[hi] = NEG_INF;
    }
    let mut lo = 0usize;
    // `f_col[1..f_live]` has been initialised.
    let mut f_live = 1usize;

    for i in 1..=n {
        let ai = outward::<REV>(a, i - 1) as usize;
        r.scores = &matrix.flat()[ai * AA_ALPHABET_LEN..][..AA_ALPHABET_LEN];
        r.cols = lo.max(1)..(hi + 1).min(m + 1);
        r.best_j = 0;
        (r.lo, r.hi) = (usize::MAX, 0);
        // Column 0 of this row: leading gap in `a`.
        if lo == 0 {
            let s = -(cfg.open + cfg.extend * i as i32);
            if s >= r.best - cfg.xdrop {
                r.h_cur[0] = s;
                (r.lo, r.hi) = (0, 1);
            } else {
                r.h_cur[0] = NEG_INF;
            }
        } else {
            r.h_cur[lo - 1] = NEG_INF;
        }
        if r.cols.end <= m {
            r.h_cur[r.cols.end] = NEG_INF;
        }
        while f_live < r.cols.end {
            r.f_col[f_live] = NEG_INF;
            f_live += 1;
        }

        cells += r.cols.len() as u64;
        match body {
            Body::Scalar => row_scalar::<REV>(&mut r),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only `sweep_avx512` passes this body, and its
            // caller saw AVX-512F.
            Body::Avx512 => unsafe { x86::row_avx512::<REV>(&mut r) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, with `sweep_avx2` and AVX2.
            Body::Avx2 => unsafe { x86::row_avx2::<REV>(&mut r) },
        }
        if r.best_j != 0 {
            (best_i, best_j) = (i, r.best_j);
        }
        if r.lo == usize::MAX {
            // Every cell of the row died: extension is over.
            break;
        }
        (lo, hi) = (r.lo, r.hi);
        std::mem::swap(&mut r.h_prev, &mut r.h_cur);
    }

    (r.best, best_i, best_j, cells)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// [`sweep_frame`] compiled for AVX-512F around [`row_avx512`].
    ///
    /// # Safety
    /// AVX-512F must be available.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn sweep_avx512<const REV: bool>(
        matrix: &SubstitutionMatrix,
        a: &[u8],
        b: &[u8],
        cfg: &GapConfig,
        scratch: &mut ExtendScratch,
    ) -> Swept {
        sweep_frame::<REV>(matrix, a, b, cfg, scratch, Body::Avx512)
    }

    /// [`sweep_frame`] compiled for AVX2 around [`row_avx2`].
    ///
    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_avx2<const REV: bool>(
        matrix: &SubstitutionMatrix,
        a: &[u8],
        b: &[u8],
        cfg: &GapConfig,
        scratch: &mut ExtendScratch,
    ) -> Swept {
        sweep_frame::<REV>(matrix, a, b, cfg, scratch, Body::Avx2)
    }

    /// The residues of `N` (8 or 16) columns in the low bytes of a
    /// register, lane `l` holding sweep position `k0 + l` of `b` (see
    /// [`outward`](super::outward)); lanes past the end of `b` hold
    /// residue 0. One unaligned load wherever `b` still has `N` bytes,
    /// a copy through the stack at its edge.
    #[target_feature(enable = "ssse3")]
    #[inline]
    fn subject_codes<const REV: bool, const N: usize>(b: &[u8], k0: usize) -> __m128i {
        let mut edge = [0u8; 16];
        let left = b.len() - k0;
        // The `N` bytes that hold those positions, in memory order.
        let window: &[u8] = if left >= N {
            let at = if REV { left - N } else { k0 };
            &b[at..at + N]
        } else if REV {
            edge[N - left..N].copy_from_slice(&b[..left]);
            &edge[..N]
        } else {
            edge[..left].copy_from_slice(&b[k0..]);
            &edge[..N]
        };
        // SAFETY: `window` is `N` readable bytes, and `N` is the width
        // of the load chosen.
        let v = unsafe {
            if N == 16 {
                _mm_loadu_si128(window.as_ptr() as *const __m128i)
            } else {
                _mm_loadl_epi64(window.as_ptr() as *const __m128i)
            }
        };
        if REV {
            // Byte `l` of the result is byte `N − 1 − l` of the window.
            let top = N as i8 - 1;
            let back = _mm_sub_epi8(
                _mm_set1_epi8(top),
                _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            );
            _mm_shuffle_epi8(v, back)
        } else {
            v
        }
    }

    /// Inclusive prefix maximum over 16 lanes, every lane also raised
    /// to `carry` (a splat: the maximum of everything to the left).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn prefix_max_avx512(v: __m512i, carry: __m512i) -> __m512i {
        let neg = _mm512_set1_epi32(NEG_INF);
        let v = _mm512_max_epi32(v, _mm512_alignr_epi32::<15>(v, neg));
        let v = _mm512_max_epi32(v, _mm512_alignr_epi32::<14>(v, neg));
        let v = _mm512_max_epi32(v, _mm512_alignr_epi32::<12>(v, neg));
        let v = _mm512_max_epi32(v, _mm512_alignr_epi32::<8>(v, neg));
        _mm512_max_epi32(v, carry)
    }

    /// The AVX-512F row body: [`Row`]'s contract, 16 columns a step.
    ///
    /// Both scans are [`prefix_max_avx512`] with a splat carried from
    /// vector to vector. `E`'s linear decay is folded into it by adding
    /// `ext·ρ` to `T` beforehand (`ρ` the column's distance from the
    /// cell left of `cols`) and subtracting it afterwards:
    /// `max_{k≤j} T[k] − ext·(j−k) = max_{k≤j} (T[k] + ext·ρ(k)) − ext·ρ(j)`.
    /// The threshold scan is shifted up a lane, each cell answering to
    /// the cells on its left only — it is also what tells a cell that
    /// raises the maximum from one that merely equals it.
    /// The substitution scores are the row's 24 entries widened into
    /// two registers and indexed by the residues (`vpermt2d`).
    ///
    /// # Safety
    /// AVX-512F must be available. The bounds of every access are
    /// asserted.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) unsafe fn row_avx512<const REV: bool>(r: &mut Row<'_>) {
        const N: usize = 16;
        let (j0, j1) = (r.cols.start, r.cols.end);
        let rows = r.h_prev.len().min(r.h_cur.len()).min(r.f_col.len());
        assert!(1 <= j0 && j0 < j1 && j1 <= rows && j1 - 1 <= r.b.len() && r.scores.len() >= 24);
        let (h_prev, h_cur, f_col) = (
            r.h_prev.as_ptr(),
            r.h_cur.as_mut_ptr(),
            r.f_col.as_mut_ptr(),
        );

        let neg = _mm512_set1_epi32(NEG_INF);
        let open_ext = _mm512_set1_epi32(r.open + r.ext);
        let open = _mm512_set1_epi32(r.open);
        let ext = _mm512_set1_epi32(r.ext);
        let xdrop = _mm512_set1_epi32(r.xdrop);
        let step = _mm512_set1_epi32(N as i32 * r.ext);
        let mut ramp = _mm512_mullo_epi32(
            ext,
            _mm512_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16),
        );
        let top = _mm512_set1_epi32(N as i32 - 1);
        let scores = r.scores.as_ptr();
        let table_lo = _mm512_cvtepi8_epi32(_mm_loadu_si128(scores as *const __m128i));
        let table_hi = _mm512_cvtepi8_epi32(_mm_loadl_epi64(scores.add(16) as *const __m128i));

        // Left of `cols`: the cell the frame set, and the best so far.
        let mut carry_e = _mm512_set1_epi32(*h_cur.add(j0 - 1));
        let mut carry_h = _mm512_set1_epi32(r.best);
        let mut j = j0;
        while j < j1 {
            let valid: __mmask16 = if j1 - j >= N { !0 } else { (1 << (j1 - j)) - 1 };
            let up = _mm512_mask_loadu_epi32(neg, valid, h_prev.add(j));
            let up_left = _mm512_mask_loadu_epi32(neg, valid, h_prev.add(j - 1));
            let f_up = _mm512_mask_loadu_epi32(neg, valid, f_col.add(j));
            let f = _mm512_max_epi32(_mm512_sub_epi32(up, open_ext), _mm512_sub_epi32(f_up, ext));
            _mm512_mask_storeu_epi32(f_col.add(j), valid, f);
            let codes = _mm512_cvtepu8_epi32(subject_codes::<REV, N>(r.b, j - 1));
            let score = _mm512_permutex2var_epi32(table_lo, codes, table_hi);
            let t = _mm512_max_epi32(_mm512_add_epi32(up_left, score), f);

            let g = prefix_max_avx512(_mm512_add_epi32(t, ramp), carry_e);
            let e = _mm512_sub_epi32(_mm512_sub_epi32(g, ramp), open);
            carry_e = _mm512_permutexvar_epi32(top, g);
            let h = _mm512_max_epi32(t, e);

            let p = prefix_max_avx512(h, carry_h);
            let best_left = _mm512_alignr_epi32::<15>(p, carry_h);
            carry_h = _mm512_permutexvar_epi32(top, p);
            let alive = _mm512_mask_cmpge_epi32_mask(valid, h, _mm512_sub_epi32(best_left, xdrop));
            let record = _mm512_mask_cmpgt_epi32_mask(valid, h, best_left);
            _mm512_mask_storeu_epi32(h_cur.add(j), valid, _mm512_mask_mov_epi32(neg, alive, h));

            if alive != 0 {
                if r.lo == usize::MAX {
                    r.lo = j + alive.trailing_zeros() as usize;
                }
                r.hi = j + N - alive.leading_zeros() as usize;
            }
            if record != 0 {
                // The last record of the row is the first cell that
                // reaches the row's maximum.
                r.best_j = j + N - 1 - record.leading_zeros() as usize;
            }
            ramp = _mm512_add_epi32(ramp, step);
            j += N;
        }
        if r.best_j != 0 {
            r.best = _mm_cvtsi128_si32(_mm512_castsi512_si128(carry_h));
        }
    }

    /// `v` moved up `K` (1, 2 or 4) lanes, the top `K` lanes of `low`
    /// entering at the bottom.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn shift_in_avx2<const K: usize>(v: __m256i, low: __m256i) -> __m256i {
        // `low`'s upper half under `v`'s lower half: each 128-bit lane
        // of `v` now sits above the four lanes that precede it.
        let below = _mm256_permute2x128_si256::<0x21>(low, v);
        match K {
            1 => _mm256_alignr_epi8::<12>(v, below),
            2 => _mm256_alignr_epi8::<8>(v, below),
            _ => below,
        }
    }

    /// [`prefix_max_avx512`] over 8 lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn prefix_max_avx2(v: __m256i, carry: __m256i) -> __m256i {
        let neg = _mm256_set1_epi32(NEG_INF);
        let v = _mm256_max_epi32(v, shift_in_avx2::<1>(v, neg));
        let v = _mm256_max_epi32(v, shift_in_avx2::<2>(v, neg));
        let v = _mm256_max_epi32(v, shift_in_avx2::<4>(v, neg));
        _mm256_max_epi32(v, carry)
    }

    /// The AVX2 row body: [`row_avx512`] at 8 columns a step, with
    /// compare results in registers instead of mask registers and the
    /// substitution scores looked up in bytes (`pshufb` over the two
    /// halves of the row) before they are widened.
    ///
    /// # Safety
    /// AVX2 must be available. The bounds of every access are asserted.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn row_avx2<const REV: bool>(r: &mut Row<'_>) {
        const N: usize = 8;
        let (j0, j1) = (r.cols.start, r.cols.end);
        let rows = r.h_prev.len().min(r.h_cur.len()).min(r.f_col.len());
        assert!(1 <= j0 && j0 < j1 && j1 <= rows && j1 - 1 <= r.b.len() && r.scores.len() >= 24);
        let (h_prev, h_cur, f_col) = (
            r.h_prev.as_ptr(),
            r.h_cur.as_mut_ptr(),
            r.f_col.as_mut_ptr(),
        );

        let neg = _mm256_set1_epi32(NEG_INF);
        let open_ext = _mm256_set1_epi32(r.open + r.ext);
        let open = _mm256_set1_epi32(r.open);
        let ext = _mm256_set1_epi32(r.ext);
        let xdrop = _mm256_set1_epi32(r.xdrop);
        let step = _mm256_set1_epi32(N as i32 * r.ext);
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut ramp = _mm256_mullo_epi32(ext, _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8));
        let top = _mm256_set1_epi32(N as i32 - 1);
        let scores = r.scores.as_ptr();
        let table_lo = _mm_loadu_si128(scores as *const __m128i);
        let table_hi = _mm_loadl_epi64(scores.add(16) as *const __m128i);
        let fifteen = _mm_set1_epi8(15);

        let mut carry_e = _mm256_set1_epi32(*h_cur.add(j0 - 1));
        let mut carry_h = _mm256_set1_epi32(r.best);
        let mut j = j0;
        while j < j1 {
            let left = (j1 - j).min(N);
            let valid = _mm256_cmpgt_epi32(_mm256_set1_epi32(left as i32), lane);
            let valid_bits = (1u32 << left) - 1;
            let load =
                |p: *const i32| _mm256_blendv_epi8(neg, _mm256_maskload_epi32(p, valid), valid);
            let up = load(h_prev.add(j));
            let up_left = load(h_prev.add(j - 1));
            let f_up = load(f_col.add(j));
            let f = _mm256_max_epi32(_mm256_sub_epi32(up, open_ext), _mm256_sub_epi32(f_up, ext));
            _mm256_maskstore_epi32(f_col.add(j), valid, f);
            let codes = subject_codes::<REV, N>(r.b, j - 1);
            let score = _mm256_cvtepi8_epi32(_mm_blendv_epi8(
                _mm_shuffle_epi8(table_lo, codes),
                _mm_shuffle_epi8(table_hi, codes),
                _mm_cmpgt_epi8(codes, fifteen),
            ));
            let t = _mm256_max_epi32(_mm256_add_epi32(up_left, score), f);

            let g = prefix_max_avx2(_mm256_add_epi32(t, ramp), carry_e);
            let e = _mm256_sub_epi32(_mm256_sub_epi32(g, ramp), open);
            carry_e = _mm256_permutevar8x32_epi32(g, top);
            let h = _mm256_max_epi32(t, e);

            let p = prefix_max_avx2(h, carry_h);
            let best_left = shift_in_avx2::<1>(p, carry_h);
            carry_h = _mm256_permutevar8x32_epi32(p, top);
            let dead = _mm256_cmpgt_epi32(_mm256_sub_epi32(best_left, xdrop), h);
            let alive = !(_mm256_movemask_ps(_mm256_castsi256_ps(dead)) as u32) & valid_bits;
            let record = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(h, best_left)))
                as u32
                & valid_bits;
            _mm256_maskstore_epi32(h_cur.add(j), valid, _mm256_blendv_epi8(h, neg, dead));

            if alive != 0 {
                if r.lo == usize::MAX {
                    r.lo = j + alive.trailing_zeros() as usize;
                }
                r.hi = j + 32 - alive.leading_zeros() as usize;
            }
            if record != 0 {
                r.best_j = j + 31 - record.leading_zeros() as usize;
            }
            ramp = _mm256_add_epi32(ramp, step);
            j += N;
        }
        if r.best_j != 0 {
            r.best = _mm_cvtsi128_si32(_mm256_castsi256_si128(carry_h));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_score::blosum62;
    use psc_seqio::prng::{for_cases, SplitMix64};

    /// The lane bodies this CPU can run — named here by feature
    /// detection, never through `Body::pick`.
    fn lane_bodies() -> Vec<Body> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut bodies = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                bodies.push(Body::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                bodies.push(Body::Avx2);
            }
        }
        bodies
    }

    /// A used scratch: every cell holds `with` (a value that would win
    /// any maximum it reached, in most callers).
    fn poisoned(width: usize, with: i32) -> ExtendScratch {
        ExtendScratch {
            rows: vec![with; 3 * width],
        }
    }

    fn reversed(s: &[u8]) -> Vec<u8> {
        s.iter().rev().copied().collect()
    }

    /// Side lengths on and around the vector widths, or anything up to
    /// `max`.
    fn side_len(g: &mut SplitMix64, max: usize) -> usize {
        if g.chance(0.35) {
            *g.select(&[1, 15, 16, 17, 31, 32, 33])
        } else {
            g.range(1..=max)
        }
    }

    /// Mostly the 20 amino acids, sometimes B, Z, X or `*` (20–23).
    fn residue(g: &mut SplitMix64) -> u8 {
        if g.chance(0.08) {
            g.range(20..24u8)
        } else {
            g.range(0..20u8)
        }
    }

    fn noise(g: &mut SplitMix64, len: usize) -> Vec<u8> {
        (0..len).map(|_| residue(g)).collect()
    }

    /// `len` residues descended from `a`: substitutions, short indels,
    /// and now and then a stretch of noise the extension has to narrow
    /// through before the window widens again; noise once `a` runs out.
    fn homolog(g: &mut SplitMix64, a: &[u8], len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut i = 0;
        while out.len() < len {
            match g.range(0..100u32) {
                0..=2 => i += g.range(1..=4usize),
                3..=5 => {
                    let inserted = g.range(1..=4usize);
                    out.extend(noise(g, inserted));
                }
                6 => {
                    let stretch = g.range(3..=12usize);
                    out.extend(noise(g, stretch));
                    i += stretch;
                }
                7..=18 => {
                    out.push(residue(g));
                    i += 1;
                }
                _ => {
                    out.push(a.get(i).copied().unwrap_or_else(|| residue(g)));
                    i += 1;
                }
            }
        }
        out.truncate(len);
        out
    }

    /// A gap model inside the lane bodies' contract, and the longest
    /// side worth sweeping under it (a drop-off that prunes nothing
    /// makes every sweep the full rectangle).
    fn gap_model(g: &mut SplitMix64) -> (GapConfig, usize) {
        let (open, extend) = *g.select(&[(11, 1), (11, 1), (0, 1), (9, 2), (5, 0), (0, 0)]);
        let xdrop = *g.select(&[0, 7, 38, 38, 120, 10_000]);
        let max_extent = if g.chance(0.2) {
            *g.select(&[1, 10, 16, 17, 40])
        } else {
            2000
        };
        let cfg = GapConfig {
            open,
            extend,
            xdrop,
            max_extent,
        };
        let longest = if xdrop > 38 || extend == 0 { 90 } else { 700 };
        (cfg, longest)
    }

    /// Every body, both directions, on one pair of sides: all four
    /// outputs equal the scalar sweep's. The lane bodies run on
    /// `dirty`, whatever earlier cases left in it.
    fn check(a: &[u8], b: &[u8], cfg: &GapConfig, dirty: &mut ExtendScratch) {
        let m = blosum62();
        let fresh = &mut ExtendScratch::new();
        let want: [Swept; 2] = [
            sweep::<false>(m, a, b, cfg, fresh, Body::Scalar),
            sweep::<true>(m, a, b, cfg, fresh, Body::Scalar),
        ];
        for body in lane_bodies() {
            let got = [
                sweep::<false>(m, a, b, cfg, dirty, body),
                sweep::<true>(m, a, b, cfg, dirty, body),
            ];
            assert_eq!(got, want, "{body:?} under {cfg:?}\na = {a:?}\nb = {b:?}");
        }
    }

    /// Neither sequence is read past its last residue or before its
    /// first, by any body in either direction (the lane bodies load the
    /// subject sixteen or eight cells at a time, masked at the edges):
    /// both sides lie against an unreadable page, behind them and then
    /// before them.
    #[cfg(target_os = "linux")]
    #[test]
    fn no_body_reads_past_either_sequence() {
        use crate::guard::Guarded;
        let mut dirty = poisoned(64, i32::MAX);
        for_cases(0x5eed_0003_0004, 400, |g| {
            let (cfg, longest) = gap_model(g);
            let (n, m) = (side_len(g, longest), side_len(g, longest));
            let a = noise(g, n);
            let b = homolog(g, &a, m);
            for place in [Guarded::before_a_guard, Guarded::after_a_guard] {
                check(&place(&a), &place(&b), &cfg, &mut dirty);
            }
        });
    }

    #[test]
    fn lane_bodies_match_the_scalar_sweep_on_noise() {
        let mut dirty = poisoned(64, i32::MAX);
        for_cases(0x5eed_0003_0001, 6000, |g| {
            let (cfg, longest) = gap_model(g);
            let (a, b) = (side_len(g, longest), side_len(g, longest));
            check(&noise(g, a), &noise(g, b), &cfg, &mut dirty);
        });
    }

    #[test]
    fn lane_bodies_match_the_scalar_sweep_on_homologs() {
        let mut dirty = poisoned(64, 0);
        let mut reached = 0usize;
        for_cases(0x5eed_0003_0002, 6000, |g| {
            let (cfg, longest) = gap_model(g);
            let (len_a, len_b) = (side_len(g, longest), side_len(g, longest));
            let a = noise(g, len_a);
            let b = homolog(g, &a, len_b);
            check(&a, &b, &cfg, &mut dirty);
            let (_, i, _, _) = sweep::<false>(blosum62(), &a, &b, &cfg, &mut dirty, Body::Scalar);
            reached = reached.max(i);
        });
        assert!(reached > 600, "no extension ran long: {reached}");
    }

    /// The backwards read is the forwards read of the reversed sides,
    /// and a scratch full of winning values changes nothing — for the
    /// body that defines the sweep, which the other tests then trust.
    #[test]
    fn scalar_sweep_reads_backwards_in_place_and_ignores_the_scratch() {
        for_cases(0x5eed_0003_0003, 2000, |g| {
            let (cfg, longest) = gap_model(g);
            let (len_a, len_b) = (side_len(g, longest), side_len(g, longest));
            let a = noise(g, len_a);
            let b = homolog(g, &a, len_b);
            let m = blosum62();
            let fresh = &mut ExtendScratch::new();
            let forwards = sweep::<false>(m, &a, &b, &cfg, fresh, Body::Scalar);
            let poison = &mut poisoned(b.len() + 1, *g.select(&[i32::MAX, 0, 1000, NEG_INF]));
            assert_eq!(
                sweep::<false>(m, &a, &b, &cfg, poison, Body::Scalar),
                forwards
            );
            assert_eq!(
                sweep::<true>(m, &reversed(&a), &reversed(&b), &cfg, poison, Body::Scalar),
                forwards
            );
        });
    }

    /// `gapped_extend` through the dispatch against the two scalar
    /// sweeps, on a subject long enough that copying or filling
    /// `max_extent` cells per anchor would show — and the scratch does
    /// not grow after the first call.
    #[test]
    fn extension_in_a_long_subject_matches_scalar_and_allocates_once() {
        let m = blosum62();
        let cfg = GapConfig::default();
        let g = &mut SplitMix64::new(0x5eed_0003_0004);
        let mut s1 = noise(g, 1_000_000);
        let s0 = noise(g, 300);
        // Homologs of `s0` at both ends of the subject and deep inside.
        for at in [0, 500_000, s1.len() - 300] {
            let copy = homolog(g, &s0, 300);
            s1[at..at + 300].copy_from_slice(&copy);
        }
        let anchors = [
            (150, 500_150),
            (0, 0),
            (0, 500_000),
            (300, s1.len()),
            (300, 500_300),
            (150, 150),
            (150, s1.len() - 150),
            (0, s1.len()),
            (300, 0),
        ];
        let scratch = &mut ExtendScratch::new();
        let scalar = &mut ExtendScratch::new();
        let mut capacity = None;
        let mut longest = 0;
        for (a0, a1) in anchors {
            let got = gapped_extend(m, &s0, &s1, a0, a1, &cfg, scratch);
            let (right, ri, rj, rc) =
                sweep::<false>(m, &s0[a0..], &s1[a1..], &cfg, scalar, Body::Scalar);
            let (left, li, lj, lc) =
                sweep::<true>(m, &s0[..a0], &s1[..a1], &cfg, scalar, Body::Scalar);
            let want = GappedHit {
                score: left + right,
                start0: a0 - li,
                end0: a0 + ri,
                start1: a1 - lj,
                end1: a1 + rj,
                cells: lc + rc,
            };
            assert_eq!(got, want, "anchor ({a0}, {a1})");
            let held = scratch.rows.capacity();
            assert_eq!(*capacity.get_or_insert(held), held, "anchor ({a0}, {a1})");
            longest = longest.max(got.end0 - got.start0);
        }
        assert!(
            longest > 250,
            "no anchor extended over its homolog: {longest}"
        );
    }

    /// Each body's speed, called directly over the same anchors: 2 000
    /// in a 200 k-residue subject, one in fifty on a homolog and the
    /// rest in noise, as step 3 sees them. Prints ns per DP cell; run
    /// `cargo test --release -p psc-align --lib -- --ignored --nocapture ns_per_cell`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn bodies_ns_per_cell() {
        let m = blosum62();
        let cfg = GapConfig::default();
        let g = &mut SplitMix64::new(0x5eed_0003_0006);
        let mut s1 = noise(g, 200_000);
        let anchors: Vec<(Vec<u8>, usize, usize)> = (0..2000)
            .map(|n| {
                let s0 = noise(g, 300);
                let at = g.range(0..s1.len() - 300);
                if n % 50 == 0 {
                    let copy = homolog(g, &s0, 300);
                    s1[at..at + 300].copy_from_slice(&copy);
                }
                (s0, g.range(0..=300usize), at + g.range(0..=300usize))
            })
            .collect();
        let mut bodies = vec![Body::Scalar];
        bodies.extend(lane_bodies());
        let scratch = &mut ExtendScratch::new();
        let mut scalar = (0i64, 0u64);
        for body in bodies {
            let mut best = f64::INFINITY;
            let mut sums = (0i64, 0u64);
            for _ in 0..5 {
                sums = (0, 0);
                let t0 = std::time::Instant::now();
                for (s0, a0, a1) in &anchors {
                    let right = sweep::<false>(m, &s0[*a0..], &s1[*a1..], &cfg, scratch, body);
                    let left = sweep::<true>(m, &s0[..*a0], &s1[..*a1], &cfg, scratch, body);
                    sums.0 += i64::from(right.0 + left.0);
                    sums.1 += right.3 + left.3;
                }
                best = best.min(t0.elapsed().as_secs_f64());
            }
            if body == Body::Scalar {
                scalar = sums;
            }
            assert_eq!(sums, scalar, "{body:?}");
            println!(
                "{body:?}: {:.2} ns per cell ({} cells over {} anchors, {:.1} us per anchor)",
                best * 1e9 / sums.1 as f64,
                sums.1,
                anchors.len(),
                best * 1e6 / anchors.len() as f64
            );
        }
    }

    /// A model outside the contract runs the scalar body at the entry
    /// every caller uses.
    #[test]
    fn negative_gap_costs_take_the_scalar_sweep() {
        let m = blosum62();
        let g = &mut SplitMix64::new(0x5eed_0003_0005);
        let a = noise(g, 120);
        let b = homolog(g, &a, 120);
        for (open, extend, xdrop) in [
            (-3, 1, 38),
            (11, -1, 38),
            (11, 1, -5),
            (i32::MAX / 8, 1, 38),
        ] {
            let cfg = GapConfig {
                open,
                extend,
                xdrop,
                max_extent: 60,
            };
            assert_eq!(Body::pick(&cfg, 60), Body::Scalar, "{cfg:?}");
            let scratch = &mut ExtendScratch::new();
            assert_eq!(
                xdrop_half::<false>(m, &a, &b, &cfg, scratch),
                sweep::<false>(m, &a, &b, &cfg, scratch, Body::Scalar)
            );
            assert_eq!(
                xdrop_half::<true>(m, &a, &b, &cfg, scratch),
                sweep::<true>(m, &a, &b, &cfg, scratch, Body::Scalar)
            );
        }
    }
}
