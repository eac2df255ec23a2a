//! Gapped extension (the paper's step 3).
//!
//! Two cooperating algorithms, mirroring NCBI BLAST's structure:
//!
//! * [`gapped_extend`] — affine-gap **X-drop extension** from a seed
//!   anchor, one dynamic-programming sweep to the right of the anchor and
//!   one to the left (the prefixes read backwards). It finds the maximal
//!   scoring gapped segment pair and its coordinate ranges without
//!   storing a traceback, so memory stays linear in the band. The sweep
//!   itself lives in [`crate::xdrop`].
//! * [`banded_global`] — **banded global alignment with traceback** over
//!   the ranges the extension chose, used when the actual alignment
//!   (match/substitution/indel operations) must be reported.

use psc_score::SubstitutionMatrix;

pub use crate::xdrop::{gapped_extend, ExtendScratch};

/// Affine gap model and X-drop control.
///
/// A gap of length `L` costs `open + extend·L` (NCBI convention: the
/// default "11/1" means `open = 11`, `extend = 1`, so a 1-residue gap
/// costs 12).
///
/// `open`, `extend` and `xdrop` are *costs*: non-negative, and small
/// against `i32` (the DP subtracts up to `open + extend·max_extent`
/// from a quarter of `i32::MIN`); `max_extent ≥ 1`. [`gapped_extend`]
/// still answers for a model outside that contract — a negative cost
/// rewards gaps — but only through its one-cell-at-a-time sweep: the
/// vector sweep is exact because gap moves only subtract.
#[derive(Clone, Copy, Debug)]
pub struct GapConfig {
    pub open: i32,
    pub extend: i32,
    /// Abandon a DP cell when it falls this far below the best score.
    pub xdrop: i32,
    /// Hard cap on extension length per direction (bounds memory/time on
    /// pathological inputs).
    pub max_extent: usize,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            open: 11,
            extend: 1,
            xdrop: 38,
            max_extent: 2000,
        }
    }
}

/// Result of a gapped extension around an anchor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GappedHit {
    /// Total raw score.
    pub score: i32,
    /// Half-open ranges of the aligned segments.
    pub start0: usize,
    pub end0: usize,
    pub start1: usize,
    pub end1: usize,
    /// DP cells the two sweeps evaluated — the work this extension
    /// cost, a function of the sequences and the gap model alone.
    pub cells: u64,
}

/// The DP's `−∞`: far enough from `i32::MIN` that the gap costs of a
/// whole sweep can be subtracted from it without wrapping.
pub(crate) const NEG_INF: i32 = i32::MIN / 4;

/// One alignment operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlignOp {
    /// Aligned pair, identical residues.
    Match,
    /// Aligned pair, different residues.
    Sub,
    /// Residue of sequence 0 aligned to a gap.
    Del,
    /// Residue of sequence 1 aligned to a gap.
    Ins,
}

/// A scored alignment with its operation string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alignment {
    pub score: i32,
    pub ops: Vec<AlignOp>,
}

impl Alignment {
    /// Number of identically aligned residues.
    pub fn identities(&self) -> usize {
        self.ops.iter().filter(|&&o| o == AlignOp::Match).count()
    }

    /// Number of aligned (non-gap) columns.
    pub fn aligned_columns(&self) -> usize {
        self.ops
            .iter()
            .filter(|&&o| matches!(o, AlignOp::Match | AlignOp::Sub))
            .count()
    }

    /// Render the classic three-line alignment view.
    pub fn render(&self, s0: &[u8], s1: &[u8]) -> String {
        let mut l0 = String::new();
        let mut mid = String::new();
        let mut l1 = String::new();
        let (mut i, mut j) = (0usize, 0usize);
        for &op in &self.ops {
            match op {
                AlignOp::Match | AlignOp::Sub => {
                    l0.push(psc_seqio::Aa(s0[i]).to_ascii() as char);
                    l1.push(psc_seqio::Aa(s1[j]).to_ascii() as char);
                    mid.push(if op == AlignOp::Match { '|' } else { ' ' });
                    i += 1;
                    j += 1;
                }
                AlignOp::Del => {
                    l0.push(psc_seqio::Aa(s0[i]).to_ascii() as char);
                    l1.push('-');
                    mid.push(' ');
                    i += 1;
                }
                AlignOp::Ins => {
                    l0.push('-');
                    l1.push(psc_seqio::Aa(s1[j]).to_ascii() as char);
                    mid.push(' ');
                    j += 1;
                }
            }
        }
        format!("{l0}\n{mid}\n{l1}")
    }
}

/// Banded global alignment with affine gaps and traceback.
///
/// Aligns all of `a` against all of `b`, restricting the DP to cells
/// within `band_pad` of the corner-to-corner diagonal corridor. Used to
/// recover the operations for ranges that [`gapped_extend`] selected —
/// with a `band_pad` comfortably above the indel count the optimal path
/// stays inside the band and the returned score equals the extension's.
pub fn banded_global(
    matrix: &SubstitutionMatrix,
    a: &[u8],
    b: &[u8],
    cfg: &GapConfig,
    band_pad: usize,
) -> Alignment {
    let n = a.len();
    let m = b.len();
    // Band: j - i ∈ [dlo, dhi].
    let dlo = (m as i64 - n as i64).min(0) - band_pad as i64;
    let dhi = (m as i64 - n as i64).max(0) + band_pad as i64;
    let width = (dhi - dlo + 1) as usize;

    // Traceback codes per (i, banded j): 2 bits for H's source, plus gap
    // run continuation bits for E and F.
    const TB_DIAG: u8 = 0;
    const TB_E: u8 = 1; // came from E (gap in a / Ins)
    const TB_F: u8 = 2; // came from F (gap in b / Del)
    const TB_E_EXT: u8 = 4; // E continued an existing gap
    const TB_F_EXT: u8 = 8; // F continued an existing gap
    let mut tb = vec![0u8; (n + 1) * width];

    let col = |i: usize, j: usize| -> Option<usize> {
        let d = j as i64 - i as i64;
        if d < dlo || d > dhi {
            None
        } else {
            Some((d - dlo) as usize)
        }
    };

    let mut h_prev = vec![NEG_INF; width + 1];
    let mut h_cur = vec![NEG_INF; width + 1];
    let mut e_prev = vec![NEG_INF; width + 1];
    let mut e_cur = vec![NEG_INF; width + 1];
    let mut f_prev = vec![NEG_INF; width + 1];
    let mut f_cur = vec![NEG_INF; width + 1];

    // Row 0.
    for j in 0..=m {
        if let Some(c) = col(0, j) {
            let s = if j == 0 {
                0
            } else {
                -(cfg.open + cfg.extend * j as i32)
            };
            h_prev[c] = s;
            e_prev[c] = s;
            if j > 0 {
                tb[c] = TB_E | if j > 1 { TB_E_EXT } else { 0 };
            }
        }
    }

    for i in 1..=n {
        h_cur.fill(NEG_INF);
        e_cur.fill(NEG_INF);
        f_cur.fill(NEG_INF);
        let jlo = ((i as i64 + dlo).max(0)) as usize;
        let jhi = ((i as i64 + dhi).min(m as i64)) as usize;
        for j in jlo..=jhi {
            let c = col(i, j).expect("j within band by construction");
            // In banded diagonal coordinates, (i-1, j) is column c+1 of
            // the previous row, (i-1, j-1) is column c, and (i, j-1) is
            // column c-1 of the current row.
            let up = if c + 1 < width {
                h_prev[c + 1]
            } else {
                NEG_INF
            };
            let up_f = if c + 1 < width {
                f_prev[c + 1]
            } else {
                NEG_INF
            };
            let f_open = up.saturating_add(-(cfg.open + cfg.extend));
            let f_ext = up_f.saturating_add(-cfg.extend);
            let f = f_open.max(f_ext);

            let (left, left_e) = if c > 0 {
                (h_cur[c - 1], e_cur[c - 1])
            } else {
                (NEG_INF, NEG_INF)
            };
            let e_open = left.saturating_add(-(cfg.open + cfg.extend));
            let e_ext = left_e.saturating_add(-cfg.extend);
            let e = e_open.max(e_ext);

            let diag = if j >= 1 {
                h_prev[c].saturating_add(matrix.score(a[i - 1], b[j - 1]))
            } else {
                NEG_INF
            };

            let h = diag.max(e).max(f);
            h_cur[c] = h;
            e_cur[c] = e;
            f_cur[c] = f;
            let mut code = if h == diag && j >= 1 {
                TB_DIAG
            } else if h == f {
                TB_F
            } else {
                TB_E
            };
            if f_ext >= f_open {
                code |= TB_F_EXT;
            }
            if e_ext >= e_open {
                code |= TB_E_EXT;
            }
            tb[i * width + c] = code;
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut e_prev, &mut e_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
    }

    let end_c = col(n, m).expect("corner inside band");
    let score = h_prev[end_c];

    // Traceback.
    let mut ops = Vec::with_capacity(n + m);
    let (mut i, mut j) = (n, m);
    // Which layer we are in: 0 = H, 1 = E-run, 2 = F-run.
    let mut layer = 0u8;
    while i > 0 || j > 0 {
        let c = col(i, j).expect("traceback inside band");
        let code = tb[i * width + c];
        match layer {
            0 => match code & 3 {
                TB_DIAG => {
                    ops.push(if a[i - 1] == b[j - 1] {
                        AlignOp::Match
                    } else {
                        AlignOp::Sub
                    });
                    i -= 1;
                    j -= 1;
                }
                TB_E => {
                    layer = 1;
                }
                _ => {
                    layer = 2;
                }
            },
            1 => {
                ops.push(AlignOp::Ins);
                let cont = code & TB_E_EXT != 0;
                j -= 1;
                if !cont {
                    layer = 0;
                }
            }
            _ => {
                ops.push(AlignOp::Del);
                let cont = code & TB_F_EXT != 0;
                i -= 1;
                if !cont {
                    layer = 0;
                }
            }
        }
    }
    ops.reverse();
    Alignment { score, ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_score::blosum62;
    use psc_seqio::alphabet::encode_protein;

    fn cfg() -> GapConfig {
        GapConfig::default()
    }

    /// The extension, on a scratch of its own.
    fn gapped_extend(
        m: &SubstitutionMatrix,
        s0: &[u8],
        s1: &[u8],
        anchor0: usize,
        anchor1: usize,
        cfg: &GapConfig,
    ) -> GappedHit {
        super::gapped_extend(m, s0, s1, anchor0, anchor1, cfg, &mut ExtendScratch::new())
    }

    #[test]
    fn extend_identical_sequences() {
        let m = blosum62();
        let s = encode_protein(b"MKVLAWRNDCQEHFY");
        let self_score: i32 = s.iter().map(|&c| m.score(c, c)).sum();
        let hit = gapped_extend(m, &s, &s, 7, 7, &cfg());
        assert_eq!(hit.score, self_score);
        assert_eq!((hit.start0, hit.end0), (0, s.len()));
        assert_eq!((hit.start1, hit.end1), (0, s.len()));
    }

    #[test]
    fn cells_count_the_dp_work_of_both_sweeps() {
        let m = blosum62();
        // One residue each side of the anchor boundary: the right sweep
        // evaluates the single cell (1, 1), the left sweep has nothing.
        let w = encode_protein(b"W");
        assert_eq!(gapped_extend(m, &w, &w, 0, 0, &cfg()).cells, 1);
        assert_eq!(gapped_extend(m, &w, &w, 1, 1, &cfg()).cells, 1);
        assert_eq!(gapped_extend(m, &w, &[], 0, 0, &cfg()).cells, 0);
        // The sweeps are mirror images: extending right from the start
        // costs what extending left from the end of the reversed pair
        // does, and an anchor in the middle costs the two halves.
        let s0 = encode_protein(b"MKVLAWHHHRNDCQEHFYWMKVLAW");
        let s1 = encode_protein(b"MKVLAWRNDCQEHFYWMKILAW");
        let rev = |s: &[u8]| s.iter().rev().copied().collect::<Vec<u8>>();
        let right = gapped_extend(m, &s0, &s1, 0, 0, &cfg());
        let left = gapped_extend(m, &rev(&s0), &rev(&s1), s0.len(), s1.len(), &cfg());
        assert_eq!(right.cells, left.cells);
        assert_eq!(right.score, left.score);
        let (a0, a1) = (9, 6);
        let mid = gapped_extend(m, &s0, &s1, a0, a1, &cfg());
        let halves = gapped_extend(m, &s0[a0..], &s1[a1..], 0, 0, &cfg()).cells
            + gapped_extend(m, &s0[..a0], &s1[..a1], a0, a1, &cfg()).cells;
        assert_eq!(mid.cells, halves);
        // Never more than the two full rectangles.
        assert!(mid.cells <= (s0.len() * s1.len()) as u64);
    }

    #[test]
    fn extend_bridges_a_gap() {
        let m = blosum62();
        // s1 = s0 with three residues deleted in the middle.
        let s0 = encode_protein(b"MKVLAWHHHRNDCQEHFYW");
        let s1 = encode_protein(b"MKVLAWRNDCQEHFYW");
        let hit = gapped_extend(m, &s0, &s1, 0, 0, &cfg());
        let full_match: i32 = s1.iter().map(|&c| m.score(c, c)).sum::<i32>();
        // Expected: all of s1 matched (score of its self-alignment)
        // minus the cost of a 3-residue gap (11 + 3×1).
        let expect = full_match - (11 + 3);
        assert_eq!(hit.score, expect);
        assert_eq!((hit.start0, hit.end0), (0, s0.len()));
        assert_eq!((hit.start1, hit.end1), (0, s1.len()));
    }

    #[test]
    fn extend_does_not_cross_heavy_noise() {
        let m = blosum62();
        let s0 = encode_protein(b"MKVLAWWWWWWW");
        let s1 = encode_protein(b"MKVLAWPPPPPP");
        let hit = gapped_extend(m, &s0, &s1, 0, 0, &cfg());
        // The W-vs-P tail only hurts; best is the identical head.
        assert_eq!(hit.score, 33);
        assert_eq!(hit.end0, 6);
        assert_eq!(hit.end1, 6);
    }

    #[test]
    fn extend_from_mid_anchor_reaches_left() {
        let m = blosum62();
        let s = encode_protein(b"RNDCQEMKVLAW");
        let hit = gapped_extend(m, &s, &s, 9, 9, &cfg());
        let self_score: i32 = s.iter().map(|&c| m.score(c, c)).sum();
        assert_eq!(hit.score, self_score);
        assert_eq!(hit.start0, 0);
    }

    #[test]
    fn empty_anchor_edges() {
        let m = blosum62();
        let s = encode_protein(b"MKV");
        let e: Vec<u8> = vec![];
        let hit = gapped_extend(m, &s, &e, 0, 0, &cfg());
        assert_eq!(hit.score, 0);
        // Anchor at the very end: right half is empty, the left half
        // aligns the whole prefix (self-score of MKV = 14).
        let hit = gapped_extend(m, &s, &s, 3, 3, &cfg());
        assert_eq!(hit.score, 14);
        assert_eq!((hit.start0, hit.end0), (0, 3));
    }

    #[test]
    fn extension_sees_only_max_extent_around_the_anchor() {
        // Each sweep reads at most `max_extent` residues of either
        // side. The answer must equal the one on the sequences cut to
        // `[anchor − max_extent, anchor + max_extent]`, with coordinates
        // shifted by the cut — for anchors deeper than `max_extent`,
        // exactly at it, at the very start and at the very end.
        let m = blosum62();
        let cfg = GapConfig {
            max_extent: 40,
            ..GapConfig::default()
        };
        let mut rng = psc_seqio::prng::SplitMix64::new(0x9e37_79b9_7f4a_7c15);
        // s1 is s0 with a residue dropped every 37 and one substituted
        // every 11, so extensions run long, cross gaps, and would keep
        // going past `max_extent` if allowed to.
        let s0: Vec<u8> = (0..600).map(|_| rng.range(0..20u8)).collect();
        let s1: Vec<u8> = s0
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 37 != 36)
            .map(|(i, &c)| if i % 11 == 5 { (c + 7) % 20 } else { c })
            .collect();
        let cut = |s: &[u8], anchor: usize| -> (usize, Vec<u8>) {
            let lo = anchor.saturating_sub(cfg.max_extent);
            let hi = (anchor + cfg.max_extent).min(s.len());
            (lo, s[lo..hi].to_vec())
        };
        let anchors = [
            (300, 292),           // deep in both
            (cfg.max_extent, 41), // exactly max_extent deep / one past
            (41, cfg.max_extent), // and the other way round
            (0, 0),               // no left half
            (s0.len(), s1.len()), // no right half
            (s0.len(), 250),      // mixed
            (17, 500),            // shallow in one, deep in the other
        ];
        let mut long_left = false;
        for (a0, a1) in anchors {
            let full = gapped_extend(m, &s0, &s1, a0, a1, &cfg);
            let (lo0, c0) = cut(&s0, a0);
            let (lo1, c1) = cut(&s1, a1);
            let local = gapped_extend(m, &c0, &c1, a0 - lo0, a1 - lo1, &cfg);
            let shifted = GappedHit {
                score: local.score,
                start0: local.start0 + lo0,
                end0: local.end0 + lo0,
                start1: local.start1 + lo1,
                end1: local.end1 + lo1,
                cells: local.cells,
            };
            assert_eq!(full, shifted, "anchor ({a0}, {a1})");
            assert!(a0 - full.start0 <= cfg.max_extent && a1 - full.start1 <= cfg.max_extent);
            long_left |= a0 - full.start0 > cfg.max_extent / 2;
        }
        assert!(long_left, "no case exercised a long left extension");
    }

    #[test]
    fn banded_global_identity() {
        let m = blosum62();
        let s = encode_protein(b"MKVLAW");
        let aln = banded_global(m, &s, &s, &cfg(), 8);
        assert_eq!(aln.score, 33);
        assert_eq!(aln.identities(), 6);
        assert_eq!(aln.aligned_columns(), 6);
        assert!(aln.ops.iter().all(|&o| o == AlignOp::Match));
    }

    #[test]
    fn banded_global_with_gap() {
        let m = blosum62();
        let a = encode_protein(b"MKVLAWRND");
        let b = encode_protein(b"MKVRND"); // LAW deleted
        let aln = banded_global(m, &a, &b, &cfg(), 8);
        let matched: i32 = b.iter().map(|&c| m.score(c, c)).sum();
        assert_eq!(aln.score, matched - 14);
        assert_eq!(aln.identities(), 6);
        let dels = aln.ops.iter().filter(|&&o| o == AlignOp::Del).count();
        assert_eq!(dels, 3);
        // Gap must be one run of 3, not three separate opens.
        let rendered = aln.render(&a, &b);
        assert!(rendered.contains("---"), "{rendered}");
    }

    #[test]
    fn banded_global_substitution() {
        let m = blosum62();
        let a = encode_protein(b"MKVLAW");
        let b = encode_protein(b"MKILAW"); // V->I, score +3
        let aln = banded_global(m, &a, &b, &cfg(), 4);
        assert_eq!(aln.score, 33 - 4 + 3);
        assert_eq!(aln.identities(), 5);
        assert_eq!(aln.ops[2], AlignOp::Sub);
    }

    #[test]
    fn banded_global_agrees_with_extension_score() {
        // On ranges chosen by gapped_extend, banded_global with a generous
        // band reproduces the same score.
        let m = blosum62();
        let s0 = encode_protein(b"MKVLAWHHHRNDCQEHFYWGGAML");
        let s1 = encode_protein(b"MKVLAWRNDCQEHFYWGGAML");
        let hit = gapped_extend(m, &s0, &s1, 0, 0, &cfg());
        let aln = banded_global(
            m,
            &s0[hit.start0..hit.end0],
            &s1[hit.start1..hit.end1],
            &cfg(),
            16,
        );
        assert_eq!(aln.score, hit.score);
    }

    #[test]
    fn render_shapes() {
        let m = blosum62();
        let a = encode_protein(b"MKV");
        let b = encode_protein(b"MKV");
        let aln = banded_global(m, &a, &b, &cfg(), 2);
        assert_eq!(aln.render(&a, &b), "MKV\n|||\nMKV");
    }
}
