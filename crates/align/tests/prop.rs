//! Property tests for extension kernels and gapped alignment.

use psc_align::{
    banded_global, gapped_extend, ungapped_score, xdrop_ungapped, ExtendScratch, GapConfig, Kernel,
};
use psc_score::blosum62;
use psc_seqio::prng::{for_cases, SplitMix64};

fn residues(g: &mut SplitMix64, len: std::ops::Range<usize>) -> Vec<u8> {
    g.vec(len, |g| g.range(0u8..20))
}

/// A position drawn uniformly from those where a `w`-mer fits in `s`.
fn word_pos(g: &mut SplitMix64, s: &[u8], w: usize) -> usize {
    ((s.len() - w) as f64 * g.f64()) as usize
}

/// The windowed score is bounded by 0 below and by the sum of
/// positive pair scores above, for both kernels.
#[test]
fn window_score_bounds() {
    for_cases(0xa101, 256, |g| {
        let (s0, s1) = (residues(g, 0..80), residues(g, 0..80));
        let n = s0.len().min(s1.len());
        let (s0, s1) = (&s0[..n], &s1[..n]);
        let m = blosum62();
        let pos_sum: i32 = s0.iter().zip(s1).map(|(&a, &b)| m.score(a, b).max(0)).sum();
        for kernel in [Kernel::ClampedSum, Kernel::PaperLiteral] {
            let s = ungapped_score(kernel, m, s0, s1);
            assert!(s >= 0);
            assert!(s <= pos_sum);
        }
    });
}

/// PaperLiteral accumulates positives only, so it always dominates
/// ClampedSum.
#[test]
fn literal_dominates_clamped() {
    for_cases(0xa102, 256, |g| {
        let (s0, s1) = (residues(g, 1..80), residues(g, 1..80));
        let n = s0.len().min(s1.len());
        let m = blosum62();
        assert!(
            ungapped_score(Kernel::PaperLiteral, m, &s0[..n], &s1[..n])
                >= ungapped_score(Kernel::ClampedSum, m, &s0[..n], &s1[..n])
        );
    });
}

/// Matrix symmetry makes both kernels symmetric in their arguments.
#[test]
fn window_score_symmetric() {
    for_cases(0xa103, 256, |g| {
        let (s0, s1) = (residues(g, 0..60), residues(g, 0..60));
        let n = s0.len().min(s1.len());
        let m = blosum62();
        for kernel in [Kernel::ClampedSum, Kernel::PaperLiteral] {
            assert_eq!(
                ungapped_score(kernel, m, &s0[..n], &s1[..n]),
                ungapped_score(kernel, m, &s1[..n], &s0[..n])
            );
        }
    });
}

/// X-drop extension never scores below the bare word, and its
/// reported segment reproduces the reported score.
#[test]
fn xdrop_consistent() {
    for_cases(0xa104, 256, |g| {
        let (s0, s1) = (residues(g, 12..120), residues(g, 12..120));
        let m = blosum62();
        let w = 3usize;
        let (pos0, pos1) = (word_pos(g, &s0, w), word_pos(g, &s1, w));
        let word_score: i32 = (0..w).map(|k| m.score(s0[pos0 + k], s1[pos1 + k])).sum();
        let hit = xdrop_ungapped(m, &s0, &s1, pos0, pos1, w, 12);
        assert!(hit.score >= word_score);
        // Recompute the segment score.
        let recomputed: i32 = (0..hit.len)
            .map(|k| m.score(s0[hit.start0 + k], s1[hit.start1 + k]))
            .sum();
        assert_eq!(recomputed, hit.score);
        assert!(hit.start0 + hit.len <= s0.len());
        assert!(hit.start1 + hit.len <= s1.len());
    });
}

/// Gapped extension from an anchor dominates ungapped extension from
/// the same anchor (gaps only add options).
#[test]
fn gapped_dominates_ungapped() {
    for_cases(0xa105, 256, |g| {
        let (s0, s1) = (residues(g, 12..100), residues(g, 12..100));
        let m = blosum62();
        let w = 3usize;
        let (pos0, pos1) = (word_pos(g, &s0, w), word_pos(g, &s1, w));
        let ung = xdrop_ungapped(m, &s0, &s1, pos0, pos1, w, 1_000_000);
        let cfg = GapConfig {
            xdrop: 1_000_000,
            ..GapConfig::default()
        };
        let gap = gapped_extend(m, &s0, &s1, pos0, pos1, &cfg, &mut ExtendScratch::new());
        assert!(
            gap.score >= ung.score,
            "gapped {} < ungapped {}",
            gap.score,
            ung.score
        );
    });
}

/// banded_global with a full-width band reproduces gapped_extend's
/// score on the ranges the extension chose.
#[test]
fn traceback_score_matches_extension() {
    for_cases(0xa106, 256, |g| {
        let (s0, s1) = (residues(g, 10..60), residues(g, 10..60));
        let m = blosum62();
        let cfg = GapConfig::default();
        let hit = gapped_extend(m, &s0, &s1, 0, 0, &cfg, &mut ExtendScratch::new());
        let a = &s0[hit.start0..hit.end0];
        let b = &s1[hit.start1..hit.end1];
        if !a.is_empty() || !b.is_empty() {
            let band = a.len().max(b.len()) + 2; // full-width band
            let aln = banded_global(m, a, b, &cfg, band);
            assert_eq!(aln.score, hit.score);
            // Ops must consume exactly the two ranges.
            let used0 = aln
                .ops
                .iter()
                .filter(|o| !matches!(o, psc_align::AlignOp::Ins))
                .count();
            let used1 = aln
                .ops
                .iter()
                .filter(|o| !matches!(o, psc_align::AlignOp::Del))
                .count();
            assert_eq!(used0, a.len());
            assert_eq!(used1, b.len());
        }
    });
}
