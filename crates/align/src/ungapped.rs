//! Ungapped extension kernels (the paper's step 2).
//!
//! The critical section the RASC-100 accelerates is a fixed-length
//! windowed score: two substrings of length `W + 2N` (seed plus left and
//! right context) are compared position by position, accumulating
//! substitution scores and tracking a running maximum.
//!
//! ## The two kernel variants
//!
//! The paper's pseudocode reads
//!
//! ```text
//! score = max(score, score + Sub[S0[k]][S1[k]])
//! max_score = max(score, max_score)
//! ```
//!
//! which, taken literally, accumulates only the *positive part* of each
//! substitution score ([`Kernel::PaperLiteral`]). The prose and the PE
//! datapath ("the result is added to the current score and a maximum
//! value is computed") describe the standard one-dimensional
//! Smith–Waterman recurrence `score = max(0, score + sub)`
//! ([`Kernel::ClampedSum`], the default — it is what an actual BLAST-like
//! filter needs, because the literal variant's score never decreases and
//! therefore cannot "forget" a noisy prefix). Both are implemented; the
//! PSC-operator simulator is tested bit-identical against whichever is
//! configured. EXPERIMENTS.md, "Measured causes and negatives", records
//! what the literal variant costs.

// A hot module: no panic path outside test code (DESIGN §9).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use psc_score::SubstitutionMatrix;

/// Which recurrence the ungapped window score uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Kernel {
    /// `score = max(0, score + sub)` — 1-D Smith–Waterman (default).
    #[default]
    ClampedSum,
    /// `score = max(score, score + sub)` — the pseudocode as printed.
    PaperLiteral,
}

/// Maximum windowed score of two equal-length windows under a kernel.
///
/// This function *is* the PE datapath: one table lookup, one add, one or
/// two max gates per residue pair. The simulator's processing element is
/// tested to produce exactly these values cycle by cycle.
#[inline]
pub fn ungapped_score(kernel: Kernel, matrix: &SubstitutionMatrix, s0: &[u8], s1: &[u8]) -> i32 {
    debug_assert_eq!(s0.len(), s1.len());
    let mut score = 0i32;
    let mut max_score = 0i32;
    match kernel {
        Kernel::ClampedSum => {
            for (&a, &b) in s0.iter().zip(s1) {
                score = (score + matrix.score(a, b)).max(0);
                max_score = max_score.max(score);
            }
        }
        Kernel::PaperLiteral => {
            for (&a, &b) in s0.iter().zip(s1) {
                score = score.max(score + matrix.score(a, b));
                max_score = max_score.max(score);
            }
        }
    }
    max_score
}

/// Result of an X-drop ungapped extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UngappedHit {
    /// Raw score of the best ungapped segment found.
    pub score: i32,
    /// Start offsets of the segment in the two sequences.
    pub start0: usize,
    pub start1: usize,
    /// Segment length (equal in both sequences — no gaps).
    pub len: usize,
}

impl UngappedHit {
    /// Diagonal of the hit (`start1 - start0`), the key BLAST uses for
    /// two-hit bookkeeping and duplicate suppression.
    #[inline]
    pub fn diagonal(&self) -> i64 {
        self.start1 as i64 - self.start0 as i64
    }
}

/// NCBI-style X-drop ungapped extension from a word hit.
///
/// Starting from the word at `(pos0, pos1)` of length `word_len`, extend
/// right then left, abandoning a direction when the running score falls
/// more than `xdrop` below the best seen. Unlike the fixed-window kernel
/// this is unbounded (it can extend to the sequence ends); it is the
/// reference the baseline uses and the fixed-window kernel approximates.
pub fn xdrop_ungapped(
    matrix: &SubstitutionMatrix,
    seq0: &[u8],
    seq1: &[u8],
    pos0: usize,
    pos1: usize,
    word_len: usize,
    xdrop: i32,
) -> UngappedHit {
    debug_assert!(pos0 + word_len <= seq0.len());
    debug_assert!(pos1 + word_len <= seq1.len());

    // Score of the word itself.
    let word_score: i32 = (0..word_len)
        .map(|k| matrix.score(seq0[pos0 + k], seq1[pos1 + k]))
        .sum();

    // Extend right.
    let mut best = word_score;
    let mut running = word_score;
    let mut best_right = 0usize; // residues beyond the word
    {
        let mut k = 0usize;
        loop {
            let (i, j) = (pos0 + word_len + k, pos1 + word_len + k);
            if i >= seq0.len() || j >= seq1.len() {
                break;
            }
            running += matrix.score(seq0[i], seq1[j]);
            k += 1;
            if running > best {
                best = running;
                best_right = k;
            } else if running <= best - xdrop {
                break;
            }
        }
    }

    // Extend left from the word start, on top of the best-right total.
    let mut running = best;
    let mut best_left = 0usize;
    {
        let mut k = 0usize;
        loop {
            if k >= pos0 || k >= pos1 {
                break;
            }
            let (i, j) = (pos0 - k - 1, pos1 - k - 1);
            running += matrix.score(seq0[i], seq1[j]);
            k += 1;
            if running > best {
                best = running;
                best_left = k;
            } else if running <= best - xdrop {
                break;
            }
        }
    }

    UngappedHit {
        score: best,
        start0: pos0 - best_left,
        start1: pos1 - best_left,
        len: word_len + best_left + best_right,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_score::blosum62;
    use psc_seqio::alphabet::encode_protein;

    fn score(kernel: Kernel, a: &[u8], b: &[u8]) -> i32 {
        ungapped_score(kernel, blosum62(), &encode_protein(a), &encode_protein(b))
    }

    #[test]
    fn identical_windows_score_self() {
        let w = b"MKVLAWMKVLAW";
        // Self-score of MKVLAW = 5+5+4+4+4+11 = 33, doubled = 66.
        assert_eq!(score(Kernel::ClampedSum, w, w), 66);
        assert_eq!(score(Kernel::PaperLiteral, w, w), 66);
    }

    #[test]
    fn clamped_sum_forgets_bad_prefix() {
        // Bad prefix (W vs P = -4, repeated) then a strong identical tail:
        // ClampedSum resets to 0 and scores the tail fully.
        let a = b"WWWWMKVLAW";
        let b = b"PPPPMKVLAW";
        let tail = 33;
        assert_eq!(score(Kernel::ClampedSum, a, b), tail);
        // PaperLiteral never decreases, so it also reaches 33 here —
        // the variants differ on *interleaved* noise, tested below.
        assert_eq!(score(Kernel::PaperLiteral, a, b), tail);
    }

    #[test]
    fn kernels_differ_on_interleaved_noise() {
        // Alternating good/bad pairs: PaperLiteral sums only positives,
        // ClampedSum pays for the negatives.
        let a = b"WPWPWPWP";
        let b = b"WWWWWWWW"; // W/W = +11, P/W = -4
        let literal = score(Kernel::PaperLiteral, a, b);
        let clamped = score(Kernel::ClampedSum, a, b);
        assert_eq!(literal, 44); // four +11, negatives ignored
        assert_eq!(clamped, 32); // 11-4+11-4+11-4+11 = 32
        assert!(literal > clamped);
    }

    #[test]
    fn empty_window_scores_zero() {
        assert_eq!(score(Kernel::ClampedSum, b"", b""), 0);
        assert_eq!(score(Kernel::PaperLiteral, b"", b""), 0);
    }

    #[test]
    fn all_mismatch_scores_zero() {
        // max_score starts at 0 and nothing positive ever accumulates.
        let a = b"WWWW";
        let b = b"PPPP";
        assert_eq!(score(Kernel::ClampedSum, a, b), 0);
        assert_eq!(score(Kernel::PaperLiteral, a, b), 0);
    }

    #[test]
    fn max_is_over_prefixes_not_final() {
        // Strong start, weak finish: max must remember the peak.
        let a = b"MKVLAWPPPP";
        let b = b"MKVLAWGGGG"; // P/G = -2 each
        let peak = 33;
        assert_eq!(score(Kernel::ClampedSum, a, b), peak);
    }

    #[test]
    fn xdrop_extends_over_full_identity() {
        let m = blosum62();
        let s = encode_protein(b"MKVLAWRNDCQE");
        let hit = xdrop_ungapped(m, &s, &s, 4, 4, 3, 10);
        assert_eq!(hit.start0, 0);
        assert_eq!(hit.start1, 0);
        assert_eq!(hit.len, s.len());
        let self_score: i32 = s.iter().map(|&c| m.score(c, c)).sum();
        assert_eq!(hit.score, self_score);
        assert_eq!(hit.diagonal(), 0);
    }

    #[test]
    fn xdrop_stops_at_noise() {
        let m = blosum62();
        // Identical core flanked by strong mismatches.
        let a = encode_protein(b"PPPPPPMKVLAWPPPPPP");
        let b = encode_protein(b"WWWWWWMKVLAWWWWWWW");
        let hit = xdrop_ungapped(m, &a, &b, 6, 6, 4, 7);
        assert_eq!(hit.start0, 6);
        assert_eq!(hit.len, 6);
        assert_eq!(hit.score, 33);
    }

    #[test]
    fn xdrop_respects_sequence_bounds() {
        let m = blosum62();
        let a = encode_protein(b"MKV");
        let b = encode_protein(b"AAMKV");
        let hit = xdrop_ungapped(m, &a, &b, 0, 2, 3, 100);
        assert_eq!(hit.start0, 0);
        assert_eq!(hit.start1, 2);
        assert_eq!(hit.len, 3);
        assert_eq!(hit.diagonal(), 2);
    }

    #[test]
    fn xdrop_finds_peak_not_endpoint() {
        let m = blosum62();
        // After the core, one +ve then many -ves: the peak is the core.
        let a = encode_protein(b"MKVLAWA");
        let b = encode_protein(b"MKVLAWV"); // A/V = 0
        let hit = xdrop_ungapped(m, &a, &b, 0, 0, 6, 50);
        assert_eq!(hit.score, 33);
        assert_eq!(hit.len, 6); // A/V adds 0, not > best, len stays 6
    }
}
