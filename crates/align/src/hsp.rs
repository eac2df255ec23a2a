//! High-scoring segment pairs: the currency of steps 2 → 3 → report.

use std::cmp::Reverse;

/// A high-scoring segment pair between a query-bank sequence and a
/// subject-bank sequence, in *sequence-local* coordinates.
#[derive(Clone, Debug, PartialEq)]
pub struct Hsp {
    /// Query sequence index in bank 0.
    pub seq0: u32,
    /// Subject sequence index in bank 1.
    pub seq1: u32,
    /// Half-open residue ranges of the aligned segments.
    pub start0: u32,
    pub end0: u32,
    pub start1: u32,
    pub end1: u32,
    /// Raw (matrix-unit) score.
    pub score: i32,
    /// Bit score (0 until statistics are applied).
    pub bit_score: f64,
    /// E-value (∞ until statistics are applied).
    pub evalue: f64,
}

impl Hsp {
    /// Diagonal in the (seq0, seq1) plane.
    #[inline]
    pub fn diagonal(&self) -> i64 {
        self.start1 as i64 - self.start0 as i64
    }

    /// Fraction of `other`'s query range covered by `self`'s.
    fn overlap0(&self, other: &Hsp) -> f64 {
        let lo = self.start0.max(other.start0);
        let hi = self.end0.min(other.end0);
        if hi <= lo || other.end0 == other.start0 {
            0.0
        } else {
            (hi - lo) as f64 / (other.end0 - other.start0) as f64
        }
    }

    fn overlap1(&self, other: &Hsp) -> f64 {
        let lo = self.start1.max(other.start1);
        let hi = self.end1.min(other.end1);
        if hi <= lo || other.end1 == other.start1 {
            0.0
        } else {
            (hi - lo) as f64 / (other.end1 - other.start1) as f64
        }
    }
}

/// Remove redundant HSPs: within each `(seq0, seq1)` pair, keep HSPs in
/// descending score order and drop any whose ranges are covered at least
/// `max_overlap` (on both sequences) by an already-kept, higher-scoring
/// HSP. This is the duplicate suppression BLAST applies when many seeds
/// land inside one alignment.
pub fn cull_hsps(mut hsps: Vec<Hsp>, max_overlap: f64) -> Vec<Hsp> {
    // The sort key is a *total* order over the fields the cull reads:
    // equal-score HSPs used to keep their input order, which made the
    // kept set depend on how the caller happened to order its input.
    // Overlapped/parallel step 3 feeds this in merge order, so the
    // coordinate tie-break is what makes the result order-invariant.
    hsps.sort_by_key(|h| {
        (
            h.seq0,
            h.seq1,
            Reverse(h.score),
            h.start0,
            h.end0,
            h.start1,
            h.end1,
        )
    });
    let mut kept: Vec<Hsp> = Vec::with_capacity(hsps.len());
    let mut group_start = 0usize;
    for h in hsps {
        // New (seq0, seq1) group?
        if kept[group_start..]
            .first()
            .map(|k| (k.seq0, k.seq1) != (h.seq0, h.seq1))
            .unwrap_or(false)
        {
            group_start = kept.len();
        }
        let redundant = kept[group_start..].iter().any(|k| {
            (k.seq0, k.seq1) == (h.seq0, h.seq1)
                && k.overlap0(&h) >= max_overlap
                && k.overlap1(&h) >= max_overlap
        });
        if !redundant {
            kept.push(h);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hsp(seq0: u32, seq1: u32, s0: u32, e0: u32, s1: u32, e1: u32, score: i32) -> Hsp {
        Hsp {
            seq0,
            seq1,
            start0: s0,
            end0: e0,
            start1: s1,
            end1: e1,
            score,
            bit_score: 0.0,
            evalue: f64::INFINITY,
        }
    }

    #[test]
    fn diagonal_math() {
        assert_eq!(hsp(0, 0, 5, 10, 8, 13, 1).diagonal(), 3);
        assert_eq!(hsp(0, 0, 8, 13, 5, 10, 1).diagonal(), -3);
    }

    #[test]
    fn cull_drops_contained_duplicates() {
        let hsps = vec![
            hsp(0, 0, 0, 100, 0, 100, 80),
            hsp(0, 0, 10, 90, 10, 90, 50),     // fully inside the first
            hsp(0, 0, 200, 250, 200, 250, 40), // disjoint: kept
        ];
        let kept = cull_hsps(hsps, 0.9);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 80);
        assert_eq!(kept[1].score, 40);
    }

    #[test]
    fn cull_keeps_different_sequence_pairs() {
        let hsps = vec![
            hsp(0, 0, 0, 100, 0, 100, 80),
            hsp(0, 1, 0, 100, 0, 100, 50),
            hsp(1, 0, 0, 100, 0, 100, 50),
        ];
        assert_eq!(cull_hsps(hsps, 0.5).len(), 3);
    }

    #[test]
    fn cull_respects_overlap_threshold() {
        let hsps = vec![
            hsp(0, 0, 0, 100, 0, 100, 80),
            hsp(0, 0, 60, 160, 60, 160, 50), // 40% covered
        ];
        assert_eq!(cull_hsps(hsps.clone(), 0.9).len(), 2);
        assert_eq!(cull_hsps(hsps, 0.3).len(), 1);
    }

    #[test]
    fn cull_keeps_higher_scoring_on_tie_ranges() {
        let hsps = vec![hsp(0, 0, 0, 50, 0, 50, 10), hsp(0, 0, 0, 50, 0, 50, 90)];
        let kept = cull_hsps(hsps, 0.9);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 90);
    }

    #[test]
    fn cull_empty() {
        assert!(cull_hsps(Vec::new(), 0.5).is_empty());
    }

    #[test]
    fn cull_is_invariant_under_input_permutation() {
        // A deliberately nasty set: equal-score ties inside one
        // (seq0, seq1) group, partial overlaps on both axes, and
        // several groups. Every permutation must keep the same set.
        let base = vec![
            hsp(0, 0, 0, 100, 0, 100, 80),
            hsp(0, 0, 10, 90, 10, 90, 80),   // same score, nested range
            hsp(0, 0, 60, 160, 60, 160, 80), // same score, 40% covered
            hsp(0, 0, 0, 50, 500, 550, 70),
            hsp(0, 1, 0, 100, 0, 100, 50),
            hsp(1, 0, 0, 40, 0, 40, 50),
            hsp(1, 0, 5, 45, 5, 45, 50),
        ];
        let reference = cull_hsps(base.clone(), 0.5);
        // Walk a deterministic set of permutations: rotations plus
        // seeded Fisher–Yates shuffles.
        let mut rng = psc_seqio::prng::SplitMix64::new(0x9e37_79b9);
        for trial in 0..32 {
            let mut v = base.clone();
            let shift = trial % v.len();
            v.rotate_left(shift);
            for i in (1..v.len()).rev() {
                v.swap(i, rng.range(0..=i));
            }
            assert_eq!(cull_hsps(v, 0.5), reference, "trial {trial}");
        }
    }

    #[test]
    fn cull_requires_overlap_on_both_axes() {
        // Same query range, disjoint subject ranges (repeat in subject):
        // both must be kept.
        let hsps = vec![hsp(0, 0, 0, 50, 0, 50, 90), hsp(0, 0, 0, 50, 500, 550, 70)];
        assert_eq!(cull_hsps(hsps, 0.5).len(), 2);
    }
}
