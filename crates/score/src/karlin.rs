//! Karlin–Altschul statistics: λ, K, H, bit scores and E-values.
//!
//! Ungapped parameters are computed numerically from the substitution
//! matrix and background frequencies exactly as in Karlin & Altschul
//! (PNAS 1990): λ is the positive root of `Σ pᵢpⱼ e^{λ sᵢⱼ} = 1`, H is the
//! relative entropy of the λ-tilted score distribution, and K follows the
//! lattice-case formula with the σ series evaluated by convolving the
//! one-step score distribution.
//!
//! Gapped statistics cannot be derived analytically; like NCBI BLAST we
//! carry a table of published parameters (BLOSUM62 with the default
//! open/extend penalties) and fall back to the computed ungapped values —
//! a conservative choice (it overestimates E-values of gapped alignments).

use crate::freqs::ROBINSON_FREQS;
use crate::matrix::{blosum62, SubstitutionMatrix};

/// Karlin–Altschul parameter set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KarlinParams {
    /// Scale of the scoring system (nats per score unit).
    pub lambda: f64,
    /// Search-space scale factor.
    pub k: f64,
    /// Relative entropy (nats per aligned pair).
    pub h: f64,
}

impl KarlinParams {
    /// Bit score of a raw score.
    #[inline]
    pub fn bit_score(&self, raw: i32) -> f64 {
        (self.lambda * raw as f64 - self.k.ln()) / std::f64::consts::LN_2
    }

    /// E-value of a raw score in an `m × n` search space.
    #[inline]
    pub fn evalue(&self, raw: i32, m: usize, n: usize) -> f64 {
        self.k * m as f64 * n as f64 * (-self.lambda * raw as f64).exp()
    }

    /// Smallest raw score whose E-value is at most `evalue` in an
    /// `m × n` search space.
    pub fn score_for_evalue(&self, evalue: f64, m: usize, n: usize) -> i32 {
        // The 1e-9 slack keeps an exactly-attained E-value from ceiling
        // one score unit too high under floating-point noise.
        let s = ((self.k * m as f64 * n as f64 / evalue).ln() / self.lambda - 1e-9).ceil();
        s.max(0.0) as i32
    }
}

/// BLAST's length adjustment ("edge-effect correction"): an alignment
/// cannot start in the last ~ℓ residues of either sequence, so the
/// effective search space shrinks. ℓ solves the fixed point
/// `ℓ = ln(K·(m−ℓ)·(n−N·ℓ)) / H` (NCBI `BlastComputeLengthAdjustment`),
/// iterated from 0 with clamping; `seq_count` is the number of database
/// sequences N.
pub fn length_adjustment(params: &KarlinParams, m: usize, n: usize, seq_count: usize) -> usize {
    if m == 0 || n == 0 || params.h <= 0.0 {
        return 0;
    }
    let (mf, nf, nseq) = (m as f64, n as f64, seq_count.max(1) as f64);
    let mut ell = 0.0f64;
    for _ in 0..20 {
        let m_eff = (mf - ell).max(1.0);
        let n_eff = (nf - nseq * ell).max(1.0);
        let next = (params.k * m_eff * n_eff).ln().max(0.0) / params.h;
        // Clamp so effective lengths stay positive.
        let next = next.min(mf - 1.0).min((nf - 1.0) / nseq).max(0.0);
        if (next - ell).abs() < 0.5 {
            ell = next;
            break;
        }
        ell = next;
    }
    ell as usize
}

/// Effective search space `(m−ℓ)·(n−N·ℓ)` after length adjustment.
pub fn effective_search_space(
    params: &KarlinParams,
    m: usize,
    n: usize,
    seq_count: usize,
) -> (usize, usize) {
    let ell = length_adjustment(params, m, n, seq_count);
    (
        m.saturating_sub(ell).max(1),
        n.saturating_sub(seq_count.max(1) * ell).max(1),
    )
}

/// Published gapped parameters (NCBI `blast_stat.c` tables).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GappedParams {
    pub gap_open: i32,
    pub gap_extend: i32,
    pub params: KarlinParams,
}

/// Published gapped Karlin parameters for BLOSUM62.
pub const BLOSUM62_GAPPED: &[GappedParams] = &[
    GappedParams {
        gap_open: 11,
        gap_extend: 1,
        params: KarlinParams {
            lambda: 0.267,
            k: 0.041,
            h: 0.14,
        },
    },
    GappedParams {
        gap_open: 10,
        gap_extend: 1,
        params: KarlinParams {
            lambda: 0.243,
            k: 0.024,
            h: 0.10,
        },
    },
    GappedParams {
        gap_open: 12,
        gap_extend: 1,
        params: KarlinParams {
            lambda: 0.283,
            k: 0.059,
            h: 0.19,
        },
    },
];

/// Look up published gapped parameters for a matrix/penalty combination,
/// by the matrix's scores (its name is whatever its builder chose);
/// `None` means the caller should fall back to ungapped parameters.
pub fn gapped_params(matrix: &SubstitutionMatrix, open: i32, extend: i32) -> Option<KarlinParams> {
    if matrix.flat() == blosum62().flat() {
        BLOSUM62_GAPPED
            .iter()
            .find(|g| g.gap_open == open && g.gap_extend == extend)
            .map(|g| g.params)
    } else {
        None
    }
}

/// The statistics a search reports E-values with: the published gapped
/// parameters if the table has them, else the ungapped ones under
/// Robinson frequencies; `None` if those do not exist either.
pub fn search_params(matrix: &SubstitutionMatrix, open: i32, extend: i32) -> Option<KarlinParams> {
    gapped_params(matrix, open, extend).or_else(|| ungapped_params(matrix, &ROBINSON_FREQS))
}

/// The one-step score distribution `P(S = s)` for independent residue
/// pairs under background frequencies, as a dense vector over
/// `[min_score, max_score]`.
fn score_distribution(matrix: &SubstitutionMatrix, freqs: &[f64; 20]) -> (i32, Vec<f64>) {
    let low = matrix.min_score();
    let high = matrix.max_score();
    let mut probs = vec![0.0; (high - low + 1) as usize];
    for (i, &pi) in freqs.iter().enumerate() {
        for (j, &pj) in freqs.iter().enumerate() {
            let s = matrix.score(i as u8, j as u8);
            probs[(s - low) as usize] += pi * pj;
        }
    }
    (low, probs)
}

/// Solve `Σ P(s) e^{λs} = 1` for λ > 0 by bisection.
///
/// Returns `None` when the expected score is non-negative (no positive
/// root exists — the scoring system is unusable for local alignment).
pub fn compute_lambda(matrix: &SubstitutionMatrix, freqs: &[f64; 20]) -> Option<f64> {
    if matrix.expected_score(freqs) >= 0.0 || matrix.max_score() <= 0 {
        return None;
    }
    let (low, probs) = score_distribution(matrix, freqs);
    let phi = |lambda: f64| -> f64 {
        probs
            .iter()
            .enumerate()
            .map(|(k, &p)| p * (lambda * (low + k as i32) as f64).exp())
            .sum::<f64>()
            - 1.0
    };
    // φ(0) = 0, φ'(0) = E[S] < 0, φ(λ) → ∞: bracket the positive root.
    let mut hi = 0.5;
    while phi(hi) < 0.0 {
        hi *= 2.0;
        if hi > 100.0 {
            return None;
        }
    }
    let mut lo = 1e-9;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if phi(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Relative entropy `H = λ Σ s P(s) e^{λs}` (nats per aligned pair).
pub fn compute_h(matrix: &SubstitutionMatrix, freqs: &[f64; 20], lambda: f64) -> f64 {
    let (low, probs) = score_distribution(matrix, freqs);
    let av: f64 = probs
        .iter()
        .enumerate()
        .map(|(k, &p)| {
            let s = (low + k as i32) as f64;
            p * s * (lambda * s).exp()
        })
        .sum();
    lambda * av
}

/// Greatest common divisor of all attainable score differences (the score
/// lattice span δ).
fn score_gcd(matrix: &SubstitutionMatrix, freqs: &[f64; 20]) -> i32 {
    let (low, probs) = score_distribution(matrix, freqs);
    let mut g = 0i32;
    for (k, &p) in probs.iter().enumerate() {
        if p > 0.0 {
            let s = low + k as i32;
            if s != 0 {
                g = gcd(g, s.abs());
            }
        }
    }
    g.max(1)
}

fn gcd(a: i32, b: i32) -> i32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Compute K using the Karlin–Altschul lattice formula
/// `K = δλ e^{-2σ} / (H (1 - e^{-δλ}))` with
/// `σ = Σ_{k≥1} (1/k) [ P(S_k ≥ 0) + P̃(S_k < 0) ]`,
/// where `S_k` is the k-step score walk and `P̃` its λ-tilted law.
pub fn compute_k(matrix: &SubstitutionMatrix, freqs: &[f64; 20], lambda: f64, h: f64) -> f64 {
    let (low, step) = score_distribution(matrix, freqs);
    let high = low + step.len() as i32 - 1;
    let delta = score_gcd(matrix, freqs) as f64;

    const MAX_ITER: usize = 80;
    // Dense distribution of S_k over [k*low, k*high]; start with S_1.
    let mut walk = step.clone();
    let mut walk_low = low;
    let mut sigma = 0.0;
    for k in 1..=MAX_ITER {
        // bracket_k = P(S_k >= 0) + (1 - E[e^{λ S_k}; S_k >= 0]).
        let mut p_ge0 = 0.0;
        let mut tilted_ge0 = 0.0;
        for (idx, &p) in walk.iter().enumerate() {
            let s = walk_low + idx as i32;
            if s >= 0 {
                p_ge0 += p;
                tilted_ge0 += p * (lambda * s as f64).exp();
            }
        }
        let bracket = p_ge0 + (1.0 - tilted_ge0.min(1.0));
        sigma += bracket / k as f64;
        if bracket < 1e-14 {
            break;
        }
        if k < MAX_ITER {
            // Convolve with the one-step distribution.
            let new_low = walk_low + low;
            let new_len = walk.len() + step.len() - 1;
            let mut next = vec![0.0; new_len];
            for (i, &wp) in walk.iter().enumerate() {
                if wp == 0.0 {
                    continue;
                }
                for (j, &sp) in step.iter().enumerate() {
                    next[i + j] += wp * sp;
                }
            }
            walk = next;
            walk_low = new_low;
        }
    }
    let _ = high;
    delta * lambda * (-2.0 * sigma).exp() / (h * (1.0 - (-delta * lambda).exp()))
}

/// Compute the full ungapped parameter set for a matrix and background.
///
/// Returns `None` when the scoring system has non-negative expected score.
pub fn ungapped_params(matrix: &SubstitutionMatrix, freqs: &[f64; 20]) -> Option<KarlinParams> {
    let lambda = compute_lambda(matrix, freqs)?;
    let h = compute_h(matrix, freqs, lambda);
    let k = compute_k(matrix, freqs, lambda, h);
    Some(KarlinParams { lambda, k, h })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::match_mismatch;

    #[test]
    fn blosum62_lambda_matches_published() {
        // NCBI publishes λ = 0.3176 for BLOSUM62 / Robinson frequencies.
        let lambda = compute_lambda(blosum62(), &ROBINSON_FREQS).unwrap();
        assert!(
            (lambda - 0.3176).abs() < 0.005,
            "lambda {lambda} vs published 0.3176"
        );
    }

    #[test]
    fn blosum62_h_matches_published() {
        // Published H ≈ 0.40 nats.
        let lambda = compute_lambda(blosum62(), &ROBINSON_FREQS).unwrap();
        let h = compute_h(blosum62(), &ROBINSON_FREQS, lambda);
        assert!((h - 0.40).abs() < 0.02, "H {h} vs published 0.40");
    }

    #[test]
    fn blosum62_k_matches_published() {
        // Published K ≈ 0.134.
        let p = ungapped_params(blosum62(), &ROBINSON_FREQS).unwrap();
        assert!((p.k - 0.134).abs() < 0.02, "K {} vs published 0.134", p.k);
    }

    #[test]
    fn positive_expected_score_rejected() {
        let m = match_mismatch("always-win", 1, 1);
        assert!(compute_lambda(&m, &ROBINSON_FREQS).is_none());
        assert!(ungapped_params(&m, &ROBINSON_FREQS).is_none());
    }

    #[test]
    fn evalue_monotone_in_score() {
        let p = ungapped_params(blosum62(), &ROBINSON_FREQS).unwrap();
        let e40 = p.evalue(40, 1000, 1_000_000);
        let e50 = p.evalue(50, 1000, 1_000_000);
        assert!(e50 < e40);
        assert!(e40 > 0.0);
    }

    #[test]
    fn evalue_scales_with_search_space() {
        let p = ungapped_params(blosum62(), &ROBINSON_FREQS).unwrap();
        let e1 = p.evalue(45, 1000, 1_000_000);
        let e2 = p.evalue(45, 2000, 1_000_000);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn score_for_evalue_inverts_evalue() {
        let p = ungapped_params(blosum62(), &ROBINSON_FREQS).unwrap();
        let (m, n) = (10_000, 3_000_000);
        let s = p.score_for_evalue(1e-3, m, n);
        assert!(p.evalue(s, m, n) <= 1e-3);
        assert!(p.evalue(s - 1, m, n) > 1e-3);
    }

    #[test]
    fn bit_score_increases_with_raw() {
        let p = ungapped_params(blosum62(), &ROBINSON_FREQS).unwrap();
        assert!(p.bit_score(50) > p.bit_score(40));
        // A raw score of ~30 is about 16 bits under BLOSUM62.
        let bits = p.bit_score(30);
        assert!(bits > 10.0 && bits < 20.0, "bits {bits}");
    }

    #[test]
    fn gapped_lookup() {
        let g = gapped_params(blosum62(), 11, 1).unwrap();
        assert!((g.lambda - 0.267).abs() < 1e-9);
        assert!(gapped_params(blosum62(), 99, 9).is_none());
        let mm = match_mismatch("MM", 5, -4);
        assert!(gapped_params(&mm, 11, 1).is_none());
    }

    /// The table answers for BLOSUM62's scores under any name, and for
    /// nothing else under BLOSUM62's name: a decoy gets its own
    /// ungapped statistics.
    #[test]
    fn gapped_table_is_keyed_by_scores_not_name() {
        let mut renamed = blosum62().clone();
        renamed.name = "blosum62.ncbi".to_string();
        assert_eq!(
            search_params(&renamed, 11, 1),
            gapped_params(blosum62(), 11, 1)
        );
        let mut scores = *blosum62().flat();
        scores[0] += 1; // A↔A 4 → 5
        let decoy = SubstitutionMatrix::from_flat("BLOSUM62", scores);
        assert!(gapped_params(&decoy, 11, 1).is_none());
        let own = ungapped_params(&decoy, &ROBINSON_FREQS).unwrap();
        assert_eq!(search_params(&decoy, 11, 1), Some(own));
        assert_ne!(own, ungapped_params(blosum62(), &ROBINSON_FREQS).unwrap());
    }

    /// Gap costs the table has no entry for fall back to the ungapped
    /// statistics, and a scoring system without them has none.
    #[test]
    fn search_params_fall_back_to_ungapped() {
        let ungapped = ungapped_params(blosum62(), &ROBINSON_FREQS);
        assert_eq!(search_params(blosum62(), 9, 2), ungapped);
        let always_win = match_mismatch("always-win", 1, 1);
        assert_eq!(search_params(&always_win, 11, 1), None);
    }

    #[test]
    fn length_adjustment_behaves_like_ncbi() {
        let p = ungapped_params(blosum62(), &ROBINSON_FREQS).unwrap();
        // A 300-residue query against a 1 Maa database of 3000 sequences:
        // NCBI's adjustment is a few dozen residues.
        let ell = length_adjustment(&p, 300, 1_000_000, 3000);
        assert!(ell > 10 && ell < 120, "ell {ell}");
        // Effective space strictly smaller, never zero.
        let (me, ne) = effective_search_space(&p, 300, 1_000_000, 3000);
        assert!(me < 300 && me > 0);
        assert!(ne < 1_000_000 && ne > 0);
        // Bigger search spaces need bigger adjustments.
        let ell_big = length_adjustment(&p, 300, 100_000_000, 3000);
        assert!(ell_big > ell);
        // Degenerate inputs are safe.
        assert_eq!(length_adjustment(&p, 0, 1000, 1), 0);
        assert_eq!(length_adjustment(&p, 1000, 0, 1), 0);
        // Tiny sequences never go non-positive.
        let (me, ne) = effective_search_space(&p, 5, 8, 4);
        assert!(me >= 1 && ne >= 1);
    }

    #[test]
    fn effective_evalues_are_more_conservative() {
        // Same raw score, corrected search space → smaller E-value (the
        // correction removes unreachable alignment starts).
        let p = ungapped_params(blosum62(), &ROBINSON_FREQS).unwrap();
        let (m, n, nseq) = (500, 2_000_000, 5000);
        let (me, ne) = effective_search_space(&p, m, n, nseq);
        assert!(p.evalue(40, me, ne) < p.evalue(40, m, n));
    }

    #[test]
    fn uniform_match_mismatch_lambda_closed_form() {
        // For +1/-1 scoring with uniform frequencies, λ solves
        // p e^λ + (1-p) e^{-λ} = 1 with p = 1/20 ⇒ e^λ = (1-p)/p … check
        // numerically instead of trusting algebra: verify φ(λ*) ≈ 0.
        let m = match_mismatch("pm1", 1, -1);
        let freqs = [0.05f64; 20];
        let lambda = compute_lambda(&m, &freqs).unwrap();
        let p = 0.05f64;
        let phi = p * lambda.exp() + (1.0 - p) * (-lambda).exp();
        assert!((phi - 1.0).abs() < 1e-9, "phi {phi}");
    }
}
