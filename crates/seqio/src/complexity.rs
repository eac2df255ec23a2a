//! Low-complexity masking (a SEG-like entropy filter).
//!
//! BLAST-family tools mask low-complexity protein segments (poly-X runs,
//! short-period repeats) before seeding, because such segments generate
//! floods of spurious word hits. This module implements the standard
//! windowed Shannon-entropy criterion: a window whose residue entropy
//! falls below a trigger is masked to `X`, with hysteresis via a second
//! (higher) extension threshold, approximating SEG's trigger/extension
//! K2 parameters.

use crate::alphabet::{Aa, AA_STANDARD_LEN};

/// Masker parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaskConfig {
    /// Window length (SEG default: 12).
    pub window: usize,
    /// Entropy (bits) below which a window triggers masking
    /// (SEG's K2 trigger ≈ 2.2 bits).
    pub trigger: f64,
    /// Entropy below which masking, once triggered, keeps extending
    /// (SEG's K2 extension ≈ 2.5 bits).
    pub extend: f64,
}

impl Default for MaskConfig {
    fn default() -> Self {
        MaskConfig {
            window: 12,
            trigger: 2.2,
            extend: 2.5,
        }
    }
}

/// Shannon entropy (bits) of the residue distribution in `window`.
/// Non-standard residues participate as one extra symbol class.
pub fn window_entropy(window: &[u8]) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    let mut counts = [0u32; AA_STANDARD_LEN + 1];
    for &c in window {
        let idx = (c as usize).min(AA_STANDARD_LEN);
        counts[idx] += 1;
    }
    let n = window.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Return a masked copy of `residues`: positions covered by a
/// low-entropy window become `X`. Sequences shorter than the window are
/// returned unchanged.
pub fn mask_low_complexity(residues: &[u8], config: &MaskConfig) -> Vec<u8> {
    let w = config.window;
    if residues.len() < w || w == 0 {
        return residues.to_vec();
    }
    // Two-threshold sweep: a triggered region keeps extending while
    // window entropy stays below the (laxer) extension threshold.
    let mut mask = vec![false; residues.len()];
    let mut in_region = false;
    for start in 0..=residues.len() - w {
        let h = window_entropy(&residues[start..start + w]);
        let masked = if in_region {
            h < config.extend
        } else {
            h < config.trigger
        };
        if masked {
            for m in &mut mask[start..start + w] {
                *m = true;
            }
        }
        in_region = masked;
    }
    residues
        .iter()
        .zip(&mask)
        .map(|(&c, &m)| if m { Aa::X.0 } else { c })
        .collect()
}

/// Fraction of positions a masking pass would cover (diagnostics).
pub fn masked_fraction(residues: &[u8], config: &MaskConfig) -> f64 {
    if residues.is_empty() {
        return 0.0;
    }
    let masked = mask_low_complexity(residues, config);
    let n = masked
        .iter()
        .zip(residues)
        .filter(|&(&m, &o)| m == Aa::X.0 && o != Aa::X.0)
        .count();
    n as f64 / residues.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_protein;

    fn masked_ascii(s: &[u8]) -> Vec<u8> {
        let codes = mask_low_complexity(&encode_protein(s), &MaskConfig::default());
        crate::alphabet::decode_protein(&codes)
    }

    #[test]
    fn entropy_extremes() {
        // Mono-residue: zero entropy.
        assert_eq!(window_entropy(&encode_protein(b"AAAAAAAAAAAA")), 0.0);
        // 12 distinct residues: log2(12) ≈ 3.58 bits.
        let h = window_entropy(&encode_protein(b"ARNDCQEGHILK"));
        assert!((h - 12f64.log2()).abs() < 1e-9);
        // Empty window well-defined.
        assert_eq!(window_entropy(&[]), 0.0);
    }

    #[test]
    fn poly_runs_get_masked() {
        let out = masked_ascii(b"MKVLAWRNDCQEAAAAAAAAAAAAAAAAMKVLAWRNDCQE");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("XXXXXXXXXXXX"), "{text}");
        // The outer complex flanks survive; windows straddling the run
        // boundary legitimately mask a few flank residues (SEG behaves
        // the same way).
        assert!(text.starts_with("MKVLAW"), "{text}");
        assert!(text.ends_with("NDCQE"), "{text}");
    }

    #[test]
    fn two_letter_repeats_get_masked() {
        // Period-2 repeats have 1 bit of entropy — well under trigger.
        let out = masked_ascii(b"MKVLAWRNDCQESTSTSTSTSTSTSTSTSTSTMKVLAWRNDCQE");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("XXXXXXXX"), "{text}");
    }

    #[test]
    fn complex_sequence_untouched() {
        let s = b"MKVLAWRNDCQEHFYWGPSTIMKVLAWRNDCQEHFYWGPSTI";
        let out = masked_ascii(s);
        assert_eq!(out, s.to_vec());
        let frac = masked_fraction(&encode_protein(s), &MaskConfig::default());
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn short_sequences_pass_through() {
        let s = encode_protein(b"AAAA"); // shorter than the window
        assert_eq!(mask_low_complexity(&s, &MaskConfig::default()), s);
    }

    #[test]
    fn masked_fraction_scales() {
        let mixed = encode_protein(b"MKVLAWRNDCQEAAAAAAAAAAAAAAAAAAAAAAAAAAAA");
        let frac = masked_fraction(&mixed, &MaskConfig::default());
        assert!(frac > 0.4 && frac < 0.95, "frac {frac}");
    }

    #[test]
    fn hysteresis_extends_through_borderline_windows() {
        // A low-complexity core flanked by slightly-more-diverse repeat:
        // without hysteresis the flank windows (entropy between trigger
        // and extend) would be kept; with it they are masked.
        let seq = encode_protein(b"STSTSTATATSTSTSTSTSTSTATATSTST");
        let strict = MaskConfig {
            trigger: 1.2,
            extend: 1.2,
            ..MaskConfig::default()
        };
        let hyst = MaskConfig {
            trigger: 1.2,
            extend: 1.9,
            ..MaskConfig::default()
        };
        let masked_strict = mask_low_complexity(&seq, &strict)
            .iter()
            .filter(|&&c| c == Aa::X.0)
            .count();
        let masked_hyst = mask_low_complexity(&seq, &hyst)
            .iter()
            .filter(|&&c| c == Aa::X.0)
            .count();
        assert!(masked_hyst >= masked_strict);
    }
}
