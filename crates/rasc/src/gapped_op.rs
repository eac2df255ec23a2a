//! The gapped-extension operator — the paper's proposed follow-up design.
//!
//! The conclusion of the paper observes that once step 2 runs on the
//! array, step 3 (gapped extension) dominates (Table 7), and proposes
//! "the design of another reconfigurable operator dedicated to the
//! computation of similarities including gap penalty", running
//! concurrently on the RASC-100's second FPGA.
//!
//! This module simulates that operator as a **banded anti-diagonal
//! systolic array**: `band` PEs hold one anti-diagonal of the affine DP
//! matrix and advance one anti-diagonal per clock, so extending a
//! candidate whose two segments have lengths `m` and `n` costs
//! `m + n + band` cycles, independent of the band width's cell count —
//! the classic systolic Smith–Waterman arrangement (cf. the paper's
//! reference \[6\]). Scores are computed functionally with the same
//! X-drop extension the software pipeline uses, so results are identical
//! by construction and only the *timing* is modelled.

use psc_align::{gapped_extend, ExtendScratch, GapConfig, GappedHit};
use psc_score::SubstitutionMatrix;

use crate::config::DEFAULT_CLOCK_HZ;
use crate::resource::{ResourceError, LX200_BRAMS, LX200_SLICES};

/// Configuration of the systolic gapped operator.
#[derive(Clone, Debug)]
pub struct GappedOperatorConfig {
    /// Anti-diagonal PE count = DP band width in cells.
    pub band: usize,
    /// Pipeline fill/drain latency per extension job (cycles).
    pub job_latency: u64,
    /// Clock frequency.
    pub clock_hz: u64,
    /// Gap model shared with the software path.
    pub gap: GapConfig,
}

impl Default for GappedOperatorConfig {
    fn default() -> Self {
        GappedOperatorConfig {
            band: 64,
            job_latency: 32,
            clock_hz: DEFAULT_CLOCK_HZ,
            gap: GapConfig::default(),
        }
    }
}

/// A DP-cell PE is heavier than a PSC scoring PE: three affine lanes
/// (H/E/F), a max tree and the substitution lookup.
const GAPPED_PE_SLICES: u32 = 420;
const GAPPED_PE_BRAMS: u32 = 1;
const GAPPED_CORE_SLICES: u32 = 11_000; // SGI core + band controllers

/// Check the gapped array fits one LX200.
pub fn check_gapped_resources(config: &GappedOperatorConfig) -> Result<(), ResourceError> {
    let slices = GAPPED_CORE_SLICES + config.band as u32 * GAPPED_PE_SLICES;
    let brams = 24 + config.band as u32 * GAPPED_PE_BRAMS;
    if slices > LX200_SLICES {
        return Err(ResourceError::SlicesExceeded {
            needed: slices,
            available: LX200_SLICES,
        });
    }
    if brams > LX200_BRAMS {
        return Err(ResourceError::BramsExceeded {
            needed: brams,
            available: LX200_BRAMS,
        });
    }
    Ok(())
}

/// Result of running a batch of extensions through the operator.
#[derive(Clone, Debug, Default)]
pub struct GappedOperatorResult {
    pub hits: Vec<GappedHit>,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Extensions whose optimal path may leave the band (|len₀ − len₁|
    /// of the chosen segments exceeds the band) — the hardware would
    /// fall back to the host for these; counted for honesty.
    pub band_overflows: u64,
}

impl GappedOperatorResult {
    pub fn seconds(&self, config: &GappedOperatorConfig) -> f64 {
        self.cycles as f64 / config.clock_hz as f64
    }
}

/// The simulated gapped-extension operator.
#[derive(Debug)]
pub struct GappedOperator {
    config: GappedOperatorConfig,
    matrix: SubstitutionMatrix,
}

impl GappedOperator {
    pub fn new(
        config: GappedOperatorConfig,
        matrix: &SubstitutionMatrix,
    ) -> Result<GappedOperator, ResourceError> {
        check_gapped_resources(&config)?;
        Ok(GappedOperator {
            config,
            matrix: matrix.clone(),
        })
    }

    pub fn config(&self) -> &GappedOperatorConfig {
        &self.config
    }

    /// Extend one anchored candidate. Returns the hit (identical to the
    /// software `gapped_extend`) and the cycles the systolic array would
    /// spend: one clock per anti-diagonal of the explored rectangle,
    /// plus fixed job latency. `scratch` is the caller's, so one
    /// operator serves many workers.
    pub fn extend(
        &self,
        s0: &[u8],
        s1: &[u8],
        anchor0: usize,
        anchor1: usize,
        scratch: &mut ExtendScratch,
    ) -> (GappedHit, u64, bool) {
        let gap = &self.config.gap;
        let hit = gapped_extend(&self.matrix, s0, s1, anchor0, anchor1, gap, scratch);
        let m = (hit.end0 - hit.start0) as u64;
        let n = (hit.end1 - hit.start1) as u64;
        let cycles = m + n + self.config.job_latency;
        let overflow = m.abs_diff(n) > self.config.band as u64;
        (hit, cycles, overflow)
    }

    /// Extend a batch of candidates; jobs stream back-to-back through
    /// the array (the fill of one overlaps the drain of the previous, so
    /// per-job latency is paid once per job, already in `extend`).
    pub fn extend_batch<'a>(
        &self,
        jobs: impl Iterator<Item = (&'a [u8], &'a [u8], usize, usize)>,
    ) -> GappedOperatorResult {
        let mut out = GappedOperatorResult::default();
        let mut scratch = ExtendScratch::new();
        for (s0, s1, a0, a1) in jobs {
            let (hit, cycles, overflow) = self.extend(s0, s1, a0, a1, &mut scratch);
            out.hits.push(hit);
            out.cycles += cycles;
            out.band_overflows += overflow as u64;
        }
        out
    }
}

/// Banded local Smith–Waterman evaluated in **systolic order**: one
/// anti-diagonal per clock, exactly as the array of DP-cell PEs would
/// compute it. Returns `(best_local_score, cycles)` where cycles is the
/// number of anti-diagonals processed (`m + n − 1` when both inputs are
/// non-empty).
///
/// This is the cycle-accurate counterpart of the analytic model in
/// [`GappedOperator::extend`]: it demonstrates the banded affine DP is
/// computable one anti-diagonal at a time with only the two previous
/// anti-diagonals live — the dependency structure the systolic layout
/// requires — and it validates the `m + n` cycle count.
pub fn systolic_banded_sw(
    matrix: &SubstitutionMatrix,
    a: &[u8],
    b: &[u8],
    band: usize,
    gap: &GapConfig,
) -> (i32, u64) {
    const NEG: i32 = i32::MIN / 4;
    let (m, n) = (a.len(), b.len());
    if m == 0 || n == 0 {
        return (0, 0);
    }
    // Cells live on anti-diagonal d = i + j (0-based residue indices);
    // within a diagonal, index by i. The band restricts |i − j| ≤ band.
    // Three lanes per cell (H, E, F); keep two previous diagonals.
    let width = m + 1;
    let mut h2 = vec![NEG; width]; // H on d-2
    let mut h1 = vec![NEG; width]; // H on d-1
    let mut e1 = vec![NEG; width]; // E on d-1 (gap consuming b)
    let mut f1 = vec![NEG; width]; // F on d-1 (gap consuming a)
    let mut best = 0i32;
    let mut cycles = 0u64;

    for d in 0..(m + n - 1) {
        cycles += 1;
        let mut h_now = vec![NEG; width];
        let mut e_now = vec![NEG; width];
        let mut f_now = vec![NEG; width];
        let i_lo = d.saturating_sub(n - 1);
        let i_hi = d.min(m - 1);
        for i in i_lo..=i_hi {
            let j = d - i;
            if i.abs_diff(j) > band {
                continue;
            }
            // E: gap consuming b — predecessor is (i, j-1), on d-1,
            // same i.
            let e = if j > 0 {
                (h1[i].saturating_add(-(gap.open + gap.extend)))
                    .max(e1[i].saturating_add(-gap.extend))
            } else {
                NEG
            };
            // F: gap consuming a — predecessor (i-1, j), on d-1, i-1.
            let f = if i > 0 {
                (h1[i - 1].saturating_add(-(gap.open + gap.extend)))
                    .max(f1[i - 1].saturating_add(-gap.extend))
            } else {
                NEG
            };
            // Diagonal: (i-1, j-1) on d-2, index i-1; local SW clamps
            // at 0 (a fresh start).
            let diag_base = if i > 0 && j > 0 { h2[i - 1].max(0) } else { 0 };
            let h = (diag_base + matrix.score(a[i], b[j])).max(e).max(f).max(0);
            h_now[i] = h;
            e_now[i] = e;
            f_now[i] = f;
            best = best.max(h);
        }
        h2 = std::mem::replace(&mut h1, h_now);
        e1 = e_now;
        f1 = f_now;
    }
    (best, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_score::blosum62;
    use psc_seqio::alphabet::encode_protein;

    #[test]
    fn matches_software_extension_exactly() {
        let op = GappedOperator::new(GappedOperatorConfig::default(), blosum62()).unwrap();
        let s0 = encode_protein(b"MKVLAWHHHRNDCQEHFYWGGAML");
        let s1 = encode_protein(b"MKVLAWRNDCQEHFYWGGAML");
        let scratch = &mut ExtendScratch::new();
        let (hit, cycles, _) = op.extend(&s0, &s1, 0, 0, scratch);
        let sw = gapped_extend(blosum62(), &s0, &s1, 0, 0, &GapConfig::default(), scratch);
        assert_eq!(hit, sw);
        assert_eq!(
            cycles,
            (hit.end0 - hit.start0 + hit.end1 - hit.start1) as u64 + 32
        );
    }

    #[test]
    fn batch_accumulates() {
        let op = GappedOperator::new(GappedOperatorConfig::default(), blosum62()).unwrap();
        let s = encode_protein(b"MKVLAWRNDCQEHFYW");
        let jobs = vec![
            (s.as_slice(), s.as_slice(), 0usize, 0usize),
            (s.as_slice(), s.as_slice(), 8, 8),
        ];
        let r = op.extend_batch(jobs.into_iter());
        assert_eq!(r.hits.len(), 2);
        assert!(r.cycles > 64);
        assert!(r.seconds(op.config()) > 0.0);
        assert_eq!(r.band_overflows, 0);
    }

    #[test]
    fn band_overflow_detected() {
        let cfg = GappedOperatorConfig {
            band: 2, // absurdly narrow
            ..GappedOperatorConfig::default()
        };
        let op = GappedOperator::new(cfg, blosum62()).unwrap();
        // Segments of very different length: a long gap in one sequence.
        let s0 = encode_protein(b"MKVLAWRNDCQEHFYWMKVLAWRNDCQEHFYW");
        let s1 = encode_protein(b"MKVLAWHHHHHHHHHHHHHHHHRNDCQEHFYWMKVLAWRNDCQEHFYW");
        let (_, _, overflow) = op.extend(&s0, &s1, 0, 0, &mut ExtendScratch::new());
        assert!(overflow, "16-residue indel must exceed a 2-cell band");
    }

    #[test]
    fn resource_limits() {
        assert!(check_gapped_resources(&GappedOperatorConfig::default()).is_ok());
        let cfg = GappedOperatorConfig {
            band: 100_000,
            ..GappedOperatorConfig::default()
        };
        assert!(check_gapped_resources(&cfg).is_err());
        assert!(GappedOperator::new(cfg, blosum62()).is_err());
    }

    #[test]
    fn systolic_sw_matches_identity_score() {
        let m = blosum62();
        let s = encode_protein(b"MKVLAWRNDCQEHFYW");
        let self_score: i32 = s.iter().map(|&c| m.score(c, c)).sum();
        let (score, cycles) = systolic_banded_sw(m, &s, &s, 64, &GapConfig::default());
        assert_eq!(score, self_score);
        assert_eq!(cycles, (2 * s.len() - 1) as u64);
    }

    #[test]
    fn systolic_sw_dominates_anchored_extension() {
        // Full local SW over the segment pair can only beat (or tie) the
        // anchored X-drop extension on the same segments.
        let m = blosum62();
        let a = encode_protein(b"MKVLAWHHHRNDCQEHFYWGGAML");
        let b = encode_protein(b"MKVLAWRNDCQEHFYWGGAML");
        let cfg = GapConfig::default();
        let anchored = gapped_extend(m, &a, &b, 0, 0, &cfg, &mut ExtendScratch::new());
        let (sw, _) = systolic_banded_sw(
            m,
            &a[anchored.start0..anchored.end0],
            &b[anchored.start1..anchored.end1],
            64,
            &cfg,
        );
        assert!(
            sw >= anchored.score,
            "systolic {sw} < anchored {}",
            anchored.score
        );
    }

    #[test]
    fn systolic_band_clamps_score() {
        // With a long indel between the matched halves, a narrow band
        // cannot bridge the gap; a wide one can.
        let m = blosum62();
        let a = encode_protein(b"MKVLAWRNDCQEHFYWMKVLAWRNDCQEHFYW");
        let b = encode_protein(b"MKVLAWRNDCQEHFYWHHHHHHHHHHHHHHHHHHHHHHHHMKVLAWRNDCQEHFYW");
        let cfg = GapConfig::default();
        let (narrow, _) = systolic_banded_sw(m, &a, &b, 4, &cfg);
        let (wide, _) = systolic_banded_sw(m, &a, &b, 48, &cfg);
        assert!(wide > narrow, "wide {wide} vs narrow {narrow}");
    }

    #[test]
    fn systolic_empty_inputs() {
        let m = blosum62();
        assert_eq!(
            systolic_banded_sw(m, &[], &[1, 2], 8, &GapConfig::default()),
            (0, 0)
        );
        assert_eq!(
            systolic_banded_sw(m, &[1], &[], 8, &GapConfig::default()),
            (0, 0)
        );
    }

    #[test]
    fn cycles_scale_with_alignment_size() {
        let op = GappedOperator::new(GappedOperatorConfig::default(), blosum62()).unwrap();
        let small = encode_protein(b"MKVLAWRN");
        let big: Vec<u8> = small.iter().cycle().take(200).copied().collect();
        let scratch = &mut ExtendScratch::new();
        let (_, c_small, _) = op.extend(&small, &small, 0, 0, scratch);
        let (_, c_big, _) = op.extend(&big, &big, 0, 0, scratch);
        assert!(c_big > 2 * c_small);
    }
}
