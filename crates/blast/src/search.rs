//! The tblastn-style search driver.

use std::time::Instant;

use psc_align::{cull_hsps, gapped_extend, xdrop_ungapped, ExtendScratch, GapConfig, Hsp};
use psc_score::karlin::search_params;
use psc_score::{KarlinParams, SubstitutionMatrix};
use psc_seqio::Bank;

use crate::lookup::QueryLookup;
use crate::twohit::{HitAction, TwoHitTracker};

/// Baseline search parameters (NCBI tblastn defaults where they exist).
#[derive(Clone, Debug)]
pub struct BlastConfig {
    /// Word length (NCBI protein default: 3).
    pub word_len: usize,
    /// Neighbourhood threshold T (NCBI default: 11 for word length 3).
    pub word_threshold: i32,
    /// Two-hit window A (NCBI default: 40).
    pub two_hit_window: usize,
    /// X-drop for the ungapped extension (raw score units; NCBI's 7 bits
    /// ≈ 16 raw under BLOSUM62).
    pub xdrop_ungapped: i32,
    /// Raw ungapped score required to attempt a gapped extension
    /// (NCBI's gap trigger, 22 bits ≈ 41 raw under BLOSUM62).
    pub gap_trigger: i32,
    /// Gapped extension parameters (open/extend/X-drop).
    pub gap: GapConfig,
    /// Report alignments with E-value at most this (the paper uses 1e-3).
    pub max_evalue: f64,
    /// Soft low-complexity masking of the queries (seeding only).
    pub mask: Option<psc_seqio::MaskConfig>,
}

impl Default for BlastConfig {
    fn default() -> Self {
        BlastConfig {
            word_len: 3,
            word_threshold: 11,
            two_hit_window: 40,
            xdrop_ungapped: 16,
            gap_trigger: 41,
            gap: GapConfig::default(),
            max_evalue: 1e-3,
            mask: None,
        }
    }
}

/// Search outcome: HSPs plus instrumentation.
#[derive(Clone, Debug)]
pub struct BlastReport {
    pub hsps: Vec<Hsp>,
    /// Word hits examined.
    pub word_hits: u64,
    /// Ungapped extensions performed.
    pub ungapped_extensions: u64,
    /// Gapped extensions performed.
    pub gapped_extensions: u64,
    /// Wall-clock seconds: lookup build / scan+ungapped / gapped.
    pub build_seconds: f64,
    pub scan_seconds: f64,
    pub gapped_seconds: f64,
    /// Statistics used for E-values.
    pub stats: KarlinParams,
    /// Search-space size (query residues × subject residues).
    pub search_space: (usize, usize),
}

impl BlastReport {
    pub fn total_seconds(&self) -> f64 {
        self.build_seconds + self.scan_seconds + self.gapped_seconds
    }
}

/// Compare a protein query bank against a subject bank of translated
/// frames (or any protein bank), BLAST-style.
pub fn tblastn(
    queries: &Bank,
    subjects: &Bank,
    matrix: &SubstitutionMatrix,
    config: &BlastConfig,
) -> BlastReport {
    #[expect(
        clippy::disallowed_methods,
        reason = "baseline phase profile is wall-clock by definition"
    )]
    let t0 = Instant::now();
    // Soft masking applies to the lookup dictionary only; extensions see
    // the original residues.
    let masked_queries: Option<Vec<Vec<u8>>> = config.mask.as_ref().map(|mask_cfg| {
        queries
            .seqs()
            .iter()
            .map(|s| psc_seqio::mask_low_complexity(&s.residues, mask_cfg))
            .collect()
    });
    let lookup = match &masked_queries {
        Some(masked) => QueryLookup::build(
            masked.iter().map(|v| v.as_slice()),
            matrix,
            config.word_len,
            config.word_threshold,
        ),
        None => QueryLookup::build(
            queries.seqs().iter().map(|s| s.residues.as_slice()),
            matrix,
            config.word_len,
            config.word_threshold,
        ),
    };
    let build_seconds = t0.elapsed().as_secs_f64();

    let stats = search_params(matrix, config.gap.open, config.gap.extend)
        .expect("scoring system must have negative expected score");
    let m: usize = queries.total_residues();
    let n: usize = subjects.total_residues();

    // Scan phase: word hits → two-hit rule → ungapped extensions.
    #[expect(
        clippy::disallowed_methods,
        reason = "baseline phase profile is wall-clock by definition"
    )]
    let t1 = Instant::now();
    let mut word_hits = 0u64;
    let mut ungapped_extensions = 0u64;
    let mut tracker =
        TwoHitTracker::new(config.two_hit_window, config.word_len, lookup.query_total);
    // Surviving ungapped segments: (query, subject, anchor q, anchor s, raw score).
    let mut candidates: Vec<(u32, u32, usize, usize, i32)> = Vec::new();

    for (s_idx, subject) in subjects.iter() {
        tracker.reset();
        let sres = &subject.residues;
        if sres.len() < config.word_len {
            continue;
        }
        for spos in 0..=sres.len() - config.word_len {
            let Some(key) = lookup.key_of(&sres[spos..spos + config.word_len]) else {
                continue;
            };
            for site in lookup.sites(key) {
                word_hits += 1;
                match tracker.on_hit(site.qconcat, spos as u32) {
                    HitAction::Record | HitAction::Covered => {}
                    HitAction::Trigger => {
                        let qres = &queries.get(site.query as usize).residues;
                        let hit = xdrop_ungapped(
                            matrix,
                            qres,
                            sres,
                            site.qpos as usize,
                            spos,
                            config.word_len,
                            config.xdrop_ungapped,
                        );
                        ungapped_extensions += 1;
                        tracker.mark_covered(
                            site.qconcat,
                            spos as u32,
                            (hit.start1 + hit.len) as u32,
                        );
                        if hit.score >= config.gap_trigger {
                            // Anchor the gapped pass at the segment middle.
                            let mid = hit.len / 2;
                            candidates.push((
                                site.query,
                                s_idx as u32,
                                hit.start0 + mid,
                                hit.start1 + mid,
                                hit.score,
                            ));
                        }
                    }
                }
            }
        }
    }
    let scan_seconds = t1.elapsed().as_secs_f64();

    // Gapped phase.
    #[expect(
        clippy::disallowed_methods,
        reason = "baseline phase profile is wall-clock by definition"
    )]
    let t2 = Instant::now();
    let mut gapped_extensions = 0u64;
    let mut hsps = Vec::new();
    let mut scratch = ExtendScratch::new();
    for (q, s, aq, asub, _raw) in candidates {
        let qres = &queries.get(q as usize).residues;
        let sres = &subjects.get(s as usize).residues;
        let hit = gapped_extend(matrix, qres, sres, aq, asub, &config.gap, &mut scratch);
        gapped_extensions += 1;
        let evalue = stats.evalue(hit.score, m, n);
        if evalue <= config.max_evalue {
            hsps.push(Hsp {
                seq0: q,
                seq1: s,
                start0: hit.start0 as u32,
                end0: hit.end0 as u32,
                start1: hit.start1 as u32,
                end1: hit.end1 as u32,
                score: hit.score,
                bit_score: stats.bit_score(hit.score),
                evalue,
            });
        }
    }
    let hsps = cull_hsps(hsps, 0.9);
    let gapped_seconds = t2.elapsed().as_secs_f64();

    BlastReport {
        hsps,
        word_hits,
        ungapped_extensions,
        gapped_extensions,
        build_seconds,
        scan_seconds,
        gapped_seconds,
        stats,
        search_space: (m, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_datagen::{mutate_protein, random_bank, BankConfig, MutationConfig};
    use psc_score::blosum62;
    use psc_seqio::prng::SplitMix64;
    use psc_seqio::Seq;

    fn config() -> BlastConfig {
        BlastConfig::default()
    }

    #[test]
    fn finds_identical_sequence() {
        let q = Bank::from_seqs(vec![Seq::protein("q", b"MKVLAWRNDCQEHFYWMKVLAWRNDCQEHFYW")]);
        let s = Bank::from_seqs(vec![Seq::protein("s", b"MKVLAWRNDCQEHFYWMKVLAWRNDCQEHFYW")]);
        let r = tblastn(&q, &s, blosum62(), &config());
        assert_eq!(r.hsps.len(), 1, "hsps: {:?}", r.hsps);
        let h = &r.hsps[0];
        assert_eq!((h.start0, h.end0), (0, 32));
        assert!(h.evalue < 1e-6);
        assert!(h.bit_score > 30.0);
        assert!(r.ungapped_extensions >= 1);
        assert!(r.gapped_extensions >= 1);
    }

    #[test]
    fn finds_embedded_homolog() {
        let mut rng = SplitMix64::new(11);
        let core: Vec<u8> = psc_datagen::random_protein(&mut rng, 80);
        let homolog = mutate_protein(
            &mut rng,
            &core,
            &MutationConfig {
                divergence: 0.25,
                indel_rate: 0.01,
                indel_extend: 0.3,
            },
        );
        // Embed the homolog in random flanks.
        let flank0 = psc_datagen::random_protein(&mut rng, 100);
        let flank1 = psc_datagen::random_protein(&mut rng, 100);
        let mut subject = flank0.clone();
        subject.extend_from_slice(&homolog);
        subject.extend_from_slice(&flank1);

        let q = Bank::from_seqs(vec![Seq::from_codes(
            "q",
            core,
            psc_seqio::SeqKind::Protein,
        )]);
        let s = Bank::from_seqs(vec![Seq::from_codes(
            "s",
            subject,
            psc_seqio::SeqKind::Protein,
        )]);
        let r = tblastn(&q, &s, blosum62(), &config());
        assert!(!r.hsps.is_empty(), "homolog not found");
        let h = &r.hsps[0];
        // Subject range must sit inside the embedded region ± slack.
        assert!(h.start1 >= 80 && h.end1 <= 300, "{h:?}");
    }

    #[test]
    fn unrelated_banks_produce_nothing() {
        let q = random_bank(&BankConfig {
            count: 5,
            min_len: 150,
            max_len: 200,
            seed: 1,
        });
        let s = random_bank(&BankConfig {
            count: 5,
            min_len: 150,
            max_len: 200,
            seed: 2,
        });
        let r = tblastn(&q, &s, blosum62(), &config());
        assert!(
            r.hsps.is_empty(),
            "random banks should not align at E ≤ 1e-3: {:?}",
            r.hsps
        );
        assert!(r.word_hits > 0, "scan should at least see word hits");
    }

    #[test]
    fn evalue_cutoff_filters() {
        let q = Bank::from_seqs(vec![Seq::protein("q", b"MKVLAWRNDCQEHFYW")]);
        let s = Bank::from_seqs(vec![Seq::protein("s", b"MKVLAWRNDCQEHFYW")]);
        let strict = tblastn(
            &q,
            &s,
            blosum62(),
            &BlastConfig {
                max_evalue: 1e-30,
                ..config()
            },
        );
        assert!(strict.hsps.is_empty());
    }

    #[test]
    fn masking_reduces_word_hits_on_junk_queries() {
        let mut q = random_bank(&BankConfig {
            count: 2,
            min_len: 100,
            max_len: 150,
            seed: 71,
        });
        q.push(Seq::protein("junk", &[b'S'; 120]));
        let s = Bank::from_seqs(vec![Seq::protein("subj", &[b'S'; 400])]);
        let plain = tblastn(&q, &s, blosum62(), &config());
        let masked = tblastn(
            &q,
            &s,
            blosum62(),
            &BlastConfig {
                mask: Some(psc_seqio::MaskConfig::default()),
                ..config()
            },
        );
        assert!(
            masked.word_hits * 5 < plain.word_hits.max(1),
            "{} vs {}",
            masked.word_hits,
            plain.word_hits
        );
    }

    #[test]
    fn report_times_are_populated() {
        let q = Bank::from_seqs(vec![Seq::protein("q", b"MKVLAWRNDCQEHFYW")]);
        let s = Bank::from_seqs(vec![Seq::protein("s", b"MKVLAWRNDCQEHFYW")]);
        let r = tblastn(&q, &s, blosum62(), &config());
        assert!(r.total_seconds() >= 0.0);
        assert_eq!(r.search_space, (16, 16));
    }
}
