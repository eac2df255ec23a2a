//! Six-frame translation of genomic DNA with coordinate mapping.
//!
//! The paper's workload translates a genome "into its 6 possible protein
//! frames" and compares the resulting virtual proteins against a protein
//! bank. [`TranslatedGenome`] keeps, for each frame, the translated
//! residues plus enough geometry to map any amino-acid position back to the
//! nucleotide interval it came from — needed when reporting alignments in
//! genome coordinates (step 3).

use crate::alphabet::Nt;
use crate::bank::Bank;
use crate::codon::GeneticCode;
use crate::seq::{Seq, SeqKind};

/// One of the six reading frames.
///
/// `Plus(k)` reads the forward strand starting at nucleotide offset `k`;
/// `Minus(k)` reads the reverse complement starting at offset `k` of the
/// reverse-complemented sequence (the convention used by BLAST frames
/// +1..+3 / -1..-3 with `k = frame - 1`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Frame {
    Plus(u8),
    Minus(u8),
}

impl Frame {
    /// All six frames in the conventional order +1,+2,+3,-1,-2,-3.
    pub const ALL: [Frame; 6] = [
        Frame::Plus(0),
        Frame::Plus(1),
        Frame::Plus(2),
        Frame::Minus(0),
        Frame::Minus(1),
        Frame::Minus(2),
    ];

    /// BLAST-style signed frame number (+1..+3, -1..-3).
    pub fn number(self) -> i8 {
        match self {
            Frame::Plus(k) => k as i8 + 1,
            Frame::Minus(k) => -(k as i8 + 1),
        }
    }

    /// Residues in this frame of a genome of `genome_len` nucleotides:
    /// the whole codons after the frame's strand offset.
    pub fn translated_len(self, genome_len: usize) -> usize {
        let (Frame::Plus(k) | Frame::Minus(k)) = self;
        genome_len.saturating_sub(k as usize) / 3
    }

    /// The id of this frame's translation of genome `genome_id`.
    pub fn seq_id(self, genome_id: &str) -> String {
        format!("{genome_id}|frame{self}")
    }

    /// Index 0..6 in [`Frame::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            Frame::Plus(k) => k as usize,
            Frame::Minus(k) => 3 + k as usize,
        }
    }
}

impl std::fmt::Display for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:+}", self.number())
    }
}

/// A position in a translated frame: which frame, and the amino-acid offset
/// within that frame's translation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameCoord {
    pub frame: Frame,
    pub aa_pos: usize,
}

/// The six-frame translation of one genomic sequence.
#[derive(Clone, Debug)]
pub struct TranslatedGenome {
    /// Genome identifier the frames came from.
    pub genome_id: String,
    /// Length of the source genome in nucleotides.
    pub genome_len: usize,
    /// Translations in [`Frame::ALL`] order.
    frames: [Seq; 6],
}

impl TranslatedGenome {
    /// Translated sequence for a frame.
    pub fn frame(&self, frame: Frame) -> &Seq {
        &self.frames[frame.index()]
    }

    /// All six frames in [`Frame::ALL`] order.
    pub fn frames(&self) -> &[Seq; 6] {
        &self.frames
    }

    /// View the six frames as a protein [`Bank`] (frame order preserved:
    /// bank sequence `i` is `Frame::ALL[i]`).
    pub fn to_bank(&self) -> Bank {
        Bank::from_seqs(self.frames.to_vec())
    }

    /// [`TranslatedGenome::to_bank`] without the copy.
    pub fn into_bank(self) -> Bank {
        Bank::from_seqs(self.frames.into())
    }

    /// [`FrameCoord::to_genome_interval`] on this genome.
    pub fn to_genome_interval(&self, coord: FrameCoord, aa_len: usize) -> (usize, usize, bool) {
        coord.to_genome_interval(self.genome_len, aa_len)
    }
}

impl FrameCoord {
    /// Map the `aa_len` residues from this position back to the
    /// nucleotide interval `[start, end)` they were translated from, on
    /// the forward strand of a genome of `genome_len` nucleotides.
    /// Returns `(start, end, is_forward_strand)`.
    pub fn to_genome_interval(self, genome_len: usize, aa_len: usize) -> (usize, usize, bool) {
        let nt_span = aa_len * 3;
        match self.frame {
            Frame::Plus(k) => {
                let start = k as usize + self.aa_pos * 3;
                (start, start + nt_span, true)
            }
            Frame::Minus(k) => {
                // Position p of the reverse complement maps to genome
                // position L-1-p; a codon [s, s+3) on the rc therefore maps
                // to [L-s-3, L-s) on the genome.
                let rc_start = k as usize + self.aa_pos * 3;
                let end = genome_len - rc_start;
                (end - nt_span, end, false)
            }
        }
    }
}

/// Translate a DNA sequence into its six reading frames.
///
/// Codons containing `N` translate to `X`; stop codons are kept as `*`
/// residues (the indexer refuses to seed across them, mirroring BLAST).
pub fn translate_six_frames(genome: &Seq, code: &GeneticCode) -> TranslatedGenome {
    let mut all = Vec::new();
    translate_six_frames_into(genome, code, &mut all);
    let mut rest = &all[..];
    let frames = Frame::ALL.map(|frame| {
        let (residues, tail) = rest.split_at(frame.translated_len(genome.len()));
        rest = tail;
        let id = frame.seq_id(&genome.id);
        Seq::from_codes(id, residues.to_vec(), SeqKind::Protein)
    });
    TranslatedGenome {
        genome_id: genome.id.clone(),
        genome_len: genome.len(),
        frames,
    }
}

/// [`translate_six_frames`] appended to `out`: the six frames back to
/// back in [`Frame::ALL`] order, frame `f` taking
/// `f.translated_len(genome.len())` residues. `out` grows once, by
/// exactly their sum, so a caller that hands in an empty buffer gets the
/// whole translation in one allocation.
pub fn translate_six_frames_into(genome: &Seq, code: &GeneticCode, out: &mut Vec<u8>) {
    assert_eq!(genome.kind, SeqKind::Dna, "six-frame translation needs DNA");
    // One table per strand over the five nucleotide codes, indexed by
    // the codon as it lies on the forward strand: the minus table has
    // the reversal and the complement folded in, so no reverse-
    // complemented copy of the genome is made.
    let table = |read: fn([Nt; 3]) -> [Nt; 3]| -> [u8; 125] {
        std::array::from_fn(|i| {
            let [a, b, c] = read([i / 25, i / 5 % 5, i % 5].map(|n| Nt(n as u8)));
            code.translate(a, b, c).0
        })
    };
    let plus = table(|codon| codon);
    let minus = table(|[a, b, c]| [c, b, a].map(Nt::complement));
    // Any code past `T` is `N`, as `Nt::complement` and
    // `GeneticCode::translate` have it.
    let codon = |c: &[u8]| {
        let [a, b, c] = [c[0], c[1], c[2]].map(|n| n.min(Nt::N.0) as usize);
        a * 25 + b * 5 + c
    };

    let fwd = &genome.residues[..];
    out.reserve_exact(Frame::ALL.iter().map(|f| f.translated_len(fwd.len())).sum());
    for frame in Frame::ALL {
        // Minus frame `k` starts `k` nucleotides in from the far end.
        match frame {
            Frame::Plus(k) => out.extend(
                fwd[fwd.len().min(k as usize)..]
                    .chunks_exact(3)
                    .map(|c| plus[codon(c)]),
            ),
            Frame::Minus(k) => out.extend(
                fwd[..fwd.len().saturating_sub(k as usize)]
                    .rchunks_exact(3)
                    .map(|c| minus[codon(c)]),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::reverse_complement_codes;

    #[test]
    fn frame_numbers_and_indices() {
        assert_eq!(Frame::Plus(0).number(), 1);
        assert_eq!(Frame::Minus(2).number(), -3);
        for (i, f) in Frame::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
        assert_eq!(Frame::Minus(0).to_string(), "-1");
    }

    #[test]
    fn forward_frames_translate() {
        // ATG GCC TAA -> M A *
        let g = Seq::dna("g", b"ATGGCCTAA");
        let t = translate_six_frames(&g, GeneticCode::standard());
        assert_eq!(t.frame(Frame::Plus(0)).to_ascii(), b"MA*");
        // Frame +2: TGG CCT AA -> W P (trailing two nts dropped)
        assert_eq!(t.frame(Frame::Plus(1)).to_ascii(), b"WP");
        // Frame +3: GGC CTA A -> G L
        assert_eq!(t.frame(Frame::Plus(2)).to_ascii(), b"GL");
    }

    #[test]
    fn reverse_frames_translate() {
        // Genome ATGGCCTAA, rc = TTAGGCCAT.
        let g = Seq::dna("g", b"ATGGCCTAA");
        let t = translate_six_frames(&g, GeneticCode::standard());
        // -1: TTA GGC CAT -> L G H
        assert_eq!(t.frame(Frame::Minus(0)).to_ascii(), b"LGH");
        // -2: TAG GCC AT -> * A
        assert_eq!(t.frame(Frame::Minus(1)).to_ascii(), b"*A");
        // -3: AGG CCA T -> R P
        assert_eq!(t.frame(Frame::Minus(2)).to_ascii(), b"RP");
    }

    #[test]
    fn genome_interval_forward() {
        let g = Seq::dna("g", b"ATGGCCTAA");
        let t = translate_six_frames(&g, GeneticCode::standard());
        // Frame +1, aa 1..3 ("A*") covers nts 3..9.
        let (s, e, fwd) = t.to_genome_interval(
            FrameCoord {
                frame: Frame::Plus(0),
                aa_pos: 1,
            },
            2,
        );
        assert_eq!((s, e, fwd), (3, 9, true));
        // Frame +2, aa 0..1 covers nts 1..4.
        let (s, e, _) = t.to_genome_interval(
            FrameCoord {
                frame: Frame::Plus(1),
                aa_pos: 0,
            },
            1,
        );
        assert_eq!((s, e), (1, 4));
    }

    #[test]
    fn genome_interval_reverse() {
        let g = Seq::dna("g", b"ATGGCCTAA"); // L = 9
        let t = translate_six_frames(&g, GeneticCode::standard());
        // Frame -1, aa 0 is codon 0..3 of the rc, i.e. genome nts 6..9.
        let (s, e, fwd) = t.to_genome_interval(
            FrameCoord {
                frame: Frame::Minus(0),
                aa_pos: 0,
            },
            1,
        );
        assert_eq!((s, e, fwd), (6, 9, false));
        // Frame -2, aa 1 is rc codon 4..7, genome nts 2..5.
        let (s, e, _) = t.to_genome_interval(
            FrameCoord {
                frame: Frame::Minus(1),
                aa_pos: 1,
            },
            1,
        );
        assert_eq!((s, e), (2, 5));
    }

    /// The genome interval reported for a reverse-frame hit must, when
    /// reverse complemented and translated, reproduce the frame residues.
    #[test]
    fn reverse_interval_consistency() {
        let g = Seq::dna("g", b"GATTACAGATTACACCGTTAGGA");
        let code = GeneticCode::standard();
        let t = translate_six_frames(&g, code);
        for &frame in &[Frame::Minus(0), Frame::Minus(1), Frame::Minus(2)] {
            let prot = t.frame(frame);
            for aa_pos in 0..prot.len() {
                let (s, e, fwd) = t.to_genome_interval(FrameCoord { frame, aa_pos }, 1);
                assert!(!fwd);
                let codon = reverse_complement_codes(&g.residues[s..e]);
                assert_eq!(code.translate_codes(&codon).0, prot.residues[aa_pos]);
            }
        }
    }

    /// `Seq::from_codes` checks nothing: a code past `N` reads as `N`
    /// on both strands, as it does in `GeneticCode::translate`.
    #[test]
    fn codes_past_n_translate_as_n() {
        let code = GeneticCode::standard();
        let odd = vec![0, 3, 2, 9, 1, 1, 3, 255, 0, 2, 5];
        let as_n = odd.iter().map(|&c| c.min(Nt::N.0)).collect();
        let t = translate_six_frames(&Seq::from_codes("g", odd, SeqKind::Dna), code);
        let n = translate_six_frames(&Seq::from_codes("g", as_n, SeqKind::Dna), code);
        for f in Frame::ALL {
            assert_eq!(t.frame(f).residues, n.frame(f).residues, "{f}");
        }
        assert_eq!(t.frame(Frame::Plus(0)).to_ascii(), b"MXX");
        assert_eq!(t.frame(Frame::Minus(2)).to_ascii(), b"XXH");
    }

    #[test]
    fn short_genome_yields_empty_frames() {
        let g = Seq::dna("g", b"AC");
        let t = translate_six_frames(&g, GeneticCode::standard());
        for f in Frame::ALL {
            assert!(t.frame(f).is_empty());
        }
        let bank = t.to_bank();
        assert_eq!(bank.len(), 6);
        assert_eq!(bank.total_residues(), 0);
    }
}
