//! Property tests for the sequence substrate.

use psc_seqio::alphabet::{decode_dna, decode_protein, encode_dna, encode_protein, AA_LETTERS};
use psc_seqio::prng::{for_cases, SplitMix64};
use psc_seqio::seq::reverse_complement_codes;
use psc_seqio::{
    read_fasta, translate_six_frames, write_fasta, Bank, Frame, FrameCoord, GeneticCode, Seq,
    SeqKind,
};

/// Arbitrary protein ASCII drawn from the full 24-letter alphabet.
fn protein_ascii(g: &mut SplitMix64) -> Vec<u8> {
    g.vec(0..200, |g| *g.select(&AA_LETTERS))
}

fn dna_ascii(g: &mut SplitMix64) -> Vec<u8> {
    g.vec(0..300, |g| *g.select(b"ACGTN"))
}

#[test]
fn protein_encode_decode_round_trip() {
    for_cases(0x5e01, 256, |g| {
        let ascii = protein_ascii(g);
        assert_eq!(decode_protein(&encode_protein(&ascii)), ascii);
    });
}

#[test]
fn dna_encode_decode_round_trip() {
    for_cases(0x5e02, 256, |g| {
        let ascii = dna_ascii(g);
        assert_eq!(decode_dna(&encode_dna(&ascii)), ascii);
    });
}

#[test]
fn reverse_complement_involution() {
    for_cases(0x5e03, 256, |g| {
        let codes = encode_dna(&dna_ascii(g));
        assert_eq!(
            reverse_complement_codes(&reverse_complement_codes(&codes)),
            codes
        );
    });
}

#[test]
fn frame_lengths_match_geometry() {
    for_cases(0x5e04, 256, |g| {
        let ascii = dna_ascii(g);
        let g = Seq::dna("g", &ascii);
        let t = translate_six_frames(&g, GeneticCode::standard());
        for frame in Frame::ALL {
            let k = match frame {
                Frame::Plus(k) | Frame::Minus(k) => k as usize,
            };
            let expected = ascii.len().saturating_sub(k) / 3;
            assert_eq!(t.frame(frame).len(), expected);
            assert_eq!(frame.translated_len(ascii.len()), expected);
        }
    });
}

/// Every translated position maps to an in-bounds genomic codon, and
/// forward-frame codons re-translate to the same residue.
#[test]
fn genome_intervals_in_bounds() {
    for_cases(0x5e05, 256, |g| {
        let ascii = dna_ascii(g);
        let g = Seq::dna("g", &ascii);
        let code = GeneticCode::standard();
        let t = translate_six_frames(&g, code);
        for frame in Frame::ALL {
            let prot = t.frame(frame);
            for aa_pos in 0..prot.len() {
                let (s, e, fwd) = t.to_genome_interval(FrameCoord { frame, aa_pos }, 1);
                assert_eq!(e - s, 3);
                assert!(e <= ascii.len());
                if fwd {
                    let aa = code.translate_codes(&g.residues[s..e]);
                    assert_eq!(aa.0, prot.residues[aa_pos]);
                } else {
                    let rc = reverse_complement_codes(&g.residues[s..e]);
                    let aa = code.translate_codes(&rc);
                    assert_eq!(aa.0, prot.residues[aa_pos]);
                }
            }
        }
    });
}

/// FASTA write→read is the identity on banks (ids without whitespace).
#[test]
fn fasta_round_trip() {
    for_cases(0x5e06, 256, |g| {
        let seqs = g.vec(1..8, protein_ascii);
        let bank: Bank = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| Seq::protein(format!("s{i}"), s))
            .collect();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &bank).unwrap();
        let back = read_fasta(&buf[..], SeqKind::Protein).unwrap();
        assert_eq!(back.len(), bank.len());
        for i in 0..bank.len() {
            assert_eq!(&back.get(i).id, &bank.get(i).id);
            assert_eq!(&back.get(i).residues, &bank.get(i).residues);
        }
    });
}
