//! Robustness: the I/O boundary must never panic, whatever bytes arrive.

use psc_seqio::fasta::{read_fasta_with, ResiduePolicy};
use psc_seqio::prng::for_cases;
use psc_seqio::{read_fasta, SeqKind};

/// Arbitrary bytes: the parser returns Ok or Err, never panics, and
/// any parsed bank holds only valid residue codes.
#[test]
fn parser_total_on_arbitrary_bytes() {
    for_cases(0xb0b1, 256, |g| {
        let data = g.vec(0..2000, |g| g.range(0..=u8::MAX));
        for kind in [SeqKind::Protein, SeqKind::Dna] {
            if let Ok(bank) = read_fasta(&data[..], kind) {
                let limit = match kind {
                    SeqKind::Protein => 24,
                    SeqKind::Dna => 5,
                };
                for (_, s) in bank.iter() {
                    assert!(s.residues.iter().all(|&c| c < limit));
                }
            }
            // Strict mode likewise must be total.
            let _ = read_fasta_with(&data[..], kind, ResiduePolicy::Strict);
        }
    });
}

/// FASTA-shaped noise: headers plus arbitrary residue lines.
#[test]
fn parser_total_on_fastaish_noise() {
    for_cases(0xb0b2, 256, |g| {
        let records = g.vec(0..6, |g| {
            (g.printable(0..=30), g.vec(0..120, |g| g.range(0..=u8::MAX)))
        });
        let mut data = Vec::new();
        for (header, body) in &records {
            data.extend_from_slice(b">");
            data.extend_from_slice(header.as_bytes());
            data.push(b'\n');
            data.extend_from_slice(body);
            data.push(b'\n');
        }
        let _ = read_fasta(&data[..], SeqKind::Protein);
        let _ = read_fasta(&data[..], SeqKind::Dna);
    });
}

/// Masking is total and only ever substitutes X for standard codes.
#[test]
fn masking_total() {
    for_cases(0xb0b3, 256, |g| {
        let residues = g.vec(0..500, |g| g.range(0u8..24));
        let cfg = psc_seqio::MaskConfig::default();
        let masked = psc_seqio::mask_low_complexity(&residues, &cfg);
        assert_eq!(masked.len(), residues.len());
        for (&m, &o) in masked.iter().zip(&residues) {
            assert!(m == o || m == psc_seqio::Aa::X.0);
        }
    });
}
