//! Sequence container: an identified string of encoded residues.

use crate::alphabet::{self, Aa, Nt};

/// Whether a sequence holds encoded nucleotides or amino acids.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeqKind {
    Dna,
    Protein,
}

/// A named sequence of residue codes (see [`crate::alphabet`] for encodings).
///
/// Residues are stored encoded, never as ASCII: downstream indexing and
/// scoring address substitution tables directly with `residues[i]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Seq {
    /// Identifier (first word of the FASTA header).
    pub id: String,
    /// Rest of the FASTA header, if any.
    pub description: String,
    /// Encoded residues.
    pub residues: Vec<u8>,
    /// Alphabet of `residues`.
    pub kind: SeqKind,
}

impl Seq {
    /// Build a protein sequence from ASCII letters (lossy: unknown → `X`).
    pub fn protein(id: impl Into<String>, ascii: &[u8]) -> Seq {
        Seq {
            id: id.into(),
            description: String::new(),
            residues: alphabet::encode_protein(ascii),
            kind: SeqKind::Protein,
        }
    }

    /// Build a DNA sequence from ASCII letters (lossy: unknown → `N`).
    pub fn dna(id: impl Into<String>, ascii: &[u8]) -> Seq {
        Seq {
            id: id.into(),
            description: String::new(),
            residues: alphabet::encode_dna(ascii),
            kind: SeqKind::Dna,
        }
    }

    /// Build directly from already-encoded residues.
    pub fn from_codes(id: impl Into<String>, residues: Vec<u8>, kind: SeqKind) -> Seq {
        Seq {
            id: id.into(),
            description: String::new(),
            residues,
            kind,
        }
    }

    /// Residue count.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// True when the sequence holds no residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// ASCII rendering of the residues.
    pub fn to_ascii(&self) -> Vec<u8> {
        match self.kind {
            SeqKind::Dna => alphabet::decode_dna(&self.residues),
            SeqKind::Protein => alphabet::decode_protein(&self.residues),
        }
    }

    /// Reverse complement (DNA only; panics on protein input — that is a
    /// programming error, not a data error).
    pub fn reverse_complement(&self) -> Seq {
        assert_eq!(self.kind, SeqKind::Dna, "reverse_complement needs DNA");
        let residues = reverse_complement_codes(&self.residues);
        Seq {
            id: self.id.clone(),
            description: self.description.clone(),
            residues,
            kind: SeqKind::Dna,
        }
    }

    /// Fraction of ambiguous residues (`N` or `X`/`*` depending on kind).
    pub fn ambiguity_fraction(&self) -> f64 {
        if self.residues.is_empty() {
            return 0.0;
        }
        let ambiguous = match self.kind {
            SeqKind::Dna => self.residues.iter().filter(|&&c| c == Nt::N.0).count(),
            SeqKind::Protein => self
                .residues
                .iter()
                .filter(|&&c| c >= Aa::X.0) // X or *
                .count(),
        };
        ambiguous as f64 / self.residues.len() as f64
    }
}

/// Reverse-complement encoded nucleotides.
pub fn reverse_complement_codes(codes: &[u8]) -> Vec<u8> {
    codes.iter().rev().map(|&c| Nt(c).complement().0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protein_constructor_encodes() {
        let s = Seq::protein("p", b"MKV");
        assert_eq!(s.kind, SeqKind::Protein);
        assert_eq!(s.to_ascii(), b"MKV");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn reverse_complement_known() {
        let s = Seq::dna("d", b"ACGTN");
        assert_eq!(s.reverse_complement().to_ascii(), b"NACGT");
    }

    #[test]
    fn reverse_complement_involution() {
        let s = Seq::dna("d", b"GATTACAGATTACA");
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    #[should_panic]
    fn reverse_complement_rejects_protein() {
        Seq::protein("p", b"MKV").reverse_complement();
    }

    #[test]
    fn ambiguity_fraction_counts() {
        let s = Seq::dna("d", b"ACGN");
        assert!((s.ambiguity_fraction() - 0.25).abs() < 1e-12);
        let p = Seq::protein("p", b"MKX*");
        assert!((p.ambiguity_fraction() - 0.5).abs() < 1e-12);
        let e = Seq::protein("e", b"");
        assert_eq!(e.ambiguity_fraction(), 0.0);
    }
}
