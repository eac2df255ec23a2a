//! A bank: an ordered collection of sequences treated as one data set.
//!
//! The paper's algorithm compares *two banks* (a protein bank and the
//! six-frame-translated genome). A `Bank` offers the flat view the indexer
//! needs — global residue counts and `(sequence, offset)` addressing.

use crate::seq::{Seq, SeqKind};

/// An ordered set of sequences of one alphabet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bank {
    seqs: Vec<Seq>,
    total_residues: usize,
}

impl Bank {
    /// Empty bank.
    pub fn new() -> Bank {
        Bank::default()
    }

    /// Build from sequences. All sequences must share one alphabet.
    pub fn from_seqs(seqs: Vec<Seq>) -> Bank {
        if let Some(first) = seqs.first() {
            let kind = first.kind;
            assert!(
                seqs.iter().all(|s| s.kind == kind),
                "bank mixes DNA and protein sequences"
            );
        }
        let total_residues = seqs.iter().map(Seq::len).sum();
        Bank {
            seqs,
            total_residues,
        }
    }

    /// Append one sequence.
    pub fn push(&mut self, seq: Seq) {
        if let Some(first) = self.seqs.first() {
            assert_eq!(first.kind, seq.kind, "bank mixes DNA and protein");
        }
        self.total_residues += seq.len();
        self.seqs.push(seq);
    }

    /// Number of sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when the bank holds no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Total residues across all sequences.
    #[inline]
    pub fn total_residues(&self) -> usize {
        self.total_residues
    }

    /// Alphabet of the bank (`None` when empty).
    pub fn kind(&self) -> Option<SeqKind> {
        self.seqs.first().map(|s| s.kind)
    }

    /// Sequence accessor.
    #[inline]
    pub fn get(&self, i: usize) -> &Seq {
        &self.seqs[i]
    }

    /// All sequences.
    #[inline]
    pub fn seqs(&self) -> &[Seq] {
        &self.seqs
    }

    /// Consume into the sequence vector.
    pub fn into_seqs(self) -> Vec<Seq> {
        self.seqs
    }

    /// Iterate `(index, sequence)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Seq)> {
        self.seqs.iter().enumerate()
    }

    /// Mean sequence length (0 for an empty bank).
    pub fn mean_len(&self) -> f64 {
        if self.seqs.is_empty() {
            0.0
        } else {
            self.total_residues as f64 / self.seqs.len() as f64
        }
    }
}

impl FromIterator<Seq> for Bank {
    fn from_iter<T: IntoIterator<Item = Seq>>(iter: T) -> Bank {
        Bank::from_seqs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_track_pushes() {
        let mut b = Bank::new();
        assert!(b.is_empty());
        assert_eq!(b.kind(), None);
        b.push(Seq::protein("a", b"MK"));
        b.push(Seq::protein("b", b"MKVL"));
        assert_eq!(b.len(), 2);
        assert_eq!(b.total_residues(), 6);
        assert!((b.mean_len() - 3.0).abs() < 1e-12);
        assert_eq!(b.kind(), Some(SeqKind::Protein));
        assert_eq!(b.get(1).id, "b");
    }

    #[test]
    #[should_panic]
    fn mixed_alphabets_rejected() {
        let mut b = Bank::new();
        b.push(Seq::protein("a", b"MK"));
        b.push(Seq::dna("d", b"ACGT"));
    }

    #[test]
    fn from_iterator_collects() {
        let b: Bank = (0..3)
            .map(|i| Seq::protein(format!("s{i}"), b"MKV"))
            .collect();
        assert_eq!(b.len(), 3);
        assert_eq!(b.total_residues(), 9);
    }
}
