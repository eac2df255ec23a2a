//! Flattened bank representation with global positions.
//!
//! Index lists address residues by a single `u32` global position into the
//! concatenation of all bank sequences. `FlatBank` owns that concatenation
//! plus the geometry to map a global position back to `(sequence, offset)`
//! and to extract the fixed-length extension windows the PSC operator
//! consumes (clamped at sequence boundaries, padded with `X`).

use psc_seqio::alphabet::Aa;
use psc_seqio::Bank;

/// Padding residue for windows that overhang a sequence boundary. `X`
/// scores ≤ 0 against everything under BLOSUM62, so padding can only
/// lower an ungapped score — never create a spurious hit.
pub const PAD: u8 = Aa::X.0;

/// A bank flattened into one residue array.
#[derive(Clone, Debug)]
pub struct FlatBank {
    residues: Vec<u8>,
    /// `starts[i]` = global position of sequence `i`; `starts[len]` = total.
    starts: Vec<u32>,
}

impl FlatBank {
    /// Flatten a bank (sequence order preserved).
    pub fn from_bank(bank: &Bank) -> FlatBank {
        let total = bank.total_residues();
        assert!(
            total <= u32::MAX as usize,
            "flat bank exceeds u32 addressing ({total} residues)"
        );
        let mut residues = Vec::with_capacity(total);
        let mut starts = Vec::with_capacity(bank.len() + 1);
        for (_, seq) in bank.iter() {
            starts.push(residues.len() as u32);
            residues.extend_from_slice(&seq.residues);
        }
        starts.push(residues.len() as u32);
        FlatBank { residues, starts }
    }

    /// Total residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// True when the bank has no residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Number of sequences.
    #[inline]
    pub fn seq_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The concatenated residues.
    #[inline]
    pub fn residues(&self) -> &[u8] {
        &self.residues
    }

    /// Which sequence contains global position `pos`, and the offset
    /// within it.
    pub fn locate(&self, pos: u32) -> (usize, usize) {
        debug_assert!((pos as usize) < self.len());
        // partition_point returns the first start > pos; its predecessor
        // is the containing sequence.
        let seq = self.starts.partition_point(|&s| s <= pos) - 1;
        (seq, (pos - self.starts[seq]) as usize)
    }

    /// Global bounds `[start, end)` of the sequence containing `pos`.
    #[inline]
    pub fn seq_bounds(&self, pos: u32) -> (u32, u32) {
        let seq = self.starts.partition_point(|&s| s <= pos) - 1;
        (self.starts[seq], self.starts[seq + 1])
    }

    /// Global bounds of sequence `i`.
    #[inline]
    pub fn bounds_of(&self, seq: usize) -> (u32, u32) {
        (self.starts[seq], self.starts[seq + 1])
    }

    /// Extract the fixed-length extension window for a seed starting at
    /// global position `pos`: `n_ctx` residues of left context, the
    /// `span`-residue seed, `n_ctx` of right context. Parts that would
    /// cross the boundary of the containing sequence are padded with
    /// [`PAD`]. The window is written into `out` (length
    /// `span + 2*n_ctx`).
    pub fn window_into(&self, pos: u32, span: usize, n_ctx: usize, out: &mut [u8]) {
        debug_assert_eq!(out.len(), span + 2 * n_ctx);
        let (lo, hi) = self.seq_bounds(pos);
        let want_start = pos as i64 - n_ctx as i64;
        let want_end = pos as i64 + (span + n_ctx) as i64;
        let take_start = want_start.max(lo as i64) as usize;
        let take_end = want_end.min(hi as i64) as usize;
        let left_pad = (take_start as i64 - want_start) as usize;
        out[..left_pad].fill(PAD);
        let copied = take_end - take_start;
        out[left_pad..left_pad + copied].copy_from_slice(&self.residues[take_start..take_end]);
        out[left_pad + copied..].fill(PAD);
    }

    /// Hint the cache hierarchy that the window at `pos` is about to be
    /// read by [`FlatBank::window_into`]. An index list is a random
    /// address stream into the bank, but it is known in advance: issuing
    /// this a few windows ahead lets the misses overlap instead of
    /// serialising behind each copy. Touches both cache lines a window
    /// can straddle; a no-op on targets without a prefetch instruction.
    #[inline]
    pub fn prefetch_window(&self, pos: u32, span: usize, n_ctx: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let first = (pos as usize).saturating_sub(n_ctx);
            let last = (pos as usize + span + n_ctx).saturating_sub(1);
            let base = self.residues.as_ptr();
            for at in [first, last] {
                // SAFETY: a prefetch is a hint that never faults and
                // reads or writes nothing, whatever the address; the
                // pointer is formed with `wrapping_add`, so no in-bounds
                // requirement is attached to it either.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(base.wrapping_add(at) as *const i8) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (pos, span, n_ctx);
        }
    }

    /// Allocating convenience wrapper around [`FlatBank::window_into`].
    pub fn window(&self, pos: u32, span: usize, n_ctx: usize) -> Vec<u8> {
        let mut out = vec![0u8; span + 2 * n_ctx];
        self.window_into(pos, span, n_ctx, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_seqio::Seq;

    fn bank() -> Bank {
        let mut b = Bank::new();
        b.push(Seq::protein("a", b"MKVLAW"));
        b.push(Seq::protein("b", b"GG"));
        b.push(Seq::protein("c", b"RNDCQE"));
        b
    }

    #[test]
    fn geometry() {
        let f = FlatBank::from_bank(&bank());
        assert_eq!(f.len(), 14);
        assert_eq!(f.seq_count(), 3);
        assert_eq!(f.locate(0), (0, 0));
        assert_eq!(f.locate(5), (0, 5));
        assert_eq!(f.locate(6), (1, 0));
        assert_eq!(f.locate(7), (1, 1));
        assert_eq!(f.locate(8), (2, 0));
        assert_eq!(f.locate(13), (2, 5));
        assert_eq!(f.seq_bounds(7), (6, 8));
        assert_eq!(f.bounds_of(2), (8, 14));
    }

    #[test]
    fn window_interior() {
        let f = FlatBank::from_bank(&bank());
        // Seed "VL" at pos 2 with 2 residues of context: K M | V L | A W →
        // window = MKVLAW reordered correctly: positions 0..6.
        let w = f.window(2, 2, 2);
        assert_eq!(w, psc_seqio::alphabet::encode_protein(b"MKVLAW"));
    }

    #[test]
    fn window_pads_left_and_right() {
        let f = FlatBank::from_bank(&bank());
        // Seed "MK" at pos 0 with 2 context: XX | MK | VL.
        let w = f.window(0, 2, 2);
        assert_eq!(w, psc_seqio::alphabet::encode_protein(b"XXMKVL"));
        // Seed "AW" at pos 4: VL | AW | XX.
        let w = f.window(4, 2, 2);
        assert_eq!(w, psc_seqio::alphabet::encode_protein(b"VLAWXX"));
    }

    #[test]
    fn window_does_not_cross_sequences() {
        let f = FlatBank::from_bank(&bank());
        // Seed "GG" at pos 6 (sequence b, length 2): window must not leak
        // "AW" from sequence a or "RN" from c.
        let w = f.window(6, 2, 2);
        assert_eq!(w, psc_seqio::alphabet::encode_protein(b"XXGGXX"));
    }

    #[test]
    fn window_whole_sequence_shorter_than_window() {
        let mut b = Bank::new();
        b.push(Seq::protein("tiny", b"MK"));
        let f = FlatBank::from_bank(&b);
        let w = f.window(0, 4, 3); // span 4 > sequence
        assert_eq!(w, psc_seqio::alphabet::encode_protein(b"XXXMKXXXXX"));
    }

    #[test]
    fn empty_bank() {
        let f = FlatBank::from_bank(&Bank::new());
        assert!(f.is_empty());
        assert_eq!(f.seq_count(), 0);
    }
}
