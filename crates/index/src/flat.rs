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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatBank {
    residues: Vec<u8>,
    /// `starts[i]` = global position of sequence `i`; `starts[len]` = total.
    starts: Vec<u32>,
    /// `block_seq[b]` = the sequence holding residue `b << BLOCK_SHIFT`:
    /// where the lookup of a position's sequence starts.
    block_seq: Vec<u32>,
}

/// Residues per entry of [`FlatBank::block_seq`], as a shift: 4 bytes of
/// table per 256 of bank, and under two steps from the entry to the
/// sequence for sequences of a hundred residues and up.
const BLOCK_SHIFT: u32 = 8;

impl FlatBank {
    /// Flatten a bank (sequence order preserved).
    pub fn from_bank(bank: &Bank) -> FlatBank {
        let mut residues = Vec::with_capacity(bank.total_residues());
        for (_, seq) in bank.iter() {
            residues.extend_from_slice(&seq.residues);
        }
        FlatBank::from_concatenation(residues, bank.iter().map(|(_, seq)| seq.len()))
    }

    /// A bank that is already one buffer: `residues` holds its sequences
    /// back to back, of lengths `lens` in order — the buffer
    /// `psc_seqio::translate_six_frames_into` fills, say. The buffer
    /// becomes the bank's own; nothing is copied.
    pub fn from_concatenation(
        residues: Vec<u8>,
        lens: impl IntoIterator<Item = usize>,
    ) -> FlatBank {
        let total = residues.len();
        assert!(
            total <= u32::MAX as usize,
            "flat bank exceeds u32 addressing ({total} residues)"
        );
        let lens = lens.into_iter();
        let mut starts = Vec::with_capacity(lens.size_hint().0 + 1);
        starts.push(0u32);
        let mut end = 0usize;
        for len in lens {
            end = end.saturating_add(len);
            assert!(end <= total, "sequences longer than the buffer ({total})");
            starts.push(end as u32);
        }
        assert_eq!(end, total, "sequences shorter than the buffer");
        let block_seq = (0..total.div_ceil(1 << BLOCK_SHIFT))
            .map(|b| starts.partition_point(|&s| s <= (b << BLOCK_SHIFT) as u32) as u32 - 1)
            .collect();
        FlatBank {
            residues,
            starts,
            block_seq,
        }
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

    /// The residues of sequence `i`.
    #[inline]
    pub fn seq(&self, i: usize) -> &[u8] {
        let (lo, hi) = self.bounds_of(i);
        &self.residues[lo as usize..hi as usize]
    }

    /// Index of the sequence containing global position `pos`: the one
    /// the position's block starts in, or one of the next few.
    #[inline]
    fn seq_of(&self, pos: u32) -> usize {
        let mut seq = self.block_seq[(pos >> BLOCK_SHIFT) as usize] as usize;
        while self.starts[seq + 1] <= pos {
            seq += 1;
        }
        seq
    }

    /// Which sequence contains global position `pos`, and the offset
    /// within it.
    pub fn locate(&self, pos: u32) -> (usize, usize) {
        debug_assert!((pos as usize) < self.len());
        let seq = self.seq_of(pos);
        (seq, (pos - self.starts[seq]) as usize)
    }

    /// Global bounds `[start, end)` of the sequence containing `pos`.
    #[inline]
    pub fn seq_bounds(&self, pos: u32) -> (u32, u32) {
        self.bounds_of(self.seq_of(pos))
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
        self.window_cursor(span, n_ctx).copy_into(pos, out);
    }

    /// A cursor over the windows of an index list (see [`WindowCursor`]).
    pub fn window_cursor(&self, span: usize, n_ctx: usize) -> WindowCursor<'_> {
        WindowCursor {
            flat: self,
            span,
            n_ctx,
            bounds: (0, 0),
            lend: (0, 0),
            reach: 0,
        }
    }

    /// Allocating convenience wrapper around [`FlatBank::window_into`].
    pub fn window(&self, pos: u32, span: usize, n_ctx: usize) -> Vec<u8> {
        let mut out = vec![0u8; span + 2 * n_ctx];
        self.window_into(pos, span, n_ctx, &mut out);
        out
    }
}

/// Bytes an interior window is copied in: whole blocks are fixed-size
/// moves, where a copy of the exact window length is a call.
const COPY_BLOCK: usize = 32;

/// Walks the extension windows of an index list out of a [`FlatBank`].
///
/// The cursor keeps the bounds of the sequence its last position fell
/// in and its lend range: the positions whose window is interior with
/// `reach` bytes of bank from its first residue. Index lists ascend, so
/// the next position is usually in that range still — one comparison,
/// the whole cost on a six-frame genome — and one that has left the
/// sequence is placed by the bank's block table: there is no search per
/// window, and a list in any order (a hostile bundle's) gathers the
/// same bytes as a sorted one.
#[derive(Clone, Debug)]
pub struct WindowCursor<'b> {
    flat: &'b FlatBank,
    span: usize,
    n_ctx: usize,
    /// `[lo, hi)` of the sequence holding the last position; empty
    /// before the first one.
    bounds: (u32, u32),
    /// Its lend range at `reach`, as (first position, count).
    lend: (usize, usize),
    reach: usize,
}

impl<'b> WindowCursor<'b> {
    /// The start of the window at `pos` if it is in the lend range.
    #[inline]
    fn lent(&self, pos: u32, reach: usize) -> Option<usize> {
        let at = pos as usize;
        (reach == self.reach && at.wrapping_sub(self.lend.0) < self.lend.1).then(|| at - self.n_ctx)
    }

    /// [`lent`](WindowCursor::lent)'s cold path: move the bounds to `pos`'s
    /// sequence and recompute its lend range, unless it is held already.
    #[inline]
    fn relend(&mut self, pos: u32, reach: usize) -> Option<usize> {
        if !(self.bounds.0..self.bounds.1).contains(&pos) {
            self.bounds = self.flat.seq_bounds(pos);
        } else if reach == self.reach {
            return None;
        }
        let (lo, hi) = (self.bounds.0 as usize, self.bounds.1 as usize);
        let end = (hi + 1).saturating_sub(self.span + self.n_ctx);
        let end = end.min((self.flat.len() + self.n_ctx + 1).saturating_sub(reach));
        self.lend = (lo + self.n_ctx, end.saturating_sub(lo + self.n_ctx));
        self.reach = reach;
        self.lent(pos, reach)
    }

    /// The window at `pos` as `psc_align::InterleavedWindows::fill` takes
    /// its sources: lent where it lies — `row.len()` bytes of the bank
    /// from the window's first residue, the window and then whatever
    /// follows it — when the window is interior to its sequence and the
    /// bank extends that far; otherwise `None`, with the window written
    /// to the front of `row` as by [`copy_into`](WindowCursor::copy_into).
    #[inline]
    pub fn source(&mut self, pos: u32, row: &mut [u8]) -> Option<&'b [u8]> {
        let reach = row.len();
        let Some(start) = self.lent(pos, reach).or_else(|| self.relend(pos, reach)) else {
            self.clamp_into(pos, row);
            return None;
        };
        Some(&self.flat.residues[start..start + reach])
    }

    /// Write the window at `pos` to the front of `row`, clamped to its
    /// sequence and padded with [`PAD`]. Bytes of `row` past the window
    /// may be overwritten: an interior window is copied in whole
    /// [`COPY_BLOCK`]s when the bank and `row` both have the room — rows
    /// gathered back to back in list order cover each other's overhang,
    /// and the last ones are copied exactly.
    #[inline]
    pub fn copy_into(&mut self, pos: u32, row: &mut [u8]) {
        let blocks = (self.span + 2 * self.n_ctx).next_multiple_of(COPY_BLOCK);
        let start = self.lent(pos, blocks).or_else(|| self.relend(pos, blocks));
        match (start, row.get_mut(..blocks)) {
            (Some(start), Some(dst)) => {
                let src = &self.flat.residues[start..start + blocks];
                for (d, s) in (dst.chunks_exact_mut(COPY_BLOCK)).zip(src.chunks_exact(COPY_BLOCK)) {
                    d.copy_from_slice(s);
                }
            }
            _ => self.clamp_into(pos, row),
        }
    }

    /// Write the window at `pos`, clamped to the bounds and padded.
    fn clamp_into(&self, pos: u32, row: &mut [u8]) {
        let len = self.span + 2 * self.n_ctx;
        let (lo, hi) = self.bounds;
        let want_start = pos as i64 - self.n_ctx as i64;
        let take_start = want_start.max(lo as i64) as usize;
        let take_end = (want_start + len as i64).min(hi as i64) as usize;
        let left_pad = (take_start as i64 - want_start) as usize;
        let copied = take_end - take_start;
        row[..left_pad].fill(PAD);
        row[left_pad..left_pad + copied].copy_from_slice(&self.flat.residues[take_start..take_end]);
        row[left_pad + copied..len].fill(PAD);
    }

    /// Hint the cache hierarchy that `reach` bytes from the start of the
    /// window at `pos` are about to be read. An index list is a random
    /// address stream into the bank, but it is known in advance: issuing
    /// this some windows ahead lets the misses overlap instead of
    /// serialising behind each read. Touches both cache lines the bytes
    /// can straddle; a no-op on targets without a prefetch instruction.
    #[inline]
    pub fn prefetch(&self, pos: u32, reach: usize) {
        let first = (pos as usize).saturating_sub(self.n_ctx);
        for at in [first, (first + reach).saturating_sub(1)] {
            let at = self.flat.residues.as_ptr().wrapping_add(at);
            // SAFETY: a prefetch is a hint that never faults and reads
            // or writes nothing, whatever the address; the pointer is
            // formed with `wrapping_add`, so no in-bounds requirement is
            // attached to it either.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch::<_MM_HINT_T0>(at as *const i8)
            };
            #[cfg(not(target_arch = "x86_64"))]
            let _ = at;
        }
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

    /// Banks of residue codes `seed, seed + 1, …` cut into sequences of
    /// the given lengths.
    fn coded(lens: &[usize]) -> FlatBank {
        let mut next = 0u32;
        let bank: Bank = (lens.iter().enumerate())
            .map(|(i, &len)| {
                let codes = (0..len).map(|_| {
                    next += 1;
                    (next * 7 + next / 13) as u8 % 20
                });
                Seq::from_codes(
                    format!("s{i}"),
                    codes.collect(),
                    psc_seqio::SeqKind::Protein,
                )
            })
            .collect();
        FlatBank::from_bank(&bank)
    }

    #[test]
    fn block_table_agrees_with_a_search_of_the_starts() {
        // Sequences longer and shorter than a table block, empty ones at
        // the front, in the middle and at the end.
        for lens in [
            vec![0, 0, 700, 3, 0, 0, 256, 1, 255, 513, 0],
            vec![1; 600],
            vec![2700, 30, 30, 2700],
        ] {
            let f = coded(&lens);
            for pos in 0..f.len() as u32 {
                let seq = f.starts.partition_point(|&s| s <= pos) - 1;
                assert_eq!(f.locate(pos), (seq, (pos - f.starts[seq]) as usize));
                assert_eq!(f.seq_bounds(pos), f.bounds_of(seq));
            }
        }
    }

    /// The window at `pos` by definition, a residue at a time.
    fn naive_window(f: &FlatBank, pos: u32, span: usize, n_ctx: usize) -> Vec<u8> {
        let seq = f.starts.partition_point(|&s| s <= pos) - 1;
        let inside = f.starts[seq] as i64..f.starts[seq + 1] as i64;
        (pos as i64 - n_ctx as i64..pos as i64 + (span + n_ctx) as i64)
            .map(|at| match inside.contains(&at) {
                true => f.residues[at as usize],
                false => PAD,
            })
            .collect()
    }

    #[test]
    fn cursor_equals_window_into_in_any_order() {
        use psc_seqio::prng::SplitMix64;
        let mut rng = SplitMix64::new(0x5eed_0019);
        for (span, n_ctx) in [(4, 6), (3, 28), (4, 28)] {
            let l = span + 2 * n_ctx;
            for lens in [
                // Long and short neighbours, a sequence of exactly `span`
                // residues, an empty one; the bank ends in a long
                // sequence, so its last windows are interior ones.
                vec![2700, 30, span, 0, 30, 2700],
                // Every sequence shorter than the window.
                vec![l - 1; 40],
                vec![span; 70],
            ] {
                let f = coded(&lens);
                let ascending: Vec<u32> = (0..f.seq_count())
                    .flat_map(|s| {
                        let (lo, hi) = f.bounds_of(s);
                        lo..(hi + 1).saturating_sub(span as u32).max(lo)
                    })
                    .collect();
                let mut shuffled = ascending.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.range(0..=i));
                }
                let descending: Vec<u32> = ascending.iter().rev().copied().collect();
                let doubled: Vec<u32> = ascending.iter().flat_map(|&p| [p, p]).collect();
                let tail: Vec<u32> = (ascending.iter().copied())
                    .filter(|&p| p as usize + 64 >= f.len())
                    .collect();
                assert!(tail.len() >= 10, "lens={lens:?}");
                for list in [&ascending, &shuffled, &descending, &doubled, &tail] {
                    // Row-major, back to back, as `gather_windows` does.
                    let mut rows = vec![0xee; list.len() * l];
                    let mut cursor = f.window_cursor(span, n_ctx);
                    for (i, &pos) in list.iter().enumerate() {
                        cursor.copy_into(pos, &mut rows[i * l..]);
                    }
                    let mut lent = 0;
                    for (&pos, row) in list.iter().zip(rows.chunks_exact(l)) {
                        let want = naive_window(&f, pos, span, n_ctx);
                        assert_eq!(row, want, "pos={pos} span={span} n_ctx={n_ctx}");
                        assert_eq!(f.window(pos, span, n_ctx), want, "pos={pos}");
                        // In place: exactly the interior windows the bank
                        // still holds `reach` bytes of, never a shorter
                        // run.
                        for reach in [l, 64, 128] {
                            let (lo, hi) = f.seq_bounds(pos);
                            let interior = pos as usize >= lo as usize + n_ctx
                                && pos as usize + span + n_ctx <= hi as usize;
                            let fits = pos as usize - n_ctx.min(pos as usize) + reach <= f.len();
                            let mut staged = vec![0xee; reach];
                            let run = cursor.source(pos, &mut staged);
                            assert_eq!(run.is_some(), interior && fits, "pos={pos} reach={reach}");
                            lent += usize::from(run.is_some());
                            let source = run.unwrap_or(&staged);
                            assert_eq!((source.len(), &source[..l]), (reach, &want[..]));
                        }
                    }
                    assert_eq!(lent > 0, lens[0] > l, "lens={lens:?}");
                }
            }
        }
    }

    /// On random banks, every window the cursor lends or copies is the
    /// window by definition, and it lends exactly the interior windows
    /// with a row's worth of bank behind them: rows of 16, 64 and 80
    /// bytes (windows up to that long), lists sorted, reversed and
    /// shuffled, sequences shorter than a window and windows at both
    /// edges and at the end of the bank.
    #[test]
    fn cursor_lends_and_copies_the_window_on_random_banks() {
        use psc_seqio::prng::for_cases;
        // Lent, copied at an edge, and copied interior at the bank's end.
        let mut seen = [0usize; 3];
        for_cases(0x1e4d_5eed, 96, |g| {
            let reach = *g.select(&[16usize, 64, 80]);
            let span = g.range(1..=4);
            let n_ctx = g.range(0..=(reach - span) / 2);
            let l = span + 2 * n_ctx;
            let lens = g.vec(1..=10, |g| match g.range(0..4) {
                0 => g.range(0..l),
                1 => g.range(l.saturating_sub(2)..=l + 2),
                _ => g.range(l..=4 * reach),
            });
            let f = coded(&lens);
            let sorted: Vec<u32> = (0..f.len() as u32).collect();
            let reversed: Vec<u32> = sorted.iter().rev().copied().collect();
            let mut shuffled = sorted.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, g.range(0..=i));
            }
            for list in [&sorted, &reversed, &shuffled] {
                let (mut lender, mut copier) =
                    (f.window_cursor(span, n_ctx), f.window_cursor(span, n_ctx));
                let mut rows = vec![0xee; list.len() * l];
                for (i, &pos) in list.iter().enumerate() {
                    copier.copy_into(pos, &mut rows[i * l..]);
                }
                for (&pos, copied) in list.iter().zip(rows.chunks_exact(l)) {
                    let want = naive_window(&f, pos, span, n_ctx);
                    assert_eq!(copied, want, "copied pos={pos}");
                    assert_eq!(f.window(pos, span, n_ctx), want, "window_into pos={pos}");
                    let (lo, hi) = f.seq_bounds(pos);
                    let interior =
                        pos >= lo + n_ctx as u32 && pos as usize + span + n_ctx <= hi as usize;
                    let fits = (pos as usize + reach).saturating_sub(n_ctx) <= f.len();
                    let mut row = vec![0xee; reach];
                    let run = lender.source(pos, &mut row);
                    assert_eq!(run.is_some(), interior && fits, "lent pos={pos}");
                    let source = run.unwrap_or(&row);
                    assert_eq!(
                        (source.len(), &source[..l]),
                        (reach, &want[..]),
                        "pos={pos}"
                    );
                    seen[usize::from(run.is_none()) + usize::from(interior && !fits)] += 1;
                }
            }
        });
        assert!(
            seen.iter().all(|&n| n > 0),
            "lent, edge, bank end: {seen:?}"
        );
    }

    /// Two routes to the six frames' flat bank over one translation: in
    /// place, the frames appended to one buffer that becomes the bank,
    /// and frame by frame through a `Bank`.
    #[test]
    fn six_frames_flattened_in_place_equal_the_bank_route() {
        use psc_seqio::prng::for_cases;
        use psc_seqio::{translate_six_frames, translate_six_frames_into};
        use psc_seqio::{Frame, GeneticCode, SeqKind};
        let code = GeneticCode::standard();
        for len in (0..=40).chain([2_999, 3_000, 4_097]) {
            for_cases(0xf1a7 ^ len as u64, 4, |g| {
                // A, C, G, T, mostly; then `N` and codes past it.
                let nt = |g: &mut psc_seqio::prng::SplitMix64| match g.chance(0.9) {
                    true => g.range(0u8..4),
                    false => *g.select(&[4, 5, 9, 255]),
                };
                let genome = Seq::from_codes("g", g.vec(len..=len, nt), SeqKind::Dna);
                let mut residues = Vec::new();
                translate_six_frames_into(&genome, code, &mut residues);
                let lens = Frame::ALL.map(|f| f.translated_len(len));
                let in_place = FlatBank::from_concatenation(residues, lens);
                let translated = translate_six_frames(&genome, code);
                let via_bank = FlatBank::from_bank(&translated.to_bank());
                assert_eq!(in_place.residues, via_bank.residues);
                assert_eq!(in_place.starts, via_bank.starts);
                assert_eq!(in_place.block_seq, via_bank.block_seq);
                for (i, &frame) in Frame::ALL.iter().enumerate() {
                    assert_eq!(in_place.seq(i), via_bank.seq(i), "{frame}");
                    assert_eq!(in_place.seq(i), translated.frame(frame).residues);
                }
            });
        }
    }

    #[test]
    fn empty_bank() {
        let f = FlatBank::from_bank(&Bank::new());
        assert!(f.is_empty());
        assert_eq!(f.seq_count(), 0);
    }
}
