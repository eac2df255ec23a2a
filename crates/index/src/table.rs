//! The index table (paper step 1): seed key → index list of positions.
//!
//! Layout is CSR: one flat `positions` array grouped by key, sliced by a
//! `key_count + 1` offset table. Construction is the classic two-pass
//! counting sort — count keys, prefix-sum, scatter — parallelised over
//! contiguous ranges of sequences with per-thread histograms, so each
//! `(thread, key)` pair owns a disjoint output range and pass 2 writes
//! without synchronisation. Both passes key windows through one loop,
//! [`for_each_key`], over the model as a table ([`key_rows`]): no call
//! per window.
//!
//! A build may keep only the keys a query's T0 holds (step 2 reads
//! `IL1_k` only where `IL0_k` is non-empty). Every window is still
//! counted; a dropped key's cursor sits on its chunk's sink slot, past
//! the kept positions, and advances by 0: the scatter stays branchless.

use std::{slice, thread};

use crate::flat::FlatBank;
use crate::seed::{key_rows, KeyRow, SeedModel, NO_KEY};

/// Summary statistics of an index (used by reports and by the operator's
/// batch scheduler).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexStats {
    pub nonempty_keys: usize,
    pub total_positions: usize,
    pub max_list_len: usize,
    pub mean_list_len: f64,
}

/// A seed index over one flattened bank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedIndex {
    key_count: usize,
    offsets: Vec<u32>,
    positions: Vec<u32>,
    /// Windows that seeded, their keys' lists kept or not.
    seeded: usize,
}

impl SeedIndex {
    /// Build the index of `flat` under `model` using `threads` worker
    /// threads (1 = sequential), keeping the lists of the keys `keep`
    /// holds, or of all keys. Every window that seeds is counted either
    /// way ([`SeedIndex::seeded_positions`]).
    pub fn build(
        flat: &FlatBank,
        model: &dyn SeedModel,
        threads: usize,
        keep: Option<&SeedIndex>,
    ) -> SeedIndex {
        let threads = threads.max(1);
        let key_count = model.key_count();
        let rows = &key_rows(model);
        let kept: Vec<bool> = match keep {
            Some(t0) => t0.offsets.windows(2).map(|w| w[0] < w[1]).collect(),
            None => vec![true; key_count],
        };
        assert_eq!(kept.len(), key_count, "incompatible seed models");
        let count = |chunk| {
            let mut hist = vec![0u32; key_count];
            keys_of_chunk(flat, rows, chunk, |_, key| hist[key as usize] += 1);
            hist
        };
        let scatter = |chunk, cursor: &mut [u32], out: &mut [u32]| {
            keys_of_chunk(flat, rows, chunk, |pos, key| {
                let c = &mut cursor[key as usize];
                out[*c as usize] = pos;
                *c += kept[key as usize] as u32;
            })
        };

        // Partition sequences into contiguous chunks of roughly equal
        // residue mass.
        let chunks = sequence_chunks(flat, threads);
        let nchunks = chunks.len();

        // Pass 1: per-chunk histograms.
        let mut histograms: Vec<Vec<u32>> = Vec::with_capacity(nchunks);
        if nchunks == 1 {
            histograms.push(count(chunks[0]));
        } else {
            thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .iter()
                    .map(|&range| s.spawn(move || count(range)))
                    .collect();
                for h in handles {
                    histograms.push(h.join().expect("index counter panicked"));
                }
            });
        }

        // Global offsets: prefix sum over kept keys of summed chunk
        // counts, and per-(chunk, key) write cursors.
        let mut offsets = vec![0u32; key_count + 1];
        for hist in &histograms {
            for (k, &c) in hist.iter().enumerate() {
                offsets[k + 1] += c;
            }
        }
        let seeded = offsets.iter().map(|&c| c as usize).sum();
        for k in 0..key_count {
            offsets[k + 1] = offsets[k] + offsets[k + 1] * kept[k] as u32;
        }
        let total = offsets[key_count] as usize;

        // cursors[chunk][key] = where that chunk starts writing key's
        // positions. Chunks are in ascending sequence order, so each
        // key's list comes out sorted by global position. A dropped key
        // writes to its chunk's sink, slot `total + chunk`.
        let mut cursors: Vec<Vec<u32>> = Vec::with_capacity(nchunks);
        {
            let mut running = offsets[..key_count].to_vec();
            for (sink, hist) in (total as u32..).zip(&histograms) {
                let at = running.iter().zip(&kept);
                cursors.push(
                    at.map(|(&at, &kept)| if kept { at } else { sink })
                        .collect(),
                );
                for (k, &c) in hist.iter().enumerate() {
                    running[k] += c * kept[k] as u32;
                }
            }
        }

        // Pass 2: scatter. Each (chunk, key) range and each chunk's sink
        // is disjoint by construction, so chunks write concurrently
        // through a shared pointer.
        let mut positions = vec![0u32; total + nchunks];
        if nchunks == 1 {
            scatter(chunks[0], &mut cursors[0], &mut positions);
        } else {
            let writer = DisjointWriter(positions.as_mut_ptr());
            thread::scope(|s| {
                for (&range, cursor) in chunks.iter().zip(cursors.iter_mut()) {
                    s.spawn(move || {
                        // Capture the wrapper, not its raw-pointer field
                        // (edition-2021 closures capture fields).
                        let writer: DisjointWriter = writer;
                        // SAFETY: every write lands inside this chunk's
                        // cursor ranges or on its own sink slot, disjoint
                        // from all other chunks'.
                        let out = unsafe { slice::from_raw_parts_mut(writer.0, total + nchunks) };
                        scatter(range, cursor, out);
                    });
                }
            });
        }
        positions.truncate(total);

        SeedIndex {
            key_count,
            offsets,
            positions,
            seeded,
        }
    }

    /// Number of possible keys.
    #[inline]
    pub fn key_count(&self) -> usize {
        self.key_count
    }

    /// The index list `IL_k`: global positions whose window keys to `k`,
    /// in ascending order.
    #[inline]
    pub fn list(&self, key: u32) -> &[u32] {
        let k = key as usize;
        &self.positions[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Positions stored.
    #[inline]
    pub fn total_positions(&self) -> usize {
        self.positions.len()
    }

    /// Windows of the bank that seeded, stored or not: the full
    /// index's [`SeedIndex::total_positions`].
    #[inline]
    pub fn seeded_positions(&self) -> usize {
        self.seeded
    }

    /// Keys with at least one occurrence.
    pub fn nonempty_keys(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.key_count as u32).filter(|&k| !self.list(k).is_empty())
    }

    /// Summary statistics.
    pub fn stats(&self) -> IndexStats {
        let mut nonempty = 0usize;
        let mut max_len = 0usize;
        for k in 0..self.key_count {
            let len = (self.offsets[k + 1] - self.offsets[k]) as usize;
            if len > 0 {
                nonempty += 1;
                max_len = max_len.max(len);
            }
        }
        IndexStats {
            nonempty_keys: nonempty,
            total_positions: self.positions.len(),
            max_list_len: max_len,
            mean_list_len: if nonempty == 0 {
                0.0
            } else {
                self.positions.len() as f64 / nonempty as f64
            },
        }
    }

    /// Raw offset table (CSR row pointers), for serialization.
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Raw position array, for serialization.
    pub(crate) fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Rebuild from raw parts (deserialization only; the caller has
    /// validated the CSR invariants).
    pub(crate) fn from_parts(
        key_count: usize,
        offsets: Vec<u32>,
        positions: Vec<u32>,
    ) -> SeedIndex {
        debug_assert_eq!(offsets.len(), key_count + 1);
        SeedIndex {
            key_count,
            seeded: positions.len(),
            offsets,
            positions,
        }
    }

    /// Number of ungapped extensions step 2 will perform against another
    /// index: `Σ_k |IL0_k| · |IL1_k|`.
    pub fn pair_count(&self, other: &SeedIndex) -> u64 {
        assert_eq!(self.key_count, other.key_count, "incompatible seed models");
        (0..self.key_count)
            .map(|k| {
                let a = (self.offsets[k + 1] - self.offsets[k]) as u64;
                let b = (other.offsets[k + 1] - other.offsets[k]) as u64;
                a * b
            })
            .sum()
    }
}

/// Split sequences into ≤ `threads` contiguous ranges of roughly equal
/// residue mass. Returned ranges are `(first_seq, last_seq_exclusive)`.
fn sequence_chunks(flat: &FlatBank, threads: usize) -> Vec<(usize, usize)> {
    let nseqs = flat.seq_count();
    if nseqs == 0 {
        return vec![(0, 0)];
    }
    let per_chunk = (flat.len() / threads).max(1);
    let mut chunks = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut mass = 0usize;
    for seq in 0..nseqs {
        let (lo, hi) = flat.bounds_of(seq);
        mass += (hi - lo) as usize;
        if mass >= per_chunk && chunks.len() + 1 < threads {
            chunks.push((start, seq + 1));
            start = seq + 1;
            mass = 0;
        }
    }
    if start < nseqs {
        chunks.push((start, nseqs));
    }
    if chunks.is_empty() {
        chunks.push((0, nseqs));
    }
    chunks
}

/// Call `f(position, key)` for every window of sequences `s0..s1` that
/// seeds, in position order. A key is one load per seed position out of
/// `rows`, summed, and is `≥ NO_KEY` iff a residue of the window cannot
/// seed ([`key_rows`]); windows are taken per sequence, so none crosses
/// a boundary.
#[inline]
fn for_each_key<const SPAN: usize>(
    flat: &FlatBank,
    rows: &[KeyRow],
    (s0, s1): (usize, usize),
    mut f: impl FnMut(u32, u32),
) {
    let rows: &[KeyRow; SPAN] = rows.try_into().expect("one row per seed position");
    for seq in s0..s1 {
        let (lo, hi) = flat.bounds_of(seq);
        let r = &flat.residues()[lo as usize..hi as usize];
        for (window, pos) in r.windows(SPAN).zip(lo..) {
            let loads = rows.iter().zip(window).map(|(row, &c)| row[c as usize]);
            let key: u32 = loads.sum();
            if key < NO_KEY {
                f(pos, key);
            }
        }
    }
}

/// [`for_each_key`] at the span of `rows`: the one place a model's span
/// becomes a constant of the loop.
fn keys_of_chunk(flat: &FlatBank, rows: &[KeyRow], chunk: (usize, usize), f: impl FnMut(u32, u32)) {
    match rows.len() {
        1 => for_each_key::<1>(flat, rows, chunk, f),
        2 => for_each_key::<2>(flat, rows, chunk, f),
        3 => for_each_key::<3>(flat, rows, chunk, f),
        4 => for_each_key::<4>(flat, rows, chunk, f),
        5 => for_each_key::<5>(flat, rows, chunk, f),
        6 => for_each_key::<6>(flat, rows, chunk, f),
        span => panic!("seed span {span} outside 1..=6"),
    }
}

/// Shared mutable pointer for the disjoint pass-2 scatter.
#[derive(Clone, Copy)]
struct DisjointWriter(*mut u32);
// SAFETY: the wrapped pointer is only dereferenced through the disjoint
// pass-2 scatter, where each worker writes its own index ranges (per-chunk
// cursor ranges computed in pass 1) and its own sink slot; moving the
// wrapper across threads cannot create overlapping writes.
unsafe impl Send for DisjointWriter {}
// SAFETY: shared references to the wrapper only ever write disjoint
// elements (see `Send` above); a kept position is written once, a sink
// slot only by its own chunk, and none is read until the scatter's
// thread scope has joined.
unsafe impl Sync for DisjointWriter {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::{
        murphy10, murphy15, subset_seed_default, subset_seed_span3, ExactSeed, PositionClasses,
        SubsetSeed,
    };
    use psc_seqio::alphabet::Aa;
    use psc_seqio::prng::{for_cases, SplitMix64};
    use psc_seqio::{Bank, Seq};

    fn small_bank() -> Bank {
        let mut b = Bank::new();
        b.push(Seq::protein("a", b"MKVLMKVL"));
        b.push(Seq::protein("b", b"MKV"));
        b.push(Seq::protein("c", b"XX")); // nothing indexable
        b
    }

    #[test]
    fn exact_index_finds_all_occurrences() {
        let bank = small_bank();
        let flat = FlatBank::from_bank(&bank);
        let model = ExactSeed::new(3);
        let idx = SeedIndex::build(&flat, &model, 1, None);
        let key = model
            .key(&psc_seqio::alphabet::encode_protein(b"MKV"))
            .unwrap();
        // MKV occurs at global positions 0, 4 (in "MKVLMKVL") and 8 ("MKV").
        assert_eq!(idx.list(key), &[0, 4, 8]);
        // KVL occurs at 1, 5.
        let key = model
            .key(&psc_seqio::alphabet::encode_protein(b"KVL"))
            .unwrap();
        assert_eq!(idx.list(key), &[1, 5]);
    }

    #[test]
    fn windows_never_cross_sequence_boundaries() {
        // "VLM" occurs inside sequence a but the window ending at a's last
        // residue plus b's first must NOT be indexed.
        let bank = small_bank();
        let flat = FlatBank::from_bank(&bank);
        let model = ExactSeed::new(3);
        let idx = SeedIndex::build(&flat, &model, 1, None);
        // Window at position 6 would be "VL|M" crossing into sequence b:
        // check nothing indexed spans positions 6..9 etc. Verify by
        // asserting total count: seq a (len 8) has 6 windows, seq b
        // (len 3) has 1, seq c none.
        assert_eq!(idx.total_positions(), 7);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let bank: Bank = (0..40)
            .map(|i| {
                let res: Vec<u8> = (0..137u32).map(|j| ((i * 7 + j * 13) % 20) as u8).collect();
                Seq::from_codes(format!("s{i}"), res, psc_seqio::SeqKind::Protein)
            })
            .collect();
        let flat = FlatBank::from_bank(&bank);
        let model = subset_seed_default();
        let seq = SeedIndex::build(&flat, &model, 1, None);
        for threads in [2, 3, 8] {
            let par = SeedIndex::build(&flat, &model, threads, None);
            assert_eq!(par.offsets, seq.offsets, "threads={threads}");
            assert_eq!(par.positions, seq.positions, "threads={threads}");
        }
    }

    /// The build against its definition, not against itself: every
    /// window keyed through `SeedModel::key`, stable-sorted by key. Banks
    /// carry `B`/`X`/`*`, empty sequences and sequences shorter than the
    /// span; the models cover every span the keying loop is instantiated
    /// for. Each case keeps the keys of a small random bank's index (or
    /// all keys): at every thread count a kept key's list is the
    /// reference's, a dropped key's is empty, and every window that
    /// seeds is counted.
    #[test]
    fn build_equals_the_naive_reference_at_every_thread_count() {
        let coarse = || PositionClasses::from_groups("coarse", "LVIMCAG|STPFYW|EDNQKRH");
        let mut span6 = vec![coarse(); 6];
        (span6[0], span6[5]) = (murphy10(), murphy15());
        let models: [Box<dyn SeedModel>; 6] = [
            Box::new(ExactSeed::new(1)),
            Box::new(ExactSeed::new(2)),
            Box::new(subset_seed_span3()),
            Box::new(subset_seed_default()),
            Box::new(SubsetSeed::new(vec![coarse(); 5])),
            Box::new(SubsetSeed::new(span6)),
        ];
        for_cases(0x1dc0de, 240, |g| {
            let model = g.select(&models).as_ref();
            let span = model.span();
            let flat_bank = |g: &mut SplitMix64, seqs| {
                let bank: Bank = (0..seqs)
                    .map(|i| {
                        let len = match g.range(0u32..4) {
                            0 => 0,
                            1 => g.range(0..span),
                            _ => g.range(span..80),
                        };
                        let residue = |g: &mut SplitMix64| match g.chance(0.1) {
                            true => Aa::from_ascii_lossy(*g.select(b"BX*")).0,
                            false => g.range(0u8..20),
                        };
                        let codes = g.vec(len..=len, residue);
                        Seq::from_codes(format!("s{i}"), codes, psc_seqio::SeqKind::Protein)
                    })
                    .collect();
                FlatBank::from_bank(&bank)
            };
            let seqs = g.range(1usize..=40);
            let flat = flat_bank(g, seqs);
            let keep = match g.chance(0.25) {
                true => None,
                false => {
                    let seqs = g.range(0usize..=4);
                    Some(SeedIndex::build(&flat_bank(g, seqs), model, 1, None))
                }
            };

            let mut keyed = Vec::new();
            for seq in 0..flat.seq_count() {
                let (lo, hi) = flat.bounds_of(seq);
                for pos in lo as usize..(hi as usize + 1).saturating_sub(span) {
                    if let Some(key) = model.key(&flat.residues()[pos..pos + span]) {
                        keyed.push((key, pos as u32));
                    }
                }
            }
            keyed.sort_by_key(|&(key, _)| key);
            let kept = |k: u32| keep.as_ref().is_none_or(|t0| !t0.list(k).is_empty());
            let lists: Vec<Vec<u32>> = (0..model.key_count() as u32)
                .map(|k| {
                    let run = keyed.partition_point(|&(key, _)| key < k)
                        ..keyed.partition_point(|&(key, _)| key <= k);
                    let run = if kept(k) { &keyed[run] } else { &[] };
                    run.iter().map(|&(_, pos)| pos).collect()
                })
                .collect();

            for threads in [1, 2, 3, 8] {
                let idx = SeedIndex::build(&flat, model, threads, keep.as_ref());
                let what = format!("{} at {threads} threads", model.name());
                assert_eq!(idx.seeded_positions(), keyed.len(), "{what}");
                for (k, want) in (0..).zip(&lists) {
                    assert_eq!(idx.list(k), want, "{what}, key {k}");
                }
            }
        });
    }

    #[test]
    fn lists_are_sorted() {
        let bank: Bank = (0..20)
            .map(|i| {
                let res: Vec<u8> = (0..200u32).map(|j| ((i + j * 3) % 20) as u8).collect();
                Seq::from_codes(format!("s{i}"), res, psc_seqio::SeqKind::Protein)
            })
            .collect();
        let flat = FlatBank::from_bank(&bank);
        let model = subset_seed_default();
        let idx = SeedIndex::build(&flat, &model, 4, None);
        for k in idx.nonempty_keys() {
            let l = idx.list(k);
            assert!(l.windows(2).all(|w| w[0] < w[1]), "key {k} unsorted");
        }
    }

    #[test]
    fn stats_and_pair_count() {
        let bank = small_bank();
        let flat = FlatBank::from_bank(&bank);
        let model = ExactSeed::new(3);
        let idx = SeedIndex::build(&flat, &model, 1, None);
        let st = idx.stats();
        assert_eq!(st.total_positions, 7);
        assert_eq!(st.max_list_len, 3); // MKV
        assert!(st.nonempty_keys >= 4);
        // Pairs against itself: MKV contributes 3*3, KVL 2*2, VLM 1, LMK 1.
        assert_eq!(idx.pair_count(&idx), 9 + 4 + 1 + 1);
    }

    #[test]
    fn empty_bank_index() {
        let flat = FlatBank::from_bank(&Bank::new());
        let idx = SeedIndex::build(&flat, &ExactSeed::new(3), 4, None);
        assert_eq!(idx.total_positions(), 0);
        assert_eq!(idx.stats().nonempty_keys, 0);
        assert_eq!(idx.pair_count(&idx), 0);
    }

    #[test]
    fn nonstandard_residues_not_seeded() {
        let mut b = Bank::new();
        b.push(Seq::protein("s", b"MKXVL*AW"));
        let flat = FlatBank::from_bank(&b);
        let idx = SeedIndex::build(&flat, &ExactSeed::new(2), 1, None);
        // Windows: MK ok, KX no, XV no, VL ok, L* no, *A no, AW ok.
        assert_eq!(idx.total_positions(), 3);
    }
}
