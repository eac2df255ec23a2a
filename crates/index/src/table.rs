//! The index table (paper step 1): seed key → index list of positions.
//!
//! Layout is CSR: one flat `positions` array grouped by key, sliced by a
//! `key_count + 1` offset table. Construction is the classic two-pass
//! counting sort — count keys, prefix-sum, scatter — over *parts*,
//! contiguous ranges of sequences each with its own histogram
//! ([`KeyCounts`]), so each `(part, key)` pair owns a disjoint output
//! range and parts scatter in parallel without synchronisation. A build
//! takes one part a thread; a scatter over some parts alone indexes
//! those sequences, so a bank can be indexed a piece at a time against
//! one count pass. Both passes key windows through one body ([`Walk`])
//! over the model as a table ([`key_rows`]): no call per window.
//!
//! A build may keep only the keys a query's T0 holds (step 2 reads
//! `IL1_k` only where `IL0_k` is non-empty). Every window is still
//! counted. The 512-bit body passes on only kept keys; under the
//! portable one a dropped key's cursor sits on its part's sink slot,
//! past the kept positions, and advances by 0: the scatter stays
//! branchless.

use std::ops::Range;
use std::{slice, thread};

use psc_seqio::isa::Isa;

use crate::flat::FlatBank;
use crate::seed::{key_rows, KeyRow, SeedModel, NO_KEY};

/// Positions between two chunks' sink slots: 64 bytes, a cache line.
const SINK_PITCH: usize = 16;

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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
        SeedIndex::build_with(flat, model, threads, keep, Walk::at(Isa::host()))
    }

    /// [`SeedIndex::build`] through the keying body `walk`: both passes
    /// of [`KeyCounts`] over sequence ranges of roughly equal residue
    /// mass, one a thread.
    pub(crate) fn build_with(
        flat: &FlatBank,
        model: &dyn SeedModel,
        threads: usize,
        keep: Option<&SeedIndex>,
        walk: Walk,
    ) -> SeedIndex {
        let parts = sequence_chunks(flat, threads.max(1));
        let counts = KeyCounts::count_with(flat, model, parts, threads, keep, walk);
        let mut idx = SeedIndex::default();
        counts.scatter(0..counts.parts(), threads, &mut idx);
        idx
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

/// Pass 1 of a build: the kept-key histogram of each *part* of a bank —
/// a run of consecutive sequences — and the windows of each that
/// seeded. [`KeyCounts::scatter`] is pass 2 over any run of parts: the
/// index of those sequences alone, so a bank can be indexed a few parts
/// at a time against one count pass.
#[derive(Debug)]
pub struct KeyCounts<'a> {
    flat: &'a FlatBank,
    rows: Vec<KeyRow>,
    /// 1 where a key is kept, and 3 bytes of padding: the 512-bit body
    /// reads a key's entry as the low byte of a dword.
    kept: Vec<u8>,
    walk: Walk,
    /// `(first_seq, last_seq_exclusive)` of each part, in bank order.
    parts: Vec<(usize, usize)>,
    /// Each part's positions per key; 0 for a dropped key.
    hists: Vec<Vec<u32>>,
    /// Each part's windows that seeded, kept or not.
    seeded: Vec<usize>,
}

impl<'a> KeyCounts<'a> {
    /// Count the windows of each of `parts` of `flat` under `model` on
    /// `threads` threads, keeping the keys `keep` holds, or all keys.
    /// Each part starts where the one before it ends.
    pub fn count(
        flat: &'a FlatBank,
        model: &dyn SeedModel,
        parts: Vec<(usize, usize)>,
        threads: usize,
        keep: Option<&SeedIndex>,
    ) -> KeyCounts<'a> {
        KeyCounts::count_with(flat, model, parts, threads, keep, Walk::at(Isa::host()))
    }

    /// [`KeyCounts::count`] through the keying body `walk`.
    fn count_with(
        flat: &'a FlatBank,
        model: &dyn SeedModel,
        parts: Vec<(usize, usize)>,
        threads: usize,
        keep: Option<&SeedIndex>,
        walk: Walk,
    ) -> KeyCounts<'a> {
        let key_count = model.key_count();
        let mut kept: Vec<u8> = match keep {
            Some(t0) => (t0.offsets.windows(2))
                .map(|w| u8::from(w[0] < w[1]))
                .collect(),
            None => vec![1; key_count],
        };
        assert_eq!(kept.len(), key_count, "incompatible seed models");
        // A scatter walks a run of parts as one run of sequences: a gap
        // would write windows no cursor range was counted for.
        let tiled = parts.windows(2).all(|w| w[0].1 == w[1].0);
        assert!(tiled, "parts must be consecutive");
        kept.extend([0; 3]);
        let rows = key_rows(model);
        let (r, k) = (&rows[..], &kept[..]);
        let counted = batched(&mut parts.clone(), threads, |&mut part| {
            let mut hist = vec![0u32; key_count];
            let seeded = walk.keys(flat, r, k, part, |_, key| hist[key as usize] += 1);
            // The portable body counts dropped keys too.
            for (h, &kept) in hist.iter_mut().zip(k) {
                *h *= u32::from(kept);
            }
            (hist, seeded)
        });
        let (hists, seeded) = counted.into_iter().unzip();
        KeyCounts {
            flat,
            rows,
            kept,
            walk,
            parts,
            hists,
            seeded,
        }
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.parts.len()
    }

    /// Positions of `key` the parts `parts` hold.
    pub fn list_len(&self, parts: Range<usize>, key: u32) -> usize {
        let hists = self.hists[parts].iter();
        hists.map(|hist| hist[key as usize] as usize).sum()
    }

    /// Positions the parts `parts` hold.
    pub fn held(&self, parts: Range<usize>) -> usize {
        let counts = self.hists[parts].iter().flatten();
        counts.map(|&c| c as usize).sum()
    }

    /// Windows of the bank that seeded, held or not.
    pub fn seeded(&self) -> usize {
        self.seeded.iter().sum()
    }

    /// Pass 2: the index of the sequences of `parts` into `into`, whose
    /// buffers are reused, on `threads` threads. Positions stay global
    /// and each list sorted: over every part this is
    /// [`SeedIndex::build`], and the parts' indexes one by one hold each
    /// key's list in consecutive pieces.
    pub fn scatter(&self, parts: Range<usize>, threads: usize, into: &mut SeedIndex) {
        let (kept, hists) = (&self.kept[..], &self.hists[parts.clone()]);
        let key_count = kept.len() - 3;
        let offsets = &mut into.offsets;
        offsets.clear();
        offsets.push(0);
        for k in 0..key_count {
            offsets.push(offsets[k] + hists.iter().map(|hist| hist[k]).sum::<u32>());
        }
        let total = offsets[key_count] as usize;

        // One job a thread: a run of consecutive parts, so of sequences,
        // and its cursors — where it starts writing each key's
        // positions. Jobs are in ascending sequence order, so each key's
        // list comes out sorted by global position. A dropped key writes
        // to its job's sink, slot `total + SINK_PITCH * job`: every
        // dropped window is a store there, and sinks a cache line apart
        // keep concurrent jobs from contending for one line.
        let per = parts.len().div_ceil(threads.max(1)).max(1);
        let mut running = offsets[..key_count].to_vec();
        let runs = self.parts[parts.clone()].chunks(per).zip(hists.chunks(per));
        let mut jobs: Vec<_> = (runs.zip((total as u32..).step_by(SINK_PITCH)))
            .map(|((seqs, hists), sink)| {
                let at = running.iter().zip(kept);
                let cursor = at.map(|(&at, &k)| if k != 0 { at } else { sink });
                let cursor: Vec<u32> = cursor.collect();
                for hist in hists {
                    running.iter_mut().zip(hist).for_each(|(r, &c)| *r += c);
                }
                ((seqs[0].0, seqs[seqs.len() - 1].1), cursor)
            })
            .collect();

        // Each (job, key) range and each job's sink is disjoint by
        // construction, so jobs write concurrently through a shared
        // pointer.
        let len = total + SINK_PITCH * jobs.len();
        let positions = &mut into.positions;
        positions.clear();
        // Exactly: a reused index grows to its largest piece, not twice.
        positions.reserve_exact(len);
        positions.resize(len, 0);
        let writer = DisjointWriter(positions.as_mut_ptr());
        batched(&mut jobs, threads, |(seqs, cursor)| {
            // Capture the wrapper, not its raw-pointer field (edition-2021
            // closures capture fields).
            let writer: DisjointWriter = writer;
            // SAFETY: every write lands inside this job's cursor ranges
            // or on its own sink slot, disjoint from all other jobs'.
            let out = unsafe { slice::from_raw_parts_mut(writer.0, len) };
            self.walk
                .keys(self.flat, &self.rows, kept, *seqs, |pos, key| {
                    let c = &mut cursor[key as usize];
                    out[*c as usize] = pos;
                    *c += u32::from(kept[key as usize]);
                });
        });
        positions.truncate(total);
        into.key_count = key_count;
        into.seeded = self.seeded[parts].iter().sum();
    }
}

/// `f` over every job on up to `threads` scoped threads, each taking a
/// contiguous batch (this thread alone for one thread or one job);
/// results in job order.
fn batched<J: Send, R: Send>(
    jobs: &mut [J],
    threads: usize,
    f: impl Fn(&mut J) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.iter_mut().map(f).collect();
    }
    let per = jobs.len().div_ceil(threads);
    thread::scope(|s| {
        let f = &f;
        let batches = jobs.chunks_mut(per);
        let handles: Vec<_> = batches
            .map(|batch| s.spawn(move || batch.iter_mut().map(f).collect::<Vec<_>>()))
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .flat_map(|r| r.expect("index worker panicked"))
            .collect()
    })
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

/// The body a build keys its windows with, picked once per build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Walk {
    /// [`for_each_key`]: every window that seeds.
    Portable,
    /// [`crate::avx512::keys`]: sixteen windows a step, kept keys only.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Walk {
    /// The 512-bit body from [`Isa::Avx512`].
    pub(crate) fn at(level: Isa) -> Walk {
        match level {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 | Isa::Avx512Vbmi => Walk::Avx512,
            _ => Walk::Portable,
        }
    }

    /// Call `f(position, key)` in position order for the windows of
    /// sequences `s0..s1` that seed — at least those whose `kept` byte
    /// is set — and return how many seeded. The one place a model's
    /// span becomes a constant of the portable loop.
    fn keys(
        self,
        flat: &FlatBank,
        rows: &[KeyRow],
        kept: &[u8],
        (s0, s1): (usize, usize),
        f: impl FnMut(u32, u32),
    ) -> usize {
        let (r, seqs) = (flat.residues(), (s0..s1).map(|seq| flat.bounds_of(seq)));
        match (self, rows.len()) {
            // SAFETY: `at` names this body from `Avx512`, at most the CPU's
            // level; `kept` holds a byte per key and 3 of padding, and
            // `seqs` are the bank's own sequences.
            #[cfg(target_arch = "x86_64")]
            (Walk::Avx512, _) => unsafe { crate::avx512::keys(r, seqs, rows, kept, f) },
            (_, 1) => for_each_key::<1>(r, seqs, rows, f),
            (_, 2) => for_each_key::<2>(r, seqs, rows, f),
            (_, 3) => for_each_key::<3>(r, seqs, rows, f),
            (_, 4) => for_each_key::<4>(r, seqs, rows, f),
            (_, 5) => for_each_key::<5>(r, seqs, rows, f),
            (_, 6) => for_each_key::<6>(r, seqs, rows, f),
            (_, span) => panic!("seed span {span} outside 1..=6"),
        }
    }
}

/// Call `f(position, key)` for every window of the sequences `seqs`
/// (bounds in `residues`) that seeds, in position order, and return how
/// many did. A key is one load per seed position out of `rows`, summed,
/// and is `≥ NO_KEY` iff a residue of the window cannot seed
/// ([`key_rows`]); windows are taken per sequence, so none crosses a
/// boundary.
#[inline]
fn for_each_key<const SPAN: usize>(
    residues: &[u8],
    seqs: impl Iterator<Item = (u32, u32)>,
    rows: &[KeyRow],
    mut f: impl FnMut(u32, u32),
) -> usize {
    let rows: &[KeyRow; SPAN] = rows.try_into().expect("one row per seed position");
    let mut seeded = 0;
    for (lo, hi) in seqs {
        let r = &residues[lo as usize..hi as usize];
        for (window, pos) in r.windows(SPAN).zip(lo..) {
            let loads = rows.iter().zip(window).map(|(row, &c)| row[c as usize]);
            let key: u32 = loads.sum();
            if key < NO_KEY {
                seeded += 1;
                f(pos, key);
            }
        }
    }
    seeded
}

/// Shared mutable pointer for the disjoint pass-2 scatter.
#[derive(Clone, Copy)]
struct DisjointWriter(*mut u32);
// SAFETY: the wrapped pointer is only dereferenced through the disjoint
// pass-2 scatter, where each job writes its own index ranges (per-job
// cursor ranges computed from pass 1) and its own sink slot; moving the
// wrapper across threads cannot create overlapping writes.
unsafe impl Send for DisjointWriter {}
// SAFETY: shared references to the wrapper only ever write disjoint
// elements (see `Send` above); a kept position is written once, a sink
// slot only by its own job, and none is read until the scatter has
// returned.
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

    /// The bodies [`SeedIndex::build`] takes at each level this CPU
    /// has, once each.
    fn walks() -> Vec<Walk> {
        let levels = psc_seqio::isa::levels("a keying body").into_iter();
        let mut walks: Vec<Walk> = levels.map(Walk::at).collect();
        walks.dedup();
        walks
    }

    /// `flat`'s windows keyed through `SeedModel::key`, stable-sorted by
    /// key: the definition of an index.
    fn naive_keys(flat: &FlatBank, model: &dyn SeedModel) -> Vec<(u32, u32)> {
        let span = model.span();
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
        keyed
    }

    /// `idx` is the index of the windows `keyed` ([`naive_keys`]) whose
    /// key `keep` holds (all, without one): each kept key's list is its
    /// run of `keyed`, the lists hold nothing else, and every window
    /// that seeds is counted.
    fn assert_indexes(idx: &SeedIndex, keyed: &[(u32, u32)], keep: Option<&SeedIndex>, what: &str) {
        let kept = |k: u32| keep.is_none_or(|t0| !t0.list(k).is_empty());
        assert_eq!(idx.seeded_positions(), keyed.len(), "{what}");
        let mut held = 0;
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            let k = run[0].0;
            let want: Vec<u32> = match kept(k) {
                true => run.iter().map(|&(_, pos)| pos).collect(),
                false => Vec::new(),
            };
            assert_eq!(idx.list(k), want, "{what}, key {k}");
            held += want.len();
        }
        assert_eq!(idx.total_positions(), held, "{what}");
    }

    /// The build against its definition, not against itself: every
    /// window keyed through `SeedModel::key`, stable-sorted by key. Banks
    /// carry `B`/`X`/`*`, codes past the alphabet (`Seq::from_codes`
    /// checks nothing), empty sequences, sequences shorter than the span
    /// and sequences long enough that the 512-bit body hands its held
    /// windows on mid-sequence; the models cover every span the keying
    /// loop is instantiated for. Each case keeps the keys of a small
    /// random bank's index (or all keys): through each body, at every
    /// thread count, a kept key's list is the reference's, a dropped
    /// key's is empty, and every window that seeds is counted.
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
        let walks = walks();
        for_cases(0x1dc0de, 240, |g| {
            let model = g.select(&models).as_ref();
            let span = model.span();
            let flat_bank = |g: &mut SplitMix64, seqs| {
                let bank: Bank = (0..seqs)
                    .map(|i| {
                        let len = match g.range(0u32..12) {
                            0 => 0,
                            1 => g.range(0..span),
                            2 => *g.select(&[4_100, 8_300]),
                            _ => g.range(span..80),
                        };
                        let residue = |g: &mut SplitMix64| match g.range(0u32..20) {
                            0 => Aa::from_ascii_lossy(*g.select(b"BX*")).0,
                            1 => *g.select(&[25, 31, 32, 200]),
                            _ => g.range(0u8..20),
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
            let keyed = naive_keys(&flat, model);
            for &walk in &walks {
                for threads in [1, 2, 3, 8] {
                    let idx = SeedIndex::build_with(&flat, model, threads, keep.as_ref(), walk);
                    let what = format!("{} by {walk:?} at {threads} threads", model.name());
                    assert_indexes(&idx, &keyed, keep.as_ref(), &what);
                }
            }
        });

        // Exact 6-mers: keys up to `20^6 − 1`, next to the compare with
        // `key_count` (runs of `V`, code 19, key there), beside windows
        // holding codes 20–31, whose rows sum to `NO_KEY` or more. Each
        // body keys the bank directly against a T0's kept bytes: a build's
        // tables would be 64 M entries each.
        let model = ExactSeed::new(6);
        let mut g = SplitMix64::new(0xe6);
        let bank = |g: &mut SplitMix64, lens: &[usize]| {
            let residue = |g: &mut SplitMix64| match g.range(0u32..10) {
                0..=5 => 19,
                6 => g.range(20u8..32),
                7 => 200,
                _ => g.range(15u8..20),
            };
            let seqs = lens.iter().map(|&len| {
                let codes = g.vec(len..=len, residue);
                Seq::from_codes("s", codes, psc_seqio::SeqKind::Protein)
            });
            FlatBank::from_bank(&seqs.collect())
        };
        let (flat, t0) = (bank(&mut g, &[5, 300, 4_100]), bank(&mut g, &[200]));
        let mut kept = vec![0u8; model.key_count() + 3];
        for (key, _) in naive_keys(&t0, &model) {
            kept[key as usize] = 1;
        }
        let mut keyed = naive_keys(&flat, &model);
        keyed.sort_by_key(|&(_, pos)| pos);
        let top = (model.key_count() - 1) as u32;
        assert!(keyed.iter().any(|&(key, _)| key == top) && kept[top as usize] == 1);
        assert!(keyed.iter().any(|&(key, _)| kept[key as usize] == 0));
        for walk in walks {
            let mut got = Vec::new();
            let rows = &key_rows(&model);
            let chunk = (0, flat.seq_count());
            let seeded = walk.keys(&flat, rows, &kept, chunk, |pos, key| got.push((key, pos)));
            let held = keyed
                .iter()
                .filter(|&&(key, _)| walk == Walk::Portable || kept[key as usize] == 1);
            assert_eq!(seeded, keyed.len(), "exact-6 by {walk:?}");
            assert_eq!(
                got,
                held.copied().collect::<Vec<_>>(),
                "exact-6 by {walk:?}"
            );
        }
    }

    /// The second pass over some parts alone. Over every part of a
    /// count with one part a sequence it is [`SeedIndex::build`]; the
    /// parts' indexes one by one, or split at a random part, hold each
    /// key's list in consecutive pieces and the windows that seeded
    /// between them — through each body, at 1–3 threads, keyed by a
    /// small T0 or not, with empty sequences and sequences of which no
    /// window is kept.
    #[test]
    fn scatters_of_parts_concatenate_to_the_build() {
        let model = subset_seed_default();
        let walks = walks();
        let bank = |g: &mut SplitMix64, seqs: usize| {
            let bank: Bank = (0..seqs)
                .map(|i| {
                    let len = *g.select(&[0, 3, 40, 300, 2_000]);
                    let residue = |g: &mut SplitMix64| match g.range(0u32..20) {
                        0 => Aa::X.0,
                        _ => g.range(0u8..20),
                    };
                    let codes = g.vec(len..=len, residue);
                    Seq::from_codes(format!("s{i}"), codes, psc_seqio::SeqKind::Protein)
                })
                .collect();
            FlatBank::from_bank(&bank)
        };
        for_cases(0x5ca7, 16, |g| {
            let seqs = g.range(1usize..=8);
            let flat = bank(g, seqs);
            let keep = g.chance(0.7).then(|| {
                let seqs = g.range(0usize..=3);
                SeedIndex::build(&bank(g, seqs), &model, 1, None)
            });
            let parts: Vec<_> = (0..seqs).map(|s| (s, s + 1)).collect();
            let split = g.range(0..=seqs);
            for &walk in &walks {
                for threads in [1, 2, 3] {
                    let what = format!("{walk:?} at {threads} threads");
                    let whole = SeedIndex::build_with(&flat, &model, threads, keep.as_ref(), walk);
                    let counts = KeyCounts::count_with(
                        &flat,
                        &model,
                        parts.clone(),
                        threads,
                        keep.as_ref(),
                        walk,
                    );
                    assert_eq!(counts.seeded(), whole.seeded_positions(), "{what}");
                    assert_eq!(counts.held(0..seqs), whole.total_positions(), "{what}");
                    let mut all = SeedIndex::default();
                    counts.scatter(0..seqs, threads, &mut all);
                    assert_eq!(all, whole, "{what}");
                    for pieces in [
                        (0..seqs).map(|p| p..p + 1).collect(),
                        vec![0..split, split..seqs],
                    ] {
                        // One index reused piece after piece, as a worker does.
                        let mut idx = SeedIndex::default();
                        let (mut lists, mut seeded) = (vec![Vec::new(); whole.key_count()], 0);
                        for piece in pieces {
                            counts.scatter(piece.clone(), threads, &mut idx);
                            assert_eq!(idx.total_positions(), counts.held(piece.clone()), "{what}");
                            seeded += idx.seeded_positions();
                            for (k, list) in lists.iter_mut().enumerate() {
                                let k = k as u32;
                                assert_eq!(idx.list(k).len(), counts.list_len(piece.clone(), k));
                                list.extend_from_slice(idx.list(k));
                            }
                        }
                        assert_eq!(seeded, whole.seeded_positions(), "{what}");
                        for (k, list) in lists.iter().enumerate() {
                            assert_eq!(list[..], *whole.list(k as u32), "{what}, key {k}");
                        }
                    }
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
