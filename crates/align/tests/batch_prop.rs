//! Property tests for the batched ungapped engine: every backend
//! (profile scalar, the `simd` and `wide` lane paths) must be
//! bit-identical to the reference `ungapped_score` kernel on arbitrary
//! windows — including odd lengths, non-lane-multiple batch sizes and
//! both kernel variants — whether it returns every score
//! (`score_batch`) or only those at or above a threshold
//! (`LaneFilter::scan`).

use psc_align::{
    profile_score, score_batch, ungapped_score, InterleavedWindows, Kernel, KernelBackend,
    KernelChoice, LaneFilter, ScoreProfile, LANES,
};
use psc_score::blosum62;
use psc_score::matrix::match_mismatch;
use psc_seqio::alphabet::AA_ALPHABET_LEN;
use psc_seqio::prng::{for_cases, SplitMix64};

fn residues(g: &mut SplitMix64, len: impl std::ops::RangeBounds<usize>) -> Vec<u8> {
    g.vec(len, |g| g.range(0..AA_ALPHABET_LEN as u8))
}

/// A batch of `n` subject windows of length `len`, row-major.
fn window_batch(g: &mut SplitMix64) -> (Vec<u8>, usize) {
    let (len, n) = (g.range(1usize..40), g.range(0usize..37));
    (residues(g, len * n..=len * n), len)
}

const KERNELS: [Kernel; 2] = [Kernel::ClampedSum, Kernel::PaperLiteral];

/// The profile-based scalar kernel is bit-identical to
/// `ungapped_score` for both kernel variants.
#[test]
fn profile_matches_reference() {
    for_cases(0xba01, 256, |g| {
        let (s0, s1) = (residues(g, 0..80), residues(g, 0..80));
        let n = s0.len().min(s1.len());
        let (s0, s1) = (&s0[..n], &s1[..n]);
        let m = blosum62();
        let mut prof = ScoreProfile::default();
        prof.build(m, s0);
        for kernel in KERNELS {
            assert_eq!(
                profile_score(kernel, &prof, s1),
                ungapped_score(kernel, m, s0, s1)
            );
        }
    });
}

/// Every backend agrees with the reference on whole batches,
/// including batch sizes that are not multiples of the SIMD lane
/// count and windows of odd length.
#[test]
fn backends_match_reference_on_batches() {
    for_cases(0xba02, 256, |g| {
        let (il1, len) = window_batch(g);
        let s0 = residues(g, 1..40);
        let kernel = *g.select(&KERNELS);
        let m = blosum62();
        let w0: Vec<u8> = s0.iter().cycle().take(len).copied().collect();
        let mut prof = ScoreProfile::default();
        prof.build(m, &w0);
        let mut inter = InterleavedWindows::default();
        inter.build(&il1, len);
        assert_eq!(inter.count(), il1.len() / len);

        let expected: Vec<i32> = il1
            .chunks_exact(len)
            .map(|w1| ungapped_score(kernel, m, &w0, w1))
            .collect();
        for backend in [
            KernelBackend::Scalar,
            KernelBackend::Profile,
            KernelBackend::Simd,
            KernelBackend::Wide,
        ] {
            let mut out = Vec::new();
            score_batch(backend, kernel, m, &w0, &prof, &il1, &inter, &mut out);
            assert_eq!(&out, &expected, "backend {:?}", backend);
        }
    });
}

/// The lane filter reports exactly the windows the reference kernel
/// scores at or above the threshold, with the reference's scores, in
/// lane order — under any match/mismatch matrix, at thresholds on both
/// sides of the byte range, at window lengths whose scores pass 16
/// bits, over any block-aligned sub-range.
#[test]
fn lane_filter_matches_reference_filter() {
    for_cases(0xba03, 256, |g| {
        let len = g.range(1usize..300);
        let n = g.range(0usize..200);
        let il1 = residues(g, len * n..=len * n);
        let m = match_mismatch("filter", g.range(1i8..=127), g.range(-128i8..=0));
        let kernel = *g.select(&KERNELS);
        let threshold = g.range(-3i32..300);
        let w0 = residues(g, len..=len);
        let mut inter = InterleavedWindows::default();
        inter.build(&il1, len);
        let mut lane_window = Vec::new();

        // No `resolve` in between: the filter needs no overflow guard.
        for backend in [KernelBackend::Simd, KernelBackend::Wide] {
            let filter = LaneFilter::new(backend, kernel, &m, threshold).expect("a lane backend");
            let start = g.range(0..=n / filter.block_width()) * filter.block_width();
            let end = g.range(start..=n);
            let expected: Vec<(usize, i32)> = il1
                .chunks_exact(len)
                .map(|w1| ungapped_score(kernel, &m, &w0, w1))
                .enumerate()
                .filter(|&(j, s)| (start..end).contains(&j) && s >= threshold)
                .collect();
            let mut got = Vec::new();
            filter.scan(&w0, &inter, start..end, &mut lane_window, |j, s| {
                got.push((j, s))
            });
            assert_eq!(got, expected, "{backend:?} {start}..{end} t={threshold}");
        }
    });
}

/// Bit-identity also holds under a matrix with a wider dynamic range
/// than BLOSUM62 (large match/mismatch scores stress the i16 lanes'
/// overflow guard — `resolve` must refuse SIMD when it cannot hold).
#[test]
fn wide_scores_stay_exact() {
    for_cases(0xba04, 256, |g| {
        let (il1, len) = window_batch(g);
        let s0 = residues(g, 1..40);
        let m = match_mismatch("wide", g.range(1i8..=127), g.range(-128i8..=0));
        let w0: Vec<u8> = s0.iter().cycle().take(len).copied().collect();
        let mut prof = ScoreProfile::default();
        prof.build(&m, &w0);
        let mut inter = InterleavedWindows::default();
        inter.build(&il1, len);

        let backend = KernelChoice::Auto.resolve(len, &m);
        let expected: Vec<i32> = il1
            .chunks_exact(len)
            .map(|w1| ungapped_score(Kernel::ClampedSum, &m, &w0, w1))
            .collect();
        let mut out = Vec::new();
        score_batch(
            backend,
            Kernel::ClampedSum,
            &m,
            &w0,
            &prof,
            &il1,
            &inter,
            &mut out,
        );
        assert_eq!(&out, &expected, "backend {:?}", backend);
    });
}

/// The interleaved layout is a faithful transpose: lane j of block
/// `j0` at position `p` is window `j0+j`'s residue `p`.
#[test]
fn interleave_roundtrips() {
    for_cases(0xba05, 256, |g| {
        let (il1, len) = window_batch(g);
        let mut inter = InterleavedWindows::default();
        inter.build(&il1, len);
        let n = inter.count();
        for (j, w1) in il1.chunks_exact(len).enumerate() {
            let block = j / LANES * LANES;
            let lane = j % LANES;
            for (p, &b) in w1.iter().enumerate() {
                assert_eq!(inter.lane_codes(p, block)[lane], b);
            }
        }
        assert_eq!(n, il1.len() / len.max(1));
    });
}
