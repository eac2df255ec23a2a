//! The 512-bit bodies of the genome side. Each equals its portable
//! definition, which hosts without the flags run: `table::for_each_key`
//! for keying, `psc_seqio::translate_six_frames_into` for translation.

use core::arch::x86_64::*;

use psc_seqio::{strand_tables, translate_six_frames, Frame, GeneticCode, Seq, SeqKind};

use crate::seed::KeyRow;

/// Kept windows the keying body holds before it hands them on.
const HOLD: usize = 4096;

/// Windows keyed a step: one dword lane each.
const STEP: usize = 16;

/// `for_each_key` sixteen windows a step, passing `f` only windows whose
/// `kept` byte is set, and returning how many seeded. Per seed position
/// a step is one 16-byte load, widened to dwords, and one `vpermi2d`
/// over the first 32 entries of the position's row, summed; a code of
/// 32 or more, or a key of `key_count` or more (a `NO_KEY` sum), does
/// not seed, as with the 256-entry rows. A masked gather from `kept`
/// tests the rest, and `vpcompressd` packs kept keys and positions into
/// a buffer `f` drains every [`HOLD`].
///
/// # Safety
/// AVX-512F/BW must be available, `kept` must hold a byte per key and 3
/// of padding, and every `(lo, hi)` of `seqs` must lie in `residues`.
#[target_feature(enable = "avx512f,avx512bw")]
pub(crate) unsafe fn keys(
    residues: &[u8],
    seqs: impl Iterator<Item = (u32, u32)>,
    rows: &[KeyRow],
    kept: &[u8],
    mut f: impl FnMut(u32, u32),
) -> usize {
    let span = rows.len();
    let tables: Vec<[__m512i; 2]> = (rows.iter())
        .map(|row| [0, STEP].map(|at| _mm512_loadu_si512(row[at..at + STEP].as_ptr().cast())))
        .collect();
    let key_count = _mm512_set1_epi32((kept.len() - 3) as i32);
    let (past_31, low_byte) = (_mm512_set1_epi32(!31), _mm512_set1_epi32(0xff));
    let (zero, kept_at) = (_mm512_setzero_si512(), kept.as_ptr().cast());
    let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let mut held = [[0u32; HOLD + STEP]; 2];
    let (mut n, mut seeded) = (0, 0);
    let mut drain = |n: &mut usize, [keys, positions]: &[[u32; HOLD + STEP]; 2]| {
        (keys[..*n].iter().zip(positions)).for_each(|(&k, &p)| f(p, k));
        *n = 0;
    };
    for (lo, hi) in seqs {
        let r = &residues[lo as usize..hi as usize];
        let windows = (r.len() + 1).saturating_sub(span);
        for at in (0..windows).step_by(STEP) {
            let step = (windows - at).min(STEP);
            let (mut key, mut codes) = (zero, zero);
            for (j, [t0, t1]) in tables.iter().enumerate() {
                // The mask keeps the load to bytes `at + j ..`
                // `at + j + step`, this position's residues.
                let bytes = _mm512_maskz_loadu_epi8((1 << step) - 1, r.as_ptr().add(at + j).cast());
                let c = _mm512_cvtepu8_epi32(_mm512_castsi512_si128(bytes));
                codes = _mm512_or_si512(codes, c);
                key = _mm512_add_epi32(key, _mm512_permutex2var_epi32(*t0, c, *t1));
            }
            let lanes = (u32::MAX >> (32 - step)) as u16;
            let seeds = _mm512_mask_testn_epi32_mask(lanes, codes, past_31)
                & _mm512_cmplt_epu32_mask(key, key_count);
            let gathered = _mm512_mask_i32gather_epi32::<1>(zero, seeds, key, kept_at);
            let keep = _mm512_mask_test_epi32_mask(seeds, gathered, low_byte);
            let first = _mm512_set1_epi32((lo as usize + at) as i32);
            let position = _mm512_add_epi32(first, lane);
            for (out, v) in held.iter_mut().zip([key, position]) {
                let packed = _mm512_maskz_compress_epi32(keep, v);
                _mm512_storeu_si512(out.as_mut_ptr().add(n).cast(), packed);
            }
            n += keep.count_ones() as usize;
            seeded += seeds.count_ones() as usize;
            if n > HOLD - STEP {
                drain(&mut n, &held);
            }
        }
    }
    drain(&mut n, &held);
    seeded
}

/// Codons translated a step: 126 nucleotides, under the 128 bytes two
/// registers index.
const CODONS: usize = 42;

/// `translate_six_frames_into` 42 codons a step, into `out`. Three
/// `vpermi2b` de-interleave a step's codon positions, `vpminub` clamps
/// codes past `N`, two `vpermb` scale by 25 and 5, and one `vpermi2b`
/// looks the sum up in the strand's table ([`strand_tables`]). A minus
/// frame walks its steps from the far end with a reversed index. Tails
/// go through `translate_six_frames`.
///
/// # Safety
/// AVX-512F/BW/VBMI must be available.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
pub(crate) unsafe fn six_frames(fwd: &[u8], code: &GeneticCode, out: &mut [u8]) {
    let bytes = |at: &dyn Fn(usize) -> u8| {
        let b: [u8; 64] = std::array::from_fn(at);
        _mm512_loadu_si512(b.as_ptr().cast())
    };
    // Where codon `c`'s nucleotides `t` lie among a step's 126 bytes.
    let picks = |first: fn(usize) -> usize| {
        [0, 1, 2].map(|t| bytes(&|c| if c < CODONS { (first(c) + t) as u8 } else { 0 }))
    };
    let strands = strand_tables(code).map(|table| {
        let half = |h: usize| bytes(&|i| table.get(64 * h + i).copied().unwrap_or(0));
        [half(0), half(1)]
    });
    let forward = picks(|c| 3 * c);
    let reversed = picks(|c| 3 * (CODONS - 1 - c));
    let scale = |by: u8| bytes(&|i| by * i.min(4) as u8);
    let (times25, times5) = (scale(25), scale(5));
    let n = _mm512_set1_epi8(4);
    let len = fwd.len();
    let mut out_at = 0;
    for frame in Frame::ALL {
        let codons = frame.translated_len(len);
        let steps = codons / CODONS;
        let (Frame::Plus(k) | Frame::Minus(k)) = frame;
        let (k, done) = ((k as usize).min(len), 3 * CODONS * steps);
        let (strand, picks, tail) = match frame {
            Frame::Plus(_) => (0, forward, k + done..k + 3 * codons),
            Frame::Minus(_) => (1, reversed, len - k - 3 * codons..len - k - done),
        };
        let [lo, hi] = strands[strand];
        for step in 0..steps {
            let at = match frame {
                Frame::Plus(_) => k + 3 * CODONS * step,
                Frame::Minus(_) => len - k - 3 * CODONS * (step + 1),
            };
            // The step's 126 nucleotides, `at..at + 126`, inside the
            // frame's whole codons.
            let src = fwd[at..at + 3 * CODONS].as_ptr();
            let x0 = _mm512_loadu_si512(src.cast());
            let x1 = _mm512_maskz_loadu_epi8((1 << (3 * CODONS - 64)) - 1, src.add(64).cast());
            let [a, b, c] = picks.map(|p| _mm512_min_epu8(_mm512_permutex2var_epi8(x0, p, x1), n));
            let a = _mm512_permutexvar_epi8(a, times25);
            let b = _mm512_permutexvar_epi8(b, times5);
            let index = _mm512_add_epi8(_mm512_add_epi8(a, b), c);
            let residues = _mm512_permutex2var_epi8(lo, index, hi);
            let dst = out[out_at + CODONS * step..][..CODONS].as_mut_ptr();
            _mm512_mask_storeu_epi8(dst.cast(), (1 << CODONS) - 1, residues);
        }
        // The tail, as frame +1 or −1 of a genome of just its codons.
        let rest = Seq::from_codes(String::new(), fwd[tail].to_vec(), SeqKind::Dna);
        let rest = translate_six_frames(&rest, code).frames()[3 * strand]
            .residues
            .clone();
        out[out_at + CODONS * steps..out_at + codons].copy_from_slice(&rest);
        out_at += codons;
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::guard::Guarded;
    use crate::seed::{key_rows, subset_seed_default, ExactSeed, SeedModel, SubsetSeed};
    use crate::{FlatBank, SeedIndex};
    use psc_seqio::isa::{levels, Isa};
    use psc_seqio::prng::{for_cases, SplitMix64};
    use psc_seqio::translate_six_frames_into;

    /// The windows [`keys`] passes on, and the count it returns.
    fn keys_of(residues: &[u8], rows: &[KeyRow], kept: &[u8]) -> (usize, Vec<(u32, u32)>) {
        let mut got = Vec::new();
        let seqs = [(0, residues.len() as u32)].into_iter();
        let f = |pos, key| got.push((pos, key));
        // SAFETY: the caller checked the flags; `kept` is a key table
        // with its padding, and the one sequence is all of `residues`.
        let seeded = unsafe { keys(residues, seqs, rows, kept, f) };
        (seeded, got)
    }

    /// The keying body reads no residue outside a sequence and no byte
    /// of the kept table past its padding: residues flush against an
    /// unreadable page at either end, the kept table flush against one
    /// at its end, every span, lengths around a step and past a flush
    /// of the held windows. Every window is kept or dropped as its key's
    /// byte says.
    #[test]
    fn no_key_is_read_past_a_sequence_or_the_kept_table() {
        if !levels("the 512-bit keying").contains(&Isa::Avx512) {
            return;
        }
        let coarse = || crate::seed::PositionClasses::from_groups("c", "LVIMCAG|STPFYW|EDNQKRH");
        let models: [Box<dyn SeedModel>; 4] = [
            Box::new(ExactSeed::new(1)),
            Box::new(ExactSeed::new(3)),
            Box::new(subset_seed_default()),
            Box::new(SubsetSeed::new(vec![coarse(); 6])),
        ];
        for_cases(0x9a2d, 48, |g| {
            let model = g.select(&models).as_ref();
            let len = match g.range(0u32..3) {
                0 => g.range(0..40),
                1 => g.range(4_090..4_120),
                _ => g.range(0..300),
            };
            let residue = |g: &mut SplitMix64| match g.chance(0.05) {
                true => *g.select(&[20, 23, 31, 32, 200]),
                false => g.range(0u8..20),
            };
            let residues = g.vec(len..=len, residue);
            let mut kept = g.vec(model.key_count()..=model.key_count(), |g| g.range(0u8..2));
            kept.extend([0; 3]);
            let rows = key_rows(model);
            let span = model.span();
            let key = |pos: usize| {
                model
                    .key(&residues[pos..pos + span])
                    .map(|k| (pos as u32, k))
            };
            let want: Vec<(u32, u32)> = (0..(len + 1).saturating_sub(span))
                .filter_map(key)
                .collect();
            let held = want.iter().filter(|&&(_, k)| kept[k as usize] == 1);
            let held: Vec<(u32, u32)> = held.copied().collect();
            let kept = Guarded::before_a_guard(&kept);
            for residues in [
                Guarded::before_a_guard(&residues),
                Guarded::after_a_guard(&residues),
            ] {
                assert_eq!(keys_of(&residues, &rows, &kept), (want.len(), held.clone()));
            }
        });
    }

    /// The translation body reads no nucleotide outside the genome:
    /// genomes flush against an unreadable page at either end, of
    /// lengths around one and two steps and of thousands.
    #[test]
    fn no_codon_is_read_past_the_genome() {
        if !levels("the 512-bit translation").contains(&Isa::Avx512Vbmi) {
            return;
        }
        let code = GeneticCode::standard();
        for len in (0..=260).chain([3 * CODONS * 40 + 2, 8_001]) {
            let mut g = SplitMix64::new(len as u64);
            let nts = g.vec(len..=len, |g| g.range(0u8..6));
            let mut want = Vec::new();
            translate_six_frames_into(
                &Seq::from_codes("g", nts.clone(), SeqKind::Dna),
                code,
                &mut want,
            );
            for nts in [Guarded::before_a_guard(&nts), Guarded::after_a_guard(&nts)] {
                let mut got = vec![0xee; want.len()];
                // SAFETY: the flags are checked above.
                unsafe { six_frames(&nts, code, &mut got) };
                assert_eq!(got, want, "len={len}");
            }
        }
    }

    /// Best and median of nine, in ms.
    fn best_and_median(mut run: impl FnMut()) -> (f64, f64) {
        let mut ms: Vec<f64> = (0..9)
            .map(|_| {
                let t = std::time::Instant::now();
                run();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        (ms[0], ms[4])
    }

    /// The genome side of a `genome_heavy`-shaped search, each body
    /// called directly: six-frame translation of a datagen 8 Mnt genome,
    /// and the T1 build over its frames keyed by a 12-protein T0, one
    /// thread. Run with `cargo test --release -p psc-index --lib --
    /// --ignored --nocapture genome_side_ms`.
    #[test]
    #[ignore = "timing; run at release codegen"]
    fn genome_side_ms() {
        use crate::table::Walk;
        use psc_datagen::{generate_genome, random_bank, BankConfig, GenomeConfig};
        use std::hint::black_box;
        let proteins = random_bank(&BankConfig {
            count: 12,
            seed: 17,
            ..BankConfig::default()
        });
        let genome = generate_genome(
            &GenomeConfig {
                len: 8_000_000,
                gene_count: 12,
                seed: 18,
                ..GenomeConfig::default()
            },
            &proteins,
        )
        .genome;
        let code = GeneticCode::standard();
        let model = subset_seed_default();
        let t0 = SeedIndex::build(&FlatBank::from_bank(&proteins), &model, 1, None);
        let frames = FlatBank::six_frames(&genome, code);
        let print = |what: &str, (best, median): (f64, f64)| {
            println!("{what:<28} best {best:7.2} ms  median {median:7.2} ms");
        };
        print(
            "translate, portable",
            best_and_median(|| {
                let mut out = Vec::new();
                translate_six_frames_into(&genome, code, &mut out);
                black_box(out);
            }),
        );
        if levels("the 512-bit translation").contains(&Isa::Avx512Vbmi) {
            print(
                "translate, 512-bit",
                best_and_median(|| {
                    let mut out = vec![0; frames.len()];
                    // SAFETY: the flags are checked above.
                    unsafe { six_frames(&genome.residues, code, &mut out) };
                    black_box(out);
                }),
            );
        }
        let (frames, model, t0) = (&frames, &model, &t0);
        let build = |walk| {
            move || {
                drop(black_box(SeedIndex::build_with(
                    frames,
                    model,
                    1,
                    Some(t0),
                    walk,
                )))
            }
        };
        print(
            "keyed T1 build, portable",
            best_and_median(build(Walk::Portable)),
        );
        if levels("the 512-bit keying").contains(&Isa::Avx512) {
            print(
                "keyed T1 build, 512-bit",
                best_and_median(build(Walk::Avx512)),
            );
        }
    }
}
