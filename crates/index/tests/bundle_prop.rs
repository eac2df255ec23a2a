//! Property tests for the index-bundle artifact: serialization is an
//! identity over arbitrary banks and models, and any truncation is a
//! detected error — never a wrong answer.

use psc_index::{
    deserialize_bundle, BundleT0, ExactSeed, FlatBank, IndexBundle, SeedModel, SerialError,
};
use psc_score::blosum62;
use psc_seqio::prng::{for_cases, SplitMix64};
use psc_seqio::{Bank, Frame, MaskConfig, Seq, SeqKind};

/// Arbitrary protein residue codes over the full 24-letter alphabet
/// (ambiguity codes included — they index nothing but must survive the
/// round trip byte-for-byte).
fn residues(g: &mut SplitMix64) -> Vec<u8> {
    g.vec(0..60, |g| g.range(0u8..24))
}

/// A genome length, and six frames of arbitrary residues as long as
/// that genome's frames are.
fn frames(g: &mut SplitMix64) -> (u64, Vec<Vec<u8>>) {
    let genome_len = g.range(0usize..180);
    let frame = |f: &Frame| {
        let len = f.translated_len(genome_len);
        g.vec(len..=len, |g| g.range(0u8..24))
    };
    (genome_len as u64, Frame::ALL.iter().map(frame).collect())
}

/// 0–3 arbitrary protein sequences for the optional T0 section.
fn t0_bank(g: &mut SplitMix64) -> Vec<Vec<u8>> {
    g.vec(0..4, residues)
}

fn build_bundle(
    model: &dyn SeedModel,
    frame_residues: &[Vec<u8>],
    t0_residues: Option<&[Vec<u8>]>,
    mask: Option<MaskConfig>,
    genome_len: u64,
) -> IndexBundle {
    let frame_ids = std::array::from_fn(|i| format!("g|frame{i}"));
    let lens = frame_residues.iter().map(Vec::len);
    let frames = FlatBank::from_concatenation(frame_residues.concat(), lens);
    let t1 = psc_index::SeedIndex::build(&frames, model, 1, None);
    let t0 = t0_residues.map(|seqs| {
        let bank: Bank = seqs
            .iter()
            .enumerate()
            .map(|(i, r)| Seq::from_codes(format!("p{i}"), r.clone(), SeqKind::Protein))
            .collect();
        let index = psc_index::SeedIndex::build(&FlatBank::from_bank(&bank), model, 1, None);
        BundleT0 { bank, index }
    });
    IndexBundle {
        genome_id: "g".to_string(),
        genome_len,
        frame_ids,
        frames,
        mask,
        matrix: blosum62().clone(),
        t1,
        t0,
    }
}

/// serialize → deserialize is an identity for arbitrary frame
/// contents, models, T0 sections and mask configurations.
#[test]
fn round_trip_is_identity() {
    for_cases(0x1d01, 256, |g| {
        let ((genome_len, frame_res), t0_res) = (frames(g), t0_bank(g));
        let model = ExactSeed::new(g.range(2usize..4));
        let t0 = g.chance(0.5).then_some(&t0_res[..]);
        let mask = g.chance(0.5).then(MaskConfig::default);
        let bundle = build_bundle(&model, &frame_res, t0, mask, genome_len);
        let bytes = bundle.to_bytes(&model);
        let back = deserialize_bundle(&bytes, &model).expect("round trip");
        assert_eq!(bundle, back);
        // A second serialization is byte-identical (the format is
        // canonical, so artifacts can be content-compared).
        assert_eq!(back.to_bytes(&model), bytes);
    });
}

/// Every strict prefix of a valid bundle fails to parse — as a
/// structural error, never a panic or a silently wrong bundle.
#[test]
fn truncation_at_every_boundary_is_detected() {
    for_cases(0x1d02, 6, |g| {
        let (genome_len, frame_res) = frames(g);
        let model = ExactSeed::new(2);
        let t0_res: Vec<Vec<u8>> = vec![vec![1, 2, 3, 4, 5, 6, 7, 8]];
        let t0 = g.chance(0.5).then_some(&t0_res[..]);
        let bundle = build_bundle(&model, &frame_res, t0, None, genome_len);
        let bytes = bundle.to_bytes(&model);
        for cut in 0..bytes.len() {
            match deserialize_bundle(&bytes[..cut], &model) {
                Err(SerialError::BadMagic)
                | Err(SerialError::Corrupt(_))
                | Err(SerialError::BadVersion(_)) => {}
                Ok(_) => panic!("truncation to {cut}/{} bytes parsed", bytes.len()),
                Err(other) => panic!("truncation to {cut} gave {other:?}"),
            }
        }
    });
}
