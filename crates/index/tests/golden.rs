//! The serialized format, pinned: the length and the checksum of the
//! exact bytes `serialize_bundle` emits for a fixed tiny input. A
//! writer change that moves one byte of a bundle (format version 2) on
//! disk fails here.
//!
//! Re-pinned in PR 23 because the fixture changed, not the format: the
//! loader now refuses frames whose lengths are not those of a
//! `genome_len`-nucleotide genome, so the frames got real lengths. Both
//! values below were computed by running PR 22's writer, unchanged, on
//! this fixture.

use psc_index::{fletcher64, BundleT0, ExactSeed, FlatBank, IndexBundle, SeedIndex};
use psc_score::blosum62;
use psc_seqio::{Bank, Frame, MaskConfig, Seq, SeqKind};

const GENOME_LEN: usize = 160;

fn seq(tag: &str, i: u32, len: u32) -> Seq {
    let residues = (0..len).map(|j| ((i * 5 + j * 3 + j / 7) % 24) as u8);
    Seq::from_codes(format!("{tag}{i}"), residues.collect(), SeqKind::Protein)
}

#[test]
fn serialized_bytes_are_pinned() {
    let model = ExactSeed::new(2);
    let frame_len = |i: u32| Frame::ALL[i as usize].translated_len(GENOME_LEN) as u32;
    let frames: [Seq; 6] = std::array::from_fn(|i| seq("g|frame", i as u32, frame_len(i as u32)));
    let frame_ids = frames.clone().map(|frame| frame.id);
    let frames = FlatBank::from_bank(&Bank::from_seqs(frames.into()));
    let t1 = SeedIndex::build(&frames, &model, 1, None);

    let bank: Bank = (0..3).map(|i| seq("p", i + 10, 40)).collect();
    let index = SeedIndex::build(&FlatBank::from_bank(&bank), &model, 1, None);
    let bundle = IndexBundle {
        genome_id: "g".to_string(),
        genome_len: GENOME_LEN as u64,
        frame_ids,
        frames,
        mask: Some(MaskConfig::default()),
        matrix: blosum62().clone(),
        t1,
        t0: Some(BundleT0 { bank, index }),
    };
    let bundle_bytes = bundle.to_bytes(&model);
    assert_eq!(bundle_bytes.len(), 0x1651, "bundle length");
    assert_eq!(
        fletcher64(&[&bundle_bytes[..]]),
        0x4949_bcf9_0004_67ca,
        "bundle bytes"
    );
}
