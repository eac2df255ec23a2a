//! The serialized format, pinned: the length and the checksum of the
//! exact bytes `serialize_bundle` emits for a fixed tiny input. A
//! writer change that moves one byte of a bundle (format version 2) on
//! disk fails here.

use psc_index::{fletcher64, BundleT0, ExactSeed, FlatBank, IndexBundle, SeedIndex};
use psc_score::blosum62;
use psc_seqio::{Bank, MaskConfig, Seq, SeqKind};

fn seq(tag: &str, i: u32, len: u32) -> Seq {
    let residues = (0..len).map(|j| ((i * 5 + j * 3 + j / 7) % 24) as u8);
    Seq::from_codes(format!("{tag}{i}"), residues.collect(), SeqKind::Protein)
}

#[test]
fn serialized_bytes_are_pinned() {
    let model = ExactSeed::new(2);
    let frames: Bank = (0..6).map(|i| seq("g|frame", i, 50 + i * 9)).collect();
    let t1 = SeedIndex::build(&FlatBank::from_bank(&frames), &model, 1);

    let bank: Bank = (0..3).map(|i| seq("p", i + 10, 40)).collect();
    let index = SeedIndex::build(&FlatBank::from_bank(&bank), &model, 1);
    let bundle = IndexBundle {
        genome_id: "g".to_string(),
        genome_len: 1234,
        frames,
        mask: Some(MaskConfig::default()),
        matrix: blosum62().clone(),
        t1,
        t0: Some(BundleT0 { bank, index }),
    };
    let bundle_bytes = bundle.to_bytes(&model);
    assert_eq!(bundle_bytes.len(), 0x181c, "bundle length");
    assert_eq!(
        fletcher64(&[&bundle_bytes[..]]),
        0x5011_a616_0004_7cb2,
        "bundle bytes"
    );
}
