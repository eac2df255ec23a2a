//! The serialized formats, pinned: checksums of the exact bytes
//! `serialize_index` and `serialize_bundle` emit for a fixed tiny
//! input. The values were computed with the build that still wrote
//! through the `bytes` crate; a writer change that moves one byte of an
//! index (v2) or a bundle (v1) on disk fails here.

use psc_index::{
    fletcher64, serialize_bundle, serialize_index, BundleT0, ExactSeed, FlatBank, IndexBundle,
    SeedIndex, SeedModel,
};
use psc_score::blosum62;
use psc_seqio::{Bank, MaskConfig, Seq, SeqKind};

fn seq(tag: &str, i: u32, len: u32) -> Seq {
    let residues = (0..len).map(|j| ((i * 5 + j * 3 + j / 7) % 24) as u8);
    Seq::from_codes(format!("{tag}{i}"), residues.collect(), SeqKind::Protein)
}

#[test]
fn serialized_bytes_are_pinned() {
    let model = ExactSeed::new(2);
    let frames: Vec<Seq> = (0..6).map(|i| seq("g|frame", i, 50 + i * 9)).collect();
    let t1 = SeedIndex::build(
        &FlatBank::from_bank(&Bank::from_seqs(frames.clone())),
        &model,
        1,
    );
    let index_bytes = serialize_index(&t1, &model);
    assert_eq!(index_bytes.len(), 0xb2f, "index length");
    assert_eq!(
        fletcher64(&[&index_bytes[..]]),
        0x1181_3aad_0002_3321,
        "index bytes"
    );

    let bank: Bank = (0..3).map(|i| seq("p", i + 10, 40)).collect();
    let index = SeedIndex::build(&FlatBank::from_bank(&bank), &model, 1);
    let bundle = IndexBundle {
        model_name: model.name(),
        genome_id: "g".to_string(),
        genome_len: 1234,
        frames,
        mask: Some(MaskConfig::default()),
        matrix: blosum62().clone(),
        t1,
        t0: Some(BundleT0 { bank, index }),
    };
    let bundle_bytes = serialize_bundle(&bundle, &model);
    assert_eq!(bundle_bytes.len(), 0x1862, "bundle length");
    assert_eq!(
        fletcher64(&[&bundle_bytes[..]]),
        0x51ae_dc55_0004_8991,
        "bundle bytes"
    );
}
