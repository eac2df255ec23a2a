//! The v2 index *bundle* — everything `psc search` needs to answer
//! queries against a genome, in one artifact.
//!
//! A bare [`SeedIndex`](crate::table::SeedIndex) file (format v1) only
//! carried the genome-side seed table; consuming it still required the
//! loader to re-translate the genome and to guess the masking and
//! scoring the table was built under. The bundle closes that gap: it
//! records the six translated frames, the soft-masking configuration of
//! the seeding view, the substitution matrix (the PE ROM "score
//! profile"), the seed-model fingerprint, and the T1 (genome-side) seed
//! index — optionally plus a T0 (protein-bank-side) index so a repeated
//! bank skips its own step-1 build too. `psc index` writes bundles;
//! `psc search --index` and `psc serve --index` load them.
//!
//! # Integrity
//!
//! The whole body (version and section flags included) is covered by
//! the same [`fletcher64`] checksum discipline as the embedded index
//! sections and the simulated board's result blocks, and the checksum
//! is verified before any section is parsed: a flipped byte anywhere in
//! the artifact surfaces as [`SerialError::Corrupt`] (or a more
//! specific header error), never as silently different search results.
//! The embedded T0/T1 sections are stored in the v2 single-index format
//! of [`crate::serial`], so the seed-model fingerprint check — and the
//! [`SerialError::ModelMismatch`] it raises — is the same code path an
//! index loaded on its own goes through.

use psc_score::SubstitutionMatrix;
use psc_seqio::alphabet::AA_ALPHABET_LEN;
use psc_seqio::{Bank, MaskConfig, Seq, SeqKind};

use crate::seed::SeedModel;
use crate::serial::{deserialize_index, fletcher64, put_u64, write_index, Reader, SerialError};
use crate::table::SeedIndex;

const BUNDLE_MAGIC: &[u8; 8] = b"PSCBDL\x00\x02";
const BUNDLE_VERSION: u16 = 1;
const FLAG_MASKED: u16 = 1 << 0;
const FLAG_T0: u16 = 1 << 1;
/// Six reading frames, always.
const FRAME_COUNT: usize = 6;

/// Optional protein-bank-side (T0) section: the exact bank the index
/// was built over, so a loader can prove reuse is sound by comparing
/// sequences.
#[derive(Clone, Debug)]
pub struct BundleT0 {
    /// The protein bank, ids and residues.
    pub bank: Bank,
    /// Its seed index under the bundle's model.
    pub index: SeedIndex,
}

/// The deserialized artifact. See the module docs for the format.
#[derive(Clone, Debug)]
pub struct IndexBundle {
    /// Seed-model fingerprint (also embedded in each index section).
    pub model_name: String,
    /// Id of the genome the frames were translated from.
    pub genome_id: String,
    /// Genome length in nucleotides (needed to map frame coordinates
    /// back to the forward strand).
    pub genome_len: u64,
    /// The six translated frames, in `Frame::ALL` order, original
    /// (unmasked) residues.
    pub frames: Vec<Seq>,
    /// Soft-masking applied to the *seeding view* the indexes were
    /// built over (`None` = unmasked).
    pub mask: Option<MaskConfig>,
    /// The substitution matrix the windows are scored with — the score
    /// profile a PE's ROM holds.
    pub matrix: SubstitutionMatrix,
    /// Genome-side (T1) seed index over the seeding view of the frames.
    pub t1: SeedIndex,
    /// Optional protein-bank-side (T0) section.
    pub t0: Option<BundleT0>,
}

/// Cheap header peek: what is in a bundle, without a model to verify
/// against. Lets the CLI explain a mismatching artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BundleInfo {
    pub model_name: String,
    pub genome_id: String,
    pub genome_len: u64,
    pub masked: bool,
    pub has_t0: bool,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_seq(buf: &mut Vec<u8>, seq: &Seq) {
    put_str(buf, &seq.id);
    put_u64(buf, seq.residues.len() as u64);
    buf.extend_from_slice(&seq.residues);
}

/// An index section: the single-index format behind its byte length.
fn put_index(buf: &mut Vec<u8>, index: &SeedIndex, model: &dyn SeedModel) {
    let len_at = buf.len();
    put_u64(buf, 0);
    write_index(buf, index, model);
    let len = (buf.len() - len_at - 8) as u64;
    buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Where the checksum sits, between the flags and the body it covers
/// together with the version.
const CHECKSUM_AT: usize = BUNDLE_MAGIC.len() + 4;

/// Serialize a bundle. `model` must be the model the indexes were built
/// under; its fingerprint is embedded in the header and in each index
/// section.
pub fn serialize_bundle(bundle: &IndexBundle, model: &dyn SeedModel) -> Vec<u8> {
    debug_assert_eq!(bundle.frames.len(), FRAME_COUNT);
    let mut flags = 0u16;
    if bundle.mask.is_some() {
        flags |= FLAG_MASKED;
    }
    if bundle.t0.is_some() {
        flags |= FLAG_T0;
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(BUNDLE_MAGIC);
    buf.extend_from_slice(&BUNDLE_VERSION.to_le_bytes());
    buf.extend_from_slice(&flags.to_le_bytes());
    put_u64(&mut buf, 0);

    put_str(&mut buf, &model.name());
    put_str(&mut buf, &bundle.genome_id);
    put_u64(&mut buf, bundle.genome_len);
    for frame in &bundle.frames {
        put_seq(&mut buf, frame);
    }
    if let Some(mask) = &bundle.mask {
        put_u64(&mut buf, mask.window as u64);
        put_u64(&mut buf, mask.trigger.to_bits());
        put_u64(&mut buf, mask.extend.to_bits());
    }
    put_str(&mut buf, &bundle.matrix.name);
    buf.extend(bundle.matrix.flat().iter().map(|&s| s as u8));
    put_index(&mut buf, &bundle.t1, model);
    if let Some(t0) = &bundle.t0 {
        buf.extend_from_slice(&(t0.bank.len() as u32).to_le_bytes());
        for (_, seq) in t0.bank.iter() {
            put_seq(&mut buf, seq);
        }
        put_index(&mut buf, &t0.index, model);
    }

    let (header, body) = buf.split_at(CHECKSUM_AT + 8);
    let checksum = fletcher64(&[&header[BUNDLE_MAGIC.len()..CHECKSUM_AT], body]);
    buf[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// The bundle's own field encodings, read through the shared cursor.
impl Reader<'_> {
    fn str(&mut self, what: &'static str) -> Result<String, SerialError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SerialError::Corrupt(what))
    }

    fn seq(&mut self, what: &'static str) -> Result<Seq, SerialError> {
        let id = self.str(what)?;
        let len = self.u64(what)? as usize;
        let residues = self.take(len, what)?.to_vec();
        Ok(Seq::from_codes(id, residues, SeqKind::Protein))
    }

    fn index(
        &mut self,
        model: &dyn SeedModel,
        what: &'static str,
    ) -> Result<SeedIndex, SerialError> {
        let len = self.u64(what)? as usize;
        let blob = self.take(len, what)?;
        deserialize_index(blob, model)
    }
}

/// Header fields shared by [`peek_bundle`] and [`deserialize_bundle`]:
/// magic, version, flags, and the verified checksum. Returns the flags
/// and a reader positioned at the body.
fn parse_header(data: &[u8]) -> Result<(u16, Reader<'_>), SerialError> {
    if data.len() < BUNDLE_MAGIC.len() + 12 || &data[..BUNDLE_MAGIC.len()] != BUNDLE_MAGIC {
        return Err(SerialError::BadMagic);
    }
    let mut r = Reader {
        data: &data[BUNDLE_MAGIC.len()..],
    };
    let version = r.u16("header truncated")?;
    if version != BUNDLE_VERSION {
        return Err(SerialError::BadVersion(version));
    }
    let flags = r.u16("header truncated")?;
    let stored_sum = r.u64("header truncated")?;
    let computed = fletcher64(&[&version.to_le_bytes(), &flags.to_le_bytes(), r.data]);
    if computed != stored_sum {
        return Err(SerialError::Corrupt("bundle checksum mismatch"));
    }
    Ok((flags, r))
}

/// Read the identifying header of a bundle without verifying it
/// against a seed model (the checksum *is* verified).
pub fn peek_bundle(data: &[u8]) -> Result<BundleInfo, SerialError> {
    let (flags, mut r) = parse_header(data)?;
    let model_name = r.str("model name truncated")?;
    let genome_id = r.str("genome id truncated")?;
    let genome_len = r.u64("genome length truncated")?;
    Ok(BundleInfo {
        model_name,
        genome_id,
        genome_len,
        masked: flags & FLAG_MASKED != 0,
        has_t0: flags & FLAG_T0 != 0,
    })
}

/// Deserialize a bundle, verifying the checksum first and every
/// embedded index against `model`.
pub fn deserialize_bundle(data: &[u8], model: &dyn SeedModel) -> Result<IndexBundle, SerialError> {
    let (flags, mut r) = parse_header(data)?;
    let model_name = r.str("model name truncated")?;
    if model_name != model.name() {
        return Err(SerialError::ModelMismatch {
            stored: model_name,
            supplied: model.name(),
        });
    }
    let genome_id = r.str("genome id truncated")?;
    let genome_len = r.u64("genome length truncated")?;
    let mut frames = Vec::with_capacity(FRAME_COUNT);
    for _ in 0..FRAME_COUNT {
        frames.push(r.seq("frame section truncated")?);
    }
    let mask = if flags & FLAG_MASKED != 0 {
        Some(MaskConfig {
            window: r.u64("mask section truncated")? as usize,
            trigger: f64::from_bits(r.u64("mask section truncated")?),
            extend: f64::from_bits(r.u64("mask section truncated")?),
        })
    } else {
        None
    };
    let matrix_name = r.str("matrix name truncated")?;
    let table = r.take(AA_ALPHABET_LEN * AA_ALPHABET_LEN, "matrix table truncated")?;
    let mut scores = [0i8; AA_ALPHABET_LEN * AA_ALPHABET_LEN];
    for (dst, &src) in scores.iter_mut().zip(table) {
        *dst = src as i8;
    }
    let matrix = SubstitutionMatrix::from_flat(matrix_name, scores);
    let t1 = r.index(model, "t1 section truncated")?;
    let t0 = if flags & FLAG_T0 != 0 {
        let count = r.u32("t0 bank truncated")? as usize;
        let mut seqs = Vec::with_capacity(count.min(r.data.len() / 12 + 1));
        for _ in 0..count {
            seqs.push(r.seq("t0 bank truncated")?);
        }
        let bank = Bank::from_seqs(seqs);
        let index = r.index(model, "t0 section truncated")?;
        Some(BundleT0 { bank, index })
    } else {
        None
    };
    if !r.data.is_empty() {
        return Err(SerialError::Corrupt("trailing bytes after bundle"));
    }
    Ok(IndexBundle {
        model_name: model.name(),
        genome_id,
        genome_len,
        frames,
        mask,
        matrix,
        t1,
        t0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatBank;
    use crate::seed::ExactSeed;
    use psc_score::blosum62;

    fn frame(i: usize, len: usize) -> Seq {
        let res: Vec<u8> = (0..len as u32)
            .map(|j| ((i as u32 * 5 + j * 3) % 20) as u8)
            .collect();
        Seq::from_codes(format!("g|frame{i}"), res, SeqKind::Protein)
    }

    /// A deliberately small model (400 keys): the every-offset flip and
    /// truncation sweeps below are quadratic in the artifact size.
    fn sample_model() -> ExactSeed {
        ExactSeed::new(2)
    }

    fn sample_bundle(with_t0: bool, mask: Option<MaskConfig>) -> IndexBundle {
        let frames: Vec<Seq> = (0..6).map(|i| frame(i, 90 + i * 7)).collect();
        let model = sample_model();
        let frames_bank = Bank::from_seqs(frames.clone());
        let t1 = SeedIndex::build(&FlatBank::from_bank(&frames_bank), &model, 1);
        let t0 = with_t0.then(|| {
            let bank: Bank = (0..4).map(|i| frame(i + 10, 70)).collect();
            let index = SeedIndex::build(&FlatBank::from_bank(&bank), &model, 1);
            BundleT0 { bank, index }
        });
        IndexBundle {
            model_name: model.name(),
            genome_id: "g".to_string(),
            genome_len: 2048,
            frames,
            mask,
            matrix: blosum62().clone(),
            t1,
            t0,
        }
    }

    fn assert_bundles_equal(a: &IndexBundle, b: &IndexBundle) {
        assert_eq!(a.model_name, b.model_name);
        assert_eq!(a.genome_id, b.genome_id);
        assert_eq!(a.genome_len, b.genome_len);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.mask.is_some(), b.mask.is_some());
        if let (Some(x), Some(y)) = (&a.mask, &b.mask) {
            assert_eq!(x.window, y.window);
            assert_eq!(x.trigger.to_bits(), y.trigger.to_bits());
            assert_eq!(x.extend.to_bits(), y.extend.to_bits());
        }
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.t1, b.t1);
        assert_eq!(a.t0.is_some(), b.t0.is_some());
        if let (Some(x), Some(y)) = (&a.t0, &b.t0) {
            assert_eq!(x.bank.len(), y.bank.len());
            for ((_, sx), (_, sy)) in x.bank.iter().zip(y.bank.iter()) {
                assert_eq!(sx, sy);
            }
            assert_eq!(x.index, y.index);
        }
    }

    #[test]
    fn round_trip_plain() {
        let model = sample_model();
        let bundle = sample_bundle(false, None);
        let bytes = serialize_bundle(&bundle, &model);
        let back = deserialize_bundle(&bytes, &model).unwrap();
        assert_bundles_equal(&bundle, &back);
    }

    #[test]
    fn round_trip_with_t0_and_mask() {
        let model = sample_model();
        let bundle = sample_bundle(true, Some(MaskConfig::default()));
        let bytes = serialize_bundle(&bundle, &model);
        let back = deserialize_bundle(&bytes, &model).unwrap();
        assert_bundles_equal(&bundle, &back);
        let info = peek_bundle(&bytes).unwrap();
        assert_eq!(
            info,
            BundleInfo {
                model_name: model.name(),
                genome_id: "g".to_string(),
                genome_len: 2048,
                masked: true,
                has_t0: true,
            }
        );
    }

    #[test]
    fn rejects_wrong_model() {
        let model = sample_model();
        let bytes = serialize_bundle(&sample_bundle(false, None), &model);
        let err = deserialize_bundle(&bytes, &ExactSeed::new(4)).unwrap_err();
        assert!(matches!(err, SerialError::ModelMismatch { .. }), "{err}");
    }

    #[test]
    fn rejects_garbage_and_bad_version() {
        let model = sample_model();
        assert_eq!(
            deserialize_bundle(b"junk", &model).unwrap_err(),
            SerialError::BadMagic
        );
        let mut raw = serialize_bundle(&sample_bundle(false, None), &model);
        raw[BUNDLE_MAGIC.len()] = 9;
        assert_eq!(
            deserialize_bundle(&raw, &model).unwrap_err(),
            SerialError::BadVersion(9)
        );
    }

    #[test]
    fn rejects_single_byte_flip_at_every_offset() {
        let model = sample_model();
        let bytes = serialize_bundle(&sample_bundle(true, Some(MaskConfig::default())), &model);
        for at in 0..bytes.len() {
            let mut raw = bytes.clone();
            raw[at] ^= 0x20;
            let got = deserialize_bundle(&raw, &model);
            assert!(got.is_err(), "flip at {at} accepted");
            if at >= CHECKSUM_AT {
                assert!(
                    matches!(got, Err(SerialError::Corrupt(_))),
                    "flip at {at}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let model = sample_model();
        let bytes = serialize_bundle(&sample_bundle(true, None), &model);
        for cut in 0..bytes.len() {
            assert!(
                deserialize_bundle(&bytes[..cut], &model).is_err(),
                "cut at {cut} accepted"
            );
        }
    }
}
