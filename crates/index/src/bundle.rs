//! The index *bundle* — everything `psc search` needs to answer queries
//! against a genome, in the one artifact this crate writes.
//!
//! A bundle records the six translated frames, the soft-masking
//! configuration of the seeding view, the substitution matrix (the PE
//! ROM "score profile"), the seed-model fingerprint, and the T1
//! (genome-side) seed table — optionally plus a T0 (protein-bank-side)
//! bank and table so a repeated bank skips its own step-1 build too.
//! `psc index` writes bundles; `psc search --index` and `psc serve
//! --index` load them.
//!
//! The sections sit inside the [`serial`](crate::serial) frame (magic,
//! version, flags, checksum); DESIGN.md §7 has the layout table.
//! The frame's checksum is verified before any section is parsed, and
//! each table is then checked against the bank it indexes — offsets a
//! monotone prefix sum over the positions, every position inside the
//! bank — every residue against the alphabet and every frame's length
//! against the genome's: a loaded bundle cannot give different results
//! and cannot send a query out of bounds.

use psc_score::SubstitutionMatrix;
use psc_seqio::alphabet::AA_ALPHABET_LEN;
use psc_seqio::{Bank, Frame, MaskConfig, Seq, SeqKind};

use crate::flat::FlatBank;
use crate::seed::SeedModel;
use crate::serial::{begin, open, put_table, put_u64, seal, Reader, SerialError};
use crate::table::SeedIndex;

const FLAG_MASKED: u16 = 1 << 0;
const FLAG_T0: u16 = 1 << 1;
/// Six reading frames, always.
const FRAME_COUNT: usize = 6;

/// Optional protein-bank-side (T0) section: the exact bank the index
/// was built over, so a loader can prove reuse is sound by comparing
/// sequences.
#[derive(Clone, Debug, PartialEq)]
pub struct BundleT0 {
    /// The protein bank, ids and residues.
    pub bank: Bank,
    /// Its seed index under the bundle's model.
    pub index: SeedIndex,
}

/// The deserialized artifact. See the module docs for the format.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexBundle {
    /// Id of the genome the frames were translated from.
    pub genome_id: String,
    /// Its length in nucleotides: what maps a frame position back to
    /// the forward strand.
    pub genome_len: u64,
    /// The six frames' ids, in `Frame::ALL` order.
    pub frame_ids: [String; FRAME_COUNT],
    /// The six translated frames in one buffer, in `Frame::ALL` order,
    /// original (unmasked) residues.
    pub frames: FlatBank,
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

impl IndexBundle {
    /// [`serialize_bundle`] of a bundle held whole.
    pub fn to_bytes(&self, model: &dyn SeedModel) -> Vec<u8> {
        serialize_bundle(
            model,
            &self.genome_id,
            self.genome_len,
            self.mask,
            &self.matrix,
            (&self.frame_ids, &self.frames, &self.t1),
            self.t0.as_ref().map(|t0| (&t0.bank, &t0.index)),
        )
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_seq(buf: &mut Vec<u8>, id: &str, residues: &[u8]) {
    put_str(buf, id);
    put_u64(buf, residues.len() as u64);
    buf.extend_from_slice(residues);
}

/// Serialize a bundle from where its parts already live. `t1` is the
/// six frames — their ids, their residues flattened — and the index of
/// their seeding view, `t0` a protein bank and its index; `model` must
/// be the model both were built under, and its fingerprint is embedded.
pub fn serialize_bundle(
    model: &dyn SeedModel,
    genome_id: &str,
    genome_len: u64,
    mask: Option<MaskConfig>,
    matrix: &SubstitutionMatrix,
    (frame_ids, frames, t1): (&[String; FRAME_COUNT], &FlatBank, &SeedIndex),
    t0: Option<(&Bank, &SeedIndex)>,
) -> Vec<u8> {
    assert_eq!(frames.seq_count(), FRAME_COUNT, "a bundle holds six frames");
    let flag = |on: bool, bit: u16| if on { bit } else { 0 };
    let mut buf = begin(flag(mask.is_some(), FLAG_MASKED) | flag(t0.is_some(), FLAG_T0));
    put_str(&mut buf, &model.name());
    put_str(&mut buf, genome_id);
    put_u64(&mut buf, genome_len);
    for (i, id) in frame_ids.iter().enumerate() {
        put_seq(&mut buf, id, frames.seq(i));
    }
    if let Some(mask) = mask {
        put_u64(&mut buf, mask.window as u64);
        put_u64(&mut buf, mask.trigger.to_bits());
        put_u64(&mut buf, mask.extend.to_bits());
    }
    put_str(&mut buf, &matrix.name);
    buf.extend(matrix.flat().iter().map(|&s| s as u8));
    put_table(&mut buf, t1);
    if let Some((bank, index)) = t0 {
        buf.extend_from_slice(&(bank.len() as u32).to_le_bytes());
        for seq in bank.seqs() {
            put_seq(&mut buf, &seq.id, &seq.residues);
        }
        put_table(&mut buf, index);
    }
    seal(&mut buf);
    buf
}

/// The bundle's own field encodings, read through the shared cursor.
impl Reader<'_> {
    fn str(&mut self, what: &'static str) -> Result<String, SerialError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SerialError::Corrupt(what))
    }

    /// One sequence: its id and its residues, lent from the input.
    fn seq(&mut self, what: &'static str) -> Result<(String, &[u8]), SerialError> {
        let id = self.str(what)?;
        let len = self.u64(what)? as usize;
        // The score matrix, the key rows and the lane tables are indexed
        // by residue code, unchecked. (`max` over copies is a vector
        // reduction; over references it is 30 × slower.)
        let residues = self.take(len, what)?;
        let max = residues.iter().copied().max().unwrap_or(0);
        if max as usize >= AA_ALPHABET_LEN {
            return Err(SerialError::Corrupt("residue code out of range"));
        }
        Ok((id, residues))
    }

    /// `count` sequences, and a bank of them.
    fn bank(&mut self, count: usize, what: &'static str) -> Result<Bank, SerialError> {
        // A sequence is at least 12 bytes: bound the allocation by the
        // input, not by a count field.
        let mut seqs = Vec::with_capacity(count.min(self.data.len() / 12));
        for _ in 0..count {
            let (id, residues) = self.seq(what)?;
            seqs.push(Seq::from_codes(id, residues.to_vec(), SeqKind::Protein));
        }
        Ok(Bank::from_seqs(seqs))
    }

    /// The six frames of a `genome_len`-nucleotide genome, decoded into
    /// one buffer. A first pass over a copy of the cursor reads the
    /// stored lengths — each bounded by the bytes left — and holds each
    /// to its frame's length under `genome_len`; only then is the buffer
    /// allocated, at their sum. It is never sized from `genome_len`
    /// itself, which is only a field of the input.
    fn frames(
        &mut self,
        genome_len: u64,
    ) -> Result<([String; FRAME_COUNT], FlatBank), SerialError> {
        const WHAT: &str = "frame section truncated";
        let mut ahead = Reader { data: self.data };
        let mut lens = [0; FRAME_COUNT];
        for (len, frame) in lens.iter_mut().zip(Frame::ALL) {
            let id_len = ahead.u32(WHAT)? as usize;
            ahead.take(id_len, WHAT)?;
            *len = ahead.u64(WHAT)? as usize;
            ahead.take(*len, WHAT)?;
            // A frame longer than its genome would take the
            // minus-strand arithmetic of `FrameCoord::to_genome_interval`
            // below zero.
            if *len != frame.translated_len(genome_len as usize) {
                return Err(SerialError::Corrupt(
                    "frame length does not match genome length",
                ));
            }
        }
        let total: usize = lens.iter().sum();
        if total > u32::MAX as usize {
            return Err(SerialError::Corrupt("frames exceed u32 addressing"));
        }
        let mut residues = Vec::with_capacity(total);
        let mut ids = Vec::with_capacity(FRAME_COUNT);
        for _ in Frame::ALL {
            let (id, frame) = self.seq(WHAT)?;
            residues.extend_from_slice(frame);
            ids.push(id);
        }
        let ids = ids.try_into().expect("six frames read");
        Ok((ids, FlatBank::from_concatenation(residues, lens)))
    }
}

/// Deserialize a bundle written under `model`: checksum first, then
/// every section, each table against the bank it indexes.
pub fn deserialize_bundle(data: &[u8], model: &dyn SeedModel) -> Result<IndexBundle, SerialError> {
    let (flags, mut r) = open(data)?;
    let (stored, supplied) = (r.str("model name truncated")?, model.name());
    if stored != supplied {
        return Err(SerialError::ModelMismatch { stored, supplied });
    }
    let genome_id = r.str("genome id truncated")?;
    let genome_len = r.u64("genome length truncated")?;
    let (frame_ids, frames) = r.frames(genome_len)?;
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
    let matrix =
        SubstitutionMatrix::from_flat(matrix_name, std::array::from_fn(|i| table[i] as i8));
    // Masking replaces residues one for one: the seeding view a table
    // addresses is as long as the bank stored here.
    let t1 = r.table(model, frames.len())?;
    let t0 = if flags & FLAG_T0 != 0 {
        let count = r.u32("t0 bank truncated")? as usize;
        let bank = r.bank(count, "t0 bank truncated")?;
        let index = r.table(model, bank.total_residues())?;
        Some(BundleT0 { bank, index })
    } else {
        None
    };
    if !r.data.is_empty() {
        return Err(SerialError::Corrupt("trailing bytes after bundle"));
    }
    Ok(IndexBundle {
        genome_id,
        genome_len,
        frame_ids,
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
    use crate::seed::ExactSeed;
    use crate::serial::{MAGIC, VERSION};
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

    const GENOME_LEN: usize = 322;

    fn sample_bundle(with_t0: bool, mask: Option<MaskConfig>) -> IndexBundle {
        let frame_len = |i: usize| Frame::ALL[i].translated_len(GENOME_LEN);
        let frames = std::array::from_fn(|i| frame(i, frame_len(i)));
        let model = sample_model();
        let frame_ids = frames.clone().map(|seq| seq.id);
        let frames = FlatBank::from_bank(&Bank::from_seqs(frames.into()));
        let t1 = SeedIndex::build(&frames, &model, 1, None);
        let t0 = with_t0.then(|| {
            let bank: Bank = (0..4).map(|i| frame(i + 10, 70)).collect();
            let index = SeedIndex::build(&FlatBank::from_bank(&bank), &model, 1, None);
            BundleT0 { bank, index }
        });
        IndexBundle {
            genome_id: "g".to_string(),
            genome_len: GENOME_LEN as u64,
            frame_ids,
            frames,
            mask,
            matrix: blosum62().clone(),
            t1,
            t0,
        }
    }

    /// The two shapes every sweep runs on: no optional section, and both.
    fn sample_bytes() -> [Vec<u8>; 2] {
        let model = sample_model();
        [
            sample_bundle(false, None).to_bytes(&model),
            sample_bundle(true, Some(MaskConfig::default())).to_bytes(&model),
        ]
    }

    #[test]
    fn round_trip_plain() {
        let model = sample_model();
        let bundle = sample_bundle(false, None);
        let back = deserialize_bundle(&bundle.to_bytes(&model), &model).unwrap();
        assert_eq!(bundle, back);
    }

    #[test]
    fn round_trip_with_t0_and_mask() {
        let model = sample_model();
        let bundle = sample_bundle(true, Some(MaskConfig::default()));
        let back = deserialize_bundle(&bundle.to_bytes(&model), &model).unwrap();
        assert_eq!(bundle, back);
    }

    #[test]
    fn rejects_wrong_model() {
        let model = sample_model();
        let bytes = sample_bundle(false, None).to_bytes(&model);
        let err = deserialize_bundle(&bytes, &ExactSeed::new(4)).unwrap_err();
        assert!(matches!(err, SerialError::ModelMismatch { .. }), "{err}");
        assert!(err.to_string().contains("seed model"));
    }

    #[test]
    fn rejects_garbage_and_bad_version() {
        let model = sample_model();
        for junk in [&b"junk"[..], b"", b"not an index bundle, but long enough"] {
            assert_eq!(
                deserialize_bundle(junk, &model).unwrap_err(),
                SerialError::BadMagic
            );
        }
        // A bundle as the previous format wrote its header: same magic,
        // version 1. Rejected on the version, whatever follows.
        let [mut raw, _] = sample_bytes();
        assert_eq!(raw[MAGIC.len()..MAGIC.len() + 2], VERSION.to_le_bytes());
        raw[MAGIC.len()] = 1;
        assert_eq!(
            deserialize_bundle(&raw, &model).unwrap_err(),
            SerialError::BadVersion(1)
        );
    }

    /// A flip at *any* offset — most importantly inside the `positions`
    /// words, which pass every structural check — must surface as an
    /// error, never as a different bundle and never as a panic.
    #[test]
    fn rejects_single_byte_flip_at_every_offset() {
        let model = sample_model();
        for bytes in sample_bytes() {
            for at in 0..bytes.len() {
                let mut raw = bytes.clone();
                raw[at] ^= 0x20;
                let got = deserialize_bundle(&raw, &model);
                assert!(got.is_err(), "flip at {at} accepted");
                // Past the magic and the version it is the checksum
                // that must speak, not a misclassification.
                if at >= MAGIC.len() + 2 {
                    assert!(
                        matches!(got, Err(SerialError::Corrupt(_))),
                        "flip at {at}: {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let model = sample_model();
        for bytes in sample_bytes() {
            for cut in 0..bytes.len() {
                assert!(
                    deserialize_bundle(&bytes[..cut], &model).is_err(),
                    "cut at {cut} accepted"
                );
            }
        }
    }
}
