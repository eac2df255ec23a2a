//! Binary serialization of seed indexes.
//!
//! The paper's workflow re-uses the genome index across protein banks
//! ("the time for indexing the banks… remains high compared to the
//! execution time of steps 2 and 3"), so being able to build the genome
//! index once and reload it is a real workflow win. The format is a
//! little-endian sectioned layout with a magic, a format version, and a
//! seed-model fingerprint so an index cannot silently be used with the
//! wrong model.
//!
//! # Format versions
//!
//! * **v1** (legacy, read-only): magic, version, model name, counts,
//!   offsets, positions — structural validation only. A bit flip inside
//!   the `positions` payload passes the monotone-offset checks and
//!   silently changes step-2 results, which is why v1 is no longer
//!   written.
//! * **v2** (current): the v1 layout plus a [`fletcher64`] checksum
//!   between the model name and the counts, covering everything after
//!   it (counts, offsets, positions). The checksum is verified *before*
//!   the structural checks, so any payload corruption — including the
//!   bit-flipped-positions case — surfaces as
//!   [`SerialError::Corrupt`], never as a wrong answer.
//!
//! The checksum follows the same Fletcher discipline as the simulated
//! board's result-integrity machinery (`psc_rasc::fault`): two 16-bit
//! accumulators seeded `0xF1EA`/`0x5EED`, folded modulo the prime
//! `0xFFFF_FFFB`, combined `(b << 32) | a`. Index files and board result
//! blocks are guarded by the same arithmetic, so a single discipline is
//! audited in both places.

use crate::seed::SeedModel;
use crate::table::SeedIndex;

pub(crate) const MAGIC: &[u8; 8] = b"PSCIDX\x00\x01";

/// Serialization errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SerialError {
    /// Not a PSC index file (bad magic or truncated header).
    BadMagic,
    /// Produced by an incompatible format version.
    BadVersion(u16),
    /// Built under a different seed model than the one supplied.
    ModelMismatch { stored: String, supplied: String },
    /// Structurally invalid payload (truncation, inconsistent counts,
    /// checksum mismatch).
    Corrupt(&'static str),
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerialError::BadMagic => write!(f, "not a PSC index file"),
            SerialError::BadVersion(v) => write!(f, "unsupported index format version {v}"),
            SerialError::ModelMismatch { stored, supplied } => write!(
                f,
                "index was built with seed model {stored:?}, not {supplied:?}"
            ),
            SerialError::Corrupt(what) => write!(f, "corrupt index: {what}"),
        }
    }
}

impl std::error::Error for SerialError {}

/// Legacy checksum-free layout, still parsed.
const VERSION_V1: u16 = 1;
/// Current layout: v1 plus a Fletcher payload checksum.
const VERSION_V2: u16 = 2;

/// Fletcher checksum over a sequence of byte slices, byte-for-byte the
/// arithmetic of `psc_rasc::fault::stream_checksum`: two accumulators
/// seeded `0xF1EA`/`0x5EED`, each input byte added (+1, so trailing
/// zeros still move the sum) and folded modulo the prime `0xFFFF_FFFB`,
/// combined `(b << 32) | a`. Streaming over parts equals checksumming
/// the concatenation. (psc-rasc depends on this crate, so the board
/// code cannot be imported here; an equivalence test on the rasc side
/// pins the two copies together.)
pub fn fletcher64(parts: &[&[u8]]) -> u64 {
    const MOD: u64 = 0xFFFF_FFFB;
    let (mut a, mut b) = (0xF1EAu64, 0x5EEDu64);
    for part in parts {
        for &byte in *part {
            a = (a + byte as u64 + 1) % MOD;
            b = (b + a) % MOD;
        }
    }
    (b << 32) | a
}

/// Panic-free little-endian cursor over serialized bytes: every read
/// is length-checked, so truncation and length-field corruption surface
/// as [`SerialError::Corrupt`] naming what was being read.
pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SerialError> {
        if self.data.len() < n {
            return Err(SerialError::Corrupt(what));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], SerialError> {
        let bytes = self.take(N, what)?;
        Ok(bytes.try_into().expect("take returned N bytes"))
    }

    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16, SerialError> {
        self.array(what).map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, SerialError> {
        self.array(what).map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, SerialError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// `count` consecutive `u32` words.
    fn u32s(&mut self, count: usize, what: &'static str) -> Result<Vec<u32>, SerialError> {
        let n = count.checked_mul(4).ok_or(SerialError::Corrupt(what))?;
        let words = self.take(n, what)?.chunks_exact(4);
        Ok(words
            .map(|w| u32::from_le_bytes(w.try_into().expect("chunk of 4")))
            .collect())
    }
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32s(buf: &mut Vec<u8>, words: &[u32]) {
    for &w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

/// Append `index` and its seed-model fingerprint to `buf` in the
/// current (v2, checksummed) format.
pub(crate) fn write_index(buf: &mut Vec<u8>, index: &SeedIndex, model: &dyn SeedModel) {
    let (offsets, positions) = (index.offsets(), index.positions());
    let name = model.name();
    buf.reserve(MAGIC.len() + 4 + name.len() + 8 + 16 + (offsets.len() + positions.len()) * 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION_V2.to_le_bytes());
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    let checksum_at = buf.len();
    put_u64(buf, 0);
    put_u64(buf, index.key_count() as u64);
    put_u64(buf, positions.len() as u64);
    put_u32s(buf, offsets);
    put_u32s(buf, positions);
    let checksum = fletcher64(&[&buf[checksum_at + 8..]]);
    buf[checksum_at..checksum_at + 8].copy_from_slice(&checksum.to_le_bytes());
}

/// Serialize an index together with its seed-model fingerprint, in the
/// current (v2, checksummed) format.
pub fn serialize_index(index: &SeedIndex, model: &dyn SeedModel) -> Vec<u8> {
    let mut buf = Vec::new();
    write_index(&mut buf, index, model);
    buf
}

/// Deserialize an index (v1 or v2), verifying it was built under
/// `model`. For v2 data the payload checksum is verified before any
/// structural parsing.
pub fn deserialize_index(data: &[u8], model: &dyn SeedModel) -> Result<SeedIndex, SerialError> {
    if data.len() < MAGIC.len() + 4 || &data[..MAGIC.len()] != MAGIC {
        return Err(SerialError::BadMagic);
    }
    let mut r = Reader {
        data: &data[MAGIC.len()..],
    };
    let version = r.u16("header truncated")?;
    if version != VERSION_V1 && version != VERSION_V2 {
        return Err(SerialError::BadVersion(version));
    }
    let name_len = r.u16("header truncated")? as usize;
    let stored = String::from_utf8_lossy(r.take(name_len, "model name truncated")?).into_owned();
    let supplied = model.name();
    if stored != supplied {
        return Err(SerialError::ModelMismatch { stored, supplied });
    }
    if version == VERSION_V2 {
        let stored_sum = r.u64("checksum truncated")?;
        if fletcher64(&[r.data]) != stored_sum {
            return Err(SerialError::Corrupt("payload checksum mismatch"));
        }
    }
    deserialize_index_body(r, model)
}

/// The counts + offsets + positions body shared by both versions.
fn deserialize_index_body(
    mut r: Reader<'_>,
    model: &dyn SeedModel,
) -> Result<SeedIndex, SerialError> {
    let key_count = r.u64("header truncated")? as usize;
    let n_positions = r.u64("header truncated")? as usize;
    if key_count != model.key_count() {
        return Err(SerialError::Corrupt("key count does not match model"));
    }
    let need = (key_count + 1)
        .checked_add(n_positions)
        .and_then(|words| words.checked_mul(4))
        .ok_or(SerialError::Corrupt("size overflow"))?;
    if r.data.len() != need {
        return Err(SerialError::Corrupt("payload size mismatch"));
    }
    let offsets = r.u32s(key_count + 1, "payload size mismatch")?;
    let positions = r.u32s(n_positions, "payload size mismatch")?;
    // Structural validation: offsets must be a monotone prefix-sum table
    // ending exactly at the positions length.
    if offsets[0] != 0 {
        return Err(SerialError::Corrupt("offsets do not start at zero"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SerialError::Corrupt("offsets not monotone"));
    }
    if offsets[key_count] as usize != n_positions {
        return Err(SerialError::Corrupt("offsets do not cover positions"));
    }
    Ok(SeedIndex::from_parts(key_count, offsets, positions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatBank;
    use crate::seed::{subset_seed_default, ExactSeed};
    use psc_seqio::{Bank, Seq};

    /// A deliberately small model (400 keys): the every-offset flip and
    /// truncation sweeps below are quadratic in the artifact size.
    fn sample_index() -> (SeedIndex, ExactSeed) {
        let bank: Bank = (0..10)
            .map(|i| {
                let res: Vec<u8> = (0..80u32).map(|j| ((i * 7 + j * 3) % 20) as u8).collect();
                Seq::from_codes(format!("s{i}"), res, psc_seqio::SeqKind::Protein)
            })
            .collect();
        let flat = FlatBank::from_bank(&bank);
        let model = ExactSeed::new(2);
        (SeedIndex::build(&flat, &model, 1), model)
    }

    /// Hand-roll the legacy v1 layout for the compatibility tests.
    fn serialize_v1(index: &SeedIndex, model: &dyn SeedModel) -> Vec<u8> {
        let name = model.name();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION_V1.to_le_bytes());
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(index.key_count() as u64).to_le_bytes());
        buf.extend_from_slice(&(index.positions().len() as u64).to_le_bytes());
        for &o in index.offsets() {
            buf.extend_from_slice(&o.to_le_bytes());
        }
        for &p in index.positions() {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        buf
    }

    #[test]
    fn round_trip() {
        let (idx, model) = sample_index();
        let bytes = serialize_index(&idx, &model);
        let back = deserialize_index(&bytes, &model).unwrap();
        assert_eq!(back.key_count(), idx.key_count());
        assert_eq!(back.total_positions(), idx.total_positions());
        for k in idx.nonempty_keys() {
            assert_eq!(back.list(k), idx.list(k));
        }
    }

    #[test]
    fn round_trip_subset_model() {
        // Full-size paper model (22500 keys) — one linear round trip.
        let bank: Bank = (0..10)
            .map(|i| {
                let res: Vec<u8> = (0..80u32).map(|j| ((i * 7 + j * 3) % 20) as u8).collect();
                Seq::from_codes(format!("s{i}"), res, psc_seqio::SeqKind::Protein)
            })
            .collect();
        let model = subset_seed_default();
        let idx = SeedIndex::build(&FlatBank::from_bank(&bank), &model, 1);
        let bytes = serialize_index(&idx, &model);
        let back = deserialize_index(&bytes, &model).unwrap();
        assert_eq!(back.total_positions(), idx.total_positions());
        for k in idx.nonempty_keys() {
            assert_eq!(back.list(k), idx.list(k));
        }
    }

    #[test]
    fn v1_still_parses() {
        let (idx, model) = sample_index();
        let bytes = serialize_v1(&idx, &model);
        let back = deserialize_index(&bytes, &model).unwrap();
        assert_eq!(back.total_positions(), idx.total_positions());
        for k in idx.nonempty_keys() {
            assert_eq!(back.list(k), idx.list(k));
        }
    }

    #[test]
    fn fletcher_matches_rasc_discipline() {
        // Same constants and fold as psc_rasc::fault::stream_checksum;
        // pin the arithmetic with fixed vectors so a drive-by
        // "simplification" of either copy shows up here (the rasc side
        // has the cross-crate equivalence test).
        assert_eq!(fletcher64(&[]), (0x5EEDu64 << 32) | 0xF1EA);
        let one = fletcher64(&[&[0x07]]);
        assert_eq!(one & 0xFFFF_FFFF, 0xF1EA + 7 + 1);
        assert_eq!(one >> 32, 0x5EED + 0xF1EA + 8);
        // Streaming over parts equals the concatenation, and trailing
        // zero bytes are not absorbed.
        assert_eq!(
            fletcher64(&[&[1, 2, 3, 4]]),
            fletcher64(&[&[1, 2], &[3, 4]])
        );
        assert_ne!(fletcher64(&[&[1, 2]]), fletcher64(&[&[1, 2, 0]]));
    }

    #[test]
    fn rejects_garbage() {
        let model = subset_seed_default();
        assert_eq!(
            deserialize_index(b"not an index", &model).unwrap_err(),
            SerialError::BadMagic
        );
        assert_eq!(
            deserialize_index(b"", &model).unwrap_err(),
            SerialError::BadMagic
        );
    }

    #[test]
    fn rejects_wrong_model() {
        let (idx, model) = sample_index();
        let bytes = serialize_index(&idx, &model);
        let err = deserialize_index(&bytes, &ExactSeed::new(4)).unwrap_err();
        assert!(matches!(err, SerialError::ModelMismatch { .. }));
        assert!(err.to_string().contains("seed model"));
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let (idx, model) = sample_index();
        let bytes = serialize_index(&idx, &model);
        for cut in 0..bytes.len() {
            let err = deserialize_index(&bytes[..cut], &model);
            assert!(err.is_err(), "cut at {cut} accepted");
        }
    }

    /// The v1 hole the v2 checksum closes: a bit flip at *any* offset —
    /// most importantly inside the `positions` words, which pass every
    /// structural check — must surface as an error, never as a
    /// different index and never as a panic.
    #[test]
    fn rejects_single_byte_flip_at_every_offset() {
        let (idx, model) = sample_index();
        let bytes = serialize_index(&idx, &model);
        let payload_start = MAGIC.len() + 4 + model.name().len() + 8;
        for at in 0..bytes.len() {
            let mut raw = bytes.clone();
            raw[at] ^= 0x40;
            let got = deserialize_index(&raw, &model);
            assert!(got.is_err(), "flip at {at} accepted");
            // Flips past the header are exactly the silent-corruption
            // surface: they must be reported as Corrupt (the checksum),
            // not misclassified.
            if at >= payload_start {
                assert!(
                    matches!(got, Err(SerialError::Corrupt(_))),
                    "flip at {at}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn v1_accepts_flipped_positions_motivating_v2() {
        // Documented v1 weakness (the reason v2 exists): a flipped
        // positions word parses as a *different* index.
        let (idx, model) = sample_index();
        let mut raw = serialize_v1(&idx, &model);
        let n = raw.len();
        raw[n - 2] ^= 0x01;
        let back = deserialize_index(&raw, &model).expect("v1 cannot detect payload flips");
        assert_ne!(
            back.positions(),
            idx.positions(),
            "flip must have changed a position"
        );
    }

    #[test]
    fn rejects_tampered_offsets() {
        let (idx, model) = sample_index();
        let mut raw = serialize_index(&idx, &model);
        // Flip a byte inside the offsets table (after the header).
        let header = MAGIC.len() + 2 + 2 + model.name().len() + 8 + 16;
        raw[header + 5] ^= 0xFF;
        let err = deserialize_index(&raw, &model).unwrap_err();
        assert!(matches!(err, SerialError::Corrupt(_)), "{err}");
    }

    #[test]
    fn rejects_bad_version() {
        let (idx, model) = sample_index();
        let mut raw = serialize_index(&idx, &model);
        raw[MAGIC.len()] = 99;
        assert_eq!(
            deserialize_index(&raw, &model).unwrap_err(),
            SerialError::BadVersion(99)
        );
    }
}
