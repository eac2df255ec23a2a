//! The on-disk frame and the codecs inside it.
//!
//! The paper's workflow re-uses the genome index across protein banks
//! ("the time for indexing the banks… remains high compared to the
//! execution time of steps 2 and 3"), which only pays if reloading
//! step 1 is cheaper than redoing it. There is one artifact, the
//! [bundle](crate::bundle), and this module is what it is made of: a
//! little-endian frame — magic, version, section flags, one
//! [`fletcher64`] checksum over everything after the magic — a
//! length-checked cursor, and the seed-table codec.
//!
//! [`open`] verifies the checksum before a single field is parsed, so a
//! flipped byte anywhere surfaces as [`SerialError::Corrupt`] (or a more
//! specific header error), never as different search results.

use crate::seed::SeedModel;
use crate::table::SeedIndex;

pub(crate) const MAGIC: &[u8; 8] = b"PSCBDL\x00\x02";
/// Version 1 nested a standalone index file, with a checksum of its
/// own, in each table section.
pub(crate) const VERSION: u16 = 2;
/// Where the checksum sits: after the magic, the version and the flags.
const CHECKSUM_AT: usize = MAGIC.len() + 4;

/// Serialization errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SerialError {
    /// Not a PSC index bundle (bad magic or truncated header).
    BadMagic,
    /// Written by a build with another format version.
    BadVersion(u16),
    /// Built under a different seed model than the one supplied.
    ModelMismatch { stored: String, supplied: String },
    /// Invalid payload: checksum mismatch, truncation, inconsistent
    /// counts, a position outside its bank.
    Corrupt(&'static str),
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerialError::BadMagic => write!(f, "not a PSC index bundle"),
            SerialError::BadVersion(v) => {
                write!(f, "format version {v}, this build reads version {VERSION}")
            }
            SerialError::ModelMismatch { stored, supplied } => write!(
                f,
                "index was built with seed model {stored:?}, not {supplied:?}"
            ),
            SerialError::Corrupt(what) => write!(f, "corrupt index: {what}"),
        }
    }
}

impl std::error::Error for SerialError {}

const MOD: u64 = 0xFFFF_FFFB;
/// Bytes summed between two reductions. `a` grows by at most 256 a byte
/// and `b` by `a`, so from reduced values `b` stays under
/// `2^32 + BLOCK · (2^32 + 256 · BLOCK)` — 2^45 here, of 2^64.
const BLOCK: usize = 1 << 12;
/// Bytes added to the accumulators at once; their weighted sum is under
/// `STEP² · 256`, far inside a `u32`.
const STEP: usize = 64;

/// Fletcher checksum over a sequence of byte slices: two accumulators
/// seeded `0xF1EA`/`0x5EED`, each input byte added (+1, so trailing
/// zeros still move the sum) to the first and the first to the second,
/// both modulo the prime `0xFFFF_FFFB`, combined `(b << 32) | a`.
/// Streaming over parts equals checksumming the concatenation.
///
/// Reduction is a ring homomorphism, so it is taken once per [`BLOCK`]
/// instead of twice per byte, and inside a block [`STEP`] bytes `x` are
/// added at once — `b += STEP·a + Σ (STEP − i)(x_i + 1)`,
/// `a += Σ (x_i + 1)` — which breaks the byte-to-byte dependency and
/// lets the sums run in vector lanes. The value is that of the per-byte
/// definition (the tests' oracle) at 0.2 ns a byte against 4, which was
/// the whole cost of loading a bundle.
pub fn fletcher64(parts: &[&[u8]]) -> u64 {
    let (mut a, mut b) = (0xF1EAu64, 0x5EEDu64);
    for block in parts.iter().flat_map(|part| part.chunks(BLOCK)) {
        let mut steps = block.chunks_exact(STEP);
        for step in &mut steps {
            let (mut sum, mut weighted) = (0u32, 0u32);
            for (i, &byte) in step.iter().enumerate() {
                sum += byte as u32 + 1;
                weighted += (STEP - i) as u32 * (byte as u32 + 1);
            }
            b += STEP as u64 * a + weighted as u64;
            a += sum as u64;
        }
        for &byte in steps.remainder() {
            a += byte as u64 + 1;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 32) | a
}

/// Start an artifact: magic, version, flags, and the room [`seal`]
/// writes the checksum into.
pub(crate) fn begin(flags: u16) -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&flags.to_le_bytes());
    put_u64(&mut buf, 0);
    buf
}

/// Finish an artifact begun by [`begin`]: sum the version, the flags and
/// the body.
pub(crate) fn seal(buf: &mut [u8]) {
    let sum = fletcher64(&[&buf[MAGIC.len()..CHECKSUM_AT], &buf[CHECKSUM_AT + 8..]]);
    buf[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Check magic, version and checksum — the one pass over every byte —
/// and return the flags and a cursor at the body.
pub(crate) fn open(data: &[u8]) -> Result<(u16, Reader<'_>), SerialError> {
    if data.len() < CHECKSUM_AT + 8 || &data[..MAGIC.len()] != MAGIC {
        return Err(SerialError::BadMagic);
    }
    let mut r = Reader {
        data: &data[MAGIC.len()..],
    };
    let version = r.u16("header truncated")?;
    if version != VERSION {
        return Err(SerialError::BadVersion(version));
    }
    let flags = r.u16("header truncated")?;
    let stored = r.u64("header truncated")?;
    if fletcher64(&[&data[MAGIC.len()..CHECKSUM_AT], r.data]) != stored {
        return Err(SerialError::Corrupt("checksum mismatch"));
    }
    Ok((flags, r))
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

    /// A seed table written by [`put_table`], for a bank of `bank_len`
    /// residues under `model`: the offsets must be a monotone prefix-sum
    /// table over the positions, and every position must lie inside the
    /// bank — step 2 gathers windows at them unchecked.
    pub(crate) fn table(
        &mut self,
        model: &dyn SeedModel,
        bank_len: usize,
    ) -> Result<SeedIndex, SerialError> {
        let key_count = self.u64("table header truncated")? as usize;
        let n_positions = self.u64("table header truncated")? as usize;
        if key_count != model.key_count() {
            return Err(SerialError::Corrupt("key count does not match model"));
        }
        let offsets = self.u32s(key_count + 1, "offsets truncated")?;
        let positions = self.u32s(n_positions, "positions truncated")?;
        if offsets[0] != 0 {
            return Err(SerialError::Corrupt("offsets do not start at zero"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(SerialError::Corrupt("offsets not monotone"));
        }
        if offsets[key_count] as usize != n_positions {
            return Err(SerialError::Corrupt("offsets do not cover positions"));
        }
        if positions
            .iter()
            .max()
            .is_some_and(|&p| p as usize >= bank_len)
        {
            return Err(SerialError::Corrupt("position outside its bank"));
        }
        Ok(SeedIndex::from_parts(key_count, offsets, positions))
    }
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32s(buf: &mut Vec<u8>, words: &[u32]) {
    buf.reserve(words.len() * 4);
    for &w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

/// A seed table: `key_count`, `n_positions`, `offsets[key_count + 1]`,
/// `positions[n_positions]`.
pub(crate) fn put_table(buf: &mut Vec<u8>, index: &SeedIndex) {
    put_u64(buf, index.key_count() as u64);
    put_u64(buf, index.positions().len() as u64);
    put_u32s(buf, index.offsets());
    put_u32s(buf, index.positions());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatBank;
    use crate::seed::{subset_seed_default, ExactSeed};
    use psc_seqio::{Bank, Seq, SeqKind};

    /// The checksum as defined, two reductions a byte: the oracle the
    /// block-reduced loop must equal value for value.
    fn fletcher64_per_byte(parts: &[&[u8]]) -> u64 {
        let (mut a, mut b) = (0xF1EAu64, 0x5EEDu64);
        for &byte in parts.iter().copied().flatten() {
            a = (a + byte as u64 + 1) % MOD;
            b = (b + a) % MOD;
        }
        (b << 32) | a
    }

    const BANK_LEN: usize = 800;
    /// Where a framed table's offsets start: after the frame and the
    /// two counts.
    const OFFSETS_AT: usize = CHECKSUM_AT + 8 + 16;

    /// The index of a small fixed bank under `model`, framed on its
    /// own: the sweeps below are quadratic in its size.
    fn sample(model: &dyn SeedModel) -> (SeedIndex, Vec<u8>) {
        let bank: Bank = (0..10)
            .map(|i| {
                let res: Vec<u8> = (0..80u32).map(|j| ((i * 7 + j * 3) % 20) as u8).collect();
                Seq::from_codes(format!("s{i}"), res, SeqKind::Protein)
            })
            .collect();
        let index = SeedIndex::build(&FlatBank::from_bank(&bank), model, 1, None);
        let mut buf = begin(0);
        put_table(&mut buf, &index);
        seal(&mut buf);
        (index, buf)
    }

    fn read(data: &[u8], model: &dyn SeedModel) -> Result<SeedIndex, SerialError> {
        open(data)?.1.table(model, BANK_LEN)
    }

    #[test]
    fn round_trip() {
        let model = ExactSeed::new(2);
        let (index, bytes) = sample(&model);
        assert!(index.total_positions() > 0);
        assert_eq!(read(&bytes, &model).unwrap(), index);
    }

    #[test]
    fn round_trip_subset_model() {
        // Full-size paper model (22500 keys) — one linear round trip.
        let model = subset_seed_default();
        let (index, bytes) = sample(&model);
        assert_eq!(read(&bytes, &model).unwrap(), index);
    }

    #[test]
    fn fletcher_matches_rasc_discipline() {
        // Fixed vectors.
        assert_eq!(fletcher64(&[]), (0x5EEDu64 << 32) | 0xF1EA);
        let one = fletcher64(&[&[0x07]]);
        assert_eq!(one & 0xFFFF_FFFF, 0xF1EA + 7 + 1);
        assert_eq!(one >> 32, 0x5EED + 0xF1EA + 8);
        // Trailing zero bytes are not absorbed.
        assert_ne!(fletcher64(&[&[1, 2]]), fletcher64(&[&[1, 2, 0]]));
    }

    #[test]
    fn fletcher_block_reduction_equals_per_byte_definition() {
        let bytes: Vec<u8> = (0..4 * BLOCK + 77)
            .map(|i| (i * 31 + i / 251) as u8)
            .collect();
        for len in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK, bytes.len()] {
            let part = &bytes[..len];
            assert_eq!(fletcher64(&[part]), fletcher64_per_byte(&[part]), "{len}");
        }
        // Parts split anywhere — inside a step, between steps — sum as
        // the concatenation.
        let short = &bytes[..3 * STEP + 8];
        for cut in 0..=short.len() {
            let (head, tail) = short.split_at(cut);
            assert_eq!(
                fletcher64(&[head, &[], tail]),
                fletcher64(&[short]),
                "{cut}"
            );
        }
        // The accumulators' worst case: every byte adds 256.
        let ones = vec![0xFFu8; 5 * BLOCK + 3];
        let twice = [&ones[..], &ones[..]];
        assert_eq!(fletcher64(&twice), fletcher64_per_byte(&twice));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(open(b"not an index").err(), Some(SerialError::BadMagic));
        assert_eq!(open(b"").err(), Some(SerialError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut raw = begin(0);
        raw[MAGIC.len()] = 99;
        seal(&mut raw);
        assert_eq!(open(&raw).err(), Some(SerialError::BadVersion(99)));
    }

    /// A table for another key space is refused before it is sized.
    #[test]
    fn rejects_wrong_model() {
        let (_, bytes) = sample(&ExactSeed::new(2));
        let err = read(&bytes, &ExactSeed::new(3)).unwrap_err();
        assert_eq!(err, SerialError::Corrupt("key count does not match model"));
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let model = ExactSeed::new(2);
        let (_, bytes) = sample(&model);
        for cut in 0..bytes.len() {
            assert!(read(&bytes[..cut], &model).is_err(), "cut at {cut}");
            // Behind a valid checksum too: the cursor, not the sum.
            let mut resealed = bytes[..cut.max(CHECKSUM_AT + 8)].to_vec();
            seal(&mut resealed);
            assert!(read(&resealed, &model).is_err(), "resealed cut at {cut}");
        }
    }

    #[test]
    fn rejects_single_byte_flip_at_every_offset() {
        let model = ExactSeed::new(2);
        let (_, bytes) = sample(&model);
        for at in 0..bytes.len() {
            let mut raw = bytes.clone();
            raw[at] ^= 0x40;
            let got = read(&raw, &model);
            // Past the magic and the version, by the checksum.
            let want_corrupt = at >= MAGIC.len() + 2;
            assert!(
                got.is_err() && (!want_corrupt || matches!(got, Err(SerialError::Corrupt(_)))),
                "{at}: {got:?}"
            );
        }
    }

    /// What the checksum cannot see — a table damaged and then summed —
    /// the structural pass must: each check on its own.
    #[test]
    fn rejects_tampered_offsets() {
        let model = ExactSeed::new(2);
        let (_, bytes) = sample(&model);
        let last = bytes.len() - 4;
        let tampered = |at: usize, word: u32| {
            let mut raw = bytes.clone();
            raw[at..at + 4].copy_from_slice(&word.to_le_bytes());
            seal(&mut raw);
            read(&raw, &model).map(|_| ()).map_err(|e| e.to_string())
        };
        assert_eq!(tampered(last, BANK_LEN as u32 - 1), Ok(()));
        let end = OFFSETS_AT + 4 * model.key_count();
        for (at, word, what) in [
            (OFFSETS_AT, 1, "offsets do not start at zero"),
            (OFFSETS_AT + 4, u32::MAX, "offsets not monotone"),
            (end, 0, "offsets not monotone"),
            (end, u32::MAX, "offsets do not cover positions"),
            (last, BANK_LEN as u32, "position outside its bank"),
            (last, u32::MAX - 7, "position outside its bank"),
        ] {
            assert_eq!(tampered(at, word), Err(format!("corrupt index: {what}")));
        }
    }
}
