//! Seed models: the hash functions that decide which windows share an
//! index entry.
//!
//! The paper indexes with "one seed of 4 amino acids, based on the subset
//! seed approach" of Peterlongo et al. \[11\]: each seed position reads
//! the residue through a *reduced alphabet* (groups of exchangeable amino
//! acids), trading key specificity for sensitivity. An exact W-mer seed
//! (every position its own group) is the degenerate case and serves as
//! the ablation baseline.

use psc_seqio::alphabet::AA_STANDARD_LEN;

/// What a window keys to when a residue in it cannot seed, and above
/// every real key: see [`key_rows`].
pub(crate) const NO_KEY: u32 = 1 << 28;

/// One seed position as data: what each residue byte adds to a key.
pub(crate) type KeyRow = [u32; 256];

/// A seed model: fixed span, finite key space, and a keying function.
///
/// A key is a mixed-radix sum — one alphabet partition per position,
/// the first position most significant (Roytberg et al.'s subset seed) —
/// so a model is fully described by [`SeedModel::contribution`].
pub trait SeedModel: Send + Sync {
    /// Number of residues a seed covers (the paper's `W`), 1 to 6.
    fn span(&self) -> usize;

    /// Size of the key space (number of index-table entries), at most
    /// `1 << 28`.
    fn key_count(&self) -> usize;

    /// What standard residue `residue` (a code under 20) adds to a
    /// window's key at seed position `pos`: its group there times the
    /// position's place value.
    fn contribution(&self, pos: usize, residue: u8) -> u32;

    /// Key of a window of `span()` residues, or `None` when the window
    /// contains a residue the model cannot map (non-standard residues —
    /// `X`, stops, B/Z — never seed, mirroring BLAST's masking). This is
    /// the definition; the index build sums [`key_rows`] instead.
    fn key(&self, window: &[u8]) -> Option<u32> {
        debug_assert_eq!(window.len(), self.span());
        window.iter().enumerate().try_fold(0, |key, (pos, &c)| {
            ((c as usize) < AA_STANDARD_LEN).then(|| key + self.contribution(pos, c))
        })
    }

    /// Human-readable model name for reports.
    fn name(&self) -> String;
}

/// The model as a table, one row per seed position: a standard
/// residue's [`SeedModel::contribution`], [`NO_KEY`] for every other
/// byte. A window's key is then `span` loads and `span − 1` adds, and
/// is `≥ NO_KEY` iff some residue in it cannot seed — real keys stay
/// under `key_count ≤ NO_KEY`, and six entries cannot wrap a `u32`. 256
/// entries, so any byte indexes in bounds.
pub(crate) fn key_rows(model: &dyn SeedModel) -> Vec<KeyRow> {
    assert!(model.key_count() <= NO_KEY as usize, "key space too large");
    (0..model.span())
        .map(|pos| {
            std::array::from_fn(|c| match c < AA_STANDARD_LEN {
                true => model.contribution(pos, c as u8),
                false => NO_KEY,
            })
        })
        .collect()
}

/// Exact W-mer seed: two windows share a key iff they are identical.
#[derive(Clone, Debug)]
pub struct ExactSeed {
    w: usize,
}

impl ExactSeed {
    /// Exact seed of span `w`. Key space is `20^w`; `w ≤ 6` keeps it
    /// addressable.
    pub fn new(w: usize) -> ExactSeed {
        assert!((1..=6).contains(&w), "exact seed span must be 1..=6");
        ExactSeed { w }
    }
}

impl SeedModel for ExactSeed {
    fn span(&self) -> usize {
        self.w
    }

    fn key_count(&self) -> usize {
        AA_STANDARD_LEN.pow(self.w as u32)
    }

    fn contribution(&self, pos: usize, residue: u8) -> u32 {
        residue as u32 * (AA_STANDARD_LEN as u32).pow((self.w - 1 - pos) as u32)
    }

    fn name(&self) -> String {
        format!("exact-{}", self.w)
    }
}

/// One position's residue→group mapping.
#[derive(Clone, Debug)]
pub struct PositionClasses {
    /// `map[residue] = group id` for the 20 standard residues.
    map: [u8; AA_STANDARD_LEN],
    /// Number of groups (the radix this position contributes).
    groups: u8,
    /// Label for diagnostics.
    label: &'static str,
}

impl PositionClasses {
    /// Build from a `'|'`-separated grouping over ASCII residue letters,
    /// e.g. `"LVIM|C|A|G|ST|P|FYW|EDNQ|KR|H"`. Every standard residue
    /// must appear exactly once.
    pub fn from_groups(label: &'static str, spec: &str) -> PositionClasses {
        let mut map = [u8::MAX; AA_STANDARD_LEN];
        let mut groups = 0u8;
        for group in spec.split('|') {
            for ch in group.bytes() {
                let aa = psc_seqio::Aa::from_ascii(ch)
                    .unwrap_or_else(|| panic!("bad residue {:?} in group spec", ch as char));
                assert!(aa.is_standard(), "group spec must use standard residues");
                assert_eq!(
                    map[aa.0 as usize],
                    u8::MAX,
                    "residue {} appears twice",
                    ch as char
                );
                map[aa.0 as usize] = groups;
            }
            groups += 1;
        }
        assert!(
            map.iter().all(|&g| g != u8::MAX),
            "group spec must cover all 20 residues"
        );
        PositionClasses { map, groups, label }
    }

    /// The identity mapping (every residue its own group).
    pub fn exact() -> PositionClasses {
        let mut map = [0u8; AA_STANDARD_LEN];
        for (i, m) in map.iter_mut().enumerate() {
            *m = i as u8;
        }
        PositionClasses {
            map,
            groups: AA_STANDARD_LEN as u8,
            label: "exact",
        }
    }
}

/// Murphy-style 10-group reduced alphabet.
pub fn murphy10() -> PositionClasses {
    PositionClasses::from_groups("murphy10", "LVIM|C|A|G|ST|P|FYW|EDNQ|KR|H")
}

/// Murphy-style 15-group reduced alphabet.
pub fn murphy15() -> PositionClasses {
    PositionClasses::from_groups("murphy15", "LVIM|C|A|G|S|T|P|FY|W|E|D|N|Q|KR|H")
}

/// A subset seed: a sequence of per-position reduced alphabets.
#[derive(Clone, Debug)]
pub struct SubsetSeed {
    positions: Vec<PositionClasses>,
    key_count: usize,
}

impl SubsetSeed {
    pub fn new(positions: Vec<PositionClasses>) -> SubsetSeed {
        assert!(
            (1..=6).contains(&positions.len()),
            "subset seed span must be 1..=6"
        );
        let key_count = positions
            .iter()
            .try_fold(1usize, |acc, p| acc.checked_mul(p.groups as usize))
            .expect("key space overflow");
        assert!(key_count <= NO_KEY as usize, "key space too large");
        SubsetSeed {
            positions,
            key_count,
        }
    }
}

impl SeedModel for SubsetSeed {
    fn span(&self) -> usize {
        self.positions.len()
    }

    fn key_count(&self) -> usize {
        self.key_count
    }

    fn contribution(&self, pos: usize, residue: u8) -> u32 {
        let later = &self.positions[pos + 1..];
        let place: u32 = later.iter().map(|p| p.groups as u32).product();
        self.positions[pos].map[residue as usize] as u32 * place
    }

    fn name(&self) -> String {
        let labels: Vec<&str> = self.positions.iter().map(|p| p.label).collect();
        format!("subset[{}]", labels.join(","))
    }
}

/// The default subset seed of the reproduction: span 4, outer positions
/// read through the 15-group alphabet and inner positions through the
/// 10-group alphabet (≈22 500 keys — between BLAST's 8 000 3-mer keys and
/// the 160 000 exact-4-mer keys, matching the fan-out regime the paper's
/// index operates in).
pub fn subset_seed_default() -> SubsetSeed {
    SubsetSeed::new(vec![murphy15(), murphy10(), murphy10(), murphy15()])
}

/// A coarser span-3 subset seed (≈2 250 keys). With ~1/10-scale banks it
/// reproduces the index-list-length regime of the paper's experiments
/// (hundreds of IL0 windows per key at the 30× bank), which is what
/// makes PE-array size matter; the default span-4 seed at reduced scale
/// leaves the array permanently underfilled.
pub fn subset_seed_span3() -> SubsetSeed {
    SubsetSeed::new(vec![murphy15(), murphy10(), murphy15()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_seqio::alphabet::{encode_protein, AA_ALPHABET_LEN};

    #[test]
    fn exact_seed_keys_distinct_windows() {
        let s = ExactSeed::new(3);
        assert_eq!(s.key_count(), 8000);
        assert_eq!(s.span(), 3);
        let a = s.key(&encode_protein(b"MKV")).unwrap();
        let b = s.key(&encode_protein(b"MKW")).unwrap();
        assert_ne!(a, b);
        assert_eq!(s.key(&encode_protein(b"MKV")), Some(a));
        assert!(a < 8000);
    }

    #[test]
    fn exact_seed_rejects_nonstandard() {
        let s = ExactSeed::new(3);
        assert_eq!(s.key(&encode_protein(b"MKX")), None);
        assert_eq!(s.key(&encode_protein(b"M*V")), None);
        assert_eq!(s.key(&encode_protein(b"MBV")), None);
    }

    #[test]
    #[should_panic]
    fn exact_seed_span_bounds() {
        ExactSeed::new(7);
    }

    #[test]
    fn exact_seed_keys_are_bijective_for_w2() {
        let s = ExactSeed::new(2);
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..20u8 {
            for b in 0..20u8 {
                let k = s.key(&[a, b]).unwrap();
                assert!(seen.insert(k), "collision at ({a},{b})");
            }
        }
        assert_eq!(seen.len(), 400);
    }

    #[test]
    fn murphy_alphabets_cover_everything() {
        let m10 = murphy10();
        assert_eq!(m10.groups, 10);
        let m15 = murphy15();
        assert_eq!(m15.groups, 15);
        let exact = PositionClasses::exact();
        assert_eq!(exact.groups, 20);
    }

    #[test]
    fn subset_seed_groups_similar_residues() {
        let s = subset_seed_default();
        assert_eq!(s.span(), 4);
        assert_eq!(s.key_count(), 15 * 10 * 10 * 15);
        // I and L are in one group at every position: ILIL and LILI share
        // a key.
        let a = s.key(&encode_protein(b"ILIL")).unwrap();
        let b = s.key(&encode_protein(b"LILI")).unwrap();
        assert_eq!(a, b);
        // K and R likewise.
        let a = s.key(&encode_protein(b"KAKA")).unwrap();
        let b = s.key(&encode_protein(b"RARA")).unwrap();
        assert_eq!(a, b);
        // E and D are distinct in murphy15 (outer positions).
        let a = s.key(&encode_protein(b"EAAA")).unwrap();
        let b = s.key(&encode_protein(b"DAAA")).unwrap();
        assert_ne!(a, b);
        // …but merged in murphy10 (inner positions).
        let a = s.key(&encode_protein(b"AEAA")).unwrap();
        let b = s.key(&encode_protein(b"ADAA")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn subset_seed_key_in_range() {
        let s = subset_seed_default();
        let mut rng = psc_seqio::prng::SplitMix64::new(0x12345);
        for _ in 0..1000 {
            let w: [u8; 4] = std::array::from_fn(|_| rng.range(0..20u8));
            let k = s.key(&w).unwrap();
            assert!((k as usize) < s.key_count());
        }
    }

    /// Every window over all 24 residue codes (24^span of them, first
    /// position slowest): the row sum the index build computes and the
    /// provided `key()` agree, `None` ⇔ `≥ NO_KEY`, and the key stream
    /// is the one the hand-written `key` bodies of PR 22 produced — the
    /// digests are `fletcher64` over `key.unwrap_or(u32::MAX)` as
    /// little-endian words, computed with that build.
    #[test]
    fn row_sums_equal_key_on_every_window_and_the_stream_is_pinned() {
        let models: [(Box<dyn SeedModel>, u64); 5] = [
            (Box::new(subset_seed_default()), 0x79bd_6771_0c19_8e5a),
            (Box::new(subset_seed_span3()), 0xaf8e_f71f_006b_06c1),
            (Box::new(ExactSeed::new(2)), 0x136d_bafd_0004_6072),
            (Box::new(ExactSeed::new(3)), 0x9671_9deb_006d_c00a),
            (Box::new(ExactSeed::new(4)), 0xa7e2_b4cd_0cd7_976a),
        ];
        for (model, pinned) in &models {
            let (span, rows) = (model.span(), key_rows(model.as_ref()));
            assert_eq!(rows.len(), span);
            let mut stream = Vec::new();
            for n in 0..AA_ALPHABET_LEN.pow(span as u32) {
                let digit = |i| (n / AA_ALPHABET_LEN.pow(i as u32) % AA_ALPHABET_LEN) as u8;
                let window: Vec<u8> = (0..span).rev().map(digit).collect();
                let sum: u32 = rows.iter().zip(&window).map(|(r, &c)| r[c as usize]).sum();
                let key = model.key(&window);
                assert_eq!(key, (sum < NO_KEY).then_some(sum), "{window:?}");
                assert!(key.is_none_or(|k| (k as usize) < model.key_count()));
                stream.extend_from_slice(&key.unwrap_or(u32::MAX).to_le_bytes());
            }
            let name = model.name();
            assert_eq!(crate::fletcher64(&[&stream]), *pinned, "{name}");
        }
    }

    /// Bytes no encoder emits still index a row in bounds and never seed.
    #[test]
    fn rows_refuse_every_byte_past_the_standard_residues() {
        for row in key_rows(&subset_seed_default()) {
            assert!(row[..AA_STANDARD_LEN].iter().all(|&k| k < NO_KEY));
            assert!(row[AA_STANDARD_LEN..].iter().all(|&k| k == NO_KEY));
        }
    }

    #[test]
    #[should_panic(expected = "span must be 1..=6")]
    fn subset_seed_span_bounds() {
        SubsetSeed::new(vec![murphy10(); 7]);
    }

    #[test]
    #[should_panic]
    fn bad_group_spec_duplicate() {
        PositionClasses::from_groups("bad", "LL|VIM|C|A|G|ST|P|FYW|EDNQ|KR|H");
    }

    #[test]
    #[should_panic]
    fn bad_group_spec_missing() {
        PositionClasses::from_groups("bad", "LVIM|C|A|G");
    }

    #[test]
    fn names_are_informative() {
        assert_eq!(ExactSeed::new(4).name(), "exact-4");
        assert!(subset_seed_default().name().contains("murphy10"));
    }
}
