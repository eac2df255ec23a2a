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

/// A seed model: fixed span, finite key space, and a keying function.
pub trait SeedModel: Send + Sync {
    /// Number of residues a seed covers (the paper's `W`).
    fn span(&self) -> usize;

    /// Size of the key space (number of index-table entries).
    fn key_count(&self) -> usize;

    /// Key of a window of `span()` residues, or `None` when the window
    /// contains a residue the model cannot map (non-standard residues —
    /// `X`, stops, B/Z — never seed, mirroring BLAST's masking).
    fn key(&self, window: &[u8]) -> Option<u32>;

    /// Human-readable model name for reports.
    fn name(&self) -> String;
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

    #[inline]
    fn key(&self, window: &[u8]) -> Option<u32> {
        debug_assert_eq!(window.len(), self.w);
        let mut key = 0u32;
        for &c in window {
            if c as usize >= AA_STANDARD_LEN {
                return None;
            }
            key = key * AA_STANDARD_LEN as u32 + c as u32;
        }
        Some(key)
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
        assert!(!positions.is_empty());
        let key_count = positions
            .iter()
            .try_fold(1usize, |acc, p| acc.checked_mul(p.groups as usize))
            .expect("key space overflow");
        assert!(key_count <= 1 << 28, "key space too large to tabulate");
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

    #[inline]
    fn key(&self, window: &[u8]) -> Option<u32> {
        debug_assert_eq!(window.len(), self.positions.len());
        let mut key = 0u32;
        for (pos, &c) in self.positions.iter().zip(window) {
            if c as usize >= AA_STANDARD_LEN {
                return None;
            }
            key = key * pos.groups as u32 + pos.map[c as usize] as u32;
        }
        Some(key)
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
    use psc_seqio::alphabet::encode_protein;

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
        let mut seen = std::collections::HashSet::new();
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
