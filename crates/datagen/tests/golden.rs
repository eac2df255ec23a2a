//! The generators' output at fixed seeds, pinned by hash. Synthetic
//! inputs are a pure function of `psc_seqio::prng`; a change to that
//! stream, or to the order the generators draw from it, moves every
//! seeded workload in the repository and must show up here first.

use psc_datagen::{
    generate_families, generate_genome, mutate_protein, random_bank, BankConfig, FamilyConfig,
    GenomeConfig, MutationConfig,
};
use psc_seqio::prng::SplitMix64;

/// 64-bit FNV-1a over a sequence of byte slices.
fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in parts.into_iter().flatten() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn seeded_streams_are_pinned() {
    let bank = random_bank(&BankConfig {
        count: 12,
        min_len: 40,
        max_len: 90,
        seed: 0x5eed,
    });
    assert_eq!(
        fnv1a(bank.iter().map(|(_, s)| &s.residues[..])),
        0x8a32_b2c7_6b16_b70d,
        "random_bank"
    );

    let genome = generate_genome(
        &GenomeConfig {
            len: 20_000,
            gene_count: 6,
            repeat_tracts: 2,
            seed: 0xd14,
            ..GenomeConfig::default()
        },
        &bank,
    );
    let plants: Vec<u8> = genome
        .plants
        .iter()
        .flat_map(|p| [p.protein_idx, p.start, p.end, p.forward as usize])
        .flat_map(|v| (v as u64).to_le_bytes())
        .collect();
    assert_eq!(
        fnv1a([&genome.genome.residues[..], &plants]),
        0xd1fb_e84c_7da3_af7f,
        "generate_genome"
    );

    let mutated = mutate_protein(
        &mut SplitMix64::new(42),
        &bank.get(0).residues,
        &MutationConfig {
            divergence: 0.4,
            indel_rate: 0.05,
            indel_extend: 0.4,
        },
    );
    assert_eq!(
        fnv1a([&mutated[..]]),
        0x3eb5_484d_c87e_9b5c,
        "mutate_protein"
    );

    let family = &generate_families(&FamilyConfig {
        family_count: 1,
        members_per_family: 3,
        min_len: 60,
        max_len: 90,
        ..FamilyConfig::default()
    })[0];
    let members = family.members.iter().map(|m| &m.residues[..]);
    assert_eq!(
        fnv1a(std::iter::once(&family.query.residues[..]).chain(members)),
        0xd076_36d4_894b_f523,
        "generate_families"
    );
}
