//! The workspace's one seeded pseudo-random source: synthetic data
//! (`psc-datagen`), the differential lattice's sample, randomized unit
//! tests and the property-test case runner all draw from it. It lives
//! here because every crate that needs it already depends on this one.
//! Nothing in it is for cryptography.

use std::ops::{Bound, RangeBounds};

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer (Steele, Lea & Flood 2014) of `x + γ`: a
/// bijective hash of one integer, for draws that must be a pure
/// function of their inputs.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 stream: output `i` of seed `s` is `mix(s + i·γ)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64(u64);

/// Integers [`SplitMix64::range`] can draw.
pub trait Int: Copy {
    const MIN: Self;
    const MAX: Self;
    fn widen(self) -> i128;
    /// `v` is within `MIN..=MAX`.
    fn narrow(v: i128) -> Self;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const MIN: Self = <$t>::MIN;
            const MAX: Self = <$t>::MAX;
            fn widen(self) -> i128 { self as i128 }
            fn narrow(v: i128) -> Self { v as $t }
        }
    )*};
}
impl_int!(u8, i8, u32, i32, u64, usize);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = mix(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        out
    }

    /// Uniform in `0..n` by multiply-shift (bias below `n / 2⁶⁴`).
    /// `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no value to return");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform over a non-empty integer range, `a..b` or `a..=b`.
    pub fn range<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        let lo = match range.start_bound() {
            Bound::Included(&a) => a.widen(),
            Bound::Excluded(&a) => a.widen() + 1,
            Bound::Unbounded => T::MIN.widen(),
        };
        let hi = match range.end_bound() {
            Bound::Included(&b) => b.widen(),
            Bound::Excluded(&b) => b.widen() - 1,
            Bound::Unbounded => T::MAX.widen(),
        };
        assert!(lo <= hi, "range is empty");
        // At most 2⁶⁴ values, so the product below fits in 128 bits.
        let span = (hi - lo) as u128 + 1;
        T::narrow(lo + ((self.next_u64() as u128 * span) >> 64) as i128)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p` (always for `p ≥ 1`, never for `p ≤ 0`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Index drawn with probability proportional to its weight, from the
    /// table [`cumulative`] made of the weights. A zero-weight index is
    /// never drawn.
    pub fn weighted(&mut self, cumulative: &[f64]) -> usize {
        let total = *cumulative.last().expect("at least one weight");
        // `f64()` is at most 1 − 2⁻⁵³, so `x` rounds to below `total` and
        // the index found is in range; an index of zero weight repeats
        // its predecessor's sum and is passed over.
        let x = self.f64() * total;
        cumulative.partition_point(|&c| c <= x)
    }

    /// A vector whose length is drawn from `len` and whose items come
    /// from `item`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut SplitMix64) -> T,
    ) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// One of `items`, uniformly.
    pub fn select<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0..items.len())]
    }

    /// Printable ASCII (space to `~`) of a length drawn from `len`.
    pub fn printable(&mut self, len: impl RangeBounds<usize>) -> String {
        let bytes = self.vec(len, |g| g.range(b' '..=b'~'));
        String::from_utf8(bytes).expect("printable ASCII is UTF-8")
    }
}

/// Running sums of non-negative `weights`, as [`SplitMix64::weighted`]
/// reads them. The sum must be positive.
pub fn cumulative(weights: &[f64]) -> Vec<f64> {
    let mut sum = 0.0;
    let table: Vec<f64> = weights
        .iter()
        .map(|&w| {
            assert!(w >= 0.0, "negative weight {w}");
            sum += w;
            sum
        })
        .collect();
    assert!(sum > 0.0 && sum.is_finite(), "weights sum to {sum}");
    table
}

/// Says which case was running if the property panics.
struct CaseNote {
    case: usize,
    seed: u64,
}

impl CaseNote {
    fn text(&self) -> String {
        format!(
            "property failed at case {}; replay it alone with for_cases({:#x}, 1, ..)",
            self.case, self.seed
        )
    }
}

impl Drop for CaseNote {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", self.text());
        }
    }
}

/// Run `property` on `n` seeded cases, each with its own generator.
/// A property fails by panicking (`assert!`); the case index and the
/// seed that replays that case alone are then printed to stderr. There
/// is no shrinking. Case 0 draws from `seed` itself and case `i + 1`
/// from `mix` of case `i`'s seed.
pub fn for_cases(mut seed: u64, n: usize, mut property: impl FnMut(&mut SplitMix64)) {
    for case in 0..n {
        let _note = CaseNote { case, seed };
        property(&mut SplitMix64::new(seed));
        seed = mix(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_the_reference_vectors() {
        // SplitMix64 seeded with 1234567, from the reference C code.
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
        assert_eq!(mix(1234567), 6457827717110365317);
    }

    #[test]
    fn below_stays_in_range() {
        let mut g = SplitMix64::new(1);
        for n in [1, 2, 3, 1 << 63, u64::MAX] {
            let mut top = 0;
            for _ in 0..2000 {
                let v = g.below(n);
                assert!(v < n, "below({n}) gave {v}");
                top = top.max(v);
            }
            assert!(
                n == 1 || top >= n / 2,
                "below({n}) never left the lower half"
            );
        }
    }

    #[test]
    fn range_covers_both_ends_and_nothing_else() {
        let mut g = SplitMix64::new(2);
        let mut seen = [0usize; 7];
        for _ in 0..2000 {
            seen[(g.range(-3i8..=3) + 3) as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 200), "{seen:?}");
        for _ in 0..2000 {
            assert!((10..13).contains(&g.range(10usize..13)));
        }
        assert_eq!(g.range(5u64..6), 5);
        // Full-width ranges neither overflow nor collapse.
        let wide: Vec<u64> = (0..4).map(|_| g.range(..)).collect();
        assert!(wide.iter().any(|&v| v > u64::MAX / 2));
        assert!((0..200).any(|_| g.range(i32::MIN..=i32::MAX) < 0));
    }

    #[test]
    fn f64_and_chance_respect_their_bounds() {
        let mut g = SplitMix64::new(3);
        let mean = (0..20_000).map(|_| g.f64()).sum::<f64>() / 20_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((0..1000).all(|_| (0.0..1.0).contains(&g.f64())));
        assert!((0..1000).all(|_| g.chance(1.0) && !g.chance(0.0)));
        let hits = (0..20_000).filter(|_| g.chance(0.25)).count();
        assert!((4600..5400).contains(&hits), "hits {hits}");
    }

    #[test]
    fn weighted_follows_weights_and_skips_zeros() {
        let table = cumulative(&[0.0, 1.0, 0.0, 3.0, 0.0]);
        let mut g = SplitMix64::new(4);
        let mut seen = [0usize; 5];
        for _ in 0..20_000 {
            seen[g.weighted(&table)] += 1;
        }
        assert_eq!((seen[0], seen[2], seen[4]), (0, 0, 0), "{seen:?}");
        assert!((4600..5400).contains(&seen[1]), "{seen:?}");
    }

    #[test]
    fn generators_respect_their_shapes() {
        let mut g = SplitMix64::new(5);
        for _ in 0..200 {
            let v = g.vec(2..5, |g| g.range(0u8..24));
            assert!((2..5).contains(&v.len()) && v.iter().all(|&c| c < 24));
            assert_eq!(g.vec(6..=6, |g| g.next_u64()).len(), 6);
            assert!([7, 9].contains(g.select(&[7, 9])));
            let s = g.printable(0..=30);
            assert!(s.len() <= 30 && s.bytes().all(|b| (b' '..=b'~').contains(&b)));
        }
    }

    #[test]
    fn for_cases_replays_from_the_printed_seed() {
        let mut cases = Vec::new();
        for_cases(99, 6, |g| cases.push((g.0, g.vec(0..9, |g| g.next_u64()))));
        assert_eq!(cases.len(), 6);
        assert_eq!(cases[0].0, 99);
        assert!(cases.windows(2).all(|w| w[0] != w[1]), "cases repeat");
        for (case, (seed, drawn)) in cases.iter().enumerate() {
            let text = CaseNote { case, seed: *seed }.text();
            assert!(text.contains(&format!("case {case};")), "{text}");
            assert!(text.contains(&format!("for_cases({seed:#x}, 1,")), "{text}");
            for_cases(*seed, 1, |g| {
                assert_eq!(&g.vec(0..9, |g| g.next_u64()), drawn)
            });
        }
    }
}
