//! Order statistics and the digest, in plain std code.

/// Median; the mean of the two middle values for an even count.
/// Panics on an empty slice: every caller has at least one repeat.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0–100) of a non-empty sample.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// [`nearest_rank`], or `None` when fewer than [`TAIL_SAMPLES`] samples
/// lie beyond it — a tail read off a handful of samples does not
/// repeat.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + TAIL_SAMPLES).then(|| nearest_rank(values, p))
}

/// The highest of the usual percentiles that still has
/// [`TAIL_SAMPLES`] samples beyond it, with its name.
pub fn highest_percentile(values: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0), ("p50", 50.0)]
        .into_iter()
        .find_map(|(name, p)| percentile(values, p).map(|v| (name, v)))
}

/// Fletcher-64 over little-endian 32-bit words (a trailing partial word
/// is zero-padded, and the length is mixed in so padding is not
/// absorbed).
pub fn fletcher64(data: &[u8]) -> u64 {
    const MOD: u64 = 0xffff_ffff;
    let (mut a, mut b) = (0u64, 0u64);
    let mut add = |word: u32| {
        a = (a + word as u64) % MOD;
        b = (b + a) % MOD;
    };
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        add(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 4];
        last[..rest.len()].copy_from_slice(rest);
        add(u32::from_le_bytes(last));
    }
    add(data.len() as u32);
    (b << 32) | a
}

/// Digest of a list of lines that does not depend on their order.
pub fn digest_lines(lines: &mut [String]) -> u64 {
    lines.sort_unstable();
    let mut bytes = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in lines.iter() {
        bytes.extend_from_slice(l.as_bytes());
        bytes.push(b'\n');
    }
    fletcher64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), None);
        assert_eq!(highest_percentile(&hundred), Some(("p90", 90.0)));

        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_percentile(&thousand), Some(("p99", 990.0)));

        // 20 samples: the median has 10 beyond it, p90 does not.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(highest_percentile(&twenty), Some(("p50", 10.0)));
        let nineteen = &twenty[..19];
        assert_eq!(highest_percentile(nineteen), None);
    }

    #[test]
    fn digest_ignores_order_but_not_content_or_padding() {
        let mut a = vec!["x 1".to_string(), "y 2".to_string()];
        let mut b = vec!["y 2".to_string(), "x 1".to_string()];
        assert_eq!(digest_lines(&mut a), digest_lines(&mut b));
        let mut c = vec!["x 1".to_string(), "y 3".to_string()];
        assert_ne!(digest_lines(&mut a), digest_lines(&mut c));
        assert_ne!(fletcher64(b"ab"), fletcher64(b"ab\0"));
        assert_ne!(fletcher64(b""), fletcher64(b"\0\0\0\0"));
    }
}
