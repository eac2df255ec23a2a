//! The instrumentation surface: spans, counters, histograms, metadata.
//!
//! Instrumented code records against `&dyn Recorder`. The cost contract
//! is explicit: [`NullRecorder`] turns every operation into a no-op and
//! reports `enabled() == false`, so call sites with per-item cost (the
//! step-2 key loop, per-anchor accounting) gate on [`Recorder::enabled`]
//! and the disabled path never touches a clock, a lock, or an
//! allocation.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::keys::Key;

/// A log2-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. SaLoBa-style workload-balance pathologies (skewed
/// seed-key pair counts) are exactly what this shape exposes: a healthy
/// key distribution is a tight hump, a pathological one has a long
/// right tail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    /// Meaningful only when `count > 0`.
    pub min: u64,
    pub max: u64,
    /// Bucket counts, trimmed to the highest occupied bucket.
    pub buckets: Vec<u64>,
}

impl Histogram {
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// [`Histogram::observe`] `n` times over.
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        let b = Self::bucket_of(value);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += n;
    }

    /// Index of the bucket holding `value`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive `[lo, hi]` value range of bucket `b`.
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        if b == 0 {
            (0, 0)
        } else {
            let b = b.min(64);
            let lo = 1u64 << (b - 1);
            let hi = if b == 64 { u64::MAX } else { (1u64 << b) - 1 };
            (lo, hi)
        }
    }

    /// Human label of bucket `b` (`"0"`, `"1"`, `"2-3"`, `"4-7"`, …).
    pub fn bucket_label(b: usize) -> String {
        let (lo, hi) = Self::bucket_bounds(b);
        if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}-{hi}")
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Aggregate of one span name: how many times it was entered and the
/// total seconds inside it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    pub count: u64,
    pub seconds: f64,
}

/// Everything a [`MemRecorder`] accumulated, in deterministic
/// (name-sorted) order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub spans: BTreeMap<String, SpanStat>,
    pub histograms: BTreeMap<String, Histogram>,
    pub meta: BTreeMap<String, String>,
}

/// The instrumentation trait. Implementations must be thread-safe: the
/// pipeline drives recording from its coordinating thread today, but
/// the contract allows worker threads to record directly.
pub trait Recorder: Sync {
    /// Whether recording has any effect. Instrumentation with per-item
    /// cost (loops) must check this before doing per-item work.
    fn enabled(&self) -> bool;
    /// Add `delta` to the named counter.
    fn add(&self, name: &Key, delta: u64);
    /// Record `n` observations of `value` into the named histogram.
    fn observe_n(&self, name: &Key, value: u64, n: u64);
    /// Record one observation into the named histogram.
    fn observe(&self, name: &Key, value: u64) {
        self.observe_n(name, value, 1);
    }
    /// Credit `seconds` to the named span (called by [`SpanGuard`]).
    fn record_span(&self, name: &Key, seconds: f64);
    /// Attach free-form metadata (backend names, kernel choices, …).
    fn set_meta(&self, name: &Key, value: &str);
}

/// The disabled recorder: every operation is a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn add(&self, _name: &Key, _delta: u64) {}
    fn observe_n(&self, _name: &Key, _value: u64, _n: u64) {}
    fn record_span(&self, _name: &Key, _seconds: f64) {}
    fn set_meta(&self, _name: &Key, _value: &str) {}
}

/// RAII span timer: reads the monotonic clock on enter and credits the
/// elapsed seconds on drop. Against a disabled recorder it never
/// touches the clock.
pub struct SpanGuard<'a> {
    active: Option<(&'a dyn Recorder, &'a Key, Instant)>,
}

impl<'a> SpanGuard<'a> {
    pub fn enter(recorder: &'a dyn Recorder, name: &'a Key) -> SpanGuard<'a> {
        SpanGuard {
            active: recorder.enabled().then(|| (recorder, name, Instant::now())),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((recorder, name, t0)) = self.active.take() {
            recorder.record_span(name, t0.elapsed().as_secs_f64());
        }
    }
}

impl std::fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field(
                "span",
                &self.active.as_ref().map(|(_, name, _)| name.as_str()),
            )
            .finish()
    }
}

/// An in-memory accumulating recorder.
#[derive(Debug, Default)]
pub struct MemRecorder {
    inner: Mutex<Snapshot>,
}

impl MemRecorder {
    pub fn new() -> MemRecorder {
        MemRecorder::default()
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.lock().expect("recorder poisoned").clone()
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &Key, delta: u64) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        *held(&mut inner.counters, name) += delta;
    }

    fn observe_n(&self, name: &Key, value: u64, n: u64) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        held(&mut inner.histograms, name).observe_n(value, n);
    }

    fn record_span(&self, name: &Key, seconds: f64) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let stat = held(&mut inner.spans, name);
        stat.count += 1;
        stat.seconds += seconds;
    }

    fn set_meta(&self, name: &Key, value: &str) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        // Overwritten in place: a held key's buffer is reused.
        let held = held(&mut inner.meta, name);
        held.clear();
        held.push_str(value);
    }
}

/// `map`'s entry for `name`, inserted at its default the first time the
/// key is seen: a key already held costs no allocation.
fn held<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &Key) -> &'m mut V {
    if !map.contains_key(name.as_str()) {
        map.insert(name.as_str().to_string(), V::default());
    }
    map.get_mut(name.as_str()).expect("inserted above")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for b in 0..=64 {
            let (lo, hi) = Histogram::bucket_bounds(b);
            assert_eq!(Histogram::bucket_of(lo), b, "lo of bucket {b}");
            assert_eq!(Histogram::bucket_of(hi), b, "hi of bucket {b}");
        }
    }

    #[test]
    fn histogram_accumulates() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 3, 700] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 705);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 700);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets.len(), 11);
        assert!((h.mean() - 141.0).abs() < 1e-12);
        let mut n = Histogram::default();
        for (v, times) in [(0, 1), (1, 2), (3, 1), (700, 1), (9, 0)] {
            n.observe_n(v, times);
        }
        assert_eq!(n, h);
    }

    #[test]
    fn bucket_labels() {
        assert_eq!(Histogram::bucket_label(0), "0");
        assert_eq!(Histogram::bucket_label(1), "1");
        assert_eq!(Histogram::bucket_label(2), "2-3");
        assert_eq!(Histogram::bucket_label(3), "4-7");
    }

    #[test]
    fn mem_recorder_accumulates() {
        let rec = MemRecorder::new();
        rec.add(keys::STEP2_PAIRS, 10);
        rec.add(keys::STEP2_PAIRS, 5);
        rec.observe(keys::STEP2_PAIRS_PER_KEY, 4);
        rec.observe(keys::STEP2_PAIRS_PER_KEY, 9);
        rec.record_span(keys::STEP1, 0.5);
        rec.record_span(keys::STEP1, 0.25);
        rec.set_meta(keys::BACKEND, "rasc");
        rec.set_meta(keys::BACKEND, "scalar"); // last write wins
        let snap = rec.snapshot();
        assert_eq!(snap.counters["step2.pairs"], 15);
        assert_eq!(snap.histograms["step2.pairs_per_key"].count, 2);
        let span = snap.spans["step1"];
        assert_eq!(span.count, 2);
        assert!((span.seconds - 0.75).abs() < 1e-12);
        assert_eq!(snap.meta["backend"], "scalar");
    }

    #[test]
    fn span_guard_times_enabled_recorder_only() {
        let rec = MemRecorder::new();
        {
            let _g = SpanGuard::enter(&rec, keys::STEP3);
        }
        assert_eq!(rec.snapshot().spans["step3"].count, 1);

        let null = NullRecorder;
        {
            let _g = SpanGuard::enter(&null, keys::STEP3);
        }
        // Nothing observable — NullRecorder discards everything.
        assert!(!null.enabled());
    }
}
