//! An enabled recorder allocates for a key the first time it sees the
//! key, never again (a meta value no longer than the one it replaces
//! reuses its buffer): the step-2 telemetry calls `observe` once per
//! active key, so an allocation per call grows with the query.
//!
//! This target holds one test, so nothing else allocates while it
//! counts.

use psc_telemetry::{keys, MemRecorder, Recorder};

#[global_allocator]
static COUNTING: psc_alloc_count::Counting = psc_alloc_count::Counting;

#[test]
fn a_held_key_costs_no_allocation() {
    let rec = MemRecorder::new();
    let calls: [(&str, &dyn Fn()); 5] = [
        ("add", &|| rec.add(keys::STEP2_PAIRS, 3)),
        ("observe", &|| rec.observe(keys::STEP2_PAIRS_PER_KEY, 700)),
        ("observe_n", &|| rec.observe_n(keys::STEP2_LANE_FILL, 62, 5)),
        ("record_span", &|| rec.record_span(keys::STEP3, 0.25)),
        ("set_meta", &|| rec.set_meta(keys::BACKEND, "rasc")),
    ];
    for (name, call) in calls {
        call();
        let before = psc_alloc_count::allocations();
        call();
        let made = psc_alloc_count::allocations() - before;
        assert_eq!(made, 0, "a second `{name}` on a held key allocated");
    }
    let snap = rec.snapshot();
    assert_eq!(snap.counters["step2.pairs"], 6);
    assert_eq!(snap.histograms["step2.pairs_per_key"].count, 2);
    assert_eq!(snap.histograms["step2.lane_fill"].count, 10);
    assert_eq!(snap.spans["step3"].count, 2);
    assert_eq!(snap.spans["step3"].seconds, 0.5);
    assert_eq!(snap.meta["backend"], "rasc");
}
