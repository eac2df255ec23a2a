//! In-memory spans around the calls into each layer.
//!
//! A span is opened where the benchmark calls into a layer and closed
//! when the call returns; spans opened in between are its children. The
//! counts read at that boundary (pairs, anchors, bytes) ride on the
//! span. Nothing is written until the run ends.
//!
//! Where the program reports how long a step inside one call took (the
//! public `profile` of a query), that duration becomes a child span
//! too, laid from the parent's start: its length is the program's own
//! number, only its position is synthesized — and self time, the only
//! thing computed from positions, does not depend on where inside the
//! parent a child sits.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The operation (search or query) this span belongs to.
    pub run: u32,
    /// The client that made the call (0 = the main thread).
    pub lane: u32,
    pub start_s: f64,
    pub end_s: f64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// A trace whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time a call into a layer. The closure gets the trace back to open
    /// child spans and attach counts.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        run: u32,
        f: impl FnOnce(&mut Trace) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            run,
            lane: 0,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
        (out, self.spans[id].duration())
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        let id = *self.open.last().expect("count outside any span");
        self.spans[id].counts.push((key, value));
    }

    /// A span that was timed elsewhere (a client thread timing its own
    /// queries, or a duration the program reported), `start_s` and
    /// `end_s` on this trace's clock. Returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: u32,
        lane: u32,
        start_s: f64,
        end_s: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            run,
            lane,
            start_s,
            end_s,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// The instant this trace's clock started.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Child spans of the innermost open span from durations the program
    /// reported, laid back to back from the parent's start.
    pub fn reported_children(&mut self, parts: &[(&'static str, f64)]) {
        let parent = *self.open.last().expect("children outside any span");
        let (run, lane, mut at) = {
            let p = &self.spans[parent];
            (p.run, p.lane, p.start_s)
        };
        for &(name, seconds) in parts {
            self.record(name, Some(parent), run, lane, at, at + seconds);
            at += seconds;
        }
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_s.max(span.start_s), s.end_s.min(span.end_s)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (mut covered, mut reach) = (0.0, span.start_s);
        for (a, b) in kids {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        span.duration() - covered
    }

    /// Self time of the spans called `name` that belong to `run`,
    /// summed.
    pub fn self_time_of(&self, name: &str, run: u32) -> f64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name && self.spans[id].run == run)
            .map(|id| self.self_time(id))
            .sum()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("workload", Json::str(workload)),
                    ("run", Json::Num(s.run as f64)),
                    ("lane", Json::Num(s.lane as f64)),
                    ("start_s", Json::Num(s.start_s)),
                    ("end_s", Json::Num(s.end_s)),
                    ("self_s", Json::Num(self.self_time(id))),
                    (
                        "counts",
                        Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::Num(v)))),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name: "x",
            parent,
            run: 0,
            lane: 0,
            start_s,
            end_s,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let mut t = Trace::new(Instant::now());
        t.spans = vec![
            span(None, 0.0, 10.0),
            span(Some(0), 1.0, 4.0),
            // Overlaps the first child: [3, 6) adds only [4, 6).
            span(Some(0), 3.0, 6.0),
            // A grandchild is not subtracted from the root twice.
            span(Some(1), 1.5, 2.0),
            // Runs past the parent's end: clipped to [9, 10).
            span(Some(0), 9.0, 12.0),
        ];
        assert!((t.self_time(0) - (10.0 - 5.0 - 1.0)).abs() < 1e-12);
        assert!((t.self_time(1) - 2.5).abs() < 1e-12);
        assert!((t.self_time(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nested_calls_record_parents_counts_and_reported_children() {
        let mut t = Trace::new(Instant::now());
        let (value, outer_s) = t.span("outer", 7, |t| {
            t.count("pairs", 42.0);
            t.span("inner", 7, |_| std::hint::black_box(1 + 1));
            t.reported_children(&[("step2", 0.25), ("step3", 0.5)]);
            5
        });
        assert_eq!(value, 5);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].name, s[0].parent, s[0].run, s[0].lane),
            ("outer", None, 7, 0)
        );
        assert_eq!(s[0].counts, vec![("pairs", 42.0)]);
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[3].name, s[3].parent), ("step3", Some(0)));
        assert!((s[3].start_s - s[2].end_s).abs() < 1e-12);
        assert!((s[3].duration() - 0.5).abs() < 1e-12);
        assert!(outer_s >= s[1].duration());
        assert!((t.self_time_of("step2", 7) - 0.25).abs() < 1e-12);
        assert_eq!(t.self_time_of("step2", 8), 0.0);
    }

    #[test]
    fn spans_timed_elsewhere_keep_their_lane_and_times() {
        let mut t = Trace::new(Instant::now());
        let id = t.record("engine.query", None, 12, 2, 0.5, 0.75);
        let s = &t.spans()[id];
        assert_eq!((s.run, s.lane, s.duration()), (12, 2, 0.25)); // exact in binary
        let json = t.to_json("w", 9).compact();
        assert!(json.contains(r#""name":"engine.query","workload":"w","run":12,"lane":2"#));
    }
}
