//! Flight recorder: timestamped span/instant events on per-worker
//! lanes, exported as Chrome-trace ("Trace Event Format") JSON that
//! Perfetto and `chrome://tracing` load directly.
//!
//! # Recording model
//!
//! The pipeline's workers race on atomic pull counters, so raw
//! first-come event logs can never be deterministic. Instead, recording
//! is *unit-deferred*: each logical unit of work (a step-2 work item, a
//! step-3 shard, a board entry) is described by one [`UnitTrace`] — its
//! phases and instant marks — built from locally owned measurements and
//! committed to the tracer off the hot loop.
//! [`RingTracer::finish`] then lays the units onto lanes:
//!
//! * **pinned** units (wall clock, board timeline) carry an absolute
//!   start offset and a lane hint (worker / FPGA index), so wall traces
//!   show the real measured timeline of this run;
//! * **scheduled** units (virtual clock) are replayed in unit-index
//!   order through the same greedy earliest-idle model as
//!   `shard_critical_path`, over a fixed [`VIRTUAL_LANES`]-wide lane
//!   set with tick durations derived from deterministic work counts —
//!   so a virtual trace is byte-identical across thread counts.
//!
//! Units are buffered in bounded per-stage ring buffers; overflow drops
//! the *oldest* units and counts them in `trace.dropped`.
//!
//! Like [`crate::recorder::Recorder`], the whole surface is no-op
//! gated: with [`NullTracer`] (or a disabled tracer) callers must take
//! no timestamps and allocate nothing. Kernel modules never see it:
//! `align` and `rasc` do not depend on this crate, and step 2 returns
//! its unit timings by value for the pipeline to commit.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::keys::Key;

/// Units a stage's ring buffer holds before dropping the oldest.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Lane count of the modeled timeline under the virtual clock. Fixed —
/// not the real worker count — so virtual traces are byte-identical no
/// matter how many OS threads actually ran.
pub const VIRTUAL_LANES: usize = 4;

/// Microseconds per weight unit under the virtual clock. Integral so
/// virtual timestamps stay exact in `f64` and format deterministically.
pub const VIRTUAL_TICK_US: f64 = 1.0;

/// Which clock stamps the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceClock {
    /// Measured wall durations and real start offsets (epoch = tracer
    /// creation). Timelines are real but run-to-run noisy.
    #[default]
    Wall,
    /// Modeled ticks from deterministic work counts, replayed onto
    /// [`VIRTUAL_LANES`] lanes. Byte-deterministic across runs and
    /// thread counts.
    Virtual,
}

impl TraceClock {
    pub fn name(&self) -> &'static str {
        match self {
            TraceClock::Wall => "wall",
            TraceClock::Virtual => "virtual",
        }
    }

    /// Parse a `--trace-clock` value.
    pub fn from_name(name: &str) -> Option<TraceClock> {
        match name {
            "wall" => Some(TraceClock::Wall),
            "virtual" => Some(TraceClock::Virtual),
            _ => None,
        }
    }
}

/// One phase or mark inside a [`UnitTrace`], in unit-local order.
#[derive(Clone, Debug, PartialEq)]
pub enum UnitEvent {
    /// A timed phase. `seconds` is the measured wall duration (ignored
    /// under the virtual clock); `weight` is a deterministic work count
    /// that becomes the phase's tick duration under the virtual clock
    /// (ignored under wall).
    Span {
        name: Key,
        seconds: f64,
        weight: u64,
    },
    /// An instant event (queue-depth sample, hit count) attached at
    /// the unit's current position, carrying one value.
    Mark { name: Key, value: u64 },
}

impl UnitEvent {
    pub fn span(name: &Key, seconds: f64, weight: u64) -> UnitEvent {
        UnitEvent::Span {
            name: name.clone(),
            seconds,
            weight,
        }
    }

    pub fn mark(name: &Key, value: u64) -> UnitEvent {
        UnitEvent::Mark {
            name: name.clone(),
            value,
        }
    }
}

/// The deferred trace of one logical unit of work.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitTrace {
    /// Lane group: `step2`, `step3`, `step3.merge`, `board.dma`,
    /// `board.compute`, `board.link` (the `STAGE_*` keys).
    pub stage: &'static Key,
    /// Deterministic issue order within the stage — the replay order of
    /// scheduled units.
    pub index: u64,
    /// Lane hint (worker or FPGA index) for pinned units.
    pub lane: u32,
    /// Absolute start, seconds since the trace epoch. `Some` pins the
    /// unit to a lane and a time; `None` schedules it by greedy replay.
    pub start_seconds: Option<f64>,
    /// Board lanes run on the simulated device clock, not host wall
    /// time; they render as a separate trace process.
    pub sim_clock: bool,
    pub events: Vec<UnitEvent>,
}

/// The flight-recorder sink the pipeline records into.
///
/// Mirrors [`crate::recorder::Recorder`]'s discipline: check
/// [`Tracer::enabled`] before measuring anything, commit whole units
/// off the hot loop, and never call any of this from inside a kernel
/// loop (the kernel crates have no edge to this one, and a core test
/// keeps `step2.rs` from naming it).
pub trait Tracer: Sync {
    /// `false` must make every call site skip its measurements.
    fn enabled(&self) -> bool;

    fn clock(&self) -> TraceClock;

    /// Seconds elapsed since the tracer's epoch (0 when disabled or
    /// virtual) — call sites pin unit starts against this.
    fn epoch_seconds(&self) -> f64;

    /// File one finished unit. Thread-safe; bounded sinks may drop the
    /// oldest unit of the stage.
    fn commit(&self, unit: UnitTrace);
}

/// The no-op tracer: everything disabled, nothing recorded.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn clock(&self) -> TraceClock {
        TraceClock::Wall
    }

    fn epoch_seconds(&self) -> f64 {
        0.0
    }

    fn commit(&self, _unit: UnitTrace) {}
}

/// One stage's bounded unit buffer.
#[derive(Debug, Default)]
struct StageRing {
    units: VecDeque<UnitTrace>,
    dropped: u64,
}

/// The in-memory flight recorder: per-stage bounded rings behind one
/// mutex, taken only at unit commit — never inside a kernel loop.
#[derive(Debug)]
pub struct RingTracer {
    clock: TraceClock,
    capacity: usize,
    epoch: Instant,
    stages: Mutex<BTreeMap<String, StageRing>>,
}

impl RingTracer {
    pub fn new(clock: TraceClock) -> RingTracer {
        RingTracer::with_capacity(clock, DEFAULT_TRACE_CAPACITY)
    }

    /// `capacity` units are kept per stage; older units drop first.
    pub fn with_capacity(clock: TraceClock, capacity: usize) -> RingTracer {
        RingTracer {
            clock,
            capacity: capacity.max(1),
            epoch: Instant::now(),
            stages: Mutex::new(BTreeMap::new()),
        }
    }

    /// Total units dropped to ring overflow so far (`trace.dropped`).
    pub fn dropped(&self) -> u64 {
        let stages = self.stages.lock().expect("tracer poisoned");
        stages.values().map(|r| r.dropped).sum()
    }

    /// Lay every committed unit onto lanes and return the finished
    /// trace. `meta` rides along into the export's `otherData`.
    pub fn finish(&self, meta: &[(String, String)]) -> Trace {
        let stages = self.stages.lock().expect("tracer poisoned");
        let mut trace = Trace {
            clock: self.clock,
            dropped: stages.values().map(|r| r.dropped).sum(),
            meta: meta.to_vec(),
            lanes: Vec::new(),
        };
        for (stage, ring) in stages.iter() {
            let units: Vec<UnitTrace> = ring.units.iter().cloned().collect();
            build_stage_lanes(stage, &units, &mut trace.lanes);
        }
        trace
            .lanes
            .sort_by(|a, b| (a.sim_clock, &a.name).cmp(&(b.sim_clock, &b.name)));
        trace
    }
}

impl Tracer for RingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn clock(&self) -> TraceClock {
        self.clock
    }

    fn epoch_seconds(&self) -> f64 {
        match self.clock {
            TraceClock::Wall => self.epoch.elapsed().as_secs_f64(),
            TraceClock::Virtual => 0.0,
        }
    }

    fn commit(&self, unit: UnitTrace) {
        let mut stages = self.stages.lock().expect("tracer poisoned");
        let ring = stages.entry(unit.stage.as_str().to_string()).or_default();
        if ring.units.len() >= self.capacity {
            ring.units.pop_front();
            ring.dropped += 1;
        }
        ring.units.push_back(unit);
    }
}

// ---- finished trace ------------------------------------------------

/// A begin/end span on one lane, microseconds since the trace epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
}

impl SpanEvent {
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// An instant event on one lane.
#[derive(Clone, Debug, PartialEq)]
pub struct InstantEvent {
    pub name: String,
    pub at_us: f64,
    pub value: u64,
}

/// One timeline row: a worker or an FPGA engine.
#[derive(Clone, Debug, PartialEq)]
pub struct Lane {
    /// `"step2.w0"`, `"board.compute.fpga1"`, `"board.link"`, …
    pub name: String,
    /// The lane-group the name was derived from (see [`stage_of`]).
    pub stage: String,
    /// Simulated device clock (board lanes) vs host clock.
    pub sim_clock: bool,
    /// Sorted by start; non-overlapping within a lane.
    pub spans: Vec<SpanEvent>,
    pub instants: Vec<InstantEvent>,
}

/// A finished, lane-resolved trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    pub clock: TraceClock,
    /// Units lost to ring overflow (the `trace.dropped` counter).
    pub dropped: u64,
    pub meta: Vec<(String, String)>,
    /// Sorted by `(sim_clock, name)`.
    pub lanes: Vec<Lane>,
}

/// Strip a `.w<N>` / `.fpga<N>` lane suffix back to the stage name.
pub fn stage_of(lane: &str) -> &str {
    for marker in [".w", ".fpga"] {
        if let Some(pos) = lane.rfind(marker) {
            let digits = &lane[pos + marker.len()..];
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                return &lane[..pos];
            }
        }
    }
    lane
}

/// Lane name for `(stage, lane_index)`; single-lane stages keep the
/// bare stage name, board stages name their FPGA.
fn lane_label(stage: &str, lane: u32, multi: bool) -> String {
    if stage.starts_with("board.") && stage != "board.link" {
        format!("{stage}.fpga{lane}")
    } else if multi {
        format!("{stage}.w{lane}")
    } else {
        stage.to_string()
    }
}

/// Lay one stage's units onto lanes: pinned units go where their hint
/// and start say; scheduled units replay greedily onto a fixed-width
/// virtual lane set.
fn build_stage_lanes(stage: &str, units: &[UnitTrace], lanes: &mut Vec<Lane>) {
    let mut pinned: Vec<&UnitTrace> = units.iter().filter(|u| u.start_seconds.is_some()).collect();
    pinned.sort_by(|a, b| {
        let ka = (a.start_seconds.unwrap_or(0.0), a.index);
        let kb = (b.start_seconds.unwrap_or(0.0), b.index);
        ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1))
    });
    let mut scheduled: Vec<&UnitTrace> =
        units.iter().filter(|u| u.start_seconds.is_none()).collect();
    scheduled.sort_by_key(|u| u.index);

    // (lane index) -> events, BTreeMap so lane emission order is stable.
    let mut by_lane: BTreeMap<u32, (Vec<SpanEvent>, Vec<InstantEvent>, bool)> = BTreeMap::new();
    for u in &pinned {
        let entry = by_lane.entry(u.lane).or_default();
        entry.2 |= u.sim_clock;
        let mut cursor = u.start_seconds.unwrap_or(0.0) * 1.0e6;
        lay_unit_events(u, &mut cursor, |s| s.seconds * 1.0e6, entry);
    }
    if !scheduled.is_empty() {
        // Greedy earliest-idle replay, the discipline of the pipeline's
        // `shard_critical_path`: each unit starts on the lane that goes
        // idle first (ties: the last minimal lane, matching that
        // model's fold).
        let lane_count = VIRTUAL_LANES.min(scheduled.len()).max(1);
        let mut lane_end = vec![0.0f64; lane_count];
        for u in &scheduled {
            let idlest = (0..lane_count)
                .min_by(|&a, &b| lane_end[a].total_cmp(&lane_end[b]))
                .expect("at least one lane");
            let entry = by_lane.entry(idlest as u32).or_default();
            entry.2 |= u.sim_clock;
            let mut cursor = lane_end[idlest];
            lay_unit_events(u, &mut cursor, virtual_span_us, entry);
            lane_end[idlest] = cursor;
        }
    }

    let multi = by_lane.len() > 1;
    for (lane, (mut spans, instants, sim_clock)) in by_lane {
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        lanes.push(Lane {
            name: lane_label(stage, lane, multi),
            stage: stage.to_string(),
            sim_clock,
            spans,
            instants,
        });
    }
}

/// Tick duration of one span under the virtual clock.
fn virtual_span_us(span: &SpanSource<'_>) -> f64 {
    span.weight.max(1) as f64 * VIRTUAL_TICK_US
}

/// Borrowed view of a [`UnitEvent::Span`] for the duration closures.
struct SpanSource<'a> {
    seconds: f64,
    weight: u64,
    _name: &'a str,
}

fn lay_unit_events(
    unit: &UnitTrace,
    cursor: &mut f64,
    dur_us: impl Fn(&SpanSource<'_>) -> f64,
    out: &mut (Vec<SpanEvent>, Vec<InstantEvent>, bool),
) {
    for ev in &unit.events {
        match ev {
            UnitEvent::Span {
                name,
                seconds,
                weight,
            } => {
                let d = dur_us(&SpanSource {
                    seconds: *seconds,
                    weight: *weight,
                    _name: name.as_str(),
                })
                .max(0.0);
                out.0.push(SpanEvent {
                    name: name.as_str().to_string(),
                    start_us: *cursor,
                    dur_us: d,
                });
                *cursor += d;
            }
            UnitEvent::Mark { name, value } => {
                out.1.push(InstantEvent {
                    name: name.as_str().to_string(),
                    at_us: *cursor,
                    value: *value,
                });
            }
        }
    }
}

// ---- Chrome-trace JSON ---------------------------------------------

/// Trace process id of host lanes in the export.
const HOST_PID: u64 = 1;
/// Trace process id of simulated-board lanes.
const BOARD_PID: u64 = 2;

impl Trace {
    /// Latest span end among host-clock lanes, microseconds.
    pub fn host_makespan_us(&self) -> f64 {
        self.makespan_us(false)
    }

    /// Latest span end among simulated-board lanes, microseconds.
    pub fn board_makespan_us(&self) -> f64 {
        self.makespan_us(true)
    }

    fn makespan_us(&self, sim: bool) -> f64 {
        self.lanes
            .iter()
            .filter(|l| l.sim_clock == sim)
            .flat_map(|l| l.spans.iter())
            .fold(0.0f64, |acc, s| acc.max(s.end_us()))
    }

    /// Serialize to Chrome-trace ("Trace Event Format") JSON. Host
    /// lanes are threads of process 1, board lanes (simulated device
    /// clock) of process 2; spans are `"X"` complete events, instants
    /// `"i"` events.
    pub fn to_chrome_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        let meta_event = |pid: u64, tid: u64, name: &str, value: &str| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("ph".into(), Json::Str("M".into())),
                ("pid".into(), Json::Num(pid as f64)),
                ("tid".into(), Json::Num(tid as f64)),
                (
                    "args".into(),
                    Json::Obj(vec![("name".into(), Json::Str(value.into()))]),
                ),
            ])
        };
        events.push(meta_event(HOST_PID, 0, "process_name", "host"));
        if self.lanes.iter().any(|l| l.sim_clock) {
            events.push(meta_event(
                BOARD_PID,
                0,
                "process_name",
                "rasc-board (simulated clock)",
            ));
        }
        let mut tids: BTreeMap<u64, u64> = BTreeMap::new();
        for lane in &self.lanes {
            let pid = if lane.sim_clock { BOARD_PID } else { HOST_PID };
            let tid = {
                let next = tids.entry(pid).or_insert(0);
                let t = *next;
                *next += 1;
                t
            };
            events.push(meta_event(pid, tid, "thread_name", &lane.name));
            for s in &lane.spans {
                events.push(Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("ph".into(), Json::Str("X".into())),
                    ("pid".into(), Json::Num(pid as f64)),
                    ("tid".into(), Json::Num(tid as f64)),
                    ("ts".into(), Json::Num(s.start_us)),
                    ("dur".into(), Json::Num(s.dur_us)),
                ]));
            }
            for i in &lane.instants {
                events.push(Json::Obj(vec![
                    ("name".into(), Json::Str(i.name.clone())),
                    ("ph".into(), Json::Str("i".into())),
                    ("pid".into(), Json::Num(pid as f64)),
                    ("tid".into(), Json::Num(tid as f64)),
                    ("ts".into(), Json::Num(i.at_us)),
                    ("s".into(), Json::Str("t".into())),
                    (
                        "args".into(),
                        Json::Obj(vec![("value".into(), Json::Num(i.value as f64))]),
                    ),
                ]));
            }
        }
        let mut other: Vec<(String, Json)> = vec![
            ("schema".into(), Json::Str("psc-trace-1".into())),
            ("clock".into(), Json::Str(self.clock.name().into())),
            ("dropped".into(), Json::Num(self.dropped as f64)),
        ];
        for (k, v) in &self.meta {
            other.push((k.clone(), Json::Str(v.clone())));
        }
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("otherData".into(), Json::Obj(other)),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }

    pub fn to_chrome_string(&self) -> String {
        self.to_chrome_json().to_string_pretty()
    }

    /// Read a Chrome-trace JSON document back (the inverse of
    /// [`Trace::to_chrome_json`], tolerant of foreign generators: lanes
    /// without a `thread_name` metadata event get a synthetic name).
    pub fn from_chrome_str(text: &str) -> Result<Trace, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let other = json.get("otherData");
        let clock = other
            .and_then(|o| o.get("clock"))
            .and_then(Json::as_str)
            .and_then(TraceClock::from_name)
            .unwrap_or(TraceClock::Wall);
        let dropped = other
            .and_then(|o| o.get("dropped"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let mut meta: Vec<(String, String)> = Vec::new();
        if let Some(Json::Obj(members)) = other {
            for (k, v) in members {
                if matches!(k.as_str(), "schema" | "clock" | "dropped") {
                    continue;
                }
                if let Some(s) = v.as_str() {
                    meta.push((k.clone(), s.to_string()));
                }
            }
        }
        let events = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("traceEvents must be an array")?;

        let mut names: BTreeMap<(u64, u64), String> = BTreeMap::new();
        #[allow(clippy::type_complexity)]
        let mut rows: BTreeMap<(u64, u64), (Vec<SpanEvent>, Vec<InstantEvent>)> = BTreeMap::new();
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
            let pid = ev.get("pid").and_then(Json::as_u64).unwrap_or(HOST_PID);
            let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
            let name = ev
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            match ph {
                "M" if name == "thread_name" => {
                    if let Some(n) = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                    {
                        names.insert((pid, tid), n.to_string());
                    }
                }
                "X" => {
                    let ts = ev
                        .get("ts")
                        .and_then(Json::as_f64)
                        .ok_or("X event missing ts")?;
                    let dur = ev.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
                    rows.entry((pid, tid)).or_default().0.push(SpanEvent {
                        name,
                        start_us: ts,
                        dur_us: dur,
                    });
                }
                "i" | "I" => {
                    let ts = ev
                        .get("ts")
                        .and_then(Json::as_f64)
                        .ok_or("instant event missing ts")?;
                    let value = ev
                        .get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    rows.entry((pid, tid)).or_default().1.push(InstantEvent {
                        name,
                        at_us: ts,
                        value,
                    });
                }
                _ => {}
            }
        }
        let mut lanes: Vec<Lane> = Vec::new();
        for ((pid, tid), (mut spans, instants)) in rows {
            spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            let name = names
                .get(&(pid, tid))
                .cloned()
                .unwrap_or_else(|| format!("lane.{pid}.{tid}"));
            lanes.push(Lane {
                stage: stage_of(&name).to_string(),
                sim_clock: pid == BOARD_PID,
                name,
                spans,
                instants,
            });
        }
        lanes.sort_by(|a, b| (a.sim_clock, &a.name).cmp(&(b.sim_clock, &b.name)));
        Ok(Trace {
            clock,
            dropped,
            meta,
            lanes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{self, Key};

    fn unit(stage: &'static Key, index: u64, events: Vec<UnitEvent>) -> UnitTrace {
        UnitTrace {
            stage,
            index,
            lane: 0,
            start_seconds: None,
            sim_clock: false,
            events,
        }
    }

    #[test]
    fn null_tracer_is_disabled() {
        let t = NullTracer;
        assert!(!t.enabled());
        assert_eq!(t.epoch_seconds(), 0.0);
        t.commit(unit(keys::STAGE_STEP2, 0, vec![]));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let t = RingTracer::with_capacity(TraceClock::Virtual, 3);
        for i in 0..5u64 {
            t.commit(unit(
                keys::STAGE_STEP2,
                i,
                vec![UnitEvent::span(&Key::test("kernel"), 0.0, 1)],
            ));
        }
        assert_eq!(t.dropped(), 2);
        let trace = t.finish(&[]);
        assert_eq!(trace.dropped, 2);
        // Units 0 and 1 dropped; three spans survive.
        let spans: usize = trace.lanes.iter().map(|l| l.spans.len()).sum();
        assert_eq!(spans, 3);
    }

    #[test]
    fn virtual_replay_is_deterministic_and_lane_bounded() {
        let build = || {
            let t = RingTracer::new(TraceClock::Virtual);
            // Commit out of order — replay must sort by index.
            for i in [3u64, 0, 4, 1, 2, 5] {
                t.commit(unit(
                    keys::STAGE_STEP2,
                    i,
                    vec![UnitEvent::span(&Key::test("kernel"), 123.456, (i + 1) * 10)],
                ));
            }
            t.finish(&[("backend".into(), "software".into())])
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.to_chrome_string(), b.to_chrome_string());
        assert_eq!(a.lanes.len(), VIRTUAL_LANES.min(6));
        for lane in &a.lanes {
            assert_eq!(lane.stage, "step2");
            assert!(lane.name.starts_with("step2.w"), "{}", lane.name);
            // Monotonic, non-overlapping spans.
            let mut cursor = -1.0;
            for s in &lane.spans {
                assert!(s.start_us >= cursor, "{lane:?}");
                cursor = s.end_us();
            }
        }
        // Virtual durations come from weights, not measured seconds.
        let total: f64 = a
            .lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .map(|s| s.dur_us)
            .sum();
        let want: u64 = (1..=6).map(|i| i * 10).sum();
        assert_eq!(total, want as f64 * VIRTUAL_TICK_US);
    }

    #[test]
    fn pinned_units_keep_lane_and_offset() {
        let t = RingTracer::new(TraceClock::Wall);
        for (i, lane, at) in [(0u64, 0u32, 0.10f64), (1, 1, 0.05), (2, 0, 0.30)] {
            t.commit(UnitTrace {
                stage: keys::STAGE_STEP3,
                index: i,
                lane,
                start_seconds: Some(at),
                sim_clock: false,
                events: vec![UnitEvent::span(keys::EV_EXTEND, 0.01, 0)],
            });
        }
        let trace = t.finish(&[]);
        assert_eq!(trace.lanes.len(), 2);
        assert_eq!(trace.lanes[0].name, "step3.w0");
        assert_eq!(trace.lanes[1].name, "step3.w1");
        let w0 = &trace.lanes[0].spans;
        assert_eq!(w0.len(), 2);
        assert!((w0[0].start_us - 0.10e6).abs() < 1e-6);
        assert!((w0[1].start_us - 0.30e6).abs() < 1e-6);
        assert!((w0[0].dur_us - 0.01e6).abs() < 1e-6);
    }

    #[test]
    fn single_lane_stage_keeps_bare_name_and_board_names_fpga() {
        let t = RingTracer::new(TraceClock::Wall);
        t.commit(UnitTrace {
            stage: keys::STAGE_STEP3_MERGE,
            index: 0,
            lane: 0,
            start_seconds: Some(1.0),
            sim_clock: false,
            events: vec![UnitEvent::span(keys::EV_MERGE_WAIT, 0.5, 0)],
        });
        t.commit(UnitTrace {
            stage: keys::STAGE_BOARD_COMPUTE,
            index: 0,
            lane: 1,
            start_seconds: Some(0.0),
            sim_clock: true,
            events: vec![
                UnitEvent::span(keys::EV_COMPUTE, 0.25, 0),
                UnitEvent::mark(keys::EV_HITS, 2),
            ],
        });
        let trace = t.finish(&[]);
        let names: Vec<&str> = trace.lanes.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["step3.merge", "board.compute.fpga1"]);
        assert!(trace.lanes[1].sim_clock);
        assert_eq!(trace.lanes[1].instants[0].value, 2);
        // The mark lands at the unit's current cursor — after compute.
        assert!((trace.lanes[1].instants[0].at_us - 0.25e6).abs() < 1e-6);
    }

    #[test]
    fn stage_of_strips_lane_suffixes() {
        assert_eq!(stage_of("step2.w13"), "step2");
        assert_eq!(stage_of("board.compute.fpga0"), "board.compute");
        assert_eq!(stage_of("step3.merge"), "step3.merge");
        assert_eq!(stage_of("board.link"), "board.link");
        assert_eq!(stage_of("weird.wx"), "weird.wx");
    }

    #[test]
    fn chrome_round_trip() {
        let t = RingTracer::new(TraceClock::Virtual);
        for i in 0..3u64 {
            t.commit(unit(
                keys::STAGE_STEP2,
                i,
                vec![
                    UnitEvent::span(&Key::test("kernel"), 0.0, 7),
                    UnitEvent::mark(&Key::test("depth"), i),
                ],
            ));
        }
        t.commit(UnitTrace {
            stage: keys::STAGE_BOARD_DMA,
            index: 0,
            lane: 0,
            start_seconds: Some(0.002),
            sim_clock: true,
            events: vec![UnitEvent::span(keys::EV_DMA_IN, 0.001, 0)],
        });
        let trace = t.finish(&[("backend".into(), "rasc".into())]);
        let text = trace.to_chrome_string();
        let back = Trace::from_chrome_str(&text).expect("parse back");
        assert_eq!(trace, back);
        assert_eq!(text, back.to_chrome_string());
        // Chrome shape essentials.
        let json = Json::parse(&text).unwrap();
        assert!(json.get("traceEvents").and_then(Json::as_arr).is_some());
        assert_eq!(
            json.get("otherData")
                .and_then(|o| o.get("clock"))
                .and_then(Json::as_str),
            Some("virtual")
        );
        assert_eq!(
            json.get("otherData")
                .and_then(|o| o.get("backend"))
                .and_then(Json::as_str),
            Some("rasc")
        );
    }

    #[test]
    fn makespans_split_by_clock_domain() {
        let t = RingTracer::new(TraceClock::Wall);
        t.commit(UnitTrace {
            stage: keys::STAGE_STEP2,
            index: 0,
            lane: 0,
            start_seconds: Some(0.0),
            sim_clock: false,
            events: vec![UnitEvent::span(&Key::test("kernel"), 1.0, 0)],
        });
        t.commit(UnitTrace {
            stage: keys::STAGE_BOARD_COMPUTE,
            index: 0,
            lane: 0,
            start_seconds: Some(0.0),
            sim_clock: true,
            events: vec![UnitEvent::span(keys::EV_COMPUTE, 2.0, 0)],
        });
        let trace = t.finish(&[]);
        assert!((trace.host_makespan_us() - 1.0e6).abs() < 1e-3);
        assert!((trace.board_makespan_us() - 2.0e6).abs() < 1e-3);
    }
}
