//! The durable run report: everything a pipeline run produced, with a
//! versioned JSON schema so reports stay diffable across PRs.
//!
//! Mapping to the paper:
//!
//! * [`RunReport::steps`] — the per-step seconds behind Tables 1 and 7
//!   (software wall time, with simulated accelerator seconds where a
//!   RASC backend ran);
//! * [`BoardTelemetry`] — the per-FPGA cycle/stall/utilization and DMA
//!   accounting behind Tables 3–5 and the §4.1 backpressure discussion;
//! * histograms — the per-key pair-count distribution whose skew
//!   controls PE-array load balance.

use crate::json::{Json, JsonError};
use crate::recorder::{Histogram, Snapshot};

/// Version written to every report, and the only one read. v2 reports
/// written while the simulated board modelled faults also carry a
/// board `faults` object, which readers skip, and `step2.fault*`
/// counters, which read as any other counter.
pub const SCHEMA_VERSION: u64 = 2;

/// One pipeline step's timing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepReport {
    /// `"step1"`, `"step2"`, `"step3"`.
    pub name: String,
    /// Host wall seconds (for accelerated steps: the simulation's wall
    /// cost, excluded from paper-style totals).
    pub wall_seconds: f64,
    /// Simulated accelerator seconds, when the step ran on a RASC
    /// backend.
    pub accelerated_seconds: Option<f64>,
}

impl StepReport {
    /// Effective cost under the paper's accounting: accelerated time
    /// when an accelerator ran, wall time otherwise.
    pub fn effective_seconds(&self) -> f64 {
        self.accelerated_seconds.unwrap_or(self.wall_seconds)
    }
}

/// One named span aggregate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanReport {
    pub name: String,
    pub seconds: f64,
    pub count: u64,
}

/// Per-FPGA accounting from the simulated board.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FpgaTelemetry {
    pub cycles: u64,
    /// Cycles lost to result-path backpressure (subset of `cycles`).
    pub stall_cycles: u64,
    pub busy_pe_cycles: u64,
    /// High-water occupancy of the cascaded result FIFOs.
    pub fifo_peak: u64,
    /// `busy_pe_cycles / (cycles × pe_count)`, precomputed so readers
    /// need no formula.
    pub utilization: f64,
}

/// Board-level accounting from the simulated RASC backend.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BoardTelemetry {
    pub pe_count: u64,
    pub fpga: Vec<FpgaTelemetry>,
    /// DMA byte counts and their pure wire time on NUMAlink.
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub wire_in_seconds: f64,
    pub wire_out_seconds: f64,
    /// Host synchronisation and one-time setup/dispatch overhead.
    pub sync_seconds: f64,
    pub setup_seconds: f64,
    /// Simulated wall time of the whole accelerated section.
    pub accelerated_seconds: f64,
    /// Seconds the slowest FPGA spent with DMA-in and compute busy at
    /// the same time (double-buffered entry dispatch). Zero in reports
    /// written before overlap accounting existed.
    pub overlap_seconds: f64,
    /// `overlap_seconds` over that FPGA's busy span (0..=1).
    pub overlap_occupancy: f64,
    pub entries: u64,
    pub hit_count: u64,
}

/// A complete, schema-versioned run report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    pub schema_version: u64,
    /// Free-form metadata: backend, kernel, seed model, bank sizes, …
    pub meta: Vec<(String, String)>,
    pub steps: Vec<StepReport>,
    pub counters: Vec<(String, u64)>,
    pub spans: Vec<SpanReport>,
    pub histograms: Vec<(String, Histogram)>,
    /// Present when step 2 ran on the simulated RASC board.
    pub board: Option<BoardTelemetry>,
}

impl RunReport {
    /// Start an empty current-version report.
    pub fn new() -> RunReport {
        RunReport {
            schema_version: SCHEMA_VERSION,
            ..RunReport::default()
        }
    }

    /// Fold a recorder snapshot into the generic sections.
    pub fn absorb_snapshot(&mut self, snap: &Snapshot) {
        for (k, v) in &snap.meta {
            self.meta.push((k.clone(), v.clone()));
        }
        for (k, v) in &snap.counters {
            self.counters.push((k.clone(), *v));
        }
        for (k, s) in &snap.spans {
            self.spans.push(SpanReport {
                name: k.clone(),
                seconds: s.seconds,
                count: s.count,
            });
        }
        for (k, h) in &snap.histograms {
            self.histograms.push((k.clone(), h.clone()));
        }
    }

    pub fn step(&self, name: &str) -> Option<&StepReport> {
        self.steps.iter().find(|s| s.name == name)
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    pub fn meta_value(&self, name: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// Zero every wall-clock-derived duration, leaving only data that
    /// is a pure function of the run's inputs: counters, histograms,
    /// metadata, and the *simulated* board/accelerator seconds (which
    /// are cycle-derived). Two runs of the same workload serialize to
    /// byte-identical JSON after stripping — the property the
    /// determinism suite asserts.
    pub fn strip_wall_clock(&mut self) {
        for s in &mut self.steps {
            s.wall_seconds = 0.0;
        }
        for s in &mut self.spans {
            s.seconds = 0.0;
        }
    }

    /// Remove everything that follows the configuration rather than
    /// the inputs: the keys under [`crate::keys::CONFIG_DEPENDENT`], the
    /// board section and the steps' accelerated seconds. After this and
    /// [`RunReport::strip_wall_clock`], two runs of the same inputs
    /// under any two output-neutral configurations serialize to
    /// byte-identical JSON.
    pub fn strip_config_dependent(&mut self) {
        let keep = |k: &str| {
            !crate::keys::CONFIG_DEPENDENT
                .iter()
                .any(|p| k.starts_with(p))
        };
        self.meta.retain(|(k, _)| keep(k));
        self.counters.retain(|(k, _)| keep(k));
        self.spans.retain(|s| keep(&s.name));
        self.histograms.retain(|(k, _)| keep(k));
        self.board = None;
        for s in &mut self.steps {
            s.accelerated_seconds = None;
        }
    }

    /// Total effective seconds across steps (the paper's accounting).
    pub fn total_seconds(&self) -> f64 {
        self.steps.iter().map(StepReport::effective_seconds).sum()
    }

    /// `(name, effective seconds, percent of total)` rows — the
    /// Table 1/7 breakdown.
    pub fn percentages(&self) -> Vec<(String, f64, f64)> {
        let total = self.total_seconds();
        self.steps
            .iter()
            .map(|s| {
                let secs = s.effective_seconds();
                let pct = if total > 0.0 {
                    secs / total * 100.0
                } else {
                    0.0
                };
                (s.name.clone(), secs, pct)
            })
            .collect()
    }

    // ---- JSON ------------------------------------------------------

    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            (
                "meta".into(),
                Json::Obj(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "steps".into(),
                Json::Arr(self.steps.iter().map(step_to_json).collect()),
            ),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "spans".into(),
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(s.name.clone())),
                                ("seconds".into(), Json::Num(s.seconds)),
                                ("count".into(), Json::Num(s.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|(name, h)| histogram_to_json(name, h))
                        .collect(),
                ),
            ),
        ];
        if let Some(board) = &self.board {
            members.push(("board".into(), board_to_json(board)));
        }
        Json::Obj(members)
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parse a report, enforcing the schema: a missing required field
    /// or an unsupported version is an error, not a default.
    pub fn parse(text: &str) -> Result<RunReport, String> {
        let json = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        RunReport::from_json(&json)
    }

    pub fn from_json(json: &Json) -> Result<RunReport, String> {
        let version = require(json, "schema_version")?
            .as_u64()
            .ok_or("schema_version must be a non-negative integer")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads v{SCHEMA_VERSION})"
            ));
        }
        let mut report = RunReport {
            schema_version: SCHEMA_VERSION,
            ..RunReport::default()
        };

        if let Json::Obj(members) = require(json, "meta")? {
            for (k, v) in members {
                report.meta.push((
                    k.clone(),
                    v.as_str().ok_or("meta values must be strings")?.to_string(),
                ));
            }
        } else {
            return Err("meta must be an object".into());
        }

        for s in require(json, "steps")?
            .as_arr()
            .ok_or("steps must be an array")?
        {
            report.steps.push(StepReport {
                name: str_field(s, "name")?,
                wall_seconds: num_field(s, "wall_seconds")?,
                accelerated_seconds: match s.get("accelerated_seconds") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_f64().ok_or("accelerated_seconds must be a number")?),
                },
            });
        }

        if let Json::Obj(members) = require(json, "counters")? {
            for (k, v) in members {
                report.counters.push((
                    k.clone(),
                    v.as_u64().ok_or("counters must be non-negative integers")?,
                ));
            }
        } else {
            return Err("counters must be an object".into());
        }

        for s in require(json, "spans")?
            .as_arr()
            .ok_or("spans must be an array")?
        {
            report.spans.push(SpanReport {
                name: str_field(s, "name")?,
                seconds: num_field(s, "seconds")?,
                count: u64_field(s, "count")?,
            });
        }

        for h in require(json, "histograms")?
            .as_arr()
            .ok_or("histograms must be an array")?
        {
            report
                .histograms
                .push((str_field(h, "name")?, histogram_from_json(h)?));
        }

        if let Some(board) = json.get("board") {
            report.board = Some(board_from_json(board)?);
        }
        Ok(report)
    }
}

fn require<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing required field {key:?}"))
}

fn str_field(json: &Json, key: &str) -> Result<String, String> {
    require(json, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key} must be a string"))
}

fn num_field(json: &Json, key: &str) -> Result<f64, String> {
    require(json, key)?
        .as_f64()
        .ok_or_else(|| format!("{key} must be a number"))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, String> {
    require(json, key)?
        .as_u64()
        .ok_or_else(|| format!("{key} must be a non-negative integer"))
}

fn step_to_json(s: &StepReport) -> Json {
    let mut members = vec![
        ("name".into(), Json::Str(s.name.clone())),
        ("wall_seconds".into(), Json::Num(s.wall_seconds)),
    ];
    if let Some(a) = s.accelerated_seconds {
        members.push(("accelerated_seconds".into(), Json::Num(a)));
    }
    Json::Obj(members)
}

fn histogram_to_json(name: &str, h: &Histogram) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.to_string())),
        ("count".into(), Json::Num(h.count as f64)),
        ("sum".into(), Json::Num(h.sum as f64)),
        ("min".into(), Json::Num(h.min as f64)),
        ("max".into(), Json::Num(h.max as f64)),
        (
            "log2_buckets".into(),
            Json::Arr(h.buckets.iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
    ])
}

fn histogram_from_json(json: &Json) -> Result<Histogram, String> {
    let mut buckets = Vec::new();
    for b in require(json, "log2_buckets")?
        .as_arr()
        .ok_or("log2_buckets must be an array")?
    {
        buckets.push(b.as_u64().ok_or("bucket counts must be integers")?);
    }
    Ok(Histogram {
        count: u64_field(json, "count")?,
        sum: u64_field(json, "sum")?,
        min: u64_field(json, "min")?,
        max: u64_field(json, "max")?,
        buckets,
    })
}

fn board_to_json(b: &BoardTelemetry) -> Json {
    Json::Obj(vec![
        ("pe_count".into(), Json::Num(b.pe_count as f64)),
        (
            "fpga".into(),
            Json::Arr(
                b.fpga
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("cycles".into(), Json::Num(f.cycles as f64)),
                            ("stall_cycles".into(), Json::Num(f.stall_cycles as f64)),
                            ("busy_pe_cycles".into(), Json::Num(f.busy_pe_cycles as f64)),
                            ("fifo_peak".into(), Json::Num(f.fifo_peak as f64)),
                            ("utilization".into(), Json::Num(f.utilization)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("bytes_in".into(), Json::Num(b.bytes_in as f64)),
        ("bytes_out".into(), Json::Num(b.bytes_out as f64)),
        ("wire_in_seconds".into(), Json::Num(b.wire_in_seconds)),
        ("wire_out_seconds".into(), Json::Num(b.wire_out_seconds)),
        ("sync_seconds".into(), Json::Num(b.sync_seconds)),
        ("setup_seconds".into(), Json::Num(b.setup_seconds)),
        (
            "accelerated_seconds".into(),
            Json::Num(b.accelerated_seconds),
        ),
        ("overlap_seconds".into(), Json::Num(b.overlap_seconds)),
        ("overlap_occupancy".into(), Json::Num(b.overlap_occupancy)),
        ("entries".into(), Json::Num(b.entries as f64)),
        ("hit_count".into(), Json::Num(b.hit_count as f64)),
    ])
}

fn board_from_json(json: &Json) -> Result<BoardTelemetry, String> {
    let mut fpga = Vec::new();
    for f in require(json, "fpga")?
        .as_arr()
        .ok_or("fpga must be an array")?
    {
        fpga.push(FpgaTelemetry {
            cycles: u64_field(f, "cycles")?,
            stall_cycles: u64_field(f, "stall_cycles")?,
            busy_pe_cycles: u64_field(f, "busy_pe_cycles")?,
            fifo_peak: u64_field(f, "fifo_peak")?,
            utilization: num_field(f, "utilization")?,
        });
    }
    Ok(BoardTelemetry {
        pe_count: u64_field(json, "pe_count")?,
        fpga,
        bytes_in: u64_field(json, "bytes_in")?,
        bytes_out: u64_field(json, "bytes_out")?,
        wire_in_seconds: num_field(json, "wire_in_seconds")?,
        wire_out_seconds: num_field(json, "wire_out_seconds")?,
        sync_seconds: num_field(json, "sync_seconds")?,
        setup_seconds: num_field(json, "setup_seconds")?,
        accelerated_seconds: num_field(json, "accelerated_seconds")?,
        // Absent in reports written before overlap accounting: that is
        // a no-overlap run, not a schema error.
        overlap_seconds: json
            .get("overlap_seconds")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0),
        overlap_occupancy: json
            .get("overlap_occupancy")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0),
        entries: u64_field(json, "entries")?,
        hit_count: u64_field(json, "hit_count")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{self, Key};
    use crate::recorder::{MemRecorder, Recorder};

    fn sample_report() -> RunReport {
        let rec = MemRecorder::new();
        rec.set_meta(keys::BACKEND, "rasc");
        rec.set_meta(keys::STEP2_KERNEL, "simd");
        rec.add(keys::STEP2_PAIRS, 1_000_000);
        rec.add(&Key::test("step2.candidates"), 1234);
        for v in [1u64, 3, 3, 90, 4096] {
            rec.observe(keys::STEP2_PAIRS_PER_KEY, v);
        }
        rec.record_span(&Key::test("step2.ungapped"), 0.125);

        let mut report = RunReport::new();
        report.steps = vec![
            StepReport {
                name: "step1".into(),
                wall_seconds: 0.5,
                accelerated_seconds: None,
            },
            StepReport {
                name: "step2".into(),
                wall_seconds: 12.0,
                accelerated_seconds: Some(0.75),
            },
            StepReport {
                name: "step3".into(),
                wall_seconds: 0.25,
                accelerated_seconds: None,
            },
        ];
        report.absorb_snapshot(&rec.snapshot());
        report.board = Some(BoardTelemetry {
            pe_count: 192,
            fpga: vec![
                FpgaTelemetry {
                    cycles: 1000,
                    stall_cycles: 10,
                    busy_pe_cycles: 150_000,
                    fifo_peak: 37,
                    utilization: 0.78125,
                },
                FpgaTelemetry {
                    cycles: 900,
                    stall_cycles: 0,
                    busy_pe_cycles: 140_000,
                    fifo_peak: 12,
                    utilization: 0.8101,
                },
            ],
            bytes_in: 123456,
            bytes_out: 789,
            wire_in_seconds: 3.8e-5,
            wire_out_seconds: 2.4e-7,
            sync_seconds: 1.0e-4,
            setup_seconds: 0.8,
            accelerated_seconds: 0.75,
            overlap_seconds: 0.31,
            overlap_occupancy: 0.42,
            entries: 42,
            hit_count: 99,
        });
        report
    }

    #[test]
    fn json_round_trip_is_structurally_equal() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = RunReport::parse(&text).expect("parse back");
        assert_eq!(report, back);
        // And a second generation is byte-identical (stable ordering).
        assert_eq!(text, back.to_json_string());
    }

    #[test]
    fn round_trip_without_board() {
        let mut report = sample_report();
        report.board = None;
        let back = RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(report, back);
        assert!(back.board.is_none());
    }

    #[test]
    fn missing_required_fields_are_rejected() {
        let report = sample_report();
        for field in ["schema_version", "steps", "counters", "meta"] {
            let Json::Obj(members) = report.to_json() else {
                unreachable!()
            };
            let pruned = Json::Obj(members.into_iter().filter(|(k, _)| k != field).collect());
            let err = RunReport::from_json(&pruned).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn report_with_retired_faults_object_still_parses() {
        // A v2 report written while the board modelled faults: a board
        // `faults` object and three `step2.fault*` counters.
        let new = sample_report();
        let faults = r#"{"injected":7,"detected":6,"detectors":{"checksum":3,"watchdog":1,"protocol":2},"recovery":{"retries":5,"entries_degraded":1,"backoff_cycles":3840}}"#;
        let mut old = new.clone();
        for (key, value) in [
            ("step2.faults_detected", 6),
            ("step2.fault_retries", 5),
            ("step2.entries_degraded", 1),
        ] {
            old.counters.push((key.into(), value));
        }
        let Json::Obj(mut members) = old.to_json() else {
            unreachable!()
        };
        for (k, v) in &mut members {
            if k == "board" {
                let Json::Obj(board) = v else { unreachable!() };
                board.push(("faults".into(), Json::parse(faults).unwrap()));
            }
        }
        let text = Json::Obj(members).to_string_pretty();
        assert!(text.contains("\"backoff_cycles\""), "{text}");
        let old = RunReport::parse(&text).expect("a retired faults object parses");
        assert_eq!(old.board, new.board);
        assert_eq!(old.counter("step2.fault_retries"), Some(5));
        // `psc report --compare OLD NEW`: the retired counters show as
        // removed rows, which never gate.
        let gates = crate::compare::CompareConfig {
            max_wall_regress_pct: Some(0.0),
            max_counter_regress_pct: Some(0.0),
        };
        let diff = crate::compare::diff_reports(&old, &new, gates);
        assert!(diff.regressions().is_empty(), "{diff:?}");
        let removed: Vec<_> = diff
            .rows
            .iter()
            .filter(|r| r.removed)
            .map(|r| &r.name)
            .collect();
        assert_eq!(removed.len(), 3, "{removed:?}");
    }

    #[test]
    fn report_without_overlap_fields_parses_to_zero() {
        // Reports written before double-buffer accounting lack the
        // board's overlap fields; they must still parse (same schema
        // version) as a no-overlap run.
        let report = sample_report();
        let Json::Obj(mut members) = report.to_json() else {
            unreachable!()
        };
        for (k, v) in &mut members {
            if k == "board" {
                let Json::Obj(board) = v else { unreachable!() };
                board.retain(|(k, _)| k != "overlap_seconds" && k != "overlap_occupancy");
            }
        }
        let back = RunReport::from_json(&Json::Obj(members)).unwrap();
        let board = back.board.as_ref().unwrap();
        assert_eq!(board.overlap_seconds, 0.0);
        assert_eq!(board.overlap_occupancy, 0.0);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut report = sample_report();
        report.schema_version = SCHEMA_VERSION + 1;
        let err = RunReport::parse(&report.to_json_string()).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
        report.schema_version = SCHEMA_VERSION - 1;
        let err = RunReport::parse(&report.to_json_string()).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
    }

    #[test]
    fn percentages_use_accelerated_seconds() {
        let report = sample_report();
        // Effective: 0.5 + 0.75 + 0.25 = 1.5 (step2 wall of 12 s is the
        // simulation cost, not the paper's accounting).
        assert!((report.total_seconds() - 1.5).abs() < 1e-12);
        let rows = report.percentages();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].0, "step2");
        assert!((rows[1].2 - 50.0).abs() < 1e-9);
        assert!((rows[0].2 + rows[1].2 + rows[2].2 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn lookup_helpers() {
        let report = sample_report();
        assert_eq!(report.counter("step2.pairs"), Some(1_000_000));
        assert_eq!(report.counter("nope"), None);
        assert_eq!(report.meta_value("backend"), Some("rasc"));
        assert_eq!(report.step("step3").unwrap().wall_seconds, 0.25);
        assert_eq!(report.histogram("step2.pairs_per_key").unwrap().count, 5);
    }
}
