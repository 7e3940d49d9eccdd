//! The result line: named metrics with units, plus the outcome counts.

use chambolle_telemetry::json::JsonValue;

use crate::stats::{summarize_quiet, Summary, LANE_KEEP};

/// Metrics in the order they were measured, plus the sample summaries that
/// the timing metrics were read from.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    timings: Vec<(String, Summary)>,
    notes: Vec<(String, JsonValue)>,
}

impl Metrics {
    /// Records `name` (replacing an earlier value of the same name).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.entries.retain(|(n, _, _)| *n != name);
        self.entries.push((name, value, unit));
    }

    /// Records a closed-loop lane from `(ms, steal share)` samples, one per
    /// operation: `{lane}.rate_hz` (operations per second over the samples
    /// used), `{lane}.p50_ms` and `{lane}.tail_ms` (see
    /// [`summarize_quiet`], at least [`LANE_KEEP`] samples), and keeps the sample count, tail percentile and
    /// quartiles for the record.
    pub fn put_lane(&mut self, lane: &str, samples: &[(f64, f64)]) {
        let s = summarize_quiet(samples, LANE_KEEP);
        self.put(format!("{lane}.rate_hz"), 1e3 / s.mean, "1/s");
        self.put(format!("{lane}.p50_ms"), s.p50, "ms");
        self.put(format!("{lane}.tail_ms"), s.tail, "ms");
        self.timings.push((lane.to_string(), s));
    }

    /// Attaches a fact about the run that is not a metric (the seeded
    /// motion, the Fast tier's deviation, ...) to the description line.
    pub fn note(&mut self, key: &str, value: JsonValue) {
        self.notes.push((key.to_string(), value));
    }

    /// The notes, followed by the sample summaries behind the timing
    /// metrics under `timings`.
    pub fn notes_json(&self) -> Vec<(String, JsonValue)> {
        let mut notes = self.notes.clone();
        notes.push(("timings".into(), self.timings_json()));
        notes
    }

    fn timings_json(&self) -> JsonValue {
        JsonValue::Object(
            self.timings
                .iter()
                .map(|(lane, s)| {
                    (
                        lane.clone(),
                        JsonValue::Object(vec![
                            ("n".into(), s.n.into()),
                            ("taken".into(), s.taken.into()),
                            ("min_ms".into(), s.min.into()),
                            ("q1_ms".into(), s.q1.into()),
                            ("p50_ms".into(), s.p50.into()),
                            ("q3_ms".into(), s.q3.into()),
                            ("tail_ms".into(), s.tail.into()),
                            ("tail_pct".into(), s.tail_pct.into()),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.entries
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        JsonValue::Object(vec![
                            ("value".into(), (*value).into()),
                            ("unit".into(), (*unit).into()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Operations attempted and failed, correctness checks included.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or whose output failed a check.
    pub failed: u64,
}

impl Outcome {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a correctness check made on an operation already counted:
    /// a failed check counts as a failure of that operation.
    pub fn check(&mut self, ok: bool) {
        self.failed += u64::from(!ok);
    }

    /// Share of attempted operations that failed (1 when none were
    /// attempted: a run that did nothing did not succeed).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// The last line of standard output.
pub fn result_line(outcome: Outcome, metrics: &Metrics) -> String {
    JsonValue::Object(vec![
        ("correct".into(), (outcome.failed == 0).into()),
        ("attempted".into(), outcome.attempted.into()),
        ("failed".into(), outcome.failed.into()),
        ("metrics".into(), metrics.to_json()),
    ])
    .to_string()
}
